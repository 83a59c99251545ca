"""Hierarchical on-disk store: records plus two mirrored metadata trees.

Layout under one root directory:

    records/          <ns>/<local>.xml   one XML record document per item
    tf_metadata/      <ns>/<local>.tf    term<TAB>count lines, terms sorted
    weights_metadata/ <ns>/<local>.w     norm header, then term<TAB>weight
    top_matches/      <encoded id>       identifier<TAB>score lines (by rank)
    similarities.txt                     id_a<TAB>id_b<TAB>score, full triangle
    compute_meta.txt                     bookkeeping for the last compute run

Identifier-to-path mapping percent-encodes each segment, so it is reversible
and two identifiers can never share a file; a file under any name it does
not give is no record. An identifier is storable only when it is not empty
and every file name derived from it fits in NAME_MAX bytes; the store
refuses any other and treats it as absent on lookup. Every record change
bumps the corpus epoch in .epoch before the record file is written, holding
an exclusive flock on records/ across both steps. The serving side reads
headers from an in-memory catalog stamped with the epoch it was built at;
its build holds the same lock shared, so it never pairs a new epoch with the
records from before the change. The catalog is the store's one view of
records/: a build lists it with os.scandir, reads every record file and
judges (parses and checks for splicing) only bytes the previous build did
not read. ListRecords pages and GetRecord answers serve the bytes their
catalog read, so a file changed behind the store's back is seen at the next
epoch. A derived tree is current exactly when its commit record carries
that epoch: tf_metadata/.indexed_epoch for the tf tree, compute_meta.txt for
the weights, pair and top-match outputs (see pipeline). Every store file is
replaced whole through replacing. idf values are never written anywhere:
they exist only in memory while computing.
"""

from __future__ import annotations

import fcntl
import itertools
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping
from urllib.parse import quote, unquote

from .exceptions import (
    ConfigError,
    NotFoundError,
    PathCollisionError,
    RecordValidationError,
)
from .oai_xml import (
    fragment_layout,
    parse_record_fragment,
    parse_record_header,
    serialize_record_fragment,
)
from .records import Header, MetadataRecord
from .similarity import WeightedVector
from .textpipe import TermFrequencyVector

RECORD_SUFFIX = ".xml"
TF_SUFFIX = ".tf"
WEIGHTS_SUFFIX = ".w"
#: The longest file name, in bytes, that common filesystems accept.
NAME_MAX = 255

_RAW_BUCKET = "%raw"
_OAI_ID_RE = re.compile(r"^oai:([^:]+):(.+)$", re.DOTALL)


def _encode_segment(text: str) -> str:
    # quote() keeps only [A-Za-z0-9_.~-]; everything else (including '/',
    # ':', '%') becomes %XX, so decoding is exact and the map is injective.
    # A segment of dots alone would name the directory itself or its parent,
    # so its dots are encoded too; quote() never yields %2E otherwise.
    if text.strip(".") == "":
        return "%2E" * len(text)
    return quote(text, safe="")


def _relname(identifier: str) -> str:
    """Deterministic two-level relative name (no suffix): "<bucket>/<name>"."""
    match = _OAI_ID_RE.match(identifier)
    if match:
        return f"{_encode_segment(match.group(1))}/{_encode_segment(match.group(2))}"
    # Non-oai identifiers live in a reserved bucket; '%' is never produced
    # unencoded by the encoder, so the bucket cannot clash with a namespace.
    return f"{_RAW_BUCKET}/{_encode_segment(identifier)}"


def _identifier(bucket: str, name: str) -> str:
    """Inverse of _relname: the identifier stored as <bucket>/<name>."""
    if bucket == _RAW_BUCKET:
        return unquote(name)
    return f"oai:{unquote(bucket)}:{unquote(name)}"


def _stored_identifier(bucket: str, name: str) -> str | None:
    """The identifier whose record file records/<bucket>/<name> is, judged
    from the names alone: None unless name is the one record_path gives a
    storable identifier. Any other spelling of a name (a hand-placed
    %41.xml beside A.xml, say) is no record, as lookups never reach it, and
    neither is a file an older store wrote for an identifier not storable."""
    stem = name.removesuffix(RECORD_SUFFIX)
    if stem == name:
        return None
    identifier = _identifier(bucket, stem)
    if _relname(identifier) != f"{bucket}/{stem}" or not storable(identifier):
        return None
    return identifier


def _tree_file(tree: Path, identifier: str, suffix: str) -> Path:
    """identifier's file in a two-level tree, built from one string."""
    return Path(f"{tree}/{_relname(identifier)}{suffix}")


def storable(identifier: str) -> bool:
    """Whether identifier is not empty (no record's is, and its top file
    would be top_matches/ itself) and every file name derived from it fits
    in NAME_MAX bytes: the record file (longer than the .tf and .w names)
    and the flat top-match file. Encoded names are ASCII."""
    if not identifier:
        return False
    if 3 * len(identifier.encode("utf-8")) + len(RECORD_SUFFIX) <= NAME_MAX:
        return True  # percent-encoding at most triples a name's bytes
    name = _relname(identifier).partition("/")[2]
    return max(len(name + RECORD_SUFFIX), len(_encode_segment(identifier))) <= NAME_MAX


_WRITES = itertools.count()


@contextmanager
def replacing(path: Path):
    """Yield a temporary beside path to write; it is renamed over path on a
    clean exit and removed on an exception, so no reader finds path missing
    or half written. Its name, %tmp.<pid>.<n>, fits in NAME_MAX and is no
    store file's: the encoder never writes '%' before a lowercase letter."""
    tmp = path.with_name(f"%tmp.{os.getpid()}.{next(_WRITES)}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_TEMPORARY = re.compile(r"%tmp\.([1-9]\d*)\.\d+")


def remove_dead_temporaries(paths: Iterable[Path]) -> None:
    """Remove those of paths that are temporaries (see replacing) of a
    process no longer running: a write killed before its rename leaves one
    for good. A running process's may yet be renamed, so they stay, and so
    does any file whose pid cannot be shown gone: one another user's
    process holds (PermissionError) or one out of the range of pids."""
    for path in paths:
        match = _TEMPORARY.fullmatch(path.name)
        if match is None:
            continue
        try:
            os.kill(int(match[1]), 0)
        except ProcessLookupError:
            path.unlink(missing_ok=True)
        except (OSError, OverflowError):
            pass


def write_atomic(path: Path, data: bytes) -> None:
    """Replace path's content with data through replacing, making path's
    directory if it is missing."""
    with replacing(path) as tmp:
        try:
            tmp.write_bytes(data)
        except FileNotFoundError:  # cheaper than a mkdir before every write
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)


@dataclass(frozen=True)
class PutResult:
    status: str  # created | unchanged | replaced
    replaced: MetadataRecord | None = None


@dataclass(frozen=True)
class _Memo:
    """One record file as a catalog build read it: the bytes a ListRecords
    page or a GetRecord answer serves, their header and their
    fragment_layout."""

    data: bytes
    header: Header
    layout: tuple[int, frozenset[str]] | None


@dataclass(frozen=True)
class Catalog:
    """Every stored record's header at one epoch, ascending by identifier,
    with the distinct setSpecs (ascending) and the earliest datestamp at
    second granularity (None for an empty store). files holds what the build
    read: identifier -> _Memo, never changed once built, whose bytes are
    all a ListRecords page or a GetRecord answer from this catalog serves."""

    epoch: int
    headers: tuple[Header, ...]
    set_specs: tuple[str, ...]
    earliest: str | None
    files: Mapping[str, _Memo] = field(repr=False)

    def select(
        self, from_: str | None, until: str | None, set_spec: str | None
    ) -> list[Header]:
        """Headers in the datestamp range (inclusive, date-only bounds widen
        to whole days) that carry set_spec; None leaves a filter off."""
        low = _datestamp_key(from_, end=False) if from_ else None
        high = _datestamp_key(until, end=True) if until else None
        kept = []
        for header in self.headers:
            if low is not None or high is not None:
                key = _datestamp_key(header.datestamp, end=False)
                if low is not None and key < low:
                    continue
                if high is not None and key > high:
                    continue
            if set_spec is not None and set_spec not in header.set_specs:
                continue
            kept.append(header)
        return kept


class RecordStore:
    """Store facade. One instance per root; methods are individually atomic
    enough for the supported discipline (single writer, many readers)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.records_dir = self.root / "records"
        self.tf_dir = self.root / "tf_metadata"
        self.indexed_epoch_path = self.tf_dir / ".indexed_epoch"
        self.weights_dir = self.root / "weights_metadata"
        self.top_dir = self.root / "top_matches"
        self.similarities_path = self.root / "similarities.txt"
        self.compute_meta_path = self.root / "compute_meta.txt"
        self.epoch_path = self.root / ".epoch"
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self._catalog: Catalog | None = None
        self._catalog_lock = threading.Lock()

    @classmethod
    def open(cls, root: str | Path) -> RecordStore:
        """The store at root, which must already hold records/: ConfigError,
        creating nothing, when it does not. A root that is a file is an
        operating-system failure, raised as the OSError it is."""
        try:
            (Path(root) / "records").stat()
        except FileNotFoundError:
            raise ConfigError(f"no store at {root}") from None
        return cls(root)

    # -- epoch -------------------------------------------------------------

    def epoch(self) -> int:
        try:
            return int(self.epoch_path.read_text(encoding="ascii"))
        except FileNotFoundError:
            return 0

    @contextmanager
    def _records_locked(self, operation: int):
        """Hold flock(operation) on the records/ directory; closing the
        descriptor releases it."""
        fd = os.open(self.records_dir, os.O_RDONLY)
        try:
            fcntl.flock(fd, operation)
            yield
        finally:
            os.close(fd)

    # -- records -----------------------------------------------------------

    def record_path(self, identifier: str) -> Path:
        return _tree_file(self.records_dir, identifier, RECORD_SUFFIX)

    def has_record(self, identifier: str) -> bool:
        return storable(identifier) and self.record_path(identifier).is_file()

    def put_record(self, record: MetadataRecord) -> PutResult:
        """Write one record; identical content is a no-op, and a copy in an
        earlier version's layout is rewritten without moving the epoch. A
        change bumps the corpus epoch first, so a write that never lands
        still leaves every derived tree stale. An unstorable identifier is
        refused with RecordValidationError before anything is written."""
        if not storable(record.identifier):
            raise RecordValidationError(
                f"identifier {record.identifier[:80]!r}... is too long to store: "
                f"a file name derived from it exceeds {NAME_MAX} bytes"
            )
        path = self.record_path(record.identifier)
        payload = serialize_record_fragment(record)
        previous = None
        try:
            existing = path.read_bytes()
        except FileNotFoundError:
            status = "created"
        else:
            if existing == payload:  # equal bytes hold the same identifier
                return PutResult("unchanged")
            previous = parse_record_fragment(existing)
            if previous == record:  # an earlier version's layout
                write_atomic(path, payload)
                return PutResult("unchanged")
            if previous.identifier != record.identifier:
                raise PathCollisionError(
                    f"path {path} already holds {previous.identifier!r}; "
                    f"refusing to overwrite it with {record.identifier!r}"
                )
            status = "replaced"
        # a catalog build between the bump and the write would stamp the new
        # epoch on the old records, so the lock spans both
        with self._records_locked(fcntl.LOCK_EX):
            write_atomic(self.epoch_path, str(self.epoch() + 1).encode("ascii"))
            write_atomic(path, payload)
        return PutResult(status, previous)

    def get_record(self, identifier: str) -> MetadataRecord:
        if storable(identifier):
            try:
                data = self.record_path(identifier).read_bytes()
            except FileNotFoundError:
                pass
            else:
                return _checked(parse_record_fragment(data), identifier)
        raise NotFoundError(f"no record stored for {identifier!r}")

    def _record_files(self) -> list[tuple[str, str]]:
        """(identifier, record file) for every record file in a directory of
        records/ (see _stored_identifier), ascending; nothing else there is
        listed, so a temporary a killed write left is never read."""
        files = []
        with os.scandir(self.records_dir) as buckets:
            for bucket in filter(os.DirEntry.is_dir, buckets):
                with os.scandir(bucket.path) as entries:
                    for entry in entries:
                        identifier = _stored_identifier(bucket.name, entry.name)
                        if identifier is not None:
                            files.append((identifier, entry.path))
        return sorted(files)

    def list_identifiers(self) -> list[str]:
        """All stored identifiers, ascending. This lists records/ and parses
        nothing; filtered listing is catalog().select(...)."""
        return [identifier for identifier, _ in self._record_files()]

    def set_specs(self) -> list[str]:
        """Distinct setSpec values across all stored records, ascending."""
        return list(self.catalog().set_specs)

    def earliest_datestamp(self) -> str | None:
        """The earliest stored datestamp at second granularity; None when
        the store is empty."""
        return self.catalog().earliest

    # -- header catalog -----------------------------------------------------

    def catalog(self) -> Catalog:
        """The header catalog at the current epoch, rebuilt on first use
        after the epoch moves. Harvests in other processes are seen through
        the epoch alone."""
        with self._catalog_lock:
            if self._catalog is None or self._catalog.epoch != self.epoch():
                self._catalog = self._build_catalog()
            return self._catalog

    def _build_catalog(self) -> Catalog:
        # headers only: parsing a record's metadata would more than double
        # this. A file is judged again only when its bytes changed: equal
        # bytes give the same verdicts, where an equal stat may hide a rewrite.
        seen = self._catalog.files if self._catalog is not None else {}
        files = {}
        with self._records_locked(fcntl.LOCK_SH):
            epoch = self.epoch()
            for identifier, path in self._record_files():
                with open(path, "rb") as handle:
                    data = handle.read()
                memo = seen.get(identifier)
                if memo is None or memo.data != data:
                    # parsing the header reads the whole document, so
                    # fragment_layout meets well-formed bytes alone
                    header = _checked(parse_record_header(data), identifier)
                    memo = _Memo(data, header, fragment_layout(identifier, data))
                files[identifier] = memo
        headers = [memo.header for memo in files.values()]
        return Catalog(
            epoch,
            tuple(headers),
            tuple(sorted({spec for header in headers for spec in header.set_specs})),
            min(
                (_datestamp_key(header.datestamp, end=False) for header in headers),
                default=None,
            ),
            files,
        )

    # -- term frequencies ---------------------------------------------------

    def tf_path(self, identifier: str) -> Path:
        return _tree_file(self.tf_dir, identifier, TF_SUFFIX)

    def put_tf(self, vector: TermFrequencyVector) -> Path:
        if not self.has_record(vector.identifier):
            raise NotFoundError(
                f"no record stored for {vector.identifier!r}; store the record first"
            )
        path = self.tf_path(vector.identifier)
        lines = [f"{term}\t{count}\n" for term, count in vector.counts.items()]
        write_atomic(path, "".join(lines).encode("utf-8"))
        return path

    def get_tf(self, identifier: str) -> TermFrequencyVector:
        path = self.tf_path(identifier)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise NotFoundError(
                f"no term frequencies for {identifier!r}; run index"
            ) from None
        counts: dict[str, int] = {}
        for line in text.splitlines():
            term, _, count = line.partition("\t")
            counts[term] = int(count)
        return TermFrequencyVector(identifier, counts)

    # -- weights --------------------------------------------------------------

    def weights_path(self, identifier: str) -> Path:
        return _tree_file(self.weights_dir, identifier, WEIGHTS_SUFFIX)

    def put_weights(self, vector: WeightedVector) -> Path:
        if not self.tf_path(vector.identifier).is_file():
            raise NotFoundError(
                f"no term frequencies for {vector.identifier!r}; index before weighting"
            )
        path = self.weights_path(vector.identifier)
        lines = [repr(vector.norm) + "\n"]
        lines += [f"{term}\t{weight!r}\n" for term, weight in vector.weights.items()]
        write_atomic(path, "".join(lines).encode("utf-8"))
        return path

    # -- top matches and pair file ---------------------------------------------

    def top_path(self, identifier: str) -> Path:
        return self.top_dir / _encode_segment(identifier)


def _checked(parsed, identifier: str):
    """A record or header read from identifier's record file, refused unless
    it names identifier."""
    if parsed.identifier != identifier:
        raise PathCollisionError(
            f"records/{_relname(identifier)}{RECORD_SUFFIX} holds "
            f"{parsed.identifier!r}, expected {identifier!r}"
        )
    return parsed


def _datestamp_key(stamp: str, end: bool) -> str:
    """Sortable second-resolution key; date-only stamps widen to day bounds."""
    if len(stamp) == 10:
        return stamp + ("T23:59:59Z" if end else "T00:00:00Z")
    return stamp

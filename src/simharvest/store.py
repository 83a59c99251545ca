"""Hierarchical on-disk store: records plus two mirrored metadata trees.

Layout under one root directory:

    records/          <ns>/<local>.xml   one XML record document per item
    tf_metadata/      <ns>/<local>.tf    term<TAB>count lines, terms sorted
    weights_metadata/ <ns>/<local>.w     norm header, then term<TAB>weight
    top_matches/      <encoded id>       identifier<TAB>score lines (by rank)
    similarities.txt                     id_a<TAB>id_b<TAB>score, full triangle
    compute_meta.txt                     bookkeeping for the last compute run

Identifier-to-path mapping percent-encodes each segment, so it is reversible
and two identifiers can never share a file. Every record change bumps the
corpus epoch in .epoch before the record file is written. A derived tree is
current exactly when its commit record carries that epoch:
tf_metadata/.indexed_epoch for the tf tree, compute_meta.txt for the
weights, pair and top-match outputs (see pipeline). .epoch, the records and
both commit records are replaced atomically through write_atomic. idf values
are never written anywhere: they exist only in memory while computing.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from urllib.parse import quote, unquote

from .exceptions import NotFoundError, PathCollisionError, StorageError
from .oai_xml import parse_record_fragment, serialize_record_fragment
from .records import MetadataRecord, is_valid_datestamp
from .similarity import WeightedVector
from .textpipe import TermFrequencyVector

RECORD_SUFFIX = ".xml"
TF_SUFFIX = ".tf"
WEIGHTS_SUFFIX = ".w"

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


def _decode_segment(text: str) -> str:
    return unquote(text)


def identifier_to_relpath(identifier: str) -> PurePosixPath:
    """Deterministic two-level relative path (no suffix) for an identifier."""
    match = _OAI_ID_RE.match(identifier)
    if match:
        return PurePosixPath(
            _encode_segment(match.group(1)), _encode_segment(match.group(2))
        )
    # Non-oai identifiers live in a reserved bucket; '%' is never produced
    # unencoded by the encoder, so the bucket cannot clash with a namespace.
    return PurePosixPath(_RAW_BUCKET, _encode_segment(identifier))


def relpath_to_identifier(relpath: PurePosixPath | str) -> str:
    """Inverse of identifier_to_relpath (suffix already stripped)."""
    parts = PurePosixPath(relpath).parts
    if len(parts) != 2:
        raise StorageError(f"store path {relpath!s} is not two levels deep")
    bucket, name = parts
    if bucket == _RAW_BUCKET:
        return _decode_segment(name)
    return f"oai:{_decode_segment(bucket)}:{_decode_segment(name)}"


def encode_flat(identifier: str) -> str:
    """Single-segment encoding used for top-match file names."""
    return _encode_segment(identifier)


def write_atomic(path: Path, data: bytes) -> None:
    """Replace path's content in one step: readers and a process that dies
    mid-write see the old file or the new one, never a torn one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


@dataclass(frozen=True)
class PutResult:
    path: Path
    status: str  # created | unchanged | replaced
    replaced: MetadataRecord | None = None


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
        for directory in (self.records_dir, self.tf_dir, self.weights_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- epoch -------------------------------------------------------------

    def epoch(self) -> int:
        try:
            return int(self.epoch_path.read_text(encoding="ascii"))
        except FileNotFoundError:
            return 0

    def _bump_epoch(self) -> None:
        write_atomic(self.epoch_path, str(self.epoch() + 1).encode("ascii"))

    # -- records -----------------------------------------------------------

    def record_path(self, identifier: str) -> Path:
        rel = identifier_to_relpath(identifier)
        return self.records_dir / rel.parent / (rel.name + RECORD_SUFFIX)

    def has_record(self, identifier: str) -> bool:
        return self.record_path(identifier).is_file()

    def put_record(self, record: MetadataRecord) -> PutResult:
        """Write one record; identical content is a no-op. A change bumps the
        corpus epoch first, so a write that never lands still leaves every
        derived tree stale."""
        path = self.record_path(record.identifier)
        payload = serialize_record_fragment(record)
        previous = None
        try:
            existing = path.read_bytes()
        except FileNotFoundError:
            status = "created"
        else:
            if existing == payload:  # equal bytes hold the same identifier
                return PutResult(path, "unchanged", None)
            previous = parse_record_fragment(existing)
            if previous.identifier != record.identifier:
                raise PathCollisionError(
                    f"path {path} already holds {previous.identifier!r}; "
                    f"refusing to overwrite it with {record.identifier!r}"
                )
            status = "replaced"
        self._bump_epoch()
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, payload)
        return PutResult(path, status, previous)

    def get_record(self, identifier: str) -> MetadataRecord:
        path = self.record_path(identifier)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise NotFoundError(f"no record stored for {identifier!r}") from None
        record = parse_record_fragment(data)
        if record.identifier != identifier:
            raise PathCollisionError(
                f"file {path} holds {record.identifier!r}, expected {identifier!r}"
            )
        return record

    def list_identifiers(
        self,
        from_: str | None = None,
        until: str | None = None,
        set_spec: str | None = None,
    ) -> list[str]:
        """All stored identifiers, ascending, optionally filtered by datestamp
        range (inclusive, date-only bounds widen to whole days) and setSpec."""
        for bound, name in ((from_, "from"), (until, "until")):
            if bound is not None and not is_valid_datestamp(bound):
                raise StorageError(f"bad {name} datestamp {bound!r}")
        identifiers = sorted(
            relpath_to_identifier(
                PurePosixPath(path.parent.name, path.name[: -len(RECORD_SUFFIX)])
            )
            for path in self.records_dir.glob(f"*/*{RECORD_SUFFIX}")
        )
        if from_ is None and until is None and set_spec is None:
            return identifiers
        low = _datestamp_key(from_, end=False) if from_ else None
        high = _datestamp_key(until, end=True) if until else None
        kept = []
        for identifier in identifiers:
            record = self.get_record(identifier)
            key = _datestamp_key(record.datestamp, end=False)
            if low is not None and key < low:
                continue
            if high is not None and key > high:
                continue
            if set_spec is not None and set_spec not in record.set_specs:
                continue
            kept.append(identifier)
        return kept

    def set_specs(self) -> list[str]:
        """Distinct setSpec values across all stored records, ascending."""
        specs: set[str] = set()
        for identifier in self.list_identifiers():
            specs.update(self.get_record(identifier).set_specs)
        return sorted(specs)

    def earliest_datestamp(self) -> str | None:
        stamps = [
            self.get_record(identifier).datestamp
            for identifier in self.list_identifiers()
        ]
        if not stamps:
            return None
        return min(stamps, key=lambda s: _datestamp_key(s, end=False))

    # -- term frequencies ---------------------------------------------------

    def tf_path(self, identifier: str) -> Path:
        rel = identifier_to_relpath(identifier)
        return self.tf_dir / rel.parent / (rel.name + TF_SUFFIX)

    def put_tf(self, vector: TermFrequencyVector) -> Path:
        if not self.has_record(vector.identifier):
            raise NotFoundError(
                f"no record stored for {vector.identifier!r}; store the record first"
            )
        path = self.tf_path(vector.identifier)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"{term}\t{count}\n" for term, count in vector.counts.items()]
        path.write_text("".join(lines), encoding="utf-8")
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
        rel = identifier_to_relpath(identifier)
        return self.weights_dir / rel.parent / (rel.name + WEIGHTS_SUFFIX)

    def put_weights(self, vector: WeightedVector) -> Path:
        if not self.tf_path(vector.identifier).is_file():
            raise NotFoundError(
                f"no term frequencies for {vector.identifier!r}; index before weighting"
            )
        path = self.weights_path(vector.identifier)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [repr(vector.norm) + "\n"]
        lines += [f"{term}\t{weight!r}\n" for term, weight in vector.weights.items()]
        path.write_text("".join(lines), encoding="utf-8")
        return path

    # -- top matches and pair file ---------------------------------------------

    def top_path(self, identifier: str) -> Path:
        return self.top_dir / encode_flat(identifier)


def _datestamp_key(stamp: str, end: bool) -> str:
    """Sortable second-resolution key; date-only stamps widen to day bounds."""
    if len(stamp) == 10:
        return stamp + ("T23:59:59Z" if end else "T00:00:00Z")
    return stamp

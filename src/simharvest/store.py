"""Hierarchical on-disk store: records plus two mirrored metadata trees.

Layout under one root directory:

    records/          <ns>/<local>.xml   one XML record document per item
    tf_metadata/      <ns>/<local>.tf    term<TAB>count lines, terms sorted
    weights_metadata/ <ns>/<local>.w     norm header, then term<TAB>weight
    top_matches/      <encoded id>       identifier<TAB>score lines (by rank)
    similarities.txt                     id_a<TAB>id_b<TAB>score, full triangle
    compute_meta.txt                     bookkeeping for the last compute run

Identifier-to-path mapping percent-encodes each segment, so it is reversible
and two identifiers can never share a file. Mutating any record bumps the
corpus epoch and drops a staleness marker inside weights_metadata/; weight
reads are refused until a recompute clears it. index records the epoch it
indexed in tf_metadata/.indexed_epoch, and compute refuses a tf tree whose
epoch is not the current one. idf values are never written anywhere: they
exist only in memory while computing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Iterator
from urllib.parse import quote, unquote

from .exceptions import (
    NotFoundError,
    PathCollisionError,
    StalenessError,
    StorageError,
)
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


def decode_flat(name: str) -> str:
    return _decode_segment(name)


@dataclass(frozen=True)
class PutResult:
    path: Path
    status: str  # created | unchanged | replaced
    replaced: MetadataRecord | None = None


@dataclass(frozen=True)
class StoreLayout:
    root: Path

    @property
    def records_dir(self) -> Path:
        return self.root / "records"

    @property
    def tf_dir(self) -> Path:
        return self.root / "tf_metadata"

    @property
    def indexed_epoch_path(self) -> Path:
        return self.tf_dir / ".indexed_epoch"

    @property
    def weights_dir(self) -> Path:
        return self.root / "weights_metadata"

    @property
    def top_dir(self) -> Path:
        return self.root / "top_matches"

    @property
    def similarities_path(self) -> Path:
        return self.root / "similarities.txt"

    @property
    def compute_meta_path(self) -> Path:
        return self.root / "compute_meta.txt"

    @property
    def stale_marker(self) -> Path:
        return self.weights_dir / ".stale"

    @property
    def epoch_path(self) -> Path:
        return self.root / ".epoch"


class RecordStore:
    """Store facade. One instance per root; methods are individually atomic
    enough for the supported discipline (single writer, many readers)."""

    def __init__(self, root: str | Path):
        self.layout = StoreLayout(Path(root))
        for directory in (
            self.layout.records_dir,
            self.layout.tf_dir,
            self.layout.weights_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self.layout.root

    # -- epoch and staleness ---------------------------------------------

    def epoch(self) -> int:
        try:
            return int(self.layout.epoch_path.read_text(encoding="ascii"))
        except FileNotFoundError:
            return 0

    def _bump_epoch(self) -> None:
        self.layout.epoch_path.write_text(str(self.epoch() + 1), encoding="ascii")

    def is_stale(self) -> bool:
        return self.layout.stale_marker.exists()

    def mark_stale(self) -> None:
        self.layout.stale_marker.touch()

    def clear_stale(self) -> None:
        try:
            self.layout.stale_marker.unlink()
        except FileNotFoundError:
            pass

    # -- records -----------------------------------------------------------

    def record_path(self, identifier: str) -> Path:
        rel = identifier_to_relpath(identifier)
        return self.layout.records_dir / rel.parent / (rel.name + RECORD_SUFFIX)

    def has_record(self, identifier: str) -> bool:
        return self.record_path(identifier).is_file()

    def put_record(self, record: MetadataRecord) -> PutResult:
        """Write one record; identical content is a no-op, changes mark the
        weights tree stale and bump the corpus epoch."""
        path = self.record_path(record.identifier)
        payload = serialize_record_fragment(record)
        previous = None
        if path.exists():
            existing = path.read_bytes()
            previous = parse_record_fragment(existing)
            if previous.identifier != record.identifier:
                raise PathCollisionError(
                    f"path {path} already holds {previous.identifier!r}; "
                    f"refusing to overwrite it with {record.identifier!r}"
                )
            if existing == payload:
                return PutResult(path, "unchanged", None)
            status = "replaced"
        else:
            status = "created"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        self._bump_epoch()
        self.mark_stale()
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

    def _iter_relpaths(self, base: Path, suffix: str) -> Iterator[PurePosixPath]:
        for path in sorted(base.glob(f"*/*{suffix}")):
            rel = path.relative_to(base)
            yield PurePosixPath(rel.parent.as_posix(), rel.name[: -len(suffix)])

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
            relpath_to_identifier(rel)
            for rel in self._iter_relpaths(self.layout.records_dir, RECORD_SUFFIX)
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
        return self.layout.tf_dir / rel.parent / (rel.name + TF_SUFFIX)

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
        return self.layout.weights_dir / rel.parent / (rel.name + WEIGHTS_SUFFIX)

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

    def get_weights(self, identifier: str) -> WeightedVector:
        if self.is_stale():
            raise StalenessError(
                "weights are stale: the collection changed after the last compute"
            )
        path = self.weights_path(identifier)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise NotFoundError(f"no weights for {identifier!r}; run compute") from None
        lines = text.splitlines()
        if not lines:
            raise StorageError(f"weights file {path} is empty")
        norm = float(lines[0])
        weights: dict[str, float] = {}
        for line in lines[1:]:
            term, _, weight = line.partition("\t")
            weights[term] = float(weight)
        return WeightedVector(identifier, weights, norm)

    # -- top matches and pair file ---------------------------------------------

    def top_path(self, identifier: str) -> Path:
        return self.layout.top_dir / encode_flat(identifier)

    # -- tree inspection ---------------------------------------------------------

    def record_relpaths(self) -> list[str]:
        return [
            str(p) for p in self._iter_relpaths(self.layout.records_dir, RECORD_SUFFIX)
        ]

    def tf_relpaths(self) -> list[str]:
        return [str(p) for p in self._iter_relpaths(self.layout.tf_dir, TF_SUFFIX)]

    def weights_relpaths(self) -> list[str]:
        return [
            str(p) for p in self._iter_relpaths(self.layout.weights_dir, WEIGHTS_SUFFIX)
        ]


def _datestamp_key(stamp: str, end: bool) -> str:
    """Sortable second-resolution key; date-only stamps widen to day bounds."""
    if len(stamp) == 10:
        return stamp + ("T23:59:59Z" if end else "T00:00:00Z")
    return stamp

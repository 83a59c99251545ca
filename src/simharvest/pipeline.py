"""Corpus pipeline: index records into term vectors, compute all similarities.

index_store and compute_store each remove their commit record
(tf_metadata/.indexed_epoch, compute_meta.txt) before they write anything
and write it last, stamped with the epoch read when they started, so a run
that fails, dies or races a record change leaves its output stale.
compute_store is the sole writer of the weights tree, the pair file, the
top-match directory and the compute metadata; check_results_fresh is the one
judge of their freshness. Output is deterministic: rerun on an unchanged
store, it reproduces similarities.txt byte for byte.
"""

from __future__ import annotations

import heapq
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

from .exceptions import NotFoundError, RecordValidationError, StalenessError
from .oai_xml import format_score
from .records import SimilarityMatch, utc_now_string
from .similarity import VectorSpaceModel, pair_count
from .store import RecordStore, write_atomic
from .textpipe import DEFAULT_FIELDS, load_stopwords, record_to_tf


@dataclass(frozen=True)
class IndexReport:
    records_indexed: int
    distinct_terms: int


@dataclass(frozen=True)
class ComputeReport:
    documents: int
    pair_count: int
    pairs_written: int
    wall_seconds: float
    per_pair_seconds: float
    k: int
    score_floor: float
    computed_at: str
    epoch: int
    #: seconds per stage of the run, keyed as STAGES, in that order
    stage_seconds: dict[str, float]


#: The timed stages of compute_store, in the order they run. Scoring is the
#: time spent waiting for row blocks (scored and written to their parts),
#: not counting the concatenation of parts and the merge of top-k lists
#: that happen between blocks.
STAGES = (
    "load_tf",
    "fit",
    "weights_write",
    "scoring",
    "concatenation",
    "top_k_merge",
    "top_files_write",
)


@contextmanager
def _stage(stages: dict[str, float], name: str):
    """Add the seconds spent in the with-block to stages[name]."""
    started = time.perf_counter()
    yield
    stages[name] += time.perf_counter() - started


def index_store(
    store: RecordStore,
    fields: Sequence[str] = DEFAULT_FIELDS,
    stopwords_path: str | None = None,
) -> IndexReport:
    """Extract, tokenize, and count every stored record into the tf tree,
    then record the store epoch that the tree reflects."""
    stopwords = load_stopwords(stopwords_path)
    epoch = store.epoch()
    store.indexed_epoch_path.unlink(missing_ok=True)
    terms: set[str] = set()
    count = 0
    for identifier in store.list_identifiers():
        record = store.get_record(identifier)
        vector = record_to_tf(record, fields, stopwords)
        store.put_tf(vector)
        terms.update(vector.counts)
        count += 1
    write_atomic(store.indexed_epoch_path, str(epoch).encode("ascii"))
    return IndexReport(count, len(terms))


def compute_store(
    store: RecordStore,
    k: int = 10,
    score_floor: float = 0.0,
    jobs: int | None = None,
) -> ComputeReport:
    """Weight the indexed corpus and score every document pair.

    Writes the weights tree, similarities.txt (pairs at or above score_floor,
    four-decimal scores), one ranked top-k file per document, and the compute
    metadata last, stamped with the epoch read at the start. Raises
    StalenessError when records changed after the last index, and
    RecordValidationError for k < 0 or score_floor outside [0, 1], in both
    cases before anything is written.
    """
    if k < 0:
        raise RecordValidationError("k must be non-negative")
    started = utc_now_string()
    t0 = time.perf_counter()
    stages = dict.fromkeys(STAGES, 0.0)
    epoch = store.epoch()
    identifiers = store.list_identifiers()
    if not identifiers:
        raise NotFoundError("store holds no records; harvest before computing")
    with _stage(stages, "load_tf"):
        corpus = [store.get_tf(identifier) for identifier in identifiers]
    try:
        indexed = store.indexed_epoch_path.read_text(encoding="ascii")
    except FileNotFoundError:
        indexed = None
    if indexed != str(epoch):
        raise StalenessError(
            "term frequencies are stale: records changed after the last index; "
            "run index"
        )
    with _stage(stages, "fit"):  # validates score_floor before anything is written
        model = VectorSpaceModel(score_floor=score_floor).fit(corpus)
    # withdraw the old results before any of them is overwritten
    store.compute_meta_path.unlink(missing_ok=True)
    with _stage(stages, "weights_write"):
        for identifier in model.identifiers_:
            store.put_weights(model.vectors_[identifier])

    tmp_path = store.similarities_path.with_suffix(".txt.tmp")
    blocks = model.similarity_pairs(str(tmp_path), k, jobs=jobs)
    best: list[list[tuple[float, int]]] = [[] for _ in identifiers]
    pairs_written = 0
    try:
        with _stage(stages, "scoring"), tmp_path.open("wb") as handle:
            for part, written, heaps in blocks:
                with _stage(stages, "concatenation"):
                    with open(part, "rb") as source:
                        shutil.copyfileobj(source, handle)
                    os.unlink(part)
                pairs_written += written
                with _stage(stages, "top_k_merge"):
                    for index, heap in heaps.items():
                        best[index] = heapq.nlargest(k, best[index] + heap)
        # the loop's own time is the wait for the blocks being scored
        stages["scoring"] -= stages["concatenation"] + stages["top_k_merge"]
        tmp_path.replace(store.similarities_path)
    finally:
        blocks.close()  # a failed run waits here for the blocks still scoring
        for leftover in tmp_path.parent.glob(tmp_path.name + "*"):
            leftover.unlink()

    with _stage(stages, "top_files_write"):
        store.top_dir.mkdir(parents=True, exist_ok=True)
        for stale_file in store.top_dir.iterdir():
            stale_file.unlink()
        for identifier, ranked in zip(model.identifiers_, best):
            lines = [
                f"{model.identifiers_[-negated]}\t{format_score(score)}\n"
                for score, negated in ranked
            ]
            store.top_path(identifier).write_text("".join(lines), encoding="utf-8")

    wall = time.perf_counter() - t0
    total_pairs = pair_count(len(identifiers))
    report = ComputeReport(
        documents=len(identifiers),
        pair_count=total_pairs,
        pairs_written=pairs_written,
        wall_seconds=wall,
        per_pair_seconds=(wall / total_pairs) if total_pairs else 0.0,
        k=k,
        score_floor=score_floor,
        computed_at=started,
        epoch=epoch,
        stage_seconds=stages,
    )
    _write_compute_meta(store, report)
    return report


def _write_compute_meta(store: RecordStore, report: ComputeReport) -> None:
    lines = [
        f"epoch = {report.epoch}\n",
        f"computed_at = {report.computed_at}\n",
        f"documents = {report.documents}\n",
        f"pair_count = {report.pair_count}\n",
        f"pairs_written = {report.pairs_written}\n",
        f"wall_seconds = {report.wall_seconds!r}\n",
        f"per_pair_seconds = {report.per_pair_seconds!r}\n",
        f"k = {report.k}\n",
        f"score_floor = {report.score_floor!r}\n",
    ]
    lines += [
        f"{name}_seconds = {seconds!r}\n"
        for name, seconds in report.stage_seconds.items()
    ]
    write_atomic(store.compute_meta_path, "".join(lines).encode("utf-8"))


def read_compute_meta(store: RecordStore) -> dict[str, str]:
    try:
        text = store.compute_meta_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StalenessError(
            "no similarity results have been computed yet; run compute"
        ) from None
    meta: dict[str, str] = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        meta[key] = value
    return meta


def check_results_fresh(store: RecordStore) -> dict[str, str]:
    """Meta of the last compute run, or StalenessError if it no longer covers
    the current corpus: results are fresh exactly when compute_meta.txt
    exists and its epoch is the store's."""
    meta = read_compute_meta(store)
    if int(meta.get("epoch", "-1")) != store.epoch():
        raise StalenessError(
            "similarity results are stale: the collection changed; run compute"
        )
    return meta


def load_top_matches(
    store: RecordStore, identifier: str, k: int | None = None
) -> list[SimilarityMatch]:
    """Ranked matches for one record from the top-match directory.

    k larger than the computed depth returns the full stored list. The
    caller checks freshness first (check_results_fresh): this reads the top
    file as it is.
    """
    path = store.top_path(identifier)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise NotFoundError(f"no top matches stored for {identifier!r}") from None
    matches = []
    for line in text.splitlines():
        other, _, score = line.partition("\t")
        matches.append(SimilarityMatch(other, float(score)))
    return matches if k is None else matches[:k]


def iter_similarity_lines(store: RecordStore):
    """(id_a, id_b, score) rows of the persisted pair file, fresh-checked."""
    check_results_fresh(store)
    try:
        handle = store.similarities_path.open(encoding="utf-8")
    except FileNotFoundError:
        raise StalenessError("similarities.txt is missing; run compute") from None
    with handle:
        for line in handle:
            id_a, id_b, score = line.rstrip("\n").split("\t")
            yield id_a, id_b, float(score)


__all__ = [
    "IndexReport",
    "ComputeReport",
    "STAGES",
    "index_store",
    "compute_store",
    "read_compute_meta",
    "check_results_fresh",
    "load_top_matches",
    "iter_similarity_lines",
]

"""Corpus pipeline: index records into term vectors, compute all similarities.

compute_store is the sole writer of the weights tree, the pair file, the
top-match directory, and the compute metadata. It always rebuilds them from
the term-frequency tree, which must have been indexed at the current epoch,
then clears the staleness marker, so a successful run leaves the store fresh
by construction. Output is deterministic: rerun
on an unchanged store, it reproduces similarities.txt byte for byte.
"""

from __future__ import annotations

import heapq
import os
import shutil
import time
from dataclasses import dataclass
from typing import Sequence

from .exceptions import NotFoundError, StalenessError
from .oai_xml import format_score
from .records import SimilarityMatch, utc_now_string
from .similarity import VectorSpaceModel
from .store import RecordStore
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


def index_store(
    store: RecordStore,
    fields: Sequence[str] = DEFAULT_FIELDS,
    stopwords_path: str | None = None,
) -> IndexReport:
    """Extract, tokenize, and count every stored record into the tf tree,
    then record the store epoch that the tree reflects."""
    stopwords = load_stopwords(stopwords_path)
    epoch = store.epoch()
    terms: set[str] = set()
    count = 0
    for identifier in store.list_identifiers():
        record = store.get_record(identifier)
        vector = record_to_tf(record, fields, stopwords)
        store.put_tf(vector)
        terms.update(vector.counts)
        count += 1
    store.layout.indexed_epoch_path.write_text(str(epoch), encoding="ascii")
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
    metadata; finally clears the staleness marker. Raises StalenessError when
    records changed after the last index.
    """
    started = utc_now_string()
    t0 = time.perf_counter()
    identifiers = store.list_identifiers()
    if not identifiers:
        raise NotFoundError("store holds no records; harvest before computing")
    corpus = [store.get_tf(identifier) for identifier in identifiers]
    try:
        indexed = store.layout.indexed_epoch_path.read_text(encoding="ascii")
    except FileNotFoundError:
        indexed = None
    if indexed != str(store.epoch()):
        raise StalenessError(
            "term frequencies are stale: records changed after the last index; "
            "run index"
        )
    model = VectorSpaceModel(score_floor=score_floor).fit(corpus)
    store.mark_stale()  # the weights tree is invalid while being rewritten
    for identifier in model.identifiers_:
        store.put_weights(model.vectors_[identifier])

    tmp_path = store.layout.similarities_path.with_suffix(".txt.tmp")
    blocks = model.similarity_pairs(str(tmp_path), k, jobs=jobs)
    best: list[list[tuple[float, int]]] = [[] for _ in identifiers]
    pairs_written = 0
    try:
        with tmp_path.open("wb") as handle:
            for part, written, heaps in blocks:
                with open(part, "rb") as source:
                    shutil.copyfileobj(source, handle)
                os.unlink(part)
                pairs_written += written
                for index, heap in heaps.items():
                    best[index] = heapq.nlargest(k, best[index] + heap)
        tmp_path.replace(store.layout.similarities_path)
    finally:
        blocks.close()  # a failed run waits here for the blocks still scoring
        for leftover in tmp_path.parent.glob(tmp_path.name + "*"):
            leftover.unlink()

    store.layout.top_dir.mkdir(parents=True, exist_ok=True)
    for stale_file in store.layout.top_dir.iterdir():
        stale_file.unlink()
    for identifier, ranked in zip(model.identifiers_, best):
        lines = [
            f"{model.identifiers_[-negated]}\t{format_score(score)}\n"
            for score, negated in ranked
        ]
        store.top_path(identifier).write_text("".join(lines), encoding="utf-8")

    wall = time.perf_counter() - t0
    total_pairs = model.pair_count()
    report = ComputeReport(
        documents=len(identifiers),
        pair_count=total_pairs,
        pairs_written=pairs_written,
        wall_seconds=wall,
        per_pair_seconds=(wall / total_pairs) if total_pairs else 0.0,
        k=k,
        score_floor=score_floor,
        computed_at=started,
        epoch=store.epoch(),
    )
    _write_compute_meta(store, report)
    store.clear_stale()
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
    store.layout.compute_meta_path.write_text("".join(lines), encoding="utf-8")


def read_compute_meta(store: RecordStore) -> dict[str, str]:
    try:
        text = store.layout.compute_meta_path.read_text(encoding="utf-8")
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
    the current corpus."""
    meta = read_compute_meta(store)
    if store.is_stale() or int(meta.get("epoch", "-1")) != store.epoch():
        raise StalenessError(
            "similarity results are stale: the collection changed; run compute"
        )
    return meta


def load_top_matches(
    store: RecordStore, identifier: str, k: int | None = None
) -> list[SimilarityMatch]:
    """Ranked matches for one record from the top-match directory.

    k larger than the computed depth returns the full stored list.
    """
    check_results_fresh(store)
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
        handle = store.layout.similarities_path.open(encoding="utf-8")
    except FileNotFoundError:
        raise StalenessError("similarities.txt is missing; run compute") from None
    with handle:
        for line in handle:
            id_a, id_b, score = line.rstrip("\n").split("\t")
            yield id_a, id_b, float(score)


__all__ = [
    "IndexReport",
    "ComputeReport",
    "index_store",
    "compute_store",
    "read_compute_meta",
    "check_results_fresh",
    "load_top_matches",
    "iter_similarity_lines",
]

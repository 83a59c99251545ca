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

import os
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import Sequence

from .exceptions import ConfigError, NotFoundError, StalenessError
from .oai_xml import format_score
from .records import DC_ELEMENTS, SimilarityMatch, utc_now_string
from .similarity import VectorSpaceModel, keep_best, pair_count, pair_file_offsets
from .store import RecordStore, remove_dead_temporaries, replacing, storable, write_atomic
from .textpipe import DEFAULT_FIELDS, load_stopwords, record_to_tf


@dataclass(frozen=True)
class IndexReport:
    records_indexed: int
    distinct_terms: int


@dataclass(frozen=True)
class ComputeReport:
    documents: int
    pair_count: int
    #: every pair is written, so this is pair_count
    pairs_written: int
    wall_seconds: float
    per_pair_seconds: float
    k: int
    computed_at: str
    epoch: int
    #: seconds per stage of the run, keyed as STAGES, in that order
    stage_seconds: dict[str, float]


#: The timed stages of compute_store, in the order they run. Scoring is the
#: time spent waiting for row blocks (scored and written in place into the
#: pair file), not counting the merge of top-k lists between blocks.
STAGES = (
    "load_tf", "fit", "weights_write", "scoring", "top_k_merge", "top_files_write"
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
    """Tokenize and count every stored record into the tf tree, each file
    replaced whole, then record the store epoch the tree reflects; the
    temporaries a killed run left in the tree go first. Raises
    ConfigError, before anything is written, when fields is empty or names
    anything but a Dublin Core element, or the stopword file cannot be read."""
    if not fields or not set(fields) <= set(DC_ELEMENTS):
        raise ConfigError(
            f"fields must name one or more of {', '.join(DC_ELEMENTS)}, "
            f"got {list(fields)}"
        )
    stopwords = load_stopwords(stopwords_path)
    epoch = store.epoch()
    store.indexed_epoch_path.unlink(missing_ok=True)
    remove_dead_temporaries(store.tf_dir.glob("**/%tmp.*"))
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
    jobs: int = 1,
) -> ComputeReport:
    """Weight the indexed corpus and score every document pair.

    Writes the weights tree, similarities.txt (every pair, four-decimal
    scores), one ranked top-k file per document, and the compute metadata
    last, stamped with the epoch read at the start, each file replacing its
    old copy whole: the row blocks write their byte ranges of the pair file's
    temporary. The temporaries a killed run left in the store root and the
    weights tree go first, top files of records no longer stored last. jobs 1
    scores in this process. Raises ConfigError for k < 0 or jobs < 1 before
    it reads the store, and StalenessError when records changed after the
    last index, before anything is written.
    """
    if k < 0:
        raise ConfigError(f"k must be non-negative, got {k}")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    model = VectorSpaceModel()
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
    with _stage(stages, "fit"):
        model.fit(corpus)
    # withdraw the old results before any of them is overwritten
    store.compute_meta_path.unlink(missing_ok=True)
    # a killed compute's pair file temporary may be as large as the pair file
    remove_dead_temporaries(store.root.glob("%tmp.*"))
    remove_dead_temporaries(store.weights_dir.glob("**/%tmp.*"))
    with _stage(stages, "weights_write"):
        for identifier in model.identifiers_:
            store.put_weights(model.vectors_[identifier])

    best: list[list[tuple[float, int]]] = [[] for _ in identifiers]
    # closing the blocks makes a failed run wait for those still scoring
    with (
        replacing(store.similarities_path) as tmp_path,
        closing(model.similarity_pairs(str(tmp_path), k, jobs=jobs)) as blocks,
        _stage(stages, "scoring"),
    ):
        for heaps in blocks:
            with _stage(stages, "top_k_merge"):
                for index, heap in heaps.items():
                    for entry in heap:
                        keep_best(best[index], k, entry)
    # the loop's own time is the wait for the blocks being scored
    stages["scoring"] -= stages["top_k_merge"]

    with _stage(stages, "top_files_write"):
        for identifier, heap in zip(model.identifiers_, best):
            lines = [
                f"{model.identifiers_[-negated]}\t{format_score(score)}\n"
                for score, negated in sorted(heap, reverse=True)
            ]
            write_atomic(store.top_path(identifier), "".join(lines).encode("utf-8"))
        # files of records no longer stored go once the new files are in place
        for stray in set(store.top_dir.iterdir()) - set(map(store.top_path, identifiers)):
            stray.unlink()

    wall = time.perf_counter() - t0
    total_pairs = pair_count(len(identifiers))
    report = ComputeReport(
        documents=len(identifiers),
        pair_count=total_pairs,
        pairs_written=total_pairs,
        wall_seconds=wall,
        per_pair_seconds=(wall / total_pairs) if total_pairs else 0.0,
        k=k,
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
    return dict(line.partition(" = ")[::2] for line in text.splitlines())


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
        text = path.read_text(encoding="utf-8") if storable(identifier) else None
    except FileNotFoundError:
        text = None
    if text is None:
        raise NotFoundError(f"no top matches stored for {identifier!r}")
    matches = []
    for line in text.splitlines():
        other, _, score = line.partition("\t")
        matches.append(SimilarityMatch(other, float(score)))
    return matches if k is None else matches[:k]


def iter_similarity_lines(store: RecordStore):
    """(id_a, id_b, score) rows of the persisted pair file, fresh-checked.
    A file whose size is not the one pair_file_offsets gives the stored
    identifiers, one cut short say, raises StalenessError before any row."""
    check_results_fresh(store)
    try:
        handle = store.similarities_path.open(encoding="utf-8")
    except FileNotFoundError:
        raise StalenessError("similarities.txt is missing; run compute") from None
    with handle:
        size = os.fstat(handle.fileno()).st_size
        expected = pair_file_offsets(store.list_identifiers())[-1]
        if size != expected:
            raise StalenessError(
                f"similarities.txt holds {size} bytes, not {expected}; run compute"
            )
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

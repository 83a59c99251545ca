"""Vector space similarity engine: tf-idf weighting and cosine ranking.

The engine is pure Python over sparse term->weight mappings. Determinism
rules: corpora are processed in ascending identifier order, term iteration
always follows sorted term order, and pairs are scored in row blocks of the
upper triangle in (id_a, id_b) order, so results (including float
accumulation order) are identical run to run and independent of the worker
count.

idf values are computed on the fly from collection statistics and are never
persisted anywhere.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .exceptions import NotFittedError, NotFoundError, RecordValidationError
from .oai_xml import format_score
from .records import SimilarityMatch
from .textpipe import TermFrequencyVector

#: Measured per-pair cost (seconds) used for runtime projections.
DEFAULT_PER_PAIR_SECONDS = 0.0036

_SECONDS_PER_YEAR = 365 * 86400


@dataclass(frozen=True)
class CollectionStats:
    """Corpus-level statistics: document count and per-term document frequency."""

    n_docs: int
    df: Mapping[str, int]

    def __post_init__(self):
        if self.n_docs < 1:
            raise RecordValidationError("collection must contain at least one document")
        frozen: dict[str, int] = {}
        for term in sorted(self.df):
            count = self.df[term]
            if not 1 <= count <= self.n_docs:
                raise RecordValidationError(
                    f"df[{term!r}] = {count} outside 1..{self.n_docs}"
                )
            frozen[term] = count
        object.__setattr__(self, "df", frozen)


@dataclass(frozen=True)
class WeightedVector:
    """Unit-normalized tf-idf weights for one document.

    weights maps term -> normalized weight (zero weights omitted); norm is the
    Euclidean norm of the raw, pre-normalization weight components. A document
    whose every term occurs in all documents has no discriminating terms and
    collapses to the empty vector with norm 0.
    """

    identifier: str
    weights: Mapping[str, float]
    norm: float

    def __post_init__(self):
        if self.norm < 0.0:
            raise RecordValidationError("norm must be non-negative")
        if bool(self.weights) != (self.norm > 0.0):
            raise RecordValidationError("empty vectors have norm 0 and vice versa")


def collection_stats(corpus: Iterable[TermFrequencyVector]) -> CollectionStats:
    """Count documents and per-term document frequencies over a corpus."""
    df: dict[str, int] = {}
    n_docs = 0
    for tf in corpus:
        n_docs += 1
        for term in tf.counts:
            df[term] = df.get(term, 0) + 1
    if n_docs == 0:
        raise RecordValidationError("cannot compute statistics for an empty corpus")
    return CollectionStats(n_docs, df)


def idf(term: str, stats: CollectionStats) -> float:
    """Inverse document frequency ln(N / df). Computed on demand, never stored."""
    try:
        df = stats.df[term]
    except KeyError:
        raise NotFoundError(f"term {term!r} does not occur in the collection") from None
    return math.log(stats.n_docs / df)


def weight_vector(tf: TermFrequencyVector, stats: CollectionStats) -> WeightedVector:
    """tf x idf weights, unit-normalized; terms with zero idf drop out."""
    raw: list[tuple[str, float]] = []
    for term, count in tf.counts.items():  # counts iterate in sorted term order
        weight = count * idf(term, stats)
        if weight > 0.0:
            raw.append((term, weight))
    norm = math.sqrt(math.fsum(weight * weight for _, weight in raw))
    if norm == 0.0:
        return WeightedVector(tf.identifier, {}, 0.0)
    return WeightedVector(
        tf.identifier, {term: weight / norm for term, weight in raw}, norm
    )


def cosine_similarity(a: WeightedVector, b: WeightedVector) -> float:
    """Dot product over shared terms of two unit vectors, clamped to [0, 1].

    The shorter weight mapping is iterated (in its sorted term order), so the
    accumulation order is identical whichever operand comes first.
    """
    wa, wb = a.weights, b.weights
    if not wa or not wb:
        return 0.0
    if len(wb) < len(wa):
        wa, wb = wb, wa
    lookup = wb.get
    total = 0.0
    for term, weight in wa.items():
        other = lookup(term)
        if other is not None:
            total += weight * other
    if total <= 0.0:
        return 0.0
    return total if total < 1.0 else 1.0


def pair_count(n_docs: int) -> int:
    """Number of unordered pairs among n documents: n(n-1)/2."""
    if n_docs < 0:
        raise RecordValidationError("document count must be non-negative")
    return n_docs * (n_docs - 1) // 2


# --- block scoring ----------------------------------------------------------

#: (path of the block's pair-file part, lines written to it,
#:  {row index: min-heap of (score, -other row index)} for non-empty heaps)
BlockScores = tuple[str, int, dict[int, list[tuple[float, int]]]]

_worker_vectors: list[WeightedVector] = []


def _init_worker(vectors: list[WeightedVector]) -> None:
    global _worker_vectors
    _worker_vectors = vectors


def _keep_best(heap: list, k: int, entry: tuple) -> None:
    """Offer entry to a min-heap that holds the k largest entries offered."""
    if len(heap) < k:
        heapq.heappush(heap, entry)
    elif k and entry > heap[0]:
        heapq.heapreplace(heap, entry)


def _score_block(
    vectors: Sequence[WeightedVector],
    start: int,
    stop: int,
    part: str,
    score_floor: float,
    k: int,
) -> BlockScores:
    """Score rows start..stop-1 of the identifier-sorted vectors against every
    later row.

    Each pair scoring at least score_floor becomes one "id_a<TAB>id_b<TAB>score"
    line of the part file, in upper-triangle order. Every pair, floored or not,
    is offered to both documents' bounded heaps keyed (score, -row index):
    rows are in identifier order, so the larger key ranks the smaller
    identifier first among equal scores.
    """
    n = len(vectors)
    heaps: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    lines = 0
    with open(part, "w", encoding="utf-8", newline="\n") as handle:
        write = handle.write
        for i in range(start, stop):
            a = vectors[i]
            id_a = a.identifier
            heap_a = heaps[i]
            for j in range(i + 1, n):
                b = vectors[j]
                score = cosine_similarity(a, b)
                if score >= score_floor:
                    write(f"{id_a}\t{b.identifier}\t{format_score(score)}\n")
                    lines += 1
                if k:
                    _keep_best(heap_a, k, (score, -j))
                    _keep_best(heaps[j], k, (score, -i))
    return part, lines, {index: heap for index, heap in enumerate(heaps) if heap}


def _score_pool_block(task: tuple) -> BlockScores:
    return _score_block(_worker_vectors, *task)


def _row_blocks(n: int, jobs: int) -> list[tuple[int, int]]:
    """Split rows 0..n-1 into contiguous blocks of roughly equal pair count."""
    total = pair_count(n)
    if total == 0 or jobs <= 1:
        return [(0, n)]
    target = total / min(jobs * 4, n)  # a few blocks per worker evens the load
    blocks: list[tuple[int, int]] = []
    start = 0
    acc = 0
    for row in range(n):
        acc += n - 1 - row
        if acc >= target and row + 1 < n:
            blocks.append((start, row + 1))
            start = row + 1
            acc = 0
    if start < n:
        blocks.append((start, n))
    return blocks


# --- estimator --------------------------------------------------------------


def check_tf_corpus(corpus: Iterable) -> list[TermFrequencyVector]:
    """Validate a corpus argument: TermFrequencyVectors with unique identifiers.

    Accepts any iterable of TermFrequencyVector or (identifier, counts) pairs
    and returns a list in the input order.
    """
    vectors: list[TermFrequencyVector] = []
    seen: set[str] = set()
    for item in corpus:
        if isinstance(item, TermFrequencyVector):
            tf = item
        elif isinstance(item, tuple) and len(item) == 2:
            tf = TermFrequencyVector(item[0], dict(item[1]))
        else:
            raise RecordValidationError(
                "corpus items must be TermFrequencyVector or (identifier, counts) pairs"
            )
        if tf.identifier in seen:
            raise RecordValidationError(f"duplicate identifier {tf.identifier!r}")
        seen.add(tf.identifier)
        vectors.append(tf)
    return vectors


class VectorSpaceModel:
    """tf-idf vector space model with a fit/transform estimator interface.

    fit() learns collection statistics and caches the weighted corpus;
    transform() maps term-frequency vectors to unit-normalized weight vectors
    against the fitted statistics. Ranking and pair enumeration operate on the
    fitted corpus.
    """

    def __init__(self, score_floor: float = 0.0):
        self.score_floor = score_floor

    def fit(self, X: Iterable, y=None) -> "VectorSpaceModel":
        corpus = check_tf_corpus(X)
        if not corpus:
            raise RecordValidationError("cannot fit on an empty corpus")
        if not (0.0 <= float(self.score_floor) <= 1.0):
            raise RecordValidationError("score_floor must lie in [0, 1]")
        corpus = sorted(corpus, key=lambda tf: tf.identifier)
        self.stats_ = collection_stats(corpus)
        self.vectors_ = {tf.identifier: weight_vector(tf, self.stats_) for tf in corpus}
        self.identifiers_ = list(self.vectors_)
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "stats_"):
            raise NotFittedError("model is not fitted; call fit() first")

    def transform(self, X: Iterable) -> list[WeightedVector]:
        self._check_fitted()
        return [weight_vector(tf, self.stats_) for tf in check_tf_corpus(X)]

    def fit_transform(self, X: Iterable, y=None) -> list[WeightedVector]:
        self.fit(X)
        return [self.vectors_[identifier] for identifier in self.identifiers_]

    def top_k(self, identifier: str, k: int = 10) -> list[SimilarityMatch]:
        """The k nearest documents to one fitted document, best first.

        Ordered by score descending, ties broken by identifier ascending; the
        subject itself is excluded. Shorter corpora yield shorter lists.
        """
        self._check_fitted()
        try:
            subject = self.vectors_[identifier]
        except KeyError:
            raise NotFoundError(f"unknown identifier {identifier!r}") from None
        if k < 0:
            raise RecordValidationError("k must be non-negative")
        heap: list[tuple[float, int]] = []
        for index, other_id in enumerate(self.identifiers_):
            if other_id != identifier:
                score = cosine_similarity(subject, self.vectors_[other_id])
                _keep_best(heap, k, (score, -index))
        return [
            SimilarityMatch(self.identifiers_[-negated], score)
            for score, negated in sorted(heap, reverse=True)
        ]

    def similarity_pairs(
        self, part_prefix: str, k: int, jobs: int | None = None
    ) -> Iterator[BlockScores]:
        """Score all n(n-1)/2 pairs of the fitted corpus, one row block at a time.

        Block b writes its pair lines (score >= score_floor) to
        "{part_prefix}.{b}" and yields (part path, lines written, partial
        top-k heaps by row index of identifiers_); blocks come in row order,
        so their parts concatenated in that order hold the upper triangle in
        (id_a, id_b) order. With jobs > 1 and at least 64 documents the
        blocks are scored by worker processes; the output is the same.
        """
        self._check_fitted()
        if k < 0:
            raise RecordValidationError("k must be non-negative")
        vectors = [self.vectors_[identifier] for identifier in self.identifiers_]
        parallel = jobs is not None and jobs > 1 and len(vectors) >= 64
        tasks = [
            (start, stop, f"{part_prefix}.{number}", self.score_floor, k)
            for number, (start, stop) in enumerate(
                _row_blocks(len(vectors), jobs if parallel else 1)
            )
        ]
        if not parallel:
            for task in tasks:
                yield _score_block(vectors, *task)
            return
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(vectors,)
        ) as pool:
            yield from pool.map(_score_pool_block, tasks)

    def pair_count(self) -> int:
        self._check_fitted()
        return pair_count(len(self.identifiers_))


# --- runtime projection -----------------------------------------------------


def estimate_runtime(
    n_docs: int, per_pair_seconds: float = DEFAULT_PER_PAIR_SECONDS
) -> float:
    """Projected wall seconds to score every pair of an n-document corpus."""
    if per_pair_seconds <= 0.0:
        raise RecordValidationError("per-pair seconds must be positive")
    return per_pair_seconds * pair_count(n_docs)


def format_duration(seconds: float) -> str:
    """Render seconds as 'N years-N days-N hours-N minutes-N seconds'.

    Whole seconds (floored), 365-day years, leading zero units omitted,
    singular unit names for 1.
    """
    if seconds < 0.0:
        raise RecordValidationError("duration must be non-negative")
    remaining = int(seconds)
    parts: list[str] = []
    for name, size in (
        ("year", _SECONDS_PER_YEAR),
        ("day", 86400),
        ("hour", 3600),
        ("minute", 60),
        ("second", 1),
    ):
        value, remaining = divmod(remaining, size)
        if value or parts or name == "second":
            parts.append(f"{value} {name}{'' if value == 1 else 's'}")
    return "-".join(parts)


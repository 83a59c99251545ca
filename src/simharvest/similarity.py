"""Vector space similarity engine: tf-idf weighting and cosine ranking.

The engine is pure Python over sparse term->weight mappings. fit() weights
the corpus in ascending identifier order; similarity_pairs() scores the
upper triangle in row blocks, term at a time: an inverted index lists each
term's rows and weights in row order, and row i adds w_i * w_j into an
accumulator slot per later row j, going through its terms in sorted term
order. Every pair's score is therefore the sum, from 0.0, of its
shared-term products in sorted term order, clamped to [0, 1]: the same
floats run to run, whatever the worker count. Each row is then rendered to
its pair lines and ranked into its top k as a whole.

idf values are computed on the fly from collection statistics and are never
persisted anywhere.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, compress
from operator import gt
from typing import Iterable, Iterator, Mapping, Sequence

from .exceptions import NotFoundError, RecordValidationError
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


def pair_count(n_docs: int) -> int:
    """Number of unordered pairs among n documents: n(n-1)/2."""
    if n_docs < 0:
        raise RecordValidationError("document count must be non-negative")
    return n_docs * (n_docs - 1) // 2


# --- block scoring ----------------------------------------------------------

#: (path of the block's pair-file part, lines written to it,
#:  {row index: up to k best (score, -other row index) entries the block
#:  scored for that row}, for the rows it scored any for)
BlockScores = tuple[str, int, dict[int, list[tuple[float, int]]]]

#: Per row, one (weight, rows, weights, after) entry for each of its terms in
#: sorted term order: the row's weight for the term, the term's posting list
#: as parallel lists of row indexes and weights in row order, and the index
#: just past the row's own posting in those lists.
Postings = list[list[tuple[float, list[int], list[float], int]]]

_worker_index: tuple[list[str], Postings] = ([], [])


def _postings(vectors: Sequence[WeightedVector]) -> Postings:
    """Inverted index of the identifier-sorted vectors (see Postings)."""
    lists: dict[str, tuple[list[int], list[float]]] = {}
    postings: Postings = []
    for row, vector in enumerate(vectors):
        entries = []
        for term, weight in vector.weights.items():  # sorted term order
            pair = lists.get(term)
            if pair is None:
                pair = lists[term] = ([], [])
            rows, weights = pair
            rows.append(row)
            weights.append(weight)
            entries.append((weight, rows, weights, len(rows)))
        postings.append(entries)
    return postings


def _init_worker(vectors: list[WeightedVector]) -> None:
    global _worker_index
    _worker_index = ([vector.identifier for vector in vectors], _postings(vectors))


def _keep_best(heap: list, k: int, entry: tuple) -> None:
    """Offer entry to a min-heap that holds the k largest entries offered."""
    if len(heap) < k:
        heapq.heappush(heap, entry)
    elif k and entry > heap[0]:
        heapq.heapreplace(heap, entry)


def _score_block(
    identifiers: Sequence[str],
    postings: Postings,
    start: int,
    stop: int,
    part: str,
    score_floor: float,
    k: int,
) -> BlockScores:
    """Score rows start..stop-1 of the identifier-sorted corpus against every
    later row.

    Row i's scores come from its postings: for each of its terms, in sorted
    term order, w_i * w_j is added into acc[j] for the postings after its
    own. A pair's score is thus the dot product of the two unit vectors,
    its shared-term products summed from 0.0 in sorted term order, capped
    at 1.0 (weights are positive, so no sum is negative, and a pair with no
    shared term scores 0.0). Each pair scoring at least score_floor becomes
    one "id_a<TAB>id_b<TAB>score" line of the part file, in upper-triangle
    order, with the four decimals of format_score. Every pair, floored or
    not, counts for both documents' top k, keyed (score, -row index): rows
    are in identifier order, so the larger key ranks the smaller identifier
    first among equal scores. The row side is ranked once per row; a later
    row j is offered a score only when it beats the lowest score of a full
    heaps[j].
    """
    n = len(identifiers)
    heaps: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    # a score must beat floors[j] to enter heaps[j]; -1.0 until it holds k
    floors = [-1.0] * n
    lines = 0
    with open(part, "w", encoding="utf-8", newline="\n") as handle:
        for i in range(start, stop):
            acc = [0.0] * n
            for weight, rows, weights, after in postings[i]:
                for j, other in zip(rows[after:], weights[after:]):
                    acc[j] += weight * other
            scores = [score if score < 1.0 else 1.0 for score in acc[i + 1 :]]
            prefix = identifiers[i] + "\t"
            rendered = [
                f"{prefix}{other}\t{score:.4f}\n"
                for other, score in zip(identifiers[i + 1 :], scores)
                if score >= score_floor
            ]
            handle.write("".join(rendered))
            lines += len(rendered)
            if not k:
                continue
            heaps[i] = heapq.nlargest(
                k, chain(heaps[i], zip(scores, range(-i - 1, -n, -1)))
            )
            # heaps[j] holds entries of rows before i only, so (score, -i)
            # loses every tie with them: only a higher score can enter.
            for j in compress(range(i + 1, n), map(gt, scores, floors[i + 1 :])):
                heap = heaps[j]
                _keep_best(heap, k, (scores[j - i - 1], -i))
                if len(heap) == k:
                    floors[j] = heap[0][0]
    return part, lines, {index: heap for index, heap in enumerate(heaps) if heap}


def _score_pool_block(task: tuple) -> BlockScores:
    return _score_block(*_worker_index, *task)


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


# --- model ------------------------------------------------------------------


def check_tf_corpus(corpus: Iterable) -> list[TermFrequencyVector]:
    """Validate a corpus argument: TermFrequencyVectors with unique identifiers,
    returned as a list in the input order."""
    vectors: list[TermFrequencyVector] = []
    seen: set[str] = set()
    for tf in corpus:
        if not isinstance(tf, TermFrequencyVector):
            raise RecordValidationError("corpus items must be TermFrequencyVector")
        if tf.identifier in seen:
            raise RecordValidationError(f"duplicate identifier {tf.identifier!r}")
        seen.add(tf.identifier)
        vectors.append(tf)
    return vectors


class VectorSpaceModel:
    """tf-idf vector space model of one corpus.

    fit() learns the collection statistics and weights the corpus into
    vectors_ (identifier -> unit-normalized WeightedVector), with
    identifiers_ in ascending order; similarity_pairs() scores the fitted
    corpus.
    """

    def __init__(self, score_floor: float = 0.0):
        self.score_floor = score_floor

    def fit(self, X: Iterable) -> "VectorSpaceModel":
        corpus = check_tf_corpus(X)
        if not corpus:
            raise RecordValidationError("cannot fit on an empty corpus")
        if not (0.0 <= float(self.score_floor) <= 1.0):
            raise RecordValidationError("score_floor must lie in [0, 1]")
        corpus = sorted(corpus, key=lambda tf: tf.identifier)
        stats = collection_stats(corpus)
        self.vectors_ = {tf.identifier: weight_vector(tf, stats) for tf in corpus}
        self.identifiers_ = list(self.vectors_)
        return self

    def similarity_pairs(
        self, part_prefix: str, k: int, jobs: int | None = None
    ) -> Iterator[BlockScores]:
        """Score all n(n-1)/2 pairs of the fitted corpus, one row block at a time.

        Block b writes its pair lines (score >= score_floor) to
        "{part_prefix}.{b}" and yields (part path, lines written, partial
        top-k lists by row index of identifiers_); blocks come in row order,
        so their parts concatenated in that order hold the upper triangle in
        (id_a, id_b) order. With jobs > 1 and at least 64 documents the
        blocks are scored by worker processes; the output is the same. Each
        process that scores builds the inverted index once, before its first
        block: this one when serial, each worker in its initializer.
        """
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
            postings = _postings(vectors)
            for task in tasks:
                yield _score_block(self.identifiers_, postings, *task)
            return
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(vectors,)
        ) as pool:
            yield from pool.map(_score_pool_block, tasks)


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


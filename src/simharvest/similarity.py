"""Vector space similarity engine: tf-idf weighting and cosine ranking.

The engine is pure Python over sparse term->weight mappings. fit() weights
the corpus in ascending identifier order; similarity_pairs() scores the
upper triangle in row blocks, term at a time: an inverted index lists each
term's rows and weights in row order, and row i adds w_i * w_j into an
accumulator slot per later row j, going through its terms in sorted term
order. Every pair's score is therefore the sum, from 0.0, of its
shared-term products in sorted term order, clamped to [0, 1]: the same
floats run to run, whatever the worker count. Each row is then rendered to
its pair lines, written in place at the row's byte offset in the one pair
file, and every entry reaches a top-k ranking through keep_best, behind the
floor of the row it is offered to.

fit() computes idf = ln(N / df) once per term of the corpus it weights;
idf is never written anywhere.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import compress, repeat
from operator import gt
from typing import Iterable, Iterator, Mapping, Sequence

from .exceptions import ConfigError, RecordValidationError, StorageError
from .textpipe import TermFrequencyVector

#: Measured per-pair cost (seconds) used for runtime projections.
DEFAULT_PER_PAIR_SECONDS = 0.0036

_SECONDS_PER_YEAR = 365 * 86400


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


def weight_vector(tf: TermFrequencyVector, idf: Mapping[str, float]) -> WeightedVector:
    """tf x idf weights, unit-normalized; terms with zero idf drop out. idf
    maps each of tf's terms to ln(N / df) in its collection."""
    raw: list[tuple[str, float]] = []
    for term, count in tf.counts.items():  # counts iterate in sorted term order
        weight = count * idf[term]
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
        raise ConfigError(f"n must be non-negative, got {n_docs}")
    return n_docs * (n_docs - 1) // 2


def pair_file_offsets(identifiers: Sequence[str]) -> list[int]:
    """Where each row of the pair file of the ascending identifiers starts:
    offsets[i] is row i's first byte, offsets[n] the file's size. Scores
    render in six characters, so row i's n-1-i lines take
    (n-1-i) * (len(id_i) + 9) bytes plus the later identifiers' UTF-8
    lengths."""
    n = len(identifiers)
    lengths = [len(identifier.encode("utf-8")) for identifier in identifiers]
    offsets = [0]
    later = sum(lengths)  # bytes of the identifiers after row i
    for i, length in enumerate(lengths):
        later -= length
        offsets.append(offsets[i] + (n - 1 - i) * (length + 9) + later)
    return offsets


# --- block scoring ----------------------------------------------------------

#: {row index: up to k best (score, -other row index) entries the block
#:  scored for that row}, for the rows it scored any for
BlockScores = dict[int, list[tuple[float, int]]]

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


def keep_best(heap: list, k: int, entry: tuple) -> None:
    """Offer entry to a min-heap that holds the k largest entries offered:
    every top-k entry passes through here. Entries are distinct and compared
    strictly, so the heap keeps the same k in whatever order they arrive."""
    if len(heap) < k:
        heapq.heappush(heap, entry)
    elif k and entry > heap[0]:
        heapq.heapreplace(heap, entry)


def _score_block(
    identifiers: Sequence[str],
    postings: Postings,
    start: int,
    stop: int,
    path: str,
    offset: int,
    end: int,
    k: int,
) -> BlockScores:
    """Score rows start..stop-1 of the identifier-sorted corpus against every
    later row.

    Row i's scores come from its postings: for each of its terms, in sorted
    term order, w_i * w_j is added into acc[j] for the postings after its
    own. A pair's score is thus the dot product of the two unit vectors,
    its shared-term products summed from 0.0 in sorted term order, capped
    at 1.0 (weights are positive, so no sum is negative, and a pair with no
    shared term scores 0.0). Each pair becomes one "id_a<TAB>id_b<TAB>score"
    line, in upper-triangle order, with the four decimals of format_score;
    the block's lines fill bytes offset..end-1 of the file at path, and
    StorageError is raised if they end anywhere else. Each pair counts for
    both documents' top k, keyed
    (score, -row index): rows are in identifier order, so the larger key
    ranks the smaller identifier first among equal scores. Both sides go
    through keep_best, each score only when it beats its heap's floor: row
    i's as the row began, and a later row j's as it stands at the offer.
    """
    n = len(identifiers)
    heaps: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    # a score must beat floors[j] to enter heaps[j]; -1.0 until it holds k
    floors = [-1.0] * n
    with open(path, "r+b") as handle:
        handle.seek(offset)
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
            ]
            handle.write("".join(rendered).encode("utf-8"))
            if not k:
                continue
            # heaps[i]'s floor only rises during the row, and its entries of
            # earlier rows win every tie: a score must beat floors[i] to enter.
            for j in compress(range(i + 1, n), map(gt, scores, repeat(floors[i]))):
                keep_best(heaps[i], k, (scores[j - i - 1], -j))
            # heaps[j] holds entries of rows before i only, so (score, -i)
            # loses every tie with them: only a higher score can enter.
            for j in compress(range(i + 1, n), map(gt, scores, floors[i + 1 :])):
                heap = heaps[j]
                keep_best(heap, k, (scores[j - i - 1], -i))
                if len(heap) == k:
                    floors[j] = heap[0][0]
        if handle.tell() != end:
            raise StorageError(
                f"rows {start}..{stop - 1} ended at byte {handle.tell()} "
                f"of {path}, not {end}"
            )
    return {index: heap for index, heap in enumerate(heaps) if heap}


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

    fit() counts each term's document frequency df once, takes
    idf = ln(N / df) per term, and weights the corpus into vectors_
    (identifier -> unit-normalized WeightedVector), with identifiers_ in
    ascending order; similarity_pairs() scores the fitted corpus.
    """

    def fit(self, X: Iterable) -> "VectorSpaceModel":
        corpus = check_tf_corpus(X)
        if not corpus:
            raise RecordValidationError("cannot fit on an empty corpus")
        corpus = sorted(corpus, key=lambda tf: tf.identifier)
        df = Counter(term for tf in corpus for term in tf.counts)
        idf = {term: math.log(len(corpus) / count) for term, count in df.items()}
        self.vectors_ = {tf.identifier: weight_vector(tf, idf) for tf in corpus}
        self.identifiers_ = list(self.vectors_)
        return self

    def similarity_pairs(
        self, path: str, k: int, jobs: int = 1
    ) -> Iterator[BlockScores]:
        """Score all n(n-1)/2 pairs of the fitted corpus into the file at path,
        created or truncated first, one row block at a time.

        Each block writes its rows in place, at the byte range
        pair_file_offsets gives before scoring starts, and yields its partial
        top-k lists by row index of identifiers_, in row order. With jobs > 1
        and at least 64 documents at most jobs worker processes, and no more
        than the machine's CPUs, score the blocks; the output is the same.
        Each process that scores builds the inverted index once, before its
        first block: this one when serial, each worker in its initializer.
        """
        if k < 0:
            raise ConfigError(f"k must be non-negative, got {k}")
        vectors = [self.vectors_[identifier] for identifier in self.identifiers_]
        n = len(vectors)
        offsets = pair_file_offsets(self.identifiers_)
        parallel = jobs > 1 and n >= 64
        tasks = [
            (start, stop, path, offsets[start], offsets[stop], k)
            for start, stop in _row_blocks(n, jobs if parallel else 1)
        ]
        open(path, "wb").close()
        if not parallel:
            postings = _postings(vectors)
            for task in tasks:
                yield _score_block(self.identifiers_, postings, *task)
            return
        with ProcessPoolExecutor(
            min(jobs, os.cpu_count() or 1), initializer=_init_worker, initargs=(vectors,)
        ) as pool:
            yield from pool.map(_score_pool_block, tasks)


# --- runtime projection -----------------------------------------------------


def estimate_runtime(
    n_docs: int, per_pair_seconds: float = DEFAULT_PER_PAIR_SECONDS
) -> float:
    """Projected wall seconds to score every pair of an n-document corpus;
    ConfigError unless the rate is positive and both it and the result finite."""
    if not 0.0 < per_pair_seconds < math.inf:
        raise ConfigError(
            f"per_pair_seconds must be positive and finite, got {per_pair_seconds:g}"
        )
    try:
        seconds = per_pair_seconds * pair_count(n_docs)
    except OverflowError:  # a pair count too large for a float
        seconds = math.inf
    if seconds == math.inf:
        raise ConfigError("projected runtime overflows: n or per_pair_seconds too large")
    return seconds


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


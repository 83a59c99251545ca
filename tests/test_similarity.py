"""Weighting, cosine scoring, ranking, and the runtime estimator."""

import heapq
import math
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
import oracle
from simharvest.exceptions import (
    NotFittedError,
    NotFoundError,
    RecordValidationError,
)
from simharvest.records import SimilarityMatch
from oracle import parse_duration
from simharvest.oai_xml import format_score
from simharvest.similarity import (
    DEFAULT_PER_PAIR_SECONDS,
    CollectionStats,
    VectorSpaceModel,
    WeightedVector,
    _keep_best,
    _row_blocks,
    check_tf_corpus,
    collection_stats,
    cosine_similarity,
    estimate_runtime,
    format_duration,
    idf,
    pair_count,
    weight_vector,
)
from simharvest.textpipe import TermFrequencyVector

corpora = st.lists(
    conftest.tf_vectors,
    min_size=2,
    max_size=8,
    unique_by=lambda tf: tf.identifier,
)


def score_blocks(model, directory, k, jobs=None):
    """Run every row block of a fitted model.

    Returns the pair-file lines in block order, each pair's raw score as
    offered to the heaps (complete when k >= n - 1), and each row's merged
    top-k entries, best first.
    """
    lines, scores, merged = [], {}, {}
    ids = model.identifiers_
    for part, written, heaps in model.similarity_pairs(f"{directory}/pairs", k, jobs=jobs):
        with open(part, encoding="utf-8") as handle:
            text = handle.read().splitlines()
        assert len(text) == written
        lines += text
        for row, heap in heaps.items():
            merged[row] = heapq.nlargest(k, merged.get(row, []) + heap)
            for score, negated in heap:
                scores[tuple(sorted((ids[row], ids[-negated])))] = score
    return lines, scores, merged


class TestCollectionStats:
    def test_document_frequencies(self):
        stats = collection_stats(conftest.small_corpus())
        assert stats.n_docs == 3
        assert stats.df == {"friction": 1, "runway": 2, "tire": 3, "tunnel": 1, "wind": 1}

    def test_empty_corpus_rejected(self):
        with pytest.raises(RecordValidationError):
            collection_stats([])

    def test_df_bounds_enforced(self):
        with pytest.raises(RecordValidationError):
            CollectionStats(2, {"x": 3})
        with pytest.raises(RecordValidationError):
            CollectionStats(2, {"x": 0})


class TestWeighting:
    def test_idf_is_natural_log_of_n_over_df(self):
        stats = collection_stats(conftest.small_corpus())
        assert idf("friction", stats) == math.log(3 / 1)
        assert idf("runway", stats) == math.log(3 / 2)
        assert idf("tire", stats) == 0.0

    def test_unknown_term_raises(self):
        stats = collection_stats(conftest.small_corpus())
        with pytest.raises(NotFoundError):
            idf("absent", stats)

    def test_weight_vector_drops_zero_idf_terms(self):
        corpus = conftest.small_corpus()
        stats = collection_stats(corpus)
        vector = weight_vector(corpus[0], stats)
        assert set(vector.weights) == {"friction", "runway"}

    def test_weight_vector_hand_computed(self):
        corpus = conftest.small_corpus()
        stats = collection_stats(corpus)
        vector = weight_vector(corpus[0], stats)
        raw_friction = 3 * math.log(3.0)
        raw_runway = math.log(1.5)
        norm = math.sqrt(raw_friction**2 + raw_runway**2)
        assert vector.norm == pytest.approx(norm, rel=1e-12)
        assert vector.weights["friction"] == pytest.approx(raw_friction / norm, rel=1e-12)
        assert vector.weights["runway"] == pytest.approx(raw_runway / norm, rel=1e-12)

    def test_all_shared_vocabulary_collapses_to_empty(self):
        corpus = [
            TermFrequencyVector("oai:x:1", {"tire": 4}),
            TermFrequencyVector("oai:x:2", {"tire": 1}),
        ]
        stats = collection_stats(corpus)
        vector = weight_vector(corpus[0], stats)
        assert vector.weights == {} and vector.norm == 0.0

    @given(corpora)
    def test_nonempty_vectors_are_unit_length(self, corpus):
        stats = collection_stats(corpus)
        for tf in corpus:
            vector = weight_vector(tf, stats)
            if vector.weights:
                squared = math.fsum(w * w for w in vector.weights.values())
                assert squared == pytest.approx(1.0, abs=1e-9)

    def test_weighted_vector_invariant(self):
        with pytest.raises(RecordValidationError):
            WeightedVector("oai:x:1", {"tire": 0.5}, 0.0)
        with pytest.raises(RecordValidationError):
            WeightedVector("oai:x:1", {}, 1.0)


class TestCosine:
    def test_hand_computed_pair(self):
        corpus = conftest.small_corpus()
        stats = collection_stats(corpus)
        a = weight_vector(corpus[0], stats)
        b = weight_vector(corpus[1], stats)
        expected = math.log(1.5) / math.sqrt((3 * math.log(3.0)) ** 2 + math.log(1.5) ** 2)
        assert cosine_similarity(a, b) == pytest.approx(expected, rel=1e-12)

    def test_disjoint_vocabularies_score_zero(self):
        corpus = conftest.small_corpus()
        stats = collection_stats(corpus)
        assert cosine_similarity(
            weight_vector(corpus[0], stats), weight_vector(corpus[2], stats)
        ) == 0.0

    def test_only_zero_idf_overlap_scores_zero(self):
        corpus = conftest.small_corpus()
        stats = collection_stats(corpus)
        assert cosine_similarity(
            weight_vector(corpus[1], stats), weight_vector(corpus[2], stats)
        ) == 0.0

    def test_empty_vector_scores_zero(self):
        empty = WeightedVector("oai:x:1", {}, 0.0)
        other = WeightedVector("oai:x:2", {"tire": 1.0}, 2.0)
        assert cosine_similarity(empty, other) == 0.0
        assert cosine_similarity(empty, empty) == 0.0

    @given(corpora)
    def test_symmetric_exactly(self, corpus):
        stats = collection_stats(corpus)
        vectors = [weight_vector(tf, stats) for tf in corpus]
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert cosine_similarity(vectors[i], vectors[j]) == cosine_similarity(
                    vectors[j], vectors[i]
                )

    @given(corpora)
    def test_bounded_and_self_similar(self, corpus):
        stats = collection_stats(corpus)
        for tf in corpus:
            vector = weight_vector(tf, stats)
            score = cosine_similarity(vector, vector)
            assert 0.0 <= score <= 1.0
            if vector.weights:
                assert score == pytest.approx(1.0, abs=1e-9)

    def test_identical_documents_clamp_to_exactly_one(self):
        corpus = [
            TermFrequencyVector("oai:x:1", {"aa": 3, "bb": 7, "cc": 2}),
            TermFrequencyVector("oai:x:2", {"aa": 3, "bb": 7, "cc": 2}),
            TermFrequencyVector("oai:x:3", {"dd": 1}),
        ]
        stats = collection_stats(corpus)
        a = weight_vector(corpus[0], stats)
        b = weight_vector(corpus[1], stats)
        assert cosine_similarity(a, b) == pytest.approx(1.0, abs=1e-9)
        assert cosine_similarity(a, b) <= 1.0


class TestPairs:
    def test_pair_count_formula(self):
        assert pair_count(0) == 0
        assert pair_count(1) == 0
        assert pair_count(2) == 1
        assert pair_count(100) == 4950

    def test_identifier_pairs_ordered(self, tmp_path):
        model = VectorSpaceModel().fit(
            [
                TermFrequencyVector(identifier, {"aa": 1})
                for identifier in ("oai:c", "oai:a", "oai:b")
            ]
        )
        lines, _, _ = score_blocks(model, tmp_path, k=2)
        pairs = [tuple(line.split("\t")[:2]) for line in lines]
        assert pairs == [("oai:a", "oai:b"), ("oai:a", "oai:c"), ("oai:b", "oai:c")]
        assert len(pairs) == pair_count(3)

    def test_pair_stream_matches_oracle(self, rng, tmp_path):
        corpus = oracle.random_corpus(rng, 30)
        expected = oracle.oracle_pairs(corpus)
        lines, scores, _ = score_blocks(VectorSpaceModel().fit(corpus), tmp_path, k=30)
        assert len(lines) == len(scores) == len(expected) == pair_count(30)
        for line, (id_a, id_b, score) in zip(lines, expected):
            got_a, got_b, rendered = line.split("\t")
            assert (got_a, got_b) == (id_a, id_b)
            assert rendered == format_score(scores[id_a, id_b])
            assert scores[id_a, id_b] == pytest.approx(score, abs=1e-9)

    def test_parallel_stream_identical_to_serial(self, rng, tmp_path):
        corpus = oracle.random_corpus(rng, 80)
        model = VectorSpaceModel().fit(corpus)
        (tmp_path / "serial").mkdir()
        (tmp_path / "parallel").mkdir()
        serial_lines, _, serial_top = score_blocks(model, tmp_path / "serial", k=5, jobs=1)
        lines, _, top = score_blocks(model, tmp_path / "parallel", k=5, jobs=3)
        assert lines == serial_lines
        assert top == serial_top  # identical floats, not merely close

    def test_row_blocks_partition_rows(self):
        for n, jobs in ((100, 3), (64, 2), (65, 7), (5, 2)):
            blocks = _row_blocks(n, jobs)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            for (_, stop), (start, _) in zip(blocks, blocks[1:]):
                assert stop == start


class TestRanking:
    @staticmethod
    def best_first(items, k):
        """Offer (identifier, score) items to one bounded heap, keyed as the
        engine keys them; return the kept identifiers and scores, best first."""
        ids = sorted(identifier for identifier, _ in items)
        heap = []
        for identifier, score in items:
            _keep_best(heap, k, (score, -ids.index(identifier)))
        return [
            SimilarityMatch(ids[-negated], score)
            for score, negated in sorted(heap, reverse=True)
        ]

    def test_rank_matches_orders_and_truncates(self):
        items = [("oai:x:c", 0.5), ("oai:x:a", 0.9), ("oai:x:b", 0.9), ("oai:x:d", 0.1)]
        ranked = self.best_first(items, 3)
        assert [m.identifier for m in ranked] == ["oai:x:a", "oai:x:b", "oai:x:c"]

    @given(
        st.lists(
            st.tuples(
                conftest.token_text,
                st.one_of(
                    st.sampled_from((0.0, 0.25, 0.5, 1.0)),
                    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                ),
            ),
            max_size=30,
            unique_by=lambda item: item[0],
        ),
        st.integers(min_value=0, max_value=12),
    )
    def test_accumulator_agrees_with_full_sort(self, items, k):
        expected = sorted(
            (SimilarityMatch(identifier, score) for identifier, score in items),
            key=lambda m: (-m.score, m.identifier),
        )[:k]
        assert self.best_first(items, k) == expected


class TestVectorSpaceModel:
    def test_fit_top_k_tie_break(self):
        corpus = [
            TermFrequencyVector("oai:x:subject", {"xx": 1, "yy": 1}),
            TermFrequencyVector("oai:x:b", {"xx": 1}),
            TermFrequencyVector("oai:x:c", {"xx": 1}),
            TermFrequencyVector("oai:x:d", {"zz": 1}),
        ]
        model = VectorSpaceModel().fit(corpus)
        top = model.top_k("oai:x:subject", k=10)
        assert [m.identifier for m in top][:2] == ["oai:x:b", "oai:x:c"]
        assert top[0].score == top[1].score
        assert "oai:x:subject" not in [m.identifier for m in top]
        assert len(top) == 3  # only n-1 candidates exist

    def test_top_k_truncates(self):
        corpus = conftest.small_corpus()
        model = VectorSpaceModel().fit(corpus)
        assert len(model.top_k("oai:a.example:1", k=1)) == 1

    def test_top_k_matches_oracle(self, rng):
        corpus = oracle.random_corpus(rng, 40)
        model = VectorSpaceModel().fit(corpus)
        for tf in corpus[:5]:
            got = model.top_k(tf.identifier, k=7)
            expected = oracle.oracle_top_k(corpus, tf.identifier, 7)
            assert [m.identifier for m in got] == [identifier for identifier, _ in expected]
            for match, (_, score) in zip(got, expected):
                assert match.score == pytest.approx(score, abs=1e-9)

    def test_unknown_subject(self):
        model = VectorSpaceModel().fit(conftest.small_corpus())
        with pytest.raises(NotFoundError):
            model.top_k("oai:missing:1")

    def test_unfitted_access_raises(self):
        model = VectorSpaceModel()
        with pytest.raises(NotFittedError):
            model.top_k("oai:a.example:1")
        with pytest.raises(NotFittedError):
            model.transform(conftest.small_corpus())
        with pytest.raises(NotFittedError):
            list(model.similarity_pairs("unused", k=1))

    def test_fit_validates(self):
        with pytest.raises(RecordValidationError):
            VectorSpaceModel().fit([])
        with pytest.raises(RecordValidationError):
            VectorSpaceModel(score_floor=2.0).fit(conftest.small_corpus())
        duplicated = conftest.small_corpus() + conftest.small_corpus()[:1]
        with pytest.raises(RecordValidationError):
            VectorSpaceModel().fit(duplicated)

    def test_accepts_identifier_counts_pairs(self):
        model = VectorSpaceModel().fit(
            [("oai:x:1", {"aa": 1, "bb": 2}), ("oai:x:2", {"aa": 2})]
        )
        assert model.identifiers_ == ["oai:x:1", "oai:x:2"]

    def test_check_tf_corpus_rejects_junk(self):
        with pytest.raises(RecordValidationError):
            check_tf_corpus([42])

    def test_transform_against_fitted_statistics(self):
        corpus = conftest.small_corpus()
        model = VectorSpaceModel().fit(corpus)
        out = model.transform(corpus[:1])
        assert out[0] == model.vectors_["oai:a.example:1"]
        with pytest.raises(NotFoundError):
            model.transform([TermFrequencyVector("oai:x:9", {"nonterm": 1})])

    def test_fit_transform_sorted_by_identifier(self):
        vectors = VectorSpaceModel().fit_transform(reversed(conftest.small_corpus()))
        assert [v.identifier for v in vectors] == sorted(v.identifier for v in vectors)

    @settings(deadline=None)
    @given(corpora, st.integers(min_value=2, max_value=9))
    def test_count_scaling_preserves_scores(self, corpus, factor):
        scaled = [
            TermFrequencyVector(
                tf.identifier, {t: c * factor for t, c in tf.counts.items()}
            )
            for tf in corpus
        ]
        with tempfile.TemporaryDirectory() as directory:
            k = len(corpus)
            _, base, _ = score_blocks(VectorSpaceModel().fit(corpus), directory, k)
            _, scaled, _ = score_blocks(VectorSpaceModel().fit(scaled), directory, k)
        assert base.keys() == scaled.keys()
        for pair, score in base.items():
            assert score == pytest.approx(scaled[pair], abs=1e-12)


class TestRuntimeProjection:
    def test_linear_in_pair_count(self):
        assert estimate_runtime(100) == pytest.approx(4950 * 0.0036)
        assert estimate_runtime(10, per_pair_seconds=0.1) == pytest.approx(4.5)
        assert DEFAULT_PER_PAIR_SECONDS == 0.0036

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(RecordValidationError):
            estimate_runtime(10, per_pair_seconds=0.0)

    def test_format_duration_shapes(self):
        assert format_duration(0) == "0 seconds"
        assert format_duration(1) == "1 second"
        assert format_duration(17.82) == "17 seconds"
        assert format_duration(61) == "1 minute-1 second"
        assert format_duration(3601) == "1 hour-0 minutes-1 second"
        assert format_duration(1801) == "30 minutes-1 second"
        assert format_duration(365 * 86400) == "1 year-0 days-0 hours-0 minutes-0 seconds"

    def test_negative_duration_rejected(self):
        with pytest.raises(RecordValidationError):
            format_duration(-1)

    @given(st.integers(min_value=0, max_value=10**12))
    def test_parse_inverts_format(self, seconds):
        assert parse_duration(format_duration(seconds)) == seconds

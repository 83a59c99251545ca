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
from simharvest import similarity
from simharvest.exceptions import ConfigError, RecordValidationError, StorageError
from simharvest.records import SimilarityMatch
from oracle import cosine_similarity, parse_duration
from simharvest.oai_xml import format_score
from simharvest.similarity import (
    DEFAULT_PER_PAIR_SECONDS,
    VectorSpaceModel,
    WeightedVector,
    _row_blocks,
    check_tf_corpus,
    estimate_runtime,
    format_duration,
    keep_best,
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

# Zipf-like terms: "t<400 // r>" for r drawn from 1..400, so a few terms
# turn up in most documents and most terms in few. Dense terms come from
# six words, so nearly every pair shares some.
zipf_terms = st.integers(min_value=1, max_value=400).map(lambda r: f"t{400 // r}")
dense_terms = st.sampled_from(("aa", "bb", "cc", "dd", "ee", "ff"))


def corpus_of(terms):
    """1..20 documents over terms; an empty document stands for a deleted record."""
    return st.lists(
        st.dictionaries(terms, st.integers(min_value=1, max_value=6), max_size=12),
        min_size=1,
        max_size=20,
    ).map(
        lambda docs: [
            TermFrequencyVector(f"oai:x.example:{i:03d}", counts)
            for i, counts in enumerate(docs)
        ]
    )


def score_blocks(model, directory, k, jobs=1):
    """Run every row block of a fitted model.

    Returns the pair-file lines, each pair's raw score as offered to the
    heaps (complete when k >= n - 1), and each row's merged top-k entries,
    best first.
    """
    scores, merged = {}, {}
    ids = model.identifiers_
    path = f"{directory}/pairs"
    for heaps in model.similarity_pairs(path, k, jobs=jobs):
        for row, heap in heaps.items():
            merged[row] = heapq.nlargest(k, merged.get(row, []) + heap)
            for score, negated in heap:
                scores[tuple(sorted((ids[row], ids[-negated])))] = score
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return lines, scores, merged


def assert_scores_equal_reference(corpus, jobs=1):
    """Every pair's engine score == the reference scorer's, exactly, and the
    pair lines are the reference's scores, one per pair. Returns the engine's
    scores by (id_a, id_b)."""
    model = VectorSpaceModel().fit(corpus)
    ids = model.identifiers_
    with tempfile.TemporaryDirectory() as directory:
        lines, scores, _ = score_blocks(model, directory, len(ids), jobs=jobs)
    expected_lines = []
    for i, id_a in enumerate(ids):
        for id_b in ids[i + 1 :]:
            reference = cosine_similarity(model.vectors_[id_a], model.vectors_[id_b])
            assert scores[id_a, id_b] == reference, (id_a, id_b)
            expected_lines.append(f"{id_a}\t{id_b}\t{format_score(reference)}")
    assert len(scores) == pair_count(len(ids))
    assert lines == expected_lines
    return scores


def engine_top(model, identifier, k):
    """One fitted document's ranked matches as the engine's row-block heaps
    select them, best first."""
    with tempfile.TemporaryDirectory() as directory:
        _, _, merged = score_blocks(model, directory, k)
    ids = model.identifiers_
    return [
        SimilarityMatch(ids[-negated], score)
        for score, negated in merged.get(ids.index(identifier), [])
    ]


def fitted(corpus):
    """The corpus's weighted vectors as fit() gives them, in corpus order."""
    vectors = VectorSpaceModel().fit(corpus).vectors_
    return [vectors[tf.identifier] for tf in corpus]


class TestWeighting:
    def test_idf_is_natural_log_of_n_over_df(self):
        corpus = conftest.small_corpus()
        # df: friction, tunnel and wind 1, runway 2, tire 3 of N = 3
        idf = {term: math.log(3 / 1) for term in ("friction", "tunnel", "wind")}
        idf.update(runway=math.log(3 / 2), tire=math.log(3 / 3))
        assert idf["tire"] == 0.0
        assert fitted(corpus) == [weight_vector(tf, idf) for tf in corpus]

    def test_weight_vector_drops_zero_idf_terms(self):
        vector = fitted(conftest.small_corpus())[0]
        assert set(vector.weights) == {"friction", "runway"}

    def test_weight_vector_hand_computed(self):
        vector = fitted(conftest.small_corpus())[0]
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
        vector = fitted(corpus)[0]
        assert vector.weights == {} and vector.norm == 0.0

    @given(corpora)
    def test_nonempty_vectors_are_unit_length(self, corpus):
        for vector in fitted(corpus):
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
        a, b, _ = fitted(conftest.small_corpus())
        expected = math.log(1.5) / math.sqrt((3 * math.log(3.0)) ** 2 + math.log(1.5) ** 2)
        assert cosine_similarity(a, b) == pytest.approx(expected, rel=1e-12)

    def test_disjoint_vocabularies_score_zero(self):
        a, _, c = fitted(conftest.small_corpus())
        assert cosine_similarity(a, c) == 0.0

    def test_only_zero_idf_overlap_scores_zero(self):
        _, b, c = fitted(conftest.small_corpus())
        assert cosine_similarity(b, c) == 0.0

    def test_empty_vector_scores_zero(self):
        empty = WeightedVector("oai:x:1", {}, 0.0)
        other = WeightedVector("oai:x:2", {"tire": 1.0}, 2.0)
        assert cosine_similarity(empty, other) == 0.0
        assert cosine_similarity(empty, empty) == 0.0

    @given(corpora)
    def test_symmetric_exactly(self, corpus):
        vectors = fitted(corpus)
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert cosine_similarity(vectors[i], vectors[j]) == cosine_similarity(
                    vectors[j], vectors[i]
                )

    @given(corpora)
    def test_bounded_and_self_similar(self, corpus):
        for vector in fitted(corpus):
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
        a, b, _ = fitted(corpus)
        assert cosine_similarity(a, b) == pytest.approx(1.0, abs=1e-9)
        assert cosine_similarity(a, b) <= 1.0


class TestExactScores:
    """The term-at-a-time engine reproduces the reference pair scorer's
    floats bit for bit, not merely within a tolerance."""

    @settings(deadline=None)
    @given(st.one_of(corpus_of(zipf_terms), corpus_of(dense_terms)))
    def test_every_score_equals_the_reference(self, corpus):
        assert_scores_equal_reference(corpus)

    def test_random_corpora(self, rng):
        for n_docs, vocab_size in ((60, 400), (60, 12)):
            corpus = oracle.random_corpus(rng, n_docs, vocab_size=vocab_size)
            assert_scores_equal_reference(corpus)

    def test_worker_scores_equal_the_reference(self, rng):
        assert_scores_equal_reference(oracle.random_corpus(rng, 70), jobs=2)

    def test_empty_vectors_score_zero(self):
        corpus = [
            TermFrequencyVector("oai:x:1", {"aa": 2, "bb": 1}),
            TermFrequencyVector("oai:x:2", {}),  # a deleted record
            TermFrequencyVector("oai:x:3", {"aa": 1, "cc": 3}),
            TermFrequencyVector("oai:x:4", {"zz": 1}),
            TermFrequencyVector("oai:x:5", {"zz": 2}),  # only zero-idf terms
        ]
        scores = assert_scores_equal_reference(corpus)
        for (id_a, id_b), score in scores.items():
            if {id_a, id_b} & {"oai:x:2"}:
                assert score == 0.0

    def test_identical_documents_clamp_to_one(self):
        corpus = [
            TermFrequencyVector("oai:x:1", {"aa": 8, "bb": 9}),
            TermFrequencyVector("oai:x:2", {"aa": 8, "bb": 9}),
            TermFrequencyVector("oai:x:3", {"zz": 1}),
        ]
        model = VectorSpaceModel().fit(corpus)
        unclamped = 0.0
        for weight in model.vectors_["oai:x:1"].weights.values():
            unclamped += weight * weight
        assert unclamped > 1.0  # the sum overshoots; the score must not
        scores = assert_scores_equal_reference(corpus)
        assert scores["oai:x:1", "oai:x:2"] == 1.0

    def test_no_shared_terms_score_zero(self):
        corpus = [
            TermFrequencyVector("oai:x:1", {"aa": 1, "bb": 2}),
            TermFrequencyVector("oai:x:2", {"cc": 1}),
            TermFrequencyVector("oai:x:3", {"dd": 3, "ee": 1}),
        ]
        scores = assert_scores_equal_reference(corpus)
        assert set(scores.values()) == {0.0}

    def test_one_document(self, tmp_path):
        model = VectorSpaceModel().fit([TermFrequencyVector("oai:x:1", {"aa": 1})])
        blocks = list(model.similarity_pairs(str(tmp_path / "pairs"), k=10))
        assert blocks == [{}]
        assert (tmp_path / "pairs").read_text() == ""


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

    def test_pool_holds_at_most_the_cpus(self, rng, tmp_path, monkeypatch):
        sizes = []

        class InlinePool:
            """Records its worker count; runs the initializer and blocks here."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, function, tasks):
                return map(function, tasks)

        monkeypatch.setattr(similarity, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(similarity, "_worker_index", similarity._worker_index)
        monkeypatch.setattr(similarity.os, "cpu_count", lambda: 2)
        model = VectorSpaceModel().fit(oracle.random_corpus(rng, 70))
        (tmp_path / "serial").mkdir()
        (tmp_path / "pooled").mkdir()
        serial_lines, _, serial_top = score_blocks(model, tmp_path / "serial", k=3)
        lines, _, top = score_blocks(model, tmp_path / "pooled", k=3, jobs=10_000)
        assert sizes == [2]
        assert lines == serial_lines
        assert top == serial_top

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_block_off_its_byte_range_raises(self, rng, tmp_path, shift):
        model = VectorSpaceModel().fit(oracle.random_corpus(rng, 6))
        ids = model.identifiers_
        postings = similarity._postings([model.vectors_[i] for i in ids])
        size = sum(
            len(f"{a}\t{b}\t0.0000\n".encode("utf-8"))
            for i, a in enumerate(ids)
            for b in ids[i + 1 :]
        )
        path = tmp_path / "pairs"
        path.write_bytes(b"")
        similarity._score_block(ids, postings, 0, len(ids), str(path), 0, size, 2)
        with pytest.raises(StorageError, match="ended at byte"):
            similarity._score_block(
                ids, postings, 0, len(ids), str(path), 0, size + shift, 2
            )


class TestRanking:
    @staticmethod
    def best_first(items, k):
        """Offer (identifier, score) items to one bounded heap, keyed as the
        engine keys them; return the kept identifiers and scores, best first."""
        ids = sorted(identifier for identifier, _ in items)
        heap = []
        for identifier, score in items:
            keep_best(heap, k, (score, -ids.index(identifier)))
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
        top = engine_top(model, "oai:x:subject", 10)
        assert [m.identifier for m in top][:2] == ["oai:x:b", "oai:x:c"]
        assert top[0].score == top[1].score
        assert "oai:x:subject" not in [m.identifier for m in top]
        assert len(top) == 3  # only n-1 candidates exist

    def test_top_k_truncates(self):
        corpus = conftest.small_corpus()
        model = VectorSpaceModel().fit(corpus)
        assert len(engine_top(model, "oai:a.example:1", 1)) == 1

    def test_top_k_matches_oracle(self, rng):
        corpus = oracle.random_corpus(rng, 40)
        model = VectorSpaceModel().fit(corpus)
        for tf in corpus[:5]:
            got = engine_top(model, tf.identifier, 7)
            expected = oracle.oracle_top_k(corpus, tf.identifier, 7)
            assert [m.identifier for m in got] == [identifier for identifier, _ in expected]
            for match, (_, score) in zip(got, expected):
                assert match.score == pytest.approx(score, abs=1e-9)

    def test_fit_validates(self):
        with pytest.raises(RecordValidationError):
            VectorSpaceModel().fit([])
        duplicated = conftest.small_corpus() + conftest.small_corpus()[:1]
        with pytest.raises(RecordValidationError):
            VectorSpaceModel().fit(duplicated)

    def test_check_tf_corpus_rejects_junk(self):
        with pytest.raises(RecordValidationError):
            check_tf_corpus([42])
        with pytest.raises(RecordValidationError):
            check_tf_corpus([("oai:x:1", {"aa": 1})])

    def test_weights_against_fitted_statistics(self):
        # fitted without oai:b.example:3, runway and tire are in every document
        corpus = conftest.small_corpus()[:2]
        model = VectorSpaceModel().fit(corpus)
        idf = {"friction": math.log(2 / 1), "runway": 0.0, "tire": 0.0}
        assert model.vectors_["oai:a.example:1"] == weight_vector(corpus[0], idf)
        assert model.vectors_["oai:a.example:1"].weights == {"friction": 1.0}

    def test_negative_k_is_refused_before_the_file_is_touched(self, tmp_path):
        model = VectorSpaceModel().fit(conftest.small_corpus())
        path = tmp_path / "pairs"
        path.write_bytes(b"earlier results")
        blocks = model.similarity_pairs(str(path), k=-1)
        with pytest.raises(ConfigError, match="k must be non-negative"):
            next(blocks)
        assert path.read_bytes() == b"earlier results"

    def test_fit_sorts_by_identifier(self):
        model = VectorSpaceModel().fit(reversed(conftest.small_corpus()))
        assert model.identifiers_ == sorted(model.identifiers_)
        assert list(model.vectors_) == model.identifiers_

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
        with pytest.raises(ConfigError):
            estimate_runtime(10, per_pair_seconds=0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_nonfinite_rate(self, rate):
        with pytest.raises(ConfigError, match="positive and finite"):
            estimate_runtime(10, per_pair_seconds=rate)

    @pytest.mark.parametrize(
        ("n_docs", "rate"), [(10, 1e308), (10**200, DEFAULT_PER_PAIR_SECONDS)]
    )
    def test_rejects_overflowing_projection(self, n_docs, rate):
        with pytest.raises(ConfigError, match="overflows"):
            estimate_runtime(n_docs, per_pair_seconds=rate)

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

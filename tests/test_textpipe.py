"""Tokenization and term-frequency extraction."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import conftest
from simharvest.exceptions import RecordValidationError
from simharvest.records import MetadataRecord
from simharvest.textpipe import (
    DEFAULT_FIELDS,
    MIN_TOKEN_LENGTH,
    TermFrequencyVector,
    extract_text,
    load_stopwords,
    record_to_tf,
    term_frequencies,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_splits_on_non_alphanumerics(self):
        assert tokenize("Tire-friction, RUNWAY; speed!") == [
            "tire",
            "friction",
            "runway",
            "speed",
        ]

    def test_short_tokens_dropped(self):
        assert MIN_TOKEN_LENGTH == 2
        assert tokenize("a bb c dd") == ["bb", "dd"]

    def test_stopwords_removed(self):
        tokens = tokenize("the friction of the tire and the runway")
        assert "the" not in tokens and "of" not in tokens and "and" not in tokens
        assert tokens == ["friction", "tire", "runway"]

    def test_numbers_kept(self):
        assert tokenize("mach 25 reentry") == ["mach", "25", "reentry"]

    def test_no_stemming(self):
        assert tokenize("landing landings") == ["landing", "landings"]

    def test_underscore_is_a_separator(self):
        assert tokenize("wind_tunnel") == ["wind", "tunnel"]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("!!! --- ???") == []

    def test_custom_stopword_set(self):
        assert tokenize("tire runway", stopwords={"tire"}) == ["runway"]

    @given(st.text(max_size=80))
    def test_tokens_are_normalized(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert len(token) >= MIN_TOKEN_LENGTH
            assert not any(ch.isspace() for ch in token)

    @given(st.text(max_size=80))
    def test_retokenizing_output_is_stable(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestStopwords:
    def test_packaged_default_contains_function_words(self):
        stopwords = load_stopwords()
        assert {"the", "of", "and", "is", "in"} <= stopwords

    def test_custom_file_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\n\nBar\n", encoding="utf-8")
        assert load_stopwords(path) == {"foo", "bar"}


class TestExtractText:
    def test_default_fields_in_document_order(self):
        record = MetadataRecord(
            identifier="oai:a.example:1",
            datestamp="2006-04-19",
            dc_fields=(
                ("description", "first"),
                ("title", "second"),
                ("publisher", "ignored"),
                ("subject", "third"),
            ),
        )
        assert DEFAULT_FIELDS == ("title", "description", "subject", "creator")
        assert extract_text(record) == "first second third"

    def test_explicit_fields(self):
        record = MetadataRecord(
            identifier="oai:a.example:1",
            datestamp="2006-04-19",
            dc_fields=(("publisher", "nasa"), ("title", "tires")),
        )
        assert extract_text(record, fields=("publisher",)) == "nasa"

    def test_deleted_record_has_no_text(self):
        record = MetadataRecord(
            identifier="oai:a.example:1", datestamp="2006-04-19", deleted=True
        )
        assert extract_text(record) == ""


class TestTermFrequencyVector:
    def test_counts_sorted_and_positive(self):
        vector = TermFrequencyVector("oai:a.example:1", {"zz": 1, "aa": 2})
        assert list(vector.counts) == ["aa", "zz"]
        with pytest.raises(RecordValidationError):
            TermFrequencyVector("oai:a.example:1", {"aa": 0})
        with pytest.raises(RecordValidationError):
            TermFrequencyVector("oai:a.example:1", {"aa": -1})

    def test_terms_must_be_normalized(self):
        with pytest.raises(RecordValidationError):
            TermFrequencyVector("oai:a.example:1", {"Upper": 1})
        with pytest.raises(RecordValidationError):
            TermFrequencyVector("oai:a.example:1", {"a b": 1})

    def test_every_unicode_whitespace_rejected(self):
        spaces = [chr(code) for code in range(sys.maxunicode + 1)]
        spaces = [space for space in spaces if space.isspace()]
        assert len(spaces) > 20
        for space in spaces:
            for term in (f"ab{space}cd", f"ab{space}", space):
                with pytest.raises(RecordValidationError, match="no whitespace"):
                    TermFrequencyVector("oai:a.example:1", {term: 1})

    def test_empty_vector_allowed(self):
        assert TermFrequencyVector("oai:a.example:1", {}).counts == {}

    @given(conftest.tf_vectors)
    def test_generated_vectors_sorted(self, vector):
        assert list(vector.counts) == sorted(vector.counts)


class TestTermFrequencies:
    def test_counts(self):
        vector = term_frequencies("oai:a.example:1", ["tire", "tire", "runway"])
        assert vector.counts == {"runway": 1, "tire": 2}

    def test_record_to_tf_matches_manual_pipeline(self):
        record = MetadataRecord(
            identifier="oai:a.example:1",
            datestamp="2006-04-19",
            dc_fields=(("title", "Tire tire friction"), ("subject", "runway")),
        )
        vector = record_to_tf(record)
        assert vector.counts == {"friction": 1, "runway": 1, "tire": 2}

    def test_record_to_tf_deleted_is_empty(self):
        record = MetadataRecord(
            identifier="oai:a.example:1", datestamp="2006-04-19", deleted=True
        )
        assert record_to_tf(record).counts == {}

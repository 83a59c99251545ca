"""Record model validation and provenance canonicalization."""

import pytest
from hypothesis import given

import conftest
from simharvest.exceptions import RecordValidationError
from simharvest.records import (
    DC_ELEMENTS,
    MetadataRecord,
    OaiError,
    SimilarityAbout,
    SimilarityMatch,
    canonical_xml_block,
    dc_values,
    is_valid_datestamp,
    utc_now_string,
)


def make_record(**overrides):
    base = dict(
        identifier="oai:a.example:1",
        datestamp="2006-04-19T12:00:00Z",
        dc_fields=(("title", "Tire friction"),),
    )
    base.update(overrides)
    return MetadataRecord(**base)


class TestMetadataRecord:
    def test_fifteen_dpublin_core_names(self):
        assert len(DC_ELEMENTS) == 15
        assert "title" in DC_ELEMENTS and "coverage" in DC_ELEMENTS

    def test_accepts_every_dc_element(self):
        record = make_record(dc_fields=tuple((name, "x") for name in DC_ELEMENTS))
        assert dc_values(record, ("rights",)) == ["x"]

    def test_rejects_unknown_element(self):
        with pytest.raises(RecordValidationError):
            make_record(dc_fields=(("caption", "x"),))

    def test_rejects_empty_identifier(self):
        with pytest.raises(RecordValidationError):
            make_record(identifier="")

    def test_rejects_whitespace_identifier(self):
        with pytest.raises(RecordValidationError):
            make_record(identifier="oai:a b")

    def test_rejects_bad_datestamp(self):
        for stamp in ("2006-13-01", "2006-04-19T25:00:00Z", "20060419", "2006-04-19T12:00:00"):
            with pytest.raises(RecordValidationError):
                make_record(datestamp=stamp)

    def test_accepts_date_only_datestamp(self):
        assert make_record(datestamp="2006-04-19").datestamp == "2006-04-19"

    def test_deleted_carries_no_metadata(self):
        with pytest.raises(RecordValidationError):
            make_record(deleted=True)
        with pytest.raises(RecordValidationError):
            MetadataRecord(
                identifier="oai:a.example:1",
                datestamp="2006-04-19",
                deleted=True,
                provenance=("<note xmlns='urn:x'>hi</note>",),
            )
        record = MetadataRecord(
            identifier="oai:a.example:1", datestamp="2006-04-19", deleted=True
        )
        assert record.deleted and record.dc_fields == ()

    def test_control_characters_rejected_in_text(self):
        with pytest.raises(RecordValidationError):
            make_record(dc_fields=(("title", "bad\x00"),))
        with pytest.raises(RecordValidationError):
            make_record(dc_fields=(("title", "bad\rline"),))
        make_record(dc_fields=(("title", "tab\tand\nnewline ok"),))

    def test_rejects_malformed_provenance(self):
        with pytest.raises(RecordValidationError):
            make_record(provenance=("<unclosed",))

    @given(conftest.records())
    def test_generated_records_validate(self, record):
        assert record.identifier


class TestCanonicalXmlBlock:
    def test_prefix_and_default_namespace_agree(self):
        default_ns = '<note xmlns="urn:x"><child>v</child></note>'
        prefixed = '<p:note xmlns:p="urn:x"><p:child>v</p:child></p:note>'
        assert canonical_xml_block(default_ns) == canonical_xml_block(prefixed)

    def test_idempotent(self):
        block = '<note xmlns="urn:x">  <child>v</child>\n</note>'
        once = canonical_xml_block(block)
        assert canonical_xml_block(once) == once

    def test_indentation_between_elements_dropped_but_leaf_text_kept(self):
        block = '<note xmlns="urn:x">\n  <child> padded </child>\n</note>'
        canonical = canonical_xml_block(block)
        assert "> padded <" in canonical
        assert "\n" not in canonical.split("> padded <")[0]

    def test_records_equal_after_prefix_change(self):
        a = make_record(provenance=('<note xmlns="urn:x">v</note>',))
        b = make_record(provenance=('<z:note xmlns:z="urn:x">v</z:note>',))
        assert a == b


class TestSimilarityTypes:
    def test_match_score_bounds(self):
        SimilarityMatch("oai:a.example:2", 0.0)
        SimilarityMatch("oai:a.example:2", 1.0)
        for bad in (-0.1, 1.0001, float("nan")):
            with pytest.raises(RecordValidationError):
                SimilarityMatch("oai:a.example:2", bad)

    def test_about_rejects_increasing_scores(self):
        with pytest.raises(RecordValidationError):
            SimilarityAbout(
                subject_identifier="oai:a.example:1",
                computed_at="2006-04-19T12:00:00Z",
                matches=(
                    SimilarityMatch("oai:a.example:2", 0.2),
                    SimilarityMatch("oai:a.example:3", 0.9),
                ),
            )

    def test_about_rejects_self_match(self):
        with pytest.raises(RecordValidationError):
            SimilarityAbout(
                subject_identifier="oai:a.example:1",
                computed_at="2006-04-19T12:00:00Z",
                matches=(SimilarityMatch("oai:a.example:1", 0.9),),
            )

    def test_about_rejects_bad_computed_at(self):
        with pytest.raises(RecordValidationError):
            SimilarityAbout(
                subject_identifier="oai:a.example:1", computed_at="yesterday"
            )

    def test_ties_allowed(self):
        about = SimilarityAbout(
            subject_identifier="oai:a.example:1",
            computed_at="2006-04-19T12:00:00Z",
            matches=(
                SimilarityMatch("oai:a.example:2", 0.5),
                SimilarityMatch("oai:a.example:3", 0.5),
            ),
        )
        assert len(about.matches) == 2


class TestHelpers:
    def test_utc_now_string_shape(self):
        assert is_valid_datestamp(utc_now_string())

    def test_datestamp_validator(self):
        assert is_valid_datestamp("2006-04-19")
        assert is_valid_datestamp("2006-04-19T23:59:59Z")
        assert not is_valid_datestamp("2006-4-19")
        assert not is_valid_datestamp("2006-02-30")
        assert not is_valid_datestamp("")

    def test_oai_error_vocabulary(self):
        OaiError("badVerb", "nope")
        with pytest.raises(RecordValidationError):
            OaiError("serverOnFire", "nope")

"""Response serialization and parsing: lossless round trips, protocol shape."""

import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conformance import conformance_problems, similarity_containers
from simharvest import oai_xml, records
from simharvest.exceptions import (
    ProtocolMismatchError,
    RecordValidationError,
    XmlParseError,
)
from simharvest.oai_xml import (
    DC_NS,
    DEFAULT_SIMILARITY_SCHEMA_URL,
    METADATA_PREFIX,
    OAI_NS,
    ResumptionToken,
    build_similarity_about,
    format_score,
    parse_record_fragment,
    parse_response,
    serialize_error,
    serialize_get_record,
    serialize_identify,
    serialize_list_identifiers,
    serialize_list_metadata_formats,
    serialize_list_records,
    serialize_list_sets,
    serialize_record_fragment,
    serialize_similarity,
)
from simharvest.records import (
    MetadataRecord,
    OaiError,
    SimilarityAbout,
    SimilarityMatch,
)

BASE = "http://aggregator.example/oai"
DATE = "2006-04-19T12:00:00Z"


def oai(tag):
    return f"{{{OAI_NS}}}{tag}"


def envelope(body):
    """(responseDate text, <request> attributes) of a response body."""
    root = ET.fromstring(body)
    return root.findtext(oai("responseDate")), dict(root.find(oai("request")).attrib)


def fields(element):
    """(local name, text) of each child of an element."""
    return [(child.tag.rsplit("}", 1)[-1], child.text) for child in element]


def vetted_payload(body, verb):
    """The <verb> element of a body that passes the conformance validator."""
    assert conformance_problems(body) == []
    return ET.fromstring(body).find(oai(verb))


def sample_record(**overrides):
    base = dict(
        identifier="oai:ltrs.larc.nasa.gov:rdp3195.tex",
        datestamp="2001-03-02T14:47:06Z",
        set_specs=("reports",),
        dc_fields=(
            ("title", "Shuttle tire friction tests"),
            ("creator", "Daugherty, Robert H."),
            ("description", "Friction of the orbiter nose tire on wet runways."),
        ),
        provenance=(
            '<provenance xmlns="http://www.openarchives.org/OAI/2.0/provenance">'
            '<originDescription harvestDate="2002-01-01T00:00:00Z" altered="false">'
            "<baseURL>http://techreports.larc.nasa.gov/ltrs/oai2.0/</baseURL>"
            "<identifier>oai:ltrs.larc.nasa.gov:rdp3195.tex</identifier>"
            "</originDescription></provenance>",
        ),
    )
    base.update(overrides)
    return MetadataRecord(**base)


def sample_about(subject="oai:ltrs.larc.nasa.gov:rdp3195.tex"):
    return SimilarityAbout(
        subject_identifier=subject,
        computed_at=DATE,
        matches=(
            SimilarityMatch("oai:other.example:twin", 0.9812),
            SimilarityMatch("oai:other.example:cousin", 0.4401),
        ),
    )


@pytest.fixture
def pinned_date(monkeypatch):
    """Every response serialized in the test carries DATE as responseDate."""
    monkeypatch.setattr(oai_xml, "utc_now_string", lambda: DATE)


class TestGetRecord:
    @pytest.mark.usefixtures("pinned_date")
    def test_round_trip_with_similarity(self):
        record = sample_record()
        about = sample_about()
        body = serialize_get_record(
            record,
            about,
            base_url=BASE,
            request_args={"verb": "GetRecord", "identifier": record.identifier,
                          "metadataPrefix": "oai_dc"},
            schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
        )
        parsed = parse_response(body, "GetRecord")
        assert parsed.records == [record]
        assert similarity_containers(body)[record.identifier] == about
        assert envelope(body) == (
            DATE,
            {
                "verb": "GetRecord",
                "identifier": record.identifier,
                "metadataPrefix": "oai_dc",
            },
        )

    @pytest.mark.usefixtures("pinned_date")
    def test_serialization_is_deterministic(self):
        record = sample_record()
        args = {"verb": "GetRecord", "identifier": record.identifier,
                "metadataPrefix": "oai_dc"}
        first = serialize_get_record(
            record, sample_about(), base_url=BASE, request_args=args,
            schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
        )
        second = serialize_get_record(
            record, sample_about(), base_url=BASE, request_args=args,
            schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
        )
        assert first == second

    @pytest.mark.usefixtures("pinned_date")
    def test_reserialization_of_parsed_response_is_identical(self):
        record = sample_record()
        args = {"verb": "GetRecord", "identifier": record.identifier,
                "metadataPrefix": "oai_dc"}
        body = serialize_get_record(
            record, sample_about(), base_url=BASE, request_args=args,
            schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
        )
        parsed = parse_response(body, "GetRecord")
        again = serialize_get_record(
            parsed.records[0],
            similarity_containers(body)[record.identifier],
            base_url=BASE,
            request_args=envelope(body)[1],
            schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
        )
        assert again == body

    def test_similarity_about_comes_last(self):
        body = serialize_get_record(
            sample_record(),
            sample_about(),
            base_url=BASE,
            request_args={"verb": "GetRecord"},
            schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
        ).decode("utf-8")
        assert body.rindex("similarity") > body.rindex("originDescription")
        assert "metadata>" in body

    def test_similarity_schema_binding_uses_configured_url(self):
        body = serialize_get_record(
            sample_record(),
            sample_about(),
            base_url=BASE,
            request_args={"verb": "GetRecord"},
            schema_url="http://aggregator.example/sim.xsd",
        ).decode("utf-8")
        assert "urn:simharvest:similarity http://aggregator.example/sim.xsd" in body
        assert DEFAULT_SIMILARITY_SCHEMA_URL not in body

    def test_deleted_record_has_header_only(self):
        record = MetadataRecord(
            identifier="oai:x:gone", datestamp="2002-05-05", deleted=True
        )
        body = serialize_get_record(
            record, None, base_url=BASE, request_args={"verb": "GetRecord"},
            schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
        )
        text = body.decode("utf-8")
        assert 'status="deleted"' in text
        assert "<metadata>" not in text and "<about>" not in text
        parsed = parse_response(body, "GetRecord")
        assert parsed.records == [record]

    def test_deleted_record_cannot_carry_similarity(self):
        record = MetadataRecord(
            identifier="oai:x:gone", datestamp="2002-05-05", deleted=True
        )
        with pytest.raises(RecordValidationError):
            serialize_get_record(
                record,
                sample_about("oai:x:gone"),
                base_url=BASE,
                request_args={"verb": "GetRecord"},
                schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
            )

    def test_subject_mismatch_rejected(self):
        with pytest.raises(RecordValidationError):
            serialize_get_record(
                sample_record(),
                sample_about("oai:other.example:not-the-subject"),
                base_url=BASE,
                request_args={"verb": "GetRecord"},
                schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
            )

    @settings(max_examples=60, deadline=None)
    @given(conftest.records())
    def test_round_trip_any_record(self, record):
        body = serialize_get_record(
            record,
            None,
            base_url=BASE,
            request_args={"verb": "GetRecord", "identifier": record.identifier},
            schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
        )
        assert parse_response(body, "GetRecord").records == [record]


class TestListVerbs:
    def test_list_records_round_trip_with_token(self, rng):
        import oracle

        records = oracle.synthetic_records(rng, 5)
        token = ResumptionToken(text="page:2", complete_list_size=25, cursor=10)
        body = serialize_list_records(
            records,
            base_url=BASE,
            request_args={"verb": "ListRecords", "metadataPrefix": "oai_dc"},
            token=token,
        )
        parsed = parse_response(body, "ListRecords")
        assert parsed.records == records
        assert parsed.token == ResumptionToken("page:2")
        element = vetted_payload(body, "ListRecords").find(oai("resumptionToken"))
        assert element.attrib == {"completeListSize": "25", "cursor": "10"}

    def test_final_page_has_no_token(self, rng):
        import oracle

        body = serialize_list_records(
            oracle.synthetic_records(rng, 2),
            base_url=BASE,
            request_args={"verb": "ListRecords", "metadataPrefix": "oai_dc"},
        )
        assert parse_response(body, "ListRecords").token is None
        assert b"resumptionToken" not in body

    def test_paging_concatenation_recovers_the_list(self, rng):
        import oracle

        records = oracle.synthetic_records(rng, 25)
        pages = []
        for start in range(0, 25, 10):
            chunk = records[start : start + 10]
            token = None
            if start + 10 < 25:
                token = ResumptionToken(
                    text=f"page:{start // 10 + 1}",
                    complete_list_size=25,
                    cursor=start,
                )
            pages.append(
                serialize_list_records(
                    chunk,
                    base_url=BASE,
                    request_args={"verb": "ListRecords", "metadataPrefix": "oai_dc"},
                    token=token,
                )
            )
        collected = []
        tokens = []
        for page in pages:
            parsed = parse_response(page, "ListRecords")
            collected.extend(parsed.records)
            if parsed.token:
                element = ET.fromstring(page).find(f".//{oai('resumptionToken')}")
                tokens.append((parsed.token.text, dict(element.attrib)))
        assert collected == records
        assert tokens == [
            ("page:1", {"completeListSize": "25", "cursor": "0"}),
            ("page:2", {"completeListSize": "25", "cursor": "10"}),
        ]

    def test_list_identifiers_round_trip(self, rng):
        import oracle

        records = oracle.synthetic_records(rng, 3) + [
            MetadataRecord(
                identifier="oai:x:gone",
                datestamp="2002-05-05",
                set_specs=("reports",),
                deleted=True,
            )
        ]
        body = serialize_list_identifiers(
            records,
            base_url=BASE,
            request_args={"verb": "ListIdentifiers", "metadataPrefix": "oai_dc"},
        )
        listing = vetted_payload(body, "ListIdentifiers")
        headers = listing.findall(oai("header"))
        assert [h.findtext(oai("identifier")) for h in headers] == [
            r.identifier for r in records
        ]
        assert [h.findtext(oai("datestamp")) for h in headers] == [
            r.datestamp for r in records
        ]
        assert [
            tuple(spec.text for spec in h.findall(oai("setSpec"))) for h in headers
        ] == [r.set_specs for r in records]
        deleted = [h.get("status") == "deleted" for h in headers]
        assert deleted == [False, False, False, True]
        assert not any(e.tag.startswith(f"{{{DC_NS}}}") for e in listing.iter())


def identify_body() -> bytes:
    return serialize_identify(
        "test aggregator",
        "one@example.org",
        "2000-01-01T00:00:00Z",
        base_url=BASE,
        request_args={"verb": "Identify"},
    )


class TestIdentifyAndFriends:
    def test_identify_round_trip(self):
        identify = vetted_payload(identify_body(), "Identify")
        assert fields(identify) == [
            ("repositoryName", "test aggregator"),
            ("baseURL", BASE),
            ("protocolVersion", "2.0"),
            ("adminEmail", "one@example.org"),
            ("earliestDatestamp", "2000-01-01T00:00:00Z"),
            ("deletedRecord", "transient"),
            ("granularity", "YYYY-MM-DDThh:mm:ssZ"),
        ]

    def test_formats_round_trip(self):
        body = serialize_list_metadata_formats(
            base_url=BASE, request_args={"verb": "ListMetadataFormats"}
        )
        listing = vetted_payload(body, "ListMetadataFormats")
        assert [
            fields(entry) for entry in listing.findall(oai("metadataFormat"))
        ] == [
            [
                ("metadataPrefix", METADATA_PREFIX),
                ("schema", "http://www.openarchives.org/OAI/2.0/oai_dc.xsd"),
                ("metadataNamespace", "http://www.openarchives.org/OAI/2.0/oai_dc/"),
            ]
        ]

    def test_sets_round_trip(self):
        body = serialize_list_sets(
            ["reports", "space"], base_url=BASE, request_args={"verb": "ListSets"}
        )
        listing = vetted_payload(body, "ListSets")
        assert [
            (entry.findtext(oai("setSpec")), entry.findtext(oai("setName")))
            for entry in listing.findall(oai("set"))
        ] == [("reports", "reports"), ("space", "space")]


class TestErrors:
    def test_error_parsed_not_raised(self):
        body = serialize_error(
            [OaiError("idDoesNotExist", "no such record")],
            base_url=BASE,
            request_args={"verb": "GetRecord", "identifier": "oai:x:nope",
                          "metadataPrefix": "oai_dc"},
        )
        parsed = parse_response(body, "GetRecord")
        assert parsed.errors == [OaiError("idDoesNotExist", "no such record")]
        assert parsed.records == []
        assert envelope(body)[1]["identifier"] == "oai:x:nope"

    def test_bad_verb_and_bad_argument_suppress_echo(self):
        for code in ("badVerb", "badArgument"):
            body = serialize_error(
                [OaiError(code, "rejected")],
                base_url=BASE,
                request_args={"verb": "GetRecord", "identifier": "oai:x:1"},
            )
            parsed = parse_response(body, "GetRecord")
            assert envelope(body)[1] == {}
            assert parsed.errors[0].code == code

    def test_multiple_errors(self):
        body = serialize_error(
            [OaiError("badArgument", "one"), OaiError("badArgument", "two")],
            base_url=BASE,
            request_args={},
        )
        assert len(parse_response(body, "ListRecords").errors) == 2

    def test_empty_error_list_rejected(self):
        with pytest.raises(RecordValidationError):
            serialize_error([], base_url=BASE, request_args={})


class TestParseFailures:
    def test_malformed_xml_reports_byte_offset(self):
        data = b"<?xml version='1.0'?>\n<OAI-PMH>\n  <unclosed\n"
        with pytest.raises(XmlParseError) as info:
            parse_response(data, "GetRecord")
        assert info.value.byte_offset > 0
        assert str(info.value.byte_offset) in str(info.value)

    def test_wrong_root_element(self):
        with pytest.raises(ProtocolMismatchError):
            parse_response(b"<html><body>salmon</body></html>", "GetRecord")

    def test_wrong_payload_verb(self):
        body = identify_body()
        with pytest.raises(ProtocolMismatchError):
            parse_response(body, "ListRecords")

    def test_unknown_expected_verb(self):
        with pytest.raises(RecordValidationError):
            parse_response(b"<x/>", "FetchEverything")

    def test_payloadless_response(self):
        data = (
            '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
            "<responseDate>2006-04-19T12:00:00Z</responseDate>"
            "<request>http://x</request></OAI-PMH>"
        )
        with pytest.raises(ProtocolMismatchError):
            parse_response(data, "GetRecord")

    def test_mixed_content_in_a_dc_element_is_refused(self):
        body = serialize_get_record(
            sample_record(),
            None,
            base_url=BASE,
            request_args={"verb": "GetRecord"},
            schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
        ).replace(b"</dc:title>", b'<b xmlns="">x</b>tail</dc:title>', 1)
        with pytest.raises(RecordValidationError, match="mixed content in DC"):
            parse_response(body, "GetRecord")


class TestScoresAndRanking:
    def test_format_score_four_decimals(self):
        assert format_score(0.0) == "0.0000"
        assert format_score(1.0) == "1.0000"
        assert format_score(0.5) == "0.5000"
        assert format_score(1 / 3) == "0.3333"
        assert format_score(2 / 3) == "0.6667"
        for bad in (-0.01, 1.01):
            with pytest.raises(RecordValidationError):
                format_score(bad)

    def test_serialized_scores_match_pattern(self):
        body = serialize_get_record(
            sample_record(),
            sample_about(),
            base_url=BASE,
            request_args={"verb": "GetRecord"},
            schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
        ).decode("utf-8")
        scores = re.findall(r'score="([^"]+)"', body)
        assert scores == ["0.9812", "0.4401"]
        assert all(re.fullmatch(r"[01]\.\d{4}", s) for s in scores)

    def test_build_similarity_about_keeps_the_stored_order(self):
        # compute's order: exact score descending, so two matches that render
        # alike may stand against identifier order; nothing is re-ranked
        matches = [
            SimilarityMatch("oai:x:c", 0.9),
            SimilarityMatch("oai:x:b", 0.04751),
            SimilarityMatch("oai:x:a", 0.04749),
        ]
        about = build_similarity_about("oai:x:subject", matches, DATE)
        assert about.matches == tuple(matches)
        assert about.subject_identifier == "oai:x:subject"
        assert about.computed_at == DATE
        body = serialize_similarity(about, DEFAULT_SIMILARITY_SCHEMA_URL)
        assert re.findall(rb'identifier="oai:x:(\w)" score="([\d.]+)"', body) == [
            (b"c", b"0.9000"),
            (b"b", b"0.0475"),
            (b"a", b"0.0475"),
        ]
        # a list out of rank order is refused, not re-ranked
        with pytest.raises(RecordValidationError):
            build_similarity_about("oai:x:subject", matches[::-1], DATE)


class TestRecordFragments:
    @settings(max_examples=60, deadline=None)
    @given(conftest.records())
    def test_fragment_round_trip(self, record):
        assert parse_record_fragment(serialize_record_fragment(record)) == record

    @settings(max_examples=60, deadline=None)
    @given(conftest.records())
    def test_fragment_is_stored_at_response_depth(self, record):
        """Without its declaration and the namespace attributes of its
        <record>, the stored file is the record as a response carries it."""
        data = serialize_record_fragment(record)
        declaration, _, document = data.partition(b"\n")
        assert declaration == b"<?xml version='1.0' encoding='utf-8'?>"
        start_tag, _, rest = document.partition(b">")
        start_tag = re.sub(rb' xmlns(:[^=]*)?="[^"]*"', b"", start_tag)
        record_bytes = start_tag + b">" + rest
        assert record_bytes.startswith(b"<record>\n      <header")
        assert record_bytes.endswith(b"\n    </record>")
        request = dict(identifier=record.identifier, metadataPrefix="oai_dc")
        get_record = serialize_get_record(
            record, None, base_url=BASE, request_args=request, schema_url="/s.xsd"
        )
        list_records = serialize_list_records(
            [record], base_url=BASE, request_args={"metadataPrefix": "oai_dc"}
        )
        assert record_bytes in get_record
        assert record_bytes in list_records

    def test_fragment_rejects_other_documents(self):
        with pytest.raises(ProtocolMismatchError):
            parse_record_fragment(b"<notarecord/>")

    def test_provenance_canonicalised_once_per_block(self, monkeypatch):
        record = sample_record()
        data = serialize_record_fragment(record)
        calls = []
        real = records.canonical_xml_block

        def counting(block):
            calls.append(block)
            return real(block)

        monkeypatch.setattr(records, "canonical_xml_block", counting)
        # the parser must leave canonicalisation to MetadataRecord
        monkeypatch.setattr(oai_xml, "canonical_xml_block", counting, raising=False)
        assert parse_record_fragment(data) == record
        assert len(calls) == len(record.provenance) == 1

    def test_text_after_a_provenance_block_is_dropped(self):
        record = sample_record()
        data = serialize_record_fragment(record).replace(
            b"</provenance:provenance>", b"</provenance:provenance> stray text"
        )
        assert parse_record_fragment(data) == record

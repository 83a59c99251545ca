"""The conformance validator: clean bodies pass, each broken rule is caught."""

import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings

import conftest
from conformance import (
    conformance_problems,
    validate_response,
    validate_similarity_container,
)
from simharvest.exceptions import ConformanceError
from simharvest.oai_xml import (
    ResumptionToken,
    serialize_error,
    serialize_get_record,
    serialize_identify,
    serialize_list_identifiers,
    serialize_list_metadata_formats,
    serialize_list_records,
    serialize_list_sets,
)
from simharvest.records import OaiError
from test_oai_xml import BASE, DATE, sample_about, sample_record

OAI = "http://www.openarchives.org/OAI/2.0/"

CLEAN_GET_RECORD = serialize_get_record(
    sample_record(),
    sample_about(),
    base_url=BASE,
    request_args={
        "verb": "GetRecord",
        "identifier": sample_record().identifier,
        "metadataPrefix": "oai_dc",
    },
    response_date=DATE,
)


def problems_for(mutate):
    """Apply one mutation to the clean GetRecord body and validate the result."""
    text = CLEAN_GET_RECORD.decode("utf-8")
    return conformance_problems(mutate(text))


class TestCleanBodiesPass:
    def test_get_record(self):
        assert conformance_problems(CLEAN_GET_RECORD) == []
        validate_response(CLEAN_GET_RECORD)

    def test_every_serializer_output_is_conformant(self, rng):
        import oracle

        records = oracle.synthetic_records(rng, 4, set_choices=("reports",))
        token = ResumptionToken("next", complete_list_size=9, cursor=0)
        bodies = [
            serialize_list_records(
                records,
                base_url=BASE,
                request_args={"verb": "ListRecords", "metadataPrefix": "oai_dc"},
                token=token,
            ),
            serialize_list_identifiers(
                records,
                base_url=BASE,
                request_args={"verb": "ListIdentifiers", "metadataPrefix": "oai_dc"},
            ),
            serialize_identify(
                {
                    "repositoryName": "x",
                    "baseURL": BASE,
                    "adminEmail": "a@example.org",
                    "earliestDatestamp": "2000-01-01",
                },
                base_url=BASE,
                request_args={"verb": "Identify"},
            ),
            serialize_list_metadata_formats(
                [
                    {
                        "metadataPrefix": "oai_dc",
                        "schema": "http://www.openarchives.org/OAI/2.0/oai_dc.xsd",
                        "metadataNamespace": "http://www.openarchives.org/OAI/2.0/oai_dc/",
                    }
                ],
                base_url=BASE,
                request_args={"verb": "ListMetadataFormats"},
            ),
            serialize_list_sets(
                [{"setSpec": "reports", "setName": "reports"}],
                base_url=BASE,
                request_args={"verb": "ListSets"},
            ),
            serialize_error(
                OaiError("noRecordsMatch", "nothing in range"),
                base_url=BASE,
                request_args={"verb": "ListRecords", "metadataPrefix": "oai_dc"},
            ),
            serialize_error(
                OaiError("badVerb", "no such verb"),
                base_url=BASE,
                request_args={"verb": "Frobnicate"},
            ),
        ]
        for body in bodies:
            assert conformance_problems(body) == [], body.decode("utf-8")[:400]

    @settings(max_examples=40, deadline=None)
    @given(conftest.record_batches(max_size=4))
    def test_random_list_pages_are_conformant(self, batch):
        body = serialize_list_records(
            batch,
            base_url=BASE,
            request_args={"verb": "ListRecords", "metadataPrefix": "oai_dc"},
        )
        assert conformance_problems(body) == []


class TestViolationsAreCaught:
    def test_not_xml(self):
        problems = conformance_problems(b"this is not xml")
        assert problems and "not well-formed" in problems[0]

    def test_wrong_root(self):
        assert conformance_problems(b"<html/>")

    def test_missing_schema_location(self):
        problems = problems_for(
            lambda text: re.sub(r'xsi:schemaLocation="[^"]*"', "", text, count=1)
        )
        assert any("schemaLocation" in p for p in problems)

    def test_bad_response_date(self):
        problems = problems_for(
            lambda text: text.replace(DATE, "last tuesday", 1)
        )
        assert any("responseDate" in p for p in problems)

    def test_unknown_error_code(self):
        body = (
            f'<OAI-PMH xmlns="{OAI}" '
            f'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
            f'xsi:schemaLocation="{OAI} http://www.openarchives.org/OAI/2.0/OAI-PMH.xsd">'
            f"<responseDate>{DATE}</responseDate>"
            f"<request>{BASE}</request>"
            '<error code="serverOnFire">oops</error></OAI-PMH>'
        )
        problems = conformance_problems(body)
        assert any("unknown code" in p for p in problems)

    def test_bad_argument_must_not_echo(self):
        body = (
            f'<OAI-PMH xmlns="{OAI}" '
            f'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
            f'xsi:schemaLocation="{OAI} http://www.openarchives.org/OAI/2.0/OAI-PMH.xsd">'
            f"<responseDate>{DATE}</responseDate>"
            f'<request verb="GetRecord">{BASE}</request>'
            '<error code="badArgument">oops</error></OAI-PMH>'
        )
        problems = conformance_problems(body)
        assert any("must not echo" in p for p in problems)

    def test_error_mixed_with_payload(self):
        body = CLEAN_GET_RECORD.decode("utf-8").replace(
            "</OAI-PMH>", '<error code="badArgument">x</error></OAI-PMH>'
        )
        assert any("mixed" in p for p in conformance_problems(body))

    def test_two_records_in_get_record(self):
        text = CLEAN_GET_RECORD.decode("utf-8")
        record = re.search(r"<record>.*</record>", text, re.S).group(0)
        problems = conformance_problems(
            text.replace(record, record + record, 1)
        )
        assert any("exactly one record" in p for p in problems)

    def test_header_status_vocabulary(self):
        problems = problems_for(
            lambda text: text.replace("<header>", '<header status="hidden">', 1)
        )
        assert any("illegal header status" in p for p in problems)

    def test_deleted_record_with_metadata(self):
        problems = problems_for(
            lambda text: text.replace("<header>", '<header status="deleted">', 1)
        )
        assert any("deleted records carry no" in p for p in problems)

    def test_metadata_required_for_live_records(self):
        problems = problems_for(
            lambda text: re.sub(r"<metadata>.*</metadata>", "", text, flags=re.S)
        )
        assert any("need a metadata part" in p for p in problems)

    def test_non_dc_element_in_payload(self):
        problems = problems_for(
            lambda text: text.replace("<dc:title>", "<dc:caption>", 1).replace(
                "</dc:title>", "</dc:caption>", 1
            )
        )
        assert any("not an unqualified DC element" in p for p in problems)

    def test_about_with_two_children(self):
        problems = problems_for(
            lambda text: text.replace(
                "</provenance:provenance>",
                "</provenance:provenance><stray xmlns='urn:x'/>",
                1,
            )
        )
        assert any("exactly one element" in p for p in problems)

    def test_five_decimal_score(self):
        problems = problems_for(
            lambda text: text.replace('score="0.9812"', 'score="0.98120"', 1)
        )
        assert any("4-decimal" in p for p in problems)

    def test_score_above_one(self):
        problems = problems_for(
            lambda text: text.replace('score="0.9812"', 'score="1.2000"', 1)
        )
        assert any("4-decimal" in p for p in problems)

    def test_increasing_scores(self):
        problems = problems_for(
            lambda text: text.replace('score="0.9812"', 'score="0.1000"', 1)
        )
        assert any("non-increasing" in p for p in problems)

    def test_subject_among_matches(self):
        problems = problems_for(
            lambda text: text.replace(
                'identifier="oai:other.example:twin"',
                'identifier="oai:ltrs.larc.nasa.gov:rdp3195.tex"',
                1,
            )
        )
        assert any("subject itself" in p for p in problems)

    def test_missing_computed_date(self):
        problems = problems_for(
            lambda text: text.replace(f'computedDate="{DATE}"', "", 1)
        )
        assert any("computedDate" in p for p in problems)

    def test_request_verb_payload_mismatch(self):
        problems = problems_for(
            lambda text: text.replace('verb="GetRecord"', 'verb="Identify"', 1)
        )
        assert any("does not match payload" in p for p in problems)

    def test_illegal_request_attribute(self):
        problems = problems_for(
            lambda text: text.replace(
                'verb="GetRecord"', 'verb="GetRecord" page="2"', 1
            )
        )
        assert any("illegal attribute" in p for p in problems)

    def test_empty_list_rejected(self):
        body = (
            f'<OAI-PMH xmlns="{OAI}" '
            f'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
            f'xsi:schemaLocation="{OAI} http://www.openarchives.org/OAI/2.0/OAI-PMH.xsd">'
            f"<responseDate>{DATE}</responseDate>"
            f'<request verb="ListRecords">{BASE}</request>'
            "<ListRecords/></OAI-PMH>"
        )
        problems = conformance_problems(body)
        assert any("noRecordsMatch" in p for p in problems)

    def test_non_integer_token_attributes(self):
        body = (
            f'<OAI-PMH xmlns="{OAI}" '
            f'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
            f'xsi:schemaLocation="{OAI} http://www.openarchives.org/OAI/2.0/OAI-PMH.xsd">'
            f"<responseDate>{DATE}</responseDate>"
            f'<request verb="ListIdentifiers" metadataPrefix="oai_dc">{BASE}</request>'
            "<ListIdentifiers><header><identifier>oai:x:1</identifier>"
            "<datestamp>2001-01-01</datestamp></header>"
            '<resumptionToken completeListSize="many">t</resumptionToken>'
            "</ListIdentifiers></OAI-PMH>"
        )
        problems = conformance_problems(body)
        assert any("not an integer" in p for p in problems)

    def test_identify_out_of_order(self):
        body = (
            f'<OAI-PMH xmlns="{OAI}" '
            f'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
            f'xsi:schemaLocation="{OAI} http://www.openarchives.org/OAI/2.0/OAI-PMH.xsd">'
            f"<responseDate>{DATE}</responseDate>"
            f'<request verb="Identify">{BASE}</request>'
            f"<Identify><baseURL>{BASE}</baseURL>"
            "<repositoryName>x</repositoryName>"
            "<protocolVersion>2.0</protocolVersion>"
            "<adminEmail>a@example.org</adminEmail>"
            "<earliestDatestamp>2000-01-01</earliestDatestamp>"
            "<deletedRecord>transient</deletedRecord>"
            "<granularity>YYYY-MM-DD</granularity></Identify></OAI-PMH>"
        )
        problems = conformance_problems(body)
        assert any("out of schema order" in p for p in problems)

    def test_identify_missing_required_field(self):
        body = serialize_identify(
            {
                "repositoryName": "x",
                "baseURL": BASE,
                "adminEmail": "a@example.org",
                "earliestDatestamp": "2000-01-01",
            },
            base_url=BASE,
            request_args={"verb": "Identify"},
        ).decode("utf-8")
        problems = conformance_problems(
            re.sub(r"<granularity>[^<]*</granularity>", "", body)
        )
        assert any("missing granularity" in p for p in problems)

    def test_identify_bad_protocol_version(self):
        body = serialize_identify(
            {
                "repositoryName": "x",
                "baseURL": BASE,
                "protocolVersion": "1.1",
                "adminEmail": "a@example.org",
                "earliestDatestamp": "2000-01-01",
            },
            base_url=BASE,
            request_args={"verb": "Identify"},
        )
        problems = conformance_problems(body)
        assert any("protocolVersion must be 2.0" in p for p in problems)


class TestValidateHelpers:
    def test_validate_response_raises_with_problem_list(self):
        with pytest.raises(ConformanceError) as info:
            validate_response(b"<html/>")
        assert info.value.problems

    def test_validate_similarity_container(self):
        element = ET.fromstring(
            '<similarity xmlns="urn:simharvest:similarity" '
            f'subject="oai:x:1" computedDate="{DATE}">'
            '<match identifier="oai:x:2" score="0.5000"/></similarity>'
        )
        validate_similarity_container(element)
        bad = ET.fromstring(
            '<similarity xmlns="urn:simharvest:similarity" '
            f'subject="oai:x:1" computedDate="{DATE}">'
            '<match identifier="oai:x:2" score="0.5"/></similarity>'
        )
        with pytest.raises(ConformanceError):
            validate_similarity_container(bad)

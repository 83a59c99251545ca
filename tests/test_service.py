"""Provider tests: every verb exercised through the WSGI surface.

Each protocol response is checked against the wire-format validator before
being parsed, so these tests double as end-to-end conformance coverage of
the served XML.
"""

import dataclasses
import io
import os
import random
import re
import sys
import tempfile
import threading
import xml.etree.ElementTree as ET
from unittest import mock
from urllib.parse import urlencode, urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
import oracle
from conformance import (
    conformance_problems,
    provider_problems,
    similarity_containers,
    validate_similarity_container,
)
from mock_upstream import http_server
from simharvest import cli, oai_xml
from simharvest import pipeline as pipeline_module
from simharvest import service as service_module
from simharvest import store as store_module
from simharvest.exceptions import (
    PathCollisionError,
    SimHarvestError,
    StalenessError,
    XmlParseError,
)
from simharvest.harvester import HarvestSession, harvest
from simharvest.oai_xml import (
    DC_NS,
    OAI_NS,
    SIMILARITY_NS,
    build_similarity_about,
    parse_response,
    serialize_record_fragment,
)
from simharvest.pipeline import (
    check_results_fresh,
    compute_store,
    index_store,
    load_top_matches,
    read_compute_meta,
)
from simharvest.records import MetadataRecord
from simharvest.service import (
    DuplicatePair,
    OaiProvider,
    ProviderConfig,
    duplicate_report,
    similarity_schema_text,
)
from simharvest.store import RecordStore

BASE = "http://aggregator.example/oai"

PROVENANCE_NS = "http://www.openarchives.org/OAI/2.0/provenance"


def wsgi_call(app, method="GET", path="/", query="", post_body="", **overrides):
    """One WSGI request; overrides replace environ entries."""
    body_bytes = post_body.encode("utf-8")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(body_bytes)),
        "CONTENT_TYPE": "application/x-www-form-urlencoded",
        "wsgi.input": io.BytesIO(body_bytes),
        "wsgi.errors": io.StringIO(),
        "wsgi.url_scheme": "http",
        "SERVER_NAME": "testserver",
        "SERVER_PORT": "80",
        "SERVER_PROTOCOL": "HTTP/1.1",
        **overrides,
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    return captured["status"], captured["headers"], b"".join(chunks)


def protocol_body(provider, args, method="GET"):
    """One protocol request; asserts HTTP 200 and XML content type."""
    if method == "POST":
        status, headers, body = wsgi_call(
            provider, method="POST", post_body=urlencode(args)
        )
    else:
        status, headers, body = wsgi_call(provider, query=urlencode(args))
    assert status == "200 OK"
    assert headers["Content-Type"] == "text/xml; charset=utf-8"
    return body


def vetted(provider, args, method="GET"):
    """Request one protocol response and return its conformant body."""
    body = protocol_body(provider, args, method=method)
    assert provider_problems(body) == []
    return body


def checked(provider, expected_verb, args, method="GET"):
    """Request, validate conformance, and parse one protocol response."""
    return parse_response(vetted(provider, args, method=method), expected_verb)


def oai(tag):
    return f"{{{OAI_NS}}}{tag}"


def payload(provider, verb, extra=None):
    """The <verb> element of one vetted response."""
    body = vetted(provider, {"verb": verb, **(extra or {})})
    return ET.fromstring(body).find(oai(verb))


def error_codes(parsed):
    return [error.code for error in parsed.errors]


def echoed(body):
    """The request arguments a response echoes in its <request> element."""
    return ET.fromstring(body).find(oai("request")).attrib


def token_of(body, verb):
    """(text, completeListSize, cursor) of a list page's resumptionToken."""
    token = ET.fromstring(body).find(oai(verb)).find(oai("resumptionToken"))
    return token.text or "", token.get("completeListSize"), token.get("cursor")


def provenance_block(base_url, names_identifier):
    return (
        f'<provenance xmlns="{PROVENANCE_NS}">'
        '<originDescription harvestDate="2005-01-01T00:00:00Z" altered="false">'
        f"<baseURL>{base_url}</baseURL>"
        f"<identifier>{names_identifier}</identifier>"
        "</originDescription></provenance>"
    )


@pytest.fixture(scope="module")
def corpus_store(tmp_path_factory):
    """Ten live records with controlled datestamps and sets, plus one deleted."""
    store = RecordStore(tmp_path_factory.mktemp("service") / "store")
    rng = random.Random(77)
    for i, record in enumerate(oracle.synthetic_records(rng, 10)):
        store.put_record(
            dataclasses.replace(
                record,
                datestamp=f"2000-01-{i + 1:02d}T00:00:00Z",
                set_specs=("aero",) if i % 2 == 0 else ("struct",),
            )
        )
    store.put_record(
        MetadataRecord(
            identifier="oai:repo.example:zz-gone",
            datestamp="2000-01-20T00:00:00Z",
            deleted=True,
        )
    )
    index_store(store)
    compute_store(store, k=10)
    return store


@pytest.fixture(scope="module")
def provider(corpus_store):
    config = ProviderConfig(
        repository_name="test aggregator",
        base_url=BASE,
        admin_email="oai@aggregator.example",
        k=5,
        page_size=4,
    )
    return OaiProvider(corpus_store, config)


LIVE_IDS = [f"oai:repo.example:item{i:05d}" for i in range(10)]
ALL_IDS = LIVE_IDS + ["oai:repo.example:zz-gone"]
# no file name derived from these fits in 255 bytes, so none can be stored
too_long_ids = pytest.mark.parametrize(
    "identifier",
    ["oai:repo.example:" + "a" * length for length in (300, 5000)],
    ids=("300", "5000"),
)


class TestIdentify:
    def test_round_trip(self, provider):
        info = payload(provider, "Identify")
        assert info.findtext(oai("repositoryName")) == "test aggregator"
        assert info.findtext(oai("baseURL")) == BASE
        assert info.findtext(oai("protocolVersion")) == "2.0"
        assert [e.text for e in info.findall(oai("adminEmail"))] == [
            "oai@aggregator.example"
        ]
        assert info.findtext(oai("earliestDatestamp")) == "2000-01-01T00:00:00Z"
        assert info.findtext(oai("deletedRecord")) == "transient"
        assert info.findtext(oai("granularity")) == "YYYY-MM-DDThh:mm:ssZ"

    def test_empty_store_uses_epoch_floor(self, tmp_path):
        empty = OaiProvider(RecordStore(tmp_path / "s"), ProviderConfig(base_url=BASE))
        info = payload(empty, "Identify")
        assert info.findtext(oai("earliestDatestamp")) == "1970-01-01T00:00:00Z"

    def test_date_only_earliest_is_widened(self, tmp_path):
        store = RecordStore(tmp_path / "s")
        store.put_record(
            MetadataRecord("oai:d.example:1", "2003-04-05", dc_fields=(("title", "x"),))
        )
        info = payload(OaiProvider(store, ProviderConfig(base_url=BASE)), "Identify")
        assert info.findtext(oai("earliestDatestamp")) == "2003-04-05T00:00:00Z"


class TestListMetadataFormats:
    @staticmethod
    def prefixes(formats):
        return [
            f.findtext(oai("metadataPrefix"))
            for f in formats.iter(oai("metadataFormat"))
        ]

    def test_repository_wide(self, provider):
        formats = payload(provider, "ListMetadataFormats")
        assert self.prefixes(formats) == ["oai_dc"]

    def test_per_item(self, provider):
        formats = payload(
            provider, "ListMetadataFormats", {"identifier": LIVE_IDS[0]}
        )
        assert self.prefixes(formats) == ["oai_dc"]

    def test_unknown_identifier(self, provider):
        parsed = checked(
            provider,
            "ListMetadataFormats",
            {"verb": "ListMetadataFormats", "identifier": "oai:repo.example:nope"},
        )
        assert error_codes(parsed) == ["idDoesNotExist"]

    @too_long_ids
    def test_identifier_too_long_to_store(self, provider, identifier):
        parsed = checked(
            provider,
            "ListMetadataFormats",
            {"verb": "ListMetadataFormats", "identifier": identifier},
        )
        assert error_codes(parsed) == ["idDoesNotExist"]


class TestListSets:
    def test_sets_served(self, provider):
        sets = payload(provider, "ListSets")
        assert [s.findtext(oai("setSpec")) for s in sets.iter(oai("set"))] == [
            "aero",
            "struct",
        ]

    def test_no_set_hierarchy_when_empty(self, tmp_path):
        empty = OaiProvider(RecordStore(tmp_path / "s"), ProviderConfig(base_url=BASE))
        parsed = checked(empty, "ListSets", {"verb": "ListSets"})
        assert error_codes(parsed) == ["noSetHierarchy"]

    def test_any_token_is_a_bad_resumption_token(self, provider):
        # the set list is one page, so no ListSets token was ever issued
        body = vetted(provider, {"verb": "ListSets", "resumptionToken": "bogus"})
        parsed = parse_response(body, "ListSets")
        assert error_codes(parsed) == ["badResumptionToken"]
        assert echoed(body) == {"verb": "ListSets", "resumptionToken": "bogus"}


def walk_bodies(provider, verb, extra=None):
    """Follow resumption tokens to exhaustion, returning every vetted page."""
    args = {"verb": verb, "metadataPrefix": "oai_dc", **(extra or {})}
    bodies = [vetted(provider, args)]
    token = parse_response(bodies[-1], verb).token
    while token is not None and token.text:
        bodies.append(vetted(provider, {"verb": verb, "resumptionToken": token.text}))
        token = parse_response(bodies[-1], verb).token
    return bodies


def walk(provider, verb, extra=None):
    """Follow resumption tokens to exhaustion, returning every parsed page."""
    return [parse_response(body, verb) for body in walk_bodies(provider, verb, extra)]


def header_ids(body):
    """The header identifiers of one page, in document order."""
    return [
        header.findtext(oai("identifier"))
        for header in ET.fromstring(body).iter(oai("header"))
    ]


class TestListVerbsPaging:
    @pytest.mark.parametrize("verb", ["ListRecords", "ListIdentifiers"])
    def test_full_walk(self, provider, verb):
        bodies = walk_bodies(provider, verb)
        assert [len(header_ids(body)) for body in bodies] == [4, 4, 3]
        harvested = [i for body in bodies for i in header_ids(body)]
        assert harvested == ALL_IDS
        tokens = [token_of(body, verb) for body in bodies]
        assert [(size, cursor) for _, size, cursor in tokens] == [
            ("11", "0"),
            ("11", "4"),
            ("11", "8"),
        ]
        assert tokens[2][0] == ""

    def test_list_records_round_trips_content(self, provider, corpus_store):
        pages = walk(provider, "ListRecords")
        for page in pages:
            for record in page.records:
                assert record == corpus_store.get_record(record.identifier)

    def test_list_identifiers_is_header_only(self, provider):
        bodies = walk_bodies(provider, "ListIdentifiers")
        elements = [e for body in bodies for e in ET.fromstring(body).iter()]
        assert not any(e.tag.startswith(f"{{{DC_NS}}}") for e in elements)
        deleted = [
            e.findtext(oai("identifier"))
            for e in elements
            if e.tag == oai("header") and e.get("status") == "deleted"
        ]
        assert deleted == ["oai:repo.example:zz-gone"]

    def test_datestamp_window(self, provider):
        bodies = walk_bodies(
            provider,
            "ListIdentifiers",
            extra={"from": "2000-01-05", "until": "2000-01-08"},
        )
        harvested = [i for body in bodies for i in header_ids(body)]
        assert harvested == LIVE_IDS[4:8]

    def test_set_filter_pages_too(self, provider):
        bodies = walk_bodies(provider, "ListRecords", extra={"set": "aero"})
        pages = [parse_response(body, "ListRecords") for body in bodies]
        harvested = [r.identifier for page in pages for r in page.records]
        assert harvested == LIVE_IDS[0::2]
        assert [len(page.records) for page in pages] == [4, 1]
        assert token_of(bodies[0], "ListRecords")[1] == "5"

    def test_last_page_carries_an_empty_token(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        for record in oracle.synthetic_records(random.Random(5), 5):
            store.put_record(record)
        small = OaiProvider(store, ProviderConfig(base_url=BASE, page_size=2))
        bodies = walk_bodies(small, "ListRecords")
        assert [len(header_ids(body)) for body in bodies] == [2, 2, 1]
        assert token_of(bodies[2], "ListRecords") == ("", "5", "4")

        def fetch(url, headers):
            status, _, body = wsgi_call(small, query=urlsplit(url).query)
            return int(status.split()[0]), {}, body

        report = harvest(HarvestSession(base_url=BASE), lambda record: None, fetch=fetch)
        assert report.pages_fetched == 3
        assert report.records_received == 5

    def test_no_records_match(self, provider):
        body = vetted(
            provider,
            {
                "verb": "ListRecords",
                "metadataPrefix": "oai_dc",
                "from": "1999-01-01",
                "until": "1999-12-31",
            },
        )
        assert error_codes(parse_response(body, "ListRecords")) == ["noRecordsMatch"]
        assert echoed(body)["from"] == "1999-01-01"

    def test_unknown_set_is_no_records_match(self, provider):
        parsed = checked(
            provider,
            "ListIdentifiers",
            {"verb": "ListIdentifiers", "metadataPrefix": "oai_dc", "set": "nope"},
        )
        assert error_codes(parsed) == ["noRecordsMatch"]

    @pytest.mark.parametrize("verb", ["ListRecords", "ListIdentifiers"])
    def test_empty_set_is_a_bad_argument(self, provider, verb):
        parsed = checked(
            provider, verb, {"verb": verb, "metadataPrefix": "oai_dc", "set": ""}
        )
        assert error_codes(parsed) == ["badArgument"]
        assert "set must be non-empty" in parsed.errors[0].message

    @pytest.mark.parametrize("verb", ["ListRecords", "ListIdentifiers"])
    def test_set_on_a_store_without_sets(self, mutable, verb):
        _, provider = mutable
        parsed = checked(
            provider, verb, {"verb": verb, "metadataPrefix": "oai_dc", "set": "aero"}
        )
        assert error_codes(parsed) == ["noSetHierarchy"]


class TestResumptionTokenRejection:
    def test_malformed_token(self, provider):
        parsed = checked(
            provider,
            "ListRecords",
            {"verb": "ListRecords", "resumptionToken": "garbage"},
        )
        assert error_codes(parsed) == ["badResumptionToken"]
        assert "malformed" in parsed.errors[0].message

    def test_non_numeric_offset(self, provider):
        parsed = checked(
            provider,
            "ListRecords",
            {"verb": "ListRecords", "resumptionToken": "1!abcd1234!x!!!"},
        )
        assert error_codes(parsed) == ["badResumptionToken"]
        assert "malformed" in parsed.errors[0].message

    def test_non_ascii_digit_offset(self, provider, corpus_store):
        # '\u00b2'.isdigit() is True, but int() refuses it
        parsed = checked(
            provider,
            "ListRecords",
            {
                "verb": "ListRecords",
                "resumptionToken": f"{corpus_store.epoch()}!00000000!\u00b2!!!",
            },
        )
        assert error_codes(parsed) == ["badResumptionToken"]
        assert "malformed" in parsed.errors[0].message

    def test_tampered_filters(self, provider):
        token = walk(provider, "ListRecords")[0].token.text
        parts = token.split("!")
        parts[5] = "struct"  # claim a set filter the digest never covered
        parsed = checked(
            provider,
            "ListRecords",
            {"verb": "ListRecords", "resumptionToken": "!".join(parts)},
        )
        assert error_codes(parsed) == ["badResumptionToken"]
        assert "tampered" in parsed.errors[0].message

    def test_cursor_out_of_range(self, provider, corpus_store):
        token = provider._encode_token(999, (None, None, None), corpus_store.epoch())
        parsed = checked(
            provider,
            "ListIdentifiers",
            {"verb": "ListIdentifiers", "resumptionToken": token},
        )
        assert error_codes(parsed) == ["badResumptionToken"]
        assert "out of range" in parsed.errors[0].message

    @pytest.mark.parametrize(
        "filters, problem",
        [
            (("bogus", None, None), "bad from datestamp 'bogus'"),
            (("2000-01-01", "2000-12-31T00:00:00Z", None), "same granularity"),
        ],
    )
    def test_forged_filters(self, provider, corpus_store, filters, problem):
        # the filter digest is unkeyed, so a client can forge a matching one
        token = provider._encode_token(4, filters, corpus_store.epoch())
        parsed = checked(
            provider,
            "ListRecords",
            {"verb": "ListRecords", "resumptionToken": token},
        )
        assert error_codes(parsed) == ["badResumptionToken"]
        assert problem in parsed.errors[0].message


class TestGetRecord:
    def test_record_round_trips(self, provider, corpus_store):
        identifier = LIVE_IDS[3]
        parsed = checked(
            provider,
            "GetRecord",
            {"verb": "GetRecord", "metadataPrefix": "oai_dc", "identifier": identifier},
        )
        assert parsed.records[0] == corpus_store.get_record(identifier)

    def test_about_matches_stored_ranking(self, provider, corpus_store):
        identifier = LIVE_IDS[0]
        meta = read_compute_meta(corpus_store)
        expected = build_similarity_about(
            identifier,
            load_top_matches(corpus_store, identifier, 5),
            meta["computed_at"],
        )
        body = vetted(
            provider,
            {"verb": "GetRecord", "metadataPrefix": "oai_dc", "identifier": identifier},
        )
        about = similarity_containers(body)[identifier]
        assert about == expected
        assert len(about.matches) == 5  # config caps below the stored depth
        scores = [match.score for match in about.matches]
        assert scores == sorted(scores, reverse=True)

    def test_every_live_record_gets_about(self, provider):
        for identifier in LIVE_IDS:
            body = vetted(
                provider,
                {
                    "verb": "GetRecord",
                    "metadataPrefix": "oai_dc",
                    "identifier": identifier,
                },
            )
            assert identifier in similarity_containers(body)

    def test_deleted_record_is_header_only(self, provider):
        body = vetted(
            provider,
            {
                "verb": "GetRecord",
                "metadataPrefix": "oai_dc",
                "identifier": "oai:repo.example:zz-gone",
            },
        )
        assert parse_response(body, "GetRecord").records[0].deleted
        assert similarity_containers(body) == {}

    def test_unknown_identifier(self, provider):
        parsed = checked(
            provider,
            "GetRecord",
            {
                "verb": "GetRecord",
                "metadataPrefix": "oai_dc",
                "identifier": "oai:repo.example:nope",
            },
        )
        assert error_codes(parsed) == ["idDoesNotExist"]

    @too_long_ids
    def test_identifier_too_long_to_store(self, provider, identifier):
        parsed = checked(
            provider,
            "GetRecord",
            {"verb": "GetRecord", "metadataPrefix": "oai_dc", "identifier": identifier},
        )
        assert error_codes(parsed) == ["idDoesNotExist"]

    def test_one_freshness_check_per_request(self, provider, monkeypatch):
        checks = []

        def counting(store):
            checks.append(store)
            return check_results_fresh(store)

        monkeypatch.setattr(service_module, "check_results_fresh", counting)
        monkeypatch.setattr(pipeline_module, "check_results_fresh", counting)
        body = vetted(
            provider,
            {"verb": "GetRecord", "metadataPrefix": "oai_dc", "identifier": LIVE_IDS[2]},
        )
        assert LIVE_IDS[2] in similarity_containers(body)
        assert len(checks) == 1
        status, _, _ = wsgi_call(
            provider, path="/similar", query=urlencode({"identifier": LIVE_IDS[2]})
        )
        assert status == "200 OK"
        assert len(checks) == 2

    def test_post_equals_get(self, provider):
        args = {
            "verb": "GetRecord",
            "metadataPrefix": "oai_dc",
            "identifier": LIVE_IDS[1],
        }
        via_get = vetted(provider, args)
        via_post = vetted(provider, args, method="POST")
        assert (
            parse_response(via_post, "GetRecord").records
            == parse_response(via_get, "GetRecord").records
        )
        assert similarity_containers(via_post) == similarity_containers(via_get)


class TestArgumentPolicing:
    def test_unknown_verb(self, provider):
        body = vetted(provider, {"verb": "Frobnicate"})
        assert error_codes(parse_response(body, "GetRecord")) == ["badVerb"]
        assert echoed(body) == {}  # echo suppressed

    def test_missing_verb(self, provider):
        parsed = checked(provider, "GetRecord", {})
        assert error_codes(parsed) == ["badVerb"]

    def test_missing_required_argument(self, provider):
        body = vetted(provider, {"verb": "ListRecords"})
        parsed = parse_response(body, "ListRecords")
        assert error_codes(parsed) == ["badArgument"]
        assert "metadataPrefix" in parsed.errors[0].message
        assert echoed(body) == {}

    def test_unexpected_argument(self, provider):
        parsed = checked(provider, "Identify", {"verb": "Identify", "set": "aero"})
        assert error_codes(parsed) == ["badArgument"]

    def test_repeated_argument(self, provider):
        status, headers, body = wsgi_call(
            provider, query="verb=ListRecords&metadataPrefix=oai_dc&metadataPrefix=oai_dc"
        )
        assert status == "200 OK"
        assert conformance_problems(body) == []
        parsed = parse_response(body, "ListRecords")
        assert error_codes(parsed) == ["badArgument"]
        assert "repeated" in parsed.errors[0].message

    def test_repeated_verb_is_a_bad_verb(self, provider):
        # OAI-PMH 2.0 section 3.6: badVerb covers a repeated verb argument
        status, _, body = wsgi_call(provider, query="verb=Identify&verb=Identify")
        assert status == "200 OK"
        assert conformance_problems(body) == []
        parsed = parse_response(body, "Identify")
        assert error_codes(parsed) == ["badVerb"]
        assert "repeated" in parsed.errors[0].message

    def test_token_must_travel_alone(self, provider):
        parsed = checked(
            provider,
            "ListRecords",
            {
                "verb": "ListRecords",
                "resumptionToken": "anything",
                "from": "2000-01-01",
            },
        )
        assert error_codes(parsed) == ["badArgument"]

    def test_bad_datestamp(self, provider):
        parsed = checked(
            provider,
            "ListRecords",
            {"verb": "ListRecords", "metadataPrefix": "oai_dc", "from": "20000105"},
        )
        assert error_codes(parsed) == ["badArgument"]

    def test_mixed_granularity(self, provider):
        parsed = checked(
            provider,
            "ListIdentifiers",
            {
                "verb": "ListIdentifiers",
                "metadataPrefix": "oai_dc",
                "from": "2000-01-01",
                "until": "2000-12-31T00:00:00Z",
            },
        )
        assert error_codes(parsed) == ["badArgument"]
        assert "same granularity" in parsed.errors[0].message

    def test_multiple_errors_reported_together(self, provider):
        parsed = checked(
            provider,
            "ListRecords",
            {"verb": "ListRecords", "metadataPrefix": "oai_dc", "from": "bad", "x": "1"},
        )
        assert sorted(error_codes(parsed)) == ["badArgument", "badArgument"]

    def test_unsupported_prefix(self, provider):
        body = vetted(
            provider,
            {
                "verb": "GetRecord",
                "metadataPrefix": "marcxml",
                "identifier": LIVE_IDS[0],
            },
        )
        parsed = parse_response(body, "GetRecord")
        assert error_codes(parsed) == ["cannotDisseminateFormat"]
        assert echoed(body)["metadataPrefix"] == "marcxml"  # echo kept


class TestAuxiliaryRoutes:
    def test_schema_served(self, provider):
        status, headers, body = wsgi_call(provider, path="/schema/similarity.xsd")
        assert status == "200 OK"
        assert headers["Content-Type"] == "text/xml; charset=utf-8"
        assert body == similarity_schema_text().encode("utf-8")
        ET.fromstring(body)  # well-formed

    def test_similar_endpoint(self, provider):
        status, headers, body = wsgi_call(
            provider, path="/similar", query=urlencode({"identifier": LIVE_IDS[0]})
        )
        assert status == "200 OK"
        assert headers["Content-Type"] == "text/xml; charset=utf-8"
        element = ET.fromstring(body)
        assert element.tag == f"{{{SIMILARITY_NS}}}similarity"
        assert element.get("subject") == LIVE_IDS[0]
        validate_similarity_container(element)
        assert len(list(element)) == 5

    def test_similar_k_override(self, provider):
        status, _, body = wsgi_call(
            provider, path="/similar", query=urlencode({"identifier": LIVE_IDS[0], "k": "2"})
        )
        assert status == "200 OK"
        assert len(list(ET.fromstring(body))) == 2

    @pytest.mark.parametrize(
        "query",
        [
            "",
            "identifier=",
            "identifier=a&identifier=b",
            "identifier=oai:repo.example:item00000&k=-1",
            "identifier=oai:repo.example:item00000&k=abc",
            # int() takes each of these: '٥', '3_0', '+3' and ' 3'
            "identifier=oai:repo.example:item00000&k=%D9%A5",
            "identifier=oai:repo.example:item00000&k=3_0",
            "identifier=oai:repo.example:item00000&k=%2B3",
            "identifier=oai:repo.example:item00000&k=%203",
        ],
    )
    def test_similar_bad_requests(self, provider, query):
        status, headers, _ = wsgi_call(provider, path="/similar", query=query)
        assert status == "400 Bad Request"
        assert headers["Content-Type"].startswith("text/plain")

    def test_similar_unknown_identifier(self, provider):
        status, _, body = wsgi_call(
            provider, path="/similar", query="identifier=oai:repo.example:nope"
        )
        assert status == "404 Not Found"
        assert b"unknown identifier" in body

    def test_similar_deleted_record(self, provider):
        # GetRecord serves it header-only, so /similar has no matches to give
        status, _, body = wsgi_call(
            provider, path="/similar", query="identifier=oai:repo.example:zz-gone"
        )
        assert status == "404 Not Found"
        assert b"deleted" in body

    @too_long_ids
    def test_similar_identifier_too_long_to_store(self, provider, identifier):
        status, _, body = wsgi_call(
            provider, path="/similar", query=urlencode({"identifier": identifier})
        )
        assert status == "404 Not Found"
        assert b"unknown identifier" in body

    def test_negative_content_length_reads_nothing(self, provider):
        class ClientStream(io.BytesIO):
            def read(self, size=-1):
                # the client holds the connection open: a negative size
                # would wait for it to close
                assert size >= 0, f"read({size})"
                return super().read(size)

        status, _, body = wsgi_call(
            provider,
            method="POST",
            CONTENT_LENGTH="-1",
            **{"wsgi.input": ClientStream(b"verb=Identify")},
        )
        assert status == "200 OK"
        assert error_codes(parse_response(body, "Identify")) == ["badVerb"]

    def test_other_methods_rejected(self, provider):
        status, headers, _ = wsgi_call(provider, method="PUT", query="verb=Identify")
        assert status == "405 Method Not Allowed"
        assert headers["Allow"] == "GET, POST"

    def test_config_validation(self):
        with pytest.raises(SimHarvestError):
            ProviderConfig(k=-1)
        with pytest.raises(SimHarvestError):
            ProviderConfig(page_size=0)


class TestOneRanking:
    """GetRecord's <about>, /similar, `simharvest top` and the top file list
    each subject's matches in one order: compute's, by exact score."""

    @pytest.fixture(scope="class")
    def ranked_store(self, tmp_path_factory):
        # seed 12 puts two matches with equal four-decimal scores in an
        # order that runs against identifier order
        store = RecordStore(tmp_path_factory.mktemp("ranking") / "store")
        for record in oracle.synthetic_records(random.Random(12), 10):
            store.put_record(record)
        index_store(store)
        compute_store(store, k=10)
        return store

    @staticmethod
    def matches(body: bytes) -> list[tuple[str, str]]:
        element = ET.fromstring(body)
        return [
            (match.get("identifier"), match.get("score"))
            for match in element.iter(f"{{{SIMILARITY_NS}}}match")
        ]

    def test_four_lists_agree_for_every_subject(self, ranked_store, capsys):
        provider = OaiProvider(ranked_store, ProviderConfig(base_url=BASE, k=10))
        root = str(ranked_store.root)
        against_id_order = 0
        for identifier in ranked_store.list_identifiers():
            text = ranked_store.top_path(identifier).read_text(encoding="utf-8")
            top_file = [tuple(line.split("\t")) for line in text.splitlines()]
            against_id_order += sum(
                a[1] == b[1] and a[0] > b[0] for a, b in zip(top_file, top_file[1:])
            )
            get_record = self.matches(
                vetted(
                    provider,
                    {
                        "verb": "GetRecord",
                        "metadataPrefix": "oai_dc",
                        "identifier": identifier,
                    },
                )
            )
            status, _, body = wsgi_call(
                provider, path="/similar", query=urlencode({"identifier": identifier})
            )
            assert status == "200 OK"
            capsys.readouterr()
            assert cli.main(["top", "--identifier", identifier, "--store", root]) == 0
            out = capsys.readouterr().out
            top = [tuple(line.split("\t")) for line in out.splitlines()]
            assert len(top_file) == 9
            assert get_record == top_file
            assert self.matches(body) == top_file
            assert top == top_file
        assert against_id_order > 0  # the corpus still holds the case


@pytest.fixture
def mutable(tmp_path):
    """Small fresh store whose collection the test is allowed to change."""
    store = RecordStore(tmp_path / "store")
    rng = random.Random(5)
    for record in oracle.synthetic_records(rng, 4, id_prefix="oai:m.example:rec"):
        store.put_record(record)
    index_store(store)
    compute_store(store, k=3)
    provider = OaiProvider(store, ProviderConfig(base_url=BASE, k=3, page_size=2))
    return store, provider


def get_record_about(provider, identifier):
    body = vetted(
        provider,
        {"verb": "GetRecord", "metadataPrefix": "oai_dc", "identifier": identifier},
    )
    return similarity_containers(body).get(identifier)


class TestCollectionChange:
    def test_new_record_drops_about_until_recompute(self, mutable):
        store, provider = mutable
        subject = "oai:m.example:rec00000"
        assert get_record_about(provider, subject) is not None

        store.put_record(
            MetadataRecord(
                identifier="oai:m.example:late",
                datestamp="2006-01-01T00:00:00Z",
                dc_fields=(("title", "late arrival"),),
            )
        )
        assert get_record_about(provider, subject) is None

        index_store(store)
        compute_store(store, k=3)
        assert get_record_about(provider, subject) is not None

    def test_similar_conflicts_while_stale(self, mutable):
        store, provider = mutable
        store.put_record(
            MetadataRecord(
                identifier="oai:m.example:late",
                datestamp="2006-01-01T00:00:00Z",
                dc_fields=(("title", "late arrival"),),
            )
        )
        status, _, body = wsgi_call(
            provider, path="/similar", query="identifier=oai:m.example:rec00000"
        )
        assert status == "409 Conflict"
        assert b"stale" in body

    def test_duplicate_report_refuses_stale_results(self, mutable):
        store, _ = mutable
        store.put_record(
            MetadataRecord(
                identifier="oai:m.example:late",
                datestamp="2006-01-01T00:00:00Z",
                dc_fields=(("title", "late arrival"),),
            )
        )
        with pytest.raises(StalenessError):
            list(duplicate_report(store, 0.5))

    def test_collection_change_invalidates_tokens(self, mutable):
        store, provider = mutable
        token = checked(
            provider,
            "ListRecords",
            {"verb": "ListRecords", "metadataPrefix": "oai_dc"},
        ).token.text
        store.put_record(
            MetadataRecord(
                identifier="oai:m.example:late",
                datestamp="2006-01-01T00:00:00Z",
                dc_fields=(("title", "late arrival"),),
            )
        )
        parsed = checked(
            provider,
            "ListRecords",
            {"verb": "ListRecords", "resumptionToken": token},
        )
        assert error_codes(parsed) == ["badResumptionToken"]
        assert "collection changed" in parsed.errors[0].message

    def test_token_is_pinned_to_its_page_epoch(self, mutable, monkeypatch):
        store, provider = mutable
        encode = provider._encode_token

        def encode_after_a_harvest(*args):
            # a harvest lands between the listing and the token
            store.put_record(
                MetadataRecord(
                    identifier="oai:m.example:late",
                    datestamp="2006-01-01T00:00:00Z",
                    dc_fields=(("title", "late arrival"),),
                )
            )
            monkeypatch.setattr(provider, "_encode_token", encode)
            return encode(*args)

        monkeypatch.setattr(provider, "_encode_token", encode_after_a_harvest)
        token = checked(
            provider,
            "ListIdentifiers",
            {"verb": "ListIdentifiers", "metadataPrefix": "oai_dc"},
        ).token.text
        parsed = checked(
            provider,
            "ListIdentifiers",
            {"verb": "ListIdentifiers", "resumptionToken": token},
        )
        assert error_codes(parsed) == ["badResumptionToken"]
        assert "collection changed" in parsed.errors[0].message

    def test_before_any_compute(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        rng = random.Random(6)
        for record in oracle.synthetic_records(rng, 3, id_prefix="oai:n.example:rec"):
            store.put_record(record)
        index_store(store)
        provider = OaiProvider(store, ProviderConfig(base_url=BASE))
        assert get_record_about(provider, "oai:n.example:rec00000") is None
        status, _, _ = wsgi_call(
            provider, path="/similar", query="identifier=oai:n.example:rec00000"
        )
        assert status == "409 Conflict"


@pytest.fixture(scope="module")
def dup_store(tmp_path_factory):
    """Two origins plus one cross-referenced pair of identical records."""
    store = RecordStore(tmp_path_factory.mktemp("dup") / "store")
    rng = random.Random(101)
    for record in oracle.synthetic_records(
        rng, 3, id_prefix="oai:a.example:doc", origin_url="http://a.example/oai"
    ):
        store.put_record(record)
    for record in oracle.synthetic_records(
        rng, 3, id_prefix="oai:b.example:doc", origin_url="http://b.example/oai"
    ):
        store.put_record(record)
    shared = (
        ("title", "Reentry heating analysis"),
        ("description", "boundary layer transition heating during reentry"),
    )
    store.put_record(
        MetadataRecord(
            identifier="oai:x.example:dup",
            datestamp="2005-05-05T05:05:05Z",
            dc_fields=shared,
            provenance=(
                provenance_block("http://x.example/oai", "oai:y.example:dup"),
            ),
        )
    )
    store.put_record(
        MetadataRecord(
            identifier="oai:y.example:dup",
            datestamp="2005-05-05T05:05:06Z",
            dc_fields=shared,
        )
    )
    index_store(store)
    compute_store(store, k=5)
    return store


class TestDuplicateReport:
    def test_exact_duplicates_top_the_report(self, dup_store):
        report = duplicate_report(dup_store, 0.95)
        assert report == [
            DuplicatePair("oai:x.example:dup", "oai:y.example:dup", 1.0, True)
        ]

    def test_shared_origin_links_pairs(self, dup_store):
        report = duplicate_report(dup_store, 0.0)
        by_pair = {(pair.id_a, pair.id_b): pair for pair in report}
        same_origin = by_pair[("oai:a.example:doc00000", "oai:a.example:doc00001")]
        assert same_origin.provenance_linked
        cross_origin = by_pair[("oai:a.example:doc00000", "oai:b.example:doc00000")]
        assert not cross_origin.provenance_linked
        no_provenance = by_pair[("oai:a.example:doc00000", "oai:y.example:dup")]
        assert not no_provenance.provenance_linked

    def test_report_is_sorted_and_complete(self, dup_store):
        report = duplicate_report(dup_store, 0.0)
        assert len(report) == 28  # C(8, 2)
        keys = [(-pair.score, pair.id_a, pair.id_b) for pair in report]
        assert keys == sorted(keys)

    def test_threshold_filters(self, dup_store):
        full = duplicate_report(dup_store, 0.0)
        cutoff = sorted(pair.score for pair in full)[len(full) // 2]
        trimmed = duplicate_report(dup_store, cutoff)
        assert trimmed == [pair for pair in full if pair.score >= cutoff]

    def test_sentinel_threshold_means_none(self, dup_store):
        assert duplicate_report(dup_store, 1.01) == []

    @pytest.mark.parametrize("threshold", [-0.1, 1.02, 2.0])
    def test_threshold_range_enforced(self, dup_store, threshold):
        with pytest.raises(SimHarvestError):
            duplicate_report(dup_store, threshold)


def text_store(root, texts, k):
    """A computed store of one record per name, titled with its text."""
    store = RecordStore(root)
    for name, text in texts.items():
        store.put_record(
            MetadataRecord(
                identifier=f"oai:p.example:{name}",
                datestamp="2005-01-01T00:00:00Z",
                dc_fields=(("title", text),),
            )
        )
    index_store(store)
    compute_store(store, k=k)
    return store


def pair_file_report(store, threshold):
    """The report as the pair file alone gives it."""
    with mock.patch.object(service_module, "_top_file_rows", return_value=None):
        return duplicate_report(store, threshold)


def assert_paths_agree(store, threshold, fast):
    """The report equals the pair-file report; fast says whether the top
    files answered it."""
    assert duplicate_report(store, threshold) == pair_file_report(store, threshold)
    answered = service_module._top_file_rows(store, threshold) is not None
    assert answered is fast


def p_id(name):
    return f"oai:p.example:{name}"


#: wind and tunnel in all but f, so they carry weight; b..e are identical
TIED = {
    "a": "wind tunnel heating",
    "b": "wind tunnel mach",
    "c": "wind tunnel mach",
    "d": "wind tunnel mach",
    "e": "wind tunnel mach",
    "f": "reentry orbiter",
}

REPORT_WORDS = ("wind", "tunnel", "mach", "heating", "reentry", "orbiter")
REPORT_NAMES = ("a", "b", "B", "c", "a0", "Z", "b1", "zz")


class TestDuplicateReportPaths:
    """The top-file path and the pair-file path give the same report."""

    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.dictionaries(
            st.sampled_from(REPORT_NAMES),
            st.lists(st.sampled_from(REPORT_WORDS), min_size=1, max_size=5).map(
                " ".join
            ),
            min_size=1,
            max_size=8,
        ),
        k=st.integers(0, 9),  # above 7, no top file is full
        data=st.data(),
    )
    def test_paths_agree_on_drawn_corpora(self, texts, k, data):
        with tempfile.TemporaryDirectory() as root:
            store = text_store(root, texts, k)
            rendered = sorted(
                {
                    match.score
                    for identifier in store.list_identifiers()
                    for match in load_top_matches(store, identifier)
                }
            )
            near = [0.0, 1e-4] + [
                score + offset
                for score in rendered
                for offset in (-1e-4, -5e-5, 0.0, 5e-5, 1e-4)
            ]
            threshold = data.draw(
                st.one_of(
                    st.floats(0.0, 1.01),
                    st.sampled_from([t for t in near if 0.0 <= t <= 1.01]),
                )
            )
            assert duplicate_report(store, threshold) == pair_file_report(
                store, threshold
            )

    def test_kth_score_at_the_threshold_falls_back(self, tmp_path):
        # every two records share one term of their own, so all six pairs
        # score 1/3; x and y each rank a and b first and drop each other
        texts = {
            "a": "tab tax tay",
            "b": "tab tbx tby",
            "x": "tax tbx txy",
            "y": "tay tby txy",
        }
        store = text_store(tmp_path / "store", texts, k=2)
        kth = load_top_matches(store, p_id("x"))[-1].score
        assert kth == 0.3333
        assert_paths_agree(store, kth, fast=False)
        pairs = {(pair.id_a, pair.id_b) for pair in duplicate_report(store, kth)}
        assert (p_id("x"), p_id("y")) in pairs

    def test_ties_across_the_k_boundary_fall_back(self, tmp_path):
        store = text_store(tmp_path / "store", TIED, k=3)
        ranked = load_top_matches(store, p_id("a"))
        # a ties with b..e; the fourth of them lost the tie-break
        assert [match.identifier for match in ranked] == [p_id(n) for n in "bcd"]
        tied = ranked[-1].score
        assert 0.0 < tied < 1.0
        for threshold in (tied, tied - 0.01):
            assert_paths_agree(store, threshold, fast=False)
            report = duplicate_report(store, threshold)
            assert (p_id("a"), p_id("e")) in {(p.id_a, p.id_b) for p in report}

    def test_k_zero_falls_back(self, tmp_path):
        store = text_store(tmp_path / "store", TIED, k=0)
        assert_paths_agree(store, 0.5, fast=False)

    def test_fewer_records_than_k(self, tmp_path):
        texts = {name: TIED[name] for name in "abcf"}
        store = text_store(tmp_path / "store", texts, k=10)
        assert_paths_agree(store, 0.0, fast=True)
        assert len(duplicate_report(store, 0.0)) == 6  # C(4, 2)
        assert_paths_agree(store, 0.5, fast=True)

    def test_sentinel_threshold_reads_the_top_files(self, tmp_path):
        store = text_store(tmp_path / "store", TIED, k=2)
        assert_paths_agree(store, 1.01, fast=True)
        assert duplicate_report(store, 1.01) == []

    def test_deleted_top_file_falls_back(self, tmp_path):
        store = text_store(tmp_path / "store", TIED, k=10)
        store.top_path(p_id("c")).unlink()
        assert_paths_agree(store, 0.5, fast=False)

    def test_truncated_top_file_falls_back(self, tmp_path):
        store = text_store(tmp_path / "store", TIED, k=10)
        path = store.top_path(p_id("a"))
        path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n")
        assert_paths_agree(store, 0.5, fast=False)

    def test_top_files_answer_without_the_pair_file(self, tmp_path):
        store = text_store(tmp_path / "store", TIED, k=10)
        report = duplicate_report(store, 0.5)
        assert report
        store.similarities_path.unlink()
        assert duplicate_report(store, 0.5) == report
        with pytest.raises(StalenessError):
            pair_file_report(store, 0.5)

    def test_fallback_reads_through_iter_similarity_lines(self, tmp_path, monkeypatch):
        store = text_store(tmp_path / "store", TIED, k=0)
        calls = []

        def recording(store):
            calls.append(store)
            return pipeline_module.iter_similarity_lines(store)

        monkeypatch.setattr(service_module, "iter_similarity_lines", recording)
        assert duplicate_report(store, 0.5)
        assert calls == [store]


class TestHeaderCatalogConsistency:
    @staticmethod
    def record(number, datestamp, spec):
        return MetadataRecord(
            identifier=f"oai:c.example:{number:03d}",
            datestamp=datestamp,
            set_specs=(spec,),
            dc_fields=(("title", f"record {number}"),),
        )

    def test_requests_during_a_put_do_not_hide_its_record(self, tmp_path, monkeypatch):
        store = RecordStore(tmp_path / "store")
        store.put_record(self.record(1, "2001-01-01T00:00:00Z", "old"))
        provider = OaiProvider(store, ProviderConfig(base_url=BASE))
        payload(provider, "Identify")  # the catalog now stands at the first epoch
        late = self.record(2, "1999-05-05T00:00:00Z", "new")
        target = store.record_path(late.identifier)
        real_write = store_module.write_atomic
        inside, threads = [], []

        def requests():
            for verb in ("Identify", "ListSets", "ListIdentifiers"):
                args = {"verb": [verb]}
                if verb == "ListIdentifiers":
                    args["metadataPrefix"] = ["oai_dc"]
                inside.append(provider.handle_request(args))

        def write_atomic(path, data):
            if path == target:
                # the epoch is bumped and the record not yet written: serve
                # from another thread, and give up waiting if it is held off
                threads.append(threading.Thread(target=requests))
                threads[0].start()
                threads[0].join(timeout=0.5)
            real_write(path, data)

        monkeypatch.setattr(store_module, "write_atomic", write_atomic)
        store.put_record(late)
        threads[0].join(timeout=30)
        assert not threads[0].is_alive() and len(inside) == 3

        info = payload(provider, "Identify")
        assert info.findtext(oai("earliestDatestamp")) == "1999-05-05T00:00:00Z"
        sets = payload(provider, "ListSets")
        assert [s.findtext(oai("setSpec")) for s in sets.iter(oai("set"))] == [
            "new",
            "old",
        ]
        listed = payload(provider, "ListIdentifiers", {"metadataPrefix": "oai_dc"})
        headers = list(listed)
        assert [h.findtext(oai("identifier")) for h in headers] == [
            "oai:c.example:001",
            "oai:c.example:002",
        ]
        assert headers[1].findtext(oai("datestamp")) == "1999-05-05T00:00:00Z"
        assert headers[1].findtext(oai("setSpec")) == "new"

    def test_walks_beside_a_harvest_are_complete_or_refused(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        records = [
            self.record(n, f"2001-01-{n % 28 + 1:02d}T00:00:00Z", f"s{n % 3}")
            for n in range(40)
        ]
        for record in records[:10]:
            store.put_record(record)
        start_epoch = store.epoch()
        provider = OaiProvider(store, ProviderConfig(base_url=BASE, page_size=3))
        ids = [record.identifier for record in records]
        harvesting = threading.Event()
        harvesting.set()
        outcomes, failures = [], []

        def walk_once():
            args = {"verb": ["ListIdentifiers"], "metadataPrefix": ["oai_dc"]}
            seen, epoch = [], None
            while True:
                root = ET.fromstring(provider.handle_request(args))
                error = root.find(oai("error"))
                if error is not None:
                    return "refused", seen, epoch, error.get("code")
                page = root.find(oai("ListIdentifiers"))
                headers = page.iter(oai("header"))
                seen += [header.findtext(oai("identifier")) for header in headers]
                token = page.findtext(oai("resumptionToken"))
                if not token:
                    return "complete", seen, epoch, None
                epoch = epoch if epoch is not None else int(token.split("!")[0])
                args = {"verb": ["ListIdentifiers"], "resumptionToken": [token]}

        def reader():
            try:
                while harvesting.is_set():
                    for verb in ("Identify", "ListSets"):
                        body = provider.handle_request({"verb": [verb]})
                        assert ET.fromstring(body).find(oai("error")) is None
                    outcomes.append(walk_once())
            except Exception as error:  # reported by the main thread
                failures.append(error)

        def writer():
            try:
                for record in records[10:]:
                    store.put_record(record)
            finally:
                harvesting.clear()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside requests too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert outcomes
        for outcome, seen, epoch, code in outcomes:
            # every put adds one record and bumps the epoch by one
            listed = ids[: epoch - start_epoch + 10]
            if outcome == "refused":
                assert code == "badResumptionToken"
                assert seen == listed[: len(seen)]
            else:
                assert seen == listed

    def test_record_walks_beside_record_changes_raise_nothing(self, tmp_path):
        """ListRecords pages look record files up in the memo of the last
        catalog build while other requests rebuild it and puts change the
        files under both."""
        store = RecordStore(tmp_path / "store")
        records = [self.record(n, "2001-01-01T00:00:00Z", "s") for n in range(30)]
        for record in records:
            store.put_record(record)
        provider = OaiProvider(store, ProviderConfig(base_url=BASE, page_size=4))
        writing = threading.Event()
        writing.set()
        codes, failures = [], []

        def reader():
            try:
                while writing.is_set():
                    args = {"verb": ["ListRecords"], "metadataPrefix": ["oai_dc"]}
                    while True:
                        root = ET.fromstring(provider.handle_request(args))
                        error = root.find(oai("error"))
                        codes.append(None if error is None else error.get("code"))
                        token = root.findtext(
                            f"{oai('ListRecords')}/{oai('resumptionToken')}"
                        )
                        if not token:
                            break
                        args = {"verb": ["ListRecords"], "resumptionToken": [token]}
            except Exception as error:  # reported by the main thread
                failures.append(error)

        def writer():
            try:
                for round_ in range(1, 6):
                    for record in records:
                        title = (("title", f"{record.identifier} revision {round_}"),)
                        store.put_record(dataclasses.replace(record, dc_fields=title))
            finally:
                writing.clear()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside requests too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert None in codes and set(codes) <= {None, "badResumptionToken"}


RESPONSE_DATE = re.compile(rb"<responseDate>[^<]*</responseDate>")


def list_records_pages(provider, extra):
    """Every page of one ListRecords walk, responseDate blanked."""
    args = {"verb": ["ListRecords"], "metadataPrefix": ["oai_dc"]}
    args.update((name, [value]) for name, value in extra.items())
    pages = []
    while True:
        body = provider.handle_request(args)
        pages.append(RESPONSE_DATE.sub(b"<responseDate />", body))
        token = ET.fromstring(body).findtext(
            f"{oai('ListRecords')}/{oai('resumptionToken')}"
        )
        if not token:
            return pages
        args = {"verb": ["ListRecords"], "resumptionToken": [token]}


def element_tree_pages(provider, extra):
    """The same walk with every page built from parsed records."""
    with mock.patch.object(
        service_module, "splice_list_records", lambda fragments, **kwargs: None
    ):
        return list_records_pages(provider, extra)


def spliced_pages(provider, extra):
    """The walk as served, and for each ListRecords page built: its
    identifiers and whether it was cut from the stored bytes."""
    real = service_module.splice_list_records
    outcomes = []

    def splice(fragments, **kwargs):
        body = real(fragments, **kwargs)
        headers = [oai_xml.parse_record_header(data) for data, _ in fragments]
        outcomes.append(([h.identifier for h in headers], body is not None))
        return body

    with mock.patch.object(service_module, "splice_list_records", splice):
        return list_records_pages(provider, extra), outcomes


PROVENANCE_OPEN = (
    f'<provenance xmlns="{PROVENANCE_NS}">'
    '<originDescription harvestDate="2005-01-01T00:00:00Z" altered="true">'
)
PROVENANCE_CLOSE = "</originDescription></provenance>"
# values that look like indentation: whitespace alone, or a newline at an end
TRICKY_DC = (
    ("title", "line one\nline two"),
    ("creator", "\n"),
    ("subject", " \n\t "),
    ("subject", "\n        "),
    ("description", "\nopens with a newline"),
    ("rights", "closes with a newline\n"),
    ("coverage", ""),
)
TRICKY_PROVENANCE = (
    PROVENANCE_OPEN
    + "<baseURL>http://a.example/oai\n  continued</baseURL>"
    + "<identifier>\n</identifier>"
    + "<note>mixed<em>\n</em>\n  content\n</note>"
    + "<note>\n  <em>x</em>tail</note>"
    + PROVENANCE_CLOSE
)
FOREIGN_BLOCK = f'<rights xmlns="{conftest.FOREIGN_NS}"><holder>h</holder></rights>'


def spliced_record(name, **fields):
    return MetadataRecord(
        identifier=f"oai:e.example:{name}",
        datestamp="2003-03-03T03:03:03Z",
        **fields,
    )


@pytest.fixture
def served(tmp_path):
    """A provider over two records whose catalog is already built, so a file
    changed behind the store's back is read at the next epoch."""
    store = RecordStore(tmp_path / "store")
    for name in "ab":
        store.put_record(spliced_record(name, dc_fields=(("title", name),)))
    provider = OaiProvider(store, ProviderConfig(base_url=BASE))
    payload(provider, "Identify")
    return store, provider


class TestListRecordsSplice:
    """ListRecords pages cut from the stored bytes are the pages ElementTree
    builds from the parsed records, byte for byte."""

    @settings(max_examples=120, deadline=None)
    @given(
        batch=conftest.record_batches(),
        page_size=st.integers(1, 5),
        from_pick=st.none() | st.integers(0, 7),
        until_pick=st.none() | st.integers(0, 7),
        set_pick=st.none() | st.integers(0, 7),
        day=st.booleans(),
    )
    @example(
        batch=[
            spliced_record("a", dc_fields=TRICKY_DC, provenance=(TRICKY_PROVENANCE,)),
            spliced_record("b", deleted=True),
            spliced_record("c", dc_fields=TRICKY_DC, provenance=(FOREIGN_BLOCK,)),
            spliced_record("d", set_specs=("s",), dc_fields=(("title", "t"),)),
        ],
        page_size=2,
        from_pick=None,
        until_pick=None,
        set_pick=None,
        day=False,
    )
    @example(
        batch=[spliced_record(name, deleted=True) for name in "ab"],
        page_size=2,
        from_pick=None,
        until_pick=None,
        set_pick=None,
        day=False,
    )
    def test_pages_match_element_tree(
        self, batch, page_size, from_pick, until_pick, set_pick, day
    ):
        stamps = sorted(record.datestamp for record in batch)
        specs = sorted({spec for record in batch for spec in record.set_specs})

        def bound(pick):
            stamp = stamps[pick % len(stamps)]
            if day:
                return stamp[:10]
            return stamp if len(stamp) > 10 else stamp + "T12:00:00Z"

        extra = {}
        if from_pick is not None:
            extra["from"] = bound(from_pick)
        if until_pick is not None:
            extra["until"] = bound(until_pick)
        if set_pick is not None and specs:
            extra["set"] = specs[set_pick % len(specs)]
        with tempfile.TemporaryDirectory() as root:
            store = RecordStore(root)
            for record in batch:
                store.put_record(record)
            config = ProviderConfig(base_url=BASE, page_size=page_size)
            provider = OaiProvider(store, config)
            pages, outcomes = spliced_pages(provider, extra)
            assert pages == element_tree_pages(provider, extra)
        # only a foreign namespace, numbered per document, takes the long way
        by_id = {record.identifier: record for record in batch}
        for page, (identifiers, spliced) in zip(pages, outcomes):
            blocks = [block for i in identifiers for block in by_id[i].provenance]
            assert spliced == all(conftest.FOREIGN_NS not in block for block in blocks)
            if all(by_id[i].deleted for i in identifiers):
                # a page of deleted records carries no metadata namespaces
                root_tag = page.split(b">", 2)[1]
                assert b"xmlns:dc=" not in root_tag
                assert b"xmlns:oai_dc=" not in root_tag

    @staticmethod
    def edited(store, provider, edit):
        """Apply edit to records/ behind the store's back: the walk at that
        epoch serves the pages from before it, byte for byte. Then move the
        epoch by storing a third record."""
        before = list_records_pages(provider, {})
        edit()
        assert list_records_pages(provider, {}) == before
        store.put_record(spliced_record("c", dc_fields=(("title", "c"),)))

    def test_file_naming_another_identifier_is_refused(self, served):
        store, provider = served
        a_data = store.record_path("oai:e.example:a").read_bytes()
        b_path = store.record_path("oai:e.example:b")
        self.edited(store, provider, lambda: b_path.write_bytes(a_data))
        with pytest.raises(PathCollisionError):
            list_records_pages(provider, {})

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data[: len(data) // 2],
            lambda data: data.replace(b"</dc:title>", b"</dc:titel>"),
        ],
        ids=["truncated", "mismatched-tag"],
    )
    def test_corrupt_file_is_an_xml_parse_error(self, served, corrupt):
        store, provider = served
        path = store.record_path("oai:e.example:b")
        data = corrupt(path.read_bytes())
        self.edited(store, provider, lambda: path.write_bytes(data))
        with pytest.raises(XmlParseError):
            list_records_pages(provider, {})

    def test_missing_file_leaves_the_lists_at_the_next_epoch(self, served):
        store, provider = served
        self.edited(store, provider, store.record_path("oai:e.example:b").unlink)
        (page,) = list_records_pages(provider, {})
        parsed = parse_response(page, "ListRecords")
        assert error_codes(parsed) == []
        listed = ["oai:e.example:a", "oai:e.example:c"]
        assert [record.identifier for record in parsed.records] == listed
        identifiers = payload(provider, "ListIdentifiers", {"metadataPrefix": "oai_dc"})
        assert [h.findtext(oai("identifier")) for h in identifiers] == listed

    def test_walk_at_one_epoch_needs_no_record_file(self, served):
        store, provider = served
        first = list_records_pages(provider, {})
        for path in list(store.records_dir.rglob("*")):
            if path.is_file():
                path.unlink()
        assert list_records_pages(provider, {}) == first

    def test_second_walk_at_one_epoch_creates_no_parser(self, served):
        # the fixture's catalog build judged both files: neither walk parses
        # a header or works out a splice verdict again
        store, provider = served
        calls = []

        def counting(real):
            def call(*args):
                calls.append(real.__name__)
                return real(*args)

            return call

        with mock.patch.multiple(
            store_module,
            parse_record_header=counting(store_module.parse_record_header),
            fragment_layout=counting(store_module.fragment_layout),
        ):
            first, outcomes = spliced_pages(provider, {})
            assert [spliced for _, spliced in outcomes] == [True]
            assert spliced_pages(provider, {}) == (first, outcomes)
        assert calls == []

    @staticmethod
    def rewrite_in_place(path, data):
        """Overwrite path with data of its size, keeping its inode and its
        modification time, as a rewrite within one timestamp tick does."""
        before = path.stat()
        assert len(data) == before.st_size
        with open(path, "r+b") as handle:
            handle.write(data)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_same_size_rewrite_naming_another_identifier_is_refused(self, served):
        store, provider = served
        a_data = store.record_path("oai:e.example:a").read_bytes()
        b_path = store.record_path("oai:e.example:b")
        self.edited(store, provider, lambda: self.rewrite_in_place(b_path, a_data))
        with pytest.raises(PathCollisionError):
            list_records_pages(provider, {})

    def test_same_size_truncation_is_an_xml_parse_error(self, served):
        store, provider = served
        path = store.record_path("oai:e.example:b")
        data = path.read_bytes()
        half = len(data) // 2
        cut = data[:half] + b" " * (len(data) - half)
        self.edited(store, provider, lambda: self.rewrite_in_place(path, cut))
        with pytest.raises(XmlParseError):
            list_records_pages(provider, {})

    def test_store_of_an_earlier_layout_is_served_then_migrated(self, tmp_path):
        """Record files an earlier version wrote, indented from depth 0, are
        served the long way into the same pages. A re-harvest rewrites them
        at page depth without moving the epoch: the running provider serves
        the bytes it read the long way, and a new store splices them."""
        batch = [
            spliced_record("a", dc_fields=TRICKY_DC, provenance=(TRICKY_PROVENANCE,)),
            spliced_record("b", deleted=True),
            spliced_record("c", set_specs=("s",), dc_fields=(("title", "t"),)),
        ]
        store = RecordStore(tmp_path / "store")
        for record in batch:
            store.put_record(record)
            legacy = oai_xml._to_bytes(oai_xml._record_element(record))
            assert legacy != serialize_record_fragment(record)
            store.record_path(record.identifier).write_bytes(legacy)
        provider = OaiProvider(store, ProviderConfig(base_url=BASE, page_size=2))
        pages, outcomes = spliced_pages(provider, {})
        assert pages == element_tree_pages(provider, {})
        assert [spliced for _, spliced in outcomes] == [False, False]
        epoch = store.epoch()
        for record in batch:
            assert store.put_record(record).status == "unchanged"
            assert store.epoch() == epoch
            stored = store.record_path(record.identifier).read_bytes()
            assert stored == serialize_record_fragment(record)
        assert spliced_pages(provider, {}) == (pages, outcomes)
        fresh = OaiProvider(RecordStore(store.root), provider.config)
        migrated, outcomes = spliced_pages(fresh, {})
        assert migrated == pages
        assert [spliced for _, spliced in outcomes] == [True, True]


def get_record_body(provider, identifier):
    """One GetRecord answer, responseDate blanked."""
    args = {"verb": ["GetRecord"], "identifier": [identifier], "metadataPrefix": ["oai_dc"]}
    return RESPONSE_DATE.sub(b"<responseDate />", provider.handle_request(args))


def answer(call):
    """What call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as error:
        return type(error), str(error)


class TestGetRecordSnapshot:
    """GetRecord serves the bytes its catalog read at the current epoch, as
    a ListRecords page does, and /similar asks the same snapshot."""

    B = "oai:e.example:b"

    @staticmethod
    def move_epoch(store):
        store.put_record(spliced_record("c", dc_fields=(("title", "c"),)))

    def similar(self, provider):
        status, _, body = wsgi_call(
            provider, path="/similar", query=urlencode({"identifier": self.B})
        )
        return status, body

    def test_rewritten_file_is_served_once_the_epoch_moves(self, served):
        store, provider = served
        before = get_record_body(provider, self.B)
        edited = spliced_record("b", dc_fields=(("title", "edited"),))
        store.record_path(self.B).write_bytes(serialize_record_fragment(edited))
        assert get_record_body(provider, self.B) == before
        (page,) = list_records_pages(provider, {})
        start = before.index(b"<record>")
        record = before[start : before.index(b"</record>", start) + len(b"</record>")]
        assert b"<identifier>oai:e.example:b</identifier>" in record
        assert record in page
        self.move_epoch(store)
        after = get_record_body(provider, self.B)
        assert parse_response(after, "GetRecord").records == [edited]
        assert after.replace(b">edited<", b">b<") == before

    def test_malformed_file_answers_as_identify_does(self, served):
        store, provider = served
        path = store.record_path(self.B)
        before = get_record_body(provider, self.B)
        path.write_bytes(path.read_bytes()[:-20])
        assert get_record_body(provider, self.B) == before
        self.move_epoch(store)
        identify = answer(lambda: provider.handle_request({"verb": ["Identify"]}))
        assert identify[0] is XmlParseError
        assert answer(lambda: get_record_body(provider, self.B)) == identify
        assert answer(lambda: get_record_body(provider, "oai:e.example:a")) == identify

    def test_removed_file_is_unknown_once_the_epoch_moves(self, served):
        store, provider = served
        before = get_record_body(provider, self.B)
        store.record_path(self.B).unlink()
        # the snapshot still holds the record: GetRecord serves it and
        # /similar finds it, with no results computed
        assert get_record_body(provider, self.B) == before
        assert self.similar(provider)[0] == "409 Conflict"
        self.move_epoch(store)
        parsed = parse_response(get_record_body(provider, self.B), "GetRecord")
        assert error_codes(parsed) == ["idDoesNotExist"]
        assert self.similar(provider) == ("404 Not Found", f"unknown identifier {self.B}\n".encode())

    def test_similar_reads_no_record_file(self, tmp_path, monkeypatch):
        store = RecordStore(tmp_path / "store")
        for record in oracle.synthetic_records(random.Random(8), 4):
            store.put_record(record)
        gone = MetadataRecord("oai:repo.example:zz-gone", "2003-03-03", deleted=True)
        store.put_record(gone)
        index_store(store)
        compute_store(store, k=2)
        provider = OaiProvider(store, ProviderConfig(base_url=BASE))
        payload(provider, "Identify")
        calls = []
        for method in ("has_record", "get_record"):
            monkeypatch.setattr(
                RecordStore, method, lambda self, identifier: calls.append(identifier)
            )
        live = store.catalog().headers[0].identifier
        for identifier, status in (
            (live, "200 OK"),
            (gone.identifier, "404 Not Found"),
            ("oai:repo.example:nope", "404 Not Found"),
        ):
            query = urlencode({"identifier": identifier})
            assert wsgi_call(provider, path="/similar", query=query)[0] == status
        assert calls == []


class TestGetRecordSplice:
    """A GetRecord answer is written from the stored bytes: no record is
    parsed and no tree is serialized, unless its bytes cannot be spliced."""

    FOREIGN = "oai:e.example:foreign"

    @pytest.fixture
    def computed(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        for name in "ab":
            store.put_record(
                spliced_record(name, dc_fields=TRICKY_DC, provenance=(TRICKY_PROVENANCE,))
            )
        store.put_record(spliced_record("foreign", provenance=(FOREIGN_BLOCK,)))
        store.put_record(spliced_record("gone", deleted=True))
        index_store(store)
        compute_store(store, k=2)
        provider = OaiProvider(store, ProviderConfig(base_url=BASE, k=2))
        payload(provider, "Identify")
        return provider

    @staticmethod
    def args(identifier):
        return {"verb": ["GetRecord"], "identifier": [identifier], "metadataPrefix": ["oai_dc"]}

    @staticmethod
    def counted(monkeypatch):
        calls = []

        def counting(owner, name):
            real = getattr(owner, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        counting(ET, "tostring")
        counting(ET, "fromstring")
        counting(service_module, "parse_record_fragment")
        counting(service_module, "serialize_get_record")
        return calls

    @pytest.mark.parametrize("name", ["a", "gone"])
    def test_spliced_answer_parses_and_serializes_nothing(self, computed, name, monkeypatch):
        identifier = f"oai:e.example:{name}"
        calls = self.counted(monkeypatch)
        body = computed.handle_request(self.args(identifier))
        assert calls == []
        monkeypatch.undo()
        assert provider_problems(body) == []
        assert (identifier in similarity_containers(body)) == (name == "a")

    def test_foreign_block_takes_the_long_way(self, computed, monkeypatch):
        calls = self.counted(monkeypatch)
        body = computed.handle_request(self.args(self.FOREIGN))
        assert calls.count("parse_record_fragment") == 1
        assert calls.count("serialize_get_record") == 1
        monkeypatch.undo()
        assert provider_problems(body) == []
        assert self.FOREIGN in similarity_containers(body)


class TestReadersRecheckFreshness:
    """A put, index and compute that land inside a reader's request leave its
    answer stale (no <about>, 409, exit 3), or exactly the ranking of the
    results its freshness check saw, never a ranking paired with another
    compute's date."""

    MOMENTS = ("before the check", "between the check and the read", "after the read")

    @staticmethod
    def read(reader, provider, identifier, capsys):
        """(computedDate or None, ranking) of one answer, or None when stale."""
        if reader == "GetRecord":
            about = similarity_containers(get_record_body(provider, identifier)).get(
                identifier
            )
            if about is None:
                return None
            ranking = [(m.identifier, oai_xml.format_score(m.score)) for m in about.matches]
            return about.computed_at, ranking
        if reader == "/similar":
            status, _, body = wsgi_call(
                provider, path="/similar", query=urlencode({"identifier": identifier})
            )
            if status == "409 Conflict":
                return None
            assert status == "200 OK"
            element = ET.fromstring(body)
            ranking = [(m.get("identifier"), m.get("score")) for m in element]
            return element.get("computedDate"), ranking
        root = str(provider.store.root)
        capsys.readouterr()
        code = cli.main(["top", "--identifier", identifier, "--store", root])
        out = capsys.readouterr().out
        if code == cli.EXIT_STALE:
            return None
        assert code == cli.EXIT_OK
        return None, [tuple(line.split("\t")) for line in out.splitlines()]

    @pytest.mark.parametrize("moment", MOMENTS)
    @pytest.mark.parametrize("reader", ["GetRecord", "/similar", "top"])
    def test_answer_is_stale_or_the_ranking_it_dates(
        self, tmp_path, monkeypatch, capsys, reader, moment
    ):
        stamps = (f"2001-01-01T00:00:{second:02d}Z" for second in range(60))
        monkeypatch.setattr(pipeline_module, "utc_now_string", lambda: next(stamps))
        store = RecordStore(tmp_path / "store")
        records = oracle.synthetic_records(random.Random(41), 6)
        for record in records:
            store.put_record(record)
        subject = records[0].identifier
        rankings = {}

        def refresh():
            index_store(store)
            computed_at = compute_store(store, k=3).computed_at
            rankings[computed_at] = [
                (m.identifier, oai_xml.format_score(m.score))
                for m in load_top_matches(store, subject)
            ]

        def inject(now):
            if now == moment:
                # a near-copy of the subject outranks its other matches
                twin = dataclasses.replace(records[0], identifier="oai:repo.example:twin")
                store.put_record(twin)
                refresh()

        refresh()
        provider = OaiProvider(store, ProviderConfig(base_url=BASE, k=3))
        module = cli if reader == "top" else service_module
        real_check, real_load = module.check_results_fresh, module.load_top_matches
        seen = []

        def check(store):
            inject(self.MOMENTS[0])
            meta = real_check(store)
            seen.append(meta["computed_at"])
            return meta

        def load(*args):
            inject(self.MOMENTS[1])
            matches = real_load(*args)
            inject(self.MOMENTS[2])
            return matches

        monkeypatch.setattr(module, "check_results_fresh", check)
        monkeypatch.setattr(module, "load_top_matches", load)
        result = self.read(reader, provider, subject, capsys)
        first, second = rankings.values()
        assert first != second
        if moment == self.MOMENTS[0]:
            assert result is not None
        if result is not None:
            computed_at, ranking = result
            (checked_at,) = seen
            assert computed_at in (None, checked_at)
            assert ranking == rankings[checked_at]


class TestAggregatorChain:
    def test_harvested_copy_reproduces_the_results(self, tmp_path):
        """An aggregator that harvests another one over HTTP, then indexes and
        computes, holds the same records, tf vectors, pairs and rankings."""
        source = RecordStore(tmp_path / "source")
        records = oracle.synthetic_records(
            random.Random(31),
            130,
            set_choices=("aero", "struct", "fluid"),
            origin_url="http://origin.example/oai",
        )
        for record in records:
            source.put_record(record)
        source.put_record(
            MetadataRecord("oai:repo.example:zz-gone", "2003-03-03T03:03:03Z", deleted=True)
        )
        index_store(source)
        compute_store(source, k=5)
        copy = RecordStore(tmp_path / "copy")
        provider = OaiProvider(source, ProviderConfig(base_url=BASE, k=5, page_size=20))
        with http_server(provider) as url:
            report = harvest(HarvestSession(base_url=url), copy.put_record)
        assert report.records_received == 131
        assert report.pages_fetched == 7
        index_store(copy)
        compute_store(copy, k=5)
        for name in ("records", "tf_metadata", "top_matches"):
            assert conftest.tree_bytes(copy.root / name) == conftest.tree_bytes(
                source.root / name
            ), name
        assert copy.similarities_path.read_bytes() == source.similarities_path.read_bytes()

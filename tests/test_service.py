"""Provider tests: every verb exercised through the WSGI surface.

Each protocol response is checked against the wire-format validator before
being parsed, so these tests double as end-to-end conformance coverage of
the served XML.
"""

import dataclasses
import io
import random
import xml.etree.ElementTree as ET
from urllib.parse import urlencode, urlsplit

import pytest

import oracle
from conformance import conformance_problems, validate_similarity_container
from simharvest.exceptions import SimHarvestError, StalenessError
from simharvest.harvester import HarvestSession, harvest
from simharvest.oai_xml import (
    SIMILARITY_NS,
    ResumptionToken,
    build_similarity_about,
    parse_response,
)
from simharvest.pipeline import (
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


def wsgi_call(app, method="GET", path="/", query="", post_body=""):
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


def checked(provider, expected_verb, args, method="GET"):
    """Request, validate conformance, and parse one protocol response."""
    body = protocol_body(provider, args, method=method)
    assert conformance_problems(body) == []
    return parse_response(body, expected_verb)


def error_codes(parsed):
    return [error.code for error in parsed.errors]


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


class TestIdentify:
    def test_round_trip(self, provider):
        parsed = checked(provider, "Identify", {"verb": "Identify"})
        info = parsed.identify
        assert info["repositoryName"] == "test aggregator"
        assert info["baseURL"] == BASE
        assert info["protocolVersion"] == "2.0"
        assert info["adminEmail"] == ["oai@aggregator.example"]
        assert info["earliestDatestamp"] == "2000-01-01T00:00:00Z"
        assert info["deletedRecord"] == "transient"
        assert info["granularity"] == "YYYY-MM-DDThh:mm:ssZ"

    def test_empty_store_uses_epoch_floor(self, tmp_path):
        empty = OaiProvider(RecordStore(tmp_path / "s"), ProviderConfig(base_url=BASE))
        parsed = checked(empty, "Identify", {"verb": "Identify"})
        assert parsed.identify["earliestDatestamp"] == "1970-01-01"


class TestListMetadataFormats:
    def test_repository_wide(self, provider):
        parsed = checked(
            provider, "ListMetadataFormats", {"verb": "ListMetadataFormats"}
        )
        assert [f["metadataPrefix"] for f in parsed.formats] == ["oai_dc"]

    def test_per_item(self, provider):
        parsed = checked(
            provider,
            "ListMetadataFormats",
            {"verb": "ListMetadataFormats", "identifier": LIVE_IDS[0]},
        )
        assert [f["metadataPrefix"] for f in parsed.formats] == ["oai_dc"]

    def test_unknown_identifier(self, provider):
        parsed = checked(
            provider,
            "ListMetadataFormats",
            {"verb": "ListMetadataFormats", "identifier": "oai:repo.example:nope"},
        )
        assert error_codes(parsed) == ["idDoesNotExist"]


class TestListSets:
    def test_sets_served(self, provider):
        parsed = checked(provider, "ListSets", {"verb": "ListSets"})
        assert [s["setSpec"] for s in parsed.sets] == ["aero", "struct"]

    def test_no_set_hierarchy_when_empty(self, tmp_path):
        empty = OaiProvider(RecordStore(tmp_path / "s"), ProviderConfig(base_url=BASE))
        parsed = checked(empty, "ListSets", {"verb": "ListSets"})
        assert error_codes(parsed) == ["noSetHierarchy"]


def walk(provider, verb, extra=None):
    """Follow resumption tokens to exhaustion, returning every parsed page."""
    args = {"verb": verb, "metadataPrefix": "oai_dc", **(extra or {})}
    pages = [checked(provider, verb, args)]
    while pages[-1].token is not None and pages[-1].token.text:
        pages.append(
            checked(
                provider, verb, {"verb": verb, "resumptionToken": pages[-1].token.text}
            )
        )
    return pages


class TestListVerbsPaging:
    @pytest.mark.parametrize("verb", ["ListRecords", "ListIdentifiers"])
    def test_full_walk(self, provider, verb):
        pages = walk(provider, verb)
        assert [len(page.records) for page in pages] == [4, 4, 3]
        harvested = [r.identifier for page in pages for r in page.records]
        assert harvested == ALL_IDS
        assert pages[0].token.complete_list_size == 11
        assert pages[0].token.cursor == 0
        assert pages[1].token.complete_list_size == 11
        assert pages[1].token.cursor == 4
        assert pages[2].token == ResumptionToken("", complete_list_size=11, cursor=8)

    def test_list_records_round_trips_content(self, provider, corpus_store):
        pages = walk(provider, "ListRecords")
        for page in pages:
            for record in page.records:
                assert record == corpus_store.get_record(record.identifier)

    def test_list_identifiers_is_header_only(self, provider):
        pages = walk(provider, "ListIdentifiers")
        records = [r for page in pages for r in page.records]
        assert all(r.dc_fields == () for r in records)
        deleted = [r for r in records if r.deleted]
        assert [r.identifier for r in deleted] == ["oai:repo.example:zz-gone"]

    def test_datestamp_window(self, provider):
        pages = walk(
            provider,
            "ListIdentifiers",
            extra={"from": "2000-01-05", "until": "2000-01-08"},
        )
        harvested = [r.identifier for page in pages for r in page.records]
        assert harvested == LIVE_IDS[4:8]

    def test_set_filter_pages_too(self, provider):
        pages = walk(provider, "ListRecords", extra={"set": "aero"})
        harvested = [r.identifier for page in pages for r in page.records]
        assert harvested == LIVE_IDS[0::2]
        assert [len(page.records) for page in pages] == [4, 1]
        assert pages[0].token.complete_list_size == 5

    def test_last_page_carries_an_empty_token(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        for record in oracle.synthetic_records(random.Random(5), 5):
            store.put_record(record)
        small = OaiProvider(store, ProviderConfig(base_url=BASE, page_size=2))
        pages = walk(small, "ListRecords")
        assert [len(page.records) for page in pages] == [2, 2, 1]
        assert pages[2].token == ResumptionToken("", complete_list_size=5, cursor=4)

        def fetch(url, headers):
            status, _, body = wsgi_call(small, query=urlsplit(url).query)
            return int(status.split()[0]), {}, body

        report = harvest(HarvestSession(base_url=BASE), lambda record: None, fetch=fetch)
        assert report.pages_fetched == 3
        assert report.records_received == 5

    def test_no_records_match(self, provider):
        parsed = checked(
            provider,
            "ListRecords",
            {
                "verb": "ListRecords",
                "metadataPrefix": "oai_dc",
                "from": "1999-01-01",
                "until": "1999-12-31",
            },
        )
        assert error_codes(parsed) == ["noRecordsMatch"]
        assert parsed.request_attrs["from"] == "1999-01-01"

    def test_unknown_set_is_no_records_match(self, provider):
        parsed = checked(
            provider,
            "ListIdentifiers",
            {"verb": "ListIdentifiers", "metadataPrefix": "oai_dc", "set": "nope"},
        )
        assert error_codes(parsed) == ["noRecordsMatch"]


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

    def test_cursor_out_of_range(self, provider):
        token = provider._encode_token(999, (None, None, None))
        parsed = checked(
            provider,
            "ListIdentifiers",
            {"verb": "ListIdentifiers", "resumptionToken": token},
        )
        assert error_codes(parsed) == ["badResumptionToken"]
        assert "out of range" in parsed.errors[0].message


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
            5,
            computed_at=meta["computed_at"],
        )
        parsed = checked(
            provider,
            "GetRecord",
            {"verb": "GetRecord", "metadataPrefix": "oai_dc", "identifier": identifier},
        )
        about = parsed.similarity[identifier]
        assert about == expected
        assert len(about.matches) == 5  # config caps below the stored depth
        scores = [match.score for match in about.matches]
        assert scores == sorted(scores, reverse=True)

    def test_every_live_record_gets_about(self, provider):
        for identifier in LIVE_IDS:
            parsed = checked(
                provider,
                "GetRecord",
                {
                    "verb": "GetRecord",
                    "metadataPrefix": "oai_dc",
                    "identifier": identifier,
                },
            )
            assert identifier in parsed.similarity

    def test_deleted_record_is_header_only(self, provider):
        parsed = checked(
            provider,
            "GetRecord",
            {
                "verb": "GetRecord",
                "metadataPrefix": "oai_dc",
                "identifier": "oai:repo.example:zz-gone",
            },
        )
        assert parsed.records[0].deleted
        assert parsed.similarity == {}

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

    def test_post_equals_get(self, provider):
        args = {
            "verb": "GetRecord",
            "metadataPrefix": "oai_dc",
            "identifier": LIVE_IDS[1],
        }
        via_get = checked(provider, "GetRecord", args)
        via_post = checked(provider, "GetRecord", args, method="POST")
        assert via_post.records == via_get.records
        assert via_post.similarity == via_get.similarity


class TestArgumentPolicing:
    def test_unknown_verb(self, provider):
        parsed = checked(provider, "GetRecord", {"verb": "Frobnicate"})
        assert error_codes(parsed) == ["badVerb"]
        assert parsed.request_attrs == {}  # echo suppressed

    def test_missing_verb(self, provider):
        parsed = checked(provider, "GetRecord", {})
        assert error_codes(parsed) == ["badVerb"]

    def test_missing_required_argument(self, provider):
        parsed = checked(provider, "ListRecords", {"verb": "ListRecords"})
        assert error_codes(parsed) == ["badArgument"]
        assert "metadataPrefix" in parsed.errors[0].message
        assert parsed.request_attrs == {}

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

    def test_multiple_errors_reported_together(self, provider):
        parsed = checked(
            provider,
            "ListRecords",
            {"verb": "ListRecords", "metadataPrefix": "oai_dc", "from": "bad", "x": "1"},
        )
        assert sorted(error_codes(parsed)) == ["badArgument", "badArgument"]

    def test_unsupported_prefix(self, provider):
        parsed = checked(
            provider,
            "GetRecord",
            {
                "verb": "GetRecord",
                "metadataPrefix": "marcxml",
                "identifier": LIVE_IDS[0],
            },
        )
        assert error_codes(parsed) == ["cannotDisseminateFormat"]
        assert parsed.request_attrs["metadataPrefix"] == "marcxml"  # echo kept


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

    def test_other_methods_rejected(self, provider):
        status, headers, _ = wsgi_call(provider, method="PUT", query="verb=Identify")
        assert status == "405 Method Not Allowed"
        assert headers["Allow"] == "GET, POST"

    def test_config_validation(self):
        with pytest.raises(SimHarvestError):
            ProviderConfig(k=-1)
        with pytest.raises(SimHarvestError):
            ProviderConfig(page_size=0)


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
    parsed = checked(
        provider,
        "GetRecord",
        {"verb": "GetRecord", "metadataPrefix": "oai_dc", "identifier": identifier},
    )
    return parsed.similarity.get(identifier)


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

"""Harvest client: URL building, paging, politeness, failure recovery."""

import re
from urllib.parse import parse_qs, urlparse

import pytest

import oracle
from mock_upstream import MockUpstream, http_server
from simharvest import harvester
from simharvest.exceptions import (
    HarvestError,
    RequestArgumentError,
    ResumableHarvestError,
    RestartRequiredError,
    TokenLoopError,
)
from simharvest.harvester import (
    HarvestSession,
    build_request_url,
    harvest,
)
from simharvest.oai_xml import (
    ResumptionToken,
    serialize_error,
    serialize_list_records,
)
from simharvest.records import OaiError

BASE = "http://upstream.example/oai"


class TestBuildRequestUrl:
    def test_get_record_url_shape(self):
        url = build_request_url(
            "http://techreports.larc.nasa.gov/ltrs/oai2.0",
            "GetRecord",
            {
                "metadataPrefix": "oai_dc",
                "identifier": "oai:ltrs.larc.nasa.gov:rdp3195.tex",
            },
        )
        assert url == (
            "http://techreports.larc.nasa.gov/ltrs/oai2.0"
            "?verb=GetRecord&metadataPrefix=oai_dc"
            "&identifier=oai:ltrs.larc.nasa.gov:rdp3195.tex"
        )

    def test_verb_always_first(self):
        url = build_request_url(BASE, "ListRecords", {"metadataPrefix": "oai_dc"})
        assert urlparse(url).query.startswith("verb=ListRecords")

    def test_unsafe_values_are_encoded_and_recoverable(self):
        arguments = {"metadataPrefix": "oai_dc", "set": "a&b=c d+e"}
        url = build_request_url(BASE, "ListRecords", arguments)
        assert "a%26b%3Dc%20d%2Be" in url
        query = parse_qs(urlparse(url).query)
        assert query["set"] == ["a&b=c d+e"]

    def test_base_url_with_existing_query_uses_ampersand(self):
        url = build_request_url(f"{BASE}?site=main", "Identify")
        assert url == f"{BASE}?site=main&verb=Identify"

    def test_token_is_exclusive(self):
        build_request_url(BASE, "ListRecords", {"resumptionToken": "t"})
        with pytest.raises(RequestArgumentError):
            build_request_url(
                BASE,
                "ListRecords",
                {"resumptionToken": "t", "metadataPrefix": "oai_dc"},
            )

    def test_required_arguments_enforced(self):
        with pytest.raises(RequestArgumentError):
            build_request_url(BASE, "ListRecords")
        with pytest.raises(RequestArgumentError):
            build_request_url(BASE, "GetRecord", {"metadataPrefix": "oai_dc"})

    def test_unknown_verb_and_argument(self):
        with pytest.raises(RequestArgumentError):
            build_request_url(BASE, "FetchAll")
        with pytest.raises(RequestArgumentError):
            build_request_url(BASE, "Identify", {"metadataPrefix": "oai_dc"})

    def test_datestamps_validated(self):
        with pytest.raises(RequestArgumentError):
            build_request_url(
                BASE,
                "ListRecords",
                {"metadataPrefix": "oai_dc", "from": "last week"},
            )


class TestHarvestSession:
    def test_validation(self):
        with pytest.raises(RequestArgumentError):
            HarvestSession(base_url="")
        with pytest.raises(RequestArgumentError):
            HarvestSession(base_url=BASE, from_="2002-13-01")
        with pytest.raises(RequestArgumentError):
            HarvestSession(base_url=BASE, from_="")
        with pytest.raises(RequestArgumentError, match="set must be non-empty"):
            HarvestSession(base_url=BASE, set_spec="")
        with pytest.raises(RequestArgumentError):
            HarvestSession(base_url=BASE, from_="2003-01-01", until="2002-01-01")

    def test_mixed_granularity_refused(self):
        with pytest.raises(RequestArgumentError, match="same granularity"):
            HarvestSession(
                base_url=BASE, from_="2006-01-02T10:00:00Z", until="2006-01-02"
            )
        arguments = {
            "metadataPrefix": "oai_dc",
            "from": "2006-01-01",
            "until": "2006-01-02T00:00:00Z",
        }
        with pytest.raises(RequestArgumentError, match="same granularity"):
            build_request_url(BASE, "ListRecords", arguments)

    def test_first_page_arguments(self):
        session = HarvestSession(
            base_url=BASE, from_="2001-01-01", until="2002-01-01", set_spec="x"
        )
        assert session.first_page_arguments() == {
            "metadataPrefix": "oai_dc",
            "from": "2001-01-01",
            "until": "2002-01-01",
            "set": "x",
        }


class ScriptedFetch:
    """Returns canned (status, headers, body) responses in order."""

    def __init__(self, steps):
        self.steps = list(steps)
        self.urls = []
        self.headers = []

    def __call__(self, url, headers):
        self.urls.append(url)
        self.headers.append(headers)
        step = self.steps.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def page_body(records, token_text=None, request_args=None):
    token = ResumptionToken(token_text) if token_text else None
    return serialize_list_records(
        records,
        base_url=BASE,
        request_args=request_args or {"verb": "ListRecords", "metadataPrefix": "oai_dc"},
        token=token,
    )


def error_body(code, message="", echo=True):
    args = {"verb": "ListRecords", "metadataPrefix": "oai_dc"} if echo else {}
    return serialize_error(
        [OaiError(code, message)], base_url=BASE, request_args=args
    )


@pytest.fixture
def corpus(rng):
    return oracle.synthetic_records(rng, 7)


class TestHarvestPaging:
    def test_single_page(self, corpus):
        fetch = ScriptedFetch([(200, {}, page_body(corpus))])
        received = []
        report = harvest(
            HarvestSession(base_url=BASE), received.append, fetch=fetch
        )
        assert [r.identifier for r in received] == [r.identifier for r in corpus]
        assert report.records_received == 7
        assert report.pages_fetched == 1
        assert report.retries == 0

    def test_multi_page_follows_tokens(self, corpus):
        fetch = ScriptedFetch(
            [
                (200, {}, page_body(corpus[:3], "t1")),
                (200, {}, page_body(corpus[3:5], "t2")),
                (200, {}, page_body(corpus[5:])),
            ]
        )
        received = []
        session = HarvestSession(base_url=BASE)
        report = harvest(session, received.append, fetch=fetch)
        assert report.pages_fetched == 3
        assert report.records_received == 7
        assert "resumptionToken=t1" in fetch.urls[1]
        assert "resumptionToken=t2" in fetch.urls[2]
        assert "metadataPrefix" not in fetch.urls[1]
        assert session.cursor == "t2"

    def test_duplicates_across_pages_sunk_once(self, corpus):
        fetch = ScriptedFetch(
            [
                (200, {}, page_body(corpus[:3], "t1")),
                (200, {}, page_body(corpus[2:4])),  # corpus[2] repeats
            ]
        )
        received = []
        report = harvest(HarvestSession(base_url=BASE), received.append, fetch=fetch)
        assert report.records_received == 4
        assert report.duplicate_identifiers == [corpus[2].identifier]
        assert len(received) == len({r.identifier for r in received})

    def test_empty_token_text_means_done(self, corpus):
        body = page_body(corpus[:2], None)
        fetch = ScriptedFetch([(200, {}, body)])
        report = harvest(HarvestSession(base_url=BASE), lambda r: None, fetch=fetch)
        assert report.pages_fetched == 1

    def test_headers_carry_identity(self, corpus):
        fetch = ScriptedFetch([(200, {}, page_body(corpus))])
        harvest(
            HarvestSession(base_url=BASE),
            lambda r: None,
            fetch=fetch,
            user_agent="tester/1.0",
            from_email="ops@example.org",
        )
        sent = fetch.headers[0]
        assert sent["User-Agent"] == "tester/1.0"
        assert sent["From"] == "ops@example.org"
        assert "Accept" in sent

    def test_resume_from_cursor(self, corpus):
        fetch = ScriptedFetch([(200, {}, page_body(corpus[5:]))])
        session = HarvestSession(base_url=BASE, cursor="t2")
        harvest(session, lambda r: None, fetch=fetch)
        assert "resumptionToken=t2" in fetch.urls[0]


class TestHarvestErrors:
    def test_no_records_match_is_empty_not_fatal(self):
        fetch = ScriptedFetch([(200, {}, error_body("noRecordsMatch", "none"))])
        report = harvest(HarvestSession(base_url=BASE), lambda r: None, fetch=fetch)
        assert report.records_received == 0
        assert report.pages_fetched == 0

    def test_bad_resumption_token_requires_restart(self, corpus):
        fetch = ScriptedFetch(
            [
                (200, {}, page_body(corpus[:2], "t1")),
                (200, {}, error_body("badResumptionToken", "expired", echo=False)),
            ]
        )
        with pytest.raises(RestartRequiredError):
            harvest(HarvestSession(base_url=BASE), lambda r: None, fetch=fetch)

    def test_other_protocol_errors_are_fatal(self):
        fetch = ScriptedFetch([(200, {}, error_body("cannotDisseminateFormat"))])
        with pytest.raises(HarvestError):
            harvest(HarvestSession(base_url=BASE), lambda r: None, fetch=fetch)

    def test_token_loop_detected(self, corpus):
        pages = [(200, {}, page_body(corpus[:1], "same"))]
        pages += [(200, {}, page_body(corpus[1:2], "same"))] * 4
        fetch = ScriptedFetch(pages)
        with pytest.raises(TokenLoopError):
            harvest(HarvestSession(base_url=BASE), lambda r: None, fetch=fetch)


class TestRetries:
    def test_503_honors_retry_after(self, corpus):
        sleeps = []
        fetch = ScriptedFetch(
            [
                (503, {"Retry-After": "7"}, b""),
                (200, {}, page_body(corpus)),
            ]
        )
        report = harvest(
            HarvestSession(base_url=BASE),
            lambda r: None,
            fetch=fetch,
            sleep=sleeps.append,
        )
        assert sleeps == [7.0]
        assert report.retries == 1
        assert report.records_received == 7

    def test_5xx_backs_off_exponentially_with_cap(self, monkeypatch):
        monkeypatch.setattr(harvester, "BACKOFF_CAP", 5.0)
        sleeps = []
        fetch = ScriptedFetch([(500, {}, b"")] * 5)
        session = HarvestSession(base_url=BASE)
        with pytest.raises(ResumableHarvestError) as info:
            harvest(session, lambda r: None, fetch=fetch, sleep=sleeps.append)
        assert sleeps == [1.0, 2.0, 4.0, 5.0]
        assert info.value.cursor is None  # nothing fetched yet

    def test_transport_errors_are_retried(self, corpus):
        sleeps = []
        fetch = ScriptedFetch(
            [OSError("connection refused"), (200, {}, page_body(corpus))]
        )
        report = harvest(
            HarvestSession(base_url=BASE),
            lambda r: None,
            fetch=fetch,
            sleep=sleeps.append,
        )
        assert report.retries == 1 and report.records_received == 7

    def test_exhaustion_preserves_cursor_for_resume(self, corpus):
        fetch = ScriptedFetch(
            [(200, {}, page_body(corpus[:2], "t1"))] + [OSError("nope")] * 5
        )
        session = HarvestSession(base_url=BASE)
        received = []
        with pytest.raises(ResumableHarvestError) as info:
            harvest(session, received.append, fetch=fetch, sleep=lambda s: None)
        assert info.value.cursor == "t1"
        assert session.cursor == "t1"
        assert len(received) == 2

    def test_4xx_fails_immediately(self):
        fetch = ScriptedFetch([(404, {}, b"gone")])
        with pytest.raises(HarvestError):
            harvest(HarvestSession(base_url=BASE), lambda r: None, fetch=fetch)
        assert fetch.steps == []  # no retry consumed further steps

    def test_unparseable_retry_after_falls_back(self, corpus):
        sleeps = []
        fetch = ScriptedFetch(
            [
                (503, {"Retry-After": "Fri, 31 Dec 1999 23:59:59 GMT"}, b""),
                (200, {}, page_body(corpus)),
            ]
        )
        harvest(
            HarvestSession(base_url=BASE),
            lambda r: None,
            fetch=fetch,
            sleep=sleeps.append,
        )
        assert sleeps == [1.0]


class TestOverHttp:
    def test_real_http_paging(self, rng):
        records = oracle.synthetic_records(rng, 120)
        upstream = MockUpstream(records, page_size=50)
        received = []
        with http_server(upstream.wsgi) as url:
            report = harvest(
                HarvestSession(base_url=f"{url}/oai"), received.append
            )
        assert report.records_received == 120
        assert report.pages_fetched == 3
        assert len(upstream.requests) == 3
        assert [r.identifier for r in received] == [r.identifier for r in records]

    def test_real_http_503_retry(self, rng):
        records = oracle.synthetic_records(rng, 20)
        upstream = MockUpstream(records, page_size=10)
        upstream.fail_first = {1: 1}  # second page 503s once
        upstream.retry_after = "0"
        with http_server(upstream.wsgi) as url:
            report = harvest(HarvestSession(base_url=f"{url}/oai"), lambda r: None)
        assert report.records_received == 20
        assert report.retries == 1
        assert len(upstream.requests) == 3  # page 0, failed page 1, retried page 1

    def test_malformed_optional_token_attributes_are_ignored(self, rng):
        records = oracle.synthetic_records(rng, 20)
        upstream = MockUpstream(records, page_size=10)
        upstream.rewrite_page = lambda body: re.sub(
            rb"<resumptionToken [^>]*>",
            b'<resumptionToken completeListSize="about 1000" cursor="">',
            body,
        )
        received = []
        with http_server(upstream.wsgi) as url:
            report = harvest(HarvestSession(base_url=f"{url}/oai"), received.append)
        assert [r.identifier for r in received] == [r.identifier for r in records]
        assert report.pages_fetched == 2

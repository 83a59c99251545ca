"""Acceptance gate: the eight headline guarantees, one pass/fail line each.

Every criterion prints `acceptance criterion N (...): PASS` or `: FAIL`; the
lines are also echoed in the terminal summary after the run. Tolerances are
pinned in the assertions below and must not be loosened.
"""

import random
import tempfile
import time
import urllib.request
from contextlib import contextmanager
from urllib.parse import urlencode

import pytest

import oracle
from conformance import conformance_problems, similarity_containers
from conftest import ACCEPTANCE_LINES, tree_relpaths
from mock_upstream import MockUpstream, http_server
from oracle import parse_duration
from test_service import wsgi_call
from test_similarity import engine_top, score_blocks
from simharvest.cli import main as cli_main
from simharvest.exceptions import StalenessError
from simharvest.harvester import HarvestSession, harvest
from simharvest.oai_xml import (
    DEFAULT_SIMILARITY_SCHEMA_URL,
    ResumptionToken,
    build_similarity_about,
    parse_response,
    serialize_error,
    serialize_get_record,
    serialize_list_records,
)
from simharvest.pipeline import (
    check_results_fresh,
    compute_store,
    index_store,
)
from simharvest.records import (
    OAI_ERROR_CODES,
    MetadataRecord,
    OaiError,
    SimilarityMatch,
)
from simharvest.service import OaiProvider, ProviderConfig
from simharvest.similarity import (
    VectorSpaceModel,
    _row_blocks,
    estimate_runtime,
    format_duration,
    pair_count,
)
from simharvest.store import RecordStore
from simharvest.textpipe import TermFrequencyVector

BASE = "http://aggregator.example/oai"


@contextmanager
def reported(number, title):
    line = f"acceptance criterion {number} ({title})"
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"{line}: FAIL")
        print(f"{line}: FAIL")
        raise
    ACCEPTANCE_LINES.append(f"{line}: PASS")
    print(f"{line}: PASS")


def test_criterion_1_all_pairs_stream():
    with reported(
        1, "all-pairs stream yields exactly 7,033,125 pairs for 3,751 documents"
    ):
        started = time.perf_counter()
        n = 3751
        for jobs in (1, 2, 4):
            blocks = _row_blocks(n, jobs)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            for (_, stop), (start, _) in zip(blocks, blocks[1:]):
                assert stop == start
            # each block scores its rows against every later row
            total = sum(n - 1 - row for start, stop in blocks for row in range(start, stop))
            assert total == 7_033_125
            assert total == pair_count(n)
        assert time.perf_counter() - started < 60


#: Reference projected durations for the default 0.0036 s/pair rate.
REFERENCE_DURATIONS = {
    100: "17 seconds",
    1000: "30 minutes-1 second",
    5000: "12 hours-31 minutes-18 seconds",
    10000: "2 days-2 hours-5 minutes-30 seconds",
    25000: "13 days-1 hour-5 minutes-31 seconds",
    50000: "52 days-4 hours-23 minutes-36 seconds",
    100000: "208 days-17 hours-37 minutes-24 seconds",
    1000000: "57 years-68 days-14 hours-51 minutes-36 seconds",
    6500000: "2416 years-71 days-3 hours-45 minutes-2 seconds",
}


def test_criterion_2_runtime_projection():
    with reported(2, "projected runtimes match the reference durations within 2%"):
        for n_docs, rendered in REFERENCE_DURATIONS.items():
            reference = parse_duration(rendered)
            projected = parse_duration(format_duration(estimate_runtime(n_docs)))
            assert abs(projected - reference) <= 0.02 * reference, n_docs
        hours = estimate_runtime(3751) / 3600.0
        assert 6.9 <= hours <= 7.2


def test_criterion_3_engine_matches_oracle():
    with reported(3, "engine agrees with the independent dense oracle within 1e-9"):
        started = time.perf_counter()
        rng = random.Random(20060419)
        for _ in range(20):
            corpus = oracle.random_corpus(rng, rng.randint(10, 100))
            model = VectorSpaceModel().fit(corpus)
            expected = {
                (id_a, id_b): score for id_a, id_b, score in oracle.oracle_pairs(corpus)
            }
            with tempfile.TemporaryDirectory() as directory:
                lines, got, _ = score_blocks(model, directory, k=len(corpus))
            assert [tuple(line.split("\t")[:2]) for line in lines] == list(expected)
            assert got.keys() == expected.keys()
            for key, score in got.items():
                assert abs(score - expected[key]) <= 1e-9, key
        assert time.perf_counter() - started < 120


def test_criterion_4_planted_duplicates():
    with reported(4, "planted duplicates score 1.0 and rank first for each other"):
        rng = random.Random(42)
        corpus = oracle.random_corpus(rng, 40, id_prefix="oai:dup.example:doc")
        clones = [
            TermFrequencyVector(
                f"oai:dup.example:clone{i:02d}", dict(corpus[i * 7].counts)
            )
            for i in range(5)
        ]
        model = VectorSpaceModel().fit(corpus + clones)
        for i in range(5):
            original = corpus[i * 7].identifier
            clone = f"oai:dup.example:clone{i:02d}"
            best = engine_top(model, original, 1)[0]
            assert best.identifier == clone
            assert abs(best.score - 1.0) <= 1e-9
            assert engine_top(model, clone, 1)[0].identifier == original


def test_criterion_5_round_trip_and_conformance():
    with reported(
        5, "1,000 records round-trip losslessly through conformant responses"
    ):
        started = time.perf_counter()
        rng = random.Random(31337)
        records = oracle.synthetic_records(
            rng,
            1000,
            id_prefix="oai:rt.example:item",
            set_choices=("alpha", "beta", "gamma"),
            origin_url="http://origin.example/oai",
        )
        for i in range(0, 1000, 50):
            records[i] = MetadataRecord(
                identifier=records[i].identifier,
                datestamp=records[i].datestamp,
                set_specs=records[i].set_specs,
                deleted=True,
            )

        for i, record in enumerate(records):
            about = None
            if not record.deleted and i % 100 == 1:
                about = build_similarity_about(
                    record.identifier,
                    [
                        SimilarityMatch(records[(i + 1) % 1000].identifier, 0.9871),
                        SimilarityMatch(records[(i + 2) % 1000].identifier, 0.1234),
                    ],
                    "2006-04-19T12:00:00Z",
                )
            body = serialize_get_record(
                record,
                about,
                base_url=BASE,
                request_args={
                    "verb": "GetRecord",
                    "metadataPrefix": "oai_dc",
                    "identifier": record.identifier,
                },
                schema_url=DEFAULT_SIMILARITY_SCHEMA_URL,
            )
            assert conformance_problems(body) == []
            parsed = parse_response(body, "GetRecord")
            assert parsed.records == [record]
            if about is not None:
                assert similarity_containers(body)[record.identifier] == about

        page_size = 100
        collected = []
        for start in range(0, len(records), page_size):
            chunk = records[start : start + page_size]
            token = None
            if start + page_size < len(records):
                token = ResumptionToken(
                    text=f"page:{start // page_size + 1}",
                    complete_list_size=len(records),
                    cursor=start,
                )
            args = (
                {"verb": "ListRecords", "metadataPrefix": "oai_dc"}
                if start == 0
                else {
                    "verb": "ListRecords",
                    "resumptionToken": f"page:{start // page_size}",
                }
            )
            body = serialize_list_records(
                chunk, base_url=BASE, request_args=args, token=token
            )
            assert conformance_problems(body) == []
            collected.extend(parse_response(body, "ListRecords").records)
        assert collected == records

        for code in OAI_ERROR_CODES:
            args = (
                {"verb": "Nope"}
                if code == "badVerb"
                else {"verb": "ListRecords", "metadataPrefix": "oai_dc"}
            )
            body = serialize_error(
                [OaiError(code, f"synthetic {code} condition")],
                base_url=BASE,
                request_args=args,
            )
            assert conformance_problems(body) == []
            errors = parse_response(body, "ListRecords").errors
            assert [error.code for error in errors] == [code]
            assert errors[0].message == f"synthetic {code} condition"

        assert time.perf_counter() - started < 60


def test_criterion_6_end_to_end_over_http(tmp_path):
    with reported(6, "harvest, compute, and serve work end to end over HTTP"):
        started = time.perf_counter()
        rng = random.Random(6)
        upstream_records = oracle.synthetic_records(
            rng,
            500,
            id_prefix="oai:e2e.example:item",
            origin_url="http://e2e-origin.example/oai",
        )
        upstream = MockUpstream(upstream_records, page_size=50)
        upstream.fail_first = {3: 1}  # one 503 mid-harvest
        upstream.retry_after = "0"

        store = RecordStore(tmp_path / "store")
        with http_server(upstream.wsgi) as url:
            session = HarvestSession(base_url=url)
            report = harvest(session, lambda record: store.put_record(record))
        assert report.records_received == 500
        assert report.pages_fetched == 10
        assert report.retries == 1
        assert len(store.list_identifiers()) == 500

        index_store(store)
        compute_store(store, k=10)
        first_pairs = store.similarities_path.read_bytes()

        provider = OaiProvider(
            store, ProviderConfig(base_url=BASE, k=10, page_size=50)
        )
        subject = "oai:e2e.example:item00000"
        with http_server(provider) as url:
            record_url = (
                f"{url}/?verb=GetRecord&metadataPrefix=oai_dc&identifier={subject}"
            )
            with urllib.request.urlopen(record_url, timeout=30) as reply:
                body = reply.read()
            with urllib.request.urlopen(
                f"{url}/similar?identifier={subject}", timeout=30
            ) as reply:
                assert reply.status == 200
        assert conformance_problems(body) == []
        matches = similarity_containers(body)[subject].matches
        assert 0 < len(matches) <= 10
        scores = [match.score for match in matches]
        assert scores == sorted(scores, reverse=True)

        compute_store(store, k=10)
        assert store.similarities_path.read_bytes() == first_pairs

        assert time.perf_counter() - started < 300


def test_criterion_7_storage_invariants_and_staleness(tmp_path, capsys):
    with reported(
        7, "metadata trees stay mirrored and stale results are never served"
    ):
        root = tmp_path / "store"
        store = RecordStore(root)
        rng = random.Random(7)
        for record in oracle.synthetic_records(
            rng, 30, id_prefix="oai:inv.example:doc"
        ):
            store.put_record(record)
        store.put_record(
            MetadataRecord(
                "oai:inv.example:zz-gone", "2006-01-01T00:00:00Z", deleted=True
            )
        )
        index_store(store)
        compute_store(store, k=5)

        # one tree per stage, all three mirroring the same identifiers
        record_paths = tree_relpaths(store.records_dir, ".xml")
        assert record_paths == tree_relpaths(store.tf_dir, ".tf")
        assert record_paths == tree_relpaths(store.weights_dir, ".w")
        top_files = sorted(p.name for p in store.top_dir.iterdir())
        assert len(top_files) == 31
        expected_entries = {
            "records",
            "tf_metadata",
            "weights_metadata",
            "top_matches",
            "similarities.txt",
            "compute_meta.txt",
            ".epoch",
        }
        assert {p.name for p in root.iterdir()} == expected_entries

        # document frequencies and idf are recomputed, never persisted
        for path in sorted(root.rglob("*")):
            if path.is_file():
                assert "idf" not in path.read_text(encoding="utf-8").lower(), path

        provider = OaiProvider(store, ProviderConfig(base_url=BASE, k=5))
        subject = "oai:inv.example:doc00000"
        args = {
            "verb": "GetRecord",
            "metadataPrefix": "oai_dc",
            "identifier": subject,
        }
        _, _, body = wsgi_call(provider, query=urlencode(args))
        assert subject in similarity_containers(body)
        assert cli_main(["top", "--identifier", subject, "--store", str(root)]) == 0
        capsys.readouterr()

        store.put_record(
            MetadataRecord(
                "oai:inv.example:late",
                "2006-06-06T06:06:06Z",
                dc_fields=(("title", "late arrival"),),
            )
        )
        with pytest.raises(StalenessError):
            check_results_fresh(store)
        _, _, body = wsgi_call(provider, query=urlencode(args))
        assert conformance_problems(body) == []
        assert similarity_containers(body) == {}
        status, _, _ = wsgi_call(
            provider, path="/similar", query=urlencode({"identifier": subject})
        )
        assert status == "409 Conflict"
        assert cli_main(["top", "--identifier", subject, "--store", str(root)]) == 3
        capsys.readouterr()

        index_store(store)
        compute_store(store, k=5)
        _, _, body = wsgi_call(provider, query=urlencode(args))
        assert subject in similarity_containers(body)
        assert cli_main(["top", "--identifier", subject, "--store", str(root)]) == 0
        capsys.readouterr()


def test_criterion_8_compute_throughput(tmp_path, capsys):
    with reported(
        8, "computing 1,000 documents stays under a minute with consistent timing"
    ):
        root = tmp_path / "store"
        store = RecordStore(root)
        rng = random.Random(8)
        for record in oracle.synthetic_records(
            rng, 1000, id_prefix="oai:perf.example:doc", words_per_doc=50
        ):
            store.put_record(record)
        index_store(store)

        started = time.perf_counter()
        code = cli_main(["compute", "--store", str(root)])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0
        assert elapsed < 60

        lines = dict(
            line.split(": ", 1) for line in out.splitlines() if ": " in line
        )
        assert lines["documents"] == "1000"
        assert lines["pairs"] == "499500"
        wall = float(lines["wall seconds"])
        per_pair = float(lines["mean seconds per pair"])
        assert per_pair == pytest.approx(wall / 499500, rel=0.05)

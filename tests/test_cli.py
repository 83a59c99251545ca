"""Command-line interface tests: outputs, exit codes, and configuration."""

import random
import re
import subprocess
import sys
import urllib.request

import pytest

import conftest
import oracle
from conformance import conformance_problems
from mock_upstream import MockUpstream, http_server
from simharvest import cli
from simharvest.oai_xml import parse_response
from simharvest.pipeline import (
    STAGES,
    check_results_fresh,
    compute_store,
    index_store,
    load_top_matches,
)
from simharvest.records import MetadataRecord
from simharvest.store import RecordStore


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def populate(root, n, seed=7, prefix="oai:c.example:doc"):
    store = RecordStore(root)
    rng = random.Random(seed)
    for record in oracle.synthetic_records(rng, n, id_prefix=prefix):
        store.put_record(record)
    return store


def test_exit_code_vocabulary():
    assert (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_RUNTIME, cli.EXIT_STALE) == (
        0,
        1,
        2,
        3,
    )


class TestEstimate:
    def test_reference_corpus(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--n", "100")
        assert code == 0
        assert out == (
            "documents: 100\n"
            "pairs: 4950\n"
            "seconds per pair: 0.0036\n"
            "estimated seconds: 17.82\n"
            "estimated duration: 17 seconds\n"
        )

    def test_full_collection(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--n", "3751")
        assert code == 0
        assert "pairs: 7033125\n" in out
        assert "estimated seconds: 25319.25\n" in out
        assert "estimated duration: 7 hours-1 minute-59 seconds\n" in out

    def test_per_pair_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "100", "--per-pair", "0.001"
        )
        assert code == 0
        assert "seconds per pair: 0.001\n" in out
        assert "estimated seconds: 4.95\n" in out

    def test_missing_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["estimate"])
        assert excinfo.value.code == 1

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 1


class TestIndexComputeTop:
    def test_full_flow(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        store = populate(root, 8)

        code, out, _ = run_cli(capsys, "index", "--store", root)
        assert code == 0
        assert "records indexed: 8\n" in out
        terms = set()
        for identifier in store.list_identifiers():
            terms.update(store.get_tf(identifier).counts)
        assert f"distinct terms: {len(terms)}\n" in out

        code, out, _ = run_cli(capsys, "compute", "--store", root, "--k", "3")
        assert code == 0
        lines = dict(
            line.split(": ", 1) for line in out.splitlines() if ": " in line
        )
        assert lines["documents"] == "8"
        assert lines["pairs"] == "28"
        assert lines["pairs written"] == "28"
        # wall is printed at 3 decimals, so allow that quantization error
        wall = float(lines["wall seconds"])
        assert float(lines["mean seconds per pair"]) == pytest.approx(
            wall / 28, abs=0.0005 / 28 + 1e-9
        )
        assert lines["pair file"].endswith("similarities.txt")
        # each stage is printed at 3 decimals too
        stages = [float(lines[f"{name.replace('_', ' ')} seconds"]) for name in STAGES]
        assert sum(stages) <= wall + 0.0005 * len(stages)

        identifier = "oai:c.example:doc00000"
        code, out, _ = run_cli(capsys, "top", "--identifier", identifier, "--store", root)
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 3  # stored depth caps the default k
        assert all(re.fullmatch(r"\S+\t[01]\.\d{4}", row) for row in rows)
        expected = load_top_matches(store, identifier, 10)
        assert rows == [f"{m.identifier}\t{m.score:.4f}" for m in expected]

        code, out, _ = run_cli(
            capsys, "top", "--identifier", identifier, "--store", root, "--k", "2"
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_compute_before_index(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        populate(root, 3)
        code, _, err = run_cli(capsys, "compute", "--store", root)
        assert code == 2
        assert "run index" in err

    def test_top_before_compute(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        populate(root, 3)
        cli.main(["index", "--store", root])
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "top", "--identifier", "oai:c.example:doc00000", "--store", root
        )
        assert code == 3
        assert "error: no similarity results have been computed yet; run compute" in err
        assert "hint: run compute to refresh the similarity results" in err

    def test_top_when_stale(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        store = populate(root, 3)
        cli.main(["index", "--store", root])
        cli.main(["compute", "--store", root])
        capsys.readouterr()
        store.put_record(
            MetadataRecord(
                "oai:c.example:late",
                "2006-06-06T06:06:06Z",
                dc_fields=(("title", "late arrival"),),
            )
        )
        code, _, err = run_cli(
            capsys, "top", "--identifier", "oai:c.example:doc00000", "--store", root
        )
        assert code == 3
        assert "stale" in err

    def test_top_unknown_identifier(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        populate(root, 3)
        cli.main(["index", "--store", root])
        cli.main(["compute", "--store", root])
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "top", "--identifier", "oai:c.example:absent", "--store", root
        )
        assert code == 2
        assert "no top matches" in err


class TestBadFlagValues:
    """A flag value out of range is a usage error (exit 1), refused before
    the command does anything."""

    def test_compute_negative_k_keeps_results_fresh(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        store = populate(root, 6)
        index_store(store)
        compute_store(store, k=3)
        before = conftest.tree_bytes(store.root)
        code, _, err = run_cli(capsys, "compute", "--store", root, "--k", "-1")
        assert code == 1
        assert "k must be non-negative" in err
        check_results_fresh(store)
        assert conftest.tree_bytes(store.root) == before

    def test_compute_floor_above_one(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        code, _, err = run_cli(capsys, "compute", "--store", root, "--floor", "1.5")
        assert code == 1
        assert "score_floor" in err

    def test_top_negative_k(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        code, _, err = run_cli(
            capsys, "top", "--store", root, "--identifier", "oai:c.example:doc00000",
            "--k", "-1",
        )
        assert code == 1
        assert "k must be non-negative" in err

    @pytest.fixture
    def no_server(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("serve started a server despite a bad flag")

        monkeypatch.setattr(cli, "make_server", refuse)

    def test_serve_negative_k(self, tmp_path, capsys, no_server):
        code, _, err = run_cli(
            capsys, "serve", "--store", str(tmp_path / "store"), "--k", "-1"
        )
        assert code == 1
        assert "k must be >= 0" in err

    def test_serve_zero_page_size(self, tmp_path, capsys, no_server):
        code, _, err = run_cli(
            capsys, "serve", "--store", str(tmp_path / "store"), "--page-size", "0"
        )
        assert code == 1
        assert "page_size >= 1" in err

    def test_estimate_negative_n(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--n", "-5")
        assert code == 1
        assert out == ""
        assert "n must be non-negative" in err

    def test_estimate_zero_per_pair(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--n", "5", "--per-pair", "0")
        assert code == 1
        assert "per_pair_seconds must be positive" in err


class TestConfigFile:
    def test_file_sets_flags_win(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        populate(root, 5)
        cli.main(["index", "--store", root])
        capsys.readouterr()
        cfg = tmp_path / "simharvest.conf"
        cfg.write_text(
            f"# aggregator settings\nstore_root = {root}\nk = 2\n", encoding="utf-8"
        )

        code, _, _ = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 0
        store = RecordStore(root)
        assert len(load_top_matches(store, "oai:c.example:doc00000")) == 2

        code, _, _ = run_cli(capsys, "compute", "--config", str(cfg), "--k", "3")
        assert code == 0
        assert len(load_top_matches(store, "oai:c.example:doc00000")) == 3

    def test_global_config_position(self, tmp_path, capsys):
        cfg = tmp_path / "simharvest.conf"
        cfg.write_text("per_pair_seconds = 0.001\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "estimate", "--n", "100")
        assert code == 0
        assert "estimated seconds: 4.95\n" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("speed = fast\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "estimate", "--n", "5", "--config", str(cfg))
        assert code == 1
        assert "unknown key" in err
        assert f"{cfg}:1" in err

    def test_bad_number_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("k = plenty\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "estimate", "--n", "5", "--config", str(cfg))
        assert code == 1
        assert "needs a number" in err

    def test_missing_file_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--n", "5", "--config", str(tmp_path / "absent.conf")
        )
        assert code == 1
        assert "cannot read config file" in err

    def test_metadata_prefix_is_not_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "old.conf"
        cfg.write_text("metadata_prefix = oai_dc\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "estimate", "--n", "5", "--config", str(cfg))
        assert code == 1
        assert "unknown key 'metadata_prefix'" in err

    def test_defaults_come_from_their_owners(self):
        from simharvest import config, oai_xml, service, similarity, textpipe

        defaults = config.DEFAULTS
        assert len(defaults) == 21
        assert defaults["fields"] == ",".join(textpipe.DEFAULT_FIELDS)
        assert defaults["per_pair_seconds"] == similarity.DEFAULT_PER_PAIR_SECONDS
        assert defaults["schema_url"] == oai_xml.DEFAULT_SIMILARITY_SCHEMA_URL
        provider = service.ProviderConfig()
        for key in ("repository_name", "admin_email", "k", "page_size"):
            assert defaults[key] == getattr(provider, key)


class TestDupReport:
    def build(self, tmp_path):
        root = str(tmp_path / "store")
        store = populate(root, 3, seed=9)
        shared = (
            ("title", "Reentry heating analysis"),
            ("description", "boundary layer transition heating during reentry"),
        )
        store.put_record(
            MetadataRecord(
                "oai:x.example:dup",
                "2005-05-05T05:05:05Z",
                dc_fields=shared,
                provenance=(
                    '<provenance xmlns="http://www.openarchives.org/OAI/2.0/provenance">'
                    '<originDescription harvestDate="2005-01-01T00:00:00Z" altered="false">'
                    "<baseURL>http://x.example/oai</baseURL>"
                    "<identifier>oai:y.example:dup</identifier>"
                    "</originDescription></provenance>",
                ),
            )
        )
        store.put_record(
            MetadataRecord(
                "oai:y.example:dup", "2005-05-05T05:05:06Z", dc_fields=shared
            )
        )
        cli.main(["index", "--store", root])
        cli.main(["compute", "--store", root])
        return root, store

    def test_report_lines(self, tmp_path, capsys):
        root, _ = self.build(tmp_path)
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "dup-report", "--store", root, "--threshold", "0.95"
        )
        assert code == 0
        assert out == "oai:x.example:dup\toai:y.example:dup\t1.0000\tprovenance-linked\n"
        assert err == "pairs at or above 0.95: 1\n"

    def test_unlinked_pairs_flagged_with_dash(self, tmp_path, capsys):
        root, _ = self.build(tmp_path)
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "dup-report", "--store", root, "--threshold", "0"
        )
        assert code == 0
        assert any(line.endswith("\t-") for line in out.splitlines())

    def test_threshold_out_of_range(self, tmp_path, capsys):
        root, _ = self.build(tmp_path)
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "dup-report", "--store", root, "--threshold", "2"
        )
        assert code == 2
        assert "threshold" in err

    def test_threshold_from_config_file(self, tmp_path, capsys):
        root, _ = self.build(tmp_path)
        cfg = tmp_path / "dup.conf"
        cfg.write_text(f"store_root = {root}\nthreshold = 0.9\n", encoding="utf-8")
        capsys.readouterr()
        code, out, err = run_cli(capsys, "dup-report", "--config", str(cfg))
        assert code == 0
        assert out == "oai:x.example:dup\toai:y.example:dup\t1.0000\tprovenance-linked\n"
        assert err == "pairs at or above 0.9: 1\n"
        code, _, err = run_cli(
            capsys, "dup-report", "--config", str(cfg), "--threshold", "0"
        )
        assert code == 0
        assert err.startswith("pairs at or above 0: ")

    def test_threshold_missing_is_usage_error(self, tmp_path, capsys):
        root, _ = self.build(tmp_path)
        capsys.readouterr()
        code, out, err = run_cli(capsys, "dup-report", "--store", root)
        assert code == 1
        assert out == ""
        assert "dup-report needs --threshold (or threshold in the config file)" in err

    def test_stale_results_exit_three(self, tmp_path, capsys):
        root, store = self.build(tmp_path)
        capsys.readouterr()
        store.put_record(
            MetadataRecord(
                "oai:c.example:late",
                "2006-06-06T06:06:06Z",
                dc_fields=(("title", "late arrival"),),
            )
        )
        code, _, err = run_cli(
            capsys, "dup-report", "--store", root, "--threshold", "0.5"
        )
        assert code == 3
        assert "stale" in err


class TestHarvestCommand:
    def test_harvest_then_full_chain(self, tmp_path, capsys):
        rng = random.Random(13)
        upstream = MockUpstream(
            oracle.synthetic_records(rng, 25, id_prefix="oai:up.example:rec"),
            page_size=10,
        )
        root = str(tmp_path / "store")
        with http_server(upstream.wsgi) as url:
            code, out, _ = run_cli(capsys, "harvest", "--base-url", url, "--store", root)
        assert code == 0
        assert "records received: 25\n" in out
        assert "pages fetched: 3\n" in out
        assert "retries: 0\n" in out
        store = RecordStore(root)
        assert len(store.list_identifiers()) == 25

        assert cli.main(["index", "--store", root]) == 0
        assert cli.main(["compute", "--store", root, "--k", "5"]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "top", "--identifier", "oai:up.example:rec00000", "--store", root
        )
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_duplicate_upstream_identifiers_reported(self, tmp_path, capsys):
        rng = random.Random(17)
        records = oracle.synthetic_records(rng, 12, id_prefix="oai:up.example:rec")
        upstream = MockUpstream(records + [records[3]], page_size=10)
        root = str(tmp_path / "store")
        with http_server(upstream.wsgi) as url:
            code, out, _ = run_cli(capsys, "harvest", "--base-url", url, "--store", root)
        assert code == 0
        assert "records received: 12\n" in out
        assert "repeated upstream identifiers: 1\n" in out

    def test_identifier_collision_reported(self, tmp_path, capsys):
        record_a = MetadataRecord(
            "oai:shared.example:1",
            "2004-04-04T04:04:04Z",
            dc_fields=(("title", "first copy"),),
        )
        record_b = MetadataRecord(
            "oai:shared.example:1",
            "2004-04-04T04:04:04Z",
            dc_fields=(("title", "second copy differs"),),
        )
        root = str(tmp_path / "store")
        with http_server(MockUpstream([record_a]).wsgi) as url:
            assert cli.main(["harvest", "--base-url", url, "--store", root]) == 0
        capsys.readouterr()
        with http_server(MockUpstream([record_b]).wsgi) as url:
            code, out, _ = run_cli(capsys, "harvest", "--base-url", url, "--store", root)
        assert code == 0
        assert "identifier collision (last write wins): oai:shared.example:1" in out

    def test_missing_base_url(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "harvest", "--store", str(tmp_path / "s"))
        assert code == 1
        assert "--base-url" in err

    def test_upstream_protocol_error_is_runtime_failure(self, tmp_path, capsys):
        # the mock answers an empty collection with badResumptionToken
        upstream = MockUpstream([])
        root = str(tmp_path / "store")
        with http_server(upstream.wsgi) as url:
            code, _, err = run_cli(capsys, "harvest", "--base-url", url, "--store", root)
        assert code == 2
        assert "resumption token" in err


class TestServeCommand:
    def test_serve_answers_protocol_requests(self, tmp_path):
        root = str(tmp_path / "store")
        populate(root, 4, seed=19)
        index_store(RecordStore(root))
        compute_store(RecordStore(root), k=2)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "simharvest",
                "serve",
                "--store",
                root,
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"on (http://127\.0\.0\.1:\d+)/", banner)
            assert match, f"unexpected banner: {banner!r}"
            base = match.group(1)
            with urllib.request.urlopen(f"{base}/?verb=Identify", timeout=10) as reply:
                body = reply.read()
            assert conformance_problems(body) == []
            parsed = parse_response(body, "Identify")
            assert parsed.identify["repositoryName"] == "simharvest aggregator"
            record_url = (
                f"{base}/?verb=GetRecord&metadataPrefix=oai_dc"
                "&identifier=oai:c.example:doc00000"
            )
            with urllib.request.urlopen(record_url, timeout=10) as reply:
                body = reply.read()
            assert conformance_problems(body) == []
            parsed = parse_response(body, "GetRecord")
            assert "oai:c.example:doc00000" in parsed.similarity
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


def test_keyboard_interrupt_exits_runtime(monkeypatch, capsys):
    def interrupted(args, settings):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "index", interrupted)
    code, _, err = run_cli(capsys, "index")
    assert code == 2
    assert "interrupted" in err

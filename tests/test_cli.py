"""Command-line interface tests: outputs, exit codes, and configuration."""

import contextlib
import os
import pkgutil
import random
import re
import signal
import socket
import subprocess
import sys
import urllib.parse
import urllib.request
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import conftest
import oracle
from conformance import conformance_problems, similarity_containers
from mock_upstream import MockUpstream, http_server
import simharvest
from simharvest import cli
from simharvest.harvester import HarvestSession, harvest
from simharvest.oai_xml import OAI_NS
from simharvest.pipeline import (
    STAGES,
    check_results_fresh,
    compute_store,
    index_store,
    load_top_matches,
)
from simharvest.records import MetadataRecord
from simharvest.service import OaiProvider
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


def fresh_python(*args):
    """Run a new interpreter that imports the simharvest these tests import."""
    env = dict(os.environ, PYTHONPATH=str(Path(simharvest.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


class TestPackage:
    # the package re-exports nothing, so no module may lean on another
    # having been imported first
    @pytest.mark.parametrize(
        "module",
        [
            info.name
            for info in pkgutil.iter_modules(simharvest.__path__)
            if info.name != "__main__"
        ],
    )
    def test_each_module_imports_alone(self, module):
        result = fresh_python("-c", f"import simharvest.{module}")
        assert result.returncode == 0, result.stderr

    def test_module_entry_point_lists_the_commands(self):
        result = fresh_python("-m", "simharvest", "--help")
        assert result.returncode == 0, result.stderr
        assert "{harvest,index,compute,top,serve,estimate,dup-report}" in result.stdout


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

    def test_compute_on_stale_tf_names_only_index(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        store = populate(root, 3)
        cli.main(["index", "--store", root])
        store.put_record(
            MetadataRecord(
                "oai:c.example:doc00000",
                "2006-06-06T06:06:06Z",
                dc_fields=(("title", "changed after the index"),),
            )
        )
        capsys.readouterr()
        code, out, err = run_cli(capsys, "compute", "--store", root)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: term frequencies are stale: records changed after the last "
            "index; run index"
        ]
        assert "run compute" not in err

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

    def test_top_deleted_record(self, tmp_path, capsys):
        """A deleted record has no matches to show, as /similar answers 404."""
        root = str(tmp_path / "store")
        store = populate(root, 3)
        store.put_record(
            MetadataRecord("oai:c.example:gone", "2006-06-06T06:06:06Z", deleted=True)
        )
        cli.main(["index", "--store", root])
        cli.main(["compute", "--store", root])
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "top", "--identifier", "oai:c.example:gone", "--store", root
        )
        assert (code, out) == (2, "")
        assert "record oai:c.example:gone is deleted" in err

    def test_top_empty_identifier(self, tmp_path, capsys):
        """No record has the empty identifier, whose top file would be
        top_matches/ itself."""
        root = str(tmp_path / "store")
        populate(root, 3)
        cli.main(["index", "--store", root])
        cli.main(["compute", "--store", root])
        capsys.readouterr()
        code, out, err = run_cli(capsys, "top", "--identifier", "", "--store", root)
        assert (code, out) == (2, "")
        assert "no top matches stored" in err

    @pytest.mark.parametrize("length", [300, 5000])
    def test_top_identifier_too_long_to_store(self, tmp_path, capsys, length):
        root = str(tmp_path / "store")
        populate(root, 3)
        cli.main(["index", "--store", root])
        cli.main(["compute", "--store", root])
        capsys.readouterr()
        identifier = "oai:c.example:" + "a" * length
        code, _, err = run_cli(
            capsys, "top", "--identifier", identifier, "--store", root
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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_compute_jobs_below_one_keeps_results_fresh(self, tmp_path, capsys, jobs):
        root = str(tmp_path / "store")
        store = populate(root, 6)
        index_store(store)
        compute_store(store, k=3)
        before = conftest.tree_bytes(store.root)
        code, _, err = run_cli(capsys, "compute", "--store", root, "--jobs", jobs)
        assert code == 1
        assert f"jobs must be at least 1, got {jobs}" in err
        check_results_fresh(store)
        assert conftest.tree_bytes(store.root) == before

    def test_compute_jobs_zero_in_config_file(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        index_store(populate(root, 6))
        cfg = tmp_path / "simharvest.conf"
        cfg.write_text(f"store_root = {root}\njobs = 0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 1
        assert "jobs must be at least 1, got 0" in err

    def test_compute_floor_is_refused(self, tmp_path, capsys):
        # compute writes every pair: there is no floor to set
        root = str(tmp_path / "store")
        store = populate(root, 6)
        index_store(store)
        before = conftest.tree_bytes(store.root)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["compute", "--store", root, "--floor", "0.3"])
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --floor 0.3" in capsys.readouterr().err
        assert conftest.tree_bytes(store.root) == before

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
        RecordStore(tmp_path / "store")
        code, _, err = run_cli(
            capsys, "serve", "--store", str(tmp_path / "store"), "--k", "-1"
        )
        assert code == 1
        assert "k must be >= 0" in err

    def test_serve_zero_page_size(self, tmp_path, capsys, no_server):
        RecordStore(tmp_path / "store")
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

    @pytest.mark.parametrize(
        ("n", "per_pair", "message"),
        [
            ("10", "inf", "positive and finite"),
            ("10", "1e308", "overflows"),
            ("9" * 200, "0.0036", "overflows"),
        ],
    )
    def test_estimate_refuses_infinite_projection(self, capsys, n, per_pair, message):
        code, out, err = run_cli(capsys, "estimate", "--n", n, "--per-pair", per_pair)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestOneLineRefusals:
    """Bad settings exit 1 and operating-system failures exit 2, each with an
    error line and no traceback."""

    @staticmethod
    def simharvest(*argv):
        result = fresh_python("-m", "simharvest", *argv)
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ")
        return result

    def test_misspelled_field_keeps_the_index(self, tmp_path):
        root = str(tmp_path / "store")
        store = populate(root, 4)
        index_store(store)
        before = conftest.tree_bytes(store.root)
        result = self.simharvest("index", "--store", root, "--fields", "titel")
        assert result.returncode == 1
        assert "fields must name" in result.stderr
        assert conftest.tree_bytes(store.root) == before

    def test_missing_stopword_file(self, tmp_path):
        root = str(tmp_path / "store")
        populate(root, 2)
        missing = str(tmp_path / "absent.txt")
        result = self.simharvest("index", "--store", root, "--stopwords", missing)
        assert result.returncode == 1
        assert f"cannot read stopword file {missing}" in result.stderr

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--config", "cannot read config file"),
            ("--stopwords", "cannot read stopword file"),
        ],
    )
    def test_file_that_is_not_utf8(self, tmp_path, flag, message):
        path = tmp_path / "latin1.txt"
        path.write_bytes("k = 3 # caf\xe9\n".encode("latin-1"))
        root = str(tmp_path / "store")
        RecordStore(root)
        result = self.simharvest("index", "--store", root, flag, str(path))
        assert result.returncode == 1
        assert message in result.stderr

    def test_store_that_is_a_file(self, tmp_path):
        path = tmp_path / "store"
        path.write_text("not a directory\n", encoding="utf-8")
        result = self.simharvest("compute", "--store", str(path))
        assert result.returncode == 2

    def test_busy_port(self, tmp_path):
        RecordStore(tmp_path / "store")
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = str(holder.getsockname()[1])
            result = self.simharvest(
                "serve", "--store", str(tmp_path / "store"), "--port", port
            )
        assert result.returncode == 2

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_out_of_range(self, tmp_path, port):
        result = self.simharvest(
            "serve", "--store", str(tmp_path / "store"), "--port", port
        )
        assert result.returncode == 1
        assert f"bind_port must lie in [0, 65535], got {port}" in result.stderr


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

    def test_score_floor_is_not_a_key(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        index_store(populate(root, 6))
        cfg = tmp_path / "old.conf"
        cfg.write_text(f"store_root = {root}\nscore_floor = 0.3\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 1
        assert "unknown key 'score_floor'" in err

    def test_defaults_come_from_their_owners(self):
        from simharvest import config, oai_xml, service, similarity, textpipe

        defaults = config.DEFAULTS
        assert len(defaults) == 20
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
        assert code == 1
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

    def test_empty_set_is_a_usage_error(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        code, _, err = run_cli(
            capsys, "harvest", "--base-url", "http://localhost:9/oai", "--store", root,
            "--set", "",
        )
        assert code == 1
        assert "set must be non-empty" in err

    def test_upstream_protocol_error_is_runtime_failure(self, tmp_path, capsys):
        # the mock answers an empty collection with badResumptionToken
        upstream = MockUpstream([])
        root = str(tmp_path / "store")
        with http_server(upstream.wsgi) as url:
            code, _, err = run_cli(capsys, "harvest", "--base-url", url, "--store", root)
        assert code == 2
        assert "resumption token" in err

    def test_non_dc_element_in_a_page_is_a_runtime_failure(self, tmp_path, capsys):
        upstream = MockUpstream(oracle.synthetic_records(random.Random(23), 3))
        upstream.rewrite_page = lambda body: body.replace(
            b"</oai_dc:dc>", b'<title xmlns="">x</title></oai_dc:dc>', 1
        )
        root = str(tmp_path / "store")
        with http_server(upstream.wsgi) as url:
            code, _, err = run_cli(capsys, "harvest", "--base-url", url, "--store", root)
        assert code == 2
        assert "non-DC element title" in err

    def test_mixed_content_in_a_page_is_a_runtime_failure(self, tmp_path, capsys):
        upstream = MockUpstream(oracle.synthetic_records(random.Random(23), 3))
        upstream.rewrite_page = lambda body: body.replace(
            b"</dc:title>", b'<b xmlns="">x</b>tail</dc:title>', 1
        )
        root = str(tmp_path / "store")
        with http_server(upstream.wsgi) as url:
            code, _, err = run_cli(capsys, "harvest", "--base-url", url, "--store", root)
        assert code == 2
        assert "mixed content in DC element title" in err
        assert RecordStore(root).list_identifiers() == []

    def test_identifier_too_long_to_store_is_a_runtime_failure(self, tmp_path, capsys):
        # the flat top-match file name would be 260 bytes
        long_record = MetadataRecord(
            "oai:x:" + "b" * 250, "2004-04-04T04:04:04Z", dc_fields=(("title", "t"),)
        )
        root = str(tmp_path / "store")
        with http_server(MockUpstream([long_record]).wsgi) as url:
            code, _, err = run_cli(capsys, "harvest", "--base-url", url, "--store", root)
        assert code == 2
        assert "too long to store" in err
        store = RecordStore(root)
        assert store.list_identifiers() == []
        assert store.epoch() == 0

    def test_malformed_similarity_container_is_dropped(self, tmp_path, capsys):
        # an upstream aggregator's <about> containers: no subject, a score
        # without four decimals, and a child that is not a match
        containers = [
            f'<about><similarity xmlns="urn:simharvest:similarity"{attributes}>'
            f"{children}</similarity></about>".encode()
            for attributes, children in [
                (' computedDate="2006-04-19T12:00:00Z"', ""),
                (
                    ' subject="oai:x:a" computedDate="2006-04-19T12:00:00Z"',
                    '<match identifier="oai:x:b" score="0.5"/>',
                ),
                (
                    ' subject="oai:x:a" computedDate="2006-04-19T12:00:00Z"',
                    '<foreign xmlns="urn:example:foreign"/>',
                ),
            ]
        ]

        def with_containers(body):
            parts = body.split(b"</metadata>")
            assert len(parts) == len(containers) + 1
            return b"".join(
                part + b"</metadata>" + about for part, about in zip(parts, containers)
            ) + parts[-1]

        upstream = MockUpstream(oracle.synthetic_records(random.Random(29), 3))
        clean, library, command = (str(tmp_path / name) for name in ("a", "b", "c"))
        with http_server(upstream.wsgi) as url:
            assert cli.main(["harvest", "--base-url", url, "--store", clean]) == 0
            upstream.rewrite_page = with_containers
            harvest(HarvestSession(base_url=url), RecordStore(library).put_record)
            code, _, err = run_cli(capsys, "harvest", "--base-url", url, "--store", command)
        assert code == 0, err
        expected = conftest.tree_bytes(Path(clean) / "records")
        assert len(expected) == 3
        for root in (library, command):
            assert conftest.tree_bytes(Path(root) / "records") == expected


class TestMissingStore:
    """Every command but harvest opens the store already at --store: on a
    path that holds none it exits 1 with one error line and creates nothing.
    Commands that only read write nothing to a store that holds one."""

    @pytest.mark.parametrize(
        "command",
        [
            ["index"],
            ["compute"],
            ["top", "--identifier", "x"],
            ["dup-report", "--threshold", "0.9"],
            ["serve", "--port", "0"],
        ],
        ids=lambda command: command[0],
    )
    def test_refused_and_not_created(self, tmp_path, command):
        path = tmp_path / "typo"
        result = fresh_python("-m", "simharvest", *command, "--store", str(path))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: no store at {path}"]
        assert not path.exists()

    def test_reading_commands_add_nothing(self, tmp_path, capsys):
        root = tmp_path / "store"
        (root / "records").mkdir(parents=True)
        code, _, _ = run_cli(capsys, "top", "--store", str(root), "--identifier", "x")
        assert code == 3
        code, _, _ = run_cli(capsys, "dup-report", "--store", str(root), "--threshold", "0.9")
        assert code == 3
        provider = OaiProvider(RecordStore.open(root))
        provider.handle_request({"verb": ["Identify"]})
        assert sorted(root.rglob("*")) == [root / "records"]


@contextlib.contextmanager
def serving(root, *options):
    """`simharvest serve --port 0` on root, with any further options, in a
    child process; yields the process and its base URL, and stops the
    process if it still runs."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "simharvest", "serve", "--store", root, "--port", "0"]
        + list(options),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"on (http://\S+:\d+)/$", banner.rstrip())
        assert match, f"unexpected banner: {banner!r}"
        yield proc, match.group(1)
    finally:
        if proc.poll() is None:
            proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as reply:
        assert reply.status == 200
        return reply.read()


def get_record_url(base, identifier):
    return f"{base}/?verb=GetRecord&metadataPrefix=oai_dc&identifier={identifier}"


class TestServeCommand:
    IDS = [f"oai:c.example:doc{i:05d}" for i in range(6)]

    @pytest.fixture
    def root(self, tmp_path):
        root = str(tmp_path / "store")
        populate(root, len(self.IDS), seed=19)
        index_store(RecordStore(root))
        compute_store(RecordStore(root), k=2)
        return root

    def test_serve_answers_protocol_requests(self, root):
        with serving(root) as (_, base):
            body = fetch(f"{base}/?verb=Identify")
            assert conformance_problems(body) == []
            identify = ET.fromstring(body).find(f"{{{OAI_NS}}}Identify")
            assert identify.findtext(f"{{{OAI_NS}}}repositoryName") == (
                "simharvest aggregator"
            )
            body = fetch(get_record_url(base, self.IDS[0]))
            assert conformance_problems(body) == []
            assert self.IDS[0] in similarity_containers(body)

    def test_base_url_names_the_bound_port(self, root):
        with serving(root) as (_, base):
            assert re.fullmatch(r"http://127\.0\.0\.1:\d+", base)
            body = fetch(f"{base}/?verb=Identify")
        identify = ET.fromstring(body).find(f"{{{OAI_NS}}}Identify")
        assert identify.findtext(f"{{{OAI_NS}}}baseURL") == f"{base}/oai"
        assert ET.fromstring(body).findtext(f"{{{OAI_NS}}}request") == f"{base}/oai"

    def test_ipv6_literal_binds_and_is_bracketed_in_urls(self, root):
        try:
            socket.create_server(("::1", 0), family=socket.AF_INET6).close()
        except OSError:
            pytest.skip("::1 cannot be bound on this host")
        with serving(root, "--host", "::1") as (_, base):
            assert re.fullmatch(r"http://\[::1\]:\d+", base)
            body = fetch(f"{base}/?verb=Identify")
        identify = ET.fromstring(body).find(f"{{{OAI_NS}}}Identify")
        assert identify.findtext(f"{{{OAI_NS}}}baseURL") == f"{base}/oai"

    def test_idle_connections_hold_up_no_request(self, root):
        with serving(root) as (_, base), contextlib.ExitStack() as idle:
            address = urllib.parse.urlsplit(base)
            for _ in range(20):
                idle.enter_context(
                    socket.create_connection((address.hostname, address.port), timeout=10)
                )
            assert conformance_problems(fetch(f"{base}/?verb=Identify")) == []
            body = fetch(get_record_url(base, self.IDS[1]))
            assert self.IDS[1] in similarity_containers(body)

    def test_concurrent_clients_get_their_own_records(self, root):
        provider = OaiProvider(RecordStore.open(root))
        expected = {
            identifier: similarity_containers(
                provider.handle_request(
                    {"verb": ["GetRecord"], "metadataPrefix": ["oai_dc"],
                     "identifier": [identifier]}
                )
            )
            for identifier in self.IDS
        }

        def client(number):
            for request in range(20):
                identifier = self.IDS[(number + request) % len(self.IDS)]
                body = fetch(get_record_url(base, identifier))
                assert conformance_problems(body) == []
                assert similarity_containers(body) == expected[identifier]
            return number

        with serving(root) as (_, base), ThreadPoolExecutor(8) as pool:
            assert sorted(pool.map(client, range(8), timeout=60)) == list(range(8))

    def test_interrupt_stops_an_idle_server(self, root):
        with serving(root) as (proc, base):
            fetch(f"{base}/?verb=Identify")  # leaves an acceptor thread beside main
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 2
            assert "interrupted" in proc.stdout.read()

    def test_interrupt_inside_a_request_stops_the_server(self):
        # wsgiref's handler logs and swallows whatever a request raises, a
        # KeyboardInterrupt too, so none may be raised on a serving thread
        script = """
import os, signal, socket
from wsgiref.simple_server import make_server
from simharvest import cli

def interrupting(environ, start_response):
    os.kill(os.getpid(), signal.SIGINT)
    start_response("200 OK", [("Content-Type", "text/plain")])
    return [b"ok"]

with make_server(
    "127.0.0.1", 0, interrupting, server_class=cli._AcceptingWSGIServer
) as server:
    client = socket.create_connection(("127.0.0.1", server.server_port))
    client.sendall(b"GET / HTTP/1.0\\r\\n\\r\\n")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupted")
    client.close()
"""
        result = fresh_python("-c", script)
        assert (result.returncode, result.stdout) == (0, "interrupted\n")


def test_keyboard_interrupt_exits_runtime(monkeypatch, capsys):
    def interrupted(args, settings):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "index", interrupted)
    code, _, err = run_cli(capsys, "index")
    assert code == 2
    assert "interrupted" in err

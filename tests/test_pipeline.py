"""Pipeline tests: indexing, computing, persistence, and staleness handling."""

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
import oracle
from simharvest import cli, similarity
from simharvest.exceptions import (
    ConfigError,
    NotFoundError,
    StalenessError,
    StorageError,
)
from simharvest.oai_xml import format_score
from simharvest.pipeline import (
    STAGES,
    check_results_fresh,
    compute_store,
    index_store,
    iter_similarity_lines,
    load_top_matches,
    read_compute_meta,
)
from simharvest.records import MetadataRecord, is_valid_datestamp
from simharvest.service import duplicate_report
from simharvest.similarity import VectorSpaceModel, estimate_runtime, pair_count
from simharvest.store import RecordStore
from simharvest.textpipe import load_stopwords


def tiny_records():
    return [
        MetadataRecord(
            "oai:t.example:1",
            "2001-01-01T00:00:00Z",
            dc_fields=(
                ("title", "Tire friction"),
                ("description", "Friction on wet runway"),
            ),
        ),
        MetadataRecord(
            "oai:t.example:2",
            "2001-01-02T00:00:00Z",
            dc_fields=(("title", "Wind tunnel"), ("subject", "runway")),
        ),
    ]


def populate(store, n, seed=11, prefix="oai:p.example:doc"):
    rng = random.Random(seed)
    for record in oracle.synthetic_records(rng, n, id_prefix=prefix):
        store.put_record(record)


def top_exit_code(store, identifier):
    """Exit code of the CLI's top command, which serves one top file."""
    return cli.main(["top", "--identifier", identifier, "--store", str(store.root)])


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    """Twelve synthetic records, indexed and computed at k=4."""
    store = RecordStore(tmp_path_factory.mktemp("pipeline") / "store")
    populate(store, 12)
    index_store(store)
    report = compute_store(store, k=4)
    return store, report


class TestIndexStore:
    def test_hand_counted_report(self, store, tmp_path):
        for record in tiny_records():
            store.put_record(record)
        empty_stopwords = tmp_path / "none.txt"
        empty_stopwords.write_text("", encoding="utf-8")
        report = index_store(store, stopwords_path=empty_stopwords)
        assert report.records_indexed == 2
        assert report.distinct_terms == 7  # friction on runway tire wet wind tunnel
        assert store.get_tf("oai:t.example:1").counts == {
            "friction": 2,
            "on": 1,
            "runway": 1,
            "tire": 1,
            "wet": 1,
        }
        assert store.get_tf("oai:t.example:2").counts == {
            "runway": 1,
            "tunnel": 1,
            "wind": 1,
        }

    def test_default_stopwords_applied(self, store):
        for record in tiny_records():
            store.put_record(record)
        report = index_store(store)
        assert "on" not in store.get_tf("oai:t.example:1").counts
        assert report.distinct_terms == 6

    def test_field_selection(self, store):
        for record in tiny_records():
            store.put_record(record)
        index_store(store, fields=("title",))
        assert store.get_tf("oai:t.example:2").counts == {"tunnel": 1, "wind": 1}

    def test_deleted_records_index_to_empty_vectors(self, store):
        for record in tiny_records():
            store.put_record(record)
        store.put_record(
            MetadataRecord("oai:t.example:gone", "2001-02-01T00:00:00Z", deleted=True)
        )
        report = index_store(store)
        assert report.records_indexed == 3
        assert store.get_tf("oai:t.example:gone").counts == {}

    def test_empty_store_indexes_nothing(self, store):
        report = index_store(store)
        assert report.records_indexed == 0
        assert report.distinct_terms == 0

    def test_trees_mirror_after_index(self, store):
        for record in tiny_records():
            store.put_record(record)
        index_store(store)
        tf_paths = conftest.tree_relpaths(store.tf_dir, ".tf")
        assert tf_paths == conftest.tree_relpaths(store.records_dir, ".xml")


class TestComputeStore:
    def test_report_accounting(self, computed):
        store, report = computed
        assert report.documents == 12
        assert report.pair_count == pair_count(12) == 66
        assert report.pairs_written == 66  # every pair is written
        assert report.k == 4
        assert report.epoch == store.epoch()
        assert is_valid_datestamp(report.computed_at)
        assert report.wall_seconds > 0
        assert report.per_pair_seconds == report.wall_seconds / report.pair_count

    def test_pair_file_rows(self, computed):
        store, report = computed
        rows = list(iter_similarity_lines(store))
        assert len(rows) == report.pairs_written
        for id_a, id_b, score in rows:
            assert id_a < id_b
            assert 0.0 <= score <= 1.0
        ordered = [(id_a, id_b) for id_a, id_b, _ in rows]
        assert ordered == sorted(ordered)

    def test_weights_tree_matches_engine(self, computed):
        store, _ = computed
        identifiers = store.list_identifiers()
        model = VectorSpaceModel().fit(
            [store.get_tf(identifier) for identifier in identifiers]
        )
        for identifier in identifiers:
            stored = conftest.read_weights(store, identifier)
            assert stored == model.vectors_[identifier]  # repr round trip is exact

    def test_top_files_match_engine_ranking(self, computed):
        store, report = computed
        identifiers = store.list_identifiers()
        model = VectorSpaceModel().fit(
            [store.get_tf(identifier) for identifier in identifiers]
        )
        for identifier in identifiers:
            stored = load_top_matches(store, identifier)
            expected = oracle.top_k(model, identifier, report.k)
            assert [match.identifier for match in stored] == [
                match.identifier for match in expected
            ]
            for got, want in zip(stored, expected):
                assert got.score == pytest.approx(want.score, abs=5e-5)

    def test_trees_mirror_after_compute(self, computed):
        store, _ = computed
        weights_paths = conftest.tree_relpaths(store.weights_dir, ".w")
        assert weights_paths == conftest.tree_relpaths(store.records_dir, ".xml")

    def test_load_top_matches_depth(self, computed):
        store, report = computed
        identifier = store.list_identifiers()[0]
        full = load_top_matches(store, identifier)
        assert len(full) == report.k
        assert load_top_matches(store, identifier, 2) == full[:2]
        assert load_top_matches(store, identifier, 99) == full

    def test_load_top_matches_unknown_identifier(self, computed):
        store, _ = computed
        with pytest.raises(NotFoundError, match="no top matches"):
            load_top_matches(store, "oai:p.example:absent")

    def test_meta_round_trip(self, computed):
        store, report = computed
        meta = read_compute_meta(store)
        assert meta["epoch"] == str(report.epoch)
        assert meta["computed_at"] == report.computed_at
        assert meta["documents"] == "12"
        assert meta["pair_count"] == "66"
        assert meta["pairs_written"] == str(report.pairs_written)
        assert float(meta["wall_seconds"]) == report.wall_seconds
        assert float(meta["per_pair_seconds"]) == report.per_pair_seconds
        assert meta["k"] == "4"

    def test_stage_timings(self, computed):
        store, report = computed
        assert tuple(report.stage_seconds) == STAGES
        assert all(seconds >= 0.0 for seconds in report.stage_seconds.values())
        assert sum(report.stage_seconds.values()) <= report.wall_seconds
        meta = read_compute_meta(store)
        keys = list(meta)
        assert keys[:8] == [
            "epoch",
            "computed_at",
            "documents",
            "pair_count",
            "pairs_written",
            "wall_seconds",
            "per_pair_seconds",
            "k",
        ]
        assert keys[8:] == [f"{stage}_seconds" for stage in STAGES]
        for stage, seconds in report.stage_seconds.items():
            assert float(meta[f"{stage}_seconds"]) == seconds

    def test_bad_arguments_leave_results_fresh(self, store):
        populate(store, 6)
        index_store(store)
        compute_store(store, k=3)
        before = conftest.tree_bytes(store.root)
        with pytest.raises(ConfigError):
            compute_store(store, k=-1)
        check_results_fresh(store)
        assert conftest.tree_bytes(store.root) == before

    def test_empty_store_refuses(self, store):
        with pytest.raises(NotFoundError, match="harvest before computing"):
            compute_store(store)

    def test_unindexed_store_refuses(self, store):
        for record in tiny_records():
            store.put_record(record)
        with pytest.raises(NotFoundError, match="run index"):
            compute_store(store)

    def test_partially_indexed_store_refuses(self, store):
        records = tiny_records()
        store.put_record(records[0])
        index_store(store)
        store.put_record(records[1])  # no tf vector yet
        with pytest.raises(NotFoundError, match="run index"):
            compute_store(store)

    def test_stray_top_files_are_cleared(self, store):
        for record in tiny_records():
            store.put_record(record)
        index_store(store)
        store.top_dir.mkdir(parents=True, exist_ok=True)
        stray = store.top_dir / "leftover"
        stray.write_text("junk", encoding="utf-8")
        compute_store(store, k=1)
        assert not stray.exists()

    def test_readers_find_every_top_file_whole_during_a_recompute(
        self, store, monkeypatch
    ):
        populate(store, 8, seed=73)
        index_store(store)
        compute_store(store, k=3)
        identifiers = store.list_identifiers()
        expected = {identifier: load_top_matches(store, identifier) for identifier in identifiers}
        assert {len(matches) for matches in expected.values()} == {3}
        checks = []

        def every_top_file_whole():
            checks.append(None)
            for identifier in identifiers:
                assert load_top_matches(store, identifier) == expected[identifier]

        on_each_top_write(monkeypatch, store, every_top_file_whole)
        compute_store(store, k=3, jobs=1)
        assert len(checks) >= 2 * len(identifiers)

    def test_a_top_file_write_touches_no_other_top_file(self, store, monkeypatch):
        # oai:x:a.tmp's top-file name is oai:x:a's with ".tmp" appended
        texts = {"a": "alpha beta", "a.tmp": "alpha gamma", "b": "beta", "c": "gamma"}
        for name, text in texts.items():
            store.put_record(
                MetadataRecord(
                    f"oai:x:{name}", "2001-01-01T00:00:00Z", dc_fields=(("title", text),)
                )
            )
        index_store(store)
        compute_store(store, k=3)
        expected = {path.name: path.read_bytes() for path in store.top_dir.iterdir()}
        assert len(set(expected.values())) == len(texts)

        def no_top_file_changed():
            assert {
                path.name: path.read_bytes()
                for path in store.top_dir.iterdir()
                if path.name in expected
            } == expected

        on_each_top_write(monkeypatch, store, no_top_file_changed)
        compute_store(store, k=3, jobs=1)
        no_top_file_changed()

    def test_top_files_tie_break(self, store):
        texts = {"subject": "alpha beta", "b": "alpha", "c": "alpha", "d": "gamma"}
        for name, text in texts.items():
            store.put_record(
                MetadataRecord(
                    f"oai:x:{name}", "2001-01-01T00:00:00Z", dc_fields=(("title", text),)
                )
            )
        index_store(store)
        compute_store(store, k=10)
        top = load_top_matches(store, "oai:x:subject")
        assert [m.identifier for m in top][:2] == ["oai:x:b", "oai:x:c"]
        assert top[0].score == top[1].score
        assert "oai:x:subject" not in [m.identifier for m in top]
        assert len(top) == 3  # only n-1 candidates exist

    @pytest.mark.parametrize("k", [0, 5, 9])
    def test_top_file_depth_edges(self, store, k):
        populate(store, 6, seed=71)
        index_store(store)
        report = compute_store(store, k=k)
        identifiers = store.list_identifiers()
        model = VectorSpaceModel().fit([store.get_tf(i) for i in identifiers])
        for identifier in identifiers:
            expected = "".join(
                f"{m.identifier}\t{format_score(m.score)}\n"
                for m in oracle.top_k(model, identifier, k)
            )
            assert store.top_path(identifier).read_text(encoding="utf-8") == expected
            assert len(expected.splitlines()) == min(k, 5)
        rows = store.similarities_path.read_text().splitlines()
        assert len(rows) == report.pairs_written == 15
        assert list(store.root.glob("%tmp.*")) == []

    def test_temporaries_of_dead_processes_are_swept(self, store):
        populate(store, 6, seed=73)
        index_store(store)
        compute_store(store, k=2)
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()
        dead = f"%tmp.{child.pid}.0"
        live = f"%tmp.{os.getpid()}.{2**40}"
        identifier = store.list_identifiers()[0]
        tf_bucket = store.tf_path(identifier).parent
        weights_bucket = store.weights_path(identifier).parent
        places = (
            store.root, store.tf_dir, tf_bucket, store.weights_dir, weights_bucket
        )
        for place in places:
            for name in (dead, live):
                (place / name).write_bytes(b"left by a killed write")
        # readers remove nothing
        before = conftest.tree_bytes(store.root)
        reader = RecordStore.open(store.root)
        reader.catalog()
        load_top_matches(reader, identifier)
        duplicate_report(reader, 0.0)
        assert conftest.tree_bytes(store.root) == before

        def left(name):
            return [place for place in places if (place / name).exists()]

        index_store(store)
        assert left(dead) == [store.root, store.weights_dir, weights_bucket]
        compute_store(store, k=2)
        assert left(dead) == []
        assert left(live) == list(places)

    def test_temporaries_not_shown_dead_stay(self, store, monkeypatch):
        populate(store, 6, seed=74)
        index_store(store)
        kept = ["%tmp.0.0", f"%tmp.{2**64}.0", "%tmp.123.0"]
        for name in kept:
            (store.root / name).write_bytes(b"not shown to be dead")

        def other_users(pid, signal):
            # os.kill(0, 0) would signal this process group
            assert pid > 0
            if pid >= 2**31:
                raise OverflowError("signed integer is greater than maximum")
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "kill", other_users)
        report = compute_store(store, k=2)
        assert read_compute_meta(store)["epoch"] == str(store.epoch())
        assert report.pairs_written == 15
        assert sorted(path.name for path in store.root.glob("%tmp.*")) == sorted(kept)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_block_leaves_no_parts(self, store, monkeypatch, jobs):
        populate(store, 80, seed=81)
        index_store(store)
        compute_store(store, k=3, jobs=jobs)
        check_results_fresh(store)
        real = similarity._score_block

        def failing(identifiers, postings, start, stop, path, offset, end, k):
            result = real(identifiers, postings, start, stop, path, offset, end, k)
            if stop == len(identifiers):
                raise RuntimeError("injected block failure")
            return result

        # pool workers are forked after the patch, so they score with it too
        monkeypatch.setattr(similarity, "_score_block", failing)
        with pytest.raises(RuntimeError, match="injected"):
            compute_store(store, k=3, jobs=jobs)
        assert list(store.root.glob("%tmp.*")) == []
        # the recompute failed at an unchanged epoch: the old results go too
        with pytest.raises(StalenessError):
            check_results_fresh(store)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_block_off_its_byte_range_fails_cleanly(self, store, monkeypatch, jobs):
        populate(store, 80, seed=83)
        index_store(store)
        real = similarity._score_block

        def shifted(identifiers, postings, start, stop, path, offset, end, k):
            return real(identifiers, postings, start, stop, path, offset, end + 1, k)

        monkeypatch.setattr(similarity, "_score_block", shifted)
        with pytest.raises(StorageError, match="ended at byte"):
            compute_store(store, k=3, jobs=jobs)
        assert list(store.root.glob("similarities.txt*")) == []


def latin1_file(store):
    """A stopword file beside the store that is not UTF-8."""
    path = store.root.parent / "latin1.txt"
    path.write_bytes("caf\xe9\n".encode("latin-1"))
    return path


class TestSettingsRefused:
    """Each library function that takes a setting refuses a bad value with
    ConfigError before it reads or writes the store."""

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda store: compute_store(store, k=-1),
                "k must be non-negative, got -1",
                id="compute-k",
            ),
            pytest.param(
                lambda store: compute_store(store, jobs=0),
                "jobs must be at least 1, got 0",
                id="compute-jobs-0",
            ),
            pytest.param(
                lambda store: compute_store(store, jobs=-3),
                "jobs must be at least 1, got -3",
                id="compute-jobs-negative",
            ),
            pytest.param(
                lambda store: index_store(store, fields=("titel",)), "fields must name",
                id="index-unknown-field",
            ),
            pytest.param(
                lambda store: index_store(store, fields=("title", "")),
                "fields must name",
                id="index-empty-name",
            ),
            pytest.param(
                lambda store: index_store(store, fields=()), "fields must name",
                id="index-no-fields",
            ),
            pytest.param(
                lambda store: index_store(store, stopwords_path=store.root / "absent"),
                "cannot read stopword file",
                id="index-missing-stopwords",
            ),
            pytest.param(
                lambda store: load_stopwords(store.root / "absent"),
                "cannot read stopword file",
                id="load-stopwords-missing",
            ),
            pytest.param(
                lambda store: load_stopwords(latin1_file(store)),
                "cannot read stopword file",
                id="load-stopwords-not-utf8",
            ),
            pytest.param(
                lambda store: duplicate_report(store, 2.0), "threshold", id="dup-report-high"
            ),
            pytest.param(
                lambda store: duplicate_report(store, -0.1), "threshold", id="dup-report-low"
            ),
            pytest.param(
                lambda store: estimate_runtime(5, 0.0),
                "per_pair_seconds must be positive",
                id="estimate-rate",
            ),
            pytest.param(
                lambda store: pair_count(-1), "n must be non-negative, got -1", id="pair-count"
            ),
        ],
    )
    @pytest.mark.parametrize("computed_before", [True, False], ids=["computed", "empty"])
    def test_refused_before_the_store_is_touched(
        self, store, call, message, computed_before
    ):
        if computed_before:
            populate(store, 6)
            index_store(store)
            compute_store(store, k=3)
        before = conftest.tree_bytes(store.root)
        with pytest.raises(ConfigError, match=message):
            call(store)
        assert conftest.tree_bytes(store.root) == before
        if computed_before:
            check_results_fresh(store)


class TestDeterminism:
    def test_recompute_is_byte_identical(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        populate(store, 15, seed=21)
        index_store(store)
        compute_store(store, k=3)
        first = store.similarities_path.read_bytes()
        top_first = {
            identifier: store.top_path(identifier).read_bytes()
            for identifier in store.list_identifiers()
        }
        compute_store(store, k=3)
        assert store.similarities_path.read_bytes() == first
        for identifier, blob in top_first.items():
            assert store.top_path(identifier).read_bytes() == blob

    def test_parallel_compute_is_byte_identical(self, tmp_path):
        # 80 documents crosses the threshold where workers actually engage
        store = RecordStore(tmp_path / "store")
        populate(store, 80, seed=31)
        index_store(store)
        compute_store(store, k=3, jobs=1)
        serial = store.similarities_path.read_bytes()
        compute_store(store, k=3, jobs=4)
        assert store.similarities_path.read_bytes() == serial

    @pytest.mark.parametrize(
        ("n", "marks"),
        [
            pytest.param(63, "", id="63"),
            pytest.param(64, "", id="64"),
            pytest.param(65, "", id="65"),
            pytest.param(72, "aé€𝄞", id="72-multibyte"),
        ],
    )
    def test_outputs_identical_across_jobs(self, tmp_path, n, marks):
        # 64 documents is where the row blocks move into worker processes.
        # With marks, identifiers hold 1- to 4-byte characters, so rows
        # differ in UTF-8 length and so do the blocks' byte ranges.
        store = RecordStore(tmp_path / "store")
        if marks:
            for i, record in enumerate(oracle.synthetic_records(random.Random(n), n)):
                mark = marks[i % len(marks)] * (1 + i % 3)
                identifier = f"oai:u.example:{mark}{i:03d}"
                store.put_record(dataclasses.replace(record, identifier=identifier))
        else:
            populate(store, n, seed=n)
        index_store(store)
        outputs = []
        for jobs in (1, 2, 3):
            compute_store(store, k=4, jobs=jobs)
            outputs.append(
                [store.similarities_path.read_bytes()]
                + [store.top_path(i).read_bytes() for i in store.list_identifiers()]
            )
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("k", [1, 3])
    def test_ties_across_blocks_rank_as_the_oracle(self, tmp_path, k):
        # 72 records in 24 groups of three with identical text, a group's
        # members 24 rows apart: each subject's two mates tie at 1st place
        # and its best other group's three members at 3rd, across row blocks
        store = RecordStore(tmp_path / "store")
        bases = oracle.synthetic_records(random.Random(91), 24)
        for i in range(72):
            base = bases[i % 24]
            store.put_record(
                MetadataRecord(
                    f"oai:tie.example:{i:03d}", base.datestamp, dc_fields=base.dc_fields
                )
            )
        index_store(store)
        identifiers = store.list_identifiers()
        model = VectorSpaceModel().fit([store.get_tf(i) for i in identifiers])
        expected = [
            "".join(
                f"{m.identifier}\t{format_score(m.score)}\n"
                for m in oracle.top_k(model, identifier, k)
            )
            for identifier in identifiers
        ]
        for jobs in (1, 2, 3):
            compute_store(store, k=k, jobs=jobs)
            tops = [store.top_path(i).read_text(encoding="utf-8") for i in identifiers]
            assert tops == expected, jobs


class TestStalenessLifecycle:
    def test_fresh_after_compute(self, computed):
        store, report = computed
        meta = check_results_fresh(store)
        assert meta["computed_at"] == report.computed_at

    def test_meta_missing_before_any_compute(self, store):
        with pytest.raises(StalenessError, match="no similarity results"):
            read_compute_meta(store)

    def test_change_invalidates_then_recompute_restores(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        populate(store, 5, seed=51)
        index_store(store)
        compute_store(store, k=2)
        check_results_fresh(store)

        store.put_record(
            MetadataRecord(
                "oai:p.example:late",
                "2006-06-06T06:06:06Z",
                dc_fields=(("title", "late arrival"),),
            )
        )
        with pytest.raises(StalenessError, match="run compute"):
            check_results_fresh(store)
        assert top_exit_code(store, "oai:p.example:doc00000") == cli.EXIT_STALE
        with pytest.raises(StalenessError):
            list(iter_similarity_lines(store))

        index_store(store)
        compute_store(store, k=2)
        check_results_fresh(store)
        assert load_top_matches(store, "oai:p.example:late") != []

    @pytest.mark.parametrize("cut", [1, -1], ids=["truncated", "grown"])
    def test_pair_file_of_another_size_is_refused(self, tmp_path, capsys, cut):
        store = RecordStore(tmp_path / "store")
        populate(store, 12, seed=51)
        index_store(store)
        compute_store(store, k=0)  # no top file answers a report
        data = store.similarities_path.read_bytes()
        store.similarities_path.write_bytes(data[:-cut] if cut > 0 else data + b"\n")
        with pytest.raises(StalenessError, match="run compute"):
            next(iter_similarity_lines(store))
        argv = ["dup-report", "--store", str(store.root), "--threshold", "0.1"]
        assert cli.main(argv) == cli.EXIT_STALE
        assert "run compute" in capsys.readouterr().err

    def test_identical_reput_does_not_invalidate(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        populate(store, 5, seed=51)
        index_store(store)
        compute_store(store, k=2)
        populate(store, 5, seed=51)  # same records again, byte for byte
        check_results_fresh(store)

    def test_compute_refuses_records_changed_since_index(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        records = oracle.synthetic_records(random.Random(91), 3)
        for record in records:
            store.put_record(record)
        index_store(store)
        compute_store(store, k=2)
        store.put_record(
            MetadataRecord(
                records[1].identifier,
                records[1].datestamp,
                dc_fields=(("title", "entirely different words"),),
            )
        )
        with pytest.raises(StalenessError, match="run index"):
            compute_store(store, k=2)
        with pytest.raises(StalenessError):
            check_results_fresh(store)
        index_store(store)
        compute_store(store, k=2)
        check_results_fresh(store)

    def test_epoch_mismatch_detected_without_marker(self, tmp_path):
        # the epoch pinned in the meta alone tells the results are stale
        store = RecordStore(tmp_path / "store")
        populate(store, 4, seed=61)
        index_store(store)
        compute_store(store, k=2)
        store.put_record(
            MetadataRecord(
                "oai:p.example:late",
                "2006-06-06T06:06:06Z",
                dc_fields=(("title", "late arrival"),),
            )
        )
        with pytest.raises(StalenessError, match="collection changed"):
            check_results_fresh(store)

    def test_record_changed_during_compute_leaves_results_stale(
        self, tmp_path, monkeypatch
    ):
        store = RecordStore(tmp_path / "store")
        records = oracle.synthetic_records(random.Random(93), 3)
        for record in records:
            store.put_record(record)
        index_store(store)
        epoch = store.epoch()
        real = RecordStore.put_weights
        changed = MetadataRecord(
            records[1].identifier,
            records[1].datestamp,
            dc_fields=(("title", "entirely different words"),),
        )

        def put_weights_then_change_a_record(self, vector):
            if self.epoch() == epoch:
                self.put_record(changed)
            return real(self, vector)

        monkeypatch.setattr(RecordStore, "put_weights", put_weights_then_change_a_record)
        compute_store(store, k=2)
        assert store.epoch() == epoch + 1
        assert read_compute_meta(store)["epoch"] == str(epoch)
        with pytest.raises(StalenessError):
            check_results_fresh(store)
        assert top_exit_code(store, records[0].identifier) == cli.EXIT_STALE

    def test_put_record_interrupted_at_each_write(self, tmp_path, monkeypatch):
        records = oracle.synthetic_records(random.Random(95), 3)
        old = records[1]
        new = MetadataRecord(
            old.identifier, old.datestamp, dc_fields=(("title", "new words"),)
        )
        failed_writes = 0
        while True:
            store = RecordStore(tmp_path / f"store{failed_writes}")
            for record in records:
                store.put_record(record)
            index_store(store)
            compute_store(store, k=2)
            with monkeypatch.context() as patch:
                failing = _FailNthWrite(patch, failed_writes + 1)
                try:
                    store.put_record(new)
                except OSError:
                    pass
            if failing.calls <= failed_writes:
                break  # the put made fewer writes than the one failed here
            failed_writes += 1
            assert failing.failed
            try:
                check_results_fresh(store)
            except StalenessError:
                pass
            else:
                assert store.get_record(old.identifier) == old
            assert store.put_record(new).status == "replaced"
            assert store.get_record(old.identifier) == new
            with pytest.raises(StalenessError):
                check_results_fresh(store)
        assert failed_writes >= 2  # the epoch and the record file

    def test_interrupted_reindex_refuses_compute(self, tmp_path, monkeypatch):
        store = RecordStore(tmp_path / "store")
        populate(store, 5, seed=97)
        index_store(store)
        compute_store(store, k=2)
        real = RecordStore.put_tf
        calls = []

        def put_tf_then_die(self, vector):
            calls.append(vector.identifier)
            if len(calls) == 3:
                raise RuntimeError("injected index failure")
            return real(self, vector)

        monkeypatch.setattr(RecordStore, "put_tf", put_tf_then_die)
        with pytest.raises(RuntimeError, match="injected"):
            index_store(store)
        monkeypatch.undo()
        with pytest.raises(StalenessError, match="run index"):
            compute_store(store, k=2)
        index_store(store)
        compute_store(store, k=2)
        check_results_fresh(store)

    def test_index_and_compute_interrupted_at_each_write(self, tmp_path, monkeypatch):
        def outputs(store):
            trees = (store.tf_dir, store.weights_dir, store.top_dir)
            paths = [path for tree in trees for path in tree.rglob("*") if path.is_file()]
            return {
                path.relative_to(store.root): path.read_bytes()
                for path in paths + [store.similarities_path]
            }

        failed_writes = 0
        while True:
            store = RecordStore(tmp_path / f"store{failed_writes}")
            populate(store, 5, seed=99)
            index_store(store)
            compute_store(store, k=2)
            expected = outputs(store)
            names = {path.relative_to(store.root) for path in store.root.rglob("*")}
            with monkeypatch.context() as patch:
                failing = _FailNthWrite(patch, failed_writes + 1)
                stage = "index"
                try:
                    index_store(store)
                    stage = "compute"
                    compute_store(store, k=2, jobs=1)
                except OSError:
                    pass
            if not failing.failed:
                break  # index and compute made fewer writes than the one failed here
            failed_writes += 1
            # a finished run holds every file left: no temporary remains
            assert {path.relative_to(store.root) for path in store.root.rglob("*")} <= names
            if stage == "index":
                assert not store.indexed_epoch_path.exists()
                with pytest.raises(StalenessError, match="run index"):
                    compute_store(store, k=2)
            else:
                assert not store.compute_meta_path.exists()
                with pytest.raises(StalenessError):
                    check_results_fresh(store)
            index_store(store)
            compute_store(store, k=2, jobs=1)
            check_results_fresh(store)
            assert outputs(store) == expected
        assert failed_writes == 3 * 5 + 2  # tf, weights and top files, two commit records


def on_each_top_write(monkeypatch, store, check):
    """Call check() before and after every pathlib write into top_matches/."""
    for name in ("write_bytes", "write_text"):

        def write(path, *args, _real=getattr(Path, name), **kwargs):
            if path.parent == store.top_dir:
                check()
            result = _real(path, *args, **kwargs)
            if path.parent == store.top_dir:
                check()
            return result

        monkeypatch.setattr(Path, name, write)


class _FailNthWrite:
    """Make the nth file write through pathlib raise, as if the process died
    there; count every write."""

    def __init__(self, monkeypatch, n):
        self.n = n
        self.calls = 0
        self.failed = False
        for name in ("write_bytes", "write_text", "touch"):
            monkeypatch.setattr(Path, name, self._wrap(getattr(Path, name)))

    def _wrap(self, real):
        def write(path, *args, **kwargs):
            self.calls += 1
            if self.calls == self.n:
                self.failed = True
                raise OSError(f"injected failure of write {self.n} ({path.name})")
            return real(path, *args, **kwargs)

        return write

"""Record store: path mapping, the three mirrored trees, epoch and staleness."""

import dataclasses
import tempfile
from pathlib import Path
from urllib.parse import unquote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
import oracle
from simharvest.exceptions import (
    NotFoundError,
    PathCollisionError,
    RecordValidationError,
    StalenessError,
)
from simharvest.oai_xml import parse_response, serialize_record_fragment
from simharvest.pipeline import (
    check_results_fresh,
    compute_store,
    index_store,
    load_top_matches,
)
from simharvest import store as store_module
from simharvest.records import Header, MetadataRecord
from simharvest.service import OaiProvider
from simharvest.similarity import VectorSpaceModel
from simharvest.store import RecordStore
from simharvest.textpipe import TermFrequencyVector

# Identifiers short enough that their percent-encoded form fits in one
# filesystem name component even for 4-byte code points.
fs_identifiers = st.one_of(
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")
        ),
        min_size=1,
        max_size=12,
    ).filter(lambda v: not any(ch.isspace() for ch in v)),
    conftest.token_text.map(lambda local: f"oai:repo.example:{local[:12]}"),
)


def make_record(identifier="oai:a.example:1", datestamp="2001-06-15T12:00:00Z", **kw):
    kw.setdefault("dc_fields", (("title", "Tire friction"),))
    return MetadataRecord(identifier=identifier, datestamp=datestamp, **kw)


def relpath(store, identifier):
    """identifier's record file, relative to records/."""
    return store.record_path(identifier).relative_to(store.records_dir)


class TestPathMapping:
    def test_oai_identifier_maps_to_namespace_and_local_segments(self, store):
        rel = relpath(store, "oai:ltrs.larc.nasa.gov:rdp3195.tex")
        assert rel == Path("ltrs.larc.nasa.gov/rdp3195.tex.xml")

    def test_unsafe_characters_are_percent_encoded(self, store):
        rel = relpath(store, "oai:ns:a/b:c d%e")
        assert rel.parts == ("ns", "a%2Fb%3Ac%20d%25e.xml")

    def test_non_oai_identifiers_use_the_raw_bucket(self, store):
        record = make_record("http://example.org/thing")
        assert relpath(store, record.identifier).parts[0] == "%raw"
        store.put_record(record)
        assert store.list_identifiers() == ["http://example.org/thing"]

    def test_oai_prefix_without_two_colons_is_raw(self, store):
        assert relpath(store, "oai:only-one-part").parts[0] == "%raw"

    @settings(deadline=None)
    @given(fs_identifiers)
    @example("oai:repo.example:.")
    @example("oai:repo.example:..")
    @example("oai:..:x")
    @example(".")
    @example("..")
    def test_mapping_is_reversible(self, identifier):
        with tempfile.TemporaryDirectory() as root:
            store = RecordStore(root)
            store.put_record(make_record(identifier))
            assert store.list_identifiers() == [identifier]
            assert store.catalog().headers[0].identifier == identifier

    @given(conftest.identifiers)
    @example(".")
    @example("..")
    @example("oai:..:x")
    def test_flat_encoding_is_reversible(self, identifier):
        with tempfile.TemporaryDirectory() as root:
            flat = RecordStore(root).top_path(identifier).name
        assert "/" not in flat
        assert flat not in (".", "..")  # names a file, not a directory
        assert unquote(flat) == identifier

    def test_dot_segments_are_encoded(self, store):
        assert relpath(store, "oai:..:x") == Path("%2E%2E/x.xml")
        assert relpath(store, "oai:repo.example:.") == Path("repo.example/%2E.xml")
        assert store.top_path("...").name == "%2E%2E%2E"
        assert store.top_path("a.b").name == "a.b"

    def test_raw_bucket_cannot_collide_with_a_namespace(self, store):
        # The encoder never emits a bare '%', so no oai namespace encodes to %raw.
        assert relpath(store, "oai:%raw:x").parts[0] == "%25raw"


class TestRecords:
    def test_put_then_get(self, store):
        record = make_record()
        result = store.put_record(record)
        assert result.status == "created"
        assert store.get_record(record.identifier) == record
        assert store.has_record(record.identifier)

    def test_identical_put_is_a_no_op(self, store):
        record = make_record()
        store.put_record(record)
        index_store(store)
        compute_store(store, k=1)
        epoch = store.epoch()
        result = store.put_record(record)
        assert result.status == "unchanged"
        assert store.epoch() == epoch
        check_results_fresh(store)

    def test_identical_put_compares_bytes_before_parsing(self, store, monkeypatch):
        parsed = []
        real = store_module.parse_record_fragment

        def counting(data):
            parsed.append(data)
            return real(data)

        monkeypatch.setattr(store_module, "parse_record_fragment", counting)
        record = make_record()
        assert store.put_record(record).status == "created"
        assert store.put_record(record).status == "unchanged"
        assert parsed == []
        updated = make_record(dc_fields=(("title", "Revised title"),))
        result = store.put_record(updated)
        assert (result.status, result.replaced) == ("replaced", record)
        assert len(parsed) == 1

    def test_changed_put_bumps_epoch_and_marks_stale(self, store):
        store.put_record(make_record())
        index_store(store)
        compute_store(store, k=1)
        epoch = store.epoch()
        updated = make_record(dc_fields=(("title", "Revised title"),))
        result = store.put_record(updated)
        assert result.status == "replaced"
        assert result.replaced == make_record()
        assert store.epoch() == epoch + 1
        with pytest.raises(StalenessError):
            check_results_fresh(store)

    def test_every_new_record_bumps_epoch(self, store, rng):
        epochs = [store.epoch()]
        for record in oracle.synthetic_records(rng, 3):
            store.put_record(record)
            epochs.append(store.epoch())
        assert epochs == sorted(set(epochs))

    def test_dot_segment_identifiers_stay_inside_the_store(self, store):
        identifiers = sorted(
            ["oai:..:x", "oai:repo.example:.", "oai:repo.example:..", ".", ".."]
        )
        records = [
            make_record(identifier, dc_fields=(("title", f"tire runway {n}"),))
            for n, identifier in enumerate(identifiers)
        ]
        for record in records:
            assert store.put_record(record).status == "created"
            path = store.record_path(record.identifier).resolve()
            assert path.parent.parent == store.records_dir.resolve()
            assert store.top_path(record.identifier).parent == store.top_dir
        assert store.list_identifiers() == identifiers
        for record in records:
            assert store.get_record(record.identifier) == record
        index_store(store)
        compute_store(store, k=2)
        for identifier in identifiers:
            assert len(load_top_matches(store, identifier)) == 2

    def test_get_missing_record(self, store):
        with pytest.raises(NotFoundError):
            store.get_record("oai:a.example:absent")

    def test_identifier_too_long_for_its_top_file_is_refused(self, store):
        # the record file name fits; the flat top-match name would be 257 bytes
        store.put_record(make_record("oai:x:1"))
        store.put_record(make_record("oai:x:2", dc_fields=(("title", "friction"),)))
        too_long = make_record("oai:x:" + "b" * 247)
        assert len(store.top_path(too_long.identifier).name) == 257
        epoch = store.epoch()
        with pytest.raises(RecordValidationError, match="too long to store"):
            store.put_record(too_long)
        assert store.epoch() == epoch
        assert store.list_identifiers() == ["oai:x:1", "oai:x:2"]
        assert not store.has_record(too_long.identifier)
        with pytest.raises(NotFoundError):
            store.get_record(too_long.identifier)
        index_store(store)
        compute_store(store, k=2)
        check_results_fresh(store)

    def test_unstorable_record_file_from_an_older_store_is_not_listed(self, store):
        store.put_record(make_record("oai:x:1"))
        too_long = make_record("oai:x:" + "b" * 247)
        path = store.record_path(too_long.identifier)  # its own name still fits
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(serialize_record_fragment(too_long))
        assert store.list_identifiers() == ["oai:x:1"]
        assert [h.identifier for h in store.catalog().headers] == ["oai:x:1"]

    def test_longest_storable_identifier_goes_through_compute(self, store):
        longest = make_record("oai:x:" + "b" * 245)  # flat top-match name: 255
        store.put_record(longest)
        store.put_record(make_record("oai:x:2"))
        index_store(store)
        compute_store(store, k=2)
        assert [m.identifier for m in load_top_matches(store, "oai:x:2")] == [
            longest.identifier
        ]

    def test_longest_storable_non_oai_identifier_goes_through_compute(self, store):
        longest = make_record("urn:" + "b" * 245)  # 251 encoded bytes: record file 255
        assert len(store.record_path(longest.identifier).name) == 255
        store.put_record(longest)
        store.put_record(make_record("oai:x:2"))
        index_store(store)
        compute_store(store, k=2)
        assert [m.identifier for m in load_top_matches(store, "oai:x:2")] == [
            longest.identifier
        ]

    @pytest.mark.parametrize("identifier", ["oai:x:" + "b" * 246, "urn:" + "b" * 246])
    def test_one_byte_past_the_longest_storable_is_refused(self, store, identifier):
        with pytest.raises(RecordValidationError, match="too long to store"):
            store.put_record(make_record(identifier))
        assert store.list_identifiers() == []
        assert store.epoch() == 0

    def test_collision_detected(self, store):
        record = make_record(identifier="oai:a.example:1")
        path = store.record_path("oai:a.example:2")
        path.parent.mkdir(parents=True, exist_ok=True)
        from simharvest.oai_xml import serialize_record_fragment

        path.write_bytes(serialize_record_fragment(record))
        with pytest.raises(PathCollisionError):
            store.get_record("oai:a.example:2")
        with pytest.raises(PathCollisionError):
            store.put_record(make_record(identifier="oai:a.example:2"))

    @settings(max_examples=25, deadline=None)
    @given(record=conftest.records(), identifier=fs_identifiers)
    def test_any_record_round_trips_through_disk(self, record, identifier):
        record = MetadataRecord(
            identifier=identifier,
            datestamp=record.datestamp,
            set_specs=record.set_specs,
            dc_fields=record.dc_fields,
            provenance=record.provenance,
            deleted=record.deleted,
        )
        with tempfile.TemporaryDirectory() as root:
            store = RecordStore(Path(root) / "s")
            store.put_record(record)
            assert store.get_record(identifier) == record
            assert store.list_identifiers() == [identifier]


def selected(store, from_=None, until=None, set_spec=None):
    """Identifiers of the catalog's headers that pass the filters."""
    return [h.identifier for h in store.catalog().select(from_, until, set_spec)]


class TestListing:
    def setup_store(self, store):
        store.put_record(
            make_record("oai:a.example:1", "2001-01-10T00:00:00Z", set_specs=("x",))
        )
        store.put_record(
            make_record("oai:a.example:2", "2001-06-15T12:00:00Z", set_specs=("y",))
        )
        store.put_record(
            make_record("oai:b.example:3", "2001-12-31", set_specs=("x", "y"))
        )

    def test_sorted_listing(self, store):
        self.setup_store(store)
        assert store.list_identifiers() == [
            "oai:a.example:1",
            "oai:a.example:2",
            "oai:b.example:3",
        ]

    def test_datestamp_range_is_inclusive(self, store):
        self.setup_store(store)
        assert selected(store, from_="2001-06-15", until="2001-06-15") == [
            "oai:a.example:2"
        ]
        assert selected(store, from_="2001-06-15T12:00:00Z") == [
            "oai:a.example:2",
            "oai:b.example:3",
        ]
        assert selected(store, until="2001-01-09") == []

    def test_set_filter(self, store):
        self.setup_store(store)
        assert selected(store, set_spec="x") == [
            "oai:a.example:1",
            "oai:b.example:3",
        ]
        assert selected(store, set_spec="z") == []

    def test_combined_filters(self, store):
        self.setup_store(store)
        assert selected(store, from_="2001-06-01", set_spec="y") == [
            "oai:a.example:2",
            "oai:b.example:3",
        ]

    def test_set_specs_and_earliest(self, store):
        self.setup_store(store)
        assert store.set_specs() == ["x", "y"]
        assert store.earliest_datestamp() == "2001-01-10T00:00:00Z"

    def test_empty_store(self, store):
        assert store.list_identifiers() == []
        assert store.set_specs() == []
        assert store.earliest_datestamp() is None

    def test_date_only_earliest_widens_to_seconds(self, store):
        store.put_record(make_record("oai:a.example:1", "2001-01-10T00:00:01Z"))
        store.put_record(make_record("oai:a.example:2", "2001-01-10"))
        assert store.earliest_datestamp() == "2001-01-10T00:00:00Z"

    def test_unfiltered_listing_parses_nothing(self, store, monkeypatch):
        self.setup_store(store)

        def refuse(data):
            raise AssertionError("an unfiltered listing parsed a record")

        monkeypatch.setattr(store_module, "parse_record_fragment", refuse)
        monkeypatch.setattr(store_module, "parse_record_header", refuse)
        assert len(store.list_identifiers()) == 3


class TestCatalog:
    def test_rebuilt_only_when_the_epoch_moves(self, store):
        record = make_record("oai:a.example:1", set_specs=("x",))
        store.put_record(record)
        first = store.catalog()
        assert first.epoch == store.epoch()
        assert store.catalog() is first
        assert store.put_record(record).status == "unchanged"
        assert store.catalog() is first
        gone = make_record(
            "oai:a.example:2", "2000-02-02", set_specs=("y",), dc_fields=(), deleted=True
        )
        store.put_record(gone)
        second = store.catalog()
        assert second.epoch == first.epoch + 1
        assert second.headers == (
            Header("oai:a.example:1", "2001-06-15T12:00:00Z", ("x",), False),
            Header("oai:a.example:2", "2000-02-02", ("y",), True),
        )
        assert second.set_specs == ("x", "y")
        assert second.earliest == "2000-02-02T00:00:00Z"

    def test_another_writer_is_seen_through_the_epoch(self, store):
        store.put_record(make_record("oai:a.example:1"))
        assert store.set_specs() == []
        RecordStore(store.root).put_record(
            make_record("oai:a.example:2", set_specs=("z",))
        )
        assert store.set_specs() == ["z"]
        assert selected(store, set_spec="z") == ["oai:a.example:2"]

    def test_refresh_parses_only_the_changed_files(self, store, monkeypatch):
        records = [make_record(f"oai:a.example:{n}") for n in range(6)]
        for record in records:
            store.put_record(record)
        store.catalog()
        real = store_module.parse_record_header
        parsed = []

        def counting(data):
            parsed.append(data)
            return real(data)

        monkeypatch.setattr(store_module, "parse_record_header", counting)
        for record in records[:2]:
            store.put_record(dataclasses.replace(record, datestamp="2002-02-02"))
        catalog = store.catalog()
        assert len(parsed) == 2
        assert [header.datestamp for header in catalog.headers] == (
            ["2002-02-02"] * 2 + ["2001-06-15T12:00:00Z"] * 4
        )
        assert catalog.earliest == "2001-06-15T12:00:00Z"

    def test_refresh_drops_records_gone_from_disk(self, store):
        for n in range(3):
            store.put_record(make_record(f"oai:a.example:{n}", set_specs=(f"s{n}",)))
        store.catalog()
        store.record_path("oai:a.example:1").unlink()
        store.put_record(make_record("oai:a.example:3"))
        catalog = store.catalog()
        assert [header.identifier for header in catalog.headers] == [
            "oai:a.example:0",
            "oai:a.example:2",
            "oai:a.example:3",
        ]
        assert catalog.set_specs == ("s0", "s2")

    def test_walk_passes_over_temporaries_and_stray_files(self, store):
        records = [make_record(f"oai:a.example:{n}") for n in range(2)]
        for record in records:
            store.put_record(record)
        data = store.record_path(records[0].identifier).read_bytes()
        # a put_record killed before its rename, and a file beside the buckets
        (store.records_dir / "a.example" / "%tmp.12345.0").write_bytes(data[:40])
        (store.records_dir / "stray.xml").write_bytes(data[:40])
        store.put_record(make_record("oai:a.example:2"))
        identifiers = ["oai:a.example:0", "oai:a.example:1", "oai:a.example:2"]
        assert store.list_identifiers() == identifiers
        catalog = store.catalog()
        assert [header.identifier for header in catalog.headers] == identifiers
        assert list(catalog.files) == identifiers

    def test_other_spellings_of_a_record_file_name_are_no_records(self, store):
        store.put_record(make_record("oai:a:B"))
        # a/%41.xml decodes to oai:a:A, whose file is a/A.xml; the %raw file
        # decodes to oai:a:C, whose file is a/C.xml
        planted = {"a/%41.xml": "oai:a:A", "%raw/oai%3Aa%3AC.xml": "oai:a:C"}
        (store.records_dir / "%raw").mkdir()
        for name, identifier in planted.items():
            data = serialize_record_fragment(make_record(identifier))
            (store.records_dir / name).write_bytes(data)
            assert not store.has_record(identifier)
        assert store.list_identifiers() == ["oai:a:B"]
        assert [header.identifier for header in store.catalog().headers] == ["oai:a:B"]
        body = OaiProvider(store).handle_request(
            {"verb": ["ListRecords"], "metadataPrefix": ["oai_dc"]}
        )
        page = parse_response(body, "ListRecords")
        assert page.errors == [] and page.token is None
        assert [record.identifier for record in page.records] == ["oai:a:B"]

    def test_a_file_of_the_empty_identifier_is_no_record(self, store):
        # %raw/.xml decodes to "", which no record can carry
        store.put_record(make_record("oai:a:B"))
        (store.records_dir / "%raw").mkdir()
        stray = store.records_dir / "%raw" / ".xml"
        stray.write_bytes(store.record_path("oai:a:B").read_bytes())
        assert not store_module.storable("") and not store.has_record("")
        assert store.list_identifiers() == ["oai:a:B"]
        body = OaiProvider(store).handle_request({"verb": ["Identify"]})
        assert parse_response(body, "Identify").errors == []

    def test_unfiltered_selection_is_every_header(self, store):
        for n in range(3):
            store.put_record(make_record(f"oai:a.example:{n}"))
        catalog = store.catalog()
        assert catalog.select(None, None, None) == list(catalog.headers)


class TestTermFrequencies:
    def test_round_trip(self, store):
        store.put_record(make_record())
        vector = TermFrequencyVector("oai:a.example:1", {"tire": 2, "friction": 1})
        path = store.put_tf(vector)
        assert path.read_text(encoding="utf-8") == "friction\t1\ntire\t2\n"
        assert store.get_tf("oai:a.example:1") == vector

    def test_requires_the_record(self, store):
        with pytest.raises(NotFoundError):
            store.put_tf(TermFrequencyVector("oai:a.example:1", {"tire": 1}))

    def test_missing_tf_says_run_index(self, store):
        store.put_record(make_record())
        with pytest.raises(NotFoundError, match="run index"):
            store.get_tf("oai:a.example:1")

    @settings(max_examples=25, deadline=None)
    @given(counts=st.dictionaries(
        keys=st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=0x2FF),
            min_size=2,
            max_size=12,
        ),
        values=st.integers(min_value=1, max_value=10**9),
        max_size=10,
    ))
    def test_any_counts_round_trip(self, counts):
        with tempfile.TemporaryDirectory() as root:
            store = RecordStore(Path(root) / "s")
            store.put_record(make_record())
            vector = TermFrequencyVector("oai:a.example:1", counts)
            store.put_tf(vector)
            assert store.get_tf("oai:a.example:1") == vector


class TestWeights:
    def fill(self, store):
        corpus = conftest.small_corpus()
        for tf in corpus:
            store.put_record(make_record(tf.identifier))
            store.put_tf(tf)
        vectors = VectorSpaceModel().fit(corpus).vectors_
        return [vectors[tf.identifier] for tf in corpus]

    def test_round_trip_is_exact(self, store):
        vectors = self.fill(store)
        for vector in vectors:
            store.put_weights(vector)
        for vector in vectors:
            got = conftest.read_weights(store, vector.identifier)
            assert got == vector  # repr round trip: bit-for-bit floats

    def test_requires_tf(self, store):
        store.put_record(make_record())
        with pytest.raises(NotFoundError):
            store.put_weights(
                VectorSpaceModel().fit(conftest.small_corpus()).vectors_["oai:a.example:1"]
            )

    def test_weights_file_holds_norm_then_sorted_terms(self, store):
        vectors = self.fill(store)
        path = store.put_weights(vectors[0])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert float(lines[0]) == vectors[0].norm
        terms = [line.split("\t")[0] for line in lines[1:]]
        assert terms == sorted(terms)


class TestMirroredTrees:
    def test_three_trees_share_relpaths(self, store):
        vectors = TestWeights().fill(store)
        for vector in vectors:
            store.put_weights(vector)
        record_paths = conftest.tree_relpaths(store.records_dir, ".xml")
        assert record_paths == conftest.tree_relpaths(store.tf_dir, ".tf")
        assert record_paths == conftest.tree_relpaths(store.weights_dir, ".w")
        assert record_paths == [
            "a.example/1",
            "a.example/2",
            "b.example/3",
        ]

    def test_top_path_is_flat_and_reversible(self, store):
        path = store.top_path("oai:a.example:with/slash")
        assert path.parent == store.top_dir
        assert unquote(path.name) == "oai:a.example:with/slash"

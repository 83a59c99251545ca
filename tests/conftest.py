"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from simharvest.records import DC_ELEMENTS, MetadataRecord
from simharvest.similarity import WeightedVector
from simharvest.store import RecordStore
from simharvest.textpipe import TermFrequencyVector

# Pass/fail lines collected by the acceptance tests, echoed after the run so
# they stay visible even when pytest captures stdout.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# Tokens legal in identifiers, datestamps and setSpecs: printable, no whitespace.
token_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"),
        blacklist_characters="᠎",
    ),
    min_size=1,
    max_size=30,
).filter(lambda value: not any(ch.isspace() for ch in value))

# Element text: anything XML 1.0 can carry, minus carriage returns, which
# parsers fold into newlines and so cannot round-trip.
_any_text = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cc", "Cs")),
        st.sampled_from("\t\n"),
    ),
    max_size=60,
)
# whitespace alone, and text opening or closing with a newline, look like the
# indentation around them
element_text = st.one_of(
    _any_text,
    st.text(alphabet=" \t\n", min_size=1, max_size=8),
    st.tuples(
        st.sampled_from(("\n", "", "\n  ")), _any_text, st.sampled_from(("\n", ""))
    ).map("".join),
)

identifiers = st.one_of(
    token_text.map(lambda local: f"oai:repo.example:{local}"),
    token_text,
)

dates_only = st.dates().map(lambda d: f"{d.year:04d}-{d.month:02d}-{d.day:02d}")
datetimes_utc = st.tuples(
    st.dates(), st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)
).map(
    lambda parts: f"{parts[0].year:04d}-{parts[0].month:02d}-{parts[0].day:02d}"
    f"T{parts[1]:02d}:{parts[2]:02d}:{parts[3]:02d}Z"
)
datestamps = st.one_of(dates_only, datetimes_utc)

dc_fields = st.lists(
    st.tuples(st.sampled_from(DC_ELEMENTS), element_text),
    min_size=0,
    max_size=8,
).map(tuple)

_prov_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cc", "Cs"), blacklist_characters="<&\r"
    ),
    max_size=20,
)
# multi-line text, and whitespace that may or may not be indentation
_prov_lines = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters="<&\r"),
        st.sampled_from("\n \t"),
    ),
    max_size=20,
)
#: the namespace of the about blocks no prefix is registered for
FOREIGN_NS = "urn:example:rights"


@st.composite
def provenance_blocks(draw):
    """An OAI provenance block, or a foreign about block. The provenance may
    carry a note with multi-line text, or mixed content."""
    if draw(st.integers(0, 3)) == 0:
        holder = draw(_prov_lines)
        return f'<rights xmlns="{FOREIGN_NS}"><holder>{holder}</holder></rights>'
    url = draw(_prov_text)
    upstream_id = draw(_prov_text)
    altered = draw(st.sampled_from(("true", "false")))
    text = [draw(_prov_lines) for _ in range(3)]
    note = draw(
        st.sampled_from(
            (
                "",
                f"<note>{text[0]}</note>",
                f"<note>{text[0]}<em>{text[1]}</em>{text[2]}</note>",
            )
        )
    )
    return (
        '<provenance xmlns="http://www.openarchives.org/OAI/2.0/provenance">'
        f'<originDescription harvestDate="2002-02-02T00:00:00Z" altered="{altered}">'
        f"<baseURL>{url}</baseURL><identifier>{upstream_id}</identifier>{note}"
        "</originDescription></provenance>"
    )


@st.composite
def records(draw, allow_deleted: bool = True):
    identifier = draw(identifiers)
    datestamp = draw(datestamps)
    set_specs = tuple(draw(st.lists(token_text, max_size=2)))
    deleted = allow_deleted and draw(st.booleans())
    if deleted:
        return MetadataRecord(
            identifier=identifier,
            datestamp=datestamp,
            set_specs=set_specs,
            deleted=True,
        )
    provenance = tuple(draw(st.lists(provenance_blocks(), max_size=2)))
    return MetadataRecord(
        identifier=identifier,
        datestamp=datestamp,
        set_specs=set_specs,
        dc_fields=draw(dc_fields),
        provenance=provenance,
    )


@st.composite
def record_batches(draw, min_size=1, max_size=8, **kwargs):
    batch = draw(st.lists(records(**kwargs), min_size=min_size, max_size=max_size))
    seen = {}
    for record in batch:
        seen.setdefault(record.identifier, record)
    return list(seen.values())


tf_vectors = st.builds(
    TermFrequencyVector,
    identifier=identifiers,
    counts=st.dictionaries(
        keys=st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Nd"), max_codepoint=0x2FF
            ),
            min_size=2,
            max_size=12,
        ),
        values=st.integers(min_value=1, max_value=50),
        max_size=12,
    ),
)


@pytest.fixture
def rng():
    return random.Random(20060419)


@pytest.fixture
def store(tmp_path):
    return RecordStore(tmp_path / "store")


def small_corpus() -> list[TermFrequencyVector]:
    """Fixed three-document corpus used by hand-computed expectations."""
    return [
        TermFrequencyVector(
            "oai:a.example:1", {"tire": 2, "runway": 1, "friction": 3}
        ),
        TermFrequencyVector("oai:a.example:2", {"tire": 1, "runway": 4}),
        TermFrequencyVector("oai:b.example:3", {"wind": 2, "tunnel": 2, "tire": 1}),
    ]


def read_weights(store: RecordStore, identifier: str) -> WeightedVector:
    """Parse one .w file of the weights tree: the norm, then term<TAB>weight."""
    lines = store.weights_path(identifier).read_text(encoding="utf-8").splitlines()
    weights = {}
    for line in lines[1:]:
        term, _, weight = line.partition("\t")
        weights[term] = float(weight)
    return WeightedVector(identifier, weights, float(lines[0]))


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root by its relative path, with its content."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


def tree_relpaths(tree: Path, suffix: str) -> list[str]:
    """The "<namespace>/<local>" paths of one two-level store tree's files,
    suffix stripped, in the store's sorted path order."""
    return [
        path.relative_to(tree).as_posix()[: -len(suffix)]
        for path in sorted(tree.glob(f"*/*{suffix}"))
    ]

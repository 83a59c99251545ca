"""Golden responses: the provider's bodies for a fixed request set, pinned by
their SHA-256.

The store is seeded, its compute date and every responseDate are pinned, so
each body is the same bytes on every run. The request set covers every verb,
both list walks with and without filters, every protocol error the provider
answers, GetRecord with and without a similarity container, and a ListRecords
page holding a block in a namespace no prefix is registered for, which is
built from parsed records rather than spliced from the stored bytes.

A serializer or provider change that alters one byte of one response fails
here and names the request it altered.
"""

import dataclasses
import hashlib
import random
import xml.etree.ElementTree as ET

import pytest

import conftest
import oracle
from simharvest import oai_xml, pipeline
from simharvest.oai_xml import OAI_NS
from simharvest.pipeline import compute_store, index_store
from simharvest.records import MetadataRecord
from simharvest.service import OaiProvider, ProviderConfig
from simharvest.store import RecordStore

DATE = "2006-04-19T12:00:00Z"
BASE = "http://golden.example/oai"
SETS = ("aero", "struct", "thermal")
FOREIGN_ID = "oai:repo.example:item00011-rights"
DELETED_ID = "oai:repo.example:item00013-gone"


def seeded_records() -> list[MetadataRecord]:
    """Sixteen live records with sets and provenance, one of them carrying a
    foreign about block besides, and one deleted record."""
    live = oracle.synthetic_records(
        random.Random(1404),
        16,
        set_choices=SETS,
        origin_url="http://upstream.example/oai",
    )
    rights = f'<rights xmlns="{conftest.FOREIGN_NS}"><holder>NASA</holder></rights>'
    live[11] = dataclasses.replace(
        live[11], identifier=FOREIGN_ID, provenance=live[11].provenance + (rights,)
    )
    deleted = MetadataRecord(
        identifier=DELETED_ID,
        datestamp="2003-06-15T08:00:00Z",
        set_specs=("aero",),
        deleted=True,
    )
    return live + [deleted]


def one(**args) -> dict[str, list[str]]:
    return {name: [value] for name, value in args.items()}


def collect(provider: OaiProvider, label: str, args: dict, bodies: dict) -> bytes:
    body = provider.handle_request(args)
    bodies[label] = body
    return body


def walk(provider: OaiProvider, label: str, verb: str, bodies: dict, **filters):
    """Every page of one list walk, labelled by page number."""
    args = one(verb=verb, metadataPrefix="oai_dc", **filters)
    page = 1
    while True:
        body = collect(provider, f"{label} page {page}", args, bodies)
        token = ET.fromstring(body).findtext(
            f"{{{OAI_NS}}}{verb}/{{{OAI_NS}}}resumptionToken"
        )
        if not token:
            return
        args = one(verb=verb, resumptionToken=token)
        page += 1


def stocked_bodies(provider: OaiProvider, ids: list[str]) -> dict[str, bytes]:
    bodies: dict[str, bytes] = {}
    live = ids[0]
    collect(provider, "Identify", one(verb="Identify"), bodies)
    collect(provider, "ListMetadataFormats", one(verb="ListMetadataFormats"), bodies)
    collect(
        provider,
        "ListMetadataFormats identifier",
        one(verb="ListMetadataFormats", identifier=live),
        bodies,
    )
    collect(
        provider,
        "ListMetadataFormats unknown identifier",
        one(verb="ListMetadataFormats", identifier="oai:repo.example:nope"),
        bodies,
    )
    collect(provider, "ListSets", one(verb="ListSets"), bodies)
    collect(
        provider,
        "ListSets token",
        one(verb="ListSets", resumptionToken="anything"),
        bodies,
    )
    for verb in ("ListRecords", "ListIdentifiers"):
        walk(provider, verb, verb, bodies)
        walk(provider, f"{verb} set", verb, bodies, set="aero")
        walk(
            provider,
            f"{verb} window",
            verb,
            bodies,
            **{"from": "2002-01-01", "until": "2005-06-30"},
        )
    first = ET.fromstring(bodies["ListRecords page 1"]).findtext(
        f"{{{OAI_NS}}}ListRecords/{{{OAI_NS}}}resumptionToken"
    )
    parts = first.split("!")
    parts[2] = "9999"
    collect(
        provider,
        "ListRecords token out of range",
        one(verb="ListRecords", resumptionToken="!".join(parts)),
        bodies,
    )
    parts[0] = "0"
    collect(
        provider,
        "ListRecords token of another epoch",
        one(verb="ListRecords", resumptionToken="!".join(parts)),
        bodies,
    )
    collect(
        provider,
        "ListRecords malformed token",
        one(verb="ListRecords", resumptionToken="garbage"),
        bodies,
    )
    collect(
        provider,
        "ListRecords unknown set",
        one(verb="ListRecords", metadataPrefix="oai_dc", set="nosuch"),
        bodies,
    )
    collect(
        provider,
        "ListRecords empty window",
        one(verb="ListRecords", metadataPrefix="oai_dc", until="1990-01-01"),
        bodies,
    )
    collect(
        provider,
        "ListRecords other format",
        one(verb="ListRecords", metadataPrefix="marc21"),
        bodies,
    )
    collect(
        provider,
        "ListIdentifiers bad datestamp",
        one(verb="ListIdentifiers", metadataPrefix="oai_dc", **{"from": "yesterday"}),
        bodies,
    )
    for name, identifier in (
        ("live", live),
        ("other live", ids[5]),
        ("foreign block", FOREIGN_ID),
        ("deleted", DELETED_ID),
        ("unknown", "oai:repo.example:nope"),
    ):
        collect(
            provider,
            f"GetRecord {name}",
            one(verb="GetRecord", identifier=identifier, metadataPrefix="oai_dc"),
            bodies,
        )
    collect(provider, "GetRecord no prefix", one(verb="GetRecord", identifier=live), bodies)
    collect(provider, "unknown verb", one(verb="Harvest"), bodies)
    collect(provider, "missing verb", {}, bodies)
    collect(provider, "repeated verb", {"verb": ["Identify", "Identify"]}, bodies)
    collect(
        provider,
        "repeated argument",
        {"verb": ["GetRecord"], "identifier": [live, ids[1]], "metadataPrefix": ["oai_dc"]},
        bodies,
    )
    collect(provider, "Identify extra argument", one(verb="Identify", set="aero"), bodies)
    for k in ("2", "0"):
        status, content_type, body = provider.similar_endpoint(one(identifier=live, k=k))
        bodies[f"similar k={k}"] = f"{status}\n{content_type}\n".encode() + body
    return bodies


def empty_bodies(provider: OaiProvider) -> dict[str, bytes]:
    bodies: dict[str, bytes] = {}
    collect(provider, "empty Identify", one(verb="Identify"), bodies)
    collect(provider, "empty ListSets", one(verb="ListSets"), bodies)
    collect(
        provider,
        "empty ListRecords",
        one(verb="ListRecords", metadataPrefix="oai_dc"),
        bodies,
    )
    collect(
        provider,
        "empty ListIdentifiers set",
        one(verb="ListIdentifiers", metadataPrefix="oai_dc", set="aero"),
        bodies,
    )
    return bodies


@pytest.fixture(scope="module")
def response_hashes(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = ProviderConfig(
        repository_name="golden aggregator",
        base_url=BASE,
        admin_email="oai@golden.example",
        k=4,
        page_size=5,
    )
    with pytest.MonkeyPatch.context() as patch:
        # the compute date stamps computedDate, the serving date responseDate
        patch.setattr(pipeline, "utc_now_string", lambda: DATE)
        patch.setattr(oai_xml, "utc_now_string", lambda: DATE)
        stocked = RecordStore(root / "stocked")
        records = seeded_records()
        for record in records:
            stocked.put_record(record)
        index_store(stocked)
        compute_store(stocked, k=6)
        ids = sorted(record.identifier for record in records if not record.deleted)
        bodies = stocked_bodies(OaiProvider(stocked, config), ids)
        bodies.update(empty_bodies(OaiProvider(RecordStore(root / "empty"), config)))
    return {label: hashlib.sha256(body).hexdigest() for label, body in bodies.items()}


GOLDEN = {
    "Identify": "2e38ef057edd30c99be9dc5ecaf0cc8d18129d00ae7fb7742ac35e8e69493796",
    "ListMetadataFormats": "9b433f2c60425bcf86ac46bf216a3553ba006ce856c87435458059f045b47af8",
    "ListMetadataFormats identifier": "c5d511466a445c6bc93931da59b4adc78c6eb9f8f22c38757b4ed7214bdf5354",
    "ListMetadataFormats unknown identifier": "22027afc533202855a8eba914956de32039efcc39ce34ae6fdb0cc594d3e2188",
    "ListSets": "ef18e872200c84bb605b234475b813dfb95890f552aac41ec08334464727bde9",
    "ListSets token": "5de712b0d11f1c49f0bab933b679377d5f7c5976974c5ae76804eef14d41873b",
    "ListRecords page 1": "57d038cf673b624e43d64c337f794374c3f40121de7129f85f6067d5611f2de3",
    "ListRecords page 2": "a9cf24d382c8570757efc2d823d246effffc2ec1d7609ef5eacc2110765e308e",
    "ListRecords page 3": "4b9197b1dcf2dc9106a5893524a6c98cf1ac8856e5c29d59675469c58b352709",
    "ListRecords page 4": "47cc2a0715df3b3e9cdd57de5b09370ae2fcfe25ea6e27f2a40a631bc3b380a1",
    "ListRecords set page 1": "4c3ea999c0b1ca9b97b2aa956309cb0525a1c9ead76535651dfa348213c134c0",
    "ListRecords window page 1": "5a6d7a306f4a864449a4117fbf441abb66a8b23a1c157b8918e5af122ff7bb55",
    "ListRecords window page 2": "57f30b1fee9a2212d77059ffc705f87c6e5a56002bd7723ea413dab80b71fea5",
    "ListIdentifiers page 1": "a4c5010c1a86a4d1e18867e09dafb4bc79925555a5c09f0c0e5cb5de5db7f396",
    "ListIdentifiers page 2": "5d927d3c05895b371691a29f6b54fc4881f6e1139640c1749d36351ec54f0e21",
    "ListIdentifiers page 3": "eeff72fb30b4b2bf657896d3b1e5f2647081f6f3aa229531f48cfb3972c0acab",
    "ListIdentifiers page 4": "5f431a7fe2515702a50a1490b3e3de4015b12f85487fbfdc93951725af171f1f",
    "ListIdentifiers set page 1": "5098022a24d11953e10a305c83978127d0ed6d2886f2691546d9156099044c93",
    "ListIdentifiers window page 1": "b2631384bb59ce7ba6676e8c123659ed4b959e8c6d95b2f9dda71eac75a30fc5",
    "ListIdentifiers window page 2": "7ba48bbd0af7044b41ad1c6312eaa92013fb8ba26ec5ebb27cb2fa5b09d08d57",
    "ListRecords token out of range": "554d1901fa0819d8bf7efb9508e426c3b9dca587bbaf3517f9f7b8b9e83e7042",
    "ListRecords token of another epoch": "fa9b82852e63c89d20ab377d9e5a94244041824272eebae97714aaef1e09e92c",
    "ListRecords malformed token": "7d5a14627ac6331e1310356e010fbc92aafd7e0ee397593ee03ee78a39c9e8ab",
    "ListRecords unknown set": "9f641961f2211cb8305b3f9f22e56d530984ff08249331c87a186ff303f0ed1f",
    "ListRecords empty window": "8d5c8582855c1b98a3f07dddb3989976e21ff9b2ac1ee74ec5ec52407e34b8ac",
    "ListRecords other format": "1fe6999dbd1f94f035948e545bee0068b2a62bf9822abe37811c3b940d610079",
    "ListIdentifiers bad datestamp": "e852bc463e946c7688b7d35cead84cb8e314d966b33f72926646f66a60598932",
    "GetRecord live": "d777178f381240d6d37050da31091152d23af96ed43769c61cc53a34d6b247e3",
    "GetRecord other live": "81599f732cbed206ffb6e2e9c2c890b7e59d21ee7c97b80a62f27a78148180f7",
    "GetRecord foreign block": "41dd2c8fc715aeb1abdc36f557027b8646d9cc5c5f57f37bd1e041bc22f61b3d",
    "GetRecord deleted": "b241418f78bcd1aa1a043456fe55fca498a7ba17e203203d3fc20163925cd35b",
    "GetRecord unknown": "b864b41cd13c4064fdeede22c62bfcbe9751ce6fc38d9da4a6a03428d36246da",
    "GetRecord no prefix": "13a29ddb6540302f8fb26a5ff302421177078942c32b3a6528c4efecb7250eab",
    "unknown verb": "d4f248d21d1302e130f0a6e2302ea4a3917a9cb8931aaa6237a1c370ae4f83a9",
    "missing verb": "20c342480dfc2d5a217097d3158fec4db805e553c52d8c7aea16d3084b9115ba",
    "repeated verb": "6c78be56d538497a73481b8e52ba141a569ffc2831c96856e0a4ebee07250d70",
    "repeated argument": "54d497000c6af2eee0fb945e9dfaa54e634eefba221b351510840e3719fa0ab7",
    "Identify extra argument": "dec31740d667a65439fab22b8d62f9cd6a222588dc629a320c831f2c3c7acf37",
    "similar k=2": "6b6099a0703f499761434563eb355f86fbd206dc1c25a6b890fb693f80a20720",
    "similar k=0": "fe8f9a0bc06f39614bffa10875c6f05af1ca4fda1d95fc92a33ef89b1225f219",
    "empty Identify": "6e105e044d74f18e3fcd5841c6af9b9fa2dba3531f10e91e466bb6695dc749fa",
    "empty ListSets": "3e8e163f948825553bb918c6697f36ffb6e77647d8b3bbd97d020e52a3305bc1",
    "empty ListRecords": "ef63a0d9a9a3f625b9b0d8e2c63afb5f2e76a479d11bbd1b2f1420b21e2f426d",
    "empty ListIdentifiers set": "08ac391e63295022e9e861cb8b0967c7516e3e5e34bf44391faf0f0681619d47",
}


def test_every_response_matches_its_golden_hash(response_hashes):
    assert response_hashes == GOLDEN

"""OAI-PMH 2.0 wire format: parsing and serialization.

Responses are built with ElementTree against the protocol namespaces. One
envelope builder writes what every response shares: the OAI-PMH root, a
responseDate of the current time, the <request> echo and the verb's payload
element; each serializer hands it only the payload's children. The store
keeps each record fragment at the depth a response holds it, so a ListRecords
page may instead splice the stored bytes in (splice_list_records). The
similarity ranking travels inside a record's optional <about> container as a
<similarity> element (own namespace) holding <match identifier score/>
children, score rendered with exactly four decimals.

parse_response reads the errors and the resumptionToken text of any
response, but records only from a ListRecords page (what the harvester
fetches) or a GetRecord answer; other verbs' payloads are not parsed. A
record's similarity <about> is written, never read: parsing drops it unread,
so an upstream aggregator's container, well-formed or not, cannot stop a
harvest.

Serialization and parsing are inverses for validated records: provenance
about blocks are normalized once at parse time (stand-alone re-serialization
of the block element), after which serialize -> parse is lossless.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence
from xml.sax.saxutils import escape

from .exceptions import (
    ProtocolMismatchError,
    RecordValidationError,
    XmlParseError,
)
from .records import (
    DC_ELEMENTS,
    NAMESPACE_PREFIXES,
    Header,
    MetadataRecord,
    OaiError,
    SimilarityAbout,
    SimilarityMatch,
    is_valid_datestamp,
    utc_now_string,
)

OAI_NS = "http://www.openarchives.org/OAI/2.0/"
OAI_DC_NS = "http://www.openarchives.org/OAI/2.0/oai_dc/"
DC_NS = "http://purl.org/dc/elements/1.1/"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
SIMILARITY_NS = "urn:simharvest:similarity"

#: The one metadata format this repository harvests and serves.
METADATA_PREFIX = "oai_dc"
OAI_DC_SCHEMA_URL = "http://www.openarchives.org/OAI/2.0/oai_dc.xsd"

OAI_SCHEMA_LOCATION = f"{OAI_NS} http://www.openarchives.org/OAI/2.0/OAI-PMH.xsd"
OAI_DC_SCHEMA_LOCATION = f"{OAI_DC_NS} {OAI_DC_SCHEMA_URL}"
DEFAULT_SIMILARITY_SCHEMA_URL = "/schema/similarity.xsd"

_LIST_ARGUMENTS = (("metadataPrefix",), ("from", "until", "set", "resumptionToken"))

#: verb -> (required argument names, optional argument names), besides verb.
#: GetRecord and ListRecords come first: between them they name every
#: argument, in the order a response's <request> echoes them.
VERB_ARGUMENTS = {
    "GetRecord": (("identifier", "metadataPrefix"), ()),
    "ListRecords": _LIST_ARGUMENTS,
    "Identify": ((), ()),
    "ListMetadataFormats": ((), ("identifier",)),
    "ListSets": ((), ("resumptionToken",)),
    "ListIdentifiers": _LIST_ARGUMENTS,
}
_ECHOED = dict.fromkeys(
    ["verb"] + [name for names in VERB_ARGUMENTS.values() for name in sum(names, ())]
)


def argument_problems(verb: str, arguments: Mapping[str, str]) -> list[str]:
    """Every way one request's arguments (besides verb) break the protocol,
    in checking order; empty for a legal request. The provider answers each
    with badArgument, the harvester refuses to send the request."""
    if verb not in VERB_ARGUMENTS:
        return [f"unknown verb {verb!r}"]
    required, optional = VERB_ARGUMENTS[verb]
    problems = [
        f"{verb} does not accept {name}"
        for name in arguments
        if name not in required and name not in optional
    ]
    if "resumptionToken" in optional and "resumptionToken" in arguments:
        if len(arguments) > 1:
            problems.append("resumptionToken must be the only argument besides verb")
    else:
        problems += [
            f"{verb} requires {name}" for name in required if name not in arguments
        ]
    # setSpec has one or more characters
    if arguments.get("set") == "":
        problems.append("set must be non-empty")
    stamps = []
    for name in ("from", "until"):
        if name in arguments:
            if is_valid_datestamp(arguments[name]):
                stamps.append(arguments[name])
            else:
                problems.append(f"bad {name} datestamp {arguments[name]!r}")
    # section 3.3.1: both bounds share one granularity (day or second), so
    # they compare as strings; valid datestamps of equal length share it
    if len(stamps) == 2 and len(stamps[0]) != len(stamps[1]):
        problems.append("from and until must have the same granularity")
    return problems


def format_score(score: float) -> str:
    """Four-decimal rendering (round-half-even) used everywhere a score is text."""
    if not (0.0 <= score <= 1.0):
        raise RecordValidationError(f"score {score!r} outside [0, 1]")
    return f"{score:.4f}"


@dataclass(frozen=True)
class ResumptionToken:
    """Flow-control token of a list response; empty text means 'list done'.
    parse_response fills in the text alone."""

    text: str
    complete_list_size: int | None = None
    cursor: int | None = None


@dataclass
class ParsedResponse:
    """What parse_response extracts from one response body."""

    errors: list[OaiError] = field(default_factory=list)
    records: list[MetadataRecord] = field(default_factory=list)
    token: ResumptionToken | None = None


# --- helpers ----------------------------------------------------------------


def _q(tag: str) -> str:
    return f"{{{OAI_NS}}}{tag}"


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _byte_offset(data: bytes, line: int, column: int) -> int:
    lines = data.split(b"\n")
    if line < 1 or line > len(lines):
        return 0
    return sum(len(l) + 1 for l in lines[: line - 1]) + column


def _fromstring(data: bytes | str) -> ET.Element:
    raw = data.encode("utf-8") if isinstance(data, str) else data
    try:
        return ET.fromstring(raw)
    except ET.ParseError as exc:
        line, column = exc.position
        offset = _byte_offset(raw, line, column)
        raise XmlParseError(
            f"not well-formed XML at byte {offset} (line {line}, column {column}): {exc}",
            byte_offset=offset,
        ) from exc


def _element_text(parent: ET.Element, tag: str) -> str | None:
    child = parent.find(_q(tag))
    if child is None or child.text is None:
        return None
    return child.text.strip()


# --- serialization ----------------------------------------------------------


def _leaf(tag: str, text: str | None, **attrib: str) -> ET.Element:
    element = ET.Element(_q(tag), **attrib)
    element.text = text
    return element


def _branch(tag: str, leaves: Iterable[tuple[str, str]]) -> ET.Element:
    element = ET.Element(_q(tag))
    element.extend(_leaf(name, text) for name, text in leaves)
    return element


def _response(
    verb: str | None,
    children: Iterable[ET.Element],
    base_url: str,
    request_args: Mapping[str, str],
    token: ResumptionToken | None = None,
) -> bytes:
    """One whole response: the OAI-PMH root, its responseDate (now) and
    <request> echo, then the verb's payload element holding children and
    the token last. An error response (verb None) carries its <error>
    children on the root and echoes no argument after badVerb or
    badArgument."""
    root = ET.Element(
        _q("OAI-PMH"), {f"{{{XSI_NS}}}schemaLocation": OAI_SCHEMA_LOCATION}
    )
    ET.SubElement(root, _q("responseDate")).text = utc_now_string()
    request = ET.SubElement(root, _q("request"))
    request.text = base_url
    payload = root if verb is None else ET.SubElement(root, _q(verb))
    payload.extend(children)
    codes = {error.get("code") for error in root.findall(_q("error"))}
    if not codes & {"badVerb", "badArgument"}:
        for key in _ECHOED:
            if request_args.get(key) is not None:
                request.set(key, str(request_args[key]))
    if token is not None:
        element = _leaf("resumptionToken", token.text)
        for name, value in (
            ("completeListSize", token.complete_list_size),
            ("cursor", token.cursor),
        ):
            if value is not None:
                element.set(name, str(value))
        payload.append(element)
    return _to_bytes(root)


def _to_bytes(root: ET.Element, level: int = 0) -> bytes:
    ET.indent(root, level=level)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def _header_element(record: MetadataRecord | Header) -> ET.Element:
    header = ET.Element(_q("header"))
    if record.deleted:
        header.set("status", "deleted")
    ET.SubElement(header, _q("identifier")).text = record.identifier
    ET.SubElement(header, _q("datestamp")).text = record.datestamp
    for spec in record.set_specs:
        ET.SubElement(header, _q("setSpec")).text = spec
    return header


def _metadata_element(record: MetadataRecord) -> ET.Element:
    metadata = ET.Element(_q("metadata"))
    dc = ET.SubElement(
        metadata,
        f"{{{OAI_DC_NS}}}dc",
        {f"{{{XSI_NS}}}schemaLocation": OAI_DC_SCHEMA_LOCATION},
    )
    for name, value in record.dc_fields:
        ET.SubElement(dc, f"{{{DC_NS}}}{name}").text = value
    return metadata


def _similarity_element(about: SimilarityAbout, schema_url: str) -> ET.Element:
    element = ET.Element(
        f"{{{SIMILARITY_NS}}}similarity",
        {
            f"{{{XSI_NS}}}schemaLocation": f"{SIMILARITY_NS} {schema_url}",
            "subject": about.subject_identifier,
            "computedDate": about.computed_at,
        },
    )
    for match in about.matches:
        ET.SubElement(
            element,
            f"{{{SIMILARITY_NS}}}match",
            {"identifier": match.identifier, "score": format_score(match.score)},
        )
    return element


def serialize_similarity(about: SimilarityAbout, schema_url: str) -> bytes:
    """Stand-alone similarity container document, as the /similar route sends it."""
    return _to_bytes(_similarity_element(about, schema_url))


def _record_element(
    record: MetadataRecord,
    about: SimilarityAbout | None = None,
    schema_url: str = DEFAULT_SIMILARITY_SCHEMA_URL,
) -> ET.Element:
    element = ET.Element(_q("record"))
    element.append(_header_element(record))
    if record.deleted:
        return element
    element.append(_metadata_element(record))
    for block in record.provenance:
        container = ET.SubElement(element, _q("about"))
        container.append(_fromstring(block))
    if about is not None:
        if about.subject_identifier != record.identifier:
            raise RecordValidationError(
                "similarity subject does not match the record identifier"
            )
        container = ET.SubElement(element, _q("about"))
        container.append(_similarity_element(about, schema_url))
    return element


def serialize_get_record(
    record: MetadataRecord,
    about: SimilarityAbout | None,
    *,
    base_url: str,
    request_args: Mapping[str, str],
    schema_url: str,
) -> bytes:
    """One-record response; the similarity container rides in its own <about>."""
    if about is not None and record.deleted:
        raise RecordValidationError("deleted records cannot carry a similarity about")
    children = [_record_element(record, about, schema_url)]
    return _response("GetRecord", children, base_url, request_args)


def serialize_list_records(
    records: Sequence[MetadataRecord],
    *,
    base_url: str,
    request_args: Mapping[str, str],
    token: ResumptionToken | None = None,
) -> bytes:
    children = map(_record_element, records)
    return _response("ListRecords", children, base_url, request_args, token)


def serialize_list_identifiers(
    records: Sequence[MetadataRecord | Header],
    *,
    base_url: str,
    request_args: Mapping[str, str],
    token: ResumptionToken | None = None,
) -> bytes:
    children = map(_header_element, records)
    return _response("ListIdentifiers", children, base_url, request_args, token)


def serialize_identify(
    repository_name: str,
    admin_email: str,
    earliest_datestamp: str,
    *,
    base_url: str,
    request_args: Mapping[str, str],
) -> bytes:
    """Identify response; base_url is the repository's baseURL, and the
    protocol version, deleted-record policy and granularity are fixed."""
    leaves = (
        ("repositoryName", repository_name),
        ("baseURL", base_url),
        ("protocolVersion", "2.0"),
        ("adminEmail", admin_email),
        ("earliestDatestamp", earliest_datestamp),
        ("deletedRecord", "transient"),
        ("granularity", "YYYY-MM-DDThh:mm:ssZ"),
    )
    children = [_leaf(name, text) for name, text in leaves]
    return _response("Identify", children, base_url, request_args)


def serialize_list_metadata_formats(
    *, base_url: str, request_args: Mapping[str, str]
) -> bytes:
    """The one format served: unqualified Dublin Core."""
    leaves = (
        ("metadataPrefix", METADATA_PREFIX),
        ("schema", OAI_DC_SCHEMA_URL),
        ("metadataNamespace", OAI_DC_NS),
    )
    children = [_branch("metadataFormat", leaves)]
    return _response("ListMetadataFormats", children, base_url, request_args)


def serialize_list_sets(
    specs: Sequence[str], *, base_url: str, request_args: Mapping[str, str]
) -> bytes:
    """One set per spec, named by its spec."""
    children = [_branch("set", (("setSpec", s), ("setName", s))) for s in specs]
    return _response("ListSets", children, base_url, request_args)


def serialize_error(
    errors: Sequence[OaiError], *, base_url: str, request_args: Mapping[str, str]
) -> bytes:
    """Protocol error response. badVerb/badArgument suppress argument echoing."""
    if not errors:
        raise RecordValidationError("an error response needs at least one error")
    children = [_leaf("error", e.message or None, code=e.code) for e in errors]
    return _response(None, children, base_url, request_args)


def build_similarity_about(
    subject_identifier: str,
    matches: Iterable[SimilarityMatch],
    computed_at: str,
) -> SimilarityAbout:
    """One subject's similarity container, its matches kept in the order
    given: the ranking is compute's (see load_top_matches)."""
    return SimilarityAbout(subject_identifier, computed_at, tuple(matches))


# --- record fragments (store file format) -----------------------------------


def serialize_record_fragment(record: MetadataRecord) -> bytes:
    """Stand-alone <record> document, the store's per-record file, indented
    two levels deep as a response holds it: it ends in "\n    </record>"."""
    return _to_bytes(_record_element(record), level=2)


def _record_document(data: bytes) -> ET.Element:
    element = _fromstring(data)
    if element.tag != _q("record"):
        raise ProtocolMismatchError(f"expected a record document, got {element.tag}")
    return element


def parse_record_fragment(data: bytes) -> MetadataRecord:
    return _parse_record(_record_document(data))


def parse_record_header(data: bytes) -> Header:
    """The header of a stored record document; its metadata is left unread."""
    return _parse_header(_record_document(data))


# --- ListRecords pages spliced from record fragments ------------------------

_FRAGMENT_START = re.compile(
    rb"<\?xml version='1\.0' encoding='utf-8'\?>\n"
    rb'<record xmlns="%s"((?: xmlns:[^=]*="[^"]*")*)>' % OAI_NS.encode()
    + rb'\n {6}<header(?: status="deleted")?>\n {8}<identifier>([^<]*)</identifier>'
)
_FRAGMENT_DECLARATION = re.compile(rb' xmlns:[^=]*="[^"]*"')
# markup serialize_record_fragment never writes after the start tag: siblings
# without indentation, comments, CDATA, processing instructions, raw carriage
# returns and namespace declarations below <record>
_UNWRITTEN_MARKUP = re.compile(rb"><|<[!?]|\r|xmlns")
#: prefix -> its namespace declaration, for the prefixes registered
#: process-wide; any other prefix is numbered per document, so it cannot be
#: spliced
_DECLARATIONS = {
    prefix: f' xmlns{":" if prefix else ""}{prefix}="{uri}"'.encode()
    for prefix, uri in NAMESPACE_PREFIXES.items()
}
_DECLARED_PREFIXES = {
    declaration: prefix for prefix, declaration in _DECLARATIONS.items()
}
_RECORD_INDENT = b"    "  # a page holds its records two levels deep


def fragment_layout(identifier: str, data: bytes) -> tuple[int, frozenset[str]] | None:
    """Where a stored fragment's body starts, and the prefixes its <record>
    declares: a ListRecords page carries it as b"<record>" + data[offset:],
    minus its declaration and its <record>'s namespace attributes. None
    unless data names identifier and has the shape and the registered
    prefixes serialize_record_fragment writes. data must be known to be
    well-formed: this reads its markup, it does not parse it."""
    start = _FRAGMENT_START.match(data)
    if (
        start is None
        # escape() escapes &, < and > in text, as ElementTree does
        or start[2] != escape(identifier).encode("utf-8")
        or not data.endswith(b"\n" + _RECORD_INDENT + b"</record>")
        or _UNWRITTEN_MARKUP.search(data, start.end()) is not None
    ):
        return None
    prefixes = set()
    for declaration in _FRAGMENT_DECLARATION.findall(start[1]):
        if declaration not in _DECLARED_PREFIXES:
            return None
        prefixes.add(_DECLARED_PREFIXES[declaration])
    return start.end(1) + 1, frozenset(prefixes)


def splice_list_records(
    fragments: Sequence[tuple[str, bytes]],
    *,
    base_url: str,
    request_args: Mapping[str, str],
    token: ResumptionToken | None,
    layout: Callable[[str, bytes], tuple[int, frozenset[str]] | None],
) -> bytes | None:
    """The page serialize_list_records writes for the records stored as
    these (identifier, fragment bytes) pairs, one or more, built from the
    bytes without parsing a record into a tree. None when any fragment is
    not one serialize_record_fragment wrote for its identifier with
    registered prefixes alone: parse those the long way.
    layout(identifier, data) gives fragment_layout's answer for a fragment
    it has seen parse, remembered or worked out (see store.Catalog.layout)."""
    prefixes = {"", "xsi"}
    bodies = []
    for identifier, data in fragments:
        checked = layout(identifier, data)
        if checked is None:
            return None
        offset, declared = checked
        prefixes |= declared
        bodies.append(b"<record>" + data[offset:])
    # an empty <record /> stands in for the records; ElementTree declares the
    # envelope's own two namespaces on the root, and escaping leaves no other
    # raw "<record />" in the envelope
    placeholder = [ET.Element(_q("record"))]
    envelope = _response("ListRecords", placeholder, base_url, request_args, token)
    return (
        envelope
        .replace(
            _DECLARATIONS[""] + _DECLARATIONS["xsi"],
            b"".join(_DECLARATIONS[prefix] for prefix in sorted(prefixes)),
            1,
        )
        .replace(b"<record />", (b"\n" + _RECORD_INDENT).join(bodies), 1)
    )


# --- parsing ----------------------------------------------------------------


def _parse_header(record: ET.Element) -> Header:
    header = record.find(_q("header"))
    if header is None:
        raise RecordValidationError("record lacks a header")
    identifier = _element_text(header, "identifier")
    datestamp = _element_text(header, "datestamp")
    if not identifier or not datestamp:
        raise RecordValidationError("header lacks identifier or datestamp")
    specs = tuple(
        el.text.strip() for el in header.findall(_q("setSpec")) if el.text
    )
    return Header(identifier, datestamp, specs, header.get("status") == "deleted")


def _parse_record(element: ET.Element) -> MetadataRecord:
    header = _parse_header(element)
    identifier = header.identifier
    dc_fields: list[tuple[str, str]] = []
    metadata = element.find(_q("metadata"))
    if metadata is not None:
        dc = metadata.find(f"{{{OAI_DC_NS}}}dc")
        if dc is None:
            raise RecordValidationError(
                f"record {identifier} metadata is not unqualified Dublin Core"
            )
        for child in dc:
            name = _local(child.tag)  # an un-namespaced tag has no "}"
            if child.tag != f"{{{DC_NS}}}{name}" or name not in DC_ELEMENTS:
                raise RecordValidationError(
                    f"record {identifier} carries non-DC element {child.tag}"
                )
            if len(child):  # only child.text would be kept: refuse, do not cut
                raise RecordValidationError(
                    f"record {identifier} has mixed content in DC element {name}"
                )
            dc_fields.append((name, child.text or ""))
    provenance: list[str] = []
    for about in element.findall(_q("about")):
        children = list(about)
        if len(children) != 1:
            raise RecordValidationError(
                f"record {identifier} has an about container without exactly one child"
            )
        child = children[0]
        if child.tag == f"{{{SIMILARITY_NS}}}similarity":
            continue  # computed results are served, never harvested
        child.tail = None  # text after the block is not part of it
        provenance.append(ET.tostring(child, encoding="unicode"))
    return MetadataRecord(
        identifier=identifier,
        datestamp=header.datestamp,
        set_specs=header.set_specs,
        dc_fields=tuple(dc_fields),
        provenance=tuple(provenance),
        deleted=header.deleted,
    )


def _parse_token(parent: ET.Element) -> ResumptionToken | None:
    # completeListSize and cursor are optional (section 3.5) and the harvester
    # needs neither, so a malformed one cannot abort a harvest
    element = parent.find(_q("resumptionToken"))
    if element is None:
        return None
    return ResumptionToken((element.text or "").strip())


def parse_response(data: bytes | str, expected_verb: str) -> ParsedResponse:
    """Parse one response body, checking it answers the verb we asked.

    Records come only from a GetRecord or ListRecords payload, without their
    similarity containers. Protocol errors inside the body are returned, not
    raised; the caller decides how to react. Nothing absent is ever invented.
    """
    if expected_verb not in VERB_ARGUMENTS:
        raise RecordValidationError(f"unknown verb {expected_verb!r}")
    root = _fromstring(data)
    if root.tag != _q("OAI-PMH"):
        raise ProtocolMismatchError(f"root element is {root.tag}, not OAI-PMH")
    parsed = ParsedResponse()
    for error in root.findall(_q("error")):
        parsed.errors.append(
            OaiError(code=error.get("code", ""), message=(error.text or "").strip())
        )
    if parsed.errors:
        return parsed
    payload = None
    for child in root:
        if _local(child.tag) in VERB_ARGUMENTS:
            payload = child
            break
    if payload is None:
        raise ProtocolMismatchError("response carries neither errors nor a verb payload")
    actual = _local(payload.tag)
    if actual != expected_verb:
        raise ProtocolMismatchError(
            f"asked for {expected_verb} but the response answers {actual}"
        )
    if actual in ("GetRecord", "ListRecords"):
        parsed.records = list(map(_parse_record, payload.findall(_q("record"))))
    parsed.token = _parse_token(payload)
    return parsed

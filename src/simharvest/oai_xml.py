"""OAI-PMH 2.0 wire format: parsing and serialization.

Responses are built with ElementTree against the protocol namespaces. The
similarity ranking travels inside a record's optional <about> container as a
<similarity> element (own namespace) holding <match identifier score/>
children, score rendered with exactly four decimals.

Serialization and parsing are inverses for validated records: provenance
about blocks are normalized once at parse time (stand-alone re-serialization
of the block element), after which serialize -> parse is lossless.
"""

from __future__ import annotations

import copy
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .exceptions import (
    ProtocolMismatchError,
    RecordValidationError,
    XmlParseError,
)
from .records import (
    DC_ELEMENTS,
    MetadataRecord,
    OaiError,
    SimilarityAbout,
    SimilarityMatch,
    canonical_xml_block,
    is_valid_datestamp,
    utc_now_string,
)

OAI_NS = "http://www.openarchives.org/OAI/2.0/"
OAI_DC_NS = "http://www.openarchives.org/OAI/2.0/oai_dc/"
DC_NS = "http://purl.org/dc/elements/1.1/"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
PROVENANCE_NS = "http://www.openarchives.org/OAI/2.0/provenance"
SIMILARITY_NS = "urn:simharvest:similarity"

OAI_SCHEMA_LOCATION = f"{OAI_NS} http://www.openarchives.org/OAI/2.0/OAI-PMH.xsd"
OAI_DC_SCHEMA_LOCATION = (
    f"{OAI_DC_NS} http://www.openarchives.org/OAI/2.0/oai_dc.xsd"
)
DEFAULT_SIMILARITY_SCHEMA_URL = "/schema/similarity.xsd"

#: verb -> (required argument names, optional argument names), besides verb
VERB_ARGUMENTS = {
    "Identify": ((), ()),
    "ListMetadataFormats": ((), ("identifier",)),
    "ListSets": ((), ("resumptionToken",)),
    "ListIdentifiers": (
        ("metadataPrefix",),
        ("from", "until", "set", "resumptionToken"),
    ),
    "ListRecords": (
        ("metadataPrefix",),
        ("from", "until", "set", "resumptionToken"),
    ),
    "GetRecord": (("identifier", "metadataPrefix"), ()),
}

#: Request arguments the protocol defines, besides verb.
REQUEST_ARGUMENTS = (
    "identifier",
    "metadataPrefix",
    "from",
    "until",
    "set",
    "resumptionToken",
)

_SCORE_RE = re.compile(r"^[01]\.\d{4}$")


def format_score(score: float) -> str:
    """Four-decimal rendering (round-half-even) used everywhere a score is text."""
    if not (0.0 <= score <= 1.0):
        raise RecordValidationError(f"score {score!r} outside [0, 1]")
    return f"{score:.4f}"


@dataclass(frozen=True)
class ResumptionToken:
    """Flow-control token of a list response; empty text means 'list done'."""

    text: str
    complete_list_size: int | None = None
    cursor: int | None = None


@dataclass
class ParsedResponse:
    """Everything extracted from one response body."""

    verb: str
    response_date: str | None = None
    request_attrs: dict = field(default_factory=dict)
    errors: list[OaiError] = field(default_factory=list)
    records: list[MetadataRecord] = field(default_factory=list)
    similarity: dict[str, SimilarityAbout] = field(default_factory=dict)
    token: ResumptionToken | None = None
    identify: dict | None = None
    formats: list[dict] = field(default_factory=list)
    sets: list[dict] = field(default_factory=list)


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


def _response_root(
    base_url: str,
    request_args: Mapping[str, str],
    response_date: str | None,
    echo_attributes: bool,
) -> ET.Element:
    root = ET.Element(
        _q("OAI-PMH"), {f"{{{XSI_NS}}}schemaLocation": OAI_SCHEMA_LOCATION}
    )
    date = ET.SubElement(root, _q("responseDate"))
    date.text = response_date or utc_now_string()
    request = ET.SubElement(root, _q("request"))
    if echo_attributes:
        for key in ("verb",) + REQUEST_ARGUMENTS:
            if key in request_args and request_args[key] is not None:
                request.set(key, str(request_args[key]))
    request.text = base_url
    return root


def _to_bytes(root: ET.Element) -> bytes:
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def _header_element(record: MetadataRecord) -> ET.Element:
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
    element = _similarity_element(about, schema_url)
    ET.indent(element)
    return ET.tostring(element, encoding="utf-8", xml_declaration=True)


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


def _token_element(token: ResumptionToken) -> ET.Element:
    element = ET.Element(_q("resumptionToken"))
    if token.complete_list_size is not None:
        element.set("completeListSize", str(token.complete_list_size))
    if token.cursor is not None:
        element.set("cursor", str(token.cursor))
    element.text = token.text
    return element


def serialize_get_record(
    record: MetadataRecord,
    about: SimilarityAbout | None = None,
    *,
    base_url: str,
    request_args: Mapping[str, str],
    response_date: str | None = None,
    schema_url: str = DEFAULT_SIMILARITY_SCHEMA_URL,
) -> bytes:
    """One-record response; the similarity container rides in its own <about>."""
    if about is not None and record.deleted:
        raise RecordValidationError("deleted records cannot carry a similarity about")
    root = _response_root(base_url, request_args, response_date, True)
    payload = ET.SubElement(root, _q("GetRecord"))
    payload.append(_record_element(record, about, schema_url))
    return _to_bytes(root)


def serialize_list_records(
    records: Sequence[MetadataRecord],
    *,
    base_url: str,
    request_args: Mapping[str, str],
    token: ResumptionToken | None = None,
    response_date: str | None = None,
) -> bytes:
    root = _response_root(base_url, request_args, response_date, True)
    payload = ET.SubElement(root, _q("ListRecords"))
    for record in records:
        payload.append(_record_element(record))
    if token is not None:
        payload.append(_token_element(token))
    return _to_bytes(root)


def serialize_list_identifiers(
    records: Sequence[MetadataRecord],
    *,
    base_url: str,
    request_args: Mapping[str, str],
    token: ResumptionToken | None = None,
    response_date: str | None = None,
) -> bytes:
    root = _response_root(base_url, request_args, response_date, True)
    payload = ET.SubElement(root, _q("ListIdentifiers"))
    for record in records:
        payload.append(_header_element(record))
    if token is not None:
        payload.append(_token_element(token))
    return _to_bytes(root)


def serialize_identify(
    info: Mapping[str, object],
    *,
    base_url: str,
    request_args: Mapping[str, str],
    response_date: str | None = None,
) -> bytes:
    """Identify response. info supplies the seven required repository fields."""
    root = _response_root(base_url, request_args, response_date, True)
    payload = ET.SubElement(root, _q("Identify"))
    ET.SubElement(payload, _q("repositoryName")).text = str(info["repositoryName"])
    ET.SubElement(payload, _q("baseURL")).text = str(info["baseURL"])
    ET.SubElement(payload, _q("protocolVersion")).text = str(
        info.get("protocolVersion", "2.0")
    )
    emails = info["adminEmail"]
    if isinstance(emails, str):
        emails = [emails]
    for email in emails:
        ET.SubElement(payload, _q("adminEmail")).text = str(email)
    ET.SubElement(payload, _q("earliestDatestamp")).text = str(
        info["earliestDatestamp"]
    )
    ET.SubElement(payload, _q("deletedRecord")).text = str(
        info.get("deletedRecord", "transient")
    )
    ET.SubElement(payload, _q("granularity")).text = str(
        info.get("granularity", "YYYY-MM-DDThh:mm:ssZ")
    )
    return _to_bytes(root)


def serialize_list_metadata_formats(
    formats: Sequence[Mapping[str, str]],
    *,
    base_url: str,
    request_args: Mapping[str, str],
    response_date: str | None = None,
) -> bytes:
    root = _response_root(base_url, request_args, response_date, True)
    payload = ET.SubElement(root, _q("ListMetadataFormats"))
    for entry in formats:
        element = ET.SubElement(payload, _q("metadataFormat"))
        ET.SubElement(element, _q("metadataPrefix")).text = entry["metadataPrefix"]
        ET.SubElement(element, _q("schema")).text = entry["schema"]
        ET.SubElement(element, _q("metadataNamespace")).text = entry[
            "metadataNamespace"
        ]
    return _to_bytes(root)


def serialize_list_sets(
    sets: Sequence[Mapping[str, str]],
    *,
    base_url: str,
    request_args: Mapping[str, str],
    token: ResumptionToken | None = None,
    response_date: str | None = None,
) -> bytes:
    root = _response_root(base_url, request_args, response_date, True)
    payload = ET.SubElement(root, _q("ListSets"))
    for entry in sets:
        element = ET.SubElement(payload, _q("set"))
        ET.SubElement(element, _q("setSpec")).text = entry["setSpec"]
        ET.SubElement(element, _q("setName")).text = entry.get(
            "setName", entry["setSpec"]
        )
    if token is not None:
        payload.append(_token_element(token))
    return _to_bytes(root)


def serialize_error(
    errors: OaiError | Sequence[OaiError],
    *,
    base_url: str,
    request_args: Mapping[str, str],
    response_date: str | None = None,
) -> bytes:
    """Protocol error response. badVerb/badArgument suppress argument echoing."""
    if isinstance(errors, OaiError):
        errors = [errors]
    if not errors:
        raise RecordValidationError("an error response needs at least one error")
    echo = not any(e.code in ("badVerb", "badArgument") for e in errors)
    root = _response_root(base_url, request_args, response_date, echo)
    for error in errors:
        element = ET.SubElement(root, _q("error"), {"code": error.code})
        if error.message:
            element.text = error.message
    return _to_bytes(root)


def build_similarity_about(
    subject_identifier: str,
    matches: Iterable[SimilarityMatch],
    k: int,
    computed_at: str | None = None,
) -> SimilarityAbout:
    """Rank matches for one subject: score desc, id asc, self removed, k kept."""
    if k < 0:
        raise RecordValidationError("k must be non-negative")
    candidates = [m for m in matches if m.identifier != subject_identifier]
    candidates.sort(key=lambda m: (-m.score, m.identifier))
    return SimilarityAbout(
        subject_identifier, computed_at or utc_now_string(), tuple(candidates[:k])
    )


# --- record fragments (store file format) -----------------------------------


def serialize_record_fragment(record: MetadataRecord) -> bytes:
    """Stand-alone <record> document, used as the store's per-record file."""
    root = _record_element(record)
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def parse_record_fragment(data: bytes) -> MetadataRecord:
    element = _fromstring(data)
    if element.tag != _q("record"):
        raise ProtocolMismatchError(f"expected a record document, got {element.tag}")
    record, _ = _parse_record(element)
    return record


# --- parsing ----------------------------------------------------------------


def _parse_header(header: ET.Element) -> tuple[str, str, tuple[str, ...], bool]:
    identifier = _element_text(header, "identifier")
    datestamp = _element_text(header, "datestamp")
    if not identifier or not datestamp:
        raise RecordValidationError("header lacks identifier or datestamp")
    specs = tuple(
        el.text.strip() for el in header.findall(_q("setSpec")) if el.text
    )
    deleted = header.get("status") == "deleted"
    return identifier, datestamp, specs, deleted


def _parse_similarity(element: ET.Element) -> SimilarityAbout:
    subject = element.get("subject")
    computed = element.get("computedDate")
    if subject is None or computed is None:
        raise RecordValidationError(
            "similarity container lacks subject or computedDate"
        )
    matches = []
    for child in element:
        if child.tag != f"{{{SIMILARITY_NS}}}match":
            raise RecordValidationError(
                f"unexpected element {child.tag} in similarity container"
            )
        identifier = child.get("identifier")
        score_text = child.get("score")
        if identifier is None or score_text is None or not _SCORE_RE.match(score_text):
            raise RecordValidationError("match needs identifier and a 4-decimal score")
        matches.append(SimilarityMatch(identifier, float(score_text)))
    return SimilarityAbout(subject, computed, tuple(matches))


def _parse_record(
    element: ET.Element,
) -> tuple[MetadataRecord, SimilarityAbout | None]:
    header = element.find(_q("header"))
    if header is None:
        raise RecordValidationError("record lacks a header")
    identifier, datestamp, specs, deleted = _parse_header(header)
    dc_fields: list[tuple[str, str]] = []
    metadata = element.find(_q("metadata"))
    if metadata is not None:
        dc = metadata.find(f"{{{OAI_DC_NS}}}dc")
        if dc is None:
            raise RecordValidationError(
                f"record {identifier} metadata is not unqualified Dublin Core"
            )
        for child in dc:
            namespace, name = child.tag[1:].split("}", 1)
            if namespace != DC_NS or name not in DC_ELEMENTS:
                raise RecordValidationError(
                    f"record {identifier} carries non-DC element {child.tag}"
                )
            dc_fields.append((name, child.text or ""))
    provenance: list[str] = []
    similarity: SimilarityAbout | None = None
    for about in element.findall(_q("about")):
        children = list(about)
        if len(children) != 1:
            raise RecordValidationError(
                f"record {identifier} has an about container without exactly one child"
            )
        child = children[0]
        if child.tag == f"{{{SIMILARITY_NS}}}similarity":
            similarity = _parse_similarity(child)
        else:
            provenance.append(canonical_xml_block(copy.deepcopy(child)))
    record = MetadataRecord(
        identifier=identifier,
        datestamp=datestamp,
        set_specs=specs,
        dc_fields=tuple(dc_fields),
        provenance=tuple(provenance),
        deleted=deleted,
    )
    return record, similarity


def _parse_token(parent: ET.Element) -> ResumptionToken | None:
    element = parent.find(_q("resumptionToken"))
    if element is None:
        return None
    size = element.get("completeListSize")
    cursor = element.get("cursor")
    return ResumptionToken(
        text=(element.text or "").strip(),
        complete_list_size=int(size) if size is not None else None,
        cursor=int(cursor) if cursor is not None else None,
    )


def parse_response(data: bytes | str, expected_verb: str) -> ParsedResponse:
    """Parse one response body, checking it answers the verb we asked.

    Protocol errors inside the body are returned, not raised; the caller
    decides how to react. Nothing absent is ever invented.
    """
    if expected_verb not in VERB_ARGUMENTS:
        raise RecordValidationError(f"unknown verb {expected_verb!r}")
    root = _fromstring(data)
    if root.tag != _q("OAI-PMH"):
        raise ProtocolMismatchError(f"root element is {root.tag}, not OAI-PMH")
    parsed = ParsedResponse(verb=expected_verb)
    parsed.response_date = _element_text(root, "responseDate")
    request = root.find(_q("request"))
    if request is not None:
        parsed.request_attrs = dict(request.attrib)
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
        for element in payload.findall(_q("record")):
            record, similarity = _parse_record(element)
            parsed.records.append(record)
            if similarity is not None:
                parsed.similarity[record.identifier] = similarity
    elif actual == "ListIdentifiers":
        for element in payload.findall(_q("header")):
            identifier, datestamp, specs, deleted = _parse_header(element)
            parsed.records.append(
                MetadataRecord(
                    identifier=identifier,
                    datestamp=datestamp,
                    set_specs=specs,
                    deleted=deleted,
                )
            )
    elif actual == "Identify":
        parsed.identify = {
            _local(child.tag): (child.text or "").strip() for child in payload
        }
        parsed.identify["adminEmail"] = [
            (el.text or "").strip() for el in payload.findall(_q("adminEmail"))
        ]
    elif actual == "ListMetadataFormats":
        for element in payload.findall(_q("metadataFormat")):
            parsed.formats.append(
                {
                    "metadataPrefix": _element_text(element, "metadataPrefix") or "",
                    "schema": _element_text(element, "schema") or "",
                    "metadataNamespace": _element_text(element, "metadataNamespace")
                    or "",
                }
            )
    elif actual == "ListSets":
        for element in payload.findall(_q("set")):
            parsed.sets.append(
                {
                    "setSpec": _element_text(element, "setSpec") or "",
                    "setName": _element_text(element, "setName") or "",
                }
            )
    parsed.token = _parse_token(payload)
    return parsed

"""Structural conformance checks for response bodies.

No XSD engine is involved: these functions codify the wire-format rules as
code (element order, required children and attributes, datestamp lexicals,
error-code vocabulary, the similarity container's score/order rules) and
report every violation found. The test suite uses them to vet every
response the package emits, and reads the similarity containers it serves
through similarity_containers, since the package's own parser drops them.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from simharvest.exceptions import SimHarvestError
from simharvest.oai_xml import (
    DC_NS,
    OAI_DC_NS,
    OAI_NS,
    SIMILARITY_NS,
    VERB_ARGUMENTS,
    XSI_NS,
)
from simharvest.records import (
    DC_ELEMENTS,
    OAI_ERROR_CODES,
    SimilarityAbout,
    SimilarityMatch,
    is_valid_datestamp,
)


class ConformanceError(SimHarvestError):
    """A response body violates the wire-format schema rules."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


_SCORE_RE = re.compile(r"^[01]\.[0-9]{4}$")
_UTC_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")

_REQUEST_ATTRS = frozenset(
    {"verb", "identifier", "metadataPrefix", "from", "until", "set", "resumptionToken"}
)
_TOKEN_ATTRS = frozenset({"completeListSize", "cursor", "expirationDate"})

_IDENTIFY_ORDER = (
    "repositoryName",
    "baseURL",
    "protocolVersion",
    "adminEmail",
    "earliestDatestamp",
    "deletedRecord",
    "granularity",
    "compression",
    "description",
)


def _q(tag: str) -> str:
    return f"{{{OAI_NS}}}{tag}"


def _local(tag) -> str:
    return str(tag).rsplit("}", 1)[-1]


class _Problems(list):
    def add(self, where: str, what: str) -> None:
        self.append(f"{where}: {what}")


def conformance_problems(data: bytes | str) -> list[str]:
    """All rule violations found in one response body; empty means conformant."""
    problems = _Problems()
    raw = data.encode("utf-8") if isinstance(data, str) else data
    try:
        root = ET.fromstring(raw)
    except ET.ParseError as exc:
        problems.add("document", f"not well-formed XML ({exc})")
        return list(problems)
    _check_root(root, problems)
    return list(problems)


def validate_response(data: bytes | str) -> None:
    """Raise ConformanceError if the body breaks any wire-format rule."""
    problems = conformance_problems(data)
    if problems:
        raise ConformanceError(problems)


def validate_similarity_container(element: ET.Element) -> None:
    problems = _Problems()
    _check_similarity(element, problems, "similarity")
    if problems:
        raise ConformanceError(list(problems))


def similarity_containers(data: bytes | str) -> dict[str, SimilarityAbout]:
    """Record identifier -> its similarity container, for each record of one
    response body that carries one; ConformanceError if a container breaks
    the rules validate_similarity_container checks."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    path = f"{_q('about')}/{{{SIMILARITY_NS}}}similarity"
    containers = {}
    for record in ET.fromstring(raw).iter(_q("record")):
        for element in record.iterfind(path):
            validate_similarity_container(element)
            matches = tuple(
                SimilarityMatch(match.get("identifier"), float(match.get("score")))
                for match in element
            )
            identifier = record.findtext(f"{_q('header')}/{_q('identifier')}")
            containers[identifier.strip()] = SimilarityAbout(
                element.get("subject"), element.get("computedDate"), matches
            )
    return containers


# --- internals ---------------------------------------------------------------


def _check_root(root: ET.Element, problems: _Problems) -> None:
    if root.tag != _q("OAI-PMH"):
        problems.add("root", f"element is {root.tag}, expected OAI-PMH in {OAI_NS}")
        return
    location = root.get(f"{{{XSI_NS}}}schemaLocation", "")
    if OAI_NS not in location.split():
        problems.add("root", "xsi:schemaLocation does not bind the OAI-PMH namespace")
    children = list(root)
    if len(children) < 3:
        problems.add("root", "needs responseDate, request, and a payload")
        return
    if children[0].tag != _q("responseDate"):
        problems.add("root", "first child must be responseDate")
    elif not _UTC_RE.match((children[0].text or "").strip()):
        problems.add("responseDate", f"{children[0].text!r} is not a UTC datetime")
    request = children[1]
    if request.tag != _q("request"):
        problems.add("root", "second child must be request")
        request = None
    rest = children[2:]
    error_elements = [el for el in rest if el.tag == _q("error")]
    expected_verb = None
    if error_elements:
        if len(error_elements) != len(rest):
            problems.add("root", "errors may not be mixed with a verb payload")
        codes = set()
        for error in error_elements:
            code = error.get("code", "")
            codes.add(code)
            if code not in OAI_ERROR_CODES:
                problems.add("error", f"unknown code {code!r}")
        if request is not None and codes & {"badVerb", "badArgument"} and request.attrib:
            problems.add(
                "request", "badVerb/badArgument responses must not echo attributes"
            )
    elif len(rest) != 1 or _local(rest[0].tag) not in VERB_ARGUMENTS:
        problems.add("root", "payload must be exactly one verb element")
    else:
        expected_verb = _local(rest[0].tag)
        _check_payload(rest[0], problems)
    _check_request(request, problems, expected_verb)


def _check_request(
    request: ET.Element | None,
    problems: _Problems,
    expected_verb: str | None,
) -> None:
    if request is None:
        return
    if not (request.text or "").strip():
        problems.add("request", "must carry the repository base URL as text")
    for name in request.attrib:
        if name not in _REQUEST_ATTRS:
            problems.add("request", f"illegal attribute {name!r}")
    verb = request.get("verb")
    if verb is not None and verb not in VERB_ARGUMENTS:
        problems.add("request", f"illegal verb {verb!r}")
    if expected_verb is not None and verb is not None and verb != expected_verb:
        problems.add(
            "request", f"verb attribute {verb!r} does not match payload {expected_verb!r}"
        )


def _check_payload(payload: ET.Element, problems: _Problems) -> None:
    verb = _local(payload.tag)
    where = verb
    if verb == "GetRecord":
        records = list(payload)
        if len(records) != 1 or records[0].tag != _q("record"):
            problems.add(where, "must contain exactly one record")
        else:
            _check_record(records[0], problems, f"{where}/record")
    elif verb == "ListRecords":
        _check_list(payload, problems, where, _q("record"), _check_record)
    elif verb == "ListIdentifiers":
        _check_list(payload, problems, where, _q("header"), _check_header)
    elif verb == "Identify":
        _check_identify(payload, problems)
    elif verb == "ListMetadataFormats":
        _check_formats(payload, problems)
    elif verb == "ListSets":
        _check_sets(payload, problems)


def _check_list(payload, problems, where, item_tag, item_check) -> None:
    children = list(payload)
    if children and children[-1].tag == _q("resumptionToken"):
        _check_token(children[-1], problems, where)
        children = children[:-1]
    if not children:
        problems.add(where, "empty lists must be noRecordsMatch errors instead")
    for index, child in enumerate(children):
        if child.tag != item_tag:
            problems.add(where, f"unexpected child {child.tag}")
        else:
            item_check(child, problems, f"{where}[{index}]")


def _check_token(token: ET.Element, problems: _Problems, where: str) -> None:
    for name in token.attrib:
        if name not in _TOKEN_ATTRS:
            problems.add(where, f"resumptionToken has illegal attribute {name!r}")
    for name in ("completeListSize", "cursor"):
        value = token.get(name)
        if value is not None and not value.isdigit():
            problems.add(where, f"resumptionToken {name} {value!r} is not an integer")


def _check_header(header: ET.Element, problems: _Problems, where: str) -> None:
    status = header.get("status")
    if status is not None and status != "deleted":
        problems.add(where, f"illegal header status {status!r}")
    children = list(header)
    if len(children) < 2:
        problems.add(where, "header needs identifier and datestamp")
        return
    if children[0].tag != _q("identifier") or not (children[0].text or "").strip():
        problems.add(where, "first header child must be a non-empty identifier")
    if children[1].tag != _q("datestamp"):
        problems.add(where, "second header child must be datestamp")
    elif not is_valid_datestamp((children[1].text or "").strip()):
        problems.add(where, f"bad datestamp {children[1].text!r}")
    for extra in children[2:]:
        if extra.tag != _q("setSpec"):
            problems.add(where, f"unexpected header child {extra.tag}")
        elif not (extra.text or "").strip():
            problems.add(where, "setSpec must be non-empty")


def _check_record(record: ET.Element, problems: _Problems, where: str) -> None:
    children = list(record)
    if not children or children[0].tag != _q("header"):
        problems.add(where, "record must start with a header")
        return
    header = children[0]
    _check_header(header, problems, f"{where}/header")
    deleted = header.get("status") == "deleted"
    rest = children[1:]
    if deleted:
        if rest:
            problems.add(where, "deleted records carry no metadata or about parts")
        return
    if not rest or rest[0].tag != _q("metadata"):
        problems.add(where, "non-deleted records need a metadata part")
        return
    _check_metadata(rest[0], problems, f"{where}/metadata")
    for about in rest[1:]:
        if about.tag != _q("about"):
            problems.add(where, f"unexpected record child {about.tag}")
            continue
        inner = list(about)
        if len(inner) != 1:
            problems.add(where, "about must contain exactly one element")
            continue
        if inner[0].tag == f"{{{SIMILARITY_NS}}}similarity":
            _check_similarity(inner[0], problems, f"{where}/about/similarity")


def _check_metadata(metadata: ET.Element, problems: _Problems, where: str) -> None:
    inner = list(metadata)
    if len(inner) != 1:
        problems.add(where, "metadata must contain exactly one root element")
        return
    dc = inner[0]
    if dc.tag != f"{{{OAI_DC_NS}}}dc":
        return  # other formats are legal on the wire, just not checked here
    if f"{{{XSI_NS}}}schemaLocation" not in dc.attrib:
        problems.add(where, "oai_dc container lacks xsi:schemaLocation")
    for child in dc:
        namespace, _, name = child.tag[1:].partition("}")
        if namespace != DC_NS or name not in DC_ELEMENTS:
            problems.add(where, f"{child.tag} is not an unqualified DC element")


def _check_similarity(element: ET.Element, problems: _Problems, where: str) -> None:
    if element.tag != f"{{{SIMILARITY_NS}}}similarity":
        problems.add(where, f"element is {element.tag}, expected similarity container")
        return
    subject = element.get("subject")
    if not subject:
        problems.add(where, "similarity container needs a subject attribute")
    computed = element.get("computedDate", "")
    if not _UTC_RE.match(computed):
        problems.add(where, f"computedDate {computed!r} is not a UTC datetime")
    previous = None
    for match in element:
        if match.tag != f"{{{SIMILARITY_NS}}}match":
            problems.add(where, f"unexpected child {match.tag}")
            continue
        identifier = match.get("identifier")
        if not identifier:
            problems.add(where, "match needs an identifier attribute")
        elif subject and identifier == subject:
            problems.add(where, "matches must not contain the subject itself")
        score = match.get("score", "")
        if not _SCORE_RE.match(score) or float(score) > 1.0:
            problems.add(where, f"score {score!r} is not a 4-decimal value in [0, 1]")
            continue
        if previous is not None and float(score) > previous:
            problems.add(where, "match scores must be non-increasing")
        previous = float(score)


def _check_identify(payload: ET.Element, problems: _Problems) -> None:
    names = [_local(child.tag) for child in payload]
    order = [name for name in names if name in _IDENTIFY_ORDER]
    ranking = {name: index for index, name in enumerate(_IDENTIFY_ORDER)}
    if order != sorted(order, key=ranking.__getitem__):
        problems.add("Identify", f"children out of schema order: {names}")
    for required in _IDENTIFY_ORDER[:7]:
        if required not in names:
            problems.add("Identify", f"missing {required}")
    for child in payload:
        name = _local(child.tag)
        text = (child.text or "").strip()
        if name == "protocolVersion" and text != "2.0":
            problems.add("Identify", f"protocolVersion must be 2.0, not {text!r}")
        if name == "earliestDatestamp" and not is_valid_datestamp(text):
            problems.add("Identify", f"bad earliestDatestamp {text!r}")
        if name == "deletedRecord" and text not in ("no", "transient", "persistent"):
            problems.add("Identify", f"bad deletedRecord {text!r}")
        if name == "granularity" and text not in ("YYYY-MM-DD", "YYYY-MM-DDThh:mm:ssZ"):
            problems.add("Identify", f"bad granularity {text!r}")


def _check_formats(payload: ET.Element, problems: _Problems) -> None:
    entries = list(payload)
    if not entries:
        problems.add("ListMetadataFormats", "needs at least one metadataFormat")
    for entry in entries:
        if entry.tag != _q("metadataFormat"):
            problems.add("ListMetadataFormats", f"unexpected child {entry.tag}")
            continue
        names = [_local(child.tag) for child in entry]
        if names != ["metadataPrefix", "schema", "metadataNamespace"]:
            problems.add("ListMetadataFormats", f"bad metadataFormat children {names}")


def _check_sets(payload: ET.Element, problems: _Problems) -> None:
    children = list(payload)
    if children and children[-1].tag == _q("resumptionToken"):
        _check_token(children[-1], problems, "ListSets")
        children = children[:-1]
    if not children:
        problems.add("ListSets", "empty set list must be a noSetHierarchy error instead")
    for entry in children:
        if entry.tag != _q("set"):
            problems.add("ListSets", f"unexpected child {entry.tag}")
            continue
        names = [_local(child.tag) for child in entry]
        if names[:2] != ["setSpec", "setName"]:
            problems.add("ListSets", f"set must start with setSpec, setName: {names}")

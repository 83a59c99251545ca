"""Domain objects: harvested records, similarity payloads, protocol errors.

All types but Header are frozen dataclasses validated on construction; a
Header only copies fields of a validated record. Sequence fields are
normalized to tuples so instances are safely shareable across threads.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, NamedTuple

from .exceptions import RecordValidationError

# Stable serialization prefixes, registered once for the whole process so a
# canonical XML block renders identically wherever it is produced.
NAMESPACE_PREFIXES = {
    "": "http://www.openarchives.org/OAI/2.0/",
    "oai_dc": "http://www.openarchives.org/OAI/2.0/oai_dc/",
    "dc": "http://purl.org/dc/elements/1.1/",
    "xsi": "http://www.w3.org/2001/XMLSchema-instance",
    "provenance": "http://www.openarchives.org/OAI/2.0/provenance",
    "sim": "urn:simharvest:similarity",
}
for _prefix, _uri in NAMESPACE_PREFIXES.items():
    ET.register_namespace(_prefix, _uri)

#: The fifteen unqualified Dublin Core element names.
DC_ELEMENTS = (
    "title",
    "creator",
    "subject",
    "description",
    "publisher",
    "contributor",
    "date",
    "type",
    "format",
    "identifier",
    "source",
    "language",
    "relation",
    "coverage",
    "rights",
)
_DC_SET = frozenset(DC_ELEMENTS)

#: Protocol error conditions a response may carry.
OAI_ERROR_CODES = frozenset(
    {
        "badArgument",
        "badResumptionToken",
        "badVerb",
        "cannotDisseminateFormat",
        "idDoesNotExist",
        "noRecordsMatch",
        "noMetadataFormats",
        "noSetHierarchy",
    }
)

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_DATETIME_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")

# Control characters are rewritten or rejected by XML parsers, so they can
# never survive the wire format; \t and \n are the only ones we allow in
# free-text values (\r is line-end normalized away by conformant parsers).
_BAD_TEXT = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]|\r")
_BAD_TOKEN = re.compile(r"[\x00-\x1f\x7f\s]")


def utc_now_string() -> str:
    """Current time as an OAI UTC datestamp (second granularity)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def is_valid_datestamp(value: str) -> bool:
    """True for YYYY-MM-DD or YYYY-MM-DDThh:mm:ssZ with real field values."""
    if not isinstance(value, str):
        return False
    if _DATE_RE.match(value):
        fmt = "%Y-%m-%d"
    elif _DATETIME_RE.match(value):
        fmt = "%Y-%m-%dT%H:%M:%SZ"
    else:
        return False
    try:
        datetime.strptime(value, fmt)
    except ValueError:
        return False
    return True


def _check_token(value: str, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise RecordValidationError(f"{what} must be a non-empty string")
    if _BAD_TOKEN.search(value):
        raise RecordValidationError(
            f"{what} {value!r} contains whitespace or control characters"
        )


def _check_text(value: str, what: str) -> None:
    if not isinstance(value, str):
        raise RecordValidationError(f"{what} must be a string")
    if _BAD_TEXT.search(value):
        raise RecordValidationError(f"{what} contains control characters")


def canonical_xml_block(block: str) -> str:
    """Canonical text form of an embedded XML block (an about container body).

    Parses the block, drops indentation whitespace (whitespace-only text of
    elements with children and whitespace-only tails), and re-serializes with
    the registered namespace prefixes, so the form is stable however the
    block has been pretty-printed or prefixed along the way.
    """
    try:
        element = ET.fromstring(block)
    except ET.ParseError as exc:
        raise RecordValidationError(
            f"about block is not well-formed XML: {exc}"
        ) from None
    for el in element.iter():
        if len(el) and el.text is not None and not el.text.strip():
            el.text = None
        if el.tail is not None and not el.tail.strip():
            el.tail = None
    return ET.tostring(element, encoding="unicode")


@dataclass(frozen=True)
class MetadataRecord:
    """One harvested item: header fields plus its Dublin Core content.

    dc_fields preserves document order as (element name, value) pairs and may
    repeat names. provenance holds the raw XML text of any <about> blocks that
    accompanied the record upstream. A deleted record carries no content.
    """

    identifier: str
    datestamp: str
    set_specs: tuple[str, ...] = ()
    dc_fields: tuple[tuple[str, str], ...] = ()
    provenance: tuple[str, ...] = ()
    deleted: bool = False

    def __post_init__(self):
        _check_token(self.identifier, "identifier")
        if not is_valid_datestamp(self.datestamp):
            raise RecordValidationError(
                f"datestamp {self.datestamp!r} is not YYYY-MM-DD or YYYY-MM-DDThh:mm:ssZ"
            )
        object.__setattr__(self, "set_specs", tuple(self.set_specs))
        object.__setattr__(
            self, "dc_fields", tuple((n, v) for n, v in self.dc_fields)
        )
        object.__setattr__(self, "provenance", tuple(self.provenance))
        for spec in self.set_specs:
            _check_token(spec, "setSpec")
        for name, value in self.dc_fields:
            if name not in _DC_SET:
                raise RecordValidationError(f"{name!r} is not a Dublin Core element")
            _check_text(value, f"dc:{name} value")
        canonical = []
        for block in self.provenance:
            if not isinstance(block, str) or not block.strip():
                raise RecordValidationError("provenance blocks must be non-empty XML text")
            canonical.append(canonical_xml_block(block))
        object.__setattr__(self, "provenance", tuple(canonical))
        if self.deleted and (self.dc_fields or self.provenance):
            raise RecordValidationError("deleted records carry no metadata or about parts")


class Header(NamedTuple):
    """A stored record's header: all that ListIdentifiers serves of it."""

    identifier: str
    datestamp: str
    set_specs: tuple[str, ...]
    deleted: bool


@dataclass(frozen=True)
class SimilarityMatch:
    """One ranked neighbor: its identifier and cosine score."""

    identifier: str
    score: float

    def __post_init__(self):
        _check_token(self.identifier, "identifier")
        score = float(self.score)
        if not (0.0 <= score <= 1.0):
            raise RecordValidationError(f"score {score!r} outside [0, 1]")
        object.__setattr__(self, "score", score)


@dataclass(frozen=True)
class SimilarityAbout:
    """The similarity payload attached to a record: its top-ranked neighbors."""

    subject_identifier: str
    computed_at: str
    matches: tuple[SimilarityMatch, ...] = ()

    def __post_init__(self):
        _check_token(self.subject_identifier, "subject identifier")
        if not is_valid_datestamp(self.computed_at):
            raise RecordValidationError(
                f"computed_at {self.computed_at!r} is not a UTC datestamp"
            )
        object.__setattr__(self, "matches", tuple(self.matches))
        previous = None
        for match in self.matches:
            if not isinstance(match, SimilarityMatch):
                raise RecordValidationError("matches must be SimilarityMatch instances")
            if match.identifier == self.subject_identifier:
                raise RecordValidationError("match list may not contain the subject itself")
            if previous is not None and match.score > previous:
                raise RecordValidationError("match scores must be non-increasing")
            previous = match.score


@dataclass(frozen=True)
class OaiError:
    """A protocol-level error condition reported inside a response body."""

    code: str
    message: str = ""

    def __post_init__(self):
        if self.code not in OAI_ERROR_CODES:
            raise RecordValidationError(f"unknown error code {self.code!r}")
        _check_text(self.message, "error message")


def dc_values(record: MetadataRecord, names: Iterable[str]) -> list[str]:
    """Values of the named DC elements in document order."""
    wanted = frozenset(names)
    return [value for name, value in record.dc_fields if name in wanted]


"""Aggregator data provider: serves the store back out over OAI-PMH.

A WSGI application handling GET and POST on any path, plus two auxiliary
routes: the similarity schema at a stable URL and a non-protocol
/similar?identifier=...&k=... endpoint answering with a bare similarity
container. GetRecord responses carry the subject's ranked matches in an
<about> container whenever fresh similarity results exist; list verbs
paginate with resumption tokens that pin the filter set and the corpus
epoch, so tokens from before a collection change are rejected.

Protocol error conditions are HTTP 200 with an <error> body, per protocol.
"""

from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from importlib import resources
from typing import Callable
from urllib.parse import parse_qs, quote, unquote, urlparse

from .exceptions import ConfigError, NotFoundError, SimHarvestError, StalenessError
from .oai_xml import (
    DEFAULT_SIMILARITY_SCHEMA_URL,
    OAI_DC_NS,
    VERB_ARGUMENTS,
    ResumptionToken,
    argument_problems,
    build_similarity_about,
    serialize_error,
    serialize_get_record,
    serialize_identify,
    serialize_list_identifiers,
    serialize_list_metadata_formats,
    serialize_list_records,
    serialize_list_sets,
    serialize_similarity,
)
from .pipeline import check_results_fresh, iter_similarity_lines, load_top_matches
from .records import OaiError
from .store import RecordStore

XML_CONTENT_TYPE = "text/xml; charset=utf-8"
DC_SCHEMA_URL = "http://www.openarchives.org/OAI/2.0/oai_dc.xsd"


@dataclass(frozen=True)
class ProviderConfig:
    repository_name: str = "simharvest aggregator"
    base_url: str = "http://localhost:8080/oai"
    admin_email: str = "admin@localhost"
    k: int = 10
    page_size: int = 50
    schema_url: str = DEFAULT_SIMILARITY_SCHEMA_URL

    def __post_init__(self):
        if self.k < 0 or self.page_size < 1:
            raise ConfigError("k must be >= 0 and page_size >= 1")


def similarity_schema_text() -> str:
    """The packaged similarity XSD, exactly as shipped."""
    return (
        resources.files("simharvest")
        .joinpath("schemas/similarity.xsd")
        .read_text(encoding="utf-8")
    )


class OaiProvider:
    """WSGI callable serving one record store."""

    def __init__(self, store: RecordStore, config: ProviderConfig | None = None):
        self.store = store
        self.config = config or ProviderConfig()
        self._schema_path = urlparse(self.config.schema_url).path or "/similarity.xsd"

    # -- WSGI plumbing -----------------------------------------------------

    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        if method not in ("GET", "POST"):
            start_response(
                "405 Method Not Allowed",
                [("Content-Type", "text/plain; charset=utf-8"), ("Allow", "GET, POST")],
            )
            return [b"use GET or POST\n"]
        params = self._parameters(environ, method)
        if path == self._schema_path:
            body = similarity_schema_text().encode("utf-8")
            start_response("200 OK", [("Content-Type", XML_CONTENT_TYPE)])
            return [body]
        if path == "/similar":
            status, content_type, body = self.similar_endpoint(params)
            start_response(status, [("Content-Type", content_type)])
            return [body]
        body = self.handle_request(params)
        start_response("200 OK", [("Content-Type", XML_CONTENT_TYPE)])
        return [body]

    @staticmethod
    def _parameters(environ, method: str) -> dict[str, list[str]]:
        if method == "POST":
            try:
                length = int(environ.get("CONTENT_LENGTH") or 0)
            except ValueError:
                length = 0
            raw = environ["wsgi.input"].read(length).decode("utf-8", "replace")
            return parse_qs(raw, keep_blank_values=True)
        return parse_qs(environ.get("QUERY_STRING", ""), keep_blank_values=True)

    # -- protocol endpoint ---------------------------------------------------

    def handle_request(self, params: dict[str, list[str]]) -> bytes:
        """Answer one protocol request; always an HTTP-200 XML body."""
        flat: dict[str, str] = {}
        errors: list[OaiError] = []
        for name, values in params.items():
            if len(values) > 1:
                errors.append(OaiError("badArgument", f"argument {name} repeated"))
            flat[name] = values[0]
        verb = flat.get("verb")
        if verb not in VERB_ARGUMENTS:
            return self._error_response(
                flat, [OaiError("badVerb", f"unknown or missing verb {verb!r}")]
            )
        arguments = {name: value for name, value in flat.items() if name != "verb"}
        errors += [
            OaiError("badArgument", problem)
            for problem in argument_problems(verb, arguments)
        ]
        if errors:
            return self._error_response(flat, errors)
        prefix = flat.get("metadataPrefix")
        if prefix is not None and prefix != "oai_dc":
            return self._error_response(
                flat,
                [
                    OaiError(
                        "cannotDisseminateFormat",
                        f"only oai_dc is supported, not {prefix!r}",
                    )
                ],
            )
        handler = getattr(self, f"_verb_{_snake(verb)}")
        try:
            return handler(flat)
        except NotFoundError as error:
            return self._error_response(flat, [OaiError("idDoesNotExist", str(error))])

    def _error_response(self, flat: dict, errors: list[OaiError]) -> bytes:
        return serialize_error(
            errors, base_url=self.config.base_url, request_args=flat
        )

    # -- verbs ------------------------------------------------------------

    def _verb_identify(self, flat: dict) -> bytes:
        info = {
            "repositoryName": self.config.repository_name,
            "baseURL": self.config.base_url,
            "protocolVersion": "2.0",
            "adminEmail": self.config.admin_email,
            "earliestDatestamp": self.store.earliest_datestamp() or "1970-01-01",
            "deletedRecord": "transient",
            "granularity": "YYYY-MM-DDThh:mm:ssZ",
        }
        return serialize_identify(
            info, base_url=self.config.base_url, request_args=flat
        )

    def _verb_list_metadata_formats(self, flat: dict) -> bytes:
        identifier = flat.get("identifier")
        if identifier is not None and not self.store.has_record(identifier):
            raise NotFoundError(f"unknown identifier {identifier!r}")
        formats = [
            {
                "metadataPrefix": "oai_dc",
                "schema": DC_SCHEMA_URL,
                "metadataNamespace": OAI_DC_NS,
            }
        ]
        return serialize_list_metadata_formats(
            formats, base_url=self.config.base_url, request_args=flat
        )

    def _verb_list_sets(self, flat: dict) -> bytes:
        specs = self.store.set_specs()
        if not specs:
            return self._error_response(
                flat, [OaiError("noSetHierarchy", "this repository defines no sets")]
            )
        sets = [{"setSpec": spec, "setName": spec} for spec in specs]
        return serialize_list_sets(
            sets, base_url=self.config.base_url, request_args=flat
        )

    def _verb_get_record(self, flat: dict) -> bytes:
        record = self.store.get_record(flat["identifier"])
        about = None
        if not record.deleted:
            try:
                meta = check_results_fresh(self.store)
                matches = load_top_matches(self.store, record.identifier, self.config.k)
                about = build_similarity_about(
                    record.identifier,
                    matches,
                    self.config.k,
                    computed_at=meta.get("computed_at"),
                )
            except (StalenessError, NotFoundError):
                about = None  # no fresh results: the record stands alone
        return serialize_get_record(
            record,
            about,
            base_url=self.config.base_url,
            request_args=flat,
            schema_url=self.config.schema_url,
        )

    def _verb_list_records(self, flat: dict) -> bytes:
        return self._list_response(flat, serialize_list_records)

    def _verb_list_identifiers(self, flat: dict) -> bytes:
        return self._list_response(flat, serialize_list_identifiers)

    def _list_response(self, flat: dict, serialize: Callable) -> bytes:
        token_text = flat.get("resumptionToken")
        if token_text is not None:
            try:
                offset, filters = self._decode_token(token_text)
            except SimHarvestError as error:
                return self._error_response(
                    flat, [OaiError("badResumptionToken", str(error))]
                )
        else:
            offset = 0
            filters = (flat.get("from"), flat.get("until"), flat.get("set"))
        identifiers = self.store.list_identifiers(*filters)
        if not identifiers:
            return self._error_response(
                flat, [OaiError("noRecordsMatch", "no records satisfy the filters")]
            )
        if token_text is not None and offset >= len(identifiers):
            return self._error_response(
                flat,
                [OaiError("badResumptionToken", "token cursor is out of range")],
            )
        page = identifiers[offset : offset + self.config.page_size]
        records = [self.store.get_record(identifier) for identifier in page]
        next_offset = offset + len(page)
        more = next_offset < len(identifiers)
        token = None
        # OAI-PMH 2.0 section 3.5: the last page of a multi-page list carries
        # an empty token
        if more or offset > 0:
            token = ResumptionToken(
                text=self._encode_token(next_offset, filters) if more else "",
                complete_list_size=len(identifiers),
                cursor=offset,
            )
        return serialize(
            records,
            base_url=self.config.base_url,
            request_args=flat,
            token=token,
        )

    # -- resumption tokens ----------------------------------------------------

    @staticmethod
    def _filter_hash(filters: tuple) -> str:
        text = "\x1f".join("" if part is None else part for part in filters)
        return hashlib.sha1(text.encode("utf-8")).hexdigest()[:8]

    def _encode_token(self, offset: int, filters: tuple) -> str:
        parts = [
            str(self.store.epoch()),
            self._filter_hash(filters),
            str(offset),
            quote(filters[0] or "", safe=""),
            quote(filters[1] or "", safe=""),
            quote(filters[2] or "", safe=""),
        ]
        return "!".join(parts)

    def _decode_token(self, text: str) -> tuple[int, tuple]:
        parts = text.split("!")
        if len(parts) != 6 or not parts[2].isdigit():
            raise SimHarvestError("malformed resumption token")
        epoch, digest, offset = parts[0], parts[1], int(parts[2])
        filters = tuple(unquote(part) or None for part in parts[3:6])
        if epoch != str(self.store.epoch()):
            raise SimHarvestError(
                "the collection changed since this token was issued"
            )
        if digest != self._filter_hash(filters):
            raise SimHarvestError("token filters were tampered with")
        return offset, filters

    # -- auxiliary endpoints -----------------------------------------------------

    def similar_endpoint(
        self, params: dict[str, list[str]]
    ) -> tuple[str, str, bytes]:
        """Non-protocol ranked-match lookup: (status line, content type, body)."""
        identifiers = params.get("identifier", [])
        if len(identifiers) != 1 or not identifiers[0]:
            return _plain("400 Bad Request", "pass exactly one identifier")
        k = self.config.k
        if "k" in params:
            try:
                k = int(params["k"][0])
            except ValueError:
                k = -1
            if k < 0:
                return _plain("400 Bad Request", "k must be a non-negative integer")
        identifier = identifiers[0]
        if not self.store.has_record(identifier):
            return _plain("404 Not Found", f"unknown identifier {identifier}")
        try:
            meta = check_results_fresh(self.store)
            matches = load_top_matches(self.store, identifier, k)
        except StalenessError as error:
            return _plain("409 Conflict", f"{error}")
        except NotFoundError as error:
            return _plain("404 Not Found", str(error))
        about = build_similarity_about(
            identifier, matches, k, computed_at=meta.get("computed_at")
        )
        body = serialize_similarity(about, self.config.schema_url)
        return "200 OK", XML_CONTENT_TYPE, body


def _plain(status: str, message: str) -> tuple[str, str, bytes]:
    return status, "text/plain; charset=utf-8", (message + "\n").encode("utf-8")


def _snake(verb: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", verb).lower()


# -- duplicate reporting ----------------------------------------------------------


@dataclass(frozen=True)
class DuplicatePair:
    id_a: str
    id_b: str
    score: float
    provenance_linked: bool


def duplicate_report(store: RecordStore, threshold: float) -> list[DuplicatePair]:
    """All stored pairs scoring at or above the threshold, best first.

    Each pair is flagged provenance-linked when one record's provenance names
    the other's identifier, or both share an origin baseURL. Raises
    StalenessError when there are no fresh results.
    """
    if not (0.0 <= threshold <= 1.01):
        raise SimHarvestError("threshold must lie in [0, 1] (1.01 to mean 'none')")
    rows = [
        (id_a, id_b, score)
        for id_a, id_b, score in iter_similarity_lines(store)
        if score >= threshold
    ]
    rows.sort(key=lambda row: (-row[2], row[0], row[1]))
    origins: dict[str, tuple[set[str], set[str]]] = {}

    def origin_info(identifier: str) -> tuple[set[str], set[str]]:
        if identifier not in origins:
            record = store.get_record(identifier)
            named_ids: set[str] = set()
            base_urls: set[str] = set()
            for block in record.provenance:
                try:
                    element = ET.fromstring(block)
                except ET.ParseError:
                    continue
                for node in element.iter():
                    name = node.tag.rsplit("}", 1)[-1]
                    text = (node.text or "").strip()
                    if not text:
                        continue
                    if name == "identifier":
                        named_ids.add(text)
                    elif name == "baseURL":
                        base_urls.add(text)
            origins[identifier] = (named_ids, base_urls)
        return origins[identifier]

    report = []
    for id_a, id_b, score in rows:
        ids_a, urls_a = origin_info(id_a)
        ids_b, urls_b = origin_info(id_b)
        linked = id_b in ids_a or id_a in ids_b or bool(urls_a & urls_b)
        report.append(DuplicatePair(id_a, id_b, score, linked))
    return report

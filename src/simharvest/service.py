"""Aggregator data provider: serves the store back out over OAI-PMH.

A WSGI application handling GET and POST on any path, plus two auxiliary
routes: the similarity schema at a stable URL and a non-protocol
/similar?identifier=...&k=... endpoint answering with a bare similarity
container. GetRecord responses carry the subject's ranked matches in an
<about> container whenever fresh similarity results exist. GetRecord,
/similar and the list verbs answer from the store's header catalog at the
current epoch, and GetRecord and ListRecords splice the bytes it read; list
verbs
paginate with resumption tokens that pin the filter set and the corpus
epoch, so tokens from before a collection change are rejected.

Protocol error conditions are HTTP 200 with an <error> body, per protocol.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from importlib import resources
from urllib.parse import parse_qs, quote, unquote, urlparse

from .exceptions import ConfigError, NotFoundError, StalenessError
from .oai_xml import (
    DEFAULT_SIMILARITY_SCHEMA_URL,
    METADATA_PREFIX,
    ResumptionToken,
    argument_problems,
    build_similarity_about,
    parse_record_fragment,
    serialize_error,
    serialize_get_record,
    serialize_identify,
    serialize_list_identifiers,
    serialize_list_metadata_formats,
    serialize_list_records,
    serialize_list_sets,
    serialize_similarity,
    splice_get_record,
    splice_list_records,
)
from .pipeline import (
    check_results_fresh,
    check_results_unchanged,
    iter_similarity_lines,
    load_top_matches,
)
from .records import Header, OaiError, SimilarityAbout
from .store import RecordStore

XML_CONTENT_TYPE = "text/xml; charset=utf-8"
_NO_SETS = ("noSetHierarchy", "this repository defines no sets")


class _Refusal(Exception):
    """A protocol error condition a verb handler answers with (OAI-PMH 2.0
    section 3.6); its args are the error code and message."""


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
                # a negative length would read until the client closes
                length = max(int(environ.get("CONTENT_LENGTH") or 0), 0)
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
                # OAI-PMH 2.0 section 3.6: a repeated verb is a badVerb
                code = "badVerb" if name == "verb" else "badArgument"
                errors.append(OaiError(code, f"argument {name} repeated"))
            flat[name] = values[0]
        verb = flat.get("verb")
        handler = self._VERB_HANDLERS.get(verb)
        if handler is None:
            errors = [OaiError("badVerb", f"unknown or missing verb {verb!r}")]
        else:
            arguments = {name: value for name, value in flat.items() if name != "verb"}
            errors += [
                OaiError("badArgument", problem)
                for problem in argument_problems(verb, arguments)
            ]
        prefix = flat.get("metadataPrefix")
        if not errors and prefix is not None and prefix != METADATA_PREFIX:
            problem = f"only {METADATA_PREFIX} is supported, not {prefix!r}"
            errors = [OaiError("cannotDisseminateFormat", problem)]
        if not errors:
            try:
                return handler(self, flat)
            except _Refusal as refusal:
                errors = [OaiError(*refusal.args)]
            except NotFoundError as error:
                errors = [OaiError("idDoesNotExist", str(error))]
        return serialize_error(errors, base_url=self.config.base_url, request_args=flat)

    # -- verbs ------------------------------------------------------------

    def _verb_identify(self, flat: dict) -> bytes:
        return serialize_identify(
            self.config.repository_name,
            self.config.admin_email,
            self.store.earliest_datestamp() or "1970-01-01T00:00:00Z",
            base_url=self.config.base_url,
            request_args=flat,
        )

    def _verb_list_metadata_formats(self, flat: dict) -> bytes:
        identifier = flat.get("identifier")
        if identifier is not None and not self.store.has_record(identifier):
            raise NotFoundError(f"unknown identifier {identifier!r}")
        return serialize_list_metadata_formats(
            base_url=self.config.base_url, request_args=flat
        )

    def _verb_list_sets(self, flat: dict) -> bytes:
        if "resumptionToken" in flat:
            # the set list always fits one page, so no token was ever issued
            raise _Refusal("badResumptionToken", "ListSets issues no resumption tokens")
        specs = self.store.set_specs()
        if not specs:
            raise _Refusal(*_NO_SETS)
        return serialize_list_sets(
            specs, base_url=self.config.base_url, request_args=flat
        )

    def _verb_get_record(self, flat: dict) -> bytes:
        # the bytes the catalog read and judged, as a ListRecords page at
        # this epoch serves them, spliced in unless they must be parsed
        identifier = flat["identifier"]
        memo = self.store.catalog().files.get(identifier)
        if memo is None:
            raise NotFoundError(f"no record stored for {identifier!r}")
        about = None
        if not memo.header.deleted:
            try:
                about = self._similarity(identifier, self.config.k)
            except (StalenessError, NotFoundError):
                pass  # no fresh results: the record stands alone
        arguments = dict(
            base_url=self.config.base_url,
            request_args=flat,
            schema_url=self.config.schema_url,
        )
        body = splice_get_record(memo.data, memo.layout, about, **arguments)
        if body is None:
            record = parse_record_fragment(memo.data)
            body = serialize_get_record(record, about, **arguments)
        return body

    def _list_response(self, flat: dict) -> bytes:
        """One page of ListRecords or ListIdentifiers, as flat["verb"] asks."""
        # one catalog snapshot answers the request: the page, completeListSize
        # and the epoch the token is checked against and pinned to
        catalog = self.store.catalog()
        token_text = flat.get("resumptionToken")
        if token_text is not None:
            offset, filters = self._decode_token(
                token_text, flat["verb"], catalog.epoch
            )
        else:
            offset = 0
            filters = (flat.get("from"), flat.get("until"), flat.get("set"))
        if filters[2] is not None and not catalog.set_specs:
            raise _Refusal(*_NO_SETS)
        headers = catalog.select(*filters)
        if not headers:
            raise _Refusal("noRecordsMatch", "no records satisfy the filters")
        if token_text is not None and offset >= len(headers):
            raise _Refusal("badResumptionToken", "token cursor is out of range")
        page = headers[offset : offset + self.config.page_size]
        next_offset = offset + len(page)
        more = next_offset < len(headers)
        token = None
        # OAI-PMH 2.0 section 3.5: the last page of a multi-page list carries
        # an empty token
        if more or offset > 0:
            token = ResumptionToken(
                text=(
                    self._encode_token(next_offset, filters, catalog.epoch)
                    if more
                    else ""
                ),
                complete_list_size=len(headers),
                cursor=offset,
            )
        serialize = serialize_list_identifiers
        if flat["verb"] == "ListRecords":
            # the bytes the catalog read and judged, spliced in unless one
            # must be parsed (see splice_list_records)
            memos = [catalog.files[header.identifier] for header in page]
            body = splice_list_records(
                [(memo.data, memo.layout) for memo in memos],
                base_url=self.config.base_url,
                request_args=flat,
                token=token,
            )
            if body is not None:
                return body
            page = [parse_record_fragment(memo.data) for memo in memos]
            serialize = serialize_list_records
        return serialize(
            page,
            base_url=self.config.base_url,
            request_args=flat,
            token=token,
        )

    _VERB_HANDLERS = {
        "Identify": _verb_identify,
        "ListMetadataFormats": _verb_list_metadata_formats,
        "ListSets": _verb_list_sets,
        "GetRecord": _verb_get_record,
        "ListRecords": _list_response,
        "ListIdentifiers": _list_response,
    }

    # -- resumption tokens ----------------------------------------------------

    @staticmethod
    def _filter_hash(filters: tuple) -> str:
        text = "\x1f".join("" if part is None else part for part in filters)
        return hashlib.sha1(text.encode("utf-8")).hexdigest()[:8]

    def _encode_token(self, offset: int, filters: tuple, epoch: int) -> str:
        parts = [
            str(epoch),
            self._filter_hash(filters),
            str(offset),
            quote(filters[0] or "", safe=""),
            quote(filters[1] or "", safe=""),
            quote(filters[2] or "", safe=""),
        ]
        return "!".join(parts)

    def _decode_token(self, text: str, verb: str, epoch: int) -> tuple[int, tuple]:
        """(offset, filters) a token pins; any other token is refused with
        badResumptionToken."""
        parts = text.split("!")
        if len(parts) != 6 or not _is_decimal(parts[2]):
            raise _Refusal("badResumptionToken", "malformed resumption token")
        filters = tuple(unquote(part) or None for part in parts[3:6])
        # the digest is unkeyed, so a client can forge one: the pinned filters
        # pass the same rule as a fresh request's
        arguments = {"metadataPrefix": METADATA_PREFIX}
        for name, value in zip(("from", "until", "set"), filters):
            if value is not None:
                arguments[name] = value
        problems = argument_problems(verb, arguments)
        if parts[0] != str(epoch):
            problem = "the collection changed since this token was issued"
        elif parts[1] != self._filter_hash(filters):
            problem = "token filters were tampered with"
        elif problems:
            problem = f"token filters are illegal: {problems[0]}"
        else:
            return int(parts[2]), filters
        raise _Refusal("badResumptionToken", problem)

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
            if not _is_decimal(params["k"][0]):
                return _plain("400 Bad Request", "k must be a non-negative integer")
            k = int(params["k"][0])
        identifier = identifiers[0]
        memo = self.store.catalog().files.get(identifier)
        if memo is None:
            return _plain("404 Not Found", f"unknown identifier {identifier}")
        if memo.header.deleted:
            # GetRecord serves a deleted record's header alone, with no matches
            return _plain("404 Not Found", f"record {identifier} is deleted")
        try:
            about = self._similarity(identifier, k)
        except StalenessError as error:
            return _plain("409 Conflict", f"{error}")
        except NotFoundError as error:
            return _plain("404 Not Found", str(error))
        body = serialize_similarity(about, self.config.schema_url)
        return "200 OK", XML_CONTENT_TYPE, body

    def _similarity(self, identifier: str, k: int) -> SimilarityAbout:
        """The subject's top-k container for GetRecord and /similar; raises
        StalenessError or NotFoundError when there are no fresh results."""
        meta = check_results_fresh(self.store)
        matches = load_top_matches(self.store, identifier, k)
        check_results_unchanged(self.store, meta)
        return build_similarity_about(identifier, matches, meta["computed_at"])


def _is_decimal(text: str) -> bool:
    """Whether text is ASCII digits only: int() alone also takes '+3', ' 3',
    '3_0' and non-ASCII digits such as '٥', and isdigit() alone admits '²'."""
    return text.isascii() and text.isdigit()


def _plain(status: str, message: str) -> tuple[str, str, bytes]:
    return status, "text/plain; charset=utf-8", (message + "\n").encode("utf-8")


# -- duplicate reporting ----------------------------------------------------------


@dataclass(frozen=True)
class DuplicatePair:
    id_a: str
    id_b: str
    score: float
    provenance_linked: bool


def _top_file_rows(
    store: RecordStore, threshold: float
) -> list[tuple[str, str, float]] | None:
    """The (id_a, id_b, score) pairs of the pair file scoring at or above the
    threshold, read from the top files alone; None when they might miss one.

    Rendering is monotone, so a record's top file holds every pair of it
    rendering at or above the threshold whenever its k-th score renders
    below it; a k-th score equal to the threshold may have lost a tie.
    """
    k = int(check_results_fresh(store)["k"])
    if k == 0:
        return None
    identifiers = store.list_identifiers()
    rows = set()
    for identifier in identifiers:
        try:
            matches = load_top_matches(store, identifier)
        except NotFoundError:
            return None
        # a shorter file must hold every other record
        if len(matches) != min(k, len(identifiers) - 1) or (
            len(matches) == k and matches[-1].score >= threshold
        ):
            return None
        for match in matches:
            if match.score < threshold:
                break  # ranked best first
            other = match.identifier
            pair = (identifier, other) if identifier < other else (other, identifier)
            rows.add((*pair, match.score))
    return list(rows)


def duplicate_report(store: RecordStore, threshold: float) -> list[DuplicatePair]:
    """All stored pairs scoring at or above the threshold, best first.

    The pairs come from the per-record top files when those provably hold
    every one (see _top_file_rows), and from similarities.txt otherwise; the
    report is the same either way. Each pair is flagged provenance-linked
    when one record's provenance names the other's identifier, or both share
    an origin baseURL. Raises ConfigError for a threshold outside [0, 1.01]
    and StalenessError when there are no fresh results.
    """
    if not (0.0 <= threshold <= 1.01):
        raise ConfigError(
            f"threshold must lie in [0, 1] (1.01 to mean 'none'), got {threshold:g}"
        )
    rows = _top_file_rows(store, threshold)
    if rows is None:
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

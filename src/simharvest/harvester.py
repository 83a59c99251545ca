"""Incremental OAI-PMH harvesting client.

Walks a repository's ListRecords flow, following resumption tokens until the
list is exhausted. Politeness and resilience: at most five attempts per page
with exponential backoff capped at 60 seconds, honoring Retry-After on 503,
and a descriptive User-Agent. Each harvested identifier is handed to the
sink exactly once per run; upstream repeats are reported, not re-emitted.
"""

from __future__ import annotations

import logging
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from typing import Callable

from .exceptions import (
    HarvestError,
    RequestArgumentError,
    RestartRequiredError,
    ResumableHarvestError,
    TokenLoopError,
)
from .oai_xml import METADATA_PREFIX, argument_problems, parse_response
from .records import MetadataRecord

log = logging.getLogger(__name__)

USER_AGENT = "simharvest/0.1 (OAI-PMH aggregator)"
MAX_ATTEMPTS = 5
BACKOFF_CAP = 60.0
_TOKEN_REPEAT_LIMIT = 3


def build_request_url(base_url: str, verb: str, arguments: dict | None = None) -> str:
    """Compose a legal protocol request URL.

    The verb comes first, then the arguments in the order given. A
    resumption token is exclusive: when present it must be the only argument
    besides the verb. ':' and '/' stay raw (legal in query values);
    everything unsafe is percent-encoded.
    """
    arguments = arguments or {}
    problems = argument_problems(verb, arguments)
    if problems:
        raise RequestArgumentError(problems[0])
    query = urllib.parse.urlencode(
        [("verb", verb), *arguments.items()],
        quote_via=urllib.parse.quote,
        safe=":/",
    )
    separator = "&" if "?" in base_url else "?"
    return f"{base_url}{separator}{query}"


@dataclass
class HarvestSession:
    """State of one harvest run against one repository."""

    base_url: str
    from_: str | None = None
    until: str | None = None
    set_spec: str | None = None
    cursor: str | None = None  # resumption token to continue from

    def __post_init__(self):
        if not self.base_url:
            raise RequestArgumentError("base_url must be non-empty")
        problems = argument_problems("ListRecords", self.first_page_arguments())
        if problems:
            raise RequestArgumentError(problems[0])
        # one granularity for both bounds, so they compare as strings
        if self.from_ and self.until and self.from_ > self.until:
            raise RequestArgumentError("from datestamp is after until")

    def first_page_arguments(self) -> dict:
        optional = {"from": self.from_, "until": self.until, "set": self.set_spec}
        return {"metadataPrefix": METADATA_PREFIX} | {
            name: value for name, value in optional.items() if value is not None
        }


@dataclass
class HarvestReport:
    records_received: int = 0
    pages_fetched: int = 0
    retries: int = 0
    duplicate_identifiers: list[str] = field(default_factory=list)


def default_fetch(url: str, headers: dict) -> tuple[int, dict, bytes]:
    """HTTP GET returning (status, headers, body); 4xx/5xx are returned, not
    raised; transport failures raise URLError."""
    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        body = error.read() if error.fp else b""
        return error.code, dict(error.headers or {}), body


def _retry_delay(headers: dict, fallback: float) -> float:
    value = None
    for name, header_value in headers.items():
        if name.lower() == "retry-after":
            value = header_value
            break
    if value is None:
        return fallback
    try:
        return max(0.0, float(value))
    except ValueError:
        return fallback  # HTTP-date form; the backoff schedule still applies


def harvest(
    session: HarvestSession,
    sink: Callable[[MetadataRecord], None],
    *,
    fetch: Callable[[str, dict], tuple[int, dict, bytes]] | None = None,
    sleep: Callable[[float], None] = time.sleep,
    user_agent: str = USER_AGENT,
    from_email: str | None = None,
) -> HarvestReport:
    """Run one ListRecords harvest, feeding each new record to the sink.

    Raises ResumableHarvestError (with the last good cursor) when a page
    cannot be fetched, RestartRequiredError when the repository rejects our
    resumption token, and TokenLoopError when it stops making progress.
    """
    if fetch is None:
        fetch = default_fetch
    headers = {"User-Agent": user_agent, "Accept": "text/xml, application/xml"}
    if from_email:
        headers["From"] = from_email
    report = HarvestReport()
    seen: set[str] = set()
    token_text = session.cursor
    repeats = 0
    while True:
        if token_text is not None:
            arguments = {"resumptionToken": token_text}
        else:
            arguments = session.first_page_arguments()
        url = build_request_url(session.base_url, "ListRecords", arguments)
        body = _fetch_page(fetch, url, headers, sleep, report, session.cursor)
        parsed = parse_response(body, "ListRecords")
        if parsed.errors:
            codes = {error.code for error in parsed.errors}
            if "noRecordsMatch" in codes and token_text is None:
                log.info("harvest of %s matched no records", session.base_url)
                return report
            if "badResumptionToken" in codes:
                raise RestartRequiredError(
                    f"{session.base_url} rejected resumption token {token_text!r}; "
                    "the harvest must restart from scratch"
                )
            raise HarvestError(
                f"{session.base_url} answered with {', '.join(sorted(codes))}"
            )
        report.pages_fetched += 1
        for record in parsed.records:
            if record.identifier in seen:
                report.duplicate_identifiers.append(record.identifier)
                continue
            seen.add(record.identifier)
            sink(record)
            report.records_received += 1
        if parsed.token is None or not parsed.token.text:
            return report
        if parsed.token.text == token_text:
            repeats += 1
            if repeats >= _TOKEN_REPEAT_LIMIT:
                raise TokenLoopError(
                    f"{session.base_url} returned the same resumption token "
                    f"{token_text!r} {repeats + 1} times; aborting"
                )
        else:
            repeats = 0
        token_text = parsed.token.text
        session.cursor = token_text


def _fetch_page(fetch, url, headers, sleep, report, cursor) -> bytes:
    delay = 1.0
    failure = "unreachable"
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            status, response_headers, body = fetch(url, headers)
        except Exception as error:  # transport-level failure
            failure = f"transport error: {error}"
            wait = delay
        else:
            if status == 200:
                return body
            failure = f"HTTP {status}"
            if status == 503:
                wait = _retry_delay(response_headers, delay)
            elif status >= 500:
                wait = delay
            else:
                raise HarvestError(f"{url} answered HTTP {status}")
        if attempt == MAX_ATTEMPTS:
            break
        report.retries += 1
        log.warning("retrying %s after %s (attempt %d)", url, failure, attempt)
        sleep(min(wait, BACKOFF_CAP))
        delay = min(delay * 2.0, BACKOFF_CAP)
    raise ResumableHarvestError(
        f"giving up on {url} after {MAX_ATTEMPTS} attempts ({failure}); "
        f"resume with the recorded cursor",
        cursor=cursor,
    )

"""In-process OAI-PMH upstream used to exercise the harvester over real HTTP."""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable
from urllib.parse import parse_qs
from wsgiref.simple_server import WSGIServer, make_server
from socketserver import ThreadingMixIn

from simharvest.oai_xml import (
    ResumptionToken,
    serialize_error,
    serialize_identify,
    serialize_list_records,
)
from simharvest.records import OaiError


class _QuietServer(ThreadingMixIn, WSGIServer):
    daemon_threads = True

    def handle_error(self, request, client_address):  # pragma: no cover
        pass


class MockUpstream:
    """Pages ListRecords responses and can inject 503s or duplicate pages."""

    def __init__(self, records, page_size=50, base_url="http://upstream.example/oai"):
        self.records = list(records)
        self.page_size = page_size
        self.base_url = base_url
        self.requests: list[str] = []
        self.fail_first: dict[int, int] = {}
        self.retry_after = "1"
        self.repeat_token_page: int | None = None
        # edits each ListRecords page body, to stand in for a faulty upstream
        self.rewrite_page: Callable[[bytes], bytes] | None = None
        self._failed: dict[int, int] = {}

    def page_count(self) -> int:
        size = self.page_size
        return max(1, (len(self.records) + size - 1) // size)

    def _body(self, page: int, request_args: dict[str, str]) -> bytes:
        start = page * self.page_size
        chunk = self.records[start : start + self.page_size]
        if not chunk:
            return serialize_error(
                [OaiError("badResumptionToken", "page out of range")],
                base_url=self.base_url,
                request_args={"verb": "ListRecords", **request_args},
            )
        token = None
        next_page = page if page == self.repeat_token_page else page + 1
        if start + self.page_size < len(self.records):
            token = ResumptionToken(
                text=f"page:{next_page}",
                complete_list_size=len(self.records),
                cursor=start,
            )
        return serialize_list_records(
            chunk,
            base_url=self.base_url,
            request_args=request_args,
            token=token,
        )

    def wsgi(self, environ, start_response):
        query = parse_qs(environ.get("QUERY_STRING", ""))
        args = {key: values[0] for key, values in query.items()}
        self.requests.append(environ.get("QUERY_STRING", ""))
        verb = args.pop("verb", "")
        page = 0
        if "resumptionToken" in args:
            page = int(args["resumptionToken"].split(":", 1)[1])
        remaining = self.fail_first.get(page, 0) - self._failed.get(page, 0)
        if remaining > 0:
            self._failed[page] = self._failed.get(page, 0) + 1
            start_response(
                "503 Service Unavailable",
                [("Content-Type", "text/plain"), ("Retry-After", self.retry_after)],
            )
            return [b"busy, retry later"]
        if verb == "Identify":
            body = serialize_identify(
                "mock upstream",
                "admin@upstream.example",
                "2000-01-01T00:00:00Z",
                base_url=self.base_url,
                request_args={},
            )
        elif verb == "ListRecords":
            body = self._body(page, {"verb": verb, **args})
            if self.rewrite_page is not None:
                body = self.rewrite_page(body)
        else:
            body = serialize_error(
                [OaiError("badVerb", f"unsupported verb {verb!r}")],
                base_url=self.base_url,
                request_args={},
            )
        start_response("200 OK", [("Content-Type", "text/xml; charset=utf-8")])
        return [body]


@contextmanager
def http_server(app):
    """Serve a WSGI app on an ephemeral localhost port for the test body."""
    server = make_server("127.0.0.1", 0, app, server_class=_QuietServer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()

"""A quiet static OAI-PMH upstream serving pages rendered by ``corpus.py``.

    python3 bench/upstream.py PAGES-DIR

PAGES-DIR holds one directory per upstream version (``v0``, ``v1``, ...),
each with ``page-N.xml`` files. Version ``vU`` answers at ``/vU/oai``: the
first ListRecords request gets page 0 and resumption token ``pN`` gets page
N. All pages are read into memory at start; nothing is logged. The chosen
port is printed as one JSON line; the process runs until it is terminated.
"""

from __future__ import annotations

import json
import os
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlsplit


def load_pages(directory: str) -> dict[tuple[str, int], bytes]:
    pages = {}
    for version in os.listdir(directory):
        for name in os.listdir(os.path.join(directory, version)):
            number = int(name[len("page-") : -len(".xml")])
            with open(os.path.join(directory, version, name), "rb") as handle:
                pages[(version, number)] = handle.read()
    return pages


class _Handler(BaseHTTPRequestHandler):
    pages: dict[tuple[str, int], bytes] = {}
    # headers and body go out as separate writes; without this the body
    # waits on the client's delayed ACK, adding tens of ms to every page
    disable_nagle_algorithm = True

    def do_GET(self):
        url = urlsplit(self.path)
        version = url.path.strip("/").split("/")[0]
        query = {key: values[0] for key, values in parse_qs(url.query).items()}
        token = query.get("resumptionToken")
        body = None
        if query.get("verb") == "ListRecords":
            if token is None and query.get("metadataPrefix") == "oai_dc":
                body = self.pages.get((version, 0))
            elif token is not None and token[1:].isdigit():
                body = self.pages.get((version, int(token[1:])))
        if body is None:
            self.send_response(400)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/xml; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


def main(argv: list[str]) -> int:
    _Handler.pages = load_pages(argv[0])
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    print(json.dumps({"port": server.server_port}), flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

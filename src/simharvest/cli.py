"""Command-line interface.

Subcommands: harvest, index, compute, top, serve, estimate, dup-report.
Exit codes: 0 success, 1 usage or configuration error (among them a --store
that holds no store: only harvest creates one), 2 runtime error (network,
protocol, operating system), 3 stale or missing similarity results (the fix
is always: run compute).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import socket
import sys
import threading
from wsgiref.simple_server import WSGIServer, make_server

from . import config as config_mod
from .exceptions import (
    ConfigError,
    NotFoundError,
    RequestArgumentError,
    SimHarvestError,
    StalenessError,
)
from .harvester import USER_AGENT, HarvestSession, harvest
from .pipeline import check_results_fresh, compute_store, index_store, load_top_matches
from .records import MetadataRecord
from .service import OaiProvider, ProviderConfig, duplicate_report
from .similarity import (
    DEFAULT_PER_PAIR_SECONDS,
    estimate_runtime,
    format_duration,
    pair_count,
)
from .store import RecordStore

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_STALE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for runtime.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simharvest", description=__doc__)
    parser.add_argument("--config", default=None, help="key=value configuration file")
    common = _Parser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value configuration file")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_command(name, **kwargs):
        return commands.add_parser(name, parents=[common], **kwargs)

    cmd = add_command("harvest", help="pull records from an upstream repository")
    cmd.add_argument("--base-url", dest="base_url", help="upstream OAI-PMH endpoint")
    cmd.add_argument("--from", dest="from", metavar="DATESTAMP")
    cmd.add_argument("--until", dest="until", metavar="DATESTAMP")
    cmd.add_argument("--set", dest="set", metavar="SETSPEC")
    cmd.add_argument("--store", dest="store_root")
    cmd.add_argument("--user-agent", dest="user_agent")
    cmd.add_argument("--from-email", dest="from_email")

    cmd = add_command("index", help="build term-frequency vectors")
    cmd.add_argument("--store", dest="store_root")
    cmd.add_argument("--fields", help="comma-separated DC elements to index")
    cmd.add_argument("--stopwords", help="path to a stopword file")

    cmd = add_command("compute", help="score every document pair")
    cmd.add_argument("--store", dest="store_root")
    cmd.add_argument("--k", type=int, help="ranked matches kept per document")
    cmd.add_argument("--jobs", type=int, help="worker processes, at most the "
                     "machine's CPUs (default: all cores)")

    cmd = add_command("top", help="show the ranked matches of one record")
    cmd.add_argument("--identifier", required=True)
    cmd.add_argument("--store", dest="store_root")
    cmd.add_argument("--k", type=int)

    cmd = add_command("serve", help="run the OAI-PMH provider")
    cmd.add_argument("--store", dest="store_root")
    cmd.add_argument("--host", dest="bind_host")
    cmd.add_argument("--port", dest="bind_port", type=int)
    cmd.add_argument("--repository-name", dest="repository_name")
    cmd.add_argument("--admin-email", dest="admin_email")
    cmd.add_argument("--service-base-url", dest="service_base_url")
    cmd.add_argument("--k", type=int)
    cmd.add_argument("--page-size", dest="page_size", type=int)
    cmd.add_argument("--schema-url", dest="schema_url")

    cmd = add_command("estimate", help="project the all-pairs runtime")
    cmd.add_argument("--n", type=int, required=True, help="corpus size in documents")
    cmd.add_argument("--per-pair", dest="per_pair_seconds", type=float,
                     help=f"seconds per pair (default {DEFAULT_PER_PAIR_SECONDS})")

    cmd = add_command("dup-report", help="list likely duplicate pairs")
    cmd.add_argument("--store", dest="store_root")
    cmd.add_argument("--threshold", type=float, help="minimum score, e.g. 0.95")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags = {
            key: value for key, value in vars(args).items() if key in config_mod.DEFAULTS
        }
        return _COMMANDS[args.command](args, config_mod.merge(args.config, flags))
    except StalenessError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_STALE
    except (ConfigError, RequestArgumentError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except (SimHarvestError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> None:
    sys.exit(main())


# -- commands -------------------------------------------------------------


def _cmd_harvest(args: argparse.Namespace, settings: dict) -> int:
    if not settings.get("base_url"):
        raise ConfigError("harvest needs --base-url (or base_url in the config file)")
    store = RecordStore(settings["store_root"])
    session = HarvestSession(
        base_url=settings["base_url"],
        from_=settings.get("from"),
        until=settings.get("until"),
        set_spec=settings.get("set"),
    )
    collisions: list[str] = []

    def sink(record: MetadataRecord) -> None:
        result = store.put_record(record)
        if result.status == "replaced" and result.replaced is not None:
            old = result.replaced
            collisions.append(
                f"{record.identifier}: replaced copy with provenance "
                f"{list(old.provenance)!r} by one with {list(record.provenance)!r}"
            )

    report = harvest(
        session,
        sink,
        user_agent=settings.get("user_agent") or USER_AGENT,
        from_email=settings.get("from_email"),
    )
    print(f"records received: {report.records_received}")
    print(f"pages fetched: {report.pages_fetched}")
    print(f"retries: {report.retries}")
    if report.duplicate_identifiers:
        print(f"repeated upstream identifiers: {len(report.duplicate_identifiers)}")
    for line in collisions:
        print(f"identifier collision (last write wins): {line}")
    return EXIT_OK


def _cmd_index(args: argparse.Namespace, settings: dict) -> int:
    store = RecordStore.open(settings["store_root"])
    fields = tuple(
        name.strip() for name in settings["fields"].split(",") if name.strip()
    )
    report = index_store(store, fields, settings.get("stopwords"))
    print(f"records indexed: {report.records_indexed}")
    print(f"distinct terms: {report.distinct_terms}")
    return EXIT_OK


def _cmd_compute(args: argparse.Namespace, settings: dict) -> int:
    store = RecordStore.open(settings["store_root"])
    jobs = settings["jobs"]
    report = compute_store(
        store,
        k=settings["k"],
        jobs=(os.cpu_count() or 1) if jobs is None else jobs,
    )
    print(f"documents: {report.documents}")
    print(f"pairs: {report.pair_count}")
    print(f"pairs written: {report.pairs_written}")
    print(f"wall seconds: {report.wall_seconds:.3f}")
    print(f"mean seconds per pair: {report.per_pair_seconds:.6g}")
    for stage, seconds in report.stage_seconds.items():
        print(f"{stage.replace('_', ' ')} seconds: {seconds:.3f}")
    print(f"pair file: {store.similarities_path}")
    print(f"top matches: {store.top_dir}")
    return EXIT_OK


def _cmd_top(args: argparse.Namespace, settings: dict) -> int:
    k = settings["k"]
    if k < 0:  # refused before the freshness check, which would refuse first
        raise ConfigError(f"k must be non-negative, got {k}")
    store = RecordStore.open(settings["store_root"])
    check_results_fresh(store)
    matches = load_top_matches(store, args.identifier, k)
    if store.get_record(args.identifier).deleted:
        raise NotFoundError(f"record {args.identifier} is deleted")
    for match in matches:
        print(f"{match.identifier}\t{match.score:.4f}")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace, settings: dict) -> int:
    host, port = settings["bind_host"], settings["bind_port"]
    if not 0 <= port <= 65535:
        raise ConfigError(f"bind_port must lie in [0, 65535], got {port}")
    store = RecordStore.open(settings["store_root"])
    config = ProviderConfig(  # refuses a bad k or page size before binding
        repository_name=settings["repository_name"],
        base_url=settings.get("service_base_url") or "",
        admin_email=settings["admin_email"],
        k=settings["k"],
        page_size=settings["page_size"],
        schema_url=settings["schema_url"],
    )
    netloc = f"[{host}]" if ":" in host else host  # an IPv6 literal in a URL
    with make_server(host, port, None, server_class=_AcceptingWSGIServer) as server:
        if not config.base_url:  # named once bound, so that --port 0 gives its port
            url = f"http://{netloc}:{server.server_port}/oai"
            config = dataclasses.replace(config, base_url=url)
        server.set_app(OaiProvider(store, config))
        print(f"serving {store.root} on http://{netloc}:{server.server_port}/", flush=True)
        server.serve_forever()
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace, settings: dict) -> int:
    n, per_pair = args.n, settings["per_pair_seconds"]
    seconds = estimate_runtime(n, per_pair)
    print(f"documents: {n}")
    print(f"pairs: {pair_count(n)}")
    print(f"seconds per pair: {per_pair:g}")
    print(f"estimated seconds: {seconds:.2f}")
    print(f"estimated duration: {format_duration(seconds)}")
    return EXIT_OK


def _cmd_dup_report(args: argparse.Namespace, settings: dict) -> int:
    threshold = settings.get("threshold")
    if threshold is None:
        raise ConfigError(
            "dup-report needs --threshold (or threshold in the config file)"
        )
    store = RecordStore.open(settings["store_root"])
    pairs = duplicate_report(store, threshold)
    for pair in pairs:
        flag = "provenance-linked" if pair.provenance_linked else "-"
        print(f"{pair.id_a}\t{pair.id_b}\t{pair.score:.4f}\t{flag}")
    print(f"pairs at or above {threshold:g}: {len(pairs)}", file=sys.stderr)
    return EXIT_OK


class _AcceptingWSGIServer(WSGIServer):
    """Serves each connection on the thread that accepted it.

    Every thread loops accept -> serve. A thread that takes a connection
    while no other thread waits in accept first starts one more acceptor, so
    a stalled client never holds up the next one, and a client that connects
    once at a time is served with no thread start and no hand-off.
    """

    def __init__(self, server_address, *args, **kwargs):
        if ":" in server_address[0]:  # an IPv6 literal; a name binds over IPv4
            self.address_family = socket.AF_INET6
        super().__init__(server_address, *args, **kwargs)
        self._lock = threading.Lock()
        self._accepting = 0  # threads waiting in accept

    def serve_forever(self, poll_interval=None):
        while self.socket.fileno() != -1:  # -1 once server_close ran
            with self._lock:
                self._accepting += 1
            try:
                request, client_address = self.get_request()
            except OSError:  # as socketserver does: retry the accept
                continue
            finally:
                with self._lock:
                    self._accepting -= 1
                    spare = self._accepting
            try:
                if not spare:
                    threading.Thread(target=self.serve_forever, daemon=True).start()
                self.process_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
                self.shutdown_request(request)
            except BaseException:
                self.shutdown_request(request)
                raise


_COMMANDS = {
    "harvest": _cmd_harvest,
    "index": _cmd_index,
    "compute": _cmd_compute,
    "top": _cmd_top,
    "serve": _cmd_serve,
    "estimate": _cmd_estimate,
    "dup-report": _cmd_dup_report,
}

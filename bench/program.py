"""The program side of the benchmark: processes that run simharvest itself.

    python3 bench/program.py runner --src SRC [--trace FILE]
    python3 -u bench/program.py serve --src SRC [--trace FILE] -- SERVE-ARGS...

``runner`` is the operator's batch process (harvest, index, compute,
duplicate report) driven by one JSON command per stdin line; it answers one
JSON line per command with the seconds spent inside the library call. It is
the compute parent whose peak memory the benchmark reports.

``serve`` runs ``simharvest serve`` through the CLI's own entry point. On
SIGTERM it stops serving, writes its trace (when tracing) and prints its
peak memory as one JSON line.

With ``--trace`` both install the wrappers from ``tracing.py`` before the
program does any work and keep spans in memory until they exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time


def _peak_rss_mb() -> float:
    """This process's own peak resident memory. getrusage's ru_maxrss is not
    used where /proc exists: after fork and exec it still carries the resident
    size of the parent that started this process."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _load(src: str, trace_path: str | None):
    sys.path.insert(0, os.path.abspath(src))
    if not trace_path:
        return None
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


class Runner:
    def __init__(self, tracer):
        from simharvest import harvester, pipeline, service, store

        self.tracer = tracer
        self.harvester = harvester
        self.pipeline = pipeline
        self.service = service
        self.store = store

    def _timed(self, phase: str, call):
        span = self.tracer.open(f"phase.{phase}") if self.tracer else None
        started = time.perf_counter()
        cpu = time.process_time()
        try:
            result = call()
            self.cpu_seconds = time.process_time() - cpu
            return result, time.perf_counter() - started
        finally:
            if span is not None:
                self.tracer.close(span)

    def harvest(self, command: dict) -> dict:
        def call():
            store = self.store.RecordStore(command["store"])
            session = self.harvester.HarvestSession(base_url=command["base_url"])
            return self.harvester.harvest(session, store.put_record)

        report, seconds = self._timed(command["phase"], call)
        return {
            "seconds": seconds,
            "records": report.records_received,
            "pages": report.pages_fetched,
            "retries": report.retries,
        }

    def index(self, command: dict) -> dict:
        store = self.store.RecordStore(command["store"])
        report, seconds = self._timed("index", lambda: self.pipeline.index_store(store))
        return {"seconds": seconds, "records": report.records_indexed}

    def compute(self, command: dict) -> dict:
        store = self.store.RecordStore(command["store"])
        # jobs as the CLI picks it when --jobs is not given
        jobs = os.cpu_count() or 1
        report, seconds = self._timed(
            "compute",
            lambda: self.pipeline.compute_store(store, k=command["k"], jobs=jobs),
        )
        return {"seconds": seconds, "pairs": report.pairs_written, "jobs": jobs}

    def dup(self, command: dict) -> dict:
        store = self.store.RecordStore(command["store"])
        pairs, seconds = self._timed(
            "dup",
            lambda: self.service.duplicate_report(store, command["threshold"]),
        )
        with open(command["out"], "w", encoding="utf-8") as handle:
            for pair in pairs:
                handle.write(
                    f"{pair.id_a}\t{pair.id_b}\t{pair.score!r}\t{int(pair.provenance_linked)}\n"
                )
        return {"seconds": seconds, "pairs": len(pairs)}


def run_runner(args) -> int:
    tracer = _load(args.src, args.trace)
    runner = Runner(tracer)
    _reply({"ready": True})
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "exit":
            break
        try:
            result = getattr(runner, command["op"])(command)
            result["cpu_seconds"] = runner.cpu_seconds
            result["ok"] = True
        except Exception as error:  # report the failure and take the next command
            result = {"ok": False, "error": f"{type(error).__name__}: {error}"}
        _reply(result)
    if tracer is not None:
        tracer.dump(args.trace)
    _reply({"peak_rss_mb": _peak_rss_mb()})
    return 0


def _stop(signum, frame):
    raise KeyboardInterrupt


def run_server(args, serve_args: list[str]) -> int:
    tracer = _load(args.src, args.trace)
    from simharvest import cli

    signal.signal(signal.SIGTERM, _stop)
    cli.main(["serve", *serve_args])
    if tracer is not None:
        tracer.dump(args.trace)
    _reply({"peak_rss_mb": _peak_rss_mb()})
    return 0


def main(argv: list[str]) -> int:
    extra: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, extra = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("runner", "serve"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.mode == "runner":
        return run_runner(args)
    return run_server(args, extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

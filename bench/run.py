"""Benchmark of simharvest: the operator's batch refresh and downstream harvesting.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for sizes and reasons):

  batch-zipf   the run's first refresh (harvest -> index -> compute) of a
               Zipfian Dublin Core corpus builds the store served all run;
               each round refreshes a scratch store again, then makes one
               downstream harvest pass that ends with a re-harvest of a
               changed upstream into the served store
  batch-dense  the same on a small-vocabulary corpus where every pair overlaps

Every workload runs every phase, so each reports every end-to-end metric.
Rounds repeat while the next one would end within --seconds of the measured
phase's start; each timing is a median over the run's samples. Outputs are
checked against an oracle computed from the generated inputs (checks.py).
The last line of standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import quote, urlencode

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

K = 10  # ranked matches kept per record, the CLI default
DUP_THRESHOLD = 0.5
RECORDS = 600  # records in the upstream corpus
SETUPS = 3  # set-ups per run; setup_s is their median
GETS = 30  # GetRecord requests per probe
RUN_LIMIT_S = 170

# workload -> corpus. Every round runs every phase, and the short timings
# (duplicate report, GetRecord, Identify, ListSets) are taken in probes
# between the long ones, so each metric's samples spread over the whole run
# instead of one stretch of it: on a shared machine the speed drifts over
# seconds, and a median over samples taken far apart drifts less.
WORKLOADS = {"batch-zipf": "zipf", "batch-dense": "dense"}


class RunFailure(Exception):
    """The run cannot go on; no result is printed."""


class Tally:
    """Operations attempted; an operation fails when the program errs or a
    check of its output fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []

    def op(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.check_failures += failures
            for message in failures[:3]:
                print(f"check failed: {message}", file=sys.stderr)


# -- processes ----------------------------------------------------------------


class Process:
    def __init__(self, name: str, argv: list[str], log_dir: Path, stdin: bool = False):
        self.name = name
        self.log_path = log_dir / f"{name}.log"
        with open(self.log_path, "wb") as log:
            self.popen = subprocess.Popen(
                argv,
                cwd=ROOT,
                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )

    def line(self) -> str:
        text = self.popen.stdout.readline()
        if not text:
            self.popen.wait(timeout=10)
            raise RunFailure(f"{self.name} exited ({self.popen.returncode}); see {self.log_path}")
        return text

    def json_line(self) -> dict:
        return json.loads(self.line())

    def kill(self) -> None:
        if self.popen.poll() is None:
            self.popen.kill()
        self.popen.wait(timeout=30)
        if self.popen.stdout:
            self.popen.stdout.close()
        if self.popen.stdin:
            self.popen.stdin.close()


def _python(script: str, *args: str) -> list[str]:
    return [sys.executable, "-u", str(BENCH / script), *args]


class Runner(Process):
    """The program's batch process (program.py runner)."""

    def __init__(self, log_dir: Path, trace: Path | None):
        args = ["runner", "--src", str(SRC)] + (["--trace", str(trace)] if trace else [])
        super().__init__("runner", _python("program.py", *args), log_dir, stdin=True)
        self.json_line()

    def call(self, **command) -> dict:
        self.popen.stdin.write(json.dumps(command) + "\n")
        self.popen.stdin.flush()
        reply = self.json_line()
        if not reply["ok"]:
            raise RunFailure(f"{command['op']} failed: {reply['error']}")
        return reply

    def close(self) -> float:
        self.popen.stdin.write(json.dumps({"op": "exit"}) + "\n")
        self.popen.stdin.flush()
        peak = self.json_line()["peak_rss_mb"]
        self.popen.wait(timeout=60)
        return peak


class Server(Process):
    """simharvest serve, started through program.py serve."""

    def __init__(self, store: Path, log_dir: Path, trace: Path | None):
        args = ["serve", "--src", str(SRC)] + (["--trace", str(trace)] if trace else [])
        args += ["--", "--store", str(store), "--port", "0", "--k", str(K)]
        super().__init__("server", _python("program.py", *args), log_dir)
        match = re.search(r":(\d+)/\s*$", self.line())
        if not match:
            raise RunFailure("server did not report its port")
        self.port = int(match.group(1))

    def close(self) -> float:
        self.popen.send_signal(signal.SIGTERM)
        peak = self.json_line()["peak_rss_mb"]
        self.popen.wait(timeout=60)
        return peak


class Upstream(Process):
    def __init__(self, pages: Path, log_dir: Path):
        super().__init__("upstream", _python("upstream.py", str(pages)), log_dir)
        self.port = self.json_line()["port"]

    def base_url(self, version: int) -> str:
        return f"http://127.0.0.1:{self.port}/v{version}/oai"


class Client:
    """One downstream harvester: one connection at a time, closed loop."""

    def __init__(self, port: int, latencies: dict[str, float]):
        self.port = port
        self.sequence = 0
        self.latencies = latencies

    def get(self, path: str, query: dict, verb: str, round_label: str, state: str):
        self.sequence += 1
        label = f"{round_label}:{self.sequence}:{verb}:{state}"
        target = f"{path}?{urlencode(query, quote_via=quote)}"
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            started = time.perf_counter()
            connection.request("GET", target, headers={"X-Bench-Request": label})
            response = connection.getresponse()
            body = response.read()
            seconds = time.perf_counter() - started
        finally:
            connection.close()
        self.latencies[label] = seconds
        return response.status, body, seconds


# -- the workload -------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def _tree_digest(store: Path, tree: str) -> str:
    """Digest of one store tree: file names and contents, in sorted order."""
    digest = hashlib.sha256()
    base = store / tree
    for directory, subdirectories, names in os.walk(base):
        subdirectories.sort()
        for name in sorted(names):
            path = Path(directory) / name
            digest.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _trees_digest(store: Path) -> str:
    """Digest of what harvest and index wrote."""
    return _tree_digest(store, "records") + _tree_digest(store, "tf_metadata")


def _computed_digest(store: Path) -> str:
    """Digest of what compute wrote: the pair file and the top-matches tree."""
    pairs = hashlib.sha256((store / "similarities.txt").read_bytes()).hexdigest()
    return pairs + _tree_digest(store, "top_matches")


def _restore(snapshot: Path, store: Path) -> None:
    """Bring ``store`` back to the copy ``snapshot`` (not timed). Only what
    differs is written or removed, so an undone update writes little."""
    kept = set()
    for base, _, names in os.walk(snapshot):
        relative = Path(base).relative_to(snapshot)
        (store / relative).mkdir(exist_ok=True)
        kept.add(store / relative)
        for name in names:
            source, target = Path(base) / name, store / relative / name
            kept.add(target)
            mark = source.stat()
            try:
                current = target.stat()
                same = (mark.st_size, mark.st_mtime_ns) == (current.st_size, current.st_mtime_ns)
            except FileNotFoundError:
                same = False
            if not same:
                shutil.copy2(source, target)
    for base, directories, names in os.walk(store, topdown=False):
        for name in names:
            if Path(base) / name not in kept:
                os.unlink(Path(base) / name)
        for name in directories:
            if Path(base) / name not in kept:
                os.rmdir(Path(base) / name)


def _tree_bytes(store: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(store)
        for name in names
    )


class Run:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.corpus_kind = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / f"{name}-s{seed}-{os.getpid()}"
        self.tally = Tally()
        self.samples: dict[str, list[float]] = {}
        self.processes: list[Process] = []
        self.runner_traces: list[Path] = []
        self.latencies: dict[str, float] = {}
        self.peaks: list[float] = []
        self.unterminated_walks = 0

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def start(self, process: Process) -> Process:
        self.processes.append(process)
        return process

    def stop_all(self) -> None:
        for process in self.processes:
            process.kill()
        self.processes = []

    # -- set-up -----------------------------------------------------------

    def set_up(self, attempt: int) -> None:
        """Generate inputs, render upstream pages, start the upstream and the
        runner."""
        import corpus

        directory = self.work / f"setup-{attempt}"
        directory.mkdir(parents=True)
        self.dir = directory
        started = time.perf_counter()
        self.corpus = corpus.generate(self.corpus_kind, RECORDS, self.seed, 1, str(SRC))
        for version, records in enumerate(self.corpus.versions):
            corpus.render_pages(records, str(directory / "pages" / f"v{version}"))
        self.upstream = self.start(Upstream(directory / "pages", directory))
        trace = self.work / f"runner-trace-{attempt}.json" if self.trace else None
        self.runner = self.start(Runner(directory, trace))
        if trace:
            self.runner_traces.append(trace)
        self.sample("setup_s", time.perf_counter() - started)

    def tear_down_setup(self) -> None:
        """Stop a set-up that is not the measured one."""
        self.runner.close()
        self.stop_all()
        shutil.rmtree(self.dir)

    def start_server(self, store: Path) -> None:
        trace = self.work / "server-trace.json" if self.trace else None
        self.server = self.start(Server(store, self.dir, trace))
        self.client = Client(self.server.port, self.latencies)

    def stop_server(self) -> None:
        self.peaks.append(self.server.close())
        self.processes.remove(self.server)
        self.server.kill()

    # -- the operator's refresh path --------------------------------------------

    def refresh(self, store: Path) -> None:
        """harvest -> index -> compute into an empty store."""
        self.harvest(store, 0)
        self.index(store)
        self.compute(store)

    def compute(self, store: Path) -> None:
        self.timed("compute", self.runner.call(op="compute", store=str(store), k=K))

    def scratch_refresh(self, label: str) -> None:
        """A refresh of an empty scratch store, with a probe of the served
        store after harvest and after index; what it writes must equal the
        checked build byte for byte. Then the changed upstream is
        re-harvested into it, which must leave the changed records, and the
        scratch store is deleted."""
        import checks

        scratch = self.dir / "scratch-store"
        self.harvest(scratch, 0)
        self.probe(label)
        self.index(scratch)
        self.probe(label)
        self.compute(scratch)
        same = _computed_digest(scratch) == self.checked_digest
        self.tally.op([] if same else ["a repeated compute wrote different files"])
        same = _trees_digest(scratch) == self.checked_trees
        self.tally.op([] if same else ["a repeated build stored different trees"])
        self.harvest(scratch, 1)
        self.tally.op(checks.records_failures(str(scratch), self.corpus.versions[1]))
        shutil.rmtree(scratch)

    def timed(self, phase: str, reply: dict) -> None:
        """Keep a runner phase's seconds; its CPU seconds go to the summary only."""
        self.sample(f"{phase}_s", reply["seconds"])
        self.sample(f"{phase}_cpu_s", reply["cpu_seconds"])

    def harvest(self, store: Path, version: int) -> None:
        """Harvest upstream version 0 into an empty store, or re-harvest the
        changed version 1 into a built one (an update)."""
        phase = "update" if version else "harvest"
        self.timed(phase, self.runner.call(
            op="harvest", phase=phase, base_url=self.upstream.base_url(version), store=str(store)))

    def index(self, store: Path) -> None:
        self.timed("index", self.runner.call(op="index", store=str(store)))

    def dup_report(self, store: Path) -> None:
        import checks

        out = self.dir / "dup.tsv"
        self.timed("dup_report", self.runner.call(
            op="dup", store=str(store), threshold=DUP_THRESHOLD, out=str(out)))
        self.tally.op(checks.duplicate_report_failures(
            str(out), self.oracle, self.corpus.duplicates, DUP_THRESHOLD))

    def check_store(self, store: Path) -> None:
        """Check the harvest, index and compute that built the served store:
        every record, tf file, pair and top-matches file against the oracle.
        Later builds of the same inputs must match it byte for byte."""
        import checks

        records = self.corpus.versions[0]
        self.tally.op(checks.records_failures(str(store), records))
        self.tally.op(checks.tf_failures(str(store), records))
        self.tally.op(
            checks.pair_file_failures(str(store / "similarities.txt"), self.oracle)
            + checks.top_matches_failures(str(store), self.oracle, K)
        )
        self.checked_trees = _trees_digest(store)
        self.checked_digest = _computed_digest(store)
        self.sizes = {
            "pair_file_bytes": os.path.getsize(store / "similarities.txt"),
            "tree_bytes": _tree_bytes(store),
        }

    # -- downstream harvesting ------------------------------------------------

    def prepare(self) -> None:
        """Oracle, expected answers and the Zipf draw of GetRecord identifiers."""
        import numpy as np

        import checks

        records = self.corpus.versions[0]
        self.oracle = checks.Oracle(records)
        self.expect(0)
        self.rng = np.random.default_rng([self.seed, 3])
        self.popular = [self.current_ids[i] for i in self.rng.permutation(len(records))]
        weights = 1.0 / np.arange(1, len(records) + 1)
        self.popularity = weights / weights.sum()
        stamps = sorted(record.datestamp for record in records)
        self.from_date = stamps[int(len(stamps) * 0.7)][:10]
        self.from_ids = sorted(
            r.identifier for r in records if r.datestamp >= self.from_date + "T00:00:00Z"
        )
        counts: dict[str, int] = {}
        for record in records:
            for spec in record.sets:
                counts[spec] = counts.get(spec, 0) + 1
        self.set_specs = sorted(counts)
        self.set_spec = sorted(counts, key=lambda s: (-counts[s], s))[1]
        self.set_ids = sorted(r.identifier for r in records if self.set_spec in r.sets)
        self.earliest = stamps[0]

    def expect(self, version: int) -> None:
        self.current = {record.identifier: record for record in self.corpus.versions[version]}
        self.current_ids = sorted(self.current)

    def walk(self, verb: str, args: dict, expected_ids, round_label: str, state: str):
        """One complete list walk following resumption tokens; returns the
        summed request latencies and the first token seen."""
        import checks

        query = {"verb": verb, "metadataPrefix": "oai_dc", **args}
        seconds = 0.0
        pages = []
        for _ in range(10_000):
            status, body, took = self.client.get("/oai", query, verb, round_label, state)
            seconds += took
            if status != 200:
                self.tally.op([f"{verb} walk {args}: HTTP {status}"])
                return seconds, None
            pages.append(checks.list_page(body, verb))
            token = pages[-1][2]
            if not token:
                break
            query = {"verb": verb, "resumptionToken": token}
        failures, unterminated = checks.walk_failures(pages, verb, expected_ids, self.current)
        self.unterminated_walks += unterminated
        self.tally.op([f"{message} ({args})" for message in failures])
        return seconds, pages[0][2]

    def get_record(self, identifier: str, label: str, fresh: bool) -> float:
        import checks

        status, body, seconds = self.client.get(
            "/oai",
            {"verb": "GetRecord", "identifier": identifier, "metadataPrefix": "oai_dc"},
            "GetRecord", label, "fresh" if fresh else "stale",
        )
        oracle = self.oracle if fresh else None
        self.tally.op([f"GetRecord HTTP {status}"] if status != 200 else
                      checks.get_record_failures(body, self.current[identifier], oracle, K))
        return seconds

    def probe(self, label: str) -> None:
        """The short timings, taken between the long ones: a duplicate report
        on the served store, then a burst of Zipf-drawn GetRecords, an
        Identify and a ListSets from the server, all while results are fresh."""
        self.dup_report(self.store)
        picks = self.rng.choice(len(self.popular), size=GETS, p=self.popularity)
        for pick in picks:
            ms = self.get_record(self.popular[pick], label, True) * 1000.0
            self.sample("get_record_ms", ms)
        self.status_reads(label)

    def downstream_pass(self, label: str, update_label: str) -> None:
        """One downstream harvester's pass over the served store: probes
        around a ListRecords walk and the filtered ListIdentifiers walks, then
        the update with its staleness checks, after which the store is
        brought back to its computed state (not timed)."""
        self.probe(label)
        seconds, token = self.walk("ListRecords", {}, self.current_ids, label, "fresh")
        self.sample("list_walk_fresh_s", seconds)
        self.probe(label)
        from_seconds, _ = self.walk("ListIdentifiers", {"from": self.from_date},
                                    self.from_ids, label, "fresh")
        set_seconds, _ = self.walk("ListIdentifiers", {"set": self.set_spec},
                                   self.set_ids, label, "fresh")
        self.sample("filtered_walk_s", from_seconds + set_seconds)
        self.probe(label)
        self.update(update_label, token)
        _restore(self.snapshot, self.store)

    def status_reads(self, label: str) -> None:
        """One Identify and one ListSets, checked against the generated data."""
        import checks

        status, body, seconds = self.client.get("/oai", {"verb": "Identify"},
                                                "Identify", label, "fresh")
        self.sample("identify_ms", seconds * 1000.0)
        _, errors, payload = checks.parse_response(body)
        earliest = None if payload is None else payload.findtext(f"{checks.OAI}earliestDatestamp")
        self.tally.op([] if status == 200 and not errors and earliest == self.earliest
                      else [f"Identify earliestDatestamp {earliest}, expected {self.earliest}"])
        status, body, seconds = self.client.get("/oai", {"verb": "ListSets"},
                                                "ListSets", label, "fresh")
        self.sample("list_sets_ms", seconds * 1000.0)
        _, errors, payload = checks.parse_response(body)
        specs = [] if payload is None else [
            (s.text or "").strip() for s in payload.iter(f"{checks.OAI}setSpec")
        ]
        self.tally.op([] if status == 200 and not errors and specs == self.set_specs
                      else [f"ListSets {specs}, expected {self.set_specs}"])

    def update(self, label: str, stale_token: str) -> None:
        """Re-harvest the changed upstream into the served store, then check
        that the server honours the staleness this causes."""
        import checks

        self.harvest(self.store, 1)
        previous = self.current
        self.expect(1)
        changed = [i for i in self.current_ids if i in previous and previous[i] != self.current[i]]
        added = [i for i in self.current_ids if i not in previous]
        unchanged = [i for i in self.current_ids if previous.get(i) == self.current[i]]
        seconds, _ = self.walk("ListRecords", {}, self.current_ids, label, "stale")
        self.sample("list_walk_stale_s", seconds)
        for identifier in changed[:3] + added[:1] + unchanged[:2]:
            self.get_record(identifier, label, fresh=False)
        status, _, _ = self.client.get("/similar", {"identifier": self.current_ids[0]},
                                       "similar", label, "stale")
        self.tally.op([] if status == 409 else [f"/similar answered {status} while stale"])
        status, body, _ = self.client.get(
            "/oai", {"verb": "ListRecords", "resumptionToken": stale_token},
            "ListRecords", label, "stale",
        )
        _, errors, _ = checks.parse_response(body)
        self.tally.op([] if status == 200 and errors == ["badResumptionToken"]
                      else [f"pre-update token answered {errors}"])
        self.expect(0)

    # -- the whole run --------------------------------------------------------

    def round(self, number: int) -> None:
        """A scratch refresh with probes between its steps, then a downstream
        pass over the served store."""
        self.scratch_refresh(str(number))
        self.downstream_pass(str(number), f"u{number}")

    def execute(self) -> dict:
        for attempt in range(SETUPS):
            self.set_up(attempt)
            if attempt + 1 < SETUPS:
                self.tear_down_setup()
        self.prepare()
        started = time.perf_counter()
        # the run's first refresh builds the store that is served all run
        self.store = self.dir / "store"
        self.refresh(self.store)
        self.check_store(self.store)
        # the computed store, which each update is undone from
        self.snapshot = self.dir / "store-computed"
        shutil.copytree(self.store, self.snapshot)
        self.start_server(self.store)
        rounds = 0
        # a new round starts while, at the mean round length so far, it would
        # end within --seconds; every run makes at least one
        while True:
            round_started = time.perf_counter()
            self.round(rounds)
            self.sample("round_s", time.perf_counter() - round_started)
            rounds += 1
            spent = time.perf_counter() - started
            if spent + statistics.mean(self.samples["round_s"]) > self.seconds:
                break
        self.sample("rounds", rounds)
        self.stop_server()
        self.peaks.append(self.runner.close())
        self.sample("peak_rss_mb", max(self.peaks))
        self.sample("unterminated_walks", self.unterminated_walks)
        return self.metrics()

    def metrics(self) -> dict:
        s = self.samples
        end_to_end = {
            "setup_s": (_median(s["setup_s"]), "s"),
            "index_s": (_median(s["index_s"]), "s"),
            "compute_s": (_median(s["compute_s"]), "s"),
            "dup_report_s": (_median(s["dup_report_s"]), "s"),
            "peak_rss_mb": (s["peak_rss_mb"][0], "MB"),
            "get_record_p50_ms": (_median(s["get_record_ms"]), "ms"),
            "list_walk_s": (
                _median(s["list_walk_fresh_s"]) + _median(s["list_walk_stale_s"]), "s"
            ),
            "filtered_walk_s": (_median(s["filtered_walk_s"]), "s"),
            "identify_p50_ms": (_median(s["identify_ms"]), "ms"),
            "list_sets_p50_ms": (_median(s["list_sets_ms"]), "ms"),
            "update_s": (_median(s["update_s"]), "s"),
        }
        if not self.trace:
            return {"end_to_end": end_to_end, "samples": s}
        import layers

        runner_spans = []
        for path in self.runner_traces:
            runner_spans += json.loads(path.read_text())["spans"]
        server_spans = json.loads((self.work / "server-trace.json").read_text())["spans"]
        per_layer = layers.per_layer(runner_spans, server_spans, self.latencies, self.sizes)
        return {"end_to_end": end_to_end, "per_layer": per_layer, "samples": s}


def _timeout(signum, frame):
    raise RunFailure(f"run exceeded {RUN_LIMIT_S} s")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="simharvest benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "simharvest" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'simharvest'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    except RunFailure as error:
        print(f"error: {error}; work directory kept at {run.work}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        run.stop_all()
    shutil.rmtree(run.work, ignore_errors=True)
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": result["samples"],
        "end_to_end": result["end_to_end"],
        "per_layer": result.get("per_layer"),
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    summary_path = WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    summary_path.write_text(json.dumps(summary, indent=1))
    print(json.dumps({
        "correct": not run.tally.check_failures,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

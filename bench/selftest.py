"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Builds and serves a small store with the real program, confirms that every
check passes on it, then corrupts one score line of similarities.txt, one
top-matches file, one served <about> container and the completeListSize of
one served list page in turn, and confirms that the matching check reports a
failed operation each time. Exits 0 when every
case behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
from run import DUP_THRESHOLD, K, SRC, WORK, Client, Runner, Server, Tally, Upstream  # noqa: E402


def _failed_ops(failures: list[str]) -> int:
    tally = Tally()
    tally.op(failures)
    return tally.failed


def main() -> int:
    work = WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    generated = corpus.generate("zipf", 80, 5, 0, str(SRC))
    records = generated.versions[0]
    corpus.render_pages(records, str(work / "pages" / "v0"))
    processes = []
    results = []

    def case(name: str, failures: list[str], expect_failure: bool) -> None:
        failed = _failed_ops(failures)
        ok = failed == (1 if expect_failure else 0)
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {failed} failed operation(s)")

    try:
        upstream = Upstream(work / "pages", work)
        processes.append(upstream)
        runner = Runner(work, None)
        processes.append(runner)
        store = work / "store"
        runner.call(op="harvest", phase="harvest", base_url=upstream.base_url(0), store=str(store))
        runner.call(op="index", store=str(store))
        runner.call(op="compute", store=str(store), k=K)
        report = work / "dup.tsv"
        runner.call(op="dup", store=str(store), threshold=DUP_THRESHOLD, out=str(report))
        oracle = checks.Oracle(records)
        pairs = store / "similarities.txt"

        case("clean records tree", checks.records_failures(str(store), records), False)
        case("clean tf tree", checks.tf_failures(str(store), records), False)
        case("clean pair file", checks.pair_file_failures(str(pairs), oracle), False)
        case("clean top-matches files", checks.top_matches_failures(str(store), oracle, K), False)
        case("clean duplicate report", checks.duplicate_report_failures(
            str(report), oracle, generated.duplicates, DUP_THRESHOLD), False)

        original = pairs.read_text(encoding="utf-8")
        lines = original.splitlines(keepends=True)
        line = next(i for i, text in enumerate(lines) if float(text.split("\t")[2]) < 0.9)
        id_a, id_b, score = lines[line].rstrip("\n").split("\t")
        lines[line] = f"{id_a}\t{id_b}\t{float(score) + 0.01:.4f}\n"
        pairs.write_text("".join(lines), encoding="utf-8")
        case("one corrupted score line", checks.pair_file_failures(str(pairs), oracle), True)
        pairs.write_text(original, encoding="utf-8")

        top = store / "top_matches" / sorted(os.listdir(store / "top_matches"))[7]
        kept = top.read_text(encoding="utf-8")
        first, _, rest = kept.partition("\n")
        other, _, score = first.partition("\t")
        top.write_text(f"{other}\t{float(score) * 0.5:.4f}\n{rest}", encoding="utf-8")
        case("one corrupted top-matches file", checks.top_matches_failures(str(store), oracle, K), True)
        top.write_text(kept, encoding="utf-8")

        server = Server(store, work, None)
        processes.append(server)
        client = Client(server.port, {})
        record = records[3]
        status, body, _ = client.get(
            "/oai",
            {"verb": "GetRecord", "identifier": record.identifier, "metadataPrefix": "oai_dc"},
            "GetRecord", "0", "fresh",
        )
        case("clean served <about>", checks.get_record_failures(body, record, oracle, K), False)
        scores = re.findall(rb'score="([01]\.\d{4})"', body)
        lowered = f"{float(scores[0]) * 0.5:.4f}".encode()
        corrupted = body.replace(b'score="' + scores[0] + b'"', b'score="' + lowered + b'"', 1)
        case("one corrupted served <about>", checks.get_record_failures(corrupted, record, oracle, K), True)

        bodies = []
        query = {"verb": "ListIdentifiers", "metadataPrefix": "oai_dc"}
        while True:
            _, body, _ = client.get("/oai", query, "ListIdentifiers", "0", "fresh")
            bodies.append(body)
            token = checks.list_page(body, "ListIdentifiers")[2]
            if not token:
                break
            query = {"verb": "ListIdentifiers", "resumptionToken": token}
        expected = sorted(r.identifier for r in records)
        current = {r.identifier: r for r in records}

        def walk(pages):
            parsed = [checks.list_page(page, "ListIdentifiers") for page in pages]
            return checks.walk_failures(parsed, "ListIdentifiers", expected, current)[0]

        case(f"clean {len(bodies)}-page walk", walk(bodies), False)
        stripped = re.sub(rb' completeListSize="\d+"', b"", bodies[0], count=1)
        case("a walk page without completeListSize", walk([stripped] + bodies[1:]), True)
        server.close()
        runner.close()
    finally:
        for process in processes:
            process.kill()
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} self-test cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

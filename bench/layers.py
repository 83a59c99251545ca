"""Per-layer metrics from the spans of one traced run.

Runner spans hang under one root per batch phase (``phase.harvest``,
``phase.update``, ``phase.index``, ``phase.compute``, ``phase.dup``); server
spans hang under one ``service.request`` root per HTTP request, labelled by
the client with ``round:sequence:verb:state``. Every root carries, per span
name below it, [calls, total seconds, self seconds]. A layer's figure is the
median over the phase instances (or serve rounds) that the README maps it to.
"""

from __future__ import annotations

import statistics

CALLS, TOTAL, SELF = 0, 1, 2
VERBS = ("GetRecord", "ListRecords", "ListIdentifiers", "Identify", "ListSets")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _get(totals: dict, name: str, field: int) -> float:
    return totals.get(name, (0, 0.0, 0.0))[field]


def _phases(spans, kind):
    return [s["totals"] for s in spans if s["parent"] is None and s["name"] == f"phase.{kind}"]


def _serve_rounds(requests):
    """Per fresh serve round, the sum of its requests' span totals."""
    rounds: dict[str, dict] = {}
    for request in requests:
        if request["state"] != "fresh":
            continue
        merged = rounds.setdefault(request["round"], {})
        for name, (calls, total, own) in request["totals"].items():
            entry = merged.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
    return list(rounds.values())


def _requests(server_spans, latencies):
    """Server request roots joined with their handle_request span and the
    client-observed latency of the same request."""
    handles = {
        s["parent"]: s for s in server_spans if s["name"] == "service.handle_request"
    }
    requests = []
    for span in server_spans:
        if span["parent"] is not None or span["name"] != "service.request":
            continue
        label = span["attrs"].get("request", "")
        parts = label.split(":")
        if len(parts) != 4:
            continue
        handle = handles.get(span["id"])
        requests.append(
            {
                "round": parts[0],
                "verb": parts[2],
                "state": parts[3],
                "totals": span.get("totals", {}),
                "handle": handle,
                "client_s": latencies.get(label),
            }
        )
    return requests


def per_layer(runner_spans, server_spans, latencies, sizes: dict) -> dict:
    """name -> (value, unit) for every per-layer metric of BENCHMARK.json."""
    harvests = _phases(runner_spans, "harvest")
    updates = _phases(runner_spans, "update")
    indexes = _phases(runner_spans, "index")
    computes = _phases(runner_spans, "compute")
    dups = _phases(runner_spans, "dup")
    requests = _requests(server_spans, latencies)
    rounds = _serve_rounds(requests)
    reads = indexes

    def med(phases, name, field=TOTAL):
        return _median(_get(p, name, field) for p in phases)

    out = {
        "harvester.fetch_s": (med(harvests, "harvester.fetch"), "s"),
        "harvester.pages": (med(harvests, "harvester.fetch", CALLS), "count"),
        "oai_xml.parse_response_s": (med(harvests, "oai_xml.parse_response"), "s"),
        "oai_xml.parse_record_fragment_s": (med(reads, "oai_xml.parse_record_fragment"), "s"),
        "oai_xml.serialize_s": (med(rounds, "oai_xml.serialize"), "s"),
        "store.put_record_s": (med(harvests, "store.put_record"), "s"),
        "store.get_record_s": (med(reads, "store.get_record"), "s"),
        "store.get_record_calls": (med(reads, "store.get_record", CALLS), "count"),
        "store.list_identifiers_s": (med(rounds, "store.list_identifiers"), "s"),
        "store.put_tf_s": (med(indexes, "store.put_tf"), "s"),
        "store.get_tf_s": (med(computes, "store.get_tf"), "s"),
        "store.put_weights_s": (med(computes, "store.put_weights"), "s"),
        "store.pair_file_bytes": (sizes["pair_file_bytes"], "bytes"),
        "store.tree_bytes": (sizes["tree_bytes"], "bytes"),
        "textpipe.record_to_tf_s": (med(indexes, "textpipe.record_to_tf"), "s"),
        "similarity.fit_s": (med(computes, "similarity.fit"), "s"),
        "similarity.pair_stream_s": (med(computes, "similarity.pair_stream"), "s"),
        "similarity.pairs": (med(computes, "similarity.pair_stream.items", CALLS), "count"),
        "pipeline.compute_self_s": (med(computes, "pipeline.compute_store", SELF), "s"),
        "pipeline.index_self_s": (med(indexes, "pipeline.index_store", SELF), "s"),
        "pipeline.load_top_matches_s": (med(rounds, "pipeline.load_top_matches"), "s"),
        "pipeline.iter_similarity_lines_s": (med(dups, "pipeline.iter_similarity_lines"), "s"),
        "service.duplicate_report_self_s": (med(dups, "service.duplicate_report", SELF), "s"),
    }
    # an empty-store harvest only creates, so the outcomes are counted on updates
    for status in ("created", "replaced", "unchanged"):
        name = f"store.put_record.{status}"
        out[name] = (med(updates, name, CALLS), "count")

    fresh_gets = [r for r in requests if r["verb"] == "GetRecord" and r["state"] == "fresh"]
    checks = sum(_get(r["totals"], "pipeline.check_results_fresh", CALLS) for r in fresh_gets)
    out["pipeline.freshness_checks_per_get_record"] = (
        checks / len(fresh_gets) if fresh_gets else 0.0,
        "count",
    )
    for verb in VERBS:
        of_verb = [r for r in requests if r["verb"] == verb and r["handle"] is not None]
        # fresh requests only: the stale reads after an update, and the
        # badResumptionToken answer among them, are a fixed check, not traffic
        fresh = [r for r in of_verb if r["state"] == "fresh"]
        reads_per = sum(_get(r["totals"], "store.get_record", CALLS) for r in fresh)
        out[f"store.records_read_per_response.{verb}"] = (
            reads_per / len(fresh) if fresh else 0.0,
            "count",
        )
        out[f"service.{verb}_ms"] = (
            _median(r["handle"]["self_s"] * 1000.0 for r in of_verb),
            "ms",
        )
    out["harvest_s"] = (
        _median(
            s["end"] - s["start"]
            for s in runner_spans
            if s["parent"] is None and s["name"] == "phase.harvest"
        ),
        "s",
    )
    fresh_ms = [r["client_s"] * 1000.0 for r in fresh_gets if r["client_s"] is not None]
    out["get_record_p90_ms"] = (statistics.quantiles(fresh_ms, n=10)[-1], "ms")
    out["service.http_overhead_ms"] = (
        _median(
            (r["client_s"] - (r["handle"]["end"] - r["handle"]["start"])) * 1000.0
            for r in fresh_gets
            if r["handle"] is not None and r["client_s"] is not None
        ),
        "ms",
    )
    return out

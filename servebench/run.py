"""Served-query benchmark: ``python3 servebench/run.py --workload W
--seed N --seconds S --trace 0|1`` from the repository root.

Generates the workload's inputs from the seed, computes reference
answers, launches ``python -m repro serve`` as its own process and
drives it with closed-loop keep-alive HTTP clients.  The last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics (from a second, traced server) with
``--trace 1``.  See ``README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: server launches per --trace 0 run; setup_s is their median
SETUP_LAUNCHES = 5
#: the tail percentile reported as ``*_p90_ms``, and the samples every
#: kind must have beyond it for the percentile to be reported
TAIL_Q = 0.90
MIN_BEYOND_TAIL = 10
#: strategies the planner picks on these workloads; each gets an
#: ``engine.execute_ms.<strategy>`` metric
STRATEGIES = ("structural-join", "binary", "yannakakis", "minoux")
#: per-layer time metrics: metric name -> span names summed per request
LAYER_TIMES = {
    "service.admission_wait_ms": ("service.admit",),
    "service.validate_ms": ("service.validate",),
    "service.encode_ms": ("service.encode",),
    "obs.sample_ms": ("obs.record", "obs.retain"),
    "engine.parse_ms": ("engine.parse",),
    "engine.plan_ms": ("engine.plan",),
    "engine.index_build_ms": ("engine.index_build",),
    **{f"engine.execute_ms.{s}": (f"engine.execute.{s}",) for s in STRATEGIES},
    "cq.materialize_ms": ("cq.materialize",),
    "datalog.ground_ms": ("datalog.ground",),
    "hornsat.minoux_ms": ("hornsat.minoux",),
    "storage.structural_join_ms": ("storage.structural_join",),
    "trees.parse_xml_ms": ("trees.parse_xml",),
    "storage.load_tree_ms": ("storage.load_tree",),
}
#: spans that wrap a whole request inside the service; the rest of the
#: client latency is HTTP read/decode/write (and any socket stall)
REQUEST_SPANS = ("service.query", "service.ingest")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond_tail(count: int) -> int:
    """Samples above the nearest-rank ``TAIL_Q`` percentile of ``count``."""
    return count - math.ceil(TAIL_Q * count)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def latency_metrics(phase, kinds) -> "tuple[dict, dict]":
    """Per-kind p50/p90 (ms) and sample counts.

    A failed or wrong operation counts as missing every latency limit:
    it enters the percentiles at the whole phase's length.  A kind with
    too few samples for a p90 with ``MIN_BEYOND_TAIL`` beyond it is an
    error, not a quietly thinner tail.
    """
    out, counts = {}, {}
    miss = phase.wall_s
    for kind in kinds:
        values = [s.latency_s if s.ok else miss
                  for s in phase.samples if s.kind == kind]
        counts[kind] = len(values)
        if beyond_tail(len(values)) < MIN_BEYOND_TAIL:
            raise BenchError(
                f"{len(values)} {kind} samples leave {beyond_tail(len(values))} "
                f"beyond the p{TAIL_Q * 100:.0f}; it needs {MIN_BEYOND_TAIL}"
            )
        out[f"{kind}_p50_ms"] = metric(percentile(values, 0.5) * 1e3, "ms")
        out[f"{kind}_p90_ms"] = metric(percentile(values, TAIL_Q) * 1e3, "ms")
    return out, counts


def end_to_end(setups: list, phase, kinds, rss_at_ops: int) -> "tuple[dict, dict]":
    if phase.rss_ops != rss_at_ops:
        raise BenchError(
            f"the phase ended after {len(phase.samples)} ops, before the "
            f"{rss_at_ops} at which peak RSS is read"
        )
    ops = len(phase.samples)
    completed = sum(1 for s in phase.samples if s.ok)
    metrics = {"setup_s": metric(statistics.median(setups), "s")}
    metrics["qps"] = metric(completed / phase.wall_s, "1/s")
    latencies, counts = latency_metrics(phase, kinds)
    metrics.update(latencies)
    metrics["rss_mb"] = metric(phase.rss_mb, "MB")
    metrics["cpu_ms_per_op"] = metric(phase.cpu_s * 1e3 / ops, "ms")
    return metrics, counts


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run's spans
# ---------------------------------------------------------------------------


def read_spans(path: str) -> "tuple[list, list]":
    spans, gcs = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            (gcs if record[1] == "gc" else spans).append(record)
    return spans, gcs


def _per_request(spans: list, names) -> list:
    """Self time (ms) each request spent in the named spans; a span
    outside any request (start-up) counts as its own request."""
    by_request: dict = {}
    loose = []
    for tid, name, _start, _dur, self_s, _extra in spans:
        if name not in names:
            continue
        if tid:
            by_request[tid] = by_request.get(tid, 0.0) + self_s * 1e3
        else:
            loose.append(self_s * 1e3)
    return list(by_request.values()) + loose


def layer_breakdown(phase, spans: list) -> dict:
    """kind -> {"client": median client ms, layer -> median self ms}
    over that kind's measured ops, for the attribution table."""
    by_tid: dict = {}
    for tid, name, _start, dur, self_s, _extra in spans:
        if tid:
            by_tid.setdefault(tid, []).append((name, dur, self_s))
    table = {}
    for kind in sorted({s.kind for s in phase.samples}):
        rows = [s for s in phase.samples if s.kind == kind and s.ok]
        if not rows:
            continue
        parts: dict = {}
        for sample in rows:
            spent: dict = {}
            inside = 0.0
            for name, dur, self_s in by_tid.get(sample.trace_id, ()):
                if name in REQUEST_SPANS:
                    inside += dur
                    spent["(service self)"] = spent.get("(service self)", 0.0) + self_s
                else:
                    spent[name] = spent.get(name, 0.0) + self_s
            spent["service.http"] = sample.latency_s - inside
            for name, value in spent.items():
                parts.setdefault(name, []).append(value * 1e3)
        entry = {"client": statistics.median(s.latency_s * 1e3 for s in rows)}
        for name, values in parts.items():
            values += [0.0] * (len(rows) - len(values))
            entry[name] = statistics.median(values)
        table[kind] = entry
    return table


def per_layer(untraced, traced, spans: list, gcs: list, stores: dict) -> dict:
    measured = {s.trace_id: s for s in traced.samples}
    ops = len(traced.samples)
    queries = [s for s in traced.samples if s.kind != "ingest" and s.ok]
    metrics = {}

    inside: dict = {}
    for tid, name, _start, dur, _self, _extra in spans:
        if name in REQUEST_SPANS and tid in measured:
            inside[tid] = inside.get(tid, 0.0) + dur
    http = [(s.latency_s - inside.get(s.trace_id, 0.0)) * 1e3
            for s in traced.samples if s.ok]
    metrics["service.http_ms"] = metric(statistics.median(http), "ms")

    for name, span_names in LAYER_TIMES.items():
        values = _per_request(spans, span_names)
        if not values:
            raise BenchError(f"no spans for {name}: its layer never ran")
        metrics[name] = metric(statistics.median(values), "ms")

    records = [s for s in spans if s[1] == "obs.record"]
    metrics["obs.traced_frac"] = metric(
        sum(s[5] or 0 for s in records) / max(1, len(records)), "ratio")
    parse_calls = sum(1 for s in spans if s[1] == "engine.parse" and s[0] in measured)
    metrics["engine.parse_calls_per_op"] = metric(parse_calls / ops, "count")
    hits = sum(c["hits"] for c in stores["plan_cache"])
    lookups = hits + sum(c["misses"] for c in stores["plan_cache"])
    metrics["engine.plan_cache_hit_ratio"] = metric(hits / max(1, lookups), "ratio")
    metrics["engine.index_builds"] = metric(
        sum(1 for s in spans if s[1] == "engine.index_build"), "count")
    metrics["engine.index_hits_per_op"] = metric(
        sum(s.index_hits for s in queries) / max(1, len(queries)), "count")
    streamed = [s[5] for s in spans
                if s[1] == "service.encode" and s[5] is not None and s[0] in measured]
    metrics["engine.nodes_streamed_per_op"] = metric(
        sum(streamed) / max(1, len(queries)), "count")
    metrics["engine.history_len"] = metric(stores["history"], "count")

    def per_answer(span_name: str, kind: str) -> float:
        tids = {s.trace_id for s in queries if s.kind == kind}
        made = sum(s[5] or 0 for s in spans if s[1] == span_name and s[0] in tids)
        answers = sum(s.answer_size for s in queries if s.kind == kind)
        return made / max(1, answers)

    metrics["cq.tuples_per_answer"] = metric(per_answer("cq.materialize", "cq"), "count")
    metrics["datalog.clauses_per_answer"] = metric(
        per_answer("datalog.ground", "datalog"), "count")

    parsed = [s for s in spans if s[1] == "trees.parse_xml"]
    metrics["trees.parse_xml_mb_s"] = metric(
        sum(s[5] for s in parsed) / 1e6 / sum(s[3] for s in parsed), "MB/s")

    in_phase = [g for g in gcs if traced.start <= g[2] <= traced.end]
    metrics["runtime.gc_ms"] = metric(sum(g[3] for g in in_phase) * 1e3 / ops, "ms")
    metrics["runtime.gc_gen2"] = metric(sum(1 for g in in_phase if g[4] == 2), "count")

    untraced_qps = sum(1 for s in untraced.samples if s.ok) / untraced.wall_s
    traced_qps = sum(1 for s in traced.samples if s.ok) / traced.wall_s
    metrics["trace.overhead_ratio"] = metric(traced_qps / untraced_qps, "ratio")

    # what the summed layer self-times leave of the client median
    covered = {}
    for tid, name, _start, _dur, self_s, _extra in spans:
        # obs.record/retain run in the middleware, outside QueryService,
        # so they already sit inside the HTTP share
        if tid in measured and name not in REQUEST_SPANS and not name.startswith("obs."):
            covered[tid] = covered.get(tid, 0.0) + self_s
    client = [s.latency_s for s in traced.samples if s.ok]
    accounted = [(s.latency_s - inside.get(s.trace_id, 0.0))
                 + covered.get(s.trace_id, 0.0) for s in traced.samples if s.ok]
    metrics["trace.unaccounted_frac"] = metric(
        1.0 - statistics.median(accounted) / statistics.median(client), "ratio")
    return metrics


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def check_setup(samples: list) -> None:
    bad = [s for s in samples if not s.ok]
    if bad:
        raise BenchError(f"set-up query failed: {bad[0].kind}: {bad[0].error}")


def store_totals(server) -> dict:
    stores = server.get_json("/stores")["stores"]
    return {
        "history": sum(s["queries_served"] for s in stores),
        "plan_cache": [s["plan_cache"] for s in stores],
    }


def launch(fx, workdir: str, tag: str, traced: bool = False):
    from loadgen import Server, warm

    spans = os.path.join(workdir, f"spans-{tag}.jsonl") if traced else None
    server = Server(ROOT, fx, os.path.join(workdir, f"server-{tag}.log"), spans)
    try:
        server.wait_ready()
        samples = warm(server, fx, f"bench-{tag}-")
        setup_s = time.perf_counter() - server.started
        check_setup(samples)
    except BaseException:
        server.stop()
        raise
    return server, setup_s, spans


def run(args) -> dict:
    import workloads
    from loadgen import drive

    workdir = os.path.join(ROOT, ".servebench",
                           f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    fx = workloads.build(args.workload, args.seed, workdir)
    oracle_ok = True
    try:
        pairs = workloads.compute_reference(fx)
    except workloads.OracleMismatch as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        oracle_ok, pairs = False, 0
    kinds = sorted({op.kind for ops in fx.clients for op in ops},
                   key=workloads.KINDS.index)
    report = {"workload": args.workload, "oracle_pairs": pairs}
    if not oracle_ok:
        return {"report": report, "correct": False, "attempted": 1, "failed": 1,
                "metrics": {}, "provenance": provenance(args, fx, None)}

    if args.trace == 0:
        setups = []
        for k in range(SETUP_LAUNCHES):
            server, setup_s, _ = launch(fx, workdir, f"setup{k}")
            setups.append(setup_s)
            if k < SETUP_LAUNCHES - 1:
                server.stop(graceful=False)
        try:
            phase = drive(server, fx, args.seconds, "bench-run-")
        finally:
            server.stop()
        metrics, report["samples"] = end_to_end(setups, phase, kinds, fx.rss_at_ops)
        report["setup_s_each"] = setups
        phases = [phase]
    else:
        server, _setup, _ = launch(fx, workdir, "untraced")
        try:
            untraced = drive(server, fx, args.seconds, "bench-plain-")
        finally:
            server.stop()
        server, _setup, spans_path = launch(fx, workdir, "traced", traced=True)
        try:
            phase = drive(server, fx, args.seconds, "bench-traced-")
            stores = store_totals(server)
        finally:
            code = server.stop()
        if code != 0 or not os.path.exists(spans_path):
            raise BenchError(f"traced server exited with {code} and no spans")
        spans, gcs = read_spans(spans_path)
        metrics = per_layer(untraced, phase, spans, gcs, stores)
        report["samples"] = {k: sum(1 for s in phase.samples if s.kind == k)
                             for k in kinds}
        report["breakdown_ms"] = layer_breakdown(phase, spans)
        phases = [untraced, phase]
    samples = [s for p in phases for s in p.samples]
    failed = [s for s in samples if not s.ok]
    report["failures"] = sorted({f"{s.kind}: {s.error}" for s in failed})[:10]
    return {
        "report": report,
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
        "provenance": provenance(args, fx, server),
    }


def provenance(args, fx, server) -> dict:
    return {
        "server_argv": server.argv if server is not None else None,
        "server_env_scrubbed": server.scrubbed if server is not None else None,
        "server_env_set": {"PYTHONPATH": os.path.relpath(SRC, ROOT)},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "connections": len(fx.clients),
        "client_threads": len(fx.clients),
        "rss_read_at_ops": fx.rss_at_ops,
    }


def print_report(result: dict) -> None:
    report = result["report"]
    print(f"# workload {report['workload']}: {result['failed']} failed of "
          f"{result['attempted']} attempted; {report['oracle_pairs']} "
          "(document, query) pairs cross-checked")
    if "samples" in report:
        print(f"# samples per kind (beyond the p{TAIL_Q * 100:.0f}): " + ", ".join(
            f"{k}={n} ({beyond_tail(n)})" for k, n in report["samples"].items()))
    for name, m in sorted(result["metrics"].items()):
        print(f"{name:34s} {m['value']:12.4f} {m['unit']}")
    for kind, entry in report.get("breakdown_ms", {}).items():
        parts = sorted(((v, k) for k, v in entry.items() if k != "client"),
                       reverse=True)
        shown = ", ".join(f"{k} {v:.2f}" for v, k in parts if v >= 0.005)
        print(f"# {kind} client p50 {entry['client']:.2f} ms = {shown}")
    for line in report.get("failures", ()):
        print(f"# failure: {line}")
    print("# provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"servebench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("servebench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}; options: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        result = run(args)
    except Exception as exc:
        print(f"servebench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print_report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

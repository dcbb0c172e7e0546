"""Traced launcher: ``python3 launcher.py SPANS_OUT serve [serve flags...]``.

Starts the same ``repro serve`` command the untraced run starts, after
wrapping the public function of every layer the benchmark breaks a
request into.  Each wrap is installed where the caller looks the name
up (``encode_answer`` in ``repro.service.app``, ``ground`` in
``repro.datalog.evaluate``, each registered strategy in the registry
dict), so the server's own code is unchanged.  Spans stay in memory and
are written as JSON lines to ``SPANS_OUT`` when the server exits (the
benchmark stops it with SIGTERM, which ``repro serve`` turns into a
graceful drain and a normal return).

A span is ``[trace_id, name, start_s, duration_s, self_s, extra]``:
``trace_id`` is the request's ``X-Repro-Trace`` id (``None`` outside a
request, e.g. ``--store`` loading at start-up), ``self_s`` is the
duration minus the time covered by nested wrapped calls on the same
thread, and ``extra`` is a per-layer count (rows materialized, clauses
ground, bytes parsed, ...).  Timestamps are ``time.perf_counter()``,
which is CLOCK_MONOTONIC on Linux and so comparable with the
benchmark process's clock.  Garbage-collector pauses are recorded as
``["", "gc", start_s, duration_s, generation, collected]``.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import importlib
import json
import sys
import threading
import time

_SPANS: list = []
_LOCAL = threading.local()


def _ambient_trace_id(_args) -> "str | None":
    from repro.obs.context import current_trace_id

    return current_trace_id()


def _arg_trace_id(args) -> "str | None":
    # TraceSampler.record/retain(self, trace_id, ...) run outside the
    # request's observation context; the id is their first argument
    return args[1] if len(args) > 1 else None


def _wrap(name, fn, extra=None, trace_id=_ambient_trace_id):
    """``fn`` timed as span ``name``; ``extra(result, args)`` -> count."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        stack.append(0.0)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration = time.perf_counter() - start
            covered = stack.pop()
            if stack:
                stack[-1] += duration
            count = None
            if extra is not None and result is not None:
                count = extra(result, args)
            _SPANS.append(
                [trace_id(args), name, start, duration, duration - covered, count]
            )

    return timed


def _patch(owner, attr, name, extra=None, trace_id=_ambient_trace_id):
    setattr(owner, attr, _wrap(name, getattr(owner, attr), extra, trace_id))


def install() -> None:
    """Wrap every measured layer (see README.md for the layer map)."""
    # import_module, not attribute access: some packages re-export a
    # function under its module's name (repro.cq.yannakakis)
    mod = importlib.import_module
    app = mod("repro.service.app")
    strategies = mod("repro.engine.strategies")

    # repro.service
    _patch(app.QueryService, "query", "service.query")
    _patch(app.QueryService, "ingest", "service.ingest")
    _patch(mod("repro.service.resilience").AdmissionController, "admit", "service.admit")
    _patch(app, "validate_query_request", "service.validate")
    _patch(app, "encode_answer", "service.encode")
    _patch(app, "stats_payload", "service.encode",
           extra=lambda _r, args: args[0].nodes_streamed)
    # repro.obs
    _patch(mod("repro.obs.sampling").TraceSampler, "record", "obs.record",
           extra=lambda result, _a: int(bool(result)), trace_id=_arg_trace_id)
    _patch(mod("repro.obs.sampling").TraceSampler, "retain", "obs.retain",
           trace_id=_arg_trace_id)
    # repro.engine
    _patch(mod("repro.xpath.parser"), "parse_xpath", "engine.parse")
    _patch(mod("repro.twigjoin.pattern"), "parse_twig", "engine.parse")
    _patch(mod("repro.cq.query"), "parse_cq", "engine.parse")
    _patch(mod("repro.datalog.parser"), "parse_program", "engine.parse")
    _patch(mod("repro.engine.planner").Planner, "plan", "engine.plan")
    _patch(mod("repro.engine.index").DocumentIndex, "__init__", "engine.index_build")
    _patch(mod("repro.engine.columns").ColumnStore, "__init__", "engine.index_build")
    for kind, table in strategies.STRATEGIES.items():
        for sname, definition in list(table.items()):
            table[sname] = dataclasses.replace(
                definition,
                execute=_wrap(f"engine.execute.{sname}", definition.execute),
            )
    # algorithms
    _patch(mod("repro.cq.yannakakis"), "materialize_atom", "cq.materialize",
           extra=lambda result, _a: len(result[1]))
    _patch(mod("repro.datalog.evaluate"), "ground", "datalog.ground",
           extra=lambda result, _a: len(result.clauses))
    _patch(mod("repro.datalog.evaluate"), "minoux", "hornsat.minoux")
    _patch(mod("repro.storage.structural_join"), "stack_structural_join",
           "storage.structural_join")
    # trees and storage
    _patch(mod("repro.trees.xmlio"), "parse_xml", "trees.parse_xml",
           extra=lambda _r, args: len(args[0].encode("utf-8")))
    _patch(mod("repro.storage.diskstore"), "load_tree", "storage.load_tree")
    # runtime
    gc.callbacks.append(_gc_callback)


_GC_START = [0.0]


def _gc_callback(phase: str, info: dict) -> None:
    # collections hold the interpreter lock start to stop, so a
    # start/stop pair never interleaves with another one
    now = time.perf_counter()
    if phase == "start":
        _GC_START[0] = now
    else:
        start = _GC_START[0]
        _SPANS.append(
            ["", "gc", start, now - start, info.get("generation"), info.get("collected")]
        )


def write(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in list(_SPANS):
            fh.write(json.dumps(span))
            fh.write("\n")


def main(argv: "list[str]") -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: launcher.py SPANS_OUT serve [serve flags...]", file=sys.stderr)
        return 2
    from repro.cli import main as repro_main

    install()
    try:
        return repro_main(argv[1:])
    finally:
        write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

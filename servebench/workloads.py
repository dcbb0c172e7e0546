"""Seeded inputs for the served-query benchmark: documents, stores,
query texts, per-client request sequences and the answer oracle.

Everything here is a pure function of ``(workload, seed)``: the same
seed writes byte-identical fixture files and yields the same request
sequence for every client (``tests/test_determinism.py`` pins both).
The server under test receives only what this module generates.

Every workload issues all five operation types (``xpath``, ``twig``,
``cq``, ``datalog``, ``ingest``) so that every end-to-end metric and
every layer is measured on every workload; the workloads differ in
which documents carry which kinds, and so in which layer dominates.
See ``README.md`` for why each workload exists.  Stores that are read
are never written, so each read's reference answer is fixed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from repro.engine import Database
from repro.storage.diskstore import dump_tree
from repro.trees.xmlio import to_xml
from repro.workloads import deep_tree, wide_tree, xmark_like

KINDS = ("xpath", "twig", "cq", "datalog", "ingest")

#: two independent strategies per kind for the answer oracle; each pair
#: is applicable to every query text below (``Database.cross_check``
#: raises if one is not)
ORACLE_STRATEGIES = {
    "xpath": ("structural-join", "linear"),
    "twig": ("binary", "twigstack"),
    "cq": ("yannakakis", "backtracking"),
    "datalog": ("minoux", "naive"),
}


@dataclass(frozen=True)
class Query:
    """One query text (plus the datalog query predicate)."""

    kind: str
    text: str
    query_pred: "str | None" = None

    def body(self) -> dict:
        body = {"kind": self.kind, "query": self.text}
        if self.query_pred is not None:
            body["query_pred"] = self.query_pred
        return body


@dataclass(frozen=True)
class Op:
    """One request: a query against a store, or an ingest of a document."""

    kind: str
    store: str
    query: "Query | None" = None
    doc: "str | None" = None  # ingest: the document id PUT


@dataclass
class Fixtures:
    """A workload's generated inputs, ready to serve and to check."""

    name: str
    seed: int
    workdir: str
    #: store name -> (path of the preloaded .rtre, document id)
    preload: dict = field(default_factory=dict)
    #: document id -> XML bytes (ingest bodies)
    xml: dict = field(default_factory=dict)
    #: document id -> node count (the ingest response must report it)
    nodes: dict = field(default_factory=dict)
    #: (document id, kind, query text) -> reference answer
    reference: dict = field(default_factory=dict)
    #: per client: the op sequence it cycles through
    clients: list = field(default_factory=list)
    #: ops answered once during set-up (each distinct query per store)
    warmup: list = field(default_factory=list)
    #: completed-op count at which the server's peak RSS is read
    rss_at_ops: int = 0


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

#: document sizes; every kind gets enough samples per run for a p90
#: with at least ten samples beyond it.  The wide collection is small
#: so that cq/datalog kernels stay short next to the HTTP floor: longer
#: kernels made their p90s follow the host's CPU contention (README.md)
SPINE_DEPTH = 50_000
WIDE_SIBLINGS = 2_000
SIDE_ITEMS = 40
INBOX_ITEMS = 8
#: uniform think time between a client's requests: a few ms keeps the
#: two clients from phase-locking onto the server's timer-driven latencies
THINK_S = (0.0, 0.005)
#: seeded shuffles of its op block in each client's sequence; a client
#: that gets through them all starts over
ROUNDS = 400

SPINE_QUERIES = (
    Query("xpath", "Child*[lab() = mark]"),
    Query("xpath", "Child*[lab() = target]"),
    Query("twig", "//section/mark"),
)
WIDE_QUERIES = (
    Query("xpath", "Child*[lab() = hit]"),
    Query("twig", "/collection/hit"),
    Query("cq", "ans(y) :- Child(x, y), Lab:hit(y)"),
    Query("datalog", "Q(x) :- Lab:hit(x).", "Q"),
)
#: navigate's CQ/datalog, on a small auction document
SIDE_QUERIES = (
    Query("cq", "ans(p, n) :- Child(p, n), Lab:person(p), Lab:name(n)"),
    Query("datalog", "K(x) :- Lab:keyword(x).", "K"),
)


def _cycle(rng: random.Random, ops: list) -> list:
    """``ROUNDS`` seeded shuffles of ``ops``, concatenated."""
    out = []
    for _ in range(ROUNDS):
        block = list(ops)
        rng.shuffle(block)
        out.extend(block)
    return out


def _inbox_docs(fx: Fixtures, seed: int, count: int = 4) -> list:
    ids = []
    for k in range(count):
        doc = f"inbox{k}"
        tree = xmark_like(INBOX_ITEMS, seed=seed * 100 + k)
        fx.xml[doc] = to_xml(tree).encode("utf-8")
        fx.nodes[doc] = tree.n
        ids.append(doc)
    return ids


def _rotate_ingests(seq: list, inbox: list, offset: int = 0) -> list:
    """``seq`` with its i-th op, when an ingest, PUTting inbox document
    ``offset + i`` (mod the inbox), so each PUT parses other bytes."""
    return [
        Op("ingest", op.store, doc=inbox[(offset + i) % len(inbox)])
        if op.kind == "ingest" else op
        for i, op in enumerate(seq)
    ]


def _preload(fx: Fixtures, store: str, doc: str, tree) -> None:
    path = os.path.join(fx.workdir, f"{doc}.rtre")
    dump_tree(tree, path)
    fx.preload[store] = (path, doc)
    fx.nodes[doc] = tree.n


def build(workload: str, seed: int, workdir: str) -> Fixtures:
    """Generate and write one workload's inputs under ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; options: {', '.join(WORKLOADS)}"
        )
    os.makedirs(workdir, exist_ok=True)
    fx = Fixtures(workload, seed, workdir)
    rng = random.Random(f"{workload}:{seed}")
    WORKLOADS[workload](fx, seed, rng)
    return fx


def _navigate(fx: Fixtures, seed: int, rng: random.Random) -> None:
    """Two clients on a 50k-deep spine; CQ/datalog only on a small side
    document, ingests of small documents to a store nobody reads."""
    _preload(fx, "spine", "spine", deep_tree(SPINE_DEPTH, seed=seed))
    _preload(fx, "side", "side", xmark_like(SIDE_ITEMS, seed=seed))
    inbox = _inbox_docs(fx, seed)
    fx.warmup = [Op(q.kind, "spine", q) for q in SPINE_QUERIES] + [
        Op(q.kind, "side", q) for q in SIDE_QUERIES
    ]
    for client in range(2):
        # twig twice per round: its ~7 ms kernel spreads its latency
        # over several 4 ms timer ticks, so its tail needs more samples
        base = [Op(q.kind, "spine", q) for q in SPINE_QUERIES + SPINE_QUERIES[2:]]
        base += [Op(q.kind, "side", q) for q in SIDE_QUERIES]
        base.append(Op("ingest", f"inbox{client}"))
        fx.clients.append(_rotate_ingests(_cycle(rng, base), inbox, client))
    fx.rss_at_ops = 800


def _relational(fx: Fixtures, seed: int, rng: random.Random) -> None:
    """One client alternating CQ and datalog on a wide collection; a
    second, light client issues the cheap kinds (xpath, twig, small
    ingests) so every kind is reported."""
    _preload(fx, "wide", "wide", wide_tree(WIDE_SIBLINGS, seed=seed))
    inbox = _inbox_docs(fx, seed)
    fx.warmup = [Op(q.kind, "wide", q) for q in WIDE_QUERIES]
    heavy = [Op(q.kind, "wide", q) for q in WIDE_QUERIES[2:]]
    fx.clients.append(_cycle(rng, heavy))
    light = [Op(q.kind, "wide", q) for q in WIDE_QUERIES[:2]]
    light.append(Op("ingest", "inbox"))
    fx.clients.append(_rotate_ingests(_cycle(rng, light), inbox))
    fx.rss_at_ops = 500


WORKLOADS = {
    "navigate": _navigate,
    "relational": _relational,
}


# ---------------------------------------------------------------------------
# the answer oracle
# ---------------------------------------------------------------------------


class OracleMismatch(Exception):
    """Two strategies disagreed on a reference answer."""


def documents_queried(fx: Fixtures) -> dict:
    """document id -> the queries asked of it, over every op."""
    asked: dict = {}
    store_docs = {store: doc for store, (_p, doc) in fx.preload.items()}
    for op in list(fx.warmup) + [op for seq in fx.clients for op in seq]:
        if op.kind != "ingest":
            asked.setdefault(store_docs[op.store], {})[(op.kind, op.query.text)] = op.query
    return asked


def compute_reference(fx: Fixtures) -> int:
    """Fill ``fx.reference`` by cross-checking every (document, query)
    pair under two strategies; returns the number of pairs checked.

    Raises :class:`OracleMismatch` when the strategies disagree.
    """
    from repro.datalog.parser import parse_program
    from repro.storage.diskstore import load_tree

    paths = {doc: path for path, doc in fx.preload.values()}
    for doc, queries in sorted(documents_queried(fx).items()):
        db = Database(load_tree(paths[doc]))
        for (kind, text), query in sorted(queries.items()):
            parsed = text
            if kind == "datalog":  # the query predicate travels in the AST
                parsed = parse_program(text, query_pred=query.query_pred)
            results = db.cross_check(kind, parsed, list(ORACLE_STRATEGIES[kind]))
            answers = [r.answer for r in results.values()]
            if any(a != answers[0] for a in answers[1:]):
                raise OracleMismatch(
                    f"{doc}: {kind} {text!r}: strategies "
                    f"{list(results)} disagree"
                )
            fx.reference[(doc, kind, text)] = answers[0]
    return len(fx.reference)

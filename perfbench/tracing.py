"""Spans around the benchmark's calls into each layer of the library.

Nothing in ``src/`` is instrumented. A traced count replays the steps that
``count_answers`` hides (core, contract, hypergraph, decomposition, the
width-cap decision, then the DP or the brute-force fallback) through the
public functions, each inside a span named after its layer. A traced CLI
call runs ``cli.main`` for real, with the library functions it looks up in
its own module namespace wrapped for the duration of the call, so the
``cli`` span's self time is the command line's own work.

Spans stay in memory as (name, start, end, parent, op) and are written out
when the run ends. A layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

COUNT_ROOT = "counting.count_answers"
CLASSIFY = "counting.classify"
CLI = "cli"

# Layer spans whose busy time is reported, in report order.
LAYERS = (
    "cores",
    "counting.contract",
    "hypergraphs",
    "treewidth",
    "counting.dp",
    "homomorphisms.brute",
    CLASSIFY,
    "reductions",
    "parsing",
    CLI,
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.op = 0
        self.counts = Counter()
        self.max_width = {"treewidth": -1, "counting.dp": -1}

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else -1
        record = [name, time.perf_counter(), None, parent, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def self_times(self, root=None, scale=None):
        """Self time per span name.

        With ``root``, only spans in trees under a root span of that name.
        With ``scale(start, end)``, each tree's times are multiplied by the
        scale of its root span's interval.
        """
        n = len(self.spans)
        covered = [0.0] * n
        top = list(range(n))
        factor = [1.0] * n
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += end - start
                top[i] = top[parent]
                factor[i] = factor[parent]
            elif scale is not None:
                factor[i] = scale(start, end)
        busy = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if root is None or self.spans[top[i]][0] == root:
                busy[name] += (end - start - covered[i]) * factor[i]
        return busy

    def root_durations(self, name, scale=None):
        return [(end - start) * (scale(start, end) if scale else 1.0)
                for n, start, end, parent, _ in self.spans if n == name and parent < 0]

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]


def traced_count(tr, lib, q, db, cfg=None):
    """count_answers(q, db, cfg), step by step, one span per layer."""
    cq = lib.cq
    cfg = cfg or cq.CountingConfig()
    with tr.span(COUNT_ROOT):
        if cfg.mode == "brute":
            return traced_brute(tr, lib, q, db, cfg.hom)
        with tr.span("cores"):
            core = cq.core_of_query(q, cfg.hom)
        tr.counts["cores.removed_vars"] += len(q.structure.domain) - len(core.structure.domain)
        left, right = traced_contract(tr, lib, core, db, cfg)
        with tr.span("hypergraphs"):
            graph = cq.primal_graph(cq.hypergraph_of(left))
        with tr.span("treewidth"):
            td = cq.decompose(graph, cfg.exact_tw_threshold)
        tr.counts["treewidth.calls"] += 1
        tr.counts["treewidth.exact_calls"] += td.exactness == "exact"
        tr.max_width["treewidth"] = max(tr.max_width["treewidth"], td.width)
        if td.width > cfg.width_cap:
            if cfg.mode == "structural":
                raise cq.ResourceBudgetError("width over cap")
            if len(db.domain) ** len(q.free_vars) <= cfg.brute_cap:
                return traced_brute(tr, lib, q, db, cfg.hom)
            raise cq.ResourceBudgetError("width and brute-force caps exceeded")
        with tr.span("counting.dp"):
            result = cq.count_quantifier_free_td(left, right, td, cfg)
        tr.counts["counting.dp.bags"] += len(td.bags)
        tr.max_width["counting.dp"] = max(tr.max_width["counting.dp"], td.width)
        return result


def traced_contract(tr, lib, q, db, cfg):
    """contract_instance with its components, rows and candidates counted."""
    try:
        with tr.span("counting.contract"):
            left, right = lib.cq.contract_instance(q, db, cfg)
    except lib.cq.ResourceBudgetError:
        tr.counts["counting.contract.budget_errors"] += 1
        raise
    for name, arity in left.structure.vocabulary.symbols.items():
        if name.startswith("__comp_"):
            tr.counts["counting.contract.components"] += 1
            tr.counts["counting.contract.rows"] += len(right.relations[name])
            tr.counts["counting.contract.candidates"] += len(db.domain) ** arity
    return left, right


def traced_brute(tr, lib, *args):
    with tr.span("homomorphisms.brute"):
        result = lib.cq.count_answers_brute(*args)
    tr.counts["homomorphisms.brute.calls"] += 1
    return result


@contextlib.contextmanager
def traced_cli(tr, lib):
    """Wrap the library functions ``cli.main`` calls, for one call."""
    cli = lib.cli

    def spanned(name, fn):
        def call(*args, **kwargs):
            with tr.span(name):
                return fn(*args, **kwargs)
        return call

    def via_oracle(q, b, oracle, *rest):
        def counted(right):
            tr.counts["reductions.oracle_calls"] += 1
            return oracle(right)
        with tr.span("reductions"):
            return lib.cq.count_star_via_oracle(q, b, counted, *rest)

    wrappers = {
        "load_database": spanned("parsing", lib.cq.load_database),
        "parse_query": spanned("parsing", lib.cq.parse_query),
        "core_of_query": spanned("cores", lib.cq.core_of_query),
        "count_answers": functools.partial(traced_count, tr, lib),
        "count_answers_brute": functools.partial(traced_brute, tr, lib),
        "count_star_via_oracle": via_oracle,
    }
    saved = {name: getattr(cli, name) for name in wrappers if hasattr(cli, name)}
    for name in saved:
        setattr(cli, name, wrappers[name])
    try:
        with tr.span(CLI):
            yield
        tr.counts["cli.calls"] += 1
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)

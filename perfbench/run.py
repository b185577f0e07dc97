"""Seeded benchmark for exact answer counting.

Run from the root of a checkout:

    python3 perfbench/run.py --workload projection --seed 1 --seconds 30 --trace 0

The library is imported in-process from ``src/``; one process, one thread,
one workload per run. Set-up (imports, instance generation, writing the CLI
input files) is repeated and its median reported as ``setup_s``. The run
then cycles through the workload's operations until ``--seconds`` have
passed, checking every count against an independent oracle outside the
timed regions. A wrong count, a reduce-demo that does not print AGREE, or
any exception other than ResourceBudgetError ends the run with a non-zero
exit and no numbers.

Reported times are scaled to a nominal machine speed (see ``Reference``):
on a shared machine the speed of a core drifts by tens of percent within
seconds, which would otherwise swamp the differences between commits. The
unscaled end-to-end metrics are kept in the record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` the per-layer metrics of a
separate traced run (see ``tracing.py``). Either way a record with the
seed, the digest of the generated operations, nproc, the Python version
and the git commit goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import oracles
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
# Scaled times are in units where one reference sample takes this long.
REFERENCE_MS = 6.0


class Reference:
    """A fixed pure-Python job, timed all through a run to track machine speed.

    The job is ``oracles.join_count`` of the all-free 4-arc path over a fixed
    30-vertex digraph: dicts, sets, tuples and recursion like the library,
    but no library code, so no change to the library can move it. On a
    shared machine the speed of one core drifts by tens of percent within
    seconds; dividing each call's time by the mean job time of the samples
    around it removes most of that drift from the reported times.
    """

    EVERY_S = 0.25
    NEIGHBOURS = 3  # samples taken into the mean on each side of a call

    def __init__(self):
        rng = random.Random(0)
        elements = tuple(f"r{i}" for i in range(30))
        arcs = set()
        while len(arcs) < 90:
            image = list(elements)
            rng.shuffle(image)
            arcs.update(list(zip(elements, image))[: 90 - len(arcs)])
        vs = [f"v{i}" for i in range(5)]
        self.db = SimpleNamespace(domain=elements, relations={"E": frozenset(arcs)})
        self.query = SimpleNamespace(
            structure=SimpleNamespace(relations={"E": set(zip(vs, vs[1:]))}), free_vars=tuple(vs))
        self.starts = []
        self.times = []
        self.due = 0.0

    def sample(self, repeat=1):
        for _ in range(repeat):
            start = time.perf_counter()
            oracles.join_count(self.query, self.db)
            end = time.perf_counter()
            self.starts.append(start)
            self.times.append(end - start)
        self.due = end + self.EVERY_S

    def tick(self):
        if time.perf_counter() >= self.due:
            self.sample()

    def scale(self, start, end):
        """Reference time over the mean job time of the samples around [start, end]."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        window = self.times[max(0, i - self.NEIGHBOURS):j + self.NEIGHBOURS]
        return REFERENCE_MS / 1000 / statistics.fmean(window)


class GateError(Exception):
    """The library produced a wrong answer; no numbers may be published."""


def load_library():
    """Import cqcount afresh from the checkout's src/ (part of set-up)."""
    for name in [m for m in sys.modules if m == "cqcount" or m.startswith("cqcount.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    return SimpleNamespace(
        cq=importlib.import_module("cqcount"),
        cli=importlib.import_module("cqcount.cli"),
        gen=importlib.import_module("cqcount.generators"),
    )


def setup(workload, seed, ref):
    """Set up SETUP_REPEATS times; keep the last, report the median scaled time."""
    spans = []
    lib = ops = None
    for _ in range(SETUP_REPEATS):
        lib = ops = None
        gc.collect()  # so the previous pool is not freed inside the next timing
        ref.sample(ref.NEIGHBOURS)
        start = time.perf_counter()
        lib = load_library()
        ops = workloads.build(workload, seed, lib, OUT_DIR / "work" / workload)
        spans.append((start, time.perf_counter()))
    ref.sample(ref.NEIGHBOURS)
    raw = statistics.median(end - start for start, end in spans)
    scaled = statistics.median((end - start) * ref.scale(start, end) for start, end in spans)
    return raw, scaled, lib, ops


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def run_cli(lib, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = lib.cli.main(list(argv))
    return status, out.getvalue().split()


def check_cli(op, status, words):
    """True if answered, False on a budget refusal (exit 2); raise if wrong."""
    if status == 2:
        return False
    if status != 0 or not words:
        raise GateError(f"{op.label}: cqcount exited {status}")
    if op.oracle is None:
        if words[-1] != "AGREE":
            raise GateError(f"{op.label}: reduce-demo printed {words[-1]!r}, not AGREE")
    elif words[-1] != str(op.expected()):
        raise GateError(f"{op.label}: cqcount printed {words[-1]}, expected {op.expected()}")
    return True


def check_count(op, got):
    if got != op.expected():
        raise GateError(f"{op.label}: count {got}, expected {op.expected()}")


def check_probe(lib, op, tr):
    """contract_instance on an over-cap star: a legitimate refusal or the exact rows."""
    cfg = lib.cq.CountingConfig()
    try:
        _, right = tracing.traced_contract(tr, lib, op.query, op.db, cfg)
    except lib.cq.ResourceBudgetError:
        leaves = len(op.query.free_vars)
        if len(op.db.domain) ** leaves <= cfg.hom.enumeration_cap:
            raise GateError(f"{op.label}: refused although within the enumeration cap")
        return
    rows = sum(len(ts) for name, ts in right.relations.items() if name.startswith("__comp_"))
    if rows != op.expected():
        raise GateError(f"{op.label}: projection has {rows} rows, expected {op.expected()}")


def measure(lib, ops, seconds, ref, tr=None):
    """Cycle through ops for ``seconds``, and until every kind of call has run once.

    Returns (start, kind, label, latency) per call. A call refused with ResourceBudgetError has infinite latency. Over-cap
    probes run only when traced (tr is a Tracer).
    """
    refused = lib.cq.ResourceBudgetError
    trail = []
    kinds = {op.kind for op in ops} - {workloads.PROBE}
    seen = set()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or seen != kinds:
        ref.tick()
        op = ops[i % len(ops)]
        i += 1
        if tr is not None:
            tr.op = i
        if op.kind == workloads.PROBE:
            if tr is not None:
                check_probe(lib, op, tr)
            continue
        ok = True
        start = time.perf_counter()
        if op.kind == workloads.COUNT:
            try:
                if tr is None:
                    got = lib.cq.count_answers(op.query, op.db)
                else:
                    got = tracing.traced_count(tr, lib, op.query, op.db)
            except refused:
                ok = False
            elapsed = time.perf_counter() - start
            if ok:
                check_count(op, got)
        elif op.kind == workloads.CLASSIFY:
            if tr is None:
                lib.cq.classify(op.query)
            else:
                with tr.span(tracing.CLASSIFY):
                    lib.cq.classify(op.query)
            elapsed = time.perf_counter() - start
        else:
            if tr is None:
                status, words = run_cli(lib, op.argv)
            else:
                with tracing.traced_cli(tr, lib):
                    status, words = run_cli(lib, op.argv)
            elapsed = time.perf_counter() - start
            ok = check_cli(op, status, words)
        trail.append((start, op.kind, op.label, elapsed if ok else math.inf))
        seen.add(op.kind)
    ref.sample(ref.NEIGHBOURS)
    return trail, i


def end_to_end(trail, setup_s, seconds):
    """The untraced metrics. A refused call's infinite latency reads as the whole window."""
    lat = defaultdict(list)
    for _, kind, _, elapsed in trail:
        lat[kind].append(elapsed)

    def ms(value):
        return 1000 * (value if math.isfinite(value) else seconds)

    counts = lat[workloads.COUNT]
    answered = [x for x in counts if math.isfinite(x)]
    return {
        "instances_per_s": len(answered) / sum(answered) if answered else 0.0,
        "latency_p50_ms": ms(percentile(counts, 0.50)),
        "latency_p90_ms": ms(percentile(counts, 0.90)),
        "latency_p99_ms": ms(percentile(counts, 0.99)),
        "classify_p50_ms": ms(percentile(lat[workloads.CLASSIFY], 0.50)),
        "cli_p50_ms": ms(percentile(lat[workloads.CLI], 0.50)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(tr, ops_run, ref):
    """The traced metrics: scaled layer self time and counters per operation run."""
    busy = tr.self_times(scale=ref.scale)
    c = tr.counts
    metrics = {f"{layer}.busy_s": busy.get(layer, 0.0) / ops_run for layer in tracing.LAYERS}
    per_op = [
        "cores.removed_vars", "counting.contract.components", "counting.contract.rows",
        "counting.contract.candidates", "treewidth.calls", "treewidth.exact_calls",
        "counting.dp.bags", "homomorphisms.brute.calls", "reductions.oracle_calls",
    ]
    metrics.update({name: c[name] / ops_run for name in per_op})
    candidates = c["counting.contract.candidates"]
    metrics["counting.contract.hit_ratio"] = c["counting.contract.rows"] / candidates if candidates else 1.0
    metrics["counting.contract.budget_errors"] = c["counting.contract.budget_errors"]
    metrics["treewidth.max_width"] = tr.max_width["treewidth"]
    metrics["counting.dp.max_width"] = tr.max_width["counting.dp"]
    metrics["cli.calls"] = c["cli.calls"]
    counted = tr.root_durations(tracing.COUNT_ROOT, scale=ref.scale)
    metrics["trace.instances_per_s"] = len(counted) / sum(counted) if counted else 0.0
    return metrics


def count_breakdown(tr, ref):
    """Scaled self time per layer inside count_answers replays (not CLI or classify)."""
    busy = tr.self_times(tracing.COUNT_ROOT, scale=ref.scale)
    total = sum(busy.values()) or 1.0
    return {name: {"self_s": s, "share": s / total} for name, s in sorted(busy.items())}


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cqcount" / "__init__.py").is_file():
        print(f"error: no cqcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("CQCOUNT_BUDGET", None)
    units = declared_metrics(args.trace)

    ref = Reference()
    raw_setup_s, setup_s, lib, ops = setup(args.workload, args.seed, ref)
    tr = tracing.Tracer() if args.trace else None
    try:
        trail, ops_run = measure(lib, ops, args.seconds, ref, tr)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    if tr:
        metrics = per_layer(tr, ops_run, ref)
    else:
        scaled = [(t, kind, label, e * ref.scale(t, t + e) if math.isfinite(e) else e)
                  for t, kind, label, e in trail]
        metrics = end_to_end(scaled, setup_s, args.seconds)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    counts = [e for _, kind, _, e in trail if kind == workloads.COUNT]
    by_label = defaultdict(list)
    for _, kind, label, elapsed in trail:
        if kind == workloads.COUNT:
            by_label[label].append(elapsed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": workloads.digest(ops),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "samples": dict(sorted(Counter(kind for _, kind, _, _ in trail).items())),
        "failed_frac": sum(1 for x in counts if not math.isfinite(x)) / max(1, len(counts)),
        "pool_wrapped": ops_run > len(ops),
        "reference_ms": 1000 * statistics.median(ref.times),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "unscaled": None if tr else end_to_end(trail, raw_setup_s, args.seconds),
        "count_p50_ms_by_label": {
            label: 1000 * statistics.median(v) for label, v in sorted(by_label.items())
        },
        "trail": [(round(t - trail[0][0], 6), kind, e if math.isfinite(e) else None)
                  for t, kind, _, e in trail],
        "reference_samples": [(round(t - trail[0][0], 6), d) for t, d in zip(ref.starts, ref.times)],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    if tr:
        record["count_breakdown"] = count_breakdown(tr, ref)
        untraced = Path(f"{stem}-trace0.json")
        if untraced.exists():
            base = json.loads(untraced.read_text())["metrics"]["instances_per_s"]["value"]
            traced = metrics["trace.instances_per_s"]
            record["trace_overhead"] = {"untraced_instances_per_s": base,
                                        "traced_instances_per_s": traced,
                                        "difference": base - traced}
        Path(f"{stem}-spans.json").write_text(json.dumps(tr.dump()))
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    for key in ("digest", "samples", "failed_frac", "pool_wrapped", "reference_ms"):
        print(f"{key}: {record[key]}")
    for name, m in sorted(record["metrics"].items()):
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    if tr:
        for name, b in record["count_breakdown"].items():
            print(f"count self time {name:32s} {b['self_s']:10.4f} s {100 * b['share']:6.1f}%")
    failed = sum(1 for *_, e in trail if not math.isfinite(e))
    print(json.dumps({"correct": True, "attempted": len(trail), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    # cqcount.generators.redundant_variant draws random numbers while it
    # iterates over a set of variable names, whose order follows the
    # per-process string hash seed. Fix the seed, so that a benchmark seed
    # always gives the same instances (and digest).
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())

"""Summarise the run records in perfbench/out/ as JSON on stdout.

    python3 perfbench/summarize.py > summary.json

Only records of runs as long as BENCHMARK.json's run_seconds are read.
For each workload and each metric: the values by seed, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the interquartile distance as a share of the median. It also lists every
distinct digest, commit, nproc and Python version. Traced records add the
median self-time share of each layer inside ``count_answers``, and the
tracing overhead where the untraced record of the same seed exists.
``perfbench/baseline.json`` is this summary taken at the seed commit.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def describe(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def summarize(records):
    groups = defaultdict(list)
    for r in records:
        groups[(r["workload"], r["trace"])].append(r)
    summary = {}
    for (workload, trace), runs in sorted(groups.items()):
        runs.sort(key=lambda r: r["seed"])
        entry = {
            "seeds": [r["seed"] for r in runs],
            "seconds": sorted({r["seconds"] for r in runs}),
            "commit": sorted({str(r["commit"]) for r in runs}),
            "nproc": sorted({r["nproc"] for r in runs}),
            "python": sorted({r["python"] for r in runs}),
            "digests": {r["seed"]: r["digest"] for r in runs},
            "samples": {kind: describe([r["samples"].get(kind, 0) for r in runs])["median"]
                        for kind in runs[0]["samples"]},
            "metrics": {name: dict(describe([r["metrics"][name]["value"] for r in runs]),
                                   unit=m["unit"])
                        for name, m in runs[0]["metrics"].items()},
        }
        if trace:
            layers = {name for r in runs for name in r["count_breakdown"]}
            entry["count_self_share"] = {
                name: statistics.median(r["count_breakdown"].get(name, {"share": 0.0})["share"]
                                        for r in runs)
                for name in sorted(layers)
            }
            overhead = [r["trace_overhead"]["difference"] for r in runs if "trace_overhead" in r]
            if overhead:
                entry["trace_overhead_instances_per_s"] = describe(overhead)
        summary.setdefault(workload, {})["traced" if trace else "untraced"] = entry
    return summary


def main():
    seconds = json.loads((OUT_DIR.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
    records = [json.loads(p.read_text()) for p in sorted(OUT_DIR.glob("*-trace[01].json"))]
    records = [r for r in records if r["seconds"] == seconds]
    if not records:
        print(f"no run records in {OUT_DIR}", file=sys.stderr)
        return 1
    json.dump(summarize(records), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

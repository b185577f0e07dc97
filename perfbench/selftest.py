"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

On one-second runs it checks that
1. the benchmark command runs on every workload, traced and untraced, and
   its last line names every metric BENCHMARK.json declares, with its unit;
2. a wrong expected count, injected here into the benchmark's own oracle
   for plain counts and then for CLI calls, trips the correctness gate:
   non-zero exit and no result line;
3. in a directory holding only BENCHMARK.json and the benchmark, the
   command fails without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SECONDS = "1"


def command(workload, trace):
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]


def check_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in sorted(workloads.WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(command(workload, trace), cwd=ROOT,
                                  capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, sorted(set(got) ^ set(want)))
            print(f"PASS metrics {workload} trace={trace}")


def check_gate(kind):
    """Off-by-one expected counts on ops of ``kind`` must fail the run."""
    honest = workloads.Op.expected

    def wrong(op):
        return honest(op) + (1 if op.kind == kind else 0)

    workloads.Op.expected = wrong
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run.main(["--workload", "projection", "--seed", "7",
                               "--seconds", SECONDS, "--trace", "0"])
    finally:
        workloads.Op.expected = honest
    assert status != 0 and "correctness gate failed" in err.getvalue(), err.getvalue()
    assert '"correct"' not in out.getvalue(), "numbers were published past the gate"
    print(f"PASS gate trips on a wrong expected result for {kind} calls")


def check_bare_directory():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(command("small_mixed", 0), cwd=bare,
                              capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and "no cqcount sources" in proc.stderr, proc.stderr
    assert '"correct"' not in proc.stdout, proc.stdout
    print("PASS fails without the program's sources")


def main():
    check_metrics()
    check_gate(workloads.COUNT)
    check_gate(workloads.CLI)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())

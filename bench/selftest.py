"""Self-test of the benchmark itself, at tiny size (about 25 s).

    python3 bench/selftest.py        # from the repository root

Checks that BENCHMARK.json names exactly the workloads the benchmark
defines; that run.py on the tiny workload prints, untraced and traced, a
last line with exactly the result keys and every metric BENCHMARK.json
lists, with its unit; that the reference check tells a reordered-reduction
drift from a wrong value; and that run.py fails without printing a result
where there is no program to run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import check
import metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".bench_work" / "selftest"


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workloads(errors: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS) - {"tiny"}:
        errors.append(f"BENCHMARK.json workloads {sorted(names)}")


def check_run(trace: int, errors: list[str]) -> None:
    proc = run_bench(ROOT, trace)
    if proc.returncode != 0:
        errors.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"trace {trace}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        errors.append(f"trace {trace}: not correct: {proc.stderr[-2000:]}")
    expected = metrics.units("per_layer" if trace else "end_to_end")
    printed = result["metrics"]
    if set(printed) != set(expected):
        errors.append(f"trace {trace}: metrics {sorted(set(printed) ^ set(expected))}")
    for name, unit in expected.items():
        entry = printed.get(name, {})
        if entry.get("unit") != unit or not isinstance(
                entry.get("value"), (int, float)) or not math.isfinite(
                entry["value"]):
            errors.append(f"trace {trace}: {name} printed as {entry}")


def check_tolerance(errors: list[str]) -> None:
    ref, run = SCRATCH / "ref", SCRATCH / "run"
    for d in (ref, run):
        d.mkdir(parents=True)
        (d / "report.json").write_text(
            '{"verdicts": [{"name": "v", "passed": true}]}')
    (ref / "t.csv").write_text("h,norm,flag\n0.5,0.79639401823091271,true\n")
    for norm, ok in (("0.79639401823091282", True),     # ~1e-16 relative
                     ("0.79639401823172271", True),     # ~1e-12 relative
                     ("0.79639481462493094", False)):   # ~1e-6 relative
        (run / "t.csv").write_text(f"h,norm,flag\n0.5,{norm},true\n")
        if (check.reference_mismatch(run, ref) is None) != ok:
            errors.append(f"reference check wrong for norm {norm}")


def check_bare_directory(errors: list[str]) -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("run.py printed a result without a program to run")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    errors: list[str] = []
    check_workloads(errors)
    check_tolerance(errors)
    check_bare_directory(errors)
    for trace in (0, 1):
        check_run(trace, errors)
    for line in errors:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""quasilab benchmark: run a workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Everything the run writes goes under
.bench_work/<workload>/.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the line before it is
the environment record.  See bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import py_compile
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import check
import metrics
from workloads import BLAS_THREAD_VARS, DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env(root: Path, settings: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(settings)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def run_worker(root: Path, env: dict[str, str], args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")] + args, cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, env: dict[str, str], seed: int, blas: dict) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), **blas,
            "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS", "unset"),
            "QUASILAB_THREADS": env.get("QUASILAB_THREADS", "unset"),
            "git_commit": git_commit(root), "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the first pass as the reference "
                             f"(seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "quasilab" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no src/quasilab; run from the "
                         f"repository root")
    if args.write_reference and args.seed != DEFAULT_SEED:
        raise BenchError(f"references are stored for seed {DEFAULT_SEED}")
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    configs = workload.write_configs(root, args.seed, work / "configs")
    names = [str(p) for p in configs]
    env = worker_env(root, workload.env)

    def setup_probes(count: int) -> list[float]:
        return [run_worker(root, env, ["setup"] + names)["setup_s"]
                for _ in range(count)]

    # The host has slow phases that last tens of seconds.  Half the set-up
    # probes run before the passes and half after, so that they span the
    # run; their median then moves less from run to run.
    if not args.trace:
        # Byte-compile first, so that no probe pays for it.
        compileall.compile_dir(
            root / "src" / "quasilab", quiet=1,
            invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
        probes = setup_probes(SETUP_PROBES // 2)
    out = work / "out"
    trace_args = ["--trace", "--spans", str(work / "spans.json")]
    result = run_worker(root, env, ["run", "--out", str(out), "--seconds",
                                    str(args.seconds)]
                        + (trace_args if args.trace else []) + names)
    passes = result["passes"]
    if not args.trace:
        probes += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)

    if args.write_reference:
        for run in passes[0]["runs"]:
            dest = REFERENCE / run["stem"]
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(out / "pass0" / run["stem"], dest)
    ref = REFERENCE if workload.compares_reference(args.seed) else None
    failed = check.failures(passes, out, ref)
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = sum(len(p["runs"]) for p in passes)

    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = metrics.layer_metrics(
            [p["layers"] for p in passes], result["setup_layers"],
            [p["wall_s"] for p in passes], len(failed) / attempted)
    else:
        values = {"setup_s": statistics.median(probes),
                  "wall_s": statistics.median(p["wall_s"] for p in passes),
                  "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                  "peak_rss_mb": result["peak_rss_mb"]}
    summary = {"correct": not failed, "attempted": attempted,
               "failed": len(failed),
               "metrics": {name: {"value": values[name], "unit": unit}
                           for name, unit in metrics.units(kind).items()}}
    env_record = environment(root, env, args.seed, result["blas"])
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "environment": env_record,
         "summary": summary, "setup_probes_s": None if args.trace else probes,
         "setup_s_worker": result["setup_s"],
         "passes": passes, "failures": failed}, indent=1) + "\n")
    print("environment " + json.dumps(env_record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"bench error: {err}", file=sys.stderr)
        sys.exit(2)

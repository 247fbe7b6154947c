"""Run quasilab's entry path over a list of configs in a fresh process.

    worker.py setup CONFIG...                 time set-up only
    worker.py run --out DIR --seconds S [--trace] [--spans FILE] CONFIG...

Set-up is what every CLI invocation pays: importing ``quasilab.cli``,
filling the lazy caches (``make_mother_wavelet``) and parsing the configs.
A pass is ``parse_config`` then ``run_experiment`` for each config, which
writes ``report.json`` and the CSVs under DIR/pass<i>/<config stem>/.
Passes repeat until the next one would end past S seconds, at least two.
With --trace, every pass is traced.

The last line of stdout is one JSON object with the results.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import quasilab.cli  # noqa: E402,F401  (the import every invocation pays)
from quasilab import experiments, wavelets  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402


def blas_info() -> dict:
    """Versions and the runtime OpenBLAS thread count of this process."""
    import numpy
    import scipy
    info = {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": "unknown", "openblas_threads": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):    # numpy < 1.26 prints its config only
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["openblas_threads"] = fn()
                return info
    return info


def run_pass(configs: list[Path], out: Path, tracer) -> dict:
    runs = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    with tracer.span("pass") if tracer else nullcontext():
        for path in configs:
            run = {"stem": path.stem, "passed": False, "error": None}
            try:
                cfg = experiments.parse_config(path)
                result = experiments.run_experiment(cfg, out / path.stem)
                run["passed"] = result.passed
            except Exception as err:   # a refusal or crash fails this run only
                traceback.print_exc(file=sys.stderr)
                run["error"] = f"{type(err).__name__}: {err}"
            runs.append(run)
    return {"wall_s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - cpu0, "runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("configs", nargs="+", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    tracer = spans.Tracer() if args.trace else None
    with tracer.active() if tracer else nullcontext():
        wavelets.make_mother_wavelet()
        for path in args.configs:
            experiments.parse_config(path)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if args.mode == "run":
        setup_spans = len(tracer.spans) if tracer else 0
        deadline = time.perf_counter() + args.seconds
        passes = []
        while True:
            first = len(tracer.spans) if tracer else 0
            with tracer.active() if tracer else nullcontext():
                p = run_pass(args.configs, args.out / f"pass{len(passes)}",
                             tracer)
            if tracer:
                p["layers"] = metrics.pass_layer_values(
                    spans.layer_totals(tracer.spans[first:]))
            passes.append(p)
            if len(passes) >= 2 and (time.perf_counter() + p["wall_s"]
                                     > deadline):
                break
        result.update(
            passes=passes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            blas=blas_info())
        if tracer:
            result["setup_layers"] = spans.layer_totals(
                tracer.spans[:setup_spans])
            args.spans.write_text(json.dumps(
                [s.row() for s in tracer.spans]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

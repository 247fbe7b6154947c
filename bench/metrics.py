"""Metric names and units, and how per-layer metrics come from layer totals.

The names and units are those BENCHMARK.json lists.  Per-layer names are
<layer span name>.<field>; calls and the work counts are computed from call
arguments and return values, so they repeat exactly.  The trace.* metrics
are trace.wall_s (traced pass wall time), trace.self_sum_s (the sum of all
layer self times in that pass) and trace.overhead_s (time spent in the
tracer's own wrappers in that pass, measured inside them).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under kind
    ("end_to_end" or "per_layer")."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def pass_layer_values(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its layer totals."""
    values = {}
    for name in units("per_layer"):
        layer, _, key = name.rpartition(".")
        if layer in totals:
            values[name] = totals[layer].get(key, 0)
    cut = totals.get("quasimode.build_cutoff", {})
    if cut.get("grid_columns"):
        values["quasimode.build_cutoff.column_yield"] = (
            cut["columns"] / cut["grid_columns"])
    values["trace.self_sum_s"] = sum(t["self_s"] for name, t in totals.items()
                                     if name != "pass")
    values["trace.overhead_s"] = sum(t.get("overhead_s", 0.0)
                                     for t in totals.values())
    return values


def median_values(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise low median (an observed value) over passes; missing is 0."""
    names = set().union(*per_pass)
    return {n: statistics.median_low(p.get(n, 0) for p in per_pass)
            for n in names}


def layer_metrics(traced: list[dict[str, float]], setup: dict, traced_walls,
                  fail_frac: float) -> dict[str, float]:
    """Every per-layer metric, 0 for a layer the workload never calls."""
    values = median_values(traced)
    values["wavelets.make_mother_wavelet.s"] = setup.get(
        "wavelets.make_mother_wavelet", {}).get("self_s", 0.0)
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["fail_frac"] = fail_frac
    return {name: values.get(name, 0) for name in units("per_layer")}

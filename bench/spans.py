"""Outside-in layer tracing: spans around calls into quasilab's public functions.

The tracer replaces each traced function in every quasilab module namespace
that holds it (``experiments`` imports ``build_cutoff`` by name, so patching
``quasimode`` alone would miss the runner's calls) and restores the
originals on exit.  Nothing under ``src/`` changes.

A span records name, parent, thread, start and end (``perf_counter``), the
thread CPU time spent inside it (``thread_time``), work counts computed
from the call's arguments and return value, and the time its wrapper spent
outside the wrapped call (``overhead_s``), which is the tracer's own cost.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

# Exceptions by which a quasilab module refuses an under-resolved or
# truncated answer; a span that ends in one counts as refused.
REFUSALS = ("ResolutionError", "EmptySupportError", "BoxTooSmallError",
            "TailDominanceError")


def _cutoff(qm):
    return getattr(qm, "cutoff", qm)


@dataclass(frozen=True)
class Layer:
    """A traced function and the work counts derived from one call."""

    module: str
    function: str
    count: Callable[[dict, object], dict] | None = None
    name: Callable[[dict], str] | None = None   # span name from arguments

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.function}"


LAYERS = (
    Layer("quasimode", "synthesize_on_axes",
          count=lambda a, r: {"terms": len(a["field"].col_count)
                              * math.prod(ax.points for ax in a["axes"])},
          name=lambda a: f"quasimode.synthesize_on_axes.{len(a['axes'])}d"),
    Layer("quasimode", "verify_joint_quasimode",
          count=lambda a, r: {"cells": _cutoff(a["qm"]).cell_count}),
    Layer("quasimode", "build_cutoff",
          count=lambda a, r: {"columns": len(r.col_count),
                              "grid_columns": math.prod(
                                  ax.points for ax in r.axes[1:])}),
    Layer("analysis", "lp_norm",
          count=lambda a, r: {"cells": int(a["values"].size)}),
    Layer("analysis", "fit_scaling"),
    Layer("wavelets", "cwt",
          count=lambda a, r: {"coefficients": sum(v.size for v in r.values)}),
    Layer("wavelets", "decay_diagnostic"),
    Layer("wavelets", "make_mother_wavelet"),
    Layer("oscint", "evaluate",
          count=lambda a, r: {"points": r.points_per_axis ** a["integrand"].d}),
    Layer("oscint", "vdc_check"),
    Layer("oscint", "ttstar_kernel"),
    Layer("grids", "ft_axis", count=lambda a, r: {"points": int(a["data"].size)}),
    Layer("fio", "flattening_reports"),
    Layer("symbols", "contact_profile"),
    Layer("experiments", "parse_config"),
    Layer("experiments", "run_experiment"),
    Layer("experiments", "write_csv",
          count=lambda a, r: {"bytes": os.path.getsize(a["path"])}),
)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    cpu: float
    counts: dict = field(default_factory=dict)

    def row(self) -> list:
        return [self.sid, self.parent, self.name, self.thread, self.start,
                self.end, self.cpu, self.counts]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the block; yields the span's counts dict to fill."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        counts: dict = {}
        c0, t0 = time.thread_time(), time.perf_counter()
        try:
            yield counts
        finally:
            t1, c1 = time.perf_counter(), time.thread_time()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, threading.get_ident(),
                                       t0, t1, c1 - c0, counts))

    def adopt(self, fn):
        """fn run on a pool thread gets the caller's current span as parent."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        owner = threading.get_ident()

        def run(*args):
            if threading.get_ident() == owner:
                return fn(*args)
            self._local.stack = [parent]
            try:
                return fn(*args)
            finally:
                self._local.stack = []
        return run

    def _wrap(self, layer: Layer, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            w0 = time.perf_counter()
            bound = sig.bind(*args, **kwargs).arguments
            name = layer.name(bound) if layer.name else layer.qualname
            with self.span(name) as counts:
                f0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except Exception as err:
                    if type(err).__name__ in REFUSALS:
                        counts["refused"] = 1
                    raise
                f1 = time.perf_counter()
            # Counted after the span closes so the counting is not timed.
            if layer.count:
                counts.update(layer.count(bound, result))
            # The wrapper's own time: binding, span bookkeeping, counting.
            # Nested wrappers' time lies inside f1 - f0, so each is counted
            # once.
            counts["overhead_s"] = time.perf_counter() - w0 - (f1 - f0)
            return result
        return traced

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "quasilab" or name.startswith("quasilab.")]
        try:
            for layer in LAYERS:
                home = sys.modules.get(f"quasilab.{layer.module}")
                original = getattr(home, layer.function, None)
                if original is None:
                    continue
                wrapped = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
            experiments = sys.modules.get("quasilab.experiments")
            pool_map = getattr(experiments, "_map", None)
            if pool_map is not None:
                # Sweep points run on pool threads; give their spans the
                # runner's span as parent.
                self._patch(experiments, "_map",
                            lambda fn, items: pool_map(self.adopt(fn), items))
            yield self
        finally:
            while self._patches:
                module, attr, value = self._patches.pop()
                setattr(module, attr, value)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, wait_s and summed counts.

    Self time is a span's duration minus the part of it its child spans
    cover (children on pool threads included); wait time is its duration
    minus the CPU time its own thread spent inside it.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end))
                for lo, hi in children.get(s.sid, ()) if hi > s.start and lo < s.end]
        t = totals.setdefault(s.name, {"calls": 0, "self_s": 0.0, "wait_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (s.end - s.start) - _covered(kids)
        t["wait_s"] += (s.end - s.start) - s.cpu
        for key, value in s.counts.items():
            t[key] = t.get(key, 0) + value
    return totals

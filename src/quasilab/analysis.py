"""Norm-growth exponent formulas, Lp quadrature norms, and slope fits.

Exponents are evaluated in exact rational arithmetic with p = infinity as a
dedicated sentinel (internally everything is a function of 1/p, so the
limit is literal).  Branch points are handled by continuity: both branch
formulas agree there exactly as Fractions, which the tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import TailDominanceError

INF_P = math.inf

SOGGE = "sogge"
SUBMANIFOLD = "submanifold"
TRANSVERSE = "transverse"
CONTACT = "contact"
FAMILIES = (SOGGE, SUBMANIFOLD, TRANSVERSE, CONTACT)


def parse_p(p) -> Fraction | float:
    """Normalize a Lebesgue exponent: Fraction for finite p, INF_P sentinel else."""
    if p in ("inf", "oo", "Inf", "INF"):
        return INF_P
    if isinstance(p, float) and math.isinf(p):
        return INF_P
    if isinstance(p, str):
        return Fraction(p)
    if isinstance(p, float):
        return Fraction(p).limit_denominator(10 ** 9)
    return Fraction(p)


def _inv(p) -> Fraction:
    """1/p as an exact Fraction; 0 for the infinity sentinel."""
    p = parse_p(p)
    if p is INF_P or (isinstance(p, float) and math.isinf(p)):
        return Fraction(0)
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return Fraction(1) / p


@dataclass(frozen=True)
class ExponentQuery:
    family: str
    n: int
    p: object
    d: int | None = None   # submanifold dimension
    r: int | None = None   # number of operators
    k: int | None = None   # contact order


def sogge_delta(n: int, p) -> Fraction:
    """Unconditional growth exponent: kink at p0 = 2(n+1)/(n-1)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    s = _inv(p)
    s0 = Fraction(n - 1, 2 * (n + 1))
    if s >= s0:
        return Fraction(n - 1, 4) - Fraction(n - 1, 2) * s
    return Fraction(n - 1, 2) - n * s


def contact_delta(n: int, p, k: int) -> Fraction:
    """Joint-quasimode exponent with k-th order contact.

    Agrees with sogge_delta on [2, p0]; above p0 the 1/(k+1) correction
    (vanishing at the kink, so the curve is continuous) removes part of
    the high-p growth.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k is None or k < 1:
        raise ValueError("k must be >= 1")
    s = _inv(p)
    s0 = Fraction(n - 1, 2 * (n + 1))
    if s >= s0:
        return Fraction(n - 1, 4) - Fraction(n - 1, 2) * s
    return (Fraction(n - 1, 2) - n * s
            - Fraction(1, k + 1) * (Fraction(n - 1, 2) - (n + 1) * s))


def transverse_delta(n: int, p, r: int) -> Fraction:
    """Exponent for r jointly transverse operators; r = 1 reproduces sogge."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if r is None or not 1 <= r <= n - 1:
        raise ValueError("r must satisfy 1 <= r <= n-1")
    s = _inv(p)
    m = n - r
    s_r = Fraction(m, 2 * (m + 2))
    if s >= s_r:
        return Fraction(m, 4) - Fraction(m, 2) * s
    return Fraction(m, 2) - (m + 1) * s


def submanifold_delta(n: int, p, d: int) -> Fraction:
    """Restriction exponent to a d-dimensional submanifold.

    The d = n-2 branch is stated only for p > 2; querying p = 2 there is
    out of range.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if d is None or not 1 <= d <= n - 1:
        raise ValueError("d must satisfy 1 <= d <= n-1")
    s = _inv(p)
    if d <= n - 3:
        return Fraction(n - 1, 2) - d * s
    if d == n - 2:
        if s == Fraction(1, 2):
            raise ValueError("submanifold exponent for d = n-2 needs p > 2")
        return Fraction(n - 1, 2) - d * s
    s0 = Fraction(n - 1, 2 * n)
    if s <= s0:
        return Fraction(n - 1, 2) - d * s
    return Fraction(n - 1, 4) - Fraction(d - 1, 2) * s


def exponent(q: ExponentQuery) -> Fraction:
    """Dispatch on family; exact rational output."""
    if q.family == SOGGE:
        return sogge_delta(q.n, q.p)
    if q.family == CONTACT:
        return contact_delta(q.n, q.p, q.k)
    if q.family == TRANSVERSE:
        return transverse_delta(q.n, q.p, q.r)
    if q.family == SUBMANIFOLD:
        return submanifold_delta(q.n, q.p, q.d)
    raise ValueError(f"unknown family {q.family!r}; expected one of {FAMILIES}")


def delta_curve(family: str, n: int, k: int | None, inv_p_grid: Sequence[Fraction]
                ) -> list[tuple[str, int, object, int | None, Fraction]]:
    """Rows (family, n, p, k, delta) along a 1/p grid, for curve exports."""
    rows = []
    for s in inv_p_grid:
        s = Fraction(s)
        p: object = INF_P if s == 0 else 1 / s
        if family == SOGGE:
            val = sogge_delta(n, p)
        elif family == CONTACT:
            val = contact_delta(n, p, k)
        else:
            raise ValueError("delta_curve supports the sogge and contact families")
        rows.append((family, n, p, k, val))
    return rows


# -- Lp norms ------------------------------------------------------------------------

@dataclass(frozen=True)
class LpNorm:
    value: float
    tail_estimate: float
    p: object


def lp_norm(values: np.ndarray, weights, p,
            shell_mask: np.ndarray | None = None,
            inner_shell_mask: np.ndarray | None = None,
            tail_fraction: float = 0.01) -> LpNorm:
    """Weighted quadrature Lp norm with an optional boundary-shell check.

    shell_mask marks the outermost layer of the target set.  For finite p
    the tail estimate is the norm increment the exterior would contribute
    if the shell masses kept decaying at their measured geometric rate
    (inner_shell_mask, the next layer in, supplies the rate; without it the
    exterior is taken as one more shell).  For p = infinity the estimate is
    the shell maximum and the refusal condition is a boundary maximizer.
    TailDominanceError signals a box too small for the requested accuracy;
    without masks no tail policing happens.
    """
    values = np.abs(np.asarray(values))
    weights = np.broadcast_to(np.asarray(weights, float), values.shape)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    pp = parse_p(p)
    if pp is INF_P:
        norm = float(values.max())
        tail = float(values[shell_mask].max()) if shell_mask is not None else 0.0
        if shell_mask is not None and norm > 0 and tail >= norm * (1 - 1e-12):
            raise TailDominanceError(
                "Linf maximizer lies on the boundary shell; enlarge the box")
        return LpNorm(norm, tail, p)
    pf = float(pp)
    if pf < 1:
        raise ValueError("p must be >= 1")
    total = float(np.sum(values ** pf * weights))
    norm = total ** (1.0 / pf)
    tail = 0.0
    if shell_mask is not None and total > 0:
        shell = float(np.sum(values[shell_mask] ** pf * weights[shell_mask]))
        factor = 1.0
        if inner_shell_mask is not None:
            inner = float(np.sum(values[inner_shell_mask] ** pf
                                 * weights[inner_shell_mask]))
            if inner > 0:
                ratio = shell / inner
                if ratio >= 1.0:
                    raise TailDominanceError(
                        "boundary shells are not decaying; enlarge the box")
                factor = min(ratio / (1.0 - ratio), 1e6)
        exterior = shell * factor
        tail = (total + exterior) ** (1.0 / pf) - norm
        if tail > tail_fraction * norm:
            raise TailDominanceError(
                f"estimated exterior adds {tail / norm:.2%} to the L{p} norm "
                f"(limit {tail_fraction:.2%}); enlarge the box")
    return LpNorm(norm, tail, p)


# -- scaling fits --------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingReport:
    h_values: tuple[float, ...]
    norms: tuple[float, ...]
    slope: float
    slope_stderr: float
    predicted: float
    tolerance: float
    passed: bool

    def line(self, name: str) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {name}: slope {self.slope:+.4f} "
                f"(predicted {self.predicted:+.4f}, tol {self.tolerance:.3f}, "
                f"se {self.slope_stderr:.4f})")


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x and its standard error."""
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    dof = max(len(x) - 2, 1)
    return slope, math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)


def fit_scaling(h_values: Sequence[float], norms: Sequence[float],
                predicted: float, tolerance: float) -> ScalingReport:
    """Least-squares slope of log(norm) against log(h) with pass verdict."""
    if len(h_values) < 5:
        raise ValueError("need at least 5 sweep points")
    if len(norms) != len(h_values):
        raise ValueError("h_values and norms must align")
    if any(v <= 0 for v in norms):
        raise ValueError("norms must be positive")
    slope, stderr = _fit_line(np.log(np.asarray(h_values, float)),
                              np.log(np.asarray(norms, float)))
    passed = abs(slope - predicted) <= tolerance
    return ScalingReport(tuple(float(h) for h in h_values),
                         tuple(float(v) for v in norms),
                         slope, stderr, float(predicted), float(tolerance),
                         passed)


def oscillation_axes(extents: Sequence[float], h: float, margin: float = 8.0,
                     points_per_scale: int = 8, pow2: bool = True):
    """Position axes resolving the synthesis oscillation of a cutoff.

    extents are the per-axis frequency support extents; the field varies on
    the scale h/extent per axis, the box spans margin such scales each way,
    and the sampling puts points_per_scale nodes per scale.  Axis counts are
    h-independent, so sweeps sample self-similarly and slopes are clean.
    """
    from .grids import AxisSpec

    axes = []
    for ext in extents:
        scale = h / ext if ext > 0 else 1.0
        points = 2 * margin * points_per_scale
        n = int(points)
        if pow2:
            n = 1 << (n - 1).bit_length()
        axes.append(AxisSpec(0.0, margin * scale, n))
    return axes


def shell_mask(shape: Sequence[int], layer: int = 0) -> np.ndarray:
    """Boolean mask of the cells exactly ``layer`` steps from the boundary."""
    shape = tuple(shape)
    depth = np.full(shape, np.iinfo(np.int64).max, dtype=np.int64)
    for axis, npts in enumerate(shape):
        idx = np.minimum(np.arange(npts), npts - 1 - np.arange(npts))
        view = idx.reshape([npts if a == axis else 1 for a in range(len(shape))])
        depth = np.minimum(depth, view)
    return depth == layer

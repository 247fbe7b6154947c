"""Norm-growth exponent formulas, Lp quadrature norms, and slope fits.

Exponents are evaluated in exact rational arithmetic with p = infinity as a
dedicated sentinel (internally everything is a function of 1/p, so the
limit is literal).  Branch points are handled by continuity: both branch
formulas agree there exactly as Fractions, which the tests assert.
EXPONENTS is the one table of exponent families, exponent() the one
dispatch on a family name, and kink_p(n) the one definition of the kink p0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import TailDominanceError

INF_P = math.inf


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


def kink_p(n: int) -> Fraction:
    """p0 = 2(n+1)/(n-1): the kink of sogge_delta, above which contact_delta
    carries its 1/(k+1) correction and the paraboloid attains it."""
    return Fraction(2 * (n + 1), n - 1)


def sogge_delta(n: int, p) -> Fraction:
    """Unconditional growth exponent: kink at p0 = kink_p(n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    s = _inv(p)
    if s >= 1 / kink_p(n):
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
    if s >= 1 / kink_p(n):
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


# Each exponent family: its formula and the name of the formula's third
# argument after (n, p), None for a formula of (n, p) alone.
EXPONENTS: dict[str, tuple[Callable[..., Fraction], str | None]] = {
    "sogge": (sogge_delta, None),
    "submanifold": (submanifold_delta, "d"),
    "transverse": (transverse_delta, "r"),
    "contact": (contact_delta, "k"),
}


def exponent(family: str, n: int, p, **extra) -> Fraction:
    """delta(n, p, .) of one EXPONENTS family, exact.

    extra holds the family's third argument by name (d, r or k); the
    arguments of other families are ignored.
    """
    if family not in EXPONENTS:
        raise ValueError(
            f"unknown family {family!r}; expected one of {tuple(EXPONENTS)}")
    formula, arg = EXPONENTS[family]
    return formula(n, p) if arg is None else formula(n, p, extra.get(arg))


# -- Lp norms ------------------------------------------------------------------------

# Largest share the estimated exterior may add to a finite-p norm.
TAIL_FRACTION = 0.01


@dataclass(frozen=True)
class LpNorm:
    value: float
    tail_estimate: float
    p: object


def lp_norm(values: np.ndarray, weights, p,
            shell_mask: np.ndarray | None = None,
            inner_shell_mask: np.ndarray | None = None) -> LpNorm:
    """Weighted quadrature Lp norm with an optional boundary-shell check.

    shell_mask marks the outermost layer of the target set.  For finite p
    the tail estimate is the norm increment the exterior would contribute
    if the shell masses kept decaying at their measured geometric rate
    (inner_shell_mask, the next layer in, supplies the rate; without it the
    exterior is taken as one more shell).  For p = infinity the estimate is
    the shell maximum and the refusal condition is a boundary maximizer.
    TailDominanceError signals a box too small for the requested accuracy;
    without masks no tail policing happens.

    Sweeps measure their norms with lp_norms, called by
    experiments._sweep_point.  This per-p, mask-based form is the oracle
    the tests check lp_norms against, and the acceptance gate's own sweeps
    measure with it.
    """
    values = np.abs(np.asarray(values))
    weights = np.broadcast_to(np.asarray(weights, float), values.shape)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    pp = parse_p(p)
    if pp is INF_P:
        norm = float(values.max())
        if shell_mask is None:
            return LpNorm(norm, 0.0, p)
        return _sup_tail(norm, float(values[shell_mask].max()), p)
    pf = _finite_p(pp)
    total = float(np.sum(values ** pf * weights))
    if shell_mask is None:
        return LpNorm(total ** (1.0 / pf), 0.0, p)
    shell = float(np.sum(values[shell_mask] ** pf * weights[shell_mask]))
    inner = None
    if inner_shell_mask is not None:
        inner = float(np.sum(values[inner_shell_mask] ** pf
                             * weights[inner_shell_mask]))
    return _finite_tail(total, shell, inner, pf, p)


def lp_norms(values: np.ndarray, weight: float, ps) -> list[LpNorm]:
    """lp_norm with both boundary shells policed, for every p in ps at once.

    |u| is taken once.  Each p takes from it the maximum (p = infinity) or
    the sum of |u|^p * weight, and the same over the layer-0 and layer-1
    shell_slices boxes, so no boolean mask is built and no |u| is taken per
    p.  weight is the scalar cell weight.  The whole-grid maximum and sums
    are lp_norm's, element for element and in the same order, so the norms
    equal lp_norm's bit for bit; only the shell sums run in another order.
    The tail rule is lp_norm's, and the first p it refuses raises
    TailDominanceError.
    """
    if weight < 0:
        raise ValueError("weights must be nonnegative")
    mod = np.abs(np.asarray(values))
    shell, inner = shell_slices(mod.shape, 0), shell_slices(mod.shape, 1)
    out = []
    for i, p in enumerate(ps):
        pp = parse_p(p)
        if pp is INF_P:
            out.append(_sup_tail(float(mod.max()),
                                 max(float(mod[b].max()) for b in shell), p))
            continue
        pf = _finite_p(pp)
        # The last p takes its powers in place of |u|, which no later p
        # reads: one grid-sized array fewer at the peak.
        power = np.power(mod, pf, out=mod if i == len(ps) - 1 else None)
        power *= weight
        out.append(_finite_tail(
            float(power.sum()), sum(float(power[b].sum()) for b in shell),
            sum(float(power[b].sum()) for b in inner), pf, p))
    return out


def _finite_p(pp) -> float:
    pf = float(pp)
    if pf < 1:
        raise ValueError("p must be >= 1")
    return pf


def _sup_tail(norm: float, shell_max: float, p) -> LpNorm:
    """The L-infinity tail rule: refuse a maximizer on the boundary shell."""
    if norm > 0 and shell_max >= norm * (1 - 1e-12):
        raise TailDominanceError(
            "Linf maximizer lies on the boundary shell; enlarge the box")
    return LpNorm(norm, shell_max, p)


def _finite_tail(total: float, shell: float, inner: float | None, pf: float,
                 p) -> LpNorm:
    """The finite-p tail rule, from the weighted sums of |u|^p over the grid,
    the boundary shell and (if given) the next shell in."""
    norm = total ** (1.0 / pf)
    tail = 0.0
    if total > 0:
        factor = 1.0
        if inner is not None and inner > 0:
            ratio = shell / inner
            if ratio >= 1.0:
                raise TailDominanceError(
                    "boundary shells are not decaying; enlarge the box")
            factor = min(ratio / (1.0 - ratio), 1e6)
        exterior = shell * factor
        tail = (total + exterior) ** (1.0 / pf) - norm
        if tail > TAIL_FRACTION * norm:
            raise TailDominanceError(
                f"estimated exterior adds {tail / norm:.2%} to the L{p} norm "
                f"(limit {TAIL_FRACTION:.2%}); enlarge the box")
    return LpNorm(norm, tail, p)


# -- scaling fits --------------------------------------------------------------------

# Fewest h values a slope fit accepts.
MIN_SWEEP_POINTS = 5


@dataclass(frozen=True)
class ScalingReport:
    h_values: tuple[float, ...]
    norms: tuple[float, ...]
    slope: float
    slope_stderr: float
    predicted: float
    tolerance: float
    passed: bool


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
    if len(h_values) < MIN_SWEEP_POINTS:
        raise ValueError(f"need at least {MIN_SWEEP_POINTS} sweep points")
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
                     points_per_scale: int = 8):
    """Position axes resolving the synthesis oscillation of a cutoff.

    extents are the per-axis frequency support extents; the field varies on
    the scale h/extent per axis, the box spans margin such scales each way,
    and the sampling puts points_per_scale nodes per scale, with each axis
    count rounded up to a power of two.  Axis counts are h-independent, so
    sweeps sample self-similarly and slopes are clean.
    """
    from .grids import AxisSpec

    axes = []
    for ext in extents:
        scale = h / ext if ext > 0 else 1.0
        n = int(2 * margin * points_per_scale)
        n = 1 << (n - 1).bit_length()
        axes.append(AxisSpec(0.0, margin * scale, n))
    return axes


def shell_mask(shape: Sequence[int], layer: int = 0) -> np.ndarray:
    """Boolean mask of the cells exactly ``layer`` steps from the boundary.

    The box of cells at depth >= layer, minus the box at depth >= layer + 1.
    """
    shape = tuple(shape)
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(slice(layer, max(n - layer, 0)) for n in shape)] = True
    mask[tuple(slice(layer + 1, max(n - layer - 1, 0)) for n in shape)] = False
    return mask


def shell_slices(shape: Sequence[int], layer: int = 0
                 ) -> list[tuple[slice, ...]]:
    """Disjoint nonempty boxes whose union is shell_mask(shape, layer).

    Box (d, face) holds the shell cells whose first boundary axis is d: one
    of the two faces of the layer's box on axis d, inside the next box in
    on the axes before d and inside the layer's box on the axes after d.
    """
    shape = tuple(shape)
    if any(n <= 2 * layer for n in shape):
        return []   # the layer's box is empty, and so is its shell
    outer = [slice(layer, n - layer) for n in shape]
    inner = [slice(layer + 1, n - layer - 1) for n in shape]
    boxes = []
    for d, n in enumerate(shape):
        for i in sorted({layer, n - layer - 1}):
            box = (*inner[:d], slice(i, i + 1), *outer[d + 1:])
            if all(s.stop > s.start for s in box):
                boxes.append(box)
    return boxes

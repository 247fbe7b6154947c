"""Norm-growth exponent formulas, Lp quadrature norms, and slope fits.

The sweeps' Lp norms are summed block by block (BlockNorms) as the synthesis
makes the grid, or the orthant of it over which |u| is even, the block sums
combined by halves as numpy's pairwise tree does, with the boundary shells
read as boxes (shell_slices).

Exponents are evaluated in exact rational arithmetic with p = infinity as a
dedicated sentinel (internally everything is a function of 1/p, so the
limit is literal).  Branch points are handled by continuity: both branch
formulas agree there exactly as Fractions, which the tests assert.
EXPONENTS is the one table of exponent families, exponent() the one
dispatch on a family name, and kink_p(n) the one definition of the kink p0.
parse_number is the one reader of the numbers a user writes, in configs,
symbols and on the command line; parse_p reads exponents through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import TailDominanceError
from .grids import AxisSpec

INF_P = math.inf
_EXACT_BITS = 1 << 16   # the most bits parse_number spends on an exact power


def parse_number(text: str) -> Fraction | float:
    """Every number a user writes (config values, p_list entries, symbol
    coefficients, ``delta --p``): a decimal, ``a/b`` or ``b^e`` of decimals,
    or oo, inf, -inf, nan.  An exact Fraction, or float arithmetic's value
    where no Fraction is kept: non-finite, -0, an underflow, or a power that
    is irrational or over _EXACT_BITS.  A power's float comes first, so no
    exact power is built whose float overflows (OverflowError) or underflows."""
    text = text.strip()
    if text == "oo":
        return math.inf
    if "^" in text:
        base, exp = map(_decimal, text.split("^"))
        value = float(base) ** float(exp)
        if isinstance(value, complex):   # negative base, fractional power
            raise ValueError(f"{text!r} is not real")
        if float in (type(base), type(exp)) or (base and not value):
            return value
        num, den = (_iroot(n, exp.denominator) for n in base.as_integer_ratio())
        if None in (num, den) or abs(exp.numerator) * (
                max(abs(num), den).bit_length() - 1) > _EXACT_BITS:
            return value
        return Fraction(num, den) ** exp.numerator
    if "/" in text:
        num, den = map(_decimal, text.split("/"))
        return num / den   # a float either side divides as floats
    return _decimal(text)


def _decimal(text: str) -> Fraction | float:
    """A decimal literal, exact unless its float is not finite or is a zero
    the literal is not (-0, or an underflow such as 1e-400)."""
    value = float(text)
    if value and math.isfinite(value):
        return Fraction(text)
    if value == 0 and math.copysign(1, value) > 0 and not Fraction(
            text.lower().split("e")[0]):   # the mantissa: no 10^exponent built
        return Fraction(0)
    return value


def _iroot(n: int, q: int) -> int | None:
    """The integer q-th root of n, None when there is none or n < 0 < q - 1."""
    if q == 1 or 0 <= n < 2:
        return n
    if n < 0 or n.bit_length() <= q:
        return None
    x = 1 << -(-n.bit_length() // q)   # above the root: Newton descends
    while (y := ((q - 1) * x + n // x ** (q - 1)) // q) < x:
        x = y
    return x if x ** q == n else None


def parse_p(p) -> Fraction | float:
    """Normalize a Lebesgue exponent: Fraction for finite p, INF_P sentinel
    else; text is read by parse_number and must be rational or inf."""
    if isinstance(p, str):
        text, p = p, parse_number(p)
        if isinstance(p, float) and p != INF_P:
            raise ValueError(f"p must be rational or inf, got {text!r}")
    if isinstance(p, float):
        return INF_P if math.isinf(p) else Fraction(p).limit_denominator(10 ** 9)
    return Fraction(p)


def _inv(p) -> Fraction:
    """1/p as an exact Fraction; 0 for the infinity sentinel."""
    p = parse_p(p)
    if p is INF_P:
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
    """Joint-quasimode exponent with k-th order contact: sogge_delta on
    [2, p0], minus above p0 a 1/(k+1) correction that vanishes at the kink
    (so the curve is continuous) and removes part of the high-p growth."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if k is None or k < 1:
        raise ValueError("k must be >= 1")
    s = _inv(p)
    delta = sogge_delta(n, p)
    if s >= 1 / kink_p(n):
        return delta
    return delta - Fraction(1, k + 1) * (Fraction(n - 1, 2) - (n + 1) * s)


def transverse_delta(n: int, p, r: int) -> Fraction:
    """Exponent for r jointly transverse operators: sogge_delta in
    n - r + 1 dimensions, so r = 1 reproduces sogge."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if r is None or not 1 <= r <= n - 1:
        raise ValueError("r must satisfy 1 <= r <= n-1")
    return sogge_delta(n - r + 1, p)


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


class BlockNorms:
    """Weighted quadrature Lp norms of a grid u, for every p in ps at once,
    summed over blocks of whole first-axis rows as a producer hands them out,
    with both boundary shells policed.

    halved flags, per axis, the axes on which u is the positive half of a
    whole grid's axis over which |u| is even: the grid is the whole grid's
    orthant.  Each cell then stands for 2^m cells of the whole grid, m the
    number of halved axes, so weight is scaled by 2^m (a power of two: the
    multiply is exact), and the shells are the whole grid's cut to the
    orthant: a halved axis's low face is the whole grid's centre, so only
    its outer face is boundary (shell_slices).  The shell/inner ratio of
    the tail rule and the maximum of |u| are the whole grid's up to rounding.

    For finite p the tail estimate is the norm increment the exterior would
    contribute if the shell masses kept decaying at their measured
    geometric rate, that of the layer-0 shell over the layer-1 shell.  For
    p = infinity the estimate is the layer-0 shell maximum and the refusal
    condition is a boundary maximizer.  TailDominanceError signals a box
    too small for the requested accuracy.

    add(rows, block) takes block = u[rows] for the next run rows of
    first-axis indices; the blocks must tile the grid in order.  Each block
    gives, per p, its maximum of |u| (p = infinity) or its np.sum of
    |u|^p * weight, and the same over the layer-0 and layer-1 shell_slices
    boxes cut to its rows, so no mask and no grid-sized array is built.
    |u| is taken once a block, into one buffer reused across blocks, and
    the powers into a second.  norms() adds the block sums by halves
    (_halves).  synthesize_on_axes hands an oscillation_axes grid out as
    one block or as 2^b equal blocks of 2^j >= 128 cells, each a node of
    numpy's pairwise tree over the grid (Higham 1993), so the norms are one
    np.sum's bits.  Other splits, and the shell sums, agree to rounding.
    norms() applies the tail rule in the order of ps, and the first p it
    refuses raises TailDominanceError.  weight is the scalar cell weight.
    """

    def __init__(self, shape: Sequence[int], weight: float, ps,
                 halved: Sequence[bool] = ()):
        if weight < 0:
            raise ValueError("weights must be nonnegative")
        self.shape = tuple(shape)
        self.weight = weight * 2.0 ** sum(halved)
        self.ps = list(ps)
        self.pfs = [None if pp is INF_P else _finite_p(pp)
                    for pp in map(parse_p, self.ps)]
        self.shells = (shell_slices(self.shape, 0, halved),
                       shell_slices(self.shape, 1, halved))
        self.next_row = 0
        # Per p: the block maxima or sums, and the shell and inner-shell
        # maximum (p = infinity, which polices the shell only) or sums.
        self.totals = [[] for _ in self.ps]
        self.shell_sums = [[0.0, 0.0] for _ in self.ps]
        self.mod = self.power = None

    def add(self, rows: slice, block: np.ndarray) -> None:
        i0, i1 = rows.start, rows.stop
        if i0 != self.next_row or block.shape != (i1 - i0,) + self.shape[1:]:
            raise ValueError("blocks must tile the grid's first axis in order")
        self.next_row = i1
        if self.mod is None or self.mod.size < block.size:
            self.mod, self.power = np.empty(block.size), np.empty(block.size)
        mod = np.abs(block, out=self.mod[:block.size].reshape(block.shape))
        power = self.power[:block.size].reshape(block.shape)
        # The shell boxes that meet this block's rows, cut to them and
        # shifted to block coordinates.
        cut = [[(slice(max(b[0].start, i0) - i0, min(b[0].stop, i1) - i0), *b[1:])
                for b in boxes if b[0].start < i1 and b[0].stop > i0]
               for boxes in self.shells]
        for pf, total, shell in zip(self.pfs, self.totals, self.shell_sums):
            if pf is None:
                total.append(float(mod.max()))
                shell[0] = max([shell[0]] + [float(mod[b].max()) for b in cut[0]])
                continue
            np.power(mod, pf, out=power)
            power *= self.weight
            total.append(float(np.sum(power)))
            for j in (0, 1):
                shell[j] += sum(float(power[b].sum()) for b in cut[j])

    def norms(self) -> list[LpNorm]:
        if self.next_row != self.shape[0]:
            raise ValueError("blocks must tile the grid's first axis in order")
        return [_sup_tail(max(total), shell, p) if pf is None else
                _finite_tail(_halves(total), shell, inner, pf, p)
                for p, pf, total, (shell, inner) in zip(
                    self.ps, self.pfs, self.totals, self.shell_sums)]


def _halves(sums: list[float]) -> float:
    """sums added by halves: (0, 1), (2, 3), ..., an odd last one carried up."""
    while len(sums) > 1:
        odd = sums[-1:] if len(sums) % 2 else []
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])] + odd
    return sums[0]


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


def _finite_tail(total: float, shell: float, inner: float, pf: float,
                 p) -> LpNorm:
    """The finite-p tail rule, from the weighted sums of |u|^p over the grid,
    the boundary shell and the next shell in."""
    norm = total ** (1.0 / pf)
    tail = 0.0
    if total > 0:
        factor = 1.0
        if inner > 0:
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


def oscillation_points(margin: float, points_per_scale: int) -> int:
    """Nodes per axis of an oscillation_axes grid: 2 * margin *
    points_per_scale, rounded down and then up to a power of two."""
    n = int(2 * margin * points_per_scale)
    return 1 << (n - 1).bit_length()


def oscillation_axes(extents: Sequence[float], h: float, margin: float,
                     points_per_scale: int):
    """Position axes resolving the synthesis oscillation of a cutoff.

    extents are the per-axis frequency support extents; the field varies on
    the scale h/extent per axis, the box spans margin such scales each way,
    and the sampling puts points_per_scale nodes per scale, with each axis
    count rounded up to a power of two (oscillation_points).  Axis counts
    are h-independent, so sweeps sample self-similarly and slopes are clean.
    """
    n = oscillation_points(margin, points_per_scale)
    return [AxisSpec(0.0, margin * (h / ext if ext > 0 else 1.0), n)
            for ext in extents]


def half_axis(axis: AxisSpec) -> AxisSpec:
    """The positive half of an axis centred on 0 with an even count: its
    spacing's bits, and its upper nodes to rounding."""
    half = axis.half_width / 2
    return AxisSpec(half, half, axis.points // 2)


def shell_slices(shape: Sequence[int], layer: int = 0,
                 halved: Sequence[bool] = ()) -> list[tuple[slice, ...]]:
    """Disjoint nonempty boxes whose union is the shell of the cells exactly
    ``layer`` steps from the boundary: the box of cells at depth >= layer,
    minus the box at depth >= layer + 1.

    Box (d, face) holds the shell cells whose first boundary axis is d: one
    of the two faces of the layer's box on axis d, inside the next box in
    on the axes before d and inside the layer's box on the axes after d.
    An axis flagged in halved is the upper half of a whole grid's axis
    (BlockNorms): its low end is that grid's centre, not a boundary, so
    depth on it counts from its outer face alone, and the boxes are the
    whole grid's shell cut to the orthant.
    """
    shape = tuple(shape)
    halved = tuple(halved) or (False,) * len(shape)
    if any(n <= (1 if half else 2) * layer for n, half in zip(shape, halved)):
        return []   # the layer's box is empty, and so is its shell
    outer = [slice(0 if half else layer, n - layer)
             for n, half in zip(shape, halved)]
    inner = [slice(0 if half else layer + 1, n - layer - 1)
             for n, half in zip(shape, halved)]
    boxes = []
    for d, (n, half) in enumerate(zip(shape, halved)):
        for i in sorted({n - layer - 1} if half else {layer, n - layer - 1}):
            box = (*inner[:d], slice(i, i + 1), *outer[d + 1:])
            if all(s.stop > s.start for s in box):
                boxes.append(box)
    return boxes

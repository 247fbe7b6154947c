"""Extremizer frequency cutoffs, their synthesis, and joint-quasimode checks.

A cutoff is the sharp indicator of a conjunction of band constraints
|p(xi)| <= c*h^alpha.  Because every constraint in the catalog is affine in
xi1 (graph symbols) or xi1-free, the support over each (xi2..xin) grid
column is a contiguous run of xi1 cells.  build_cutoff therefore returns a
columnar field (per-column xi1 index intervals over a virtual dense grid):
the xi1 axis never has to be materialized, which is what keeps the finest
sweeps (where the dense grid would have ~1e9 cells) at desk scale.  The
indicator decides membership at cell midpoints, so quadrature multiplier
norms of p1^M1 p2^M2 sit below h^(M1+M2) by construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (BoxTooSmallError, DimensionMismatchError,
                     EmptySupportError, SymbolParseError)
from .grids import FREQUENCY, POSITION, AxisSpec, GridField
from .symbols import PolySymbol, split_affine_x1

_TWO_PI = 2.0 * np.pi
_SNAP = 1e-9  # index-space nudge so exact band edges land reproducibly
# Columns per matrix product in synthesize_on_axes.  A fixed block makes the
# output bits independent of the BLAS thread count; 256 runs faster but
# doubles the transient memory.
_BLOCK = 64


# -- h-scaling expressions -------------------------------------------------------

_HTERM = re.compile(r"^(?P<coef>[^h]*?)\*?(?:h(?:\^(?P<exp>[0-9.]+(?:/[0-9.]+)?))?)?$")


@dataclass(frozen=True)
class HExpr:
    """Sum of c * h^e terms; the box/spacing language of cutoff specs."""

    terms: tuple[tuple[float, float], ...]

    def __call__(self, h: float) -> float:
        return sum(c * h ** e for c, e in self.terms)

    @staticmethod
    def of(coef: float, exp: float = 0.0, *more: tuple[float, float]) -> "HExpr":
        return HExpr(((float(coef), float(exp)),) + tuple(
            (float(c), float(e)) for c, e in more))

    @staticmethod
    def parse(text: str) -> "HExpr":
        compact = text.replace(" ", "")
        if not compact:
            raise SymbolParseError("empty h-expression")
        pieces: list[str] = []
        cur = ""
        for i, ch in enumerate(compact):
            if ch in "+-" and i > 0 and compact[i - 1] not in "+-*^/":
                pieces.append(cur)
                cur = ch
            else:
                cur += ch
        pieces.append(cur)
        terms = []
        for piece in pieces:
            sign = 1.0
            while piece and piece[0] in "+-":
                if piece[0] == "-":
                    sign = -sign
                piece = piece[1:]
            m = _HTERM.match(piece)
            if not m or not piece:
                raise SymbolParseError(f"cannot parse h-expression term {piece!r}")
            coef_text = m.group("coef")
            has_h = "h" in piece
            coef = 1.0 if coef_text in ("", "*") else _ratio(coef_text)
            exp = 0.0
            if has_h:
                exp = _ratio(m.group("exp")) if m.group("exp") else 1.0
            terms.append((sign * coef, exp))
        return HExpr(tuple(terms))

    def text(self) -> str:
        parts = []
        for c, e in self.terms:
            if e == 0:
                parts.append("%.17g" % c)
            elif e == 1:
                parts.append("%.17g*h" % c)
            else:
                parts.append("%.17g*h^%.17g" % (c, e))
        return " + ".join(parts).replace("+ -", "- ")


def _ratio(text: str) -> float:
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


@dataclass(frozen=True)
class AxisRule:
    """h-dependent box edges and target spacing for one frequency axis."""

    lo: HExpr
    hi: HExpr
    spacing: HExpr
    pow2: bool = False

    def to_axis(self, h: float) -> AxisSpec:
        lo, hi = self.lo(h), self.hi(h)
        if hi <= lo:
            raise ValueError("axis rule produced an empty range")
        step = self.spacing(h)
        if step <= 0:
            raise ValueError("axis rule produced a nonpositive spacing")
        points = max(2, math.ceil((hi - lo) / step - 1e-9))
        if self.pow2:
            points = 1 << (points - 1).bit_length()
        return AxisSpec(0.5 * (lo + hi), 0.5 * (hi - lo), points)


@dataclass(frozen=True)
class BandConstraint:
    """|symbol(xi)| <= scale * h^alpha."""

    symbol: PolySymbol
    alpha: float
    scale: float = 1.0

    def bound(self, h: float) -> float:
        return self.scale * h ** self.alpha


@dataclass(frozen=True)
class FrequencyCutoff:
    """Conjunction of band constraints plus the enclosing box rules."""

    constraints: tuple[BandConstraint, ...]
    box: tuple[AxisRule, ...]

    def __post_init__(self):
        n = len(self.box)
        for c in self.constraints:
            if c.symbol.dim != n:
                raise DimensionMismatchError(
                    f"constraint dim {c.symbol.dim} != box dim {n}")


# -- columnar cutoff field --------------------------------------------------------

@dataclass
class CutoffField:
    """Sharp indicator support as xi1 index runs over bar-grid columns.

    axes[0] is the (virtual) xi1 axis; axes[1:] are materialized.  Only
    nonempty columns are stored: col_coords holds their bar coordinates,
    col_start/col_count the first xi1 cell index and run length.
    """

    h: float
    axes: list[AxisSpec]
    col_coords: np.ndarray   # (K, n-1) float
    col_start: np.ndarray    # (K,) int64
    col_count: np.ndarray    # (K,) int64
    spec: FrequencyCutoff | None = None

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for a in self.axes:
            vol *= a.spacing
        return vol

    @property
    def cell_count(self) -> int:
        return int(self.col_count.sum())

    def volume(self) -> float:
        return self.cell_count * self.cell_volume

    def l2_norm(self) -> float:
        """Quadrature L2 norm of the indicator: sqrt(support volume)."""
        return math.sqrt(self.volume())

    def xi1_first_node(self) -> np.ndarray:
        ax = self.axes[0]
        return ax.start + (self.col_start + 0.5) * ax.spacing

    def extent(self, axis: int) -> float:
        """max |xi_axis| over the support cells."""
        if axis == 0:
            first = self.xi1_first_node()
            last = first + (self.col_count - 1) * self.axes[0].spacing
            return float(max(np.abs(first).max(), np.abs(last).max()))
        return float(np.abs(self.col_coords[:, axis - 1]).max())

    def support_cells(self, chunk_cols: int = 1 << 14):
        """Yield (coords (S, n), ) blocks covering every support cell once."""
        k = len(self.col_count)
        ax0 = self.axes[0]
        for lo in range(0, k, chunk_cols):
            counts = self.col_count[lo:lo + chunk_cols]
            starts = self.col_start[lo:lo + chunk_cols]
            bars = self.col_coords[lo:lo + chunk_cols]
            total = int(counts.sum())
            if total == 0:
                continue
            reps = counts.astype(np.int64)
            base = np.repeat(starts, reps)
            offsets = np.arange(total) - np.repeat(
                np.concatenate([[0], np.cumsum(reps)[:-1]]), reps)
            xi1 = ax0.start + (base + offsets + 0.5) * ax0.spacing
            bar = np.repeat(bars, reps, axis=0)
            yield np.concatenate([xi1[:, None], bar], axis=1)

    def to_grid_field(self, max_cells: int = 1 << 24) -> GridField:
        """Dense 0/1 indicator; guarded against runaway grids."""
        shape = tuple(a.points for a in self.axes)
        total = int(np.prod(shape))
        if total > max_cells:
            raise MemoryError(
                f"dense grid would hold {total} cells (> {max_cells})")
        data = np.zeros(shape, dtype=complex)
        bar_axes = self.axes[1:]
        flat = data.reshape(shape[0], -1)
        # Recover each stored column's flat bar index from its coordinates.
        idx = np.zeros(len(self.col_coords), dtype=np.int64)
        for d, ax in enumerate(bar_axes):
            pos = np.round((self.col_coords[:, d] - ax.start) / ax.spacing - 0.5)
            idx = idx * ax.points + pos.astype(np.int64)
        for col, (s, c) in enumerate(zip(self.col_start, self.col_count)):
            flat[s:s + c, idx[col]] = 1.0
        return GridField(self.h, FREQUENCY, list(self.axes), data)


def build_cutoff(spec: FrequencyCutoff, h: float) -> CutoffField:
    """Indicator of the constraint conjunction on the spec's grid at this h.

    Raises EmptySupportError when no cell qualifies and BoxTooSmallError when
    the support touches the box boundary (the configured box must enclose the
    constraint set).
    """
    if not 0 < h <= 1:
        raise ValueError("h must lie in (0, 1]")
    n = len(spec.box)
    if n < 2:
        raise DimensionMismatchError(
            "a cutoff needs one xi1 axis and at least one bar axis; "
            f"the box has dimension {n}")
    axes = [rule.to_axis(h) for rule in spec.box]
    bar_axes = axes[1:]
    bar_nodes = [a.nodes() for a in bar_axes]
    mesh = np.meshgrid(*bar_nodes, indexing="ij")
    cols = np.stack([g.ravel() for g in mesh], axis=-1)
    col_arrays = [cols[:, d] for d in range(n - 1)]

    lo = np.full(len(cols), -np.inf)
    hi = np.full(len(cols), np.inf)
    mask = np.ones(len(cols), dtype=bool)
    for c in spec.constraints:
        split = split_affine_x1(c.symbol)
        if split is None:
            raise NotImplementedError(
                "cutoff constraints must be affine in xi1 or xi1-free")
        c1, rest = split
        b = c.bound(h)
        rvals = rest.eval_grid(col_arrays) if rest.coeffs else np.zeros(len(cols))
        if c1 == 0:
            mask &= np.abs(rvals) <= b
        else:
            ctr = -rvals / float(c1)
            half = b / abs(float(c1))
            lo = np.maximum(lo, ctr - half)
            hi = np.minimum(hi, ctr + half)

    ax0 = axes[0]
    # Midpoint-inclusion intervals in index space.
    t_lo = (lo - ax0.start) / ax0.spacing - 0.5
    t_hi = (hi - ax0.start) / ax0.spacing - 0.5
    i_lo = np.ceil(t_lo - _SNAP).astype(np.int64)
    i_hi = np.floor(t_hi + _SNAP).astype(np.int64)
    nonempty = mask & (i_hi >= i_lo)
    if not nonempty.any():
        raise EmptySupportError(
            f"no frequency cell satisfies the cutoff constraints at h={h}")
    if (i_lo[nonempty] < 0).any() or (i_hi[nonempty] >= ax0.points).any():
        raise BoxTooSmallError(
            f"xi1 support leaves the configured box at h={h}")

    # Boundary check on the bar axes: support must stay off the outer layer.
    shape = tuple(a.points for a in bar_axes)
    grid_idx = np.unravel_index(np.nonzero(nonempty)[0], shape)
    for d, a in enumerate(bar_axes):
        if (grid_idx[d] == 0).any() or (grid_idx[d] == a.points - 1).any():
            raise BoxTooSmallError(
                f"support reaches the box boundary on axis {d + 2} at h={h}")

    return CutoffField(
        h=h,
        axes=axes,
        col_coords=cols[nonempty],
        col_start=i_lo[nonempty],
        col_count=(i_hi - i_lo + 1)[nonempty],
        spec=spec)


def support_volume(field: CutoffField | GridField) -> float:
    """Cell count times cell volume."""
    if isinstance(field, CutoffField):
        if field.cell_count == 0:
            raise EmptySupportError("cutoff has empty support")
        return field.volume()
    count = int(np.count_nonzero(field.data))
    if count == 0:
        raise EmptySupportError("cutoff has empty support")
    return count * field.cell_volume


# -- synthesis ---------------------------------------------------------------------

def _dirichlet(theta: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sum_{m=0}^{M-1} exp(i m theta), stable near theta = 2 pi l."""
    theta, counts = np.broadcast_arrays(np.asarray(theta, float),
                                        np.asarray(counts, float))
    half = 0.5 * theta
    den = np.sin(half)
    num = np.sin(counts * half)
    safe = np.abs(den) > 1e-8
    # l'Hopital at the Dirichlet singularities (theta ~ 0 mod 2 pi).
    ratio = np.where(safe, num / np.where(safe, den, 1.0),
                     counts * np.cos(counts * half) / np.cos(half))
    return ratio * np.exp(1j * (counts - 1) * half)


def synthesize_raw(field: CutoffField, targets, chunk: int = 1 << 21) -> np.ndarray:
    """(2 pi h)^(-n/2) sum_cells exp(i<x,xi>/h) * cellvol at each target.

    Column-wise closed form: the xi1 run of every column is a geometric sum,
    so the cost is targets x columns, independent of the xi1 resolution.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.size == 0:
        raise ValueError("empty target list")
    if targets.shape[1] != field.dim:
        raise DimensionMismatchError("targets dimension mismatch")
    h = field.h
    dxi1 = field.axes[0].spacing
    first = field.xi1_first_node()
    counts = field.col_count.astype(float)
    out = np.empty(targets.shape[0], dtype=complex)
    rows = max(1, chunk // max(len(counts), 1))
    for lo in range(0, targets.shape[0], rows):
        tt = targets[lo:lo + rows]
        x1 = tt[:, 0:1]
        theta = x1 * (dxi1 / h)
        run = _dirichlet(theta, counts[None, :])
        phase = x1 * first[None, :]
        for d in range(field.dim - 1):
            phase = phase + tt[:, d + 1:d + 2] * field.col_coords[None, :, d]
        out[lo:lo + rows] = np.sum(np.exp(1j * phase / h) * run, axis=1)
    scale = field.cell_volume * (_TWO_PI * h) ** (-field.dim / 2)
    return scale * out


def synthesize_on_axes(field: CutoffField, axes: Sequence[AxisSpec]) -> GridField:
    """Raw synthesis on a product position grid (separable fast path).

    The column sum is a type-3 nonuniform Fourier sum over columnar support
    (Dutt & Rokhlin 1993), evaluated exactly as matrix products over fixed
    blocks of _BLOCK columns: the xi1 run factor (block x N1) times the
    row-wise outer product of the bar-axis exponentials (block x N2*N3).
    The fixed blocking keeps the summation order, and so every output bit,
    independent of the BLAS thread count.
    """
    if len(axes) != field.dim:
        raise DimensionMismatchError("axes dimension mismatch")
    if field.dim > 3:
        raise NotImplementedError("product synthesis supports dim <= 3")
    h = field.h
    dxi1 = field.axes[0].spacing
    first = field.xi1_first_node()
    counts = field.col_count.astype(float)
    shape = tuple(a.points for a in axes)
    out = np.zeros((shape[0], math.prod(shape[1:])), dtype=complex)
    x1 = axes[0].nodes()
    theta = x1 * (dxi1 / h)
    bar_nodes = [a.nodes() for a in axes[1:]]
    for lo in range(0, len(first), _BLOCK):
        cols = slice(lo, lo + _BLOCK)
        run = _dirichlet(theta[None, :], counts[cols, None])
        a0 = run * np.exp(1j * np.outer(first[cols], x1) / h)
        bar = np.ones((len(a0), 1), dtype=complex)
        for d, nodes in enumerate(bar_nodes):
            e = np.exp(1j * np.outer(field.col_coords[cols, d], nodes) / h)
            bar = (bar[:, :, None] * e[:, None, :]).reshape(len(a0), -1)
        out += a0.T @ bar
    out *= field.cell_volume * (_TWO_PI * h) ** (-field.dim / 2)
    return GridField(h, POSITION, list(axes), out.reshape(shape))


# -- the normalized extremizer -------------------------------------------------------

@dataclass
class Quasimode:
    """L2-normalized inverse transform of a sharp cutoff indicator.

    The normalization is the frequency-side quadrature norm, so l2norm == 1
    identically and T(0) = (2 pi h)^(-n/2) sqrt(Vol) exactly.
    """

    cutoff: CutoffField
    h: float
    l2norm: float = 1.0

    def values(self, targets) -> np.ndarray:
        return synthesize_raw(self.cutoff, targets) / self.cutoff.l2_norm()

    def on_axes(self, axes: Sequence[AxisSpec]) -> GridField:
        g = synthesize_on_axes(self.cutoff, axes)
        g.data /= self.cutoff.l2_norm()
        return g

    def peak(self) -> float:
        """|T(0)|; the global maximum by the triangle inequality."""
        vol = self.cutoff.volume()
        return (_TWO_PI * self.h) ** (-self.cutoff.dim / 2) * math.sqrt(vol)


def verify_joint_quasimode(qm: Quasimode | CutoffField, orders: int,
                           p1: PolySymbol | None = None,
                           p2: PolySymbol | None = None) -> np.ndarray:
    """||p1^M1 p2^M2 chi||_2 / (h^(M1+M2) ||chi||_2) on the frequency side.

    Returns the (orders+1, orders+1) matrix of these ratios indexed
    [M1, M2], from one pass over the support: p1^2 and p2^2 (in units of
    h^2) are evaluated once per chunk, and the power columns 0..orders of
    each are contracted against the other.  Defaults to the cutoff's first
    two band symbols.  Midpoint membership makes |p_j| <= h hold at every
    support node, so each ratio is <= 1 up to rounding; values above
    1 + boundary slack indicate a broken cutoff.
    """
    field = qm.cutoff if isinstance(qm, Quasimode) else qm
    if orders < 0:
        raise ValueError("orders must be nonnegative")
    if p1 is None or p2 is None:
        if field.spec is None or len(field.spec.constraints) < 2:
            raise ValueError("cutoff spec with two band constraints required")
        p1 = p1 or field.spec.constraints[0].symbol
        p2 = p2 or field.spec.constraints[1].symbol
    h = field.h
    total = np.zeros((orders + 1, orders + 1))
    for coords in field.support_cells():
        arrays = [coords[:, d] for d in range(field.dim)]
        a = np.vander((p1.eval_grid(arrays) / h) ** 2, orders + 1, increasing=True)
        b = np.vander((p2.eval_grid(arrays) / h) ** 2, orders + 1, increasing=True)
        total += a.T @ b
    return np.sqrt(total * field.cell_volume) / field.l2_norm()

"""Extremizer frequency cutoffs, their synthesis, and joint-quasimode checks.

A cutoff is the sharp indicator of a conjunction of band constraints
|p(xi)| <= h^alpha.  Because every constraint in the catalog is affine in
xi1 (graph symbols) or xi1-free, the support over each (xi2..xin) grid
column is a contiguous run of xi1 cells.  build_cutoff therefore returns a
columnar field (per-column xi1 index intervals over a virtual dense grid),
evaluating the constraints on broadcast bar nodes: neither the xi1 axis nor
a list of bar-grid points is ever materialized, which is what keeps the
finest sweeps (where the dense grid would have ~1e9 cells) at desk scale.
The indicator decides membership at cell midpoints, so quadrature multiplier
norms of p1^M1 p2^M2 sit below h^(M1+M2) by construction.  synthesize_on_axes
sums the columns onto a product position grid by sum factorisation, with one
fold per bar axis, xi2 included, and divides by the indicator's L2 norm, so
it makes the normalized quasimode itself.  Its last fold makes the grid in
blocks of whole x1 rows, which a consumer takes one at a time: no grid is
ever built.  Each spec reads off its symbols and box the bar axes on which
the support is its own mirror image at every h (FrequencyCutoff.closed);
build_cutoff evaluates the constraints on the upper half of those axes
alone, and the field stores those columns with their multiplicities
(CutoffField).  |u| is even in the closed axes, and in x1 when all are,
so a sweep synthesizes only their positive orthant (CutoffField.even_axes).
On the frequency side the synthesis sums each mirror pair of columns on a
closed axis once, through a real cosine table, and the joint check each
pair's cells once: every consumer reads the stored columns alone, each
weighted by its multiplicity (CutoffField.col_mult), and none joins the
mirror columns back in (the tests' every_column does).  Taken at the
cutoff's own bar grid, the quasimode's bar transform is each column's x1
profile at that column's node and 0 elsewhere; column_transforms writes
those profiles directly, so the stages that work on the bar-frequency side
take an x1 axis alone and synthesize nothing.  A column's profile is its
mirror's, so they transform the stored columns only (fio, wavelets, and
origin_value, the sweep's u(0)).  The position axes whose h-scaled FFT
lands on that grid, and the pointwise column sum (synthesize_at), are the
tests' oracles (tests/oracles.py).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (BoxTooSmallError, DimensionMismatchError,
                     EmptySupportError, GridBudgetError)
from .grids import WORK_BLOCK_BYTES, AxisSpec, cell_volume, node_arrays
from .symbols import PolySymbol, split_affine_x1

_TWO_PI = 2.0 * np.pi
_SNAP = 1e-9  # index-space nudge so exact band edges land reproducibly
# Rows per contraction block in each fold of synthesize_on_axes (the xi2
# fold's rows are columns), and output rows per tile of each fold product
# (_tile_product).  A fixed block makes the output bits independent of the
# BLAS thread count; a real table's (64 x <= 64) @ (<= 64 x N) tile stays on
# the calling thread.
_BLOCK = 64
# Cells per block of synthesize_on_axes's last fold, which makes the grid in
# whole x1 rows (one row a block when a row holds more), and support cells
# per verify_joint_quasimode chunk (one column a chunk when it holds more).
# A block is 64 KB complex and a chunk's power columns at orders 3 are
# 128 KB, so each per-point temporary stays within glibc's mmap threshold
# (128 KB, raised to the largest mapped chunk freed) and the heap reuses
# it; a 512 KB block (2^15 cells) is mapped and faulted in afresh at every
# call, thousands of minor faults a sweep pass.  A grid of 2^b blocks of
# 2^12 cells is still one np.sum's pairwise tree to BlockNorms.
_OUT_BLOCK = 1 << 12
_JOINT_CHUNK_CELLS = 1 << 12
# Most cells in a position grid synthesize_on_axes streams, in an array it
# allocates (256 MB complex) and in a bar grid build_cutoff evaluates on.
MAX_GRID_CELLS = 1 << 24
# Most xi1 points build_cutoff takes: every integer up to 2^53 is a float,
# so its xi1 index bounds are exact up to there.
_MAX_EXACT_INDEX = 1 << 53


def _check_grid_cells(shape: Sequence[int], what: str) -> None:
    total = math.prod(shape)
    if total > MAX_GRID_CELLS:
        raise GridBudgetError(
            f"{what} would hold {total} cells (> {MAX_GRID_CELLS})")


# -- h-scaling expressions -------------------------------------------------------

@dataclass(frozen=True)
class HExpr:
    """Sum of c * h^e terms; the box/spacing language of cutoff specs."""

    terms: tuple[tuple[float, float], ...]

    def __call__(self, h: float) -> float:
        return sum(c * h ** e for c, e in self.terms)


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
    """|symbol(xi)| <= h^alpha."""

    symbol: PolySymbol
    alpha: float

    def bound(self, h: float) -> float:
        return h ** self.alpha


@dataclass(frozen=True)
class FrequencyCutoff:
    """Conjunction of band constraints plus the enclosing box rules.

    Each constraint is split once, at construction, as c1*xi1 + r(xi2..xin)
    (splits, split_affine_x1; None where it is not of that form), and each
    bar axis's mirror closure is read off the symbols and the box (closed,
    _closure), so neither is redone at each h.
    """

    constraints: tuple[BandConstraint, ...]
    box: tuple[AxisRule, ...]
    splits: tuple[tuple[Fraction, PolySymbol] | None, ...] = \
        dataclasses.field(init=False, repr=False, compare=False)
    closed: tuple[bool, ...] = dataclasses.field(init=False, repr=False,
                                                 compare=False)

    def __post_init__(self):
        n = len(self.box)
        for c in self.constraints:
            if c.symbol.dim != n:
                raise DimensionMismatchError(
                    f"constraint dim {c.symbol.dim} != box dim {n}")
        splits = tuple(split_affine_x1(c.symbol) for c in self.constraints)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "closed", _closure(splits, self.box))

    def even_axes(self) -> tuple[bool, ...]:
        """Per axis, x1 first: whether |u| of the quasimode of every
        build_cutoff of this spec is even in it (_even_axes)."""
        return _even_axes(self.closed)


def _closure(splits, box: Sequence[AxisRule]) -> tuple[bool, ...]:
    """Per bar axis, 0 being xi2: whether the support is its own mirror
    image in that axis at every h, read off the spec, exactly (up to the
    rounding of nodes that fall on a band edge: build_cutoff).

    The axis's box rule must be centred on 0, its lo the term-by-term
    negation of its hi, so that the axis's centre is 0.0 at every h, and
    each constraint even in the axis's variable: a xi1-affine one's
    remainder r may hold it only to even powers (PolySymbol.odd_axes), so
    that a node and its mirror get the same xi1 run, while a xi1-free band
    |r| <= b may also hold it only to odd powers, |r| being even then (the
    slab's |xi_j| <= h^(1/2)).  A spec with a constraint of neither form
    has no closed axis.
    """
    def even(split, d: int) -> bool:
        if split is None:
            return False
        c1, rest = split
        return d not in rest.odd_axes() or (
            c1 == 0 and all(mono[d] % 2 for mono in rest.coeffs))

    return tuple(
        rule.lo.terms == tuple((-c, e) for c, e in rule.hi.terms)
        and all(even(split, d) for split in splits)
        for d, rule in enumerate(box[1:]))


def _even_axes(closed: Sequence[bool]) -> tuple[bool, ...]:
    """Per axis, x1 first, of a quasimode whose bar axes are closed as
    flagged: |u| is even in each closed bar axis, and in x1 once every bar
    axis is, since u's coefficients are real and so u(-x) = conj u(x)."""
    return (all(closed), *closed)


# -- columnar cutoff field --------------------------------------------------------

@dataclass
class CutoffField:
    """Sharp indicator support as xi1 index runs over bar-grid columns.

    axes[0] is the (virtual) xi1 axis; axes[1:] are materialized.  Only
    nonempty columns are stored, in the C order of the bar grid: col_coords
    holds their bar coordinates, col_start/col_count the first xi1 cell
    index and run length.  On each bar axis flagged in closed the support
    is its own mirror image, the column at bar index P - 1 - i of the
    axis's P holding the xi1 run of the one at i, and only the upper half
    (2i >= P - 1) is stored.  col_mult, derived from the coordinates, is
    how many support columns each stored one stands for: 2 per closed axis
    off its mirror plane, 1 on it (2i = P - 1, odd P).  closed is () when
    every column is stored.  cell_count, volume() and peak() are the
    whole support's, and every stage that reads the columns (the
    synthesis, the joint check, column_transforms and its consumers) reads
    the stored ones alone, weighted by col_mult: no stage expands the
    mirror images.
    """

    h: float
    axes: list[AxisSpec]
    col_coords: np.ndarray   # (K, n-1) float
    col_start: np.ndarray    # (K,) int64
    col_count: np.ndarray    # (K,) int64
    spec: FrequencyCutoff | None = None
    # Per bar axis: whether only its upper half is stored.
    closed: tuple[bool, ...] = ()
    col_mult: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        mult = np.ones(len(self.col_count), dtype=np.int64)
        for d, (axis, closed) in enumerate(zip(self.axes[1:], self.closed)):
            if closed:
                mult[_mirror_side(self.col_coords[:, d], axis) > 0] *= 2
        self.col_mult = mult

    @property
    def dim(self) -> int:
        return len(self.axes)

    def even_axes(self) -> tuple[bool, ...]:
        """Per axis, x1 first: whether |u| of the quasimode is even in it
        (_even_axes).  A field that stores every column has no even axis."""
        return _even_axes(self.closed or (False,) * (self.dim - 1))

    @property
    def cell_volume(self) -> float:
        return cell_volume(self.axes)

    @property
    def cell_count(self) -> int:
        return int(self.col_count @ self.col_mult)

    def volume(self) -> float:
        return self.cell_count * self.cell_volume

    def l2_norm(self) -> float:
        """Quadrature L2 norm of the indicator: sqrt(support volume)."""
        return math.sqrt(self.volume())

    def peak(self) -> float:
        """|u(0)| = (2 pi h)^(-n/2) sqrt(Vol) of the normalized quasimode,
        its global maximum by the triangle inequality."""
        return (_TWO_PI * self.h) ** (-self.dim / 2) * math.sqrt(self.volume())

    def xi1_first_node(self) -> np.ndarray:
        ax = self.axes[0]
        return ax.start + (self.col_start + 0.5) * ax.spacing

    def extent(self, axis: int) -> float:
        """max |xi_axis| over the support cells, the mirror columns'
        nodes included."""
        if axis == 0:
            first = self.xi1_first_node()
            last = first + (self.col_count - 1) * self.axes[0].spacing
            return float(max(np.abs(first).max(), np.abs(last).max()))
        coords = self.col_coords[:, axis - 1]
        if self.closed and self.closed[axis - 1]:
            bar = self.axes[axis]
            coords = np.concatenate([coords, bar.nodes()[
                bar.points - 1 - _bar_index(coords, bar)]])
        return float(np.abs(coords).max())


def build_cutoff(spec: FrequencyCutoff, h: float) -> CutoffField:
    """Indicator of the constraint conjunction on the spec's grid at this h.

    The constraints are evaluated on broadcast bar nodes, so every array is
    bar-grid shaped and none lists the grid's points: on a bar axis the
    spec closes (FrequencyCutoff.closed) only on its upper half, bar
    indices i with 2i >= P - 1 of its P, the lower half being their mirror
    image by construction.  The field stores those columns alone
    (CutoffField): about 2^-(n-1) of the support's when every bar axis is
    closed.  They are a whole-grid build's upper half, bit for bit, and
    their mirror images its lower half wherever node P - 1 - i lands its
    cells as node i does.  That holds when each node is the exact negation
    of its mirror node, and AxisSpec.nodes rounds start + (i + 1/2) *
    spacing, so for P not a power of two the two can differ in the last
    bit; only a node that falls on a band edge then lands differently.  A
    whole build keeps one of such a pair and drops the other (the slab at
    6 cells per band, h = 2^-4.37: nodes 1 and 13 of 15 on |xi_j| =
    h^(1/2)), and its support is not quite its own mirror image; this
    build takes the upper node's side for both.  Raises GridBudgetError when the evaluated bar grid
    holds more than MAX_GRID_CELLS cells, before any of its arrays is
    allocated, or the xi1 axis more than 2^53 points, before an index bound
    is cast, EmptySupportError when no cell qualifies, BoxTooSmallError
    when the support touches the box boundary (the configured box must
    enclose the constraint set; a closed axis's low face is its high face's
    mirror) and NotImplementedError when a constraint is neither affine in
    xi1 nor xi1-free.
    """
    if not 0 < h <= 1:
        raise ValueError("h must lie in (0, 1]")
    n = len(spec.box)
    if n < 2:
        raise DimensionMismatchError(
            "a cutoff needs one xi1 axis and at least one bar axis; "
            f"the box has dimension {n}")
    if None in spec.splits:
        raise NotImplementedError(
            "cutoff constraints must be affine in xi1 or xi1-free")
    axes = [rule.to_axis(h) for rule in spec.box]
    if axes[0].points > _MAX_EXACT_INDEX:
        raise GridBudgetError(
            f"xi1 axis would hold {axes[0].points} points at h={h} "
            f"(> 2^53, past which its float index bounds are not exact)")
    bar_axes = axes[1:]
    # The first bar index evaluated on each axis: P // 2 on a closed one.
    first = [a.points // 2 if c else 0 for a, c in zip(bar_axes, spec.closed)]
    shape = tuple(a.points - i0 for a, i0 in zip(bar_axes, first))
    _check_grid_cells(shape, "bar grid")
    bar_nodes = [x[(slice(None),) * d + (slice(i0, None),)] for d, (x, i0)
                 in enumerate(zip(node_arrays(bar_axes, n - 1), first))]
    lo = np.full(shape, -np.inf)
    hi = np.full(shape, np.inf)
    mask = np.ones(shape, dtype=bool)
    for c, (c1, rest) in zip(spec.constraints, spec.splits):
        b = c.bound(h)
        rvals = rest.eval_grid(bar_nodes)
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
    col_start, col_end = i_lo[nonempty], i_hi[nonempty]
    if (col_start < 0).any() or (col_end >= ax0.points).any():
        raise BoxTooSmallError(
            f"xi1 support leaves the configured box at h={h}")

    # Boundary check on the bar axes: support must stay off the outer layer.
    for d, i0 in enumerate(first):
        if np.take(nonempty, [-1] if i0 else [0, -1], axis=d).any():
            raise BoxTooSmallError(
                f"support reaches the box boundary on axis {d + 2} at h={h}")

    # np.nonzero walks the evaluated grid in C order, and so the stored
    # columns in the whole bar grid's C order.
    return CutoffField(
        h=h,
        axes=axes,
        col_coords=np.column_stack([a.nodes()[i0 + i] for a, i0, i in
                                    zip(bar_axes, first, np.nonzero(nonempty))]),
        col_start=col_start,
        col_count=col_end - col_start + 1,
        spec=spec,
        closed=spec.closed)


# -- mirror pairs ------------------------------------------------------------------

def _bar_index(coords: np.ndarray, axis: AxisSpec) -> np.ndarray:
    """The bar index i of each node coordinate on an axis."""
    return np.rint((coords - axis.start) / axis.spacing - 0.5).astype(np.int64)


def _mirror_side(coords: np.ndarray, axis: AxisSpec) -> np.ndarray:
    """2i - (P - 1) for the bar index i of each coordinate on an axis of P
    points, whose mirror index is P - 1 - i: > 0 above the mirror plane,
    0 on it."""
    return 2 * _bar_index(coords, axis) - (axis.points - 1)


# -- synthesis ---------------------------------------------------------------------

def _dirichlet(theta: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sum_{m=0}^{M-1} exp(i m theta), stable near theta = 2 pi l.

    theta and counts broadcast against each other; sin(theta/2) is taken
    once per theta, not once per (count, theta) pair.
    """
    theta, counts = np.asarray(theta, float), np.asarray(counts, float)
    half = 0.5 * theta
    den = np.sin(half)
    num = np.sin(counts * half)
    safe = np.abs(den) > 1e-8
    np.divide(num, den, out=num, where=safe)
    # l'Hopital at the Dirichlet singularities (theta ~ 0 mod 2 pi), and
    # only there.
    sing = np.broadcast_to(~safe, num.shape)
    c = np.broadcast_to(counts, num.shape)[sing]
    t = np.broadcast_to(half, num.shape)[sing]
    num[sing] = c * np.cos(c * t) / np.cos(t)
    return num * np.exp(1j * (counts - 1) * half)


def _aligned_x1(field: CutoffField, x1_axis: AxisSpec) -> np.ndarray:
    """The nodes of x1_axis, once the position grid of x1_axis times the
    field's bar grid, whose columns the callers take in blocks on the
    frequency side (column_transforms), is checked against MAX_GRID_CELLS
    (GridBudgetError) before anything x1-sized is allocated."""
    _check_grid_cells([x1_axis.points, *(a.points for a in field.axes[1:])],
                      "aligned position grid")
    return x1_axis.nodes()


def column_transforms(field: CutoffField, x1: np.ndarray
                      ) -> Iterator[tuple[slice, np.ndarray]]:
    """The normalized quasimode's bar transform at the x1 nodes x1 and the
    bar nodes of the stored columns, block by block: (block, u), u the
    (len(x1), columns) transform at the columns [block] in stored order,
    column c being

        u_c(x1) = dxi1 (2 pi h)^(-1/2) / ||chi||_2
                  * exp(i x1 xi1_first,c / h) * D_count,c(x1 dxi1 / h),

    D the run sum of _dirichlet.  Every column frequency is a node of the
    cutoff's bar grid, so this is the transform on that grid, and it is 0
    at every bar node that holds no column: no position field is needed,
    only the x1 nodes (_aligned_x1).  A column and its mirror on a closed
    axis have the same xi1 run, so the same u_c, and the stored column
    stands for both (CutoffField.col_mult).  A block holds a quarter
    working block of complex cells (grids.WORK_BLOCK_BYTES), or one column,
    so that a caller's few temporaries per block stay within one working
    block, below glibc's mmap threshold: blocks of a whole working block
    each were mapped and faulted in afresh, block after block.
    """
    h, dxi1 = field.h, field.axes[0].spacing
    first = field.xi1_first_node()
    counts = field.col_count
    scale = dxi1 / math.sqrt(_TWO_PI * h) / field.l2_norm()
    step = max(1, WORK_BLOCK_BYTES // (64 * max(1, len(x1))))
    for c0 in range(0, len(counts), step):
        block = slice(c0, c0 + step)
        u = np.exp(1j * np.outer(x1, first[block]) / h)
        u *= _dirichlet(x1[:, None] * (dxi1 / h), counts[block])
        u *= scale
        yield block, u


def origin_value(field: CutoffField) -> complex:
    """u(0), the normalized quasimode at the origin, from the stored
    columns alone: the sum of their bar transforms at x1 = 0
    (column_transforms), each counted col_mult times, times the bar cell
    volume and (2 pi h)^(-(n-1)/2).

    At x_bar = 0 every bar phase is 1, so the bar axes' inverse transform
    is that plain sum, and a column and its mirror have the same
    transform: the sum holds on an open axis too, such as the valley's
    xi2.  |u(0)| is peak() up to rounding, the sweep's peak identity.
    """
    total = 0j
    for block, u in column_transforms(field, np.zeros(1)):
        total += np.sum(u[0] * field.col_mult[block])
    return complex(total * cell_volume(field.axes[1:])
                   * (_TWO_PI * field.h) ** (-(field.dim - 1) / 2))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """First index of each run of equal rows in a sorted (R, m) key array."""
    return np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])


def _tile_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b, as one np.matmul over a stack of _BLOCK-row tiles of a
    (a reshape, no copy) and one more for the rows left over.

    OpenBLAS hands a product past a size floor to a second thread, which
    then spins for about 0.1 s after the call returns; a fold's whole
    product, such as the n = 3 sweep's (2048 x 19) @ (19 x 32) last fold,
    is past it.  A real tile, (64 x <= 64) @ (<= 64 x N), stayed on the
    calling thread for every N up to 128 (OpenBLAS 0.3.31, 2-core Xeon
    VM); a complex one is past the floor from M*N*K = 65536 on.  Each
    output element is the same K-term sum in whichever tile, so the bits
    are the whole product's, except that numpy sends a one-row product to
    gemv, whose sums differ from gemm's: a single row left over is
    therefore made together with the row before it.  out must be
    C-contiguous, so that its reshape is a view.
    """
    m = len(a) - len(a) % _BLOCK
    if m:
        np.matmul(a[:m].reshape(-1, _BLOCK, a.shape[1]), b,
                  out=out[:m].reshape(-1, _BLOCK, out.shape[1]))
    if m < len(a):
        rest = m - 1 if m and len(a) - m == 1 else m
        np.matmul(a[rest:], b, out=out[rest:])
    return out


def _fold_into(out: np.ndarray, rows_of, e: np.ndarray, value_of: np.ndarray,
               lo: int, hi: int) -> None:
    """out = sum over rows lo..hi-1 of rows_of(blk).T @ e[value_of[blk]].

    The rows go in fixed blocks of _BLOCK from lo, so the summation order is
    fixed, and each block's product is made in output tiles of _BLOCK rows
    (_tile_product), so that a real table's stays on the calling thread
    whatever the BLAS thread count.  A complex table's first block is
    written straight into out.  A real table (a paired axis's, _fold_table)
    contracts the float view of the complex rows, whose columns alternate
    real and imaginary parts, at half the multiply-adds of a complex
    product; the sum's real and imaginary rows are then interleaved into
    out.
    """
    real = e.dtype != complex
    acc = np.empty((2 * len(out), out.shape[1])) if real else out
    for b in range(lo, hi, _BLOCK):
        blk = slice(b, min(b + _BLOCK, hi))
        rows = rows_of(blk)
        if real:
            rows = rows.view(np.float64)
        if b == lo:
            _tile_product(rows.T, e[value_of[blk]], acc)
        else:
            acc += _tile_product(rows.T, e[value_of[blk]], np.empty_like(acc))
    if real:
        out.real, out.imag = acc[0::2], acc[1::2]


def _fold_table(values: np.ndarray, nodes: np.ndarray, h: float,
                weight: np.ndarray | None) -> np.ndarray:
    """A fold's table, one row per distinct leading key xi in values:
    exp(i x xi / h) at the position nodes x, or on a paired axis the real
    weight * cos(x xi / h), a mirror pair's exponentials summed."""
    if weight is None:
        return np.exp(1j * np.outer(values, nodes) / h)
    table = np.cos(np.outer(values, nodes) / h)
    table *= weight[:, None]
    return table


BlockConsumer = Callable[[slice, np.ndarray], None]


def synthesize_on_axes(field: CutoffField, axes: Sequence[AxisSpec],
                       consume: BlockConsumer) -> None:
    """The normalized quasimode on a product position grid (separable fast
    path).

    The column sum is a type-3 nonuniform Fourier sum over columnar support
    (Dutt & Rokhlin 1993), evaluated exactly by sum factorisation (Orszag
    1980): one fold per bar axis, xi2 included.  The fold of axis j+1 groups
    the current rows by their remaining coordinates (xi(j+2)..xin) and
    contracts each group against its rows' xi(j+1) exponentials,
    (N1*...*Nj x R_g) times (R_g x N(j+1)), written in C order with no
    transpose: R*N1*...*N(j+1) multiply-adds for the R rows it folds.  The
    xi2 fold's rows are the stored columns, each its xi1 run factor over the
    N1 x1 nodes: its start's phase row times its count's Dirichlet row,
    formed block by block and never held for all of them at once.

    A closed bar axis (CutoffField.closed) pairs its mirror columns, bar
    indices i and P - 1 - i of its P: closure gives them the same xi1 run,
    so their exponentials sum to 2 cos(x xi / h) at the upper node's xi.
    The field stores only the columns with 2i >= P - 1 on every closed
    axis, and a paired axis's table is the real w * cos(x xi / h), w = 2
    off the mirror plane and 1 on it (2i = P - 1, odd P).  The identity
    holds at any x, so the pairing does not depend on the position axes.
    A real table is contracted through the float view of the complex rows
    at half the multiply-adds of a complex one (_fold_into); an open axis,
    such as the valley's xi2, keeps its exp(i x xi / h) table over every
    value.  A field that stores every column pairs nothing.  The n = 3,
    k = 3 paraboloid at h = 2^-5 stores 289 of its 1,156 columns.

    The phase, Dirichlet and fold-table rows are tabled once per call over
    the distinct starts, counts and leading keys (19 xi2 rows serve those
    289 columns), so no fold evaluates a sin, cos or exp per row.  A 2D
    field is one fold of one group.  Rows are taken in increasing
    (xin, ..., xi(j+1)), and every reduction runs over fixed blocks of
    _BLOCK rows.  That fixes the summation order, and so every output bit,
    whatever the order of the stored columns or the BLAS thread count.
    Each block's product is one np.matmul over a stack of output tiles of
    _BLOCK rows (_tile_product), with the same bits: with paired real
    tables, as in every shipped sweep, no product of any fold reaches
    OpenBLAS's threading floor, so a default BLAS thread count wakes no
    second core to spin.

    The last fold, whose one group is every row, makes the grid in blocks
    of whole x1 rows, _OUT_BLOCK cells (64 KB) or one x1 row each, so that
    the heap reuses each block's buffers: a block is a
    C-order slice u[i0:i1] of the grid and a contiguous run of the last
    product's output rows, computed from the same run of its input's
    columns (for a 2D field, of the run factors' x1 nodes), scaled by
    (2 pi h)^(-n/2) * cellvol and then by 1/||chi||_2 (numpy divides a
    complex array by a real scalar as a multiply by its reciprocal, so
    these are a division's bits).  Its bits depend only on the grid.  Each
    block goes to consume(slice(i0, i1), block) in increasing i0, and no
    grid is built; block is a view of one buffer that the next block
    overwrites, so consume must not keep it.  The streamed grid, every
    fold's result, the run tables and each fold's table, all sized by the
    stored columns, are checked against MAX_GRID_CELLS before any of them is
    allocated, and each fold's input is released once the next fold is
    built.
    """
    if len(axes) != field.dim:
        raise DimensionMismatchError("axes dimension mismatch")
    shape = tuple(a.points for a in axes)
    _check_grid_cells(shape, "streamed position grid")
    x1 = axes[0].nodes()
    h = field.h
    ax0 = field.axes[0]
    paired = field.closed or (False,) * (field.dim - 1)
    # Stored columns by xin, ..., xi2: each fold's groups are runs of equal
    # keys after its leading one, taken in increasing leading key.
    order = np.lexsort(field.col_coords.T)
    keys = field.col_coords[order]
    folds, width = [], len(x1)
    for axis, bar_axis, pair in zip(axes[1:], field.axes[1:], paired):
        starts = _run_starts(keys[:, 1:])
        _check_grid_cells((len(starts), width, axis.points), "fold output")
        values, value_of = np.unique(keys[:, 0], return_inverse=True)
        weight = (np.where(_mirror_side(values, bar_axis) > 0, 2.0, 1.0)
                  if pair else None)
        folds.append((axis, width, starts, values, value_of, weight))
        keys = keys[starts, 1:]
        width *= axis.points
    # The run factor depends on a column only through its count, the phase
    # only through its start and an exponential only through its row's
    # leading key: one table row per distinct value of each.
    counts, count_of = np.unique(field.col_count[order], return_inverse=True)
    xi1_starts, start_of = np.unique(field.col_start[order], return_inverse=True)
    _check_grid_cells((len(counts) + len(xi1_starts), len(x1)), "run tables")
    for axis, _, _, values, _, _ in folds:
        _check_grid_cells((len(values), axis.points), "exponential table")
    first = ax0.start + (xi1_starts + 0.5) * ax0.spacing
    tables = (np.exp(1j * np.outer(first, x1) / h),
              _dirichlet(x1[None, :] * (ax0.spacing / h), counts[:, None]))
    flat = None

    def rows_of(blk, cols=slice(None)):
        if flat is None:
            # Phase first: a complex product's rounding depends on operand
            # order, and this order gives the untabled sum's bits.  The
            # product goes into the gathered phase rows: one array fewer.
            phases, runs = tables
            rows = phases[start_of[blk], cols]
            rows *= runs[count_of[blk], cols]
            return rows
        return flat[blk, cols]

    for axis, width, starts, values, value_of, weight in folds[:-1]:
        e = _fold_table(values, axis.nodes(), h, weight)
        folded = np.empty((len(starts), width, axis.points), dtype=complex)
        for out, lo, hi in zip(folded, starts, np.r_[starts[1:], len(value_of)]):
            _fold_into(out, rows_of, e, value_of, lo, hi)
        flat, tables = folded.reshape(len(starts), -1), None

    axis, _, _, values, value_of, weight = folds[-1]
    e = _fold_table(values, axis.nodes(), h, weight)
    scale = field.cell_volume * (_TWO_PI * h) ** (-field.dim / 2)
    inv_norm = 1.0 / field.l2_norm()
    # The last fold's x1 blocks: per_row output rows of it per x1 row.
    per_row = math.prod(shape[1:-1])
    step = max(1, _OUT_BLOCK // math.prod(shape[1:]))
    outs = np.empty((min(step, len(x1)) * per_row, axis.points), dtype=complex)
    for i0 in range(0, len(x1), step):
        i1 = min(i0 + step, len(x1))
        cols = slice(i0 * per_row, i1 * per_row)
        out = outs[:cols.stop - cols.start]
        _fold_into(out, lambda blk: rows_of(blk, cols), e, value_of,
                   0, len(value_of))
        out *= scale
        out *= inv_norm
        consume(slice(i0, i1), out.reshape((i1 - i0,) + shape[1:]))


def _power_columns(x: np.ndarray, m: int) -> np.ndarray:
    """C-order (len(x), m) array of x^0 .. x^(m-1), one column at a time.

    Array-equal to np.vander(x, m, increasing=True), whose multiply.accumulate
    along each short row costs several times this fill.  The C order keeps
    the a.T @ b contraction of the joint check on the same bits.
    """
    out = np.empty((len(x), m))
    out[:, 0] = 1.0
    for j in range(1, m):
        np.multiply(out[:, j - 1], x, out=out[:, j])
    return out


def verify_joint_quasimode(qm: CutoffField, orders: int) -> np.ndarray:
    """||p1^M1 p2^M2 chi||_2 / (h^(M1+M2) ||chi||_2) on the frequency side.

    Returns the (orders+1, orders+1) matrix of these ratios indexed
    [M1, M2], from one pass over the support: p1^2 and p2^2 (in units of
    h^2) are formed at every support cell, and the power columns 0..orders
    of each are contracted against the other.  p1 and p2 are the cutoff's
    first two band symbols.  Each splits as p = c1*xi1 + r(xi2..xin), once
    per spec (FrequencyCutoff.splits), so r is evaluated once per call, on
    every stored column, and spread over each column's xi1 run.  On a
    closed bar axis r is even in its variable when c1 != 0, and even or odd
    when c1 = 0 (FrequencyCutoff.closed), so p^2 takes the same values at a
    column's cells and at its mirror's: only the stored columns are summed,
    each cell's power row weighted by its column's multiplicity
    (CutoffField.col_mult).  The [0, 0] entry so sums integers to the cell
    count exactly, and is 1.0.  Whole stored columns go in chunks of up to
    _JOINT_CHUNK_CELLS support cells (one column when it alone holds more),
    each taking its slice of r's values, so the temporaries stay bounded
    whatever n is; the ratio matrix and a chunk's power columns are checked
    against MAX_GRID_CELLS before either is allocated, so orders is bounded
    too.
    Midpoint membership makes |p_j| <= h hold at every support node, so
    each ratio is <= 1 up to rounding; values above 1 + boundary slack
    indicate a broken cutoff.  qm is the quasimode's cutoff.
    """
    field = qm
    if orders < 0:
        raise ValueError("orders must be nonnegative")
    if field.spec is None or len(field.spec.constraints) < 2:
        raise ValueError("cutoff spec with two band constraints required")
    splits = field.spec.splits[:2]
    _check_grid_cells((orders + 1, orders + 1), "joint ratio matrix")
    stored_count = field.col_count
    chunk = max(_JOINT_CHUNK_CELLS, int(stored_count.max()))
    _check_grid_cells((min(chunk, int(stored_count.sum())), orders + 1),
                      "power columns")
    h = field.h
    ax0 = field.axes[0]
    total = np.zeros((orders + 1, orders + 1))
    rests = [rest.eval_grid(list(field.col_coords.T)) for _, rest in splits]
    ends = np.cumsum(stored_count)
    lo = 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(
            ends, (ends[lo - 1] if lo else 0) + _JOINT_CHUNK_CELLS, "right")))
        counts = stored_count[lo:hi]
        # xi1 cell index: the column's start plus the offset into its run.
        run_ends = np.cumsum(counts)
        idx = np.arange(run_ends[-1]) + np.repeat(
            field.col_start[lo:hi] - (run_ends - counts), counts)
        xi1 = ax0.start + (idx + 0.5) * ax0.spacing
        a, b = [_power_columns(((float(c1) * xi1
                                 + np.repeat(r[lo:hi], counts)) / h) ** 2,
                               orders + 1)
                for (c1, _), r in zip(splits, rests)]
        a *= np.repeat(field.col_mult[lo:hi], counts)[:, None]
        total += a.T @ b
        lo = hi
    return np.sqrt(total * field.cell_volume) / field.l2_norm()

"""Flattening conjugation for x-independent graph symbols.

With a1 independent of x the conjugating family is the exact frequency
multiplier W(x1) = exp(-i*x1*a1(hD_bar)/h): it is unitary on every bar
slice, W(0) = Id, its adjoint is W for -a1, and conjugation sends
a2(hD_bar) to itself, so the transported observable is exactly a1 - a2 (no
O(h) remainder to model).  Applied to a quasimode u of hD_x1 - a1(hD_bar),
the slice-wise transform v(x1,.) = W(x1) u(x1,.) is a quasimode of hD_x1;
FlatteningCheck verifies that quantitatively with centered finite
differences in x1.  It is fed u by synthesize_on_axes in blocks of x1 rows
and transforms each row along the bar axes once: the differences act on
x1 alone and W and a1(hD_bar) are diagonal in xi_bar, so v's transform is
W times u's, and every norm is taken on the frequency side (Parseval).
The norms are streamed into analysis.PairwiseSums, so neither the field
nor any |.|^2 array over the grid is held, and they keep the bits of
whole-array sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import PairwiseSum
from .errors import DimensionMismatchError
from .grids import (WORK_BLOCK_BYTES, AxisSpec, cell_volume, dual_axis,
                    ft_axes, node_arrays)
from .quasimode import CutoffField, _check_grid_cells, synthesize_on_axes
from .symbols import PolySymbol


def x1_points(half_width: float, max_spacing: float) -> int:
    """The power-of-two x1 count of aligned_position_axes: the fewest cells
    over [-half_width, half_width] no wider than max_spacing, rounded up."""
    return 1 << max(1, math.ceil(2 * half_width / max_spacing) - 1).bit_length()


def aligned_position_axes(cutoff, x1_half_width: float,
                          x1_max_spacing: float) -> list[AxisSpec]:
    """Position axes whose bar duals coincide with the cutoff's bar grid.

    Synthesis then lands every column frequency exactly on a dual node, so
    slice transforms recover the column amplitudes with zero leakage; the
    x1 finite differences that follow see only the physical band.  The
    cutoff's bar axes must be power-of-two (build with pow2=True) and are
    centered, so dual-of-dual returns them exactly.  x1 gets a power-of-two
    count honoring the requested spacing bound.
    """
    axes = [AxisSpec(0.0, x1_half_width, x1_points(x1_half_width, x1_max_spacing))]
    for bar in cutoff.axes[1:]:
        axes.append(dual_axis(bar, cutoff.h))
    return axes


# -- finite-difference quasimode diagnostics ------------------------------------

def hd_x1(data: np.ndarray, h: float, dx: float,
          out: np.ndarray | None = None) -> np.ndarray:
    """hD_x1 by the centered difference along axis 0 of the samples data of
    an x1 grid of spacing dx; (hD_x1)^M is M of them in turn.

    Returns the interior samples only (one row trimmed per side); the
    symmetric difference of a band-limited signal underestimates |xi1|, so
    quadrature norms of the result sit below the exact operator norm.  The
    difference, its h/i product and its division are written into one
    array: a new one, or out (complex, of the result's shape).
    """
    diff = np.subtract(data[2:], data[:-2], dtype=complex, out=out)
    np.multiply(h / 1j, diff, out=diff)
    return np.divide(diff, 2.0 * dx, out=diff)


@dataclass(frozen=True)
class FlatteningReport:
    """Quantitative x1-quasimode check for v = W u on a grid."""

    order: int
    ratio: float              # ||(hD_x1)^M v|| / (h^M ||u||)
    slack: float              # stated discretization allowance
    identity_residual: float  # ||hD v - W (hD - a1(hD)) u|| / ||u||
    identity_bound: float     # self-calibrated O((dx/h)^2) allowance


class FlatteningCheck:
    """Check ||(hD_x1)^M v|| <= h^M ||u|| + slack and the discrete
    intertwining for a field u on axes at h, fed in blocks of whole x1 rows.

    The slack covers the centered-difference error ((dx1/h)^2/6 per
    application) plus box truncation; the intertwining residual compares
    hD_x1 v against W(x1)(hD_x1 - a1(hD_bar)) u computed with the same
    difference stencil, bounded by a term-by-term estimate evaluated on the
    data itself.  Each order M needs 2M < n1 x1 rows, so that an interior
    row is left; a ValueError says so otherwise.  A grid over the synthesis
    budget is refused (GridBudgetError) before anything is allocated.  W's
    rows and a1(hD_bar) both come from one table of a1 on the bar duals.

    add(rows, block) takes block = u[rows] for the next run rows of x1
    indices; the blocks must tile the grid in order, and a block may be
    overwritten once add returns (synthesize_on_axes's consumer contract).
    A block is taken in steps of at most one working block of complex
    cells (grids.WORK_BLOCK_BYTES: 256 x1 rows of 64 cells).  Each step
    bar-transforms its rows once, after the last 2 * max(orders) rows of
    u_hat carried from the step before, and finishes the interior rows
    whose halos it completes: their W rows, v_hat = W u_hat, the x1
    differences of every order, a1 u_hat and the intertwining right-hand
    side.  The transform acts row by row and the rest is elementwise, so
    every row is the whole grid's row bit for bit.  These arrays live in a
    few work arrays of one step and its halos each, kept to the end, so
    the producer's blocks do not size them.  ||u|| and each interior norm
    is one PairwiseSum of |.|^2, fed row by row: the bits of one sum over
    a whole array, with no whole field and no full-length |.|^2 array
    held.  reports() gives one FlatteningReport per order once every row
    is in.
    """

    def __init__(self, a1: PolySymbol, h: float, axes: Sequence[AxisSpec],
                 orders: tuple[int, ...] = (1, 2)):
        if len(axes) != a1.dim + 1:
            raise DimensionMismatchError(
                f"field dim {len(axes)} != symbol dim {a1.dim} + 1")
        _check_grid_cells([ax.points for ax in axes], "streamed position grid")
        n1 = axes[0].points
        self.halo = max(orders)
        if 2 * self.halo >= n1:
            raise ValueError(f"order {self.halo} needs more than "
                             f"{2 * self.halo} x1 rows, and the grid has {n1}")
        self.h, self.orders = h, tuple(orders)
        self.axes = list(axes)
        dim = len(axes)
        self.x1, = node_arrays(axes[:1], dim)
        duals = [dual_axis(ax, h) for ax in axes[1:]]
        self.a_bar = a1.eval_grid(node_arrays(duals, len(duals)))
        # The quadrature weight of one cell of x1 and the bar duals.
        self.cell = axes[0].spacing * cell_volume(duals)
        self.row_shape = tuple(ax.points for ax in axes[1:])
        cells = math.prod(self.row_shape)
        # |.|^2 sums by key, with the x1 rows [r, n1 - r) each covers: u,
        # then the interior of each order, and for M = 1 the residual and
        # the bound's midpoint gap.
        self.check_identity = 1 in orders
        first_row = {"u": 0, **{m: m for m in orders}}
        if self.check_identity:
            first_row.update(resid=1, gap=1)
        self.sums = {key: (PairwiseSum((n1 - 2 * r) * cells), r, n1 - r)
                     for key, r in first_row.items()}
        self.next_row = 0   # x1 rows of u fed
        self.done = 0       # interior x1 rows summed
        self.kept = 0       # first x1 row of u kept in the "u" work array
        # x1 rows per step of add: one working block of complex cells.
        self.step = max(1, WORK_BLOCK_BYTES // (16 * cells))
        # A step's rows and the halos carried with them: the rows of every
        # work array, allocated at its first use and kept to the end.
        self.capacity = min(n1, self.step + 2 * self.halo)
        self.work = {}
        self.sq = np.empty(self.capacity * cells)

    def _work(self, name: str, rows: int) -> np.ndarray:
        """The first rows rows of the complex work array name."""
        buf = self.work.get(name)
        if buf is None:
            buf = self.work[name] = np.empty(
                (self.capacity,) + self.row_shape, dtype=complex)
        return buf[:rows]

    def _add_abs_sq(self, key, src: np.ndarray, src_row0: int,
                    rows: range) -> None:
        """Feed |src[r - src_row0]|^2 to the sum of key for the x1 rows r
        of rows that it covers."""
        total, first, last = self.sums[key]
        lo, hi = max(rows.start, first), min(rows.stop, last)
        if lo < hi:
            part = src[lo - src_row0:hi - src_row0]
            out = np.abs(part, out=self.sq[:part.size].reshape(part.shape))
            total.add(np.square(out, out=out))

    def add(self, rows: slice, block: np.ndarray) -> None:
        i0, i1 = rows.start, rows.stop
        if i0 != self.next_row or block.shape != (i1 - i0,) + self.row_shape:
            raise ValueError("blocks must tile the grid's first axis in order")
        for s0 in range(i0, i1, self.step):
            s1 = min(s0 + self.step, i1)
            self._add_step(s0, s1, block[s0 - i0:s1 - i0])

    def _add_step(self, i0: int, i1: int, block: np.ndarray) -> None:
        """add for the x1 rows [i0, i1), at most one step of them."""
        n1, halo = self.axes[0].points, self.halo
        self.next_row = i1
        # u_hat's rows [lo, i1): those kept from earlier blocks, then this
        # one's bar transform.  They hold the halo of self.halo rows per
        # side of every x1 row from done to stop - 1.
        lo = self.kept
        u = self._work("u", i1 - lo)
        ft_axes(block, self.axes[1:], self.h, out=u[i0 - lo:])
        self._add_abs_sq("u", u[i0 - lo:], i0, range(i0, i1))
        stop = n1 if i1 == n1 else max(self.done, i1 - halo)
        if stop > self.done:
            self._rows(u, lo, range(self.done, stop))
            self.done = stop
        self.kept = max(0, stop - halo)
        u[:i1 - self.kept] = u[self.kept - lo:]

    def _rows(self, u: np.ndarray, lo: int, rows: range) -> None:
        """Sum the interior x1 rows of rows from u, the bar transform of the
        grid's x1 rows [lo, lo + len(u)), which hold their halos."""
        h, dx, n = self.h, self.axes[0].spacing, len(u)
        # W's rows, exp(-i*x1*a1/h): numpy divides by h as this *= does.
        w = np.multiply(-1j * self.x1[lo:lo + n], self.a_bar,
                        out=self._work("w", n))
        w *= 1.0 / h
        np.exp(w, out=w)
        dv = np.multiply(w, u, out=self._work("v", n))
        # (hD_x1)^m v is hd_x1 of (hD_x1)^(m-1) v.  m = 1 keeps its array
        # for the residual; the later orders take turns in "v", free once
        # m = 1 is formed, and "d2".
        for m in range(1, self.halo + 1):
            dv = hd_x1(dv, h, dx, self._work(
                "d1" if m == 1 else ("v", "d2")[m % 2], max(0, n - 2 * m)))
            if m in self.orders:
                self._add_abs_sq(m, dv, lo + m, rows)
        if not self.check_identity:
            return
        # W (hD_x1 - a1) u, in place in "v", and the residual hD v minus it.
        rhs = hd_x1(u, h, dx, self._work("v", n - 2))
        np.subtract(rhs, np.multiply(self.a_bar, u[1:-1],
                                     out=self._work("d2", n - 2)), out=rhs)
        np.multiply(w[1:-1], rhs, out=rhs)
        self._add_abs_sq("resid", np.subtract(
            self._work("d1", n - 2), rhs, out=rhs), lo + 1, rows)
        mid_gap = np.add(u[2:], u[:-2], out=self._work("d2", n - 2))
        np.multiply(0.5, mid_gap, out=mid_gap)
        np.subtract(u[1:-1], mid_gap, out=mid_gap)
        self._add_abs_sq("gap", mid_gap, lo + 1, rows)

    def reports(self) -> list[FlatteningReport]:
        if self.next_row != self.axes[0].points:
            raise ValueError("blocks must tile the grid's first axis in order")
        h, dx = self.h, self.axes[0].spacing

        def norm(key) -> float:
            """The quadrature L2 norm whose |.|^2 key summed."""
            return float(np.sqrt(self.sums[key][0].total() * self.cell))

        u_norm = norm("u")
        fd_rel = (dx / h) ** 2 / 6.0
        ratios = {m: norm(m) / (h ** m * u_norm) for m in self.orders}
        nan = float("nan")
        resid = bound = nan
        if self.check_identity:
            resid = norm("resid") / u_norm
            # |W (hD - a) u - hD(Wu)| <= |a|max * |u - avg(u+, u-)| + dx*a^2/(2h)*|u|.
            amax = float(np.abs(self.a_bar).max())
            d1 = amax * norm("gap")
            d2 = dx * amax ** 2 / (2 * h) * u_norm
            bound = 1.5 * (d1 + d2) / u_norm + 1e-12
        return [FlatteningReport(m, ratios[m], m * fd_rel + 0.05,
                                 resid if m == 1 else nan,
                                 bound if m == 1 else nan)
                for m in self.orders]


def flattening_reports(a1: PolySymbol, field: CutoffField,
                       axes: Sequence[AxisSpec],
                       orders: tuple[int, ...] = (1, 2)) -> list[FlatteningReport]:
    """FlatteningCheck's reports on the quasimode of the cutoff field on
    axes, which synthesize_on_axes hands over block by block: no grid is
    built."""
    check = FlatteningCheck(a1, field.h, axes, orders)
    synthesize_on_axes(field, axes, check.add)
    return check.reports()

"""Flattening conjugation for x-independent graph symbols.

With a1 independent of x the conjugating family is the exact frequency
multiplier W(x1) = exp(-i*x1*a1(hD_bar)/h): it is unitary on every bar
slice, W(0) = Id, its adjoint is W for -a1, and conjugation sends
a2(hD_bar) to itself, so the transported observable is exactly a1 - a2 (no
O(h) remainder to model).  Applied to a quasimode u of hD_x1 - a1(hD_bar),
the slice-wise transform v(x1,.) = W(x1) u(x1,.) is a quasimode of hD_x1;
flattening_reports verifies that quantitatively with centered finite
differences in x1.  The differences act on x1 alone and W and a1(hD_bar)
are diagonal in xi_bar, so the check runs on the frequency side, where
every norm is taken (Parseval), at the cutoff's own bar grid: there u's
bar transform is each column's x1 profile at that column's node and 0 at
every other node, so each column is a 1D problem in x1 on the x1 axis
(x1_axis) and no position field is synthesized.  A column and its mirror
on a closed bar axis in whose variable a1 holds only even powers pose the
same problem, so only the cutoff's stored columns are checked, each
weighted by the columns it stands for (CutoffField.col_mult).  An a1 that
holds an odd power of a closed axis's variable is refused: such a check
needs a field that stores every column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .grids import AxisSpec, cell_volume, node_arrays
from .quasimode import CutoffField, _aligned_x1, column_transforms
from .symbols import PolySymbol


def x1_axis(half_width: float, max_spacing: float) -> AxisSpec:
    """The x1 axis of the frequency-side checks: [-half_width, half_width]
    in the fewest cells no wider than max_spacing, their count rounded up
    to a power of two."""
    points = 1 << max(1, math.ceil(2 * half_width / max_spacing) - 1).bit_length()
    return AxisSpec(0.0, half_width, points)


# -- finite-difference quasimode diagnostics ------------------------------------

def hd_x1(data: np.ndarray, h: float, dx: float) -> np.ndarray:
    """hD_x1 by the centered difference along axis 0 of the samples data of
    an x1 grid of spacing dx; (hD_x1)^M is M of them in turn.

    Returns the interior samples only (one row trimmed per side); the
    symmetric difference of a band-limited signal underestimates |xi1|, so
    quadrature norms of the result sit below the exact operator norm.
    """
    diff = np.subtract(data[2:], data[:-2], dtype=complex)
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


def _abs_sq_sum(data: np.ndarray, weight: np.ndarray) -> float:
    """The sum of weight * |data|^2, one weight per column of data, in one
    numpy reduction."""
    sq = np.abs(data)
    np.square(sq, out=sq)
    sq *= weight
    return float(np.sum(sq))


def flattening_reports(a1: PolySymbol, field: CutoffField, x1_axis: AxisSpec,
                       orders: tuple[int, ...]) -> list[FlatteningReport]:
    """Check ||(hD_x1)^M v|| <= h^M ||u|| + slack and the discrete
    intertwining for the quasimode u of the cutoff field on the x1 axis
    x1_axis, one FlatteningReport per order.

    The slack covers the centered-difference error ((dx1/h)^2/6 per
    application) plus box truncation; the intertwining residual compares
    hD_x1 v against W(x1)(hD_x1 - a1(hD_bar)) u computed with the same
    difference stencil, bounded by a term-by-term estimate evaluated on the
    data itself, with max |a1| over the bar grid.  Each order M needs
    2M < n1 x1 rows, so that an interior row is left; a ValueError says so
    otherwise.  A symbol that does not act on the field's bar axes is a
    DimensionMismatchError, one that holds an odd power of a closed bar
    axis's variable (CutoffField.closed) a ValueError naming the axis, and
    a grid over the budget is refused (quasimode._aligned_x1).

    The columns go in the blocks of quasimode.column_transforms, a quarter
    working block of complex cells each.  For each column c its x1 profile
    u_c is a 1D problem: W_c = exp(-i x1 a1(xi_bar_c)/h), v_c = W_c u_c,
    its differences of every order, the residual
    hD v_c - W_c (hD u_c - a1 u_c) and the midpoint gap of u_c.  A column
    and its mirror on a closed axis have the same u_c and, a1 being even in
    the axis's variable, the same a1 value, so the same terms: only the
    stored columns are taken, each |.|^2 weighted by the number of columns
    it stands for (CutoffField.col_mult); the fio config's a1, the
    paraboloid's |xi_bar|^2, is even in every axis.  Every |.|^2 is summed
    per block by numpy, so the bits do not depend on the BLAS thread count,
    and weighted by the cell of x1 times the bar grid's; the other bar
    nodes hold 0 and add nothing.
    """
    if a1.dim != field.dim - 1:
        raise DimensionMismatchError(
            f"field dim {field.dim} != symbol dim {a1.dim} + 1")
    odd = sorted(d for d in a1.odd_axes() if field.closed and field.closed[d])
    if odd:
        raise ValueError(
            f"a1 holds an odd power of xi{odd[0] + 2}, a closed axis on "
            "which the field stores only the upper half of its columns")
    x1 = _aligned_x1(field, x1_axis)
    top = max(orders)
    if 2 * top >= len(x1):
        raise ValueError(f"order {top} needs more than {2 * top} x1 rows, "
                         f"and the grid has {len(x1)}")
    h, dx, bar = field.h, x1_axis.spacing, field.axes[1:]
    a_cols = a1.eval_grid(list(field.col_coords.T))
    sums = dict.fromkeys(("u", "resid", "gap", *orders), 0.0)
    for block, u in column_transforms(field, x1):
        a, mult = a_cols[block], field.col_mult[block]
        w = np.multiply(-1j * x1[:, None], a)
        w *= 1.0 / h
        np.exp(w, out=w)
        sums["u"] += _abs_sq_sum(u, mult)
        dv = np.multiply(w, u)
        for m in range(1, top + 1):
            dv = hd_x1(dv, h, dx)
            if m == 1:
                hd_v = dv
            if m in orders:
                sums[m] += _abs_sq_sum(dv, mult)
        if 1 in orders:
            rhs = np.multiply(w[1:-1], hd_x1(u, h, dx) - a * u[1:-1])
            sums["resid"] += _abs_sq_sum(hd_v - rhs, mult)
            sums["gap"] += _abs_sq_sum(u[1:-1] - 0.5 * (u[2:] + u[:-2]), mult)

    cell = dx * cell_volume(bar)

    def norm(key) -> float:
        """The quadrature L2 norm whose |.|^2 key summed."""
        return float(np.sqrt(sums[key] * cell))

    u_norm = norm("u")
    fd_rel = (dx / h) ** 2 / 6.0
    nan = float("nan")
    resid = bound = nan
    if 1 in orders:
        resid = norm("resid") / u_norm
        # |W (hD - a) u - hD(Wu)| <= |a|max * |u - avg(u+, u-)| + dx*a^2/(2h)*|u|.
        amax = float(np.abs(a1.eval_grid(node_arrays(bar, len(bar)))).max())
        d1 = amax * norm("gap")
        d2 = dx * amax ** 2 / (2 * h) * u_norm
        bound = 1.5 * (d1 + d2) / u_norm + 1e-12
    return [FlatteningReport(m, norm(m) / (h ** m * u_norm), m * fd_rel + 0.05,
                             resid if m == 1 else nan,
                             bound if m == 1 else nan)
            for m in orders]

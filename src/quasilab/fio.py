"""Flattening conjugation for x-independent graph symbols.

With a1 independent of x the conjugating family is the exact frequency
multiplier W(x1) = exp(-i*x1*a1(hD_bar)/h): it is unitary on every bar
slice, W(0) = Id, its adjoint is W for -a1, and conjugation sends
a2(hD_bar) to itself, so the transported observable is exactly a1 - a2 (no
O(h) remainder to model).  Applied to a quasimode u of hD_x1 - a1(hD_bar),
the slice-wise transform v(x1,.) = W(x1) u(x1,.) is a quasimode of hD_x1;
the reports below verify that quantitatively with centered finite
differences in x1.  They form v block by block of x1 rows: W on a block
and a1(hD_bar) itself are both one multiplier applied by
grids.apply_multiplier, at the field's h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .grids import AxisSpec, GridField, apply_multiplier, dual_axis, node_arrays
from .symbols import PolySymbol

# Cells per x1 row block of flattening_reports (one row when a row holds more).
_ROW_BLOCK = 1 << 15


def _w_multiplier(a1: PolySymbol, h: float, x1: np.ndarray):
    """xi_bar -> exp(-i*x1*a1(xi_bar)/h), with the x1 nodes shaped to
    broadcast against the bar nodes."""
    def m(*xi: np.ndarray) -> np.ndarray:
        avals = -1j * x1 * a1.eval_grid(xi)
        # numpy divides by a real scalar as this multiply: same bits, faster.
        avals *= 1.0 / h
        return np.exp(avals, out=avals)
    return m


def _check_field(a1: PolySymbol, u: GridField) -> None:
    """u's axes from 1 on are a1's bar axes."""
    if u.dim != a1.dim + 1:
        raise DimensionMismatchError(
            f"field dim {u.dim} != symbol dim {a1.dim} + 1")


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

def hd_x1(data: np.ndarray, h: float, dx: float, order: int = 1) -> np.ndarray:
    """(hD_x1)^order by iterated centered differences along axis 0 of the
    samples data of an x1 grid of spacing dx.

    Returns the interior samples only (order rows trimmed per side); the
    symmetric difference of a band-limited signal underestimates |xi1|, so
    quadrature norms of the result sit below the exact operator norm.  Each
    order writes its difference, its h/i product and its division into one
    array.
    """
    for _ in range(order):
        diff = np.subtract(data[2:], data[:-2], dtype=complex)
        np.multiply(h / 1j, diff, out=diff)
        data = np.divide(diff, 2.0 * dx, out=diff)
    return data


def _abs_sq_rows(dst: np.ndarray, dst_row0: int, src: np.ndarray,
                 src_row0: int, rows: range) -> None:
    """dst[r - dst_row0] = |src[r - src_row0]|^2 for the x1 rows r of rows
    that dst holds."""
    lo = max(rows.start, dst_row0)
    hi = min(rows.stop, dst_row0 + len(dst))
    if lo < hi:
        out = dst[lo - dst_row0:hi - dst_row0]
        np.abs(src[lo - src_row0:hi - src_row0], out=out)
        np.square(out, out=out)


def _norm(sq: np.ndarray, cell_volume: float) -> float:
    """The quadrature L2 norm of the field whose |.|^2 is sq."""
    return float(np.sqrt(np.sum(sq) * cell_volume))


@dataclass(frozen=True)
class FlatteningReport:
    """Quantitative x1-quasimode check for v = W u on a grid."""

    order: int
    ratio: float              # ||(hD_x1)^M v|| / (h^M ||u||)
    slack: float              # stated discretization allowance
    identity_residual: float  # ||hD v - W (hD - a1(hD)) u|| / ||u||
    identity_bound: float     # self-calibrated O((dx/h)^2) allowance


def flattening_reports(a1: PolySymbol, u: GridField,
                       orders: tuple[int, ...] = (1, 2)) -> list[FlatteningReport]:
    """Check ||(hD_x1)^M v|| <= h^M ||u|| + slack and the discrete intertwining.

    The slack covers the centered-difference error ((dx1/h)^2/6 per
    application) plus box truncation; the intertwining residual compares
    hD_x1 v against W(x1)(hD_x1 - a1(hD_bar)) u computed with the same
    difference stencil, bounded by a term-by-term estimate evaluated on the
    data itself.  Each order M needs 2M < n1 x1 rows, so that an interior
    row is left; a ValueError says so otherwise.

    The x1 axis goes in blocks of whole rows, about _ROW_BLOCK cells each,
    read with a halo of max(orders) rows per side.  A block forms its own W
    rows (W is elementwise in (x1, xi), and its interior rows serve the
    residual), v = W u, the x1 differences of every order (each from the
    order below it), a1(hD_bar) u and the intertwining right-hand side.
    The bar transforms act row by row and the rest is elementwise, so a
    block's rows are the whole grid's rows bit for bit.  Each interior |.|^2 goes into one full-length real array,
    summed whole once every block is in: the norms keep the bits of one sum
    over the whole grid, and no whole-grid complex temporary is formed.
    """
    _check_field(a1, u)
    n1 = u.axes[0].points
    halo = max(orders)
    if 2 * halo >= n1:
        raise ValueError(f"order {halo} needs more than {2 * halo} x1 rows, "
                         f"and the grid has {n1}")
    h = u.h
    dx = u.axes[0].spacing
    cell = u.cell_volume
    u_norm = u.l2_norm()
    fd_rel = (dx / h) ** 2 / 6.0
    bar = u.axes[1:]
    x1, = node_arrays(u.axes[:1], u.dim)
    duals = [dual_axis(ax, h) for ax in bar]
    xi = node_arrays(duals, u.dim, 1)
    # Interior |.|^2 by key, with the x1 row of its first entry: one array
    # per order, and for M = 1 the residual and the bound's midpoint gap.
    check_identity = 1 in orders
    first_row = {m: m for m in orders}
    if check_identity:
        first_row.update(resid=1, gap=1)
    sq = {key: (np.empty((n1 - 2 * r,) + u.data.shape[1:]), r)
          for key, r in first_row.items()}
    step = max(1, _ROW_BLOCK // u.data[0].size)
    for r0 in range(0, n1, step):
        rows = range(r0, min(r0 + step, n1))
        lo, hi = max(0, r0 - halo), min(n1, rows.stop + halo)
        chunk = u.data[lo:hi]
        w = _w_multiplier(a1, h, x1[lo:hi])(*xi)
        dv, done = apply_multiplier(chunk, bar, h, lambda *_: w, first=1), 0
        for m in sorted(set(orders)):
            # (hD_x1)^m v from (hD_x1)^done v: hd_x1 takes the same
            # differences as from v, so the same bits.
            dv, done = hd_x1(dv, h, dx, m - done), m
            _abs_sq_rows(*sq[m], dv, lo + m, rows)
            if m == 1:
                dv1 = dv
        del dv
        if not check_identity:
            continue
        # a1(hD_bar) u is a temporary: it is gone before W is applied.
        hd_minus_a = hd_x1(chunk, h, dx, 1)
        np.subtract(hd_minus_a, apply_multiplier(
            chunk[1:-1], bar, h, lambda *xi: a1.eval_grid(xi), first=1),
            out=hd_minus_a)
        rhs = apply_multiplier(hd_minus_a, bar, h, lambda *_: w[1:-1], first=1)
        del hd_minus_a
        _abs_sq_rows(*sq["resid"], np.subtract(dv1, rhs, out=rhs), lo + 1, rows)
        del rhs, dv1
        mid_gap = np.add(chunk[2:], chunk[:-2])
        np.multiply(0.5, mid_gap, out=mid_gap)
        np.subtract(chunk[1:-1], mid_gap, out=mid_gap)
        _abs_sq_rows(*sq["gap"], mid_gap, lo + 1, rows)
    ratios = {m: _norm(sq[m][0], cell) / (h ** m * u_norm) for m in orders}

    nan = float("nan")
    resid = bound = nan
    if check_identity:
        resid = _norm(sq["resid"][0], cell) / u_norm
        # |W (hD - a) u - hD(Wu)| <= |a|max * |u - avg(u+, u-)| + dx*a^2/(2h)*|u|.
        a_bar = a1.eval_grid(node_arrays(duals, len(duals)))
        amax = float(np.abs(a_bar).max())
        d1 = amax * _norm(sq["gap"][0], cell)
        d2 = dx * amax ** 2 / (2 * h) * u_norm
        bound = 1.5 * (d1 + d2) / u_norm + 1e-12
    return [FlatteningReport(m, ratios[m], m * fd_rel + 0.05,
                             resid if m == 1 else nan, bound if m == 1 else nan)
            for m in orders]

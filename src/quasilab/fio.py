"""Flattening conjugation for x-independent graph symbols.

With a1 independent of x the conjugating family is the exact frequency
multiplier W(x1) = exp(-i*x1*a1(hD_bar)/h): it is unitary on every bar
slice, W(0) = Id, its adjoint is W for -a1, and conjugation sends
a2(hD_bar) to itself, so the transported observable is exactly a1 - a2 (no
O(h) remainder to model).  Applied to a quasimode u of hD_x1 - a1(hD_bar),
the slice-wise transform v(x1,.) = W(x1) u(x1,.) is a quasimode of hD_x1;
the reports below verify that quantitatively with centered finite
differences in x1.  W on a whole field and a1(hD_bar) itself are both one
multiplier applied by grids.apply_multiplier, at the field's h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .grids import AxisSpec, GridField, apply_multiplier, dual_axis, node_arrays
from .symbols import PolySymbol


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


def transform_quasimode(a1: PolySymbol, u: GridField) -> GridField:
    """v(x1, .) = W(x1) u(x1, .) for a position field with x1 as axis 0.

    Vectorized over slices: one bar-side multiplier with the x1 nodes
    broadcast down axis 0.  transform_quasimode(-a1, v) inverts it.
    """
    return _flatten(a1, u)[0]


def _flatten(a1: PolySymbol, u: GridField) -> tuple[GridField, np.ndarray]:
    """(W u, W on every (x1, xi_bar) node of u's grid): the flattening check
    reuses W's interior rows."""
    _check_field(a1, u)
    x1, = node_arrays(u.axes[:1], u.dim)
    duals = [dual_axis(ax, u.h) for ax in u.axes[1:]]
    w_nodes = _w_multiplier(a1, u.h, x1)(*node_arrays(duals, u.dim, 1))
    return GridField(u.h, list(u.axes), apply_multiplier(
        u.data, u.axes[1:], u.h, lambda *xi: w_nodes, first=1)), w_nodes


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
    n1 = 1 << max(1, math.ceil(2 * x1_half_width / x1_max_spacing) - 1).bit_length()
    axes = [AxisSpec(0.0, x1_half_width, n1)]
    for bar in cutoff.axes[1:]:
        axes.append(dual_axis(bar, cutoff.h))
    return axes


# -- finite-difference quasimode diagnostics ------------------------------------

def hd_x1(field: GridField, order: int = 1) -> np.ndarray:
    """(hD_x1)^order by iterated centered differences along axis 0.

    Returns the interior samples only (order slices trimmed per side); the
    symmetric difference of a band-limited signal underestimates |xi1|, so
    quadrature norms of the result sit below the exact operator norm.  Each
    order writes its difference, its h/i product and its division into one
    array.
    """
    data = field.data
    dx = field.axes[0].spacing
    for _ in range(order):
        diff = np.subtract(data[2:], data[:-2], dtype=complex)
        np.multiply(field.h / 1j, diff, out=diff)
        data = np.divide(diff, 2.0 * dx, out=diff)
    return data


def _interior_norm(data: np.ndarray, cell_volume: float) -> float:
    sq = np.abs(data)
    return float(np.sqrt(np.sum(np.square(sq, out=sq)) * cell_volume))


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
    data itself.

    W is evaluated once on the whole grid: it is elementwise in (x1, xi), so
    its rows 1:-1 are bit for bit W at the interior nodes, which the
    residual needs.  v is dropped once every order's difference is taken,
    and the residual's differences and products are formed in place.
    """
    v, w_nodes = _flatten(a1, u)
    h = u.h
    dx = u.axes[0].spacing
    cell = u.cell_volume
    u_norm = u.l2_norm()
    fd_rel = (dx / h) ** 2 / 6.0
    bar = u.axes[1:]
    ratios, dv1 = {}, None
    for m in orders:
        dv = hd_x1(v, m)
        ratios[m] = _interior_norm(dv, cell) / (h ** m * u_norm)
        if m == 1:
            dv1 = dv
        del dv
    del v

    nan = float("nan")
    resid = bound = nan
    if dv1 is not None:
        # a1(hD_bar) u is a temporary: it is gone before W is applied.
        hd_minus_a = hd_x1(u, 1)
        np.subtract(hd_minus_a, apply_multiplier(
            u.data, bar, h, lambda *xi: a1.eval_grid(xi), first=1)[1:-1],
            out=hd_minus_a)
        rhs = apply_multiplier(hd_minus_a, bar, h, lambda *xi: w_nodes[1:-1],
                               first=1)
        del hd_minus_a
        resid = _interior_norm(np.subtract(dv1, rhs, out=rhs), cell) / u_norm
        del rhs
        # |W (hD - a) u - hD(Wu)| <= |a|max * |u - avg(u+, u-)| + dx*a^2/(2h)*|u|.
        duals = [dual_axis(ax, h) for ax in bar]
        a_bar = a1.eval_grid(node_arrays(duals, len(duals)))
        amax = float(np.abs(a_bar).max())
        mid_gap = np.add(u.data[2:], u.data[:-2])
        np.multiply(0.5, mid_gap, out=mid_gap)
        np.subtract(u.data[1:-1], mid_gap, out=mid_gap)
        d1 = amax * _interior_norm(mid_gap, cell)
        d2 = dx * amax ** 2 / (2 * h) * u_norm
        bound = 1.5 * (d1 + d2) / u_norm + 1e-12
    return [FlatteningReport(m, ratios[m], m * fd_rel + 0.05,
                             resid if m == 1 else nan, bound if m == 1 else nan)
            for m in orders]

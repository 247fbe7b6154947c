"""Flattening operator for x-independent graph symbols, and the Egorov symbol.

With a1 independent of x the conjugating family is the exact frequency
multiplier W(x1) = exp(-i*x1*a1(hD_bar)/h): it is unitary on every bar
slice, W(0) = Id, and conjugation sends a2(hD_bar) to itself, so the
transported observable is exactly a1 - a2 (no O(h) remainder to model).
Applied to a quasimode u of hD_x1 - a1(hD_bar), the slice-wise transform
v(x1,.) = W(x1) u(x1,.) is a quasimode of hD_x1; the reports below verify
that quantitatively with centered finite differences in x1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .grids import (POSITION, AxisSpec, GridField, apply_multiplier, dual_axis,
                    ft_axes)
from .symbols import PolySymbol


@dataclass(frozen=True)
class FlatteningOp:
    """Frequency multiplier exp(-i*x1*a1(xi_bar)/h) acting on bar slices."""

    a1: PolySymbol
    h: float


def apply_W(op: FlatteningOp, u: GridField, x1: float,
            adjoint: bool = False) -> GridField:
    """Apply W(x1) (or its adjoint) to one bar slice.

    The multiplier goes through grids.apply_multiplier: frequency slices
    are multiplied pointwise; position slices are transformed, multiplied,
    and returned on their own axes.  Exactly unitary either way.
    """
    if u.dim != op.a1.dim:
        raise DimensionMismatchError(
            f"slice dim {u.dim} != symbol dim {op.a1.dim}")
    sign = 1.0 if adjoint else -1.0
    return apply_multiplier(
        u, lambda *xi: np.exp(sign * 1j * x1 * op.a1.eval_grid(xi) / op.h))


def _bar_symbol(a1: PolySymbol, u: GridField) -> np.ndarray:
    """a1 on the dual nodes of u's bar axes, shaped to broadcast against u.data."""
    coords = []
    for d, ax in enumerate(u.axes[1:], start=1):
        shape = [1] * u.dim
        shape[d] = ax.points
        coords.append(dual_axis(ax, u.h).nodes().reshape(shape))
    return a1.eval_grid(coords)


def _bar_multiply(op: FlatteningOp, u: GridField, data: np.ndarray,
                  x1: np.ndarray | None = None) -> np.ndarray:
    """a1(hD_bar) slice-wise: multiply data's bar-side transform, invert.

    data lies on u's bar axes.  Given x1, the x1 nodes of data's slices,
    the factor is exp(-i*x1*a1(xi_bar)/h) instead, i.e. W(x1) per slice.
    """
    avals = _bar_symbol(op.a1, u)
    if x1 is not None:
        avals = -1j * x1.reshape((-1,) + (1,) * (u.dim - 1)) * avals
        # numpy divides by a real scalar as this multiply: same bits, faster.
        avals *= 1.0 / op.h
        np.exp(avals, out=avals)
    hat, duals = ft_axes(data, u.axes[1:], u.h)
    # avals * hat, not hat * avals: numpy's vectorized complex product
    # fuses a multiply-add, so its last bit depends on operand order, and
    # this order keeps fio.csv bit-identical to earlier versions.
    np.multiply(avals, hat, out=hat)
    out, _ = ft_axes(hat, duals, u.h, inverse=True, out_axes=u.axes[1:])
    return out


def transform_quasimode(op: FlatteningOp, u: GridField) -> GridField:
    """v(x1, .) = W(x1) u(x1, .) for a position field with x1 as axis 0.

    Vectorized over slices: one bar-side transform of the whole array, a
    broadcast multiplier exp(-i*x1*a1(xi_bar)/h), and the inverse back onto
    the original bar axes.
    """
    if u.space != POSITION:
        raise ValueError("transform_quasimode expects a POSITION field")
    if u.dim != op.a1.dim + 1:
        raise DimensionMismatchError("field dim must be symbol dim + 1")
    return GridField(u.h, POSITION, list(u.axes),
                     _bar_multiply(op, u, u.data, u.axes[0].nodes()))


def egorov_symbol(a1: PolySymbol, a2: PolySymbol) -> PolySymbol:
    """Transported second observable: exactly a1 - a2 for trivial flow."""
    if a1.dim != a2.dim:
        raise DimensionMismatchError("a1 and a2 must share a dimension")
    return a1 - a2


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
    quadrature norms of the result sit below the exact operator norm.
    """
    data = field.data
    dx = field.axes[0].spacing
    for _ in range(order):
        data = (field.h / 1j) * (data[2:] - data[:-2]) / (2.0 * dx)
    return data


def _interior_norm(data: np.ndarray, cell_volume: float) -> float:
    return float(np.sqrt(np.sum(np.abs(data) ** 2) * cell_volume))


@dataclass(frozen=True)
class FlatteningReport:
    """Quantitative x1-quasimode check for v = W u on a grid."""

    order: int
    ratio: float              # ||(hD_x1)^M v|| / (h^M ||u||)
    slack: float              # stated discretization allowance
    identity_residual: float  # ||hD v - W (hD - a1(hD)) u|| / ||u||
    identity_bound: float     # self-calibrated O((dx/h)^2) allowance


def flattening_reports(op: FlatteningOp, u: GridField,
                       orders: tuple[int, ...] = (1, 2)) -> list[FlatteningReport]:
    """Check ||(hD_x1)^M v|| <= h^M ||u|| + slack and the discrete intertwining.

    The slack covers the centered-difference error ((dx1/h)^2/6 per
    application) plus box truncation; the intertwining residual compares
    hD_x1 v against W(x1)(hD_x1 - a1(hD_bar)) u computed with the same
    difference stencil, bounded by a term-by-term estimate evaluated on the
    data itself.
    """
    v = transform_quasimode(op, u)
    h = u.h
    dx = u.axes[0].spacing
    cell = u.cell_volume
    u_norm = u.l2_norm()
    fd_rel = (dx / h) ** 2 / 6.0

    reports = []
    for m in orders:
        dv = hd_x1(v, m)
        ratio = _interior_norm(dv, cell) / (h ** m * u_norm)
        slack = m * fd_rel + 0.05
        if m == 1:
            # a1(hD_bar) u is a temporary: it is gone before W is applied.
            hd_minus_a = hd_x1(u, 1) - _bar_multiply(op, u, u.data)[1:-1]
            rhs = _bar_multiply(op, u, hd_minus_a, u.axes[0].nodes()[1:-1])
            resid = _interior_norm(dv - rhs, cell) / u_norm
            # |W (hD - a) u - hD(Wu)| <= |a|max * |u - avg(u+, u-)| + dx*a^2/(2h)*|u|.
            amax = float(np.abs(_bar_symbol(op.a1, u)).max())
            mid_gap = u.data[1:-1] - 0.5 * (u.data[2:] + u.data[:-2])
            d1 = amax * _interior_norm(mid_gap, cell)
            d2 = dx * amax ** 2 / (2 * h) * u_norm
            bound = 1.5 * (d1 + d2) / u_norm + 1e-12
            reports.append(FlatteningReport(m, ratio, slack, resid, bound))
        else:
            reports.append(FlatteningReport(m, ratio, slack, float("nan"),
                                            float("nan")))
    return reports

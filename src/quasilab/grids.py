"""Anisotropic grids, semiclassical Fourier transforms, and multipliers.

Grids use a midpoint convention: an axis with N cells over
[center-hw, center+hw] samples at the N cell centers, so a uniform weight
of one cell volume per sample is the quadrature rule everywhere.  With the
dual axis chosen so that dx * dxi = 2*pi*h / N, the discrete transform is
exactly unitary for that quadrature (Parseval holds to rounding) and
inverse(forward) is the identity.  ft_axes acts on the bar axes 1, 2, ...
of plain arrays, one block of a field's x1 rows, with the grid given by
its AxisSpecs: no field object is built.  A frequency multiplier m(hD_bar)
is applied on the transformed side, as its values on the dual nodes, and
every norm is taken there: by Parseval it is the position-side norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError

_TWO_PI = 2.0 * np.pi
# Bytes of one working block: the blocked stages size their per-block
# buffers by it (the wavelet transform's windows and the flattening check's
# x1 rows), so that a block stays in cache and no buffer grows with the
# grid or with the block a producer hands over.
WORK_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class AxisSpec:
    """One grid axis: N cell midpoints over [center-hw, center+hw]."""

    center: float
    half_width: float
    points: int

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.points < 2:
            raise ValueError("points must be >= 2")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def start(self) -> float:
        """Left edge of the first cell."""
        return self.center - self.half_width

    def nodes(self) -> np.ndarray:
        return self.start + (np.arange(self.points) + 0.5) * self.spacing


def dual_axis(axis: AxisSpec, h: float) -> AxisSpec:
    """Dual axis for the h-scaled transform: dxi = 2*pi*h/(N*dx), centered at 0."""
    dxi = _TWO_PI * h / (axis.points * axis.spacing)
    return AxisSpec(0.0, 0.5 * axis.points * dxi, axis.points)


def node_arrays(axes: Sequence[AxisSpec], ndim: int) -> list[np.ndarray]:
    """Node coordinates of axes[i], shaped to broadcast on axis i of an
    ndim-dimensional array."""
    out = []
    for i, a in enumerate(axes):
        shape = [1] * ndim
        shape[i] = a.points
        out.append(a.nodes().reshape(shape))
    return out


def cell_volume(axes: Sequence[AxisSpec]) -> float:
    """Product of the axes' spacings: the quadrature weight of one cell."""
    return math.prod(a.spacing for a in axes)


# -- transforms ---------------------------------------------------------------

def _require_pow2(n: int) -> None:
    if n & (n - 1):
        raise ValueError(f"transform axes need a power-of-two point count, got {n}")


def ft_axis(data: np.ndarray, axis_spec: AxisSpec, h: float, axis: int,
            inverse: bool = False, out_axis: AxisSpec | None = None,
            out: np.ndarray | None = None) -> tuple[np.ndarray, AxisSpec]:
    """h-scaled Fourier transform along one axis of an ndarray.

    Forward maps a position axis onto its (centered) dual frequency axis;
    inverse maps a frequency axis onto ``out_axis`` (default: centered dual).
    The FFT carries explicit boundary phases so arbitrary axis offsets are
    exact, and inverse(forward) cancels to rounding.  The result is the
    phased input, transformed and rephased in place: one new array, or
    ``out`` (complex, data's shape, and data itself allowed) when given.
    """
    n = axis_spec.points
    _require_pow2(n)
    dual = out_axis if out_axis is not None else dual_axis(axis_spec, h)
    if dual.points != n:
        raise DimensionMismatchError("dual axis point count mismatch")
    shape = [1] * data.ndim
    shape[axis] = n
    ar = np.arange(n)
    if not inverse:
        x0 = axis_spec.start + 0.5 * axis_spec.spacing
        pre = np.exp(-1j * (ar * axis_spec.spacing) * (dual.start + 0.5 * dual.spacing) / h)
        post = np.exp(-1j * x0 * dual.nodes() / h) * (
            axis_spec.spacing / np.sqrt(_TWO_PI * h))
        out = np.multiply(data, pre.reshape(shape), out=out)
        np.fft.fft(out, axis=axis, out=out)
    else:
        xi0 = axis_spec.start + 0.5 * axis_spec.spacing
        x0 = dual.start + 0.5 * dual.spacing
        pre = np.exp(1j * x0 * (ar * axis_spec.spacing) / h)
        post = np.exp(1j * dual.nodes() * xi0 / h) * (
            n * axis_spec.spacing / np.sqrt(_TWO_PI * h))
        out = np.multiply(data, pre.reshape(shape), out=out)
        np.fft.ifft(out, axis=axis, out=out)
    out *= post.reshape(shape)
    return out, dual


def ft_axes(data: np.ndarray, axes: Sequence[AxisSpec], h: float,
            inverse: bool = False,
            out_axes: Sequence[AxisSpec] | None = None,
            out: np.ndarray | None = None) -> tuple[np.ndarray, list[AxisSpec]]:
    """ft_axis over the bar axes 1, 2, ... of data; returns the new axes.

    Axis 0 is x1, whose rows are transformed independently; ``out_axes``
    are the inverse's targets, one per transformed axis.  The first axis
    goes into ``out`` as ft_axis's does, or into a new array, and every
    later axis in place.
    """
    new_axes: list[AxisSpec] = []
    for i, ax in enumerate(axes):
        target = out_axes[i] if out_axes is not None else None
        data, dual = ft_axis(data, ax, h, 1 + i, inverse, target, out)
        out = data
        new_axes.append(dual)
    return data, new_axes

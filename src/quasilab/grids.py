"""Anisotropic midpoint grids.

Grids use a midpoint convention: an axis with N cells over
[center-hw, center+hw] samples at the N cell centers, so a uniform weight
of one cell volume per sample is the quadrature rule everywhere.  The
runs never transform a grid: a frequency multiplier m(hD_bar) is applied on
the transformed side, as its values at the cutoff's bar nodes, where the
cutoff's columns give the transform directly, and every norm is taken
there.  The dual axis, with dx * dxi = 2*pi*h / N so that the discrete
h-scaled transform is exactly unitary for that quadrature (Parseval), and
the FFT form of the transform are the tests' oracles
(tests/oracles.py::dual_axis, ft_axes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Bytes of one working block: the blocked stages size their per-block
# buffers by it (the wavelet transform's windows and the blocks of columns
# of quasimode.column_transforms), so that a block stays in cache and no
# buffer grows with the grid.
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

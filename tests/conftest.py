"""Shared fixtures: expensive artifacts built once per session."""

from __future__ import annotations

import numpy as np
import pytest

from quasilab import families
from quasilab.fio import x1_axis
from quasilab.grids import AxisSpec
from quasilab.quasimode import build_cutoff
from quasilab.wavelets import make_mother_wavelet

from oracles import (GridField, aligned_axes, padded_gather_cwt, reconstruct,
                     synthesize_grid)


@pytest.fixture(scope="session")
def mother_wavelet():
    return make_mother_wavelet()


@pytest.fixture(scope="session")
def reconstruction_error(mother_wavelet):
    """Relative L2 error of the truncated-grid inversion formula.

    The test signal is spectrally confined to the scale band the a-grid
    covers; the budget below reaches a few 1e-4.
    """
    ax = AxisSpec(0.0, 8.0, 2048)
    x = ax.nodes()
    sig = np.exp(-x ** 2 / 2.0) * np.sin(4.0 * x)
    v = GridField(2.0 ** -4, [ax], sig.astype(complex))
    a_grid = np.geomspace(2.0 ** -7, 2.0 ** 6, 105)
    b_grids, values = zip(*(padded_gather_cwt(
        v, mother_wavelet, a, b_step_factor=16.0, x1_scale=0.25)[:2]
        for a in a_grid))
    rec = reconstruct(a_grid, b_grids, values, ax.spacing, mother_wavelet, x)
    return float(np.sqrt(np.sum(np.abs(rec - sig) ** 2) / np.sum(sig ** 2)))


@pytest.fixture(scope="session")
def flat_model():
    """(cutoff, x1 axis) of the wavelet decay diagnostics' flat model
    (n=2, k=3): the shipped wavelet config's 8192 x1 nodes and 64 bar
    columns."""
    h = 2.0 ** -8
    cut = build_cutoff(families.flat_cutoff(2, 3, pow2=True), h)
    return cut, x1_axis(6.0, 2.0 ** -9)


@pytest.fixture(scope="session")
def flat_model_field(flat_model):
    """The flat model's field on its whole grid, whose bar duals are the
    cutoff's bar grid."""
    cut, x1 = flat_model
    return synthesize_grid(cut, aligned_axes(cut, x1))

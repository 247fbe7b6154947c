"""Mother wavelet, CWT, dyadic partition, reconstruction."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from quasilab.grids import AxisSpec, GridField, POSITION
from quasilab.wavelets import (bump, bump_derivative, cwt, dyadic_cutoffs,
                               make_mother_wavelet, reconstruct)


class TestMotherWavelet:
    def test_mean_zero(self, mother_wavelet):
        assert abs(mother_wavelet.mean) < 1e-12

    def test_admissibility_finite_and_frozen(self, mother_wavelet):
        # Frozen value from the quadrature itself (stability guard).
        assert mother_wavelet.admissibility == pytest.approx(1.12662767, rel=1e-5)
        assert mother_wavelet.tail_low < 1e-10
        assert mother_wavelet.tail_high < 1e-10

    def test_support(self, mother_wavelet):
        f = mother_wavelet.profile
        assert f(np.array([1.0, -1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]
        assert f(np.array([0.5]))[0] != 0.0

    def test_profile_is_bump_derivative(self):
        t = np.linspace(-0.999, 0.999, 201)
        num = np.gradient(bump(t), t)
        assert np.abs(num - bump_derivative(t)).max() < 1e-2


class TestCwt:
    def _field(self, data, h=2.0 ** -4, half=8.0):
        ax = AxisSpec(0.0, half, len(data))
        return GridField(h, POSITION, [ax], np.asarray(data, complex))

    def test_autocorrelation_peak(self, mother_wavelet):
        ax = AxisSpec(0.0, 8.0, 4096)
        v = self._field(bump_derivative(ax.nodes()))
        co = cwt(v, mother_wavelet, a_grid=[1.0])
        b = co.b_grids[0]
        peak = co.values[0][int(np.argmin(np.abs(b)))]
        assert peak.real == pytest.approx(mother_wavelet.l2_norm_sq, abs=1e-3)

    def test_mean_zero_cancellation_on_constant(self, mother_wavelet):
        v = self._field(np.ones(4096))
        co = cwt(v, mother_wavelet, a_grid=[2.0 ** -4])
        inner = np.abs(co.b_grids[0]) < 4.0
        assert np.abs(co.values[0][inner]).max() <= 1e-8 * v.l2_norm()

    def test_exact_zero_off_overlap(self, mother_wavelet):
        v = self._field(bump_derivative(AxisSpec(0.0, 8.0, 2048).nodes()))
        co = cwt(v, mother_wavelet, a_grid=[1.0])
        b = co.b_grids[0]
        far = np.abs(b) > 8.0 + 1.0  # data box + dilated support
        assert far.any()
        assert np.all(co.values[0][far] == 0.0)

    def test_linearity(self, mother_wavelet):
        rng = np.random.default_rng(17)
        d1 = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        d2 = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        a, bcoef = 1.3, -0.7 + 0.2j
        grids = [2.0 ** -2, 1.0]
        c1 = cwt(self._field(d1), mother_wavelet, grids)
        c2 = cwt(self._field(d2), mother_wavelet, grids)
        c3 = cwt(self._field(a * d1 + bcoef * d2), mother_wavelet, grids)
        for i in range(2):
            combo = a * c1.values[i] + bcoef * c2.values[i]
            assert np.abs(c3.values[i] - combo).max() < 1e-12

    # a = 1/4 samples every cell (qstride 1); a = 4 decimates to every 7th
    # cell.  1000 cells is a multiple of neither stride nor qstride, so the
    # windows meet the data edges at varying partial overlaps.
    @pytest.mark.parametrize("bar_shape", [(), (8,)], ids=["1d", "2d"])
    def test_matches_padded_gather_oracle(self, mother_wavelet, bar_shape):
        rng = np.random.default_rng(41)
        shape = (1000,) + bar_shape
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ax = AxisSpec(0.0, 8.0, 1000)
        axes = [ax] + [AxisSpec(0.0, 1.0, m) for m in bar_shape]
        v = GridField(2.0 ** -4, POSITION, axes, data)
        a_grid = [0.25, 4.0]
        co = cwt(v, mother_wavelet, a_grid)
        for i, a in enumerate(a_grid):
            b, x, qstride, partial = _padded_gather_cwt(v, mother_wavelet, a)
            assert qstride == (1 if i == 0 else 7)
            assert partial > 0
            assert np.array_equal(co.b_grids[i], b)
            assert co.values[i].shape == x.shape
            assert np.abs(co.values[i] - x).max() <= 1e-13 * np.abs(x).max()

    def test_memory_bounded(self, mother_wavelet, flat_model_field):
        tracemalloc.start()
        try:
            cwt(flat_model_field, mother_wavelet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2 ** 20

    def test_rejects_nonpositive_scale(self, mother_wavelet):
        v = self._field(np.ones(256))
        with pytest.raises(ValueError):
            cwt(v, mother_wavelet, a_grid=[0.0])


def _padded_gather_cwt(v, w, a, b_step_factor=8.0, b_pad=1.0, x1_scale=1.0):
    """The CWT at one scale by zero-padding the field, gathering every
    window and summing in tap order; also returns qstride and the number
    of windows that overlap the data only in part."""
    ax = v.axes[0]
    dx, n1 = ax.spacing, ax.points
    half = w.support_halfwidth * a
    qstride = max(1, int(min(a / 16.0, x1_scale / 8.0) / dx))
    qstep = qstride * dx
    wcells = int(math.ceil(2.0 * half / qstep)) + 2
    stride = max(1, int(round(a / b_step_factor / dx)))
    pad_cells = int(math.ceil(2.0 * b_pad * half / dx)) + wcells * qstride
    b_idx = np.arange(-pad_cells, n1 + pad_cells, stride)
    pad = pad_cells + wcells * qstride
    padded = np.zeros((n1 + 2 * pad,) + v.data.shape[1:], dtype=complex)
    padded[pad:pad + n1] = v.data
    offs = (np.arange(2 * wcells + 1) - wcells) * qstride
    frow = w.profile(offs * dx / a) / math.sqrt(a)
    idx = b_idx[:, None] + offs[None, :] + pad
    win = padded[idx]
    out = np.zeros((len(b_idx),) + v.data.shape[1:], dtype=complex)
    for m in range(len(offs)):
        out += frow[m] * win[:, m]
    inside = ((idx >= pad) & (idx < pad + n1))[:, frow != 0.0]
    partial = int(np.sum(inside.any(axis=1) & ~inside.all(axis=1)))
    return ax.start + (b_idx + 0.5) * dx, out * qstep, qstride, partial


class TestDyadicCutoffs:
    def test_level_count_example(self):
        assert dyadic_cutoffs(2.0 ** -8, 3).levels == 2

    def test_partition_of_unity(self):
        fam = dyadic_cutoffs(2.0 ** -8, 3)
        rng = np.random.default_rng(23)
        r = rng.random(1000)
        assert np.abs(fam.partition_sum(r) - 1.0).max() <= 1e-10

    def test_disjoint_annuli(self):
        fam = dyadic_cutoffs(2.0 ** -20, 3)
        assert fam.levels >= 4
        r = np.geomspace(1e-4, 1.0, 5000)
        for j in range(1, fam.levels - 1):
            for jp in range(j + 2, fam.levels + 1):
                assert np.all(fam.psi(j, r) * fam.psi(jp, r) == 0.0)

    def test_plancherel_split(self):
        # sum_j ||sqrt(psi_j) g||^2 = ||g||^2 for g supported in |r| <= 1.
        fam = dyadic_cutoffs(2.0 ** -6, 1)
        rng = np.random.default_rng(29)
        r = rng.random(500)
        g = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        total = sum(float(np.sum(fam.psi(j, r) * np.abs(g) ** 2))
                    for j in range(fam.levels + 1))
        assert total == pytest.approx(float(np.sum(np.abs(g) ** 2)), rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            dyadic_cutoffs(0.0, 3)
        with pytest.raises(ValueError):
            dyadic_cutoffs(0.5, 0)


class TestReconstruction:
    def test_inversion_formula(self, reconstruction_error):
        assert reconstruction_error < 1e-3

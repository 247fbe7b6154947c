"""Semiclassical transforms, multipliers, and direct synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from quasilab.errors import DimensionMismatchError
from quasilab.grids import (FORWARD, FREQUENCY, INVERSE, POSITION, AxisSpec,
                            GridField, apply_multiplier, direct_synthesis,
                            dual_axis, semiclassical_ft)


def mesh_points(axes):
    """All grid nodes as an (N_total, n) array, C-order."""
    grids = np.meshgrid(*[a.nodes() for a in axes], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def gaussian_field(h, n_axis=256, center=0.0):
    ax = AxisSpec(center, 12.0 * np.sqrt(h), n_axis)
    x = ax.nodes()
    data = np.exp(-(x - center) ** 2 / (2.0 * h)).astype(complex)
    return GridField(h, POSITION, [ax], data)


def random_field(h, shape, seed, space=POSITION, half_widths=None):
    rng = np.random.default_rng(seed)
    axes = [AxisSpec(0.0, hw if half_widths else 1.0, n)
            for n, hw in zip(shape, half_widths or [1.0] * len(shape))]
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridField(h, space, axes, data)


class TestAxes:
    def test_nodes_are_cell_midpoints(self):
        ax = AxisSpec(1.0, 2.0, 4)
        assert np.allclose(ax.nodes(), [-0.5, 0.5, 1.5, 2.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            AxisSpec(0.0, -1.0, 8)
        with pytest.raises(ValueError):
            AxisSpec(0.0, 1.0, 1)

    def test_dual_spacing_relation(self):
        h = 2.0 ** -5
        ax = AxisSpec(0.3, 1.7, 64)
        dual = dual_axis(ax, h)
        assert dual.spacing * ax.spacing * ax.points == pytest.approx(
            2 * np.pi * h, rel=1e-14)


class TestTransforms:
    def test_round_trip_identity(self):
        f = gaussian_field(2.0 ** -6, center=0.3)
        hat = semiclassical_ft(f, FORWARD)
        back = semiclassical_ft(hat, INVERSE, out_axes=f.axes)
        err = np.abs(back.data - f.data).max() / np.abs(f.data).max()
        assert err < 1e-12

    def test_gaussian_closed_form(self):
        # F_h[exp(-x^2/2h)](xi) = exp(-xi^2/2h): the profile is self-dual.
        h = 2.0 ** -6
        f = gaussian_field(h)
        hat = semiclassical_ft(f, FORWARD)
        xi = hat.axes[0].nodes()
        oracle = np.exp(-xi ** 2 / (2 * h))
        assert np.abs(hat.data - oracle).max() < 1e-9

    def test_zero_field(self):
        f = gaussian_field(2.0 ** -4)
        f.data[:] = 0
        assert np.all(semiclassical_ft(f, FORWARD).data == 0)

    def test_plane_wave_peaks_at_nearest_node(self):
        h = 2.0 ** -6
        ax = AxisSpec(0.0, 4.0, 512)
        xi0 = 0.3137
        data = np.exp(1j * ax.nodes() * xi0 / h)
        f = GridField(h, POSITION, [ax], data)
        hat = semiclassical_ft(f, FORWARD)
        peak = hat.axes[0].nodes()[np.argmax(np.abs(hat.data))]
        nearest = hat.axes[0].nodes()[np.argmin(np.abs(hat.axes[0].nodes() - xi0))]
        assert peak == nearest

    def test_parseval(self):
        f = random_field(2.0 ** -5, (128,), seed=1)
        hat = semiclassical_ft(f, FORWARD)
        assert abs(hat.l2_norm() - f.l2_norm()) / f.l2_norm() < 1e-10

    def test_parseval_2d(self):
        f = random_field(2.0 ** -4, (64, 32), seed=2)
        hat = semiclassical_ft(f, FORWARD)
        assert abs(hat.l2_norm() - f.l2_norm()) / f.l2_norm() < 1e-10
        back = semiclassical_ft(hat, INVERSE, out_axes=f.axes)
        assert np.abs(back.data - f.data).max() < 1e-12 * np.abs(f.data).max()

    def test_linearity(self):
        rng = np.random.default_rng(3)
        f = random_field(2.0 ** -4, (64,), seed=4)
        g = random_field(2.0 ** -4, (64,), seed=5)
        a, b = rng.standard_normal(2)
        combo = GridField(f.h, POSITION, f.axes, a * f.data + b * g.data)
        lhs = semiclassical_ft(combo, FORWARD).data
        rhs = (a * semiclassical_ft(f, FORWARD).data
               + b * semiclassical_ft(g, FORWARD).data)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_power_of_two_required(self):
        ax = AxisSpec(0.0, 1.0, 48)
        f = GridField(0.5, POSITION, [ax], np.zeros(48, complex))
        with pytest.raises(ValueError):
            semiclassical_ft(f, FORWARD)

    def test_space_tag_mismatch(self):
        f = gaussian_field(2.0 ** -4)
        with pytest.raises(ValueError):
            semiclassical_ft(f, INVERSE)
        hat = semiclassical_ft(f, FORWARD)
        with pytest.raises(ValueError):
            semiclassical_ft(hat, FORWARD)


class TestMultiplier:
    def test_identity_multiplier(self):
        # m = 1 multiplies exactly, leaving the transform round trip.
        f = random_field(2.0 ** -4, (64,), seed=6)
        out = apply_multiplier(f.data, f.axes, f.h, lambda xi: 1.0)
        back = semiclassical_ft(semiclassical_ft(f, FORWARD), INVERSE,
                                out_axes=f.axes)
        assert np.array_equal(out, back.data)

    def test_diagonal_action_on_plane_wave(self):
        h = 2.0 ** -6
        ax = AxisSpec(0.0, 4.0, 512)
        xi_nodes = dual_axis(ax, h).nodes()
        xi0 = xi_nodes[300]  # exact grid frequency
        f = GridField(h, POSITION, [ax],
                      np.exp(1j * ax.nodes() * xi0 / h).astype(complex))
        out = apply_multiplier(f.data, [ax], h, lambda xi: xi)
        hat = semiclassical_ft(f, FORWARD)
        out_hat = semiclassical_ft(GridField(h, POSITION, [ax], out), FORWARD)
        peak = np.argmax(np.abs(hat.data))
        assert out_hat.data[peak] == pytest.approx(hat.data[peak] * xi0,
                                                   rel=1e-12)

    def test_position_side_round_trip(self):
        f = random_field(2.0 ** -4, (64,), seed=7)
        out = apply_multiplier(f.data, f.axes, f.h, lambda xi: 1.0)
        assert np.abs(out - f.data).max() < 1e-12 * np.abs(f.data).max()

    def test_two_axis_multiplier(self):
        # m(xi, eta) = xi on both axes is m(xi) = xi on axis 0 alone.
        f = random_field(2.0 ** -4, (32, 32), seed=8)
        out = apply_multiplier(f.data, f.axes, f.h, lambda x, y: x + 0 * y)
        expected = apply_multiplier(f.data, f.axes[:1], f.h, lambda x: x)
        assert np.abs(out - expected).max() < 1e-12 * np.abs(expected).max()


class TestDirectSynthesis:
    def _indicator(self, h=2.0 ** -4, n=32):
        axes = [AxisSpec(0.0, 4 * h, n), AxisSpec(0.0, 4 * h, n)]
        data = np.zeros((n, n), complex)
        data[10:20, 12:24] = 1.0
        return GridField(h, FREQUENCY, axes, data)

    def test_origin_is_quadrature_mass(self):
        f = self._indicator()
        val = direct_synthesis(f, [[0.0, 0.0]])[0]
        mass = f.data.sum().real * f.cell_volume
        assert val == pytest.approx((2 * np.pi * f.h) ** -1 * mass, rel=1e-13)

    def test_single_cell_closed_form(self):
        h = 2.0 ** -4
        ax = AxisSpec(0.0, 1.0, 16)
        data = np.zeros(16, complex)
        data[5] = 1.0
        f = GridField(h, FREQUENCY, [ax], data)
        x = 0.7
        val = direct_synthesis(f, [[x]])[0]
        xi = ax.nodes()[5]
        oracle = (2 * np.pi * h) ** -0.5 * ax.spacing * np.exp(1j * x * xi / h)
        assert val == pytest.approx(oracle, rel=1e-13)

    def test_agreement_with_fft_inverse(self):
        f = self._indicator()
        pos = semiclassical_ft(f, INVERSE)
        pts = mesh_points(pos.axes)
        direct = direct_synthesis(f, pts).reshape(pos.data.shape)
        err = np.abs(direct - pos.data).max() / np.abs(pos.data).max()
        assert err < 1e-6

    def test_translation_covariance(self):
        f = self._indicator()
        shift_cells = 3
        shifted = GridField(f.h, FREQUENCY, f.axes, np.roll(f.data, shift_cells, axis=0))
        xi_shift = shift_cells * f.axes[0].spacing
        rng = np.random.default_rng(11)
        targets = rng.standard_normal((20, 2))
        base = direct_synthesis(f, targets)
        moved = direct_synthesis(shifted, targets)
        phase = np.exp(1j * targets[:, 0] * xi_shift / f.h)
        assert np.abs(moved - base * phase).max() <= 1e-10 * np.abs(base).max()

    def test_empty_targets(self):
        with pytest.raises(ValueError):
            direct_synthesis(self._indicator(), np.zeros((0, 2)))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            direct_synthesis(self._indicator(), np.zeros((4, 3)))

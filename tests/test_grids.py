"""Semiclassical transforms and multipliers, against direct exponential sums."""

from __future__ import annotations

import numpy as np
import pytest

from quasilab.errors import DimensionMismatchError
from quasilab.grids import AxisSpec, cell_volume

from oracles import GridField, apply_multiplier, dual_axis, ft_axes, l2_norm


def mesh_points(axes):
    """All grid nodes as an (N_total, n) array, C-order."""
    grids = np.meshgrid(*[a.nodes() for a in axes], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def gaussian_field(h, n_axis=256, center=0.0):
    ax = AxisSpec(center, 12.0 * np.sqrt(h), n_axis)
    x = ax.nodes()
    data = np.exp(-(x - center) ** 2 / (2.0 * h)).astype(complex)
    return GridField(h, [ax], data)


def random_field(h, shape, seed, half_widths=None):
    rng = np.random.default_rng(seed)
    axes = [AxisSpec(0.0, hw if half_widths else 1.0, n)
            for n, hw in zip(shape, half_widths or [1.0] * len(shape))]
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridField(h, axes, data)


def forward(f):
    """The h-scaled transform of every axis: (values, dual axes).  ft_axes
    transforms axes 1, 2, ..., so the field goes in as one x1 row."""
    hat, duals = ft_axes(f.data[None], f.axes, f.h)
    return hat[0], duals


def back_onto(f, hat, duals):
    """The inverse transform of (hat, duals), landing on f's axes."""
    return ft_axes(hat[None], duals, f.h, inverse=True, out_axes=f.axes)[0][0]


def multiply(f, m):
    """m(hD) on every axis of f, m given by its values on the dual nodes."""
    return apply_multiplier(f.data[None], f.axes, f.h, m)[0]


def l2(data, axes):
    return float(np.sqrt(np.sum(np.abs(data) ** 2) * cell_volume(axes)))


class TestAxes:
    def test_nodes_are_cell_midpoints(self):
        ax = AxisSpec(1.0, 2.0, 4)
        assert np.allclose(ax.nodes(), [-0.5, 0.5, 1.5, 2.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            AxisSpec(0.0, -1.0, 8)
        with pytest.raises(ValueError):
            AxisSpec(0.0, 1.0, 1)

    @pytest.mark.parametrize("h, shape, error", [
        (0.0, 16, ValueError), (1.5, 16, ValueError),
        (0.5, 8, DimensionMismatchError), (0.5, (16, 1), DimensionMismatchError)])
    def test_field_validation(self, h, shape, error):
        with pytest.raises(error):
            GridField(h, [AxisSpec(0.0, 1.0, 16)], np.zeros(shape, complex))

    def test_dual_spacing_relation(self):
        h = 2.0 ** -5
        ax = AxisSpec(0.3, 1.7, 64)
        dual = dual_axis(ax, h)
        assert dual.spacing * ax.spacing * ax.points == pytest.approx(
            2 * np.pi * h, rel=1e-14)


class TestTransforms:
    def test_round_trip_identity(self):
        f = gaussian_field(2.0 ** -6, center=0.3)
        back = back_onto(f, *forward(f))
        err = np.abs(back - f.data).max() / np.abs(f.data).max()
        assert err < 1e-12

    def test_gaussian_closed_form(self):
        # F_h[exp(-x^2/2h)](xi) = exp(-xi^2/2h): the profile is self-dual.
        h = 2.0 ** -6
        hat, duals = forward(gaussian_field(h))
        xi = duals[0].nodes()
        oracle = np.exp(-xi ** 2 / (2 * h))
        assert np.abs(hat - oracle).max() < 1e-9

    def test_zero_field(self):
        f = gaussian_field(2.0 ** -4)
        f.data[:] = 0
        assert np.all(forward(f)[0] == 0)

    def test_plane_wave_peaks_at_nearest_node(self):
        h = 2.0 ** -6
        ax = AxisSpec(0.0, 4.0, 512)
        xi0 = 0.3137
        data = np.exp(1j * ax.nodes() * xi0 / h)
        hat, duals = forward(GridField(h, [ax], data))
        xi = duals[0].nodes()
        assert xi[np.argmax(np.abs(hat))] == xi[np.argmin(np.abs(xi - xi0))]

    def test_parseval(self):
        f = random_field(2.0 ** -5, (128,), seed=1)
        assert abs(l2(*forward(f)) - l2_norm(f)) / l2_norm(f) < 1e-10

    def test_parseval_2d(self):
        f = random_field(2.0 ** -4, (64, 32), seed=2)
        hat, duals = forward(f)
        assert abs(l2(hat, duals) - l2_norm(f)) / l2_norm(f) < 1e-10
        back = back_onto(f, hat, duals)
        assert np.abs(back - f.data).max() < 1e-12 * np.abs(f.data).max()

    def test_linearity(self):
        rng = np.random.default_rng(3)
        f = random_field(2.0 ** -4, (64,), seed=4)
        g = random_field(2.0 ** -4, (64,), seed=5)
        a, b = rng.standard_normal(2)
        combo = GridField(f.h, f.axes, a * f.data + b * g.data)
        lhs = forward(combo)[0]
        rhs = a * forward(f)[0] + b * forward(g)[0]
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_power_of_two_required(self):
        ax = AxisSpec(0.0, 1.0, 48)
        f = GridField(0.5, [ax], np.zeros(48, complex))
        with pytest.raises(ValueError):
            forward(f)


class TestMultiplier:
    def test_identity_multiplier(self):
        # m = 1 multiplies exactly, leaving the transform round trip.
        f = random_field(2.0 ** -4, (64,), seed=6)
        out = multiply(f, np.ones(64))
        assert np.array_equal(out, back_onto(f, *forward(f)))

    def test_diagonal_action_on_plane_wave(self):
        h = 2.0 ** -6
        ax = AxisSpec(0.0, 4.0, 512)
        xi_nodes = dual_axis(ax, h).nodes()
        xi0 = xi_nodes[300]  # exact grid frequency
        f = GridField(h, [ax],
                      np.exp(1j * ax.nodes() * xi0 / h).astype(complex))
        out = multiply(f, xi_nodes)
        hat, _ = forward(f)
        out_hat, _ = forward(GridField(h, [ax], out))
        peak = np.argmax(np.abs(hat))
        assert out_hat[peak] == pytest.approx(hat[peak] * xi0, rel=1e-12)

    def test_position_side_round_trip(self):
        f = random_field(2.0 ** -4, (64,), seed=7)
        out = multiply(f, np.ones(64))
        assert np.abs(out - f.data).max() < 1e-12 * np.abs(f.data).max()

    def test_two_axis_multiplier(self):
        # m(xi, eta) = xi on both axes is m(xi) = xi on each eta column
        # alone: the columns are the rows of the transpose.
        f = random_field(2.0 ** -4, (32, 32), seed=8)
        xi, eta = (dual_axis(ax, f.h).nodes() for ax in f.axes)
        out = multiply(f, xi[:, None] + 0 * eta[None, :])
        expected = apply_multiplier(f.data.T, f.axes[:1], f.h, xi).T
        assert np.abs(out - expected).max() < 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("m_shape, n_axes", [
        ((32,), 2), ((), 2), ((32, 1), 2), ((32, 32), 1), ((2, 32, 32), 2)])
    def test_multiplier_shape_checked(self, m_shape, n_axes):
        # The values must cover the bar grid: (32, 32) per x1 row, or
        # (rows, 32, 32) in all, on every bar axis.
        f = random_field(2.0 ** -4, (32, 32), seed=9)
        with pytest.raises(DimensionMismatchError):
            apply_multiplier(f.data[None], f.axes[:n_axes], f.h,
                             np.ones(m_shape))


class TestDirectSynthesis:
    """The inverse transform of an indicator against the direct sum
    (2 pi h)^(-n/2) * sum over cells of exp(i<x,xi>/h) chi(xi) dxi."""

    def _indicator(self, h=2.0 ** -4, n=32):
        axes = [AxisSpec(0.0, 4 * h, n), AxisSpec(0.0, 4 * h, n)]
        data = np.zeros((n, n), complex)
        data[10:20, 12:24] = 1.0
        return h, axes, data

    def test_single_cell_closed_form(self):
        h, ax, data = 2.0 ** -4, AxisSpec(0.0, 1.0, 16), np.eye(16)[5]
        (pos,), (out,) = ft_axes(data[None], [ax], h, inverse=True)
        oracle = np.exp(1j * out.nodes() * ax.nodes()[5] / h) * ax.spacing
        assert np.abs(pos * np.sqrt(2 * np.pi * h) - oracle).max() < 1e-13 * ax.spacing

    def test_agreement_with_fft_inverse(self):
        h, axes, data = self._indicator()
        (pos,), pos_axes = ft_axes(data[None], axes, h, inverse=True)
        phase = mesh_points(pos_axes) @ mesh_points(axes).T
        direct = (np.exp(1j * phase / h) @ data.ravel()) * (
            cell_volume(axes) / (2 * np.pi * h))
        err = np.abs(direct.reshape(pos.shape) - pos).max() / np.abs(pos).max()
        assert err < 1e-6

    def test_translation_covariance(self):
        # Moving chi by 3 xi1 cells multiplies the field by exp(i x1 3 dxi1 / h).
        h, axes, data = self._indicator()
        (base,), pos_axes = ft_axes(data[None], axes, h, inverse=True)
        (moved,), _ = ft_axes(np.roll(data, 3, axis=0)[None], axes, h,
                              inverse=True)
        phase = np.exp(1j * pos_axes[0].nodes()[:, None] * 3 * axes[0].spacing / h)
        assert np.abs(moved - base * phase).max() <= 1e-10 * np.abs(base).max()

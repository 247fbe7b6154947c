"""Flattening conjugation: unitarity, intertwining, quasimode transport."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from quasilab import families
from quasilab.errors import DimensionMismatchError
from quasilab.fio import (FlatteningOp, aligned_position_axes, apply_W,
                          egorov_symbol, flattening_reports, hd_x1,
                          transform_quasimode)
from quasilab.grids import (FREQUENCY, POSITION, AxisSpec, GridField,
                            apply_multiplier, ft_axis)
from quasilab.quasimode import Quasimode, build_cutoff
from quasilab.symbols import format_symbol, graph_factor, parse_symbol


def _a1(n=2, k=1):
    return graph_factor(families.paraboloid_pair(n, k)[0]).a


def _random_slice(h=2.0 ** -5, n=256, seed=3, space=POSITION):
    rng = np.random.default_rng(seed)
    ax = AxisSpec(0.1, 2.0, n)
    data = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return GridField(h, space, [ax], data)


class TestApplyW:
    def test_identity_at_zero(self):
        u = _random_slice()
        out = apply_W(FlatteningOp(_a1(), u.h), u, 0.0)
        assert np.abs(out.data - u.data).max() < 1e-12 * np.abs(u.data).max()

    def test_unitary(self):
        u = _random_slice()
        out = apply_W(FlatteningOp(_a1(), u.h), u, 0.37)
        assert abs(out.l2_norm() - u.l2_norm()) < 1e-12 * u.l2_norm()

    def test_adjoint_inverts(self):
        op = FlatteningOp(_a1(), 2.0 ** -5)
        u = _random_slice()
        w = apply_W(op, u, 0.37)
        back = apply_W(op, w, 0.37, adjoint=True)
        assert np.abs(back.data - u.data).max() < 1e-12 * np.abs(u.data).max()

    def test_rejects_frequency_slice(self):
        op = FlatteningOp(_a1(), 2.0 ** -5)
        with pytest.raises(ValueError, match="POSITION"):
            apply_W(op, _random_slice(space=FREQUENCY), 0.5)

    def test_rejects_h_mismatch(self):
        # W takes its h from the operator, the transforms from the field.
        u = _random_slice()
        op = FlatteningOp(_a1(), 2 * u.h)
        with pytest.raises(ValueError, match="not on a position field at h"):
            apply_W(op, u, 0.5)


class TestTransformQuasimode:
    @pytest.fixture()
    def setup(self):
        h, n, k = 2.0 ** -4, 2, 1
        cut = build_cutoff(families.paraboloid_cutoff(n, k, pow2=True), h)
        axes = aligned_position_axes(cut, 8.0, h / 8.0)
        u = Quasimode(cut, h).on_axes(axes)
        return FlatteningOp(_a1(n, k), h), u

    def test_frequency_side_intertwining(self, setup):
        # F_bar[v](x1, xi) = exp(-i x1 a1(xi)/h) F_bar[u](x1, xi), node by node.
        op, u = setup
        v = transform_quasimode(op, u)
        u_hat, dual = ft_axis(u.data, u.axes[1], u.h, 1)
        v_hat, _ = ft_axis(v.data, v.axes[1], v.h, 1)
        xi = dual.nodes()[None, :]
        x1 = u.axes[0].nodes()[:, None]
        a_vals = op.a1.eval_grid([xi])
        expected = u_hat * np.exp(-1j * x1 * a_vals / u.h)
        assert np.abs(v_hat - expected).max() < 1e-11 * np.abs(u_hat).max()

    @pytest.mark.parametrize("n, half_width, per_h", [(2, 8.0, 8), (3, 2.0, 2)])
    def test_rows_are_apply_W(self, n, half_width, per_h):
        # Each x1 row of v is W(x1) applied to that slice alone, bit for bit.
        h = 2.0 ** -4
        cut = build_cutoff(families.paraboloid_cutoff(n, 1, pow2=True), h)
        axes = aligned_position_axes(cut, half_width, h / per_h)
        u = Quasimode(cut, h).on_axes(axes)
        op = FlatteningOp(_a1(n, 1), h)
        v = transform_quasimode(op, u)
        for i in range(0, axes[0].points, 7):
            row = GridField(h, POSITION, axes[1:], u.data[i])
            np.testing.assert_array_equal(
                apply_W(op, row, axes[0].nodes()[i]).data, v.data[i])

    def test_rejects_h_mismatch(self, setup):
        op, u = setup
        op = FlatteningOp(op.a1, u.h / 2)
        with pytest.raises(ValueError, match="not on a position field at h"):
            transform_quasimode(op, u)
        with pytest.raises(ValueError, match="not on a position field at h"):
            flattening_reports(op, u)

    def test_unitarity_per_slice(self, setup):
        op, u = setup
        v = transform_quasimode(op, u)
        nu = np.sqrt(np.sum(np.abs(u.data) ** 2, axis=1))
        nv = np.sqrt(np.sum(np.abs(v.data) ** 2, axis=1))
        keep = nu > 1e-12 * nu.max()
        assert np.abs(nv[keep] / nu[keep] - 1).max() < 1e-12

    def test_plane_wave_exact_characteristic(self):
        h = 2.0 ** -4
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
        axes = aligned_position_axes(cut, 8.0, h / 8.0)
        a1 = _a1()
        op = FlatteningOp(a1, h)
        xi0 = cut.axes[1].nodes()[cut.axes[1].points // 2 + 3]
        a_val = float(a1.eval([xi0]))
        x1 = axes[0].nodes()[:, None]
        x2 = axes[1].nodes()[None, :]
        u = GridField(h, POSITION, axes,
                      np.exp(1j * (x1 * a_val + x2 * xi0) / h))
        dv = hd_x1(transform_quasimode(op, u), 1)
        assert np.abs(dv).max() < 1e-12

    def test_quasimode_ratios(self, setup):
        op, u = setup
        for rep in flattening_reports(op, u, orders=(1, 2)):
            assert rep.ratio <= 1.0 + rep.slack
            if rep.order == 1:
                assert rep.identity_residual <= rep.identity_bound

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_hd_x1_matches_expression(self, setup, order, dtype):
        _, u = setup
        data = u.data if dtype is complex else u.data.real.copy()
        f = GridField(u.h, POSITION, list(u.axes), data)
        want = f.data
        for _ in range(order):
            want = (f.h / 1j) * (want[2:] - want[:-2]) / (2.0 * f.axes[0].spacing)
        got = hd_x1(f, order)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_reports_memory_bounded(self):
        # The fio_n2_k1 config's finer field (h = 2^-5, 4096 x 64): the
        # reports' peak above it stays within six copies of it (about 5.1
        # measured).
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
        u = Quasimode(cut, h).on_axes(aligned_position_axes(cut, 8.0, h / 8.0))
        op = FlatteningOp(_a1(), h)
        tracemalloc.start()
        try:
            flattening_reports(op, u, orders=(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * u.data.nbytes

    def test_multiplier_commutes_with_W(self, setup):
        # ||q(hD_bar) v|| = ||(a1-a2)(hD_bar) u|| when q = a1 - a2.
        op, u = setup
        _, p2 = families.paraboloid_pair(2, 1)
        q = egorov_symbol(op.a1, graph_factor(p2).a)
        v = transform_quasimode(op, u)
        def q_bar(f):
            return apply_multiplier(f.data, f.axes[1:], f.h,
                                    lambda *xi: q.eval_grid(xi), first=1)
        qu, qv = q_bar(u), q_bar(v)
        assert np.linalg.norm(qv) == pytest.approx(np.linalg.norm(qu), rel=1e-10)


class TestEgorov:
    def test_uniform_pair(self):
        p1, p2 = families.paraboloid_pair(2, 3)
        q = egorov_symbol(graph_factor(p1).a, graph_factor(p2).a)
        assert format_symbol(q) == "x1^4"

    def test_equal_graphs(self):
        a = _a1(3, 1)
        assert egorov_symbol(a, a).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            egorov_symbol(_a1(2, 1), _a1(3, 1))

    def test_valley_pair(self):
        q1, q2 = families.valley_pair()
        q = egorov_symbol(graph_factor(q1).a, graph_factor(q2).a)
        x2 = parse_symbol("x1", dim=2)
        x3 = parse_symbol("x2", dim=2)
        assert q == (x2 - x3 ** 2) ** 2 + x2 ** 10

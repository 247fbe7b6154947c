"""Flattening conjugation: unitarity, intertwining, quasimode transport."""

from __future__ import annotations

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quasilab import experiments, families, fio, quasimode
from quasilab.errors import ConfigError, DimensionMismatchError
from quasilab.fio import FlatteningReport, flattening_reports, hd_x1, x1_axis
from quasilab.grids import AxisSpec, cell_volume, node_arrays
from quasilab.quasimode import CutoffField, build_cutoff
from quasilab.symbols import format_symbol, graph_factor, parse_symbol

from oracles import (GridField, aligned_axes, apply_multiplier, dual_axis,
                     eval_exact, every_column, ft_axes, ft_axis, l2_norm,
                     synthesize_grid, transform_quasimode, w_values)


FIO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fio_n2_k1.cfg"
SHIPPED_H = experiments.parse_config(FIO_CONFIG).values["h_sweep"]


def _a1(n=2, k=1):
    return graph_factor(families.paraboloid_pair(n, k)[0]).a


def bar_values(q, u):
    """The symbol q on the bar duals of the field u."""
    duals = [dual_axis(ax, u.h) for ax in u.axes[1:]]
    return q.eval_grid(node_arrays(duals, len(duals)))


def _hd_x1_power(data, h, dx, order):
    """(hD_x1)^order as order centered differences in turn."""
    for _ in range(order):
        data = hd_x1(data, h, dx)
    return data


def _random_field(h=2.0 ** -5, n=256, seed=3):
    # x1 nodes -1, 0 and 1: x1 needs no power of two.
    rng = np.random.default_rng(seed)
    axes = [AxisSpec(0.0, 1.5, 3), AxisSpec(0.1, 2.0, n)]
    data = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    return GridField(h, axes, data)


class TestW:
    def test_identity_at_zero(self):
        u = _random_field()
        out = transform_quasimode(_a1(), u)
        assert u.axes[0].nodes()[1] == 0.0
        row = u.data[1]
        assert np.abs(out.data[1] - row).max() < 1e-12 * np.abs(row).max()

    def test_unitary(self):
        u = _random_field()
        out = transform_quasimode(_a1(), u)
        assert abs(l2_norm(out) - l2_norm(u)) < 1e-12 * l2_norm(u)

    def test_adjoint_inverts(self):
        u = _random_field()
        back = transform_quasimode(-_a1(), transform_quasimode(_a1(), u))
        assert np.abs(back.data - u.data).max() < 1e-12 * np.abs(u.data).max()

    @pytest.mark.parametrize("check", [
        transform_quasimode,
        lambda a1, u: flattening_reports(a1, *_shipped_cutoff(2.0 ** -4),
                                         (1, 2))],
        ids=["transform_quasimode", "flattening_reports"])
    def test_rejects_dimension_mismatch(self, check):
        with pytest.raises(DimensionMismatchError):
            check(_a1(3, 1), _random_field())


class TestTransformQuasimode:
    @pytest.fixture()
    def setup(self):
        h, n, k = 2.0 ** -4, 2, 1
        cut = build_cutoff(families.paraboloid_cutoff(n, k, pow2=True), h)
        u = synthesize_grid(cut, aligned_axes(cut, x1_axis(8.0, h / 8.0)))
        return _a1(n, k), u

    def test_frequency_side_intertwining(self, setup):
        # F_bar[v](x1, xi) = exp(-i x1 a1(xi)/h) F_bar[u](x1, xi), node by node.
        a1, u = setup
        v = transform_quasimode(a1, u)
        u_hat, dual = ft_axis(u.data, u.axes[1], u.h, 1)
        v_hat, _ = ft_axis(v.data, v.axes[1], v.h, 1)
        xi = dual.nodes()[None, :]
        x1 = u.axes[0].nodes()[:, None]
        a_vals = a1.eval_grid([xi])
        expected = u_hat * np.exp(-1j * x1 * a_vals / u.h)
        assert np.abs(v_hat - expected).max() < 1e-11 * np.abs(u_hat).max()

    @pytest.mark.parametrize("n, half_width, per_h", [(2, 8.0, 8), (3, 2.0, 2)])
    def test_rows_are_slice_W(self, n, half_width, per_h):
        # Each x1 row of v is exp(-i x1 a1(hD_bar)/h) on that slice alone.
        h, a1 = 2.0 ** -4, _a1(n, 1)
        cut = build_cutoff(families.paraboloid_cutoff(n, 1, pow2=True), h)
        u = synthesize_grid(
            cut, aligned_axes(cut, x1_axis(half_width, h / per_h)))
        v = transform_quasimode(a1, u)
        a_bar = bar_values(a1, u)
        for i, x1 in list(enumerate(u.axes[0].nodes()))[::7]:
            w = apply_multiplier(u.data[i:i + 1], u.axes[1:], h,
                                 np.exp(-1j * x1 * a_bar / h))
            np.testing.assert_array_equal(w[0], v.data[i])

    def test_unitarity_per_slice(self, setup):
        a1, u = setup
        v = transform_quasimode(a1, u)
        nu = np.sqrt(np.sum(np.abs(u.data) ** 2, axis=1))
        nv = np.sqrt(np.sum(np.abs(v.data) ** 2, axis=1))
        keep = nu > 1e-12 * nu.max()
        assert np.abs(nv[keep] / nu[keep] - 1).max() < 1e-12

    def test_plane_wave_exact_characteristic(self):
        h = 2.0 ** -4
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
        axes = aligned_axes(cut, x1_axis(8.0, h / 8.0))
        a1 = _a1()
        xi0 = cut.axes[1].nodes()[cut.axes[1].points // 2 + 3]
        a_val = float(eval_exact(a1, [xi0]))
        x1 = axes[0].nodes()[:, None]
        x2 = axes[1].nodes()[None, :]
        u = GridField(h, axes, np.exp(1j * (x1 * a_val + x2 * xi0) / h))
        dv = hd_x1(transform_quasimode(a1, u).data, h, axes[0].spacing)
        assert np.abs(dv).max() < 1e-12

    def test_quasimode_ratios(self):
        for rep in flattening_reports(_a1(), *_shipped_cutoff(2.0 ** -4),
                                      (1, 2)):
            assert rep.ratio <= 1.0 + rep.slack
            if rep.order == 1:
                assert rep.identity_residual <= rep.identity_bound

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_hd_x1_matches_expression(self, setup, order, dtype):
        _, u = setup
        data = u.data if dtype is complex else u.data.real.copy()
        f = GridField(u.h, list(u.axes), data)
        want = f.data
        for _ in range(order):
            want = (f.h / 1j) * (want[2:] - want[:-2]) / (2.0 * f.axes[0].spacing)
        got = _hd_x1_power(f.data, f.h, f.axes[0].spacing, order)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_multiplier_commutes_with_W(self, setup):
        # ||q(hD_bar) v|| = ||(a1-a2)(hD_bar) u|| when q = a1 - a2.
        a1, u = setup
        _, p2 = families.paraboloid_pair(2, 1)
        q = a1 - graph_factor(p2).a
        v = transform_quasimode(a1, u)
        def q_bar(f):
            return apply_multiplier(f.data, f.axes[1:], f.h, bar_values(q, f))
        qu, qv = q_bar(u), q_bar(v)
        assert np.linalg.norm(qv) == pytest.approx(np.linalg.norm(qu), rel=1e-10)


def _norm(data, cell):
    """The quadrature L2 norm of data at the cell weight cell: one np.sum
    over the whole array's |.|^2."""
    sq = np.abs(data)
    return float(np.sqrt(np.sum(np.square(sq, out=sq)) * cell))


def _reports(orders, u, h, dx, amax, norm, v_diffs, resid):
    """FlatteningReports of the samples u, all on one side of the bar
    transform: norm is that side's quadrature norm, v_diffs(m) gives
    (hD_x1)^m v and resid() the intertwining residual; amax is max |a1|."""
    u_norm = norm(u)
    fd_rel = (dx / h) ** 2 / 6.0
    ratios = {m: norm(v_diffs(m)) / (h ** m * u_norm) for m in orders}
    nan = float("nan")
    r = bound = nan
    if 1 in orders:
        r = norm(resid()) / u_norm
        mid_gap = u[1:-1] - 0.5 * (u[2:] + u[:-2])
        d1 = amax * norm(mid_gap)
        d2 = dx * amax ** 2 / (2 * h) * u_norm
        bound = 1.5 * (d1 + d2) / u_norm + 1e-12
    return [FlatteningReport(m, ratios[m], m * fd_rel + 0.05,
                             r if m == 1 else nan, bound if m == 1 else nan)
            for m in orders]


def _whole_grid_reports(a1, u, orders):
    """The same reports on the whole grid at once, on the frequency side:
    u_hat, the FFT over the bar axes of the synthesized field u, W on every
    node, v_hat = W u_hat, its differences, a1 u_hat and the intertwining
    right-hand side each one whole-grid array, and each norm one np.sum
    over a whole array."""
    h, dx = u.h, u.axes[0].spacing
    u_hat, duals = ft_axes(u.data, u.axes[1:], h)
    w = w_values(a1, h, u.axes)
    a_bar = bar_values(a1, u)
    v_hat = w * u_hat

    def resid():
        rhs = np.multiply(w[1:-1], hd_x1(u_hat, h, dx) - a_bar * u_hat[1:-1])
        return hd_x1(v_hat, h, dx) - rhs

    return _reports(orders, u_hat, h, dx, float(np.abs(a_bar).max()),
                    lambda data: _norm(data, dx * cell_volume(duals)),
                    lambda m: _hd_x1_power(v_hat, h, dx, m), resid)


def _position_side_reports(a1, u, orders):
    """The same reports with every multiplier brought back to the position
    side and every norm taken there: v = W u, a1(hD_bar) u and the
    right-hand side W (hD_x1 - a1(hD_bar)) u each transformed and inverted
    in turn.  Parseval makes these the frequency-side norms, to rounding."""
    h, dx, bar = u.h, u.axes[0].spacing, u.axes[1:]
    w = w_values(a1, h, u.axes)
    a_bar = bar_values(a1, u)
    v = apply_multiplier(u.data, bar, h, w)

    def resid():
        hd_minus_a = hd_x1(u.data, h, dx) - apply_multiplier(
            u.data, bar, h, a_bar)[1:-1]
        return hd_x1(v, h, dx) - apply_multiplier(hd_minus_a, bar, h, w[1:-1])

    return _reports(orders, u.data, h, dx, float(np.abs(a_bar).max()),
                    lambda data: _norm(data, u.cell_volume),
                    lambda m: _hd_x1_power(v, h, dx, m), resid)


def _random_cutoff(rows, cols, seed):
    """(cutoff, x1 axis): random xi1 runs over every node but the ends of a
    cols-point bar grid at h = 2^-5, on rows x1 rows (no power of two
    needed)."""
    rng = np.random.default_rng(seed)
    h = 2.0 ** -5
    bar = AxisSpec(0.0, 2.0, cols)
    dual = dual_axis(bar, h)
    cut = CutoffField(h, [AxisSpec(0.0, 1.0, 64), dual],
                      col_coords=dual.nodes()[1:-1, None],
                      col_start=rng.integers(0, 32, cols - 2),
                      col_count=rng.integers(1, 32, cols - 2))
    return cut, AxisSpec(0.0, 1.5, rows)


def _shipped_cutoff(h, n=2, x1_half_width=8.0, per_h=8, pow2=True):
    """(cutoff, x1 axis) of the fio_n2_k1 config at h, or of its n-dim
    counterpart on x1_half_width and per_h x1 cells per h, or with bar
    counts not rounded to a power of two (pow2=False)."""
    cut = build_cutoff(families.paraboloid_cutoff(n, 1, pow2=pow2), h)
    return cut, x1_axis(x1_half_width, h / per_h)


def _whole_grid(cut, ax):
    """The quasimode of cut synthesized on the x1 axis ax and the bar axes
    whose duals are the cutoff's bar grid."""
    return synthesize_grid(cut, aligned_axes(cut, ax))


def _assert_reports_match(got, want):
    """got agrees with the reports want to rounding."""
    assert [g.order for g in got] == [r.order for r in want]
    for g, r in zip(got, want):
        assert g.ratio == pytest.approx(r.ratio, rel=1e-12, abs=0)
        assert g.slack == r.slack
        if g.order == 1:
            assert g.identity_bound == pytest.approx(
                r.identity_bound, rel=1e-12, abs=0)
            assert abs(g.identity_residual - r.identity_residual) <= 1e-15


def _recorded_blocks(monkeypatch):
    """The (start, stop) of every block of columns flattening_reports reads,
    in the order it reads them."""
    seen = []
    blocks = fio.column_transforms

    def recording(field, x1):
        for block, u in blocks(field, x1):
            seen.append((block.start, block.start + u.shape[1]))
            yield block, u

    monkeypatch.setattr(fio, "column_transforms", recording)
    return seen


def _tiles(step, count):
    """Blocks of step columns over count columns, the last holding the rest."""
    return [(i, min(i + step, count)) for i in range(0, count, step)]


class TestBlockedReports:
    ORDERS = [(1,), (2,), (1, 2), (3,)]

    @pytest.mark.parametrize("orders", ORDERS, ids=str)
    @pytest.mark.parametrize("block_cols", [1, 2, 5, 16, 37])
    def test_blocks_match_whole_grid(self, orders, block_cols, monkeypatch):
        # 37 x1 rows of 14 columns, read in blocks of block_cols columns:
        # 5 leaves a partial last block, and 16 and 37 read every column as
        # one block.  Each agrees with the whole synthesized grid's
        # frequency-side reports.
        cut, ax = _random_cutoff(37, 16, seed=5)
        want = _whole_grid_reports(_a1(), _whole_grid(cut, ax), orders)
        monkeypatch.setattr(quasimode, "WORK_BLOCK_BYTES", 64 * 37 * block_cols)
        seen = _recorded_blocks(monkeypatch)
        got = flattening_reports(_a1(), cut, ax, orders)
        assert seen == _tiles(block_cols, 14)
        _assert_reports_match(got, want)

    @pytest.mark.parametrize("orders", ORDERS, ids=str)
    def test_default_block_steps_match_whole_grid(self, orders, monkeypatch):
        # 600 x1 rows of 62 columns at the default working block: a quarter
        # of it holds 6 columns, so ten blocks of 6 and one of 2.
        cut, ax = _random_cutoff(600, 64, seed=7)
        seen = _recorded_blocks(monkeypatch)
        got = flattening_reports(_a1(), cut, ax, orders)
        assert seen == _tiles(6, 62)
        _assert_reports_match(
            got, _whole_grid_reports(_a1(), _whole_grid(cut, ax), orders))

    @pytest.mark.parametrize("orders", ORDERS, ids=str)
    def test_shipped_blocks_match_whole_grid(self, orders, monkeypatch):
        # The fio_n2_k1 config's coarser field (h = 2^-4, 2048 x 64), its
        # stored mirror columns, half of its 50, read two to a block.
        cut, ax = _shipped_cutoff(2.0 ** -4)
        assert (ax.points, cut.axes[1].points) == (2048, 64)
        seen = _recorded_blocks(monkeypatch)
        got = flattening_reports(_a1(), cut, ax, orders)
        assert seen == _tiles(2, 25)
        assert (len(cut.col_count), len(every_column(cut).col_count)) == (25, 50)
        _assert_reports_match(
            got, _whole_grid_reports(_a1(), _whole_grid(cut, ax), orders))

    def test_blocks_must_tile_the_grid(self, monkeypatch):
        # Every stored column is read once, in order, in blocks of at most a
        # quarter working block of complex cells; a working block too small
        # for one column's x1 profile still reads one whole column.
        cut, ax = _shipped_cutoff(2.0 ** -3, n=3, x1_half_width=2.0, per_h=2)
        rows, count = ax.points, len(cut.col_count)
        seen = _recorded_blocks(monkeypatch)
        flattening_reports(_a1(3), cut, ax, (1,))
        step = seen[0][1] - seen[0][0]
        assert 16 * rows * step <= quasimode.WORK_BLOCK_BYTES // 4
        assert seen == _tiles(step, count) and len(seen) > 1
        seen.clear()
        monkeypatch.setattr(quasimode, "WORK_BLOCK_BYTES", 64 * rows - 1)
        flattening_reports(_a1(3), cut, ax, (1,))
        assert seen == _tiles(1, count)

    @pytest.mark.parametrize("orders", [(1, 2), (3,)], ids=str)
    @pytest.mark.parametrize("field", [
        lambda: _random_cutoff(37, 16, seed=5),
        lambda: _random_cutoff(600, 64, seed=7),
        lambda: _shipped_cutoff(2.0 ** -4),
        lambda: _shipped_cutoff(2.0 ** -5),
        lambda: _shipped_cutoff(2.0 ** -3, n=3, x1_half_width=2.0, per_h=2)],
        ids=["37x16", "600x64", "fio-h=2^-4", "fio-h=2^-5", "fio-n3-h=2^-3"])
    def test_frequency_side_matches_position_side(self, field, orders):
        # Parseval: the norms taken on the columns' frequency side are the
        # position-side norms of v = W u and of the intertwining residual,
        # whose multipliers are each transformed and inverted, on the
        # synthesized field, to rounding.
        cut, ax = field()
        a1 = _a1(cut.dim)
        got = flattening_reports(a1, cut, ax, orders)
        _assert_reports_match(
            got, _position_side_reports(a1, _whole_grid(cut, ax), orders))

    def test_rejects_orders_the_grid_cannot_carry(self):
        # 2M < n1 leaves an interior row; at 2M >= n1 none is left.
        cut, ax = _random_cutoff(8, 16, seed=5)
        assert len(flattening_reports(_a1(), cut, ax, (1, 3))) == 2
        with pytest.raises(ValueError, match="8"):
            flattening_reports(_a1(), cut, ax, (1, 4))


def _report_bits(reports):
    """Every float of the reports, as hex."""
    return [[float(x).hex() for x in dataclasses.astuple(r)] for r in reports]


def _unweighted_sums(monkeypatch):
    """Make flattening_reports sum each |.|^2 unweighted, as one np.sum,
    asserting that every column stands for itself alone."""
    def plain(data, weight):
        assert (weight == 1.0).all()
        sq = np.abs(data)
        return float(np.sum(np.square(sq, out=sq)))

    monkeypatch.setattr(fio, "_abs_sq_sum", plain)


class TestMirrorColumns:
    """The check on the stored mirror columns, each |.|^2 weighted by the
    columns it stands for, against every column."""

    @pytest.mark.parametrize("orders", [(1, 2), (3,)], ids=str)
    @pytest.mark.parametrize("field, kept", [
        (lambda: _shipped_cutoff(2.0 ** -4), 25),
        (lambda: _shipped_cutoff(2.0 ** -5), 25),
        (lambda: _shipped_cutoff(2.0 ** -3, n=3, x1_half_width=2.0, per_h=2),
         506),
        (lambda: _shipped_cutoff(2.0 ** -4, pow2=False), 23),
        (lambda: _shipped_cutoff(2.0 ** -3, n=3, x1_half_width=2.0, per_h=2,
                                 pow2=False), 424)],
        ids=["fio-h=2^-4", "fio-h=2^-5", "fio-n3-h=2^-3", "odd-h=2^-4",
             "odd-n3-h=2^-3"])
    def test_paired_match_every_column(self, field, kept, orders,
                                       monkeypatch):
        # The shipped fields read half their 50 columns and the n = 3 one a
        # quarter of its 2,024: each bar axis has an even count, so no
        # column lies on a mirror plane and every column stands for 2 or 4.
        # On 57 bar nodes per axis the columns on the mirror planes stand
        # for themselves alone: 23 of 45 columns are read, and 424 of 1,605.
        # The reports agree with those of every column to rounding.
        cut, ax = field()
        a1 = _a1(cut.dim)
        every = every_column(cut)
        want = flattening_reports(a1, every, ax, orders)
        seen = _recorded_blocks(monkeypatch)
        got = flattening_reports(a1, cut, ax, orders)
        assert seen[-1][1] == kept == len(cut.col_count) < len(every.col_count)
        _assert_reports_match(got, want)

    ODD_SYMBOLS = [("x1^2 + x1", 2, 2), ("x1^3", 2, 2), ("x1^3 + x2^2", 3, 2),
                   ("x1^2 + x2^3", 3, 3), ("x1*x2", 3, 2)]

    @pytest.mark.parametrize("symbol, n, axis", ODD_SYMBOLS)
    def test_odd_power_on_a_closed_axis_is_refused(self, symbol, n, axis,
                                                   monkeypatch):
        # The columns on the lower side of a closed axis are not stored,
        # and a1 there is not a1 at their mirrors: the check is refused,
        # naming the first such axis, before any column is read.
        h = 2.0 ** -4 if n == 2 else 2.0 ** -3
        cut, ax = _shipped_cutoff(h, n=n, x1_half_width=2.0, per_h=2)
        assert all(cut.closed)
        seen = _recorded_blocks(monkeypatch)
        with pytest.raises(ValueError, match=f"odd power of xi{axis},"):
            flattening_reports(parse_symbol(symbol, dim=n - 1), cut, ax,
                               (1, 2))
        assert seen == []

    @pytest.mark.parametrize("symbol, n, axis", ODD_SYMBOLS)
    def test_odd_power_on_every_column(self, symbol, n, axis, monkeypatch):
        # A field that stores every column, in the whole build's order,
        # closes no axis: each column is read with weight 1, so the check
        # is the whole field's, bit for bit.
        h = 2.0 ** -4 if n == 2 else 2.0 ** -3
        cut, ax = _shipped_cutoff(h, n=n, x1_half_width=2.0, per_h=2)
        every = every_column(cut)
        a1 = parse_symbol(symbol, dim=n - 1)
        seen = _recorded_blocks(monkeypatch)
        got = flattening_reports(a1, every, ax, (1, 2))
        assert seen[-1][1] == len(every.col_count) > len(cut.col_count)
        _unweighted_sums(monkeypatch)
        assert _report_bits(got) == _report_bits(
            flattening_reports(a1, every, ax, (1, 2)))

    @pytest.mark.parametrize("field", [
        lambda: _random_cutoff(37, 16, seed=5),
        lambda: _random_cutoff(600, 64, seed=7)], ids=["37x16", "600x64"])
    def test_unchecked_closure_keeps_its_bits(self, field, monkeypatch):
        # A field whose closure nobody checked pairs nothing: every column
        # is read with weight 1, so the sums are the unweighted ones bit for
        # bit.
        cut, ax = field()
        assert cut.closed == ()
        got = flattening_reports(_a1(), cut, ax, (1, 2))
        _unweighted_sums(monkeypatch)
        assert _report_bits(got) == _report_bits(
            flattening_reports(_a1(), cut, ax, (1, 2)))


class TestStreamedMemory:
    """The fio_n2_k1 config's finer field (h = 2^-5, 4096 x 64), checked
    column block by column block: neither the field nor any |.|^2 array
    over the grid is held, only one block's x1 profiles and temporaries."""

    @staticmethod
    def peak(x1_half_width):
        """tracemalloc peak of flattening_reports at h = 2^-5 on a grid of
        x1 half-width x1_half_width, and the grid's complex bytes."""
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
        ax = x1_axis(x1_half_width, h / 8.0)
        tracemalloc.start()
        try:
            flattening_reports(_a1(), cut, ax, (1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, 16 * ax.points * cut.axes[1].points

    def test_memory_bounded(self):
        # At most 0.9 copies of the grid (about 0.18 measured).
        peak, grid = self.peak(8.0)
        assert grid == 16 * 4096 * 64
        assert peak <= 0.9 * grid

    def test_work_arrays_follow_the_block(self, monkeypatch):
        # Blocks of 1, 4 and 16 of the 50 columns: the peak stays within
        # 14 blocks' complex x1 profiles (11.7, 9.1 and 8.6 measured), so
        # the check's work arrays are sized by its block of columns.
        for cols in (1, 4, 16):
            monkeypatch.setattr(quasimode, "WORK_BLOCK_BYTES",
                                64 * 4096 * cols)
            peak, _ = self.peak(8.0)
            assert peak <= 14 * 16 * 4096 * cols

    def test_no_grid_sized_array(self):
        # Twice the x1 rows at the same h and bar grid: a whole field, or a
        # |.|^2 array over the grid's rows, would lift the peak by at least
        # half a copy of the smaller grid.  The peak stays within a quarter.
        small, grid = self.peak(8.0)
        large, _ = self.peak(16.0)
        assert large - small <= 0.25 * grid


class TestX1Axis:
    @pytest.mark.parametrize("bound", [
        *(h / experiments._FIO_CELLS_PER_H for h in SHIPPED_H), 1.0, 4.0])
    @pytest.mark.parametrize("half_width", [0.75, 2.0, 6.0, 8.0, 12.0])
    def test_count_rule(self, half_width, bound):
        # The fewest cells no wider than the bound, rounded up to a power of
        # two and at least 2: half as many would be wider than the bound,
        # unless there are 2.
        ax = x1_axis(half_width, bound)
        n = ax.points
        assert (ax.center, ax.half_width) == (0.0, half_width)
        assert n >= 2 and n & (n - 1) == 0
        assert ax.spacing <= bound
        assert n == 2 or 2 * half_width / (n // 2) > bound

    @pytest.mark.parametrize("half_width", [2.0, 8.0, 12.0])
    def test_order_check_counts_the_rows_the_run_takes(self, half_width,
                                                       monkeypatch):
        # At each h of the shipped sweep the order check refuses M = n1 / 2
        # for n1 the x1 count of the axis run_fio_check hands the check.
        v = dict(experiments.parse_config(FIO_CONFIG).values,
                 x1_half_width=half_width)
        seen = []
        check = experiments.flattening_reports

        def recording(a1, field, axis, orders):
            seen.append(axis.points)
            return check(a1, field, axis, orders)

        monkeypatch.setattr(experiments, "flattening_reports", recording)
        experiments.run_fio_check(v)
        assert len(seen) == len(SHIPPED_H)
        for h, n1 in zip(SHIPPED_H, seen):
            with pytest.raises(ConfigError, match=f"of the {n1} x1 rows at"):
                experiments._check_fio_orders(
                    dict(v, h_sweep=[h], orders=[1, n1 // 2]))


class TestEgorov:
    def test_uniform_pair(self):
        p1, p2 = families.paraboloid_pair(2, 3)
        q = graph_factor(p1).a - graph_factor(p2).a
        assert format_symbol(q) == "x1^4"

    def test_equal_graphs(self):
        a = _a1(3, 1)
        assert (a - a).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            _a1(2, 1) - _a1(3, 1)

    def test_valley_pair(self):
        q1, q2 = families.valley_pair()
        q = graph_factor(q1).a - graph_factor(q2).a
        x2 = parse_symbol("x1", dim=2)
        x3 = parse_symbol("x2", dim=2)
        assert q == (x2 - x3 ** 2) ** 2 + x2 ** 10

"""Exponent formulas (exact), Lp norms, and scaling fits."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasilab.analysis import (INF_P, BlockNorms, _halves, contact_delta,
                               exponent, fit_scaling, oscillation_axes,
                               parse_p, shell_slices, sogge_delta,
                               submanifold_delta, transverse_delta)
from quasilab.errors import TailDominanceError
from quasilab.grids import AxisSpec, cell_volume

from oracles import ft_axes, lp_norm, shell_mask, synthesize_at

F = Fraction

# Hand-evaluated points covering both branches and the kink p0 = 2(n+1)/(n-1).
CONTACT_POINTS = [
    (2, 2, 1, F(0)),
    (2, 6, 1, F(1, 6)),          # kink for n = 2
    (2, INF_P, 1, F(1, 4)),
    (2, INF_P, 3, F(3, 8)),
    (2, 8, 1, F(3, 16)),
    (2, 8, 3, F(7, 32)),
    (3, 2, 1, F(0)),
    (3, 4, 5, F(1, 4)),          # kink for n = 3
    (3, 4, 3, F(1, 4)),
    (3, INF_P, 1, F(1, 2)),
    (3, INF_P, 3, F(3, 4)),
    (3, 8, 3, F(1, 2)),
    (4, INF_P, 1, F(3, 4)),
    (4, F(10, 3), 3, F(3, 10)),  # kink for n = 4
    (3, 5, 3, F(7, 20)),
    (2, 4, 7, F(1, 8)),
]


class TestContactExponent:
    @pytest.mark.parametrize("n,p,k,expected", CONTACT_POINTS)
    def test_hand_evaluated_points(self, n, p, k, expected):
        assert contact_delta(n, p, k) == expected

    def test_kink_branch_agreement_exact(self):
        for n in (2, 3, 4, 5):
            p0 = F(2 * (n + 1), n - 1)
            for k in (1, 3, 5, 9):
                low = F(n - 1, 4) - F(n - 1, 2) / p0
                high = (F(n - 1, 2) - n / p0
                        - F(1, k + 1) * (F(n - 1, 2) - (n + 1) / p0))
                assert low == high == contact_delta(n, p0, k)

    def test_continuity_near_kink(self):
        for n in (2, 3, 5):
            p0 = F(2 * (n + 1), n - 1)
            for k in (1, 3):
                eps = F(1, 10 ** 6)
                below = contact_delta(n, p0 - eps, k)
                above = contact_delta(n, p0 + eps, k)
                assert abs(below - above) < F(1, 10 ** 4)

    def test_agrees_with_sogge_on_low_branch(self):
        for n in (2, 3, 4):
            p0 = F(2 * (n + 1), n - 1)
            for i in range(12):
                p = 2 + (p0 - 2) * F(i, 11)
                for k in (1, 3, 7):
                    assert contact_delta(n, p, k) == sogge_delta(n, p)

    def test_never_exceeds_sogge(self):
        for n in (2, 3, 4):
            for i in range(25):
                s = F(i, 48)  # 1/p in [0, 1/2]
                p = INF_P if s == 0 else 1 / s
                for k in (1, 3, 5):
                    assert contact_delta(n, p, k) <= sogge_delta(n, p)

    def test_large_k_limit_bound(self):
        # |delta_contact - delta_sogge| <= (n-1)/(2(k+1)) above the kink.
        for n in (2, 3):
            p0 = F(2 * (n + 1), n - 1)
            for k in (1, 5, 25, 99):
                for i in range(8):
                    s = F(i, 16) * F(n - 1, n + 1) / 2
                    p = INF_P if s == 0 else 1 / s
                    if p is not INF_P and p < p0:
                        continue
                    gap = sogge_delta(n, p) - contact_delta(n, p, k)
                    assert 0 <= gap <= F(n - 1, 2 * (k + 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            contact_delta(1, 4, 1)
        with pytest.raises(ValueError):
            contact_delta(3, 1, 1)
        with pytest.raises(ValueError):
            contact_delta(3, 4, 0)


class TestOtherFamilies:
    def test_sogge_values(self):
        assert sogge_delta(3, INF_P) == F(1)
        assert sogge_delta(2, 6) == F(1, 6)
        assert sogge_delta(3, 2) == F(0)

    def test_transverse_reduces_to_sogge(self):
        for n in (2, 3, 5):
            for i in range(10):
                s = F(i, 20)
                p = INF_P if s == 0 else 1 / s
                assert transverse_delta(n, p, 1) == sogge_delta(n, p)

    def test_transverse_value(self):
        assert transverse_delta(3, INF_P, 1) == F(1)
        assert transverse_delta(4, INF_P, 2) == F(1)

    def test_submanifold_continuity_at_branch(self):
        for n in (3, 4, 5):
            p0 = F(2 * n, n - 1)
            d = n - 1
            low = F(n - 1, 4) - F(d - 1, 2) / p0
            high = F(n - 1, 2) - d / p0
            assert low == high == submanifold_delta(n, p0, d)

    def test_submanifold_out_of_range(self):
        with pytest.raises(ValueError):
            submanifold_delta(4, 2, 2)  # d = n-2 needs p > 2
        with pytest.raises(ValueError):
            submanifold_delta(3, 4, 3)  # d must be <= n-1

    def test_dispatch(self):
        assert exponent("contact", 3, INF_P, k=1) == F(1, 2)
        with pytest.raises(ValueError):
            exponent("unknown", 3, 4)

    def test_parse_p(self):
        assert parse_p("inf") is INF_P
        assert parse_p("5/2") == F(5, 2)
        assert parse_p(4) == F(4)


class TestLpNorm:
    def test_unit_box_indicator(self):
        values = np.ones(100)
        for p in (1, 2, 4, "inf"):
            out = lp_norm(values, 0.01, p)
            assert out.value == pytest.approx(1.0, rel=1e-12)

    def test_matches_parseval(self):
        rng = np.random.default_rng(37)
        ax = AxisSpec(0.0, 2.0, 128)
        data = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        hat, duals = ft_axes(data[None], [ax], 2.0 ** -4)
        norm = lp_norm(data, ax.spacing, 2).value
        hat_norm = np.sqrt(np.sum(np.abs(hat) ** 2) * cell_volume(duals))
        assert norm == pytest.approx(hat_norm, rel=1e-6)

    def test_sup_norm_includes_peak(self):
        values = np.zeros((8, 8))
        values[3, 4] = 7.0
        assert lp_norm(values, 1.0, "inf").value == 7.0

    def test_sup_norm_of_synthesis_dominates_peak(self):
        # A target set containing 0 puts the exact maximum in the sup norm.
        from quasilab import families
        from quasilab.quasimode import build_cutoff

        h = 2.0 ** -6
        cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
        rng = np.random.default_rng(51)
        targets = np.vstack([[0.0, 0.0], rng.standard_normal((30, 2)) * 0.1])
        vals = synthesize_at(cut, targets)
        assert lp_norm(vals, 1.0, "inf").value >= cut.peak() * (1 - 1e-12)

    def test_sup_norm_boundary_maximizer_refused(self):
        values = np.zeros((8, 8))
        values[0, 4] = 7.0
        with pytest.raises(TailDominanceError):
            lp_norm(values, 1.0, "inf", shell_mask((8, 8)))

    def test_tail_refusal_on_heavy_boundary(self):
        values = np.ones((16, 16))
        with pytest.raises(TailDominanceError):
            lp_norm(values, 1.0, 2, shell_mask((16, 16)), shell_mask((16, 16), 1))

    def test_decaying_field_accepted(self):
        x = np.linspace(-8, 8, 129)
        vals = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 8.0)
        out = lp_norm(vals, 0.1, 4, shell_mask(vals.shape),
                      shell_mask(vals.shape, 1))
        assert out.tail_estimate < 0.01 * out.value

    def test_no_mask_no_policing(self):
        assert lp_norm(np.ones(4), 1.0, 2).tail_estimate == 0.0


def envelope(shape, rate):
    """exp(-rate |t|^2) on a product grid of t in [-1, 1] per axis."""
    dim = len(shape)
    return np.exp(-rate * sum(
        np.linspace(-1, 1, n).reshape([n if a == d else 1 for a in range(dim)])
        ** 2 for d, n in enumerate(shape)))


def policed_oracle(values, weight, p):
    """lp_norm with both shell masks, as the acceptance gate calls it."""
    shape = np.shape(values)
    return lp_norm(values, weight, p, shell_mask(shape, 0),
                   shell_mask(shape, 1))


def block_norms(values, weight, ps, cuts=()):
    """BlockNorms fed values in blocks of first-axis rows split at cuts."""
    edges = [0, *cuts, len(values)]
    sums = BlockNorms(np.shape(values), weight, ps)
    for i0, i1 in zip(edges, edges[1:]):
        sums.add(slice(i0, i1), values[i0:i1])
    return sums.norms()


def splits(n):
    """First-axis cuts for a length-n axis: one block, two, one row each,
    and blocks that split the two outer shell layers (i0 = 1, 2, n - 2)."""
    return [tuple(sorted({i for i in cuts if 0 < i < n}))
            for cuts in ((), (n // 2,), range(1, n), (1, 2, n - 2))]


def assert_matches_oracle(values, weight, p):
    """The block norms on one p, however the grid is split into blocks,
    give the oracle's norm and tail, or its refusal."""
    try:
        want = policed_oracle(values, weight, p)
    except TailDominanceError as err:
        for cuts in splits(len(values)):
            with pytest.raises(TailDominanceError) as got:
                block_norms(values, weight, [p], cuts)
            assert str(got.value) == str(err)
        return str(err)
    for cuts in splits(len(values)):
        got, = block_norms(values, weight, [p], cuts)
        assert got.p is p
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)
        assert got.tail_estimate == pytest.approx(want.tail_estimate, rel=0,
                                                  abs=1e-12 * want.value)
    return None


GRID_SHAPES = [(24, 20), (12, 11, 10), (8, 7, 6, 9)]
ORACLE_PS = [INF_P, F(3), F(4), F(6), F(8), F(16)]


class TestHalves:
    """The block sums added by halves, as numpy's pairwise tree adds its
    nodes."""

    def test_pairs_neighbours_and_carries_the_odd_one_up(self):
        # 2^53 + 1 rounds to 2^53, so the grouping decides each sum.
        big = 2.0 ** 53
        assert _halves([7.0]) == 7.0
        assert _halves([big, 1.0]) == big
        assert _halves([big, 1.0, 1.0]) == (big + 1.0) + 1.0 == big
        assert _halves([big, 1.0, 1.0, 1.0]) == \
            (big + 1.0) + (1.0 + 1.0) == big + 2.0
        assert _halves([big, 1.0, 1.0, 1.0, 1.0]) == \
            ((big + 1.0) + (1.0 + 1.0)) + 1.0 == big + 4.0
        # A running sum of the same values rounds otherwise.
        assert ((big + 1.0) + 1.0) + 1.0 == big

    @pytest.mark.parametrize("blocks", [2, 8, 32, 1024])
    def test_tree_node_blocks_give_one_np_sum_bits(self, blocks):
        # 2^b equal blocks of 2^j >= 128 values, each a node of numpy's
        # tree, on values of both signs over 16 decades.
        n = 1 << 17
        rng = np.random.default_rng(blocks)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        sums = [float(np.sum(b)) for b in np.split(values, blocks)]
        assert np.float64(_halves(sums)).tobytes() == np.sum(values).tobytes()


class TestBlockNorms:
    """The sweep's block-by-block norms against the per-p, mask-based
    lp_norm."""

    @pytest.mark.parametrize("shape", GRID_SHAPES, ids=["2d", "3d", "4d"])
    def test_matches_oracle(self, shape):
        rng = np.random.default_rng(len(shape))
        values = envelope(shape, 3.0) * (1 + 0.2 * rng.random(shape)) \
            * np.exp(2j * np.pi * rng.random(shape))
        for p in ORACLE_PS:
            assert assert_matches_oracle(values, 0.01, p) is None
        before = values.copy()
        for ps in (ORACLE_PS, ORACLE_PS[::-1]):
            for cuts in splits(shape[0]):
                got = block_norms(values, 0.01, ps, cuts)
                assert [m.p for m in got] == ps
                for m in got:
                    want = policed_oracle(values, 0.01, m.p).value
                    # One block sums the whole grid as the oracle does.
                    assert m.value == (want if not cuts else pytest.approx(
                        want, rel=1e-12))
        np.testing.assert_array_equal(values, before)

    @pytest.mark.parametrize("shape,rows", [((64, 16, 8), 1), ((64, 16, 8), 8),
                                            ((32, 8, 4, 4), 4), ((256, 64), 2)],
                             ids=["3d-1row", "3d-8rows", "4d", "2d"])
    def test_power_of_two_blocks_give_the_oracle_bits(self, shape, rows):
        # Power-of-two blocks of >= 128 cells, as the sweeps' grids give:
        # each block is one node of numpy's tree over the whole grid.
        rng = np.random.default_rng(sum(shape))
        values = envelope(shape, 4.0) * np.exp(2j * np.pi * rng.random(shape))
        got = block_norms(values, 0.37, ORACLE_PS,
                          range(rows, shape[0], rows))
        assert [m.value for m in got] == \
            [policed_oracle(values, 0.37, p).value for p in ORACLE_PS]

    @pytest.mark.parametrize("shape", GRID_SHAPES, ids=["2d", "3d", "4d"])
    def test_refusals_match_oracle(self, shape):
        # L-inf maximum on the shell: a smooth field plus one boundary spike.
        spike = envelope(shape, 3.0).astype(complex)
        spike[(0,) + tuple(n // 2 for n in shape[1:])] = 2.0
        assert "Linf maximizer" in assert_matches_oracle(spike, 0.01, INF_P)
        # The same spike on the other x1 face, and on a face of the last
        # axis, which every block crosses.
        spike = np.flip(spike, axis=0)
        assert "Linf maximizer" in assert_matches_oracle(spike, 0.01, INF_P)
        spike = envelope(shape, 3.0).astype(complex)
        spike[tuple(n // 2 for n in shape[:-1]) + (-1,)] = 2.0
        assert "Linf maximizer" in assert_matches_oracle(spike, 0.01, INF_P)
        # Shells that do not decay.
        flat = np.ones(shape, dtype=complex)
        assert "not decaying" in assert_matches_oracle(flat, 0.01, F(4))
        # Decaying shells whose extrapolated exterior is over 1 %.
        slow = envelope(shape, 0.5)
        assert "exterior adds" in assert_matches_oracle(slow, 0.01, F(3))
        # The first refused p raises, whatever the p after it, and however
        # the grid is split.
        for cuts in splits(shape[0]):
            with pytest.raises(TailDominanceError, match="exterior adds"):
                block_norms(slow, 0.01, [INF_P, F(3), F(8)], cuts)
            with pytest.raises(TailDominanceError, match="not decaying"):
                block_norms(flat, 0.01, [F(4), INF_P, F(3)], cuts)
            assert block_norms(slow, 0.01, [INF_P, F(8)], cuts)[1].value == \
                pytest.approx(policed_oracle(slow, 0.01, F(8)).value, rel=1e-12)

    def test_blocks_must_tile_the_grid(self):
        values = envelope((8, 6), 3.0)
        sums = BlockNorms(values.shape, 0.1, [F(4)])
        sums.add(slice(0, 3), values[0:3])
        with pytest.raises(ValueError, match="tile"):
            sums.add(slice(4, 8), values[4:8])
        with pytest.raises(ValueError, match="tile"):
            sums.norms()
        with pytest.raises(ValueError, match="nonnegative"):
            BlockNorms(values.shape, -1.0, [F(4)])

    @pytest.mark.parametrize("dim,most", [(1, 7), (2, 7), (3, 7), (4, 5)])
    def test_shell_slices_partition_shell_mask(self, dim, most):
        for shape in itertools.product(range(1, most + 1), repeat=dim):
            for layer in range(5):
                hits = np.zeros(shape, dtype=int)
                for box in shell_slices(shape, layer):
                    assert hits[box].size > 0
                    hits[box] += 1
                assert hits.max(initial=0) <= 1, (shape, layer)
                np.testing.assert_array_equal(
                    hits == 1, shell_mask(shape, layer),
                    err_msg=f"shape {shape}, layer {layer}")

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(shape=st.lists(st.integers(1, 7), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1),
           rate=st.floats(0.0, 30.0),
           weight=st.floats(1e-6, 10.0),
           p=st.one_of(st.just(INF_P), st.floats(2.0, 16.0)))
    def test_property_matches_oracle(self, shape, seed, rate, weight, p):
        # Random complex values under a random decay: rate 0 is plain noise,
        # which the shell checks mostly refuse; fast decay mostly passes.
        shape = tuple(shape)
        rng = np.random.default_rng(seed)
        values = envelope(shape, rate) * (rng.standard_normal(shape)
                                          + 1j * rng.standard_normal(shape))
        assert_matches_oracle(values, weight, p)

    @pytest.mark.parametrize("dim,most", [(1, 7), (2, 6), (3, 4), (4, 3)])
    def test_one_sided_shell_slices_are_the_orthant_of_the_shell(self, dim,
                                                                 most):
        # On a halved axis the grid is the upper half of a whole grid's
        # axis of twice the count: the boxes partition exactly the whole
        # grid's shell cut to that orthant.
        for shape in itertools.product(range(1, most + 1), repeat=dim):
            for halved in itertools.product((False, True), repeat=dim):
                whole = [2 * n if half else n for n, half in zip(shape, halved)]
                orthant = tuple(slice(n, None) if half else slice(None)
                                for n, half in zip(shape, halved))
                for layer in range(5):
                    hits = np.zeros(shape, dtype=int)
                    for box in shell_slices(shape, layer, halved):
                        assert hits[box].size > 0
                        hits[box] += 1
                    assert hits.max(initial=0) <= 1, (shape, halved, layer)
                    np.testing.assert_array_equal(
                        hits == 1, shell_mask(whole, layer)[orthant],
                        err_msg=f"shape {shape}, {halved}, layer {layer}")

    @pytest.mark.parametrize("shape", GRID_SHAPES, ids=["2d", "3d", "4d"])
    def test_orthant_gives_the_whole_grids_norms(self, shape):
        # Values even in every axis but the last on a grid twice as long on
        # those axes: the orthant's block norms, halved on those axes, are
        # the whole grid's norms and tail estimates to rounding, and its
        # refusals are the whole grid's (slow decay refuses some p).
        whole = tuple(2 * n for n in shape[:-1]) + shape[-1:]
        halved = (True,) * (len(shape) - 1) + (False,)
        orthant = tuple(slice(n, None) for n in shape[:-1])
        for rate in (3.0, 0.5):
            values = envelope(whole, rate)
            values = values + values[tuple(slice(None, None, -1)
                                            for _ in shape[:-1])]
            for p in ORACLE_PS:
                sums = BlockNorms(shape, 0.01, [p], halved)
                for i0 in range(shape[0]):
                    sums.add(slice(i0, i0 + 1), values[orthant][i0:i0 + 1])
                try:
                    want = policed_oracle(values, 0.01, p)
                except TailDominanceError as err:
                    with pytest.raises(TailDominanceError) as got:
                        sums.norms()
                    assert str(got.value) == str(err)
                    continue
                got, = sums.norms()
                assert got.value == pytest.approx(want.value, rel=1e-12)
                assert got.tail_estimate == pytest.approx(
                    want.tail_estimate, rel=0, abs=1e-12 * want.value)


class TestFitScaling:
    def test_exact_power_law(self):
        hs = [2.0 ** -e for e in range(4, 10)]
        norms = [3.7 * h ** -0.625 for h in hs]
        rep = fit_scaling(hs, norms, -0.625, 0.1)
        assert rep.passed and abs(rep.slope + 0.625) < 1e-10
        assert rep.slope_stderr < 1e-10

    def test_verdict_fails_outside_tolerance(self):
        hs = [2.0 ** -e for e in range(4, 10)]
        norms = [h ** -0.5 for h in hs]
        rep = fit_scaling(hs, norms, -0.7, 0.1)
        assert not rep.passed

    def test_requires_five_points(self):
        with pytest.raises(ValueError):
            fit_scaling([0.5, 0.25], [1, 2], 0.0, 0.1)

    def test_requires_positive_norms(self):
        hs = [2.0 ** -e for e in range(4, 10)]
        with pytest.raises(ValueError):
            fit_scaling(hs, [0.0] * len(hs), 0.0, 0.1)


def depth_shell_mask(shape, layer):
    """Oracle for shell_mask: each cell's distance to the nearest face, as
    an int64 depth array, compared with the layer."""
    depth = np.full(shape, np.iinfo(np.int64).max, dtype=np.int64)
    for axis, npts in enumerate(shape):
        idx = np.minimum(np.arange(npts), npts - 1 - np.arange(npts))
        view = idx.reshape([npts if a == axis else 1 for a in range(len(shape))])
        depth = np.minimum(depth, view)
    return depth == layer


class TestHelpers:
    def test_shell_mask_layers(self):
        m0 = shell_mask((5, 5))
        m1 = shell_mask((5, 5), 1)
        assert m0.sum() == 16 and m1.sum() == 8
        assert not (m0 & m1).any()

    @pytest.mark.parametrize("dim,most", [(1, 7), (2, 7), (3, 7), (4, 5)])
    def test_shell_mask_matches_depth_oracle(self, dim, most):
        # Includes axes with n <= 2*layer, where both boxes are empty, and
        # with n <= layer, where a slice stop would fall below 0 unclamped.
        for shape in itertools.product(range(1, most + 1), repeat=dim):
            for layer in range(5):
                np.testing.assert_array_equal(
                    shell_mask(shape, layer), depth_shell_mask(shape, layer),
                    err_msg=f"shape {shape}, layer {layer}")

    def test_oscillation_axes(self):
        axes = oscillation_axes([0.5, 0.25], 2.0 ** -5, margin=8,
                                points_per_scale=8)
        assert all(a.points == 128 for a in axes)
        assert axes[0].half_width == pytest.approx(8 * 2.0 ** -5 / 0.5)

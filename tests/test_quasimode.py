"""Cutoff construction, support volumes, synthesis, joint-quasimode ratios."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import quasilab
from quasilab import families, quasimode
from quasilab.analysis import half_axis, oscillation_axes
from quasilab.errors import (BoxTooSmallError, DimensionMismatchError,
                             EmptySupportError, GridBudgetError)
from quasilab.fio import x1_axis
from quasilab.grids import AxisSpec, node_arrays
from quasilab.quasimode import (MAX_GRID_CELLS, AxisRule, BandConstraint,
                                CutoffField, FrequencyCutoff, HExpr,
                                build_cutoff, column_transforms, synthesize_at,
                                synthesize_on_axes, verify_joint_quasimode)
from quasilab.symbols import parse_symbol, split_affine_x1

from oracles import (aligned_axes, dual_axis, ft_axes, joint_ratios, l2_norm,
                     lp_norm, shell_mask, synthesize_grid)

H_SWEEP = [2.0 ** -e for e in range(4, 11)]


def mesh_points(axes):
    """All grid nodes as an (N_total, n) array, C-order."""
    grids = np.meshgrid(*[a.nodes() for a in axes], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def support_cells(field):
    """Every support cell's midpoint as an (S, n) array: the per-cell
    oracle of the column-wise joint check."""
    counts = field.col_count
    ends = np.cumsum(counts)
    offsets = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    ax0 = field.axes[0]
    xi1 = ax0.start + (np.repeat(field.col_start, counts) + offsets
                       + 0.5) * ax0.spacing
    return np.column_stack([xi1, np.repeat(field.col_coords, counts, axis=0)])


def mesh_cutoff(spec, h):
    """build_cutoff over the listed bar mesh: every bar-grid column's
    coordinates as one (M, n-1) array, boundary cells found by unravelling
    flat indices.  The oracle of the broadcast build."""
    axes = [rule.to_axis(h) for rule in spec.box]
    bar_axes = axes[1:]
    cols = mesh_points(bar_axes)
    col_arrays = [cols[:, d] for d in range(len(bar_axes))]
    lo = np.full(len(cols), -np.inf)
    hi = np.full(len(cols), np.inf)
    mask = np.ones(len(cols), dtype=bool)
    for c in spec.constraints:
        c1, rest = split_affine_x1(c.symbol)
        b = c.bound(h)
        rvals = rest.eval_grid(col_arrays) if rest.coeffs else np.zeros(len(cols))
        if c1 == 0:
            mask &= np.abs(rvals) <= b
        else:
            ctr = -rvals / float(c1)
            half = b / abs(float(c1))
            lo = np.maximum(lo, ctr - half)
            hi = np.minimum(hi, ctr + half)
    ax0 = axes[0]
    snap = quasimode._SNAP
    i_lo = np.ceil((lo - ax0.start) / ax0.spacing - 0.5 - snap).astype(np.int64)
    i_hi = np.floor((hi - ax0.start) / ax0.spacing - 0.5 + snap).astype(np.int64)
    nonempty = mask & (i_hi >= i_lo)
    if not nonempty.any():
        raise EmptySupportError(
            f"no frequency cell satisfies the cutoff constraints at h={h}")
    if (i_lo[nonempty] < 0).any() or (i_hi[nonempty] >= ax0.points).any():
        raise BoxTooSmallError(
            f"xi1 support leaves the configured box at h={h}")
    shape = tuple(a.points for a in bar_axes)
    grid_idx = np.unravel_index(np.nonzero(nonempty)[0], shape)
    for d, a in enumerate(bar_axes):
        if (grid_idx[d] == 0).any() or (grid_idx[d] == a.points - 1).any():
            raise BoxTooSmallError(
                f"support reaches the box boundary on axis {d + 2} at h={h}")
    return CutoffField(h, axes, cols[nonempty], i_lo[nonempty],
                       (i_hi - i_lo + 1)[nonempty], spec)


def assert_matches_mesh_cutoff(spec, h):
    """build_cutoff gives the oracle's arrays, dtypes included, or raises
    the oracle's error type with its message."""
    try:
        want = mesh_cutoff(spec, h)
    except (EmptySupportError, BoxTooSmallError) as err:
        with pytest.raises(type(err)) as info:
            build_cutoff(spec, h)
        assert (info.type, str(info.value)) == (type(err), str(err))
        return None
    got = build_cutoff(spec, h)
    assert got.axes == want.axes
    for name in ("col_coords", "col_start", "col_count"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    return got


def bar_indices(cut):
    """Each stored column's bar-grid index on each bar axis, (K, n-1),
    recovered from its coordinates."""
    return np.column_stack([
        np.rint((cut.col_coords[:, d] - ax.start) / ax.spacing - 0.5)
        .astype(np.int64) for d, ax in enumerate(cut.axes[1:])])


def upper_columns(cut):
    """Mask of the columns on the upper half (2i >= P - 1) of every closed
    bar axis: the columns a sum even in those axes keeps."""
    idx = bar_indices(cut)
    keep = np.ones(len(idx), dtype=bool)
    for d, (ax, closed) in enumerate(zip(cut.axes[1:], cut.closed)):
        if closed:
            keep &= 2 * idx[:, d] >= ax.points - 1
    return keep


def _dense_indicator(cut):
    """The cutoff's 0/1 indicator as an array over its dense frequency grid:
    the input of the FFT and multiplier oracles."""
    shape = tuple(a.points for a in cut.axes)
    data = np.zeros(shape, dtype=complex)
    flat = data.reshape(shape[0], -1)
    idx = np.ravel_multi_index(bar_indices(cut).T,
                               [a.points for a in cut.axes[1:]])
    for col, (s, c) in enumerate(zip(cut.col_start, cut.col_count)):
        flat[s:s + c, idx[col]] = 1.0
    return data


class TestHExpr:
    def test_axis_rule_pow2(self):
        rule = AxisRule(HExpr(((-1.0, 0.0),)), HExpr(((1.0, 0.0),)),
                        HExpr(((0.3, 0.0),)), pow2=True)
        assert rule.to_axis(0.5).points == 8


class TestBuildCutoff:
    def test_support_bounds_n2_k1(self):
        h = 2.0 ** -6
        cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
        assert cut.cell_count > 0
        # |xi2| <= sqrt(2h) and xi1 within h of both graphs.
        assert cut.extent(1) <= math.sqrt(2 * h) * 1.01
        assert cut.extent(0) <= h * 1.01  # k=1: p2 = xi1 pins |xi1| <= h

    def test_inconsistent_constraints_empty(self):
        spec = FrequencyCutoff(
            (BandConstraint(parse_symbol("x1", dim=2), 1.0),
             BandConstraint(parse_symbol("x1 - 1", dim=2), 1.0)),
            (AxisRule(HExpr(((-2.0, 0.0),)), HExpr(((2.0, 0.0),)),
                      HExpr(((1 / 64, 1.0),))),
             AxisRule(HExpr(((-1.0, 0.0),)), HExpr(((1.0, 0.0),)),
                      HExpr(((1 / 16, 0.0),)))))
        with pytest.raises(EmptySupportError):
            build_cutoff(spec, 2.0 ** -6)

    def test_box_too_small_detected(self):
        # Band wider than the box on the bar axis.
        spec = FrequencyCutoff(
            (BandConstraint(parse_symbol("x1", dim=2), 1.0),
             BandConstraint(parse_symbol("x2", dim=2), 0.0)),
            (AxisRule(HExpr(((-2.0, 1.0),)), HExpr(((2.0, 1.0),)),
                      HExpr(((1 / 16, 1.0),))),
             AxisRule(HExpr(((-0.5, 0.0),)), HExpr(((0.5, 0.0),)),
                      HExpr(((1 / 64, 0.0),)))))
        with pytest.raises(BoxTooSmallError):
            build_cutoff(spec, 2.0 ** -5)

    def test_valley_projections(self):
        # Strip |xi2 - xi3^2| <= sqrt(2h) with |xi3| of order h^(1/20).
        h = 2.0 ** -8
        cut = build_cutoff(families.valley_cutoff(), h)
        xi2 = cut.col_coords[:, 0]
        xi3 = cut.col_coords[:, 1]
        slack = cut.axes[1].spacing
        assert np.abs(xi2 - xi3 ** 2).max() <= math.sqrt(2 * h) + slack
        assert np.abs(xi3).max() <= 1.35 * (2 * h) ** (1 / 20)
        assert np.abs(xi2).max() <= (2 * h) ** 0.1 + math.sqrt(2 * h) + slack

    def test_h_range_validated(self):
        with pytest.raises(ValueError):
            build_cutoff(families.paraboloid_cutoff(2, 1), 1.5)

    def test_one_dimensional_box_rejected(self):
        # |xi1| <= h is affine in xi1, but a cutoff is stored per bar column.
        spec = FrequencyCutoff(
            (BandConstraint(parse_symbol("x1", dim=1), 1.0),),
            (AxisRule(HExpr(((-2.0, 1.0),)), HExpr(((2.0, 1.0),)),
                      HExpr(((1 / 16, 1.0),))),))
        with pytest.raises(DimensionMismatchError, match="bar axis"):
            build_cutoff(spec, 2.0 ** -6)

    def test_bar_grid_checked_before_allocation(self, monkeypatch):
        # The n = 3 paraboloid's 48 x 48 bar grid at h = 2^-5 fits a budget
        # of exactly its cells; one cell less refuses before the bar nodes,
        # the first bar-grid arrays, are formed.
        spec, h = families.paraboloid_cutoff(3, 3), 2.0 ** -5
        cells = math.prod(a.points for a in build_cutoff(spec, h).axes[1:])
        assert cells == 48 * 48
        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", cells)
        build_cutoff(spec, h)

        def no_nodes(*args):
            raise AssertionError("bar nodes formed over budget")

        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", cells - 1)
        monkeypatch.setattr(quasimode, "node_arrays", no_nodes)
        with pytest.raises(GridBudgetError,
                           match=f"bar grid would hold {cells} cells"):
            build_cutoff(spec, h)


def _family_cases():
    """(family, n, cells per band): every CUTOFF_FAMILIES entry at n = 2..5,
    the 5D case at four cells per band (12^4 bar columns)."""
    for fam in families.CUTOFF_FAMILIES.values():
        for n in [fam.dim] if fam.dim else range(2, 6):
            yield fam.name, n, 4 if n == 5 else families.CELLS_PER_BAND


def _box_spec(narrow=(), empty=False):
    """|x1| <= h, |x2| <= 1/2 and |x3| <= 1/2 in a box that encloses them,
    except on the axes in narrow; empty adds |x1 - 1| <= h."""
    def rule(lo, hi, spacing, e):
        return AxisRule(HExpr(((lo, e),)), HExpr(((hi, e),)),
                        HExpr(((spacing, e),)))
    bands = [BandConstraint(parse_symbol("x1", dim=3), 1.0),
             BandConstraint(parse_symbol("2*x2", dim=3), 0.0),
             BandConstraint(parse_symbol("2*x3", dim=3), 0.0)]
    if empty:
        bands.append(BandConstraint(parse_symbol("x1 - 1", dim=3), 1.0))
    edges = [0.5 if i in narrow else 2.0 for i in range(3)]
    box = [rule(-edges[0], edges[0], 1 / 16, 1.0)]
    box += [rule(-e / 2, e / 2, 1 / 16, 0.0) for e in edges[1:]]
    return FrequencyCutoff(tuple(bands), tuple(box))


class TestCutoffMatchesMeshOracle:
    @pytest.mark.parametrize("name, n, cells", list(_family_cases()))
    def test_every_family(self, name, n, cells):
        spec = families.CUTOFF_FAMILIES[name].cutoff(n, 3, cells)
        for e in range(3, 10):
            assert assert_matches_mesh_cutoff(spec, 2.0 ** -e) is not None

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("make", [families.paraboloid_cutoff,
                                      families.flat_cutoff])
    def test_pow2(self, make, n):
        for e in range(3, 10):
            assert assert_matches_mesh_cutoff(make(n, 3, pow2=True),
                                              2.0 ** -e) is not None

    @pytest.mark.parametrize("narrow, empty, error, message", [
        ((), False, None, None),
        ((), True, EmptySupportError, "no frequency cell"),
        ((0, 1, 2), True, EmptySupportError, "no frequency cell"),
        ((0,), False, BoxTooSmallError, "xi1 support"),
        ((0, 1, 2), False, BoxTooSmallError, "xi1 support"),
        ((1,), False, BoxTooSmallError, "on axis 2 "),
        ((1, 2), False, BoxTooSmallError, "on axis 2 "),
        ((2,), False, BoxTooSmallError, "on axis 3 "),
    ])
    def test_errors(self, narrow, empty, error, message):
        spec = _box_spec(narrow, empty)
        assert (assert_matches_mesh_cutoff(spec, 2.0 ** -5) is None) == bool(error)
        if error:
            with pytest.raises(error, match=message):
                build_cutoff(spec, 2.0 ** -5)

    def test_memory_below_thirteen_bar_grids(self):
        # Listing the bar mesh's points peaked at about 19 float64 arrays
        # over the bar grid.
        spec = families.paraboloid_cutoff(4, 3)
        h = 2.0 ** -5
        build_cutoff(spec, h)
        tracemalloc.start()
        try:
            cut = build_cutoff(spec, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [a.points for a in cut.axes[1:]] == [48] * 3
        assert peak < 13 * 8 * 48 ** 3


class TestClosure:
    """build_cutoff's exact per-bar-axis mirror check."""

    HS = [2.0 ** -3, 2.0 ** -4.37, 2.0 ** -5, 2.0 ** -6.81, 2.0 ** -8]

    @pytest.mark.parametrize("name,n", [
        (name, n) for name in ("paraboloid", "slab", "flat")
        for n in (2, 3, 4)] + [("axis-contact", 3)])
    def test_every_bar_axis_closed(self, name, n):
        spec = families.CUTOFF_FAMILIES[name].cutoff(
            n, 3, families.CELLS_PER_BAND)
        for h in self.HS:
            cut = build_cutoff(spec, h)
            assert cut.closed == (True,) * (n - 1), h
            assert cut.even_axes() == (True,) * n

    def test_valley_xi2_open(self):
        # The valley sits at xi2 = xi3^2 >= 0, in an off-centre xi2 box.
        for h in self.HS:
            cut = build_cutoff(families.valley_cutoff(), h)
            assert cut.closed == (False, True), h
            assert cut.even_axes() == (False, False, True)

    def test_mirror_broken_by_an_odd_term_or_an_off_centre_box(self):
        # + xi2^3 / 256 in p2 keeps the cell count (24,644) but moves the
        # xi1 runs of some mirrored xi2 columns apart; a box of unequal
        # edges puts the bar grid off 0.0, whatever the support.  xi3 stays
        # closed in both.
        h = 2.0 ** -5
        spec = families.paraboloid_cutoff(3, 3)
        p2 = spec.constraints[1].symbol + parse_symbol("1/256*x2^3", dim=3)
        odd = FrequencyCutoff((spec.constraints[0], BandConstraint(p2, 1.0)),
                              spec.box)
        assert build_cutoff(odd, h).cell_count == \
            build_cutoff(spec, h).cell_count
        assert build_cutoff(odd, h).closed == (False, True)
        rule = spec.box[1]
        shifted = AxisRule(HExpr(((1.1 * rule.lo.terms[0][0],
                                   rule.lo.terms[0][1]),)), rule.hi,
                           rule.spacing)
        off = FrequencyCutoff(spec.constraints,
                              (spec.box[0], shifted, spec.box[2]))
        assert build_cutoff(off, h).closed == (False, True)

    def test_unchecked_field_has_no_even_axis(self):
        cut = build_cutoff(families.paraboloid_cutoff(3, 3), 2.0 ** -5)
        bare = CutoffField(h=cut.h, axes=cut.axes, col_coords=cut.col_coords,
                           col_start=cut.col_start, col_count=cut.col_count)
        assert bare.even_axes() == (False,) * 3


class TestSupportVolume:
    def test_closed_form_n2_k1(self):
        # Vol = int (2h - xi2^2)_+ dxi2 = (4/3)(2h)^(3/2).
        for h in (2.0 ** -4, 2.0 ** -7):
            cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
            oracle = 4.0 / 3.0 * (2 * h) ** 1.5
            assert cut.volume() == pytest.approx(oracle, rel=0.02)

    @pytest.mark.parametrize("spec,gamma", [
        (families.paraboloid_cutoff(2, 1), 1.5),
        (families.slab_cutoff(3, 3), 2.0),
        (families.axis_contact_cutoff(3), 1.75),
    ])
    def test_scaling_band(self, spec, gamma):
        ratios = [build_cutoff(spec, h).volume() / h ** gamma
                  for h in H_SWEEP]
        assert max(ratios) / min(ratios) < 4.0

    def test_monotone_in_h(self):
        spec = families.valley_cutoff()
        vols = [build_cutoff(spec, h).volume() for h in H_SWEEP]
        assert all(b < a for a, b in zip(vols, vols[1:]))


class TestSynthesis:
    def test_peak_identity(self):
        # T(0) = (2 pi h)^(-n/2) sqrt(Vol) since every phase is 1 at x = 0.
        for spec, n in ((families.paraboloid_cutoff(2, 3), 2),
                        (families.slab_cutoff(3, 3), 3),
                        (families.valley_cutoff(), 3)):
            cut = build_cutoff(spec, 2.0 ** -6)
            val = abs(synthesize_at(cut, np.zeros((1, n)))[0])
            assert val == pytest.approx(cut.peak(), rel=1e-10)

    def test_normalization_is_exact(self):
        h = 2.0 ** -6
        cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
        assert cut.l2_norm() == pytest.approx(math.sqrt(cut.volume()),
                                              rel=1e-15)
        # Measured: on the dual grid of a power-of-two cutoff grid the
        # synthesis is a unitary DFT of chi / ||chi||, so Parseval gives 1.
        for n in (2, 3):
            for h in (2.0 ** -4, 2.0 ** -6):
                spec = families.paraboloid_cutoff(n, 3, pow2=True)
                cut = build_cutoff(spec, h)
                u = synthesize_grid(cut, [dual_axis(a, h) for a in cut.axes])
                assert l2_norm(u) == pytest.approx(1.0, rel=1e-12)

    def test_non_oscillation_plateau(self):
        # Inside the stationary box the synthesis stays within 10% of T(0).
        h, k = 2.0 ** -6, 3
        cut = build_cutoff(families.paraboloid_cutoff(2, k), h)
        r1 = h ** (1 - 2 / (k + 1)) / 100.0
        r2 = h ** (1 - 1 / (k + 1)) / 100.0
        rng = np.random.default_rng(13)
        pts = rng.uniform(-1, 1, size=(40, 2)) * [r1, r2]
        vals = np.abs(synthesize_at(cut, pts))
        assert vals.min() >= 0.9 * cut.peak()

    def test_slab_peak_lower_bound(self):
        # |T(0)| of the slab family grows like h^(-(n-1)/4) (n = 3 here).
        ratios = []
        for h in H_SWEEP:
            cut = build_cutoff(families.slab_cutoff(3, 3), h)
            ratios.append(cut.peak() * h ** 0.5)
        assert max(ratios) / min(ratios) < 1.2

    def test_agreement_with_dense_fft_path(self):
        # The FFT inverse of the dense indicator is the independent oracle.
        h = 2.0 ** -4
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
        (pos,), pos_axes = ft_axes(_dense_indicator(cut)[None], cut.axes, h,
                                   inverse=True)
        pos /= cut.l2_norm()
        direct = synthesize_at(cut, mesh_points(pos_axes)).reshape(pos.shape)
        err = np.abs(direct - pos).max() / np.abs(pos).max()
        assert err < 1e-6

    def test_dirichlet_matches_two_branch_oracle(self):
        # Exact multiples of 2 pi, theta within 1e-8 of them on both sides
        # of the 1e-8 switch on |sin(theta/2)|, and generic theta.
        base = 2.0 * np.pi * np.arange(-3, 4)
        eps = [0.0, 1e-9, -1e-9, 1.999e-8, -1.999e-8, 2.001e-8, -2.001e-8, 1e-6]
        rng = np.random.default_rng(47)
        theta = np.concatenate([(base[:, None] + eps).ravel(),
                                rng.uniform(-20.0, 20.0, 40)])
        counts = np.arange(1, 65, dtype=float)
        got = quasimode._dirichlet(theta[:, None], counts[None, :])
        want = _two_branch_dirichlet(theta[:, None], counts[None, :])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _two_branch_dirichlet(theta, counts):
    """sum_{m<M} exp(i m theta) with both branches evaluated everywhere."""
    theta, counts = np.broadcast_arrays(np.asarray(theta, float),
                                        np.asarray(counts, float))
    half = 0.5 * theta
    den = np.sin(half)
    num = np.sin(counts * half)
    safe = np.abs(den) > 1e-8
    ratio = np.where(safe, num / np.where(safe, den, 1.0),
                     counts * np.cos(counts * half) / np.cos(half))
    return ratio * np.exp(1j * (counts - 1) * half)


def _fine_parabola_cutoff(n=2, weights=(2, 2, 2), spacing=1 / 160):
    """|xi1 - |xi-bar|^2| <= h, |weights[j-2] * xi_j| <= 1 on a fine bar
    grid.

    With the default weights and spacing each bar axis holds 160 support nodes:
    160 columns in 2D, and 160 rows (of equal xi3) of 160 columns each in 3D.
    """
    bar = [f"x{j}" for j in range(2, n + 1)]
    paraboloid = parse_symbol("x1 - " + " - ".join(f"{x}^2" for x in bar), dim=n)
    caps = tuple(BandConstraint(parse_symbol(f"{w}*{x}", dim=n), 0.0)
                 for x, w in zip(bar, weights))
    xi1_rule = AxisRule(HExpr(((-0.1, 0.0),)),
                        HExpr(((0.15 + 0.25 * (n - 1), 0.0),)),
                        HExpr(((1 / 16, 1.0),)))
    bar_rule = AxisRule(HExpr(((-0.6, 0.0),)), HExpr(((0.6, 0.0),)),
                        HExpr(((spacing, 0.0),)))
    return FrequencyCutoff((BandConstraint(paraboloid, 1.0),) + caps,
                           (xi1_rule,) + (bar_rule,) * (n - 1))


def _fine_4d_field():
    """A 4D field whose two folds both span more than one 64-row block.

    |xi2| <= 0.02 and |xi3|, |xi4| <= 1/2 on a 1/80 bar grid: 6400 rows of
    equal (xi3, xi4) with 4 columns each.  The xi3 fold has 80 groups of 80
    rows, the xi4 fold one group of 80 rows.
    """
    return build_cutoff(_fine_parabola_cutoff(4, (50, 2, 2), 1 / 80),
                        2.0 ** -6)


# Prints sha256 digests of two 3D product syntheses (the n = 3 sweep's
# field, and the fine field whose reductions both span several blocks), of
# a 4D one whose two folds both span several blocks, of the valley's (its
# open xi2 folds through the complex table, over 65 x1 nodes: one full tile
# and one row left over) and of a 2D one whose 50 x1 nodes make one full
# tile and a partial one, of a joint-ratio matrix, of the shipped wavelet
# config's decay table and of the fio_n2_k1 config's flattening reports at
# h = 2^-4: the last two reduce on the frequency side.
DIGEST_CHILD = """
import hashlib
import numpy as np
from quasilab import families
from quasilab.analysis import oscillation_axes
from quasilab.fio import flattening_reports, x1_axis
from quasilab.grids import AxisSpec
from quasilab.quasimode import build_cutoff, verify_joint_quasimode
from quasilab.symbols import graph_factor
from quasilab.wavelets import decay_diagnostic
from oracles import synthesize_grid
from test_quasimode import _fine_4d_field, _fine_parabola_cutoff
cut = build_cutoff(families.paraboloid_cutoff(3, 3), 2.0 ** -5)
fine = build_cutoff(_fine_parabola_cutoff(3), 2.0 ** -6)
arrays = [synthesize_grid(c, oscillation_axes(
    [c.extent(i) for i in range(c.dim)], c.h, margin, pts)).data
    for c, margin, pts in ((cut, 2, 8), (fine, 4, 8),
                           (_fine_4d_field(), 2, 4))]
valley = build_cutoff(families.valley_cutoff(), 2.0 ** -5)
plane = build_cutoff(families.paraboloid_cutoff(2, 3), 2.0 ** -5)
arrays += [synthesize_grid(c, [AxisSpec(0.3 * w, w, m) for w, m in zip(
    (3.0 * c.h / c.extent(i) for i in range(c.dim)), points)]).data
    for c, points in ((valley, (65, 9, 7)), (plane, (50, 40)))]
flat = build_cutoff(families.flat_cutoff(2, 3, pow2=True), 2.0 ** -8)
mass = decay_diagnostic(flat, x1_axis(6.0, 2.0 ** -9), 1, 3).mass
h = 2.0 ** -4
fio = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
reports = flattening_reports(
    graph_factor(families.paraboloid_pair(2, 1)[0]).a, fio,
    x1_axis(8.0, h / 8.0), (1, 2))
reports = np.array([[r.ratio, r.slack, r.identity_residual, r.identity_bound]
                    for r in reports])
for arr in arrays + [verify_joint_quasimode(cut, 3), mass, reports]:
    print(hashlib.sha256(arr.tobytes()).hexdigest())
"""


class TestProductSynthesis:
    """The fold product path against the pointwise column sum."""

    @pytest.mark.parametrize("make_field,points,rows", [
        # One row of 160 columns: two full 64-column blocks and a partial one.
        (lambda: build_cutoff(_fine_parabola_cutoff(), 2.0 ** -6), (23, 19),
         (1, 160)),
        # The n = 3 sweep's field: one block in each reduction.
        (lambda: build_cutoff(families.paraboloid_cutoff(3, 3), 2.0 ** -5),
         (13, 11, 9), (38, 38)),
        # 160 rows of 160 columns: both reductions span two full blocks and
        # a partial one.
        (lambda: build_cutoff(_fine_parabola_cutoff(3), 2.0 ** -6),
         (7, 6, 5), (160, 160)),
        # The n = 4 sweep's field at its coarsest h: 29,200 columns in 1,160
        # rows; each fold is one block per group.
        (lambda: build_cutoff(families.paraboloid_cutoff(4, 3), 2.0 ** -5),
         (5, 4, 4, 3), (1160, 38)),
        # Both folds span a full block and a partial one.
        (_fine_4d_field, (5, 4, 4, 3), (6400, 4)),
    ], ids=["2d", "3d", "3d-fine", "4d", "4d-fine"])
    def test_matches_pointwise_oracle(self, make_field, points, rows):
        cut = make_field()
        h = cut.h
        # Columns per row of equal (xi3..xin); a 2D field is one row.
        widths = np.unique(cut.col_coords[:, 1:], axis=0,
                           return_counts=True)[1]
        assert (len(widths), widths.max()) == rows
        # Off-center boxes spanning a few oscillation scales per axis.
        axes = [AxisSpec(0.3 * hw, hw, n) for hw, n in zip(
            (3.0 * h / cut.extent(i) for i in range(cut.dim)), points)]
        fast = synthesize_grid(cut, axes)
        assert fast.data.shape == points
        oracle = synthesize_at(cut, mesh_points(axes)).reshape(points)
        err = np.abs(fast.data - oracle).max() / np.abs(oracle).max()
        assert err <= 1e-12

    PAIRED_CASES = [(name, n) for name in ("paraboloid", "slab", "flat")
                    for n in (2, 3, 4)] + [
        ("axis-contact", 3), ("valley", 3), ("odd-count", 3),
        ("unchecked", 3)]

    @pytest.mark.parametrize("name,n", PAIRED_CASES,
                             ids=[f"{c[0]}-{c[1]}d" for c in PAIRED_CASES])
    def test_paired_folds_match_the_column_sum(self, name, n):
        # On each closed bar axis the folds sum every mirror pair of columns
        # once, through a cosine table; synthesize_at sums every column with
        # its own exponentials and folds nothing.  The valley pairs xi3
        # only, 45 bar points put 35 columns on each mirror plane, and a
        # field whose closure nobody checked pairs nothing.
        h = 2.0 ** -5
        if name == "odd-count":
            cut = build_cutoff(families.paraboloid_cutoff(
                n, 3, cells_per_band=15), h)
            assert [a.points for a in cut.axes[1:]] == [45, 45]
            idx = bar_indices(cut)
            assert ((2 * idx == 44).sum(axis=0) == 35).all()
        elif name == "unchecked":
            cut = build_cutoff(families.paraboloid_cutoff(n, 3), h)
            cut = CutoffField(h, cut.axes, cut.col_coords, cut.col_start,
                              cut.col_count)
        else:
            cut = build_cutoff(families.CUTOFF_FAMILIES[name].cutoff(
                n, 3, families.CELLS_PER_BAND), h)
        assert cut.closed == {"valley": (False, True), "unchecked": ()}.get(
            name, (True,) * (n - 1))
        points = {2: (9, 8), 3: (7, 6, 5), 4: (5, 4, 4, 3)}[n]
        hws = [3.0 * h / cut.extent(i) for i in range(n)]
        # Off-centre axes, and the upper halves of centred ones.
        for axes in ([AxisSpec(0.3 * hw, hw, m) for hw, m in zip(hws, points)],
                     [AxisSpec(hw / 2, hw / 2, m) for hw, m in zip(hws, points)]):
            fast = synthesize_grid(cut, axes).data
            oracle = synthesize_at(cut, mesh_points(axes)).reshape(points)
            assert np.abs(fast - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("case", ["2d-sweep", "3d-paraboloid", "valley"])
    def test_fold_products_are_tiles(self, case, monkeypatch):
        # Every fold product is an np.matmul over tiles of at most _BLOCK
        # output rows and _BLOCK terms, which OpenBLAS keeps on the calling
        # thread.  The 2D sweep's orthant grid (64 x1 nodes: two tiles of
        # the real table's float rows); the n = 3 paraboloid, whose paired
        # real tables fold 480 float rows last; the valley, whose open xi2
        # takes the complex exp table over 65 x1 nodes (one full tile and
        # one row left over) and whose closed xi3 a real one.
        h = 2.0 ** -5
        if case == "2d-sweep":
            cut = build_cutoff(families.paraboloid_cutoff(2, 3), h)
            axes = [half_axis(a) for a in oscillation_axes(
                [cut.extent(i) for i in range(2)], h, 8, 8)]
            assert cut.even_axes() == (True, True)
        else:
            cut = build_cutoff(families.paraboloid_cutoff(3, 3) if
                               case == "3d-paraboloid" else
                               families.valley_cutoff(), h)
            points = (24, 10, 8) if case == "3d-paraboloid" else (65, 9, 7)
            axes = [AxisSpec(0.3 * hw, hw, m) for hw, m in zip(
                (3.0 * h / cut.extent(i) for i in range(3)), points)]
        products = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            products.append((a.shape[-2:], np.result_type(a, b)))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        fast = synthesize_grid(cut, axes).data
        monkeypatch.undo()
        shapes = [shape for shape, _ in products]
        assert max(rows for rows, _ in shapes) == quasimode._BLOCK
        assert max(terms for _, terms in shapes) <= quasimode._BLOCK
        assert {dtype for _, dtype in products} == (
            {np.dtype(complex), np.dtype(float)} if case == "valley"
            else {np.dtype(float)})
        oracle = synthesize_at(cut, mesh_points(axes)).reshape(fast.shape)
        assert np.abs(fast - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_tiles_keep_the_whole_products_bits(self, dtype):
        # Each output element is one K-term sum in either form.  65 and
        # 129 rows leave one row over, which alone numpy would send to
        # gemv, whose sums differ from gemm's.
        rng = np.random.default_rng(3)

        def draw(shape):
            x = rng.standard_normal(shape)
            return (x + 1j * rng.standard_normal(shape) if dtype is complex
                    else x)

        for rows, terms in ((1, 19), (46, 64), (64, 1), (65, 19), (100, 64),
                            (129, 7), (2048, 19)):
            # C-order (terms, rows), transposed: a fold's rows_of(blk).T.
            a, b = draw((terms, rows)), draw((terms, 64))
            out = np.empty((rows, 64), dtype)
            assert quasimode._tile_product(a.T, b, out) is out
            assert out.tobytes() == (a.T @ b).tobytes()

    def test_column_order_does_not_change_bits(self):
        h = 2.0 ** -5
        # The n = 3 sweep's field, and the n = 4 one, whose 1,160 rows share
        # 38 xi2 values.  The permuted field keeps the closure, and so sums
        # the same mirror pairs once.
        for n, pts in ((3, 8), (4, 4)):
            cut = build_cutoff(families.paraboloid_cutoff(n, 3), h)
            perm = np.random.default_rng(5).permutation(len(cut.col_count))
            shuffled = CutoffField(h, cut.axes, cut.col_coords[perm],
                                   cut.col_start[perm], cut.col_count[perm],
                                   closed=cut.closed)
            axes = oscillation_axes([cut.extent(i) for i in range(n)], h, 2,
                                    pts)
            np.testing.assert_array_equal(
                synthesize_grid(shuffled, axes).data,
                synthesize_grid(cut, axes).data)

    @pytest.mark.parametrize("n,pts", [(2, 8), (3, 8), (4, 4)],
                             ids=["2d", "3d", "4d"])
    def test_normalisation_is_a_division_bit_for_bit(self, n, pts,
                                                      monkeypatch):
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(n, 3), h)
        axes = oscillation_axes([cut.extent(i) for i in range(n)], h, 2, pts)
        nodes = mesh_points(axes)
        targets = nodes[np.linspace(0, len(nodes) - 1, 64).astype(int)]
        norm = cut.l2_norm()
        grid = synthesize_grid(cut, axes)
        values = synthesize_at(cut, targets)
        # With a unit norm the scaling by 1/norm is exact: the raw sums.
        monkeypatch.setattr(CutoffField, "l2_norm", lambda self: 1.0)
        assert grid.data.tobytes() == \
            (synthesize_grid(cut, axes).data / norm).tobytes()
        assert values.tobytes() == \
            (synthesize_at(cut, targets) / norm).tobytes()

    @pytest.mark.parametrize("make_field,axes_of,points,bound", [
        # The 64^3 complex grid alone would be 4.2 MB; it is handed over in
        # blocks and never built (about 3.1 MB measured, tables included).
        (lambda: build_cutoff(families.paraboloid_cutoff(3, 3), 2.0 ** -5),
         lambda cut: oscillation_axes([cut.extent(i) for i in range(3)],
                                      cut.h, 4, 8),
         (64, 64, 64), 4e6),
    ], ids=["3d"])
    def test_memory_bounded(self, make_field, axes_of, points, bound):
        cut = make_field()
        axes = axes_of(cut)
        assert tuple(a.points for a in axes) == points
        tracemalloc.start()
        try:
            synthesize_on_axes(cut, axes, lambda rows, b: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("make_field,points,out_block", [
        # 23 x1 rows of 19 cells, 3 to a block: seven blocks and a partial.
        (lambda: build_cutoff(_fine_parabola_cutoff(), 2.0 ** -6), (23, 19),
         3 * 19),
        # The n = 3 sweep's field, 2 x1 rows of 99 cells to a block.
        (lambda: build_cutoff(families.paraboloid_cutoff(3, 3), 2.0 ** -5),
         (13, 11, 9), 2 * 99 + 1),
        # A block smaller than one x1 row still holds one whole row; the
        # last fold's 160 rows span three 64-row reductions.
        (lambda: build_cutoff(_fine_parabola_cutoff(3), 2.0 ** -6),
         (7, 6, 5), 1),
        # 400 rows of equal (xi3, xi4) fold onto 20 of equal xi4.
        (lambda: build_cutoff(_fine_parabola_cutoff(4, (50, 4, 4),
                                                    1 / 40), 2.0 ** -6),
         (5, 4, 4, 3), 2 * 48),
    ], ids=["2d", "3d", "3d-fine", "4d"])
    def test_blocks_reassemble_the_grid(self, make_field, points, out_block,
                                        monkeypatch):
        monkeypatch.setattr(quasimode, "_OUT_BLOCK", out_block)
        cut = make_field()
        h = cut.h
        axes = [AxisSpec(0.3 * hw, hw, n) for hw, n in zip(
            (3.0 * h / cut.extent(i) for i in range(cut.dim)), points)]
        blocks = []
        synthesize_on_axes(cut, axes,
                           lambda rows, b: blocks.append((rows, b.copy())))
        row = math.prod(points[1:])
        step = max(1, out_block // row)
        assert [(r.start, r.stop) for r, _ in blocks] == [
            (i, min(i + step, points[0])) for i in range(0, points[0], step)]
        for rows, b in blocks:
            assert b.shape == (rows.stop - rows.start,) + points[1:]
        grid = np.concatenate([b for _, b in blocks])
        oracle = synthesize_at(cut, mesh_points(axes)).reshape(points)
        assert np.abs(grid - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_sweep_blocks_are_on_axes_slices(self):
        # The n = 3 sweep's 64^3 grid: eight blocks of 8 x1 rows, each the
        # whole grid's rows, bit for bit.
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(3, 3), h)
        axes = oscillation_axes([cut.extent(i) for i in range(3)], h, 4, 8)
        blocks = []
        synthesize_on_axes(cut, axes,
                           lambda rows, b: blocks.append((rows, b.copy())))
        assert [(r.start, r.stop) for r, _ in blocks] == [
            (i, i + 8) for i in range(0, 64, 8)]
        grid = synthesize_grid(cut, axes).data
        for rows, b in blocks:
            assert b.tobytes() == grid[rows].tobytes()

    def test_sweep_point_memory_bounded(self):
        # One point of the n = 3 sweep on 64^3: the grid alone would be
        # 4 MiB, and with |u| 6 MiB.  Its orthant is 32^3, the folds sum
        # each mirror pair of columns once, and the last fold's blocks go
        # straight into the norm sums (1.4 MiB traced).
        from quasilab import experiments
        from quasilab.analysis import INF_P

        spec = families.paraboloid_cutoff(3, 3)
        v = {"joint_orders": 3, "margin": 4, "points_per_scale": 8}
        tracemalloc.start()
        try:
            experiments._sweep_point(spec, 2.0 ** -5, 0.0, [INF_P, 8], v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    def test_n4_sweep_point_memory_bounded(self):
        # lp_n4_paraboloid_k3's last point, h = 2^-9, on 32^4: the folds of
        # its 16^4 orthant over the upper halves of its columns (8.8 MiB
        # traced; 10.9 MiB over every column, 39.2 MiB on the whole grid).
        from quasilab import experiments
        from quasilab.analysis import parse_p

        spec = families.paraboloid_cutoff(4, 3)
        v = {"joint_orders": 3, "margin": 4, "points_per_scale": 4}
        ps = [parse_p(p) for p in ("inf", "8", "6")]
        tracemalloc.start()
        try:
            experiments._sweep_point(spec, 2.0 ** -9, 0.0, ps, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20

    ORTHANT_CASES = [
        ("paraboloid", 2, 8, 8, ["inf", "8"]),       # sharp_largep_n2_k3
        ("paraboloid", 3, 4, 8, ["inf", "8"]),       # the n = 3 sweep
        ("paraboloid", 4, 4, 4, ["inf", "8", "6"]),  # lp_n4_paraboloid_k3
        ("slab", 2, 8, 8, ["4", "inf"]),
        ("slab", 3, 8, 4, ["4"]),                    # the n = 3 slab sweep
        ("slab", 4, 8, 2, ["4", "inf"]),
        ("flat", 2, 8, 8, ["inf", "8", "4"]),
        ("flat", 3, 4, 4, ["inf", "8"]),
        ("flat", 4, 4, 4, ["inf", "8", "4"]),
        ("axis-contact", 3, 4, 8, ["inf", "8"]),
        # xi2 open: x1 and xi2 are synthesized whole, xi3 on its half.
        ("valley", 3, 8, 4, ["inf", "8"]),
    ]

    @pytest.mark.parametrize("name,n,margin,points,ps", ORTHANT_CASES,
                             ids=[f"{c[0]}-{c[1]}d" for c in ORTHANT_CASES])
    def test_sweep_point_norms_are_the_orthant_bits(self, name, n, margin,
                                                    points, ps, monkeypatch):
        # The sweep's norms, summed block by block as the synthesis hands
        # the orthant out, equal bit for bit the oracle's one sum over the
        # orthant grid, weighted by 2^m cell volumes with the whole grid's
        # shells cut to it, and the whole grid's norms to rounding.
        from quasilab import experiments
        from quasilab.analysis import half_axis, parse_p

        h, ps = 2.0 ** -5, [parse_p(p) for p in ps]
        spec = families.CUTOFF_FAMILIES[name].cutoff(
            n, 3, families.CELLS_PER_BAND)
        v = {"joint_orders": 3, "margin": margin, "points_per_scale": points}
        synthesized = []

        def spy(field, axes, consume):
            synthesized.append([a.points for a in axes])
            synthesize_on_axes(field, axes, consume)

        monkeypatch.setattr(experiments, "synthesize_on_axes", spy)
        row = experiments._sweep_point(spec, h, 0.0, ps, v)
        cut = build_cutoff(spec, h)
        whole = oscillation_axes([cut.extent(i) for i in range(n)], h,
                                 margin, points)
        halved = cut.even_axes()
        assert halved == ((False, False, True) if name == "valley"
                          else (True,) * n)
        axes = [half_axis(a) if half else a for a, half in zip(whole, halved)]
        assert synthesized == [[a.points for a in axes]]
        # joint_ratio_max, then the largest ratio but the exact (0, 0) one.
        ratios = verify_joint_quasimode(cut, 3).ravel()
        assert row[5:7] == [ratios.max(), ratios[1:].max()]
        shape = [a.points for a in whole]
        orthant = tuple(slice(m // 2, None) if half else slice(None)
                        for m, half in zip(shape, halved))
        g = synthesize_grid(cut, axes)
        masks = shell_mask(shape)[orthant], shell_mask(shape, 1)[orthant]
        assert row[-len(ps):] == [lp_norm(
            g.data, 2.0 ** sum(halved) * g.cell_volume, p, *masks).value
            for p in ps]
        g = synthesize_grid(cut, whole)
        masks = shell_mask(shape), shell_mask(shape, 1)
        assert row[-len(ps):] == pytest.approx(
            [lp_norm(g.data, g.cell_volume, p, *masks).value for p in ps],
            rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oscillation_grids_come_in_tree_node_blocks(self, n):
        # The block norms equal one np.sum over the grid when the grid comes
        # in one block, or in 2^b equal blocks of 2^j >= 128 cells, each a
        # node of numpy's pairwise tree.  The blocks depend on the shape
        # only, so a one-column field stands in for the cutoff, on the
        # shipped and the benchmark's (margin, points per scale).
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(n, 3), h)
        one = CutoffField(h=h, axes=cut.axes, col_coords=cut.col_coords[:1],
                          col_start=cut.col_start[:1],
                          col_count=cut.col_count[:1])
        for margin, points in [(8, 8), (4, 4), (4, 8), (8, 4), (2, 4)]:
            axes = oscillation_axes([cut.extent(i) for i in range(n)], h,
                                    margin, points)
            cells = math.prod(a.points for a in axes)
            sizes = []
            if cells > MAX_GRID_CELLS:   # refused: nothing is summed
                with pytest.raises(GridBudgetError):
                    synthesize_on_axes(one, axes,
                                       lambda rows, b: sizes.append(b.size))
                assert sizes == []
                continue
            synthesize_on_axes(one, axes, lambda rows, b: sizes.append(b.size))
            assert sum(sizes) == cells
            if len(sizes) > 1:
                assert len(set(sizes)) == 1 and sizes[0] >= 128
                for count in (len(sizes), sizes[0]):
                    assert count & (count - 1) == 0

    def test_each_fold_input_released(self):
        # The n = 4 sweep's field on 32^4: while a fold runs, its input and
        # its output are alive, and no earlier fold's result.
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(4, 3), h)
        axes = oscillation_axes([cut.extent(i) for i in range(4)], h, 4, 4)
        assert [a.points for a in axes] == [32] * 4
        # The xi(j+1) fold's result has one row per distinct (xi(j+2)..xin)
        # among the kept columns.
        keys = cut.col_coords[upper_columns(cut)]
        rows = [len(np.unique(keys[:, j:], axis=0)) for j in (1, 2)]
        cells = np.cumprod([a.points for a in axes])[1:]
        folds = [16 * r * c for r, c in zip(rows + [1], cells)]
        tracemalloc.start()
        try:
            synthesize_on_axes(cut, axes, lambda rows, b: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * max(a + b for a, b in zip(folds, folds[1:]))

    def test_every_fold_checked_before_allocation(self, monkeypatch):
        # 64 rows that differ only in xi4, two columns each: the xi2 fold's
        # result is 64 x 32 x 32 cells, the xi3 fold's 64 times as many
        # (N3 = 64) and the output 32 x 32 x 64 x 2.  A budget between the
        # two fold results must refuse before either is allocated.
        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", 1 << 20)
        xi4 = np.repeat(np.linspace(-0.5, 0.5, 64), 2)
        xi2 = np.tile([-0.25, 0.25], 64)
        cut = CutoffField(h=0.1, axes=[AxisSpec(0.0, 1.0, 16)] * 4,
                          col_coords=np.column_stack(
                              [xi2, np.zeros_like(xi2), xi4]),
                          col_start=np.zeros(128, dtype=np.int64),
                          col_count=np.ones(128, dtype=np.int64))
        axes = [AxisSpec(0.0, 1.0, n) for n in (32, 32, 64, 2)]
        tracemalloc.start()
        try:
            with pytest.raises(GridBudgetError, match="fold output would hold "
                               f"{64 * 32 * 32 * 64} cells"):
                synthesize_on_axes(cut, axes, lambda rows, b: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 64 * 32 * 32

    def test_dimension_checked_before_allocation(self):
        # A dense 4D grid of 1e16 points cannot be allocated; the cell budget
        # must refuse it first.
        axes = [AxisSpec(0.0, 1.0, 10 ** 4)] * 4
        cut = CutoffField(h=0.1, axes=axes, col_coords=np.zeros((1, 3)),
                          col_start=np.array([0]), col_count=np.array([1]))
        with pytest.raises(MemoryError, match="streamed position grid would "
                           rf"hold {10 ** 16} cells \(> {MAX_GRID_CELLS}\)"):
            synthesize_on_axes(cut, axes, lambda rows, b: None)

    def test_slabs_checked_before_allocation(self, monkeypatch):
        # 240 output cells fit a 1000-cell budget; the stage-1 slabs of 5 x 4
        # cells each do not: one per row of equal (xi3, xi4) among the kept
        # columns, the upper halves of its 80 xi3 and 80 xi4 values (1,600
        # slabs, 32,000 cells).
        cut = _fine_4d_field()   # its 96^3 bar grid is over the test budget
        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", 1000)
        axes = [AxisSpec(0.0, 1.0, n) for n in (5, 4, 4, 3)]
        with pytest.raises(MemoryError,
                           match="fold output would hold 32000 cells"):
            synthesize_on_axes(cut, axes, lambda rows, b: None)

    def test_run_tables_checked_before_allocation(self, monkeypatch):
        # Output and slab are 10 x 2 cells each; the run tables hold one
        # 10-node row per distinct count (5) and per distinct start (5).
        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", 50)
        axes = [AxisSpec(0.0, 1.0, 16), AxisSpec(0.0, 1.0, 8)]
        cut = CutoffField(h=0.1, axes=axes,
                          col_coords=np.linspace(-0.5, 0.5, 5)[:, None],
                          col_start=np.arange(5), col_count=np.arange(1, 6))
        out_axes = [AxisSpec(0.0, 1.0, 10), AxisSpec(0.0, 1.0, 2)]
        with pytest.raises(MemoryError, match="run tables would hold 100 cells"):
            synthesize_on_axes(cut, out_axes, lambda rows, b: None)

    def test_xi2_table_checked_before_allocation(self, monkeypatch):
        # Output and slab are 2 x 10 cells each and the run tables 2 x 2
        # (one count, one start); the xi2 table holds one 10-node row per
        # distinct xi2 (8).
        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", 50)
        axes = [AxisSpec(0.0, 1.0, 16), AxisSpec(0.0, 1.0, 8)]
        cut = CutoffField(h=0.1, axes=axes,
                          col_coords=np.linspace(-0.5, 0.5, 8)[:, None],
                          col_start=np.full(8, 3), col_count=np.full(8, 2))
        out_axes = [AxisSpec(0.0, 1.0, 2), AxisSpec(0.0, 1.0, 10)]
        with pytest.raises(MemoryError,
                           match="exponential table would hold 80 cells"):
            synthesize_on_axes(cut, out_axes, lambda rows, b: None)

    def test_bits_independent_of_blas_threads(self):
        src = str(Path(quasilab.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        path = os.pathsep.join(filter(None, [src, tests,
                                             os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", DIGEST_CHILD], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout.split())
        assert len(digests[0]) == 8
        assert digests[0] == digests[1]


class TestColumnTransforms:
    """The premise of the frequency-side stages: on position axes whose bar
    duals are the cutoff's bar grid (aligned_axes) the h-scaled FFT of the
    synthesized field over the bar axes is each column's x1 profile at that
    column's node and 0 at every other node."""

    @pytest.mark.parametrize("case", ["fio-n2", "fio-n3", "wavelet-flat"])
    def test_columns_are_the_bar_transform(self, case, request):
        if case == "wavelet-flat":
            # The shipped wavelet config's 8192 x 64 field.
            cut, ax = request.getfixturevalue("flat_model")
            u = request.getfixturevalue("flat_model_field")
        else:
            # The fio_n2_k1 config's finer field (4096 x 64), and an n = 3
            # one on 64 x 64 x 64 with its 2,024 columns.
            n, h, x1_half_width, dx = {
                "fio-n2": (2, 2.0 ** -5, 8.0, 2.0 ** -8),
                "fio-n3": (3, 2.0 ** -3, 2.0, 2.0 ** -4)}[case]
            cut = build_cutoff(families.paraboloid_cutoff(n, 1, pow2=True), h)
            ax = x1_axis(x1_half_width, dx)
            u = synthesize_grid(cut, aligned_axes(cut, ax))
        hat, duals = ft_axes(u.data, u.axes[1:], cut.h)
        assert duals == cut.axes[1:]
        blocks = list(column_transforms(cut, ax.nodes(),
                                        np.arange(len(cut.col_count))))
        assert [block.start for block, _ in blocks] == list(range(
            0, len(cut.col_count), blocks[0][1].shape[1]))
        got = np.concatenate([u for _, u in blocks], axis=1)
        nodes = (slice(None),) + tuple(
            np.rint((cut.col_coords[:, d] - ax.start) / ax.spacing - 0.5)
            .astype(int) for d, ax in enumerate(cut.axes[1:]))
        peak = np.abs(got).max()
        assert np.abs(hat[nodes] - got).max() <= 1e-13 * peak
        hat[nodes] = 0.0
        assert np.abs(hat).max() <= 1e-13 * peak

    @pytest.mark.parametrize("rows", [
        slice(0, 1), slice(-1, None), slice(1000, 1003), slice(100, 4000),
        slice(7, 7), slice(None), slice(0, None, 3)],
        ids=["first-row", "last-row", "inside", "most", "empty", "whole",
             "every-third"])
    def test_row_runs_are_rows_of_the_whole(self, rows):
        # Any run of x1 nodes gives the whole axis's rows, bit for bit,
        # though its blocks hold from one column (4,096 rows) to all 50.
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True),
                           2.0 ** -5)
        x1 = x1_axis(8.0, 2.0 ** -8).nodes()

        def profiles(x):
            return np.concatenate([u for _, u in column_transforms(
                cut, x, np.arange(len(cut.col_count)))], axis=1)

        got, want = profiles(x1[rows]), profiles(x1)[rows]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_kept_columns_stand_for_their_mirrors(self, n):
        # The kept columns' profiles are those columns of the whole, bit
        # for bit, and every column's profile is its kept mirror's: the
        # same xi1 run on a closed axis.
        h = 2.0 ** -5 if n == 2 else 2.0 ** -3
        cut = build_cutoff(families.paraboloid_cutoff(n, 1, pow2=True), h)
        x1 = x1_axis(2.0, 2.0 ** -4).nodes()
        _, kept, weight = quasimode._mirror_halves(cut)
        every = np.arange(len(cut.col_count))
        assert len(kept) < len(every)
        whole = np.concatenate(
            [u for _, u in column_transforms(cut, x1, every)], axis=1)
        got = np.concatenate(
            [u for _, u in column_transforms(cut, x1, kept)], axis=1)
        assert got.tobytes() == whole[:, kept].tobytes()
        # Each column's kept mirror: the same distance from every mirror
        # plane, in bar indices.
        sides = np.abs(np.column_stack([
            quasimode._mirror_side(cut.col_coords[:, d], ax)
            for d, ax in enumerate(cut.axes[1:])]))
        key = {tuple(sides[c]): c for c in kept}
        mirror = [key[tuple(side)] for side in sides]
        assert whole.tobytes() == whole[:, mirror].tobytes()
        assert np.bincount(mirror, minlength=len(every))[kept].tolist() == \
            weight.tolist()

    def test_aligned_x1_is_the_axis_nodes(self, monkeypatch):
        # The x1 nodes, bit for bit, once the x1 nodes times the cutoff's
        # bar grid (2,048 x 64) are within the budget; one cell over it is
        # refused, naming the cells.
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True),
                           2.0 ** -4)
        ax = x1_axis(8.0, 2.0 ** -7)
        assert quasimode._aligned_x1(cut, ax).tobytes() == \
            ax.nodes().tobytes()
        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", 2048 * 64 - 1)
        with pytest.raises(GridBudgetError, match=(
                "aligned position grid would hold 131072 cells")):
            quasimode._aligned_x1(cut, ax)


JOINT_CASES = [
    (lambda: families.paraboloid_cutoff(2, 3), 2.0 ** -6),
    (lambda: families.slab_cutoff(3, 3), 2.0 ** -5),
    (lambda: families.valley_cutoff(), 2.0 ** -6),
    pytest.param(lambda: families.paraboloid_cutoff(3, 3), 2.0 ** -5,
                 id="paraboloid-n3-k3"),
    pytest.param(lambda: families.paraboloid_cutoff(4, 3), 2.0 ** -5,
                 id="paraboloid-n4-k3"),
]


class TestJointQuasimode:
    def test_zero_orders_ratio_one(self):
        h = 2.0 ** -6
        cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
        assert verify_joint_quasimode(cut, 0)[0, 0] == pytest.approx(
            1.0, rel=1e-14)

    @pytest.mark.parametrize("orders,what", [(4, "joint ratio matrix"),
                                             (3, "power columns")])
    def test_orders_checked_before_allocation(self, orders, what,
                                              monkeypatch):
        # A budget of 16 cells holds the 4 x 4 ratio matrix of orders 3 but
        # not its power columns, one row of 4 per support cell.
        cut = build_cutoff(families.paraboloid_cutoff(2, 1), 2.0 ** -6)
        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", 16)
        with pytest.raises(GridBudgetError, match=f"{what} would hold"):
            verify_joint_quasimode(cut, orders)

    @pytest.mark.parametrize("spec_fn,h", JOINT_CASES)
    def test_all_orders_bounded(self, spec_fn, h):
        ratios = verify_joint_quasimode(build_cutoff(spec_fn(), h), 3)
        assert ratios.shape == (4, 4)
        assert (ratios <= 1.0 + 1.0 / 16.0).all()

    @pytest.mark.parametrize("spec_fn,h", JOINT_CASES)
    def test_one_pass_matches_per_pair_sums(self, spec_fn, h):
        cut = build_cutoff(spec_fn(), h)
        coords = support_cells(cut)
        arrays = [coords[:, d] for d in range(cut.dim)]
        v1, v2 = (c.symbol.eval_grid(arrays) for c in cut.spec.constraints[:2])
        direct = np.zeros((4, 4))
        for m1 in range(4):
            for m2 in range(4):
                total = np.sum(v1 ** (2 * m1) * v2 ** (2 * m2))
                direct[m1, m2] = math.sqrt(total * cut.cell_volume) / (
                    h ** (m1 + m2) * cut.l2_norm())
        np.testing.assert_allclose(verify_joint_quasimode(cut, 3),
                                   direct, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec_fn,h", JOINT_CASES[:4])
    def test_chunks_match_one_chunk(self, spec_fn, h, monkeypatch):
        cut = build_cutoff(spec_fn(), h)
        sizes = []
        power_columns = quasimode._power_columns

        def record(x, m):
            sizes.append(len(x))
            return power_columns(x, m)

        monkeypatch.setattr(quasimode, "_power_columns", record)
        # Every n <= 3 case is one chunk at the shipped size, of the kept
        # columns' cells: each closed axis pairs here.
        counts = cut.col_count[upper_columns(cut)]
        whole = verify_joint_quasimode(cut, 3)
        assert sizes[::2] == [counts.sum()]
        for cells in (40, 5000):
            monkeypatch.setattr(quasimode, "_JOINT_CHUNK_CELLS", cells)
            sizes.clear()
            got = verify_joint_quasimode(cut, 3)
            np.testing.assert_allclose(got, whole, rtol=1e-12, atol=0)
            # Whole kept columns, as many as fit in the chunk, or one.
            chunks, ends = sizes[::2], np.cumsum(counts)
            assert sum(chunks) == counts.sum()
            bounds = np.cumsum(chunks)
            assert set(bounds) <= set(ends)
            for lo, hi in zip(np.r_[0, bounds[:-1]], bounds):
                first = ends[np.searchsorted(ends, lo, "right")]
                assert hi - lo <= cells or hi == first
                nxt = np.searchsorted(ends, hi, "right")
                assert nxt == len(ends) or ends[nxt] - lo > cells

    WHOLE_CASES = [(name, n) for name in ("paraboloid", "slab", "flat")
                   for n in (2, 3, 4)] + [("axis-contact", 3), ("valley", 3)]

    @pytest.mark.parametrize("name,n", WHOLE_CASES,
                             ids=[f"{c[0]}-{c[1]}d" for c in WHOLE_CASES])
    def test_matches_whole_support_oracle(self, name, n):
        # Each mirror pair of columns summed once, against every support
        # cell summed; the (0, 0) entry sums integers to the cell count.
        # The valley's 57 xi3 points put columns on its mirror plane.
        # n = 4 runs at half the shipped resolution: the oracle holds every
        # cell's power columns at once.
        cells = 8 if n == 4 else families.CELLS_PER_BAND
        cut = build_cutoff(families.CUTOFF_FAMILIES[name].cutoff(n, 3, cells),
                           2.0 ** -5)
        got = verify_joint_quasimode(cut, 3)
        np.testing.assert_allclose(got, joint_ratios(cut, 3), rtol=1e-12,
                                   atol=0)
        assert got[0, 0] == 1.0

    def test_odd_power_in_the_first_symbol_does_not_pair(self):
        # p1 + xi2^3 under a loose band (|.| <= 1) leaves the paraboloid's
        # support, and so its closure, as they are: the check's first symbol
        # is odd in xi2, so xi2 must not pair, while xi3 still does.
        # Pairing xi2 as well sums to other ratios.
        h = 2.0 ** -5
        spec = families.paraboloid_cutoff(3, 3)
        odd = BandConstraint(spec.constraints[0].symbol
                             + parse_symbol("x2^3", dim=3), 0.0)
        cut = build_cutoff(FrequencyCutoff((odd,) + spec.constraints,
                                           spec.box), h)
        assert cut.cell_count == build_cutoff(spec, h).cell_count
        assert cut.closed == (True, True)
        got = verify_joint_quasimode(cut, 3)
        np.testing.assert_allclose(got, joint_ratios(cut, 3), rtol=1e-12,
                                   atol=0)
        assert got[0, 0] == 1.0
        side = 2 * bar_indices(cut) - np.array(
            [a.points - 1 for a in cut.axes[1:]])
        both = np.select([side > 0, side == 0], [2.0, 1.0], 0.0).prod(axis=1)
        wrong = joint_ratios(cut, 3, both)
        assert np.abs(wrong - got).max() > 1e-3 * got.max()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_power_columns_match_vander(self, m):
        x = np.random.default_rng(m).standard_normal(1000) * 3.0
        got = quasimode._power_columns(x, m)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, np.vander(x, m, increasing=True))

    @pytest.mark.parametrize("spec_fn,h", JOINT_CASES)
    def test_matches_vander_oracle(self, spec_fn, h, monkeypatch):
        cut = build_cutoff(spec_fn(), h)
        got = verify_joint_quasimode(cut, 3)
        monkeypatch.setattr(quasimode, "_power_columns",
                            lambda x, m: np.vander(x, m, increasing=True))
        np.testing.assert_array_equal(
            got, verify_joint_quasimode(cut, 3))

    def test_multiplier_norm_oracle(self):
        # Independent frequency-side oracle: apply p1 as a multiplier to the
        # dense indicator and compare L2 norms.
        h = 2.0 ** -4
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
        dense = _dense_indicator(cut)
        p1, _ = families.paraboloid_pair(2, 1)
        out = dense * p1.eval_grid(node_arrays(cut.axes, cut.dim))
        oracle = np.linalg.norm(out) / (h * np.linalg.norm(dense))
        assert verify_joint_quasimode(cut, 1)[1, 0] == pytest.approx(
            oracle, rel=1e-10)
        assert oracle <= 1.0

    def test_requires_band_spec(self):
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
        cut.spec = None
        with pytest.raises(ValueError):
            verify_joint_quasimode(cut, 1)

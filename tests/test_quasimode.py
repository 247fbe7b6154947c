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
from quasilab.analysis import oscillation_axes
from quasilab.errors import (BoxTooSmallError, DimensionMismatchError,
                             EmptySupportError, GridBudgetError)
from quasilab.grids import (FREQUENCY, INVERSE, AxisSpec, GridField,
                            node_arrays, semiclassical_ft)
from quasilab.quasimode import (MAX_GRID_CELLS, AxisRule, BandConstraint,
                                CutoffField, FrequencyCutoff, HExpr,
                                Quasimode, build_cutoff, support_volume,
                                synthesize_on_axes, synthesize_raw,
                                verify_joint_quasimode)
from quasilab.symbols import parse_symbol, split_affine_x1

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


def _dense_indicator(cut):
    """The cutoff's 0/1 indicator on its dense frequency grid: the input of
    the FFT and multiplier oracles."""
    shape = tuple(a.points for a in cut.axes)
    data = np.zeros(shape, dtype=complex)
    flat = data.reshape(shape[0], -1)
    # Recover each stored column's flat bar index from its coordinates.
    idx = np.zeros(len(cut.col_coords), dtype=np.int64)
    for d, ax in enumerate(cut.axes[1:]):
        pos = np.round((cut.col_coords[:, d] - ax.start) / ax.spacing - 0.5)
        idx = idx * ax.points + pos.astype(np.int64)
    for col, (s, c) in enumerate(zip(cut.col_start, cut.col_count)):
        flat[s:s + c, idx[col]] = 1.0
    return GridField(cut.h, FREQUENCY, list(cut.axes), data)


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
            (BandConstraint(parse_symbol("x1", dim=2), 1.0, 1.0),
             BandConstraint(parse_symbol("x1 - 1", dim=2), 1.0, 1.0)),
            (AxisRule(HExpr(((-2.0, 0.0),)), HExpr(((2.0, 0.0),)),
                      HExpr(((1 / 64, 1.0),))),
             AxisRule(HExpr(((-1.0, 0.0),)), HExpr(((1.0, 0.0),)),
                      HExpr(((1 / 16, 0.0),)))))
        with pytest.raises(EmptySupportError):
            build_cutoff(spec, 2.0 ** -6)

    def test_box_too_small_detected(self):
        # Band wider than the box on the bar axis.
        spec = FrequencyCutoff(
            (BandConstraint(parse_symbol("x1", dim=2), 1.0, 1.0),
             BandConstraint(parse_symbol("x2", dim=2), 0.0, 1.0)),
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
             BandConstraint(parse_symbol("x2", dim=3), 0.0, 0.5),
             BandConstraint(parse_symbol("x3", dim=3), 0.0, 0.5)]
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


class TestSupportVolume:
    def test_closed_form_n2_k1(self):
        # Vol = int (2h - xi2^2)_+ dxi2 = (4/3)(2h)^(3/2).
        for h in (2.0 ** -4, 2.0 ** -7):
            cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
            oracle = 4.0 / 3.0 * (2 * h) ** 1.5
            assert support_volume(cut) == pytest.approx(oracle, rel=0.02)

    @pytest.mark.parametrize("spec,gamma", [
        (families.paraboloid_cutoff(2, 1), 1.5),
        (families.slab_cutoff(3, 3), 2.0),
        (families.axis_contact_cutoff(3), 1.75),
    ])
    def test_scaling_band(self, spec, gamma):
        ratios = [support_volume(build_cutoff(spec, h)) / h ** gamma
                  for h in H_SWEEP]
        assert max(ratios) / min(ratios) < 4.0

    def test_monotone_in_h(self):
        spec = families.valley_cutoff()
        vols = [support_volume(build_cutoff(spec, h)) for h in H_SWEEP]
        assert all(b < a for a, b in zip(vols, vols[1:]))


class TestSynthesis:
    def test_peak_identity(self):
        # T(0) = (2 pi h)^(-n/2) sqrt(Vol) since every phase is 1 at x = 0.
        for spec, n in ((families.paraboloid_cutoff(2, 3), 2),
                        (families.slab_cutoff(3, 3), 3),
                        (families.valley_cutoff(), 3)):
            h = 2.0 ** -6
            qm = Quasimode(build_cutoff(spec, h), h)
            val = abs(qm.values(np.zeros((1, n)))[0])
            assert val == pytest.approx(qm.peak(), rel=1e-10)

    def test_normalization_is_exact(self):
        h = 2.0 ** -6
        cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
        assert cut.l2_norm() == pytest.approx(math.sqrt(support_volume(cut)),
                                              rel=1e-15)
        qm = Quasimode(cut, h)
        assert qm.l2norm == 1.0

    def test_non_oscillation_plateau(self):
        # Inside the stationary box the synthesis stays within 10% of T(0).
        h, k = 2.0 ** -6, 3
        cut = build_cutoff(families.paraboloid_cutoff(2, k), h)
        qm = Quasimode(cut, h)
        r1 = h ** (1 - 2 / (k + 1)) / 100.0
        r2 = h ** (1 - 1 / (k + 1)) / 100.0
        rng = np.random.default_rng(13)
        pts = rng.uniform(-1, 1, size=(40, 2)) * [r1, r2]
        vals = np.abs(qm.values(pts))
        assert vals.min() >= 0.9 * qm.peak()

    def test_slab_peak_lower_bound(self):
        # |T(0)| of the slab family grows like h^(-(n-1)/4) (n = 3 here).
        ratios = []
        for h in H_SWEEP:
            qm = Quasimode(build_cutoff(families.slab_cutoff(3, 3), h), h)
            ratios.append(qm.peak() * h ** 0.5)
        assert max(ratios) / min(ratios) < 1.2

    def test_agreement_with_dense_fft_path(self):
        # The FFT inverse of the dense indicator is the independent oracle.
        h = 2.0 ** -4
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
        dense = _dense_indicator(cut)
        pos = semiclassical_ft(dense, INVERSE)
        pts = mesh_points(pos.axes)
        direct = synthesize_raw(cut, pts).reshape(pos.data.shape)
        err = np.abs(direct - pos.data).max() / np.abs(pos.data).max()
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


def _fine_parabola_cutoff(n=2, caps=(0.5, 0.5, 0.5), spacing=1 / 160):
    """|xi1 - |xi-bar|^2| <= h, |xi_j| <= caps[j-2] on a fine bar grid.

    With the default caps and spacing each bar axis holds 160 support nodes:
    160 columns in 2D, and 160 rows (of equal xi3) of 160 columns each in 3D.
    """
    bar = [f"x{j}" for j in range(2, n + 1)]
    paraboloid = parse_symbol("x1 - " + " - ".join(f"{x}^2" for x in bar), dim=n)
    caps = tuple(BandConstraint(parse_symbol(x, dim=n), 0.0, cap)
                 for x, cap in zip(bar, caps))
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
    return build_cutoff(_fine_parabola_cutoff(4, (0.02, 0.5, 0.5), 1 / 80),
                        2.0 ** -6)


# Prints sha256 digests of two 3D product syntheses (the n = 3 sweep's
# field, and the fine field whose reductions both span several blocks), of
# a 4D one whose two folds both span several blocks, and of a joint-ratio
# matrix.
DIGEST_CHILD = """
import hashlib
from quasilab import families
from quasilab.analysis import oscillation_axes
from quasilab.quasimode import (build_cutoff, synthesize_on_axes,
                                verify_joint_quasimode)
from test_quasimode import _fine_4d_field, _fine_parabola_cutoff
cut = build_cutoff(families.paraboloid_cutoff(3, 3), 2.0 ** -5)
fine = build_cutoff(_fine_parabola_cutoff(3), 2.0 ** -6)
arrays = [synthesize_on_axes(c, oscillation_axes(
    [c.extent(i) for i in range(c.dim)], c.h, margin, pts)).data
    for c, margin, pts in ((cut, 2, 8), (fine, 4, 8),
                           (_fine_4d_field(), 2, 4))]
for arr in arrays + [verify_joint_quasimode(cut, 3)]:
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
        fast = synthesize_on_axes(cut, axes)
        assert fast.data.shape == points
        oracle = synthesize_raw(cut, mesh_points(axes)).reshape(points)
        err = np.abs(fast.data - oracle).max() / np.abs(oracle).max()
        assert err <= 1e-12

    def test_column_order_does_not_change_bits(self):
        h = 2.0 ** -5
        # The n = 3 sweep's field, and the n = 4 one, whose 1,160 rows share
        # 38 xi2 values.
        for n, pts in ((3, 8), (4, 4)):
            cut = build_cutoff(families.paraboloid_cutoff(n, 3), h)
            perm = np.random.default_rng(5).permutation(len(cut.col_count))
            shuffled = CutoffField(h, cut.axes, cut.col_coords[perm],
                                   cut.col_start[perm], cut.col_count[perm])
            axes = oscillation_axes([cut.extent(i) for i in range(n)], h, 2,
                                    pts)
            np.testing.assert_array_equal(
                synthesize_on_axes(shuffled, axes).data,
                synthesize_on_axes(cut, axes).data)

    @pytest.mark.parametrize("n,pts", [(2, 8), (3, 8), (4, 4)],
                             ids=["2d", "3d", "4d"])
    def test_normalisation_is_a_division_bit_for_bit(self, n, pts):
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(n, 3), h)
        axes = oscillation_axes([cut.extent(i) for i in range(n)], h, 2, pts)
        norm = cut.l2_norm()
        qm = Quasimode(cut, h)
        assert qm.on_axes(axes).data.tobytes() == \
            (synthesize_on_axes(cut, axes).data / norm).tobytes()
        nodes = mesh_points(axes)
        targets = nodes[np.linspace(0, len(nodes) - 1, 64).astype(int)]
        assert qm.values(targets).tobytes() == \
            (synthesize_raw(cut, targets) / norm).tobytes()

    def test_memory_bounded(self):
        # The 64^3 complex output alone is 4.2 MB.
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(3, 3), h)
        axes = oscillation_axes([cut.extent(i) for i in range(3)], h, 4, 8)
        assert [a.points for a in axes] == [64] * 3
        tracemalloc.start()
        try:
            synthesize_on_axes(cut, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

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
        (lambda: build_cutoff(_fine_parabola_cutoff(4, (0.02, 0.25, 0.25),
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
        assert synthesize_on_axes(
            cut, axes, lambda rows, b: blocks.append((rows, b.copy()))) is None
        row = math.prod(points[1:])
        step = max(1, out_block // row)
        assert [(r.start, r.stop) for r, _ in blocks] == [
            (i, min(i + step, points[0])) for i in range(0, points[0], step)]
        for rows, b in blocks:
            assert b.shape == (rows.stop - rows.start,) + points[1:]
        whole = synthesize_on_axes(cut, axes).data
        assert np.concatenate([b for _, b in blocks]).tobytes() == whole.tobytes()

    def test_sweep_blocks_are_on_axes_slices(self):
        # The n = 3 sweep's 64^3 grid: eight blocks of 8 x1 rows, normalized
        # as on_axes normalizes its grid.
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(3, 3), h)
        axes = oscillation_axes([cut.extent(i) for i in range(3)], h, 4, 8)
        qm = Quasimode(cut, h)
        blocks = []
        qm.on_axes(axes, lambda rows, b: blocks.append((rows, b.copy())))
        assert [(r.start, r.stop) for r, _ in blocks] == [
            (i, i + 8) for i in range(0, 64, 8)]
        grid = qm.on_axes(axes).data
        for rows, b in blocks:
            assert b.tobytes() == grid[rows].tobytes()

    def test_sweep_point_memory_bounded(self):
        # One point of the n = 3 sweep on 64^3: the grid alone would be
        # 4 MiB, and with |u| 6 MiB.  The last fold's blocks go straight into
        # the norm sums, whose norms equal the whole-grid oracle's bits.
        from quasilab import experiments
        from quasilab.analysis import INF_P, lp_norm, shell_mask

        h, ps = 2.0 ** -5, [INF_P, 8]
        spec = families.paraboloid_cutoff(3, 3)
        v = {"joint_orders": 3, "margin": 4, "points_per_scale": 8}
        tracemalloc.start()
        try:
            row = experiments._sweep_point(spec, h, 0.0, ps, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2 ** 20
        cut = build_cutoff(spec, h)
        g = Quasimode(cut, h).on_axes(
            oscillation_axes([cut.extent(i) for i in range(3)], h, 4, 8))
        masks = shell_mask(g.data.shape), shell_mask(g.data.shape, 1)
        assert row[6:] == [
            lp_norm(g.data, g.cell_volume, p, *masks).value for p in ps]

    def test_each_fold_input_released(self):
        # The n = 4 sweep's field on 32^4: while a fold runs, its input and
        # its output are alive, and no earlier fold's result.
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(4, 3), h)
        axes = oscillation_axes([cut.extent(i) for i in range(4)], h, 4, 4)
        assert [a.points for a in axes] == [32] * 4
        # The xi(j+1) fold's result has one row per distinct (xi(j+2)..xin).
        rows = [len(np.unique(cut.col_coords[:, j:], axis=0)) for j in (1, 2)]
        cells = np.cumprod([a.points for a in axes])[1:]
        folds = [16 * r * c for r, c in zip(rows + [1], cells)]
        tracemalloc.start()
        try:
            synthesize_on_axes(cut, axes)
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
            with pytest.raises(GridBudgetError, match=f"{64 * 32 * 32 * 64} cells"):
                synthesize_on_axes(cut, axes)
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
        with pytest.raises(MemoryError, match=f"> {MAX_GRID_CELLS}"):
            synthesize_on_axes(cut, axes)

    def test_slabs_checked_before_allocation(self, monkeypatch):
        # 240 output cells fit a 1000-cell budget; the 6400 stage-1 slabs of
        # 5 x 4 cells each (128,000) do not.
        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", 1000)
        cut = _fine_4d_field()
        axes = [AxisSpec(0.0, 1.0, n) for n in (5, 4, 4, 3)]
        with pytest.raises(MemoryError, match="128000 cells"):
            synthesize_on_axes(cut, axes)

    def test_run_tables_checked_before_allocation(self, monkeypatch):
        # Output and slab are 10 x 2 cells each; the run tables hold one
        # 10-node row per distinct count (5) and per distinct start (5).
        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", 50)
        axes = [AxisSpec(0.0, 1.0, 16), AxisSpec(0.0, 1.0, 8)]
        cut = CutoffField(h=0.1, axes=axes,
                          col_coords=np.linspace(-0.5, 0.5, 5)[:, None],
                          col_start=np.arange(5), col_count=np.arange(1, 6))
        out_axes = [AxisSpec(0.0, 1.0, 10), AxisSpec(0.0, 1.0, 2)]
        with pytest.raises(MemoryError, match="100 cells"):
            synthesize_on_axes(cut, out_axes)

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
        with pytest.raises(MemoryError, match="80 cells"):
            synthesize_on_axes(cut, out_axes)

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
        assert len(digests[0]) == 4
        assert digests[0] == digests[1]


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
        qm = Quasimode(build_cutoff(families.paraboloid_cutoff(2, 1), h), h)
        assert verify_joint_quasimode(qm, 0)[0, 0] == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("spec_fn,h", JOINT_CASES)
    def test_all_orders_bounded(self, spec_fn, h):
        qm = Quasimode(build_cutoff(spec_fn(), h), h)
        ratios = verify_joint_quasimode(qm, 3)
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
        np.testing.assert_allclose(verify_joint_quasimode(Quasimode(cut, h), 3),
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
        # Every n <= 3 case is one chunk at the shipped size.
        whole = verify_joint_quasimode(cut, 3)
        assert sizes[::2] == [cut.cell_count]
        for cells in (40, 5000):
            monkeypatch.setattr(quasimode, "_JOINT_CHUNK_CELLS", cells)
            sizes.clear()
            got = verify_joint_quasimode(cut, 3)
            np.testing.assert_allclose(got, whole, rtol=1e-12, atol=0)
            # Whole columns, as many as fit in the chunk, or one.
            chunks, ends = sizes[::2], np.cumsum(cut.col_count)
            assert sum(chunks) == cut.cell_count
            bounds = np.cumsum(chunks)
            assert set(bounds) <= set(ends)
            for lo, hi in zip(np.r_[0, bounds[:-1]], bounds):
                first = ends[np.searchsorted(ends, lo, "right")]
                assert hi - lo <= cells or hi == first
                nxt = np.searchsorted(ends, hi, "right")
                assert nxt == len(ends) or ends[nxt] - lo > cells

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
        np.testing.assert_array_equal(got, verify_joint_quasimode(cut, 3))

    def test_multiplier_norm_oracle(self):
        # Independent frequency-side oracle: apply p1 as a multiplier to the
        # dense indicator and compare L2 norms.
        h = 2.0 ** -4
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
        dense = _dense_indicator(cut)
        p1, _ = families.paraboloid_pair(2, 1)
        out = GridField(h, FREQUENCY, dense.axes, dense.data * p1.eval_grid(
            node_arrays(dense.axes, dense.dim)))
        oracle = out.l2_norm() / (h * dense.l2_norm())
        assert verify_joint_quasimode(Quasimode(cut, h), 1)[1, 0] == pytest.approx(
            oracle, rel=1e-10)
        assert oracle <= 1.0

    def test_requires_band_spec(self):
        h = 2.0 ** -5
        cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
        cut.spec = None
        with pytest.raises(ValueError):
            verify_joint_quasimode(Quasimode(cut, h), 1)

"""Cutoff construction, support volumes, synthesis, joint-quasimode ratios."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasilab
from quasilab import families
from quasilab.errors import (BoxTooSmallError, DimensionMismatchError,
                             EmptySupportError)
from quasilab.grids import INVERSE, AxisSpec, mesh_points, semiclassical_ft
from quasilab.quasimode import (AxisRule, BandConstraint, CutoffField,
                                FrequencyCutoff, HExpr, Quasimode,
                                build_cutoff, support_volume,
                                synthesize_on_axes, synthesize_raw,
                                verify_joint_quasimode)
from quasilab.symbols import parse_symbol

H_SWEEP = [2.0 ** -e for e in range(4, 11)]


class TestHExpr:
    def test_parse_terms(self):
        e = HExpr.parse("-1.25*h^0.5 + 3*h")
        assert e(0.25) == pytest.approx(-1.25 * 0.5 + 0.75)

    def test_parse_constant_and_bare_h(self):
        assert HExpr.parse("2.5")(0.1) == 2.5
        assert HExpr.parse("h")(0.3) == 0.3
        assert HExpr.parse("h^1/2")(0.25) == 0.5

    def test_text_round_trip(self):
        e = HExpr.of(1.5, 0.5, (-3.0, 1.0))
        assert HExpr.parse(e.text())(0.37) == pytest.approx(e(0.37), rel=1e-15)

    def test_axis_rule_pow2(self):
        rule = AxisRule(HExpr.of(-1.0), HExpr.of(1.0), HExpr.of(0.3), pow2=True)
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
            (AxisRule(HExpr.of(-2.0), HExpr.of(2.0), HExpr.of(1 / 64, 1.0)),
             AxisRule(HExpr.of(-1.0), HExpr.of(1.0), HExpr.of(1 / 16))))
        with pytest.raises(EmptySupportError):
            build_cutoff(spec, 2.0 ** -6)

    def test_box_too_small_detected(self):
        # Band wider than the box on the bar axis.
        spec = FrequencyCutoff(
            (BandConstraint(parse_symbol("x1", dim=2), 1.0, 1.0),
             BandConstraint(parse_symbol("x2", dim=2), 0.0, 1.0)),
            (AxisRule(HExpr.of(-2.0, 1.0), HExpr.of(2.0, 1.0),
                      HExpr.of(1 / 16, 1.0)),
             AxisRule(HExpr.of(-0.5), HExpr.of(0.5), HExpr.of(1 / 64))))
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
            (AxisRule(HExpr.of(-2.0, 1.0), HExpr.of(2.0, 1.0),
                      HExpr.of(1 / 16, 1.0)),))
        with pytest.raises(DimensionMismatchError, match="bar axis"):
            build_cutoff(spec, 2.0 ** -6)


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
        dense = cut.to_grid_field()
        pos = semiclassical_ft(dense, INVERSE)
        pts = mesh_points(pos.axes)
        direct = synthesize_raw(cut, pts).reshape(pos.data.shape)
        err = np.abs(direct - pos.data).max() / np.abs(pos.data).max()
        assert err < 1e-6

    def test_dense_guard(self):
        h = 2.0 ** -10
        cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
        with pytest.raises(MemoryError):
            cut.to_grid_field(max_cells=100)


def _line_field(h):
    """1D run |xi1| <= h, hand-built: build_cutoff needs n >= 2."""
    return CutoffField(h=h, axes=[AxisSpec(0.0, 2.0 * h, 64)],
                       col_coords=np.zeros((1, 0)), col_start=np.array([16]),
                       col_count=np.array([32]))


def _fine_parabola_cutoff():
    """2D strip |xi1 - xi2^2| <= h, |xi2| <= 1/2 on a fine bar grid (~160 columns)."""
    return FrequencyCutoff(
        (BandConstraint(parse_symbol("x1 - x2^2", dim=2), 1.0),
         BandConstraint(parse_symbol("x2", dim=2), 0.0, 0.5)),
        (AxisRule(HExpr.of(-0.1), HExpr.of(0.4), HExpr.of(1 / 16, 1.0)),
         AxisRule(HExpr.of(-0.6), HExpr.of(0.6), HExpr.of(1 / 160))))


# Prints sha256 digests of a 3D product synthesis and a joint-ratio matrix.
DIGEST_CHILD = """
import hashlib
from quasilab import families
from quasilab.analysis import oscillation_axes
from quasilab.quasimode import (build_cutoff, synthesize_on_axes,
                                verify_joint_quasimode)
h = 2.0 ** -5
cut = build_cutoff(families.paraboloid_cutoff(3, 3), h)
axes = oscillation_axes([cut.extent(i) for i in range(3)], h, 2, 8)
for arr in (synthesize_on_axes(cut, axes).data, verify_joint_quasimode(cut, 3)):
    print(hashlib.sha256(arr.tobytes()).hexdigest())
"""


class TestProductSynthesis:
    """The blocked matrix-product path against the pointwise column sum."""

    @pytest.mark.parametrize("make_field,points", [
        (lambda: _line_field(2.0 ** -6), (37,)),
        (lambda: build_cutoff(_fine_parabola_cutoff(), 2.0 ** -6), (23, 19)),
        # 1,156 columns: 18 full 64-column blocks and a partial one.
        (lambda: build_cutoff(families.paraboloid_cutoff(3, 3), 2.0 ** -5),
         (13, 11, 9)),
    ], ids=["1d", "2d", "3d"])
    def test_matches_pointwise_oracle(self, make_field, points):
        cut = make_field()
        h = cut.h
        if cut.dim > 1:
            assert len(cut.col_count) > 128 and len(cut.col_count) % 64
        # Off-center boxes spanning a few oscillation scales per axis.
        axes = [AxisSpec(0.3 * hw, hw, n) for hw, n in zip(
            (3.0 * h / cut.extent(i) for i in range(cut.dim)), points)]
        fast = synthesize_on_axes(cut, axes)
        assert fast.data.shape == points
        oracle = synthesize_raw(cut, mesh_points(axes)).reshape(points)
        err = np.abs(fast.data - oracle).max() / np.abs(oracle).max()
        assert err <= 1e-12

    def test_dimension_checked_before_allocation(self):
        # A dense 4D grid of 1e16 points cannot be allocated; the dimension
        # check must fire first.
        axes = [AxisSpec(0.0, 1.0, 10 ** 4)] * 4
        cut = CutoffField(h=0.1, axes=axes, col_coords=np.zeros((1, 3)),
                          col_start=np.array([0]), col_count=np.array([1]))
        with pytest.raises(NotImplementedError):
            synthesize_on_axes(cut, axes)

    def test_bits_independent_of_blas_threads(self):
        src = str(Path(quasilab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", DIGEST_CHILD], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]


JOINT_CASES = [
    (lambda: families.paraboloid_cutoff(2, 3), 2.0 ** -6),
    (lambda: families.slab_cutoff(3, 3), 2.0 ** -5),
    (lambda: families.valley_cutoff(), 2.0 ** -6),
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
        p1, p2 = (c.symbol for c in cut.spec.constraints[:2])
        direct = np.zeros((4, 4))
        for m1 in range(4):
            for m2 in range(4):
                total = 0.0
                for coords in cut.support_cells():
                    arrays = [coords[:, d] for d in range(cut.dim)]
                    total += np.sum(p1.eval_grid(arrays) ** (2 * m1)
                                    * p2.eval_grid(arrays) ** (2 * m2))
                direct[m1, m2] = math.sqrt(total * cut.cell_volume) / (
                    h ** (m1 + m2) * cut.l2_norm())
        np.testing.assert_allclose(verify_joint_quasimode(Quasimode(cut, h), 3),
                                   direct, rtol=1e-12, atol=0)

    def test_multiplier_norm_oracle(self):
        # Independent frequency-side oracle: apply p1 as a multiplier to the
        # dense indicator and compare L2 norms.
        h = 2.0 ** -4
        cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
        from quasilab.grids import apply_multiplier
        dense = cut.to_grid_field()
        p1, _ = families.paraboloid_pair(2, 1)
        out = apply_multiplier(dense, p1)
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

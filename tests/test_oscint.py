"""Oscillatory integrals: quadrature, decay verdicts, TT* kernel."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from quasilab import oscint
from quasilab.errors import ResolutionError
from quasilab.oscint import (Amplitude, EvalResult, OscIntegrand,
                             QuadraticPhase, dyadic_amplitude, evaluate,
                             psi_amplitude, quadratic_phase,
                             resonant_amplitude, ttstar_kernel, vdc_check,
                             window_overlap)
from quasilab.symbols import parse_symbol
from quasilab.wavelets import bump, dyadic_cutoffs

H6 = [2.0 ** -e for e in range(6, 13)]


def unit_loss(h):
    return 1.0


def unbounded(h):
    """The support radius of an amplitude that may be nonzero anywhere."""
    return math.inf


def whole_box(amp):
    """amp with an unbounded support radius: the quadrature takes it on the
    whole box."""
    return dataclasses.replace(amp, support_radius=unbounded)


ZERO = Amplitude(lambda p, h: np.zeros(p.shape[:-1]), unit_loss, unbounded)


def midpoint(integrand, h, n):
    """oscint._midpoint with a values array and a scratch of one slab each."""
    size = oscint._slab_points(n, integrand.d)
    return oscint._midpoint(integrand, h, n, (np.empty(size, complex),
                                              np.empty(size, complex)))


def linear_phase(d):
    def phi(pts):
        return np.asarray(pts, float)[..., 0]

    return phi


def bump_amplitude(width=1.0):
    """Smooth bump of fixed width, h-independent, declared with loss rate 1
    and no support radius."""

    def values(pts, h):
        r = np.sqrt(np.sum(np.asarray(pts, float) ** 2, axis=-1))
        return bump(r / width)

    return Amplitude(values, unit_loss, unbounded)


class TestEvaluate:
    def test_zero_amplitude(self):
        zero = OscIntegrand(quadratic_phase(1.0, 1), ZERO, 1, ((-1, 1),))
        assert evaluate(zero, 2.0 ** -6).value == 0

    def test_fresnel_oracle(self):
        # |int exp(i mu xi^2 / 2h) a| -> sqrt(2 pi h / mu) |a(0)|.
        mu = 2.0
        integrand = OscIntegrand(quadratic_phase(mu, 1), bump_amplitude(1.0),
                                 1, ((-1, 1),))
        for h in (2.0 ** -8, 2.0 ** -10):
            res = evaluate(integrand, h)
            oracle = math.sqrt(2 * math.pi * h / mu) * math.exp(-1.0)
            assert abs(res.value) == pytest.approx(oracle, rel=0.05)

    def test_linear_phase_superpolynomial(self):
        integrand = OscIntegrand(linear_phase(1), bump_amplitude(1.0),
                                 1, ((-1, 1),))
        hs = [2.0 ** -e for e in range(3, 8)]
        mags = [abs(evaluate(integrand, h).value) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(mags), 1)[0]
        assert slope >= 3.0

    def test_amplitude_linearity(self):
        phase = quadratic_phase(1.0, 1)
        a1 = bump_amplitude(1.0)
        a2 = bump_amplitude(0.5)
        combo = OscIntegrand(phase, Amplitude(
            lambda p, h: 2 * a1.values(p, h) - 3 * a2.values(p, h),
            unit_loss, unbounded), 1, ((-1, 1),))
        i1 = evaluate(OscIntegrand(phase, a1, 1, ((-1, 1),)), 2.0 ** -6)
        i2 = evaluate(OscIntegrand(phase, a2, 1, ((-1, 1),)), 2.0 ** -6)
        ic = evaluate(combo, 2.0 ** -6)
        assert ic.value == pytest.approx(2 * i1.value - 3 * i2.value, rel=1e-10)

    def test_conjugation_symmetry(self):
        phase = quadratic_phase(1.0, 1)
        neg = OscIntegrand(lambda p: -phase(p), bump_amplitude(1.0),
                           1, ((-1, 1),))
        pos = OscIntegrand(phase, bump_amplitude(1.0), 1, ((-1, 1),))
        h = 2.0 ** -7
        assert evaluate(neg, h).value == pytest.approx(
            np.conj(evaluate(pos, h).value), rel=1e-12)

    def test_refuses_underresolved(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 1), bump_amplitude(1.0),
                                 1, ((-100, 100),))
        with pytest.raises(ResolutionError):
            evaluate(integrand, 2.0 ** -12)

    @pytest.mark.parametrize("ext, match", [
        # mu |xi|^2 / 2 overflows to inf at the box's edge, so the probe's
        # differences are inf - inf = nan, which max() used to drop (0.0,
        # read as no oscillation, and 33 nodes).
        (1e200, "phase gradient on axis 1 is nan"),
        # A finite gradient whose node count overflows to inf: refused
        # before math.ceil(inf) raises OverflowError.
        (8e153, "inf points per axis needed"),
    ])
    def test_refuses_non_finite_gradient_or_count(self, ext, match,
                                                  monkeypatch):
        def midpoint(*args):
            raise AssertionError("quadrature ran")
        monkeypatch.setattr(oscint, "_midpoint", midpoint)
        integrand = OscIntegrand(quadratic_phase(1.0, 1), bump_amplitude(1.0),
                                 1, ((-ext, ext),))
        with pytest.raises(ResolutionError, match=match):
            evaluate(integrand, 2.0 ** -4)

    def test_refuses_over_total_point_budget(self, monkeypatch):
        # 7,334 nodes per axis is within MAX_POINTS_PER_AXIS, but 7,334^2
        # is over MAX_QUAD_POINTS: refused before any quadrature runs.
        def midpoint(*args):
            raise AssertionError("quadrature ran")
        monkeypatch.setattr(oscint, "_midpoint", midpoint)
        integrand = OscIntegrand(quadratic_phase(1.0, 2), bump_amplitude(1.0),
                                 2, ((-1.5, 1.5),) * 2)
        with pytest.raises(ResolutionError, match=f"{oscint.MAX_QUAD_POINTS} in all"):
            evaluate(integrand, 2.0 ** -10)

    def test_least_count_refused_before_probing(self, monkeypatch):
        # 33 nodes per axis, the least evaluate uses and the gradient
        # probe's, is one node over the budget in d = 3: refused before the
        # probe's 33^3-node mesh and its shifted copies are built (3.7 MB
        # traced otherwise).
        monkeypatch.setattr(oscint, "MAX_QUAD_POINTS", 33 ** 3 - 1)
        integrand = OscIntegrand(quadratic_phase(1.0, 3), bump_amplitude(1.0),
                                 3, ((-1.5, 1.5),) * 3)
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionError, match="at least 33 points"):
                evaluate(integrand, 2.0 ** -4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19

    def test_gradient_probe_memory_bounded(self):
        # d = 4 at h = 2^-6 needs 459 nodes per axis, over the budget in
        # all; the refusal comes after the gradient probe, whose 33^4-node
        # mesh is probed in slabs of at most _SLAB_POINTS nodes (151.8 MB
        # traced for the whole mesh and its shifted copies).
        integrand = OscIntegrand(quadratic_phase(1.0, 4), bump_amplitude(1.0),
                                 4, ((-1.5, 1.5),) * 4)
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionError, match="459 points per axis"):
                evaluate(integrand, 2.0 ** -6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    # One slab of the whole mesh at the shipped _SLAB_POINTS, and slabs of
    # 5 first-axis indices (the last one partial) at 5 * 33^(d-1).
    @pytest.mark.parametrize("slab", [None, 5], ids=["shipped", "5-rows"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gradient_probe_matches_whole_mesh(self, d, slab, monkeypatch):
        def phase(pts):
            pts = np.asarray(pts, float)
            return np.sin(3.0 * pts[..., 0]) + np.sum(pts, axis=-1) ** 3

        box = tuple((-1.5 + 0.1 * k, 1.0 + 0.2 * k) for k in range(d))
        n = oscint._GRAD_PROBE
        mesh = np.stack(np.meshgrid(*[np.linspace(lo, hi, n) for lo, hi in box],
                                    indexing="ij"), axis=-1)
        eps = min(hi - lo for lo, hi in box) * 1e-5
        want = 0.0
        for k in range(d):
            shift = np.zeros(d)
            shift[k] = eps
            g = (phase(mesh + shift) - phase(mesh - shift)) / (2 * eps)
            want = max(want, float(np.abs(g).max()))
        if slab is not None:
            monkeypatch.setattr(oscint, "_SLAB_POINTS", slab * n ** (d - 1))
        assert oscint._grad_max(phase, box, d).hex() == want.hex()

    def test_error_estimate_reported(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 1), bump_amplitude(1.0),
                                 1, ((-1, 1),))
        res = evaluate(integrand, 2.0 ** -6)
        assert isinstance(res, EvalResult)
        assert res.error_estimate < 1e-6

    # Each n leaves a partial last slab: 100000 = 65536 + 34464 points,
    # 300 = 218 + 82 rows of 300, 50 = 26 + 24 rows of 50^2.
    @pytest.mark.parametrize("d, n", [(1, 100_000), (2, 300), (3, 50)])
    def test_slabs_match_whole_grid_sum(self, d, n):
        rows = max(1, oscint._SLAB_POINTS // n ** (d - 1))
        assert rows < n and n % rows
        h = 2.0 ** -4
        integrand = OscIntegrand(quadratic_phase(1.0, d), bump_amplitude(1.0),
                                 d, ((-1.0, 1.2),) * d)
        axes = [-1.0 + (np.arange(n) + 0.5) * (2.2 / n)] * d
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        cell = (2.2 / n) ** d
        vals = (np.exp(1j * integrand.phase(pts) / h)
                * integrand.amplitude.values(pts, h))
        whole = complex(np.sum(vals) * cell)
        assert abs(midpoint(integrand, h, n) - whole) <= 1e-13 * abs(whole)
        mass = float(np.sum(np.abs(integrand.amplitude.values(pts, h))) * cell)
        assert oscint._midpoint_abs(integrand, h, n) == pytest.approx(mass, rel=1e-13)

    # Each (d, n) leaves a partial last slab: 100000 = 65536 + 34464
    # points, 300 = 218 + 82 rows, 50 = 26 + 24 rows and 20 = 8 + 8 + 4.
    @pytest.mark.parametrize("d, n", [(1, 100_000), (2, 300), (3, 50), (4, 20)])
    def test_slab_nodes_match_meshgrid(self, d, n):
        box = tuple((-1.0 - 0.1 * k, 1.2 + 0.3 * k) for k in range(d))
        seen = []

        def record(pts, out):
            seen.append(pts.copy())

        values = np.empty(oscint._slab_points(n, d))
        assert (list(oscint._slabs(box, n, math.inf, values, record,
                                   frozenset()))
                == [0.0] * len(seen))
        assert len(seen) > 1 and len(seen[-1]) < len(seen[0])
        axes = [lo + (np.arange(n) + 0.5) * ((hi - lo) / n) for lo, hi in box]
        want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        got = np.concatenate(seen)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_memory_bounded(self):
        # The vdc_d2 integrand at its finest h: 1834^2 quadrature points.
        integrand = OscIntegrand(quadratic_phase(1.0, 2),
                                 whole_box(dyadic_amplitude(3, 1)), 2,
                                 ((-1.5, 1.5),) * 2)
        tracemalloc.start()
        try:
            res = evaluate(integrand, 2.0 ** -8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.points_per_axis == 1834
        assert peak <= 32 * 2 ** 20


def _unmasked_midpoint(integrand, h, n, even=frozenset()):
    """exp(i*phase/h) * amplitude at every node, summed in _midpoint's
    slabs: on the whole box, or halving the axes even (_slabs)."""
    d = integrand.d
    values = np.empty(oscint._slab_points(n, d), complex)

    def write(pts, out):
        out[...] = (np.exp(1j * integrand.phase(pts) / h)
                    * integrand.amplitude.values(pts, h))

    return complex(sum(oscint._slabs(integrand.box, n, math.inf, values,
                                     write, even)))


def _declared(integrand):
    """integrand declared even in every axis."""
    return dataclasses.replace(integrand, even=frozenset(range(integrand.d)))


def _undeclared(integrand):
    """integrand with no axis declared even: the whole box."""
    return dataclasses.replace(integrand, even=frozenset())


def _ttstar_style_integrand(h):
    # A TT*-style integrand in two dimensions: a dyadic psi_j times a
    # mixed symbol's phase plus a linear term.
    a1 = parse_symbol("x1^2 + x1*x2 - x2^4", dim=2)
    scale = dyadic_cutoffs(h, 3).scale(1)
    dxz = np.array([0.3, -0.2])

    def phase(pts):
        pts = np.asarray(pts, float)
        lin = np.tensordot(pts, dxz, axes=(-1, 0))
        return lin + 0.125 * a1.eval_grid([pts[..., i] for i in range(2)])

    return OscIntegrand(phase, whole_box(psi_amplitude(3, 1)), 2,
                        ((-1.5 * scale, 1.5 * scale),) * 2)


class TestSupportRestriction:
    # On the orthant grid of the declared integrands, whose halved first
    # axis holds n - n // 2 indices, and on the whole box of the TT*-style
    # one.  Each n leaves a partial last slab: 917 = 26 * 35 + 7 and
    # 918 = 26 * 35 + 8 rows of 917 or 918, 75000 = 65536 + 9464 points,
    # 300 = 218 + 82 rows of 300.
    @pytest.mark.parametrize("case", ["vdc_d2", "vdc_d2_odd", "resonant_d1",
                                      "ttstar"])
    def test_bits_equal_unmasked_product(self, case):
        if case.startswith("vdc_d2"):
            h, n = 2.0 ** -8, 1835 if case.endswith("odd") else 1834
            integrand = _declared(OscIntegrand(
                quadratic_phase(1.0, 2), whole_box(dyadic_amplitude(3, 1)), 2,
                ((-1.5, 1.5),) * 2))
        elif case == "resonant_d1":
            h, n = 2.0 ** -10, 150_000
            phase = quadratic_phase(1.0, 1)
            integrand = _declared(OscIntegrand(
                phase, whole_box(resonant_amplitude(phase, 0.8)), 1, ((-1, 1),)))
        else:
            h, n = 2.0 ** -8, 300
            integrand = _ttstar_style_integrand(h)
        first = n - n // 2 if integrand.even else n
        rows = max(1, oscint._SLAB_POINTS // n ** (integrand.d - 1))
        assert rows < first and first % rows
        value = midpoint(integrand, h, n)
        assert value != 0
        assert value == _unmasked_midpoint(integrand, h, n, integrand.even)

    def test_values_array_reused_across_slabs(self, monkeypatch):
        # 300 = 218 + 82 rows of 300: both slabs fill one values array.
        h, n = 2.0 ** -8, 300
        integrand = _ttstar_style_integrand(h)
        seen = []
        slabs = oscint._slabs

        def record(box, n, radius, values, f, even):
            def write(pts, out):
                f(pts, out)
                seen.append((out.size, out.__array_interface__["data"][0]))
            return slabs(box, n, radius, values, write, even)

        monkeypatch.setattr(oscint, "_slabs", record)
        value = midpoint(integrand, h, n)
        assert [size for size, _ in seen] == [218 * n, 82 * n]
        assert len({address for _, address in seen}) == 1
        monkeypatch.undo()
        assert value == _unmasked_midpoint(integrand, h, n)

    def test_one_slab_equals_whole_grid_formula(self):
        h, n = 2.0 ** -6, 256
        integrand = OscIntegrand(quadratic_phase(1.0, 2),
                                 whole_box(dyadic_amplitude(3, 1)), 2,
                                 ((-1.5, 1.5),) * 2)
        assert n ** 2 == oscint._SLAB_POINTS
        axes = [-1.5 + (np.arange(n) + 0.5) * (3.0 / n)] * 2
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        vals = (np.exp(1j * integrand.phase(pts) / h)
                * integrand.amplitude.values(pts, h))
        assert np.count_nonzero(vals == 0) > 0
        assert midpoint(integrand, h, n) == complex(
            np.sum(vals) * (3.0 / n) ** 2)

    @pytest.mark.parametrize("n", [256, 255])
    def test_one_slab_equals_orthant_formula(self, n):
        # Declared even, the integrand is summed on the upper half of each
        # axis, ax[n // 2:], in one slab: for odd n the centre node, index
        # 0 of each half, at weight 1 and every other node at weight 2,
        # that is the values times 1/2 at the centre and the cell times 4.
        h = 2.0 ** -6
        integrand = _declared(OscIntegrand(
            quadratic_phase(1.0, 2), whole_box(dyadic_amplitude(3, 1)), 2,
            ((-1.5, 1.5),) * 2))
        half = (-1.5 + (np.arange(n) + 0.5) * (3.0 / n))[n // 2:]
        pts = np.stack(np.meshgrid(half, half, indexing="ij"), axis=-1)
        vals = (np.exp(1j * integrand.phase(pts) / h)
                * integrand.amplitude.values(pts, h))
        if n % 2:
            assert abs(half[0]) < 1e-15
            vals[0] *= 0.5
            vals[:, 0] *= 0.5
        assert np.count_nonzero(vals == 0) > 0
        assert midpoint(integrand, h, n) == complex(
            np.sum(vals) * ((3.0 / n) ** 2 * 4))

    def test_phase_evaluated_on_support_only(self):
        # A phase that is NaN wherever the amplitude vanishes leaves the value
        # finite and unchanged: off the support the phase is never taken.
        h, n = 2.0 ** -6, 300
        amp = whole_box(dyadic_amplitude(3, 1))
        plain = quadratic_phase(1.0, 2)

        def nan_off_support(pts):
            return np.where(amp.values(pts, h) == 0, np.nan, plain(pts))

        box = ((-1.5, 1.5),) * 2
        value = midpoint(OscIntegrand(plain, amp, 2, box), h, n)
        masked = midpoint(OscIntegrand(nan_off_support, amp, 2, box), h, n)
        assert math.isfinite(abs(masked))
        assert masked == value

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_norm_sq_matches_trailing_sum(self, d):
        rng = np.random.default_rng(d)
        axes = [np.linspace(-1.5, 1.5, 17)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        for pts in (rng.standard_normal((1000, d)) * 1e3,
                    rng.standard_normal((7, 9, d)) * 1e-3, grid):
            want = np.sum(pts ** 2, axis=-1)
            got = oscint._norm_sq(pts)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _double_well(p):
    xi = np.asarray(p, float)[..., 0]
    return (xi ** 2 - 1.0) ** 2


class TestCriticalPoints:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_quadratic_phase_is_half_mu_norm_sq(self, d):
        rng = np.random.default_rng(d)
        for mu, pts in ((1.0, rng.standard_normal((1000, d))),
                        (-0.7, rng.standard_normal((7, 9, d)) * 1e3),
                        (2.0 ** -3, rng.standard_normal((5, d)) * 1e-3)):
            phase = quadratic_phase(mu, d)
            assert phase == QuadraticPhase(mu, d)
            assert phase(pts).tobytes() == \
                (0.5 * mu * oscint._norm_sq(pts)).tobytes()

    @pytest.mark.parametrize("phase, box, crit", [
        # Two critical points, and a function vdc_check cannot read one off.
        (_double_well, ((-1.5, 1.5),), None),
        # A quadratic phase of the wrong dimension.
        (QuadraticPhase(1.0, 2), ((-1.5, 1.5),), None),
        # 0 outside the box (on its edge is inside: the next test).
        (QuadraticPhase(1.0, 2), ((-1.5, 1.5), (0.5, 1.5)), None),
        # mu = 0: a degenerate critical point, |det Hess| = 0.
        (QuadraticPhase(0.0, 1), ((-1.5, 1.5),), (0.0,)),
    ], ids=["double-well", "wrong-d", "box-without-0", "mu-0"])
    def test_refused(self, phase, box, crit):
        integrand = OscIntegrand(phase, bump_amplitude(2.0), len(box), box)
        rep = vdc_check(integrand, H6[:5], 1.0, 0.1)
        assert rep.verdict == "REFUSED"
        assert "critical point" in rep.reason
        assert rep.critical_point == crit and rep.magnitudes == ()

    def test_zero_on_the_box_edge_is_inside(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 1),
                                 whole_box(dyadic_amplitude(3, 2)), 1,
                                 ((0.0, 1.5),))
        rep = vdc_check(integrand, H6[:5], 1.0, 0.1)
        assert rep.verdict != "REFUSED"
        assert rep.critical_point == (0.0,) and rep.hess_det == 1.0


class TestVdcCheck:
    def test_dyadic_amplitude_passes(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 1),
                                 whole_box(dyadic_amplitude(3, 2)), 1,
                                 ((-1.5, 1.5),))
        rep = vdc_check(integrand, H6, 1.0, 0.1)
        assert rep.verdict == "PASS"
        assert abs(rep.fitted_exponent - 0.5) <= 0.1

    def test_two_dimensional_radial(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 2),
                                 whole_box(dyadic_amplitude(3, 1)), 2,
                                 ((-1.5, 1.5), (-1.5, 1.5)))
        rep = vdc_check(integrand, [2.0 ** -e for e in range(3, 9)],
                        1.0, 0.1)
        assert rep.verdict == "PASS"
        assert abs(rep.fitted_exponent - 1.0) <= 0.1

    def test_resonant_amplitude_degrades(self):
        phase = quadratic_phase(1.0, 1)
        integrand = OscIntegrand(phase, whole_box(resonant_amplitude(phase, 0.8)),
                                 1, ((-1, 1),))
        rep = vdc_check(integrand, H6, 1.0, 0.1)
        assert rep.verdict == "FAIL"
        assert not rep.admissible
        assert rep.fitted_exponent < 0.4

    def test_randomized_nondegenerate_family(self):
        # Random isotropic quadratic phases of either sign with admissible
        # bump amplitudes all obey the d/2 law, their critical point and
        # |det Hess| read off the phase.
        rng = np.random.default_rng(31)
        for trial in range(10):
            d = 1 if trial % 2 == 0 else 2
            mu = float(rng.uniform(0.5, 2.0))
            sign = float(rng.choice([-1.0, 1.0]))
            integrand = OscIntegrand(QuadraticPhase(sign * mu, d),
                                     bump_amplitude(1.0), d,
                                     ((-1.2, 1.2),) * d)
            hs = [2.0 ** -e for e in range(4, 9)]
            rep = vdc_check(integrand, hs, mu, exponent_tolerance=0.15)
            assert rep.verdict == "PASS", rep.reason
            assert rep.critical_point == (0.0,) * d
            assert rep.hess_det == mu ** d

    def test_zero_magnitudes_still_fit(self):
        # |I| = 0 at every h is floored before the log, so the fit runs and
        # the verdict fails instead of raising.
        zero = OscIntegrand(quadratic_phase(1.0, 1), ZERO, 1, ((-1, 1),))
        rep = vdc_check(zero, H6[:5], 1.0, 0.1)
        assert rep.magnitudes == (0.0,) * 5
        assert rep.fitted_exponent == 0.0 and rep.slope_stderr == 0.0
        assert rep.verdict == "FAIL"

    def test_needs_five_points(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 1), bump_amplitude(1.0),
                                 1, ((-1, 1),))
        with pytest.raises(ValueError):
            vdc_check(integrand, [0.5, 0.25, 0.125], 1.0, 0.1)


class TestTTStar:
    @pytest.fixture()
    def a1(self):
        return parse_symbol("x1^2", dim=1)

    def test_disjoint_windows_vanish(self, a1):
        kv = ttstar_kernel(a1, 0.5, 0, 2.0 ** -8, 3, 2.5)
        assert kv.value == 0.0 and kv.b_overlap == 0.0

    def test_overlap_vanishes_just_below_reach(self, a1):
        # At a = 0.5 the windows are disjoint from a separation of 1 on;
        # at 0.999 their overlap is thinner than the 4,096 nodes resolve.
        assert window_overlap(0.5, 0.99) != 0.0
        assert window_overlap(0.5, 0.999) == 0.0
        assert window_overlap(0.5, 1.0) == 0.0
        kv = ttstar_kernel(a1, 0.5, 0, 2.0 ** -8, 3, 0.999)
        assert kv.value == 0.0 and kv.b_overlap == 0.0

    def test_vdc_regime_bounded(self, a1):
        sep = 2.0 ** -3
        ratios = []
        for h in (2.0 ** -8, 2.0 ** -10, 2.0 ** -12):
            kv = ttstar_kernel(a1, 0.5, 0, h, 3, sep)
            ratios.append(abs(kv.value) * h ** 0.5 * sep ** 0.5 / 0.5)
        assert max(ratios) / min(ratios) < 4.0

    def test_trivial_regime_bound_holds(self, a1):
        for h in (2.0 ** -8, 2.0 ** -10):
            kv = ttstar_kernel(a1, 0.5, 0, h, 3, h)
            assert abs(kv.value) <= kv.trivial_bound * (1 + 1e-9)
            scale = 0.5 * h ** -0.75  # |a| h^(-(n-1)(1-1/(k+1))), n=2, k=3
            assert abs(kv.value) <= scale


# Each amplitude record as its constructor builds it, and the h at which
# it is checked: the shipped vdc amplitudes, where 2^-3 puts the dyadic
# cube outside the box (radius 1.78 and 3.57 against a half width of 1.5)
# and the others inside it, and every psi_j of ttstar_n2 (k = 3) at its
# largest and smallest h (levels 0-2 and 0-3), on a box reaching two of
# its scales out, past its radius, with ttstar_n2's vdc-regime phase
# 2^-3 xi^2.
def _record_integrand(case, h):
    if case == "dyadic-d1":
        return OscIntegrand(quadratic_phase(1.0, 1), dyadic_amplitude(3, 2), 1,
                            ((-1.5, 1.5),))
    if case == "dyadic-d2":
        return OscIntegrand(quadratic_phase(1.0, 2), dyadic_amplitude(3, 1), 2,
                            ((-1.5, 1.5),) * 2)
    if case == "resonant-d1":
        phase = quadratic_phase(1.0, 1)
        return OscIntegrand(phase, resonant_amplitude(phase, 0.8), 1,
                            ((-1.5, 1.5),))
    j = int(case.removeprefix("psi-"))
    ext = 2.0 * dyadic_cutoffs(h, 3).scale(j)
    return OscIntegrand(quadratic_phase(2.0 ** -2, 1), psi_amplitude(3, j), 1,
                        ((-ext, ext),))


RECORD_CASES = [
    ("dyadic-d1", 2.0 ** -3), ("dyadic-d1", 2.0 ** -12),
    ("dyadic-d2", 2.0 ** -3), ("dyadic-d2", 2.0 ** -6),
    ("resonant-d1", 2.0 ** -3), ("resonant-d1", 2.0 ** -12),
    *[(f"psi-{j}", h) for h in (2.0 ** -8, 2.0 ** -12)
      for j in range(dyadic_cutoffs(h, 3).levels + 1)]]


def _ttstar_integrands(monkeypatch, a1, h, sep):
    """(j, integrand) for every psi_j of the TT* kernel at h (k = 3, a =
    0.5), caught on their way into evaluate."""
    seen = []
    real = oscint.evaluate

    def spy(integrand, h_):
        seen.append(integrand)
        return real(integrand, h_)

    monkeypatch.setattr(oscint, "evaluate", spy)
    levels = dyadic_cutoffs(h, 3).levels
    for j in range(levels + 1):
        ttstar_kernel(a1, 0.5, j, h, 3, sep)
    monkeypatch.undo()
    assert len(seen) == levels + 1
    return list(enumerate(seen))


TTSTAR_CASES = [
    # ttstar_n2's symbol at its largest and smallest h (levels 0-2, 0-3).
    ("x1^2", 1, 2.0 ** -8, 2.0 ** -3),
    ("x1^2", 1, 2.0 ** -12, 2.0 ** -12),
    # Two bar dimensions with a mixed symbol (levels 0-1).
    ("x1^2 + x1*x2 - x2^4", 2, 2.0 ** -4, 2.0 ** -3),
]


def _outside_cube(integrand, h, n):
    """The nodes of the n^d grid on the box with some |xi_k| >= radius."""
    axes = [lo + (np.arange(n) + 0.5) * ((hi - lo) / n) for lo, hi in integrand.box]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, integrand.d)
    return pts[np.abs(pts).max(axis=1) >= integrand.amplitude.support_radius(h)]


def _whole(integrand):
    """integrand with its amplitude taken on the whole box."""
    return dataclasses.replace(integrand, amplitude=whole_box(integrand.amplitude))


class TestSupportRadius:
    """The bounded quadrature against the whole box, bit for bit."""

    @staticmethod
    def assert_bounded_equals_whole(integrand, h):
        bounded, full = evaluate(integrand, h), evaluate(_whole(integrand), h)
        assert bounded.value != 0
        assert bounded.value == full.value
        assert bounded.error_estimate == full.error_estimate
        assert bounded.points_per_axis == full.points_per_axis
        return bounded.points_per_axis

    @pytest.mark.parametrize("case, h", RECORD_CASES)
    def test_record_equals_whole_box(self, case, h):
        integrand = _record_integrand(case, h)
        n = self.assert_bounded_equals_whole(integrand, h)
        assert oscint._midpoint_abs(integrand, h, n) == oscint._midpoint_abs(
            _whole(integrand), h, n)

    @pytest.mark.parametrize("symbol, dim, h, sep", TTSTAR_CASES)
    def test_every_ttstar_psi_equals_whole_box(self, monkeypatch, symbol, dim,
                                               h, sep):
        a1 = parse_symbol(symbol, dim=dim)
        for j, integrand in _ttstar_integrands(monkeypatch, a1, h, sep):
            n = self.assert_bounded_equals_whole(integrand, h)
            assert oscint._midpoint_abs(integrand, h, n) == oscint._midpoint_abs(
                _whole(integrand), h, n), j

    @pytest.mark.parametrize("case, h", RECORD_CASES)
    def test_record_zero_outside_radius(self, case, h):
        integrand = _record_integrand(case, h)
        n = evaluate(integrand, h).points_per_axis
        for m in (max(oscint.MIN_POINTS_PER_AXIS // 2, n // 2), n):
            outside = _outside_cube(integrand, h, m)
            # Every box reaches past its record's radius but the dyadic
            # ones at 2^-3.
            assert len(outside) > 0 or (case.startswith("dyadic")
                                        and h == 2.0 ** -3)
            assert not integrand.amplitude.values(outside, h).any()

    @pytest.mark.parametrize("symbol, dim, h, sep", TTSTAR_CASES)
    def test_ttstar_psi_zero_outside_cube(self, monkeypatch, symbol, dim, h,
                                          sep):
        a1 = parse_symbol(symbol, dim=dim)
        # psi_0's box reaches 2 scales out, past the cube; psi_j's for j >= 1
        # ends at the cube's faces.
        for j, integrand in _ttstar_integrands(monkeypatch, a1, h, sep):
            n = evaluate(integrand, h).points_per_axis
            outside = _outside_cube(integrand, h, n)
            assert (len(outside) > 0) == (j == 0)
            assert not integrand.amplitude.values(outside, h).any(), j

    def test_amplitude_taken_only_on_padded_cube(self):
        # vdc_d2's integrand at h = 2^-8 on 1000^2 nodes in 16 slabs:
        # radius 0.75 in a box of half width 1.5, so about a quarter of the
        # nodes are taken and half the slabs skipped.
        integrand = _record_integrand("dyadic-d2", 2.0 ** -8)
        h, n = 2.0 ** -8, 1000
        radius = integrand.amplitude.support_radius(h)
        seen = []

        def values(pts, h_):
            seen.append((len(pts.reshape(-1, 2)), np.abs(pts).max()))
            return integrand.amplitude.values(pts, h_)

        step = 3.0 / n
        midpoint(dataclasses.replace(integrand, amplitude=dataclasses.replace(
            integrand.amplitude, values=values)), h, n)
        assert max(r for _, r in seen) < radius + step
        side = 2 * radius / step + 3    # kept nodes per axis, at most
        assert sum(size for size, _ in seen) <= side ** 2 < 0.3 * n ** 2
        rows = oscint._slab_rows(n, 2)
        assert len(seen) <= side / rows + 2 < 0.7 * math.ceil(n / rows)

    def test_nonpositive_radius_rejected(self):
        integrand = _record_integrand("dyadic-d1", 2.0 ** -6)
        integrand = dataclasses.replace(integrand, amplitude=dataclasses.replace(
            integrand.amplitude, support_radius=lambda h: 0.0))
        with pytest.raises(ValueError, match="not positive"):
            evaluate(integrand, 2.0 ** -6)

    def test_buffers_shared_by_both_passes(self, monkeypatch):
        # evaluate allocates one values array and one scratch, as long as
        # the longer slab of its two passes, and hands both to each pass.
        h = 2.0 ** -6
        integrand = _record_integrand("dyadic-d2", h)
        seen = []
        midpoint = oscint._midpoint

        def record(integrand, h, n, buffers):
            seen.append((n, [b.__array_interface__["data"][0] for b in buffers],
                         [b.size for b in buffers]))
            return midpoint(integrand, h, n, buffers)

        monkeypatch.setattr(oscint, "_midpoint", record)
        n = evaluate(integrand, h).points_per_axis
        (coarse, addr0, size0), (fine, addr1, size1) = seen
        assert (coarse, fine) == (n // 2, n)
        assert addr0 == addr1 and size0 == size1
        assert size0[0] == max(oscint._slab_points(m, 2) for m in (coarse, fine))


def _node_spans(integrand, h, n):
    """(count, lows): the nodes at which the quadrature takes the amplitude
    on n nodes per axis, and the least coordinate of them on each axis."""
    seen = []
    amp = integrand.amplitude

    def values(pts, h_):
        seen.append(pts.reshape(-1, integrand.d).copy())
        return amp.values(pts, h_)

    midpoint(dataclasses.replace(integrand, amplitude=dataclasses.replace(
        amp, values=values)), h, n)
    pts = np.concatenate(seen)
    return len(pts), pts.min(axis=0)


def _orthant_integrand(case, h):
    """The declared integrands of the orthant quadrature: the vdc dyadic
    amplitude at d = 1-3 and the resonant one at d = 1, as run_vdc declares
    them, on the shipped box of half width 1.5 with their support radii."""
    if case == "resonant-d1":
        phase = quadratic_phase(1.0, 1)
        amp, d = resonant_amplitude(phase, 0.8), 1
    else:
        d = int(case[-1])
        amp = dyadic_amplitude(3, 1 if d > 1 else 2)
    return OscIntegrand(quadratic_phase(1.0, d), amp, d, ((-1.5, 1.5),) * d,
                        frozenset(range(d)))


class TestOrthant:
    """The quadrature on one orthant of the declared axes against today's
    whole-box slab sum (_unmasked_midpoint)."""

    @staticmethod
    def assert_matches_whole_box(integrand, h, n):
        # To 1e-13 of the sum of moduli, the scale of the rounding of the
        # mirrored nodes and of the sum (3e-15 of it at most measured): the
        # vdc-regime kernels cancel to 1/100 of it.
        got = midpoint(integrand, h, n)
        whole = _unmasked_midpoint(integrand, h, n)
        mass = oscint._midpoint_abs(integrand, h, n)
        assert mass == pytest.approx(
            oscint._midpoint_abs(_undeclared(integrand), h, n), rel=1e-13)
        assert abs(got - whole) <= 1e-13 * mass
        # Each declared axis was halved: no node below its centre.
        count, lows = _node_spans(integrand, h, n)
        step = (integrand.box[0][1] - integrand.box[0][0]) / n
        assert (lows > -0.25 * step).all()
        assert count <= (n - n // 2) ** integrand.d

    # Odd and even n, each with a partial last slab but at d = 1.
    @pytest.mark.parametrize("case, h, n", [
        ("dyadic-d1", 2.0 ** -12, 4000), ("dyadic-d1", 2.0 ** -12, 4001),
        ("dyadic-d2", 2.0 ** -8, 1834), ("dyadic-d2", 2.0 ** -8, 1835),
        ("dyadic-d3", 2.0 ** -5, 120), ("dyadic-d3", 2.0 ** -5, 121),
        ("resonant-d1", 2.0 ** -12, 150_000),
        ("resonant-d1", 2.0 ** -12, 150_001)])
    def test_vdc_matches_whole_box(self, case, h, n):
        self.assert_matches_whole_box(_orthant_integrand(case, h), h, n)

    @pytest.mark.parametrize("h, sep", [(2.0 ** -8, 2.0 ** -3),
                                        (2.0 ** -12, 2.0 ** -12)])
    def test_ttstar_psi_matches_whole_box(self, monkeypatch, h, sep):
        # Every psi_j of ttstar_n2's symbol x1^2, at the node count evaluate
        # takes and one more.
        a1 = parse_symbol("x1^2", dim=1)
        for j, integrand in _ttstar_integrands(monkeypatch, a1, h, sep):
            assert integrand.even == {0}, j
            n = evaluate(integrand, h).points_per_axis
            for m in (n, n + 1):
                self.assert_matches_whole_box(integrand, h, m)

    @pytest.mark.parametrize("symbol, dim, even", [
        ("x1^3", 1, set()), ("x1^2 + x1", 1, set()),
        ("x1^2 + x1*x2 - x2^4", 2, set()), ("x1^2 + x2^3", 2, {0}),
        ("x1^3 + x2^2", 2, {1}), ("x1^2 - x2^4", 2, {0, 1})])
    def test_ttstar_declares_only_even_axes(self, monkeypatch, symbol, dim,
                                            even):
        # An axis in whose variable a1 holds an odd power keeps its whole
        # axis: nodes on both sides of 0, and the whole box's bits.
        a1 = parse_symbol(symbol, dim=dim)
        h = 2.0 ** -4
        for j, integrand in _ttstar_integrands(monkeypatch, a1, h, 2.0 ** -3):
            assert integrand.even == even, j
            n = evaluate(integrand, h).points_per_axis
            _, lows = _node_spans(integrand, h, n)
            step = (integrand.box[0][1] - integrand.box[0][0]) / n
            assert [k for k in range(dim) if lows[k] > -step] == sorted(even)
            if not even:
                assert midpoint(integrand, h, n) == _unmasked_midpoint(
                    integrand, h, n)

    @pytest.mark.parametrize("box", [((-1.5, 1.5), (-1.0, 1.2)),
                                     ((-1.2, 1.0), (-1.5, 1.5))])
    def test_asymmetric_box_keeps_its_axis(self, box):
        # Declared even in both axes, an axis whose box is not symmetric
        # keeps its n nodes; the symmetric one is halved.
        h, n = 2.0 ** -6, 301
        integrand = OscIntegrand(quadratic_phase(1.0, 2),
                                 dyadic_amplitude(3, 1), 2, box,
                                 frozenset({0, 1}))
        count, lows = _node_spans(integrand, h, n)
        steps = [(hi - lo) / n for lo, hi in box]
        halved = [lo == -hi for lo, hi in box]
        assert [bool(low > -s) for low, s in zip(lows, steps)] == halved
        whole = _unmasked_midpoint(integrand, h, n)
        assert abs(midpoint(integrand, h, n) - whole) <= 1e-13 * abs(whole)
        assert midpoint(integrand, h, n) == _unmasked_midpoint(
            integrand, h, n, frozenset({halved.index(True)}))

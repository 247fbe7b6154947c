"""Oscillatory integrals: quadrature, decay verdicts, TT* kernel."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from quasilab import oscint
from quasilab.errors import ResolutionError
from quasilab.oscint import (EvalResult, OscIntegrand, bump_amplitude,
                             dyadic_amplitude, dyadic_loss                     ,
                             evaluate, find_critical_points, linear_phase,
                             power_loss, quadratic_phase, resonant_amplitude,
                             ttstar_kernel, vdc_check)
from quasilab.symbols import parse_symbol

H6 = [2.0 ** -e for e in range(6, 13)]


def unit_loss(h):
    return 1.0


class TestEvaluate:
    def test_zero_amplitude(self):
        zero = OscIntegrand(quadratic_phase(1.0, 1),
                            lambda p, h: np.zeros(p.shape[:-1]),
                            1, ((-1, 1),), unit_loss)
        assert evaluate(zero, 2.0 ** -6).value == 0

    def test_fresnel_oracle(self):
        # |int exp(i mu xi^2 / 2h) a| -> sqrt(2 pi h / mu) |a(0)|.
        mu = 2.0
        integrand = OscIntegrand(quadratic_phase(mu, 1), bump_amplitude(1.0),
                                 1, ((-1, 1),), unit_loss)
        for h in (2.0 ** -8, 2.0 ** -10):
            res = evaluate(integrand, h)
            oracle = math.sqrt(2 * math.pi * h / mu) * math.exp(-1.0)
            assert abs(res.value) == pytest.approx(oracle, rel=0.05)

    def test_linear_phase_superpolynomial(self):
        integrand = OscIntegrand(linear_phase(1), bump_amplitude(1.0),
                                 1, ((-1, 1),), unit_loss)
        hs = [2.0 ** -e for e in range(3, 8)]
        mags = [abs(evaluate(integrand, h).value) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(mags), 1)[0]
        assert slope >= 3.0

    def test_amplitude_linearity(self):
        phase = quadratic_phase(1.0, 1)
        a1 = bump_amplitude(1.0)
        a2 = bump_amplitude(0.5)
        combo = OscIntegrand(phase, lambda p, h: 2 * a1(p, h) - 3 * a2(p, h),
                             1, ((-1, 1),), unit_loss)
        i1 = evaluate(OscIntegrand(phase, a1, 1, ((-1, 1),), unit_loss), 2.0 ** -6)
        i2 = evaluate(OscIntegrand(phase, a2, 1, ((-1, 1),), unit_loss), 2.0 ** -6)
        ic = evaluate(combo, 2.0 ** -6)
        assert ic.value == pytest.approx(2 * i1.value - 3 * i2.value, rel=1e-10)

    def test_conjugation_symmetry(self):
        phase = quadratic_phase(1.0, 1)
        neg = OscIntegrand(lambda p: -phase(p), bump_amplitude(1.0),
                           1, ((-1, 1),), unit_loss)
        pos = OscIntegrand(phase, bump_amplitude(1.0), 1, ((-1, 1),), unit_loss)
        h = 2.0 ** -7
        assert evaluate(neg, h).value == pytest.approx(
            np.conj(evaluate(pos, h).value), rel=1e-12)

    def test_refuses_underresolved(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 1), bump_amplitude(1.0),
                                 1, ((-100, 100),), unit_loss)
        with pytest.raises(ResolutionError):
            evaluate(integrand, 2.0 ** -12, max_points_per_axis=4096)

    def test_error_estimate_reported(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 1), bump_amplitude(1.0),
                                 1, ((-1, 1),), unit_loss)
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
                                 d, ((-1.0, 1.2),) * d, unit_loss)
        axes = [-1.0 + (np.arange(n) + 0.5) * (2.2 / n)] * d
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        cell = (2.2 / n) ** d
        vals = np.exp(1j * integrand.phase(pts) / h) * integrand.amplitude(pts, h)
        whole = complex(np.sum(vals) * cell)
        assert abs(oscint._midpoint(integrand, h, n) - whole) <= 1e-13 * abs(whole)
        mass = float(np.sum(np.abs(integrand.amplitude(pts, h))) * cell)
        assert oscint._midpoint_abs(integrand, h, n) == pytest.approx(mass, rel=1e-13)

    def test_memory_bounded(self):
        # The vdc_d2 integrand at its finest h: 1834^2 quadrature points.
        integrand = OscIntegrand(quadratic_phase(1.0, 2), dyadic_amplitude(3, 1),
                                 2, ((-1.5, 1.5),) * 2, dyadic_loss(3, 1))
        tracemalloc.start()
        try:
            res = evaluate(integrand, 2.0 ** -8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.points_per_axis == 1834
        assert peak <= 32 * 2 ** 20


class TestCriticalPoints:
    def test_unique_quadratic(self):
        pts = find_critical_points(quadratic_phase(1.0, 2), ((-1, 1), (-1, 1)), 2)
        assert len(pts) == 1 and np.linalg.norm(pts[0]) < 1e-8

    def test_multiple_points_refused(self):
        def phase(p):
            xi = np.asarray(p, float)[..., 0]
            return (xi ** 2 - 1.0) ** 2

        integrand = OscIntegrand(phase, bump_amplitude(2.0), 1,
                                 ((-1.5, 1.5),), unit_loss)
        rep = vdc_check(integrand, H6[:5], 1.0)
        assert rep.verdict == "REFUSED"
        assert "critical point" in rep.reason


class TestVdcCheck:
    def test_dyadic_amplitude_passes(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 1), dyadic_amplitude(3, 2),
                                 1, ((-1.5, 1.5),), dyadic_loss(3, 2))
        rep = vdc_check(integrand, H6, 1.0)
        assert rep.verdict == "PASS"
        assert abs(rep.fitted_exponent - 0.5) <= 0.1

    def test_two_dimensional_radial(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 2), dyadic_amplitude(3, 1),
                                 2, ((-1.5, 1.5), (-1.5, 1.5)), dyadic_loss(3, 1))
        rep = vdc_check(integrand, [2.0 ** -e for e in range(3, 9)], 1.0)
        assert rep.verdict == "PASS"
        assert abs(rep.fitted_exponent - 1.0) <= 0.1

    def test_resonant_amplitude_degrades(self):
        phase = quadratic_phase(1.0, 1)
        integrand = OscIntegrand(phase, resonant_amplitude(phase, 0.8),
                                 1, ((-1, 1),), power_loss(0.8))
        rep = vdc_check(integrand, H6, 1.0)
        assert rep.verdict == "FAIL"
        assert not rep.admissible
        assert rep.fitted_exponent < 0.4

    def test_randomized_nondegenerate_family(self):
        # Random anisotropic quadratic phases with admissible bump
        # amplitudes all obey the d/2 law.
        rng = np.random.default_rng(31)
        for trial in range(10):
            d = 1 if trial % 2 == 0 else 2
            eigs = rng.uniform(0.5, 2.0, size=d)
            signs = rng.choice([-1.0, 1.0], size=d)
            shift = rng.uniform(-0.2, 0.2, size=d)

            def phase(p, eigs=eigs, signs=signs, shift=shift):
                q = np.asarray(p, float) - shift
                return 0.5 * np.sum(signs * eigs * q * q, axis=-1)

            mu = float(np.min(eigs))
            integrand = OscIntegrand(phase, bump_amplitude(1.0), d,
                                     ((-1.2, 1.2),) * d, unit_loss)
            hs = [2.0 ** -e for e in range(4, 9)]
            rep = vdc_check(integrand, hs, mu, exponent_tolerance=0.15)
            assert rep.verdict == "PASS", rep.reason

    def test_zero_magnitudes_still_fit(self):
        # |I| = 0 at every h is floored before the log, so the fit runs and
        # the verdict fails instead of raising.
        zero = OscIntegrand(quadratic_phase(1.0, 1),
                            lambda p, h: np.zeros(p.shape[:-1]),
                            1, ((-1, 1),), unit_loss)
        rep = vdc_check(zero, H6[:5], 1.0)
        assert rep.magnitudes == (0.0,) * 5
        assert rep.fitted_exponent == 0.0 and rep.slope_stderr == 0.0
        assert rep.verdict == "FAIL"

    def test_needs_five_points(self):
        integrand = OscIntegrand(quadratic_phase(1.0, 1), bump_amplitude(1.0),
                                 1, ((-1, 1),), unit_loss)
        with pytest.raises(ValueError):
            vdc_check(integrand, [0.5, 0.25, 0.125], 1.0)


class TestTTStar:
    @pytest.fixture()
    def setup(self, mother_wavelet):
        return parse_symbol("x1^2", dim=1), mother_wavelet

    def test_disjoint_windows_vanish(self, setup):
        a1, w = setup
        kv = ttstar_kernel(a1, w, 0.5, 0, 2.0 ** -8, 3,
                           x1=1.25, z1=-1.25, xbar=[0.0], zbar=[0.0])
        assert kv.value == 0.0 and kv.b_overlap == 0.0

    def test_vdc_regime_bounded(self, setup):
        a1, w = setup
        sep = 2.0 ** -3
        ratios = []
        for h in (2.0 ** -8, 2.0 ** -10, 2.0 ** -12):
            kv = ttstar_kernel(a1, w, 0.5, 0, h, 3, x1=sep / 2, z1=-sep / 2,
                               xbar=[0.0], zbar=[0.0])
            ratios.append(abs(kv.value) * h ** 0.5 * sep ** 0.5 / 0.5)
        assert max(ratios) / min(ratios) < 4.0

    def test_trivial_regime_bound_holds(self, setup):
        a1, w = setup
        for h in (2.0 ** -8, 2.0 ** -10):
            kv = ttstar_kernel(a1, w, 0.5, 0, h, 3, x1=h / 2, z1=-h / 2,
                               xbar=[0.0], zbar=[0.0])
            assert abs(kv.value) <= kv.trivial_bound * (1 + 1e-9)
            scale = 0.5 * h ** -0.75  # |a| h^(-(n-1)(1-1/(k+1))), n=2, k=3
            assert abs(kv.value) <= scale

"""Acceptance gate: one check per headline criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s) and then
asserts, so the suite both reports and enforces.  Tolerances are pinned
here, not configurable.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

from quasilab import families
from quasilab.analysis import (INF_P, BlockNorms, contact_delta, fit_scaling,
                               oscillation_axes, sogge_delta)
from quasilab.cli import main
from quasilab.experiments import (EXIT_CONFIG, EXIT_OK, EXIT_REFUSED,
                                  EXIT_VERDICT_FAIL)
from quasilab.fio import flattening_reports, x1_axis
from quasilab.grids import AxisSpec, cell_volume
from quasilab.oscint import (OscIntegrand, dyadic_amplitude, quadratic_phase,
                             resonant_amplitude, ttstar_kernel, vdc_check)
from quasilab.quasimode import (build_cutoff, synthesize_on_axes,
                                verify_joint_quasimode)
from quasilab.symbols import (mixed_partials_check, contact_profile, graph_factor,
                              parse_symbol, sample_directions)
from quasilab.wavelets import decay_diagnostic

from oracles import (GridField, dual_axis, ft_axes, l2_norm,
                     plane_vs_bowl_graphs, synthesize_at, synthesize_grid,
                     transform_quasimode)

F = Fraction


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def bar(p):
    return graph_factor(p).a


class TestCriterion1Exponents:
    def test_exponent_formulas(self):
        points = [
            (2, 2, 1, F(0)), (2, 6, 1, F(1, 6)), (2, INF_P, 1, F(1, 4)),
            (2, INF_P, 3, F(3, 8)), (2, 8, 1, F(3, 16)), (2, 8, 3, F(7, 32)),
            (3, 2, 1, F(0)), (3, 4, 5, F(1, 4)), (3, INF_P, 1, F(1, 2)),
            (3, INF_P, 3, F(3, 4)), (3, 8, 3, F(1, 2)), (4, INF_P, 1, F(3, 4)),
            (4, F(10, 3), 3, F(3, 10)), (3, 5, 3, F(7, 20)), (2, 4, 7, F(1, 8)),
        ]
        mismatches = [pt for pt in points
                      if contact_delta(pt[0], pt[1], pt[2]) != pt[3]]
        kink_exact = True
        low_branch_match = True
        for n in (2, 3, 4):
            p0 = F(2 * (n + 1), n - 1)
            for k in (1, 3, 5):
                low = F(n - 1, 4) - F(n - 1, 2) / p0
                kink_exact &= contact_delta(n, p0, k) == low
                for i in range(8):
                    p = 2 + (p0 - 2) * F(i, 7)
                    low_branch_match &= (contact_delta(n, p, k)
                                         == sogge_delta(n, p))
        ok = (not mismatches and kink_exact and low_branch_match
              and contact_delta(3, INF_P, 1) == F(1, 2))
        report("criterion 1 (exponent formulas)", ok,
               f"{len(points)} hand-evaluated points exact, kink agreement "
               f"exact, low branch equals the unconditional exponent")


class TestCriterion2Contact:
    def test_contact_geometry(self):
        ok = True
        details = []
        for n in (2, 3):
            for k in (1, 3, 5):
                p1, p2 = families.paraboloid_pair(n, k)
                prof = contact_profile(bar(p1), bar(p2),
                                       sample_directions(n - 1, 64), 32)
                uniform_k = prof.uniform and set(prof.orders()) == {k}
                claim = mixed_partials_check(bar(p1), bar(p2), k).ok
                past = not mixed_partials_check(bar(p1), bar(p2), k + 1).ok
                ok &= uniform_k and claim and past
                details.append(f"n={n},k={k}:{'ok' if uniform_k else 'BAD'}")
        a1, a2 = plane_vs_bowl_graphs()
        prof = contact_profile(a1, a2, sample_directions(2, 64), 32)
        orders = {tuple(r.direction): r.order for r in prof.reports}
        on_axis = {o for d, o in orders.items() if d[0] == 0}
        off_axis = {o for d, o in orders.items() if d[0] != 0}
        split_ok = on_axis == {5} and off_axis == {1} and not prof.uniform
        ok &= split_ok
        report("criterion 2 (contact geometry)", ok,
               f"uniform pairs {details}; surface pair orders "
               f"off-axis={sorted(off_axis)}, on-axis={sorted(on_axis)}")


CUTOFFS_C3 = [
    ("large-p pair n=2 k=3", lambda: families.paraboloid_cutoff(2, 3), 2.0 ** -6),
    ("slab pair n=3", lambda: families.slab_cutoff(3, 3), 2.0 ** -5),
    ("axis pair k=3", lambda: families.axis_contact_cutoff(3), 2.0 ** -6),
    ("valley pair", lambda: families.valley_cutoff(), 2.0 ** -6),
]


class TestCriterion3QuasimodeExactness:
    def test_normalization_peak_and_ratios(self):
        worst_t0 = 0.0
        worst_ratio = 0.0
        for name, spec_fn, h in CUTOFFS_C3:
            cut = build_cutoff(spec_fn(), h)
            t0 = abs(abs(synthesize_at(cut, np.zeros((1, cut.dim)))[0])
                     - cut.peak())
            worst_t0 = max(worst_t0, t0 / cut.peak())
            worst_ratio = max(worst_ratio,
                              float(verify_joint_quasimode(cut, 3).max()))
        # Measured normalization: on the dual grid of a power-of-two cutoff
        # grid the synthesis is a unitary DFT of chi / ||chi||_2.
        h = 2.0 ** -6
        cut = build_cutoff(families.paraboloid_cutoff(2, 3, pow2=True), h)
        u = synthesize_grid(cut, [dual_axis(a, h) for a in cut.axes])
        norm_err = abs(l2_norm(u) - 1.0)
        ok = (worst_t0 <= 1e-10 and worst_ratio <= 1.0 + 1.0 / 16.0
              and norm_err <= 1e-12)
        report("criterion 3 (quasimode exactness)", ok,
               f"peak identity rel err {worst_t0:.2e} <= 1e-10; "
               f"max joint ratio {worst_ratio:.6f} <= 1 + 1/16; "
               f"Parseval norm err {norm_err:.1e} <= 1e-12")


class TestCriterion4Volumes:
    def test_volume_bands(self):
        hs = [2.0 ** -e for e in range(4, 13)]
        cases = [
            ("large-p n=2 k=1", families.paraboloid_cutoff(2, 1), 1 + 1 / 2),
            ("large-p n=3 k=3", families.paraboloid_cutoff(3, 3), 1 + 2 / 4),
            ("slab n=3", families.slab_cutoff(3, 3), 1 + 1.0),
            ("axis k=3", families.axis_contact_cutoff(3), 1 + 1 / 2 + 1 / 4),
            ("valley", families.valley_cutoff(), 1 + 1 / 2 + 1 / 20),
        ]
        bands = {}
        for name, spec, gamma in cases:
            ratios = [build_cutoff(spec, h).volume() / h ** gamma
                      for h in hs]
            bands[name] = max(ratios) / min(ratios)
        ok = all(b <= 4.0 for b in bands.values())
        report("criterion 4 (volume scaling)", ok,
               "factor-4 bands over h in 2^-4..2^-12: " +
               ", ".join(f"{k}={v:.3f}" for k, v in bands.items()))


def _lp_sweep(spec, hs, ps, dim, margin=8.0, points_per_scale=8):
    """Per p, the norms over hs as the sweep runner takes them: block by
    block as the synthesis makes the grid."""
    norms = {p: [] for p in ps}
    for h in hs:
        cut = build_cutoff(spec, h)
        exts = [cut.extent(i) for i in range(dim)]
        axes = oscillation_axes(exts, h, margin, points_per_scale)
        sums = BlockNorms([a.points for a in axes], cell_volume(axes),
                          [p for p in ps if p != 2])
        synthesize_on_axes(cut, axes, sums.add)
        measured = {m.p: m.value for m in sums.norms()}
        for p in ps:
            # p = 2 is the exact frequency-side normalization.
            norms[p].append(measured.get(p, 1.0))
    return norms


class TestCriterion5Sharpness:
    def test_fitted_slopes(self):
        hs = [2.0 ** -e for e in range(4, 11)]
        lines = []
        ok = True
        for k in (1, 3):
            norms = _lp_sweep(families.paraboloid_cutoff(2, k), hs,
                              [INF_P, 8], 2)
            for p in (INF_P, 8):
                predicted = -float(contact_delta(2, p, k))
                rep = fit_scaling(hs, norms[p], predicted, 0.1)
                ok &= rep.passed
                lines.append(f"k={k},p={'inf' if p is INF_P else p}:"
                             f"{rep.slope:+.4f} vs {predicted:+.4f}")
        norms = _lp_sweep(families.slab_cutoff(2, 3), hs, [2, 4, 6], 2)
        for p in (2, 4, 6):
            predicted = -0.5 * (0.5 - 1.0 / p)
            rep = fit_scaling(hs, norms[p], predicted, 0.1)
            ok &= rep.passed
            lines.append(f"slab p={p}:{rep.slope:+.4f} vs {predicted:+.4f}")
        # n = 4, k = 3 on 32^4 grids (margin 4, 4 points per scale), as in
        # configs/lp_n4_paraboloid_k3.cfg.
        hs4 = [2.0 ** -e for e in range(5, 10)]
        norms = _lp_sweep(families.paraboloid_cutoff(4, 3), hs4, [INF_P, 8, 6],
                          4, margin=4.0, points_per_scale=4)
        for p in (INF_P, 8, 6):
            predicted = -float(contact_delta(4, p, 3))
            rep = fit_scaling(hs4, norms[p], predicted, 0.1)
            ok &= rep.passed
            lines.append(f"n=4,k=3,p={'inf' if p is INF_P else p}:"
                         f"{rep.slope:+.4f} vs {predicted:+.4f}")
        hs12 = [2.0 ** -e for e in range(4, 13)]
        peaks = [build_cutoff(families.valley_cutoff(), h).peak()
                 for h in hs12]
        predicted = -(3.0 / 4.0 - 1.0 / 40.0)
        rep = fit_scaling(hs12, peaks, predicted, 0.1)
        ok &= rep.passed
        lines.append(f"valley peak:{rep.slope:+.4f} vs {predicted:+.4f}")
        report("criterion 5 (sharpness slopes)", ok, "; ".join(lines))


class TestCriterion6Flattening:
    def test_unitarity_quasimode_and_transported_symbol(self):
        rng = np.random.default_rng(41)
        axes = [AxisSpec(0.0, 1.0, 8), AxisSpec(0.0, 2.0, 256)]
        field = GridField(2.0 ** -5, axes, rng.standard_normal((8, 256))
                          + 1j * rng.standard_normal((8, 256)))
        a1 = bar(families.paraboloid_pair(2, 1)[0])
        w = transform_quasimode(a1, field)
        unit_err = abs(l2_norm(w) - l2_norm(field)) / l2_norm(field)
        back = transform_quasimode(-a1, w)
        inv_err = np.abs(back.data - field.data).max() / np.abs(field.data).max()

        ratio_ok = True
        ratios = []
        for h in (2.0 ** -4, 2.0 ** -5):
            cut = build_cutoff(families.paraboloid_cutoff(2, 1, pow2=True), h)
            for rep in flattening_reports(a1, cut, x1_axis(8.0, h / 8),
                                          (1, 2)):
                ratio_ok &= rep.ratio <= 1.0 + rep.slack
                ratios.append(f"h={h},M={rep.order}:{rep.ratio:.3f}")

        p1, p2 = families.paraboloid_pair(2, 3)
        e1 = bar(p1) - bar(p2) == parse_symbol("x1^4", dim=1)
        q1, q2 = families.valley_pair()
        x2, x3 = parse_symbol("x1", dim=2), parse_symbol("x2", dim=2)
        e2 = bar(q1) - bar(q2) == (x2 - x3 ** 2) ** 2 + x2 ** 10
        ok = unit_err < 1e-12 and inv_err < 1e-12 and ratio_ok and e1 and e2
        report("criterion 6 (flattening/transport)", ok,
               f"unitarity {unit_err:.1e}, inverse {inv_err:.1e}, "
               f"x1-quasimode ratios {ratios}, transported symbols exact")


class TestCriterion7WaveletDecay:
    def test_flat_model_diagnostic(self, flat_model):
        diag = decay_diagnostic(*flat_model, 1, 3)
        worst_j = max((r for _, r in diag.j_ratios), default=0.0)
        ok = (diag.small_a_slope >= 1.4
              and abs(diag.large_a_slope) <= 0.1
              and worst_j <= 2.0 ** -4)
        report("criterion 7 (wavelet decay)", ok,
               f"a-exponents: small {diag.small_a_slope:.3f} >= 1.4, "
               f"large {diag.large_a_slope:+.3f} in [-0.1, 0.1]; "
               f"j-ratio {worst_j:.4f} <= 2^-4")


class TestCriterion8VanDerCorput:
    def test_decay_and_kernel(self):
        hs = [2.0 ** -e for e in range(6, 13)]
        d1 = vdc_check(OscIntegrand(quadratic_phase(1.0, 1),
                                    dyadic_amplitude(3, 2), 1, ((-1.5, 1.5),)),
                       hs, 1.0, 0.1)
        d2 = vdc_check(OscIntegrand(quadratic_phase(1.0, 2),
                                    dyadic_amplitude(3, 1), 2,
                                    ((-1.5, 1.5),) * 2),
                       [2.0 ** -e for e in range(3, 9)], 1.0, 0.1)
        phase = quadratic_phase(1.0, 1)
        bad = vdc_check(OscIntegrand(phase, resonant_amplitude(phase, 0.8),
                                     1, ((-1.0, 1.0),)),
                        hs, 1.0, 0.1)
        a1 = parse_symbol("x1^2", dim=1)
        sep = 2.0 ** -3
        r_osc, r_triv = [], []
        for h in [2.0 ** -e for e in range(8, 13)]:
            kv = ttstar_kernel(a1, 0.5, 0, h, 3, sep)
            r_osc.append(abs(kv.value) * h ** 0.5 * sep ** 0.5 / 0.5)
            kv2 = ttstar_kernel(a1, 0.5, 0, h, 3, h)
            r_triv.append(abs(kv2.value) / (0.5 * h ** -0.75))
        band_osc = max(r_osc) / min(r_osc)
        band_triv = max(r_triv) / min(r_triv)
        ok = (d1.verdict == "PASS" and abs(d1.fitted_exponent - 0.5) <= 0.1
              and d2.verdict == "PASS" and abs(d2.fitted_exponent - 1.0) <= 0.1
              and bad.verdict == "FAIL" and bad.fitted_exponent < 0.4
              and band_osc <= 4.0 and band_triv <= 4.0)
        report("criterion 8 (stationary-phase bound)", ok,
               f"d=1 slope {d1.fitted_exponent:.3f}, d=2 slope "
               f"{d2.fitted_exponent:.3f}, inadmissible slope "
               f"{bad.fitted_exponent:.3f} < 0.4; kernel bands "
               f"osc {band_osc:.2f}, trivial {band_triv:.2f} <= 4")


class TestCriterion9Infrastructure:
    def test_determinism_exit_codes_and_properties(
            self, tmp_path, reconstruction_error):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("""
[experiment]
id = det-check
kind = sharpness-sweep
seed = 99

[params]
family = paraboloid
n = 2
k = 1
h_start = 2^-4
h_stop = 2^-8
p_list = inf
joint_orders = 1
""")
        assert main(["run", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["run", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
        identical = ((tmp_path / "a" / "sweep.csv").read_bytes()
                     == (tmp_path / "b" / "sweep.csv").read_bytes())
        identical &= ((tmp_path / "a" / "report.json").read_bytes()
                      == (tmp_path / "b" / "report.json").read_bytes())

        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text(cfg.read_text().replace("p_list = inf",
                                                   "p_list = 1"))
        code2 = main(["run", str(bad_cfg)]) == EXIT_CONFIG

        fail_cfg = tmp_path / "fail.cfg"
        fail_cfg.write_text("""
[experiment]
id = fail-check
kind = contact-profile
seed = 99

[params]
n = 3
k = 3
family = paraboloid
expect_uniform = false
expect_orders = 3
""")
        code1 = main(["run", str(fail_cfg),
                      "--out", str(tmp_path / "f")]) == EXIT_VERDICT_FAIL

        refuse_cfg = tmp_path / "refuse.cfg"
        refuse_cfg.write_text("""
[experiment]
id = refuse-check
kind = vdc
seed = 99

[params]
d = 1
mu = 1
amplitude = dyadic
k = 3
j = 0
box_half_width = 400
h_start = 2^-8
h_stop = 2^-12
expect = pass
""")
        code3 = main(["run", str(refuse_cfg),
                      "--out", str(tmp_path / "r")]) == EXIT_REFUSED

        # Property basket: linearity, Parseval, translation covariance,
        # reconstruction.
        rng = np.random.default_rng(43)
        ax = AxisSpec(0.0, 1.0, 128)
        f1 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        f2 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        h = 2.0 ** -5
        ft = lambda d: ft_axes(d[None], [ax], h)
        lin = np.abs(ft(2 * f1 - 1j * f2)[0]
                     - (2 * ft(f1)[0] - 1j * ft(f2)[0])).max() < 1e-12
        hat, duals = ft(f1)
        parseval = abs(np.sqrt(np.sum(np.abs(hat) ** 2) * cell_volume(duals))
                       - l2_norm(GridField(h, [ax], f1))) < 1e-10

        cut = build_cutoff(families.paraboloid_cutoff(2, 1), h)
        shifted = dataclasses.replace(cut, col_start=cut.col_start + 5)
        targets = rng.standard_normal((16, 2))
        base = synthesize_at(cut, targets)
        moved = synthesize_at(shifted, targets)
        phase = np.exp(1j * targets[:, 0] * 5 * cut.axes[0].spacing / h)
        covariant = np.abs(moved - base * phase).max() <= 1e-10 * np.abs(base).max()

        ok = (identical and code1 and code2 and code3 and lin and parseval
              and covariant and reconstruction_error < 1e-3)
        report("criterion 9 (infrastructure)", ok,
               f"bit-identical reruns {identical}; exit codes 1/2/3 "
               f"{code1}/{code2}/{code3}; linearity {lin}, parseval "
               f"{parseval}, covariance {covariant}, reconstruction "
               f"{reconstruction_error:.2e} < 1e-3")

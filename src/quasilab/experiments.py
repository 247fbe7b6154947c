"""Config-driven experiments binding the toolkit together.

Experiments parse from flat INI-style files (sections of key = value, no
code execution), run deterministic sweeps, and write one machine-readable
report.json plus per-table CSVs (floats at 17 significant digits, fixed
row order, fixed reduction order) so identical configs give bit-identical
outputs.  Every verdict carries (measured, predicted, tolerance).
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import families
from .analysis import (INF_P, MIN_SWEEP_POINTS, contact_delta, delta_curve,
                       fit_scaling, lp_norms, oscillation_axes, parse_p,
                       sogge_delta)
from .errors import ConfigError, QuasilabError
from .fio import (FlatteningOp, aligned_position_axes, flattening_reports)
from .oscint import (OscIntegrand, dyadic_amplitude, dyadic_loss,
                     quadratic_phase, resonant_amplitude, power_loss,
                     ttstar_kernel, vdc_check)
from .quasimode import (MAX_GRID_CELLS, Quasimode, build_cutoff,
                        support_volume, verify_joint_quasimode)
from .symbols import (mixed_partials_check, contact_profile, curvature_check,
                      graph_factor, parse_symbol, sample_directions)
from .wavelets import decay_diagnostic, make_mother_wavelet

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4


def fmt(x) -> str:
    """Canonical float text: 17 significant digits, reproducible."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is INF_P or (isinstance(x, float) and math.isinf(x)):
        return "inf"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return f"{fmt(x.real)}+{fmt(x.imag)}i"
    return "%.17g" % float(x)


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


@dataclass
class Verdict:
    name: str
    measured: float | str
    predicted: float | str
    tolerance: float | str
    passed: bool

    def row(self):
        return (self.name, self.measured, self.predicted, self.tolerance,
                self.passed)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.name}: measured={fmt(self.measured)} "
                f"predicted={fmt(self.predicted)} tol={fmt(self.tolerance)}")


@dataclass
class RunResult:
    experiment_id: str
    kind: str
    verdicts: list[Verdict]
    tables: dict[str, Path]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# -- config handling ---------------------------------------------------------------

def _num(text: str) -> float:
    """Numbers in configs: plain floats, a/b fractions, and 2^e powers."""
    text = text.strip()
    if text in ("inf", "oo"):
        return math.inf
    try:
        if "^" in text:
            base, exp = text.split("^")
            value = float(base) ** float(exp)
            if isinstance(value, complex):   # negative base, fractional power
                raise ValueError(text)
            return value
        if "/" in text:
            num, den = text.split("/")
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"malformed number {text!r}") from None


def _num_list(text: str) -> list[float]:
    return [_num(t) for t in text.split(",") if t.strip()]


def _p_values(text: str) -> list:
    return [parse_p(t.strip()) for t in text.split(",") if t.strip()]


@dataclass
class ExperimentConfig:
    """Validated experiment description (flat key-value sections)."""

    experiment_id: str
    kind: str
    seed: int
    params: dict[str, str]
    symbols: dict[str, str]
    tolerances: dict[str, str]
    out: str | None = None
    path: str | None = None

    def param(self, key: str, default=None):
        if key in self.params:
            return self.params[key]
        if default is None:
            raise ConfigError(f"missing parameter {key!r} for {self.kind}")
        return default

    def tol(self, key: str, default: float) -> float:
        if key in self.tolerances:
            return _num(self.tolerances[key])
        return default

    def family(self) -> families.Family:
        """The cutoff family record; an n it contradicts is a config error."""
        name = self.param("family", "paraboloid")
        fam = families.CUTOFF_FAMILIES[name]
        n = self.params.get("n")
        if fam.dim is not None and n and _num(n) != fam.dim:
            raise ConfigError(f"n = {self.params['n']} contradicts family "
                              f"{name!r}, which is {fam.dim}-dimensional")
        return fam

    def h_sweep(self) -> list[float]:
        if "h_list" in self.params:
            hs = _num_list(self.params["h_list"])
        else:
            start = _num(self.param("h_start"))
            stop = _num(self.param("h_stop"))
            if not 0 < stop <= start <= 1:
                raise ConfigError("need 0 < h_stop <= h_start <= 1")
            hs = []
            h = start
            while h >= stop * (1 - 1e-12):
                hs.append(h)
                h /= 2.0
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ConfigError("h sweep must be strictly decreasing")
        if any(not 0 < h <= 1 for h in hs):
            raise ConfigError("h values must lie in (0, 1]")
        return hs

    def p_list(self) -> list:
        ps = _p_values(self.params.get("p_list", ""))
        for p in ps:
            if p is not INF_P and p < 2:
                raise ConfigError(f"every p must be >= 2, got {p}")
        return ps


def parse_config(path: str | Path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from None
    if not read:
        raise ConfigError(f"cannot read config {path}")
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    kind = exp.get("kind", "").strip()
    if kind not in RUNNERS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; expected one of {sorted(RUNNERS)}")
    try:
        seed = int(exp.get("seed", "1234"))
    except ValueError as err:
        raise ConfigError(f"seed must be an integer: {err}") from None
    cfg = ExperimentConfig(
        experiment_id=exp.get("id", kind).strip(),
        kind=kind,
        seed=seed,
        params=dict(parser["params"]) if "params" in parser else {},
        symbols=dict(parser["symbols"]) if "symbols" in parser else {},
        tolerances=dict(parser["tolerances"]) if "tolerances" in parser else {},
        out=exp.get("out", "").strip() or None,
        path=str(path),
    )
    _validate(cfg)
    return cfg


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _choice(*options: str) -> tuple[str, Callable[[str], str]]:
    def check(text: str) -> str:
        if text not in options:
            raise ValueError(text)
        return text
    return f"one of {', '.join(options)}", check


_INT = ("an integer", int)
_INT_LIST = ("a list of integers", _int_list)
_NUMBER = ("a number", _num)
_BOOL = _choice("true", "false")


def _at_least(low: int) -> tuple:
    return (*_INT, (f">= {low}", lambda v: v >= low))


_POSITIVE = (*_NUMBER, ("positive and finite", lambda v: 0 < v < math.inf))

# Every [params] key some runner reads, with what its value must be, the
# parser that checks it and, for some keys, a bound (its text and its test)
# outside which a runner's own calls raise.  parse_config runs each check, so
# a bad value or an unknown key names itself before any output is written.
_PARAM_CHECKS: dict[str, tuple] = {
    **dict.fromkeys(("j", "points_per_scale", "cells_per_band", "m_order",
                     "directions"), _INT),
    "n": _at_least(2),
    **dict.fromkeys(("k", "d", "max_order"), _at_least(1)),
    "joint_orders": _at_least(0),
    "invp_points": _at_least(2),
    "k_list": (*_INT_LIST,
               ("a list of integers >= 1", lambda ks: min(ks) >= 1)),
    **dict.fromkeys(("orders", "expect_orders"), _INT_LIST),
    **dict.fromkeys(("h_start", "h_stop", "margin", "beta", "box_half_width",
                     "degraded_below"), _NUMBER),
    "h": (*_NUMBER, ("in (0, 1]", lambda v: 0 < v <= 1)),
    **dict.fromkeys(("mu", "a", "separation", "x1_half_width", "x1_spacing"),
                    _POSITIVE),
    "h_list": ("a list of numbers", _num_list),
    "p_list": ("a list of exponents", _p_values),
    **dict.fromkeys(("peak_only", "check_peak_slope", "expect_uniform"), _BOOL),
    "family": _choice(*families.CUTOFF_FAMILIES),
    "amplitude": _choice("dyadic", "resonant"),
    "expect": _choice("pass", "fail"),
}
# Every [tolerances] key some runner reads; each value is a number.
_TOLERANCE_CHECKS = dict.fromkeys(
    ("volume_band", "joint_slack", "slope", "slope_p2", "small_a_min",
     "large_a_abs", "exponent", "band"), _NUMBER)


def _check_values(section: str, values: dict[str, str], checks: dict) -> None:
    for key, text in values.items():
        if key not in checks:
            raise ConfigError(f"[{section}] key {key!r} is read by no "
                              "experiment kind")
        what, parse, *bound = checks[key]
        try:
            value = parse(text)
        except (ValueError, ArithmeticError):
            value = []
        if value == []:   # an empty list is no value
            raise ConfigError(f"{key} must be {what}, got {text!r}")
        for limit, ok in bound:
            if not ok(value):
                raise ConfigError(f"{key} must be {limit}, got {text!r}")


def _pair_family(cfg: ExperimentConfig) -> str | None:
    """The family whose symbol pair the run builds from n and k, if any."""
    if cfg.kind == "sharpness-sweep" or (
            cfg.kind == "contact-profile"
            and not ("p1" in cfg.symbols and "p2" in cfg.symbols)):
        return cfg.param("family", "paraboloid")
    return {"wavelet-diagnostic": "flat",
            "fio-check": "paraboloid"}.get(cfg.kind)


def _validate(cfg: ExperimentConfig) -> None:
    _check_values("params", cfg.params, _PARAM_CHECKS)
    _check_values("tolerances", cfg.tolerances, _TOLERANCE_CHECKS)
    n = int(cfg.params.get("n", "0"))
    family = _pair_family(cfg)
    if (family and families.CUTOFF_FAMILIES[family].odd_k
            and int(cfg.params.get("k", "1")) % 2 == 0):
        raise ConfigError(f"k = {cfg.params['k']}: family {family!r} needs "
                          "an odd k")
    for name, text in cfg.symbols.items():
        try:
            parse_symbol(text, dim=n or None)
        except QuasilabError as err:
            raise ConfigError(f"symbol {name!r} does not parse: {err}") from None
    ps = cfg.p_list()
    if cfg.kind == "sharpness-sweep":
        fam = cfg.family()
        if ps and cfg.param("peak_only", "false") != "true":
            if fam.slope is None:
                raise ConfigError(f"family {cfg.params['family']!r} predicts "
                                  "no Lp slope; drop p_list or set "
                                  "peak_only = true")
            if fam.p_min is not None and n >= 2:
                p0 = fam.p_min(n)
                low = [p for p in ps if p is not INF_P and p < p0]
                if low:
                    raise ConfigError(
                        f"p_list has p = {', '.join(map(str, low))} below "
                        f"p0 = {p0}, the least p at which family "
                        f"{cfg.param('family', 'paraboloid')!r} predicts an "
                        f"Lp slope at n = {n}; drop those p or set "
                        "peak_only = true")
            _check_sweep_grid(cfg, n)
    if cfg.kind in ("sharpness-sweep", "vdc"):
        # Both kinds fit slopes over the h sweep.
        hs = cfg.h_sweep()
        if len(hs) < MIN_SWEEP_POINTS:
            keys = "h_list" if "h_list" in cfg.params else "h_start/h_stop"
            raise ConfigError(
                f"{keys} gives {len(hs)} h value(s); a {cfg.kind} fits "
                f"slopes and needs at least {MIN_SWEEP_POINTS}")
    elif "h_start" in cfg.params or "h_list" in cfg.params:
        cfg.h_sweep()


def _check_sweep_grid(cfg: ExperimentConfig, n: int) -> None:
    """An Lp sweep's position grid must fit the synthesis cell budget."""
    margin = _num(cfg.param("margin", "8"))
    if not 0 < margin < math.inf:
        raise ConfigError(f"margin must be a positive number, got {margin}")
    axes = oscillation_axes([1.0] * n, 1.0, margin,
                            int(cfg.param("points_per_scale", "8")))
    cells = math.prod(a.points for a in axes)
    if cells > MAX_GRID_CELLS:
        raise ConfigError(
            f"an Lp sweep at n = {n} synthesizes on a grid of "
            f"{'x'.join(str(a.points) for a in axes)} = {cells} cells, over "
            f"the budget of {MAX_GRID_CELLS} (2^24); lower n, margin or "
            "points_per_scale, or set peak_only = true")


# -- experiment runners --------------------------------------------------------------

def run_delta_curves(cfg: ExperimentConfig, outdir: Path) -> RunResult:
    n = int(cfg.param("n", "3"))
    k_list = _int_list(cfg.param("k_list", "1,3,5"))
    points = int(cfg.param("invp_points", "25"))
    inv_p = [Fraction(i, 2 * (points - 1)) for i in range(points)]
    rows = []
    for k in k_list:
        for fam_name, nn, p, kk, val in delta_curve("contact", n, k, inv_p):
            rows.append((fam_name, nn, p, kk, float(val)))
    for fam_name, nn, p, kk, val in delta_curve("sogge", n, None, inv_p):
        rows.append((fam_name, nn, p, "", float(val)))
    table = outdir / "delta_curves.csv"
    write_csv(table, ("family", "n", "p", "k", "delta"), rows)

    verdicts = []
    p0 = Fraction(2 * (n + 1), n - 1)
    kink_gap = max(abs(contact_delta(n, p0, k)
                       - (Fraction(n - 1, 4) - Fraction(n - 1, 2) / p0))
                   for k in k_list)
    verdicts.append(Verdict("kink-continuity-exact", float(kink_gap), 0.0,
                            0.0, kink_gap == 0))
    worst = 0.0
    for k in k_list:
        for s in inv_p:
            p = INF_P if s == 0 else 1 / Fraction(s)
            gap = contact_delta(n, p, k) - sogge_delta(n, p)
            worst = max(worst, float(gap))
    verdicts.append(Verdict("contact-below-sogge", worst, 0.0, 0.0,
                            worst <= 0.0))
    return RunResult(cfg.experiment_id, cfg.kind, verdicts, {"delta_curves": table})


def run_contact_profile(cfg: ExperimentConfig, outdir: Path) -> RunResult:
    n = int(cfg.param("n", "3"))
    if "p1" in cfg.symbols and "p2" in cfg.symbols:
        p1 = parse_symbol(cfg.symbols["p1"], dim=n)
        p2 = parse_symbol(cfg.symbols["p2"], dim=n)
    else:
        p1, p2 = cfg.family().pair(n, int(cfg.param("k", "1")))
    g1, g2 = graph_factor(p1), graph_factor(p2)
    if not (g1.valid and g2.valid):
        raise ConfigError("both symbols must factor as graphs over xi1")
    max_order = int(cfg.param("max_order", "32"))
    count = int(cfg.param("directions", "64"))
    dirs = sample_directions(n - 1, count)
    profile = contact_profile(g1.a, g2.a, dirs, max_order)
    rows = []
    for rep in profile.reports:
        rows.append((";".join(str(c) for c in rep.direction),
                     "infinite" if math.isinf(rep.order) else int(rep.order),
                     "" if rep.leading_coefficient is None
                     else str(rep.leading_coefficient)))
    table = outdir / "contact_profile.csv"
    write_csv(table, ("direction", "order", "leading_coefficient"), rows)

    verdicts = []
    expect_uniform = cfg.param("expect_uniform", "true") == "true"
    verdicts.append(Verdict("uniformity", str(profile.uniform),
                            str(expect_uniform), "exact",
                            profile.uniform == expect_uniform))
    finite = sorted({o for o in profile.orders() if not math.isinf(o)})
    expect_orders = sorted(_int_list(cfg.param("expect_orders")))
    verdicts.append(Verdict("order-set", ";".join(map(str, finite)),
                            ";".join(map(str, expect_orders)), "exact",
                            finite == expect_orders))
    curv = curvature_check(g1.a)
    verdicts.append(Verdict("curvature-nondegenerate", float(curv.det), "nonzero",
                            "exact", curv.nondegenerate))
    if profile.uniform and len(finite) == 1:
        k = int(finite[0])
        c_ok = mixed_partials_check(g1.a, g2.a, k).ok
        verdicts.append(Verdict("mixed-partials-vanish", str(c_ok), "true",
                                "exact", c_ok))
    return RunResult(cfg.experiment_id, cfg.kind, verdicts,
                     {"contact_profile": table})


def _sweep_point(spec, h, ps, joint_orders, margin, pts_per_scale):
    cut = build_cutoff(spec, h)
    qm = Quasimode(cut, h)
    vol = support_volume(cut)
    origin = np.zeros((1, cut.dim))
    t0_err = abs(abs(qm.values(origin)[0]) - qm.peak()) / qm.peak()
    ratios = verify_joint_quasimode(qm, joint_orders)
    norms = {}
    if ps:
        exts = [cut.extent(i) for i in range(cut.dim)]
        axes = oscillation_axes(exts, h, margin, pts_per_scale)
        g = qm.on_axes(axes)
        # p = 2 is frequency-side Parseval: exact for the normalized cutoff.
        measured = [p for p in ps if p is INF_P or float(parse_p(p)) != 2.0]
        norms = dict.fromkeys(ps, 1.0)
        norms.update((m.p, m.value)
                     for m in lp_norms(g.data, g.cell_volume, measured))
    return {"h": h, "volume": vol, "peak": qm.peak(), "t0_err": t0_err,
            "ratios": ratios, "norms": norms}


def run_sharpness(cfg: ExperimentConfig, outdir: Path) -> RunResult:
    fam = cfg.family()
    n = int(cfg.param("n", "0") or 0)
    k = int(cfg.param("k", "1"))
    spec = fam.cutoff(n, k, int(cfg.param("cells_per_band",
                                          families.CELLS_PER_BAND)))
    hs = cfg.h_sweep()
    ps = cfg.p_list()
    joint_orders = int(cfg.param("joint_orders", "3"))
    margin = _num(cfg.param("margin", "8"))
    pts_per_scale = int(cfg.param("points_per_scale", "8"))
    peak_only = cfg.param("peak_only", "false") == "true"
    if peak_only:
        ps = []
    results = [_sweep_point(spec, h, ps, joint_orders, margin, pts_per_scale)
               for h in hs]

    gamma = fam.gamma(n, k)
    header = ["h", "volume", "volume_ratio", "peak", "t0_rel_err",
              "joint_ratio_max"]
    header += [f"norm_p{p if p is not INF_P else 'inf'}" for p in ps]
    rows = []
    for r in results:
        row = [r["h"], r["volume"], r["volume"] / r["h"] ** gamma, r["peak"],
               r["t0_err"], float(r["ratios"].max())]
        row += [r["norms"][p] for p in ps]
        rows.append(row)
    table = outdir / "sweep.csv"
    write_csv(table, header, rows)

    verdicts = []
    vr = [r["volume"] / r["h"] ** gamma for r in results]
    band = cfg.tol("volume_band", 4.0)
    verdicts.append(Verdict("volume-band", max(vr) / min(vr), 1.0, band,
                            max(vr) / min(vr) <= band))
    worst_t0 = max(r["t0_err"] for r in results)
    verdicts.append(Verdict("peak-identity", worst_t0, 0.0, 1e-10,
                            worst_t0 <= 1e-10))
    worst_ratio = max(float(r["ratios"].max()) for r in results)
    slack = cfg.tol("joint_slack", 1.0 / 16.0)
    verdicts.append(Verdict("joint-quasimode-ratio", worst_ratio, 1.0,
                            slack, worst_ratio <= 1.0 + slack))
    vols = [r["volume"] for r in results]
    verdicts.append(Verdict("volume-monotone", float(all(
        b < a for a, b in zip(vols, vols[1:]))), 1.0, 0.0,
        all(b < a for a, b in zip(vols, vols[1:]))))
    slope_tol = cfg.tol("slope", 0.1)
    if peak_only or cfg.param("check_peak_slope", "false") == "true":
        predicted = gamma / 2.0 - len(spec.box) / 2.0
        rep = fit_scaling(hs, [r["peak"] for r in results], predicted, slope_tol)
        verdicts.append(Verdict("peak-slope", rep.slope, rep.predicted,
                                rep.tolerance, rep.passed))
    for p in ps:
        predicted = fam.slope(n, k, p)
        tol = cfg.tol("slope_p2", 0.02) if (p is not INF_P and float(parse_p(p)) == 2.0) \
            else slope_tol
        rep = fit_scaling(hs, [r["norms"][p] for r in results], predicted, tol)
        verdicts.append(Verdict(
            f"lp-slope-p{p if p is not INF_P else 'inf'}",
            rep.slope, rep.predicted, rep.tolerance, rep.passed))
    return RunResult(cfg.experiment_id, cfg.kind, verdicts, {"sweep": table})


def run_wavelet_diagnostic(cfg: ExperimentConfig, outdir: Path) -> RunResult:
    n = int(cfg.param("n", "2"))
    k = int(cfg.param("k", "3"))
    h = _num(cfg.param("h", "2^-8"))
    m_order = int(cfg.param("m_order", "1"))
    spec = families.flat_cutoff(n, k, pow2=True)
    cut = build_cutoff(spec, h)
    x1_hw = _num(cfg.param("x1_half_width", "6"))
    x1_dx = _num(cfg.param("x1_spacing", "2^-9"))
    axes = aligned_position_axes(cut, x1_hw, x1_dx)
    v = Quasimode(cut, h).on_axes(axes)
    w = make_mother_wavelet()
    diag = decay_diagnostic(v, w, m_order, k)
    table = outdir / "wavelet_diag.csv"
    write_csv(table, ("a", "j", "value", "predicted_bound"),
              [(r.a, r.j, r.value, r.bound) for r in diag.rows])
    verdicts = [
        Verdict("small-a-exponent", diag.small_a_slope, 1.5,
                cfg.tol("small_a_min", 1.4),
                diag.small_a_slope >= cfg.tol("small_a_min", 1.4)),
        Verdict("large-a-exponent", diag.large_a_slope, 0.0,
                cfg.tol("large_a_abs", 0.1),
                abs(diag.large_a_slope) <= cfg.tol("large_a_abs", 0.1)),
    ]
    bound = 2.0 ** (-(k + 1))
    worst = max((r for _, r in diag.j_ratios), default=0.0)
    verdicts.append(Verdict("j-decay-ratio", worst, bound, 0.0,
                            worst <= bound))
    return RunResult(cfg.experiment_id, cfg.kind, verdicts,
                     {"wavelet_diag": table})


def run_vdc(cfg: ExperimentConfig, outdir: Path) -> RunResult:
    d = int(cfg.param("d", "1"))
    mu = _num(cfg.param("mu", "1"))
    hs = cfg.h_sweep()
    amp_kind = cfg.param("amplitude", "dyadic")
    phase = quadratic_phase(mu, d)
    if amp_kind == "dyadic":
        k = int(cfg.param("k", "3"))
        j = int(cfg.param("j", "2"))
        amp, loss = dyadic_amplitude(k, j), dyadic_loss(k, j)
    elif amp_kind == "resonant":
        beta = _num(cfg.param("beta", "0.8"))
        amp, loss = resonant_amplitude(phase, beta), power_loss(beta)
    else:
        raise ConfigError(f"unknown amplitude family {amp_kind!r}")
    ext = _num(cfg.param("box_half_width", "1.5"))
    integrand = OscIntegrand(phase, amp, d, tuple((-ext, ext) for _ in range(d)),
                             loss, name=amp_kind)
    rep = vdc_check(integrand, hs, mu,
                    exponent_tolerance=cfg.tol("exponent", 0.1))
    table = outdir / "vdc.csv"
    bound_rows = [(h, m, h ** (d / 2) * mu ** (-d / 2), r)
                  for h, m, r in zip(rep.h_values, rep.magnitudes, rep.ratios)]
    write_csv(table, ("h", "magnitude", "bound", "ratio"), bound_rows)
    expect = cfg.param("expect", "pass")
    verdicts = [Verdict("vdc-verdict", rep.verdict, expect.upper(), "exact",
                        rep.verdict == expect.upper())]
    if expect == "pass":
        verdicts.append(Verdict("fitted-exponent", rep.fitted_exponent,
                                d / 2.0, cfg.tol("exponent", 0.1),
                                abs(rep.fitted_exponent - d / 2.0)
                                <= cfg.tol("exponent", 0.1)))
    else:
        limit = _num(cfg.param("degraded_below", "0.4"))
        verdicts.append(Verdict("degraded-exponent", rep.fitted_exponent,
                                limit, 0.0, rep.fitted_exponent < limit))
    return RunResult(cfg.experiment_id, cfg.kind, verdicts, {"vdc": table})


def run_ttstar(cfg: ExperimentConfig, outdir: Path) -> RunResult:
    k = int(cfg.param("k", "3"))
    j = int(cfg.param("j", "0"))
    a = _num(cfg.param("a", "0.5"))
    hs = cfg.h_sweep()
    w = make_mother_wavelet()
    a1 = parse_symbol(cfg.symbols.get("a1", "x1^2"), dim=1)
    nbar = a1.dim
    rows = []
    vdc_ratios, triv_ratios = [], []
    for h in hs:
        sep_vdc = _num(cfg.param("separation", "2^-3"))
        kv = ttstar_kernel(a1, w, a, j, h, k, x1=sep_vdc / 2, z1=-sep_vdc / 2,
                           xbar=[0.0] * nbar, zbar=[0.0] * nbar)
        r_vdc = abs(kv.value) * h ** (nbar / 2) * sep_vdc ** (nbar / 2) / a
        kv2 = ttstar_kernel(a1, w, a, j, h, k, x1=h / 2, z1=-h / 2,
                            xbar=[0.0] * nbar, zbar=[0.0] * nbar)
        r_triv = abs(kv2.value) / (
            a * h ** (-nbar * (1 - 1 / (k + 1))) * 2.0 ** (j * nbar))
        trivial_ok = abs(kv2.value) <= kv2.trivial_bound * (1 + 1e-9)
        rows.append((h, sep_vdc, abs(kv.value), r_vdc, abs(kv2.value), r_triv,
                     trivial_ok))
        vdc_ratios.append(r_vdc)
        triv_ratios.append(r_triv)
    table = outdir / "ttstar.csv"
    write_csv(table, ("h", "separation", "kernel_vdc", "ratio_vdc",
                      "kernel_trivial", "ratio_trivial", "trivial_bound_ok"),
              rows)
    band = cfg.tol("band", 4.0)
    verdicts = [
        Verdict("vdc-regime-band", max(vdc_ratios) / min(vdc_ratios), 1.0,
                band, max(vdc_ratios) / min(vdc_ratios) <= band),
        Verdict("trivial-regime-band", max(triv_ratios) / min(triv_ratios),
                1.0, band, max(triv_ratios) / min(triv_ratios) <= band),
        Verdict("trivial-bound-holds", float(all(r[-1] for r in rows)), 1.0,
                0.0, all(r[-1] for r in rows)),
    ]
    # Disjoint-window kernel must vanish identically.
    kv0 = ttstar_kernel(a1, w, a, j, hs[0], k, x1=2.5 * a, z1=-2.5 * a,
                        xbar=[0.0] * nbar, zbar=[0.0] * nbar)
    verdicts.append(Verdict("disjoint-window-zero", abs(kv0.value), 0.0, 0.0,
                            kv0.value == 0.0))
    return RunResult(cfg.experiment_id, cfg.kind, verdicts, {"ttstar": table})


def run_fio_check(cfg: ExperimentConfig, outdir: Path) -> RunResult:
    n = int(cfg.param("n", "2"))
    k = int(cfg.param("k", "1"))
    hs = cfg.h_sweep()
    orders = tuple(_int_list(cfg.param("orders", "1,2")))
    spec = families.paraboloid_cutoff(n, k, pow2=True)
    p1, _ = families.paraboloid_pair(n, k)
    a1 = graph_factor(p1).a
    rows = []
    verdicts = []
    for h in hs:
        cut = build_cutoff(spec, h)
        axes = aligned_position_axes(cut, _num(cfg.param("x1_half_width", "8")),
                                     h / 8.0)
        u = Quasimode(cut, h).on_axes(axes)
        op = FlatteningOp(a1, h)
        reports = flattening_reports(op, u, orders)
        for rep in reports:
            rows.append((h, rep.order, rep.ratio, rep.slack,
                         rep.identity_residual, rep.identity_bound))
            verdicts.append(Verdict(
                f"x1-quasimode-h{fmt(h)}-M{rep.order}", rep.ratio, 1.0,
                rep.slack, rep.ratio <= 1.0 + rep.slack))
            if rep.order == 1:
                verdicts.append(Verdict(
                    f"intertwining-h{fmt(h)}", rep.identity_residual, 0.0,
                    rep.identity_bound,
                    rep.identity_residual <= rep.identity_bound))
    table = outdir / "fio.csv"
    write_csv(table, ("h", "order", "ratio", "slack", "identity_residual",
                      "identity_bound"), rows)
    return RunResult(cfg.experiment_id, cfg.kind, verdicts, {"fio": table})


RUNNERS: dict[str, Callable[[ExperimentConfig, Path], RunResult]] = {
    "delta-curves": run_delta_curves,
    "contact-profile": run_contact_profile,
    "sharpness-sweep": run_sharpness,
    "wavelet-diagnostic": run_wavelet_diagnostic,
    "vdc": run_vdc,
    "ttstar-kernel": run_ttstar,
    "fio-check": run_fio_check,
}


def run_experiment(cfg: ExperimentConfig, outdir: str | Path) -> RunResult:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = RUNNERS[cfg.kind](cfg, outdir)
    report = {
        "schema_version": SCHEMA_VERSION,
        "experiment": result.experiment_id,
        "kind": result.kind,
        "seed": cfg.seed,
        "config": {
            "params": cfg.params,
            "symbols": cfg.symbols,
            "tolerances": cfg.tolerances,
        },
        "verdicts": [
            {"name": v.name,
             "measured": fmt(v.measured),
             "predicted": fmt(v.predicted),
             "tolerance": fmt(v.tolerance),
             "passed": bool(v.passed)}
            for v in result.verdicts
        ],
        "tables": {name: str(path.name) for name, path in result.tables.items()},
        "passed": result.passed,
    }
    with open(outdir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


# -- built-in templates ----------------------------------------------------------------

@dataclass(frozen=True)
class Template:
    template_id: str
    kind: str
    config_file: str
    verifies: str


TEMPLATES: tuple[Template, ...] = (
    Template("delta-n3", "delta-curves", "delta_curves_n3.cfg",
             "exponent curves: kink continuity, dominance by the unconditional bound"),
    Template("contact-uniform-n3-k3", "contact-profile", "contact_uniform_n3_k3.cfg",
             "uniform order-3 contact of the paraboloid pair; mixed partials vanish"),
    Template("contact-axis-k3", "contact-profile", "contact_axis_k3.cfg",
             "nonuniform 1,3 contact split between one axis and the rest"),
    Template("sharp-largep-n2-k1", "sharpness-sweep", "sharp_largep_n2_k1.cfg",
             "peak and L8 growth match the contact exponent (n=2, k=1)"),
    Template("sharp-largep-n2-k3", "sharpness-sweep", "sharp_largep_n2_k3.cfg",
             "peak and L8 growth match the contact exponent (n=2, k=3)"),
    Template("sharp-smallp-n2", "sharpness-sweep", "sharp_smallp_n2.cfg",
             "slab extremizer saturates the low-p branch (p = 2, 4, 6)"),
    Template("lp-n4-paraboloid-k3", "sharpness-sweep", "lp_n4_paraboloid_k3.cfg",
             "L-inf, L8 and L6 growth match the contact exponent (n=4, k=3)"),
    Template("peak-valley-n3", "sharpness-sweep", "peak_valley_n3.cfg",
             "parabola-valley support volume and peak pick up the hidden h^(1/20)"),
    Template("wavelet-flat-n2-k3", "wavelet-diagnostic", "wavelet_flat_n2_k3.cfg",
             "scale decay of localized wavelet masses: a^(3/2), plateau, dyadic drop"),
    Template("vdc-d1", "vdc", "vdc_d1.cfg",
             "h^(1/2) decay with an admissible dyadic amplitude (d=1)"),
    Template("vdc-d1-resonant", "vdc", "vdc_d1_resonant.cfg",
             "resonant amplitude outside the admissible class degrades the decay"),
    Template("vdc-d2", "vdc", "vdc_d2.cfg",
             "h^1 decay for the radial phase (d=2)"),
    Template("ttstar-n2", "ttstar-kernel", "ttstar_n2.cfg",
             "dyadic kernel bounds in the oscillatory and support-only regimes"),
    Template("fio-n2-k1", "fio-check", "fio_n2_k1.cfg",
             "flattened field is an order-h quasimode of hD_x1 (M = 1, 2)"),
)


def list_experiments() -> str:
    """Static table of built-in templates and the property each verifies."""
    width = max(len(t.template_id) for t in TEMPLATES)
    kw = max(len(t.kind) for t in TEMPLATES)
    lines = [f"{'id':<{width}}  {'kind':<{kw}}  config  verifies"]
    for t in TEMPLATES:
        lines.append(f"{t.template_id:<{width}}  {t.kind:<{kw}}  "
                     f"configs/{t.config_file}  {t.verifies}")
    return "\n".join(lines)

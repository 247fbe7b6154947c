"""Config-driven experiments binding the toolkit together.

Experiments parse from flat INI-style files (sections of key = value, no
code execution), run deterministic sweeps, and write one machine-readable
report.json plus one CSV table per run (floats at 17 significant digits,
fixed row order, fixed reduction order) so identical configs give
bit-identical outputs.  Every verdict carries (measured, predicted, tolerance).
"""

from __future__ import annotations

import configparser
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import families
from .analysis import (INF_P, MIN_SWEEP_POINTS, BlockNorms, contact_delta,
                       exponent, fit_scaling, half_axis, kink_p,
                       oscillation_axes, oscillation_points, parse_number,
                       parse_p, sogge_delta)
from .errors import ConfigError, QuasilabError
from .fio import flattening_reports, x1_axis
from .grids import cell_volume
from .oscint import (Amplitude, OscIntegrand, dyadic_amplitude, psi_amplitude,
                     quadratic_phase, resonant_amplitude, ttstar_kernel,
                     vdc_check, window_overlap)
from .quasimode import (MAX_GRID_CELLS, build_cutoff, origin_value,
                        synthesize_on_axes, verify_joint_quasimode)
from .symbols import (mixed_partials_check, contact_profile, curvature_check,
                      graph_factor, parse_symbol, sample_directions)
from .wavelets import decay_diagnostic, make_mother_wavelet

SCHEMA_VERSION = 1
# x1 cells per unit of h in a fio check's position grid.
_FIO_CELLS_PER_H = 8

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
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, Fraction):
        return str(x)
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

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.name}: measured={fmt(self.measured)} "
                f"predicted={fmt(self.predicted)} tol={fmt(self.tolerance)}")


@dataclass
class RunResult:
    verdicts: list[Verdict]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# -- config handling ---------------------------------------------------------------

def _float(text: str) -> float:
    return float(parse_number(text))   # a config number, as a float


def _list(parse: Callable[[str], object]) -> Callable[[str], list]:
    """A parser of comma-separated lists of what parse reads."""
    return lambda text: [parse(t.strip()) for t in text.split(",") if t.strip()]


@dataclass(frozen=True)
class Key:
    """One config key: what its value must be, its parser, its default
    (config text, parsed like given text; None: absent unless a rule fills
    it) and a bound (its text and its test) on a given value, if any."""

    what: str
    parse: Callable[[str], object]
    default: str | None = None
    bound: tuple[str, Callable] | None = None


REQUIRED = "required"
_FINITE = ("finite", math.isfinite)
_POSITIVE = ("positive and finite", lambda v: 0 < v < math.inf)
_NONNEGATIVE = (">= 0 and finite", lambda v: 0 <= v < math.inf)
_AT_LEAST_1 = (">= 1 and finite", lambda v: 1 <= v < math.inf)


def _int(default=None, low: int | None = None) -> Key:
    return Key("an integer", int, default,
               None if low is None else (f">= {low}", lambda v: v >= low))


def _ints(default=None, low: int | None = None) -> Key:
    return Key("a list of integers", _list(int), default,
               None if low is None
               else (f"a list of integers >= {low}", lambda v: min(v) >= low))


def _number(default=None, bound=None) -> Key:
    return Key("a number", _float, default, bound)


def _choice(default: str, options: dict | tuple) -> Key:
    """One of the options' names; a dict maps each name to its value."""
    if not isinstance(options, dict):
        options = dict(zip(options, options))
    return Key(f"one of {', '.join(options)}", options.__getitem__, default)


# Most points of a delta-curves table.  Each point is one exact Fraction row
# per k and one for Sogge, so time and memory grow with the count: 10^6
# points took minutes and 600 MB, and 10^8 ran out of memory.  The rows are
# bounded too, by what the default three k give at the most points.
_MAX_INVP_POINTS = 4096
_MAX_DELTA_ROWS = 4 * _MAX_INVP_POINTS
_FLAG = {"true": True, "false": False}
_FAMILY = _choice("paraboloid", families.CUTOFF_FAMILIES)
_SYMBOL = Key("a polynomial", str)   # parsed by the kind's rule, which knows n
# An h sweep: h_list, or h_start halved down to h_stop (_check_h_sweep).
_H_SWEEP = {"h_start": _number(), "h_stop": _number(),
            "h_list": Key("a list of numbers", _list(_float))}


@dataclass(frozen=True)
class Kind:
    """One experiment kind: its runner, a pure function of the typed values
    that returns (verdicts, header, rows); the stem of the CSV table it
    fills; every key it reads, by config section; and the rules that check
    the keys against each other and fill derived values."""

    run: Callable[[dict], tuple[list[Verdict], Sequence[str], list]]
    table: str
    params: dict[str, Key]
    tolerances: dict[str, Key] = field(default_factory=dict)
    symbols: dict[str, Key] = field(default_factory=dict)
    rules: tuple[Callable[[dict], None], ...] = ()


@dataclass
class ExperimentConfig:
    """A validated experiment: the config text as written, which report.json
    echoes, and ``values``, every key its kind reads, typed and defaulted."""

    experiment_id: str
    kind: str
    seed: int
    params: dict[str, str]
    symbols: dict[str, str]
    tolerances: dict[str, str]
    out: str | None = None
    values: dict = field(default_factory=dict)


# [experiment] holds these keys, and each kind's Kind record the keys it
# reads from the other sections a config may hold.
EXPERIMENT_KEYS = ("id", "kind", "seed", "out")
KEY_SECTIONS = ("params", "tolerances", "symbols")


def parse_config(path: str | Path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"malformed config {path}: not UTF-8 text") from None
    if not read:
        raise ConfigError(f"cannot read config {path}")
    for name in parser.sections():
        if name not in ("experiment",) + KEY_SECTIONS:
            raise ConfigError(f"unknown section [{name}]; a config holds "
                              "[experiment], [params], [tolerances], [symbols]")
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    for key in exp:
        if key not in EXPERIMENT_KEYS:
            raise ConfigError(f"[experiment] key {key!r} is not read; it reads "
                              + ", ".join(EXPERIMENT_KEYS))
    kind = exp.get("kind", "").strip()
    if kind not in KINDS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; expected one of {sorted(KINDS)}")
    try:
        seed = int(exp.get("seed", "1234"))
    except ValueError as err:
        raise ConfigError(f"seed must be an integer: {err}") from None
    cfg = ExperimentConfig(
        experiment_id=exp.get("id", kind).strip(),
        kind=kind,
        seed=seed,
        out=exp.get("out", "").strip() or None,
        **{s: dict(parser[s]) if s in parser else {} for s in KEY_SECTIONS},
    )
    spec = KINDS[kind]
    for section in KEY_SECTIONS:
        _parse_section(cfg, section, getattr(spec, section))
    for rule in spec.rules:
        rule(cfg.values)
    return cfg


def _parse_section(cfg: ExperimentConfig, section: str, keys: dict) -> None:
    """Type every key of one section, given or defaulted, into cfg.values."""
    given, values = getattr(cfg, section), cfg.values
    for key in given:
        if key not in keys:
            raise ConfigError(f"[{section}] key {key!r} is not read by "
                              f"{cfg.kind}; it reads {', '.join(keys) or 'none'}")
    for key, spec in keys.items():
        if key not in given:
            if spec.default == REQUIRED:
                raise ConfigError(f"missing parameter {key!r} for {cfg.kind}")
            if spec.default is not None:
                values[key] = spec.parse(spec.default)
            continue
        text = given[key]
        try:
            value = spec.parse(text)
        except (ValueError, ArithmeticError, KeyError):
            value = []
        if value == []:   # an empty list is no value
            raise ConfigError(f"{key} must be {spec.what}, got {text!r}")
        if spec.bound and not spec.bound[1](value):
            raise ConfigError(f"{key} must be {spec.bound[0]}, got {text!r}")
        for i, item in enumerate(value if isinstance(value, list) else ()):
            if item in value[:i]:
                raise ConfigError(f"{key} must give each value once; "
                                  f"{item} repeats in {text!r}")
        values[key] = value


def _check_h_sweep(v: dict, fits_slopes: bool = False) -> None:
    """Fill v["h_sweep"], strictly decreasing in (0, 1]; a kind that fits
    slopes over it needs MIN_SWEEP_POINTS values."""
    if "h_list" in v:
        keys, hs = "h_list", v["h_list"]
    elif "h_start" in v and "h_stop" in v:
        keys, start, stop = "h_start/h_stop", v["h_start"], v["h_stop"]
        if not 0 < stop <= start <= 1:
            raise ConfigError("need 0 < h_stop <= h_start <= 1")
        hs, h = [], start
        while h >= stop * (1 - 1e-12):
            hs.append(h)
            h /= 2.0
    else:
        raise ConfigError("give h_start and h_stop, or h_list")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ConfigError("h sweep must be strictly decreasing")
    if any(not 0 < h <= 1 for h in hs):
        raise ConfigError("h values must lie in (0, 1]")
    if fits_slopes and len(hs) < MIN_SWEEP_POINTS:
        raise ConfigError(f"{keys} gives {len(hs)} h value(s); a run that "
                          f"fits slopes needs at least {MIN_SWEEP_POINTS}")
    v["h_sweep"] = hs


def _check_pair(v: dict, fam: families.Family | None = None) -> None:
    """n and k must suit the family whose symbol pair the run builds (the
    `family` key's, unless fam is given); an absent n is its dimension."""
    fam = fam or v["family"]
    if "n" not in v:
        if fam.dim is None:
            raise ConfigError(f"missing parameter 'n': family {fam.name!r} "
                              "has no fixed dimension")
        v["n"] = fam.dim
    elif fam.dim is not None and v["n"] != fam.dim:
        raise ConfigError(f"n = {v['n']} contradicts family {fam.name!r}, "
                          f"which is {fam.dim}-dimensional")
    if fam.odd_k and v["k"] % 2 == 0:
        raise ConfigError(f"k = {v['k']}: family {fam.name!r} needs an odd k")


_check_fitted_sweep = partial(_check_h_sweep, fits_slopes=True)


def _check_symbol(v: dict, name: str, dim: int) -> None:
    try:
        v[name] = parse_symbol(v[name], dim=dim)
    except QuasilabError as err:
        raise ConfigError(f"symbol {name!r} does not parse: {err}") from None


def _check_contact(v: dict) -> None:
    """p1 and p2 as given, both factoring over xi1, or the family's pair."""
    if "p1" not in v and "p2" not in v:
        _check_pair(v)
        v["p1"], v["p2"] = v["family"].pair(v["n"], v["k"])
        return
    for name in ("p1", "p2"):
        if name not in v:
            raise ConfigError(f"symbol {name!r} is missing; give p1 and p2 or neither")
        _check_symbol(v, name, v["n"])
    if not (graph_factor(v["p1"]).valid and graph_factor(v["p2"]).valid):
        raise ConfigError("both symbols must factor as graphs over xi1")


def _check_sweep_spec(v: dict) -> None:
    """Fill v["spec"], the sweep's cutoff spec: its family's at n, k and
    cells_per_band, built once for the parse checks and the run."""
    v["spec"] = v["family"].cutoff(v["n"], v["k"], v["cells_per_band"])


def _check_lp_sweep(v: dict) -> None:
    """An Lp sweep's family must predict its slopes at every p, and, when a
    p other than 2 takes its norm from the synthesis, its position grid must
    hold at least 4 points per axis and the grid it streams fit the
    synthesis cell budget.  That grid is the orthant of the axes on which
    |u| is even (the sweep sums over the upper half of each, points // 2),
    read off the spec's symbols as build_cutoff reads them
    (FrequencyCutoff.even_axes).  A 2-point axis is all boundary shell, and
    its orthant 1 point."""
    fam, ps = v["family"], v["p_list"]
    if not ps or v["peak_only"]:
        return
    if fam.slope is None:
        raise ConfigError(f"family {fam.name!r} predicts no Lp slope; drop "
                          "p_list or set peak_only = true")
    if fam.p_min is not None:
        p0 = fam.p_min(v["n"])
        low = [p for p in ps if p < p0]
        if low:
            raise ConfigError(
                f"p_list has p = {', '.join(map(str, low))} below p0 = {p0}, "
                f"the least p at which family {fam.name!r} predicts an Lp "
                f"slope at n = {v['n']}; drop those p or set peak_only = true")
    if all(p == 2 for p in ps):
        return
    points = oscillation_points(v["margin"], v["points_per_scale"])
    if points < 4:
        raise ConfigError(
            f"margin = {fmt(v['margin'])} and points_per_scale = "
            f"{v['points_per_scale']} give an Lp sweep {points} position "
            "point(s) per axis; it needs at least 4, so 2 * margin * "
            "points_per_scale must be at least 3")
    n = v["n"]
    sizes = [points // 2 if half else points
             for half in v["spec"].even_axes()]
    cells = math.prod(sizes)
    if cells > MAX_GRID_CELLS:
        raise ConfigError(
            f"an Lp sweep at n = {n} streams {'x'.join(map(str, sizes))} = "
            f"{cells} cells of its {'x'.join([str(points)] * n)} position "
            f"grid, over the budget of {MAX_GRID_CELLS} (2^24); lower n, "
            "margin or points_per_scale, or set peak_only = true")


def _check_delta_rows(v: dict) -> None:
    """A delta-curves table holds (len(k_list) + 1) * invp_points exact
    rows, at most _MAX_DELTA_ROWS."""
    rows = (len(v["k_list"]) + 1) * v["invp_points"]
    if rows > _MAX_DELTA_ROWS:
        raise ConfigError(
            f"k_list and invp_points give ({len(v['k_list'])} + 1) * "
            f"{v['invp_points']} = {rows} exact rows, over the bound of "
            f"{_MAX_DELTA_ROWS}; give fewer k or points")


def _check_scale(v: dict, key: str, amp: Amplitude) -> None:
    """amp's loss rate and support radius, which key scales, must be
    positive finite floats at every h of the sweep."""
    for h in v["h_sweep"]:
        try:
            rates = amp.loss_rate(h), amp.support_radius(h)
        except ArithmeticError:
            rates = (math.nan,)
        if not all(0 < r < math.inf for r in rates):
            raise ConfigError(
                f"{key} = {fmt(v[key])} leaves the amplitude no positive "
                f"finite loss rate and support radius at h = {fmt(h)}")


def _check_flat_cutoff(v: dict) -> None:
    """Fill v["spec"], the wavelet run's flat cutoff, whose cell volume at h
    must be a normal float: the quasimode divides by the square root of
    its support volume, a count of such cells, and below the least normal
    float that volume underflows toward 0."""
    v["spec"] = families.flat_cutoff(v["n"], v["k"], pow2=True)
    vol = cell_volume([rule.to_axis(v["h"]) for rule in v["spec"].box])
    if vol < sys.float_info.min:
        raise ConfigError(
            f"h = {fmt(v['h'])} gives the flat cutoff a cell volume of "
            f"{fmt(vol)}, below the least normal float; the quasimode is "
            "normalized by the square root of its support volume")


def _check_vdc(v: dict) -> None:
    """Fill v["amp"], the run's dyadic or resonant amplitude.  The phase
    mu |xi|^2 / 2, |xi|^2 first as the phase takes it, must be a finite
    float at twice box_half_width on every axis, the farthest the
    critical-point search steps; its finite differences, 1e-5 of the box
    wide, overflowed past there (OverflowError)."""
    reach = 2.0 * v["box_half_width"]
    if not math.isfinite(0.5 * v["mu"] * (v["d"] * reach * reach)):
        raise ConfigError(
            f"box_half_width = {fmt(v['box_half_width'])} overflows the phase "
            f"mu |xi|^2 / 2 (mu = {fmt(v['mu'])}, d = {v['d']}) at twice "
            "the box, where the critical-point search steps")
    if v["amplitude"] == "dyadic":
        key, v["amp"] = "j", dyadic_amplitude(v["k"], v["j"])
    else:
        phase = quadratic_phase(v["mu"], v["d"])
        key, v["amp"] = "beta", resonant_amplitude(phase, v["beta"])
    _check_scale(v, key, v["amp"])


def _check_ttstar(v: dict) -> None:
    """Each psi_j's scale must be a positive finite float.  The kernel is
    0 where its windows' b-overlap is: at `separation` or at the largest h
    (the support-only regime's separation) the band ratios would divide by
    it."""
    _check_symbol(v, "a1", 1)
    _check_scale(v, "j", psi_amplitude(v["k"], v["j"]))
    reach = 2.0 * make_mother_wavelet().support_halfwidth * v["a"]
    for key, sep in (("separation", v["separation"]),
                     ("h_list" if "h_list" in v else "h_start",
                      v["h_sweep"][0])):
        if window_overlap(v["a"], sep) == 0.0:
            raise ConfigError(
                f"{key} gives a separation of {fmt(sep)}, at which the two "
                "windows overlap by 0.0 on the kernel's nodes (they are "
                "disjoint from 2*a*support_halfwidth = "
                f"{fmt(reach)} on), so the kernel vanishes")


def _check_fio_orders(v: dict) -> None:
    """Every order M of a fio check needs an interior x1 row, 2M < n1, at
    each h (the largest h has the fewest rows), and h^M, by which its ratio
    divides, a normal float (the smallest h has the least)."""
    m = max(v["orders"])
    for h in v["h_sweep"]:
        n1 = x1_axis(v["x1_half_width"], h / _FIO_CELLS_PER_H).points
        if 2 * m >= n1:
            raise ConfigError(
                f"orders has M = {m}, whose {2 * m + 1}-row difference "
                f"stencil leaves no interior row of the {n1} x1 rows at "
                f"h = {fmt(h)}; orders must stay below {(n1 + 1) // 2}")
        if h ** m < sys.float_info.min:
            raise ConfigError(
                f"orders has M = {m}, and h^M at h = {fmt(h)} is below the "
                f"least normal float ({fmt(h ** m)}); the x1-quasimode ratio "
                "divides by it")


# -- experiment runners --------------------------------------------------------------
# Each runner is a pure function of its kind's typed values: it returns the
# verdicts and the CSV table's header and rows, and run_experiment writes them.

def run_delta_curves(v: dict):
    n, k_list, points = v["n"], v["k_list"], v["invp_points"]
    # p at evenly spaced 1/p in [0, 1/2].
    ps = [INF_P if i == 0 else Fraction(2 * (points - 1), i)
          for i in range(points)]
    rows = [("contact", n, p, k, float(exponent("contact", n, p, k=k)))
            for k in k_list for p in ps]
    rows += [("sogge", n, p, "", float(exponent("sogge", n, p))) for p in ps]

    # Above p0, delta is affine in 1/p: its line through p = inf and 2*p0,
    # extended to p0, must meet the value at p0, which is the p <= p0 branch.
    p0 = kink_p(n)
    kink_gap = max(abs(contact_delta(n, p0, k)
                       - (2 * contact_delta(n, 2 * p0, k)
                          - contact_delta(n, INF_P, k)))
                   for k in k_list)
    verdicts = [Verdict("kink-continuity-exact", float(kink_gap), 0.0, 0.0,
                        kink_gap == 0)]
    worst = max(float(contact_delta(n, p, k) - sogge_delta(n, p))
                for k in k_list for p in ps)
    verdicts.append(Verdict("contact-below-sogge", worst, 0.0, 0.0,
                            worst <= 0.0))
    return verdicts, ("family", "n", "p", "k", "delta"), rows


def run_contact_profile(v: dict):
    a1, a2 = graph_factor(v["p1"]).a, graph_factor(v["p2"]).a
    dirs = sample_directions(v["n"] - 1, v["directions"])
    profile = contact_profile(a1, a2, dirs, v["max_order"])
    rows = []
    for rep in profile.reports:
        rows.append((";".join(str(c) for c in rep.direction),
                     "infinite" if math.isinf(rep.order) else int(rep.order),
                     "" if rep.leading_coefficient is None
                     else str(rep.leading_coefficient)))

    verdicts = []
    verdicts.append(Verdict("uniformity", str(profile.uniform),
                            str(v["expect_uniform"]), "exact",
                            profile.uniform == v["expect_uniform"]))
    finite = sorted({o for o in profile.orders() if not math.isinf(o)})
    expect_orders = sorted(v["expect_orders"])
    verdicts.append(Verdict("order-set", ";".join(map(str, finite)),
                            ";".join(map(str, expect_orders)), "exact",
                            finite == expect_orders))
    curv = curvature_check(a1)
    verdicts.append(Verdict("curvature-nondegenerate", float(curv.det), "nonzero",
                            "exact", curv.nondegenerate))
    if profile.uniform and len(finite) == 1:
        k = int(finite[0])
        c_ok = mixed_partials_check(a1, a2, k).ok
        verdicts.append(Verdict("mixed-partials-vanish", str(c_ok), "true",
                                "exact", c_ok))
    return verdicts, ("direction", "order", "leading_coefficient"), rows


def _band(name: str, column, band: float) -> Verdict:
    """A column's spread, max/min, against band."""
    spread = max(column) / min(column)
    return Verdict(name, spread, 1.0, band, spread <= band)


def _sweep_point(spec, h, gamma, ps, v) -> list:
    """One sweep.csv row: h, volume, volume_ratio, peak, t0_rel_err,
    joint_ratio_max, joint_ratio_offdiag_max and the norm at each p of ps.

    joint_ratio_offdiag_max is the joint-ratio maximum over every (M1, M2)
    but (0, 0), whose ratio is exactly 1: empty when joint_orders is 0.

    The norms other than p = 2 are summed over the positive orthant of the
    axes on which |u| is even (CutoffField.even_axes): each such axis of
    the oscillation grid is synthesized on its upper half (half_axis), and
    BlockNorms weighs each cell for the 2^m cells it stands for."""
    cut = build_cutoff(spec, h)
    vol, peak = cut.volume(), cut.peak()
    t0_err = abs(abs(origin_value(cut)) - peak) / peak
    joint = verify_joint_quasimode(cut, v["joint_orders"]).ravel()
    row = [h, vol, vol / h ** gamma, peak, t0_err, float(joint.max()),
           float(joint[1:].max()) if len(joint) > 1 else ""]
    # p = 2 is frequency-side Parseval: exact for the normalized cutoff, so
    # only the other p need the synthesis.
    synthesized = [p for p in ps if p != 2]
    norms = {}
    if synthesized:
        exts = [cut.extent(i) for i in range(cut.dim)]
        halved = cut.even_axes()
        axes = [half_axis(a) if half else a for a, half in zip(
            oscillation_axes(exts, h, v["margin"], v["points_per_scale"]),
            halved)]
        sums = BlockNorms([a.points for a in axes], cell_volume(axes),
                          synthesized, halved)
        synthesize_on_axes(cut, axes, sums.add)
        norms = {m.p: m.value for m in sums.norms()}
    return row + [norms.get(p, 1.0) for p in ps]


def run_sharpness(v: dict):
    fam, n, k = v["family"], v["n"], v["k"]
    spec = v["spec"]
    ps = [] if v["peak_only"] else v["p_list"]
    gamma = fam.gamma(n, k)
    header = ["h", "volume", "volume_ratio", "peak", "t0_rel_err",
              "joint_ratio_max", "joint_ratio_offdiag_max"] + [
                  f"norm_p{fmt(p)}" for p in ps]
    rows = [_sweep_point(spec, h, gamma, ps, v) for h in v["h_sweep"]]
    hs, vols, vol_ratios, peaks, t0_errs, joint, _, *norms = zip(*rows)

    worst_t0, worst_joint, slack = max(t0_errs), max(joint), v["joint_slack"]
    monotone = all(b < a for a, b in zip(vols, vols[1:]))
    verdicts = [
        _band("volume-band", vol_ratios, v["volume_band"]),
        Verdict("peak-identity", worst_t0, 0.0, 1e-10, worst_t0 <= 1e-10),
        Verdict("joint-quasimode-ratio", worst_joint, 1.0, slack,
                worst_joint <= 1.0 + slack),
        Verdict("volume-monotone", float(monotone), 1.0, 0.0, monotone),
    ]
    fits = [("peak-slope", peaks, gamma / 2.0 - len(spec.box) / 2.0,
             v["slope"])] if v["peak_only"] else []
    fits += [(f"lp-slope-p{fmt(p)}", column, fam.slope(n, k, p),
              v["slope_p2"] if p == 2 else v["slope"])
             for p, column in zip(ps, norms)]
    for name, column, predicted, tol in fits:
        rep = fit_scaling(hs, column, predicted, tol)
        verdicts.append(Verdict(name, rep.slope, rep.predicted, rep.tolerance,
                                rep.passed))
    return verdicts, header, rows


def run_wavelet_diagnostic(v: dict):
    k, h = v["k"], v["h"]
    cut = build_cutoff(v["spec"], h)
    diag = decay_diagnostic(cut, x1_axis(v["x1_half_width"], v["x1_spacing"]),
                            v["m_order"], k)
    bound = 2.0 ** (-(k + 1))
    worst = max((r for _, r in diag.j_ratios), default=0.0)
    verdicts = [
        Verdict("small-a-exponent", diag.small_a_slope, 1.5,
                v["small_a_min"], diag.small_a_slope >= v["small_a_min"]),
        Verdict("large-a-exponent", diag.large_a_slope, 0.0,
                v["large_a_abs"], abs(diag.large_a_slope) <= v["large_a_abs"]),
        Verdict("j-decay-ratio", worst, bound, 0.0, worst <= bound),
    ]
    rows = [(a, j, value, envelope)
            for a, values, envelopes in zip(diag.a_grid, diag.mass, diag.bound)
            for j, (value, envelope) in enumerate(zip(values, envelopes))]
    return verdicts, ("a", "j", "value", "predicted_bound"), rows


def run_vdc(v: dict):
    d, mu, tol, ext = v["d"], v["mu"], v["exponent"], v["box_half_width"]
    # The phase is quadratic and both amplitudes are radial: even in every
    # axis.
    integrand = OscIntegrand(quadratic_phase(mu, d), v["amp"], d,
                             tuple((-ext, ext) for _ in range(d)),
                             frozenset(range(d)))
    rep = vdc_check(integrand, v["h_sweep"], mu, exponent_tolerance=tol)
    rows = [(h, m, h ** (d / 2) * mu ** (-d / 2), r)
            for h, m, r in zip(rep.h_values, rep.magnitudes, rep.ratios)]
    verdicts = [Verdict("vdc-verdict", rep.verdict, v["expect"], "exact",
                        rep.verdict == v["expect"])]
    if v["expect"] == "PASS":
        verdicts.append(Verdict("fitted-exponent", rep.fitted_exponent,
                                d / 2.0, tol,
                                abs(rep.fitted_exponent - d / 2.0) <= tol))
    else:
        verdicts.append(Verdict("degraded-exponent", rep.fitted_exponent,
                                v["degraded_below"], 0.0,
                                rep.fitted_exponent < v["degraded_below"]))
    return verdicts, ("h", "magnitude", "bound", "ratio"), rows


def run_ttstar(v: dict):
    k, j, a, hs, a1 = v["k"], v["j"], v["a"], v["h_sweep"], v["a1"]
    sep_vdc, nbar = v["separation"], a1.dim
    rows = []
    for h in hs:
        mag_vdc = abs(ttstar_kernel(a1, a, j, h, k, sep_vdc).value)
        triv = ttstar_kernel(a1, a, j, h, k, h)
        mag_triv = abs(triv.value)
        rows.append((
            h, sep_vdc, mag_vdc,
            mag_vdc * h ** (nbar / 2) * sep_vdc ** (nbar / 2) / a, mag_triv,
            mag_triv / (a * h ** (-nbar * (1 - 1 / (k + 1))) * 2.0 ** (j * nbar)),
            mag_triv <= triv.trivial_bound * (1 + 1e-9)))
    *_, ratio_vdc, _, ratio_trivial, bound_ok = zip(*rows)
    verdicts = [
        _band("vdc-regime-band", ratio_vdc, v["band"]),
        _band("trivial-regime-band", ratio_trivial, v["band"]),
        Verdict("trivial-bound-holds", float(all(bound_ok)), 1.0, 0.0,
                all(bound_ok)),
    ]
    # Disjoint-window kernel must vanish identically.
    kv0 = ttstar_kernel(a1, a, j, hs[0], k, 5 * a)
    verdicts.append(Verdict("disjoint-window-zero", abs(kv0.value), 0.0, 0.0,
                            kv0.value == 0.0))
    header = ("h", "separation", "kernel_vdc", "ratio_vdc", "kernel_trivial",
              "ratio_trivial", "trivial_bound_ok")
    return verdicts, header, rows


def run_fio_check(v: dict):
    n, k, orders = v["n"], v["k"], tuple(v["orders"])
    spec = families.paraboloid_cutoff(n, k, pow2=True)
    a1 = graph_factor(families.paraboloid_pair(n, k)[0]).a
    rows, verdicts = [], []
    for h in v["h_sweep"]:
        cut = build_cutoff(spec, h)
        axis = x1_axis(v["x1_half_width"], h / _FIO_CELLS_PER_H)
        for rep in flattening_reports(a1, cut, axis, orders):
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
    return verdicts, ("h", "order", "ratio", "slack", "identity_residual",
                      "identity_bound"), rows


# -- experiment kinds ----------------------------------------------------------------

KINDS: dict[str, Kind] = {
    "delta-curves": Kind(run_delta_curves, "delta_curves", {
        "n": _int("3", 2), "k_list": _ints("1, 3, 5", 1),
        "invp_points": Key("an integer", int, "25", (
            f">= 2 and <= {_MAX_INVP_POINTS}",
            lambda v: 2 <= v <= _MAX_INVP_POINTS))},
        rules=(_check_delta_rows,)),
    "contact-profile": Kind(run_contact_profile, "contact_profile", {
        "n": _int("3", 2), "k": _int("1", 1), "family": _FAMILY,
        "max_order": _int("32", 1), "directions": _int("64", 1),
        "expect_uniform": _choice("true", _FLAG), "expect_orders": _ints(REQUIRED),
    }, symbols={"p1": _SYMBOL, "p2": _SYMBOL}, rules=(_check_contact,)),
    "sharpness-sweep": Kind(run_sharpness, "sweep", {
        "family": _FAMILY, "n": _int(low=2), "k": _int("1", 1),
        "cells_per_band": _int(str(families.CELLS_PER_BAND), 1), **_H_SWEEP,
        "p_list": Key("a list of exponents", _list(parse_p), "",
                      ("a list of exponents >= 2", lambda ps: min(ps) >= 2)),
        "joint_orders": _int("3", 0), "margin": _number("8", _POSITIVE),
        "points_per_scale": _int("8", 1), "peak_only": _choice("false", _FLAG),
    }, tolerances={
        "volume_band": _number("4.0", _AT_LEAST_1),
        "joint_slack": _number("1/16", _NONNEGATIVE),
        "slope": _number("0.1", _NONNEGATIVE),
        "slope_p2": _number("0.02", _NONNEGATIVE),
    }, rules=(_check_pair, _check_sweep_spec, _check_lp_sweep,
              _check_fitted_sweep)),
    "wavelet-diagnostic": Kind(run_wavelet_diagnostic, "wavelet_diag", {
        "n": _int("2", 2), "k": _int("3", 1),
        "h": _number("2^-8", ("in (0, 1]", lambda v: 0 < v <= 1)),
        "m_order": _int("1", 1), "x1_half_width": _number("6", _POSITIVE),
        "x1_spacing": _number("2^-9", _POSITIVE),
    }, tolerances={
        "small_a_min": _number("1.4", _FINITE),
        "large_a_abs": _number("0.1", _NONNEGATIVE),
    }, rules=(partial(_check_pair, fam=families.CUTOFF_FAMILIES["flat"]),
              _check_flat_cutoff)),
    "vdc": Kind(run_vdc, "vdc", {
        "d": _int("1", 1), "mu": _number("1", _POSITIVE), **_H_SWEEP,
        "amplitude": _choice("dyadic", ("dyadic", "resonant")),
        "k": _int("3", 1), "j": _int("2"), "beta": _number("0.8", _FINITE),
        "box_half_width": _number("1.5", _POSITIVE),
        "expect": _choice("pass", {"pass": "PASS", "fail": "FAIL"}),
        "degraded_below": _number("0.4", _FINITE),
    }, tolerances={"exponent": _number("0.1", _NONNEGATIVE)},
        rules=(_check_fitted_sweep, _check_vdc)),
    "ttstar-kernel": Kind(run_ttstar, "ttstar", {
        "k": _int("3", 1), "j": _int("0"), "a": _number("0.5", _POSITIVE),
        **_H_SWEEP, "separation": _number("2^-3", _POSITIVE),
    }, tolerances={"band": _number("4.0", _AT_LEAST_1)},
        symbols={"a1": Key(_SYMBOL.what, str, "x1^2")},
        rules=(_check_h_sweep, _check_ttstar)),
    "fio-check": Kind(run_fio_check, "fio", {
        "n": _int("2", 2), "k": _int("1", 1), **_H_SWEEP,
        "orders": _ints("1, 2", 1), "x1_half_width": _number("8", _POSITIVE),
    }, rules=(_check_h_sweep,
              partial(_check_pair, fam=families.CUTOFF_FAMILIES["paraboloid"]),
              _check_fio_orders)),
}


def run_experiment(cfg: ExperimentConfig, outdir: str | Path) -> RunResult:
    """Run cfg's kind and write its table and report.json into outdir, the
    one place a run's files are written."""
    kind = KINDS[cfg.kind]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    verdicts, header, rows = kind.run(cfg.values)
    write_csv(outdir / f"{kind.table}.csv", header, rows)
    result = RunResult(verdicts)
    report = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment_id,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config": {s: getattr(cfg, s) for s in KEY_SECTIONS},
        "verdicts": [
            {"name": v.name, "passed": bool(v.passed),
             **{f: fmt(getattr(v, f)) for f in ("measured", "predicted", "tolerance")}}
            for v in verdicts
        ],
        "tables": {kind.table: f"{kind.table}.csv"},
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
    Template("lp-n5-paraboloid-k3", "sharpness-sweep", "lp_n5_paraboloid_k3.cfg",
             "L-inf, L8 and L6 growth match the contact exponent (n=5, k=3)"),
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

"""CLI verbs, exit codes, config validation, and rerun determinism."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasilab
from quasilab import errors, experiments, quasimode
from quasilab.analysis import (INF_P, _fit_line, contact_delta, fit_scaling,
                               kink_p, parse_number)
from quasilab.cli import main
from quasilab.errors import ConfigError
from quasilab.experiments import (EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK,
                                  EXIT_REFUSED, EXIT_VERDICT_FAIL, KINDS,
                                  TEMPLATES, list_experiments, parse_config,
                                  run_experiment)
from quasilab.oscint import MAX_QUAD_POINTS
from quasilab.quasimode import MAX_GRID_CELLS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


DELTA_CFG = """
[experiment]
id = tiny-delta
kind = delta-curves
seed = 7

[params]
n = 3
k_list = 1, 3
invp_points = 9
"""

CONTACT_CFG = """
[experiment]
id = tiny-contact
kind = contact-profile
seed = 7

[params]
n = 3
k = 3
family = axis-contact
directions = 64
expect_uniform = false
expect_orders = 1, 3
"""

TINY_SWEEP_CFG = """
[experiment]
id = tiny-sweep
kind = sharpness-sweep
seed = 7

[params]
family = paraboloid
n = 2
k = 1
h_start = 2^-4
h_stop = 2^-8
p_list = inf
joint_orders = 1
"""


class TestRun:
    def test_delta_curves_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DELTA_CFG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["passed"] is True
        assert report["seed"] == 7
        for v in report["verdicts"]:
            assert {"name", "measured", "predicted", "tolerance",
                    "passed"} <= set(v)
        assert (out / "delta_curves.csv").exists()

    def test_kink_verdict_fails_on_a_shifted_high_branch(self, tmp_path,
                                                         monkeypatch):
        # 1/100 added above p0 breaks the curve at the kink; at p0 itself
        # contact_delta takes its p <= p0 branch, which the shift leaves.
        def shifted(n, p, k):
            return contact_delta(n, p, k) + (Fraction(1, 100) if p > kink_p(n)
                                             else 0)
        monkeypatch.setattr(experiments, "contact_delta", shifted)
        out = tmp_path / "out"
        assert main(["run", str(write_cfg(tmp_path, DELTA_CFG)),
                     "--out", str(out)]) == EXIT_VERDICT_FAIL
        report = json.loads((out / "report.json").read_text())
        kink, = [v for v in report["verdicts"]
                 if v["name"] == "kink-continuity-exact"]
        assert kink["measured"] == "0.01" and not kink["passed"]

    def test_contact_profile_config(self, tmp_path):
        cfg = write_cfg(tmp_path, CONTACT_CFG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK

    def test_decimal_over_integer_coefficient_runs(self, tmp_path):
        # 1.5/2 is exact 3/4; the coefficient grammar used to pass it to
        # Fraction(), whose ValueError escaped with exit 1.
        cfg = write_cfg(tmp_path, CONTACT_CFG + (
            "\n[symbols]\np1 = x1 - 1.5/2*x2^2 - x3^2\n"
            "p2 = x1 - 2*x2^2 - x3^2 - x3^4\n"))
        assert parse_config(cfg).values["p1"].coeffs[(0, 2, 0)] == Fraction(-3, 4)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_parse_internal_error_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(v):
            raise RuntimeError("rule bug")
        monkeypatch.setitem(KINDS, "delta-curves",
                            dataclasses.replace(KINDS["delta-curves"],
                                                rules=(broken,)))
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, DELTA_CFG)
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: rule bug" in err
        assert not out.exists()

    def test_p_list_reads_powers_fractions_and_inf(self, tmp_path):
        text = (CONFIG_DIR / "sharp_smallp_n2.cfg").read_text()
        assert "\np_list = 2, 4, 6\n" in text
        cfg = parse_config(write_cfg(tmp_path, text.replace(
            "\np_list = 2, 4, 6\n", "\np_list = 2^3, 16/3, Inf\n")))
        ps = cfg.values["p_list"]
        assert ps == [8, Fraction(16, 3), INF_P] and ps[2] is INF_P
        assert type(ps[0]) is Fraction

    def test_p2_sweep_synthesizes_nothing(self, tmp_path, monkeypatch):
        # The L2 norm of the normalized quasimode is 1 by Parseval, so a
        # sweep asking for p = 2 alone makes no synthesis: its table is the
        # 2, 4, 6 sweep's table without the p = 4 and p = 6 columns, and
        # the synthesis grid's budget does not refuse it (at n = 5 the grid
        # would hold 128^5 cells).
        text = (CONFIG_DIR / "sharp_smallp_n2.cfg").read_text().replace(
            "\np_list = 2, 4, 6\n", "\np_list = 2\n")
        run_experiment(parse_config(CONFIG_DIR / "sharp_smallp_n2.cfg"),
                       tmp_path / "all")
        calls = []
        monkeypatch.setattr(experiments, "synthesize_on_axes",
                            lambda *args: calls.append(args))
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "p2")]) == EXIT_OK
        assert calls == []
        lines = (tmp_path / "all" / "sweep.csv").read_bytes().split(b"\n")
        assert (tmp_path / "p2" / "sweep.csv").read_bytes() == b"\n".join(
            line.rsplit(b",", 2)[0] for line in lines)
        n5 = write_cfg(tmp_path, text.replace("\nn = 2\n", "\nn = 5\n"),
                       "n5.cfg")
        assert parse_config(n5).params["n"] == "5"

    def test_rerun_bit_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, DELTA_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["run", str(cfg), "--out", str(out2)]) == EXIT_OK
        csv1 = (out1 / "delta_curves.csv").read_bytes()
        csv2 = (out2 / "delta_curves.csv").read_bytes()
        assert csv1 == csv2
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_sweep_rerun_bit_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_SWEEP_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["run", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("orders", [0, 1])
    def test_joint_offdiag_column(self, tmp_path, orders):
        # joint_ratio_max is the (0, 0) ratio, exactly 1 on every cutoff;
        # joint_ratio_offdiag_max is the largest of the others, below 1,
        # and empty when joint_orders = 0 leaves no other.
        cfg = write_cfg(tmp_path, TINY_SWEEP_CFG.replace(
            "joint_orders = 1", f"joint_orders = {orders}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        table = (tmp_path / "o" / "sweep.csv").read_text()
        header, *rows = (line.split(",") for line in table.splitlines())
        assert header[5:7] == ["joint_ratio_max", "joint_ratio_offdiag_max"]
        assert {row[5] for row in rows} == {"1"}
        offdiag = [row[6] for row in rows]
        if orders:
            assert all(0.0 < float(c) < 1.0 for c in offdiag)
        else:
            assert offdiag == [""] * len(rows)

    def test_n4_paraboloid_slopes(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", str(CONFIG_DIR / "lp_n4_paraboloid_k3.cfg"),
                     "--out", str(out)]) == EXIT_OK
        verdicts = json.loads((out / "report.json").read_text())["verdicts"]
        slopes = {v["name"]: float(v["measured"]) for v in verdicts}
        for p in ("inf", "8", "6"):
            assert abs(slopes[f"lp-slope-p{p}"]
                       + float(contact_delta(4, p, 3))) <= 0.01

    def test_n5_paraboloid_slopes(self, tmp_path):
        # The law in n at n = 5: its 32^5 grids stream as 16^5 orthants.
        out = tmp_path / "o"
        assert main(["run", str(CONFIG_DIR / "lp_n5_paraboloid_k3.cfg"),
                     "--out", str(out)]) == EXIT_OK
        verdicts = json.loads((out / "report.json").read_text())["verdicts"]
        slopes = {v["name"]: float(v["measured"]) for v in verdicts}
        for p in ("inf", "8", "6"):
            assert abs(slopes[f"lp-slope-p{p}"]
                       + float(contact_delta(5, p, 3))) <= 0.01

    def test_flat_sweep_slopes(self, tmp_path):
        # The flat cutoff is a box, |xi1| <= h by |xi-bar| <= (2h)^(1/4): its
        # Lp slope is -(n-1)*k/(k+1)*(1/2 - 1/p), not -delta(n, p, k).
        text = """
[experiment]
id = flat-sweep
kind = sharpness-sweep

[params]
family = flat
n = 2
k = 3
h_start = 2^-4
h_stop = 2^-10
p_list = inf, 8, 4
joint_orders = 3

[tolerances]
slope = 0.01
"""
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_OK
        verdicts = json.loads((out / "report.json").read_text())["verdicts"]
        predicted = {v["name"]: float(v["predicted"]) for v in verdicts}
        assert predicted["lp-slope-p8"] == -0.28125
        assert predicted["lp-slope-p4"] == -0.1875

    def test_cells_per_band_override(self, tmp_path):
        text = """
[experiment]
id = resolution-check
kind = sharpness-sweep
seed = 7

[params]
family = paraboloid
n = 2
k = 1
h_start = 2^-4
h_stop = 2^-8
p_list = inf
joint_orders = 1
cells_per_band = 32
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_invalid_p_exits_2(self, tmp_path, capsys):
        bad = """
[experiment]
id = bad-p
kind = sharpness-sweep
seed = 7

[params]
family = paraboloid
n = 2
k = 1
h_start = 2^-4
h_stop = 2^-8
p_list = 1, 4
"""
        cfg = write_cfg(tmp_path, bad)
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_duplicate_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, DELTA_CFG + "\n[params]\nn = 4\n")
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_unknown_kind_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, DELTA_CFG.replace("delta-curves", "bogus"))
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(DELTA_CFG.encode() + b"# \xff\n")
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_short_sweep_exits_2(self, tmp_path, capsys):
        text = """
[experiment]
id = short
kind = vdc
seed = 7

[params]
d = 1
mu = 1
amplitude = dyadic
k = 3
j = 0
h_start = 2^-6
h_stop = 2^-8
expect = pass
"""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert "h_start/h_stop gives 3 h value(s)" in err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, key", [
        ("h_stop = 2^-10", "h_stop = 2^-5", "h_start/h_stop gives 2"),
        ("h_start = 2^-4\nh_stop = 2^-10", "h_list = 2^-4, 2^-6, 2^-8",
         "h_list gives 3"),
    ], ids=["h_start", "h_list"])
    def test_short_sharpness_sweep_exits_2(self, tmp_path, capsys, old, new,
                                           key):
        # Rejected at parse time: no sweep point runs and no output is made.
        text = (CONFIG_DIR / "sharp_largep_n2_k3.cfg").read_text()
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_increasing_sweep_rejected(self, tmp_path, capsys):
        text = (CONFIG_DIR / "vdc_d1.cfg").read_text()
        old = "\nh_start = 2^-6\nh_stop = 2^-12\n"
        assert old in text
        text = text.replace(old, "\nh_list = 2^-8, 2^-7, 2^-6, 2^-5, 2^-4\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "strictly decreasing" in capsys.readouterr().err
        assert not out.exists()

    def test_module_refusal_exits_3(self, tmp_path, capsys):
        text = """
[experiment]
id = refuse
kind = vdc
seed = 7

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
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_REFUSED
        err = capsys.readouterr().err
        assert "refused" in err and "from oscint" in err

    @pytest.mark.parametrize("config, old, new, match", [
        # j = 1000: sep * xi^2 overflows on the box of +-1.5 * 2^1000 *
        # h^(1/4), the gradient probe read nan as no oscillation, the
        # kernel came out 0 at 33 nodes and the band ratios divided by it.
        ("ttstar_n2.cfg", "j = 0", "j = 1000",
         "the phase gradient on axis 1 is nan"),
        # A phase finite at twice the box, but a node count that is not.
        ("vdc_d1.cfg", "d = 1", "d = 1\nbox_half_width = 6.7e153",
         "inf points per axis needed"),
    ], ids=["ttstar-j1000", "vdc-box6.7e153"])
    def test_unresolvable_phase_exits_3(self, tmp_path, capsys, config, old,
                                        new, match):
        text = (CONFIG_DIR / config).read_text()
        assert f"\n{old}\n" in text
        cfg = write_cfg(tmp_path, text.replace(f"\n{old}\n", f"\n{new}\n"))
        assert main(["run", str(cfg), "--out",
                     str(tmp_path / "o")]) == EXIT_REFUSED
        err = capsys.readouterr().err
        assert "(ResolutionError from oscint)" in err and match in err

    def test_many_axes_vdc_exits_3_quickly(self, tmp_path, capsys):
        # d = 30: the critical point is read off the phase, not searched
        # for from 2^30 + 1 starts, so the quadrature's budget refuses the
        # run at once.
        text = (CONFIG_DIR / "vdc_d2.cfg").read_text()
        assert "\nd = 2\n" in text
        cfg = write_cfg(tmp_path, text.replace("\nd = 2\n", "\nd = 30\n"))
        start = time.perf_counter()
        assert main(["run", str(cfg), "--out",
                     str(tmp_path / "o")]) == EXIT_REFUSED
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "(ResolutionError from oscint)" in err
        assert "at least 33 points per axis" in err

    def test_xi1_axis_past_exact_indices_exits_3(self, tmp_path, capsys):
        # At h = 1e-200 the paraboloid's xi1 axis holds 2.8e101 points (its
        # range shrinks like h^(1/2), its spacing like h): past 2^53 its
        # float index bounds are not exact, and their cast to int64
        # overflowed.  It is refused, naming the axis, before that cast.
        text = (CONFIG_DIR / "sharp_largep_n2_k3.cfg").read_text()
        old = "\nh_start = 2^-4\nh_stop = 2^-10\n"
        assert old in text
        cfg = write_cfg(tmp_path, text.replace(
            old, "\nh_list = 1e-200, 1e-201, 1e-202, 1e-203, 1e-204\n"))
        points = parse_config(cfg).values["family"].cutoff(
            2, 3, 16).box[0].to_axis(1e-200).points
        assert points > 2 ** 335
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out",
                         str(tmp_path / "o")]) == EXIT_REFUSED
        assert (f"refused (GridBudgetError from quasimode): xi1 axis would "
                f"hold {points} points at h=1e-200" in capsys.readouterr().err)

    @pytest.mark.parametrize("error", [
        errors.ResolutionError, errors.EmptySupportError,
        errors.BoxTooSmallError, errors.TailDominanceError,
        errors.GridBudgetError])
    def test_every_refusal_exits_3(self, tmp_path, capsys, monkeypatch, error):
        def refusing(v):
            raise error("over budget")
        monkeypatch.setitem(KINDS, "delta-curves",
                            dataclasses.replace(KINDS["delta-curves"],
                                                run=refusing))
        cfg = write_cfg(tmp_path, DELTA_CFG)
        assert main(["run", str(cfg), "--out",
                     str(tmp_path / "o")]) == EXIT_REFUSED
        assert (f"refused ({error.__name__} from experiments): over budget"
                in capsys.readouterr().err)


VALLEY_CFG = """
[experiment]
id = valley
kind = sharpness-sweep

[params]
family = valley
n = 3
k = 3
h_start = 2^-4
h_stop = 2^-5
"""


class TestValidation:
    def test_dimension_contradicting_family_exits_2(self, tmp_path, capsys):
        text = VALLEY_CFG.replace("n = 3", "n = 2") + "peak_only = true\n"
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "n = 2" in capsys.readouterr().err
        assert not out.exists()

    def test_p_list_without_predicted_slope_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, VALLEY_CFG + "p_list = 8\n")
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "p_list" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_non_integer_n_exits_2(self, tmp_path, capsys):
        text = CONTACT_CFG.replace("n = 3", "n = 2.5") + (
            "\n[symbols]\np1 = x1 - x2^2\np2 = x1\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "n must be an integer, got '2.5'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, key, old, new", [
        ("sharp_largep_n2_k3.cfg", "k", "3", "3.0"),
        ("sharp_largep_n2_k3.cfg", "points_per_scale", "8", "2.5"),
        ("sharp_largep_n2_k3.cfg", "joint_orders", "3", "three"),
        ("vdc_d1.cfg", "j", "2", "2.5"),
        ("vdc_d1.cfg", "d", "1", "1e0"),
        ("delta_curves_n3.cfg", "k_list", "1, 3, 5", "2.5, 3"),
        ("fio_n2_k1.cfg", "orders", "1, 2", "1, 2^1"),
        ("contact_axis_k3.cfg", "expect_orders", "1, 3", "1, 3.0"),
        ("contact_axis_k3.cfg", "expect_orders", "1, 3", ","),
    ])
    def test_non_integer_key_exits_2(self, tmp_path, capsys, config, key,
                                     old, new):
        text = (CONFIG_DIR / config).read_text()
        assert f"\n{key} = {old}\n" in text
        text = text.replace(f"\n{key} = {old}\n", f"\n{key} = {new}\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        what = "a list of integers" if "," in old else "an integer"
        assert f"{key} must be {what}, got '{new}'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_paraboloid_p_below_kink_exits_2(self, tmp_path, capsys):
        # The paraboloid attains delta(n, p, k) only for p >= p0 = 2(n+1)/(n-1).
        text = (CONFIG_DIR / "sharp_largep_n2_k3.cfg").read_text()
        assert "\np_list = inf, 8\n" in text
        text = text.replace("\np_list = inf, 8\n", "\np_list = inf, 6, 4\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "p_list has p = 4 below p0 = 6" in err
        assert not out.exists()
        # A peak-only sweep predicts no Lp slope; at n = 3, p0 = 4.
        peak = text.replace("\np_list = inf, 6, 4\n",
                            "\np_list = inf, 6, 4\npeak_only = true\n")
        assert parse_config(write_cfg(tmp_path, peak)).params["n"] == "2"
        n3 = text.replace("\nn = 2\n", "\nn = 3\n")
        assert parse_config(write_cfg(tmp_path, n3)).params["n"] == "3"

    def test_lp_sweep_beyond_synthesis_dims_exits_2(self, tmp_path, capsys):
        text = (CONFIG_DIR / "sharp_largep_n2_k3.cfg").read_text()
        text = text.replace("\nn = 2\n", "\nn = 5\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "n = 5" in err and f"budget of {MAX_GRID_CELLS}" in err
        assert not out.exists()
        # A peak-only sweep synthesizes nothing on a grid, so n = 5 parses.
        text = text.replace("\nn = 5\n", "\nn = 5\npeak_only = true\n")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.params["n"] == "5"

    @pytest.mark.parametrize("n, margin, orthant, grid", [
        ("4", "16", "128x128x128x128", "256x256x256x256"),
        ("3", "64", "512x512x512", "1024x1024x1024"),
    ])
    def test_lp_sweep_over_grid_budget_exits_2(self, tmp_path, capsys, n,
                                               margin, orthant, grid):
        # The check sizes the orthant the sweep streams, half of each axis
        # on which |u| is even (here every one), against the 2^24 budget.
        text = (CONFIG_DIR / "lp_n4_paraboloid_k3.cfg").read_text()
        assert "\nmargin = 4\npoints_per_scale = 4\n" in text
        text = text.replace("\nn = 4\n", f"\nn = {n}\n").replace(
            "\nmargin = 4\npoints_per_scale = 4\n", f"\nmargin = {margin}\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"streams {orthant} = " in err and f"its {grid} position" in err
        assert f"budget of {MAX_GRID_CELLS}" in err
        assert "n, margin or points_per_scale" in err
        assert not out.exists()

    @pytest.mark.parametrize("n, margin, points", [
        ("5", "4", 32),   # the shipped n = 5 sweep: a 16^5 orthant of 32^5
        ("4", "8", 128),  # the default margin: a 64^4 orthant, 2^24 cells
    ])
    def test_lp_sweep_orthant_within_budget_parses(self, tmp_path, n, margin,
                                                   points):
        # Whole grids over 2^24 cells whose streamed orthant fits parse.
        text = (CONFIG_DIR / "lp_n4_paraboloid_k3.cfg").read_text()
        text = text.replace("\nn = 4\n", f"\nn = {n}\n").replace(
            "\nmargin = 4\npoints_per_scale = 4\n",
            f"\nmargin = {margin}\npoints_per_scale = 4\n")
        if margin == "8":
            text = text.replace("points_per_scale = 4", "points_per_scale = 8")
        v = parse_config(write_cfg(tmp_path, text)).values
        assert points ** v["n"] > MAX_GRID_CELLS >= (points // 2) ** v["n"]

    @pytest.mark.parametrize("margin", ["inf", "0", "-1"])
    def test_lp_sweep_nonpositive_margin_exits_2(self, tmp_path, capsys,
                                                 margin):
        text = (CONFIG_DIR / "lp_n4_paraboloid_k3.cfg").read_text()
        text = text.replace("\nmargin = 4\n", f"\nmargin = {margin}\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"margin must be positive and finite, got '{margin}'" in \
            capsys.readouterr().err
        assert not out.exists()

    # -2^0.5 is complex in Python: a negative base to a fractional power.
    @pytest.mark.parametrize("text", ["1/0", "abc", "2^x", "-2^0.5"])
    def test_malformed_number_exits_2(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path, VALLEY_CFG.replace("h_start = 2^-4",
                                                     f"h_start = {text}"))
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert repr(text) in capsys.readouterr().err
        assert not out.exists()

    # Values a runner's own calls reject once it has made the output
    # directory; each is a config error before it.
    @pytest.mark.parametrize("config, old, new, message", [
        ("sharp_largep_n2_k3.cfg", "k = 3", "k = 2", "odd k"),
        ("contact_uniform_n3_k3.cfg", "k = 3", "k = 4", "odd k"),
        ("wavelet_flat_n2_k3.cfg", "k = 3", "k = 2", "odd k"),
        ("fio_n2_k1.cfg", "n = 2", "n = 1", "n must be >= 2"),
        ("sharp_largep_n2_k3.cfg", "joint_orders = 3", "joint_orders = -1",
         "joint_orders must be >= 0"),
        ("contact_axis_k3.cfg", "max_order = 32", "max_order = 0",
         "max_order must be >= 1"),
        *[("contact_axis_k3.cfg", "directions = 64", f"directions = {value}",
           "directions must be >= 1") for value in ("0", "-3")],
        # 10^8 directions ran past two minutes: the count is bounded.
        *[("contact_axis_k3.cfg", "directions = 64", f"directions = {value}",
           "directions must be >= 1 and <= 4096, got")
          for value in ("4097", "100000000")],
        ("delta_curves_n3.cfg", "k_list = 1, 3, 5", "k_list = 0, 3",
         "k_list must be a list of integers >= 1"),
        ("delta_curves_n3.cfg", "invp_points = 25", "invp_points = 1",
         "invp_points must be >= 2"),
        # Each point is an exact row per k and one more: 10^8 of them ran
        # out of memory after minutes, so the count is bounded up front.
        *[("delta_curves_n3.cfg", "invp_points = 25", f"invp_points = {value}",
           "invp_points must be >= 2 and <= 4096, got")
          for value in ("4097", "100000000")],
        # The rows, one per k and one more at each point, are bounded by
        # the default three k's at 4096 points: 50 odd k there wrote
        # 208,896 rows in 11 s.
        ("delta_curves_n3.cfg", "k_list = 1, 3, 5\ninvp_points = 25",
         "k_list = 1, 3, 5, 7\ninvp_points = 4096",
         "k_list and invp_points give (4 + 1) * 4096 = 20480 exact rows, "
         "over the bound of 16384"),
        ("delta_curves_n3.cfg", "k_list = 1, 3, 5\ninvp_points = 25",
         f"k_list = {', '.join(str(k) for k in range(1, 100, 2))}\n"
         "invp_points = 4096", "(50 + 1) * 4096 = 208896 exact rows"),
        ("delta_curves_n3.cfg", "k_list = 1, 3, 5\ninvp_points = 25",
         f"k_list = {', '.join(str(k) for k in range(1, 2000, 2))}\n"
         "invp_points = 17", "(1000 + 1) * 17 = 17017 exact rows"),
        # The amplitude's scale 2^j h^(1/(k+1)), or its loss rate h^-beta
        # and radius h^(1-beta), must be a positive finite float at every
        # h: past that the run raised OverflowError or ZeroDivisionError.
        *[(config, old, new, f"{new} leaves the amplitude no positive "
           "finite loss rate and support radius at h = ")
          for config, old, new in (
              ("vdc_d1.cfg", "j = 2", "j = 2000"),
              ("vdc_d1.cfg", "j = 2", "j = -2000"),
              ("ttstar_n2.cfg", "j = 0", "j = 2000"),
              ("ttstar_n2.cfg", "j = 0", "j = -2000"))],
        ("vdc_d1_resonant.cfg", "beta = 0.8", "beta = 1e300",
         "beta = 1.0000000000000001e+300 leaves the amplitude no positive "
         "finite loss rate and support radius at h = 0.015625"),
        ("vdc_d1.cfg", "d = 1", "d = 0", "d must be >= 1"),
        ("vdc_d1.cfg", "mu = 1", "mu = -1", "mu must be positive"),
        ("ttstar_n2.cfg", "a = 0.5", "a = 0", "a must be positive"),
        ("wavelet_flat_n2_k3.cfg", "h = 2^-8", "h = 2", "h must be in (0, 1]"),
        ("wavelet_flat_n2_k3.cfg", "x1_spacing = 2^-9", "x1_spacing = 0",
         "x1_spacing must be positive"),
        # Tolerances are finite; a width or slack is also >= 0, a band >= 1.
        ("sharp_largep_n2_k3.cfg", "slope = 0.1", "slope = inf",
         "slope must be >= 0 and finite"),
        ("sharp_largep_n2_k3.cfg", "slope = 0.1", "slope = nan",
         "slope must be >= 0 and finite"),
        ("sharp_smallp_n2.cfg", "slope_p2 = 0.02", "slope_p2 = -0.02",
         "slope_p2 must be >= 0 and finite"),
        ("sharp_largep_n2_k3.cfg", "joint_slack = 3/16", "joint_slack = -1",
         "joint_slack must be >= 0 and finite"),
        ("sharp_largep_n2_k3.cfg", "volume_band = 4.0", "volume_band = 0.5",
         "volume_band must be >= 1 and finite"),
        ("ttstar_n2.cfg", "band = 4.0", "band = inf",
         "band must be >= 1 and finite"),
        ("vdc_d1.cfg", "exponent = 0.1", "exponent = -0.1",
         "exponent must be >= 0 and finite"),
        ("wavelet_flat_n2_k3.cfg", "small_a_min = 1.4", "small_a_min = -inf",
         "small_a_min must be finite"),
        ("wavelet_flat_n2_k3.cfg", "large_a_abs = 0.1", "large_a_abs = nan",
         "large_a_abs must be >= 0 and finite"),
        ("vdc_d1_resonant.cfg", "degraded_below = 0.4",
         "degraded_below = inf", "degraded_below must be finite"),
        ("vdc_d1_resonant.cfg", "beta = 0.8", "beta = nan",
         "beta must be finite"),
        ("vdc_d1_resonant.cfg", "beta = 0.8", "beta = inf",
         "beta must be finite"),
        *[("vdc_d1.cfg", "expect = pass",
           f"expect = pass\nbox_half_width = {value}",
           "box_half_width must be positive and finite")
          for value in ("0", "-1", "nan", "inf")],
        # Counts and orders are >= 1: below that a sweep ran on a grid the
        # config did not ask for, crashed, or passed trivially.
        ("sharp_largep_n2_k3.cfg", "points_per_scale = 8",
         "points_per_scale = -1", "points_per_scale must be >= 1"),
        *[("sharp_largep_n2_k3.cfg", "points_per_scale = 8",
           f"points_per_scale = 8\ncells_per_band = {value}",
           "cells_per_band must be >= 1") for value in ("0", "-4")],
        *[("fio_n2_k1.cfg", "orders = 1, 2", f"orders = {value}",
           "orders must be a list of integers >= 1") for value in ("0", "-1, 1")],
        # Orders the grid cannot carry: at h = 2^-1 a 401-row stencil leaves
        # no interior row of 256 (the M = 200 check passed with measured 0),
        # and h^250 underflows to 0 at h = 2^-5 (the ratio divided by it).
        ("fio_n2_k1.cfg", "h_list = 2^-4, 2^-5\norders = 1, 2",
         "h_list = 2^-1, 2^-2\norders = 1, 200",
         "orders has M = 200, whose 401-row difference stencil leaves no "
         "interior row of the 256 x1 rows at h = 0.5"),
        ("fio_n2_k1.cfg", "orders = 1, 2", "orders = 1, 250",
         "orders has M = 250, and h^M at h = 0.03125 is below the least "
         "normal float"),
        ("wavelet_flat_n2_k3.cfg", "m_order = 1", "m_order = 0",
         "m_order must be >= 1"),
        # A repeated list entry duplicated columns, rows and verdicts, or
        # failed a correct profile's order-set check (predicted 3;3).
        ("sharp_largep_n2_k3.cfg", "p_list = inf, 8", "p_list = 8, 8.0",
         "p_list must give each value once; 8 repeats in '8, 8.0'"),
        ("sharp_largep_n2_k3.cfg", "p_list = inf, 8", "p_list = inf, 8, oo",
         "p_list must give each value once; inf repeats in 'inf, 8, oo'"),
        ("delta_curves_n3.cfg", "k_list = 1, 3, 5", "k_list = 1, 3, 5, 3",
         "k_list must give each value once; 3 repeats in '1, 3, 5, 3'"),
        ("fio_n2_k1.cfg", "orders = 1, 2", "orders = 2, 1, 2",
         "orders must give each value once; 2 repeats in '2, 1, 2'"),
        ("contact_uniform_n3_k3.cfg", "expect_orders = 3",
         "expect_orders = 3, 3",
         "expect_orders must give each value once; 3 repeats in '3, 3'"),
        # The bound is checked first: its message stands.
        ("fio_n2_k1.cfg", "orders = 1, 2", "orders = 0, 0",
         "orders must be a list of integers >= 1"),
        # An Lp sweep's grid needs 4 points per axis: 1 point was an
        # internal error (AxisSpec's "points must be >= 2"), and 2 points,
        # all boundary shell, a refusal at run time.
        *[("lp_n4_paraboloid_k3.cfg", "margin = 4\npoints_per_scale = 4",
           f"margin = {margin}\npoints_per_scale = 1",
           f"margin = {margin} and points_per_scale = 1 give an Lp sweep "
           f"{points} position point(s) per axis; it needs at least 4")
          for margin, points in (("0.5", 1), ("1", 2))],
        # A cell volume that underflows: the quasimode's normalization
        # divided by the square root of a support volume of 0.
        ("wavelet_flat_n2_k3.cfg", "h = 2^-8", "h = 1e-300",
         "h = 1e-300 gives the flat cutoff a cell volume of 0, below the "
         "least normal float"),
        # A decay-table x1 axis with no node in the x1 window (every mass
        # was 0 and the run exited 1), one whose widest scale reaches more
        # than 2^53 of its cells (an OverflowError, exit 4), and one with
        # more cells than a float counts (an OverflowError, exit 4).
        ("wavelet_flat_n2_k3.cfg", "x1_spacing = 2^-9", "x1_spacing = 1e300",
         "x1_half_width = 6 and x1_spacing = 1.0000000000000001e+300 give an "
         "x1 axis whose nodes nearest 0 are at -3 and 3, outside the decay "
         "table's x1 window"),
        ("wavelet_flat_n2_k3.cfg", "x1_half_width = 6",
         "x1_half_width = 1e-300",
         "x1_half_width = 1e-300 and x1_spacing = 0.001953125 give x1 cells "
         "of 1e-300, and the widest scale's windows reach "
         "2.5637499999999997e+302 of them past the data (> 2^53"),
        ("wavelet_flat_n2_k3.cfg", "x1_half_width = 6\nx1_spacing = 2^-9",
         "x1_half_width = 1e300\nx1_spacing = 1e-300",
         "x1_half_width = 1.0000000000000001e+300 and x1_spacing = 1e-300 "
         "give more x1 cells than a float counts"),
        # A fio x1 axis with more cells than a float counts (an
        # OverflowError in fio.x1_axis, exit 4).
        ("fio_n2_k1.cfg", "x1_half_width = 8", "x1_half_width = 1e308",
         "x1_half_width = 1e+308 gives more x1 cells at h = 0.0625 than a "
         "float counts"),
        # A phase that overflows at twice the box (the critical-point search
        # that stepped there raised OverflowError).
        ("vdc_d1.cfg", "d = 1", "d = 1\nbox_half_width = 1e300",
         "overflows the phase mu |xi|^2 / 2 (mu = 1, d = 1) at twice the "
         "box"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, config, old,
                                        new, message):
        text = (CONFIG_DIR / config).read_text()
        assert f"\n{old}\n" in text
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, text.replace(f"\n{old}\n", f"\n{new}\n"))
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("h_list, largest", [("2^-1, 2^-2", 127),
                                                 ("2^-4, 2^-5", 204)])
    def test_fio_orders_bounds_are_sharp(self, tmp_path, h_list, largest):
        # At h = 2^-1 the grid has 256 x1 rows, so 2M < 256 stops at 127;
        # at h = 2^-5, 2^(-5M) stays normal (>= 2^-1022) up to M = 204.
        text = (CONFIG_DIR / "fio_n2_k1.cfg").read_text()
        old = "h_list = 2^-4, 2^-5\norders = 1, 2"
        assert old in text
        for m in (largest, largest + 1):
            cfg = write_cfg(tmp_path, text.replace(
                old, f"h_list = {h_list}\norders = 1, {m}"))
            if m == largest:
                assert parse_config(cfg).values["orders"] == [1, m]
            else:
                with pytest.raises(ConfigError, match=f"orders has M = {m}"):
                    parse_config(cfg)

    def test_underflow_and_overflow_bounds_are_sharp(self, tmp_path):
        # The flat n = 2, k = 3 cutoff's cell volume leaves the normal
        # floats between h = 1e-243 and 1e-244; |xi|^2 at twice the box
        # overflows between box_half_width = 6.70e153 and 6.71e153.
        wavelet = (CONFIG_DIR / "wavelet_flat_n2_k3.cfg").read_text()
        vdc = (CONFIG_DIR / "vdc_d1.cfg").read_text()
        for text, old, ok, over, match in (
                (wavelet, "h = 2^-8", "h = 1e-243", "h = 1e-244",
                 "^h = .* cell volume"),
                (vdc, "d = 1", "d = 1\nbox_half_width = 6.70e153",
                 "d = 1\nbox_half_width = 6.71e153",
                 "^box_half_width = .* overflows the phase")):
            assert f"\n{old}\n" in text
            parse_config(write_cfg(tmp_path, text.replace(
                f"\n{old}\n", f"\n{ok}\n")))
            with pytest.raises(ConfigError, match=match):
                parse_config(write_cfg(tmp_path, text.replace(
                    f"\n{old}\n", f"\n{over}\n")))

    def test_internal_error_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(v):
            raise RuntimeError("runner bug")
        monkeypatch.setitem(KINDS, "delta-curves",
                            dataclasses.replace(KINDS["delta-curves"],
                                                run=broken))
        cfg = write_cfg(tmp_path, DELTA_CFG)
        assert main(["run", str(cfg), "--out",
                     str(tmp_path / "o")]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: runner bug" in err

    @pytest.mark.parametrize("config, old, new, key", [
        # A key no kind reads, in either section.
        ("sharp_largep_n2_k3.cfg", "joint_orders = 3", "joint_order = 9",
         "joint_order"),
        ("vdc_d1.cfg", "exponent = 0.1", "exponnent = 0.1", "exponnent"),
        # Booleans are true or false, choices one of their names.
        ("sharp_largep_n2_k3.cfg", "joint_orders = 3",
         "joint_orders = 3\npeak_only = yes", "peak_only"),
        ("contact_axis_k3.cfg", "expect_uniform = false",
         "expect_uniform = True", "expect_uniform"),
        ("vdc_d1.cfg", "expect = pass", "expect = PASS", "expect"),
        # A malformed number that only the runner used to parse.
        ("vdc_d1.cfg", "mu = 1", "mu = abc", "mu"),
        # A removed key is an unknown one.
        ("sharp_largep_n2_k3.cfg", "joint_orders = 3",
         "joint_orders = 3\ncheck_peak_slope = true", "check_peak_slope"),
        # A misspelt section, and unknown [experiment] keys.
        ("sharp_largep_n2_k3.cfg", "[tolerances]", "[tolerance]",
         "[tolerance]"),
        ("delta_curves_n3.cfg", "[params]", "[param]", "[param]"),
        ("sharp_largep_n2_k3.cfg", "seed = 1234", "sede = 3", "sede"),
        ("sharp_largep_n2_k3.cfg", "seed = 1234", "seed = 1234\nidd = foo",
         "idd"),
    ], ids=["unknown-param", "unknown-tolerance", "bool-yes", "bool-True",
            "choice-PASS", "number-abc", "removed-check_peak_slope",
            "section-tolerance", "section-param",
            "experiment-sede", "experiment-idd"])
    def test_bad_or_unknown_key_exits_2(self, tmp_path, capsys, config, old,
                                         new, key):
        text = (CONFIG_DIR / config).read_text()
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["paraboloid", "slab", "flat"])
    def test_sweep_without_n_exits_2(self, tmp_path, capsys, family):
        # These families fix no dimension, so a sweep of one must give n.
        text = (CONFIG_DIR / "sharp_largep_n2_k3.cfg").read_text()
        text = text.replace("\nfamily = paraboloid\nn = 2\n",
                            f"\nfamily = {family}\npeak_only = true\n")
        assert "\nn = " not in text and "\npeak_only = true\n" in text
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "missing parameter 'n'" in err and repr(family) in err
        assert not out.exists()

    def test_sweep_n_defaults_to_family_dimension(self, tmp_path):
        text = (CONFIG_DIR / "peak_valley_n3.cfg").read_text()
        assert "\nn = 3\n" in text
        cfg = parse_config(write_cfg(tmp_path, text.replace("\nn = 3\n", "\n")))
        assert "n" not in cfg.params and cfg.values["n"] == 3

    @pytest.mark.parametrize("old, new, key", [
        ("separation = 2^-3", "separation = 1", "separation"),
        ("separation = 2^-3", "separation = 2", "separation"),
        ("h_start = 2^-8", "h_start = 1", "h_start"),
        ("separation = 2^-3", "separation = 0.999", "separation"),
    ], ids=["separation-1", "separation-2", "h_start-1", "separation-0.999"])
    def test_ttstar_disjoint_windows_exit_2(self, tmp_path, capsys, old, new,
                                            key):
        # At a = 0.5 the windows, of half-width a, no longer overlap from a
        # separation of 1 on, and just below it (0.999) their overlap sums
        # to 0.0 on the kernel's nodes: the kernel is exactly 0 and the
        # band ratios would divide by it.
        text = (CONFIG_DIR / "ttstar_n2.cfg").read_text()
        assert f"\n{old}\n" in text and "\na = 0.5\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {key} gives a separation of" in err
        assert "2*a*support_halfwidth = 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, section, line", [
        ("vdc_d1.cfg", "params", "margin = 8"),
        ("delta_curves_n3.cfg", "params", "h_list = 2^-4, 2^-5"),
        ("fio_n2_k1.cfg", "params", "p_list = inf"),
        ("vdc_d1.cfg", "tolerances", "slope = 0.1"),
        ("sharp_largep_n2_k1.cfg", "symbols", "p1 = x1 - x2^2"),
    ], ids=["vdc-margin", "delta-h_list", "fio-p_list", "vdc-slope",
            "sweep-p1"])
    def test_key_of_another_kind_exits_2(self, tmp_path, capsys, config,
                                         section, line):
        # Each key is read by some kind, but not by this config's kind.
        text = (CONFIG_DIR / config).read_text()
        if f"[{section}]" not in text:
            text += f"\n[{section}]\n"
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        out = tmp_path / "o"
        assert main(["run", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        key = line.split(" =")[0]
        assert f"[{section}] key {key!r} is not read by" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_quadrature_over_point_budget_exits_3(self, tmp_path, capsys):
        # d = 2 needs 29,336^2 nodes at h = 2^-12; the budget refuses at the
        # first h over 2^24 nodes in place of running for minutes.
        text = (CONFIG_DIR / "vdc_d1.cfg").read_text()
        assert "\nd = 1\n" in text
        cfg = write_cfg(tmp_path, text.replace("\nd = 1\n", "\nd = 2\n"))
        start = time.monotonic()
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_REFUSED
        assert time.monotonic() - start < 30.0
        err = capsys.readouterr().err
        assert "from oscint" in err and f"{MAX_QUAD_POINTS} in all" in err

    def test_grid_budget_refusal_exits_3(self, tmp_path, capsys):
        text = (CONFIG_DIR / "fio_n2_k1.cfg").read_text()
        assert "\nx1_half_width = 8\n" in text
        text = text.replace("\nx1_half_width = 8\n", "\nx1_half_width = 2^14\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_REFUSED
        err = capsys.readouterr().err
        assert "from quasimode" in err and str(MAX_GRID_CELLS) in err

    @pytest.mark.parametrize("name, old, new, error, match", [
        ("fio_n2_k1.cfg", "x1_half_width = 8", "x1_half_width = 2^14",
         errors.GridBudgetError, "aligned position grid would hold"),
        ("wavelet_flat_n2_k3.cfg", "x1_spacing = 2^-9", "x1_spacing = 2^-15",
         errors.GridBudgetError, "aligned position grid would hold"),
        ("sharp_largep_n2_k3.cfg", "joint_orders = 3",
         "joint_orders = 16777216", errors.GridBudgetError,
         "joint ratio matrix would hold"),
        ("vdc_d2.cfg", "d = 2", "d = 5", errors.ResolutionError,
         "at least 33 points per axis"),
    ])
    def test_grid_budget_refused_before_allocation(self, tmp_path, name, old,
                                                   new, error, match):
        # 2^28 and 2^25 aligned position cells: the budget is checked before
        # the flattening check's x1 nodes or the decay table's window and
        # band, each sized by the grid's x1 rows, are allocated.  The joint
        # check's (2^24 + 1)^2 ratio matrix and its power columns are
        # checked before either is allocated (2 PiB).
        # The quadrature's least 33^5 nodes in d = 5 are refused before its
        # gradient probe builds a 33^5-node mesh (several GB).
        text = (CONFIG_DIR / name).read_text()
        assert f"\n{old}\n" in text
        cfg = parse_config(write_cfg(tmp_path, text.replace(f"\n{old}\n",
                                                            f"\n{new}\n")))
        tracemalloc.start()
        try:
            with pytest.raises(error, match=match):
                experiments.run_experiment(cfg, tmp_path / "o")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bar_grid_budget_refusal_exits_3(self, tmp_path, capsys,
                                             monkeypatch):
        # A peak-only sweep has no position grid for the config check to
        # size, so its cutoff's bar grid is checked as it is built: here the
        # first one of the shipped valley sweep, one cell over the budget.
        path = CONFIG_DIR / "peak_valley_n3.cfg"
        v = parse_config(path).values
        assert v["peak_only"]
        h = v["h_sweep"][0]
        spec = v["family"].cutoff(v["n"], v["k"], v["cells_per_band"])
        bar_axes = quasimode.build_cutoff(spec, h).axes[1:]
        # The evaluated grid: the upper half of the closed xi3 only.
        assert spec.closed == (False, True)
        cells = bar_axes[0].points * (bar_axes[1].points
                                      - bar_axes[1].points // 2)
        monkeypatch.setattr(quasimode, "MAX_GRID_CELLS", cells - 1)
        out = str(tmp_path / "o")
        assert main(["run", str(path), "--out", out]) == EXIT_REFUSED
        err = capsys.readouterr().err
        assert "GridBudgetError from quasimode" in err
        assert f"{cells} cells" in err


_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Config number text: anything from the grammar's characters, and the three
# forms the grammar knows with float operands.
_NUMBER_TEXT = st.one_of(
    st.text(alphabet="0123456789.-+e^/inf ", max_size=12),
    st.builds(repr, _FINITE),
    st.builds(lambda a, b, op: f"{a!r}{op}{b!r}", _FINITE, _FINITE,
              st.sampled_from("^/")))
# Integers a float holds exactly, so a/b of them is rounded once by both
# grammars.
_EXACT_INT = st.integers(-2 ** 53, 2 ** 53)


def float_grammar(text: str) -> float:
    """The float grammar configs were read with before parse_number, kept as
    its oracle: each form evaluated in float arithmetic, so a decimal over a
    decimal or a power of a base other than 2 may round twice."""
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


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestNumberProperties:
    @_PROPERTY
    @given(text=_NUMBER_TEXT)
    def test_accepted_numbers_are_real_floats(self, text):
        # Exact rationals, or floats where no Fraction holds the value:
        # never complex.
        try:
            value = parse_number(text)
        except (ValueError, ArithmeticError):
            return
        assert type(value) in (Fraction, float)

    @_PROPERTY
    @given(base=st.floats(max_value=-1e-300, allow_infinity=False),
           exp=_FINITE.filter(lambda b: b != int(b)))
    def test_negative_base_fractional_power_rejected(self, base, exp):
        # A ValueError, or an OverflowError where the complex power overflows.
        with pytest.raises((ValueError, ArithmeticError)):
            parse_number(f"{base!r}^{exp!r}")

    @_PROPERTY
    @given(text=_NUMBER_TEXT)
    def test_accepts_what_the_float_grammar_accepts(self, text):
        try:
            float_grammar(text)
            expected = True
        except ConfigError:
            expected = False
        try:
            parse_number(text)
            accepted = True
        except (ValueError, ArithmeticError):
            accepted = False
        assert accepted == expected

    @_PROPERTY
    @given(text=st.one_of(
        st.builds(repr, st.floats()),
        st.builds(lambda a, b: f"{a}/{b}", _EXACT_INT, _EXACT_INT),
        st.builds(lambda e: f"2^{e}", st.integers(-1200, 1200))))
    def test_floats_equal_the_float_grammar(self, text):
        # On repr(float), int/int and 2^int texts (every number the shipped
        # and bench configs write) float arithmetic rounds once, so the two
        # grammars give the same bits.
        try:
            expected = float_grammar(text)
        except ConfigError:
            with pytest.raises((ValueError, ArithmeticError)):
                parse_number(text)
            return
        assert _bits(float(parse_number(text))) == _bits(expected)

    @pytest.mark.parametrize("text, value", [
        ("2^3", Fraction(8)), ("16/3", Fraction(16, 3)), ("1.5/2", Fraction(3, 4)),
        ("1e-3", Fraction(1, 1000)), ("2^-8", Fraction(1, 256)),
        ("4^0.5", Fraction(2)), ("0.25^-1.5", Fraction(8)), ("-2^3", Fraction(-8)),
        ("0e999999999", Fraction(0)), ("1^1e300", Fraction(1))])
    def test_exact_values(self, text, value):
        assert type(parse_number(text)) is Fraction
        assert parse_number(text) == value

    def test_fmt_keeps_the_sign_of_infinity(self):
        assert experiments.fmt(-math.inf) == "-inf"
        assert experiments.fmt(INF_P) == "inf"

    @pytest.mark.parametrize("text, value", [
        ("2^0.5", math.sqrt(2)), ("1e-400", 0.0), ("2^-1075", 0.0),
        ("-0", -0.0), ("Inf", math.inf), ("oo", math.inf), ("-inf", -math.inf)])
    def test_float_values(self, text, value):
        got = parse_number(text)
        assert type(got) is float and _bits(got) == _bits(value)

    # Each would build an exact power of 10^300 or 10^99999999 digits, or of
    # 3.4e10 bits for 1.0000000001^1e9, if the float did not come first.
    @pytest.mark.parametrize("text", [
        "2^-1e300", "1e300^1e300", "10^99999999", "0.5^1e300",
        "1.0000000001^1e9", "1e-999999999", "0e999999999", "1e999999999/3"])
    def test_hostile_text_returns_within_a_second(self, text):
        start = time.monotonic()
        try:
            parse_number(text)
        except (ValueError, ArithmeticError):
            pass
        assert time.monotonic() - start < 1.0


# Start-up as one CLI run sees it: the scipy modules loaded after the import,
# the wavelet, the parse of every shipped config and one non-wavelet run, then
# after a run of the wavelet config, whose transform is numpy alone.
STARTUP_CHILD = """
import json, sys
from pathlib import Path
import quasilab.cli
from quasilab import experiments, wavelets
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
scipy_mods = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
wavelets.make_mother_wavelet()
for path in sorted(configs.glob("*.cfg")):
    experiments.parse_config(path)
for stem in ("sharp_smallp_n2", "wavelet_flat_n2_k3"):
    cfg = experiments.parse_config(configs / f"{stem}.cfg")
    experiments.run_experiment(cfg, out / stem)
    print(json.dumps(scipy_mods()))
"""


class TestStartup:
    def test_no_scipy_through_a_transform(self, tmp_path):
        src = str(Path(quasilab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", STARTUP_CHILD, str(CONFIG_DIR),
             str(tmp_path)], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True)
        before_cwt, after_cwt = map(json.loads, run.stdout.splitlines())
        assert before_cwt == []
        assert after_cwt == []


class TestOtherVerbs:
    def test_list_contains_templates(self, capsys):
        assert main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        for t in TEMPLATES:
            assert t.template_id in out
        assert "verifies" in out

    def test_list_table_helper(self):
        text = list_experiments()
        assert "sharp-largep-n2-k1" in text and "vdc-d1" in text

    def test_delta_verb(self, capsys):
        assert main(["delta", "--family", "contact", "--n", "3", "--p", "inf",
                     "--k", "1"]) == EXIT_OK
        assert "1/2" in capsys.readouterr().out

    def test_delta_power_p_prints_as_integer_p(self, capsys):
        outs = []
        for p in ("2^3", "8"):
            assert main(["delta", "--family", "contact", "--n", "3", "--p", p,
                         "--k", "1"]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith("delta = ")

    @pytest.mark.parametrize("p", ["2^0.5", "nan", "-inf", "1/0", "10^400"])
    def test_delta_rejects_unreadable_p(self, capsys, p):
        assert main(["delta", "--family", "contact", "--n", "3", f"--p={p}",
                     "--k", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_delta_rejects_bad_p(self, capsys):
        assert main(["delta", "--family", "contact", "--n", "3", "--p", "1",
                     "--k", "1"]) == EXIT_CONFIG

    def test_contact_verb(self, tmp_path, capsys):
        p1 = tmp_path / "p1.txt"
        p2 = tmp_path / "p2.txt"
        p1.write_text("x1 - x2^2 - x3^2\n")
        p2.write_text("x1 - 2*x2^2 - x3^2 - x3^4\n")
        assert main(["contact", "--p1", str(p1), "--p2", str(p2)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "uniform: False" in out
        assert "[1, 3]" in out

    def test_contact_verb_decimal_over_integer(self, tmp_path, capsys):
        p1 = tmp_path / "p1.txt"
        p2 = tmp_path / "p2.txt"
        p1.write_text("x1 - 1.5/2*x2^2\n")
        p2.write_text("x1 - x2^2 - x2^4\n")
        assert main(["contact", "--p1", str(p1), "--p2", str(p2)]) == EXIT_OK
        assert "a1 = 3/4*x1^2" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_contact_rejects_nonpositive_directions(self, tmp_path, capsys,
                                                    count):
        p1 = tmp_path / "p1.txt"
        p2 = tmp_path / "p2.txt"
        p1.write_text("x1 - x2^2 - x3^2\n")
        p2.write_text("x1 - 2*x2^2 - x3^2 - x3^4\n")
        assert main(["contact", "--p1", str(p1), "--p2", str(p2),
                     "--directions", count]) == EXIT_CONFIG
        assert "--directions must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["4097", "100000000"])
    def test_contact_rejects_too_many_directions(self, tmp_path, capsys,
                                                 count):
        # 10^8 directions ran past two minutes: the count is bounded.
        p1 = tmp_path / "p1.txt"
        p2 = tmp_path / "p2.txt"
        p1.write_text("x1 - x2^2 - x3^2\n")
        p2.write_text("x1 - 2*x2^2 - x3^2 - x3^4\n")
        assert main(["contact", "--p1", str(p1), "--p2", str(p2),
                     "--directions", count]) == EXIT_CONFIG
        assert "--directions must be >= 1 and <= 4096" in \
            capsys.readouterr().err

    def test_contact_rejects_nongraph(self, tmp_path, capsys):
        p1 = tmp_path / "p1.txt"
        p2 = tmp_path / "p2.txt"
        p1.write_text("x1^2 - x2\n")
        p2.write_text("x1 - x2^2\n")
        assert main(["contact", "--p1", str(p1), "--p2", str(p2)]) == EXIT_CONFIG

    def test_contact_rejects_one_dimensional_symbols(self, tmp_path, capsys):
        # Both are affine in x1; what they lack is a bar variable.
        p1 = tmp_path / "p1.txt"
        p2 = tmp_path / "p2.txt"
        p1.write_text("x1\n")
        p2.write_text("x1 + 1/2\n")
        assert main(["contact", "--p1", str(p1), "--p2", str(p2)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no bar variable" in err and "n >= 2" in err
        assert "not affine" not in err


def documented_keys() -> dict:
    """{kind: {(section, key): default}} from the tables of docs/formats.md:
    a default in backticks is config text, `empty` the empty text,
    `required` REQUIRED, and any other words describe a rule (None)."""
    text = (CONFIG_DIR.parent / "docs" / "formats.md").read_text()
    tables = {}
    for block in text.split("## Config keys by kind\n")[1].split("\n### ")[1:]:
        kind, *lines = block.splitlines()
        rows = [line.strip("|").split("|") for line in lines
                if line.startswith("| ") and not line.startswith("| section")]
        defaults = {"required": experiments.REQUIRED, "empty": ""}
        tables[kind] = {
            (section.strip(), key.strip()):
            default.strip()[1:-1] if default.strip().startswith("`")
            else defaults.get(default.strip())
            for section, key, default, _ in rows}
    return tables


class TestSchema:
    def test_docs_list_every_key_and_default(self):
        schema = {name: {(section, key): spec.default
                         for section in ("params", "tolerances", "symbols")
                         for key, spec in getattr(kind, section).items()}
                  for name, kind in KINDS.items()}
        assert documented_keys() == schema

    def test_docs_name_each_kinds_table(self):
        # One "### <kind>: `<table>.csv`" heading per kind, naming its table.
        text = (CONFIG_DIR.parent / "docs" / "formats.md").read_text()
        headings = re.findall(r"^### (\S+): `([^`]+)`$", text, re.M)
        assert sorted(headings) == sorted(
            (name, f"{kind.table}.csv") for name, kind in KINDS.items())


class TestShippedConfigs:
    @pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.template_id)
    def test_all_templates_parse(self, template):
        cfg = parse_config(CONFIG_DIR / template.config_file)
        assert cfg.kind == template.kind
        assert cfg.experiment_id == template.template_id

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_run_writes_report_and_one_table(self, tmp_path, kind):
        # The first shipped config of the kind; the layout bench/check.py reads.
        template = next(t for t in TEMPLATES if t.kind == kind)
        out = tmp_path / "o"
        run_experiment(parse_config(CONFIG_DIR / template.config_file), out)
        table = KINDS[kind].table
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["report.json", f"{table}.csv"])
        report = json.loads((out / "report.json").read_text())
        assert report["tables"] == {table: f"{table}.csv"}

    def test_symbol_validation(self, tmp_path):
        text = CONTACT_CFG + "\n[symbols]\np1 = x1 +\np2 = x1\n"
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, text))


def _columns(path: Path) -> dict[str, list]:
    """A CSV table's columns, each cell a flag or a float (17 significant
    digits give back the double that was written)."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    flags = {"true": True, "false": False}
    return {name: [flags[c] if c in flags else float(c) for c in column]
            for name, column in zip(header, zip(*rows))}


def _spread(column) -> float:
    return max(column) / min(column)


def _sweep_measured(c: dict) -> dict:
    vols = c["volume"]
    fits = {f"lp-slope-p{name[len('norm_p'):]}": column
            for name, column in c.items() if name.startswith("norm_p")}
    fits["peak-slope"] = c["peak"]
    return {"volume-band": _spread(c["volume_ratio"]),
            "peak-identity": max(c["t0_rel_err"]),
            "joint-quasimode-ratio": max(c["joint_ratio_max"]),
            "volume-monotone": float(all(b < a for a, b in zip(vols, vols[1:]))),
            **{name: fit_scaling(c["h"], column, 0.0, 0.0).slope
               for name, column in fits.items()}}


def _ttstar_measured(c: dict) -> dict:
    return {"vdc-regime-band": _spread(c["ratio_vdc"]),
            "trivial-regime-band": _spread(c["ratio_trivial"]),
            "trivial-bound-holds": float(all(c["trivial_bound_ok"]))}


def _wavelet_measured(c: dict) -> dict:
    levels = int(max(c["j"])) + 1
    a = np.array(c["a"][::levels])
    mass = np.reshape(c["value"], (len(a), levels))

    def slope(mask):   # log N(a, 0) against log a
        return _fit_line(np.log(a[mask]),
                         np.log(np.maximum(mass[mask, 0], 1e-300)))[0]
    return {"small-a-exponent": slope(a <= min(a.min() * 8, 1.0) + 1e-12),
            "large-a-exponent": slope(a >= max(a.max() / 8, 1.0) - 1e-12),
            "j-decay-ratio": max((row[j + 1] / row[j] for row in mass.tolist()
                                  for j in range(1, levels - 1) if row[j] > 0),
                                 default=0.0)}


class TestReportsMatchTables:
    # Each verdict's measured value, re-derived from the columns of the CSV
    # the run wrote, has report.json's text; the disjoint-window kernel is
    # the one verdict that reads no column.
    DERIVE = {"sharpness-sweep": _sweep_measured,
              "ttstar-kernel": _ttstar_measured,
              "wavelet-diagnostic": _wavelet_measured}

    @pytest.mark.parametrize("config", [
        "sharp_smallp_n2", "peak_valley_n3", "ttstar_n2", "wavelet_flat_n2_k3"])
    def test_measured_values_reduce_the_table(self, tmp_path, config):
        cfg = parse_config(CONFIG_DIR / f"{config}.cfg")
        run_experiment(cfg, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        derived = self.DERIVE[cfg.kind](
            _columns(tmp_path / f"{KINDS[cfg.kind].table}.csv"))
        measured = {v["name"]: v["measured"] for v in report["verdicts"]}
        measured.pop("disjoint-window-zero", None)
        assert measured == {name: experiments.fmt(derived[name])
                            for name in measured}


def _mutations(section: str, values: Callable[[str], list[str]]
               ) -> list[tuple[str, str, str]]:
    """(config, line, replacement): each `[section]` line of each shipped
    config, key = ..., set to each of values(key) that changes the line."""
    out = []
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        text = path.read_text()
        if f"\n[{section}]\n" not in text:
            continue
        block = text.split(f"\n[{section}]\n", 1)[1].split("\n[", 1)[0]
        for line in block.splitlines():
            key = line.partition("=")[0].strip()
            out += [(path.name, line, f"{key} = {v}") for v in values(key)
                    if line and line != f"{key} = {v}"]
    return out


_SMALL = ["-1", "0", "0.5", "1", "2"]

# A seeded sample of the 488 `[params]` mutations to -1, 0, 0.5, 1 and 2
# (and `separation` to 0.999), which all together take about 20 s in
# process.  The TT* separation just under the windows' reach is always in
# it: its overlap sums to 0.0, which once divided by zero after the output
# directory was made.  A second seeded sample takes every `[params]` line
# to inf and nan and every `[tolerances]` line to all seven values: an
# infinite tolerance once passed every verdict.
_FUZZ_ALWAYS = ("ttstar_n2.cfg", "separation = 2^-3", "separation = 0.999")
_FUZZ = [_FUZZ_ALWAYS] + random.Random(0).sample(
    [m for m in _mutations("params", lambda key: _SMALL + (
        ["0.999"] if key == "separation" else []))
     if m != _FUZZ_ALWAYS], 39) + random.Random(0).sample(
    _mutations("params", lambda key: ["inf", "nan"])
    + _mutations("tolerances", lambda key: _SMALL + ["inf", "nan"]), 20)


class TestConfigFuzz:
    @pytest.mark.parametrize("config, old, new", _FUZZ,
                             ids=[f"{c[:-4]}:{n.replace(' ', '')}"
                                  for c, _, n in _FUZZ])
    def test_mutated_config_ends_in_a_defined_way(self, tmp_path, config, old,
                                                  new):
        # A run ends in 0 (verdicts pass), 1 (a verdict failed, on record in
        # report.json), 2 (a config error, before any output) or 3 (a
        # refusal); never in 4, an internal error.
        text = (CONFIG_DIR / config).read_text()
        assert f"\n{old}\n" in text
        out = tmp_path / "o"
        code = main(["run", str(write_cfg(tmp_path, text.replace(
            f"\n{old}\n", f"\n{new}\n"))), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_VERDICT_FAIL, EXIT_CONFIG, EXIT_REFUSED)
        if code == EXIT_CONFIG:
            assert not out.exists()
        if code in (EXIT_OK, EXIT_VERDICT_FAIL):
            report = json.loads((out / "report.json").read_text())
            assert report["passed"] == (code == EXIT_OK)
            assert all(v["passed"] for v in report["verdicts"]) == report["passed"]

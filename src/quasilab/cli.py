"""Command-line entry point.

Verbs: run <config> [--out DIR], list, delta --family ... , contact --p1
FILE --p2 FILE.  Exit codes: 0 all verdicts pass, 1 a verdict failed,
2 config parse/validation error, 3 a module refused (a RefusalError:
resolution, empty support, box, tail or grid-budget trouble) with the
refusing module named, 4 an internal error: any other exception from
parsing or running a config, printed with its traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import EXPONENTS, exponent, parse_p
from .errors import ConfigError, QuasilabError, RefusalError
from .experiments import (_MAX_DIRECTIONS, EXIT_CONFIG, EXIT_INTERNAL,
                          EXIT_OK, EXIT_REFUSED, EXIT_VERDICT_FAIL,
                          list_experiments, parse_config, run_experiment)
from .symbols import (contact_profile, format_symbol, graph_factor,
                      parse_symbol, sample_directions)


def _raising_module(err: BaseException) -> str:
    """Deepest in-package module on the traceback: the one that refused."""
    name = "quasilab"
    tb = err.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("quasilab."):
            name = mod.rsplit(".", 1)[-1]
        tb = tb.tb_next
    return name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasilab",
        description="Joint-quasimode laboratory: exponent formulas, cutoff "
                    "sweeps, and decay diagnostics")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a .cfg experiment file")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: reports/<id>)")

    sub.add_parser("list", help="list built-in experiment templates")

    p_delta = sub.add_parser("delta", help="evaluate a growth exponent")
    p_delta.add_argument("--family", choices=EXPONENTS, default="contact")
    p_delta.add_argument("--n", type=int, required=True)
    p_delta.add_argument("--p", required=True,
                         help="Lebesgue exponent >= 2: a/b, b^e, a decimal or inf")
    p_delta.add_argument("--k", type=int, default=None, help="contact order")
    p_delta.add_argument("--r", type=int, default=None, help="operator count")
    p_delta.add_argument("--d", type=int, default=None,
                         help="submanifold dimension")

    p_contact = sub.add_parser("contact",
                               help="contact profile of two graph symbols")
    p_contact.add_argument("--p1", required=True, help="file with symbol text")
    p_contact.add_argument("--p2", required=True, help="file with symbol text")
    p_contact.add_argument("--n", type=int, default=None,
                           help="ambient dimension (default: inferred)")
    p_contact.add_argument("--max-order", type=int, default=32)
    p_contact.add_argument("--directions", type=int, default=64)
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = parse_config(args.config)
        outdir = args.out or cfg.out or str(Path("reports") / cfg.experiment_id)
        result = run_experiment(cfg, outdir)
    except ConfigError as err:   # only parse_config raises it
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except RefusalError as err:
        print(f"refused ({type(err).__name__} from {_raising_module(err)}): "
              f"{err}", file=sys.stderr)
        return EXIT_REFUSED
    except Exception:
        import traceback   # here, so that start-up does not pay for it
        traceback.print_exc()
        return EXIT_INTERNAL
    for v in result.verdicts:
        print(v.line())
    print(f"report: {Path(outdir) / 'report.json'}")
    return EXIT_OK if result.passed else EXIT_VERDICT_FAIL


def _cmd_delta(args) -> int:
    try:
        val = exponent(args.family, args.n, parse_p(args.p),
                       d=args.d, r=args.r, k=args.k)
    except (ValueError, ArithmeticError, QuasilabError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"delta = {val} = {float(val):.12g}")
    return EXIT_OK


def _cmd_contact(args) -> int:
    if not 1 <= args.directions <= _MAX_DIRECTIONS:
        print(f"error: --directions must be >= 1 and <= {_MAX_DIRECTIONS}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        texts = [Path(f).read_text().strip() for f in (args.p1, args.p2)]
        dim = args.n if args.n is not None else max(
            parse_symbol(t).dim for t in texts)
        p1, p2 = (parse_symbol(t, dim=dim) for t in texts)
        g1, g2 = graph_factor(p1), graph_factor(p2)
        if not g1.valid or not g2.valid:
            print(f"error: symbols must be graphs c*(x1 - a(x2..xn)) "
                  f"({g1.note or g2.note})", file=sys.stderr)
            return EXIT_CONFIG
        dirs = sample_directions(p1.dim - 1, args.directions)
        profile = contact_profile(g1.a, g2.a, dirs, args.max_order)
    except (OSError, ValueError, QuasilabError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"a1 = {format_symbol(g1.a)}")
    print(f"a2 = {format_symbol(g2.a)}")
    orders = profile.orders()
    finite = sorted({o for o in orders if not math.isinf(o)})
    print(f"directions sampled: {len(orders)}")
    print(f"orders seen: {finite if finite else 'all infinite'}")
    print(f"uniform: {profile.uniform}")
    for rep in profile.reports[: 8]:
        lead = rep.leading_coefficient
        print(f"  v={tuple(str(Fraction(c)) for c in rep.direction)} "
              f"order={rep.order} leading={lead}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb == "list":
        print(list_experiments())
        return EXIT_OK
    return {"run": _cmd_run, "delta": _cmd_delta,
            "contact": _cmd_contact}[args.verb](args)


if __name__ == "__main__":
    sys.exit(main())

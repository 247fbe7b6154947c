"""Exact symbol algebra, graph factorization, and contact geometry."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasilab import families
from quasilab.errors import DimensionMismatchError, SymbolParseError
from quasilab.symbols import (INFINITE, PolySymbol, mixed_partials_check,
                              contact_profile, curvature_check, format_symbol,
                              graph_factor, parse_symbol, sample_directions)

F = Fraction


def bar(p):
    """Drop x1 from a graph-symbol pair and return the bar graphs."""
    return graph_factor(p).a


def lift_graph(form, dim):
    """Rebuild c*(x1 - a) in the ambient dimension from a graph factor."""
    x1 = PolySymbol.variable(1, dim)
    a_lifted = PolySymbol(dim, {(0,) + m: c for m, c in form.a.coeffs.items()})
    return (x1 - a_lifted) * form.xi1_coeff


class TestParseFormat:
    def test_round_trip(self):
        p = parse_symbol("3/2*x1^2*x3 - x2", dim=3)
        assert format_symbol(p) == "3/2*x1^2*x3 - x2"
        assert parse_symbol(format_symbol(p), dim=3) == p

    def test_whitespace_and_signs(self):
        p = parse_symbol(" - x1 +  2 * x2 ^ 3".replace(" ", ""), dim=2)
        assert p == parse_symbol("-x1 + 2*x2^3", dim=2)

    def test_decimal_coefficients_exact(self):
        p = parse_symbol("0.5*x1", dim=1)
        assert p.coeffs[(1,)] == F(1, 2)

    def test_coefficients_in_the_number_grammar(self):
        p = parse_symbol("0.75/2*x1 - 1e-3*x2^2 + 2^-3", dim=2)
        assert p.coeffs == {(1, 0): F(3, 8), (0, 2): F(-1, 1000),
                            (0, 0): F(1, 8)}

    @pytest.mark.parametrize("factor", ["inf", "nan", "2^0.5", "1/0", "x0"])
    def test_non_rational_factor_rejected(self, factor):
        with pytest.raises(SymbolParseError, match="x1..xn or a finite rational"):
            parse_symbol(f"x1 - {factor}*x2", dim=2)

    def test_dim_inference(self):
        assert parse_symbol("x3").dim == 3

    def test_errors(self):
        with pytest.raises(SymbolParseError):
            parse_symbol("x1 + ", dim=1)
        with pytest.raises(SymbolParseError):
            parse_symbol("y1", dim=1)
        with pytest.raises(SymbolParseError):
            parse_symbol("x3", dim=2)

    def test_canonical_zero(self):
        assert format_symbol(parse_symbol("x1 - x1", dim=1)) == "0"

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(1, 4).flatmap(lambda dim: st.builds(
        PolySymbol, st.just(dim),
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * dim),
                        st.fractions(max_denominator=50),
                        max_size=6))))
    def test_round_trip_property(self, p):
        assert parse_symbol(format_symbol(p), dim=p.dim) == p


class TestEval:
    def test_origin_on_characteristic_set(self):
        p1, _ = families.paraboloid_pair(3, 1)
        assert p1.eval((0, 0, 0)) == 0

    def test_direct_point(self):
        # 1 - 1 = 0 on the paraboloid.
        p1, _ = families.paraboloid_pair(3, 1)
        assert p1.eval((1, 1, 0)) == 0

    def test_perturbed_symbol_point(self):
        # p2(0, 1) = -(1 - 1) = 0 for the n=2, k=3 pair.
        _, p2 = families.paraboloid_pair(2, 3)
        assert p2.eval((0, 1)) == 0

    def test_exact_rational(self):
        p = parse_symbol("1/3*x1^2", dim=1)
        out = p.eval((F(1, 2),))
        assert isinstance(out, Fraction) and out == F(1, 12)

    def test_float_path(self):
        p = parse_symbol("x1^2", dim=1)
        assert p.eval((0.5,)) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            parse_symbol("x1", dim=1).eval((1, 2))

    def test_eval_grid_matches_eval(self):
        p = parse_symbol("x1^2*x2 - 2*x2^3", dim=2)
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((50, 2))
        grid = p.eval_grid([pts[:, 0], pts[:, 1]])
        for i in range(50):
            assert grid[i] == pytest.approx(p.eval(tuple(pts[i])), rel=1e-12)


class TestGraphFactor:
    def test_paraboloid_already_graph(self):
        p1, _ = families.paraboloid_pair(3, 3)
        g = graph_factor(p1)
        assert g.valid and g.xi1_coeff == 1
        assert format_symbol(g.a) == "x1^2 + x2^2"

    def test_not_affine(self):
        g = graph_factor(parse_symbol("x1^2 - x2", dim=2))
        assert not g.valid and "not affine" in g.note

    def test_no_x1(self):
        g = graph_factor(parse_symbol("x2^2", dim=2))
        assert not g.valid

    def test_valley_graph(self):
        _, q2 = families.valley_pair()
        g = graph_factor(q2)
        x1 = PolySymbol.variable(1, 2)
        x2 = PolySymbol.variable(2, 2)
        expected = (x1 ** 2 + x2 ** 2 - (x1 - x2 ** 2) ** 2 - x1 ** 10)
        assert g.valid and g.a == expected

    def test_resubstitution_exact(self):
        rng = random.Random(42)
        for _ in range(25):
            dim = rng.choice((2, 3))
            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                mono = (0,) + tuple(rng.randint(0, 3) for _ in range(dim - 1))
                coeffs[mono] = F(rng.randint(-9, 9), rng.randint(1, 9))
            c1 = F(rng.choice([-3, -1, 1, 2, 5]))
            mono1 = (1,) + (0,) * (dim - 1)
            coeffs[mono1] = coeffs.get(mono1, F(0)) + c1
            p = PolySymbol(dim, coeffs)
            g = graph_factor(p)
            if not g.valid:
                continue
            assert lift_graph(g, dim) == p


class TestContactOrder:
    def test_uniform_pair_any_direction(self):
        p1, p2 = families.paraboloid_pair(3, 3)
        for v in ((1, 0), (0, 1), (F(3, 5), F(-4, 5)), (2, 7)):
            rep = contact_profile(bar(p1), bar(p2), [v]).reports[0]
            assert rep.order == 3

    def test_axis_pair_split_orders(self):
        p1, p2 = families.axis_contact_pair(3)
        a1, a2 = bar(p1), bar(p2)
        assert contact_profile(a1, a2, [(0, 1)]).reports[0].order == 3
        assert contact_profile(a1, a2, [(1, 0)]).reports[0].order == 1

    def test_identical_graphs_infinite(self):
        a = families.bar_norm_sq(3)
        a = graph_factor(families.paraboloid_pair(3, 1)[0]).a
        rep = contact_profile(a, a, [(1, 1)]).reports[0]
        assert math.isinf(rep.order) and rep.leading_coefficient is None

    def test_zero_direction_rejected(self):
        a = bar(families.paraboloid_pair(3, 1)[0])
        with pytest.raises(ValueError):
            contact_profile(a, a, [(0, 0)]).reports[0]

    def test_no_contact_rejected(self):
        a1 = PolySymbol.constant(1, 2)
        a2 = PolySymbol.zero(2)
        with pytest.raises(ValueError):
            contact_profile(a1, a2, [(1, 0)]).reports[0]

    def test_leading_coefficient_value(self):
        # Along (1, 2): |t(1,2)|^4 = 25 t^4, so the t^4 coefficient is 25.
        p1, p2 = families.paraboloid_pair(3, 3)
        rep = contact_profile(bar(p1), bar(p2), [(1, 2)]).reports[0]
        assert rep.leading_coefficient == 25

    def test_symmetry_property(self):
        rng = random.Random(7)
        for _ in range(20):
            a1, a2 = _random_graph_pair(rng)
            v = tuple(F(rng.randint(-4, 4)) for _ in range(a1.dim))
            if not any(v):
                v = (F(1),) * a1.dim
            r12 = contact_profile(a1, a2, [v]).reports[0]
            r21 = contact_profile(a2, a1, [v]).reports[0]
            assert r12.order == r21.order
            if r12.leading_coefficient is not None:
                assert r12.leading_coefficient == -r21.leading_coefficient

    def test_rescaling_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            a1, a2 = _random_graph_pair(rng)
            lam = F(rng.choice([-5, -2, 3, 7]), rng.choice([1, 2, 3]))
            v = tuple(F(rng.randint(-3, 3)) for _ in range(a1.dim))
            if not any(v):
                continue
            r = contact_profile(a1, a2, [v]).reports[0]
            r_scaled = contact_profile(a1 * lam, a2 * lam, [v]).reports[0]
            assert r.order == r_scaled.order


def _random_graph_pair(rng, dim=2, max_degree=5):
    def rand_poly():
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.randint(0, max_degree) for _ in range(dim))
            if sum(mono) == 0:
                continue
            coeffs[mono] = F(rng.randint(-6, 6))
        return PolySymbol(dim, coeffs)

    return rand_poly(), rand_poly()


class TestContactProfile:
    def test_uniform_flag_on_uniform_pair(self):
        p1, p2 = families.paraboloid_pair(3, 1)
        prof = contact_profile(bar(p1), bar(p2))
        assert prof.uniform and set(prof.orders()) == {1}
        assert len(prof.reports) >= 64

    def test_plane_vs_bowl_split(self):
        a1, a2 = families.plane_vs_bowl_graphs()
        dirs = sample_directions(2, 64)
        prof = contact_profile(a1, a2, dirs)
        orders = {tuple(r.direction): r.order for r in prof.reports}
        assert not prof.uniform
        assert orders[(F(0), F(1))] == 5 and orders[(F(0), F(-1))] == 5
        off_axis = [o for d, o in orders.items() if d[0] != 0]
        assert set(off_axis) == {1}

    def test_empty_sample_rejected(self):
        a = bar(families.paraboloid_pair(3, 1)[0])
        with pytest.raises(ValueError):
            contact_profile(a, a, directions=[])


class TestMixedPartials:
    def test_uniform_pair_true_at_k(self):
        p1, p2 = families.paraboloid_pair(3, 3)
        assert mixed_partials_check(bar(p1), bar(p2), 3).ok

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mixed_partials_check(PolySymbol.zero(1), PolySymbol.zero(2), 1)

    def test_uniform_pair_false_past_k(self):
        p1, p2 = families.paraboloid_pair(3, 3)
        rep = mixed_partials_check(bar(p1), bar(p2), 4)
        assert not rep.ok and (4, 0) in rep.offending

    def test_identical_always_true(self):
        a = bar(families.paraboloid_pair(3, 5)[0])
        assert mixed_partials_check(a, a, 11).ok

    def test_cross_validation_with_line_orders(self):
        # Exhaustive multi-index enumeration against sampled line orders:
        # the scan holds at k iff every sampled order is >= k.
        rng = random.Random(21)
        dirs2 = sample_directions(2, 64)
        dirs3 = sample_directions(3, 64)
        for _ in range(30):
            dim = rng.choice((2, 3))
            a1, a2 = _random_graph_pair(rng, dim=dim, max_degree=6)
            diff = a1 - a2
            if diff.is_zero() or diff.coeffs.get((0,) * diff.dim):
                continue
            dirs = dirs2 if dim == 2 else dirs3
            orders = [contact_profile(a1, a2, [v], max_order=16).reports[0]
                      .order for v in dirs]
            min_finite = min((o for o in orders if not math.isinf(o)),
                             default=math.inf)
            for k in range(0, 7):
                assert mixed_partials_check(a1, a2, k).ok == (min_finite >= k)


class TestCurvature:
    def test_paraboloid(self):
        a = bar(families.paraboloid_pair(3, 1)[0])
        rep = curvature_check(a)
        assert rep.nondegenerate and rep.det == 4

    def test_degenerate_cubic(self):
        rep = curvature_check(parse_symbol("x1^3", dim=1))
        assert not rep.nondegenerate and rep.det == 0

    def test_valley_first_graph(self):
        q1, _ = families.valley_pair()
        rep = curvature_check(bar(q1))
        assert rep.nondegenerate and rep.det == 4

    def test_mixed_terms(self):
        rep = curvature_check(parse_symbol("x1*x2", dim=2))
        assert rep.det == -1 and rep.nondegenerate


class TestDirections:
    def test_includes_axes_and_diagonals(self):
        dirs = set(sample_directions(2, 64))
        assert (F(1), F(0)) in dirs and (F(0), F(-1)) in dirs
        assert (F(1), F(1)) in dirs and (F(-1), F(1)) in dirs
        assert len(dirs) >= 64

    def test_one_dimensional(self):
        assert sample_directions(1) == [(F(1),), (F(-1),)]

    def test_rational_entries(self):
        for v in sample_directions(3, 70):
            assert all(isinstance(c, Fraction) for c in v)

"""Built-in symbol pairs and cutoff specs for the extremizer constructions.

Box rules are sized off the exact support extents implied by the band
constraints: |a1 - a2| <= 2h pins the bar extents, and the xi1 band sits
within h of the graphs over that bar range.  A safety factor keeps the
support strictly inside the box (build_cutoff enforces this), and spacings
follow the resolution rule of one sixteenth of the matching band width.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .analysis import INF_P, contact_delta, kink_p, parse_p
from .quasimode import AxisRule, BandConstraint, FrequencyCutoff, HExpr
from .symbols import PolySymbol

MARGIN = 1.25          # box safety factor over the exact support extent
CELLS_PER_BAND = 16    # grid cells across each constraint band


def bar_norm_sq(n: int) -> PolySymbol:
    """|xi-bar|^2 = x2^2 + ... + xn^2 in ambient dimension n."""
    out = PolySymbol.zero(n)
    for i in range(2, n + 1):
        out = out + PolySymbol.variable(i, n) ** 2
    return out


def bar_norm_power(n: int, power: int) -> PolySymbol:
    """|xi-bar|^power for even power (polynomial requirement)."""
    if power % 2:
        raise ValueError("|xi-bar|^power is polynomial only for even power")
    return bar_norm_sq(n) ** (power // 2)


def paraboloid_pair(n: int, k: int) -> tuple[PolySymbol, PolySymbol]:
    """p1 = x1 - |xi-bar|^2 and p2 = x1 - (|xi-bar|^2 - |xi-bar|^(k+1)).

    The graphs meet at 0 with k-th order contact in every direction;
    k must be odd so that k+1 is even and the perturbation is polynomial.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if k < 1 or k % 2 == 0:
        raise ValueError("uniform-contact pair needs odd k >= 1")
    x1 = PolySymbol.variable(1, n)
    p1 = x1 - bar_norm_sq(n)
    p2 = x1 - (bar_norm_sq(n) - bar_norm_power(n, k + 1))
    return p1, p2


def axis_contact_pair(k: int) -> tuple[PolySymbol, PolySymbol]:
    """1,k-type model: difference x2^2 + x3^(k+1) (order 1 off one axis, k on it)."""
    if k < 1 or k % 2 == 0:
        raise ValueError("need odd k >= 1")
    x1 = PolySymbol.variable(1, 3)
    x2 = PolySymbol.variable(2, 3)
    x3 = PolySymbol.variable(3, 3)
    p1 = x1 - (x2 ** 2 + x3 ** 2)
    p2 = x1 - (2 * x2 ** 2 + x3 ** 2 + x3 ** (k + 1))
    return p1, p2


def valley_pair() -> tuple[PolySymbol, PolySymbol]:
    """1,3-type pair whose difference (x2 - x3^2)^2 + x2^10 vanishes on a parabola.

    The support volume picks up an extra h^(1/20) factor that no straight
    line through the origin can see.
    """
    x1 = PolySymbol.variable(1, 3)
    x2 = PolySymbol.variable(2, 3)
    x3 = PolySymbol.variable(3, 3)
    q1 = x1 - (x2 ** 2 + x3 ** 2)
    q2 = x1 - (x2 ** 2 + x3 ** 2 - (x2 - x3 ** 2) ** 2 - x2 ** 10)
    return q1, q2


def flat_pair(n: int, k: int) -> tuple[PolySymbol, PolySymbol]:
    """Flat model: p1 = x1 (graph a1 = 0), p2 = x1 + |xi-bar|^(k+1)."""
    if k < 1 or k % 2 == 0:
        raise ValueError("need odd k >= 1")
    x1 = PolySymbol.variable(1, n)
    return x1, x1 + bar_norm_power(n, k + 1)


def plane_vs_bowl_graphs() -> tuple[PolySymbol, PolySymbol]:
    """Graphs a1 = 0 and a2 = -(x1^2 + x2^6) in the two bar variables of n = 3.

    First-order contact along every line off one axis, fifth order on it;
    the standard nonuniform-contact surface pair.
    """
    u = PolySymbol.variable(1, 2)
    v = PolySymbol.variable(2, 2)
    return PolySymbol.zero(2), -(u ** 2 + v ** 6)


# -- cutoff specs -----------------------------------------------------------------

def _band(sym: PolySymbol) -> BandConstraint:
    return BandConstraint(sym, alpha=1.0, scale=1.0)


def _rule(lo: list[tuple[float, float]], hi: list[tuple[float, float]],
          spacing: tuple[float, float], pow2: bool = False) -> AxisRule:
    return AxisRule(HExpr(tuple(lo)), HExpr(tuple(hi)),
                    HExpr((spacing,)), pow2=pow2)


def paraboloid_cutoff(n: int, k: int, pow2: bool = False,
                      cells_per_band: int = CELLS_PER_BAND) -> FrequencyCutoff:
    """Sharp cutoff { |p1| <= h, |p2| <= h } for the uniform-contact pair.

    Support: |xi-bar| <= (2h)^(1/(k+1)) and xi1 within h of the paraboloid.
    """
    p1, p2 = paraboloid_pair(n, k)
    e = 1.0 / (k + 1)
    bar_ext = MARGIN * 2 ** e
    bar_spacing = (1.0 / cells_per_band, e)
    bar_rule = _rule([(-bar_ext, e)], [(bar_ext, e)], bar_spacing, pow2)
    # xi1 covers [ -h, max|xi-bar|^2 + h ] with margin.
    hi = [(MARGIN * 2 ** (2 * e), 2 * e), (3.0, 1.0)]
    xi1_rule = _rule([(-3.0, 1.0)], hi, (1.0 / cells_per_band, 1.0), pow2)
    return FrequencyCutoff((_band(p1), _band(p2)),
                           (xi1_rule,) + (bar_rule,) * (n - 1))


def slab_cutoff(n: int, k: int,
                cells_per_band: int = CELLS_PER_BAND) -> FrequencyCutoff:
    """Uniform-contact bands plus |xi_j| <= h^(1/2): the small-p extremizer."""
    p1, p2 = paraboloid_pair(n, k)
    constraints = [_band(p1), _band(p2)]
    for j in range(2, n + 1):
        constraints.append(BandConstraint(PolySymbol.variable(j, n), 0.5))
    bar_rule = _rule([(-MARGIN, 0.5)], [(MARGIN, 0.5)],
                     (1.0 / cells_per_band, 0.5))
    hi = [(MARGIN * (n - 1) + 3.0, 1.0)]
    xi1_rule = _rule([(-3.0, 1.0)], hi, (1.0 / cells_per_band, 1.0))
    return FrequencyCutoff(tuple(constraints), (xi1_rule,) + (bar_rule,) * (n - 1))


def axis_contact_cutoff(k: int,
                        cells_per_band: int = CELLS_PER_BAND) -> FrequencyCutoff:
    """{|p1| <= h, |p2| <= h} for the 1,k model (n = 3)."""
    p1, p2 = axis_contact_pair(k)
    e = 1.0 / (k + 1)
    r2 = _rule([(-MARGIN * 2 ** 0.5, 0.5)], [(MARGIN * 2 ** 0.5, 0.5)],
               (2 ** 0.5 / cells_per_band, 0.5))
    r3 = _rule([(-MARGIN * 2 ** e, e)], [(MARGIN * 2 ** e, e)],
               (2 ** e / cells_per_band, e))
    hi = [(MARGIN ** 2 * 2.0, 1.0), (MARGIN ** 2 * 2 ** (2 * e), 2 * e), (3.0, 1.0)]
    r1 = _rule([(-3.0, 1.0)], hi, (1.0 / cells_per_band, 1.0))
    return FrequencyCutoff((_band(p1), _band(p2)), (r1, r2, r3))


def valley_cutoff(cells_per_band: int = CELLS_PER_BAND) -> FrequencyCutoff:
    """{|q1| <= h, |q2| <= h} for the parabola-valley pair (n = 3).

    Support: |x2 - x3^2| <= sqrt(2h), |x2| <= (2h)^(1/10), |x3| ~ (2h)^(1/20);
    the x2 box is asymmetric because the valley sits at x2 = x3^2 >= 0.
    """
    q1, q2 = valley_pair()
    s2 = 2 ** 0.5  # sqrt factors of the (2h) bounds
    r2 = _rule([(-MARGIN * s2, 0.5)],
               [(MARGIN * 2 ** 0.1, 0.1), (MARGIN * s2, 0.5)],
               (s2 / cells_per_band, 0.5))
    ext3 = MARGIN * 2 ** 0.55  # sqrt((2h)^(1/10) + sqrt(2h)) <= sqrt(2)*(2h)^(1/20)
    r3 = _rule([(-ext3, 0.05)], [(ext3, 0.05)],
               (2 ** 0.05 / cells_per_band, 0.05))
    hi = [(MARGIN ** 2 * 2 ** 0.2, 0.2), (MARGIN ** 2 * 2 * 2 ** 0.1, 0.1), (3.0, 1.0)]
    r1 = _rule([(-3.0, 1.0)], hi, (1.0 / cells_per_band, 1.0))
    return FrequencyCutoff((_band(q1), _band(q2)), (r1, r2, r3))


def flat_cutoff(n: int, k: int, pow2: bool = False,
                cells_per_band: int = CELLS_PER_BAND) -> FrequencyCutoff:
    """{|xi1| <= h, |xi1 + |xi-bar|^(k+1)| <= h}: the flattened model cutoff."""
    p1, p2 = flat_pair(n, k)
    e = 1.0 / (k + 1)
    bar_ext = MARGIN * 2 ** e
    bar_rule = _rule([(-bar_ext, e)], [(bar_ext, e)],
                     (2 ** e / cells_per_band, e), pow2)
    r1 = _rule([(-1.5, 1.0)], [(1.5, 1.0)], (1.0 / cells_per_band, 1.0), pow2)
    return FrequencyCutoff((_band(p1), _band(p2)),
                           (r1,) + (bar_rule,) * (n - 1))


# -- the family table ---------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """What a sweep needs to know about one cutoff family.

    ``name`` is its key in CUTOFF_FAMILIES; ``cutoff(n, k, cells_per_band)``
    builds the spec and ``pair(n, k)`` its symbol pair; ``gamma(n, k)`` is
    the support-volume exponent (Vol ~ h^gamma); ``slope(n, k, p)`` is the
    theorem-backed Lp growth exponent, None where only the peak is
    predicted (from gamma); ``p_min(n)`` is the least p at which ``slope``
    holds, None when it holds for every p >= 2; ``dim`` is the fixed
    ambient dimension, None when n sets it; ``odd_k`` says whether the pair
    and cutoff need an odd k.
    """

    name: str
    cutoff: Callable[[int, int, int], FrequencyCutoff]
    pair: Callable[[int, int], tuple[PolySymbol, PolySymbol]]
    gamma: Callable[[int, int], float]
    slope: Callable[[int, int, object], float] | None = None
    p_min: Callable[[int], Fraction] | None = None
    dim: int | None = None
    odd_k: bool = True


def _uniform_gamma(n: int, k: int) -> float:
    return 1.0 + (n - 1) / (k + 1)


def _contact_slope(n: int, k: int, p) -> float:
    return -float(contact_delta(n, p, k))


def _box_slope(width: float, p) -> float:
    """Lp growth exponent -width*(1/2 - 1/p) of a normalized box cutoff.

    A box of volume h^gamma in n dimensions has width = n - gamma: its
    transform peaks at h^(-width/2) and spreads over h^(width) of x-volume.
    """
    s = 0.0 if p is INF_P else 1.0 / float(parse_p(p))
    return -width * (0.5 - s)


def _slab_slope(n: int, k: int, p) -> float:
    return _box_slope((n - 1) / 2.0, p)


def _flat_slope(n: int, k: int, p) -> float:
    return _box_slope((n - 1) * k / (k + 1), p)


CUTOFF_FAMILIES: dict[str, Family] = {fam.name: fam for fam in (
    Family("paraboloid",
           lambda n, k, cells: paraboloid_cutoff(n, k, cells_per_band=cells),
           paraboloid_pair, _uniform_gamma, _contact_slope, p_min=kink_p),
    Family("slab", lambda n, k, cells: slab_cutoff(n, k, cells_per_band=cells),
           paraboloid_pair, lambda n, k: 1.0 + (n - 1) / 2.0, _slab_slope),
    Family("axis-contact",
           lambda n, k, cells: axis_contact_cutoff(k, cells_per_band=cells),
           lambda n, k: axis_contact_pair(k),
           lambda n, k: 1.0 + 0.5 + 1.0 / (k + 1), dim=3),
    Family("valley", lambda n, k, cells: valley_cutoff(cells_per_band=cells),
           lambda n, k: valley_pair(),
           lambda n, k: 1.0 + 0.5 + 1.0 / 20.0, dim=3, odd_k=False),
    Family("flat", lambda n, k, cells: flat_cutoff(n, k, cells_per_band=cells),
           flat_pair, _uniform_gamma, _flat_slope),
)}

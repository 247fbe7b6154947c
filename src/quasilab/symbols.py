"""Exact polynomial symbols and contact geometry of characteristic sets.

Symbols are multivariate polynomials over the rationals in the frequency
variables x1..xn, stored as a map from exponent tuples to nonzero Fraction
coefficients.  Every algebraic operation here (graph factorization,
line restriction, Hessians, mixed-partial scans) is exact; floating
point enters only when a symbol is evaluated at float points (eval,
eval_grid).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .analysis import parse_number
from .errors import DimensionMismatchError, SymbolParseError

# Sentinel contact order: all probed derivatives of the difference vanish.
INFINITE = math.inf

Rational = Fraction | int
Monomial = tuple[int, ...]


class PolySymbol:
    """Polynomial in x1..x<dim> with exact rational coefficients.

    ``coeffs`` maps exponent tuples (one entry per variable) to nonzero
    Fractions; the zero polynomial is the empty map.  Instances are treated
    as immutable.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict[Monomial, Rational] | None = None):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        clean: dict[Monomial, Fraction] = {}
        for mono, c in (coeffs or {}).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != dim:
                raise DimensionMismatchError(
                    f"multi-index {mono} has length {len(mono)}, expected {dim}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in multi-index {mono}")
            c = Fraction(c)
            if c:
                clean[mono] = clean.get(mono, Fraction(0)) + c
                if not clean[mono]:
                    del clean[mono]
        self.dim = dim
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def variable(index: int, dim: int) -> "PolySymbol":
        """x<index> as a polynomial; index is 1-based."""
        if not 1 <= index <= dim:
            raise ValueError(f"variable index {index} outside 1..{dim}")
        mono = tuple(1 if i == index - 1 else 0 for i in range(dim))
        return PolySymbol(dim, {mono: Fraction(1)})

    @staticmethod
    def constant(value: Rational, dim: int) -> "PolySymbol":
        return PolySymbol(dim, {(0,) * dim: Fraction(value)})

    @staticmethod
    def zero(dim: int) -> "PolySymbol":
        return PolySymbol(dim, {})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySymbol):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"PolySymbol({self.dim}, {format_symbol(self)!r})"

    # -- arithmetic ---------------------------------------------------------

    def _check_dim(self, other: "PolySymbol") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolySymbol.constant(other, self.dim)
        self._check_dim(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return PolySymbol(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return PolySymbol(self.dim, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolySymbol.constant(other, self.dim)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return PolySymbol(self.dim, {m: v * c for m, v in self.coeffs.items()})
        self._check_dim(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return PolySymbol(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = PolySymbol.constant(1, self.dim)
        for _ in range(exponent):
            result = result * self
        return result

    # -- evaluation ----------------------------------------------------------

    def eval(self, point: Sequence[Rational | float]):
        """Evaluate at a point; exact Fraction when every coordinate is rational."""
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, expected {self.dim}")
        exact = all(isinstance(x, (int, Fraction)) for x in point)
        total = Fraction(0) if exact else 0.0
        for mono, c in self.coeffs.items():
            term = c if exact else float(c)
            for x, e in zip(point, mono):
                if e:
                    term = term * x ** e
            total = total + term
        return total

    def eval_grid(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized float evaluation on broadcastable coordinate arrays."""
        if len(coords) != self.dim:
            raise DimensionMismatchError(
                f"{len(coords)} coordinate arrays, expected {self.dim}")
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        out = np.zeros(shape, dtype=float)
        # Cache powers per (variable, exponent): symbols here are small.
        powers: dict[tuple[int, int], np.ndarray] = {}
        for mono, c in self.coeffs.items():
            term = np.full(shape, float(c))
            for i, e in enumerate(mono):
                if e:
                    key = (i, e)
                    if key not in powers:
                        powers[key] = np.asarray(coords[i], dtype=float) ** e
                    term = term * powers[key]
            out += term
        return out

    def restrict_line(self, direction: Sequence[Rational]) -> list[Fraction]:
        """Coefficients of p(t*v) as a dense univariate list, degree-indexed."""
        if len(direction) != self.dim:
            raise DimensionMismatchError(
                f"direction has {len(direction)} entries, expected {self.dim}")
        v = [Fraction(x) for x in direction]
        out = [Fraction(0)] * (self.total_degree() + 1)
        for mono, c in self.coeffs.items():
            term = c
            for x, e in zip(v, mono):
                if e:
                    term *= x ** e
            out[sum(mono)] += term
        while out and not out[-1]:
            out.pop()
        return out


# -- text format --------------------------------------------------------------

_FACTOR_VAR = re.compile(r"x(0*[1-9]\d*)(?:\^(\d+))?")   # x0 is no variable
# A term starts at a sign that follows neither an operator nor a number's e.
_TERM_START = re.compile(r"(?<=[^-+*/^eE])(?=[-+])")


def parse_symbol(text: str, dim: int | None = None) -> PolySymbol:
    """Parse symbol text like ``3/2*x1^2*x3 - x2``.

    Variables are x1..xn; a coefficient factor is any finite rational
    analysis.parse_number reads (``3/2``, ``0.75/2``, ``1e-3``, ``2^-3``),
    kept exact.  dim defaults to the largest variable index that appears.
    """
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise SymbolParseError("empty symbol text")
    parsed: list[tuple[Fraction, dict[int, int]]] = []
    max_index = 0
    for term in _TERM_START.split(compact):
        body = term.lstrip("+-")
        if not body:
            raise SymbolParseError(f"dangling sign in {text!r}")
        coeff = Fraction(-1 if term[:-len(body)].count("-") % 2 else 1)
        exponents: dict[int, int] = {}
        for factor in body.split("*"):
            if not factor:
                raise SymbolParseError(f"empty factor in term {body!r}")
            m = _FACTOR_VAR.fullmatch(factor)
            if m:
                idx = int(m.group(1))
                exponents[idx] = exponents.get(idx, 0) + int(m.group(2) or 1)
                max_index = max(max_index, idx)
                continue
            try:
                value = parse_number(factor)
            except (ValueError, ArithmeticError):
                value = None
            if not isinstance(value, Fraction):   # non-finite or irrational
                raise SymbolParseError(
                    f"factor {factor!r} in {text!r} is not x1..xn or a finite rational")
            coeff *= value
        parsed.append((coeff, exponents))

    if dim is None:
        dim = max(max_index, 1)
    if max_index > dim:
        raise SymbolParseError(f"symbol uses x{max_index} but dim={dim}")
    coeffs: dict[Monomial, Fraction] = {}
    for coeff, exponents in parsed:
        mono = tuple(exponents.get(i + 1, 0) for i in range(dim))
        coeffs[mono] = coeffs.get(mono, Fraction(0)) + coeff
    return PolySymbol(dim, coeffs)


def format_symbol(p: PolySymbol) -> str:
    """Canonical text form: terms sorted by multi-index, descending."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for mono in sorted(p.coeffs, reverse=True):
        c = p.coeffs[mono]
        factors = [
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(mono) if e
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


# -- graph factorization -------------------------------------------------------

@dataclass(frozen=True)
class GraphForm:
    """Result of writing p = c*(x1 - a(x2..xn)); valid=False carries the reason."""

    a: PolySymbol | None
    valid: bool
    note: str = ""
    xi1_coeff: Fraction | None = None


def split_affine_x1(p: PolySymbol) -> tuple[Fraction, PolySymbol] | None:
    """Split p = c*x1 + r(x2..xn) with constant c; None if p is not of this form.

    The remainder r is returned in the n-1 bar variables.
    """
    c1 = Fraction(0)
    rest: dict[Monomial, Fraction] = {}
    for mono, c in p.coeffs.items():
        e1, bar = mono[0], mono[1:]
        if e1 == 0:
            rest[bar] = c
        elif e1 == 1 and not any(bar):
            c1 = c
        else:
            return None
    if p.dim < 2:
        return None
    return c1, PolySymbol(p.dim - 1, rest)


def graph_factor(p: PolySymbol) -> GraphForm:
    """Factor an affine-in-x1 symbol as c*(x1 - a(bar)); invalid otherwise."""
    split = split_affine_x1(p)
    if split is None:
        return GraphForm(None, False, "not affine in x1")
    c1, rest = split
    if not c1:
        return GraphForm(None, False, "does not depend on x1")
    a = rest * Fraction(-1, 1) * (1 / c1)
    return GraphForm(a, True, "", c1)


# -- contact order --------------------------------------------------------------

@dataclass(frozen=True)
class ContactReport:
    """Contact order of two graphs along one line through 0.

    order = s means the t-derivatives of (a1-a2) along the line vanish
    through order s and the (s+1)-st does not; INFINITE when every probed
    derivative vanishes.  leading_coefficient is the first nonvanishing
    derivative divided by its factorial (the t^{s+1} Taylor coefficient),
    reported with its sign.
    """

    direction: tuple
    order: int | float
    leading_coefficient: Fraction | None


def _contact_order(diff: PolySymbol, direction, max_order: int) -> ContactReport:
    """Contact order of two graphs, given by their difference a1 - a2,
    along a line through 0.

    The direction may be any nonzero rational vector; the order is invariant
    under rescaling, so unit normalization is unnecessary (and would leave
    the rationals).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if len(direction) != diff.dim or not any(Fraction(x) for x in direction):
        raise ValueError("direction must be a nonzero vector of length dim")
    direction = tuple(Fraction(x) for x in direction)
    coeffs = diff.restrict_line(direction)
    if coeffs and coeffs[0]:
        raise ValueError("graphs do not meet at the origin along this line")
    for s, c in enumerate(coeffs):
        if c:
            if s - 1 > max_order:
                break
            return ContactReport(direction, s - 1, c)
    return ContactReport(direction, INFINITE, None)


@dataclass(frozen=True)
class ContactProfile:
    reports: tuple[ContactReport, ...]
    uniform: bool

    def orders(self) -> list[int | float]:
        return [r.order for r in self.reports]


def contact_profile(a1: PolySymbol, a2: PolySymbol,
                    directions: Iterable | None = None,
                    max_order: int = 32) -> ContactProfile:
    """Per-direction contact reports plus a same-order-everywhere flag.

    uniform is True iff all finite orders agree (INFINITE entries, e.g.
    identical graphs, do not break uniformity).
    """
    diff = a1 - a2   # a DimensionMismatchError unless the dims agree
    if directions is None:
        directions = sample_directions(a1.dim)
    reports = tuple(_contact_order(diff, d, max_order) for d in directions)
    if not reports:
        raise ValueError("empty direction sample")
    finite = {r.order for r in reports if r.order is not INFINITE}
    return ContactProfile(reports, len(finite) <= 1)


def sample_directions(m: int, count: int = 64) -> list[tuple[Fraction, ...]]:
    """Deterministic rational direction sample on the sphere in R^m.

    Always includes the coordinate axes (both signs) and every +-1 diagonal;
    fills to ``count`` with rationalized uniform-angle (m=2), Fibonacci-sphere
    (m=3) or product-of-angles (m>=4) points.  Rationalization keeps every
    later derivative test exact; contact order does not depend on vector
    length, so the points are not normalized.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    dirs: list[tuple[Fraction, ...]] = []
    seen: set[tuple[Fraction, ...]] = set()

    def add(vec: Sequence[Fraction]) -> None:
        t = tuple(Fraction(x) for x in vec)
        if any(t) and t not in seen:
            seen.add(t)
            dirs.append(t)

    for i in range(m):
        for s in (1, -1):
            add(tuple(Fraction(s if j == i else 0) for j in range(m)))
    if m == 1:
        return dirs
    if m <= 6:
        for bits in range(2 ** m):
            add(tuple(Fraction(1 if bits >> j & 1 else -1) for j in range(m)))

    def rat(x: float) -> Fraction:
        return Fraction(x).limit_denominator(10 ** 6)

    i = 0
    golden = (1 + math.sqrt(5)) / 2
    while len(dirs) < count:
        if m == 2:
            theta = 2 * math.pi * (i + 0.5) / count
            add((rat(math.cos(theta)), rat(math.sin(theta))))
        elif m == 3:
            # Fibonacci sphere point i.
            z = 1 - 2 * (i + 0.5) / count
            r = math.sqrt(max(0.0, 1 - z * z))
            theta = 2 * math.pi * i / golden
            add((rat(r * math.cos(theta)), rat(r * math.sin(theta)), rat(z)))
        else:
            # Product-of-angles grid on m-1 angles.
            per = max(3, int(round(count ** (1 / (m - 1)))) + 1)
            idx = i
            angles = []
            for _ in range(m - 1):
                angles.append(math.pi * ((idx % per) + 0.5) / per)
                idx //= per
            vec, sin_prod = [], 1.0
            for a in angles:
                vec.append(sin_prod * math.cos(a))
                sin_prod *= math.sin(a)
            vec.append(sin_prod)
            add(tuple(rat(x) for x in vec))
        i += 1
        if i > 100 * count:
            break
    return dirs


# -- mixed-partial scans ----------------------------------------------------------

@dataclass(frozen=True)
class MixedPartialReport:
    ok: bool
    offending: tuple[Monomial, ...]


def mixed_partials_check(a1: PolySymbol, a2: PolySymbol, k: int) -> MixedPartialReport:
    """True iff every mixed partial of (a1-a2) of total order <= k vanishes at 0.

    Exact: d^alpha p(0) = alpha! * coeff_alpha, so the scan inspects the
    low-degree monomials directly.
    """
    diff = a1 - a2   # a DimensionMismatchError unless the dims agree
    if k < 0:
        raise ValueError("k must be >= 0")
    offending = tuple(sorted(m for m in diff.coeffs if sum(m) <= k))
    return MixedPartialReport(not offending, offending)


# -- curvature -------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureReport:
    nondegenerate: bool
    det: Fraction
    hessian: tuple[tuple[Fraction, ...], ...]


def _det_exact(rows: list[list[Fraction]]) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        inv = Fraction(1) / m[i][i]
        for r in range(i + 1, n):
            if m[r][i]:
                factor = m[r][i] * inv
                for ccol in range(i, n):
                    m[r][ccol] -= factor * m[i][ccol]
    return det


def curvature_check(a: PolySymbol) -> CurvatureReport:
    """Hessian of a at 0 (exact) and whether its determinant is nonzero."""
    m = a.dim
    hess = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            mono = tuple((2 if (l == i and i == j) else
                          1 if l in (i, j) else 0) for l in range(m))
            c = a.coeffs.get(mono, Fraction(0))
            val = 2 * c if i == j else c
            hess[i][j] = hess[j][i] = val
    det = _det_exact(hess)
    return CurvatureReport(det != 0, det, tuple(tuple(r) for r in hess))

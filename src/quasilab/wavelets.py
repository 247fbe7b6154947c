"""Continuous wavelet transform in x1, dyadic bar-frequency cutoffs, and the
decay diagnostics of the flat model.

The mother wavelet is the derivative of the standard smooth bump
exp(-1/(1-t^2)) on (-1,1): compactly supported, smooth, mean zero, with a
finite admissibility constant C_f = int |f^(eta)|^2/|eta| d eta (computed
once by quadrature, tails reported).  Transforms are plain quadratures on
the field's x1 grid, applied per scale as a sparse banded operator whose
rows hold only the taps that land on data samples; windows that miss the
data support are empty rows and give exact zeros, not small numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix

from .errors import DimensionMismatchError
from .grids import AxisSpec, GridField, ft_axis

_TWO_PI = 2.0 * np.pi


def bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/(1-t^2)) on (-1,1), zero outside; smooth and compactly supported."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def bump_derivative(t: np.ndarray) -> np.ndarray:
    """d/dt of bump: odd, mean zero, support (-1,1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    denom = 1.0 - ti * ti
    out[inside] = np.exp(-1.0 / denom) * (-2.0 * ti) / denom ** 2
    return out


@dataclass(frozen=True)
class MotherWavelet:
    """Admissible analyzing profile: smooth, compact support, zero mean."""

    profile: Callable[[np.ndarray], np.ndarray]
    support_halfwidth: float
    admissibility: float          # C_f = int_R |f^|^2/|eta| d eta
    l2_norm_sq: float
    mean: float                   # quadrature of f; ~0 by construction
    tail_low: float               # bound on the omitted |eta| < eta_min piece
    tail_high: float              # estimate of the omitted |eta| > eta_max piece


def _fourier_abs_sq(eta: np.ndarray, t: np.ndarray, f: np.ndarray,
                    dt: float) -> np.ndarray:
    """|f^(eta)|^2 for real odd f: f^(eta) = -2i int_0^inf f sin(eta t) dt."""
    s = np.sin(np.outer(eta, t)) @ f * dt
    return 4.0 * s * s


@lru_cache(maxsize=1)
def make_mother_wavelet(eta_min: float = 1e-6, eta_max: float = 1e3,
                        t_points: int = 8192) -> MotherWavelet:
    """Build the bump-derivative wavelet and its admissibility constant.

    C_f is computed by adaptive quadrature on [eta_min, eta_max] (doubled for
    the negative axis by symmetry); the trapezoid-in-t evaluation of f^ is
    spectrally accurate because f vanishes to all orders at the endpoints.
    """
    t = np.linspace(0.0, 1.0, t_points)
    ft = bump_derivative(t)
    dt = t[1] - t[0]

    def integrand(eta: float) -> float:
        return float(_fourier_abs_sq(np.array([eta]), t, ft, dt)[0]) / eta

    val, _err = quad(integrand, eta_min, 1.0, limit=200)
    val2, _err2 = quad(integrand, 1.0, 50.0, limit=400)
    val3, _err3 = quad(integrand, 50.0, eta_max, limit=400)
    c_half = val + val2 + val3
    # Tails: |f^(eta)|^2/eta <= C*eta near 0; superpolynomial decay above.
    near = _fourier_abs_sq(np.array([eta_min]), t, ft, dt)[0] / eta_min
    tail_low = near * eta_min  # integrand decreases ~linearly to 0 below eta_min
    hi = _fourier_abs_sq(np.array([eta_max]), t, ft, dt)[0] / eta_max
    tail_high = hi * eta_max   # crude envelope; decay there is superpolynomial

    tt = np.linspace(-1.0, 1.0, 2 * t_points)
    fv = bump_derivative(tt)
    dtt = tt[1] - tt[0]
    return MotherWavelet(
        profile=bump_derivative,
        support_halfwidth=1.0,
        admissibility=2.0 * c_half,
        l2_norm_sq=float(np.sum(fv * fv) * dtt),
        mean=float(np.sum(fv) * dtt),
        tail_low=2.0 * tail_low,
        tail_high=2.0 * tail_high,
    )


# -- continuous wavelet transform --------------------------------------------------

@dataclass
class WaveletCoefficients:
    """X(a, b, .) per scale: ragged in b because the b step tracks a."""

    a_grid: np.ndarray
    b_grids: list[np.ndarray]
    values: list[np.ndarray]      # per scale: (len(b_grid), *bar_shape)
    x1_axis: AxisSpec
    h: float


def default_a_grid(lo: float = 2.0 ** -6, hi: float = 2.0 ** 6,
                   points: int = 25) -> np.ndarray:
    return np.geomspace(lo, hi, points)


def cwt(v: GridField, w: MotherWavelet, a_grid: Sequence[float] | None = None,
        b_step_factor: float = 8.0, b_pad: float = 1.0,
        x1_scale: float = 1.0) -> WaveletCoefficients:
    """X(a,b,bar) = |a|^(-1/2) int f((x1-b)/a) v(x1,bar) dx1 on the x1 grid.

    b runs on a per-scale grid of step ~ a/b_step_factor (snapped to the x1
    grid so windows slide by whole cells), extended b_pad dilated supports
    beyond the data so the no-overlap region is represented.  Each scale is
    one sparse (len(b), n1) operator applied to the field; a window's row
    keeps only the taps on data samples, so windows off the data are empty
    rows and their coefficients are exact zeros.

    At scales far above the grid step the quadrature decimates to a step of
    min(a/16, x1_scale/8): both the dilated profile and the field (whose x1
    variation scale the caller declares) are smooth at that resolution, and
    the wide-window cost drops from O(a) to O(1) per translate.
    """
    if a_grid is None:
        a_grid = default_a_grid()
    ax = v.axes[0]
    dx = ax.spacing
    n1 = ax.points
    bar_shape = v.data.shape[1:]
    # The field as real (n1, 2 * prod(bar_shape)): each scale's operator
    # acts on real and imaginary parts at once.
    flat = np.ascontiguousarray(v.data, dtype=complex).reshape(n1, -1).view(float)
    values: list[np.ndarray] = []
    b_grids: list[np.ndarray] = []
    for a in np.asarray(a_grid, dtype=float):
        if a <= 0:
            raise ValueError("scales must be positive")
        half = w.support_halfwidth * a
        qstride = max(1, int(min(a / 16.0, x1_scale / 8.0) / dx))
        qstep = qstride * dx
        wcells = int(math.ceil(2.0 * half / qstep)) + 2
        stride = max(1, int(round(a / b_step_factor / dx)))
        pad_cells = int(math.ceil(2.0 * b_pad * half / dx)) + wcells * qstride
        b_idx = np.arange(-pad_cells, n1 + pad_cells, stride)
        b = ax.start + (b_idx + 0.5) * dx
        offs = (np.arange(2 * wcells + 1) - wcells) * qstride
        # b sits on the grid, so the sampled profile is one row for every b.
        frow = w.profile(offs * dx / a) / math.sqrt(a)
        # Row i of the banded operator holds the taps of window b_idx[i]
        # that land on data samples; a window off the data holds none, so
        # its coefficients are exact zeros.
        cols = b_idx[:, None] + offs[None, :]
        on_data = (cols >= 0) & (cols < n1)
        op = csr_matrix(
            (np.broadcast_to(frow, cols.shape)[on_data], cols[on_data],
             np.concatenate(([0], np.cumsum(on_data.sum(axis=1))))),
            shape=(len(b), n1))
        out = (op @ flat).view(complex).reshape((len(b),) + bar_shape) * qstep
        values.append(out)
        b_grids.append(b)
    return WaveletCoefficients(np.asarray(a_grid, float), b_grids, values, ax, v.h)


def reconstruct(coeffs: WaveletCoefficients, w: MotherWavelet,
                x_nodes: np.ndarray) -> np.ndarray:
    """Inverse transform (2/C_f) sum_a w_a sum_b db a^(-5/2) X f((x-b)/a).

    Positive scales only, hence the factor 2/C_f; the a-quadrature uses the
    log-spaced weights a * dln(a).
    """
    a = coeffs.a_grid
    if len(a) < 2:
        raise ValueError("inversion needs at least two scales")
    log_w = np.empty_like(a)
    la = np.log(a)
    log_w[1:-1] = 0.5 * (la[2:] - la[:-2])
    log_w[0] = la[1] - la[0]
    log_w[-1] = la[-1] - la[-2]
    out = np.zeros(x_nodes.shape + coeffs.values[0].shape[1:], dtype=complex)
    for ai, aval in enumerate(a):
        b = coeffs.b_grids[ai]
        db = (b[1] - b[0]) if len(b) > 1 else coeffs.x1_axis.spacing
        kernel = w.profile((x_nodes[:, None] - b[None, :]) / aval)
        weight = (aval * log_w[ai]) * db * aval ** -2.5
        out += weight * np.tensordot(kernel, coeffs.values[ai], axes=(1, 0))
    return out * (2.0 / w.admissibility)


# -- dyadic cutoffs ------------------------------------------------------------------

def _smooth_step(t: np.ndarray) -> np.ndarray:
    """1 for t <= 1, 0 for t >= 3/2, smooth monotone transition between."""
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    out[t >= 1.5] = 0.0
    mid = (t > 1.0) & (t < 1.5)
    s = (t[mid] - 1.0) / 0.5
    left = np.exp(-1.0 / s)
    right = np.exp(-1.0 / (1.0 - s))
    out[mid] = right / (left + right)
    return out


@dataclass(frozen=True)
class DyadicFamily:
    """psi_j profiles localizing |xi_bar| near 2^j h^(1/(k+1)).

    psi_0 covers |r| <= 2 (rescaled); each annular psi_j is supported in
    [1/2, 3/2] * 2^j h^(1/(k+1)).  Built by telescoping a smooth step, so
    the partition of unity on |r| <= 1 is exact.
    """

    h: float
    k: int
    levels: int  # J

    def scale(self, j: int) -> float:
        return 2.0 ** j * self.h ** (1.0 / (self.k + 1))

    def psi(self, j: int, r: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        base = self.h ** (1.0 / (self.k + 1))
        if j == 0:
            return _smooth_step(r / base)
        return (_smooth_step(r / (2.0 ** j * base))
                - _smooth_step(r / (2.0 ** (j - 1) * base)))

    def partition_sum(self, r: np.ndarray) -> np.ndarray:
        total = self.psi(0, r)
        for j in range(1, self.levels + 1):
            total = total + self.psi(j, r)
        return total


def dyadic_cutoffs(h: float, k: int) -> DyadicFamily:
    """Family with J = ceil(log2 h^(-1/(k+1))): sum_j psi_j = 1 on |r| <= 1."""
    if not 0 < h <= 1:
        raise ValueError("h must lie in (0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    levels = max(0, math.ceil(math.log2(h ** (-1.0 / (k + 1))) - 1e-12))
    return DyadicFamily(h, k, levels)


# -- flat-model decay diagnostics ------------------------------------------------------

@dataclass(frozen=True)
class DecayRow:
    a: float
    j: int
    value: float        # N(a, j)
    bound: float        # decay-law envelope at M = 1 (relative units)


@dataclass(frozen=True)
class DecayDiagnostic:
    rows: tuple[DecayRow, ...]
    small_a_slope: float     # fitted log N / log a over a <= 1, j = 0
    large_a_slope: float     # same over a >= 1
    j_ratios: tuple[tuple[int, float], ...]  # (j, max_a N(a,j+1)/N(a,j)), j >= 1


def decay_diagnostic(v: GridField, w: MotherWavelet, m_order: int,
                       k: int, a_grid: Sequence[float] | None = None,
                       localize_halfwidth: float | None = 1.5
                       ) -> DecayDiagnostic:
    """Measure N(a,j) = || sqrt(psi_j) F_h[X_v(a,b,.)] ||_{L2(b,xi_bar)}.

    v is a flat-model quasimode on a position grid (x1 = axis 0); the bar
    transform runs on the grid's dual axes.  Reports the fitted a-slopes at
    j = 0 and the worst consecutive-j decay ratios for comparison against
    the 2^(-j(k+1)M) * (|a|^(3/2) for a <= 1, 1 for a >= 1) envelope.

    The decay law presumes a quasimode localized in an O(1) region, while a
    sharp-cutoff synthesis has |x1|^-1 tails out to the box; unless
    localize_halfwidth is None, v is therefore multiplied by a smooth
    window flat on |x1| <= localize_halfwidth (zero past 1.5x).  The window
    commutes with hD_x1 up to an exact O(h) term, so the windowed field is
    still an order-h quasimode and the envelope applies to it verbatim.
    """
    if v.dim < 2:
        raise DimensionMismatchError("need at least one bar axis")
    if a_grid is not None and len(set(np.asarray(a_grid, float))) < 2:
        raise ValueError("degenerate a-grid: need at least two distinct scales")
    family = dyadic_cutoffs(v.h, k)
    if localize_halfwidth is not None:
        window = _smooth_step(np.abs(v.axes[0].nodes()) / localize_halfwidth)
        data = v.data * window.reshape((-1,) + (1,) * (v.dim - 1))
        v = GridField(v.h, v.space, list(v.axes), data)
    coeffs = cwt(v, w, a_grid)
    a_vals = coeffs.a_grid
    # Bar-side transform of X(a, b, .) for every b at once.
    table: dict[tuple[int, int], float] = {}
    for ai in range(len(a_vals)):
        x = coeffs.values[ai]
        db = (coeffs.b_grids[ai][1] - coeffs.b_grids[ai][0]
              if len(coeffs.b_grids[ai]) > 1 else coeffs.x1_axis.spacing)
        data = x
        duals = []
        for d in range(1, v.dim):
            data, dual = ft_axis(data, v.axes[d], v.h, d)
            duals.append(dual)
        mesh = np.meshgrid(*[dl.nodes() for dl in duals], indexing="ij")
        radius = np.sqrt(sum(g * g for g in mesh))
        cellvol = float(np.prod([dl.spacing for dl in duals]))
        for j in range(family.levels + 1):
            weight = family.psi(j, radius)
            mass = float(np.sum(weight[None, ...] * np.abs(data) ** 2) *
                         db * cellvol)
            table[(ai, j)] = math.sqrt(max(mass, 0.0))

    rows = []
    for ai, a in enumerate(a_vals):
        for j in range(family.levels + 1):
            envelope = (min(a, 1.0) ** 1.5) * 2.0 ** (-j * (k + 1) * m_order)
            rows.append(DecayRow(float(a), j, table[(ai, j)], envelope))

    def fit(mask) -> float:
        xs = np.log(a_vals[mask])
        ys = np.log(np.maximum([table[(ai, 0)] for ai in np.nonzero(mask)[0]],
                               1e-300))
        if len(xs) < 2:
            return float("nan")
        return float(np.polyfit(xs, ys, 1)[0])

    # Each asymptotic exponent is measured in the outer octaves of its
    # regime: a -> 0 for the |a|^(3/2) law, a -> inf for the plateau.  The
    # crossover sits at the localization width, so the inner octaves mix
    # both behaviors and belong to neither fit.
    lo_cut = float(a_vals.min()) * 8.0
    hi_cut = float(a_vals.max()) / 8.0
    small = fit(a_vals <= min(lo_cut, 1.0) + 1e-12)
    large = fit(a_vals >= max(hi_cut, 1.0) - 1e-12)
    ratios = []
    for j in range(1, family.levels):
        worst = 0.0
        for ai in range(len(a_vals)):
            lo = table[(ai, j)]
            hi = table[(ai, j + 1)]
            if lo > 0:
                worst = max(worst, hi / lo)
        ratios.append((j, worst))
    return DecayDiagnostic(tuple(rows), small, large, tuple(ratios))

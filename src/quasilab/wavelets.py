"""Continuous wavelet transform in x1, dyadic bar-frequency cutoffs, and the
decay diagnostics of the flat model.

The mother wavelet is the derivative of the standard smooth bump
exp(-1/(1-t^2)) on (-1,1): compactly supported, smooth, mean zero, with a
finite admissibility constant C_f = int |f^(eta)|^2/|eta| d eta.  C_f is
computed by Gauss-Legendre quadrature in ln eta (numpy alone), tails
reported, on first use: only ``reconstruct`` needs it, and its first call
runs ``admissibility``.
Transforms are plain quadratures on the field's x1 grid, summed per scale
tap by tap in numpy over a band of x1 rows, scanned once for its first and
last nonzero rows: each tap reaches only the windows where it lands on a
row between them, and only the windows some tap reaches are formed, so the
others are exact zeros, not small numbers.  A coefficient is a sum that
starts at +0 and never turns -0, so the taps skipped on zero rows, which
add +-0, change no bit of it.  The decay table windows only the band of
rows where its x1 window is nonzero, keeps no reference to the unwindowed
field, and transforms each scale's live windows only: every other row's
power is +0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .grids import (AxisSpec, GridField, cell_volume, dual_axis, ft_axes,
                    node_arrays)

_TWO_PI = 2.0 * np.pi
_T_POINTS = 8192     # t samples per unit length in the wavelet quadratures
_ETA_MIN, _ETA_MAX = 1e-6, 1e3   # frequency range of the C_f quadrature
_GL_NODES = 256      # Gauss-Legendre nodes per segment of the C_f quadrature
_A_GRID = tuple(np.geomspace(2.0 ** -6, 2.0 ** 6, 25))   # cwt's default scales
_LOCALIZE_HALFWIDTH = 1.5   # decay_diagnostic's window is flat out to here
_CWT_BLOCK = 1 << 15   # cwt's coefficients per block of windows (256 KB)


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
    l2_norm_sq: float
    mean: float                   # quadrature of f; ~0 by construction


def _fourier_abs_sq(eta: np.ndarray, t: np.ndarray, f: np.ndarray,
                    dt: float) -> np.ndarray:
    """|f^(eta)|^2 for real odd f: f^(eta) = -2i int_0^inf f sin(eta t) dt."""
    s = np.sin(np.outer(eta, t)) @ f * dt
    return 4.0 * s * s


@lru_cache(maxsize=1)
def make_mother_wavelet() -> MotherWavelet:
    """Build the bump-derivative wavelet: profile, support, L2 norm, mean.

    The admissibility constant is not part of it: ``admissibility`` computes
    C_f on first use, which is the first ``reconstruct``.
    """
    tt = np.linspace(-1.0, 1.0, 2 * _T_POINTS)
    fv = bump_derivative(tt)
    dtt = tt[1] - tt[0]
    return MotherWavelet(
        profile=bump_derivative,
        support_halfwidth=1.0,
        l2_norm_sq=float(np.sum(fv * fv) * dtt),
        mean=float(np.sum(fv) * dtt),
    )


@lru_cache(maxsize=1)
def admissibility() -> tuple[float, float, float]:
    """(C_f, tail_low, tail_high) of the bump-derivative wavelet.

    C_f = int_R |f^|^2/|eta| d eta is computed on [_ETA_MIN, _ETA_MAX]
    (doubled for the negative axis by symmetry) by Gauss-Legendre in
    s = ln eta, _GL_NODES nodes on each of three segments; the
    trapezoid-in-t evaluation of f^ is spectrally accurate because f
    vanishes to all orders at the endpoints.  tail_low bounds the omitted
    |eta| < _ETA_MIN piece and tail_high estimates the |eta| > _ETA_MAX one.
    """
    from numpy.polynomial.legendre import leggauss   # here: ~7 ms to import

    t = np.linspace(0.0, 1.0, _T_POINTS)
    ft = bump_derivative(t)
    dt = t[1] - t[0]
    x, w = leggauss(_GL_NODES)
    c_half = 0.0
    for a, b in ((_ETA_MIN, 1.0), (1.0, 50.0), (50.0, _ETA_MAX)):
        half, mid = 0.5 * math.log(b / a), 0.5 * math.log(a * b)
        eta = np.exp(half * x + mid)   # d eta / eta = ds
        c_half += half * float(w @ _fourier_abs_sq(eta, t, ft, dt))
    # Tails: |f^(eta)|^2/eta <= C*eta near 0; superpolynomial decay above.
    near = _fourier_abs_sq(np.array([_ETA_MIN]), t, ft, dt)[0] / _ETA_MIN
    tail_low = near * _ETA_MIN  # integrand decreases ~linearly to 0 below it
    hi = _fourier_abs_sq(np.array([_ETA_MAX]), t, ft, dt)[0] / _ETA_MAX
    tail_high = hi * _ETA_MAX   # crude envelope; decay there is superpolynomial
    return 2.0 * c_half, 2.0 * tail_low, 2.0 * tail_high


# -- continuous wavelet transform --------------------------------------------------

@dataclass
class WaveletCoefficients:
    """X(a, b, .) per scale: ragged in b because the b step tracks a."""

    a_grid: np.ndarray
    b_grids: list[np.ndarray]
    values: list[np.ndarray]      # per scale: (len(b_grid), *bar_shape)
    x1_axis: AxisSpec
    h: float


def _nonzero_rows(flat: np.ndarray) -> tuple[int, int]:
    """(first, last) rows of a 2-D array that hold a nonzero entry, NaN
    included; (n, -1), an empty range, when every entry is +-0."""
    rows = np.flatnonzero(flat.any(axis=1))
    if rows.size == 0:
        return flat.shape[0], -1
    return int(rows[0]), int(rows[-1])


def _scale_windows(band: np.ndarray, row0: int, ax: AxisSpec, w: MotherWavelet,
                   a_grid: Sequence[float], b_step_factor: float = 8.0,
                   x1_scale: float = 1.0):
    """Per scale: (b, coefficients of windows [wlo, whi), wlo).

    band is the real (rows, 2 * prod(bar_shape)) view of x1 rows row0,
    row0 + 1, ... of a field on the x1 axis ax; every row outside it is
    zero.  The band is scanned once for its first and last nonzero rows.
    [wlo, whi) is the union of the window ranges of the scale's live taps:
    the windows where some nonzero tap lands on a row from the first
    nonzero row to the last.  Every window outside it gets no tap, so its
    coefficients are +0 and are not formed.
    """
    dx = ax.spacing
    n1 = ax.points
    first, last = _nonzero_rows(band)
    first, last = first + row0, last + row0
    cols = band.shape[1]
    block = max(1, _CWT_BLOCK // cols)
    for a in np.asarray(a_grid, dtype=float):
        if a <= 0:
            raise ValueError("scales must be positive")
        half = w.support_halfwidth * a
        qstride = max(1, int(min(a / 16.0, x1_scale / 8.0) / dx))
        qstep = qstride * dx
        wcells = int(math.ceil(2.0 * half / qstep)) + 2
        stride = max(1, int(round(a / b_step_factor / dx)))
        pad_cells = int(math.ceil(2.0 * half / dx)) + wcells * qstride
        b_idx = np.arange(-pad_cells, n1 + pad_cells, stride)
        b = ax.start + (b_idx + 0.5) * dx
        offs = (np.arange(2 * wcells + 1) - wcells) * qstride
        # b sits on the grid, so the sampled profile is one row for every b.
        frow = w.profile(offs * dx / a) / math.sqrt(a)
        # Window i's tap at off reads field row i * stride + (off - pad_cells);
        # windows [lo, hi) are those where that row lies on the rows
        # first..last, outside which every sample is a zero.
        shift = offs - pad_cells
        lo = np.maximum(0, -((shift - first) // stride))
        hi = np.minimum(len(b), (last - shift) // stride + 1)
        live = (frow != 0.0) & (lo < hi)
        lo, hi = lo[live], hi[live]
        wlo, whi = (int(lo.min()), int(hi.max())) if lo.size else (0, 0)
        taps = list(zip(frow[live].tolist(), (shift[live] - row0).tolist(),
                        lo.tolist(), hi.tolist()))
        # Every coefficient adds its taps to +0 one by one in ascending
        # order, the padded-gather oracle's order, which fixes every output
        # bit; windows go in blocks small enough to stay in cache across
        # their taps.  A sum that starts at +0 never becomes -0, so adding
        # a +-0 term changes no bit of it: skipping a zero tap or a tap on
        # a zero row keeps every bit, signed zeros included.
        out = np.zeros((whi - wlo, cols))
        buf = np.empty((min(block, whi - wlo), cols))
        for r0 in range(wlo, whi, block):
            for f, sh, t0, t1 in taps:
                i0, i1 = max(t0, r0), min(t1, r0 + block)
                if i0 < i1:
                    c0 = i0 * stride + sh
                    out[i0 - wlo:i1 - wlo] += np.multiply(
                        band[c0:c0 + (i1 - i0 - 1) * stride + 1:stride], f,
                        out=buf[:i1 - i0])
        out *= qstep
        yield b, out, wlo


def cwt(v: GridField, w: MotherWavelet, a_grid: Sequence[float] | None = None,
        b_step_factor: float = 8.0, x1_scale: float = 1.0) -> WaveletCoefficients:
    """X(a,b,bar) = |a|^(-1/2) int f((x1-b)/a) v(x1,bar) dx1 on the x1 grid.

    b runs on a per-scale grid of step ~ a/b_step_factor (snapped to the x1
    grid so windows slide by whole cells), extended one dilated support
    beyond the data so the no-overlap region is represented.  The field is
    scanned once for its first and last nonzero rows.  Each scale sums its
    taps in ascending order, each one a strided multiply-add over the
    windows where it lands on a row between those two; only the windows
    some tap reaches are formed, and the others are padded with +0, the
    same bits as a sum over every sample.

    At scales far above the grid step the quadrature decimates to a step of
    min(a/16, x1_scale/8): both the dilated profile and the field (whose x1
    variation scale the caller declares) are smooth at that resolution, and
    the wide-window cost drops from O(a) to O(1) per translate.
    """
    if a_grid is None:
        a_grid = _A_GRID
    bar_shape = v.data.shape[1:]
    # The field as real (n1, 2 * prod(bar_shape)): each tap acts on real and
    # imaginary parts at once.
    flat = np.ascontiguousarray(v.data, dtype=complex).reshape(
        v.axes[0].points, -1).view(float)
    values: list[np.ndarray] = []
    b_grids: list[np.ndarray] = []
    for b, x, wlo in _scale_windows(flat, 0, v.axes[0], w, a_grid,
                                    b_step_factor, x1_scale):
        out = np.zeros((len(b), flat.shape[1]))
        out[wlo:wlo + len(x)] = x
        values.append(out.view(complex).reshape((len(b),) + bar_shape))
        b_grids.append(b)
    return WaveletCoefficients(np.asarray(a_grid, float), b_grids, values,
                               v.axes[0], v.h)


def reconstruct(coeffs: WaveletCoefficients, w: MotherWavelet,
                x_nodes: np.ndarray) -> np.ndarray:
    """Inverse transform (2/C_f) sum_a w_a sum_b db a^(-5/2) X f((x-b)/a).

    Positive scales only, hence the factor 2/C_f (from ``admissibility``,
    computed on the first call); the a-quadrature uses the log-spaced
    weights a * dln(a).
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
    return out * (2.0 / admissibility()[0])


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
class DecayDiagnostic:
    a_grid: np.ndarray       # the scales a: one row of mass and bound each
    mass: np.ndarray         # N(a, j), one column per level j
    bound: np.ndarray        # decay-law envelope at M = 1 (relative units)
    small_a_slope: float     # fitted log N / log a over a <= 1, j = 0
    large_a_slope: float     # same over a >= 1
    j_ratios: tuple[tuple[int, float], ...]  # (j, max_a N(a,j+1)/N(a,j)), j >= 1


def _scale_powers(v: GridField, w: MotherWavelet):
    """(db, |F_h X(a, b, .)|^2) for every b, one scale of _A_GRID at a time,
    of v windowed by decay_diagnostic's x1 window.

    Only the x1 rows where the window is nonzero are multiplied, and the
    generator keeps no reference to v once they are: the unwindowed field is
    freed here when the caller holds no other.  Each scale transforms only
    its live windows' coefficients; the other rows are exact zeros, whose
    power is +0.
    """
    ax, bar_axes, h = v.axes[0], v.axes[1:], v.h
    bar_shape = v.data.shape[1:]
    window = _smooth_step(np.abs(ax.nodes()) / _LOCALIZE_HALFWIDTH)
    rows = np.flatnonzero(window)
    row0, row1 = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
    band = v.data[row0:row1] * window[row0:row1].reshape(
        (-1,) + (1,) * len(bar_shape))
    del v
    band = np.ascontiguousarray(band, dtype=complex).reshape(
        row1 - row0, -1).view(float)
    for b, x, wlo in _scale_windows(band, row0, ax, w, _A_GRID):
        db = b[1] - b[0] if len(b) > 1 else ax.spacing
        power = np.zeros((len(b),) + bar_shape)
        live = power[wlo:wlo + len(x)]
        hat, _ = ft_axes(x.view(complex).reshape(live.shape), bar_axes, h)
        np.square(np.abs(hat, out=live), out=live)
        del hat
        yield db, power


def decay_diagnostic(v: GridField, w: MotherWavelet, m_order: int,
                       k: int) -> DecayDiagnostic:
    """Measure N(a,j) = || sqrt(psi_j) F_h[X_v(a,b,.)] ||_{L2(b,xi_bar)}.

    v is a flat-model quasimode on a position grid (x1 = axis 0); the bar
    transform runs on the grid's dual axes.  Reports the fitted a-slopes at
    j = 0 and the worst consecutive-j decay ratios for comparison against
    the 2^(-j(k+1)M) * (|a|^(3/2) for a <= 1, 1 for a >= 1) envelope.

    The decay law presumes a quasimode localized in an O(1) region, while a
    sharp-cutoff synthesis has |x1|^-1 tails out to the box; v is therefore
    multiplied by a smooth window flat on |x1| <= _LOCALIZE_HALFWIDTH (zero
    past 1.5x).  The window commutes with hD_x1 up to an exact O(h) term, so
    the windowed field is still an order-h quasimode and the envelope
    applies to it verbatim.
    """
    if v.dim < 2:
        raise DimensionMismatchError("need at least one bar axis")
    family = dyadic_cutoffs(v.h, k)
    a_vals = np.asarray(_A_GRID)
    duals = [dual_axis(ax, v.h) for ax in v.axes[1:]]
    radius = np.sqrt(sum(g * g for g in node_arrays(duals, len(duals))))
    cellvol = cell_volume(duals)
    weights = [family.psi(j, radius)[None, ...]
               for j in range(family.levels + 1)]
    powers = _scale_powers(v, w)
    del v   # the generator holds the field only until it is windowed
    mass = np.array([[np.sum(weight * power) * db * cellvol
                      for weight in weights] for db, power in powers])
    mass = np.sqrt(np.maximum(mass, 0.0))
    bound = np.array([[min(a, 1.0) ** 1.5 * 2.0 ** (-j * (k + 1) * m_order)
                       for j in range(family.levels + 1)] for a in a_vals])

    def fit(mask) -> float:
        xs = np.log(a_vals[mask])
        ys = np.log(np.maximum(mass[mask, 0], 1e-300))
        return float(np.polyfit(xs, ys, 1)[0])

    # Each asymptotic exponent is measured in the outer octaves of its
    # regime: a -> 0 for the |a|^(3/2) law, a -> inf for the plateau.  The
    # crossover sits at the localization width, so the inner octaves mix
    # both behaviors and belong to neither fit.
    lo_cut = float(a_vals.min()) * 8.0
    hi_cut = float(a_vals.max()) / 8.0
    small = fit(a_vals <= min(lo_cut, 1.0) + 1e-12)
    large = fit(a_vals >= max(hi_cut, 1.0) - 1e-12)
    ratios = tuple((j, max([0.0] + [hi / lo for lo, hi in
                                    mass[:, j:j + 2].tolist() if lo > 0]))
                   for j in range(1, family.levels))
    return DecayDiagnostic(a_vals, mass, bound, small, large, ratios)

"""Oscillatory-integral quadrature, the nondegenerate-phase decay check with
h-dependent amplitudes, and the dyadically localized TT* kernel.

evaluate() refuses under-resolved requests instead of returning garbage:
the tensor midpoint rule needs a fixed number of points per oscillation
wavelength (2*pi*h/|grad phi|), after which its error is the aliasing level
of the smooth compactly supported integrand, far below the value itself.
The rule sums fixed slabs of nodes, written into one node array per
quadrature; on each it evaluates the amplitude first and takes the phase
and the complex exponential only on the amplitude's support, gathered from
the flat (N, d) list of nodes.  The zeros stay in place and every slab is
summed whole, so the reduction order, and with it every output bit,
depends only on the grid.

The decay check sweeps h, fits log|I| against log h, and certifies the
h^(d/2) mu^(-d/2) law only when the declared amplitude regularity loss
f(h) <= h^(-1/2) mu^(1/2) holds and the located critical point is unique
and nondegenerate with |det Hess| on the order of mu^d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .analysis import MIN_SWEEP_POINTS, _fit_line
from .errors import ResolutionError
from .symbols import PolySymbol
from .wavelets import MotherWavelet, _smooth_step

_TWO_PI = 2.0 * np.pi
_SLAB_POINTS = 1 << 16   # quadrature points per slab of _slabs
_GRAD_PROBE = 33         # probe nodes per axis for the phase-gradient bound
POINTS_PER_WAVELENGTH = 10.0   # evaluate's nodes per oscillation wavelength,
MIN_POINTS_PER_AXIS = 33       # and the least and most nodes per axis it uses
MAX_POINTS_PER_AXIS = 1 << 17
MAX_QUAD_POINTS = 1 << 24      # and the most nodes in all, over d axes
_HESS_FLOOR = 0.1    # vdc_check's least |det Hess| / mu^d at the critical point
_RATIO_BAND = 10.0   # and widest max/min spread of the normalized ratios

Phase = Callable[[np.ndarray], np.ndarray]          # (..., d) -> (...)
Amplitude = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class OscIntegrand:
    """I(h) = int_box exp(i*phase/h) * amplitude(xi, h) dxi.

    loss_rate(h) declares the amplitude's regularity loss per derivative
    (the f(h) of the admissibility condition f(h) <= h^(-1/2) mu^(1/2)).
    """

    phase: Phase
    amplitude: Amplitude
    d: int
    box: tuple[tuple[float, float], ...]
    loss_rate: Callable[[float], float]


@dataclass(frozen=True)
class EvalResult:
    value: complex
    points_per_axis: int
    error_estimate: float


def _grad_max(phase: Phase, box, d: int) -> float:
    axes = [np.linspace(lo, hi, _GRAD_PROBE) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    eps = min(hi - lo for lo, hi in box) * 1e-5
    gmax = 0.0
    for k in range(d):
        shift = np.zeros(d)
        shift[k] = eps
        g = (phase(pts + shift) - phase(pts - shift)) / (2 * eps)
        gmax = max(gmax, float(np.abs(g).max()))
    return gmax


def evaluate(integrand: OscIntegrand, h: float) -> EvalResult:
    """Tensor midpoint quadrature with a nested coarse pass for error control.

    Raises ResolutionError, before any quadrature runs, when honoring
    POINTS_PER_WAVELENGTH (and the amplitude's own scale 1/f(h)) would
    exceed MAX_POINTS_PER_AXIS, or MAX_QUAD_POINTS nodes over the d axes.
    """
    if not 0 < h <= 1:
        raise ValueError("h must lie in (0, 1]")
    d = integrand.d
    gmax = _grad_max(integrand.phase, integrand.box, d)
    widths = [hi - lo for lo, hi in integrand.box]
    wavelength = _TWO_PI * h / gmax if gmax > 0 else math.inf
    loss = integrand.loss_rate(h)
    amp_scale = 1.0 / loss if loss > 0 else math.inf
    n = MIN_POINTS_PER_AXIS
    for width in widths:
        need_osc = width / wavelength * POINTS_PER_WAVELENGTH
        need_amp = width / amp_scale * 8.0
        n = max(n, math.ceil(need_osc), math.ceil(need_amp))
    if n > MAX_POINTS_PER_AXIS or n ** d > MAX_QUAD_POINTS:
        raise ResolutionError(
            f"{n} points per axis, {n ** d} in all, needed to resolve the "
            f"oscillation (budget {MAX_POINTS_PER_AXIS} per axis and "
            f"{MAX_QUAD_POINTS} in all); refusing")
    # Nested midpoint rules (n and n//2) give a data-driven error estimate.
    coarse = _midpoint(integrand, h, max(MIN_POINTS_PER_AXIS // 2, n // 2))
    fine = _midpoint(integrand, h, n)
    return EvalResult(fine, n, abs(fine - coarse))


def _midpoint(integrand: OscIntegrand, h: float, n: int) -> complex:
    def integrand_values(pts: np.ndarray) -> np.ndarray:
        # exp(i*phase/h) * amp vanishes wherever amp does, so the phase and
        # the exponential are taken on the support only, gathered from the
        # flat (N, d) view of the nodes and scattered back through a 1-D
        # mask.  The values land in a zero array of the slab's size, which
        # is summed whole: the same reduction order as the unmasked
        # product, so the same bits.
        amp = integrand.amplitude(pts, h).ravel()
        on = amp != 0
        support = np.compress(on, pts.reshape(-1, pts.shape[-1]), axis=0)
        vals = np.zeros(amp.shape, complex)
        vals[on] = np.exp(1j * integrand.phase(support) / h) * amp[on]
        return vals

    return complex(sum(_slabs(integrand.box, n, integrand_values)))


def _slabs(box: Sequence[tuple[float, float]], n: int,
           f: Callable[[np.ndarray], np.ndarray]) -> Iterator[complex]:
    """Midpoint sums of f over the n^d tensor grid on box, one slab at a time.

    A slab is a fixed run of first-axis indices holding at most _SLAB_POINTS
    points (one index when a single one holds more), so memory stays bounded
    and the reduction order depends only on n and d.  Each slab's nodes are
    written, coordinate by coordinate, into one C-order (rows, n, ..., d)
    array allocated once per call (a partial last slab is its leading
    part): the values of np.stack(np.meshgrid(...)) without building the
    mesh.  f gets that array and may not keep it past its return.
    """
    d = len(box)
    axes = []
    cell = 1.0
    for lo, hi in box:
        step = (hi - lo) / n
        axes.append(lo + (np.arange(n) + 0.5) * step)
        cell *= step
    rows = min(n, max(1, _SLAB_POINTS // n ** (d - 1)))
    nodes = np.empty((rows,) + (n,) * (d - 1) + (d,))
    for start in range(0, n, rows):
        pts = nodes[:n - start]
        for k, ax in enumerate(axes):
            shape = [1] * d
            shape[k] = -1
            pts[..., k] = (ax[start:start + rows] if k == 0 else ax).reshape(shape)
        yield np.sum(f(pts)) * cell


# -- critical point location ----------------------------------------------------

def _grad_hess(phase: Phase, x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    d = len(x)
    grad = np.zeros(d)
    hess = np.zeros((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = eps
        grad[i] = (phase(x + ei) - phase(x - ei)) / (2 * eps)
        hess[i, i] = (phase(x + ei) - 2 * phase(x) + phase(x - ei)) / eps ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = eps
            hess[i, j] = hess[j, i] = (
                phase(x + ei + ej) - phase(x + ei - ej)
                - phase(x - ei + ej) + phase(x - ei - ej)) / (4 * eps ** 2)
    return grad, hess


def find_critical_points(phase: Phase, box, d: int) -> list[np.ndarray]:
    """Damped Newton from the box center and corners; clustered duplicates merged."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    scale = float(np.max(hi - lo))
    eps = scale * 1e-5
    starts = [0.5 * (lo + hi)]
    for corner in itertools.product(*[(0.25, 0.75)] * d):
        starts.append(lo + np.array(corner) * (hi - lo))
    found: list[np.ndarray] = []
    for x in starts:
        x = x.astype(float)
        ok = False
        for _ in range(80):
            grad, hess = _grad_hess(phase, x, eps)
            if np.linalg.norm(grad) < 1e-10 * max(1.0, scale):
                ok = True
                break
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                break
            limit = 0.25 * scale
            norm = np.linalg.norm(step)
            if norm > limit:
                step *= limit / norm
            x = x - step
            if np.any(x < lo - 0.5 * (hi - lo)) or np.any(x > hi + 0.5 * (hi - lo)):
                break
        if not ok or np.any(x < lo) or np.any(x > hi):
            continue
        if not any(np.linalg.norm(x - y) < 1e-6 * max(1.0, scale) for y in found):
            found.append(x)
    return found


# -- the decay verdict ----------------------------------------------------------

@dataclass(frozen=True)
class VdcReport:
    h_values: tuple[float, ...]
    magnitudes: tuple[float, ...]
    ratios: tuple[float, ...]        # |I| * h^(-d/2) * mu^(d/2)
    fitted_exponent: float
    slope_stderr: float
    admissible: bool
    critical_point: tuple[float, ...] | None
    hess_det: float
    verdict: str                     # PASS | FAIL | REFUSED
    reason: str


def vdc_check(integrand: OscIntegrand, h_values: Sequence[float], mu: float,
              exponent_tolerance: float = 0.1) -> VdcReport:
    """Sweep h, fit log|I| vs log h, and compare against the d/2 decay law.

    PASS requires: declared amplitude loss admissible at every h, a unique
    nondegenerate critical point with |det Hess| >= _HESS_FLOOR * mu^d,
    fitted exponent >= d/2 - exponent_tolerance, and the normalized ratios
    |I| h^(-d/2) mu^(d/2) within a factor _RATIO_BAND across the sweep.
    """
    if len(h_values) < MIN_SWEEP_POINTS:
        raise ValueError(f"need at least {MIN_SWEEP_POINTS} sweep points")
    d = integrand.d
    crits = find_critical_points(integrand.phase, integrand.box, d)
    if len(crits) != 1:
        return VdcReport(tuple(h_values), (), (), math.nan, math.nan, False,
                         None, math.nan, "REFUSED",
                         f"expected one critical point, found {len(crits)}")
    crit = crits[0]
    scale = max(b[1] - b[0] for b in integrand.box)
    _, hess = _grad_hess(integrand.phase, crit, scale * 1e-4)
    det = float(abs(np.linalg.det(hess)))
    if det < _HESS_FLOOR * mu ** d:
        return VdcReport(tuple(h_values), (), (), math.nan, math.nan, False,
                         tuple(crit), det, "REFUSED",
                         f"|det Hess| = {det:.3g} below {_HESS_FLOOR} * mu^d")

    admissible = all(integrand.loss_rate(h) <= h ** -0.5 * mu ** 0.5 * (1 + 1e-9)
                     for h in h_values)
    mags = []
    for h in h_values:
        res = evaluate(integrand, h)
        mags.append(abs(res.value))
    logs_h = np.log(np.asarray(h_values, float))
    logs_m = np.log(np.maximum(mags, 1e-300))
    slope, stderr = _fit_line(logs_h, logs_m)
    ratios = tuple(m * h ** (-d / 2) * mu ** (d / 2)
                   for m, h in zip(mags, h_values))
    bounded = max(ratios) <= _RATIO_BAND * max(min(ratios), 1e-300)
    ok = admissible and slope >= d / 2 - exponent_tolerance and bounded
    reason = ""
    if not admissible:
        reason = "amplitude loss rate violates h^(-1/2) mu^(1/2)"
    elif slope < d / 2 - exponent_tolerance:
        reason = f"fitted exponent {slope:.3f} below {d / 2 - exponent_tolerance:.3f}"
    elif not bounded:
        reason = "normalized ratios not confined to the allowed band"
    return VdcReport(tuple(h_values), tuple(mags), ratios, float(slope),
                     float(stderr), admissible, tuple(crit), det,
                     "PASS" if ok else "FAIL", reason)


# -- model families ----------------------------------------------------------------

def _norm_sq(pts: np.ndarray) -> np.ndarray:
    """|xi|^2 over the trailing axis, pts[..., 0]^2 + pts[..., 1]^2 + ...

    Summed left to right, which gives the same bits as
    np.sum(pts ** 2, axis=-1) without numpy's slow reduction over a short
    trailing axis.
    """
    pts = np.asarray(pts, float)
    out = pts[..., 0] ** 2
    for i in range(1, pts.shape[-1]):
        out += pts[..., i] ** 2
    return out


def quadratic_phase(mu: float, d: int) -> Phase:
    """phi(xi) = mu |xi|^2 / 2: unique nondegenerate critical point at 0."""

    def phi(pts: np.ndarray) -> np.ndarray:
        return 0.5 * mu * _norm_sq(pts)

    return phi


def dyadic_amplitude(k: int, j: int) -> Amplitude:
    """Smoothed cutoff at the dyadic scale 2^j h^(1/(k+1)) covering 0.

    Loss rate f(h) = (2^j h^(1/(k+1)))^(-1): admissible for mu = 1 whenever
    h <= 1, the amplitude regime of the kernel estimates.
    """

    def amp(pts: np.ndarray, h: float) -> np.ndarray:
        s = 2.0 ** j * h ** (1.0 / (k + 1))
        r = np.sqrt(_norm_sq(pts))
        return _smooth_step(r / s)

    return amp


def dyadic_loss(k: int, j: int) -> Callable[[float], float]:
    return lambda h: (2.0 ** j * h ** (1.0 / (k + 1))) ** -1.0


def resonant_amplitude(phase: Phase, beta: float) -> Amplitude:
    """Conjugate chirp exp(-i*phase/h) on a window of width h^(1-beta).

    Declared loss rate h^(-beta).  For beta > 1/2 this is the standard
    sharpness family for the stationary-phase bound: the chirp cancels the
    oscillation on the window, so |I| ~ h^(1-beta) instead of h^(d/2).
    """
    from .wavelets import bump

    def amp(pts: np.ndarray, h: float) -> np.ndarray:
        w = h ** (1.0 - beta)
        r = np.sqrt(_norm_sq(pts))
        return bump(r / w) * np.exp(-1j * phase(pts) / h)

    return amp


def power_loss(beta: float) -> Callable[[float], float]:
    return lambda h: h ** -beta


# -- TT* kernel --------------------------------------------------------------------

@dataclass(frozen=True)
class KernelValue:
    value: complex
    b_overlap: float            # |int f((x1-b)/a) f((z1-b)/a) db| <= a ||f||^2
    trivial_bound: float        # support-only estimate of |K|


def window_overlap(w: MotherWavelet, a: float, sep: float) -> float:
    """The b-overlap a * int f(u) f(u - sep/a) du of two windows of scale a
    whose centres lie sep apart, summed on 4,096 u nodes.

    It is exactly 0.0 once |sep| / a >= 2 * support_halfwidth, where the
    windows are disjoint, and can be 0.0 just below that, where their
    overlap is thinner than the nodes resolve.
    """
    if abs(sep) / a >= 2.0 * w.support_halfwidth:
        return 0.0
    tgrid = np.linspace(-1.0, 1.0 + abs(sep) / a, 4096)
    fv = w.profile(tgrid)
    fs = w.profile(tgrid - sep / a)
    return a * float(np.sum(fv * fs) * (tgrid[1] - tgrid[0]))


def ttstar_kernel(a1: PolySymbol, w: MotherWavelet, a: float, j: int,
                  h: float, k: int, x1: float, z1: float,
                  xbar: Sequence[float], zbar: Sequence[float]) -> KernelValue:
    """Dyadic TT* kernel in the constant-coefficient model.

    K = B(x1,z1;a) * (2 pi h)^(-(n-1)) * int exp(i((xbar-zbar).xi
        + (x1-z1) a1(xi))/h) psi_j(|xi|) dxi, where B is the wavelet
    autocorrelation of the two windows (exact zero once |x1-z1| exceeds the
    combined support, so the kernel vanishes there).
    """
    m = a1.dim
    sep = x1 - z1
    b_overlap = window_overlap(w, a, sep)
    if b_overlap == 0.0:
        return KernelValue(0.0, 0.0, 0.0)

    from .wavelets import dyadic_cutoffs
    family = dyadic_cutoffs(h, k)
    scale = family.scale(j)
    ext = 2.0 * scale if j == 0 else 1.5 * scale
    box = tuple((-ext, ext) for _ in range(m))
    dxz = np.asarray(xbar, float) - np.asarray(zbar, float)

    def phase(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, float)
        lin = np.tensordot(pts, dxz, axes=(-1, 0))
        return lin + sep * a1.eval_grid([pts[..., i] for i in range(m)])

    def amp(pts: np.ndarray, h_: float) -> np.ndarray:
        r = np.sqrt(_norm_sq(pts))
        return family.psi(j, r)

    integrand = OscIntegrand(phase, amp, m, box, lambda h_: 1.0 / scale)
    res = evaluate(integrand, h)
    pref = (_TWO_PI * h) ** (-m)
    # Triangle inequality on the same quadrature nodes: |sum| <= sum of
    # moduli holds to rounding, so the support-only bound is sharp in the
    # non-oscillatory regime.
    psi_mass = _midpoint_abs(integrand, h, res.points_per_axis)
    return KernelValue(pref * b_overlap * res.value,
                       abs(b_overlap),
                       pref * abs(b_overlap) * psi_mass)


def _midpoint_abs(integrand: OscIntegrand, h: float, n: int) -> float:
    return float(sum(_slabs(integrand.box, n,
                            lambda pts: np.abs(integrand.amplitude(pts, h)))))

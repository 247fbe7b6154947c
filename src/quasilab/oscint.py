"""Oscillatory-integral quadrature, the nondegenerate-phase decay check with
h-dependent amplitudes, and the dyadically localized TT* kernel.  An
amplitude carries its loss rate and support radius (Amplitude); the dyadic
ones take their scale from wavelets.dyadic_cutoffs.

evaluate() refuses under-resolved requests instead of returning garbage:
the tensor midpoint rule needs a fixed number of points per oscillation
wavelength (2*pi*h/|grad phi|), after which its error is the aliasing level
of the smooth compactly supported integrand, far below the value itself.
The rule sums fixed slabs of nodes, written into one node array per
quadrature; on each it evaluates the amplitude first and takes the phase
and the complex exponential only on the amplitude's support, gathered from
the flat (N, d) list of nodes.  An amplitude declares a support radius R,
outside whose cube |xi_k| < R it is exactly 0: a slab that misses the
cube (padded by one node per side) is skipped, and inside the others
nodes are built and the amplitude taken only on the cube's rows and
columns.  Everywhere else the slab keeps the zeros the amplitude would
have given, and every slab is summed whole, so the reduction order, and
with it every output bit, depends only on the grid, not on the radius.
An integrand declares the axes on which its phase and its amplitude are
both even (OscIntegrand.even): run_vdc every axis, ttstar_kernel each
variable that a1 holds only to even powers.  On each such axis whose box
is symmetric the rule sums the upper half of the nodes at weight 2, the
node at 0 at weight 1 (_slabs): one orthant of the box, with the node
count, and so every budget and refusal, of the whole box.

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
from .wavelets import _smooth_step, bump, dyadic_cutoffs, make_mother_wavelet

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


@dataclass(frozen=True)
class Amplitude:
    """An amplitude: values(pts, h), (..., d) -> (...); loss_rate(h), its
    regularity loss per derivative (the f(h) of the admissibility condition
    f(h) <= h^(-1/2) mu^(1/2)); and support_radius(h), an R such that it is
    exactly 0 at every node where some |xi_k| >= R.  The quadrature skips
    the nodes outside that cube (see _slabs); math.inf keeps the box."""

    values: Callable[[np.ndarray, float], np.ndarray]
    loss_rate: Callable[[float], float]
    support_radius: Callable[[float], float]


@dataclass(frozen=True)
class OscIntegrand:
    """I(h) = int_box exp(i*phase/h) * amplitude.values(xi, h) dxi.

    The box is never shrunk to the amplitude's support cube: the node
    count and every node come from the box.  even holds the axes, 0 first,
    on which both the phase and the amplitude are even: the quadrature
    sums one half of each such axis whose box is symmetric (_slabs).  An
    integrand that declares none is summed on the whole box.
    """

    phase: Phase
    amplitude: Amplitude
    d: int
    box: tuple[tuple[float, float], ...]
    even: frozenset[int] = frozenset()


@dataclass(frozen=True)
class EvalResult:
    value: complex
    points_per_axis: int
    error_estimate: float


def _grad_max(phase: Phase, box, d: int) -> float:
    """The largest |d phase / d xi_k| by centered differences over the
    _GRAD_PROBE^d mesh of the box, probed in slabs of first-axis indices of
    at most _SLAB_POINTS nodes (_slab_rows): the maximum does not depend on
    the order, so the slabs give the whole mesh's value.  A gradient that is
    not finite on the mesh (a phase that overflows there) is refused with
    ResolutionError: no node count resolves it, and Python's max would drop
    a NaN and read it as no oscillation."""
    axes = [np.linspace(lo, hi, _GRAD_PROBE) for lo, hi in box]
    eps = min(hi - lo for lo, hi in box) * 1e-5
    rows = _slab_rows(_GRAD_PROBE, d)
    gmax = 0.0
    for r0 in range(0, _GRAD_PROBE, rows):
        pts = np.stack(np.meshgrid(axes[0][r0:r0 + rows], *axes[1:],
                                   indexing="ij"), axis=-1)
        for k in range(d):
            shift = np.zeros(d)
            shift[k] = eps
            with np.errstate(over="ignore", invalid="ignore"):
                g = (phase(pts + shift) - phase(pts - shift)) / (2 * eps)
            gk = float(np.abs(g).max())
            if not math.isfinite(gk):
                raise ResolutionError(
                    f"the phase gradient on axis {k + 1} is {gk} on the "
                    "probe mesh of the box; refusing")
            gmax = max(gmax, gk)
    return gmax


def evaluate(integrand: OscIntegrand, h: float) -> EvalResult:
    """Tensor midpoint quadrature with a nested coarse pass for error control.

    Raises ResolutionError, before any quadrature runs, when honoring
    POINTS_PER_WAVELENGTH (and the amplitude's own scale 1/f(h)) would
    exceed MAX_POINTS_PER_AXIS, or MAX_QUAD_POINTS nodes over the d axes,
    or when the phase gradient is not finite (_grad_max); and before the
    phase-gradient probe's mesh is built when even the least count per
    axis would.
    """
    if not 0 < h <= 1:
        raise ValueError("h must lie in (0, 1]")
    d = integrand.d
    least = max(MIN_POINTS_PER_AXIS, _GRAD_PROBE)
    if least ** d > MAX_QUAD_POINTS:
        raise ResolutionError(
            f"at least {least} points per axis, {least ** d} in all over "
            f"{d} axes (budget {MAX_QUAD_POINTS} in all); refusing")
    gmax = _grad_max(integrand.phase, integrand.box, d)
    widths = [hi - lo for lo, hi in integrand.box]
    wavelength = _TWO_PI * h / gmax if gmax > 0 else math.inf
    loss = integrand.amplitude.loss_rate(h)
    amp_scale = 1.0 / loss if loss > 0 else math.inf
    n = MIN_POINTS_PER_AXIS
    for width in widths:
        need_osc = width / wavelength * POINTS_PER_WAVELENGTH
        need_amp = width / amp_scale * 8.0
        if not max(need_osc, need_amp) <= MAX_POINTS_PER_AXIS:
            raise ResolutionError(
                f"{max(need_osc, need_amp):.4g} points per axis needed to "
                f"resolve the oscillation (budget {MAX_POINTS_PER_AXIS} per "
                "axis); refusing")
        n = max(n, math.ceil(need_osc), math.ceil(need_amp))
    if n ** d > MAX_QUAD_POINTS:
        raise ResolutionError(
            f"{n} points per axis, {n ** d} in all, needed to resolve the "
            f"oscillation (budget {MAX_POINTS_PER_AXIS} per axis and "
            f"{MAX_QUAD_POINTS} in all); refusing")
    # Nested midpoint rules (n and n//2) give a data-driven error estimate.
    # One values array and one exponential scratch, each as long as the
    # longer slab of the two passes, serve both.
    coarse_n = max(MIN_POINTS_PER_AXIS // 2, n // 2)
    size = max(_slab_points(coarse_n, d), _slab_points(n, d))
    buffers = np.empty(size, complex), np.empty(size, complex)
    coarse = _midpoint(integrand, h, coarse_n, buffers)
    fine = _midpoint(integrand, h, n, buffers)
    return EvalResult(fine, n, abs(fine - coarse))


def _midpoint(integrand: OscIntegrand, h: float, n: int,
              buffers: tuple[np.ndarray, np.ndarray]) -> complex:
    """The midpoint rule on n nodes per axis.  buffers, two complex arrays
    at least one slab long, hold the slab's values and the exponential
    scratch."""
    values, scratch = buffers

    def integrand_values(pts: np.ndarray, out: np.ndarray) -> None:
        # exp(i*phase/h) * amp vanishes wherever amp does, so the phase and
        # the exponential are taken on the support only, gathered from the
        # flat (N, d) view of the nodes and scattered back into out through
        # the mask: the zeros stay, and the slab is summed whole, which is
        # the unmasked product's reduction order, so the same bits.  The
        # exponential is formed in place with the ufuncs and operand order
        # of np.exp(1j * phase / h) * amp.
        amp = integrand.amplitude.values(pts, h)
        on = amp != 0
        support = np.compress(on.ravel(), pts.reshape(-1, pts.shape[-1]), axis=0)
        e = scratch[:len(support)]
        np.multiply(1j, integrand.phase(support), out=e)
        np.divide(e, h, out=e)
        np.exp(e, out=e)
        np.multiply(e, amp[on], out=e)
        out[on] = e

    return complex(sum(_slabs(integrand.box, n,
                              integrand.amplitude.support_radius(h), values,
                              integrand_values, integrand.even)))


def _slab_rows(n: int, d: int) -> int:
    """First-axis indices per slab of _slabs: at most _SLAB_POINTS points,
    one index when a single one holds more."""
    return min(n, max(1, _SLAB_POINTS // n ** (d - 1)))


def _slab_points(n: int, d: int) -> int:
    """Nodes in a full slab of _slabs."""
    return _slab_rows(n, d) * n ** (d - 1)


def _kept(ax: np.ndarray, radius: float) -> slice:
    """The indices of the increasing nodes ax with |x| < radius, padded by
    one node per side: all of them when radius is math.inf."""
    if not radius > 0:
        raise ValueError(f"support radius {radius} is not positive")
    lo = int(np.searchsorted(ax, -radius, "right"))
    hi = int(np.searchsorted(ax, radius, "left"))
    return slice(max(0, lo - 1), min(len(ax), hi + 1))


def _slabs(box: Sequence[tuple[float, float]], n: int, radius: float,
           values: np.ndarray, f: Callable[[np.ndarray, np.ndarray], None],
           even: frozenset[int]) -> Iterator[complex]:
    """Midpoint sums of an integrand over the n^d tensor grid on box, one
    slab at a time.

    An axis in even (0 first) whose box is symmetric, lo == -hi, is halved:
    an integrand even in it takes the same value at a node and its mirror,
    so only the upper half of its nodes, ax[n // 2:], is summed, at weight
    2, but for odd n the node at 0, which is its own mirror, at weight 1.
    The weights are exact: the cell is doubled per halved axis and the
    centre node's values halved, so the sum is the whole axis's to the
    rounding of the mirrored nodes and of the shorter sum.  Every other
    axis keeps its n nodes.

    A slab is a fixed run of _slab_rows(n, d) first-axis indices of the
    (halved) grid, so memory stays bounded and the reduction order depends
    only on n, d and the halved axes.  Its values are the leading part of
    values (a flat array at least _slab_points(n, d) long), zero on entry:
    f(pts, out) writes the integrand's nonzero values at the nodes pts into
    out, a (rows, ...)-shaped view of them, and the slab is summed whole.
    pts and out cover only the cube |xi_k| < radius, padded by one node per
    side (the whole slab when radius is math.inf); a slab that misses it
    yields 0 without a call.  The integrand is 0 outside the cube, so every
    slab's sum, and so every bit, is the one radius math.inf gives.
    out is zeroed again after its sum, and values is zeroed once per call.
    The nodes are written, coordinate by coordinate, into one C-order
    (rows, ..., d) array allocated once per call (a partial last slab is
    its leading part): the values of np.stack(np.meshgrid(...)) without
    building the mesh.  f may not keep pts or out past its return.
    """
    d = len(box)
    axes, centred = [], []
    cell = 1.0
    for k, (lo, hi) in enumerate(box):
        step = (hi - lo) / n
        ax = lo + (np.arange(n) + 0.5) * step
        cell *= step
        if k in even and lo == -hi:
            ax = ax[n // 2:]
            cell *= 2.0
            if n % 2:
                centred.append(k)
        axes.append(ax)
    kept = [_kept(ax, radius) for ax in axes]
    rows = _slab_rows(n, d)
    plane_shape = tuple(len(ax) for ax in axes[1:])
    plane = math.prod(plane_shape)
    values[:rows * plane].fill(0)
    nodes = np.empty((min(rows, kept[0].stop - kept[0].start),)
                     + tuple(k.stop - k.start for k in kept[1:]) + (d,))
    for start in range(0, len(axes[0]), rows):
        stop = min(start + rows, len(axes[0]))
        lo, hi = max(start, kept[0].start), min(stop, kept[0].stop)
        if lo >= hi:
            yield 0.0
            continue
        pts = nodes[:hi - lo]
        for k, ax in enumerate(axes):
            shape = [1] * d
            shape[k] = -1
            pts[..., k] = (ax[lo:hi] if k == 0 else ax[kept[k]]).reshape(shape)
        slab = values[:(stop - start) * plane]
        out = slab.reshape((stop - start,) + plane_shape)[
            (slice(lo - start, hi - start),) + tuple(kept[1:])]
        f(pts, out)
        # The centre node, index 0 of its halved axis, where out holds it.
        for k in centred:
            if (lo if k == 0 else kept[k].start) == 0:
                out[(slice(None),) * k + (0,)] *= 0.5
        total = np.sum(slab) * cell
        out.fill(0)
        yield total


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
              exponent_tolerance: float) -> VdcReport:
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

    admissible = all(integrand.amplitude.loss_rate(h)
                     <= h ** -0.5 * mu ** 0.5 * (1 + 1e-9) for h in h_values)
    mags = [abs(evaluate(integrand, h).value) for h in h_values]
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


def _dyadic_scaled(k: int, j: int, profile: Callable) -> Amplitude:
    """profile(family, |xi|), family = dyadic_cutoffs(h, k), an amplitude
    at its scale s = family.scale(j): loss rate 1/s, 0 from 3/2 s on."""
    def scale(h: float) -> float:
        return dyadic_cutoffs(h, k).scale(j)

    return Amplitude(
        lambda pts, h: profile(dyadic_cutoffs(h, k), np.sqrt(_norm_sq(pts))),
        lambda h: 1.0 / scale(h), lambda h: 1.5 * scale(h))


def dyadic_amplitude(k: int, j: int) -> Amplitude:
    """Smoothed cutoff at the dyadic scale s = 2^j h^(1/(k+1)) covering 0.
    Loss rate f(h) = 1/s: admissible for mu = 1 whenever h <= 1, the
    amplitude regime of the kernel estimates."""
    return _dyadic_scaled(k, j, lambda family, r: _smooth_step(
        r / family.scale(j)))


def psi_amplitude(k: int, j: int) -> Amplitude:
    """psi_j of dyadic_cutoffs(h, k) at |xi|, the TT* kernel's amplitude at
    level j: 0 from 3/2 its scale on, j = 0 included."""
    return _dyadic_scaled(k, j, lambda family, r: family.psi(j, r))


def resonant_amplitude(phase: Phase, beta: float) -> Amplitude:
    """Conjugate chirp exp(-i*phase/h) on a window of width h^(1-beta).

    Declared loss rate h^(-beta), support radius the window's width.  For
    beta > 1/2 this is the standard sharpness family for the
    stationary-phase bound: the chirp cancels the oscillation on the
    window, so |I| ~ h^(1-beta) instead of h^(d/2).
    """
    def values(pts: np.ndarray, h: float) -> np.ndarray:
        w = h ** (1.0 - beta)
        r = np.sqrt(_norm_sq(pts))
        return bump(r / w) * np.exp(-1j * phase(pts) / h)

    return Amplitude(values, lambda h: h ** -beta, lambda h: h ** (1.0 - beta))


# -- TT* kernel --------------------------------------------------------------------

@dataclass(frozen=True)
class KernelValue:
    value: complex
    b_overlap: float            # |int f((x1-b)/a) f((z1-b)/a) db| <= a ||f||^2
    trivial_bound: float        # support-only estimate of |K|


def window_overlap(a: float, sep: float) -> float:
    """The b-overlap a * int f(u) f(u - sep/a) du of two windows of scale a
    whose centres lie sep apart, f the mother wavelet's profile, summed on
    4,096 u nodes.

    It is exactly 0.0 once |sep| / a >= 2 * support_halfwidth, where the
    windows are disjoint, and can be 0.0 just below that, where their
    overlap is thinner than the nodes resolve.
    """
    w = make_mother_wavelet()
    if abs(sep) / a >= 2.0 * w.support_halfwidth:
        return 0.0
    tgrid = np.linspace(-1.0, 1.0 + abs(sep) / a, 4096)
    fv = w.profile(tgrid)
    fs = w.profile(tgrid - sep / a)
    return a * float(np.sum(fv * fs) * (tgrid[1] - tgrid[0]))


def ttstar_kernel(a1: PolySymbol, a: float, j: int, h: float, k: int,
                  sep: float) -> KernelValue:
    """Dyadic TT* kernel in the constant-coefficient model between two
    windows of scale a whose centres x1, z1 lie sep = x1 - z1 apart, at one
    bar point: K = B * (2 pi h)^(-(n-1)) * int exp(i sep a1(xi)/h)
    psi_j(|xi|) dxi, where B = window_overlap(a, sep) is exactly 0 once
    |sep| exceeds the windows' combined support, and so is K."""
    m = a1.dim
    b_overlap = window_overlap(a, sep)
    if b_overlap == 0.0:
        return KernelValue(0.0, 0.0, 0.0)

    scale = dyadic_cutoffs(h, k).scale(j)
    ext = 2.0 * scale if j == 0 else 1.5 * scale
    box = tuple((-ext, ext) for _ in range(m))

    def phase(pts: np.ndarray) -> np.ndarray:
        return sep * a1.eval_grid([pts[..., i] for i in range(m)])

    # psi_j is radial, so the integrand is even in each variable that a1
    # holds only to even powers.
    integrand = OscIntegrand(phase, psi_amplitude(k, j), m, box,
                             frozenset(range(m)) - a1.odd_axes())
    res = evaluate(integrand, h)
    pref = (_TWO_PI * h) ** (-m)
    # Triangle inequality on the same quadrature nodes: |sum| <= sum of
    # moduli holds to rounding, so the support-only bound is sharp in the
    # non-oscillatory regime.
    psi_mass = _midpoint_abs(integrand, h, res.points_per_axis)
    return KernelValue(pref * b_overlap * res.value, abs(b_overlap),
                       pref * abs(b_overlap) * psi_mass)


def _midpoint_abs(integrand: OscIntegrand, h: float, n: int) -> float:
    values = np.empty(_slab_points(n, integrand.d))
    amp = integrand.amplitude
    return float(sum(_slabs(
        integrand.box, n, amp.support_radius(h), values,
        lambda pts, out: np.abs(amp.values(pts, h), out=out),
        integrand.even)))

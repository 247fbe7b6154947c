"""Slow reference paths the tests check the runs' fast paths against.

No run calls these: no run holds a whole field (GridField), the
synthesis hands its grid over block by block and never assembles it
(synthesize_grid), the sweeps take their norms block by block
(analysis.BlockNorms), the decay table transforms only live windows of
its band (wavelets._scale_window), no run FFTs a field or builds a dual
axis: the flattening check and the decay table take an x1 axis alone and
read the bar transform at the cutoff's bar grid from its columns
(quasimode.column_transforms), which the h-scaled FFT of the field
synthesized on the position axes whose bar duals are that grid
cross-checks (dual_axis, aligned_axes, ft_axis, ft_axes), no run sums
the columns at a point (synthesize_at, the pointwise form of the
synthesis and of the sweep's u(0)), a cutoff is built on the upper half
of each axis its symbols close and stores those columns alone
(every_column stores them all; numeric_closure is the closure check on
the built whole), the joint check sums each mirror pair of support
columns once (joint_ratios sums them all), no run takes a norm over a
whole field (l2_norm), no run brings a multiplier back to the position
side (apply_multiplier), no run reads the mother wavelet's mean, L2 norm
or admissibility constant (wavelet_moments, admissibility) and the
cutoffs evaluate their symbols on whole grids (PolySymbol.eval_grid).
Each definition here is the whole-array, whole-field or exact form of one
of them, or a step of the paper's argument that the tests check by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from quasilab.analysis import (INF_P, LpNorm, _finite_p, _finite_tail,
                               _sup_tail, parse_p)
from quasilab.errors import DimensionMismatchError
from quasilab.grids import AxisSpec, cell_volume, node_arrays
from quasilab.quasimode import (CutoffField, _bar_index, _dirichlet,
                                synthesize_on_axes)
from quasilab.symbols import PolySymbol, split_affine_x1
from quasilab.wavelets import bump_derivative

_TWO_PI = 2.0 * np.pi
_T_POINTS = 8192     # t samples per unit length in the wavelet quadratures
_ETA_MIN, _ETA_MAX = 1e-6, 1e3   # frequency range of the C_f quadrature
_GL_NODES = 256      # Gauss-Legendre nodes per segment of the C_f quadrature
_TARGET_CHUNK = 1 << 21    # targets x columns per block of synthesize_at


# -- Lp norms ------------------------------------------------------------------------

def lp_norm(values: np.ndarray, weights, p,
            shell_mask: np.ndarray | None = None,
            inner_shell_mask: np.ndarray | None = None) -> LpNorm:
    """Weighted quadrature Lp norm with an optional boundary-shell check.

    shell_mask marks the outermost layer of the target set.  For finite p
    the tail estimate is the norm increment the exterior would contribute
    if the shell masses kept decaying at their measured geometric rate
    (inner_shell_mask, the next layer in, supplies the rate; without it the
    exterior is taken as one more shell).  For p = infinity the estimate is
    the shell maximum and the refusal condition is a boundary maximizer.
    TailDominanceError signals a box too small for the requested accuracy;
    without masks no tail policing happens.

    The whole-array, per-p, mask-based form of analysis.BlockNorms, which
    the sweeps use.
    """
    values = np.abs(np.asarray(values))
    weights = np.broadcast_to(np.asarray(weights, float), values.shape)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    pp = parse_p(p)
    if pp is INF_P:
        norm = float(values.max())
        if shell_mask is None:
            return LpNorm(norm, 0.0, p)
        return _sup_tail(norm, float(values[shell_mask].max()), p)
    pf = _finite_p(pp)
    total = float(np.sum(values ** pf * weights))
    if shell_mask is None:
        return LpNorm(total ** (1.0 / pf), 0.0, p)
    shell = float(np.sum(values[shell_mask] ** pf * weights[shell_mask]))
    inner = 0.0
    if inner_shell_mask is not None:
        inner = float(np.sum(values[inner_shell_mask] ** pf
                             * weights[inner_shell_mask]))
    return _finite_tail(total, shell, inner, pf, p)


def shell_mask(shape: Sequence[int], layer: int = 0) -> np.ndarray:
    """Boolean mask of the cells exactly ``layer`` steps from the boundary.

    The box of cells at depth >= layer, minus the box at depth >= layer + 1.
    """
    shape = tuple(shape)
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(slice(layer, max(n - layer, 0)) for n in shape)] = True
    mask[tuple(slice(layer + 1, max(n - layer - 1, 0)) for n in shape)] = False
    return mask


# -- wavelets ------------------------------------------------------------------------

def padded_gather_cwt(v: GridField, w, a, b_step_factor=8.0, b_pad=1.0,
                      x1_scale=1.0):
    """The CWT at one scale by zero-padding the field, gathering every
    window and summing in tap order; also returns qstride and the number
    of windows that overlap the data only in part.

    b runs on a grid of step ~ a/b_step_factor, snapped to the x1 grid, and
    the quadrature decimates to a step of min(a/16, x1_scale/8).  The
    decay table's transform (wavelets._scale_windows) is this one at
    b_step_factor 8 and x1_scale 1.
    """
    ax = v.axes[0]
    dx, n1 = ax.spacing, ax.points
    half = w.support_halfwidth * a
    qstride = max(1, int(min(a / 16.0, x1_scale / 8.0) / dx))
    qstep = qstride * dx
    wcells = int(math.ceil(2.0 * half / qstep)) + 2
    stride = max(1, int(round(a / b_step_factor / dx)))
    pad_cells = int(math.ceil(2.0 * b_pad * half / dx)) + wcells * qstride
    b_idx = np.arange(-pad_cells, n1 + pad_cells, stride)
    pad = pad_cells + wcells * qstride
    padded = np.zeros((n1 + 2 * pad,) + v.data.shape[1:], dtype=complex)
    padded[pad:pad + n1] = v.data
    offs = (np.arange(2 * wcells + 1) - wcells) * qstride
    frow = w.profile(offs * dx / a) / math.sqrt(a)
    idx = b_idx[:, None] + offs[None, :] + pad
    win = padded[idx]
    out = np.zeros((len(b_idx),) + v.data.shape[1:], dtype=complex)
    for m in range(len(offs)):
        out += frow[m] * win[:, m]
    inside = ((idx >= pad) & (idx < pad + n1))[:, frow != 0.0]
    partial = int(np.sum(inside.any(axis=1) & ~inside.all(axis=1)))
    return ax.start + (b_idx + 0.5) * dx, out * qstep, qstride, partial


def wavelet_moments() -> tuple[float, float]:
    """(mean, ||f||^2) of the bump-derivative wavelet f: the sums of f and
    f^2 over 2 * _T_POINTS even samples of [-1, 1], times their step."""
    t = np.linspace(-1.0, 1.0, 2 * _T_POINTS)
    f = bump_derivative(t)
    dt = t[1] - t[0]
    return float(np.sum(f) * dt), float(np.sum(f * f) * dt)


def _fourier_abs_sq(eta: np.ndarray, t: np.ndarray, f: np.ndarray,
                    dt: float) -> np.ndarray:
    """|f^(eta)|^2 for real odd f: f^(eta) = -2i int_0^inf f sin(eta t) dt."""
    s = np.sin(np.outer(eta, t)) @ f * dt
    return 4.0 * s * s


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


def reconstruct(a_grid, b_grids, values, dx: float, w,
                x: np.ndarray) -> np.ndarray:
    """Inverse transform (2/C_f) sum_a w_a sum_b db a^(-5/2) X f((x-b)/a).

    values[i] holds the coefficients X(a_grid[i], b, .) on the translates
    b_grids[i], one row per b; a scale with one translate takes db = dx,
    the x1 grid step.  Positive scales only, hence the factor 2/C_f (from
    admissibility, computed on the first call); the a-quadrature uses the
    log-spaced weights a * dln(a).
    """
    a = np.asarray(a_grid, dtype=float)
    if len(a) < 2:
        raise ValueError("inversion needs at least two scales")
    log_w = np.empty_like(a)
    la = np.log(a)
    log_w[1:-1] = 0.5 * (la[2:] - la[:-2])
    log_w[0] = la[1] - la[0]
    log_w[-1] = la[-1] - la[-2]
    out = np.zeros(x.shape + values[0].shape[1:], dtype=complex)
    for ai, aval in enumerate(a):
        b = b_grids[ai]
        db = (b[1] - b[0]) if len(b) > 1 else dx
        kernel = w.profile((x[:, None] - b[None, :]) / aval)
        weight = (aval * log_w[ai]) * db * aval ** -2.5
        out += weight * np.tensordot(kernel, values[ai], axes=(1, 0))
    return out * (2.0 / admissibility()[0])


# -- transforms ----------------------------------------------------------------------

def dual_axis(axis: AxisSpec, h: float) -> AxisSpec:
    """Dual axis for the h-scaled transform: dxi = 2*pi*h/(N*dx), centered at 0."""
    dxi = _TWO_PI * h / (axis.points * axis.spacing)
    return AxisSpec(0.0, 0.5 * axis.points * dxi, axis.points)


def aligned_axes(cut: CutoffField, x1_axis: AxisSpec) -> list[AxisSpec]:
    """x1_axis and the position axes whose bar duals are the cutoff's bar
    grid: the grid on which the h-scaled FFT of the synthesized quasimode
    (ft_axes) lands on the nodes where quasimode.column_transforms gives its
    bar transform.  The cutoff's bar axes are power-of-two (pow2=True) and
    centered, so dual-of-dual returns them exactly."""
    return [x1_axis, *(dual_axis(bar, cut.h) for bar in cut.axes[1:])]


def _require_pow2(n: int) -> None:
    if n & (n - 1):
        raise ValueError(f"transform axes need a power-of-two point count, got {n}")


def ft_axis(data: np.ndarray, axis_spec: AxisSpec, h: float, axis: int,
            inverse: bool = False, out_axis: AxisSpec | None = None,
            out: np.ndarray | None = None) -> tuple[np.ndarray, AxisSpec]:
    """h-scaled Fourier transform along one axis of an ndarray.

    Forward maps a position axis onto its (centered) dual frequency axis;
    inverse maps a frequency axis onto ``out_axis`` (default: centered dual).
    The FFT carries explicit boundary phases so arbitrary axis offsets are
    exact, and inverse(forward) cancels to rounding.  The result is the
    phased input, transformed and rephased in place: one new array, or
    ``out`` (complex, data's shape, and data itself allowed) when given.
    """
    n = axis_spec.points
    _require_pow2(n)
    dual = out_axis if out_axis is not None else dual_axis(axis_spec, h)
    if dual.points != n:
        raise DimensionMismatchError("dual axis point count mismatch")
    shape = [1] * data.ndim
    shape[axis] = n
    ar = np.arange(n)
    if not inverse:
        x0 = axis_spec.start + 0.5 * axis_spec.spacing
        pre = np.exp(-1j * (ar * axis_spec.spacing) * (dual.start + 0.5 * dual.spacing) / h)
        post = np.exp(-1j * x0 * dual.nodes() / h) * (
            axis_spec.spacing / np.sqrt(_TWO_PI * h))
        out = np.multiply(data, pre.reshape(shape), out=out)
        np.fft.fft(out, axis=axis, out=out)
    else:
        xi0 = axis_spec.start + 0.5 * axis_spec.spacing
        x0 = dual.start + 0.5 * dual.spacing
        pre = np.exp(1j * x0 * (ar * axis_spec.spacing) / h)
        post = np.exp(1j * dual.nodes() * xi0 / h) * (
            n * axis_spec.spacing / np.sqrt(_TWO_PI * h))
        out = np.multiply(data, pre.reshape(shape), out=out)
        np.fft.ifft(out, axis=axis, out=out)
    out *= post.reshape(shape)
    return out, dual


def ft_axes(data: np.ndarray, axes: Sequence[AxisSpec], h: float,
            inverse: bool = False,
            out_axes: Sequence[AxisSpec] | None = None,
            out: np.ndarray | None = None) -> tuple[np.ndarray, list[AxisSpec]]:
    """ft_axis over the bar axes 1, 2, ... of data; returns the new axes.

    Axis 0 is x1, whose rows are transformed independently; ``out_axes``
    are the inverse's targets, one per transformed axis.  The first axis
    goes into ``out`` as ft_axis's does, or into a new array, and every
    later axis in place.
    """
    new_axes: list[AxisSpec] = []
    for i, ax in enumerate(axes):
        target = out_axes[i] if out_axes is not None else None
        data, dual = ft_axis(data, ax, h, 1 + i, inverse, target, out)
        out = data
        new_axes.append(dual)
    return data, new_axes


# -- fields --------------------------------------------------------------------------

@dataclass
class GridField:
    """Complex position-side samples over a product grid."""

    h: float
    axes: list[AxisSpec]
    data: np.ndarray

    def __post_init__(self):
        if not 0 < self.h <= 1:
            raise ValueError("h must lie in (0, 1]")
        shape = tuple(a.points for a in self.axes)
        if self.data.shape != shape:
            raise DimensionMismatchError(
                f"data shape {self.data.shape} does not match axes {shape}")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def cell_volume(self) -> float:
        return cell_volume(self.axes)


def synthesize_at(field: CutoffField, targets) -> np.ndarray:
    """(2 pi h)^(-n/2) sum_cells exp(i<x,xi>/h) * cellvol / ||chi||_2, the
    normalized quasimode, at each target.

    Column-wise closed form: the xi1 run of every column is a geometric sum,
    so the cost is targets x columns, independent of the xi1 resolution.
    The sum runs over every support column, the stored ones joined by
    their mirror images (every_column).  The pointwise oracle of
    quasimode.synthesize_on_axes, and at the origin of
    quasimode.origin_value.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.size == 0:
        raise ValueError("empty target list")
    if targets.shape[1] != field.dim:
        raise DimensionMismatchError("targets dimension mismatch")
    field = every_column(field)
    h = field.h
    dxi1 = field.axes[0].spacing
    first = field.xi1_first_node()
    counts = field.col_count.astype(float)
    out = np.empty(targets.shape[0], dtype=complex)
    rows = max(1, _TARGET_CHUNK // max(len(counts), 1))
    for lo in range(0, targets.shape[0], rows):
        tt = targets[lo:lo + rows]
        x1 = tt[:, 0:1]
        theta = x1 * (dxi1 / h)
        run = _dirichlet(theta, counts[None, :])
        phase = x1 * first[None, :]
        for d in range(field.dim - 1):
            phase = phase + tt[:, d + 1:d + 2] * field.col_coords[None, :, d]
        out[lo:lo + rows] = np.sum(np.exp(1j * phase / h) * run, axis=1)
    scale = field.cell_volume * (_TWO_PI * h) ** (-field.dim / 2)
    return scale * out * (1.0 / field.l2_norm())


def synthesize_grid(field: CutoffField,
                    axes: Sequence[AxisSpec]) -> GridField:
    """The normalized quasimode of the cutoff field on the whole grid of
    axes: synthesize_on_axes's blocks written into one grid, allocated at
    the first block, so after every budget check of the synthesis."""
    grid = None

    def keep(rows: slice, block: np.ndarray) -> None:
        nonlocal grid
        if grid is None:
            grid = np.empty(tuple(a.points for a in axes), dtype=complex)
        grid[rows] = block

    synthesize_on_axes(field, axes, keep)
    return GridField(field.h, list(axes), grid)


def joint_ratios(field: CutoffField, orders: int,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """||p1^M1 p2^M2 chi||_2 / (h^(M1+M2) ||chi||_2), indexed [M1, M2], as
    one contraction over every support cell, mirror columns included
    (every_column); each cell counts weights[c] times for its column c of
    every_column(field) (once without weights).

    The whole-support sum of quasimode.verify_joint_quasimode, which goes
    in chunks and sums each mirror pair of columns once."""
    field = every_column(field)
    counts = field.col_count
    ends = np.cumsum(counts)
    idx = np.arange(ends[-1]) + np.repeat(field.col_start - (ends - counts),
                                          counts)
    ax0 = field.axes[0]
    xi1 = ax0.start + (idx + 0.5) * ax0.spacing
    bar = [field.col_coords[:, d] for d in range(field.dim - 1)]
    a, b = [np.vander(((float(c1) * xi1
                        + np.repeat(rest.eval_grid(bar), counts)) / field.h)
                      ** 2, orders + 1, increasing=True)
            for c1, rest in (split_affine_x1(c.symbol)
                             for c in field.spec.constraints[:2])]
    if weights is not None:
        a *= np.repeat(weights, counts)[:, None]
    return np.sqrt(a.T @ b * field.cell_volume) / field.l2_norm()


# -- cutoff closure ----------------------------------------------------------------

def every_column(field: CutoffField) -> CutoffField:
    """The field with every support column stored: each stored column off
    the mirror plane of a closed axis is joined by its mirror image there,
    bar index P - 1 - i for i, at that index's node and with the same xi1
    run, and the columns are put in the bar grid's C order.  These are the
    arrays a build of the whole bar grid gives, bit for bit, but where a
    node on a band edge rounds differently from its mirror
    (quasimode.build_cutoff).  The field itself when no axis is closed."""
    closed = field.closed or (False,) * (field.dim - 1)
    unpair = [d for d, c in enumerate(closed) if c]
    if not unpair:
        return field
    bar = field.axes[1:]
    shape = [a.points for a in bar]
    idx = [_bar_index(field.col_coords[:, d], a) for d, a in enumerate(bar)]
    src = np.arange(len(field.col_count))
    for d in unpair:
        above = np.flatnonzero(2 * idx[d] > shape[d] - 1)
        src = np.concatenate([src, src[above]])
        idx = [np.concatenate([i, shape[d] - 1 - i[above] if e == d
                               else i[above]]) for e, i in enumerate(idx)]
    order = np.argsort(np.ravel_multi_index(idx, shape))
    src = src[order]
    coords = np.empty((len(src), len(bar)))
    for d, a in enumerate(bar):
        coords[:, d] = (a.nodes()[idx[d][order]] if closed[d]
                        else field.col_coords[:, d][src])
    return CutoffField(field.h, field.axes, coords, field.col_start[src],
                       field.col_count[src], field.spec,
                       (False,) * len(closed))


def numeric_closure(field: CutoffField) -> tuple[bool, ...]:
    """Per bar axis of a field that stores every column, whether the axis
    is centred on 0.0 and flipping it maps the nonempty columns, and each
    one's xi1 index run, onto themselves: an exact check on integer
    indices, made on the built whole.  The oracle of the closure that
    quasimode.FrequencyCutoff reads off the symbols."""
    bar = field.axes[1:]
    shape = tuple(a.points for a in bar)
    idx = tuple(np.rint((field.col_coords[:, d] - a.start) / a.spacing - 0.5)
                .astype(np.int64) for d, a in enumerate(bar))
    nonempty = np.zeros(shape, dtype=bool)
    nonempty[idx] = True
    bounds = []
    for value in (field.col_start, field.col_start + field.col_count - 1):
        i = np.full(shape, -1, dtype=np.int64)
        i[idx] = value
        bounds.append(i)

    def is_closed(d: int) -> bool:
        if bar[d].center != 0.0:
            return False
        return bool(np.array_equal(nonempty, np.flip(nonempty, d))) and all(
            np.array_equal(i[nonempty], np.flip(i, d)[nonempty])
            for i in bounds)

    return tuple(is_closed(d) for d in range(len(bar)))


def l2_norm(u: GridField) -> float:
    """The quadrature L2 norm of a field on its whole grid, one np.sum over
    |u|^2."""
    return float(np.sqrt(np.sum(np.abs(u.data) ** 2) * u.cell_volume))


# -- flattening ----------------------------------------------------------------------

def apply_multiplier(data: np.ndarray, axes: Sequence[AxisSpec], h: float,
                     m: np.ndarray) -> np.ndarray:
    """m(hD_bar) on the bar axes 1, 2, ... of data, on the position side:
    the samples on ``axes`` are transformed, multiplied by m, the
    multiplier's values on the dual nodes (of shape data.shape[1:], the
    same on every x1 row, or data's own shape: a DimensionMismatchError
    otherwise), and brought back onto ``axes``.

    The product is m * hat, in that order: numpy's vectorized complex
    product fuses a multiply-add, so its last bit depends on operand order.
    fio.flattening_reports applies its multipliers on the transformed side
    and takes its norms there, which this form cross-checks.
    """
    bar = data.shape[1:]
    if len(axes) != len(bar) or m.shape not in (bar, data.shape):
        raise DimensionMismatchError(
            f"multiplier {m.shape} on {len(axes)} bar axes of {data.shape}")
    hat, duals = ft_axes(data, axes, h)
    np.multiply(m, hat, out=hat)
    out, _ = ft_axes(hat, duals, h, inverse=True, out_axes=axes, out=hat)
    return out


def w_values(a1: PolySymbol, h: float, axes: Sequence[AxisSpec]) -> np.ndarray:
    """W = exp(-i*x1*a1(xi_bar)/h) at every x1 node of axes[0] and every
    dual node of axes[1:], with fio.flattening_reports's ufuncs in its
    operand order."""
    x1, = node_arrays(axes[:1], len(axes))
    duals = [dual_axis(ax, h) for ax in axes[1:]]
    w = np.multiply(-1j * x1, a1.eval_grid(node_arrays(duals, len(duals))))
    w *= 1.0 / h
    return np.exp(w, out=w)


def transform_quasimode(a1: PolySymbol, u: GridField) -> GridField:
    """v(x1, .) = W(x1) u(x1, .) for a position field with x1 as axis 0.

    Vectorized over slices: one bar-side multiplier whose values vary down
    axis 0.  transform_quasimode(-a1, v) inverts it.  fio.flattening_reports
    forms the same v column by column on the frequency side.
    """
    if u.dim != a1.dim + 1:
        raise DimensionMismatchError(
            f"field dim {u.dim} != symbol dim {a1.dim} + 1")
    return GridField(u.h, list(u.axes), apply_multiplier(
        u.data, u.axes[1:], u.h, w_values(a1, u.h, u.axes)))


# -- symbols -------------------------------------------------------------------------

def eval_exact(p: PolySymbol, point: Sequence):
    """p at a point, term by term: an exact Fraction when every coordinate
    is an int or a Fraction, a float otherwise.  The exact oracle of
    PolySymbol.eval_grid."""
    if len(point) != p.dim:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates, expected {p.dim}")
    exact = all(isinstance(x, (int, Fraction)) for x in point)
    total = Fraction(0) if exact else 0.0
    for mono, c in p.coeffs.items():
        term = c if exact else float(c)
        for x, e in zip(point, mono):
            if e:
                term = term * x ** e
        total = total + term
    return total


def plane_vs_bowl_graphs() -> tuple[PolySymbol, PolySymbol]:
    """Graphs a1 = 0 and a2 = -(x1^2 + x2^6) in the two bar variables of n = 3.

    First-order contact along every line off one axis, fifth order on it;
    the standard nonuniform-contact surface pair.
    """
    u = PolySymbol.variable(1, 2)
    v = PolySymbol.variable(2, 2)
    return PolySymbol.zero(2), -(u ** 2 + v ** 6)

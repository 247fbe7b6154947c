"""Continuous wavelet transform in x1, dyadic bar-frequency cutoffs, and the
decay diagnostics of the flat model.

The mother wavelet is the derivative of the standard smooth bump
exp(-1/(1-t^2)) on (-1,1): compactly supported, smooth and mean zero.
The transform is a plain quadrature on the field's x1 grid, summed per
scale in numpy over a band of x1 rows, outside which the field is zero:
each tap reaches only the windows where it lands on a band row, and only
the windows some tap reaches are formed, so the others are exact zeros,
not small numbers.  A coefficient is a sum that starts at +0 and never
turns -0, so the taps skipped off the band, which would add +-0, change
no bit of it.  A scale is summed tap by tap, or window by window where it
has fewer live windows than live taps, as the wide scales do; both add
each coefficient's taps to +0 in the same order.  The decay table works
on the bar-frequency side: the bar transform acts on the bar axes and the
wavelet on x1, so the windows of the transformed field are the
transformed windows.  Its band is the quasimode's bar transform at the
cutoff's bar grid, on the rows of its x1 axis where its x1 window is
nonzero, read from the cutoff's columns (quasimode.column_transforms):
one column of the band per distinct x1 profile of the cutoff's stored
columns, that is per distinct xi1 run.  No position field is
synthesized.  Each scale forms its live windows one working block at a
time (grids.WORK_BLOCK_BYTES), sums their power down the windows into one
row per profile and gathers it back to the stored columns, which each
level weights by its psi_j at the columns' radii and by their
multiplicity (CutoffField.col_mult).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import _fit_line
from .grids import WORK_BLOCK_BYTES, AxisSpec, cell_volume
from .quasimode import CutoffField, _aligned_x1, column_transforms

# decay_diagnostic's scales a, and its x1 window, flat out to the half-width.
_A_GRID = tuple(np.geomspace(2.0 ** -6, 2.0 ** 6, 25))
_LOCALIZE_HALFWIDTH = 1.5


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


def make_mother_wavelet() -> MotherWavelet:
    """The one analyzing wavelet, the bump derivative on (-1, 1), of the
    decay table and the TT* kernel's windows: profile and support."""
    return MotherWavelet(bump_derivative, 1.0)


def _quadrature(dx: float, a: float, half: float) -> tuple[int, int, int]:
    """(qstride, wcells, pad_cells) of the scale a, whose dilated support
    has the half-width half, on x1 cells of dx: the taps' stride in cells,
    the taps on each side of the centre one, and the cells the translates
    reach past each end of the data, one dilated support of translates and
    one of taps (_scale_taps)."""
    qstride = max(1, int(min(a / 16.0, 1.0 / 8.0) / dx))
    wcells = int(math.ceil(2.0 * half / (qstride * dx))) + 2
    return qstride, wcells, int(math.ceil(2.0 * half / dx)) + wcells * qstride


def reach_cells(dx: float) -> int:
    """The x1 cells decay_diagnostic's widest scale reaches past each end
    of its data on x1 cells of dx."""
    a = max(_A_GRID)
    return _quadrature(dx, a, make_mother_wavelet().support_halfwidth * a)[2]


@dataclass(frozen=True)
class _Taps:
    """The live taps of one scale over a band of x1 rows, in increasing
    offset: the nonzero taps that land on a band row from some window.
    Window i's tap t reads band row i * stride + shift[t] and does so on
    the band for the windows lo[t] <= i < hi[t]; lo and hi fall as t
    rises.  Every window outside [first, end), the union of those ranges,
    gets no tap."""

    f: np.ndarray
    shift: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    first: int
    end: int
    stride: int
    qstep: float


def _scale_taps(rows: int, row0: int, ax: AxisSpec, a: float):
    """(b, taps) at the scale a for a band of the x1 rows row0, ...,
    row0 + rows - 1 of a field on the x1 axis ax, zero off the band: the
    translates b and the scale's live _Taps.

    X(a,b,bar) = |a|^(-1/2) int f((x1-b)/a) v(x1,bar) dx1 on the x1 grid,
    f the mother wavelet's profile.
    b runs on a grid of step ~ a/8, snapped to the x1 grid so windows slide
    by whole cells, and extended one dilated support beyond the data so the
    no-overlap region is represented.  At scales far above the grid step
    the quadrature decimates to a step of min(a/16, 1/8): the dilated
    profile and the field, which varies on the unit x1 scale, are both
    smooth at that resolution, and the wide-window cost drops from O(a) to
    O(1) per translate.
    """
    if a <= 0:
        raise ValueError("scales must be positive")
    dx = ax.spacing
    w = make_mother_wavelet()
    qstride, wcells, pad_cells = _quadrature(dx, a, w.support_halfwidth * a)
    stride = max(1, int(round(a / 8.0 / dx)))
    b_idx = np.arange(-pad_cells, ax.points + pad_cells, stride)
    b = ax.start + (b_idx + 0.5) * dx
    offs = (np.arange(2 * wcells + 1) - wcells) * qstride
    # b sits on the grid, so the sampled profile is one row for every b.
    frow = w.profile(offs * dx / a) / math.sqrt(a)
    # Window i's tap at off reads field row i * stride + (off - pad_cells);
    # windows [lo, hi) are those where that row lies on the band's rows
    # first..last, outside which every sample is a zero.
    first, last = row0, row0 + rows - 1
    shift = offs - pad_cells
    lo = np.maximum(0, -((shift - first) // stride))
    hi = np.minimum(len(b), (last - shift) // stride + 1)
    live = (frow != 0.0) & (lo < hi)
    lo, hi = lo[live], hi[live]
    first, end = (int(lo.min()), int(hi.max())) if lo.size else (0, 0)
    return b, _Taps(frow[live], shift[live] - row0, lo, hi, first, end,
                    stride, qstride * dx)


def _block_shape(band: np.ndarray, taps: _Taps) -> tuple[int, int]:
    """(windows, cols) of the largest block of _blocks: one working block
    of the band's columns, or every live window if fewer."""
    cols = band.shape[1]
    block = max(1, WORK_BLOCK_BYTES // (band.itemsize * cols))
    return min(block, taps.end - taps.first), cols


def _blocks(band: np.ndarray, taps: _Taps, fill):
    """The coefficients of the windows [taps.first, taps.end) in blocks of
    at most one working block, in increasing order, each block filled by
    fill(x, r0, r1) with the tap sums of the windows [r0, r1) and scaled
    by the quadrature step.  A block is a view of one buffer that the next
    block overwrites."""
    out = np.empty(_block_shape(band, taps))
    block = max(1, len(out))   # every live window when they fit in one
    for r0 in range(taps.first, taps.end, block):
        r1 = min(r0 + block, taps.end)
        x = out[:r1 - r0]
        fill(x, r0, r1)
        x *= taps.qstep
        yield x


def _tap_blocks(band: np.ndarray, taps: _Taps):
    """_blocks summed tap by tap: each tap adds its multiple of the band
    rows it reads to the windows of the block it reaches, windows in
    blocks small enough to stay in cache across their taps.  Every
    coefficient adds its taps to +0 one by one in ascending order, the
    padded-gather oracle's order, which fixes every output bit.  A sum
    that starts at +0 never becomes -0, so adding a +-0 term changes no
    bit of it: skipping a zero tap or a tap off the band keeps every bit,
    signed zeros included."""
    stride = taps.stride
    table = list(zip(taps.f.tolist(), taps.shift.tolist(), taps.lo.tolist(),
                     taps.hi.tolist()))
    buf = np.empty(_block_shape(band, taps))

    def fill(x, r0, r1):
        x.fill(0.0)
        for f, sh, t0, t1 in table:
            i0, i1 = max(t0, r0), min(t1, r1)
            if i0 < i1:
                c0 = i0 * stride + sh
                x[i0 - r0:i1 - r0] += np.multiply(
                    band[c0:c0 + (i1 - i0 - 1) * stride + 1:stride], f,
                    out=buf[:i1 - i0])

    return _blocks(band, taps, fill)


def _window_blocks(band: np.ndarray, taps: _Taps):
    """_blocks summed window by window: each window gathers the band rows
    its live taps read, multiplies them by the taps and sums them down
    axis 0.  numpy starts an add reduction at +0 and sums a C-order array
    down axis 0 row after row, so every coefficient is _tap_blocks' sum,
    the same terms added to +0 in the same order."""
    windows = np.arange(taps.first, taps.end)
    # lo and hi fall as the tap rises: window i's taps are t0 <= t < t1.
    t0 = np.searchsorted(-taps.lo, -windows).tolist()
    t1 = np.searchsorted(-taps.hi, -windows).tolist()
    f, shift, stride, first = taps.f[:, None], taps.shift, taps.stride, taps.first

    def fill(x, r0, r1):
        for i in range(r0, r1):
            k0, k1 = t0[i - first], t1[i - first]
            rows = band[i * stride + shift[k0:k1]]
            rows *= f[k0:k1]
            rows.sum(axis=0, out=x[i - r0])

    return _blocks(band, taps, fill)


def _scale_window(band: np.ndarray, row0: int, ax: AxisSpec, a: float):
    """(b, blocks) at the scale a, blocks yielding the coefficients of
    consecutive windows, in increasing order.

    band is the real (rows, cols) view of x1 rows row0, row0 + 1, ... of a
    field on the x1 axis ax; every row outside it is zero.  The blocks tile
    one run of windows, the union of the window ranges of the scale's live
    taps: the windows where some nonzero tap lands on a band row.  Every
    window outside it gets no tap, so its coefficients are +0 and are not
    formed (_scale_taps).  A scale with fewer live windows than live taps,
    such as the wide scales, where a tap reaches one or two windows, is
    summed window by window (_window_blocks), any other tap by tap
    (_tap_blocks): the fewer Python steps.  Both give the same
    coefficients.
    """
    b, taps = _scale_taps(len(band), row0, ax, a)
    by_window = taps.end - taps.first < len(taps.f)
    return b, (_window_blocks if by_window else _tap_blocks)(band, taps)


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
        step = _smooth_step(r / self.scale(j))
        return step if j == 0 else step - _smooth_step(r / self.scale(j - 1))


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


def x1_window(x1: np.ndarray) -> np.ndarray:
    """decay_diagnostic's x1 window at the nodes x1: 1 on
    |x1| <= _LOCALIZE_HALFWIDTH, 0 from 1.5 times that on."""
    return _smooth_step(np.abs(x1) / _LOCALIZE_HALFWIDTH)


def _profiles(source: CutoffField) -> tuple[CutoffField, np.ndarray]:
    """(profiles, of): a field with one column per distinct x1 profile of
    the source's stored columns, that is per distinct (col_start,
    col_count) pair, and the profile of each stored column.  Each profile
    stands for every support column that has it, so the field's cell
    count, by which column_transforms normalizes, is the source's.  Its
    bar coordinates are each profile's first column's; column_transforms
    reads none."""
    pairs = np.stack([source.col_start, source.col_count])
    _, first, of = np.unique(pairs, axis=1, return_index=True,
                             return_inverse=True)
    profiles = CutoffField(source.h, source.axes, source.col_coords[first],
                           source.col_start[first], source.col_count[first])
    profiles.col_mult = np.bincount(
        of, weights=source.col_mult).astype(np.int64)
    return profiles, of.ravel()


def _windowed_band(source: CutoffField, x1_axis: AxisSpec
                   ) -> tuple[np.ndarray, int, np.ndarray]:
    """(band, row0, of): the bar transform of the quasimode of the cutoff
    source on the x1 axis x1_axis, times decay_diagnostic's x1 window, on
    the x1 rows row0, row0 + 1, ... where the window is nonzero, as the
    real (rows, 2P) view of the P distinct x1 profiles of the source's
    stored columns (_profiles), filled block of profiles by block
    (quasimode.column_transforms) with the whole source's normalization;
    stored column c's transform is profile of[c].  A grid over the budget
    is refused (quasimode._aligned_x1) before the window or the band is
    allocated.
    """
    x1 = _aligned_x1(source, x1_axis)
    window = x1_window(x1)
    rows = np.flatnonzero(window)
    row0, row1 = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
    x1, window = x1[row0:row1], window[row0:row1, None]
    profiles, of = _profiles(source)
    band = np.empty((row1 - row0, len(profiles.col_count)), dtype=complex)
    for block, u in column_transforms(profiles, x1):
        np.multiply(u, window, out=band[:, block])
    return band.view(float), row0, of


def _level_sums(band: np.ndarray, row0: int, ax: AxisSpec, of: np.ndarray,
                weights: Sequence[np.ndarray]):
    """(b, sums) for each scale of _A_GRID in turn, of the windowed band
    (row0, band, of) of _windowed_band on the x1 axis ax: sums[j] is the
    np.sum over the stored columns of weights[j] (one weight per column)
    times the sum over every b of |X(a, b, .)|^2 at the column's profile.

    Each block of live windows is squared in place on its real view, and
    the profile sums so far are folded into its first row before it is
    summed down its windows: numpy sums a C-order block down axis 0 row
    after row, so this is one axis-0 sum over every window, bit for bit,
    however the blocks fall.  The windows no tap reaches would add +0,
    which changes no bit.  Each profile's power is gathered back to the
    stored columns that have it before the weights apply, so every np.sum
    adds the terms of a band of every stored column, in its order.
    """
    for a in _A_GRID:
        b, blocks = _scale_window(band, row0, ax, a)
        power = np.zeros(band.shape[1])
        for x in blocks:
            np.square(x, out=x)
            x[0] += power
            power = x.sum(axis=0)
        power = (power[0::2] + power[1::2])[of]
        yield b, [float(np.sum(weight * power)) for weight in weights]


def decay_diagnostic(source: CutoffField, x1_axis: AxisSpec, m_order: int,
                     k: int) -> DecayDiagnostic:
    """Measure N(a,j) = || sqrt(psi_j) F_h[X_v(a,b,.)] ||_{L2(b,xi_bar)}.

    v is the quasimode of the flat-model cutoff source on the x1 axis
    x1_axis, its bar transform taken at the cutoff's bar grid.  Reports the
    fitted a-slopes at j = 0 and the worst consecutive-j decay ratios for
    comparison against the
    2^(-j(k+1)M) * (|a|^(3/2) for a <= 1, 1 for a >= 1) envelope.

    The decay law presumes a quasimode localized in an O(1) region, while a
    sharp-cutoff synthesis has |x1|^-1 tails out to the box; v is therefore
    multiplied by a smooth window flat on |x1| <= _LOCALIZE_HALFWIDTH (zero
    past 1.5x).  The window commutes with hD_x1 up to an exact O(h) term, so
    the windowed field is still an order-h quasimode and the envelope
    applies to it verbatim.  The band holds only the x1 rows where the
    window is nonzero, and only the x1 profiles of the cutoff's columns,
    the bar nodes where the bar transform is not 0: a column's profile is
    fixed by its xi1 run, so each distinct run is held and transformed
    once, 15 for the shipped config's 25 stored columns (_windowed_band).
    Each scale sums the power of its windows down b, gathers it back to
    the stored columns and weights it by each psi_j at their radii
    (_level_sums).  A column and its mirror on a closed axis have the same
    x1 profile, and the radial psi_j the same weight, so only the stored
    columns are weighted, each by the number of columns it stands for
    (CutoffField.col_mult).
    """
    h = source.h
    family = dyadic_cutoffs(h, k)
    a_vals = np.asarray(_A_GRID)
    band, row0, of = _windowed_band(source, x1_axis)
    radius = np.sqrt(sum(c * c for c in source.col_coords.T))
    cellvol = cell_volume(source.axes[1:])
    weights = [family.psi(j, radius) * source.col_mult
               for j in range(family.levels + 1)]
    mass = []
    for b, sums in _level_sums(band, row0, x1_axis, of, weights):
        db = b[1] - b[0] if len(b) > 1 else x1_axis.spacing
        mass.append([total * db * cellvol for total in sums])
    mass = np.sqrt(np.maximum(np.array(mass), 0.0))
    bound = np.array([[min(a, 1.0) ** 1.5 * 2.0 ** (-j * (k + 1) * m_order)
                       for j in range(family.levels + 1)] for a in a_vals])

    def fit(mask) -> float:
        xs = np.log(a_vals[mask])
        ys = np.log(np.maximum(mass[mask, 0], 1e-300))
        return _fit_line(xs, ys)[0]

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

"""Continuous wavelet transform in x1, dyadic bar-frequency cutoffs, and the
decay diagnostics of the flat model.

The mother wavelet is the derivative of the standard smooth bump
exp(-1/(1-t^2)) on (-1,1): compactly supported, smooth and mean zero.
The transform is a plain quadrature on the field's x1 grid, summed per
scale tap by tap in numpy over a band of x1 rows, outside which the field
is zero: each tap reaches only the windows where it lands on a band row,
and only the windows some tap reaches are formed, so the others are exact
zeros, not small numbers.  A coefficient is a sum that starts at +0 and
never turns -0, so the taps skipped off the band, which would add +-0,
change no bit of it.  The decay table works on the bar-frequency side: the
bar transform acts on the bar axes and the wavelet on x1, so the windows of
the transformed field are the transformed windows.  Its band is the
quasimode's bar transform at the cutoff's bar grid, on the rows of its x1
axis where its x1 window is nonzero, read from the cutoff's columns
(quasimode.column_transforms), one column of the band per stored column
of the cutoff, whose multiplicity (CutoffField.col_mult) weights its
power: no position field is synthesized.
Each scale forms its live windows one working block at a time
(grids.WORK_BLOCK_BYTES) and sums their power down the windows into one
row, which each level weights by its psi_j at the columns' radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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


def _scale_window(band: np.ndarray, row0: int, ax: AxisSpec, a: float):
    """(b, blocks) at the scale a, blocks yielding the coefficients of
    consecutive windows, in increasing order.

    band is the real (rows, cols) view of x1 rows row0, row0 + 1, ... of a
    field on the x1 axis ax; every row outside it is zero.  The blocks tile
    one run of windows, the union of the window ranges of the scale's live
    taps: the windows where some nonzero tap lands on a band row.  Every
    window outside it gets no tap, so its coefficients are +0 and are not
    formed.  A block is a view of one buffer that the next block of its
    scale overwrites.

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
    n1 = ax.points
    cols = band.shape[1]
    block = max(1, WORK_BLOCK_BYTES // (band.itemsize * cols))
    w = make_mother_wavelet()
    half = w.support_halfwidth * a
    qstride = max(1, int(min(a / 16.0, 1.0 / 8.0) / dx))
    qstep = qstride * dx
    wcells = int(math.ceil(2.0 * half / qstep)) + 2
    stride = max(1, int(round(a / 8.0 / dx)))
    pad_cells = int(math.ceil(2.0 * half / dx)) + wcells * qstride
    b_idx = np.arange(-pad_cells, n1 + pad_cells, stride)
    b = ax.start + (b_idx + 0.5) * dx
    offs = (np.arange(2 * wcells + 1) - wcells) * qstride
    # b sits on the grid, so the sampled profile is one row for every b.
    frow = w.profile(offs * dx / a) / math.sqrt(a)
    # Window i's tap at off reads field row i * stride + (off - pad_cells);
    # windows [lo, hi) are those where that row lies on the band's rows
    # first..last, outside which every sample is a zero.
    first, last = row0, row0 + len(band) - 1
    shift = offs - pad_cells
    lo = np.maximum(0, -((shift - first) // stride))
    hi = np.minimum(len(b), (last - shift) // stride + 1)
    live = (frow != 0.0) & (lo < hi)
    lo, hi = lo[live], hi[live]
    wlo, whi = (int(lo.min()), int(hi.max())) if lo.size else (0, 0)
    taps = list(zip(frow[live].tolist(), (shift[live] - row0).tolist(),
                    lo.tolist(), hi.tolist()))

    def blocks():
        # Every coefficient adds its taps to +0 one by one in ascending
        # order, the padded-gather oracle's order, which fixes every output
        # bit; windows go in blocks small enough to stay in cache across
        # their taps.  A sum that starts at +0 never becomes -0, so adding
        # a +-0 term changes no bit of it: skipping a zero tap or a tap off
        # the band keeps every bit, signed zeros included.
        out = np.empty((min(block, whi - wlo), cols))
        buf = np.empty_like(out)
        for r0 in range(wlo, whi, block):
            r1 = min(r0 + block, whi)
            x = out[:r1 - r0]
            x.fill(0.0)
            for f, sh, t0, t1 in taps:
                i0, i1 = max(t0, r0), min(t1, r1)
                if i0 < i1:
                    c0 = i0 * stride + sh
                    x[i0 - r0:i1 - r0] += np.multiply(
                        band[c0:c0 + (i1 - i0 - 1) * stride + 1:stride], f,
                        out=buf[:i1 - i0])
            x *= qstep
            yield x

    return b, blocks()


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


def _windowed_band(source: CutoffField, x1_axis: AxisSpec
                   ) -> tuple[np.ndarray, int]:
    """(band, row0): the bar transform of the quasimode of the cutoff source
    on the x1 axis x1_axis, times decay_diagnostic's x1 window, on the x1
    rows row0, row0 + 1, ... where the window is nonzero, as the real
    (rows, 2K) view of the source's K stored columns, filled block of
    columns by block (quasimode.column_transforms).  A grid over
    the budget is refused (quasimode._aligned_x1) before the window or the
    band is allocated.
    """
    x1 = _aligned_x1(source, x1_axis)
    window = _smooth_step(np.abs(x1) / _LOCALIZE_HALFWIDTH)
    rows = np.flatnonzero(window)
    row0, row1 = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
    x1, window = x1[row0:row1], window[row0:row1, None]
    band = np.empty((row1 - row0, len(source.col_count)), dtype=complex)
    for block, u in column_transforms(source, x1):
        np.multiply(u, window, out=band[:, block])
    return band.view(float), row0


def _level_sums(band: np.ndarray, row0: int, ax: AxisSpec,
                weights: Sequence[np.ndarray]):
    """(b, sums) for each scale of _A_GRID in turn, of the windowed band
    (row0, band) of _windowed_band on the x1 axis ax: sums[j] is the np.sum
    of weights[j] (one weight per column) times the sum over every b of
    |X(a, b, .)|^2.

    Each block of live windows is squared in place on its real view, and
    the column sums so far are folded into its first row before it is
    summed down its windows: numpy sums a C-order block down axis 0 row
    after row, so this is one axis-0 sum over every window, bit for bit,
    however the blocks fall.  The windows no tap reaches would add +0,
    which changes no bit.
    """
    for a in _A_GRID:
        b, blocks = _scale_window(band, row0, ax, a)
        power = np.zeros(band.shape[1])
        for x in blocks:
            np.square(x, out=x)
            x[0] += power
            power = x.sum(axis=0)
        power = power[0::2] + power[1::2]
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
    window is nonzero, and only the cutoff's columns of the bar transform,
    the bar nodes where it is not 0 (_windowed_band); each scale sums the
    power of its windows down b before weighting it by each psi_j at the
    columns' radii (_level_sums).  A column and its mirror on a closed axis
    have the same x1 profile, and the radial psi_j the same weight, so
    the band holds only the stored columns, each weighted by the number of
    columns it stands for (CutoffField.col_mult).
    """
    h = source.h
    family = dyadic_cutoffs(h, k)
    a_vals = np.asarray(_A_GRID)
    band, row0 = _windowed_band(source, x1_axis)
    radius = np.sqrt(sum(c * c for c in source.col_coords.T))
    cellvol = cell_volume(source.axes[1:])
    weights = [family.psi(j, radius) * source.col_mult
               for j in range(family.levels + 1)]
    mass = []
    for b, sums in _level_sums(band, row0, x1_axis, weights):
        db = b[1] - b[0] if len(b) > 1 else x1_axis.spacing
        mass.append([total * db * cellvol for total in sums])
    mass = np.sqrt(np.maximum(np.array(mass), 0.0))
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

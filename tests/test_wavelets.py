"""Mother wavelet, CWT, dyadic partition, reconstruction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from quasilab import families, wavelets
from quasilab.fio import x1_axis
from quasilab.grids import AxisSpec
from quasilab.quasimode import build_cutoff, column_transforms
from quasilab.wavelets import (_A_GRID, _LOCALIZE_HALFWIDTH, _level_sums,
                               _scale_taps, _scale_window, _smooth_step,
                               _tap_blocks, _window_blocks, _windowed_band,
                               bump, bump_derivative, decay_diagnostic,
                               dyadic_cutoffs)

from oracles import (GridField, admissibility, every_column, ft_axes,
                     l2_norm, padded_gather_cwt, per_column_decay_mass,
                     tap_order_power, wavelet_moments)


def real_rows(data):
    """A field's samples as real (n1, 2 * prod(bar_shape)), the layout of
    the decay table's band."""
    return np.ascontiguousarray(data, dtype=complex).reshape(
        len(data), -1).view(float)


def window_run(blocks, cols):
    """One scale of _scale_window's blocks copied out in order: the real
    (windows, cols) coefficients of its run of live windows."""
    return np.concatenate([np.empty((0, cols))] + [x.copy() for x in blocks])


def every_window(blocks, want):
    """One scale of _scale_window's blocks as the real coefficients at every
    translate of want, the oracle's, of the same shape: the blocks' run of
    windows, placed where the zero rows put it (its first nonzero row on
    the oracle's; at 0 when either is all zero), and +0 at every other
    window."""
    run = window_run(blocks, want.shape[1])
    first = [np.flatnonzero(x.any(axis=1)) for x in (want, run)]
    start = first[0][0] - first[1][0] if all(map(len, first)) else 0
    assert 0 <= start <= len(want) - len(run)
    out = np.zeros_like(want)
    out[start:start + len(run)] = run
    return out


def whole_field_cwt(v, w, a_grid):
    """(b_grids, values): _scale_window on the whole field v, per scale
    the translates b and the coefficients at every b (every_window, placed
    by the zero rows of the padded-gather oracle on the wavelet w), in v's
    bar shape."""
    bar_shape = v.data.shape[1:]
    flat = real_rows(v.data)
    b_grids, values = [], []
    for a in a_grid:
        b, blocks = _scale_window(flat, 0, v.axes[0], a)
        want = real_rows(padded_gather_cwt(v, w, a)[1])
        out = every_window(blocks, want)
        values.append(out.view(complex).reshape((len(b),) + bar_shape))
        b_grids.append(b)
    return b_grids, values


class TestMotherWavelet:
    def test_mean_zero(self):
        mean, _ = wavelet_moments()
        assert abs(mean) < 1e-12

    def test_admissibility_finite_and_frozen(self):
        # Frozen value from the quadrature itself (stability guard).
        c_f, tail_low, tail_high = admissibility()
        assert c_f == pytest.approx(1.12662767, rel=1e-5)
        assert tail_low < 1e-10
        assert tail_high < 1e-10

    def test_support(self, mother_wavelet):
        f = mother_wavelet.profile
        assert f(np.array([1.0, -1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]
        assert f(np.array([0.5]))[0] != 0.0

    def test_profile_is_bump_derivative(self):
        t = np.linspace(-0.999, 0.999, 201)
        num = np.gradient(bump(t), t)
        assert np.abs(num - bump_derivative(t)).max() < 1e-2


class TestCwt:
    def _field(self, data, h=2.0 ** -4, half=8.0):
        ax = AxisSpec(0.0, half, len(data))
        return GridField(h, [ax], np.asarray(data, complex))

    def test_autocorrelation_peak(self, mother_wavelet):
        ax = AxisSpec(0.0, 8.0, 4096)
        v = self._field(bump_derivative(ax.nodes()))
        (b,), (x,) = whole_field_cwt(v, mother_wavelet, [1.0])
        peak = x[int(np.argmin(np.abs(b)))]
        assert peak.real == pytest.approx(wavelet_moments()[1], abs=1e-3)

    def test_mean_zero_cancellation_on_constant(self, mother_wavelet):
        v = self._field(np.ones(4096))
        (b,), (x,) = whole_field_cwt(v, mother_wavelet, [2.0 ** -4])
        inner = np.abs(b) < 4.0
        assert np.abs(x[inner]).max() <= 1e-8 * l2_norm(v)

    def test_exact_zero_off_overlap(self, mother_wavelet):
        v = self._field(bump_derivative(AxisSpec(0.0, 8.0, 2048).nodes()))
        (b,), (x,) = whole_field_cwt(v, mother_wavelet, [1.0])
        far = np.abs(b) > 8.0 + 1.0  # data box + dilated support
        assert far.any()
        assert np.all(x[far] == 0.0)

    def test_linearity(self, mother_wavelet):
        rng = np.random.default_rng(17)
        d1 = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        d2 = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        a, bcoef = 1.3, -0.7 + 0.2j
        grids = [2.0 ** -2, 1.0]
        _, c1 = whole_field_cwt(self._field(d1), mother_wavelet, grids)
        _, c2 = whole_field_cwt(self._field(d2), mother_wavelet, grids)
        _, c3 = whole_field_cwt(self._field(a * d1 + bcoef * d2),
                                mother_wavelet, grids)
        for x1, x2, x3 in zip(c1, c2, c3):
            assert np.abs(x3 - (a * x1 + bcoef * x2)).max() < 1e-12

    # a = 1/4 samples every cell (qstride 1); a = 4 decimates to every 7th
    # cell.  1000 cells is a multiple of neither stride nor qstride, so the
    # windows meet the data edges at varying partial overlaps.  With 48 bar
    # points a = 1/4's 566 windows span two of the cache blocks.  Besides
    # a dense field, windows are formed over a field with zero rows at both
    # ends, a zero row inside and -0.0 entries, and over a field of zeros
    # only; bytes are compared, so signed zeros count.
    @pytest.mark.parametrize("bar_shape", [(), (8,), (48,)],
                             ids=["1d", "2d", "2d-blocks"])
    def test_matches_padded_gather_oracle(self, mother_wavelet, bar_shape):
        rng = np.random.default_rng(41)
        shape = (1000,) + bar_shape
        dense = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows = dense.copy()
        rows[:137] = 0.0
        rows[830:] = -0.0
        rows[400] = complex(-0.0, 0.0)
        rows[500:520].real[rows[500:520].real < 0] = -0.0
        ax = AxisSpec(0.0, 8.0, 1000)
        axes = [ax] + [AxisSpec(0.0, 1.0, m) for m in bar_shape]
        a_grid = [0.25, 4.0]
        for data in (dense, rows, np.zeros(shape, complex)):
            v = GridField(2.0 ** -4, axes, data)
            b_grids, values = whole_field_cwt(v, mother_wavelet, a_grid)
            for i, a in enumerate(a_grid):
                b, x, qstride, partial = padded_gather_cwt(
                    v, mother_wavelet, a)
                assert qstride == (1 if i == 0 else 7)
                assert partial > 0
                assert np.array_equal(b_grids[i], b)
                assert values[i].shape == x.shape
                assert values[i].tobytes() == x.tobytes()

    # A band of 80 rows starting at row 300 of a 1000-row field: the
    # transform of the field zero-padded around it is the oracle.  a = 4
    # decimates (qstride 7), and a = 16 reaches the band from windows far
    # outside it.  The band's rows may be zeros too: at its ends, inside it
    # or all of them; the windows formed over them keep the oracle's bits.
    @pytest.mark.parametrize("bar_shape", [(), (8,)], ids=["1d", "2d"])
    @pytest.mark.parametrize("case", ["dense", "zero-ends", "zero-inside",
                                      "all-zero"])
    def test_band_matches_cwt_of_padded_field(self, mother_wavelet, bar_shape,
                                              case):
        rng = np.random.default_rng(43)
        row0, rows = 300, 80
        band = (rng.standard_normal((rows,) + bar_shape)
                + 1j * rng.standard_normal((rows,) + bar_shape))
        if case == "zero-ends":
            band[:9] = 0.0
            band[-5:] = -0.0
        elif case == "zero-inside":
            band[40] = 0.0
        elif case == "all-zero":
            band[:] = 0.0
        data = np.zeros((1000,) + bar_shape, complex)
        data[row0:row0 + rows] = band
        ax = AxisSpec(0.0, 8.0, 1000)
        axes = [ax] + [AxisSpec(0.0, 1.0, m) for m in bar_shape]
        a_grid = [2.0 ** -5, 0.25, 4.0, 16.0]
        want_bs, wants = whole_field_cwt(GridField(2.0 ** -4, axes, data),
                                         mother_wavelet, a_grid)
        flat = real_rows(band)
        for a, want_b, want in zip(a_grid, want_bs, wants):
            b, blocks = _scale_window(flat, row0, ax, a)
            assert b.tobytes() == want_b.tobytes()
            want = real_rows(want)
            assert every_window(blocks, want).tobytes() == want.tobytes()

    @staticmethod
    def _random_band():
        """(band, row0, axis): 300 rows of 7 complex columns from row 1,000
        of a 4,096-row axis, with zero rows at its ends, one inside and
        -0.0 entries."""
        rng = np.random.default_rng(47)
        band = rng.standard_normal((300, 14))
        band[:11] = 0.0
        band[-4:] = -0.0
        band[150] = 0.0
        band[40:60][band[40:60] < 0] = -0.0
        return band, 1000, AxisSpec(0.0, 6.0, 4096)

    @pytest.mark.parametrize("field", ["shipped", "random"])
    def test_window_order_matches_tap_order(self, flat_model, field):
        # At every scale of the a-grid, and at one below the x1 spacing,
        # where no window is live, the windows summed window by window are
        # those summed tap by tap, and so is each scale's power, bit for
        # bit.
        if field == "shipped":
            band, row0, _ = _windowed_band(*flat_model)
            ax = flat_model[1]
        else:
            band, row0, ax = self._random_band()
        cols = band.shape[1]
        for a in (*_A_GRID, ax.spacing / 2):
            _, taps = _scale_taps(len(band), row0, ax, a)
            by_tap = window_run(_tap_blocks(band, taps), cols)
            by_window = window_run(_window_blocks(band, taps), cols)
            assert np.array_equal(by_window, by_tap)
            assert (np.square(by_window).sum(axis=0).tobytes()
                    == tap_order_power(band, row0, ax, a).tobytes())

    def test_wide_scales_go_window_by_window(self, flat_model):
        # On the shipped band the scales from 2^(3/2) on have fewer live
        # windows than live taps (at a = 64, 17 windows and 577 taps), and
        # only those are summed window by window.
        band, row0, _ = _windowed_band(*flat_model)
        by_window = []
        for a in _A_GRID:
            _, taps = _scale_taps(len(band), row0, flat_model[1], a)
            if taps.end - taps.first < len(taps.f):
                by_window.append(a)
        assert by_window == [a for a in _A_GRID if a > 2.5]
        assert (taps.end - taps.first, len(taps.f)) == (17, 577)

    def test_memory_bounded(self, flat_model_field):
        # The transform of the flat model's whole 8192 x 64 grid at every
        # scale of the shipped a-grid holds one block of one scale's
        # coefficients at a time: the run peaks at about 0.08 grids
        # measured.
        v = flat_model_field
        flat = real_rows(v.data)
        tracemalloc.start()
        try:
            for a in _A_GRID:
                b, blocks = _scale_window(flat, 0, v.axes[0], a)
                for x in blocks:
                    del x
                del b, blocks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * v.data.nbytes

    def test_rejects_nonpositive_scale(self, mother_wavelet):
        v = self._field(np.ones(256))
        with pytest.raises(ValueError):
            whole_field_cwt(v, mother_wavelet, [0.0])


def partition_sum(fam, r):
    """sum_j psi_j(r) over every level of the family."""
    return sum(fam.psi(j, r) for j in range(fam.levels + 1))


class TestDyadicCutoffs:
    def test_level_count_example(self):
        assert dyadic_cutoffs(2.0 ** -8, 3).levels == 2

    def test_partition_of_unity(self):
        fam = dyadic_cutoffs(2.0 ** -8, 3)
        rng = np.random.default_rng(23)
        r = rng.random(1000)
        assert np.abs(partition_sum(fam, r) - 1.0).max() <= 1e-10

    def test_disjoint_annuli(self):
        fam = dyadic_cutoffs(2.0 ** -20, 3)
        assert fam.levels >= 4
        r = np.geomspace(1e-4, 1.0, 5000)
        for j in range(1, fam.levels - 1):
            for jp in range(j + 2, fam.levels + 1):
                assert np.all(fam.psi(j, r) * fam.psi(jp, r) == 0.0)

    def test_plancherel_split(self):
        # sum_j ||sqrt(psi_j) g||^2 = ||g||^2 for g supported in |r| <= 1.
        fam = dyadic_cutoffs(2.0 ** -6, 1)
        rng = np.random.default_rng(29)
        r = rng.random(500)
        g = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        total = sum(float(np.sum(fam.psi(j, r) * np.abs(g) ** 2))
                    for j in range(fam.levels + 1))
        assert total == pytest.approx(float(np.sum(np.abs(g) ** 2)), rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            dyadic_cutoffs(0.0, 3)
        with pytest.raises(ValueError):
            dyadic_cutoffs(0.5, 0)


def _decay_field(flat_model, field):
    """(cutoff, x1 axis) of the shipped flat model, of an n = 3 flat model
    or of a paraboloid cutoff on 57 bar nodes, an odd count."""
    if field == "shipped":
        return flat_model
    spec = (families.flat_cutoff(3, 3, pow2=True) if field == "n3"
            else families.paraboloid_cutoff(2, 1))
    return build_cutoff(spec, 2.0 ** -4), x1_axis(3.0, 2.0 ** -6)


def _column_nodes(cut):
    """The bar-grid index of each stored column of a 2D cutoff."""
    return np.rint((cut.col_coords[:, 0] - cut.axes[1].start)
                   / cut.axes[1].spacing - 0.5).astype(int)


class TestDecayDiagnostic:
    def test_memory_bounded(self, flat_model, flat_model_field):
        # The band holds the window's x1 rows of the distinct x1 profiles
        # of the cutoff's kept mirror columns alone, filled one working
        # block of profiles at a time, and one block of one scale's live
        # coefficients is squared in place at a time: the whole run stays
        # within 0.42 copies of the 8192 x 64 grid (about 0.20 measured).
        tracemalloc.start()
        try:
            decay_diagnostic(*flat_model, 1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.42 * flat_model_field.data.nbytes

    def test_grid_never_allocated(self, flat_model, flat_model_field):
        # The band of rows where the window is nonzero (37.5 % of the rows)
        # and of the 15 distinct x1 profiles of the 25 kept of the 64 bar
        # nodes (8.8 % of the grid) is allocated first and lives
        # throughout, so a whole-grid array would lift the peak a full grid
        # above it; one block of profiles' temporaries stays well below
        # that.
        cut, ax = flat_model
        tracemalloc.start()
        try:
            band, _, _ = _windowed_band(cut, ax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = flat_model_field.data.nbytes
        assert band.nbytes < 0.1 * grid
        assert peak - band.nbytes <= 0.75 * grid

    def test_band_transforms_only_its_rows(self, flat_model, monkeypatch):
        # The window keeps 3,070 of the 8,192 x1 rows: the profiles are
        # evaluated on those rows alone, every distinct xi1 run of the 25
        # kept columns once, 15 of them, in order.
        cut, ax = flat_model
        calls, seen = [], []
        blocks = wavelets.column_transforms

        def recording(field, x1):
            calls.append((field, x1.copy()))
            for block, u in blocks(field, x1):
                seen.append((block.start, block.start + u.shape[1]))
                yield block, u

        monkeypatch.setattr(wavelets, "column_transforms", recording)
        band, row0, of = _windowed_band(cut, ax)
        (profiles, x1), = calls
        assert len(band) == len(x1) == 3070 < 0.4 * ax.points
        assert x1.tobytes() == ax.nodes()[row0:row0 + 3070].tobytes()
        runs = set(zip(cut.col_start.tolist(), cut.col_count.tolist()))
        assert sorted(runs) == list(zip(profiles.col_start.tolist(),
                                        profiles.col_count.tolist()))
        assert seen[0][0] == 0 and seen[-1][1] == len(runs) == 15
        assert len(of) == len(cut.col_count) == 25
        assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
        assert profiles.cell_count == cut.cell_count

    def test_band_is_windowed_field(self, flat_model, flat_model_field):
        # The band, each kept column read at its profile, is the whole
        # synthesized field's FFT over the bar axis, read at the kept
        # columns' nodes on the band's rows, times the window, to rounding.
        f = flat_model_field
        cut = flat_model[0]
        band, row0, of = _windowed_band(*flat_model)
        band = band.view(complex)[:, of]
        row1 = row0 + len(band)
        hat, duals = ft_axes(f.data[row0:row1], f.axes[1:], f.h)
        assert duals == cut.axes[1:]
        window = _smooth_step(np.abs(f.axes[0].nodes()) / _LOCALIZE_HALFWIDTH)
        want = hat[:, _column_nodes(cut)] * window[row0:row1, None]
        assert np.abs(band - want).max() <= 1e-13 * np.abs(want).max()

    def test_band_is_windowed_columns(self, flat_model):
        # Each kept column read at its profile, the band is the kept
        # columns' x1 profiles, block of columns by block with the cutoff's
        # normalization, on the window's rows times the window, bit for bit.
        cut, ax = flat_model
        band, row0, of = _windowed_band(cut, ax)
        band = np.ascontiguousarray(band.view(complex)[:, of])
        x1 = ax.nodes()
        window = _smooth_step(np.abs(x1) / _LOCALIZE_HALFWIDTH)
        row1 = row0 + len(band)
        assert window[row0 - 1] == 0.0 and window[row1] == 0.0
        assert window[row0:row1].all()
        want = np.concatenate([u for _, u in column_transforms(
            cut, x1[row0:row1])], axis=1) * window[row0:row1, None]
        assert band.tobytes() == want.view(float).tobytes()

    # The shipped flat model, whose 50 columns pair into 25, and an n = 3
    # one whose 4,096 bar nodes hold 2,032 columns, a quarter of them kept:
    # each bar axis has an even count, so no column lies on a mirror plane.
    # A paraboloid cutoff on 57 bar nodes keeps 23 of its 45 columns, one
    # of them on the mirror plane, standing for itself alone.
    @pytest.mark.parametrize("field", ["shipped", "n3", "odd"])
    def test_paired_match_every_column(self, flat_model, field):
        # The table from the kept mirror columns, each weighted by the
        # columns it stands for, is every column's table to rounding.
        cut, ax = _decay_field(flat_model, field)
        kept = {"shipped": (25, 50), "n3": (508, 2032), "odd": (23, 45)}[field]
        every = every_column(cut)
        assert (len(cut.col_count), len(every.col_count)) == kept
        got = decay_diagnostic(cut, ax, 1, 3)
        want = decay_diagnostic(every, ax, 1, 3)
        assert got.mass.shape == want.mass.shape
        assert (got.mass > 0).sum() >= got.mass.size // 2
        np.testing.assert_allclose(got.mass, want.mass, rtol=1e-13, atol=0)
        assert got.small_a_slope == pytest.approx(want.small_a_slope,
                                                  rel=1e-12)
        assert got.large_a_slope == pytest.approx(want.large_a_slope,
                                                  rel=1e-10)

    # The same fields: their kept columns hold 15, 42 and 19 distinct xi1
    # runs, so x1 profiles.
    @pytest.mark.parametrize("field, runs", [("shipped", 15), ("n3", 42),
                                             ("odd", 19)])
    def test_profiles_match_per_column_oracle(self, flat_model, field, runs):
        # The table transforms each distinct x1 profile once and gathers
        # each scale's power back to the kept columns before the weights:
        # bit for bit the table of a band of every kept column, each
        # summed tap by tap.
        cut, ax = _decay_field(flat_model, field)
        assert len(set(zip(cut.col_start.tolist(),
                           cut.col_count.tolist()))) == runs
        got = decay_diagnostic(cut, ax, 1, 3).mass
        want = per_column_decay_mass(cut, ax, 3)
        assert (got > 0).sum() >= got.size // 2
        assert got.tobytes() == want.tobytes()

    def test_unchecked_closure_keeps_its_bits(self, flat_model):
        # A field that stores every column pairs nothing: the table is the
        # unweighted one of every column, the band of every column and each
        # level's sum weighted by psi_j alone, bit for bit.
        cut, ax = flat_model
        cut = every_column(cut)
        assert cut.col_mult.tolist() == [1] * 50
        band, row0, of = _windowed_band(cut, ax)
        family = dyadic_cutoffs(cut.h, 3)
        radius = np.abs(cut.col_coords[:, 0])
        weights = [family.psi(j, radius) for j in range(family.levels + 1)]
        cell = cut.axes[1].spacing
        want = np.sqrt(np.maximum(np.array([
            [total * (b[1] - b[0]) * cell for total in sums]
            for b, sums in _level_sums(band, row0, ax, of, weights)]), 0.0))
        got = decay_diagnostic(cut, ax, 1, 3).mass
        assert got.tobytes() == want.tobytes()

    # The smallest and the largest of the default scales, and a scale below
    # the x1 spacing, whose taps all land off the profile's support, so that
    # no window is live.  With the shipped working block a scale's windows
    # come in blocks of 256; with 2,048 bytes a block holds 2 windows, so
    # every scale folds its column sums across many blocks.
    @pytest.mark.parametrize("work", [None, 2048], ids=["shipped", "small"])
    @pytest.mark.parametrize("a", [2.0 ** -6, 64.0, 2.0 ** -11],
                             ids=["a=2^-6", "a=64", "a=2^-11"])
    def test_level_sums_match_whole_transform(self, flat_model,
                                              flat_model_field, a, work,
                                              monkeypatch):
        # decay_diagnostic's windowed field: zero for |x1| >= 2.25, so most
        # coefficient rows are exact zeros and are not formed.
        cut, ax = flat_model
        f = flat_model_field
        band, row0, of = _windowed_band(cut, ax)
        if work is not None:
            monkeypatch.setattr(wavelets, "WORK_BLOCK_BYTES", work)
        monkeypatch.setattr(wavelets, "_A_GRID", (a,))
        cols = band.shape[1] // 2
        rng = np.random.default_rng(31)
        weights = [rng.random(len(of)), np.zeros(len(of)), rng.random(len(of))]
        weights[2][5:20] = 0.0
        (got_b, sums), = _level_sums(band, row0, ax, of, weights)
        # The whole-array form: the band's profiles on every x1 row, zero
        # off the band, their windows formed, their squared real parts and
        # imaginary parts summed in one axis-0 sum over every window, and
        # each kept column's read at its profile.
        hat = np.zeros((ax.points, 2 * cols))
        hat[row0:row0 + len(band)] = band
        b, blocks = _scale_window(hat, 0, ax, a)
        x_hat = window_run(blocks, 2 * cols)
        assert got_b.tobytes() == b.tobytes()
        power = np.square(x_hat).sum(axis=0)
        power = (power[0::2] + power[1::2])[of]
        want = [float(np.sum(weight * power)) for weight in weights]
        assert [s.hex() for s in sums] == [s.hex() for s in want]
        # The position-side form, the windows of the synthesized windowed
        # field bar-transformed one by one and read at the kept columns'
        # nodes, agrees to rounding.
        window = _smooth_step(np.abs(f.axes[0].nodes()) / _LOCALIZE_HALFWIDTH)
        _, blocks = _scale_window(real_rows(f.data * window[:, None]), 0,
                                  ax, a)
        x = window_run(blocks, 2 * f.data.shape[1]).view(complex)
        power = np.sum(np.abs(ft_axes(x, f.axes[1:], f.h)[0]) ** 2, axis=0)
        nodes = _column_nodes(cut)
        for got, weight in zip(sums, weights):
            assert got == pytest.approx(float(np.sum(weight * power[nodes])),
                                        rel=1e-12, abs=0)
        # The band's run of live windows, from the zero rows: windows that
        # reach only rows off the band are +0, and are not formed.
        run = window_run(_scale_window(band, row0, ax, a)[1], 2 * cols)
        live = np.flatnonzero(x_hat.any(axis=1))
        if a < ax.spacing:
            # No live window: every level's sum is +0, as the oracle's.
            assert len(run) == 0 and len(live) == 0
            assert [s.hex() for s in sums] == ["0x0.0p+0"] * len(weights)
        else:
            assert live[-1] - live[0] < len(run) <= len(x_hat) < len(b)
            assert all(s > 0 for s in sums[::2])


class TestReconstruction:
    def test_inversion_formula(self, reconstruction_error):
        assert reconstruction_error < 1e-3

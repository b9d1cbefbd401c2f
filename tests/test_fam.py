import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdkit as sk
from scdkit import estimate, oracle
from scdkit._util import value_hash


def _random_series(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_frame_ramp():
    cfg = sk.FamConfig(N=32, Np=8, precision="f64")
    assert cfg.L == 2 and cfg.P == 16
    x = np.arange(32, dtype=np.complex128)
    out = sk.frame(x, cfg)
    assert np.array_equal(out[:, 3], np.arange(6, 14))
    assert out[0, 0] == x[0] and out[1, 0] == x[1]


def test_frame_tail_is_zero_padded():
    cfg = sk.FamConfig(N=32, Np=8, precision="f64")
    x = np.ones(32, dtype=np.complex128)
    out = sk.frame(x, cfg)
    # last frame starts at 15*2 = 30 and runs past the final sample
    assert np.array_equal(out[:, 15], np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=complex))


def test_frame_shape_flagship():
    cfg = sk.FamConfig(N=2048, Np=256)
    out = sk.frame(np.ones(2048, dtype=np.complex64), cfg)
    assert out.shape == (256, 32)
    assert cfg.P == 32


def test_frame_length_mismatch():
    cfg = sk.FamConfig(N=2048, Np=256)
    with pytest.raises(sk.DimensionError):
        sk.frame(np.zeros(100, dtype=complex), cfg)


def test_config_validation():
    with pytest.raises(sk.ConfigurationError):
        sk.FamConfig(N=2000, Np=256)
    with pytest.raises(sk.ConfigurationError):
        sk.FamConfig(N=2048, Np=4)
    with pytest.raises(sk.ConfigurationError):
        sk.FamConfig(N=2048, Np=256, a_window=sk.WindowSpec("rectangular", 64))


def test_demodulate_dc_input():
    cfg = sk.FamConfig(N=64, Np=16, precision="f64",
                       a_window=sk.WindowSpec("rectangular", 16))
    frames = np.ones((16, 16), dtype=np.complex128)
    out = sk.demodulate(frames, cfg)
    center = cfg.Np // 2
    assert np.all(out[center] == 16.0)
    mask = np.ones(16, dtype=bool)
    mask[center] = False
    assert np.all(out[mask] == 0.0)


def test_demodulate_zero_matrix():
    cfg = sk.FamConfig(N=64, Np=16, precision="f64")
    out = sk.demodulate(np.zeros((16, 16), dtype=complex), cfg)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("precision,tol", [("f32", 1e-5), ("f64", 1e-12)])
def test_demodulate_matches_straight_line_reference(precision, tol):
    cfg = sk.FamConfig(N=2048, Np=256, precision=precision)
    x = _random_series(2048, seed=21).astype(sk._util.complex_dtype(precision))
    frames = sk.frame(x, cfg)
    ref = sk.demodulate_reference(frames, cfg)
    out = sk.demodulate(frames, cfg)
    assert sk.peak_relative_error(out, ref) <= tol


def test_pipeline_matches_reference_through_framing():
    # demodulate(frame(x)) against the monolithic double-precision evaluation
    cfg = sk.FamConfig(N=512, Np=32, precision="f64")
    x = _random_series(512, seed=4)
    out = sk.demodulate(sk.frame(x, cfg), cfg)
    ref = sk.demodulate_reference(sk.frame(x, cfg), cfg)
    assert sk.peak_relative_error(out, ref) <= 1e-12


def test_conjugate_square_real_nonnegative():
    # real part is a sum of squares (exactly nonnegative under any rounding);
    # the imaginary part may carry FMA dust a few ulps of the real part
    cfg = sk.FamConfig(N=64, Np=16, precision="f64")
    xt = sk.demodulate(sk.frame(_random_series(64, seed=8), cfg), cfg)
    g = sk.make_window(cfg.g_window)
    eps = np.finfo(np.float64).eps
    for k in range(cfg.Np):
        z = xt[k] * np.conj(xt[k]) * g
        assert np.all(z.real >= 0.0)
        assert np.all(np.abs(z.imag) <= 8.0 * eps * z.real)


def test_fam_scd_zeros():
    cfg = sk.FamConfig(N=64, Np=16, precision="f64")
    est = sk.fam_scd(np.zeros((16, 16), dtype=complex), cfg)
    assert np.all(est.values == 0.0)


def test_fam_scd_quartic_scaling():
    cfg = sk.FamConfig(N=64, Np=16, precision="f64")
    rng = np.random.default_rng(17)
    xt = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    base = sk.fam_scd(xt, cfg)
    for c in (1.7, 2.0j):
        scaled = sk.fam_scd(c * xt, cfg)
        ratio = abs(c) ** 4
        err = np.abs(scaled.values - ratio * base.values)
        assert err.max() <= 1e-9 * ratio * base.values.max()


def test_fam_scd_dimension_check():
    cfg = sk.FamConfig(N=64, Np=16)
    with pytest.raises(sk.DimensionError):
        sk.fam_scd(np.zeros((8, 16), dtype=complex), cfg)


def test_fam_full_bin_count_and_coords():
    cfg = sk.FamConfig(N=2048, Np=256)
    x = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=2048, snr_db=10.0, seed=1))
    est = sk.fam_full(x, cfg)
    assert est.n_bins == 256 * 256 * 16
    assert np.all(np.isfinite(est.values))
    assert np.all(est.values >= 0.0)
    f = est.freqs()
    a = est.alphas()
    assert f.min() >= -0.5 and f.max() <= 0.5
    # alpha touches -1 exactly at the single (k, l, q) = (0, Np-1, -P/4) corner
    assert a.min() >= -1.0 and a.max() < 1.0


def test_fam_full_scaling_contract():
    cfg = sk.FamConfig(N=512, Np=32, precision="f64")
    x = _random_series(512, seed=30)
    raw = sk.fam_full(x, cfg, normalize_input=False)
    for c in (3.0, 0.25):
        scaled = sk.fam_full(c * x, cfg, normalize_input=False)
        ratio = c ** 4
        err = np.abs(scaled.values - ratio * raw.values) / (ratio * raw.values.max())
        assert err.max() <= 1e-5

    # with normalization the output ignores any complex rescaling
    base = sk.fam_full(x, cfg)
    rotated = sk.fam_full(3.7 * np.exp(0.9j) * x, cfg)
    assert np.argmax(base.values) == np.argmax(rotated.values)
    err = np.abs(rotated.values - base.values) / base.values.max()
    assert err.max() <= 1e-6


@pytest.mark.parametrize("normalize_input", [True, False])
def test_fam_full_rejects_non_finite_input(normalize_input):
    x = _random_series(128, seed=3)
    x[17] = complex(np.nan, 0.0)
    with pytest.raises(sk.DataError, match="non-finite"):
        sk.fam_full(x, sk.FamConfig(N=128, Np=16), normalize_input=normalize_input)


def test_fam_threads_bit_identical():
    cfg = sk.FamConfig(N=512, Np=64)
    x = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=512, snr_db=5.0, seed=2))
    a = sk.fam_full(x, cfg, threads=1)
    b = sk.fam_full(x, cfg, threads=4)
    assert value_hash(a.values) == value_hash(b.values)


def test_fam_alpha_lattice():
    # every emitted alpha is an integer multiple of 1/N
    cfg = sk.FamConfig(N=128, Np=16, precision="f64")
    est = sk.fam_full(_random_series(128), cfg)
    lattice = est.alphas() * cfg.N
    assert np.allclose(lattice, np.round(lattice), atol=1e-9)


def test_fam_to_grid_examples():
    est = sk.ScdEstimate(
        values=np.array([[5.0]]),
        f_base=np.array([0.0]),
        alpha_base=np.array([0.0]),
        col_offsets=np.array([0.0]),
        f_slope=0.0,
        alpha_slope=0.0,
    )
    grid = sk.fam_to_grid(est, 3, 3)
    expected = np.zeros((3, 3))
    expected[1, 1] = 5.0
    assert np.array_equal(grid, expected)

    est2 = sk.ScdEstimate(
        values=np.array([[2.0, 5.0]]),
        f_base=np.array([0.0]),
        alpha_base=np.array([0.0]),
        col_offsets=np.array([0.0, 1e-4]),  # same cell
        f_slope=0.0,
        alpha_slope=1.0,
    )
    grid2 = sk.fam_to_grid(est2, 3, 3)
    assert grid2[1, 1] == 5.0

    cfg = sk.FamConfig(N=128, Np=16, precision="f64")
    est3 = sk.fam_full(_random_series(128, seed=5), cfg)
    grid3 = sk.fam_to_grid(est3, 32, 64)
    assert np.count_nonzero(grid3) <= est3.n_bins


def _grid_reference(est, n_f_bins, n_alpha_bins):
    # unchunked tuple-index scatter of the raw values: the straight-line form
    f_lo, f_hi = sk.F_RANGE
    a_lo, a_hi = sk.ALPHA_RANGE
    fi = np.clip(((est.freqs() - f_lo) / ((f_hi - f_lo) / n_f_bins)).astype(np.int64),
                 0, n_f_bins - 1)
    ai = np.clip(((est.alphas() - a_lo) / ((a_hi - a_lo) / n_alpha_bins)).astype(np.int64),
                 0, n_alpha_bins - 1)
    grid = np.zeros((n_alpha_bins, n_f_bins))
    np.maximum.at(grid, (ai.ravel(), fi.ravel()), est.values.ravel())
    return grid


def _profile_reference(est, n_alpha_bins):
    d = 2.0 / (n_alpha_bins - 1)
    idx = np.clip(np.rint((est.alphas() + 1.0) / d).astype(np.int64), 0, n_alpha_bins - 1)
    values = np.zeros(n_alpha_bins)
    np.maximum.at(values, idx.ravel(), est.values.ravel())
    return values


@st.composite
def _lattices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 8))
    # few distinct magnitudes, so many bins tie for a cell
    values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 3.0000002]),
                           min_size=rows * cols, max_size=rows * cols))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # coordinates reach past [-0.5, 0.5] x [-1, 1] so clipping runs
    coord = st.floats(-1.5, 1.5, allow_nan=False)
    f_slope = draw(st.sampled_from([0.0, 0.25, -0.0625]) | st.floats(-0.5, 0.5))
    return sk.ScdEstimate(
        values=np.array(values, dtype=dtype).reshape(rows, cols),
        f_base=np.array(draw(st.lists(coord, min_size=rows, max_size=rows))),
        alpha_base=2.0 * np.array(draw(st.lists(coord, min_size=rows, max_size=rows))),
        col_offsets=np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=cols,
                                           max_size=cols))),
        f_slope=f_slope,
        alpha_slope=draw(st.floats(-1.0, 1.0)),
    )


@settings(max_examples=200, deadline=None)
@given(_lattices(), st.integers(1, 9), st.integers(1, 9), st.integers(2, 17),
       st.integers(1, 12))
def test_rasterizer_and_profile_match_reference(est, n_f, n_alpha, n_profile, chunk):
    # a chunk of a few bins splits even these small lattices across chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_GRID_CHUNK", chunk)
        mp.setattr(oracle, "_STAT_CHUNK", chunk)
        grid = sk.scd_to_grid(est, n_f, n_alpha)
        profile = sk.alpha_profile(est, n_profile)
    assert grid.shape == (n_alpha, n_f) and grid.dtype == np.float64
    assert np.array_equal(grid, _grid_reference(est, n_f, n_alpha))
    assert np.array_equal(profile.values, _profile_reference(est, n_profile))


def test_rasterizer_and_profile_allocate_one_block_of_scratch():
    # an SSCA-shaped lattice: 64 rows of 2^16 columns; the scratch of both
    # functions is bounded by the block size, not by the estimate size
    rows, cols = 64, 1 << 16
    k = np.arange(rows) - rows // 2
    est = sk.ScdEstimate(
        values=np.random.default_rng(4).random((rows, cols), dtype=np.float32),
        f_base=k / (2.0 * rows), alpha_base=k / float(rows),
        col_offsets=(np.arange(cols) - cols // 2).astype(np.float64),
        f_slope=-0.5 / cols, alpha_slope=1.0 / cols,
    )
    scratch = 16 * estimate._GRID_CHUNK * 8
    assert scratch <= est.values.nbytes // 2  # a block is a fraction of the lattice
    tracemalloc.start()
    try:
        grid = sk.scd_to_grid(est, 512, 1024)
        grid_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        profile = sk.alpha_profile(est, 2 * cols + 1)
        profile_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grid_peak <= grid.nbytes + scratch
    assert profile_peak <= profile.alphas.nbytes + profile.values.nbytes + scratch
    assert np.array_equal(grid, _grid_reference(est, 512, 1024))


def test_fam_profile_peaks_on_data_rate_comb():
    # noise-free DSSS: every detected cycle frequency falls on the
    # data-rate comb at chip_rate / processing_gain
    sig_cfg = sk.DsssBpskConfig(n_samples=2048, processing_gain=31,
                                chip_rate=0.25, snr_db=np.inf, seed=0)
    x = sk.generate_dsss_bpsk(sig_cfg)
    est = sk.fam_full(x, sk.FamConfig(N=2048, Np=256))
    profile = sk.alpha_profile(est, 2 * 2048 + 1)
    detected = sk.detect_cycle_frequencies(profile, 0.2)
    rate = sig_cfg.data_rate
    assert len(detected) >= 6
    assert all(abs(a - round(a / rate) * rate) <= 1.0 / 2048 for a in detected)


def test_fam_scd_retained_bins_match_naive_dft():
    # one channel pair checked end to end against the naive DFT, with a
    # non-rectangular frame window exercising the g path
    cfg = sk.FamConfig(N=128, Np=16, precision="f64",
                       g_window=sk.WindowSpec("hamming", 32))
    rng = np.random.default_rng(23)
    xt = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    est = sk.fam_scd(xt, cfg)
    g = sk.make_window(cfg.g_window)
    p = cfg.P
    for k, l in [(3, 11), (9, 9)]:
        z = xt[k] * np.conj(xt[l]) * g
        spectrum = sk.dft_naive(z)
        power = np.abs(spectrum) ** 2
        expected = np.concatenate((power[: p // 4], power[3 * p // 4:]))
        got = est.values[k * cfg.Np + l]
        assert sk.peak_relative_error(got, expected) <= 1e-12


@st.composite
def _monotone_lattices(draw):
    # one to three monotone col_offsets ranges in either direction, with ties;
    # the rng fills the long arrays, hypothesis draws the shape of the lattice
    rows = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(1, 1400), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pieces = []
    for n in lengths:
        ties = draw(st.sampled_from([0.0, 0.3, 0.9]))
        steps = rng.random(n) * (rng.random(n) >= ties)
        span = draw(st.sampled_from([0.01, 1.0, 8.0]))
        pieces.append(draw(st.floats(-4.0, 4.0)) + draw(st.sampled_from([1.0, -1.0]))
                      * np.cumsum(steps) * (span / n))
    cols = sum(lengths)
    slope = st.sampled_from([0.0, 0.25, -0.0625]) | st.floats(-0.5, 0.5)
    coord = draw(st.sampled_from([np.float32, np.float64]))
    base = draw(st.sampled_from([np.float32, np.float64]))
    return sk.ScdEstimate(
        # a few distinct magnitudes, so runs and cells hold ties
        values=rng.choice([0.0, 0.5, 1.0, 3.0, 3.0000002], size=(rows, cols)).astype(
            draw(st.sampled_from([np.float32, np.float64]))),
        # coordinates reach past [-0.5, 0.5] x [-1, 1] so clipping runs
        f_base=rng.uniform(-1.5, 1.5, rows).astype(base),
        alpha_base=rng.uniform(-3.0, 3.0, rows).astype(base),
        col_offsets=np.concatenate(pieces).astype(coord),
        f_slope=draw(slope),
        alpha_slope=draw(slope),
    )


def _grid_by_bins(est, n_f, n_alpha):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_RUN_MIN_MEAN", np.inf)
        return sk.scd_to_grid(est, n_f, n_alpha)


@settings(max_examples=150, deadline=None)
@given(_monotone_lattices(), st.integers(1, 64), st.integers(1, 64),
       st.sampled_from([0, 1, 8, 64]))
def test_rasterizer_by_runs_matches_reference(est, n_f, n_alpha, run_min_mean):
    # a low threshold sends most ranges down the runs path, the rest bin by bin
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_RUN_MIN_MEAN", run_min_mean)
        grid = sk.scd_to_grid(est, n_f, n_alpha)
    assert np.array_equal(grid, _grid_by_bins(est, n_f, n_alpha))
    if est.f_base.dtype == np.float64:
        # the reference computes float32 bases in float32, the rasterizer in float64
        assert np.array_equal(grid, _grid_reference(est, n_f, n_alpha))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("far", [np.inf, -np.inf, 1e300])
@pytest.mark.parametrize("f_slope", [0.1, 0.0])
def test_rasterizer_by_runs_leaves_unconvertible_ranges_to_bins(far, f_slope):
    # ranges whose coordinates are infinite or past int64 convert to cells
    # non-monotonically, so they must be scattered bin by bin; with f_slope
    # 0, an infinite offset also makes the f cell differ within a row
    rng = np.random.default_rng(9)
    offsets = np.concatenate((np.linspace(-3.0, 3.0, 700), [far] * 5,
                              np.linspace(2.0, -2.0, 600), [far, 1.0, far]))
    est = sk.ScdEstimate(
        values=rng.random((3, offsets.size)),
        f_base=np.array([-0.2, 0.0, 0.3]), alpha_base=np.array([0.5, -0.25, 0.0]),
        col_offsets=offsets, f_slope=f_slope, alpha_slope=-0.3,
    )
    ran = []
    scatter_runs = estimate._scatter_runs

    def recording_scatter_runs(grid, est, f_axis, a_axis, starts, *rest):
        ran.append(starts)
        scatter_runs(grid, est, f_axis, a_axis, starts, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_RUN_MIN_MEAN", 1)
        mp.setattr(estimate, "_scatter_runs", recording_scatter_runs)
        grid = sk.scd_to_grid(est, 40, 70)
    assert len(ran) == 1 and 0 < ran[0].size  # some ranges did run by runs
    assert np.array_equal(grid, _grid_by_bins(est, 40, 70))
    assert np.array_equal(grid, _grid_reference(est, 40, 70))


@pytest.mark.parametrize("rows,cols,order", [(64, 1 << 16, "F"), (2, 1 << 22, "C")])
def test_rasterizer_by_runs_allocates_one_block_of_scratch(rows, cols, order):
    # column-major values: a hidden copy to C order would cost values.nbytes
    # (16 MiB), twice the scratch bound; long rows: scratch per column
    # (4M of them) would exceed it too
    k = np.arange(rows) - rows // 2
    values = np.random.default_rng(5).random((rows, cols), dtype=np.float32)
    est = sk.ScdEstimate(
        values=np.asarray(values, order=order), f_base=k / (2.0 * rows),
        alpha_base=k / float(rows), col_offsets=(np.arange(cols) - cols // 2).astype(np.float64),
        f_slope=-0.5 / cols, alpha_slope=1.0 / cols,
    )
    assert est.values.flags.c_contiguous == (order == "C")
    scratch = 16 * estimate._GRID_CHUNK * 8
    assert scratch <= est.values.nbytes // 2
    tracemalloc.start()
    try:
        grid = sk.scd_to_grid(est, 512, 1024)
        grid_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid_peak <= grid.nbytes + scratch
    assert np.array_equal(grid, _grid_by_bins(est, 512, 1024))

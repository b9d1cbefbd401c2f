import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def test_frame_equals_index_gather():
    # the old gather: pad to the last frame's end, then index out[n, p] = x[p*L + n]
    cfg = sk.FamConfig(N=256, Np=32, precision="f32")
    x = _random_series(256, seed=3)
    padded = np.zeros((cfg.P - 1) * cfg.L + cfg.Np, dtype=np.complex64)
    padded[: cfg.N] = x
    ref = padded[np.arange(cfg.Np)[:, None] + cfg.L * np.arange(cfg.P)[None, :]]
    out = sk.frame(x, cfg)
    assert out.dtype == np.complex64 and np.array_equal(out, ref)
    assert out.flags.c_contiguous and out.flags.writeable


def _unfused_demodulate(frames, cfg):
    # demodulate in its unfused pass order: window, then the fft shift and
    # the down-conversion of frame p in their shift-theorem form (sample j
    # times (-1)^(j + r), rolled by the frame's residue r = (p mod 4) L),
    # then an unscaled FFT (execute) down the columns
    cdt = sk._util.complex_dtype(cfg.precision)
    a = sk.make_window(cfg.a_window).astype(sk._util.real_dtype(cfg.precision))
    y = frames.astype(cdt, copy=False) * a[:, None]
    for c in range(4):
        r = c * cfg.L
        cols = y[:, c::4]
        cols[(r + 1) % 2::2] *= -1
        y[:, c::4] = np.roll(cols, r, axis=0)
    return sk.get_plan(cfg.Np).execute(y, axis=0)


@pytest.mark.parametrize("kind", ["chebyshev", "hamming", "rectangular"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("np_ch", [8, 16, 64, 256])
def test_demodulate_equals_unfused_pass_order(np_ch, precision, kind):
    # the shared channelizer runs the FFT forward-scaled and folds Np into
    # the window: bit-identical to the unscaled, explicit roll form
    cfg = sk.FamConfig(N=4 * np_ch, Np=np_ch, precision=precision,
                       a_window=sk.WindowSpec(kind, np_ch))
    frames = sk.frame(sk.normalize(_random_series(cfg.N, seed=np_ch)), cfg)
    out = sk.demodulate(frames, cfg)
    assert out.shape == (cfg.Np, cfg.P) and out.flags.c_contiguous
    assert np.array_equal(out, _unfused_demodulate(frames, cfg))


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


def _all_pairs_fam_scd(xt, cfg):
    # fam_scd before the conjugate mirror: every block transforms all Np
    # pairs and squares all P bins
    cdt = sk._util.complex_dtype(cfg.precision)
    rdt = sk._util.real_dtype(cfg.precision)
    np_, p = cfg.Np, cfg.P
    q4 = p // 4
    xt = xt.astype(cdt, copy=False)
    g = sk.make_window(cfg.g_window).astype(rdt)
    conj_g = np.conj(xt) * g[None, :]
    out = np.empty((np_, np_, p // 2), dtype=rdt)
    for k0, k1 in sk._util.block_ranges(np_, sk.fam._PAIR_CHUNK):
        z = xt[k0:k1, None, :] * conj_g[None, :, :]
        zf = sk.get_plan(p).execute(z, axis=2)
        zabs = zf.real * zf.real + zf.imag * zf.imag
        out[k0:k1, :, :q4] = zabs[:, :, :q4]
        out[k0:k1, :, q4:] = zabs[:, :, 3 * q4:]
    return out


@pytest.mark.parametrize("precision,tol", [("f32", 2e-7), ("f64", 1e-15)])
@pytest.mark.parametrize("g_kind", ["rectangular", "hamming"])
@pytest.mark.parametrize("n,np_ch", [(16, 8), (128, 16), (512, 64), (2048, 256), (512, 256)])
def test_fam_scd_mirror_matches_all_pairs(n, np_ch, g_kind, precision, tol):
    # pairs a block transforms (l >= its k0) are bit-identical to the all-pairs
    # loop; pairs it mirrors (l >= its k1) are the conjugate bins q -> -q mod P
    cfg = sk.FamConfig(N=n, Np=np_ch, precision=precision,
                       g_window=sk.WindowSpec(g_kind, 4 * n // np_ch))
    rng = np.random.default_rng(np_ch + cfg.P)
    xt = rng.standard_normal((np_ch, cfg.P)) + 1j * rng.standard_normal((np_ch, cfg.P))
    est = sk.fam_scd(xt, cfg)
    got = est.values.reshape(np_ch, np_ch, cfg.P // 2)
    ref = _all_pairs_fam_scd(xt, cfg)
    assert got.dtype == ref.dtype
    k = np.arange(np_ch)
    computed = k[None, :] >= (k[:, None] // sk.fam._PAIR_CHUNK) * sk.fam._PAIR_CHUNK
    assert np.array_equal(got[computed], ref[computed])
    if not computed.all():
        assert np.abs(got[~computed] - ref[~computed]).max() <= tol * ref.max()
    hashes = {value_hash(sk.fam_scd(xt, cfg, threads=t).values) for t in (1, 4, 8)}
    assert hashes == {value_hash(est.values)}


def _no_execute(*args, **kwargs):
    raise AssertionError("FftPlan.execute was called")


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("n,np_ch", [(2048, 256), (16, 8)])
def test_fam_scd_folds_p_into_g_without_execute(n, np_ch, precision):
    # the forward-scaled FFT of the pair products times P, with P folded
    # into g, equals the unscaled FFT bit for bit; P = 8 at (16, 8), so the
    # kept and mirrored bin ranges hold one or two bins each
    cfg = sk.FamConfig(N=n, Np=np_ch, precision=precision)
    x = _random_series(n, seed=np_ch)
    xt = sk.demodulate(sk.frame(sk.normalize(x.astype(sk._util.complex_dtype(precision))),
                                cfg), cfg)
    ref = _all_pairs_fam_scd(xt, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sk.fftcore.FftPlan, "execute", _no_execute)
        est = sk.fam_full(x, cfg)
    got = est.values.reshape(np_ch, np_ch, cfg.P // 2)
    k = np.arange(np_ch)
    computed = k[None, :] >= (k[:, None] // sk.fam._PAIR_CHUNK) * sk.fam._PAIR_CHUNK
    assert np.array_equal(got[computed], ref[computed])
    tol = 2e-7 if precision == "f32" else 1e-15
    assert np.abs(got - ref).max() <= tol * ref.max()


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
    # an SSCA-shaped lattice, 64 rows of 2^16 columns, and a column-major
    # FAM pair lattice at (8192, 256), where a hidden copy of the values
    # would cost twice the scratch; the scratch of both functions is
    # bounded by the block size, not by the estimate size
    rows, cols = 64, 1 << 16
    k = np.arange(rows) - rows // 2
    ssca = sk.ScdEstimate(
        values=np.random.default_rng(4).random((rows, cols), dtype=np.float32),
        f_base=k / (2.0 * rows), alpha_base=k / float(rows),
        col_offsets=(np.arange(cols) - cols // 2).astype(np.float64),
        f_slope=-0.5 / cols, alpha_slope=1.0 / cols,
    )
    cfg = sk.FamConfig(N=8192, Np=256)
    rng = np.random.default_rng(6)
    fam = sk.fam_scd(rng.standard_normal((256, cfg.P)) + 1j * rng.standard_normal((256, cfg.P)),
                     cfg)
    fam.values = np.asfortranarray(fam.values)
    scratch = 16 * estimate._GRID_CHUNK * 8
    for est, n_profile in ((ssca, 2 * cols + 1), (fam, 2 * 8192 + 1)):
        assert scratch <= est.values.nbytes // 2  # a block is a fraction of the lattice
        tracemalloc.start()
        try:
            grid = sk.scd_to_grid(est, 512, 1024)
            grid_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            profile = sk.alpha_profile(est, n_profile)
            profile_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert grid_peak <= grid.nbytes + scratch
        assert profile_peak <= profile.alphas.nbytes + profile.values.nbytes + scratch
        assert np.array_equal(grid, _grid_reference(est, 512, 1024))


def _refuse(*args, **kwargs):
    raise AssertionError("the pair lattice took another path")


@st.composite
def _fam_estimates(draw):
    # the FAM envelope: Np in 8..256, N up to 4096, both precisions
    np_ch = draw(st.sampled_from([8, 16, 32, 64, 128, 256]))
    n = draw(st.sampled_from([1 << e for e in range(4, 13) if 1 << e >= 2 * np_ch]))
    cfg = sk.FamConfig(N=n, Np=np_ch, precision=draw(st.sampled_from(["f32", "f64"])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xt = rng.standard_normal((np_ch, cfg.P)) + 1j * rng.standard_normal((np_ch, cfg.P))
    return sk.fam_scd(xt, cfg)


# non-powers of two, 1 (every bin clips to one cell) and the CLI defaults
_GRID_SIZES = st.integers(1, 1500) | st.sampled_from([1, 512, 1024])


@settings(max_examples=40, deadline=None)
@given(_fam_estimates(), _GRID_SIZES, _GRID_SIZES,
       st.none() | st.integers(1, 3000).map(lambda i: 2 * i + 1))
def test_fam_pair_lattice_path_matches_reference(est, n_f, n_alpha, n_profile):
    # FAM's alpha base is a function of k - l and its f base of k + l, so the
    # grid and the profile go through the class tables, never bin by bin
    n_profile = 2 * est.meta["N"] + 1 if n_profile is None else n_profile
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_scatter_bins", _refuse)
        mp.setattr(estimate, "_run_plan", _refuse)
        grid = sk.scd_to_grid(est, n_f, n_alpha)
        profile = sk.alpha_profile(est, n_profile)
    assert np.array_equal(grid, _grid_reference(est, n_f, n_alpha))
    assert np.array_equal(profile.values, _profile_reference(est, n_profile))


@pytest.mark.filterwarnings("ignore:invalid value encountered in maximum:RuntimeWarning")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha_kind,f_kind",
                         [("anti", "diag"), ("diag", "diag"), ("anti", "anti"), ("same", "anti")])
def test_pair_lattice_path_on_toeplitz_and_hankel_bases(dtype, alpha_kind, f_kind):
    # a square lattice FAM does not build: bases that are functions of l - k
    # (Toeplitz), of k + l (Hankel) or constant, reaching past the grid so
    # the indices clip, with ties and a NaN among the values
    r, cols = 5, 7
    rng = np.random.default_rng(31)
    k, l = np.divmod(np.arange(r * r), r)

    def base(kind, reach):
        classes = rng.uniform(-reach, reach, 2 * r - 1)
        return {"diag": classes[l - k + r - 1], "anti": classes[k + l],
                "same": np.full(r * r, classes[0])}[kind]

    values = rng.choice([0.0, 0.5, 1.0, 3.0], size=(r * r, cols)).astype(dtype)
    values[7, 3] = np.nan
    est = sk.ScdEstimate(values=values, f_base=base(f_kind, 0.8),
                         alpha_base=base(alpha_kind, 1.6), col_offsets=rng.uniform(-3, 3, cols),
                         f_slope=0.05, alpha_slope=-0.2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_scatter_bins", _refuse)
        mp.setattr(estimate, "_run_plan", _refuse)
        grid = sk.scd_to_grid(est, 9, 13)
        profile = sk.alpha_profile(est, 11)
    assert np.isnan(grid).sum() == 1 and np.isnan(profile.values).sum() == 1
    assert np.array_equal(grid, _grid_reference(est, 9, 13), equal_nan=True)
    assert np.array_equal(profile.values, _profile_reference(est, 11), equal_nan=True)


def _fam_shaped(r, cols, seed):
    # FAM's layout at any R: alpha is a function of k - l, f of k + l, and
    # the columns are the kept cycle bins q in [0, cols/2) then [-cols/2, 0);
    # channel frequencies on a power-of-two lattice keep both bases exact
    f_k = (np.arange(r) - r // 2) / (1 << (r - 1).bit_length())
    q = cols // 2
    rng = np.random.default_rng(seed)
    return sk.ScdEstimate(
        values=rng.choice([0.0, 0.25, 1.0, 2.0], size=(r * r, cols)).astype(np.float32)
        + rng.random((r * r, cols), dtype=np.float32),
        f_base=((f_k[:, None] + f_k[None, :]) / 2.0).reshape(-1),
        alpha_base=(f_k[:, None] - f_k[None, :]).reshape(-1),
        col_offsets=np.concatenate((np.arange(q), np.arange(q - cols, 0))).astype(np.float64),
        f_slope=0.0, alpha_slope=1.0 / (2 * r * cols),
    )


@pytest.mark.parametrize("r,cols,chunk", [(2, 7, 7), (3, 7, 12), (16, 10, 100), (40, 10, 300)])
def test_fam_pair_grid_by_blocks_of_channels_matches_reference(r, cols, chunk):
    # the chunk cuts the columns into blocks of chunk // (2R - 1) with a
    # narrower last one, and each column block of width w into blocks of
    # chunk // (R w) channels that do not divide R; the grid is applied
    # whole and by row blocks of three channels
    col_block = chunk // (2 * r - 1)
    assert cols % col_block
    widths = [min(col_block, cols - c0) for c0 in range(0, cols, col_block)]
    assert any(r % max(1, chunk // (r * w)) for w in widths) or r == 2
    est = _fam_shaped(r, cols, seed=r)
    ref = _grid_reference(est, 23, 61)
    scatter_plan = estimate._scatter_plan

    def by_row_blocks(shape, col_offsets, axes):
        plan = scatter_plan(shape, col_offsets, axes)

        def apply(grid, values, row0):
            for r0 in range(0, values.shape[0], 3 * r):
                plan(grid, values[r0:r0 + 3 * r], row0 + r0)
        return apply

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_GRID_CHUNK", chunk)
        mp.setattr(estimate, "_scatter_bins", _refuse)
        mp.setattr(estimate, "_run_plan", _refuse)
        whole = sk.scd_to_grid(est, 23, 61)
        mp.setattr(estimate, "_scatter_plan", by_row_blocks)
        blocks = sk.scd_to_grid(est, 23, 61)
    assert np.array_equal(whole, ref)
    assert np.array_equal(blocks, ref)


def test_fam_grid_scatters_once_per_block_of_channels(monkeypatch):
    # at (2048, 256) on 1024 x 512 a block is 16 channels of 256 x 16 bins,
    # so the grid takes 16 scatters of 65536 bins, not 256 of 4096
    cfg = sk.FamConfig(N=2048, Np=256)
    est = sk.fam_full(_random_series(2048, seed=9), cfg)
    ref = _grid_reference(est, 512, 1024)
    sizes = []

    class _Maximum:
        def __call__(self, *args, **kwargs):
            return np.maximum(*args, **kwargs)

        def at(self, a, indices, b):
            sizes.append(indices.size)
            np.maximum.at(a, indices, b)

    class _Numpy:
        maximum = _Maximum()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(estimate, "np", _Numpy())
    grid = sk.fam_to_grid(est, 512, 1024)
    assert sizes == [estimate._GRID_CHUNK] * 16
    assert np.array_equal(grid, ref)


@pytest.mark.parametrize("name", ["alpha_base", "f_base"])
def test_near_miss_pair_lattice_takes_the_generic_path(name):
    # one base 1 ulp off its class breaks the equality check
    cfg = sk.FamConfig(N=256, Np=16, precision="f64")
    rng = np.random.default_rng(8)
    xt = rng.standard_normal((16, cfg.P)) + 1j * rng.standard_normal((16, cfg.P))
    est = sk.fam_scd(xt, cfg)
    nudged = getattr(est, name).copy()
    nudged[37] = np.nextafter(nudged[37], np.inf)
    setattr(est, name, nudged)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_scatter_pairs", _refuse)
        grid = sk.scd_to_grid(est, 300, 700)
        if name == "alpha_base":  # the profile reads only the alpha base
            profile = sk.alpha_profile(est, 2 * cfg.N + 1)
            assert np.array_equal(profile.values, _profile_reference(est, 2 * cfg.N + 1))
    assert np.array_equal(grid, _grid_reference(est, 300, 700))


def test_rasterizer_refuses_an_oversized_grid_before_allocating():
    est = sk.ScdEstimate(values=np.ones((1, 1)), f_base=np.zeros(1), alpha_base=np.zeros(1),
                         col_offsets=np.zeros(1), f_slope=0.0, alpha_slope=0.0)
    tracemalloc.start()
    try:
        with pytest.raises(sk.CapacityError, match="8193 alpha bins x 8192 f bins"):
            sk.scd_to_grid(est, 1 << 13, (1 << 13) + 1)  # one row past 2^26 cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_alpha_profile_refuses_too_many_points_before_allocating():
    est = sk.ScdEstimate(values=np.ones((1, 1)), f_base=np.zeros(1), alpha_base=np.zeros(1),
                         col_offsets=np.zeros(1), f_slope=0.0, alpha_slope=0.0)
    tracemalloc.start()
    try:
        for n in ((1 << 26) + 1, 10**12):
            with pytest.raises(sk.CapacityError, match=f"alpha profile of {n} points"):
                sk.alpha_profile(est, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    # a single range, so rows monotone throughout, in at least two thirds of
    # the draws; the rng fills the long arrays, hypothesis draws the shape
    rows = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(1, 1400), min_size=1,
                            max_size=draw(st.sampled_from([1, 1, 3]))))
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


def _last_column_step():
    # every row keeps one f cell up to its last column, where it moves two
    # cells on an 8-column grid: the bisection must reach column cols - 1
    cols = 100
    return sk.ScdEstimate(
        values=np.linspace(1.0, 2.0, 2 * cols).reshape(2, cols),
        f_base=np.array([-0.1, 0.2]), alpha_base=np.array([0.3, -0.6]),
        col_offsets=np.r_[np.zeros(cols - 1), 1.0], f_slope=0.25, alpha_slope=0.0,
    )


@settings(max_examples=150, deadline=None)
@given(_monotone_lattices(), st.integers(1, 64), st.integers(1, 64), st.integers(2, 300),
       st.sampled_from([0, 1, 8, 64]))
@example(est=_last_column_step(), n_f=8, n_alpha=4, n_profile=9, run_min_mean=1)
def test_rasterizer_by_runs_matches_reference(est, n_f, n_alpha, n_profile, run_min_mean):
    # a low threshold sends most lattices of monotone rows down the runs path;
    # the rest, and every lattice whose rows turn, go bin by bin; the profile
    # rounds to its nearest cell where the grid truncates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_RUN_MIN_MEAN", run_min_mean)
        grid = sk.scd_to_grid(est, n_f, n_alpha)
        profile = sk.alpha_profile(est, n_profile)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_RUN_MIN_MEAN", np.inf)
        profile_by_bins = sk.alpha_profile(est, n_profile)
    assert np.array_equal(grid, _grid_by_bins(est, n_f, n_alpha))
    assert np.array_equal(profile.values, profile_by_bins.values)
    if est.f_base.dtype == np.float64:
        # the references compute float32 bases in float32, the rasterizer in float64
        assert np.array_equal(grid, _grid_reference(est, n_f, n_alpha))
        assert np.array_equal(profile.values, _profile_reference(est, n_profile))


def _ssca_shaped(rows, cols):
    k = np.arange(rows) - rows // 2
    return sk.ScdEstimate(
        values=np.random.default_rng(12).random((rows, cols), dtype=np.float32),
        f_base=k / (2.0 * rows), alpha_base=k / float(rows),
        col_offsets=(np.arange(cols) - cols // 2).astype(np.float64),
        f_slope=-0.5 / cols, alpha_slope=1.0 / cols,
    )


def _fam_pair_lattice():
    cfg = sk.FamConfig(N=1024, Np=32)
    rng = np.random.default_rng(13)
    return sk.fam_scd(rng.standard_normal((32, cfg.P)) + 1j * rng.standard_normal((32, cfg.P)),
                      cfg)


@pytest.mark.parametrize("lattice,rasterize,block,path", [
    # an SSCA grid one channel at a time, a FAM grid three whole channels
    # (96 rows) at a time, and an SSCA profile at 2N + 1 points, five rows
    # at a time
    (lambda: _ssca_shaped(64, 1 << 16), lambda est: sk.scd_to_grid(est, 512, 1024), 1,
     "_scatter_runs"),
    (_fam_pair_lattice, lambda est: sk.scd_to_grid(est, 512, 1024), 96, "_scatter_pairs"),
    (lambda: _ssca_shaped(64, 1 << 16),
     lambda est: sk.alpha_profile(est, 2 * est.values.shape[1] + 1).values, 5, "_scatter_bins"),
])
def test_rasterizer_plan_applied_by_row_blocks_matches_one_apply(lattice, rasterize, block, path):
    # the plan reads the layout alone, so applying it to each row block in
    # turn gives the maxima of one whole apply, bit for bit
    est = lattice()
    scatter_plan, taken = estimate._scatter_plan, []

    def by_blocks(shape, col_offsets, axes):
        plan = scatter_plan(shape, col_offsets, axes)
        taken.append(plan.func.__name__)

        def apply(grid, values, row0):
            for r0 in range(0, values.shape[0], block):
                plan(grid, values[r0:r0 + block], row0 + r0)
        return apply

    whole = rasterize(est)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_scatter_plan", by_blocks)
        blocks = rasterize(est)
    assert taken == [path]
    assert np.array_equal(blocks, whole)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("far", [np.inf, -np.inf, 1e300])
@pytest.mark.parametrize("f_slope", [0.1, 0.0])
def test_rasterizer_by_runs_leaves_unconvertible_ranges_to_bins(far, f_slope):
    # a monotone row whose far end is infinite or past int64 converts to
    # cells non-monotonically (with f_slope 0, an infinite offset makes the f
    # coordinate NaN), and a row that turns is no step function of the
    # column, so both go bin by bin; the same row without its far end runs.
    # The turn sits on a block boundary of the monotone check, so each block
    # of steps is monotone on its own
    rng = np.random.default_rng(9)
    rising = np.linspace(-3.0, 3.0, 700) * np.sign(far)
    rows = {"far": np.r_[rising, far], "turns": np.r_[rising, rising[::-1]], "runs": rising}
    taken = {}
    scatter_runs, scatter_bins = estimate._scatter_runs, estimate._scatter_bins
    for name, offsets in rows.items():
        est = sk.ScdEstimate(
            values=rng.random((3, offsets.size)),
            f_base=np.array([-0.2, 0.0, 0.3]), alpha_base=np.array([0.5, -0.25, 0.0]),
            col_offsets=offsets, f_slope=f_slope, alpha_slope=-0.3,
        )
        paths = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimate, "_RUN_MIN_MEAN", 1)
            mp.setattr(estimate, "_GRID_CHUNK", 100)
            mp.setattr(estimate, "_scatter_runs",
                       lambda *a: paths.append("runs") or scatter_runs(*a))
            mp.setattr(estimate, "_scatter_bins",
                       lambda *a: paths.append("bins") or scatter_bins(*a))
            grid = sk.scd_to_grid(est, 40, 70)
        taken[name] = paths
        assert np.array_equal(grid, _grid_reference(est, 40, 70))
    assert taken == {"far": ["bins"], "turns": ["bins"], "runs": ["runs"]}


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

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
    # demodulate in its unfused pass order: unscaled FFT (execute) down the
    # columns, an index gather for the fft shift, then the phase gathered per
    # frame from a 4-column table (the phase depends on p only through p mod 4)
    cdt = sk._util.complex_dtype(cfg.precision)
    a = sk.make_window(cfg.a_window).astype(sk._util.real_dtype(cfg.precision))
    y = frames.astype(cdt, copy=False) * a[:, None]
    y = sk.get_plan(cfg.Np).execute(y, axis=0)
    y = y[(np.arange(cfg.Np) + cfg.Np // 2) % cfg.Np, :]
    m_signed = np.arange(cfg.Np) - cfg.Np // 2
    table = np.exp((-2j * np.pi / 4.0) * np.outer(m_signed, np.arange(4))).astype(cdt)
    y *= table[:, np.arange(cfg.P) % 4]
    return y


@pytest.mark.parametrize("kind", ["chebyshev", "hamming", "rectangular"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("np_ch", [8, 16, 64, 256])
def test_demodulate_equals_unfused_pass_order(np_ch, precision, kind):
    # the shared channelizer runs the FFT forward-scaled and folds Np into
    # the phase table: bit-identical to the unscaled, gathered form
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
        mp.setattr(estimate, "_run_ranges", _refuse)
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
        mp.setattr(estimate, "_run_ranges", _refuse)
        grid = sk.scd_to_grid(est, 9, 13)
        profile = sk.alpha_profile(est, 11)
    assert np.isnan(grid).sum() == 1 and np.isnan(profile.values).sum() == 1
    assert np.array_equal(grid, _grid_reference(est, 9, 13), equal_nan=True)
    assert np.array_equal(profile.values, _profile_reference(est, 11), equal_nan=True)


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
@given(_monotone_lattices(), st.integers(1, 64), st.integers(1, 64), st.integers(2, 300),
       st.sampled_from([0, 1, 8, 64]))
def test_rasterizer_by_runs_matches_reference(est, n_f, n_alpha, n_profile, run_min_mean):
    # a low threshold sends most ranges down the runs path, the rest bin by bin;
    # the profile rounds to its nearest cell where the grid truncates
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

    def recording_scatter_runs(grid, est, axes, starts, *rest):
        ran.append(starts)
        scatter_runs(grid, est, axes, starts, *rest)

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

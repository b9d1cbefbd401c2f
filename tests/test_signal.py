import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdkit as sk
from scdkit.signal import prepare_input, sliding_frames


def test_dsss_noise_free_is_unit_modulus():
    cfg = sk.DsssBpskConfig(n_samples=2048, processing_gain=31, chip_rate=0.25,
                            snr_db=np.inf, seed=0)
    x = sk.generate_dsss_bpsk(cfg)
    assert x.shape == (2048,)
    assert np.all(np.abs(x) == 1.0)
    assert np.all(x.imag == 0.0)


def test_dsss_measured_snr_within_1db():
    # signal and noise powers measured separately before summing
    noisy = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=2048, snr_db=10.0, seed=7))
    clean = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=2048, snr_db=np.inf, seed=7))
    noise = noisy - clean
    snr = 10.0 * np.log10(np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noise) ** 2))
    assert abs(snr - 10.0) <= 1.0


def test_dsss_bit_deterministic():
    a = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=4096, snr_db=3.0, seed=99))
    b = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=4096, snr_db=3.0, seed=99))
    assert np.array_equal(a, b)
    c = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=4096, snr_db=3.0, seed=100))
    assert not np.array_equal(a, c)


def test_dsss_chip_hold():
    cfg = sk.DsssBpskConfig(n_samples=1024, chip_rate=0.25, snr_db=np.inf, seed=1)
    x = sk.generate_dsss_bpsk(cfg).real
    held = x.reshape(-1, cfg.samples_per_chip)
    assert np.all(held == held[:, :1])


def test_dsss_config_validation():
    with pytest.raises(sk.ConfigurationError):
        sk.DsssBpskConfig(n_samples=2048, chip_rate=0.7)
    with pytest.raises(sk.ConfigurationError):
        sk.DsssBpskConfig(n_samples=2048, processing_gain=0)
    with pytest.raises(sk.ConfigurationError):
        # fewer samples than one full symbol
        sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=64, processing_gain=31,
                                                chip_rate=0.25))


def test_pn_sequence_is_maximal_length():
    pn = sk.pn_sequence(31)
    assert set(np.unique(pn)) == {-1.0, 1.0}
    # m-sequence: balanced to one chip, two-valued cyclic autocorrelation
    assert pn.sum() in (-1.0, 1.0)
    for lag in range(1, 31):
        assert np.sum(pn * np.roll(pn, lag)) == -1.0
    # cycles past one period
    long = sk.pn_sequence(70)
    assert np.array_equal(long[31:62], pn)


def test_normalize_examples():
    out = sk.normalize(np.array([2 + 0j, 0j, 0j]))
    assert np.array_equal(out, np.array([1 + 0j, 0j, 0j]))
    zeros = np.zeros(5, dtype=complex)
    assert np.array_equal(sk.normalize(zeros), zeros)


def test_normalize_peak_is_one_to_machine_precision():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    y = sk.normalize(x)
    assert abs(np.abs(y).max() - 1.0) <= 4 * np.finfo(np.float64).eps


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 200))
def test_normalize_idempotent_exactly(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x *= 10.0 ** rng.integers(-8, 8)
    once = sk.normalize(x)
    twice = sk.normalize(once)
    assert np.array_equal(once, twice)


def test_rectangular_window():
    assert np.array_equal(sk.make_window(sk.WindowSpec("rectangular", 8)), np.ones(8))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 300), st.sampled_from(["chebyshev", "hamming", "rectangular"]))
def test_windows_symmetric_with_unit_peak(length, kind):
    w = sk.make_window(sk.WindowSpec(kind, length, atten_db=80.0))
    assert w.shape == (length,)
    assert np.array_equal(w, w[::-1])
    assert w.max() == 1.0


def _chebyshev_closed_form(length, atten_db):
    # Chebyshev-polynomial frequency response (evaluated by recurrence rather
    # than the hyperbolic closed form) inverted with an explicit DFT sum,
    # linear-phased so the window is centered at (length-1)/2.
    from numpy.polynomial import chebyshev

    order = length - 1
    big_r = 10.0 ** (atten_db / 20.0)
    beta = np.cosh(np.arccosh(big_r) / order)
    coef = np.zeros(order + 1)
    coef[order] = 1.0
    k = np.arange(length)
    response = chebyshev.chebval(beta * np.cos(np.pi * k / length), coef)
    centered = response * np.exp(-1j * np.pi * k * order / length)
    w = np.empty(length)
    for j in range(length):
        w[j] = np.sum(centered * np.exp(2j * np.pi * k * j / length)).real / length
    return w / w.max()


@pytest.mark.parametrize("length,atten", [(64, 100.0), (31, 60.0), (128, 80.0)])
def test_chebyshev_matches_closed_form(length, atten):
    w = sk.make_window(sk.WindowSpec("chebyshev", length, atten))
    ref = _chebyshev_closed_form(length, atten)
    # peak-relative: the window peak is exactly 1
    assert np.max(np.abs(w - ref)) <= 1e-12


def test_window_spec_validation():
    with pytest.raises(sk.ConfigurationError):
        sk.WindowSpec("kaiser", 64)
    with pytest.raises(sk.ConfigurationError):
        sk.WindowSpec("rectangular", 1)
    with pytest.raises(sk.ConfigurationError):
        sk.WindowSpec("chebyshev", 64, atten_db=0.0)
    # non-finite, and past the largest float ripple ratio 10^(atten_db/20)
    for atten in (np.inf, -np.inf, np.nan, 6200.0, 1e4):
        with pytest.raises(sk.ConfigurationError, match="atten_db"):
            sk.WindowSpec("chebyshev", 64, atten_db=atten)


def test_chebyshev_window_must_be_finite():
    # 6000 dB still makes a finite window; at 6160 dB the ratio is finite,
    # but the response overflows
    w = sk.make_window(sk.WindowSpec("chebyshev", 64, atten_db=6000.0))
    assert np.isfinite(w).all() and w.max() == 1.0
    with pytest.raises(sk.ConfigurationError, match="not finite"):
        sk.make_window(sk.WindowSpec("chebyshev", 8, atten_db=6160.0))


def test_iq_roundtrip(tmp_path):
    from scdkit import io as scdio

    rng = np.random.default_rng(3)
    x = (rng.standard_normal(257) + 1j * rng.standard_normal(257)).astype(np.complex64)
    path = tmp_path / "x.iq"
    scdio.write_iq(path, x)
    assert path.stat().st_size == 257 * 8
    back = scdio.read_iq(path)
    assert np.array_equal(back, x)


def test_csv_reader(tmp_path):
    from scdkit import io as scdio

    path = tmp_path / "x.csv"
    path.write_text("i,q\n1.0,2.0\n-0.5,0.25\n")
    x = scdio.read_iq_csv(path)
    assert np.allclose(x, [1 + 2j, -0.5 + 0.25j])
    bare = tmp_path / "bare.csv"
    bare.write_text("1.0,2.0\n3.0,4.0\n")
    assert np.allclose(scdio.read_iq_csv(bare), [1 + 2j, 3 + 4j])


@pytest.mark.parametrize("length,lead,hop,count", [(8, 0, 2, 16), (8, 4, 1, 32), (4, 2, 3, 5)])
def test_sliding_frames_index_the_padded_input(length, lead, hop, count):
    x = np.arange(1, 33, dtype=np.complex64)
    out = sliding_frames(x, length, lead, hop, count)
    assert out.shape == (count, length) and out.dtype == np.complex64
    assert not out.flags.writeable
    for i in range(count):
        for j in range(length):
            n = i * hop - lead + j
            assert out[i, j] == (x[n] if 0 <= n < x.size else 0)


def test_prepare_input_checks_casts_and_normalizes():
    x = np.array([2.0, -4.0j, 1.0 + 1.0j])
    out = prepare_input(x, 3, "f32", normalize_input=True)
    assert out.dtype == np.complex64 and np.abs(out).max() == 1.0
    assert np.array_equal(prepare_input(x, 3, "f64", normalize_input=False), x)
    with pytest.raises(sk.DimensionError):
        prepare_input(x, 4, "f32", True)
    x[1] = np.inf
    with pytest.raises(sk.DataError):
        prepare_input(x, 3, "f64", False)


def test_read_iq_rejects_odd_float_count(tmp_path):
    from scdkit import io as scdio

    bad = tmp_path / "bad.iq"
    bad.write_bytes(b"\x00" * 12)  # three floats: not interleavable
    with pytest.raises(sk.DataError):
        scdio.read_iq(bad)

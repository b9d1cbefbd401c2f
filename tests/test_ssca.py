import numpy as np
import pytest

import scdkit as sk
from scdkit._util import value_hash


def _dsss(n, seed=5, snr=10.0):
    return sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=n, snr_db=snr, seed=seed))


def _cfg(**kw):
    kw.setdefault("N", 4096)
    kw.setdefault("Np", 32)
    kw.setdefault("M1", 64)
    kw.setdefault("M2", 64)
    kw.setdefault("mode", "direct_1d")
    kw.setdefault("precision", "f32")
    return sk.SscaConfig(**kw)


def test_config_validation():
    with pytest.raises(sk.ConfigurationError):
        sk.SscaConfig(N=4096, Np=16)  # channelizer below envelope
    with pytest.raises(sk.ConfigurationError):
        sk.SscaConfig(N=2048, Np=32)  # window below envelope
    with pytest.raises(sk.ConfigurationError):
        sk.SscaConfig(N=4096, Np=64, M1=128, M2=32)  # M2 not divisible by Np
    with pytest.raises(sk.ConfigurationError):
        sk.SscaConfig(N=4096, Np=32, M1=2048, M2=2)  # stage too large
    with pytest.raises(sk.ConfigurationError):
        sk.SscaConfig(N=4096, Np=32, mode="sideways")


def test_default_split_is_valid():
    for n in (1 << 12, 1 << 14, 1 << 17, 1 << 20):
        for np_ch in (32, 64, 256):
            cfg = sk.SscaConfig(N=n, Np=np_ch)
            assert cfg.M1 * cfg.M2 == n
            assert cfg.M2 % np_ch == 0
            assert max(cfg.M1, cfg.M2) <= 1024


def test_cdp_constant_input_interior_rows():
    cfg = _cfg(a_window=sk.WindowSpec("rectangular", 32),
               g_window=sk.WindowSpec("rectangular", 4096), precision="f64")
    out = sk.cdp(np.ones(4096, dtype=np.complex128), cfg)
    center = cfg.Np // 2
    interior = out[cfg.Np // 2: 4096 - cfg.Np // 2]
    assert np.all(interior[:, center] == cfg.Np)
    mask = np.ones(cfg.Np, dtype=bool)
    mask[center] = False
    assert np.all(interior[:, mask] == 0.0)


def test_cdp_zero_input():
    out = sk.cdp(np.zeros(4096, dtype=complex), _cfg(precision="f64"))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("precision,tol", [("f32", 1e-5), ("f64", 1e-12)])
def test_cdp_matches_straight_line_reference(precision, tol):
    cfg = _cfg(precision=precision)
    rng = np.random.default_rng(9)
    x = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)).astype(
        sk._util.complex_dtype(precision)
    )
    out = sk.cdp(x, cfg)
    ref = sk.cdp_reference(x, cfg)
    assert sk.peak_relative_error(out, ref) <= tol


def test_cdp_capacity_guard():
    cfg = _cfg(mem_cap_values=1000)
    with pytest.raises(sk.CapacityError):
        sk.cdp(np.zeros(4096, dtype=complex), cfg)


def test_ssca_direct_zero_input():
    est = sk.ssca_direct(np.zeros(4096, dtype=complex), _cfg())
    assert np.all(est.values == 0.0)
    assert est.values.shape == (32, 4096)


def test_ssca_coordinates_in_band():
    est = sk.ssca_direct(_dsss(4096), _cfg())
    f = est.freqs()
    a = est.alphas()
    assert f.min() >= -0.5 and f.max() <= 0.5
    assert a.min() >= -1.0 and a.max() <= 1.0
    assert np.all(np.isfinite(est.values)) and np.all(est.values >= 0.0)


def test_ssca_coordinate_map_injective():
    est = sk.ssca_direct(_dsss(4096), _cfg())
    pairs = np.stack([est.freqs().ravel(), est.alphas().ravel()], axis=1)
    assert np.unique(pairs, axis=0).shape[0] == est.n_bins


def test_direct_equals_2dfft():
    x = _dsss(4096)
    direct = sk.ssca_direct(x, _cfg())
    two_stage = sk.ssca_2dfft(x, _cfg(mode="decomposed_2d"))
    assert two_stage.same_layout(direct)
    assert sk.peak_relative_error(two_stage.values, direct.values) <= 1e-5


def test_tone_lands_at_alpha_zero():
    # a pure complex tone is stationary: its only SCD ridge sits at alpha = 0
    cfg = _cfg(precision="f64")
    n = np.arange(4096)
    f1 = 10.0 / 32.0 - 0.5  # exactly the channel at row 10
    x = np.exp(2j * np.pi * f1 * n)
    est = sk.ssca_direct(x, cfg)
    r, c = np.unravel_index(np.argmax(est.values), est.values.shape)
    assert est.alphas()[r, c] == 0.0
    assert abs(est.freqs()[r, c] - f1) <= 1.0 / (2 * cfg.Np)


def test_spilled_matches_in_memory_bitwise():
    x = _dsss(4096, seed=3)
    cfg_mem = _cfg(mode="decomposed_2d")
    cfg_spill = _cfg(mode="decomposed_2d", mem_cap_values=1 << 10)
    in_mem = sk.ssca_2dfft(x, cfg_mem)
    spilled = sk.ssca_2dfft(x, cfg_spill)
    assert np.array_equal(in_mem.values, spilled.values)


def test_spill_read_factor_does_not_change_results():
    x = _dsss(4096, seed=6)
    a = sk.ssca_2dfft(x, _cfg(mode="decomposed_2d", mem_cap_values=1, spill_read_factor=1))
    b = sk.ssca_2dfft(x, _cfg(mode="decomposed_2d", mem_cap_values=1, spill_read_factor=16))
    assert np.array_equal(a.values, b.values)


def test_spill_file_cleaned_up(tmp_path):
    cfg = _cfg(mode="decomposed_2d", mem_cap_values=1, spill_dir=str(tmp_path))
    sk.ssca_2dfft(_dsss(4096), cfg)
    assert list(tmp_path.iterdir()) == []


def test_mode_mismatch_raises():
    with pytest.raises(sk.ConfigurationError):
        sk.ssca_direct(np.zeros(4096, dtype=complex), _cfg(mode="decomposed_2d"))
    with pytest.raises(sk.ConfigurationError):
        sk.ssca_2dfft(np.zeros(4096, dtype=complex), _cfg(mode="direct_1d"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("entry,mode", [(sk.cdp, "direct_1d"), (sk.ssca_direct, "direct_1d"),
                                        (sk.ssca_2dfft, "decomposed_2d")])
def test_non_finite_input_rejected(bad, entry, mode):
    x = _dsss(4096)
    x[1000] = bad
    with pytest.raises(sk.DataError, match="non-finite"):
        entry(x, _cfg(mode=mode))


def test_direct_capacity_guard():
    cfg = _cfg(mem_cap_values=1 << 10)
    with pytest.raises(sk.CapacityError):
        sk.ssca_direct(np.zeros(4096, dtype=complex), cfg)


def test_quadratic_scaling_without_normalization():
    cfg = _cfg(precision="f64")
    rng = np.random.default_rng(12)
    x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    base = sk.ssca_direct(x, cfg, normalize_input=False)
    for c in (2.5, 1.5j):
        scaled = sk.ssca_direct(c * x, cfg, normalize_input=False)
        ratio = abs(c) ** 2
        err = np.abs(scaled.values - ratio * base.values) / (ratio * base.values.max())
        assert err.max() <= 1e-5


def test_ssca_threads_bit_identical():
    x = _dsss(4096, seed=20)
    a = sk.ssca_direct(x, _cfg(), threads=1)
    b = sk.ssca_direct(x, _cfg(), threads=4)
    assert value_hash(a.values) == value_hash(b.values)


def test_ssca_full_dispatch():
    x = _dsss(4096)
    d = sk.ssca_full(x, _cfg())
    t = sk.ssca_full(x, _cfg(mode="decomposed_2d"))
    assert d.meta["estimator"] == "ssca_direct"
    assert t.meta["estimator"] == "ssca_2dfft"


def test_ssca_to_grid_pigeonhole():
    est = sk.ssca_direct(_dsss(4096), _cfg())
    grid = sk.ssca_to_grid(est, 64, 128)
    assert grid.shape == (128, 64)
    assert np.count_nonzero(grid) <= est.n_bins
    assert grid.max() == est.values.max()


def test_ssca_2dfft_zero_input():
    est = sk.ssca_2dfft(np.zeros(4096, dtype=complex), _cfg(mode="decomposed_2d"))
    assert np.all(est.values == 0.0)
    assert est.values.shape == (32, 4096)


def test_cdp_reference_agreement_with_shaped_windows():
    cfg = _cfg(precision="f64",
               a_window=sk.WindowSpec("hamming", 32),
               g_window=sk.WindowSpec("hamming", 4096))
    rng = np.random.default_rng(31)
    x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    assert sk.peak_relative_error(sk.cdp(x, cfg), sk.cdp_reference(x, cfg)) <= 1e-12

import ast
from pathlib import Path

import numpy as np
import pytest

import scdkit as sk
from scdkit import oracle


def test_dft_naive_impulse_and_constant():
    x = np.zeros(32, dtype=complex)
    x[0] = 1.0
    assert np.allclose(sk.dft_naive(x), np.ones(32), atol=1e-13)
    out = sk.dft_naive(np.ones(32, dtype=complex))
    expected = np.zeros(32, dtype=complex)
    expected[0] = 32
    assert np.allclose(out, expected, atol=1e-11)


def test_dft_naive_linearity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    y = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    lhs = sk.dft_naive(2.0 * x - 1j * y)
    rhs = 2.0 * sk.dft_naive(x) - 1j * sk.dft_naive(y)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_dft_naive_cost_guard():
    with pytest.raises(sk.CapacityError):
        sk.dft_naive(np.zeros(8193, dtype=complex))


def test_scd_timesmoothed_zero_input():
    out = sk.scd_timesmoothed(np.zeros(256, dtype=complex), 0.1, 0.05, 32,
                              sk.WindowSpec("rectangular", 256))
    assert out == 0.0


def test_scd_timesmoothed_out_of_band():
    with pytest.raises(sk.DomainError):
        sk.scd_timesmoothed(np.zeros(256, dtype=complex), 0.4, 0.5, 32,
                            sk.WindowSpec("rectangular", 256))


def test_scd_timesmoothed_sinusoid_closed_form():
    # tone at the analysis frequency, alpha = 0: S ~ sum(g) * sum(a)^2 up to
    # the window tails running past the record
    n, np_w = 4096, 64
    f1 = 5.0 / 64.0
    x = np.exp(2j * np.pi * f1 * np.arange(n))
    g_spec = sk.WindowSpec("rectangular", n)
    a_spec = sk.WindowSpec("hamming", np_w)
    out = sk.scd_timesmoothed(x, f1, 0.0, np_w, g_spec, a_spec)
    a_sum = sk.make_window(a_spec).sum()
    expected = n * a_sum ** 2
    assert out.imag == pytest.approx(0.0, abs=1e-6 * abs(out))
    assert out.real > 0
    assert abs(out.real - expected) <= 2.0 * (np_w / n) * expected


# (k, l, q) bins probed against the independent time-smoothed reference:
# two points on the stationary ridge and two on the chip-rate feature.
_FAM_ORACLE_BINS = [(17, 17, 0), (12, 12, 0), (20, 12, 0), (22, 14, 0)]


@pytest.mark.parametrize("k,l,q", _FAM_ORACLE_BINS)
def test_scd_timesmoothed_agrees_with_fam_bin(k, l, q):
    cfg = sk.FamConfig(N=512, Np=32, precision="f64",
                       g_window=sk.WindowSpec("rectangular", 64))
    x = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=512, snr_db=20.0, seed=11))
    xt = sk.demodulate(sk.frame(x, cfg), cfg)
    z = xt[k] * np.conj(xt[l])
    fam_bin = np.sum(z * np.exp(-2j * np.pi * np.arange(cfg.P) * q / cfg.P))
    f_k = (k - cfg.Np // 2) / cfg.Np
    f_l = (l - cfg.Np // 2) / cfg.Np
    f0 = (f_k + f_l) / 2.0
    alpha0 = (f_k - f_l) + q / cfg.N
    ref = sk.scd_timesmoothed(x, f0, alpha0, cfg.Np,
                              sk.WindowSpec("rectangular", cfg.N), cfg.a_window)
    # matched per-sample averages: the reference smooths over N samples, the
    # frame-based bin over P frames
    assert abs(ref / cfg.N - fam_bin / cfg.P) <= 0.05 * abs(fam_bin / cfg.P)


def test_relative_error_identity_and_doubling():
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.5, 1.0, size=(16, 16))
    stats = sk.error_stats(vals, vals)
    assert stats.mean_rel == 0.0 and stats.max_rel == 0.0 and stats.mean_abs == 0.0
    assert stats.n_bins == 256
    doubled = sk.error_stats(2.0 * vals, vals)
    assert doubled.mean_rel == pytest.approx(1.0, rel=1e-12)


def test_relative_error_perturbation_bound():
    rng = np.random.default_rng(4)
    ref = rng.uniform(0.0, 1.0, size=1000)
    eps = 1e-9
    test = ref + eps * ref.max()
    stats = sk.error_stats(test, ref)
    assert stats.mean_rel <= eps / 1e-6 + 1e-12


def test_relative_error_layout_check():
    est = sk.fam_full(np.ones(128, dtype=complex),
                      sk.FamConfig(N=128, Np=16, precision="f64"))
    other = sk.fam_full(np.ones(256, dtype=complex),
                        sk.FamConfig(N=256, Np=16, precision="f64"))
    with pytest.raises(sk.DimensionError):
        sk.relative_error(est, other)


def test_peak_relative_error_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert sk.peak_relative_error(a, a) == 0.0
    assert sk.peak_relative_error(a + 0.03, a) == pytest.approx(0.01)
    assert sk.peak_relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert np.isinf(sk.peak_relative_error(np.ones(3), np.zeros(3)))


@pytest.mark.parametrize("where", ["test", "reference"])
@pytest.mark.parametrize("count", ["one", "all"])
def test_comparison_metrics_propagate_nan(where, count):
    # a NaN must fail every `<= tol` check, not vanish into a max with 0.0
    ref = np.linspace(1.0, 2.0, 10)
    bad = ref.copy()
    if count == "one":
        bad[4] = np.nan
    else:
        bad[:] = np.nan
    t, r = (bad, ref) if where == "test" else (ref, bad)
    assert np.isnan(sk.peak_relative_error(t, r))
    stats = sk.error_stats(t, r)
    assert np.isnan(stats.max_rel) and np.isnan(stats.mean_rel)
    assert np.isnan(sk.peak_relative_error(np.full(3, np.nan), np.zeros(3)))


def test_oracle_never_touches_the_estimators_fft():
    # the references must stay a structurally different path from the
    # estimators: no numpy.fft and nothing from scdkit.fftcore
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            assert not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.ImportFrom):
            assert "fft" not in (node.module or "")  # numpy.fft, .fftcore
            assert not any(a.name in ("fft", "fftcore") for a in node.names)
        elif isinstance(node, ast.Import):
            assert not any("fft" in a.name for a in node.names)


def _point_estimate(alpha, value):
    return sk.ScdEstimate(
        values=np.array([[value]]),
        f_base=np.array([0.0]),
        alpha_base=np.array([alpha]),
        col_offsets=np.array([0.0]),
        f_slope=0.0,
        alpha_slope=0.0,
    )


def test_alpha_profile_single_bin():
    prof = sk.alpha_profile(_point_estimate(0.3, 7.0), 201)
    assert np.count_nonzero(prof.values) == 1
    assert prof.values.max() == 7.0
    assert prof.alphas[np.argmax(prof.values)] == pytest.approx(0.3)


def test_alpha_profile_zero_and_max():
    cfg = sk.FamConfig(N=128, Np=16, precision="f64")
    zero = sk.fam_scd(np.zeros((16, 32), dtype=complex), cfg)
    assert np.all(sk.alpha_profile(zero, 101).values == 0.0)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    est = sk.fam_full(x, cfg)
    prof = sk.alpha_profile(est, 257)
    assert prof.values.max() == est.values.max()
    assert np.all(np.diff(prof.alphas) > 0)


def test_detect_single_spike():
    values = np.zeros(201)
    alphas = np.linspace(-1, 1, 201)
    idx = int(np.argmin(np.abs(alphas - 0.3)))
    values[idx] = 5.0
    prof = sk.AlphaProfile(alphas=alphas, values=values)
    assert sk.detect_cycle_frequencies(prof, 0.5) == [pytest.approx(0.3)]


def test_detect_flat_profile_empty():
    prof = sk.AlphaProfile(alphas=np.linspace(-1, 1, 101), values=np.ones(101))
    assert sk.detect_cycle_frequencies(prof, 0.2) == []


def test_detect_excludes_stationary_ridge():
    alphas = np.linspace(-1, 1, 2001)
    values = np.zeros(2001)
    values[1000] = 100.0  # alpha = 0
    idx = int(np.argmin(np.abs(alphas - 0.25)))
    values[idx] = 10.0
    prof = sk.AlphaProfile(alphas=alphas, values=values)
    det = sk.detect_cycle_frequencies(prof, 0.5)
    assert det == [pytest.approx(0.25)]


def test_detect_threshold_validation():
    prof = sk.AlphaProfile(alphas=np.linspace(-1, 1, 11), values=np.zeros(11))
    with pytest.raises(sk.ConfigurationError):
        sk.detect_cycle_frequencies(prof, 1.5)

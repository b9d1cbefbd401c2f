import errno
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdkit as sk
from scdkit import estimate, ssca
from scdkit._util import value_hash
from scdkit.fftcore import shift_indices


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


def _cdp_rows_gathered(kernel, n_idx):
    # the explicit form: gather every window element by index, then window,
    # transform, shift, down-convert by residue and scale, row by row
    np_ch = kernel.cfg.Np
    fr = kernel.xpad[n_idx[:, None] + np.arange(np_ch)[None, :]]
    fr *= kernel.window[None, :]
    spec = kernel.plan.execute(fr, axis=1)
    spec = spec[:, shift_indices(np_ch)]
    spec *= kernel.phase_by_residue[n_idx % np_ch]
    spec *= kernel.scale[n_idx][:, None]
    return spec


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("n,np_ch,m1", [(4096, 32, 4), (4096, 32, 64), (8192, 64, 8)])
def test_cdp_rows_equal_gathered_rows(precision, n, np_ch, m1):
    cfg = sk.SscaConfig(N=n, Np=np_ch, M1=m1, precision=precision,
                        g_window=sk.WindowSpec("hamming", n))
    rng = np.random.default_rng(n + m1)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    kernel = ssca._CdpKernel(ssca._prepare_input(x, cfg, True), cfg)
    m2 = cfg.M2
    # consecutive row blocks, as _cdp_matrix takes them (last block partial)
    for r0, r1 in [(0, 1000), (1000, n - 7), (n - 7, n)]:
        got = kernel.rows(r0, r1, n)
        assert got.shape == (r1 - r0, 1, np_ch)
        assert np.array_equal(got[:, 0], _cdp_rows_gathered(kernel, np.arange(r0, r1)))
    # single stage-1 columns and batches of columns: rows c + m*M2
    for c0, c1 in [(0, 1), (m2 - 1, m2), (3, 4), (0, m2 // 2), (5, m2)]:
        n_idx = np.arange(c0, c1)[:, None] + np.arange(m1)[None, :] * m2
        ref = _cdp_rows_gathered(kernel, n_idx.ravel()).reshape(c1 - c0, m1, np_ch)
        assert np.array_equal(kernel.rows(c0, c1, m2), ref)


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


@st.composite
def _envelope(draw):
    log_n = draw(st.integers(12, 16))
    log_np = draw(st.integers(5, 8))
    # M2 % Np == 0 and M1, M2 <= 1024
    log_m2 = draw(st.integers(max(log_np, log_n - 10), 10))
    m1 = 1 << (log_n - log_m2)
    return 1 << log_n, 1 << log_np, m1, draw(st.integers(1, m1)), draw(st.integers(0, 1 << 16))


@settings(max_examples=6, deadline=None)
@given(_envelope())
def test_streamed_envelope_properties(point):
    n, np_ch, m1, read_factor, seed = point
    x = _dsss(n, seed=seed)
    cfg = sk.SscaConfig(N=n, Np=np_ch, M1=m1, mode="decomposed_2d", precision="f32")
    in_memory = sk.ssca_2dfft(x, cfg)
    spilled = sk.ssca_2dfft(x, replace(cfg, mem_cap_values=1, spill_read_factor=read_factor))
    assert np.array_equal(in_memory.values, spilled.values)
    direct = sk.ssca_direct(x, cfg.with_mode("direct_1d"))
    assert sk.peak_relative_error(in_memory.values, direct.values) <= 1e-5


def test_in_memory_store_never_touches_disk(monkeypatch):
    def no_files(*args, **kwargs):
        raise AssertionError("in-memory stage 1 created a spill file")

    monkeypatch.setattr("scdkit.ssca.tempfile.mkstemp", no_files)
    est = sk.ssca_2dfft(_dsss(4096), _cfg(mode="decomposed_2d"))
    assert np.all(np.isfinite(est.values))


def test_spill_disk_too_small_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=1000))
    cfg = _cfg(mode="decomposed_2d", mem_cap_values=1, spill_dir=str(tmp_path))
    need = 4096 * 32 * 8
    with pytest.raises(sk.CapacityError, match=f"{tmp_path}.* 1000 bytes free.* {need} bytes"):
        sk.ssca_2dfft(_dsss(4096), cfg)
    assert list(tmp_path.iterdir()) == []


def test_missing_spill_dir_raises(tmp_path):
    missing = tmp_path / "gone"
    cfg = _cfg(mode="decomposed_2d", mem_cap_values=1, spill_dir=str(missing))
    with pytest.raises(sk.CapacityError, match=str(missing)):
        sk.ssca_2dfft(_dsss(4096), cfg)


def test_spill_file_os_error_names_file(tmp_path, monkeypatch):
    # 4096/32/M1=64 writes stage 1 in four strips: the disk fills on the second
    real_pwrite, calls = os.pwrite, []

    def fill_disk(fd, data, offset):
        calls.append(offset)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", fill_disk)
    cfg = _cfg(mode="decomposed_2d", mem_cap_values=1, spill_dir=str(tmp_path))
    with pytest.raises(sk.CapacityError, match=rf"spill file {tmp_path}.*\.stage1.*No space"):
        sk.ssca_2dfft(_dsss(4096), cfg)
    assert list(tmp_path.iterdir()) == []


def test_short_spill_writes_resume(tmp_path, monkeypatch):
    x = _dsss(4096, seed=8)
    expected = sk.ssca_2dfft(x, _cfg(mode="decomposed_2d")).values
    real_pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: real_pwrite(fd, data[:1000], offset))
    cfg = _cfg(mode="decomposed_2d", mem_cap_values=1, spill_dir=str(tmp_path))
    assert np.array_equal(sk.ssca_2dfft(x, cfg).values, expected)


def test_stalled_spill_io_raises(tmp_path, monkeypatch):
    cfg = _cfg(mode="decomposed_2d", mem_cap_values=1, spill_dir=str(tmp_path))
    real_pwrite, real_preadv = os.pwrite, os.preadv
    # a write that makes no progress is an error, not an endless loop
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: 0)
    with pytest.raises(sk.CapacityError, match=rf"spill file {tmp_path}.*no progress"):
        sk.ssca_2dfft(_dsss(4096), cfg)
    monkeypatch.setattr(os, "pwrite", real_pwrite)
    # a short read would leave stale values in the reused stage-2 buffer
    monkeypatch.setattr(os, "preadv", lambda fd, bufs, offset: real_preadv(fd, bufs, offset) - 8)
    with pytest.raises(sk.CapacityError, match=rf"spill file {tmp_path}.*\.stage1: read"):
        sk.ssca_2dfft(_dsss(4096), cfg)
    assert list(tmp_path.iterdir()) == []


def test_spill_bounds_resident_memory(tmp_path):
    # Past mem_cap_values the spill file must stay out of resident memory:
    # a 2^18/64 op may raise the peak RSS by its values array and at most a
    # quarter of the spilled bytes (a mapped file would add all of them).
    code = f"""
import resource, sys
import scdkit as sk
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (1 if sys.platform == "darwin" else 1024)
def run(n, np_ch):
    x = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=n, snr_db=10.0, seed=4))
    cfg = sk.SscaConfig(N=n, Np=np_ch, mem_cap_values=1, spill_dir={str(tmp_path)!r})
    before = peak()
    est = sk.ssca_2dfft(x, cfg)
    return peak() - before, est.values.nbytes
run(4096, 32)
print(*run(1 << 18, 64))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sk.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    growth, values_bytes = map(int, out.split())
    spill_bytes = (1 << 18) * 64 * 8
    assert growth <= values_bytes + spill_bytes // 4, (growth, values_bytes)
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


def test_stage1_store_recorded_in_meta(tmp_path):
    x = _dsss(4096)
    t = sk.ssca_full(x, _cfg(mode="decomposed_2d"))
    s = sk.ssca_full(x, _cfg(mode="decomposed_2d", mem_cap_values=1, spill_dir=str(tmp_path)))
    assert (t.meta["stage1_store"], t.meta["spill_bytes"]) == ("array", 0)
    assert (s.meta["stage1_store"], s.meta["spill_bytes"]) == ("file", 4096 * 32 * 8)
    assert value_hash(t.values) == value_hash(s.values)


def test_ssca_to_grid_pigeonhole():
    est = sk.ssca_direct(_dsss(4096), _cfg())
    grid = sk.ssca_to_grid(est, 64, 128)
    assert grid.shape == (128, 64)
    assert np.count_nonzero(grid) <= est.n_bins
    assert grid.max() == est.values.max()


@pytest.mark.parametrize("n,np_ch,m1", [(4096, 32, 4), (1 << 16, 64, 256)])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_ssca_grid_by_runs_is_bit_identical(n, np_ch, m1, precision):
    # the SSCA strips are one monotone range each: the default threshold,
    # runs everywhere (0) and bins everywhere (inf) give the same bytes
    est = sk.ssca_2dfft(_dsss(n), _cfg(N=n, Np=np_ch, M1=m1, M2=n // m1,
                                       mode="decomposed_2d", precision=precision))
    for n_f, n_alpha in ((512, 1024), (32, 64)):
        hashes = set()
        for run_min_mean in (estimate._RUN_MIN_MEAN, 0, np.inf):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimate, "_RUN_MIN_MEAN", run_min_mean)
                hashes.add(value_hash(sk.ssca_to_grid(est, n_f, n_alpha)))
        assert len(hashes) == 1


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

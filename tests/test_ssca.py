import errno
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdkit as sk
from scdkit import estimate, ssca
from scdkit._util import block_ranges, complex_dtype, real_dtype, value_hash
from scdkit.fftcore import rotation_factors
from scdkit.signal import prepare_input


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


@pytest.mark.parametrize("m1,m2", [(0, None), (None, 0), (-4, None)])
def test_config_rejects_a_split_below_one(m1, m2):
    # N // 0 must not escape as ZeroDivisionError; plan_ssca validates the same way
    with pytest.raises(sk.ConfigurationError):
        sk.SscaConfig(N=4096, Np=32, M1=m1, M2=m2)
    if m2 is None:
        with pytest.raises(sk.ConfigurationError):
            sk.plan_ssca(4096, 32, m1)


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


def _cdp_rows_gathered(kernel, x, n_idx):
    # the explicit form: gather every window element by index from a padded
    # copy of x, then window, shift and down-convert in the shift-theorem
    # form (sample j times (-1)^(j + r), rolled by the row's residue
    # r = n mod Np), transform unscaled and scale, row by row
    np_ch = kernel.cfg.Np
    xpad = np.zeros(x.size + np_ch, dtype=x.dtype)
    xpad[np_ch // 2: np_ch // 2 + x.size] = x
    fr = xpad[n_idx[:, None] + np.arange(np_ch)[None, :]]
    fr *= kernel.window[None, :]
    for r in range(np_ch):
        rows = n_idx % np_ch == r
        sel = fr[rows]
        sel[:, (r + 1) % 2::2] *= -1
        fr[rows] = np.roll(sel, r, axis=1)
    spec = sk.get_plan(np_ch).execute(fr, axis=1)
    spec *= kernel.scale[n_idx][:, None]
    return spec


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("n,np_ch,m1", [(4096, 32, 4), (4096, 32, 64), (8192, 64, 8)])
def test_cdp_rows_equal_gathered_rows(precision, n, np_ch, m1):
    cfg = sk.SscaConfig(N=n, Np=np_ch, M1=m1, precision=precision,
                        g_window=sk.WindowSpec("hamming", n))
    rng = np.random.default_rng(n + m1)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = prepare_input(x, n, precision, True)
    kernel = ssca._CdpKernel(x, cfg)
    m2 = cfg.M2
    # consecutive row blocks, as _cdp_matrix takes them (last block partial)
    for r0, r1 in [(0, 1000), (1000, n - 7), (n - 7, n)]:
        got = kernel.rows(r0, r1, n)
        assert got.shape == (r1 - r0, 1, np_ch)
        assert np.array_equal(got[:, 0], _cdp_rows_gathered(kernel, x, np.arange(r0, r1)))
    # single stage-1 columns and batches of columns: rows c + m*M2
    for c0, c1 in [(0, 1), (m2 - 1, m2), (3, 4), (0, m2 // 2), (5, m2)]:
        n_idx = np.arange(c0, c1)[:, None] + np.arange(m1)[None, :] * m2
        ref = _cdp_rows_gathered(kernel, x, n_idx.ravel()).reshape(c1 - c0, m1, np_ch)
        assert np.array_equal(kernel.rows(c0, c1, m2), ref)


def _unfused_2dfft_values(x, cfg):
    # the decomposed back end in its unfused pass order: every FFT unscaled
    # (execute), the shift and down-conversion of column c in their
    # shift-theorem form (sample j times (-1)^(j + r), rolled by r = c mod Np),
    # the plain rotation factors, stage 1 in column strips into an
    # (Np, M2, M1) array, stage 2 one channel at a time
    kernel = ssca._CdpKernel(prepare_input(x, cfg.N, cfg.precision, True), cfg)
    n, np_ch, m1, m2 = cfg.N, cfg.Np, cfg.M1, cfg.M2
    cdt = complex_dtype(cfg.precision)
    windows = kernel.windows.reshape(m1, m2, np_ch)
    scale = kernel.scale.reshape(m1, m2)
    stage1 = np.empty((np_ch, m2, m1), dtype=cdt)
    for c0, c1 in block_ranges(m2, max(1, (1 << 15) // (m1 * np_ch))):
        cols = np.arange(c0, c1)
        fr = np.multiply(windows[:, c0:c1].transpose(1, 0, 2), kernel.window, order="C")
        for i, c in enumerate(cols):
            r = c % np_ch
            fr[i, :, (r + 1) % 2::2] *= -1
            fr[i] = np.roll(fr[i], r, axis=-1)
        rows = sk.get_plan(np_ch).execute(fr, axis=2)
        rows *= scale[:, c0:c1].T[:, :, None]
        s1 = sk.get_plan(m1).execute(rows, axis=1)
        s1 *= rotation_factors(m1, cols, n, cdt).T[:, :, None]
        stage1[:, c0:c1] = s1.transpose(2, 0, 1)
    values = np.empty((np_ch, m2, m1), dtype=real_dtype(cfg.precision))
    for k in range(np_ch):
        s2 = sk.get_plan(m2).execute(stage1[k], axis=0)
        np.abs(s2[:m2 // 2], out=values[k, m2 // 2:])
        np.abs(s2[m2 // 2:], out=values[k, :m2 // 2])
    return values.reshape(np_ch, n)


@pytest.mark.parametrize("spilled", [False, True], ids=["array", "file"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("n,np_ch,m1", [(4096, 32, 4), (4096, 32, 64), (8192, 64, 8),
                                        (1 << 14, 32, 16), (1 << 16, 64, 256)])
def test_rescale_folds_are_exact(tmp_path, n, np_ch, m1, precision, spilled):
    # the FFTs run forward-scaled and their sizes ride in the channelizer's
    # window and the rotation table: the values must equal the unfused pass
    # order bit for bit
    x = _dsss(n, seed=n + m1)
    cfg = sk.SscaConfig(N=n, Np=np_ch, M1=m1, mode="decomposed_2d", precision=precision,
                        mem_cap_values=1 if spilled else 1 << 24, spill_dir=str(tmp_path))
    est = sk.ssca_2dfft(x, cfg)
    assert est.meta["stage1_store"] == ("file" if spilled else "array")
    assert np.array_equal(est.values, _unfused_2dfft_values(x, cfg))


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


def test_spill_strip_size_does_not_change_results(monkeypatch):
    # one column per stage-1 strip, against the default
    x = _dsss(4096, seed=6)
    cfg = _cfg(mode="decomposed_2d", mem_cap_values=1)
    monkeypatch.setattr(ssca, "_STRIP_ELEMS", 1)
    a = sk.ssca_2dfft(x, cfg)
    monkeypatch.setattr(ssca, "_STRIP_ELEMS", 1 << 15)
    b = sk.ssca_2dfft(x, cfg)
    assert np.array_equal(a.values, b.values)


def test_spill_reads_each_channel_once(monkeypatch):
    real_preadv, calls = os.preadv, []

    def counting_preadv(fd, bufs, offset):
        calls.append(len(bufs))
        return real_preadv(fd, bufs, offset)

    monkeypatch.setattr(os, "preadv", counting_preadv)
    sk.ssca_2dfft(_dsss(4096), _cfg(mode="decomposed_2d", mem_cap_values=1))
    assert calls == [64] * 32  # Np reads of M2 rows each


def test_spill_writes_one_run_per_channel_per_group(monkeypatch):
    # 4096/32/M1=64 stages all 64 columns in one channel-major group:
    # one write of the whole channel per channel
    real_pwrite, sizes = os.pwrite, []

    def counting_pwrite(fd, data, offset):
        sizes.append(len(data))
        return real_pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", counting_pwrite)
    sk.ssca_2dfft(_dsss(4096), _cfg(mode="decomposed_2d", mem_cap_values=1))
    assert sizes == [64 * 64 * 8] * 32  # Np writes of M2 * M1 complex64 values


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
    strip_elems = draw(st.integers(1, 1 << 16))
    return 1 << log_n, 1 << log_np, m1, strip_elems, draw(st.integers(0, 1 << 16))


@settings(max_examples=6, deadline=None)
@given(_envelope())
def test_streamed_envelope_properties(point):
    n, np_ch, m1, strip_elems, seed = point
    x = _dsss(n, seed=seed)
    cfg = sk.SscaConfig(N=n, Np=np_ch, M1=m1, mode="decomposed_2d", precision="f32")
    in_memory = sk.ssca_2dfft(x, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ssca, "_STRIP_ELEMS", strip_elems)
        spilled = sk.ssca_2dfft(x, replace(cfg, mem_cap_values=1))
    assert np.array_equal(in_memory.values, spilled.values)
    assert np.array_equal(in_memory.values, _unfused_2dfft_values(x, cfg))
    direct = sk.ssca_direct(x, replace(cfg, mode="direct_1d"))
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
    # 4096/32/M1=64 writes stage 1 in one column group of one run per
    # channel: the disk fills on the second channel's run
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


@pytest.mark.parametrize("np_ch", [32, 64])
def test_ssca_direct_thread_split_is_bit_identical(np_ch):
    # the channels split into max(1, threads) contiguous blocks: 3 does not
    # divide 32, 8 gives blocks of 4 or 8, and threads=0 runs serially
    x = _dsss(4096, seed=21)
    cfg = _cfg(Np=np_ch, M1=32, M2=128)
    hashes = {t: value_hash(sk.ssca_direct(x, cfg, threads=t).values) for t in (0, 1, 2, 3, 8)}
    assert len(set(hashes.values())) == 1, hashes


@pytest.mark.parametrize("n,np_ch,precision", [(4096, 32, "f64"), (16384, 64, "f32")])
def test_ssca_direct_peak_is_cdp_values_and_one_row_block(n, np_ch, precision):
    # the channel-major CDP is transformed where it lies: no column copy and
    # no second spectrum array beside it
    cfg = _cfg(N=n, Np=np_ch, M1=None, M2=None, precision=precision)
    x = _dsss(n, seed=4)
    sk.ssca_direct(x, cfg)  # plans and windows built outside the measurement
    tracemalloc.start()
    try:
        sk.ssca_direct(x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    complex_bytes = np.dtype(complex_dtype(precision)).itemsize
    cdp_bytes = n * np_ch * complex_bytes
    values_bytes = n * np_ch * np.dtype(real_dtype(precision)).itemsize
    row_block_bytes = min(n, ssca._CDP_BLOCK_ELEMS // np_ch) * np_ch * complex_bytes
    assert peak <= cdp_bytes + values_bytes + row_block_bytes + (1 << 20), peak


@pytest.mark.parametrize("precision,digest", [
    ("f32", "cb4df4ba91db807b913adad55a02ce2c49df10f90f58b7f56ccc9b24f1215cfd"),
    ("f64", "03f977b1d4818e02b1fccc046180e5550942dcd785606029ee45808ed21f1469"),
])
def test_cdp_is_a_transposed_view_of_unchanged_values(precision, digest):
    # digests pinned when cdp() built its rows row-major; small integer
    # samples and a rectangular window keep every step exact but the FFT
    rng = np.random.default_rng(31)
    x = rng.integers(-8, 9, 4096) + 1j * rng.integers(-8, 9, 4096)
    out = sk.cdp(x, _cfg(precision=precision, a_window=sk.WindowSpec("rectangular", 32)))
    # a transposed view: each channel's values lie contiguous
    assert out.shape == (4096, 32) and out.strides[0] == out.itemsize
    assert value_hash(np.ascontiguousarray(out)) == digest


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


@pytest.mark.parametrize("n", [1 << 16, 1 << 18, 1 << 20])
@pytest.mark.parametrize("np_ch", [32, 64, 256])
def test_ssca_grid_takes_the_runs_path(n, np_ch):
    # every SSCA row is monotone with long runs on the CLI's 1024 x 512 grid,
    # so the grid is never scattered bin by bin; zero-stride values keep the
    # lattice free, and the runs are only recorded, not scattered
    values = np.broadcast_to(np.float32(1.0), (np_ch, n))
    est = ssca._estimate_from_values(values, sk.SscaConfig(N=n, Np=np_ch), "ssca_2dfft")
    taken = []

    def refuse(*args):
        raise AssertionError("an SSCA lattice was scattered bin by bin")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_scatter_bins", refuse)
        mp.setattr(estimate, "_scatter_runs", lambda *plan_and_block: taken.append(plan_and_block))
        sk.ssca_to_grid(est, 512, 1024)
    assert len(taken) == 1


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

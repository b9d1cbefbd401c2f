import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdkit as sk
from scdkit.fftcore import channelize

SIZES = [8, 16, 64, 256, 1024, 4096]


@pytest.mark.parametrize("size", SIZES)
def test_impulse_transforms_to_ones(size):
    x = np.zeros(size, dtype=np.complex128)
    x[0] = 1.0
    out = sk.fft(sk.get_plan(size), x)
    assert np.allclose(out, np.ones(size), atol=1e-12)


@pytest.mark.parametrize("size", SIZES)
def test_constant_transforms_to_impulse(size):
    out = sk.fft(sk.get_plan(size), np.ones(size, dtype=np.complex128))
    expected = np.zeros(size, dtype=np.complex128)
    expected[0] = size
    assert np.array_equal(out, expected)


def test_fft_matches_naive_dft():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    ref = sk.dft_naive(x)
    single = sk.fft(sk.get_plan(256), x.astype(np.complex64))
    double = sk.fft(sk.get_plan(256), x)
    assert sk.peak_relative_error(single, ref) <= 1e-5
    assert sk.peak_relative_error(double, ref) <= 1e-10


def test_plan_validation():
    with pytest.raises(sk.ConfigurationError):
        sk.FftPlan(12)
    with pytest.raises(sk.ConfigurationError):
        sk.FftPlan(1 << 21)
    with pytest.raises(sk.DimensionError):
        sk.fft(sk.get_plan(16), np.zeros(8, dtype=complex))


@pytest.mark.parametrize("dtype_in,dtype_out", [
    (np.complex64, np.complex64),
    (np.complex128, np.complex128),
    (np.float32, np.complex128),
])
def test_execute_output_dtype(dtype_in, dtype_out):
    out = sk.get_plan(32).execute(np.ones((3, 32), dtype=dtype_in), axis=1)
    assert out.dtype == dtype_out


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_execute_every_axis_matches_naive_dft(axis):
    rng = np.random.default_rng(17)
    shape = (16, 8, 32)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n = shape[axis]
    plan = sk.get_plan(n)
    rows = np.moveaxis(x, axis, -1).reshape(-1, n)
    single = np.moveaxis(plan.execute(x.astype(np.complex64), axis=axis), axis, -1).reshape(-1, n)
    double = np.moveaxis(plan.execute(x, axis=axis), axis, -1).reshape(-1, n)
    for i, row in enumerate(rows):
        ref = sk.dft_naive(row)
        assert sk.peak_relative_error(single[i], ref) <= 1e-5
        assert sk.peak_relative_error(double[i], ref) <= 1e-10


def test_execute_single_precision_allocates_no_double_copy():
    # a complex64 transform routed through the double-precision loop
    # allocates about 5x its input; the single-precision loop allocates 1x
    rng = np.random.default_rng(19)
    shape = (1024, 8, 64)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    plan = sk.get_plan(1024)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = plan.execute(x, axis=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.dtype == np.complex64
    assert peak <= 1.5 * x.nbytes


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_execute_double_equals_unscaled_numpy_fft(axis):
    rng = np.random.default_rng(23)
    x = rng.standard_normal((64, 128)) + 1j * rng.standard_normal((64, 128))
    out = sk.get_plan(x.shape[axis]).execute(x, axis=axis)
    assert np.array_equal(out, np.fft.fft(x, axis=axis))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_forward_times_size_equals_execute(axis, dtype):
    # scaling by 1/size and back is exact, so the folds callers make are too
    rng = np.random.default_rng(29)
    shape = (16, 8, 32)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
    plan = sk.get_plan(shape[axis])
    out = plan.forward(x, axis=axis)
    assert out.dtype == dtype
    assert np.array_equal(out * plan.size, plan.execute(x, axis=axis))


def test_forward_in_place_on_a_strided_view():
    rng = np.random.default_rng(31)
    buf = np.zeros((64, 40), dtype=np.complex64)
    buf[:, :32] = rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32))
    view = buf[:, 4:20]  # padded rows: neither axis is contiguous in whole
    expected = sk.get_plan(64).forward(view.copy(), axis=0)
    untouched = buf.copy()
    result = sk.get_plan(64).forward(view, axis=0, out=view)
    assert np.shares_memory(result, buf)
    assert np.array_equal(buf[:, 4:20], expected)
    assert np.array_equal(np.delete(buf, np.s_[4:20], axis=1),
                          np.delete(untouched, np.s_[4:20], axis=1))


def test_forward_single_precision_allocates_no_double_copy():
    # as for execute: complex64 stays on pocketfft's single-precision loop
    rng = np.random.default_rng(19)
    shape = (1024, 8, 64)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    plan = sk.get_plan(1024)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = plan.forward(x, axis=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.dtype == np.complex64
    assert peak <= 1.5 * x.nbytes


def test_fft_shift_examples():
    assert np.array_equal(sk.fft_shift(np.array([0, 1, 2, 3])), np.array([2, 3, 0, 1]))
    assert np.array_equal(
        sk.fft_shift(np.array([0, 1, 2, 3, 4, 5])), np.array([3, 4, 5, 0, 1, 2])
    )
    with pytest.raises(sk.DimensionError):
        sk.fft_shift(np.arange(5))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 128))
def test_fft_shift_involution(half):
    x = np.arange(2 * half)
    assert np.array_equal(sk.fft_shift(sk.fft_shift(x)), x)


def _table(np_ch, residues, dtype):
    # the down-conversion table rows exp(-i 2 pi r (m - Np/2) / Np) * Np,
    # one per start-sample residue r, that channelize multiplied in after a
    # half swap before it took the shift-theorem form. r (m - Np/2) is
    # reduced mod Np first, so each phase is rounded once: unreduced, the
    # rounding of the argument alone moved f64 phases by up to 8e-14 at Np = 256
    k_signed = np.arange(np_ch) - np_ch // 2
    tab = np.exp((-2j * np.pi / np_ch) * (np.outer(residues, k_signed) % np_ch))
    return (tab * np_ch).astype(dtype)


def _old_channelize(frames, window, phase):
    # window, forward-scaled FFT, then the half swap fused with the table rows
    spec = np.multiply(frames, window, order="C")
    np_ch = spec.shape[-1]
    sk.get_plan(np_ch).forward(spec, axis=-1, out=spec)
    h = np_ch // 2
    out = np.empty_like(spec)
    np.multiply(spec[..., h:], phase[..., :h], out=out[..., :h])
    np.multiply(spec[..., :h], phase[..., h:], out=out[..., h:])
    return out


def test_channelize_is_the_rolled_sign_folded_fft():
    # frame i is multiplied by Np (-1)^(j + r_i) window[j], rolled by its
    # residue r_i and transformed forward-scaled; residues reduce mod Np and
    # frames i and i + Np share one, so 21 frames of 8 take 8 residues
    rng = np.random.default_rng(3)
    np_ch, count = 8, 21
    shape = (count, 2, 2 * np_ch)
    base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    frames = base.astype(np.complex64)[..., ::2]  # a strided view
    before = frames.copy()
    window = rng.standard_normal(np_ch).astype(np.float32)
    offsets = np.array([0, 5, 2, 7, 1, 6, 3, 4])
    residues = offsets[np.arange(count) % np_ch] + np_ch * (np.arange(count) // np_ch - 1)
    out = channelize(frames, window, residues)
    assert out.dtype == np.complex64 and out.shape == frames.shape and out.flags.c_contiguous
    assert np.array_equal(frames, before)
    j = np.arange(np_ch)
    for i in range(count):
        r = residues[i] % np_ch
        signed = np.where((j + r) % 2, -window, window) * np.float32(np_ch)
        u = np.roll(frames[i] * signed, r, axis=-1)
        assert np.array_equal(out[i], sk.get_plan(np_ch).forward(u, axis=-1))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_channelize_centres_and_down_converts(dtype):
    # each frame is a unit tone at channel c: it lands in column c + Np/2 as
    # Np times the down-conversion phase exp(-i 2 pi r c / Np) of its residue r
    np_ch, c = 16, 3
    n = np.arange(np_ch)
    residues = np.array([0, 4, 5])
    frames = np.stack([np.exp(2j * np.pi * c * n / np_ch)] * 3).astype(dtype)
    out = channelize(frames, np.ones(np_ch, dtype=frames.real.dtype), residues)
    assert out.dtype == dtype and out.shape == (3, np_ch)
    expected = np.zeros((3, np_ch), dtype=np.complex128)
    expected[:, c + np_ch // 2] = np_ch * np.exp(-2j * np.pi * residues * c / np_ch)
    assert np.allclose(out, expected, atol=1e-4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8, 16, 32, 64, 128, 256]), st.sampled_from(["f32", "f64"]),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_channelize_matches_the_table_formula(np_ch, precision, periods, seed):
    # every residue, in frame batches one to three residue periods long (so
    # frames past Np reuse the class of frame i mod Np), against the
    # down-conversion table and half swap; FAM demodulate in f32 is bit for
    # bit the table form (its residues are multiples of Np/4, whose phases
    # the table rounded to within an ulp of a power of -i)
    rng = np.random.default_rng(seed)
    cdt, rdt = sk._util.complex_dtype(precision), sk._util.real_dtype(precision)
    count = periods * np_ch + int(rng.integers(0, np_ch))
    residues = rng.permutation(np_ch)[np.arange(count) % np_ch]
    residues = residues + np_ch * rng.integers(-2, 3, count)
    frames = (rng.standard_normal((count, 3, np_ch))
              + 1j * rng.standard_normal((count, 3, np_ch))).astype(cdt)
    window = rng.standard_normal(np_ch).astype(rdt)
    ref = _old_channelize(frames, window, _table(np_ch, residues, cdt)[:, None, :])
    # both sides round the same quantity differently: on white frames they
    # were measured up to 2.5e-7 (2.1 ulp) apart in f32 and 7.9e-16 in f64
    tol = 4e-7 if precision == "f32" else 1e-14
    assert sk.peak_relative_error(channelize(frames, window, residues), ref) <= tol

    kind = ["chebyshev", "hamming", "rectangular"][seed % 3]
    cfg = sk.FamConfig(N=4 * np_ch, Np=np_ch, precision="f32",
                       a_window=sk.WindowSpec(kind, np_ch))
    x = rng.standard_normal(cfg.N) + 1j * rng.standard_normal(cfg.N)
    fr = sk.frame(sk.normalize(x), cfg)
    a = sk.make_window(cfg.a_window).astype(np.float32)
    phase = _table(np_ch, cfg.L * np.arange(4), np.complex64)
    old = _old_channelize(fr.T.reshape(-1, 4, np_ch), a, phase).reshape(cfg.P, np_ch).T
    assert np.array_equal(sk.demodulate(fr, cfg), old)


def test_decomposed_impulse():
    x = np.zeros(64, dtype=np.complex128)
    x[0] = 1.0
    assert np.allclose(sk.fft_decomposed(x, 8, 8), np.ones(64), atol=1e-12)


def test_decomposed_matches_fft_16():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    ref = sk.fft(sk.get_plan(16), x)
    assert sk.peak_relative_error(sk.fft_decomposed(x, 4, 4), ref) <= 1e-6
    single = sk.fft_decomposed(x.astype(np.complex64), 4, 4)
    assert sk.peak_relative_error(single, ref) <= 1e-6


@pytest.mark.parametrize("m1,m2", [(2, 32), (8, 8), (32, 2), (16, 64), (64, 64)])
def test_decomposed_reindexing_equals_fft(m1, m2):
    rng = np.random.default_rng(m1 * 1000 + m2)
    n = m1 * m2
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = sk.fft(sk.get_plan(n), x)
    assert sk.peak_relative_error(sk.fft_decomposed(x, m1, m2), ref) <= 1e-10


def test_decomposed_validation():
    with pytest.raises(sk.ConfigurationError):
        sk.fft_decomposed(np.zeros(15, dtype=complex), 3, 5)
    with pytest.raises(sk.ConfigurationError):
        sk.fft_decomposed(np.zeros(1 << 12, dtype=complex), 1 << 11, 2)
    with pytest.raises(sk.DimensionError):
        sk.fft_decomposed(np.zeros(64, dtype=complex), 4, 4)


def test_decomposed_full_scale_single_precision():
    # 2^20 points in float32 against the double-precision direct transform
    rng = np.random.default_rng(11)
    n = 1 << 20
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = sk.fft(sk.get_plan(n), x)
    test = sk.fft_decomposed(x.astype(np.complex64), 1024, 1024)
    assert sk.peak_relative_error(test, ref) <= 1e-4


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SIZES), st.integers(0, 2 ** 32 - 1))
def test_parseval(size, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(size) + 1j * rng.standard_normal(size)).astype(np.complex64)
    out = sk.fft(sk.get_plan(size), x)
    time_energy = float(np.sum(np.abs(x.astype(np.complex128)) ** 2))
    freq_energy = float(np.sum(np.abs(out.astype(np.complex128)) ** 2)) / size
    assert abs(time_energy - freq_energy) <= 1e-5 * time_energy


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([8, 64, 512]), st.integers(0, 2 ** 32 - 1))
def test_linearity(size, seed):
    rng = np.random.default_rng(seed)
    plan = sk.get_plan(size)
    x = (rng.standard_normal(size) + 1j * rng.standard_normal(size)).astype(np.complex64)
    y = (rng.standard_normal(size) + 1j * rng.standard_normal(size)).astype(np.complex64)
    a, b = np.complex64(1.5 - 0.5j), np.complex64(-0.25 + 2j)
    lhs = sk.fft(plan, a * x + b * y)
    rhs = a * sk.fft(plan, x) + b * sk.fft(plan, y)
    scale = float(np.abs(rhs).max())
    assert float(np.abs(lhs - rhs).max()) <= 1e-5 * scale


def test_execute_batched_matches_rowwise():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
    plan = sk.get_plan(64)
    batched = plan.execute(m, axis=1)
    rows = np.stack([sk.fft(plan, m[i]) for i in range(6)])
    assert np.array_equal(batched, rows)

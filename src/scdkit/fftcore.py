"""FFT primitives shared by both estimators.

Every transform runs on numpy's pocketfft in the dtype it is given:
complex64 in single precision, complex128 in double. Plans are immutable,
cached per power-of-two size, and keep the shared size envelope and
length checks. execute() is the unscaled forward DFT
X[k] = sum_n x[n] exp(-i 2 pi n k / size); forward() returns exactly X / size.
channelize() is the down-converting channelizer FAM and the SSCA share;
four_step_stage1() is stage 1 of the SSCA's and fft_decomposed()'s M1 x M2 FFT.
"""

from __future__ import annotations

import numpy as np

from ._util import is_pow2
from .errors import ConfigurationError, DimensionError

# Stage transforms of the decomposed path can be as small as 4 even though
# the practical envelope starts at 8, so the plan floor sits below it.
MIN_FFT_SIZE = 2
MAX_FFT_SIZE = 1 << 20
MAX_STAGE_SIZE = 1 << 10  # per-stage cap for the decomposed transform


class FftPlan:
    """One validated forward FFT size.

    Immutable after construction and safe to share across threads; forward()
    and execute() are vectorized over every axis except the transformed one.
    """

    def __init__(self, size: int):
        if not is_pow2(size) or not MIN_FFT_SIZE <= size <= MAX_FFT_SIZE:
            raise ConfigurationError(
                f"FFT size must be a power of two in [{MIN_FFT_SIZE}, {MAX_FFT_SIZE}], got {size}"
            )
        self.size = size

    def forward(self, a: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
        """Forward FFT along one axis, scaled by 1/size: exactly X / size.

        Scaling by a power of two commutes with every rounding step, so
        forward(a) * size equals execute(a) bit for bit. A caller that
        multiplies the result by a table anyway can fold size into the table
        and save a pass. out may be a (strided) view, including of a itself.
        """
        a = np.asarray(a)
        if a.shape[axis] != self.size:
            raise DimensionError(
                f"axis length {a.shape[axis]} does not match plan size {self.size}"
            )
        if a.dtype not in (np.complex64, np.complex128):
            a = a.astype(np.complex128)
        # norm="forward" passes 1/size as a scalar of the input's precision, so
        # complex64 runs pocketfft's single-precision loop; the default norm's
        # int 1 would upcast it to double.
        return np.fft.fft(a, axis=axis, norm="forward", out=out)

    def execute(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        """Unscaled forward FFT along one axis of a complex array."""
        y = self.forward(a, axis)
        y *= self.size
        return y


_PLAN_CACHE: dict[int, FftPlan] = {}


def get_plan(size: int) -> FftPlan:
    plan = _PLAN_CACHE.get(size)
    if plan is None:
        plan = FftPlan(size)
        _PLAN_CACHE[size] = plan
    return plan


def fft(plan: FftPlan, x: np.ndarray) -> np.ndarray:
    """Unscaled forward DFT of a 1-D series whose length matches the plan."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise DimensionError(f"fft expects a 1-D series, got shape {x.shape}")
    return plan.execute(x, axis=0)


def fft_shift(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Swap halves along an axis: out[i] = x[(i + n/2) mod n]. Even n only."""
    x = np.asarray(x)
    n = x.shape[axis]
    if n % 2 != 0:
        raise DimensionError(f"fft_shift needs an even length, got {n}")
    return np.roll(x, -(n // 2), axis=axis)


def channelize(frames: np.ndarray, window: np.ndarray, residues, out=None) -> np.ndarray:
    """out[i, ..., m] = Np * X[i, ..., (m + Np/2) mod Np] * exp(-i 2 pi r (m - Np/2) / Np),
    X the forward-scaled FFT of frames * window along the last axis, for
    frames[i] starting at a sample n with r = n mod Np = residues[i] mod Np.
    frames may be any strided view; frames[i] and frames[i + Np] must share
    a residue. By the shift theorem this is the forward-scaled FFT of the
    windowed frame times Np * (-1)^(j + r) on sample j, rolled by r: the
    factor is exact, so the window carries it, and the FFT runs in place,
    or into out, any view of frames' shape, when one is given.
    """
    np_ch = frames.shape[-1]
    buf = np.empty(frames.shape, dtype=np.result_type(frames, window, np.complex64))
    # Np (-1)^j window[j] in the output type: the small multiplies below then
    # skip numpy's buffered cast, and complex w + 0j rounds as the real w did
    signed = (window * np_ch).astype(buf.dtype)
    signed[1::2] *= -1
    by_parity = (signed, -signed)
    for i in range(min(np_ch, len(frames))):
        r = int(residues[i]) % np_ch
        w, a, o = by_parity[r % 2], frames[i::np_ch], buf[i::np_ch]
        np.multiply(a[..., :np_ch - r], w[:np_ch - r], out=o[..., r:])
        np.multiply(a[..., np_ch - r:], w[np_ch - r:], out=o[..., :r])
    return get_plan(np_ch).forward(buf, axis=-1, out=buf if out is None else out)


def rotation_factors(m1_out: int, cols: np.ndarray, n: int, dtype=np.complex128) -> np.ndarray:
    """Inter-stage coupling table rot[m1p, j] = exp(-i 2 pi m1p cols[j] / n)."""
    table = np.exp((-2j * np.pi / n) * np.outer(np.arange(m1_out), cols))
    return table.astype(dtype)


def four_step_stage1(strips: np.ndarray, c0: int, n: int, out: np.ndarray) -> None:
    """Stage 1 of the M1 x M2 four-step FFT for columns c0.. of N-point series.

    strips[j, :, k] is column c0 + j of channel k's (M1, M2) grid. out, any
    (channels, columns, M1) view, gets each column's forward-scaled M1-point
    FFT times exp(-i 2 pi m1p (c0 + j) / n) * n: M2 times the unscaled values.
    """
    cols, m1 = strips.shape[:2]
    blk = out.transpose(1, 2, 0)
    get_plan(m1).forward(strips, axis=1, out=blk)
    rot = rotation_factors(m1, np.arange(c0, c0 + cols), n, out.dtype)
    rot *= n
    blk *= rot.T[:, :, None]


def fft_decomposed(x: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """N-point DFT via an M1 x M2 two-stage decomposition.

    The series is reshaped row-major as x[i1, i2] = x[i1*m2 + i2]. Stage 1
    is the SSCA's four_step_stage1 on one channel: an M1-point FFT down each
    column times the rotation factor exp(-i 2 pi i2 k1 / (m1 m2)). Stage 2
    runs an M2-point FFT along each row. Reading the result back with global
    bin k = m1*k2 + k1 reproduces the plain DFT bin ordering exactly.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise DimensionError(f"fft_decomposed expects a 1-D series, got shape {x.shape}")
    if not (is_pow2(m1) and is_pow2(m2)):
        raise ConfigurationError(f"stage sizes must be powers of two, got {m1} x {m2}")
    if m1 > MAX_STAGE_SIZE or m2 > MAX_STAGE_SIZE:
        raise ConfigurationError(f"stage sizes must be <= {MAX_STAGE_SIZE}, got {m1} x {m2}")
    n = m1 * m2
    if x.shape[0] != n:
        raise DimensionError(f"length {x.shape[0]} does not factor as {m1} x {m2}")
    dtype = x.dtype if x.dtype in (np.complex64, np.complex128) else np.complex128
    out = np.empty((1, m2, m1), dtype=dtype)
    four_step_stage1(x.astype(dtype, copy=False).reshape(m1, m2).T[:, :, None], 0, n, out)
    get_plan(m2).forward(out[0], axis=0, out=out[0])
    return out.reshape(n)

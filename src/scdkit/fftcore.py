"""FFT primitives shared by both estimators.

An iterative radix-2 decimation-in-time transform with a bit-reversal
permutation covers every power-of-two size used here. Plans are immutable
and cached; twiddle factors are generated once in float64 and rounded to
the working precision of whatever array is transformed, so single- and
double-precision runs share one coefficient path. All transforms are
unscaled forward DFTs: X[k] = sum_n x[n] exp(-i 2 pi n k / size).
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


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


class FftPlan:
    """Precomputed state for one forward FFT size.

    Immutable after construction and safe to share across threads; execute()
    is vectorized over every axis except the transformed one.
    """

    def __init__(self, size: int):
        if not is_pow2(size) or not MIN_FFT_SIZE <= size <= MAX_FFT_SIZE:
            raise ConfigurationError(
                f"FFT size must be a power of two in [{MIN_FFT_SIZE}, {MAX_FFT_SIZE}], got {size}"
            )
        self.size = size
        self.direction = "forward"
        self.twiddles = np.exp(-2j * np.pi * np.arange(size // 2) / size)
        self._bitrev = _bit_reverse_indices(size)
        self._tw_cache = {np.dtype(np.complex128): self.twiddles}

    def _twiddles_for(self, dtype):
        tw = self._tw_cache.get(dtype)
        if tw is None:
            tw = self.twiddles.astype(dtype)
            self._tw_cache[dtype] = tw
        return tw

    def execute(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        """Forward FFT along one axis of a complex array."""
        a = np.asarray(a)
        if a.shape[axis] != self.size:
            raise DimensionError(
                f"axis length {a.shape[axis]} does not match plan size {self.size}"
            )
        if a.dtype not in (np.complex64, np.complex128):
            a = a.astype(np.complex128)
        n = self.size
        y = np.moveaxis(a, axis, -1)[..., self._bitrev].copy()
        tw = self._twiddles_for(y.dtype)
        m = 2
        while m <= n:
            half = m // 2
            w = tw[:: n // m]
            yv = y.reshape(y.shape[:-1] + (n // m, m))
            t = yv[..., half:] * w
            np.subtract(yv[..., :half], t, out=yv[..., half:])
            np.add(yv[..., :half], t, out=yv[..., :half])
            m *= 2
        return np.moveaxis(y, -1, axis)


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


def shift_indices(n: int) -> np.ndarray:
    """Gather indices implementing fft_shift for even n."""
    if n % 2 != 0:
        raise DimensionError(f"fft_shift needs an even length, got {n}")
    return np.concatenate((np.arange(n // 2, n), np.arange(0, n // 2)))


def transpose(m: np.ndarray) -> np.ndarray:
    """Matrix transpose, returned contiguous: out[j][i] = m[i][j]."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D matrix, got shape {m.shape}")
    return np.ascontiguousarray(m.T)


def rotation_factors(m1_out: int, m2: int, n: int, dtype=np.complex128) -> np.ndarray:
    """Inter-stage coupling table rot[m1p, m2] = exp(-i 2 pi m1p m2 / n)."""
    table = np.exp(
        (-2j * np.pi / n) * np.outer(np.arange(m1_out), np.arange(m2))
    )
    return table.astype(dtype)


def fft_decomposed(x: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """N-point DFT via an M1 x M2 two-stage decomposition.

    The series is reshaped row-major as x[i1, i2] = x[i1*m2 + i2]. Stage 1
    runs an M1-point FFT down each column, multiplies by the rotation factor
    exp(-i 2 pi i2 k1 / (m1 m2)), and stage 2 runs an M2-point FFT along each
    row. Reading the result back with global bin k = m1*k2 + k1 reproduces
    the plain DFT bin ordering exactly.
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
    a = x.astype(dtype, copy=False).reshape(m1, m2)
    s1 = get_plan(m1).execute(a, axis=0)
    s1 = s1 * rotation_factors(m1, m2, n, dtype)
    s2 = get_plan(m2).execute(s1, axis=1)
    # bin k = m1*k2 + k1
    return np.ascontiguousarray(s2.T).reshape(n)

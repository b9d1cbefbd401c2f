"""Test-signal generation, normalization, window synthesis, and the input
preparation and framing the estimators share.

Complex series are plain 1-D numpy arrays of complex samples at a
normalized sample rate of 1, so every frequency in this package is a
cycles-per-sample fraction in [-0.5, 0.5] and every cycle frequency a
fraction in [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._util import complex_dtype, require_finite
from .errors import CapacityError, ConfigurationError, DataError, DimensionError

WINDOW_KINDS = ("chebyshev", "rectangular", "hamming")

# Degree-5 maximal-length sequence: s[n] = s[n-2] xor s[n-5] (feedback
# polynomial x^5 + x^3 + 1), seeded from state 00001. Fixed so the spreading
# sequence, and with it the cycle-frequency comb of the generated signal, is
# reproducible bit-for-bit.
_PN_DEGREE = 5
_PN_SEED_BITS = (0, 0, 0, 0, 1)

# Below this SNR the noise power of the unit-power chips, 10^(-snr_db/10),
# exceeds the float32 range of the written samples (about -385.3 dB).
_SNR_DB_MIN = -10.0 * math.log10(float(np.finfo(np.float32).max))
# From this SNR on the noise amplitude is below 1e-150 of the chips', and
# 10^(snr_db/10) nears the float64 limit, so the noise is dropped as at +inf.
_SNR_DB_NOISELESS = 3000.0
# complex128 samples past this many have more bytes than one array can index
_SAMPLES_MAX = np.iinfo(np.intp).max // 16


@dataclass(frozen=True)
class WindowSpec:
    """Window request: kind, length, and sidelobe attenuation (Chebyshev only).

    atten_db defaults to 100 dB, the common tooling default for
    Dolph-Chebyshev channelizer windows.
    """

    kind: str
    length: int
    atten_db: float = 100.0

    def __post_init__(self):
        if self.kind not in WINDOW_KINDS:
            raise ConfigurationError(
                f"unsupported window kind {self.kind!r}; expected one of {WINDOW_KINDS}"
            )
        if self.length < 2:
            raise ConfigurationError(f"window length must be >= 2, got {self.length}")
        if self.kind == "chebyshev":
            if not 0 < self.atten_db < math.inf:  # NaN fails too
                raise ConfigurationError(
                    f"chebyshev window needs a finite atten_db > 0, got {self.atten_db}")
            try:
                10.0 ** (float(self.atten_db) / 20.0)  # the window's ripple ratio
            except OverflowError:
                raise ConfigurationError(
                    f"chebyshev atten_db {self.atten_db} is too large: "
                    "its ripple ratio 10^(atten_db/20) overflows") from None


@dataclass(frozen=True)
class DsssBpskConfig:
    """Direct-sequence spread-spectrum BPSK generator parameters.

    processing_gain is the number of spreading chips per data symbol,
    chip_rate the chip rate as a fraction of the sample rate, and snr_db the
    per-realization ratio of mean signal power to mean noise power (+inf
    for no noise). An snr_db below _SNR_DB_MIN, whose noise power float32
    samples cannot hold, is refused, and so are NaN and a negative seed;
    more than _SAMPLES_MAX samples is a CapacityError.
    """

    n_samples: int
    processing_gain: int = 31
    chip_rate: float = 0.25
    snr_db: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if self.n_samples > _SAMPLES_MAX:
            raise CapacityError(f"n_samples {self.n_samples} exceeds {_SAMPLES_MAX}, the most "
                                "complex128 samples one array can hold")
        if self.processing_gain < 1:
            raise ConfigurationError("processing_gain must be >= 1")
        if not 0.0 < self.chip_rate <= 0.5:
            raise ConfigurationError("chip_rate must satisfy 0 < chip_rate <= 0.5")
        if not self.snr_db >= _SNR_DB_MIN:  # NaN fails too; +inf means no noise
            raise ConfigurationError(
                f"snr_db must be a number >= {_SNR_DB_MIN:.1f} dB (below it the noise power "
                f"exceeds float32), got {self.snr_db}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def samples_per_chip(self) -> int:
        return int(round(1.0 / self.chip_rate))

    @property
    def data_rate(self) -> float:
        """Symbol (data) rate; cycle frequencies fall on its multiples."""
        return self.chip_rate / self.processing_gain


def pn_sequence(n_chips: int) -> np.ndarray:
    """First n_chips of the fixed +/-1 m-sequence, cycled past one period."""
    period = (1 << _PN_DEGREE) - 1
    bits = list(_PN_SEED_BITS)
    for n in range(_PN_DEGREE, period):
        bits.append(bits[n - 2] ^ bits[n - _PN_DEGREE])
    chips = 1.0 - 2.0 * np.array(bits, dtype=np.float64)
    reps = -(-n_chips // period)
    return np.tile(chips, reps)[:n_chips]


def generate_dsss_bpsk(cfg: DsssBpskConfig) -> np.ndarray:
    """Generate a DSSS-BPSK realization with complex AWGN.

    Random BPSK symbols are spread by the fixed PN sequence; each chip is
    held for round(1/chip_rate) samples. Noise power is set from the
    measured clean-signal power so the realized SNR matches snr_db. The
    draw order (symbols first, then noise) is fixed, making the output
    bit-deterministic for a given seed.
    """
    if cfg.chip_rate * cfg.n_samples < cfg.processing_gain:
        raise ConfigurationError(
            "n_samples too short: need chip_rate * n_samples >= processing_gain "
            "(at least one full symbol)"
        )
    sps = cfg.samples_per_chip
    n_chips = -(-cfg.n_samples // sps)
    n_symbols = -(-n_chips // cfg.processing_gain)

    rng = np.random.default_rng(cfg.seed)
    symbols = 1.0 - 2.0 * rng.integers(0, 2, n_symbols).astype(np.float64)
    pn = pn_sequence(cfg.processing_gain)
    chips = (symbols[:, None] * pn[None, :]).reshape(-1)[:n_chips]
    clean = np.repeat(chips, sps)[: cfg.n_samples].astype(np.complex128)

    if not cfg.snr_db < _SNR_DB_NOISELESS:
        return clean
    signal_power = float(np.mean(np.abs(clean) ** 2))
    noise_power = signal_power / (10.0 ** (cfg.snr_db / 10.0))
    scale = np.sqrt(noise_power / 2.0)
    noise = rng.standard_normal(cfg.n_samples) + 1j * rng.standard_normal(cfg.n_samples)
    return clean + scale * noise


def normalize(x: np.ndarray) -> np.ndarray:
    """Scale a series so its peak modulus is 1; all-zero input passes through.

    Any finite input works, down to a subnormal peak and up to a modulus
    past the float range.

    Inputs whose peak modulus is already within a few ulps of 1 are returned
    unchanged, which makes repeated normalization an exact fixed point
    (re-dividing by a peak of 1 +/- 1 ulp would otherwise dither the low bits
    forever).
    """
    x = np.asarray(x)
    if x.size == 0:
        return x.copy()
    m = float(np.abs(x).max())
    if m == 0.0:
        return x.copy()
    info = np.finfo(np.float32 if x.dtype in (np.complex64, np.float32) else np.float64)
    if abs(m - 1.0) <= 4.0 * info.eps:
        return x.copy()
    if not info.tiny <= m <= info.max:
        # numpy's complex x / m multiplies by 1/m, which overflows for a
        # subnormal peak, and a modulus past the range reads as inf: an exact
        # power-of-two rescale first brings the peak into the normal range
        x = x * (2.0 ** 64 if m < info.tiny else 2.0 ** -64)
        m = float(np.abs(x).max())
    return x / m


def prepare_input(x: np.ndarray, n: int, precision: str, normalize_input: bool) -> np.ndarray:
    """Estimator input: length checked, cast, required finite, optionally normalized.

    A finite sample that the cast to the precision makes infinite is
    reported as past that precision's range, not as non-finite.
    """
    x = np.asarray(x)
    if x.shape != (n,):
        raise DimensionError(f"input length {x.shape} does not match N={n}")
    with np.errstate(over="ignore"):  # a sample past the precision's range: reported below
        cast = x.astype(complex_dtype(precision), copy=False)
    try:
        require_finite(cast)
    except DataError:
        if cast is x:
            raise
        require_finite(x)  # NaN or infinite in the input itself
        past = ~np.isfinite(cast)
        info = np.finfo(cast.dtype)
        raise DataError(
            f"input holds {int(past.sum())} samples past the {info.dtype} range "
            f"(+/-{info.max:.7g}) of precision {precision!r} "
            f"(first at index {int(past.argmax())})") from None
    return normalize(cast) if normalize_input else cast


def sliding_frames(x: np.ndarray, length: int, lead: int, hop: int, count: int) -> np.ndarray:
    """count frames as one read-only view, out[i, j] = x[i*hop - lead + j], strided
    over one copy of x zero-padded at both ends."""
    x = np.asarray(x)
    padded = np.zeros((count - 1) * hop + length, dtype=x.dtype)
    take = min(x.shape[0], padded.size - lead)
    padded[lead:lead + take] = x[:take]
    return sliding_window_view(padded, length)[::hop]


def _chebyshev_window(length: int, atten_db: float) -> np.ndarray:
    """Dolph-Chebyshev window via the inverse DFT of its frequency response."""
    order = length - 1
    big_r = 10.0 ** (atten_db / 20.0)
    beta = np.cosh(np.arccosh(big_r) / order)
    x = beta * np.cos(np.pi * np.arange(length) / length)
    p = np.empty(length, dtype=np.float64)
    sel = x > 1.0
    p[sel] = np.cosh(order * np.arccosh(x[sel]))
    sel = x < -1.0
    p[sel] = (2 * (length % 2) - 1) * np.cosh(order * np.arccosh(-x[sel]))
    sel = np.abs(x) <= 1.0
    p[sel] = np.cos(order * np.arccos(x[sel]))
    if length % 2:
        w = np.fft.fft(p).real
        n = (length + 1) // 2
        w = np.concatenate((w[n - 1:0:-1], w[:n]))
    else:
        q = p * np.exp(1j * np.pi * np.arange(length) / length)
        w = np.fft.fft(q).real
        n = length // 2 + 1
        w = np.concatenate((w[n - 1:0:-1], w[1:n]))
    return w / w.max()


def _hamming_window(length: int) -> np.ndarray:
    # built from one mirrored half so symmetry holds bitwise
    half = np.arange((length + 1) // 2)
    w_half = 0.54 - 0.46 * np.cos(2.0 * np.pi * half / (length - 1))
    w = np.concatenate((w_half, w_half[: length // 2][::-1]))
    return w / w.max()


def make_window(spec: WindowSpec) -> np.ndarray:
    """Synthesize the requested window: symmetric, peak exactly 1, float64."""
    if spec.kind == "rectangular":
        return np.ones(spec.length, dtype=np.float64)
    if spec.kind == "hamming":
        return _hamming_window(spec.length)
    if spec.kind == "chebyshev":
        # near the largest ripple ratio the response overflows; that is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            w = _chebyshev_window(spec.length, spec.atten_db)
        if not np.isfinite(w).all():
            raise ConfigurationError(
                f"a chebyshev window of length {spec.length} at {spec.atten_db} dB "
                "is not finite; lower atten_db")
        return w
    raise ConfigurationError(f"unsupported window kind {spec.kind!r}")


def window_array(spec: WindowSpec, length: int | None = None) -> np.ndarray:
    """The window a WindowSpec asks for; check its length if given."""
    w = make_window(spec)
    if length is not None and w.shape != (length,):
        raise ConfigurationError(f"window length {w.shape} does not match required ({length},)")
    return w

"""Independent reference computations and comparison metrics.

Everything here runs in double precision regardless of the pipeline's
working precision, and deliberately avoids numpy.fft (pocketfft), which
runs every estimator transform: spectra are evaluated as direct sums so
the estimators are checked against a structurally different path.

Two comparison metrics coexist on purpose. error_stats/relative_error
report elementwise relative errors with a floored denominator, the form
used for mean-accuracy figures; peak_relative_error reports the largest
deviation normalized by the reference peak, the standard form for
validating transforms, where tiny bins produced by cancellation would
otherwise dominate an elementwise maximum. Both propagate NaN: a NaN in
either array makes the maxima NaN, so a `<= tol` check on them fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import block_ranges
from .errors import CapacityError, ConfigurationError, DimensionError, DomainError
from .estimate import AlphaProfile, ScdEstimate
from .fam import FamConfig
from .signal import WindowSpec, window_array
from .ssca import SscaConfig

_DFT_NAIVE_MAX = 8192
_REFERENCE_COST_MAX = 1 << 28
_STAT_CHUNK = 1 << 22
_TAU_FACTOR = 1e-6


def dft_naive(x: np.ndarray) -> np.ndarray:
    """O(N^2) forward DFT, accumulated in double precision."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise DimensionError(f"dft_naive expects a 1-D series, got shape {x.shape}")
    n = x.shape[0]
    if n > _DFT_NAIVE_MAX:
        raise CapacityError(f"dft_naive is guarded to length <= {_DFT_NAIVE_MAX}, got {n}")
    x128 = x.astype(np.complex128)
    out = np.empty(n, dtype=np.complex128)
    samples = np.arange(n)
    for k0, k1 in block_ranges(n, 256):
        phases = np.exp((-2j * np.pi / n) * np.outer(np.arange(k0, k1), samples))
        out[k0:k1] = phases @ x128
    return out


def demodulate_reference(frames: np.ndarray, cfg: FamConfig) -> np.ndarray:
    """Straight-line double-precision demodulate: per-channel direct sums."""
    frames = np.asarray(frames).astype(np.complex128)
    if frames.shape != (cfg.Np, cfg.P):
        raise DimensionError(f"frame matrix shape {frames.shape} != ({cfg.Np}, {cfg.P})")
    a = window_array(cfg.a_window, cfg.Np)
    n = np.arange(cfg.Np)
    p = np.arange(cfg.P)
    out = np.empty((cfg.Np, cfg.P), dtype=np.complex128)
    for i in range(cfg.Np):
        m = i - cfg.Np // 2
        kern = a * np.exp((-2j * np.pi / cfg.Np) * (n * m))
        out[i] = (kern @ frames) * np.exp((-2j * np.pi / cfg.Np) * (m * p * cfg.L))
    return out


def cdp_reference(x: np.ndarray, cfg: SscaConfig) -> np.ndarray:
    """Straight-line double-precision channelizer data product."""
    x = np.asarray(x).astype(np.complex128)
    if x.shape != (cfg.N,):
        raise DimensionError(f"input length {x.shape} does not match N={cfg.N}")
    if cfg.N * cfg.Np * cfg.Np > _REFERENCE_COST_MAX:
        raise CapacityError("cdp_reference cost guard exceeded; use a smaller N or Np")
    np_ch = cfg.Np
    a = window_array(cfg.a_window, np_ch)
    g = window_array(cfg.g_window, cfg.N)
    k_signed = np.arange(np_ch) - np_ch // 2
    dft_rows = np.exp((-2j * np.pi / np_ch) * np.outer(k_signed, np.arange(np_ch)))
    xpad = np.zeros(cfg.N + np_ch, dtype=np.complex128)
    xpad[np_ch // 2: np_ch // 2 + cfg.N] = x
    out = np.empty((cfg.N, np_ch), dtype=np.complex128)
    for n in range(cfg.N):
        spec = dft_rows @ (xpad[n: n + np_ch] * a)
        out[n] = spec * np.exp((-2j * np.pi / np_ch) * (k_signed * n)) * (np.conj(x[n]) * g[n])
    return out


def scd_timesmoothed(
    x: np.ndarray,
    f0: float,
    alpha0: float,
    np_window: int,
    g_window: WindowSpec,
    a_window: WindowSpec | None = None,
) -> complex:
    """Time-smoothed SCD at one (f0, alpha0) point by direct summation.

    Complex demodulates at f0 +/- alpha0/2 are evaluated at every sample
    with a causal length-np_window window anchored at t (the same anchoring
    the frame-based estimator uses), then correlated under g:
    S = sum_t D(t, f1) conj(D(t, f2)) g[t].
    """
    x = np.asarray(x).astype(np.complex128)
    f1 = f0 + alpha0 / 2.0
    f2 = f0 - alpha0 / 2.0
    if not (-0.5 <= f1 <= 0.5 and -0.5 <= f2 <= 0.5):
        raise DomainError(
            f"demodulate frequencies f0 +/- alpha0/2 = {f1:g}, {f2:g} leave [-0.5, 0.5]"
        )
    if a_window is None:
        a_window = WindowSpec("rectangular", np_window)
    a = window_array(a_window, np_window)
    g = window_array(g_window)
    span = g.shape[0]
    if span * np_window > _REFERENCE_COST_MAX:
        raise CapacityError("scd_timesmoothed cost guard exceeded")
    xpad = np.zeros(span + np_window, dtype=np.complex128)
    take = min(x.shape[0], span + np_window)
    xpad[:take] = x[:take]

    def demod(freq: float) -> np.ndarray:
        j = np.arange(np_window)
        kern = a * np.exp(-2j * np.pi * freq * j)
        t_idx = np.arange(span)
        slices = xpad[t_idx[:, None] + j[None, :]]
        return (slices @ kern) * np.exp(-2j * np.pi * freq * t_idx)

    d1 = demod(f1)
    d2 = demod(f2)
    return complex(np.sum(d1 * np.conj(d2) * g))


@dataclass(frozen=True)
class ErrorStats:
    """Elementwise relative-error summary over a pair of value arrays."""

    mean_rel: float
    max_rel: float
    mean_abs: float
    n_bins: int


def error_stats(test: np.ndarray, reference: np.ndarray) -> ErrorStats:
    """Floored elementwise relative errors: e = |t - r| / max(|r|, tau).

    tau = 1e-6 * max|r| keeps bins that vanish by cancellation from
    dominating the statistics.
    """
    t = np.asarray(test)
    r = np.asarray(reference)
    if t.shape != r.shape:
        raise DimensionError(f"value shapes differ: {t.shape} vs {r.shape}")
    if t.size == 0:
        raise DimensionError("cannot compare empty arrays")
    tf = t.reshape(-1)
    rf = r.reshape(-1)
    max_ref = 0.0
    for i0, i1 in block_ranges(rf.size, _STAT_CHUNK):
        max_ref = np.maximum(max_ref, np.abs(rf[i0:i1]).max())
    tau = _TAU_FACTOR * max_ref if max_ref > 0.0 else 1.0
    sum_rel = 0.0
    sum_abs = 0.0
    max_rel = 0.0
    for i0, i1 in block_ranges(rf.size, _STAT_CHUNK):
        diff = np.abs(tf[i0:i1].astype(np.float64) - rf[i0:i1].astype(np.float64))
        denom = np.maximum(np.abs(rf[i0:i1].astype(np.float64)), tau)
        e = diff / denom
        sum_rel += float(e.sum())
        sum_abs += float(diff.sum())
        max_rel = np.maximum(max_rel, e.max())
    n = rf.size
    return ErrorStats(mean_rel=sum_rel / n, max_rel=float(max_rel), mean_abs=sum_abs / n, n_bins=n)


def relative_error(test: ScdEstimate, reference: ScdEstimate) -> ErrorStats:
    """error_stats over two estimates after checking they share a bin layout."""
    if not test.same_layout(reference):
        raise DimensionError("estimates do not share a bin layout")
    return error_stats(test.values, reference.values)


def peak_relative_error(test: np.ndarray, reference: np.ndarray) -> float:
    """max |t - r| normalized by the reference peak magnitude."""
    t = np.asarray(test)
    r = np.asarray(reference)
    if t.shape != r.shape:
        raise DimensionError(f"shapes differ: {t.shape} vs {r.shape}")
    tf = t.reshape(-1)
    rf = r.reshape(-1)
    max_diff = 0.0
    max_ref = 0.0
    for i0, i1 in block_ranges(rf.size, _STAT_CHUNK):
        rb = rf[i0:i1].astype(np.complex128)
        tb = tf[i0:i1].astype(np.complex128)
        max_diff = np.maximum(max_diff, np.abs(tb - rb).max())
        max_ref = np.maximum(max_ref, np.abs(rb).max())
    if max_diff == 0.0:
        return 0.0
    with np.errstate(divide="ignore"):  # a zero reference peak gives inf
        return float(max_diff / max_ref)


def detect_cycle_frequencies(profile: AlphaProfile, rel_threshold: float) -> list[float]:
    """Strict local maxima of the profile above rel_threshold * max.

    Points within four grid steps of alpha = 0 are the stationary ridge:
    they are cut from the profile before anything else, including the max
    that anchors the threshold, because that ridge always dominates and
    would otherwise set an arbitrary bar for genuine cycle features.
    Returned ascending.
    """
    if not 0.0 < rel_threshold < 1.0:
        raise ConfigurationError("rel_threshold must lie strictly between 0 and 1")
    v = profile.values.copy()
    if v.size < 3:
        return []
    v[np.abs(profile.alphas) <= 4.0 * profile.spacing] = 0.0
    if v.max() <= 0.0:
        return []
    floor = rel_threshold * float(v.max())
    interior = np.arange(1, v.size - 1)
    is_peak = (v[interior] > v[interior - 1]) & (v[interior] > v[interior + 1])
    idx = interior[is_peak & (v[interior] >= floor)]
    return [float(a) for a in np.sort(profile.alphas[idx])]

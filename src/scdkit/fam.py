"""FFT accumulation method estimator.

The pipeline is normalize -> frame -> demodulate -> fam_scd. Framing
decimates the input into P windows of Np samples at stride L = Np/4.
Demodulation applies the channelizer window, an Np-point FFT (centered),
and the per-frame down-conversion phase. The final stage forms the
conjugate product of every channel pair, refines cycle frequency with a
P-point FFT, and keeps the central half of the squared magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._util import (block_ranges, complex_dtype, is_pow2, real_dtype, require_finite,
                    run_partitioned)
from .errors import ConfigurationError, DimensionError
from .estimate import ScdEstimate, scd_to_grid
from .fftcore import get_plan, shift_indices
from .signal import WindowSpec, normalize, window_array

_PAIR_CHUNK = 16  # channel rows per conjugate-product task


@dataclass(frozen=True)
class FamConfig:
    """FAM parameter set.

    L and P are pinned to the channelizer size: L = Np/4 and P = 4N/Np.
    The hardware envelope (Np in [16, 256], N in [128, 4096]) is enforced by
    the planner and the CLI; the estimator itself accepts any structurally
    valid power-of-two combination.
    """

    N: int
    Np: int
    a_window: WindowSpec | None = None
    g_window: WindowSpec | None = None
    precision: str = "f32"

    def __post_init__(self):
        if not is_pow2(self.N) or not is_pow2(self.Np):
            raise ConfigurationError("N and Np must be powers of two")
        if self.Np < 8:
            raise ConfigurationError("Np must be >= 8 so the stride L = Np/4 is even")
        if self.N < 2 * self.Np:
            raise ConfigurationError("N must be >= 2*Np so P = 4N/Np covers a central half")
        complex_dtype(self.precision)
        if self.a_window is None:
            object.__setattr__(self, "a_window", WindowSpec("chebyshev", self.Np))
        if self.g_window is None:
            object.__setattr__(self, "g_window", WindowSpec("rectangular", self.P))
        if self.a_window.length != self.Np:
            raise ConfigurationError("a_window length must equal Np")
        if self.g_window.length != self.P:
            raise ConfigurationError("g_window length must equal P")

    @property
    def L(self) -> int:
        return self.Np // 4

    @property
    def P(self) -> int:
        return 4 * self.N // self.Np

    @property
    def delta_alpha(self) -> float:
        """Cycle-frequency resolution of the P-point refinement stage."""
        return 1.0 / self.N

    def with_precision(self, precision: str) -> "FamConfig":
        return replace(self, precision=precision)


def frame(x: np.ndarray, cfg: FamConfig) -> np.ndarray:
    """Decimate x into the Np x P frame matrix out[n, p] = x[p*L + n].

    Frames whose tail extends past the last sample read zeros, which keeps
    P = 4N/Np exact.
    """
    x = np.asarray(x)
    if x.shape != (cfg.N,):
        raise DimensionError(f"input length {x.shape} does not match N={cfg.N}")
    cdt = complex_dtype(cfg.precision)
    padded = np.zeros((cfg.P - 1) * cfg.L + cfg.Np, dtype=cdt)
    padded[: cfg.N] = x
    idx = np.arange(cfg.Np)[:, None] + cfg.L * np.arange(cfg.P)[None, :]
    return padded[idx]


def _downconversion_table(cfg: FamConfig, cdt) -> np.ndarray:
    # exp(-i 2 pi (m - Np/2) p L / Np) depends on p only through p mod 4
    m_signed = np.arange(cfg.Np) - cfg.Np // 2
    table = np.exp((-2j * np.pi / 4.0) * np.outer(m_signed, np.arange(4)))
    return table.astype(cdt)


def demodulate(frames: np.ndarray, cfg: FamConfig) -> np.ndarray:
    """Window, transform, and phase-correct every frame.

    Row m of the result indexes the channel at f_m = (m - Np/2)/Np; the
    per-frame factor exp(-i 2 pi (m - Np/2) p L / Np) compensates the
    decimation offset of frame p.
    """
    frames = np.asarray(frames)
    if frames.shape != (cfg.Np, cfg.P):
        raise DimensionError(
            f"frame matrix shape {frames.shape} does not match ({cfg.Np}, {cfg.P})"
        )
    cdt = complex_dtype(cfg.precision)
    a = window_array(cfg.a_window, cfg.Np).astype(real_dtype(cfg.precision))
    y = frames.astype(cdt, copy=False) * a[:, None]
    y = get_plan(cfg.Np).execute(y, axis=0)
    y = y[shift_indices(cfg.Np), :]
    phase = _downconversion_table(cfg, cdt)
    y *= phase[:, np.arange(cfg.P) % 4]
    return y


def fam_scd(xt: np.ndarray, cfg: FamConfig, threads: int = 1) -> ScdEstimate:
    """Conjugate-multiply every channel pair and refine with a P-point FFT.

    For channels (k, l) the product z[r] = xt[k, r] conj(xt[l, r]) g[r] is
    transformed over the P frames and the squared magnitudes of the central
    P/2 cycle bins are kept, written as the q in [0, P/4) chunk followed by
    the q in [-P/4, 0) chunk. Bin q of pair (k, l) sits at
    f = (f_k + f_l)/2, alpha = (f_k - f_l) + q/N.
    """
    xt = np.asarray(xt)
    if xt.shape != (cfg.Np, cfg.P):
        raise DimensionError(
            f"demodulate matrix shape {xt.shape} does not match ({cfg.Np}, {cfg.P})"
        )
    cdt = complex_dtype(cfg.precision)
    rdt = real_dtype(cfg.precision)
    np_, p = cfg.Np, cfg.P
    q4 = p // 4
    plan = get_plan(p)

    xt = xt.astype(cdt, copy=False)
    g = window_array(cfg.g_window, p).astype(rdt)
    conj_g = np.conj(xt) * g[None, :]

    out = np.empty((np_, np_, p // 2), dtype=rdt)

    def worker(bounds):
        k0, k1 = bounds
        z = xt[k0:k1, None, :] * conj_g[None, :, :]
        zf = plan.execute(z, axis=2)
        zabs = zf.real * zf.real + zf.imag * zf.imag
        out[k0:k1, :, :q4] = zabs[:, :, :q4]
        out[k0:k1, :, q4:] = zabs[:, :, 3 * q4:]

    run_partitioned(block_ranges(np_, _PAIR_CHUNK), worker, threads)

    f_k = (np.arange(np_) - np_ // 2) / np_
    q_cols = np.concatenate((np.arange(q4), np.arange(-q4, 0))).astype(np.float64)
    return ScdEstimate(
        values=out.reshape(np_ * np_, p // 2),
        f_base=((f_k[:, None] + f_k[None, :]) / 2.0).reshape(-1),
        alpha_base=(f_k[:, None] - f_k[None, :]).reshape(-1),
        col_offsets=q_cols,
        f_slope=0.0,
        alpha_slope=cfg.delta_alpha,
        meta={
            "estimator": "fam",
            "N": cfg.N,
            "Np": cfg.Np,
            "P": cfg.P,
            "precision": cfg.precision,
        },
    )


def fam_full(
    x: np.ndarray,
    cfg: FamConfig,
    threads: int = 1,
    normalize_input: bool = True,
) -> ScdEstimate:
    """Full pipeline: normalize, frame, demodulate, conjugate-multiply."""
    x = np.asarray(x).astype(complex_dtype(cfg.precision), copy=False)
    require_finite(x)
    if normalize_input:
        x = normalize(x)
    return fam_scd(demodulate(frame(x, cfg), cfg), cfg, threads=threads)


def fam_to_grid(est: ScdEstimate, n_f_bins: int, n_alpha_bins: int) -> np.ndarray:
    """Rasterize the diamond-tiled FAM output onto a uniform (f, alpha) grid."""
    return scd_to_grid(est, n_f_bins, n_alpha_bins)

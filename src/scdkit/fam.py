"""FFT accumulation method estimator.

The pipeline is normalize -> frame -> demodulate -> fam_scd. Framing
decimates the input into P windows of Np samples at stride L = Np/4.
Demodulation is the channelizer shared with the SSCA (fftcore.channelize):
each frame, windowed and rolled by its start residue (p mod 4) L, takes one
Np-point FFT that comes out centered and down-converted. The final stage
forms the conjugate product of each channel pair, refines cycle frequency
with a P-point FFT, and keeps the central half of the squared magnitudes;
with a real g, half of the pairs are the conjugate mirror of the other half
and are copied, not transformed. P, an exact power of two, rides in g, so
the forward-scaled FFT runs in place on each block of products and equals
the unscaled one bit for bit, and the squared magnitudes take one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import block_ranges, complex_dtype, is_pow2, real_dtype, run_partitioned
from .errors import ConfigurationError, DimensionError
from .estimate import ScdEstimate, scd_to_grid
from .fftcore import channelize, get_plan
from .signal import WindowSpec, prepare_input, sliding_frames, window_array

_PAIR_CHUNK = 16  # channel rows per conjugate-product task


@dataclass(frozen=True)
class FamConfig:
    """FAM parameter set.

    L and P are pinned to the channelizer size: L = Np/4 and P = 4N/Np.
    The hardware envelope (Np in [16, 256], N in [128, 4096]) is enforced by
    the planner only; the estimator, and the CLI that runs it, accept any
    structurally valid power-of-two combination.
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


def frame(x: np.ndarray, cfg: FamConfig) -> np.ndarray:
    """Decimate x into the Np x P frame matrix out[n, p] = x[p*L + n].

    Frames whose tail extends past the last sample read zeros, which keeps
    P = 4N/Np exact.
    """
    x = np.asarray(x)
    if x.shape != (cfg.N,):
        raise DimensionError(f"input length {x.shape} does not match N={cfg.N}")
    x = x.astype(complex_dtype(cfg.precision), copy=False)
    return np.ascontiguousarray(sliding_frames(x, cfg.Np, 0, cfg.L, cfg.P).T)


def demodulate(frames: np.ndarray, cfg: FamConfig) -> np.ndarray:
    """Window, transform, and phase-correct every frame.

    Row m of the result indexes the channel at f_m = (m - Np/2)/Np; the
    per-frame factor exp(-i 2 pi (m - Np/2) p L / Np), a power of -i,
    compensates the decimation offset of frame p exactly.
    """
    frames = np.asarray(frames)
    if frames.shape != (cfg.Np, cfg.P):
        raise DimensionError(
            f"frame matrix shape {frames.shape} does not match ({cfg.Np}, {cfg.P})"
        )
    a = window_array(cfg.a_window, cfg.Np).astype(real_dtype(cfg.precision))
    # frame p starts at sample p*L, residue (p mod 4)*L mod Np: y[c, j] is
    # frame p = 4j + c
    y = frames.astype(complex_dtype(cfg.precision), copy=False).T.reshape(-1, 4, cfg.Np)
    y = channelize(y.transpose(1, 0, 2), a, cfg.L * np.arange(4))
    return y.transpose(2, 1, 0).reshape(cfg.Np, cfg.P)


def fam_scd(xt: np.ndarray, cfg: FamConfig, threads: int = 1) -> ScdEstimate:
    """Conjugate-multiply every channel pair and refine with a P-point FFT.

    For channels (k, l) the product z[r] = xt[k, r] conj(xt[l, r]) g[r] is
    transformed over the P frames and the squared magnitudes of the central
    P/2 cycle bins are kept, written as the q in [0, P/4) chunk followed by
    the q in [-P/4, 0) chunk. Bin q of pair (k, l) sits at
    f = (f_k + f_l)/2, alpha = (f_k - f_l) + q/N.

    Pair (l, k) holds bin -q mod P of pair (k, l) (S^-alpha = conj(S^alpha)),
    so each block of rows k0:k1 transforms only the pairs with l >= k0. The
    block's products, with P folded into g, are transformed in place by the
    forward-scaled FFT; |Z|^2 of all P bins is formed in one pass, and the
    kept and the mirrored bins are both taken from it.
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
    # P is an exact power of two, so the forward-scaled FFT of z * P equals
    # the unscaled FFT of z bit for bit: P rides in g
    g = window_array(cfg.g_window, p).astype(rdt) * rdt(p)
    conj_g = np.conj(xt) * g[None, :]

    out = np.empty((np_, np_, p // 2), dtype=rdt)

    def worker(bounds):
        # g is real, so |Z_lk[q]|^2 = |Z_kl[-q mod P]|^2: the pairs with l >= k1
        # are mirrored into out[k1:, k0:k1], a slice no other block writes
        k0, k1 = bounds
        z = xt[k0:k1, None, :] * conj_g[None, k0:, :]
        plan.forward(z, axis=2, out=z)
        # square every component in one contiguous pass, then re^2 + im^2 in one
        parts = z.view(rdt)
        np.square(parts, out=parts)
        parts = parts.reshape(z.shape + (2,))
        power = parts[..., 0] + parts[..., 1]
        kept = out[k0:k1, k0:]
        kept[..., :q4] = power[..., :q4]
        kept[..., q4:] = power[..., 3 * q4:]
        # out[l, k, j] for l >= k1 takes bin -q mod P of pair (k, l), q = j or j - P/2
        src = power[:, k1 - k0:].transpose(1, 0, 2)
        mirror = out[k1:, k0:k1]
        mirror[..., 0] = src[..., 0]  # bin 0
        mirror[..., 1:q4] = src[..., p - 1:3 * q4:-1]  # bins P-1 .. 3P/4+1
        mirror[..., q4:] = src[..., q4:0:-1]  # bins P/4 .. 1

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
    x = prepare_input(x, cfg.N, cfg.precision, normalize_input)
    return fam_scd(demodulate(frame(x, cfg), cfg), cfg, threads=threads)


def fam_to_grid(est: ScdEstimate, n_f_bins: int, n_alpha_bins: int) -> np.ndarray:
    """Rasterize the diamond-tiled FAM output onto a uniform (f, alpha) grid."""
    return scd_to_grid(est, n_f_bins, n_alpha_bins)

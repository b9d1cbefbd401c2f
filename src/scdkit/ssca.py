"""Strip spectral correlation analyser.

The channelizer data product multiplies each sliding complex demodulate by
the conjugate of the raw signal; one length-N transform per channel then
covers a strip of the (f, alpha) plane. Two interchangeable back ends
compute that transform: a direct N-point FFT per channel, and a two-stage
M1 x M2 decomposition whose stage-1 output can be spilled to disk when the
intermediate matrix exceeds the configured in-memory cap. Both back ends
produce bit-identical magnitudes.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from ._util import (block_ranges, complex_dtype, is_pow2, real_dtype, require_finite,
                    run_partitioned)
from .errors import CapacityError, ConfigurationError, DimensionError
from .estimate import ScdEstimate, scd_to_grid
from .fftcore import get_plan, shift_indices
from .signal import WindowSpec, normalize, window_array

_CDP_BLOCK_ELEMS = 1 << 21   # CDP rows are built in blocks of about this many values
_DIRECT_COL_ELEMS = 1 << 23  # column-FFT workspace bound for the direct back end


def _default_split(n: int, np_channels: int) -> tuple[int, int]:
    # balanced stage sizes, nudged so stage 2 is a multiple of the
    # channelizer size and neither stage exceeds 1024 points
    log2n = n.bit_length() - 1
    m2 = 1 << ((log2n + 1) // 2)
    m2 = max(m2, np_channels, n // 1024)
    m2 = min(m2, 1024)
    return n // m2, m2


@dataclass(frozen=True)
class SscaConfig:
    """SSCA parameter set.

    N is the strip length (one transform bin per sample), Np the channelizer
    size, and M1 x M2 = N the stage sizes of the decomposed back end. M2
    must be divisible by Np so the down-conversion phase repeats cleanly
    across stage-1 rows. mem_cap_values bounds how many complex values are
    held in memory at once; past it the decomposed back end streams stage-1
    results through a spill file read back with a widened stride
    (spill_read_factor rows per fetch).
    """

    N: int
    Np: int
    M1: int | None = None
    M2: int | None = None
    a_window: WindowSpec | None = None
    g_window: WindowSpec | None = None
    mode: str = "decomposed_2d"
    precision: str = "f32"
    mem_cap_values: int = 1 << 24
    spill_dir: str | None = None
    spill_read_factor: int = 8

    def __post_init__(self):
        if not is_pow2(self.N) or not (1 << 12) <= self.N <= (1 << 20):
            raise ConfigurationError("N must be a power of two in [2^12, 2^20]")
        if not is_pow2(self.Np) or not (1 << 5) <= self.Np <= (1 << 8):
            raise ConfigurationError("Np must be a power of two in [2^5, 2^8]")
        if self.M1 is None and self.M2 is None:
            m1, m2 = _default_split(self.N, self.Np)
            object.__setattr__(self, "M1", m1)
            object.__setattr__(self, "M2", m2)
        elif self.M1 is None:
            object.__setattr__(self, "M1", self.N // self.M2)
        elif self.M2 is None:
            object.__setattr__(self, "M2", self.N // self.M1)
        if not (is_pow2(self.M1) and is_pow2(self.M2)):
            raise ConfigurationError("M1 and M2 must be powers of two")
        if self.M1 * self.M2 != self.N:
            raise ConfigurationError(f"M1*M2 = {self.M1 * self.M2} must equal N = {self.N}")
        if self.M1 > 1024 or self.M2 > 1024:
            raise ConfigurationError("stage sizes M1 and M2 must be <= 1024")
        if self.M2 % self.Np != 0:
            raise ConfigurationError(
                "M2 must be divisible by Np (the simplified per-row down-conversion "
                "term is only valid then)"
            )
        if self.mode not in ("direct_1d", "decomposed_2d"):
            raise ConfigurationError("mode must be 'direct_1d' or 'decomposed_2d'")
        complex_dtype(self.precision)
        if self.mem_cap_values < 1:
            raise ConfigurationError("mem_cap_values must be positive")
        if self.spill_read_factor < 1:
            raise ConfigurationError("spill_read_factor must be >= 1")
        if self.a_window is None:
            object.__setattr__(self, "a_window", WindowSpec("chebyshev", self.Np))
        if self.g_window is None:
            object.__setattr__(self, "g_window", WindowSpec("rectangular", self.N))
        if self.a_window.length != self.Np:
            raise ConfigurationError("a_window length must equal Np")
        if self.g_window.length != self.N:
            raise ConfigurationError("g_window length must equal N")

    @property
    def delta_alpha(self) -> float:
        return 1.0 / self.N

    def with_mode(self, mode: str) -> "SscaConfig":
        return replace(self, mode=mode)

    def with_precision(self, precision: str) -> "SscaConfig":
        return replace(self, precision=precision)


class _CdpKernel:
    """Produces rows of the channelizer data product on demand.

    Row n holds, for every channel k, the windowed Np-point spectrum of the
    slice centered at sample n, down-converted by exp(-i 2 pi (k - Np/2) n / Np)
    and scaled by conj(x[n]) g[n]. The input is zero-padded by Np/2 on both
    ends so all N rows exist.
    """

    def __init__(self, x: np.ndarray, cfg: SscaConfig):
        cdt = complex_dtype(cfg.precision)
        rdt = real_dtype(cfg.precision)
        np_ch = cfg.Np
        self.cfg = cfg
        self.plan = get_plan(np_ch)
        self.window = window_array(cfg.a_window, np_ch).astype(rdt)
        self.shift = shift_indices(np_ch)
        self.xpad = np.zeros(cfg.N + np_ch, dtype=cdt)
        self.xpad[np_ch // 2: np_ch // 2 + cfg.N] = x
        g = window_array(cfg.g_window, cfg.N).astype(rdt)
        self.scale = np.conj(x) * g
        # down-conversion repeats with period Np in n
        k_signed = np.arange(np_ch) - np_ch // 2
        tab = np.exp((-2j * np.pi / np_ch) * np.outer(np.arange(np_ch), k_signed))
        self.phase_by_residue = tab.astype(cdt)

    def rows(self, n_idx: np.ndarray) -> np.ndarray:
        np_ch = self.cfg.Np
        fr = self.xpad[n_idx[:, None] + np.arange(np_ch)[None, :]]
        fr *= self.window[None, :]
        spec = self.plan.execute(fr, axis=1)
        spec = spec[:, self.shift]
        spec *= self.phase_by_residue[n_idx % np_ch]
        spec *= self.scale[n_idx][:, None]
        return spec


def _prepare_input(x: np.ndarray, cfg: SscaConfig, normalize_input: bool) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (cfg.N,):
        raise DimensionError(f"input length {x.shape} does not match N={cfg.N}")
    x = x.astype(complex_dtype(cfg.precision), copy=False)
    require_finite(x)
    return normalize(x) if normalize_input else x


def cdp(x: np.ndarray, cfg: SscaConfig) -> np.ndarray:
    """Full N x Np channelizer data product (memory permitting)."""
    if cfg.N * cfg.Np > cfg.mem_cap_values:
        raise CapacityError(
            f"CDP of {cfg.N} x {cfg.Np} values exceeds mem_cap_values={cfg.mem_cap_values}"
        )
    x = _prepare_input(x, cfg, normalize_input=False)
    kernel = _CdpKernel(x, cfg)
    out = np.empty((cfg.N, cfg.Np), dtype=complex_dtype(cfg.precision))
    block = max(1, _CDP_BLOCK_ELEMS // cfg.Np)
    for r0, r1 in block_ranges(cfg.N, block):
        out[r0:r1] = kernel.rows(np.arange(r0, r1))
    return out


def _estimate_from_values(values: np.ndarray, cfg: SscaConfig, backend: str) -> ScdEstimate:
    k_signed = np.arange(cfg.Np) - cfg.Np // 2
    return ScdEstimate(
        values=values,
        f_base=k_signed / (2.0 * cfg.Np),
        alpha_base=k_signed / float(cfg.Np),
        col_offsets=(np.arange(cfg.N) - cfg.N // 2).astype(np.float64),
        f_slope=-0.5 / cfg.N,
        alpha_slope=1.0 / cfg.N,
        meta={
            "estimator": backend,
            "N": cfg.N,
            "Np": cfg.Np,
            "M1": cfg.M1,
            "M2": cfg.M2,
            "precision": cfg.precision,
        },
    )


def ssca_direct(
    x: np.ndarray,
    cfg: SscaConfig,
    threads: int = 1,
    normalize_input: bool = True,
) -> ScdEstimate:
    """Direct back end: one N-point FFT per channel of the CDP.

    Shifted bin q in [-N/2, N/2) of channel k maps to alpha = f_k + q/N and
    f = (f_k - q/N)/2. Requires the full CDP in memory; raises
    CapacityError past mem_cap_values.
    """
    if cfg.mode != "direct_1d":
        raise ConfigurationError("ssca_direct requires cfg.mode == 'direct_1d'")
    if cfg.N * cfg.Np > cfg.mem_cap_values:
        raise CapacityError(
            f"direct back end needs {cfg.N} x {cfg.Np} complex values in memory, "
            f"over mem_cap_values={cfg.mem_cap_values}"
        )
    x = _prepare_input(x, cfg, normalize_input)
    kernel = _CdpKernel(x, cfg)
    cdt = complex_dtype(cfg.precision)
    cdp_mat = np.empty((cfg.N, cfg.Np), dtype=cdt)
    block = max(1, _CDP_BLOCK_ELEMS // cfg.Np)
    for r0, r1 in block_ranges(cfg.N, block):
        cdp_mat[r0:r1] = kernel.rows(np.arange(r0, r1))

    plan = get_plan(cfg.N)
    shift = shift_indices(cfg.N)
    values = np.empty((cfg.Np, cfg.N), dtype=real_dtype(cfg.precision))
    cols_per_task = max(1, _DIRECT_COL_ELEMS // cfg.N)

    def worker(bounds):
        k0, k1 = bounds
        cols = np.ascontiguousarray(cdp_mat[:, k0:k1].T)
        spec = plan.execute(cols, axis=1)
        values[k0:k1] = np.abs(spec)[:, shift]

    run_partitioned(block_ranges(cfg.Np, cols_per_task), worker, threads)
    return _estimate_from_values(values, cfg, "ssca_direct")


def _rotation_column(m2: int, m1: int, n: int, cdt) -> np.ndarray:
    return np.exp((-2j * np.pi / n) * (np.arange(m1) * m2)).astype(cdt)


def _ssca_2dfft_in_memory(kernel: _CdpKernel, cfg: SscaConfig, threads: int) -> np.ndarray:
    cdt = complex_dtype(cfg.precision)
    m1, m2, np_ch, n = cfg.M1, cfg.M2, cfg.Np, cfg.N
    cube = np.empty((m1, m2, np_ch), dtype=cdt)
    block = max(1, _CDP_BLOCK_ELEMS // np_ch)
    for r0, r1 in block_ranges(n, block):
        cube.reshape(n, np_ch)[r0:r1] = kernel.rows(np.arange(r0, r1))
    s1 = get_plan(m1).execute(cube, axis=0)
    del cube
    rot = np.exp((-2j * np.pi / n) * np.outer(np.arange(m1), np.arange(m2))).astype(cdt)
    s1 *= rot[:, :, None]
    s2 = get_plan(m2).execute(s1, axis=1)
    del s1
    # global bin b = M1*m2' + m1'
    flat = np.ascontiguousarray(s2.transpose(1, 0, 2)).reshape(n, np_ch)
    del s2
    shifted = flat[shift_indices(n), :]
    return np.ascontiguousarray(np.abs(shifted).T)


def _ssca_2dfft_spilled(kernel: _CdpKernel, cfg: SscaConfig) -> np.ndarray:
    cdt = complex_dtype(cfg.precision)
    m1, m2, np_ch, n = cfg.M1, cfg.M2, cfg.Np, cfg.N
    plan1, plan2 = get_plan(m1), get_plan(m2)
    fd, path = tempfile.mkstemp(suffix=".stage1", dir=cfg.spill_dir)
    os.close(fd)
    try:
        # stage 1: sequential row blocks of M1 x Np, one per m2
        spill = np.memmap(path, dtype=cdt, mode="w+", shape=(m2, m1, np_ch))
        for col in range(m2):
            n_idx = np.arange(m1) * m2 + col
            strip = kernel.rows(n_idx)
            s1 = plan1.execute(strip, axis=0)
            s1 *= _rotation_column(col, m1, n, cdt)[:, None]
            spill[col] = s1
        spill.flush()

        # stage 2: strided reads widened by the configured block factor
        values = np.empty((np_ch, n), dtype=real_dtype(cfg.precision))
        read = np.memmap(path, dtype=cdt, mode="r", shape=(m2, m1, np_ch))
        width = cfg.spill_read_factor
        half = n // 2
        for b0, b1 in block_ranges(m1, width):
            sub = np.asarray(read[:, b0:b1, :])
            s2 = plan2.execute(sub, axis=0)
            bins = m1 * np.arange(m2)[:, None] + np.arange(b0, b1)[None, :]
            shifted = (bins + half) % n
            values[:, shifted.reshape(-1)] = np.abs(s2).reshape(m2 * (b1 - b0), np_ch).T
        del read, spill
    finally:
        os.unlink(path)
    return values


def ssca_2dfft(
    x: np.ndarray,
    cfg: SscaConfig,
    threads: int = 1,
    normalize_input: bool = True,
) -> ScdEstimate:
    """Decomposed back end: stage-1 M1-point FFTs with rotation factors,
    stage-2 M2-point FFTs, and the bin map g = M1*m2' + m1' - N/2.

    CDP rows are generated in the order each stage consumes them, so the
    full N x Np product never has to exist at once. When N*Np exceeds the
    in-memory cap, stage-1 results stream through a spill file.
    """
    if cfg.mode != "decomposed_2d":
        raise ConfigurationError("ssca_2dfft requires cfg.mode == 'decomposed_2d'")
    x = _prepare_input(x, cfg, normalize_input)
    kernel = _CdpKernel(x, cfg)
    if cfg.N * cfg.Np <= cfg.mem_cap_values:
        values = _ssca_2dfft_in_memory(kernel, cfg, threads)
    else:
        values = _ssca_2dfft_spilled(kernel, cfg)
    return _estimate_from_values(values, cfg, "ssca_2dfft")


def ssca_full(
    x: np.ndarray,
    cfg: SscaConfig,
    threads: int = 1,
    normalize_input: bool = True,
) -> ScdEstimate:
    """Run whichever back end the configuration selects."""
    if cfg.mode == "direct_1d":
        return ssca_direct(x, cfg, threads=threads, normalize_input=normalize_input)
    return ssca_2dfft(x, cfg, threads=threads, normalize_input=normalize_input)


def ssca_to_grid(est: ScdEstimate, n_f_bins: int, n_alpha_bins: int) -> np.ndarray:
    """Rasterize the strip-tiled SSCA output onto a uniform (f, alpha) grid."""
    return scd_to_grid(est, n_f_bins, n_alpha_bins)

"""Strip spectral correlation analyser.

The channelizer data product multiplies each sliding complex demodulate by
the conjugate of the raw signal; one length-N transform per channel then
covers a strip of the (f, alpha) plane. Two interchangeable back ends
compute that transform: a direct N-point FFT per channel, and a two-stage
M1 x M2 decomposition (the four-step scheme for FFTs in hierarchical
memory) whose stage 1 streams column strips into a channel-major
(Np, M2, M1) store, the layout of the values, and whose stage 2 transforms
one whole channel at a time, in place. Stage 1 stages groups of columns
channel-major, so the store is a plain array written by slice copies, or a
spill file past the in-memory cap, written with one os.pwrite per channel
per group and read with one os.preadv per channel (POSIX), never mapped, so
the cap bounds resident memory. Both stores produce bit-identical
magnitudes.

The CDP rows and both stages of the decomposed back end run their FFTs
forward-scaled (FftPlan.forward, X / size), and each size rides in a factor
that is multiplied in anyway: Np in the channelizer's window, N = M1*M2 in
the rotation factors. Scaling by a power of two is exact, so the values
equal those of unscaled FFTs bit for bit, with no rescaling pass over the
data.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from ._util import (block_ranges, complex_dtype, default_split, is_pow2, real_dtype,
                    run_partitioned)
from .errors import CapacityError, ConfigurationError
from .estimate import ScdEstimate, scd_to_grid
from .fftcore import channelize, get_plan, rotation_factors
from .signal import WindowSpec, prepare_input, sliding_frames, window_array

_CDP_BLOCK_ELEMS = 1 << 21   # CDP rows are built in blocks of about this many values
_STRIP_ELEMS = 1 << 16       # values per stage-1 strip batch
_GROUP_ELEMS = 1 << 20       # stage-1 values staged channel-major per store write
# rows of stage 2's buffer and of the direct CDP are this many complex values
# longer than a power of two, so a pass across rows does not hit one cache set
_PAD = 8


@dataclass(frozen=True)
class SscaConfig:
    """SSCA parameter set.

    N is the strip length (one transform bin per sample), Np the channelizer
    size, and M1 x M2 = N the stage sizes of the decomposed back end. M2
    must be divisible by Np so the down-conversion phase repeats cleanly
    across stage-1 rows. mem_cap_values bounds how many complex values are
    held in memory at once. The direct back end and cdp() refuse to run past
    it; the decomposed back end then keeps its stage-1 output in a spill
    file in spill_dir instead of an array, written with os.pwrite and read
    with os.preadv, so the cap bounds resident memory, not only the array.
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

    def __post_init__(self):
        if not is_pow2(self.N) or not (1 << 12) <= self.N <= (1 << 20):
            raise ConfigurationError("N must be a power of two in [2^12, 2^20]")
        if not is_pow2(self.Np) or not (1 << 5) <= self.Np <= (1 << 8):
            raise ConfigurationError("Np must be a power of two in [2^5, 2^8]")
        if self.M1 is None and self.M2 is None:
            m1, m2 = default_split(self.N, self.Np)
            object.__setattr__(self, "M1", m1)
            object.__setattr__(self, "M2", m2)
        elif self.M1 is None:  # max(): a split below 1 fails is_pow2, not the division
            object.__setattr__(self, "M1", self.N // max(self.M2, 1))
        elif self.M2 is None:
            object.__setattr__(self, "M2", self.N // max(self.M1, 1))
        if not (is_pow2(self.M1) and is_pow2(self.M2)):
            raise ConfigurationError("M1 and M2 must be powers of two")
        if self.M1 * self.M2 != self.N:
            raise ConfigurationError(f"M1*M2 = {self.M1 * self.M2} must equal N = {self.N}")
        if self.M1 > 1024 or self.M2 > 1024:
            raise ConfigurationError("stage sizes M1 and M2 must be <= 1024")
        if self.M2 % self.Np != 0:
            raise ConfigurationError(
                f"M2={self.M2} must be divisible by Np={self.Np} (the simplified "
                "per-row down-conversion term is only valid then)"
            )
        if self.mode not in ("direct_1d", "decomposed_2d"):
            raise ConfigurationError("mode must be 'direct_1d' or 'decomposed_2d'")
        complex_dtype(self.precision)
        if self.mem_cap_values < 1:
            raise ConfigurationError("mem_cap_values must be positive")
        if self.a_window is None:
            object.__setattr__(self, "a_window", WindowSpec("chebyshev", self.Np))
        if self.g_window is None:
            object.__setattr__(self, "g_window", WindowSpec("rectangular", self.N))
        if self.a_window.length != self.Np:
            raise ConfigurationError("a_window length must equal Np")
        if self.g_window.length != self.N:
            raise ConfigurationError("g_window length must equal N")


class _CdpKernel:
    """Produces rows of the channelizer data product on demand.

    Row n holds, for every channel k, the windowed Np-point spectrum of the
    slice centered at sample n, down-converted by exp(-i 2 pi (k - Np/2) n / Np)
    and scaled by conj(x[n]) g[n]. The input is zero-padded by Np/2 on both
    ends so all N rows exist.
    """

    def __init__(self, x: np.ndarray, cfg: SscaConfig):
        rdt = real_dtype(cfg.precision)
        np_ch = cfg.Np
        self.cfg = cfg
        self.window = window_array(cfg.a_window, np_ch).astype(rdt)
        # windows[n] is the slice centered at sample n: a view, no copy
        self.windows = sliding_frames(x, np_ch, np_ch // 2, 1, cfg.N)
        g = window_array(cfg.g_window, cfg.N).astype(rdt)
        self.scale = np.conj(x) * g

    def rows(self, c0: int, c1: int, stride: int, out=None) -> np.ndarray:
        """CDP rows n = c + m*stride for c in [c0, c1) and m in [0, N/stride).

        Returned shaped (c1 - c0, N // stride, Np), in out if given.
        stride = N gives the consecutive rows c0..c1; stride = M2 gives
        stage-1 column strips. stride is a multiple of Np, so every row of
        column c starts on residue c % Np, and every input is a view.
        """
        n, np_ch = self.cfg.N, self.cfg.Np
        per_col = n // stride
        windows = self.windows.reshape(per_col, stride, np_ch)[:, c0:c1].transpose(1, 0, 2)
        out = channelize(windows, self.window, np.arange(c0, c1), out)
        out *= self.scale.reshape(per_col, stride)[:, c0:c1].T[:, :, None]
        return out


def _cdp_matrix(x: np.ndarray, cfg: SscaConfig, normalize_input: bool) -> np.ndarray:
    if cfg.N * cfg.Np > cfg.mem_cap_values:
        raise CapacityError(
            f"the full {cfg.N} x {cfg.Np} CDP does not fit in "
            f"mem_cap_values={cfg.mem_cap_values} complex values"
        )
    kernel = _CdpKernel(prepare_input(x, cfg.N, cfg.precision, normalize_input), cfg)
    # channel-major (Np, N) in padded rows: the channelizer's FFT writes each block there
    out = np.empty((cfg.Np, cfg.N + _PAD), dtype=complex_dtype(cfg.precision))[:, :cfg.N]
    for r0, r1 in block_ranges(cfg.N, max(1, _CDP_BLOCK_ELEMS // cfg.Np)):
        kernel.rows(r0, r1, cfg.N, out[:, r0:r1].T[:, None])
    return out


def cdp(x: np.ndarray, cfg: SscaConfig) -> np.ndarray:
    """Full N x Np channelizer data product (memory permitting), a transposed view."""
    return _cdp_matrix(x, cfg, normalize_input=False).T


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
    f = (f_k - q/N)/2. Requires the full CDP in memory, raises CapacityError
    past mem_cap_values, and transforms max(1, threads) blocks of it in place.
    """
    if cfg.mode != "direct_1d":
        raise ConfigurationError("ssca_direct requires cfg.mode == 'direct_1d'")
    cdp_mat = _cdp_matrix(x, cfg, normalize_input)
    plan = get_plan(cfg.N)
    values = np.empty((cfg.Np, cfg.N), dtype=real_dtype(cfg.precision))
    h = cfg.N // 2

    def worker(bounds):
        k0, k1 = bounds
        block = cdp_mat[k0:k1]
        plan.forward(block, axis=1, out=block)
        block *= cfg.N  # an exact power of two: the unscaled FFT bit for bit
        # the fft shift by N/2 swaps the two halves of each channel
        np.abs(block[:, h:], out=values[k0:k1, :h])
        np.abs(block[:, :h], out=values[k0:k1, h:])

    run_partitioned(block_ranges(cfg.Np, -(-cfg.Np // max(1, threads))), worker, threads)
    return _estimate_from_values(values, cfg, "ssca_direct")


class _ArrayStore:
    """Stage-1 output held in memory, laid out (Np, M2, M1).

    A channel-major block of columns c0:c1 is one slice copy in; channel k
    is one copy out.
    """

    kind = "array"

    def __init__(self, shape: tuple, dtype):
        self.a = np.empty(shape, dtype=dtype)

    def write(self, c0: int, c1: int, block: np.ndarray) -> None:
        self.a[:, c0:c1] = block

    def read(self, k: int, out: np.ndarray) -> None:
        np.copyto(out, self.a[k])


class _FileStore:
    """Stage-1 output in a spill file, laid out (Np, M2, M1).

    A channel-major block of columns c0:c1 is one contiguous run per
    channel, each written with os.pwrite; channel k is one contiguous run
    of the file, read with one os.preadv straight into the M2 rows of the
    caller's buffer. Nothing is mapped, so the file adds no resident memory.
    """

    kind = "file"

    def __init__(self, fd: int, path: str, shape: tuple, dtype):
        self.fd, self.path = fd, path
        self.col = shape[2] * np.dtype(dtype).itemsize  # bytes of one stage-1 column
        self.channel = shape[1] * self.col             # bytes of one channel

    def write(self, c0: int, c1: int, block: np.ndarray) -> None:
        for k, run in enumerate(block):
            data = memoryview(run.reshape(-1).view(np.uint8))
            offset = k * self.channel + c0 * self.col
            while data:
                done = os.pwrite(self.fd, data, offset)
                if done == 0:
                    raise CapacityError(f"spill file {self.path}: write made no progress")
                data, offset = data[done:], offset + done

    def read(self, k: int, out: np.ndarray) -> None:
        # one buffer per row: M2 <= 1024 keeps this within Linux's IOV_MAX of 1024
        offset = k * self.channel
        got = os.preadv(self.fd, list(out), offset)
        if got != self.channel:
            # out is a reused buffer: a short read would feed stale values to the FFT
            raise CapacityError(
                f"spill file {self.path}: read {got} of {self.channel} bytes at offset {offset}"
            )


def _stream_stages(kernel: _CdpKernel, cfg: SscaConfig, store) -> np.ndarray:
    m1, m2, np_ch, n = cfg.M1, cfg.M2, cfg.Np, cfg.N
    cdt = complex_dtype(cfg.precision)
    plan1, plan2 = get_plan(m1), get_plan(m2)
    # Both stage FFTs run forward-scaled and the rotation table carries
    # N = M1*M2 for both: stage 1 stores M2 times the unscaled values, and
    # the forward-scaled M2-point FFT of M2*s is exactly the FFT of s.
    # stage 1: M1 x Np column strips, CDP rows n = M2*m1 + m2 for each
    # column m2; small strips are batched so the loop runs fewer times.
    # The rotation multiply writes each group of columns channel-major into
    # one staging block, which the store takes in whole runs per channel.
    width = max(1, _STRIP_ELEMS // (m1 * np_ch))
    group = min(m2, max(1, _GROUP_ELEMS // (m1 * np_ch)))
    stage = np.empty((np_ch, group, m1), dtype=cdt)
    for g0, g1 in block_ranges(m2, group):
        for c0 in range(g0, g1, width):
            c1 = min(c0 + width, g1)
            s1 = kernel.rows(c0, c1, m2)
            plan1.forward(s1, axis=1, out=s1)
            rot = rotation_factors(m1, np.arange(c0, c1), n, cdt)
            rot *= n
            np.multiply(s1.transpose(2, 0, 1), rot.T, out=stage[:, c0 - g0:c1 - g0])
        store.write(g0, g1, stage[:, :g1 - g0])
    del stage, s1  # stage 1's buffers go before the values are allocated

    # stage 2: one channel at a time, fetched into one reused (M2, M1)
    # buffer whose rows are padded off the power-of-two stride and
    # transformed in place
    values = np.empty((np_ch, m2, m1), dtype=real_dtype(cfg.precision))
    # global bin M1*m2' + m1' sits at column M1*((m2' + M2/2) % M2) + m1'
    # after the fft shift by N/2 (M2 is even), so the shift swaps the two
    # M2 halves of each channel
    h = m2 // 2
    buf = np.empty((m2, m1 + _PAD), dtype=cdt)[:, :m1]
    for k in range(np_ch):
        store.read(k, buf)
        plan2.forward(buf, axis=0, out=buf)
        np.abs(buf[:h], out=values[k, h:])
        np.abs(buf[h:], out=values[k, :h])
    return values.reshape(np_ch, n)


@contextlib.contextmanager
def _spill_file(cfg: SscaConfig, shape: tuple, dtype):
    """File store on a temporary stage-1 file in the spill directory.

    Free space is checked before the file exists. Any OSError of the file
    (create, write, read) is re-raised as a CapacityError naming it, and the
    file is removed however the block exits.
    """
    spill_dir = cfg.spill_dir or tempfile.gettempdir()
    need = cfg.N * cfg.Np * np.dtype(dtype).itemsize
    try:
        free = shutil.disk_usage(spill_dir).free
        if free < need:
            raise CapacityError(
                f"spill directory {spill_dir} has {free} bytes free, "
                f"stage 1 needs {need} bytes"
            )
        fd, path = tempfile.mkstemp(suffix=".stage1", dir=spill_dir)
    except OSError as exc:
        raise CapacityError(f"cannot create a spill file in {spill_dir}: {exc}") from exc
    try:
        yield _FileStore(fd, path, shape, dtype)
    except OSError as exc:
        raise CapacityError(f"spill file {path}: {exc}") from exc
    finally:
        os.close(fd)
        os.unlink(path)


def ssca_2dfft(
    x: np.ndarray,
    cfg: SscaConfig,
    normalize_input: bool = True,
) -> ScdEstimate:
    """Decomposed back end: stage-1 M1-point FFTs with rotation factors,
    stage-2 M2-point FFTs, and the bin map g = M1*m2' + m1' - N/2.

    CDP rows are generated one stage-1 column strip at a time, so the full
    N x Np product never exists at once. The Np x M2 x M1 stage-1 output is
    an array when N*Np fits under mem_cap_values and a spill file past it,
    written with os.pwrite in one run per channel per group of columns and
    read back with os.preadv; both run the same
    code and give bit-identical values. meta records the store taken
    ("stage1_store": "array" or "file") and the bytes spilled.
    """
    if cfg.mode != "decomposed_2d":
        raise ConfigurationError("ssca_2dfft requires cfg.mode == 'decomposed_2d'")
    kernel = _CdpKernel(prepare_input(x, cfg.N, cfg.precision, normalize_input), cfg)
    shape = (cfg.Np, cfg.M2, cfg.M1)
    cdt = complex_dtype(cfg.precision)
    if cfg.N * cfg.Np <= cfg.mem_cap_values:
        store = _ArrayStore(shape, cdt)
        values = _stream_stages(kernel, cfg, store)
        spill_bytes = 0
    else:
        with _spill_file(cfg, shape, cdt) as store:
            values = _stream_stages(kernel, cfg, store)
        spill_bytes = cfg.N * cfg.Np * np.dtype(cdt).itemsize
    est = _estimate_from_values(values, cfg, "ssca_2dfft")
    est.meta.update(stage1_store=store.kind, spill_bytes=spill_bytes)
    return est


def ssca_full(
    x: np.ndarray,
    cfg: SscaConfig,
    threads: int = 1,
    normalize_input: bool = True,
) -> ScdEstimate:
    """Run whichever back end the configuration selects."""
    if cfg.mode == "direct_1d":
        return ssca_direct(x, cfg, threads=threads, normalize_input=normalize_input)
    return ssca_2dfft(x, cfg, normalize_input=normalize_input)


def ssca_to_grid(est: ScdEstimate, n_f_bins: int, n_alpha_bins: int) -> np.ndarray:
    """Rasterize the strip-tiled SSCA output onto a uniform (f, alpha) grid."""
    return scd_to_grid(est, n_f_bins, n_alpha_bins)

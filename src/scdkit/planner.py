"""Tile-count and interface planning for the accelerator mapping.

A pure calculator: it evaluates the closed-form tile budgets of both
estimator pipelines against the device model (400 compute tiles, 16 KB
usable per input buffer, 234 array-to-fabric streams) and flags any
violated constraint. It makes no throughput claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._util import is_pow2
from .errors import ConfigurationError

_COMPLEX_BYTES = 8  # single-precision complex


@dataclass(frozen=True)
class DeviceModel:
    """Fixed constants of the targeted compute-array device."""

    tile_mem_bytes: int = 32768
    input_buffer_bytes: int = 16384
    buffer_complex_floats: int = 2048  # F: complex floats per input buffer
    max_plio_streams: int = 234
    total_tiles_available: int = 400


@dataclass
class PlanReport:
    """Tile counts per stage plus buffer, stream, and memory requirements."""

    estimator: str
    params: dict
    stage_tiles: dict
    total_tiles: int
    buffer_bytes_per_kernel: int
    plio_streams: int
    ddr_required: bool
    violations: list = field(default_factory=list)


def check_constraints(report: PlanReport, dev: DeviceModel) -> list:
    """Empty iff tiles, streams, and per-kernel buffers all fit the device."""
    violations = []
    if report.total_tiles > dev.total_tiles_available:
        violations.append(
            f"total_tiles {report.total_tiles} exceeds {dev.total_tiles_available} available"
        )
    if report.plio_streams > dev.max_plio_streams:
        violations.append(
            f"plio_streams {report.plio_streams} exceeds {dev.max_plio_streams} available"
        )
    if report.buffer_bytes_per_kernel > dev.input_buffer_bytes:
        violations.append(
            f"buffer_bytes_per_kernel {report.buffer_bytes_per_kernel} exceeds "
            f"{dev.input_buffer_bytes} usable"
        )
    return violations


def plan_fam(n: int, np_channels: int, dev: DeviceModel = DeviceModel()) -> PlanReport:
    """Tile budget for the frame/demodulate/conjugate-multiply pipeline.

    The intermediate demodulate matrix holds 4N complex values, so it needs
    ceil(4N/F) stage-1 kernels fed by ceil(4N/2F) aggregators, one
    normalization kernel plus ceil(4N/2F) distribution kernels up front, and
    min(Np, 128) kernels in the final stage.
    """
    if not (is_pow2(n) and is_pow2(np_channels)):
        raise ConfigurationError("N and Np must be powers of two")
    if not (1 << 4) <= np_channels <= (1 << 8):
        raise ConfigurationError("planner envelope: Np must lie in [2^4, 2^8]")
    if not (1 << 7) <= n <= (1 << 12):
        raise ConfigurationError("planner envelope: N must lie in [2^7, 2^12]")
    f = dev.buffer_complex_floats
    channel_kernels = math.ceil(4 * n / (2 * f))
    stage1_kernels = math.ceil(4 * n / f)
    fft2_kernels = min(np_channels, 128)
    stage_tiles = {
        "framing": 1 + channel_kernels,
        "demodulate": channel_kernels + stage1_kernels,
        "fft2": fft2_kernels,
    }
    total = 1 + channel_kernels + (channel_kernels + stage1_kernels) + fft2_kernels
    assert total == sum(stage_tiles.values()), "stage split disagrees with closed form"
    report = PlanReport(
        estimator="fam",
        params={"N": n, "Np": np_channels},
        stage_tiles=stage_tiles,
        total_tiles=total,
        buffer_bytes_per_kernel=_COMPLEX_BYTES * min(4 * n, f),
        plio_streams=min(np_channels, 128),
        ddr_required=False,
    )
    report.violations = check_constraints(report, dev)
    return report


def plan_ssca(
    n: int, np_channels: int, m1: int, dev: DeviceModel = DeviceModel()
) -> PlanReport:
    """Tile budget for the strip analyser with a decomposed M1 x M2 transform.

    The channelizer product needs one tile for down-conversion and conjugate
    multiplication plus ceil(log2(Np)/2) for its FFT; the two-stage
    transform needs ceil(log2(M1)/2) + ceil(log2(M2)/2) plus one tile for
    the rotation factors. Off-chip memory is required once the intermediate
    matrix exceeds 2^20 complex values.
    """
    if not (is_pow2(n) and is_pow2(np_channels) and is_pow2(m1)):
        raise ConfigurationError("N, Np, and M1 must be powers of two")
    if not (1 << 5) <= np_channels <= (1 << 8):
        raise ConfigurationError("planner envelope: Np must lie in [2^5, 2^8]")
    if not (1 << 12) <= n <= (1 << 20):
        raise ConfigurationError("planner envelope: N must lie in [2^12, 2^20]")
    if n % m1 != 0:
        raise ConfigurationError(f"M1={m1} does not divide N={n}")
    m2 = n // m1
    if m1 > 1024 or m2 > 1024 or m1 < 2 or m2 < 2:
        raise ConfigurationError("stage sizes M1 and M2 must lie in [2, 1024]")
    a_cdp = 1 + math.ceil(math.log2(np_channels) / 2)
    a_2dfft = math.ceil(math.log2(m1) / 2) + 1 + math.ceil(math.log2(m2) / 2)
    stage_tiles = {"cdp": a_cdp, "fft_2d": a_2dfft}
    total = a_cdp + a_2dfft
    assert total == sum(stage_tiles.values()), "stage split disagrees with closed form"
    report = PlanReport(
        estimator="ssca",
        params={"N": n, "Np": np_channels, "M1": m1, "M2": m2},
        stage_tiles=stage_tiles,
        total_tiles=total,
        # ping-pong pair of the largest per-stage working vector
        buffer_bytes_per_kernel=2 * _COMPLEX_BYTES * max(m1, m2, np_channels),
        # even/odd stream pair in and out of each of the three kernels,
        # plus the rotation-parameter stream
        plio_streams=13,
        ddr_required=n * np_channels > (1 << 20),
    )
    report.violations = check_constraints(report, dev)
    return report


def format_report(report: PlanReport) -> str:
    """Human-readable block followed by machine-readable key=value lines."""
    lines = [f"{report.estimator.upper()} plan for " + ", ".join(
        f"{k}={v}" for k, v in report.params.items()
    )]
    for stage, tiles in report.stage_tiles.items():
        lines.append(f"  {stage:<12} {tiles:>4} tiles")
    lines.append(f"  {'total':<12} {report.total_tiles:>4} tiles")
    lines.append("")
    for k, v in report.params.items():
        lines.append(f"{k.lower()}={v}")
    for stage, tiles in report.stage_tiles.items():
        lines.append(f"tiles.{stage}={tiles}")
    lines.append(f"total_tiles={report.total_tiles}")
    lines.append(f"buffer_bytes_per_kernel={report.buffer_bytes_per_kernel}")
    lines.append(f"plio_streams={report.plio_streams}")
    lines.append(f"ddr_required={'true' if report.ddr_required else 'false'}")
    if report.violations:
        for v in report.violations:
            lines.append(f"violation={v}")
    else:
        lines.append("violations=none")
    return "\n".join(lines)

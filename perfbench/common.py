"""Workload table and process settings shared by the benchmark's processes.

This module imports nothing beyond the standard library, so the
orchestrator can use it without loading numpy or scdkit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Grid and signal parameters of every workload: the CLI defaults
# (--f-bins 512, --alpha-bins 1024) and the README's DSSS-BPSK test signal.
F_BINS = 512
ALPHA_BINS = 1024
PROCESSING_GAIN = 31
CHIP_RATE = 0.25
SNR_DB = 10.0

# Acceptance bounds the correctness gate applies to one op per run:
# criterion 2 (FAM f32 vs f64) and criterion 3b (SSCA f32 vs f64).
FAM_MEAN_REL_MAX = 2e-4
SSCA_MEAN_REL_MAX = 1e-5

SSCA_MEM_CAP = 1 << 24  # the CLI's --mem-cap default, in complex values
COMPANION_N = 1 << 18  # input size of the SSCA traced runs' cdp() / ssca_direct() calls
SETUP_PROBES = 8  # setup-only processes per untraced run, half before and half after the ops
MIB = float(1 << 20)

# Pinned in every child's environment before numpy is imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    estimator: str  # "fam" or "ssca"
    n: int
    np_channels: int
    m1: int | None = None
    min_free_bytes: int = 0

    @property
    def spills(self) -> bool:
        return self.estimator == "ssca" and self.n * self.np_channels > SSCA_MEM_CAP

    def spill_bytes(self) -> int:
        """Stage-1 bytes the decomposed SSCA back end writes when it spills."""
        return self.n * self.np_channels * 8 if self.spills else 0  # complex64

    def working_set_mib(self) -> dict:
        """Largest live arrays of one op, computed from shapes (not measured)."""
        parts = {"input": self.n * 8, "grid": ALPHA_BINS * F_BINS * 8}
        if self.estimator == "fam":
            p = 4 * self.n // self.np_channels
            parts["frames_and_demodulates"] = 2 * self.np_channels * p * 8
            parts["estimate_values"] = self.np_channels**2 * (p // 2) * 4
        else:
            stage1 = self.n * self.np_channels * 8
            parts["spill_file" if self.spills else "stage1_cube"] = stage1
            parts["estimate_values"] = self.n * self.np_channels * 4
        out = {k: round(v / MIB, 3) for k, v in parts.items()}
        out["total"] = round(sum(parts.values()) / MIB, 3)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fam_small", "fam", 2048, 256),
        Workload("ssca_inmem_2e18", "ssca", 1 << 18, 64, m1=1024),
        Workload("ssca_spill_2e20", "ssca", 1 << 20, 64, m1=1024, min_free_bytes=1 << 30),
    )
}


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env(root: str, work: str) -> dict:
    """Environment of every child: pinned threads, sources from the checkout,
    temporary files inside the run's work directory."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = work
    return env

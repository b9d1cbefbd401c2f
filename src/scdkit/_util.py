"""Small shared helpers: precision mapping, deterministic threading, hashing."""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigurationError, DataError

# Working precision is a run-time choice. Coefficients (windows, phase
# tables, rotation factors) are always generated in float64 and rounded down
# to the working type, so single and double runs share one coefficient path;
# the transforms themselves run in the working type.
COMPLEX_DTYPES = {"f32": np.complex64, "f64": np.complex128}
REAL_DTYPES = {"f32": np.float32, "f64": np.float64}


def complex_dtype(precision: str):
    try:
        return COMPLEX_DTYPES[precision]
    except KeyError:
        raise ConfigurationError(
            f"precision must be one of {sorted(COMPLEX_DTYPES)}, got {precision!r}"
        ) from None


def real_dtype(precision: str):
    return REAL_DTYPES[precision]


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def default_split(n: int, np_channels: int) -> tuple[int, int]:
    """Balanced SSCA stage sizes (M1, M2) for M1 * M2 = n.

    Nudged so stage 2 is a multiple of the channelizer size and neither
    stage exceeds 1024 points; shared by SscaConfig and the planner.
    """
    log2n = n.bit_length() - 1
    m2 = 1 << ((log2n + 1) // 2)
    m2 = max(m2, np_channels, n // 1024)
    m2 = min(m2, 1024)
    return n // m2, m2


def require_finite(x: np.ndarray) -> None:
    """Raise DataError if any sample is NaN or infinite.

    One non-finite sample spreads through normalization and every transform,
    so it is rejected at the estimator boundary rather than written out.
    """
    bad = ~np.isfinite(x)
    if bad.any():
        raise DataError(
            f"input holds {int(bad.sum())} non-finite samples (first at index {int(bad.argmax())})"
        )


def block_ranges(n_items: int, block: int):
    """Yield (start, stop) pairs covering range(n_items) in order."""
    for start in range(0, n_items, block):
        yield start, min(start + block, n_items)


def run_partitioned(tasks, worker, threads: int = 1) -> None:
    """Run worker(task) over every task, optionally on a thread pool.

    Workers must write to disjoint output slices only; results are then
    bit-identical for any thread count and any schedule.
    """
    tasks = list(tasks)
    if threads <= 1 or len(tasks) <= 1:
        for t in tasks:
            worker(t)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # list() so worker exceptions propagate
        list(pool.map(worker, tasks))


def value_hash(values: np.ndarray) -> str:
    """SHA-256 over the little-endian bytes of an array, layout included."""
    arr = np.ascontiguousarray(values)
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(le)  # the array's own buffer: no copy of a contiguous little-endian array
    return h.hexdigest()

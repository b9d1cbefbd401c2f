"""File formats: raw IQ, two-column CSV, the SCD1 grid container, and PGM.

IQ files are headerless interleaved little-endian float32 (I, Q) pairs.
SCD1 files carry a rasterized SCD grid: a 52-byte header (magic "SCD1",
version, row/column counts, alpha and f ranges as float64, a precision
flag) followed by the row-major payload, rows indexing alpha.
"""

from __future__ import annotations

import os
import re
import struct
import warnings

import numpy as np

from ._util import block_ranges
from .errors import DataError

SCD1_MAGIC = b"SCD1"
SCD1_VERSION = 1
_SCD1_HEADER = struct.Struct("<4sIIIddddI")

_PRECISION_FLAGS = {"f32": 0, "f64": 1}
_PAYLOAD_DTYPES = {0: "<f4", 1: "<f8"}
_CSV_BLOCK_ROWS = 4096  # profile rows per formatted string
_SCD1_BLOCK_VALUES = 1 << 16  # grid values cast per payload write


def write_iq(path, x) -> None:
    """Write complex samples as interleaved little-endian float32 pairs."""
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(x, dtype="<c8"))


def read_iq(path) -> np.ndarray:
    """Read interleaved float32 IQ pairs into a complex64 series.

    A size that is not a whole number of 8-byte samples means a truncated or
    corrupt file, which is rejected rather than silently cut short.
    """
    size = os.path.getsize(path)
    if size % 8 != 0:
        raise DataError(f"{path}: {size} bytes is not a whole number of 8-byte IQ samples")
    # read as little-endian complex64, so every sample (signed zeros, infinities,
    # NaN payloads) arrives bit for bit; the cast is free on a little-endian host
    return np.fromfile(path, dtype="<c8").astype(np.complex64, copy=False)


def read_iq_csv(path) -> np.ndarray:
    """Read a two-column (I, Q) CSV; a single header line is tolerated."""
    skip = 0
    try:
        with open(path, "r") as fh:
            first = fh.readline()
    except UnicodeDecodeError as exc:  # text-mode reads decode ahead of the first line
        raise DataError(f"{path}: not a text file: {exc}") from exc
    head = first.split(",")[0].strip()
    try:
        float(head)
    except ValueError:
        skip = 1
    try:
        with warnings.catch_warnings():  # no rows is checked below, in one line
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:  # a cell that is not a number, a short row, or bytes not text
        raise DataError(f"{path}: {_csv_error(path, skip, str(exc))}") from exc
    if data.shape[0] == 0:
        raise DataError(f"{path}: holds no samples")
    if data.shape[1] != 2:
        raise DataError(f"{path}: expected two columns, found {data.shape[1]}")
    # the (I, Q) rows as complex128, bit for bit: 1j * Q would turn an inf Q into a NaN I
    return np.ascontiguousarray(data).view(np.complex128)[:, 0]


def _csv_error(path, skip: int, message: str) -> str:
    """np.loadtxt's message with its data-row index turned into a 1-based file line.

    loadtxt counts only the data rows after the skipped header, leaving out
    lines that are empty once a '#' comment is cut: from 0 for a cell that
    is not a number, from 1 for a row of another column count. The file is
    scanned again for that row only here, on the error path.
    """
    # a bad cell ("at row r, column c") or a row of another width ("at row r")
    found = re.search(r" at row (\d+)(?:, column (\d+))?", message)
    if found is None:
        return message
    row = int(found[1]) - (found[2] is None)
    where = "" if found[2] is None else f", column {found[2]}"
    seen = 0
    with open(path, "r", errors="replace") as fh:
        for line, text in enumerate(fh, 1):
            if line > skip and text.split("#", 1)[0].rstrip("\n"):
                if seen == row:
                    return f"line {line}{where}: {message[:found.start()]}"
                seen += 1
    return message


def write_scd1(
    path,
    grid: np.ndarray,
    alpha_range=(-1.0, 1.0),
    f_range=(-0.5, 0.5),
    precision: str = "f32",
) -> None:
    """Write a rasterized SCD grid (rows = alpha bins, cols = f bins).

    The payload is cast a block of rows at a time, so the scratch stays
    small at any grid size.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise DataError(f"grid must be 2-D, got shape {grid.shape}")
    flag = _PRECISION_FLAGS.get(precision)
    if flag is None:
        raise DataError(f"precision must be 'f32' or 'f64', got {precision!r}")
    header = _SCD1_HEADER.pack(
        SCD1_MAGIC,
        SCD1_VERSION,
        grid.shape[0],
        grid.shape[1],
        float(alpha_range[0]),
        float(alpha_range[1]),
        float(f_range[0]),
        float(f_range[1]),
        flag,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        row_block = max(1, _SCD1_BLOCK_VALUES // max(1, grid.shape[1]))
        for r0, r1 in block_ranges(grid.shape[0], row_block):
            fh.write(np.ascontiguousarray(grid[r0:r1], dtype=_PAYLOAD_DTYPES[flag]))


def read_scd1(path):
    """Read an SCD1 file; returns (grid, header dict)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _SCD1_HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, version, rows, cols, a_lo, a_hi, f_lo, f_hi, flag = _SCD1_HEADER.unpack_from(blob)
    if magic != SCD1_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if version != SCD1_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if flag not in _PAYLOAD_DTYPES:
        raise DataError(f"{path}: unknown precision flag {flag}")
    dtype = np.dtype(_PAYLOAD_DTYPES[flag])
    expected = _SCD1_HEADER.size + rows * cols * dtype.itemsize
    if len(blob) != expected:
        raise DataError(f"{path}: payload size {len(blob)} != expected {expected}")
    grid = np.frombuffer(blob, dtype=dtype, offset=_SCD1_HEADER.size).reshape(rows, cols)
    if not np.isfinite(grid).all():
        raise DataError(f"{path}: payload holds non-finite values")
    header = {
        "rows": rows,
        "cols": cols,
        "alpha_range": (a_lo, a_hi),
        "f_range": (f_lo, f_hi),
        "precision": "f32" if flag == 0 else "f64",
    }
    return grid.copy(), header


def write_pgm(path, grid: np.ndarray, log_scale: bool = False) -> None:
    """Render a grid as an 8-bit binary PGM heatmap.

    Rows are written top-down from the highest alpha. log_scale compresses
    six decades below the peak into the gray ramp. The image is rendered a
    block of rows at a time, from the bottom of the grid up, so the scratch
    stays small at any grid size; the caller's grid is never written.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise DataError(f"grid must be 2-D, got shape {grid.shape}")
    rows, cols = grid.shape
    peak = float(grid.max())  # a Python float: the arithmetic below stays float64
    row_block = max(1, _SCD1_BLOCK_VALUES // max(1, cols))
    img = np.empty((min(rows, row_block), cols), dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode())
        for r0, r1 in reversed(list(block_ranges(rows, row_block))):
            block = img[:r1 - r0]
            np.copyto(block, grid[r0:r1][::-1])  # top row = highest alpha
            if peak <= 0.0:
                block.fill(0.0)
            elif log_scale:
                floor = peak * 1e-6
                np.maximum(block, floor, out=block)
                np.log10(block, out=block)
                block -= np.log10(floor)
                block /= 6.0
            else:
                block /= peak
            block *= 255.0
            np.rint(block, out=block)
            np.clip(block, 0, 255, out=block)
            fh.write(block.astype(np.uint8))


def write_profile_csv(path, profile) -> None:
    """Write an alpha profile as 'alpha,value' rows."""
    with open(path, "w") as fh:
        fh.write("alpha,value\n")
        for start, stop in block_ranges(len(profile.alphas), _CSV_BLOCK_ROWS):
            # Python floats format like the numpy scalars they hold, at a fraction
            # of the cost; one %-format per block bounds the string at any length
            cells = np.column_stack((profile.alphas[start:stop], profile.values[start:stop]))
            fh.write(("%.17g,%.17g\n" * (stop - start)) % tuple(cells.ravel().tolist()))

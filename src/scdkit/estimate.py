"""SCD estimate container and rasterization onto a uniform (f, alpha) grid.

Both estimators emit magnitudes on a structured lattice: every row shares a
base (f, alpha) coordinate and every column adds a fixed per-column offset
scaled by a slope. Storing the lattice instead of per-bin coordinate pairs
keeps the million-channel estimates affordable; per-bin coordinates are
materialized on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import block_ranges
from .errors import DimensionError

F_RANGE = (-0.5, 0.5)
ALPHA_RANGE = (-1.0, 1.0)

# Bins per rasterization block. The lattice is cut over rows and columns,
# so one block's float64/int64 scratch buffers (512 KiB each) stay in cache
# even when a single row holds 2^20 bins.
_GRID_CHUNK = 1 << 16


def block_shape(rows: int, cols: int) -> tuple[int, int]:
    """(rows, cols) of a lattice block of at most _GRID_CHUNK bins."""
    col_block = min(cols, _GRID_CHUNK)
    return min(rows, max(1, _GRID_CHUNK // col_block)), col_block


@dataclass
class ScdEstimate:
    """SCD magnitudes plus the (f, alpha) coordinate of every bin.

    values[r, c] sits at f = f_base[r] + f_slope * col_offsets[c] and
    alpha = alpha_base[r] + alpha_slope * col_offsets[c]. meta records the
    estimator id and the parameters that produced the estimate.
    """

    values: np.ndarray
    f_base: np.ndarray
    alpha_base: np.ndarray
    col_offsets: np.ndarray
    f_slope: float
    alpha_slope: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DimensionError(f"values must be 2-D, got shape {self.values.shape}")
        rows, cols = self.values.shape
        if self.f_base.shape != (rows,) or self.alpha_base.shape != (rows,):
            raise DimensionError("row coordinate bases do not match the value rows")
        if self.col_offsets.shape != (cols,):
            raise DimensionError("col_offsets does not match the value columns")

    @property
    def n_bins(self) -> int:
        return self.values.size

    def freq_row(self, r: int) -> np.ndarray:
        return self.f_base[r] + self.f_slope * self.col_offsets

    def alpha_row(self, r: int) -> np.ndarray:
        return self.alpha_base[r] + self.alpha_slope * self.col_offsets

    def freqs(self) -> np.ndarray:
        """Materialized per-bin spectral frequencies, shaped like values."""
        return self.f_base[:, None] + self.f_slope * self.col_offsets[None, :]

    def alphas(self) -> np.ndarray:
        """Materialized per-bin cycle frequencies, shaped like values."""
        return self.alpha_base[:, None] + self.alpha_slope * self.col_offsets[None, :]

    def same_layout(self, other: "ScdEstimate") -> bool:
        return (
            self.values.shape == other.values.shape
            and self.f_slope == other.f_slope
            and self.alpha_slope == other.alpha_slope
            and np.array_equal(self.col_offsets, other.col_offsets)
            and np.allclose(self.f_base, other.f_base)
            and np.allclose(self.alpha_base, other.alpha_base)
        )


def scd_to_grid(est: ScdEstimate, n_f_bins: int, n_alpha_bins: int) -> np.ndarray:
    """Rasterize an estimate onto a (n_alpha_bins, n_f_bins) grid.

    The grid spans f in [-0.5, 0.5] and alpha in [-1, 1]. Each bin lands in
    the nearest cell; collisions keep the maximum; untouched cells stay 0.
    """
    if est.n_bins <= 0 or n_f_bins <= 0 or n_alpha_bins <= 0:
        raise DimensionError("grid and estimate must be non-empty")
    rows, cols = est.values.shape
    f_lo, f_hi = F_RANGE
    a_lo, a_hi = ALPHA_RANGE
    f_width = (f_hi - f_lo) / n_f_bins
    a_width = (a_hi - a_lo) / n_alpha_bins
    grid = np.zeros(n_alpha_bins * n_f_bins, dtype=np.float64)

    row_block, col_block = block_shape(rows, cols)
    size = row_block * col_block
    coord, vals = np.empty(size), np.empty(size)
    fi, ai = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    for c0, c1 in block_ranges(cols, col_block):
        f_off = est.f_slope * est.col_offsets[c0:c1]
        a_off = est.alpha_slope * est.col_offsets[c0:c1]
        for r0, r1 in block_ranges(rows, row_block):
            n = (r1 - r0) * (c1 - c0)
            _cell_index(est.f_base[r0:r1], f_off, f_lo, f_width, n_f_bins, coord[:n], fi[:n])
            _cell_index(est.alpha_base[r0:r1], a_off, a_lo, a_width, n_alpha_bins,
                        coord[:n], ai[:n])
            ai[:n] *= n_f_bins
            ai[:n] += fi[:n]  # flat cell index, row-major like the reshaped grid
            vals[:n].reshape(r1 - r0, c1 - c0)[...] = est.values[r0:r1, c0:c1]
            # one 1-D index and float64 values keep np.maximum.at on numpy's fast path
            np.maximum.at(grid, ai[:n], vals[:n])
    return grid.reshape(n_alpha_bins, n_f_bins)


def _cell_index(base, off, lo, width, n_cells, coord, out) -> None:
    """out = clip(int((base[:, None] + off - lo) / width), 0, n_cells - 1).

    Computed in place in the 1-D scratch buffers coord and out, one
    expression at a time in the order of the plain form.
    """
    c = np.add(base[:, None], off, out=coord.reshape(base.size, off.size))
    c -= lo
    c /= width
    out[...] = coord  # float64 -> int64 truncates toward zero, like astype
    np.clip(out, 0, n_cells - 1, out=out)

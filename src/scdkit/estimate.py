"""SCD estimate container and rasterization onto a uniform (f, alpha) grid.

Both estimators emit magnitudes on a structured lattice: every row shares a
base (f, alpha) coordinate and every column adds a fixed per-column offset
scaled by a slope. Storing the lattice instead of per-bin coordinate pairs
keeps the million-channel estimates affordable; per-bin coordinates are
materialized on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._util import block_ranges
from .errors import DimensionError

F_RANGE = (-0.5, 0.5)
ALPHA_RANGE = (-1.0, 1.0)

# Bins per rasterization block. The lattice is cut over rows and columns,
# so one block's float64/int64 scratch buffers (512 KiB each) stay in cache
# even when a single row holds 2^20 bins.
_GRID_CHUNK = 1 << 16

# A monotone column range is rasterized by runs of one cell when its bins
# average at least this many per run, counted from the cells at its ends;
# shorter runs are cheaper to scatter bin by bin.
_RUN_MIN_MEAN = 64

# float -> int64 conversion is monotone only on (-2^63, 2^63)
_INT64_LIMIT = 2.0 ** 63


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

    Along a column range where col_offsets is monotone, both cell indices of
    a row are monotone step functions of the column, since every step of
    _cell_index is monotone. Such a range is reduced run by run when its
    runs of one cell are long (_RUN_MIN_MEAN); every other column is
    scattered bin by bin. Both paths give the same grid.
    """
    if est.n_bins <= 0 or n_f_bins <= 0 or n_alpha_bins <= 0:
        raise DimensionError("grid and estimate must be non-empty")
    f_lo, f_hi = F_RANGE
    a_lo, a_hi = ALPHA_RANGE
    f_axis = _Axis(est.f_base, est.f_slope, f_lo, (f_hi - f_lo) / n_f_bins, n_f_bins)
    a_axis = _Axis(est.alpha_base, est.alpha_slope, a_lo, (a_hi - a_lo) / n_alpha_bins,
                   n_alpha_bins)
    grid = np.zeros(n_alpha_bins * n_f_bins, dtype=np.float64)
    starts, stops, f_ends, a_ends = _run_ranges(est, f_axis, a_axis)
    for c0, c1 in zip(np.r_[0, stops], np.r_[starts, est.values.shape[1]]):
        if c0 < c1:
            _scatter_bins(grid, est, f_axis, a_axis, int(c0), int(c1))
    if starts.size:
        _scatter_runs(grid, est, f_axis, a_axis, starts, stops, f_ends, a_ends)
    return grid.reshape(n_alpha_bins, n_f_bins)


class _Axis(NamedTuple):
    """One grid axis: bin coordinates base[r] + slope * col_offsets[c]."""

    base: np.ndarray
    slope: float
    lo: float
    width: float
    n_cells: int

    def cells(self, col_offsets, cols, rows=None):
        """(cell index, float coordinate) of the bins at (rows[i], cols[i]).

        Without rows, of every row at each of cols, shaped (rows, cols).
        """
        base = self.base[:, None] if rows is None else self.base[rows]
        off = self.slope * col_offsets[cols]
        shape = np.broadcast_shapes(base.shape, off.shape)
        coord, out = np.empty(shape), np.empty(shape, dtype=np.int64)
        _cell_index(base, off, self.lo, self.width, self.n_cells, coord, out)
        return out, coord


def _cell_index(base, off, lo, width, n_cells, coord, out) -> None:
    """out = clip(int((base + off - lo) / width), 0, n_cells - 1).

    Computed in place in the float64 scratch coord and the int64 out, which
    have the broadcast shape of base and off, one expression at a time in
    the order of the plain form.
    """
    np.add(base, off, out=coord)
    coord -= lo
    coord /= width
    out[...] = coord  # float64 -> int64 truncates toward zero, like astype
    np.clip(out, 0, n_cells - 1, out=out)


def _scatter_bins(grid, est, f_axis, a_axis, c_lo, c_hi) -> None:
    """Scatter the bins of columns [c_lo, c_hi) one by one, in blocks."""
    rows = est.values.shape[0]
    row_block, col_block = block_shape(rows, c_hi - c_lo)
    size = row_block * col_block
    coord, vals = np.empty(size), np.empty(size)
    fi, ai = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    # f_slope * col_offsets is +-0 when f_slope is 0 and the offsets are
    # finite, so every bin of a row shares the f cell of its first column
    f_per_row = f_axis.slope == 0 and np.isfinite(est.col_offsets[c_lo:c_hi]).all()
    for c0 in range(c_lo, c_hi, col_block):
        c1 = min(c0 + col_block, c_hi)
        f_off = f_axis.slope * est.col_offsets[c0:c0 + 1 if f_per_row else c1]
        a_off = a_axis.slope * est.col_offsets[c0:c1]
        for r0 in range(0, rows, row_block):
            r1 = min(r0 + row_block, rows)
            shape, f_shape = (r1 - r0, c1 - c0), (r1 - r0, f_off.size)
            n, f_n = shape[0] * shape[1], f_shape[0] * f_shape[1]
            f_cells, a_cells = fi[:f_n].reshape(f_shape), ai[:n].reshape(shape)
            _cell_index(f_axis.base[r0:r1, None], f_off, f_axis.lo, f_axis.width,
                        f_axis.n_cells, coord[:f_n].reshape(f_shape), f_cells)
            _cell_index(a_axis.base[r0:r1, None], a_off, a_axis.lo, a_axis.width,
                        a_axis.n_cells, coord[:n].reshape(shape), a_cells)
            a_cells *= f_axis.n_cells
            a_cells += f_cells  # flat cell index, row-major like the reshaped grid
            vals[:n].reshape(shape)[...] = est.values[r0:r1, c0:c1]
            # one 1-D index and float64 values keep np.maximum.at on numpy's fast path
            np.maximum.at(grid, ai[:n], vals[:n])


def _monotone_ranges(col_offsets):
    """(starts, stops) of consecutive column ranges with monotone col_offsets.

    A range ends before a step whose direction differs from the previous
    non-tie step, and around every NaN step; ties join either direction.
    The steps are taken in blocks, so the scratch does not grow with cols.
    """
    turns, last = [], 0  # last: direction of the latest non-tie step, 0 before any
    for c0, c1 in block_ranges(col_offsets.size - 1, _GRID_CHUNK):
        step = np.sign(col_offsets[c0 + 1:c1 + 1] - col_offsets[c0:c1])
        step[np.isnan(step)] = 2  # never equal to a real direction
        moves = np.flatnonzero(step)
        if moves.size:
            dirs = np.concatenate(([last], step[moves]))
            turn = (dirs[1:] == 2) | ((dirs[1:] != dirs[:-1]) & (dirs[:-1] != 0))
            turns.append(moves[turn] + c0 + 1)
            last = dirs[-1]
    bounds = np.concatenate(([0], *turns, [col_offsets.size]))
    return bounds[:-1], bounds[1:]


def _run_ranges(est, f_axis, a_axis):
    """The monotone column ranges to rasterize by runs, with their end cells.

    Returns starts, stops and the f and alpha cells of every row at both
    ends of each range, shaped (rows, ranges, 2). A range qualifies when its
    mean run length, bins over the run count implied by the end cells, is at
    least _RUN_MIN_MEAN, and every end coordinate converts monotonically.
    """
    rows, cols = est.values.shape
    if cols < _RUN_MIN_MEAN:  # a run is never longer than its range
        none = np.empty(0, dtype=np.int64)
        return none, none, None, None
    starts, stops = _monotone_ranges(est.col_offsets)
    longer = stops - starts >= _RUN_MIN_MEAN
    starts, stops = starts[longer], stops[longer]
    ends = np.stack((starts, stops - 1), axis=1).reshape(-1)
    f_ends, f_coord = f_axis.cells(est.col_offsets, ends)
    a_ends, a_coord = a_axis.cells(est.col_offsets, ends)
    shape = (rows, starts.size, 2)
    f_ends, a_ends = f_ends.reshape(shape), a_ends.reshape(shape)
    exact = (np.abs(f_coord) < _INT64_LIMIT) & (np.abs(a_coord) < _INT64_LIMIT)
    exact = exact.reshape(shape).all(axis=(0, 2))
    runs = (np.abs(f_ends[..., 1] - f_ends[..., 0])
            + np.abs(a_ends[..., 1] - a_ends[..., 0]) + 1).sum(axis=0)
    take = exact & (rows * (stops - starts) >= _RUN_MIN_MEAN * runs)
    return starts[take], stops[take], f_ends[:, take], a_ends[:, take]


def _scatter_runs(grid, est, f_axis, a_axis, starts, stops, f_ends, a_ends) -> None:
    """Scatter the max of every run of one cell in the given column ranges."""
    rows, cols = est.values.shape
    row_starts = np.arange(rows)[:, None] * cols
    first = (row_starts + starts).reshape(-1)
    steps = [_cell_steps(axis, est.col_offsets, ends, starts, stops) for axis, ends in
             ((f_axis, f_ends), (a_axis, a_ends))]
    run_starts = _sorted_unique(first, *(r * cols + c for r, c in steps))
    # a range's last run ends at its stop, which is a bound of its own
    ends = (row_starts + stops).reshape(-1)
    bounds = _sorted_unique(run_starts, ends[ends < rows * cols])
    maxima = _run_maxima(est.values, bounds)[np.searchsorted(bounds, run_starts)]
    r, c = np.divmod(run_starts, cols)
    cells = a_axis.cells(est.col_offsets, c, r)[0] * f_axis.n_cells
    cells += f_axis.cells(est.col_offsets, c, r)[0]
    np.maximum.at(grid, cells, maxima.astype(np.float64))


def _cell_steps(axis, col_offsets, ends, starts, stops):
    """(row, column) of every change of the axis cell inside the ranges.

    For each (row, range) the cell moves monotonically from ends[..., 0] to
    ends[..., 1]. Every cell value past the first is a target; its step is
    the first column whose cell reaches it, found by bisection vectorised
    over all targets of all rows.
    """
    n_ranges = starts.size
    first, last = ends[..., 0].reshape(-1), ends[..., 1].reshape(-1)
    count = np.abs(last - first)
    pair = np.repeat(np.arange(first.size), count)
    direction = np.sign(last - first)[pair]
    k = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count) + 1
    target = first[pair] + direction * k
    row, rng = np.divmod(pair, n_ranges)
    # the cell at lo has not reached the target; the cell at hi has
    lo, hi = starts[rng], stops[rng] - 1
    for _ in range(max(int((stops - starts).max()) - 2, 0).bit_length()):
        mid = (lo + hi) >> 1
        reached = direction * (axis.cells(col_offsets, mid, row)[0] - target) >= 0
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
    return row, hi


def _sorted_unique(*parts):
    """np.unique of the concatenated parts.

    np.unique imports numpy.ma on first use, which stays resident (about
    1 MiB) in a process that otherwise never needs it.
    """
    a = np.sort(np.concatenate(parts))
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _run_maxima(values, bounds):
    """np.maximum over values.ravel()[bounds[i]:bounds[i + 1]], the last to the end.

    values is never copied: a non-contiguous array is reduced row by row.
    """
    if values.flags.c_contiguous:
        return np.maximum.reduceat(values.reshape(-1), bounds)
    rows, cols = values.shape
    cuts = np.searchsorted(bounds, np.arange(rows + 1) * cols)
    return np.concatenate([
        np.maximum.reduceat(values[r], bounds[cuts[r]:cuts[r + 1]] - r * cols)
        for r in range(rows) if cuts[r] < cuts[r + 1]
    ])

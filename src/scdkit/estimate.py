"""SCD estimate container, its rasterization onto a uniform (f, alpha)
grid, and its alpha profile.

Both estimators emit magnitudes on a structured lattice: every row shares a
base (f, alpha) coordinate and every column adds a fixed per-column offset
scaled by a slope. Storing the lattice instead of per-bin coordinate pairs
keeps the million-channel estimates affordable; per-bin coordinates are
materialized on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._util import block_ranges
from .errors import CapacityError, ConfigurationError, DimensionError

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

# Cells in the largest grid: its float64 buffer takes 512 MiB
_GRID_CELLS_MAX = 1 << 26

# float -> int64 conversion is monotone only on (-2^63, 2^63)
_INT64_LIMIT = 2.0 ** 63


def _block_shape(rows: int, cols: int) -> tuple[int, int]:
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


def check_grid_capacity(n_f_bins: int, n_alpha_bins: int) -> None:
    """Raise CapacityError for a grid of more than _GRID_CELLS_MAX cells."""
    if n_alpha_bins * n_f_bins > _GRID_CELLS_MAX:
        raise CapacityError(
            f"a grid of {n_alpha_bins} alpha bins x {n_f_bins} f bins exceeds "
            f"{_GRID_CELLS_MAX} cells"
        )


def scd_to_grid(est: ScdEstimate, n_f_bins: int, n_alpha_bins: int) -> np.ndarray:
    """Rasterize an estimate onto a (n_alpha_bins, n_f_bins) grid.

    The grid spans f in [-0.5, 0.5] and alpha in [-1, 1]. Each bin lands in
    the nearest cell; collisions keep the maximum; untouched cells stay 0.
    A grid of more than _GRID_CELLS_MAX cells raises CapacityError before
    anything is allocated.
    """
    if est.n_bins <= 0 or n_f_bins <= 0 or n_alpha_bins <= 0:
        raise DimensionError("grid and estimate must be non-empty")
    check_grid_capacity(n_f_bins, n_alpha_bins)
    f_lo, f_hi = F_RANGE
    a_lo, a_hi = ALPHA_RANGE
    f_axis = _Axis(est.f_base, est.f_slope, f_lo, (f_hi - f_lo) / n_f_bins, n_f_bins)
    a_axis = _Axis(est.alpha_base, est.alpha_slope, a_lo, (a_hi - a_lo) / n_alpha_bins,
                   n_alpha_bins)
    return _scatter_max(est, (a_axis, f_axis)).reshape(n_alpha_bins, n_f_bins)


@dataclass(frozen=True)
class AlphaProfile:
    """Max SCD magnitude over f at each point of an ascending alpha grid."""

    alphas: np.ndarray
    values: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.alphas[1] - self.alphas[0])


def alpha_profile(est: ScdEstimate, n_alpha_bins: int) -> AlphaProfile:
    """Collapse an estimate to max-over-f on a uniform alpha grid in [-1, 1].

    Grid points sit at -1 + i * 2/(n-1); each estimate bin contributes to
    its nearest grid point. With n_alpha_bins = 2N + 1 the grid lands
    exactly on the estimators' own alpha lattice. A profile of more than
    _GRID_CELLS_MAX points raises CapacityError before anything is allocated.
    """
    if n_alpha_bins < 2:
        raise ConfigurationError("n_alpha_bins must be >= 2")
    if n_alpha_bins > _GRID_CELLS_MAX:
        raise CapacityError(f"an alpha profile of {n_alpha_bins} points exceeds {_GRID_CELLS_MAX}")
    if est.n_bins == 0:
        raise DimensionError("estimate is empty")
    a_lo, a_hi = ALPHA_RANGE
    axis = _Axis(est.alpha_base, est.alpha_slope, a_lo, (a_hi - a_lo) / (n_alpha_bins - 1),
                 n_alpha_bins, rint=True)
    return AlphaProfile(alphas=np.linspace(a_lo, a_hi, n_alpha_bins),
                        values=_scatter_max(est, (axis,)))


class _Axis(NamedTuple):
    """One axis of cells for the bin coordinates base[r] + slope * col_offsets[c].

    Its n_cells cells of the given width start at lo. A coordinate's cell
    index truncates toward zero, or rounds to the nearest when rint is set.
    """

    base: np.ndarray
    slope: float
    lo: float
    width: float
    n_cells: int
    rint: bool = False

    def index(self, base, off, coord, out) -> None:
        """out = clip(int((base + off - lo) / width), 0, n_cells - 1).

        With rint, the quotient is rounded before the conversion. Computed
        in place in the float64 scratch coord and the int64 out, whose shape
        base and off broadcast to, one expression at a time in the order of
        the plain form.
        """
        np.add(base, off, out=coord)
        coord -= self.lo
        coord /= self.width
        if self.rint:
            np.rint(coord, out=coord)
        out[...] = coord  # float64 -> int64 truncates toward zero, like astype
        np.clip(out, 0, self.n_cells - 1, out=out)

    def cells(self, col_offsets, cols, rows=None):
        """(cell index, float coordinate) of the bins at (rows[i], cols[i]).

        Without rows, of every row at each of cols, shaped (rows, cols).
        """
        base = self.base[:, None] if rows is None else self.base[rows]
        off = self.slope * col_offsets[cols]
        shape = np.broadcast_shapes(base.shape, off.shape)
        coord, out = np.empty(shape), np.empty(shape, dtype=np.int64)
        self.index(base, off, coord, out)
        return out, coord


def _scatter_max(est, axes) -> np.ndarray:
    """Max of the bins in every cell of the axes, flat and row-major over them.

    Along a column range where col_offsets is monotone, every cell index of
    a row is a monotone step function of the column, since every step of
    _Axis.index is monotone. Such a range is reduced run by run when its
    runs of one cell are long (_RUN_MIN_MEAN); every other column is
    scattered bin by bin. Both paths give the same maxima.
    """
    grid = np.zeros(math.prod(axis.n_cells for axis in axes), dtype=np.float64)
    starts, stops, ends = _run_ranges(est, axes)
    for c0, c1 in zip(np.r_[0, stops], np.r_[starts, est.values.shape[1]]):
        if c0 < c1:
            _scatter_bins(grid, est, axes, int(c0), int(c1))
    if starts.size:
        _scatter_runs(grid, est, axes, starts, stops, ends)
    return grid


def _scatter_bins(grid, est, axes, c_lo, c_hi) -> None:
    """Scatter the bins of columns [c_lo, c_hi) one by one, in blocks."""
    rows = est.values.shape[0]
    row_block, col_block = _block_shape(rows, c_hi - c_lo)
    size = row_block * col_block
    coord, vals = np.empty(size), np.empty(size)
    flat, part = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    # slope * col_offsets is +-0 when slope is 0 and the offsets are finite,
    # so every bin of a row shares that axis's cell of its first column
    finite = np.isfinite(est.col_offsets[c_lo:c_hi]).all()
    for c0 in range(c_lo, c_hi, col_block):
        c1 = min(c0 + col_block, c_hi)
        offs = [axis.slope * est.col_offsets[c0:c0 + 1 if axis.slope == 0 and finite else c1]
                for axis in axes]
        for r0 in range(0, rows, row_block):
            r1 = min(r0 + row_block, rows)
            n = (r1 - r0) * (c1 - c0)
            index = flat[:n].reshape(r1 - r0, c1 - c0)
            for i, (axis, off) in enumerate(zip(axes, offs)):
                # the first axis fills the whole block; each further one is
                # folded in row-major, like the reshaped grid
                cells = index if i == 0 else part[:(r1 - r0) * off.size].reshape(r1 - r0, -1)
                axis.index(axis.base[r0:r1, None], off,
                           coord[:cells.size].reshape(cells.shape), cells)
                if i:
                    index *= axis.n_cells
                    index += cells
            vals[:n].reshape(r1 - r0, c1 - c0)[...] = est.values[r0:r1, c0:c1]
            # one 1-D index and float64 values keep np.maximum.at on numpy's fast path
            np.maximum.at(grid, flat[:n], vals[:n])


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


def _run_ranges(est, axes):
    """The monotone column ranges to rasterize by runs, with their end cells.

    Returns starts, stops and, for each axis, the cells of every row at
    both ends of each range, shaped (rows, ranges, 2). A range qualifies
    when its mean run length, bins over the run count implied by the end
    cells, is at least _RUN_MIN_MEAN, and every end coordinate converts
    monotonically.
    """
    rows, cols = est.values.shape
    if cols < _RUN_MIN_MEAN:  # a run is never longer than its range
        none = np.empty(0, dtype=np.int64)
        return none, none, None
    starts, stops = _monotone_ranges(est.col_offsets)
    longer = stops - starts >= _RUN_MIN_MEAN
    starts, stops = starts[longer], stops[longer]
    end_cols = np.stack((starts, stops - 1), axis=1).reshape(-1)
    shape = (rows, starts.size, 2)
    ends, exact = [], np.ones(starts.size, dtype=bool)
    for axis in axes:
        cells, coord = axis.cells(est.col_offsets, end_cols)
        ends.append(cells.reshape(shape))
        exact &= (np.abs(coord) < _INT64_LIMIT).reshape(shape).all(axis=(0, 2))
    runs = (sum(np.abs(e[..., 1] - e[..., 0]) for e in ends) + 1).sum(axis=0)
    take = exact & (rows * (stops - starts) >= _RUN_MIN_MEAN * runs)
    return starts[take], stops[take], [e[:, take] for e in ends]


def _scatter_runs(grid, est, axes, starts, stops, ends) -> None:
    """Scatter the max of every run of one cell in the given column ranges."""
    rows, cols = est.values.shape
    row_starts = np.arange(rows)[:, None] * cols
    first = (row_starts + starts).reshape(-1)
    steps = [_cell_steps(axis, est.col_offsets, e, starts, stops) for axis, e in zip(axes, ends)]
    run_starts = _sorted_unique(first, *(r * cols + c for r, c in steps))
    # a range's last run ends at its stop, which is a bound of its own
    last = (row_starts + stops).reshape(-1)
    bounds = _sorted_unique(run_starts, last[last < rows * cols])
    maxima = _run_maxima(est.values, bounds)[np.searchsorted(bounds, run_starts)]
    r, c = np.divmod(run_starts, cols)
    cells = 0
    for axis in axes:
        cells = cells * axis.n_cells + axis.cells(est.col_offsets, c, r)[0]
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

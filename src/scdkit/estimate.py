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
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._util import block_ranges
from .errors import CapacityError, ConfigurationError, DimensionError

F_RANGE = (-0.5, 0.5)
ALPHA_RANGE = (-1.0, 1.0)

# Bins per rasterization block. The lattice is cut over rows and columns,
# so one block's float64/int64 scratch buffers (512 KiB each) stay in cache
# even when a single row holds 2^20 bins.
_GRID_CHUNK = 1 << 16

# A lattice whose rows are monotone is rasterized by runs of one cell when
# its bins average at least this many per run, counted from the cells at the
# row ends; shorter runs are cheaper to scatter bin by bin.
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
    """Max of the bins in every cell of the axes, flat and row-major over them."""
    grid = np.zeros(math.prod(axis.n_cells for axis in axes), dtype=np.float64)
    _scatter_plan(est.values.shape, est.col_offsets, axes)(grid, est.values, 0)
    return grid


def _scatter_plan(shape, col_offsets, axes):
    """apply(grid, values, row0), which scatters the lattice's rows from row0 on.

    The plan reads the layout alone; values is any block of the rows, and
    the applies of blocks that cover the lattice give the maxima of one
    whole apply, since max is exact and order-free. One path takes the
    whole lattice. A channel-pair lattice, such as FAM's, is scattered
    through one cell table per class of pairs (_scatter_pairs), in blocks
    of whole channels. Otherwise, when col_offsets is monotone, every cell
    index of a row is a monotone step function of the column, since every
    step of _Axis.index is monotone, so the rows are reduced run by run when
    their runs of one cell are long (_run_plan). Every other lattice is
    scattered bin by bin. All paths give the same maxima.
    """
    if (anti := _pair_kinds(shape[0], axes)) is not None:
        return partial(_scatter_pairs, col_offsets, axes, anti)
    if (runs := _run_plan(shape, col_offsets, axes)) is not None:
        return partial(_scatter_runs, *runs)
    return partial(_scatter_bins, col_offsets, axes)


def _pair_kinds(rows, axes):
    """For each axis, whether it follows the anti-diagonals of a pair lattice.

    The rows form a pair lattice when there are R x R of them, R >= 2, row
    k * R + l standing for the channel pair (k, l), and every axis's base,
    viewed as (R, R), is constant along its diagonals (a function of l - k)
    or along its anti-diagonals (a function of k + l). The check is exact
    equality, so a NaN base never passes. A base that passes both takes
    the kind of the other axes. Returns None for any other lattice.
    """
    r = math.isqrt(rows)
    if r < 2 or r * r != rows:
        return None
    fits = []
    for axis in axes:
        b = axis.base.reshape(r, r)
        fits.append((np.array_equal(b[1:, 1:], b[:-1, :-1]),
                     np.array_equal(b[1:, :-1], b[:-1, 1:])))
    for anti in (False, True):
        if all(fit[anti] for fit in fits):
            return [anti] * len(axes)
    if not all(any(fit) for fit in fits):
        return None
    return [not diagonal for diagonal, _ in fits]


def _scatter_pairs(col_offsets, axes, anti, grid, values, row0) -> None:
    """Scatter the channels of a pair lattice (_pair_kinds) from row0 on.

    The rows of one class of pairs, a diagonal or an anti-diagonal, share
    a base, so an axis's cells form a (2R - 1, cols) table, computed by
    _Axis.index on one base per class: the same float as bin by bin. The
    rows of channel k read the table rows [R - 1 - k, 2R - 1 - k) along
    diagonals and [k, k + R) along anti-diagonals. When every axis is of
    one kind, the rows of a class share every cell, so the block is first
    reduced to one maximum per class and column. Otherwise, as for FAM's
    grid, the channels are scattered in blocks of _GRID_CHUNK // (R w) for
    a column block of width w: one index sum, one float64 cast and one
    np.maximum.at per block of channels.
    """
    r = math.isqrt(axes[0].base.size)
    channels = list(enumerate(range(row0 // r, (row0 + values.shape[0]) // r)))
    cols = values.shape[1]
    # a table of (2R - 1) x col_block cells stays within one block
    for c0, c1 in block_ranges(cols, max(1, _GRID_CHUNK // (2 * r - 1))):
        tables, stride = {}, 1  # flat cells of each kind, row-major over the axes
        for axis, kind in reversed(list(zip(axes, anti))):
            b = axis.base.reshape(r, r)
            reps = np.concatenate((b[0], b[1:, -1]) if kind else (b[:0:-1, 0], b[0]))
            cells = axis._replace(base=reps).cells(col_offsets, slice(c0, c1))[0]
            tables[kind] = tables.get(kind, 0) + cells * stride
            stride *= axis.n_cells
        if len(tables) == 1:
            (kind, table), = tables.items()
            # maxima in the values' float type, cast exactly for the scatter
            peaks = np.full(table.shape, -np.inf, np.promote_types(values.dtype, np.float32))
            for i, k in channels:
                window = peaks[k:k + r] if kind else peaks[r - 1 - k:2 * r - 1 - k]
                np.maximum(window, values[i * r:(i + 1) * r, c0:c1], out=window)
            np.maximum.at(grid, table.reshape(-1), peaks.reshape(-1).astype(np.float64))
        else:
            # channel k's cells are diag[R - 1 - k] + skew[k], where diag[s] and
            # skew[s] are rows [s, s + R) of the tables: a run of channels from
            # k0 reads a descending and an ascending run of these views
            diag, skew = (sliding_window_view(tables[kind], r, axis=0).transpose(0, 2, 1)
                          for kind in (False, True))
            w = c1 - c0
            block = max(1, _GRID_CHUNK // (r * w))
            index = np.empty((min(block, len(channels)), r, w), dtype=np.int64)
            vals = np.empty(index.shape)
            for b0, b1 in block_ranges(len(channels), block):
                i0, k0 = channels[b0]
                n = b1 - b0
                stop = r - 1 - k0 - n
                np.add(diag[r - 1 - k0:stop if stop >= 0 else None:-1], skew[k0:k0 + n],
                       out=index[:n])
                vals[:n] = values[i0 * r:(i0 + n) * r, c0:c1].reshape(n, r, w)
                np.maximum.at(grid, index[:n].reshape(-1), vals[:n].reshape(-1))


def _scatter_bins(col_offsets, axes, grid, values, row0) -> None:
    """Scatter the bins from row row0 on one by one, in blocks."""
    rows, cols = values.shape
    row_block, col_block = _block_shape(rows, cols)
    size = row_block * col_block
    coord, vals = np.empty(size), np.empty(size)
    flat, part = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    for c0, c1 in block_ranges(cols, col_block):
        offs = [axis.slope * col_offsets[c0:c1] for axis in axes]
        for r0, r1 in block_ranges(rows, row_block):
            n = (r1 - r0) * (c1 - c0)
            index = flat[:n].reshape(r1 - r0, c1 - c0)
            for i, (axis, off) in enumerate(zip(axes, offs)):
                # the first axis fills the whole block; each further one is
                # folded in row-major, like the reshaped grid
                cells = index if i == 0 else part[:n].reshape(index.shape)
                base = axis.base[row0 + r0:row0 + r1, None]
                axis.index(base, off, coord[:n].reshape(index.shape), cells)
                if i:
                    index *= axis.n_cells
                    index += cells
            vals[:n].reshape(index.shape)[...] = values[r0:r1, c0:c1]
            # one 1-D index and float64 values keep np.maximum.at on numpy's fast path
            np.maximum.at(grid, flat[:n], vals[:n])


def _monotone(col_offsets) -> bool:
    """Whether col_offsets is monotone along the whole row.

    Ties join either direction; a NaN step is in neither. The steps are
    taken in blocks, so the scratch does not grow with cols.
    """
    rising = falling = True
    for c0, c1 in block_ranges(col_offsets.size - 1, _GRID_CHUNK):
        step = col_offsets[c0 + 1:c1 + 1] - col_offsets[c0:c1]
        rising = rising and bool((step >= 0).all())
        falling = falling and bool((step <= 0).all())
        if not (rising or falling):
            return False
    return True


def _run_plan(shape, col_offsets, axes):
    """(starts, cells, cuts) of the runs of one cell along the rows, or None.

    The rows are rasterized by runs when col_offsets is monotone, every end
    coordinate converts monotonically, and the mean run length, bins over
    the run count implied by each axis's cells at both row ends, is at
    least _RUN_MIN_MEAN. Run i starts at column starts[i] of its row and
    lands in the flat cell cells[i]; the runs of row r are cuts[r]:cuts[r + 1].
    """
    rows, cols = shape
    # a run is never longer than its row
    if cols < _RUN_MIN_MEAN or not _monotone(col_offsets):
        return None
    ends = []
    for axis in axes:
        cells, coord = axis.cells(col_offsets, [0, cols - 1])
        if not (np.abs(coord) < _INT64_LIMIT).all():
            return None
        ends.append(cells)
    if rows * cols < _RUN_MIN_MEAN * (sum(np.abs(e[:, 1] - e[:, 0]) for e in ends) + 1).sum():
        return None
    steps = [_cell_steps(axis, col_offsets, e) for axis, e in zip(axes, ends)]
    # every row start is a run start, so one row's runs cover it from column 0
    starts = _sorted_unique(np.arange(rows) * cols, *(r * cols + c for r, c in steps))
    row, col = np.divmod(starts, cols)
    cells = 0
    for axis in axes:
        cells = cells * axis.n_cells + axis.cells(col_offsets, col, row)[0]
    return col, cells, np.searchsorted(row, np.arange(rows + 1))


def _scatter_runs(starts, cells, cuts, grid, values, row0) -> None:
    """Scatter the max of every run (_run_plan) of the rows from row0 on."""
    for r, row in enumerate(values, row0):
        runs = slice(cuts[r], cuts[r + 1])
        maxima = np.maximum.reduceat(row, starts[runs])
        np.maximum.at(grid, cells[runs], maxima.astype(np.float64))


def _cell_steps(axis, col_offsets, ends):
    """(row, column) of every change of the axis cell along the rows.

    Along row r the cell moves monotonically from ends[r, 0] to ends[r, 1].
    Every cell value past the first is a target; its step is the first
    column whose cell reaches it, found by bisection vectorised over all
    targets of all rows.
    """
    first, last = ends[:, 0], ends[:, 1]
    count = np.abs(last - first)
    row = np.repeat(np.arange(first.size), count)
    direction = np.sign(last - first)[row]
    k = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count) + 1
    target = first[row] + direction * k
    # the cell at lo has not reached the target; the cell at hi has
    cols = col_offsets.size
    lo, hi = 0, np.full(row.size, cols - 1)
    for _ in range(max(cols - 2, 0).bit_length()):
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

"""The file-to-file op of `scdkit fam` and `scdkit ssca`: read, estimate,
grid, SCD1, optional profile CSV and PGM, hash. A failed run writes nothing."""

from __future__ import annotations

import contextlib
import os
import time
from typing import NamedTuple

import numpy as np

from . import io as scdio
from ._util import value_hash
from .errors import DataError
from .estimate import ALPHA_RANGE, F_RANGE, alpha_profile, check_grid_capacity, scd_to_grid
from .fam import FamConfig, fam_full
from .ssca import ssca_full


class OpResult(NamedTuple):
    n_bins: int
    elapsed_s: float  # the estimator's wall time
    written: list  # the SCD1 path, then each optional output written
    output_sha256: str  # value_hash of the estimate's values


def estimate(x: np.ndarray, cfg, threads: int = 1):
    """fam_full for a FamConfig, ssca_full for an SscaConfig."""
    full = fam_full if isinstance(cfg, FamConfig) else ssca_full
    return full(x, cfg, threads=threads)


def run(cfg, input_path, scd1, *, f_bins: int, alpha_bins: int, profile_csv=None, pgm=None,
        pgm_log: bool = False, threads: int = 1) -> OpResult:
    """Estimate the IQ file (raw or .csv) at input_path and write its grid.

    The grid size is checked before the input is read, and the grid must
    be finite (DataError otherwise) before anything is written. A failed
    write removes the files this run wrote, including a partial file the
    step itself created.
    """
    check_grid_capacity(f_bins, alpha_bins)
    x = (scdio.read_iq_csv if str(input_path).endswith(".csv") else scdio.read_iq)(input_path)
    if x.shape[0] != cfg.N:
        raise DataError(f"{input_path}: holds {x.shape[0]} samples, "
                        f"but the configuration's N is {cfg.N}")
    t0 = time.perf_counter()
    est = estimate(x, cfg, threads)
    elapsed = time.perf_counter() - t0
    with np.errstate(invalid="ignore"):  # a NaN bin is reported below, not warned of
        grid = scd_to_grid(est, f_bins, alpha_bins)
    if not np.isfinite(grid).all():
        bad = ~np.isfinite(grid)
        row, col = np.unravel_index(int(bad.argmax()), grid.shape)
        raise DataError(f"the grid holds {int(bad.sum())} non-finite cells "
                        f"(first at alpha bin {row}, f bin {col})")
    steps = [(scd1, lambda path: scdio.write_scd1(
        path, grid, ALPHA_RANGE, F_RANGE, precision=cfg.precision))]
    if profile_csv:
        steps.append((profile_csv, lambda path: scdio.write_profile_csv(
            path, alpha_profile(est, 2 * est.meta["N"] + 1))))
    if pgm:
        steps.append((pgm, lambda path: scdio.write_pgm(path, grid, log_scale=pgm_log)))
    written = []
    for path, write in steps:
        created = not os.path.lexists(path)
        try:
            write(path)
        except BaseException:
            if created and os.path.isfile(path):
                written.append(path)
            for done in written:
                with contextlib.suppress(OSError):
                    os.unlink(done)
            raise
        written.append(path)
    return OpResult(est.n_bins, elapsed, written, value_hash(est.values))

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdkit as sk
from scdkit import estimate, op
from scdkit import io as scdio
from scdkit._util import value_hash


@functools.cache
def _estimate(kind, precision):
    x = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=4096, seed=8))
    if kind == "fam":
        return sk.fam_full(x[:512], sk.FamConfig(N=512, Np=64, precision=precision))
    return sk.ssca_full(x, sk.SscaConfig(N=4096, Np=32, precision=precision))


def test_run_returns_what_it_wrote_and_the_values_hash(tmp_path):
    x = sk.generate_dsss_bpsk(sk.DsssBpskConfig(n_samples=512, seed=3))
    scdio.write_iq(tmp_path / "x.iq", x)
    cfg = sk.FamConfig(N=512, Np=64)
    paths = [str(tmp_path / name) for name in ("o.scd1", "p.csv", "h.pgm")]
    res = op.run(cfg, tmp_path / "x.iq", paths[0], f_bins=64, alpha_bins=32,
                 profile_csv=paths[1], pgm=paths[2], threads=2)
    est = sk.fam_full(scdio.read_iq(tmp_path / "x.iq"), cfg)
    assert res.written == paths and res.n_bins == est.n_bins and res.elapsed_s > 0
    assert res.output_sha256 == value_hash(est.values)
    grid, _ = scdio.read_scd1(paths[0])
    assert np.array_equal(grid, sk.scd_to_grid(est, 64, 32).astype(np.float32))


@pytest.mark.filterwarnings("ignore:invalid value encountered in maximum:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["fam", "ssca"]), precision=st.sampled_from(["f32", "f64"]),
       where=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
       bad=st.sampled_from([np.nan, np.inf]),
       shape=st.one_of(st.tuples(st.integers(1, 70), st.integers(1, 70)), st.just((512, 1024))),
       bins_path=st.booleans())
def test_one_non_finite_bin_makes_one_non_finite_cell(kind, precision, where, bad, shape,
                                                      bins_path):
    # every bin lands in a clipped cell, and the maxima of each path (pairs
    # for FAM, runs for the SSCA, or bin by bin when runs are refused) keep
    # NaN and inf; so the op's finite check of the grid covers the values
    est = _estimate(kind, precision)
    r, c = (int(w * n) for w, n in zip(where, est.values.shape))
    keep = est.values[r, c]
    est.values[r, c] = bad
    try:
        with mock.patch.object(estimate, "_RUN_MIN_MEAN", 1 << 62 if bins_path else 64):
            grid = sk.scd_to_grid(est, *shape)
    finally:
        est.values[r, c] = keep
    assert (~np.isfinite(grid)).sum() == 1
    assert (np.isnan(grid) if np.isnan(bad) else np.isposinf(grid)).sum() == 1

"""Correctness gate: compare one op's estimate with a float64 reference.

Runs in its own process after the workload process has exited, so the
reference never shows in the workload's peak RSS. Reads the IQ file the
workload read and the estimate values it saved, and applies the
acceptance bounds: FAM mean_rel <= 2e-4 (criterion 2), SSCA mean_rel <=
1e-5 (criterion 3b).

The FAM reference is scdkit's own fam_full in float64, as in criterion 2.
The SSCA reference is built here with numpy.fft from the strip analyser's
definition, so it shares no transform code with the estimator under test
and costs seconds rather than the half-minute of ssca_direct in float64
at N = 2^20.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import scdkit as sk

from common import FAM_MEAN_REL_MAX, SSCA_MEAN_REL_MAX, WORKLOADS

_ROW_BLOCK = 1 << 16  # CDP rows per block


def read_iq64(path: str) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f4").astype(np.float64)
    return raw[0::2] + 1j * raw[1::2]


def ssca_reference(x: np.ndarray, np_ch: int) -> np.ndarray:
    """|SSCA| in float64, shaped (Np, N) like the estimator's values.

    CDP row n, channel k (k_s = k - Np/2): the centered Np-point DFT of the
    Chebyshev-windowed slice centred on n, times exp(-i 2 pi k_s n / Np)
    and conj(x[n]); channel k's strip is the centered N-point DFT over n.
    """
    n = x.size
    x = x / np.abs(x).max()
    a = sk.make_window(sk.WindowSpec("chebyshev", np_ch))
    xpad = np.zeros(n + np_ch, dtype=np.complex128)
    xpad[np_ch // 2: np_ch // 2 + n] = x
    slices = sliding_window_view(xpad, np_ch)[:n]
    k_signed = np.arange(np_ch) - np_ch // 2
    # the down-conversion phase repeats with period Np in n
    phase = np.exp((-2j * np.pi / np_ch) * np.outer(np.arange(np_ch), k_signed))
    cdp_t = np.empty((np_ch, n), dtype=np.complex128)  # channel-major CDP
    for r0 in range(0, n, _ROW_BLOCK):
        rows = np.arange(r0, min(r0 + _ROW_BLOCK, n))
        spec = np.fft.fftshift(np.fft.fft(slices[rows] * a, axis=1), axes=1)
        spec *= phase[rows % np_ch]
        spec *= np.conj(x[rows])[:, None]
        cdp_t[:, rows] = spec.T
    values = np.empty((np_ch, n), dtype=np.float64)
    for k in range(np_ch):
        values[k] = np.fft.fftshift(np.abs(np.fft.fft(cdp_t[k])))
    return values


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--iq", required=True)
    ap.add_argument("--estimate", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    x = read_iq64(args.iq)
    if wl.estimator == "fam":
        ref = sk.fam_full(x, sk.FamConfig(N=wl.n, Np=wl.np_channels, precision="f64")).values
        bound = FAM_MEAN_REL_MAX
    else:
        ref = ssca_reference(x, wl.np_channels)
        bound = SSCA_MEAN_REL_MAX
    test = np.load(args.estimate, mmap_mode="r")
    out = {"bound": bound, "shape_ok": test.shape == ref.shape}
    out["finite"] = bool(np.isfinite(ref).all() and np.isfinite(test).all())
    if out["shape_ok"] and out["finite"]:
        stats = sk.error_stats(test, ref)
        out.update(mean_rel=stats.mean_rel, max_rel=stats.max_rel, n_bins=stats.n_bins)
        out["passed"] = stats.mean_rel <= bound
    else:
        out["passed"] = False
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

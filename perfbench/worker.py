"""One workload in one process: set up, run ops back to back, report.

Started by run.py with the thread environment pinned. The process does
nothing but the workload, so its ru_maxrss is the workload's peak RSS;
the double-precision reference is computed by reference.py afterwards.

An op is the file-to-file operation of `scdkit fam` / `scdkit ssca`: read
the IQ file, estimate, rasterize, write SCD1 (and, for FAM, the alpha
profile CSV and a log-scaled PGM), with threads=1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

import scdkit as sk
from scdkit import io as scdio
from scdkit._util import value_hash

from common import (ALPHA_BINS, CHIP_RATE, COMPANION_N, F_BINS, MIB, PROCESSING_GAIN, SNR_DB,
                    WORKLOADS)
from tracing import Tracer, median_metrics, op_metrics

SCD1_BYTES = 52 + ALPHA_BINS * F_BINS * 4  # header + f32 payload
# An untraced loop runs at least two ops, so its median never rests on one op
# (ssca_spill_2e20 ops take ~20 s); each half of a traced run runs at least one.
MIN_OPS_UNTRACED = 2
MIN_OPS_TRACED_HALF = 1


def proc_write_bytes() -> int:
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no write_bytes line")


class Op:
    """The timed operation of one workload, traced or not."""

    def __init__(self, wl, work: str, tracer: Tracer):
        self.wl = wl
        self.tr = tracer
        self.iq = os.path.join(work, "input.iq")
        self.scd1 = os.path.join(work, "out.scd1")
        self.csv = os.path.join(work, "profile.csv")
        self.pgm = os.path.join(work, "out.pgm")
        if wl.estimator == "fam":
            self.cfg = sk.FamConfig(N=wl.n, Np=wl.np_channels, precision="f32")
        else:
            self.cfg = sk.SscaConfig(
                N=wl.n, Np=wl.np_channels, M1=wl.m1, mode="decomposed_2d",
                precision="f32", spill_dir=work,
            )

    def __call__(self):
        tr = self.tr
        with tr.span("io.read_iq"):
            x = scdio.read_iq(self.iq)
        if x.shape != (self.wl.n,):
            raise sk.DataError(f"{self.iq}: holds {x.shape[0]} samples, want {self.wl.n}")
        est = self._fam(x) if self.wl.estimator == "fam" else self._ssca(x)
        with tr.span("estimate.scd_to_grid") as s:
            to_grid = sk.fam_to_grid if self.wl.estimator == "fam" else sk.ssca_to_grid
            grid = to_grid(est, F_BINS, ALPHA_BINS)
        if s is not None:
            s.counts["bins"] = est.n_bins
        with tr.span("io.write_scd1"):
            scdio.write_scd1(self.scd1, grid, sk.ALPHA_RANGE, sk.F_RANGE, precision="f32")
        if self.wl.estimator == "fam":
            with tr.span("oracle.alpha_profile"):
                prof = sk.alpha_profile(est, 2 * est.meta["N"] + 1)
            with tr.span("io.write_profile_csv"):
                scdio.write_profile_csv(self.csv, prof)
            with tr.span("io.write_pgm"):
                scdio.write_pgm(self.pgm, grid, log_scale=True)
        return est, grid

    def _fam(self, x):
        if not self.tr.enabled:
            return sk.fam_full(x, self.cfg, threads=1)
        # the steps of fam_full, one span each
        x = np.asarray(x).astype(np.complex64, copy=False)
        with self.tr.span("signal.normalize"):
            x = sk.normalize(x)
        with self.tr.span("fam.frame"):
            frames = sk.frame(x, self.cfg)
        with self.tr.span("fam.demodulate"):
            xt = sk.demodulate(frames, self.cfg)
        with self.tr.span("fam.fam_scd"):
            return sk.fam_scd(xt, self.cfg, threads=1)

    def _ssca(self, x):
        if not self.tr.enabled:
            return sk.ssca_full(x, self.cfg, threads=1)
        cfg = self.cfg
        with self.tr.span("ssca.ssca_full") as s:
            written = proc_write_bytes()
            tracemalloc.start()
            try:
                est = sk.ssca_full(x, cfg, threads=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            written = proc_write_bytes() - written
        s.counts = {
            "peak_alloc_mb": peak / MIB,
            "disk_write_mb": written / MIB,
            "spill_bytes": self.wl.spill_bytes(),
            "spilled": int(self.wl.spills),
        }
        return est

    def outputs_ok(self, est, grid) -> bool:
        """Cheap per-op output check; the reference comparison is separate."""
        if grid.shape != (ALPHA_BINS, F_BINS) or os.path.getsize(self.scd1) != SCD1_BYTES:
            return False
        if not (np.isfinite(est.values).all() and np.isfinite(grid).all()):
            return False
        if self.wl.estimator == "fam":
            with open(self.csv) as fh:
                rows = sum(1 for _ in fh)
            if rows != 2 * self.wl.n + 2:  # header + 2N+1 alpha points
                return False
            if os.path.getsize(self.pgm) <= ALPHA_BINS * F_BINS:
                return False
        return True


def run_loop(op: Op, seconds: float, min_ops: int, tracer: Tracer, first_op: int, log: list):
    """Run ops back to back within `seconds`, and at least min_ops ops.

    A new op starts only if an op as long as the median so far would end
    inside the window, so the number of ops does not hinge on whether the
    last one happened to start just before the window closed. Returns the
    (estimate, grid) of the last op if it passed its output check, and
    appends one record per op to log.
    """
    walls = []
    t_start = time.perf_counter()
    i = first_op
    while True:
        tracer.op = i
        est = grid = last = None  # free the previous op's arrays first
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                est, grid = op()
            err = None
        except (sk.ScdError, OSError) as exc:
            err = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if err is None and not op.outputs_ok(est, grid):
            err = "output check failed"
        if err is None:
            last = (est, grid)
        walls.append(t1 - t0)
        log.append({"op": i, "wall_s": t1 - t0, "ok": err is None, "error": err,
                    "traced": tracer.enabled})
        i += 1
        if len(walls) >= min_ops and t1 - t_start + statistics.median(walls) > seconds:
            return last


def companion_calls(seed: int, tracer: Tracer) -> None:
    """Traced-run-only calls of cdp() and ssca_direct(), outside the ops,
    on the ssca_inmem_2e18 input of this seed (at 2^20 both exceed the cap)."""
    x = make_input(COMPANION_N, seed).astype(np.complex64)
    cfg = sk.SscaConfig(N=COMPANION_N, Np=64, M1=1024, mode="direct_1d", precision="f32")
    tracer.op = "companion"
    with tracer.span("ssca.cdp"):
        sk.cdp(x, cfg)
    with tracer.span("ssca.ssca_direct"):
        sk.ssca_direct(x, cfg, threads=1)


def make_input(n: int, seed: int) -> np.ndarray:
    return sk.generate_dsss_bpsk(sk.DsssBpskConfig(
        n_samples=n, processing_gain=PROCESSING_GAIN, chip_rate=CHIP_RATE,
        snr_db=SNR_DB, seed=seed,
    ))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawn-ts", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    x = make_input(wl.n, args.seed)
    plain = Tracer(enabled=False)
    op = Op(wl, args.work, plain)
    scdio.write_iq(op.iq, x)
    setup_s = time.monotonic() - args.spawn_ts
    result = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    log: list = []
    if args.trace:
        last = run_loop(op, args.seconds / 2, MIN_OPS_TRACED_HALF, plain, 0, log)
    else:
        last = run_loop(op, args.seconds, MIN_OPS_UNTRACED, plain, 0, log)
    untraced_walls = [r["wall_s"] for r in log]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer = Tracer(enabled=True)
        traced = Op(wl, args.work, tracer)
        last = None  # free the untraced output first; the traced ops' own is checked
        with tracer.fft_spans(sk.FftPlan):
            last = run_loop(traced, args.seconds / 2, MIN_OPS_TRACED_HALF, tracer, len(log), log)
            if wl.estimator == "ssca":
                companion_calls(args.seed, tracer)
        ops = sorted({s.op for s in tracer.spans if isinstance(s.op, int)})
        per_op = [op_metrics(tracer.spans, i) for i in ops]
        layers = median_metrics(per_op)
        layers["trace.span_coverage"] = min(m["trace.span_coverage"] for m in per_op)
        traced_walls = [r["wall_s"] for r in log if r["traced"]]
        layers["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(untraced_walls)
        )
        for name in ("ssca.cdp", "ssca.ssca_direct"):
            layers[name + "_s"] = sum(s.duration for s in tracer.spans if s.name == name)
        result["layers"] = layers
        result["spans"] = tracer.dump()

    result["ops"] = log
    if last is not None:
        est, grid = last
        np.save(os.path.join(args.work, "estimate.npy"), est.values)
        result["output_sha256"] = value_hash(est.values)
        result["grid_sha256"] = value_hash(grid)
        result["n_bins"] = int(est.n_bins)
    result["numpy"] = np.__version__
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

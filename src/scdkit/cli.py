"""Command-line frontend.

Exit codes: 0 success, 2 usage or configuration error, 3 data or
file-system error, 4 tolerance failure in compare.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import statistics
import sys
import time

import numpy as np

from . import io as scdio
from ._util import value_hash
from .errors import (
    CapacityError,
    ConfigurationError,
    DataError,
    DimensionError,
    DomainError,
)
from .estimate import ALPHA_RANGE, F_RANGE, alpha_profile, check_grid_capacity, scd_to_grid
from .fam import FamConfig, fam_full
from .oracle import error_stats
from .planner import format_report, plan_fam, plan_ssca
from .signal import DsssBpskConfig, WindowSpec, generate_dsss_bpsk
from .ssca import SscaConfig, ssca_full

USAGE_ERROR = 2
DATA_ERROR = 3
TOLERANCE_ERROR = 4

_MODE_NAMES = {"direct": "direct_1d", "2d": "decomposed_2d"}


def _load_input(path, expected_n: int) -> np.ndarray:
    x = scdio.read_iq_csv(path) if str(path).endswith(".csv") else scdio.read_iq(path)
    if x.shape[0] != expected_n:
        raise DataError(f"{path}: holds {x.shape[0]} samples but --n is {expected_n}")
    return x


def _export(est, args) -> None:
    """Write the SCD1 grid, then the optional profile CSV and PGM.

    A failed step removes the files this run wrote, including a partial
    file the step itself created, so a failed run leaves no outputs.
    """
    grid = scd_to_grid(est, args.f_bins, args.alpha_bins)
    steps = [(args.output, lambda path: scdio.write_scd1(
        path, grid, ALPHA_RANGE, F_RANGE, precision=args.precision))]
    if args.profile_csv:
        steps.append((args.profile_csv, lambda path: scdio.write_profile_csv(
            path, alpha_profile(est, 2 * est.meta["N"] + 1))))
    if args.pgm:
        steps.append((args.pgm, lambda path: scdio.write_pgm(path, grid, log_scale=args.pgm_log)))
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
    print(f"wrote {args.output} ({args.alpha_bins} x {args.f_bins} grid)")
    for path in written[1:]:
        print(f"wrote {path}")
    print(f"output_sha256={value_hash(est.values)}")


def cmd_gen(args) -> int:
    cfg = DsssBpskConfig(
        n_samples=args.n,
        processing_gain=args.gain,
        chip_rate=args.chip_rate,
        snr_db=args.snr,
        seed=args.seed,
    )
    x = generate_dsss_bpsk(cfg)
    scdio.write_iq(args.output, x)
    print(f"wrote {args.output}: {args.n} samples, gain {args.gain}, "
          f"chip rate {args.chip_rate}, snr {args.snr} dB, seed {args.seed}")
    return 0


def cmd_fam(args) -> int:
    cfg = FamConfig(
        N=args.n,
        Np=args.np,
        a_window=WindowSpec(args.a_window, args.np, args.atten_db),
        precision=args.precision,
    )
    check_grid_capacity(args.f_bins, args.alpha_bins)
    x = _load_input(args.input, args.n)
    t0 = time.perf_counter()
    est = fam_full(x, cfg, threads=args.threads)
    elapsed = time.perf_counter() - t0
    print(f"fam: N={args.n} Np={args.np} precision={args.precision} "
          f"bins={est.n_bins} elapsed={elapsed * 1000.0:.1f} ms")
    _export(est, args)
    return 0


def cmd_ssca(args) -> int:
    cfg = SscaConfig(
        N=args.n,
        Np=args.np,
        M1=args.m1,
        a_window=WindowSpec(args.a_window, args.np, args.atten_db),
        mode=_MODE_NAMES[args.mode],
        precision=args.precision,
        mem_cap_values=args.mem_cap,
        spill_dir=args.spill_dir,
    )
    check_grid_capacity(args.f_bins, args.alpha_bins)
    x = _load_input(args.input, args.n)
    t0 = time.perf_counter()
    est = ssca_full(x, cfg, threads=args.threads)
    elapsed = time.perf_counter() - t0
    print(f"ssca: N={args.n} Np={args.np} M1={cfg.M1} mode={args.mode} "
          f"precision={args.precision} bins={est.n_bins} elapsed={elapsed * 1000.0:.1f} ms")
    _export(est, args)
    return 0


def cmd_compare(args) -> int:
    test, test_hdr = scdio.read_scd1(args.test)
    ref, ref_hdr = scdio.read_scd1(args.reference)
    if test.shape != ref.shape:
        raise DimensionError(
            f"grid shapes differ: {test.shape} vs {ref.shape}"
        )
    if test_hdr["alpha_range"] != ref_hdr["alpha_range"] or test_hdr["f_range"] != ref_hdr["f_range"]:
        raise DimensionError("grid coordinate ranges differ")
    stats = error_stats(test, ref)
    print(f"n_bins={stats.n_bins}")
    print(f"mean_rel={stats.mean_rel:.6e}")
    print(f"max_rel={stats.max_rel:.6e}")
    print(f"mean_abs={stats.mean_abs:.6e}")
    if args.tol is not None and not stats.mean_rel <= args.tol:  # NaN fails too
        print(f"tolerance exceeded: mean_rel {stats.mean_rel:.6e} > {args.tol:.6e}")
        return TOLERANCE_ERROR
    return 0


def cmd_plan(args) -> int:
    if args.estimator == "fam":
        report = plan_fam(args.n, args.np)
    else:
        report = plan_ssca(args.n, args.np, args.m1)
    print(format_report(report))
    return 0


def cmd_bench(args) -> int:
    gen_cfg = DsssBpskConfig(n_samples=args.n, snr_db=10.0, seed=args.seed)
    x = generate_dsss_bpsk(gen_cfg)
    if args.estimator == "fam":
        cfg = FamConfig(N=args.n, Np=args.np, precision=args.precision)
        run = lambda: fam_full(x, cfg, threads=args.threads)
    else:
        cfg = SscaConfig(N=args.n, Np=args.np, M1=args.m1, precision=args.precision)
        run = lambda: ssca_full(x, cfg)
    times = []
    est = None
    for i in range(args.repeat):
        t0 = time.perf_counter()
        est = run()
        times.append(time.perf_counter() - t0)
        print(f"run[{i}]={times[-1] * 1000.0:.2f} ms")
    med = statistics.median(times)
    print(f"median_ms={med * 1000.0:.3f}")
    print(f"samples_per_sec={args.n / med:.3e}")
    print(f"output_sha256={value_hash(est.values)}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts: a value below 1 is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type for --tol: a NaN, infinite or negative value is a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


def _add_export_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f-bins", type=_positive_int, default=512, help="grid columns (f axis)")
    p.add_argument("--alpha-bins", type=_positive_int, default=1024,
                   help="grid rows (alpha axis)")
    p.add_argument("-o", "--output", required=True, help="SCD1 output path")
    p.add_argument("--profile-csv", help="also write the alpha profile as CSV")
    p.add_argument("--pgm", help="also write a PGM heatmap of the grid")
    p.add_argument("--pgm-log", action="store_true", help="log-scale the heatmap")


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a-window", default="chebyshev",
                   choices=("chebyshev", "rectangular", "hamming"))
    p.add_argument("--atten-db", type=float, default=100.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scdkit",
                                 description="Spectral correlation density tools")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a DSSS-BPSK IQ file")
    g.add_argument("--n", type=int, default=2048)
    g.add_argument("--gain", type=int, default=31)
    g.add_argument("--chip-rate", type=float, default=0.25)
    g.add_argument("--snr", type=float, default=10.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)

    f = sub.add_parser("fam", help="run the FAM estimator on an IQ file")
    f.add_argument("-i", "--input", required=True)
    f.add_argument("--n", type=int, default=2048)
    f.add_argument("--np", type=int, default=256)
    f.add_argument("--precision", default="f32", choices=("f32", "f64"))
    f.add_argument("--threads", type=_positive_int, default=1)
    _add_window_flags(f)
    _add_export_flags(f)
    f.set_defaults(func=cmd_fam)

    s = sub.add_parser("ssca", help="run the strip analyser on an IQ file")
    s.add_argument("-i", "--input", required=True)
    s.add_argument("--n", type=int, default=1 << 20)
    s.add_argument("--np", type=int, default=64)
    s.add_argument("--m1", type=int, default=None,
                   help="stage-1 size (default: balanced split for --n and --np)")
    s.add_argument("--mode", default="2d", choices=sorted(_MODE_NAMES))
    s.add_argument("--precision", default="f32", choices=("f32", "f64"))
    s.add_argument("--threads", type=_positive_int, default=1)
    s.add_argument("--mem-cap", type=int, default=1 << 24,
                   help="complex values held in memory before spilling")
    s.add_argument("--spill-dir", default=None)
    _add_window_flags(s)
    _add_export_flags(s)
    s.set_defaults(func=cmd_ssca)

    c = sub.add_parser("compare", help="compare two SCD1 files")
    c.add_argument("test")
    c.add_argument("reference")
    c.add_argument("--tol", type=_tolerance, default=None,
                   help="fail (exit 4) if mean relative error exceeds this")
    c.set_defaults(func=cmd_compare)

    p = sub.add_parser("plan", help="evaluate accelerator tile budgets")
    psub = p.add_subparsers(dest="estimator", required=True)
    pf = psub.add_parser("fam")
    pf.add_argument("--n", type=int, default=2048)
    pf.add_argument("--np", type=int, default=256)
    pf.set_defaults(func=cmd_plan, estimator="fam")
    ps = psub.add_parser("ssca")
    ps.add_argument("--n", type=int, default=1 << 20)
    ps.add_argument("--np", type=int, default=64)
    ps.add_argument("--m1", type=int, default=None,
                    help="stage-1 size (default: balanced split for --n and --np)")
    ps.set_defaults(func=cmd_plan, estimator="ssca")

    b = sub.add_parser("bench", help="time an estimator on synthetic input")
    bsub = b.add_subparsers(dest="estimator", required=True)
    bf = bsub.add_parser("fam")
    bf.add_argument("--n", type=int, default=2048)
    bf.add_argument("--np", type=int, default=256)
    bf.add_argument("--threads", type=_positive_int, default=1)
    bf.set_defaults(func=cmd_bench, estimator="fam")
    bs = bsub.add_parser("ssca")
    bs.add_argument("--n", type=int, default=1 << 12)
    bs.add_argument("--np", type=int, default=32)
    bs.add_argument("--m1", type=int, default=None)
    bs.set_defaults(func=cmd_bench, estimator="ssca")
    for bp in (bf, bs):
        bp.add_argument("--repeat", type=_positive_int, default=10)
        bp.add_argument("--precision", default="f32", choices=("f32", "f64"))
        bp.add_argument("--seed", type=int, default=0)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DataError, DimensionError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())

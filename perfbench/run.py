"""SCD benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fam_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The sources are imported from ./src; the
run writes only under ./.perfbench_work (deleted at the end) and
./.perfbench_runs (one JSON record per run, with the spans of a traced run).

Each run starts, one after another:
  * with --trace 0, half of SETUP_PROBES setup-only processes (import,
    input generation, IQ write), so setup_s is a median;
  * the workload process (worker.py), which runs ops back to back for
    --seconds; with --trace 1 it runs untraced ops for half the time and
    traced ops for the other half;
  * with --trace 0, the other half of the setup-only processes;
  * the reference process (reference.py), which checks one op's estimate
    against a float64 reference.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from common import MIB, SETUP_PROBES, WORKLOADS, child_env, repo_root

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DEADLINE_S = 170.0  # every child is killed past this, so the run ends within 180 s
DISK_WRITE_TOLERANCE = 0.01  # ssca.disk_write_mb vs ssca.spill_bytes_computed
NO_SPILL_MAX_MB = 1.0
MIN_SPAN_COVERAGE = 0.95


class BenchError(Exception):
    pass


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_child(script: str, args: list, env: dict, deadline: float) -> float:
    """Run a benchmark script to completion, killing it at the deadline.

    worker.py also gets the spawn time, from which it measures setup_s.
    Returns the child's wall time.
    """
    cmd = [sys.executable, os.path.join(HERE, script)] + [str(a) for a in args]
    spawn = time.monotonic()
    if script == "worker.py":
        cmd += ["--spawn-ts", repr(spawn)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - spawn),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish before the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{proc.stdout}")
    return time.monotonic() - spawn


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def tail_time(times: list) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, and that percentile.

    With fewer than eleven ops no such percentile exists; the slowest op is
    reported as the 100th percentile instead.
    """
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            l3 = fh.read().strip()
    except OSError:
        l3 = "unknown"
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)), "l3_size": l3,
            "python": platform.python_version()}


def git_commit(root: str) -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def hash_vs_baseline(workload: str, seed: int, digest: str | None) -> str:
    """Compare the output hash with the committed baseline's for this seed.

    A changed hash is reported, not failed: the correctness gate decides.
    """
    try:
        with open(os.path.join(HERE, "baseline.json")) as fh:
            known = json.load(fh)["output_sha256"][workload]
    except (OSError, KeyError):
        return "no baseline for this workload"
    if str(seed) not in known:
        return "seed not in baseline"
    return "unchanged vs baseline" if known[str(seed)] == digest else "CHANGED vs baseline"


def self_checks(wl, layers: dict) -> list:
    """Checks of the outside measurements; returns the failures."""
    bad = []
    if layers["trace.span_coverage"] < MIN_SPAN_COVERAGE:
        bad.append(f"layer spans cover {layers['trace.span_coverage']:.3f} of op time "
                   f"(< {MIN_SPAN_COVERAGE})")
    if wl.estimator == "ssca":
        disk = layers["ssca.disk_write_mb"]
        computed = layers["ssca.spill_bytes_computed"] / MIB
        if wl.spills and abs(disk - computed) > DISK_WRITE_TOLERANCE * computed:
            bad.append(f"disk writes {disk:.1f} MiB vs {computed:.1f} MiB spill computed")
        if not wl.spills and disk > NO_SPILL_MAX_MB:
            bad.append(f"disk writes {disk:.1f} MiB on the in-memory path")
    return bad


def run(args, root: str) -> dict:
    spec = load_spec(root)
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = os.path.join(root, ".perfbench_work", f"{wl.name}-seed{args.seed}-{os.getpid()}")
    records = os.path.join(root, ".perfbench_runs")
    os.makedirs(work)
    os.makedirs(records, exist_ok=True)
    try:
        free = shutil.disk_usage(work).free
        if free < wl.min_free_bytes:
            raise BenchError(f"{wl.name} needs {wl.min_free_bytes / MIB:.0f} MiB free for its "
                             f"spill file in {work}; {free / MIB:.0f} MiB free")
        env = child_env(root, work)
        base_args = ["--workload", wl.name, "--seed", args.seed, "--work", work]
        setups = []
        phases = {"setup_probes_s": 0.0}

        def setup_probes(count: int) -> None:
            for _ in range(count):
                out = os.path.join(work, f"setup{len(setups)}.json")
                phases["setup_probes_s"] += run_child(
                    "worker.py", base_args + ["--seconds", 0, "--setup-only", "--out", out],
                    env, deadline)
                setups.append(read_json(out)["setup_s"])

        probes = 0 if args.trace else SETUP_PROBES
        setup_probes(probes // 2)
        out = os.path.join(work, "worker.json")
        phases["worker_s"] = run_child(
            "worker.py", base_args + ["--seconds", args.seconds, "--trace", args.trace, "--out", out],
            env, deadline)
        res = read_json(out)
        setups.append(res["setup_s"])
        # probes on both sides of the ops sample host speed at two times
        setup_probes(probes - probes // 2)
        check = {"passed": False, "reason": "the last op produced no checkable estimate"}
        if "output_sha256" in res:
            out = os.path.join(work, "check.json")
            phases["reference_s"] = run_child(
                "reference.py", ["--workload", wl.name, "--iq", os.path.join(work, "input.iq"),
                                 "--estimate", os.path.join(work, "estimate.npy"), "--out", out],
                env, deadline)
            check = read_json(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = res["ops"]
    failed = sum(not o["ok"] for o in ops)
    if "output_sha256" in res and not check["passed"]:
        failed += 1  # the checked op passed its own output check but not the reference
    untraced = [o["wall_s"] for o in ops if not o["traced"]]
    tail, tail_pct = tail_time(untraced)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "precision": "f32", "threads": 1, "git_commit": git_commit(root),
        "numpy": res["numpy"], **machine(),
        "working_set_mib_computed": wl.working_set_mib(),
        "output_sha256": res.get("output_sha256"), "grid_sha256": res.get("grid_sha256"),
        "output_sha256_vs_baseline": hash_vs_baseline(wl.name, args.seed,
                                                      res.get("output_sha256")),
        "check": check, "attempted": len(ops), "failed": failed,
        "error_rate": failed / len(ops),
        "wall_median_s": statistics.median(untraced),
        "wall_tail_pct": tail_pct, "wall_ops": len(untraced),
        "setup_samples_s": setups, "phases_s": phases, "ops": ops,
    }
    if args.trace:
        layers = res["layers"]
        record["self_check_failures"] = self_checks(wl, layers)
        metrics = {k: layers[k] for k in spec["per_layer"]}
        units = spec["per_layer"]
        record["spans"] = res["spans"]
    else:
        metrics = {
            "wall_tail_s": tail,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        units = spec["end_to_end"]
    record["metrics"] = metrics
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(records, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {wl.name} seed {args.seed}: {len(ops)} ops, {failed} failed "
          f"(error_rate {record['error_rate']:.3g}); check mean_rel "
          f"{check.get('mean_rel', float('nan')):.3e} <= {check.get('bound', float('nan')):g}: "
          f"{'pass' if check['passed'] else 'FAIL'}")
    print(f"output_sha256 {record['output_sha256']} "
          f"({record['output_sha256_vs_baseline']})")
    if not args.trace:
        print(f"wall_tail_s is p{tail_pct:.0f} of {len(untraced)} ops; "
              f"median op {record['wall_median_s']:.6g} s (recorded, not gated)")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(f"record: {os.path.join('.perfbench_runs', name)}")
    if args.trace and record["self_check_failures"]:
        raise BenchError("measurement self-check failed: "
                         + "; ".join(record["self_check_failures"]))
    return {
        "correct": bool(check["passed"] and failed == 0),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = repo_root()
    if not os.path.isfile(os.path.join(root, "src", "scdkit", "__init__.py")):
        print(f"error: no scdkit sources under {os.path.join(root, 'src')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Summarize the run records in .perfbench_runs into perfbench/baseline.json.

    python3 perfbench/baseline.py

For every workload: median and quartiles of each end-to-end metric over the
untraced runs, the median of each per-layer metric over the traced runs,
and the output hash of every seed (run.py reports a changed hash against
it). Run from the root of the checkout the records were made in.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from common import repo_root

KEYS = ("git_commit", "numpy", "cpu_model", "nproc", "l3_size", "python", "precision",
        "threads", "seconds")


def summarize(values: list) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"])
    return out


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main() -> int:
    root = repo_root()
    records = [load(p) for p in sorted(glob.glob(os.path.join(root, ".perfbench_runs", "*.json")))]
    if not records:
        print("no run records in .perfbench_runs", file=sys.stderr)
        return 1
    out = {"run": {k: records[0][k] for k in KEYS}, "workloads": {}, "output_sha256": {}}
    for wl in sorted({r["workload"] for r in records}):
        mine = [r for r in records if r["workload"] == wl]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        entry = {
            "working_set_mib_computed": mine[0]["working_set_mib_computed"],
            "seeds_untraced": sorted(r["seed"] for r in plain),
            "seeds_traced": sorted(r["seed"] for r in traced),
            "failed_over_attempted": [sum(r["failed"] for r in mine),
                                      sum(r["attempted"] for r in mine)],
            "check_mean_rel_max": max(r["check"].get("mean_rel", float("inf")) for r in mine),
        }
        if plain:
            entry["end_to_end"] = {k: summarize([r["metrics"][k] for r in plain])
                                   for k in plain[0]["metrics"]}
            entry["wall_median_s"] = summarize([r["wall_median_s"] for r in plain])
        if traced:
            entry["per_layer"] = {k: statistics.median(r["metrics"][k] for r in traced)
                                  for k in traced[0]["metrics"]}
        out["workloads"][wl] = entry
        out["output_sha256"][wl] = {str(r["seed"]): r["output_sha256"] for r in mine}
    with open(os.path.join(root, "perfbench", "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

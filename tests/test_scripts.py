import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _run_script(name, *args, cwd):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=_env(), capture_output=True, text=True, timeout=120)


def test_resource_plan_sweep_runs(tmp_path):
    proc = _run_script("resource_plan_sweep.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "FAM" in proc.stdout and "SSCA" in proc.stdout


def test_accuracy_experiment_runs(tmp_path):
    # default sizes: FAM (2048, 256) and SSCA 2^14/64, single against double
    proc = _run_script("accuracy_experiment.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    mean_rel = {line.split()[0]: float(line.split()[-3])
                for line in proc.stdout.splitlines()[1:]}
    assert mean_rel.keys() == {"fam", "ssca"}, proc.stdout
    assert mean_rel["fam"] <= 2e-4
    assert mean_rel["ssca"] <= 1e-5


def test_cycle_profile_demo_writes_heatmap_and_profile(tmp_path):
    # signal -> SSCA -> ssca_to_grid -> PGM, and alpha_profile -> CSV
    proc = _run_script("cycle_profile_demo.py", "--n", "4096", "--np", "32", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "detected" in proc.stdout
    for name in ("scd.pgm", "profile.csv"):
        assert (tmp_path / name).stat().st_size > 0


@pytest.mark.parametrize("workload", ["fam_small", "ssca_inmem_2e18"])
def test_perfbench_traced_worker_runs(tmp_path, workload):
    # a traced run makes every scdkit call the benchmark makes: the threads=
    # keywords, FftPlan.execute, alpha_profile, and on SSCA cdp and ssca_direct
    work, out = tmp_path / "work", tmp_path / "worker.json"
    work.mkdir()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1", "--work", str(work),
         "--spawn-ts", repr(time.monotonic()), "--out", str(out)],
        cwd=tmp_path, env=_env(TMPDIR=str(work)), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert any(op["traced"] for op in result["ops"])
    assert all(op["ok"] for op in result["ops"]), result["ops"]
    assert result["output_sha256"] and result["grid_sha256"]

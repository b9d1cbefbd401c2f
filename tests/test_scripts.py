import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_resource_plan_sweep_runs(tmp_path):
    proc = _run_script("resource_plan_sweep.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "FAM" in proc.stdout and "SSCA" in proc.stdout


def test_cycle_profile_demo_writes_heatmap_and_profile(tmp_path):
    # signal -> SSCA -> ssca_to_grid -> PGM, and alpha_profile -> CSV
    proc = _run_script("cycle_profile_demo.py", "--n", "4096", "--np", "32", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "detected" in proc.stdout
    for name in ("scd.pgm", "profile.csv"):
        assert (tmp_path / name).stat().st_size > 0

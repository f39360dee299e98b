"""Every demo runs to completion from a scratch working directory."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
SCRIPTS = ["01_transforms.py", "02_coherence.py", "03_sampling.py",
           "04_recovery.py", "05_experiment.py"]


def _env(bin_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    return env


def _shim(bin_dir, name, command):
    path = bin_dir / name
    path.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command} "$@"\n')
    path.chmod(0o755)


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_script_runs(tmp_path, script):
    done = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          env=_env(tmp_path), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_cli_tour_runs(tmp_path):
    # `hadhaar` and `python3` on PATH run this interpreter on this checkout
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    _shim(bin_dir, "hadhaar", "-m hadhaar.cli")
    _shim(bin_dir, "python3", "")
    done = subprocess.run(["sh", str(DEMOS / "06_cli_tour.sh")], cwd=tmp_path,
                          env=_env(bin_dir), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    out = tmp_path / "demo_output"
    for name in ("recovered/recovered.csv", "recovered/recovery_meta.json",
                 "experiment/trials.csv", "experiment/summary.csv"):
        assert (out / name).exists(), name

"""Counts and quality repeat exactly at one seed, and the experiment driver
keeps its byte-identical-output promise.

Each benchmark run here lasts one round (``--seconds 0``).  Run with
``python -m pytest perfbench`` from the root of the checkout.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hadhaar import cli

HERE = Path(__file__).resolve().parent
COUNT_STATS = ("calls", "iterations", "converged", "ops", "bytes",
               "transform_calls_per_iteration")


def _bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0, proc.stderr
    return doc


@pytest.mark.parametrize("workload", ["ordering_1d", "camera_256", "preview_512"])
def test_counts_and_sre_repeat_at_one_seed(workload):
    first, second = _bench(workload, 0), _bench(workload, 0)
    assert first["attempted"] == second["attempted"]
    assert first["metrics"]["sre_db"] == second["metrics"]["sre_db"]
    first, second = _bench(workload, 1), _bench(workload, 1)
    counts = [name for name in first["metrics"]
              if name.rpartition(".")[2] in COUNT_STATS]
    assert "recovery.solve_bpdn.iterations" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_first_ordering_experiment_is_byte_identical(tmp_path):
    config = tmp_path / "uds.json"
    config.write_text(json.dumps({
        "system": "had_dhw_1d", "r": 9, "strategy": "uds", "ratios": [0.2],
        "snr_db": 20.0, "trials": 20, "seed": 3,
        "signal": {"kind": "gaussian_bump", "sigma": 64.0, "center": "random"}}))
    out = tmp_path / "out"                     # config_echo.json records it
    outputs = []
    for _ in range(2):
        assert cli.main(["experiment", "--config", str(config),
                         "--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in
                        sorted(out.iterdir())})
        shutil.rmtree(out)
    assert sorted(outputs[0]) == ["config_echo.json", "summary.csv", "trials.csv"]
    assert outputs[0] == outputs[1]

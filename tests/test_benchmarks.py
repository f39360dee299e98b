import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hadhaar.transforms import _matmuls

_LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def _layers_module():
    spec = importlib.util.spec_from_file_location("layers_bench", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_bench_builds_its_level_op_and_projection_inputs():
    # the layer bench reaches into the level operator's binding and the
    # solver's batch, so its inputs are built here, and each layer runs
    # once, with no timing
    layers = _layers_module()
    names = set()
    for system, name, batch, fn, arg in layers._level_op_layers():
        got = fn(arg)
        names.add(name)
        if name == "level_op_bound":
            assert fn is _matmuls and batch in (1, 20)
        else:
            assert np.all(np.isfinite(got))
    assert names == {"level_op", "level_op_bound", "spectrum_synthesis",
                     "coefficients_signal"}
    projections = list(layers._projection_layers())
    assert [name for name, _, _ in projections] == [
        "project_ellipsoid", "project_ellipsoid_warm",
        "project_ellipsoid_step"]
    for _, fn, arg in projections:
        assert np.all(np.isfinite(fn(arg)))


def test_layer_bench_builds_its_solver_problems():
    # the 1-D solver rows run on the engine's own problems, so a change to
    # how the engine builds a ratio's trials shows here
    problems = _layers_module()._solver_problems()
    assert len(problems) == 20
    system = problems[0].system
    assert (system.tag, system.r) == ("had_dhw_1d", 9)
    for problem in problems:
        assert problem.system is system
        assert problem.sample.n_measurements == 102
        assert problem.sample.weighted and problem.epsilon > 0


def test_layer_bench_builds_its_tail_row():
    # the solve_tail rows count iterations over whole experiments, so one
    # seed's row is built here
    row = _layers_module()._tail_row("vds", (3021,))
    assert (row["layer"], row["strategy"], row["seeds"]) == (
        "solve_tail", "vds", "3021-3021")
    assert row["certified"] == row["trials"] == 20
    assert 0 < row["batch_maxima"] <= row["iterations"]
    assert row["mean_sre_db"] > 0.0


def test_layer_bench_builds_its_engine_row():
    # the engine rows split an experiment's time at solve_bpdn_batch, so
    # one seed's row is built here, and the solver is unwrapped after it
    layers = _layers_module()
    solve = layers.experiment.solve_bpdn_batch
    row = layers._engine_row("mds", (3021,), passes=1)
    assert layers.experiment.solve_bpdn_batch is solve
    assert (row["layer"], row["strategy"], row["seeds"]) == (
        "engine", "mds", "3021-3021")
    assert 0.0 < row["solve_ms"] < row["ms_per_experiment"]
    assert row["outside_ms"] == pytest.approx(
        row["ms_per_experiment"] - row["solve_ms"], abs=2e-3)
    assert 0.0 < row["outside_share"] < 1.0


def test_layer_bench_counts_the_code_lines_of_src():
    # src_code_lines leaves out blank lines, comments and docstrings, so it
    # is positive and below the count of all lines
    machine = _layers_module()._machine()
    assert 0 < machine["src_code_lines"] < machine["src_lines"]

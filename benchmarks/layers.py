"""Layer bench: microseconds per call of each transform layer.

    python3 benchmarks/layers.py

Imports the package from this checkout's ``src/``, pins the process to one
CPU and times, with ``time.perf_counter``:

* ``fwht``;
* Haar analysis and synthesis: ``dhw`` in 1-D, ``adhw`` and ``idhw`` in 2-D;
* ``measure`` and ``measure_adjoint`` with a uniform sample of N/4 indices;

at 1-D r in {9, 12, 16} and 2-D r in {6, 8, 9}; then

* ``draw_sample`` with the vds and mds plans at 2-D r = 9 (N/4 indices, mds
  sized by the Shepp-Logan phantom's effective sparsity at rho = 0.995);
* U v for ``had2_idhw`` at r in {7, 8, 9}, ``had_dhw_1d`` at r = 9 and
  ``had2_adhw`` at r = 7: ``level_op`` (one flat Walsh-Hadamard transform
  per block, from level order to spectral order) against the two
  flat-order compositions ``spectrum(synthesis(v))`` and
  ``coefficients(signal(v))``, and ``level_op`` on a batch of 20 for idhw
  at r in {7, 8} and for 1-D at r = 9 (the strategy-ordering experiment's
  batch), timed per call, each call binding afresh and so making its own
  work buffers; beside them ``level_op_bound``, the calls of
  ``bind_level_op`` bound once and run per call as the solver runs them,
  at 1-D r = 9 with B = 1 and 20 and at idhw r = 8 with B = 1;
* the data-ball projection ``_project_ellipsoid`` on the vds problem below:
  cold and exact, at the solver's first iterate (v = 0 on the sample,
  Newton from 0); warm and exact, at the iterate of the solver's 50th
  iteration (a check) started from the multipliers of its 49th, as the
  solver runs it; and the one Newton step from the same start that the
  solver takes between checks (the iterate and multipliers recorded by
  wrapping the projection during one solve);
* the solver at 1-D r = 9 on the 20 problems of the strategy-ordering
  experiment's vds run at seed 9 (Gaussian bump, sigma = 64, random
  centre, M/N = 0.2, 20 dB), built by the experiment engine's
  ``_build_trials``: ``solve_bpdn`` on each in turn (B = 1) and
  ``solve_bpdn_batch`` on all 20 (B = 20), timed per call, with the
  problems' total iterations, the milliseconds per problem and the
  microseconds per row-iteration (a cut in iterations shows in the first
  two, not in the last);
* the same at 2-D r = 8 with B = 1 on one vds problem shaped like the
  single-pixel-camera benchmark's (Shepp-Logan, M/N = 0.25, 20 dB);
* the batch tail, as counts and not times: one ``solve_tail`` row per
  strategy (uds, vds, mds) over the strategy-ordering experiment at seeds
  3021-3030, run by ``run_experiment``, with its iterations in all, the
  sum over seeds of each batch's most iterations (the batch maxima, which
  set a batch's time), the certified trials and the mean over seeds of the
  experiment's SRE in dB;
* the engine around the solve: one ``engine`` row per strategy over the
  same experiments, run by ``run_experiment``, with the milliseconds per
  experiment in all, inside ``solve_bpdn_batch`` and outside it (drawing,
  building, ME and records), and the share outside; each the median of
  five passes over the seeds;
* CSV I/O on files in a temporary directory: ``save_image_csv`` and
  ``load_signal_csv`` of a random image at 2-D r = 8 and 9 (65,536 and
  262,144 rows), ``save_signal_csv`` of a random vector of 16,384 rows, and
  ``hadhaar sample``'s ``sample.csv`` write and its ``_read_csv`` parse for
  a vds sample of 65,536 rows at 2-D r = 9.

Each figure is the median of five windows of at least 0.1 s of back-to-back
calls on one fixed input.  The script takes no options and prints one JSON
line: the machine, the versions, the line count of ``src/`` (all lines, and
the lines that are not blank, comments or docstrings) and one row per
(layer, dimension, r); the CSV rows also give the row count.
"""
from __future__ import annotations

import ast
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hadhaar.cli import _save_sample_csv  # noqa: E402
from hadhaar import experiment, recovery  # noqa: E402
from hadhaar.coherence import SystemKind  # noqa: E402
from hadhaar.experiment import (ExperimentConfig, SignalSpec,  # noqa: E402
                                _build_trials, run_experiment)
from hadhaar.recovery import (RecoveryProblem, SolverSpec,  # noqa: E402
                              _Batch, _collapse, _project_ellipsoid,
                              solve_bpdn, solve_bpdn_batch)
from hadhaar.sampling import (draw_sample, mds_allocate, measure,  # noqa: E402
                              measure_adjoint, rng_stream, uds_pmf, vds_pmf)
from hadhaar.signals import (NoiseSpec, _read_csv,  # noqa: E402
                             effective_sparsity, load_signal_csv, make_noise,
                             save_image_csv, save_signal_csv, shepp_logan)
from hadhaar.transforms import _matmuls, fwht, haar_transform  # noqa: E402

CASES = (("had_dhw_1d", (9, 12, 16)), ("had2_idhw", (6, 8, 9)))
TAIL_SEEDS = range(3021, 3031)
WINDOWS = 5
WINDOW_S = 0.1


def _code_lines(text):
    """The lines of the Python source ``text`` that hold a token other than
    a comment, outside the docstrings (the string constants that are the
    first statement of the module, a class or a function)."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    texts = [p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "src").rglob("*.py"))]
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "src_lines": sum(len(text.splitlines()) for text in texts),
            "src_code_lines": sum(map(_code_lines, texts))}


def _us_per_call(fn, arg):
    fn(arg)
    windows = []
    for _ in range(WINDOWS):
        calls, start = 0, time.perf_counter()
        while True:
            fn(arg)
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= WINDOW_S:
                break
        windows.append(elapsed / calls * 1e6)
    return statistics.median(windows)


def _layers(tag, r):
    """(layer name, function, input) for one system size."""
    system = SystemKind(tag, r)
    shape = (system.side,) * (2 if system.is_2d else 1)
    x = np.random.default_rng(r).standard_normal(shape)
    sample = draw_sample(uds_pmf(system), system.n_total // 4, seed=r)
    y = measure(system, sample, x)
    haar = ("adhw", "idhw") if system.is_2d else ("dhw",)
    for basis in haar:
        coef = haar_transform(basis, "analysis", x)
        yield f"{basis}_analysis", lambda v, b=basis: haar_transform(b, "analysis", v), x
        yield f"{basis}_synthesis", lambda c, b=basis: haar_transform(b, "synthesis", c), coef
    yield "fwht", fwht, x
    yield "measure", lambda v: measure(system, sample, v), x
    yield "measure_adjoint", lambda v: measure_adjoint(system, sample, v), y


def _draw_layers():
    """(layer name, function, input) for the vds and mds draws at 2-D r = 9."""
    system = SystemKind("had2_idhw", 9)
    partition = system.partition()
    m = system.n_total // 4
    k = effective_sparsity(system.coefficients(shepp_logan(system.side)),
                           0.995, partition).per_level
    for name, plan in (("draw_sample_vds", vds_pmf(system)),
                       ("draw_sample_mds", mds_allocate(k, m, partition))):
        yield name, lambda seed, p=plan: draw_sample(p, m, seed), 9


def _ordering_config(strategy, seed):
    """The strategy-ordering experiment (criterion 6's configuration)."""
    return ExperimentConfig(
        system="had_dhw_1d", r=9, strategy=strategy, ratios=(0.2,),
        snr_db=20.0, trials=20, seed=seed,
        signal=SignalSpec("gaussian_bump", sigma=64.0, center="random"))


def _solver_problems():
    """The 20 problems of the strategy-ordering experiment's vds run at seed
    9, built by the experiment engine."""
    config = _ordering_config("vds", 9)
    system = SystemKind(config.system, config.r)
    return _build_trials(config, system, system.partition(), vds_pmf(system),
                         0, round(config.ratios[0] * system.n_total))[1]


def _level_op_layers():
    """(system, layer name, batch, function, input) for U v: idhw at r = 7,
    8 and 9, 1-D at r = 9 and adhw at r = 7, with a batch of 20 for idhw
    at r = 7 and 8 and for 1-D; and its bound calls at 1-D r = 9 and idhw
    r = 8, B = 1, and at 1-D r = 9, B = 20."""
    bound = (("had_dhw_1d", 9, 1), ("had_dhw_1d", 9, 20), ("had2_idhw", 8, 1))
    for tag, r, batched in (("had2_idhw", 7, True), ("had2_idhw", 8, True),
                            ("had2_idhw", 9, False), ("had_dhw_1d", 9, True),
                            ("had2_adhw", 7, False)):
        system = SystemKind(tag, r)
        rows = np.random.default_rng(r).standard_normal(
            (20 if batched else 1, system.n_total))
        for v in [rows[0]] + ([rows] if batched else []):
            out = np.empty_like(v)
            batch = len(v) if v.ndim == 2 else 1
            yield (system, "level_op", batch,
                   lambda u, s=system, o=out: s.level_op(u, out=o), v)
            if (tag, r, batch) in bound:
                calls, = system.bind_level_op((v.reshape(batch, -1),
                                               out.reshape(batch, -1)))
                yield system, "level_op_bound", batch, _matmuls, calls
        yield (system, "spectrum_synthesis", 1,
               lambda u, s=system: s.spectrum(s.synthesis(u)), rows[0])
        yield (system, "coefficients_signal", 1,
               lambda u, s=system: s.coefficients(s.signal(u)), rows[0])


def _camera_problem():
    """One vds problem at 2-D r = 8 shaped like the camera benchmark's."""
    system = SystemKind("had2_idhw", 8)
    x = shepp_logan(system.side)
    m = system.n_total // 4
    sample = draw_sample(vds_pmf(system), m, 8)
    noise = make_noise(NoiseSpec(20.0), x, m, weights=sample.weights,
                       rng=rng_stream(8, 0))
    return RecoveryProblem(system, sample, measure(system, sample, x)
                           + noise.vector, noise.weighted_norm)


def _projection_layers():
    """(layer name, function, input) for the data-ball projection of the
    camera-shaped vds problem: exact and cold at the solver's first
    iterate, where v = 0 on the sample; exact and warm at its 50th, from
    the multipliers of its 49th; and one Newton step from the same
    start."""
    problem = _camera_problem()
    system = problem.system
    position = np.empty(system.n_total, dtype=np.int64)
    position[system.spectral_order] = np.arange(system.n_total)
    batch = _Batch([_collapse(problem, position, SolverSpec().tol_feas)],
                   system.n_total)
    yield ("project_ellipsoid",
           lambda v: _project_ellipsoid(v, batch, np.zeros(1), True),
           np.zeros(batch.c.size))
    calls = []

    def record(v, solve_batch, lam, exact):
        calls.append((v.copy(), lam.copy()))
        return _project_ellipsoid(v, solve_batch, lam, exact)

    recovery._project_ellipsoid = record
    try:
        solve_bpdn(problem)
    finally:
        recovery._project_ellipsoid = _project_ellipsoid
    v, lam = calls[49]
    yield ("project_ellipsoid_warm",
           lambda u: _project_ellipsoid(u, batch, lam.copy(), True), v)
    yield ("project_ellipsoid_step",
           lambda u: _project_ellipsoid(u, batch, lam.copy(), False), v)


def _solver_row(dim, r, batch, problems, solve):
    """The solver row for ``solve`` over ``problems``: total iterations,
    milliseconds per problem and microseconds per row-iteration."""
    iterations = sum(report.iterations for report in solve(problems))
    us = _us_per_call(solve, problems)
    return {"layer": "solve_row_iteration", "dim": dim, "r": r,
            "batch": batch, "iterations": iterations,
            "ms_per_problem": round(us / len(problems) / 1e3, 3),
            "us_per_row_iteration": round(us / iterations, 2)}


def _solver_rows():
    problems = _solver_problems()
    yield _solver_row(1, 9, 1, problems,
                      lambda ps: [solve_bpdn(p) for p in ps])
    yield _solver_row(1, 9, 20, problems, solve_bpdn_batch)
    yield _solver_row(2, 8, 1, [_camera_problem()],
                      lambda ps: [solve_bpdn(p) for p in ps])


def _tail_row(strategy, seeds=TAIL_SEEDS):
    """The ``solve_tail`` row for ``strategy``: the strategy-ordering
    experiment at each of ``seeds``, with its iterations in all, the sum of
    each batch's maximum, the certified trials and the mean SRE."""
    iterations = maxima = certified = trials = 0
    sre = []
    for seed in seeds:
        report = run_experiment(_ordering_config(strategy, seed))
        counts = [record.cs_iterations for record in report.records]
        iterations += sum(counts)
        maxima += max(counts)
        certified += sum(record.cs_converged for record in report.records)
        trials += len(counts)
        sre.append(20.0 * math.log10(report.ratio_summary()[0][3]))
    return {"layer": "solve_tail", "dim": 1, "r": 9, "strategy": strategy,
            "seeds": f"{seeds[0]}-{seeds[-1]}", "iterations": iterations,
            "batch_maxima": maxima, "certified": certified, "trials": trials,
            "mean_sre_db": round(statistics.fmean(sre), 4)}


def _engine_row(strategy, seeds=TAIL_SEEDS, passes=WINDOWS):
    """The ``engine`` row for ``strategy``: the strategy-ordering
    experiment at each of ``seeds``, timed in ``run_experiment`` and inside
    its ``solve_bpdn_batch`` calls, in milliseconds per experiment, each
    the median of ``passes`` passes over the seeds."""
    configs = [_ordering_config(strategy, seed) for seed in seeds]
    solve, inside = experiment.solve_bpdn_batch, [0.0]

    def timed(problems, solver):
        start = time.perf_counter()
        try:
            return solve(problems, solver)
        finally:
            inside[0] += time.perf_counter() - start

    run_experiment(configs[0])
    passes_ms = []
    experiment.solve_bpdn_batch = timed
    try:
        for _ in range(passes):
            inside[0], start = 0.0, time.perf_counter()
            for config in configs:
                run_experiment(config)
            total = time.perf_counter() - start
            passes_ms.append((total, inside[0], total - inside[0]))
    finally:
        experiment.solve_bpdn_batch = solve
    total, solve_s, outside = (statistics.median(column) * 1e3 / len(configs)
                               for column in zip(*passes_ms))
    return {"layer": "engine", "dim": 1, "r": 9, "strategy": strategy,
            "seeds": f"{seeds[0]}-{seeds[-1]}",
            "ms_per_experiment": round(total, 3),
            "solve_ms": round(solve_s, 3), "outside_ms": round(outside, 3),
            "outside_share": round(outside / total, 4)}


def _csv_layers(tmp):
    """(layer name, dim, r, rows, function, input) for the CSV writers and
    readers, each on one file in the directory ``tmp``."""
    for r in (8, 9):
        img = np.random.default_rng(r).standard_normal((2 ** r, 2 ** r))
        path = os.path.join(tmp, f"image_{r}.csv")
        save_image_csv(path, img)
        yield ("save_image_csv", 2, r, img.size,
               lambda a, p=path: save_image_csv(p, a), img)
        yield "load_signal_csv", 2, r, img.size, load_signal_csv, path
    x = np.random.default_rng(14).standard_normal(1 << 14)
    path = os.path.join(tmp, "signal.csv")
    yield ("save_signal_csv", 1, 14, x.size,
           lambda v: save_signal_csv(path, v), x)
    system = SystemKind("had2_idhw", 9)
    sample = draw_sample(vds_pmf(system), 1 << 16, seed=9)
    path = os.path.join(tmp, "sample.csv")
    _save_sample_csv(path, sample)
    yield ("save_sample_csv", 2, 9, sample.n_measurements,
           lambda s: _save_sample_csv(path, s), sample)
    yield ("read_sample_csv", 2, 9, sample.n_measurements,
           lambda p: _read_csv(p, ("position,index,weight",)), path)


def main():
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    rows = []
    for tag, rs in CASES:
        for r in rs:
            dim = 2 if SystemKind(tag, r).is_2d else 1
            for name, fn, arg in _layers(tag, r):
                rows.append({"layer": name, "dim": dim, "r": r,
                             "us_per_call": round(_us_per_call(fn, arg), 1)})
    for system, name, batch, fn, arg in _level_op_layers():
        rows.append({"layer": name, "system": system.tag,
                     "dim": 2 if system.is_2d else 1, "r": system.r,
                     "batch": batch,
                     "us_per_call": round(_us_per_call(fn, arg), 1)})
    for name, fn, arg in _projection_layers():
        rows.append({"layer": name, "dim": 2, "r": 8, "rows": arg.size,
                     "us_per_call": round(_us_per_call(fn, arg), 1)})
    for name, fn, arg in _draw_layers():
        rows.append({"layer": name, "dim": 2, "r": 9,
                     "us_per_call": round(_us_per_call(fn, arg), 1)})
    rows += _solver_rows()
    rows += [_tail_row(strategy) for strategy in ("uds", "vds", "mds")]
    rows += [_engine_row(strategy) for strategy in ("uds", "vds", "mds")]
    with tempfile.TemporaryDirectory() as tmp:
        for name, dim, r, n_rows, fn, arg in _csv_layers(tmp):
            rows.append({"layer": name, "dim": dim, "r": r, "rows": n_rows,
                         "us_per_call": round(_us_per_call(fn, arg), 1)})
    print(json.dumps({"bench": "layers", "pinned_cpu": cpu,
                      "machine": _machine(), "rows": rows}))


if __name__ == "__main__":
    main()

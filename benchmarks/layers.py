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
  batch), timed per call; beside them ``level_op_bound``, the calls of
  ``bind_level_op`` bound once and run per call as the solver runs them,
  at 1-D r = 9 with B = 1 and 20 and at idhw r = 8 with B = 1;
* the data-ball projection ``_project_ellipsoid`` on the vds problem below:
  cold, at the solver's first iterate (v = 0 on the sample, Newton from
  0), and warm, at the iterate of the solver's 50th iteration started from
  the multipliers of its 49th, as the solver runs it (both recorded by
  wrapping the projection during one solve);
* the solver at 1-D r = 9 on 20 vds problems shaped like the
  strategy-ordering experiment's (Gaussian bump, sigma = 64, random
  centre, M/N = 0.2, 20 dB): ``solve_bpdn`` on each in turn (B = 1) and
  ``solve_bpdn_batch`` on all 20 (B = 20), timed per call, with the
  problems' total iterations, the milliseconds per problem and the
  microseconds per row-iteration (a cut in iterations shows in the first
  two, not in the last);
* the same at 2-D r = 8 with B = 1 on one vds problem shaped like the
  single-pixel-camera benchmark's (Shepp-Logan, M/N = 0.25, 20 dB);
* CSV I/O on files in a temporary directory: ``save_image_csv`` and
  ``load_signal_csv`` of a random image at 2-D r = 8 and 9 (65,536 and
  262,144 rows), ``save_signal_csv`` of a random vector of 16,384 rows, and
  ``hadhaar sample``'s ``sample.csv`` write and its ``_read_csv`` parse for
  a vds sample of 65,536 rows at 2-D r = 9.

Each figure is the median of five windows of at least 0.1 s of back-to-back
calls on one fixed input.  The script takes no options and prints one JSON
line: the machine, the versions, the line count of ``src/`` and one row per
(layer, dimension, r); the CSV rows also give the row count.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hadhaar.cli import _save_sample_csv  # noqa: E402
from hadhaar import recovery  # noqa: E402
from hadhaar.coherence import SystemKind  # noqa: E402
from hadhaar.recovery import (RecoveryProblem, _Batch,  # noqa: E402
                              _collapse, _project_ellipsoid,
                              solve_bpdn, solve_bpdn_batch)
from hadhaar.sampling import (draw_sample, mds_allocate, measure,  # noqa: E402
                              measure_adjoint, rng_stream, uds_pmf, vds_pmf)
from hadhaar.signals import (NoiseSpec, _read_csv,  # noqa: E402
                             effective_sparsity, gaussian_bump,
                             load_signal_csv, make_noise, save_image_csv,
                             save_signal_csv, shepp_logan)
from hadhaar.transforms import _matmuls, fwht, haar_transform  # noqa: E402

CASES = (("had_dhw_1d", (9, 12, 16)), ("had2_idhw", (6, 8, 9)))
WINDOWS = 5
WINDOW_S = 0.1


def _machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "src_lines": src_lines}


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


def _solver_problems():
    """20 vds problems at 1-D r = 9 shaped like the strategy-ordering
    experiment's."""
    system = SystemKind("had_dhw_1d", 9)
    plan = vds_pmf(system)
    m = round(0.2 * system.n_total)
    problems = []
    for trial in range(20):
        rng = rng_stream(9, trial)
        x = gaussian_bump(system.side, 64.0, 64.0 + 384.0 * rng.random())
        sample = draw_sample(plan, m, rng_stream(9, trial, 1).integers(1 << 31))
        noise = make_noise(NoiseSpec(20.0), x, m, weights=sample.weights,
                           rng=rng)
        problems.append(RecoveryProblem(
            system, sample, measure(system, sample, x) + noise.vector,
            noise.weighted_norm))
    return problems


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
        rows = np.random.default_rng(r).standard_normal((20, system.n_total))
        for v in [rows[0]] + ([rows] if batched else []):
            out = np.empty_like(v)
            batch = len(v) if v.ndim == 2 else 1
            yield (system, "level_op", batch,
                   lambda u, s=system, o=out: s.level_op(u, out=o), v)
            if (tag, r, batch) in bound:
                yield (system, "level_op_bound", batch, _matmuls,
                       system.bind_level_op(v.reshape(batch, -1),
                                            out.reshape(batch, -1)))
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
    camera-shaped vds problem: cold at the solver's first iterate, where
    v = 0 on the sample, and warm at its 50th, from the multipliers of its
    49th."""
    problem = _camera_problem()
    system = problem.system
    position = np.empty(system.n_total, dtype=np.int64)
    position[system.spectral_order] = np.arange(system.n_total)
    batch = _Batch([_collapse(problem, position)], system.n_total)
    yield ("project_ellipsoid",
           lambda v: _project_ellipsoid(v, batch, np.zeros(1)),
           np.zeros(batch.c.size))
    calls = []

    def record(v, solve_batch, lam):
        calls.append((v.copy(), lam.copy()))
        return _project_ellipsoid(v, solve_batch, lam)

    recovery._project_ellipsoid = record
    try:
        solve_bpdn(problem)
    finally:
        recovery._project_ellipsoid = _project_ellipsoid
    v, lam = calls[49]
    yield ("project_ellipsoid_warm",
           lambda u: _project_ellipsoid(u, batch, lam.copy()), v)


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
    with tempfile.TemporaryDirectory() as tmp:
        for name, dim, r, n_rows, fn, arg in _csv_layers(tmp):
            rows.append({"layer": name, "dim": dim, "r": r, "rows": n_rows,
                         "us_per_call": round(_us_per_call(fn, arg), 1)})
    print(json.dumps({"bench": "layers", "pinned_cpu": cpu,
                      "machine": _machine(), "rows": rows}))


if __name__ == "__main__":
    main()

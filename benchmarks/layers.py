"""Layer bench: microseconds per call of each transform layer.

    python3 benchmarks/layers.py

Imports the package from this checkout's ``src/``, pins the process to one
CPU and times, with ``time.perf_counter``:

* ``fwht``;
* Haar analysis and synthesis: ``dhw`` in 1-D, ``adhw`` and ``idhw`` in 2-D;
* ``measure`` and ``measure_adjoint`` with a uniform sample of N/4 indices;

at 1-D r in {9, 12, 16} and 2-D r in {6, 8, 9}.  Each figure is the median of
five windows of at least 0.1 s of back-to-back calls on one fixed input.  The
script takes no options and prints one JSON line: the machine, the versions,
the line count of ``src/`` and one row per (layer, dimension, r).
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hadhaar.coherence import SystemKind  # noqa: E402
from hadhaar.sampling import (draw_sample, measure, measure_adjoint,  # noqa: E402
                              uds_pmf)
from hadhaar.transforms import fwht, haar_transform  # noqa: E402

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
    print(json.dumps({"bench": "layers", "pinned_cpu": cpu,
                      "machine": _machine(), "rows": rows}))


if __name__ == "__main__":
    main()

"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ordering_1d --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src/``.  ``--trace 0``
prints the end-to-end metrics (``trials_per_s``, ``setup_s``,
``peak_rss_mb``, ``sre_db``); ``--trace 1`` wraps the package's public
functions, prints the per-layer metrics and writes the spans to
``.perfbench_runs/``.  A results file naming the machine and versions goes
to the same directory.  See README.md beside this file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 4


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ordering_1d", "camera_256", "preview_512"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import hadhaar from the checkout's src/, never from elsewhere; exit otherwise."""
    src = ROOT / "src"
    if not (src / "hadhaar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'hadhaar'}")
    sys.path.insert(0, str(src))
    import hadhaar
    if Path(hadhaar.__file__).resolve().parent != (src / "hadhaar").resolve():
        sys.exit(f"perfbench: imported hadhaar from {hadhaar.__file__}")


def _machine():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "src_lines": src_lines}


def _import_seconds():
    """Wall time of a fresh interpreter that imports the package."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import hadhaar"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


def _run_rounds(run_round, seconds):
    """Whole rounds until ``seconds`` of wall time have passed (at least one)."""
    results, start = [], time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_round(len(results)))
    return results


def _paired_rounds(workload, untraced, traced, tracer):
    """Run each round both untraced and traced, on the same inputs.

    Timing the same work twice, back to back, keeps the machine's slow
    drift in speed out of the overhead estimate; the order alternates
    between rounds because the second run of a round tends to be faster.
    """
    def run_traced(rnd):
        tracer.install()
        try:
            return workload.run_round(rnd, traced)
        finally:
            tracer.remove()

    def run_round(rnd):
        if rnd % 2:
            result = run_traced(rnd)
        workload.run_round(rnd, untraced)
        if rnd % 2 == 0:
            result = run_traced(rnd)
        return result
    return run_round


def main(argv=None):
    args = _parse_args(argv)
    _import_package()

    import reference
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    RUNS.mkdir(exist_ok=True)
    base = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    cpus = workloads.CpuRotation()
    try:
        import_times, prep_times = [], []
        for i in range(SETUP_REPEATS):
            cpus.pin(i)
            import_times.append(_import_seconds())
            workdir = base / f"setup{i}"
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            workload.prepare(args.seed, str(workdir))
            prep_times.append(time.perf_counter() - start)
        setup_s = statistics.median(import_times) + statistics.median(prep_times)
        workload.build_references()

        if args.trace:
            tracer = tracing.Tracer()
            untraced, clock = workloads.Clock(cpus), workloads.Clock(cpus, tracer)
            run_round = _paired_rounds(workload, untraced, clock, tracer)
        else:
            tracer, clock = None, workloads.Clock(cpus)
            run_round = lambda rnd: workload.run_round(rnd, clock)
        results = _run_rounds(run_round, args.seconds)
    except workloads.SetupError as exc:
        sys.exit(f"perfbench: {exc}")
    finally:
        cpus.release()
        shutil.rmtree(base, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    wrong = [msg for r in results for msg in r.wrong]
    for msg in wrong:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    trials_per_s = attempted / clock.elapsed

    if tracer is None:
        cells = results[0].ratios.values()
        sre = statistics.fmean(map(reference.sre_db, cells)) if cells else 0.0
        values = {"trials_per_s": trials_per_s, "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "sre_db": sre}
        units = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
                 "sre_db": "dB"}
    else:
        values = tracing.layer_metrics(tracer.spans, workload.trials_per_round,
                                       len(results))
        values["trace.trials_per_s"] = trials_per_s
        values["trace.overhead_pct"] = 100.0 * (clock.elapsed / untraced.elapsed - 1.0)
        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
        tracer.write(RUNS / f"spans-{args.workload}-seed{args.seed}.jsonl")

    doc = {"correct": not wrong, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": float(v), "unit": units[k]}
                       for k, v in values.items()}}
    record = dict(doc, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  round_s=[clock.per_round[k] for k in sorted(clock.per_round)],
                  machine=_machine())
    out = RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

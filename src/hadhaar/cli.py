"""Command-line harness over the library: argparse, the seven subcommands
and their file I/O.

Subcommands: transform, coherence, structure-check, sample, recover,
experiment, signal.  Every numeric output is CSV with a header row and 17
significant digits.  ``experiment`` reads a JSON config and runs it with
the engine in ``hadhaar.experiment``.  Failures print one line
``error:<category>: <message>`` to stderr, and the exception's type picks
the category: 2 for a malformed command line (usage), any other
ValueError (validation, including an identically zero experiment signal)
or a MemoryError (memory: a size the checks allow that does not fit), 3
for OSError (file I/O), 4 for InfeasibleError (an allocation or data ball
that cannot be met) and 5 for anything else (internal).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .coherence import (SYSTEM_TAGS, SystemKind, local_coherence,
                        multilevel_coherence, structure_check)
from .experiment import (_ROLE_SIGNAL, SignalSpec, _make_signal,
                         config_from_json, run_experiment, write_config_echo,
                         write_summary_csv, write_trials_csv)
from .recovery import RecoveryProblem, SolverSpec, me_reconstruct, solve_bpdn
from .sampling import (STRATEGIES, InfeasibleError, SampleSet, draw_sample,
                       mds_allocate, rng_stream, uds_pmf, vds_pmf)
from .signals import (SIGNAL_KINDS, _fmt, _position_order, _read_csv,
                      _row_blocks, _write_csv, _write_json, load_signal_csv,
                      save_image_csv, save_pgm, save_signal_csv)
from .transforms import BASIS_TAGS, BasisKind, haar_transform

EXIT_CODES = {"usage": 2, "validation": 2, "memory": 2, "io": 3,
              "infeasible": 4, "internal": 5}


class UsageError(Exception):
    """A malformed command line."""


# error category of each exception type, the first match wins
_CATEGORIES = ((UsageError, "usage"), (InfeasibleError, "infeasible"),
               (ValueError, "validation"), (OSError, "io"),
               (MemoryError, "memory"), (Exception, "internal"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _write(out, name, writer, *data):
    """``writer(path, *data)`` for the file ``name`` in the directory
    ``out``, made if missing; prints the path."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    writer(path, *data)
    print(f"wrote {path}")


def _write_array_csv(path, arr):
    (save_signal_csv if arr.ndim == 1 else save_image_csv)(path, arr)


def cmd_transform(args):
    x = load_signal_csv(args.input)
    kind = BasisKind(args.basis, args.r) if args.r is not None else args.basis
    _write(args.out, "transform.csv", _write_array_csv,
           haar_transform(kind, args.direction, x))
    return 0


def cmd_coherence(args):
    system = SystemKind(args.system, args.r)
    profile = local_coherence(system, mode=args.mode)
    _write(args.out, "local_coherence.csv", save_signal_csv, profile.values)
    print(f"sum_sq={_fmt(profile.sum_sq)} global={_fmt(profile.global_coherence)}")
    if args.multilevel:
        grid = multilevel_coherence(system, mode=args.mode).values
        levels = range(grid.shape[0])
        _write(args.out, "multilevel_coherence.csv", _write_csv,
               "sampling_level,sparsity_level,value",
               (",".join((str(t + 1), str(l + 1), _fmt(grid[t, l]))) + "\n"
                for t in levels for l in levels))
    return 0


def cmd_structure_check(args):
    report = structure_check(SystemKind(args.system, args.r))
    levels = range(report.off_diagonal.shape[0])
    _write(args.out, "structure_check.csv", _write_csv,
           "sampling_level,sparsity_level,off_diagonal,diagonal_deviation",
           (",".join((str(t + 1), str(l + 1),
                      "" if t == l else _fmt(report.off_diagonal[t, l]),
                      _fmt(report.diagonal_deviation[t]) if t == l else ""))
            + "\n" for t in levels for l in levels))
    print(f"max_off_diagonal={_fmt(report.max_off_diagonal)} "
          f"max_diagonal_deviation={_fmt(report.max_diagonal_deviation)}")
    return 0


def _build_plan(args, system):
    if args.strategy != "mds":
        return uds_pmf(system) if args.strategy == "uds" else vds_pmf(system)
    if args.k is None:
        raise ValueError("mds requires --k with per-level sparsities")
    partition = system.partition()
    try:
        k = [int(part) for part in args.k.split(",")]
    except ValueError:
        raise ValueError("--k must be a comma-separated integer list") from None
    if len(k) != partition.n_levels:
        raise ValueError(f"--k must list {partition.n_levels} per-level counts")
    return mds_allocate(k, args.M, partition)


def _save_sample_csv(path, sample):
    _write_csv(path, "position,index,weight",
               _row_blocks("%d,%d,%.17g\n",
                           np.arange(1, sample.n_measurements + 1),
                           sample.omega, sample.weights))


def cmd_sample(args):
    system = SystemKind(args.system, args.r)
    plan = _build_plan(args, system)
    sample = draw_sample(plan, args.M, args.seed)
    _write(args.out, "sample.csv", _save_sample_csv, sample)
    _write(args.out, "sample_meta.json", _write_json, {
        "strategy": sample.strategy, "system": args.system, "r": args.r,
        "n_total": system.n_total, "m_total": int(sample.n_measurements),
        "seed": sample.seed, "rng_algorithm": sample.rng_algorithm,
        "m_per_level": None if plan.m is None else [int(v) for v in plan.m],
    })
    return 0


def _load_sample(path, system):
    """The sample in ``path`` and its ``sample_meta.json``: each row holds a
    position, an index and a weight, each position from 1 to the number of
    rows occurs once, and the metadata is an object naming the strategy, the
    seed and the RNG, and the same system and r as ``system`` when it
    records them.  ``SampleSet`` checks the values."""
    columns = _read_csv(path, ("position,index,weight",))
    position = columns["position"]
    row = _position_order(path, {"position": position}, (position.size,))
    omega, weights = (np.ascontiguousarray(columns[name][row])
                      for name in ("index", "weight"))
    meta_path = os.path.join(os.path.dirname(path) or ".", "sample_meta.json")
    with open(meta_path, "r", encoding="ascii") as fh:
        meta = json.load(fh)
    if not (isinstance(meta, dict)
            and {"strategy", "seed", "rng_algorithm"} <= meta.keys()):
        raise ValueError(f"{meta_path} must hold a JSON object with "
                         f"strategy, seed and rng_algorithm")
    for key, want in (("system", system.tag), ("r", system.r)):
        if key in meta and meta[key] != want:
            raise ValueError(f"sample was drawn for {key} = {meta[key]!r}, "
                             f"not {want!r}")
    return SampleSet(omega, weights, meta["strategy"], seed=meta["seed"],
                     rng_algorithm=meta["rng_algorithm"])


def cmd_recover(args):
    system = SystemKind(args.system, args.r)
    sample = _load_sample(args.sample, system)
    y = load_signal_csv(args.measurements)
    report = solve_bpdn(RecoveryProblem(system, sample, y, args.epsilon),
                        SolverSpec(args.tol_feas, args.tol_gap,
                                   args.max_iterations))
    _write(args.out, "recovered.csv", _write_array_csv,
           np.asarray(report.x_hat))
    if args.me:
        _write(args.out, "me.csv", _write_array_csv,
               np.asarray(me_reconstruct(system, sample, y)))
    # non-convergence is reported in the metadata, not via the exit code
    _write(args.out, "recovery_meta.json", _write_json,
           {f.name: getattr(report, f.name)
            for f in dataclasses.fields(report) if f.name != "x_hat"})
    return 0


def cmd_signal(args):
    spec = SignalSpec(args.kind, args.sigma, args.center)
    x = _make_signal(spec, args.size,
                     rng_stream(args.seed, _ROLE_SIGNAL).random())
    _write(args.out, "signal.csv", _write_array_csv, x)
    if x.ndim == 2:
        lo, hi = float(x.min()), float(x.max())
        scaled = np.zeros_like(x) if hi == lo else (x - lo) / (hi - lo)
        _write(args.out, "signal.pgm", save_pgm,
               np.round(scaled * 255.0).astype(np.uint8))
    return 0


def cmd_experiment(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        config = config_from_json(fh.read())
    overrides = {"seed": args.seed, "output_dir": args.out}
    config = dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None})
    report = run_experiment(config)
    _write(config.output_dir, "trials.csv", write_trials_csv, report)
    _write(config.output_dir, "summary.csv", write_summary_csv, report)
    _write(config.output_dir, "config_echo.json", write_config_echo, report)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="hadhaar",
                     description="Hadamard-Haar compressive sensing harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply a fast transform to a CSV signal")
    p.add_argument("--basis", required=True, choices=BASIS_TAGS)
    p.add_argument("--r", type=int)
    p.add_argument("--direction", default="analysis",
                   choices=("analysis", "synthesis"))
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("coherence", help="local (and multilevel) coherence profiles")
    p.add_argument("--system", required=True, choices=SYSTEM_TAGS)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", default="closed", choices=("closed", "brute"))
    p.add_argument("--multilevel", action="store_true")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("structure-check", help="verify the block structure of the system matrix")
    p.add_argument("--system", required=True, choices=SYSTEM_TAGS)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_structure_check)

    p = sub.add_parser("sample", help="draw a measurement index set")
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--system", required=True, choices=SYSTEM_TAGS)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", help="per-level sparsities for mds, e.g. 1,1,2,4")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("recover", help="basis pursuit recovery from stored measurements")
    p.add_argument("--system", required=True, choices=SYSTEM_TAGS)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sample", required=True,
                   help="sample.csv path (sample_meta.json beside it)")
    p.add_argument("--measurements", required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--tol-feas", type=float, dest="tol_feas",
                   default=SolverSpec.tol_feas)
    p.add_argument("--tol-gap", type=float, dest="tol_gap",
                   default=SolverSpec.tol_gap)
    p.add_argument("--max-iterations", type=int, dest="max_iterations",
                   default=SolverSpec.max_iterations)
    p.add_argument("--me", action="store_true",
                   help="also write the minimal-energy reconstruction")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("signal", help="generate a test signal or phantom")
    p.add_argument("--kind", required=True, choices=SIGNAL_KINDS)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--center", help="1-based position or 'random'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("experiment", help="run a JSON-configured recovery experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the config output_dir")
    p.set_defaults(func=cmd_experiment)
    return parser


# built once per process: building took 1.3 ms, parsing takes a fraction
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return int(args.func(args) or 0)
    except SystemExit as exc:               # --help / --version
        return 0 if exc.code in (0, None) else int(exc.code)
    except Exception as exc:
        category = next(name for kind, name in _CATEGORIES
                        if isinstance(exc, kind))
        print(f"error:{category}: {exc}", file=sys.stderr)
        return EXIT_CODES[category]


if __name__ == "__main__":
    sys.exit(main())

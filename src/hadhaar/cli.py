"""Command-line harness over the library.

Subcommands: transform, coherence, structure-check, sample, recover,
experiment, signal.  Every numeric output is CSV with a header row and 17
significant digits.  ``experiment`` runs its trials one after another on
seeded streams, so its CSVs are byte-identical across runs.  Failures
print one line ``error:<category>: <message>`` to stderr; exit codes are 0
(success), 2 (usage or validation, including an identically zero
experiment signal), 3 (file I/O), 4 (infeasible allocation or data ball),
5 (internal).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .coherence import (SYSTEM_TAGS, SystemKind, local_coherence,
                        multilevel_coherence, structure_check)
from .recovery import RecoveryProblem, me_reconstruct, solve_bpdn
from .sampling import (RNG_ALGORITHM, STRATEGIES, SampleSet, draw_sample,
                       mds_allocate, measure, rng_stream, uds_pmf, vds_pmf)
from .signals import (SIGNAL_KINDS, SRE_CAP_DB, NoiseSpec, _fmt,
                      effective_sparsity, gaussian_bump, generate,
                      load_signal_csv, make_noise, save_image_csv, save_pgm,
                      save_signal_csv)
from .transforms import BASIS_TAGS, BasisKind, haar_transform

EXIT_CODES = {"usage": 2, "validation": 2, "io": 3, "infeasible": 4,
              "internal": 5}
SPARSITY_SOURCES = ("worst_case_pregenerated", "oracle_from_signal")

# spawn-key roles for the pre-split per-trial streams
_ROLE_SIGNAL, _ROLE_SAMPLE, _ROLE_NOISE, _ROLE_PREGEN = 0, 1, 2, 3


class CliError(Exception):
    def __init__(self, category, message):
        super().__init__(message)
        self.category = category


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalSpec:
    kind: str
    sigma: float | None = None
    center: str | float | None = None    # "random" or a fixed 1-based position

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"signal kind must be one of {SIGNAL_KINDS}")
        if self.kind == "gaussian_bump":
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("gaussian_bump requires sigma > 0")
            if self.center is None:
                raise ValueError("gaussian_bump requires a center ('random' or a position)")
        elif self.sigma is not None or self.center is not None:
            raise ValueError(f"{self.kind} takes no sigma/center parameters")


@dataclass(frozen=True)
class MdsSpec:
    sparsity_source: str = "worst_case_pregenerated"
    pregenerated: int = 100


@dataclass(frozen=True)
class SolverSpec:
    tol_feas: float = 1e-6
    tol_gap: float = 1e-6
    max_iterations: int = 20000


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, JSON-serialisable description of one experiment run."""

    system: str
    r: int
    strategy: str
    ratios: tuple
    snr_db: float
    trials: int
    seed: int
    signal: SignalSpec
    rho: float = 0.995
    mds: MdsSpec = MdsSpec()
    solver: SolverSpec = SolverSpec()
    output_dir: str = "."
    schema_version: int = 1

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(x) for x in self.ratios))
        if self.schema_version != 1:
            raise ValueError(f"unsupported schema_version {self.schema_version}")
        sys_kind = SystemKind(self.system, self.r)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if not self.ratios:
            raise ValueError("at least one measurement ratio is required")
        if any(not 0.0 < x <= 1.0 for x in self.ratios):
            raise ValueError("ratios must lie in (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (math.isinf(self.snr_db) or math.isfinite(self.snr_db)):
            raise ValueError("snr_db must be finite or infinite")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if self.mds.sparsity_source not in SPARSITY_SOURCES:
            raise ValueError(f"sparsity_source must be one of {SPARSITY_SOURCES}")
        if self.mds.pregenerated < 1:
            raise ValueError("pregenerated count must be at least 1")
        spec = self.signal
        if sys_kind.is_2d != (spec.kind == "shepp_logan"):
            raise ValueError("signal kind does not match the system dimensionality")
        if spec.kind == "gaussian_bump" and 2 * spec.sigma > sys_kind.n_total:
            raise ValueError("sigma too wide for a center inside [sigma, N - sigma]")


def config_to_json(config):
    doc = {
        "schema_version": config.schema_version,
        "system": config.system,
        "r": config.r,
        "strategy": config.strategy,
        "ratios": list(config.ratios),
        "snr_db": None if math.isinf(config.snr_db) else config.snr_db,
        "trials": config.trials,
        "seed": config.seed,
        "signal": {"kind": config.signal.kind, "sigma": config.signal.sigma,
                   "center": config.signal.center},
        "rho": config.rho,
        "mds": {"sparsity_source": config.mds.sparsity_source,
                "pregenerated": config.mds.pregenerated},
        "solver": {"tol_feas": config.solver.tol_feas,
                   "tol_gap": config.solver.tol_gap,
                   "max_iterations": config.solver.max_iterations},
        "output_dir": config.output_dir,
    }
    return json.dumps(doc, indent=2) + "\n"


# JSON name and types of each part of a field annotation; any other part
# names a spec class, written as a JSON object
_JSON_TYPES = {"str": ("a string", (str,)), "int": ("an integer", (int,)),
               "float": ("a number", (int, float)),
               "None": ("null", (type(None),)), "tuple": ("a list", (list,))}


def _checked(doc, cls, what, nullable=()):
    """``doc`` if it is a JSON object whose keys are fields of ``cls`` and
    whose values have those fields' types; keys in ``nullable`` may be null."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(types)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in doc.items():
        parts = types[key].split(" | ") + (["None"] if key in nullable else [])
        names, allowed = zip(*(_JSON_TYPES.get(part, ("an object", (dict,)))
                               for part in parts))
        if isinstance(value, bool) or not isinstance(value, sum(allowed, ())):
            name = key if what == "config" else f"{what}.{key}"
            raise ValueError(f"config key {name!r} must be {' or '.join(names)}, "
                             f"got {json.dumps(value)}")
    return doc


def config_from_json(text):
    doc = _checked(json.loads(text), ExperimentConfig, "config",
                   nullable=("snr_db",))
    for key in ("system", "r", "strategy", "ratios", "trials", "seed", "signal"):
        if key not in doc:
            raise ValueError(f"config key {key!r} is required")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in doc["ratios"]):
        raise ValueError("config key 'ratios' must be a list of numbers")
    sig = _checked(doc["signal"], SignalSpec, "signal")
    signal = SignalSpec(kind=sig.get("kind"), sigma=sig.get("sigma"),
                        center=sig.get("center"))
    mds = MdsSpec(**_checked(doc.get("mds", {}), MdsSpec, "mds"))
    solver = SolverSpec(**_checked(doc.get("solver", {}), SolverSpec, "solver"))
    snr = doc.get("snr_db")
    return ExperimentConfig(
        system=doc["system"], r=doc["r"], strategy=doc["strategy"],
        ratios=tuple(doc["ratios"]),
        snr_db=math.inf if snr is None else float(snr),
        trials=doc["trials"], seed=doc["seed"], signal=signal,
        rho=float(doc.get("rho", 0.995)), mds=mds, solver=solver,
        output_dir=doc.get("output_dir", "."),
        schema_version=doc.get("schema_version", 1))


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    ratio_index: int
    ratio: float
    trial: int
    m: int
    sample_seed: str
    x_norm: float
    cs_error: float
    me_error: float
    epsilon: float
    noise_sigma: float
    cs_objective: float
    cs_iterations: int
    cs_converged: bool


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple
    version: str = __version__
    rng_algorithm: str = RNG_ALGORITHM

    def ratio_summary(self):
        """Per-ratio (ratio, m, trials, cs ratio mean, me ratio mean)."""
        rows = []
        for ri, ratio in enumerate(self.config.ratios):
            recs = [rec for rec in self.records if rec.ratio_index == ri]
            cs = np.array([_ratio(rec.x_norm, rec.cs_error) for rec in recs])
            me = np.array([_ratio(rec.x_norm, rec.me_error) for rec in recs])
            rows.append((ratio, recs[0].m, len(recs),
                         float(np.mean(cs)), float(np.mean(me))))
        return rows


def _ratio(x_norm, error):
    return math.inf if error == 0.0 else x_norm / error


def _capped_db(ratio_mean):
    """(dB value capped for CSV, exact flag)."""
    if math.isinf(ratio_mean):
        return SRE_CAP_DB, 1
    return min(20.0 * math.log10(ratio_mean), SRE_CAP_DB), 0


def _make_signal(spec, size, rng):
    """The signal ``spec`` describes at ``size``; a random bump centre is
    drawn from ``rng`` with one uniform draw."""
    if spec.kind != "gaussian_bump":
        return generate(spec.kind, size)
    center = spec.center
    if center == "random":
        center = spec.sigma + (size - 2.0 * spec.sigma) * rng.random()
    return gaussian_bump(size, spec.sigma, float(center))


def _trial_signal(config, system, rng):
    x = _make_signal(config.signal, system.side, rng)
    if not np.any(x):
        raise ValueError("reference signal must be nonzero")
    return x


def _worst_case_k(config, system, partition):
    """Per-level maximum of the effective sparsities of the pregenerated
    signals; a signal without a random centre is the same every time, so
    it is generated once."""
    rng = rng_stream(config.seed, _ROLE_PREGEN)
    count = config.mds.pregenerated if config.signal.center == "random" else 1
    worst = np.zeros(partition.n_levels, dtype=np.int64)
    for _ in range(count):
        x = _trial_signal(config, system, rng)
        es = effective_sparsity(system.coefficients(x), config.rho, partition)
        worst = np.maximum(worst, es.per_level)
    return worst


def _run_trial(config, system, partition, plan, ri, m_total, ti):
    """One (ratio, trial) cell; ``plan`` is None when mds sizes the plan
    from this trial's signal (oracle_from_signal)."""
    x = _trial_signal(config, system,
                      rng_stream(config.seed, _ROLE_SIGNAL, ri, ti))
    if plan is None:
        k = effective_sparsity(system.coefficients(x), config.rho,
                               partition).per_level
        plan = mds_allocate(k, m_total, partition)
    sample = draw_sample(plan, m_total,
                         np.random.SeedSequence(entropy=config.seed,
                                                spawn_key=(_ROLE_SAMPLE, ri, ti)))
    weighted = config.strategy != "mds"
    noise = make_noise(NoiseSpec(config.snr_db), x, m_total,
                       weights=sample.weights if weighted else None,
                       rng=rng_stream(config.seed, _ROLE_NOISE, ri, ti))
    y = measure(system, sample, x) + noise.vector
    epsilon = noise.weighted_norm if weighted else noise.norm
    problem = RecoveryProblem(system, sample, y, epsilon,
                              tol_feas=config.solver.tol_feas,
                              tol_gap=config.solver.tol_gap,
                              max_iterations=config.solver.max_iterations)
    report = solve_bpdn(problem)
    me_hat = me_reconstruct(system, sample, y)
    return TrialRecord(
        ratio_index=ri, ratio=config.ratios[ri], trial=ti + 1, m=m_total,
        sample_seed=sample.seed,
        x_norm=float(np.linalg.norm(x)),
        cs_error=float(np.linalg.norm(x - report.x_hat)),
        me_error=float(np.linalg.norm(x - me_hat)),
        epsilon=float(epsilon), noise_sigma=noise.sigma,
        cs_objective=report.objective, cs_iterations=report.iterations,
        cs_converged=report.converged)


def run_experiment(config):
    """Run every (ratio, trial) cell in order, one after another.

    Each cell derives its signal, sample and noise streams from the master
    seed and its own (ratio, trial) coordinates, so a cell's result does
    not depend on the cells run before it.  Sampling plans depend on the
    config alone and are built once: the uds/vds plan per experiment and
    the worst-case mds allocation per ratio.  Raises ValueError if a
    trial's signal is identically zero.
    """
    system = SystemKind(config.system, config.r)
    partition = system.partition()
    plan = worst_k = None
    if config.strategy == "uds":
        plan = uds_pmf(system)
    elif config.strategy == "vds":
        plan = vds_pmf(system)
    elif config.mds.sparsity_source == "worst_case_pregenerated":
        worst_k = _worst_case_k(config, system, partition)
    records = []
    for ri, ratio in enumerate(config.ratios):
        m_total = max(1, int(round(ratio * system.n_total)))
        if worst_k is not None:
            plan = mds_allocate(worst_k, m_total, partition)
        records += [_run_trial(config, system, partition, plan, ri, m_total, ti)
                    for ti in range(config.trials)]
    return ExperimentReport(config, tuple(records))


def write_trials_csv(path, report):
    cols = ("ratio,trial,m,sample_seed,x_norm,cs_error,cs_sre_db,cs_exact,"
            "cs_objective,cs_iterations,cs_converged,me_error,me_sre_db,"
            "me_exact,epsilon,noise_sigma")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(cols + "\n")
        for rec in report.records:
            cs_db, cs_exact = _capped_db(_ratio(rec.x_norm, rec.cs_error))
            me_db, me_exact = _capped_db(_ratio(rec.x_norm, rec.me_error))
            fh.write(",".join([
                _fmt(rec.ratio), str(rec.trial), str(rec.m), rec.sample_seed,
                _fmt(rec.x_norm), _fmt(rec.cs_error), _fmt(cs_db),
                str(cs_exact), _fmt(rec.cs_objective), str(rec.cs_iterations),
                str(int(rec.cs_converged)), _fmt(rec.me_error), _fmt(me_db),
                str(me_exact), _fmt(rec.epsilon), _fmt(rec.noise_sigma),
            ]) + "\n")


def write_summary_csv(path, report):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("ratio,m,trials,cs_sre_db,cs_exact,me_sre_db,me_exact\n")
        for ratio, m, trials, cs_mean, me_mean in report.ratio_summary():
            cs_db, cs_exact = _capped_db(cs_mean)
            me_db, me_exact = _capped_db(me_mean)
            fh.write(",".join([
                _fmt(ratio), str(m), str(trials), _fmt(cs_db), str(cs_exact),
                _fmt(me_db), str(me_exact)]) + "\n")


def write_config_echo(path, report):
    doc = {"config": json.loads(config_to_json(report.config)),
           "library_version": report.version,
           "rng_algorithm": report.rng_algorithm}
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _out_dir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_array_csv(path, arr):
    if arr.ndim == 1:
        save_signal_csv(path, arr)
    else:
        save_image_csv(path, arr)


def cmd_transform(args):
    x = load_signal_csv(args.input)
    kind = BasisKind(args.basis, args.r) if args.r is not None else args.basis
    out = haar_transform(kind, args.direction, x)
    path = os.path.join(_out_dir(args), "transform.csv")
    _write_array_csv(path, out)
    print(f"wrote {path}")
    return 0


def cmd_coherence(args):
    system = SystemKind(args.system, args.r)
    profile = local_coherence(system, mode=args.mode)
    out = _out_dir(args)
    path = os.path.join(out, "local_coherence.csv")
    save_signal_csv(path, profile.values)
    print(f"wrote {path}")
    print(f"sum_sq={_fmt(profile.sum_sq)} global={_fmt(profile.global_coherence)}")
    if args.multilevel:
        grid = multilevel_coherence(system, mode=args.mode)
        path = os.path.join(out, "multilevel_coherence.csv")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("sampling_level,sparsity_level,value\n")
            n_lev = grid.values.shape[0]
            for t in range(n_lev):
                for l in range(n_lev):
                    fh.write(f"{t + 1},{l + 1},{_fmt(grid.values[t, l])}\n")
        print(f"wrote {path}")
    return 0


def cmd_structure_check(args):
    report = structure_check(SystemKind(args.system, args.r))
    path = os.path.join(_out_dir(args), "structure_check.csv")
    n_lev = report.off_diagonal.shape[0]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("sampling_level,sparsity_level,off_diagonal,diagonal_deviation\n")
        for t in range(n_lev):
            for l in range(n_lev):
                off = "" if t == l else _fmt(report.off_diagonal[t, l])
                dev = _fmt(report.diagonal_deviation[t]) if t == l else ""
                fh.write(f"{t + 1},{l + 1},{off},{dev}\n")
    print(f"wrote {path}")
    print(f"max_off_diagonal={_fmt(report.max_off_diagonal)} "
          f"max_diagonal_deviation={_fmt(report.max_diagonal_deviation)}")
    return 0


def _parse_k(text, partition):
    try:
        k = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError("--k must be a comma-separated integer list") from None
    if len(k) != partition.n_levels:
        raise ValueError(f"--k must list {partition.n_levels} per-level counts")
    return np.asarray(k, dtype=np.int64)


def _build_plan(args, system):
    if args.strategy == "uds":
        return uds_pmf(system)
    if args.strategy == "vds":
        return vds_pmf(system)
    partition = system.partition()
    if args.k is None:
        raise ValueError("mds requires --k with per-level sparsities")
    return mds_allocate(_parse_k(args.k, partition), args.M, partition)


def cmd_sample(args):
    system = SystemKind(args.system, args.r)
    plan = _build_plan(args, system)
    sample = draw_sample(plan, args.M, args.seed)
    out = _out_dir(args)
    path = os.path.join(out, "sample.csv")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("position,index,weight\n")
        for pos, (idx, wgt) in enumerate(zip(sample.omega, sample.weights), 1):
            fh.write(f"{pos},{idx},{_fmt(wgt)}\n")
    meta = {
        "strategy": sample.strategy, "system": args.system, "r": args.r,
        "n_total": system.n_total, "m_total": int(sample.n_measurements),
        "seed": sample.seed, "rng_algorithm": sample.rng_algorithm,
        "m_per_level": None if plan.m is None else [int(v) for v in plan.m],
    }
    meta_path = os.path.join(out, "sample_meta.json")
    with open(meta_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {path}")
    print(f"wrote {meta_path}")
    return 0


def _load_sample(path, system):
    """The sample in ``path`` and its ``sample_meta.json``, checked against
    ``system``: the recorded system and r must match and every index must
    lie in [1, N]."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "position,index,weight":
            raise ValueError(f"unrecognised sample CSV header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    rows.sort(key=lambda row: int(row[0]))
    omega = np.array([int(row[1]) for row in rows], dtype=np.int64)
    weights = np.array([float(row[2]) for row in rows])
    meta_path = os.path.join(os.path.dirname(path) or ".", "sample_meta.json")
    with open(meta_path, "r", encoding="ascii") as fh:
        meta = json.load(fh)
    for key, want in (("system", system.tag), ("r", system.r)):
        if key in meta and meta[key] != want:
            raise ValueError(f"sample was drawn for {key} = {meta[key]!r}, "
                             f"not {want!r}")
    bad = (omega < 1) | (omega > system.n_total)
    if bad.any():
        raise ValueError(f"sample index {omega[bad][0]} outside [1, "
                         f"{system.n_total}] for {system.tag} with r = {system.r}")
    return SampleSet(omega, weights, meta["strategy"], seed=meta["seed"],
                     rng_algorithm=meta["rng_algorithm"])


def cmd_recover(args):
    system = SystemKind(args.system, args.r)
    sample = _load_sample(args.sample, system)
    y = load_signal_csv(args.measurements)
    problem = RecoveryProblem(system, sample, y, args.epsilon,
                              tol_feas=args.tol_feas, tol_gap=args.tol_gap,
                              max_iterations=args.max_iterations)
    report = solve_bpdn(problem)
    out = _out_dir(args)
    path = os.path.join(out, "recovered.csv")
    _write_array_csv(path, np.asarray(report.x_hat))
    print(f"wrote {path}")
    if args.me:
        me_path = os.path.join(out, "me.csv")
        _write_array_csv(me_path, np.asarray(me_reconstruct(system, sample, y)))
        print(f"wrote {me_path}")
    meta = {"iterations": report.iterations,
            "feasibility_residual": report.feasibility_residual,
            "objective": report.objective, "converged": report.converged}
    meta_path = os.path.join(out, "recovery_meta.json")
    with open(meta_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {meta_path}")
    # non-convergence is reported in the metadata, not via the exit code
    return 0


def cmd_signal(args):
    spec = SignalSpec(args.kind, args.sigma, args.center)
    x = _make_signal(spec, args.size, rng_stream(args.seed, _ROLE_SIGNAL))
    out = _out_dir(args)
    path = os.path.join(out, "signal.csv")
    _write_array_csv(path, x)
    print(f"wrote {path}")
    if x.ndim == 2:
        lo, hi = float(x.min()), float(x.max())
        scaled = np.zeros_like(x) if hi == lo else (x - lo) / (hi - lo)
        pgm_path = os.path.join(out, "signal.pgm")
        save_pgm(pgm_path, np.round(scaled * 255.0).astype(np.uint8))
        print(f"wrote {pgm_path}")
    return 0


def cmd_experiment(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        config = config_from_json(fh.read())
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    report = run_experiment(config)
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    trials_path = os.path.join(out, "trials.csv")
    summary_path = os.path.join(out, "summary.csv")
    echo_path = os.path.join(out, "config_echo.json")
    write_trials_csv(trials_path, report)
    write_summary_csv(summary_path, report)
    write_config_echo(echo_path, report)
    for path in (trials_path, summary_path, echo_path):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("usage", message)


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
    p.add_argument("--tol-feas", type=float, default=1e-6, dest="tol_feas")
    p.add_argument("--tol-gap", type=float, default=1e-6, dest="tol_gap")
    p.add_argument("--max-iterations", type=int, default=20000,
                   dest="max_iterations")
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


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return int(args.func(args) or 0)
    except SystemExit as exc:               # --help / --version
        return 0 if exc.code in (0, None) else int(exc.code)
    except CliError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return EXIT_CODES[exc.category]
    except ValueError as exc:
        category = "infeasible" if "infeasible" in str(exc) else "validation"
        print(f"error:{category}: {exc}", file=sys.stderr)
        return EXIT_CODES[category]
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return EXIT_CODES["io"]
    except Exception as exc:                # pragma: no cover - safety net
        print(f"error:internal: {exc}", file=sys.stderr)
        return EXIT_CODES["internal"]


if __name__ == "__main__":
    sys.exit(main())

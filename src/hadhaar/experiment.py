"""The experiment engine: config schema, trial loop and result files.

The fields of ``ExperimentConfig`` and its spec classes are the JSON
schema of ``config_from_json``/``config_to_json``.  ``run_experiment``
runs every (ratio, trial) cell on seeded streams, so the three writers
give byte-identical files across runs.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import __version__
from .coherence import SystemKind
from .recovery import RecoveryProblem, me_reconstruct, solve_bpdn_batch
from .sampling import (RNG_ALGORITHM, STRATEGIES, draw_sample, mds_allocate,
                       measure, rng_stream, uds_pmf, vds_pmf)
from .signals import (SIGNAL_KINDS, SRE_CAP_DB, NoiseSpec, _fmt, _norm,
                      _write_csv, _write_json, effective_sparsity,
                      gaussian_bump, generate, make_noise, sre_from_ratios)
from .transforms import _MAX_LOG2_N

SPARSITY_SOURCES = ("worst_case_pregenerated", "oracle_from_signal")

# spawn-key roles for the pre-split per-trial streams
_ROLE_SIGNAL, _ROLE_SAMPLE, _ROLE_NOISE, _ROLE_PREGEN = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# configuration
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
            if self.sigma is None or not (math.isfinite(self.sigma)
                                          and self.sigma > 0):
                raise ValueError("gaussian_bump requires a finite sigma > 0")
            if self.center is None:
                raise ValueError("gaussian_bump requires a center ('random' or a position)")
            # a random center is drawn from [sigma, N - sigma], which must
            # lie inside the bump's domain [1, N]
            if self.center == "random" and self.sigma < 1:
                raise ValueError("a random center needs sigma >= 1")
        elif self.sigma is not None or self.center is not None:
            raise ValueError(f"{self.kind} takes no sigma/center parameters")


@dataclass(frozen=True)
class MdsSpec:
    sparsity_source: str = "worst_case_pregenerated"
    pregenerated: int = 100


@dataclass(frozen=True)
class SolverSpec:
    tol_feas: float = RecoveryProblem.tol_feas
    tol_gap: float = RecoveryProblem.tol_gap
    max_iterations: int = RecoveryProblem.max_iterations


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, JSON-serialisable description of one experiment run;
    ``ratios``, ``snr_db`` and ``rho`` are stored as floats."""

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
        for name in ("snr_db", "rho"):
            object.__setattr__(self, name, float(getattr(self, name)))
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
        # a ratio's trials are solved as one (trials, N) batch
        if self.trials * sys_kind.n_total > 1 << _MAX_LOG2_N:
            raise ValueError(f"trials times N must be at most "
                             f"2^{_MAX_LOG2_N}, got {self.trials} x "
                             f"{sys_kind.n_total}")
        if not (math.isinf(self.snr_db) or math.isfinite(self.snr_db)):
            raise ValueError("snr_db must be finite or infinite")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if self.mds.sparsity_source not in SPARSITY_SOURCES:
            raise ValueError(f"sparsity_source must be one of {SPARSITY_SOURCES}")
        if self.mds.pregenerated < 1:
            raise ValueError("pregenerated count must be at least 1")
        spec = self.signal
        # mds makes this many signals of N entries when the centre is random
        entries = self.mds.pregenerated * sys_kind.n_total
        if spec.center == "random" and entries > 1 << _MAX_LOG2_N:
            raise ValueError(f"mds.pregenerated times N must be at most "
                             f"2^{_MAX_LOG2_N}, got {self.mds.pregenerated} "
                             f"x {sys_kind.n_total}")
        if sys_kind.is_2d != (spec.kind == "shepp_logan"):
            raise ValueError("signal kind does not match the system dimensionality")
        if spec.kind == "gaussian_bump" and 2 * spec.sigma > sys_kind.n_total:
            raise ValueError("sigma too wide for a center inside [sigma, N - sigma]")


_SPECS = {cls.__name__: cls for cls in (SignalSpec, MdsSpec, SolverSpec)}

# JSON name and types of each part of a field annotation; a ``tuple`` is a
# list of numbers, and a spec class is a JSON object
_JSON_TYPES = {"str": ("a string", (str,)), "int": ("an integer", (int,)),
               "float": ("a number", (int, float)),
               "None": ("null", (type(None),)),
               "tuple": ("a list of numbers", (list,))}


def _has_type(value, allowed):
    if isinstance(value, list):
        return list in allowed and all(_has_type(x, (int, float))
                                       for x in value)
    return not isinstance(value, bool) and isinstance(value, allowed)


def _parse(doc, cls, what):
    """``cls`` built from the JSON object ``doc``: its keys must be fields of
    ``cls`` with values of those fields' types, every field without a
    default must be present, and spec-class fields are parsed likewise."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    args = {}
    for f in fields:
        key = f.name if what == "config" else f"{what}.{f.name}"
        if f.name not in doc:
            if f.default is dataclasses.MISSING:
                raise ValueError(f"config key {key!r} is required")
            continue
        value = doc[f.name]
        names, allowed = zip(*(_JSON_TYPES.get(part, ("an object", (dict,)))
                               for part in f.type.split(" | ")))
        if not _has_type(value, sum(allowed, ())):
            raise ValueError(f"config key {key!r} must be {' or '.join(names)}, "
                             f"got {json.dumps(value)}")
        spec = _SPECS.get(f.type)
        args[f.name] = value if spec is None else _parse(value, spec, f.name)
    return cls(**args)


def config_from_json(text):
    """The config in the JSON ``text``; a null or absent ``snr_db`` means
    noiseless."""
    doc = json.loads(text)
    if isinstance(doc, dict) and doc.get("snr_db") is None:
        doc["snr_db"] = math.inf
    return _parse(doc, ExperimentConfig, "config")


def config_to_json(config):
    doc = {"schema_version": config.schema_version,
           **dataclasses.asdict(config)}
    if math.isinf(config.snr_db):
        doc["snr_db"] = None
    return json.dumps(doc, indent=2) + "\n"


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


def _make_signal(spec, size, rng, count=None):
    """The signal ``spec`` describes at ``size``; a random bump centre is
    drawn from ``rng`` with one uniform draw.  With ``count``, random-centre
    bumps come as a (count, size) batch whose centres are ``count`` such
    draws, made at once."""
    if spec.kind != "gaussian_bump":
        return generate(spec.kind, size)
    center = spec.center
    if center == "random":
        center = spec.sigma + (size - 2.0 * spec.sigma) * rng.random(count)
    else:
        center = float(center)
    return gaussian_bump(size, spec.sigma, center)


def _trial_signal(config, system, rng):
    x = _make_signal(config.signal, system.side, rng)
    if not np.any(x):
        raise ValueError("reference signal must be nonzero")
    return x


# pregenerated signals per batch: 16 of 512 entries, 64 KiB per array
_PREGEN_ENTRIES = 1 << 13


def _worst_case_k(config, system, partition):
    """Per-level maximum of the effective sparsities of the pregenerated
    signals.  A signal without a random centre is the same every time, so
    it is generated once; random-centre bumps are made in batches of at
    most _PREGEN_ENTRIES entries (one signal at least), whose centres are
    the draws the signals would take one at a time."""
    rng = rng_stream(config.seed, _ROLE_PREGEN)
    if config.signal.center == "random":
        count = config.mds.pregenerated
        step = max(1, _PREGEN_ENTRIES // system.n_total)
        batches = (_make_signal(config.signal, system.side, rng,
                                min(step, count - start))
                   for start in range(0, count, step))
    else:
        batches = [_trial_signal(config, system, rng)[None]]
    worst = np.zeros(partition.n_levels, dtype=np.int64)
    for x in batches:
        es = effective_sparsity(system.coefficients(x), config.rho, partition)
        worst = np.maximum(worst, es.per_level.max(axis=0))
    return worst


def _build_trial(config, system, partition, plan, ri, m_total, ti):
    """One (ratio, trial) cell's signal ``x``, ``sample``, noisy
    measurements ``y``, data-ball radius ``epsilon`` and ``noise_sigma``;
    ``plan`` is None when mds sizes the plan from this trial's signal
    (oracle_from_signal)."""
    x = _trial_signal(config, system,
                      rng_stream(config.seed, _ROLE_SIGNAL, ri, ti))
    if plan is None:
        k = effective_sparsity(system.coefficients(x), config.rho,
                               partition).per_level
        plan = mds_allocate(k, m_total, partition)
    sample = draw_sample(plan, m_total,
                         np.random.SeedSequence(entropy=config.seed,
                                                spawn_key=(_ROLE_SAMPLE, ri, ti)))
    noise = make_noise(NoiseSpec(config.snr_db), x, m_total,
                       weights=sample.weights if sample.weighted else None,
                       rng=rng_stream(config.seed, _ROLE_NOISE, ri, ti))
    y = measure(system, sample, x) + noise.vector
    epsilon = noise.weighted_norm if sample.weighted else noise.norm
    return SimpleNamespace(x=x, sample=sample, y=y, epsilon=float(epsilon),
                           noise_sigma=noise.sigma)


def run_experiment(config):
    """Run every (ratio, trial) cell, one ratio at a time.

    Each cell derives its signal, sample and noise streams from the master
    seed and its own (ratio, trial) coordinates, so a cell's result does
    not depend on the other cells.  Sampling plans depend on the config
    alone and are built once: the uds/vds plan per experiment and the
    worst-case mds allocation per ratio.  The trials of a ratio are built
    in order, solved as one batch by ``solve_bpdn_batch`` and recorded in
    order.  Raises ValueError if a trial's signal is identically zero.
    """
    system = SystemKind(config.system, config.r)
    partition = system.partition()
    plan = worst_k = None
    if config.strategy != "mds":
        plan = uds_pmf(system) if config.strategy == "uds" else vds_pmf(system)
    elif config.mds.sparsity_source == "worst_case_pregenerated":
        worst_k = _worst_case_k(config, system, partition)
    solver = config.solver
    records = []
    for ri, ratio in enumerate(config.ratios):
        m_total = max(1, int(round(ratio * system.n_total)))
        if worst_k is not None:
            plan = mds_allocate(worst_k, m_total, partition)
        trials = [_build_trial(config, system, partition, plan, ri, m_total, ti)
                  for ti in range(config.trials)]
        reports = solve_bpdn_batch([
            RecoveryProblem(system, trial.sample, trial.y, trial.epsilon,
                            tol_feas=solver.tol_feas, tol_gap=solver.tol_gap,
                            max_iterations=solver.max_iterations)
            for trial in trials])
        for ti, (trial, report) in enumerate(zip(trials, reports)):
            me_hat = me_reconstruct(system, trial.sample, trial.y)
            records.append(TrialRecord(
                ratio_index=ri, ratio=ratio, trial=ti + 1, m=m_total,
                sample_seed=trial.sample.seed,
                x_norm=_norm(trial.x),
                cs_error=_norm(trial.x - report.x_hat),
                me_error=_norm(trial.x - me_hat),
                epsilon=trial.epsilon, noise_sigma=trial.noise_sigma,
                cs_objective=report.objective,
                cs_iterations=report.iterations,
                cs_converged=report.converged))
    return ExperimentReport(config, tuple(records))


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def _sre_cells(ratios):
    """CSV cells for the SRE of these ||x|| / error ratios: the dB value
    capped at SRE_CAP_DB, and 1 if it is infinite (an exact trial)."""
    db = sre_from_ratios(ratios)
    return _fmt(min(db, SRE_CAP_DB)), str(int(math.isinf(db)))


def write_trials_csv(path, report):
    _write_csv(path, "ratio,trial,m,sample_seed,x_norm,cs_error,cs_sre_db,"
               "cs_exact,cs_objective,cs_iterations,cs_converged,me_error,"
               "me_sre_db,me_exact,epsilon,noise_sigma", (
                   [_fmt(rec.ratio), str(rec.trial), str(rec.m),
                    rec.sample_seed, _fmt(rec.x_norm), _fmt(rec.cs_error),
                    *_sre_cells(_ratio(rec.x_norm, rec.cs_error)),
                    _fmt(rec.cs_objective), str(rec.cs_iterations),
                    str(int(rec.cs_converged)), _fmt(rec.me_error),
                    *_sre_cells(_ratio(rec.x_norm, rec.me_error)),
                    _fmt(rec.epsilon), _fmt(rec.noise_sigma)]
                   for rec in report.records))


def write_summary_csv(path, report):
    _write_csv(path, "ratio,m,trials,cs_sre_db,cs_exact,me_sre_db,me_exact", (
        [_fmt(ratio), str(m), str(trials), *_sre_cells(cs_mean),
         *_sre_cells(me_mean)]
        for ratio, m, trials, cs_mean, me_mean in report.ratio_summary()))


def write_config_echo(path, report):
    _write_json(path, {"config": json.loads(config_to_json(report.config)),
                       "library_version": __version__,
                       "rng_algorithm": RNG_ALGORITHM})

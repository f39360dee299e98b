"""The experiment engine: config schema, trial loop and result files.

The fields of ``ExperimentConfig`` and its spec classes are the JSON
schema of ``config_from_json``/``config_to_json``.  ``run_experiment``
runs every (ratio, trial) cell on seeded streams, so the three writers
give byte-identical files across runs.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .coherence import SystemKind
from .recovery import RecoveryProblem, SolverSpec, solve_bpdn_batch
from .sampling import (RNG_ALGORITHM, STRATEGIES, _adjoint, _draw_samples,
                       _seed_sequence, mds_allocate, rng_stream, uds_pmf,
                       vds_pmf)
from .signals import (SIGNAL_KINDS, SRE_CAP_DB, NoiseSpec, _fmt, _row_norms,
                      _write_csv, _write_json, effective_sparsity,
                      gaussian_bump, generate, make_noise, sre_from_ratios)
from .transforms import _MAX_LOG2_N

SPARSITY_SOURCES = ("worst_case_pregenerated", "oracle_from_signal")

# spawn-key roles for the pre-split per-trial streams
_ROLE_SIGNAL, _ROLE_SAMPLE, _ROLE_NOISE, _ROLE_PREGEN = 0, 1, 2, 3

# the system of the last experiment, kept for the next: one entry, so a
# process never holds a second system's orders and plans
_system = functools.lru_cache(maxsize=1)(SystemKind)


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
            if self.center != "random":
                try:
                    float(self.center)
                except (TypeError, ValueError):
                    raise ValueError(f"center must be 'random' or a number, "
                                     f"got {self.center!r}") from None
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
        _seed_sequence(self.seed)           # rejects all but an int >= 0
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


def _make_signal(spec, size, u):
    """The signal ``spec`` describes at ``size`` for the uniform draw ``u``
    in [0, 1), or, for an array of draws, one signal per draw as a batch.
    A random bump is centred at sigma + (size - 2 sigma) u; any other
    signal does not depend on ``u``."""
    if spec.center == "random":
        return gaussian_bump(size, spec.sigma,
                             spec.sigma + (size - 2.0 * spec.sigma) * u)
    if spec.kind == "gaussian_bump":
        x = gaussian_bump(size, spec.sigma, float(spec.center))
    else:
        x = generate(spec.kind, size)
    return x if np.ndim(u) == 0 else np.repeat(x[None], len(u), axis=0)


def _signals(spec, size, u):
    """``_make_signal`` for the array of draws ``u``, as one batch made by
    one generator call.  Raises ValueError if a signal is identically
    zero."""
    x = _make_signal(spec, size, u)
    if not x.reshape(len(x), -1).any(axis=1).all():
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
    count = config.mds.pregenerated if config.signal.center == "random" else 1
    step = max(1, _PREGEN_ENTRIES // system.n_total)
    worst = np.zeros(partition.n_levels, dtype=np.int64)
    for start in range(0, count, step):
        x = _signals(config.signal, system.side,
                     rng.random(min(step, count - start)))
        es = effective_sparsity(system.coefficients(x), config.rho, partition)
        worst = np.maximum(worst, es.per_level.max(axis=0))
    return worst


def _build_trials(config, system, partition, plan, ri, m_total):
    """A ratio's trials, built as one batch: their signals ``x``, one row
    per trial, their ``RecoveryProblem``s and their noise sigmas.
    ``plan`` is None when mds sizes each trial's plan from its own signal
    (oracle_from_signal).  A trial draws its centre, sample and noise from
    its own (ratio, trial) streams, whose seed sequences are made here
    from the master seed, which the config has checked.  The signals,
    their effective sparsities, their spectra and the samples of one plan
    are each one batched call, and each row of a batched call is the row
    computed alone, so every trial is bit for bit the trial built alone."""
    seed, trials = int(config.seed), range(config.trials)
    signal_seeds, sample_seeds, noise_seeds = (
        [np.random.SeedSequence(seed, spawn_key=(role, ri, ti))
         for ti in trials]
        for role in (_ROLE_SIGNAL, _ROLE_SAMPLE, _ROLE_NOISE))
    x = _signals(config.signal, system.side, np.array(
        [rng_stream(ss).random() for ss in signal_seeds]))
    if plan is None:
        k = effective_sparsity(system.coefficients(x), config.rho,
                               partition).per_level
        samples = [_draw_samples(mds_allocate(k_t, m_total, partition),
                                 m_total, [ss])[0]
                   for k_t, ss in zip(k, sample_seeds)]
    else:
        samples = _draw_samples(plan, m_total, sample_seeds)
    problems, sigmas = [], []
    for sample, ss, x_t, spectrum in zip(samples, noise_seeds, x,
                                         system.spectrum(x)):
        noise = make_noise(NoiseSpec(config.snr_db), x_t, m_total,
                           weights=sample.weights if sample.weighted else None,
                           rng=rng_stream(ss))
        epsilon = noise.weighted_norm if sample.weighted else noise.norm
        problems.append(RecoveryProblem(
            system, sample, spectrum[sample.omega - 1] + noise.vector,
            float(epsilon)))
        sigmas.append(noise.sigma)
    return x, problems, sigmas


def run_experiment(config):
    """Run every (ratio, trial) cell, one ratio at a time.

    Each cell derives its signal, sample and noise streams from the master
    seed and its own (ratio, trial) coordinates, so a cell's result does
    not depend on the other cells.  Sampling plans depend on the config
    alone and are built once: the uds/vds plan per experiment and the
    worst-case mds allocation per ratio; the system is the last
    experiment's when it has the same tag and r.  The cells of a ratio are
    built as one batch (``_build_trials``), solved as one batch by
    ``solve_bpdn_batch`` with the config's one ``solver``, and recorded
    as arrays: their ME images are one batched adjoint and their norms
    ``_row_norms``, each row bit for bit its trial's alone.  Raises
    ValueError if a trial's signal is identically zero.
    """
    system = _system(config.system, config.r)
    partition = system.partition()
    plan = worst_k = None
    if config.strategy != "mds":
        plan = uds_pmf(system) if config.strategy == "uds" else vds_pmf(system)
    elif config.mds.sparsity_source == "worst_case_pregenerated":
        worst_k = _worst_case_k(config, system, partition)
    records = []
    for ri, ratio in enumerate(config.ratios):
        m_total = max(1, int(round(ratio * system.n_total)))
        if worst_k is not None:
            plan = mds_allocate(worst_k, m_total, partition)
        x, problems, sigmas = _build_trials(config, system, partition, plan,
                                            ri, m_total)
        reports = solve_bpdn_batch(problems, config.solver)
        me = _adjoint(system, np.array([p.sample.omega for p in problems]),
                      np.array([p.y for p in problems]), average=True)
        x_hat = np.array([report.x_hat for report in reports])
        norms = zip(*(_row_norms(v) for v in (x, x - x_hat, x - me)))
        for ti, (problem, sigma, report, (x_norm, cs_error, me_error)) in (
                enumerate(zip(problems, sigmas, reports, norms))):
            records.append(TrialRecord(
                ratio_index=ri, ratio=ratio, trial=ti + 1, m=m_total,
                sample_seed=problem.sample.seed, x_norm=x_norm,
                cs_error=cs_error, me_error=me_error,
                epsilon=problem.epsilon, noise_sigma=sigma,
                cs_objective=report.objective,
                cs_iterations=report.iterations,
                cs_converged=report.converged))
    return ExperimentReport(config, tuple(records))


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def _sre_cells(ratio):
    """CSV cells for the SRE of this ||x|| / error ratio (a float): the dB
    value capped at SRE_CAP_DB, and 1 if it is infinite (an exact trial)."""
    db = sre_from_ratios(ratio)
    return _fmt(min(db, SRE_CAP_DB)), str(int(math.isinf(db)))


def write_trials_csv(path, report):
    _write_csv(path, "ratio,trial,m,sample_seed,x_norm,cs_error,cs_sre_db,"
               "cs_exact,cs_objective,cs_iterations,cs_converged,me_error,"
               "me_sre_db,me_exact,epsilon,noise_sigma", (
                   ",".join([
                       _fmt(rec.ratio), str(rec.trial), str(rec.m),
                       rec.sample_seed, _fmt(rec.x_norm), _fmt(rec.cs_error),
                       *_sre_cells(_ratio(rec.x_norm, rec.cs_error)),
                       _fmt(rec.cs_objective), str(rec.cs_iterations),
                       str(int(rec.cs_converged)), _fmt(rec.me_error),
                       *_sre_cells(_ratio(rec.x_norm, rec.me_error)),
                       _fmt(rec.epsilon), _fmt(rec.noise_sigma)]) + "\n"
                   for rec in report.records))


def write_summary_csv(path, report):
    _write_csv(path, "ratio,m,trials,cs_sre_db,cs_exact,me_sre_db,me_exact", (
        ",".join([_fmt(ratio), str(m), str(trials), *_sre_cells(cs_mean),
                  *_sre_cells(me_mean)]) + "\n"
        for ratio, m, trials, cs_mean, me_mean in report.ratio_summary()))


def write_config_echo(path, report):
    _write_json(path, {"config": json.loads(config_to_json(report.config)),
                       "library_version": __version__,
                       "rng_algorithm": RNG_ALGORITHM})

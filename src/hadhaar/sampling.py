"""Measurement-index sampling strategies and the sampling operator.

Three strategies over the Hadamard index set [N]:

* ``uds``  uniform i.i.d. draws with replacement
* ``vds``  variable-density i.i.d. draws from the squared local-coherence
           profile, with preconditioning weights d_j = 1 / sqrt(eta(omega_j))
* ``mds``  per-level draws without replacement, m_t indices inside level t

Sample sets are deterministic functions of (plan, M, seed).  Randomness
comes from counter-based Philox streams keyed by numpy seed sequences, so
independent streams can be split off a master seed reproducibly.
"""
from __future__ import annotations

import array
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .coherence import _as_system, local_coherence
from .indexing import LevelPartition

RNG_ALGORITHM = "philox4x64/seedseq"
STRATEGIES = ("uds", "vds", "mds")

__all__ = [
    "InfeasibleError",
    "RNG_ALGORITHM",
    "STRATEGIES",
    "SamplingPlan",
    "SampleSet",
    "draw_sample",
    "mds_allocate",
    "measure",
    "measure_adjoint",
    "rng_stream",
    "uds_pmf",
    "vds_pmf",
]


class InfeasibleError(ValueError):
    """A measurement budget or data ball that no solution can meet."""


def _seed_sequence(seed, *key):
    """The seed sequence of the sub-stream ``key`` of a master seed, a
    non-negative integer; a SeedSequence with no key is its own stream."""
    if isinstance(seed, np.random.SeedSequence) and not key:
        return seed
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.SeedSequence(entropy=int(seed),
                                  spawn_key=tuple(int(k) for k in key))


def rng_stream(seed, *key):
    """Philox generator for the sub-stream ``key`` of a master seed."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, *key)))


@dataclass(frozen=True)
class SamplingPlan:
    """Immutable recipe for drawing measurement indices."""

    strategy: str
    n_total: int
    pmf: np.ndarray | None = field(default=None, repr=False)
    m: np.ndarray | None = field(default=None, repr=False)
    partition: LevelPartition | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy in ("uds", "vds"):
            if self.pmf is None or self.pmf.shape != (self.n_total,):
                raise ValueError("uds/vds plans need a pmf over [n_total]")
            if np.any(self.pmf < 0) or abs(float(self.pmf.sum()) - 1.0) > 1e-12:
                raise ValueError("pmf must be nonnegative and sum to 1")
        else:
            if self.m is None or self.partition is None:
                raise ValueError("mds plans need per-level counts and a partition")
            sizes = self.partition.sizes
            if self.m.shape != sizes.shape or np.any(self.m < 0) or np.any(self.m > sizes):
                raise ValueError("per-level counts must lie in [0, |level|]")


@dataclass(frozen=True)
class SampleSet:
    """Drawn measurement indices with preconditioning weights: a known
    strategy, a 1-D integer array of 1-based indices and one finite,
    positive weight per index."""

    omega: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    strategy: str
    seed: str
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy {self.strategy!r} is not one of "
                             f"{STRATEGIES}")
        omega, weights = np.asarray(self.omega), np.asarray(self.weights)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "weights", weights)
        if omega.ndim != 1 or omega.dtype.kind not in "iu":
            raise ValueError("sample indices must be a 1-D integer array")
        if omega.size and omega.min() < 1:
            raise ValueError(f"sample index {omega.min()} is below 1")
        if weights.shape != omega.shape:
            raise ValueError("a sample needs one weight per index")
        bad = ~(np.isfinite(weights) & (weights > 0.0))
        if bad.any():
            raise ValueError(f"weight {weights[bad][0]} is not finite and "
                             f"positive")

    @property
    def n_measurements(self):
        return int(self.omega.size)

    @property
    def weighted(self):
        """Whether recovery weights the data: uds and vds samples are
        preconditioned by their weights, mds samples are not."""
        return self.strategy in ("uds", "vds")


def uds_pmf(system, r=None):
    """Uniform sampling plan over the Hadamard indices."""
    system = _as_system(system, r)
    n = system.n_total
    return SamplingPlan("uds", n, pmf=np.full(n, 1.0 / n))


def vds_pmf(system, r=None):
    """Variable-density plan: eta(l) proportional to the squared local coherence."""
    system = _as_system(system, r)
    sq = local_coherence(system, mode="closed").values_squared
    return SamplingPlan("vds", system.n_total, pmf=sq / sq.sum())


def mds_allocate(k, m_total, partition):
    """Split a measurement budget across levels proportionally to k.

    Ideal quotas are m_total * k_t / K.  Levels whose quota exceeds their
    capacity |T_t| are frozen at capacity and the remaining budget is
    re-apportioned among the rest; the final integer split rounds quotas by
    largest remainder (exact rational remainders, ties to the lower level
    index).  Budget left over once every positive-k level is full spills
    into the k = 0 levels in ascending level order.
    """
    if not isinstance(partition, LevelPartition):
        raise ValueError("partition must be a LevelPartition")
    sizes = partition.sizes
    try:
        k = np.asarray(k, dtype=np.int64)
    except OverflowError:
        raise ValueError("per-level sparsities must lie in [0, |level|]") from None
    if k.shape != sizes.shape:
        raise ValueError("k must hold one count per level")
    if np.any(k < 0) or np.any(k > sizes):
        raise ValueError("per-level sparsities must lie in [0, |level|]")
    if k.sum() == 0:
        raise ValueError("at least one level must have a positive count")
    m_total = int(m_total)
    if m_total < 0 or m_total > partition.n_total:
        raise ValueError("measurement budget must lie in [0, n_total]")

    # freeze the levels whose quota exceeds their capacity until none does;
    # the products stay within int64 (at most N^2 <= 2^56)
    full = np.zeros(sizes.shape, dtype=bool)
    while True:
        live = (k > 0) & ~full
        rest = m_total - int(sizes[full].sum())
        k_act = int(k[live].sum())
        over = live & (rest * k > sizes * k_act)
        if not over.any():
            break
        full |= over
    m = np.where(full, sizes, 0)
    if k_act:
        floors, numer = np.divmod(rest * k[live], k_act)
        m[live] = floors
        ranked = np.flatnonzero(live)[np.argsort(-numer, kind="stable")]
        m[ranked[:rest - int(floors.sum())]] += 1
        rest = 0
    spill = np.where(k == 0, sizes, 0)
    m += np.clip(rest - np.cumsum(spill) + spill, 0, spill)
    if int(m.sum()) != m_total:
        raise InfeasibleError("allocation infeasible for the requested budget")
    return SamplingPlan("mds", partition.n_total, m=m, partition=partition)


def _draw_distinct(rng, pool, count):
    """Partial Fisher-Yates draw of ``count`` distinct entries of ``pool``:
    swap i with a uniform j in [i, |pool|) for i = 0, 1, ...  The swap
    targets come from one call, which reads the stream exactly as one
    ``rng.integers(i, |pool|)`` call per i would; the swaps run on a
    compact ``array.array``, whose items index faster than numpy's."""
    pool = array.array("q", np.asarray(pool, dtype=np.int64).tobytes())
    targets = rng.integers(np.arange(count), len(pool))
    for i, j in enumerate(targets.tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    return np.frombuffer(pool, dtype=np.int64, count=count).copy()


def draw_sample(plan, m_total, seed, replace=True):
    """Draw a SampleSet of size ``m_total`` from the plan, reproducibly.

    uds/vds draw i.i.d. indices by inverse CDF, keeping duplicates and
    draw order; with ``replace=False`` they instead keep drawing until
    ``m_total`` distinct indices have appeared (first-seen order).  mds
    always draws distinct indices inside each level and ignores the
    flag.  Identical (plan, m_total, seed, replace) gives an identical
    SampleSet.
    """
    if not isinstance(plan, SamplingPlan):
        raise ValueError("plan must be a SamplingPlan")
    m_total = int(m_total)
    if m_total < 1:
        raise ValueError("at least one measurement is required")
    ss = _seed_sequence(seed)
    rng = rng_stream(ss)
    if plan.strategy in ("uds", "vds"):
        if not replace and m_total > int(np.count_nonzero(plan.pmf > 0)):
            raise ValueError("distinct draws exceed the reachable indices")
        cdf = np.cumsum(plan.pmf)
        omega = np.empty(0, dtype=np.int64)
        # draw m_total at a time until m_total indices, or with
        # replace=False m_total distinct ones, have been drawn
        while (omega if replace else np.unique(omega)).size < m_total:
            batch = np.searchsorted(cdf, rng.random(m_total), side="right") + 1
            omega = np.concatenate((omega, np.clip(batch, 1, plan.n_total)))
        if not replace:
            # each index at its first appearance
            first = np.unique(omega, return_index=True)[1]
            omega = omega[np.sort(first)[:m_total]]
        weights = 1.0 / np.sqrt(plan.pmf[omega - 1])
    else:
        if m_total != int(plan.m.sum()):
            raise ValueError("mds draws must request exactly sum(m) measurements")
        omega = np.concatenate([
            _draw_distinct(rng, lev, int(m_t))
            for lev, m_t in zip(plan.partition.levels, plan.m) if m_t > 0])
        weights = np.ones(m_total)
    entropy = ss.entropy
    key = ".".join(str(k) for k in ss.spawn_key)
    return SampleSet(omega, weights, plan.strategy,
                     seed=f"{entropy}[{key}]" if key else str(entropy))


def _check_indices(system, sample):
    """Raise ValueError for an index of ``sample`` past the system's N."""
    n = system.n_total
    if sample.omega.size and sample.omega.max() > n:
        raise ValueError(f"sample index {sample.omega.max()} outside "
                         f"[1, {n}] for {system.tag} with r = {system.r}")


def _measurements(system, sample, y):
    """``y`` as float64, checked as the measurements of ``system`` at
    ``sample``: one finite value per index of a nonempty sample."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (sample.n_measurements,):
        raise ValueError("measurement vector length must match the sample")
    if y.size == 0:
        raise ValueError("cannot reconstruct from zero measurements")
    _check_indices(system, sample)
    if not np.isfinite(y).all():
        raise ValueError("measurements must be finite")
    return y


def measure(system, sample, x):
    """Subsampled Hadamard measurements y_j = (Phi^T x)_{omega_j}.

    ``x`` is a vector of length 2^r, or for 2-D systems a 2^r x 2^r image
    or its column-major vectorisation.
    """
    _check_indices(system, sample)
    return system.spectrum(x)[sample.omega - 1]


def measure_adjoint(system, sample, y):
    """Adjoint of :func:`measure`: scatter-add into [N], then apply Phi."""
    y = _measurements(system, sample, y)
    z = np.bincount(sample.omega - 1, weights=y, minlength=system.n_total)
    return system.signal(z)

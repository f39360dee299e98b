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
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .coherence import _as_system, local_coherence
from .indexing import LevelPartition
from .signals import _integer

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
    m_total = _integer(m_total, "m_total")
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


def draw_sample(plan, m_total, seed, replace=True):
    """Draw a SampleSet of size ``m_total`` from the plan, reproducibly.

    uds/vds draw i.i.d. indices by inverse CDF, keeping duplicates and
    draw order; with ``replace=False`` they instead keep drawing until
    ``m_total`` distinct indices have appeared (first-seen order).  mds
    always draws distinct indices inside each level and ignores the
    flag.  Identical (plan, m_total, seed, replace) gives an identical
    SampleSet: the batch of one of ``_draw_samples``.  Raises ValueError
    for a count that is not an integer.
    """
    if not isinstance(plan, SamplingPlan):
        raise ValueError("plan must be a SamplingPlan")
    return _draw_samples(plan, _integer(m_total, "m_total"),
                         [_seed_sequence(seed)], replace)[0]


def _draw_samples(plan, m_total, seeds, replace=True):
    """``draw_sample(plan, m_total, ss, replace)`` for each seed sequence
    ss of ``seeds``, as a list.  Each sample draws from its own Philox
    stream exactly as it would alone; the streams' uniforms meet in one
    inverse-CDF lookup and one weight gather.  An mds draw is a partial
    Fisher-Yates shuffle of every level with m_t > 0: position i of a
    level swaps with a uniform j in [i, |level|), all levels' targets from
    one ``integers`` call, which reads the stream as one call per (level,
    i) would, and each level's swaps on its own ``array.array`` copy,
    whose items index faster than numpy's.  (One pass over a copy of all
    levels at once drew 65,536 indices at 2-D r = 9 about 20% slower.)"""
    if m_total < 1:
        raise ValueError("at least one measurement is required")
    rngs = [rng_stream(ss) for ss in seeds]
    if plan.strategy in ("uds", "vds"):
        if not replace and m_total > int(np.count_nonzero(plan.pmf > 0)):
            raise ValueError("distinct draws exceed the reachable indices")
        cdf = np.cumsum(plan.pmf)

        def lookup(u):
            return np.clip(np.searchsorted(cdf, u, side="right") + 1, 1,
                           plan.n_total)

        omega = lookup(np.array([rng.random(m_total) for rng in rngs]))
        if not replace:
            # draw m_total more at a time until m_total distinct indices
            # have appeared, and keep each index at its first appearance
            rows = []
            for rng, row in zip(rngs, omega):
                while np.unique(row).size < m_total:
                    row = np.concatenate((row, lookup(rng.random(m_total))))
                first = np.unique(row, return_index=True)[1]
                rows.append(row[np.sort(first)[:m_total]])
            omega = np.array(rows)
        weights = 1.0 / np.sqrt(plan.pmf[omega - 1])
    else:
        if m_total != int(plan.m.sum()):
            raise ValueError("mds draws must request exactly sum(m) measurements")
        drawn = plan.m > 0
        counts, sizes = plan.m[drawn], plan.partition.sizes[drawn]
        low = np.concatenate([np.arange(m_t) for m_t in counts])
        high, ends = np.repeat(sizes, counts), np.cumsum(counts)
        spans = list(zip((ends - counts).tolist(), ends.tolist(), [
            np.asarray(lev, dtype=np.int64).tobytes()
            for lev, d in zip(plan.partition.levels, drawn) if d]))
        omega = np.empty((len(rngs), m_total), dtype=np.int64)
        for row, rng in zip(omega, rngs):
            targets = rng.integers(low, high)
            for first, last, level in spans:
                pool = array.array("q", level)
                for i, j in enumerate(targets[first:last].tolist()):
                    pool[i], pool[j] = pool[j], pool[i]
                row[first:last] = np.frombuffer(pool, dtype=np.int64,
                                                count=last - first)
        weights = np.ones(omega.shape)
    # a sample's seed is its stream's entropy, then its spawn key if any
    keys = (".".join(map(str, ss.spawn_key)) for ss in seeds)
    return [SampleSet(o, w, plan.strategy, seed=f"{ss.entropy}[{key}]"
                      if key else str(ss.entropy))
            for o, w, ss, key in zip(omega, weights, seeds, keys)]


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
    return _adjoint(system, sample.omega, _measurements(system, sample, y))


def _adjoint(system, omega, y, average=False):
    """Phi applied to the scatter-add of ``y`` into [N] at the 1-based
    indices ``omega``, or with ``average`` to the mean of the entries of
    ``y`` at each index (0 where there is none); for (B, m) arrays, one
    signal per row, each row as it comes alone."""
    n, lead = system.n_total, omega.shape[:-1]
    rows = math.prod(lead)
    bins = (omega - 1 + n * np.arange(rows).reshape(lead + (1,))).reshape(-1)
    z = np.bincount(bins, weights=y.reshape(-1), minlength=rows * n)
    if average:
        counts = np.bincount(bins, minlength=rows * n)
        z = np.divide(z, counts, out=np.zeros_like(z), where=counts > 0)
    return system.signal(z.reshape(lead + (n,)))

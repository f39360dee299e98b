"""Reconstruction from subsampled Hadamard measurements.

Two reconstructions are provided: basis pursuit denoise (minimise the l1
norm of the wavelet coefficients inside a data ball) and minimal-energy
backprojection.  For uds/vds samples the data ball follows the weighted
convention (1/sqrt(M)) ||D (y - A u)|| <= eps with D = diag(weights); mds
samples use the plain residual ||y - A u|| <= eps.

Basis pursuit denoise is solved by Douglas-Rachford splitting on the
Hadamard spectrum z = U s of the wavelet coefficients s, the splitting
behind C-SALSA (Afonso, Bioucas-Dias & Figueiredo 2011).  The system
matrix U = Phi^T Psi is orthogonal, so both halves of the split are exact
and cheap: the l1 prox of t is t - g with g = U clip(U^T t, -gamma, gamma)
(the Moreau decomposition of soft-thresholding; Combettes & Wajs 2005),
and once repeated indices are collapsed the data ball is an axis-aligned
ellipsoid on the sampled indices, projected onto with a scalar Newton
solve.  The stopping rule is a relative duality gap, so a converged
report certifies near-optimality of the returned point.

The projection is solved exactly (to a relative _NEWTON_RTOL) only at the
iterations where the stopping rule reads it, every _CHECK_EVERY
iterations and at the last; at the others it takes one Newton step from
the previous multiplier.  Relaxed Douglas-Rachford still converges when
its resolvents are computed with summable errors (Eckstein & Bertsekas
1992), and from the warm multiplier Newton converges quadratically (Moré
& Sorensen 1983), so the error of that step is small.  Every objective,
dual value, residual and returned point comes from an exact projection,
so the certificate is unchanged.

Noisy rows restart with a re-balanced step (primal-weight restarts, after
PDLP: Applegate et al. 2021; Applegate, Hinder, Lu & Lubin 2023).  At a
check where a row's relative gap has fallen to _RESTART_GAP times its gap
at its last restart (its first check before any), the row starts again at
z + gamma' p with p = g / gamma, the fixed-point form z* + gamma p* of
Douglas-Rachford, and gamma' = sqrt(gamma ||z - z_r|| / ||p - p_r||)
balances the moves of z and p since that restart (z_r, p_r), clamped to
within a factor _STEP_CLAMP of gamma.  The jump leaves the warm Newton
multiplier stale, so the row's next projection is exact: with one Newton
step there, restarts took more iterations than no restarts.  Noiseless
rows never restart.

The iteration runs in the system's two level orders: coefficients in
``SystemKind.level_order`` and spectra in ``SystemKind.spectral_order``,
between which U is block-diagonal and symmetric, one flat Walsh-Hadamard
transform per Hadamard block of each level.  The sample is mapped to
spectral positions once, and U and U^T = U are both the level operator,
bound with ``SystemKind.bind_level_op`` to the solve's buffers once per set
of live rows, so an iteration runs bare matrix products.  The binding makes
the solve's own work buffers, so solves that share a system may run at
once.  Only a stopped row's spectrum is put back in flat order before its
synthesis.
The update is over-relaxed, t + lambda (z - y) with y = t - g the prox
and lambda = _RELAX (Eckstein & Bertsekas 1992).  Off the sample the
projection is the identity, so there z = 2y - t = t - 2g and the next t
is t - lambda g, formed in place: an iteration projects only the sampled
entries, and forms z in full only when the stopping rule is checked.

``solve_bpdn_batch`` runs problems that share one system as a single
iteration over a (B, N) array, so each numpy call serves every row;
``solve_bpdn`` is its batch of one.  A solve has one ``SolverSpec``, so
every row is checked at the same iterations; rows keep their own step,
data ball and restarts, and every reduction runs along a row, so a row's
result is the same bit for bit in any batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from types import SimpleNamespace

import numpy as np

from .sampling import InfeasibleError, SampleSet, _adjoint, _measurements
from .signals import _MAX_NORM, _norm
from .transforms import _matmuls

__all__ = ["RecoveryProblem", "RecoveryReport", "SolverSpec", "me_reconstruct",
           "solve_bpdn", "solve_bpdn_batch"]

_CHECK_EVERY = 10
_NEWTON_STEPS = 50
_NEWTON_RTOL = 1e-12
# Douglas-Rachford step gamma = _STEP_SCALE * ||b|| / sqrt(|Omega|).  With
# the relaxation below, on the strategy-ordering experiment (1-D, r = 9,
# M/N = 0.2, 20 dB, uds/vds/mds x 20 at seeds 11 and 101-103) scales 0.15,
# 0.2 and 0.3 took 7,750/10,440/1,610, 6,950/12,780/1,730 and
# 7,180/17,350/2,430 iterations in all, and the batch maxima, which set a
# batch's time, summed to 1,890, 1,870 and 2,310; on a 2-D Shepp-Logan
# phantom (r = 8, M/N = 1/4, 20 dB, two samples each) they took 80/220,
# 50/190 and 50/260 iterations (mds/vds).  0.2 has the smallest sum of
# batch maxima and the fewest iterations on the phantom.
_STEP_SCALE = 0.2
# Over-relaxation: t += _RELAX (z - y).  Against plain Douglas-Rachford
# (1.0) on the problems above, 1.5 cut the iterations in all from
# 10,240/17,160/2,550 to 6,950/12,780/1,730 and on the phantom from 80/270
# and 80/280 to 50/190 each.  1.7 took 6,230/12,180/3,180 and 50/170: it
# cut the phantom's vds further, but took more than 1.0 on 1-D mds.
_RELAX = 1.5
# Primal-weight restarts (PDLP; Applegate, Hinder, Lu & Lubin 2023): a
# noisy row restarts at a check where its relative gap is at most
# _RESTART_GAP times its gap at its last restart (at its first check before
# any).  On the strategy-ordering experiment (1-D, r = 9, M/N = 0.2, 20 dB,
# sigma = 64 random-centre bump, 20 trials per seed) iterations in all /
# summed batch maxima at seeds 3001-3010 and 3011-3020 were, for uds and
# vds, 17,760/2,320, 17,160/2,030, 31,380/2,520 and 31,070/2,110 without
# restarts; 13,580/1,510, 14,130/1,780, 22,330/1,890 and 22,060/1,610 at
# 0.1; 13,040/1,470, 14,090/2,070, 21,870/1,750 and 22,090/1,760 at 0.2;
# 12,810/1,500, 14,050/2,140, 21,470/1,740 and 22,120/1,900 at 0.3; and
# 12,780/1,560, 14,360/2,530, 21,190/1,940 and 21,580/2,040 at 0.5.  0.1
# and 0.2 have the shortest maxima, 0.2 the smaller sums.  mds rows, which
# certify in 20-30 iterations, kept their counts.
_RESTART_GAP = 0.2
# A restart changes a row's step by at most this factor either way.
# Unclamped, the 3011-3020 uds maxima above rose to 2,460 (with 4: 2,250),
# mostly from one row with eps/||b|| = 0.999 (seed 3020, trial 20):
# unclamped, its step ended 27x below its first and it took 1,090
# iterations, against 820 clamped and 440 without restarts.  The sums
# moved by at most 3%.
_STEP_CLAMP = 2.0


@dataclass(frozen=True)
class RecoveryProblem:
    """One reconstruction instance: its measurements and noise radius."""

    system: object
    sample: SampleSet
    y: np.ndarray = field(repr=False)
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y",
                           _measurements(self.system, self.sample, self.y))
        if isinstance(self.epsilon, bool) or not (
                math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("epsilon must be finite and nonnegative")


@dataclass(frozen=True)
class SolverSpec:
    """The settings of one solve: ``tol_feas`` bounds how far the residual
    may exceed eps, relative to max(1, ||b||), ``tol_gap`` the relative
    duality gap, and ``max_iterations`` caps the iterations."""

    tol_feas: float = 1e-6
    tol_gap: float = 1e-6
    max_iterations: int = 20000

    def __post_init__(self):
        for name in ("tol_feas", "tol_gap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value}")
        value = self.max_iterations
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
            raise ValueError(f"max_iterations must be an integer of at least "
                             f"1, got {value!r}")


@dataclass(frozen=True)
class RecoveryReport:
    """A solve's result.  ``relative_gap`` is (objective - dual value) /
    objective at the last check (rounding can take it just below 0);
    ``stop_reason`` is ``converged``, ``max_iterations``, or ``zero_data``
    when ||b|| <= eps made x = 0 optimal at once.  ``restarts`` counts the
    solve's restarts and ``step`` is its final Douglas-Rachford step
    gamma (0 and 0.0 for ``zero_data``)."""

    x_hat: np.ndarray = field(repr=False)
    iterations: int = 0
    feasibility_residual: float = 0.0
    objective: float = 0.0
    converged: bool = False
    relative_gap: float = math.inf
    stop_reason: str = "max_iterations"
    restarts: int = 0
    step: float = 0.0


def _project_ellipsoid(v, batch, lam, exact):
    """Row by row, the Euclidean projection of v onto
    {z : sum c (z - beta)^2 <= radius^2}: exact for the rows in ``exact``
    (True for all, or a per-row bool mask), one Newton step for the others.

    v holds the sampled entries of every row of ``batch`` back to back, as
    its ``beta`` and ``c`` do, and each row has its own ``radius``.  A zero
    radius gives beta.  Outside the ellipsoid the projection is
    beta + d / (1 + lam c) with d = v - beta and lam > 0 the root of
    q(lam) = radius, where q(lam)^2 = sum c d^2 / (1 + lam c)^2 (Moré &
    Sorensen's secular equation), found by Newton's method on
    1/q - 1/radius, which is concave and increasing in lam.  A step from
    the left of the root stays at or left of it, so from lam = 0 Newton
    climbs monotonically to the root; a step from the right lands at or
    left of it, and is clamped at 0, so any start >= 0 is safe.  ``lam``
    holds each row's multiplier from the previous projection (the root
    moves little between iterations; zeros for a cold start), starts the
    solve and is overwritten with the new multipliers, 0 for rows that are
    not outside.  A row in ``exact`` stops when
    |q - radius| is within a relative _NEWTON_RTOL; any other row takes at
    most one step, which from the warm multiplier lands near the root (on
    it, up to rounding, for a row with one group, where 1/q is linear in
    lam).  A row's c takes few values (one for mds, a few dozen for vds)
    and its entries are sorted by c, so the sums run over its groups of
    equal c: q(lam)^2 = sum_g S_g / (1 + lam c_g)^2 with
    S_g = c_g sum_{i in g} d_i^2, one segment sum per group and then
    O(groups) work per Newton step.  Each row keeps its own groups,
    multiplier and stopping test, so a row's result does not depend on the
    rows beside it.
    """
    beta, radius, group_c = batch.beta, batch.radius, batch.group_c
    d = v - beta
    sums = group_c * np.add.reduceat(d * d, batch.group_starts)
    outside = batch.open & ~(np.sqrt(batch.group_sums(sums)) <= radius)
    np.copyto(lam, 0.0, where=~outside)
    active = outside.copy()
    step = np.empty(radius.size)
    for steps in range(_NEWTON_STEPS if np.count_nonzero(active) else 0):
        denominator = 1.0 + batch.group_spread(lam) * group_c
        shrink = 1.0 / denominator
        terms = sums * shrink * shrink
        q = np.sqrt(batch.group_sums(terms))
        excess = q - radius
        active &= np.abs(excess) > batch.newton_tol
        if not np.count_nonzero(active):
            break
        slope = batch.group_sums(terms * group_c * shrink)
        # a row that is not active may have radius * slope = 0
        np.divide(excess * q * q, radius * slope, out=step, where=active)
        np.add(lam, step, out=lam, where=active)
        np.maximum(lam, 0.0, out=lam)
        if steps == 0:
            # the rows outside ``exact`` stop after this one step
            active &= exact
            if not np.count_nonzero(active):
                break
    denominator = 1.0 + batch.group_spread(lam) * group_c
    z = beta + d / denominator.repeat(batch.group_sizes)
    if not outside.all():
        np.copyto(z, v, where=batch.spread(batch.open & ~outside))
        np.copyto(z, beta, where=batch.spread(~batch.open))
    return z


def _collapse(problem, position, tol_feas):
    """What the iteration needs of the problem: weights ``w``, ``b`` =
    w * y and ``b_norm`` = ||b||, ``rows`` (the spectral-order position of
    each measurement), ``omega`` (the positions of the distinct sampled
    indices), ``c`` and ``beta`` on omega (the collapsed data ball), the
    distinct values ``group_c`` of c with the number of entries
    ``group_sizes`` of each, ``radius`` (eps_eff), ``gamma`` (the step,
    which a restart changes) and the count of ``restarts``.  omega is
    sorted by c, then by position, so each group is one run of ascending
    positions.  ``position`` maps a 0-based flat index to its
    spectral-order position.  A ball that sqrt(scatter) puts more than
    feas_slack = tol_feas * max(1, ||b||) beyond eps is empty and raises
    InfeasibleError, never one with ||b|| <= eps, as sqrt(scatter) <= ||b||."""
    sample = problem.sample
    n, m = problem.system.n_total, sample.n_measurements
    w = sample.weights / math.sqrt(m) if sample.weighted else np.ones(m)
    with np.errstate(over="ignore"):
        b = w * problem.y
        b_norm = _norm(b)
    if b.any() and not 1.0 / _MAX_NORM <= b_norm <= _MAX_NORM:
        raise ValueError(f"||b|| = {math.hypot(*b.tolist()):.6g} is outside "
                         f"the solver's range [2^-320, 2^320]")
    eps = float(problem.epsilon)
    feas_slack = tol_feas * max(1.0, b_norm)
    rows = sample.omega - 1
    c_all = np.bincount(rows, weights=w * w, minlength=n)
    omega = np.flatnonzero(c_all > 0.0)
    beta_all = np.zeros(n)
    beta_all[omega] = (np.bincount(rows, weights=w * b, minlength=n)[omega]
                       / c_all[omega])
    scatter = float(np.sum((b - w * beta_all[rows]) ** 2))
    if math.sqrt(scatter) - eps > feas_slack:
        raise InfeasibleError(
            f"data ball is infeasible: repeated measurements scatter by "
            f"{math.sqrt(scatter):.6g} > epsilon = {eps:.6g}")
    omega = omega[np.lexsort((position[omega], c_all[omega]))]
    c = c_all[omega]
    # the groups' bounds: 0, each run boundary of c and |omega|
    bounds = np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1],
                                            [True])))
    return SimpleNamespace(
        w=w, b=b, b_norm=b_norm, rows=position[rows], omega=position[omega],
        c=c, beta=beta_all[omega], group_c=c[bounds[:-1]],
        group_sizes=bounds[1:] - bounds[:-1], eps=eps,
        radius=math.sqrt(max(eps * eps - scatter, 0.0)),
        gamma=_STEP_SCALE * b_norm / math.sqrt(omega.size),
        feas_slack=feas_slack, restarts=0)


class _Batch:
    """The live rows of a batch: per-row scalars as arrays, the sampled
    entries of all rows back to back (``flat`` indexes a (B, N) array's
    ravel), and the rows' groups of equal c back to back, each a run of
    ``group_sizes`` entries from ``group_starts``.  ``open`` marks the rows
    with a nonzero radius, ``newton_tol`` is their projection's stopping
    tolerance, and ``lower`` and ``upper`` are the (B, 1) clip bounds
    -gamma and gamma (``upper`` a view of ``gamma``)."""

    def __init__(self, data, n):
        self.data = data
        self.sizes = np.array([d.omega.size for d in data])
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.flat = np.concatenate([k * n + d.omega for k, d in enumerate(data)])
        self.c = np.concatenate([d.c for d in data])
        self.root_c = np.sqrt(self.c)
        self.beta = np.concatenate([d.beta for d in data])
        self.group_c = np.concatenate([d.group_c for d in data])
        self.group_sizes = np.concatenate([d.group_sizes for d in data])
        self.group_starts = np.cumsum(self.group_sizes) - self.group_sizes
        self.row_groups = np.array([d.group_c.size for d in data])
        self.row_group_starts = np.cumsum(self.row_groups) - self.row_groups
        self.radius = np.array([d.radius for d in data])
        self.gamma = np.array([d.gamma for d in data])
        self.open = self.radius != 0.0
        self.newton_tol = _NEWTON_RTOL * self.radius
        self.upper = self.gamma[:, None]
        self.lower = -self.upper

    def restart(self, rows, gamma):
        """Count a restart of each of ``rows`` and give it its step from
        ``gamma``, in its clip bounds and in its data, from which the next
        set of live rows builds its ``_Batch`` when rows stop."""
        self.gamma[rows] = gamma
        self.lower[rows, 0] = -gamma
        for k, step in zip(rows, gamma.tolist()):
            self.data[k].restarts += 1
            self.data[k].gamma = step

    def spread(self, per_row):
        """A per-row array repeated over each row's sampled entries."""
        return per_row.repeat(self.sizes)

    def row_sums(self, entries):
        """Per-row sums of an array laid out like the sampled entries."""
        return np.add.reduceat(entries, self.starts)

    def group_spread(self, per_row):
        """A per-row array repeated over each row's groups."""
        return per_row.repeat(self.row_groups)

    def group_sums(self, per_group):
        """Per-row sums of an array laid out like the groups."""
        return np.add.reduceat(per_group, self.row_group_starts)


def solve_bpdn(problem, solver=SolverSpec()):
    """Douglas-Rachford solve of min ||s||_1 s.t. ||G s - b|| <= eps.

    s are the wavelet coefficients and G s = w * (U s)[omega], where
    U = Phi^T Psi is the orthogonal Hadamard-Haar system, w holds the
    weights (the preconditioning weights over sqrt(M) for uds/vds, ones
    for mds) and b = w * y.  The solver works on the spectrum z = U s, in
    which the problem reads min ||U^T z||_1 over z in the data ball.

    Duplicate collapse.  Over the rows j drawn at index k let
    c_k = sum w_j^2 and beta_k = sum w_j b_j / c_k.  Then
    ||G s - b||^2 = sum_k c_k (z_k - beta_k)^2 + scatter with
    scatter = sum_j (b_j - w_j beta_k(j))^2 independent of s, so the data
    ball is the axis-aligned ellipsoid
    sum_k c_k (z_k - beta_k)^2 <= eps_eff^2 = eps^2 - scatter on the
    sampled indices Omega, with z free elsewhere.  Nonzero data with
    ||b|| outside [2^-320, 2^320] (``signals._MAX_NORM``) raises
    ValueError.  When ||b|| <= eps, x = 0 is returned at once (stop reason
    ``zero_data``).  Otherwise, when sqrt(scatter) exceeds eps by more than
    tol_feas * max(1, ||b||) the ball is empty and InfeasibleError is
    raised.  ``solver`` gives tol_feas, tol_gap and max_iterations.

    Iteration.  With g = U clip(U^T t, -gamma, gamma), y = t - g is the
    prox of the l1 term, U soft(U^T t, gamma) (U is orthogonal); z is the
    projection of 2y - t = y - g onto the ellipsoid (z = beta on Omega
    when eps_eff = 0, otherwise a scalar Newton solve for the multiplier,
    started from the previous iteration's: run to a relative 1e-12 at the
    iterations where the stopping rule is checked, one step at the
    others); then
    t += 1.5 (z - y), over-relaxed Douglas-Rachford, which off Omega is
    t - 1.5 g.  The first step is gamma = 0.2 ||b|| / sqrt(|Omega|).  When
    eps_eff > 0 the row restarts at a check whose relative gap is at most
    0.2 times the gap at its last restart (its first check before any):
    t = z + gamma' p with p = g / gamma, and
    gamma' = sqrt(gamma ||z - z_r|| / ||p - p_r||), clamped to
    [gamma / 2, 2 gamma], from z and p at that restart; its next
    projection is then exact.  Both steps make the iterates
    scale-equivariant in b.

    Certificate.  Every few iterations p = g / gamma, restricted to
    Omega and scaled down until ||U^T p||_inf <= 1, is dual feasible, and
    no point of the data ball has an l1 norm below its dual value
    <p, beta> - eps_eff ||C^{-1/2} p||.  tol_gap bounds the relative
    duality gap (objective - dual value) / objective.

    The returned point is the projected iterate z in the signal domain,
    exactly projected, and objective and feasibility_residual (the
    uncollapsed ||G s - b||) are evaluated at it.  converged = True
    certifies that the residual exceeds eps by at most
    tol_feas * max(1, ||b||) and that the objective is within a relative
    tol_gap of the dual value, hence of the optimum.
    Otherwise the point from the last of max_iterations iterations is
    returned with converged = False.  This is :func:`solve_bpdn_batch` on
    a batch of one.
    """
    return solve_bpdn_batch([problem], solver)[0]


def solve_bpdn_batch(problems, solver=SolverSpec()):
    """:func:`solve_bpdn` for each of ``problems`` with the one ``solver``,
    as one iteration over a (B, N) batch; returns the reports in order.

    The problems must share one system.  Their data balls are collapsed in
    order, and the first empty one raises InfeasibleError (a ball with
    ||b|| <= eps is never empty).  Every row is checked at the same
    iterations; every other step works row by row: each row has its own
    step, data ball, Newton multiplier and restart state, is restarted on
    its own and leaves the batch when it stops, so each report is bit for
    bit the one the problem gets alone with the same ``solver``.

    An outer loop runs once per set of live rows: it builds their
    ``_Batch``, binds U to the first rows of the six (B, N) buffers and
    iterates until a check stops rows, whose reports it writes before it
    moves the kept rows' state to the front.
    """
    problems = list(problems)
    if not problems:
        return []
    system = problems[0].system
    if any(p.system != system for p in problems):
        raise ValueError("every problem in a batch must share one system")
    n = system.n_total
    order = system.spectral_order
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    data = [_collapse(problem, position, solver.tol_feas)
            for problem in problems]
    reports = [RecoveryReport(system.signal(np.zeros(n)), 0, d.b_norm, 0.0,
                              True, 0.0, "zero_data")
               if d.b_norm <= d.eps else None for d in data]
    live = np.flatnonzero([report is None for report in reports])
    # t, g and s are kept buffers for the whole solve: t and g hold spectra
    # in spectral order, s coefficients in level order; every step writes
    # into them, and U is bound to the pairs it maps between (z is s).  p
    # holds g / gamma at a check, and z_ref and p_ref a row's z and p at its
    # last restart (its first check before any), with its gap in gap_ref.
    # Each set of live rows uses the first rows of the six buffers.
    buffers = np.zeros((6, live.size, n))
    lam = np.zeros(live.size)
    gap_ref = np.full(live.size, np.nan)
    restarted = False
    it = 0
    while live.size:
        batch = _Batch([data[i] for i in live], n)
        t, g, s, p, z_ref, p_ref = buffers[:, :live.size]
        t_to_s, s_to_g, g_to_g = system.bind_level_op((t, s), (s, g), (g, g))
        t_on = t.reshape(-1)[batch.flat]
        stopped = []
        while not stopped:
            it += 1
            # g = U clip(U^T t, -gamma, gamma), so that the l1 prox is t - g
            _matmuls(t_to_s)
            np.maximum(s, batch.lower, out=s)
            np.minimum(s, batch.upper, out=s)
            _matmuls(s_to_g)
            # off omega the projection is the identity, so z = t - 2g
            # there: only the sampled entries are projected (t_on holds
            # those of t), with each row's multiplier kept in lam, exactly
            # at a check and for the rows that restarted at the last one,
            # and z is formed in full only at a check
            g_on = g.reshape(-1)[batch.flat]
            y_on = t_on - g_on
            at_max = it == solver.max_iterations
            due = at_max or it % _CHECK_EVERY == 0
            z_on = _project_ellipsoid(y_on - g_on, batch, lam, due or restarted)
            restarted = False
            if due:
                np.divide(g, batch.upper, out=p)
                z = np.subtract(t, np.multiply(g, 2.0, out=s), out=s)
                z.reshape(-1)[batch.flat] = z_on
            # the next t, t - _RELAX g off omega; g is scratch from here on
            np.multiply(g, _RELAX, out=g)
            np.subtract(t, g, out=t)
            t_on += _RELAX * (z_on - y_on)
            t.reshape(-1)[batch.flat] = t_on
            if not due:
                continue
            _matmuls(s_to_g)
            objective = np.abs(g, out=g).sum(axis=1)
            p_on = p.reshape(-1)[batch.flat]
            g.fill(0.0)
            g.reshape(-1)[batch.flat] = p_on
            _matmuls(g_to_g)
            p_on /= batch.spread(np.maximum(1.0, np.abs(g, out=g).max(axis=1)))
            dual = (batch.row_sums(p_on * batch.beta) - batch.radius
                    * np.sqrt(batch.row_sums(np.square(p_on / batch.root_c))))
            with np.errstate(divide="ignore", invalid="ignore"):
                gap = (objective - dual) / objective
            gap_ok = objective - dual <= solver.tol_gap * objective
            going = batch.open.copy()
            for k in np.flatnonzero(gap_ok | at_max):
                d = batch.data[k]
                residual = _norm(d.w * z[k, d.rows] - d.b)
                converged = bool(residual - d.eps <= d.feas_slack and gap_ok[k])
                if converged or at_max:
                    stopped.append((k, residual, converged))
                    going[k] = False
            # primal-weight restarts of the noisy rows that go on: a row
            # whose gap fell to _RESTART_GAP times its gap at the last
            # restart starts again at z + gamma' p, DR's fixed-point form,
            # with the step balanced between the primal and dual moves
            # since then
            hits = restarted = going & (gap <= _RESTART_GAP * gap_ref)
            record = hits | (going & np.isnan(gap_ref))
            if np.count_nonzero(hits):
                # z_ref and p_ref take z and p below, so the hit rows may
                # hold the squared moves first
                mask = hits[:, None]
                for ref, now in ((z_ref, z), (p_ref, p)):
                    np.subtract(ref, now, out=ref, where=mask)
                    np.square(ref, out=ref, where=mask)
                hit = np.flatnonzero(hits)
                gamma = batch.gamma[hit]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    ratio = np.sqrt(z_ref.sum(axis=1)[hit] / p_ref.sum(axis=1)[hit])
                    step = np.clip(np.sqrt(gamma * ratio), gamma / _STEP_CLAMP,
                                   gamma * _STEP_CLAMP)
                step = np.where((ratio > 0.0) & (ratio < math.inf), step, gamma)
                batch.restart(hit, step)
                np.multiply(p, batch.upper, out=t, where=mask)
                np.add(t, z, out=t, where=mask)
                t_on = t.reshape(-1)[batch.flat]
            if np.count_nonzero(record):
                np.copyto(z_ref, z, where=record[:, None])
                np.copyto(p_ref, p, where=record[:, None])
                np.copyto(gap_ref, gap, where=record)
        # the stopped rows' reports, from their spectra in flat order in the
        # scratch g
        gone = [k for k, *_ in stopped]
        spectra = g[:len(gone)]
        spectra[:, order] = z[gone]
        for x_hat, (k, residual, converged) in zip(system.signal(spectra),
                                                   stopped):
            d = batch.data[k]
            reports[live[k]] = RecoveryReport(
                x_hat, it, residual, float(objective[k]), converged,
                float(gap[k]), "converged" if converged else "max_iterations",
                d.restarts, d.gamma)
        # the kept rows of t, z_ref and p_ref move to the front; g, s and p
        # are scratch
        rows = np.delete(np.arange(live.size), gone)
        buffers[[0, 4, 5], :rows.size] = buffers[np.ix_([0, 4, 5], rows)]
        live, lam, gap_ref, restarted = (
            a[rows] for a in (live, lam, gap_ref, restarted))
    return reports


def me_reconstruct(system, sample, y):
    """Minimal-energy reconstruction: adjoint of the deduplicated sampler.

    Repeated indices are collapsed by averaging their measurements; the
    result is the right pseudo-inverse of the deduplicated row-orthonormal
    measurement operator applied to y.
    """
    return _adjoint(system, sample.omega, _measurements(system, sample, y),
                    average=True)

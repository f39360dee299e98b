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

The iteration runs in the system's two level orders: coefficients in
``SystemKind.level_order`` and spectra in ``SystemKind.spectral_order``,
between which U is block-diagonal and symmetric, one flat Walsh-Hadamard
transform per Hadamard block of each level.  The sample is mapped to
spectral positions once, and U and U^T = U are both the level operator,
bound with ``SystemKind.bind_level_op`` to the solve's buffers once per
batch shape (again after rows leave), so an iteration runs bare matrix
products.  Only a stopped row's spectrum is put back in flat order before
its synthesis.
The update is over-relaxed, t + lambda (z - y) with y = t - g the prox
and lambda = _RELAX (Eckstein & Bertsekas 1992).  Off the sample the
projection is the identity, so there z = 2y - t = t - 2g and the next t
is t - lambda g, formed in place: an iteration projects only the sampled
entries, and forms z in full only when the stopping rule is checked.

``solve_bpdn_batch`` runs problems that share one system as a single
iteration over a (B, N) array, so each numpy call serves every row;
``solve_bpdn`` is its batch of one.  Rows keep their own step, data ball
and stopping test, and every reduction runs along a row, so a row's result
is the same bit for bit in any batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from types import SimpleNamespace

import numpy as np

from .sampling import InfeasibleError, SampleSet, _check_indices
from .signals import _norm
from .transforms import _matmuls

__all__ = ["RecoveryProblem", "RecoveryReport", "me_reconstruct", "solve_bpdn",
           "solve_bpdn_batch"]

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


@dataclass(frozen=True)
class RecoveryProblem:
    """One reconstruction instance with its solver tolerances."""

    system: object
    sample: SampleSet
    y: np.ndarray = field(repr=False)
    epsilon: float = 0.0
    tol_feas: float = 1e-6
    tol_gap: float = 1e-6
    max_iterations: int = 20000

    def __post_init__(self):
        object.__setattr__(self, "y",
                           _measurements(self.system, self.sample, self.y))
        if isinstance(self.epsilon, bool) or not (
                math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("epsilon must be finite and nonnegative")
        for name in ("tol_feas", "tol_gap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value}")
        value = self.max_iterations
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
            raise ValueError(f"max_iterations must be an integer of at least "
                             f"1, got {value!r}")


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


@dataclass(frozen=True)
class RecoveryReport:
    """A solve's result.  ``relative_gap`` is (objective - dual value) /
    objective at the last check (rounding can take it just below 0);
    ``stop_reason`` is ``converged``, ``max_iterations``, or ``zero_data``
    when ||b|| <= eps made x = 0 optimal at once."""

    x_hat: np.ndarray = field(repr=False)
    iterations: int = 0
    feasibility_residual: float = 0.0
    objective: float = 0.0
    converged: bool = False
    relative_gap: float = math.inf
    stop_reason: str = "max_iterations"


def _project_ellipsoid(v, batch, lam):
    """Row by row, the Euclidean projection of v onto
    {z : sum c (z - beta)^2 <= radius^2}.

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
    not outside.  A row stops when |q - radius| is within a relative
    _NEWTON_RTOL.  A row's c takes few values (one for mds, a few dozen
    for vds) and its entries are sorted by c, so the sums run over its
    groups of equal c: q(lam)^2 = sum_g S_g / (1 + lam c_g)^2
    with S_g = c_g sum_{i in g} d_i^2, one segment sum per group and then
    O(groups) work per Newton step.  Each row keeps its own groups,
    multiplier and stopping test, so a row's result does not depend on the
    rows beside it.
    """
    beta, radius, group_c = batch.beta, batch.radius, batch.group_c
    d = v - beta
    sums = group_c * np.add.reduceat(d * d, batch.group_starts)
    exact = radius == 0.0
    outside = ~exact & ~(np.sqrt(batch.group_sums(sums)) <= radius)
    np.copyto(lam, 0.0, where=~outside)
    active = outside.copy()
    tol = _NEWTON_RTOL * radius
    step = np.empty(radius.size)
    for _ in range(_NEWTON_STEPS if np.count_nonzero(active) else 0):
        shrink = 1.0 / (1.0 + batch.group_spread(lam) * group_c)
        terms = sums * shrink * shrink
        q = np.sqrt(batch.group_sums(terms))
        excess = q - radius
        active &= np.abs(excess) > tol
        if not np.count_nonzero(active):
            break
        slope = batch.group_sums(terms * group_c * shrink)
        # a row that is not active may have radius * slope = 0
        np.divide(excess * q * q, radius * slope, out=step, where=active)
        np.add(lam, step, out=lam, where=active)
        np.maximum(lam, 0.0, out=lam)
    denominator = 1.0 + batch.group_spread(lam) * group_c
    z = beta + d / denominator.repeat(batch.group_sizes)
    if not outside.all():
        np.copyto(z, v, where=batch.spread(~exact & ~outside))
        np.copyto(z, beta, where=batch.spread(exact))
    return z


def _collapse(problem, position):
    """What the iteration needs of the problem: weights ``w``, ``b`` =
    w * y and ``b_norm`` = ||b||, ``rows`` (the spectral-order position of
    each measurement), ``omega`` (the positions of the distinct sampled
    indices), ``c`` and ``beta`` on omega (the collapsed data ball), the
    distinct values ``group_c`` of c with the number of entries
    ``group_sizes`` of each, ``radius`` (eps_eff) and ``gamma`` (the
    step).  omega is sorted by c, then by position, so each group is one
    run of ascending positions.  ``position`` maps a 0-based flat index to
    its spectral-order position.  An empty ball raises InfeasibleError,
    never one with ||b|| <= eps, as sqrt(scatter) <= ||b||."""
    sample = problem.sample
    n, m = problem.system.n_total, sample.n_measurements
    w = sample.weights / math.sqrt(m) if sample.weighted else np.ones(m)
    b = w * problem.y
    b_norm = _norm(b)
    eps = float(problem.epsilon)
    feas_slack = problem.tol_feas * max(1.0, b_norm)
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
    group_c, group, group_sizes = np.unique(
        c_all[omega], return_inverse=True, return_counts=True)
    omega = omega[np.lexsort((position[omega], group))]
    return SimpleNamespace(
        w=w, b=b, b_norm=b_norm, rows=position[rows], omega=position[omega],
        c=c_all[omega], beta=beta_all[omega], group_c=group_c,
        group_sizes=group_sizes, eps=eps,
        radius=math.sqrt(max(eps * eps - scatter, 0.0)),
        gamma=_STEP_SCALE * b_norm / math.sqrt(omega.size),
        feas_slack=feas_slack, tol_gap=problem.tol_gap,
        max_iterations=problem.max_iterations)


class _Batch:
    """The live rows of a batch: per-row scalars as arrays, the sampled
    entries of all rows back to back (``flat`` indexes a (B, N) array's
    ravel), and the rows' groups of equal c back to back, each a run of
    ``group_sizes`` entries from ``group_starts``."""

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
        for name in ("radius", "gamma", "tol_gap", "max_iterations"):
            setattr(self, name, np.array([getattr(d, name) for d in data]))
        self.first_stop = int(self.max_iterations.min())

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


def solve_bpdn(problem):
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
    sampled indices Omega, with z free elsewhere.  When ||b|| <= eps,
    x = 0 is returned at once (stop reason ``zero_data``).  Otherwise, when
    sqrt(scatter) exceeds eps by more than tol_feas * max(1, ||b||) the
    ball is empty and InfeasibleError is raised.

    Iteration.  With g = U clip(U^T t, -gamma, gamma), y = t - g is the
    prox of the l1 term, U soft(U^T t, gamma) (U is orthogonal); z is the
    projection of 2y - t = y - g onto the ellipsoid (z = beta on Omega
    when eps_eff = 0, otherwise one scalar Newton solve for the
    multiplier, started from the previous iteration's); then
    t += 1.5 (z - y), over-relaxed Douglas-Rachford, which off Omega is
    t - 1.5 g.  The step is gamma = 0.2 ||b|| / sqrt(|Omega|), which makes
    the iterates scale-equivariant in b.

    Certificate.  Every few iterations p = g / gamma, restricted to
    Omega and scaled down until ||U^T p||_inf <= 1, is dual feasible, and
    no point of the data ball has an l1 norm below its dual value
    <p, beta> - eps_eff ||C^{-1/2} p||.  tol_gap bounds the relative
    duality gap (objective - dual value) / objective.

    The returned point is the projected iterate z in the signal domain,
    and objective and feasibility_residual (the uncollapsed ||G s - b||)
    are evaluated at it.  converged = True certifies that the residual
    exceeds eps by at most tol_feas * max(1, ||b||) and that the objective
    is within a relative tol_gap of the dual value, hence of the optimum.
    Otherwise the point from the last of max_iterations iterations is
    returned with converged = False.  This is :func:`solve_bpdn_batch` on
    a batch of one.
    """
    return solve_bpdn_batch([problem])[0]


def solve_bpdn_batch(problems):
    """:func:`solve_bpdn` for each of ``problems``, as one iteration over a
    (B, N) batch; returns the reports in order.

    The problems must share one system.  Their data balls are collapsed in
    order, and the first empty one raises InfeasibleError (a ball with
    ||b|| <= eps is never empty).  Every step of an iteration works row by
    row: each row has its own step, data ball and Newton multiplier, is
    checked on its own schedule and leaves the batch when it stops, so
    each report is bit for bit the one the problem gets alone.
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
    data = [_collapse(problem, position) for problem in problems]
    reports = [RecoveryReport(system.signal(np.zeros(n)), 0, d.b_norm, 0.0,
                              True, 0.0, "zero_data")
               if d.b_norm <= d.eps else None for d in data]
    live = [i for i, report in enumerate(reports) if report is None]
    data = [data[i] for i in live]
    if not live:
        return reports

    # t, g and s are kept buffers for the whole solve: t and g hold spectra
    # in spectral order, s coefficients in level order; every step writes
    # into them, and U is bound to the pairs it maps between (z is s)
    batch = _Batch(data, n)
    t = np.zeros((len(live), n))
    g, s = np.empty_like(t), np.empty_like(t)
    t_to_s, s_to_g, g_to_g = _bind(system, t, g, s)
    t_on = np.zeros(batch.flat.size)
    lam = np.zeros(len(live))
    it = 0
    while True:
        it += 1
        # g = U clip(U^T t, -gamma, gamma), so that the l1 prox is t - g
        _matmuls(t_to_s)
        gamma = batch.gamma[:, None]
        np.clip(s, -gamma, gamma, out=s)
        _matmuls(s_to_g)
        # off omega the projection is the identity, so z = t - 2g there:
        # only the sampled entries are projected (t_on holds those of t),
        # with each row's multiplier kept in lam, and z is formed in full
        # only when it is checked
        g_on = g.reshape(-1)[batch.flat]
        y_on = t_on - g_on
        z_on = _project_ellipsoid(y_on - g_on, batch, lam)
        check = it % _CHECK_EVERY == 0 or it == batch.first_stop
        if check:
            z = np.subtract(t, np.multiply(g, 2.0, out=s), out=s)
            z.reshape(-1)[batch.flat] = z_on
        # the next t, t - _RELAX g off omega; g is scratch from here on
        np.multiply(g, _RELAX, out=g)
        np.subtract(t, g, out=t)
        stopped = []
        if check:
            at_max = it == batch.max_iterations
            due = at_max | (it % _CHECK_EVERY == 0)
            _matmuls(s_to_g)
            objective = np.abs(g, out=g).sum(axis=1)
            p_on = g_on / batch.spread(batch.gamma)
            g.fill(0.0)
            g.reshape(-1)[batch.flat] = p_on
            _matmuls(g_to_g)
            p_on /= batch.spread(np.maximum(1.0, np.abs(g, out=g).max(axis=1)))
            dual = (batch.row_sums(p_on * batch.beta) - batch.radius
                    * np.sqrt(batch.row_sums(np.square(p_on / batch.root_c))))
            gap_ok = objective - dual <= batch.tol_gap * objective
            for k in np.flatnonzero(due & (gap_ok | at_max)):
                d = batch.data[k]
                residual = _norm(d.w * z[k, d.rows] - d.b)
                converged = bool(residual - d.eps <= d.feas_slack
                                 and gap_ok[k])
                if converged or at_max[k]:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        gap = float((objective[k] - dual[k]) / objective[k])
                    stopped.append((k, residual, converged, gap))
        t_on += _RELAX * (z_on - y_on)
        t.reshape(-1)[batch.flat] = t_on
        if stopped:
            spectra = np.empty((len(stopped), n))
            spectra[:, order] = z[[k for k, *_ in stopped]]
            keep = np.ones(len(live), dtype=bool)
            for x_hat, (k, residual, converged, gap) in zip(
                    system.signal(spectra), stopped):
                reports[live[k]] = RecoveryReport(
                    x_hat, it, residual, float(objective[k]), converged, gap,
                    "converged" if converged else "max_iterations")
                keep[k] = False
            live = [i for i, kept in zip(live, keep) if kept]
            if not live:
                break
            # move the kept rows of t to the front; g and s are scratch
            rows = np.flatnonzero(keep)
            t[:rows.size] = t[rows]
            t, g, s = (buf[:rows.size] for buf in (t, g, s))
            t_to_s, s_to_g, g_to_g = _bind(system, t, g, s)
            lam = lam[rows]
            batch = _Batch([d for d, kept in zip(batch.data, keep) if kept], n)
            t_on = t.reshape(-1)[batch.flat]
    return reports


def _bind(system, t, g, s):
    """U bound to the solve's buffer pairs t -> s, s -> g and g -> g."""
    return [system.bind_level_op(v, out)
            for v, out in ((t, s), (s, g), (g, g))]


def me_reconstruct(system, sample, y):
    """Minimal-energy reconstruction: adjoint of the deduplicated sampler.

    Repeated indices are collapsed by averaging their measurements; the
    result is the right pseudo-inverse of the deduplicated row-orthonormal
    measurement operator applied to y.
    """
    y = _measurements(system, sample, y)
    pos = sample.omega - 1
    sums = np.bincount(pos, weights=y, minlength=system.n_total)
    counts = np.bincount(pos, minlength=system.n_total)
    avg = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return system.signal(avg)

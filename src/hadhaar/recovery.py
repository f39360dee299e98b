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
and cheap: the l1 prox is soft-thresholding between one analysis and one
synthesis pass, and once repeated indices are collapsed the data ball is
an axis-aligned ellipsoid on the sampled indices, projected onto with a
scalar Newton solve.  The stopping rule is a relative duality gap, so a
converged report certifies near-optimality of the returned point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sampling import InfeasibleError, SampleSet

__all__ = ["RecoveryProblem", "RecoveryReport", "solve_bpdn", "me_reconstruct"]

_CHECK_EVERY = 10
_NEWTON_STEPS = 50
_NEWTON_RTOL = 1e-12
# Douglas-Rachford step gamma = _STEP_SCALE * ||b|| / sqrt(|Omega|).  Among
# scales from 0.01 to 3, total iterations were fewest at 0.1-0.2 for the
# strategy-ordering experiment (1-D, r = 9, M/N = 0.2, uds/vds/mds x 20)
# and at 0.3 for a 2-D Shepp-Logan phantom (r = 6, M/N = 1/4, one trial per
# strategy); 0.2 is within 1.3x of the fewest on both.
_STEP_SCALE = 0.2


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
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "y", y)
        if y.ndim != 1 or y.size != self.sample.n_measurements:
            raise ValueError("measurement vector length must match the sample")
        if y.size == 0:
            raise ValueError("cannot reconstruct from zero measurements")
        if not np.isfinite(y).all():
            raise ValueError("measurements must be finite")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("epsilon must be finite and nonnegative")
        if self.tol_feas <= 0 or self.tol_gap <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    @property
    def weighted(self):
        return self.sample.strategy in ("uds", "vds")


@dataclass(frozen=True)
class RecoveryReport:
    x_hat: np.ndarray = field(repr=False)
    iterations: int = 0
    feasibility_residual: float = 0.0
    objective: float = 0.0
    converged: bool = False


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _project_ellipsoid(v, beta, c, radius):
    """Euclidean projection of v onto {z : sum c (z - beta)^2 <= radius^2}.

    Outside the ellipsoid the projection is beta + d / (1 + lam c) with
    d = v - beta and lam > 0 the root of q(lam) = radius, where
    q(lam)^2 = sum c d^2 / (1 + lam c)^2.  1/q is concave and increasing in
    lam, so Newton's method on 1/q - 1/radius started at lam = 0 climbs
    monotonically to the root (Moré & Sorensen's secular equation).
    """
    if radius == 0.0:
        return beta.copy()
    d = v - beta
    cd2 = c * d * d
    if math.sqrt(float(np.sum(cd2))) <= radius:
        return v
    lam = 0.0
    for _ in range(_NEWTON_STEPS):
        shrink = 1.0 / (1.0 + lam * c)
        q = math.sqrt(float(np.sum(cd2 * shrink * shrink)))
        if q - radius <= _NEWTON_RTOL * radius:
            break
        slope = float(np.sum(cd2 * c * shrink ** 3))
        lam += (q - radius) * q * q / (radius * slope)
    return beta + d / (1.0 + lam * c)


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
    sampled indices Omega, with z free elsewhere.  When sqrt(scatter)
    exceeds eps by more than tol_feas * max(1, ||b||) the ball is empty
    and InfeasibleError is raised.

    Iteration.  y = U soft(U^T t, gamma) is the prox of the l1 term (U is
    orthogonal); z is the projection of 2y - t onto the ellipsoid (z = beta
    on Omega when eps_eff = 0, otherwise one scalar Newton solve for the
    multiplier); then t += z - y.  The step is
    gamma = 0.2 ||b|| / sqrt(|Omega|), which makes the iterates
    scale-equivariant in b.

    Certificate.  Every few iterations p = (t - y) / gamma, restricted to
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
    returned with converged = False.
    """
    system, sample = problem.system, problem.sample
    m = sample.n_measurements
    n = system.n_total
    w = sample.weights / math.sqrt(m) if problem.weighted else np.ones(m)
    b = w * problem.y
    eps = float(problem.epsilon)

    def coefficients(z):                    # U^T z
        return system.coefficients(system.signal(z))

    def spectrum(s):                        # U s
        return system.spectrum(system.synthesis(s))

    b_norm = float(np.linalg.norm(b))
    feas_slack = problem.tol_feas * max(1.0, b_norm)
    if b_norm <= eps:
        return RecoveryReport(system.signal(np.zeros(n)), 0, b_norm, 0.0, True)

    rows = sample.omega - 1
    c_all = np.bincount(rows, weights=w * w, minlength=n)
    omega = np.flatnonzero(c_all > 0.0)
    c = c_all[omega]
    beta_all = np.zeros(n)
    beta_all[omega] = np.bincount(rows, weights=w * b, minlength=n)[omega] / c
    beta = beta_all[omega]
    scatter = float(np.sum((b - w * beta_all[rows]) ** 2))
    if math.sqrt(scatter) - eps > feas_slack:
        raise InfeasibleError(
            f"data ball is infeasible: repeated measurements scatter by "
            f"{math.sqrt(scatter):.6g} > epsilon = {eps:.6g}")
    radius = math.sqrt(max(eps * eps - scatter, 0.0))

    gamma = _STEP_SCALE * b_norm / math.sqrt(omega.size)
    t = np.zeros(n)
    it = 0
    while True:
        it += 1
        y = spectrum(_soft_threshold(coefficients(t), gamma))
        z = 2.0 * y - t
        z[omega] = _project_ellipsoid(z[omega], beta, c, radius)
        if it % _CHECK_EVERY == 0 or it == problem.max_iterations:
            objective = float(np.sum(np.abs(coefficients(z))))
            residual = float(np.linalg.norm(w * z[rows] - b))
            p = np.zeros(n)
            p[omega] = (t[omega] - y[omega]) / gamma
            p /= max(1.0, float(np.max(np.abs(coefficients(p)))))
            dual = (float(p[omega] @ beta)
                    - radius * float(np.linalg.norm(p[omega] / np.sqrt(c))))
            converged = (residual - eps <= feas_slack
                         and objective - dual <= problem.tol_gap * objective)
            if converged or it == problem.max_iterations:
                return RecoveryReport(system.signal(z), it, residual, objective,
                                      converged)
        t += z - y


def me_reconstruct(system, sample, y):
    """Minimal-energy reconstruction: adjoint of the deduplicated sampler.

    Repeated indices are collapsed by averaging their measurements; the
    result is the right pseudo-inverse of the deduplicated row-orthonormal
    measurement operator applied to y.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (sample.n_measurements,):
        raise ValueError("measurement vector length must match the sample")
    if y.size == 0:
        raise ValueError("cannot reconstruct from zero measurements")
    pos = sample.omega - 1
    sums = np.bincount(pos, weights=y, minlength=system.n_total)
    counts = np.bincount(pos, minlength=system.n_total)
    avg = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return system.signal(avg)

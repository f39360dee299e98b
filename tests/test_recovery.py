import math
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from hadhaar.cli import EXIT_CODES, main
from hadhaar.coherence import SystemKind, system_matrix
from hadhaar.experiment import ExperimentConfig, SignalSpec, _build_trials
from hadhaar.indexing import build_levels
from hadhaar.recovery import (_CHECK_EVERY, _RELAX, _RESTART_GAP,
                              _STEP_CLAMP, _STEP_SCALE, RecoveryProblem,
                              RecoveryReport, SolverSpec, _Batch, _collapse,
                              _project_ellipsoid, me_reconstruct, solve_bpdn,
                              solve_bpdn_batch)
from hadhaar.sampling import (SampleSet, _adjoint, draw_sample, mds_allocate,
                              measure, measure_adjoint, rng_stream, uds_pmf,
                              vds_pmf)
from hadhaar.signals import (_MAX_NORM, NoiseSpec, gaussian_bump,
                             make_noise, save_signal_csv, shepp_logan)
from hadhaar.transforms import dense_basis, haar_transform, vec


def _full_sample(part):
    plan = mds_allocate(part.sizes, part.n_total, part)
    return draw_sample(plan, part.n_total, 0)


def _l1_optimum(a, y):
    """Exact min ||s||_1 subject to a s = y via the split-variable program."""
    _, keep = np.unique(np.round(a, 12), axis=0, return_index=True)
    a, y = a[np.sort(keep)], y[np.sort(keep)]
    n = a.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=y,
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


# ---------------------------------------------------------------------------
# basis pursuit
# ---------------------------------------------------------------------------

def test_exact_recovery_full_sampling():
    system = SystemKind("had_dhw_1d", 4)
    sample = _full_sample(build_levels("dyadic1d", 4))
    x = rng_stream(1, 0).standard_normal(16)
    report = solve_bpdn(RecoveryProblem(system, sample, measure(system, sample, x)))
    assert report.converged
    assert float(np.linalg.norm(report.x_hat - x)) <= 1e-5 * float(np.linalg.norm(x))
    coeffs = haar_transform("dhw", "analysis", report.x_hat)
    np.testing.assert_allclose(report.objective, float(np.sum(np.abs(coeffs))),
                               rtol=1e-6)


def test_exact_recovery_sparse_subsampled():
    system = SystemKind("had_dhw_1d", 5)
    plan = vds_pmf(system)
    rng = rng_stream(2, 0)
    s = np.zeros(32)
    s[[0, 3, 17]] = np.array([1.0, -1.0, 1.0])
    x = haar_transform("dhw", "synthesis", s)
    sample = draw_sample(plan, 24, 7, replace=False)
    report = solve_bpdn(RecoveryProblem(system, sample, measure(system, sample, x)))
    assert report.converged
    assert float(np.linalg.norm(report.x_hat - x)) <= 1e-4 * float(np.linalg.norm(x))


def test_exact_recovery_2d():
    system = SystemKind("had2_idhw", 2)
    sample = _full_sample(build_levels("iso2d", 2))
    img = rng_stream(3, 0).standard_normal((4, 4))
    report = solve_bpdn(RecoveryProblem(system, sample, measure(system, sample, img)))
    assert report.x_hat.shape == (4, 4)
    assert float(np.linalg.norm(report.x_hat - img)) <= 1e-5 * float(np.linalg.norm(img))


# 2-D systems for the oracle tests; had2_idhw solves in a permuted level order
SYSTEMS_2D = [("had2_idhw", 2), ("had2_idhw", 3), ("had2_adhw", 2)]


def _check_matches_linear_program(system):
    n = system.n_total
    worst = 0.0
    for i in range(6):
        plan = uds_pmf(system) if i % 2 == 0 else vds_pmf(system)
        sample = draw_sample(plan, (5 + i % 4) * n // 8, 100 + i)
        x = rng_stream(200 + i, 0).standard_normal(n)
        y = measure(system, sample, x)
        report = solve_bpdn(RecoveryProblem(system, sample, y),
                            SolverSpec(tol_feas=1e-9, tol_gap=1e-9,
                                       max_iterations=200000))
        opt = _l1_optimum(system_matrix(system)[sample.omega - 1], y)
        worst = max(worst, abs(report.objective - opt) / max(1.0, opt))
    assert worst <= 1e-6


def test_solver_matches_linear_program():
    _check_matches_linear_program(SystemKind("had_dhw_1d", 3))


@pytest.mark.parametrize("tag,r", SYSTEMS_2D)
def test_solver_matches_linear_program_2d(tag, r):
    _check_matches_linear_program(SystemKind(tag, r))


def _l1_ball_optimum(g, b, eps):
    """min ||s||_1 subject to ||g s - b|| <= eps via split-variable SLSQP."""
    n = g.shape[1]

    def residual(uv):
        return g @ (uv[:n] - uv[n:]) - b

    def grad(uv):
        back = 2.0 * g.T @ residual(uv)
        return np.concatenate([-back, back])

    s0 = np.linalg.lstsq(g, b, rcond=None)[0]
    uv0 = np.concatenate([np.maximum(s0, 0.0), np.maximum(-s0, 0.0)])
    res = minimize(lambda uv: float(uv.sum()), uv0,
                   jac=lambda uv: np.ones(2 * n), method="SLSQP",
                   bounds=[(0.0, None)] * (2 * n),
                   constraints=[{"type": "ineq",
                                 "fun": lambda uv: eps ** 2 - float(residual(uv) @ residual(uv)),
                                 "jac": grad}],
                   options={"ftol": 1e-14, "maxiter": 1000})
    assert float(np.linalg.norm(residual(res.x))) <= eps * (1.0 + 1e-9)
    return float(res.fun)


def _check_noisy_weighted_duplicates(system):
    n = system.n_total
    m = 10 * n // 16
    for seed in range(3):
        sample = draw_sample(uds_pmf(system), m, 40 + seed)
        assert np.unique(sample.omega).size < m      # repeated indices present
        x = rng_stream(41 + seed, 0).standard_normal(n)
        noise = make_noise(NoiseSpec(20.0), x, m, weights=sample.weights,
                           rng=rng_stream(seed))
        y = measure(system, sample, x) + noise.vector
        problem = RecoveryProblem(system, sample, y, epsilon=noise.weighted_norm)
        report = solve_bpdn(problem)
        assert report.converged
        w = sample.weights / math.sqrt(m)
        g = w[:, None] * system_matrix(system)[sample.omega - 1]
        b = w * y
        s_hat = system.coefficients(report.x_hat)
        slack = SolverSpec().tol_feas * max(1.0, float(np.linalg.norm(b)))
        assert float(np.linalg.norm(g @ s_hat - b)) <= noise.weighted_norm + slack
        opt = _l1_ball_optimum(g, b, noise.weighted_norm)
        assert abs(report.objective - opt) <= 1e-6 * opt


def test_noisy_weighted_duplicates_match_reference():
    _check_noisy_weighted_duplicates(SystemKind("had_dhw_1d", 4))


@pytest.mark.parametrize("tag,r", SYSTEMS_2D)
def test_noisy_weighted_duplicates_match_reference_2d(tag, r):
    _check_noisy_weighted_duplicates(SystemKind(tag, r))


def test_infeasible_data_ball_raises(tmp_path, capsys):
    system = SystemKind("had_dhw_1d", 3)
    sample = SampleSet(np.array([2, 5, 2], dtype=np.int64), np.ones(3), "uds", "0")
    y = np.array([1.0, 0.5, 2.0])       # index 2 measured twice, 1 apart
    with pytest.raises(ValueError, match="infeasible"):
        solve_bpdn(RecoveryProblem(system, sample, y, epsilon=0.1))
    # within eps the same measurements are accepted
    report = solve_bpdn(RecoveryProblem(system, sample, y, epsilon=1.0))
    assert report.converged

    sample_dir = tmp_path / "smp"
    assert main(["sample", "--strategy", "uds", "--system", "had_dhw_1d",
                 "--r", "3", "--M", "8", "--seed", "2",
                 "--out", str(sample_dir)]) == 0
    rows = (sample_dir / "sample.csv").read_text().splitlines()[1:]
    omega = [int(row.split(",")[1]) for row in rows]
    assert len(set(omega)) < len(omega)        # repeated indices present
    save_signal_csv(tmp_path / "y.csv", np.arange(1.0, len(omega) + 1.0))
    capsys.readouterr()
    assert main(["recover", "--system", "had_dhw_1d", "--r", "3",
                 "--sample", str(sample_dir / "sample.csv"),
                 "--measurements", str(tmp_path / "y.csv"),
                 "--out", str(tmp_path / "rec")]) == EXIT_CODES["infeasible"]
    assert capsys.readouterr().err.startswith("error:infeasible:")


def test_noisy_recovery_error_within_budget():
    system = SystemKind("had_dhw_1d", 6)
    part = build_levels("dyadic1d", 6)
    sample = _full_sample(part)
    x = rng_stream(4, 0).standard_normal(64)
    y_clean = measure(system, sample, x)
    noise = make_noise(NoiseSpec(20.0), x, 64, rng=rng_stream(3))
    report = solve_bpdn(RecoveryProblem(system, sample, y_clean + noise.vector,
                                        epsilon=noise.norm))
    assert report.converged
    # orthonormal rows: error at most twice the noise radius
    assert float(np.linalg.norm(report.x_hat - x)) <= 2.0 * noise.norm


def test_trivial_feasible_at_zero():
    system = SystemKind("had_dhw_1d", 3)
    sample = draw_sample(uds_pmf(system), 4, 5)
    y = np.full(4, 1e-9)
    report = solve_bpdn(RecoveryProblem(system, sample, y, epsilon=1.0))
    assert report.converged and report.iterations == 0
    assert np.array_equal(report.x_hat, np.zeros(8))
    assert report.objective == 0.0


def test_solver_deterministic():
    system = SystemKind("had_dhw_1d", 4)
    sample = draw_sample(vds_pmf(system), 10, 11)
    x = rng_stream(5, 0).standard_normal(16)
    y = measure(system, sample, x)
    a = solve_bpdn(RecoveryProblem(system, sample, y))
    b = solve_bpdn(RecoveryProblem(system, sample, y))
    assert np.array_equal(a.x_hat, b.x_hat)
    assert a.iterations == b.iterations and a.objective == b.objective


def _batch_problems(tag, r):
    """Problems on one system: uds/vds/mds samples of different sizes,
    noiseless rows (1 and 5), noisy rows and a row with ||b|| <= eps
    (2)."""
    system = SystemKind(tag, r)
    part = system.partition()
    x = rng_stream(8, r).standard_normal(system.n_total)
    problems = []
    for i, (strategy, frac, snr) in enumerate(
            [("vds", 0.5, 20.0), ("uds", 0.4, math.inf), ("mds", 0.5, 30.0),
             ("uds", 0.6, 20.0), ("vds", 0.3, math.inf)]):
        m = max(1, int(frac * system.n_total))
        plan = (mds_allocate(part.sizes, m, part) if strategy == "mds"
                else uds_pmf(system) if strategy == "uds" else vds_pmf(system))
        sample = draw_sample(plan, m, 30 + i)
        weighted = strategy != "mds"
        noise = make_noise(NoiseSpec(snr), x, m,
                           weights=sample.weights if weighted else None,
                           rng=rng_stream(9, i))
        y = measure(system, sample, x) + noise.vector
        eps = noise.weighted_norm if weighted else noise.norm
        problems.append(RecoveryProblem(system, sample, y, eps))
    # ||b|| <= eps: the zero point is optimal at once
    problems.insert(2, RecoveryProblem(system, problems[0].sample,
                                       1e-3 * problems[0].y, epsilon=10.0))
    return problems


@pytest.mark.parametrize("tag,r", [("had_dhw_1d", 5), ("had_dhw_1d", 6),
                                   ("had2_idhw", 2), ("had2_idhw", 3),
                                   ("had2_adhw", 2), ("had2_adhw", 3)])
def test_batch_rows_bit_equal_alone(tag, r):
    # one batch per setting: a 400-iteration cap, a gap tolerance tight
    # enough that rows restart, and a cap of 3, which is not a multiple of
    # the check interval
    problems = _batch_problems(tag, r)
    position = np.arange(problems[0].system.n_total)
    reasons = set()
    for solver in (SolverSpec(max_iterations=400),
                   SolverSpec(tol_gap=1e-12, max_iterations=400),
                   SolverSpec(max_iterations=3)):
        batch = solve_bpdn_batch(problems, solver)
        assert len(batch) == len(problems)
        for problem, got in zip(problems, batch):
            alone = solve_bpdn(problem, solver)
            assert got.x_hat.shape == alone.x_hat.shape
            assert got.x_hat.tobytes() == alone.x_hat.tobytes()
            assert (got.iterations, got.converged, got.stop_reason) \
                == (alone.iterations, alone.converged, alone.stop_reason)
            assert (got.objective, got.feasibility_residual,
                    got.relative_gap) \
                == (alone.objective, alone.feasibility_residual,
                    alone.relative_gap)
            assert (got.restarts, got.step) == (alone.restarts, alone.step)
            reasons.add(got.stop_reason)
        assert batch[2].stop_reason == "zero_data" and batch[2].iterations == 0
        assert (batch[2].restarts, batch[2].step) == (0, 0.0)
        # noiseless rows never restart and keep their first step
        for k in (1, 5):
            assert problems[k].epsilon == 0.0 and batch[k].restarts == 0
            assert batch[k].step == _collapse(problems[k], position,
                                              solver.tol_feas).gamma
        if solver.tol_gap == 1e-12:
            assert max(report.restarts for report in batch) >= 1
    # with a cap of 3 every row but the zero-data one stops at iteration 3
    assert [report.iterations for report in batch] == [3, 3, 0, 3, 3, 3]
    assert batch[0].stop_reason == "max_iterations"
    assert reasons == {"converged", "max_iterations", "zero_data"}


def test_threads_sharing_a_system_give_sequential_bits():
    # every binding of U makes its own work buffers, so level_op calls and
    # solves that share one SystemKind may run at once: two threads of each
    # give the bits they give one after another
    system = SystemKind("had2_idhw", 6)
    rng = rng_stream(19, 0)
    x = shepp_logan(system.side)
    m = system.n_total // 4
    problems = []
    for k in range(10):
        sample = draw_sample(vds_pmf(system), m, 190 + k)
        noise = make_noise(NoiseSpec(20.0), x, m, weights=sample.weights,
                           rng=rng)
        problems.append(RecoveryProblem(
            system, sample, measure(system, sample, x) + noise.vector,
            noise.weighted_norm))
    inputs = [rng.standard_normal((4, system.n_total)) for _ in range(150)]

    def apply_u():
        return [system.level_op(v).tobytes() for v in inputs]

    def solve():
        reports = [solve_bpdn(problem, SolverSpec(max_iterations=100))
                   for problem in problems]
        return [(report.x_hat.tobytes(), report.iterations)
                for report in reports]

    jobs = (apply_u, apply_u, solve, solve)
    want = [job() for job in jobs]
    got = [None] * len(jobs)
    start = threading.Barrier(len(jobs), timeout=60)

    def run(i):
        start.wait()
        got[i] = jobs[i]()

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [sum(a != b for a, b in zip(g, w)) for g, w in zip(got, want)] \
        == [0] * len(jobs)


def _bisected_multiplier(d, c, radius):
    """The root of q(lam) = radius, q(lam)^2 = sum c d^2 / (1 + lam c)^2,
    by bisection, for a d outside the ellipsoid (q(0) > radius > 0)."""

    def q(lam):
        return math.sqrt(float(np.sum(c * d * d / (1.0 + lam * c) ** 2)))

    lo, hi = 0.0, 1.0
    while q(hi) > radius:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if q(mid) > radius else (lo, mid)
    return 0.5 * (lo + hi)


def _bisected_projection(v, beta, c, radius):
    """The projection of v onto {z : sum c (z - beta)^2 <= radius^2}, its
    multiplier found by bisection on the secular equation."""
    d = v - beta
    if radius == 0.0:
        return beta
    if math.sqrt(float(np.sum(c * d * d))) <= radius:
        return v
    return beta + d / (1.0 + _bisected_multiplier(d, c, radius) * c)


def test_grouped_projection_matches_bisection():
    system = SystemKind("had_dhw_1d", 6)
    n = system.n_total
    rng = np.random.default_rng(5)
    base = rng.standard_normal(n)
    # repeated indices with four weights, so c repeats; then a noiseless
    # row (radius 0), a row whose point is inside its ball and one whose
    # point is just outside, where Newton from far right of its root steps
    # below 0
    data = []
    for strategy, m, eps in (("vds", 48, 0.05), ("mds", 20, 0.0),
                             ("uds", 48, 10.0), ("vds", 48, 1.0)):
        omega = (rng.choice(np.arange(1, n + 1), m, replace=False)
                 if strategy == "mds" else rng.integers(1, n + 1, size=m))
        sample = SampleSet(omega, rng.choice([0.5, 1.0, 2.0, 4.0], size=m),
                           strategy, seed="0")
        problem = RecoveryProblem(system, sample, base[omega - 1], eps)
        data.append(_collapse(problem, np.arange(n), 1e-6))
    batch = _Batch(data, n)
    assert batch.group_c.size < batch.c.size
    assert list(batch.radius[1:3]) == [0.0, pytest.approx(10.0)]
    shift = rng.standard_normal(batch.c.size)
    last = slice(batch.starts[3], None)
    outside = 1.02 * batch.radius[3] / math.sqrt(
        float(np.sum(batch.c[last] * shift[last] ** 2)))
    v = batch.beta + batch.spread(np.array([1.0, 1.0, 1e-3, outside])) * shift
    root, exact = np.zeros(4), np.ones(4, dtype=bool)
    _project_ellipsoid(v, batch, root, exact)
    assert root[0] > 0.0 and root[3] > 0.0 and list(root[1:3]) == [0.0, 0.0]
    # started cold, then warm at 0, at the root, at 10x and at 10^4x the
    # root (there the last row's first step lands below 0, so it needs the
    # clamp); the noiseless and the inside row start at a multiplier that
    # is not theirs
    starts = [np.zeros(4)] + [np.array([start * root[0], 5.0, 5.0,
                                        start * root[3]])
                              for start in (0.0, 1.0, 10.0, 1e4)]
    for lam in starts:
        warm = lam.copy()
        together = _project_ellipsoid(v, batch, warm, exact)
        for k, d in enumerate(data):
            rows = slice(batch.starts[k], batch.starts[k] + batch.sizes[k])
            alone = _project_ellipsoid(v[rows], _Batch([d], n),
                                       lam[k:k + 1].copy(), exact[k:k + 1])
            assert alone.tobytes() == together[rows].tobytes()
            want = _bisected_projection(v[rows], d.beta, d.c, d.radius)
            np.testing.assert_allclose(alone, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
            if k in (0, 3):
                # outside: the projection lies on the boundary
                assert math.isclose(
                    math.sqrt(float(np.sum(d.c * (alone - d.beta) ** 2))),
                    d.radius, rel_tol=1e-12)
        np.testing.assert_allclose(warm, root, rtol=1e-10)
        assert np.array_equal(together[batch.starts[1]:batch.starts[2]],
                              data[1].beta)
        assert np.array_equal(together[batch.starts[2]:batch.starts[3]],
                              v[batch.starts[2]:batch.starts[3]])


def _dense_douglas_rachford(problem, iterations):
    """Phi z after ``iterations`` of over-relaxed Douglas-Rachford from
    t = 0 on the solver's schedule: soft-thresholding between the dense
    U^T and U; the projection onto the collapsed data ball with the
    multiplier bisected where the solver checks (every _CHECK_EVERY
    iterations and at the last) and right after a restart and, at the
    other iterations, one Newton step on 1/q - 1/radius from the previous
    multiplier; and, for a noisy problem, the solver's restart at each
    check before the last, from its own objective, dual value and
    p = g / gamma."""
    system, sample = problem.system, problem.sample
    u = system_matrix(system)
    n, m = system.n_total, sample.n_measurements
    w = sample.weights / math.sqrt(m) if sample.weighted else np.ones(m)
    b = w * problem.y
    rows = sample.omega - 1
    omega = np.unique(rows)
    c = np.bincount(rows, weights=w * w, minlength=n)[omega]
    beta = np.bincount(rows, weights=w * b, minlength=n)[omega] / c
    scatter = float(np.sum((b - w * beta[np.searchsorted(omega, rows)]) ** 2))
    radius = math.sqrt(max(problem.epsilon ** 2 - scatter, 0.0))
    gamma = _STEP_SCALE * float(np.linalg.norm(b)) / math.sqrt(omega.size)
    t = np.zeros(n)
    lam = 0.0
    reference = None
    restarted = False
    for it in range(1, iterations + 1):
        check = it % _CHECK_EVERY == 0 or it == iterations
        v = u.T @ t
        y = u @ (np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0))
        g = t - y
        z = 2.0 * y - t
        d = z[omega] - beta
        if radius == 0.0:
            z[omega] = beta
        elif math.sqrt(float(np.sum(c * d * d))) <= radius:
            lam = 0.0
        else:
            if check or restarted:
                lam = _bisected_multiplier(d, c, radius)
            else:
                shrink = 1.0 / (1.0 + lam * c)
                q = math.sqrt(float(np.sum(c * d * d * shrink ** 2)))
                slope = float(np.sum(c * c * d * d * shrink ** 3))
                lam = max(0.0, lam + (q - radius) * q * q / (radius * slope))
            z[omega] = beta + d / (1.0 + lam * c)
        t = t + _RELAX * (z - y)
        restarted = False
        if not check or it == iterations or radius == 0.0:
            continue
        p = g / gamma
        objective = float(np.sum(np.abs(u.T @ z)))
        p_dual = np.zeros(n)
        p_dual[omega] = p[omega]
        p_dual /= max(1.0, float(np.max(np.abs(u.T @ p_dual))))
        dual = (float(p_dual[omega] @ beta)
                - radius * math.sqrt(float(np.sum(p_dual[omega] ** 2 / c))))
        gap = (objective - dual) / objective
        if reference is not None and gap <= _RESTART_GAP * reference[2]:
            ratio = (float(np.linalg.norm(z - reference[0]))
                     / float(np.linalg.norm(p - reference[1])))
            gamma = min(max(math.sqrt(gamma * ratio), gamma / _STEP_CLAMP),
                        gamma * _STEP_CLAMP)
            t = z + gamma * p
            restarted = True
        if reference is None or restarted:
            reference = (z, p, gap)
    return system.signal(z)


@pytest.mark.parametrize("tag,r", [("had_dhw_1d", 5), ("had2_idhw", 2)])
def test_iterates_match_dense_douglas_rachford(tag, r):
    # the returned point after a fixed number of iterations pins the whole
    # iterate sequence, not only where a converged solve ends
    system = SystemKind(tag, r)
    part = system.partition()
    n = system.n_total
    m = n // 2
    x = rng_stream(21, r).standard_normal(n)
    vds = draw_sample(vds_pmf(system), m, 22)
    assert np.unique(vds.omega).size < m       # repeated indices present
    mds = draw_sample(mds_allocate(part.sizes, m, part), m, 22)
    restarts = 0
    for sample in (vds, mds):
        for snr in (20.0, math.inf):
            noise = make_noise(NoiseSpec(snr), x, m,
                               weights=sample.weights if sample.weighted
                               else None, rng=rng_stream(23, 0))
            eps = noise.weighted_norm if sample.weighted else noise.norm
            y = measure(system, sample, x) + noise.vector
            for iterations in (1, 3, 37):
                problem = RecoveryProblem(system, sample, y, eps)
                report = solve_bpdn(problem, SolverSpec(
                    tol_gap=1e-300, max_iterations=iterations))
                # a gap that rounds to 0 or below certifies even 1e-300
                assert report.iterations == iterations or report.converged
                want = _dense_douglas_rachford(problem, report.iterations)
                assert (np.linalg.norm(report.x_hat - want)
                        <= 1e-12 * np.linalg.norm(want))
                restarts += report.restarts
    # the restarts, and the exact projection after each, are pinned too
    assert restarts >= 1


@pytest.mark.parametrize("tag,r", [("had_dhw_1d", 9), ("had2_idhw", 5),
                                   ("had2_adhw", 4)])
def test_scaled_and_permuted_data_give_the_same_solve(tag, r):
    # metamorphic checks of the weighted collapse and the step
    # gamma = 0.2 ||b|| / sqrt(|Omega|): scaling y and eps by a power of two
    # scales every iterate exactly, and reordering the measurements (with
    # their weights) only reorders the duplicate sums; both hold iterate by
    # iterate, so a capped solve checks them as well as a converged one
    system = SystemKind(tag, r)
    part = system.partition()
    n = system.n_total
    m = n // 4
    x = (shepp_logan(system.side) if system.is_2d
         else gaussian_bump(n, 64.0, 200.0))
    perm = rng_stream(31, r).permutation(m)
    for sample in (draw_sample(vds_pmf(system), m, 32),
                   draw_sample(mds_allocate(part.sizes, m, part), m, 32)):
        shuffled = SampleSet(sample.omega[perm], sample.weights[perm],
                             sample.strategy, sample.seed)
        for snr in (20.0, math.inf):
            noise = make_noise(NoiseSpec(snr), x, m,
                               weights=sample.weights if sample.weighted
                               else None, rng=rng_stream(33, 0))
            eps = noise.weighted_norm if sample.weighted else noise.norm
            y = measure(system, sample, x) + noise.vector
            base, scaled, permuted = solve_bpdn_batch([
                RecoveryProblem(system, sample, y, eps),
                RecoveryProblem(system, sample, 8.0 * y, 8.0 * eps),
                RecoveryProblem(system, shuffled, y[perm], eps)],
                SolverSpec(max_iterations=300))
            assert base.iterations > 0
            assert scaled.iterations == base.iterations
            assert np.array_equal(scaled.x_hat, 8.0 * base.x_hat)
            assert permuted.iterations == base.iterations
            assert (np.linalg.norm(permuted.x_hat - base.x_hat)
                    <= 1e-13 * np.linalg.norm(base.x_hat))


@pytest.mark.parametrize("tag,r", [("had_dhw_1d", 9), ("had2_idhw", 5)])
def test_data_at_the_ends_of_the_range_solve(tag, r):
    # noisy data scaled by powers of two to just inside the solver's range
    # [1 / _MAX_NORM, _MAX_NORM] solve with no overflow or underflow (numpy
    # warnings are errors here); at the top end, where ||b|| > 1 on both
    # sides, the iterates are the same scaled, and one more factor of two
    # either way is rejected
    system = SystemKind(tag, r)
    n = system.n_total
    m = n // 4
    x = (shepp_logan(system.side) if system.is_2d
         else gaussian_bump(n, 64.0, 200.0))
    sample = draw_sample(vds_pmf(system), m, 32)
    noise = make_noise(NoiseSpec(20.0), x, m, weights=sample.weights,
                       rng=rng_stream(33, 0))
    y = measure(system, sample, x) + noise.vector
    b_norm = _collapse(RecoveryProblem(system, sample, y, noise.weighted_norm),
                       np.arange(n), 1e-6).b_norm
    targets = (2.0, _MAX_NORM, 2.0 / _MAX_NORM)
    scales = [2.0 ** math.floor(math.log2(t / b_norm)) for t in targets]
    problems = [RecoveryProblem(system, sample, scale * y,
                                scale * noise.weighted_norm)
                for scale in scales]
    for problem, target in zip(problems, targets):
        assert target / 2 < _collapse(problem, np.arange(n),
                                      1e-6).b_norm <= target
    for scale in (2.0 * scales[1], 0.5 * scales[2]):
        with pytest.raises(ValueError, match=r"outside the solver's range"):
            solve_bpdn(RecoveryProblem(system, sample, scale * y,
                                       scale * noise.weighted_norm))
    base, top, bottom = solve_bpdn_batch(problems,
                                         SolverSpec(max_iterations=300))
    assert base.iterations > 0 and base.restarts > 0
    assert top.iterations == base.iterations and top.restarts == base.restarts
    ratio = scales[1] / scales[0]
    assert np.array_equal(top.x_hat, ratio * base.x_hat)
    assert top.objective == ratio * base.objective
    assert bottom.iterations > 0 and np.all(np.isfinite(bottom.x_hat))


def test_strategy_ordering_vds_rows_restart():
    # criterion 6's vds rows (seed 11) restart, each restart moves a row's
    # step by at most _STEP_CLAMP either way, and every row certifies
    config = ExperimentConfig(
        system="had_dhw_1d", r=9, strategy="vds", ratios=(0.2,),
        snr_db=20.0, trials=20, seed=11,
        signal=SignalSpec("gaussian_bump", sigma=64.0, center="random"))
    system = SystemKind(config.system, config.r)
    problems = _build_trials(config, system, system.partition(),
                             vds_pmf(system), 0, 102)[1]
    position = np.arange(system.n_total)
    reports = solve_bpdn_batch(problems)
    assert all(report.converged for report in reports)
    assert max(report.restarts for report in reports) >= 1
    for problem, report in zip(problems, reports):
        first = _collapse(problem, position, config.solver.tol_feas).gamma
        assert (first / _STEP_CLAMP ** report.restarts <= report.step
                <= first * _STEP_CLAMP ** report.restarts)


def test_batch_rejects_mixed_systems():
    one = _batch_problems("had_dhw_1d", 3)[0]
    other = _batch_problems("had2_adhw", 2)[0]
    with pytest.raises(ValueError, match="share one system"):
        solve_bpdn_batch([one, other])
    with pytest.raises(ValueError, match="share one system"):
        solve_bpdn_batch([one, _batch_problems("had_dhw_1d", 4)[0]])
    assert solve_bpdn_batch([]) == []


def test_stop_reason_and_gap():
    system = SystemKind("had_dhw_1d", 5)
    sample = draw_sample(vds_pmf(system), 16, 3)
    x = rng_stream(12, 0).standard_normal(32)
    y = measure(system, sample, x)
    done = solve_bpdn(RecoveryProblem(system, sample, y, epsilon=0.01))
    assert done.converged and done.stop_reason == "converged"
    assert done.relative_gap <= 1e-6         # may round below 0
    cut = solve_bpdn(RecoveryProblem(system, sample, y, epsilon=0.01),
                     SolverSpec(max_iterations=3))
    assert cut.iterations == 3 and not cut.converged
    assert cut.stop_reason == "max_iterations" and cut.relative_gap > 1e-6


def test_batch_raises_on_first_infeasible_row():
    system = SystemKind("had_dhw_1d", 3)
    sample = SampleSet(np.array([2, 5, 2], dtype=np.int64), np.ones(3), "uds", "0")
    y = np.array([1.0, 0.5, 2.0])       # index 2 measured twice, 1 apart
    tight = RecoveryProblem(system, sample, y, epsilon=0.1)
    loose = RecoveryProblem(system, sample, y, epsilon=1.0)
    zero = RecoveryProblem(system, sample, 1e-3 * y, epsilon=1.0)
    with pytest.raises(ValueError, match="infeasible"):
        solve_bpdn_batch([zero, loose, tight])


def test_problem_rejects_index_beyond_system():
    sample = SampleSet(np.array([3, 9], dtype=np.int64), np.ones(2), "uds", "0")
    with pytest.raises(ValueError, match=r"sample index 9 outside \[1, 8\]"):
        RecoveryProblem(SystemKind("had_dhw_1d", 3), sample, np.ones(2))


def test_solver_spec_validation():
    with pytest.raises(ValueError, match="tol_feas must be finite and "
                       "positive, got 0.0"):
        SolverSpec(tol_feas=0.0)
    # a bool is not a tolerance, though it compares as 0 or 1
    for name in ("tol_feas", "tol_gap"):
        for bad in (True, False):
            with pytest.raises(ValueError, match=name):
                SolverSpec(**{name: bad})
    for bad in (0, 2.5, np.inf, True):
        with pytest.raises(ValueError, match="max_iterations must be an "
                           "integer of at least 1"):
            SolverSpec(max_iterations=bad)


def test_problem_validation():
    system = SystemKind("had_dhw_1d", 3)
    sample = draw_sample(uds_pmf(system), 4, 5)
    y = np.ones(4)
    with pytest.raises(ValueError):
        RecoveryProblem(system, sample, np.ones(3))
    with pytest.raises(ValueError):
        RecoveryProblem(system, sample, y, epsilon=-1.0)
    # a bool is not a noise radius, though it compares as 0 or 1
    for bad in (True, False):
        with pytest.raises(ValueError, match="epsilon"):
            RecoveryProblem(system, sample, y, epsilon=bad)
    with pytest.raises(ValueError):
        RecoveryProblem(system, sample, np.array([1.0, np.nan, 0.0, 0.0]))
    empty = SampleSet(np.array([], dtype=np.int64), np.array([]), "uds", "0")
    with pytest.raises(ValueError):
        RecoveryProblem(system, empty, np.array([]))


def test_report_fields():
    report = RecoveryReport(np.zeros(4), 7, 1e-9, 2.5, True)
    assert report.iterations == 7 and report.converged
    assert report.feasibility_residual == 1e-9 and report.objective == 2.5


# ---------------------------------------------------------------------------
# minimal energy
# ---------------------------------------------------------------------------

def test_me_single_measurement_example():
    system = SystemKind("had_dhw_1d", 2)
    sample = SampleSet(np.array([1]), np.array([1.0]), "uds", "0")
    x_hat = me_reconstruct(system, sample, np.array([2.0]))
    assert np.array_equal(x_hat, np.ones(4))


def _check_me_matches_pseudoinverse(system):
    # A is the sampled rows of Phi^T; the second sample repeats index 2
    rng = rng_stream(6, 0)
    for omega in ([3, 1, 9, 14], [2, 2, 5, 2, 11]):
        omega = np.array(omega, dtype=np.int64)
        sample = SampleSet(omega, np.ones(omega.size), "uds", "0")
        a = dense_basis(system.sensing_basis).T[omega - 1]
        y = rng.standard_normal(omega.size)
        np.testing.assert_allclose(vec(me_reconstruct(system, sample, y)),
                                   np.linalg.pinv(a) @ y, atol=1e-12)


def test_me_matches_pseudoinverse():
    _check_me_matches_pseudoinverse(SystemKind("had_dhw_1d", 4))


@pytest.mark.parametrize("tag,r", [("had2_idhw", 2), ("had2_adhw", 2)])
def test_me_matches_pseudoinverse_2d(tag, r):
    _check_me_matches_pseudoinverse(SystemKind(tag, r))


@pytest.mark.parametrize("tag,r", [("had_dhw_1d", 9), ("had2_idhw", 5),
                                   ("had2_adhw", 4)])
def test_batched_me_rows_equal_me_alone(tag, r):
    # the engine's ME images are one adjoint over (trial, index) bins; each
    # row is me_reconstruct of its trial alone, bit for bit, and without
    # averaging each row is measure_adjoint alone
    system = SystemKind(tag, r)
    m = system.n_total // 5
    samples = [draw_sample(plan, m, 60 + t) for t, plan in enumerate(
        (uds_pmf(system), vds_pmf(system), vds_pmf(system)))]
    y = rng_stream(61, 0).standard_normal((len(samples), m))
    omega = np.array([sample.omega for sample in samples])
    for average, alone in ((True, me_reconstruct), (False, measure_adjoint)):
        batch = _adjoint(system, omega, y, average=average)
        assert batch.shape == (len(samples),) + (system.side,) * (
            2 if system.is_2d else 1)
        for row, sample, y_t in zip(batch, samples, y):
            assert np.array_equal(row, alone(system, sample, y_t))


def test_me_full_sampling_inverts():
    system = SystemKind("had2_idhw", 2)
    part = build_levels("iso2d", 2)
    sample = _full_sample(part)
    img = rng_stream(7, 0).standard_normal((4, 4))
    back = me_reconstruct(system, sample, measure(system, sample, img))
    np.testing.assert_allclose(back, img, atol=1e-12)
    assert back.shape == (4, 4)


def test_me_validation():
    system = SystemKind("had_dhw_1d", 2)
    sample = SampleSet(np.array([1]), np.array([1.0]), "uds", "0")
    with pytest.raises(ValueError):
        me_reconstruct(system, sample, np.array([1.0, 2.0]))
    empty = SampleSet(np.array([], dtype=np.int64), np.array([]), "uds", "0")
    with pytest.raises(ValueError):
        me_reconstruct(system, empty, np.array([]))
    wide = SampleSet(np.array([1, 2, 3, 4]), np.ones(4), "uds", "0")
    with pytest.raises(ValueError, match="measurements must be finite"):
        me_reconstruct(system, wide, np.array([1.0, np.nan, 0.0, 0.0]))

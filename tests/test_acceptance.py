"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints one ``criterion NN <name>: PASS|FAIL`` line (stream them
with ``pytest -s``; pytest -v also shows one PASSED/FAILED row per
criterion).  Tolerances and runtime budgets are asserted inside the tests.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
from scipy.optimize import linprog

from hadhaar.coherence import (SystemKind, local_coherence, multilevel_coherence,
                               structure_check)
from hadhaar.experiment import (ExperimentConfig, SignalSpec, run_experiment,
                                write_config_echo, write_summary_csv,
                                write_trials_csv)
from hadhaar.recovery import RecoveryProblem, me_reconstruct, solve_bpdn
from hadhaar.sampling import (draw_sample, mds_allocate, measure, rng_stream,
                              uds_pmf, vds_pmf)
from hadhaar.signals import NoiseSpec, gaussian_bump, make_noise, sre_db
from hadhaar.transforms import (dense_basis, dense_window_matrix, fwht,
                                haar_transform, vec)

ONE_D_RANGE = range(1, 7)
TWO_D_RANGE = range(1, 5)


@contextmanager
def _criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def _pow2_half(k):
    if k % 2 == 0:
        return math.ldexp(1.0, k // 2)
    return math.ldexp(math.sqrt(2.0), (k - 1) // 2)


def test_criterion_01_local_coherence_exactness():
    with _criterion(1, "local coherence exactness"):
        start = time.perf_counter()
        cases = [("had_dhw_1d", ONE_D_RANGE, lambda r: r + 1.0),
                 ("had2_idhw", TWO_D_RANGE, lambda r: 3.0 * r + 1.0),
                 ("had2_adhw", TWO_D_RANGE, lambda r: (r + 1.0) ** 2)]
        for tag, r_range, energy in cases:
            for r in r_range:
                closed = local_coherence(tag, "closed", r=r)
                brute = local_coherence(tag, "brute", r=r)
                assert np.array_equal(closed.values, brute.values)
                assert np.max(np.abs(closed.values - brute.values)) <= 1e-13
                assert closed.sum_sq == energy(r)
        assert local_coherence("had_dhw_1d", r=3).sum_sq == 4.0
        assert local_coherence("had2_idhw", r=3).sum_sq == 10.0
        assert local_coherence("had2_adhw", r=3).sum_sq == 16.0
        assert time.perf_counter() - start < 10.0


def test_criterion_02_block_structure():
    with _criterion(2, "block structure"):
        start = time.perf_counter()
        for tag, r_range in (("had_dhw_1d", range(1, 9)),
                             ("had2_idhw", TWO_D_RANGE),
                             ("had2_adhw", TWO_D_RANGE)):
            for r in r_range:
                report = structure_check(tag, r=r)
                assert report.max_off_diagonal <= 1e-12
                assert report.max_diagonal_deviation <= 1e-12
        assert time.perf_counter() - start < 30.0


def test_criterion_03_multilevel_coherence():
    with _criterion(3, "multilevel coherence"):
        for tag, r_range in (("had_dhw_1d", ONE_D_RANGE),
                             ("had2_idhw", TWO_D_RANGE),
                             ("had2_adhw", TWO_D_RANGE)):
            for r in r_range:
                closed = multilevel_coherence(tag, "closed", r=r).values
                brute = multilevel_coherence(tag, "brute", r=r).values
                assert np.array_equal(closed, brute)
                off = ~np.eye(closed.shape[0], dtype=bool)
                assert np.all(closed[off] == 0.0)
                assert np.all(brute[off] == 0.0)


def test_criterion_04_transform_correctness():
    with _criterion(4, "transform correctness"):
        rng = rng_stream(42, 4)
        # 1-D at N = 1024
        h = dense_basis("hadamard1d", 10)
        w = dense_basis("dhw", 10)
        x = rng.standard_normal(1024)
        assert np.max(np.abs(h.T @ h - np.eye(1024))) <= 1e-10
        assert np.max(np.abs(w.T @ w - np.eye(1024))) <= 1e-10
        assert np.max(np.abs(fwht(x) - h.T @ x)) <= 1e-10
        assert np.max(np.abs(fwht(fwht(x)) - x)) <= 1e-10
        coef = haar_transform("dhw", "analysis", x)
        assert np.max(np.abs(coef - w.T @ x)) <= 1e-10
        assert np.max(np.abs(haar_transform("dhw", "synthesis", coef) - x)) <= 1e-10
        # 2-D at 64 x 64
        img = rng.standard_normal((64, 64))
        for tag in ("hadamard2d", "idhw", "adhw"):
            dense = dense_basis(tag, 6)
            assert np.max(np.abs(dense.T @ dense - np.eye(4096))) <= 1e-10
            if tag == "hadamard2d":
                fast = vec(fwht(img))
                back = fwht(fwht(img))
            else:
                fast = vec(haar_transform(tag, "analysis", img))
                back = haar_transform(tag, "synthesis",
                                      haar_transform(tag, "analysis", img))
            assert np.max(np.abs(fast - dense.T @ vec(img))) <= 1e-10
            assert np.max(np.abs(back - img)) <= 1e-10
        # column identities, bit for bit
        for r in range(1, 9):
            n = 2 ** r
            w1 = dense_basis("dhw", r)
            w0 = dense_window_matrix(r)
            const = np.full(n, _pow2_half(-r))
            assert np.array_equal(w1[:, 0], const)
            assert np.array_equal(w0[:, 0], const)
            for l in range(1, r + 1):
                width = 2 ** (r - l + 1)
                scale = _pow2_half(l - 1 - r)
                for p in range(1, 2 ** (l - 1) + 1):
                    expect = np.zeros(n)
                    lo = (p - 1) * width
                    expect[lo:lo + width // 2] = scale
                    expect[lo + width // 2:lo + width] = -scale
                    assert np.array_equal(w1[:, 2 ** (l - 1) + p - 1], expect)
                    expect[lo + width // 2:lo + width] = scale
                    assert np.array_equal(w0[:, 2 ** (l - 1) + p - 1], expect)
        for r in (3, 6, 8):
            hd = dense_basis("hadamard1d", r)
            for k in range(2 ** r):
                e = np.zeros(2 ** r)
                e[k] = 1.0
                assert np.array_equal(fwht(e), hd[:, k])


def test_criterion_05_exact_sparse_recovery():
    with _criterion(5, "exact sparse recovery"):
        start = time.perf_counter()
        system = SystemKind("had_dhw_1d", 8)
        plan = vds_pmf(system)
        n, k, m = 256, 8, 128
        hits, worst = 0, 0.0
        for seed in range(50):
            sig_rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
            coef = np.zeros(n)
            support = sig_rng.choice(n, size=k, replace=False)
            coef[support] = sig_rng.choice([-1.0, 1.0], size=k)
            x = haar_transform(system.sparsity_basis, "synthesis", coef)
            sample = draw_sample(plan, m,
                                 np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(1,)),
                                 replace=False)
            y = measure(system, sample, x)
            report = solve_bpdn(RecoveryProblem(system, sample, y))
            rel = float(np.linalg.norm(report.x_hat - x) / np.linalg.norm(x))
            worst = max(worst, rel)
            hits += rel <= 1e-4
        assert hits >= 48, f"only {hits}/50 exact (worst rel {worst:.2e})"
        assert time.perf_counter() - start < 120.0


def test_criterion_06_strategy_ordering():
    with _criterion(6, "sampling strategy ordering"):
        start = time.perf_counter()
        sre = {}
        for strategy in ("uds", "vds", "mds"):
            config = ExperimentConfig(
                system="had_dhw_1d", r=9, strategy=strategy, ratios=(0.2,),
                snr_db=20.0, trials=20, seed=11,
                signal=SignalSpec("gaussian_bump", sigma=64.0, center="random"))
            report = run_experiment(config)
            _, m, trials, cs_mean, _ = report.ratio_summary()[0]
            assert m == 102 and trials == 20
            sre[strategy] = 20.0 * math.log10(cs_mean)
        assert sre["vds"] >= sre["uds"] + 5.0, sre
        assert sre["mds"] >= sre["vds"] + 2.0, sre
        assert time.perf_counter() - start < 600.0


def test_criterion_07_me_full_sampling():
    with _criterion(7, "minimal-energy full sampling"):
        system = SystemKind("had_dhw_1d", 9)
        part = system.partition()
        plan = mds_allocate(part.sizes, 512, part)
        sample = draw_sample(plan, 512, 7)
        x = gaussian_bump(512, 64.0, 200.0)
        y = measure(system, sample, x)
        x_me = me_reconstruct(system, sample, y)
        rel = float(np.linalg.norm(x_me - x) / np.linalg.norm(x))
        noiseless_sre = math.inf if rel == 0.0 else -20.0 * math.log10(rel)
        assert noiseless_sre >= 240.0
        hats = [me_reconstruct(system, sample,
                               y + make_noise(NoiseSpec(20.0), x, 512,
                                              rng=rng_stream(7, 2, 0, t)).vector)
                for t in range(10)]
        aggregate, _, _ = sre_db(x, hats)
        assert abs(aggregate - 20.0) <= 1.0, aggregate


def test_criterion_08_pmf_validity():
    with _criterion(8, "sampling pmf validity"):
        for tag, r_range in (("had_dhw_1d", range(1, 13)),
                             ("had2_idhw", range(1, 7)),
                             ("had2_adhw", range(1, 7))):
            for r in r_range:
                pmf = vds_pmf(tag, r=r).pmf
                assert abs(float(pmf.sum()) - 1.0) <= 1e-12
                assert np.all(pmf > 0)
        assert np.array_equal(vds_pmf("had_dhw_1d", r=3).pmf,
                              [0.25, 0.25, 0.125, 0.125,
                               0.0625, 0.0625, 0.0625, 0.0625])


def test_criterion_09_solver_oracle_equivalence():
    with _criterion(9, "solver matches the linear-program oracle"):
        def lp_objective(system, sample, y):
            n = system.n_total
            omega, idx = np.unique(sample.omega, return_index=True)
            rows = []
            for w in omega:
                e = np.zeros(n)
                e[w - 1] = 1.0
                rows.append(haar_transform(system.sparsity_basis, "analysis",
                                           fwht(e)))
            a = np.asarray(rows)
            res = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=y[idx],
                          bounds=(0, None), method="highs")
            assert res.status == 0
            return float(res.fun)

        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
        worst = 0.0
        for i in range(25):
            r = int(rng.integers(2, 5))
            system = SystemKind("had_dhw_1d", r)
            n = system.n_total
            plan = uds_pmf(system) if i % 2 == 0 else vds_pmf(system)
            m = int(rng.integers(max(1, n // 2), n + 1))
            sample = draw_sample(plan, m, int(rng.integers(0, 2 ** 31)))
            x = rng.standard_normal(n)
            y = measure(system, sample, x)
            report = solve_bpdn(RecoveryProblem(system, sample, y))
            gap = abs(report.objective - lp_objective(system, sample, y))
            worst = max(worst, gap / max(1.0, abs(report.objective)))
        assert worst <= 1e-6, worst


def test_criterion_10_deterministic_outputs(tmp_path):
    with _criterion(10, "deterministic experiment outputs"):
        config = ExperimentConfig(
            system="had_dhw_1d", r=6, strategy="vds", ratios=(0.25, 0.5),
            snr_db=20.0, trials=4, seed=12,
            signal=SignalSpec("gaussian_bump", sigma=6.0, center="random"))
        outputs = []
        for run in range(4):
            out = tmp_path / f"run{run}"
            out.mkdir()
            report = run_experiment(config)
            write_trials_csv(out / "trials.csv", report)
            write_summary_csv(out / "summary.csv", report)
            write_config_echo(out / "config_echo.json", report)
            outputs.append({name: (out / name).read_bytes()
                            for name in ("trials.csv", "summary.csv",
                                         "config_echo.json")})
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]

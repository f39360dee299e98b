"""The benchmark's independent computations agree with the package, and
every check fails on a deliberately wrong output.

Run with ``python -m pytest perfbench`` from the root of the checkout.
"""
import math

import numpy as np
import pytest

import reference
from hadhaar import (NoiseSpec, RecoveryProblem, SystemKind, dense_basis,
                     draw_sample, effective_sparsity, fwht, haar_transform,
                     make_noise, mds_allocate, me_reconstruct, measure,
                     save_image_csv, shepp_logan, solve_bpdn, vds_pmf, vec)


@pytest.mark.parametrize("r", [3, 6, 9])
def test_paley_hadamard_equals_package_matrix(r):
    h = reference.paley_hadamard(2 ** r)
    assert np.array_equal(h, dense_basis("hadamard1d", r))


def test_spectrum_2d_is_fwht():
    img = np.random.default_rng(0).standard_normal((16, 16))
    h = reference.paley_hadamard(16)
    assert np.allclose(reference.spectrum_2d(h, img), vec(fwht(img)),
                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("side", [8, 64])
def test_haar_l1_equals_package_idhw(side):
    img = shepp_logan(side) + 0.01 * np.random.default_rng(side).standard_normal((side, side))
    expected = float(np.abs(haar_transform("idhw", "analysis", img)).sum())
    assert math.isclose(reference.haar_l1_2d(img), expected, rel_tol=1e-12)


@pytest.mark.parametrize("r", [1, 4])
def test_iso2d_level_equals_partition(r):
    levels = SystemKind("had2_idhw", r).partition().level_of_index()
    index = np.arange(1, 4 ** r + 1)
    assert np.array_equal(reference.iso2d_level(index, 2 ** r), levels)


@pytest.fixture(scope="module")
def camera():
    """A small camera problem (r = 4) solved by the package."""
    system = SystemKind("had2_idhw", 4)
    x = shepp_logan(16)
    coef = vec(haar_transform("idhw", "analysis", x))
    k = effective_sparsity(coef, 0.995, system.partition()).per_level
    m = 64
    out = {"x": x, "h": reference.paley_hadamard(16)}
    for strategy in ("mds", "vds"):
        plan = (mds_allocate(k, m, system.partition()) if strategy == "mds"
                else vds_pmf(system))
        sample = draw_sample(plan, m, 3)
        weighted = strategy == "vds"
        noise = make_noise(NoiseSpec(20.0), x, m,
                           weights=sample.weights if weighted else None,
                           rng=np.random.default_rng(4))
        y = measure(system, sample, x) + noise.vector
        eps = noise.weighted_norm if weighted else noise.norm
        report = solve_bpdn(RecoveryProblem(system, sample, y, eps))
        assert report.converged
        w = sample.weights / math.sqrt(m) if weighted else np.ones(m)
        out[strategy] = dict(sample=sample, y=y, eps=eps, w=w,
                             x_hat=report.x_hat,
                             me=me_reconstruct(system, sample, y))
    return out


def _bpdn_errors(camera, strategy, x_hat):
    c = camera[strategy]
    return reference.check_bpdn(
        reference.spectrum_2d(camera["h"], x_hat), c["sample"].omega, c["y"],
        c["w"], c["eps"], 1e-6, 1e-6, reference.haar_l1_2d(x_hat),
        reference.haar_l1_2d(camera["x"]))


@pytest.mark.parametrize("strategy", ["mds", "vds"])
def test_bpdn_check_passes_solver_output(camera, strategy):
    assert _bpdn_errors(camera, strategy, camera[strategy]["x_hat"]) == []


def _hadamard_pattern(index, size):
    spike = np.zeros(256)
    spike[index - 1] = size
    return fwht(spike.reshape(16, 16, order="F"))


def test_bpdn_check_fails_on_perturbed_solution(camera):
    # move one sampled coefficient by twice the noise radius
    c = camera["mds"]
    x_hat = c["x_hat"] + _hadamard_pattern(c["sample"].omega[0], 2 * c["eps"])
    assert any("residual" in e for e in _bpdn_errors(camera, "mds", x_hat))


def test_bpdn_check_fails_on_larger_l1_norm(camera):
    # add a Hadamard pattern at an unsampled index: same data, larger l1
    c = camera["mds"]
    free = np.setdiff1d(np.arange(1, 257), c["sample"].omega)[0]
    x_hat = c["x_hat"] + _hadamard_pattern(free, reference.haar_l1_2d(camera["x"]))
    errors = _bpdn_errors(camera, "mds", x_hat)
    assert errors and all("l1 objective" in e for e in errors)


@pytest.mark.parametrize("strategy", ["mds", "vds"])
def test_me_check_passes_and_fails_on_perturbation(camera, strategy):
    c = camera[strategy]
    spec = reference.spectrum_2d(camera["h"], c["me"])
    assert reference.check_me(spec, c["sample"].omega, c["y"]) == []
    wrong = c["me"].copy()
    wrong[0, 0] += 1e-6
    spec = reference.spectrum_2d(camera["h"], wrong)
    assert reference.check_me(spec, c["sample"].omega, c["y"])


def test_me_check_fails_on_corrupted_csv_value(camera, tmp_path):
    c = camera["vds"]
    path = tmp_path / "me.csv"
    save_image_csv(path, c["me"])
    lines = path.read_text().splitlines()
    row, col, value = lines[40].split(",")
    lines[40] = f"{row},{col},{float(value) * 1.001!r}"
    path.write_text("\n".join(lines) + "\n")
    me = reference.read_image_csv(path)
    spec = reference.spectrum_2d(camera["h"], me)
    assert reference.check_me(spec, c["sample"].omega, c["y"])


def test_image_csv_reader_marks_missing_cells(tmp_path):
    path = tmp_path / "img.csv"
    save_image_csv(path, np.ones((4, 4)))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert np.isnan(reference.read_image_csv(path)).any()


def test_sre_order_check():
    good = {"uds": 1.2, "vds": 13.8, "mds": 21.2}
    chain, margins = ("uds", "vds", "mds"), (5.0, 2.0)
    assert reference.check_sre_order(good, chain, margins) == []
    swapped = dict(good, vds=good["mds"], mds=good["vds"])
    assert reference.check_sre_order(swapped, chain, margins)
    close = dict(good, vds=good["uds"] + 4.9)
    assert reference.check_sre_order(close, chain, margins)


def test_sample_check():
    side, n = 8, 64
    system = SystemKind("had2_idhw", 3)
    k = np.array([1, 2, 3, 4])
    plan = mds_allocate(k, 20, system.partition())
    omega = draw_sample(plan, 20, 5).omega
    m_per_level = [int(v) for v in plan.m]
    assert reference.check_sample(omega, n, 20, m_per_level, side) == []
    assert reference.check_sample(omega[:-1], n, 20, m_per_level, side)
    repeated = omega.copy()
    repeated[1] = repeated[0]
    assert reference.check_sample(repeated, n, 20, m_per_level, side)
    outside = omega.copy()
    outside[0] = n + 1
    assert reference.check_sample(outside, n, 20, m_per_level, side)
    moved = omega.copy()
    moved[0] = 1 if omega[0] != 1 else 64           # swap to another level
    assert reference.check_sample(moved, n, 20, m_per_level, side)


def test_trials_and_summary_checks(tmp_path):
    rows = [{"trial": "1", "m": "102", "cs_converged": "1",
             "cs_error": "0.1", "x_norm": "1.0"}]
    assert reference.check_trials(rows, 102) == []
    assert reference.check_trials([dict(rows[0], m="101")], 102)
    assert reference.check_trials([dict(rows[0], cs_error="0")], 102)
    path = tmp_path / "summary.csv"
    path.write_text("ratio,m,trials,cs_sre_db,cs_exact,me_sre_db,me_exact\n"
                    "0.2,102,20,20.000000000000004,0,3.5,0\n")
    assert reference.check_summary(path, 20.0) == []
    path.write_text(path.read_text().replace("20.000000000000004", "20.001"))
    assert reference.check_summary(path, 20.0)

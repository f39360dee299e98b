import contextlib
import functools
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadhaar.cli import EXIT_CODES, _load_sample, main
from hadhaar.coherence import SYSTEM_TAGS, SystemKind, local_coherence
from hadhaar.experiment import (_ROLE_NOISE, _ROLE_PREGEN, _ROLE_SAMPLE,
                                _ROLE_SIGNAL, ExperimentConfig, MdsSpec,
                                SignalSpec, _build_trials, _make_signal,
                                _worst_case_k, config_from_json,
                                config_to_json, run_experiment,
                                write_summary_csv, write_trials_csv)
from hadhaar.recovery import SolverSpec
from hadhaar.sampling import (_seed_sequence, draw_sample, mds_allocate,
                              measure, rng_stream, uds_pmf, vds_pmf)
from hadhaar.signals import (NoiseSpec, effective_sparsity, gaussian_bump,
                             generate, load_signal_csv, make_noise,
                             save_image_csv, save_signal_csv)
from hadhaar.transforms import haar_transform


def _small_config(**overrides):
    base = dict(system="had_dhw_1d", r=5, strategy="vds", ratios=(0.5,),
                snr_db=math.inf, trials=3, seed=4,
                signal=SignalSpec("gaussian_bump", sigma=3.0, center="random"))
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_json_round_trip():
    config = _small_config(snr_db=20.0, ratios=(0.25, 0.5),
                           mds=MdsSpec("oracle_from_signal", 7),
                           solver=SolverSpec(1e-7, 1e-8, 5000),
                           output_dir="runs")
    assert config_from_json(config_to_json(config)) == config


def test_config_json_infinite_snr_is_null():
    text = config_to_json(_small_config())
    assert json.loads(text)["snr_db"] is None
    assert config_from_json(text).snr_db == math.inf


def test_config_json_defaults_and_float_fields():
    # integer snr_db and rho are echoed as floats; no snr_db is noiseless
    doc = json.loads(config_to_json(_small_config()))
    for key in ("rho", "mds", "solver", "output_dir", "schema_version"):
        del doc[key]
    assert config_from_json(json.dumps(dict(doc, snr_db=20, rho=1))) \
        == _small_config(snr_db=20.0, rho=1.0)
    del doc["snr_db"]
    config = config_from_json(json.dumps(dict(doc, rho=1)))
    assert config == _small_config(rho=1.0)
    echo = json.loads(config_to_json(config))
    assert echo["snr_db"] is None and isinstance(echo["rho"], float)


def test_config_unknown_keys_rejected():
    doc = json.loads(config_to_json(_small_config()))
    doc["extra"] = 1
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_json(json.dumps(doc))
    doc = json.loads(config_to_json(_small_config()))
    doc["signal"]["shape"] = "wide"
    with pytest.raises(ValueError, match="unknown signal keys"):
        config_from_json(json.dumps(doc))
    for section, key in (("mds", "budget"), ("solver", "tol")):
        doc = json.loads(config_to_json(_small_config()))
        doc[section][key] = 1e-3
        with pytest.raises(ValueError, match=f"unknown {section} keys"):
            config_from_json(json.dumps(doc))
    doc = json.loads(config_to_json(_small_config()))
    del doc["trials"]
    with pytest.raises(ValueError, match="required"):
        config_from_json(json.dumps(doc))


@pytest.mark.parametrize("section,key,value,expect", [
    ("mds", "pregenerated", "x", "'mds.pregenerated' must be an integer"),
    ("solver", "max_iterations", "x", "'solver.max_iterations' must be an integer"),
    ("signal", "sigma", "2", "'signal.sigma' must be a number or null"),
    (None, "r", 5.0, "'r' must be an integer"),
    (None, "trials", True, "'trials' must be an integer"),
    (None, "rho", None, "'rho' must be a number"),
    (None, "ratios", ["0.5"], "'ratios' must be a list of numbers"),
    (None, "rho", 1.5, r"rho must lie in \(0, 1\]"),
    (None, "snr_db", math.nan, "snr_db must be finite or infinite"),
    (None, "trials", 2 ** 62, r"trials times N must be at most 2\^28"),
    ("mds", "sparsity_source", "x", "sparsity_source must be one of"),
    ("mds", "pregenerated", 0, "pregenerated count must be at least 1"),
    ("signal", "kind", "x", "signal kind must be one of"),
    # the solver settings are checked while the config is parsed
    ("solver", "max_iterations", 0,
     "max_iterations must be an integer of at least 1, got 0"),
    ("solver", "tol_gap", math.nan, "tol_gap must be finite and positive, got nan"),
])
def test_config_value_types_rejected(tmp_path, capsys, section, key, value,
                                     expect):
    doc = json.loads(config_to_json(_small_config()))
    (doc if section is None else doc[section])[key] = value
    with pytest.raises(ValueError, match=expect):
        config_from_json(json.dumps(doc))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path)]) == EXIT_CODES["validation"]
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and err.count("\n") == 1


@pytest.mark.parametrize("snr_db", [6200.0, 1e308, -6000.0, -6300.0,
                                    -6460.0, -7000.0, -1e308])
def test_extreme_snr_rejected(tmp_path, capsys, snr_db):
    # 10^(snr_db / 20) overflows, or underflows to 0, in the noise level, or
    # the noise is too large for its norm to be finite
    doc = json.loads(config_to_json(_small_config(snr_db=snr_db)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path), "--out",
                 str(tmp_path / "run")]) == EXIT_CODES["validation"]
    err = capsys.readouterr().err
    assert err == f"error:validation: snr_db {snr_db:g} is out of range\n"
    assert not (tmp_path / "run").exists()


def test_trials_times_n_is_capped():
    # a ratio's trials are solved as one (trials, N) batch, so trials x N
    # has the cap that N has; building the config runs nothing
    assert _small_config(trials=2 ** 23).trials == 2 ** 23   # N = 32
    for trials in (2 ** 23 + 1, 2 ** 62):
        with pytest.raises(ValueError, match="^trials times N"):
            _small_config(trials=trials)


def test_pregenerated_times_n_is_capped(tmp_path, capsys):
    # mds makes ``pregenerated`` signals of N entries when the centre is
    # random, so pregenerated x N has the cap that N has; building the
    # config runs nothing (N = 32)
    doc = json.loads(config_to_json(_small_config(strategy="mds")))
    doc["mds"]["pregenerated"] = 2 ** 23
    assert config_from_json(json.dumps(doc)).mds.pregenerated == 2 ** 23
    for count in (2 ** 23 + 1, 2 ** 62):
        doc["mds"]["pregenerated"] = count
        with pytest.raises(ValueError, match=r"^mds.pregenerated times N "
                                             r"must be at most 2\^28"):
            config_from_json(json.dumps(doc))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path), "--out",
                 str(tmp_path / "run")]) == EXIT_CODES["validation"]
    assert capsys.readouterr().err == (
        f"error:validation: mds.pregenerated times N must be at most 2^28, "
        f"got {2 ** 62} x 32\n")
    # a fixed centre makes one signal, whatever the count
    doc["signal"]["center"] = 10.0
    assert config_from_json(json.dumps(doc)).mds.pregenerated == 2 ** 62


def test_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[]")
    assert main(["experiment", "--config", str(path)]) \
        == EXIT_CODES["validation"]
    assert capsys.readouterr().err == \
        "error:validation: config must be a JSON object\n"


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(schema_version=2)
    with pytest.raises(ValueError):
        _small_config(strategy="random")
    with pytest.raises(ValueError):
        _small_config(ratios=(1.5,))
    with pytest.raises(ValueError):
        _small_config(ratios=())
    with pytest.raises(ValueError):
        _small_config(trials=0)
    with pytest.raises(ValueError):
        _small_config(signal=SignalSpec("shepp_logan"))  # 2-D kind, 1-D system
    with pytest.raises(ValueError):
        _small_config(signal=SignalSpec("gaussian_bump", sigma=3.0))
    with pytest.raises(ValueError):
        _small_config(signal=SignalSpec("blocks", sigma=2.0))
    with pytest.raises(ValueError):
        _small_config(signal=SignalSpec("gaussian_bump", sigma=20.0,
                                        center="random"))
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite sigma"):
            SignalSpec("gaussian_bump", sigma=sigma, center=3.0)
    with pytest.raises(ValueError, match="random center needs sigma >= 1"):
        SignalSpec("gaussian_bump", sigma=0.5, center="random")


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def test_run_experiment_shape_and_summary():
    report = run_experiment(_small_config(ratios=(0.25, 0.5)))
    assert len(report.records) == 6
    rows = report.ratio_summary()
    assert [row[0] for row in rows] == [0.25, 0.5]
    assert [row[1] for row in rows] == [8, 16]
    assert all(row[2] == 3 for row in rows)
    manual = np.mean([rec.x_norm / rec.cs_error for rec in report.records
                      if rec.ratio_index == 1])
    assert rows[1][3] == float(manual)


def test_experiment_mds_paths():
    for source in ("worst_case_pregenerated", "oracle_from_signal"):
        config = _small_config(strategy="mds", trials=2,
                               mds=MdsSpec(source, pregenerated=5))
        report = run_experiment(config)
        assert len(report.records) == 2
        assert all(rec.m == 16 for rec in report.records)


def _worst_case_k_one_at_a_time(config, system, partition):
    # the pregeneration one signal at a time, each centre one draw
    rng = rng_stream(config.seed, _ROLE_PREGEN)
    count = config.mds.pregenerated if config.signal.center == "random" else 1
    worst = np.zeros(partition.n_levels, dtype=np.int64)
    for _ in range(count):
        x = _make_signal(config.signal, system.side, rng.random())
        worst = np.maximum(worst, effective_sparsity(
            system.coefficients(x), config.rho, partition).per_level)
    return worst


@pytest.mark.parametrize("system,r,signal,count", [
    # 7 batches at N = 512, the last of 4 signals; one batch at N = 32
    ("had_dhw_1d", 9, SignalSpec("gaussian_bump", 64.0, "random"), 100),
    ("had_dhw_1d", 5, SignalSpec("gaussian_bump", 3.0, "random"), 37),
    ("had_dhw_1d", 4, SignalSpec("gaussian_bump", 2.0, 7.5), 5),
    ("had_dhw_1d", 6, SignalSpec("doppler"), 5),
    ("had2_idhw", 4, SignalSpec("shepp_logan"), 5),
])
def test_worst_case_k_matches_one_signal_at_a_time(system, r, signal, count):
    config = _small_config(system=system, r=r, strategy="mds", signal=signal,
                           mds=MdsSpec(pregenerated=count))
    kind = SystemKind(system, r)
    partition = kind.partition()
    assert np.array_equal(_worst_case_k(config, kind, partition),
                          _worst_case_k_one_at_a_time(config, kind,
                                                      partition))


def test_random_bump_batches_are_the_single_draws():
    spec = SignalSpec("gaussian_bump", 64.0, "random")
    one, batched = rng_stream(9, _ROLE_PREGEN), rng_stream(9, _ROLE_PREGEN)
    alone = [_make_signal(spec, 512, one.random()) for _ in range(8)]
    batch = np.vstack([_make_signal(spec, 512, batched.random(count))
                       for count in (3, 5)])
    assert batch.tobytes() == np.stack(alone).tobytes()


def _cell_alone(config, system, partition, plan, ri, m_total, ti):
    # one (ratio, trial) cell built on its own, one call per step
    x = _make_signal(config.signal, system.side,
                     rng_stream(config.seed, _ROLE_SIGNAL, ri, ti).random())
    if plan is None:
        k = effective_sparsity(system.coefficients(x), config.rho,
                               partition).per_level
        plan = mds_allocate(k, m_total, partition)
    sample = draw_sample(plan, m_total,
                         _seed_sequence(config.seed, _ROLE_SAMPLE, ri, ti))
    noise = make_noise(NoiseSpec(config.snr_db), x, m_total,
                       weights=sample.weights if sample.weighted else None,
                       rng=rng_stream(config.seed, _ROLE_NOISE, ri, ti))
    epsilon = noise.weighted_norm if sample.weighted else noise.norm
    return (x, sample, measure(system, sample, x) + noise.vector, epsilon,
            noise.sigma)


@pytest.mark.parametrize("overrides", [
    {},
    {"strategy": "uds", "signal": SignalSpec("gaussian_bump", 3.0, 10.5)},
    {"system": "had2_idhw", "r": 3, "signal": SignalSpec("shepp_logan")},
    {"strategy": "mds", "mds": MdsSpec("oracle_from_signal")},
])
def test_batched_cells_are_the_cells_built_alone(overrides):
    # a random-centre bump, a fixed-centre bump, a 2-D phantom and mds
    # plans sized from each trial's own signal
    config = _small_config(**{"snr_db": 20.0, "trials": 4,
                              "ratios": (0.25, 0.5), **overrides})
    system = SystemKind(config.system, config.r)
    partition = system.partition()
    plan = (None if config.strategy == "mds" else
            (uds_pmf if config.strategy == "uds" else vds_pmf)(system))
    for ri, ratio in enumerate(config.ratios):
        m_total = round(ratio * system.n_total)
        x, problems, sigmas = _build_trials(config, system, partition, plan,
                                            ri, m_total)
        assert len(x) == len(problems) == len(sigmas) == config.trials
        for ti, (problem, sigma) in enumerate(zip(problems, sigmas)):
            want = _cell_alone(config, system, partition, plan, ri, m_total,
                               ti)
            got = (x[ti], problem.sample, problem.y, problem.epsilon, sigma)
            assert got[0].shape == want[0].shape
            assert got[0].tobytes() == want[0].tobytes()
            assert (got[1].omega.tobytes(), got[1].weights.tobytes(),
                    got[1].seed) == (want[1].omega.tobytes(),
                                     want[1].weights.tobytes(), want[1].seed)
            assert got[2].tobytes() == want[2].tobytes()
            assert got[3:] == want[3:]


def test_trials_csv_format(tmp_path):
    report = run_experiment(_small_config(trials=2))
    path = tmp_path / "trials.csv"
    write_trials_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == ("ratio,trial,m,sample_seed,x_norm,cs_error,cs_sre_db,"
                        "cs_exact,cs_objective,cs_iterations,cs_converged,"
                        "me_error,me_sre_db,me_exact,epsilon,noise_sigma")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == 16  # the seed field must stay comma-free
    assert first[0] == "0.5" and first[1] == "1" and first[2] == "16"
    assert first[7] in ("0", "1") and first[10] in ("0", "1")


def test_summary_csv_caps_exact_trials(tmp_path):
    # noiseless full sampling: minimal-energy is exact, so the dB is capped
    config = _small_config(ratios=(1.0,), strategy="uds", trials=1)
    report = run_experiment(config)
    path = tmp_path / "summary.csv"
    write_summary_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "ratio,m,trials,cs_sre_db,cs_exact,me_sre_db,me_exact"
    row = lines[1].split(",")
    assert row[:3] == ["1", "32", "1"]
    if row[6] == "1":
        assert row[5] == "300"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_cmd_signal_and_transform_round_trip(tmp_path, capsys):
    sig_dir = tmp_path / "sig"
    assert main(["signal", "--kind", "doppler", "--size", "64",
                 "--out", str(sig_dir)]) == 0
    x = load_signal_csv(sig_dir / "signal.csv")
    assert np.array_equal(x, generate("doppler", 64))

    ana_dir = tmp_path / "ana"
    assert main(["transform", "--basis", "dhw", "--input",
                 str(sig_dir / "signal.csv"), "--out", str(ana_dir)]) == 0
    coeffs = load_signal_csv(ana_dir / "transform.csv")
    assert np.array_equal(coeffs, haar_transform("dhw", "analysis", x))

    syn_dir = tmp_path / "syn"
    assert main(["transform", "--basis", "dhw", "--direction", "synthesis",
                 "--input", str(ana_dir / "transform.csv"),
                 "--out", str(syn_dir)]) == 0
    back = load_signal_csv(syn_dir / "transform.csv")
    np.testing.assert_allclose(back, x, atol=1e-12)
    assert "wrote" in capsys.readouterr().out


def test_cmd_signal_phantom_writes_pgm(tmp_path):
    out = tmp_path / "ph"
    assert main(["signal", "--kind", "shepp_logan", "--size", "16",
                 "--out", str(out)]) == 0
    assert (out / "signal.pgm").read_bytes().startswith(b"P5\n16 16\n255\n")
    img = load_signal_csv(out / "signal.csv")
    assert img.shape == (16, 16)


def test_cmd_signal_random_center_is_the_first_draw(tmp_path):
    # the centre is sigma + (N - 2 sigma) u for the first draw u of the
    # seed's signal stream
    out = tmp_path / "bump"
    assert main(["signal", "--kind", "gaussian_bump", "--size", "64",
                 "--sigma", "4", "--center", "random", "--seed", "13",
                 "--out", str(out)]) == 0
    u = rng_stream(13, _ROLE_SIGNAL).random()
    save_signal_csv(tmp_path / "want.csv",
                    gaussian_bump(64, 4.0, 4.0 + 56.0 * u))
    assert ((out / "signal.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def test_cmd_coherence(tmp_path, capsys):
    out = tmp_path / "coh"
    assert main(["coherence", "--system", "had_dhw_1d", "--r", "3",
                 "--multilevel", "--out", str(out)]) == 0
    values = load_signal_csv(out / "local_coherence.csv")
    assert np.array_equal(values, local_coherence("had_dhw_1d", r=3).values)
    grid_lines = (out / "multilevel_coherence.csv").read_text().splitlines()
    assert grid_lines[0] == "sampling_level,sparsity_level,value"
    assert len(grid_lines) == 1 + 16
    assert "sum_sq=4 global=1" in capsys.readouterr().out


def test_cmd_structure_check(tmp_path, capsys):
    out = tmp_path / "sc"
    assert main(["structure-check", "--system", "had2_idhw", "--r", "2",
                 "--out", str(out)]) == 0
    assert (out / "structure_check.csv").exists()
    assert "max_off_diagonal=0 max_diagonal_deviation=0" in capsys.readouterr().out


@pytest.mark.parametrize("argv,name,table", [
    (["coherence", "--system", "had_dhw_1d", "--r", "3", "--multilevel"],
     "multilevel_coherence.csv",
     "sampling_level,sparsity_level,value\n"
     "1,1,1\n1,2,0\n1,3,0\n1,4,0\n"
     "2,1,0\n2,2,1\n2,3,0\n2,4,0\n"
     "3,1,0\n3,2,0\n3,3,0.5\n3,4,0\n"
     "4,1,0\n4,2,0\n4,3,0\n4,4,0.25\n"),
    # off_diagonal is blank on the diagonal, diagonal_deviation off it
    (["structure-check", "--system", "had2_idhw", "--r", "2"],
     "structure_check.csv",
     "sampling_level,sparsity_level,off_diagonal,diagonal_deviation\n"
     "1,1,,0\n1,2,0,\n1,3,0,\n"
     "2,1,0,\n2,2,,0\n2,3,0,\n"
     "3,1,0,\n3,2,0,\n3,3,,0\n"),
], ids=["multilevel_coherence", "structure_check"])
def test_level_tables_bytes(tmp_path, argv, name, table):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / name).read_bytes() == table.encode("ascii")


# runs hadhaar's CLI with its address space capped at 1.5 GiB
_UNDER_AS_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
from hadhaar.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_under_as_limit(argv):
    """The finished child process that ran ``hadhaar argv`` from this
    checkout under ``_UNDER_AS_LIMIT``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", _UNDER_AS_LIMIT, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("system,r,basis,dim,cap", [
    # level order alone took 1 GiB at 1-D r = 28 and 512 MiB at 2-D r = 14
    ("had_dhw_1d", "28", "hadamard1d", "1-D", 10),
    ("had2_idhw", "14", "hadamard2d", "2-D", 6),
])
def test_structure_check_names_the_dense_cap_under_a_memory_limit(
        tmp_path, system, r, basis, dim, cap):
    done = _run_under_as_limit(["structure-check", "--system", system,
                                "--r", r, "--out", str(tmp_path / "sc")])
    assert done.returncode == EXIT_CODES["validation"]
    assert done.stderr == (f"error:validation: dense {basis} matrices are "
                           f"capped at r <= {cap} ({dim}); requested "
                           f"r = {r}\n")
    assert not (tmp_path / "sc").exists()


@pytest.mark.parametrize("argv", [
    # the failed allocations were 512 MiB, 256 MiB, 2 GiB and 384 MiB
    ["coherence", "--system", "had2_idhw", "--r", "14", "--multilevel"],
    ["coherence", "--system", "had2_adhw", "--r", "14"],
    ["sample", "--strategy", "uds", "--system", "had2_idhw", "--r", "14",
     "--M", "12", "--seed", "1"],
    ["sample", "--strategy", "vds", "--system", "had2_idhw", "--r", "13",
     "--M", "12", "--seed", "1"],
], ids=["coherence-multilevel", "coherence-adhw", "sample-uds", "sample-vds"])
def test_allowed_size_out_of_memory_is_one_memory_line(tmp_path, argv):
    done = _run_under_as_limit(argv + ["--out", str(tmp_path / "run")])
    assert done.returncode == EXIT_CODES["memory"] == 2
    assert done.stderr.startswith("error:memory: Unable to allocate ")
    assert done.stderr.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_cmd_sample_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["sample", "--strategy", "vds", "--system", "had_dhw_1d",
            "--r", "4", "--M", "8", "--seed", "3"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert (out_a / "sample.csv").read_bytes() == (out_b / "sample.csv").read_bytes()
    meta = json.loads((out_a / "sample_meta.json").read_text())
    assert meta["strategy"] == "vds" and meta["m_total"] == 8
    assert meta["rng_algorithm"] == "philox4x64/seedseq"


def test_cmd_sample_mds_requires_k(tmp_path, capsys):
    code = main(["sample", "--strategy", "mds", "--system", "had_dhw_1d",
                 "--r", "3", "--M", "4", "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_CODES["validation"]
    assert capsys.readouterr().err.startswith("error:validation:")


def test_cmd_sample_k_overflow_is_validation(tmp_path, capsys):
    code = main(["sample", "--strategy", "mds", "--system", "had_dhw_1d",
                 "--r", "3", "--M", "4", "--seed", "1",
                 "--k", "1,1,2,99999999999999999999", "--out", str(tmp_path)])
    assert code == EXIT_CODES["validation"]
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and err.count("\n") == 1
    assert "per-level sparsities" in err


@pytest.mark.parametrize("k,expect", [
    ("1,x", "--k must be a comma-separated integer list"),
    ("1,1,2", "--k must list 4 per-level counts"),
])
def test_cmd_sample_rejects_bad_k(tmp_path, capsys, k, expect):
    out = tmp_path / "smp"
    assert main(["sample", "--strategy", "mds", "--system", "had_dhw_1d",
                 "--r", "3", "--M", "4", "--seed", "1", "--k", k,
                 "--out", str(out)]) == EXIT_CODES["validation"]
    assert capsys.readouterr().err == f"error:validation: {expect}\n"
    assert not out.exists()


@pytest.mark.parametrize("strategy,r,m_total", [("vds", 13, 4097),
                                                ("uds", 13, 8192),
                                                ("mds", 4, 7)])
def test_cmd_sample_csv_matches_per_element_format(tmp_path, strategy, r,
                                                   m_total):
    system = SystemKind("had_dhw_1d", r)
    k = [1] * system.partition().n_levels
    plan = (mds_allocate(k, m_total, system.partition()) if strategy == "mds"
            else {"uds": uds_pmf, "vds": vds_pmf}[strategy](system))
    sample = draw_sample(plan, m_total, 5)
    assert main(["sample", "--strategy", strategy, "--system", "had_dhw_1d",
                 "--r", str(r), "--M", str(m_total), "--seed", "5",
                 "--out", str(tmp_path)]
                + (["--k", ",".join(map(str, k))] if strategy == "mds"
                   else [])) == 0
    want = "position,index,weight\n" + "".join(
        f"{p},{o},{format(float(w), '.17g')}\n"
        for p, (o, w) in enumerate(zip(sample.omega, sample.weights), start=1))
    assert (tmp_path / "sample.csv").read_bytes() == want.encode("ascii")


@pytest.mark.parametrize("argv", [
    ["coherence", "--system", "had2_idhw", "--r", "99999999999999"],
    ["coherence", "--system", "had_dhw_1d", "--r", "33"],
    ["coherence", "--system", "had_dhw_1d", "--r", "29"],
    ["transform", "--basis", "dhw", "--r", "99999999999999999999"],
    ["transform", "--basis", "idhw", "--r", "17"],
    ["transform", "--basis", "idhw", "--r", "15"],
], ids=["coherence-huge", "coherence-1d-33", "coherence-1d-29",
        "transform-huge", "transform-2d-17", "transform-2d-15"])
def test_cli_rejects_r_past_the_size_cap(tmp_path, capsys, argv):
    save_signal_csv(tmp_path / "x.csv", np.ones(4))
    if argv[0] == "transform":
        argv = argv + ["--input", str(tmp_path / "x.csv")]
    assert main(argv + ["--out", str(tmp_path / "out")]) \
        == EXIT_CODES["validation"]
    err = capsys.readouterr().err
    assert err.startswith("error:validation: r must be at most")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body", ["index,value\n# note\n1,2\n",
                                  'index,value\n"1",2\n',
                                  "index,value\n1_0,2\n"],
                         ids=["comment", "quoted", "underscore"])
def test_cmd_transform_rejects_cells_outside_the_grammar(tmp_path, capsys,
                                                         body):
    path = tmp_path / "x.csv"
    path.write_text(body)
    assert main(["transform", "--basis", "dhw", "--input", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CODES["validation"]
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and err.count("\n") == 1
    assert "is not index,value" in err


@pytest.mark.parametrize("body,where", [
    (b"index,value\n1,0.5\n\n2,0.\xe95\n", "data row 2 holds"),
    (b"index,value\n1,0.5\n" + b"2,1\n" * 3000 + b"\xe9\n",
     "data row 3002 holds"),
    (b"ind\xe9x,value\n1,0.5\n", "the header holds")],
    ids=["row", "past-the-first-block", "header"])
def test_cmd_transform_names_a_non_ascii_byte(tmp_path, capsys, body, where):
    path = tmp_path / "x.csv"
    path.write_bytes(body)
    assert main(["transform", "--basis", "dhw", "--input", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CODES["validation"]
    assert capsys.readouterr().err == (f"error:validation: {path}: {where} "
                                       f"the non-ASCII byte 0xe9\n")
    assert not (tmp_path / "out").exists()


def test_cmd_transform_position_check_ignores_the_largest_index(tmp_path,
                                                                 capsys):
    # a check sized by the largest index took 3.8 GiB and 4.5 s on this file
    path = tmp_path / "x.csv"
    path.write_text("row,col,value\n1,1,0\n1,400000000,1\n")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert main(["transform", "--basis", "idhw", "--input", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CODES["validation"]
    rise_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    assert rise_kib < 8 * 1024
    assert capsys.readouterr().err == \
        f"error:validation: {path}: missing row 1, col 2\n"
    # 2^32 x 2^32 positions overflow int64
    path.write_text("row,col,value\n1,1,0\n4294967296,4294967296,1\n")
    assert main(["transform", "--basis", "idhw", "--input", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CODES["validation"]
    assert capsys.readouterr().err == (f"error:validation: {path}: "
                                       f"4294967296 x 4294967296 positions "
                                       f"overflow int64\n")
    assert not (tmp_path / "out").exists()


def test_cmd_recover_end_to_end(tmp_path):
    out = tmp_path / "rec"
    sample_dir = tmp_path / "smp"
    assert main(["sample", "--strategy", "mds", "--system", "had_dhw_1d",
                 "--r", "3", "--M", "8", "--seed", "2",
                 "--k", "1,1,2,4", "--out", str(sample_dir)]) == 0
    system = SystemKind("had_dhw_1d", 3)
    x = generate("blocks", 8)
    rows = [r.split(",") for r in
            (sample_dir / "sample.csv").read_text().splitlines()[1:]]
    omega = np.array([int(r[1]) for r in rows], dtype=np.int64)
    from hadhaar.sampling import SampleSet
    y = measure(system, SampleSet(omega, np.ones(8), "mds", "0"), x)
    save_signal_csv(tmp_path / "y.csv", y)
    assert main(["recover", "--system", "had_dhw_1d", "--r", "3",
                 "--sample", str(sample_dir / "sample.csv"),
                 "--measurements", str(tmp_path / "y.csv"),
                 "--me", "--out", str(out)]) == 0
    x_hat = load_signal_csv(out / "recovered.csv")
    np.testing.assert_allclose(x_hat, x, atol=1e-5)
    me_hat = load_signal_csv(out / "me.csv")
    np.testing.assert_allclose(me_hat, x, atol=1e-12)
    meta = json.loads((out / "recovery_meta.json").read_text())
    assert meta["converged"] is True
    assert meta["stop_reason"] == "converged"
    assert meta["relative_gap"] <= 1e-6
    # a noiseless solve never restarts, so it reports its first step
    assert meta["restarts"] == 0 and meta["step"] > 0.0


def test_cmd_recover_rejects_sample_from_another_system(tmp_path, capsys):
    sample_dir = tmp_path / "smp"
    assert main(["sample", "--strategy", "uds", "--system", "had_dhw_1d",
                 "--r", "6", "--M", "20", "--seed", "3",
                 "--out", str(sample_dir)]) == 0
    save_signal_csv(tmp_path / "y.csv", np.ones(20))
    base = ["recover", "--sample", str(sample_dir / "sample.csv"),
            "--measurements", str(tmp_path / "y.csv"), "--out", str(tmp_path)]
    for system, r, expect in (("had_dhw_1d", "4", "drawn for r = 6, not 4"),
                              ("had2_idhw", "6", "drawn for system")):
        assert main(base + ["--system", system, "--r", r]) \
            == EXIT_CODES["validation"]
        assert expect in capsys.readouterr().err
    # without the recorded system and r, the index range still catches it
    meta_path = sample_dir / "sample_meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["system"], meta["r"]
    meta_path.write_text(json.dumps(meta))
    assert main(base + ["--system", "had_dhw_1d", "--r", "4"]) \
        == EXIT_CODES["validation"]
    err = capsys.readouterr().err
    assert "outside [1, 16]" in err and err.count("\n") == 1


@st.composite
def _sample_case(draw):
    tag = draw(st.sampled_from(SYSTEM_TAGS))
    r = draw(st.integers(1, 7 if tag == "had_dhw_1d" else 3))
    system = SystemKind(tag, r)
    strategy = draw(st.sampled_from(("uds", "vds", "mds")))
    m_total = draw(st.integers(1, system.n_total))
    k = [draw(st.integers(1, int(size))) for size in system.partition().sizes]
    return system, strategy, m_total, k, draw(st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_sample_case())
def test_sample_files_round_trip_bit_exact(case):
    system, strategy, m_total, k, seed = case
    plan = {"uds": uds_pmf, "vds": vds_pmf}.get(strategy)
    plan = (plan(system) if plan else
            mds_allocate(k, m_total, system.partition()))
    want = draw_sample(plan, m_total, seed)
    with tempfile.TemporaryDirectory() as out:
        assert main(["sample", "--strategy", strategy, "--system", system.tag,
                     "--r", str(system.r), "--M", str(m_total),
                     "--seed", str(seed), "--out", out]
                    + (["--k", ",".join(map(str, k))] if strategy == "mds"
                       else [])) == 0
        got = _load_sample(os.path.join(out, "sample.csv"), system)
    assert got.omega.dtype == want.omega.dtype
    assert got.omega.tobytes() == want.omega.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    assert (got.strategy, got.seed) == (want.strategy, want.seed)


def test_load_sample_orders_rows_by_position(tmp_path):
    system = SystemKind("had_dhw_1d", 4)
    assert main(["sample", "--strategy", "vds", "--system", "had_dhw_1d",
                 "--r", "4", "--M", "8", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "sample.csv"
    want = _load_sample(str(path), system)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + rows[::-1]) + "\n")
    got = _load_sample(str(path), system)
    assert got.omega.tobytes() == want.omega.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


def _replace_weight(rows, weight):
    return rows[:1] + [rows[1].rsplit(",", 1)[0] + "," + weight] + rows[2:]


@pytest.mark.parametrize("edit,expect", [
    (lambda rows, meta: (rows[:1] + ["1,5"] + rows[2:], meta),
     "is not position,index,weight"),
    (lambda rows, meta: (rows, {k: v for k, v in meta.items()
                                if k != "strategy"}),
     "must hold a JSON object with strategy, seed and rng_algorithm"),
    (lambda rows, meta: (rows, [meta]), "must hold a JSON object"),
    (lambda rows, meta: (rows, dict(meta, strategy="xyz")),
     "strategy 'xyz' is not one of"),
    (lambda rows, meta: (_replace_weight(rows, "nan"), meta),
     "weight nan is not finite and positive"),
    (lambda rows, meta: (_replace_weight(rows, "-1"), meta),
     "weight -1.0 is not finite and positive"),
    (lambda rows, meta: (rows[:2] + ["1" + rows[2][1:]] + rows[3:], meta),
     "duplicate position 1"),
    (lambda rows, meta: (rows[:5] + rows[6:], meta),
     "position 8 outside [1, 7]"),
], ids=["short-row", "no-strategy", "meta-list", "unknown-strategy",
        "nan-weight", "negative-weight", "duplicate-position",
        "missing-position"])
def test_cmd_recover_rejects_malformed_sample(tmp_path, capsys, edit, expect):
    sample_dir = tmp_path / "smp"
    assert main(["sample", "--strategy", "vds", "--system", "had_dhw_1d",
                 "--r", "4", "--M", "8", "--seed", "3",
                 "--out", str(sample_dir)]) == 0
    csv_path = sample_dir / "sample.csv"
    meta_path = sample_dir / "sample_meta.json"
    rows, meta = edit(csv_path.read_text().splitlines(),
                      json.loads(meta_path.read_text()))
    csv_path.write_text("\n".join(rows) + "\n")
    meta_path.write_text(json.dumps(meta))
    save_signal_csv(tmp_path / "y.csv", np.ones(8))
    capsys.readouterr()
    assert main(["recover", "--system", "had_dhw_1d", "--r", "4",
                 "--sample", str(csv_path), "--measurements",
                 str(tmp_path / "y.csv"), "--out", str(tmp_path / "rec")]) \
        == EXIT_CODES["validation"]
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and err.count("\n") == 1
    assert expect in err
    assert not (tmp_path / "rec").exists()


@pytest.mark.parametrize("header", ["index,value", "infeasible,value"])
def test_error_category_follows_exception_type(tmp_path, capsys, header):
    # "infeasible" in a malformed file's name or header is still validation
    path = tmp_path / "infeasible.csv"
    path.write_text(header + "\n")
    assert main(["transform", "--basis", "dhw", "--input", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CODES["validation"]
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and "infeasible" in err


def test_cmd_experiment(tmp_path):
    config = _small_config(trials=2, output_dir=str(tmp_path / "run"))
    config_path = tmp_path / "config.json"
    config_path.write_text(config_to_json(config))
    assert main(["experiment", "--config", str(config_path)]) == 0
    run_dir = tmp_path / "run"
    for name in ("trials.csv", "summary.csv", "config_echo.json"):
        assert (run_dir / name).exists()
    echo = json.loads((run_dir / "config_echo.json").read_text())
    assert echo["config"]["seed"] == 4
    assert echo["rng_algorithm"] == "philox4x64/seedseq"


def test_cmd_experiment_rejects_zero_signal(tmp_path, capsys):
    # a bump far narrower than the grid, centred between two samples,
    # underflows to an all-zero signal
    config = _small_config(r=4, signal=SignalSpec("gaussian_bump", sigma=1e-3,
                                                  center=1.5),
                           output_dir=str(tmp_path / "run"))
    config_path = tmp_path / "config.json"
    config_path.write_text(config_to_json(config))
    assert main(["experiment", "--config", str(config_path)]) \
        == EXIT_CODES["validation"]
    assert "reference signal must be nonzero" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,seed", [
    (["experiment", "--seed", "-5"], -5), (["experiment"], -1),
    (["sample", "--strategy", "uds", "--system", "had_dhw_1d", "--r", "3",
      "--M", "4", "--seed", "-3"], -3),
    (["signal", "--kind", "blocks", "--size", "8", "--seed", "-1"], -1),
], ids=["experiment-flag", "experiment-config", "sample", "signal"])
def test_negative_seed_is_named(tmp_path, capsys, command, seed):
    config_path = tmp_path / "config.json"
    config_path.write_text(config_to_json(_small_config(seed=4)).replace(
        '"seed": 4', f'"seed": {seed}'))
    if command[0] == "experiment":
        command = command + ["--config", str(config_path)]
    assert main(command + ["--out", str(tmp_path / "out")]) \
        == EXIT_CODES["validation"]
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error:validation: seed must be a "
                                 f"non-negative integer, got {seed}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma,center,expect", [
    ("nan", "10", "finite sigma > 0"),
    ("inf", "10", "finite sigma > 0"),
    ("2", "nan", r"center must lie in \[1, 32\]"),
    ("2", "inf", r"center must lie in \[1, 32\]"),
    ("2", "1000", r"center must lie in \[1, 32\]"),
    ("2", "0.5", r"center must lie in \[1, 32\]"),
    ("0.5", "random", "random center needs sigma >= 1"),
    ("2", "abc", "center must be 'random' or a number, got 'abc'"),
    # 2 sigma^2 underflows to 0 (a nan at the centre) or overflows
    ("1e-200", "3", r"2 sigma\^2 and N\^2 / \(2 sigma\^2\) finite at N = 32"),
    ("1e300", "3", r"2 sigma\^2 and N\^2 / \(2 sigma\^2\) finite at N = 32"),
])
def test_cmd_signal_rejects_bad_bump(tmp_path, capsys, sigma, center, expect):
    out = tmp_path / "sig"
    assert main(["signal", "--kind", "gaussian_bump", "--size", "32",
                 "--sigma", sigma, "--center", center,
                 "--out", str(out)]) == EXIT_CODES["validation"]
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and err.count("\n") == 1
    assert re.search(expect, err)
    assert not out.exists()


@pytest.mark.parametrize("sigma,center,expect", [
    (math.nan, 3, "gaussian_bump requires a finite sigma > 0"),
    (2.0, 1000, "center must lie in [1, 16], got 1000.0"),
    (2.0, "abc", "center must be 'random' or a number, got 'abc'"),
    (1e-200, 3.0, "sigma must be finite and positive, with 2 sigma^2 and "
                  "N^2 / (2 sigma^2) finite at N = 16, got 1e-200"),
    # a valid bump whose norm alone leaves no room for 20 dB of noise
    (1e-150, 3.0, "signal norm 3.98942e+149 is too large for the noise "
                  "model (at most 2^320)"),
])
def test_experiment_rejects_bad_bump(tmp_path, capsys, sigma, center, expect):
    doc = json.loads(config_to_json(_small_config(r=4, snr_db=20.0)))
    doc["signal"] = {"kind": "gaussian_bump", "sigma": sigma,
                     "center": center}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path), "--out",
                 str(tmp_path / "run")]) == EXIT_CODES["validation"]
    assert capsys.readouterr().err == f"error:validation: {expect}\n"
    assert not (tmp_path / "run").exists()
    with pytest.raises(ValueError, match="finite sigma"):
        SignalSpec("gaussian_bump", sigma=math.inf, center=3.0)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_tolerances_rejected(tmp_path, capsys, value):
    sample_dir = tmp_path / "smp"
    assert main(["sample", "--strategy", "uds", "--system", "had_dhw_1d",
                 "--r", "4", "--M", "8", "--seed", "1",
                 "--out", str(sample_dir)]) == 0
    save_signal_csv(tmp_path / "y.csv", np.arange(1.0, 9.0))
    capsys.readouterr()
    for flag in ("--tol-gap", "--tol-feas"):
        out = tmp_path / "rec"
        assert main(["recover", "--system", "had_dhw_1d", "--r", "4",
                     "--sample", str(sample_dir / "sample.csv"),
                     "--measurements", str(tmp_path / "y.csv"),
                     flag, value, "--out", str(out)]) \
            == EXIT_CODES["validation"]
        err = capsys.readouterr().err
        assert err.startswith("error:validation:") and err.count("\n") == 1
        assert "must be finite and positive" in err
        assert not out.exists()
    doc = json.loads(config_to_json(_small_config(r=4)))
    doc["solver"]["tol_gap"] = float(value)      # NaN / Infinity in the JSON
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path), "--out",
                 str(tmp_path / "run")]) == EXIT_CODES["validation"]
    err = capsys.readouterr().err
    assert err == f"error:validation: tol_gap must be finite and positive, " \
                  f"got {float(value)}\n"
    assert not (tmp_path / "run").exists()


def test_cli_error_paths(tmp_path, capsys):
    assert main([]) == EXIT_CODES["usage"]
    assert "error:usage:" in capsys.readouterr().err
    assert main(["transform", "--basis", "dhw", "--input",
                 str(tmp_path / "missing.csv"), "--out", str(tmp_path)]) \
        == EXIT_CODES["io"]
    assert "error:io:" in capsys.readouterr().err
    assert main(["coherence", "--system", "had_dhw_1d", "--r", "0",
                 "--out", str(tmp_path)]) == EXIT_CODES["validation"]
    assert "error:validation:" in capsys.readouterr().err
    # a Hadamard input of the wrong shape for its basis and r
    save_signal_csv(tmp_path / "x16.csv", np.arange(16.0))
    save_image_csv(tmp_path / "img.csv", np.ones((4, 4)))
    for basis, r, path, expect in (
            ("hadamard2d", ["--r", "2"], "x16.csv",
             "hadamard2d expects a square array of side 2^r"),
            ("hadamard1d", ["--r", "3"], "x16.csv",
             "hadamard1d expects a vector of length 2^r"),
            ("hadamard1d", [], "img.csv",
             "hadamard1d expects a vector of length 2^r")):
        assert main(["transform", "--basis", basis, *r, "--input",
                     str(tmp_path / path), "--out", str(tmp_path / "out")]) \
            == EXIT_CODES["validation"]
        assert capsys.readouterr().err == f"error:validation: {expect}\n"
    assert not (tmp_path / "out").exists()
    # measurements whose weighted norm ||b|| is outside the solver's range:
    # too large for the projection's Newton step, or so small that their
    # squares underflow to 0
    assert main(["sample", "--strategy", "uds", "--system", "had_dhw_1d",
                 "--r", "4", "--M", "8", "--seed", "1",
                 "--out", str(tmp_path / "smp")]) == 0
    capsys.readouterr()
    for value, norm in ((1e155, "4e+155"), (1e-200, "4e-200")):
        save_signal_csv(tmp_path / "y.csv", np.full(8, value))
        assert main(["recover", "--system", "had_dhw_1d", "--r", "4",
                     "--sample", str(tmp_path / "smp" / "sample.csv"),
                     "--measurements", str(tmp_path / "y.csv"),
                     "--out", str(tmp_path / "out")]) \
            == EXIT_CODES["validation"]
        assert capsys.readouterr().err == (
            f"error:validation: ||b|| = {norm} is outside the solver's "
            f"range [2^-320, 2^320]\n")
    assert not (tmp_path / "out").exists()
    assert main(["--version"]) == 0


def test_batched_trial_row_matches_single_trial_run(tmp_path):
    # trial 1 is solved inside a batch of 20, then alone
    config = _small_config(r=7, ratios=(0.2,), snr_db=20.0, trials=20,
                           signal=SignalSpec("gaussian_bump", sigma=8.0,
                                             center="random"))
    rows = []
    for trials in (20, 1):
        path = tmp_path / f"trials{trials}.csv"
        write_trials_csv(path, run_experiment(
            ExperimentConfig(**dict(vars(config), trials=trials))))
        rows.append(path.read_text().splitlines())
    assert len(rows[0]) == 21 and len(rows[1]) == 2
    assert rows[0][:2] == rows[1]


def test_experiment_weighted_epsilon_matches_weights():
    report = run_experiment(_small_config(snr_db=30.0, trials=1))
    rec = report.records[0]
    assert rec.epsilon > 0.0 and rec.noise_sigma > 0.0
    assert rec.cs_error >= 0.0 and rec.me_error >= 0.0


# Config fuzzing: each example changes one key of a valid config (deletes
# it, gives it another type or pushes a number out of range) and runs it
# through the CLI, which must exit 0, 2, 3 or 4 with at most one line on
# stderr.  r stays at most 5 and trials at most 3 in every example that
# passes validation.
_FUZZ_BASE = {
    "system": "had_dhw_1d", "r": 5, "ratios": [0.25, 0.5], "snr_db": 20.0,
    "trials": 2, "seed": 3, "rho": 0.995, "output_dir": ".",
    "schema_version": 1,
    "signal": {"kind": "gaussian_bump", "sigma": 3.0, "center": "random"},
    "mds": {"sparsity_source": "worst_case_pregenerated", "pregenerated": 5},
    "solver": {"tol_feas": 1e-6, "tol_gap": 1e-6, "max_iterations": 2000}}
_OUT_OF_RANGE = {
    "r": [0, -1, 29, 2 ** 62], "trials": [0, -1, 2 ** 62],
    "ratios": [[0.0], [-0.5], [1.5], [], [1e308], [math.nan]],
    "snr_db": [7000.0, -7000.0, 1e308, -1e308, math.nan],
    "seed": [-1, -2 ** 62], "rho": [0.0, -0.5, 1.5, math.nan, math.inf],
    "schema_version": [0, 2], "signal.sigma": [0.0, -1.0, 0.5, 1e308,
                                               math.inf, math.nan],
    "signal.center": [0.0, -1.0, 33.0, 1e308, math.nan, math.inf],
    "mds.pregenerated": [0, -1, 2 ** 62],
    "solver.tol_feas": [0.0, -1.0, math.inf, math.nan],
    "solver.tol_gap": [0.0, -1.0, math.inf, math.nan],
    "solver.max_iterations": [0, -1, -2 ** 62]}
_OTHER_TYPES = [None, True, "x", [1], {"a": 1}, 1.5, 3]


@st.composite
def _mutated_config(draw):
    doc = json.loads(json.dumps(_FUZZ_BASE))
    doc["strategy"] = draw(st.sampled_from(["uds", "vds", "mds"]))
    keys = sorted(set(doc) | {f"{section}.{key}" for section in
                              ("signal", "mds", "solver")
                              for key in doc[section]})
    key = draw(st.sampled_from(keys))
    ops = ["delete", "type"] + (["range"] if key in _OUT_OF_RANGE else [])
    op = draw(st.sampled_from(ops))
    *section, name = key.split(".")
    target = doc[section[0]] if section else doc
    if op == "delete":
        del target[name]
    else:
        target[name] = draw(st.sampled_from(
            _OTHER_TYPES if op == "type" else _OUT_OF_RANGE[key]))
    return doc


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_mutated_config())
def test_mutated_configs_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["experiment", "--config", path, "--out",
                         os.path.join(tmp, "run")])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()


# Byte-mutated ``recover`` inputs: one of sample.csv, sample_meta.json and
# measurements.csv has bytes replaced, inserted or deleted, or is cut
# short, and the CLI must exit 0, 2, 3 or 4 with at most one line on
# stderr.  The systems stay at r <= 4 and the solver at 50 iterations.
_RECOVER_FILES = ("sample.csv", "sample_meta.json", "measurements.csv")
_RECOVER_BASES = (("had_dhw_1d", 4, "vds"), ("had2_idhw", 2, "mds"),
                  ("had2_adhw", 2, "uds"))
_FUZZ_BYTES = b"0123456789,.-+eE\n\r \"{}[]:nNaIf\x00\xe9"


@functools.cache
def _recover_base(tag, r, strategy):
    """The bytes of the three input files of a small ``recover`` run."""
    system = SystemKind(tag, r)
    m = system.n_total // 2
    k = ",".join(["1"] * system.partition().n_levels)
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sample", "--strategy", strategy, "--system", tag,
                         "--r", str(r), "--M", str(m), "--seed", "5",
                         "--k", k, "--out", tmp]) == 0
        sample = _load_sample(os.path.join(tmp, "sample.csv"), system)
        x = rng_stream(5, 0).standard_normal(system.n_total)
        save_signal_csv(os.path.join(tmp, "measurements.csv"),
                        measure(system, sample, x))
        files = []
        for name in _RECOVER_FILES:
            with open(os.path.join(tmp, name), "rb") as fh:
                files.append(fh.read())
    return files


@st.composite
def _mutated_recover_inputs(draw):
    base = draw(st.sampled_from(_RECOVER_BASES))
    files = list(_recover_base(*base))
    which = draw(st.integers(0, len(files) - 1))
    data = files[which]
    at = draw(st.integers(0, len(data)))
    chunk = bytes(draw(st.lists(st.sampled_from(_FUZZ_BYTES), min_size=1,
                                max_size=4)))
    op = draw(st.sampled_from(["replace", "insert", "delete", "cut"]))
    if op == "replace":
        data = data[:at] + chunk + data[at + len(chunk):]
    elif op == "insert":
        data = data[:at] + chunk + data[at:]
    elif op == "delete":
        data = data[:at] + data[at + draw(st.integers(1, 8)):]
    else:
        data = data[:at]
    files[which] = data
    return base, files, draw(st.booleans())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_mutated_recover_inputs())
def test_mutated_recover_inputs_exit_cleanly(case):
    (tag, r, _), files, me = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in zip(_RECOVER_FILES, files):
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["recover", "--system", tag, "--r", str(r),
                         "--sample", os.path.join(tmp, "sample.csv"),
                         "--measurements",
                         os.path.join(tmp, "measurements.csv"),
                         "--max-iterations", "50", "--out",
                         os.path.join(tmp, "rec")] + (["--me"] if me else []))
    assert code in (0, 2, 3, 4), err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()

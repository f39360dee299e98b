"""The benchmark's three workloads.

Each workload prepares its inputs from a seed, then runs rounds: round k
attempts the same fixed list of trials on inputs derived from the seed and
k, times only the calls into the package, and checks every output with
``reference``.  A trial counts as failed when the program reports a
failure (non-zero exit, ``converged`` false) or when a check fails; a
failed check is also a wrong output, which makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from hadhaar import cli, coherence, recovery, sampling, signals, transforms

import reference

SNR_DB = 20.0
RHO = 0.995
# the `hadhaar recover` defaults, which the camera workload leaves in place
TOL_FEAS = 1e-6
TOL_GAP = 1e-6


class SetupError(RuntimeError):
    """The program failed while the benchmark prepared its inputs."""


def call_cli(argv):
    """Run ``hadhaar`` in-process; returns (exit code, captured stderr).

    ``cli.main`` is looked up at call time so that a traced run sees the
    traced function.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().strip()


class CpuRotation:
    """Pins this process to one of its allowed CPUs, chosen by step number.

    On a 2-vCPU virtual machine one vCPU ran a fixed kernel 6-17% slower
    than the other (which one changed over time), and a process tends to
    stay on the vCPU it starts on.  Rotating over the CPUs at every timed
    step spreads each run evenly over them.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin(self, step):
        os.sched_setaffinity(0, {self.cpus[step % len(self.cpus)]})

    def release(self):
        os.sched_setaffinity(0, set(self.cpus))


class Clock:
    """Accumulates the timed wall time of trials, per round."""

    def __init__(self, cpus, tracer=None):
        self.cpus = cpus
        self.tracer = tracer
        self.per_round = {}

    @contextlib.contextmanager
    def trial(self, rnd, index):
        if self.tracer is not None:
            self.tracer.round, self.tracer.trial = rnd, index
        self.cpus.pin(rnd + index)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.per_round[rnd] = self.per_round.get(rnd, 0.0) + elapsed

    @property
    def elapsed(self):
        return sum(self.per_round.values())


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)      # failed-check messages
    ratios: dict = field(default_factory=dict)     # cell -> ||x|| / error list

    def fail(self, count, message=None):
        self.failed += count
        if message is not None:
            self.wrong.append(message)


def _noise_rng(seed, rnd, cell):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rnd, cell))
    return np.random.Generator(np.random.Philox(ss))


def _phantom_levels(system):
    """Phantom image and its per-level effective sparsity at RHO."""
    x = signals.shepp_logan(system.side)
    coef = transforms.vec(transforms.haar_transform(system.sparsity_basis,
                                                    "analysis", x))
    k = signals.effective_sparsity(coef, RHO, system.partition()).per_level
    return x, ",".join(str(int(v)) for v in k)


def _warm_up(system, x):
    transforms.haar_transform(system.sparsity_basis, "synthesis",
                              transforms.haar_transform(system.sparsity_basis,
                                                        "analysis", x))
    transforms.fwht(x)


class Ordering1D:
    """Criterion 6's strategy-ordering experiment, one seed per round."""

    name = "ordering_1d"
    strategies = ("uds", "vds", "mds")
    trials = 20
    ratio = 0.2
    trials_per_round = 3 * trials

    def prepare(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.m = round(self.ratio * 512)
        self.configs = {}
        for strategy in self.strategies:
            doc = {"system": "had_dhw_1d", "r": 9, "strategy": strategy,
                   "ratios": [self.ratio], "snr_db": SNR_DB,
                   "trials": self.trials, "seed": seed,
                   "signal": {"kind": "gaussian_bump", "sigma": 64.0,
                              "center": "random"}}
            path = os.path.join(workdir, f"{strategy}.json")
            with open(path, "w", encoding="ascii") as fh:
                json.dump(doc, fh)
            self.configs[strategy] = path
        system = coherence.SystemKind("had_dhw_1d", 9)
        _warm_up(system, signals.gaussian_bump(512, 64.0, 256.0))

    def build_references(self):
        pass

    def run_round(self, rnd, clock):
        res = RoundResult(attempted=self.trials_per_round)
        sre = {}
        for j, strategy in enumerate(self.strategies):
            out = os.path.join(self.workdir, f"round{rnd}", strategy)
            with clock.trial(rnd, j):
                code, err = call_cli(["experiment", "--config",
                                      self.configs[strategy], "--seed",
                                      self.seed + rnd, "--out", out])
            if code != 0:
                res.fail(self.trials)
                continue
            rows = reference.read_trials_csv(os.path.join(out, "trials.csv"))
            bad = reference.check_trials(rows, self.m)
            unconverged = sum(row["cs_converged"] != "1" for row in rows)
            if len(rows) != self.trials or bad:
                res.fail(self.trials, f"{strategy} round {rnd}: "
                         f"{len(rows)} rows, {bad[:2]}")
                continue
            res.fail(unconverged)
            ratios = [float(r["x_norm"]) / float(r["cs_error"]) for r in rows]
            sre[strategy] = reference.sre_db(ratios)
            res.ratios[(strategy, self.ratio)] = ratios
            errors = reference.check_summary(os.path.join(out, "summary.csv"),
                                             sre[strategy])
            if errors:
                res.fail(self.trials - unconverged, f"{strategy}: {errors}")
        if len(sre) == len(self.strategies):
            errors = reference.check_sre_order(sre, self.strategies, (5.0, 2.0))
            if errors:                         # the set-level check fails all
                res.failed = res.attempted
                res.wrong.append(f"round {rnd}: {errors}")
        else:
            res.failed = res.attempted
        shutil.rmtree(os.path.join(self.workdir, f"round{rnd}"),
                      ignore_errors=True)
        return res


class Camera256:
    """Single-pixel-camera recovery: one ``hadhaar recover --me`` per trial."""

    name = "camera_256"
    strategies = ("mds", "vds")
    ratio = 0.25
    trials_per_round = 2

    def prepare(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.system = coherence.SystemKind("had2_idhw", 8)
        n = self.system.n_total
        self.m = round(self.ratio * n)
        self.x, k = _phantom_levels(self.system)
        self.samples = {}
        for strategy in self.strategies:
            out = os.path.join(workdir, f"mask_{strategy}")
            argv = ["sample", "--strategy", strategy, "--system", "had2_idhw",
                    "--r", 8, "--M", self.m, "--seed", seed, "--out", out]
            code, err = call_cli(argv + (["--k", k] if strategy == "mds" else []))
            if code != 0:
                raise SetupError(f"hadhaar sample exited {code}: {err}")
            path = os.path.join(out, "sample.csv")
            omega, weights = reference.read_sample_csv(path)
            self.samples[strategy] = (path, omega, weights)
        _warm_up(self.system, self.x)

    def build_references(self):
        self.h = reference.paley_hadamard(self.system.side)
        spectrum = reference.spectrum_2d(self.h, self.x)
        self.clean = {s: spectrum[omega - 1]
                      for s, (_, omega, _) in self.samples.items()}
        self.x_norm = float(np.linalg.norm(self.x))
        self.x_l1 = reference.haar_l1_2d(self.x)

    def run_round(self, rnd, clock):
        res = RoundResult(attempted=self.trials_per_round)
        sre = {}
        for j, strategy in enumerate(self.strategies):
            path, omega, weights = self.samples[strategy]
            weighted = strategy != "mds"
            out = os.path.join(self.workdir, f"round{rnd}_{strategy}")
            os.makedirs(out, exist_ok=True)
            meas = os.path.join(out, "measurements.csv")
            with clock.trial(rnd, j):
                noise = signals.make_noise(
                    signals.NoiseSpec(SNR_DB), self.x, self.m,
                    weights=weights if weighted else None,
                    rng=_noise_rng(self.seed, rnd, j))
                y = self.clean[strategy] + noise.vector
                epsilon = noise.weighted_norm if weighted else noise.norm
                signals.save_signal_csv(meas, y)
                code, err = call_cli(["recover", "--system", "had2_idhw",
                                      "--r", 8, "--sample", path,
                                      "--measurements", meas, "--epsilon",
                                      repr(float(epsilon)), "--me",
                                      "--out", out])
            if code != 0:
                res.fail(1)
                continue
            meta = reference.read_json(os.path.join(out, "recovery_meta.json"))
            if meta.get("converged") is not True:
                res.fail(1)
                continue
            x_hat = reference.read_image_csv(os.path.join(out, "recovered.csv"))
            me = reference.read_image_csv(os.path.join(out, "me.csv"))
            row_w = weights / math.sqrt(self.m) if weighted else np.ones(self.m)
            errors = reference.check_bpdn(
                reference.spectrum_2d(self.h, x_hat), omega, y, row_w,
                epsilon, TOL_FEAS, TOL_GAP, reference.haar_l1_2d(x_hat),
                self.x_l1)
            errors += reference.check_me(reference.spectrum_2d(self.h, me),
                                         omega, y)
            if errors:
                res.fail(1, f"{strategy} round {rnd}: {errors}")
                continue
            ratio = self.x_norm / float(np.linalg.norm(self.x - x_hat))
            res.ratios[(strategy, self.ratio)] = [ratio]
            sre[strategy] = reference.sre_db([ratio])
            shutil.rmtree(out, ignore_errors=True)
        if len(sre) == 2:
            errors = reference.check_sre_order(dict(sre, zero=0.0),
                                               ("zero", "vds", "mds"), (0.0, 0.0))
            if errors:                         # the set-level check fails all
                res.failed = res.attempted
                res.wrong.append(f"round {rnd}: {errors}")
        return res


class Preview512:
    """One-pass minimal-energy preview at 512 x 512, no iterative solve."""

    name = "preview_512"
    cells = (("mds", 0.1), ("mds", 0.25), ("vds", 0.1), ("vds", 0.25))
    trials_per_round = len(cells)

    def prepare(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.system = coherence.SystemKind("had2_idhw", 9)
        self.x, self.k = _phantom_levels(self.system)
        _warm_up(self.system, self.x)

    def build_references(self):
        self.h = reference.paley_hadamard(self.system.side)
        self.spectrum = reference.spectrum_2d(self.h, self.x)
        self.x_norm = float(np.linalg.norm(self.x))

    def run_round(self, rnd, clock):
        res = RoundResult(attempted=self.trials_per_round)
        n, side = self.system.n_total, self.system.side
        for j, (strategy, ratio) in enumerate(self.cells):
            m = round(ratio * n)
            weighted = strategy != "mds"
            out = os.path.join(self.workdir, f"round{rnd}_{j}")
            image = os.path.join(out, "me.csv")
            argv = ["sample", "--strategy", strategy, "--system", "had2_idhw",
                    "--r", 9, "--M", m, "--seed", self.seed + rnd,
                    "--out", out] + (["--k", self.k] if not weighted else [])
            with clock.trial(rnd, j):
                code, err = call_cli(argv)
                if code == 0:
                    omega, weights = reference.read_sample_csv(
                        os.path.join(out, "sample.csv"))
                    meta = reference.read_json(os.path.join(out, "sample_meta.json"))
                    sample = sampling.SampleSet(omega, weights, strategy,
                                                seed=meta["seed"])
                    noise = signals.make_noise(
                        signals.NoiseSpec(SNR_DB), self.x, m,
                        weights=weights if weighted else None,
                        rng=_noise_rng(self.seed, rnd, j))
                    y = sampling.measure(self.system, sample, self.x) + noise.vector
                    me = recovery.me_reconstruct(self.system, sample, y)
                    signals.save_image_csv(image, me)
                    back = signals.load_signal_csv(image)
            if code != 0:
                res.fail(1)
                continue
            errors = reference.check_sample(
                omega, n, m, None if weighted else meta["m_per_level"], side)
            if not errors:
                clean = y - noise.vector
                drift = float(np.max(np.abs(clean - self.spectrum[omega - 1])))
                if not drift <= 1e-9 * float(np.max(np.abs(self.spectrum))):
                    errors.append(f"measurements differ from the spectrum by {drift:.3g}")
                errors += reference.check_me(reference.spectrum_2d(self.h, me),
                                             omega, y)
                if not np.array_equal(back, me):
                    errors.append("load_signal_csv does not return the saved image")
                ratio_norm = self.x_norm / float(np.linalg.norm(self.x - me))
                if not ratio_norm > 1.0:
                    errors.append(f"ME SRE {20 * math.log10(ratio_norm):.3f} dB <= 0")
            if errors:
                res.fail(1, f"{strategy} {ratio} round {rnd}: {errors}")
                continue
            res.ratios[(strategy, ratio)] = [ratio_norm]
            shutil.rmtree(out, ignore_errors=True)
        return res


WORKLOADS = {w.name: w for w in (Ordering1D, Camera256, Preview512)}

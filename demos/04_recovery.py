"""Reconstruction: l1 recovery against minimal-energy backprojection.

A sparse-in-Haar signal is recovered exactly from half the Hadamard
measurements under variable-density sampling, while the minimal-energy
estimate (which ignores sparsity) is far off.  With measurement noise the
l1 data ball is widened to the oracle noise radius.

Run:  python3 demos/04_recovery.py
"""
import numpy as np

from hadhaar import (NoiseSpec, RecoveryProblem, SystemKind, draw_sample,
                     haar_transform, make_noise, me_reconstruct, measure,
                     rng_stream, solve_bpdn, vds_pmf)

system = SystemKind("had_dhw_1d", 8)   # N = 256
plan = vds_pmf(system)
rng = rng_stream(2024, 0)

# a K = 8 signal with random +-1 Haar coefficients
coeffs = np.zeros(256)
support = rng.choice(256, size=8, replace=False)
coeffs[support] = rng.choice([-1.0, 1.0], size=8)
x = haar_transform("dhw", "synthesis", coeffs)

sample = draw_sample(plan, 128, seed=5, replace=False)
y = measure(system, sample, x)

report = solve_bpdn(RecoveryProblem(system, sample, y))
me_hat = me_reconstruct(system, sample, y)
norm = float(np.linalg.norm(x))
print("noiseless, M = N/2:")
print("  l1 relative error :", float(np.linalg.norm(report.x_hat - x)) / norm)
print("  l1 objective      :", report.objective, "(= ||coeffs||_1 =",
      float(np.sum(np.abs(coeffs))), ")")
print("  converged in      :", report.iterations, "iterations")
print("  minimal-energy rel:", float(np.linalg.norm(me_hat - x)) / norm)

# --- with measurement noise ---------------------------------------------------
noise = make_noise(NoiseSpec(20.0), x, 128, weights=sample.weights,
                   rng=rng_stream(1))
y_noisy = y + noise.vector
report = solve_bpdn(RecoveryProblem(system, sample, y_noisy,
                                    epsilon=noise.weighted_norm))
print("\nSNR 20 dB, weighted data ball radius", round(noise.weighted_norm, 4))
print("  l1 relative error :", float(np.linalg.norm(report.x_hat - x)) / norm)
print("  feasibility resid :", report.feasibility_residual)

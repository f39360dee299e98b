"""End-to-end strategy comparison through the experiment driver.

Runs the same Gaussian-bump recovery problem under uniform, variable and
multilevel density sampling and prints the per-strategy reconstruction
quality.  Scaled down (N = 256, 6 trials) so it finishes in well under a
minute; the CLI `experiment` subcommand runs the same engine from a JSON
config and writes trials.csv / summary.csv / config_echo.json.

Run:  python3 demos/05_experiment.py
"""
import math
import time

from hadhaar.experiment import ExperimentConfig, SignalSpec, run_experiment

for strategy in ("uds", "vds", "mds"):
    config = ExperimentConfig(
        system="had_dhw_1d", r=8, strategy=strategy, ratios=(0.2,),
        snr_db=20.0, trials=6, seed=11,
        signal=SignalSpec("gaussian_bump", sigma=32.0, center="random"))
    start = time.perf_counter()
    report = run_experiment(config)
    ratio, m, trials, cs_mean, me_mean = report.ratio_summary()[0]
    print(f"{strategy}: M/N = {ratio}, M = {m}, trials = {trials}, "
          f"l1 SRE = {20.0 * math.log10(cs_mean):6.2f} dB, "
          f"ME SRE = {20.0 * math.log10(me_mean):6.2f} dB "
          f"({time.perf_counter() - start:.1f}s)")

print("\nexpected ordering: mds > vds > uds for the l1 reconstruction")

#!/bin/sh
# Tour of every CLI subcommand.  Requires the package to be installed
# (pip install -e . --no-build-isolation).  Writes into ./demo_output.
set -e
OUT=demo_output
mkdir -p "$OUT"

echo "== signal: 1-D test signal and the 2-D phantom =="
hadhaar signal --kind doppler --size 256 --out "$OUT/doppler"
hadhaar signal --kind shepp_logan --size 64 --out "$OUT/phantom"

echo "== transform: analyse the signal, then invert =="
hadhaar transform --basis dhw --input "$OUT/doppler/signal.csv" \
    --out "$OUT/analysis"
hadhaar transform --basis dhw --direction synthesis \
    --input "$OUT/analysis/transform.csv" --out "$OUT/synthesis"

echo "== coherence: local profile and multilevel grid =="
hadhaar coherence --system had_dhw_1d --r 6 --multilevel --out "$OUT/coherence"

echo "== structure-check: block structure of the system matrix =="
hadhaar structure-check --system had2_idhw --r 3 --out "$OUT/structure"

echo "== sample: draw a variable-density index set =="
hadhaar sample --strategy vds --system had_dhw_1d --r 8 --M 128 --seed 7 \
    --out "$OUT/sample"

echo "== recover: l1 recovery from stored measurements =="
python3 - <<'EOF'
from hadhaar import (SystemKind, draw_sample, generate, measure,
                     save_signal_csv, vds_pmf)

# the same draw as `hadhaar sample --strategy vds ... --M 128 --seed 7`
system = SystemKind("had_dhw_1d", 8)
sample = draw_sample(vds_pmf(system), 128, seed=7)
x = generate("blocks", 256)
save_signal_csv("demo_output/y.csv", measure(system, sample, x))
save_signal_csv("demo_output/x_true.csv", x)
EOF
hadhaar recover --system had_dhw_1d --r 8 --sample "$OUT/sample/sample.csv" \
    --measurements "$OUT/y.csv" --me --out "$OUT/recovered"

echo "== experiment: JSON-configured multi-trial run =="
cat > "$OUT/config.json" <<'EOF'
{
  "system": "had_dhw_1d",
  "r": 8,
  "strategy": "vds",
  "ratios": [0.25],
  "snr_db": 20.0,
  "trials": 4,
  "seed": 3,
  "signal": {"kind": "gaussian_bump", "sigma": 32.0, "center": "random"},
  "output_dir": "demo_output/experiment"
}
EOF
hadhaar experiment --config "$OUT/config.json"

echo "all outputs under $OUT/"

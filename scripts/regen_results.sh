#!/usr/bin/env bash
# Regenerates every table/figure output into results/, or into the
# directory given as the first argument.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-results}
cargo build --release -p zo-bench --bins
mkdir -p "$out"
for b in table1 fig7 fig8 fig9 fig10 fig11 stages; do
  ./target/release/$b > "$out/$b.txt"
done
ZO_ADAM_PARAMS=${ZO_ADAM_PARAMS:-4194304} ZO_ADAM_STEPS=${ZO_ADAM_STEPS:-3} \
  ./target/release/table4 > "$out/table4.txt"
ZO_STEPS=${ZO_STEPS_FIG12:-400} ./target/release/fig12 > "$out/fig12.txt"
ZO_STEPS=${ZO_STEPS_FIG13:-300} ./target/release/fig13 > "$out/fig13.txt"
ZO_STEPS=${ZO_STEPS_ABLATION:-200} ./target/release/ablations > "$out/ablations.txt"
./target/release/timeline > "$out/timeline.txt"
echo "results regenerated in $out/"

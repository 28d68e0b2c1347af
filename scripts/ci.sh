#!/usr/bin/env bash
# Full CI gate, structured as timed legs.
#
# Each leg is a bash function run through `run_leg`, which prints a
# banner, times the leg with $SECONDS, and records it for the wall-time
# summary at the end — so a slow CI run points at its slow leg instead
# of at a wall of interleaved output.
#
# Trajectory fingerprints are checked by one matrix helper
# (`assert_fp_matrix`) over the full faults × threads × tier cube for
# each engine stage, with memoized fingerprint runs — replacing the
# copy-pasted diff loops that used to each cover one axis and left
# ZO_STAGE=3 diffed across threads only.
set -euo pipefail
cd "$(dirname "$0")/.."

LEG_TIMES=()

run_leg() {
    local name=$1
    shift
    echo
    echo "== $name"
    local t0=$SECONDS
    "$@"
    LEG_TIMES+=("$(printf '%5ds  %s' "$((SECONDS - t0))" "$name")")
}

# ---------------------------------------------------------------- legs

leg_lint() {
    cargo fmt --all -- --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

leg_build_release() {
    cargo build --release
    cargo build --release -q --bin fingerprint --bin kernel_bench --bin criterion_report
}

# The benchmark under perfbench/ is its own cargo workspace built against
# the crates' public APIs, so nothing else here compiles it. Build only:
# a public-API change that breaks the benchmark must fail the gate, but
# CI does not run the timed workloads.
leg_perfbench_build() {
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
}

# The training CLI's checkpoint path end to end: --save writes the framed
# binary file, --resume reads it back, and a copy cut to half its length
# must make --resume fail with a "truncated" error.
leg_train_checkpoint() {
    local t
    t=$(mktemp -d)
    ./target/release/train --steps 4 --save "$t/c.ckpt"
    ./target/release/train --steps 4 --resume "$t/c.ckpt"
    head -c "$(($(wc -c <"$t/c.ckpt") / 2))" "$t/c.ckpt" >"$t/torn.ckpt"
    if ./target/release/train --steps 4 --resume "$t/torn.ckpt" 2>"$t/err"; then
        echo "FAIL: train --resume accepted a half-length checkpoint" >&2
        exit 1
    fi
    if ! grep -q truncated "$t/err"; then
        echo "FAIL: torn checkpoint not reported as truncated:" >&2
        cat "$t/err" >&2
        exit 1
    fi
    echo "   torn checkpoint rejected: $(cat "$t/err")"
    rm -rf "$t"
}

leg_test_debug() {
    echo "   ZO_THREADS=1"
    ZO_THREADS=1 cargo test -q
    echo "   ZO_THREADS=4"
    ZO_THREADS=4 cargo test -q
}

leg_test_release() {
    cargo test --release -q
}

leg_fault_harness() {
    cargo test -q -p zo-fault
    for faults in off transient-heavy; do
        echo "   ZO_FAULTS=$faults"
        ZO_FAULTS=$faults cargo test -q --release --test fault_matrix
    done
}

leg_zero3_harness() {
    for faults in off transient-heavy; do
        echo "   ZO_FAULTS=$faults"
        ZO_FAULTS=$faults cargo test -q --release --test zero3_equivalence --test zero3_traffic
    done
}

leg_tier_harness() {
    for faults in off transient-heavy; do
        echo "   ZO_FAULTS=$faults"
        ZO_FAULTS=$faults cargo test -q --release --test tier_offload
    done
}

leg_multi_job_harness() {
    for faults in off transient-heavy; do
        echo "   ZO_FAULTS=$faults"
        ZO_FAULTS=$faults cargo test -q --release --test multi_job
    done
}

# Memoized trajectory fingerprint, keyed by the full env combo; the
# result lands in $FP (returning via stdout would put the cache write in
# a command-substitution subshell and lose it). The matrix below
# revisits combos (every axis shares the baseline), so each
# configuration runs exactly once.
declare -A FP_CACHE
FP=""
fp() { # fp FAULTS THREADS STAGE TIER -> $FP
    local key="$1|$2|$3|$4"
    if [ -z "${FP_CACHE[$key]:-}" ]; then
        FP_CACHE[$key]=$(ZO_FAULTS=$1 ZO_THREADS=$2 ZO_STAGE=$3 ZO_TIER=$4 \
            ./target/release/fingerprint | awk '{print $2}')
    fi
    FP=${FP_CACHE[$key]}
}

# Asserts one engine stage's fingerprint is identical across the whole
# ZO_FAULTS × ZO_THREADS × ZO_TIER cube. Stages may differ from each
# other (ZeRO-3 hashes shards in rank order); within a stage, nothing is
# allowed to move a bit.
assert_fp_matrix() { # assert_fp_matrix STAGE
    local stage=$1
    local base
    fp off 1 "$stage" dram
    base=$FP
    for faults in off transient-heavy; do
        for threads in 1 4; do
            for tier in dram nvme; do
                fp "$faults" "$threads" "$stage" "$tier"
                printf '   stage=%s faults=%-15s threads=%s tier=%s -> %s\n' \
                    "$stage" "$faults" "$threads" "$tier" "$FP"
                if [ "$FP" != "$base" ]; then
                    echo "FAIL: stage=$stage trajectory moved under" \
                        "ZO_FAULTS=$faults ZO_THREADS=$threads ZO_TIER=$tier" \
                        "(got $FP, baseline $base)" >&2
                    exit 1
                fi
            done
        done
    done
}

leg_fingerprint_matrix() {
    assert_fp_matrix 1
    assert_fp_matrix 3
}

leg_fingerprint_artifact() {
    ZO_TIER=nvme ./target/release/fingerprint --json BENCH_fingerprint.json
    head -c 400 BENCH_fingerprint.json
    echo
}

leg_kernel_artifact() {
    ./target/release/kernel_bench --json BENCH_kernels.json
    ./target/release/kernel_bench --assert BENCH_kernels.json
    head -c 400 BENCH_kernels.json
    echo
}

leg_criterion_artifact() {
    local ndjson=$PWD/target/criterion_results.ndjson
    rm -f "$ndjson"
    for bench in adam kernels engine figures scaling faults; do
        echo "   bench: $bench"
        CRITERION_QUICK=1 CRITERION_JSON=$ndjson \
            cargo bench -q -p zo-bench --bench "$bench"
    done
    ./target/release/criterion_report --from "$ndjson" --json BENCH_criterion.json
    ./target/release/criterion_report --assert BENCH_criterion.json
    head -c 400 BENCH_criterion.json
    echo
}

# -------------------------------------------------------------- driver

run_leg "cargo fmt / clippy / doc (warnings are errors)" leg_lint
run_leg "cargo build --release (plus artifact binaries)" leg_build_release
run_leg "benchmark build (perfbench/, build only)" leg_perfbench_build
run_leg "train CLI checkpoint save / resume / torn-file smoke test" leg_train_checkpoint
run_leg "cargo test (ZO_THREADS=1 and 4)" leg_test_debug
run_leg "cargo test --release" leg_test_release
run_leg "fault harness (unit tests + fault matrix, both presets)" leg_fault_harness
run_leg "zero3 paper-claim harness (both fault presets)" leg_zero3_harness
run_leg "memory-tier harness (both fault presets)" leg_tier_harness
run_leg "multi-job service harness (both fault presets)" leg_multi_job_harness
run_leg "trajectory fingerprint matrix (faults x threads x tier, stages 1 and 3)" leg_fingerprint_matrix
run_leg "benchmark fingerprint artifact (BENCH_fingerprint.json)" leg_fingerprint_artifact
run_leg "kernel perf trajectory artifact (BENCH_kernels.json)" leg_kernel_artifact
run_leg "criterion bench sweep artifact (BENCH_criterion.json)" leg_criterion_artifact

echo
echo "== leg wall times"
printf '%s\n' "${LEG_TIMES[@]}"
echo "CI green."

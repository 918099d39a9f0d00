#!/usr/bin/env bash
# The benchmark's single entry point. Builds benchmark/ in release mode
# (offline; CARGO_TARGET_DIR is honoured) and then either
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       runs one workload: a name/unit/value table, then the one-line JSON
#       result the driver reads as the last line of standard output;
#   run.sh [--quick] [--seed <n>]
#       runs all four workloads, each untraced and then traced, and prints
#       the result lines again at the end (also kept in
#       benchmark/out/results.jsonl). --quick measures 4 s instead of 20;
#   run.sh --contract
#       prints the content of BENCHMARK.json, generated from src/ledger.rs.
#
# BENCH_GEMM/BENCH_CONV/BENCH_INFER.json, bench_gate and CI are untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/zipnet-benchmark"

case "${1:-}" in
--workload | --contract) exec "$bin" "$@" ;;
esac

seconds=20
seed=1
while [ $# -gt 0 ]; do
    case "$1" in
    --quick) seconds=4 ;;
    --seed)
        seed="$2"
        shift
        ;;
    *)
        echo "run.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
    shift
done

echo "toolchain: $(rustc --version), $(nproc) cpus, MTSR_NUM_THREADS=${MTSR_NUM_THREADS:-unset}"
mkdir -p benchmark/out
results=benchmark/out/results.jsonl
: >"$results"
status=0
for workload in offline_frames serve_trickle serve_open train_steps; do
    for trace in 0 1; do
        log="benchmark/out/$workload.trace$trace.txt"
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" |
            tee "$log" || status=1
        printf '{"workload": "%s", "trace": %s, "result": %s}\n' \
            "$workload" "$trace" "$(tail -n 1 "$log")" >>"$results"
    done
done
echo "== summary (benchmark/out/results.jsonl) =="
cat "$results"
exit "$status"

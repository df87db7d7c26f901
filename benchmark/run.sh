#!/usr/bin/env bash
# The repair-job benchmark, one command. Run from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       every workload, end to end (tracing off) and then traced, each
#       in its own child process; writes benchmark/out/results.json and
#       benchmark/out/trace-<workload>.json
#   benchmark/run.sh --repeat-check [--seed N] [--seconds S]
#       the same commit as both sides of `compare`: the suite six times,
#       alternating between side a and side b (traced runs in the first
#       round only), then `compare --same-commit` of three against three
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one measured run (what the driver calls); the last line of stdout
#       is {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
#
# Always builds in release first. The binaries drop every ACR_* variable
# from their environment (the product's defaults are what is measured)
# and refuse to measure a debug build.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
manifest="$here/Cargo.toml"
bin_dir="${CARGO_TARGET_DIR:-$here/target}/release"

build_started=$(date +%s%N)
# Two builds on purpose: if a layer-API change breaks acr-bench-layers,
# the end-to-end numbers still build and run.
cargo build --release --quiet --manifest-path "$manifest" --bin acr-bench-e2e
layers_ok=1
cargo build --release --quiet --manifest-path "$manifest" --bin acr-bench-layers || layers_ok=0
build_ms=$(( ($(date +%s%N) - build_started) / 1000000 ))
build_s=$(printf '%d.%03d' $((build_ms / 1000)) $((build_ms % 1000)))

workload="" trace=0 repeat=0
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload=$2; args+=("$1" "$2"); shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        --repeat-check) repeat=1; shift ;;
        *) args+=("$1"); shift ;;
    esac
done

if [ -n "$workload" ]; then
    if [ "$trace" = 1 ]; then
        [ "$layers_ok" = 1 ] || { echo "acr-bench-layers did not build" >&2; exit 1; }
        exec "$bin_dir/acr-bench-layers" run --out-dir "$here/out" "${args[@]}"
    fi
    exec "$bin_dir/acr-bench-e2e" run "${args[@]}"
fi

e2e_only=("$bin_dir/acr-bench-e2e" suite --out-dir "$here/out" --build-s "$build_s")
suite=("${e2e_only[@]}")
if [ "$layers_ok" = 1 ]; then
    suite+=(--layers-bin "$bin_dir/acr-bench-layers")
else
    echo "acr-bench-layers did not build: end-to-end metrics only" >&2
fi
if [ "$repeat" = 1 ]; then
    for round in 1 2 3; do
        for side in a b; do
            "${suite[@]}" --results "results-$side$round.json" "${args[@]+"${args[@]}"}"
        done
        suite=("${e2e_only[@]}")
    done
    exec "$bin_dir/acr-bench-e2e" compare --same-commit \
        --base "$here"/out/results-a[123].json --new "$here"/out/results-b[123].json
fi
exec "${suite[@]}" "${args[@]+"${args[@]}"}"

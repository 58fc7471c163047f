#!/usr/bin/env bash
# Build the benchmark harness from source and run it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of stdout is its JSON result
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
#       every workload in turn, each in a process of its own
#   bash benchmark/run.sh --check [--seed <n>]
#       exact-repeat check: fixed operation counts, twice per workload
#
# Run from the root of the checkout. Builds offline against the committed
# lockfile into $CARGO_TARGET_DIR, or benchmark/target when that is unset.
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/coic-benchmark"

case " $* " in
*" --check "*)
    args=()
    for a in "$@"; do [ "$a" = "--check" ] || args+=("$a"); done
    exec "$bin" check ${args[@]+"${args[@]}"}
    ;;
*" --workload "*)
    exec "$bin" "$@"
    ;;
*)
    for w in hit_small payload_large recog_shared miss_churn mix_open sim_replay; do
        "$bin" --workload "$w" "$@"
    done
    ;;
esac

#!/usr/bin/env bash
# Two full sets of benchmark runs on one build; fails when any end-to-end
# metric of any workload disagrees between the sets by more than its bound
# in BENCHMARK.json. `--runs 10` runs each set on ten seeds and also checks
# the spread of each set, as the benchmark's driver does.
#
#   bash benchmark/agree.sh [--runs <n>] [--seed <n>] [--seconds <s>]
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/coic-benchmark" agree "$@"

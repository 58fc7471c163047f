#!/usr/bin/env sh
# Run the full static + dynamic analysis pass — the same sequence CI's
# `analyze` job runs:
#
#   1. `coic lint` over the workspace against analyze/rules.toml
#      (sans-IO import bans, wall-clock/nondeterminism bans, unwrap and
#      hot-path indexing bans, paired-call leak checks, the lock-order
#      graph, protocol conformance, the telemetry registry, `pub` items
#      nothing reaches, #![forbid(unsafe_code)] coverage — DESIGN.md §11
#      and §16);
#   2. `coic analyze trace` over a seeded 16-edge cluster run with a
#      mid-run edge failure, against analyze/trace_invariants.toml, plus
#      a must-fail check on the checked-in corrupted trace fixture;
#   3. the coic-obs unit tests (deterministic registry, histogram
#      bucket boundaries, canonical snapshot ordering — the invariants
#      the determinism jobs build on);
#   4. the mini-loom model checker's self-tests (shims/loom);
#   5. the exhaustive-interleaving model tests for the sharded exact
#      cache's lookups racing an eviction, the snapshot ANN cache's
#      snapshot/journal handoff and its compaction racing an insert and
#      a lookup, and the circuit breaker / single-flight engine
#      structures (the `model-check` feature swaps parking_lot and std
#      atomics for the loom shims).
#
# The last line is the workspace's `.rs` line count (the figure ROADMAP's
# size targets track), so every CI log carries it.
#
# Usage: scripts/analyze.sh
set -eu
cd "$(dirname "$0")/.."

echo "==> workspace lint (analyze/rules.toml)"
cargo run -q --locked -p coic-analyze -- --root .

echo "==> trace invariants over a seeded 16-edge cluster run"
cargo run -q --locked -p coic-cli -- trace gen \
  --app arena --out /tmp/analyze_arena.csv --users 12 --requests 400
cargo run -q --locked -p coic-cli -- sim \
  --in /tmp/analyze_arena.csv --clients 12 --edges 16 --seed 7 \
  --peer-fanout 3 --replicate 2 --edge-down 100@3 \
  --trace-out /tmp/analyze_cluster.jsonl \
  --metrics-out /tmp/analyze_cluster.txt > /dev/null
# The run must actually exercise what the invariants pin: a mid-run edge
# failure and a breaker transition (a run that never probed would pass
# vacuously).
grep -q '"n":"edge.down"' /tmp/analyze_cluster.jsonl
grep -q '"n":"cluster.peer_state"' /tmp/analyze_cluster.jsonl
cargo run -q --locked -p coic-cli -- analyze trace \
  --trace /tmp/analyze_cluster.jsonl --metrics /tmp/analyze_cluster.txt

echo "==> trace verifier rejects the corrupted fixture"
if cargo run -q --locked -p coic-cli -- analyze trace \
  --trace crates/analyze/fixtures/trace/corrupt.jsonl \
  --metrics crates/analyze/fixtures/trace/corrupt_metrics.txt \
  --invariants crates/analyze/fixtures/trace/invariants.toml \
  > /dev/null 2>&1; then
  echo "corrupted trace fixture unexpectedly passed the verifier" >&2
  exit 1
fi

echo "==> observability layer (coic-obs) unit tests"
cargo test -q --locked -p coic-obs

echo "==> mini-loom self-tests"
cargo test -q --locked -p loom

echo "==> model check: eviction race + snapshot/journal handoff + compaction race"
cargo test -q --locked -p coic-cache --features model-check --test model

echo "==> model check: circuit breaker + single-flight"
cargo test -q --locked -p coic-core --features model-check --test model

echo "analysis pass clean"
echo "workspace .rs lines: $(find crates shims src tests examples -name '*.rs' | xargs cat | wc -l)"

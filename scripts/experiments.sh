#!/usr/bin/env sh
# Byte-identity gate for the paper figures and extension tables: run every
# `crates/bench/src/bin/{fig2a,fig2b,ext_*}` release binary and diff its
# stdout against the committed golden in `bench/golden/<name>.txt`. The
# binaries are seeded simulator runs, so any difference is a behaviour
# change (EXPERIMENTS.md quotes these tables). ≈ 25 s on a 2-vCPU box once
# built.
#
# Usage: scripts/experiments.sh [--bless]
#   --bless   overwrite the goldens with the current output
set -eu
cd "$(dirname "$0")/.."

bless=0
case "${1:-}" in
  "") ;;
  --bless) bless=1 ;;
  *) echo "usage: scripts/experiments.sh [--bless]" >&2; exit 2 ;;
esac

cargo build -q --release --locked -p coic-bench --bins

[ "$bless" = 0 ] || mkdir -p bench/golden
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
failed=0
for src in crates/bench/src/bin/fig2a.rs crates/bench/src/bin/fig2b.rs \
  crates/bench/src/bin/ext_*.rs; do
  name=$(basename "$src" .rs)
  ./target/release/"$name" > "$out/$name.txt"
  if [ "$bless" = 1 ]; then
    cp "$out/$name.txt" "bench/golden/$name.txt"
    echo "blessed $name"
  elif diff -u "bench/golden/$name.txt" "$out/$name.txt"; then
    echo "ok      $name"
  else
    echo "DIFF    $name" >&2
    failed=1
  fi
done

if [ "$failed" = 1 ]; then
  echo "experiment output differs from bench/golden (see diffs above)" >&2
  exit 1
fi

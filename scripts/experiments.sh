#!/usr/bin/env sh
# Byte-identity gate for the paper figures and extension tables: run every
# experiment `coic-bench` lists and diff its stdout against the committed
# golden in `bench/golden/<name>.txt`. The experiments are seeded simulator
# runs, so any difference is a behaviour change. Then check EXPERIMENTS.md:
# each ```text <name> block must equal bench/golden/<name>.txt, every golden
# must have such a block, and every tag must name a golden. ≈ 20 s on a
# 2-vCPU box once built.
#
# Usage: scripts/experiments.sh [--bless]
#   --bless   overwrite the goldens with the current output (the tagged
#             EXPERIMENTS.md blocks must then be updated to match)
set -eu
cd "$(dirname "$0")/.."

bless=0
case "${1:-}" in
  "") ;;
  --bless) bless=1 ;;
  *) echo "usage: scripts/experiments.sh [--bless]" >&2; exit 2 ;;
esac

cargo build -q --release --locked -p coic-bench
bench=./target/release/coic-bench

[ "$bless" = 0 ] || mkdir -p bench/golden
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
failed=0
names=$("$bench")
for name in $names; do
  "$bench" "$name" > "$out/$name.txt"
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

# Split EXPERIMENTS.md's tagged blocks into $out/doc/<name>.txt.
mkdir "$out/doc"
awk -v dir="$out/doc" '
  /^```text [a-z0-9_]+$/ {
    if ($2 in seen) { print "EXPERIMENTS.md tags " $2 " twice" > "/dev/stderr"; exit 1 }
    seen[$2] = 1; file = dir "/" $2 ".txt"; printf "" > file; next
  }
  /^```/ && file != "" { close(file); file = ""; next }
  file != "" { print > file }
' EXPERIMENTS.md
for golden in bench/golden/*.txt; do
  name=$(basename "$golden" .txt)
  if [ ! -f "$out/doc/$name.txt" ]; then
    echo "DOC     $name: EXPERIMENTS.md has no \`\`\`text $name block" >&2
    failed=1
  elif ! diff -u "$golden" "$out/doc/$name.txt"; then
    echo "DOC     $name: EXPERIMENTS.md block differs from $golden" >&2
    failed=1
  fi
done
for doc in "$out"/doc/*.txt; do
  [ -f "$doc" ] || continue
  name=$(basename "$doc" .txt)
  if [ ! -f "bench/golden/$name.txt" ]; then
    echo "DOC     $name: EXPERIMENTS.md tags a block no golden backs" >&2
    failed=1
  fi
done

if [ "$failed" = 1 ]; then
  echo "experiment output, bench/golden and EXPERIMENTS.md disagree (see above)" >&2
  exit 1
fi

#!/usr/bin/env bash
# Paired before/after runs of one benchmark workload: the working tree
# against a parent revision, alternating which side runs first, each side
# built once into a target directory of its own. Prints every run, then per
# metric each side's median, quartiles and range, how many pairs the change
# won, and whether a gain may be claimed: the change wins at least nine
# tenths of the pairs (ties count for neither side), and the medians differ,
# in the metric's better direction, by more than the parent's quartile
# distance (q3 − q1 of its runs).
#
# Usage: scripts/bench_pairs.sh <parent-rev> <workload> [pairs=5] [seconds=15] [seed=7]
#   workload  one name, or several separated by commas (built once, then
#             each workload gets its own block of pairs and its own table)
#   seconds   a number (timed runs), or ops=N for N operations per client
#             (equal work on both sides, e.g. miss_churn's peak_rss_mb)
#   seed      seed=N, the workload seed both sides run (a claim made on
#             seed 7 is checked on an unseen seed with the same command)
#
# The parent is a `git archive` export in a temporary directory (under
# $TMPDIR), so its benchmark/ is the parent's own and nothing is left
# registered in .git. Nothing under benchmark/ is edited. --trace 0.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || {
  echo "usage: scripts/bench_pairs.sh <parent-rev> <workload> [pairs=5] [seconds=15|ops=N] [seed=7]" >&2
  exit 2
}
rev=$1 workloads=${2//,/ } pairs=${3:-5} length=${4:-15} seed_arg=${5:-seed=7}
case "$length" in
  ops=*) length_args=(--ops "${length#ops=}") ;;
  *) length_args=(--seconds "$length") ;;
esac
case "$seed_arg" in
  seed=*) seed=${seed_arg#seed=} ;;
  *)
    echo "bench_pairs: the 5th argument is seed=N, got '$seed_arg'" >&2
    exit 2
    ;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"

# One run: prints "side metric value better" for each end-to-end metric.
run() { # <side> <checkout> <workload>
  (cd "$2" && CARGO_TARGET_DIR="$tmp/target-$1" bash benchmark/run.sh \
    --workload "$3" --seed "$seed" "${length_args[@]}" --trace 0) |
    awk -v side="$1" '$1 == "metric" { sub("better=", "", $5); print side, $2, $3, $5 }'
}

# pair side metric value better  ->  per-metric summary
summarize() {
  awk '
  { v[$3, $2, $1] = $4; better[$3] = $5; if (!($3 in seen)) { seen[$3] = 1; order[++n] = $3 } if ($1 > pairs) pairs = $1 }
  # Quantile p of the sorted a[1..k], interpolating between closest ranks.
  function quantile(a, k, p,    h, f) {
    h = (k - 1) * p + 1; f = int(h)
    return f < k ? a[f] + (h - f) * (a[f + 1] - a[f]) : a[k]
  }
  function stats(m, side,    i, j, t, a, k) {
    k = 0
    for (i = 1; i <= pairs; i++) a[++k] = v[m, side, i] + 0
    for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    med = quantile(a, k, 0.5); q1 = quantile(a, k, 0.25); q3 = quantile(a, k, 0.75)
    lo = a[1]; hi = a[k]
  }
  END {
    printf "\n%-12s %-7s %12s %12s %12s %12s %12s   %s\n", "metric", "side", "median", "q1", "q3", "min", "max", "change wins"
    for (x = 1; x <= n; x++) {
      m = order[x]; wins = 0; ties = 0
      for (i = 1; i <= pairs; i++) {
        p = v[m, "parent", i] + 0; c = v[m, "change", i] + 0
        if (p == c) ties++
        else if ((better[m] == "lower") == (c < p)) wins++
      }
      stats(m, "parent"); pm = med; spread = q3 - q1
      printf "%-12s %-7s %12.4f %12.4f %12.4f %12.4f %12.4f\n", m, "parent", med, q1, q3, lo, hi
      stats(m, "change")
      printf "%-12s %-7s %12.4f %12.4f %12.4f %12.4f %12.4f   %d/%d (%d ties), median %+.1f %%\n", m, "change", med, q1, q3, lo, hi, wins, pairs, ties, pm ? (med - pm) / pm * 100 : 0
      gain = better[m] == "lower" ? pm - med : med - pm
      met = wins * 10 >= pairs * 9 && gain > spread
      printf "%-12s claim %s: wins %d/%d (need %d), median gain %.4f vs parent quartile distance %.4f\n", m, met ? "met" : "not met", wins, pairs, int((pairs * 9 + 9) / 10), gain, spread
    }
  }
' "$1"
}

echo "# building both sides (first runs discarded)" >&2
first=${workloads%% *}
run parent "$tmp/parent" "$first" > /dev/null
run change "$PWD" "$first" > /dev/null

for workload in $workloads; do
  echo "## $workload, $pairs pairs, ${length_args[*]}"
  : > "$tmp/runs"
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      if [ "$side" = parent ]; then dir="$tmp/parent"; else dir="$PWD"; fi
      run "$side" "$dir" "$workload" | sed "s/^/$i /" | tee -a "$tmp/runs"
    done
  done
  summarize "$tmp/runs"
done

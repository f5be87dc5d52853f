#!/bin/sh
# Perf regression gate (DESIGN.md §12): run each gated bench, then diff
# its JSON output against its committed baseline trajectory with
# bench_compare, once per gated unit. The gated benches are one table
# below:
#   bench_micro_perf              hot-path ns/op (each case the median
#                                 of 3 repetitions), normalized by the
#                                 median ratio so a uniformly slower
#                                 machine cannot fail the gate
#   bench_recovery_mttr           MTTR grid (s)
#   bench_partition_availability  outage grid (s) + latency percentiles (us)
#   bench_overload_degradation    inverse goodput (us/txn; a goodput drop
#                                 raises it) + p99 (ms)
# The last three run on the virtual clock, so they are compared exactly
# (--no-normalize): any drift is a real behavior change. Their baselines
# were recorded with the bench arguments in the table.
#
# Exit codes: 2 for a missing binary or baseline; 1 when a bench fails,
# writes no JSON, or any tracked case regresses past the threshold or
# vanishes from the suite.
#
# Environment overrides (defaults assume running from the repo root
# with the standard ./build tree):
#   BENCH_MICRO_PERF     path to the bench_micro_perf binary
#   BENCH_RECOVERY_MTTR  path to the bench_recovery_mttr binary
#   BENCH_COMPARE        path to the bench_compare binary
#   BASELINE             committed micro-perf trajectory JSON
#   CURRENT              where bench_micro_perf writes its JSON
#   BASELINE_RECOVERY    committed recovery-MTTR trajectory JSON
#   CURRENT_RECOVERY     where bench_recovery_mttr writes its JSON
#   BENCH_PARTITION_AVAILABILITY  path to that bench binary
#   BASELINE_PARTITION   committed partition-availability trajectory JSON
#   CURRENT_PARTITION    where bench_partition_availability writes JSON
#   BENCH_OVERLOAD_DEGRADATION  path to that bench binary
#   BASELINE_OVERLOAD    committed overload-degradation trajectory JSON
#   CURRENT_OVERLOAD     where bench_overload_degradation writes JSON
#   THRESHOLD            tolerated normalized slowdown (default 0.5 = +50%)
set -u

BENCH_MICRO_PERF="${BENCH_MICRO_PERF:-build/bench/bench_micro_perf}"
BENCH_RECOVERY_MTTR="${BENCH_RECOVERY_MTTR:-build/bench/bench_recovery_mttr}"
BENCH_COMPARE="${BENCH_COMPARE:-build/tools/bench_compare}"
BASELINE="${BASELINE:-bench/baselines/BENCH_micro_perf.json}"
CURRENT="${CURRENT:-bench_out/BENCH_micro_perf.json}"
BASELINE_RECOVERY="${BASELINE_RECOVERY:-bench/baselines/BENCH_recovery_mttr.json}"
CURRENT_RECOVERY="${CURRENT_RECOVERY:-bench_out/BENCH_recovery_mttr.json}"
BENCH_PARTITION_AVAILABILITY="${BENCH_PARTITION_AVAILABILITY:-build/bench/bench_partition_availability}"
BASELINE_PARTITION="${BASELINE_PARTITION:-bench/baselines/BENCH_partition_availability.json}"
CURRENT_PARTITION="${CURRENT_PARTITION:-bench_out/BENCH_partition_availability.json}"
BENCH_OVERLOAD_DEGRADATION="${BENCH_OVERLOAD_DEGRADATION:-build/bench/bench_overload_degradation}"
BASELINE_OVERLOAD="${BASELINE_OVERLOAD:-bench/baselines/BENCH_overload_degradation.json}"
CURRENT_OVERLOAD="${CURRENT_OVERLOAD:-bench_out/BENCH_overload_degradation.json}"
THRESHOLD="${THRESHOLD:-0.5}"

# binary|bench args|baseline|current JSON|gated units|normalize
STAGES="\
$BENCH_MICRO_PERF|--benchmark_min_time=0.05 --benchmark_repetitions=3 --benchmark_enable_random_interleaving=true --benchmark_report_aggregates_only=true|$BASELINE|$CURRENT|ns/op|yes
$BENCH_RECOVERY_MTTR|--seconds=30|$BASELINE_RECOVERY|$CURRENT_RECOVERY|s|no
$BENCH_PARTITION_AVAILABILITY||$BASELINE_PARTITION|$CURRENT_PARTITION|s us|no
$BENCH_OVERLOAD_DEGRADATION|--seconds=10|$BASELINE_OVERLOAD|$CURRENT_OVERLOAD|us/txn ms|no"

while IFS='|' read -r bin args baseline current units normalize; do
  for f in "$bin" "$BENCH_COMPARE"; do
    if [ ! -x "$f" ]; then
      echo "perf_gate: missing binary $f (build first)" >&2
      exit 2
    fi
  done
  if [ ! -f "$baseline" ]; then
    echo "perf_gate: missing baseline $baseline" >&2
    exit 2
  fi
done <<EOF
$STAGES
EOF

status=0
while IFS='|' read -r bin args baseline current units normalize; do
  name=$(basename "$bin")
  rm -f "$current"
  # $args is empty or space-separated flags, so it is deliberately left
  # unquoted.
  if ! "$bin" $args </dev/null; then
    echo "perf_gate: $name exited non-zero" >&2
    exit 1
  fi
  if [ ! -f "$current" ]; then
    echo "perf_gate: $name wrote no JSON at $current" >&2
    exit 1
  fi
  for unit in $units; do
    set -- --baseline="$baseline" --current="$current" \
        --threshold="$THRESHOLD" --unit="$unit"
    [ "$normalize" = yes ] || set -- "$@" --no-normalize
    if ! "$BENCH_COMPARE" "$@" </dev/null; then
      status=1
    fi
  done
done <<EOF
$STAGES
EOF

exit "$status"

#!/usr/bin/env bash
# Trend-diff two `throughput --json` snapshots (as produced by
# scripts/bench_snapshot.sh and uploaded by CI as bench-snapshot.json):
# compare every timing row present in both files and emit a GitHub Actions
# `::warning::` annotation for each metric that regressed by more than the
# threshold (default 20%) — the table-build rows, the selection-stage rows
# (engine and reference sides), the batch-compile rows and the
# fabric-partition rows alike.
#
# Usage:  scripts/bench_trend.sh PREV.json CURR.json [THRESHOLD_PCT]
#
# Always exits 0 — runner timings are noisy, so the diff annotates the job
# for a human eye instead of gating the build. A missing/unreadable
# previous snapshot is reported and skipped.
set -euo pipefail

PREV="${1:?usage: bench_trend.sh PREV.json CURR.json [THRESHOLD_PCT]}"
CURR="${2:?usage: bench_trend.sh PREV.json CURR.json [THRESHOLD_PCT]}"
PCT="${3:-20}"

if ! command -v jq > /dev/null; then
    echo "bench_trend: jq not available, skipping trend diff"
    exit 0
fi
if [[ ! -r "$PREV" ]] || ! jq -e . "$PREV" > /dev/null 2>&1; then
    echo "bench_trend: no previous snapshot to diff against ($PREV), skipping"
    exit 0
fi
if [[ ! -r "$CURR" ]] || ! jq -e . "$CURR" > /dev/null 2>&1; then
    echo "bench_trend: current snapshot missing or unparseable ($CURR), skipping"
    exit 0
fi

# One "key<TAB>seconds" line per timing metric. Keys carry every row
# discriminator so additions/removals of rows simply don't pair up.
extract() {
    jq -r '
        [
          (.classify_rows[]? | {
              key: "classify/\(.workload)/C=\(.capacity)/span=\(.span_limit)",
              sec: .build_sec
          }),
          (.select_rows[]? | {
              key: "select/\(.workload)/\(.strategy)/\(.config // "default")",
              sec: .select_sec
          }),
          (.select_rows[]? | {
              key: "end_to_end/\(.workload)/\(.strategy)/\(.config // "default")",
              sec: .end_to_end_sec
          }),
          (.select_rows[]? | {
              key: "select_reference/\(.workload)/\(.strategy)/\(.config // "default")",
              sec: .select_reference_sec
          }),
          (.batch_rows[]? | {
              key: "batch/\(.workload)/workers=\(.workers)",
              sec: .batch_sec
          }),
          # sequential_sec is one measurement repeated on every batch row,
          # so extract it from the first row only (one comparison, one
          # possible warning — not one per worker count).
          ((.batch_rows // [])[0:1][] | {
              key: "batch_sequential/\(.workload)",
              sec: .sequential_sec
          }),
          (.partition_rows[]? | {
              key: "partition_compile/\(.workload)/fabric=\(.fabric)",
              sec: .compile_sec
          }),
          (.partition_rows[]? | {
              key: "partition_stage/\(.workload)/fabric=\(.fabric)",
              sec: .partition_sec
          })
        ]
        | .[] | select(.sec != null) | "\(.key)\t\(.sec)"
    ' "$1"
}

# Extract each snapshot once and join on the key in a single awk pass;
# regressed iff curr > prev * (1 + PCT/100), float math kept in awk.
prev_tsv="$(mktemp)"
curr_tsv="$(mktemp)"
trap 'rm -f "$prev_tsv" "$curr_tsv"' EXIT
extract "$PREV" > "$prev_tsv"
extract "$CURR" > "$curr_tsv"

awk -F'\t' -v t="$PCT" '
    NR == FNR { prev[$1] = $2; next }
    $1 in prev {
        p = prev[$1] + 0
        c = $2 + 0
        # A 0.0 baseline cannot anchor a percentage: skip the comparison
        # but say so, instead of silently pretending the metric was
        # checked (a snapshot full of zeros used to "pass" every diff).
        if (p <= 0) {
            skipped++
            printf "bench_trend: note: %s skipped (zero-second baseline %s)\n", $1, prev[$1]
            next
        }
        compared++
        if (c > p * (1 + t / 100)) {
            regressions++
            printf "::warning title=bench regression::%s: %ss -> %ss (+%.0f%%)\n", \
                $1, prev[$1], $2, (c / p - 1) * 100
        }
    }
    END {
        printf "bench_trend: compared %d metric(s), %d over the %s%% threshold, %d skipped on zero baselines\n", \
            compared, regressions, t, skipped + 0
    }
' "$prev_tsv" "$curr_tsv"
exit 0

#!/usr/bin/env bash
# Regenerate the repo's perf-trajectory snapshot: builds the release
# `throughput` binary, runs its pinned-count smoke check, and writes its
# JSON report to BENCH_<PR>.json at the repo root. The report holds four
# in-process sections: the state-DAG vs DFS-fold table build per registry
# kernel (classify), Eq. 8 / node-cover selection vs their reference
# loops (select), batch compiles at 1/2/4 workers (batch) and fabric
# compiles (partition). Run on an otherwise idle machine; the report takes
# about 100 s on 2 vCPUs, most of it in classify and select.
#
# Usage:  scripts/bench_snapshot.sh [PR_NUMBER]     (default: 2)
set -euo pipefail
cd "$(dirname "$0")/.."

PR="${1:-2}"
OUT="BENCH_${PR}.json"

cargo build --release -p mps-bench --bin throughput
./target/release/throughput --smoke
./target/release/throughput --json --pr "$PR" > "$OUT"
echo "wrote $OUT" >&2

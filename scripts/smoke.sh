#!/usr/bin/env bash
# End-to-end smoke test: drives the built `mps` CLI through the pipeline
# the paper describes, plus one table-regeneration binary. Fails on the
# first nonzero exit. CI runs this after the release build; run it
# locally with:  cargo build --release && scripts/smoke.sh
set -euo pipefail

BIN_DIR="${BIN_DIR:-target/release}"

run() {
    echo "== $*"
    "$@" > /dev/null
}

if [[ ! -x "$BIN_DIR/mps" ]]; then
    echo "error: $BIN_DIR/mps not built (run: cargo build --release --workspace)" >&2
    exit 1
fi

# Workload catalogue and graph statistics.
run "$BIN_DIR/mps" list
run "$BIN_DIR/mps" info fig2

# Skewed stress graphs (pinned counts checked below by `throughput
# --smoke`).
run "$BIN_DIR/mps" info star16
run "$BIN_DIR/mps" info star32
run "$BIN_DIR/mps" info broom64

# The paper's selection algorithm on the 5-point DFT with Pdef = 4.
run "$BIN_DIR/mps" select dft5 --pdef 4

# Full pipeline (select + schedule + pipelining analysis) on a 16-tap FIR.
run "$BIN_DIR/mps" pipeline fir16

# One table binary: Table 1 reprints Fig. 2's ASAP/ALAP/height levels.
run "$BIN_DIR/table1"

# Enumeration semantics guard: antichain counts on small graphs must match
# the values pinned in the throughput binary, so perf refactors of the
# enumerator/classifier cannot silently change what is being counted.
run "$BIN_DIR/throughput" --smoke

echo "smoke: all commands exited 0"

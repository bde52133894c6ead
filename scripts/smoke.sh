#!/usr/bin/env bash
# End-to-end smoke test: drives the built `mps` CLI through the pipeline
# the paper describes, then runs every table/figure binary the README
# lists. Fails on the first nonzero exit. CI runs this after the release
# build; run it locally with:  cargo build --release && scripts/smoke.sh
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

# Multi-tile partitioning; a fabric spec beyond `FabricParams`' bounds
# is refused with exit 2 before any tile is allocated.
run "$BIN_DIR/mps" partition fig2 --fabric 4:3,16@2
for spec in 100000000 2:100000000,4; do
    echo "== $BIN_DIR/mps partition fig2 --fabric $spec (must exit 2)"
    code=0
    "$BIN_DIR/mps" partition fig2 --fabric "$spec" > /dev/null 2>&1 || code=$?
    if [[ $code -ne 2 ]]; then
        echo "error: --fabric $spec exited $code, expected 2" >&2
        exit 1
    fi
done

# Every binary README § "The paper's tables" lists must build and run.
# `figures` writes its .dot files into a temp dir, not the checkout.
for bin in table1 table2 table3 table4 table5 table6 table7 selectors \
    pipelining multikernel reconfig ablation extensions workloads; do
    run "$BIN_DIR/$bin"
done
fig_dir=$(mktemp -d)
trap 'rm -rf "$fig_dir"' EXIT
run "$BIN_DIR/figures" "$fig_dir"
test -s "$fig_dir/fig2.dot" && test -s "$fig_dir/fig4.dot"

# Enumeration semantics guard: antichain counts on small graphs must match
# the values pinned in the throughput binary, so perf refactors of the
# enumerator/classifier cannot silently change what is being counted.
run "$BIN_DIR/throughput" --smoke

echo "smoke: all commands exited 0"

#!/usr/bin/env bash
# Build the release `mps` binary and the `mpsbench` program from source, then
# run one benchmark workload. Run from the repository root:
#
#   bash mpsbench/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
#
# Cargo output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f mpsbench/Cargo.toml ]]; then
    echo "mpsbench: run from the root of a repository checkout" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR="$target"

cargo build --quiet --release --offline --locked -p mps-cli >&2
cargo build --quiet --release --offline --locked --manifest-path mpsbench/Cargo.toml >&2

exec "$target/release/mpsbench" --mps "$target/release/mps" "$@"

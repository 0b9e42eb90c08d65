#!/usr/bin/env bash
# Builds the benchmark and the real `srtd-server` binary from source, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign_batch --seed 1 --seconds 25 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml
cargo build --quiet --release --offline --bin srtd-server
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/srtd-server" \
    --out "$CARGO_TARGET_DIR/perfbench" "$@"

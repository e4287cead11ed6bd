#!/usr/bin/env bash
# Build the `microbrowse` server and the load generator from source, then
# run one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch_hot --seed 1 --seconds 10 --trace 0
#
# The last line of stdout is the JSON result; build output goes to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --locked -q -p microbrowse-cli --bin microbrowse
cargo build --release -q --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --bin "$CARGO_TARGET_DIR/release/microbrowse" \
    --work "$CARGO_TARGET_DIR/perfbench-work" "$@"

#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one workload:
#   bash kbbench/run.sh --workload hot-repeat --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target); the benchmark's scratch files go under it too.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin patternkb-cli >&2
cargo build --release --offline --quiet --manifest-path kbbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/kbbench" --cli "$CARGO_TARGET_DIR/release/patternkb-cli" \
  --work "$CARGO_TARGET_DIR/kbbench-work" "$@"

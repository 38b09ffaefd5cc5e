#!/usr/bin/env bash
# Build the release `pfd` binary and the benchmark harness from source, then
# run one workload:
#
#   bash cleanbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build artifacts and the per-run work
# directory live under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin pfd >&2
cargo build --release --offline --quiet --manifest-path cleanbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cleanbench" \
    --pfd "$CARGO_TARGET_DIR/release/pfd" \
    --work "$CARGO_TARGET_DIR/cleanbench-work" \
    "$@"

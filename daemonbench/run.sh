#!/usr/bin/env bash
# Builds the fetch-serve daemon and the daemonbench load generator from
# source, then runs daemonbench with the arguments given. Run from the
# repository root:
#
#   bash daemonbench/run.sh --workload cold_scan --seed 1 --seconds 10 --trace 0
#
# --workload all runs cold_scan, warm_repeat and rebuild_chain in turn.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p fetch-serve --bin fetch-serve >&2
cargo build --release --offline --quiet --manifest-path daemonbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/daemonbench" --daemon "$CARGO_TARGET_DIR/release/fetch-serve" "$@"

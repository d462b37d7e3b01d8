#!/usr/bin/env bash
# Builds the release `roundelim` binary and the benchmark from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload <search_c33|sim_1e6|daemon_mix|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default `.bench_build`), scratch files to `.bench_build/perfbench-work`.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin roundelim
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
"$CARGO_TARGET_DIR/release/perfbench" "$@"

#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package in release mode
# and runs it from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--repeat N]
#       every workload in a fresh process, untraced then traced; prints every
#       metric as `workload name value unit`, writes benchmark/out/results.json
#       and benchmark/out/trace-<workload>.json
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace <0|1>
#       one workload, once; the last line of output is the result as JSON
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/mbdr-benchmark" "$@"

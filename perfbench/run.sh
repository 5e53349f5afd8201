#!/usr/bin/env bash
# Builds the shipped `rtm` binary and the benchmark harness from the sources
# in this checkout, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload serve-mix|compile-suite|large-trace \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the JSON result. Exits non-zero (without a result) when the
# repository sources are not present.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of an rtm checkout (crates/cli not found)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p rtm-cli --bin rtm >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perfbench >&2
exec "$target/release/perfbench" --rtm "$target/release/rtm" --work-dir .bench_work "$@"

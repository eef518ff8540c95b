#!/usr/bin/env bash
# Everything that must hold before the benchmark crate changes: it builds,
# its own tests pass, clippy and rustfmt are clean, the smoke run emits
# exactly the metric names BENCHMARK.json lists, and the repository's lint
# (whose tree walk includes benchmark/src) stays clean.
#
# Run from anywhere; needs no network. CARGO_TARGET_DIR is honoured.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline -q
cargo clippy --release --offline --all-targets -- -D warnings
cargo fmt --check
if ! smoke=$(cargo run --release --offline --quiet -- run --smoke 2>&1 > /dev/null); then
    echo "$smoke"
    echo "benchmark/check.sh: the smoke run failed"
    exit 1
fi
(cd .. && cargo run --offline -q -p bolt-lint -- check .)
echo "benchmark/check.sh: all checks passed"

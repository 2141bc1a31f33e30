#!/usr/bin/env bash
# Self-check of the benchmark package: builds offline, runs its unit tests,
# runs one workload once, and asserts that the metric names it prints are
# exactly the ones BENCHMARK.json declares, and that the root workspace
# does not see this package. ~1 min. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/benchmark/target}"

echo "== offline release build"
cargo build --release --offline --manifest-path "$manifest"

echo "== unit tests"
cargo test --release --offline --manifest-path "$manifest"

echo "== one workload, one repetition"
result="$CARGO_TARGET_DIR/selfcheck_run.json"
log="$CARGO_TARGET_DIR/selfcheck_run.log"
cargo run --release --offline --quiet --manifest-path "$manifest" -- \
    run --reps 1 --only sense4_cob --out "$result" | tee "$log"

echo "== printed metric names == declared metric names"
# A metric line is "<name> <number> <unit> ..." or "<name> not measured".
printed=$(grep -E '^[a-z0-9_.]+ +([-+0-9.e]+ +[A-Za-z0-9/%_.-]+( |$)|not measured$)' "$log" | awk '{print $1}' | sort)
declared=$(sed -n '/"end_to_end"/,$p' BENCHMARK.json | grep -o '"name": "[^"]*"' | cut -d'"' -f4 | sort)
if [ "$printed" != "$declared" ]; then
    echo "metric names differ (< printed, > declared):" >&2
    diff <(echo "$printed") <(echo "$declared") >&2 || true
    exit 1
fi
echo "   $(echo "$declared" | wc -l) names match"

echo "== the root workspace does not see benchmark/"
# Not a member: `cargo build` / `cargo test` at the root neither compile
# nor wait for this package.
if cargo metadata --no-deps --offline --format-version 1 | grep -q '"name":"sde-benchmark"'; then
    echo "sde-benchmark leaked into the root workspace" >&2
    exit 1
fi

echo "selfcheck passed"

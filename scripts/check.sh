#!/usr/bin/env bash
# Full pre-merge gate: formatting, repo-native lint, build, tests.
# Everything here runs offline (the workspace has no external deps).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> turbopool-lint (no findings beyond crates/lint/lint_baseline.json)"
# The JSON report is kept as a CI artifact; new findings fail the gate.
cargo run -q -p turbopool-lint -- --format json > LINT_REPORT.json
cat LINT_REPORT.json

echo "==> turbopool-lint (seeded fixtures must fail)"
if cargo run -q -p turbopool-lint -- crates/lint/fixtures >/dev/null 2>&1; then
    echo "ERROR: linter exited 0 on the seeded-violation fixtures" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test -q --workspace

echo "==> bench targets build warning-free"
RUSTFLAGS="-D warnings" cargo bench --workspace --no-run

echo "==> fault matrix (invariant auditor compiled out: --no-default-features)"
cargo test -q --no-default-features --test fault_injection --test crash_torture

echo "==> crash-schedule sweep (strided, all five designs)"
cargo test -q --release --test crash_schedule quick_sweep_all_designs

echo "==> parallel-driver determinism incl. brownout replay (strict invariants on)"
cargo test -q --release --features strict-invariants --test driver_determinism

echo "==> driver scaling bench (quick, emits BENCH_driver_scaling.json)"
TURBO_QUICK=1 cargo bench -q -p turbopool-bench --bench driver_scaling

echo "==> brownout bench (quick, asserts CW/DW/LC >= 2x noSSD while degraded)"
TURBO_QUICK=1 cargo bench -q -p turbopool-bench --bench brownout

echo "==> recovery bench (quick, emits BENCH_recovery.json)"
TURBO_QUICK=1 cargo bench -q -p turbopool-bench --bench recovery

echo "==> policy arena bench (quick, emits BENCH_policy_arena.json)"
TURBO_QUICK=1 cargo bench -q -p turbopool-bench --bench policy_arena

echo "All checks passed."

#!/usr/bin/env bash
# Tier-1 verification, in order:
#   1. release build;
#   2. the whole workspace's test suite under the default thread count and
#      under IBRAR_THREADS=1 (the determinism guarantee says the two runs
#      must see identical numbers; this includes the differential,
#      conformance, gradient-audit and golden snapshot suites and the
#      end-to-end serving tests in crates/serve/tests, so each test binary
#      runs once per thread count);
#   3. the perf_report smoke and its committed regression gate (--check);
#   4. the repository benchmark's build and smoke test (ibbench/);
#   5. workspace-wide clippy and fmt gates.
# Build and test steps pass `--locked`, so a manifest edit without the
# matching `Cargo.lock` update fails here.
#
# A failing workspace test run does not stop the script. Each run goes
# through every test binary (`--no-fail-fast`), the other thread count and
# every later gate still run, and the script exits non-zero at the end. So
# one failing test cannot hide another, or a broken gate after it.
#
#   scripts/ci.sh            # steps 1-5
#   scripts/ci.sh --fast     # lib tests only, no release build; step 5's lints
set -euo pipefail
cd "$(dirname "$0")/.."

TESTS_FAILED=0
FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *)
            echo "unknown argument: $arg" >&2
            echo "usage: scripts/ci.sh [--fast]" >&2
            exit 2
            ;;
    esac
done

if [[ $FAST -eq 1 ]]; then
    echo "== test (--fast: lib tests only) =="
    cargo test -q --locked --workspace --lib --no-fail-fast || TESTS_FAILED=1
else
    echo "== build (release) =="
    cargo build --release --locked

    echo "== test (default thread count) =="
    cargo test -q --locked --workspace --no-fail-fast || TESTS_FAILED=1

    echo "== test (IBRAR_THREADS=1) =="
    IBRAR_THREADS=1 cargo test -q --locked --workspace --no-fail-fast || TESTS_FAILED=1

    echo "== perf report smoke (ibrar-perf-report/v2 on stdout, no timing assertions) =="
    # Times every perf_report workload at toy sizes and checks that each
    # median reads back as a reference; never judges the timings. Writes
    # no file.
    cargo run --release -q --locked -p ibrar-bench --bin perf_report -- --smoke

    echo "== perf regression gate (every BENCH_PR*.json in the repo root) =="
    # Re-times the gated workloads (train_step, vib_train_step, serve_batch,
    # serve_batch_int8, qgemm, serve_fleet) on the current build and fails
    # if any median exceeds the reference a listed BENCH_PR*.json records
    # for it (the smallest of baseline_ms/optimized_ms/median_ms) by more
    # than perf_report's documented REGRESSION_FACTOR (2x — above
    # shared-host timing noise, below a structural regression). Every gated
    # workload must find a reference in at least one file.
    cargo run --release -q --locked -p ibrar-bench --bin perf_report -- --check

    echo "== repository benchmark (ibbench build + smoke test) =="
    # ibbench is a package and workspace of its own, so the workspace
    # commands above never build it. Its smoke test runs every workload at
    # toy scale and checks its output schema against BENCHMARK.json, so a
    # change that breaks a public item the benchmark calls fails here.
    cargo test --release --offline --manifest-path ibbench/Cargo.toml
fi

echo "== clippy (whole workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

if command -v rustfmt >/dev/null 2>&1; then
    echo "== fmt check (whole workspace) =="
    cargo fmt --all --check
fi

if [[ $TESTS_FAILED -ne 0 ]]; then
    echo "ci: every gate ran, but a workspace test run failed (see its output above)" >&2
    exit 1
fi
echo "ci: all gates passed"

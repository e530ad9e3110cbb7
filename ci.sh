#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test suite.
# Everything runs offline against the vendored workspace.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings: broken intra-doc links fail the gate)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> vmin-lint v2 (determinism dataflow / contract / panic-hygiene gate)"
cargo run -q -p vmin-lint -- --list-rules
VMIN_LINT_JSON=target/vmin-lint.json cargo run -q -p vmin-lint -- --deny
test -s target/vmin-lint.json
grep -q '"schema": "vmin-lint/v2"' target/vmin-lint.json
grep -q '"status": "clean"' target/vmin-lint.json
# The deny run must have enforced the checked-in contract registry (an
# unreadable/missing contracts.toml under --deny is a hard error, so this
# grep is belt-and-braces against a silent schema change).
grep -q '"enforced": true' target/vmin-lint.json
# The suppression budget rides the ratchet: every crate that spends allow
# comments must show up, and (via the baseline no-op below) never grow.
grep -q '"rule": "suppression-budget"' target/vmin-lint.json
# The committed ratchet baseline must be tight: rewriting it at the current
# counts has to be a no-op, otherwise somebody improved a count without
# tightening (or the file was hand-edited upward).
cargo run -q -p vmin-lint -- --update-baseline
git diff --exit-code -- lint-baseline.json
# Same tightness contract for the contract registry: --update-contracts
# only drops stale entries and renormalizes, so on a healthy tree it is a
# byte-for-byte no-op. A diff here means an env var or metric was removed
# from the code without being unregistered (or the file drifted from
# canonical form).
cargo run -q -p vmin-lint -- --update-contracts
git diff --exit-code -- contracts.toml

echo "==> tier-1: cargo build --release && cargo test -q --workspace (default thread pool)"
# --workspace is a superset of the root package's `cargo test -q`: it adds
# every crate's own unit, integration and doc tests (the exact-scan
# oracles of vmin-models, the silicon search oracle, the serve fixtures).
cargo build --release
cargo test -q --workspace

echo "==> tier-1 again, pinned serial (VMIN_THREADS=1)"
VMIN_THREADS=1 cargo test -q

echo "==> tier-1 again, tracing disabled (VMIN_TRACE=0)"
VMIN_TRACE=0 cargo test -q

echo "==> vmin-trace report: schema + cross-thread-count counter identity"
# The one production path (no behaviour switches) at two thread counts.
# tests/determinism.rs (tier-1 legs above) holds the per-pipeline thread
# matrices in process; this leg is the process-level check, through the
# VMIN_THREADS and VMIN_TRACE_JSON environment variables.
VMIN_THREADS=1 VMIN_TRACE_JSON=target/trace-t1.json \
    cargo run -q --release -p vmin-bench --bin trace_report
VMIN_THREADS=8 VMIN_TRACE_JSON=target/trace-t8.json \
    cargo run -q --release -p vmin-bench --bin trace_report
for f in target/trace-t1.json target/trace-t8.json; do
    test -s "$f"
    grep -q '"schema": "vmin-trace/v1"' "$f"
    grep -q '"kind": "counter"' "$f"
    grep -q '"kind": "timer"' "$f"
done
# The deterministic sections (counters, gauges, histograms) must be
# line-identical across thread counts; topology and timer lines are the
# two documented exemptions.
for kind in counter gauge histogram; do
    diff <(grep "\"kind\": \"$kind\"" target/trace-t1.json) \
         <(grep "\"kind\": \"$kind\"" target/trace-t8.json) \
        || { echo "vmin-trace $kind section differs between VMIN_THREADS=1 and 8"; exit 1; }
done
# The fit-plan memo counters: in the trace_report workload each XGBoost
# fold fit and each CQR pair computes one bin table (a build), and each
# pair's second fit is served it from the shared plan (a reuse), so both
# must appear.
grep -q '"models.fitplan.build"' target/trace-t1.json
grep -q '"models.fitplan.reuse"' target/trace-t1.json

echo "==> perfbench bit-identity smoke: reference digests of the gated workloads and rescreen"
# Each run first digests its leading requests at seed 1 and compares them
# with perfbench/reference.txt; any moved bit makes "correct" false.
# rescreen (ungated) is nearly all serving, so it pins the bits of
# 256-row serve blocks.
for w in fleet_screen table3_cell rescreen; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0 > "target/perfbench-$w.txt"
    tail -n 1 "target/perfbench-$w.txt" | grep -q '"correct": true' \
        || { echo "perfbench $w: output digests differ from perfbench/reference.txt"; exit 1; }
done

echo "CI green."

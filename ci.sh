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
# The fit-plan memo counters: the trace_report workload routes through
# GBT-family CQR fits, so plan builds and memo hits must both appear.
grep -q '"models.fitplan.build"' target/trace-t1.json
grep -q '"models.fitplan.reuse"' target/trace-t1.json

echo "==> histogram split leg: thread invariance, trace counters"
# The binned path must be bit-identical under any thread count.
VMIN_THREADS=1 VMIN_TRACE_JSON=target/trace-hist.json \
    cargo run -q --release -p vmin-bench --bin hist_smoke > target/hist-t1.txt
VMIN_THREADS=8 VMIN_TRACE_JSON=target/trace-hist-t8.json \
    cargo run -q --release -p vmin-bench --bin hist_smoke > target/hist-t8.txt
test -s target/hist-t1.txt
diff target/hist-t1.txt target/hist-t8.txt \
    || { echo "binned intervals differ between VMIN_THREADS=1 and 8"; exit 1; }
# The binned path's deterministic counters (tree fits, level searches,
# round-memo hits, ...) must not depend on the thread count either: same
# line-identity check as the trace_report leg, on the histogram exports.
test -s target/trace-hist-t8.json
for kind in counter gauge histogram; do
    diff <(grep "\"kind\": \"$kind\"" target/trace-hist.json) \
         <(grep "\"kind\": \"$kind\"" target/trace-hist-t8.json) \
        || { echo "hist_smoke $kind section differs between VMIN_THREADS=1 and 8"; exit 1; }
done
# The histogram kernels' deterministic counters must reach the trace report.
test -s target/trace-hist.json
grep -q '"models.hist.level_searches"' target/trace-hist.json
grep -q '"models.hist.child_subtracted"' target/trace-hist.json
# Bins the GBT boundary scans visited (only each node's marked bins).
grep -q '"models.hist.bins_scanned"' target/trace-hist.json
# Pinball rounds served from the per-fit round memo, both boosters.
grep -q '"models.gbt.memo_hits"' target/trace-hist.json
grep -q '"models.oblivious.memo_hits"' target/trace-hist.json

echo "==> streaming drift leg: thread invariance, trace counters"
# The drifted stream must be byte-identical under any thread count (the
# binary also checks that the drift moved the degradation ladder).
VMIN_THREADS=1 VMIN_TRACE_JSON=target/trace-drift.json \
    cargo run -q --release -p vmin-bench --bin drift_smoke > target/drift-t1.txt
VMIN_THREADS=8 \
    cargo run -q --release -p vmin-bench --bin drift_smoke > target/drift-t8.txt
diff target/drift-t1.txt target/drift-t8.txt \
    || { echo "drift stream differs between VMIN_THREADS=1 and 8"; exit 1; }
# The adaptive layer's deterministic counters must reach the trace report.
test -s target/trace-drift.json
grep -q '"conformal.adaptive.observations"' target/trace-drift.json
grep -q '"conformal.adaptive.recalibrations"' target/trace-drift.json
grep -q '"conformal.adaptive.transitions"' target/trace-drift.json
grep -q '"core.stream.read_points"' target/trace-drift.json

echo "==> serve leg: thread invariance, artifact header"
# (The serving suites — tests/serve_equivalence.rs and vmin-serve's golden
# artifact fixtures — run in the tier-1 --workspace leg.)
# Served interval bits and artifact bytes must be identical across thread
# counts (the binary also checks every served row against the live path).
VMIN_THREADS=1 VMIN_TRACE_JSON=target/trace-serve.json \
    cargo run -q --release -p vmin-bench --bin serve_smoke target/serve-t1.bin \
    > target/serve-t1.txt
VMIN_THREADS=4 VMIN_TRACE_JSON=target/trace-serve-t4.json \
    cargo run -q --release -p vmin-bench --bin serve_smoke target/serve-t4.bin \
    > target/serve-t4.txt
diff target/serve-t1.txt target/serve-t4.txt \
    || { echo "served bits differ between VMIN_THREADS=1 and 4"; exit 1; }
# A freshly written artifact must lead with the versioned magic, and the
# bytes must not depend on the thread count.
grep -aq 'vmin-artifact/v1' target/serve-t1.bin
cmp target/serve-t1.bin target/serve-t4.bin \
    || { echo "artifact bytes depend on VMIN_THREADS"; exit 1; }
# The serving counters must reach the trace export.
test -s target/trace-serve.json
grep -q '"serve.rows"' target/trace-serve.json
grep -q '"serve.artifact.saves"' target/trace-serve.json
# The derived kernel-table bytes of the served model: present, and the
# same at both thread counts.
grep -q '"serve.table.bytes"' target/trace-serve.json
diff <(grep '"serve.table.bytes"' target/trace-serve.json) \
    <(grep '"serve.table.bytes"' target/trace-serve-t4.json) \
    || { echo "serve.table.bytes differs between VMIN_THREADS=1 and 4"; exit 1; }

echo "==> stream leg: chunk/thread invariance + trace counters"
# (The vmin-silicon suite — the Vmin-search oracle and the chunked stream
# equivalence — runs in the tier-1 --workspace leg.)
# stream_smoke prints one digest per streamed chip plus the fused screening
# report; threads only change shard fan-out, so stdout must be
# byte-identical at 1 and 8. The binary itself re-streams the fleet at an
# odd chunk size and dies if any chip digest moves.
VMIN_THREADS=1 VMIN_TRACE_JSON=target/trace-stream.json \
    cargo run -q --release -p vmin-bench --bin stream_smoke > target/stream-t1.txt
VMIN_THREADS=8 \
    cargo run -q --release -p vmin-bench --bin stream_smoke > target/stream-t8.txt
test -s target/stream-t1.txt
diff target/stream-t1.txt target/stream-t8.txt \
    || { echo "streamed chips differ between VMIN_THREADS=1 and 8"; exit 1; }
# The stream and fused-screening counters must reach the trace export.
test -s target/trace-stream.json
grep -q '"silicon.stream.chunks"' target/trace-stream.json
grep -q '"silicon.stream.chips"' target/trace-stream.json
grep -q '"silicon.stream.shards"' target/trace-stream.json
grep -q '"fleet.chips"' target/trace-stream.json
grep -q '"fleet.blocks"' target/trace-stream.json
# The Vmin-search work counters: searches per streamed block, predicate
# calls, path-delay evaluations and certified-bracket searches flushed once
# per shard. Their thread invariance rides the trace_report t1-vs-t8
# counter diff above.
grep -q '"silicon.vmin.searches"' target/trace-stream.json
grep -q '"silicon.vmin.bisect_steps"' target/trace-stream.json
grep -q '"silicon.device.evals"' target/trace-stream.json
grep -q '"silicon.vmin.certified"' target/trace-stream.json

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

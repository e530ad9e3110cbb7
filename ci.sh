#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test suite.
# Everything runs offline against the vendored workspace.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

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

echo "==> tier-1: cargo build --release && cargo test -q (default thread pool)"
cargo build --release
cargo test -q

echo "==> tier-1 again, pinned serial (VMIN_THREADS=1)"
VMIN_THREADS=1 cargo test -q

echo "==> tier-1 again, tracing disabled (VMIN_TRACE=0)"
VMIN_TRACE=0 cargo test -q

echo "==> vmin-trace report: schema + cross-thread-count counter identity"
# The production path (histograms on, default knobs) at two thread counts.
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

echo "==> bench smoke: par_speedup + fit_hist write target/BENCH_PR5.json"
# Absolute path: the bench binary's CWD is the package dir, not the repo root.
VMIN_BENCH_JSON="$PWD/target/BENCH_PR5.json" VMIN_BENCH_SAMPLES=3 \
    cargo bench -p vmin-bench --bench par_speedup
test -s target/BENCH_PR5.json
grep -q '"threads":' target/BENCH_PR5.json
# The thread sweep writes one row per thread count — ids carry the count.
grep -q '"id": "matmul_threads1"' target/BENCH_PR5.json
grep -q '"id": "matmul_threads2"' target/BENCH_PR5.json
grep -q '"id": "campaign_small_threads1"' target/BENCH_PR5.json
grep -q '"id": "table3_region_cell_threads2"' target/BENCH_PR5.json
# The fit-hist group records exact-vs-binned pairs (PR 7 tentpole).
grep -q '"group": "fit_hist"' target/BENCH_PR5.json
grep -q '"id": "catboost_fit_exact"' target/BENCH_PR5.json
grep -q '"id": "catboost_fit_hist"' target/BENCH_PR5.json
grep -q '"id": "gbt_fit_hist"' target/BENCH_PR5.json
grep -q '"id": "cqr_xgb_region_cell_hist"' target/BENCH_PR5.json
grep -q '"id": "cqr_catboost_region_cell_hist"' target/BENCH_PR5.json

echo "==> histogram split leg: thread invariance, kill switch, trace counters"
# The binned path must be bit-identical under any thread count.
VMIN_HIST=1 VMIN_THREADS=1 VMIN_TRACE_JSON=target/trace-hist.json \
    cargo run -q --release -p vmin-bench --bin hist_smoke > target/hist-t1.txt
VMIN_HIST=1 VMIN_THREADS=8 VMIN_TRACE_JSON=target/trace-hist-t8.json \
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
# The kill switch must actually change the fitted models (the binary also
# self-checks that binned stays numerically close to exact in-process).
VMIN_HIST=0 VMIN_THREADS=1 \
    cargo run -q --release -p vmin-bench --bin hist_smoke > target/hist-off.txt
if diff -q target/hist-t1.txt target/hist-off.txt > /dev/null; then
    echo "VMIN_HIST=0 output is identical to the binned run"; exit 1
fi
# The histogram kernels' deterministic counters must reach the trace report.
test -s target/trace-hist.json
grep -q '"models.hist.tree_fits"' target/trace-hist.json
grep -q '"models.hist.oblivious_fits"' target/trace-hist.json
grep -q '"models.hist.level_searches"' target/trace-hist.json
grep -q '"models.hist.child_subtracted"' target/trace-hist.json
# Pinball rounds served from the per-fit round memo, both boosters.
grep -q '"models.gbt.memo_hits"' target/trace-hist.json
grep -q '"models.oblivious.memo_hits"' target/trace-hist.json

echo "==> streaming drift leg: thread invariance, kill switch, trace counters"
# The drifted stream must be byte-identical under any thread count.
VMIN_ADAPTIVE=1 VMIN_THREADS=1 VMIN_TRACE_JSON=target/trace-drift.json \
    cargo run -q --release -p vmin-bench --bin drift_smoke > target/drift-t1.txt
VMIN_ADAPTIVE=1 VMIN_THREADS=8 \
    cargo run -q --release -p vmin-bench --bin drift_smoke > target/drift-t8.txt
diff target/drift-t1.txt target/drift-t8.txt \
    || { echo "drift stream differs between VMIN_THREADS=1 and 8"; exit 1; }
# The kill switch must actually change behavior on a drifting stream (the
# binary self-checks the frozen-static degradation contract when disabled).
VMIN_ADAPTIVE=0 VMIN_THREADS=1 \
    cargo run -q --release -p vmin-bench --bin drift_smoke > target/drift-off.txt
if diff -q target/drift-t1.txt target/drift-off.txt > /dev/null; then
    echo "VMIN_ADAPTIVE=0 output is identical to the adaptive run"; exit 1
fi
# The adaptive layer's deterministic counters must reach the trace report.
test -s target/trace-drift.json
grep -q '"conformal.adaptive.observations"' target/trace-drift.json
grep -q '"conformal.adaptive.recalibrations"' target/trace-drift.json
grep -q '"conformal.adaptive.transitions"' target/trace-drift.json
grep -q '"core.stream.read_points"' target/trace-drift.json

echo "==> serve leg: equivalence + golden artifacts, thread invariance, artifact header"
# The dedicated serving suites: flattened kernels byte-identical to the
# live path, and the golden artifact fixtures still decode bit-for-bit.
cargo test -q --test serve_equivalence
cargo test -q -p vmin-serve
# Served interval bits and artifact bytes must be identical across thread
# counts (the binary also checks every served row against the live path).
VMIN_THREADS=1 VMIN_TRACE_JSON=target/trace-serve.json \
    cargo run -q --release -p vmin-bench --bin serve_smoke target/serve-t1.bin \
    > target/serve-t1.txt
VMIN_THREADS=4 \
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

echo "==> bench smoke: serve_throughput writes target/BENCH_PR9.json"
VMIN_BENCH_JSON="$PWD/target/BENCH_PR9.json" VMIN_BENCH_SAMPLES=3 \
    cargo bench -p vmin-bench --bench serve_throughput
test -s target/BENCH_PR9.json
grep -q '"id": "gbt_trait_dispatch"' target/BENCH_PR9.json
grep -q '"id": "gbt_flat_batch"' target/BENCH_PR9.json
grep -q '"id": "catboost_flat_batch"' target/BENCH_PR9.json
grep -q '"id": "gbt_flat_batch_parallel"' target/BENCH_PR9.json

echo "==> stream leg: chunk/thread invariance + trace counters"
# The whole vmin-silicon suite (tier-1 runs only the root package): unit
# tests including the Vmin-search oracle, the stream suite (chunked
# generation bit-identical to the monolithic campaign across seeds ×
# chunk sizes × thread counts), the property tests and the doctests.
cargo test -q -p vmin-silicon
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

echo "==> bench smoke: fleet_throughput writes target/BENCH_PR10.json"
VMIN_BENCH_JSON="$PWD/target/BENCH_PR10.json" VMIN_BENCH_SAMPLES=1 VMIN_BENCH_FLEET=2000 \
    cargo bench -p vmin-bench --bench fleet_throughput
test -s target/BENCH_PR10.json
grep -q '"id": "generate_only_c2000"' target/BENCH_PR10.json
grep -q '"id": "serve_only_c2000"' target/BENCH_PR10.json
grep -q '"id": "fused_generate_serve_c2000"' target/BENCH_PR10.json
grep -q '"id": "materialize_then_serve_c2000"' target/BENCH_PR10.json

echo "==> perfbench bit-identity smoke: reference digests of both gated workloads"
# Each run first digests its leading requests at seed 1 and compares them
# with perfbench/reference.txt; any moved bit makes "correct" false.
for w in fleet_screen table3_cell; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0 > "target/perfbench-$w.txt"
    tail -n 1 "target/perfbench-$w.txt" | grep -q '"correct": true' \
        || { echo "perfbench $w: output digests differ from perfbench/reference.txt"; exit 1; }
done

echo "CI green."

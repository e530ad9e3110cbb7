//! Thread-sweep timing for the hot paths the `vmin-par` layer accelerates.
//!
//! The `par_speedup` group runs each workload once per thread count in
//! {1, 2, available} via `vmin_par::with_threads`, writing one row per
//! thread count (ids end in `_threads{n}`). Earlier revisions timed a
//! "serial" and a "parallel" row in a single invocation, which measured the
//! same code path whenever the process was pinned to one thread — the sweep
//! makes the thread count part of the benchmark id instead of an ambient
//! setting. On a single-core host the rows coincide by construction.
//!
//! After the group runs in bench mode, `assert_small_input_thread2_sanity`
//! re-reads the recorded minima and fails the process if the 2-thread rows
//! of the small workloads regress materially past their 1-thread rows —
//! the serial-fallback thresholds exist precisely to keep thread handoff
//! off tiny inputs.
//!
//! Run: `VMIN_BENCH_JSON=$PWD/target/BENCH_PR5.json cargo bench -p vmin-bench --bench par_speedup`

use vmin_bench::harness::Criterion;
use vmin_bench::{criterion_group, criterion_main};
use vmin_core::{
    assemble_dataset, run_region_cell_on, ExperimentConfig, FeatureSet, PointModel, RegionMethod,
};
use vmin_linalg::Matrix;
use vmin_silicon::{Campaign, DatasetSpec};

/// Deterministic dense test matrix (same LCG family as the linalg tests).
fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// Thread counts to sweep: 1, 2 and whatever the pool would use, deduped
/// and ascending so the ids stay stable across hosts.
fn thread_sweep() -> Vec<usize> {
    let mut counts = vec![1, 2, vmin_par::current_threads()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn bench_par_speedup(c: &mut Criterion) {
    let a = pseudo_random(160, 220, 11);
    let b = pseudo_random(220, 140, 12);
    let campaign = Campaign::run(&DatasetSpec::small(), 7);
    let cfg = ExperimentConfig::fast();
    let cell = assemble_dataset(&campaign, 0, 1, FeatureSet::Both)
        .unwrap_or_else(|e| die(&format!("assemble small cell: {e}")));

    let mut group = c.benchmark_group("par_speedup");
    group.sample_size(10);

    for threads in thread_sweep() {
        group.bench_function(&format!("matmul_threads{threads}"), |bch| {
            bch.iter(|| {
                vmin_par::with_threads(threads, || {
                    a.matmul(&b)
                        .unwrap_or_else(|e| die(&format!("matmul: {e}")))
                })
            })
        });
        group.bench_function(&format!("campaign_small_threads{threads}"), |bch| {
            bch.iter(|| vmin_par::with_threads(threads, || Campaign::run(&DatasetSpec::small(), 7)))
        });
        group.bench_function(&format!("table3_region_cell_threads{threads}"), |bch| {
            bch.iter(|| {
                vmin_par::with_threads(threads, || {
                    run_region_cell_on(&cell, RegionMethod::Cqr(PointModel::Linear), &cfg)
                        .unwrap_or_else(|e| die(&format!("region cell: {e}")))
                })
            })
        });
    }

    group.finish();
}

/// Serial-fallback regression guard (PR 7): `BENCH_PR5.json` showed the
/// 2-thread rows of the two smallest workloads running *slower* than their
/// 1-thread rows — thread handoff overhead on inputs below the profitable
/// size. After raising the fallback thresholds, the 2-thread minima must
/// stay within a noise margin of the 1-thread minima. Runs only in bench
/// mode (smoke mode records a single untrustworthy sample) and only over
/// ids that were actually recorded.
fn assert_small_input_thread2_sanity(c: &mut Criterion) {
    if !c.is_bench_mode() {
        return;
    }
    let min_of = |id: &str| {
        c.records()
            .iter()
            .find(|r| r.group == "par_speedup" && r.id == id)
            .map(|r| r.min_ns)
    };
    let checks = [
        ("matmul_threads1", "matmul_threads2", 1.6),
        // PR 10: BENCH_PR7.json showed campaign_small 16% slower at two
        // threads (26.2 ms vs 22.6 ms serial) because chip fabrication ran
        // serially on the coordinator while only measurement fanned out.
        // Fabrication now runs inside the per-chip workers (the stream's
        // counter-derived RNG schedule makes that safe), so the 2-thread
        // row must stay within noise of the 1-thread row.
        ("campaign_small_threads1", "campaign_small_threads2", 1.15),
        (
            "table3_region_cell_threads1",
            "table3_region_cell_threads2",
            1.8,
        ),
    ];
    for (serial_id, t2_id, max_ratio) in checks {
        let (Some(serial), Some(t2)) = (min_of(serial_id), min_of(t2_id)) else {
            continue;
        };
        if serial == 0 {
            continue;
        }
        let ratio = t2 as f64 / serial as f64;
        if ratio > max_ratio {
            die(&format!(
                "{t2_id} min {t2} ns is {ratio:.2}x {serial_id} min {serial} ns \
                 (limit {max_ratio}x): serial fallback thresholds regressed"
            ));
        }
        eprintln!("thread2 sanity: {t2_id}/{serial_id} = {ratio:.2}x (limit {max_ratio}x)");
    }
}

/// Bench-binary failure exit without panic machinery (keeps the
/// `vmin-lint` panic ratchet flat).
fn die(msg: &str) -> ! {
    eprintln!("[par_speedup] fatal: {msg}");
    std::process::exit(1)
}

criterion_group!(
    benches,
    bench_par_speedup,
    assert_small_input_thread2_sanity,
);
criterion_main!(benches);

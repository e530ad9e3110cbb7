//! Workspace-level determinism guarantees of the `vmin-par` threading layer,
//! and the one home of the thread-invariance checks: the histogram, drift,
//! serve, stream and fleet-screen pipelines must be bit-identical at every
//! thread count (and chunk size, where the pipeline streams), and their
//! merged deterministic metrics (`Snapshot::deterministic_view`) must be
//! too. `par_map` must preserve input order and propagate worker panics.
//!
//! `ci.sh` additionally runs the whole tier-1 suite under `VMIN_THREADS=1`
//! and under the default pool, covering the environment-variable override
//! path that `with_threads` bypasses, and diffs the `trace_report` exports
//! of two processes at `VMIN_THREADS=1` and 8, the process-level check of
//! the same contract.

use cqr_vmin::conformal::PredictionInterval;
use cqr_vmin::core::{
    assemble_dataset, ExperimentConfig, FeatureSet, ModelConfig, PointModel, RegionMethod,
    VminPredictor,
};
use cqr_vmin::core::{run_feature_set_study, run_region_cell};
use cqr_vmin::silicon::{Campaign, DatasetSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use vmin_trace::Snapshot;

/// Serializes the tests in this file that flip the process-global trace
/// flag (`vmin_trace::set_enabled`). The harness runs tests concurrently;
/// tracing is observe-only, so no other test's results depend on the flag,
/// but a sibling flipping it mid-run would change another test's snapshot
/// or make its tracing-off cell record.
static GLOBAL_FLAGS: Mutex<()> = Mutex::new(());

/// Takes [`GLOBAL_FLAGS`] for the rest of the calling test. Tolerates
/// poisoning, so one failing test does not fail every later one.
fn global_flags() -> MutexGuard<'static, ()> {
    GLOBAL_FLAGS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` on `threads` pool threads with tracing set to `trace_on`, and
/// returns its result with the metrics it recorded. The caller holds
/// [`global_flags`].
fn cell<R>(threads: usize, trace_on: bool, f: impl FnOnce() -> R) -> (R, Snapshot) {
    let prev = vmin_trace::set_enabled(trace_on);
    let out = vmin_trace::with_collector(|| vmin_par::with_threads(threads, f));
    vmin_trace::set_enabled(prev);
    out
}

/// Asserts that the reference run of `row` counted every one of `names`,
/// so its invariance checks cannot pass on a run that skipped the code
/// those counters instrument.
fn assert_counted(snap: &Snapshot, names: &[&str], row: &str) {
    for name in names {
        assert!(
            snap.counters.get(*name).is_some_and(|&n| n > 0),
            "{row}: the reference run recorded no `{name}`"
        );
    }
}

/// The bit patterns of each interval's bounds.
fn interval_bits(ivs: &[PredictionInterval]) -> Vec<(u64, u64)> {
    ivs.iter()
        .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
        .collect()
}

/// The interval bits of the small-campaign CQR cell the predictor,
/// histogram and tracing matrices run: simulate (seed 7) → assemble (read
/// point 0, 25 °C) → fit `model`'s CQR pair → an interval per chip.
fn cqr_cell_bits(model: PointModel) -> Vec<(u64, u64)> {
    let campaign = Campaign::run(&DatasetSpec::small(), 7);
    let ds = assemble_dataset(&campaign, 0, 1, FeatureSet::Both).unwrap();
    let predictor = VminPredictor::fit(
        &ds,
        RegionMethod::Cqr(model),
        0.1,
        0.25,
        42,
        &ModelConfig::fast(),
    )
    .unwrap();
    let intervals: Vec<_> = (0..ds.n_samples())
        .map(|i| predictor.interval(ds.sample(i)).unwrap())
        .collect();
    interval_bits(&intervals)
}

#[test]
fn campaign_is_bit_identical_across_thread_counts() {
    let serial = vmin_par::with_threads(1, || Campaign::run(&DatasetSpec::small(), 2024));
    for threads in [2, 8] {
        let par = vmin_par::with_threads(threads, || Campaign::run(&DatasetSpec::small(), 2024));
        assert_eq!(par, serial, "campaign diverged at {threads} threads");
    }
}

#[test]
fn cqr_predictor_is_bit_identical_across_thread_counts() {
    let run_at =
        |threads: usize| vmin_par::with_threads(threads, || cqr_cell_bits(PointModel::Linear));
    let serial = run_at(1);
    for threads in [2, 8] {
        assert_eq!(
            run_at(threads),
            serial,
            "CQR intervals diverged at {threads} threads"
        );
    }
}

#[test]
fn hist_split_and_thread_count_matrix_is_bit_identical() {
    let _flags = global_flags();
    // The histogram split finders are the only split finders, so the matrix
    // is VMIN_THREADS ∈ {1, 2, 8} per binned booster: the full simulate →
    // assemble → CQR pipeline must be byte-identical in every cell, and the
    // traced cells' merged deterministic metrics must equal the one-thread
    // reference's. The reference must count the booster's histogram and
    // round-memo work, so the rows cannot pass on a fit that never reached
    // the histogram kernels or the memo. Its one CQR pair must compute its
    // bin table once and serve it once from the shared fit plan.
    let run = |threads: usize, trace_on: bool, model: PointModel| {
        cell(threads, trace_on, || cqr_cell_bits(model))
    };
    for (model, counters) in [
        (
            PointModel::Xgboost,
            &[
                "models.hist.bins_scanned",
                "models.hist.child_subtracted",
                "models.gbt.memo_hits",
            ][..],
        ),
        (
            PointModel::CatBoost,
            &["models.hist.level_searches", "models.oblivious.memo_hits"][..],
        ),
    ] {
        let (binned, ref_snap) = run(1, true, model);
        assert_counted(&ref_snap, counters, &format!("{model:?}"));
        for name in ["models.fitplan.build", "models.fitplan.reuse"] {
            assert_eq!(
                ref_snap.counters.get(name),
                Some(&1),
                "{model:?}: one CQR pair must count exactly one `{name}`"
            );
        }
        for (threads, trace_on) in [(2usize, true), (8, true), (8, false)] {
            let (bits, snap) = run(threads, trace_on, model);
            assert_eq!(
                bits, binned,
                "{model:?}: binned intervals diverged at threads={threads} trace={trace_on}"
            );
            if trace_on {
                assert_eq!(
                    snap.deterministic_view(),
                    ref_snap.deterministic_view(),
                    "{model:?}: merged metrics diverged at {threads} threads"
                );
            } else {
                assert!(
                    snap.is_empty(),
                    "{model:?}: tracing off must record nothing (threads={threads})"
                );
            }
        }
    }
}

#[test]
fn region_cell_and_study_are_bit_identical_across_thread_counts() {
    let campaign = Campaign::run(&DatasetSpec::small(), 11);
    let cfg = ExperimentConfig::fast();
    let cell_at = |threads: usize| {
        vmin_par::with_threads(threads, || {
            run_region_cell(
                &campaign,
                0,
                1,
                RegionMethod::Cqr(PointModel::Linear),
                FeatureSet::Both,
                &cfg,
            )
            .unwrap()
        })
    };
    let serial_cell = cell_at(1);
    assert_eq!(cell_at(4), serial_cell);

    let study_at = |threads: usize| {
        vmin_par::with_threads(threads, || {
            run_feature_set_study(&campaign, RegionMethod::Cqr(PointModel::Linear), &cfg).unwrap()
        })
    };
    let serial_study = study_at(1);
    assert_eq!(study_at(4), serial_study);
}

#[test]
fn thread_count_and_tracing_matrix_is_bit_identical() {
    let _flags = global_flags();
    // The full observability contract as a matrix: VMIN_THREADS ∈ {1, 2, 8}
    // × tracing {on, off}. Predictions must be byte-identical in every
    // cell; the merged deterministic metrics (counters, gauges,
    // histograms) must be identical across thread counts when tracing is
    // on — timers and topology counts are the two documented exemptions —
    // and tracing off must record nothing at all.
    let run = |threads: usize, trace_on: bool| {
        cell(threads, trace_on, || cqr_cell_bits(PointModel::Linear))
    };

    let (ref_bits, ref_snap) = run(1, true);
    assert!(
        !ref_snap.counters.is_empty(),
        "the instrumented pipeline recorded no counters"
    );
    assert!(
        !ref_snap.timers.is_empty(),
        "the instrumented pipeline recorded no span timers"
    );
    for threads in [1usize, 2, 8] {
        for trace_on in [true, false] {
            let (bits, snap) = run(threads, trace_on);
            assert_eq!(
                bits, ref_bits,
                "intervals diverged at threads={threads} trace={trace_on}"
            );
            if trace_on {
                assert_eq!(
                    snap.deterministic_view(),
                    ref_snap.deterministic_view(),
                    "merged counters/gauges/histograms diverged at {threads} threads"
                );
            } else {
                assert!(
                    snap.is_empty(),
                    "tracing off must record nothing (threads={threads}): {snap:?}"
                );
            }
        }
    }
}

#[test]
fn streaming_report_is_bit_identical_across_threads_and_tracing() {
    let _flags = global_flags();
    // The streaming adaptive layer extends the matrix: a full drifted
    // stream (fit, calibrate, drift detection, window flush,
    // recalibration audit) must produce a byte-identical `StreamReport` at
    // VMIN_THREADS ∈ {1, 2, 8} × tracing {on, off}. The report derives
    // PartialEq over raw f64s, so every width, α_t and q̂ the stream
    // produced must carry the same bits, up to the sign of a zero. Two
    // fleet-wide ramps: 20 mV per read point only widens the intervals,
    // 30 mV forces a window rebuild, so both ends of the recalibration
    // path are covered. Either must move the degradation ladder.
    use cqr_vmin::conformal::LadderState;
    use cqr_vmin::core::{run_stream, StreamConfig};
    use cqr_vmin::silicon::{DriftClass, DriftFault, DriftInjector};

    let clean = Campaign::run(&DatasetSpec::small(), 7);
    for (magnitude_mv, counters) in [
        (
            20.0,
            &[
                "conformal.adaptive.observations",
                "conformal.adaptive.transitions",
                "core.stream.read_points",
            ][..],
        ),
        (
            30.0,
            &[
                "conformal.adaptive.observations",
                "conformal.adaptive.recalibrations",
                "conformal.adaptive.transitions",
                "core.stream.read_points",
            ][..],
        ),
    ] {
        let (drifted, _) = DriftInjector::new(
            vec![DriftFault {
                class: DriftClass::Ramp,
                onset: 3,
                magnitude_mv,
                fraction: 1.0,
            }],
            41,
        )
        .unwrap()
        .inject(&clean);
        let run = |threads: usize, trace_on: bool| {
            cell(threads, trace_on, || {
                run_stream(&drifted, &StreamConfig::fast(0.2)).unwrap()
            })
        };

        let row = format!("{magnitude_mv} mV ramp");
        let (reference, ref_snap) = run(1, true);
        assert_counted(&ref_snap, counters, &row);
        assert_ne!(
            reference.worst_state,
            LadderState::Nominal,
            "{row}: the drift never moved the ladder"
        );
        for threads in [1usize, 2, 8] {
            for trace_on in [true, false] {
                let (report, snap) = run(threads, trace_on);
                assert_eq!(
                    report, reference,
                    "{row}: stream report diverged at threads={threads} trace={trace_on}"
                );
                if trace_on {
                    assert_eq!(
                        snap.deterministic_view(),
                        ref_snap.deterministic_view(),
                        "{row}: stream metrics diverged at {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn serve_matrix_is_bit_identical_and_artifact_bytes_are_stable() {
    let _flags = global_flags();
    // The serving dimension of the matrix. Fit → capture → `to_bytes` →
    // reload → serve, traced, must give the same `vmin-artifact/v1`
    // bytes, intervals and merged deterministic metrics at
    // VMIN_THREADS ∈ {1, 4}. The artifact's reloads must then serve
    // byte-identical intervals at VMIN_THREADS ∈ {1, 4} × block sizes
    // {1, 5, 32, 1000}, and re-encode to the same byte string in every
    // cell.
    use cqr_vmin::conformal::Cqr;
    use cqr_vmin::models::{GradientBoost, Loss};
    use cqr_vmin::serve::{ServeModel, MAGIC};
    use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};

    let draw = |n: usize, seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..4.0);
            let b: f64 = rng.gen_range(-2.0..2.0);
            rows.push(vec![a, b]);
            y.push(2.0 * a - b + rng.gen_range(-0.5..0.5));
        }
        (cqr_vmin::linalg::Matrix::from_rows(&rows).unwrap(), y)
    };
    let (x_tr, y_tr) = draw(70, 1);
    let (x_ca, y_ca) = draw(40, 2);
    let (x_te, _) = draw(90, 3);
    let fit_and_serve = |threads: usize| {
        cell(threads, true, || {
            let mut cqr = Cqr::new(
                GradientBoost::new(Loss::Pinball(0.05)),
                GradientBoost::new(Loss::Pinball(0.95)),
                0.1,
            );
            cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
            let bytes = ServeModel::from_gbt_cqr(&cqr, None).unwrap().to_bytes();
            let reloaded = ServeModel::from_bytes(&bytes).unwrap();
            let served = interval_bits(&reloaded.serve_batch(&x_te, 32).unwrap());
            (bytes, served)
        })
    };
    let ((ref_bytes, reference), ref_snap) = fit_and_serve(1);
    assert!(
        ref_bytes.starts_with(MAGIC),
        "the artifact does not lead with the vmin-artifact/v1 magic"
    );
    assert_counted(&ref_snap, &["serve.rows", "serve.artifact.saves"], "serve");
    assert!(
        ref_snap
            .gauges
            .get("serve.table.bytes")
            .is_some_and(|&b| b > 0.0),
        "serve: the reference run recorded no `serve.table.bytes` gauge"
    );
    let ((bytes, served), snap) = fit_and_serve(4);
    assert_eq!(
        bytes, ref_bytes,
        "artifact bytes depend on the thread count"
    );
    assert_eq!(served, reference, "served intervals diverged at 4 threads");
    assert_eq!(
        snap.deterministic_view(),
        ref_snap.deterministic_view(),
        "fit/serve metrics diverged at 4 threads"
    );

    let run = |threads: usize, block: usize| {
        vmin_par::with_threads(threads, || {
            let reloaded = ServeModel::from_bytes(&ref_bytes).unwrap();
            assert_eq!(
                reloaded.to_bytes(),
                ref_bytes,
                "artifact bytes drifted at threads={threads}"
            );
            interval_bits(&reloaded.serve_batch(&x_te, block).unwrap())
        })
    };
    for threads in [1usize, 4] {
        for block in [1usize, 5, 32, 1000] {
            assert_eq!(
                run(threads, block),
                reference,
                "served intervals diverged at threads={threads} block={block}"
            );
        }
    }
}

#[test]
fn stream_matrix_is_bit_identical_across_threads_chunks_and_tracing() {
    let _flags = global_flags();
    // The streaming-generation dimension of the matrix: the blocks of a
    // `CampaignStream` must be byte-identical at VMIN_THREADS ∈ {1, 2, 8}
    // × chunk {1, 7, 64} × tracing {on, off}. Chunking may move block
    // boundaries but never a single bit of chip data. Merged deterministic
    // metrics must also be thread-invariant within each chunk size (the
    // shard counter is sized by chunk geometry, never by thread count).
    use cqr_vmin::silicon::CampaignStream;

    let spec = DatasetSpec::small();
    let run = |threads: usize, chunk: usize, trace_on: bool| {
        cell(threads, trace_on, || {
            let mut bits: Vec<u64> = Vec::new();
            for block in CampaignStream::with_chunk(&spec, 7, chunk) {
                bits.extend(block.data().iter().map(|v| v.to_bits()));
            }
            bits
        })
    };

    let (ref_bits, ref_snap) = run(1, 7, true);
    assert_counted(
        &ref_snap,
        &[
            "silicon.stream.chunks",
            "silicon.stream.chips",
            "silicon.stream.shards",
            "silicon.vmin.searches",
            "silicon.vmin.bisect_steps",
            "silicon.vmin.certified",
            "silicon.device.evals",
        ],
        "stream",
    );
    assert!(
        !ref_snap
            .counters
            .contains_key("silicon.aging.skipped_normals"),
        "an aged stream skipped aging draws"
    );
    for chunk in [1usize, 7, 64] {
        let (_, chunk_snap) = run(1, chunk, true);
        for threads in [1usize, 2, 8] {
            for trace_on in [true, false] {
                let (bits, snap) = run(threads, chunk, trace_on);
                assert_eq!(
                    bits, ref_bits,
                    "stream data diverged at threads={threads} chunk={chunk} trace={trace_on}"
                );
                if trace_on {
                    assert_eq!(
                        snap.deterministic_view(),
                        chunk_snap.deterministic_view(),
                        "stream metrics diverged at {threads} threads (chunk {chunk})"
                    );
                } else {
                    assert!(
                        snap.is_empty(),
                        "tracing off must record nothing (threads={threads})"
                    );
                }
            }
        }
    }
}

#[test]
fn fleet_screen_is_bit_identical_across_thread_counts() {
    let _flags = global_flags();
    // The fused generate → serve → screen pipeline: one screening lot,
    // screened traced at VMIN_THREADS ∈ {1, 8}, must give the same report,
    // its mean interval length to the bit, and the same merged
    // deterministic metrics.
    use cqr_vmin::conformal::Cqr;
    use cqr_vmin::core::{fleet_screen, FleetScreenConfig};
    use cqr_vmin::models::{GradientBoost, GradientBoostParams, Loss, TreeParams};
    use cqr_vmin::serve::ServeModel;

    const CHIPS: usize = 96;
    const SEED: u64 = 20260807;
    let spec = DatasetSpec::screening(CHIPS);
    let train = Campaign::run(&spec, SEED + 1);
    let ds = assemble_dataset(&train, 0, 0, FeatureSet::Both).unwrap();
    let params = GradientBoostParams {
        n_rounds: 30,
        tree: TreeParams {
            max_depth: 4,
            ..TreeParams::default()
        },
        ..GradientBoostParams::default()
    };
    let mut cqr = Cqr::new(
        GradientBoost::with_params(Loss::Pinball(0.05), params),
        GradientBoost::with_params(Loss::Pinball(0.95), params),
        0.1,
    );
    cqr.fit_calibrate(ds.features(), ds.targets(), ds.features(), ds.targets())
        .unwrap();
    let model = ServeModel::from_gbt_cqr(&cqr, None).unwrap();
    let cfg = FleetScreenConfig::new(700.0);
    let run = |threads: usize| {
        cell(threads, true, || {
            fleet_screen(&spec, SEED, &model, &cfg).unwrap()
        })
    };

    let (reference, ref_snap) = run(1);
    assert_eq!(reference.chips, CHIPS, "the screen missed chips");
    assert_counted(&ref_snap, &["fleet.chips", "fleet.blocks"], "fleet_screen");
    // A 0 h lot never observes aging, so each chip skips the transform of
    // its 20 aging-only normals: 3 workload, 1 log-rate, and one
    // sensitivity for each of its 4 paths and 12 RODs.
    assert_eq!(
        ref_snap.counters.get("silicon.aging.skipped_normals"),
        Some(&(20 * CHIPS as u64)),
        "fleet_screen: skipped aging normals"
    );
    let (report, snap) = run(8);
    assert_eq!(report, reference, "screening report diverged at 8 threads");
    assert_eq!(
        report.mean_length_mv.to_bits(),
        reference.mean_length_mv.to_bits(),
        "mean interval length diverged at 8 threads"
    );
    assert_eq!(
        snap.deterministic_view(),
        ref_snap.deterministic_view(),
        "fleet metrics diverged at 8 threads"
    );
}

#[test]
fn par_map_preserves_input_order_at_any_thread_count() {
    // Awkward sizes exercise uneven chunking: remainders, fewer items than
    // threads, and single-item inputs.
    for n in [1usize, 2, 7, 64, 257, 1000] {
        let items: Vec<usize> = (0..n).collect();
        for threads in [1, 2, 3, 8, 61] {
            let out = vmin_par::with_threads(threads, || {
                vmin_par::par_map(&items, 1, |idx, &v| (idx, v * 2))
            });
            assert_eq!(out.len(), n);
            for (pos, &(idx, doubled)) in out.iter().enumerate() {
                assert_eq!(idx, pos, "index mismatch: n={n} threads={threads}");
                assert_eq!(doubled, pos * 2, "value mismatch: n={n} threads={threads}");
            }
        }
    }
}

#[test]
fn par_map_propagates_worker_panics() {
    let items: Vec<usize> = (0..100).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        vmin_par::with_threads(4, || {
            vmin_par::par_map(&items, 1, |_, &v| {
                assert!(v != 57, "boom at {v}");
                v
            })
        })
    }));
    assert!(result.is_err(), "a worker panic must reach the caller");
}

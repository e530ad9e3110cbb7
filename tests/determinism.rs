//! Workspace-level determinism guarantees of the `vmin-par` threading layer:
//! the full simulate → assemble → fit → predict pipeline must be
//! bit-identical at every thread count, and `par_map` must preserve input
//! order and propagate worker panics.
//!
//! `ci.sh` additionally runs the whole tier-1 suite under `VMIN_THREADS=1`
//! and under the default pool, covering the environment-variable override
//! path that `with_threads` bypasses.

use cqr_vmin::core::{
    assemble_dataset, ExperimentConfig, FeatureSet, ModelConfig, PointModel, RegionMethod,
    VminPredictor,
};
use cqr_vmin::core::{run_feature_set_study, run_region_cell};
use cqr_vmin::silicon::{Campaign, DatasetSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    let run_at = |threads: usize| {
        vmin_par::with_threads(threads, || {
            let campaign = Campaign::run(&DatasetSpec::small(), 7);
            let ds = assemble_dataset(&campaign, 0, 1, FeatureSet::Both).unwrap();
            let predictor = VminPredictor::fit(
                &ds,
                RegionMethod::Cqr(PointModel::Linear),
                0.1,
                0.25,
                42,
                &ModelConfig::fast(),
            )
            .unwrap();
            (0..ds.n_samples())
                .map(|i| {
                    let iv = predictor.interval(ds.sample(i)).unwrap();
                    (iv.lo().to_bits(), iv.hi().to_bits())
                })
                .collect::<Vec<_>>()
        })
    };
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
    // assemble → CQR pipeline must be byte-identical in every cell. The
    // one-thread reference runs traced, and must record the booster's
    // histogram counter, so the invariance rows cannot pass on a fit that
    // never reached the histogram kernels.
    let run = |threads: usize, trace_on: bool, model: PointModel| {
        let prev = vmin_trace::set_enabled(trace_on);
        let (bits, snap) = vmin_trace::with_collector(|| {
            vmin_par::with_threads(threads, || {
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
                (0..ds.n_samples())
                    .map(|i| {
                        let iv = predictor.interval(ds.sample(i)).unwrap();
                        (iv.lo().to_bits(), iv.hi().to_bits())
                    })
                    .collect::<Vec<_>>()
            })
        });
        vmin_trace::set_enabled(prev);
        (bits, snap)
    };
    for (model, hist_counter) in [
        (PointModel::Xgboost, "models.hist.bins_scanned"),
        (PointModel::CatBoost, "models.hist.level_searches"),
    ] {
        let (binned, snap) = run(1, true, model);
        assert!(
            snap.counters.get(hist_counter).is_some_and(|&n| n > 0),
            "{model:?}: the fit recorded no `{hist_counter}` — histogram path not taken"
        );
        for threads in [2usize, 8] {
            assert_eq!(
                run(threads, false, model).0,
                binned,
                "{model:?}: binned intervals diverged at {threads} threads"
            );
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
        let prev = vmin_trace::set_enabled(trace_on);
        let (bits, snap) = vmin_trace::with_collector(|| {
            vmin_par::with_threads(threads, || {
                let campaign = Campaign::run(&DatasetSpec::small(), 7);
                let ds = assemble_dataset(&campaign, 0, 1, FeatureSet::Both).unwrap();
                let predictor = VminPredictor::fit(
                    &ds,
                    RegionMethod::Cqr(PointModel::Linear),
                    0.1,
                    0.25,
                    42,
                    &ModelConfig::fast(),
                )
                .unwrap();
                (0..ds.n_samples())
                    .map(|i| {
                        let iv = predictor.interval(ds.sample(i)).unwrap();
                        (iv.lo().to_bits(), iv.hi().to_bits())
                    })
                    .collect::<Vec<_>>()
            })
        });
        vmin_trace::set_enabled(prev);
        (bits, snap)
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
    // PartialEq over raw f64s, so equality here is bit equality for every
    // width, α_t and q̂ the stream produced.
    use cqr_vmin::core::{run_stream, StreamConfig};
    use cqr_vmin::silicon::{DriftClass, DriftFault, DriftInjector};

    let clean = Campaign::run(&DatasetSpec::small(), 7);
    let (drifted, _) = DriftInjector::new(
        vec![DriftFault {
            class: DriftClass::Ramp,
            onset: 3,
            magnitude_mv: 20.0,
            fraction: 1.0,
        }],
        41,
    )
    .unwrap()
    .inject(&clean);

    let run = |threads: usize, trace_on: bool| {
        let prev = vmin_trace::set_enabled(trace_on);
        let (report, snap) = vmin_trace::with_collector(|| {
            vmin_par::with_threads(threads, || {
                run_stream(&drifted, &StreamConfig::fast(0.2)).unwrap()
            })
        });
        vmin_trace::set_enabled(prev);
        (report, snap)
    };

    let (reference, ref_snap) = run(1, true);
    assert!(
        ref_snap
            .counters
            .keys()
            .any(|k| k.starts_with("conformal.adaptive.")),
        "the stream recorded no adaptive-layer counters"
    );
    for threads in [1usize, 2, 8] {
        for trace_on in [true, false] {
            let (report, snap) = run(threads, trace_on);
            assert_eq!(
                report, reference,
                "stream report diverged at threads={threads} trace={trace_on}"
            );
            if trace_on {
                assert_eq!(
                    snap.deterministic_view(),
                    ref_snap.deterministic_view(),
                    "stream metrics diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn serve_matrix_is_bit_identical_and_artifact_bytes_are_stable() {
    // PR 9 extends the matrix with the serving dimension: a captured
    // ServeModel must produce byte-identical intervals at
    // VMIN_THREADS ∈ {1, 4} × block sizes {1, 5, 32, 1000}, and its
    // `vmin-artifact/v1` encoding must be the same byte string no matter
    // which cell of the matrix produced or reloaded it.
    use cqr_vmin::conformal::Cqr;
    use cqr_vmin::models::{GradientBoost, Loss};
    use cqr_vmin::serve::ServeModel;
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
    let mut cqr = Cqr::new(
        GradientBoost::new(Loss::Pinball(0.05)),
        GradientBoost::new(Loss::Pinball(0.95)),
        0.1,
    );
    cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
    let model = ServeModel::from_gbt_cqr(&cqr, None).unwrap();
    let ref_bytes = model.to_bytes();

    let run = |threads: usize, block: usize| {
        vmin_par::with_threads(threads, || {
            let reloaded = ServeModel::from_bytes(&ref_bytes).unwrap();
            assert_eq!(
                reloaded.to_bytes(),
                ref_bytes,
                "artifact bytes drifted at threads={threads}"
            );
            reloaded
                .serve_batch(&x_te, block)
                .unwrap()
                .iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                .collect::<Vec<_>>()
        })
    };
    let reference = run(1, 32);
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
    // PR 10 extends the matrix with the streaming-generation dimension:
    // the blocks of a `CampaignStream` must be byte-identical at
    // VMIN_THREADS ∈ {1, 2, 8} × chunk {1, 7, 64} × tracing {on, off}.
    // Chunking may move block boundaries but never a single bit of chip
    // data. Merged deterministic metrics must also be thread-invariant
    // within a fixed chunk size (the shard counter is sized by chunk
    // geometry, never by thread count).
    use cqr_vmin::silicon::CampaignStream;

    let spec = DatasetSpec::small();
    let run = |threads: usize, chunk: usize, trace_on: bool| {
        let prev = vmin_trace::set_enabled(trace_on);
        let (bits, snap) = vmin_trace::with_collector(|| {
            vmin_par::with_threads(threads, || {
                let mut bits: Vec<u64> = Vec::new();
                for block in CampaignStream::with_chunk(&spec, 7, chunk) {
                    bits.extend(block.data().iter().map(|v| v.to_bits()));
                }
                bits
            })
        });
        vmin_trace::set_enabled(prev);
        (bits, snap)
    };

    let (ref_bits, ref_snap) = run(1, 7, true);
    assert!(
        ref_snap
            .counters
            .keys()
            .any(|k| k.starts_with("silicon.stream.")),
        "the streamed run recorded no silicon.stream.* counters"
    );
    for threads in [1usize, 2, 8] {
        for chunk in [1usize, 7, 64] {
            for trace_on in [true, false] {
                let (bits, snap) = run(threads, chunk, trace_on);
                assert_eq!(
                    bits, ref_bits,
                    "stream data diverged at threads={threads} chunk={chunk} trace={trace_on}"
                );
                if !trace_on {
                    assert!(
                        snap.is_empty(),
                        "tracing off must record nothing (threads={threads})"
                    );
                } else if chunk == 7 {
                    assert_eq!(
                        snap.deterministic_view(),
                        ref_snap.deterministic_view(),
                        "stream metrics diverged at {threads} threads"
                    );
                }
            }
        }
    }
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

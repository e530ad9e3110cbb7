//! PR 9 tentpole lock: the flattened serving kernels must be
//! **bit-identical** to the live-struct prediction paths. For every cell of
//! a seeds × depths × feature-counts grid, both booster families are
//! fitted and calibrated, captured into a [`cqr_vmin::serve::ServeModel`],
//! round-tripped through `vmin-artifact/v1` bytes, and served — and every
//! interval endpoint must carry the *same `f64` bits* as
//! `Cqr::predict_interval` on the live structs. Not approximately equal:
//! the conformal guarantee was proven on the live model, so the deployed
//! artifact must be the same function.

use cqr_vmin::conformal::Cqr;
use cqr_vmin::data::Standardizer;
use cqr_vmin::linalg::Matrix;
use cqr_vmin::models::{
    GradientBoost, GradientBoostParams, Loss, ObliviousBoost, ObliviousBoostParams, TreeParams,
};
use cqr_vmin::serve::{ServeError, ServeModel};
use vmin_rng::ChaCha8Rng;
use vmin_rng::Rng;
use vmin_rng::SeedableRng;

const ALPHA: f64 = 0.1;
const N_TRAIN: usize = 80;
const N_CAL: usize = 40;
const N_TEST: usize = 50;

/// Synthetic multi-monitor data: `d` correlated features, a nonlinear
/// response and heteroscedastic noise so the fitted trees are non-trivial.
fn draw(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let base: f64 = rng.gen_range(0.0..4.0);
        let row: Vec<f64> = (0..d)
            .map(|j| base + rng.gen_range(-0.5..0.5) * (j as f64 + 1.0))
            .collect();
        let signal: f64 = row
            .iter()
            .enumerate()
            .map(|(j, v)| v * (1.0 + j as f64 * 0.3) + (v * 0.7).sin())
            .sum();
        let eps = (0.2 + base) * rng.gen_range(-1.0..1.0);
        rows.push(row);
        y.push(signal + eps);
    }
    (Matrix::from_rows(&rows).unwrap(), y)
}

fn gbt_pair(depth: usize) -> Cqr<GradientBoost, GradientBoost> {
    let params = GradientBoostParams {
        n_rounds: 20,
        tree: TreeParams {
            max_depth: depth,
            ..TreeParams::default()
        },
        ..GradientBoostParams::default()
    };
    Cqr::new(
        GradientBoost::with_params(Loss::Pinball(ALPHA / 2.0), params),
        GradientBoost::with_params(Loss::Pinball(1.0 - ALPHA / 2.0), params),
        ALPHA,
    )
}

fn oblivious_pair(depth: usize) -> Cqr<ObliviousBoost, ObliviousBoost> {
    let params = ObliviousBoostParams {
        n_rounds: 20,
        depth,
        ..ObliviousBoostParams::default()
    };
    Cqr::new(
        ObliviousBoost::with_params(Loss::Pinball(ALPHA / 2.0), params),
        ObliviousBoost::with_params(Loss::Pinball(1.0 - ALPHA / 2.0), params),
        ALPHA,
    )
}

/// Asserts every served interval carries the same bits as the live path.
fn assert_bitwise_equal<M>(model: &ServeModel, cqr_live: &M, x: &Matrix, cell: &str)
where
    M: Fn(&[f64]) -> (f64, f64),
{
    for block in [1usize, 7, 64] {
        let served = model.serve_batch(x, block).unwrap();
        assert_eq!(served.len(), x.rows(), "{cell}: wrong batch length");
        for (i, iv) in served.iter().enumerate() {
            let (lo, hi) = cqr_live(x.row(i));
            assert_eq!(
                iv.lo().to_bits(),
                lo.to_bits(),
                "{cell}: lo bits diverged at row {i} (block {block})"
            );
            assert_eq!(
                iv.hi().to_bits(),
                hi.to_bits(),
                "{cell}: hi bits diverged at row {i} (block {block})"
            );
        }
    }
}

#[test]
fn gbt_serving_is_bit_identical_to_live_structs() {
    for seed in [3u64, 11] {
        for depth in [2usize, 5] {
            for d in [1usize, 3, 6] {
                let (x_tr, y_tr) = draw(N_TRAIN, d, seed);
                let (x_ca, y_ca) = draw(N_CAL, d, seed + 1);
                let (x_te, _) = draw(N_TEST, d, seed + 2);
                let mut cqr = gbt_pair(depth);
                cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();

                let cell = format!("gbt seed={seed} depth={depth} d={d}");
                let model = ServeModel::from_gbt_cqr(&cqr, None).unwrap();
                let live = |row: &[f64]| {
                    let iv = cqr.predict_interval(row).unwrap();
                    (iv.lo(), iv.hi())
                };
                assert_bitwise_equal(&model, &live, &x_te, &cell);

                // The artifact round trip must serve the same bits too.
                let reloaded = ServeModel::from_bytes(&model.to_bytes()).unwrap();
                assert_eq!(reloaded, model, "{cell}: reload is not identical");
                assert_bitwise_equal(&reloaded, &live, &x_te, &format!("{cell} reloaded"));
            }
        }
    }
}

#[test]
fn oblivious_serving_is_bit_identical_to_live_structs() {
    for seed in [3u64, 11] {
        for depth in [2usize, 5] {
            for d in [1usize, 3, 6] {
                let (x_tr, y_tr) = draw(N_TRAIN, d, seed);
                let (x_ca, y_ca) = draw(N_CAL, d, seed + 1);
                let (x_te, _) = draw(N_TEST, d, seed + 2);
                let mut cqr = oblivious_pair(depth);
                cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();

                let cell = format!("oblivious seed={seed} depth={depth} d={d}");
                let model = ServeModel::from_oblivious_cqr(&cqr, None).unwrap();
                let live = |row: &[f64]| {
                    let iv = cqr.predict_interval(row).unwrap();
                    (iv.lo(), iv.hi())
                };
                assert_bitwise_equal(&model, &live, &x_te, &cell);

                let reloaded = ServeModel::from_bytes(&model.to_bytes()).unwrap();
                assert_eq!(reloaded, model, "{cell}: reload is not identical");
                assert_bitwise_equal(&reloaded, &live, &x_te, &format!("{cell} reloaded"));
            }
        }
    }
}

#[test]
fn captured_scaler_reproduces_the_standardized_pipeline_bitwise() {
    // Production models are trained on standardized monitors; the artifact
    // captures the scaler so deployment feeds *raw* rows. Serving raw rows
    // through the captured scaler must match the live path on
    // pre-standardized rows bit for bit — `(v − mean) / scale` is the very
    // expression `Standardizer::transform_row` evaluates.
    let d = 4;
    let (x_tr_raw, y_tr) = draw(N_TRAIN, d, 21);
    let (x_ca_raw, y_ca) = draw(N_CAL, d, 22);
    let (x_te_raw, _) = draw(N_TEST, d, 23);
    let scaler = Standardizer::fit(&x_tr_raw);
    let x_tr = scaler.transform(&x_tr_raw).unwrap();
    let x_ca = scaler.transform(&x_ca_raw).unwrap();

    let mut cqr = gbt_pair(4);
    cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();

    let model = ServeModel::from_gbt_cqr(&cqr, Some(&scaler)).unwrap();
    let reloaded = ServeModel::from_bytes(&model.to_bytes()).unwrap();
    for m in [&model, &reloaded] {
        let served = m.serve_batch(&x_te_raw, 16).unwrap();
        for (i, iv) in served.iter().enumerate() {
            let z = scaler.transform_row(x_te_raw.row(i)).unwrap();
            let live = cqr.predict_interval(&z).unwrap();
            assert_eq!(iv.lo().to_bits(), live.lo().to_bits(), "lo at row {i}");
            assert_eq!(iv.hi().to_bits(), live.hi().to_bits(), "hi at row {i}");
        }
    }
}

#[test]
fn capture_refuses_uncalibrated_and_serving_refuses_wrong_width() {
    let (x_tr, y_tr) = draw(N_TRAIN, 2, 31);
    let (x_ca, y_ca) = draw(N_CAL, 2, 32);
    let mut cqr = gbt_pair(3);

    // Fitted but never calibrated → no q̂ to capture.
    cqr.fit_calibrate(&x_tr, &y_tr, &x_ca, &y_ca).unwrap();
    let fresh = gbt_pair(3);
    assert_eq!(
        ServeModel::from_gbt_cqr(&fresh, None).unwrap_err(),
        ServeError::NotCalibrated
    );

    let model = ServeModel::from_gbt_cqr(&cqr, None).unwrap();
    let (x_wrong, _) = draw(4, 5, 33);
    match model.serve_batch(&x_wrong, 8) {
        Err(ServeError::ShapeMismatch { expected, got }) => {
            assert_eq!((expected, got), (2, 5));
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }

    // Empty batches are fine — zero intervals, no panic.
    let empty = Matrix::zeros(0, 2);
    assert!(model.serve_batch(&empty, 8).unwrap().is_empty());
}

//! Golden digests of the boosted CQR fits behind one Table III cell.
//!
//! The CQR-XGBoost and CQR-CatBoost cells of a small campaign (seed 7,
//! read point 0, 25 °C, both feature sets, `ExperimentConfig::fast()`) are
//! folded into FNV-1a digests over their IEEE-754 bits: the cross-validated
//! `RegionEval`, and every fitted tree's tables — node tests and leaf
//! values — of each fold's quantile pair, with base scores and `q̂`. The
//! constants were recorded before boosting rounds were served from the
//! per-fit round memo; a change that moves one bit of one tree fails here.
//! A change meant to move fits must re-record the constants and say why.
//!
//! A second digest pins the CQR-XGBoost pair the fleet screen trains: 384
//! rows of a 512-chip screening campaign, depth 6, 100 rounds per quantile.
//! Its deep trees, with many single-digit-row children, exercise the sparse
//! node histograms far harder than the small cell does. That constant was
//! recorded before node histograms tracked their occupied bins.
//!
//! The same cell also pins what the two boosted digests do not reach: the
//! `RegionEval` of the other seven Table III methods (GP, the four raw QR
//! bands, CQR-Linear and CQR-NN, whose base models see the standardized
//! CFS view), the `PointEval` of the five Fig. 2 models, and the
//! `StreamReport` of a drifted streaming run. Together with the constants
//! above they cover every region fit, every CFS projection, the CV fold
//! loop and the streaming CQR fit.

use cqr_vmin::conformal::Cqr;
use cqr_vmin::core::{
    assemble_dataset, run_point_cell_on, run_region_cell_on, run_stream, ExperimentConfig,
    FeatureSet, PointEval, PointModel, RegionEval, RegionMethod, StreamConfig, StreamReport,
};
use cqr_vmin::data::{train_test_split, Dataset, KFold};
use cqr_vmin::models::{
    GradientBoost, GradientBoostParams, Loss, NodeView, ObliviousBoost, ObliviousBoostParams,
    Regressor, TreeParams,
};
use cqr_vmin::silicon::{Campaign, DatasetSpec, DriftClass, DriftFault, DriftInjector};

const XGB_EVAL: u64 = 0xfc2d_693b_3fdd_6c15;
const XGB_TREES: u64 = 0x96ee_3d56_9eaa_d79a;
const CAT_EVAL: u64 = 0xec00_6430_b26f_3325;
const CAT_TREES: u64 = 0xda5a_a0de_2b6c_620e;
const FLEET_PAIR: u64 = 0xfc54_bff3_10fd_289f;

/// `RegionEval` digests of the Table III methods the boosted CQR constants
/// above do not cover.
const REGION_EVALS: [(RegionMethod, u64); 7] = [
    (RegionMethod::Gp, 0xc508_4ee1_489d_21c7),
    (RegionMethod::Qr(PointModel::Linear), 0x2346_cd10_ae76_ec35),
    (
        RegionMethod::Qr(PointModel::NeuralNet),
        0xfd0e_de66_b123_3f19,
    ),
    (RegionMethod::Qr(PointModel::Xgboost), 0x1355_1684_236c_3a7a),
    (
        RegionMethod::Qr(PointModel::CatBoost),
        0x7030_e2cb_1f14_6178,
    ),
    (RegionMethod::Cqr(PointModel::Linear), 0x9f10_424e_ff91_c638),
    (
        RegionMethod::Cqr(PointModel::NeuralNet),
        0x2d3e_68b6_1cf1_c691,
    ),
];

/// `PointEval` digests of the five Fig. 2 models.
const POINT_EVALS: [(PointModel, u64); 5] = [
    (PointModel::Linear, 0x3ff6_d8c7_025f_ae00),
    (PointModel::GaussianProcess, 0xd4d4_da95_6a6c_e264),
    (PointModel::Xgboost, 0xf0c0_d018_e0f6_189e),
    (PointModel::CatBoost, 0x5752_6dd9_c1d3_91c2),
    (PointModel::NeuralNet, 0xd4f1_3d75_e72a_fe82),
];

/// `StreamReport` digest of the drifted stream in `tests/determinism.rs`.
const DRIFT_STREAM: u64 = 0x793c_8636_5f82_e8ea;

/// 64-bit FNV-1a over the little-endian bytes of a `u64` sequence.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn cell_dataset() -> Dataset {
    let campaign = Campaign::run(&DatasetSpec::small(), 7);
    assemble_dataset(&campaign, 0, 1, FeatureSet::Both).expect("assemble the cell")
}

fn eval_digest(ds: &Dataset, model: PointModel) -> u64 {
    region_digest(ds, RegionMethod::Cqr(model))
}

fn region_digest(ds: &Dataset, method: RegionMethod) -> u64 {
    let RegionEval {
        mean_length,
        coverage,
    } = run_region_cell_on(ds, method, &ExperimentConfig::fast()).expect("region cell");
    let mut h = Fnv::new();
    h.f64(mean_length);
    h.f64(coverage);
    h.0
}

fn point_digest(ds: &Dataset, model: PointModel) -> u64 {
    let PointEval {
        r2,
        rmse,
        n_features,
    } = run_point_cell_on(ds, model, &ExperimentConfig::fast()).expect("point cell");
    let mut h = Fnv::new();
    h.f64(r2);
    h.f64(rmse);
    h.u64(n_features as u64);
    h.0
}

fn stream_digest(report: &StreamReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(report.per_read_point.len() as u64);
    for s in &report.per_read_point {
        for count in [
            s.read_point,
            s.n,
            s.issued,
            s.covered,
            s.rejected,
            s.static_covered,
            s.finite,
        ] {
            h.u64(count as u64);
        }
        h.f64(s.mean_finite_width);
        h.f64(s.mean_alpha);
        h.u64(s.end_state as u64);
    }
    h.u64(report.final_state as u64);
    h.u64(report.worst_state as u64);
    h.u64(report.transitions.len() as u64);
    for t in &report.transitions {
        h.u64(t.observation);
        h.u64(t.from as u64);
        h.u64(t.to as u64);
        h.f64(t.drift_score);
    }
    h.f64(report.static_qhat);
    h.f64(report.alpha_final);
    h.u64(report.eval_chips as u64);
    h.0
}

/// Fails listing every entry of `table` whose digest moved, so one run
/// shows all of them.
fn assert_digests<K: std::fmt::Display + Copy>(
    what: &str,
    table: &[(K, u64)],
    f: impl Fn(K) -> u64,
) {
    let moved: Vec<String> = table
        .iter()
        .filter_map(|&(key, want)| {
            let got = f(key);
            (got != want).then(|| format!("{key}: {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "{what} moved: {moved:?}");
}

/// Fits one CQR pair per fold exactly as the region cell does (same folds,
/// same 75/25 proper/calibration split per fold seed) and folds each
/// fitted pair into `h` with `digest`.
fn fold_fits<L: Regressor, H: Regressor>(
    ds: &Dataset,
    make: impl Fn(&ExperimentConfig) -> Cqr<L, H>,
    digest: impl Fn(&mut Fnv, &Cqr<L, H>),
) -> u64 {
    let cfg = ExperimentConfig::fast();
    let mut h = Fnv::new();
    for (fold, split) in KFold::new(ds.n_samples(), cfg.folds, cfg.seed)
        .iter()
        .enumerate()
    {
        let train = ds.subset_rows(&split.train).expect("fold train rows");
        let inner = train_test_split(
            train.n_samples(),
            1.0 - cfg.cal_fraction,
            cfg.seed.wrapping_add(fold as u64),
        );
        let proper = train.subset_rows(&inner.train).expect("proper rows");
        let cal = train.subset_rows(&inner.test).expect("calibration rows");
        let mut cqr = make(&cfg);
        cqr.fit_calibrate(
            proper.features(),
            proper.targets(),
            cal.features(),
            cal.targets(),
        )
        .expect("fit and calibrate");
        h.f64(cqr.qhat().expect("calibrated"));
        digest(&mut h, &cqr);
    }
    h.0
}

fn gbt_digest(h: &mut Fnv, m: &GradientBoost) {
    h.f64(m.base_score());
    h.u64(m.trees().len() as u64);
    for tree in m.trees() {
        h.u64(tree.n_nodes() as u64);
        for node in tree.nodes() {
            match node {
                NodeView::Leaf { weight } => h.f64(weight),
                NodeView::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    h.u64(feature as u64);
                    h.f64(threshold);
                    h.u64(left as u64);
                    h.u64(right as u64);
                }
            }
        }
    }
}

fn oblivious_digest(h: &mut Fnv, m: &ObliviousBoost) {
    h.f64(m.base_score());
    let tables = m.tree_tables();
    h.u64(tables.len() as u64);
    for (levels, leaves) in tables {
        h.u64(levels.len() as u64);
        for &(feature, threshold) in levels {
            h.u64(feature as u64);
            h.f64(threshold);
        }
        for &v in leaves {
            h.f64(v);
        }
    }
}

fn xgb_trees(ds: &Dataset) -> u64 {
    let booster = |q: f64, cfg: &ExperimentConfig| {
        GradientBoost::with_params(
            Loss::Pinball(q),
            GradientBoostParams {
                n_rounds: cfg.models.gbt_rounds,
                ..GradientBoostParams::default()
            },
        )
    };
    fold_fits(
        ds,
        |cfg| {
            Cqr::new(
                booster(cfg.alpha / 2.0, cfg),
                booster(1.0 - cfg.alpha / 2.0, cfg),
                cfg.alpha,
            )
        },
        |h, cqr| {
            gbt_digest(h, cqr.lo_model());
            gbt_digest(h, cqr.hi_model());
        },
    )
}

fn cat_trees(ds: &Dataset) -> u64 {
    let booster = |q: f64, cfg: &ExperimentConfig| {
        ObliviousBoost::with_params(
            Loss::Pinball(q),
            ObliviousBoostParams {
                n_rounds: cfg.models.cat_rounds,
                ..ObliviousBoostParams::default()
            },
        )
    };
    fold_fits(
        ds,
        |cfg| {
            Cqr::new(
                booster(cfg.alpha / 2.0, cfg),
                booster(1.0 - cfg.alpha / 2.0, cfg),
                cfg.alpha,
            )
        },
        |h, cqr| {
            oblivious_digest(h, cqr.lo_model());
            oblivious_digest(h, cqr.hi_model());
        },
    )
}

#[test]
fn cqr_xgboost_cell_matches_golden_digests() {
    let ds = cell_dataset();
    let eval = eval_digest(&ds, PointModel::Xgboost);
    let trees = xgb_trees(&ds);
    assert_eq!(eval, XGB_EVAL, "CQR-XGBoost RegionEval moved: {eval:#018x}");
    assert_eq!(trees, XGB_TREES, "CQR-XGBoost trees moved: {trees:#018x}");
}

#[test]
fn cqr_catboost_cell_matches_golden_digests() {
    let ds = cell_dataset();
    let eval = eval_digest(&ds, PointModel::CatBoost);
    let trees = cat_trees(&ds);
    assert_eq!(
        eval, CAT_EVAL,
        "CQR-CatBoost RegionEval moved: {eval:#018x}"
    );
    assert_eq!(trees, CAT_TREES, "CQR-CatBoost trees moved: {trees:#018x}");
}

#[test]
fn other_region_methods_match_golden_digests() {
    let ds = cell_dataset();
    assert_digests("RegionEval", &REGION_EVALS, |method| {
        region_digest(&ds, method)
    });
}

#[test]
fn point_models_match_golden_digests() {
    let ds = cell_dataset();
    assert_digests("PointEval", &POINT_EVALS, |model| point_digest(&ds, model));
}

#[test]
fn drifted_stream_matches_golden_digest() {
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
    .expect("drift injector")
    .inject(&clean);
    let report = run_stream(&drifted, &StreamConfig::fast(0.2)).expect("stream");
    let got = stream_digest(&report);
    assert_eq!(got, DRIFT_STREAM, "drifted StreamReport moved: {got:#018x}");
}

#[test]
fn fleet_setup_pair_matches_golden_digest() {
    // The fleet screen's setup fit: screening campaign (512 chips, seed 1),
    // read point 0, first temperature, both feature sets; the first 384
    // rows train, the other 128 calibrate.
    let campaign = Campaign::run(&DatasetSpec::screening(512), 1);
    let ds = assemble_dataset(&campaign, 0, 0, FeatureSet::Both).expect("assemble");
    let train = ds
        .subset_rows(&(0..384).collect::<Vec<_>>())
        .expect("train rows");
    let cal = ds
        .subset_rows(&(384..ds.n_samples()).collect::<Vec<_>>())
        .expect("calibration rows");
    let params = GradientBoostParams {
        tree: TreeParams {
            max_depth: 6,
            ..TreeParams::default()
        },
        ..GradientBoostParams::default()
    };
    let mut cqr = Cqr::new(
        GradientBoost::with_params(Loss::Pinball(0.05), params),
        GradientBoost::with_params(Loss::Pinball(0.95), params),
        0.1,
    );
    cqr.fit_calibrate(
        train.features(),
        train.targets(),
        cal.features(),
        cal.targets(),
    )
    .expect("fit and calibrate");
    let mut h = Fnv::new();
    h.f64(cqr.qhat().expect("calibrated"));
    gbt_digest(&mut h, cqr.lo_model());
    gbt_digest(&mut h, cqr.hi_model());
    assert_eq!(
        h.0, FLEET_PAIR,
        "fleet-setup CQR-XGBoost pair moved: {:#018x}",
        h.0
    );
}

#[test]
fn table3_cell_serves_rounds_from_the_round_memo() {
    let ds = cell_dataset();
    let prev = vmin_trace::set_enabled(true);
    let (_, snap) = vmin_trace::with_collector(|| {
        eval_digest(&ds, PointModel::Xgboost);
        eval_digest(&ds, PointModel::CatBoost);
    });
    vmin_trace::set_enabled(prev);
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(
        count("models.gbt.memo_hits") > 0,
        "no GBT round hit the memo"
    );
    assert!(
        count("models.oblivious.memo_hits") > 0,
        "no oblivious round hit the memo"
    );
    // Work counters count work done: every GBT round grew a tree or
    // was served from the memo.
    assert_eq!(
        count("models.tree.fits") + count("models.gbt.memo_hits"),
        count("models.gbt.rounds")
    );
}

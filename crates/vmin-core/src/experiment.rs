//! Cross-validated experiment drivers reproducing the paper's evaluation
//! protocol (§IV-B): 4-fold CV, the same seed shared by all predictors,
//! 75/25 train/calibration inside CQR, α = 0.1.

use crate::error::CoreError;
use crate::flow::{eval_point_fold, eval_region_fold, PointEval, RegionEval};
use crate::scenario::{assemble_dataset, FeatureSet};
use crate::zoo::{ModelConfig, PointModel, RegionMethod};
use vmin_data::{Dataset, KFold};
use vmin_silicon::Campaign;

/// Protocol parameters shared across all experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Miscoverage target (paper: 0.1 → 90% intervals).
    pub alpha: f64,
    /// Number of CV folds (paper: 4).
    pub folds: usize,
    /// Shared random seed (paper: same seed for all predictors).
    pub seed: u64,
    /// Calibration fraction inside CQR (paper: 0.25).
    pub cal_fraction: f64,
    /// Model training budgets.
    pub models: ModelConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            alpha: 0.1,
            folds: 4,
            seed: 2024,
            cal_fraction: 0.25,
            models: ModelConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// Reduced budgets for fast tests.
    pub fn fast() -> Self {
        ExperimentConfig {
            models: ModelConfig::fast(),
            ..ExperimentConfig::default()
        }
    }
}

/// Runs `eval(fold, train, test)` on every fold of the `cfg.folds`-fold CV
/// of `ds` (§IV-B), on worker threads, and returns the results in fold
/// order so the caller's serial reduction is bit-identical to a serial run
/// at any thread count.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] unless
/// `2 ≤ cfg.folds ≤ ds.n_samples()`; otherwise the first failing fold's
/// error.
fn cv_folds<T: Send>(
    ds: &Dataset,
    cfg: &ExperimentConfig,
    eval: impl Fn(usize, &Dataset, &Dataset) -> Result<T, CoreError> + Sync,
) -> Result<Vec<T>, CoreError> {
    let n = ds.n_samples();
    if cfg.folds < 2 || cfg.folds > n {
        return Err(CoreError::InvalidConfig(format!(
            "cross-validation needs 2 to {n} folds on {n} rows, got {}",
            cfg.folds
        )));
    }
    let splits: Vec<_> = KFold::new(n, cfg.folds, cfg.seed).iter().collect();
    vmin_par::par_map(&splits, 2, |fold, split| -> Result<T, CoreError> {
        let train = ds.subset_rows(&split.train)?;
        let test = ds.subset_rows(&split.test)?;
        eval(fold, &train, &test)
    })
    .into_iter()
    .collect()
}

/// Cross-validated point-prediction score for one (read point, temperature)
/// cell — one bar of Fig. 2.
///
/// Returns the average [`PointEval`] across the test folds.
///
/// # Errors
///
/// Propagates assembly and pipeline failures.
pub fn run_point_cell(
    campaign: &Campaign,
    read_point: usize,
    temp_idx: usize,
    model: PointModel,
    feature_set: FeatureSet,
    cfg: &ExperimentConfig,
) -> Result<PointEval, CoreError> {
    let ds = assemble_dataset(campaign, read_point, temp_idx, feature_set)?;
    run_point_cell_on(&ds, model, cfg)
}

/// [`run_point_cell`] over a pre-assembled dataset, so harnesses sweeping
/// many models over the same `(read point, temperature)` cell assemble the
/// feature matrix once instead of once per model. Scoring is unchanged.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for a fold count outside `2..=ds.n_samples()`;
/// otherwise propagates pipeline failures.
pub fn run_point_cell_on(
    ds: &Dataset,
    model: PointModel,
    cfg: &ExperimentConfig,
) -> Result<PointEval, CoreError> {
    let _span = vmin_trace::span("core.run_point_cell");
    vmin_trace::counter_add("core.cells.point", 1);
    let evals = cv_folds(ds, cfg, |_, train, test| {
        eval_point_fold(model, &cfg.models, train, test)
    })?;
    let mut r2_sum = 0.0;
    let mut rmse_sum = 0.0;
    let mut nfeat_sum = 0usize;
    for eval in evals {
        r2_sum += eval.r2;
        rmse_sum += eval.rmse;
        nfeat_sum += eval.n_features;
    }
    let k = cfg.folds as f64;
    Ok(PointEval {
        r2: r2_sum / k,
        rmse: rmse_sum / k,
        n_features: nfeat_sum / cfg.folds,
    })
}

/// Cross-validated region-prediction score for one cell — one row-cell of
/// Table III.
///
/// # Errors
///
/// Propagates assembly and pipeline failures.
pub fn run_region_cell(
    campaign: &Campaign,
    read_point: usize,
    temp_idx: usize,
    method: RegionMethod,
    feature_set: FeatureSet,
    cfg: &ExperimentConfig,
) -> Result<RegionEval, CoreError> {
    let ds = assemble_dataset(campaign, read_point, temp_idx, feature_set)?;
    run_region_cell_on(&ds, method, cfg)
}

/// [`run_region_cell`] over a pre-assembled dataset: Table III sweeps nine
/// methods over every cell, and the feature matrix is identical for all of
/// them — assemble it once and share it. Scoring is unchanged, so cells are
/// bit-identical to the assemble-per-method path.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for a fold count outside `2..=ds.n_samples()`;
/// otherwise propagates pipeline failures.
pub fn run_region_cell_on(
    ds: &Dataset,
    method: RegionMethod,
    cfg: &ExperimentConfig,
) -> Result<RegionEval, CoreError> {
    let _span = vmin_trace::span("core.run_region_cell");
    vmin_trace::counter_add("core.cells.region", 1);
    let evals = cv_folds(ds, cfg, |fold, train, test| {
        eval_region_fold(
            method,
            &cfg.models,
            train,
            test,
            cfg.alpha,
            cfg.cal_fraction,
            // Same seed family for every method (fair comparison, §IV-B),
            // distinct per fold.
            cfg.seed.wrapping_add(fold as u64),
        )
    })?;
    let mut len_sum = 0.0;
    let mut cov_sum = 0.0;
    for eval in evals {
        len_sum += eval.mean_length;
        cov_sum += eval.coverage;
    }
    let k = cfg.folds as f64;
    vmin_trace::histogram_record("core.cell.coverage", cov_sum / k);
    vmin_trace::histogram_record("core.cell.mean_length", len_sum / k);
    Ok(RegionEval {
        mean_length: len_sum / k,
        coverage: cov_sum / k,
    })
}

/// One row of the Table IV summary: interval stats per temperature for a
/// feature set, averaged across all stress read points, plus the Fig. 3
/// series of the same cells.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSetSummary {
    /// The feature family evaluated.
    pub feature_set: FeatureSet,
    /// Mean interval length (mV) per temperature index, averaged over read
    /// points.
    pub length_per_temp: Vec<f64>,
    /// Mean interval length (mV) per read point, averaged over
    /// temperatures (summed in temperature order): the Fig. 3 series.
    pub length_per_read_point: Vec<f64>,
    /// Grand average across temperatures.
    pub average_length: f64,
}

/// Runs the Table IV / Fig. 3 study: CQR with the given base model on each
/// feature set over every (temperature, read point) cell, averaged both
/// ways.
///
/// # Errors
///
/// Propagates assembly and pipeline failures.
pub fn run_feature_set_study(
    campaign: &Campaign,
    method: RegionMethod,
    cfg: &ExperimentConfig,
) -> Result<Vec<FeatureSetSummary>, CoreError> {
    let mut out = Vec::new();
    for feature_set in [FeatureSet::Parametric, FeatureSet::OnChip, FeatureSet::Both] {
        let n_temps = campaign.temperatures.len();
        let n_rps = campaign.read_points.len();
        // Every (temperature, read point) cell is independent: run the whole
        // grid on worker threads, then accumulate serially in the original
        // temp-major order so the averages are bit-identical to a serial run.
        let cells: Vec<(usize, usize)> = (0..n_temps)
            .flat_map(|t| (0..n_rps).map(move |rp| (t, rp)))
            .collect();
        let evals = vmin_par::par_map(&cells, 2, |_, &(temp_idx, rp)| {
            run_region_cell(campaign, rp, temp_idx, method, feature_set, cfg)
        });
        let mut per_temp = vec![0.0; n_temps];
        let mut per_rp = vec![0.0; n_rps];
        for (&(temp_idx, rp), eval) in cells.iter().zip(evals) {
            let length = eval?.mean_length;
            per_temp[temp_idx] += length;
            per_rp[rp] += length;
        }
        for v in &mut per_temp {
            *v /= n_rps as f64;
        }
        for v in &mut per_rp {
            *v /= n_temps as f64;
        }
        let average = per_temp.iter().sum::<f64>() / n_temps as f64;
        out.push(FeatureSetSummary {
            feature_set,
            length_per_temp: per_temp,
            length_per_read_point: per_rp,
            average_length: average,
        });
    }
    Ok(out)
}

/// The headline Table IV statistic: relative interval-length reduction from
/// adding on-chip monitors to parametric data (paper: ≈ 21%).
///
/// # Errors
///
/// [`CoreError::MissingSummaryRow`] when `summaries` lacks the
/// Parametric or Both row — e.g. a partial study driven by a caller that
/// restricted the feature sets.
pub fn onchip_monitor_gain(summaries: &[FeatureSetSummary]) -> Result<f64, CoreError> {
    let parametric = summaries
        .iter()
        .find(|s| s.feature_set == FeatureSet::Parametric)
        .ok_or(CoreError::MissingSummaryRow("Parametric"))?;
    let both = summaries
        .iter()
        .find(|s| s.feature_set == FeatureSet::Both)
        .ok_or(CoreError::MissingSummaryRow("Both"))?;
    Ok((parametric.average_length - both.average_length) / parametric.average_length)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_silicon::DatasetSpec;

    fn campaign() -> Campaign {
        Campaign::run(&DatasetSpec::small(), 11)
    }

    #[test]
    fn point_cell_linear_gets_signal() {
        let c = campaign();
        let eval = run_point_cell(
            &c,
            0,
            1,
            PointModel::Linear,
            FeatureSet::Both,
            &ExperimentConfig::fast(),
        )
        .unwrap();
        assert!(
            eval.r2 > 0.3,
            "time-0 Vmin should be predictable from full features, R²={}",
            eval.r2
        );
    }

    #[test]
    fn region_cell_cqr_linear_covers() {
        let c = campaign();
        let eval = run_region_cell(
            &c,
            0,
            1,
            RegionMethod::Cqr(PointModel::Linear),
            FeatureSet::Both,
            &ExperimentConfig::fast(),
        )
        .unwrap();
        // Small-n + guarantee → coverage near or above 1−α on average.
        assert!(eval.coverage > 0.7, "CQR coverage {}", eval.coverage);
        assert!(eval.mean_length > 0.0);
    }

    #[test]
    fn feature_set_study_has_three_rows() {
        let c = campaign();
        // 4 folds keep the CQR calibration split above
        // min_calibration_size(0.1) = 9 chips on the small campaign.
        let cfg = ExperimentConfig::fast();
        let rows = run_feature_set_study(&c, RegionMethod::Cqr(PointModel::Linear), &cfg).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.length_per_temp.len(), 3);
            assert_eq!(r.length_per_read_point.len(), c.read_points.len());
            assert!(r.average_length > 0.0);
        }
        // The Fig. 3 series is the temperature mean of the same cells,
        // summed in temperature order from 0.0.
        let last_rp = c.read_points.len() - 1;
        let mut acc = 0.0;
        for temp_idx in 0..c.temperatures.len() {
            let method = RegionMethod::Cqr(PointModel::Linear);
            acc += run_region_cell(&c, last_rp, temp_idx, method, rows[0].feature_set, &cfg)
                .unwrap()
                .mean_length;
        }
        let expected = acc / c.temperatures.len() as f64;
        assert_eq!(
            rows[0].length_per_read_point[last_rp].to_bits(),
            expected.to_bits()
        );
        let gain = onchip_monitor_gain(&rows).unwrap();
        assert!(gain.is_finite());
        // A study missing the Both row cannot produce the gain statistic.
        let partial: Vec<_> = rows
            .iter()
            .filter(|r| r.feature_set != FeatureSet::Both)
            .cloned()
            .collect();
        assert!(matches!(
            onchip_monitor_gain(&partial),
            Err(CoreError::MissingSummaryRow("Both"))
        ));
    }

    #[test]
    fn cell_on_preassembled_dataset_is_bit_identical() {
        let c = campaign();
        let cfg = ExperimentConfig::fast();
        let ds = assemble_dataset(&c, 0, 1, FeatureSet::Both).unwrap();
        let via_campaign = run_region_cell(
            &c,
            0,
            1,
            RegionMethod::Cqr(PointModel::Linear),
            FeatureSet::Both,
            &cfg,
        )
        .unwrap();
        let via_dataset =
            run_region_cell_on(&ds, RegionMethod::Cqr(PointModel::Linear), &cfg).unwrap();
        assert_eq!(via_campaign, via_dataset);
        let p_campaign =
            run_point_cell(&c, 0, 1, PointModel::Linear, FeatureSet::Both, &cfg).unwrap();
        let p_dataset = run_point_cell_on(&ds, PointModel::Linear, &cfg).unwrap();
        assert_eq!(p_campaign, p_dataset);
    }

    #[test]
    fn fold_counts_outside_two_to_n_rows_are_typed_errors() {
        let ds = assemble_dataset(&campaign(), 0, 1, FeatureSet::Both).unwrap();
        for folds in [1, ds.n_samples() + 1] {
            let cfg = ExperimentConfig {
                folds,
                ..ExperimentConfig::fast()
            };
            let invalid = |e: &CoreError| {
                matches!(e, CoreError::InvalidConfig(_))
                    && e.to_string().starts_with("invalid configuration")
            };
            let point = run_point_cell_on(&ds, PointModel::Linear, &cfg).unwrap_err();
            assert!(invalid(&point), "folds {folds}: {point}");
            let region = run_region_cell_on(&ds, RegionMethod::Gp, &cfg).unwrap_err();
            assert!(invalid(&region), "folds {folds}: {region}");
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.alpha, 0.1);
        assert_eq!(cfg.folds, 4);
        assert_eq!(cfg.cal_fraction, 0.25);
    }
}

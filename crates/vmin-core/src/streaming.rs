//! The streaming in-field driver: fit at production test, then keep the
//! coverage guarantee alive as chips report telemetry across read points.
//!
//! [`run_stream`] is the deployment loop the paper's §V sketches but the
//! batch experiment drivers cannot exercise: a CQR predictor is fitted and
//! calibrated once on the production-test snapshot (read point 0), then
//! every evaluation chip streams `(monitor snapshot, measured Vmin)` pairs
//! through the read points in fixed fleet order. The static `q̂` rides along
//! for comparison while an [`AdaptiveCalibrator`] maintains the rolling
//! window, ACI feedback and degradation ladder — so one report shows, per
//! read point, exactly what the adaptive layer buys over frozen
//! calibration once aging (or an injected [`vmin_silicon::DriftInjector`]
//! fault) breaks exchangeability.
//!
//! The loop is a pure sequential fold over `(read point, chip)` in index
//! order; all parallelism lives inside model fitting (`vmin-par`, bit-
//! identical by construction), so the report is byte-stable under any
//! `VMIN_THREADS`.

use crate::error::CoreError;
use crate::flow::{check_open_unit, quantile_pair};
use crate::scenario::{assemble_stream_snapshot, FeatureSet};
use crate::zoo::{ModelConfig, PointModel};
use vmin_conformal::{
    AdaptiveCalibrator, AdaptiveConfig, ConformalError, Cqr, LadderState, LadderTransition,
};
use vmin_data::train_test_split;
use vmin_silicon::Campaign;

/// Configuration of one streaming run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Temperature index of the Vmin column being tracked.
    pub temp_idx: usize,
    /// Feature families in the telemetry snapshot.
    pub feature_set: FeatureSet,
    /// Base point model; must have a quantile form (GP does not).
    pub model: PointModel,
    /// Hyperparameters for the base model.
    pub model_cfg: ModelConfig,
    /// Target miscoverage α.
    pub alpha: f64,
    /// Fraction of the fleet fitted/calibrated at production test; the
    /// remainder becomes the streaming evaluation fleet.
    pub train_fraction: f64,
    /// Fraction of the training pool held out as the initial calibration
    /// window (the paper's 75/25 CQR split ⇒ `0.25`).
    pub cal_fraction: f64,
    /// Seed for the two deterministic splits.
    pub seed: u64,
    /// The adaptive layer's configuration.
    pub adaptive: AdaptiveConfig,
}

impl StreamConfig {
    /// A fast, test-friendly configuration at miscoverage `alpha`: linear
    /// quantile bands, on-chip + parametric features, 25 °C column.
    pub fn fast(alpha: f64) -> StreamConfig {
        StreamConfig {
            temp_idx: 1,
            feature_set: FeatureSet::Both,
            model: PointModel::Linear,
            model_cfg: ModelConfig::fast(),
            alpha,
            train_fraction: 0.6,
            cal_fraction: 0.4,
            seed: 7,
            adaptive: AdaptiveConfig::for_alpha(alpha),
        }
    }
}

/// Per-read-point tally of one streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadPointStats {
    /// Read-point index within the campaign.
    pub read_point: usize,
    /// Evaluation chips streamed at this read point.
    pub n: usize,
    /// Intervals actually issued (not rejected).
    pub issued: usize,
    /// Issued intervals that covered the measured Vmin.
    pub covered: usize,
    /// Observations consumed while the ladder sat in `Rejecting`.
    pub rejected: usize,
    /// How many chips the *frozen* static calibration covered (score ≤
    /// static q̂) — the baseline the adaptive layer is judged against.
    pub static_covered: usize,
    /// Issued intervals with finite width.
    pub finite: usize,
    /// Mean width of the finite issued intervals (0 when none).
    pub mean_finite_width: f64,
    /// Mean ACI miscoverage `α_t` across the read point.
    pub mean_alpha: f64,
    /// Ladder state after the last chip of this read point.
    pub end_state: LadderState,
}

/// The full streaming report.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// One entry per campaign read point, in stream order.
    pub per_read_point: Vec<ReadPointStats>,
    /// Ladder state when the stream ended.
    pub final_state: LadderState,
    /// Most severe ladder state the stream reached.
    pub worst_state: LadderState,
    /// Every ladder transition, in stream order.
    pub transitions: Vec<LadderTransition>,
    /// The frozen production-test `q̂` the static baseline used.
    pub static_qhat: f64,
    /// The ACI miscoverage `α_t` when the stream ended.
    pub alpha_final: f64,
    /// Number of chips in the streaming evaluation fleet.
    pub eval_chips: usize,
}

/// Runs the full streaming deployment loop over `campaign`.
///
/// 1. Split the fleet into a production-test pool and an evaluation fleet;
///    split the pool again into proper-training and calibration chips.
/// 2. Fit a CQR band on the read-point-0 snapshot of the proper chips and
///    calibrate on the calibration chips — the *frozen* static predictor.
/// 3. Seed an [`AdaptiveCalibrator`] with the calibration scores.
/// 4. Stream every evaluation chip at every read point (fleet order within
///    read point, read points ascending) through [`AdaptiveCalibrator::observe`],
///    tallying adaptive and static coverage side by side.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for inconsistent fractions/α or a base
/// model without a quantile form; assembly, model and conformal failures
/// arrive typed as the layer that raised them.
///
/// # Examples
///
/// ```
/// use vmin_core::{run_stream, StreamConfig};
/// use vmin_silicon::{Campaign, DatasetSpec};
///
/// let campaign = Campaign::run(&DatasetSpec::small(), 5);
/// let report = run_stream(&campaign, &StreamConfig::fast(0.2))?;
/// assert_eq!(report.per_read_point.len(), campaign.read_points.len());
/// # Ok::<(), vmin_core::CoreError>(())
/// ```
pub fn run_stream(campaign: &Campaign, config: &StreamConfig) -> Result<StreamReport, CoreError> {
    let _span = vmin_trace::span("core.stream.run");
    check_open_unit("alpha", config.alpha)?;
    check_open_unit("train_fraction", config.train_fraction)?;
    check_open_unit("cal_fraction", config.cal_fraction)?;
    let n = campaign.chip_count();
    if n < 8 {
        return Err(CoreError::InvalidConfig(format!(
            "streaming needs at least 8 chips to split three ways, got {n}"
        )));
    }

    let snapshot0 = assemble_stream_snapshot(campaign, 0, config.temp_idx, config.feature_set)?;

    // Fleet split: pool (fit + calibrate) vs evaluation stream, then pool
    // into proper-training vs calibration chips. Both splits are seeded.
    let fleet = train_test_split(n, config.train_fraction, config.seed);
    let pool = train_test_split(
        fleet.train.len(),
        1.0 - config.cal_fraction,
        config.seed.wrapping_add(1),
    );
    let proper_idx: Vec<usize> = pool.train.iter().map(|&i| fleet.train[i]).collect();
    let cal_idx: Vec<usize> = pool.test.iter().map(|&i| fleet.train[i]).collect();
    let proper = snapshot0.subset_rows(&proper_idx)?;
    let cal = snapshot0.subset_rows(&cal_idx)?;

    let (lo, hi) = quantile_pair(config.model, config.alpha, &config.model_cfg)?;
    let mut cqr = Cqr::new(lo, hi, config.alpha);
    cqr.fit_calibrate(
        proper.features(),
        proper.targets(),
        cal.features(),
        cal.targets(),
    )?;
    let static_qhat = cqr.qhat().ok_or(ConformalError::NotCalibrated)?;
    let initial_scores = cqr.scores(cal.features(), cal.targets())?;
    let mut adaptive = AdaptiveCalibrator::new(&initial_scores, config.adaptive.clone())?;

    let mut per_read_point = Vec::with_capacity(campaign.read_points.len());
    for k in 0..campaign.read_points.len() {
        let snapshot = assemble_stream_snapshot(campaign, k, config.temp_idx, config.feature_set)?;
        let mut stats = ReadPointStats {
            read_point: k,
            n: 0,
            issued: 0,
            covered: 0,
            rejected: 0,
            static_covered: 0,
            finite: 0,
            mean_finite_width: 0.0,
            mean_alpha: 0.0,
            end_state: adaptive.state(),
        };
        let mut width_sum = 0.0;
        let mut alpha_sum = 0.0;
        for &chip in &fleet.test {
            let band = cqr.predict_raw_band(snapshot.sample(chip))?;
            let y = snapshot.targets()[chip];
            let obs = adaptive.observe(band, y)?;
            stats.n += 1;
            alpha_sum += obs.alpha;
            if obs.score <= static_qhat {
                stats.static_covered += 1;
            }
            match obs.interval {
                Some(iv) => {
                    stats.issued += 1;
                    if obs.covered == Some(true) {
                        stats.covered += 1;
                    }
                    if iv.length().is_finite() {
                        stats.finite += 1;
                        width_sum += iv.length();
                    }
                }
                None => stats.rejected += 1,
            }
        }
        if stats.finite > 0 {
            stats.mean_finite_width = width_sum / stats.finite as f64;
        }
        if stats.n > 0 {
            stats.mean_alpha = alpha_sum / stats.n as f64;
        }
        stats.end_state = adaptive.state();
        vmin_trace::counter_add("core.stream.read_points", 1);
        per_read_point.push(stats);
    }
    vmin_trace::counter_add("core.stream.runs", 1);

    Ok(StreamReport {
        per_read_point,
        final_state: adaptive.state(),
        worst_state: adaptive.worst_state(),
        transitions: adaptive.transitions().to_vec(),
        static_qhat,
        alpha_final: adaptive.alpha(),
        eval_chips: fleet.test.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_silicon::{DatasetSpec, DriftClass, DriftFault, DriftInjector};

    fn campaign() -> Campaign {
        Campaign::run(&DatasetSpec::small(), 17)
    }

    #[test]
    fn clean_stream_produces_full_report() {
        let c = campaign();
        let report = run_stream(&c, &StreamConfig::fast(0.2)).unwrap();
        assert_eq!(report.per_read_point.len(), c.read_points.len());
        assert!(report.eval_chips > 0);
        assert!(report.static_qhat.is_finite());
        for stats in &report.per_read_point {
            assert_eq!(stats.n, report.eval_chips);
            assert_eq!(stats.issued + stats.rejected, stats.n);
        }
        // A clean campaign must never hit the terminal valve.
        assert_ne!(report.worst_state, vmin_conformal::LadderState::Rejecting);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = campaign();
        for bad in [
            StreamConfig {
                alpha: 0.0,
                ..StreamConfig::fast(0.2)
            },
            StreamConfig {
                train_fraction: 1.0,
                ..StreamConfig::fast(0.2)
            },
            StreamConfig {
                cal_fraction: 0.0,
                ..StreamConfig::fast(0.2)
            },
            StreamConfig {
                model: PointModel::GaussianProcess,
                ..StreamConfig::fast(0.2)
            },
        ] {
            assert!(
                matches!(run_stream(&c, &bad), Err(CoreError::InvalidConfig(_))),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn stream_is_deterministic_for_fixed_seed() {
        let c = campaign();
        let cfg = StreamConfig::fast(0.2);
        assert_eq!(run_stream(&c, &cfg).unwrap(), run_stream(&c, &cfg).unwrap());
    }

    #[test]
    fn drifted_stream_reacts_where_clean_stream_does_not() {
        let c = campaign();
        let (drifted, _) = DriftInjector::new(
            vec![DriftFault {
                class: DriftClass::SuddenShift,
                onset: 3,
                magnitude_mv: 60.0,
                fraction: 1.0,
            }],
            3,
        )
        .unwrap()
        .inject(&c);
        let cfg = StreamConfig::fast(0.2);
        let clean_report = run_stream(&c, &cfg).unwrap();
        let drift_report = run_stream(&drifted, &cfg).unwrap();
        assert!(
            drift_report.worst_state > clean_report.worst_state
                || drift_report.transitions.len() > clean_report.transitions.len(),
            "a 60 mV fleet-wide shift left the ladder untouched: {:?}",
            drift_report.worst_state
        );
        // Pre-onset read points are identical streams.
        assert_eq!(
            clean_report.per_read_point[..3],
            drift_report.per_read_point[..3]
        );
    }
}

//! Production-test acceleration via interval-gated screening — the first
//! future-work deployment of §V: *"embed the proposed method in the
//! production test flow to accelerate the Vmin test and enhance the yield
//! while screening out outliers."*
//!
//! For each incoming chip the fitted interval predictor classifies:
//!
//! - **PredictPass**: interval upper bound below `min_spec − guard_band` →
//!   ship without measuring Vmin (saves the whole shmoo).
//! - **PredictFail**: interval lower bound above `min_spec` → reject
//!   without measuring.
//! - **Measure**: interval straddles the spec → fall back to the
//!   conventional shmoo measurement.
//!
//! Because the interval carries a `1 − α` coverage guarantee, the escape
//! rate (shipped chips whose true Vmin violates spec) is bounded by the
//! miscoverage budget spent on the PredictPass bucket.

use crate::error::CoreError;
use crate::flow::VminPredictor;
use std::fmt;
use vmin_data::Dataset;

/// The screening decision for one chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreeningDecision {
    /// Ship without measurement: upper bound clears spec minus guard band.
    PredictPass,
    /// Reject without measurement: lower bound violates spec.
    PredictFail,
    /// Interval straddles the spec: measure conventionally.
    Measure,
}

impl fmt::Display for ScreeningDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScreeningDecision::PredictPass => "predict-pass",
            ScreeningDecision::PredictFail => "predict-fail",
            ScreeningDecision::Measure => "measure",
        };
        f.write_str(s)
    }
}

/// Interval-gated adaptive test policy.
#[derive(Debug)]
pub struct ScreeningPolicy<'a> {
    predictor: &'a VminPredictor,
    /// Product min-spec (mV): chips with Vmin above this violate spec.
    min_spec_mv: f64,
    /// Extra margin (mV) required below spec before skipping measurement.
    guard_band_mv: f64,
}

impl<'a> ScreeningPolicy<'a> {
    /// Builds a policy around a fitted predictor.
    pub fn new(predictor: &'a VminPredictor, min_spec_mv: f64, guard_band_mv: f64) -> Self {
        ScreeningPolicy {
            predictor,
            min_spec_mv,
            guard_band_mv,
        }
    }

    /// The product min-spec (mV).
    pub fn min_spec_mv(&self) -> f64 {
        self.min_spec_mv
    }

    /// Decision for one chip's feature row.
    ///
    /// # Errors
    ///
    /// Propagates predictor failures.
    pub fn decide(&self, row: &[f64]) -> Result<ScreeningDecision, CoreError> {
        let iv = self.predictor.interval(row)?;
        if iv.hi() < self.min_spec_mv - self.guard_band_mv {
            Ok(ScreeningDecision::PredictPass)
        } else if iv.lo() > self.min_spec_mv {
            Ok(ScreeningDecision::PredictFail)
        } else {
            Ok(ScreeningDecision::Measure)
        }
    }
}

/// Outcome of simulating the adaptive flow over a chip population.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreeningReport {
    /// Chips shipped on prediction alone.
    pub predicted_pass: usize,
    /// Chips rejected on prediction alone.
    pub predicted_fail: usize,
    /// Chips routed to conventional measurement.
    pub measured: usize,
    /// Shipped-without-measurement chips whose true Vmin violates spec
    /// (test escapes — bounded by the coverage guarantee).
    pub escapes: usize,
    /// Rejected-without-measurement chips whose true Vmin actually meets
    /// spec (overkill).
    pub overkill: usize,
    /// Fraction of shmoo measurements avoided.
    pub measurement_savings: f64,
}

impl ScreeningReport {
    /// Escape rate over the shipped-without-measurement population
    /// (0 when nothing was auto-shipped).
    pub fn escape_rate(&self) -> f64 {
        if self.predicted_pass == 0 {
            0.0
        } else {
            self.escapes as f64 / self.predicted_pass as f64
        }
    }
}

/// Simulates the adaptive flow on a labelled dataset (features + true Vmin
/// in mV) and tallies savings, escapes and overkill.
///
/// # Errors
///
/// Propagates predictor failures.
pub fn simulate_screening(
    policy: &ScreeningPolicy<'_>,
    chips: &Dataset,
) -> Result<ScreeningReport, CoreError> {
    let mut report = ScreeningReport {
        predicted_pass: 0,
        predicted_fail: 0,
        measured: 0,
        escapes: 0,
        overkill: 0,
        measurement_savings: 0.0,
    };
    for i in 0..chips.n_samples() {
        let truth_violates = chips.targets()[i] > policy.min_spec_mv();
        match policy.decide(chips.sample(i))? {
            ScreeningDecision::PredictPass => {
                report.predicted_pass += 1;
                report.escapes += usize::from(truth_violates);
            }
            ScreeningDecision::PredictFail => {
                report.predicted_fail += 1;
                report.overkill += usize::from(!truth_violates);
            }
            ScreeningDecision::Measure => report.measured += 1,
        }
    }
    let n = chips.n_samples().max(1);
    report.measurement_savings = (report.predicted_pass + report.predicted_fail) as f64 / n as f64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{assemble_dataset, FeatureSet};
    use crate::zoo::{ModelConfig, PointModel, RegionMethod};
    use vmin_data::train_test_split;
    use vmin_silicon::{Campaign, DatasetSpec};

    fn setup() -> (Dataset, Dataset) {
        let campaign = Campaign::run(&DatasetSpec::small(), 808);
        let ds = assemble_dataset(&campaign, 0, 1, FeatureSet::Both).unwrap();
        let split = train_test_split(ds.n_samples(), 0.75, 5);
        (
            ds.subset_rows(&split.train).unwrap(),
            ds.subset_rows(&split.test).unwrap(),
        )
    }

    fn predictor(train: &Dataset) -> VminPredictor {
        VminPredictor::fit(
            train,
            RegionMethod::Cqr(PointModel::Linear),
            0.2,
            0.4,
            9,
            &ModelConfig::fast(),
        )
        .unwrap()
    }

    #[test]
    fn generous_spec_ships_everything() {
        let (train, test) = setup();
        let p = predictor(&train);
        // Spec far above the population: every interval clears it.
        let policy = ScreeningPolicy::new(&p, 10_000.0, 5.0);
        let rep = simulate_screening(&policy, &test).unwrap();
        assert_eq!(rep.predicted_pass, test.n_samples());
        assert_eq!(rep.escapes, 0);
        assert!((rep.measurement_savings - 1.0).abs() < 1e-12);
        assert_eq!(rep.escape_rate(), 0.0);
    }

    #[test]
    fn impossible_spec_rejects_everything() {
        let (train, test) = setup();
        let p = predictor(&train);
        let policy = ScreeningPolicy::new(&p, 0.0, 5.0);
        let rep = simulate_screening(&policy, &test).unwrap();
        assert_eq!(rep.predicted_fail, test.n_samples());
        // Everything truly violates a 0 mV spec, so no overkill.
        assert_eq!(rep.overkill, 0);
    }

    #[test]
    fn mid_population_spec_routes_ambiguous_chips_to_measurement() {
        let (train, test) = setup();
        let p = predictor(&train);
        // Spec at the training median: intervals straddle it for most chips.
        let spec = vmin_linalg::quantile(train.targets(), 0.5).unwrap();
        let policy = ScreeningPolicy::new(&p, spec, 2.0);
        let rep = simulate_screening(&policy, &test).unwrap();
        assert!(
            rep.measured > 0,
            "ambiguous chips must be measured: {rep:?}"
        );
        assert_eq!(
            rep.predicted_pass + rep.predicted_fail + rep.measured,
            test.n_samples()
        );
    }

    #[test]
    fn guard_band_monotonically_reduces_auto_ship() {
        let (train, test) = setup();
        let p = predictor(&train);
        let spec = vmin_linalg::quantile(train.targets(), 0.95).unwrap();
        let ship_with = |guard: f64| {
            let policy = ScreeningPolicy::new(&p, spec, guard);
            simulate_screening(&policy, &test).unwrap().predicted_pass
        };
        assert!(ship_with(0.0) >= ship_with(10.0));
        assert!(ship_with(10.0) >= ship_with(40.0));
    }

    #[test]
    fn escape_rate_is_small_under_the_guarantee() {
        // Spec in the upper tail so a meaningful fraction auto-ships, then
        // check escapes stay bounded (coverage guarantee + guard band).
        let (train, test) = setup();
        let p = predictor(&train);
        let spec = vmin_linalg::quantile(train.targets(), 0.9).unwrap();
        let policy = ScreeningPolicy::new(&p, spec, 2.0);
        let rep = simulate_screening(&policy, &test).unwrap();
        assert!(
            rep.escape_rate() <= 0.25,
            "escape rate {} too high: {rep:?}",
            rep.escape_rate()
        );
    }

    #[test]
    fn decision_display() {
        assert_eq!(ScreeningDecision::PredictPass.to_string(), "predict-pass");
        assert_eq!(ScreeningDecision::Measure.to_string(), "measure");
    }
}

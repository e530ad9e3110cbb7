//! In-field reliability forecasting — the second future-work deployment of
//! §V: *"embed the proposed method in in-field systems to secure long-term
//! reliability and safety."*
//!
//! At each stress read point a strictly-causal predictor (time-0 parametric
//! data + monitor readings from previous read points only) produces a Vmin
//! interval. A chip raises a **degradation alarm** at the first read point
//! whose interval *upper bound* crosses the product min-spec; comparing the
//! alarm time with the true first violation yields lead time, missed
//! alarms and false alarms over a fleet.

use crate::error::CoreError;
use crate::flow::VminPredictor;
use crate::scenario::{assemble_dataset, FeatureSet};
use crate::zoo::{ModelConfig, RegionMethod};
use vmin_silicon::Campaign;

/// Outcome of one chip's lifetime forecast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipForecast {
    /// Chip index within the campaign.
    pub chip_id: usize,
    /// First read-point index whose *predicted upper bound* crosses the
    /// spec, if any.
    pub alarm_at: Option<usize>,
    /// First read-point index whose *measured Vmin* crosses the spec, if
    /// any (ground truth).
    pub violation_at: Option<usize>,
}

impl ChipForecast {
    /// Alarm issued at or before the true violation (the safe case).
    pub fn alarm_in_time(&self) -> bool {
        match (self.alarm_at, self.violation_at) {
            (Some(a), Some(v)) => a <= v,
            (_, None) => true, // nothing to catch
            (None, Some(_)) => false,
        }
    }

    /// Read points of warning the fleet manager gets before the failure
    /// (0 when the alarm coincides with the violation).
    pub fn lead_read_points(&self) -> Option<usize> {
        match (self.alarm_at, self.violation_at) {
            (Some(a), Some(v)) if a <= v => Some(v - a),
            _ => None,
        }
    }
}

/// Fleet-level forecast summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-chip outcomes.
    pub chips: Vec<ChipForecast>,
    /// Chips whose true Vmin violates the spec at some read point.
    pub true_failures: usize,
    /// True failures alarmed at or before the violation read point.
    pub caught_in_time: usize,
    /// Healthy chips that raised an alarm anyway.
    pub false_alarms: usize,
}

impl FleetReport {
    /// Recall over the true failures (1.0 when none exist).
    pub fn recall(&self) -> f64 {
        if self.true_failures == 0 {
            1.0
        } else {
            self.caught_in_time as f64 / self.true_failures as f64
        }
    }
}

/// Runs the in-field forecast across every read point of a campaign.
///
/// For each read point `k ≥ 1`, a predictor is trained on the `train`
/// chip indices (features per the §III-A in-field rule) and evaluated on
/// the `fleet` indices; alarms and true violations are tallied per chip.
///
/// # Errors
///
/// Propagates assembly/fit failures.
///
/// # Panics
///
/// Panics if any index exceeds the campaign population.
#[allow(clippy::too_many_arguments)] // experiment driver mirrors the protocol knobs
pub fn forecast_fleet(
    campaign: &Campaign,
    train: &[usize],
    fleet: &[usize],
    temp_idx: usize,
    method: RegionMethod,
    alpha: f64,
    min_spec_mv: f64,
    cfg: &ModelConfig,
) -> Result<FleetReport, CoreError> {
    let n_rps = campaign.read_points.len();
    let mut alarm_at: Vec<Option<usize>> = vec![None; fleet.len()];
    let mut violation_at: Vec<Option<usize>> = vec![None; fleet.len()];

    for rp in 0..n_rps {
        let ds = assemble_dataset(campaign, rp, temp_idx, FeatureSet::Both)?;
        let train_ds = ds.subset_rows(train)?;
        let predictor = VminPredictor::fit(&train_ds, method, alpha, 0.25, 7, cfg)?;
        for (fi, &chip) in fleet.iter().enumerate() {
            let iv = predictor.interval(ds.sample(chip))?;
            if alarm_at[fi].is_none() && iv.hi() > min_spec_mv {
                alarm_at[fi] = Some(rp);
            }
            if violation_at[fi].is_none() && ds.targets()[chip] > min_spec_mv {
                violation_at[fi] = Some(rp);
            }
        }
    }

    let chips: Vec<ChipForecast> = fleet
        .iter()
        .enumerate()
        .map(|(fi, &chip)| ChipForecast {
            chip_id: chip,
            alarm_at: alarm_at[fi],
            violation_at: violation_at[fi],
        })
        .collect();
    let true_failures = chips.iter().filter(|c| c.violation_at.is_some()).count();
    let caught_in_time = chips
        .iter()
        .filter(|c| c.violation_at.is_some() && c.alarm_in_time())
        .count();
    let false_alarms = chips
        .iter()
        .filter(|c| c.violation_at.is_none() && c.alarm_at.is_some())
        .count();
    Ok(FleetReport {
        chips,
        true_failures,
        caught_in_time,
        false_alarms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::PointModel;
    use vmin_data::train_test_split;
    use vmin_silicon::DatasetSpec;

    fn setup() -> (Campaign, Vec<usize>, Vec<usize>) {
        let campaign = Campaign::run(&DatasetSpec::small(), 606);
        let split = train_test_split(campaign.chip_count(), 0.75, 3);
        (campaign, split.train, split.test)
    }

    #[test]
    fn forecast_structures_are_consistent() {
        let (campaign, train, fleet) = setup();
        // Spec at the 80th percentile of end-of-life Vmin so some chips
        // genuinely fail during stress.
        let eol = campaign.vmin_column(5, 1);
        let spec = vmin_linalg::quantile(&eol, 0.8).unwrap();
        let report = forecast_fleet(
            &campaign,
            &train,
            &fleet,
            1,
            RegionMethod::Cqr(PointModel::Linear),
            0.2,
            spec,
            &ModelConfig::fast(),
        )
        .unwrap();
        assert_eq!(report.chips.len(), fleet.len());
        assert!(report.true_failures <= fleet.len());
        assert!(report.caught_in_time <= report.true_failures);
        assert!((0.0..=1.0).contains(&report.recall()));
    }

    #[test]
    fn alarms_catch_most_failures() {
        let (campaign, train, fleet) = setup();
        let eol = campaign.vmin_column(5, 1);
        let spec = vmin_linalg::quantile(&eol, 0.75).unwrap();
        let report = forecast_fleet(
            &campaign,
            &train,
            &fleet,
            1,
            RegionMethod::Cqr(PointModel::Linear),
            0.2,
            spec,
            &ModelConfig::fast(),
        )
        .unwrap();
        if report.true_failures > 0 {
            assert!(
                report.recall() >= 0.5,
                "interval upper bounds should catch most failures: {report:?}"
            );
        }
    }

    #[test]
    fn forecast_helpers() {
        let caught = ChipForecast {
            chip_id: 0,
            alarm_at: Some(2),
            violation_at: Some(4),
        };
        assert!(caught.alarm_in_time());
        assert_eq!(caught.lead_read_points(), Some(2));
        let missed = ChipForecast {
            chip_id: 1,
            alarm_at: None,
            violation_at: Some(3),
        };
        assert!(!missed.alarm_in_time());
        assert_eq!(missed.lead_read_points(), None);
        let healthy = ChipForecast {
            chip_id: 2,
            alarm_at: None,
            violation_at: None,
        };
        assert!(healthy.alarm_in_time());
    }

    #[test]
    fn zero_failures_gives_full_recall() {
        let r = FleetReport {
            chips: vec![],
            true_failures: 0,
            caught_in_time: 0,
            false_alarms: 0,
        };
        assert_eq!(r.recall(), 1.0);
    }
}

//! ML-assisted Vmin binning with guard bands — the application of the
//! paper's reference [4] (Lin et al., ITC 2022), built on guaranteed-
//! coverage intervals instead of point predictions.
//!
//! Chips are assigned to discrete supply-voltage bins; a chip may ship in
//! bin `V` only if its predicted Vmin interval upper bound, plus a guard
//! band, lies below `V`. Lower bins mean quadratically lower dynamic power,
//! so the binning quality metric is the average shipped supply (and the
//! fraction of chips that fall off the lowest bins).

use crate::error::CoreError;
use crate::flow::VminPredictor;
use vmin_data::Dataset;

/// A voltage-binning scheme: ascending bin supplies in mV.
#[derive(Debug, Clone, PartialEq)]
pub struct BinningScheme {
    bins_mv: Vec<f64>,
    guard_band_mv: f64,
}

impl BinningScheme {
    /// Builds a scheme from ascending bin voltages (mV) and a guard band.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if fewer than one bin is given,
    /// bins are not strictly ascending, or the guard band is negative.
    pub fn new(bins_mv: Vec<f64>, guard_band_mv: f64) -> Result<Self, CoreError> {
        if bins_mv.is_empty() {
            return Err(CoreError::InvalidConfig("need at least one bin".into()));
        }
        if bins_mv.windows(2).any(|w| w[1] <= w[0]) {
            return Err(CoreError::InvalidConfig(
                "bin voltages must be strictly ascending".into(),
            ));
        }
        if guard_band_mv < 0.0 {
            return Err(CoreError::InvalidConfig(
                "guard band must be non-negative".into(),
            ));
        }
        Ok(BinningScheme {
            bins_mv,
            guard_band_mv,
        })
    }

    /// The bin voltages (mV), ascending.
    pub fn bins_mv(&self) -> &[f64] {
        &self.bins_mv
    }

    /// Assigns a chip to the lowest bin whose voltage clears
    /// `upper_bound + guard_band`; `None` when even the top bin is unsafe
    /// (the chip must be rejected or measured).
    pub fn assign(&self, vmin_upper_bound_mv: f64) -> Option<usize> {
        self.bins_mv
            .iter()
            .position(|&v| vmin_upper_bound_mv + self.guard_band_mv <= v)
    }
}

/// Result of binning a population with a fitted interval predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct BinningReport {
    /// Chips per bin (same order as the scheme's bins).
    pub bin_counts: Vec<usize>,
    /// Chips no bin could safely hold.
    pub unbinnable: usize,
    /// Chips whose *true* Vmin exceeds their assigned bin voltage
    /// (bin escapes — would fail in the field at the binned supply).
    pub escapes: usize,
    /// Mean shipped supply (mV) over binned chips.
    pub mean_supply_mv: f64,
    /// Mean dynamic-power ratio vs running everyone at the top bin
    /// (`(V_bin/V_top)²` averaged over binned chips).
    pub power_ratio: f64,
}

/// Bins every chip of `population` by its predicted interval upper bound
/// and audits the assignment against the true Vmin targets.
///
/// # Errors
///
/// Propagates predictor failures.
pub fn bin_population(
    predictor: &VminPredictor,
    scheme: &BinningScheme,
    population: &Dataset,
) -> Result<BinningReport, CoreError> {
    let mut bin_counts = vec![0usize; scheme.bins_mv().len()];
    let mut unbinnable = 0usize;
    let mut escapes = 0usize;
    let mut supply_sum = 0.0;
    let mut power_sum = 0.0;
    // invariant: BinningScheme::new rejects an empty bin list.
    let Some(&v_top) = scheme.bins_mv().last() else {
        return Err(CoreError::InvalidConfig(
            "binning scheme has no bins".to_string(),
        ));
    };
    let mut binned = 0usize;
    for i in 0..population.n_samples() {
        let iv = predictor.interval(population.sample(i))?;
        match scheme.assign(iv.hi()) {
            None => unbinnable += 1,
            Some(b) => {
                bin_counts[b] += 1;
                binned += 1;
                let v = scheme.bins_mv()[b];
                supply_sum += v;
                power_sum += (v / v_top) * (v / v_top);
                if population.targets()[i] > v {
                    escapes += 1;
                }
            }
        }
    }
    let denom = binned.max(1) as f64;
    Ok(BinningReport {
        bin_counts,
        unbinnable,
        escapes,
        mean_supply_mv: supply_sum / denom,
        power_ratio: power_sum / denom,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{assemble_dataset, FeatureSet};
    use crate::zoo::{ModelConfig, PointModel, RegionMethod};
    use vmin_data::train_test_split;
    use vmin_silicon::{Campaign, DatasetSpec};

    fn fitted() -> (VminPredictor, Dataset) {
        let campaign = Campaign::run(&DatasetSpec::small(), 515);
        let ds = assemble_dataset(&campaign, 0, 1, FeatureSet::Both).unwrap();
        let split = train_test_split(ds.n_samples(), 0.75, 2);
        let train = ds.subset_rows(&split.train).unwrap();
        let test = ds.subset_rows(&split.test).unwrap();
        let p = VminPredictor::fit(
            &train,
            RegionMethod::Cqr(PointModel::Linear),
            0.2,
            0.4,
            2,
            &ModelConfig::fast(),
        )
        .unwrap();
        (p, test)
    }

    #[test]
    fn scheme_validation() {
        assert!(BinningScheme::new(vec![], 5.0).is_err());
        assert!(BinningScheme::new(vec![600.0, 600.0], 5.0).is_err());
        assert!(BinningScheme::new(vec![650.0, 600.0], 5.0).is_err());
        assert!(BinningScheme::new(vec![600.0], -1.0).is_err());
        assert!(BinningScheme::new(vec![600.0, 650.0, 700.0], 5.0).is_ok());
    }

    #[test]
    fn assignment_picks_the_lowest_safe_bin() {
        let s = BinningScheme::new(vec![600.0, 650.0, 700.0], 10.0).unwrap();
        assert_eq!(s.assign(580.0), Some(0)); // 580+10 ≤ 600
        assert_eq!(s.assign(595.0), Some(1)); // needs 650
        assert_eq!(s.assign(689.0), Some(2));
        assert_eq!(s.assign(695.0), None); // 705 > 700
    }

    #[test]
    fn binning_a_population_conserves_chips() {
        let (p, test) = fitted();
        let lo = vmin_linalg::min(test.targets()) - 20.0;
        let hi = vmin_linalg::max(test.targets()) + 60.0;
        let scheme =
            BinningScheme::new(vec![lo + (hi - lo) * 0.4, lo + (hi - lo) * 0.7, hi], 2.0).unwrap();
        let report = bin_population(&p, &scheme, &test).unwrap();
        let total: usize = report.bin_counts.iter().sum::<usize>() + report.unbinnable;
        assert_eq!(total, test.n_samples());
        assert!(report.power_ratio > 0.0 && report.power_ratio <= 1.0 + 1e-12);
        assert!(report.mean_supply_mv > 0.0);
    }

    #[test]
    fn generous_top_bin_holds_everyone_without_escapes() {
        let (p, test) = fitted();
        let scheme = BinningScheme::new(vec![2000.0], 0.0).unwrap();
        let report = bin_population(&p, &scheme, &test).unwrap();
        assert_eq!(report.bin_counts[0], test.n_samples());
        assert_eq!(report.unbinnable, 0);
        assert_eq!(report.escapes, 0);
    }

    #[test]
    fn finer_bins_cut_power() {
        let (p, test) = fitted();
        let top = vmin_linalg::max(test.targets()) + 80.0;
        let coarse = BinningScheme::new(vec![top], 2.0).unwrap();
        let mid = vmin_linalg::quantile(test.targets(), 0.5).unwrap() + 40.0;
        let fine = BinningScheme::new(vec![mid, top], 2.0).unwrap();
        let r_coarse = bin_population(&p, &coarse, &test).unwrap();
        let r_fine = bin_population(&p, &fine, &test).unwrap();
        assert!(
            r_fine.power_ratio <= r_coarse.power_ratio,
            "finer binning must not cost power: {} vs {}",
            r_fine.power_ratio,
            r_coarse.power_ratio
        );
    }

    #[test]
    fn escapes_stay_bounded_by_the_guarantee() {
        let (p, test) = fitted();
        let top = vmin_linalg::max(test.targets()) + 80.0;
        let mid = vmin_linalg::quantile(test.targets(), 0.5).unwrap() + 10.0;
        let scheme = BinningScheme::new(vec![mid, top], 0.0).unwrap();
        let report = bin_population(&p, &scheme, &test).unwrap();
        // With 80% target coverage and bins keyed to the *upper* bound, the
        // escape fraction should be well under the miscoverage budget.
        let binned: usize = report.bin_counts.iter().sum();
        assert!(
            report.escapes as f64 <= 0.25 * binned.max(1) as f64,
            "too many bin escapes: {report:?}"
        );
    }
}

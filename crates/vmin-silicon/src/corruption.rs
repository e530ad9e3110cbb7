//! Seeded injection of realistic ATE measurement faults into a [`Campaign`].
//!
//! The paper's coverage guarantee assumes clean exchangeable data; production
//! ATE exports are not clean. This module simulates the dominant dirty-data
//! modes of a burn-in test floor so the downstream hygiene and degradation
//! machinery can be exercised — and its guarantees audited — under known,
//! reproducible contamination:
//!
//! | Fault class | Physical origin |
//! |---|---|
//! | [`FaultClass::NanDropout`] | dropped test result / datalog truncation |
//! | [`FaultClass::StuckSensor`] | monitor readout latch stuck across read points |
//! | [`FaultClass::SpikeOutlier`] | contactor glitch / probe resistance spike |
//! | [`FaultClass::ColumnLoss`] | a monitor broken on every die (mask defect) |
//! | [`FaultClass::CensoredVmin`] | bisection hit the search ceiling (Vmax) |
//! | [`FaultClass::DuplicateChip`] | duplicated datalog rows (retest merge bug) |
//! | [`FaultClass::RetestJitter`] | per-read-point retest replacing Vmin values |
//!
//! Every class has an independent rate and draws from its own
//! ChaCha-seeded stream, so enabling or re-rating one class never perturbs
//! another class's draws and every corrupted dataset is exactly
//! reproducible from `(campaign, config, seed)`.

use crate::sampling::normal;
use crate::testflow::Campaign;
use vmin_rng::{ChaCha8Rng, Rng, RngCore, SeedableRng, SplitMix64};

/// The injectable ATE fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A measurement cell replaced by NaN (dropped test).
    NanDropout,
    /// A chip's monitor frozen at its first read across all read points.
    StuckSensor,
    /// A measurement cell multiplied into a gross outlier.
    SpikeOutlier,
    /// A monitor column lost on every chip at every read point.
    ColumnLoss,
    /// A Vmin cell right-censored at the search ceiling.
    CensoredVmin,
    /// A chip's measurement row duplicated wholesale.
    DuplicateChip,
    /// A (chip, read point) Vmin row replaced by a jittered retest.
    RetestJitter,
}

impl FaultClass {
    /// Every fault class, in ledger order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::NanDropout,
        FaultClass::StuckSensor,
        FaultClass::SpikeOutlier,
        FaultClass::ColumnLoss,
        FaultClass::CensoredVmin,
        FaultClass::DuplicateChip,
        FaultClass::RetestJitter,
    ];

    /// Stable snake_case name (used in logs and reports).
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::NanDropout => "nan_dropout",
            FaultClass::StuckSensor => "stuck_sensor",
            FaultClass::SpikeOutlier => "spike_outlier",
            FaultClass::ColumnLoss => "column_loss",
            FaultClass::CensoredVmin => "censored_vmin",
            FaultClass::DuplicateChip => "duplicate_chip",
            FaultClass::RetestJitter => "retest_jitter",
        }
    }

    /// Position in [`Self::ALL`]: the variants are declared in `ALL`'s
    /// order, so the discriminant is the index.
    fn index(&self) -> usize {
        *self as usize
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class injection rates. All rates are probabilities in `[0, 1]`; the
/// unit they apply to differs per class (see field docs).
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionConfig {
    /// Per measurement cell (parametric and monitor): replace with NaN.
    pub nan_dropout_rate: f64,
    /// Per (chip, monitor): freeze the monitor at its first read point.
    pub stuck_sensor_rate: f64,
    /// Per measurement cell: multiply into a gross outlier.
    pub spike_outlier_rate: f64,
    /// Per monitor column: lose the monitor on every chip/read point.
    pub column_loss_rate: f64,
    /// Per (chip, read point, temperature) Vmin cell: censor at Vmax.
    pub censored_vmin_rate: f64,
    /// Per chip: append a wholesale duplicate of its measurement row.
    pub duplicate_chip_rate: f64,
    /// Per (chip, read point): replace the Vmin row with a jittered retest.
    pub retest_jitter_rate: f64,
    /// Standard deviation (mV) of the retest jitter.
    pub retest_jitter_sd_mv: f64,
    /// Spike multiplier range (low, high); drawn uniformly per spike.
    pub spike_gain: (f64, f64),
}

impl CorruptionConfig {
    /// No corruption at all (identity injector).
    pub fn clean() -> CorruptionConfig {
        CorruptionConfig {
            nan_dropout_rate: 0.0,
            stuck_sensor_rate: 0.0,
            spike_outlier_rate: 0.0,
            column_loss_rate: 0.0,
            censored_vmin_rate: 0.0,
            duplicate_chip_rate: 0.0,
            retest_jitter_rate: 0.0,
            retest_jitter_sd_mv: 2.0,
            spike_gain: (4.0, 12.0),
        }
    }

    /// Every fault class active at the same `rate` — the mixed-corruption
    /// setting used by the dirty-pipeline acceptance tests and the
    /// robustness sweep.
    pub fn mixed(rate: f64) -> CorruptionConfig {
        CorruptionConfig {
            nan_dropout_rate: rate,
            stuck_sensor_rate: rate,
            spike_outlier_rate: rate,
            // Whole-column loss is far rarer on a real floor than cell
            // faults; scale it down so moderate mixed rates don't wipe out
            // the entire monitor bank.
            column_loss_rate: rate * 0.25,
            censored_vmin_rate: rate,
            duplicate_chip_rate: rate,
            retest_jitter_rate: rate,
            ..CorruptionConfig::clean()
        }
    }

    fn validate(&self) -> Result<(), String> {
        let rates = [
            ("nan_dropout_rate", self.nan_dropout_rate),
            ("stuck_sensor_rate", self.stuck_sensor_rate),
            ("spike_outlier_rate", self.spike_outlier_rate),
            ("column_loss_rate", self.column_loss_rate),
            ("censored_vmin_rate", self.censored_vmin_rate),
            ("duplicate_chip_rate", self.duplicate_chip_rate),
            ("retest_jitter_rate", self.retest_jitter_rate),
        ];
        for (name, r) in rates {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("{name} = {r} outside [0, 1]"));
            }
        }
        if self.retest_jitter_sd_mv.is_nan() || self.retest_jitter_sd_mv < 0.0 {
            return Err(format!(
                "retest_jitter_sd_mv = {} must be non-negative",
                self.retest_jitter_sd_mv
            ));
        }
        if !(self.spike_gain.0 > 0.0 && self.spike_gain.1 >= self.spike_gain.0) {
            return Err(format!(
                "spike_gain {:?} must satisfy 0 < lo <= hi",
                self.spike_gain
            ));
        }
        Ok(())
    }
}

/// One injected fault, for the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Which class of fault was injected.
    pub class: FaultClass,
    /// Human-readable location, e.g. `chip 12 rod[3][7]`.
    pub location: String,
}

/// Everything the injector did, exactly reproducible from the seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InjectionLedger {
    /// Every injected fault, in injection order.
    pub faults: Vec<FaultRecord>,
}

impl InjectionLedger {
    /// Number of injected faults of `class`.
    pub fn count(&self, class: FaultClass) -> usize {
        self.faults.iter().filter(|f| f.class == class).count()
    }

    /// Total number of injected faults across all classes.
    pub fn total(&self) -> usize {
        self.faults.len()
    }

    /// The distinct classes that were actually injected, in ledger order.
    pub fn classes_injected(&self) -> Vec<FaultClass> {
        FaultClass::ALL
            .iter()
            .copied()
            .filter(|&c| self.count(c) > 0)
            .collect()
    }

    fn record(&mut self, class: FaultClass, location: String) {
        self.faults.push(FaultRecord { class, location });
    }
}

/// Deterministic, configurable fault injector over campaign exports.
///
/// # Examples
///
/// ```
/// use vmin_silicon::{Campaign, CorruptionConfig, CorruptionInjector, DatasetSpec};
///
/// let clean = Campaign::run(&DatasetSpec::small(), 7);
/// let injector = CorruptionInjector::new(CorruptionConfig::mixed(0.05), 99).unwrap();
/// let (dirty, ledger) = injector.corrupt(&clean);
/// assert!(ledger.total() > 0);
/// assert!(dirty.chips.len() >= clean.chips.len()); // duplicates append
/// ```
#[derive(Debug, Clone)]
pub struct CorruptionInjector {
    config: CorruptionConfig,
    seed: u64,
}

impl CorruptionInjector {
    /// Builds an injector, validating every rate.
    pub fn new(config: CorruptionConfig, seed: u64) -> Result<CorruptionInjector, String> {
        config.validate()?;
        Ok(CorruptionInjector { config, seed })
    }

    /// The injector's configuration.
    pub fn config(&self) -> &CorruptionConfig {
        &self.config
    }

    /// An independent deterministic stream for one fault class: the class
    /// index is diffused through SplitMix64 before seeding ChaCha so the
    /// streams share no structure.
    fn stream(&self, class: FaultClass) -> ChaCha8Rng {
        let mut sm = SplitMix64::new(self.seed ^ (class.index() as u64).wrapping_mul(0x9E37_79B9));
        ChaCha8Rng::seed_from_u64(sm.next_u64())
    }

    /// Clones `campaign` and mutates the copy with every configured fault
    /// class, returning the dirty campaign and the exact ledger of what was
    /// injected.
    pub fn corrupt(&self, campaign: &Campaign) -> (Campaign, InjectionLedger) {
        let mut dirty = campaign.clone();
        let mut ledger = InjectionLedger::default();
        self.inject_stuck_sensors(&mut dirty, &mut ledger);
        self.inject_retest_jitter(&mut dirty, &mut ledger);
        self.inject_spikes(&mut dirty, &mut ledger);
        self.inject_censoring(&mut dirty, &mut ledger);
        self.inject_nan_dropout(&mut dirty, &mut ledger);
        self.inject_column_loss(&mut dirty, &mut ledger);
        self.inject_duplicates(&mut dirty, &mut ledger);
        (dirty, ledger)
    }

    fn inject_nan_dropout(&self, c: &mut Campaign, ledger: &mut InjectionLedger) {
        let rate = self.config.nan_dropout_rate;
        if rate == 0.0 {
            return;
        }
        let mut rng = self.stream(FaultClass::NanDropout);
        for (i, chip) in c.chips.iter_mut().enumerate() {
            for (j, v) in chip.parametric.iter_mut().enumerate() {
                if rng.gen_bool(rate) {
                    *v = f64::NAN;
                    ledger.record(FaultClass::NanDropout, format!("chip {i} parametric[{j}]"));
                }
            }
            for (k, reads) in chip.rod.iter_mut().enumerate() {
                for (j, v) in reads.iter_mut().enumerate() {
                    if rng.gen_bool(rate) {
                        *v = f64::NAN;
                        ledger.record(FaultClass::NanDropout, format!("chip {i} rod[{k}][{j}]"));
                    }
                }
            }
            for (k, reads) in chip.cpd.iter_mut().enumerate() {
                for (j, v) in reads.iter_mut().enumerate() {
                    if rng.gen_bool(rate) {
                        *v = f64::NAN;
                        ledger.record(FaultClass::NanDropout, format!("chip {i} cpd[{k}][{j}]"));
                    }
                }
            }
        }
    }

    fn inject_stuck_sensors(&self, c: &mut Campaign, ledger: &mut InjectionLedger) {
        let rate = self.config.stuck_sensor_rate;
        if rate == 0.0 {
            return;
        }
        let mut rng = self.stream(FaultClass::StuckSensor);
        for (i, chip) in c.chips.iter_mut().enumerate() {
            for j in 0..c.spec.monitors.rod_count {
                if rng.gen_bool(rate) {
                    let frozen = chip.rod[0][j];
                    for reads in chip.rod.iter_mut() {
                        reads[j] = frozen;
                    }
                    ledger.record(FaultClass::StuckSensor, format!("chip {i} rod sensor {j}"));
                }
            }
            for j in 0..c.spec.monitors.cpd_count {
                if rng.gen_bool(rate) {
                    let frozen = chip.cpd[0][j];
                    for reads in chip.cpd.iter_mut() {
                        reads[j] = frozen;
                    }
                    ledger.record(FaultClass::StuckSensor, format!("chip {i} cpd sensor {j}"));
                }
            }
        }
    }

    fn inject_spikes(&self, c: &mut Campaign, ledger: &mut InjectionLedger) {
        let rate = self.config.spike_outlier_rate;
        if rate == 0.0 {
            return;
        }
        let (g_lo, g_hi) = self.config.spike_gain;
        let mut rng = self.stream(FaultClass::SpikeOutlier);
        for (i, chip) in c.chips.iter_mut().enumerate() {
            for (j, v) in chip.parametric.iter_mut().enumerate() {
                if rng.gen_bool(rate) {
                    *v *= rng.gen_range(g_lo..=g_hi);
                    ledger.record(
                        FaultClass::SpikeOutlier,
                        format!("chip {i} parametric[{j}]"),
                    );
                }
            }
            for (k, reads) in chip.rod.iter_mut().enumerate() {
                for (j, v) in reads.iter_mut().enumerate() {
                    if rng.gen_bool(rate) {
                        *v *= rng.gen_range(g_lo..=g_hi);
                        ledger.record(FaultClass::SpikeOutlier, format!("chip {i} rod[{k}][{j}]"));
                    }
                }
            }
            for (k, reads) in chip.cpd.iter_mut().enumerate() {
                for (j, v) in reads.iter_mut().enumerate() {
                    if rng.gen_bool(rate) {
                        *v *= rng.gen_range(g_lo..=g_hi);
                        ledger.record(FaultClass::SpikeOutlier, format!("chip {i} cpd[{k}][{j}]"));
                    }
                }
            }
        }
    }

    fn inject_column_loss(&self, c: &mut Campaign, ledger: &mut InjectionLedger) {
        let rate = self.config.column_loss_rate;
        if rate == 0.0 {
            return;
        }
        let mut rng = self.stream(FaultClass::ColumnLoss);
        for j in 0..c.spec.monitors.rod_count {
            if rng.gen_bool(rate) {
                for chip in c.chips.iter_mut() {
                    for reads in chip.rod.iter_mut() {
                        reads[j] = f64::NAN;
                    }
                }
                ledger.record(FaultClass::ColumnLoss, format!("rod column {j}"));
            }
        }
        for j in 0..c.spec.monitors.cpd_count {
            if rng.gen_bool(rate) {
                for chip in c.chips.iter_mut() {
                    for reads in chip.cpd.iter_mut() {
                        reads[j] = f64::NAN;
                    }
                }
                ledger.record(FaultClass::ColumnLoss, format!("cpd column {j}"));
            }
        }
    }

    fn inject_censoring(&self, c: &mut Campaign, ledger: &mut InjectionLedger) {
        let rate = self.config.censored_vmin_rate;
        if rate == 0.0 {
            return;
        }
        let ceiling_mv = c.spec.vmin_test.search_high.to_millivolts();
        let mut rng = self.stream(FaultClass::CensoredVmin);
        for (i, chip) in c.chips.iter_mut().enumerate() {
            for (k, per_temp) in chip.vmin_mv.iter_mut().enumerate() {
                for (t, v) in per_temp.iter_mut().enumerate() {
                    if rng.gen_bool(rate) {
                        *v = ceiling_mv;
                        ledger.record(FaultClass::CensoredVmin, format!("chip {i} vmin[{k}][{t}]"));
                    }
                }
            }
        }
    }

    fn inject_duplicates(&self, c: &mut Campaign, ledger: &mut InjectionLedger) {
        let rate = self.config.duplicate_chip_rate;
        if rate == 0.0 {
            return;
        }
        let mut rng = self.stream(FaultClass::DuplicateChip);
        let original = c.chips.len();
        for i in 0..original {
            if rng.gen_bool(rate) {
                let dup = c.chips[i].clone();
                ledger.record(FaultClass::DuplicateChip, format!("chip {i} duplicated"));
                c.chips.push(dup);
            }
        }
    }

    fn inject_retest_jitter(&self, c: &mut Campaign, ledger: &mut InjectionLedger) {
        let rate = self.config.retest_jitter_rate;
        if rate == 0.0 {
            return;
        }
        let sd = self.config.retest_jitter_sd_mv;
        let mut rng = self.stream(FaultClass::RetestJitter);
        for (i, chip) in c.chips.iter_mut().enumerate() {
            for (k, per_temp) in chip.vmin_mv.iter_mut().enumerate() {
                if rng.gen_bool(rate) {
                    for v in per_temp.iter_mut() {
                        *v += normal(&mut rng, 0.0, sd);
                    }
                    ledger.record(FaultClass::RetestJitter, format!("chip {i} read point {k}"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatasetSpec;

    fn base() -> Campaign {
        Campaign::run(&DatasetSpec::small(), 11)
    }

    #[test]
    fn fault_class_index_is_its_position_in_all() {
        // Each class seeds its own stream from its index, so this order
        // is what keeps every fault stream's seed.
        for (i, class) in FaultClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i, "{class}");
        }
    }

    /// Flattens every measurement to bit patterns so NaN == NaN for the
    /// determinism comparisons.
    fn bits(c: &Campaign) -> Vec<u64> {
        c.chips
            .iter()
            .flat_map(|ch| {
                ch.parametric
                    .iter()
                    .chain(ch.rod.iter().flatten())
                    .chain(ch.cpd.iter().flatten())
                    .chain(ch.vmin_mv.iter().flatten())
                    .map(|v| v.to_bits())
                    .collect::<Vec<u64>>()
            })
            .collect()
    }

    #[test]
    fn clean_config_is_identity() {
        let c = base();
        let inj = CorruptionInjector::new(CorruptionConfig::clean(), 1).unwrap();
        let (dirty, ledger) = inj.corrupt(&c);
        assert_eq!(dirty, c);
        assert_eq!(ledger.total(), 0);
    }

    #[test]
    fn same_seed_same_corruption() {
        let c = base();
        let inj = CorruptionInjector::new(CorruptionConfig::mixed(0.08), 42).unwrap();
        let (d1, l1) = inj.corrupt(&c);
        let (d2, l2) = inj.corrupt(&c);
        assert_eq!(bits(&d1), bits(&d2));
        assert_eq!(l1, l2);
    }

    #[test]
    fn different_seed_different_corruption() {
        let c = base();
        let a = CorruptionInjector::new(CorruptionConfig::mixed(0.08), 1).unwrap();
        let b = CorruptionInjector::new(CorruptionConfig::mixed(0.08), 2).unwrap();
        assert_ne!(bits(&a.corrupt(&c).0), bits(&b.corrupt(&c).0));
    }

    #[test]
    fn rates_are_independent_streams() {
        // Turning one class off must not change another class's draws.
        let c = base();
        let mixed = CorruptionInjector::new(CorruptionConfig::mixed(0.1), 7).unwrap();
        let only_censor = CorruptionInjector::new(
            CorruptionConfig {
                censored_vmin_rate: 0.1,
                ..CorruptionConfig::clean()
            },
            7,
        )
        .unwrap();
        let (_, mixed_ledger) = mixed.corrupt(&c);
        let (_, censor_ledger) = only_censor.corrupt(&c);
        let mixed_censors: Vec<_> = mixed_ledger
            .faults
            .iter()
            .filter(|f| f.class == FaultClass::CensoredVmin)
            .collect();
        let only_censors: Vec<_> = censor_ledger.faults.iter().collect();
        assert_eq!(mixed_censors, only_censors);
    }

    #[test]
    fn mixed_rate_touches_every_class() {
        let c = base();
        let inj = CorruptionInjector::new(CorruptionConfig::mixed(0.2), 3).unwrap();
        let (_, ledger) = inj.corrupt(&c);
        for class in FaultClass::ALL {
            assert!(ledger.count(class) > 0, "no {class} faults at 20% rate");
        }
    }

    #[test]
    fn censored_values_sit_at_ceiling() {
        let c = base();
        let inj = CorruptionInjector::new(
            CorruptionConfig {
                censored_vmin_rate: 0.3,
                ..CorruptionConfig::clean()
            },
            5,
        )
        .unwrap();
        let (dirty, ledger) = inj.corrupt(&c);
        assert!(ledger.count(FaultClass::CensoredVmin) > 0);
        let ceiling = c.spec.vmin_test.search_high.to_millivolts();
        let censored = dirty
            .chips
            .iter()
            .flat_map(|ch| ch.vmin_mv.iter().flatten())
            .filter(|&&v| v == ceiling)
            .count();
        assert!(censored >= ledger.count(FaultClass::CensoredVmin));
    }

    #[test]
    fn stuck_sensor_freezes_across_read_points() {
        let c = base();
        let inj = CorruptionInjector::new(
            CorruptionConfig {
                stuck_sensor_rate: 0.5,
                ..CorruptionConfig::clean()
            },
            9,
        )
        .unwrap();
        let (dirty, ledger) = inj.corrupt(&c);
        let stuck = ledger
            .faults
            .iter()
            .find(|f| f.location.contains("rod sensor"))
            .expect("a rod sensor should stick at 50%");
        // Parse "chip {i} rod sensor {j}".
        let parts: Vec<&str> = stuck.location.split_whitespace().collect();
        let i: usize = parts[1].parse().unwrap();
        let j: usize = parts[4].parse().unwrap();
        let reads: Vec<f64> = dirty.chips[i].rod.iter().map(|r| r[j]).collect();
        assert!(
            reads.windows(2).all(|w| w[0] == w[1]),
            "not frozen: {reads:?}"
        );
    }

    #[test]
    fn invalid_rate_is_rejected() {
        let cfg = CorruptionConfig {
            nan_dropout_rate: 1.5,
            ..CorruptionConfig::clean()
        };
        assert!(CorruptionInjector::new(cfg, 0).is_err());
    }

    #[test]
    fn duplicates_append_identical_rows() {
        let c = base();
        let inj = CorruptionInjector::new(
            CorruptionConfig {
                duplicate_chip_rate: 0.25,
                ..CorruptionConfig::clean()
            },
            13,
        )
        .unwrap();
        let (dirty, ledger) = inj.corrupt(&c);
        let dups = ledger.count(FaultClass::DuplicateChip);
        assert!(dups > 0);
        assert_eq!(dirty.chips.len(), c.chips.len() + dups);
        // Appended rows are exact copies of originals.
        for appended in &dirty.chips[c.chips.len()..] {
            assert!(c.chips.iter().any(|orig| orig == appended));
        }
    }
}

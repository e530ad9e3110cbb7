//! Graceful degradation under dirty measurement data.
//!
//! [`sanitize_campaign`] assembles the supervised dataset for a scenario and
//! runs it through the repair policy before any model sees it:
//!
//! 1. campaign-level **stuck-sensor detection** (a monitor frozen at its
//!    first read across read points) voids the stale repeats so imputation
//!    replaces them;
//! 2. dead (all-NaN) monitor columns are dropped; when too many monitors are
//!    gone the policy **falls back to the parametric-only feature set** —
//!    the Table IV trade — and the interval-length cost of that fallback is
//!    recorded in the [`RepairLog`];
//! 3. duplicated chips are removed, right-censored Vmin rows excluded,
//!    remaining NaNs median-imputed, spike outliers MAD-winsorized, and
//!    grossly outlying chips quarantined.
//!
//! With `repair` disabled the policy is *strict*: any contamination yields a
//! typed [`CoreError::DirtyDataRejected`] instead of a silently
//! miscalibrated fit.

use crate::error::CoreError;
use crate::scenario::{assemble_dataset, monitor_read_points, FeatureSet};
use std::collections::BTreeMap;
use std::fmt;
use vmin_data::hygiene::{
    deduplicate, drop_all_missing_columns, exclude_censored, impute_missing, quarantine_rows,
    winsorize, HygieneReport,
};
use vmin_data::Dataset;
use vmin_linalg::Matrix;
use vmin_silicon::{Campaign, FaultClass};

/// How the pipeline reacts to contaminated measurement data.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPolicy {
    /// `true`: repair and continue; `false`: reject dirty data with a typed
    /// error (strict mode).
    pub repair: bool,
    /// MAD multiplier for the outlier scan and winsorization clip.
    pub outlier_k: f64,
    /// MAD multiplier for per-cell outlier scoring during row quarantine
    /// (looser than `outlier_k`: quarantine targets gross rows).
    pub quarantine_k: f64,
    /// Quarantine a row when more than this fraction of its scored cells
    /// are outliers.
    pub max_row_outlier_fraction: f64,
    /// Censoring ceiling for targets (mV). `None` derives it from the
    /// campaign's Vmin search ceiling.
    pub censor_ceiling_mv: Option<f64>,
    /// Fall back to parametric-only features when more than this fraction
    /// of monitor columns is dead.
    pub monitor_fallback_threshold: f64,
}

impl DegradationPolicy {
    /// The default repairing policy used by the dirty-pipeline tests.
    pub fn repair_default() -> DegradationPolicy {
        DegradationPolicy {
            repair: true,
            outlier_k: 6.0,
            quarantine_k: 8.0,
            max_row_outlier_fraction: 0.3,
            censor_ceiling_mv: None,
            monitor_fallback_threshold: 0.25,
        }
    }

    /// Strict mode: any contamination is a typed error.
    pub fn strict() -> DegradationPolicy {
        DegradationPolicy {
            repair: false,
            ..DegradationPolicy::repair_default()
        }
    }
}

/// How one fault class was handled, for the log's per-class enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDisposition {
    /// The fault class.
    pub class: FaultClass,
    /// How many pieces of evidence for this class the pipeline found.
    pub detected: usize,
    /// What was done about it.
    pub action: &'static str,
}

/// Structured account of everything the degradation pipeline detected and
/// repaired on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairLog {
    /// The pre-repair hygiene scan (after stuck-sensor voiding).
    pub scan: HygieneReport,
    /// (chip, monitor) streams frozen at their first read.
    pub stuck_streams: usize,
    /// Stale repeat reads voided for imputation because their stream was
    /// stuck.
    pub stale_cells_voided: usize,
    /// Names of dead (all-NaN) columns that were dropped.
    pub dropped_columns: Vec<String>,
    /// `true` when monitor loss forced the parametric-only fallback.
    pub monitor_fallback: bool,
    /// Monitor columns removed in total (dead + fallback).
    pub monitor_columns_dropped: usize,
    /// Mean interval-length cost (mV) of the parametric-only fallback
    /// relative to keeping the surviving monitors (the Table IV trade).
    /// Filled by [`crate::VminPredictor::fit_sanitized`]; `None` when the
    /// fallback did not trigger or no comparison fit was possible.
    pub fallback_length_cost_mv: Option<f64>,
    /// NaN cells replaced by their column median.
    pub imputed_cells: usize,
    /// Spike cells clipped by MAD winsorization.
    pub clipped_cells: usize,
    /// Row indices (in the post-dedup, post-censoring dataset) quarantined
    /// as gross outliers or for non-finite targets.
    pub quarantined_rows: Vec<usize>,
    /// Exact duplicate rows removed.
    pub duplicates_removed: usize,
    /// Rows excluded because their target sat at the censoring ceiling.
    pub censored_excluded: usize,
}

impl RepairLog {
    fn clean(scan: HygieneReport) -> RepairLog {
        RepairLog {
            scan,
            stuck_streams: 0,
            stale_cells_voided: 0,
            dropped_columns: Vec::new(),
            monitor_fallback: false,
            monitor_columns_dropped: 0,
            fallback_length_cost_mv: None,
            imputed_cells: 0,
            clipped_cells: 0,
            quarantined_rows: Vec::new(),
            duplicates_removed: 0,
            censored_excluded: 0,
        }
    }

    /// Per-class enumeration of how every [`FaultClass`] was handled —
    /// one entry per class, in [`FaultClass::ALL`] order, whether or not
    /// evidence of that class was found.
    pub fn dispositions(&self) -> Vec<ClassDisposition> {
        FaultClass::ALL
            .iter()
            .map(|&class| {
                let (detected, action) = match class {
                    FaultClass::NanDropout => {
                        // Dropped cells in surviving columns are imputed;
                        // stale stuck reads also surface here post-voiding.
                        (self.imputed_cells, "median-imputed")
                    }
                    FaultClass::StuckSensor => {
                        (self.stuck_streams, "stale reads voided and imputed")
                    }
                    FaultClass::SpikeOutlier => (
                        self.clipped_cells + self.quarantined_rows.len(),
                        "MAD-winsorized; gross rows quarantined",
                    ),
                    FaultClass::ColumnLoss => (
                        self.dropped_columns.len(),
                        if self.monitor_fallback {
                            "dead columns dropped; parametric-only fallback"
                        } else {
                            "dead columns dropped"
                        },
                    ),
                    FaultClass::CensoredVmin => (
                        self.censored_excluded,
                        "censored rows excluded from fitting",
                    ),
                    FaultClass::DuplicateChip => {
                        (self.duplicates_removed, "duplicate rows removed")
                    }
                    FaultClass::RetestJitter => (
                        // Zero-mean retest noise is not separable from tester
                        // repeatability; conformal calibration absorbs it by
                        // widening intervals.
                        0,
                        "absorbed by conformal calibration margin",
                    ),
                };
                ClassDisposition {
                    class,
                    detected,
                    action,
                }
            })
            .collect()
    }

    /// Whether the pipeline found evidence of `class` (always `true` for
    /// [`FaultClass::RetestJitter`], which is absorbed rather than detected).
    pub fn addresses(&self, class: FaultClass) -> bool {
        match class {
            FaultClass::RetestJitter => true,
            _ => self
                .dispositions()
                .iter()
                .any(|d| d.class == class && d.detected > 0),
        }
    }

    /// Total number of repair actions taken.
    pub fn total_repairs(&self) -> usize {
        self.imputed_cells
            + self.clipped_cells
            + self.quarantined_rows.len()
            + self.duplicates_removed
            + self.censored_excluded
            + self.dropped_columns.len()
            + self.stale_cells_voided
    }

    /// One-line-per-class summary for experiment reports.
    pub fn summary(&self) -> String {
        let mut out = String::from("repair log:\n");
        for d in self.dispositions() {
            out.push_str(&format!(
                "  {:<14} detected {:>5}  {}\n",
                d.class.name(),
                d.detected,
                d.action
            ));
        }
        if self.monitor_fallback {
            match self.fallback_length_cost_mv {
                Some(cost) => out.push_str(&format!(
                    "  parametric-only fallback active (interval-length cost {cost:+.1} mV)\n"
                )),
                None => out.push_str("  parametric-only fallback active\n"),
            }
        }
        out
    }
}

impl fmt::Display for RepairLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// A (chip, monitor) stream frozen at its first read.
struct StuckStream {
    chip: usize,
    is_rod: bool,
    monitor: usize,
}

/// Detects streams whose later reads bitwise-equal the first read. Tester
/// repeatability noise makes exact equality across reads essentially
/// impossible on a healthy sensor, so a majority of frozen repeats is a
/// reliable stuck signature even when other faults later hit the stream.
fn detect_stuck_streams(campaign: &Campaign) -> Vec<StuckStream> {
    let n_reads = campaign.read_points.len();
    if n_reads < 2 {
        return Vec::new();
    }
    let majority = n_reads.div_ceil(2);
    let monitors = &campaign.spec.monitors;
    let mut stuck = Vec::new();
    for (i, chip) in campaign.chips.iter().enumerate() {
        for (is_rod, reads, count) in [
            (true, &chip.rod, monitors.rod_count),
            (false, &chip.cpd, monitors.cpd_count),
        ] {
            for monitor in 0..count {
                let first = reads[0][monitor];
                if !first.is_finite() {
                    continue;
                }
                let frozen = (1..n_reads)
                    .filter(|&k| reads[k][monitor].to_bits() == first.to_bits())
                    .count();
                if frozen >= majority {
                    stuck.push(StuckStream {
                        chip: i,
                        is_rod,
                        monitor,
                    });
                }
            }
        }
    }
    stuck
}

/// Voids (sets to NaN) the stale repeat reads of stuck streams in the
/// assembled dataset, so imputation replaces them with population medians
/// instead of trusting frozen values. Returns the voided dataset and the
/// number of voided cells. Read point 0 cells are kept: the first read is
/// the one genuine measurement a stuck sensor delivers.
fn void_stale_reads(
    ds: &Dataset,
    campaign: &Campaign,
    read_point: usize,
    stuck: &[StuckStream],
) -> Result<(Dataset, usize), CoreError> {
    let stale_points: Vec<usize> = monitor_read_points(read_point)
        .into_iter()
        .filter(|&k| k > 0)
        .collect();
    if stuck.is_empty() || stale_points.is_empty() {
        return Ok((ds.clone(), 0));
    }
    let col_of: BTreeMap<&str, usize> = ds
        .names()
        .iter()
        .enumerate()
        .map(|(j, n)| (n.as_str(), j))
        .collect();
    let (rows, cols) = (ds.n_samples(), ds.n_features());
    let mut data = ds.features().as_slice().to_vec();
    let mut voided = 0usize;
    for &k in &stale_points {
        let rod_names = campaign.rod_names(k);
        let cpd_names = campaign.cpd_names(k);
        for s in stuck {
            if s.chip >= rows {
                continue; // duplicated chips appended past the original count
            }
            let name = if s.is_rod {
                &rod_names[s.monitor]
            } else {
                &cpd_names[s.monitor]
            };
            if let Some(&j) = col_of.get(name.as_str()) {
                let idx = s.chip * cols + j;
                if data[idx].is_finite() {
                    data[idx] = f64::NAN;
                    voided += 1;
                }
            }
        }
    }
    let features = Matrix::from_vec(rows, cols, data)?;
    let out = Dataset::new(features, ds.targets().to_vec(), ds.names().to_vec())?;
    Ok((out, voided))
}

/// True for on-chip monitor feature columns (ROD/CPD reads and their
/// engineered deltas), false for parametric columns.
fn is_monitor_column(name: &str) -> bool {
    name.starts_with("rod_") || name.starts_with("cpd_")
}

/// Assembles the dataset for `(read_point, temp_idx, feature_set)` and runs
/// it through `policy`, returning the model-ready dataset and the
/// [`RepairLog`] of everything that was detected and repaired.
///
/// # Errors
///
/// - [`CoreError::DirtyDataRejected`] when `policy.repair` is off and
///   contamination was found;
/// - [`CoreError::Hygiene`] when a repair pass fails (e.g. every row
///   censored away);
/// - [`CoreError::Index`] for invalid scenario indices.
pub fn sanitize_campaign(
    campaign: &Campaign,
    read_point: usize,
    temp_idx: usize,
    feature_set: FeatureSet,
    policy: &DegradationPolicy,
) -> Result<(Dataset, RepairLog), CoreError> {
    let raw = assemble_dataset(campaign, read_point, temp_idx, feature_set)?;
    let ceiling = policy
        .censor_ceiling_mv
        .unwrap_or_else(|| campaign.spec.vmin_test.search_high.to_millivolts());
    let use_onchip = matches!(feature_set, FeatureSet::OnChip | FeatureSet::Both);

    let stuck = if use_onchip {
        detect_stuck_streams(campaign)
    } else {
        Vec::new()
    };

    if !policy.repair {
        let scan = HygieneReport::scan(&raw, policy.outlier_k, Some(ceiling));
        // Strict mode rejects *structural* contamination only: MAD-outlier
        // cells occur naturally in heavy-tailed parametrics (lognormal IDDQ)
        // and are no proof of corruption.
        let structurally_dirty = scan.total_missing() > 0
            || scan.duplicate_rows > 0
            || scan.censored_targets > 0
            || scan.non_finite_targets > 0
            || !stuck.is_empty();
        if !structurally_dirty {
            return Ok((raw, RepairLog::clean(scan)));
        }
        return Err(CoreError::DirtyDataRejected {
            summary: format!(
                "{} missing cells, {} outlier cells, {} duplicate rows, \
                 {} censored targets, {} non-finite targets, {} stuck streams",
                scan.total_missing(),
                scan.total_outliers(),
                scan.duplicate_rows,
                scan.censored_targets,
                scan.non_finite_targets,
                stuck.len()
            ),
        });
    }

    // 1. Void stale reads of stuck streams so imputation replaces them.
    let (voided, stale_cells_voided) = void_stale_reads(&raw, campaign, read_point, &stuck)?;
    let scan = HygieneReport::scan(&voided, policy.outlier_k, Some(ceiling));

    // 2. Drop dead columns; fall back to parametric-only if the monitor
    //    bank took too much damage.
    let (mut ds, dropped_columns) = drop_all_missing_columns(&voided)?;
    let total_monitor_cols = raw.names().iter().filter(|n| is_monitor_column(n)).count();
    let dead_monitor_cols = dropped_columns
        .iter()
        .filter(|n| is_monitor_column(n))
        .count();
    let mut monitor_columns_dropped = dead_monitor_cols;
    let has_parametric = raw.names().iter().any(|n| !is_monitor_column(n));
    let mut monitor_fallback = false;
    if has_parametric
        && total_monitor_cols > 0
        && dead_monitor_cols as f64 / total_monitor_cols as f64 > policy.monitor_fallback_threshold
    {
        let parametric_idx: Vec<usize> = ds
            .names()
            .iter()
            .enumerate()
            .filter(|(_, n)| !is_monitor_column(n))
            .map(|(j, _)| j)
            .collect();
        monitor_columns_dropped = total_monitor_cols;
        ds = ds.subset_columns(&parametric_idx)?;
        monitor_fallback = true;
    }

    // 3. Row-level repairs: dedup, censoring, quarantine.
    let (ds, duplicates_removed) = deduplicate(&ds)?;
    let (ds, censored_excluded) = exclude_censored(&ds, ceiling)?;
    let (ds, quarantined_rows) =
        quarantine_rows(&ds, policy.quarantine_k, policy.max_row_outlier_fraction)?;

    // 4. Cell-level repairs: impute what's missing, clip what spikes.
    let (ds, imputed_cells) = impute_missing(&ds)?;
    let (ds, clipped_cells) = winsorize(&ds, policy.outlier_k)?;

    let log = RepairLog {
        scan,
        stuck_streams: stuck.len(),
        stale_cells_voided,
        dropped_columns,
        monitor_fallback,
        monitor_columns_dropped,
        fallback_length_cost_mv: None,
        imputed_cells,
        clipped_cells,
        quarantined_rows,
        duplicates_removed,
        censored_excluded,
    };
    Ok((ds, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_silicon::{CorruptionConfig, CorruptionInjector, DatasetSpec};

    fn clean_campaign() -> Campaign {
        Campaign::run(&DatasetSpec::small(), 21)
    }

    fn dirty_campaign(rate: f64, seed: u64) -> Campaign {
        let injector = CorruptionInjector::new(CorruptionConfig::mixed(rate), seed).unwrap();
        injector.corrupt(&clean_campaign()).0
    }

    #[test]
    fn clean_campaign_passes_strict_mode() {
        let c = clean_campaign();
        let (ds, log) =
            sanitize_campaign(&c, 0, 1, FeatureSet::Both, &DegradationPolicy::strict()).unwrap();
        assert_eq!(ds.n_samples(), c.chip_count());
        assert_eq!(log.scan.total_missing(), 0);
        assert_eq!(log.scan.duplicate_rows, 0);
        assert_eq!(log.scan.censored_targets, 0);
        assert_eq!(log.total_repairs(), 0);
    }

    #[test]
    fn strict_mode_rejects_dirty_data_with_typed_error() {
        let c = dirty_campaign(0.1, 5);
        let err = sanitize_campaign(&c, 0, 1, FeatureSet::Both, &DegradationPolicy::strict())
            .unwrap_err();
        assert!(
            matches!(err, CoreError::DirtyDataRejected { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn repair_produces_finite_model_ready_dataset() {
        let c = dirty_campaign(0.1, 5);
        let (ds, log) = sanitize_campaign(
            &c,
            0,
            1,
            FeatureSet::Both,
            &DegradationPolicy::repair_default(),
        )
        .unwrap();
        assert!(ds.features().as_slice().iter().all(|v| v.is_finite()));
        assert!(ds.targets().iter().all(|t| t.is_finite()));
        assert!(log.total_repairs() > 0);
        assert!(log.imputed_cells > 0, "NaN dropout should force imputation");
        assert!(log.duplicates_removed > 0, "duplicated chips should dedup");
        assert!(log.censored_excluded > 0, "ceiling rows should drop");
    }

    #[test]
    fn stuck_streams_are_detected_and_voided_in_field() {
        let injector = CorruptionInjector::new(
            CorruptionConfig {
                stuck_sensor_rate: 0.05,
                ..CorruptionConfig::clean()
            },
            3,
        )
        .unwrap();
        let c = injector.corrupt(&clean_campaign()).0;
        // Read point 3 consumes monitor reads {0, 1, 2}; reads 1 and 2 of a
        // stuck stream are stale.
        let (ds, log) = sanitize_campaign(
            &c,
            3,
            1,
            FeatureSet::OnChip,
            &DegradationPolicy::repair_default(),
        )
        .unwrap();
        assert!(log.stuck_streams > 0);
        assert_eq!(log.stale_cells_voided, 2 * log.stuck_streams);
        assert_eq!(log.imputed_cells, log.stale_cells_voided);
        assert!(ds.features().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stuck_detection_has_no_false_positives_on_clean_data() {
        let c = clean_campaign();
        assert!(detect_stuck_streams(&c).is_empty());
    }

    #[test]
    fn heavy_column_loss_triggers_parametric_fallback() {
        let injector = CorruptionInjector::new(
            CorruptionConfig {
                column_loss_rate: 0.5,
                ..CorruptionConfig::clean()
            },
            11,
        )
        .unwrap();
        let c = injector.corrupt(&clean_campaign()).0;
        let (ds, log) = sanitize_campaign(
            &c,
            0,
            1,
            FeatureSet::Both,
            &DegradationPolicy::repair_default(),
        )
        .unwrap();
        assert!(
            log.monitor_fallback,
            "50% column loss should trip the fallback"
        );
        assert!(ds.names().iter().all(|n| !is_monitor_column(n)));
        assert!(log.addresses(FaultClass::ColumnLoss));
    }

    #[test]
    fn dispositions_enumerate_every_class() {
        let c = dirty_campaign(0.12, 9);
        let (_, log) = sanitize_campaign(
            &c,
            0,
            1,
            FeatureSet::Both,
            &DegradationPolicy::repair_default(),
        )
        .unwrap();
        let dispositions = log.dispositions();
        assert_eq!(dispositions.len(), FaultClass::ALL.len());
        for class in FaultClass::ALL {
            assert!(dispositions.iter().any(|d| d.class == class));
        }
        let text = log.summary();
        for class in FaultClass::ALL {
            assert!(text.contains(class.name()), "summary misses {class}");
        }
    }

    #[test]
    fn parametric_only_scenarios_skip_monitor_repairs() {
        let c = dirty_campaign(0.05, 2);
        let (ds, log) = sanitize_campaign(
            &c,
            0,
            1,
            FeatureSet::Parametric,
            &DegradationPolicy::repair_default(),
        )
        .unwrap();
        assert_eq!(log.stuck_streams, 0);
        assert!(!log.monitor_fallback);
        assert!(ds.names().iter().all(|n| !is_monitor_column(n)));
    }
}

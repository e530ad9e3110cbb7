//! Feature assembly for the two prediction scenarios of §III-A / §IV-B.
//!
//! - **Time 0** (production test): parametric data and on-chip monitor data,
//!   both collected at time 0, predict time-0 Vmin.
//! - **In-field degradation** (read point `k > 0`): parametric data from
//!   time 0 (parametric tests are impossible once chips ship) plus on-chip
//!   monitor data from all *previous* read points predict Vmin at read
//!   point `k`.
//!
//! The assembled feature set can be restricted to parametric-only or
//! on-chip-only to reproduce the Table IV / Fig. 3 comparison.

use crate::error::CoreError;
use std::fmt;
use vmin_data::Dataset;
use vmin_linalg::Matrix;
use vmin_silicon::{BlockLayout, Campaign, ChipMeasurements};

/// Which feature families enter the model (Fig. 3 / Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureSet {
    /// Parametric ATE tests only (time 0).
    Parametric,
    /// On-chip monitors only (ROD + CPD).
    OnChip,
    /// Both families — the paper's main configuration.
    Both,
}

impl fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FeatureSet::Parametric => "Parametric",
            FeatureSet::OnChip => "On-chip",
            FeatureSet::Both => "On-chip and Parametric",
        };
        f.write_str(s)
    }
}

/// Which monitor read points feed the prediction of Vmin at `read_point`.
///
/// Time 0 uses the monitors collected at time 0 itself (everything is
/// measured in the same production-test insertion); later read points use
/// strictly previous monitor data so the prediction is a genuine *forecast*
/// of in-field degradation.
pub fn monitor_read_points(read_point: usize) -> Vec<usize> {
    if read_point == 0 {
        vec![0]
    } else {
        (0..read_point).collect()
    }
}

/// One run of consecutive feature columns: a chip's time-0 parametric
/// results, or its ROD or CPD readings at one read point.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Segment {
    /// Parametric test results, program order.
    Parametric,
    /// ROD readings at a read point.
    Rod(usize),
    /// CPD readings at a read point.
    Cpd(usize),
}

impl Segment {
    /// The segment's values in a materialized chip.
    fn of_chip(self, chip: &ChipMeasurements) -> &[f64] {
        match self {
            Segment::Parametric => &chip.parametric,
            Segment::Rod(k) => &chip.rod[k],
            Segment::Cpd(k) => &chip.cpd[k],
        }
    }

    /// The segment's column range within a streamed chip row.
    pub(crate) fn span(self, layout: &BlockLayout) -> (usize, usize) {
        match self {
            Segment::Parametric => layout.parametric_span(),
            Segment::Rod(k) => layout.rod_span(k),
            Segment::Cpd(k) => layout.cpd_span(k),
        }
    }
}

/// The §III-A feature-row layout, the one owner of the column order:
/// time-0 parametric results first, then each of `monitor_points` in
/// order with its ROD readings followed by its CPD readings. A row's width
/// is the sum of its segments' lengths; the column names stay with each
/// caller.
pub(crate) fn feature_layout(feature_set: FeatureSet, monitor_points: &[usize]) -> Vec<Segment> {
    let mut layout = Vec::with_capacity(1 + 2 * monitor_points.len());
    if matches!(feature_set, FeatureSet::Parametric | FeatureSet::Both) {
        layout.push(Segment::Parametric);
    }
    if matches!(feature_set, FeatureSet::OnChip | FeatureSet::Both) {
        for &k in monitor_points {
            layout.extend([Segment::Rod(k), Segment::Cpd(k)]);
        }
    }
    layout
}

/// The one row-fill body of both assemblers: checks the indices, lays
/// every chip out per [`feature_layout`] over `monitor_points`, names the
/// columns segment by segment with `names`, and targets Vmin at
/// `(read_point, temp_idx)`.
fn assemble(
    campaign: &Campaign,
    read_point: usize,
    temp_idx: usize,
    feature_set: FeatureSet,
    monitor_points: &[usize],
    names: impl Fn(Segment) -> Vec<String>,
) -> Result<Dataset, CoreError> {
    if read_point >= campaign.read_points.len() {
        return Err(CoreError::Index(format!(
            "read point {read_point} (campaign has {})",
            campaign.read_points.len()
        )));
    }
    if temp_idx >= campaign.temperatures.len() {
        return Err(CoreError::Index(format!(
            "temperature index {temp_idx} (campaign has {})",
            campaign.temperatures.len()
        )));
    }
    let layout = feature_layout(feature_set, monitor_points);
    let names: Vec<String> = layout.iter().flat_map(|&segment| names(segment)).collect();

    let n = campaign.chip_count();
    let d = names.len();
    let mut features = Vec::with_capacity(n * d);
    let mut targets = Vec::with_capacity(n);
    for (i, chip) in campaign.chips.iter().enumerate() {
        let row_start = features.len();
        for &segment in &layout {
            features.extend_from_slice(segment.of_chip(chip));
        }
        if features.len() - row_start != d {
            return Err(CoreError::Shape(format!(
                "chip {i}: filled {} of {d} feature columns",
                features.len() - row_start
            )));
        }
        targets.push(chip.vmin_mv[read_point][temp_idx]);
    }
    let features = Matrix::from_vec(n, d, features)?;
    Ok(Dataset::new(features, targets, names)?)
}

/// Builds the supervised dataset for predicting SCAN Vmin at
/// `(read_point, temp_idx)` from the campaign's measurements.
///
/// # Errors
///
/// Returns [`CoreError::Index`] for invalid indices, and
/// [`CoreError::Shape`], [`CoreError::Linalg`] or [`CoreError::Dataset`] if
/// the campaign data is internally inconsistent.
///
/// # Examples
///
/// ```
/// use vmin_core::{assemble_dataset, FeatureSet};
/// use vmin_silicon::{Campaign, DatasetSpec};
///
/// let campaign = Campaign::run(&DatasetSpec::small(), 1);
/// let ds = assemble_dataset(&campaign, 0, 1, FeatureSet::Both)?;
/// assert_eq!(ds.n_samples(), campaign.chip_count());
/// # Ok::<(), vmin_core::CoreError>(())
/// ```
pub fn assemble_dataset(
    campaign: &Campaign,
    read_point: usize,
    temp_idx: usize,
    feature_set: FeatureSet,
) -> Result<Dataset, CoreError> {
    let monitor_points = monitor_read_points(read_point);
    assemble(
        campaign,
        read_point,
        temp_idx,
        feature_set,
        &monitor_points,
        |segment| match segment {
            Segment::Parametric => campaign.parametric_names.clone(),
            Segment::Rod(k) => campaign.rod_names(k),
            Segment::Cpd(k) => campaign.cpd_names(k),
        },
    )
}

/// Builds the *streaming snapshot* dataset for read point `k`: the features
/// an in-field telemetry packet actually carries — time-0 parametric data
/// (frozen at production test) plus the monitor readings **at read point
/// `k` itself** — against Vmin at `(k, temp_idx)`.
///
/// Unlike [`assemble_dataset`], whose in-field feature space grows with the
/// read point (all *previous* monitor reads), the snapshot space has the
/// same dimensionality at every read point. That is what lets one model,
/// fitted at production test (read point 0), be *applied unchanged* to
/// every later telemetry packet — the deployment the streaming adaptive
/// layer recalibrates. Monitor feature names carry a `_now` suffix instead
/// of the hour stamp, making the positional consistency explicit.
///
/// # Errors
///
/// Same conditions as [`assemble_dataset`].
///
/// # Examples
///
/// ```
/// use vmin_core::{assemble_stream_snapshot, FeatureSet};
/// use vmin_silicon::{Campaign, DatasetSpec};
///
/// let campaign = Campaign::run(&DatasetSpec::small(), 1);
/// let t0 = assemble_stream_snapshot(&campaign, 0, 1, FeatureSet::Both)?;
/// let t5 = assemble_stream_snapshot(&campaign, 5, 1, FeatureSet::Both)?;
/// assert_eq!(t0.n_features(), t5.n_features()); // constant feature space
/// # Ok::<(), vmin_core::CoreError>(())
/// ```
pub fn assemble_stream_snapshot(
    campaign: &Campaign,
    read_point: usize,
    temp_idx: usize,
    feature_set: FeatureSet,
) -> Result<Dataset, CoreError> {
    let monitors = &campaign.spec.monitors;
    assemble(
        campaign,
        read_point,
        temp_idx,
        feature_set,
        &[read_point],
        |segment| match segment {
            Segment::Parametric => campaign.parametric_names.clone(),
            Segment::Rod(_) => (0..monitors.rod_count)
                .map(|j| format!("rod_{j:03}_now"))
                .collect(),
            Segment::Cpd(_) => (0..monitors.cpd_count)
                .map(|j| format!("cpd_{j:02}_now"))
                .collect(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_silicon::DatasetSpec;

    fn campaign() -> Campaign {
        Campaign::run(&DatasetSpec::small(), 3)
    }

    #[test]
    fn monitor_points_follow_the_paper() {
        assert_eq!(monitor_read_points(0), vec![0]);
        assert_eq!(monitor_read_points(1), vec![0]);
        assert_eq!(monitor_read_points(3), vec![0, 1, 2]);
        assert_eq!(monitor_read_points(5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn time0_dimensions() {
        let c = campaign();
        let spec = DatasetSpec::small();
        let par = spec.parametric.total_tests();
        let mon = spec.monitors.rod_count + spec.monitors.cpd_count;
        let both = assemble_dataset(&c, 0, 0, FeatureSet::Both).unwrap();
        assert_eq!(both.n_features(), par + mon);
        let p = assemble_dataset(&c, 0, 0, FeatureSet::Parametric).unwrap();
        assert_eq!(p.n_features(), par);
        let o = assemble_dataset(&c, 0, 0, FeatureSet::OnChip).unwrap();
        assert_eq!(o.n_features(), mon);
    }

    #[test]
    fn infield_features_grow_with_read_point() {
        let c = campaign();
        let spec = DatasetSpec::small();
        let mon = spec.monitors.rod_count + spec.monitors.cpd_count;
        let d2 = assemble_dataset(&c, 2, 0, FeatureSet::OnChip).unwrap();
        assert_eq!(d2.n_features(), 2 * mon); // read points {0, 1}
        let d5 = assemble_dataset(&c, 5, 0, FeatureSet::OnChip).unwrap();
        assert_eq!(d5.n_features(), 5 * mon); // read points {0..4}
    }

    #[test]
    fn infield_uses_only_past_monitor_data() {
        let c = campaign();
        let ds = assemble_dataset(&c, 3, 1, FeatureSet::Both).unwrap();
        // No feature name may reference hour 168 (index 3) or later.
        for name in ds.names() {
            assert!(
                !name.contains("h168") && !name.contains("h504") && !name.contains("h1008"),
                "leaky feature: {name}"
            );
        }
    }

    #[test]
    fn targets_match_campaign_column() {
        let c = campaign();
        let ds = assemble_dataset(&c, 4, 2, FeatureSet::Parametric).unwrap();
        assert_eq!(ds.targets(), c.vmin_column(4, 2).as_slice());
    }

    #[test]
    fn out_of_range_indices_error() {
        let c = campaign();
        for (read_point, temp_idx) in [(99, 0), (0, 99)] {
            for ds in [
                assemble_dataset(&c, read_point, temp_idx, FeatureSet::Both),
                assemble_stream_snapshot(&c, read_point, temp_idx, FeatureSet::Both),
            ] {
                assert!(matches!(ds, Err(CoreError::Index(_))), "{ds:?}");
            }
        }
    }

    #[test]
    fn feature_set_display() {
        assert_eq!(FeatureSet::Both.to_string(), "On-chip and Parametric");
        assert_eq!(FeatureSet::Parametric.to_string(), "Parametric");
        assert_eq!(FeatureSet::OnChip.to_string(), "On-chip");
    }
}

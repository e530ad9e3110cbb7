//! Fused fleet screening: generate → serve without materializing the fleet.
//!
//! [`fleet_screen`] serves [`CampaignStream`] chunks in place through
//! [`ServeModel::serve_rows`], so a million-chip screening campaign runs in
//! the memory footprint of a single chunk. Because the stream is bit-identical
//! to `Campaign::run` and serving is row-independent, the fused path produces
//! exactly the counts and interval statistics of materializing the whole
//! campaign, assembling features with [`assemble_dataset`], and serving the
//! full matrix — the test suite asserts the equality to the last bit.
//!
//! [`assemble_dataset`]: crate::assemble_dataset

use vmin_conformal::PredictionInterval;
use vmin_serve::{RowSource, ServeModel};
use vmin_silicon::{BlockLayout, CampaignStream, DatasetSpec, DEFAULT_STREAM_CHUNK};

use crate::error::CoreError;
use crate::scenario::{feature_layout, monitor_read_points, FeatureSet};

/// Knobs of a fused screening run.
#[derive(Debug, Clone, Copy)]
pub struct FleetScreenConfig {
    /// Burn-in read point whose Vmin is being predicted.
    pub read_point: usize,
    /// Temperature index (into `spec.vmin_test.temperatures`) of the target.
    pub temp_idx: usize,
    /// Feature families the model was trained on.
    pub feature_set: FeatureSet,
    /// Product min-spec in millivolts; a chip whose interval upper bound
    /// crosses it is flagged (the Fig. 1 screening decision).
    pub min_spec_mv: f64,
    /// Rows per serve block handed to [`ServeModel::serve_rows`].
    pub serve_rows: usize,
    /// Generation chunk size; `None` means [`DEFAULT_STREAM_CHUNK`]. The
    /// report is bit-identical at any value.
    pub chunk: Option<usize>,
}

impl FleetScreenConfig {
    /// Screening defaults: read point 0, first temperature, both feature
    /// families, 256-row serve blocks, default chunk size.
    pub fn new(min_spec_mv: f64) -> Self {
        FleetScreenConfig {
            read_point: 0,
            temp_idx: 0,
            feature_set: FeatureSet::Both,
            min_spec_mv,
            serve_rows: 256,
            chunk: None,
        }
    }
}

/// Aggregate outcome of a fused screening run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScreenReport {
    /// Chips screened.
    pub chips: usize,
    /// Stream chunks consumed.
    pub blocks: usize,
    /// Feature width served per chip.
    pub n_features: usize,
    /// Chips whose interval upper bound crossed `min_spec_mv`.
    pub flagged: usize,
    /// Chips whose true Vmin fell inside the served interval.
    pub covered: usize,
    /// Ground-truth defective chips seen (for yield accounting).
    pub defective: usize,
    /// Mean served interval length in millivolts.
    pub mean_length_mv: f64,
    /// The threshold the run screened against.
    pub min_spec_mv: f64,
    /// Miscoverage level the model was calibrated at.
    pub alpha: f64,
}

impl FleetScreenReport {
    /// Empirical coverage rate of the run.
    pub fn coverage(&self) -> f64 {
        if self.chips == 0 {
            return 0.0;
        }
        self.covered as f64 / self.chips as f64
    }
}

/// Screens a synthetic fleet end to end: generates chips with
/// [`CampaignStream`], serves each chunk's chip records through `model`
/// read as the column ranges of the exact [`assemble_dataset`] layout, and
/// folds the screening decisions into a [`FleetScreenReport`] — without
/// ever holding more than one chunk in memory, and without copying a chunk
/// into a feature matrix.
///
/// Determinism: generation is bit-identical to `Campaign::run` at any
/// `VMIN_THREADS` and chunk size, and serving is row-independent, so
/// the report (including the f64 mean, accumulated in chip order) is
/// bit-identical to the materialize-then-serve path.
///
/// # Errors
///
/// [`CoreError::Index`] when `cfg.read_point` / `cfg.temp_idx` fall outside
/// the spec's grid, [`CoreError::Width`] when the model's feature count does
/// not match the layout implied by `spec` + `cfg.feature_set`, and
/// [`CoreError::Serve`] when batch serving fails.
///
/// [`assemble_dataset`]: crate::assemble_dataset
///
/// # Example
///
/// ```
/// use vmin_conformal::Cqr;
/// use vmin_core::{assemble_dataset, fleet_screen, FeatureSet, FleetScreenConfig};
/// use vmin_models::{GradientBoost, Loss};
/// use vmin_serve::ServeModel;
/// use vmin_silicon::{Campaign, DatasetSpec};
///
/// let mut spec = DatasetSpec::small();
/// spec.chip_count = 30;
/// let train = Campaign::run(&spec, 7);
/// let ds = assemble_dataset(&train, 0, 1, FeatureSet::Both)?;
/// let mut cqr = Cqr::new(
///     GradientBoost::new(Loss::Pinball(0.05)),
///     GradientBoost::new(Loss::Pinball(0.95)),
///     0.1,
/// );
/// cqr.fit_calibrate(ds.features(), ds.targets(), ds.features(), ds.targets())?;
/// let model = ServeModel::from_gbt_cqr(&cqr, None)?;
///
/// let mut cfg = FleetScreenConfig::new(700.0);
/// cfg.temp_idx = 1;
/// let report = fleet_screen(&spec, 8, &model, &cfg)?;
/// assert_eq!(report.chips, spec.chip_count);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fleet_screen(
    spec: &DatasetSpec,
    seed: u64,
    model: &ServeModel,
    cfg: &FleetScreenConfig,
) -> Result<FleetScreenReport, CoreError> {
    let _span = vmin_trace::span("fleet.screen");

    let n_rp = spec.stress.read_points.len();
    if cfg.read_point >= n_rp {
        return Err(CoreError::Index(format!(
            "read_point {} (spec has {n_rp})",
            cfg.read_point
        )));
    }
    let n_temps = spec.vmin_test.temperatures.len();
    if cfg.temp_idx >= n_temps {
        return Err(CoreError::Index(format!(
            "temp_idx {} (spec has {n_temps})",
            cfg.temp_idx
        )));
    }

    // The feature row as column ranges of the streamed chip row, in the
    // `assemble_dataset` layout.
    let block_layout = BlockLayout::of(spec);
    let spans: Vec<(usize, usize)> =
        feature_layout(cfg.feature_set, &monitor_read_points(cfg.read_point))
            .into_iter()
            .map(|segment| segment.span(&block_layout))
            .collect();
    let d = spans.iter().map(|(a, b)| b - a).sum();
    if model.n_features() != d {
        return Err(CoreError::Width {
            expected: model.n_features(),
            got: d,
        });
    }

    let mut chips = 0usize;
    let mut blocks = 0usize;
    let mut flagged = 0usize;
    let mut covered = 0usize;
    let mut defective = 0usize;
    let mut length_sum = 0.0f64;

    let chunk = cfg.chunk.unwrap_or(DEFAULT_STREAM_CHUNK);
    let stream = CampaignStream::with_chunk(spec, seed, chunk);
    // One interval buffer, reused by every chunk.
    let mut intervals = Vec::new();
    for block in stream {
        let rows = block.len();
        // The chunk's chip records are served in place, read through the
        // feature column ranges: no per-chunk feature matrix.
        let src = RowSource::new(block.data(), block.row_width(), &spans)?;
        intervals.resize(rows, PredictionInterval::new(0.0, 0.0));
        model.serve_rows(&src, cfg.serve_rows, &mut intervals)?;

        for (r, iv) in intervals.iter().enumerate() {
            // Same decision as `VminPredictor::flags_spec_risk`.
            if iv.hi() > cfg.min_spec_mv {
                flagged += 1;
            }
            let truth = block.vmin_mv(r, cfg.read_point, cfg.temp_idx);
            if iv.lo() <= truth && truth <= iv.hi() {
                covered += 1;
            }
            if block.defective(r) {
                defective += 1;
            }
            length_sum += iv.length();
        }
        chips += rows;
        blocks += 1;
    }

    vmin_trace::counter_add("fleet.blocks", blocks as u64);
    vmin_trace::counter_add("fleet.chips", chips as u64);
    vmin_trace::counter_add("fleet.flagged", flagged as u64);

    Ok(FleetScreenReport {
        chips,
        blocks,
        n_features: d,
        flagged,
        covered,
        defective,
        mean_length_mv: if chips == 0 {
            0.0
        } else {
            length_sum / chips as f64
        },
        min_spec_mv: cfg.min_spec_mv,
        alpha: model.alpha(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::assemble_dataset;
    use vmin_conformal::Cqr;
    use vmin_models::{GradientBoost, Loss};
    use vmin_silicon::Campaign;

    fn screening_spec(chips: usize) -> DatasetSpec {
        let mut spec = DatasetSpec::small();
        spec.chip_count = chips;
        spec
    }

    fn fit_model(spec: &DatasetSpec, seed: u64, temp_idx: usize, fs: FeatureSet) -> ServeModel {
        let train = Campaign::run(spec, seed);
        let ds = assemble_dataset(&train, 0, temp_idx, fs).unwrap();
        let mut cqr = Cqr::new(
            GradientBoost::new(Loss::Pinball(0.05)),
            GradientBoost::new(Loss::Pinball(0.95)),
            0.1,
        );
        cqr.fit_calibrate(ds.features(), ds.targets(), ds.features(), ds.targets())
            .unwrap();
        ServeModel::from_gbt_cqr(&cqr, None).unwrap()
    }

    /// The materialize-then-serve reference: same spec/seed/config, but the
    /// whole fleet is generated with `Campaign::run` and served as one
    /// matrix. Accumulates in the same chip order as the fused path.
    fn materialized_report(
        spec: &DatasetSpec,
        seed: u64,
        model: &ServeModel,
        cfg: &FleetScreenConfig,
    ) -> FleetScreenReport {
        let campaign = Campaign::run(spec, seed);
        let ds =
            assemble_dataset(&campaign, cfg.read_point, cfg.temp_idx, cfg.feature_set).unwrap();
        let intervals = model.serve_batch(ds.features(), cfg.serve_rows).unwrap();
        let (mut flagged, mut covered, mut defective) = (0, 0, 0);
        let mut length_sum = 0.0;
        for (chip, iv) in campaign.chips.iter().zip(&intervals) {
            if iv.hi() > cfg.min_spec_mv {
                flagged += 1;
            }
            let truth = chip.vmin_mv[cfg.read_point][cfg.temp_idx];
            if iv.lo() <= truth && truth <= iv.hi() {
                covered += 1;
            }
            if chip.defective {
                defective += 1;
            }
            length_sum += iv.length();
        }
        FleetScreenReport {
            chips: campaign.chip_count(),
            blocks: 0, // not comparable
            n_features: ds.n_features(),
            flagged,
            covered,
            defective,
            mean_length_mv: length_sum / campaign.chip_count() as f64,
            min_spec_mv: cfg.min_spec_mv,
            alpha: model.alpha(),
        }
    }

    #[test]
    fn fused_report_matches_materialize_then_serve_bit_for_bit() {
        let spec = screening_spec(40);
        let model = fit_model(&spec, 5, 1, FeatureSet::Both);
        let mut cfg = FleetScreenConfig::new(700.0);
        cfg.temp_idx = 1;
        cfg.serve_rows = 16;
        let reference = materialized_report(&spec, 9, &model, &cfg);
        for chunk in [1usize, 7, 64] {
            let mut fused_cfg = cfg;
            fused_cfg.chunk = Some(chunk);
            let report = fleet_screen(&spec, 9, &model, &fused_cfg).unwrap();
            assert_eq!(report.chips, reference.chips);
            assert_eq!(report.n_features, reference.n_features);
            assert_eq!(report.flagged, reference.flagged);
            assert_eq!(report.covered, reference.covered);
            assert_eq!(report.defective, reference.defective);
            assert_eq!(
                report.mean_length_mv.to_bits(),
                reference.mean_length_mv.to_bits(),
                "mean interval length must match to the bit"
            );
            assert_eq!(report.alpha, reference.alpha);
        }
    }

    #[test]
    fn report_is_invariant_to_thread_count() {
        let spec = screening_spec(24);
        let model = fit_model(&spec, 3, 0, FeatureSet::OnChip);
        let mut cfg = FleetScreenConfig::new(680.0);
        cfg.feature_set = FeatureSet::OnChip;
        let serial = vmin_par::with_threads(1, || fleet_screen(&spec, 2, &model, &cfg).unwrap());
        let parallel = vmin_par::with_threads(4, || fleet_screen(&spec, 2, &model, &cfg).unwrap());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let spec = screening_spec(12);
        let model = fit_model(&spec, 1, 0, FeatureSet::Both);
        let mut cfg = FleetScreenConfig::new(700.0);
        cfg.feature_set = FeatureSet::Parametric; // narrower layout
        match fleet_screen(&spec, 1, &model, &cfg) {
            Err(CoreError::Width { expected, got }) => {
                assert_eq!(expected, model.n_features());
                assert!(got < expected);
            }
            other => panic!("expected width error, got {other:?}"),
        }
    }

    #[test]
    fn bad_indices_are_rejected() {
        let spec = screening_spec(12);
        let model = fit_model(&spec, 1, 0, FeatureSet::Both);
        let mut cfg = FleetScreenConfig::new(700.0);
        cfg.read_point = 99;
        assert!(matches!(
            fleet_screen(&spec, 1, &model, &cfg),
            Err(CoreError::Index(_))
        ));
        cfg.read_point = 0;
        cfg.temp_idx = 99;
        assert!(matches!(
            fleet_screen(&spec, 1, &model, &cfg),
            Err(CoreError::Index(_))
        ));
    }

    #[test]
    fn flag_count_is_monotone_in_the_threshold() {
        let spec = screening_spec(20);
        let model = fit_model(&spec, 4, 1, FeatureSet::Both);
        let mut strict = FleetScreenConfig::new(0.0);
        strict.temp_idx = 1;
        let mut lax = FleetScreenConfig::new(10_000.0);
        lax.temp_idx = 1;
        let all = fleet_screen(&spec, 6, &model, &strict).unwrap();
        let none = fleet_screen(&spec, 6, &model, &lax).unwrap();
        assert_eq!(all.flagged, all.chips);
        assert_eq!(none.flagged, 0);
        assert!(all.coverage() >= 0.0 && all.coverage() <= 1.0);
    }
}

//! The three closed-loop workloads: what each sets up, what one request
//! does, and how a request's output is checked and digested.
//!
//! Setup inputs are fixed, so every run and every seed pays for the same
//! setup. Request `i` of a run with seed `s` uses seed `s + i`.

use crate::spans::SpanLog;
use vmin_conformal::{Cqr, PredictionInterval};
use vmin_core::{
    assemble_dataset, fleet_screen, run_region_cell_on, ExperimentConfig, FeatureSet,
    FleetScreenConfig, FleetScreenReport, ModelConfig, PointModel, RegionEval, RegionMethod,
};
use vmin_data::Dataset;
use vmin_linalg::Matrix;
use vmin_models::{GradientBoost, GradientBoostParams, Loss, TreeParams};
use vmin_serve::ServeModel;
use vmin_silicon::{Campaign, CampaignStream, DatasetSpec};

/// Chips in one `fleet_screen` request: one stream chunk.
pub const LOT_CHIPS: usize = 4096;
/// Rows in one `rescreen` request: one serve block.
pub const SERVE_ROWS: usize = 256;
/// Region cells in one `table3_cell` request.
pub const CELLS_PER_REQUEST: usize = 2;
/// Span name of the artifact load in the `rescreen` setup.
pub const LOAD_CALL: &str = "vmin_serve::ServeModel::from_bytes";

/// Product min-spec the screen flags against (mV).
const MIN_SPEC_MV: f64 = 700.0;
/// Chips in the campaign the served CQR pair is trained on.
const TRAIN_CHIPS: usize = 512;
const TRAIN_SEED: u64 = 1;
/// Chips in the `rescreen` population, served 256 rows at a time.
const POPULATION_CHIPS: usize = 65_536;
const POPULATION_SEED: u64 = 7;
/// Seed of the paper-scale campaign behind `table3_cell`.
const CAMPAIGN_SEED: u64 = 20_240_325;
/// Temperature index of the 25 °C Vmin target.
const TEMP_25C: usize = 1;
/// The two Table III rows a `table3_cell` request evaluates, in order.
const TABLE3_METHODS: [RegionMethod; CELLS_PER_REQUEST] = [
    RegionMethod::Cqr(PointModel::Xgboost),
    RegionMethod::Cqr(PointModel::CatBoost),
];

/// The workloads by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Fused generate → serve → screen of a fresh 4096-chip lot.
    FleetScreen,
    /// CQR-XGBoost and CQR-CatBoost region cells on one read point.
    Table3Cell,
    /// Serving one 256-row block of a pre-generated population.
    Rescreen,
}

impl Name {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Name; 3] = [Name::FleetScreen, Name::Table3Cell, Name::Rescreen];

    /// The name used on the command line and in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::FleetScreen => "fleet_screen",
            Name::Table3Cell => "table3_cell",
            Name::Rescreen => "rescreen",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// A workload: its setup and one request.
pub trait Workload: Sized {
    /// The workload's name.
    const NAME: Name;
    /// Work items one request completes: chips, cells or rows.
    const ITEMS_PER_REQUEST: u64;
    /// Requests per rotation; a run only ends on a rotation boundary.
    const ROTATION: u64;
    /// Requests at the start of a run at the default seed whose outputs
    /// are digested and compared with the reference.
    const DIGEST_PREFIX: u64;
    /// Vmin searches the setup performs (chips × read points ×
    /// temperatures), counted here because the streaming engine does not
    /// count its own.
    const SETUP_SEARCHES: u64;
    /// Vmin searches one request performs.
    const REQUEST_SEARCHES: u64;

    /// Builds everything requests need; public calls go through `spans`.
    fn setup(spans: &mut SpanLog) -> Result<Self, String>;

    /// Runs request `index` with `seed`; public calls go through `spans`.
    fn request(&self, index: u64, seed: u64, spans: &mut SpanLog) -> Result<Reply, String>;
}

/// What a request returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A fused screening report.
    Fleet(FleetScreenReport),
    /// Region cells in [`TABLE3_METHODS`] order.
    Cells(Vec<RegionEval>),
    /// Served intervals, one per row.
    Intervals(Vec<PredictionInterval>),
}

impl Reply {
    /// Checks the invariants every correct output satisfies.
    pub fn check(&self) -> Result<(), String> {
        match self {
            Reply::Fleet(r) => {
                if r.chips != LOT_CHIPS {
                    return Err(format!("screened {} of {LOT_CHIPS} chips", r.chips));
                }
                if r.flagged > r.chips || r.covered > r.chips {
                    return Err(format!(
                        "flagged {} / covered {} exceed {} chips",
                        r.flagged, r.covered, r.chips
                    ));
                }
                if !(r.mean_length_mv.is_finite() && r.mean_length_mv > 0.0) {
                    return Err(format!("mean interval length {}", r.mean_length_mv));
                }
                Ok(())
            }
            Reply::Cells(cells) => {
                if cells.len() != CELLS_PER_REQUEST {
                    return Err(format!(
                        "{} cells, expected {CELLS_PER_REQUEST}",
                        cells.len()
                    ));
                }
                for c in cells {
                    if !(0.0..=1.0).contains(&c.coverage) {
                        return Err(format!("cell coverage {}", c.coverage));
                    }
                    if !(c.mean_length.is_finite() && c.mean_length > 0.0) {
                        return Err(format!("cell mean length {}", c.mean_length));
                    }
                }
                Ok(())
            }
            Reply::Intervals(ivs) => {
                if ivs.len() != SERVE_ROWS {
                    return Err(format!("{} intervals, expected {SERVE_ROWS}", ivs.len()));
                }
                match ivs.iter().position(|iv| {
                    !(iv.lo().is_finite() && iv.hi().is_finite() && iv.lo() <= iv.hi())
                }) {
                    Some(i) => Err(format!(
                        "interval {i} is [{}, {}]",
                        ivs[i].lo(),
                        ivs[i].hi()
                    )),
                    None => Ok(()),
                }
            }
        }
    }

    /// FNV-1a over every count and every f64 bit pattern of the output.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            Reply::Fleet(r) => {
                for n in [
                    r.chips,
                    r.blocks,
                    r.n_features,
                    r.flagged,
                    r.covered,
                    r.defective,
                ] {
                    h.word(n as u64);
                }
                for x in [r.mean_length_mv, r.min_spec_mv, r.alpha] {
                    h.word(x.to_bits());
                }
            }
            Reply::Cells(cells) => {
                h.word(cells.len() as u64);
                for c in cells {
                    h.word(c.mean_length.to_bits());
                    h.word(c.coverage.to_bits());
                }
            }
            Reply::Intervals(ivs) => {
                h.word(ivs.len() as u64);
                for iv in ivs {
                    h.word(iv.lo().to_bits());
                    h.word(iv.hi().to_bits());
                }
            }
        }
        h.finish()
    }

    /// The output's counts and leading bit patterns, for the run log.
    pub fn summary(&self) -> String {
        match self {
            Reply::Fleet(r) => format!(
                "chips={} flagged={} covered={} defective={} mean_length={:016x}",
                r.chips,
                r.flagged,
                r.covered,
                r.defective,
                r.mean_length_mv.to_bits()
            ),
            Reply::Cells(cells) => cells
                .iter()
                .map(|c| {
                    format!(
                        "length={:016x} coverage={:016x}",
                        c.mean_length.to_bits(),
                        c.coverage.to_bits()
                    )
                })
                .collect::<Vec<_>>()
                .join(" "),
            Reply::Intervals(ivs) => match ivs.first() {
                Some(iv) => format!(
                    "rows={} first=[{:016x}, {:016x}]",
                    ivs.len(),
                    iv.lo().to_bits(),
                    iv.hi().to_bits()
                ),
                None => "rows=0".to_string(),
            },
        }
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Vmin searches a campaign over `spec` performs.
fn searches(spec: &DatasetSpec) -> u64 {
    (spec.chip_count * spec.stress.read_points.len() * spec.vmin_test.temperatures.len()) as u64
}

/// Fits the production CQR-XGBoost pair (100 rounds, depth 6) on 75% of
/// a 512-chip screening campaign, calibrates it on the other 25%, and
/// captures it for serving.
fn fit_screen_model(spans: &mut SpanLog) -> Result<ServeModel, String> {
    let spec = DatasetSpec::screening(TRAIN_CHIPS);
    let campaign = spans.call("vmin_silicon::Campaign::run", || {
        Campaign::run(&spec, TRAIN_SEED)
    });
    let ds = spans
        .call("vmin_core::assemble_dataset", || {
            assemble_dataset(&campaign, 0, 0, FeatureSet::Both)
        })
        .map_err(|e| format!("assemble training set: {e}"))?;
    let n_train = TRAIN_CHIPS * 3 / 4;
    let (train, cal) = spans
        .call("vmin_data::Dataset::subset_rows", || {
            let train: Vec<usize> = (0..n_train).collect();
            let cal: Vec<usize> = (n_train..ds.n_samples()).collect();
            Ok::<_, vmin_data::DatasetError>((ds.subset_rows(&train)?, ds.subset_rows(&cal)?))
        })
        .map_err(|e| format!("split training set: {e}"))?;
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
    spans
        .call("vmin_conformal::Cqr::fit_calibrate", || {
            cqr.fit_calibrate(
                train.features(),
                train.targets(),
                cal.features(),
                cal.targets(),
            )
        })
        .map_err(|e| format!("fit_calibrate: {e}"))?;
    spans
        .call("vmin_serve::ServeModel::from_gbt_cqr", || {
            ServeModel::from_gbt_cqr(&cqr, None)
        })
        .map_err(|e| format!("capture served model: {e}"))
}

/// `fleet_screen`: the fused screen of a fresh 4096-chip lot per request.
pub struct FleetScreen {
    model: ServeModel,
    lot: DatasetSpec,
    cfg: FleetScreenConfig,
}

impl Workload for FleetScreen {
    const NAME: Name = Name::FleetScreen;
    const ITEMS_PER_REQUEST: u64 = LOT_CHIPS as u64;
    const ROTATION: u64 = 1;
    const DIGEST_PREFIX: u64 = 2;
    const SETUP_SEARCHES: u64 = TRAIN_CHIPS as u64;
    const REQUEST_SEARCHES: u64 = LOT_CHIPS as u64;

    fn setup(spans: &mut SpanLog) -> Result<Self, String> {
        let model = fit_screen_model(spans)?;
        let mut cfg = FleetScreenConfig::new(MIN_SPEC_MV);
        // One chunk per lot, whatever the ambient stream chunk size.
        cfg.chunk = Some(LOT_CHIPS);
        Ok(FleetScreen {
            model,
            lot: DatasetSpec::screening(LOT_CHIPS),
            cfg,
        })
    }

    fn request(&self, _index: u64, seed: u64, spans: &mut SpanLog) -> Result<Reply, String> {
        spans
            .call("vmin_core::fleet_screen", || {
                fleet_screen(&self.lot, seed, &self.model, &self.cfg)
            })
            .map(Reply::Fleet)
            .map_err(|e| format!("fleet_screen: {e}"))
    }
}

/// The paper-scale campaign spec (156 chips, six read points, three
/// temperatures, 24 aged paths) with the reduced parametric and monitor
/// inventory of the `medium` scale.
fn medium_spec() -> DatasetSpec {
    let mut spec = DatasetSpec::default();
    spec.parametric.iddq_per_temp = 40;
    spec.parametric.trip_idd_per_temp = 20;
    spec.parametric.leakage_per_temp = 30;
    spec.parametric.artifact_per_temp = 10;
    spec.monitors.rod_count = 60;
    spec.monitors.cpd_count = 10;
    spec
}

/// The `medium`-scale Table III protocol: 4-fold CV, α = 0.1, 60 GBT and
/// 100 CatBoost-style rounds.
fn medium_experiment() -> ExperimentConfig {
    ExperimentConfig {
        models: ModelConfig {
            nn_epochs: 1500,
            qlin_epochs: 1500,
            gbt_rounds: 60,
            cat_rounds: 100,
            nn_seed: 0,
        },
        ..ExperimentConfig::default()
    }
}

/// Read points of the paper-scale campaign.
const READ_POINTS: usize = 6;

/// `table3_cell`: CQR-XGBoost then CQR-CatBoost on one read point's 25 °C
/// dataset; requests rotate over the six read points.
pub struct Table3Cell {
    datasets: Vec<Dataset>,
    cfg: ExperimentConfig,
}

impl Workload for Table3Cell {
    const NAME: Name = Name::Table3Cell;
    const ITEMS_PER_REQUEST: u64 = CELLS_PER_REQUEST as u64;
    const ROTATION: u64 = READ_POINTS as u64;
    const DIGEST_PREFIX: u64 = 2;
    // 156 chips × 6 read points × 3 temperatures.
    const SETUP_SEARCHES: u64 = 156 * 6 * 3;
    const REQUEST_SEARCHES: u64 = 0;

    fn setup(spans: &mut SpanLog) -> Result<Self, String> {
        let spec = medium_spec();
        if searches(&spec) != Self::SETUP_SEARCHES || spec.stress.read_points.len() != READ_POINTS {
            return Err("the medium campaign no longer has 156 chips × 6 × 3 searches".into());
        }
        let campaign = spans.call("vmin_silicon::Campaign::run", || {
            Campaign::run(&spec, CAMPAIGN_SEED)
        });
        let datasets = (0..READ_POINTS)
            .map(|rp| {
                spans
                    .call("vmin_core::assemble_dataset", || {
                        assemble_dataset(&campaign, rp, TEMP_25C, FeatureSet::Both)
                    })
                    .map_err(|e| format!("assemble read point {rp}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Table3Cell {
            datasets,
            cfg: medium_experiment(),
        })
    }

    fn request(&self, index: u64, seed: u64, spans: &mut SpanLog) -> Result<Reply, String> {
        let rp = usize::try_from(index % Self::ROTATION).map_err(|e| e.to_string())?;
        let ds = self
            .datasets
            .get(rp)
            .ok_or_else(|| format!("no dataset for read point {rp}"))?;
        let cfg = ExperimentConfig { seed, ..self.cfg };
        let mut cells = Vec::with_capacity(CELLS_PER_REQUEST);
        for method in TABLE3_METHODS {
            let cell = spans
                .call("vmin_core::run_region_cell_on", || {
                    run_region_cell_on(ds, method, &cfg)
                })
                .map_err(|e| format!("{method} at read point {rp}: {e}"))?;
            cells.push(cell);
        }
        Ok(Reply::Cells(cells))
    }
}

/// `rescreen`: serving one 256-row block of a pre-generated population
/// through a model reloaded from its artifact bytes.
pub struct Rescreen {
    model: ServeModel,
    blocks: Vec<Matrix>,
}

impl Workload for Rescreen {
    const NAME: Name = Name::Rescreen;
    const ITEMS_PER_REQUEST: u64 = SERVE_ROWS as u64;
    const ROTATION: u64 = 1;
    const DIGEST_PREFIX: u64 = 8;
    const SETUP_SEARCHES: u64 = (TRAIN_CHIPS + POPULATION_CHIPS) as u64;
    const REQUEST_SEARCHES: u64 = 0;

    fn setup(spans: &mut SpanLog) -> Result<Self, String> {
        let fitted = fit_screen_model(spans)?;
        let bytes = spans.call("vmin_serve::ServeModel::to_bytes", || fitted.to_bytes());
        let model = spans
            .call(LOAD_CALL, || ServeModel::from_bytes(&bytes))
            .map_err(|e| format!("reload served model: {e}"))?;
        let d = model.n_features();
        let spec = DatasetSpec::screening(POPULATION_CHIPS);
        let mut stream = CampaignStream::with_chunk(&spec, POPULATION_SEED, LOT_CHIPS);
        let mut blocks = Vec::with_capacity(POPULATION_CHIPS / SERVE_ROWS);
        while let Some(chunk) = spans.call("vmin_silicon::CampaignStream::next", || stream.next()) {
            spans.own("assemble serve blocks", || {
                // The time-0 screening layout: parametric, then ROD and CPD
                // readouts of read point 0 — what `fleet_screen` serves.
                let rows: Vec<f64> = (0..chunk.len())
                    .flat_map(|r| [chunk.parametric(r), chunk.rod(r, 0), chunk.cpd(r, 0)].concat())
                    .collect();
                if rows.len() != chunk.len() * d {
                    return Err(format!("screening rows are not {d} wide"));
                }
                for block in rows.chunks(SERVE_ROWS * d) {
                    let m = Matrix::from_vec(block.len() / d, d, block.to_vec())
                        .map_err(|e| format!("serve block: {e}"))?;
                    blocks.push(m);
                }
                Ok::<_, String>(())
            })?;
        }
        let expected = POPULATION_CHIPS / SERVE_ROWS;
        if blocks.len() != expected || blocks.iter().any(|b| b.rows() != SERVE_ROWS) {
            return Err(format!(
                "population split into {} blocks, expected {expected}",
                blocks.len()
            ));
        }
        Ok(Rescreen { model, blocks })
    }

    fn request(&self, _index: u64, seed: u64, spans: &mut SpanLog) -> Result<Reply, String> {
        let n = self.blocks.len() as u64;
        let block = usize::try_from(seed % n.max(1)).map_err(|e| e.to_string())?;
        let x = self
            .blocks
            .get(block)
            .ok_or_else(|| format!("no serve block {block}"))?;
        spans
            .call("vmin_serve::ServeModel::serve_batch", || {
                self.model.serve_batch(x, SERVE_ROWS)
            })
            .map(Reply::Intervals)
            .map_err(|e| format!("serve_batch: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> FleetScreenReport {
        FleetScreenReport {
            chips: LOT_CHIPS,
            blocks: 1,
            n_features: 22,
            flagged: 100,
            covered: 3700,
            defective: 12,
            mean_length_mv: 41.5,
            min_spec_mv: MIN_SPEC_MV,
            alpha: 0.1,
        }
    }

    #[test]
    fn names_round_trip() {
        for n in Name::ALL {
            assert_eq!(Name::parse(n.as_str()), Some(n));
        }
        assert_eq!(Name::parse("hit"), None);
    }

    #[test]
    fn checks_catch_each_invariant() {
        assert_eq!(Reply::Fleet(fleet()).check(), Ok(()));
        let mut r = fleet();
        r.chips = 4095;
        assert!(Reply::Fleet(r).check().is_err());
        let mut r = fleet();
        r.covered = LOT_CHIPS + 1;
        assert!(Reply::Fleet(r).check().is_err());
        let mut r = fleet();
        r.mean_length_mv = f64::NAN;
        assert!(Reply::Fleet(r).check().is_err());

        let cell = RegionEval {
            mean_length: 30.0,
            coverage: 0.9,
        };
        assert_eq!(Reply::Cells(vec![cell; 2]).check(), Ok(()));
        assert!(Reply::Cells(vec![cell]).check().is_err());
        let bad = RegionEval {
            coverage: 1.5,
            ..cell
        };
        assert!(Reply::Cells(vec![cell, bad]).check().is_err());

        let ivs = vec![PredictionInterval::new(600.0, 650.0); SERVE_ROWS];
        assert_eq!(Reply::Intervals(ivs.clone()).check(), Ok(()));
        assert!(Reply::Intervals(ivs[1..].to_vec()).check().is_err());
        let mut inf = ivs;
        inf[3] = PredictionInterval::new(600.0, f64::INFINITY);
        assert!(Reply::Intervals(inf).check().is_err());
    }

    #[test]
    fn digest_moves_with_a_single_bit() {
        let base = Reply::Fleet(fleet()).digest();
        let mut r = fleet();
        r.mean_length_mv = f64::from_bits(r.mean_length_mv.to_bits() ^ 1);
        assert_ne!(Reply::Fleet(r).digest(), base);
        let ivs = vec![PredictionInterval::new(600.0, 650.0); 4];
        let mut moved = ivs.clone();
        moved[2] = PredictionInterval::new(600.0, f64::from_bits(650f64.to_bits() + 1));
        assert_ne!(
            Reply::Intervals(ivs).digest(),
            Reply::Intervals(moved).digest()
        );
    }
}

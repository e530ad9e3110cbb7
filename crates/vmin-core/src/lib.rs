//! # vmin-core
//!
//! The paper's Vmin interval-prediction framework: scenario definitions,
//! model zoo, fold pipelines, cross-validated experiment drivers and table
//! formatters.
//!
//! This crate glues the substrates together:
//!
//! 1. [`assemble_dataset`] turns a simulated burn-in [`Campaign`]
//!    (`vmin-silicon`) into a supervised dataset for a given read point,
//!    temperature and [`FeatureSet`] (§III-A feature rules).
//! 2. [`PointModel`] / [`RegionMethod`] enumerate the paper's five point
//!    regressors and nine interval predictors (§IV-C/E).
//! 3. [`run_point_cell`] / [`run_region_cell`] /
//!    [`run_feature_set_study`] reproduce Fig. 2, Table III and
//!    Table IV / Fig. 3 under the §IV-B protocol (4-fold CV, shared seed,
//!    75/25 CQR calibration split, α = 0.1).
//! 4. [`VminPredictor`] is the deployable artifact: fit once, then query
//!    `interval(chip_features)` — with [`VminPredictor::flags_spec_risk`]
//!    implementing the min-spec screening decision of Fig. 1.
//!
//! ## Example
//!
//! ```
//! use vmin_core::{assemble_dataset, run_region_cell, ExperimentConfig,
//!                 FeatureSet, PointModel, RegionMethod};
//! use vmin_silicon::{Campaign, DatasetSpec};
//!
//! let campaign = Campaign::run(&DatasetSpec::small(), 7);
//! let cell = run_region_cell(
//!     &campaign,
//!     0,                                   // read point: time 0
//!     1,                                   // temperature: 25 °C
//!     RegionMethod::Cqr(PointModel::Linear),
//!     FeatureSet::Both,
//!     &ExperimentConfig::fast(),
//! )?;
//! assert!(cell.mean_length > 0.0);
//! # Ok::<(), vmin_core::CoreError>(())
//! ```
//!
//! [`Campaign`]: vmin_silicon::Campaign

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops are kept where they mirror the underlying matrix math.
#![allow(clippy::needless_range_loop)]

mod binning;
mod degradation;
mod error;
mod experiment;
mod fleet;
mod flow;
mod report;
mod scenario;
mod screening;
mod streaming;
mod zoo;

pub use binning::{bin_population, BinningReport, BinningScheme};
pub use degradation::{sanitize_campaign, ClassDisposition, DegradationPolicy, RepairLog};
pub use error::CoreError;
pub use experiment::{
    onchip_monitor_gain, run_feature_set_study, run_point_cell, run_point_cell_on, run_region_cell,
    run_region_cell_on, ExperimentConfig, FeatureSetSummary,
};
pub use fleet::{fleet_screen, FleetScreenConfig, FleetScreenReport};
pub use flow::{
    eval_point_fold, eval_region_fold, PointEval, RegionEval, SanitizedFit, VminPredictor,
    CFS_MAX_FEATURES, CFS_POOL,
};
pub use report::{format_feature_set_table, format_point_table, format_region_table};
pub use scenario::{assemble_dataset, assemble_stream_snapshot, monitor_read_points, FeatureSet};
pub use screening::{simulate_screening, ScreeningDecision, ScreeningPolicy, ScreeningReport};
pub use streaming::{run_stream, ReadPointStats, StreamConfig, StreamReport};
// The canonical readers for `VMIN_*` environment knobs (they live in
// `vmin-trace`, the workspace's root dependency, so every crate shares one
// implementation; re-exported here because most tools depend on vmin-core).
pub use vmin_trace::{env_flag, env_usize};
pub use zoo::{ModelConfig, PointModel, RegionMethod};

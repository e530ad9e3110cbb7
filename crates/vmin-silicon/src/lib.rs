//! # vmin-silicon
//!
//! A physics-inspired synthetic-silicon substrate replacing the proprietary
//! 156-chip 5 nm automotive dataset of the paper *"Reliable Interval
//! Prediction of Minimum Operating Voltage Based on On-chip Monitors via
//! Conformalized Quantile Regression"* (DATE 2024).
//!
//! The simulator reproduces the statistical structure the paper's method
//! depends on:
//!
//! - hierarchical **process variation** (lot/wafer/die + within-die mismatch),
//! - **alpha-power-law** gate delay with temperature inversion, making SCAN
//!   Vmin a sharp quantity that is worst at −45 °C,
//! - **NBTI/HCI aging** under accelerated burn-in stress with chip-to-chip
//!   rate variation (the heteroscedasticity that motivates adaptive
//!   intervals),
//! - **on-chip monitors** — 168 ring oscillators and 10 in-situ critical-path
//!   replicas — that sense the same gate-level state as the speed-limiting
//!   paths,
//! - a redundant, noisy **parametric test program** (1800 tests across three
//!   temperatures),
//! - rare **resistive defects** producing Vmin outliers.
//!
//! ## Quick start
//!
//! ```
//! use vmin_silicon::{Campaign, DatasetSpec};
//!
//! let spec = DatasetSpec::small(); // 40 chips; `default()` is the paper's 156
//! let campaign = Campaign::run(&spec, 42);
//! let vmin_25c_t0 = campaign.vmin_column(0, 1);
//! assert_eq!(vmin_25c_t0.len(), spec.chip_count);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops are kept where they mirror the underlying matrix math.
#![allow(clippy::needless_range_loop)]

mod aging;
mod chip;
mod config;
mod corruption;
mod device;
mod drift;
mod export;
mod monitor;
mod parametric;
mod process;
mod sampling;
mod stream;
mod testflow;
mod units;
mod vmin;

pub use aging::{AgingModel, WorkloadProfile};
pub use chip::{Chip, ChipFactory, CriticalPath};
pub use config::{
    AgingSpec, DatasetSpec, DefectSpec, MonitorSpec, ParametricSpec, ProcessSpec, StressSpec,
    VminTestSpec, WorkloadSpec,
};
pub use corruption::{
    CorruptionConfig, CorruptionInjector, FaultClass, FaultRecord, InjectionLedger,
};
pub use device::{DeviceParams, ALPHA, MOBILITY_TEMP_EXP, SUBTHRESHOLD_SWING, VTH_TEMP_COEFF};
pub use drift::{DriftClass, DriftFault, DriftInjector, DriftLedger, DriftRecord};
pub use export::{write_blocks_csv, write_campaign_csv, write_stream_csv};
pub use monitor::{CpdMonitor, MonitorBank, RingOscillator};
pub use parametric::{ParametricKind, ParametricProgram, ParametricTest};
pub use process::{ProcessSampler, ProcessState};
pub use sampling::{lognormal, normal, standard_normal, truncated_normal};
pub use stream::{BlockLayout, CampaignStream, ChipBlock, DEFAULT_STREAM_CHUNK, SHARD_CHIPS};
pub use testflow::{nominal_chip, Campaign, ChipMeasurements};
pub use units::{Celsius, Hours, Picoseconds, Volt};
pub use vmin::VminTester;

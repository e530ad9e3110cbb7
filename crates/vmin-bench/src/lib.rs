//! # vmin-bench
//!
//! Binaries regenerating every table and figure of the paper's evaluation
//! on the synthetic-silicon substrate:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Fig. 2 (point-prediction R²/RMSE) | `fig2_point_prediction` |
//! | Table III (interval length & coverage) | `table3_region_prediction` |
//! | Table IV + Fig. 3 (on-chip monitor gain) | `table4_onchip_gain` |
//! | Ablations A1 (calibration fraction) and A2 (conformal variants) | `ablations` |
//!
//! The three paper regenerators and `robustness_sweep` accept
//! `--scale quick|medium|full`:
//!
//! - `quick`: reduced campaign and training budgets (~1 min) — CI-friendly.
//! - `medium` (default): the paper's 156 chips and read points with a
//!   reduced parametric-test count and training budgets sized for a laptop.
//! - `full`: the paper's full Table II inventory and §IV-C model budgets.
//!
//! The `*_smoke` binaries and `trace_report` are CI drivers: each prints
//! bit patterns that `ci.sh` diffs across `VMIN_THREADS` values. Timing
//! lives in the standalone `perfbench/` package.
//!
//! Every binary reports a failure through [`die`]: one line on stderr and
//! exit status 1, never a panic.

#![forbid(unsafe_code)]

use std::fmt;
use vmin_core::{ExperimentConfig, ModelConfig};
use vmin_silicon::DatasetSpec;

/// Prints `<binary>: fatal: <msg>` to stderr and exits with status 1.
pub fn die(msg: &str) -> ! {
    let bin = std::env::args_os()
        .next()
        .map(std::path::PathBuf::from)
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "vmin-bench".to_string());
    eprintln!("{bin}: fatal: {msg}");
    std::process::exit(1)
}

/// Why [`Scale::from_args`] rejected a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ScaleArgError {
    /// `--scale` was the last argument.
    MissingValue,
    /// `--scale` named no known scale.
    UnknownScale(String),
    /// An argument other than `--scale <value>`.
    Unexpected(String),
}

impl fmt::Display for ScaleArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleArgError::MissingValue => write!(f, "--scale needs a value")?,
            ScaleArgError::UnknownScale(v) => write!(f, "unknown scale {v:?}")?,
            ScaleArgError::Unexpected(a) => write!(f, "unexpected argument {a:?}")?,
        }
        write!(f, " (usage: [--scale quick|medium|full])")
    }
}

/// Benchmark scale selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small campaign, fast budgets.
    Quick,
    /// Paper-sized population, laptop-sized feature count and budgets.
    Medium,
    /// Paper's full inventory and budgets.
    Full,
}

impl Scale {
    /// Parses `[--scale quick|medium|full]` from the arguments after the
    /// program name; no `--scale` means `Medium`. A later `--scale` beats
    /// an earlier one.
    pub(crate) fn from_args<I>(args: I) -> Result<Scale, ScaleArgError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut scale = Scale::Medium;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg != "--scale" {
                return Err(ScaleArgError::Unexpected(arg));
            }
            scale = match args.next().as_deref() {
                Some("quick") => Scale::Quick,
                Some("medium") => Scale::Medium,
                Some("full") => Scale::Full,
                Some(other) => return Err(ScaleArgError::UnknownScale(other.to_string())),
                None => return Err(ScaleArgError::MissingValue),
            };
        }
        Ok(scale)
    }

    /// Parses the process arguments after the program name (see
    /// `from_args`); an invalid command line ends the process through
    /// [`die`] with a usage line.
    pub fn from_env_args() -> Scale {
        Scale::from_args(std::env::args().skip(1)).unwrap_or_else(|e| die(&e.to_string()))
    }

    /// The campaign specification for this scale.
    pub fn dataset_spec(&self) -> DatasetSpec {
        match self {
            Scale::Quick => DatasetSpec::small(),
            Scale::Medium => {
                let mut spec = DatasetSpec::default(); // 156 chips, paper read points
                spec.parametric.iddq_per_temp = 40;
                spec.parametric.trip_idd_per_temp = 20;
                spec.parametric.leakage_per_temp = 30;
                spec.parametric.artifact_per_temp = 10;
                spec.monitors.rod_count = 60;
                spec.monitors.cpd_count = 10;
                spec
            }
            Scale::Full => DatasetSpec::default(),
        }
    }

    /// The experiment protocol/budgets for this scale.
    pub fn experiment_config(&self) -> ExperimentConfig {
        match self {
            Scale::Quick => ExperimentConfig::fast(),
            Scale::Medium => ExperimentConfig {
                models: ModelConfig {
                    nn_epochs: 1500,
                    qlin_epochs: 1500,
                    gbt_rounds: 60,
                    cat_rounds: 100,
                    nn_seed: 0,
                },
                ..ExperimentConfig::default()
            },
            Scale::Full => ExperimentConfig::default(),
        }
    }

    /// The campaign seed shared by every artifact regenerator, so the three
    /// binaries all see the same synthetic silicon.
    pub const CAMPAIGN_SEED: u64 = 20240325;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medium_keeps_paper_population() {
        let spec = Scale::Medium.dataset_spec();
        assert_eq!(spec.chip_count, 156);
        assert_eq!(spec.stress.read_points.len(), 6);
        assert!(spec.parametric.total_tests() < 1800);
    }

    #[test]
    fn full_matches_table2() {
        let spec = Scale::Full.dataset_spec();
        assert_eq!(spec.parametric.total_tests(), 1800);
        assert_eq!(spec.monitors.rod_count, 168);
    }

    #[test]
    fn budgets_ordered() {
        let q = Scale::Quick.experiment_config();
        let m = Scale::Medium.experiment_config();
        let f = Scale::Full.experiment_config();
        assert!(q.models.nn_epochs <= m.models.nn_epochs);
        assert!(m.models.nn_epochs <= f.models.nn_epochs);
        assert_eq!(f.models.nn_epochs, 3000);
    }

    fn parse(args: &[&str]) -> Result<Scale, ScaleArgError> {
        Scale::from_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn scale_defaults_to_medium_and_accepts_each_name() {
        assert_eq!(parse(&[]), Ok(Scale::Medium));
        assert_eq!(parse(&["--scale", "quick"]), Ok(Scale::Quick));
        assert_eq!(parse(&["--scale", "medium"]), Ok(Scale::Medium));
        assert_eq!(parse(&["--scale", "full"]), Ok(Scale::Full));
        assert_eq!(
            parse(&["--scale", "full", "--scale", "quick"]),
            Ok(Scale::Quick)
        );
    }

    #[test]
    fn unknown_scale_is_a_typed_error() {
        assert_eq!(
            parse(&["--scale", "huge"]),
            Err(ScaleArgError::UnknownScale("huge".to_string()))
        );
    }

    #[test]
    fn missing_scale_value_is_a_typed_error() {
        assert_eq!(parse(&["--scale"]), Err(ScaleArgError::MissingValue));
    }

    #[test]
    fn any_other_argument_is_a_typed_error() {
        // A misspelt flag used to fall through to the ~1-min medium scale.
        assert_eq!(
            parse(&["--scal", "quick"]),
            Err(ScaleArgError::Unexpected("--scal".to_string()))
        );
        assert_eq!(
            parse(&["--scale", "quick", "extra"]),
            Err(ScaleArgError::Unexpected("extra".to_string()))
        );
        let msg = parse(&["--scale=quick"]).unwrap_err().to_string();
        assert!(msg.contains("usage: [--scale quick|medium|full]"), "{msg}");
    }
}

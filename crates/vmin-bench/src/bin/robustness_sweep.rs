//! Robustness sweep: interval coverage and length of the sanitized CQR
//! pipeline versus mixed corruption rate, 0% → 20%.
//!
//! For each rate the clean campaign is corrupted with every fault class
//! active (`CorruptionConfig::mixed`), repaired by the degradation policy,
//! refitted at α = 0.1, and the repaired dataset's empirical coverage and
//! mean interval length are reported next to the repair counts — the
//! dirty-silicon counterpart of Table III's clean-data rows.
//!
//! Shape expectations:
//! - coverage stays ≥ ~0.85 across the sweep (the conformal guarantee is
//!   re-established on the repaired data);
//! - interval length grows with the corruption rate (repair is not free —
//!   imputation and winsorization blur the features);
//! - the repair counts climb roughly linearly with the rate.
//!
//! Run: `cargo run --release -p vmin-bench --bin robustness_sweep [--scale quick|medium|full]`

#![forbid(unsafe_code)]

use vmin_bench::{die, Scale};
use vmin_conformal::IntervalReport;
use vmin_core::{DegradationPolicy, FeatureSet, PointModel, RegionMethod, VminPredictor};
use vmin_silicon::{Campaign, CorruptionConfig, CorruptionInjector};

fn main() {
    let scale = Scale::from_env_args();
    let spec = scale.dataset_spec();
    let cfg = scale.experiment_config();
    let alpha = cfg.alpha;
    eprintln!(
        "[robustness] scale {scale:?}: simulating {} chips…",
        spec.chip_count
    );
    let clean = Campaign::run(&spec, Scale::CAMPAIGN_SEED);
    let method = RegionMethod::Cqr(PointModel::Linear);
    let policy = DegradationPolicy::repair_default();

    println!(
        "Sanitized CQR under mixed corruption @ rp 0, 25 °C (α = {alpha})\n\
         {:>6} {:>7} {:>6} {:>8} {:>8} {:>8} {:>5} {:>9} {:>10}",
        "rate", "faults", "rows", "imputed", "clipped", "dropped", "fall", "coverage", "length mV"
    );
    for pct in [0usize, 5, 10, 15, 20] {
        let rate = pct as f64 / 100.0;
        let (campaign, ledger) = if rate == 0.0 {
            (clean.clone(), Default::default())
        } else {
            let injector = CorruptionInjector::new(
                CorruptionConfig::mixed(rate),
                Scale::CAMPAIGN_SEED ^ pct as u64,
            )
            .unwrap_or_else(|e| die(&format!("rate {rate}: {e}")));
            injector.corrupt(&clean)
        };
        let fit = VminPredictor::fit_sanitized(
            &campaign,
            0,
            1,
            FeatureSet::Both,
            &policy,
            method,
            alpha,
            cfg.cal_fraction.max(0.25),
            cfg.seed,
            &cfg.models,
        )
        .unwrap_or_else(|e| die(&format!("rate {rate}: {e}")));

        let ds = &fit.dataset;
        let mut report = IntervalReport::default();
        for (i, &truth) in ds.targets().iter().enumerate() {
            let iv = fit
                .predictor
                .interval(ds.sample(i))
                .unwrap_or_else(|e| die(&format!("rate {rate} chip {i}: {e}")));
            report.record(iv, truth);
        }
        println!(
            "{:>5}% {:>7} {:>6} {:>8} {:>8} {:>8} {:>5} {:>8.1}% {:>10.2}",
            pct,
            ledger.total(),
            ds.n_samples(),
            fit.log.imputed_cells,
            fit.log.clipped_cells,
            fit.log.dropped_columns.len(),
            if fit.log.monitor_fallback {
                "yes"
            } else {
                "no"
            },
            // 100·covered/n, not 100·coverage(): the two round apart for
            // some n (multiples of 80) at one decimal.
            100.0 * report.covered() as f64 / report.n() as f64,
            report.mean_length(),
        );
        if fit.log.monitor_fallback {
            if let Some(cost) = fit.log.fallback_length_cost_mv {
                println!("       ↳ parametric-only fallback, length cost {cost:+.1} mV");
            }
        }
    }
}

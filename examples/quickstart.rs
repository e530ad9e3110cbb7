//! Quickstart: simulate a burn-in campaign, fit a CQR CatBoost interval
//! predictor for time-0 SCAN Vmin, and screen chips against the min-spec.
//!
//! Run with: `cargo run --release --example quickstart`

use cqr_vmin::conformal::IntervalReport;
use cqr_vmin::core::{
    assemble_dataset, FeatureSet, ModelConfig, PointModel, RegionMethod, VminPredictor,
};
use cqr_vmin::data::train_test_split;
use cqr_vmin::silicon::{Campaign, DatasetSpec};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Simulate the data-collection campaign of §IV-A. `DatasetSpec::
    //    default()` is the paper's full setup (156 chips, 1800 parametric
    //    tests, 168 ROD + 10 CPD monitors); `small()` keeps this example
    //    snappy.
    let mut spec = DatasetSpec::small();
    spec.chip_count = 120;
    let campaign = Campaign::run(&spec, 42);
    println!(
        "simulated {} chips × {} read points; tester clock = {:.1} ps",
        campaign.chip_count(),
        campaign.read_points.len(),
        campaign.clock_period_ps
    );

    // 2. Assemble the supervised dataset: time-0 Vmin at 25 °C from
    //    parametric + on-chip features.
    let dataset = assemble_dataset(&campaign, 0, 1, FeatureSet::Both)?;
    println!(
        "dataset: {} chips × {} features",
        dataset.n_samples(),
        dataset.n_features()
    );

    // 3. Hold out a test set, then fit the paper's best method — CQR around
    //    CatBoost-style oblivious boosting — at 90% target coverage.
    let split = train_test_split(dataset.n_samples(), 0.75, 7);
    let train = dataset.subset_rows(&split.train)?;
    let test = dataset.subset_rows(&split.test)?;
    let predictor = VminPredictor::fit(
        &train,
        RegionMethod::Cqr(PointModel::CatBoost),
        0.1,  // α: 90% coverage target
        0.25, // 25% of training chips held for conformal calibration
        7,
        &ModelConfig::default(),
    )?;

    // 4. Predict intervals for unseen chips and screen against min-spec.
    let min_spec_mv = 700.0;
    let mut report = IntervalReport::default();
    let mut flagged = 0;
    println!("\n chip |        interval (mV)        | true Vmin | in? | spec risk");
    for i in 0..test.n_samples() {
        let iv = predictor.interval(test.sample(i))?;
        let y = test.targets()[i];
        report.record(iv, y);
        let inside = iv.contains(y);
        let risk = predictor.flags_spec_risk(test.sample(i), min_spec_mv)?;
        flagged += usize::from(risk);
        if i < 10 {
            println!(
                " {i:>4} | [{:>8.2}, {:>8.2}] w={:>5.1} | {y:>9.2} | {} | {}",
                iv.lo(),
                iv.hi(),
                iv.length(),
                if inside { "yes" } else { " NO" },
                if risk { "FLAG" } else { "ok" }
            );
        }
    }
    println!(
        "\ncoverage on held-out chips: {}/{} ({:.1}%), {} flagged vs min-spec {} mV",
        report.covered(),
        report.n(),
        100.0 * report.covered() as f64 / report.n() as f64,
        flagged,
        min_spec_mv
    );
    Ok(())
}

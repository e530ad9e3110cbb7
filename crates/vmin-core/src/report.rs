//! Plain-text table formatting matching the paper's artifacts.

use crate::experiment::FeatureSetSummary;
use crate::flow::{PointEval, RegionEval};
use crate::zoo::{PointModel, RegionMethod};
use vmin_silicon::Campaign;

/// Formats a Fig. 2-style table: R² per (model, temperature) for one read
/// point. `results[m][t]` corresponds to `models[m]`, temperature index `t`.
///
/// # Panics
///
/// Panics if `results` shape disagrees with `models` /
/// `campaign.temperatures`.
pub fn format_point_table(
    campaign: &Campaign,
    read_point: usize,
    models: &[PointModel],
    results: &[Vec<PointEval>],
) -> String {
    assert_eq!(models.len(), results.len(), "row count mismatch");
    let mut out = String::new();
    out.push_str(&format!(
        "SCAN Vmin point prediction @ {} (R² | RMSE mV)\n",
        campaign.read_points[read_point]
    ));
    out.push_str(&format!("{:<22}", "Model"));
    for t in &campaign.temperatures {
        out.push_str(&format!("{:>22}", format!("{t}")));
    }
    out.push('\n');
    for (model, row) in models.iter().zip(results) {
        assert_eq!(
            row.len(),
            campaign.temperatures.len(),
            "column count mismatch"
        );
        out.push_str(&format!("{:<22}", model.to_string()));
        for eval in row {
            out.push_str(&format!(
                "{:>22}",
                format!("{:>6.3} | {:5.2}", eval.r2, eval.rmse)
            ));
        }
        out.push('\n');
    }
    out
}

/// Formats one read-point block of Table III: length (mV) and coverage (%)
/// per (method, temperature).
///
/// # Panics
///
/// Panics if `results` shape disagrees with `methods` / temperatures.
pub fn format_region_table(
    campaign: &Campaign,
    read_point: usize,
    methods: &[RegionMethod],
    results: &[Vec<RegionEval>],
) -> String {
    assert_eq!(methods.len(), results.len(), "row count mismatch");
    let mut out = String::new();
    out.push_str(&format!(
        "Prediction intervals for SCAN Vmin @ {} (length mV | coverage %)\n",
        campaign.read_points[read_point]
    ));
    out.push_str(&format!("{:<26}", "Method"));
    for t in &campaign.temperatures {
        out.push_str(&format!("{:>22}", format!("{t}")));
    }
    out.push('\n');
    for (method, row) in methods.iter().zip(results) {
        assert_eq!(
            row.len(),
            campaign.temperatures.len(),
            "column count mismatch"
        );
        out.push_str(&format!("{:<26}", method.to_string()));
        for eval in row {
            out.push_str(&format!(
                "{:>22}",
                format!("{:>7.2} | {:5.1}", eval.mean_length, eval.coverage * 100.0)
            ));
        }
        out.push('\n');
    }
    out
}

/// Formats the Table IV summary with the on-chip monitor gain row.
pub fn format_feature_set_table(campaign: &Campaign, rows: &[FeatureSetSummary]) -> String {
    let mut out = String::new();
    out.push_str("Avg interval length (mV) across all stress read points\n");
    out.push_str(&format!("{:<26}", "Feature type"));
    for t in &campaign.temperatures {
        out.push_str(&format!("{:>12}", format!("{t}")));
    }
    out.push_str(&format!("{:>12}\n", "Average"));
    for r in rows {
        out.push_str(&format!("{:<26}", r.feature_set.to_string()));
        for v in &r.length_per_temp {
            out.push_str(&format!("{v:>12.2}"));
        }
        out.push_str(&format!("{:>12.2}\n", r.average_length));
    }
    // Gain row (paper: "On-chip monitor gain").
    if let (Some(p), Some(b)) = (
        rows.iter()
            .find(|r| matches!(r.feature_set, crate::scenario::FeatureSet::Parametric)),
        rows.iter()
            .find(|r| matches!(r.feature_set, crate::scenario::FeatureSet::Both)),
    ) {
        out.push_str(&format!("{:<26}", "On-chip monitor gain"));
        for (pv, bv) in p.length_per_temp.iter().zip(&b.length_per_temp) {
            out.push_str(&format!("{:>11.2}%", (pv - bv) / pv * 100.0));
        }
        out.push_str(&format!(
            "{:>11.2}%\n",
            (p.average_length - b.average_length) / p.average_length * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FeatureSet;
    use vmin_silicon::{Campaign, DatasetSpec};

    fn campaign() -> Campaign {
        Campaign::run(&DatasetSpec::small(), 2)
    }

    #[test]
    fn point_table_includes_all_cells() {
        let c = campaign();
        let models = [PointModel::Linear, PointModel::CatBoost];
        let results = vec![
            vec![
                PointEval {
                    r2: 0.9,
                    rmse: 3.0,
                    n_features: 5
                };
                c.temperatures.len()
            ];
            2
        ];
        let s = format_point_table(&c, 0, &models, &results);
        assert!(s.contains("Linear Regression"));
        assert!(s.contains("CatBoost"));
        assert!(s.contains("0.900"));
        assert!(s.contains("-45.0 °C"));
    }

    #[test]
    fn region_table_formats_percentages() {
        let c = campaign();
        let methods = [RegionMethod::Gp];
        let results = vec![vec![
            RegionEval {
                mean_length: 24.5,
                coverage: 0.916
            };
            c.temperatures.len()
        ]];
        let s = format_region_table(&c, 3, &methods, &results);
        assert!(s.contains("24.50"));
        assert!(s.contains("91.6"));
        assert!(s.contains("168 h"));
    }

    #[test]
    fn feature_table_computes_gain() {
        let c = campaign();
        let rows = vec![
            FeatureSetSummary {
                feature_set: FeatureSet::Parametric,
                length_per_temp: vec![30.0, 20.0, 10.0],
                average_length: 20.0,
            },
            FeatureSetSummary {
                feature_set: FeatureSet::Both,
                length_per_temp: vec![15.0, 10.0, 5.0],
                average_length: 10.0,
            },
        ];
        let s = format_feature_set_table(&c, &rows);
        assert!(s.contains("On-chip monitor gain"));
        assert!(s.contains("50.00%"), "gain should be 50%: {s}");
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn shape_mismatch_panics() {
        let c = campaign();
        format_point_table(&c, 0, &[PointModel::Linear], &[]);
    }
}

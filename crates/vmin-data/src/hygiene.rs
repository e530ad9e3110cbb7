//! Data-quality scanning and repair for dirty measurement tables.
//!
//! Real ATE exports arrive with dropped cells, stuck or dead sensors, spike
//! outliers, duplicated rows and right-censored targets. Conformal
//! calibration silently loses its 1−α guarantee on such data, so every
//! pipeline run first scans its dataset into a [`HygieneReport`] and then
//! applies the repair passes it needs:
//!
//! - [`drop_all_missing_columns`]: remove columns with no finite value
//!   (dead monitors) so imputation has something to impute from;
//! - [`impute_missing`]: per-column median imputation of NaN cells;
//! - [`winsorize`]: MAD-based clipping of spike outliers;
//! - [`quarantine_rows`]: remove rows that are outliers in too many
//!   columns (or have a non-finite target) rather than repair them;
//! - [`deduplicate`]: remove exact duplicate rows;
//! - [`exclude_censored`]: drop rows whose target sits at the measurement
//!   ceiling (bisection hit Vmax — the value is a lower bound, not a
//!   measurement, and poisons quantile calibration).
//!
//! Every pass returns a typed [`HygieneError`] instead of panicking, and
//! returns repaired *copies* — the input dataset is never mutated.

use crate::dataset::{Dataset, DatasetError};
use vmin_linalg::Matrix;

/// Scale factor turning a median absolute deviation into a consistent
/// estimate of a normal standard deviation.
const MAD_TO_SIGMA: f64 = 1.4826;

/// Typed failure of a hygiene pass. Never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum HygieneError {
    /// The dataset has no rows to repair.
    EmptyDataset,
    /// A column has no finite value, so imputation has no donor statistic.
    AllMissingColumn {
        /// Column index within the dataset.
        column: usize,
        /// Column name, for the log.
        name: String,
    },
    /// Every row was quarantined or excluded; nothing is left to fit on.
    AllRowsRemoved {
        /// Which pass removed the final row.
        pass: &'static str,
    },
    /// An inner dataset-construction failure (shape bookkeeping).
    Dataset(DatasetError),
}

impl std::fmt::Display for HygieneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HygieneError::EmptyDataset => write!(f, "dataset has no rows"),
            HygieneError::AllMissingColumn { column, name } => {
                write!(
                    f,
                    "column {column} ({name}) has no finite values to impute from"
                )
            }
            HygieneError::AllRowsRemoved { pass } => {
                write!(f, "hygiene pass '{pass}' removed every row")
            }
            HygieneError::Dataset(e) => write!(f, "dataset error during repair: {e}"),
        }
    }
}

impl std::error::Error for HygieneError {}

impl From<DatasetError> for HygieneError {
    fn from(e: DatasetError) -> Self {
        HygieneError::Dataset(e)
    }
}

/// What a hygiene scan found, before any repair.
#[derive(Debug, Clone, PartialEq)]
pub struct HygieneReport {
    /// Rows scanned.
    pub n_rows: usize,
    /// Columns scanned.
    pub n_cols: usize,
    /// Missing (non-finite) cell count per column.
    pub column_missing: Vec<usize>,
    /// MAD-outlier cell count per column (finite cells further than
    /// `outlier_k` scaled MADs from the column median).
    pub column_outliers: Vec<usize>,
    /// The `k` used for the outlier scan.
    pub outlier_k: f64,
    /// Number of rows that exactly duplicate an earlier row.
    pub duplicate_rows: usize,
    /// Rows whose target is non-finite.
    pub non_finite_targets: usize,
    /// Rows whose target sits at or above the censoring ceiling (when a
    /// ceiling was provided to the scan).
    pub censored_targets: usize,
}

impl HygieneReport {
    /// Scans `ds` without modifying it. `censor_ceiling_mv` is the
    /// measurement ceiling (targets at or above it count as censored);
    /// pass `None` when targets are not censorable.
    pub fn scan(ds: &Dataset, outlier_k: f64, censor_ceiling: Option<f64>) -> HygieneReport {
        let (n_rows, n_cols) = (ds.n_samples(), ds.n_features());
        let x = ds.features();
        let mut column_missing = vec![0usize; n_cols];
        let mut column_outliers = vec![0usize; n_cols];
        let mut col = Vec::with_capacity(n_rows);
        for j in 0..n_cols {
            x.copy_col_into(j, &mut col);
            column_missing[j] = col.iter().filter(|v| !v.is_finite()).count();
            if let Some((med, mad)) = median_and_mad(&col) {
                if mad > 0.0 {
                    let cut = outlier_k * mad * MAD_TO_SIGMA;
                    column_outliers[j] = col
                        .iter()
                        .filter(|v| v.is_finite() && (*v - med).abs() > cut)
                        .count();
                }
            }
        }
        let duplicate_rows = duplicate_row_indices(ds).len();
        let non_finite_targets = ds.targets().iter().filter(|t| !t.is_finite()).count();
        let censored_targets = match censor_ceiling {
            Some(ceiling) => ds
                .targets()
                .iter()
                .filter(|&&t| t.is_finite() && t >= ceiling - 1e-9)
                .count(),
            None => 0,
        };
        HygieneReport {
            n_rows,
            n_cols,
            column_missing,
            column_outliers,
            outlier_k,
            duplicate_rows,
            non_finite_targets,
            censored_targets,
        }
    }

    /// Total missing cells across all columns.
    pub fn total_missing(&self) -> usize {
        self.column_missing.iter().sum()
    }

    /// Total MAD-outlier cells across all columns.
    pub fn total_outliers(&self) -> usize {
        self.column_outliers.iter().sum()
    }

    /// True when the scan found nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.total_missing() == 0
            && self.total_outliers() == 0
            && self.duplicate_rows == 0
            && self.non_finite_targets == 0
            && self.censored_targets == 0
    }
}

/// Median and MAD of the finite entries, or `None` when there are none.
fn median_and_mad(values: &[f64]) -> Option<(f64, f64)> {
    let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    let med = median_in_place(&mut finite);
    let mut devs: Vec<f64> = finite.iter().map(|v| (v - med).abs()).collect();
    let mad = median_in_place(&mut devs);
    Some((med, mad))
}

/// Median of a non-empty slice (sorts in place).
fn median_in_place(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Indices of rows that exactly duplicate an earlier row (feature bits and
/// target bits both equal).
fn duplicate_row_indices(ds: &Dataset) -> Vec<usize> {
    use std::collections::HashSet;
    let mut seen: HashSet<Vec<u64>> = HashSet::with_capacity(ds.n_samples());
    let mut dups = Vec::new();
    for i in 0..ds.n_samples() {
        let mut key: Vec<u64> = ds.sample(i).iter().map(|v| v.to_bits()).collect();
        key.push(ds.targets()[i].to_bits());
        if !seen.insert(key) {
            dups.push(i);
        }
    }
    dups
}

/// Rebuilds a dataset keeping only `rows`; errors if `rows` is empty.
fn keep_rows(ds: &Dataset, rows: &[usize], pass: &'static str) -> Result<Dataset, HygieneError> {
    if rows.is_empty() {
        return Err(HygieneError::AllRowsRemoved { pass });
    }
    Ok(ds.subset_rows(rows)?)
}

/// Drops columns with no finite value (dead monitors), returning the
/// reduced dataset and the names of the dropped columns. A dataset whose
/// columns are all dead collapses to an error.
pub fn drop_all_missing_columns(ds: &Dataset) -> Result<(Dataset, Vec<String>), HygieneError> {
    if ds.n_samples() == 0 {
        return Err(HygieneError::EmptyDataset);
    }
    let x = ds.features();
    let mut keep = Vec::with_capacity(ds.n_features());
    let mut dropped = Vec::new();
    for j in 0..ds.n_features() {
        if x.col_iter(j).any(|v| v.is_finite()) {
            keep.push(j);
        } else {
            dropped.push(ds.names()[j].clone());
        }
    }
    if keep.is_empty() {
        return Err(HygieneError::AllMissingColumn {
            column: 0,
            name: ds.names().first().cloned().unwrap_or_default(),
        });
    }
    let reduced = ds.subset_columns(&keep)?;
    Ok((reduced, dropped))
}

/// Replaces every non-finite feature cell with its column median, returning
/// the repaired dataset and the number of imputed cells.
///
/// # Errors
///
/// [`HygieneError::AllMissingColumn`] if any column has no finite value —
/// call [`drop_all_missing_columns`] first to shed dead columns.
pub fn impute_missing(ds: &Dataset) -> Result<(Dataset, usize), HygieneError> {
    if ds.n_samples() == 0 {
        return Err(HygieneError::EmptyDataset);
    }
    let x = ds.features();
    let (rows, cols) = (ds.n_samples(), ds.n_features());
    let mut data = x.as_slice().to_vec();
    let mut imputed = 0usize;
    let mut col = Vec::with_capacity(rows);
    for j in 0..cols {
        x.copy_col_into(j, &mut col);
        if col.iter().all(|v| v.is_finite()) {
            continue;
        }
        let (med, _) = median_and_mad(&col).ok_or_else(|| HygieneError::AllMissingColumn {
            column: j,
            name: ds.names()[j].clone(),
        })?;
        for i in 0..rows {
            let idx = i * cols + j;
            if !data[idx].is_finite() {
                data[idx] = med;
                imputed += 1;
            }
        }
    }
    let repaired = Matrix::from_vec(rows, cols, data).map_err(|_| HygieneError::EmptyDataset)?;
    let out = Dataset::new(repaired, ds.targets().to_vec(), ds.names().to_vec())?;
    Ok((out, imputed))
}

/// Clips finite feature cells further than `k` scaled MADs from their
/// column median back to the clip boundary (MAD-based winsorization),
/// returning the repaired dataset and the number of clipped cells.
/// Columns with zero MAD (constant or near-constant) are left untouched.
pub fn winsorize(ds: &Dataset, k: f64) -> Result<(Dataset, usize), HygieneError> {
    if ds.n_samples() == 0 {
        return Err(HygieneError::EmptyDataset);
    }
    let x = ds.features();
    let (rows, cols) = (ds.n_samples(), ds.n_features());
    let mut data = x.as_slice().to_vec();
    let mut clipped = 0usize;
    let mut col = Vec::with_capacity(rows);
    for j in 0..cols {
        x.copy_col_into(j, &mut col);
        let Some((med, mad)) = median_and_mad(&col) else {
            continue; // all-NaN column: imputation's problem, not ours
        };
        if mad <= 0.0 {
            continue;
        }
        let cut = k * mad * MAD_TO_SIGMA;
        for i in 0..rows {
            let idx = i * cols + j;
            let v = data[idx];
            if v.is_finite() && (v - med).abs() > cut {
                data[idx] = med + (v - med).signum() * cut;
                clipped += 1;
            }
        }
    }
    let repaired = Matrix::from_vec(rows, cols, data).map_err(|_| HygieneError::EmptyDataset)?;
    let out = Dataset::new(repaired, ds.targets().to_vec(), ds.names().to_vec())?;
    Ok((out, clipped))
}

/// Removes rows that are MAD-outliers in more than `max_outlier_fraction`
/// of their columns, or whose target is non-finite. Returns the kept
/// dataset and the indices (in `ds`) of quarantined rows.
pub fn quarantine_rows(
    ds: &Dataset,
    k: f64,
    max_outlier_fraction: f64,
) -> Result<(Dataset, Vec<usize>), HygieneError> {
    if ds.n_samples() == 0 {
        return Err(HygieneError::EmptyDataset);
    }
    let x = ds.features();
    let (rows, cols) = (ds.n_samples(), ds.n_features());
    // Column statistics once.
    let mut col = Vec::with_capacity(rows);
    let stats: Vec<Option<(f64, f64)>> = (0..cols)
        .map(|j| {
            x.copy_col_into(j, &mut col);
            median_and_mad(&col)
        })
        .collect();
    let mut keep = Vec::with_capacity(rows);
    let mut quarantined = Vec::new();
    for i in 0..rows {
        if !ds.targets()[i].is_finite() {
            quarantined.push(i);
            continue;
        }
        let mut outlier_cells = 0usize;
        let mut scored_cells = 0usize;
        let row = ds.sample(i);
        for (j, &v) in row.iter().enumerate() {
            if let Some((med, mad)) = stats[j] {
                if mad > 0.0 && v.is_finite() {
                    scored_cells += 1;
                    if (v - med).abs() > k * mad * MAD_TO_SIGMA {
                        outlier_cells += 1;
                    }
                }
            }
        }
        let frac = if scored_cells == 0 {
            0.0
        } else {
            outlier_cells as f64 / scored_cells as f64
        };
        if frac > max_outlier_fraction {
            quarantined.push(i);
        } else {
            keep.push(i);
        }
    }
    let kept = keep_rows(ds, &keep, "quarantine_rows")?;
    Ok((kept, quarantined))
}

/// Removes exact duplicate rows (keeping the first occurrence), returning
/// the deduplicated dataset and how many rows were removed.
pub fn deduplicate(ds: &Dataset) -> Result<(Dataset, usize), HygieneError> {
    if ds.n_samples() == 0 {
        return Err(HygieneError::EmptyDataset);
    }
    let dups = duplicate_row_indices(ds);
    if dups.is_empty() {
        return Ok((ds.clone(), 0));
    }
    let dup_set: std::collections::HashSet<usize> = dups.iter().copied().collect();
    let keep: Vec<usize> = (0..ds.n_samples())
        .filter(|i| !dup_set.contains(i))
        .collect();
    let kept = keep_rows(ds, &keep, "deduplicate")?;
    Ok((kept, dups.len()))
}

/// Removes rows whose target sits at or above the censoring ceiling,
/// returning the reduced dataset and how many rows were censored away.
/// Censored Vmin is a lower bound, not a measurement; keeping such rows
/// biases quantile fits and contaminates conformal calibration.
pub fn exclude_censored(ds: &Dataset, ceiling: f64) -> Result<(Dataset, usize), HygieneError> {
    if ds.n_samples() == 0 {
        return Err(HygieneError::EmptyDataset);
    }
    let keep: Vec<usize> = (0..ds.n_samples())
        .filter(|&i| {
            let t = ds.targets()[i];
            !(t.is_finite() && t >= ceiling - 1e-9)
        })
        .collect();
    let removed = ds.n_samples() - keep.len();
    let kept = keep_rows(ds, &keep, "exclude_censored")?;
    Ok((kept, removed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(rows: &[Vec<f64>], y: &[f64]) -> Dataset {
        Dataset::with_default_names(Matrix::from_rows(rows).unwrap(), y.to_vec()).unwrap()
    }

    #[test]
    fn scan_counts_missing_and_outliers() {
        let ds = dataset(
            &[
                vec![1.0, f64::NAN],
                vec![2.0, 5.0],
                vec![3.0, 5.1],
                vec![2.5, 4.9],
                vec![1000.0, 5.0],
            ],
            &[1.0, 2.0, 3.0, 4.0, 5.0],
        );
        let rep = HygieneReport::scan(&ds, 6.0, None);
        assert_eq!(rep.column_missing, vec![0, 1]);
        assert_eq!(rep.total_missing(), 1);
        assert!(rep.column_outliers[0] >= 1, "1000.0 should flag as outlier");
        assert!(!rep.is_clean());
    }

    #[test]
    fn scan_counts_censored_and_duplicates() {
        let ds = dataset(
            &[vec![1.0], vec![2.0], vec![1.0], vec![3.0]],
            &[10.0, 900.0, 10.0, 900.0],
        );
        let rep = HygieneReport::scan(&ds, 6.0, Some(900.0));
        assert_eq!(rep.censored_targets, 2);
        assert_eq!(rep.duplicate_rows, 1); // row 2 duplicates row 0
    }

    #[test]
    fn impute_replaces_nan_with_median() {
        let ds = dataset(
            &[vec![1.0, 10.0], vec![f64::NAN, 20.0], vec![3.0, f64::NAN]],
            &[1.0, 2.0, 3.0],
        );
        let (fixed, n) = impute_missing(&ds).unwrap();
        assert_eq!(n, 2);
        assert_eq!(fixed.features()[(1, 0)], 2.0); // median of {1, 3}
        assert_eq!(fixed.features()[(2, 1)], 15.0); // median of {10, 20}
        assert!(fixed.features().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn impute_all_nan_column_is_typed_error() {
        let ds = dataset(&[vec![1.0, f64::NAN], vec![2.0, f64::NAN]], &[1.0, 2.0]);
        match impute_missing(&ds) {
            Err(HygieneError::AllMissingColumn { column: 1, .. }) => {}
            other => panic!("expected AllMissingColumn, got {other:?}"),
        }
    }

    #[test]
    fn drop_dead_columns_then_impute_succeeds() {
        let ds = dataset(
            &[vec![1.0, f64::NAN], vec![f64::NAN, f64::NAN]],
            &[1.0, 2.0],
        );
        let (reduced, dropped) = drop_all_missing_columns(&ds).unwrap();
        assert_eq!(reduced.n_features(), 1);
        assert_eq!(dropped.len(), 1);
        let (fixed, n) = impute_missing(&reduced).unwrap();
        assert_eq!(n, 1);
        assert!(fixed.features().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn winsorize_clips_spikes_only() {
        let ds = dataset(
            &[
                vec![10.0],
                vec![10.5],
                vec![9.5],
                vec![10.2],
                vec![9.8],
                vec![500.0],
            ],
            &[1.0; 6],
        );
        let (fixed, n) = winsorize(&ds, 6.0).unwrap();
        assert_eq!(n, 1);
        let clipped = fixed.features()[(5, 0)];
        assert!(clipped < 500.0 && clipped > 9.0, "clipped to {clipped}");
        // Inliers untouched.
        assert_eq!(fixed.features()[(0, 0)], 10.0);
    }

    #[test]
    fn quarantine_removes_gross_rows_and_bad_targets() {
        let mut rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 50.0 + i as f64]).collect();
        rows.push(vec![1e6, 1e6]); // gross outlier row
        let mut y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        y.push(5.0);
        let mut y_bad = y.clone();
        y_bad[0] = f64::NAN;
        let ds = dataset(&rows, &y_bad);
        let (kept, quarantined) = quarantine_rows(&ds, 6.0, 0.5).unwrap();
        assert!(quarantined.contains(&0), "NaN target row quarantined");
        assert!(quarantined.contains(&10), "outlier row quarantined");
        assert_eq!(kept.n_samples(), ds.n_samples() - quarantined.len());
    }

    #[test]
    fn deduplicate_keeps_first() {
        let ds = dataset(
            &[vec![1.0], vec![2.0], vec![1.0], vec![1.0]],
            &[7.0, 8.0, 7.0, 7.0],
        );
        let (kept, removed) = deduplicate(&ds).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(kept.n_samples(), 2);
        assert_eq!(kept.targets(), &[7.0, 8.0]);
    }

    #[test]
    fn exclude_censored_drops_ceiling_rows() {
        let ds = dataset(&[vec![1.0], vec![2.0], vec![3.0]], &[600.0, 900.0, 650.0]);
        let (kept, removed) = exclude_censored(&ds, 900.0).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(kept.targets(), &[600.0, 650.0]);
    }

    #[test]
    fn exclude_censored_everything_is_typed_error() {
        let ds = dataset(&[vec![1.0], vec![2.0]], &[900.0, 901.0]);
        match exclude_censored(&ds, 900.0) {
            Err(HygieneError::AllRowsRemoved { .. }) => {}
            other => panic!("expected AllRowsRemoved, got {other:?}"),
        }
    }

    #[test]
    fn clean_data_passes_through_unchanged() {
        let ds = dataset(
            &[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            &[1.0, 2.0, 3.0],
        );
        let rep = HygieneReport::scan(&ds, 6.0, Some(900.0));
        assert!(rep.is_clean());
        let (after_impute, n_imputed) = impute_missing(&ds).unwrap();
        let (after_dedup, n_dups) = deduplicate(&after_impute).unwrap();
        assert_eq!(n_imputed, 0);
        assert_eq!(n_dups, 0);
        assert_eq!(after_dedup.features(), ds.features());
        assert_eq!(after_dedup.targets(), ds.targets());
    }
}

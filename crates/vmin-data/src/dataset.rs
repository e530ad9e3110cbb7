//! The `Dataset` container: a feature matrix, a target vector and feature
//! names, with the slicing operations cross-validation needs.

use std::error::Error;
use std::fmt;
use vmin_linalg::Matrix;

/// Error produced by dataset operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Feature matrix and target vector disagree on the number of samples,
    /// or names disagree with the number of columns.
    ShapeMismatch(String),
    /// An index was out of range.
    IndexOutOfRange(String),
    /// The operation needs more samples/features than the dataset has.
    TooSmall(String),
    /// A value failed a domain check (non-finite mean, non-positive scale).
    InvalidValue(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            DatasetError::IndexOutOfRange(m) => write!(f, "index out of range: {m}"),
            DatasetError::TooSmall(m) => write!(f, "dataset too small: {m}"),
            DatasetError::InvalidValue(m) => write!(f, "invalid value: {m}"),
        }
    }
}

impl Error for DatasetError {}

/// A supervised-learning dataset: `n` samples × `d` features plus `n`
/// targets.
///
/// # Examples
///
/// ```
/// use vmin_data::Dataset;
/// use vmin_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let ds = Dataset::new(x, vec![10.0, 20.0], vec!["a".into(), "b".into()])?;
/// assert_eq!(ds.n_samples(), 2);
/// assert_eq!(ds.n_features(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Matrix,
    targets: Vec<f64>,
    names: Vec<String>,
}

impl Dataset {
    /// Builds a dataset, validating shapes.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::ShapeMismatch`] when `targets.len()` differs
    /// from the number of feature rows or `names.len()` differs from the
    /// number of feature columns.
    pub fn new(
        features: Matrix,
        targets: Vec<f64>,
        names: Vec<String>,
    ) -> Result<Self, DatasetError> {
        if features.rows() != targets.len() {
            return Err(DatasetError::ShapeMismatch(format!(
                "{} feature rows vs {} targets",
                features.rows(),
                targets.len()
            )));
        }
        if features.cols() != names.len() {
            return Err(DatasetError::ShapeMismatch(format!(
                "{} feature columns vs {} names",
                features.cols(),
                names.len()
            )));
        }
        Ok(Dataset {
            features,
            targets,
            names,
        })
    }

    /// Builds a dataset with autogenerated names `f000`, `f001`, ….
    ///
    /// # Errors
    ///
    /// Same as [`Dataset::new`].
    pub fn with_default_names(features: Matrix, targets: Vec<f64>) -> Result<Self, DatasetError> {
        let names = (0..features.cols()).map(|j| format!("f{j:03}")).collect();
        Dataset::new(features, targets, names)
    }

    /// Number of samples (rows).
    pub fn n_samples(&self) -> usize {
        self.features.rows()
    }

    /// Number of features (columns).
    pub fn n_features(&self) -> usize {
        self.features.cols()
    }

    /// Borrow of the feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Borrow of the targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Borrow of the feature names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// One sample's feature row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sample(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    /// A new dataset containing only the given rows, in order.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfRange`] if any index is invalid.
    pub fn subset_rows(&self, idx: &[usize]) -> Result<Dataset, DatasetError> {
        let features = self
            .features
            .select_rows(idx)
            .map_err(|e| DatasetError::IndexOutOfRange(e.to_string()))?;
        let targets = idx.iter().map(|&i| self.targets[i]).collect();
        Ok(Dataset {
            features,
            targets,
            names: self.names.clone(),
        })
    }

    /// A new dataset containing only the given feature columns, in order.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfRange`] if any index is invalid.
    pub fn subset_columns(&self, idx: &[usize]) -> Result<Dataset, DatasetError> {
        let features = self
            .features
            .select_columns(idx)
            .map_err(|e| DatasetError::IndexOutOfRange(e.to_string()))?;
        let names = idx.iter().map(|&j| self.names[j].clone()).collect();
        Ok(Dataset {
            features,
            targets: self.targets.clone(),
            names,
        })
    }

    /// Consumes the dataset, returning `(features, targets, names)`.
    pub fn into_parts(self) -> (Matrix, Vec<f64>, Vec<String>) {
        (self.features, self.targets, self.names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        let x = Matrix::from_rows(&[
            vec![1.0, 10.0, 100.0],
            vec![2.0, 20.0, 200.0],
            vec![3.0, 30.0, 300.0],
            vec![4.0, 40.0, 400.0],
        ])
        .unwrap();
        Dataset::new(
            x,
            vec![1.0, 2.0, 3.0, 4.0],
            vec!["a".into(), "b".into(), "c".into()],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        let x = Matrix::zeros(3, 2);
        assert!(matches!(
            Dataset::new(x.clone(), vec![1.0], vec!["a".into(), "b".into()]),
            Err(DatasetError::ShapeMismatch(_))
        ));
        assert!(matches!(
            Dataset::new(x, vec![1.0, 2.0, 3.0], vec!["a".into()]),
            Err(DatasetError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn default_names_are_generated() {
        let x = Matrix::zeros(2, 3);
        let d = Dataset::with_default_names(x, vec![0.0, 0.0]).unwrap();
        assert_eq!(d.names(), &["f000", "f001", "f002"]);
    }

    #[test]
    fn subset_rows_keeps_alignment() {
        let d = ds();
        let s = d.subset_rows(&[2, 0]).unwrap();
        assert_eq!(s.n_samples(), 2);
        assert_eq!(s.sample(0), &[3.0, 30.0, 300.0]);
        assert_eq!(s.targets(), &[3.0, 1.0]);
        assert_eq!(s.names(), d.names());
        assert!(d.subset_rows(&[9]).is_err());
    }

    #[test]
    fn subset_columns_keeps_names() {
        let d = ds();
        let s = d.subset_columns(&[2, 0]).unwrap();
        assert_eq!(s.n_features(), 2);
        assert_eq!(s.names(), &["c", "a"]);
        assert_eq!(s.sample(1), &[200.0, 2.0]);
        assert_eq!(s.targets(), d.targets());
        assert!(d.subset_columns(&[5]).is_err());
    }

    #[test]
    fn into_parts_roundtrip() {
        let d = ds();
        let (x, y, names) = d.clone().into_parts();
        let back = Dataset::new(x, y, names).unwrap();
        assert_eq!(back, d);
    }
}

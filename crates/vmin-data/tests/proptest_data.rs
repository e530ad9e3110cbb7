//! Property-style tests for dataset handling, splits, standardization and
//! metrics, driven by a seeded in-tree generator so the suite is hermetic
//! and reproducible. `heavy-tests` multiplies the case counts.

use vmin_data::{
    cfs_select, r_squared, rmse, train_test_split, Dataset, KFold, Standardizer, TargetScaler,
};
use vmin_linalg::Matrix;
use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};

fn cases() -> usize {
    if cfg!(feature = "heavy-tests") {
        512
    } else {
        64
    }
}

fn rand_matrix(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.gen_range(-100.0..100.0))
        .collect();
    Matrix::from_vec(rows, cols, data).expect("shape")
}

/// Any train/test split partitions 0..n exactly.
#[test]
fn split_partitions() {
    let mut rng = ChaCha8Rng::seed_from_u64(301);
    for _ in 0..cases() {
        let n = rng.gen_range(2..200usize);
        let frac = rng.gen_range(0.05..0.95);
        let seed = rng.gen_range(0..100u64);
        let s = train_test_split(n, frac, seed);
        let mut all: Vec<usize> = s.train.iter().chain(&s.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
        assert!(!s.train.is_empty() && !s.test.is_empty());
    }
}

/// K-fold test folds are disjoint and exhaustive.
#[test]
fn kfold_partitions() {
    let mut rng = ChaCha8Rng::seed_from_u64(302);
    for _ in 0..cases() {
        let n = rng.gen_range(8..150usize);
        let k = rng.gen_range(2..6usize).min(n);
        let seed = rng.gen_range(0..50u64);
        let kf = KFold::new(n, k, seed);
        let mut seen = vec![false; n];
        for i in 0..k {
            for &t in &kf.split(i).test {
                assert!(!seen[t], "index {t} in two folds");
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }
}

/// Standardize → inverse-standardize is the identity.
#[test]
fn standardizer_roundtrip() {
    let mut rng = ChaCha8Rng::seed_from_u64(303);
    for _ in 0..cases() {
        let m = rand_matrix(&mut rng, 8, 4);
        let s = Standardizer::fit(&m);
        let z = s.transform(&m).unwrap();
        let back = s.inverse_transform(&z).unwrap();
        assert!((&back - &m).max_abs() < 1e-9);
    }
}

/// Standardized training columns have |mean| ≈ 0.
#[test]
fn standardizer_centers() {
    let mut rng = ChaCha8Rng::seed_from_u64(304);
    for _ in 0..cases() {
        let m = rand_matrix(&mut rng, 10, 3);
        let s = Standardizer::fit(&m);
        let z = s.transform(&m).unwrap();
        for j in 0..3 {
            let col = z.col(j);
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-9);
        }
    }
}

/// Target scaler round-trips.
#[test]
fn target_scaler_roundtrip() {
    let mut rng = ChaCha8Rng::seed_from_u64(305);
    for _ in 0..cases() {
        let n = rng.gen_range(3..40usize);
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-500.0..500.0)).collect();
        let t = TargetScaler::fit(&y);
        let back = t.inverse(&t.transform(&y));
        for (a, b) in y.iter().zip(&back) {
            assert!((a - b).abs() < 1e-8);
        }
    }
}

/// R² of the exact predictions is 1; RMSE is 0.
#[test]
fn perfect_prediction_metrics() {
    let mut rng = ChaCha8Rng::seed_from_u64(306);
    for _ in 0..cases() {
        let n = rng.gen_range(2..30usize);
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
        assert!((r_squared(&y, &y) - 1.0).abs() < 1e-12);
        assert_eq!(rmse(&y, &y), 0.0);
    }
}

/// Dataset row subsetting preserves feature/target alignment.
#[test]
fn subset_alignment() {
    let mut rng = ChaCha8Rng::seed_from_u64(309);
    for _ in 0..cases() {
        let m = rand_matrix(&mut rng, 12, 3);
        let n_pick = rng.gen_range(1..12usize);
        let pick: Vec<usize> = (0..n_pick).map(|_| rng.gen_range(0..12usize)).collect();
        let y: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let ds = Dataset::with_default_names(m.clone(), y).unwrap();
        let sub = ds.subset_rows(&pick).unwrap();
        for (out_i, &src) in pick.iter().enumerate() {
            assert_eq!(sub.targets()[out_i], src as f64);
            assert_eq!(sub.sample(out_i), m.row(src));
        }
    }
}

/// CFS always returns at least one in-range feature.
#[test]
fn cfs_returns_valid_indices() {
    let mut rng = ChaCha8Rng::seed_from_u64(310);
    for _ in 0..cases() {
        let m = rand_matrix(&mut rng, 20, 6);
        let y: Vec<f64> = (0..20).map(|i| m[(i, 0)] * 2.0 + 1.0).collect();
        let sel = cfs_select(&m, &y, 4, 6);
        assert!(!sel.selected.is_empty());
        assert!(sel.selected.iter().all(|&j| j < 6));
        // No duplicates.
        let mut s = sel.selected.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), sel.selected.len());
    }
}

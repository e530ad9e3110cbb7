//! Property-style tests on the conformal machinery — most importantly a
//! randomized check of the finite-sample coverage guarantee itself.
//!
//! Seeded in-tree randomness replaces the old proptest strategies so the
//! suite runs hermetically offline; `heavy-tests` multiplies case counts.

use vmin_conformal::{
    conformal_quantile, evaluate_intervals, min_calibration_size, PredictionInterval,
};
use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};

fn cases() -> usize {
    if cfg!(feature = "heavy-tests") {
        512
    } else {
        64
    }
}

fn rand_scores(rng: &mut ChaCha8Rng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// The conformal quantile is at least as large as ⌈(M+1)(1−α)⌉/(M+1) of
/// the empirical mass: at least `rank` of the M scores lie at or below it.
#[test]
fn conformal_quantile_rank_property() {
    let mut rng = ChaCha8Rng::seed_from_u64(201);
    for _ in 0..cases() {
        let m = rng.gen_range(1..80usize);
        let scores = rand_scores(&mut rng, m, -100.0, 100.0);
        let alpha = rng.gen_range(0.05..0.5);
        let q = conformal_quantile(&scores, alpha).unwrap();
        let rank = ((m as f64 + 1.0) * (1.0 - alpha)).ceil() as usize;
        if rank > m {
            assert!(q.is_infinite());
        } else {
            let at_or_below = scores.iter().filter(|&&s| s <= q).count();
            assert!(
                at_or_below >= rank,
                "rank {rank} of {m} not reached: {at_or_below} at or below {q}"
            );
        }
    }
}

/// Monotone in α: smaller miscoverage → larger (or equal) threshold.
#[test]
fn conformal_quantile_monotone() {
    let mut rng = ChaCha8Rng::seed_from_u64(202);
    for _ in 0..cases() {
        let m = rng.gen_range(5..60usize);
        let scores = rand_scores(&mut rng, m, -10.0, 10.0);
        let a1 = rng.gen_range(0.05..0.45);
        let da = rng.gen_range(0.01..0.4);
        let q_small_alpha = conformal_quantile(&scores, a1).unwrap();
        let q_large_alpha = conformal_quantile(&scores, a1 + da).unwrap();
        assert!(q_small_alpha >= q_large_alpha);
    }
}

/// min_calibration_size is exactly the threshold of finiteness.
#[test]
fn min_calibration_size_is_tight() {
    let mut rng = ChaCha8Rng::seed_from_u64(203);
    for _ in 0..cases() {
        let alpha = rng.gen_range(0.02..0.5);
        let m = min_calibration_size(alpha);
        let scores: Vec<f64> = (0..m).map(|i| i as f64).collect();
        assert!(conformal_quantile(&scores, alpha).unwrap().is_finite());
        if m > 1 {
            let fewer: Vec<f64> = (0..m - 1).map(|i| i as f64).collect();
            assert!(conformal_quantile(&fewer, alpha).unwrap().is_infinite());
        }
    }
}

/// Interval constructor normalizes ordering and containment is consistent
/// with the endpoints.
#[test]
fn interval_invariants() {
    let mut rng = ChaCha8Rng::seed_from_u64(204);
    for _ in 0..cases() {
        let a = rng.gen_range(-50.0..50.0);
        let b = rng.gen_range(-50.0..50.0);
        let y = rng.gen_range(-60.0..60.0);
        let iv = PredictionInterval::new(a, b);
        assert!(iv.lo() <= iv.hi());
        assert!(iv.length() >= 0.0);
        assert_eq!(iv.contains(y), y >= iv.lo() && y <= iv.hi());
        assert!(iv.contains(iv.midpoint()));
    }
}

/// Intervals centred on their targets all cover, and their mean length is
/// twice the half-width.
#[test]
fn interval_metric_bounds() {
    let mut rng = ChaCha8Rng::seed_from_u64(307);
    for _ in 0..cases() {
        let n = rng.gen_range(1..30usize);
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let half = rng.gen_range(0.0..5.0);
        let ivs: Vec<PredictionInterval> = y
            .iter()
            .map(|v| PredictionInterval::new(v - half, v + half))
            .collect();
        let report = evaluate_intervals(&ivs, &y).unwrap();
        assert_eq!(report.coverage(), 1.0);
        assert!((report.mean_length() - 2.0 * half).abs() < 1e-9);
    }
}

/// Randomized statistical check of the split-CP guarantee on i.i.d. scores:
/// the fraction of fresh scores at or below the conformal quantile is at
/// least 1 − α on average. This is the Table I "coverage guarantee" row as
/// a property test.
#[test]
fn coverage_guarantee_statistical() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    for &alpha in &[0.1, 0.2, 0.3] {
        let reps = 600;
        let mut covered = 0usize;
        let mut total = 0usize;
        for _ in 0..reps {
            // Arbitrary (here: exponential-ish) i.i.d. score distribution —
            // the guarantee is distribution-free.
            let cal: Vec<f64> = (0..40).map(|_| -(1.0 - rng.gen::<f64>()).ln()).collect();
            let q = conformal_quantile(&cal, alpha).unwrap();
            for _ in 0..20 {
                let s = -(1.0 - rng.gen::<f64>()).ln();
                covered += usize::from(s <= q);
                total += 1;
            }
        }
        let cov = covered as f64 / total as f64;
        assert!(
            cov >= 1.0 - alpha - 0.02,
            "α={alpha}: empirical coverage {cov} below guarantee"
        );
    }
}

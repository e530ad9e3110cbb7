//! Random-sampling helpers on top of `rand`'s core traits.
//!
//! The offline `rand` crate ships without `rand_distr`, so the Gaussian and
//! log-normal draws the process models need are implemented here via
//! Box–Muller.

use vmin_rng::Rng;

/// Draws one standard-normal variate using the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use vmin_rng::SeedableRng;
/// let mut rng = vmin_rng::ChaCha8Rng::seed_from_u64(7);
/// let z = vmin_silicon::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Open interval (0, 1] for u1 to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Advances `rng` past one [`standard_normal`] draw without transforming
/// it.
///
/// Contract: consumes exactly the words `standard_normal` consumes, two
/// `gen::<f64>()`, so every later draw from `rng` is the same as after
/// the transformed draw. Campaigns that never read a quantity use this to
/// skip its `ln`, `sqrt` and `cos` while keeping the stream in place.
pub(crate) fn skip_normal<R: Rng + ?Sized>(rng: &mut R) {
    let _: f64 = rng.gen();
    let _: f64 = rng.gen();
}

/// Draws a normal variate with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Draws a log-normal variate `exp(N(mu_log, sigma_log))`.
///
/// With `mu_log = 0` the median is exactly 1.0, which is how the simulator
/// parameterizes multiplicative process factors.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu_log: f64, sigma_log: f64) -> f64 {
    normal(rng, mu_log, sigma_log).exp()
}

/// Draws a normal variate truncated to `[lo, hi]` by rejection (falls back to
/// clamping after 64 rejections, which only occurs for pathological bounds).
pub fn truncated_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo < hi);
    for _ in 0..64 {
        let x = normal(rng, mean, sd);
        if x >= lo && x <= hi {
            return x;
        }
    }
    normal(rng, mean, sd).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.03, "variance {var} too far from 1");
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05);
    }

    #[test]
    fn lognormal_median_is_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| lognormal(&mut rng, 0.0, 0.5)).collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        let median = xs[n / 2];
        assert!((median - 1.0).abs() < 0.03, "median {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..2000 {
            let x = truncated_normal(&mut rng, 0.0, 1.0, -0.5, 0.5);
            assert!((-0.5..=0.5).contains(&x));
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }
}

//! Order statistics for request latencies.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples above it, each with the
//! sample count it rests on. Percentiles use the nearest-rank rule, so a
//! reported value is always one that was measured.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentiles considered for the tail, ascending, in hundredths of
/// a percent so ranks are exact integers.
const LADDER: [u64; 4] = [9000, 9900, 9990, 9999];

/// One percentile of a sample, with the count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Percentile rank in `[0, 100]`.
    pub pct: f64,
    /// The sample value at that rank.
    pub value: f64,
    /// Number of samples the percentile was taken from.
    pub samples: usize,
}

/// Median of `values`: the middle sample, or the mean of the two middle
/// samples for an even count. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    let upper = *sorted.get(n / 2)?;
    if n % 2 == 1 {
        return Some(upper);
    }
    Some((sorted[n / 2 - 1] + upper) / 2.0)
}

/// Median of the per-stratum medians, where sample `i` belongs to
/// stratum `i % strata`. A rotation of unlike requests (six read points of
/// different cost) makes a pooled median fall between two strata and jump
/// with their extremes; the median of stratum medians does not. With one
/// stratum it is the plain median.
pub fn stratified_median(values: &[f64], strata: usize) -> Option<f64> {
    let strata = strata.max(1);
    let medians: Vec<f64> = (0..strata)
        .filter_map(|k| {
            let stratum: Vec<f64> = values.iter().skip(k).step_by(strata).copied().collect();
            median(&stratum)
        })
        .collect();
    median(&medians)
}

/// The median as a [`Quantile`] at rank 50.
pub fn p50(values: &[f64]) -> Option<Quantile> {
    Some(Quantile {
        pct: 50.0,
        value: median(values)?,
        samples: values.len(),
    })
}

/// Nearest-rank percentile of `values` at `hundredths` of a percent
/// (9000 is p90), provided at least [`TAIL_MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(values: &[f64], hundredths: u64) -> Option<Quantile> {
    let sorted = sorted(values);
    let rank = nearest_rank(sorted.len(), hundredths)?;
    if sorted.len() - rank < TAIL_MIN_BEYOND {
        return None;
    }
    Some(Quantile {
        pct: hundredths as f64 / 100.0,
        value: sorted[rank - 1],
        samples: sorted.len(),
    })
}

/// The highest percentile of the ladder (p90, p99, p99.9, p99.99) that
/// has at least [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(values: &[f64]) -> Option<Quantile> {
    LADDER.iter().rev().find_map(|&h| percentile(values, h))
}

/// 1-based nearest rank `ceil(hundredths / 10000 · n)`, at least 1.
fn nearest_rank(n: usize, hundredths: u64) -> Option<usize> {
    if n == 0 || hundredths > 10_000 {
        return None;
    }
    let n64 = u64::try_from(n).ok()?;
    let rank = (hundredths.checked_mul(n64)?).div_ceil(10_000).max(1);
    usize::try_from(rank).ok()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending on purpose: the statistics must not rely on input order.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let q = p50(&ramp(6)).unwrap();
        assert_eq!((q.pct, q.value, q.samples), (50.0, 3.5, 6));
    }

    #[test]
    fn stratified_median_ignores_the_extremes_of_neighbouring_strata() {
        assert_eq!(stratified_median(&ramp(7), 1), median(&ramp(7)));
        // Three rotations over four request kinds of rising cost.
        let a = [
            10.0, 20.0, 30.0, 40.0, 10.0, 22.0, 28.0, 40.0, 10.0, 18.0, 32.0, 40.0,
        ];
        assert_eq!(median(&a), Some(25.0));
        assert_eq!(stratified_median(&a, 4), Some(25.0));
        // One slow kind-1 request meets kind 2 in the middle of the pooled
        // sample and moves its median; no stratum median moves.
        let b = [
            10.0, 20.0, 30.0, 40.0, 10.0, 27.0, 28.0, 40.0, 10.0, 18.0, 32.0, 40.0,
        ];
        assert_eq!(median(&b), Some(27.5));
        assert_eq!(stratified_median(&b, 4), Some(25.0));
        assert_eq!(stratified_median(&[], 6), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 99 samples: p90 has rank 90 and nine beyond it — not reportable.
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(percentile(&ramp(99), 9000), None);
        // 100 samples: p90 is the 90th value with exactly ten beyond.
        let q = tail(&ramp(100)).unwrap();
        assert_eq!((q.pct, q.value, q.samples), (90.0, 90.0, 100));
        // 1000 samples: p99 has ten beyond, p99.9 only one.
        let q = tail(&ramp(1000)).unwrap();
        assert_eq!((q.pct, q.value, q.samples), (99.0, 990.0, 1000));
        // 10 000 samples: p99.9 is the highest with ten beyond.
        let q = tail(&ramp(10_000)).unwrap();
        assert_eq!((q.pct, q.value, q.samples), (99.9, 9990.0, 10_000));
    }

    #[test]
    fn nearest_rank_rounds_up_and_rejects_bad_input() {
        assert_eq!(nearest_rank(10, 5000), Some(5));
        assert_eq!(nearest_rank(10, 5100), Some(6));
        assert_eq!(nearest_rank(10, 0), Some(1));
        assert_eq!(nearest_rank(10, 10_000), Some(10));
        assert_eq!(nearest_rank(0, 5000), None);
        assert_eq!(nearest_rank(10, 10_100), None);
    }
}

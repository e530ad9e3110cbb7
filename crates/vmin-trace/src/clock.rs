//! The workspace's single sanctioned monotonic clock.
//!
//! The `vmin-lint` `det-wall-clock` rule denies `std::time::Instant` and
//! `SystemTime` in **every** crate except this one: wall-clock state in
//! numeric code silently breaks the bit-identical determinism contract,
//! and even non-numeric code (the CLI bins, the `perfbench` package) must take
//! their time from here so the carve-out stays auditable in one place.
//!
//! Nothing returned by this module may feed a numeric decision: ticks are
//! for timers and benchmark reports only. Span timers recorded through
//! [`crate::span`] land in the timer section of a snapshot, which every
//! determinism check explicitly exempts.

use std::time::{Duration, Instant};

/// An opaque monotonic timestamp.
#[derive(Debug, Clone, Copy)]
pub struct Tick(Instant);

/// The current monotonic time.
pub fn now() -> Tick {
    Tick(Instant::now())
}

impl Tick {
    /// Monotonic time elapsed since this tick was taken.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed nanoseconds, saturated into `u64` (≈ 584 years).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotone() {
        let t0 = now();
        let busy: u64 = (0..1000u64).map(std::hint::black_box).sum();
        assert_eq!(busy, 499_500);
        let d1 = t0.elapsed();
        let d2 = t0.elapsed();
        assert!(d2 >= d1);
        assert!(t0.elapsed_ns() >= d2.as_nanos() as u64);
    }
}

//! # vmin-rng
//!
//! Self-contained deterministic pseudo-randomness for the `cqr-vmin`
//! workspace. The workspace must build hermetically with no network access,
//! so instead of the `rand`/`rand_chacha` registry crates it carries this
//! small in-tree substrate exposing the same API surface the codebase uses:
//!
//! - [`RngCore`] / [`Rng`] / [`SeedableRng`]: the core trait trio.
//!   [`Rng`] provides [`Rng::gen`], [`Rng::gen_range`] and
//!   [`Rng::gen_bool`] over any `RngCore`.
//! - [`ChaCha8Rng`]: an 8-round ChaCha stream cipher used as the
//!   workspace-wide deterministic generator (drop-in for
//!   `vmin_rng::ChaCha8Rng` call sites).
//! - [`SplitMix64`]: the seeding stream used by
//!   [`SeedableRng::seed_from_u64`] (and a valid tiny generator itself).
//! - [`seq::SliceRandom`]: Fisher–Yates [`seq::SliceRandom::shuffle`] and
//!   [`seq::SliceRandom::choose`] on slices.
//!
//! Determinism is the contract: for a fixed seed every generator produces
//! an identical stream on every platform (all arithmetic is integer or
//! exactly-rounded f64), which is what makes campaigns, splits and
//! corruption injection reproducible.
//!
//! ## Example
//!
//! ```
//! use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let u: f64 = rng.gen();            // uniform [0, 1)
//! let k = rng.gen_range(0..10usize); // uniform integer
//! assert!((0.0..1.0).contains(&u));
//! assert!(k < 10);
//!
//! // Same seed, same stream.
//! let mut a = ChaCha8Rng::seed_from_u64(42);
//! let mut b = ChaCha8Rng::seed_from_u64(42);
//! assert_eq!(a.gen::<f64>(), b.gen::<f64>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chacha;
mod range;
pub mod seq;
mod splitmix;

pub use chacha::ChaCha8Rng;
pub use range::{SampleRange, SampleUniform};
pub use splitmix::SplitMix64;

/// The minimal generator interface: raw 32/64-bit words and byte fills.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types sampleable uniformly from a generator's raw bits via
/// [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform on `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform on `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u32() & 1 == 1
    }
}

/// High-level sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from its standard distribution
    /// (`f64`/`f32`: uniform `[0, 1)`; integers: full range).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from `range` (half-open `lo..hi` or inclusive
    /// `lo..=hi`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform, B: SampleRange<T>>(&mut self, range: B) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p={p} outside [0, 1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The raw seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed through [`SplitMix64`] — the
    /// conventional low-friction seeding used across the workspace.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64::new(state);
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_standard_is_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn seed_from_u64_is_deterministic_and_seed_sensitive() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        let mut c = ChaCha8Rng::seed_from_u64(6);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn fill_bytes_handles_unaligned_lengths() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for len in [0usize, 1, 7, 8, 9, 31] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} all zero");
            }
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "gen_bool(0.3) gave {frac}");
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
    }

    #[test]
    fn works_through_unsized_rng_bounds() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!((0.0..1.0).contains(&draw(&mut rng)));
    }
}

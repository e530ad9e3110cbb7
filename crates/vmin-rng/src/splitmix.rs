//! SplitMix64: the seed-expansion stream.

use crate::{RngCore, SeedableRng};

/// The SplitMix64 generator of Steele, Lea and Flood.
///
/// Primarily the seed-expansion stream behind
/// [`SeedableRng::seed_from_u64`], but a valid (if statistically modest)
/// generator in its own right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a raw 64-bit state.
    pub fn new(state: u64) -> Self {
        SplitMix64 { state }
    }
}

impl RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: [u8; 8]) -> Self {
        SplitMix64::new(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vector() {
        // First output for seed 0 from the public-domain splitmix64.c by
        // Sebastiano Vigna.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn splitmix64_is_deterministic() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

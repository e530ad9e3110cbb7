//! An 8-round ChaCha stream cipher used as a pseudo-random generator.
//!
//! ChaCha8 is the workspace's default generator: cryptographic-quality
//! mixing, a 256-bit seed and a counter-based stream, so independent seeds
//! give independent streams and the output is platform-identical.

use crate::{RngCore, SeedableRng};

/// ChaCha block constants: `"expand 32-byte k"` in little-endian words.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Number of ChaCha rounds (8 = 4 double rounds).
const ROUNDS: usize = 8;

/// A deterministic generator backed by the ChaCha stream cipher with 8
/// rounds.
///
/// # Examples
///
/// ```
/// use vmin_rng::{ChaCha8Rng, Rng, SeedableRng};
///
/// let mut rng = ChaCha8Rng::seed_from_u64(2024);
/// let x = rng.gen_range(0.0..1.0);
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    /// Key words (seed).
    key: [u32; 8],
    /// 64-bit block counter (words 12–13 of the state).
    counter: u64,
    /// Buffered output words of the current block.
    buffer: [u32; 16],
    /// Next unread index into `buffer`; 16 means "refill".
    index: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut state: [u32; 16] = [0; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        state[14] = 0;
        state[15] = 0;
        let input = state;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, (s, i)) in self.buffer.iter_mut().zip(state.iter().zip(input.iter())) {
            *out = s.wrapping_add(*i);
        }
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buffer: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    /// The next two words, low word first: `lo | hi << 32`. Both come
    /// from the buffer under one index check unless they straddle a
    /// refill.
    fn next_u64(&mut self) -> u64 {
        if let Some(&[lo, hi]) = self.buffer.get(self.index..self.index + 2) {
            self.index += 2;
            return u64::from(lo) | (u64::from(hi) << 32);
        }
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let sa: Vec<u32> = (0..32).map(|_| a.next_u32()).collect();
        let sb: Vec<u32> = (0..32).map(|_| b.next_u32()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn stream_continues_across_blocks() {
        // 16 words per block: word 16 must come from a fresh block, and the
        // stream must never stall or repeat the previous block.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let first_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first_block, second_block);
    }

    #[test]
    fn output_bits_look_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 4096;
        let ones: u32 = (0..n).map(|_| rng.next_u32().count_ones()).sum();
        let frac = ones as f64 / (n as f64 * 32.0);
        assert!((frac - 0.5).abs() < 0.01, "bit balance {frac}");
    }

    #[test]
    fn next_u64_is_two_next_u32_words_low_first_at_every_offset() {
        // Offsets 0..=15 cover every buffer position the pair can start at;
        // 15 straddles the refill (low word from this block, high word
        // from the next) and 14 ends exactly on it.
        for offset in 0..16 {
            let mut pair = ChaCha8Rng::seed_from_u64(0x5EED);
            let mut words = pair.clone();
            for _ in 0..offset {
                pair.next_u32();
                words.next_u32();
            }
            for step in 0..3 {
                let lo = u64::from(words.next_u32());
                let hi = u64::from(words.next_u32());
                assert_eq!(
                    pair.next_u64(),
                    lo | (hi << 32),
                    "offset {offset}, step {step}"
                );
            }
            assert_eq!(pair, words, "offset {offset}: streams diverged");
        }
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut rng = ChaCha8Rng::from_seed([0u8; 32]);
        let words: Vec<u32> = (0..8).map(|_| rng.next_u32()).collect();
        assert!(words.iter().any(|&w| w != 0));
    }
}

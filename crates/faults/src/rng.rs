//! The workspace's one seeded generator: ChaCha8 in counter mode.
//!
//! Weight init, dropout, loader shuffles, dataset splits and manual-label
//! noise all draw from a [`ChaCha8`] built by [`ChaCha8::seed`], so every
//! seeded result (and every recorded hash of one) is a function of the
//! seed alone. The key is four [`splitmix64`] steps over the seed; counter
//! and nonce start at zero. Each draw is fixed arithmetic over the
//! keystream words, documented on its method, so the stream never depends
//! on a library version.

use crate::splitmix64;

/// "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A ChaCha8 keystream generator.
#[derive(Clone, Debug)]
pub struct ChaCha8 {
    /// Cipher input: constants, key, 64-bit block counter, nonce.
    state: [u32; 16],
    /// Current keystream block.
    block: [u32; 16],
    /// Next unread word of `block`; 16 forces a refill.
    index: usize,
}

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8 {
    /// The generator keyed by four SplitMix64 steps from `seed`, each
    /// 64-bit output filling two key words, low half first.
    pub fn seed(seed: u64) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        let mut s = seed;
        for key in state[4..12].chunks_exact_mut(2) {
            let z = splitmix64(s);
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            key.copy_from_slice(&[z as u32, (z >> 32) as u32]);
        }
        Self {
            state,
            block: [0; 16],
            index: 16,
        }
    }

    fn refill(&mut self) {
        let mut x = self.state;
        for _ in 0..4 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for ((out, w), s) in self.block.iter_mut().zip(x).zip(self.state) {
            *out = w.wrapping_add(s);
        }
        let counter = (self.state[12] as u64 | (self.state[13] as u64) << 32).wrapping_add(1);
        self.state[12..14].copy_from_slice(&[counter as u32, (counter >> 32) as u32]);
        self.index = 0;
    }

    /// The next keystream word.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.index == 16 {
            self.refill();
        }
        self.index += 1;
        self.block[self.index - 1]
    }

    /// The next two words, the first as the low half.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        lo | (self.next_u32() as u64) << 32
    }

    /// Uniform in `[0, 1)`: a word's top 24 bits times 2⁻²⁴.
    #[inline]
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// `lo + unit_f32() · (hi − lo)`: uniform between `lo` and `hi`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.unit_f32() * (hi - lo)
    }

    /// `true` with probability `p`: a 53-bit uniform double from
    /// [`next_u64`](Self::next_u64) compared against `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]");
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    /// Fisher–Yates from the back, swapping `i` with
    /// `next_u64() % (i + 1)`.
    #[inline]
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers recorded from the generator this module replaced, so
    /// every recorded hash of a seeded result stays put.
    #[test]
    fn draws_match_the_recorded_stream() {
        let mut rng = ChaCha8::seed(2024);
        let words: Vec<u32> = (0..20).map(|_| rng.next_u32()).collect();
        assert_eq!(
            words,
            [
                0xfef49ff1, 0x734aefce, 0x7f4ec909, 0x8e91ef13, 0x5be6e8d5, 0xbc38d53f, 0x2521a1ba,
                0x4d0e1186, 0xf98afca2, 0xc9d07761, 0x66b2c960, 0x891e4880, 0x444c485c, 0x71f1a63f,
                0xeb9a67d1, 0x2050115d, 0x57c4e351, 0xdb2c7baa, 0x3329a59a, 0x5a7780f3,
            ]
        );
        let mut rng = ChaCha8::seed(2024);
        assert_eq!(rng.next_u64(), 0x734aefce_fef49ff1);

        let mut rng = ChaCha8::seed(7);
        let units: Vec<u32> = (0..4).map(|_| rng.unit_f32().to_bits()).collect();
        assert_eq!(units, [0x3ea104a4, 0x3ecd0dae, 0x3f1db41d, 0x3f463a5f]);
        let uniforms: Vec<u32> = (0..4).map(|_| rng.uniform(-0.5, 0.5).to_bits()).collect();
        assert_eq!(uniforms, [0x3eca9594, 0x3bf3be80, 0xbeb75c9e, 0xbedda9a8]);
        let chances: Vec<bool> = (0..8).map(|_| rng.chance(0.3)).collect();
        let (f, t) = (false, true);
        assert_eq!(chances, [f, t, f, f, t, f, t, t]);
        let mut items: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut items);
        assert_eq!(items, [8, 9, 6, 7, 2, 4, 0, 5, 1, 3]);
    }

    #[test]
    fn draws_stay_in_range_and_clones_continue_the_stream() {
        let mut rng = ChaCha8::seed(3);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&rng.unit_f32()));
            assert!((-1.5..2.5).contains(&rng.uniform(-1.5, 2.5)));
            assert!(!rng.chance(0.0) && rng.chance(1.0));
        }
        let mut fork = rng.clone();
        assert_eq!(rng.next_u64(), fork.next_u64());
        assert_ne!(ChaCha8::seed(1).next_u64(), ChaCha8::seed(2).next_u64());
    }
}

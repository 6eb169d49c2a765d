//! The benchmark's input generator and the digest that proves two runs fed
//! the library the same inputs. Inputs depend on `--seed` and nothing else:
//! no clock, no environment variable.

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, good enough to spread
/// page ids and offsets.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `lane` (a phase or a writer thread) of the
    /// same seed.
    pub fn fork(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// FNV-1a over 64-bit words: the op-stream digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn fold(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Combine per-thread digests in thread order.
    pub fn merge(&mut self, other: Digest) {
        self.fold(other.0);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ_by_seed_and_lane() {
        let take = |mut r: Rng| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        assert_eq!(take(Rng::new(7)), take(Rng::new(7)));
        assert_ne!(take(Rng::new(7)), take(Rng::new(8)));
        assert_eq!(take(Rng::fork(7, 1)), take(Rng::fork(7, 1)));
        assert_ne!(take(Rng::fork(7, 1)), take(Rng::fork(7, 2)));
        let mut r = Rng::new(1);
        assert!((0..10_000).all(|_| r.below(41) < 41));
        let mut buf = [0u8; 41];
        r.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}

//! The benchmark's own generator: every input stream is a pure function
//! of `--seed`, with no clock and no `HashMap` iteration order in it.

/// xorshift64* seeded through one splitmix64 step (so seeds 0, 1, 2 …
/// give unrelated streams and the all-zero state is unreachable).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from its siblings by `stream`
    /// (each generator in a workload takes its own stream number).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is below 2⁻³² for
    /// every `n` the workloads use).
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_u64() >> 11) % n.max(1)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let first8 = |mut r: Rng| -> Vec<u64> { (0..8).map(|_| r.next_u64()).collect() };
        assert_eq!(first8(Rng::new(7, 1)), first8(Rng::new(7, 1)));
        assert_ne!(first8(Rng::new(7, 1)), first8(Rng::new(7, 2)));
        assert_ne!(first8(Rng::new(7, 1)), first8(Rng::new(8, 1)));
        let mut r = Rng::new(0, 0);
        assert!((0..1000).all(|_| (3..=9).contains(&r.range(3, 9))));
    }
}

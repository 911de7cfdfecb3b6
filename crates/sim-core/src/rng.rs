//! Seeded randomness for workload jitter.
//!
//! All stochastic behaviour in the reproduction (e.g. small variation in
//! per-iteration allocation sizes) flows through [`SimRng`], which is
//! seeded explicitly so every experiment run is bit-for-bit reproducible.
//! The generator is a splitmix64 core (Steele et al., "Fast splittable
//! pseudorandom number generators") — tiny, dependency-free, and with
//! full 64-bit avalanche per output, which is all simulation jitter
//! needs.

/// Deterministic random source for simulations.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

/// splitmix64: one full-avalanche 64-bit output per step.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // One warm-up step decorrelates small consecutive seeds.
        let mut state = seed;
        splitmix64(&mut state);
        SimRng { state }
    }

    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi");
        let span = hi - lo;
        // Multiply-shift bounded sampling (Lemire); the slight modulo bias
        // of a 64-bit product is irrelevant for simulation jitter.
        let hi128 = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        lo + hi128
    }

    /// Multiplicative jitter in `[1-amp, 1+amp]`.
    pub fn jitter(&mut self, amp: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&amp));
        1.0 + amp * (2.0 * self.unit() - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let va: Vec<u64> = (0..16).map(|_| a.range_u64(0, u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.range_u64(0, u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forked_children_are_independent_of_sibling_count() {
        // Fork order determines child seeds, so the first child's stream is
        // identical whether or not more children are forked afterwards.
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut c1 = parent1.fork(0);
        let _c2 = parent1.fork(1);
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut d1 = parent2.fork(0);
        for _ in 0..32 {
            assert_eq!(c1.range_u64(0, 1 << 40), d1.range_u64(0, 1 << 40));
        }
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn jitter_stays_within_amplitude() {
        let mut r = SimRng::seed_from_u64(9);
        for _ in 0..1_000 {
            let j = r.jitter(0.1);
            assert!((0.9..=1.1).contains(&j));
        }
    }

    impl SimRng {
        /// Derive an independent child RNG (e.g. one per container) so adding a
        /// consumer does not perturb the stream seen by others.
        fn fork(&mut self, tag: u64) -> SimRng {
            let s: u64 = self.next_u64();
            SimRng::seed_from_u64(s ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }
    }
}

//! The benchmark's only source of randomness: one SplitMix64 stream per
//! workload, seeded from `--seed` and the workload's name. The crates under
//! test never see the seed — they receive the inputs generated from it.

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream for `workload` under `--seed seed`. Mixing the name in
    /// keeps two workloads run with one seed from replaying each other's
    /// draws.
    pub fn for_workload(seed: u64, workload: &str) -> Self {
        // FNV-1a over the name; any fixed mixing would do.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in workload.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut stream = Self {
            state: seed ^ hash.rotate_left(17),
        };
        // Decorrelate adjacent seeds before the first draw is used.
        stream.next_u64();
        stream
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive. The modulo bias is below
    /// 2⁻⁴⁰ for every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Log-uniform integer in `[1, max]`: small values are as likely per
    /// octave as large ones (elapsed times, popularity ranks).
    pub fn log_uniform(&mut self, max: u64) -> u64 {
        let value = ((max as f64).ln() * self.next_f64()).exp();
        (value as u64).clamp(1, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_or_workload_differs() {
        let draw = |seed, name| {
            let mut s = SplitMix64::for_workload(seed, name);
            (0..8).map(|_| s.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(17, "predict_wave"), draw(17, "predict_wave"));
        assert_ne!(draw(17, "predict_wave"), draw(18, "predict_wave"));
        assert_ne!(draw(17, "predict_wave"), draw(17, "predict_open"));
    }

    #[test]
    fn helpers_stay_in_range() {
        let mut s = SplitMix64::for_workload(3, "t");
        for _ in 0..10_000 {
            let f = s.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(s.below(7) < 7);
            let r = s.log_uniform(200_000);
            assert!((1..=200_000).contains(&r));
        }
    }
}

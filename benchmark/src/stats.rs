//! Estimators: percentiles over sorted samples, quartiles the way the
//! comparison rule takes them, and a fixed-size latency histogram.

/// Linear-interpolated percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method: cut `i` sits at rank `i·(n+1)/4`,
/// clamped to the data) — the same rule the two-commit comparison in the
/// README applies to run sets, so a slice spread printed here reads on the
/// same scale.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Sub-buckets per octave, as a bit count: 128 buckets, so a bucket is at
/// most 1/128 = 0.8 % wide — an order of magnitude under the tightest
/// latency bound.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// A log-bucketed histogram of nanosecond latencies.
///
/// Fixed size on purpose: a per-op sample vector would grow with throughput
/// and a faster commit would then read as a `peak_rss_mb` regression.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; ((64 - SUB_BITS + 1) as usize) << SUB_BITS],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    fn index(value_ns: u64) -> usize {
        if value_ns < SUB {
            return value_ns as usize;
        }
        let shift = 63 - value_ns.leading_zeros() - SUB_BITS;
        ((u64::from(shift + 1) << SUB_BITS) + ((value_ns >> shift) - SUB)) as usize
    }

    /// `(lowest value, width)` of bucket `index`.
    fn bounds(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < SUB {
            return (index, 1);
        }
        let shift = (index >> SUB_BITS) - 1;
        (((index & (SUB - 1)) + SUB) << shift, 1 << shift)
    }

    /// Records `n` ops that each took `value_ns`.
    pub fn record_n(&mut self, value_ns: u64, n: u64) {
        self.buckets[Self::index(value_ns)] += n;
        self.count += n;
    }

    /// Forgets every sample.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket
    /// (0 when nothing was recorded).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut before = 0u64;
        for (index, &held) in self.buckets.iter().enumerate() {
            if held > 0 && rank < (before + held) as f64 {
                let (low, width) = Self::bounds(index);
                let within = (rank - before as f64 + 0.5) / held as f64;
                return low as f64 + width as f64 * within;
            }
            before += held;
        }
        unreachable!("rank {rank} below count {}", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn percentile_matches_sorted_reference() {
        let sorted: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 51.0);
        assert_eq!(percentile(&sorted, 0.99), 100.0);
        assert_eq!(percentile(&sorted, 1.0), 101.0);
        // Between two samples the estimate interpolates.
        assert!((percentile(&[10.0, 20.0], 0.25) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let (q1, q3) = quartiles(&mut ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let mut five = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        let (q1, q3) = quartiles(&mut five);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        for value in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            123_456_789,
            u64::MAX,
        ] {
            let (low, width) = LatencyHistogram::bounds(LatencyHistogram::index(value));
            assert!(
                low <= value && value - low < width,
                "{value}: [{low}, +{width})"
            );
        }
    }

    #[test]
    fn histogram_quantiles_track_the_sorted_reference_within_a_bucket() {
        let mut rng = SplitMix64::for_workload(5, "hist");
        let mut histogram = LatencyHistogram::default();
        let mut exact: Vec<f64> = Vec::new();
        for _ in 0..50_000 {
            // Log-normal-ish latencies from 1 µs to 30 ms.
            let value = (1_000.0 * (rng.next_f64() * 10.3).exp()) as u64;
            histogram.record_n(value, 1);
            exact.push(value as f64);
        }
        exact.sort_by(f64::total_cmp);
        assert_eq!(histogram.count(), 50_000);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = percentile(&exact, q);
            let got = histogram.quantile_ns(q);
            assert!(
                (got - want).abs() <= want / 100.0,
                "q{q}: histogram {got} vs exact {want}"
            );
        }
    }
}

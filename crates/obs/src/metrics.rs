//! Atomic metric primitives: the log-bucketed latency histogram and the
//! stopwatch that feeds it.
//!
//! Everything here is lock-free and shareable across threads behind an
//! `Arc`. Recording is wait-free (a handful of relaxed atomic RMWs); in
//! the compiled-out build (no `enabled` feature) every recording method
//! constant-folds to nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sub-buckets per octave: values ≥ 16 land in buckets of relative width
/// 1/16, so an interpolated quantile is within 6.25% of the exact sample.
const SUBS: usize = 16;
const SUBS_LOG2: u32 = 4;
/// Octaves above the 16 exact unit buckets (values 16..=u64::MAX span
/// octaves 4..=63).
const OCTAVES: usize = 60;
/// Total bucket count (16 exact + 60 × 16 log-spaced).
const BUCKETS: usize = SUBS + OCTAVES * SUBS;

/// A log-bucketed latency histogram (HDR-style): exact unit buckets for
/// values 0..16, then 16 sub-buckets per power of two, covering the full
/// `u64` range in ~8 KiB of atomics.
///
/// Values are dimensionless `u64`s; by convention the serving/precompute
/// wiring records **nanoseconds** (histogram names end in `_ns`) or plain
/// counts (batch sizes). Quantiles are interpolated within the bucket, so
/// the reported p50/p90/p99 sit within one sub-bucket (≤ 6.25% relative
/// error, ± 1 for small values) of the exact order statistic.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUBS as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros(); // 4..=63
        let shift = octave - SUBS_LOG2;
        let sub = ((value >> shift) as usize) - SUBS;
        SUBS + (octave - SUBS_LOG2) as usize * SUBS + sub
    }

    /// Lower/upper bound of bucket `index`, as `f64` (the top octave's
    /// upper bound exceeds `u64::MAX`).
    fn bucket_bounds(index: usize) -> (f64, f64) {
        if index < SUBS {
            return (index as f64, index as f64 + 1.0);
        }
        let oct = (index - SUBS) / SUBS; // octave - 4
        let sub = (index - SUBS) % SUBS;
        let width = (oct as f64).exp2();
        let lo = (SUBS + sub) as f64 * width;
        (lo, lo + width)
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if crate::is_enabled() {
            self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated within
    /// the containing bucket; 0.0 when empty. Concurrent recording skews
    /// the answer by at most the in-flight updates.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        // Fractional 0-indexed rank, matching linear-interpolation
        // percentile conventions.
        let target = q.clamp(0.0, 1.0) * (total - 1) as f64;
        let mut cum = 0u64;
        for (index, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let cum_after = cum + c;
            if (cum_after - 1) as f64 >= target {
                let (lo, hi) = Self::bucket_bounds(index);
                let within = ((target - cum as f64 + 0.5) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * within;
            }
            cum = cum_after;
        }
        // Unreachable with a consistent snapshot; fall back to max.
        self.max() as f64
    }

    /// Merges another histogram's recorded values into this one.
    pub fn merge(&self, other: &Histogram) {
        if crate::is_enabled() {
            for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
                let n = theirs.load(Ordering::Relaxed);
                if n > 0 {
                    mine.fetch_add(n, Ordering::Relaxed);
                }
            }
            self.count
                .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
            self.sum
                .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
            self.max
                .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// A start/record timer: [`Stopwatch::start`] reads the clock and
/// [`Stopwatch::record`] records the elapsed nanoseconds into a histogram,
/// so the span may end in another scope than it began. `Copy`; dropping
/// it without recording is fine.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Option<Instant>,
}

impl Stopwatch {
    /// Reads the clock (a no-op in the compiled-out build).
    #[inline]
    #[must_use]
    pub fn start() -> Self {
        Self {
            started: crate::is_enabled().then(Instant::now),
        }
    }

    /// Records elapsed nanoseconds into `histogram`.
    #[inline]
    pub fn record(self, histogram: &Histogram) {
        if let Some(started) = self.started {
            histogram.record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let target = q * (sorted.len() - 1) as f64;
        let lo = target.floor() as usize;
        let hi = target.ceil() as usize;
        let frac = target - lo as f64;
        sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_contain_values() {
        // An increasing sweep across all octaves: ~3 points per octave.
        let mut values: Vec<u64> = vec![0];
        let mut v = 1u64;
        while v < u64::MAX / 2 {
            values.extend([v, v + v / 3, v + (2 * (v / 3))]);
            v = v.saturating_mul(2);
        }
        values.push(u64::MAX);
        values.sort_unstable();
        let mut last = 0usize;
        for &v in &values {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "index must not decrease at {v}");
            assert!(idx < BUCKETS);
            last = idx;
            // `v as f64` rounds, so allow the closed upper bound (u64::MAX
            // rounds up to exactly the top bucket's upper edge).
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(
                lo <= v as f64 && (v as f64) <= hi,
                "{v} not in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_order_statistics_within_bucket_error() {
        // A mix of scales: exact small values, microsecond-ish, and a
        // heavy tail — the shapes latency distributions take.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        use rand::{Rng, SeedableRng};
        let histogram = Histogram::new();
        let mut samples: Vec<u64> = (0..20_000)
            .map(|_| {
                let scale: f64 = rng.gen::<f64>() * 20.0; // log2 scale 0..20
                scale.exp2() as u64
            })
            .collect();
        for &s in &samples {
            histogram.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = exact_quantile(&samples, q);
            let approx = histogram.quantile(q);
            let tolerance = exact * 0.07 + 1.0;
            assert!(
                (approx - exact).abs() <= tolerance,
                "q={q}: approx {approx} vs exact {exact} (tolerance {tolerance})"
            );
        }
        assert_eq!(histogram.count(), 20_000);
        assert_eq!(histogram.max(), *samples.last().unwrap());
    }

    #[test]
    fn small_values_are_exact() {
        let histogram = Histogram::new();
        for v in [3u64, 3, 3, 7, 7, 12] {
            histogram.record(v);
        }
        assert!((histogram.quantile(0.0) - 3.0).abs() < 1.0);
        assert!((histogram.quantile(1.0) - 12.0).abs() < 1.0);
        assert_eq!(histogram.sum(), 35);
        assert!((histogram.mean() - 35.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v);
            b.record(v + 1_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.max(), 1_099);
        let p50 = a.quantile(0.5);
        assert!(
            (99.0..=1001.0).contains(&p50),
            "merged median {p50} must sit between the halves"
        );
    }

    #[test]
    fn stopwatch_records_into_its_histogram() {
        let histogram = Histogram::new();
        let sw = Stopwatch::start();
        std::hint::black_box(0);
        sw.record(&histogram);
        sw.record(&histogram);
        assert_eq!(histogram.count(), 2);
        assert!(histogram.max() > 0, "elapsed time must be non-zero");
    }

    proptest! {
        #[test]
        fn concurrent_histogram_records_conserve_counts(
            values in proptest::collection::vec(0u64..1_000_000, 64..256),
        ) {
            let histogram = Arc::new(Histogram::new());
            let chunk = values.len().div_ceil(4);
            let handles: Vec<_> = values
                .chunks(chunk)
                .map(|part| {
                    let histogram = Arc::clone(&histogram);
                    let part = part.to_vec();
                    std::thread::spawn(move || {
                        for v in part {
                            histogram.record(v);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            prop_assert_eq!(histogram.count(), values.len() as u64);
            prop_assert_eq!(histogram.sum(), values.iter().sum::<u64>());
            prop_assert_eq!(histogram.max(), *values.iter().max().unwrap());
        }
    }
}

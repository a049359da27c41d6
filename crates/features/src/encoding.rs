//! Low-level encoding primitives shared by all featurizers: one-hot
//! encoding, the unread-count buckets, and the paper's log-bucketing
//! transform for elapsed times.

/// Number of buckets used by the elapsed-time transform (paper §5.3:
/// "bucketize time elapsed features into 50 buckets").
pub const TIME_BUCKETS: usize = 50;

/// Appends a one-hot encoding of `index` over `size` categories to `out`.
///
/// # Panics
///
/// Panics if `index >= size`.
pub fn push_one_hot(out: &mut Vec<f32>, index: usize, size: usize) {
    assert!(index < size, "one-hot index {index} out of range {size}");
    let start = out.len();
    out.resize(start + size, 0.0);
    out[start + index] = 1.0;
}

/// The paper's elapsed-time bucketing transform: `⌊(50/15)·ln(t)⌋`, clamped
/// to `[0, TIME_BUCKETS)`. `t` is a duration in seconds; non-positive
/// durations map to bucket 0. The largest representable duration (30 days ≈
/// e^14.76 s) lands just below bucket 49, matching the paper's remark.
pub fn time_bucket(elapsed_secs: i64) -> usize {
    if elapsed_secs <= 1 {
        return 0;
    }
    let b = (50.0 / 15.0 * (elapsed_secs as f64).ln()).floor();
    (b.max(0.0) as usize).min(TIME_BUCKETS - 1)
}

/// Buckets an unread/notification badge count (0–99) into a small number of
/// ranges. Returns an index in `[0, UNREAD_BUCKETS)`.
pub fn unread_bucket(count: u8) -> usize {
    match count {
        0 => 0,
        1 => 1,
        2..=3 => 2,
        4..=6 => 3,
        7..=10 => 4,
        11..=20 => 5,
        21..=50 => 6,
        _ => 7,
    }
}

/// Number of buckets produced by [`unread_bucket`].
pub(crate) const UNREAD_BUCKETS: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_basics() {
        let mut v = Vec::new();
        push_one_hot(&mut v, 0, 3);
        assert_eq!(v, vec![1.0, 0.0, 0.0]);
        let mut v = Vec::new();
        push_one_hot(&mut v, 2, 3);
        assert_eq!(v, vec![0.0, 0.0, 1.0]);
        let mut v = vec![9.0];
        push_one_hot(&mut v, 1, 2);
        assert_eq!(v, vec![9.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_out_of_range_panics() {
        push_one_hot(&mut Vec::new(), 3, 3);
    }

    #[test]
    fn time_bucket_monotone_and_bounded() {
        assert_eq!(time_bucket(0), 0);
        assert_eq!(time_bucket(-5), 0);
        assert_eq!(time_bucket(1), 0);
        let mut prev = 0;
        for exp in 1..20 {
            let t = 1i64 << exp;
            let b = time_bucket(t);
            assert!(b >= prev, "bucket must be monotone in elapsed time");
            assert!(b < TIME_BUCKETS);
            prev = b;
        }
        // 30 days should land in the top couple of buckets but not overflow.
        let b30 = time_bucket(30 * 86_400);
        assert!((47..TIME_BUCKETS).contains(&b30), "30d bucket = {b30}");
        // A year still clamps to the last bucket.
        assert_eq!(time_bucket(365 * 86_400), TIME_BUCKETS - 1);
    }

    #[test]
    fn time_bucket_matches_paper_formula() {
        // ⌊(50/15)·ln(3600)⌋ = ⌊27.3⌋ = 27 for one hour.
        assert_eq!(time_bucket(3_600), 27);
        // One day: ⌊(50/15)·ln(86400)⌋ = ⌊37.9⌋ = 37.
        assert_eq!(time_bucket(86_400), 37);
    }

    #[test]
    fn unread_buckets_cover_range() {
        assert_eq!(unread_bucket(0), 0);
        assert_eq!(unread_bucket(1), 1);
        assert_eq!(unread_bucket(3), 2);
        assert_eq!(unread_bucket(5), 3);
        assert_eq!(unread_bucket(9), 4);
        assert_eq!(unread_bucket(15), 5);
        assert_eq!(unread_bucket(40), 6);
        assert_eq!(unread_bucket(99), 7);
        for c in 0u8..=99 {
            assert!(unread_bucket(c) < UNREAD_BUCKETS);
        }
        // Monotone.
        for c in 0u8..99 {
            assert!(unread_bucket(c) <= unread_bucket(c + 1));
        }
    }
}

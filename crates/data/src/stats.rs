//! Dataset summary statistics used by Table 2, Figure 1, and Figure 5 of the
//! paper.

use crate::schema::Dataset;

/// Summary statistics of a dataset (paper Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Global positive rate over sessions.
    pub positive_rate: f64,
    /// Total number of sessions.
    pub num_sessions: usize,
    /// Number of users.
    pub num_users: usize,
    /// Mean sessions per user.
    pub mean_sessions_per_user: f64,
    /// Fraction of users with zero accesses (the left mass of Figure 1).
    pub zero_access_user_fraction: f64,
}

impl DatasetSummary {
    /// Computes the summary of a dataset.
    pub fn compute(name: impl Into<String>, dataset: &Dataset) -> Self {
        let num_users = dataset.num_users();
        let num_sessions = dataset.num_sessions();
        let zero = dataset
            .users
            .iter()
            .filter(|u| u.num_accesses() == 0)
            .count();
        Self {
            name: name.into(),
            positive_rate: dataset.positive_rate(),
            num_sessions,
            num_users,
            mean_sessions_per_user: if num_users == 0 {
                0.0
            } else {
                num_sessions as f64 / num_users as f64
            },
            zero_access_user_fraction: if num_users == 0 {
                0.0
            } else {
                zero as f64 / num_users as f64
            },
        }
    }
}

/// An empirical cumulative distribution function over `[0, 1]` values,
/// evaluated on a fixed grid. Used for the per-user access-rate CDF of
/// Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    /// Grid of x values (access rates).
    pub xs: Vec<f64>,
    /// `P(value <= x)` for each grid point.
    pub ys: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF of `values` evaluated at `num_points` evenly spaced
    /// points spanning `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `num_points < 2`.
    pub fn from_values(values: &[f64], num_points: usize) -> Self {
        assert!(num_points >= 2, "need at least two grid points");
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN access rates"));
        let n = sorted.len();
        let xs: Vec<f64> = (0..num_points)
            .map(|i| i as f64 / (num_points - 1) as f64)
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                if n == 0 {
                    0.0
                } else {
                    sorted.partition_point(|&v| v <= x) as f64 / n as f64
                }
            })
            .collect();
        Self { xs, ys }
    }

    /// Evaluates the CDF at `x` by nearest-grid-point lookup.
    pub fn at(&self, x: f64) -> f64 {
        let clamped = x.clamp(0.0, 1.0);
        let idx = (clamped * (self.xs.len() - 1) as f64).round() as usize;
        self.ys[idx]
    }
}

/// Per-user access-rate CDF (Figure 1): fraction of users whose access rate
/// is at most `x`.
pub fn access_rate_cdf(dataset: &Dataset, num_points: usize) -> EmpiricalCdf {
    let rates: Vec<f64> = dataset
        .users
        .iter()
        .map(super::schema::UserHistory::access_rate)
        .collect();
    EmpiricalCdf::from_values(&rates, num_points)
}

/// Histogram of per-user session counts (Figure 5), with counts above
/// `cap` clamped into the final bucket (the paper caps at 20,000).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCountHistogram {
    /// Inclusive lower edge of each bucket.
    pub bucket_edges: Vec<usize>,
    /// Number of users per bucket.
    pub counts: Vec<usize>,
    /// Cap applied to session counts.
    pub cap: usize,
}

impl SessionCountHistogram {
    /// Builds a histogram with `num_buckets` equal-width buckets over
    /// `[0, cap]`.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets == 0` or `cap == 0`.
    pub fn compute(dataset: &Dataset, num_buckets: usize, cap: usize) -> Self {
        assert!(num_buckets > 0 && cap > 0, "invalid histogram parameters");
        let width = cap.div_ceil(num_buckets);
        let bucket_edges: Vec<usize> = (0..num_buckets).map(|i| i * width).collect();
        let mut counts = vec![0usize; num_buckets];
        for u in &dataset.users {
            let c = u.len().min(cap);
            let bucket = (c / width).min(num_buckets - 1);
            counts[bucket] += 1;
        }
        Self {
            bucket_edges,
            counts,
            cap,
        }
    }

    /// Total number of users covered.
    pub fn total_users(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// Distribution of inter-session gaps (Δt) in seconds, summarised by
/// percentiles. The paper notes Δt is power-law distributed, which motivates
/// the log-bucketing transform `T(Δt)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaTSummary {
    /// 10th/50th/90th/99th percentile of Δt in seconds.
    pub p10: i64,
    /// Median.
    pub p50: i64,
    /// 90th percentile.
    pub p90: i64,
    /// 99th percentile.
    pub p99: i64,
}

impl DeltaTSummary {
    /// Computes Δt percentiles across all users of a dataset. Returns `None`
    /// when no user has two or more sessions.
    pub fn compute(dataset: &Dataset) -> Option<Self> {
        let mut deltas: Vec<i64> = Vec::new();
        for u in &dataset.users {
            for w in u.sessions.windows(2) {
                deltas.push(w[1].timestamp - w[0].timestamp);
            }
        }
        if deltas.is_empty() {
            return None;
        }
        deltas.sort_unstable();
        let pct = |p: f64| -> i64 {
            let idx = ((deltas.len() - 1) as f64 * p).round() as usize;
            deltas[idx]
        };
        Some(Self {
            p10: pct(0.10),
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Context, DatasetKind, Session, Tab, UserHistory, UserId};

    fn toy_dataset() -> Dataset {
        let mk = |ts: i64, accessed: bool| Session {
            timestamp: ts,
            context: Context::MobileTab {
                unread_count: 0,
                active_tab: Tab::Home,
            },
            accessed,
        };
        Dataset {
            kind: DatasetKind::MobileTab,
            start_timestamp: 0,
            num_days: 1,
            users: vec![
                UserHistory::new(UserId(0), vec![mk(0, true), mk(100, true), mk(200, false)]),
                UserHistory::new(UserId(1), vec![mk(50, false), mk(150, false)]),
                UserHistory::new(UserId(2), vec![]),
            ],
        }
    }

    #[test]
    fn summary_values() {
        let s = DatasetSummary::compute("toy", &toy_dataset());
        assert_eq!(s.num_users, 3);
        assert_eq!(s.num_sessions, 5);
        assert!((s.positive_rate - 0.4).abs() < 1e-12);
        assert!((s.mean_sessions_per_user - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.zero_access_user_fraction - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let cdf = access_rate_cdf(&toy_dataset(), 11);
        assert_eq!(cdf.xs.len(), 11);
        assert!(cdf.ys.windows(2).all(|w| w[0] <= w[1]));
        assert!((cdf.at(1.0) - 1.0).abs() < 1e-12);
        // Two of three users have access rate 0, so CDF(0) = 2/3.
        assert!((cdf.at(0.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_handles_empty_input() {
        let cdf = EmpiricalCdf::from_values(&[], 5);
        assert!(cdf.ys.iter().all(|&y| y == 0.0));
    }

    #[test]
    fn histogram_counts_users() {
        let h = SessionCountHistogram::compute(&toy_dataset(), 4, 4);
        assert_eq!(h.total_users(), 3);
        // Buckets of width 1: [0,1,2,3+]; user sizes 3, 2, 0.
        assert_eq!(h.counts, vec![1, 0, 1, 1]);
    }

    #[test]
    fn delta_t_percentiles_ordered() {
        let d = DeltaTSummary::compute(&toy_dataset()).unwrap();
        assert!(d.p10 <= d.p50 && d.p50 <= d.p90 && d.p90 <= d.p99);
        assert_eq!(d.p50, 100);
    }

    #[test]
    fn delta_t_none_for_singleton_histories() {
        let ds = Dataset {
            kind: DatasetKind::MobileTab,
            start_timestamp: 0,
            num_days: 1,
            users: vec![UserHistory::new(UserId(0), vec![])],
        };
        assert!(DeltaTSummary::compute(&ds).is_none());
    }
}

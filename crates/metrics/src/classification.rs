//! Scalar classification metrics: log loss (the paper's training objective),
//! Brier score, ROC-AUC, and calibration summaries.

/// Mean binary log loss (cross-entropy) between probabilities and labels,
/// with probabilities clamped away from 0/1 for numerical stability.
///
/// # Panics
///
/// Panics if lengths differ or the input is empty.
pub fn log_loss(probabilities: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(
        probabilities.len(),
        labels.len(),
        "probabilities/labels length mismatch"
    );
    assert!(!probabilities.is_empty(), "log_loss of an empty set");
    let eps = 1e-12;
    let total: f64 = probabilities
        .iter()
        .zip(labels)
        .map(|(&p, &y)| {
            let p = p.clamp(eps, 1.0 - eps);
            if y {
                -p.ln()
            } else {
                -(1.0 - p).ln()
            }
        })
        .sum();
    total / probabilities.len() as f64
}

/// Mean squared error between probabilities and 0/1 labels (Brier score).
///
/// # Panics
///
/// Panics if lengths differ or the input is empty.
pub fn brier_score(probabilities: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(probabilities.len(), labels.len(), "length mismatch");
    assert!(!probabilities.is_empty(), "brier score of an empty set");
    probabilities
        .iter()
        .zip(labels)
        .map(|(&p, &y)| {
            let t = if y { 1.0 } else { 0.0 };
            (p - t) * (p - t)
        })
        .sum::<f64>()
        / probabilities.len() as f64
}

/// Area under the ROC curve computed via the rank statistic (equivalent to
/// the probability that a random positive is scored above a random
/// negative); ties receive half credit. Returns 0.5 when one class is
/// absent.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn roc_auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "length mismatch");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));

    // Assign average ranks to ties.
    let n = scores.len();
    let mut ranks = vec![0.0f64; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[order[k]] = avg_rank;
        }
        i = j + 1;
    }

    let num_pos = labels.iter().filter(|&&l| l).count();
    let num_neg = n - num_pos;
    if num_pos == 0 || num_neg == 0 {
        return 0.5;
    }
    let rank_sum: f64 = ranks
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l)
        .map(|(&r, _)| r)
        .sum();
    (rank_sum - (num_pos * (num_pos + 1)) as f64 / 2.0) / (num_pos * num_neg) as f64
}

/// A reliability-diagram bucket: predictions grouped by score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationBin {
    /// Lower edge of the score bucket.
    pub lower: f64,
    /// Upper edge of the score bucket.
    pub upper: f64,
    /// Mean predicted probability inside the bucket.
    pub mean_predicted: f64,
    /// Empirical positive rate inside the bucket.
    pub observed_rate: f64,
    /// Number of examples in the bucket.
    pub count: usize,
}

/// Calibration summary of a set of probabilistic predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Equal-width buckets over `[0, 1]` (empty buckets are omitted).
    pub bins: Vec<CalibrationBin>,
    /// Expected calibration error: the count-weighted mean absolute gap
    /// between predicted and observed rates.
    pub expected_calibration_error: f64,
}

impl Calibration {
    /// Bins predictions into `num_bins` equal-width buckets.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `num_bins == 0`.
    pub fn compute(probabilities: &[f64], labels: &[bool], num_bins: usize) -> Self {
        assert_eq!(probabilities.len(), labels.len(), "length mismatch");
        assert!(num_bins > 0, "need at least one bin");
        let mut sums = vec![0.0f64; num_bins];
        let mut hits = vec![0usize; num_bins];
        let mut counts = vec![0usize; num_bins];
        for (&p, &y) in probabilities.iter().zip(labels) {
            let idx = ((p * num_bins as f64) as usize).min(num_bins - 1);
            sums[idx] += p;
            counts[idx] += 1;
            hits[idx] += y as usize;
        }
        let mut bins = Vec::new();
        let mut ece = 0.0;
        let total = probabilities.len().max(1);
        for i in 0..num_bins {
            if counts[i] == 0 {
                continue;
            }
            let mean_predicted = sums[i] / counts[i] as f64;
            let observed_rate = hits[i] as f64 / counts[i] as f64;
            ece += (counts[i] as f64 / total as f64) * (mean_predicted - observed_rate).abs();
            bins.push(CalibrationBin {
                lower: i as f64 / num_bins as f64,
                upper: (i + 1) as f64 / num_bins as f64,
                mean_predicted,
                observed_rate,
                count: counts[i],
            });
        }
        Self {
            bins,
            expected_calibration_error: ece,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_loss_known_values() {
        // Perfect confident predictions → loss near 0.
        assert!(log_loss(&[1.0, 0.0], &[true, false]) < 1e-9);
        // Uninformative 0.5 predictions → ln 2.
        let l = log_loss(&[0.5, 0.5], &[true, false]);
        assert!((l - std::f64::consts::LN_2).abs() < 1e-12);
        // Confidently wrong predictions are heavily penalized.
        assert!(log_loss(&[0.01], &[true]) > 4.0);
    }

    #[test]
    fn log_loss_clamps_extremes() {
        let l = log_loss(&[0.0], &[true]);
        assert!(l.is_finite());
    }

    #[test]
    fn brier_score_values() {
        assert_eq!(brier_score(&[1.0, 0.0], &[true, false]), 0.0);
        assert_eq!(brier_score(&[0.0, 1.0], &[true, false]), 1.0);
        assert!((brier_score(&[0.5], &[true]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn roc_auc_perfect_and_inverted() {
        let labels = [true, true, false, false];
        assert!((roc_auc(&[0.9, 0.8, 0.2, 0.1], &labels) - 1.0).abs() < 1e-12);
        assert!(roc_auc(&[0.1, 0.2, 0.8, 0.9], &labels) < 1e-12);
        // All ties → 0.5.
        assert!((roc_auc(&[0.5, 0.5, 0.5, 0.5], &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn roc_auc_single_class_is_half() {
        assert_eq!(roc_auc(&[0.1, 0.9], &[true, true]), 0.5);
        assert_eq!(roc_auc(&[0.1, 0.9], &[false, false]), 0.5);
    }

    #[test]
    fn calibration_of_perfectly_calibrated_predictions() {
        // Predict 0.2 for a population that is positive 20% of the time.
        let mut probs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..1000 {
            probs.push(0.2);
            labels.push(i % 5 == 0);
        }
        let cal = Calibration::compute(&probs, &labels, 10);
        assert!(cal.expected_calibration_error < 0.01);
        assert_eq!(cal.bins.len(), 1);
        assert_eq!(cal.bins[0].count, 1000);
    }

    #[test]
    fn calibration_detects_overconfidence() {
        // Predict 0.9 for a population that is positive 10% of the time.
        let probs = vec![0.9; 100];
        let labels: Vec<bool> = (0..100).map(|i| i < 10).collect();
        let cal = Calibration::compute(&probs, &labels, 10);
        assert!(cal.expected_calibration_error > 0.7);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = log_loss(&[0.5], &[true, false]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_log_loss_panics() {
        let _ = log_loss(&[], &[]);
    }
}

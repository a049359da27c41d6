//! Precision-recall analysis: curves, area under the curve, and recall at a
//! fixed precision — the paper's headline offline metrics (§8, Tables 3–4,
//! Figure 6).

/// A single point on a precision-recall curve, together with the score
/// threshold that produces it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Decision threshold: predict positive when `score >= threshold`.
    pub threshold: f64,
    /// Precision at this threshold (positives that were true accesses).
    pub precision: f64,
    /// Recall at this threshold (accesses that were predicted).
    pub recall: f64,
}

/// A full precision-recall curve.
#[derive(Debug, Clone, PartialEq)]
pub struct PrCurve {
    points: Vec<PrPoint>,
    num_positives: usize,
    num_examples: usize,
}

impl PrCurve {
    /// Computes the precision-recall curve from predicted scores and boolean
    /// labels, evaluating precision/recall at every distinct score (the same
    /// construction as `sklearn.metrics.precision_recall_curve`, which the
    /// paper uses).
    ///
    /// # Panics
    ///
    /// Panics if `scores` and `labels` have different lengths or any score is
    /// not finite.
    pub fn compute(scores: &[f64], labels: &[bool]) -> Self {
        assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "scores must be finite"
        );
        let num_examples = scores.len();
        let num_positives = labels.iter().filter(|&&l| l).count();
        if num_examples == 0 || num_positives == 0 {
            return Self {
                points: Vec::new(),
                num_positives,
                num_examples,
            };
        }

        // Sort by descending score.
        let mut order: Vec<usize> = (0..num_examples).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite scores"));

        let mut points = Vec::new();
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut i = 0usize;
        while i < order.len() {
            // Process ties as a block so the curve is threshold-consistent.
            let threshold = scores[order[i]];
            while i < order.len() && scores[order[i]] == threshold {
                if labels[order[i]] {
                    tp += 1;
                } else {
                    fp += 1;
                }
                i += 1;
            }
            let precision = tp as f64 / (tp + fp) as f64;
            let recall = tp as f64 / num_positives as f64;
            points.push(PrPoint {
                threshold,
                precision,
                recall,
            });
        }
        Self {
            points,
            num_positives,
            num_examples,
        }
    }

    /// Points of the curve, ordered by increasing recall.
    pub fn points(&self) -> &[PrPoint] {
        &self.points
    }

    /// Number of positive labels in the evaluation set.
    pub fn num_positives(&self) -> usize {
        self.num_positives
    }

    /// Number of examples in the evaluation set.
    pub fn num_examples(&self) -> usize {
        self.num_examples
    }

    /// Area under the precision-recall curve, computed by the step-wise
    /// (right-continuous) rule used by scikit-learn's
    /// `average_precision_score`: `AP = Σ (R_i - R_{i-1}) · P_i`.
    pub fn auc(&self) -> f64 {
        let mut auc = 0.0;
        let mut prev_recall = 0.0;
        for p in &self.points {
            auc += (p.recall - prev_recall) * p.precision;
            prev_recall = p.recall;
        }
        auc
    }

    /// Maximum recall achievable while keeping precision at or above
    /// `min_precision` (Table 4 uses `min_precision = 0.5`). Returns 0 when
    /// no threshold satisfies the constraint.
    pub fn recall_at_precision(&self, min_precision: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.precision >= min_precision)
            .map(|p| p.recall)
            .fold(0.0, f64::max)
    }

    /// The smallest threshold whose precision still meets `min_precision`,
    /// i.e. the operating point a production deployment would pick to
    /// maximize recall subject to a precision constraint (§8, §9). Returns
    /// `None` when no threshold satisfies the constraint.
    pub fn threshold_for_precision(&self, min_precision: f64) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.precision >= min_precision)
            .max_by(|a, b| a.recall.partial_cmp(&b.recall).expect("finite recall"))
            .map(|p| p.threshold)
    }

    /// Precision and recall at a fixed decision threshold.
    pub fn at_threshold(&self, threshold: f64) -> Option<PrPoint> {
        // Points are ordered by descending threshold; pick the last point
        // whose threshold is still >= the requested one.
        self.points
            .iter()
            .copied()
            .rfind(|p| p.threshold >= threshold)
    }
}

/// Convenience wrapper: PR-AUC of scores against labels.
pub fn pr_auc(scores: &[f64], labels: &[bool]) -> f64 {
    PrCurve::compute(scores, labels).auc()
}

/// Convenience wrapper: recall at a fixed precision.
pub fn recall_at_precision(scores: &[f64], labels: &[bool], min_precision: f64) -> f64 {
    PrCurve::compute(scores, labels).recall_at_precision(min_precision)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier_has_auc_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        let curve = PrCurve::compute(&scores, &labels);
        assert!((curve.auc() - 1.0).abs() < 1e-12);
        assert!((curve.recall_at_precision(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_classifier_has_low_auc() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        let auc = pr_auc(&scores, &labels);
        assert!(auc < 0.6, "inverted ranking should score poorly, got {auc}");
    }

    #[test]
    fn random_classifier_auc_near_positive_rate() {
        // For random scores the PR-AUC approaches the positive rate.
        let n = 20_000;
        let mut scores = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut state = 12345u64;
        let mut next = || {
            // xorshift
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..n {
            scores.push(next());
            labels.push(next() < 0.1);
        }
        let auc = pr_auc(&scores, &labels);
        assert!(
            (auc - 0.1).abs() < 0.03,
            "random AUC should be near 0.1, got {auc}"
        );
    }

    #[test]
    fn curve_monotone_recall_and_valid_ranges() {
        let scores = [0.9, 0.85, 0.7, 0.6, 0.55, 0.4, 0.3, 0.2];
        let labels = [true, false, true, true, false, false, true, false];
        let curve = PrCurve::compute(&scores, &labels);
        let pts = curve.points();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[0].recall <= w[1].recall);
            assert!(w[0].threshold >= w[1].threshold);
        }
        for p in pts {
            assert!((0.0..=1.0).contains(&p.precision));
            assert!((0.0..=1.0).contains(&p.recall));
        }
        // Last point has recall 1 (all positives recovered at lowest threshold).
        assert!((pts.last().unwrap().recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tied_scores_processed_as_block() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        let curve = PrCurve::compute(&scores, &labels);
        assert_eq!(curve.points().len(), 1);
        let p = curve.points()[0];
        assert!((p.precision - 0.5).abs() < 1e-12);
        assert!((p.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recall_at_precision_constraint() {
        // Scores rank one false positive above the second true positive.
        let scores = [0.9, 0.8, 0.7, 0.1];
        let labels = [true, false, true, false];
        let curve = PrCurve::compute(&scores, &labels);
        // Precision 1.0 only achievable at the top-1 cut: recall 0.5.
        assert!((curve.recall_at_precision(1.0) - 0.5).abs() < 1e-12);
        // Precision >= 0.6: top-3 cut has precision 2/3, recall 1.0.
        assert!((curve.recall_at_precision(0.6) - 1.0).abs() < 1e-12);
        // Impossible precision.
        assert_eq!(curve.recall_at_precision(1.01), 0.0);
    }

    #[test]
    fn threshold_for_precision_matches_operating_point() {
        let scores = [0.9, 0.8, 0.7, 0.1];
        let labels = [true, false, true, false];
        let curve = PrCurve::compute(&scores, &labels);
        let thr = curve.threshold_for_precision(0.6).unwrap();
        assert!((thr - 0.7).abs() < 1e-12);
        assert!(curve.threshold_for_precision(1.01).is_none());
        let at = curve.at_threshold(thr).unwrap();
        assert!(at.precision >= 0.6);
    }

    #[test]
    fn degenerate_inputs() {
        // No positives: empty curve, zero AUC.
        let curve = PrCurve::compute(&[0.3, 0.4], &[false, false]);
        assert_eq!(curve.points().len(), 0);
        assert_eq!(curve.auc(), 0.0);
        // Empty input.
        let curve = PrCurve::compute(&[], &[]);
        assert_eq!(curve.auc(), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = PrCurve::compute(&[0.1], &[true, false]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_scores_panic() {
        let _ = PrCurve::compute(&[f64::NAN], &[true]);
    }
}

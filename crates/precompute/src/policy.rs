//! Precompute decision policies.
//!
//! A trained model produces an access probability; the *policy* turns it
//! into a precompute decision. The paper always uses a fixed threshold
//! "chosen to target a precision of X%" on held-out data (§8: constrain
//! precision, maximize recall; §9: 60% precision for the MobileTab launch).

use pp_metrics::pr::PrCurve;

/// A thresholded precompute policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecomputePolicy {
    threshold: f64,
    target_precision: Option<f64>,
}

impl PrecomputePolicy {
    /// Creates a policy with an explicit probability threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= threshold <= 1`.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be a probability"
        );
        Self {
            threshold,
            target_precision: None,
        }
    }

    /// Creates a policy with an explicit threshold that *records* the
    /// precision target it is meant to defend — the form an online
    /// controller hands around while it nudges the threshold to hold the
    /// target on live traffic.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are probabilities in `[0, 1]`.
    pub fn with_threshold_for_target(threshold: f64, target_precision: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&target_precision),
            "target precision must be a probability"
        );
        let mut policy = Self::with_threshold(threshold);
        policy.target_precision = Some(target_precision);
        policy
    }

    /// Calibrates a policy on held-out scores so that precision stays at or
    /// above `target_precision` while recall is maximized. Returns `None`
    /// when no threshold achieves the target (the caller should then either
    /// lower the target or disable precompute).
    pub fn for_target_precision(
        scores: &[f64],
        labels: &[bool],
        target_precision: f64,
    ) -> Option<Self> {
        let curve = PrCurve::compute(scores, labels);
        curve
            .threshold_for_precision(target_precision)
            .map(|threshold| Self {
                threshold,
                target_precision: Some(target_precision),
            })
    }

    /// The probability threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Re-fits the threshold for this policy's recorded precision target on
    /// a fresh held-out sample — the periodic recalibration step of a
    /// production deployment as traffic drifts. Returns `None` when the
    /// target has become unachievable on the new sample *or* the sample is
    /// degenerate (empty, all-positive or all-negative labels): an
    /// all-negative window cannot meet any positive target, and an
    /// all-positive window would "achieve" any target at the lowest observed
    /// score, collapsing the threshold on what is pure luck-of-the-window —
    /// both carry no calibration signal, so the caller must hold the current
    /// threshold instead. A policy without a recorded target is returned
    /// unchanged.
    pub fn recalibrate(&self, scores: &[f64], labels: &[bool]) -> Option<Self> {
        match self.target_precision {
            Some(target) => {
                let positives = labels.iter().filter(|&&l| l).count();
                if positives == 0 || positives == labels.len() {
                    return None;
                }
                Self::for_target_precision(scores, labels, target)
            }
            None => Some(*self),
        }
    }

    /// The precision target this policy was calibrated for, if any.
    pub fn target_precision(&self) -> Option<f64> {
        self.target_precision
    }

    /// Whether to precompute for a predicted access probability.
    pub fn should_precompute(&self, probability: f64) -> bool {
        probability >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_policy_basics() {
        let p = PrecomputePolicy::with_threshold(0.6);
        assert!(p.should_precompute(0.6));
        assert!(p.should_precompute(0.9));
        assert!(!p.should_precompute(0.59));
        assert_eq!(p.target_precision(), None);
    }

    #[test]
    fn calibration_meets_precision_target() {
        // Scores that rank positives mostly on top.
        let scores = [0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1];
        let labels = [
            true, true, false, true, false, false, true, false, false, false,
        ];
        let policy = PrecomputePolicy::for_target_precision(&scores, &labels, 0.75).unwrap();
        // Check the achieved precision on the same data.
        let (mut tp, mut fp) = (0, 0);
        for (&s, &l) in scores.iter().zip(&labels) {
            if policy.should_precompute(s) {
                if l {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
        let precision = tp as f64 / (tp + fp) as f64;
        assert!(precision >= 0.75, "achieved precision {precision}");
        assert_eq!(policy.target_precision(), Some(0.75));
    }

    #[test]
    fn impossible_target_returns_none() {
        let scores = [0.9, 0.8];
        let labels = [false, false];
        assert!(PrecomputePolicy::for_target_precision(&scores, &labels, 0.5).is_none());
    }

    #[test]
    #[should_panic(expected = "threshold must be a probability")]
    fn invalid_threshold_panics() {
        let _ = PrecomputePolicy::with_threshold(1.5);
    }

    #[test]
    fn with_threshold_for_target_records_both() {
        let p = PrecomputePolicy::with_threshold_for_target(0.5, 0.6);
        assert!((p.threshold() - 0.5).abs() < 1e-12);
        assert_eq!(p.target_precision(), Some(0.6));
    }

    #[test]
    #[should_panic(expected = "target precision must be a probability")]
    fn invalid_target_panics() {
        let _ = PrecomputePolicy::with_threshold_for_target(0.5, 1.2);
    }

    #[test]
    fn recalibrate_refits_threshold_on_fresh_scores() {
        let policy =
            PrecomputePolicy::for_target_precision(&[0.9, 0.2], &[true, false], 0.9).unwrap();
        // On a fresh sample where positives score lower, the threshold moves.
        let fresh_scores = [0.6, 0.5, 0.4, 0.3];
        let fresh_labels = [true, true, false, false];
        let refit = policy.recalibrate(&fresh_scores, &fresh_labels).unwrap();
        assert_eq!(refit.target_precision(), Some(0.9));
        assert!((refit.threshold() - 0.5).abs() < 1e-12);
        // An unachievable target on the new sample reports failure.
        assert!(policy.recalibrate(&[0.9], &[false]).is_none());
        // A target-less policy passes through unchanged.
        let fixed = PrecomputePolicy::with_threshold(0.3);
        assert_eq!(fixed.recalibrate(&[0.1], &[false]).unwrap(), fixed);
    }

    #[test]
    fn recalibrate_rejects_degenerate_windows() {
        let policy = PrecomputePolicy::with_threshold_for_target(0.5, 0.6);
        // All-negative: the target is unachievable.
        assert!(policy.recalibrate(&[0.9, 0.2, 0.4], &[false; 3]).is_none());
        // All-positive: "any threshold works" is no signal — before the fix
        // this collapsed the threshold to the lowest observed score.
        assert!(policy.recalibrate(&[0.9, 0.2, 0.4], &[true; 3]).is_none());
        // Empty window: nothing to calibrate on.
        assert!(policy.recalibrate(&[], &[]).is_none());
        // One positive among negatives is already enough to refit.
        assert!(policy
            .recalibrate(&[0.9, 0.2, 0.4], &[true, false, false])
            .is_some());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Precision achieved on `(scores, labels)` when precomputing at
    /// `score >= threshold`; `None` when nothing triggers.
    fn achieved_precision(scores: &[f64], labels: &[bool], threshold: f64) -> Option<f64> {
        let (mut tp, mut fp) = (0u64, 0u64);
        for (&s, &l) in scores.iter().zip(labels) {
            if s >= threshold {
                if l {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
        (tp + fp > 0).then(|| tp as f64 / (tp + fp) as f64)
    }

    proptest! {
        #[test]
        fn calibrated_threshold_achieves_the_target(
            scores in prop::collection::vec(0.0f64..1.0, 1..150),
            labels in prop::collection::vec(any::<bool>(), 1..150),
            target in 0.05f64..0.95,
        ) {
            let n = scores.len().min(labels.len());
            let scores = &scores[..n];
            let labels = &labels[..n];
            if let Some(policy) =
                PrecomputePolicy::for_target_precision(scores, labels, target)
            {
                let precision = achieved_precision(scores, labels, policy.threshold())
                    .expect("calibrated threshold triggers at least once");
                prop_assert!(
                    precision >= target,
                    "target {target} but achieved {precision} at threshold {}",
                    policy.threshold()
                );
                prop_assert_eq!(policy.target_precision(), Some(target));
            }
        }

        #[test]
        fn threshold_is_monotone_in_the_target(
            scores in prop::collection::vec(0.0f64..1.0, 1..150),
            labels in prop::collection::vec(any::<bool>(), 1..150),
            t1 in 0.05f64..0.95,
            t2 in 0.05f64..0.95,
        ) {
            let n = scores.len().min(labels.len());
            let scores = &scores[..n];
            let labels = &labels[..n];
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let easy = PrecomputePolicy::for_target_precision(scores, labels, lo);
            let hard = PrecomputePolicy::for_target_precision(scores, labels, hi);
            // A harder target can become infeasible, but never *easier*:
            if easy.is_none() {
                prop_assert!(hard.is_none());
            }
            if let (Some(easy), Some(hard)) = (easy, hard) {
                prop_assert!(
                    easy.threshold() <= hard.threshold(),
                    "target {lo} -> threshold {}, target {hi} -> threshold {}",
                    easy.threshold(),
                    hard.threshold()
                );
            }
        }

        #[test]
        fn recalibration_is_a_no_op_on_degenerate_windows(
            scores in prop::collection::vec(0.0f64..1.0, 1..80),
            all_positive in any::<bool>(),
            target in 0.05f64..0.95,
            threshold in 0.0f64..1.0,
        ) {
            let policy = PrecomputePolicy::with_threshold_for_target(threshold, target);
            let labels = vec![all_positive; scores.len()];
            // A window whose labels are all one class carries no signal:
            // recalibrate must report `None` so the caller holds the
            // threshold it already has.
            prop_assert!(policy.recalibrate(&scores, &labels).is_none());
        }

        #[test]
        fn recalibrated_threshold_is_monotone_in_the_target_on_clean_windows(
            scores in prop::collection::vec(0.0f64..1.0, 2..120),
            labels in prop::collection::vec(any::<bool>(), 2..120),
            t1 in 0.05f64..0.95,
            t2 in 0.05f64..0.95,
        ) {
            let n = scores.len().min(labels.len());
            let scores = &scores[..n];
            let labels = &labels[..n];
            // Only clean (mixed-label) windows carry calibration signal.
            prop_assume!(labels.iter().any(|&l| l) && labels.iter().any(|&l| !l));
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let easy = PrecomputePolicy::with_threshold_for_target(0.5, lo)
                .recalibrate(scores, labels);
            let hard = PrecomputePolicy::with_threshold_for_target(0.5, hi)
                .recalibrate(scores, labels);
            // A harder target can become infeasible, but never *easier*, and
            // when both refit the harder target demands a higher threshold.
            if easy.is_none() {
                prop_assert!(hard.is_none());
            }
            if let (Some(easy), Some(hard)) = (easy, hard) {
                prop_assert!(
                    easy.threshold() <= hard.threshold(),
                    "target {lo} -> {}, target {hi} -> {}",
                    easy.threshold(),
                    hard.threshold()
                );
            }
        }

        #[test]
        fn recalibration_achieves_the_recorded_target_on_fresh_data(
            old_scores in prop::collection::vec(0.0f64..1.0, 1..80),
            old_labels in prop::collection::vec(any::<bool>(), 1..80),
            new_scores in prop::collection::vec(0.0f64..1.0, 1..80),
            new_labels in prop::collection::vec(any::<bool>(), 1..80),
            target in 0.05f64..0.95,
        ) {
            let n_old = old_scores.len().min(old_labels.len());
            let n_new = new_scores.len().min(new_labels.len());
            let old = (&old_scores[..n_old], &old_labels[..n_old]);
            let new = (&new_scores[..n_new], &new_labels[..n_new]);
            if let Some(policy) = PrecomputePolicy::for_target_precision(old.0, old.1, target) {
                if let Some(refit) = policy.recalibrate(new.0, new.1) {
                    let precision = achieved_precision(new.0, new.1, refit.threshold())
                        .expect("recalibrated threshold triggers at least once");
                    prop_assert!(precision >= target);
                    prop_assert_eq!(refit.target_precision(), Some(target));
                }
            }
        }
    }
}

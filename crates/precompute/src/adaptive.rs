//! Online threshold control.
//!
//! Offline calibration picks a threshold that hits the precision target on
//! held-out data; live traffic then drifts away from it (cold users arrive,
//! habits shift, score distributions move). The
//! [`AdaptiveThresholdController`] closes the loop: it watches resolved
//! prefetch outcomes in fixed-size windows and nudges the threshold
//! proportionally to the precision error, clamped to a safe band — a tiny
//! integral-free P-controller, which is enough because precision responds
//! monotonically to the threshold.

use crate::outcome::Outcome;
use crate::policy::PrecomputePolicy;

/// Controller tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// The precision the controller defends.
    pub target_precision: f64,
    /// Resolved prefetches per adjustment window.
    pub window: usize,
    /// Threshold step per unit of precision error.
    pub gain: f64,
    /// Lower clamp for the threshold.
    pub min_threshold: f64,
    /// Upper clamp for the threshold.
    pub max_threshold: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            target_precision: 0.6,
            window: 200,
            gain: 0.25,
            min_threshold: 0.01,
            max_threshold: 0.99,
        }
    }
}

/// One closed adjustment window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSnapshot {
    /// Precision observed over the window's resolved prefetches.
    pub observed_precision: f64,
    /// Threshold in force during the window.
    pub threshold_before: f64,
    /// Threshold after the adjustment.
    pub threshold_after: f64,
    /// Resolved prefetches in the window.
    pub prefetches: usize,
}

/// Nudges the decision threshold to hold a precision target online.
#[derive(Debug, Clone)]
pub struct AdaptiveThresholdController {
    config: ControllerConfig,
    threshold: f64,
    window_hits: usize,
    window_prefetches: usize,
    windows_closed: u64,
    last_snapshot: Option<WindowSnapshot>,
}

impl AdaptiveThresholdController {
    /// Creates a controller starting from `initial_threshold`.
    ///
    /// # Panics
    ///
    /// Panics unless the target is a probability, the window is positive,
    /// the gain is positive, and
    /// `0 <= min_threshold <= initial_threshold <= max_threshold <= 1`.
    pub fn new(initial_threshold: f64, config: ControllerConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.target_precision),
            "target precision must be a probability"
        );
        assert!(config.window > 0, "window must be positive");
        assert!(config.gain > 0.0, "gain must be positive");
        assert!(
            0.0 <= config.min_threshold
                && config.min_threshold <= initial_threshold
                && initial_threshold <= config.max_threshold
                && config.max_threshold <= 1.0,
            "thresholds must satisfy 0 <= min <= initial <= max <= 1"
        );
        Self {
            config,
            threshold: initial_threshold,
            window_hits: 0,
            window_prefetches: 0,
            windows_closed: 0,
            last_snapshot: None,
        }
    }

    /// The controller tuning.
    pub fn config(&self) -> ControllerConfig {
        self.config
    }

    /// The threshold currently in force.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The current operating point as a policy (threshold + defended
    /// target), ready to hand to a
    /// [`DecisionEngine`](crate::decision::DecisionEngine).
    pub fn policy(&self) -> PrecomputePolicy {
        PrecomputePolicy::with_threshold_for_target(self.threshold, self.config.target_precision)
    }

    /// Number of adjustment windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// The most recently closed window, if any.
    pub fn last_snapshot(&self) -> Option<WindowSnapshot> {
        self.last_snapshot
    }

    /// Moves the operating point to an externally computed threshold — the
    /// entry point for a recalibration fit on drained outcome samples —
    /// clamped to the controller's safe band. The open adjustment window
    /// keeps accumulating: an external move is a better estimate of the
    /// operating point, not a reason to discard its evidence.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold.clamp(self.config.min_threshold, self.config.max_threshold);
    }

    /// Feeds one resolved outcome. Only executed prefetches advance the
    /// window (skips say nothing about precision). When the window fills,
    /// the threshold moves by `gain × (target − observed)` — precision too
    /// low pushes the threshold *up* (prefetch less, more selectively),
    /// precision above target relaxes it *down* to recover recall — and the
    /// closed window is returned.
    pub fn observe(&mut self, outcome: Outcome) -> Option<WindowSnapshot> {
        match outcome {
            Outcome::Hit => {
                self.window_hits += 1;
                self.window_prefetches += 1;
            }
            Outcome::WastedPrefetch | Outcome::ExpiredPrefetch => {
                self.window_prefetches += 1;
            }
            Outcome::MissedAccess | Outcome::CorrectSkip => return None,
        }
        if self.window_prefetches < self.config.window {
            return None;
        }
        let observed = self.window_hits as f64 / self.window_prefetches as f64;
        let error = self.config.target_precision - observed;
        let before = self.threshold;
        self.threshold = (self.threshold + self.config.gain * error)
            .clamp(self.config.min_threshold, self.config.max_threshold);
        let snapshot = WindowSnapshot {
            observed_precision: observed,
            threshold_before: before,
            threshold_after: self.threshold,
            prefetches: self.window_prefetches,
        };
        self.window_hits = 0;
        self.window_prefetches = 0;
        self.windows_closed += 1;
        self.last_snapshot = Some(snapshot);
        Some(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(window: usize) -> AdaptiveThresholdController {
        AdaptiveThresholdController::new(
            0.5,
            ControllerConfig {
                target_precision: 0.6,
                window,
                gain: 0.25,
                min_threshold: 0.05,
                max_threshold: 0.95,
            },
        )
    }

    #[test]
    fn low_precision_raises_the_threshold() {
        let mut c = controller(4);
        // 1 hit in 4 prefetches: precision 0.25, far below target 0.6.
        assert!(c.observe(Outcome::Hit).is_none());
        assert!(c.observe(Outcome::WastedPrefetch).is_none());
        assert!(c.observe(Outcome::WastedPrefetch).is_none());
        let snapshot = c.observe(Outcome::ExpiredPrefetch).unwrap();
        assert!((snapshot.observed_precision - 0.25).abs() < 1e-12);
        assert!(snapshot.threshold_after > snapshot.threshold_before);
        assert!((c.threshold() - (0.5 + 0.25 * (0.6 - 0.25))).abs() < 1e-12);
        assert_eq!(c.windows_closed(), 1);
    }

    #[test]
    fn high_precision_relaxes_the_threshold() {
        let mut c = controller(4);
        for _ in 0..3 {
            assert!(c.observe(Outcome::Hit).is_none());
        }
        let snapshot = c.observe(Outcome::Hit).unwrap();
        assert!((snapshot.observed_precision - 1.0).abs() < 1e-12);
        assert!(c.threshold() < 0.5, "threshold should relax to buy recall");
    }

    #[test]
    fn skips_and_misses_do_not_advance_the_window() {
        let mut c = controller(2);
        for _ in 0..100 {
            assert!(c.observe(Outcome::CorrectSkip).is_none());
            assert!(c.observe(Outcome::MissedAccess).is_none());
        }
        assert_eq!(c.windows_closed(), 0);
        assert!((c.threshold() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn threshold_stays_clamped_forever() {
        let mut c = controller(1);
        // Hammer with pure waste: threshold must stop at the max clamp.
        for _ in 0..200 {
            let _ = c.observe(Outcome::WastedPrefetch);
        }
        assert!((c.threshold() - 0.95).abs() < 1e-12);
        // And pure hits walk it down to the min clamp.
        for _ in 0..200 {
            let _ = c.observe(Outcome::Hit);
        }
        assert!((c.threshold() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn external_threshold_moves_are_clamped_to_the_safe_band() {
        let mut c = controller(4);
        c.set_threshold(0.62);
        assert!((c.threshold() - 0.62).abs() < 1e-12);
        c.set_threshold(1.0);
        assert!((c.threshold() - 0.95).abs() < 1e-12);
        c.set_threshold(0.0);
        assert!((c.threshold() - 0.05).abs() < 1e-12);
        // The open window's evidence is retained: one more waste after the
        // move still closes the 4-wide window with full counts.
        c.set_threshold(0.5);
        for _ in 0..3 {
            assert!(c.observe(Outcome::Hit).is_none());
        }
        let snapshot = c.observe(Outcome::WastedPrefetch).unwrap();
        assert_eq!(snapshot.prefetches, 4);
        assert!((snapshot.threshold_before - 0.5).abs() < 1e-12);
    }

    #[test]
    fn policy_carries_threshold_and_target() {
        let c = controller(8);
        let policy = c.policy();
        assert!((policy.threshold() - 0.5).abs() < 1e-12);
        assert_eq!(policy.target_precision(), Some(0.6));
    }

    #[test]
    fn converges_on_a_synthetic_score_stream() {
        // Scores uniform in [0, 1]; P(access | score s) = s. Precision at
        // threshold t is E[s | s >= t] = (1 + t) / 2, so holding precision
        // 0.75 needs t = 0.5. Start far away at 0.10 and let the controller
        // find it from outcomes alone.
        let mut c = AdaptiveThresholdController::new(
            0.10,
            ControllerConfig {
                target_precision: 0.75,
                window: 400,
                gain: 0.5,
                min_threshold: 0.01,
                max_threshold: 0.99,
            },
        );
        // Deterministic xorshift stream.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..400_000 {
            let score = next();
            if score >= c.threshold() {
                let accessed = next() < score;
                let _ = c.observe(if accessed {
                    Outcome::Hit
                } else {
                    Outcome::WastedPrefetch
                });
            }
        }
        assert!(c.windows_closed() > 50);
        assert!(
            (c.threshold() - 0.5).abs() < 0.1,
            "controller should settle near 0.5, got {}",
            c.threshold()
        );
        let observed = c.last_snapshot().unwrap().observed_precision;
        assert!(
            (observed - 0.75).abs() < 0.05,
            "window precision should track the target, got {observed}"
        );
    }
}

//! Online-experiment replay (paper §9, Figure 7).
//!
//! The paper's online experiment compares the productionized RNN against the
//! incumbent GBDT on users that start with an *empty history*, tracking
//! PR-AUC day by day for 30 days (cold-start behaviour) and the lift in
//! successful prefetches at a threshold targeting 60% precision.
//!
//! Here the experiment is a replay over held-out synthetic users: both
//! models score every session of every day, with features/hidden states
//! built strictly from the sessions before each prediction, and metrics are
//! sliced by day since the start of the experiment.

use pp_baselines::features::{build_session_examples, BaselineFeaturizer};
use pp_baselines::Gbdt;
use pp_data::schema::Dataset;
use pp_metrics::pr::PrCurve;
use pp_rnn::{RnnModel, RnnTrainer, ScoredPrediction, TrainerConfig};

/// Daily metrics of one model during the online replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DailyMetric {
    /// Day since the start of the experiment (0-based).
    pub day: u32,
    /// Number of predictions served that day.
    pub predictions: usize,
    /// Number of accesses that day.
    pub accesses: usize,
    /// PR-AUC over that day's predictions (0 when the day has no positives).
    pub pr_auc: f64,
}

/// Result of the online comparison between the RNN and the GBDT.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineComparison {
    /// Daily PR-AUC of the RNN model (Figure 7, "RNN" series).
    pub rnn_daily: Vec<DailyMetric>,
    /// Daily PR-AUC of the GBDT model (Figure 7, "GBDT" series).
    pub gbdt_daily: Vec<DailyMetric>,
    /// Recall of the RNN at the target precision (paper: 51.1% at 60%).
    pub rnn_recall_at_target: f64,
    /// Recall of the GBDT at the target precision (paper: 47.4% at 60%).
    pub gbdt_recall_at_target: f64,
    /// Relative increase in successful prefetches,
    /// `(rnn_recall − gbdt_recall) / gbdt_recall` (paper: +7.81%).
    pub successful_prefetch_lift: f64,
    /// The target precision used for the thresholds.
    pub target_precision: f64,
}

/// Groups scored predictions by day and computes daily PR-AUC.
fn daily_metrics(predictions: &[ScoredPrediction], num_days: u32) -> Vec<DailyMetric> {
    (0..num_days)
        .map(|day| {
            let day_preds: Vec<&ScoredPrediction> =
                predictions.iter().filter(|p| p.day_offset == day).collect();
            let scores: Vec<f64> = day_preds.iter().map(|p| p.score).collect();
            let labels: Vec<bool> = day_preds.iter().map(|p| p.label).collect();
            let accesses = labels.iter().filter(|&&l| l).count();
            let pr_auc = if accesses == 0 || scores.is_empty() {
                0.0
            } else {
                PrCurve::compute(&scores, &labels).auc()
            };
            DailyMetric {
                day,
                predictions: scores.len(),
                accesses,
                pr_auc,
            }
        })
        .collect()
}

/// Runs the online comparison on a set of held-out users.
///
/// Both models were trained elsewhere (on the training users); here they
/// only score. `target_precision` is the operating constraint used to pick
/// each model's own threshold (the paper uses 60% for MobileTab).
pub fn run_online_comparison(
    rnn: &RnnModel,
    gbdt: &Gbdt,
    gbdt_featurizer: &BaselineFeaturizer,
    dataset: &Dataset,
    test_users: &[usize],
    target_precision: f64,
) -> OnlineComparison {
    // RNN: score every session of the test users (no last-days filter — the
    // whole point is to watch the cold start).
    let trainer = RnnTrainer::new(TrainerConfig::default());
    let rnn_scored = trainer.evaluate(rnn, dataset, test_users, None);

    // GBDT: build examples over the same sessions with warm-up-free features
    // (every user starts cold at day 0, matching the experiment design).
    let examples = build_session_examples(dataset, test_users, gbdt_featurizer, None);
    let gbdt_scores = gbdt.predict_batch(&examples);
    let gbdt_scored: Vec<ScoredPrediction> = examples
        .iter()
        .zip(&gbdt_scores)
        .map(|(e, &score)| ScoredPrediction {
            user_index: e.user_index,
            day_offset: e.day_offset,
            score,
            label: e.label,
        })
        .collect();

    let rnn_daily = daily_metrics(&rnn_scored, dataset.num_days);
    let gbdt_daily = daily_metrics(&gbdt_scored, dataset.num_days);

    // Operating point: each model maximizes recall subject to the precision
    // constraint, exactly how thresholds are chosen in production (§8–9).
    let recall_at = |scored: &[ScoredPrediction]| {
        let scores: Vec<f64> = scored.iter().map(|p| p.score).collect();
        let labels: Vec<bool> = scored.iter().map(|p| p.label).collect();
        PrCurve::compute(&scores, &labels).recall_at_precision(target_precision)
    };
    let rnn_recall = recall_at(&rnn_scored);
    let gbdt_recall = recall_at(&gbdt_scored);
    let lift = if gbdt_recall > 0.0 {
        (rnn_recall - gbdt_recall) / gbdt_recall
    } else {
        0.0
    };
    OnlineComparison {
        rnn_daily,
        gbdt_daily,
        rnn_recall_at_target: rnn_recall,
        gbdt_recall_at_target: gbdt_recall,
        successful_prefetch_lift: lift,
        target_precision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_baselines::features::{ElapsedEncoding, FeatureSet};
    use pp_data::schema::DatasetKind;
    use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
    use pp_rnn::{RnnModelConfig, TaskKind};

    #[test]
    fn daily_metrics_slice_by_day() {
        let preds = vec![
            ScoredPrediction {
                user_index: 0,
                day_offset: 0,
                score: 0.9,
                label: true,
            },
            ScoredPrediction {
                user_index: 0,
                day_offset: 0,
                score: 0.1,
                label: false,
            },
            ScoredPrediction {
                user_index: 1,
                day_offset: 1,
                score: 0.8,
                label: true,
            },
        ];
        let daily = daily_metrics(&preds, 3);
        assert_eq!(daily.len(), 3);
        assert_eq!(daily[0].predictions, 2);
        assert_eq!(daily[0].accesses, 1);
        assert!((daily[0].pr_auc - 1.0).abs() < 1e-12);
        assert_eq!(daily[1].predictions, 1);
        assert_eq!(daily[2].predictions, 0);
        assert_eq!(daily[2].pr_auc, 0.0);
    }

    #[test]
    fn online_comparison_produces_full_series() {
        let ds = MobileTabGenerator::new(MobileTabConfig {
            num_users: 12,
            num_days: 6,
            ..Default::default()
        })
        .generate();
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let featurizer =
            BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
        let examples = build_session_examples(&ds, &idx, &featurizer, None);
        let gbdt = Gbdt::train(
            &examples,
            pp_baselines::GbdtConfig {
                num_trees: 10,
                max_depth: 3,
                ..Default::default()
            },
        );
        let rnn = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::tiny(),
            0,
        );
        let cmp = run_online_comparison(&rnn, &gbdt, &featurizer, &ds, &idx, 0.5);
        assert_eq!(cmp.rnn_daily.len(), 6);
        assert_eq!(cmp.gbdt_daily.len(), 6);
        assert!(cmp.rnn_recall_at_target >= 0.0 && cmp.rnn_recall_at_target <= 1.0);
        assert!(cmp.gbdt_recall_at_target >= 0.0 && cmp.gbdt_recall_at_target <= 1.0);
        assert_eq!(cmp.target_precision, 0.5);
        // Both series cover the same sessions.
        let rnn_total: usize = cmp.rnn_daily.iter().map(|d| d.predictions).sum();
        let gbdt_total: usize = cmp.gbdt_daily.iter().map(|d| d.predictions).sum();
        assert_eq!(rnn_total, gbdt_total);
        assert_eq!(rnn_total, ds.num_sessions());
    }
}

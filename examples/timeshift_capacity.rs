//! Timeshifted precompute scenario (§3.2.1, §4.2): several hours before the
//! peak window, predict which users will need a data query during peak hours
//! so its computation can be shifted to off-peak capacity.
//!
//! The example trains the percentage baseline, a GBDT and the RNN on the
//! timeshifted task, then reports how much peak work could be shifted at a
//! 50% precision constraint.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example timeshift_capacity
//! ```

use predictive_precompute::core::{run_offline_experiment, ModelKind, OfflineExperimentConfig};
use predictive_precompute::data::synth::{
    SyntheticGenerator, TimeshiftConfig, TimeshiftGenerator, PEAK_END_HOUR, PEAK_START_HOUR,
};
use predictive_precompute::precompute::PrecomputePolicy;
use predictive_precompute::rnn::{RnnModelConfig, TrainerConfig};

fn main() {
    let dataset = TimeshiftGenerator::new(TimeshiftConfig {
        num_users: 400,
        num_days: 21,
        ..Default::default()
    })
    .generate();
    println!(
        "Timeshift: {} users, {} website sessions, session-level positive rate {:.1}%",
        dataset.num_users(),
        dataset.num_sessions(),
        dataset.positive_rate() * 100.0
    );
    println!(
        "Peak window: {PEAK_START_HOUR}:00–{PEAK_END_HOUR}:00 UTC; predictions are made 6h ahead."
    );

    let config = OfflineExperimentConfig {
        rnn_model: RnnModelConfig {
            hidden_dim: 32,
            mlp_width: 32,
            ..Default::default()
        },
        rnn_trainer: TrainerConfig {
            epochs: 1,
            train_last_days: 14,
            ..Default::default()
        },
        ..OfflineExperimentConfig::fast()
    };
    let models = [ModelKind::PercentageBased, ModelKind::Gbdt, ModelKind::Rnn];
    println!(
        "\nTraining {} models on the timeshifted task…",
        models.len()
    );
    let evals = run_offline_experiment(&dataset, &models, &config);

    println!(
        "\n{:<18}{:>10}{:>14}{:>22}",
        "MODEL", "PR-AUC", "RECALL@50%P", "PEAK WORK SHIFTED"
    );
    for eval in &evals {
        // At a 50% precision constraint, every successful precompute moves
        // one peak-hours query to off-peak; recall is exactly the fraction of
        // peak work shifted.
        let policy = PrecomputePolicy::for_target_precision(&eval.scores, &eval.labels, 0.5);
        let shifted = match &policy {
            Some(p) => {
                let triggered = eval
                    .scores
                    .iter()
                    .zip(&eval.labels)
                    .filter(|(s, &l)| p.should_precompute(**s) && l)
                    .count();
                let total_accesses = eval.labels.iter().filter(|&&l| l).count().max(1);
                triggered as f64 / total_accesses as f64
            }
            None => 0.0,
        };
        println!(
            "{:<18}{:>10.3}{:>14.3}{:>21.1}%",
            eval.model.to_string(),
            eval.report.pr_auc,
            eval.report.recall_at_50_precision,
            shifted * 100.0
        );
    }
    println!(
        "\nHigher recall at the precision constraint means more peak-hours computation \
         can be moved to off-peak capacity (the paper's motivation for the timeshifted task)."
    );
}

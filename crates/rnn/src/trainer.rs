//! Training and evaluation loops for the recurrent model (paper §7).
//!
//! The paper's recipe, reproduced here:
//!
//! * Adam with learning rate `1e-3`, dropout 0.2 inside the MLP;
//! * the loss is the average log loss over the predictions of the **last 21
//!   days** only (earlier predictions have too little history and
//!   over-weight cold-start errors);
//! * minibatches of 10 users, each user's sequence evaluated independently
//!   and gradients accumulated — optionally on separate threads, which is
//!   the paper's alternative to padded batching (§7.1, "models train twice
//!   as quickly with this approach");
//! * user histories truncated to the most recent 10,000 sessions.

use crate::model::{RnnModel, TaskKind};
use crate::sequence::{plan_per_session, plan_timeshift, LagConfig, UserSequencePlan};
use pp_data::schema::{Dataset, UserHistory};
use pp_data::synth::build_peak_window_examples;
use pp_nn::activation::sigmoid;
use pp_nn::graph::{Graph, NodeId};
use pp_nn::optim::{Adam, AdamConfig, Optimizer};
use pp_nn::params::GradStore;
use pp_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Number of passes over the training users (paper: 1 for the large
    /// datasets, 8 for MPU).
    pub epochs: usize,
    /// Users per minibatch (paper: 10).
    pub minibatch_users: usize,
    /// Adam learning rate (paper: 1e-3).
    pub learning_rate: f32,
    /// Only predictions from the last `train_last_days` days contribute to
    /// the loss (paper: 21).
    pub train_last_days: u32,
    /// Truncate each user's history to this many most recent sessions
    /// (paper: 10,000 for MPU).
    pub max_history_sessions: usize,
    /// Evaluate minibatch users on separate threads (paper §7.1).
    pub parallel: bool,
    /// Global gradient-norm clip (0 disables clipping).
    pub grad_clip: f32,
    /// RNG seed (dropout masks, user shuffling).
    pub seed: u64,
    /// Lead time before the peak window for the timeshifted task.
    pub lead_time_secs: i64,
    /// Update-lag configuration; `None` selects the paper default for the
    /// dataset kind.
    pub lag: Option<LagConfig>,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            epochs: 1,
            minibatch_users: 10,
            learning_rate: 1e-3,
            train_last_days: 21,
            max_history_sessions: 10_000,
            parallel: true,
            grad_clip: 5.0,
            seed: 0,
            lead_time_secs: 6 * 3_600,
            lag: None,
        }
    }
}

impl TrainerConfig {
    /// A preset for training a model *inside* a running simulation or
    /// benchmark on a seeded warmup split: a couple of epochs over small
    /// parallel minibatches — enough for informative scores in seconds, not
    /// a paper-scale fit. Deterministic for a given `seed`.
    pub fn warmup(seed: u64) -> Self {
        Self {
            epochs: 2,
            minibatch_users: 8,
            seed,
            ..Self::default()
        }
    }
}

/// One point of the training-loss curve (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossTracePoint {
    /// Total number of sessions processed so far (across epochs).
    pub sessions_processed: u64,
    /// Epoch this point belongs to (0-based).
    pub epoch: usize,
    /// Mean training log loss over the minibatch.
    pub log_loss: f64,
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Minibatch-level loss curve (Figure 4).
    pub loss_trace: Vec<LossTracePoint>,
    /// Total prediction/label pairs that contributed to the loss.
    pub total_predictions: u64,
    /// Total sessions processed (hidden-state updates), across epochs.
    pub total_sessions: u64,
    /// Number of epochs run.
    pub epochs: usize,
    /// Wall-clock training time in seconds.
    pub wall_time_secs: f64,
}

/// A single scored prediction produced by evaluation, with enough metadata
/// to slice metrics by day (Figure 7) or by user.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoredPrediction {
    /// Index of the user in the dataset.
    pub user_index: usize,
    /// Day offset relative to the dataset start.
    pub day_offset: u32,
    /// Predicted access probability.
    pub score: f64,
    /// Ground-truth label.
    pub label: bool,
}

/// Trainer for [`RnnModel`]s.
#[derive(Debug, Clone, Copy)]
pub struct RnnTrainer {
    config: TrainerConfig,
}

impl RnnTrainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainerConfig) -> Self {
        Self { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> TrainerConfig {
        self.config
    }

    fn lag_for(&self, model: &RnnModel) -> LagConfig {
        self.config
            .lag
            .unwrap_or_else(|| LagConfig::for_kind(model.kind()))
    }

    /// Builds the (possibly truncated) sequence plan for one user.
    fn plan_user(
        &self,
        model: &RnnModel,
        dataset: &Dataset,
        user: &UserHistory,
        windows: Option<&[pp_data::synth::PeakWindowExample]>,
    ) -> UserSequencePlan {
        let lag = self.lag_for(model);
        let mut truncated;
        let user_ref = if user.len() > self.config.max_history_sessions {
            truncated = user.clone();
            truncated.truncate_to_recent(self.config.max_history_sessions);
            &truncated
        } else {
            user
        };
        match model.task() {
            TaskKind::PerSession => {
                plan_per_session(user_ref, model.featurizer(), lag, dataset.start_timestamp)
            }
            TaskKind::Timeshifted => plan_timeshift(
                user_ref,
                windows.expect("timeshift task requires peak windows"),
                model.featurizer(),
                lag,
                self.config.lead_time_secs,
                dataset.start_timestamp,
            ),
        }
    }

    fn windows_for(
        &self,
        model: &RnnModel,
        dataset: &Dataset,
    ) -> Option<Vec<pp_data::synth::PeakWindowExample>> {
        match model.task() {
            TaskKind::PerSession => None,
            TaskKind::Timeshifted => Some(build_peak_window_examples(
                dataset,
                self.config.lead_time_secs,
            )),
        }
    }

    /// Trains the model in place on the given users and returns a report.
    ///
    /// # Panics
    ///
    /// Panics if `train_user_indices` is empty.
    pub fn train(
        &self,
        model: &mut RnnModel,
        dataset: &Dataset,
        train_user_indices: &[usize],
    ) -> TrainingReport {
        assert!(
            !train_user_indices.is_empty(),
            "cannot train on an empty user set"
        );
        let start = Instant::now();
        let windows = self.windows_for(model, dataset);
        let first_train_day = dataset.num_days.saturating_sub(self.config.train_last_days);
        let mut adam = Adam::new(
            model.params(),
            AdamConfig {
                lr: self.config.learning_rate,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = train_user_indices.to_vec();
        let mut loss_trace = Vec::new();
        let mut total_predictions = 0u64;
        let mut total_sessions = 0u64;

        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(self.config.minibatch_users.max(1)) {
                // Build plans for the minibatch.
                let plans: Vec<(usize, UserSequencePlan)> = batch
                    .iter()
                    .map(|&ui| {
                        let mut plan =
                            self.plan_user(model, dataset, &dataset.users[ui], windows.as_deref());
                        plan.retain_predictions_from_day(first_train_day);
                        (ui, plan)
                    })
                    .collect();

                let batch_sessions: u64 = plans.iter().map(|(_, p)| p.num_updates() as u64).sum();
                let batch_predictions: u64 =
                    plans.iter().map(|(_, p)| p.num_predictions() as u64).sum();
                total_sessions += batch_sessions;
                if batch_predictions == 0 {
                    continue;
                }
                total_predictions += batch_predictions;

                // Per-user gradient computation (optionally on threads).
                let results = if self.config.parallel && plans.len() > 1 {
                    run_users_parallel(model, &plans, self.config.seed, epoch)
                } else {
                    plans
                        .iter()
                        .map(|(ui, plan)| user_gradients(model, plan, self.config.seed, epoch, *ui))
                        .collect()
                };

                // Merge in deterministic (user) order and average over the
                // number of prediction/label pairs in the minibatch.
                let mut grads = model.params().zero_grads();
                let mut loss_sum = 0.0f64;
                for r in &results {
                    grads.merge(&r.grads);
                    loss_sum += r.loss_sum;
                }
                grads.scale(1.0 / batch_predictions as f32);
                if self.config.grad_clip > 0.0 {
                    grads.clip_global_norm(self.config.grad_clip);
                }
                adam.step(model.params_mut(), &grads);
                loss_trace.push(LossTracePoint {
                    sessions_processed: total_sessions,
                    epoch,
                    log_loss: loss_sum / batch_predictions as f64,
                });
            }
        }
        TrainingReport {
            loss_trace,
            total_predictions,
            total_sessions,
            epochs: self.config.epochs,
            wall_time_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Forward-only evaluation: scores every retained prediction of the
    /// given users. `last_days = Some(7)` reproduces the paper's offline
    /// evaluation window; `None` scores every prediction.
    pub fn evaluate(
        &self,
        model: &RnnModel,
        dataset: &Dataset,
        user_indices: &[usize],
        last_days: Option<u32>,
    ) -> Vec<ScoredPrediction> {
        let windows = self.windows_for(model, dataset);
        let first_day = last_days.map(|d| dataset.num_days.saturating_sub(d));
        let mut out = Vec::new();
        for &ui in user_indices {
            let mut plan = self.plan_user(model, dataset, &dataset.users[ui], windows.as_deref());
            if let Some(first) = first_day {
                plan.retain_predictions_from_day(first);
            }
            score_user_plan(model, &plan, ui, &mut out);
        }
        out
    }
}

/// Result of one user's backward pass.
struct UserGradients {
    grads: GradStore,
    /// Sum (not mean) of the per-prediction log losses.
    loss_sum: f64,
}

/// Builds one user's full BPTT graph and returns the gradients of the
/// *summed* loss over the user's retained predictions.
fn user_gradients(
    model: &RnnModel,
    plan: &UserSequencePlan,
    seed: u64,
    epoch: usize,
    user_index: usize,
) -> UserGradients {
    let mut graph = Graph::new();
    // Deterministic per-(user, epoch) dropout stream so that parallel and
    // sequential execution produce identical gradients.
    let mut rng = StdRng::seed_from_u64(
        seed ^ (user_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (epoch as u64) << 32,
    );

    // Hidden-state chain: h_0 = 0, h_i = update(h_{i-1}, x_i).
    let mut hidden_nodes: Vec<NodeId> = Vec::with_capacity(plan.num_updates() + 1);
    hidden_nodes.push(graph.constant(Tensor::zeros(1, model.state_dim())));
    // Only build updates up to the last one any prediction needs; later
    // updates cannot influence the loss.
    let max_needed = plan
        .predictions
        .iter()
        .map(|p| p.hidden_index)
        .max()
        .unwrap_or(0);
    for step in plan.updates.iter().take(max_needed) {
        let x = graph.constant(Tensor::from_row(&step.update_input));
        let prev = *hidden_nodes.last().expect("h_0 exists");
        let next = model.update_node(&mut graph, prev, x);
        hidden_nodes.push(next);
    }

    let mut loss_sum_node: Option<NodeId> = None;
    for p in &plan.predictions {
        let x = graph.constant(Tensor::from_row(&p.predict_input));
        let h = hidden_nodes[p.hidden_index];
        let logit = model.predict_logit_node(&mut graph, h, x, true, &mut rng);
        let target = Tensor::from_row(&[p.label as u8 as f32]);
        let loss = graph.bce_with_logits(logit, target, None);
        loss_sum_node = Some(match loss_sum_node {
            Some(acc) => graph.add(acc, loss),
            None => loss,
        });
    }

    let mut grads = model.params().zero_grads();
    let mut loss_sum = 0.0f64;
    if let Some(loss_node) = loss_sum_node {
        loss_sum = graph.value(loss_node).at(0, 0) as f64;
        graph.backward(loss_node);
        graph.param_grads_into(&mut grads);
    }
    UserGradients { grads, loss_sum }
}

/// Runs [`user_gradients`] for each user of a minibatch on its own thread
/// (paper §7.1's alternative to padded batching). Results are returned in
/// the input order so that gradient merging stays deterministic.
fn run_users_parallel(
    model: &RnnModel,
    plans: &[(usize, UserSequencePlan)],
    seed: u64,
    epoch: usize,
) -> Vec<UserGradients> {
    let mut results: Vec<Option<UserGradients>> = Vec::new();
    results.resize_with(plans.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(plans.len());
        for (slot, (ui, plan)) in results.iter_mut().zip(plans.iter()) {
            let ui = *ui;
            handles.push(scope.spawn(move || {
                *slot = Some(user_gradients(model, plan, seed, epoch, ui));
            }));
        }
        for h in handles {
            h.join().expect("worker thread panicked");
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every user produced gradients"))
        .collect()
}

/// Scores a user's plan forward-only (no gradients, dropout off).
fn score_user_plan(
    model: &RnnModel,
    plan: &UserSequencePlan,
    user_index: usize,
    out: &mut Vec<ScoredPrediction>,
) {
    if plan.predictions.is_empty() {
        return;
    }
    let max_needed = plan
        .predictions
        .iter()
        .map(|p| p.hidden_index)
        .max()
        .unwrap_or(0);
    // Materialize the hidden states the predictions need.
    let mut states: Vec<Vec<f32>> = Vec::with_capacity(max_needed + 1);
    states.push(model.initial_state());
    for step in plan.updates.iter().take(max_needed) {
        let next = model.advance_state(states.last().expect("h_0"), &step.update_input);
        states.push(next);
    }
    for p in &plan.predictions {
        let score = model.predict_proba(&states[p.hidden_index], &p.predict_input);
        out.push(ScoredPrediction {
            user_index,
            day_offset: p.day_offset,
            score,
            label: p.label,
        });
    }
}

/// Splits scored predictions into `(scores, labels)` vectors for the metrics
/// crate.
pub fn scores_and_labels(predictions: &[ScoredPrediction]) -> (Vec<f64>, Vec<bool>) {
    (
        predictions.iter().map(|p| p.score).collect(),
        predictions.iter().map(|p| p.label).collect(),
    )
}

/// Convenience for tests and docs: `sigmoid` of a logit.
pub fn logit_to_probability(logit: f32) -> f64 {
    sigmoid(logit) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RnnModelConfig;
    use pp_data::schema::DatasetKind;
    use pp_data::synth::{
        MobileTabConfig, MobileTabGenerator, SyntheticGenerator, TimeshiftConfig,
        TimeshiftGenerator,
    };
    use pp_metrics::pr::pr_auc;

    fn tiny_dataset(users: usize) -> Dataset {
        MobileTabGenerator::new(MobileTabConfig {
            num_users: users,
            num_days: 10,
            ..Default::default()
        })
        .generate()
    }

    fn tiny_trainer(parallel: bool) -> RnnTrainer {
        RnnTrainer::new(TrainerConfig {
            epochs: 1,
            minibatch_users: 4,
            train_last_days: 8,
            parallel,
            ..Default::default()
        })
    }

    fn tiny_model() -> RnnModel {
        RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::tiny(),
            1,
        )
    }

    #[test]
    fn training_reduces_loss_on_a_small_dataset() {
        let ds = tiny_dataset(24);
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let mut model = tiny_model();
        let trainer = RnnTrainer::new(TrainerConfig {
            epochs: 3,
            minibatch_users: 6,
            train_last_days: 8,
            parallel: false,
            ..Default::default()
        });
        let report = trainer.train(&mut model, &ds, &idx);
        assert!(report.total_predictions > 0);
        assert!(!report.loss_trace.is_empty());
        // Average loss over the first quarter of minibatches should exceed
        // that of the last quarter (the model is learning).
        let n = report.loss_trace.len();
        let quarter = (n / 4).max(1);
        let early: f64 = report.loss_trace[..quarter]
            .iter()
            .map(|p| p.log_loss)
            .sum::<f64>()
            / quarter as f64;
        let late: f64 = report.loss_trace[n - quarter..]
            .iter()
            .map(|p| p.log_loss)
            .sum::<f64>()
            / quarter as f64;
        assert!(
            late < early,
            "training loss should decrease (early {early:.4} vs late {late:.4})"
        );
    }

    #[test]
    fn evaluation_produces_scores_for_last_days_only() {
        let ds = tiny_dataset(10);
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let model = tiny_model();
        let trainer = tiny_trainer(false);
        let scored = trainer.evaluate(&model, &ds, &idx, Some(3));
        assert!(!scored.is_empty());
        assert!(scored.iter().all(|s| s.day_offset >= ds.num_days - 3));
        assert!(scored.iter().all(|s| (0.0..=1.0).contains(&s.score)));
        let all = trainer.evaluate(&model, &ds, &idx, None);
        assert!(all.len() > scored.len());
    }

    #[test]
    fn parallel_and_sequential_training_agree() {
        let ds = tiny_dataset(8);
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let mut seq_model = tiny_model();
        let mut par_model = tiny_model();
        tiny_trainer(false).train(&mut seq_model, &ds, &idx);
        tiny_trainer(true).train(&mut par_model, &ds, &idx);
        // Same seeds, same per-user dropout streams, deterministic merge
        // order ⇒ identical parameters up to float associativity; compare
        // predictions loosely.
        let scored_seq = tiny_trainer(false).evaluate(&seq_model, &ds, &idx, Some(3));
        let scored_par = tiny_trainer(false).evaluate(&par_model, &ds, &idx, Some(3));
        assert_eq!(scored_seq.len(), scored_par.len());
        for (a, b) in scored_seq.iter().zip(&scored_par) {
            assert!(
                (a.score - b.score).abs() < 1e-4,
                "parallel and sequential training diverged: {} vs {}",
                a.score,
                b.score
            );
        }
    }

    #[test]
    fn trained_model_beats_untrained_on_held_out_users() {
        let ds = tiny_dataset(40);
        let train_idx: Vec<usize> = (0..32).collect();
        let test_idx: Vec<usize> = (32..40).collect();
        let trainer = RnnTrainer::new(TrainerConfig {
            epochs: 3,
            minibatch_users: 8,
            train_last_days: 8,
            parallel: true,
            ..Default::default()
        });
        let untrained = tiny_model();
        let mut trained = tiny_model();
        trainer.train(&mut trained, &ds, &train_idx);
        let (s0, l0) = scores_and_labels(&trainer.evaluate(&untrained, &ds, &test_idx, Some(5)));
        let (s1, l1) = scores_and_labels(&trainer.evaluate(&trained, &ds, &test_idx, Some(5)));
        assert_eq!(l0, l1);
        if l0.iter().any(|&l| l) {
            let auc0 = pr_auc(&s0, &l0);
            let auc1 = pr_auc(&s1, &l1);
            assert!(
                auc1 > auc0 - 0.02,
                "training should not hurt held-out PR-AUC ({auc0:.3} → {auc1:.3})"
            );
        }
    }

    #[test]
    fn timeshift_task_trains_and_evaluates() {
        let ds = TimeshiftGenerator::new(TimeshiftConfig {
            num_users: 12,
            num_days: 10,
            ..Default::default()
        })
        .generate();
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let mut model = RnnModel::new(
            DatasetKind::Timeshift,
            TaskKind::Timeshifted,
            RnnModelConfig::tiny(),
            2,
        );
        let trainer = RnnTrainer::new(TrainerConfig {
            epochs: 1,
            minibatch_users: 4,
            train_last_days: 8,
            parallel: false,
            ..Default::default()
        });
        let report = trainer.train(&mut model, &ds, &idx);
        assert!(report.total_predictions > 0);
        let scored = trainer.evaluate(&model, &ds, &idx, Some(5));
        // One prediction per user per evaluated day.
        assert_eq!(scored.len(), 12 * 5);
    }

    #[test]
    fn warmup_preset_is_small_and_seeded() {
        let c = TrainerConfig::warmup(9);
        assert_eq!(c.seed, 9);
        assert_eq!(c.epochs, 2);
        assert_eq!(c.minibatch_users, 8);
        assert!(c.parallel);
    }

    #[test]
    fn loss_trace_session_counts_are_monotone() {
        let ds = tiny_dataset(12);
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let mut model = tiny_model();
        let report = tiny_trainer(false).train(&mut model, &ds, &idx);
        assert!(report
            .loss_trace
            .windows(2)
            .all(|w| w[0].sessions_processed <= w[1].sessions_processed));
        assert!(report.wall_time_secs > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty user set")]
    fn empty_training_set_panics() {
        let ds = tiny_dataset(2);
        let mut model = tiny_model();
        let _ = tiny_trainer(false).train(&mut model, &ds, &[]);
    }
}

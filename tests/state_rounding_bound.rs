//! The score-movement bound behind the store's bf16 rows: storing a hidden
//! state as bf16 moves no served probability by more than ε = 0.01 (one
//! percentage point of access probability), and flips at most 0.1 % of the
//! precompute decisions at the calibrated threshold.
//!
//! An H = 64 GRU is trained with the `precompute_loop` benchmark's trainer
//! preset (`TrainerConfig::warmup`, 4 epochs, one user at a time, 30 days of
//! MobileTab) and its threshold calibrated for precision 0.6 on the training
//! users, as that workload does. The held-out
//! users' sessions are then replayed twice — predict, then update, per
//! session in time order — with the same model calls: once keeping each
//! user's state as `f32`, once putting every updated state into a
//! [`ShardedStateStore`] and reading it back before the next prediction.
//! The two replays differ only by the store's rounding, which compounds
//! through every later update.
//!
//! Two figures are printed beside the measured ones:
//! * the per-read analytic bound. A read returns each `hₖ` within
//!   2⁻⁸ · |hₖ| (bf16 keeps 8 significant bits, so half a step is 2⁻⁸ of the
//!   value), the latent cross scales it by `|1 + Lₖ|`, the ReLU layer is
//!   1-Lipschitz and the sigmoid ¼-Lipschitz, so one read moves the
//!   probability by at most
//!   2⁻⁸ · ¼ · Σⱼ |w_outⱼ| · Σₖ |W_mlp[k][j]| · |1 + Lₖ| · |hₖ|.
//!   Every read's measured movement is checked against its bound; the bound
//!   does not cover the compounding through updates, which the replay does;
//! * the scores' mass within ε of the threshold: a decision can only flip
//!   where the `f32` score is within the score movement of the threshold,
//!   so this many decisions bound the flips.
//!
//! The default test trains on 48 users and replays 96 (5,247 predictions,
//! ≈ 9 s in the debug build). The ignored one trains on the workload's 96
//! and replays its 3,904 held-out users (246,689 predictions, ≈ 15 s in
//! release): `cargo test --release --test state_rounding_bound -- --ignored
//! --nocapture`. Seed 23 reads, in that order: max |Δp| 3.6e-4 and 1.3e-3,
//! 2 and 12 decisions flipped.

use predictive_precompute::data::schema::{Session, UserId};
use predictive_precompute::data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
use predictive_precompute::data::{Dataset, DatasetKind};
use predictive_precompute::precompute::PrecomputePolicy;
use predictive_precompute::rnn::{
    scores_and_labels, RnnModel, RnnModelConfig, RnnTrainer, TaskKind, TrainerConfig,
};
use predictive_precompute::serving::ShardedStateStore;
use std::collections::HashMap;

/// Largest allowed movement of one served probability.
const EPSILON: f64 = 0.01;
/// Largest allowed share of decisions flipped at the calibrated threshold.
const MAX_FLIP_SHARE: f64 = 0.001;
const HIDDEN: usize = 64;
const DAYS: u32 = 30;
const TARGET_PRECISION: f64 = 0.6;
/// bf16's largest relative rounding error: half a step of its 8
/// significant bits.
const BF16_REL: f64 = 1.0 / 256.0;
/// Slack for the `f32` arithmetic of the two forward passes a measured
/// per-read movement is the difference of.
const ARITHMETIC_SLACK: f64 = 1e-6;

/// The head's weights the per-read bound is made of.
struct Head {
    hidden: usize,
    width: usize,
    /// `predict_dims × hidden`, then `1 × hidden`.
    latent_w: Vec<f32>,
    latent_b: Vec<f32>,
    /// `(hidden + predict_dims) × width`; rows below `hidden` take `h'`.
    mlp_w: Vec<f32>,
    /// `width × 1`.
    out_w: Vec<f32>,
}

impl Head {
    fn of(model: &RnnModel) -> Self {
        let param = |name: &str| {
            let id = model
                .params()
                .find(name)
                .unwrap_or_else(|| panic!("{name}"));
            model.params().get(id).as_slice().to_vec()
        };
        let config = model.config();
        Self {
            hidden: config.hidden_dim,
            width: config.mlp_width,
            latent_w: param("latent_cross.weight"),
            latent_b: param("latent_cross.bias"),
            mlp_w: param("mlp.hidden.weight"),
            out_w: param("mlp.out.weight"),
        }
    }

    /// The most one read of `state` can move the probability predicted
    /// from it with `input`.
    fn read_bound(&self, state: &[f32], input: &[f32]) -> f64 {
        // The prediction input is mostly one-hot: L(f) sums its few nonzeros.
        let active: Vec<(usize, f64)> = input
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f != 0.0)
            .map(|(i, &f)| (i, f64::from(f)))
            .collect();
        let cross: Vec<f64> = (0..self.hidden)
            .map(|k| {
                let l: f64 = active
                    .iter()
                    .map(|&(i, f)| f * f64::from(self.latent_w[i * self.hidden + k]))
                    .sum::<f64>()
                    + f64::from(self.latent_b[k]);
                (1.0 + l).abs() * f64::from(state[k]).abs()
            })
            .collect();
        let logit: f64 = (0..self.width)
            .map(|j| {
                let into_j: f64 = cross
                    .iter()
                    .enumerate()
                    .map(|(k, c)| f64::from(self.mlp_w[k * self.width + j]).abs() * c)
                    .sum();
                f64::from(self.out_w[j]).abs() * into_j
            })
            .sum();
        BF16_REL * logit / 4.0
    }
}

/// What the two replays measured.
#[derive(Debug, Default)]
struct Drift {
    predictions: usize,
    max_moved: f64,
    flips: usize,
    /// `f32` scores within ε of the threshold.
    near_threshold: usize,
    max_read_moved: f64,
    max_read_bound: f64,
}

/// The held-out users' sessions in time order (a user's own in their order).
fn held_out_sessions(dataset: &Dataset, train_users: usize) -> Vec<(UserId, &Session)> {
    let mut sessions: Vec<(UserId, &Session)> = dataset.users[train_users..]
        .iter()
        .flat_map(|user| user.sessions.iter().map(|session| (user.user_id, session)))
        .collect();
    sessions.sort_by_key(|(user, session)| (session.timestamp, user.0));
    sessions
}

/// Trains the model on `train_users` users, calibrates its threshold and
/// replays `held_out` more with `f32` states and through a store.
fn replay(train_users: usize, held_out: usize, seed: u64) -> Drift {
    let dataset = MobileTabGenerator::new(MobileTabConfig {
        num_users: train_users + held_out,
        num_days: DAYS,
        seed,
        ..MobileTabConfig::default()
    })
    .generate();
    let mut model = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig {
            hidden_dim: HIDDEN,
            mlp_width: HIDDEN,
            ..RnnModelConfig::default()
        },
        seed ^ 0x5eed,
    );
    let train: Vec<usize> = (0..train_users).collect();
    let trainer = RnnTrainer::new(TrainerConfig {
        epochs: 4,
        parallel: false,
        ..TrainerConfig::warmup(seed ^ 0x7a1)
    });
    trainer.train(&mut model, &dataset, &train);
    let (scores, labels) = scores_and_labels(&trainer.evaluate(&model, &dataset, &train, Some(7)));
    let policy = PrecomputePolicy::for_target_precision(&scores, &labels, TARGET_PRECISION)
        .expect("the training users reach the target precision");
    let threshold = policy.threshold();

    let head = Head::of(&model);
    let store = ShardedStateStore::new(16);
    let mut exact: HashMap<UserId, Vec<f32>> = HashMap::new();
    let mut put: HashMap<UserId, Vec<f32>> = HashMap::new();
    let mut last_update: HashMap<UserId, i64> = HashMap::new();
    let mut drift = Drift::default();
    for (user, session) in held_out_sessions(&dataset, train_users) {
        let now = session.timestamp;
        let since = now - last_update.get(&user).copied().unwrap_or(now);
        let featurizer = model.featurizer();
        let input = featurizer.predict_input(now, &session.context, since);

        let exact_state = exact.remove(&user).unwrap_or_else(|| model.initial_state());
        let stored_state = store
            .get_state(user)
            .unwrap_or_else(|| model.initial_state());
        let p_exact = model.predict_proba(&exact_state, &input);
        let p_stored = model.predict_proba(&stored_state, &input);
        drift.predictions += 1;
        drift.max_moved = drift.max_moved.max((p_exact - p_stored).abs());
        drift.flips +=
            usize::from(policy.should_precompute(p_exact) != policy.should_precompute(p_stored));
        drift.near_threshold += usize::from((p_exact - threshold).abs() <= EPSILON);

        // This read alone: the state that was put against what came back.
        if let Some(sent) = put.get(&user) {
            let moved = (model.predict_proba(sent, &input) - p_stored).abs();
            let bound = head.read_bound(sent, &input);
            assert!(
                moved <= bound + ARITHMETIC_SLACK,
                "one read moved a score by {moved:e}, past its bound {bound:e}"
            );
            drift.max_read_moved = drift.max_read_moved.max(moved);
            drift.max_read_bound = drift.max_read_bound.max(bound);
        }

        let update = featurizer.update_input(now, &session.context, since, session.accessed);
        exact.insert(user, model.advance_state(&exact_state, &update));
        let next = model.advance_state(&stored_state, &update);
        store.put_state(user, &next);
        put.insert(user, next);
        last_update.insert(user, now);
    }
    println!(
        "bf16 rows, H = {HIDDEN}, {train_users} training users, {held_out} held-out: \
         {} predictions, threshold {threshold:.4}; \
         max |dp| {:.3e} (epsilon {EPSILON}), {} flipped ({:.4} %), {} scores within epsilon \
         of the threshold ({:.3} %); one read: max |dp| {:.3e}, analytic bound max {:.3e}",
        drift.predictions,
        drift.max_moved,
        drift.flips,
        100.0 * drift.flips as f64 / drift.predictions as f64,
        drift.near_threshold,
        100.0 * drift.near_threshold as f64 / drift.predictions as f64,
        drift.max_read_moved,
        drift.max_read_bound,
    );
    drift
}

fn check(drift: &Drift) {
    assert!(drift.predictions > 0);
    assert!(
        drift.max_moved <= EPSILON,
        "bf16 states moved a score by {}, past epsilon {EPSILON}",
        drift.max_moved
    );
    let flip_share = drift.flips as f64 / drift.predictions as f64;
    assert!(
        flip_share <= MAX_FLIP_SHARE,
        "{} of {} decisions flipped",
        drift.flips,
        drift.predictions
    );
    // A flip needs the f32 score within the movement of the threshold.
    assert!(drift.flips <= drift.near_threshold);
}

#[test]
fn bf16_states_move_no_score_past_epsilon_and_flip_few_decisions() {
    check(&replay(48, 96, 23));
}

#[test]
#[ignore = "trains on 96 users and replays 3,904; run with `cargo test --release --test state_rounding_bound -- --ignored`"]
fn bf16_states_move_no_score_past_epsilon_at_workload_scale() {
    check(&replay(96, 3_904, 23));
}

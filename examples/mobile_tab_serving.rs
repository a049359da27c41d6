//! MobileTab serving scenario: train an RNN, pick a threshold that targets
//! 60% precision (the paper's production operating point), then replay the
//! held-out users' sessions through the §9 serving loop — score each wave
//! of session starts from the hidden-state store in one batched forward
//! pass, decide and prefetch, resolve every decision against what the
//! session did, and advance the hidden states once the stream join
//! releases the session-close updates — and report both product metrics
//! (successful/wasted prefetches) and systems metrics (store traffic,
//! FLOPs).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example mobile_tab_serving
//! ```

use predictive_precompute::data::schema::{DatasetKind, Session, UserId};
use predictive_precompute::data::split::UserSplit;
use predictive_precompute::data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
use predictive_precompute::precompute::PrecomputePolicy;
use predictive_precompute::precompute::{
    AdmissionOrder, BudgetConfig, CacheConfig, ControllerConfig, PrecomputeSystem, SystemConfig,
};
use predictive_precompute::rnn::{
    scores_and_labels, LagConfig, RnnModel, RnnModelConfig, RnnTrainer, TaskKind, TrainerConfig,
};
use predictive_precompute::serving::{
    BatchScheduler, PredictRequest, ShardedStateStore, UpdateRequest,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The precision the threshold is calibrated for and controlled to.
const TARGET_PRECISION: f64 = 0.6;
/// Largest batch one forward pass serves.
const MAX_BATCH: usize = 64;

fn main() {
    // 1. Data and split.
    let dataset = MobileTabGenerator::new(MobileTabConfig {
        num_users: 300,
        num_days: 21,
        ..Default::default()
    })
    .generate();
    let split = UserSplit::ninety_ten(&dataset, 7);
    println!(
        "MobileTab: {} train users, {} test users, {} sessions",
        split.train.len(),
        split.test.len(),
        dataset.num_sessions()
    );

    // 2. Train the RNN.
    let mut model = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig {
            hidden_dim: 32,
            mlp_width: 32,
            ..Default::default()
        },
        42,
    );
    let trainer = RnnTrainer::new(TrainerConfig {
        epochs: 1,
        train_last_days: 14,
        ..Default::default()
    });
    let report = trainer.train(&mut model, &dataset, &split.train);
    println!(
        "Trained on {} predictions over {} sessions in {:.1}s",
        report.total_predictions, report.total_sessions, report.wall_time_secs
    );

    // 3. Calibrate the precompute threshold on the training users to target
    //    60% precision, as in §9.
    let calibration = trainer.evaluate(&model, &dataset, &split.train, Some(7));
    let (scores, labels) = scores_and_labels(&calibration);
    let policy = PrecomputePolicy::for_target_precision(&scores, &labels, TARGET_PRECISION)
        .unwrap_or_else(|| PrecomputePolicy::with_threshold(0.5));
    println!(
        "Calibrated threshold {:.3} for target precision {:?}",
        policy.threshold(),
        policy.target_precision()
    );

    // 4. Replay the held-out users' sessions in timestamp order.
    let mut sessions: Vec<(UserId, Session)> = split
        .test
        .iter()
        .flat_map(|&u| {
            let user = &dataset.users[u];
            user.sessions.iter().map(|&s| (user.user_id, s))
        })
        .collect();
    sessions.sort_by_key(|&(user, s)| (s.timestamp, user));
    let store = ShardedStateStore::new(1); // §9 has a single store
    let mut scheduler = BatchScheduler::new(&model, &store, MAX_BATCH);
    let mut system = PrecomputeSystem::new(SystemConfig {
        initial_threshold: policy.threshold(),
        // One unit per prefetch and a unit for every session: the budget
        // never binds, so every policy verdict executes.
        budget: BudgetConfig {
            capacity_units: sessions.len().max(1) as f64,
            refill_units_per_sec: 0.0,
            cost_per_prefetch_units: 1.0,
            max_inflight: sessions.len().max(1),
        },
        cache: CacheConfig::default(),
        controller: ControllerConfig {
            target_precision: TARGET_PRECISION,
            ..ControllerConfig::default()
        },
        admission: AdmissionOrder::Priority,
        recalibrate_from_outcomes: false,
        payload_bytes: 512,
    });
    let delta = LagConfig::for_kind(model.kind()).delta();
    replay(&sessions, delta, &mut scheduler, &mut system);

    let outcome = system.report();
    println!("\nServing replay over test users:");
    println!("  predictions served      : {}", outcome.decisions.scored);
    println!(
        "  precomputes triggered   : {}",
        outcome.decisions.prefetch_intents
    );
    println!("  successful prefetches   : {}", outcome.outcomes.hits);
    println!(
        "  wasted prefetches       : {}",
        outcome.outcomes.wasted_prefetches
    );
    println!(
        "  missed accesses         : {}",
        outcome.outcomes.missed_accesses
    );
    println!(
        "  achieved precision      : {:.3}",
        outcome.precision.unwrap_or(0.0)
    );
    println!(
        "  achieved recall         : {:.3}",
        outcome.recall.unwrap_or(0.0)
    );
    println!("  final threshold         : {:.3}", outcome.threshold);

    let stats = store.stats();
    let served = scheduler.stats();
    println!("\nHidden-state store traffic:");
    println!("  reads  : {} ({} bytes)", stats.reads, stats.bytes_read);
    println!(
        "  writes : {} ({} bytes)",
        stats.writes, stats.bytes_written
    );
    println!("  keys   : {} (one per user)", store.len());
    println!(
        "  model compute: {} predict FLOPs + {} update FLOPs in {} forward passes",
        served.predictions * model.predict_flops(),
        served.updates * model.update_flops(),
        served.batches
    );
    system
        .check_invariants()
        .expect("the replay keeps the precompute books balanced");
}

/// Replays `sessions` (sorted by timestamp) through the serving loop.
///
/// Each wave is the sessions starting at one timestamp (a user seen twice
/// opens the next wave): [`BatchScheduler::run`] scores them from the
/// stored hidden states, [`PrecomputeSystem::handle_scores`] decides and
/// prefetches, and [`PrecomputeSystem::resolve_session`] books what each
/// session did. A session's close update then waits in the stream join
/// until `delta` after its start — the session window plus the update
/// latency — and is applied, in one [`BatchScheduler::apply_updates`] call
/// with every other due update, before the first wave at or after that
/// time.
fn replay(
    sessions: &[(UserId, Session)],
    delta: i64,
    scheduler: &mut BatchScheduler<'_>,
    system: &mut PrecomputeSystem,
) {
    // The stream join: closed sessions by the time their update is due.
    let mut closing: BTreeMap<i64, Vec<(UserId, Session)>> = BTreeMap::new();
    // Start of the last session folded into each user's stored state.
    let mut last_update: HashMap<UserId, i64> = HashMap::new();
    let mut rest = sessions;
    while let Some(&(_, first)) = rest.first() {
        let now = first.timestamp;
        let mut users = HashSet::new();
        let len = rest
            .iter()
            .take_while(|&&(user, s)| s.timestamp == now && users.insert(user))
            .count();
        let (wave, later) = rest.split_at(len);
        rest = later;
        close_due(&mut closing, now, &mut last_update, scheduler);

        let requests = wave.iter().map(|&(user, s)| PredictRequest {
            user_id: user,
            timestamp: now,
            context: s.context,
            elapsed_secs: last_update.get(&user).map_or(0, |&t| now - t),
        });
        let predictions = scheduler.run(requests);
        system.handle_scores(&predictions, now);
        for &(user, s) in wave {
            system.resolve_session(user, now, s.accessed);
        }
        closing.entry(now + delta).or_default().extend(wave);
    }
    close_due(&mut closing, i64::MAX, &mut last_update, scheduler);
}

/// Applies every close update due at or before `now`, in due order, with
/// each one's `Δt` measured from the update before it.
fn close_due(
    closing: &mut BTreeMap<i64, Vec<(UserId, Session)>>,
    now: i64,
    last_update: &mut HashMap<UserId, i64>,
    scheduler: &mut BatchScheduler<'_>,
) {
    let mut updates = Vec::new();
    while let Some(due) = closing.first_entry() {
        if *due.key() > now {
            break;
        }
        for (user, s) in due.remove() {
            let previous = last_update.insert(user, s.timestamp);
            updates.push(UpdateRequest {
                user_id: user,
                timestamp: s.timestamp,
                context: s.context,
                delta_t_secs: previous.map_or(0, |t| s.timestamp - t),
                accessed: s.accessed,
            });
        }
    }
    scheduler.apply_updates(&updates);
}

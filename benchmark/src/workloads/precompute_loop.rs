//! `precompute_loop` — the paper's whole loop on a virtual traffic clock.
//!
//! Per wave: score the session starts through the engine, let
//! `PrecomputeSystem::handle_scores` decide and admit prefetches against a
//! tight budget, resolve every session against its ground truth (dwell
//! 10 s on access, 45 s otherwise), then apply the session-close updates
//! through the engine. The model is a GRU trained in set-up on generated
//! MobileTab users; the traffic is the held-out users', quantised to
//! 15-minute buckets so synchronised bursts compete for the bucket. This is
//! the only place serving meets `pp-precompute`, and it carries the
//! quality numbers — hits per cost unit and recall at the precision target
//! — which repeat exactly, so any change that alters a decision is visible.
//!
//! Passes over the traffic repeat, shifted forward in time, until the time
//! box ends. The first full pass is the untimed lead-in and the pass the
//! quality numbers are read from, so they do not depend on `--seconds`.

use super::{
    build_model, harvest, plausible, Gate, Ledger, Phase, PhaseResult, Serving, Workload,
    MAX_BATCH, SHARDS,
};
use crate::inputs::{form_waves, Event};
use crate::rng::SplitMix64;
use crate::spans;
use pp_core::PrecomputePolicy;
use pp_data::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
use pp_precompute::{
    AdmissionOrder, BudgetConfig, CacheConfig, ControllerConfig, OutcomeCounts, PrecomputeSystem,
    SystemConfig, SystemReport,
};
use pp_rnn::{scores_and_labels, RnnTrainer, TrainerConfig};
use pp_serving::{
    rnn_profile, BatchScheduler, CostWeights, PredictRequest, Prediction, ShardedStateStore,
    UpdateRequest,
};
use std::collections::HashMap;
use std::sync::Arc;

const HIDDEN: usize = 64;
const GENERATED_USERS: usize = 4_000;
const DAYS: u32 = 30;
const TRAIN_USERS: usize = 96;
const TRAIN_EPOCHS: usize = 4;
/// The precision the threshold is calibrated and controlled for.
pub const TARGET_PRECISION: f64 = 0.6;
/// How far steady-state precision may sit under the target before the run
/// is invalid.
const PRECISION_SLACK: f64 = 0.05;
const BUCKET_SECS: i64 = 900;
const WARM_SHARE: f64 = 0.3;
const MAX_WAVE: usize = 256;
const BURST_PREFETCHES: f64 = 16.0;
const REFILL_SHARE_OF_EVENT_RATE: f64 = 0.15;
const MAX_INFLIGHT: usize = 192;
const CACHE_TTL_SECS: i64 = 900;
const CONTROLLER_WINDOW: usize = 100;

/// What the first full pass established.
#[derive(Debug, Clone, Copy)]
struct FirstPass {
    report: SystemReport,
    /// Outcome counts when half the pass's sessions had resolved.
    halfway: OutcomeCounts,
}

impl FirstPass {
    /// Precision over the second half of the pass, after the controller
    /// has had the first half to find its operating point.
    fn steady_precision(&self) -> Option<f64> {
        let hits = self.report.outcomes.hits - self.halfway.hits;
        let prefetches =
            self.report.outcomes.prefetches_resolved() - self.halfway.prefetches_resolved();
        (prefetches > 0).then(|| hits as f64 / prefetches as f64)
    }
}

/// See the module docs.
#[derive(Debug)]
pub struct PrecomputeLoop {
    serving: Serving,
    system: PrecomputeSystem,
    waves: Vec<Vec<Event>>,
    /// Sessions per pass, and the traffic seconds one pass spans.
    sessions_per_pass: usize,
    pass_stride_secs: i64,
    calibrated_threshold: f64,
    /// Timestamp of each user's last applied state update.
    last_update: HashMap<u64, i64>,
    next_wave: usize,
    sessions_this_pass: usize,
    passes: u64,
    waves_run: u64,
    halfway: Option<OutcomeCounts>,
    first_pass: Option<FirstPass>,
    violation: Option<String>,
    requests: Vec<PredictRequest>,
    updates: Vec<UpdateRequest>,
}

impl PrecomputeLoop {
    /// Generates the users, trains and calibrates the model, warms the
    /// held-out users' states, cuts the live traffic into waves and starts
    /// the engine.
    pub fn set_up(seed: u64) -> Self {
        let mut rng = SplitMix64::for_workload(seed, "precompute_loop");
        let dataset = MobileTabGenerator::new(MobileTabConfig {
            num_users: GENERATED_USERS,
            num_days: DAYS,
            seed: rng.next_u64(),
            ..MobileTabConfig::default()
        })
        .generate();

        let mut model = build_model(HIDDEN, rng.next_u64());
        let train: Vec<usize> = (0..TRAIN_USERS).collect();
        // One user at a time: the trainer's parallel mode gives the same
        // model, but its per-thread allocator arenas keep a minibatch's
        // autograd tapes resident, and `peak_rss_mb` would then report the
        // seed's heaviest training users instead of the serving state.
        let trainer = RnnTrainer::new(TrainerConfig {
            epochs: TRAIN_EPOCHS,
            parallel: false,
            ..TrainerConfig::warmup(rng.next_u64())
        });
        trainer.train(&mut model, &dataset, &train);
        // Constrain precision, maximise recall (paper §8), on the split the
        // model was fitted to; the live loop recalibrates from outcomes.
        let (scores, labels) =
            scores_and_labels(&trainer.evaluate(&model, &dataset, &train, Some(7)));
        let calibrated_threshold =
            PrecomputePolicy::for_target_precision(&scores, &labels, TARGET_PRECISION)
                .map_or(0.5, |policy| policy.threshold())
                .clamp(0.01, 0.99);

        // Held-out traffic, synchronised into 15-minute bursts.
        let mut events: Vec<Event> = dataset.users[TRAIN_USERS..]
            .iter()
            .flat_map(|user| {
                user.sessions.iter().map(|s| Event {
                    timestamp: (s.timestamp / BUCKET_SECS) * BUCKET_SECS,
                    user: user.user_id,
                    context: s.context,
                    accessed: s.accessed,
                })
            })
            .collect();
        events.sort_by_key(|e| (e.timestamp, e.user.0));
        let first_secs = events.first().expect("generated traffic").timestamp;
        let last_secs = events.last().expect("generated traffic").timestamp;
        let split_secs = first_secs + ((last_secs - first_secs) as f64 * WARM_SHARE) as i64;
        let warm_len = events.partition_point(|e| e.timestamp < split_secs);
        let (warm, live) = events.split_at(warm_len);

        // A deployed system scores users whose histories are already in the
        // store: the first 30 % of the traffic only advances hidden states.
        let model = Arc::new(model);
        let store = Arc::new(ShardedStateStore::new(SHARDS));
        let mut last_update = HashMap::new();
        let warm_updates: Vec<UpdateRequest> = warm
            .iter()
            .map(|e| close_of(e, 0, &mut last_update))
            .collect();
        BatchScheduler::new(&model, &store, MAX_BATCH).apply_updates(&warm_updates);

        let live_span_secs = (last_secs - live[0].timestamp).max(1);
        let events_per_sec = live.len() as f64 / live_span_secs as f64;
        let system = PrecomputeSystem::new(SystemConfig {
            initial_threshold: calibrated_threshold,
            // Prefetch cost in the §9 cost model's units, from the serving
            // profile of the model being served.
            budget: BudgetConfig::from_profile(
                &rnn_profile(&model),
                &CostWeights::default(),
                BURST_PREFETCHES,
                REFILL_SHARE_OF_EVENT_RATE * events_per_sec,
                MAX_INFLIGHT,
            ),
            cache: CacheConfig {
                shards: 8,
                capacity_per_shard: 2_048,
                ttl_secs: CACHE_TTL_SECS,
            },
            controller: ControllerConfig {
                target_precision: TARGET_PRECISION,
                window: CONTROLLER_WINDOW,
                gain: 1.0,
                min_threshold: 0.01,
                max_threshold: 0.99,
            },
            admission: AdmissionOrder::Priority,
            recalibrate_from_outcomes: true,
            payload_bytes: 512,
        });
        let serving = Serving::start(model, store, None);
        Self {
            serving,
            system,
            waves: form_waves(live, MAX_WAVE),
            sessions_per_pass: live.len(),
            pass_stride_secs: live_span_secs + BUCKET_SECS,
            calibrated_threshold,
            last_update,
            next_wave: 0,
            sessions_this_pass: 0,
            passes: 0,
            waves_run: 0,
            halfway: None,
            first_pass: None,
            violation: None,
            requests: Vec::with_capacity(MAX_WAVE),
            updates: Vec::with_capacity(MAX_WAVE),
        }
    }

    /// Closes the books on a pass: invariants, and after the first one the
    /// quality snapshot.
    fn end_pass(&mut self) {
        if let Err(violation) = self.system.check_invariants() {
            self.violation
                .get_or_insert(format!("pass {}: {violation}", self.passes + 1));
        }
        if self.first_pass.is_none() {
            self.first_pass = Some(FirstPass {
                report: self.system.report(),
                halfway: self.halfway.unwrap_or_default(),
            });
        }
        self.passes += 1;
        self.next_wave = 0;
        self.sessions_this_pass = 0;
    }
}

/// The session-close update of `event` on a clock shifted by `shift_secs`,
/// recording it as the user's latest.
fn close_of(event: &Event, shift_secs: i64, last_update: &mut HashMap<u64, i64>) -> UpdateRequest {
    let timestamp = event.timestamp + shift_secs;
    let previous = last_update.insert(event.user.0, timestamp);
    UpdateRequest {
        user_id: event.user,
        timestamp,
        context: event.context,
        delta_t_secs: timestamp - previous.unwrap_or(timestamp),
        accessed: event.accessed,
    }
}

impl Workload for PrecomputeLoop {
    fn serving(&self) -> &Serving {
        &self.serving
    }

    fn constants(&self) -> String {
        format!(
            "closed loop on a virtual clock, H {HIDDEN} GRU trained on {TRAIN_USERS} of {GENERATED_USERS} users \
             x {DAYS} days ({TRAIN_EPOCHS} epochs), target precision {TARGET_PRECISION} (threshold {:.4}), \
             {BUCKET_SECS}-s buckets, first {WARM_SHARE} warms state, waves <= {MAX_WAVE} distinct users \
             ({} waves, {} sessions per pass), burst {BURST_PREFETCHES} prefetches, refill \
             {REFILL_SHARE_OF_EVENT_RATE} of event rate, max inflight {MAX_INFLIGHT}, TTL {CACHE_TTL_SECS} s, \
             window {CONTROLLER_WINDOW}, priority admission, recalibration from outcomes",
            self.calibrated_threshold,
            self.waves.len(),
            self.sessions_per_pass,
        )
    }

    /// This workload's gate runs with it, not before it: the subsystem's
    /// invariants after every pass and the precision floor after the first
    /// (see [`Workload::verdict`]). Every score still crosses the engine
    /// paths the serving workloads' gates compare against the reference.
    fn gate(&mut self) -> Gate {
        Gate::default()
    }

    fn warmed(&self, _elapsed_secs: f64) -> bool {
        self.passes >= 1
    }

    fn step(&mut self, phase: &mut Phase) {
        self.waves_run += 1;
        let wave_no = self.waves_run;
        let shift_secs = self.passes as i64 * self.pass_stride_secs;
        let events = &self.waves[self.next_wave];
        let sessions = events.len() as u64;
        let now_secs = events[0].timestamp + shift_secs;
        self.requests.clear();
        self.requests.extend(events.iter().map(|e| PredictRequest {
            user_id: e.user,
            timestamp: now_secs,
            context: e.context,
            elapsed_secs: now_secs - self.last_update.get(&e.user.0).copied().unwrap_or(now_secs),
        }));

        let wave = phase.spans.begin();
        let submitted_ns = phase.now_ns();
        let predict = phase.spans.begin();
        let submit = phase.spans.begin();
        let replies = self.serving.engine.submit_many(&self.requests);
        phase
            .spans
            .end(submit, "client.submit", predict.id, wave_no);
        let wait = phase.spans.begin();
        let predictions: Vec<Prediction> = replies
            .iter()
            .zip(&self.requests)
            .filter_map(|(reply, request)| {
                harvest(reply, phase).filter(|got| plausible(request, got))
            })
            .collect();
        phase.spans.end(wait, "client.wait", predict.id, wave_no);
        phase.spans.end(predict, "loop.predict", wave.id, wave_no);
        if predictions.len() != events.len() {
            phase.fail(sessions);
            return;
        }

        let decide = phase.spans.begin();
        let decisions = self.system.handle_scores(&predictions, now_secs);
        phase.spans.end(decide, "loop.decide", wave.id, wave_no);
        let decided_ns = phase.now_ns();

        let resolve = phase.spans.begin();
        let mut unresolved = 0u64;
        for event in events {
            let dwell_secs = if event.accessed { 10 } else { 45 };
            if self
                .system
                .resolve_session(event.user, now_secs + dwell_secs, event.accessed)
                .is_none()
            {
                unresolved += 1;
            }
        }
        phase.spans.end(resolve, "loop.resolve", wave.id, wave_no);

        let update = phase.spans.begin();
        self.updates.clear();
        for event in events {
            self.updates
                .push(close_of(event, shift_secs, &mut self.last_update));
        }
        let submit = phase.spans.begin();
        let applied = self.serving.engine.submit_updates(&self.updates);
        phase.spans.end(submit, "client.submit", update.id, wave_no);
        let wait = phase.spans.begin();
        let lost = applied
            .iter()
            .filter(|reply| harvest(reply, phase).is_none())
            .count() as u64;
        phase.spans.end(wait, "client.wait", update.id, wave_no);
        phase.spans.end(update, "loop.update", wave.id, wave_no);
        phase.spans.end(wave, "wave", 0, wave_no);

        let bad = (unresolved + lost + sessions - decisions.len() as u64).min(sessions);
        phase.fail(bad);
        phase.succeed(phase.now_ns(), decided_ns - submitted_ns, sessions - bad);

        self.sessions_this_pass += events.len();
        if self.halfway.is_none() && self.sessions_this_pass * 2 >= self.sessions_per_pass {
            self.halfway = Some(self.system.tracker().counts());
        }
        self.next_wave += 1;
        if self.next_wave == self.waves.len() {
            self.end_pass();
        }
    }

    fn extras(&self, result: &PhaseResult, ledger: &mut Ledger) {
        if let Some(first) = &self.first_pass {
            let report = &first.report;
            let accesses = report.outcomes.accesses();
            ledger.push(
                "hits_per_mcu",
                report.outcomes.hits as f64 / report.budget.units_spent.max(1.0) * 1e6,
                "hits/Mcu",
            );
            ledger.push(
                "recall_at_target",
                report.outcomes.hits as f64 / accesses.max(1) as f64,
                "ratio",
            );
            let intents = report.decisions.prefetch_intents.max(1) as f64;
            ledger.push(
                "precompute.admit_share",
                report.budget.admitted as f64 / intents,
                "ratio",
            );
            ledger.push(
                "precompute.denied_budget_share",
                report.budget.denied_budget as f64 / intents,
                "ratio",
            );
            let lookups = (report.cache.hits + report.cache.misses).max(1) as f64;
            ledger.push(
                "precompute.cache_hit_share",
                report.cache.hits as f64 / lookups,
                "ratio",
            );
            ledger.push(
                "precompute.recalibrations",
                report.recalibrations as f64,
                "count",
            );
            ledger.push("precompute.threshold_final", report.threshold, "prob");
            ledger.push(
                "precompute.precision_steady",
                first.steady_precision().unwrap_or(0.0),
                "ratio",
            );
        }
        ledger.push("loop.passes", self.passes as f64, "count");

        // The wall split, from the benchmark's own spans (traced run only).
        let recorded = result.spans.spans();
        let totals = spans::totals_by_name(recorded);
        let Some(&wave_ns) = totals.get("wave") else {
            return;
        };
        let total_of = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
        for stage in ["predict", "decide", "resolve", "update"] {
            ledger.push(
                &format!("loop.{stage}_share"),
                total_of(&format!("loop.{stage}")) / wave_ns as f64,
                "ratio",
            );
        }
        let own_ns: u64 = recorded
            .iter()
            .zip(spans::self_times_ns(recorded))
            .filter(|(span, _)| span.name == "wave")
            .map(|(_, own)| own)
            .sum();
        ledger.push(
            "loop.unattributed_share",
            own_ns as f64 / wave_ns as f64,
            "ratio",
        );
        let sessions = result.attempted().max(1) as f64;
        ledger.push(
            "precompute.decide_ns_per_session",
            total_of("loop.decide") / sessions,
            "ns",
        );
        ledger.push(
            "precompute.resolve_ns_per_session",
            total_of("loop.resolve") / sessions,
            "ns",
        );
    }

    fn verdict(&self) -> Result<(), String> {
        if let Some(violation) = &self.violation {
            return Err(format!("precompute invariant violated: {violation}"));
        }
        let first = self
            .first_pass
            .as_ref()
            .ok_or("the first full pass did not complete")?;
        match first.steady_precision() {
            Some(p) if p >= TARGET_PRECISION - PRECISION_SLACK => Ok(()),
            other => Err(format!(
                "steady-state precision {other:?} is below the floor {}",
                TARGET_PRECISION - PRECISION_SLACK
            )),
        }
    }
}

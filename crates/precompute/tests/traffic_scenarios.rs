//! Traffic-scenario gates for the whole precompute loop, pinned to one
//! seeded configuration: MobileTab 300 users × 20 days, seed 17 (mixed
//! traffic adds Timeshift and MPU on seeds derived from it). Seeded
//! synthetic sessions are cut into waves, scored by a noisy oracle
//! (logistic noise around the ground-truth label, so precision genuinely
//! depends on the threshold), pushed through a fresh [`PrecomputeSystem`]
//! and resolved against ground truth on a virtual clock — no threads, no
//! wall time, the same numbers on every host.
//!
//! The scenarios and the property each one pins:
//!
//! * **cold_start** — the raw stream against an empty system (no cache, a
//!   full bucket, the uncalibrated 0.5 threshold);
//! * **bursty** — timestamps quantized to 15-minute boundaries:
//!   synchronized herds against the token bucket and the inflight cap;
//! * **diurnal** — off-peak sessions (23:00–07:59) thinned to ~30 %.
//!
//!   For each of the three the adaptive controller must bring second-half
//!   precision to the 0.6 target ± 0.05, and the second half's hits and
//!   resolved prefetches are pinned exactly (280 / 443, 333 / 522 and
//!   250 / 387). **This is a pinned-seed regression check, not an
//!   all-seeds property**: 0.632 / 0.638 / 0.646 at seed 17, but at seed 3
//!   `diurnal` reads 0.493 (the threshold saturates at 0.99 after 5
//!   windows) and misses the same tolerance.
//! * **mixed_traffic** — MobileTab + Timeshift + MPU on a common clock under
//!   one tight shared budget with per-activity costs: guaranteed-share
//!   floors starve no activity, and the shared bucket earns at least as
//!   many hits as the best static per-activity split of the same budget
//!   (6,130 vs 6,046 at the pin; 5,972 / 5,774, 5,969 / 5,936 and
//!   6,365 / 6,280 at seeds 3, 99, 5). The per-activity hits under every
//!   fairness policy and under the best static split are pinned exactly.
//!
//! FIFO-vs-priority admission is deliberately *not* pinned here. On oracle
//! scores at a tight budget (16 prefetches of burst, 15 % of the bursty
//! event rate) the adaptive threshold reacts to the admission order, so the
//! two runs stop spending alike and the hit counts compare nothing: FIFO
//! 108 hits from 257 executed prefetches (threshold saturated at 0.99) vs
//! priority 254 from 478; with outcome recalibration on, 719 from 1,330 vs
//! 660 from 1,171. The mechanism is unit-tested in `system.rs`
//! (`priority_admission_turns_a_tight_budget_into_more_hits`).
//!
//! Every replay also asserts the hard invariants: outcome conservation, a
//! never-overdrawn budget, and per-activity spends summing to the drain.

use pp_data::schema::{hour_of_day, Dataset, DatasetKind, UserId};
use pp_data::synth::{
    MobileTabConfig, MobileTabGenerator, MpuConfig, MpuGenerator, SyntheticGenerator,
    TimeshiftConfig, TimeshiftGenerator,
};
use pp_precompute::{
    prefetch_cost_units, Activity, ActivityMap, AdmissionOrder, BudgetConfig, CacheConfig,
    ControllerConfig, FairnessPolicy, MultiActivityConfig, OutcomeCounts, PrecomputeSystem,
    SystemConfig,
};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{rnn_profile, CostWeights, Prediction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const SEED: u64 = 17;
const USERS: usize = 300;
const DAYS: u32 = 20;
const TARGET_PRECISION: f64 = 0.6;
const INITIAL_THRESHOLD: f64 = 0.5;
const MAX_INFLIGHT: usize = 192;

/// One session-start event of the replayed traffic.
#[derive(Debug, Clone, Copy)]
struct Event {
    timestamp: i64,
    user: UserId,
    accessed: bool,
    activity: Activity,
}

fn by_time_then_user(events: &mut [Event]) {
    events.sort_by_key(|e| (e.timestamp, e.user.0));
}

/// Flattens every user's history into one time-ordered stream.
fn events_of_users(dataset: &Dataset) -> Vec<Event> {
    let activity = Activity::from(dataset.kind);
    let mut events: Vec<Event> = dataset
        .users
        .iter()
        .flat_map(|user| {
            user.sessions.iter().map(move |s| Event {
                timestamp: s.timestamp,
                user: user.user_id,
                accessed: s.accessed,
                activity,
            })
        })
        .collect();
    by_time_then_user(&mut events);
    events
}

/// Interleaves several activities' datasets on a common clock: each is
/// rebased to start at t = 0 (the generators use different, midnight-aligned
/// epochs) and user ids are namespaced per activity, because `UserId` is the
/// session key across activities — MobileTab user 0 and Timeshift user 0
/// must stay distinct or one's session start sweeps the other's prefetch.
fn mixed_events(datasets: &[Dataset]) -> Vec<Event> {
    let mut events: Vec<Event> = datasets
        .iter()
        .enumerate()
        .flat_map(|(i, dataset)| {
            let offset = (i as u64 + 1) << 40;
            events_of_users(dataset).into_iter().map(move |e| Event {
                timestamp: e.timestamp - dataset.start_timestamp,
                user: UserId(e.user.0 + offset),
                ..e
            })
        })
        .collect();
    by_time_then_user(&mut events);
    events
}

/// Quantizes timestamps to 15-minute boundaries: synchronized bursts.
fn burstify(events: &[Event]) -> Vec<Event> {
    let mut out: Vec<Event> = events
        .iter()
        .map(|e| Event {
            timestamp: (e.timestamp / 900) * 900,
            ..*e
        })
        .collect();
    by_time_then_user(&mut out);
    out
}

/// Thins off-peak hours (23:00–07:59 UTC) to ~30 %: a day/night load swing.
fn diurnalize(events: &[Event]) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xd1e5);
    events
        .iter()
        .filter(|e| (8..23).contains(&hour_of_day(e.timestamp)) || rng.gen::<f64>() < 0.3)
        .copied()
        .collect()
}

/// Seeded noisy oracle: a logistic-noise score centered above the threshold
/// band for accessed sessions and below it otherwise.
fn oracle_score_scaled(rng: &mut StdRng, accessed: bool, noise_scale: f64) -> f64 {
    let mu = if accessed { 0.9 } else { -0.9 };
    // Logistic noise via inverse-CDF of a uniform draw.
    let u: f64 = rng.gen_range(1e-9..1.0 - 1e-9);
    let noise = (u / (1.0 - u)).ln();
    1.0 / (1.0 + (-(mu + noise_scale * noise)).exp())
}

fn events_per_sec(events: &[Event]) -> f64 {
    let span_secs = (events[events.len() - 1].timestamp - events[0].timestamp).max(1);
    events.len() as f64 / span_secs as f64
}

/// Cost of one prefetch, in the §9 cost model's units, for an activity
/// served by a GRU of the given width.
fn cost_of(kind: DatasetKind, task: TaskKind, hidden: usize) -> f64 {
    let config = RnnModelConfig {
        hidden_dim: hidden,
        mlp_width: hidden,
        ..RnnModelConfig::default()
    };
    let model = RnnModel::new(kind, task, config, SEED);
    prefetch_cost_units(&rnn_profile(&model), &CostWeights::default())
}

fn system_config(
    budget: BudgetConfig,
    admission: AdmissionOrder,
    recalibrate_from_outcomes: bool,
) -> SystemConfig {
    SystemConfig {
        initial_threshold: INITIAL_THRESHOLD,
        budget,
        cache: CacheConfig {
            shards: 8,
            capacity_per_shard: 4_096,
            ttl_secs: 900,
        },
        controller: ControllerConfig {
            target_precision: TARGET_PRECISION,
            window: 100,
            gain: 1.0,
            min_threshold: 0.01,
            max_threshold: 0.99,
        },
        admission,
        recalibrate_from_outcomes,
        payload_bytes: 512,
    }
}

/// A single-activity budget holding `burst` prefetches and refilling
/// `prefetches_per_sec` of them.
fn mobiletab_budget(burst: f64, prefetches_per_sec: f64) -> BudgetConfig {
    let cost = cost_of(DatasetKind::MobileTab, TaskKind::PerSession, 16);
    BudgetConfig {
        capacity_units: burst * cost,
        refill_units_per_sec: prefetches_per_sec * cost,
        cost_per_prefetch_units: cost,
        max_inflight: MAX_INFLIGHT,
    }
}

/// Replays `events` through `system`: consecutive events sharing a
/// one-minute bucket form a wave, cut when a user repeats (one outstanding
/// decision per user) or at 256; the wave is scored, decided and admitted
/// at the bucket's start, and every session resolves shortly after — an
/// accessed one consumes its payload at +10 s, the rest time out at +45 s.
/// Returns the system and the outcome counts as of the stream's midpoint.
fn replay(
    events: &[Event],
    mut system: PrecomputeSystem,
    mut score: impl FnMut(&Event) -> f64,
) -> (PrecomputeSystem, OutcomeCounts) {
    let mut halfway = None;
    let mut i = 0;
    while i < events.len() {
        let bucket = events[i].timestamp / 60;
        let mut wave: Vec<(Activity, Prediction)> = Vec::new();
        let mut users = HashSet::new();
        let first = i;
        while i < events.len()
            && events[i].timestamp / 60 == bucket
            && wave.len() < 256
            && users.insert(events[i].user.0)
        {
            let prediction = Prediction {
                user_id: events[i].user,
                probability: score(&events[i]),
            };
            wave.push((events[i].activity, prediction));
            i += 1;
        }
        let now = bucket * 60;
        system.handle_wave(&wave, now);
        for event in &events[first..i] {
            let dwell = if event.accessed { 10 } else { 45 };
            system
                .resolve_session(event.user, now + dwell, event.accessed)
                .expect("every wave entry has a pending decision");
        }
        if halfway.is_none() && i >= events.len() / 2 {
            halfway = Some(system.tracker().counts());
        }
    }

    // Conservation, never-overdrawn, per-activity spends == bucket drain,
    // admitted == cache insertions.
    system.check_invariants().expect("subsystem invariants");
    assert_eq!(system.tracker().pending_len(), 0);
    assert_eq!(
        system.report().outcomes.resolved(),
        events.len() as u64,
        "every session resolves into exactly one outcome bucket"
    );
    (system, halfway.expect("a non-empty stream has a midpoint"))
}

fn mobiletab_dataset() -> Dataset {
    let config = MobileTabConfig {
        num_users: USERS,
        num_days: DAYS,
        seed: SEED,
        ..MobileTabConfig::default()
    };
    MobileTabGenerator::new(config).generate()
}

fn mobiletab_events() -> Vec<Event> {
    events_of_users(&mobiletab_dataset())
}

/// Second-half hits and resolved prefetches of one oracle-scored replay of
/// `events` through a fresh FIFO system with no outcome recalibration,
/// under a budget that holds 128 prefetches and sustains half the *raw*
/// stream's session rate — ample in smooth traffic, binding during
/// synchronized bursts.
fn second_half(events: &[Event], raw_events_per_sec: f64) -> (u64, u64) {
    let budget = mobiletab_budget(128.0, 0.5 * raw_events_per_sec);
    let system = PrecomputeSystem::new(system_config(budget, AdmissionOrder::Fifo, false));
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5c0_7e5);
    let (system, halfway) = replay(events, system, |e| {
        oracle_score_scaled(&mut rng, e.accessed, 0.9)
    });
    let total = system.report().outcomes;
    (
        total.hits - halfway.hits,
        total.prefetches_resolved() - halfway.prefetches_resolved(),
    )
}

/// Asserts the second half held the precision target, then pins its exact
/// (hits, resolved prefetches): any change to a decision, an admission or
/// a threshold move shows up here.
fn assert_holds_target(scenario: &str, second_half: (u64, u64), pinned: (u64, u64)) {
    let (hits, prefetches) = second_half;
    assert!(
        prefetches > 0,
        "{scenario}: no prefetch resolved in the second half"
    );
    let precision = hits as f64 / prefetches as f64;
    assert!(
        (precision - TARGET_PRECISION).abs() <= 0.05,
        "{scenario}: steady-state precision {precision:.3} outside {TARGET_PRECISION} ± 0.05"
    );
    assert_eq!(
        second_half, pinned,
        "{scenario}: second-half (hits, prefetches) moved"
    );
}

/// 280 hits from 443 prefetches at the pin: 0.632.
#[test]
fn cold_start_holds_the_precision_target() {
    let events = mobiletab_events();
    let figures = second_half(&events, events_per_sec(&events));
    assert_holds_target("cold_start", figures, (280, 443));
}

/// 333 hits from 522 prefetches at the pin: 0.638.
#[test]
fn bursty_holds_the_precision_target() {
    let events = mobiletab_events();
    let figures = second_half(&burstify(&events), events_per_sec(&events));
    assert_holds_target("bursty", figures, (333, 522));
}

/// 250 hits from 387 prefetches at the pin: 0.646 — and 0.493 at seed 3
/// (see the module doc).
#[test]
fn diurnal_holds_the_precision_target() {
    let events = mobiletab_events();
    let figures = second_half(&diurnalize(&events), events_per_sec(&events));
    assert_holds_target("diurnal", figures, (250, 387));
}

/// Hits earned per activity by one replay, in `Activity::ALL` order.
fn hits_by_activity(system: &PrecomputeSystem) -> ActivityMap<u64> {
    ActivityMap::from_fn(|a| system.activity_report(a).outcomes.hits)
}

/// An [`ActivityMap`] as a plain array, in `Activity::ALL` order.
fn per_activity(map: ActivityMap<u64>) -> [u64; Activity::COUNT] {
    Activity::ALL.map(|a| map[a])
}

#[test]
fn mixed_traffic_guaranteed_share_starves_nobody_and_beats_the_best_static_split() {
    let timeshift = TimeshiftConfig {
        num_users: USERS,
        num_days: DAYS,
        seed: SEED ^ 0x7e5,
        ..TimeshiftConfig::default()
    };
    let mpu = MpuConfig {
        num_users: 80,
        num_days: DAYS,
        median_notifications_per_day: 20.0,
        seed: SEED ^ 0x3a7,
        ..MpuConfig::default()
    };
    let events = mixed_events(&[
        mobiletab_dataset(),
        TimeshiftGenerator::new(timeshift).generate(),
        MpuGenerator::new(mpu).generate(),
    ]);

    // Each activity serves its own model (the §9 launch activity runs the
    // paper-size GRU, the others smaller ones), so a prefetch costs
    // genuinely different unit amounts per activity.
    let costs = ActivityMap::from_fn(|a| match a {
        Activity::MobileTab => cost_of(DatasetKind::MobileTab, TaskKind::PerSession, 128),
        Activity::Timeshift => cost_of(DatasetKind::Timeshift, TaskKind::Timeshifted, 64),
        Activity::Mpu => cost_of(DatasetKind::Mpu, TaskKind::PerSession, 16),
    });
    // The activities' scores are deliberately not equally informative, so
    // each activity's controller must find its own threshold.
    let noise = ActivityMap::from_fn(|a| match a {
        Activity::MobileTab => 0.9,
        Activity::Timeshift => 1.1,
        Activity::Mpu => 0.7,
    });
    // Every run replays the identical per-activity score streams.
    let run = |events: &[Event], system: PrecomputeSystem| {
        let mut rngs = ActivityMap::from_fn(|a| {
            StdRng::seed_from_u64(SEED ^ (0x5c0_7e5 + 7919 * a.index() as u64))
        });
        let (system, _) = replay(events, system, |e| {
            oracle_score_scaled(&mut rngs[e.activity], e.accessed, noise[e.activity])
        });
        system
    };

    let mut event_count = ActivityMap::uniform(0usize);
    let mut access_count = ActivityMap::uniform(0usize);
    for e in &events {
        event_count[e.activity] += 1;
        access_count[e.activity] += usize::from(e.accessed);
    }
    let accesses: usize = access_count.values().sum();
    let demand_share = access_count.map(|_, &n| n as f64 / accesses as f64);

    // One tight shared budget, denominated against the traffic-weighted
    // mean cost: 24 prefetches of burst, and a refill that covers 12 % of
    // the event rate, so the fairness policy decides who gets served.
    let mean_cost: f64 = costs
        .iter()
        .map(|(a, &c)| c * event_count[a] as f64 / events.len() as f64)
        .sum();
    let capacity_units = 24.0 * mean_cost;
    let refill_units_per_sec = 0.12 * events_per_sec(&events) * mean_cost;
    let shared = system_config(
        BudgetConfig {
            capacity_units,
            refill_units_per_sec,
            cost_per_prefetch_units: costs.values().fold(0.0, |m: f64, &c| m.max(c)),
            max_inflight: MAX_INFLIGHT,
        },
        AdmissionOrder::Priority,
        true,
    );

    // Static baselines: partition the same budget into three independent
    // buckets and replay each activity alone. An idle activity's refill
    // serving a busy one is exactly what a static split gives up.
    let own_events: ActivityMap<Vec<Event>> =
        ActivityMap::from_fn(|a| events.iter().filter(|e| e.activity == a).copied().collect());
    let units_demand = demand_share.map(|a, &s| s * costs[a]);
    let units_total: f64 = units_demand.values().sum();
    let splits = [
        ("equal", ActivityMap::uniform(1.0 / 3.0)),
        ("demand_proportional", demand_share),
        (
            "cost_weighted_demand",
            units_demand.map(|_, &u| u / units_total),
        ),
    ];
    let (best_split, best_static) = splits
        .iter()
        .map(|(name, shares)| {
            let hits = ActivityMap::from_fn(|a| {
                let budget = BudgetConfig {
                    // The scheduler needs room for two prefetches.
                    capacity_units: (shares[a] * capacity_units).max(2.0 * costs[a]),
                    refill_units_per_sec: shares[a] * refill_units_per_sec,
                    cost_per_prefetch_units: costs[a],
                    max_inflight: MAX_INFLIGHT,
                };
                let system = PrecomputeSystem::new(SystemConfig { budget, ..shared });
                run(&own_events[a], system).report().outcomes.hits
            });
            (*name, hits)
        })
        .max_by_key(|(_, hits)| hits.values().sum::<u64>())
        .expect("three splits");
    let best_static_total: u64 = best_static.values().sum();

    // Half the bucket is floored, half stays a contested common pool. The
    // floors blend demand-proportional with equal shares 50/50: pure
    // demand-proportional floors leave a small activity's reserve too thin
    // to matter against an aggressor, pure equal floors lock so much
    // budget onto low-demand activities that total hits fall below a
    // static split.
    let floors = demand_share.map(|_, &s| 0.5 * (0.5 * s + 0.5 / 3.0));
    let weights = demand_share.map(|_, &s| s.max(1e-3));
    let run_policy = |fairness| {
        let multi = MultiActivityConfig {
            costs,
            initial_thresholds: ActivityMap::uniform(INITIAL_THRESHOLD),
            fairness,
        };
        hits_by_activity(&run(&events, PrecomputeSystem::new_multi(shared, multi)))
    };
    let greedy = run_policy(FairnessPolicy::Greedy);
    let round_robin = run_policy(FairnessPolicy::DeficitRoundRobin { weights });
    let guaranteed = run_policy(FairnessPolicy::GuaranteedShare { floors });
    let guaranteed_total: u64 = guaranteed.values().sum();

    // Every policy's per-activity hits, and the best static split's, pinned
    // exactly: a moved admission under any policy shows up here.
    assert_eq!(per_activity(greedy), [44, 29, 6_546], "greedy");
    assert_eq!(
        per_activity(round_robin),
        [33, 21, 6_533],
        "deficit round-robin"
    );
    assert_eq!(
        per_activity(guaranteed),
        [290, 51, 5_789],
        "guaranteed share"
    );
    assert_eq!(
        (best_split, per_activity(best_static)),
        ("demand_proportional", [228, 35, 5_783]),
        "best static split"
    );

    // Starvation is measured against the hit share an activity earns with
    // a dedicated budget and nobody to compete with: an activity with
    // inherently noisy scores earns a low share even then.
    for a in Activity::ALL {
        let hit_share = guaranteed[a] as f64 / guaranteed_total as f64;
        let floor = 0.25 * best_static[a] as f64 / best_static_total as f64;
        assert!(
            hit_share >= floor,
            "{a} starved under guaranteed-share: hit share {hit_share:.4} < {floor:.4}"
        );
    }
    assert!(
        guaranteed_total >= best_static_total,
        "shared bucket earned {guaranteed_total} hits, static split {best_split} {best_static_total}"
    );
}

//! Traffic-scenario gates for the whole precompute loop, pinned to one
//! seeded configuration: MobileTab 300 users × 20 days, seed 17. Seeded
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
//! Every replay also asserts the hard invariants: outcome conservation and
//! a never-overdrawn budget.

use pp_data::schema::{hour_of_day, DatasetKind, UserId};
use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
use pp_precompute::{
    prefetch_cost_units, AdmissionOrder, BudgetConfig, CacheConfig, ControllerConfig,
    OutcomeCounts, PrecomputeSystem, SystemConfig,
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
}

fn by_time_then_user(events: &mut [Event]) {
    events.sort_by_key(|e| (e.timestamp, e.user.0));
}

/// The seeded MobileTab users' sessions as one time-ordered stream.
fn mobiletab_events() -> Vec<Event> {
    let dataset = MobileTabGenerator::new(MobileTabConfig {
        num_users: USERS,
        num_days: DAYS,
        seed: SEED,
        ..MobileTabConfig::default()
    })
    .generate();
    let mut events: Vec<Event> = dataset
        .users
        .iter()
        .flat_map(|user| {
            user.sessions.iter().map(move |s| Event {
                timestamp: s.timestamp,
                user: user.user_id,
                accessed: s.accessed,
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
fn oracle_score(rng: &mut StdRng, accessed: bool) -> f64 {
    let mu = if accessed { 0.9 } else { -0.9 };
    // Logistic noise via inverse-CDF of a uniform draw.
    let u: f64 = rng.gen_range(1e-9..1.0 - 1e-9);
    let noise = (u / (1.0 - u)).ln();
    1.0 / (1.0 + (-(mu + 0.9 * noise)).exp())
}

fn events_per_sec(events: &[Event]) -> f64 {
    let span_secs = (events[events.len() - 1].timestamp - events[0].timestamp).max(1);
    events.len() as f64 / span_secs as f64
}

/// A FIFO system with no outcome recalibration under `budget`.
fn system(budget: BudgetConfig) -> PrecomputeSystem {
    PrecomputeSystem::new(SystemConfig {
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
        admission: AdmissionOrder::Fifo,
        recalibrate_from_outcomes: false,
        payload_bytes: 512,
    })
}

/// A budget holding `burst` prefetches and refilling `prefetches_per_sec`
/// of them, each costing one prediction of an H = 16 MobileTab GRU in the
/// §9 cost model's units.
fn mobiletab_budget(burst: f64, prefetches_per_sec: f64) -> BudgetConfig {
    let config = RnnModelConfig {
        hidden_dim: 16,
        mlp_width: 16,
        ..RnnModelConfig::default()
    };
    let model = RnnModel::new(DatasetKind::MobileTab, TaskKind::PerSession, config, SEED);
    let cost = prefetch_cost_units(&rnn_profile(&model), &CostWeights::default());
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
        let mut wave: Vec<Prediction> = Vec::new();
        let mut users = HashSet::new();
        let first = i;
        while i < events.len()
            && events[i].timestamp / 60 == bucket
            && wave.len() < 256
            && users.insert(events[i].user.0)
        {
            wave.push(Prediction {
                user_id: events[i].user,
                probability: score(&events[i]),
            });
            i += 1;
        }
        let now = bucket * 60;
        system.handle_scores(&wave, now);
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

    // Conservation, never-overdrawn, admitted == cache insertions.
    system.check_invariants().expect("subsystem invariants");
    assert_eq!(system.tracker().pending_len(), 0);
    assert_eq!(
        system.report().outcomes.resolved(),
        events.len() as u64,
        "every session resolves into exactly one outcome bucket"
    );
    (system, halfway.expect("a non-empty stream has a midpoint"))
}

/// Second-half hits and resolved prefetches of one oracle-scored replay of
/// `events` through a fresh FIFO system with no outcome recalibration,
/// under a budget that holds 128 prefetches and sustains half the *raw*
/// stream's session rate — ample in smooth traffic, binding during
/// synchronized bursts.
fn second_half(events: &[Event], raw_events_per_sec: f64) -> (u64, u64) {
    let budget = mobiletab_budget(128.0, 0.5 * raw_events_per_sec);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5c0_7e5);
    let (system, halfway) = replay(events, system(budget), |e| {
        oracle_score(&mut rng, e.accessed)
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

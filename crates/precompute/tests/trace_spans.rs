//! The precompute loop's half of the sampled trace: a real
//! [`PrecomputeSystem::handle_scores`] must emit one `wave_admission` span
//! per traced wave and one `cache_insert` span per admitted prefetch, every
//! span closed, each insert linked to its wave through the shared `batch`
//! sequence number, and no span of another stage.
//!
//! This file owns its process's global [`Tracer`]: it holds exactly one
//! test, which sets the sampling knobs before the first `Tracer::global()`
//! touch.

use pp_data::schema::UserId;
use pp_obs::{Stage, Tracer};
use pp_precompute::{
    AdmissionOrder, BudgetConfig, CacheConfig, ControllerConfig, PrecomputeSystem, SystemConfig,
};
use pp_serving::Prediction;
use std::collections::HashSet;

const WAVES: i64 = 20;
const USERS_PER_WAVE: u64 = 16;

#[test]
fn handle_scores_emits_closed_linked_spans() {
    std::env::set_var("PP_TRACE_SAMPLE", "1");
    std::env::set_var("PP_TRACE_SEED", "17");

    let mut system = PrecomputeSystem::new(SystemConfig {
        initial_threshold: 0.5,
        budget: BudgetConfig {
            capacity_units: 100.0,
            refill_units_per_sec: 1.0,
            cost_per_prefetch_units: 10.0,
            max_inflight: 64,
        },
        cache: CacheConfig::default(),
        controller: ControllerConfig::default(),
        admission: AdmissionOrder::Priority,
        recalibrate_from_outcomes: false,
        payload_bytes: 64,
    });
    for wave in 0..WAVES {
        let now = wave * 60;
        let predictions: Vec<Prediction> = (0..USERS_PER_WAVE)
            .map(|u| Prediction {
                user_id: UserId(u),
                probability: if (u as i64 + wave) % 2 == 0 { 0.9 } else { 0.2 },
            })
            .collect();
        system.handle_scores(&predictions, now);
        for u in 0..USERS_PER_WAVE {
            system
                .resolve_session(UserId(u), now + 10, u % 3 == 0)
                .expect("every wave entry has a pending decision");
        }
    }
    system.check_invariants().expect("subsystem invariants");

    let tracer = Tracer::global();
    assert_eq!(tracer.config().sample_every, 1);
    assert_eq!(tracer.dropped(), 0);
    let spans = tracer.drain();

    let waves: HashSet<u64> = spans
        .iter()
        .filter(|s| s.stage == Stage::WaveAdmission)
        .map(|s| s.batch)
        .collect();
    let inserts: Vec<_> = spans
        .iter()
        .filter(|s| s.stage == Stage::CacheInsert)
        .collect();
    // Every wave has prefetch candidates and every user is sampled.
    assert_eq!(waves.len() as i64, WAVES);
    assert_eq!(inserts.len() as u64, system.report().budget.admitted);
    assert!(!inserts.is_empty());
    for span in &spans {
        assert!(span.end_ns >= span.start_ns, "open span: {span:?}");
        assert!(
            matches!(span.stage, Stage::WaveAdmission | Stage::CacheInsert),
            "the precompute loop emitted a span of another stage: {span:?}"
        );
    }
    for insert in &inserts {
        assert!(
            waves.contains(&insert.batch),
            "cache_insert links no wave_admission span: {insert:?}"
        );
    }
}

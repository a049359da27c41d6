//! Property-based tests on cross-crate invariants.

use predictive_precompute::baselines::aggregation::AggregationState;
use predictive_precompute::data::schema::{Context, Session, Tab, UserHistory, UserId};
use predictive_precompute::data::DatasetKind;
use predictive_precompute::features::encoding::{time_bucket, TIME_BUCKETS};
use predictive_precompute::features::rnn_input::RnnFeaturizer;
use predictive_precompute::metrics::classification::{log_loss, roc_auc};
use predictive_precompute::metrics::pr::PrCurve;
use predictive_precompute::nn::graph::Graph;
use predictive_precompute::nn::tensor::Tensor;
use predictive_precompute::rnn::sequence::{plan_per_session, LagConfig};
use proptest::prelude::*;

/// Strategy producing an arbitrary MobileTab session history (sorted).
fn session_history() -> impl Strategy<Value = Vec<Session>> {
    prop::collection::vec((0i64..2_000_000, 0u8..100, 0usize..8, any::<bool>()), 0..60).prop_map(
        |raw| {
            let mut sessions: Vec<Session> = raw
                .into_iter()
                .map(|(ts, unread, tab, accessed)| Session {
                    timestamp: ts,
                    context: Context::MobileTab {
                        unread_count: unread.min(99),
                        active_tab: Tab::ALL[tab],
                    },
                    accessed,
                })
                .collect();
            sessions.sort_by_key(|s| s.timestamp);
            sessions.dedup_by_key(|s| s.timestamp);
            sessions
        },
    )
}

/// The bf16 nearest a finite `value`, ties to even — what the sharded store
/// keeps of it: of its truncation to bf16 and the next bf16 away from zero,
/// the nearer, and on a tie the one whose last kept bit is 0.
fn bf16(value: f32) -> f32 {
    assert!(value.is_finite());
    let down = value.to_bits() & 0xffff_0000;
    let (below, above) = (f32::from_bits(down), f32::from_bits(down + 0x1_0000));
    let x = f64::from(value);
    let (to_below, to_above) = ((x - f64::from(below)).abs(), (f64::from(above) - x).abs());
    if to_below < to_above || (to_below == to_above && down & 0x1_0000 == 0) {
        below
    } else {
        above
    }
}

proptest! {
    /// PR-AUC is always in [0, 1] and recall@precision never exceeds the
    /// recall of the full curve.
    #[test]
    fn pr_auc_bounded(
        scores in prop::collection::vec(0.0f64..1.0, 1..200),
        flips in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let n = scores.len().min(flips.len());
        let scores = &scores[..n];
        let labels = &flips[..n];
        let curve = PrCurve::compute(scores, labels);
        let auc = curve.auc();
        prop_assert!((0.0..=1.0).contains(&auc));
        let r50 = curve.recall_at_precision(0.5);
        prop_assert!((0.0..=1.0).contains(&r50));
        let roc = roc_auc(scores, labels);
        prop_assert!((0.0..=1.0).contains(&roc));
        if labels.iter().any(|&l| l) {
            prop_assert!(log_loss(scores, labels).is_finite());
        }
    }

    /// The elapsed-time bucketing transform is monotone and bounded.
    #[test]
    fn time_bucket_monotone(a in 0i64..10_000_000, b in 0i64..10_000_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(time_bucket(lo) <= time_bucket(hi));
        prop_assert!(time_bucket(hi) < TIME_BUCKETS);
    }

    /// Aggregation counts never exceed the number of recorded sessions, and
    /// the 28-day window dominates every shorter window.
    #[test]
    fn aggregation_counts_are_consistent(sessions in session_history()) {
        let mut state = AggregationState::new(DatasetKind::MobileTab);
        for s in &sessions {
            state.record(s.timestamp, &s.context, s.accessed);
        }
        let now = sessions.last().map_or(0, |s| s.timestamp + 1);
        let query = Context::MobileTab { unread_count: 1, active_tab: Tab::Home };
        let counts = state.window_counts(now, &query);
        // Layout: subset-major, window-major with windows [28d, 7d, 1d, 1h].
        for subset in counts.chunks(4) {
            for w in subset {
                prop_assert!(w.accesses <= w.sessions);
                prop_assert!(w.sessions <= sessions.len());
                prop_assert!((0.0..=1.0).contains(&w.ratio()));
            }
            prop_assert!(subset[0].sessions >= subset[1].sessions);
            prop_assert!(subset[1].sessions >= subset[2].sessions);
            prop_assert!(subset[2].sessions >= subset[3].sessions);
        }
    }

    /// The update-lag plan never lets a prediction read a hidden state that
    /// would not have been available yet, for any gap structure.
    #[test]
    fn lag_invariant_holds_for_arbitrary_histories(sessions in session_history()) {
        prop_assume!(!sessions.is_empty());
        let user = UserHistory::new(UserId(0), sessions);
        let featurizer = RnnFeaturizer::new(DatasetKind::MobileTab);
        let lag = LagConfig::for_kind(DatasetKind::MobileTab);
        let plan = plan_per_session(&user, &featurizer, lag, 0);
        prop_assert!(plan.validate_lag(&user, lag.delta()).is_ok());
        prop_assert_eq!(plan.num_updates(), user.len());
        prop_assert_eq!(plan.num_predictions(), user.len());
    }

    /// Autograd gradients for a random linear+sigmoid chain match finite
    /// differences.
    #[test]
    fn autograd_matches_finite_differences(
        values in prop::collection::vec(-2.0f32..2.0, 1..6),
    ) {
        let build = |v: &[f32], g: &mut Graph| {
            let x = g.constant(Tensor::from_row(v));
            let s = g.sigmoid(x);
            let sq = g.mul(s, s);
            let loss = g.mean(sq);
            (x, loss)
        };
        let mut g = Graph::new();
        let (x, loss) = build(&values, &mut g);
        g.backward(loss);
        let analytic = g.grad(x).clone();
        let eps = 1e-2f32;
        for i in 0..values.len() {
            let mut plus = values.clone();
            plus[i] += eps;
            let mut minus = values.clone();
            minus[i] -= eps;
            let mut gp = Graph::new();
            let (_, lp) = build(&plus, &mut gp);
            let mut gm = Graph::new();
            let (_, lm) = build(&minus, &mut gm);
            let numeric = (gp.value(lp).at(0, 0) - gm.value(lm).at(0, 0)) / (2.0 * eps);
            prop_assert!((numeric - analytic.as_slice()[i]).abs() < 5e-2);
        }
    }

    /// Percentage-model predictions are valid probabilities and converge to
    /// the empirical rate.
    #[test]
    fn percentage_model_is_probabilistic(flags in prop::collection::vec(any::<bool>(), 1..100)) {
        use predictive_precompute::baselines::PercentageModel;
        let model = PercentageModel::new(0.1);
        let mut accesses = 0usize;
        for (i, &f) in flags.iter().enumerate() {
            let p = model.predict(i, accesses);
            prop_assert!(p > 0.0 && p < 1.0 + 1e-9);
            accesses += f as usize;
        }
    }

    /// PR-AUC only depends on the *ranking* of scores: any strictly
    /// increasing transform (here, an affine-compressed cube) leaves the
    /// curve and its area unchanged.
    #[test]
    fn pr_auc_invariant_under_order_preserving_transforms(
        scores in prop::collection::vec(0.0f64..1.0, 2..150),
        flips in prop::collection::vec(any::<bool>(), 2..150),
    ) {
        let n = scores.len().min(flips.len());
        let scores = &scores[..n];
        let labels = &flips[..n];
        let transformed: Vec<f64> = scores.iter().map(|&s| 0.05 + 0.9 * s.powi(3)).collect();
        let base = PrCurve::compute(scores, labels).auc();
        let mapped = PrCurve::compute(&transformed, labels).auc();
        prop_assert!(
            (base - mapped).abs() < 1e-9,
            "AUC moved under monotone transform: {} vs {}", base, mapped
        );
    }

    /// Demanding more precision can only cost recall: recall@precision is
    /// monotone non-increasing in the precision target.
    #[test]
    fn recall_at_precision_monotone_in_target(
        scores in prop::collection::vec(0.0f64..1.0, 2..150),
        flips in prop::collection::vec(any::<bool>(), 2..150),
    ) {
        let n = scores.len().min(flips.len());
        let curve = PrCurve::compute(&scores[..n], &flips[..n]);
        let targets = [0.1, 0.25, 0.5, 0.75, 0.9];
        let recalls: Vec<f64> = targets.iter().map(|&t| curve.recall_at_precision(t)).collect();
        for pair in recalls.windows(2) {
            prop_assert!(
                pair[1] <= pair[0] + 1e-12,
                "recall increased with the precision target: {:?}", recalls
            );
        }
        for r in &recalls {
            prop_assert!((0.0..=1.0).contains(r));
        }
    }

    /// Sharded store: get-after-put round-trips through every shard, and the
    /// state that comes back is the *last* state written for that user — no
    /// bleed between users that hash to the same or different shards.
    #[test]
    fn sharded_store_roundtrips_without_state_bleed(
        writes in prop::collection::vec(
            (0u64..40, prop::collection::vec(-10.0f32..10.0, 11)),
            1..120,
        ),
        width in 4usize..12,
        shards in 1usize..12,
    ) {
        use predictive_precompute::data::schema::UserId;
        use predictive_precompute::serving::ShardedStateStore;
        use std::collections::HashMap;

        // A store holds states of one width: the case draws it, and every
        // write stores the first `width` of its values, rounded to bf16.
        let store = ShardedStateStore::new(shards);
        let mut reference: HashMap<u64, Vec<f32>> = HashMap::new();
        for (id, values) in &writes {
            let state = &values[..width];
            store.put_state(UserId(*id), state);
            reference.insert(*id, state.iter().map(|&value| bf16(value)).collect());
        }
        prop_assert_eq!(store.len(), reference.len());
        for (id, expected) in &reference {
            let got = store.get_state(UserId(*id));
            prop_assert_eq!(got.as_ref(), Some(expected), "user {} bled state", id);
        }
        // Users never written stay absent.
        prop_assert!(store.get_state(UserId(10_000)).is_none());
    }
}

//! Serving cost comparison between the RNN path and the aggregation-feature
//! path (paper §9, "Relative production resources").
//!
//! The paper's claims, which this module lets you recompute on any
//! model/dataset pair:
//!
//! * the RNN's *model* computation is ≈ 9.5× the GBDT's;
//! * but the aggregation path needs ≈ 20 key-value lookups per prediction
//!   (one per window × context-subset cell plus the elapsed-time keys) and
//!   may store thousands of keys per user, while the RNN path needs exactly
//!   one 512-byte lookup;
//! * so the *overall* serving cost drops by roughly 10× with the RNN.
//!
//! The RNN side's profile ([`pp_serving::rnn_profile`]) and the cost formula
//! ([`ServingProfile::cost_units`]) live in `pp-serving`, where the
//! precompute budget prices a prefetch with them; this module adds the GBDT
//! side, which only the offline comparison needs.

use pp_baselines::aggregation::AggregationState;
use pp_baselines::features::BaselineFeaturizer;
use pp_baselines::Gbdt;
use pp_data::schema::Dataset;
use pp_serving::{CostWeights, ServingProfile};

/// Relative cost of two serving paths under a simple cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostComparison {
    /// The aggregation-feature (baseline) path.
    pub baseline: ServingProfile,
    /// The hidden-state (RNN) path.
    pub rnn: ServingProfile,
    /// RNN model FLOPs divided by baseline model FLOPs (paper: ≈ 9.5).
    pub model_compute_ratio: f64,
    /// Baseline lookups divided by RNN lookups (paper: ≈ 20).
    pub lookup_ratio: f64,
    /// Baseline overall cost divided by RNN overall cost (paper: ≈ 10).
    pub overall_cost_ratio: f64,
}

/// Measures the serving profile of the aggregation-feature path on a sample
/// of users: replays each user's history through [`AggregationState`] and
/// records lookup counts, key counts and the GBDT evaluation cost.
pub fn baseline_profile(
    dataset: &Dataset,
    user_indices: &[usize],
    featurizer: &BaselineFeaturizer,
    gbdt: &Gbdt,
) -> ServingProfile {
    let mut total_keys = 0u64;
    let mut total_users = 0u64;
    let mut lookups = 0f64;
    for &ui in user_indices {
        let user = &dataset.users[ui];
        let mut state = AggregationState::new(dataset.kind);
        for s in &user.sessions {
            state.record(s.timestamp, &s.context, s.accessed);
        }
        lookups = state.lookups_per_prediction() as f64;
        total_keys += state.num_storage_keys() as u64;
        total_users += 1;
    }
    let keys_per_user = if total_users == 0 {
        0.0
    } else {
        total_keys as f64 / total_users as f64
    };
    // Each aggregation cell stores two counters (sessions, accesses) as u32
    // plus the last-access / last-session timestamps per subset; 16 bytes per
    // key is a generous lower bound.
    let bytes_per_key = 16.0;
    // Each lookup returns roughly one cell's worth of bytes.
    let bytes_per_prediction = lookups * bytes_per_key;
    // GBDT evaluation: one comparison per tree level, plus the feature-vector
    // assembly which is proportional to its dimensionality.
    let model_flops = gbdt.comparisons_per_prediction() as f64 + featurizer.dims() as f64;
    ServingProfile {
        lookups_per_prediction: lookups,
        bytes_per_prediction,
        model_flops_per_prediction: model_flops,
        storage_keys_per_user: keys_per_user,
        storage_bytes_per_user: keys_per_user * bytes_per_key,
    }
}

/// Combines two profiles under the cost weights.
pub fn compare(
    baseline: ServingProfile,
    rnn: ServingProfile,
    weights: CostWeights,
) -> CostComparison {
    let total = |p: &ServingProfile| p.cost_units(&weights);
    CostComparison {
        baseline,
        rnn,
        model_compute_ratio: rnn.model_flops_per_prediction
            / baseline.model_flops_per_prediction.max(1.0),
        lookup_ratio: baseline.lookups_per_prediction / rnn.lookups_per_prediction.max(1e-9),
        overall_cost_ratio: total(&baseline) / total(&rnn).max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_baselines::features::{build_session_examples, ElapsedEncoding, FeatureSet};
    use pp_baselines::GbdtConfig;
    use pp_data::schema::DatasetKind;
    use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
    use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
    use pp_serving::rnn_profile;

    #[test]
    fn comparison_reproduces_paper_shape() {
        // Train a small GBDT and compute both profiles on a small dataset.
        let ds = MobileTabGenerator::new(MobileTabConfig {
            num_users: 30,
            num_days: 10,
            ..Default::default()
        })
        .generate();
        let featurizer =
            BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let examples = build_session_examples(&ds, &idx, &featurizer, Some(7));
        let gbdt = Gbdt::train(
            &examples,
            GbdtConfig {
                num_trees: 20,
                max_depth: 6,
                ..Default::default()
            },
        );
        let rnn = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::default(),
            0,
        );
        let base = baseline_profile(&ds, &idx, &featurizer, &gbdt);
        let comparison = compare(base, rnn_profile(&rnn), CostWeights::default());

        // The qualitative shape of §9: the RNN model itself is more expensive…
        assert!(
            comparison.model_compute_ratio > 2.0,
            "RNN model should cost more FLOPs than GBDT (ratio {})",
            comparison.model_compute_ratio
        );
        // …but it needs far fewer lookups (paper: ~20×)…
        assert!(
            comparison.lookup_ratio >= 10.0,
            "baseline should need many more lookups (ratio {})",
            comparison.lookup_ratio
        );
        // …and the overall serving cost favours the RNN by a large factor.
        assert!(
            comparison.overall_cost_ratio > 2.0,
            "overall cost should favour the RNN (ratio {})",
            comparison.overall_cost_ratio
        );
        // The baseline stores many more keys per user than the RNN's single key.
        assert!(base.storage_keys_per_user > 10.0);
    }

    #[test]
    fn lookup_counts_match_aggregation_state() {
        let ds = MobileTabGenerator::new(MobileTabConfig {
            num_users: 3,
            num_days: 5,
            ..Default::default()
        })
        .generate();
        let featurizer =
            BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
        let idx: Vec<usize> = (0..3).collect();
        let examples = build_session_examples(&ds, &idx, &featurizer, None);
        let gbdt = Gbdt::train(
            &examples,
            GbdtConfig {
                num_trees: 3,
                ..Default::default()
            },
        );
        let p = baseline_profile(&ds, &idx, &featurizer, &gbdt);
        // MobileTab: 4 subsets × 4 windows + 4 elapsed = 20 lookups (§9).
        assert_eq!(p.lookups_per_prediction, 20.0);
    }
}

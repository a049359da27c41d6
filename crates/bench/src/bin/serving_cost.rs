//! Regenerates the §9 serving-cost analysis: relative model compute
//! (paper: RNN ≈ 9.5× GBDT), key-value lookups per prediction (paper: ≈ 20
//! for the aggregation path vs 1 for the hidden-state path), storage keys
//! per user, and the overall serving-cost ratio (paper: ≈ 10× in favour of
//! the RNN). Also reports what the state store keeps of a hidden state: its
//! bf16 rounding, at two bytes a value.

use pp_baselines::features::{
    build_session_examples, BaselineFeaturizer, ElapsedEncoding, FeatureSet,
};
use pp_baselines::Gbdt;
use pp_bench::{section, Scale};
use pp_core::cost::{baseline_profile, compare};
use pp_data::schema::{DatasetKind, UserId};
use pp_data::split::UserSplit;
use pp_data::synth::{MobileTabGenerator, SyntheticGenerator};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{rnn_profile, CostWeights, ShardedStateStore};

fn main() {
    let scale = Scale::from_env();
    println!("scale: {scale:?}");
    let ds = MobileTabGenerator::new(scale.mobiletab()).generate();
    let split = UserSplit::ninety_ten(&ds, scale.seed);

    let featurizer = BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
    let examples = build_session_examples(&ds, &split.train, &featurizer, Some(7));
    let gbdt = Gbdt::train(&examples, scale.experiment().gbdt);
    // The cost analysis uses the paper-scale RNN (128-dim hidden state).
    let rnn = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::default(),
        scale.seed,
    );

    let base = baseline_profile(&ds, &split.test, &featurizer, &gbdt);
    let rnn_prof = rnn_profile(&rnn);
    let cmp = compare(base, rnn_prof, CostWeights::default());

    section("Per-prediction serving profile");
    println!(
        "{:<28}{:>20}{:>20}",
        "", "GBDT+aggregations", "RNN hidden state"
    );
    println!(
        "{:<28}{:>20.1}{:>20.1}",
        "KV lookups / prediction", base.lookups_per_prediction, rnn_prof.lookups_per_prediction
    );
    println!(
        "{:<28}{:>20.0}{:>20.0}",
        "bytes fetched / prediction", base.bytes_per_prediction, rnn_prof.bytes_per_prediction
    );
    println!(
        "{:<28}{:>20.0}{:>20.0}",
        "model FLOPs / prediction",
        base.model_flops_per_prediction,
        rnn_prof.model_flops_per_prediction
    );
    println!(
        "{:<28}{:>20.1}{:>20.1}",
        "storage keys / user", base.storage_keys_per_user, rnn_prof.storage_keys_per_user
    );

    section("§9 headline ratios");
    println!(
        "RNN / GBDT model compute ratio : {:>8.1}x   (paper: ≈ 9.5x)",
        cmp.model_compute_ratio
    );
    println!(
        "baseline / RNN lookup ratio    : {:>8.1}x   (paper: ≈ 20 lookups vs 1)",
        cmp.lookup_ratio
    );
    println!(
        "overall serving-cost reduction : {:>8.1}x   (paper: ≈ 10x)",
        cmp.overall_cost_ratio
    );

    section("Hidden-state storage");
    let state: Vec<f32> = (0..rnn.state_dim())
        .map(|i| ((i as f32) * 0.37).sin())
        .collect();
    let store = ShardedStateStore::new(1);
    store.put_state(UserId(0), &state);
    let stored = store.get_state(UserId(0)).expect("just stored");
    println!("f32 hidden state  : {} bytes/user", rnn.state_bytes());
    println!("bf16 in the store : {} bytes/user", store.stored_bytes());
    let err = state
        .iter()
        .zip(stored)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("max rounding error: {err:.4}");
}

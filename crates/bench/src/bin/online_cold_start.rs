//! Regenerates **Figure 7** (online PR-AUC per day since experiment start
//! for RNN vs GBDT on cold-start users) and the §9 successful-prefetch
//! comparison at the production precision target of 60%.

use pp_baselines::features::{
    build_session_examples, BaselineFeaturizer, ElapsedEncoding, FeatureSet,
};
use pp_baselines::Gbdt;
use pp_bench::{section, Scale};
use pp_core::experiments::OfflineExperimentConfig;
use pp_core::online::run_online_comparison;
use pp_data::schema::DatasetKind;
use pp_data::split::UserSplit;
use pp_data::synth::{MobileTabGenerator, SyntheticGenerator};
use pp_rnn::{RnnModel, RnnModelConfig, RnnTrainer, TaskKind, TrainerConfig};

fn main() {
    let scale = Scale::from_env();
    let config: OfflineExperimentConfig = scale.experiment();
    println!("scale: {scale:?}");
    let ds = MobileTabGenerator::new(scale.mobiletab()).generate();
    let split = UserSplit::ninety_ten(&ds, scale.seed);

    // Train the incumbent GBDT and the challenger RNN on the training users.
    let featurizer = BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
    let train_examples = build_session_examples(&ds, &split.train, &featurizer, Some(7));
    let gbdt = Gbdt::train(&train_examples, config.gbdt);
    let mut rnn = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig {
            hidden_dim: scale.hidden,
            mlp_width: scale.hidden,
            ..Default::default()
        },
        scale.seed,
    );
    let trainer = RnnTrainer::new(TrainerConfig {
        epochs: scale.epochs,
        seed: scale.seed,
        ..Default::default()
    });
    trainer.train(&mut rnn, &ds, &split.train);

    // Replay both models over the held-out users, which start with no history
    // (the cold-start condition of the paper's online experiment).
    let cmp = run_online_comparison(&rnn, &gbdt, &featurizer, &ds, &split.test, 0.6);

    section("Figure 7: online PR-AUC by day since experiment start");
    println!(
        "{:>5}{:>12}{:>12}{:>14}",
        "DAY", "RNN", "GBDT", "PREDICTIONS"
    );
    for (r, g) in cmp.rnn_daily.iter().zip(&cmp.gbdt_daily) {
        println!(
            "{:>5}{:>12.3}{:>12.3}{:>14}",
            r.day, r.pr_auc, g.pr_auc, r.predictions
        );
    }

    section("§9: successful prefetches at the 60%-precision operating point");
    println!(
        "RNN  recall @ 60% precision : {:.3} (paper: 0.511)",
        cmp.rnn_recall_at_target
    );
    println!(
        "GBDT recall @ 60% precision : {:.3} (paper: 0.474)",
        cmp.gbdt_recall_at_target
    );
    println!(
        "relative successful-prefetch lift: {:+.2}% (paper: +7.81%)",
        cmp.successful_prefetch_lift * 100.0
    );
}

//! Cross-crate integration tests: full pipelines from synthetic data through
//! feature engineering, model training, evaluation, and serving.

use predictive_precompute::core::online::run_online_comparison;
use predictive_precompute::core::{
    run_feature_ablation, run_kfold_experiment, run_offline_experiment, ModelKind,
    OfflineExperimentConfig,
};
use predictive_precompute::data::schema::{Session, UserId};
use predictive_precompute::data::split::UserSplit;
use predictive_precompute::data::synth::{
    MobileTabConfig, MobileTabGenerator, MpuConfig, MpuGenerator, SyntheticGenerator,
    TimeshiftConfig, TimeshiftGenerator,
};
use predictive_precompute::data::DatasetKind;
use predictive_precompute::precompute::{
    AdmissionOrder, BudgetConfig, CacheConfig, ControllerConfig, PrecomputePolicy,
    PrecomputeSystem, SystemConfig,
};
use predictive_precompute::rnn::{
    scores_and_labels, RnnModel, RnnModelConfig, RnnTrainer, TaskKind, TrainerConfig,
};
use predictive_precompute::serving::{
    BatchScheduler, PredictRequest, ShardedStateStore, UpdateRequest,
};
use std::collections::HashMap;

fn fast_config() -> OfflineExperimentConfig {
    OfflineExperimentConfig {
        rnn_model: RnnModelConfig::tiny(),
        rnn_trainer: TrainerConfig {
            epochs: 8,
            learning_rate: 3e-3,
            train_last_days: 10,
            ..Default::default()
        },
        gbdt: predictive_precompute::baselines::GbdtConfig {
            num_trees: 15,
            max_depth: 4,
            ..Default::default()
        },
        logreg: predictive_precompute::baselines::LogRegConfig {
            epochs: 4,
            ..Default::default()
        },
        ..OfflineExperimentConfig::default()
    }
}

#[test]
fn mobiletab_offline_experiment_all_models() {
    let dataset = MobileTabGenerator::new(MobileTabConfig {
        num_users: 80,
        num_days: 14,
        ..Default::default()
    })
    .generate();
    let evals = run_offline_experiment(&dataset, &ModelKind::ALL, &fast_config());
    assert_eq!(evals.len(), 4);
    // All models score the same evaluation examples.
    for e in &evals {
        assert_eq!(e.labels, evals[0].labels);
        assert!(e.report.pr_auc > 0.0);
        assert!(e.report.pr_auc <= 1.0);
    }
    // Context/history-aware models should comfortably beat the positive rate
    // (the PR-AUC of a random ranker).
    let base_rate = evals[0].report.positive_rate();
    let gbdt = evals.iter().find(|e| e.model == ModelKind::Gbdt).unwrap();
    let rnn = evals.iter().find(|e| e.model == ModelKind::Rnn).unwrap();
    assert!(
        gbdt.report.pr_auc > base_rate,
        "GBDT PR-AUC {} should beat the base rate {}",
        gbdt.report.pr_auc,
        base_rate
    );
    // The integration-test RNN is deliberately tiny (16-d hidden, 3 epochs,
    // 80 users), so only require it to be clearly better than random.
    assert!(
        rnn.report.pr_auc > base_rate,
        "RNN PR-AUC {} should beat the base rate {} even at test scale",
        rnn.report.pr_auc,
        base_rate
    );
}

#[test]
fn timeshift_offline_experiment_produces_window_level_examples() {
    let dataset = TimeshiftGenerator::new(TimeshiftConfig {
        num_users: 60,
        num_days: 14,
        ..Default::default()
    })
    .generate();
    let evals = run_offline_experiment(
        &dataset,
        &[ModelKind::PercentageBased, ModelKind::Gbdt, ModelKind::Rnn],
        &fast_config(),
    );
    // 10% of 60 users = 6 test users, 7 eval days each.
    for e in &evals {
        assert_eq!(e.labels.len(), 6 * 7, "model {}", e.model);
    }
}

#[test]
fn mpu_kfold_experiment_combines_folds() {
    let dataset = MpuGenerator::new(MpuConfig {
        num_users: 24,
        num_days: 10,
        median_notifications_per_day: 8.0,
        ..Default::default()
    })
    .generate();
    let evals = run_kfold_experiment(
        &dataset,
        &[ModelKind::PercentageBased, ModelKind::Gbdt],
        &fast_config(),
        4,
    );
    assert_eq!(evals.len(), 2);
    // Both models are evaluated on the same out-of-fold example count.
    assert_eq!(evals[0].labels.len(), evals[1].labels.len());
    assert!(evals[0].labels.iter().any(|&l| l));
}

#[test]
fn feature_ablation_shows_feature_value() {
    let dataset = MobileTabGenerator::new(MobileTabConfig {
        num_users: 80,
        num_days: 14,
        ..Default::default()
    })
    .generate();
    let rows = run_feature_ablation(&dataset, &fast_config());
    assert_eq!(rows.len(), 3);
    // The full feature set should not be substantially worse than
    // context-only features (Table 5 shows it is substantially better).
    let c_only = rows[0].1.report.pr_auc;
    let full = rows[2].1.report.pr_auc;
    assert!(
        full > c_only - 0.05,
        "A+E+C ({full:.3}) should not trail C ({c_only:.3})"
    );
}

#[test]
fn rnn_training_plus_serving_pipeline_round_trip() {
    let dataset = MobileTabGenerator::new(MobileTabConfig {
        num_users: 40,
        num_days: 10,
        ..Default::default()
    })
    .generate();
    let split = UserSplit::ninety_ten(&dataset, 3);
    let mut model = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::tiny(),
        5,
    );
    let trainer = RnnTrainer::new(TrainerConfig {
        epochs: 1,
        train_last_days: 8,
        ..Default::default()
    });
    trainer.train(&mut model, &dataset, &split.train);

    // Calibrate a policy on training users and serve the test users.
    let calib = trainer.evaluate(&model, &dataset, &split.train, Some(5));
    let (scores, labels) = scores_and_labels(&calib);
    let policy = PrecomputePolicy::for_target_precision(&scores, &labels, 0.5)
        .unwrap_or_else(|| PrecomputePolicy::with_threshold(0.5));

    // Serve the test users' sessions in timestamp order, one wave per
    // session start: score it from the stored hidden state, decide and
    // prefetch, resolve it against what the session did, then apply its
    // close update (no stream-join lag).
    let mut sessions: Vec<(UserId, Session)> = split
        .test
        .iter()
        .flat_map(|&u| {
            let user = &dataset.users[u];
            user.sessions.iter().map(|&s| (user.user_id, s))
        })
        .collect();
    sessions.sort_by_key(|&(user, s)| (s.timestamp, user));
    let store = ShardedStateStore::new(1);
    let mut scheduler = BatchScheduler::new(&model, &store, 16);
    let mut system = PrecomputeSystem::new(SystemConfig {
        initial_threshold: policy.threshold(),
        budget: BudgetConfig {
            capacity_units: sessions.len() as f64,
            refill_units_per_sec: 0.0,
            cost_per_prefetch_units: 1.0,
            max_inflight: sessions.len(),
        },
        cache: CacheConfig::default(),
        controller: ControllerConfig {
            target_precision: 0.5,
            ..ControllerConfig::default()
        },
        admission: AdmissionOrder::Priority,
        recalibrate_from_outcomes: false,
        payload_bytes: 64,
    });
    let mut last_update: HashMap<UserId, i64> = HashMap::new();
    for &(user, s) in &sessions {
        let since = last_update
            .insert(user, s.timestamp)
            .map_or(0, |t| s.timestamp - t);
        let predictions = scheduler.run([PredictRequest {
            user_id: user,
            timestamp: s.timestamp,
            context: s.context,
            elapsed_secs: since,
        }]);
        system.handle_scores(&predictions, s.timestamp);
        system
            .resolve_session(user, s.timestamp, s.accessed)
            .expect("the session was just decided");
        scheduler.apply_updates(&[UpdateRequest {
            user_id: user,
            timestamp: s.timestamp,
            context: s.context,
            delta_t_secs: since,
            accessed: s.accessed,
        }]);
    }

    let expected_sessions: usize = split.test.iter().map(|&i| dataset.users[i].len()).sum();
    let served = scheduler.stats();
    assert_eq!(served.predictions as usize, expected_sessions);
    assert_eq!(served.updates as usize, expected_sessions);
    assert_eq!(system.report().decisions.scored as usize, expected_sessions);
    assert_eq!(store.len(), split.test.len());
    // §9 store traffic: one read per prediction, one read-modify-write per
    // update.
    let traffic = store.stats();
    assert_eq!(traffic.reads, served.predictions + served.updates);
    assert_eq!(traffic.writes, served.updates);
    // Precision/recall bookkeeping is internally consistent and accounts
    // for every access.
    system.check_invariants().expect("outcome books balance");
    let outcomes = system.report().outcomes;
    let accesses = sessions.iter().filter(|(_, s)| s.accessed).count() as u64;
    assert_eq!(outcomes.hits + outcomes.missed_accesses, accesses);
}

#[test]
fn online_comparison_runs_end_to_end() {
    use predictive_precompute::baselines::features::{
        build_session_examples, BaselineFeaturizer, ElapsedEncoding, FeatureSet,
    };
    use predictive_precompute::baselines::{Gbdt, GbdtConfig};

    let dataset = MobileTabGenerator::new(MobileTabConfig {
        num_users: 40,
        num_days: 10,
        ..Default::default()
    })
    .generate();
    let split = UserSplit::ninety_ten(&dataset, 11);

    // Train both models on the training users.
    let featurizer =
        BaselineFeaturizer::new(dataset.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
    let train_examples = build_session_examples(&dataset, &split.train, &featurizer, Some(7));
    let gbdt = Gbdt::train(
        &train_examples,
        GbdtConfig {
            num_trees: 15,
            max_depth: 4,
            ..Default::default()
        },
    );
    let mut rnn = RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        RnnModelConfig::tiny(),
        9,
    );
    let trainer = RnnTrainer::new(TrainerConfig {
        epochs: 1,
        train_last_days: 8,
        ..Default::default()
    });
    trainer.train(&mut rnn, &dataset, &split.train);

    let cmp = run_online_comparison(&rnn, &gbdt, &featurizer, &dataset, &split.test, 0.5);
    assert_eq!(cmp.rnn_daily.len(), dataset.num_days as usize);
    assert_eq!(cmp.gbdt_daily.len(), dataset.num_days as usize);
    let rnn_preds: usize = cmp.rnn_daily.iter().map(|d| d.predictions).sum();
    let expected: usize = split.test.iter().map(|&i| dataset.users[i].len()).sum();
    assert_eq!(rnn_preds, expected);
}

//! Regenerates **Figure 4**: training log loss versus number of sessions
//! processed on the MPU dataset (multiple epochs), plus what a session step
//! of that training cost (§7.1).

use pp_bench::{section, Scale};
use pp_data::schema::DatasetKind;
use pp_data::split::UserSplit;
use pp_data::synth::{MpuGenerator, SyntheticGenerator};
use pp_rnn::{RnnModel, RnnModelConfig, RnnTrainer, TaskKind, TrainerConfig};

fn main() {
    let scale = Scale::from_env();
    println!("scale: {scale:?}");
    let ds = MpuGenerator::new(scale.mpu()).generate();
    let split = UserSplit::ninety_ten(&ds, scale.seed);
    let epochs = scale.epochs.max(2);

    let model_config = RnnModelConfig {
        hidden_dim: scale.hidden,
        mlp_width: scale.hidden,
        ..Default::default()
    };

    section("Figure 4: training log loss vs sessions processed (MPU)");
    let mut model = RnnModel::new(
        DatasetKind::Mpu,
        TaskKind::PerSession,
        model_config,
        scale.seed,
    );
    let trainer = RnnTrainer::new(TrainerConfig {
        epochs,
        seed: scale.seed,
        ..Default::default()
    });
    let report = trainer.train(&mut model, &ds, &split.train);
    println!("{:>16}{:>8}{:>12}", "SESSIONS", "EPOCH", "LOG LOSS");
    let step = (report.loss_trace.len() / 40).max(1);
    for p in report.loss_trace.iter().step_by(step) {
        println!(
            "{:>16}{:>8}{:>12.4}",
            p.sessions_processed, p.epoch, p.log_loss
        );
    }
    println!(
        "total: {} sessions, {} predictions, {:.1}s wall time",
        report.total_sessions, report.total_predictions, report.wall_time_secs
    );

    section("§7.1: unpadded minibatches, stepped time-major through the fused kernels");
    println!(
        "{:.2} µs per session step ({} session steps, {} predictions in {:.2} s)",
        report.wall_time_secs * 1e6 / report.total_sessions.max(1) as f64,
        report.total_sessions,
        report.total_predictions,
        report.wall_time_secs
    );
    println!("(The paper threads each user's sequence to avoid padding, ≈ 2× over padded batching; here the users of a minibatch step together, longest first, and a finished user leaves the batch.)");
}

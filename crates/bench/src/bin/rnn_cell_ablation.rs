//! Regenerates the §6.2 architecture ablations: recurrent cell type
//! (tanh vs GRU vs LSTM), hidden-state dimensionality sweep, and the effect
//! of the latent-cross interaction.

use pp_bench::{section, Scale};
use pp_core::experiments::{evaluate_model_on_split, ModelKind, OfflineExperimentConfig};
use pp_data::split::UserSplit;
use pp_data::synth::{MobileTabGenerator, SyntheticGenerator};
use pp_nn::layers::CellKind;
use pp_rnn::RnnModelConfig;

fn main() {
    let scale = Scale::from_env();
    println!("scale: {scale:?}");
    let ds = MobileTabGenerator::new(scale.mobiletab()).generate();
    let split = UserSplit::ninety_ten(&ds, scale.seed);
    let base: OfflineExperimentConfig = scale.experiment();

    let run = |rnn_model: RnnModelConfig| {
        let config = OfflineExperimentConfig { rnn_model, ..base };
        evaluate_model_on_split(ModelKind::Rnn, &ds, &split.train, &split.test, &config)
    };

    section("§6.2: recurrent cell comparison (MobileTab)");
    println!("{:<8}{:>10}{:>16}", "CELL", "PR-AUC", "RECALL@50%P");
    for cell in [CellKind::Tanh, CellKind::Gru, CellKind::Lstm] {
        let eval = run(RnnModelConfig {
            cell,
            hidden_dim: scale.hidden,
            mlp_width: scale.hidden,
            ..Default::default()
        });
        println!(
            "{:<8}{:>10.3}{:>16.3}",
            cell.to_string(),
            eval.report.pr_auc,
            eval.report.recall_at_50_precision
        );
    }

    section("Hidden-state dimensionality sweep (GRU)");
    println!(
        "{:<8}{:>10}{:>16}{:>14}",
        "DIM", "PR-AUC", "RECALL@50%P", "BYTES/USER"
    );
    for dim in [16usize, 32, 64, 128] {
        let eval = run(RnnModelConfig {
            hidden_dim: dim,
            mlp_width: dim,
            ..Default::default()
        });
        println!(
            "{:<8}{:>10.3}{:>16.3}{:>14}",
            dim,
            eval.report.pr_auc,
            eval.report.recall_at_50_precision,
            // The store keeps a state as one bf16 row: two bytes a value.
            2 * dim
        );
    }

    section("Latent cross ablation (GRU)");
    for (name, latent_cross) in [("with latent cross", true), ("without latent cross", false)] {
        let eval = run(RnnModelConfig {
            hidden_dim: scale.hidden,
            mlp_width: scale.hidden,
            latent_cross,
            ..Default::default()
        });
        println!(
            "{:<22} PR-AUC {:.3}  recall@50%P {:.3}",
            name, eval.report.pr_auc, eval.report.recall_at_50_precision
        );
    }
}

//! Per-prediction serving cost of a model path (paper §9, "Relative
//! production resources"). A [`ServingProfile`] counts a path's lookups,
//! bytes and FLOPs, and [`ServingProfile::cost_units`] weighs them into one
//! unit under [`CostWeights`]. The precompute budget charges a prefetch in
//! these units. `pp-core`'s `cost` module profiles the GBDT's
//! aggregation-feature path and compares it with the RNN's [`rnn_profile`].

use pp_rnn::RnnModel;

/// Per-prediction serving profile of one model path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingProfile {
    /// Key-value lookups needed to serve one prediction.
    pub lookups_per_prediction: f64,
    /// Bytes fetched from the store per prediction.
    pub bytes_per_prediction: f64,
    /// Model-evaluation FLOPs per prediction (tree comparisons are counted
    /// as one FLOP each).
    pub model_flops_per_prediction: f64,
    /// Average number of store keys per user.
    pub storage_keys_per_user: f64,
    /// Average stored bytes per user.
    pub storage_bytes_per_user: f64,
}

/// Weights converting lookups/bytes/FLOPs into a single abstract cost unit.
/// The defaults reflect the paper's observation that serving aggregate
/// features "requires about two orders of magnitude more compute than the
/// model computation itself": a remote key-value lookup is vastly more
/// expensive than an arithmetic operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Cost of one key-value lookup, in FLOP-equivalents.
    pub flops_per_lookup: f64,
    /// Cost of moving one byte from the store, in FLOP-equivalents.
    pub flops_per_byte: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            flops_per_lookup: 50_000.0,
            flops_per_byte: 10.0,
        }
    }
}

impl ServingProfile {
    /// Total per-prediction cost of this path under `weights`, in abstract
    /// FLOP-equivalent units — the single formula behind both the §9
    /// comparison (`pp-core`'s `cost::compare`) and the precompute budget
    /// (`pp-precompute`'s token bucket is denominated in these units).
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_serving::{CostWeights, ServingProfile};
    ///
    /// let rnn_like = ServingProfile {
    ///     lookups_per_prediction: 1.0,
    ///     bytes_per_prediction: 512.0,
    ///     model_flops_per_prediction: 2_400.0,
    ///     storage_keys_per_user: 1.0,
    ///     storage_bytes_per_user: 512.0,
    /// };
    /// // one lookup (50 000) + 512 bytes (5 120) + the model FLOPs
    /// assert_eq!(rnn_like.cost_units(&CostWeights::default()), 57_520.0);
    /// ```
    pub fn cost_units(&self, weights: &CostWeights) -> f64 {
        self.lookups_per_prediction * weights.flops_per_lookup
            + self.bytes_per_prediction * weights.flops_per_byte
            + self.model_flops_per_prediction
    }
}

/// Serving profile of the RNN path: one lookup returning one hidden state,
/// and the `RNN_predict` FLOPs.
pub fn rnn_profile(model: &RnnModel) -> ServingProfile {
    ServingProfile {
        lookups_per_prediction: 1.0,
        bytes_per_prediction: model.state_bytes() as f64,
        model_flops_per_prediction: model.predict_flops() as f64,
        storage_keys_per_user: 1.0,
        storage_bytes_per_user: model.state_bytes() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::DatasetKind;
    use pp_rnn::{RnnModelConfig, TaskKind};

    #[test]
    fn rnn_profile_matches_model_dimensions() {
        let model = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::default(),
            0,
        );
        let p = rnn_profile(&model);
        assert_eq!(p.lookups_per_prediction, 1.0);
        assert_eq!(p.bytes_per_prediction, 512.0);
        assert_eq!(p.storage_keys_per_user, 1.0);
        assert!(p.model_flops_per_prediction > 0.0);
    }
}

//! L2-regularised logistic regression (paper §5.3) trained with mini-batch
//! gradient descent and Adam-style adaptive learning rates.
//!
//! The paper trains scikit-learn's `LogisticRegression` with the SAGA
//! solver; any convergent solver reaches the same optimum family, so this
//! implementation uses a simple Adam loop, which needs no external
//! dependencies and handles the large sparse-ish one-hot vectors fine.

use crate::features::LabeledExample;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training configuration for [`LogisticRegression`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogRegConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 256,
            learning_rate: 0.05,
            l2: 1e-6,
            seed: 0,
        }
    }
}

/// A trained logistic-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    config: LogRegConfig,
}

impl LogisticRegression {
    /// Trains a model on the given examples.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or feature lengths are inconsistent.
    pub fn train(examples: &[LabeledExample], config: LogRegConfig) -> Self {
        assert!(!examples.is_empty(), "cannot train on an empty example set");
        let dims = examples[0].features.len();
        assert!(
            examples.iter().all(|e| e.features.len() == dims),
            "inconsistent feature dimensionality"
        );
        let mut weights = vec![0.0f64; dims];
        let mut bias = 0.0f64;
        // Adam state.
        let mut m = vec![0.0f64; dims + 1];
        let mut v = vec![0.0f64; dims + 1];
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let mut step = 0u64;

        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut grad = vec![0.0f64; dims + 1];

        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch_size.max(1)) {
                grad.iter_mut().for_each(|g| *g = 0.0);
                for &idx in batch {
                    let ex = &examples[idx];
                    let z: f64 = ex
                        .features
                        .iter()
                        .zip(weights.iter())
                        .map(|(&x, &w)| x as f64 * w)
                        .sum::<f64>()
                        + bias;
                    let p = sigmoid(z);
                    let err = p - ex.label as u8 as f64;
                    for (g, &x) in grad.iter_mut().zip(ex.features.iter()) {
                        *g += err * x as f64;
                    }
                    grad[dims] += err;
                }
                let scale = 1.0 / batch.len() as f64;
                step += 1;
                let bias1 = 1.0 - beta1.powi(step as i32);
                let bias2 = 1.0 - beta2.powi(step as i32);
                for i in 0..=dims {
                    let mut g = grad[i] * scale;
                    if i < dims {
                        g += config.l2 * weights[i];
                    }
                    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
                    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
                    let update =
                        config.learning_rate * (m[i] / bias1) / ((v[i] / bias2).sqrt() + eps);
                    if i < dims {
                        weights[i] -= update;
                    } else {
                        bias -= update;
                    }
                }
            }
        }
        Self {
            weights,
            bias,
            config,
        }
    }

    /// Number of input features the model expects.
    pub fn dims(&self) -> usize {
        self.weights.len()
    }

    /// The training configuration used to fit the model.
    pub fn config(&self) -> LogRegConfig {
        self.config
    }

    /// Predicted access probability for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the feature length does not match the trained model.
    pub fn predict(&self, features: &[f32]) -> f64 {
        assert_eq!(
            features.len(),
            self.weights.len(),
            "feature length mismatch"
        );
        let z: f64 = features
            .iter()
            .zip(self.weights.iter())
            .map(|(&x, &w)| x as f64 * w)
            .sum::<f64>()
            + self.bias;
        sigmoid(z)
    }

    /// Predicted probabilities for a batch of examples.
    pub fn predict_batch(&self, examples: &[LabeledExample]) -> Vec<f64> {
        examples.iter().map(|e| self.predict(&e.features)).collect()
    }
}

fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example(features: Vec<f32>, label: bool) -> LabeledExample {
        LabeledExample {
            features,
            label,
            timestamp: 0,
            user_index: 0,
            day_offset: 0,
        }
    }

    /// Linearly separable toy data: label = (x0 > x1).
    fn linear_data(n: usize) -> Vec<LabeledExample> {
        let mut out = Vec::new();
        let mut state = 1u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) as f32
        };
        for _ in 0..n {
            let a = next();
            let b = next();
            out.push(example(vec![a, b, 1.0], a > b));
        }
        out
    }

    #[test]
    fn learns_linearly_separable_data() {
        let data = linear_data(2_000);
        let model = LogisticRegression::train(&data, LogRegConfig::default());
        let correct = data
            .iter()
            .filter(|e| (model.predict(&e.features) > 0.5) == e.label)
            .count();
        let accuracy = correct as f64 / data.len() as f64;
        assert!(accuracy > 0.95, "accuracy too low: {accuracy}");
    }

    #[test]
    fn predictions_are_probabilities() {
        let data = linear_data(500);
        let model = LogisticRegression::train(&data, LogRegConfig::default());
        for e in &data {
            let p = model.predict(&e.features);
            assert!((0.0..=1.0).contains(&p));
        }
        assert_eq!(model.predict_batch(&data).len(), data.len());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = linear_data(300);
        let a = LogisticRegression::train(&data, LogRegConfig::default());
        let b = LogisticRegression::train(&data, LogRegConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn strong_l2_shrinks_weights() {
        let data = linear_data(500);
        let loose = LogisticRegression::train(
            &data,
            LogRegConfig {
                l2: 0.0,
                ..Default::default()
            },
        );
        let tight = LogisticRegression::train(
            &data,
            LogRegConfig {
                l2: 10.0,
                ..Default::default()
            },
        );
        let norm = |m: &LogisticRegression| m.weights.iter().map(|w| w * w).sum::<f64>();
        assert!(norm(&tight) < norm(&loose));
    }

    #[test]
    fn skewed_labels_yield_calibrated_base_rate() {
        // 10% positive rate with uninformative features: predictions should
        // hover near 0.1 rather than 0.5.
        let mut data = Vec::new();
        for i in 0..2_000 {
            data.push(example(vec![1.0], i % 10 == 0));
        }
        let model = LogisticRegression::train(
            &data,
            LogRegConfig {
                epochs: 30,
                ..Default::default()
            },
        );
        let p = model.predict(&[1.0]);
        assert!((p - 0.1).abs() < 0.05, "expected ≈0.1, got {p}");
    }

    #[test]
    #[should_panic(expected = "empty example set")]
    fn empty_training_panics() {
        let _ = LogisticRegression::train(&[], LogRegConfig::default());
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn wrong_dims_panics() {
        let data = linear_data(50);
        let model = LogisticRegression::train(&data, LogRegConfig::default());
        let _ = model.predict(&[1.0]);
    }
}

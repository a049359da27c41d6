//! The Adam optimizer (the paper's choice, lr = 1e-3) with optional
//! decoupled weight decay.

use crate::params::{GradStore, ParamStore};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Configuration for [`Adam`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate (paper: `1e-3`).
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stability constant.
    pub eps: f32,
    /// Decoupled weight decay (0 disables it).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// The Adam optimizer (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    config: AdamConfig,
    step: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer for the given parameter store.
    pub fn new(params: &ParamStore, config: AdamConfig) -> Self {
        let shapes: Vec<Tensor> = params
            .iter()
            .map(|(_, p)| Tensor::zeros(p.value().rows(), p.value().cols()))
            .collect();
        Self {
            config,
            step: 0,
            m: shapes.clone(),
            v: shapes,
        }
    }

    /// Number of optimizer steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Optimizer configuration.
    pub fn config(&self) -> AdamConfig {
        self.config
    }

    /// Applies one update step given accumulated gradients.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grads` has a different layout from the store
    /// the optimizer was created for.
    pub fn step(&mut self, params: &mut ParamStore, grads: &GradStore) {
        assert_eq!(
            params.len(),
            self.m.len(),
            "optimizer was created for a different parameter store layout"
        );
        assert_eq!(params.len(), grads.len(), "gradient store layout mismatch");
        self.step += 1;
        let t = self.step as f32;
        let bias1 = 1.0 - self.config.beta1.powf(t);
        let bias2 = 1.0 - self.config.beta2.powf(t);
        let ids: Vec<_> = params.iter().map(|(id, _)| id).collect();
        for id in ids {
            let g = grads.get(id);
            let m = &mut self.m[id.index()];
            let v = &mut self.v[id.index()];
            let p = params.get_mut(id);
            let (b1, b2, eps, lr, wd) = (
                self.config.beta1,
                self.config.beta2,
                self.config.eps,
                self.config.lr,
                self.config.weight_decay,
            );
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            let elements = p.as_mut_slice().iter_mut().zip(moments).zip(g.as_slice());
            for ((p, (m, v)), &g) in elements {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                let mut update = lr * m_hat / (v_hat.sqrt() + eps);
                if wd > 0.0 {
                    update += lr * wd * *p;
                }
                *p -= update;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::params::ParamStore;

    /// Minimizes f(w) = (w - 3)^2 and checks convergence.
    fn minimize_quadratic(mut opt: Adam, store: &mut ParamStore, steps: usize) -> f32 {
        let w = store.find("w").unwrap();
        for _ in 0..steps {
            let mut g = Graph::new();
            let wn = g.param(w, store.get(w));
            let target = g.constant(Tensor::from_row(&[3.0]));
            let diff = g.sub(wn, target);
            let sq = g.mul(diff, diff);
            let loss = g.sum(sq);
            g.backward(loss);
            let mut grads = store.zero_grads();
            g.param_grads_into(&mut grads);
            opt.step(store, &grads);
        }
        store.get(w).at(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_row(&[0.0]));
        let adam = Adam::new(
            &store,
            AdamConfig {
                lr: 0.1,
                ..Default::default()
            },
        );
        let w = minimize_quadratic(adam, &mut store, 300);
        assert!((w - 3.0).abs() < 0.05, "adam did not converge: w = {w}");
    }

    #[test]
    fn adam_step_counter_and_lr() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_row(&[1.0]));
        let mut adam = Adam::new(&store, AdamConfig::default());
        assert_eq!(adam.steps_taken(), 0);
        assert!((adam.config().lr - 1e-3).abs() < 1e-9);
        let grads = store.zero_grads();
        adam.step(&mut store, &grads);
        assert_eq!(adam.steps_taken(), 1);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_row(&[10.0]));
        let mut adam = Adam::new(
            &store,
            AdamConfig {
                lr: 0.1,
                weight_decay: 0.1,
                ..Default::default()
            },
        );
        let grads = store.zero_grads();
        for _ in 0..50 {
            adam.step(&mut store, &grads);
        }
        let w = store.get(store.find("w").unwrap()).at(0, 0);
        assert!(w < 10.0, "weight decay should shrink the weight, got {w}");
    }

    #[test]
    #[should_panic(expected = "different parameter store layout")]
    fn layout_mismatch_panics() {
        let mut store_a = ParamStore::new();
        store_a.add("a", Tensor::zeros(1, 1));
        let mut adam = Adam::new(&store_a, AdamConfig::default());

        let mut store_b = ParamStore::new();
        store_b.add("a", Tensor::zeros(1, 1));
        store_b.add("b", Tensor::zeros(1, 1));
        let grads = store_b.zero_grads();
        adam.step(&mut store_b, &grads);
    }
}

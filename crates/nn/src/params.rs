//! Named parameter storage shared between layers, the autograd graph, and
//! optimizers.
//!
//! Layers do not own their weights directly. Instead they hold [`ParamId`]
//! handles into a [`ParamStore`]. This indirection is what allows the
//! per-user parallel training scheme from §7.1 of the paper: worker threads
//! read parameter values from a shared store, build their own autograd
//! graphs, and produce a [`GradStore`] each, which are then summed and
//! applied by a single optimizer step. The GRU's fused backward adds its
//! gradients straight into one [`GradStore`] instead.

use crate::tensor::Tensor;

/// Handle to a parameter tensor inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index of the parameter inside its store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named parameter tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamEntry {
    name: String,
    value: Tensor,
}

impl ParamEntry {
    /// Parameter name (unique within a store).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }
}

/// A collection of named, trainable parameter tensors.
///
/// # Examples
///
/// ```
/// use pp_nn::params::ParamStore;
/// use pp_nn::tensor::Tensor;
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Tensor::ones(2, 2));
/// assert_eq!(store.get(w).shape(), (2, 2));
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamStore {
    params: Vec<ParamEntry>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if a parameter with the same name already exists.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.params.iter().any(|p| p.name == name),
            "duplicate parameter name: {name}"
        );
        self.params.push(ParamEntry { name, value });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Returns `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Returns the value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this store.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Returns a mutable reference to the value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this store.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Looks a parameter up by name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.params.iter().position(|p| p.name == name).map(ParamId)
    }

    /// Iterates over `(id, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &ParamEntry)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Total number of scalar parameters across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Creates a gradient store with one zero tensor per parameter, shaped
    /// like the parameters.
    pub fn zero_grads(&self) -> GradStore {
        GradStore {
            grads: self
                .params
                .iter()
                .map(|p| Tensor::zeros(p.value.rows(), p.value.cols()))
                .collect(),
        }
    }
}

/// Per-parameter gradient accumulator, shaped like a [`ParamStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct GradStore {
    grads: Vec<Tensor>,
}

impl GradStore {
    /// Number of gradient tensors.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Returns `true` when the store holds no gradients.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Gradient for a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Mutable gradient for a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.0]
    }

    /// Adds `grad` into the accumulator for `id`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or `id` is out of range.
    pub fn accumulate(&mut self, id: ParamId, grad: &Tensor) {
        self.grads[id.0].add_scaled_inplace(grad, 1.0);
    }

    /// Adds every gradient in `other` into `self` (used to merge per-thread
    /// gradients).
    ///
    /// # Panics
    ///
    /// Panics if the two stores have different layouts.
    pub fn merge(&mut self, other: &GradStore) {
        assert_eq!(self.grads.len(), other.grads.len(), "grad store layout");
        for (a, b) in self.grads.iter_mut().zip(other.grads.iter()) {
            a.add_scaled_inplace(b, 1.0);
        }
    }

    /// Scales all gradients by a factor (e.g. `1 / batch_size`).
    pub fn scale(&mut self, factor: f32) {
        for g in &mut self.grads {
            g.map_inplace(|x| x * factor);
        }
    }

    /// Resets all gradients to zero.
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Global L2 norm across all gradients.
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(super::tensor::Tensor::squared_norm)
            .sum::<f32>()
            .sqrt()
    }

    /// Clips gradients so that the global norm does not exceed `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let factor = max_norm / norm;
            self.scale(factor);
        }
        norm
    }

    /// Iterates over gradient tensors in parameter order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.grads.iter().enumerate().map(|(i, g)| (ParamId(i), g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::ones(2, 3));
        let b = store.add("b", Tensor::zeros(1, 4));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(a).shape(), (2, 3));
        assert_eq!(store.get(b).shape(), (1, 4));
        assert_eq!(store.num_scalars(), 10);
        assert_eq!(store.find("a"), Some(a));
        assert_eq!(store.find("missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::ones(1, 1));
        store.add("a", Tensor::ones(1, 1));
    }

    #[test]
    fn grad_accumulate_and_merge() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::zeros(1, 2));
        let mut g1 = store.zero_grads();
        let mut g2 = store.zero_grads();
        g1.accumulate(a, &Tensor::from_row(&[1.0, 2.0]));
        g2.accumulate(a, &Tensor::from_row(&[3.0, 4.0]));
        g1.merge(&g2);
        assert_eq!(g1.get(a), &Tensor::from_row(&[4.0, 6.0]));
        g1.scale(0.5);
        assert_eq!(g1.get(a), &Tensor::from_row(&[2.0, 3.0]));
        g1.zero();
        assert_eq!(g1.get(a), &Tensor::zeros(1, 2));
    }

    #[test]
    fn grad_clipping() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::zeros(1, 2));
        let mut g = store.zero_grads();
        g.accumulate(a, &Tensor::from_row(&[3.0, 4.0]));
        let pre = g.clip_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((g.global_norm() - 1.0).abs() < 1e-5);
        // A second clip with a large bound is a no-op.
        let pre2 = g.clip_global_norm(100.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
    }
}

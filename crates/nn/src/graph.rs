//! Tape-based reverse-mode automatic differentiation over [`Tensor`]s.
//!
//! A [`Graph`] records every operation applied to its nodes. Calling
//! [`Graph::backward`] on a scalar output node propagates gradients back to
//! every node, in particular to parameter leaves created via
//! [`Graph::param`], from which a [`GradStore`] can be extracted with
//! [`Graph::param_grads_into`].
//!
//! The graph is intentionally not thread-safe: the training loop in `pp-rnn`
//! builds one graph per user sequence per thread (mirroring the paper's
//! per-user parallelism) and merges the resulting gradient stores.

use crate::activation;
use crate::params::{GradStore, ParamId};
use crate::tensor::Tensor;
use std::collections::HashMap;

/// Handle to a node inside a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Index of the node in its graph (useful for debugging).
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
#[allow(dead_code)] // some payloads (e.g. the AddScalar constant) are kept for Debug output
enum Op {
    /// Constant or parameter leaf.
    Leaf,
    MatMul(NodeId, NodeId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    AddRowBroadcast(NodeId, NodeId),
    Scale(NodeId, f32),
    AddScalar(NodeId, f32),
    ConcatCols(NodeId, NodeId),
    SliceCols(NodeId, usize, usize),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Relu(NodeId),
    /// Element-wise multiplication by a fixed (non-differentiated) mask,
    /// used for dropout.
    MaskMul(NodeId, Tensor),
    OneMinus(NodeId),
    Mean(NodeId),
    Sum(NodeId),
    /// Mean binary cross-entropy between `sigmoid(logits)` and fixed targets,
    /// computed in a numerically stable fused form.
    BceWithLogits {
        logits: NodeId,
        targets: Tensor,
        weights: Option<Tensor>,
    },
}

#[derive(Debug, Clone)]
struct Node {
    value: Tensor,
    grad: Tensor,
    op: Op,
    #[allow(dead_code)] // retained for Debug/diagnostics; lookups go through `param_nodes`
    param: Option<ParamId>,
}

/// A reverse-mode autodiff tape.
///
/// # Examples
///
/// ```
/// use pp_nn::graph::Graph;
/// use pp_nn::tensor::Tensor;
///
/// let mut g = Graph::new();
/// let x = g.constant(Tensor::from_row(&[2.0]));
/// let y = g.mul(x, x);      // y = x^2
/// let loss = g.sum(y);
/// g.backward(loss);
/// assert_eq!(g.grad(x).as_slice(), &[4.0]); // dy/dx = 2x = 4
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    param_nodes: HashMap<ParamId, NodeId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op, param: Option<ParamId>) -> NodeId {
        let grad = Tensor::zeros(value.rows(), value.cols());
        self.nodes.push(Node {
            value,
            grad,
            op,
            param,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a constant (non-parameter) leaf node.
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Leaf, None)
    }

    /// Adds (or reuses) a leaf node for a trainable parameter. Calling this
    /// repeatedly with the same `id` returns the same node so that gradients
    /// from every use accumulate on a single leaf — required when a weight is
    /// reused across timesteps (backpropagation through time).
    pub fn param(&mut self, id: ParamId, value: &Tensor) -> NodeId {
        if let Some(&node) = self.param_nodes.get(&id) {
            return node;
        }
        let node = self.push(value.clone(), Op::Leaf, Some(id));
        self.param_nodes.insert(id, node);
        node
    }

    /// Returns the value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Returns the gradient of a node (all zeros until [`Graph::backward`]
    /// has been called on a downstream scalar).
    pub fn grad(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].grad
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(value, Op::MatMul(a, b), None)
    }

    /// Element-wise sum `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(value, Op::Add(a, b), None)
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        self.push(value, Op::Sub(a, b), None)
    }

    /// Element-wise product `a ⊙ b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        self.push(value, Op::Mul(a, b), None)
    }

    /// Adds a `1 × n` bias row vector to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let value = self.nodes[a.0]
            .value
            .add_row_broadcast(&self.nodes[bias.0].value);
        self.push(value, Op::AddRowBroadcast(a, bias), None)
    }

    /// Scales every element of `a` by a constant.
    pub fn scale(&mut self, a: NodeId, factor: f32) -> NodeId {
        let value = self.nodes[a.0].value.scale(factor);
        self.push(value, Op::Scale(a, factor), None)
    }

    /// Adds a constant scalar to every element of `a`.
    pub fn add_scalar(&mut self, a: NodeId, constant: f32) -> NodeId {
        let value = self.nodes[a.0].value.map(|x| x + constant);
        self.push(value, Op::AddScalar(a, constant), None)
    }

    /// Concatenates `a` and `b` along columns.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a.0].value.concat_cols(&self.nodes[b.0].value);
        self.push(value, Op::ConcatCols(a, b), None)
    }

    /// Extracts columns `[start, end)` of `a`.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        let value = self.nodes[a.0].value.slice_cols(start, end);
        self.push(value, Op::SliceCols(a, start, end), None)
    }

    /// Element-wise logistic sigmoid ([`activation::sigmoid`]).
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let mut value = self.nodes[a.0].value.clone();
        activation::sigmoid_in_place(value.as_mut_slice());
        self.push(value, Op::Sigmoid(a), None)
    }

    /// Element-wise hyperbolic tangent ([`activation::tanh`]).
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let mut value = self.nodes[a.0].value.clone();
        activation::tanh_in_place(value.as_mut_slice());
        self.push(value, Op::Tanh(a), None)
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let value = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(value, Op::Relu(a), None)
    }

    /// Multiplies `a` element-wise by a fixed mask that is not
    /// differentiated (inverted-dropout masks, missing-value masks, …).
    ///
    /// # Panics
    ///
    /// Panics if the mask shape differs from the node shape.
    pub fn mask_mul(&mut self, a: NodeId, mask: Tensor) -> NodeId {
        let value = self.nodes[a.0].value.mul(&mask);
        self.push(value, Op::MaskMul(a, mask), None)
    }

    /// Computes `1 - a` element-wise.
    pub fn one_minus(&mut self, a: NodeId) -> NodeId {
        let value = self.nodes[a.0].value.map(|x| 1.0 - x);
        self.push(value, Op::OneMinus(a), None)
    }

    /// Mean over all elements, producing a `1 × 1` node.
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        let value = Tensor::from_row(&[self.nodes[a.0].value.mean()]);
        self.push(value, Op::Mean(a), None)
    }

    /// Sum over all elements, producing a `1 × 1` node.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let value = Tensor::from_row(&[self.nodes[a.0].value.sum()]);
        self.push(value, Op::Sum(a), None)
    }

    /// Mean binary cross-entropy between `sigmoid(logits)` and `targets`,
    /// fused for numerical stability:
    /// `bce(z, y) = max(z, 0) - z*y + ln(1 + e^{-|z|})`.
    ///
    /// Optional per-element `weights` rescale each example's contribution
    /// (the mean is taken over the *weight total*, so uniform weights of 1.0
    /// reproduce the unweighted mean).
    ///
    /// # Panics
    ///
    /// Panics if shapes of `logits`, `targets`, and `weights` differ.
    pub fn bce_with_logits(
        &mut self,
        logits: NodeId,
        targets: Tensor,
        weights: Option<Tensor>,
    ) -> NodeId {
        let z = &self.nodes[logits.0].value;
        assert_eq!(z.shape(), targets.shape(), "bce_with_logits: target shape");
        if let Some(w) = &weights {
            assert_eq!(z.shape(), w.shape(), "bce_with_logits: weight shape");
        }
        let mut total = 0.0_f64;
        let mut weight_total = 0.0_f64;
        for (i, (&zi, &yi)) in z.as_slice().iter().zip(targets.as_slice()).enumerate() {
            let wi = weights.as_ref().map_or(1.0, |w| w.as_slice()[i]);
            let loss = zi.max(0.0) - zi * yi + (1.0 + (-zi.abs()).exp()).ln();
            total += (wi * loss) as f64;
            weight_total += wi as f64;
        }
        let mean = if weight_total > 0.0 {
            (total / weight_total) as f32
        } else {
            0.0
        };
        let value = Tensor::from_row(&[mean]);
        self.push(
            value,
            Op::BceWithLogits {
                logits,
                targets,
                weights,
            },
            None,
        )
    }

    /// Runs reverse-mode differentiation from `output`, which must be a
    /// `1 × 1` scalar node. Gradients accumulate on every node reachable
    /// backwards from `output`; calling `backward` twice accumulates twice.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not a scalar node.
    pub fn backward(&mut self, output: NodeId) {
        assert_eq!(
            self.nodes[output.0].value.shape(),
            (1, 1),
            "backward: output must be a 1x1 scalar node"
        );
        // Seed.
        self.nodes[output.0].grad = Tensor::from_row(&[1.0]);
        // Nodes are recorded in topological order (operands always precede
        // results), so a single reverse sweep suffices.
        for i in (0..=output.0).rev() {
            let node_grad = self.nodes[i].grad.clone();
            if node_grad.max_abs() == 0.0 {
                continue;
            }
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let a_val = self.nodes[a.0].value.clone();
                    let b_val = self.nodes[b.0].value.clone();
                    let grad_a = node_grad.matmul(&b_val.transpose());
                    let grad_b = a_val.transpose().matmul(&node_grad);
                    self.nodes[a.0].grad.add_scaled_inplace(&grad_a, 1.0);
                    self.nodes[b.0].grad.add_scaled_inplace(&grad_b, 1.0);
                }
                Op::Add(a, b) => {
                    self.nodes[a.0].grad.add_scaled_inplace(&node_grad, 1.0);
                    self.nodes[b.0].grad.add_scaled_inplace(&node_grad, 1.0);
                }
                Op::Sub(a, b) => {
                    self.nodes[a.0].grad.add_scaled_inplace(&node_grad, 1.0);
                    self.nodes[b.0].grad.add_scaled_inplace(&node_grad, -1.0);
                }
                Op::Mul(a, b) => {
                    let a_val = self.nodes[a.0].value.clone();
                    let b_val = self.nodes[b.0].value.clone();
                    let grad_a = node_grad.mul(&b_val);
                    let grad_b = node_grad.mul(&a_val);
                    self.nodes[a.0].grad.add_scaled_inplace(&grad_a, 1.0);
                    self.nodes[b.0].grad.add_scaled_inplace(&grad_b, 1.0);
                }
                Op::AddRowBroadcast(a, bias) => {
                    self.nodes[a.0].grad.add_scaled_inplace(&node_grad, 1.0);
                    let bias_grad = node_grad.sum_rows();
                    self.nodes[bias.0].grad.add_scaled_inplace(&bias_grad, 1.0);
                }
                Op::Scale(a, factor) => {
                    self.nodes[a.0].grad.add_scaled_inplace(&node_grad, factor);
                }
                Op::AddScalar(a, _) => {
                    self.nodes[a.0].grad.add_scaled_inplace(&node_grad, 1.0);
                }
                Op::ConcatCols(a, b) => {
                    let a_cols = self.nodes[a.0].value.cols();
                    let total = node_grad.cols();
                    let grad_a = node_grad.slice_cols(0, a_cols);
                    let grad_b = node_grad.slice_cols(a_cols, total);
                    self.nodes[a.0].grad.add_scaled_inplace(&grad_a, 1.0);
                    self.nodes[b.0].grad.add_scaled_inplace(&grad_b, 1.0);
                }
                Op::SliceCols(a, start, _end) => {
                    let mut grad_a =
                        Tensor::zeros(self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
                    for r in 0..node_grad.rows() {
                        for c in 0..node_grad.cols() {
                            grad_a.set(r, start + c, node_grad.at(r, c));
                        }
                    }
                    self.nodes[a.0].grad.add_scaled_inplace(&grad_a, 1.0);
                }
                Op::Sigmoid(a) => {
                    let y = self.nodes[i].value.clone();
                    let local = y.map(|s| s * (1.0 - s));
                    let grad_a = node_grad.mul(&local);
                    self.nodes[a.0].grad.add_scaled_inplace(&grad_a, 1.0);
                }
                Op::Tanh(a) => {
                    let y = self.nodes[i].value.clone();
                    let local = y.map(|t| 1.0 - t * t);
                    let grad_a = node_grad.mul(&local);
                    self.nodes[a.0].grad.add_scaled_inplace(&grad_a, 1.0);
                }
                Op::Relu(a) => {
                    let x = self.nodes[a.0].value.clone();
                    let local = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                    let grad_a = node_grad.mul(&local);
                    self.nodes[a.0].grad.add_scaled_inplace(&grad_a, 1.0);
                }
                Op::MaskMul(a, mask) => {
                    let grad_a = node_grad.mul(&mask);
                    self.nodes[a.0].grad.add_scaled_inplace(&grad_a, 1.0);
                }
                Op::OneMinus(a) => {
                    self.nodes[a.0].grad.add_scaled_inplace(&node_grad, -1.0);
                }
                Op::Mean(a) => {
                    let n = self.nodes[a.0].value.len() as f32;
                    let seed = node_grad.at(0, 0) / n;
                    let grad_a = Tensor::full(
                        self.nodes[a.0].value.rows(),
                        self.nodes[a.0].value.cols(),
                        seed,
                    );
                    self.nodes[a.0].grad.add_scaled_inplace(&grad_a, 1.0);
                }
                Op::Sum(a) => {
                    let seed = node_grad.at(0, 0);
                    let grad_a = Tensor::full(
                        self.nodes[a.0].value.rows(),
                        self.nodes[a.0].value.cols(),
                        seed,
                    );
                    self.nodes[a.0].grad.add_scaled_inplace(&grad_a, 1.0);
                }
                Op::BceWithLogits {
                    logits,
                    targets,
                    weights,
                } => {
                    let z = self.nodes[logits.0].value.clone();
                    let seed = node_grad.at(0, 0);
                    let weight_total: f32 = match &weights {
                        Some(w) => w.as_slice().iter().sum(),
                        None => z.len() as f32,
                    };
                    let denom = if weight_total > 0.0 {
                        weight_total
                    } else {
                        1.0
                    };
                    let mut grad = Tensor::zeros(z.rows(), z.cols());
                    for idx in 0..z.len() {
                        let zi = z.as_slice()[idx];
                        let yi = targets.as_slice()[idx];
                        let wi = weights.as_ref().map_or(1.0, |w| w.as_slice()[idx]);
                        let p = activation::sigmoid(zi);
                        grad.as_mut_slice()[idx] = seed * wi * (p - yi) / denom;
                    }
                    self.nodes[logits.0].grad.add_scaled_inplace(&grad, 1.0);
                }
            }
        }
    }

    /// Accumulates the gradients of all parameter leaves into `grads`.
    pub fn param_grads_into(&self, grads: &mut GradStore) {
        for (&param, &node) in &self.param_nodes {
            grads.accumulate(param, &self.nodes[node.0].grad);
        }
    }

    /// Clears all recorded nodes while keeping allocated capacity, so a graph
    /// can be reused across training steps.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.param_nodes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    /// Finite-difference gradient check helper: perturbs each element of the
    /// parameter tensor and compares the numerical gradient with the autodiff
    /// gradient returned by `loss_fn`.
    fn grad_check(
        initial: Tensor,
        loss_fn: impl Fn(&Tensor, &mut Graph) -> (NodeId, NodeId),
        tolerance: f32,
    ) {
        // Analytic gradient.
        let mut g = Graph::new();
        let (leaf, loss) = loss_fn(&initial, &mut g);
        g.backward(loss);
        let analytic = g.grad(leaf).clone();

        // Numerical gradient.
        let eps = 1e-3_f32;
        for idx in 0..initial.len() {
            let mut plus = initial.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut g_plus = Graph::new();
            let (_, loss_plus) = loss_fn(&plus, &mut g_plus);
            let lp = g_plus.value(loss_plus).at(0, 0);

            let mut minus = initial.clone();
            minus.as_mut_slice()[idx] -= eps;
            let mut g_minus = Graph::new();
            let (_, loss_minus) = loss_fn(&minus, &mut g_minus);
            let lm = g_minus.value(loss_minus).at(0, 0);

            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (numeric - a).abs() < tolerance,
                "grad mismatch at {idx}: numeric={numeric} analytic={a}"
            );
        }
    }

    #[test]
    fn simple_square_gradient() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[3.0]));
        let y = g.mul(x, x);
        let loss = g.sum(y);
        g.backward(loss);
        assert!((g.grad(x).at(0, 0) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_gradients_match_finite_difference() {
        let w = Tensor::from_rows(&[&[0.5, -0.2], &[0.1, 0.7], &[-0.4, 0.3]]);
        grad_check(
            w,
            |w, g| {
                let x = g.constant(Tensor::from_row(&[1.0, -2.0, 0.5]));
                let wn = g.constant(w.clone());
                let y = g.matmul(x, wn);
                let act = g.tanh(y);
                let loss = g.sum(act);
                (wn, loss)
            },
            1e-2,
        );
    }

    #[test]
    fn sigmoid_relu_chain_gradients() {
        let w = Tensor::from_row(&[0.3, -0.8, 1.2]);
        grad_check(
            w,
            |w, g| {
                let wn = g.constant(w.clone());
                let s = g.sigmoid(wn);
                let r = g.relu(s);
                let m = g.mean(r);
                (wn, m)
            },
            1e-2,
        );
    }

    #[test]
    fn bce_with_logits_gradient() {
        let z = Tensor::from_col(&[0.5, -1.0, 2.0]);
        grad_check(
            z,
            |z, g| {
                let zn = g.constant(z.clone());
                let targets = Tensor::from_col(&[1.0, 0.0, 1.0]);
                let loss = g.bce_with_logits(zn, targets, None);
                (zn, loss)
            },
            1e-2,
        );
    }

    #[test]
    fn weighted_bce_matches_manual() {
        let mut g = Graph::new();
        let z = g.constant(Tensor::from_col(&[0.0, 0.0]));
        let targets = Tensor::from_col(&[1.0, 0.0]);
        // With logit 0 the loss of each element is ln(2); weights emphasise
        // the first element but the weighted mean is still ln(2).
        let weights = Tensor::from_col(&[3.0, 1.0]);
        let loss = g.bce_with_logits(z, targets, Some(weights));
        assert!((g.value(loss).at(0, 0) - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn concat_and_slice_gradients() {
        let x = Tensor::from_row(&[1.0, 2.0]);
        grad_check(
            x,
            |x, g| {
                let a = g.constant(x.clone());
                let b = g.constant(Tensor::from_row(&[3.0]));
                let cat = g.concat_cols(a, b);
                let sliced = g.slice_cols(cat, 0, 2);
                let sq = g.mul(sliced, sliced);
                let loss = g.sum(sq);
                (a, loss)
            },
            1e-2,
        );
    }

    #[test]
    fn broadcast_bias_gradient_sums_over_rows() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]));
        let b = g.constant(Tensor::from_row(&[0.5, 0.5]));
        let y = g.add_row_broadcast(x, b);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(b), &Tensor::from_row(&[2.0, 2.0]));
        assert_eq!(g.grad(x), &Tensor::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]));
    }

    #[test]
    fn one_minus_and_scale_gradients() {
        let x = Tensor::from_row(&[0.25, 0.75]);
        grad_check(
            x,
            |x, g| {
                let a = g.constant(x.clone());
                let om = g.one_minus(a);
                let sc = g.scale(om, 3.0);
                let shifted = g.add_scalar(sc, 1.0);
                let loss = g.mean(shifted);
                (a, loss)
            },
            1e-2,
        );
    }

    #[test]
    fn mask_mul_blocks_gradient_through_mask() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, 2.0, 3.0]));
        let mask = Tensor::from_row(&[1.0, 0.0, 2.0]);
        let y = g.mask_mul(x, mask);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(x), &Tensor::from_row(&[1.0, 0.0, 2.0]));
    }

    #[test]
    fn param_node_reuse_accumulates_bptt_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_row(&[2.0]));
        let mut g = Graph::new();
        // h1 = w * x, h2 = w * h1 = w^2 x  =>  d(h2)/dw = 2 w x = 12 for x=3, w=2
        let x = g.constant(Tensor::from_row(&[3.0]));
        let wn = g.param(w, store.get(w));
        let wn2 = g.param(w, store.get(w));
        assert_eq!(wn, wn2, "param leaves must be shared");
        let h1 = g.mul(wn, x);
        let h2 = g.mul(wn, h1);
        let loss = g.sum(h2);
        g.backward(loss);
        let mut grads = store.zero_grads();
        g.param_grads_into(&mut grads);
        assert!((grads.get(w).at(0, 0) - 12.0).abs() < 1e-5);
    }

    #[test]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, 2.0]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g2 = Graph::new();
            let y = g2.constant(Tensor::from_row(&[1.0, 2.0]));
            g2.backward(y);
        }));
        assert!(result.is_err());
        // Original graph still usable.
        let loss = g.sum(x);
        g.backward(loss);
    }

    #[test]
    fn clear_resets_graph() {
        let mut g = Graph::new();
        let _ = g.constant(Tensor::ones(1, 1));
        assert_eq!(g.len(), 1);
        g.clear();
        assert!(g.is_empty());
    }

    #[test]
    fn stable_sigmoid_extremes() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[100.0, -100.0, 0.0, -1000.0, 1000.0]));
        let s = g.sigmoid(x);
        let s = g.value(s).as_slice();
        assert!(s[0] > 0.999_999);
        assert!(s[1] < 1e-6);
        assert!((s[2] - 0.5).abs() < 1e-7);
        assert!(s[3].is_finite());
        assert!(s[4].is_finite());
    }
}

//! Gradient-boosted decision trees with a logistic objective (paper §5.4).
//!
//! This is a from-scratch reimplementation of the parts of XGBoost the paper
//! relies on: second-order boosting on binary log loss, greedy histogram
//! split finding with L2 leaf regularisation, and the exhaustive tree-depth
//! search over `[1, 10]` on a held-out validation set.

use crate::features::LabeledExample;
use pp_metrics::classification::log_loss;

/// Training configuration for [`Gbdt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees).
    pub num_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// L2 regularisation on leaf weights (XGBoost `lambda`).
    pub lambda: f64,
    /// Minimum sum of Hessians required in each child (XGBoost
    /// `min_child_weight`).
    pub min_child_weight: f64,
    /// Number of histogram bins per feature.
    pub num_bins: usize,
    /// Minimum gain required to split a node.
    pub min_split_gain: f64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            num_trees: 60,
            max_depth: 6,
            learning_rate: 0.3,
            lambda: 1.0,
            min_child_weight: 1.0,
            num_bins: 32,
            min_split_gain: 1e-6,
        }
    }
}

/// Per-feature quantile binning used for histogram split finding.
#[derive(Debug, Clone, PartialEq)]
struct BinMapper {
    /// For each feature, the sorted upper edges of its bins (length ≤
    /// `num_bins - 1`); values greater than every edge fall in the last bin.
    edges: Vec<Vec<f32>>,
}

impl BinMapper {
    fn fit(examples: &[LabeledExample], num_bins: usize) -> Self {
        let dims = examples[0].features.len();
        let mut edges = Vec::with_capacity(dims);
        // Subsample rows for quantile estimation to keep fitting cheap.
        let stride = (examples.len() / 10_000).max(1);
        for f in 0..dims {
            let mut values: Vec<f32> = examples
                .iter()
                .step_by(stride)
                .map(|e| e.features[f])
                .collect();
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            values.dedup();
            let mut feature_edges = Vec::new();
            if values.len() > 1 {
                let max_edges = (num_bins - 1).min(values.len() - 1);
                for k in 1..=max_edges {
                    let idx = k * (values.len() - 1) / (max_edges + 1).max(1);
                    let edge = values[idx.min(values.len() - 2)];
                    if feature_edges.last() != Some(&edge) {
                        feature_edges.push(edge);
                    }
                }
            }
            edges.push(feature_edges);
        }
        Self { edges }
    }

    fn num_bins(&self, feature: usize) -> usize {
        self.edges[feature].len() + 1
    }

    fn bin(&self, feature: usize, value: f32) -> usize {
        self.edges[feature].partition_point(|&e| e < value)
    }

    /// Raw-value threshold corresponding to "bin index <= b".
    fn threshold(&self, feature: usize, bin: usize) -> f32 {
        self.edges[feature][bin]
    }
}

/// A node of a regression tree.
#[derive(Debug, Clone, PartialEq)]
enum TreeNode {
    /// Internal split: go left when `features[feature] <= threshold`.
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
    /// Leaf with an additive weight in log-odds space.
    Leaf { weight: f64 },
}

/// A single regression tree of the boosted ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    nodes: Vec<TreeNode>,
}

impl Tree {
    /// Evaluates the tree on a feature vector.
    pub fn predict(&self, features: &[f32]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                TreeNode::Leaf { weight } => return *weight,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (splits + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[TreeNode], idx: usize) -> usize {
            match &nodes[idx] {
                TreeNode::Leaf { .. } => 0,
                TreeNode::Split { left, right, .. } => {
                    1 + walk(nodes, *left).max(walk(nodes, *right))
                }
            }
        }
        walk(&self.nodes, 0)
    }
}

/// A trained gradient-boosted decision tree ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct Gbdt {
    trees: Vec<Tree>,
    base_score: f64,
    config: GbdtConfig,
    dims: usize,
}

struct SplitCandidate {
    gain: f64,
    feature: usize,
    bin: usize,
}

impl Gbdt {
    /// Trains an ensemble on the given examples.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or feature lengths are inconsistent.
    pub fn train(examples: &[LabeledExample], config: GbdtConfig) -> Self {
        assert!(!examples.is_empty(), "cannot train on an empty example set");
        let dims = examples[0].features.len();
        assert!(
            examples.iter().all(|e| e.features.len() == dims),
            "inconsistent feature dimensionality"
        );
        let n = examples.len();
        let mapper = BinMapper::fit(examples, config.num_bins.max(2));
        // Pre-bin the whole matrix once.
        let mut binned = vec![0u16; n * dims];
        for (i, e) in examples.iter().enumerate() {
            for f in 0..dims {
                binned[i * dims + f] = mapper.bin(f, e.features[f]) as u16;
            }
        }
        let labels: Vec<f64> = examples.iter().map(|e| e.label as u8 as f64).collect();
        let positive = labels.iter().sum::<f64>();
        let rate = (positive / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (rate / (1.0 - rate)).ln();

        let mut scores = vec![base_score; n];
        let mut trees = Vec::with_capacity(config.num_trees);
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
        for _ in 0..config.num_trees {
            for i in 0..n {
                let p = sigmoid(scores[i]);
                grad[i] = p - labels[i];
                hess[i] = (p * (1.0 - p)).max(1e-12);
            }
            let indices: Vec<u32> = (0..n as u32).collect();
            let mut nodes = Vec::new();
            build_node(
                &mut nodes, &indices, &binned, dims, &grad, &hess, &mapper, &config, 0,
            );
            let tree = Tree { nodes };
            for i in 0..n {
                scores[i] += config.learning_rate * tree.predict(&examples[i].features);
            }
            trees.push(tree);
        }
        Self {
            trees,
            base_score,
            config,
            dims,
        }
    }

    /// Exhaustively searches tree depths (paper: `[1, 10]`) by training one
    /// ensemble per depth and keeping the one with the lowest validation log
    /// loss. Returns the best model and its depth.
    ///
    /// # Panics
    ///
    /// Panics if either split is empty or `depths` is empty.
    pub fn train_with_depth_search(
        train: &[LabeledExample],
        validation: &[LabeledExample],
        depths: impl IntoIterator<Item = usize>,
        config: GbdtConfig,
    ) -> (Gbdt, usize) {
        assert!(!validation.is_empty(), "validation set must not be empty");
        let labels: Vec<bool> = validation.iter().map(|e| e.label).collect();
        let mut best: Option<(Gbdt, usize, f64)> = None;
        for depth in depths {
            let model = Gbdt::train(
                train,
                GbdtConfig {
                    max_depth: depth,
                    ..config
                },
            );
            let preds = model.predict_batch(validation);
            let loss = log_loss(&preds, &labels);
            if best.as_ref().is_none_or(|(_, _, b)| loss < *b) {
                best = Some((model, depth, loss));
            }
        }
        let (model, depth, _) = best.expect("at least one depth must be provided");
        (model, depth)
    }

    /// Number of input features the model expects.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The trained trees.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// The training configuration.
    pub fn config(&self) -> GbdtConfig {
        self.config
    }

    /// Predicted access probability for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the feature length does not match the trained model.
    pub fn predict(&self, features: &[f32]) -> f64 {
        assert_eq!(features.len(), self.dims, "feature length mismatch");
        let mut score = self.base_score;
        for tree in &self.trees {
            score += self.config.learning_rate * tree.predict(features);
        }
        sigmoid(score)
    }

    /// Predicted probabilities for a batch of examples.
    pub fn predict_batch(&self, examples: &[LabeledExample]) -> Vec<f64> {
        examples.iter().map(|e| self.predict(&e.features)).collect()
    }

    /// Approximate number of scalar comparisons needed per prediction
    /// (trees × average depth); used by the serving cost model to compare
    /// against the RNN's FLOPs.
    pub fn comparisons_per_prediction(&self) -> u64 {
        self.trees.iter().map(|t| t.depth() as u64).sum()
    }
}

#[allow(clippy::too_many_arguments)]
fn build_node(
    nodes: &mut Vec<TreeNode>,
    indices: &[u32],
    binned: &[u16],
    dims: usize,
    grad: &[f64],
    hess: &[f64],
    mapper: &BinMapper,
    config: &GbdtConfig,
    depth: usize,
) -> usize {
    let g_total: f64 = indices.iter().map(|&i| grad[i as usize]).sum();
    let h_total: f64 = indices.iter().map(|&i| hess[i as usize]).sum();

    let make_leaf = |nodes: &mut Vec<TreeNode>| {
        let weight = -g_total / (h_total + config.lambda);
        nodes.push(TreeNode::Leaf { weight });
        nodes.len() - 1
    };

    if depth >= config.max_depth || indices.len() < 2 {
        return make_leaf(nodes);
    }

    // Histogram split search.
    let mut best: Option<SplitCandidate> = None;
    let parent_score = g_total * g_total / (h_total + config.lambda);
    let mut hist_g = Vec::new();
    let mut hist_h = Vec::new();
    for f in 0..dims {
        let nbins = mapper.num_bins(f);
        if nbins < 2 {
            continue;
        }
        hist_g.clear();
        hist_g.resize(nbins, 0.0f64);
        hist_h.clear();
        hist_h.resize(nbins, 0.0f64);
        for &i in indices {
            let b = binned[i as usize * dims + f] as usize;
            hist_g[b] += grad[i as usize];
            hist_h[b] += hess[i as usize];
        }
        let mut gl = 0.0;
        let mut hl = 0.0;
        // Split after bin b: left = bins [0..=b], right = rest.
        for b in 0..nbins - 1 {
            gl += hist_g[b];
            hl += hist_h[b];
            let gr = g_total - gl;
            let hr = h_total - hl;
            if hl < config.min_child_weight || hr < config.min_child_weight {
                continue;
            }
            let gain = 0.5
                * (gl * gl / (hl + config.lambda) + gr * gr / (hr + config.lambda) - parent_score);
            if gain > config.min_split_gain && best.as_ref().is_none_or(|s| gain > s.gain) {
                best = Some(SplitCandidate {
                    gain,
                    feature: f,
                    bin: b,
                });
            }
        }
    }

    let Some(split) = best else {
        return make_leaf(nodes);
    };

    let (left_idx, right_idx): (Vec<u32>, Vec<u32>) = indices
        .iter()
        .partition(|&&i| binned[i as usize * dims + split.feature] as usize <= split.bin);
    if left_idx.is_empty() || right_idx.is_empty() {
        return make_leaf(nodes);
    }

    // Reserve the split node slot, then build children.
    let node_idx = nodes.len();
    nodes.push(TreeNode::Leaf { weight: 0.0 }); // placeholder
    let left = build_node(
        nodes,
        &left_idx,
        binned,
        dims,
        grad,
        hess,
        mapper,
        config,
        depth + 1,
    );
    let right = build_node(
        nodes,
        &right_idx,
        binned,
        dims,
        grad,
        hess,
        mapper,
        config,
        depth + 1,
    );
    nodes[node_idx] = TreeNode::Split {
        feature: split.feature,
        // "bin index <= b" corresponds to "value <= edge(b)" because bins are
        // defined by partition_point(edge < value).
        threshold: mapper.threshold(split.feature, split.bin),
        left,
        right,
    };
    node_idx
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

    fn rng_stream(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed.max(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32) / (1u32 << 24) as f32
        }
    }

    /// XOR-style interaction data that a linear model cannot fit.
    fn xor_data(n: usize, seed: u64) -> Vec<LabeledExample> {
        let mut next = rng_stream(seed);
        (0..n)
            .map(|_| {
                let a = next();
                let b = next();
                let label = (a > 0.5) != (b > 0.5);
                example(vec![a, b, next()], label)
            })
            .collect()
    }

    #[test]
    fn learns_xor_interaction() {
        let train = xor_data(3_000, 1);
        let test = xor_data(500, 2);
        let model = Gbdt::train(
            &train,
            GbdtConfig {
                num_trees: 30,
                max_depth: 3,
                ..Default::default()
            },
        );
        let correct = test
            .iter()
            .filter(|e| (model.predict(&e.features) > 0.5) == e.label)
            .count();
        let accuracy = correct as f64 / test.len() as f64;
        assert!(
            accuracy > 0.9,
            "GBDT should learn XOR, accuracy = {accuracy}"
        );
    }

    #[test]
    fn rows_on_a_bin_edge_route_as_in_training() {
        // A 4-valued count whose every value is a bin edge: the split
        // "bin <= b" must send the row with value edge(b) left at
        // prediction time too, or the trees learn the wrong side.
        let data: Vec<LabeledExample> = (0..2_000)
            .map(|i| example(vec![(i % 4) as f32], i % 4 == 0))
            .collect();
        let model = Gbdt::train(
            &data,
            GbdtConfig {
                num_trees: 10,
                max_depth: 2,
                ..Default::default()
            },
        );
        let labels: Vec<bool> = data.iter().map(|e| e.label).collect();
        let loss = log_loss(&model.predict_batch(&data), &labels);
        assert!(loss < 0.05, "train log loss {loss}");
        let p_zero = model.predict(&[0.0]);
        assert!(p_zero > 0.9, "p(c = 0) = {p_zero}");
    }

    #[test]
    fn depth_one_cannot_learn_xor_but_depth_three_can() {
        let train = xor_data(2_000, 3);
        let valid = xor_data(500, 4);
        let stumps = Gbdt::train(
            &train,
            GbdtConfig {
                num_trees: 30,
                max_depth: 1,
                ..Default::default()
            },
        );
        let deep = Gbdt::train(
            &train,
            GbdtConfig {
                num_trees: 30,
                max_depth: 3,
                ..Default::default()
            },
        );
        let labels: Vec<bool> = valid.iter().map(|e| e.label).collect();
        let loss_stumps = log_loss(&stumps.predict_batch(&valid), &labels);
        let loss_deep = log_loss(&deep.predict_batch(&valid), &labels);
        assert!(
            loss_deep < loss_stumps,
            "deeper trees must beat stumps on XOR ({loss_deep} vs {loss_stumps})"
        );
    }

    #[test]
    fn depth_search_picks_a_depth_that_fits_interactions() {
        let train = xor_data(1_500, 5);
        let valid = xor_data(400, 6);
        let (model, depth) = Gbdt::train_with_depth_search(
            &train,
            &valid,
            [1, 2, 3, 4],
            GbdtConfig {
                num_trees: 20,
                ..Default::default()
            },
        );
        assert!(depth >= 2, "XOR requires depth ≥ 2, search picked {depth}");
        assert_eq!(model.config().max_depth, depth);
    }

    #[test]
    fn base_rate_recovered_with_uninformative_features() {
        let mut data = Vec::new();
        for i in 0..2_000 {
            data.push(example(vec![0.5], i % 10 == 0));
        }
        let model = Gbdt::train(
            &data,
            GbdtConfig {
                num_trees: 10,
                ..Default::default()
            },
        );
        let p = model.predict(&[0.5]);
        assert!((p - 0.1).abs() < 0.03, "expected ≈0.1, got {p}");
    }

    #[test]
    fn predictions_in_unit_interval_and_deterministic() {
        let data = xor_data(500, 7);
        let a = Gbdt::train(
            &data,
            GbdtConfig {
                num_trees: 5,
                ..Default::default()
            },
        );
        let b = Gbdt::train(
            &data,
            GbdtConfig {
                num_trees: 5,
                ..Default::default()
            },
        );
        assert_eq!(a, b);
        for e in &data {
            let p = a.predict(&e.features);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn tree_depth_respects_limit() {
        let data = xor_data(1_000, 8);
        let model = Gbdt::train(
            &data,
            GbdtConfig {
                num_trees: 5,
                max_depth: 2,
                ..Default::default()
            },
        );
        for t in model.trees() {
            assert!(t.depth() <= 2);
            assert!(t.num_nodes() >= 1);
        }
        assert!(model.comparisons_per_prediction() <= 10);
    }

    #[test]
    fn constant_features_produce_single_leaf() {
        let data: Vec<_> = (0..100)
            .map(|i| example(vec![1.0, 1.0], i % 2 == 0))
            .collect();
        let model = Gbdt::train(
            &data,
            GbdtConfig {
                num_trees: 3,
                ..Default::default()
            },
        );
        for t in model.trees() {
            assert_eq!(t.depth(), 0, "no split possible on constant features");
        }
    }

    #[test]
    #[should_panic(expected = "empty example set")]
    fn empty_training_panics() {
        let _ = Gbdt::train(&[], GbdtConfig::default());
    }
}

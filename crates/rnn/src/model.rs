//! The paper's recurrent model (§6.2, Figure 3): a recurrent cell
//! (`RNN_update`) advancing a per-user hidden state, and a prediction head
//! (`RNN_predict`) combining the latest available hidden state with the
//! current context through a latent-cross interaction and a one-hidden-layer
//! MLP.
//!
//! The two halves are deliberately separate — the serving architecture (§9)
//! runs them in different places: `RNN_predict` at session start on the
//! request path, `RNN_update` asynchronously once the session outcome is
//! known.

use pp_data::schema::DatasetKind;
use pp_features::rnn_input::RnnFeaturizer;
use pp_nn::activation::{sigmoid, sigmoid_in_place};
use pp_nn::graph::{Graph, NodeId};
use pp_nn::kernel::{
    column_sums_acc, gather_acc, gemm_acc, gemm_at_acc, gemm_bt_acc, scatter_acc, SparseRows,
};
use pp_nn::layers::{CellKind, CellScratch, Dropout, GruCell, Linear, LstmCell, TanhCell};
use pp_nn::params::{GradStore, ParamStore};
use pp_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which prediction task the model is built for. The update path is
/// identical; the prediction input differs (§3.2.1 / Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Predict an access within the session that is starting now
    /// (MobileTab, MPU).
    PerSession,
    /// Predict an access within an upcoming peak window using history alone
    /// (Timeshift).
    Timeshifted,
}

/// Hyper-parameters of the recurrent model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RnnModelConfig {
    /// Recurrent cell type (§6.2 evaluates tanh, GRU, LSTM; GRU wins).
    pub cell: CellKind,
    /// Hidden-state dimensionality (paper: 128).
    pub hidden_dim: usize,
    /// Width of the MLP hidden layer (paper: 128).
    pub mlp_width: usize,
    /// Dropout probability inside the MLP (paper: 0.2).
    pub dropout: f32,
    /// Whether to apply the latent-cross interaction
    /// `h' = h ⊙ (1 + L(f))` before the MLP (paper §6.2).
    pub latent_cross: bool,
}

impl Default for RnnModelConfig {
    fn default() -> Self {
        Self {
            cell: CellKind::Gru,
            hidden_dim: 128,
            mlp_width: 128,
            dropout: 0.2,
            latent_cross: true,
        }
    }
}

impl RnnModelConfig {
    /// A small configuration suitable for unit tests and quick examples.
    pub fn tiny() -> Self {
        Self {
            hidden_dim: 16,
            mlp_width: 16,
            ..Default::default()
        }
    }
}

/// Internal enum holding the chosen recurrent cell.
#[derive(Debug, Clone, PartialEq)]
enum Cell {
    Tanh(TanhCell),
    Gru(GruCell),
    Lstm(LstmCell),
}

/// One batch's worth of inputs, intermediates and outputs for the batched
/// inference entry points ([`RnnModel::predict_proba_batch_into`],
/// [`RnnModel::advance_state_batch_into`]), reused from batch to batch so a
/// steady-state forward pass allocates nothing. One per serving worker; it
/// is never shared.
///
/// A batch is assembled inputs first — [`BatchScratch::begin`], one
/// finished row per request on [`BatchScratch::inputs_mut`], then the
/// states of all those rows at once into [`BatchScratch::zeroed_states`] —
/// run through one of the `*_into` entry points, and read back from
/// [`BatchScratch::probabilities`] or [`BatchScratch::next_state`].
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    state_dim: usize,
    /// `rows × state_dim` stored states, row-major.
    states: Vec<f32>,
    /// The batch's update or prediction inputs as non-zero lists.
    inputs: SparseRows,
    cell: CellScratch,
    /// `h ⊙ (1 + L(f))`, `rows × hidden_dim`.
    crossed: Vec<f32>,
    /// The MLP's hidden activations, `rows × mlp_width`.
    hidden: Vec<f32>,
    logits: Vec<f32>,
    next_states: Vec<f32>,
    probabilities: Vec<f64>,
}

impl BatchScratch {
    /// An empty scratch; buffers grow to the largest batch seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts assembling a new batch of states `state_dim` wide and inputs
    /// `input_dims` wide, discarding the previous batch.
    pub fn begin(&mut self, state_dim: usize, input_dims: usize) {
        self.state_dim = state_dim;
        self.states.clear();
        self.inputs.clear(input_dims);
    }

    /// Number of state rows assembled so far.
    pub fn rows(&self) -> usize {
        self.states.len().checked_div(self.state_dim).unwrap_or(0)
    }

    /// One zeroed state row per input row assembled so far — zero is
    /// already the initial state `h_0` — returned row-major, `state_dim`
    /// values a row, for the caller to fill in place.
    pub fn zeroed_states(&mut self) -> &mut [f32] {
        self.states.clear();
        self.states.resize(self.inputs.rows() * self.state_dim, 0.0);
        &mut self.states
    }

    /// The batch's input rows: push each request's entries, then
    /// [`SparseRows::end_row`].
    pub fn inputs_mut(&mut self) -> &mut SparseRows {
        &mut self.inputs
    }

    /// Probabilities of the last [`RnnModel::predict_proba_batch_into`],
    /// one per row.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Row `row` of the last [`RnnModel::advance_state_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a row of that batch.
    pub fn next_state(&self, row: usize) -> &[f32] {
        &self.next_states[row * self.state_dim..(row + 1) * self.state_dim]
    }

    /// Every row of the last [`RnnModel::advance_state_batch_into`],
    /// row-major.
    pub fn next_states(&self) -> &[f32] {
        &self.next_states
    }

    /// Copies dense rows in (the slice-based entry points' assembly).
    fn fill<S: AsRef<[f32]>, X: AsRef<[f32]>>(
        &mut self,
        state_dim: usize,
        input_dims: usize,
        states: &[S],
        inputs: &[X],
    ) {
        self.begin(state_dim, input_dims);
        for input in inputs {
            let input = input.as_ref();
            assert_eq!(input.len(), input_dims, "input length mismatch");
            self.inputs.push_dense_row(input);
        }
        let rows = self.zeroed_states();
        for (row, state) in states.iter().enumerate() {
            let state = state.as_ref();
            assert_eq!(state.len(), state_dim, "state length mismatch");
            rows[row * state_dim..][..state_dim].copy_from_slice(state);
        }
    }
}

/// One training batch of the prediction head — every retained prediction of
/// a minibatch — with the forward values its backward pass reads, reused
/// from minibatch to minibatch. The trainer fills [`HeadBatch::h`],
/// [`HeadBatch::inputs`], [`HeadBatch::labels`] and [`HeadBatch::masks`]
/// row by row; [`RnnModel::head_train_step`] leaves each row's state
/// gradient in [`HeadBatch::dh`].
#[derive(Debug, Clone, Default)]
pub(crate) struct HeadBatch {
    /// `rows × hidden_dim` hidden states the predictions read.
    pub(crate) h: Vec<f32>,
    /// The prediction inputs.
    pub(crate) inputs: SparseRows,
    /// 1.0 for an access, 0.0 otherwise.
    pub(crate) labels: Vec<f32>,
    /// `rows × mlp_width` inverted-dropout masks; empty when dropout is off.
    pub(crate) masks: Vec<f32>,
    /// `1 + L(f)`, `rows × hidden_dim` (latent cross only).
    one_plus: Vec<f32>,
    /// `h ⊙ (1 + L(f))`, `rows × hidden_dim` (latent cross only).
    crossed: Vec<f32>,
    /// The MLP's hidden pre-activations after the dropout mask,
    /// `rows × mlp_width`.
    dropped: Vec<f32>,
    /// ReLU of `dropped`.
    activated: Vec<f32>,
    /// The logits, then their gradients.
    logits: Vec<f32>,
    /// Gradient with respect to `dropped`'s pre-mask values.
    d_hidden: Vec<f32>,
    /// Gradient with respect to `crossed` (or `h` without latent cross).
    d_crossed: Vec<f32>,
    /// `rows × hidden_dim` loss gradient with respect to `h`.
    pub(crate) dh: Vec<f32>,
}

impl HeadBatch {
    /// Drops every row, keeping the allocations.
    pub(crate) fn clear(&mut self, predict_dims: usize) {
        self.h.clear();
        self.inputs.clear(predict_dims);
        self.labels.clear();
        self.masks.clear();
    }
}

/// The recurrent predictive-precompute model.
///
/// The model owns its [`ParamStore`]; training code reads and writes the
/// store through [`RnnModel::params`] / [`RnnModel::params_mut`].
#[derive(Debug, Clone, PartialEq)]
pub struct RnnModel {
    params: ParamStore,
    cell: Cell,
    latent: Option<Linear>,
    mlp_hidden: Linear,
    mlp_out: Linear,
    dropout: Dropout,
    config: RnnModelConfig,
    kind: DatasetKind,
    task: TaskKind,
    featurizer: RnnFeaturizer,
}

impl RnnModel {
    /// Builds a model for a dataset family and task with freshly initialized
    /// parameters.
    pub fn new(kind: DatasetKind, task: TaskKind, config: RnnModelConfig, seed: u64) -> Self {
        let featurizer = RnnFeaturizer::new(kind);
        let update_dims = featurizer.update_input_dims();
        let predict_dims = match task {
            TaskKind::PerSession => featurizer.predict_input_dims(),
            TaskKind::Timeshifted => featurizer.timeshift_predict_dims(),
        };
        let mut params = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = match config.cell {
            CellKind::Tanh => Cell::Tanh(TanhCell::new(
                "cell",
                update_dims,
                config.hidden_dim,
                &mut params,
                &mut rng,
            )),
            CellKind::Gru => Cell::Gru(GruCell::new(
                "cell",
                update_dims,
                config.hidden_dim,
                &mut params,
                &mut rng,
            )),
            CellKind::Lstm => Cell::Lstm(LstmCell::new(
                "cell",
                update_dims,
                config.hidden_dim,
                &mut params,
                &mut rng,
            )),
        };
        let latent = config.latent_cross.then(|| {
            Linear::new(
                "latent_cross",
                predict_dims,
                config.hidden_dim,
                &mut params,
                &mut rng,
            )
        });
        let mlp_hidden = Linear::new(
            "mlp.hidden",
            config.hidden_dim + predict_dims,
            config.mlp_width,
            &mut params,
            &mut rng,
        );
        let mlp_out = Linear::new("mlp.out", config.mlp_width, 1, &mut params, &mut rng);
        let dropout = Dropout::new(config.dropout);
        Self {
            params,
            cell,
            latent,
            mlp_hidden,
            mlp_out,
            dropout,
            config,
            kind,
            task,
            featurizer,
        }
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> RnnModelConfig {
        self.config
    }

    /// Dataset family the model was built for.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Prediction task the model was built for.
    pub fn task(&self) -> TaskKind {
        self.task
    }

    /// The featurizer producing this model's inputs.
    pub fn featurizer(&self) -> &RnnFeaturizer {
        &self.featurizer
    }

    /// Immutable access to the parameter store.
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Mutable access to the parameter store (used by optimizers).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    /// Dimensionality of the *stored* per-user state: `hidden_dim` for
    /// tanh/GRU cells, `2 × hidden_dim` for LSTM (hidden + cell state).
    pub fn state_dim(&self) -> usize {
        match &self.cell {
            Cell::Lstm(_) => 2 * self.config.hidden_dim,
            _ => self.config.hidden_dim,
        }
    }

    /// Size in bytes of one stored hidden state (`f32` per dimension) —
    /// 512 bytes for the paper's 128-dimensional GRU.
    pub fn state_bytes(&self) -> usize {
        self.state_dim() * std::mem::size_of::<f32>()
    }

    /// The all-zero initial state `h_0`.
    pub fn initial_state(&self) -> Vec<f32> {
        vec![0.0; self.state_dim()]
    }

    /// Dimensionality of the prediction input vector.
    pub fn predict_input_dims(&self) -> usize {
        match self.task {
            TaskKind::PerSession => self.featurizer.predict_input_dims(),
            TaskKind::Timeshifted => self.featurizer.timeshift_predict_dims(),
        }
    }

    /// Dimensionality of the update input vector.
    pub fn update_input_dims(&self) -> usize {
        self.featurizer.update_input_dims()
    }

    /// Builds the `RNN_update` step in an autograd graph: consumes the state
    /// node and an update-input node, returns the next state node.
    pub fn update_node(&self, graph: &mut Graph, state: NodeId, update_input: NodeId) -> NodeId {
        match &self.cell {
            Cell::Tanh(c) => c.forward(graph, &self.params, update_input, state),
            Cell::Gru(c) => c.forward(graph, &self.params, update_input, state),
            Cell::Lstm(c) => c.forward(graph, &self.params, update_input, state),
        }
    }

    /// Builds the `RNN_predict` head in an autograd graph, returning the
    /// *logit* node (apply a sigmoid for the probability). `training`
    /// controls dropout.
    pub fn predict_logit_node<R: Rng + ?Sized>(
        &self,
        graph: &mut Graph,
        state: NodeId,
        predict_input: NodeId,
        training: bool,
        rng: &mut R,
    ) -> NodeId {
        // For LSTM, only the hidden half of the state feeds the head.
        let h = match &self.cell {
            Cell::Lstm(_) => graph.slice_cols(state, 0, self.config.hidden_dim),
            _ => state,
        };
        let crossed = if let Some(latent) = &self.latent {
            // h' = h ⊙ (1 + L(f))
            let l = latent.forward(graph, &self.params, predict_input);
            let one_plus = graph.add_scalar(l, 1.0);
            graph.mul(h, one_plus)
        } else {
            h
        };
        let joined = graph.concat_cols(crossed, predict_input);
        let hidden = self.mlp_hidden.forward(graph, &self.params, joined);
        let dropped = self.dropout.forward(graph, hidden, training, rng);
        let activated = graph.relu(dropped);
        self.mlp_out.forward(graph, &self.params, activated)
    }

    /// Inference: advances a stored state given an update input, without
    /// building gradients.
    ///
    /// # Panics
    ///
    /// Panics if the input lengths do not match the model.
    pub fn advance_state(&self, state: &[f32], update_input: &[f32]) -> Vec<f32> {
        assert_eq!(state.len(), self.state_dim(), "state length mismatch");
        assert_eq!(
            update_input.len(),
            self.update_input_dims(),
            "update input length mismatch"
        );
        let mut graph = Graph::new();
        let s = graph.constant(Tensor::from_row(state));
        let x = graph.constant(Tensor::from_row(update_input));
        let next = self.update_node(&mut graph, s, x);
        graph.value(next).as_slice().to_vec()
    }

    /// Inference: predicted access probability from a stored state and a
    /// prediction input, without building gradients (dropout disabled).
    ///
    /// # Panics
    ///
    /// Panics if the input lengths do not match the model.
    pub fn predict_proba(&self, state: &[f32], predict_input: &[f32]) -> f64 {
        assert_eq!(state.len(), self.state_dim(), "state length mismatch");
        assert_eq!(
            predict_input.len(),
            self.predict_input_dims(),
            "predict input length mismatch"
        );
        let mut graph = Graph::new();
        let s = graph.constant(Tensor::from_row(state));
        let x = graph.constant(Tensor::from_row(predict_input));
        // Dropout disabled ⇒ the RNG is never used.
        let mut rng = StdRng::seed_from_u64(0);
        let logit = self.predict_logit_node(&mut graph, s, x, false, &mut rng);
        sigmoid(graph.value(logit).at(0, 0)) as f64
    }

    /// Checks an assembled batch against the model's shapes.
    fn check_batch(&self, scratch: &BatchScratch, input_dims: usize) {
        assert_eq!(scratch.state_dim, self.state_dim(), "state length mismatch");
        assert_eq!(scratch.inputs.width(), input_dims, "input length mismatch");
        assert_eq!(
            scratch.inputs.rows(),
            scratch.rows(),
            "batch has {} states but {} inputs",
            scratch.rows(),
            scratch.inputs.rows()
        );
    }

    /// Batched `RNN_update` over the batch assembled in `scratch` (states +
    /// update inputs): one fused, graph-free step — a GEMM per gate over all
    /// rows, the one-hot inputs as row gathers, no temporaries. Row `i` of
    /// the result ([`BatchScratch::next_state`]) is bit-identical to
    /// `advance_state` of row `i`'s state and input.
    ///
    /// # Panics
    ///
    /// Panics if the assembled rows do not match the model's dimensions.
    pub fn advance_state_batch_into(&self, scratch: &mut BatchScratch) {
        self.check_batch(scratch, self.update_input_dims());
        let BatchScratch {
            states,
            inputs,
            cell,
            next_states,
            ..
        } = scratch;
        next_states.clear();
        next_states.resize(states.len(), 0.0);
        match &self.cell {
            Cell::Tanh(c) => c.step_into(&self.params, inputs, states, cell, next_states),
            Cell::Gru(c) => c.step_into(&self.params, inputs, states, cell, next_states),
            Cell::Lstm(c) => c.step_into(&self.params, inputs, states, cell, next_states),
        }
    }

    /// Batched `RNN_predict` over the batch assembled in `scratch` (states +
    /// prediction inputs), dropout disabled. Element `i` of the result
    /// ([`BatchScratch::probabilities`]) is bit-identical to
    /// `predict_proba` of row `i`'s state and input.
    ///
    /// # Panics
    ///
    /// Panics if the assembled rows do not match the model's dimensions.
    pub fn predict_proba_batch_into(&self, scratch: &mut BatchScratch) {
        self.check_batch(scratch, self.predict_input_dims());
        let BatchScratch {
            states,
            inputs: f,
            cell,
            crossed,
            hidden,
            logits,
            probabilities,
            ..
        } = scratch;
        let hd = self.config.hidden_dim;
        let rows = f.rows();
        let weights = |layer: &Linear| {
            let (w, b) = layer.params();
            (self.params.get(w).as_slice(), self.params.get(b).as_slice())
        };
        // For LSTM, only the hidden half of the state feeds the head.
        let h: &[f32] = match &self.cell {
            Cell::Lstm(_) => cell.hidden_half(states, hd),
            _ => states,
        };
        let crossed: &[f32] = if let Some(latent) = &self.latent {
            // h' = h ⊙ (1 + L(f))
            let (w, b) = weights(latent);
            crossed.clear();
            crossed.resize(rows * hd, 0.0);
            gather_acc(crossed, f, w, hd);
            let h_rows = h.chunks_exact(hd.max(1));
            for (l_row, h_row) in crossed.chunks_exact_mut(hd.max(1)).zip(h_rows) {
                for ((l, &h), &b) in l_row.iter_mut().zip(h_row).zip(b) {
                    *l = h * ((*l + b) + 1.0);
                }
            }
            crossed
        } else {
            h
        };
        // [h' ; f] · W stays one ascending accumulation: the dense columns
        // by GEMM, then the gathers over f, then the bias.
        let (w, b) = weights(&self.mlp_hidden);
        let width = self.config.mlp_width;
        hidden.clear();
        hidden.resize(rows * width, 0.0);
        gemm_acc(hidden, crossed, &w[..hd * width], width);
        gather_acc(hidden, f, &w[hd * width..], width);
        for row in hidden.chunks_exact_mut(width.max(1)) {
            for (v, &b) in row.iter_mut().zip(b) {
                *v = (*v + b).max(0.0);
            }
        }
        let (w, b) = weights(&self.mlp_out);
        logits.clear();
        logits.resize(rows, 0.0);
        gemm_acc(logits, hidden, w, 1);
        logits.iter_mut().for_each(|l| *l += b[0]);
        sigmoid_in_place(logits);
        probabilities.clear();
        probabilities.extend(logits.iter().map(|&p| p as f64));
    }

    /// The GRU cell, which the trainer unrolls fused; `None` for the
    /// graph-trained cells.
    pub(crate) fn gru(&self) -> Option<&GruCell> {
        match &self.cell {
            Cell::Gru(cell) => Some(cell),
            _ => None,
        }
    }

    /// Appends one prediction's dropout mask (`mlp_width` values) drawn
    /// from `rng` to `out` — the draws [`RnnModel::predict_logit_node`]
    /// makes in training — or nothing when dropout is off.
    pub(crate) fn dropout_mask_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<f32>) {
        if self.dropout.p() > 0.0 {
            self.dropout.mask_into(rng, self.config.mlp_width, out);
        }
    }

    /// The head's training forward and backward over one batch with its
    /// dropout masks given: latent cross, `[h' ; f]`, MLP, dropout, ReLU,
    /// output layer, then a log loss per row. Adds every head parameter's
    /// gradient of the *summed* loss into `grads`, leaves each row's
    /// gradient with respect to `h` in `batch.dh`, and returns the summed
    /// loss. The forward pass is [`RnnModel::predict_proba_batch_into`]'s
    /// arithmetic with the masks applied, so under the graph's masks its
    /// logits are the graph's bits.
    ///
    /// # Panics
    ///
    /// Panics for an LSTM model (its head reads half the state) or if the
    /// batch does not match the model's shapes.
    pub(crate) fn head_train_step(&self, batch: &mut HeadBatch, grads: &mut GradStore) -> f64 {
        assert!(
            !matches!(self.cell, Cell::Lstm(_)),
            "the fused head reads the whole state"
        );
        let HeadBatch {
            h,
            inputs: f,
            labels,
            masks,
            one_plus,
            crossed,
            dropped,
            activated,
            logits,
            d_hidden,
            d_crossed,
            dh,
        } = batch;
        let (hd, width, rows) = (self.config.hidden_dim, self.config.mlp_width, f.rows());
        assert_eq!(
            f.width(),
            self.predict_input_dims(),
            "input length mismatch"
        );
        assert_eq!(h.len(), rows * hd, "state length mismatch");
        assert_eq!(labels.len(), rows, "one label per row");
        assert!(
            masks.is_empty() || masks.len() == rows * width,
            "one mask per row"
        );
        let weights = |layer: &Linear| {
            let (w, b) = layer.params();
            (self.params.get(w).as_slice(), self.params.get(b).as_slice())
        };

        // Forward, as in `predict_proba_batch_into`.
        let crossed: &[f32] = if let Some(latent) = &self.latent {
            let (w, b) = weights(latent);
            one_plus.clear();
            one_plus.resize(rows * hd, 0.0);
            gather_acc(one_plus, f, w, hd);
            for row in one_plus.chunks_exact_mut(hd.max(1)) {
                for (l, &b) in row.iter_mut().zip(b) {
                    *l = (*l + b) + 1.0;
                }
            }
            crossed.clear();
            crossed.extend(h.iter().zip(one_plus.iter()).map(|(&h, &l)| h * l));
            crossed
        } else {
            h
        };
        let (w_mlp, b_mlp) = weights(&self.mlp_hidden);
        dropped.clear();
        dropped.resize(rows * width, 0.0);
        gemm_acc(dropped, crossed, &w_mlp[..hd * width], width);
        gather_acc(dropped, f, &w_mlp[hd * width..], width);
        for row in dropped.chunks_exact_mut(width.max(1)) {
            for (v, &b) in row.iter_mut().zip(b_mlp) {
                *v += b;
            }
        }
        if !masks.is_empty() {
            for (v, &m) in dropped.iter_mut().zip(masks.iter()) {
                *v *= m;
            }
        }
        activated.clear();
        activated.extend(dropped.iter().map(|&v| v.max(0.0)));
        let (w_out, b_out) = weights(&self.mlp_out);
        logits.clear();
        logits.resize(rows, 0.0);
        gemm_acc(logits, activated, w_out, 1);
        // The graph's fused log loss per row; each logit is then replaced by
        // its gradient, `σ(z) − y`.
        let mut loss = 0.0f64;
        for (z, &y) in logits.iter_mut().zip(labels.iter()) {
            *z += b_out[0];
            loss += f64::from(z.max(0.0) - *z * y + (1.0 + (-z.abs()).exp()).ln());
            *z = sigmoid(*z) - y;
        }

        // Backward.
        let d_logits = &*logits;
        let (w_id, b_id) = self.mlp_out.params();
        column_sums_acc(grads.get_mut(b_id).as_mut_slice(), d_logits);
        gemm_at_acc(grads.get_mut(w_id).as_mut_slice(), activated, d_logits, 1);
        d_hidden.clear();
        d_hidden.resize(rows * width, 0.0);
        gemm_bt_acc(d_hidden, d_logits, w_out, 1);
        // Through the ReLU, then the mask: a select per value, no branch.
        if masks.is_empty() {
            for (d, &v) in d_hidden.iter_mut().zip(dropped.iter()) {
                *d = if v <= 0.0 { 0.0 } else { *d };
            }
        } else {
            for ((d, &v), &m) in d_hidden.iter_mut().zip(dropped.iter()).zip(masks.iter()) {
                *d = if v <= 0.0 { 0.0 } else { *d * m };
            }
        }
        let (w_id, b_id) = self.mlp_hidden.params();
        column_sums_acc(grads.get_mut(b_id).as_mut_slice(), d_hidden);
        let (g_dense, g_sparse) = grads.get_mut(w_id).as_mut_slice().split_at_mut(hd * width);
        gemm_at_acc(g_dense, crossed, d_hidden, width);
        scatter_acc(g_sparse, f, d_hidden, width);
        d_crossed.clear();
        d_crossed.resize(rows * hd, 0.0);
        gemm_bt_acc(d_crossed, d_hidden, &w_mlp[..hd * width], width);
        dh.clear();
        if let Some(latent) = &self.latent {
            // h' = h ⊙ (1 + L(f)): dh = dh' ⊙ (1 + L(f)), dL = dh' ⊙ h.
            dh.extend(d_crossed.iter().zip(one_plus.iter()).map(|(&d, &l)| d * l));
            for (d, &h) in d_crossed.iter_mut().zip(h.iter()) {
                *d *= h;
            }
            let (w_id, b_id) = latent.params();
            column_sums_acc(grads.get_mut(b_id).as_mut_slice(), d_crossed);
            scatter_acc(grads.get_mut(w_id).as_mut_slice(), f, d_crossed, hd);
        } else {
            dh.extend_from_slice(d_crossed);
        }
        loss
    }

    /// Batched inference: advances `states.len()` stored states in one
    /// fused forward pass. Row `i` of the result equals
    /// `advance_state(&states[i], &update_inputs[i])`. A slice-in /
    /// vectors-out wrapper over [`RnnModel::advance_state_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or any row has the wrong
    /// dimensionality.
    pub fn advance_state_batch<S, U>(&self, states: &[S], update_inputs: &[U]) -> Vec<Vec<f32>>
    where
        S: AsRef<[f32]>,
        U: AsRef<[f32]>,
    {
        assert_eq!(
            states.len(),
            update_inputs.len(),
            "advance_state_batch: {} states but {} update inputs",
            states.len(),
            update_inputs.len()
        );
        let mut scratch = BatchScratch::new();
        scratch.fill(
            self.state_dim(),
            self.update_input_dims(),
            states,
            update_inputs,
        );
        self.advance_state_batch_into(&mut scratch);
        (0..states.len())
            .map(|row| scratch.next_state(row).to_vec())
            .collect()
    }

    /// Batched inference: serves `states.len()` predictions through one
    /// fused forward pass (dropout disabled). Element `i` of the result
    /// equals `predict_proba(&states[i], &predict_inputs[i])`. A slice-in /
    /// vector-out wrapper over [`RnnModel::predict_proba_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or any row has the wrong
    /// dimensionality.
    pub fn predict_proba_batch<S, P>(&self, states: &[S], predict_inputs: &[P]) -> Vec<f64>
    where
        S: AsRef<[f32]>,
        P: AsRef<[f32]>,
    {
        assert_eq!(
            states.len(),
            predict_inputs.len(),
            "predict_proba_batch: {} states but {} predict inputs",
            states.len(),
            predict_inputs.len()
        );
        let mut scratch = BatchScratch::new();
        scratch.fill(
            self.state_dim(),
            self.predict_input_dims(),
            states,
            predict_inputs,
        );
        self.predict_proba_batch_into(&mut scratch);
        std::mem::take(&mut scratch.probabilities)
    }

    /// Approximate FLOPs of one `RNN_update` call (one session), used by the
    /// serving cost model.
    pub fn update_flops(&self) -> u64 {
        match &self.cell {
            Cell::Tanh(c) => c.flops(),
            Cell::Gru(c) => c.flops(),
            Cell::Lstm(c) => c.flops(),
        }
    }

    /// Approximate FLOPs of one `RNN_predict` call (one prediction).
    pub fn predict_flops(&self) -> u64 {
        let mut flops = self.mlp_hidden.flops() + self.mlp_out.flops();
        if let Some(latent) = &self.latent {
            flops += latent.flops() + 2 * self.config.hidden_dim as u64;
        }
        flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::{Context, Tab};

    fn model(cell: CellKind) -> RnnModel {
        RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig {
                cell,
                ..RnnModelConfig::tiny()
            },
            7,
        )
    }

    fn ctx() -> Context {
        Context::MobileTab {
            unread_count: 3,
            active_tab: Tab::Home,
        }
    }

    #[test]
    fn dimensions_are_consistent() {
        let m = model(CellKind::Gru);
        assert_eq!(m.state_dim(), 16);
        assert_eq!(m.state_bytes(), 64);
        assert_eq!(m.initial_state().len(), 16);
        assert_eq!(m.predict_input_dims(), m.featurizer().predict_input_dims());
        assert_eq!(m.update_input_dims(), m.featurizer().update_input_dims());
        assert!(m.num_parameters() > 1_000);
        // Paper-scale model: 128-dim hidden state is 512 bytes.
        let full = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::default(),
            0,
        );
        assert_eq!(full.state_bytes(), 512);
    }

    #[test]
    fn lstm_state_is_twice_hidden() {
        let m = model(CellKind::Lstm);
        assert_eq!(m.state_dim(), 32);
    }

    #[test]
    fn advance_state_changes_state_and_is_deterministic() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let update = f.update_input(1_000, &ctx(), 600, true);
        let h0 = m.initial_state();
        let h1 = m.advance_state(&h0, &update);
        let h1b = m.advance_state(&h0, &update);
        assert_eq!(h1, h1b);
        assert_ne!(h0, h1);
        assert_eq!(h1.len(), m.state_dim());
        assert!(h1.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn access_flag_influences_the_next_state() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let h0 = m.initial_state();
        let with_access = m.advance_state(&h0, &f.update_input(1_000, &ctx(), 600, true));
        let without_access = m.advance_state(&h0, &f.update_input(1_000, &ctx(), 600, false));
        assert_ne!(with_access, without_access);
    }

    #[test]
    fn predict_proba_in_unit_interval_for_all_cells() {
        for cell in [CellKind::Tanh, CellKind::Gru, CellKind::Lstm] {
            let m = model(cell);
            let f = m.featurizer();
            let h = m.initial_state();
            let p = m.predict_proba(&h, &f.predict_input(2_000, &ctx(), 1_000));
            assert!((0.0..=1.0).contains(&p), "cell {cell}: p = {p}");
        }
    }

    #[test]
    fn prediction_depends_on_hidden_state() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let predict_input = f.predict_input(5_000, &ctx(), 1_000);
        let h0 = m.initial_state();
        let mut h = h0.clone();
        for i in 0..5 {
            h = m.advance_state(&h, &f.update_input(1_000 * i, &ctx(), 600, true));
        }
        let p_cold = m.predict_proba(&h0, &predict_input);
        let p_warm = m.predict_proba(&h, &predict_input);
        assert_ne!(p_cold, p_warm);
    }

    #[test]
    fn timeshifted_task_uses_smaller_predict_input() {
        let m = RnnModel::new(
            DatasetKind::Timeshift,
            TaskKind::Timeshifted,
            RnnModelConfig::tiny(),
            0,
        );
        assert_eq!(
            m.predict_input_dims(),
            m.featurizer().timeshift_predict_dims()
        );
        let p = m.predict_proba(
            &m.initial_state(),
            &m.featurizer().timeshift_predict_input(3_600),
        );
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn latent_cross_changes_the_architecture() {
        let base = RnnModelConfig::tiny();
        let without = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig {
                latent_cross: false,
                ..base
            },
            3,
        );
        let with = RnnModel::new(DatasetKind::MobileTab, TaskKind::PerSession, base, 3);
        assert!(with.num_parameters() > without.num_parameters());
        assert!(with.predict_flops() > without.predict_flops());
    }

    #[test]
    fn flop_counts_positive_and_scale_with_hidden_dim() {
        let small = model(CellKind::Gru);
        let large = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::default(),
            0,
        );
        assert!(small.update_flops() > 0);
        assert!(large.update_flops() > small.update_flops());
        assert!(large.predict_flops() > small.predict_flops());
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn wrong_state_length_panics() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let _ = m.predict_proba(&[0.0; 3], &f.predict_input(0, &ctx(), 0));
    }

    #[test]
    fn batched_paths_match_single_request_paths() {
        for cell in [CellKind::Tanh, CellKind::Gru, CellKind::Lstm] {
            let m = model(cell);
            let f = m.featurizer();
            // Build a few distinct per-user states by advancing from h_0.
            let mut states: Vec<Vec<f32>> = Vec::new();
            let mut predict_inputs: Vec<Vec<f32>> = Vec::new();
            let mut update_inputs: Vec<Vec<f32>> = Vec::new();
            for i in 0..7i64 {
                let mut h = m.initial_state();
                for step in 0..i {
                    h = m
                        .advance_state(&h, &f.update_input(600 * step, &ctx(), 300, step % 2 == 0));
                }
                states.push(h);
                predict_inputs.push(f.predict_input(10_000 + i, &ctx(), 60 * i));
                update_inputs.push(f.update_input(10_000 + i, &ctx(), 60 * i, i % 2 == 1));
            }
            let batch_probs = m.predict_proba_batch(&states, &predict_inputs);
            let batch_states = m.advance_state_batch(&states, &update_inputs);
            for i in 0..states.len() {
                let single_p = m.predict_proba(&states[i], &predict_inputs[i]);
                assert!(
                    (batch_probs[i] - single_p).abs() < 1e-6,
                    "cell {cell}, row {i}: batch {} vs single {}",
                    batch_probs[i],
                    single_p
                );
                let single_h = m.advance_state(&states[i], &update_inputs[i]);
                for (a, b) in batch_states[i].iter().zip(&single_h) {
                    assert!((a - b).abs() < 1e-6, "cell {cell}, row {i}: state drift");
                }
            }
        }
    }

    #[test]
    fn fused_batch_paths_are_bit_identical_to_the_graph_path() {
        for cell in [CellKind::Tanh, CellKind::Gru, CellKind::Lstm] {
            for latent_cross in [true, false] {
                let m = RnnModel::new(
                    DatasetKind::MobileTab,
                    TaskKind::PerSession,
                    RnnModelConfig {
                        cell,
                        latent_cross,
                        hidden_dim: 32,
                        mlp_width: 24,
                        ..RnnModelConfig::default()
                    },
                    5,
                );
                let f = m.featurizer();
                let mut scratch = BatchScratch::new();
                for rows in [1usize, 2, 3, 7, 8, 64] {
                    // Every third user is a cold start (all-zero state).
                    let states: Vec<Vec<f32>> = (0..rows as i64)
                        .map(|i| {
                            let mut h = m.initial_state();
                            for step in 0..i % 3 {
                                let u = f.update_input(600 * step + i, &ctx(), 300, step == 0);
                                h = m.advance_state(&h, &u);
                            }
                            h
                        })
                        .collect();
                    let fill_states = |scratch: &mut BatchScratch| {
                        let out = scratch.zeroed_states().chunks_exact_mut(m.state_dim());
                        for (row, h) in out.zip(&states) {
                            row.copy_from_slice(h);
                        }
                    };
                    scratch.begin(m.state_dim(), m.predict_input_dims());
                    for i in 0..rows {
                        let inputs = scratch.inputs_mut();
                        f.predict_input_into(9_000 + i as i64, &ctx(), 61 * i as i64, |c, v| {
                            inputs.push(c, v);
                        });
                        inputs.end_row();
                    }
                    fill_states(&mut scratch);
                    m.predict_proba_batch_into(&mut scratch);
                    for (i, h) in states.iter().enumerate() {
                        let single = m.predict_proba(
                            h,
                            &f.predict_input(9_000 + i as i64, &ctx(), 61 * i as i64),
                        );
                        assert_eq!(
                            scratch.probabilities()[i].to_bits(),
                            single.to_bits(),
                            "{cell} latent={latent_cross} B={rows} row {i}"
                        );
                    }
                    scratch.begin(m.state_dim(), m.update_input_dims());
                    for i in 0..rows {
                        let inputs = scratch.inputs_mut();
                        f.update_input_into(9_000 + i as i64, &ctx(), 61, i % 2 == 0, |c, v| {
                            inputs.push(c, v);
                        });
                        inputs.end_row();
                    }
                    fill_states(&mut scratch);
                    m.advance_state_batch_into(&mut scratch);
                    for (i, h) in states.iter().enumerate() {
                        let single = m.advance_state(
                            h,
                            &f.update_input(9_000 + i as i64, &ctx(), 61, i % 2 == 0),
                        );
                        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(scratch.next_state(i)),
                            bits(&single),
                            "{cell} latent={latent_cross} B={rows} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_of_one_and_empty_batch() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let h = m.initial_state();
        let p = f.predict_input(1_000, &ctx(), 100);
        let probs = m.predict_proba_batch(std::slice::from_ref(&h), std::slice::from_ref(&p));
        assert_eq!(probs.len(), 1);
        assert!((probs[0] - m.predict_proba(&h, &p)).abs() < 1e-9);
        let empty: Vec<Vec<f32>> = Vec::new();
        assert!(m.predict_proba_batch(&empty, &empty).is_empty());
        assert!(m.advance_state_batch(&empty, &empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "predict_proba_batch")]
    fn batch_length_mismatch_panics() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let h = m.initial_state();
        let p = f.predict_input(1_000, &ctx(), 100);
        let _ = m.predict_proba_batch(&[h.clone(), h], &[p]);
    }
}

//! Neural-network layers used by the paper's model: linear (affine) layers,
//! a gated recurrent unit cell, simpler recurrent cells for the §6.2
//! architecture ablation, and inverted dropout.
//!
//! Layers own no tensors; they hold [`ParamId`] handles into a shared
//! [`ParamStore`] and build their forward pass inside a caller-provided
//! [`Graph`], which makes them usable from multiple threads that each build
//! their own graph over the same parameters. The cells also have fused,
//! graph-free steps over whole batches of rows: `step_into` for inference
//! and, for the GRU, [`GruCell::step_train_into`] and [`GruBackward`] for
//! backpropagation through time without a tape.

use crate::activation::{sigmoid_in_place, tanh_in_place};
use crate::graph::{Graph, NodeId};
use crate::init::Init;
use crate::kernel::{column_sums_acc, gather_acc, gemm_acc, gemm_at_acc, scatter_acc, SparseRows};
use crate::params::{GradStore, ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

/// A fully-connected affine layer `y = x · W + b` with `W: in × out`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new linear layer's parameters in `store`.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        Self::with_init(name, in_dim, out_dim, Init::XavierUniform, store, rng)
    }

    /// Registers a new linear layer with an explicit weight initializer.
    pub fn with_init<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        init: Init,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        let weight = store.add(format!("{name}.weight"), init.build(in_dim, out_dim, rng));
        let bias = store.add(format!("{name}.bias"), Tensor::zeros(1, out_dim));
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter handles `(weight, bias)`.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.weight, self.bias)
    }

    /// Builds the forward pass `x · W + b` in `graph`.
    pub fn forward(&self, graph: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w = graph.param(self.weight, store.get(self.weight));
        let b = graph.param(self.bias, store.get(self.bias));
        let xw = graph.matmul(x, w);
        graph.add_row_broadcast(xw, b)
    }

    /// Number of scalar parameters in the layer.
    pub fn num_params(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    /// Approximate floating-point operations for a single-row forward pass.
    /// Used by the serving cost model.
    pub fn flops(&self) -> u64 {
        // multiply-add per weight + bias add
        (2 * self.in_dim * self.out_dim + self.out_dim) as u64
    }
}

/// Buffers the fused inference steps ([`GruCell::step_into`] and friends)
/// reuse from call to call, so a steady-state step allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CellScratch {
    /// Input-side pre-activations `x · W_i*`, gate-major `[gate][row][col]`.
    inp: Vec<f32>,
    /// Hidden-side pre-activations `h · W_h*`, same layout.
    hid: Vec<f32>,
    /// LSTM only: the hidden half of the `[h ; c]` rows, made contiguous
    /// for the GEMM.
    h: Vec<f32>,
    /// GRU backward only: `W_hr`, `W_hz`, `W_hn` transposed, gate-major,
    /// written once per reverse sweep by [`GruCell::backward`].
    w_h_t: Vec<f32>,
}

impl CellScratch {
    /// Copies the hidden half of `[h ; c]` state rows into a contiguous
    /// `rows × hidden_dim` matrix (what the GEMM and an LSTM model's
    /// prediction head read) and returns it.
    pub fn hidden_half(&mut self, state: &[f32], hidden_dim: usize) -> &[f32] {
        self.h.clear();
        for row in state.chunks_exact((2 * hidden_dim).max(1)) {
            self.h.extend_from_slice(&row[..hidden_dim]);
        }
        &self.h
    }
}

/// Accumulates every gate's two pre-activation halves from zero — `x · W_i`
/// as row gathers, `h · W_h` as one GEMM — into `inp` / `hid`. They stay
/// separate because the cells add each half's bias (or sum the halves) in
/// the graph's association order afterwards.
fn pre_activations(
    inp: &mut Vec<f32>,
    hid: &mut Vec<f32>,
    store: &ParamStore,
    x: &SparseRows,
    h: &[f32],
    gates: &[(ParamId, ParamId)],
    hidden_dim: usize,
) {
    let plane = x.rows() * hidden_dim;
    for buf in [&mut *inp, &mut *hid] {
        buf.clear();
        buf.resize(gates.len() * plane, 0.0);
    }
    let planes = inp
        .chunks_exact_mut(plane.max(1))
        .zip(hid.chunks_exact_mut(plane.max(1)));
    for (&(w_i, w_h), (inp, hid)) in gates.iter().zip(planes) {
        gather_acc(inp, x, store.get(w_i).as_slice(), hidden_dim);
        gemm_acc(hid, h, store.get(w_h).as_slice(), hidden_dim);
    }
}

/// Checks the shapes shared by every cell's `step_into`.
fn check_step_shapes(x: &SparseRows, input_dim: usize, state: &[f32], out: &[f32], width: usize) {
    assert_eq!(x.width(), input_dim, "step input width mismatch");
    assert_eq!(state.len(), x.rows() * width, "step state shape mismatch");
    assert_eq!(out.len(), state.len(), "step output shape mismatch");
}

/// Shared body of the cells' tensor-in / tensor-out `forward_infer`.
fn infer_via_step(
    x: &Tensor,
    state: &Tensor,
    step: impl FnOnce(&SparseRows, &[f32], &mut CellScratch, &mut [f32]),
) -> Tensor {
    let mut sparse = SparseRows::new();
    sparse.clear(x.cols());
    for row in x.iter_rows() {
        sparse.push_dense_row(row);
    }
    let mut out = Tensor::zeros(state.rows(), state.cols());
    step(
        &sparse,
        state.as_slice(),
        &mut CellScratch::default(),
        out.as_mut_slice(),
    );
    out
}

/// The recurrent cell family evaluated in §6.2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Basic `tanh` recurrent unit.
    Tanh,
    /// Gated recurrent unit (the paper's choice).
    Gru,
    /// Long short-term memory unit.
    Lstm,
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellKind::Tanh => write!(f, "tanh"),
            CellKind::Gru => write!(f, "gru"),
            CellKind::Lstm => write!(f, "lstm"),
        }
    }
}

/// A gated recurrent unit cell.
///
/// The update follows Cho et al. (2014), matching `torch.nn.GRUCell`:
///
/// ```text
/// r = σ(x·W_ir + b_ir + h·W_hr + b_hr)
/// z = σ(x·W_iz + b_iz + h·W_hz + b_hz)
/// n = tanh(x·W_in + b_in + r ⊙ (h·W_hn + b_hn))
/// h' = (1 - z) ⊙ n + z ⊙ h
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GruCell {
    w_ir: ParamId,
    w_iz: ParamId,
    w_in: ParamId,
    w_hr: ParamId,
    w_hz: ParamId,
    w_hn: ParamId,
    b_ir: ParamId,
    b_iz: ParamId,
    b_in: ParamId,
    b_hr: ParamId,
    b_hz: ParamId,
    b_hn: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers a GRU cell's parameters in `store`.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        let init = Init::RecurrentUniform;
        let w = |suffix: &str, rows: usize, store: &mut ParamStore, rng: &mut R| {
            store.add(
                format!("{name}.{suffix}"),
                init.build(rows, hidden_dim, rng),
            )
        };
        let w_ir = w("w_ir", input_dim, store, rng);
        let w_iz = w("w_iz", input_dim, store, rng);
        let w_in = w("w_in", input_dim, store, rng);
        let w_hr = w("w_hr", hidden_dim, store, rng);
        let w_hz = w("w_hz", hidden_dim, store, rng);
        let w_hn = w("w_hn", hidden_dim, store, rng);
        let b = |suffix: &str, store: &mut ParamStore| {
            store.add(format!("{name}.{suffix}"), Tensor::zeros(1, hidden_dim))
        };
        let b_ir = b("b_ir", store);
        let b_iz = b("b_iz", store);
        let b_in = b("b_in", store);
        let b_hr = b("b_hr", store);
        let b_hz = b("b_hz", store);
        let b_hn = b("b_hn", store);
        Self {
            w_ir,
            w_iz,
            w_in,
            w_hr,
            w_hz,
            w_hn,
            b_ir,
            b_iz,
            b_in,
            b_hr,
            b_hz,
            b_hn,
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Builds one recurrent step `h' = GRU(x, h)` in `graph`.
    pub fn forward(&self, graph: &mut Graph, store: &ParamStore, x: NodeId, h: NodeId) -> NodeId {
        let gate = |graph: &mut Graph, wi, bi, wh, bh, x, h| -> NodeId {
            let wi = graph.param(wi, store.get(wi));
            let bi = graph.param(bi, store.get(bi));
            let wh = graph.param(wh, store.get(wh));
            let bh = graph.param(bh, store.get(bh));
            let xi = graph.matmul(x, wi);
            let xi = graph.add_row_broadcast(xi, bi);
            let hh = graph.matmul(h, wh);
            let hh = graph.add_row_broadcast(hh, bh);
            graph.add(xi, hh)
        };

        let r_pre = gate(graph, self.w_ir, self.b_ir, self.w_hr, self.b_hr, x, h);
        let r = graph.sigmoid(r_pre);
        let z_pre = gate(graph, self.w_iz, self.b_iz, self.w_hz, self.b_hz, x, h);
        let z = graph.sigmoid(z_pre);

        // n = tanh(x·W_in + b_in + r ⊙ (h·W_hn + b_hn))
        let w_in = graph.param(self.w_in, store.get(self.w_in));
        let b_in = graph.param(self.b_in, store.get(self.b_in));
        let w_hn = graph.param(self.w_hn, store.get(self.w_hn));
        let b_hn = graph.param(self.b_hn, store.get(self.b_hn));
        let xn = graph.matmul(x, w_in);
        let xn = graph.add_row_broadcast(xn, b_in);
        let hn = graph.matmul(h, w_hn);
        let hn = graph.add_row_broadcast(hn, b_hn);
        let rhn = graph.mul(r, hn);
        let n_pre = graph.add(xn, rhn);
        let n = graph.tanh(n_pre);

        // h' = (1 - z) ⊙ n + z ⊙ h
        let one_minus_z = graph.one_minus(z);
        let a = graph.mul(one_minus_z, n);
        let b = graph.mul(z, h);
        graph.add(a, b)
    }

    /// Inference-only recurrent step over `x.rows()` independent users:
    /// identical math to [`GruCell::forward`] (same operations on every
    /// element, in the same order, so bit-identical) without a tape. A thin
    /// tensor-in / tensor-out wrapper over [`GruCell::step_into`].
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor, h: &Tensor) -> Tensor {
        infer_via_step(x, h, |x, h, scratch, out| {
            self.step_into(store, x, h, scratch, out);
        })
    }

    /// The fused inference step: `h` and `out` are `x.rows() × hidden_dim`
    /// row-major. Three gathers and three GEMMs fill the pre-activation
    /// scratch; biases, gate combination and `r`/`z`/`n`/`h'` are then
    /// element-wise over each row in place, keeping the graph's association
    /// `(x·W_i + b_i) + (h·W_h + b_h)`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not match the cell.
    pub fn step_into(
        &self,
        store: &ParamStore,
        x: &SparseRows,
        h: &[f32],
        scratch: &mut CellScratch,
        out: &mut [f32],
    ) {
        let hd = self.hidden_dim;
        check_step_shapes(x, self.input_dim, h, out, hd);
        let CellScratch { inp, hid, .. } = scratch;
        pre_activations(inp, hid, store, x, h, &self.gates(), hd);
        let plane = h.len();
        let (xr, rest) = inp.split_at(plane);
        let (xz, xn) = rest.split_at(plane);
        let (hr, rest) = hid.split_at_mut(plane);
        let (hz, hn) = rest.split_at_mut(plane);
        let bias = |id: ParamId| store.get(id).as_slice();
        let (b_ir, b_iz, b_in) = (bias(self.b_ir), bias(self.b_iz), bias(self.b_in));
        let (b_hr, b_hz, b_hn) = (bias(self.b_hr), bias(self.b_hz), bias(self.b_hn));
        // One row at a time, each gate as its own pass over the row (the
        // gate values overwrite the hidden-side scratch), so every
        // activation is one dispatched slice call and the sums around them
        // vectorise. Per element the operations and their order are the
        // graph's: the same sums, then the same `crate::activation`
        // functions the graph's nodes call.
        for (row, out_row) in out.chunks_exact_mut(hd.max(1)).enumerate() {
            let at = row * hd..(row + 1) * hd;
            let (xr, xz, xn) = (&xr[at.clone()], &xz[at.clone()], &xn[at.clone()]);
            let (r, z, n) = (
                &mut hr[at.clone()],
                &mut hz[at.clone()],
                &mut hn[at.clone()],
            );
            let h = &h[at];
            for c in 0..hd {
                r[c] = (xr[c] + b_ir[c]) + (r[c] + b_hr[c]);
                z[c] = (xz[c] + b_iz[c]) + (z[c] + b_hz[c]);
            }
            sigmoid_in_place(r);
            sigmoid_in_place(z);
            for c in 0..hd {
                n[c] = (xn[c] + b_in[c]) + r[c] * (n[c] + b_hn[c]);
            }
            tanh_in_place(n);
            for (c, o) in out_row.iter_mut().enumerate() {
                *o = (1.0 - z[c]) * n[c] + z[c] * h[c];
            }
        }
    }

    /// `(W_i, W_h)` of the `r`, `z` and `n` gates.
    fn gates(&self) -> [(ParamId, ParamId); 3] {
        [
            (self.w_ir, self.w_hr),
            (self.w_iz, self.w_hz),
            (self.w_in, self.w_hn),
        ]
    }

    /// Length of the `saved` tape of a `rows`-row
    /// [`GruCell::step_train_into`].
    pub fn saved_len(&self, rows: usize) -> usize {
        GRU_SAVED_PLANES * rows * self.hidden_dim
    }

    /// The training forward step: [`GruCell::step_into`]'s arithmetic, so
    /// `out` is bit-identical to it, keeping what the backward step needs.
    /// `saved` (`4 × rows × hidden_dim`, gate-major) receives every row's
    /// `r`, `z`, `n` and `h·W_hn + b_hn`; with the step's `x` and `h`, which
    /// the caller keeps, that is the step's whole tape for
    /// [`GruBackward::step_into`].
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not match the cell.
    pub fn step_train_into(
        &self,
        store: &ParamStore,
        x: &SparseRows,
        h: &[f32],
        scratch: &mut CellScratch,
        saved: &mut [f32],
        out: &mut [f32],
    ) {
        let hd = self.hidden_dim;
        check_step_shapes(x, self.input_dim, h, out, hd);
        assert_eq!(
            saved.len(),
            self.saved_len(x.rows()),
            "step tape shape mismatch"
        );
        let CellScratch { inp, hid, .. } = scratch;
        pre_activations(inp, hid, store, x, h, &self.gates(), hd);
        let plane = h.len();
        let (xr, rest) = inp.split_at(plane);
        let (xz, xn) = rest.split_at(plane);
        let (hr, rest) = hid.split_at(plane);
        let (hz, hn) = rest.split_at(plane);
        let (r, rest) = saved.split_at_mut(plane);
        let (z, rest) = rest.split_at_mut(plane);
        let (n, hn_b) = rest.split_at_mut(plane);
        let bias = |id: ParamId| store.get(id).as_slice();
        let (b_ir, b_iz, b_in) = (bias(self.b_ir), bias(self.b_iz), bias(self.b_in));
        let (b_hr, b_hz, b_hn) = (bias(self.b_hr), bias(self.b_hz), bias(self.b_hn));
        // `step_into`'s sums and activations, each gate a pass over all
        // rows instead of one row at a time (element-wise, so the same bits).
        for row in (0..plane).step_by(hd.max(1)) {
            for c in 0..hd {
                let i = row + c;
                r[i] = (xr[i] + b_ir[c]) + (hr[i] + b_hr[c]);
                z[i] = (xz[i] + b_iz[c]) + (hz[i] + b_hz[c]);
                hn_b[i] = hn[i] + b_hn[c];
            }
        }
        sigmoid_in_place(r);
        sigmoid_in_place(z);
        for row in (0..plane).step_by(hd.max(1)) {
            for (c, &b_in) in b_in.iter().enumerate() {
                let i = row + c;
                n[i] = (xn[i] + b_in) + r[i] * hn_b[i];
            }
        }
        tanh_in_place(n);
        for (i, o) in out.iter_mut().enumerate() {
            *o = (1.0 - z[i]) * n[i] + z[i] * h[i];
        }
    }

    /// Starts a reverse sweep over steps taken with
    /// [`GruCell::step_train_into`]: transposes `W_hr`, `W_hz` and `W_hn`
    /// once into `scratch`, so every step multiplies its state gradients by
    /// them with plain [`gemm_acc`] calls instead of packing `Wᵀ` per step.
    /// The sweep borrows `store`, so the weights cannot change under it.
    pub fn backward<'a>(
        &'a self,
        store: &'a ParamStore,
        scratch: &'a mut CellScratch,
    ) -> GruBackward<'a> {
        let hd = self.hidden_dim;
        scratch.w_h_t.clear();
        for w in [self.w_hr, self.w_hz, self.w_hn] {
            let w = store.get(w).as_slice();
            for col in 0..hd {
                scratch
                    .w_h_t
                    .extend(w.iter().skip(col).step_by(hd).copied());
            }
        }
        GruBackward {
            cell: self,
            scratch,
            weights: PhantomData,
        }
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        3 * (self.input_dim * self.hidden_dim)
            + 3 * (self.hidden_dim * self.hidden_dim)
            + 6 * self.hidden_dim
    }

    /// Approximate FLOPs for a single hidden-state update (one row).
    pub fn flops(&self) -> u64 {
        let matmuls =
            3 * 2 * self.input_dim * self.hidden_dim + 3 * 2 * self.hidden_dim * self.hidden_dim;
        let elementwise = 10 * self.hidden_dim;
        (matmuls + elementwise) as u64
    }
}

/// Planes of a GRU step's tape: `r`, `z`, `n` and `h·W_hn + b_hn`.
const GRU_SAVED_PLANES: usize = 4;

/// A reverse sweep through a GRU unroll, from [`GruCell::backward`]: the
/// recurrent weights transposed once, and the scratch each step's gate
/// gradients live in.
#[derive(Debug)]
pub struct GruBackward<'a> {
    cell: &'a GruCell,
    scratch: &'a mut CellScratch,
    /// The store the transposed weights were read from stays borrowed.
    weights: PhantomData<&'a ParamStore>,
}

impl GruBackward<'_> {
    /// The backward step of one [`GruCell::step_train_into`], given the
    /// same `x`, `h` and `saved` and `dh_next`, the loss gradient with
    /// respect to the step's output rows. Adds all twelve parameter
    /// gradients straight into `grads` and, unless `dh_prev` is `None` (the
    /// initial state, whose gradient nobody reads), the gradient with
    /// respect to `h` into `dh_prev`.
    ///
    /// Per element, with `ĥ = h·W_hn + b_hn`: `dn = dh'(1 − z)` and
    /// `dz = dh'·h − dh'·n` (the graph's order), so `dâ_n = dn(1 − n²)` is
    /// the input side of `n` and `dâ_n·r` its hidden side;
    /// `dâ_r = dâ_n·ĥ·r(1 − r)` and `dâ_z = dz·z(1 − z)` feed both sides of
    /// their gates. Weight gradients are `xᵀ·dâ` ([`scatter_acc`]) and
    /// `hᵀ·dâ` ([`gemm_at_acc`]), bias gradients column sums, and
    /// `dh += dh'·z + Σ dâ_hidden·W_hᵀ` over the three gates.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not match the cell.
    pub fn step_into(
        &mut self,
        x: &SparseRows,
        h: &[f32],
        saved: &[f32],
        dh_next: &[f32],
        dh_prev: Option<&mut [f32]>,
        grads: &mut GradStore,
    ) {
        let cell = self.cell;
        let hd = cell.hidden_dim;
        check_step_shapes(x, cell.input_dim, h, dh_next, hd);
        assert_eq!(
            saved.len(),
            cell.saved_len(x.rows()),
            "step tape shape mismatch"
        );
        let plane = h.len();
        let CellScratch { inp, w_h_t, .. } = &mut *self.scratch;
        inp.clear();
        inp.resize(4 * plane, 0.0);
        let (da_r, rest) = inp.split_at_mut(plane);
        let (da_z, rest) = rest.split_at_mut(plane);
        let (da_n, da_hn) = rest.split_at_mut(plane);
        let (r, rest) = saved.split_at(plane);
        let (z, rest) = rest.split_at(plane);
        let (n, hn_b) = rest.split_at(plane);
        for i in 0..plane {
            let g = dh_next[i];
            let dn = g * (1.0 - z[i]);
            let dz = g * h[i] - g * n[i];
            let dan = dn * (1.0 - n[i] * n[i]);
            da_n[i] = dan;
            da_hn[i] = dan * r[i];
            da_r[i] = (dan * hn_b[i]) * (r[i] * (1.0 - r[i]));
            da_z[i] = dz * (z[i] * (1.0 - z[i]));
        }
        let hidden_sides = [&*da_r, &*da_z, &*da_hn];
        if let Some(dh_prev) = dh_prev {
            assert_eq!(dh_prev.len(), plane, "step state shape mismatch");
            for ((d, &g), &z) in dh_prev.iter_mut().zip(dh_next).zip(z) {
                *d += g * z;
            }
            for (da, w_t) in hidden_sides
                .iter()
                .zip(w_h_t.chunks_exact((hd * hd).max(1)))
            {
                gemm_acc(dh_prev, da, w_t, hd);
            }
        }
        let input_sides = [
            (cell.w_ir, &*da_r),
            (cell.w_iz, &*da_z),
            (cell.w_in, &*da_n),
        ];
        for (w, da) in input_sides {
            scatter_acc(grads.get_mut(w).as_mut_slice(), x, da, hd);
        }
        let hidden = [cell.w_hr, cell.w_hz, cell.w_hn];
        for (w, da) in hidden.into_iter().zip(hidden_sides) {
            gemm_at_acc(grads.get_mut(w).as_mut_slice(), h, da, hd);
        }
        let biases = [
            (cell.b_ir, &*da_r),
            (cell.b_hr, &*da_r),
            (cell.b_iz, &*da_z),
            (cell.b_hz, &*da_z),
            (cell.b_in, &*da_n),
            (cell.b_hn, &*da_hn),
        ];
        for (b, da) in biases {
            column_sums_acc(grads.get_mut(b).as_mut_slice(), da);
        }
    }
}

/// A basic `tanh` recurrent cell: `h' = tanh(x·W_ih + b + h·W_hh)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TanhCell {
    w_ih: ParamId,
    w_hh: ParamId,
    bias: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl TanhCell {
    /// Registers a tanh recurrent cell's parameters in `store`.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        let init = Init::RecurrentUniform;
        let w_ih = store.add(
            format!("{name}.w_ih"),
            init.build(input_dim, hidden_dim, rng),
        );
        let w_hh = store.add(
            format!("{name}.w_hh"),
            init.build(hidden_dim, hidden_dim, rng),
        );
        let bias = store.add(format!("{name}.bias"), Tensor::zeros(1, hidden_dim));
        Self {
            w_ih,
            w_hh,
            bias,
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Builds one recurrent step in `graph`.
    pub fn forward(&self, graph: &mut Graph, store: &ParamStore, x: NodeId, h: NodeId) -> NodeId {
        let w_ih = graph.param(self.w_ih, store.get(self.w_ih));
        let w_hh = graph.param(self.w_hh, store.get(self.w_hh));
        let bias = graph.param(self.bias, store.get(self.bias));
        let xw = graph.matmul(x, w_ih);
        let hw = graph.matmul(h, w_hh);
        let sum = graph.add(xw, hw);
        let pre = graph.add_row_broadcast(sum, bias);
        graph.tanh(pre)
    }

    /// Inference-only recurrent step (see [`GruCell::forward_infer`]).
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor, h: &Tensor) -> Tensor {
        infer_via_step(x, h, |x, h, scratch, out| {
            self.step_into(store, x, h, scratch, out);
        })
    }

    /// The fused inference step (see [`GruCell::step_into`]):
    /// `h' = tanh((x·W_ih + h·W_hh) + b)`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not match the cell.
    pub fn step_into(
        &self,
        store: &ParamStore,
        x: &SparseRows,
        h: &[f32],
        scratch: &mut CellScratch,
        out: &mut [f32],
    ) {
        let hd = self.hidden_dim;
        check_step_shapes(x, self.input_dim, h, out, hd);
        let CellScratch { inp, hid, .. } = scratch;
        pre_activations(inp, hid, store, x, h, &[(self.w_ih, self.w_hh)], hd);
        let bias = store.get(self.bias).as_slice();
        let pre = inp.chunks_exact(hd.max(1)).zip(hid.chunks_exact(hd.max(1)));
        for (out_row, (xw, hw)) in out.chunks_exact_mut(hd.max(1)).zip(pre) {
            for (c, o) in out_row.iter_mut().enumerate() {
                *o = (xw[c] + hw[c]) + bias[c];
            }
        }
        tanh_in_place(out);
    }

    /// Approximate FLOPs for one update.
    pub fn flops(&self) -> u64 {
        (2 * self.input_dim * self.hidden_dim
            + 2 * self.hidden_dim * self.hidden_dim
            + 2 * self.hidden_dim) as u64
    }
}

/// A long short-term memory cell. The cell state and hidden state are both
/// `hidden_dim` wide; [`LstmCell::forward`] takes and returns them
/// concatenated as `[h ; c]` (a `1 × 2·hidden_dim` node) so that the
/// sequence-level code can treat every cell kind uniformly as "state in,
/// state out".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LstmCell {
    w_ii: ParamId,
    w_if: ParamId,
    w_ig: ParamId,
    w_io: ParamId,
    w_hi: ParamId,
    w_hf: ParamId,
    w_hg: ParamId,
    w_ho: ParamId,
    b_i: ParamId,
    b_f: ParamId,
    b_g: ParamId,
    b_o: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl LstmCell {
    /// Registers an LSTM cell's parameters in `store`.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        let init = Init::RecurrentUniform;
        let wi = |suffix: &str, store: &mut ParamStore, rng: &mut R| {
            store.add(
                format!("{name}.{suffix}"),
                init.build(input_dim, hidden_dim, rng),
            )
        };
        let w_ii = wi("w_ii", store, rng);
        let w_if = wi("w_if", store, rng);
        let w_ig = wi("w_ig", store, rng);
        let w_io = wi("w_io", store, rng);
        let wh = |suffix: &str, store: &mut ParamStore, rng: &mut R| {
            store.add(
                format!("{name}.{suffix}"),
                init.build(hidden_dim, hidden_dim, rng),
            )
        };
        let w_hi = wh("w_hi", store, rng);
        let w_hf = wh("w_hf", store, rng);
        let w_hg = wh("w_hg", store, rng);
        let w_ho = wh("w_ho", store, rng);
        let b = |suffix: &str, store: &mut ParamStore| {
            store.add(format!("{name}.{suffix}"), Tensor::zeros(1, hidden_dim))
        };
        let b_i = b("b_i", store);
        let b_f = b("b_f", store);
        let b_g = b("b_g", store);
        let b_o = b("b_o", store);
        Self {
            w_ii,
            w_if,
            w_ig,
            w_io,
            w_hi,
            w_hf,
            w_hg,
            w_ho,
            b_i,
            b_f,
            b_g,
            b_o,
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality (the combined state is twice this).
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Builds one step. `state` must be a `1 × 2·hidden_dim` node holding
    /// `[h ; c]`; the returned node has the same layout.
    pub fn forward(
        &self,
        graph: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        state: NodeId,
    ) -> NodeId {
        let h = graph.slice_cols(state, 0, self.hidden_dim);
        let c = graph.slice_cols(state, self.hidden_dim, 2 * self.hidden_dim);

        let gate = |graph: &mut Graph, wi, wh, b, act_sigmoid: bool| -> NodeId {
            let wi = graph.param(wi, store.get(wi));
            let wh = graph.param(wh, store.get(wh));
            let b = graph.param(b, store.get(b));
            let xw = graph.matmul(x, wi);
            let hw = graph.matmul(h, wh);
            let sum = graph.add(xw, hw);
            let pre = graph.add_row_broadcast(sum, b);
            if act_sigmoid {
                graph.sigmoid(pre)
            } else {
                graph.tanh(pre)
            }
        };

        let i = gate(graph, self.w_ii, self.w_hi, self.b_i, true);
        let f = gate(graph, self.w_if, self.w_hf, self.b_f, true);
        let g = gate(graph, self.w_ig, self.w_hg, self.b_g, false);
        let o = gate(graph, self.w_io, self.w_ho, self.b_o, true);

        let fc = graph.mul(f, c);
        let ig = graph.mul(i, g);
        let c_next = graph.add(fc, ig);
        let c_tanh = graph.tanh(c_next);
        let h_next = graph.mul(o, c_tanh);
        graph.concat_cols(h_next, c_next)
    }

    /// Inference-only step (see [`GruCell::forward_infer`]); `state` is the
    /// same `[h ; c]` layout as [`LstmCell::forward`].
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor, state: &Tensor) -> Tensor {
        infer_via_step(x, state, |x, state, scratch, out| {
            self.step_into(store, x, state, scratch, out);
        })
    }

    /// The fused inference step (see [`GruCell::step_into`]); `state` and
    /// `out` are `x.rows() × 2·hidden_dim` rows of `[h ; c]`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not match the cell.
    pub fn step_into(
        &self,
        store: &ParamStore,
        x: &SparseRows,
        state: &[f32],
        scratch: &mut CellScratch,
        out: &mut [f32],
    ) {
        let hd = self.hidden_dim;
        check_step_shapes(x, self.input_dim, state, out, 2 * hd);
        scratch.hidden_half(state, hd);
        let gates = [
            (self.w_ii, self.w_hi),
            (self.w_if, self.w_hf),
            (self.w_ig, self.w_hg),
            (self.w_io, self.w_ho),
        ];
        let CellScratch { inp, hid, h, .. } = scratch;
        pre_activations(inp, hid, store, x, h, &gates, hd);
        let plane = x.rows() * hd;
        let biases = [self.b_i, self.b_f, self.b_g, self.b_o].map(|id| store.get(id).as_slice());
        // Pre-activations `(x·W_i + h·W_h) + b` for all four gates, then each
        // activation as its own pass (see `GruCell::step_into`); the gate
        // values overwrite the hidden-side scratch.
        for ((hid, inp), bias) in hid
            .chunks_exact_mut(plane.max(1))
            .zip(inp.chunks_exact(plane.max(1)))
            .zip(biases)
        {
            for (hid, inp) in hid.chunks_exact_mut(hd).zip(inp.chunks_exact(hd)) {
                for ((v, &xw), &b) in hid.iter_mut().zip(inp).zip(bias) {
                    *v = (xw + *v) + b;
                }
            }
        }
        let (i, rest) = hid.split_at_mut(plane);
        let (f, rest) = rest.split_at_mut(plane);
        let (g, o) = rest.split_at_mut(plane);
        for gate in [&mut *i, &mut *f, &mut *o] {
            sigmoid_in_place(gate);
        }
        tanh_in_place(g);
        let rows = state
            .chunks_exact((2 * hd).max(1))
            .zip(out.chunks_exact_mut((2 * hd).max(1)));
        for (row, (state_row, out_row)) in rows.enumerate() {
            let at = row * hd..(row + 1) * hd;
            let (i, f, g, o) = (&i[at.clone()], &f[at.clone()], &g[at.clone()], &o[at]);
            let (h_next, c_next) = out_row.split_at_mut(hd);
            let c_prev = &state_row[hd..];
            for c in 0..hd {
                c_next[c] = f[c] * c_prev[c] + i[c] * g[c];
            }
            h_next.copy_from_slice(c_next);
            tanh_in_place(h_next);
            for (h, &o) in h_next.iter_mut().zip(o) {
                *h *= o;
            }
        }
    }

    /// Approximate FLOPs for one update.
    pub fn flops(&self) -> u64 {
        (4 * 2 * self.input_dim * self.hidden_dim
            + 4 * 2 * self.hidden_dim * self.hidden_dim
            + 12 * self.hidden_dim) as u64
    }
}

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and survivors are scaled by `1 / (1 - p)`; at evaluation time the
/// layer is the identity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Self { p }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Applies dropout to `x`. When `training` is false (or `p == 0`) this is
    /// a no-op that returns `x` unchanged.
    pub fn forward<R: Rng + ?Sized>(
        &self,
        graph: &mut Graph,
        x: NodeId,
        training: bool,
        rng: &mut R,
    ) -> NodeId {
        if !training || self.p == 0.0 {
            return x;
        }
        let shape = graph.value(x).shape();
        let mut mask_data = Vec::with_capacity(shape.0 * shape.1);
        self.mask_into(rng, shape.0 * shape.1, &mut mask_data);
        let mask = Tensor::from_vec(shape.0, shape.1, mask_data);
        graph.mask_mul(x, mask)
    }

    /// Appends the next `len` mask values drawn from `rng` to `out`:
    /// `1 / (1 - p)` for a survivor, 0 for a dropped element — the draws
    /// [`Dropout::forward`] makes in training, so the same stream gives the
    /// same masks.
    pub fn mask_into<R: Rng + ?Sized>(&self, rng: &mut R, len: usize, out: &mut Vec<f32>) {
        let keep = 1.0 - self.p;
        out.extend((0..len).map(|_| {
            if rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_forward_shape_and_value() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = Linear::new("lin", 3, 2, &mut store, &mut r);
        assert_eq!(layer.num_params(), 8);

        // Overwrite the weights for a deterministic check.
        let (w, b) = layer.params();
        *store.get_mut(w) = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        *store.get_mut(b) = Tensor::from_row(&[0.5, -0.5]);

        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, 2.0, 3.0]));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (1, 2));
        assert_eq!(g.value(y).as_slice(), &[4.5, 4.5]);
    }

    #[test]
    fn linear_gradients_flow_to_params() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = Linear::new("lin", 4, 3, &mut store, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, -1.0, 0.5, 2.0]));
        let y = layer.forward(&mut g, &store, x);
        let s = g.sigmoid(y);
        let loss = g.mean(s);
        g.backward(loss);
        let mut grads = store.zero_grads();
        g.param_grads_into(&mut grads);
        let (w, b) = layer.params();
        assert!(grads.get(w).max_abs() > 0.0, "weight grad must be nonzero");
        assert!(grads.get(b).max_abs() > 0.0, "bias grad must be nonzero");
    }

    #[test]
    fn gru_step_shape_and_bounded_output() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = GruCell::new("gru", 5, 8, &mut store, &mut r);
        assert_eq!(cell.hidden_dim(), 8);
        assert_eq!(cell.num_params(), 3 * 5 * 8 + 3 * 8 * 8 + 6 * 8);

        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, 0.0, -1.0, 0.5, 2.0]));
        let h = g.constant(Tensor::zeros(1, 8));
        let h1 = cell.forward(&mut g, &store, x, h);
        assert_eq!(g.value(h1).shape(), (1, 8));
        // GRU output is a convex combination of tanh output and previous
        // state, so it stays in (-1, 1) when starting from zero state.
        assert!(g.value(h1).max_abs() < 1.0);
    }

    #[test]
    fn gru_zero_input_zero_state_not_all_zero_after_training_signal() {
        // With zero biases and zero inputs the candidate n is 0, so h stays 0.
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = GruCell::new("gru", 3, 4, &mut store, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(1, 3));
        let h = g.constant(Tensor::zeros(1, 4));
        let h1 = cell.forward(&mut g, &store, x, h);
        assert_eq!(g.value(h1).max_abs(), 0.0);
    }

    #[test]
    fn gru_bptt_gradients_nonzero_over_sequence() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = GruCell::new("gru", 2, 4, &mut store, &mut r);
        let head = Linear::new("head", 4, 1, &mut store, &mut r);

        let mut g = Graph::new();
        let mut h = g.constant(Tensor::zeros(1, 4));
        for step in 0..5 {
            let x = g.constant(Tensor::from_row(&[step as f32, 1.0]));
            h = cell.forward(&mut g, &store, x, h);
        }
        let logit = head.forward(&mut g, &store, h);
        let loss = g.bce_with_logits(logit, Tensor::from_row(&[1.0]), None);
        g.backward(loss);
        let mut grads = store.zero_grads();
        g.param_grads_into(&mut grads);
        let nonzero = grads.iter().filter(|(_, t)| t.max_abs() > 0.0).count();
        // All GRU weights and the head should receive gradient.
        assert!(
            nonzero >= 12,
            "expected most params to get gradient, got {nonzero}"
        );
    }

    #[test]
    fn tanh_cell_forward_bounded() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = TanhCell::new("rnn", 3, 6, &mut store, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[10.0, -10.0, 5.0]));
        let h = g.constant(Tensor::zeros(1, 6));
        let h1 = cell.forward(&mut g, &store, x, h);
        assert_eq!(g.value(h1).shape(), (1, 6));
        assert!(g.value(h1).max_abs() <= 1.0);
    }

    #[test]
    fn lstm_state_layout_roundtrip() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = LstmCell::new("lstm", 3, 5, &mut store, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, -0.5, 0.25]));
        let state = g.constant(Tensor::zeros(1, 10));
        let next = cell.forward(&mut g, &store, x, state);
        assert_eq!(g.value(next).shape(), (1, 10));
        // Hidden part (first half) is o ⊙ tanh(c) and therefore bounded by 1.
        let hidden = g.value(next).slice_cols(0, 5);
        assert!(hidden.max_abs() <= 1.0);
    }

    /// One-hot-plus-scalar input rows like the featurizers produce, and
    /// dense states with every third row all-zero (cold-start users).
    fn serving_like_batch(rows: usize, input_dim: usize, width: usize) -> (Tensor, Tensor) {
        let mut r = StdRng::seed_from_u64(rows as u64);
        let mut x = Tensor::zeros(rows, input_dim);
        let mut state = Tensor::zeros(rows, width);
        for row in 0..rows {
            for _ in 0..4 {
                x.set(row, r.gen_range(0..input_dim - 1), 1.0);
            }
            x.set(row, input_dim - 1, r.gen_range(0.0..1.0));
            if row % 3 != 2 {
                for c in 0..width {
                    state.set(row, c, r.gen_range(-1.0..1.0));
                }
            }
        }
        (x, state)
    }

    fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn fused_steps_match_the_graph_forward_bit_for_bit() {
        let (input_dim, hidden) = (21, 32);
        let mut store = ParamStore::new();
        let mut r = rng();
        let gru = GruCell::new("gru", input_dim, hidden, &mut store, &mut r);
        let tanh = TanhCell::new("tanh", input_dim, hidden, &mut store, &mut r);
        let lstm = LstmCell::new("lstm", input_dim, hidden, &mut store, &mut r);
        // Non-zero biases, so the association order of the bias adds matters.
        let ids: Vec<ParamId> = store.iter().map(|(id, _)| id).collect();
        for id in ids {
            let t = store.get_mut(id);
            if t.rows() == 1 {
                for b in t.as_mut_slice() {
                    *b = r.gen_range(-0.5..0.5);
                }
            }
        }
        for rows in [1usize, 2, 3, 7, 8, 64] {
            let (x, h) = serving_like_batch(rows, input_dim, hidden);
            let (_, hc) = serving_like_batch(rows, input_dim, 2 * hidden);
            let mut g = Graph::new();
            let (xn, hn, hcn) = (
                g.constant(x.clone()),
                g.constant(h.clone()),
                g.constant(hc.clone()),
            );
            let want = gru.forward(&mut g, &store, xn, hn);
            assert_bits_eq(
                &gru.forward_infer(&store, &x, &h),
                g.value(want),
                &format!("gru B={rows}"),
            );
            let want = tanh.forward(&mut g, &store, xn, hn);
            assert_bits_eq(
                &tanh.forward_infer(&store, &x, &h),
                g.value(want),
                &format!("tanh B={rows}"),
            );
            let want = lstm.forward(&mut g, &store, xn, hcn);
            assert_bits_eq(
                &lstm.forward_infer(&store, &x, &hc),
                g.value(want),
                &format!("lstm B={rows}"),
            );
        }
    }

    #[test]
    fn step_scratch_is_reusable_across_batch_sizes() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let gru = GruCell::new("gru", 9, 16, &mut store, &mut r);
        let mut scratch = CellScratch::default();
        for rows in [8usize, 3, 64, 1] {
            let (x, h) = serving_like_batch(rows, 9, 16);
            let mut sparse = SparseRows::new();
            sparse.clear(9);
            x.iter_rows().for_each(|row| sparse.push_dense_row(row));
            let mut out = vec![f32::NAN; rows * 16];
            gru.step_into(&store, &sparse, h.as_slice(), &mut scratch, &mut out);
            assert_eq!(out, gru.forward_infer(&store, &x, &h).into_vec());
        }
    }

    /// `‖got − want‖ ≤ 1e-5 · ‖want‖` (plus a floor for all-zero `want`).
    fn assert_close(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        let norm = |v: &mut dyn Iterator<Item = f32>| v.map(|x| x * x).sum::<f32>().sqrt();
        let diff = norm(&mut got.iter().zip(want).map(|(g, w)| g - w));
        let scale = norm(&mut want.iter().copied());
        assert!(
            diff <= 1e-5 * scale + 1e-12,
            "{what}: |got - want| = {diff:e} against |want| = {scale:e}"
        );
    }

    #[test]
    fn gru_training_steps_match_the_graph() {
        let (input_dim, hd, rows, steps) = (11, 8, 3, 4);
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = GruCell::new("gru", input_dim, hd, &mut store, &mut r);
        let ids: Vec<ParamId> = store.iter().map(|(id, _)| id).collect();
        for &id in &ids {
            for v in store.get_mut(id).as_mut_slice() {
                *v = r.gen_range(-0.5..0.5);
            }
        }
        let random = |r: &mut StdRng, cols: usize| {
            let data = (0..rows * cols).map(|_| r.gen_range(-1.0..1.0)).collect();
            Tensor::from_vec(rows, cols, data)
        };
        let xs: Vec<Tensor> = (0..steps)
            .map(|t| {
                let (x, _) = serving_like_batch(rows + t, input_dim, hd);
                Tensor::from_vec(rows, input_dim, x.as_slice()[..rows * input_dim].to_vec())
            })
            .collect();
        let h0 = random(&mut r, hd);
        // The loss is Σ_t Σ h_{t+1} ⊙ c_t, so dL/dh_{t+1} = c_t directly.
        let cs: Vec<Tensor> = (0..steps).map(|_| random(&mut r, hd)).collect();

        let mut g = Graph::new();
        let h0_node = g.constant(h0.clone());
        let mut h = h0_node;
        let mut outputs = Vec::new();
        let mut loss = None;
        for (x, c) in xs.iter().zip(&cs) {
            let x = g.constant(x.clone());
            h = cell.forward(&mut g, &store, x, h);
            outputs.push(h);
            let c = g.constant(c.clone());
            let weighted = g.mul(h, c);
            let term = g.sum(weighted);
            loss = Some(loss.map_or(term, |acc| g.add(acc, term)));
        }
        let loss = loss.expect("at least one step");
        g.backward(loss);
        let mut want = store.zero_grads();
        g.param_grads_into(&mut want);

        let mut scratch = CellScratch::default();
        let inputs: Vec<SparseRows> = xs
            .iter()
            .map(|x| {
                let mut sparse = SparseRows::new();
                sparse.clear(input_dim);
                x.iter_rows().for_each(|row| sparse.push_dense_row(row));
                sparse
            })
            .collect();
        let mut states = vec![h0.into_vec()];
        let mut saved = Vec::new();
        for (t, x) in inputs.iter().enumerate() {
            let mut tape = vec![0.0; cell.saved_len(rows)];
            let mut out = vec![0.0; rows * hd];
            cell.step_train_into(&store, x, &states[t], &mut scratch, &mut tape, &mut out);
            assert_bits_eq(
                &Tensor::from_vec(rows, hd, out.clone()),
                g.value(outputs[t]),
                &format!("training forward step {t}"),
            );
            states.push(out);
            saved.push(tape);
        }
        let mut got = store.zero_grads();
        let mut back = cell.backward(&store, &mut scratch);
        let mut carry = vec![0.0f32; rows * hd];
        for t in (0..steps).rev() {
            let dh_next: Vec<f32> = carry
                .iter()
                .zip(cs[t].as_slice())
                .map(|(a, b)| a + b)
                .collect();
            carry = vec![0.0; rows * hd];
            back.step_into(
                &inputs[t],
                &states[t],
                &saved[t],
                &dh_next,
                Some(&mut carry),
                &mut got,
            );
        }
        assert_close(&carry, g.grad(h0_node).as_slice(), "dL/dh_0");
        for &id in &ids {
            let name = store
                .iter()
                .nth(id.index())
                .map(|(_, e)| e.name().to_owned());
            assert_close(
                got.get(id).as_slice(),
                want.get(id).as_slice(),
                &format!("{name:?}"),
            );
        }
    }

    #[test]
    fn dropout_masks_are_the_forward_passes_masks() {
        let d = Dropout::new(0.3);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(2, 50));
        let y = d.forward(&mut g, x, true, &mut rng());
        let mut masks = Vec::new();
        d.mask_into(&mut rng(), 100, &mut masks);
        assert_eq!(g.value(y).as_slice(), masks.as_slice());
    }

    #[test]
    fn dropout_eval_is_identity() {
        let d = Dropout::new(0.5);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(1, 100));
        let mut r = rng();
        let y = d.forward(&mut g, x, false, &mut r);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_training_scales_survivors() {
        let d = Dropout::new(0.2);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(1, 10_000));
        let mut r = rng();
        let y = d.forward(&mut g, x, true, &mut r);
        let values = g.value(y).as_slice();
        let zeros = values.iter().filter(|&&v| v == 0.0).count();
        let scaled = values.iter().filter(|&&v| (v - 1.25).abs() < 1e-6).count();
        assert_eq!(zeros + scaled, 10_000);
        // Dropout rate should be near 20%.
        assert!((zeros as f32 / 10_000.0 - 0.2).abs() < 0.03);
        // Expected value preserved.
        let mean: f32 = values.iter().sum::<f32>() / values.len() as f32;
        assert!((mean - 1.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_invalid_probability_panics() {
        let _ = Dropout::new(1.0);
    }

    #[test]
    fn flops_are_positive_and_ordered() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let gru = GruCell::new("gru", 16, 128, &mut store, &mut r);
        let tanh = TanhCell::new("tanh", 16, 128, &mut store, &mut r);
        let lstm = LstmCell::new("lstm", 16, 128, &mut store, &mut r);
        assert!(tanh.flops() < gru.flops());
        assert!(gru.flops() < lstm.flops());
    }
}

//! The workspace's one dense kernel, `out += a · w`, its sparse-input
//! companion, and their transposes for training.
//!
//! Every matrix product in the repository — [`Tensor::matmul`] (and with it
//! the autograd graph, the graph-trained cells and the single-request
//! reference path) and the fused steps in [`crate::layers`] — goes through
//! [`gemm_acc`]; inputs that are mostly zeros (one-hot features) go through
//! [`gather_acc`] as `value × row` gathers instead. The fused backward
//! passes add the two transposed-operand products, [`gemm_at_acc`]
//! (`aᵀ · g`, weight gradients) and [`gemm_bt_acc`] (`g · wᵀ`, input
//! gradients), and [`scatter_acc`], the transpose of the gather.
//!
//! # The accumulation-order invariant
//!
//! For every output element `out[i][j]` the forward kernels perform exactly
//! the additions `out[i][j] += a[i][k] * w[k][j]` for `k` ascending,
//! skipping the `k` whose `a[i][k]` is zero, with one rounding per multiply
//! and one per add (no fused multiply-add, no reassociation, no partial
//! sums); the transposed products keep the same rule over their own
//! summation index. Blocking only changes *which* elements are worked on
//! together, never the sequence of operations applied to one element, so
//! the result is bit-for-bit the same for every batch size, on every host,
//! and in every instantiation below. That is what keeps batched ≡
//! single-request and fused ≡ graph exact.
//!
//! # Blocking and dispatch
//!
//! Dense rows are processed four at a time in register tiles of
//! 4 rows × `TILE` columns: a tile's accumulators stay in registers for the
//! whole `k` loop, so each `w` element is loaded once per four output rows
//! and `out` is read and written once per call instead of once per `k`.
//! Column tiles are the outer loop, so the `K × TILE` panel of `w` a tile
//! reads stays in L1 across all row blocks. Rows beyond a multiple of four,
//! columns beyond a multiple of `TILE`, and inputs that are mostly zeros
//! take the row-at-a-time loop; `N = 1` (a dot product per row) runs four
//! independent add chains.
//!
//! The body is plain safe Rust marked `#[inline(always)]` and instantiated
//! once per [`Isa`]: portably, under `#[target_feature(enable = "avx2")]`
//! and under `#[target_feature(enable = "avx512f")]`, so the compiler
//! vectorises the same source four, eight or sixteen lanes wide. The tile
//! width follows the register file: 16 columns under AVX2 (eight 256-bit
//! accumulators of its sixteen registers) and portably, 64 under AVX-512
//! (sixteen 512-bit accumulators of its thirty-two), where a 16-column tile
//! would leave four add chains to hide the add latency. Every product
//! here picks the widest instantiation the CPU has, once per
//! call, through a private `dispatch` that the slice forms of
//! [`crate::activation`] share; its calls into the two target-feature
//! instantiations are one of the workspace's two audited `unsafe` blocks
//! (the other is `pp_obs::sync`'s timer-slack `prctl`). [`gemm_acc_on`]
//! runs a named instantiation, so tests and benches cover all of them on
//! one host.
//!
//! [`Tensor::matmul`]: crate::tensor::Tensor::matmul

/// Output rows one register tile covers.
const ROWS: usize = 4;

/// An instruction set the kernel body is instantiated for. Every
/// instantiation gives the same bits; they differ in vector width only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The compilation target's baseline (SSE2 on `x86_64`).
    Portable,
    /// 256-bit AVX2.
    Avx2,
    /// 512-bit AVX-512 Foundation.
    Avx512,
}

impl Isa {
    /// Every instantiation, narrowest first.
    const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

    /// The instantiations this CPU can run, narrowest first; the last is the
    /// one [`gemm_acc`] picks.
    pub fn available() -> impl Iterator<Item = Isa> {
        Self::ALL.into_iter().filter(|isa| isa.is_available())
    }

    /// The widest instantiation this CPU can run.
    fn best() -> Isa {
        if Isa::Avx512.is_available() {
            Isa::Avx512
        } else if Isa::Avx2.is_available() {
            Isa::Avx2
        } else {
            Isa::Portable
        }
    }

    /// Whether this CPU has every target feature the instantiation is
    /// compiled with. `avx512f` implies `avx2`, `fma` and `f16c` to the
    /// compiler, so those are required too.
    fn is_available(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
                    && std::arch::is_x86_feature_detected!("f16c")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => false,
        }
    }
}

/// Accumulates `a · w` into `out`: `out` is `M × n`, `w` is `K × n`, `a` is
/// `M × K`, all row-major. See the module docs for the order of operations.
///
/// # Panics
///
/// Panics if the slice lengths do not describe such shapes.
pub fn gemm_acc(out: &mut [f32], a: &[f32], w: &[f32], n: usize) {
    check_shapes(out, a, w, n);
    dispatch(
        #[inline(always)]
        |isa| gemm_on(isa, out, a, w, n),
    );
}

/// [`gemm_acc`] in the instantiation `isa` rather than the widest one.
/// Exists so tests and benches can exercise every instantiation the host
/// has; results are bit-identical.
///
/// # Panics
///
/// Panics if the CPU cannot run `isa` (see [`Isa::available`]), or if the
/// slice lengths do not describe `M × K · K × n` shapes.
pub fn gemm_acc_on(isa: Isa, out: &mut [f32], a: &[f32], w: &[f32], n: usize) {
    check_shapes(out, a, w, n);
    dispatch_to(
        isa,
        #[inline(always)]
        |isa| gemm_on(isa, out, a, w, n),
    );
}

/// Runs `body` in the widest instantiation the CPU has; see [`dispatch_to`].
/// Shared by every product in this module and the slice forms in
/// [`crate::activation`].
#[inline(always)]
pub(crate) fn dispatch(body: impl FnOnce(Isa)) {
    dispatch_to(Isa::best(), body);
}

/// Runs `body(isa)` compiled for `isa`; without FMA every instantiation
/// gives the same bits. `isa` is a constant in each instantiation, so a
/// `match` on it in `body` folds away.
///
/// `body` must be an `#[inline(always)]` closure over `#[inline(always)]`
/// callees: only code inlined into `with_avx2` / `with_avx512` is compiled
/// for their target features, and a large closure left out of line
/// silently runs portably (`pp-lint`'s `dispatch-inline` rule checks the
/// closure).
///
/// # Panics
///
/// Panics if the CPU cannot run `isa`.
#[inline(always)]
pub(crate) fn dispatch_to(isa: Isa, body: impl FnOnce(Isa)) {
    assert!(
        isa.is_available(),
        "this CPU cannot run the {isa:?} kernels"
    );
    #[cfg(target_arch = "x86_64")]
    if isa != Isa::Portable {
        // SAFETY: `with_avx512` and `with_avx2` require only that the CPU
        // supports the target features they are compiled with, which the
        // `is_x86_feature_detected!` checks behind the `is_available`
        // assertion above have just established for `isa`; what they run
        // is the safe `body`.
        #[allow(unsafe_code)]
        unsafe {
            if isa == Isa::Avx512 {
                with_avx512(body);
            } else {
                with_avx2(body);
            }
        }
        return;
    }
    body(Isa::Portable);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn with_avx2(body: impl FnOnce(Isa)) {
    body(Isa::Avx2);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn with_avx512(body: impl FnOnce(Isa)) {
    body(Isa::Avx512);
}

fn check_shapes(out: &[f32], a: &[f32], w: &[f32], n: usize) {
    if n == 0 {
        assert!(
            out.is_empty() && w.is_empty(),
            "gemm_acc: zero-width output with non-empty buffers"
        );
        return;
    }
    assert!(
        out.len().is_multiple_of(n) && w.len().is_multiple_of(n),
        "gemm_acc: out ({}) and w ({}) must be whole rows of width {n}",
        out.len(),
        w.len()
    );
    assert_eq!(
        a.len(),
        (out.len() / n) * (w.len() / n),
        "gemm_acc: a must be {} x {}",
        out.len() / n,
        w.len() / n
    );
}

/// The GEMM body with the tile width of `isa`'s register file.
#[inline(always)]
fn gemm_on(isa: Isa, out: &mut [f32], a: &[f32], w: &[f32], n: usize) {
    match isa {
        Isa::Portable | Isa::Avx2 => gemm_body::<16>(out, a, w, n),
        Isa::Avx512 => gemm_body::<64>(out, a, w, n),
    }
}

#[inline(always)]
fn gemm_body<const TILE: usize>(out: &mut [f32], a: &[f32], w: &[f32], n: usize) {
    if out.is_empty() || w.is_empty() {
        return;
    }
    let k = w.len() / n;
    if n == 1 {
        dot_rows(out, a, w);
        return;
    }
    // Register tiles pay for every `k` whether `a[i][k]` is zero or not, the
    // row loop only for the non-zeros: tile the whole row blocks when at
    // least half of their `a` is non-zero.
    let blocked = out.len() / n / ROWS * ROWS;
    let dense = a[..blocked * k].iter().filter(|&&x| x != 0.0).count() * 2 >= blocked * k;
    let (tiled_rows, tiled_cols) = if dense {
        (blocked, n - n % TILE)
    } else {
        (0, 0)
    };
    let (out_tiled, out_rest) = out.split_at_mut(tiled_rows * n);
    let (a_tiled, a_rest) = a.split_at(tiled_rows * k);
    tiles::<TILE>(out_tiled, a_tiled, w, k, n, tiled_cols);
    if tiled_cols < n {
        rows(out_tiled, a_tiled, w, k, n, tiled_cols);
    }
    rows(out_rest, a_rest, w, k, n, 0);
}

/// `o += x * b`, the one inner loop of the row-at-a-time paths.
#[inline(always)]
fn axpy(o: &mut [f32], x: f32, b: &[f32]) {
    for (o, &b) in o.iter_mut().zip(b) {
        *o += x * b;
    }
}

/// Row-at-a-time accumulation into columns `from_col..n` of every row.
#[inline(always)]
fn rows(out: &mut [f32], a: &[f32], w: &[f32], k: usize, n: usize, from_col: usize) {
    for (o, a_row) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (&x, w_row) in a_row.iter().zip(w.chunks_exact(n)) {
            if x != 0.0 {
                axpy(&mut o[from_col..], x, &w_row[from_col..]);
            }
        }
    }
}

/// Register-tiled accumulation into columns `0..cols` (a multiple of
/// `TILE`) of `out`, whose row count is a multiple of [`ROWS`].
#[inline(always)]
fn tiles<const TILE: usize>(
    out: &mut [f32],
    a: &[f32],
    w: &[f32],
    k: usize,
    n: usize,
    cols: usize,
) {
    for j in (0..cols).step_by(TILE) {
        for (o, a_block) in out.chunks_exact_mut(ROWS * n).zip(a.chunks_exact(ROWS * k)) {
            let (a0, rest) = a_block.split_at(k);
            let (a1, rest) = rest.split_at(k);
            let (a2, a3) = rest.split_at(k);
            let mut c0 = [0.0f32; TILE];
            let mut c1 = [0.0f32; TILE];
            let mut c2 = [0.0f32; TILE];
            let mut c3 = [0.0f32; TILE];
            c0.copy_from_slice(&o[j..j + TILE]);
            c1.copy_from_slice(&o[n + j..n + j + TILE]);
            c2.copy_from_slice(&o[2 * n + j..2 * n + j + TILE]);
            c3.copy_from_slice(&o[3 * n + j..3 * n + j + TILE]);
            let a_cols = a0.iter().zip(a1).zip(a2).zip(a3);
            for (w_row, (((&x0, &x1), &x2), &x3)) in w.chunks_exact(n).zip(a_cols) {
                let b: &[f32; TILE] = w_row[j..j + TILE]
                    .try_into()
                    .expect("slice is one tile wide");
                if x0 != 0.0 && x1 != 0.0 && x2 != 0.0 && x3 != 0.0 {
                    for t in 0..TILE {
                        c0[t] += x0 * b[t];
                        c1[t] += x1 * b[t];
                        c2[t] += x2 * b[t];
                        c3[t] += x3 * b[t];
                    }
                } else {
                    if x0 != 0.0 {
                        axpy(&mut c0, x0, b);
                    }
                    if x1 != 0.0 {
                        axpy(&mut c1, x1, b);
                    }
                    if x2 != 0.0 {
                        axpy(&mut c2, x2, b);
                    }
                    if x3 != 0.0 {
                        axpy(&mut c3, x3, b);
                    }
                }
            }
            o[j..j + TILE].copy_from_slice(&c0);
            o[n + j..n + j + TILE].copy_from_slice(&c1);
            o[2 * n + j..2 * n + j + TILE].copy_from_slice(&c2);
            o[3 * n + j..3 * n + j + TILE].copy_from_slice(&c3);
        }
    }
}

/// `n == 1`: one dot product per output row. Four rows advance together so
/// four independent add chains hide the add latency a single ascending-`k`
/// chain would serialise on.
#[inline(always)]
fn dot_rows(out: &mut [f32], a: &[f32], w: &[f32]) {
    let k = w.len();
    let dot = |acc: f32, a_row: &[f32]| {
        a_row.iter().zip(w).fold(
            acc,
            |acc, (&x, &b)| if x != 0.0 { acc + x * b } else { acc },
        )
    };
    let mut out_blocks = out.chunks_exact_mut(ROWS);
    let mut a_blocks = a.chunks_exact(ROWS * k);
    for (o, a_block) in (&mut out_blocks).zip(&mut a_blocks) {
        let (a0, rest) = a_block.split_at(k);
        let (a1, rest) = rest.split_at(k);
        let (a2, a3) = rest.split_at(k);
        let (mut s0, mut s1, mut s2, mut s3) = (o[0], o[1], o[2], o[3]);
        for ((((&b, &x0), &x1), &x2), &x3) in w.iter().zip(a0).zip(a1).zip(a2).zip(a3) {
            if x0 != 0.0 {
                s0 += x0 * b;
            }
            if x1 != 0.0 {
                s1 += x1 * b;
            }
            if x2 != 0.0 {
                s2 += x2 * b;
            }
            if x3 != 0.0 {
                s3 += x3 * b;
            }
        }
        o.copy_from_slice(&[s0, s1, s2, s3]);
    }
    let a_tail = a_blocks.remainder().chunks_exact(k);
    for (o, a_row) in out_blocks.into_remainder().iter_mut().zip(a_tail) {
        *o = dot(*o, a_row);
    }
}

/// The non-zero entries of a batch of mostly-zero input rows (one-hot
/// features plus the odd scalar): per row a list of `(column, value)` in
/// ascending column order, zeros never stored.
///
/// # Examples
///
/// ```
/// use pp_nn::kernel::SparseRows;
///
/// let mut x = SparseRows::new();
/// x.clear(4);
/// x.push(1, 1.0);
/// x.push(3, 0.5);
/// x.end_row();
/// x.push_dense_row(&[0.0, 0.0, 2.0, 0.0]);
/// assert_eq!(x.rows(), 2);
/// assert_eq!(x.row(0).collect::<Vec<_>>(), vec![(1, 1.0), (3, 0.5)]);
/// assert_eq!(x.row(1).collect::<Vec<_>>(), vec![(2, 2.0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseRows {
    width: usize,
    entries: Vec<(usize, f32)>,
    /// `entries[row_ends[r - 1]..row_ends[r]]` is row `r`.
    row_ends: Vec<usize>,
}

impl SparseRows {
    /// An empty batch of width 0; call [`SparseRows::clear`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every row and sets the row width, keeping the allocations.
    pub fn clear(&mut self, width: usize) {
        self.width = width;
        self.entries.clear();
        self.row_ends.clear();
    }

    /// Number of columns of every row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of finished rows.
    pub fn rows(&self) -> usize {
        self.row_ends.len()
    }

    /// Appends an entry to the row under construction; a zero `value` is
    /// dropped (it would be skipped by the kernels anyway).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or not beyond the row's previous
    /// entry — ascending order is what makes [`gather_acc`] add in the same
    /// order as the dense product.
    pub fn push(&mut self, col: usize, value: f32) {
        assert!(col < self.width, "column {col} out of range {}", self.width);
        let row_start = self.row_ends.last().copied().unwrap_or(0);
        if let Some(&(last, _)) = self.entries[row_start..].last() {
            assert!(
                col > last,
                "columns must ascend within a row ({col} after {last})"
            );
        }
        if value != 0.0 {
            self.entries.push((col, value));
        }
    }

    /// Finishes the row under construction (possibly empty).
    pub fn end_row(&mut self) {
        self.row_ends.push(self.entries.len());
    }

    /// Appends a whole row from its dense form.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.width()` or a row is under construction.
    pub fn push_dense_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.width, "dense row width mismatch");
        assert_eq!(
            self.entries.len(),
            self.row_ends.last().copied().unwrap_or(0),
            "a row is under construction"
        );
        let non_zeros = row.iter().copied().enumerate();
        self.entries
            .extend(non_zeros.filter(|&(_, value)| value != 0.0));
        self.end_row();
    }

    /// The `(column, value)` entries of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let start = if row == 0 { 0 } else { self.row_ends[row - 1] };
        self.entries[start..self.row_ends[row]].iter().copied()
    }
}

/// Accumulates `x · w` into `out` for sparse `x`: for every row, `value ×`
/// row `column` of `w` for each entry in ascending column order — the same
/// additions [`gemm_acc`] performs on the dense form of `x`. `out` is
/// `x.rows() × n`, `w` is `x.width() × n`.
///
/// # Panics
///
/// Panics if the slice lengths do not match those shapes.
pub fn gather_acc(out: &mut [f32], x: &SparseRows, w: &[f32], n: usize) {
    assert_eq!(out.len(), x.rows() * n, "gather_acc: out shape");
    assert_eq!(w.len(), x.width() * n, "gather_acc: w shape");
    if n == 0 {
        return;
    }
    dispatch(
        #[inline(always)]
        |_| gather_body(out, x, w, n),
    );
}

#[inline(always)]
fn gather_body(out: &mut [f32], x: &SparseRows, w: &[f32], n: usize) {
    for (row, o) in out.chunks_exact_mut(n).enumerate() {
        for (col, value) in x.row(row) {
            axpy(o, value, &w[col * n..(col + 1) * n]);
        }
    }
}

/// Accumulates `aᵀ · g` into `out` — the weight gradient of the product
/// `a · w` given the output gradient `g`: `out` is `K × n`, `a` is `M × K`,
/// `g` is `M × n`, all row-major.
///
/// For every element the additions are `out[k][j] += a[i][k] * g[i][j]` for
/// `i` ascending, skipping the `i` whose `a[i][k]` is zero, one rounding per
/// multiply and per add: the module's order with the row index in the role
/// of `k`. Four output rows × one tile of columns stay in registers across
/// the whole `i` loop.
///
/// # Panics
///
/// Panics if the slice lengths do not describe such shapes.
pub fn gemm_at_acc(out: &mut [f32], a: &[f32], g: &[f32], n: usize) {
    check_shapes_at(out, a, g, n);
    dispatch(
        #[inline(always)]
        |isa| gemm_at_on(isa, out, a, g, n),
    );
}

/// Accumulates `g · wᵀ` into `out` — the input gradient of the product
/// `x · w` given the output gradient `g`: `out` is `M × K`, `g` is `M × n`,
/// `w` is `K × n`, all row-major.
///
/// For every element the additions are `out[i][k] += g[i][j] * w[k][j]` for
/// `j` ascending, skipping the `j` whose `g[i][j]` is zero. Each call packs
/// `wᵀ` panel by panel into a stack buffer (`K × n` moves) and then runs
/// the register tiles of [`gemm_acc`] over it, so the packing is amortised
/// over the `M` rows: for a few rows against the same `w` call after call,
/// transpose `w` once and use [`gemm_acc`].
///
/// # Panics
///
/// Panics if the slice lengths do not describe such shapes.
pub fn gemm_bt_acc(out: &mut [f32], g: &[f32], w: &[f32], n: usize) {
    check_shapes_bt(out, g, w, n);
    dispatch(
        #[inline(always)]
        |isa| gemm_bt_on(isa, out, g, w, n),
    );
}

/// Accumulates `xᵀ · g` into `out` for sparse `x` — the weight gradient of
/// [`gather_acc`], and its transpose: for every row of `x` in ascending
/// order, `value ×` row `row` of `g` into row `column` of `out` for each
/// entry. The same additions [`gemm_at_acc`] performs on the dense form of
/// `x`. `out` is `x.width() × n`, `g` is `x.rows() × n`.
///
/// # Panics
///
/// Panics if the slice lengths do not match those shapes.
pub fn scatter_acc(out: &mut [f32], x: &SparseRows, g: &[f32], n: usize) {
    assert_eq!(out.len(), x.width() * n, "scatter_acc: out shape");
    assert_eq!(g.len(), x.rows() * n, "scatter_acc: g shape");
    if n == 0 {
        return;
    }
    dispatch(
        #[inline(always)]
        |_| scatter_body(out, x, g, n),
    );
}

/// Adds the column sums of the row-major `g` (rows of `out.len()`) into
/// `out`, rows ascending — the gradient of a bias added to every row.
///
/// # Panics
///
/// Panics if `g` is not whole rows of that width.
pub fn column_sums_acc(out: &mut [f32], g: &[f32]) {
    let n = out.len().max(1);
    assert!(
        g.len().is_multiple_of(n),
        "column_sums_acc: g ({}) must be whole rows of width {n}",
        g.len()
    );
    for row in g.chunks_exact(n) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

fn check_shapes_at(out: &[f32], a: &[f32], g: &[f32], n: usize) {
    if n == 0 {
        assert!(
            out.is_empty() && g.is_empty(),
            "gemm_at_acc: zero-width output with non-empty buffers"
        );
        return;
    }
    assert!(
        out.len().is_multiple_of(n) && g.len().is_multiple_of(n),
        "gemm_at_acc: out ({}) and g ({}) must be whole rows of width {n}",
        out.len(),
        g.len()
    );
    assert_eq!(
        a.len(),
        (g.len() / n) * (out.len() / n),
        "gemm_at_acc: a must be {} x {}",
        g.len() / n,
        out.len() / n
    );
}

fn check_shapes_bt(out: &[f32], g: &[f32], w: &[f32], n: usize) {
    if n == 0 {
        assert!(
            g.is_empty() && w.is_empty(),
            "gemm_bt_acc: zero-width operands with non-empty buffers"
        );
        return;
    }
    assert!(
        g.len().is_multiple_of(n) && w.len().is_multiple_of(n),
        "gemm_bt_acc: g ({}) and w ({}) must be whole rows of width {n}",
        g.len(),
        w.len()
    );
    assert_eq!(
        out.len(),
        (g.len() / n) * (w.len() / n),
        "gemm_bt_acc: out must be {} x {}",
        g.len() / n,
        w.len() / n
    );
}

/// The `aᵀ · g` body with the tile width of `isa`'s register file.
#[inline(always)]
fn gemm_at_on(isa: Isa, out: &mut [f32], a: &[f32], g: &[f32], n: usize) {
    match isa {
        Isa::Portable | Isa::Avx2 => gemm_at_body::<16>(out, a, g, n),
        Isa::Avx512 => gemm_at_body::<64>(out, a, g, n),
    }
}

/// `c_r += x_r * b` for the four rows of a register tile, in one pass when
/// every `x_r` is non-zero.
#[inline(always)]
fn tile_step<const TILE: usize>(c: &mut [[f32; TILE]; ROWS], x: [f32; ROWS], b: &[f32; TILE]) {
    if x.iter().all(|&x| x != 0.0) {
        for t in 0..TILE {
            c[0][t] += x[0] * b[t];
            c[1][t] += x[1] * b[t];
            c[2][t] += x[2] * b[t];
            c[3][t] += x[3] * b[t];
        }
    } else {
        for (c, &x) in c.iter_mut().zip(&x) {
            if x != 0.0 {
                axpy(c, x, b);
            }
        }
    }
}

#[inline(always)]
fn gemm_at_body<const TILE: usize>(out: &mut [f32], a: &[f32], g: &[f32], n: usize) {
    if out.is_empty() || g.is_empty() {
        return;
    }
    let k = out.len() / n;
    let blocked = k / ROWS * ROWS;
    let tiled_cols = n - n % TILE;
    let (out_tiled, out_rest) = out.split_at_mut(blocked * n);
    for j in (0..tiled_cols).step_by(TILE) {
        for (block, o) in out_tiled.chunks_exact_mut(ROWS * n).enumerate() {
            let first = block * ROWS;
            let mut c = [[0.0f32; TILE]; ROWS];
            for (r, c) in c.iter_mut().enumerate() {
                c.copy_from_slice(&o[r * n + j..r * n + j + TILE]);
            }
            for (a_row, g_row) in a.chunks_exact(k).zip(g.chunks_exact(n)) {
                let x = [
                    a_row[first],
                    a_row[first + 1],
                    a_row[first + 2],
                    a_row[first + 3],
                ];
                let b: &[f32; TILE] = g_row[j..j + TILE]
                    .try_into()
                    .expect("slice is one tile wide");
                tile_step(&mut c, x, b);
            }
            for (r, c) in c.iter().enumerate() {
                o[r * n + j..r * n + j + TILE].copy_from_slice(c);
            }
        }
    }
    if tiled_cols < n {
        at_rows(out_tiled, a, g, k, n, 0, tiled_cols);
    }
    at_rows(out_rest, a, g, k, n, blocked, 0);
}

/// Row-at-a-time `aᵀ · g` into columns `from_col..n` of the rows of `out`,
/// which are output rows `first_row..`.
#[inline(always)]
fn at_rows(
    out: &mut [f32],
    a: &[f32],
    g: &[f32],
    k: usize,
    n: usize,
    first_row: usize,
    from_col: usize,
) {
    for (r, o) in out.chunks_exact_mut(n).enumerate() {
        for (a_row, g_row) in a.chunks_exact(k).zip(g.chunks_exact(n)) {
            let x = a_row[first_row + r];
            if x != 0.0 {
                axpy(&mut o[from_col..], x, &g_row[from_col..]);
            }
        }
    }
}

/// The `g · wᵀ` body with the tile width of `isa`'s register file.
#[inline(always)]
fn gemm_bt_on(isa: Isa, out: &mut [f32], g: &[f32], w: &[f32], n: usize) {
    match isa {
        Isa::Portable | Isa::Avx2 => gemm_bt_body::<16>(out, g, w, n),
        Isa::Avx512 => gemm_bt_body::<64>(out, g, w, n),
    }
}

/// Values of `j` one packed panel of `wᵀ` covers.
const PANEL: usize = 32;

#[inline(always)]
fn gemm_bt_body<const TILE: usize>(out: &mut [f32], g: &[f32], w: &[f32], n: usize) {
    if out.is_empty() || w.is_empty() {
        return;
    }
    let k = w.len() / n;
    // `panel[jj][t]` is `w[k0 + t][j0 + jj]`. Lanes past a narrow last
    // tile hold stale values; their sums are never stored.
    let mut panel = [[0.0f32; TILE]; PANEL];
    for k0 in (0..k).step_by(TILE) {
        let width = TILE.min(k - k0);
        for j0 in (0..n).step_by(PANEL) {
            let depth = PANEL.min(n - j0);
            for (t, w_row) in w[k0 * n..].chunks_exact(n).take(width).enumerate() {
                for (p, &v) in panel.iter_mut().zip(&w_row[j0..j0 + depth]) {
                    p[t] = v;
                }
            }
            let panel = &panel[..depth];
            let mut out_blocks = out.chunks_exact_mut(ROWS * k);
            let mut g_blocks = g.chunks_exact(ROWS * n);
            for (o, g_block) in (&mut out_blocks).zip(&mut g_blocks) {
                let mut c = [[0.0f32; TILE]; ROWS];
                for (r, c) in c.iter_mut().enumerate() {
                    c[..width].copy_from_slice(&o[r * k + k0..r * k + k0 + width]);
                }
                for (jj, b) in panel.iter().enumerate() {
                    let x = [
                        g_block[j0 + jj],
                        g_block[n + j0 + jj],
                        g_block[2 * n + j0 + jj],
                        g_block[3 * n + j0 + jj],
                    ];
                    tile_step(&mut c, x, b);
                }
                for (r, c) in c.iter().enumerate() {
                    o[r * k + k0..r * k + k0 + width].copy_from_slice(&c[..width]);
                }
            }
            let g_tail = g_blocks.remainder().chunks_exact(n);
            for (o, g_row) in out_blocks.into_remainder().chunks_exact_mut(k).zip(g_tail) {
                let mut c = [0.0f32; TILE];
                c[..width].copy_from_slice(&o[k0..k0 + width]);
                for (b, &x) in panel.iter().zip(&g_row[j0..j0 + depth]) {
                    if x != 0.0 {
                        axpy(&mut c, x, b);
                    }
                }
                o[k0..k0 + width].copy_from_slice(&c[..width]);
            }
        }
    }
}

#[inline(always)]
fn scatter_body(out: &mut [f32], x: &SparseRows, g: &[f32], n: usize) {
    for (row, g_row) in g.chunks_exact(n).enumerate() {
        for (col, value) in x.row(row) {
            axpy(&mut out[col * n..(col + 1) * n], value, g_row);
        }
    }
}

#[cfg(test)]
impl Isa {
    /// The instantiations a test checks: every one this CPU can run. Prints
    /// which it checks and which it skips (run with `--nocapture`), so a
    /// green run on a host without AVX-512 is not read as AVX-512 coverage.
    pub(crate) fn under_test(test: &str) -> Vec<Isa> {
        let (checked, skipped): (Vec<Isa>, Vec<Isa>) =
            Isa::ALL.into_iter().partition(|isa| isa.is_available());
        println!("{test}: checked {checked:?}; skipped, not on this CPU: {skipped:?}");
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Each output element on its own: ascending `k`, zero `a` skipped.
    fn naive(out: &mut [f32], a: &[f32], w: &[f32], n: usize) {
        let k = w.len() / n;
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            for (j, o) in o_row.iter_mut().enumerate() {
                for kk in 0..k {
                    let x = a[i * k + kk];
                    if x != 0.0 {
                        *o += x * w[kk * n + j];
                    }
                }
            }
        }
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    /// How the rows of a test `a` are filled.
    #[derive(Debug, Clone, Copy)]
    enum Fill {
        Dense,
        /// About half the entries zero (a ReLU output).
        HalfZero,
        /// A few ones per row.
        OneHot,
        /// Dense rows interleaved with all-zero rows (cold-start states).
        ZeroRows,
    }

    fn fill_a(rng: &mut StdRng, m: usize, k: usize, fill: Fill) -> Vec<f32> {
        let mut a = vec![0.0f32; m * k];
        for (i, row) in a.chunks_exact_mut(k.max(1)).enumerate() {
            match fill {
                Fill::Dense => row.iter_mut().for_each(|x| *x = rng.gen_range(-1.0..1.0)),
                Fill::HalfZero => row.iter_mut().for_each(|x| {
                    *x = rng.gen_range(-1.0f32..1.0).max(0.0);
                }),
                Fill::OneHot => {
                    for _ in 0..3 {
                        row[rng.gen_range(0..k)] = 1.0;
                    }
                }
                Fill::ZeroRows => {
                    if i % 3 != 1 {
                        row.iter_mut().for_each(|x| *x = rng.gen_range(-1.0..1.0));
                    }
                }
            }
        }
        a
    }

    #[test]
    fn both_instantiations_match_the_naive_reference_bit_for_bit() {
        let isas = Isa::under_test("gemm_acc_on");
        let mut rng = StdRng::seed_from_u64(13);
        for &m in &[1usize, 3, 4, 5, 63, 64] {
            for &n in &[1usize, 7, 16, 64, 80, 128, 384] {
                for &k in &[1usize, 5, 98, 128] {
                    for fill in [Fill::Dense, Fill::HalfZero, Fill::OneHot, Fill::ZeroRows] {
                        let a = fill_a(&mut rng, m, k, fill);
                        let w: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        // A non-zero starting `out`: the kernels accumulate.
                        let start: Vec<f32> =
                            (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        let mut want = start.clone();
                        naive(&mut want, &a, &w, n);
                        let what = format!("{m}x{k}x{n} {fill:?}");
                        for &isa in &isas {
                            let mut got = start.clone();
                            gemm_acc_on(isa, &mut got, &a, &w, n);
                            assert_bits_eq(&got, &want, &format!("{isa:?} {what}"));
                        }
                        let mut got = start.clone();
                        gemm_acc(&mut got, &a, &w, n);
                        assert_bits_eq(&got, &want, &format!("dispatched {what}"));
                    }
                }
            }
        }
    }

    #[test]
    fn gather_matches_the_dense_product_bit_for_bit() {
        let isas = Isa::under_test("gather");
        let mut rng = StdRng::seed_from_u64(29);
        for &(m, k, n) in &[
            (1usize, 99usize, 128usize),
            (8, 98, 128),
            (64, 50, 7),
            (5, 9, 1),
        ] {
            for fill in [Fill::OneHot, Fill::HalfZero] {
                let a = fill_a(&mut rng, m, k, fill);
                let w: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut x = SparseRows::new();
                x.clear(k);
                for row in a.chunks_exact(k) {
                    x.push_dense_row(row);
                }
                let mut want = vec![0.0f32; m * n];
                naive(&mut want, &a, &w, n);
                let what = format!("{m}x{k}x{n} {fill:?}");
                for &isa in &isas {
                    let mut got = vec![0.0f32; m * n];
                    dispatch_to(
                        isa,
                        #[inline(always)]
                        |_| gather_body(&mut got, &x, &w, n),
                    );
                    assert_bits_eq(&got, &want, &format!("{isa:?} gather {what}"));
                }
                let mut got = vec![0.0f32; m * n];
                gather_acc(&mut got, &x, &w, n);
                assert_bits_eq(&got, &want, &format!("dispatched gather {what}"));
            }
        }
    }

    /// `out[k][j] += a[i][k] * g[i][j]`, each element on its own, `i`
    /// ascending, zero `a` skipped.
    fn naive_at(out: &mut [f32], a: &[f32], g: &[f32], n: usize) {
        let (k, m) = (out.len() / n, g.len() / n);
        for (kk, o_row) in out.chunks_exact_mut(n).enumerate() {
            for (j, o) in o_row.iter_mut().enumerate() {
                for i in 0..m {
                    let x = a[i * k + kk];
                    if x != 0.0 {
                        *o += x * g[i * n + j];
                    }
                }
            }
        }
    }

    /// `out[i][k] += g[i][j] * w[k][j]`, each element on its own, `j`
    /// ascending, zero `g` skipped.
    fn naive_bt(out: &mut [f32], g: &[f32], w: &[f32], n: usize) {
        let k = w.len() / n;
        for (i, o_row) in out.chunks_exact_mut(k).enumerate() {
            for (kk, o) in o_row.iter_mut().enumerate() {
                for j in 0..n {
                    let x = g[i * n + j];
                    if x != 0.0 {
                        *o += x * w[kk * n + j];
                    }
                }
            }
        }
    }

    fn uniform(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn transposed_products_match_the_naive_reference_bit_for_bit() {
        let isas = Isa::under_test("gemm_at / gemm_bt");
        let mut rng = StdRng::seed_from_u64(31);
        for &m in &[1usize, 3, 4, 5, 64] {
            for &k in &[1usize, 5, 16, 64, 98] {
                for &n in &[1usize, 7, 16, 33, 64, 80] {
                    for fill in [Fill::Dense, Fill::HalfZero, Fill::ZeroRows] {
                        let what = format!("{m}x{k}x{n} {fill:?}");
                        // aᵀ · g: a is m × k, g is m × n, out is k × n.
                        let a = fill_a(&mut rng, m, k, fill);
                        let g = uniform(&mut rng, m * n);
                        let start = uniform(&mut rng, k * n);
                        let mut want = start.clone();
                        naive_at(&mut want, &a, &g, n);
                        for &isa in &isas {
                            let mut got = start.clone();
                            dispatch_to(
                                isa,
                                #[inline(always)]
                                |isa| gemm_at_on(isa, &mut got, &a, &g, n),
                            );
                            assert_bits_eq(&got, &want, &format!("{isa:?} at {what}"));
                        }
                        let mut got = start.clone();
                        gemm_at_acc(&mut got, &a, &g, n);
                        assert_bits_eq(&got, &want, &format!("dispatched at {what}"));

                        // g · wᵀ: g is m × n, w is k × n, out is m × k.
                        let g = fill_a(&mut rng, m, n, fill);
                        let w = uniform(&mut rng, k * n);
                        let start = uniform(&mut rng, m * k);
                        let mut want = start.clone();
                        naive_bt(&mut want, &g, &w, n);
                        for &isa in &isas {
                            let mut got = start.clone();
                            dispatch_to(
                                isa,
                                #[inline(always)]
                                |isa| gemm_bt_on(isa, &mut got, &g, &w, n),
                            );
                            assert_bits_eq(&got, &want, &format!("{isa:?} bt {what}"));
                        }
                        let mut got = start.clone();
                        gemm_bt_acc(&mut got, &g, &w, n);
                        assert_bits_eq(&got, &want, &format!("dispatched bt {what}"));
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_matches_the_dense_transposed_product_bit_for_bit() {
        let isas = Isa::under_test("scatter");
        let mut rng = StdRng::seed_from_u64(37);
        for &(m, k, n) in &[
            (1usize, 99usize, 64usize),
            (8, 98, 16),
            (64, 50, 7),
            (5, 9, 1),
        ] {
            for fill in [Fill::OneHot, Fill::HalfZero] {
                let a = fill_a(&mut rng, m, k, fill);
                let g = uniform(&mut rng, m * n);
                let mut x = SparseRows::new();
                x.clear(k);
                for row in a.chunks_exact(k) {
                    x.push_dense_row(row);
                }
                let start = uniform(&mut rng, k * n);
                let mut want = start.clone();
                naive_at(&mut want, &a, &g, n);
                let what = format!("{m}x{k}x{n} {fill:?}");
                for &isa in &isas {
                    let mut got = start.clone();
                    dispatch_to(
                        isa,
                        #[inline(always)]
                        |_| scatter_body(&mut got, &x, &g, n),
                    );
                    assert_bits_eq(&got, &want, &format!("{isa:?} scatter {what}"));
                }
                let mut got = start.clone();
                scatter_acc(&mut got, &x, &g, n);
                assert_bits_eq(&got, &want, &format!("dispatched scatter {what}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "gemm_bt_acc: out must be")]
    fn mismatched_transposed_shapes_panic() {
        gemm_bt_acc(&mut [0.0; 3], &[0.0; 4], &[0.0; 4], 2);
    }

    #[test]
    fn dispatch_picks_the_widest_available_instantiation() {
        let mut picked = None;
        dispatch(
            #[inline(always)]
            |isa| picked = Some(isa),
        );
        assert_eq!(picked, Isa::available().last());
        assert_eq!(Isa::available().next(), Some(Isa::Portable));
    }

    #[test]
    fn an_instantiation_the_cpu_lacks_panics() {
        for isa in Isa::ALL.into_iter().filter(|isa| !isa.is_available()) {
            let run = std::panic::catch_unwind(|| {
                gemm_acc_on(isa, &mut [0.0; 2], &[1.0], &[1.0, 2.0], 2);
            });
            assert!(run.is_err(), "{isa:?} ran on a CPU without it");
        }
    }

    #[test]
    fn empty_shapes_are_no_ops() {
        let mut out = [1.0f32, 2.0];
        gemm_acc(&mut out, &[], &[], 2); // K = 0
        assert_eq!(out, [1.0, 2.0]);
        gemm_acc(&mut [], &[], &[3.0, 4.0], 2); // M = 0
        gemm_acc(&mut [], &[], &[], 0); // N = 0
    }

    #[test]
    #[should_panic(expected = "gemm_acc: a must be")]
    fn mismatched_shapes_panic() {
        gemm_acc(&mut [0.0; 4], &[0.0; 3], &[0.0; 4], 2);
    }

    #[test]
    #[should_panic(expected = "columns must ascend")]
    fn sparse_rows_reject_descending_columns() {
        let mut x = SparseRows::new();
        x.clear(4);
        x.push(2, 1.0);
        x.push(1, 1.0);
    }

    /// Non-x86_64 targets compile the portable instantiation only; this
    /// checks the dispatcher there still computes products.
    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn portable_only_targets_dispatch_to_the_portable_body() {
        let mut out = [0.0f32; 2];
        gemm_acc(&mut out, &[1.0, 2.0], &[3.0, 4.0, 5.0, 6.0], 2);
        assert_eq!(out, [13.0, 16.0]);
    }
}

//! A minimal dense 2-D tensor (row-major `f32` matrix).
//!
//! The tensor type is deliberately small: the models in the paper (a GRU cell
//! plus a one-hidden-layer MLP) only require dense matrix/vector algebra on
//! modest dimensions (feature vectors of a few hundred entries, hidden states
//! of 16–256 entries). Everything is `f32`, row-major, and allocated with
//! plain `Vec<f32>`.
//!
//! Shapes are `(rows, cols)`. A "row vector" is a `1 × n` tensor; batches are
//! represented by stacking examples as rows.
use std::fmt;

/// Error produced by tensor operations with incompatible shapes or invalid
/// arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    message: String,
}

impl ShapeError {
    /// Creates a shape error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

/// A dense, row-major `f32` matrix.
///
/// # Examples
///
/// ```
/// use pp_nn::tensor::Tensor;
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a `1 × n` row-vector tensor from a slice.
    pub fn from_row(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates an `n × 1` column-vector tensor from a slice.
    pub fn from_col(values: &[f32]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a tensor from nested row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: at least one row required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "from_rows: row {i} has length {} (expected {cols})",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Returns row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks(self.cols.max(1))
    }

    /// Matrix multiplication `self · other`, through the workspace's one
    /// kernel ([`crate::kernel::gemm_acc`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions differ ({}x{} · {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        crate::kernel::gemm_acc(&mut out.data, &self.data, &other.data, other.cols);
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b, "add")
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b, "sub")
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b, "mul")
    }

    /// Adds a `1 × cols` row vector to every row of the tensor.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.rows, 1, "add_row_broadcast: bias must have one row");
        assert_eq!(
            bias.cols, self.cols,
            "add_row_broadcast: bias width {} != {}",
            bias.cols, self.cols
        );
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Adds `other * factor` into `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, factor: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_inplace shape");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * factor;
        }
    }

    /// Fills the tensor with zeros in place.
    pub fn fill_zero(&mut self) {
        for x in &mut self.data {
            *x = 0.0;
        }
    }

    /// Concatenates two tensors along columns (they must have the same number
    /// of rows).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "concat_cols: row counts differ ({} vs {})",
            self.rows, other.rows
        );
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Tensor {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Stacks two tensors along rows (they must have the same number of
    /// columns).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn concat_rows(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "concat_rows: column counts differ ({} vs {})",
            self.cols, other.cols
        );
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Tensor {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Extracts a contiguous column range `[start, end)` as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > cols`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let cols = end - start;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[start..end]);
        }
        Tensor {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Sum along rows, producing a `1 × cols` tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Squared L2 norm of all elements.
    pub fn squared_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Maximum absolute element (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32, op: &str) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shapes differ ({:?} vs {:?})",
            self.shape(),
            other.shape()
        );
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4}", self.at(r, c))?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(3, 2);
        assert!(o.as_slice().iter().all(|&x| x == 1.0));
        let f = Tensor::full(1, 4, 2.5);
        assert!(f.as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shapes() {
        let a = Tensor::zeros(2, 5);
        let b = Tensor::zeros(5, 3);
        assert_eq!(a.matmul(&b).shape(), (2, 3));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_incompatible_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.at(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_row(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_row(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b), Tensor::from_row(&[5.0, 7.0, 9.0]));
        assert_eq!(b.sub(&a), Tensor::from_row(&[3.0, 3.0, 3.0]));
        assert_eq!(a.mul(&b), Tensor::from_row(&[4.0, 10.0, 18.0]));
        assert_eq!(a.scale(2.0), Tensor::from_row(&[2.0, 4.0, 6.0]));
    }

    #[test]
    fn broadcast_bias() {
        let a = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let b = Tensor::from_row(&[10.0, 20.0]);
        let c = a.add_row_broadcast(&b);
        assert_eq!(c, Tensor::from_rows(&[&[11.0, 21.0], &[12.0, 22.0]]));
    }

    #[test]
    fn concat_and_slice() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0], &[6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 3), b);

        let d = a.concat_rows(&a);
        assert_eq!(d.shape(), (4, 2));
        assert_eq!(d.row(3), &[3.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows(), Tensor::from_row(&[4.0, 6.0]));
        assert_eq!(a.squared_norm(), 30.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn axpy_and_fill() {
        let mut a = Tensor::from_row(&[1.0, 2.0]);
        let b = Tensor::from_row(&[10.0, 10.0]);
        a.add_scaled_inplace(&b, 0.5);
        assert_eq!(a, Tensor::from_row(&[6.0, 7.0]));
        a.fill_zero();
        assert_eq!(a, Tensor::zeros(1, 2));
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Tensor::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    fn display_does_not_panic() {
        let a = Tensor::zeros(10, 10);
        let s = format!("{a}");
        assert!(s.contains("Tensor 10x10"));
    }
}

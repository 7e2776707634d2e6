//! Row-major dense `f32` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32` values.
///
/// Rows are contiguous, so `self.data[r * cols .. (r + 1) * cols]` is row
/// `r`. This layout makes per-row parallelism (rayon over `chunks_mut`)
/// and per-sample mini-batch access cache friendly.
///
/// ```
/// use hm_tensor::{ops, Matrix};
///
/// let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0,
///                                     4.0, 5.0, 6.0]);
/// let w = Matrix::eye(3);
/// let y = ops::matmul(&x, &w);
/// assert_eq!(y.row(1), &[4.0, 5.0, 6.0]);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a matrix from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Create a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrowed [`MatrixView`](crate::MatrixView) of this matrix.
    #[inline]
    pub fn view(&self) -> crate::MatrixView<'_> {
        crate::MatrixView::new(self.rows, self.cols, &self.data)
    }

    /// Reshape to `rows × cols`, reusing the existing allocation when the
    /// capacity suffices. Element values after the call are unspecified
    /// (old contents are retained where the buffers overlap); callers that
    /// accumulate must [`fill`](Self::fill) with zero first.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// New matrix containing the selected rows, in the given order.
    /// Duplicate indices are allowed (useful for bootstrap mini-batches).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Gather the selected rows into `out`, resizing it (capacity reused)
    /// to `indices.len() × self.cols`. Allocation-free once `out` has
    /// enough capacity.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// New matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Max absolute difference against another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f32, f32::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for c in 0..cols {
                write!(f, "{:+.4} ", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 3, vec![1.0]);
    }

    #[test]
    fn from_fn_indices() {
        let m = Matrix::from_fn(2, 2, |r, c| (10 * r + c) as f32);
        assert_eq!(m[(0, 1)], 1.0);
        assert_eq!(m[(1, 0)], 10.0);
    }

    #[test]
    fn eye_is_identity() {
        let m = Matrix::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn row_views() {
        let mut m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        m.row_mut(1)[0] = 9.0;
        assert_eq!(m[(1, 0)], 9.0);
        let rows: Vec<_> = m.rows_iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[4.0, 5.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 7 + c * 3) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn select_rows_with_duplicates() {
        let m = Matrix::from_fn(4, 2, |r, _| r as f32);
        let s = m.select_rows(&[3, 0, 3]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
        assert_eq!(s.row(2), &[3.0, 3.0]);
    }

    #[test]
    fn map_and_fill() {
        let mut m = Matrix::full(2, 2, 2.0);
        let sq = m.map(|x| x * x);
        assert!(sq.as_slice().iter().all(|&x| x == 4.0));
        m.map_inplace(|x| x + 1.0);
        assert!(m.as_slice().iter().all(|&x| x == 3.0));
        m.fill(0.5);
        assert!(m.as_slice().iter().all(|&x| x == 0.5));
    }

    #[test]
    fn max_abs_diff_detects_largest() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![1.0, 2.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}

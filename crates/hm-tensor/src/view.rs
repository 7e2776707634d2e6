//! Borrowed, read-only matrix view over an external row-major buffer.
//!
//! [`MatrixView`] lets kernels consume weights straight out of a flat
//! parameter vector (`&params[offset..offset + len]`) without copying them
//! into an owned [`Matrix`] first — the key ingredient of the
//! zero-allocation training hot path.

use crate::Matrix;

/// A borrowed `rows × cols` row-major view of an `f32` slice.
///
/// Copyable and cheap: two `usize`s and a slice reference. Shares the
/// row-contiguity contract of [`Matrix`], so every kernel that streams rows
/// works identically on either.
#[derive(Clone, Copy, Debug)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatrixView<'a> {
    /// Wrap `data` as a `rows × cols` row-major matrix.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[inline]
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
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

    /// True when the view has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        debug_assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &'a [f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }
}

impl<'a> From<&'a Matrix> for MatrixView<'a> {
    #[inline]
    fn from(m: &'a Matrix) -> Self {
        m.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_rows_match_matrix() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let v = m.view();
        assert_eq!(v.shape(), (3, 4));
        for r in 0..3 {
            assert_eq!(v.row(r), m.row(r));
        }
        assert_eq!(v.at(2, 3), m[(2, 3)]);
    }

    #[test]
    fn view_over_flat_slice() {
        let flat = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let v = MatrixView::new(2, 3, &flat[1..7]);
        assert_eq!(v.row(0), &[2.0, 3.0, 4.0]);
        assert_eq!(v.row(1), &[5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn bad_len_panics() {
        let flat = vec![0.0; 5];
        let _ = MatrixView::new(2, 3, &flat);
    }
}

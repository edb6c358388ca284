//! A row-major `f64` matrix with the kernels the forecasting models need.
//!
//! Shapes follow the batch-major convention: activations are
//! `(batch, features)`.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable flat data (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data (row-major).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// A view of one row.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order for cache-friendly access of rhs rows.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds a bias row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics when `bias.len() != cols`.
    pub fn add_bias(&self, bias: &[f64]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (c, b) in bias.iter().enumerate() {
                out.data[r * out.cols + c] += b;
            }
        }
        out
    }

    /// Applies `f` element-wise.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let data = self.data.iter().copied().map(f).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Column-wise sum, producing a length-`cols` vector. Used for bias
    /// gradients.
    pub fn column_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (c, o) in out.iter_mut().enumerate() {
                *o += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Panics
    ///
    /// Panics when the row counts differ.
    pub fn hcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "hcat row mismatch");
        let cols = self.cols + rhs.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(rhs.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Splits horizontally after `left_cols` columns into two matrices.
    ///
    /// # Panics
    ///
    /// Panics when `left_cols > cols`.
    pub fn hsplit(&self, left_cols: usize) -> (Matrix, Matrix) {
        assert!(left_cols <= self.cols, "split point beyond width");
        let right_cols = self.cols - left_cols;
        let mut left = Matrix::zeros(self.rows, left_cols);
        let mut right = Matrix::zeros(self.rows, right_cols);
        for r in 0..self.rows {
            let row = self.row(r);
            left.data[r * left_cols..(r + 1) * left_cols].copy_from_slice(&row[..left_cols]);
            right.data[r * right_cols..(r + 1) * right_cols].copy_from_slice(&row[left_cols..]);
        }
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut i3 = Matrix::zeros(3, 3);
        for k in 0..3 {
            i3.set(k, k, 1.0);
        }
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn add_sub_bias() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = a.add(&a).sub(&a);
        assert_eq!(b, a);
        let c = a.add_bias(&[10.0, 20.0]);
        assert_eq!(c.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn column_sums_and_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.column_sums(), vec![4.0, 6.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn hcat_hsplit_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let joined = a.hcat(&b);
        assert_eq!(joined.cols(), 3);
        let (l, r) = joined.hsplit(2);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }
}

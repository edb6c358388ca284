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

    /// Matrix product `self * rhs`, bit for bit the naive loop's (see the
    /// crate's bit contract).
    ///
    /// # Panics
    ///
    /// Panics when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm_add(
            &self.data,
            (self.cols, 1),
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        out
    }

    /// Adds the product `lhsᵀ * rhs` to `self`, reading `lhs` down its
    /// columns instead of building its transpose. Each element of the
    /// product is summed on its own, as [`Matrix::matmul`] sums it, and
    /// then added to `self`'s element.
    ///
    /// # Panics
    ///
    /// Panics when `lhs.rows != rhs.rows` or `self` is not
    /// `lhs.cols × rhs.cols`.
    pub(crate) fn add_t_matmul(&mut self, lhs: &Matrix, rhs: &Matrix) {
        assert_eq!(lhs.rows, rhs.rows, "matmul shape mismatch");
        assert_eq!(
            (self.rows, self.cols),
            (lhs.cols, rhs.cols),
            "product shape mismatch"
        );
        gemm_add(
            &lhs.data,
            (1, lhs.cols),
            lhs.rows,
            &rhs.data,
            rhs.cols,
            &mut self.data,
        );
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

/// `out += A * B` for a row-major `out` of width `n`: the one product
/// kernel behind [`Matrix::matmul`] and [`Matrix::add_t_matmul`].
///
/// `A(i, k)` is `a[i * steps.0 + k * steps.1]` for `k < inner`, so `A`
/// is read either along its rows or down the columns of its transpose;
/// `B` is row-major, `inner × n`.
///
/// Each product element is the naive loop's sum, operation for
/// operation: it starts from `0.0` and adds `A(i, k) * B(k, j)` for `k`
/// ascending, skipping exactly the terms whose `A(i, k) == 0.0` (so
/// `-0.0` is skipped and NaN kept), with no fused multiply-add. Only
/// then is it added to `out`'s element; on a zeroed `out` that addition
/// returns the sum unchanged, since a sum started from `0.0` is never
/// `-0.0`.
///
/// Per output row the non-zero coefficients are compacted once; then
/// blocks of 16, then 4, then single columns each keep their sums in
/// registers across the whole `k` sweep, so the output row is loaded
/// and stored once per block rather than once per `k`.
fn gemm_add(a: &[f64], steps: (usize, usize), inner: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if n == 0 {
        return;
    }
    // `(offset of row k in b, A(i, k))`; `len` counts the non-zero terms
    // written so far, and a zero term is overwritten by the next one.
    let mut terms = vec![(0, 0.0); inner];
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        let coefficients = a.iter().skip(i * steps.0).step_by(steps.1).take(inner);
        let mut len = 0;
        for (k, &v) in coefficients.enumerate() {
            terms[len] = (k * n, v);
            len += usize::from(v != 0.0);
        }
        let terms = &terms[..len];
        let j = add_blocks::<16>(terms, b, 0, out_row);
        let j = add_blocks::<4>(terms, b, j, out_row);
        add_blocks::<1>(terms, b, j, out_row);
    }
}

/// Adds the product over `terms` to `out_row`'s `W`-wide column blocks
/// from column `j` on while whole blocks fit; returns the first column
/// left over.
fn add_blocks<const W: usize>(
    terms: &[(usize, f64)],
    b: &[f64],
    mut j: usize,
    out_row: &mut [f64],
) -> usize {
    for block in out_row[j..].chunks_exact_mut(W) {
        let mut acc = [0.0; W];
        for &(row, a) in terms {
            for (s, &v) in acc.iter_mut().zip(&b[row + j..row + j + W]) {
                *s += a * v;
            }
        }
        for (o, s) in block.iter_mut().zip(acc) {
            *o += s;
        }
        j += W;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The ikj loop `gemm_add` replaced: the reference it must match bit
    /// for bit.
    fn matmul_reference(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(lhs.rows, rhs.cols);
        for i in 0..lhs.rows {
            for k in 0..lhs.cols {
                let a = lhs.data[i * lhs.cols + k];
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

    /// Each element's bits, with every NaN read as one canonical NaN:
    /// Rust leaves the sign and payload of a NaN that arithmetic returns
    /// unspecified, so neither loop can promise them.
    fn bits(m: &Matrix) -> Vec<u64> {
        m.data
            .iter()
            .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
            .collect()
    }

    /// `(lhs, rhs)` with `lhs.cols == rhs.rows` and every extent 1–70,
    /// so that the 16-wide, 4-wide and single-column paths all run.
    /// About half the entries are exact zeros; `-0.0`, NaN and the
    /// infinities are among the rest.
    struct Operands;

    impl Strategy for Operands {
        type Value = (Matrix, Matrix);

        fn generate(&self, rng: &mut rand::rngs::StdRng) -> (Matrix, Matrix) {
            use rand::Rng;
            let (rows, inner, cols) = (
                rng.gen_range(1..=70),
                rng.gen_range(1..=70),
                rng.gen_range(1..=70),
            );
            let mut matrix = |rows: usize, cols: usize| {
                let data = (0..rows * cols)
                    .map(|_| match rng.gen_range(0..20) {
                        0..=9 => 0.0,
                        10 | 11 => -0.0,
                        12 => f64::NAN,
                        13 => f64::INFINITY,
                        14 => f64::NEG_INFINITY,
                        _ => rng.gen_range(-1e3..1e3),
                    })
                    .collect();
                Matrix::from_vec(rows, cols, data)
            };
            let lhs = matrix(rows, inner);
            (lhs, matrix(inner, cols))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matmul_keeps_the_naive_loops_bits(operands in Operands) {
            let (lhs, rhs) = operands;
            prop_assert_eq!(bits(&lhs.matmul(&rhs)), bits(&matmul_reference(&lhs, &rhs)));
        }

        #[test]
        fn transposed_product_keeps_the_naive_loops_bits(operands in Operands, start in -1e3f64..1e3) {
            // With `x = lhsᵀ`, `xᵀ * rhs` is `lhs * rhs`, summed from
            // `0.0` and then added to a zeroed or a filled matrix.
            let (lhs, rhs) = operands;
            let x = lhs.transpose();
            let reference = matmul_reference(&lhs, &rhs);
            let mut fresh = Matrix::zeros(x.cols, rhs.cols);
            fresh.add_t_matmul(&x, &rhs);
            prop_assert_eq!(bits(&fresh), bits(&reference));
            let base = Matrix::from_vec(x.cols, rhs.cols, vec![start; x.cols * rhs.cols]);
            let mut acc = base.clone();
            acc.add_t_matmul(&x, &rhs);
            prop_assert_eq!(bits(&acc), bits(&base.add(&reference)));
        }
    }

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
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = a.add(&a).sub(&a);
        assert_eq!(b, a);
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

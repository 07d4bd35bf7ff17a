#![allow(clippy::needless_range_loop)] // index loops mirror the math in numeric kernels
//! Sparse matrices: COO builder and CSR storage with sparse kernels.

use crate::dense::Dense;
use crate::MatrixError;

/// Coordinate-format builder for sparse matrices.
///
/// Accumulate `(row, col, value)` triplets in any order (duplicates are summed),
/// then convert to [`Csr`] with [`Coo::to_csr`].
#[derive(Debug, Clone, Default)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Coo {
    /// Create an empty builder with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo { rows, cols, entries: Vec::new() }
    }

    /// Append one triplet. Zero values are skipped.
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] for coordinates outside the shape.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), MatrixError> {
        if row >= self.rows || col >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
        Ok(())
    }

    /// Number of accumulated (possibly duplicate) triplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no triplets have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Convert to CSR, sorting triplets and summing duplicates.
    pub fn to_csr(mut self) -> Csr {
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        indptr.push(0usize);
        let mut cur_row = 0usize;
        for (r, c, v) in self.entries {
            while cur_row < r {
                indptr.push(indices.len());
                cur_row += 1;
            }
            if let (Some(&last_c), true) = (indices.last(), indptr.last() != Some(&indices.len())) {
                if last_c == c {
                    // Duplicate coordinate within the same row: accumulate.
                    let last_v: &mut f64 =
                        values.last_mut().expect("values non-empty when indices non-empty");
                    *last_v += v;
                    if *last_v == 0.0 {
                        // Exact cancellation: drop the entry to keep nnz exact.
                        indices.pop();
                        values.pop();
                    }
                    continue;
                }
            }
            indices.push(c);
            values.push(v);
        }
        while cur_row < self.rows {
            indptr.push(indices.len());
            cur_row += 1;
        }
        Csr { rows: self.rows, cols: self.cols, indptr, indices, values }
    }
}

/// Compressed sparse row matrix.
///
/// `indptr` has `rows + 1` entries; row `r` occupies `indices[indptr[r]..indptr[r+1]]`
/// (column indices, strictly increasing within a row) and the parallel slice of
/// `values`. Explicit zeros (`0.0` or `-0.0`) are never stored, so a dense
/// round trip (`Csr::from_dense(&m.to_dense())`) gives back the same arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// An empty (all-zero) sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Csr { rows, cols, indptr: vec![0; rows + 1], indices: Vec::new(), values: Vec::new() }
    }

    /// Build from raw CSR arrays, validating the invariants: a stored
    /// `0.0` or `-0.0` is [`MatrixError::StoredZero`].
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, MatrixError> {
        if indptr.len() != rows + 1 || indices.len() != values.len() {
            return Err(MatrixError::ShapeMismatch { expected: rows + 1, actual: indptr.len() });
        }
        if *indptr.last().unwrap_or(&0) != indices.len() || indptr[0] != 0 {
            return Err(MatrixError::ShapeMismatch {
                expected: indices.len(),
                actual: *indptr.last().unwrap_or(&0),
            });
        }
        for r in 0..rows {
            if indptr[r] > indptr[r + 1] {
                return Err(MatrixError::ShapeMismatch {
                    expected: indptr[r],
                    actual: indptr[r + 1],
                });
            }
            let row_idx = &indices[indptr[r]..indptr[r + 1]];
            for w in row_idx.windows(2) {
                if w[0] >= w[1] {
                    return Err(MatrixError::IndexOutOfBounds { row: r, col: w[1], rows, cols });
                }
            }
            if let Some(&last) = row_idx.last() {
                if last >= cols {
                    return Err(MatrixError::IndexOutOfBounds { row: r, col: last, rows, cols });
                }
            }
            if let Some(i) = values[indptr[r]..indptr[r + 1]].iter().position(|&v| v == 0.0) {
                return Err(MatrixError::StoredZero { row: r, col: row_idx[i] });
            }
        }
        Ok(Csr { rows, cols, indptr, indices, values })
    }

    /// Convert a dense matrix to CSR, dropping zeros. Counts the non-zeros
    /// first, so the arrays are allocated once at their final size.
    pub fn from_dense(d: &Dense) -> Self {
        let nnz = d.nnz();
        let mut indptr = Vec::with_capacity(d.rows() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for r in 0..d.rows() {
            for (c, &v) in d.row(r).iter().enumerate() {
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr { rows: d.rows(), cols: d.cols(), indptr, indices, values }
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

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of non-zero cells, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Element access via binary search within the row.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let (idx, vals) = self.row(r);
        match idx.binary_search(&c) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Materialize as a dense matrix.
    pub fn to_dense(&self) -> Dense {
        let mut out = Dense::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            let dst = out.row_mut(r);
            for (&c, &v) in idx.iter().zip(vals) {
                dst[c] = v;
            }
        }
        out
    }

    /// Transpose via the classic two-pass counting algorithm (O(nnz)).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut next = counts;
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                let pos = next[c];
                indices[pos] = r;
                values[pos] = v;
                next[c] += 1;
            }
        }
        Csr { rows: self.cols, cols: self.rows, indptr, indices, values }
    }

    /// The matrix with `f` applied to every stored value, on the same
    /// pattern. `f` must map no non-zero to zero (as `sqrt` and `abs` do),
    /// or the result would store a zero.
    pub fn map_stored(&self, f: impl Fn(f64) -> f64) -> Csr {
        let values: Vec<f64> = self.values.iter().map(|&v| f(v)).collect();
        debug_assert!(values.iter().all(|&v| v != 0.0), "map_stored mapped a non-zero to zero");
        let (indptr, indices) = (self.indptr.clone(), self.indices.clone());
        Csr { rows: self.rows, cols: self.cols, indptr, indices, values }
    }

    /// Iterate over all stored `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (idx, vals) = self.row(r);
            idx.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }
}

/// The one `NaN` a sparse product returns. Which of two `NaN`s an addition
/// keeps is the compiler's operand order, not the program's, so two kernels
/// running the same chain (`spmv`, and column `j` of `spmm_dense`) could
/// disagree on a `NaN`'s sign or payload but on nothing else.
fn one_nan(v: f64) -> f64 {
    if v.is_nan() {
        f64::from_bits(0x7ff8_0000_0000_0000)
    } else {
        v
    }
}

/// Sparse matrix-vector product `m * v`: `spmm_dense`'s one-column case,
/// bit for bit (a `NaN` result is always the same `NaN`).
///
/// # Panics
/// Panics if `v.len() != m.cols()`.
pub fn spmv(m: &Csr, v: &[f64]) -> Vec<f64> {
    assert_eq!(
        v.len(),
        m.cols(),
        "spmv dimension mismatch: vector {} vs cols {}",
        v.len(),
        m.cols()
    );
    let mut out = vec![0.0; m.rows()];
    for r in 0..m.rows() {
        let (idx, vals) = m.row(r);
        let mut acc = 0.0;
        for (&c, &x) in idx.iter().zip(vals) {
            acc += x * v[c];
        }
        out[r] = one_nan(acc);
    }
    out
}

/// Sparse vector-matrix product `v^T * m`.
///
/// # Panics
/// Panics if `v.len() != m.rows()`.
pub fn spvm(v: &[f64], m: &Csr) -> Vec<f64> {
    assert_eq!(
        v.len(),
        m.rows(),
        "spvm dimension mismatch: vector {} vs rows {}",
        v.len(),
        m.rows()
    );
    let mut out = vec![0.0; m.cols()];
    for r in 0..m.rows() {
        let s = v[r];
        if s == 0.0 {
            continue;
        }
        let (idx, vals) = m.row(r);
        for (&c, &x) in idx.iter().zip(vals) {
            out[c] += s * x;
        }
    }
    out
}

/// Sparse-dense matrix multiply `a * b` producing a dense result. Each
/// element is one chain over its row's stored entries in column order, and a
/// `NaN` result is always the same `NaN`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn spmm_dense(a: &Csr, b: &Dense) -> Dense {
    assert_eq!(a.cols(), b.rows(), "spmm dimension mismatch: {} vs {}", a.cols(), b.rows());
    let mut out = Dense::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        let (idx, vals) = a.row(r);
        let dst = out.row_mut(r);
        for (&k, &x) in idx.iter().zip(vals) {
            let brow = b.row(k);
            for (d, &bv) in dst.iter_mut().zip(brow) {
                *d += x * bv;
            }
        }
        for d in dst.iter_mut() {
            *d = one_nan(*d);
        }
    }
    out
}

/// Self-transpose product `m^T * m` ("crossprod") for a sparse matrix, dense result.
pub fn sp_crossprod(m: &Csr) -> Dense {
    let mut out = Dense::zeros(m.cols(), m.cols());
    for r in 0..m.rows() {
        let (idx, vals) = m.row(r);
        for (i, (&ci, &vi)) in idx.iter().zip(vals).enumerate() {
            for (&cj, &vj) in idx[i..].iter().zip(&vals[i..]) {
                let prod = vi * vj;
                out.set(ci, cj, out.get(ci, cj) + prod);
                if ci != cj {
                    out.set(cj, ci, out.get(cj, ci) + prod);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dense {
        Dense::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 0.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]])
    }

    /// `spmv` is `spmm_dense`'s one-column case bit for bit, `NaN`s
    /// included: in every column, `NaN`s of both signs, and infinities of
    /// both signs, meet in one chain.
    #[test]
    fn spmv_is_spmm_dense_one_column_case() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let columns = [
            [nan, -nan, 1.0],
            [-nan, nan, 1.0],
            [inf, -inf, nan],
            [nan, inf, -inf],
            [-inf, inf, -nan],
            [1.0, -nan, nan],
            [-nan, -inf, inf],
            [nan, 2.0, -nan],
            [inf, nan, -nan],
        ];
        let a = Csr::from_dense(&Dense::from_rows(&[&[1.0, 1.0, 1.0], &[2.0, 0.0, -1.0]]));
        let k = columns.len();
        let stacked = spmm_dense(&a, &Dense::from_fn(3, k, |i, j| columns[j][i]));
        for (j, v) in columns.iter().enumerate() {
            let solo: Vec<u64> = spmv(&a, v).iter().map(|x| x.to_bits()).collect();
            let column: Vec<u64> = (0..2).map(|r| stacked.get(r, j).to_bits()).collect();
            assert_eq!(solo, column, "column {j}");
        }
    }

    #[test]
    fn coo_builds_sorted_csr() {
        let mut coo = Coo::new(3, 3);
        coo.push(2, 1, 3.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        assert_eq!(coo.len(), 3);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.get(0, 2), 2.0);
        assert_eq!(csr.get(2, 1), 3.0);
        assert_eq!(csr.get(1, 1), 0.0);
    }

    #[test]
    fn coo_sums_duplicates_and_drops_cancellation() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 5.0).unwrap();
        coo.push(1, 1, -5.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.nnz(), 1, "cancelled entry must not be stored");
    }

    #[test]
    fn coo_rejects_out_of_bounds_and_skips_zero() {
        let mut coo = Coo::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        coo.push(0, 0, 0.0).unwrap();
        assert!(coo.is_empty());
    }

    #[test]
    fn dense_round_trip() {
        let d = sample();
        let s = Csr::from_dense(&d);
        assert_eq!(s.nnz(), 5);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn from_raw_validates() {
        // Valid 2x2 with one entry.
        assert!(Csr::from_raw(2, 2, vec![0, 1, 1], vec![1], vec![5.0]).is_ok());
        // indptr wrong length.
        assert!(Csr::from_raw(2, 2, vec![0, 1], vec![1], vec![5.0]).is_err());
        // column out of bounds.
        assert!(Csr::from_raw(2, 2, vec![0, 1, 1], vec![2], vec![5.0]).is_err());
        // non-increasing columns within a row.
        assert!(Csr::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // decreasing indptr.
        assert!(Csr::from_raw(2, 2, vec![0, 1, 0], vec![1], vec![5.0]).is_err());
        // a stored zero, of either sign.
        for zero in [0.0, -0.0] {
            assert_eq!(
                Csr::from_raw(2, 3, vec![0, 1, 2], vec![0, 2], vec![1.0, zero]),
                Err(MatrixError::StoredZero { row: 1, col: 2 })
            );
        }
    }

    #[test]
    fn transpose_matches_dense() {
        let d = sample();
        let s = Csr::from_dense(&d);
        assert_eq!(s.transpose().to_dense(), d.transpose());
        // Involution.
        assert_eq!(s.transpose().transpose(), s);
    }

    #[test]
    fn spmv_matches_dense_gemv() {
        let d = sample();
        let s = Csr::from_dense(&d);
        let v = [1.0, -1.0, 2.0];
        let expect = crate::ops::gemv(&d, &v);
        assert_eq!(spmv(&s, &v), expect);
    }

    #[test]
    fn spvm_matches_dense_gevm() {
        let d = sample();
        let s = Csr::from_dense(&d);
        let v = [1.0, 2.0, -1.0, 0.5];
        let expect = crate::ops::gevm(&v, &d);
        let got = spvm(&v, &s);
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let d = sample();
        let s = Csr::from_dense(&d);
        let b = Dense::from_fn(3, 2, |r, c| (r + c) as f64);
        let expect = crate::ops::gemm(&d, &b);
        assert!(spmm_dense(&s, &b).approx_eq(&expect, 1e-12));
    }

    #[test]
    fn crossprod_matches_dense() {
        let d = sample();
        let s = Csr::from_dense(&d);
        let expect = crate::ops::crossprod(&d);
        assert!(sp_crossprod(&s).approx_eq(&expect, 1e-12));
    }

    #[test]
    fn iter_yields_all_triplets() {
        let s = Csr::from_dense(&sample());
        let trips: Vec<_> = s.iter().collect();
        assert_eq!(trips.len(), 5);
        assert_eq!(trips[0], (0, 0, 1.0));
        assert_eq!(trips[4], (3, 2, 5.0));
    }

    #[test]
    fn empty_matrix() {
        let s = Csr::zeros(3, 4);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.sparsity(), 0.0);
        assert_eq!(spmv(&s, &[0.0; 4]), vec![0.0; 3]);
    }
}

//! Dense linear-algebra kernels: products, elementwise ops, and aggregations.
//!
//! All kernels operate on [`Dense`] matrices and plain `&[f64]` vectors and
//! panic on shape mismatch (documented per function).

use crate::dense::Dense;

/// Matrix-vector product `m * v`, as the degree-1 instance of
/// [`crate::par::gemv`]: each element is one fused multiply-add chain over
/// its row in increasing column order, the chain of [`gemm`] against a
/// one-column matrix (not [`dot`]'s four-lane fold).
///
/// # Panics
/// Panics if `v.len() != m.cols()`.
pub fn gemv(m: &Dense, v: &[f64]) -> Vec<f64> {
    crate::par::gemv(m, v, 1)
}

/// Vector-matrix product `v^T * m` (result length `m.cols()`).
///
/// # Panics
/// Panics if `v.len() != m.rows()`.
pub fn gevm(v: &[f64], m: &Dense) -> Vec<f64> {
    crate::par::gevm(v, m, 1)
}

/// Matrix-matrix product `a * b` via the packed register-tiled kernel
/// ([`crate::pack`]) shared with the row-partitioned parallel kernel
/// ([`crate::par::gemm`]); the serial product is the degree-1 instance of
/// the same computation.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn gemm(a: &Dense, b: &Dense) -> Dense {
    crate::par::gemm(a, b, 1)
}

/// Self-transpose product `m^T * m` exploiting symmetry (SystemML `t(X)%*%X`
/// fused op). Executes the fixed-block reduction of [`crate::par::crossprod`]
/// at degree 1, so parallel runs reproduce these exact bits.
pub fn crossprod(m: &Dense) -> Dense {
    crate::par::crossprod(m, 1)
}

/// Transpose-matrix-vector `m^T * v` without materializing the transpose
/// (SystemML fused `t(X)%*%v`).
///
/// # Panics
/// Panics if `v.len() != m.rows()`.
pub fn tmv(m: &Dense, v: &[f64]) -> Vec<f64> {
    gevm(v, m)
}

/// Dot product.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch: {} vs {}", a.len(), b.len());
    // 4-way unrolled accumulation: lets LLVM vectorize and reduces dependency chains.
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let k = i * 4;
        acc[0] += a[k] * b[k];
        acc[1] += a[k + 1] * b[k + 1];
        acc[2] += a[k + 2] * b[k + 2];
        acc[3] += a[k + 3] * b[k + 3];
    }
    let mut tail = 0.0;
    for k in chunks * 4..a.len() {
        tail += a[k] * b[k];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Elementwise binary operation helper.
///
/// # Panics
/// Panics on shape mismatch.
fn zip_with(a: &Dense, b: &Dense, f: impl Fn(f64, f64) -> f64) -> Dense {
    assert_eq!(
        a.shape(),
        b.shape(),
        "elementwise shape mismatch: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    let data = a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y)).collect();
    Dense::from_vec(a.rows(), a.cols(), data).expect("shape preserved by zip")
}

/// Elementwise addition.
pub fn add(a: &Dense, b: &Dense) -> Dense {
    zip_with(a, b, |x, y| x + y)
}

/// Elementwise subtraction.
pub fn sub(a: &Dense, b: &Dense) -> Dense {
    zip_with(a, b, |x, y| x - y)
}

/// Elementwise (Hadamard) multiplication.
pub fn mul(a: &Dense, b: &Dense) -> Dense {
    zip_with(a, b, |x, y| x * y)
}

/// Elementwise division.
pub fn div(a: &Dense, b: &Dense) -> Dense {
    zip_with(a, b, |x, y| x / y)
}

/// Multiply every element by a scalar.
pub fn scale(a: &Dense, s: f64) -> Dense {
    a.map(|v| v * s)
}

/// Add a scalar to every element.
pub fn shift(a: &Dense, s: f64) -> Dense {
    a.map(|v| v + s)
}

/// Sum of all elements.
pub fn sum(a: &Dense) -> f64 {
    a.data().iter().sum()
}

/// Sum of squares of all elements (SystemML fused `sum(X^2)`), as the
/// degree-1 instance of the fixed-block reduction in [`crate::par::sum_sq`].
pub fn sum_sq(a: &Dense) -> f64 {
    crate::par::sum_sq(a, 1)
}

/// Column sums (length `cols`), as the degree-1 instance of the fixed-block
/// reduction in [`crate::par::col_sums`].
pub fn col_sums(a: &Dense) -> Vec<f64> {
    crate::par::col_sums(a, 1)
}

/// Row sums (length `rows`).
pub fn row_sums(a: &Dense) -> Vec<f64> {
    a.iter_rows().map(|r| r.iter().sum()).collect()
}

/// Column means; zero-row matrices yield zeros.
pub fn col_means(a: &Dense) -> Vec<f64> {
    let n = a.rows();
    let mut s = col_sums(a);
    if n > 0 {
        for v in &mut s {
            *v /= n as f64;
        }
    }
    s
}

/// Column variances (population, divide by n); zero-row matrices yield zeros.
pub fn col_vars(a: &Dense) -> Vec<f64> {
    let n = a.rows();
    if n == 0 {
        return vec![0.0; a.cols()];
    }
    let means = col_means(a);
    let mut out = vec![0.0; a.cols()];
    for r in 0..n {
        for ((o, &v), &m) in out.iter_mut().zip(a.row(r)).zip(&means) {
            let d = v - m;
            *o += d * d;
        }
    }
    for v in &mut out {
        *v /= n as f64;
    }
    out
}

/// Minimum element; `NaN` for empty matrices.
pub fn min(a: &Dense) -> f64 {
    a.data().iter().copied().fold(f64::NAN, f64::min)
}

/// Maximum element; `NaN` for empty matrices.
pub fn max(a: &Dense) -> f64 {
    a.data().iter().copied().fold(f64::NAN, f64::max)
}

/// Vector axpy: `y += alpha * x`.
///
/// # Panics
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch: {} vs {}", x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm of a vector.
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Dense {
        Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])
    }

    #[test]
    fn gemv_basic() {
        assert_eq!(gemv(&a(), &[1.0, -1.0]), vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "gemv dimension mismatch")]
    fn gemv_shape_panics() {
        gemv(&a(), &[1.0]);
    }

    #[test]
    fn gevm_basic() {
        assert_eq!(gevm(&[1.0, 0.0, 1.0], &a()), vec![6.0, 8.0]);
    }

    #[test]
    fn gemm_matches_manual() {
        let b = Dense::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0]]);
        let c = gemm(&a(), &b);
        assert_eq!(c.shape(), (3, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 4.0]);
        assert_eq!(c.row(2), &[5.0, 6.0, 16.0]);
    }

    #[test]
    fn gemm_identity() {
        let m = a();
        let i = Dense::identity(2);
        assert_eq!(gemm(&m, &i), m);
    }

    #[test]
    fn crossprod_matches_explicit() {
        let m = a();
        let explicit = gemm(&m.transpose(), &m);
        assert!(crossprod(&m).approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn tmv_matches_explicit() {
        let m = a();
        let v = [1.0, 2.0, 3.0];
        let explicit = gemv(&m.transpose(), &v);
        let fused = tmv(&m, &v);
        for (x, y) in fused.iter().zip(&explicit) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn elementwise_ops() {
        let m = Dense::from_rows(&[&[1.0, 2.0]]);
        let n = Dense::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(add(&m, &n).row(0), &[4.0, 6.0]);
        assert_eq!(sub(&m, &n).row(0), &[-2.0, -2.0]);
        assert_eq!(mul(&m, &n).row(0), &[3.0, 8.0]);
        assert_eq!(div(&n, &m).row(0), &[3.0, 2.0]);
        assert_eq!(scale(&m, 2.0).row(0), &[2.0, 4.0]);
        assert_eq!(shift(&m, 1.0).row(0), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "elementwise shape mismatch")]
    fn elementwise_shape_panics() {
        add(&Dense::zeros(1, 2), &Dense::zeros(2, 1));
    }

    #[test]
    fn aggregations() {
        let m = a();
        assert_eq!(sum(&m), 21.0);
        assert_eq!(sum_sq(&m), 91.0);
        assert_eq!(col_sums(&m), vec![9.0, 12.0]);
        assert_eq!(row_sums(&m), vec![3.0, 7.0, 11.0]);
        assert_eq!(col_means(&m), vec![3.0, 4.0]);
        let vars = col_vars(&m);
        assert!((vars[0] - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(min(&m), 1.0);
        assert_eq!(max(&m), 6.0);
    }

    #[test]
    fn aggregations_on_empty() {
        let e = Dense::zeros(0, 3);
        assert_eq!(sum(&e), 0.0);
        assert_eq!(col_means(&e), vec![0.0, 0.0, 0.0]);
        assert_eq!(col_vars(&e), vec![0.0, 0.0, 0.0]);
        assert!(min(&e).is_nan());
    }

    #[test]
    fn dot_unrolled_matches_naive() {
        let x: Vec<f64> = (0..103).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..103).map(|i| (103 - i) as f64).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-9);
    }

    #[test]
    fn axpy_and_norm() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 21.0]);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }
}

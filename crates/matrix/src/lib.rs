//! # dm-matrix
//!
//! Dense and sparse matrix substrate for the `dmml` workspace.
//!
//! This crate provides the numeric foundation that every other component of the
//! system builds on: row-major dense matrices ([`Dense`]), compressed sparse row
//! matrices ([`Csr`]) with a COO builder ([`Coo`]), a unifying [`Matrix`] enum used
//! by the physical-operator layer of `dm-lang`, the dense operators' kernel bodies
//! ([`kernel`]) that the serial ([`ops`]) and parallel ([`par`]) schedules share with
//! `dm-buffer`'s out-of-core one, direct/iterative solvers (Cholesky,
//! Householder QR, conjugate gradient), and the little-endian reader and
//! dense-block layout ([`le`]) that spill pages and CLA blobs are written in.
//!
//! ## Conventions
//!
//! * All element types are `f64`.
//! * Dense storage is row-major; `row(i)` returns a contiguous slice.
//! * Shape mismatches in algebra kernels are programming errors and **panic** with
//!   a descriptive message (the convention of mainstream Rust linear-algebra
//!   crates). Fallible *construction* from external data returns [`Result`].
//!
//! ## Quick example
//!
//! ```
//! use dm_matrix::{Dense, ops};
//!
//! let x = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let v = [1.0, 1.0];
//! let y = ops::gemv(&x, &v);
//! assert_eq!(y, vec![3.0, 7.0]);
//! ```

#![warn(missing_docs)]

pub mod dense;
pub mod error;
pub mod kernel;
pub mod le;
pub mod ops;
pub mod pack;
pub mod par;
pub mod solve;
pub mod sparse;

pub use dense::Dense;
pub use error::MatrixError;
pub use sparse::{Coo, Csr};

/// A matrix in either dense or sparse (CSR) physical representation.
///
/// The declarative layer (`dm-lang`) selects the representation per operator
/// based on estimated sparsity; this enum is the value type that flows between
/// physical operators.
#[derive(Debug, Clone, PartialEq)]
pub enum Matrix {
    /// Row-major dense representation.
    Dense(Dense),
    /// Compressed sparse row representation.
    Sparse(Csr),
}

impl Matrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.rows(),
            Matrix::Sparse(s) => s.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.cols(),
            Matrix::Sparse(s) => s.cols(),
        }
    }

    /// Number of stored non-zero entries (dense matrices count actual non-zeros).
    pub fn nnz(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.nnz(),
            Matrix::Sparse(s) => s.nnz(),
        }
    }

    /// Fraction of non-zero cells, in `[0, 1]`. Empty matrices report 0.
    pub fn sparsity(&self) -> f64 {
        let cells = self.rows() * self.cols();
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Element access by (row, col). O(1) for dense, O(log nnz_row) for sparse.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        match self {
            Matrix::Dense(d) => d.get(r, c),
            Matrix::Sparse(s) => s.get(r, c),
        }
    }

    /// Convert to a dense matrix, cloning if already dense.
    pub fn to_dense(&self) -> Dense {
        match self {
            Matrix::Dense(d) => d.clone(),
            Matrix::Sparse(s) => s.to_dense(),
        }
    }

    /// Convert to CSR, cloning if already sparse.
    pub fn to_csr(&self) -> Csr {
        match self {
            Matrix::Dense(d) => Csr::from_dense(d),
            Matrix::Sparse(s) => s.clone(),
        }
    }

    /// True if the physical representation is dense.
    pub fn is_dense(&self) -> bool {
        matches!(self, Matrix::Dense(_))
    }
}

impl From<Dense> for Matrix {
    fn from(d: Dense) -> Self {
        Matrix::Dense(d)
    }
}

impl From<Csr> for Matrix {
    fn from(s: Csr) -> Self {
        Matrix::Sparse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_enum_dispatch() {
        let d = Dense::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let m_dense = Matrix::Dense(d.clone());
        let m_sparse = Matrix::Sparse(Csr::from_dense(&d));
        assert_eq!(m_dense.rows(), 2);
        assert_eq!(m_sparse.cols(), 2);
        assert_eq!(m_dense.nnz(), 2);
        assert_eq!(m_sparse.nnz(), 2);
        assert_eq!(m_dense.get(1, 1), 2.0);
        assert_eq!(m_sparse.get(1, 1), 2.0);
        assert!((m_dense.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn round_trip_conversions() {
        let d = Dense::from_rows(&[&[0.0, 1.5, 0.0], &[2.5, 0.0, -1.0]]);
        let s = Csr::from_dense(&d);
        assert_eq!(s.to_dense(), d);
        let m: Matrix = s.into();
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn sparsity_of_empty() {
        let d = Dense::zeros(0, 0);
        assert_eq!(Matrix::Dense(d).sparsity(), 0.0);
    }
}

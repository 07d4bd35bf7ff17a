//! Error types for fallible matrix construction and numeric routines.

use std::fmt;

/// Errors surfaced by fallible `dm-matrix` operations.
///
/// Algebra kernels panic on shape mismatch (programming errors); this type is
/// reserved for failures that depend on *data*, not code: constructing a matrix
/// from malformed external input, or numeric breakdown inside a solver.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// Flat data length does not match `rows * cols`.
    ShapeMismatch {
        /// Expected number of elements.
        expected: usize,
        /// Actual number of elements supplied.
        actual: usize,
    },
    /// A coordinate entry lies outside the declared shape.
    IndexOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Declared number of rows.
        rows: usize,
        /// Declared number of columns.
        cols: usize,
    },
    /// The matrix is not positive definite (Cholesky pivot `<= 0`).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// The matrix is singular or numerically rank-deficient.
    Singular {
        /// Index of the column where rank deficiency was detected.
        column: usize,
    },
    /// A sparse matrix was given an explicit zero (`0.0` or `-0.0`) to
    /// store; its kernels rely on every stored value being non-zero.
    StoredZero {
        /// Row of the zero entry.
        row: usize,
        /// Column of the zero entry.
        col: usize,
    },
    /// An iterative solver failed to converge within its iteration budget.
    DidNotConverge {
        /// Number of iterations performed.
        iterations: usize,
        /// Residual norm at the final iteration.
        residual: f64,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected} elements, got {actual}")
            }
            MatrixError::IndexOutOfBounds { row, col, rows, cols } => {
                write!(f, "index ({row}, {col}) out of bounds for {rows}x{cols} matrix")
            }
            MatrixError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot} <= 0)")
            }
            MatrixError::Singular { column } => {
                write!(f, "matrix is singular or rank-deficient at column {column}")
            }
            MatrixError::StoredZero { row, col } => {
                write!(f, "sparse entry ({row}, {col}) stores an explicit zero")
            }
            MatrixError::DidNotConverge { iterations, residual } => {
                write!(
                    f,
                    "solver did not converge after {iterations} iterations (residual {residual:e})"
                )
            }
        }
    }
}

impl std::error::Error for MatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = MatrixError::ShapeMismatch { expected: 6, actual: 5 };
        assert!(e.to_string().contains("expected 6"));
        let e = MatrixError::IndexOutOfBounds { row: 3, col: 1, rows: 2, cols: 2 };
        assert!(e.to_string().contains("(3, 1)"));
        let e = MatrixError::NotPositiveDefinite { pivot: 2 };
        assert!(e.to_string().contains("pivot 2"));
        let e = MatrixError::Singular { column: 4 };
        assert!(e.to_string().contains("column 4"));
        let e = MatrixError::StoredZero { row: 1, col: 2 };
        assert!(e.to_string().contains("(1, 2)"));
        let e = MatrixError::DidNotConverge { iterations: 100, residual: 1e-3 };
        assert!(e.to_string().contains("100 iterations"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(MatrixError::Singular { column: 0 });
        assert!(e.to_string().contains("singular"));
    }
}

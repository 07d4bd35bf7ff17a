//! # dm-ml
//!
//! ML algorithms on the `dm-matrix` substrate — the algorithm layer that the
//! tutorial's surveyed systems (in-database analytics libraries, declarative
//! ML compilers, lifecycle tools) all train and serve.
//!
//! The crate is organized around a **matrix-free GLM core** ([`glm`]): the
//! gradient-descent and conjugate-gradient trainers accept closures for
//! `X·w` and `Xᵀ·r`, so the same optimizer runs over dense matrices,
//! compressed matrices (`dm-compress`), and factorized joins
//! (`dm-factorized`) — that pluggability *is* the data-management story.
//!
//! Algorithms:
//! * [`linreg::LinearRegression`] — normal equations / CG / gradient descent, ridge.
//! * [`logreg::LogisticRegression`] — batch gradient descent with L2.
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding.
//! * [`naive_bayes`] — Gaussian and Multinomial NB.
//!
//! ```
//! use dm_matrix::Dense;
//! use dm_ml::linreg::{LinearRegression, Solver};
//!
//! let x = Dense::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
//! let y = [2.0, 4.0, 6.0, 8.0];
//! let model = LinearRegression::fit(&x, &y, Solver::NormalEquations, 0.0).unwrap();
//! assert!((model.predict_row(&[5.0]) - 10.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod glm;
pub mod kmeans;
pub mod linreg;
pub mod logreg;
pub mod naive_bayes;

/// Errors surfaced by model fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Features/labels disagree in length, or a shape is otherwise invalid.
    Shape(String),
    /// The training data is degenerate for this model (e.g. one class,
    /// singular Gram matrix).
    Degenerate(String),
    /// An optimizer failed to converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final gradient/residual norm.
        residual: f64,
    },
    /// Invalid hyperparameter.
    BadParam(String),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::Shape(m) => write!(f, "shape error: {m}"),
            MlError::Degenerate(m) => write!(f, "degenerate training data: {m}"),
            MlError::NoConvergence { iterations, residual } => {
                write!(f, "did not converge after {iterations} iterations (residual {residual:e})")
            }
            MlError::BadParam(m) => write!(f, "bad hyperparameter: {m}"),
        }
    }
}

impl std::error::Error for MlError {}

impl From<dm_matrix::MatrixError> for MlError {
    fn from(e: dm_matrix::MatrixError) -> Self {
        match e {
            dm_matrix::MatrixError::DidNotConverge { iterations, residual } => {
                MlError::NoConvergence { iterations, residual }
            }
            other => MlError::Degenerate(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(MlError::Shape("x".into()).to_string().contains("shape"));
        assert!(MlError::NoConvergence { iterations: 5, residual: 0.1 }
            .to_string()
            .contains("5 iterations"));
    }

    #[test]
    fn matrix_error_conversion() {
        let e: MlError =
            dm_matrix::MatrixError::DidNotConverge { iterations: 3, residual: 1.0 }.into();
        assert!(matches!(e, MlError::NoConvergence { iterations: 3, .. }));
        let e: MlError = dm_matrix::MatrixError::Singular { column: 0 }.into();
        assert!(matches!(e, MlError::Degenerate(_)));
    }
}

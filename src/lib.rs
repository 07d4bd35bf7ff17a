//! # dmml — Data Management in Machine Learning
//!
//! An umbrella crate re-exporting the whole workspace: a working
//! reproduction of the system landscape surveyed by the SIGMOD 2017 tutorial
//! *"Data Management in Machine Learning: Challenges, Techniques, and
//! Systems"*.
//!
//! The workspace is organized around the tutorial's three pillars:
//!
//! 1. **Declarative ML / linear-algebra systems** — [`lang`] (expression DAG,
//!    rewrites, physical planning), [`compress`] (compressed linear algebra),
//!    [`buffer`] (block buffer pool), on top of the [`matrix`] substrate.
//! 2. **ML inside data systems** — [`factorized`] (learning over joins,
//!    normalized linear algebra, join avoidance) over the [`rel`] relational
//!    engine.
//! 3. **ML lifecycle systems** — [`pipeline`] (feature engineering, metrics,
//!    splits), [`modelsel`] (search strategies, batched feature-subset
//!    exploration, model registry), with algorithms from [`ml`].
//!
//! [`data`] provides the deterministic synthetic generators used by every
//! experiment; [`par`] is the scoped worker pool behind every parallel
//! kernel (degree via `DMML_THREADS`, bit-identical to serial at any
//! degree); [`obs`] is the stats/profiling layer; [`serve`] is the
//! multi-tenant scoring server (plan cache, memory admission,
//! micro-batching) that turns the single-shot pipeline into a long-lived
//! service — see `docs/OPERATIONS.md` for running it.
//!
//! ## Quickstart
//!
//! ```
//! use dmml::prelude::*;
//!
//! let d = dmml::data::labeled::regression(500, 4, 0.01, 7);
//! let model = LinearRegression::fit(&d.x, &d.y, Solver::NormalEquations, 0.0).unwrap();
//! assert!(model.r2(&d.x, &d.y) > 0.99);
//! ```

#![warn(missing_docs)]

pub use dm_buffer as buffer;
pub use dm_compress as compress;
pub use dm_data as data;
pub use dm_factorized as factorized;
pub use dm_lang as lang;
pub use dm_matrix as matrix;
pub use dm_ml as ml;
pub use dm_modelsel as modelsel;
pub use dm_obs as obs;
pub use dm_par as par;
pub use dm_pipeline as pipeline;
pub use dm_rel as rel;
pub use dm_serve as serve;

/// The most commonly used types, importable with one `use`.
pub mod prelude {
    pub use dm_buffer::{BufferPool, PageKey};
    pub use dm_compress::{CompressedMatrix, Encoding};
    pub use dm_factorized::{DimTable, NormalizedMatrix};
    pub use dm_lang::{analyze, AnalysisReport, Diagnostic, Env, Executor, Graph, Severity};
    pub use dm_matrix::{Coo, Csr, Dense, Matrix};
    pub use dm_ml::glm::{Family, GdConfig};
    pub use dm_ml::linreg::{LinearRegression, Solver};
    pub use dm_ml::logreg::{LogRegConfig, LogisticRegression};
    pub use dm_modelsel::{ModelRegistry, ParamSpace, Params};
    pub use dm_obs::{LogHistogram, StatsRegistry};
    pub use dm_pipeline::transform::{Pipeline, StandardScaler, Transformer};
    pub use dm_rel::{Table, Value};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_resolve() {
        use crate::prelude::*;
        let d = Dense::identity(2);
        let m: Matrix = d.into();
        assert_eq!(m.nnz(), 2);
        let t = Table::builder("t").int64("a").build();
        assert_eq!(t.num_rows(), 0);
    }
}

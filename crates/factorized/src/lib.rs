//! # dm-factorized
//!
//! ML over normalized relational data without materializing the join — the
//! tutorial's "ML inside data systems" pillar.
//!
//! Three techniques, each a module:
//!
//! * [`schema`] — a **normalized matrix**: the feature matrix of a
//!   star-schema join, stored as a [`dm_compress::CompressedMatrix`]. The
//!   fact-table features are one uncompressed column group; each dimension
//!   table is one DDC group whose codes are the foreign keys and whose
//!   dictionary is the dimension's feature block. Pushing linear algebra
//!   through the join (Morpheus's rewrites) is then CLA's per-tuple
//!   pre-aggregation: `gemv`, `vecmat`, `col_sums` and `crossprod` are
//!   `dm-compress`'s kernels and touch each dimension row once instead of
//!   once per matching fact row. [`NormalizedMatrix::from_query`] builds
//!   one from relational tables: it interprets a key–foreign-key
//!   [`dm_rel::Query`] (scan, inner joins on unique dimension keys,
//!   filters, projection) without materializing the join, and returns the
//!   fact rows it selected for gathering labels.
//! * [`glm`] — **factorized GLM learning**: gradient-descent training of
//!   linear/logistic models whose per-epoch cost is
//!   `O(n·d_S + Σ n_k·d_k)` instead of `O(n·d)` over the materialized join.
//! * [`hamlet`] — **join avoidance**: decision rules for dropping a
//!   key-foreign-key join entirely when the foreign key itself carries the
//!   dimension features' signal.
//!
//! ```
//! use dm_matrix::Dense;
//! use dm_factorized::schema::{DimTable, NormalizedMatrix};
//!
//! // 4 fact rows joining a 2-row dimension table.
//! let s = Dense::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
//! let r = Dense::from_rows(&[&[10.0], &[20.0]]);
//! let nm = NormalizedMatrix::new(s, vec![DimTable::new(r, vec![0, 1, 0, 1]).unwrap()]).unwrap();
//! let w = [1.0, 1.0];
//! assert_eq!(nm.gemv(&w), dm_matrix::ops::gemv(&nm.decompress(), &w));
//! ```

#![warn(missing_docs)]

pub mod glm;
pub mod hamlet;
pub mod schema;

pub use schema::{DimTable, FactorizedError, NormalizedMatrix};

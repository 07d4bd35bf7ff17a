//! # dm-rel
//!
//! A minimal columnar relational engine: the data-system substrate the
//! tutorial's "ML over relational data" pillar assumes.
//!
//! The engine provides typed columnar tables ([`Table`]), schemas
//! ([`Schema`]/[`Field`]), scans with predicates, projections, hash
//! equi-joins, and CSV import/export with type inference. A [`Query`]
//! records scan → filter → join → project as data: [`Query::run`]
//! materializes it, and `dm-factorized`'s `NormalizedMatrix::from_query`
//! turns a key–foreign-key query into a normalized matrix without
//! materializing the join. `dm-pipeline` uses the engine as the raw-data
//! side of feature pipelines.
//!
//! ```
//! use dm_rel::{Table, Value};
//!
//! let mut t = Table::builder("people")
//!     .int64("id")
//!     .string("name")
//!     .float64("score")
//!     .build();
//! t.push_row(vec![Value::Int64(1), Value::from("ada"), Value::Float64(9.5)]).unwrap();
//! t.push_row(vec![Value::Int64(2), Value::from("bob"), Value::Float64(7.0)]).unwrap();
//! let high = t.filter(|row| row.get("score").as_f64().unwrap_or(0.0) > 8.0);
//! assert_eq!(high.num_rows(), 1);
//! ```

#![warn(missing_docs)]

pub mod column;
pub mod csv;
pub mod error;
pub mod join;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod table;
pub mod value;

pub use column::Column;
pub use error::RelError;
pub use join::{hash_join, JoinKind};
pub use predicate::{filter_where, Cmp, Predicate};
pub use query::{Query, Step};
pub use schema::{DataType, Field, Schema};
pub use table::{RowRef, Table, TableBuilder};
pub use value::Value;

//! A logical query: scan → filter → join → project, recorded first and run
//! in order, so the whole plan is inspectable.
//!
//! [`Query::run`] is the materialized interpretation (every join a
//! [`hash_join`]). `dm-factorized` reads the same steps through
//! [`Query::base`] and [`Query::steps`] and interprets a key–foreign-key
//! query as a normalized matrix instead, without materializing the join.

use crate::join::{hash_join, JoinKind};
use crate::predicate::{filter_where, Predicate};
use crate::table::Table;
use crate::RelError;

/// One logical operator in a query plan.
pub enum Step {
    /// Keep the rows matching the predicate.
    Filter(Predicate),
    /// Keep the named columns, in this order.
    Project(Vec<String>),
    /// Equi-join the running table's `left_key` with `right`'s `right_key`.
    Join {
        /// The joined table.
        right: Table,
        /// Column of the running table.
        left_key: String,
        /// Column of `right`.
        right_key: String,
        /// Inner or left join.
        kind: JoinKind,
    },
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Filter(p) => write!(f, "Filter({p:?})"),
            Step::Project(cols) => write!(f, "Project({cols:?})"),
            Step::Join { right, left_key, right_key, kind } => {
                write!(f, "Join({} on {left_key}={right_key}, {kind:?})", right.name())
            }
        }
    }
}

/// A composable query over a base table.
///
/// ```
/// use dm_rel::{JoinKind, Predicate, Query, Table};
/// let mut orders = Table::builder("orders").int64("cust").float64("amount").build();
/// for i in 0..10 {
///     orders.push_row(vec![(i % 3).into(), (i as f64).into()]).unwrap();
/// }
/// let mut cust = Table::builder("cust").int64("id").float64("age").build();
/// for i in 0..3 {
///     cust.push_row(vec![i.into(), (30.0 + i as f64).into()]).unwrap();
/// }
/// let out = Query::scan(orders)
///     .filter(Predicate::gt("amount", 2.0))
///     .join(cust, "cust", "id", JoinKind::Inner)
///     .project(&["amount", "age"])
///     .run()
///     .unwrap();
/// assert_eq!(out.num_rows(), 7);
/// assert_eq!(out.schema().names(), vec!["amount", "age"]);
/// ```
#[derive(Debug)]
pub struct Query {
    base: Table,
    steps: Vec<Step>,
}

impl Query {
    /// Start from a base table.
    pub fn scan(base: Table) -> Query {
        Query { base, steps: Vec::new() }
    }

    /// Keep rows matching the predicate.
    pub fn filter(mut self, pred: Predicate) -> Query {
        self.steps.push(Step::Filter(pred));
        self
    }

    /// Project onto the named columns.
    pub fn project(mut self, cols: &[&str]) -> Query {
        self.steps.push(Step::Project(cols.iter().map(|s| (*s).to_owned()).collect()));
        self
    }

    /// Hash-join with another table.
    pub fn join(mut self, right: Table, left_key: &str, right_key: &str, kind: JoinKind) -> Query {
        self.steps.push(Step::Join {
            right,
            left_key: left_key.to_owned(),
            right_key: right_key.to_owned(),
            kind,
        });
        self
    }

    /// The scanned table.
    pub fn base(&self) -> &Table {
        &self.base
    }

    /// The operators after the scan, in order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Render the plan, one operator per line (for debugging/EXPLAIN-style
    /// output).
    pub fn explain(&self) -> String {
        let mut out = format!("Scan({})", self.base.name());
        for s in &self.steps {
            out.push_str(&format!("\n  -> {s:?}"));
        }
        out
    }

    /// Execute the plan.
    pub fn run(self) -> Result<Table, RelError> {
        let mut cur = self.base;
        for step in self.steps {
            cur = match step {
                Step::Filter(p) => filter_where(&cur, &p)?,
                Step::Project(cols) => {
                    let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                    cur.project(&refs)?
                }
                Step::Join { right, left_key, right_key, kind } => {
                    hash_join(&cur, &right, &left_key, &right_key, kind)?
                }
            };
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn orders() -> Table {
        let mut t = Table::builder("orders").int64("oid").int64("cust").float64("amount").build();
        let rows = [
            (1, 10, 25.0),
            (2, 11, 8.0),
            (3, 10, 12.0),
            (4, 12, 40.0),
            (5, 11, 33.0),
            (6, 10, 5.0),
        ];
        for (o, c, a) in rows {
            t.push_row(vec![o.into(), c.into(), a.into()]).unwrap();
        }
        t
    }

    fn customers() -> Table {
        let mut t = Table::builder("cust").int64("id").string("city").build();
        t.push_row(vec![10.into(), "paris".into()]).unwrap();
        t.push_row(vec![11.into(), "lyon".into()]).unwrap();
        t.push_row(vec![12.into(), "paris".into()]).unwrap();
        t
    }

    #[test]
    fn full_pipeline() {
        let out = Query::scan(orders())
            .filter(Predicate::gt("amount", 10.0))
            .join(customers(), "cust", "id", JoinKind::Inner)
            .filter(Predicate::eq("city", "paris"))
            .project(&["oid", "amount", "city"])
            .run()
            .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.schema().names(), vec!["oid", "amount", "city"]);
        assert_eq!(out.row(0).get("oid"), Value::Int64(1)); // amount 25
        assert_eq!(out.row(1).get("oid"), Value::Int64(3)); // amount 12
        assert_eq!(out.row(2).get("oid"), Value::Int64(4)); // amount 40
    }

    #[test]
    fn explain_renders_plan() {
        let q = Query::scan(orders())
            .filter(Predicate::gt("amount", 10.0))
            .join(customers(), "cust", "id", JoinKind::Inner)
            .project(&["oid"]);
        assert_eq!(q.steps().len(), 3);
        let plan = q.explain();
        assert!(plan.starts_with("Scan(orders)"));
        assert!(plan.contains("Filter"));
        assert!(plan.contains("Join(cust on cust=id, Inner)"));
        assert!(plan.contains("Project([\"oid\"])"));
    }

    #[test]
    fn errors_surface_from_any_step() {
        assert!(Query::scan(orders()).project(&["ghost"]).run().is_err());
        assert!(Query::scan(orders()).filter(Predicate::eq("ghost", 1i64)).run().is_err());
        assert!(Query::scan(orders())
            .join(customers(), "ghost", "id", JoinKind::Inner)
            .run()
            .is_err());
    }

    #[test]
    fn left_join_through_builder() {
        let mut extra = orders();
        extra.push_row(vec![7.into(), 99.into(), 1.0.into()]).unwrap();
        let out = Query::scan(extra).join(customers(), "cust", "id", JoinKind::Left).run().unwrap();
        assert_eq!(out.num_rows(), 7);
        let unmatched = out.iter_rows().filter(|r| r.get("city").is_null()).count();
        assert_eq!(unmatched, 1);
    }
}

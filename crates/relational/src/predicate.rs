//! Declarative predicates over rows: a small expression language that can be
//! inspected, validated against a schema, and evaluated without user closures
//! — the form a query planner can reason about.

use crate::schema::DataType;
use crate::table::Table;
use crate::value::Value;
use crate::RelError;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// A boolean predicate over one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Compare a column against a literal. NULL comparisons are false
    /// (SQL three-valued logic collapsed to false at the top level).
    Compare {
        /// Column name.
        column: String,
        /// Operator.
        op: Cmp,
        /// Literal to compare against.
        value: Value,
    },
    /// Column IS NULL.
    IsNull(String),
    /// Column IS NOT NULL.
    IsNotNull(String),
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column op value` comparison.
    pub fn cmp(column: &str, op: Cmp, value: impl Into<Value>) -> Predicate {
        Predicate::Compare { column: column.to_owned(), op, value: value.into() }
    }

    /// Shorthand for equality.
    pub fn eq(column: &str, value: impl Into<Value>) -> Predicate {
        Predicate::cmp(column, Cmp::Eq, value)
    }

    /// Shorthand for `>`.
    pub fn gt(column: &str, value: impl Into<Value>) -> Predicate {
        Predicate::cmp(column, Cmp::Gt, value)
    }

    /// Shorthand for `<`.
    pub fn lt(column: &str, value: impl Into<Value>) -> Predicate {
        Predicate::cmp(column, Cmp::Lt, value)
    }

    /// Conjunction.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// The columns the predicate reads, in first-mention order, each once.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(p) = stack.pop() {
            match p {
                Predicate::Compare { column: c, .. }
                | Predicate::IsNull(c)
                | Predicate::IsNotNull(c) => {
                    if !out.contains(&c.as_str()) {
                        out.push(c.as_str());
                    }
                }
                Predicate::And(a, b) | Predicate::Or(a, b) => stack.extend([&**b, &**a]),
                Predicate::Not(a) => stack.push(a.as_ref()),
            }
        }
        out
    }

    /// Bind to `table`: check that every column the predicate reads exists
    /// and that each comparison literal suits its column's type, and return
    /// a test of row `r` that reads those columns by index. Comparisons
    /// involving NULL are false (and their negation true: collapsed
    /// three-valued logic).
    pub fn bind<'a>(
        &'a self,
        table: &'a Table,
    ) -> Result<Box<dyn Fn(usize) -> bool + 'a>, RelError> {
        let column = |name: &str| table.schema().require(name).map(|i| table.column(i));
        Ok(match self {
            Predicate::Compare { column: name, op, value } => {
                let i = table.schema().require(name)?;
                let dtype = table.schema().field(i).dtype;
                let compatible = matches!(
                    (dtype, value),
                    (_, Value::Null)
                        | (DataType::Int64, Value::Int64(_))
                        | (DataType::Float64, Value::Float64(_))
                        | (DataType::Float64, Value::Int64(_))
                        | (DataType::Int64, Value::Float64(_))
                        | (DataType::Str, Value::Str(_))
                        | (DataType::Bool, Value::Bool(_))
                );
                if !compatible {
                    return Err(RelError::TypeMismatch {
                        column: name.clone(),
                        expected: dtype,
                        actual: value.type_name(),
                    });
                }
                let col = table.column(i);
                Box::new(move |r| compare(&col.get(r), *op, value))
            }
            Predicate::IsNull(c) => {
                let col = column(c)?;
                Box::new(move |r| col.is_null(r))
            }
            Predicate::IsNotNull(c) => {
                let col = column(c)?;
                Box::new(move |r| !col.is_null(r))
            }
            Predicate::And(a, b) => {
                let (a, b) = (a.bind(table)?, b.bind(table)?);
                Box::new(move |r| a(r) && b(r))
            }
            Predicate::Or(a, b) => {
                let (a, b) = (a.bind(table)?, b.bind(table)?);
                Box::new(move |r| a(r) || b(r))
            }
            Predicate::Not(a) => {
                let a = a.bind(table)?;
                Box::new(move |r| !a(r))
            }
        })
    }
}

fn compare(cell: &Value, op: Cmp, value: &Value) -> bool {
    if cell.is_null() || value.is_null() {
        return false;
    }
    let ord = match (cell, value) {
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
        _ => match (cell.as_f64(), value.as_f64()) {
            (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Less),
            _ => return false,
        },
    };
    match op {
        Cmp::Eq => ord.is_eq(),
        Cmp::Ne => ord.is_ne(),
        Cmp::Lt => ord.is_lt(),
        Cmp::Le => ord.is_le(),
        Cmp::Gt => ord.is_gt(),
        Cmp::Ge => ord.is_ge(),
    }
}

/// Filter a table with a predicate bound to it.
pub fn filter_where(table: &Table, pred: &Predicate) -> Result<Table, RelError> {
    let test = pred.bind(table)?;
    let keep: Vec<usize> = (0..table.num_rows()).filter(|&r| test(r)).collect();
    Ok(table.gather(&keep))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let mut t = Table::builder("p").string("name").float64("score").int64("age").build();
        t.push_row(vec!["ada".into(), 9.5.into(), 36.into()]).unwrap();
        t.push_row(vec!["bob".into(), 7.0.into(), 41.into()]).unwrap();
        t.push_row(vec!["carol".into(), Value::Null, 29.into()]).unwrap();
        t.push_row(vec!["dan".into(), 8.0.into(), 36.into()]).unwrap();
        t
    }

    #[test]
    fn comparisons() {
        let t = people();
        let f = filter_where(&t, &Predicate::gt("score", 7.5)).unwrap();
        assert_eq!(f.num_rows(), 2);
        let f = filter_where(&t, &Predicate::eq("age", 36i64)).unwrap();
        assert_eq!(f.num_rows(), 2);
        let f = filter_where(&t, &Predicate::cmp("name", Cmp::Ge, "c")).unwrap();
        assert_eq!(f.num_rows(), 2); // carol, dan
        let f = filter_where(&t, &Predicate::cmp("age", Cmp::Le, 36i64)).unwrap();
        assert_eq!(f.num_rows(), 3);
    }

    #[test]
    fn null_comparisons_are_false() {
        let t = people();
        // carol's NULL score matches neither the predicate nor its negation's
        // comparison...
        let f = filter_where(&t, &Predicate::gt("score", 0.0)).unwrap();
        assert_eq!(f.num_rows(), 3);
        // ...but NOT(score > 0) is true for her under collapsed logic.
        let f = filter_where(&t, &Predicate::gt("score", 0.0).not()).unwrap();
        assert_eq!(f.num_rows(), 1);
        assert_eq!(f.row(0).get("name"), Value::from("carol"));
    }

    #[test]
    fn is_null_predicates() {
        let t = people();
        let f = filter_where(&t, &Predicate::IsNull("score".into())).unwrap();
        assert_eq!(f.num_rows(), 1);
        let f = filter_where(&t, &Predicate::IsNotNull("score".into())).unwrap();
        assert_eq!(f.num_rows(), 3);
    }

    #[test]
    fn boolean_combinators() {
        let t = people();
        let p = Predicate::gt("score", 7.5).and(Predicate::eq("age", 36i64));
        assert_eq!(filter_where(&t, &p).unwrap().num_rows(), 2); // ada, dan
        let p = Predicate::eq("name", "bob").or(Predicate::eq("name", "carol"));
        assert_eq!(filter_where(&t, &p).unwrap().num_rows(), 2);
        let p = Predicate::gt("age", 100i64).or(Predicate::lt("age", 30i64));
        assert_eq!(filter_where(&t, &p).unwrap().num_rows(), 1);
    }

    #[test]
    fn validation_catches_bad_references() {
        let t = people();
        assert!(matches!(
            filter_where(&t, &Predicate::gt("ghost", 1.0)),
            Err(RelError::UnknownColumn(_))
        ));
        assert!(matches!(
            filter_where(&t, &Predicate::eq("name", 5i64)),
            Err(RelError::TypeMismatch { .. })
        ));
        // Validation recurses into combinators.
        let p = Predicate::gt("score", 0.0).and(Predicate::eq("ghost", 1i64));
        assert!(filter_where(&t, &p).is_err());
    }

    #[test]
    fn columns_lists_each_read_once() {
        let p = Predicate::gt("score", 7.5)
            .and(Predicate::IsNull("age".into()).or(Predicate::eq("score", 1.0).not()));
        assert_eq!(p.columns(), vec!["score", "age"]);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        let t = people();
        // Int literal against float column and vice versa.
        let f = filter_where(&t, &Predicate::cmp("score", Cmp::Ge, 8i64)).unwrap();
        assert_eq!(f.num_rows(), 2);
        let f = filter_where(&t, &Predicate::cmp("age", Cmp::Gt, 36.5)).unwrap();
        assert_eq!(f.num_rows(), 1);
    }

    #[test]
    fn matches_closure_filter() {
        let t = people();
        let via_pred = filter_where(&t, &Predicate::gt("score", 7.5)).unwrap();
        let via_closure = t.filter(|r| r.get("score").as_f64().is_some_and(|s| s > 7.5));
        assert_eq!(via_pred, via_closure);
    }
}

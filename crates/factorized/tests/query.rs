//! A key–foreign-key query interpreted as a normalized matrix agrees with
//! the same query materialized: for random stars of 1–3 dimension tables,
//! random fact and dimension predicates and random projections,
//! `from_query(&q)?.0.decompress()` holds the bits of
//! `q.run()?.to_dense(projected)`, and the returned fact rows select the
//! labels the materialized query keeps.

use dm_factorized::{FactorizedError, NormalizedMatrix};
use dm_rel::{Cmp, JoinKind, Predicate, Query, Table, Value};
use proptest::prelude::*;

/// A splitmix64 stream: one proptest seed drives the whole case.
struct Draw(u64);

impl Draw {
    fn below(&mut self, k: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % k as u64) as usize
    }

    /// A cell from a small grid, so equality predicates hit; NULL one time
    /// in eight when `nulls`.
    fn cell(&mut self, int: bool, nulls: bool) -> Value {
        let v = self.below(9) as i64 - 4;
        match (nulls && self.below(8) == 0, int) {
            (true, _) => Value::Null,
            (false, true) => Value::Int64(v),
            (false, false) => Value::Float64(v as f64 * 0.5),
        }
    }

    /// A predicate over `cols` (name, is-int) up to `depth` connectives deep.
    fn predicate(&mut self, cols: &[(String, bool)], depth: usize) -> Predicate {
        let (name, int) = &cols[self.below(cols.len())];
        match if depth == 0 { self.below(2) } else { self.below(5) } {
            0 => {
                const OPS: [Cmp; 6] = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
                let op = OPS[self.below(6)];
                Predicate::cmp(name, op, self.cell(*int, false))
            }
            1 => Predicate::IsNull(name.clone()),
            2 => self.predicate(cols, depth - 1).not(),
            3 => self.predicate(cols, depth - 1).and(self.predicate(cols, depth - 1)),
            _ => self.predicate(cols, depth - 1).or(self.predicate(cols, depth - 1)),
        }
    }
}

/// A builder declaring `cols` (name, is-int).
fn declare(name: &str, cols: &[(String, bool)]) -> dm_rel::TableBuilder {
    cols.iter()
        .fold(Table::builder(name), |b, (c, int)| if *int { b.int64(c) } else { b.float64(c) })
}

/// The key of dimension row `r`: unique, and not the row index.
fn key(r: usize) -> Value {
    Value::Int64(100 - 3 * r as i64)
}

/// A random star query without its projection, and the columns a
/// projection may pick. Built from `seed` alone, so it can be built twice.
fn star_query(seed: u64) -> (Query, Vec<String>) {
    let mut g = Draw(seed);
    let (n, ds, q) = (2 + g.below(38), g.below(3), 1 + g.below(3));
    let mut fact_cols: Vec<(String, bool)> = (0..ds).map(|j| (format!("s{j}"), false)).collect();
    fact_cols.push(("n0".into(), true));
    let mut dims = Vec::new();
    for k in 0..q {
        let (nk, dk) = (1 + g.below(5), g.below(3));
        let mut cols: Vec<(String, bool)> = (0..dk).map(|j| (format!("d{k}f{j}"), false)).collect();
        cols.push((format!("d{k}i"), true));
        let mut dim = declare(&format!("dim{k}"), &cols).int64(&format!("id{k}")).build();
        for r in 0..nk {
            let mut row: Vec<Value> = cols.iter().map(|(_, int)| g.cell(*int, true)).collect();
            row.push(key(r));
            dim.push_row(row).unwrap();
        }
        dims.push((dim, cols));
    }
    let fact = (0..q).fold(declare("fact", &fact_cols), |b, k| b.int64(&format!("fk{k}")));
    let mut fact = fact.float64("label").build();
    for r in 0..n {
        let mut row: Vec<Value> = fact_cols.iter().map(|(_, int)| g.cell(*int, true)).collect();
        row.extend(dims.iter().map(|(dim, _)| key(g.below(dim.num_rows()))));
        row.push(Value::Float64(r as f64));
        fact.push_row(row).unwrap();
    }

    let mut pickable: Vec<String> = fact.schema().names().iter().map(|s| s.to_string()).collect();
    let mut query = Query::scan(fact);
    if g.below(2) == 0 {
        query = query.filter(g.predicate(&fact_cols, 2));
    }
    for (k, (dim, cols)) in dims.into_iter().enumerate() {
        pickable.extend(cols.iter().map(|c| c.0.clone()));
        query = query.join(dim, &format!("fk{k}"), &format!("id{k}"), JoinKind::Inner);
        if g.below(3) > 0 {
            query = query.filter(g.predicate(&cols, 2));
        }
    }
    if g.below(2) == 0 {
        query = query.filter(g.predicate(&fact_cols, 2));
    }
    // A random subset of the columns in a random order.
    pickable.retain(|_| g.below(3) > 0);
    for i in (1..pickable.len()).rev() {
        pickable.swap(i, g.below(i + 1));
    }
    (query, pickable)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn normalized_query_equals_materialized(seed in 0u64..u64::MAX) {
        let (q, projected) = star_query(seed);
        let projected: Vec<&str> = projected.iter().map(String::as_str).collect();
        let q = q.project(&projected);
        let labels = q.base().column_by_name("label").unwrap().clone();
        let got = NormalizedMatrix::from_query(&q);
        let want = q.run().unwrap().to_dense(&projected).unwrap();
        let (unprojected, _) = star_query(seed);
        let kept = unprojected.run().unwrap();
        let kept = kept.column_by_name("label").unwrap();
        match got {
            Ok((nm, rows)) => {
                let m = nm.decompress();
                prop_assert_eq!(m.shape(), want.shape());
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(m.data()), bits(want.data()), "seed {}", seed);
                let picked: Vec<Value> = rows.iter().map(|&r| labels.get(r)).collect();
                let expect: Vec<Value> = (0..kept.len()).map(|r| kept.get(r)).collect();
                prop_assert_eq!(picked, expect, "seed {}", seed);
            }
            Err(FactorizedError::Empty) => {
                prop_assert!(want.rows() == 0 || want.cols() == 0, "seed {}", seed);
            }
            Err(e) => panic!("seed {seed}: {e}"),
        }
    }
}

//! Property-based tests for the relational engine: joins are checked against
//! brute-force reference implementations.

use dm_rel::{hash_join, JoinKind, Table, Value};
use proptest::prelude::*;

/// Strategy: a small table with int keys and float values.
fn kv_table(name: &'static str, max_rows: usize, key_range: i64) -> impl Strategy<Value = Table> {
    proptest::collection::vec((0..key_range, -100i64..100), 0..max_rows).prop_map(move |rows| {
        let mut t = Table::builder(name).int64("k").float64("v").build();
        for (k, v) in rows {
            t.push_row(vec![Value::Int64(k), Value::Float64(v as f64)]).unwrap();
        }
        t
    })
}

/// Brute-force nested-loop inner join row count.
fn nested_loop_count(l: &Table, r: &Table) -> usize {
    let mut n = 0;
    for i in 0..l.num_rows() {
        let lk = l.row(i).get("k");
        if lk.is_null() {
            continue;
        }
        for j in 0..r.num_rows() {
            if r.row(j).get("k") == lk {
                n += 1;
            }
        }
    }
    n
}

proptest! {
    #[test]
    fn hash_join_matches_nested_loop(l in kv_table("l", 30, 6), r in kv_table("r", 30, 6)) {
        let j = hash_join(&l, &r, "k", "k", JoinKind::Inner).unwrap();
        prop_assert_eq!(j.num_rows(), nested_loop_count(&l, &r));
    }

    #[test]
    fn left_join_row_count_identity(l in kv_table("l", 25, 5), r in kv_table("r", 25, 5)) {
        // Left join rows = inner rows + unmatched left rows.
        let inner = hash_join(&l, &r, "k", "k", JoinKind::Inner).unwrap();
        let left = hash_join(&l, &r, "k", "k", JoinKind::Left).unwrap();
        let matched_left: std::collections::HashSet<i64> = (0..r.num_rows())
            .filter_map(|j| r.row(j).get("k").as_i64())
            .collect();
        let unmatched = (0..l.num_rows())
            .filter(|&i| {
                l.row(i).get("k").as_i64().is_none_or(|k| !matched_left.contains(&k))
            })
            .count();
        prop_assert_eq!(left.num_rows(), inner.num_rows() + unmatched);
        prop_assert!(left.num_rows() >= l.num_rows());
    }

    #[test]
    fn csv_round_trip_preserves_data(t in kv_table("t", 25, 5)) {
        let mut buf = Vec::new();
        dm_rel::csv::write_csv(&t, &mut buf).unwrap();
        let back = dm_rel::csv::read_csv(buf.as_slice(), "t").unwrap();
        prop_assert_eq!(back.num_rows(), t.num_rows());
        for i in 0..t.num_rows() {
            prop_assert_eq!(back.row(i).get("k").as_i64(), t.row(i).get("k").as_i64());
            let a = back.row(i).get("v").as_f64().unwrap();
            let b = t.row(i).get("v").as_f64().unwrap();
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn filter_then_union_partitions(t in kv_table("t", 30, 6)) {
        let pos = t.filter(|r| r.get("v").as_f64().unwrap() >= 0.0);
        let neg = t.filter(|r| r.get("v").as_f64().unwrap() < 0.0);
        prop_assert_eq!(pos.num_rows() + neg.num_rows(), t.num_rows());
        let mut both = pos.clone();
        both.union_all(&neg).unwrap();
        prop_assert_eq!(both.num_rows(), t.num_rows());
    }
}

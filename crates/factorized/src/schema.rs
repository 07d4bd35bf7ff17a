//! The normalized-matrix representation of a star-schema join, stored as
//! compressed column groups.

use dm_compress::codes::CodeArray;
use dm_compress::{ColGroup, CompressedMatrix, Dict};
use dm_matrix::Dense;
use std::fmt;
use std::ops::Deref;

/// Errors in constructing or converting normalized matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorizedError {
    /// A foreign-key value references a nonexistent dimension row.
    DanglingKey {
        /// Index of the dimension table.
        table: usize,
        /// Position of the offending fact row.
        fact_row: usize,
        /// The dangling key value.
        key: usize,
    },
    /// A fact row's key value matches no value of the dimension table's key
    /// column (relational sources, where keys are values, not row indices).
    MissingKey {
        /// Index of the dimension table.
        table: usize,
        /// Position of the offending fact row.
        fact_row: usize,
        /// The key value as the fact table holds it.
        key: i64,
    },
    /// A foreign key past the `u32` codes a dimension group is stored with.
    KeyOverflow {
        /// Index of the dimension table.
        table: usize,
        /// Position of the offending fact row.
        fact_row: usize,
        /// The key value.
        key: usize,
    },
    /// Foreign-key vector length disagrees with the fact-table row count.
    KeyLength {
        /// Index of the dimension table.
        table: usize,
        /// Foreign-key vector length.
        keys: usize,
        /// Fact-table row count.
        fact_rows: usize,
    },
    /// The construction would produce an empty feature matrix.
    Empty,
    /// A relational-source conversion failed (unknown column, bad type, ...).
    Source(String),
}

impl fmt::Display for FactorizedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorizedError::DanglingKey { table, fact_row, key } => {
                write!(
                    f,
                    "fact row {fact_row} references missing row {key} of dimension table {table}"
                )
            }
            FactorizedError::MissingKey { table, fact_row, key } => {
                write!(
                    f,
                    "fact row {fact_row} references key {key}, absent from dimension table {table}"
                )
            }
            FactorizedError::KeyOverflow { table, fact_row, key } => {
                write!(
                    f,
                    "fact row {fact_row} references row {key} of dimension table {table}, past u32 codes"
                )
            }
            FactorizedError::KeyLength { table, keys, fact_rows } => {
                write!(f, "dimension table {table} has {keys} keys for {fact_rows} fact rows")
            }
            FactorizedError::Empty => write!(f, "normalized matrix would have no features"),
            FactorizedError::Source(m) => write!(f, "source conversion failed: {m}"),
        }
    }
}

impl std::error::Error for FactorizedError {}

/// One dimension table: its feature block plus the foreign-key map from fact
/// rows to dimension rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DimTable {
    /// `n_k x d_k` dimension features.
    pub features: Dense,
    /// For each fact row, the referenced dimension row.
    pub fk: Vec<usize>,
}

impl DimTable {
    /// Construct, validating that every key lands inside the table.
    pub fn new(features: Dense, fk: Vec<usize>) -> Result<Self, FactorizedError> {
        for (i, &k) in fk.iter().enumerate() {
            if k >= features.rows() {
                return Err(FactorizedError::DanglingKey { table: 0, fact_row: i, key: k });
            }
        }
        Ok(DimTable { features, fk })
    }
}

/// A feature matrix stored in normalized form:
/// `X = [ S | K_1 R_1 | ... | K_q R_q ]` where `S` is the fact-table feature
/// block and `K_k` is the indicator matrix of foreign key `k`.
///
/// It is a [`CompressedMatrix`], and derefs to one: `S` is one uncompressed
/// group, and each dimension table is one DDC group whose codes are its
/// foreign keys and whose dictionary is its feature block `R_k` (tuples need
/// not be distinct). Pushing an operator through the join is CLA's
/// per-tuple pre-aggregation, so `gemv`, `vecmat`, `col_sums`, `crossprod`
/// and `decompress` (the materialized join) are CLA's kernels. The logical
/// shape is `n x (d_S + Σ d_k)`; the physical footprint is
/// `n·d_S + Σ n_k·d_k + q·n`.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedMatrix(CompressedMatrix);

impl Deref for NormalizedMatrix {
    type Target = CompressedMatrix;

    fn deref(&self) -> &CompressedMatrix {
        &self.0
    }
}

impl NormalizedMatrix {
    /// Construct, validating key lengths, key ranges and non-emptiness. A
    /// dimension table with no feature columns adds no columns and no group.
    pub fn new(s: Dense, tables: Vec<DimTable>) -> Result<Self, FactorizedError> {
        let (n, mut cols) = s.shape();
        let mut groups = Vec::with_capacity(tables.len() + 1);
        if cols > 0 {
            groups.push(ColGroup::Uncompressed { cols: (0..cols).collect(), data: s });
        }
        for (table, DimTable { features, fk }) in tables.into_iter().enumerate() {
            if fk.len() != n {
                return Err(FactorizedError::KeyLength { table, keys: fk.len(), fact_rows: n });
            }
            let (nk, dk) = features.shape();
            let mut codes = Vec::with_capacity(n);
            for (fact_row, &key) in fk.iter().enumerate() {
                if key >= nk {
                    return Err(FactorizedError::DanglingKey { table, fact_row, key });
                }
                let code = u32::try_from(key).map_err(|_| FactorizedError::KeyOverflow {
                    table,
                    fact_row,
                    key,
                })?;
                codes.push(code);
            }
            if dk > 0 {
                let (dict, codes) =
                    (Dict::new(features.into_vec(), dk), CodeArray::pack(&codes, nk));
                groups.push(ColGroup::Ddc { cols: (cols..cols + dk).collect(), dict, codes });
                cols += dk;
            }
        }
        if n == 0 || cols == 0 {
            return Err(FactorizedError::Empty);
        }
        let m =
            CompressedMatrix::from_parts(n, cols, groups).expect("groups partition the columns");
        Ok(NormalizedMatrix(m))
    }

    /// Physical cell count (what normalized storage actually holds).
    pub fn physical_cells(&self) -> usize {
        let cells = |g: &ColGroup| match g {
            ColGroup::Ddc { dict, codes, .. } => dict.values().len() + codes.len(),
            _ => g.num_rows() * g.cols().len(),
        };
        self.groups().iter().map(cells).sum()
    }

    /// Logical cell count of the materialized join.
    pub fn logical_cells(&self) -> usize {
        self.rows() * self.cols()
    }

    /// Redundancy ratio `logical / physical` — the factor factorized
    /// computation avoids.
    pub fn redundancy_ratio(&self) -> f64 {
        self.logical_cells() as f64 / self.physical_cells().max(1) as f64
    }

    /// Column means of the logical matrix: column sums (dimension tuples
    /// weighted by their reference counts) over `n`.
    pub fn col_means(&self) -> Vec<f64> {
        let n = self.rows() as f64;
        self.col_sums().into_iter().map(|s| s / n).collect()
    }

    /// Column variances (population) of the logical matrix, `E[x²] − E[x]²`.
    /// Squaring maps only each dimension group's dictionary, so these are
    /// standardization statistics without materializing the join.
    pub fn col_vars(&self) -> Vec<f64> {
        let n = self.rows() as f64;
        let sq = self.scalar_map(|x| x * x).col_sums();
        sq.into_iter().zip(self.col_means()).map(|(s, m)| (s / n - m * m).max(0.0)).collect()
    }

    /// Build from relational tables: a fact table with numeric feature
    /// columns and one `(dim_table, fk_column, dim_feature_columns)` triple
    /// per dimension. Keys are matched on the dimension's `key_column`
    /// (integer values).
    pub fn from_tables(
        fact: &dm_rel::Table,
        fact_features: &[&str],
        dims: &[(&dm_rel::Table, &str, &str, &[&str])],
    ) -> Result<Self, FactorizedError> {
        let s = fact.to_dense(fact_features).map_err(|e| FactorizedError::Source(e.to_string()))?;
        let mut tables = Vec::with_capacity(dims.len());
        for (t, (dim, fk_col, key_col, feat_cols)) in dims.iter().enumerate() {
            let features =
                dim.to_dense(feat_cols).map_err(|e| FactorizedError::Source(e.to_string()))?;
            // Key -> dimension row index.
            let keycol =
                dim.column_by_name(key_col).map_err(|e| FactorizedError::Source(e.to_string()))?;
            let mut index = std::collections::HashMap::new();
            for r in 0..dim.num_rows() {
                if let Some(k) = keycol.get_i64(r) {
                    index.insert(k, r);
                }
            }
            let fkcol =
                fact.column_by_name(fk_col).map_err(|e| FactorizedError::Source(e.to_string()))?;
            let mut fk = Vec::with_capacity(fact.num_rows());
            for r in 0..fact.num_rows() {
                let key = fkcol.get_i64(r).ok_or(FactorizedError::Source(format!(
                    "NULL or non-integer key at fact row {r}"
                )))?;
                let row = *index.get(&key).ok_or(FactorizedError::MissingKey {
                    table: t,
                    fact_row: r,
                    key,
                })?;
                fk.push(row);
            }
            tables.push(DimTable { features, fk });
        }
        NormalizedMatrix::new(s, tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_matrix::ops;

    fn two_table() -> NormalizedMatrix {
        let s = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]]);
        let r1 = Dense::from_rows(&[&[10.0], &[20.0]]);
        let r2 = Dense::from_rows(&[&[0.1, 0.2], &[0.3, 0.4], &[0.5, 0.6]]);
        NormalizedMatrix::new(
            s,
            vec![
                DimTable::new(r1, vec![0, 1, 1, 0]).unwrap(),
                DimTable::new(r2, vec![2, 0, 1, 2]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn shapes_and_ratios() {
        let nm = two_table();
        assert_eq!(nm.rows(), 4);
        assert_eq!(nm.cols(), 5);
        assert_eq!(nm.logical_cells(), 20);
        // physical: s 8 + (r1 2 + fk 4) + (r2 6 + fk 4) = 24
        assert_eq!(nm.physical_cells(), 24);
        assert!((nm.redundancy_ratio() - 20.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn stored_as_one_dense_group_and_one_ddc_group_per_table() {
        let nm = two_table();
        nm.validate().unwrap();
        let encodings: Vec<_> = nm.groups().iter().map(|g| g.encoding()).collect();
        use dm_compress::Encoding::{Ddc, Uncompressed};
        assert_eq!(encodings, vec![Uncompressed, Ddc, Ddc]);
        assert_eq!(nm.groups()[2].cols(), &[3, 4]);
    }

    #[test]
    fn decompress_gathers_dimension_rows() {
        let nm = two_table();
        let m = nm.decompress();
        assert_eq!(m.row(0), &[1.0, 2.0, 10.0, 0.5, 0.6]);
        assert_eq!(m.row(1), &[3.0, 4.0, 20.0, 0.1, 0.2]);
        assert_eq!(m.row(3), &[7.0, 8.0, 10.0, 0.5, 0.6]);
    }

    #[test]
    fn dangling_key_rejected() {
        let r = Dense::from_rows(&[&[1.0]]);
        assert!(matches!(
            DimTable::new(r.clone(), vec![0, 1]),
            Err(FactorizedError::DanglingKey { .. })
        ));
        let s = Dense::from_rows(&[&[1.0], &[2.0]]);
        let dt = DimTable { features: r, fk: vec![0, 5] };
        assert_eq!(
            NormalizedMatrix::new(s, vec![dt]),
            Err(FactorizedError::DanglingKey { table: 0, fact_row: 1, key: 5 })
        );
    }

    #[test]
    fn key_past_u32_codes_is_an_error_not_a_truncation() {
        // A zero-width table holds 2^33 rows without allocating any; key
        // 2^32 is in range but would truncate to code 0.
        let s = Dense::from_rows(&[&[1.0], &[2.0]]);
        let dt = DimTable { features: Dense::zeros(1 << 33, 0), fk: vec![0, 1 << 32] };
        assert_eq!(
            NormalizedMatrix::new(s, vec![dt]),
            Err(FactorizedError::KeyOverflow { table: 0, fact_row: 1, key: 1 << 32 })
        );
    }

    #[test]
    fn zero_width_table_adds_no_columns() {
        let s = Dense::from_rows(&[&[1.0], &[2.0]]);
        let empty = DimTable::new(Dense::zeros(3, 0), vec![2, 0]).unwrap();
        let r = DimTable::new(Dense::from_rows(&[&[5.0], &[6.0]]), vec![1, 0]).unwrap();
        let nm = NormalizedMatrix::new(s, vec![empty, r]).unwrap();
        assert_eq!(nm.cols(), 2);
        assert_eq!(nm.groups().len(), 2);
        assert_eq!(nm.decompress(), Dense::from_rows(&[&[1.0, 6.0], &[2.0, 5.0]]));
        // Only zero-width tables and no fact features: nothing to learn from.
        let none = DimTable::new(Dense::zeros(3, 0), vec![0, 1]).unwrap();
        assert_eq!(
            NormalizedMatrix::new(Dense::zeros(2, 0), vec![none]),
            Err(FactorizedError::Empty)
        );
    }

    #[test]
    fn key_length_mismatch_rejected() {
        let s = Dense::from_rows(&[&[1.0], &[2.0]]);
        let r = Dense::from_rows(&[&[1.0]]);
        let dt = DimTable { features: r, fk: vec![0] };
        assert!(matches!(
            NormalizedMatrix::new(s, vec![dt]),
            Err(FactorizedError::KeyLength { keys: 1, fact_rows: 2, .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            NormalizedMatrix::new(Dense::zeros(0, 2), vec![]),
            Err(FactorizedError::Empty)
        ));
        assert!(matches!(
            NormalizedMatrix::new(Dense::zeros(3, 0), vec![]),
            Err(FactorizedError::Empty)
        ));
    }

    #[test]
    fn fact_only_matrix_works() {
        let s = Dense::from_rows(&[&[1.0], &[2.0]]);
        let nm = NormalizedMatrix::new(s.clone(), vec![]).unwrap();
        assert_eq!(nm.decompress(), s);
        assert!((nm.redundancy_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_fact_features_single_table() {
        let r = Dense::from_fn(5, 2, |g, c| (g * 2 + c) as f64);
        let fk = (0..50).map(|i| i % 5).collect();
        let nm = NormalizedMatrix::new(Dense::zeros(50, 0), vec![DimTable::new(r, fk).unwrap()])
            .unwrap();
        assert!(nm.crossprod().approx_eq(&ops::crossprod(&nm.decompress()), 1e-9));
    }

    #[test]
    fn skewed_keys_and_unreferenced_rows() {
        // All fact rows reference dimension row 0 except one; row 1 of the
        // second table is never referenced.
        let s = Dense::from_fn(40, 1, |r, _| r as f64);
        let mut fk = vec![0usize; 40];
        fk[39] = 1;
        let r1 = DimTable::new(Dense::from_rows(&[&[2.0], &[5.0]]), fk).unwrap();
        let fk2 = (0..40).map(|i| if i % 2 == 0 { 0 } else { 2 }).collect();
        let r2 = DimTable::new(Dense::from_rows(&[&[10.0], &[99.0], &[20.0]]), fk2).unwrap();
        let nm = NormalizedMatrix::new(s, vec![r1, r2]).unwrap();
        let m = nm.decompress();
        assert_eq!(nm.col_sums(), vec![780.0, 83.0, 600.0]);
        assert!(nm.crossprod().approx_eq(&ops::crossprod(&m), 1e-9));
        let v: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        for (a, b) in nm.vecmat(&v).iter().zip(&ops::gevm(&v, &m)) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn col_means_and_vars_match_materialized() {
        let nm = two_table();
        let m = nm.decompress();
        for (a, b) in nm.col_means().iter().zip(&ops::col_means(&m)) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in nm.col_vars().iter().zip(&ops::col_vars(&m)) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    fn orders_and_customers() -> (dm_rel::Table, dm_rel::Table) {
        use dm_rel::Table;
        let mut fact = Table::builder("orders").float64("amount").int64("cust").build();
        fact.push_row(vec![5.0.into(), 11.into()]).unwrap();
        fact.push_row(vec![7.0.into(), 12.into()]).unwrap();
        fact.push_row(vec![9.0.into(), 11.into()]).unwrap();
        let mut dim = Table::builder("cust").int64("id").float64("age").float64("income").build();
        dim.push_row(vec![11.into(), 30.0.into(), 50.0.into()]).unwrap();
        dim.push_row(vec![12.into(), 40.0.into(), 60.0.into()]).unwrap();
        (fact, dim)
    }

    #[test]
    fn from_relational_tables() {
        use dm_rel::Value;
        let (mut fact, dim) = orders_and_customers();
        let nm = NormalizedMatrix::from_tables(
            &fact,
            &["amount"],
            &[(&dim, "cust", "id", &["age", "income"][..])],
        )
        .unwrap();
        let m = nm.decompress();
        assert_eq!(m.row(0), &[5.0, 30.0, 50.0]);
        assert_eq!(m.row(1), &[7.0, 40.0, 60.0]);
        assert_eq!(m.row(2), &[9.0, 30.0, 50.0]);

        // A key absent from the dimension table is reported as given.
        fact.push_row(vec![Value::Float64(1.0), Value::Int64(99)]).unwrap();
        assert_eq!(
            NormalizedMatrix::from_tables(
                &fact,
                &["amount"],
                &[(&dim, "cust", "id", &["age"][..])]
            ),
            Err(FactorizedError::MissingKey { table: 0, fact_row: 3, key: 99 })
        );
    }

    #[test]
    fn negative_key_reported_as_given() {
        use dm_rel::Value;
        let (mut fact, dim) = orders_and_customers();
        fact.push_row(vec![Value::Float64(1.0), Value::Int64(-5)]).unwrap();
        let err = NormalizedMatrix::from_tables(
            &fact,
            &["amount"],
            &[(&dim, "cust", "id", &["age"][..])],
        )
        .unwrap_err();
        assert_eq!(err, FactorizedError::MissingKey { table: 0, fact_row: 3, key: -5 });
        assert_eq!(err.to_string(), "fact row 3 references key -5, absent from dimension table 0");
    }
}

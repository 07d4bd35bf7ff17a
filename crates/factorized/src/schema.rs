//! The normalized-matrix representation of a star-schema join, stored as
//! compressed column groups, and its construction from a key–foreign-key
//! query over relational tables.

use dm_compress::codes::CodeArray;
use dm_compress::{ColGroup, CompressedMatrix, Dict};
use dm_matrix::Dense;
use dm_rel::{Column, DataType, JoinKind, Query, RelError, Step, Table};
use std::collections::HashMap;
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
    /// A dimension table's key column holds the same key twice, so a fact row
    /// referencing it would match two rows.
    DuplicateKey {
        /// Index of the dimension table.
        table: usize,
        /// The repeated key value.
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
    /// The query has no normalized form: a left join, a join keyed on a
    /// dimension column, a predicate reading two tables, or a column the
    /// join would rename.
    Unsupported(String),
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
            FactorizedError::DuplicateKey { table, key } => {
                write!(f, "key {key} appears twice in dimension table {table}")
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
            FactorizedError::Unsupported(m) => write!(f, "query has no normalized form: {m}"),
        }
    }
}

impl std::error::Error for FactorizedError {}

impl From<RelError> for FactorizedError {
    fn from(e: RelError) -> Self {
        FactorizedError::Source(e.to_string())
    }
}

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
        let mut next = s.cols();
        let tables = tables
            .into_iter()
            .map(|t| {
                let at = (next..next + t.features.cols()).collect();
                next += t.features.cols();
                (t, at)
            })
            .collect();
        NormalizedMatrix::placed((0..s.cols()).collect(), s, tables)
    }

    /// [`new`](Self::new) with every block's logical columns given: column
    /// `j` of `s` is logical column `s_at[j]`, and so for each table.
    fn placed(
        s_at: Vec<usize>,
        s: Dense,
        tables: Vec<(DimTable, Vec<usize>)>,
    ) -> Result<Self, FactorizedError> {
        let n = s.rows();
        let mut cols = s_at.len();
        let mut groups = Vec::with_capacity(tables.len() + 1);
        if cols > 0 {
            groups.push(ColGroup::Uncompressed { cols: s_at, data: s });
        }
        for (table, (DimTable { features, fk }, at)) in tables.into_iter().enumerate() {
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
                cols += dk;
                let (dict, codes) =
                    (Dict::new(features.into_vec(), dk), CodeArray::pack(&codes, nk));
                groups.push(ColGroup::Ddc { cols: at, dict, codes });
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

    /// Interpret a key–foreign-key query as a normalized matrix, without
    /// materializing its join. Returns the matrix and the fact rows it
    /// selected, in order, so a label column is gathered with the same
    /// selection.
    ///
    /// The query scans the fact table and inner-joins fact columns against
    /// dimension keys (integer columns, each key unique). A filter on fact
    /// columns selects fact rows; a filter on one dimension's columns is a
    /// mask over that table's rows, reaching the fact rows through their
    /// codes; a projection picks columns within the fact block and the
    /// dimension blocks. The result decompresses to the bits
    /// `q.run()?.to_dense(columns)` holds (NULL as NaN). Shapes without a
    /// normalized form are [`FactorizedError::Unsupported`]. A fact key
    /// absent from its dimension table is [`FactorizedError::MissingKey`]
    /// even when filters would drop its row, and a NULL fact key is an
    /// error too, where the materialized inner join would drop the row.
    pub fn from_query(q: &Query) -> Result<(Self, Vec<usize>), FactorizedError> {
        let fact = q.base();
        // The running schema: each column's name and where it lives.
        let mut cols: Vec<(&str, Src)> =
            fact.schema().names().into_iter().enumerate().map(|(c, n)| (n, Src::Fact(c))).collect();
        let mut rows: Vec<usize> = (0..fact.num_rows()).collect();
        // Per join: the dimension table and every fact row's code into it.
        let mut dims: Vec<(&Table, Vec<usize>)> = Vec::new();
        let find = |cols: &[(&str, Src)], name: &str| {
            cols.iter()
                .find(|c| c.0 == name)
                .map(|c| c.1)
                .ok_or_else(|| RelError::UnknownColumn(name.into()))
        };
        for step in q.steps() {
            match step {
                Step::Filter(p) => {
                    let mut read = p.columns().into_iter().map(|c| find(&cols, c).map(Src::table));
                    let table = read.next().transpose()?.flatten();
                    for t in read {
                        if t? != table {
                            return Err(unsupported(step));
                        }
                    }
                    match table {
                        None => {
                            let test = p.bind(fact)?;
                            rows.retain(|&r| test(r));
                        }
                        Some(k) => {
                            let (dim, codes) = &dims[k];
                            let test = p.bind(dim)?;
                            let keep: Vec<bool> = (0..dim.num_rows()).map(test).collect();
                            rows.retain(|&r| keep[codes[r]]);
                        }
                    }
                }
                Step::Project(names) => {
                    let picked = names
                        .iter()
                        .map(|n| find(&cols, n).map(|src| (n.as_str(), src)))
                        .collect::<Result<Vec<_>, _>>()?;
                    if let Some(i) = (1..picked.len()).find(|&i| picked[..i].contains(&picked[i])) {
                        return Err(RelError::DuplicateColumn(names[i].clone()).into());
                    }
                    cols = picked;
                }
                Step::Join { right, left_key, right_key, kind } => {
                    let (Src::Fact(fk), JoinKind::Inner) = (find(&cols, left_key)?, kind) else {
                        return Err(unsupported(step));
                    };
                    let rk = right.schema().require(right_key)?;
                    for (c, name) in right.schema().names().into_iter().enumerate() {
                        if c == rk {
                            continue;
                        }
                        if cols.iter().any(|col| col.0 == name) {
                            return Err(unsupported(step));
                        }
                        cols.push((name, Src::Dim(dims.len(), c)));
                    }
                    let codes = key_codes(fact.column(fk), right.column(rk), dims.len())?;
                    dims.push((right, codes));
                }
            }
        }
        // Each block's logical positions and its source columns.
        let mut fact_at = (Vec::new(), Vec::new());
        let mut dim_at = vec![(Vec::new(), Vec::new()); dims.len()];
        for (p, &(_, src)) in cols.iter().enumerate() {
            let (at, c) = match src {
                Src::Fact(c) => (&mut fact_at, c),
                Src::Dim(k, c) => (&mut dim_at[k], c),
            };
            at.0.push(p);
            at.1.push(c);
        }
        let s = block(fact, &fact_at.1, &rows)?;
        let mut tables = Vec::with_capacity(dims.len());
        for ((dim, codes), (at, dim_cols)) in dims.iter().zip(dim_at) {
            let features = block(dim, &dim_cols, &(0..dim.num_rows()).collect::<Vec<_>>())?;
            tables.push((DimTable { features, fk: rows.iter().map(|&r| codes[r]).collect() }, at));
        }
        Ok((NormalizedMatrix::placed(fact_at.0, s, tables)?, rows))
    }
}

/// Where a column of a query's running schema lives: a fact column, or
/// column `c` of the `k`-th joined dimension table.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    Fact(usize),
    Dim(usize, usize),
}

impl Src {
    /// The joined dimension table it reads, `None` for the fact table.
    fn table(self) -> Option<usize> {
        match self {
            Src::Fact(_) => None,
            Src::Dim(k, _) => Some(k),
        }
    }
}

fn unsupported(step: &Step) -> FactorizedError {
    FactorizedError::Unsupported(format!("{step:?}"))
}

/// Every fact row's row in dimension table `table`, matching the integer key
/// columns `fk` and `key`; each non-NULL key must appear in `key` once.
fn key_codes(fk: &Column, key: &Column, table: usize) -> Result<Vec<usize>, FactorizedError> {
    if fk.dtype() != DataType::Int64 || key.dtype() != DataType::Int64 {
        return Err(FactorizedError::Source(format!("join keys of table {table} must be Int64")));
    }
    let mut index = HashMap::with_capacity(key.len());
    for r in 0..key.len() {
        if let Some(k) = key.get_i64(r) {
            if index.insert(k, r).is_some() {
                return Err(FactorizedError::DuplicateKey { table, key: k });
            }
        }
    }
    (0..fk.len())
        .map(|fact_row| {
            let key = fk.get_i64(fact_row).ok_or_else(|| {
                FactorizedError::Source(format!("NULL key at fact row {fact_row}"))
            })?;
            index.get(&key).copied().ok_or(FactorizedError::MissingKey { table, fact_row, key })
        })
        .collect()
}

/// Columns `cols` of `t` at `rows` as a dense block, NULL as NaN: what
/// [`Table::to_dense`] holds for those rows.
fn block(t: &Table, cols: &[usize], rows: &[usize]) -> Result<Dense, FactorizedError> {
    if let Some(&c) = cols.iter().find(|&&c| t.column(c).dtype() == DataType::Str) {
        let name = &t.schema().field(c).name;
        return Err(FactorizedError::Source(format!("column {name} is not numeric")));
    }
    let cols: Vec<&Column> = cols.iter().map(|&c| t.column(c)).collect();
    Ok(Dense::from_fn(rows.len(), cols.len(), |r, j| cols[j].get_f64(rows[r]).unwrap_or(f64::NAN)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_matrix::ops;
    use dm_rel::{Predicate, Value};

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

    fn orders_and_customers() -> (Table, Table) {
        let mut fact = Table::builder("orders").float64("amount").int64("cust").build();
        fact.push_row(vec![5.0.into(), 11.into()]).unwrap();
        fact.push_row(vec![7.0.into(), 12.into()]).unwrap();
        fact.push_row(vec![9.0.into(), 11.into()]).unwrap();
        let mut dim = Table::builder("cust").int64("id").float64("age").float64("income").build();
        dim.push_row(vec![11.into(), 30.0.into(), 50.0.into()]).unwrap();
        dim.push_row(vec![12.into(), 40.0.into(), 60.0.into()]).unwrap();
        (fact, dim)
    }

    fn kfk(fact: Table, dim: Table, cols: &[&str]) -> Query {
        Query::scan(fact).join(dim, "cust", "id", JoinKind::Inner).project(cols)
    }

    #[test]
    fn from_relational_tables() {
        let (mut fact, dim) = orders_and_customers();
        let q = kfk(fact.clone(), dim.clone(), &["amount", "age", "income"]);
        let (nm, rows) = NormalizedMatrix::from_query(&q).unwrap();
        assert_eq!(rows, vec![0, 1, 2]);
        let m = nm.decompress();
        assert_eq!(m.row(0), &[5.0, 30.0, 50.0]);
        assert_eq!(m.row(1), &[7.0, 40.0, 60.0]);
        assert_eq!(m.row(2), &[9.0, 30.0, 50.0]);

        // A key absent from the dimension table is reported as given, even
        // when a filter drops its row.
        fact.push_row(vec![Value::Float64(1.0), Value::Int64(99)]).unwrap();
        let q = kfk(fact, dim, &["amount", "age"]).filter(Predicate::gt("amount", 2.0));
        assert_eq!(
            NormalizedMatrix::from_query(&q),
            Err(FactorizedError::MissingKey { table: 0, fact_row: 3, key: 99 })
        );
    }

    #[test]
    fn negative_key_reported_as_given() {
        let (mut fact, dim) = orders_and_customers();
        fact.push_row(vec![Value::Float64(1.0), Value::Int64(-5)]).unwrap();
        let err = NormalizedMatrix::from_query(&kfk(fact, dim, &["amount", "age"])).unwrap_err();
        assert_eq!(err, FactorizedError::MissingKey { table: 0, fact_row: 3, key: -5 });
        assert_eq!(err.to_string(), "fact row 3 references key -5, absent from dimension table 0");
    }

    #[test]
    fn duplicate_dimension_key_is_an_error() {
        // The materialized join emits fact rows 0 and 2 twice, once per
        // matching dimension row; no normalized matrix holds that.
        let (fact, mut dim) = orders_and_customers();
        dim.push_row(vec![11.into(), 35.0.into(), 55.0.into()]).unwrap();
        let q = kfk(fact, dim, &["amount", "age"]);
        let err = NormalizedMatrix::from_query(&q).unwrap_err();
        assert_eq!(err, FactorizedError::DuplicateKey { table: 0, key: 11 });
        assert_eq!(err.to_string(), "key 11 appears twice in dimension table 0");
        assert_eq!(q.run().unwrap().num_rows(), 5);
    }

    #[test]
    fn filters_select_rows_and_projection_places_columns() {
        let (fact, dim) = orders_and_customers();
        // The dimension filter keeps customer 11 only, the fact filter drops
        // order 0; the projection interleaves the two blocks.
        let q = Query::scan(fact)
            .join(dim, "cust", "id", JoinKind::Inner)
            .filter(Predicate::lt("income", 55.0))
            .filter(Predicate::gt("amount", 6.0))
            .project(&["age", "amount", "income"]);
        let (nm, rows) = NormalizedMatrix::from_query(&q).unwrap();
        assert_eq!(rows, vec![2]);
        assert_eq!(nm.decompress(), Dense::from_rows(&[&[30.0, 9.0, 50.0]]));
        assert_eq!(
            nm.decompress(),
            q.run().unwrap().to_dense(&["age", "amount", "income"]).unwrap()
        );
    }

    #[test]
    fn shapes_without_a_normalized_form_are_refused() {
        let (fact, dim) = orders_and_customers();
        let refused = |q: Query| match NormalizedMatrix::from_query(&q) {
            Err(FactorizedError::Unsupported(step)) => step,
            other => panic!("{other:?}"),
        };
        let left = Query::scan(fact.clone()).join(dim.clone(), "cust", "id", JoinKind::Left);
        assert_eq!(refused(left), "Join(cust on cust=id, Left)");
        let cross = kfk(fact.clone(), dim.clone(), &["amount", "age"])
            .filter(Predicate::gt("amount", 6.0).or(Predicate::gt("age", 35.0)));
        assert!(refused(cross).starts_with("Filter("));
        // A second table keyed on a dimension column (snowflake).
        let mut region = Table::builder("region").int64("rid").float64("tax").build();
        region.push_row(vec![30.into(), 0.5.into()]).unwrap();
        let snow = Query::scan(fact.clone()).join(dim.clone(), "cust", "id", JoinKind::Inner).join(
            region,
            "age",
            "rid",
            JoinKind::Inner,
        );
        assert_eq!(refused(snow), "Join(region on age=rid, Inner)");
        // The join would rename the dimension's `amount` to `cust_amount`.
        let mut clash = Table::builder("cust").int64("id").float64("amount").build();
        clash.push_row(vec![11.into(), 1.0.into()]).unwrap();
        clash.push_row(vec![12.into(), 2.0.into()]).unwrap();
        assert!(refused(Query::scan(fact).join(clash, "cust", "id", JoinKind::Inner))
            .starts_with("Join(cust"));
    }
}

//! The compressed matrix: a set of column groups plus whole-matrix kernels.

use crate::group::{self, ColGroup, Encoding};
use crate::kernels;
use crate::planner::{plan, CompressionConfig, CompressionPlan};
use dm_matrix::Dense;

/// A matrix stored as compressed column groups.
///
/// Construct with [`CompressedMatrix::compress`] (planner-driven) or
/// [`CompressedMatrix::compress_with_plan`] (explicit plan, used by the
/// ablation benchmarks). All kernels run directly on the compressed form.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedMatrix {
    rows: usize,
    cols: usize,
    groups: Vec<ColGroup>,
}

impl CompressedMatrix {
    /// Compress with a planner-chosen per-group encoding.
    pub fn compress(m: &Dense, cfg: &CompressionConfig) -> Self {
        let plan = plan(m, cfg);
        Self::compress_with_plan(m, &plan)
    }

    /// Compress following an explicit plan.
    pub fn compress_with_plan(m: &Dense, plan: &CompressionPlan) -> Self {
        let groups = plan.groups.iter().map(|g| group::encode(m, &g.cols, g.encoding)).collect();
        CompressedMatrix { rows: m.rows(), cols: m.cols(), groups }
    }

    /// Compress every column as its own group with a fixed encoding
    /// (ablation helper).
    pub fn compress_uniform(m: &Dense, enc: Encoding) -> Self {
        let groups = (0..m.cols()).map(|c| group::encode(m, &[c], enc)).collect();
        CompressedMatrix { rows: m.rows(), cols: m.cols(), groups }
    }

    /// Reassemble from raw parts (the deserialization path). Returns `None`
    /// unless the groups exactly partition `0..cols` and agree on `rows`.
    pub fn from_parts(rows: usize, cols: usize, groups: Vec<ColGroup>) -> Option<Self> {
        let mut covered = vec![false; cols];
        for g in &groups {
            if g.num_rows() != rows && g.encoding() != Encoding::Uncompressed {
                return None;
            }
            if let ColGroup::Uncompressed { data, .. } = g {
                if data.rows() != rows {
                    return None;
                }
            }
            for &c in g.cols() {
                if c >= cols || covered[c] {
                    return None;
                }
                covered[c] = true;
            }
        }
        if covered.iter().all(|&b| b) {
            Some(CompressedMatrix { rows, cols, groups })
        } else {
            None
        }
    }

    /// Reassemble from raw parts with **no** invariant checking — the caller
    /// is asserting the parts are consistent, or intends to run
    /// [`validate`](crate::validate::validate) on the result (corrupted-input
    /// tests build their fixtures through here).
    pub fn from_parts_unchecked(rows: usize, cols: usize, groups: Vec<ColGroup>) -> Self {
        CompressedMatrix { rows, cols, groups }
    }

    /// Check every structural invariant; see [`crate::validate`](mod@crate::validate).
    pub fn validate(&self) -> Result<(), crate::validate::ValidationError> {
        crate::validate::validate(self)
    }

    /// Number of logical rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of logical columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The column groups.
    pub fn groups(&self) -> &[ColGroup] {
        &self.groups
    }

    /// Total compressed size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.groups.iter().map(|g| g.size_bytes()).sum()
    }

    /// Size of the equivalent uncompressed dense matrix in bytes.
    pub fn uncompressed_bytes(&self) -> usize {
        self.rows * self.cols * 8
    }

    /// Compression ratio (`uncompressed / compressed`); higher is better.
    pub fn compression_ratio(&self) -> f64 {
        let c = self.size_bytes();
        if c == 0 {
            f64::INFINITY
        } else {
            self.uncompressed_bytes() as f64 / c as f64
        }
    }

    /// Matrix-vector product on compressed data.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn gemv(&self, v: &[f64]) -> Vec<f64> {
        self.gemv_with(v, 1)
    }

    /// [`gemv`](Self::gemv) at an explicit degree of parallelism: workers own
    /// disjoint row segments and every segment applies the column groups in
    /// serial order, so results are bit-identical to `gemv` at any degree.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn gemv_with(&self, v: &[f64], degree: usize) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "compressed gemv dimension mismatch");
        let mut out = vec![0.0; self.rows];
        dm_par::for_each_slice_mut(&mut out, 1, degree, |rows, chunk| {
            for g in &self.groups {
                kernels::gemv_range_into(g, v, chunk, rows.clone());
            }
        });
        out
    }

    /// Vector-matrix product `v^T * M` on compressed data.
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        let mut scratch = Vec::new();
        self.vecmat_into(v, &mut out, &mut scratch);
        out
    }

    /// Zero-extra-allocation vecmat: writes `v^T * M` into `out` (zeroed by
    /// the caller) reusing `scratch` for the per-tuple sums across all
    /// groups. Hot loops (iterative ML algorithms, benchmarks) keep both
    /// buffers alive across calls so steady-state iterations allocate
    /// nothing.
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn vecmat_into(&self, v: &[f64], out: &mut [f64], scratch: &mut Vec<f64>) {
        assert_eq!(v.len(), self.rows, "compressed vecmat dimension mismatch");
        assert_eq!(out.len(), self.cols, "compressed vecmat output length mismatch");
        for g in &self.groups {
            kernels::vecmat_into_scratch(g, v, out, scratch);
        }
    }

    /// [`vecmat`](Self::vecmat) at an explicit degree of parallelism: column
    /// groups own disjoint output columns, so group-local results computed
    /// concurrently and scattered afterwards are bit-identical to the serial
    /// kernel.
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub fn vecmat_with(&self, v: &[f64], degree: usize) -> Vec<f64> {
        if degree <= 1 {
            return self.vecmat(v);
        }
        assert_eq!(v.len(), self.rows, "compressed vecmat dimension mismatch");
        let locals = dm_par::map_collect(self.groups.len(), degree, |i| {
            let mut scratch = Vec::new();
            kernels::vecmat_local(&self.groups[i], v, &mut scratch)
        });
        self.scatter_locals(locals)
    }

    /// Column sums on compressed data (O(#distinct) per dictionary group).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for g in &self.groups {
            kernels::col_sums_into(g, &mut out);
        }
        out
    }

    /// [`col_sums`](Self::col_sums) at an explicit degree of parallelism
    /// (group-parallel, like [`vecmat_with`](Self::vecmat_with)).
    pub fn col_sums_with(&self, degree: usize) -> Vec<f64> {
        if degree <= 1 {
            return self.col_sums();
        }
        let locals = dm_par::map_collect(self.groups.len(), degree, |i| {
            kernels::col_sums_local(&self.groups[i])
        });
        self.scatter_locals(locals)
    }

    /// Scatter per-group local vectors (group-column order) into a full
    /// `cols`-length output. Groups partition the columns, so each output
    /// element is written exactly once.
    fn scatter_locals(&self, locals: Vec<Vec<f64>>) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for (g, local) in self.groups.iter().zip(locals) {
            for (&c, val) in g.cols().iter().zip(local) {
                out[c] = val;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.col_sums().iter().sum()
    }

    /// Apply a scalar function to every element *without decompressing*.
    ///
    /// Dictionary encodings rewrite only their dictionaries. For OLE/RLE
    /// groups (which elide all-zero tuples) this is only valid when
    /// `f(0) == 0`; otherwise the affected groups are transparently
    /// re-encoded via decompression so the result stays correct.
    pub fn scalar_map(&self, f: impl Fn(f64) -> f64 + Copy) -> CompressedMatrix {
        let zero_preserving = f(0.0) == 0.0;
        let groups = self
            .groups
            .iter()
            .map(|g| {
                let elides_zero = matches!(g, ColGroup::Ole { .. } | ColGroup::Rle { .. });
                if elides_zero && !zero_preserving {
                    // Correctness over speed: materialize, map, re-encode as DDC.
                    let mut tmp = Dense::zeros(self.rows, self.cols);
                    g.decompress_into(&mut tmp);
                    let mapped = tmp.map(f);
                    group::encode_ddc(&mapped, g.cols())
                } else {
                    kernels::scalar_map(g, f)
                }
            })
            .collect();
        CompressedMatrix { rows: self.rows, cols: self.cols, groups }
    }

    /// Compressed-matrix × dense-matrix product `M * B`, executed as one
    /// compressed gemv per column of `B` (the CLA strategy of composing
    /// higher-order ops from the MV primitive so the dictionary
    /// pre-aggregation is reused per output column).
    ///
    /// # Panics
    /// Panics if `b.rows() != self.cols()`.
    pub fn matmul_dense(&self, b: &Dense) -> Dense {
        assert_eq!(b.rows(), self.cols, "compressed matmul dimension mismatch");
        let mut out = Dense::zeros(self.rows, b.cols());
        let mut col = vec![0.0; self.cols];
        for j in 0..b.cols() {
            for (r, c) in col.iter_mut().enumerate() {
                *c = b.get(r, j);
            }
            let prod = self.gemv(&col);
            for (r, v) in prod.into_iter().enumerate() {
                out.set(r, j, v);
            }
        }
        out
    }

    /// Materialize the full dense matrix.
    pub fn decompress(&self) -> Dense {
        let mut out = Dense::zeros(self.rows, self.cols);
        for g in &self.groups {
            g.decompress_into(&mut out);
        }
        out
    }

    /// `M^T M` (Gram matrix) computed block-wise over pairs of column groups,
    /// without decompressing: a dictionary group's diagonal block is
    /// `Rᵀ diag(counts) R`, and a block it shares with another group sums the
    /// other group's rows per tuple first. Extra memory is a few
    /// dictionary-sized blocks, never `rows x cols`.
    pub fn crossprod(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.cols);
        for (i, a) in self.groups.iter().enumerate() {
            kernels::crossprod_diag_into(a, &mut out);
            for b in &self.groups[i + 1..] {
                kernels::crossprod_pair_into(a, b, &mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_matrix::ops;

    /// Mixed-structure matrix exercising every encoding in one plan.
    fn mixed(n: usize) -> Dense {
        Dense::from_fn(n, 4, |r, c| match c {
            0 => (r / (n / 8).max(1)) as f64, // clustered -> RLE
            1 => {
                if r % 37 == 0 {
                    4.5
                } else {
                    0.0
                }
            } // sparse -> OLE
            2 => ((r * 31) % 7) as f64,       // low-card unordered -> DDC
            _ => (r as f64) * 0.77,           // unique -> UC
        })
    }

    #[test]
    fn compress_round_trip() {
        let m = mixed(2000);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        assert!(cm.decompress().approx_eq(&m, 0.0), "lossless compression");
    }

    #[test]
    fn plan_uses_multiple_encodings() {
        let m = mixed(4000);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        let encs: std::collections::HashSet<_> = cm.groups().iter().map(|g| g.encoding()).collect();
        assert!(encs.len() >= 3, "expected diverse encodings, got {encs:?}");
    }

    #[test]
    fn gemv_vecmat_colsums_match_dense() {
        let m = mixed(1000);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        let v = [1.0, -2.0, 0.5, 3.0];
        let dv = ops::gemv(&m, &v);
        for (a, b) in cm.gemv(&v).iter().zip(&dv) {
            assert!((a - b).abs() < 1e-9);
        }
        let u: Vec<f64> = (0..1000).map(|i| ((i % 13) as f64) - 6.0).collect();
        let du = ops::gevm(&u, &m);
        for (a, b) in cm.vecmat(&u).iter().zip(&du) {
            assert!((a - b).abs() < 1e-6);
        }
        let dc = ops::col_sums(&m);
        for (a, b) in cm.col_sums().iter().zip(&dc) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!((cm.sum() - ops::sum(&m)).abs() < 1e-6);
    }

    #[test]
    fn compression_ratio_on_compressible_data() {
        let m = Dense::from_fn(10_000, 3, |r, c| ((r / 100 + c) % 4) as f64);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        assert!(cm.compression_ratio() > 5.0, "ratio {}", cm.compression_ratio());
    }

    #[test]
    fn incompressible_data_falls_back() {
        let m = Dense::from_fn(2000, 2, |r, c| (r * 2 + c) as f64 * 1.0001);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        assert!(
            cm.groups().iter().all(|g| g.encoding() == Encoding::Uncompressed),
            "unique columns must fall back"
        );
        assert!(cm.compression_ratio() <= 1.01);
        // And kernels still work.
        let v = [1.0, 1.0];
        assert_eq!(cm.gemv(&v), ops::gemv(&m, &v));
    }

    #[test]
    fn scalar_map_zero_preserving_stays_compressed() {
        let m = mixed(1000);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        let doubled = cm.scalar_map(|v| v * 2.0);
        assert!(doubled.decompress().approx_eq(&ops::scale(&m, 2.0), 1e-12));
        // Group encodings unchanged for zero-preserving f.
        let before: Vec<_> = cm.groups().iter().map(|g| g.encoding()).collect();
        let after: Vec<_> = doubled.groups().iter().map(|g| g.encoding()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn scalar_map_non_zero_preserving_is_correct() {
        let m = mixed(500);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        let shifted = cm.scalar_map(|v| v + 1.0);
        assert!(shifted.decompress().approx_eq(&ops::shift(&m, 1.0), 1e-12));
    }

    #[test]
    fn crossprod_matches_dense() {
        let m = mixed(300);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        let expect = ops::crossprod(&m);
        assert!(cm.crossprod().approx_eq(&expect, 1e-6));
    }

    #[test]
    fn crossprod_every_encoding_pair_across_panels() {
        // 700 rows span several decompressed panels of an OLE/RLE pair;
        // co-coded groups make every block wider than one column.
        let m = mixed(700);
        let expect = ops::crossprod(&m);
        let all = [Encoding::Ddc, Encoding::Ole, Encoding::Rle, Encoding::Uncompressed];
        for ea in all {
            for eb in all {
                let groups = vec![group::encode(&m, &[3, 0], ea), group::encode(&m, &[1, 2], eb)];
                let cm = CompressedMatrix::from_parts(700, 4, groups).unwrap();
                let got = cm.crossprod();
                assert!(
                    got.approx_eq(&expect, 1e-6),
                    "{ea:?} x {eb:?}: {}",
                    got.max_abs_diff(&expect)
                );
            }
        }
    }

    #[test]
    fn matmul_dense_matches_gemm() {
        let m = mixed(400);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        let b = Dense::from_fn(4, 3, |r, c| (r * 3 + c) as f64 - 4.0);
        let expect = ops::gemm(&m, &b);
        assert!(cm.matmul_dense(&b).approx_eq(&expect, 1e-9));
    }

    #[test]
    #[should_panic(expected = "compressed matmul dimension mismatch")]
    fn matmul_dense_shape_panics() {
        let m = mixed(50);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        cm.matmul_dense(&Dense::zeros(3, 2));
    }

    #[test]
    fn parallel_kernels_bit_identical_to_serial() {
        let m = mixed(3000);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        let v = [1.0, -2.0, 0.5, 3.0];
        let u: Vec<f64> = (0..3000).map(|i| ((i % 13) as f64) - 6.0).collect();
        let (sg, sv, sc) = (cm.gemv(&v), cm.vecmat(&u), cm.col_sums());
        for deg in [1, 2, 3, 8] {
            assert_eq!(cm.gemv_with(&v, deg), sg, "gemv degree {deg}");
            assert_eq!(cm.vecmat_with(&u, deg), sv, "vecmat degree {deg}");
            assert_eq!(cm.col_sums_with(deg), sc, "col_sums degree {deg}");
        }
    }

    #[test]
    fn parallel_kernels_bit_identical_per_uniform_encoding() {
        let m = mixed(1024);
        let v = [0.3, 1.7, -0.9, 2.2];
        let u: Vec<f64> = (0..1024).map(|i| ((i % 7) as f64) * 0.4 - 1.0).collect();
        for enc in [Encoding::Ddc, Encoding::Ole, Encoding::Rle, Encoding::Uncompressed] {
            let cm = CompressedMatrix::compress_uniform(&m, enc);
            for deg in [2, 5] {
                assert_eq!(cm.gemv_with(&v, deg), cm.gemv(&v), "{enc:?} gemv deg {deg}");
                assert_eq!(cm.vecmat_with(&u, deg), cm.vecmat(&u), "{enc:?} vecmat deg {deg}");
                assert_eq!(cm.col_sums_with(deg), cm.col_sums(), "{enc:?} col_sums deg {deg}");
            }
        }
    }

    #[test]
    fn vecmat_into_reuses_scratch_across_calls() {
        let m = mixed(500);
        let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
        let u: Vec<f64> = (0..500).map(|i| (i as f64) * 0.01).collect();
        let expect = cm.vecmat(&u);
        let mut out = vec![0.0; cm.cols()];
        let mut scratch = Vec::new();
        for _ in 0..3 {
            out.iter_mut().for_each(|o| *o = 0.0);
            cm.vecmat_into(&u, &mut out, &mut scratch);
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn uniform_encodings_all_round_trip() {
        let m = mixed(400);
        for enc in [Encoding::Ddc, Encoding::Ole, Encoding::Rle, Encoding::Uncompressed] {
            let cm = CompressedMatrix::compress_uniform(&m, enc);
            assert!(cm.decompress().approx_eq(&m, 0.0), "{enc:?}");
        }
    }
}

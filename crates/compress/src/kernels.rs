//! Linear-algebra kernels that execute directly on compressed column groups.
//!
//! The central trick (from the CLA line of work) is **pre-aggregation over the
//! dictionary**: for a matrix-vector product, each distinct value-tuple's dot
//! product against the relevant vector slice is computed once, then scattered
//! to the rows holding that tuple — O(#distinct * width + n) instead of
//! O(n * width).

use crate::group::ColGroup;
use dm_matrix::{kernel, ops, Dense};
use std::ops::Range;

/// Rows of the other group decompressed at a time when neither group of a
/// crossprod pair can be read by row (OLE or RLE on both sides).
const PANEL_ROWS: usize = 256;

/// Accumulate this group's contribution to `out += M[:, cols] * v[cols]`.
pub fn gemv_into(g: &ColGroup, v: &[f64], out: &mut [f64]) {
    gemv_range_into(g, v, out, 0..out.len());
}

/// Accumulate this group's contribution for the row segment `rows` into
/// `out` (a buffer of exactly `rows.len()` elements, indexed relative to
/// `rows.start`).
///
/// This is the unit of row-segment parallelism for compressed gemv: workers
/// own disjoint row segments, every segment applies the groups in the same
/// order as the serial kernel, and each row receives exactly the adds the
/// serial kernel would perform — so parallel results are bit-identical.
/// OLE offset lists are entered by binary search; RLE runs (sorted by start)
/// are clipped to the segment.
pub fn gemv_range_into(g: &ColGroup, v: &[f64], out: &mut [f64], rows: Range<usize>) {
    debug_assert_eq!(out.len(), rows.len());
    match g {
        ColGroup::Ddc { cols, dict, codes } => {
            let vc: Vec<f64> = cols.iter().map(|&c| v[c]).collect();
            let pre = dict.preaggregate(&vc);
            // Width-specialized gather: one enum match per call, unit-stride
            // walk over the code slice (see CodeArray::gather_add).
            codes.gather_add(&pre, rows, out);
        }
        ColGroup::Ole { cols, dict, offsets, .. } => {
            let vc: Vec<f64> = cols.iter().map(|&c| v[c]).collect();
            let pre = dict.preaggregate(&vc);
            let (start, end) = (rows.start as u32, rows.end as u32);
            for (t, offs) in offsets.iter().enumerate() {
                let p = pre[t];
                if p == 0.0 {
                    continue;
                }
                // Both segment bounds found up front: the scatter loop body
                // is branch-free, so it unrolls instead of testing `r < end`
                // per element. Offsets within a tuple are distinct rows, so
                // each output element still receives exactly one add.
                let lo = offs.partition_point(|&r| r < start);
                let hi = lo + offs[lo..].partition_point(|&r| r < end);
                for &r in &offs[lo..hi] {
                    out[(r - start) as usize] += p;
                }
            }
        }
        ColGroup::Rle { cols, dict, runs, .. } => {
            let vc: Vec<f64> = cols.iter().map(|&c| v[c]).collect();
            let pre = dict.preaggregate(&vc);
            for (t, rs) in runs.iter().enumerate() {
                let p = pre[t];
                if p == 0.0 {
                    continue;
                }
                for &(start, len) in rs {
                    let run = start as usize..(start + len) as usize;
                    if run.start >= rows.end {
                        // Runs are sorted by start; nothing later overlaps.
                        break;
                    }
                    if run.end <= rows.start {
                        continue;
                    }
                    let a = run.start.max(rows.start) - rows.start;
                    let b = run.end.min(rows.end) - rows.start;
                    // Run splat: a contiguous slice-add (`slice::fill`
                    // flavor) — unit stride, no per-element bounds test.
                    for o in &mut out[a..b] {
                        *o += p;
                    }
                }
            }
        }
        ColGroup::Uncompressed { cols, data } => {
            // The dense gemv body, continuing each row's chain from `out`.
            let vc: Vec<f64> = cols.iter().map(|&c| v[c]).collect();
            let panel = &data.data()[rows.start * cols.len()..rows.end * cols.len()];
            kernel::gemv(panel, cols.len(), &vc, out);
        }
    }
}

/// Accumulate this group's contribution to `out[cols] += (v^T * M)[cols]`.
///
/// The dual trick: first sum `v` over the rows of each tuple (per-tuple
/// scalar), then multiply by the tuple values once.
pub fn vecmat_into(g: &ColGroup, v: &[f64], out: &mut [f64]) {
    let mut scratch = Vec::new();
    vecmat_into_scratch(g, v, out, &mut scratch);
}

/// [`vecmat_into`] with a caller-provided per-tuple scratch buffer, so a
/// multi-group matrix pays one allocation per *call* instead of one per
/// group (the scratch grows to the largest dictionary it has seen and is
/// reused across groups).
pub fn vecmat_into_scratch(g: &ColGroup, v: &[f64], out: &mut [f64], scratch: &mut Vec<f64>) {
    match g {
        ColGroup::Uncompressed { cols, data } => {
            let part = ops::gevm(v, data);
            for (&c, p) in cols.iter().zip(part) {
                out[c] += p;
            }
        }
        _ => {
            tuple_sums(g, v, scratch);
            let (cols, dict) = dictionary(g);
            scatter_tuple_sums(cols, dict, scratch, out);
        }
    }
}

/// This group's slice of `v^T * M`, as a dense vector of `g.cols().len()`
/// entries in group-column order (entry `j` belongs to global column
/// `g.cols()[j]`).
///
/// Because column groups own disjoint output columns, parallel vecmat /
/// column-sum kernels compute these local vectors concurrently and scatter
/// them afterwards; each output element sees the exact per-tuple
/// accumulation order of the serial kernel, so results are bit-identical.
pub fn vecmat_local(g: &ColGroup, v: &[f64], scratch: &mut Vec<f64>) -> Vec<f64> {
    match g {
        ColGroup::Uncompressed { cols: _, data } => ops::gevm(v, data),
        _ => {
            tuple_sums(g, v, scratch);
            let (cols, dict) = dictionary(g);
            let mut local = vec![0.0; cols.len()];
            for (t, &s) in scratch.iter().enumerate() {
                if s == 0.0 {
                    continue;
                }
                for (o, &tv) in local.iter_mut().zip(dict.tuple(t)) {
                    *o += s * tv;
                }
            }
            local
        }
    }
}

/// Sum `v` over the rows of each distinct tuple into `scratch` (cleared and
/// resized to the group's dictionary size). Dictionary encodings only; the
/// uncompressed fallback has no tuples.
fn tuple_sums(g: &ColGroup, v: &[f64], scratch: &mut Vec<f64>) {
    scratch.clear();
    scratch.resize(dictionary(g).1.num_tuples(), 0.0);
    match g {
        ColGroup::Ddc { codes, .. } => codes.for_each(0..v.len(), |r, t| scratch[t] += v[r]),
        ColGroup::Ole { offsets, .. } => {
            for (s, offs) in scratch.iter_mut().zip(offsets) {
                let mut acc = 0.0;
                for &r in offs {
                    acc += v[r as usize];
                }
                *s = acc;
            }
        }
        ColGroup::Rle { runs, .. } => {
            for (s, rs) in scratch.iter_mut().zip(runs) {
                let mut acc = 0.0;
                for &(start, len) in rs {
                    for &x in &v[start as usize..(start + len) as usize] {
                        acc += x;
                    }
                }
                *s = acc;
            }
        }
        ColGroup::Uncompressed { .. } => unreachable!("uncompressed groups have no tuples"),
    }
}

/// Call `f(tuple, row)` for every row in `rows` that holds a stored tuple
/// of dictionary group `g`: every row for DDC, in row order; OLE and RLE
/// rows tuple by tuple, skipping the elided all-zero tuple.
fn for_each_member(g: &ColGroup, rows: Range<usize>, mut f: impl FnMut(usize, usize)) {
    match g {
        ColGroup::Ddc { codes, .. } => codes.for_each(rows, |r, t| f(t, r)),
        ColGroup::Ole { offsets, .. } => {
            let (start, end) = (rows.start as u32, rows.end as u32);
            for (t, offs) in offsets.iter().enumerate() {
                let lo = offs.partition_point(|&r| r < start);
                let hi = lo + offs[lo..].partition_point(|&r| r < end);
                offs[lo..hi].iter().for_each(|&r| f(t, r as usize));
            }
        }
        ColGroup::Rle { runs, .. } => {
            for (t, rs) in runs.iter().enumerate() {
                for &(start, len) in rs {
                    let run = start as usize..(start + len) as usize;
                    (run.start.max(rows.start)..run.end.min(rows.end)).for_each(|r| f(t, r));
                }
            }
        }
        ColGroup::Uncompressed { .. } => unreachable!("uncompressed groups have no tuples"),
    }
}

/// How many rows hold each stored tuple of dictionary group `g`.
fn tuple_counts(g: &ColGroup) -> Vec<usize> {
    match g {
        ColGroup::Ddc { dict, codes, .. } => {
            let mut counts = vec![0usize; dict.num_tuples()];
            codes.for_each(0..codes.len(), |_, t| counts[t] += 1);
            counts
        }
        ColGroup::Ole { offsets, .. } => offsets.iter().map(|o| o.len()).collect(),
        ColGroup::Rle { runs, .. } => {
            runs.iter().map(|rs| rs.iter().map(|&(_, l)| l as usize).sum()).collect()
        }
        ColGroup::Uncompressed { .. } => unreachable!("uncompressed groups have no tuples"),
    }
}

fn dictionary(g: &ColGroup) -> (&[usize], &crate::Dict) {
    match g {
        ColGroup::Ddc { cols, dict, .. }
        | ColGroup::Ole { cols, dict, .. }
        | ColGroup::Rle { cols, dict, .. } => (cols, dict),
        ColGroup::Uncompressed { .. } => unreachable!("uncompressed groups have no dictionary"),
    }
}

fn scatter_tuple_sums(cols: &[usize], dict: &crate::Dict, per_tuple: &[f64], out: &mut [f64]) {
    for (t, &s) in per_tuple.iter().enumerate() {
        if s == 0.0 {
            continue;
        }
        for (&c, &tv) in cols.iter().zip(dict.tuple(t)) {
            out[c] += s * tv;
        }
    }
}

/// Accumulate this group's column sums into `out[cols]`.
///
/// Runs in O(#distinct * width) for DDC/OLE/RLE: each tuple contributes its
/// value times its row count.
pub fn col_sums_into(g: &ColGroup, out: &mut [f64]) {
    match g {
        ColGroup::Uncompressed { cols, data } => {
            let part = ops::col_sums(data);
            for (&c, p) in cols.iter().zip(part) {
                out[c] += p;
            }
        }
        _ => col_sums_into_indexed(g, out, false),
    }
}

/// This group's column sums as a local vector in group-column order
/// (see [`vecmat_local`] for the scatter convention).
pub fn col_sums_local(g: &ColGroup) -> Vec<f64> {
    match g {
        ColGroup::Uncompressed { cols: _, data } => ops::col_sums(data),
        _ => {
            let mut local = vec![0.0; g.cols().len()];
            col_sums_into_indexed(g, &mut local, true);
            local
        }
    }
}

/// Shared body of [`col_sums_into`] and [`col_sums_local`]: scatter per-tuple
/// counts either to global column indices or to local group positions.
fn col_sums_into_indexed(g: &ColGroup, out: &mut [f64], local: bool) {
    let (cols, dict) = dictionary(g);
    for (t, &n) in tuple_counts(g).iter().enumerate() {
        if n == 0 {
            continue;
        }
        for (j, (&c, &tv)) in cols.iter().zip(dict.tuple(t)).enumerate() {
            let idx = if local { j } else { c };
            out[idx] += n as f64 * tv;
        }
    }
}

/// Write group `g`'s diagonal block of `MᵀM` into `out`: the dense
/// crossprod of an uncompressed block, `Rᵀ diag(counts) R` of a dictionary.
pub(crate) fn crossprod_diag_into(g: &ColGroup, out: &mut Dense) {
    let cols = g.cols();
    let w = cols.len();
    let block = match g {
        ColGroup::Uncompressed { data, .. } => ops::crossprod(data).into_vec(),
        _ => {
            let dict = dictionary(g).1;
            let mut block = vec![0.0; w * w];
            for (t, &n) in tuple_counts(g).iter().enumerate().filter(|(_, &n)| n > 0) {
                let tuple = dict.tuple(t);
                for (i, &x) in tuple.iter().enumerate() {
                    let s = n as f64 * x;
                    for (o, &y) in block[i * w + i..(i + 1) * w].iter_mut().zip(&tuple[i..]) {
                        *o += s * y;
                    }
                }
            }
            kernel::mirror_upper(w, &mut block);
            block
        }
    };
    put_block(out, cols, cols, &block);
}

/// Write the off-diagonal blocks of `MᵀM` for two distinct groups into
/// `out`. A dictionary side sums the other side's rows per tuple into an
/// `n_tuples x w_other` matrix, and its dictionary's transpose times that
/// matrix is the block. The other side is read by row when it is dense or
/// DDC, else [`PANEL_ROWS`] rows at a time; two dense sides multiply row
/// by row. Nothing `rows`-sized is allocated.
pub(crate) fn crossprod_pair_into(a: &ColGroup, b: &ColGroup, out: &mut Dense) {
    use ColGroup::{Ddc, Ole, Rle, Uncompressed as Uc};
    let (key, other) = match (a, b) {
        (Uc { .. }, Ddc { .. } | Ole { .. } | Rle { .. })
        | (Ddc { .. }, Ole { .. } | Rle { .. }) => (b, a),
        _ => (a, b),
    };
    let (wk, wo) = (key.cols().len(), other.cols().len());
    let n = key.num_rows();
    let mut block = vec![0.0; wk * wo];
    if let (Uc { data: x, .. }, Uc { data: y, .. }) = (key, other) {
        for r in 0..n {
            for (i, &xv) in x.row(r).iter().enumerate() {
                for (o, &yv) in block[i * wo..(i + 1) * wo].iter_mut().zip(y.row(r)) {
                    *o += xv * yv;
                }
            }
        }
        return put_block(out, key.cols(), other.cols(), &block);
    }
    let dict = dictionary(key).1;
    let mut agg = vec![0.0; dict.num_tuples() * wo];
    let mut add = |t: usize, row: &[f64]| kernel::add_into(&mut agg[t * wo..(t + 1) * wo], row);
    match other {
        Uc { data, .. } => for_each_member(key, 0..n, |t, r| add(t, data.row(r))),
        Ddc { dict: od, codes, .. } => {
            for_each_member(key, 0..n, |t, r| add(t, od.tuple(codes.get(r) as usize)))
        }
        _ => {
            let od = dictionary(other).1;
            let mut panel = vec![0.0; PANEL_ROWS * wo];
            for start in (0..n).step_by(PANEL_ROWS) {
                let rows = start..(start + PANEL_ROWS).min(n);
                panel.fill(0.0);
                for_each_member(other, rows.clone(), |t, r| {
                    panel[(r - start) * wo..][..wo].copy_from_slice(od.tuple(t))
                });
                for_each_member(key, rows, |t, r| add(t, &panel[(r - start) * wo..][..wo]));
            }
        }
    }
    for (t, sums) in agg.chunks_exact(wo.max(1)).enumerate() {
        for (i, &xv) in dict.tuple(t).iter().enumerate() {
            for (o, &s) in block[i * wo..(i + 1) * wo].iter_mut().zip(sums) {
                *o += xv * s;
            }
        }
    }
    put_block(out, key.cols(), other.cols(), &block);
}

/// Write a `rows.len() x cols.len()` block and its transpose into `out`.
fn put_block(out: &mut Dense, rows: &[usize], cols: &[usize], block: &[f64]) {
    for (&r, vals) in rows.iter().zip(block.chunks_exact(cols.len().max(1))) {
        for (&c, &v) in cols.iter().zip(vals) {
            out.set(r, c, v);
            out.set(c, r, v);
        }
    }
}

/// Apply a scalar function to the group's *values* without touching row
/// structure — O(#distinct) for dictionary encodings, O(n) only for the
/// uncompressed fallback.
pub fn scalar_map(g: &ColGroup, f: impl Fn(f64) -> f64 + Copy) -> ColGroup {
    match g {
        ColGroup::Ddc { cols, dict, codes } => {
            ColGroup::Ddc { cols: cols.clone(), dict: dict.map(f), codes: codes.clone() }
        }
        ColGroup::Ole { cols, dict, offsets, num_rows } => ColGroup::Ole {
            cols: cols.clone(),
            dict: dict.map(f),
            offsets: offsets.clone(),
            num_rows: *num_rows,
        },
        ColGroup::Rle { cols, dict, runs, num_rows } => ColGroup::Rle {
            cols: cols.clone(),
            dict: dict.map(f),
            runs: runs.clone(),
            num_rows: *num_rows,
        },
        ColGroup::Uncompressed { cols, data } => {
            ColGroup::Uncompressed { cols: cols.clone(), data: data.map(f) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{encode, Encoding};
    use dm_matrix::Dense;

    fn sample() -> Dense {
        Dense::from_fn(50, 3, |r, c| match c {
            0 => (r % 4) as f64,
            1 => {
                if r % 7 == 0 {
                    2.5
                } else {
                    0.0
                }
            }
            _ => ((r / 10) as f64) - 2.0,
        })
    }

    const ALL: [Encoding; 4] =
        [Encoding::Ddc, Encoding::Ole, Encoding::Rle, Encoding::Uncompressed];

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn one_group_gemv_has_the_dense_bits_for_all_encodings() {
        // One group holding every column: the Uncompressed group runs the
        // dense gemv body, and each dictionary entry is that body's chain
        // over its tuple, added once onto a zero row. Thirds make an
        // unfused or reordered chain show in the last bits.
        let m = sample().map(|x| x / 3.0);
        let v = [0.5 / 3.0, -1.0, 2.0 / 3.0];
        let expect = ops::gemv(&m, &v);
        for enc in ALL {
            let g = encode(&m, &[0, 1, 2], enc);
            let mut out = vec![0.0; m.rows()];
            gemv_into(&g, &v, &mut out);
            assert_eq!(bits(&out), bits(&expect), "{enc:?}");
        }
    }

    #[test]
    fn gemv_accumulates_across_groups() {
        let m = sample();
        let v = [0.5, -1.0, 2.0];
        let expect = ops::gemv(&m, &v);
        let g0 = encode(&m, &[0], Encoding::Rle);
        let g1 = encode(&m, &[1], Encoding::Ole);
        let g2 = encode(&m, &[2], Encoding::Ddc);
        let mut out = vec![0.0; m.rows()];
        for g in [&g0, &g1, &g2] {
            gemv_into(g, &v, &mut out);
        }
        for (a, b) in out.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn gemv_range_segments_bit_identical_to_full() {
        // The restructured DDC gather / OLE two-bound scatter / RLE run
        // splat must hand every row segment exactly the adds of the
        // full-range kernel, in the same order.
        let m = sample();
        let v = [0.5, -1.0, 2.0];
        for enc in ALL {
            let g = encode(&m, &[0, 1, 2], enc);
            let mut full = vec![0.0; m.rows()];
            gemv_into(&g, &v, &mut full);
            for seg in [1usize, 7, 13, 50] {
                let mut out = vec![0.0; m.rows()];
                let mut r = 0;
                while r < m.rows() {
                    let e = (r + seg).min(m.rows());
                    gemv_range_into(&g, &v, &mut out[r..e], r..e);
                    r = e;
                }
                for (i, (a, b)) in out.iter().zip(&full).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{enc:?} seg {seg} row {i}");
                }
            }
        }
    }

    #[test]
    fn ddc_wide_dictionary_gather_matches_dense() {
        // >256 distinct tuples forces u16 codes: exercises the non-u8 arm
        // of the width-specialized gather.
        let m = Dense::from_fn(700, 2, |r, c| ((r * 7 + c) % 300) as f64 * 0.25 - 10.0);
        let g = encode(&m, &[0, 1], Encoding::Ddc);
        let v = [1.5, -0.5];
        let expect = ops::gemv(&m, &v);
        let mut out = vec![0.0; m.rows()];
        gemv_into(&g, &v, &mut out);
        assert_eq!(bits(&out), bits(&expect));
    }

    #[test]
    fn vecmat_matches_dense_for_all_encodings() {
        let m = sample();
        let v: Vec<f64> = (0..m.rows()).map(|i| (i as f64 * 0.1) - 2.0).collect();
        let expect = ops::gevm(&v, &m);
        for enc in ALL {
            let g = encode(&m, &[0, 1, 2], enc);
            let mut out = vec![0.0; m.cols()];
            vecmat_into(&g, &v, &mut out);
            for (a, b) in out.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-9, "{enc:?}");
            }
        }
    }

    #[test]
    fn col_sums_match_dense_for_all_encodings() {
        let m = sample();
        let expect = ops::col_sums(&m);
        for enc in ALL {
            let g = encode(&m, &[0, 1, 2], enc);
            let mut out = vec![0.0; m.cols()];
            col_sums_into(&g, &mut out);
            for (a, b) in out.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-9, "{enc:?}");
            }
        }
    }

    #[test]
    fn scalar_map_on_dictionary_only() {
        let m = sample();
        for enc in ALL {
            let g = encode(&m, &[0, 2], enc);
            let doubled = scalar_map(&g, |v| v * 2.0);
            let mut dst = Dense::zeros(m.rows(), m.cols());
            doubled.decompress_into(&mut dst);
            for r in 0..m.rows() {
                for &c in [0usize, 2].iter() {
                    assert!((dst.get(r, c) - 2.0 * m.get(r, c)).abs() < 1e-12, "{enc:?}");
                }
            }
        }
    }

    #[test]
    fn scalar_map_breaking_zero_elision_note() {
        // OLE/RLE elide zero tuples, so scalar functions that map 0 to non-zero
        // (like +1) would be incorrect on those encodings. The compressed-matrix
        // layer guards this; here we document the dictionary-level behavior:
        // mapped dictionaries still round-trip the *stored* tuples correctly.
        let m = Dense::from_fn(10, 1, |r, _| if r < 5 { 0.0 } else { 3.0 });
        let g = encode(&m, &[0], Encoding::Ole);
        let shifted = scalar_map(&g, |v| v + 1.0);
        let mut dst = Dense::zeros(10, 1);
        shifted.decompress_into(&mut dst);
        assert_eq!(dst.get(9, 0), 4.0);
        // Elided zero rows remain zero: this is why the matrix layer must
        // reject non-zero-preserving scalar ops for OLE/RLE groups.
        assert_eq!(dst.get(0, 0), 0.0);
    }
}

//! Packed, register-tiled gemm building blocks (the classic GEBP scheme).
//!
//! Dense matrix multiply is restructured around three levels of blocking,
//! sized so each operand lives in the cache level that can feed the
//! innermost loop:
//!
//! * A [`KC`]`x`[`NC`] slab of `B` is packed once into [`PackedB`]:
//!   contiguous [`NR`]-column tiles, `k`-major within each tile, zero-padded
//!   to a full `NR` width. The slab is read-only after packing, so *all*
//!   workers of a parallel gemm share one copy instead of re-streaming `B`
//!   from cold memory per thread.
//! * An [`MC`]`x`[`KC`] block of `A` is packed into [`MR`]-row micro-panels,
//!   `k`-major, zero-padded to `MR` rows, so the microkernel reads both
//!   operands at unit stride.
//! * The [`MR`]`x`[`NR`] microkernel keeps the output tile in a local
//!   `[[f64; NR]; MR]` array. The bounds are compile-time constants and the
//!   loop body is branch-free, which is what lets LLVM promote the tile to
//!   vector registers and autovectorize the FMA chain — no `unsafe`, no
//!   intrinsics.
//!
//! # Bit-identity contract
//!
//! Every kernel in this workspace promises results **bit-identical** to the
//! serial reference loop (for each output element, products accumulated in
//! strictly increasing `k` order, left-associated). The packing layout is
//! chosen to preserve exactly that order:
//!
//! * Within a `KC` slab the microkernel walks `k` upward, accumulating into
//!   the tile one `k` at a time.
//! * Across slabs, the output tile is **loaded from `out`, accumulated, and
//!   stored back per slab** (never recomputed in fresh registers and added
//!   at the end), so the per-element sum stays left-associated across the
//!   `pc` loop.
//! * The `jc`/`ic`/`jr`/`ir` loops only partition *disjoint* output
//!   elements; they can be reordered freely without touching any sum.
//!
//! The one deliberate deviation from the reference loop is the `a[i][k] ==
//! 0.0` skip: the reference kernels skip zero `A` entries, the microkernel
//! must not branch per element. Dropping the skip is a **bit-exact** rewrite
//! whenever `B` contains only finite values, by the following argument:
//! output accumulators start at `+0.0` and, under round-to-nearest, an
//! accumulator can never become `-0.0` (`x + (-x) == +0.0` for finite
//! `x != 0`, and `-0.0` only arises from `(-0.0) + (-0.0)`); adding
//! `±0.0 * b == ±0.0` (finite `b`) to a non-`-0.0` value is an exact
//! identity. Only non-finite `B` values distinguish the two kernels
//! (`0.0 * inf == NaN`), so callers check [`all_finite`] on `B` and fall
//! back to the reference kernel ([`crate::kernel::gemm_ref`]) otherwise —
//! exact bit-identity in all cases.

use std::ops::Range;

/// Microkernel tile height (rows of `A` / the output held in registers).
///
/// `MR x NR = 24` accumulators fill the 16 SSE2 `xmm` registers of the
/// portable x86-64 baseline without spilling (measured: 2x12 beats 4x8 by
/// ~2x there, and still autovectorizes to wide FMA under
/// `-C target-cpu=native`).
pub const MR: usize = 2;

/// Microkernel tile width (columns of `B` / the output held in registers).
pub const NR: usize = 12;

/// Cache-block depth (the `k` extent of packed `A` and `B` slabs); sized so
/// an `MR x KC` micro-panel of `A` (8 KiB) stays in L1 while a `KC x NR`
/// tile of `B` (48 KiB) streams from L2.
pub const KC: usize = 512;

/// Cache-block height (rows of `A` packed per block, reused across all of
/// the slab's `B` tiles).
pub const MC: usize = 128;

/// Cache-block width (columns of `B` packed per slab, ~2 MiB at `KC = 512`,
/// sized for the shared outer cache).
pub const NC: usize = 512;

/// True if every element is finite (no `NaN`/`inf`). Gemm callers use this
/// on `B` to choose between the branch-free packed path and the reference
/// kernel with the `a[i][k] == 0.0` skip (see the module docs for why the
/// two are bit-identical exactly when `B` is finite).
pub fn all_finite(data: &[f64]) -> bool {
    data.iter().all(|v| v.is_finite())
}

/// A packed `KC x NC` slab of `B`: [`NR`]-column tiles, `k`-major within
/// each tile, zero-padded to full `NR` width. Immutable after [`pack`];
/// sharable by reference across parallel workers.
///
/// [`pack`]: PackedB::pack
#[derive(Default)]
pub struct PackedB {
    data: Vec<f64>,
    kc: usize,
    jcols: Range<usize>,
}

impl PackedB {
    /// Pack rows `kr` and columns `jcols` of the row-major matrix `b`
    /// (`n_cols` columns wide), replacing any previous contents.
    pub fn pack(&mut self, b: &[f64], n_cols: usize, kr: Range<usize>, jcols: Range<usize>) {
        self.data.clear();
        self.kc = kr.len();
        self.jcols = jcols.clone();
        self.data.reserve(jcols.len().div_ceil(NR) * NR * self.kc);
        for jr in (jcols.start..jcols.end).step_by(NR) {
            let jw = (jr + NR).min(jcols.end) - jr;
            for k in kr.clone() {
                self.data.extend_from_slice(&b[k * n_cols + jr..k * n_cols + jr + jw]);
                self.data.extend(std::iter::repeat_n(0.0, NR - jw));
            }
        }
    }

    /// The output columns this slab covers.
    pub fn jcols(&self) -> Range<usize> {
        self.jcols.clone()
    }

    /// The `k` extent of the slab.
    pub fn kc(&self) -> usize {
        self.kc
    }

    /// The `jt`-th packed `NR`-column tile (`kc * NR` elements).
    fn tile(&self, jt: usize) -> &[f64] {
        &self.data[jt * self.kc * NR..(jt + 1) * self.kc * NR]
    }
}

/// Pack rows `0..k` of the row-major `b` (`n_cols` wide) into `slab` one
/// `KC x NC` slab at a time and hand each slab with its `k` range to `f`.
/// Slabs come `k`-ascending within each column block, the order that keeps
/// every output element's sum in strictly increasing `k`. `slab` is
/// caller-owned scratch, so a caller packing many `B` panels allocates once.
pub fn for_each_slab(
    slab: &mut PackedB,
    b: &[f64],
    n_cols: usize,
    k: usize,
    mut f: impl FnMut(&PackedB, Range<usize>),
) {
    for jc in (0..n_cols).step_by(NC) {
        for pc in (0..k).step_by(KC) {
            let kr = pc..(pc + KC).min(k);
            slab.pack(b, n_cols, kr.clone(), jc..(jc + NC).min(n_cols));
            f(slab, kr);
        }
    }
}

/// A borrowed block of a row-major `A` operand: rows `rows`, columns
/// `kcols`, row stride `stride`. Output rows are indexed relative to
/// `rows.start`.
pub struct AView<'a> {
    /// Row-major backing data.
    pub data: &'a [f64],
    /// Row stride of `data` (the full column count of `A`).
    pub stride: usize,
    /// Rows of `A` this view covers.
    pub rows: Range<usize>,
    /// The `k` columns of `A` matching the packed `B` slab's `k` extent.
    pub kcols: Range<usize>,
}

/// Pack the view's rows into `MR`-row micro-panels, `k`-major, zero-padded
/// to `MR` rows. `dst` is cleared and reused.
fn pack_a_block(a: &AView<'_>, rows: Range<usize>, dst: &mut Vec<f64>) {
    dst.clear();
    let kc = a.kcols.len();
    dst.reserve(rows.len().div_ceil(MR) * MR * kc);
    for ir in (rows.start..rows.end).step_by(MR) {
        let iw = (ir + MR).min(rows.end) - ir;
        for k in a.kcols.clone() {
            for i in ir..ir + iw {
                dst.push(a.data[i * a.stride + k]);
            }
            dst.extend(std::iter::repeat_n(0.0, MR - iw));
        }
    }
}

/// The register-tiled inner loop: `acc[i][j] += a[i][k] * b[k][j]` for `k`
/// in `0..kc`, reading both packed panels at unit stride. Constant bounds
/// and no branches: LLVM keeps `acc` in vector registers.
#[inline]
fn microkernel(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for i in 0..MR {
            let aik = av[i];
            for j in 0..NR {
                acc[i][j] += aik * bv[j];
            }
        }
    }
}

/// Full `MR x NR` tile: load the output tile, accumulate one `KC` slab,
/// store it back. The load/store loops have compile-time bounds — keeping
/// them separate from [`edge_tile`]'s dynamic bounds is what lets LLVM
/// promote `acc` to registers on this hot path.
#[inline]
fn full_tile(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    out: &mut [f64],
    stride: usize,
    r0: usize,
    c0: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (i, accr) in acc.iter_mut().enumerate() {
        let src = &out[(r0 + i) * stride + c0..(r0 + i) * stride + c0 + NR];
        accr.copy_from_slice(src);
    }
    microkernel(kc, ap, bp, &mut acc);
    for (i, accr) in acc.iter().enumerate() {
        let dst = &mut out[(r0 + i) * stride + c0..(r0 + i) * stride + c0 + NR];
        dst.copy_from_slice(accr);
    }
}

/// Partial tile at the right/bottom matrix edge: same accumulation, dynamic
/// `iw x jw` bounds. Padded lanes compute on packed zeros and are never
/// stored.
fn edge_tile(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    out: &mut [f64],
    stride: usize,
    (r0, c0): (usize, usize),
    (iw, jw): (usize, usize),
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (i, accr) in acc.iter_mut().enumerate().take(iw) {
        let src = &out[(r0 + i) * stride + c0..(r0 + i) * stride + c0 + jw];
        accr[..jw].copy_from_slice(src);
    }
    microkernel(kc, ap, bp, &mut acc);
    for (i, accr) in acc.iter().enumerate().take(iw) {
        let dst = &mut out[(r0 + i) * stride + c0..(r0 + i) * stride + c0 + jw];
        dst.copy_from_slice(&accr[..jw]);
    }
}

/// Accumulate `out[rows x jcols] += A[rows, kcols] * B[kcols, jcols]` for
/// one packed `B` slab.
///
/// `out` is row-major with stride `out_stride` and holds `a.rows.len()`
/// rows starting at row `a.rows.start` of the full product (columns are
/// indexed globally, so `out_stride` is the product's full width). `apack`
/// is caller-owned scratch reused across calls.
///
/// Per output element the `k` accumulation order is strictly increasing
/// within the slab, and `out` is read-modify-written, so driving slabs in
/// increasing `k` order reproduces the serial reference sum bit-for-bit
/// (see module docs; callers must gate on [`all_finite`]`(B)`).
pub fn gemm_packed_rows(
    a: &AView<'_>,
    bp: &PackedB,
    out: &mut [f64],
    out_stride: usize,
    apack: &mut Vec<f64>,
) {
    let kc = a.kcols.len();
    debug_assert_eq!(kc, bp.kc());
    debug_assert!(out.len() >= a.rows.len().saturating_sub(1) * out_stride);
    let (j0, j1) = (bp.jcols.start, bp.jcols.end);
    let n_jr = (j1 - j0).div_ceil(NR);
    for i0 in (a.rows.start..a.rows.end).step_by(MC) {
        let i1 = (i0 + MC).min(a.rows.end);
        pack_a_block(a, i0..i1, apack);
        let n_ir = (i1 - i0).div_ceil(MR);
        for jt in 0..n_jr {
            let btile = bp.tile(jt);
            let jr = j0 + jt * NR;
            let jw = (jr + NR).min(j1) - jr;
            for it in 0..n_ir {
                let ap = &apack[it * kc * MR..(it + 1) * kc * MR];
                let ir = i0 + it * MR;
                let iw = (ir + MR).min(i1) - ir;
                let r0 = ir - a.rows.start;
                if iw == MR && jw == NR {
                    full_tile(kc, ap, btile, out, out_stride, r0, jr);
                } else {
                    edge_tile(kc, ap, btile, out, out_stride, (r0, jr), (iw, jw));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The serial reference loop every kernel is pinned against: strictly
    // increasing k, left-associated, with the zero skip.
    fn naive_gemm(a: &[f64], b: &[f64], m: usize, k_dim: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for k in 0..k_dim {
                let aik = a[i * k_dim + k];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += aik * b[k * n + j];
                }
            }
        }
        out
    }

    fn fill(len: usize, seed: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let v = ((i * 31 + seed * 17) % 23) as f64 * 0.37 - 3.0;
                if (i + seed).is_multiple_of(11) {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    fn packed_gemm(a: &[f64], b: &[f64], m: usize, k_dim: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        let mut apack = Vec::new();
        for_each_slab(&mut PackedB::default(), b, n, k_dim, |slab, kcols| {
            let view = AView { data: a, stride: k_dim, rows: 0..m, kcols };
            gemm_packed_rows(&view, slab, &mut out, n, &mut apack);
        });
        out
    }

    #[test]
    fn packed_layout_is_k_major_and_zero_padded() {
        // 3x5 B, one slab: two tiles of NR cols (5 < NR, so one padded tile).
        let b: Vec<f64> = (0..15).map(|i| i as f64 + 1.0).collect();
        let mut p = PackedB::default();
        p.pack(&b, 5, 0..3, 0..5);
        assert_eq!(p.kc(), 3);
        // k-major: row k of the tile holds b[k][0..5] then NR-5 zeros.
        assert_eq!(&p.tile(0)[..5], &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(&p.tile(0)[5..NR], &[0.0; NR - 5]);
        assert_eq!(&p.tile(0)[NR..NR + 5], &[6.0, 7.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn bit_identical_across_shapes() {
        // Degenerate and non-multiple-of-tile shapes, including dims that
        // straddle MR/NR/KC/MC boundaries.
        for (m, k_dim, n) in [
            (0, 3, 4),
            (1, 1, 1),
            (1, 7, 13),
            (2, 12, 12),
            (3, 5, 1),
            (5, 0, 4),
            (17, 23, 29),
            (MR + 1, KC + 3, NR + 1),
            (MC + 5, 33, NC / 8 + 7),
        ] {
            let a = fill(m * k_dim, 1);
            let b = fill(k_dim * n, 2);
            let want = naive_gemm(&a, &b, m, k_dim, n);
            let got = packed_gemm(&a, &b, m, k_dim, n);
            assert_eq!(want.len(), got.len());
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "{m}x{k_dim}x{n} at {i}: {w} vs {g}");
            }
        }
    }

    #[test]
    fn row_subrange_matches_full_product() {
        let (m, k_dim, n) = (37, 19, 21);
        let a = fill(m * k_dim, 3);
        let b = fill(k_dim * n, 4);
        let want = naive_gemm(&a, &b, m, k_dim, n);
        // Compute only rows 10..25 the way a parallel worker would.
        let rows = 10..25usize;
        let mut out = vec![0.0; rows.len() * n];
        let mut apack = Vec::new();
        for_each_slab(&mut PackedB::default(), &b, n, k_dim, |slab, kcols| {
            let view = AView { data: &a, stride: k_dim, rows: rows.clone(), kcols };
            gemm_packed_rows(&view, slab, &mut out, n, &mut apack);
        });
        for (oi, r) in rows.enumerate() {
            assert_eq!(&out[oi * n..(oi + 1) * n], &want[r * n..(r + 1) * n], "row {r}");
        }
    }

    #[test]
    fn finite_check() {
        assert!(all_finite(&[0.0, -1.5, 1e300]));
        assert!(!all_finite(&[0.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
        assert!(all_finite(&[]));
    }
}

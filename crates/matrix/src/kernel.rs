//! One body per dense operator, written over a **row panel**: a `&[f64]` of
//! whole rows of a row-major matrix plus its width.
//!
//! Serial ([`crate::ops`]), parallel ([`crate::par`]) and out-of-core
//! (`dm_buffer::ooc`) execution are *schedules* over these bodies: they
//! differ only in how they produce panels — a borrowed matrix, a worker's
//! row chunk, a fixed [`ROW_BLOCK`](crate::par::ROW_BLOCK) block, a pinned
//! pool panel — and how they fold the partials. No schedule carries
//! arithmetic of its own, so every placement computes the same bits by
//! construction. Two rules make that hold:
//!
//! * **Row-local operators** (gemv, gemm) keep each row whole and compute an
//!   output element entirely inside one body call (gemm's `k` sum continues
//!   across calls in strictly increasing `k`, read-modify-writing `out`), so
//!   how rows are cut into panels cannot reorder a single floating-point
//!   operation.
//! * **Reductions** (gevm, col_sums, crossprod, sum_sq) accumulate into a
//!   partial that a body call *continues*: feeding the rows of one block
//!   through one call or through several panel-sized calls is the same
//!   sequence of adds. Blocks are fixed-size and never a function of the
//!   degree or the panel height, and partials fold in block order, so the
//!   fold tree is the same for every schedule.
//!
//! Interleaving rows (gemv's `GEMV_ROWS` chains, the paired gevm axpy) is
//! a register-reuse device, not a reassociation: each output element sees
//! exactly the operations of the one-row-at-a-time loop, so where a block
//! of rows happens to start is free.
//!
//! Gemv is gemm's one-column case: each row is one `mul_add` chain in
//! increasing `k`, run inside a register-tile instantiation for its FMA, so a
//! product against stacked vectors `[v1 .. vb]` has, in column `j`, the
//! bits of the gemv against `vj`.
//!
//! Gemm's finite-`B` path is the packed microkernel of [`crate::pack`]; the
//! reference loop here ([`gemm_ref`]) is what non-finite panels run, where
//! leaving out a zero `a` against a non-finite `b` is observable (see
//! `pack`'s bit-identity contract). Crossprod follows the same split per
//! panel: an all-finite panel runs on the same register tile, a panel
//! holding `NaN`/`inf` runs the row loop. Both reference loops multiply-add
//! with `mul_add`, as the tile does, inside the same `Isa` instantiation.

use crate::pack::{self, Isa, Tiled};
use std::ops::Range;

/// Row `r` of a panel `cols` wide.
#[inline]
fn row(panel: &[f64], cols: usize, r: usize) -> &[f64] {
    &panel[r * cols..(r + 1) * cols]
}

/// Rows whose multiply-add chains [`gemv`] interleaves in one pass over
/// `v`: enough independent chains to cover the latency of a fused
/// multiply-add.
const GEMV_ROWS: usize = 8;

/// `out[r] += row r * v` for the panel's `out.len()` rows: each row is one
/// chain `acc = a.mul_add(v[k], acc)` from `out[r]`, in strictly increasing
/// `k`, leaving out a zero `a` against a non-finite `v[k]`. That is gemm's
/// chain for an output one column wide (see [`pack`]'s contract), so
/// column `j` of a product against `[v1 .. vb]` has the bits of the gemv
/// against `vj`.
pub fn gemv(panel: &[f64], cols: usize, v: &[f64], out: &mut [f64]) {
    gemv_on(Isa::for_width(1), panel, cols, v, out);
}

/// [`gemv`] compiled for instantiation `isa`.
pub(crate) fn gemv_on(isa: Isa, panel: &[f64], cols: usize, v: &[f64], out: &mut [f64]) {
    assert_eq!(v.len(), cols, "gemv dimension mismatch: vector {} vs cols {cols}", v.len());
    isa.run(Gemv { panel, cols, v, out });
}

/// [`gemv`]'s loop, as a [`Tiled`] body for its FMA.
struct Gemv<'r> {
    panel: &'r [f64],
    cols: usize,
    v: &'r [f64],
    out: &'r mut [f64],
}

impl Tiled for Gemv<'_> {
    #[inline(always)]
    fn run<const MR: usize, const NR: usize>(self) {
        let Gemv { panel, cols, v, out } = self;
        if pack::all_finite(v) {
            gemv_chains::<true>(panel, cols, v, out);
        } else {
            gemv_chains::<false>(panel, cols, v, out);
        }
    }
}

/// [`gemv`]'s chains, [`GEMV_ROWS`] rows at a time. A block past the
/// panel's last row runs its missing lanes on that row again and never
/// stores them. With `FINITE` (no `NaN`/`inf` in `v`) no term is left out,
/// so the loop has no branch.
#[inline(always)]
fn gemv_chains<const FINITE: bool>(panel: &[f64], cols: usize, v: &[f64], out: &mut [f64]) {
    for (b, block) in out.chunks_mut(GEMV_ROWS).enumerate() {
        let (r0, iw) = (b * GEMV_ROWS, block.len());
        // Rows cut to `v`'s length here, beside the loop: LLVM then drops
        // the bounds checks, and with them the spills of the row pointers.
        // Plain loops, not `array::from_fn`, which LLVM calls out of line.
        let (mut rows, mut acc) = ([&[][..]; GEMV_ROWS], [0.0; GEMV_ROWS]);
        for (i, (row_i, acc_i)) in rows.iter_mut().zip(&mut acc).enumerate() {
            *row_i = &row(panel, cols, r0 + i.min(iw - 1))[..v.len()];
            *acc_i = block[i.min(iw - 1)];
        }
        for (k, &vk) in v.iter().enumerate() {
            for (acc, row) in acc.iter_mut().zip(rows) {
                let a = row[k];
                if FINITE || a != 0.0 || vk.is_finite() {
                    *acc = a.mul_add(vk, *acc);
                }
            }
        }
        block.copy_from_slice(&acc[..iw]);
    }
}

/// `part += v[r] * row r` over the panel's `v.len()` rows (`part.len()`
/// wide), skipping rows whose scalar is `0.0`. Rows go in pairs: the two
/// `+=` stay separate statements, so element `j` still sees row `r` before
/// row `r + 1`.
pub(crate) fn gevm(panel: &[f64], v: &[f64], part: &mut [f64]) {
    let cols = part.len();
    let mut r = 0;
    while r + 1 < v.len() {
        let (s0, s1) = (v[r], v[r + 1]);
        if s0 != 0.0 && s1 != 0.0 {
            let (x0, x1) = (row(panel, cols, r), row(panel, cols, r + 1));
            for ((o, &a), &b) in part.iter_mut().zip(x0).zip(x1) {
                *o += s0 * a;
                *o += s1 * b;
            }
        } else {
            axpy(part, s0, row(panel, cols, r));
            axpy(part, s1, row(panel, cols, r + 1));
        }
        r += 2;
    }
    if r < v.len() {
        axpy(part, v[r], row(panel, cols, r));
    }
}

/// `part += s * row`, skipped when `s == 0.0`.
#[inline]
fn axpy(part: &mut [f64], s: f64, row: &[f64]) {
    if s != 0.0 {
        for (o, &x) in part.iter_mut().zip(row) {
            *o += s * x;
        }
    }
}

/// `part += row` for every row of the panel (`part.len()` wide).
pub fn col_sums(panel: &[f64], part: &mut [f64]) {
    if part.is_empty() {
        return;
    }
    for row in panel.chunks_exact(part.len()) {
        for (o, &v) in part.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// `part += row^T * row` over the upper triangle of the `d x d` partial,
/// for every row of the panel (`d` wide). Entries below the diagonal are
/// scratch, for callers to overwrite with [`mirror_upper`].
///
/// An all-finite panel runs on gemm's register tiles ([`pack`]), chosen by
/// `d`, over the panel packed in `pack`'s layout, rows `k`-ascending. A
/// panel holding `NaN`/`inf` runs the row loop below, which leaves out a
/// term whose row entry `i` is zero and whose entry `j` is not finite; on
/// finite entries it runs every term, as the tile does, so both paths give
/// every upper element the same bits (see `pack`'s contract). The row
/// loop's slice-zip runs the same multiply-adds as an `i <= j` double loop,
/// at unit stride.
pub fn crossprod_upper(panel: &[f64], d: usize, part: &mut [f64]) {
    crossprod_upper_on(Isa::for_width(d), panel, d, part);
}

/// [`crossprod_upper`] with the register tile of instantiation `isa`.
pub(crate) fn crossprod_upper_on(isa: Isa, panel: &[f64], d: usize, part: &mut [f64]) {
    if d == 0 {
        return;
    }
    if pack::all_finite(panel) {
        return pack::crossprod_tiles(isa, panel, d, part);
    }
    isa.run(CrossprodRows { panel, d, part });
}

/// [`crossprod_upper`]'s row loop, as a [`Tiled`] body for its FMA.
struct CrossprodRows<'r> {
    panel: &'r [f64],
    d: usize,
    part: &'r mut [f64],
}

impl Tiled for CrossprodRows<'_> {
    #[inline(always)]
    fn run<const MR: usize, const NR: usize>(self) {
        let CrossprodRows { panel, d, part } = self;
        for row in panel.chunks_exact(d) {
            for (i, &vi) in row.iter().enumerate() {
                for (o, &vj) in part[i * d + i..(i + 1) * d].iter_mut().zip(&row[i..]) {
                    if vi != 0.0 || vj.is_finite() {
                        *o = vi.mul_add(vj, *o);
                    }
                }
            }
        }
    }
}

/// Copy the upper triangle of a `d x d` row-major matrix onto its lower one.
pub fn mirror_upper(d: usize, m: &mut [f64]) {
    for i in 0..d {
        for j in i + 1..d {
            m[j * d + i] = m[i * d + j];
        }
    }
}

/// Sum of squares of a flat run of elements.
pub(crate) fn sum_sq(data: &[f64]) -> f64 {
    data.iter().map(|v| v * v).sum()
}

/// Cache tile edge of [`gemm_ref`]: a `TILE x TILE` block of `B` (128 KiB)
/// is reused across every row of the `A` panel.
const TILE: usize = 128;

/// The reference gemm body: `out += A_panel[.., kcols] * B_panel`, where
/// the `A` panel is `a_cols` wide with one row per `out` row and the `B`
/// panel holds rows `kcols` of `B`. Each term is one `mul_add`; a term with
/// `a[i][k] == 0.0` and a non-finite `b[k][j]` is left out, so `0 * inf`
/// adds nothing. Loop order is `j tile -> k tile -> i -> k -> j`, so per
/// output element `k` still strictly increases.
pub fn gemm_ref(a: &[f64], a_cols: usize, kcols: Range<usize>, b: &[f64], out: &mut [f64]) {
    let n = b.len().checked_div(kcols.len()).unwrap_or(0);
    gemm_ref_on(Isa::for_width(n), a, a_cols, kcols, b, out);
}

/// [`gemm_ref`] compiled for instantiation `isa`.
pub(crate) fn gemm_ref_on(
    isa: Isa,
    a: &[f64],
    a_cols: usize,
    kcols: Range<usize>,
    b: &[f64],
    out: &mut [f64],
) {
    if kcols.is_empty() || b.is_empty() {
        return;
    }
    isa.run(GemmRef { a, a_cols, kcols, b, out });
}

/// [`gemm_ref`]'s loop nest, as a [`Tiled`] body for its FMA.
struct GemmRef<'r> {
    a: &'r [f64],
    a_cols: usize,
    kcols: Range<usize>,
    b: &'r [f64],
    out: &'r mut [f64],
}

impl Tiled for GemmRef<'_> {
    #[inline(always)]
    fn run<const MR: usize, const NR: usize>(self) {
        let GemmRef { a, a_cols, kcols, b, out } = self;
        let n = b.len() / kcols.len();
        for j0 in (0..n).step_by(TILE) {
            let j = j0..(j0 + TILE).min(n);
            for k0 in (0..kcols.len()).step_by(TILE) {
                let k = kcols.start + k0..(kcols.start + k0 + TILE).min(kcols.end);
                let btile = &b[k0 * n..(k0 + k.len()) * n];
                for (arow, orow) in a.chunks_exact(a_cols).zip(out.chunks_exact_mut(n)) {
                    for (&aik, brow) in arow[k.clone()].iter().zip(btile.chunks_exact(n)) {
                        for (o, &bkj) in orow[j.clone()].iter_mut().zip(&brow[j.clone()]) {
                            if aik != 0.0 || bkj.is_finite() {
                                *o = aik.mul_add(bkj, *o);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Elementwise `acc += part`: the fold of vector partials.
pub fn add_into(acc: &mut [f64], part: &[f64]) {
    for (o, &p) in acc.iter_mut().zip(part) {
        *o += p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_zero_term_is_left_out_only_against_a_non_finite_b() {
        // `fma(-t, t, +0.0)` underflows to -0.0 for t = 1e-200, and
        // `fma(0.0, 1.0, -0.0)` is +0.0. The packed tile runs every term,
        // so it gives +0.0 there; skipping every zero `a` would keep -0.0.
        // The reference kernels leave out only a zero against a non-finite
        // value, so they agree with the tile in this corner too.
        let t = 1e-200f64;
        assert_eq!(t.mul_add(-t, 0.0).to_bits(), (-0.0f64).to_bits(), "the corner is real");
        for isa in Isa::available() {
            // gemm: A = [-t, 0] against B = [[t, t], [1, x]].
            let a = [-t, 0.0];
            let mut out = [0.0; 2];
            gemm_ref_on(isa, &a, 2, 0..2, &[t, t, 1.0, f64::INFINITY], &mut out);
            assert_eq!(bits(&out), bits(&[0.0, -0.0]), "{isa:?} gemm_ref, x = inf");
            let finite = [t, t, 1.0, 2.0];
            let (mut reference, mut packed) = ([0.0; 2], [0.0; 2]);
            gemm_ref_on(isa, &a, 2, 0..2, &finite, &mut reference);
            pack::for_each_slab_on(isa, &mut pack::PackedB::default(), &finite, 2, 2, |s, ks| {
                let view = pack::AView { data: &a, stride: 2, rows: 0..1, kcols: ks };
                pack::gemm_packed_rows(&view, s, &mut packed, 2);
            });
            assert_eq!(bits(&reference), bits(&[0.0, 0.0]), "{isa:?} gemm_ref, x = 2");
            assert_eq!(bits(&packed), bits(&reference), "{isa:?} packed gemm");

            // crossprod: rows [-t, t, t] and [0, 1, x]; upper (0, 1), (0, 2).
            let mut part = [0.0; 9];
            crossprod_upper_on(isa, &[-t, t, t, 0.0, 1.0, f64::INFINITY], 3, &mut part);
            assert_eq!(bits(&part[1..3]), bits(&[0.0, -0.0]), "{isa:?} row loop, x = inf");
            let finite = [-t, t, t, 0.0, 1.0, 2.0];
            let (mut rows, mut tiles) = ([0.0; 9], [0.0; 9]);
            isa.run(CrossprodRows { panel: &finite, d: 3, part: &mut rows });
            pack::crossprod_tiles(isa, &finite, 3, &mut tiles);
            assert_eq!(bits(&rows[1..3]), bits(&[0.0, 0.0]), "{isa:?} row loop, x = 2");
            for i in 0..3 {
                let upper = i * 3 + i..(i + 1) * 3;
                assert_eq!(bits(&tiles[upper.clone()]), bits(&rows[upper]), "{isa:?} row {i}");
            }
        }
    }
}

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
//! Pairing rows (`dot2`, the paired gevm axpy) is a register-reuse device,
//! not a reassociation: each output element sees exactly the adds of the
//! one-row-at-a-time loop, so where a pair happens to start is free.
//!
//! Gemm's finite-`B` path is the packed microkernel of [`crate::pack`]; the
//! reference loop here ([`gemm_ref`]) is what non-finite panels run, where
//! its `a[i][k] == 0.0` skip is observable (see `pack`'s equivalence proof).
//! Crossprod follows the same split per panel: an all-finite panel runs on
//! the same register tile, a panel holding `NaN`/`inf` runs the skip loop.

use crate::ops::{dot, dot2};
use crate::pack::{self, Isa};
use std::ops::Range;

/// Row `r` of a panel `cols` wide.
#[inline]
fn row(panel: &[f64], cols: usize, r: usize) -> &[f64] {
    &panel[r * cols..(r + 1) * cols]
}

/// `out[r] = dot(row r, v)` for the panel's `out.len()` rows, two rows per
/// pass over `v` ([`dot2`] has [`dot`]'s exact fold).
pub fn gemv(panel: &[f64], cols: usize, v: &[f64], out: &mut [f64]) {
    let mut pairs = out.chunks_exact_mut(2);
    let mut r = 0;
    for pair in &mut pairs {
        (pair[0], pair[1]) = dot2(row(panel, cols, r), row(panel, cols, r + 1), v);
        r += 2;
    }
    if let [last] = pairs.into_remainder() {
        *last = dot(row(panel, cols, r), v);
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
/// panel holding `NaN`/`inf` runs the row loop below, which skips zero row
/// entries; the skip is only observable there (`0.0 * inf == NaN`), by
/// `pack`'s zero-skip argument, so both paths give every upper element the
/// same bits. The row loop's slice-zip runs the same adds as an `i <= j`
/// double loop, at unit stride.
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
    for row in panel.chunks_exact(d) {
        for (i, &vi) in row.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &vj) in part[i * d + i..(i + 1) * d].iter_mut().zip(&row[i..]) {
                *o += vi * vj;
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
/// panel holds rows `kcols` of `B`. Entries `a[i][k] == 0.0` are skipped.
/// Loop order is `j tile -> k tile -> i -> k -> j`, so per output element
/// `k` still strictly increases.
pub fn gemm_ref(a: &[f64], a_cols: usize, kcols: Range<usize>, b: &[f64], out: &mut [f64]) {
    if kcols.is_empty() || b.is_empty() {
        return;
    }
    let n = b.len() / kcols.len();
    for j0 in (0..n).step_by(TILE) {
        let j = j0..(j0 + TILE).min(n);
        for k0 in (0..kcols.len()).step_by(TILE) {
            let k = kcols.start + k0..(kcols.start + k0 + TILE).min(kcols.end);
            let btile = &b[k0 * n..(k0 + k.len()) * n];
            for (arow, orow) in a.chunks_exact(a_cols).zip(out.chunks_exact_mut(n)) {
                for (&aik, brow) in arow[k.clone()].iter().zip(btile.chunks_exact(n)) {
                    if aik == 0.0 {
                        continue;
                    }
                    for (o, &bkj) in orow[j.clone()].iter_mut().zip(&brow[j.clone()]) {
                        *o += aik * bkj;
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

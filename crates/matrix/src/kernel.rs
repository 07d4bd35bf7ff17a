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
//!
//! # exp
//!
//! [`exp`] is the one `e^x` the compiled language evaluates (unfused, fused
//! into `gemm_map_sum`, on scalars and in the constant folder), and
//! [`exp_in_place`] its slice form, run at vector width in the same `Isa`
//! instantiations. It is a table method: 128 rows of `2^(j/128)` with a
//! tail column, from `scripts/gen_exp_table.py`, and a degree-5 polynomial
//! on `|r| <= ln2/256`. Its contract, which the tests enforce:
//!
//! * every result is within 1 ulp of libm's `f64::exp` (the error bound is
//!   about 0.51 ulp against the exact value; libm's is similar, and the two
//!   differ on about 0.1 % of inputs in [-5, 5]);
//! * `NaN` maps to `NaN`, `+inf` to `+inf`, `-inf` to `+0.0`, `±0` to `1`,
//!   and the results overflow to `inf` and underflow to `+0.0` at the
//!   inputs where libm's do;
//! * results never decrease as `x` grows, which keeps the analyzer's
//!   interval `[exp(lo), exp(hi)]` a bound on what executes;
//! * the bits are the same on every instantiation and every path: the
//!   steps are plain multiplies and adds, never `mul_add`, so no vector
//!   width rounds differently, and a slice's values run the scalar
//!   function's steps (blocks holding a value outside the table path run
//!   [`exp`] itself).

use crate::pack::{self, Isa, Tiled};
use exp_table::{EXP_TABLE, INV_LN2_N, LN2_HI_N, LN2_LO_N, TABLE_BITS};
use std::ops::Range;

mod exp_table;

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

/// `|x|` below which [`exp`] runs its table path: there `2^(k/N)` and the
/// result are normal doubles (`exp(±708)` is `3e307` and `3.3e-308`).
const EXP_FAST_MAX: f64 = 708.0;

/// `|x|` from which [`exp`]'s result is `inf` or `+0.0` without reduction,
/// far past both thresholds (`709.78` and `-745.13`); below it every `k`
/// fits the `2^18` range the reduction is exact for.
const EXP_SATURATE: f64 = 1024.0;

/// `1.5 * 2^52`: a value below `2^51` in magnitude plus this rounds to an
/// integer, held in the low bits of the sum.
const ROUND_SHIFT: f64 = 6755399441055744.0;

/// Taylor coefficients `1/i!` of `exp(r) - 1` past `r`.
const EXP_C2: f64 = 1.0 / 2.0;
const EXP_C3: f64 = 1.0 / 6.0;
const EXP_C4: f64 = 1.0 / 24.0;
const EXP_C5: f64 = 1.0 / 120.0;

/// Values [`exp_in_place`] checks at once for its table path.
const EXP_BLOCK: usize = 64;

/// `e^x`, within 1 ulp of libm's `f64::exp` (see the module docs).
///
/// `x = k ln2/N + r` with `N = 128` and `|r| <= ln2/256`, so
/// `e^x = 2^(k/N) e^r`. `2^(k/N)` is row `k mod N` of a generated table
/// (`scripts/gen_exp_table.py`): its bits with `k div N` added to the
/// exponent field, times `1 + T` for the row's tail `T`. `e^r - 1` is its
/// degree-5 Taylor polynomial, whose truncation error (`r^6/720 < 2^-60`)
/// is far below an ulp. Every step is a plain multiply or add, never
/// `mul_add`, so the portable, AVX2 and AVX-512 builds round alike.
///
/// `NaN`, `±inf` and `|x| >= 708` take one scalar path: `NaN` in, `NaN`
/// out; `±inf` and `|x| >= 1024` saturate to `inf` or `+0.0`; between,
/// the same reduction scaled by `2^-1009` (overflow side) or `2^1022`
/// (underflow side) and back after rounding, a subnormal result rounded
/// once at its own precision.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    if x.abs() < EXP_FAST_MAX {
        exp_fast(x)
    } else {
        exp_scaled(x)
    }
}

/// `e^x` for every element of `xs`, in place, with [`exp`]'s bits: blocks
/// of finite values below 708 in magnitude run the table path at vector
/// width, others run [`exp`] one value at a time.
pub fn exp_in_place(xs: &mut [f64]) {
    exp_in_place_on(Isa::for_width(xs.len()), xs);
}

/// [`exp_in_place`] compiled for instantiation `isa`.
pub fn exp_in_place_on(isa: Isa, xs: &mut [f64]) {
    isa.run(ExpInPlace(xs));
}

/// [`exp_in_place`]'s loop, as a [`Tiled`] body for its vector width.
struct ExpInPlace<'r>(&'r mut [f64]);

impl Tiled for ExpInPlace<'_> {
    #[inline(always)]
    fn run<const MR: usize, const NR: usize>(self) {
        let (blocks, rest) = self.0.as_chunks_mut::<EXP_BLOCK>();
        for block in blocks {
            if block.iter().fold(true, |fast, x| fast & (x.abs() < EXP_FAST_MAX)) {
                block.iter_mut().for_each(|x| *x = exp_fast(*x));
            } else {
                block.iter_mut().for_each(|x| *x = exp(*x));
            }
        }
        rest.iter_mut().for_each(|x| *x = exp(*x));
    }
}

/// `x = k ln2/N + r`: the bits of `2^(k/N)` (with `k div N` added to the
/// exponent field modulo 2^64, so it may wrap for `|x| >= 708`) and
/// `tmp`, where `e^x = 2^(k/N) (1 + tmp)` up to the tail-times-polynomial
/// term (below `2^-61`).
#[inline(always)]
fn exp_reduce(x: f64) -> (u64, f64) {
    let kd = INV_LN2_N * x + ROUND_SHIFT;
    let ki = kd.to_bits();
    let kd = kd - ROUND_SHIFT;
    // `kd * LN2_HI_N` is exact (`|k| < 2^18`, the head has 35 bits) and
    // so is its difference from `x`, which is within a factor 2 of it.
    let r = x - kd * LN2_HI_N - kd * LN2_LO_N;
    let [tail, sbits] = EXP_TABLE[(ki % (1 << TABLE_BITS)) as usize];
    let r2 = r * r;
    let tmp =
        f64::from_bits(tail) + r + r2 * (EXP_C2 + r * EXP_C3) + r2 * r2 * (EXP_C4 + r * EXP_C5);
    (sbits.wrapping_add(ki << (52 - TABLE_BITS)), tmp)
}

/// [`exp`] for `|x| < 708`.
#[inline(always)]
fn exp_fast(x: f64) -> f64 {
    let (sbits, tmp) = exp_reduce(x);
    let scale = f64::from_bits(sbits);
    scale + scale * tmp
}

/// [`exp`]'s scalar path: `NaN`, `±inf` and `|x| >= 708`.
#[cold]
#[inline(never)]
fn exp_scaled(x: f64) -> f64 {
    if x.is_nan() {
        return x + x;
    }
    if x.abs() >= EXP_SATURATE {
        return if x > 0.0 { f64::INFINITY } else { 0.0 };
    }
    let (sbits, tmp) = exp_reduce(x);
    if x > 0.0 {
        // 2^(k/N) may overflow: scale it down, round, scale back up, which
        // overflows to inf exactly when the rounded result does.
        let scale = f64::from_bits(sbits.wrapping_sub(1009 << 52));
        return (scale + scale * tmp) * f64::from_bits((1023 + 1009) << 52);
    }
    let scale = f64::from_bits(sbits.wrapping_add(1022 << 52));
    let y = scale + scale * tmp;
    let y = if y < 1.0 {
        // The result is subnormal: round once at its precision, an ulp of
        // 1.0 here, so that the scaling below is exact.
        let lo = scale - y + scale * tmp;
        let hi = 1.0 + y;
        let lo = 1.0 - hi + y + lo;
        hi + lo - 1.0
    } else {
        y
    };
    y * f64::MIN_POSITIVE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// splitmix64: the sweeps' seeded source of mantissas.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// About `count` inputs over [-745.2, 709.8] and the specials: per sign,
    /// random mantissas in every binade from 2^-54 (below it `e^x` rounds
    /// to 1 or a neighbour) to 2^9, a thousandth as many in each binade
    /// below 2^-54 and the subnormals, and runs of 9 consecutive doubles
    /// around random points `(k + 1/2) ln2/N` where the table row changes.
    /// Binade inputs outside the range are drawn again, runs clamped to it.
    fn exp_sweep(count: usize) -> Vec<f64> {
        let (lo, hi) = (-745.2, 709.8);
        let mut state = 0x5eed;
        let mut xs = vec![0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        // Nine tenths of `count` in the 64 upper binades of each sign, a
        // tenth in the runs.
        let per_binade = count * 9 / 10 / (2 * 64) + 1;
        // Biased exponent fields: 0 is the subnormals, 1023 + e the binade
        // [2^e, 2^(e+1)).
        for field in 0u64..=1023 + 9 {
            let n = if field >= 1023 - 54 { per_binade } else { per_binade / 1000 + 1 };
            for sign in [0u64, 1 << 63] {
                let mut drawn = 0;
                while drawn < n {
                    let x = f64::from_bits(sign | field << 52 | mix(&mut state) >> 12);
                    if (lo..=hi).contains(&x) {
                        xs.push(x);
                        drawn += 1;
                    }
                }
            }
        }
        let half = std::f64::consts::LN_2 / (1 << TABLE_BITS) as f64;
        for _ in 0..count / 90 + 1 {
            // `(k + 1/2) ln2/N` spans [-745.2, 709.8] for these `k`.
            let k = (mix(&mut state) % 268_670) as f64 - 137_600.0;
            let mut x = (2.0 * k + 1.0) * half;
            for _ in 0..4 {
                x = x.next_down();
            }
            for _ in 0..9 {
                xs.push(x.clamp(lo, hi));
                x = x.next_up();
            }
        }
        xs
    }

    /// The contract over `xs`: every result within 1 ulp of libm, at most
    /// 0.2 % of them differing from it at all, and of the subnormal ones
    /// too, never decreasing as `x` grows, and the same bits from [`exp`]
    /// and from [`exp_in_place_on`] on every instantiation.
    ///
    /// The shares are the sharper check: a table without its tail column
    /// is off by up to half an ulp before the final rounding, so it stays
    /// within 1 ulp of libm but differs from it on 8 % of these inputs, and
    /// a subnormal result rounded twice (to 53 bits, then to its own
    /// precision) on 0.9 % of the subnormal ones.
    fn check_exp_contract(mut xs: Vec<f64>) {
        xs.sort_by(f64::total_cmp);
        let ours: Vec<f64> = xs.iter().map(|&x| exp(x)).collect();
        // (results, of them differing from libm), all and subnormal.
        let (mut all, mut subnormal) = ((0usize, 0usize), (0usize, 0usize));
        for (&x, &y) in xs.iter().zip(&ours) {
            let want = x.exp();
            if y.is_nan() || want.is_nan() {
                assert!(y.is_nan() && want.is_nan(), "exp({x:e}) = {y:e}, libm {want:e}");
                continue;
            }
            let ulps = (y.to_bits() as i64 - want.to_bits() as i64).unsigned_abs();
            assert!(ulps <= 1, "exp({x:e}) = {y:e} is {ulps} ulps from libm's {want:e}");
            for (count, counted) in [(&mut all, true), (&mut subnormal, want.is_subnormal())] {
                count.0 += counted as usize;
                count.1 += (counted && ulps != 0) as usize;
            }
        }
        assert!(subnormal.0 >= 1000, "{} subnormal results", subnormal.0);
        for (what, (results, differ)) in [("results", all), ("subnormal results", subnormal)] {
            let share = differ as f64 / results as f64;
            assert!(share <= 0.002, "{differ} of {results} {what} differ from libm");
        }
        let finite: Vec<(f64, f64)> =
            xs.iter().zip(&ours).map(|(&x, &y)| (x, y)).filter(|(x, _)| !x.is_nan()).collect();
        for w in finite.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            assert!(y0 <= y1, "exp({x0:e}) = {y0:e} > exp({x1:e}) = {y1:e}");
        }
        for isa in Isa::available() {
            let mut mapped = xs.clone();
            exp_in_place_on(isa, &mut mapped);
            let same = mapped.iter().zip(&ours).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{isa:?} exp_in_place changes bits against exp");
        }
    }

    #[test]
    fn exp_is_within_an_ulp_of_libm_monotone_and_one_set_of_bits() {
        let xs = exp_sweep(10_000_000);
        assert!(xs.len() >= 10_000_000, "{} inputs", xs.len());
        check_exp_contract(xs);
    }

    /// Five times the default sweep; ~8 s in a release build
    /// (`cargo test --release -p dm-matrix -- --ignored`).
    #[test]
    #[ignore = "release-only sweep"]
    fn exp_is_within_an_ulp_of_libm_release_sweep() {
        let xs = exp_sweep(50_000_000);
        assert!(xs.len() >= 50_000_000, "{} inputs", xs.len());
        check_exp_contract(xs);
    }

    #[test]
    fn exp_is_exact_on_special_values_and_thresholds() {
        let nan = exp(f64::NAN);
        assert!(nan.is_nan());
        for (x, want) in [
            (f64::INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
            (0.0, 1.0),
            (-0.0, 1.0),
            (f64::MAX, f64::INFINITY),
            (f64::MIN, 0.0),
        ] {
            assert_eq!(exp(x).to_bits(), want.to_bits(), "exp({x:e})");
        }
        // The largest input with a finite result, the smallest with a
        // nonzero one, the one whose result is the least normal double,
        // and the edges of the table path and of saturation.
        let (overflow, underflow): (f64, f64) = (709.782712893384, -745.1332191019411);
        assert!(overflow.exp().is_finite() && overflow.next_up().exp().is_infinite());
        assert!(underflow.exp() > 0.0 && underflow.next_down().exp() == 0.0);
        for edge in [overflow, underflow, -708.3964185322641, 708.0, -708.0, 1024.0, -1024.0f64] {
            let mut x = edge;
            for _ in 0..4 {
                x = x.next_down();
            }
            for _ in 0..9 {
                assert_eq!(exp(x).to_bits(), x.exp().to_bits(), "exp({x:e}) against libm");
                x = x.next_up();
            }
        }
    }

    #[test]
    fn exp_blocks_mixing_specials_have_the_scalar_bits() {
        // Each special value lands in a different position of an otherwise
        // fast block, and in the tail past the last full block.
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 708.5, -740.0, 1e300];
        let len = 3 * EXP_BLOCK + 7;
        for (i, &s) in specials.iter().enumerate() {
            let mut xs: Vec<f64> = (0..len).map(|j| j as f64 * 0.37 - 40.0).collect();
            xs[i * 37 % len] = s;
            xs[len - 1 - i] = s;
            let want: Vec<f64> = xs.iter().map(|&x| exp(x)).collect();
            for isa in Isa::available() {
                let mut got = xs.clone();
                exp_in_place_on(isa, &mut got);
                assert_eq!(bits(&got), bits(&want), "{isa:?} with {s:e}");
            }
        }
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

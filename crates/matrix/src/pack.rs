//! Packed, register-tiled gemm and crossprod building blocks (the classic
//! GEBP scheme).
//!
//! Dense matrix multiply is restructured around three levels of blocking,
//! sized so each operand lives in the cache level that can feed the
//! innermost loop:
//!
//! * A [`KC`]`x`[`NC`] slab of `B` is packed once into [`PackedB`]:
//!   contiguous `NR`-column tiles, `k`-major within each tile, zero-padded
//!   to a full `NR` width. The slab is read-only after packing, so *all*
//!   workers of a parallel gemm share one copy instead of re-streaming `B`
//!   from cold memory per thread.
//! * `A` is never copied: for step `k` the microkernel reads its `MR`
//!   values straight from `MR` rows of the [`AView`] (one broadcast load per
//!   row, as from a packed panel), sweeping an [`MC`]-row block against
//!   every tile of the slab while it is hot in L2. Padded lanes past a
//!   view's last row read that row again; their sums are never stored.
//! * The `MR x NR` microkernel keeps the output tile in a local
//!   `[[f64; NR]; MR]` array. The bounds are compile-time constants and the
//!   loop body is branch-free, which is what lets LLVM promote the tile to
//!   vector registers and vectorize the multiply-add chain — no intrinsics.
//!   Each step is an `([f64; MR], &[f64; NR])` pair: the `A` column by
//!   value, the packed `B` row by reference.
//!
//! The gemm loop nest is `jc` ([`NC`] columns, one packed slab each) →
//! `pc` ([`KC`] deep) → `ic` ([`MC`] rows of `A`) → `jr` (one `NR` tile of
//! the slab) → `ir` (`MR` rows) → `k`.
//!
//! Crossprod (`X^T X`) runs on the same microkernel and the same tiles:
//! [`crate::kernel::crossprod_upper`] packs each `CROSSPROD_KC`-row chunk
//! of its panel once into the [`PackedB`] layout (per-thread scratch,
//! reused across calls), and reads a tile's `MR`-row `A` sliver from inside
//! the packed tile that holds those columns — `NR % MR == 0`, so a sliver
//! never straddles two tiles. Fringe tiles run on zero-padded lanes, like
//! gemm's.
//!
//! # Instantiations
//!
//! The driver is written once, generic over the tile, and compiled three
//! times:
//!
//! * **portable** — `MR x NR = 2 x 12`, the x86-64 baseline (SSE2): 24
//!   accumulators in 12 of the 16 `xmm` registers. With the `B` row and the
//!   two broadcast `A` values that is more than 16, and its `k` loop spills
//!   four registers per step. The baseline has no FMA instruction, so each
//!   `mul_add` is a libm `fma` call: slow, but the same bits. It is the
//!   fallback for CPUs without AVX2 and FMA;
//! * **AVX2** — `4 x 8`, the same source under
//!   `#[target_feature(enable = "avx2,fma")]`: 32 accumulators in 8 of the
//!   16 `ymm` registers, leaving room for the `B` row and the broadcast `A`
//!   value;
//! * **AVX-512** — `4 x 32` under
//!   `#[target_feature(enable = "avx512f,fma")]`: 128 accumulators in 16 of
//!   the 32 `zmm` registers, plus 4 for the `B` row and 1 for the broadcast.
//!
//! Which one runs is a per-call rule on the CPU and the output's width
//! (gemm's `n`, crossprod's `d`), `Isa::for_width`: the 4x32 tile when
//! `is_x86_feature_detected!` reports AVX-512F and FMA and the output fills
//! at least one such tile; else 4x8 when it reports AVX2 and FMA; else
//! portable. Narrow outputs keep 4x8, so small products do not pay for
//! padded lanes. Calling a `#[target_feature]` function is the crate's one
//! `unsafe` block, guarded by the same detection. A [`PackedB`] records the
//! instantiation it was packed for, since the tile width is its layout. The
//! reference kernels that non-finite operands fall back to
//! ([`crate::kernel::gemm_ref`] and crossprod's row loop) run inside the
//! same instantiations, so they too emit `vfmadd` instead of a libm call.
//!
//! **Register-fit rule.** A tile's accumulators plus one `B` row and the
//! broadcast `A` value must fit the vector registers (16 `ymm`, 32 `zmm`),
//! or LLVM spills `acc` to the stack inside the `k` loop. A spilled tile is
//! not just slower, it is unpredictable: a 4x12 AVX2 tile (12
//! accumulators, 3 `B` vectors and 1 broadcast) spilled, and the same
//! evaluation on it (crossprod and gemm of an 8192x256 `X`, 2-vCPU Sapphire
//! Rapids) ran 76 ms in one caller against 41 ms in an equivalent caller of
//! the same binary, depending on the stack depth it was called at. Fitting on paper is not
//! enough either: an 8x16 AVX-512 tile (16 accumulators + 2 + 1) spilled in
//! its gemm `k` loop, and gemm and crossprod of that `X` ran 7x slower on it
//! than on 4x32. The 4x8 and 4x32 `k` loops touch no stack slot.
//!
//! # Bit-identity contract
//!
//! Every dense product kernel in this workspace — gemm, crossprod, gemv
//! (gemm's one-column case) and the fused `gemm_map_sum` — promises results
//! **bit-identical** to the serial reference loop: for each output element,
//! one fused multiply-add per term, `acc = a.mul_add(b, acc)` (the exact
//! `a * b + acc`, rounded once), in strictly increasing `k` order from
//! `+0.0`. The reductions gevm/`tmv`, `col_sums`, `sum_sq` and `ops::dot`
//! keep their own unfused folds, each the same on every schedule but not
//! this loop. The packing layout is chosen to preserve exactly that order:
//!
//! * Within a `KC` slab the microkernel walks `k` upward, accumulating into
//!   the tile one `k` at a time.
//! * Across slabs, the output tile is **loaded from `out`, accumulated, and
//!   stored back per slab** (never recomputed in fresh registers and added
//!   at the end), so the per-element chain continues unbroken across the
//!   `pc` loop.
//! * The `jc`/`ic`/`jr`/`ir` loops only partition *disjoint* output
//!   elements; they can be reordered freely without touching any sum.
//!
//! The instantiations cannot differ in a bit either. Each step rounds once,
//! whatever the vector width: a `vfmadd231pd` lane under AVX2 and AVX-512,
//! a libm `fma` call in the portable build. Rust never contracts a plain
//! `a * b + c` into one fused operation on its own, so the fused step is
//! spelled `mul_add` in every kernel and every reference that shares its
//! bits. Tile shape only changes which output elements share a register,
//! never the operations an element sees.
//!
//! `exp` ([`crate::kernel::exp_in_place`]) runs in the same instantiations
//! for their vector width, not their FMA: it is written in plain
//! multiplies and adds, never `mul_add`, so each step rounds once in an
//! SSE2, AVX2 or AVX-512 lane alike, and the slice form gives every value
//! the bits of the one-value [`crate::kernel::exp`]. Its contract against
//! libm (within 1 ulp, special values exact, monotone) is in
//! [`crate::kernel`]'s docs. `gemm_map_sum` maps each panel of the
//! product with it, so a fused `sum(exp(X %*% W))` keeps the unfused bits.
//!
//! The one deliberate deviation from a plain loop is a zero `a` meeting a
//! non-finite `b`: `0.0 * inf` is `NaN`, and the reference kernels leave
//! that term out (the historical loops skipped every `a[i][k] == 0.0`,
//! which is where the rule comes from). The microkernel must not branch per
//! element, so it runs every term. On a `B` of finite values no term is
//! left out, so the two are the same sequence of operations. Callers check
//! [`all_finite`] on `B` and fall back to the reference kernel
//! ([`crate::kernel::gemm_ref`]) otherwise. Crossprod's `B` is its own
//! panel, so it gates on the whole panel.
//!
//! Why not skip every zero `a`, as the historical loops did? For finite
//! `b`, `fma(±0.0, b, c) == c` exactly when `c` is not `-0.0`, so such a
//! skip shows only on an accumulator that holds `-0.0`. Unfused, one that
//! starts at `+0.0` never does under round-to-nearest: a rounded product of
//! `-0.0` added to `+0.0` gives `+0.0`, an exactly-zero sum of nonzero
//! values is `+0.0`, and a nonzero sum of two doubles never rounds to zero.
//! Fused, it can: `fma` rounds the exact `a * b + c` once, and a negative
//! value below half the least subnormal (`2^-1075`) in magnitude rounds to
//! `-0.0` (`fma(-1e-200, 1e-200, 0.0)` is `-0.0`). A skipped zero then
//! keeps `-0.0` where the fused term gives `+0.0`. Leaving out only the
//! terms that would be `NaN` keeps every path on the same bits, the sign of
//! a zero included: the packed kernel on finite `B`, the reference on any
//! `B`, and the per-panel mix of the two that out-of-core gemm runs.

use std::ops::Range;

/// Cache-block depth (the `k` extent of a packed `B` slab and of the `A`
/// rows read against it); sized so `MR` rows of `A` (8-16 KiB) stay in L1
/// while a `KC x NR` tile of `B` (32-128 KiB) streams from L2.
pub const KC: usize = 512;

/// Cache-block height (rows of `A` swept against all of the slab's `B`
/// tiles before the next block).
pub const MC: usize = 128;

/// Cache-block width (columns of `B` packed per slab, ~2 MiB at `KC = 512`,
/// sized for the shared outer cache).
pub const NC: usize = 512;

/// Crossprod's packing depth in panel rows: an eighth of [`KC`], so one
/// packed 32-wide column tile (16 KiB) stays in L1 while every sliver above
/// the diagonal runs against it, and each worker's scratch stays small
/// (128 KiB at `d = 256`), at the cost of one more load and store of each
/// output tile per chunk.
const CROSSPROD_KC: usize = 64;

/// The portable instantiation's register tile (`MR x NR`).
const PORTABLE_MR: usize = 2;
const PORTABLE_NR: usize = 12;

/// The AVX2 instantiation's register tile (`MR x NR`).
const AVX2_MR: usize = 4;
const AVX2_NR: usize = 8;

/// The AVX-512 instantiation's register tile (`MR x NR`).
const AVX512_MR: usize = 4;
const AVX512_NR: usize = 32;

/// A compiled instantiation of the microkernel driver: the register tile
/// and the instruction set it is compiled for (see the module docs).
/// Public so that benchmarks can time each one
/// ([`crate::kernel::exp_in_place_on`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Isa {
    /// The portable baseline build, 2x12 tile.
    #[default]
    Portable,
    /// The AVX2 build, 4x8 tile.
    Avx2,
    /// The AVX-512F build, 4x32 tile.
    Avx512,
}

impl Isa {
    /// The instantiation for an output `width` columns wide on this CPU:
    /// 4x32 with AVX-512F and FMA if the output fills one such tile, else
    /// 4x8 with AVX2 and FMA, else portable (see the module docs).
    pub(crate) fn for_width(width: usize) -> Isa {
        if width >= AVX512_NR && Isa::Avx512.supported() {
            Isa::Avx512
        } else if Isa::Avx2.supported() {
            Isa::Avx2
        } else {
            Isa::Portable
        }
    }

    /// Every instantiation this CPU can run: the hook tests use to pin each
    /// one to the same bits, and benchmarks to time each.
    pub fn available() -> Vec<Isa> {
        [Isa::Portable, Isa::Avx2, Isa::Avx512].into_iter().filter(|isa| isa.supported()).collect()
    }

    /// Whether this CPU has the instruction set the instantiation needs:
    /// the vector extension and FMA.
    fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        return match self {
            Isa::Portable => true,
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            Isa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("fma")
            }
        };
        #[cfg(not(target_arch = "x86_64"))]
        return self == Isa::Portable;
    }

    /// Tile width: the column count of a packed `B` tile.
    pub(crate) const fn nr(self) -> usize {
        match self {
            Isa::Portable => PORTABLE_NR,
            Isa::Avx2 => AVX2_NR,
            Isa::Avx512 => AVX512_NR,
        }
    }

    /// Run `body` compiled for this instantiation.
    pub(crate) fn run(self, body: impl Tiled) {
        assert!(self.supported(), "the {self:?} instantiation needs a CPU that has it");
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `run_avx2` needs only a CPU with AVX2 and FMA and
        // `run_avx512` only one with AVX-512F and FMA, which the assertion
        // above has just checked for the instantiation called.
        unsafe {
            match self {
                Isa::Portable => {}
                Isa::Avx2 => return run_avx2(body),
                Isa::Avx512 => return run_avx512(body),
            }
        }
        body.run::<PORTABLE_MR, PORTABLE_NR>();
    }
}

/// A kernel body written once over an `MR x NR` register tile, which
/// [`Isa::run`] instantiates. Implementations and everything they call down
/// to [`microkernel`] are `#[inline(always)]`, so the whole loop nest is
/// generated inside [`run_avx2`]'s and [`run_avx512`]'s `#[target_feature]`
/// contexts. A body that has no tile (the reference kernels) ignores `MR`
/// and `NR` and is instantiated only for those contexts' FMA.
pub(crate) trait Tiled {
    fn run<const MR: usize, const NR: usize>(self);
}

/// The AVX2 instantiation: the same source as the portable one, compiled
/// with AVX2 and FMA enabled, so each `mul_add` is one `vfmadd` lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2(body: impl Tiled) {
    body.run::<AVX2_MR, AVX2_NR>();
}

/// The AVX-512 instantiation: the same source again, compiled with
/// AVX-512F and FMA enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn run_avx512(body: impl Tiled) {
    body.run::<AVX512_MR, AVX512_NR>();
}

/// True if every element is finite (no `NaN`/`inf`). Gemm callers use this
/// on `B` to choose between the branch-free packed path and the reference
/// kernel, which leaves out a zero `a` against a non-finite `b` (see the
/// module docs for why the two are bit-identical when `B` is finite).
pub fn all_finite(data: &[f64]) -> bool {
    data.iter().all(|v| v.is_finite())
}

/// A packed `KC x NC` slab of `B`: `NR`-column tiles, `k`-major within
/// each tile, zero-padded to full `NR` width, where `NR` is the tile width
/// of the instantiation the slab was last packed for. Immutable between
/// packs; sharable by reference across parallel workers.
#[derive(Default)]
pub struct PackedB {
    data: Vec<f64>,
    kc: usize,
    jcols: Range<usize>,
    isa: Isa,
}

impl PackedB {
    /// Pack rows `kr` and columns `jcols` of the row-major matrix `b`
    /// (`n_cols` columns wide) for instantiation `isa`, replacing any
    /// previous contents and reusing the allocation.
    pub(crate) fn pack(
        &mut self,
        isa: Isa,
        b: &[f64],
        n_cols: usize,
        kr: Range<usize>,
        jcols: Range<usize>,
    ) {
        #[cfg(test)]
        PACKS.set(PACKS.get() + 1);
        self.kc = kr.len();
        self.jcols = jcols.clone();
        self.isa = isa;
        // Every element is written, so old contents need no clearing.
        self.data.resize(jcols.len().div_ceil(isa.nr()) * isa.nr() * self.kc, 0.0);
        isa.run(PackTiles { data: &mut self.data, b, n_cols, kr, jcols });
    }

    /// Tile width: the columns of `B` per packed tile.
    pub fn nr(&self) -> usize {
        self.isa.nr()
    }

    /// The `jt`-th packed tile (`kc * nr` elements).
    fn tile(&self, jt: usize) -> &[f64] {
        let len = self.kc * self.nr();
        &self.data[jt * len..(jt + 1) * len]
    }
}

/// [`PackedB::pack`]'s copy loop, as a [`Tiled`] body: with `NR` a
/// constant, a full tile row is one fixed-size copy instead of a `memcpy`
/// call.
struct PackTiles<'r> {
    data: &'r mut [f64],
    b: &'r [f64],
    n_cols: usize,
    kr: Range<usize>,
    jcols: Range<usize>,
}

impl Tiled for PackTiles<'_> {
    #[inline(always)]
    fn run<const MR: usize, const NR: usize>(self) {
        let PackTiles { data, b, n_cols, kr, jcols } = self;
        let tiles = data.chunks_exact_mut((NR * kr.len()).max(1));
        for (tile, jr) in tiles.zip(jcols.clone().step_by(NR)) {
            let jw = (jr + NR).min(jcols.end) - jr;
            for (dst, k) in tile.as_chunks_mut::<NR>().0.iter_mut().zip(kr.clone()) {
                let src = &b[k * n_cols + jr..k * n_cols + jr + jw];
                match src.first_chunk::<NR>() {
                    Some(row) => *dst = *row,
                    None => {
                        dst[..jw].copy_from_slice(src);
                        dst[jw..].fill(0.0);
                    }
                }
            }
        }
    }
}

/// Pack rows `0..k` of the row-major `b` (`n_cols` wide) into `slab` one
/// `KC x NC` slab at a time and hand each slab with its `k` range to `f`.
/// Slabs come `k`-ascending within each column block, the order that keeps
/// every output element's sum in strictly increasing `k`. `slab` is
/// caller-owned scratch, so a caller packing many `B` panels allocates once.
/// The slabs are packed for the register tile an `n_cols`-wide product
/// runs on (see the module docs).
pub fn for_each_slab(
    slab: &mut PackedB,
    b: &[f64],
    n_cols: usize,
    k: usize,
    f: impl FnMut(&PackedB, Range<usize>),
) {
    for_each_slab_on(Isa::for_width(n_cols), slab, b, n_cols, k, f);
}

/// [`for_each_slab`] packing for instantiation `isa`.
pub(crate) fn for_each_slab_on(
    isa: Isa,
    slab: &mut PackedB,
    b: &[f64],
    n_cols: usize,
    k: usize,
    mut f: impl FnMut(&PackedB, Range<usize>),
) {
    for (kr, jcols) in slab_ranges(n_cols, k) {
        slab.pack(isa, b, n_cols, kr.clone(), jcols);
        f(slab, kr);
    }
}

/// Every slab [`for_each_slab`] hands out, each packed into its own
/// [`PackedB`] and kept with its `k` range, in the same order: `B` packed
/// once for callers that run it against many row blocks of `A`.
pub(crate) fn pack_slabs(b: &[f64], n_cols: usize, k: usize) -> Vec<(PackedB, Range<usize>)> {
    let isa = Isa::for_width(n_cols);
    let pack = |(kr, jcols): (Range<usize>, Range<usize>)| {
        let mut slab = PackedB::default();
        slab.pack(isa, b, n_cols, kr.clone(), jcols);
        (slab, kr)
    };
    slab_ranges(n_cols, k).map(pack).collect()
}

/// The `(k rows, columns)` of each `KC x NC` slab of a `k x n_cols` `B`:
/// `k`-ascending within each column block.
fn slab_ranges(n_cols: usize, k: usize) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
    (0..n_cols).step_by(NC).flat_map(move |jc| {
        (0..k).step_by(KC).map(move |pc| (pc..(pc + KC).min(k), jc..(jc + NC).min(n_cols)))
    })
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

/// The register-tiled inner loop: `acc[i][j] = a[i].mul_add(b[j], acc[i][j])`
/// for each `(a, b)` step, in order. Constant bounds and no branches: LLVM
/// keeps `acc` in vector registers.
#[inline(always)]
fn microkernel<'s, const MR: usize, const NR: usize>(
    steps: impl Iterator<Item = ([f64; MR], &'s [f64; NR])>,
    acc: &mut [[f64; NR]; MR],
) {
    for (av, bv) in steps {
        for i in 0..MR {
            let aik = av[i];
            for j in 0..NR {
                acc[i][j] = aik.mul_add(bv[j], acc[i][j]);
            }
        }
    }
}

/// The `k` steps of the `MR` rows of `a` from row `ir` against one packed
/// `B` tile, read where they lie: step `k` takes column `k` of each row.
/// The `MR - iw` padded lanes past the view's rows read row `ir + iw - 1`
/// again; [`edge_tile`] never stores them.
#[inline(always)]
fn row_steps<'s, const MR: usize, const NR: usize>(
    a: &AView<'s>,
    (ir, iw): (usize, usize),
    btile: &'s [f64],
) -> impl Iterator<Item = ([f64; MR], &'s [f64; NR])> {
    let kc = a.kcols.len();
    let rows: [&[f64]; MR] = std::array::from_fn(|i| {
        let start = (ir + i.min(iw - 1)) * a.stride + a.kcols.start;
        &a.data[start..start + kc]
    });
    // Every slice is `kc` long and `k` counts `0..kc`, so LLVM drops the
    // bounds checks; stepping `B` by its own iterator left one per step.
    let b = &btile.as_chunks::<NR>().0[..kc];
    (0..kc).map(move |k| (rows.map(|r| r[k]), &b[k]))
}

/// One `MR x NR` output tile at `(r0, c0)` of `out` (row stride `stride`),
/// of which the top-left `iw x jw` elements are real: load them, run
/// `steps` on the tile, store them back. Padded lanes compute on packed
/// zeros or borrowed rows and are never stored.
#[inline(always)]
fn tile<'s, const MR: usize, const NR: usize>(
    steps: impl Iterator<Item = ([f64; MR], &'s [f64; NR])>,
    out: &mut [f64],
    stride: usize,
    at: (usize, usize),
    (iw, jw): (usize, usize),
) {
    if iw == MR && jw == NR {
        full_tile(steps, out, stride, at);
    } else {
        edge_tile(steps, out, stride, at, (iw, jw));
    }
}

/// Full `MR x NR` tile: load the output tile, accumulate, store it back.
/// The load/store loops have compile-time bounds — keeping them separate
/// from [`edge_tile`]'s dynamic bounds is what lets LLVM promote `acc` to
/// registers on this hot path.
#[inline(always)]
fn full_tile<'s, const MR: usize, const NR: usize>(
    steps: impl Iterator<Item = ([f64; MR], &'s [f64; NR])>,
    out: &mut [f64],
    stride: usize,
    (r0, c0): (usize, usize),
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (i, accr) in acc.iter_mut().enumerate() {
        let src = &out[(r0 + i) * stride + c0..(r0 + i) * stride + c0 + NR];
        accr.copy_from_slice(src);
    }
    microkernel(steps, &mut acc);
    for (i, accr) in acc.iter().enumerate() {
        let dst = &mut out[(r0 + i) * stride + c0..(r0 + i) * stride + c0 + NR];
        dst.copy_from_slice(accr);
    }
}

/// Partial tile at the right/bottom matrix edge: same accumulation, dynamic
/// `iw x jw` bounds.
#[inline(always)]
fn edge_tile<'s, const MR: usize, const NR: usize>(
    steps: impl Iterator<Item = ([f64; MR], &'s [f64; NR])>,
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
    microkernel(steps, &mut acc);
    for (i, accr) in acc.iter().enumerate().take(iw) {
        let dst = &mut out[(r0 + i) * stride + c0..(r0 + i) * stride + c0 + jw];
        dst.copy_from_slice(&accr[..jw]);
    }
}

/// Accumulate `out[rows x jcols] += A[rows, kcols] * B[kcols, jcols]` for
/// one packed `B` slab, on the instantiation the slab was packed for.
///
/// `out` is row-major with stride `out_stride` and holds `a.rows.len()`
/// rows starting at row `a.rows.start` of the full product (columns are
/// indexed globally, so `out_stride` is the product's full width). `A` is
/// read in place, row by row, never copied.
///
/// Per output element the `k` accumulation order is strictly increasing
/// within the slab, and `out` is read-modify-written, so driving slabs in
/// increasing `k` order reproduces the serial reference chain bit-for-bit
/// (see module docs; callers must gate on [`all_finite`]`(B)`).
pub fn gemm_packed_rows(a: &AView<'_>, bp: &PackedB, out: &mut [f64], out_stride: usize) {
    debug_assert_eq!(a.kcols.len(), bp.kc);
    debug_assert!(out.len() >= a.rows.len().saturating_sub(1) * out_stride);
    bp.isa.run(GemmRows { a, bp, out, out_stride });
}

/// [`gemm_packed_rows`]'s loop nest, as a [`Tiled`] body.
struct GemmRows<'r, 'a> {
    a: &'r AView<'a>,
    bp: &'r PackedB,
    out: &'r mut [f64],
    out_stride: usize,
}

impl Tiled for GemmRows<'_, '_> {
    #[inline(always)]
    fn run<const MR: usize, const NR: usize>(self) {
        let GemmRows { a, bp, out, out_stride } = self;
        debug_assert_eq!(bp.nr(), NR);
        let (j0, j1) = (bp.jcols.start, bp.jcols.end);
        for i0 in (a.rows.start..a.rows.end).step_by(MC) {
            let i1 = (i0 + MC).min(a.rows.end);
            for (jt, jr) in (j0..j1).step_by(NR).enumerate() {
                let (btile, jw) = (bp.tile(jt), (jr + NR).min(j1) - jr);
                for ir in (i0..i1).step_by(MR) {
                    let iw = (ir + MR).min(i1) - ir;
                    let steps = row_steps::<MR, NR>(a, (ir, iw), btile);
                    tile(steps, out, out_stride, (ir - a.rows.start, jr), (iw, jw));
                }
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// How many times this thread has packed a slab, for tests that count.
    pub(crate) static PACKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

thread_local! {
    /// This thread's crossprod packing scratch, reused across calls.
    static CROSSPROD_SLAB: std::cell::RefCell<PackedB> = std::cell::RefCell::default();
}

/// `part += panel^T * panel` over the upper triangle of the `d x d`
/// partial, on `isa`'s register tile, for a panel of all-finite values
/// (`d` wide), packing each [`CROSSPROD_KC`]-row chunk into this thread's
/// slab (see the module docs). Each element sees the multiply-adds of the
/// row-at-a-time loop, in the same order. Tiles that
/// straddle the diagonal also store below it; callers mirror over that.
pub(crate) fn crossprod_tiles(isa: Isa, panel: &[f64], d: usize, part: &mut [f64]) {
    debug_assert!(all_finite(panel));
    CROSSPROD_SLAB.with_borrow_mut(|slab| isa.run(CrossprodTiles { isa, panel, d, part, slab }));
}

/// [`crossprod_tiles`]'s loop nest, as a [`Tiled`] body.
struct CrossprodTiles<'r> {
    isa: Isa,
    panel: &'r [f64],
    d: usize,
    part: &'r mut [f64],
    slab: &'r mut PackedB,
}

impl Tiled for CrossprodTiles<'_> {
    #[inline(always)]
    fn run<const MR: usize, const NR: usize>(self) {
        const { assert!(NR.is_multiple_of(MR), "an A sliver lies inside one packed tile") };
        let CrossprodTiles { isa, panel, d, part, slab } = self;
        for chunk in panel.chunks(CROSSPROD_KC * d) {
            slab.pack(isa, chunk, d, 0..chunk.len() / d, 0..d);
            // One packed column tile stays in L1 while every sliver at or
            // above the diagonal runs against it.
            for jt in 0..d.div_ceil(NR) {
                let (bt, jw) = (slab.tile(jt).as_chunks::<NR>().0, (jt * NR + NR).min(d) - jt * NR);
                for i0 in (0..(jt * NR + jw)).step_by(MR) {
                    let iw = (i0 + MR).min(d) - i0;
                    let (at, sliver) = (slab.tile(i0 / NR).as_chunks::<NR>().0, i0 % NR / MR);
                    let a = at.iter().map(|row| row.as_chunks::<MR>().0[sliver]);
                    tile(a.zip(bt), part, d, (i0, jt * NR), (iw, jw));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ROW_BLOCK;
    use crate::Dense;

    /// One multiply-add `step(a, b, acc)` of a reference chain.
    type Step = fn(f64, f64, f64) -> f64;

    /// The fused step every kernel runs.
    const FUSED: Step = f64::mul_add;

    /// A product rounded, then a sum rounded: what the kernels must not run.
    const UNFUSED: Step = |a, b, acc| a * b + acc;

    // The serial reference loop every kernel is pinned against: one `step`
    // per term in strictly increasing k, leaving out a zero `a` against a
    // non-finite `b`.
    fn gemm_chain(
        a: &[f64],
        b: &[f64],
        (m, k_dim, n): (usize, usize, usize),
        step: Step,
    ) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for k in 0..k_dim {
                let aik = a[i * k_dim + k];
                for j in 0..n {
                    let bkj = b[k * n + j];
                    if aik != 0.0 || bkj.is_finite() {
                        out[i * n + j] = step(aik, bkj, out[i * n + j]);
                    }
                }
            }
        }
        out
    }

    fn naive_gemm(a: &[f64], b: &[f64], m: usize, k_dim: usize, n: usize) -> Vec<f64> {
        gemm_chain(a, b, (m, k_dim, n), FUSED)
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
        for_each_slab(&mut PackedB::default(), b, n, k_dim, |slab, kcols| {
            let view = AView { data: a, stride: k_dim, rows: 0..m, kcols };
            gemm_packed_rows(&view, slab, &mut out, n);
        });
        out
    }

    #[test]
    fn packed_layout_is_k_major_and_zero_padded() {
        for isa in Isa::available() {
            // 3x5 B, one slab: 5 columns fit one tile of every width, padded.
            let b: Vec<f64> = (0..15).map(|i| i as f64 + 1.0).collect();
            let mut p = PackedB::default();
            p.pack(isa, &b, 5, 0..3, 0..5);
            let nr = p.nr();
            assert_eq!(p.kc, 3);
            // k-major: row k of the tile holds b[k][0..5] then nr-5 zeros.
            assert_eq!(&p.tile(0)[..5], &[1.0, 2.0, 3.0, 4.0, 5.0]);
            assert!(p.tile(0)[5..nr].iter().all(|&v| v == 0.0), "{isa:?}");
            assert_eq!(&p.tile(0)[nr..nr + 5], &[6.0, 7.0, 8.0, 9.0, 10.0]);
        }
    }

    #[test]
    fn bit_identical_across_shapes() {
        // Degenerate and non-multiple-of-tile shapes, including dims that
        // straddle every instantiation's MR/NR and KC/MC.
        for (m, k_dim, n) in [
            (0, 3, 4),
            (1, 1, 1),
            (1, 7, 13),
            (2, 12, 12),
            (3, 5, 1),
            (5, 0, 4),
            (17, 23, 29),
            (5, KC + 3, 13),
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
        for_each_slab(&mut PackedB::default(), &b, n, k_dim, |slab, kcols| {
            let view = AView { data: &a, stride: k_dim, rows: rows.clone(), kcols };
            gemm_packed_rows(&view, slab, &mut out, n);
        });
        for (oi, r) in rows.enumerate() {
            assert_eq!(&out[oi * n..(oi + 1) * n], &want[r * n..(r + 1) * n], "row {r}");
        }
    }

    /// Values with exact `0.0` and `-0.0` mixed in (what the zero-skip
    /// argument hinges on).
    fn signed_zeros(rows: usize, cols: usize, seed: usize) -> Dense {
        Dense::from_fn(rows, cols, |r, c| match (r * 7 + c * 3 + seed) % 13 {
            0 => 0.0,
            1 => -0.0,
            _ => ((r * 31 + c * 17 + seed) % 23) as f64 * 0.37 - 3.0,
        })
    }

    /// The fixed-block crossprod reduction, one `step` per term, leaving
    /// out a zero row entry `i` against a non-finite entry `j`: the
    /// semantics every instantiation must reproduce, including on panels
    /// that hold `NaN`/`inf`. Partials fold into zeros in block order.
    fn crossprod_chain(x: &Dense, step: Step) -> Vec<f64> {
        let d = x.cols();
        let mut out = vec![0.0; d * d];
        for block in x.data().chunks((ROW_BLOCK * d).max(1)) {
            let mut part = vec![0.0; d * d];
            for row in block.chunks_exact(d) {
                for i in 0..d {
                    for j in i..d {
                        if row[i] != 0.0 || row[j].is_finite() {
                            part[i * d + j] = step(row[i], row[j], part[i * d + j]);
                        }
                    }
                }
            }
            out.iter_mut().zip(&part).for_each(|(a, p)| *a += p);
        }
        crate::kernel::mirror_upper(d, &mut out);
        out
    }

    fn reference_crossprod(x: &Dense) -> Vec<f64> {
        crossprod_chain(x, FUSED)
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        if let Some(i) = got.iter().zip(want).position(|(g, w)| g.to_bits() != w.to_bits()) {
            panic!("{what}: element {i} is {:e}, reference has {:e}", got[i], want[i]);
        }
    }

    #[test]
    fn every_instantiation_computes_the_reference_bits() {
        // (rows, cols, b_cols): dims around every tile's MR (2, 4) and NR
        // (12, 8, 32), degenerate shapes, a tall panel, a gemm deeper than
        // KC and crossprods deeper than CROSSPROD_KC on either side of the
        // wide tile's width, plus `poison`ed cases whose B (for gemm and
        // the gemv against each of its columns) and first row block (for
        // crossprod) hold inf/NaN.
        let pinned = Isa::available();
        // Printed so a test log shows which tiles this CPU could check: one
        // without FMA pins the portable tile only.
        println!(
            "instantiations pinned to the reference bits (gemm, gemv, crossprod): {pinned:?} \
             (CPU reports fma: {})",
            fma_detected()
        );
        let shapes = [
            (0, 3, 2),
            (1, 3, 2),
            (3, 1, 2),
            (3, 0, 2),
            (0, 0, 2),
            (1, 1, 1),
            (2, 12, 12),
            (5, 9, 13),
            (7, 13, 3),
            (17, 23, 29),
            (40, 40, 40),
            (3000, 9, 5),
            (1600, 140, 7),
            (600, KC + 5, 17),
            (9, 31, 31),
            (33, 32, 32),
            (70, 33, 33),
            (37, 65, 65),
            (40, KC + 5, 33),
            (CROSSPROD_KC + 70, 13, 8),
            (CROSSPROD_KC + 9, 65, 40),
        ];
        for poison in [false, true] {
            for (rows, cols, b_cols) in shapes {
                let mut x = signed_zeros(rows, cols, 1);
                let mut b = signed_zeros(cols, b_cols, 3);
                if poison && rows > 2 && cols > 1 && b_cols > 1 {
                    // Each non-finite value meets a zero it would multiply
                    // without the skip: x[0][cols/2] against B's row
                    // cols/2, x[1][0] against x[1][cols-1].
                    x.set(0, cols / 2, 0.0);
                    x.set(1, 0, -0.0);
                    x.set(1, cols - 1, f64::INFINITY);
                    x.set(2, 0, f64::NAN);
                    b.set(cols / 2, 1, f64::NEG_INFINITY);
                    b.set(cols - 1, 0, f64::NAN);
                }
                let gemm_want = naive_gemm(x.data(), b.data(), rows, cols, b_cols);
                let cross_want = reference_crossprod(&x);
                // Column j of `m`, `b_cols` wide: gemv against column j of
                // B is gemm's one-column case.
                let column = |m: &[f64], j| m.iter().skip(j).step_by(b_cols).copied().collect();
                for &isa in &pinned {
                    for degree in [1, 3] {
                        let what = format!("{isa:?} {rows}x{cols}x{b_cols} degree {degree}");
                        let got = crate::par::gemm_on(isa, &x, &b, degree);
                        assert_bits(got.data(), &gemm_want, &format!("gemm {what}"));
                        for j in 0..b_cols {
                            let want: Vec<f64> = column(&gemm_want, j);
                            let got = crate::par::gemv_on(isa, &x, &column(b.data(), j), degree);
                            assert_bits(&got, &want, &format!("gemv column {j} {what}"));
                        }
                        let got = crate::par::crossprod_on(isa, &x, degree);
                        assert_bits(got.data(), &cross_want, &format!("crossprod {what}"));
                    }
                }
            }
        }
        // A read in place through views into a wider, taller matrix: the
        // rows start mid-matrix, the row stride is wider than the view's
        // columns, the row counts leave an MR fringe, and one depth spans
        // two KC slabs. The fringe's padded lanes borrow the view's last
        // row, which holds inf and -inf; so does the row past the view.
        let big = signed_zeros(40, KC + 40, 5);
        for (rows, k, n) in [(3..22, 9, 5), (3..22, 9, 33), (1..40, KC + 7, 13), (7..38, 40, 31)] {
            let mut a = big.clone();
            for r in [rows.end - 1, rows.end.min(39)] {
                a.set(r, 6, f64::INFINITY);
                a.set(r, 5 + k - 1, f64::NEG_INFINITY);
            }
            let block: Vec<f64> =
                rows.clone().flat_map(|r| a.data()[r * a.cols() + 5..][..k].to_vec()).collect();
            let b = signed_zeros(k, n, 7);
            let want = naive_gemm(&block, b.data(), rows.len(), k, n);
            for &isa in &pinned {
                let mut got = vec![0.0; rows.len() * n];
                for_each_slab_on(isa, &mut PackedB::default(), b.data(), n, k, |slab, ks| {
                    let kcols = 5 + ks.start..5 + ks.end;
                    let view =
                        AView { data: a.data(), stride: a.cols(), rows: rows.clone(), kcols };
                    gemm_packed_rows(&view, slab, &mut got, n);
                });
                assert_bits(&got, &want, &format!("{isa:?} view {rows:?} x 5..{} x {n}", 5 + k));
            }
        }
    }

    /// Entries `m / 3` for integers `m` in `-14..=14`: thirds have no
    /// finite binary expansion, so a product of two is rarely a double, and
    /// rounding it before the add moves the sum's last bits in most chains.
    fn thirds(rows: usize, cols: usize, seed: usize) -> Dense {
        Dense::from_fn(rows, cols, |r, c| ((r * 7 + c * 13 + seed) % 29) as f64 / 3.0 - 14.0 / 3.0)
    }

    /// How many elements of `got` differ from `want` in any bit.
    fn differing(got: &[f64], want: &[f64]) -> usize {
        got.iter().zip(want).filter(|(g, w)| g.to_bits() != w.to_bits()).count()
    }

    #[test]
    fn every_path_rounds_each_multiply_add_once() {
        // Inputs on which rounding each multiply-add once (`mul_add`) and
        // rounding the product and the sum apart give different bits, run
        // through the tiles of every instantiation at degrees 1 and 3, the
        // fused map-sum, and (poisoned) gemm's reference body and
        // crossprod's row loop. Two row blocks, so crossprod folds.
        let (rows, k, n) = (ROW_BLOCK + 70, 40, 35);
        for poison in [false, true] {
            let mut x = thirds(rows, k, 1);
            let mut b = thirds(k, n, 2);
            if poison {
                // A zero against a non-finite value in the first row
                // block: gemm runs its reference body, that block's
                // crossprod its row loop.
                x.set(3, 5, 0.0);
                x.set(3, 9, f64::INFINITY);
                b.set(5, 4, f64::NAN);
            }
            let gemm_want = gemm_chain(x.data(), b.data(), (rows, k, n), FUSED);
            let cross_want = crossprod_chain(&x, FUSED);
            // The inputs witness the rounding: many elements differ unfused.
            let unfused = gemm_chain(x.data(), b.data(), (rows, k, n), UNFUSED);
            assert!(differing(&unfused, &gemm_want) > gemm_want.len() / 8, "gemm witness");
            let unfused = crossprod_chain(&x, UNFUSED);
            assert!(differing(&unfused, &cross_want) > cross_want.len() / 8, "crossprod witness");
            let sum_want = gemm_want.iter().fold(std::iter::empty::<f64>().sum(), |s, &v| s + v);
            for isa in Isa::available() {
                for degree in [1, 3] {
                    let what = format!("{isa:?} degree {degree} poison {poison}");
                    let got = crate::par::gemm_on(isa, &x, &b, degree);
                    assert_bits(got.data(), &gemm_want, &format!("gemm {what}"));
                    let got = crate::par::crossprod_on(isa, &x, degree);
                    assert_bits(got.data(), &cross_want, &format!("crossprod {what}"));
                }
            }
            for degree in [1, 3] {
                let got = crate::par::gemm_map_sum(&x, &b, |_| {}, degree);
                assert_bits(&[got], &[sum_want], &format!("gemm_map_sum degree {degree}"));
            }
        }
    }

    /// Whether this CPU reports FMA, which every vector instantiation needs.
    fn fma_detected() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        return false;
    }

    #[test]
    fn each_output_width_gets_its_tile() {
        // The wide tile only where the output fills one; 4x8 below that.
        let narrow = if Isa::Avx2.supported() { Isa::Avx2 } else { Isa::Portable };
        let wide = if Isa::Avx512.supported() { Isa::Avx512 } else { narrow };
        for width in [0, 1, 4, 8, 16, AVX512_NR - 1] {
            assert_eq!(Isa::for_width(width), narrow, "width {width}");
        }
        for width in [AVX512_NR, AVX512_NR + 1, 65, 256, 4096] {
            assert_eq!(Isa::for_width(width), wide, "width {width}");
        }
        assert_eq!(Isa::available().contains(&Isa::Avx512), Isa::Avx512.supported());
        // A vector tile runs `mul_add` as one instruction: none is chosen
        // on a CPU that does not report FMA.
        for isa in Isa::available().into_iter().chain([narrow, wide]) {
            assert!(isa == Isa::Portable || fma_detected(), "{isa:?} without fma");
        }
        // The rule reaches every entry point: a default slab packs for it.
        let mut slab = PackedB::default();
        for (width, isa) in [(AVX512_NR - 1, narrow), (AVX512_NR, wide)] {
            for_each_slab(&mut slab, &vec![1.0; 2 * width], width, 2, |_, _| {});
            assert_eq!(slab.nr(), isa.nr(), "a slab {width} wide");
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

//! E16 — single-core kernel microbenchmarks with GFLOP/s reporting.
//!
//! Isolates the dense and compressed inner kernels from planner/buffer
//! machinery so kernel-level regressions show up undiluted:
//!
//! - `gemm_{n}`: serial packed gemm ([`ops::gemm`]) at n = 256 .. 2048.
//!   The pack-and-microkernel restructure is judged here — GFLOP/s should
//!   stay flat as n grows past cache sizes instead of falling off a cliff.
//! - `gemv` / `crossprod`: memory-bound dense kernels (eight rows'
//!   fused multiply-add chains interleaved in one pass over `v`,
//!   slice-zip upper-triangle accumulation).
//! - `gemv_{ole,ddc,rle}`: CLA column-group gemv on clustered data, one
//!   encoding per case. "Effective" GFLOP/s is computed against the nominal
//!   dense flop count (2·rows·cols), so beating `gemv` means pre-aggregation
//!   is paying off, not that more arithmetic got done.
//!
//! Besides the criterion timings (consumed by `scripts/bench_snapshot.sh`
//! and gated by `scripts/bench_regress.py` in CI), each kernel prints an
//! `e16 gflops <case> <value>` line from a best-of-N wall-clock measurement
//! for direct comparison with EXPERIMENTS.md tables.
//!
//! `small_{gemm,crossprod}` lines time the products of short matrix chains
//! (`m`, `k` <= 32 and output widths 4 .. 32, the shapes a cold plan cache
//! compiles and runs per request) in nanoseconds per call, where the
//! register tile's width rule and scratch reuse decide the cost, not the
//! flops.
//!
//! `e16 tall` lines time the serial products of a tall `X` (8192x256, the
//! `inproc_dense` operand): gemm against 8, 32 and 128 columns and
//! crossprod, best-of-7 in milliseconds with their GFLOP/s. The
//! `e16 tall pass_8192x256` lines time `inproc_dense`'s three reductions of
//! `X` (crossprod, `sum(exp(X %*% W))` with `W` 128 wide, and `t(X) %*% y`)
//! as separate kernels and as one row pass (`par::row_pass`), serially and
//! at degree 2, best-of-7.
//!
//! `e16 exp` lines time `e^x` over 1 M values in place (`EXP_N`, drawn
//! from [-10, 10]): libm's `f64::exp` one value at a time against the
//! in-tree `kernel::exp_in_place` on each instantiation this CPU has,
//! best-of-15 in ns per value and GB/s (8 bytes read and 8 written per
//! value). Each call gets the inputs restored first, outside the timed
//! region. The criterion ids `exp_libm` and `exp` (the instantiation the
//! dispatcher picks) restore them inside it, a copy both ids pay.
//!
//! `DMML_BENCH_E16_MAX_N` caps the largest gemm size (default 2048) so
//! constrained runners can keep the bench cheap without losing the ids that
//! CI gates on smaller sizes.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use dm_compress::group::{encode, Encoding};
use dm_compress::kernels;
use dm_matrix::pack::Isa;
use dm_matrix::par::{self, Member};
use dm_matrix::{kernel, ops, Dense};

const GEMM_SIZES: [usize; 4] = [256, 512, 1024, 2048];
const GEMV_N: usize = 2048;
const XPROD_ROWS: usize = 4096;
const XPROD_COLS: usize = 256;
const SMALL_WIDTHS: [usize; 4] = [4, 8, 16, 32];
const TALL_ROWS: usize = 8192;
const TALL_COLS: usize = 256;
const TALL_WIDTHS: [usize; 3] = [8, 32, 128];
const SMALL_DEPTH: usize = 32;
const CLA_ROWS: usize = 100_000;
const CLA_COLS: usize = 8;
const EXP_N: usize = 1 << 20;

fn max_gemm_n() -> usize {
    std::env::var("DMML_BENCH_E16_MAX_N").ok().and_then(|v| v.parse().ok()).unwrap_or(2048)
}

fn sample(rows: usize, cols: usize, seed: u64) -> Dense {
    dm_data::matgen::dense_uniform(rows, cols, -1.0, 1.0, seed)
}

/// Best-of-`reps` wall-clock time of `f`, for the GFLOP/s summary lines.
/// Minimum (not mean) because kernel throughput questions are about the
/// undisturbed run, and interference only ever adds time.
fn time_best(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best
}

fn report_gflops(case: &str, flops: f64, best: Duration) {
    println!("e16 gflops {case:<14} {:.2}", flops / best.as_secs_f64() / 1e9);
}

/// Reference ikj triple loop, one `mul_add` per term in increasing `k` —
/// the bit-identity contract the packed kernel must honor on finite inputs.
fn naive_gemm(a: &Dense, b: &Dense) -> Dense {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Dense::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aik = a.data()[i * k + p];
            let brow = &b.data()[p * n..(p + 1) * n];
            let orow = &mut out.data_mut()[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = aik.mul_add(bv, *o);
            }
        }
    }
    out
}

fn bench(c: &mut Criterion) {
    let test_mode = std::env::args().skip(1).any(|a| a == "--test");
    let max_n = max_gemm_n();

    // Preflight: the packed path must be bit-identical to the reference
    // kernel on a shape that exercises every edge-tile case.
    {
        let a = sample(67, 91, 3);
        let b = sample(91, 53, 4);
        let packed = ops::gemm(&a, &b);
        let naive = naive_gemm(&a, &b);
        for (x, y) in packed.data().iter().zip(naive.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "packed gemm must stay bit-identical");
        }
    }

    let mut g = c.benchmark_group("e16_kernels");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(2));

    println!("\n=== E16: kernel throughput (serial, GFLOP/s from best-of wall clock) ===");

    for n in GEMM_SIZES {
        if n > max_n {
            println!("e16 skip gemm_{n} (DMML_BENCH_E16_MAX_N={max_n})");
            continue;
        }
        let a = sample(n, n, 11);
        let b = sample(n, n, 12);
        let case = format!("gemm_{n}");
        if !test_mode {
            let reps = if n >= 1024 { 3 } else { 5 };
            let best = time_best(reps, || {
                ops::gemm(&a, &b);
            });
            report_gflops(&case, 2.0 * (n * n * n) as f64, best);
        }
        g.bench_function(&case, |bn| bn.iter(|| ops::gemm(&a, &b)));
    }

    {
        let m = sample(GEMV_N, GEMV_N, 13);
        let v: Vec<f64> = (0..GEMV_N).map(|i| (i as f64).sin()).collect();
        if !test_mode {
            let best = time_best(20, || {
                ops::gemv(&m, &v);
            });
            report_gflops("gemv", 2.0 * (GEMV_N * GEMV_N) as f64, best);
        }
        g.bench_function("gemv", |bn| bn.iter(|| ops::gemv(&m, &v)));
    }

    {
        let m = sample(XPROD_ROWS, XPROD_COLS, 14);
        // Upper triangle incl. diagonal, mirrored afterwards: d(d+1)/2
        // multiply-adds per row.
        let flops = XPROD_ROWS as f64 * (XPROD_COLS * (XPROD_COLS + 1)) as f64;
        if !test_mode {
            let best = time_best(5, || {
                ops::crossprod(&m);
            });
            report_gflops("crossprod", flops, best);
        }
        g.bench_function("crossprod", |bn| bn.iter(|| ops::crossprod(&m)));
    }

    // Tall products: best-of-7 serial runs, in ms and GFLOP/s.
    {
        let x = sample(TALL_ROWS, TALL_COLS, 17);
        let (m, d) = (TALL_ROWS as f64, TALL_COLS as f64);
        let tall = |case: String, flops: f64, f: &dyn Fn()| {
            let best = time_best(if test_mode { 1 } else { 7 }, f);
            if !test_mode {
                let (ms, gflops) = (best.as_secs_f64() * 1e3, flops / best.as_secs_f64() / 1e9);
                println!("e16 tall {case:<22} {ms:.2} ms {gflops:.2} GFLOP/s");
            }
        };
        for w in TALL_WIDTHS {
            let b = sample(TALL_COLS, w, 18);
            tall(format!("gemm_{TALL_ROWS}x{TALL_COLS}x{w}"), 2.0 * m * d * w as f64, &|| {
                std::hint::black_box(ops::gemm(&x, &b));
            });
        }
        tall(format!("crossprod_{TALL_ROWS}x{TALL_COLS}"), m * d * (d + 1.0), &|| {
            std::hint::black_box(ops::crossprod(&x));
        });
        // inproc_dense's three reductions of X: separately (tmv serial, as
        // the executor ran it alone), then as one row pass.
        let (w, y) = (sample(TALL_COLS, 128, 20), sample(TALL_ROWS, 1, 21).into_vec());
        let exp = |p: &mut [f64]| kernel::exp_in_place(p);
        for degree in [1, 2] {
            let separate = time_best(if test_mode { 1 } else { 7 }, || {
                std::hint::black_box(par::crossprod(&x, degree));
                std::hint::black_box(par::gemm_map_sum(&x, &w, exp, degree));
                std::hint::black_box(par::gevm(&y, &x, 1));
            });
            let members = [Member::CrossProd, Member::GemmMapSum(&w, &exp), Member::Gevm(&y)];
            let pass = time_best(if test_mode { 1 } else { 7 }, || {
                std::hint::black_box(par::row_pass(&x, &members, degree));
            });
            if !test_mode {
                let ms = |t: Duration| t.as_secs_f64() * 1e3;
                println!(
                    "e16 tall pass_{TALL_ROWS}x{TALL_COLS} degree {degree}: separate {:.2} ms, \
                     one pass {:.2} ms",
                    ms(separate),
                    ms(pass)
                );
            }
        }
    }

    // exp: best-of-15 in-place maps of EXP_N values, in ns per value.
    {
        let xs = sample(EXP_N, 1, 19).data().iter().map(|v| v * 10.0).collect::<Vec<f64>>();
        let mut buf = xs.clone();
        let libm = |p: &mut [f64]| p.iter_mut().for_each(|v| *v = v.exp());
        // `None` is libm.
        for isa in std::iter::once(None).chain(Isa::available().into_iter().map(Some)) {
            let mut best = Duration::MAX;
            for _ in 0..if test_mode { 1 } else { 15 } {
                buf.copy_from_slice(&xs);
                let t = Instant::now();
                match isa {
                    Some(isa) => kernel::exp_in_place_on(isa, std::hint::black_box(&mut buf)),
                    None => libm(std::hint::black_box(&mut buf)),
                }
                best = best.min(t.elapsed());
            }
            if !test_mode {
                let case = isa.map_or("libm".to_owned(), |isa| format!("{isa:?}").to_lowercase());
                let ns = best.as_secs_f64() * 1e9 / EXP_N as f64;
                println!("e16 exp {case:<10} {ns:.2} ns/value {:.2} GB/s", 16.0 / ns);
            }
        }
        g.bench_function("exp_libm", |bn| {
            bn.iter(|| {
                buf.copy_from_slice(&xs);
                libm(&mut buf);
            })
        });
        g.bench_function("exp", |bn| {
            bn.iter(|| {
                buf.copy_from_slice(&xs);
                kernel::exp_in_place(&mut buf);
            })
        });
    }

    // Small products: best-of-7 batches of 2000 calls, in ns per call.
    for w in SMALL_WIDTHS {
        let a = sample(SMALL_DEPTH, SMALL_DEPTH, 15);
        let b = sample(SMALL_DEPTH, w, 16);
        let cases: [(String, &dyn Fn()); 2] = [
            (format!("gemm_{SMALL_DEPTH}x{SMALL_DEPTH}x{w}"), &|| {
                std::hint::black_box(ops::gemm(std::hint::black_box(&a), &b));
            }),
            (format!("crossprod_{SMALL_DEPTH}x{w}"), &|| {
                std::hint::black_box(ops::crossprod(std::hint::black_box(&b)));
            }),
        ];
        for (case, f) in cases {
            let calls = if test_mode { 1 } else { 2000 };
            let best = time_best(if test_mode { 1 } else { 7 }, || (0..calls).for_each(|_| f()));
            if !test_mode {
                println!("e16 small {case:<14} {:.0} ns", best.as_nanos() as f64 / calls as f64);
            }
        }
    }

    {
        let m = dm_data::matgen::clustered(CLA_ROWS, CLA_COLS, 10, 512, 7);
        let v: Vec<f64> = (0..CLA_COLS).map(|i| i as f64 * 0.3 - 1.0).collect();
        let cols: Vec<usize> = (0..CLA_COLS).collect();
        let expect = ops::gemv(&m, &v);
        let nominal = 2.0 * (CLA_ROWS * CLA_COLS) as f64;
        for (enc, case) in
            [(Encoding::Ole, "gemv_ole"), (Encoding::Ddc, "gemv_ddc"), (Encoding::Rle, "gemv_rle")]
        {
            let grp = encode(&m, &cols, enc);
            let mut out = vec![0.0; CLA_ROWS];
            kernels::gemv_into(&grp, &v, &mut out);
            for (a, b) in out.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-9, "{case} disagrees with dense gemv");
            }
            if !test_mode {
                let best = time_best(20, || {
                    out.iter_mut().for_each(|o| *o = 0.0);
                    kernels::gemv_into(&grp, &v, &mut out);
                });
                report_gflops(case, nominal, best);
            }
            g.bench_function(case, |bn| {
                bn.iter(|| {
                    out.iter_mut().for_each(|o| *o = 0.0);
                    kernels::gemv_into(&grp, &v, &mut out);
                })
            });
        }
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

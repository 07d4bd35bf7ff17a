//! One cross-schedule test: every dense operator computes the same bits
//! serially (`dm_matrix::ops`), in parallel (`dm_matrix::par`) and out of
//! core (`dm_buffer::ooc`) under a pool that evicts.
//!
//! The three schedules share one kernel body per operator
//! (`dm_matrix::kernel`) and differ only in how they cut row panels and fold
//! partials, so this table is the whole cross-tier contract: panel heights
//! that divide, straddle and exceed `ROW_BLOCK`, degrees that do and do not
//! divide the work, degenerate shapes, exact zeros and `-0.0` (the terms
//! gemm's reference body leaves out and the gevm scalar skip), a `B` with
//! one non-finite panel (gemm then mixes the packed and the reference
//! body), products wide enough for the widest register tile, and a last
//! panel whose rows leave a tile fringe. A second test pins the
//! out-of-core gemm and crossprod to a fused multiply-add reference chain
//! on inputs where rounding the product apart would change the bits, and a
//! third the out-of-core gemv to the columns of the out-of-core gemm
//! against the stacked vectors.

use dm_buffer::policy::PolicyKind;
use dm_buffer::storage::MemStore;
use dm_buffer::SharedBufferPool;
use dm_buffer::{ooc, panel_bytes, store_bytes, BlockStore, BufferPool, PoolError};
use dm_matrix::par::ROW_BLOCK;
use dm_matrix::{ops, par, Dense};

type Pool = SharedBufferPool<MemStore>;
type Store = BlockStore<MemStore>;

const PAR_DEGREES: [usize; 3] = [2, 3, 8];
const OOC_DEGREES: [usize; 3] = [1, 2, 4];
const PANEL_HEIGHTS: [usize; 4] = [128, 700, 1024, 1500];

/// The operands every operator of one case reads: `x` (and `y`, its
/// elementwise partner), gemm's `b`, gemv's `v` and gevm's `u`.
struct Case {
    name: String,
    x: Dense,
    y: Dense,
    b: Dense,
    v: Vec<f64>,
    u: Vec<f64>,
}

/// Deterministic values with exact zeros and `-0.0` mixed in.
fn sample(rows: usize, cols: usize, seed: usize) -> Dense {
    Dense::from_fn(rows, cols, |r, c| match (r * 7 + c * 3 + seed) % 13 {
        0 => 0.0,
        1 => -0.0,
        _ => ((r * 31 + c * 17 + seed) % 23) as f64 * 0.37 - 3.0,
    })
}

fn case(name: &str, rows: usize, cols: usize, b_cols: usize) -> Case {
    let skip = |i: usize, x: f64| match i % 5 {
        0 => 0.0,
        1 => -0.0,
        _ => x,
    };
    Case {
        name: format!("{name} {rows}x{cols}"),
        x: sample(rows, cols, 1),
        y: sample(rows, cols, 2),
        b: sample(cols, b_cols, 3),
        v: (0..cols).map(|i| skip(i + 2, i as f64 * 0.21 - 1.0)).collect(),
        u: (0..rows).map(|i| skip(i, ((i % 29) as f64) * 0.11 - 1.5)).collect(),
    }
}

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> =
        [(0, 3), (1, 3), (3, 1), (0, 0), (1, 1)].map(|(r, c)| case("edge", r, c, 2)).into();
    cases.push(case("tall", 3000, 9, 5));
    // Deep enough that B spans two panels at height 128; the second holds
    // the non-finite values, so gemm runs the packed body on the first and
    // the reference body on the second.
    let mut deep = case("deep", 1600, 140, 7);
    deep.b.set(130, 3, f64::INFINITY);
    deep.b.set(135, 5, f64::NAN);
    cases.push(deep);
    // Wide enough for the widest register tile (32 columns) with a fringe
    // on both products, over more than one ROW_BLOCK: on a CPU with
    // AVX-512F gemm and crossprod both run the 4x32 tile here.
    cases.push(case("wide", 2100, 40, 33));
    // 1027 rows: at every panel height the last pool panel leaves a fringe
    // of 3 rows, whose padded tile lanes read the panel's last row again;
    // that row holds an inf and a NaN.
    let mut ragged = case("ragged", 1027, 37, 33);
    ragged.x.set(1026, 4, f64::INFINITY);
    ragged.x.set(1026, 30, f64::NAN);
    cases.push(ragged);
    cases
}

/// The case's operands tiled into one pool.
struct Stores {
    x: Store,
    y: Store,
    b: Store,
}

type Bits = Vec<u64>;

fn bits(data: &[f64]) -> Bits {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Materialize an output store and drop its tiles.
fn collect(out: Store) -> Result<Bits, PoolError> {
    let d = out.to_dense()?;
    out.discard()?;
    Ok(bits(d.data()))
}

/// An operator run out of core over the case's stores at a degree.
type OocRun = fn(&Stores, &Case, usize) -> Result<Bits, PoolError>;

/// One operator under each schedule; `None` where the schedule has no such
/// operator (no parallel elementwise map, no out-of-core gevm or sum_sq).
struct Operator {
    name: &'static str,
    serial: fn(&Case) -> Bits,
    par: Option<fn(&Case, usize) -> Bits>,
    ooc: Option<OocRun>,
}

fn mul(x: f64, y: f64) -> f64 {
    x * y
}

fn affine(x: f64) -> f64 {
    x * 2.5 - 1.0
}

fn operators() -> [Operator; 8] {
    [
        Operator {
            name: "gemv",
            serial: |c| bits(&ops::gemv(&c.x, &c.v)),
            par: Some(|c, d| bits(&par::gemv(&c.x, &c.v, d))),
            ooc: Some(|s, c, d| Ok(bits(&ooc::gemv(&s.x, &c.v, d)?))),
        },
        Operator {
            name: "gevm",
            serial: |c| bits(&ops::gevm(&c.u, &c.x)),
            par: Some(|c, d| bits(&par::gevm(&c.u, &c.x, d))),
            ooc: None,
        },
        Operator {
            name: "gemm",
            serial: |c| bits(ops::gemm(&c.x, &c.b).data()),
            par: Some(|c, d| bits(par::gemm(&c.x, &c.b, d).data())),
            ooc: Some(|s, _, d| collect(ooc::gemm(&s.x, &s.b, d)?)),
        },
        Operator {
            name: "crossprod",
            serial: |c| bits(ops::crossprod(&c.x).data()),
            par: Some(|c, d| bits(par::crossprod(&c.x, d).data())),
            ooc: Some(|s, _, d| Ok(bits(ooc::crossprod(&s.x, d)?.data()))),
        },
        Operator {
            name: "col_sums",
            serial: |c| bits(&ops::col_sums(&c.x)),
            par: Some(|c, d| bits(&par::col_sums(&c.x, d))),
            ooc: Some(|s, _, d| Ok(bits(&ooc::col_sums(&s.x, d)?))),
        },
        Operator {
            name: "sum_sq",
            serial: |c| bits(&[ops::sum_sq(&c.x)]),
            par: Some(|c, d| bits(&[par::sum_sq(&c.x, d)])),
            ooc: None,
        },
        Operator {
            name: "ewise",
            serial: |c| bits(ops::mul(&c.x, &c.y).data()),
            par: None,
            ooc: Some(|s, _, d| collect(ooc::ewise(&s.x, &s.y, mul, d)?)),
        },
        Operator {
            name: "map",
            serial: |c| bits(c.x.map(affine).data()),
            par: None,
            ooc: Some(|s, _, d| collect(ooc::map(&s.x, affine, d)?)),
        },
    ]
}

fn assert_same(got: &Bits, want: &Bits, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = got.iter().zip(want).position(|(g, w)| g != w) {
        let (g, w) = (f64::from_bits(got[i]), f64::from_bits(want[i]));
        panic!("{what}: element {i} is {g:e}, serial has {w:e}");
    }
}

/// A pool that holds half of the case's working set (its operands plus the
/// largest output) — but never less than the three panels one gemm or ewise
/// worker pins at once. Also says whether that working set must evict.
fn evicting_pool(c: &Case, h: usize) -> (Pool, bool) {
    let (rows, cols) = (c.x.rows(), c.x.cols());
    let out = store_bytes(rows, cols.max(c.b.cols()), h);
    let working_set = 2 * store_bytes(rows, cols, h) + store_bytes(cols, c.b.cols(), h) + out;
    let widest = cols.max(c.b.cols());
    let one_worker = 3 * panel_bytes(h.min(rows.max(cols)), widest);
    let capacity = (working_set / 2).max(one_worker);
    let pool = BufferPool::new(capacity, PolicyKind::Lru, MemStore::default());
    (SharedBufferPool::new(pool), working_set > capacity)
}

#[test]
fn every_operator_computes_the_same_bits_under_every_schedule() {
    let operators = operators();
    for c in cases() {
        let want: Vec<Bits> = operators.iter().map(|op| (op.serial)(&c)).collect();
        for (op, want) in operators.iter().zip(&want) {
            let Some(run) = op.par else { continue };
            for d in PAR_DEGREES {
                assert_same(&run(&c, d), want, &format!("{} {}: par degree {d}", op.name, c.name));
            }
        }
        for h in PANEL_HEIGHTS {
            let (pool, evicts) = evicting_pool(&c, h);
            assert!(evicts || c.name.starts_with("edge"), "{}: the pool must evict", c.name);
            let load = |m: &Dense| BlockStore::from_dense(&pool, m, h).unwrap();
            let s = Stores { x: load(&c.x), y: load(&c.y), b: load(&c.b) };
            for (op, want) in operators.iter().zip(&want) {
                let Some(run) = op.ooc else { continue };
                for d in OOC_DEGREES {
                    let what = format!("{} {}: ooc panel {h} degree {d}", op.name, c.name);
                    assert_same(&run(&s, &c, d).expect(&what), want, &what);
                }
            }
            assert!(!evicts || pool.stats().evictions > 0, "{}: panel {h} never evicted", c.name);
            pool.audit_quiescent().unwrap();
            drop(s);
            assert_eq!(pool.used(), 0, "{}: the dropped operands left pages", c.name);
        }
    }
}

/// One multiply-add `step(a, b, acc)` of a reference chain.
type Step = fn(f64, f64, f64) -> f64;

/// Entries `m / 3`: a product of two thirds is rarely a double, so rounding
/// it before the add moves the sum's last bits in most chains.
fn thirds(rows: usize, cols: usize, seed: usize) -> Dense {
    Dense::from_fn(rows, cols, |r, c| ((r * 7 + c * 13 + seed) % 29) as f64 / 3.0 - 14.0 / 3.0)
}

/// `a * b` as a chain of one `step` per term in increasing `k`, leaving out
/// a zero `a` against a non-finite `b`.
fn gemm_chain(a: &Dense, b: &Dense, step: Step) -> Bits {
    let n = b.cols();
    let mut out = vec![0.0; a.rows() * n];
    for (arow, orow) in a.data().chunks_exact(a.cols()).zip(out.chunks_exact_mut(n.max(1))) {
        for (&aik, brow) in arow.iter().zip(b.data().chunks_exact(n.max(1))) {
            for (o, &bkj) in orow.iter_mut().zip(brow) {
                if aik != 0.0 || bkj.is_finite() {
                    *o = step(aik, bkj, *o);
                }
            }
        }
    }
    bits(&out)
}

/// `x^T x` as per-`ROW_BLOCK` chains of one `step` per upper term, leaving
/// out a zero entry `i` against a non-finite entry `j`, folded into zeros
/// in block order and mirrored.
fn crossprod_chain(x: &Dense, step: Step) -> Bits {
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
        out.iter_mut().zip(&part).for_each(|(o, p)| *o += p);
    }
    for i in 0..d {
        for j in 0..i {
            out[i * d + j] = out[j * d + i];
        }
    }
    bits(&out)
}

#[test]
fn out_of_core_products_round_each_multiply_add_once() {
    // Panels of 16 rows: B's three panels run the packed body, then the
    // reference body (its panel holds a NaN), then packed again; X's first
    // row block holds an inf beside a zero, so its crossprod panels mix the
    // tiles and the row loop too.
    let (fused, unfused): (Step, Step) = (f64::mul_add, |a, b, acc| a * b + acc);
    let mut x = thirds(ROW_BLOCK + 70, 40, 1);
    let mut b = thirds(40, 35, 2);
    x.set(20, 5, 0.0);
    x.set(20, 9, f64::INFINITY);
    b.set(20, 4, f64::NAN);
    let gemm_want = gemm_chain(&x, &b, fused);
    let cross_want = crossprod_chain(&x, fused);
    // The inputs witness the rounding: many elements differ unfused.
    let differing = |got: &Bits, want: &Bits| got.iter().zip(want).filter(|(g, w)| g != w).count();
    assert!(differing(&gemm_chain(&x, &b, unfused), &gemm_want) > gemm_want.len() / 8);
    assert!(differing(&crossprod_chain(&x, unfused), &cross_want) > cross_want.len() / 8);
    let pool = Pool::new(BufferPool::new(1 << 16, PolicyKind::Lru, MemStore::default()));
    let (sx, sb) = (
        BlockStore::from_dense(&pool, &x, 16).unwrap(),
        BlockStore::from_dense(&pool, &b, 16).unwrap(),
    );
    for d in OOC_DEGREES {
        let got = collect(ooc::gemm(&sx, &sb, d).unwrap()).unwrap();
        assert_same(&got, &gemm_want, &format!("ooc gemm degree {d}"));
        let got = ooc::crossprod(&sx, d).unwrap();
        assert_same(&bits(got.data()), &cross_want, &format!("ooc crossprod degree {d}"));
    }
    assert!(pool.stats().evictions > 0, "it ran out of core");
}

/// Column `j` of a row-major matrix `cols` wide.
fn column<T: Copy>(m: &[T], cols: usize, j: usize) -> Vec<T> {
    m.iter().skip(j).step_by(cols).copied().collect()
}

#[test]
fn out_of_core_gemv_is_gemms_one_column_case() {
    // Column j of the out-of-core product against V = [v1 .. v5] has the
    // bits of the out-of-core gemv against vj, and of the fused reference
    // chain. Panels of 16 rows under a pool that evicts; V's middle panel
    // holds an inf and a NaN in a row that X holds zeros against in most
    // rows, so gemm mixes the packed and the reference body there, and
    // gemv leaves out the same terms.
    let mut x = thirds(ROW_BLOCK + 70, 40, 3);
    let mut v = thirds(40, 5, 4);
    for r in (0..x.rows()).filter(|r| r % 5 != 0) {
        x.set(r, 20, if r % 2 == 0 { 0.0 } else { -0.0 });
    }
    v.set(20, 1, f64::INFINITY);
    v.set(20, 3, f64::NAN);
    let want = gemm_chain(&x, &v, f64::mul_add);
    let pool = Pool::new(BufferPool::new(1 << 16, PolicyKind::Lru, MemStore::default()));
    let (sx, sv) = (
        BlockStore::from_dense(&pool, &x, 16).unwrap(),
        BlockStore::from_dense(&pool, &v, 16).unwrap(),
    );
    for d in OOC_DEGREES {
        let stacked = collect(ooc::gemm(&sx, &sv, d).unwrap()).unwrap();
        assert_same(&stacked, &want, &format!("ooc gemm degree {d}"));
        for j in 0..v.cols() {
            let got = ooc::gemv(&sx, &column(v.data(), v.cols(), j), d).unwrap();
            let what = format!("ooc gemv column {j} degree {d}");
            assert_same(&bits(&got), &column(&stacked, v.cols(), j), &what);
        }
    }
    assert!(pool.stats().evictions > 0, "it ran out of core");
}

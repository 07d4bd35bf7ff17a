//! The `inproc_*` workloads: no server. The program compiles once in set-up
//! and one op is one `Executor::with_plan(..).eval(..)` on the compiled plan
//! — the library use of the kernels, in memory at degree 2 (`inproc_dense`)
//! or serial through the spill pool under a 4 MiB budget (`inproc_blocked`).

use crate::gen::{self, Case, INPROC_COLS, INPROC_OUT, INPROC_ROWS};
use crate::harness::{self, Report};
use crate::ledger::{Ledger, PerLayer};
use crate::machine;
use crate::reference::{self, Mat, REL_TOL};
use crate::spans::{self, Recorder};
use dm_buffer::PoolStats;
use dm_lang::exec::{Env, Executor};
use dm_lang::memory::MemoryBudget;
use dm_lang::physical::Kernel;
use dm_lang::size::InputSizes;
use dm_lang::{CompiledProgram, CostModel, Op};
use dm_matrix::{par, Dense, Matrix};
use dm_obs::ProfileStore;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    degree: usize,
    /// `None` is unbounded: everything stays in memory.
    budget_bytes: Option<usize>,
}

pub const DENSE: Spec = Spec { name: "inproc_dense", degree: 2, budget_bytes: None };
/// X alone is 16 MiB, so crossprod and gemm must plan as blocked kernels.
pub const BLOCKED: Spec = Spec { name: "inproc_blocked", degree: 1, budget_bytes: Some(4 << 20) };

/// Evals during set-up, before the clock starts: worker spin-up, spill
/// directory, allocator growth.
const WARM_OPS: usize = 2;
/// Traced ops written to the trace file.
const TRACE_FILE_OPS: u32 = 20;

impl Spec {
    fn budget(&self) -> MemoryBudget {
        self.budget_bytes.map_or(MemoryBudget::unbounded(), MemoryBudget::bytes)
    }

    /// The workload of the other tier, whose result must have the same bits.
    fn other(&self) -> Spec {
        if self.budget_bytes.is_some() {
            DENSE
        } else {
            BLOCKED
        }
    }
}

struct Live {
    prog: CompiledProgram,
    env: Env,
    /// What the warm-up evals returned; every later eval must repeat its bits.
    expected: f64,
    compile: Duration,
}

fn compile(spec: &Spec, case: &Case) -> CompiledProgram {
    let mut sizes = InputSizes::new();
    for i in &case.inputs {
        sizes.declare(&i.name, i.rows, i.cols, 1.0);
    }
    let model = CostModel::new(ProfileStore::new());
    dm_lang::compile(&case.expr.render(), &sizes, spec.degree, spec.budget(), &model)
        .expect("the inproc program compiles")
}

fn bind(case: Case) -> Env {
    let mut env = Env::new();
    for i in case.inputs {
        let d = Dense::from_vec(i.rows, i.cols, i.data).expect("generated shape");
        env.bind(&i.name, Matrix::Dense(d));
    }
    env
}

/// One op. The executor memoises per node, so every op gets a fresh one.
fn eval(prog: &CompiledProgram, env: &Env) -> (Option<f64>, Option<PoolStats>) {
    let mut ex = Executor::with_plan(&prog.graph, prog.plan.clone());
    let out = ex.eval(prog.root, env).ok().and_then(|v| v.as_scalar());
    (out, ex.ooc_pool_stats())
}

fn same_bits(got: Option<f64>, want: f64) -> bool {
    got.is_some_and(|g| g.to_bits() == want.to_bits())
}

fn set_up(spec: &Spec, seed: u64, report: &mut Report) -> Live {
    let case = gen::inproc_case(seed);
    let t = Instant::now();
    let prog = compile(spec, &case);
    let compile = t.elapsed();
    let env = bind(case);
    let expected = eval(&prog, &env).0.unwrap_or(f64::NAN);
    report.count(!expected.is_nan());
    for _ in 1..WARM_OPS {
        report.count(same_bits(eval(&prog, &env).0, expected));
    }
    Live { prog, env, expected, compile }
}

fn eval_op(live: &Live) -> impl Fn(&mut (), usize) -> (Duration, bool) + Sync + '_ {
    move |(), _| {
        let t = Instant::now();
        let (out, _) = eval(&live.prog, &live.env);
        (t.elapsed(), same_bits(out, live.expected))
    }
}

/// After the clock stops: the scalar against the naive reference, and
/// against the other tier's plan, which must return the same bits.
fn check(spec: &Spec, seed: u64, live: &Live, report: &mut Report) {
    let case = gen::inproc_case(seed);
    report
        .notes
        .push(format!("inputs_hash {:016x}", gen::inputs_hash(std::slice::from_ref(&case))));
    report.notes.push(format!("result_bits {:016x}", live.expected.to_bits()));
    let want = reference::eval(&case);
    let got = Mat { rows: 1, cols: 1, data: vec![live.expected] };
    report.count(reference::agrees(&got, &want));
    report.notes.push(format!(
        "result {:e} vs naive reference {:e} (tolerance {REL_TOL:e} relative)",
        live.expected, want.data[0]
    ));
    let other = spec.other();
    let (twin, _) = eval(&compile(&other, &case), &live.env);
    report.count(same_bits(twin, live.expected));
    report.notes.push(format!(
        "cross-tier: {} plan returned {} bits",
        other.name,
        if same_bits(twin, live.expected) { "the same" } else { "DIFFERENT" }
    ));
}

pub fn run_untraced(spec: &Spec, seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let (live, first_setup) = harness::timed(|| set_up(spec, seed, &mut report));
    harness::measure(&mut report, &mut [()], seconds, &eval_op(&live));
    check(spec, seed, &live, &mut report);
    harness::timed_teardown(&mut report, || drop(live));
    let setup_s = harness::setup_metric(&mut report, first_setup, |r| set_up(spec, seed, r), drop);
    report.metrics.push(setup_s);
    report
}

/// The degree the plan runs its first node matching `is_op` at.
fn planned_degree(prog: &CompiledProgram, is_op: impl Fn(&Op) -> bool) -> usize {
    prog.graph.reachable(prog.root).into_iter().find(|&id| is_op(prog.graph.op(id))).map_or(
        1,
        |id| if prog.plan.kernel(id) == Kernel::Parallel { prog.plan.degree() } else { 1 },
    )
}

/// The traced pass. Per op: a `request` span around the live eval, then a
/// `replay` span that times the in-memory eval of the same plan (blocked
/// only) and the bare kernels on the workload's shapes, at the degree the
/// plan runs them and serially.
pub fn run_traced(spec: &Spec, seed: u64, seconds: u64, out_dir: &Path) -> Report {
    let mut report = Report::default();
    let mut per = PerLayer::default();
    let machine_start = machine::probe();
    let live = set_up(spec, seed, &mut report);
    let blocked = spec.budget_bytes.is_some();

    let untraced_us =
        harness::untraced_baseline_us(&mut report, &mut [()], seconds, &eval_op(&live));

    // Kernel operands, made outside the spans.
    let case = gen::inproc_case(seed);
    let dense = |name: &str| {
        let i = case.inputs.iter().find(|i| i.name == name).expect("input exists");
        Dense::from_vec(i.rows, i.cols, i.data.clone()).expect("generated shape")
    };
    let (x, w, y) = (dense("X"), dense("W"), dense("y").into_vec());
    let xw = par::gemm(&x, &w, 1);
    let deg_crossprod = planned_degree(&live.prog, |op| matches!(op, Op::CrossProd(_)));
    let deg_gemm = planned_degree(&live.prog, |op| matches!(op, Op::MatMul(..)));
    let deg_tmv = planned_degree(&live.prog, |op| matches!(op, Op::Tmv(..)));

    let mut rec = Recorder::new();
    let mut pool = None;
    let deadline = harness::traced_deadline(seconds);
    let mut ops = 0u32;
    while Instant::now() < deadline {
        rec.set_op(ops);
        let (out, stats) = rec.span("request", |_| eval(&live.prog, &live.env));
        report.count(same_bits(out, live.expected));
        pool = stats.or(pool);
        rec.span("replay", |rec| {
            if blocked {
                // The same plan with the budget lifted falls back to the
                // in-memory kernels: what the op costs without the pool.
                let out = rec.span("exec.eval_in_memory", |_| {
                    Executor::with_plan(&live.prog.graph, live.prog.plan.clone())
                        .with_memory_budget(MemoryBudget::unbounded())
                        .eval(live.prog.root, &live.env)
                });
                report.count(same_bits(out.ok().and_then(|v| v.as_scalar()), live.expected));
            }
            rec.span("kernel.crossprod", |_| par::crossprod(&x, deg_crossprod));
            rec.span("kernel.gemm", |_| par::gemm(&x, &w, deg_gemm));
            rec.span("kernel.tmv", |_| par::gevm(&y, &x, deg_tmv));
            rec.span("kernel.exp", |_| xw.map(f64::exp));
            if spec.degree > 1 {
                rec.span("serial.crossprod", |_| par::crossprod(&x, 1));
                rec.span("serial.gemm", |_| par::gemm(&x, &w, 1));
                rec.span("serial.tmv", |_| par::gevm(&y, &x, 1));
            }
        });
        ops += 1;
    }
    check(spec, seed, &live, &mut report);
    per.set_machine(&machine_start, &machine::probe());

    let folded = spans::fold(rec.spans());
    let us = |name: &str| folded.get(name).map_or(0.0, |f| f.total_us);
    let (n, d, k) = (INPROC_ROWS as f64, INPROC_COLS as f64, INPROC_OUT as f64);
    // Flops as executed (crossprod computes the upper triangle only); bytes
    // computed from the shapes, not measured.
    per.set_kernel(
        "kernel.crossprod_us",
        "kernel.crossprod_gflops",
        us("kernel.crossprod"),
        n * d * (d + 1.0),
    );
    per.set_kernel("kernel.gemm_us", "kernel.gemm_gflops", us("kernel.gemm"), 2.0 * n * d * k);
    per.set_kernel("kernel.tmv_us", "kernel.tmv_gbs", us("kernel.tmv"), 8.0 * (n * d + n + d));
    per.set_kernel("kernel.exp_us", "kernel.exp_gbs", us("kernel.exp"), 16.0 * n * k);
    let kernels = us("kernel.crossprod") + us("kernel.gemm") + us("kernel.tmv") + us("kernel.exp");
    if spec.degree > 1 {
        let serial = us("serial.crossprod") + us("serial.gemm") + us("serial.tmv");
        per.set("par.speedup", serial / (kernels - us("kernel.exp")));
    }
    let live_us = us("request");
    let in_memory_us = if blocked { us("exec.eval_in_memory") } else { live_us };
    per.set("compile.us", live.compile.as_secs_f64() * 1e6);
    per.set("compile.nodes_in", {
        let (g, root) = dm_lang::parser::parse(&case.expr.render()).expect("parsed in set-up");
        g.reachable(root).len() as f64
    });
    per.set("compile.nodes_out", live.prog.graph.reachable(live.prog.root).len() as f64);
    per.set("compile.rewrites", live.prog.rewrites.total() as f64);
    per.set("compile.blocked_nodes", live.prog.blocked_nodes as f64);
    per.set("exec.eval_us", in_memory_us);
    per.set("exec.self_us", in_memory_us - kernels);
    if blocked {
        per.set("ooc.eval_us", live_us);
        per.set("ooc.slowdown", live_us / in_memory_us);
        let p = pool.unwrap_or_default();
        per.set("pool.spilled_bytes", p.spilled_bytes as f64);
        per.set("pool.faulted_bytes", p.faulted_bytes as f64);
        per.set("pool.evictions", p.evictions as f64);
    }

    let mut rows = vec![
        ("executor", in_memory_us - kernels,
         "in-memory eval less kernels: dispatch, memo, transposes, abs, sums".to_owned()),
        ("kernels", kernels, format!(
            "crossprod {:.0} (degree {deg_crossprod}), gemm {:.0} (degree {deg_gemm}), tmv {:.0} (degree {deg_tmv}), exp {:.0}; par.speedup {:.2}",
            us("kernel.crossprod"), us("kernel.gemm"), us("kernel.tmv"), us("kernel.exp"), per.get("par.speedup"))),
    ];
    if blocked {
        rows.push(("out-of-core", live_us - in_memory_us, format!(
            "blocked eval {live_us:.0} less in-memory eval {in_memory_us:.0} (slowdown {:.2}x); per op spilled {} B, faulted {} B, {} evictions, {} blocked nodes",
            per.get("ooc.slowdown"), per.get("pool.spilled_bytes"), per.get("pool.faulted_bytes"),
            per.get("pool.evictions"), live.prog.blocked_nodes)));
    }
    let ledger = Ledger { workload: spec.name, live_us, ops: ops as usize, rows };
    report.notes.push(format!("plan: {}", live.prog.kernel_summary()));
    report.notes.push(spans::write_trace_file(out_dir, spec.name, rec.spans(), TRACE_FILE_OPS));
    per.finish(&mut report, &ledger, untraced_us, &folded);
    report
}

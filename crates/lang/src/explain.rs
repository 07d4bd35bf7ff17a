//! `explain`- and `-stats`-style reports: an annotated HOP-DAG tree renderer
//! and a post-run runtime profile, modeled on the surveyed declarative ML
//! systems' plan/statistics output.

use crate::cache::CompiledProgram;
use crate::cost::NodeCost;
use crate::exec::{ExecProfile, KernelChoice};
use crate::expr::{AggOp, EwiseOp, Graph, NodeId, Op, UnaryOp};
use crate::physical::PhysicalPlan;
use crate::size::{Shape, SizeInfo};
use dm_buffer::PoolStats;
use dm_obs::fmt_ns;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Sparsity-estimate drift beyond which the profile report flags a node.
pub const SPARSITY_DRIFT_THRESHOLD: f64 = 0.05;

/// Short mnemonic for an operator, used in explain trees and profile tables.
pub fn op_label(graph: &Graph, id: NodeId) -> String {
    match op_site(graph, id) {
        std::borrow::Cow::Borrowed(s) => s["exec.".len()..].to_owned(),
        std::borrow::Cow::Owned(s) => s["exec.".len()..].to_owned(),
    }
}

/// [`op_label`] prefixed with `exec.`, as the executor's per-node span-site
/// name. Borrows a static string for every fixed-name op so the hot path
/// (one span per evaluated node, on every served request) records without
/// allocating; only `input`/`const` nodes format their label.
pub fn op_site(graph: &Graph, id: NodeId) -> std::borrow::Cow<'static, str> {
    std::borrow::Cow::Borrowed(match graph.op(id) {
        Op::Input(n) => return format!("exec.input {n}").into(),
        Op::Const(v) => return format!("exec.const {v}").into(),
        Op::MatMul(_, _) => "exec.matmul",
        Op::Transpose(_) => "exec.t",
        Op::Ewise(e, _, _) => match e {
            EwiseOp::Add => "exec.ewise +",
            EwiseOp::Sub => "exec.ewise -",
            EwiseOp::Mul => "exec.ewise *",
            EwiseOp::Div => "exec.ewise /",
        },
        Op::Unary(u, _) => match u {
            UnaryOp::Exp => "exec.exp",
            UnaryOp::Log => "exec.log",
            UnaryOp::Sqrt => "exec.sqrt",
            UnaryOp::Abs => "exec.abs",
        },
        Op::Agg(a, _) => match a {
            AggOp::Sum => "exec.sum",
            AggOp::ColSums => "exec.colSums",
            AggOp::RowSums => "exec.rowSums",
            AggOp::Min => "exec.min",
            AggOp::Max => "exec.max",
        },
        Op::CrossProd(_) => "exec.crossprod",
        Op::Tmv(_, _) => "exec.tmv",
        Op::SumSq(_) => "exec.sumSq",
    })
}

fn annotation(
    graph: &Graph,
    id: NodeId,
    sizes: &HashMap<NodeId, SizeInfo>,
    plan: &PhysicalPlan,
) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(info) = sizes.get(&id) {
        match info.shape {
            Shape::Scalar => parts.push("scalar".into()),
            Shape::Matrix { rows, cols } => {
                parts.push(format!("{rows}x{cols}"));
                parts.push(format!("sp {:.2}", info.sparsity));
            }
        }
    }
    parts.push(format!("{}", plan.kernel(id)));
    if let Some(row) = plan.row(id).filter(|r| r.densify != [false; 2]) {
        let operands = graph.op(id).children().into_iter().zip(row.densify);
        parts.extend(operands.filter(|&(_, d)| d).map(|(c, _)| format!("densify %{c}")));
    }
    if let Some(sum) = plan.fused_into(id) {
        parts.push(format!("fused into %{sum}"));
    }
    if let Some(lead) = plan.schedule().pass_of(id) {
        parts.push(format!("row pass at %{lead}"));
    }
    format!("  [{}]", parts.join(", "))
}

fn render_tree(
    prog: &CompiledProgram,
    id: NodeId,
    prefix: &str,
    is_last: bool,
    is_root: bool,
    seen: &mut HashSet<NodeId>,
    out: &mut String,
) {
    let graph = &prog.graph;
    let connector = if is_root {
        String::new()
    } else if is_last {
        format!("{prefix}`-- ")
    } else {
        format!("{prefix}|-- ")
    };
    let shared = !seen.insert(id);
    let label = op_label(graph, id);
    if shared {
        // A DAG node already printed elsewhere: reference it, don't recurse.
        let _ = writeln!(out, "{connector}%{id} {label} (shared, printed above)");
        return;
    }
    let note = annotation(graph, id, &prog.sizes, &prog.plan);
    let _ = writeln!(out, "{connector}%{id} {label}{note}");
    let children = graph.op(id).children();
    let child_prefix = if is_root {
        String::new()
    } else if is_last {
        format!("{prefix}    ")
    } else {
        format!("{prefix}|   ")
    };
    for (i, &c) in children.iter().enumerate() {
        let last = i + 1 == children.len();
        render_tree(prog, c, &child_prefix, last, false, seen, out);
    }
}

/// Render the program's DAG as a text tree, one node per line, shared
/// subtrees printed once and referenced thereafter, each node annotated with
/// its propagated shape, sparsity estimate and kernel (`parallel` and
/// `blocked` included); a node that reads a dense copy of a CSR operand
/// names it (`densify %0`, once per operand it densifies); a node the plan
/// fused names the `sum` that computes
/// it (`fused into %7`), and a member of a row pass the member whose step
/// runs the pass (`row pass at %1`). Nodes without propagated sizes show their kernel
/// only. Two sections follow from what the program was planned with:
///
/// * a bounded budget appends the plan's
///   [`PlanCertificate`](crate::liveness::PlanCertificate) — the
///   fits/exceeds verdict plus the step-by-step live-set timeline, over the
///   order the planner picked;
/// * a cost model appends the per-node cost table: estimated flops, the
///   static nanosecond price, the calibrated price where the model holds
///   enough samples (`-` otherwise), and the priced kernel family. Nodes
///   whose prices [`drifted`](crate::cost::drifted) apart are marked
///   `<- drift` — the same condition the analyzer reports as H204.
pub fn explain(prog: &CompiledProgram) -> String {
    let mut out = String::new();
    render_tree(prog, prog.root, "", true, true, &mut HashSet::new(), &mut out);
    if prog.certificate.budget.is_some() {
        out.push('\n');
        out.push_str(&prog.certificate.render(&prog.graph));
    }
    if let Some(costs) = &prog.costs {
        out.push('\n');
        cost_table(prog, costs, None, &mut out);
    }
    out
}

/// The cost table of a priced program, one row per node with priced work:
/// flops, static and calibrated price, family and drift mark. With a
/// profile, only the nodes that run evaluated are listed, each with the
/// self time it observed.
fn cost_table(
    prog: &CompiledProgram,
    costs: &HashMap<NodeId, NodeCost>,
    observed: Option<&ExecProfile>,
    out: &mut String,
) {
    let ran = |id: NodeId| observed.is_none_or(|p| p.node(id).is_some_and(|n| n.evals > 0));
    let mut ids: Vec<NodeId> =
        costs.iter().filter(|&(&id, c)| c.flops > 0 && ran(id)).map(|(&id, _)| id).collect();
    ids.sort_unstable();
    let ns = |ns: u128| fmt_ns(ns.min(u64::MAX as u128) as u64);
    let column = |cell: String| observed.map_or(String::new(), |_| format!(" {cell:>12}"));
    let _ = writeln!(out, "cost table (static {} GFLOP/s baseline):", crate::cost::STATIC_GFLOPS);
    let _ = writeln!(
        out,
        "  {:<4} {:<12} {:>14} {:>12} {:>12}{}  family",
        "node",
        "op",
        "flops",
        "static",
        "calibrated",
        column("observed".into()),
    );
    for id in ids {
        let c = &costs[&id];
        let cal = c.calibrated_ns.map_or("-".to_string(), ns);
        let obs = column(fmt_ns(observed.and_then(|p| p.node(id)).map_or(0, |n| n.self_ns)));
        let drift = if c.drifted { "  <- drift" } else { "" };
        let _ = writeln!(
            out,
            "  %{:<3} {:<12} {:>14} {:>12} {:>12}{obs}  {}{drift}",
            id,
            op_label(&prog.graph, id),
            c.flops,
            ns(c.static_ns),
            cal,
            c.family,
        );
    }
}

/// Render a post-run `-stats`-style report of a profiled run of `prog`: total
/// wall time, the `top_k` heaviest operators by self time (with kernel choice
/// and output shape), estimated-vs-actual sparsity drift beyond
/// [`SPARSITY_DRIFT_THRESHOLD`], parallel and out-of-core dispatch totals,
/// and memoization totals. Two optional sections:
///
/// * `spill` — the executor's spill-pool counters
///   ([`Executor::ooc_pool_stats`](crate::exec::Executor::ooc_pool_stats))
///   append the pool's spill / fault / eviction traffic;
/// * a priced program appends [`explain`]'s cost table over the nodes the
///   run evaluated, with the self time each observed as a last column: the
///   estimated, calibrated and observed figures whose convergence is the
///   whole point of the observe→calibrate→re-cost loop.
pub fn profile_report(
    prog: &CompiledProgram,
    profile: &ExecProfile,
    top_k: usize,
    spill: Option<&PoolStats>,
) -> String {
    let (graph, root) = (&prog.graph, prog.root);
    let mut out = String::new();
    let total_ns = profile.total_self_ns();
    let _ = writeln!(out, "runtime report for {}", graph.render(root));
    let _ = writeln!(out, "total eval wall time: {}", fmt_ns(total_ns));

    // Heavy hitters by self time.
    let mut by_self: Vec<(NodeId, &crate::exec::NodeStats)> = profile.nodes().collect();
    by_self.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));
    let _ = writeln!(out, "heavy hitters (top {} by self time):", top_k.min(by_self.len()));
    for (rank, (id, ns)) in by_self.iter().take(top_k).enumerate() {
        let pct = if total_ns == 0 { 0.0 } else { 100.0 * ns.self_ns as f64 / total_ns as f64 };
        let kernel = ns.kernel.map_or_else(|| "?".to_string(), |k| k.to_string());
        let _ = writeln!(
            out,
            "  #{:<2} %{id} {:<12} self {:>9} ({pct:4.1}%)  evals {}  hits {}  kernel {kernel}  out {}x{} sp {:.2}",
            rank + 1,
            op_label(graph, *id),
            fmt_ns(ns.self_ns),
            ns.evals,
            ns.memo_hits,
            ns.out_rows,
            ns.out_cols,
            ns.out_sparsity,
        );
    }

    // Self-time distribution across all profiled nodes: a p99 far above the
    // p50 means a few heavy operators dominate (see the heavy hitters above);
    // close quantiles mean the time is spread evenly.
    if by_self.len() > 1 {
        let hist = dm_obs::LogHistogram::new();
        for (_, ns) in &by_self {
            hist.record(ns.self_ns);
        }
        let s = hist.snapshot();
        let _ = writeln!(
            out,
            "node self time: p50 {} / p95 {} / p99 {} over {} nodes",
            fmt_ns(s.p50()),
            fmt_ns(s.p95()),
            fmt_ns(s.p99()),
            s.count,
        );
    }

    // Estimated vs actual sparsity drift.
    let mut drifted: Vec<(NodeId, f64, f64)> = Vec::new();
    for (id, ns) in profile.nodes() {
        if let Some(info) = prog.sizes.get(&id) {
            if matches!(info.shape, Shape::Matrix { .. })
                && (info.sparsity - ns.out_sparsity).abs() > SPARSITY_DRIFT_THRESHOLD
            {
                drifted.push((id, info.sparsity, ns.out_sparsity));
            }
        }
    }
    drifted.sort_by(|a, b| {
        let da = (a.1 - a.2).abs();
        let db = (b.1 - b.2).abs();
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    if drifted.is_empty() {
        let _ =
            writeln!(out, "sparsity estimates: all within {SPARSITY_DRIFT_THRESHOLD:.2} of actual");
    } else {
        let _ = writeln!(out, "sparsity drift (|est - actual| > {SPARSITY_DRIFT_THRESHOLD:.2}):");
        for (id, est, actual) in drifted {
            let _ = writeln!(
                out,
                "  %{id} {:<12} est {est:.2} actual {actual:.2}",
                op_label(graph, id)
            );
        }
    }

    // Multi-threaded dispatch summary.
    let (par_evals, par_ns) = profile
        .nodes()
        .filter(|(_, n)| n.kernel == Some(KernelChoice::Parallel))
        .fold((0u64, 0u64), |(e, t), (_, n)| (e + n.evals, t + n.self_ns));
    if par_evals > 0 {
        let pct = if total_ns == 0 { 0.0 } else { 100.0 * par_ns as f64 / total_ns as f64 };
        let _ = writeln!(
            out,
            "parallel kernels: {par_evals} evals, {} self time ({pct:.1}%)",
            fmt_ns(par_ns)
        );
    }

    // Out-of-core dispatch summary + spill-pool traffic.
    let (ooc_evals, ooc_ns) = profile
        .nodes()
        .filter(|(_, n)| n.kernel == Some(KernelChoice::Blocked))
        .fold((0u64, 0u64), |(e, t), (_, n)| (e + n.evals, t + n.self_ns));
    if ooc_evals > 0 {
        let pct = if total_ns == 0 { 0.0 } else { 100.0 * ooc_ns as f64 / total_ns as f64 };
        let _ = writeln!(
            out,
            "out-of-core kernels: {ooc_evals} evals, {} self time ({pct:.1}%)",
            fmt_ns(ooc_ns)
        );
    }
    if let Some(ps) = spill {
        let _ = writeln!(
            out,
            "spill pool: {} B spilled, {} B faulted back, {} evictions, {} pins",
            ps.spilled_bytes, ps.faulted_bytes, ps.evictions, ps.pins
        );
    }

    let evals: u64 = profile.nodes().map(|(_, n)| n.evals).sum();
    let hits: u64 = profile.nodes().map(|(_, n)| n.memo_hits).sum();
    let _ = writeln!(out, "memoization: {evals} node evals, {hits} memo hits");

    if let Some(costs) = &prog.costs {
        cost_table(prog, costs, Some(profile), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::exec::{Env, Executor};
    use crate::memory::MemoryBudget;
    use crate::physical::PlanOptions;
    use crate::rewrite::optimize;
    use crate::size::InputSizes;
    use dm_matrix::{Dense, Matrix};

    fn glm_graph() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mm = g.matmul(t, x);
        let s = g.agg(AggOp::Sum, mm);
        (g, s)
    }

    /// Serial, unbounded, unpriced options over no inputs, for
    /// [`glm_program`] to declare its own.
    fn base() -> PlanOptions<'static> {
        static NONE: std::sync::LazyLock<InputSizes> = std::sync::LazyLock::new(InputSizes::new);
        PlanOptions::new(&NONE)
    }

    /// The glm program, optimized and planned under `opts` (its sizes are
    /// ignored: `X` is declared `rows` x `cols` at `sparsity`).
    fn glm_program(rows: usize, cols: usize, sparsity: f64, opts: PlanOptions) -> CompiledProgram {
        let (g, s) = glm_graph();
        let mut sizes = InputSizes::new();
        sizes.declare("X", rows, cols, sparsity);
        let (og, root, _) = optimize(&g, s, &sizes).unwrap();
        CompiledProgram::new(og, root, &PlanOptions { sizes: &sizes, ..opts }).unwrap()
    }

    #[test]
    fn explain_marks_shared_subtrees() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let add = g.ewise(EwiseOp::Add, t, t);
        let mut sizes = InputSizes::new();
        sizes.declare("X", 3, 3, 1.0);
        let txt = explain(&CompiledProgram::new(g, add, &PlanOptions::new(&sizes)).unwrap());
        assert_eq!(txt.matches("shared, printed above").count(), 1, "{txt}");
        // Three distinct nodes plus one shared reference.
        assert_eq!(txt.lines().count(), 4, "{txt}");
    }

    #[test]
    fn planned_explain_annotates_shapes_and_kernels() {
        let txt = explain(&glm_program(1000, 20, 0.05, base()));
        assert!(txt.contains("crossprod"), "{txt}");
        assert!(txt.contains("1000x20"), "{txt}");
        assert!(txt.contains("sp 0.05"), "{txt}");
        assert!(txt.contains("sparse"), "{txt}");
    }

    #[test]
    fn explain_golden_output() {
        let expected = "\
%2 sum  [scalar, dense]
`-- %1 crossprod  [20x20, sp 1.00, dense]
    `-- %0 input X  [1000x20, sp 1.00, dense]
";
        assert_eq!(explain(&glm_program(1000, 20, 1.0, base())), expected);
    }

    #[test]
    fn explain_at_a_degree_annotates_parallel_kernels() {
        let at =
            |degree| explain(&glm_program(100_000, 200, 1.0, PlanOptions { degree, ..base() }));
        assert!(at(4).contains("parallel"), "{}", at(4));
        assert!(!at(1).contains("parallel"));
    }

    #[test]
    fn profile_report_summarizes_parallel_kernels() {
        let prog = glm_program(400, 300, 1.0, PlanOptions { degree: 2, ..base() });
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(Dense::from_fn(400, 300, |r, c| ((r + c) % 7) as f64)));
        let mut ex = Executor::with_plan(&prog.graph, prog.plan.clone()).profiled();
        ex.eval(prog.root, &env).unwrap();
        let txt = profile_report(&prog, ex.profile().unwrap(), 5, None);
        assert!(txt.contains("parallel kernels: 1 evals"), "{txt}");
        assert!(txt.contains("kernel parallel"), "{txt}");
        assert!(!txt.contains("cost table"), "planned without a model: {txt}");
    }

    #[test]
    fn bounded_budget_appends_the_certificate() {
        let budget = MemoryBudget::bytes(1 << 20);
        let txt = explain(&glm_program(100_000, 200, 1.0, PlanOptions { budget, ..base() }));
        assert!(txt.contains("blocked"), "{txt}");
        assert!(txt.contains("memory certificate: plan fits"), "{txt}");
        assert!(txt.contains("live-set timeline:"), "{txt}");
        // An unbounded budget renders the plain plan, no certificate.
        let txt = explain(&glm_program(100_000, 200, 1.0, base()));
        assert!(!txt.contains("memory certificate"), "{txt}");
    }

    #[test]
    fn cost_model_appends_the_cost_table() {
        // An 8x-fast measured fused kernel: calibrated column filled, drift
        // flagged.
        let mut store = dm_obs::ProfileStore::new();
        for _ in 0..5 {
            store.record("crossprod", "fused", 400_000, 50_000); // 8 GFLOP/s
        }
        let model = CostModel::new(store);
        let priced = |model| PlanOptions { cost: Some(model), ..base() };
        let txt = explain(&glm_program(1000, 20, 1.0, priced(&model)));
        assert!(txt.contains("cost table"), "{txt}");
        assert!(txt.contains("crossprod"), "{txt}");
        assert!(txt.contains("<- drift"), "{txt}");
        // The empty model still renders the table, calibrated column dashed.
        let txt = explain(&glm_program(1000, 20, 1.0, priced(&CostModel::default())));
        assert!(txt.contains("cost table"), "{txt}");
        assert!(txt.contains(" -  "), "{txt}");
        assert!(!txt.contains("<- drift"), "{txt}");
    }

    #[test]
    fn profile_report_cost_section_shows_all_three_columns() {
        let plain = glm_program(1000, 20, 1.0, base());
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(Dense::from_fn(1000, 20, |r, c| ((r + c) % 5) as f64)));

        // Observe a real run, then price with the model it produced.
        let mut store = dm_obs::ProfileStore::new();
        for _ in 0..dm_obs::profile::MIN_SAMPLES {
            let mut ex = Executor::with_plan(&plain.graph, plain.plan.clone()).profiled();
            ex.eval(plain.root, &env).unwrap();
            ex.record_kernel_profiles(&mut store);
        }
        let model = CostModel::new(store);
        let prog = glm_program(1000, 20, 1.0, PlanOptions { cost: Some(&model), ..base() });
        let mut ex = Executor::with_plan(&prog.graph, prog.plan.clone()).profiled();
        ex.eval(prog.root, &env).unwrap();
        let txt = profile_report(&prog, ex.profile().unwrap(), 5, None);
        let header = txt.lines().find(|l| l.contains("calibrated")).expect("cost table header");
        assert!(header.contains("static") && header.contains("observed"), "{txt}");
        // The crossprod was observed MIN_SAMPLES times at its exact size
        // class, so its calibrated column cannot be dashed.
        let cp_line = txt
            .lines()
            .find(|l| l.contains("crossprod") && l.contains("fused"))
            .expect("crossprod cost line");
        assert!(!cp_line.contains(" - "), "{cp_line}");
    }

    #[test]
    fn profile_report_lists_heavy_hitters_and_memo_totals() {
        let (g, s) = glm_graph();
        let mut sizes = InputSizes::new();
        sizes.declare("X", 30, 4, 1.0);
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(Dense::from_fn(30, 4, |r, c| (r + c) as f64)));
        let prog = CompiledProgram::new(g, s, &PlanOptions::new(&sizes)).unwrap();
        let mut ex = Executor::new(&prog.graph).profiled();
        ex.eval(s, &env).unwrap();
        let txt = profile_report(&prog, ex.profile().unwrap(), 3, None);
        assert!(txt.contains("runtime report"), "{txt}");
        assert!(txt.contains("heavy hitters (top 3"), "{txt}");
        assert!(txt.contains("memoization: 4 node evals"), "{txt}");
    }

    #[test]
    fn profile_report_flags_sparsity_drift() {
        // Declared fully dense, but the bound matrix is mostly zeros: the
        // estimate should drift from the observed sparsity.
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mut sizes = InputSizes::new();
        sizes.declare("X", 10, 10, 1.0);
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(Dense::from_fn(10, 10, |r, c| if r == c { 1.0 } else { 0.0 })));
        let prog = CompiledProgram::new(g, t, &PlanOptions::new(&sizes)).unwrap();
        let mut ex = Executor::new(&prog.graph).profiled();
        ex.eval(t, &env).unwrap();
        let txt = profile_report(&prog, ex.profile().unwrap(), 5, None);
        assert!(txt.contains("sparsity drift"), "{txt}");
        assert!(txt.contains("est 1.00 actual 0.10"), "{txt}");
    }
}

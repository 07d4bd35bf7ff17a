//! `explain`- and `-stats`-style reports: an annotated HOP-DAG tree renderer
//! and a post-run runtime profile, modeled on the surveyed declarative ML
//! systems' plan/statistics output.

use crate::cost::CostModel;
use crate::exec::{ExecProfile, KernelChoice};
use crate::expr::{AggOp, EwiseOp, Graph, NodeId, Op, UnaryOp};
use crate::physical::{plan, PhysicalPlan, PlanOptions, Sizes};
use crate::size::{propagate, InputSizes, Shape, SizeInfo};
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

fn annotation(id: NodeId, sizes: &HashMap<NodeId, SizeInfo>, plan: &PhysicalPlan) -> String {
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
    if let Some(sum) = plan.fused_into(id) {
        parts.push(format!("fused into %{sum}"));
    }
    format!("  [{}]", parts.join(", "))
}

#[allow(clippy::too_many_arguments)] // recursive renderer threads layout + annotation state
fn render_tree(
    graph: &Graph,
    id: NodeId,
    prefix: &str,
    is_last: bool,
    is_root: bool,
    seen: &mut HashSet<NodeId>,
    planned: Option<(&HashMap<NodeId, SizeInfo>, &PhysicalPlan)>,
    out: &mut String,
) {
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
    let note = planned.map_or_else(String::new, |(sizes, plan)| annotation(id, sizes, plan));
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
        render_tree(graph, c, &child_prefix, last, false, seen, planned, out);
    }
}

/// Render the DAG rooted at `root` as a text tree, one node per line, shared
/// subtrees printed once and referenced thereafter.
///
/// `None` renders the bare tree. With options, the program is planned by
/// [`plan`] under exactly those options and every node is annotated with its
/// propagated shape, sparsity estimate and kernel (`parallel` and `blocked`
/// included), and a node the plan fused names the `sum` that computes it
/// (`fused into %7`); when sizes do not propagate (undeclared inputs) the
/// annotations are silently omitted rather than failing the render. Two
/// sections follow from what the options carry:
///
/// * a bounded `budget` appends the plan's
///   [`PlanCertificate`](crate::liveness::PlanCertificate) — the
///   fits/exceeds verdict plus the step-by-step live-set timeline, over the
///   plan's own order when it was reordered;
/// * a `cost` model appends a per-node cost table: estimated flops, the
///   static nanosecond price, the calibrated price where the model holds
///   enough samples (`-` otherwise), and the priced kernel family. Nodes
///   whose calibrated price disagrees with the static one by more than
///   [`DRIFT_FACTOR`](crate::cost::DRIFT_FACTOR) are marked `<- drift` — the
///   same condition the analyzer reports as H204.
pub fn explain(graph: &Graph, root: NodeId, opts: Option<&PlanOptions>) -> String {
    let planned = opts.and_then(|o| {
        let sizes = o.sizes.resolve(graph, root).ok()?;
        let phys =
            plan(graph, root, &PlanOptions { sizes: Sizes::Propagated(&sizes), ..*o }).ok()?;
        Some((o, sizes, phys))
    });
    let mut out = String::new();
    let annotations = planned.as_ref().map(|(_, sizes, phys)| (&**sizes, phys));
    render_tree(graph, root, "", true, true, &mut HashSet::new(), annotations, &mut out);
    let Some((opts, sizes, phys)) = &planned else {
        return out;
    };
    if opts.budget.get().is_some() && graph.reachable(root).iter().all(|id| sizes.contains_key(id))
    {
        let cert = crate::liveness::certify_plan(graph, root, phys, sizes, opts.budget);
        out.push('\n');
        out.push_str(&cert.render(graph));
    }
    let Some(model) = opts.cost else {
        return out;
    };
    let costs = crate::cost::node_costs(graph, root, sizes, phys, model);
    let mut ids: Vec<NodeId> = costs.keys().copied().collect();
    ids.sort_unstable();
    let _ = writeln!(out, "\ncost table (static {} GFLOP/s baseline):", crate::cost::STATIC_GFLOPS);
    let _ = writeln!(
        out,
        "  {:<4} {:<12} {:>14} {:>12} {:>12}  family",
        "node", "op", "flops", "static", "calibrated"
    );
    for id in ids {
        let c = &costs[&id];
        if c.flops == 0 {
            continue; // inputs/constants carry no priced work
        }
        let cal =
            c.calibrated_ns.map_or("-".to_string(), |ns| fmt_ns(ns.min(u64::MAX as u128) as u64));
        let drift =
            if model.is_stale(&op_label(graph, id), c.family, c.flops) { "  <- drift" } else { "" };
        let _ = writeln!(
            out,
            "  %{:<3} {:<12} {:>14} {:>12} {:>12}  {}{drift}",
            id,
            op_label(graph, id),
            c.flops,
            fmt_ns(c.static_ns.min(u64::MAX as u128) as u64),
            cal,
            c.family,
        );
    }
    out
}

/// Render a post-run `-stats`-style report from an execution profile: total
/// wall time, the `top_k` heaviest operators by self time (with kernel choice
/// and output shape), estimated-vs-actual sparsity drift beyond
/// [`SPARSITY_DRIFT_THRESHOLD`], parallel and out-of-core dispatch totals,
/// and memoization totals. Two optional sections:
///
/// * `spill` — the executor's spill-pool counters
///   ([`Executor::ooc_pool_stats`](crate::exec::Executor::ooc_pool_stats))
///   append the pool's spill / fault / eviction traffic;
/// * `cost` — the executed plan and a [`CostModel`] append a cost-model
///   accuracy table: for every profiled compute node, the *estimated* ns
///   (static flop price), the *calibrated* ns (the model's
///   measured-throughput price, `-` below the sample threshold), and the
///   *observed* ns this run actually spent — the three columns whose
///   convergence is the whole point of the observe→calibrate→re-cost loop.
///   Nodes where calibrated and static disagree by more than
///   [`DRIFT_FACTOR`](crate::cost::DRIFT_FACTOR) are marked
///   `<- drift (H204)`.
pub fn profile_report(
    graph: &Graph,
    root: NodeId,
    profile: &ExecProfile,
    inputs: &InputSizes,
    top_k: usize,
    spill: Option<&PoolStats>,
    cost: Option<(&PhysicalPlan, &CostModel)>,
) -> String {
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
    let sizes = propagate(graph, root, inputs).ok();
    if let Some(sizes) = &sizes {
        let mut drifted: Vec<(NodeId, f64, f64)> = Vec::new();
        for (id, ns) in profile.nodes() {
            if let Some(info) = sizes.get(&id) {
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
            let _ = writeln!(
                out,
                "sparsity estimates: all within {SPARSITY_DRIFT_THRESHOLD:.2} of actual"
            );
        } else {
            let _ =
                writeln!(out, "sparsity drift (|est - actual| > {SPARSITY_DRIFT_THRESHOLD:.2}):");
            for (id, est, actual) in drifted {
                let _ = writeln!(
                    out,
                    "  %{id} {:<12} est {est:.2} actual {actual:.2}",
                    op_label(graph, id)
                );
            }
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

    let (Some((plan, model)), Some(infos)) = (cost, &sizes) else {
        return out;
    };
    let costs = crate::cost::node_costs(graph, root, infos, plan, model);
    let mut ids: Vec<NodeId> = profile
        .nodes()
        .filter(|(id, ns)| ns.evals > 0 && costs.get(id).is_some_and(|c| c.flops > 0))
        .map(|(id, _)| id)
        .collect();
    ids.sort_unstable();
    if ids.is_empty() {
        return out;
    }
    let _ = writeln!(out, "cost model (estimated vs calibrated vs observed):");
    for id in ids {
        let c = &costs[&id];
        let observed = profile.node(id).map_or(0, |n| n.self_ns);
        let cal =
            c.calibrated_ns.map_or("-".to_string(), |ns| fmt_ns(ns.min(u64::MAX as u128) as u64));
        let drift = if model.is_stale(&op_label(graph, id), c.family, c.flops) {
            "  <- drift (H204)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  %{:<3} {:<12} est {:>10}  cal {:>10}  obs {:>10}  {}{drift}",
            id,
            op_label(graph, id),
            fmt_ns(c.static_ns.min(u64::MAX as u128) as u64),
            cal,
            fmt_ns(observed),
            c.family,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Env, Executor};
    use crate::memory::MemoryBudget;
    use crate::rewrite::optimize;
    use dm_matrix::{Dense, Matrix};

    fn glm_graph() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mm = g.matmul(t, x);
        let s = g.agg(AggOp::Sum, mm);
        (g, s)
    }

    #[test]
    fn explain_marks_shared_subtrees() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let add = g.ewise(EwiseOp::Add, t, t);
        let txt = explain(&g, add, None);
        assert_eq!(txt.matches("shared, printed above").count(), 1, "{txt}");
        // Three distinct nodes plus one shared reference.
        assert_eq!(txt.lines().count(), 4, "{txt}");
    }

    #[test]
    fn planned_explain_annotates_shapes_and_kernels() {
        let (g, s) = glm_graph();
        let mut sizes = InputSizes::new();
        sizes.declare("X", 1000, 20, 0.05);
        let (og, root, _) = optimize(&g, s, &sizes).unwrap();
        let txt = explain(&og, root, Some(&PlanOptions::new(&sizes)));
        assert!(txt.contains("crossprod"), "{txt}");
        assert!(txt.contains("1000x20"), "{txt}");
        assert!(txt.contains("sp 0.05"), "{txt}");
        assert!(txt.contains("sparse"), "{txt}");
    }

    #[test]
    fn explain_golden_output() {
        let (g, s) = glm_graph();
        let mut sizes = InputSizes::new();
        sizes.declare("X", 1000, 20, 1.0);
        let (og, root, _) = optimize(&g, s, &sizes).unwrap();
        let expected = "\
%2 sum  [scalar, dense]
`-- %1 crossprod  [20x20, sp 1.00, dense]
    `-- %0 input X  [1000x20, sp 1.00, dense]
";
        assert_eq!(explain(&og, root, Some(&PlanOptions::new(&sizes))), expected);
    }

    #[test]
    fn explain_at_a_degree_annotates_parallel_kernels() {
        let (g, s) = glm_graph();
        let mut sizes = InputSizes::new();
        sizes.declare("X", 100_000, 200, 1.0);
        let (og, root, _) = optimize(&g, s, &sizes).unwrap();
        let serial = PlanOptions::new(&sizes);
        let txt = explain(&og, root, Some(&PlanOptions { degree: 4, ..serial }));
        assert!(txt.contains("parallel"), "{txt}");
        assert!(!explain(&og, root, Some(&serial)).contains("parallel"));
    }

    #[test]
    fn profile_report_summarizes_parallel_kernels() {
        let (g, s) = glm_graph();
        let mut sizes = InputSizes::new();
        sizes.declare("X", 400, 300, 1.0);
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(Dense::from_fn(400, 300, |r, c| ((r + c) % 7) as f64)));
        let (og, root, _) = optimize(&g, s, &sizes).unwrap();
        let plan = plan(&og, root, &PlanOptions { degree: 2, ..PlanOptions::new(&sizes) }).unwrap();
        let mut ex = Executor::with_plan(&og, plan).profiled();
        ex.eval(root, &env).unwrap();
        let txt = profile_report(&og, root, ex.profile().unwrap(), &sizes, 5, None, None);
        assert!(txt.contains("parallel kernels: 1 evals"), "{txt}");
        assert!(txt.contains("kernel parallel"), "{txt}");
    }

    #[test]
    fn bounded_budget_appends_the_certificate() {
        let (g, s) = glm_graph();
        let mut sizes = InputSizes::new();
        sizes.declare("X", 100_000, 200, 1.0);
        let (og, root, _) = optimize(&g, s, &sizes).unwrap();
        let budget = MemoryBudget::bytes(1 << 20);
        let txt = explain(&og, root, Some(&PlanOptions { budget, ..PlanOptions::new(&sizes) }));
        assert!(txt.contains("blocked"), "{txt}");
        assert!(txt.contains("memory certificate: plan fits"), "{txt}");
        assert!(txt.contains("live-set timeline:"), "{txt}");
        // An unbounded budget renders the plain plan, no certificate.
        let txt = explain(&og, root, Some(&PlanOptions::new(&sizes)));
        assert!(!txt.contains("memory certificate"), "{txt}");
    }

    #[test]
    fn cost_model_appends_the_cost_table() {
        let (g, s) = glm_graph();
        let mut sizes = InputSizes::new();
        sizes.declare("X", 1000, 20, 1.0);
        let (og, root, _) = optimize(&g, s, &sizes).unwrap();
        // An 8x-fast measured fused kernel: calibrated column filled, drift
        // flagged.
        let mut store = dm_obs::ProfileStore::new();
        for _ in 0..5 {
            store.record("crossprod", "fused", 800_000, 100_000); // 8 GFLOP/s
        }
        let model = crate::cost::CostModel::new(store);
        let txt = explain(
            &og,
            root,
            Some(&PlanOptions { cost: Some(&model), ..PlanOptions::new(&sizes) }),
        );
        assert!(txt.contains("cost table"), "{txt}");
        assert!(txt.contains("crossprod"), "{txt}");
        assert!(txt.contains("<- drift"), "{txt}");
        // The empty model still renders the table, calibrated column dashed.
        let empty = CostModel::default();
        let txt = explain(
            &og,
            root,
            Some(&PlanOptions { cost: Some(&empty), ..PlanOptions::new(&sizes) }),
        );
        assert!(txt.contains("cost table"), "{txt}");
        assert!(txt.contains(" -  "), "{txt}");
        assert!(!txt.contains("<- drift"), "{txt}");
    }

    #[test]
    fn profile_report_cost_section_shows_all_three_columns() {
        let (g, s) = glm_graph();
        let mut sizes = InputSizes::new();
        sizes.declare("X", 1000, 20, 1.0);
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(Dense::from_fn(1000, 20, |r, c| ((r + c) % 5) as f64)));
        let (og, root, _) = optimize(&g, s, &sizes).unwrap();
        let plan = plan(&og, root, &PlanOptions::new(&sizes)).unwrap();

        // Observe a real run, then price with the model it produced.
        let mut store = dm_obs::ProfileStore::new();
        for _ in 0..dm_obs::profile::MIN_SAMPLES {
            let mut ex = Executor::with_plan(&og, plan.clone()).profiled();
            ex.eval(root, &env).unwrap();
            ex.record_kernel_profiles(&mut store);
        }
        let model = crate::cost::CostModel::new(store);
        let mut ex = Executor::with_plan(&og, plan.clone()).profiled();
        ex.eval(root, &env).unwrap();
        let cost = Some((&plan, &model));
        let txt = profile_report(&og, root, ex.profile().unwrap(), &sizes, 5, None, cost);
        assert!(txt.contains("cost model (estimated vs calibrated vs observed)"), "{txt}");
        assert!(txt.contains("est "), "{txt}");
        assert!(txt.contains("cal "), "{txt}");
        assert!(txt.contains("obs "), "{txt}");
        // The crossprod was observed MIN_SAMPLES times at its exact size
        // class, so its calibrated column cannot be dashed.
        let cp_line = txt
            .lines()
            .find(|l| l.contains("crossprod") && l.contains("est "))
            .expect("crossprod cost line");
        assert!(!cp_line.contains("cal          -"), "{cp_line}");
    }

    #[test]
    fn bare_explain_omits_annotations() {
        let (g, s) = glm_graph();
        let txt = explain(&g, s, None);
        assert!(!txt.contains('['), "{txt}");
        assert!(txt.contains("matmul"), "{txt}");
    }

    #[test]
    fn profile_report_lists_heavy_hitters_and_memo_totals() {
        let (g, s) = glm_graph();
        let mut sizes = InputSizes::new();
        sizes.declare("X", 30, 4, 1.0);
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(Dense::from_fn(30, 4, |r, c| (r + c) as f64)));
        let mut ex = Executor::new(&g).profiled();
        ex.eval(s, &env).unwrap();
        let txt = profile_report(&g, s, ex.profile().unwrap(), &sizes, 3, None, None);
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
        let mut ex = Executor::new(&g).profiled();
        ex.eval(t, &env).unwrap();
        let txt = profile_report(&g, t, ex.profile().unwrap(), &sizes, 5, None, None);
        assert!(txt.contains("sparsity drift"), "{txt}");
        assert!(txt.contains("est 1.00 actual 0.10"), "{txt}");
    }
}

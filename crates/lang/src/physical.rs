//! Physical operator selection: the planner assigns a kernel to every
//! logical op of a program, and
//! [`CompiledProgram::new`](crate::cache::CompiledProgram::new) is its one
//! entry point.
//!
//! The selection mirrors the surveyed compilers' LOP assignment and runs as
//! one pipeline: propagated sparsity estimates pick the dense or sparse
//! family (crossover calibrated by experiment E6), dense nodes with a
//! multi-threaded kernel upgrade to [`Kernel::Parallel`] where that pays,
//! `sum(f(A))` patterns fuse into their `sum`, and under a bounded
//! [`MemoryBudget`] the liveness certifier downgrades nodes to
//! [`Kernel::Blocked`] until the plan's peak live set fits.
//! [`PlanOptions`] carries everything the pipeline is parameterized by.

use crate::cost::CostModel;
use crate::expr::{AggOp, Graph, NodeId, Op};
use crate::liveness::{
    certify_plan, certify_schedule, min_peak_order, PlanCertificate, Schedule, Verdict,
};
use crate::memory::MemoryBudget;
use crate::size::{InputSizes, SizeInfo};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Kernel family chosen for one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Dense row-major kernel.
    Dense,
    /// CSR sparse kernel.
    Sparse,
    /// Scalar computation (constants, folded aggregates).
    Scalar,
    /// Multi-threaded dense kernel (`dm_matrix::par`), chosen when the plan
    /// was built with a degree above one and the serial-vs-parallel
    /// crossover (measured, or [`PAR_FLOP_THRESHOLD`]) favors it.
    Parallel,
    /// Blocked out-of-core kernel (`dm_buffer::ooc`), chosen by the planner
    /// under a bounded budget when the certified live set would otherwise
    /// exceed it: tiles stream through a buffer pool instead of being held
    /// resident at once.
    Blocked,
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::Dense => "dense",
            Kernel::Sparse => "sparse",
            Kernel::Scalar => "scalar",
            Kernel::Parallel => "parallel",
            Kernel::Blocked => "blocked",
        })
    }
}

/// The per-node physical plan.
#[derive(Debug, Clone, Default)]
pub struct PhysicalPlan {
    kernels: HashMap<NodeId, Kernel>,
    /// Each fused node, mapped to the `sum` whose step computes it.
    fused: HashMap<NodeId, NodeId>,
    degree: usize,
    pub(crate) mem_budget: Option<usize>,
    /// Shared, since the server clones the plan per request.
    schedule: Arc<Schedule>,
}

impl PhysicalPlan {
    /// The kernel chosen for a node (defaults to dense for nodes the planner
    /// never saw — e.g. when sizes were unavailable).
    pub fn kernel(&self, id: NodeId) -> Kernel {
        self.kernels.get(&id).copied().unwrap_or(Kernel::Dense)
    }

    /// Degree of parallelism the plan was built for (at least 1); the
    /// executor dispatches [`Kernel::Parallel`] nodes at this degree.
    pub fn degree(&self) -> usize {
        self.degree.max(1)
    }

    /// The memory budget (bytes) the plan was built under; `None` for
    /// unbounded plans. The executor sizes its spill pool from this.
    pub fn mem_budget(&self) -> Option<usize> {
        self.mem_budget
    }

    /// The schedule the planner fitted the plan to: the depth-first order,
    /// or under a bounded budget the peak-minimizing one when that fits
    /// better (step 4 of [`PlanOptions`]' pipeline), with every value's
    /// lifetime under the plan's fusion.
    /// [`Executor::eval`](crate::exec::Executor::eval) of the plan's root
    /// runs it. Empty for a plan the planner did not build.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The schedule evaluating `root` under this plan: the plan's own when
    /// it ends at `root`, else the depth-first one from `root`.
    pub(crate) fn schedule_for(&self, graph: &Graph, root: NodeId) -> Arc<Schedule> {
        if self.schedule.order().last() == Some(&root) {
            return Arc::clone(&self.schedule);
        }
        Arc::new(Schedule::new(graph, graph.reachable(root), self))
    }

    /// Schedule `order` under the plan's current fusion decisions.
    fn reschedule(&mut self, graph: &Graph, order: Vec<NodeId>) {
        self.schedule = Arc::new(Schedule::new(graph, order, self));
    }

    /// The `sum` whose step computes node `id` when the plan fused `id` into
    /// it (see [`PlanOptions`], step 3); the fused node produces nothing at its own step.
    pub(crate) fn fused_into(&self, id: NodeId) -> Option<NodeId> {
        self.fused.get(&id).copied()
    }

    /// True when `root` is a planned node. A schedule ending there reads
    /// each node at most as often as the plan's own does, so a fused node
    /// keeps its `sum` as only reader whenever that `sum` is scheduled.
    pub(crate) fn covers(&self, root: NodeId) -> bool {
        self.kernels.contains_key(&root)
    }

    /// Number of planned nodes.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True when no nodes were planned.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// The planned nodes assigned kernel `k`, in ascending node order.
    pub fn nodes_with(&self, k: Kernel) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.kernels.iter().filter(|&(_, &kk)| kk == k).map(|(&n, _)| n).collect();
        v.sort_unstable();
        v
    }
}

/// Everything the planner is parameterized by.
/// [`PlanOptions::new`] is the serial, unbounded, statically costed plan;
/// set only the fields that differ:
///
/// ```
/// use dm_lang::physical::{Kernel, PlanOptions};
/// use dm_lang::{parser, size::InputSizes, CompiledProgram, MemoryBudget};
///
/// let (g, root) = parser::parse("sum(X + X)").unwrap();
/// let mut sizes = InputSizes::new();
/// sizes.declare("X", 512, 512, 1.0); // 2 MiB
/// let budget = MemoryBudget::bytes(1 << 20);
/// let opts = PlanOptions { budget, ..PlanOptions::new(&sizes) };
/// let p = CompiledProgram::new(g, root, &opts).unwrap().plan;
/// assert_eq!(p.nodes_with(Kernel::Blocked).len(), 1, "the add streams its operand");
/// ```
///
/// The planner runs one pipeline over the sizes propagated from
/// [`sizes`](Self::sizes):
///
/// 1. **Representation.** Propagated sparsity picks [`Kernel::Sparse`] below
///    [`SPARSE_THRESHOLD`], [`Kernel::Dense`] otherwise; aggregates and
///    multiplies follow their (first) operand, scalars are
///    [`Kernel::Scalar`].
/// 2. **Parallelism**, at a [`degree`](Self::degree) above one: a dense node
///    with a multi-threaded kernel upgrades to [`Kernel::Parallel`] when the
///    cost model's measured parallel price beats its serial one, or — where
///    the model cannot price both — when its estimated flops clear
///    [`PAR_FLOP_THRESHOLD`]. Sparse and scalar choices never upgrade, so
///    small inputs keep the exact serial dispatch at any degree.
/// 3. **Fusion**: in a `sum(f(A))` whose unary `f(A)` has no other reader,
///    `f(A)` fuses into the `sum`, which folds `f` over `A` in one pass.
///    When `A` is an unshared `X %*% W` on
///    [`Kernel::Dense`] or [`Kernel::Parallel`], over a non-sparse `W` and
///    wider than one column, it fuses too: the `sum` streams it in row
///    panels at the matmul's degree (`dm_matrix::par::gemm_map_sum`). A fused
///    node keeps its kernel.
/// 4. **Memory**, under a bounded [`budget`](Self::budget): the liveness
///    certifier ([`certify_schedule`]) accounts for composite peaks — several
///    individually-fitting values live at one step — and each round the
///    blockable node at the peak whose downgrade to [`Kernel::Blocked`]
///    shrinks the certified peak the most is taken, until the plan fits.
///    When no downgrade helps, every blockable node with an operand or
///    output larger than the budget streams, and the certificate honestly
///    reports `Exceeds`. Sparse and scalar choices are never touched, and a
///    blocked matmul no longer fuses. The plan is fitted twice, to the
///    depth-first order and to the peak-minimizing [`min_peak_order`]; the
///    second fit is kept only when it blocks fewer nodes, or as many at a
///    strictly lower certified peak. An unbounded plan keeps the
///    depth-first order.
///
/// The plan comes back with the certificate of its own schedule under the
/// budget, which the program keeps as
/// [`CompiledProgram::certificate`](crate::cache::CompiledProgram::certificate).
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions<'a> {
    /// Declared input sizes, propagated over the program once.
    pub sizes: &'a InputSizes,
    /// Degree of parallelism; 0 and 1 both mean serial. Above one, dense
    /// nodes with a multi-threaded kernel may upgrade to
    /// [`Kernel::Parallel`].
    pub degree: usize,
    /// Cap on the plan's certified peak live set. When bounded, nodes are
    /// downgraded to [`Kernel::Blocked`] until the certificate fits.
    pub budget: MemoryBudget,
    /// Measured kernel throughputs. Where the model prices both the serial
    /// and the parallel family of a node at its size class, the upgrade
    /// compares the two prices; elsewhere, and with `None`, the static
    /// [`PAR_FLOP_THRESHOLD`] decides.
    pub cost: Option<&'a CostModel>,
}

impl<'a> PlanOptions<'a> {
    /// The serial, unbounded, statically costed options over the given
    /// sizes.
    pub fn new(sizes: &'a InputSizes) -> Self {
        PlanOptions { sizes, degree: 1, budget: MemoryBudget::unbounded(), cost: None }
    }

    /// The machine defaults: degree from `DMML_THREADS` / the core count
    /// ([`dm_par::default_degree`]) and budget from `DMML_MEM_BUDGET`
    /// ([`MemoryBudget::from_env`]). The cost model is borrowed, so the
    /// caller loads it: pass [`CostModel::from_env`]`().as_ref()` to let the
    /// profile under `DMML_PROFILE_DIR` steer the serial-vs-parallel
    /// crossover, closing the adaptive loop.
    pub fn from_env(sizes: &'a InputSizes, cost: Option<&'a CostModel>) -> Self {
        PlanOptions {
            degree: dm_par::default_degree(),
            budget: MemoryBudget::from_env(),
            cost,
            ..Self::new(sizes)
        }
    }
}

/// Sparsity below which sparse kernels win for multiply-like ops.
///
/// CSR row iteration costs roughly `2·nnz` flops plus index traffic versus the
/// dense kernel's `2·n·d`; the index overhead and lost vectorization put the
/// measured crossover near 0.15–0.3 on this code base (see E6). We use a
/// conservative 0.2.
pub const SPARSE_THRESHOLD: f64 = 0.2;

/// Estimated flops below which serial dense kernels beat the multi-threaded
/// ones. The register tiles run ~30 GFLOP/s per core (E16), so 16M flops
/// is ~0.5 ms of serial work: a few times the ~0.1 ms a parallel dispatch
/// was measured to add (E13: a compressed gemv ran ~70 µs serial and
/// ~195 µs at degree 2), while everything the small-input benchmarks (E5)
/// execute stays far below it.
pub const PAR_FLOP_THRESHOLD: u128 = 16_000_000;

/// Assign a kernel to every node reachable from `root`, by the pipeline
/// [`PlanOptions`] describes, over `sizes` propagated from `opts.sizes`
/// (every reachable node has an entry). Returns the plan and its
/// certificate under `opts.budget`.
pub(crate) fn plan(
    graph: &Graph,
    root: NodeId,
    sizes: &HashMap<NodeId, SizeInfo>,
    opts: &PlanOptions,
) -> (PhysicalPlan, PlanCertificate) {
    let reachable = graph.reachable(root);
    let kernels = reachable.iter().map(|&id| (id, representation(graph, id, sizes))).collect();
    let mut p = PhysicalPlan {
        kernels,
        fused: HashMap::new(),
        degree: opts.degree.max(1),
        mem_budget: opts.budget.get(),
        schedule: Arc::default(),
    };

    if p.degree > 1 {
        for &id in &reachable {
            if p.kernel(id) != Kernel::Dense || !parallelizable(graph.op(id)) {
                continue;
            }
            let flops = node_flops(graph, id, sizes);
            let measured = opts.cost.and_then(|model| {
                let op = crate::explain::op_label(graph, id);
                // The serial price is what dispatch would classify this node
                // as without the upgrade (fused for crossprod/tmv/sumSq).
                let serial = crate::cost::node_family(graph, id, &p);
                Some(
                    model.calibrated_ns(&op, "parallel", flops)?
                        < model.calibrated_ns(&op, serial, flops)?,
                )
            });
            if measured.unwrap_or(flops >= PAR_FLOP_THRESHOLD) {
                p.kernels.insert(id, Kernel::Parallel);
            }
        }
    }

    // Fusion reads the unfused schedule's read counts, which fusion does
    // not change.
    p.reschedule(graph, reachable);
    fuse(graph, sizes, &mut p);
    let Some(limit) = opts.budget.get() else {
        let cert = certify_plan(graph, root, &p, sizes, opts.budget);
        return (p, cert);
    };
    let mut low = p.clone();
    low.reschedule(graph, min_peak_order(graph, root, sizes, &p));
    let fitted = fit_plan_to_schedule(graph, sizes, limit, p);
    let low = fit_plan_to_schedule(graph, sizes, limit, low);
    let fit = |(q, cert): &(PhysicalPlan, PlanCertificate)| {
        (q.nodes_with(Kernel::Blocked).len(), cert.peak_bytes)
    };
    if fit(&low) < fit(&fitted) {
        low
    } else {
        fitted
    }
}

/// Record the fused nodes of the plan's schedule (step 3 of [`plan`]), each
/// mapped to its `sum`, and reschedule under them.
fn fuse(graph: &Graph, sizes: &HashMap<NodeId, SizeInfo>, p: &mut PhysicalPlan) {
    let sched = Arc::clone(&p.schedule);
    let reads = sched.read_counts();
    for &sum in sched.order() {
        let Op::Agg(AggOp::Sum, fa) = *graph.op(sum) else { continue };
        let Op::Unary(_, a) = *graph.op(fa) else { continue };
        if reads[fa] != 1 {
            continue;
        }
        p.fused.insert(fa, sum);
        if let Op::MatMul(_, w) = *graph.op(a) {
            let streams = matches!(p.kernel(a), Kernel::Dense | Kernel::Parallel)
                && p.kernel(w) != Kernel::Sparse
                && sizes.get(&a).is_some_and(|i| i.shape.cols() > 1);
            if reads[a] == 1 && streams {
                p.fused.insert(a, sum);
            }
        }
    }
    p.reschedule(graph, sched.order().to_vec());
}

/// Move node `id` to [`Kernel::Blocked`]; a blocked matmul does not fuse,
/// so un-fusing it reschedules the plan.
fn block(graph: &Graph, p: &mut PhysicalPlan, id: NodeId) {
    p.kernels.insert(id, Kernel::Blocked);
    if p.fused.remove(&id).is_some() {
        p.reschedule(graph, p.schedule.order().to_vec());
    }
}

fn representation(graph: &Graph, id: NodeId, sizes: &HashMap<NodeId, SizeInfo>) -> Kernel {
    let of = |n: NodeId| match sizes.get(&n) {
        Some(i) if matches!(i.shape, crate::size::Shape::Scalar) => Kernel::Scalar,
        Some(i) if i.sparsity < SPARSE_THRESHOLD => Kernel::Sparse,
        _ => Kernel::Dense,
    };
    match graph.op(id) {
        Op::Const(_) => Kernel::Scalar,
        // Aggregates produce small outputs and multiplies are driven by
        // their left operand: the kernel follows the *input* representation.
        Op::Agg(_, a) | Op::SumSq(a) | Op::MatMul(a, _) | Op::Tmv(a, _) | Op::CrossProd(a) => {
            of(*a)
        }
        Op::Input(_) | Op::Transpose(_) | Op::Ewise(_, _, _) | Op::Unary(_, _) => of(id),
    }
}

/// Estimated flops executed by a single node given propagated sizes — the
/// per-node term of [`estimated_cost`](crate::rewrite::estimated_cost), also
/// what the planner weighs against [`PAR_FLOP_THRESHOLD`]. Nodes with no size
/// information estimate 0.
pub fn node_flops(graph: &Graph, id: NodeId, infos: &HashMap<NodeId, SizeInfo>) -> u128 {
    use crate::size::Shape;
    let nnz = |id: NodeId| -> u128 {
        match infos.get(&id) {
            Some(info) => match info.shape {
                Shape::Scalar => 1,
                Shape::Matrix { rows, cols } => {
                    ((rows as f64) * (cols as f64) * info.sparsity).ceil() as u128
                }
            },
            None => 0,
        }
    };
    let cells = |id: NodeId| -> u128 {
        match infos.get(&id) {
            Some(info) => match info.shape {
                Shape::Scalar => 1,
                Shape::Matrix { rows, cols } => (rows as u128) * (cols as u128),
            },
            None => 0,
        }
    };
    match graph.op(id) {
        Op::Input(_) | Op::Const(_) => 0,
        Op::Transpose(a) => nnz(*a),
        Op::MatMul(a, b) => {
            let b_cols = infos.get(b).map_or(0, |i| i.shape.cols()) as u128;
            2 * nnz(*a) * b_cols
        }
        Op::Ewise(_, _, _) => cells(id),
        Op::Unary(_, a) | Op::Agg(_, a) => nnz(*a),
        Op::CrossProd(a) => {
            let a_cols = infos.get(a).map_or(0, |i| i.shape.cols()) as u128;
            // The dense kernel computes the upper triangle: half the
            // products of the sparse kernel's full pass.
            let sparse = infos.get(a).is_some_and(|i| i.sparsity < SPARSE_THRESHOLD);
            (if sparse { 2 } else { 1 }) * nnz(*a) * a_cols
        }
        Op::Tmv(a, _) | Op::SumSq(a) => 2 * nnz(*a),
    }
}

/// True for ops with a multi-threaded dense kernel in `dm_matrix::par`.
fn parallelizable(op: &Op) -> bool {
    matches!(
        op,
        Op::MatMul(..) | Op::CrossProd(_) | Op::Tmv(..) | Op::SumSq(_) | Op::Agg(AggOp::ColSums, _)
    )
}

/// True for ops with a blocked out-of-core kernel in `dm_buffer::ooc`.
fn blockable(op: &Op) -> bool {
    matches!(op, Op::MatMul(..) | Op::CrossProd(_) | Op::Ewise(..) | Op::Agg(AggOp::ColSums, _))
}

/// Dense in-memory footprint of a node's value in bytes, per propagated
/// shape. Sparsity is deliberately ignored: the blocked kernels stream dense
/// row panels, and sparse-planned nodes are never upgraded anyway.
fn dense_bytes(info: Option<&SizeInfo>) -> usize {
    use crate::size::Shape;
    match info {
        Some(i) => match i.shape {
            Shape::Scalar => 8,
            Shape::Matrix { rows, cols } => rows.saturating_mul(cols).saturating_mul(8),
        },
        None => 0,
    }
}

/// The local blocking rule: a blockable node goes [`Kernel::Blocked`] when
/// its own output or any operand alone exceeds the budget. The fallback for
/// plans no single downgrade can make fit; it misses composite peaks — see
/// `certifier_counts_composite_peaks_the_per_node_check_misses` in
/// [`crate::liveness`].
fn apply_per_node_blocking(
    graph: &Graph,
    sizes: &HashMap<NodeId, SizeInfo>,
    limit: usize,
    p: &mut PhysicalPlan,
) {
    let sched = Arc::clone(&p.schedule);
    for &id in sched.order() {
        if !matches!(p.kernel(id), Kernel::Dense | Kernel::Parallel) || !blockable(graph.op(id)) {
            continue;
        }
        let oversized = std::iter::once(id)
            .chain(graph.op(id).children().iter().copied())
            .any(|n| dense_bytes(sizes.get(&n)) > limit);
        if oversized {
            block(graph, p, id);
        }
    }
}

/// Certifier-driven fixed point: upgrade blockable nodes to
/// [`Kernel::Blocked`] one at a time — greedily, by largest certified-peak
/// reduction — until the plan fits `limit` bytes over its schedule or no
/// candidate improves the peak. Candidates each round are the blockable
/// dense/parallel nodes implicated at the peak step: the node executing
/// there, or any consumer of a value live there (blocking a consumer turns
/// its operands into streamed, pool-resident values). Returns the fitted
/// plan with its certificate.
fn fit_plan_to_schedule(
    graph: &Graph,
    sizes: &HashMap<NodeId, SizeInfo>,
    limit: usize,
    mut p: PhysicalPlan,
) -> (PhysicalPlan, PlanCertificate) {
    let budget = MemoryBudget::bytes(limit);
    loop {
        let cert = certify_schedule(graph, &p.schedule, &p, sizes, budget);
        let Verdict::Exceeds { .. } = cert.verdict else {
            return (p, cert);
        };
        let peak = &cert.timeline[cert.peak_step];
        let peak_live: std::collections::HashSet<NodeId> =
            peak.live.iter().map(|&(v, _)| v).collect();
        let exec_at_peak = peak.node;
        let mut best: Option<(usize, NodeId)> = None;
        for &c in p.schedule.order() {
            if !matches!(p.kernel(c), Kernel::Dense | Kernel::Parallel) || !blockable(graph.op(c)) {
                continue;
            }
            let relevant =
                c == exec_at_peak || graph.op(c).children().iter().any(|ch| peak_live.contains(ch));
            if !relevant {
                continue;
            }
            let mut trial = p.clone();
            block(graph, &mut trial, c);
            let tc = certify_schedule(graph, &trial.schedule, &trial, sizes, budget);
            if best.is_none_or(|(bp, _)| tc.peak_bytes < bp) {
                best = Some((tc.peak_bytes, c));
            }
        }
        match best {
            Some((new_peak, c)) if new_peak < cert.peak_bytes => block(graph, &mut p, c),
            // No single upgrade shrinks the peak any further: a certified
            // fit is out of reach (the certificate reports Exceeds). So
            // oversized operands still stream rather than being held whole,
            // finish with the per-node rule.
            _ => {
                apply_per_node_blocking(graph, sizes, limit, &mut p);
                let cert = certify_schedule(graph, &p.schedule, &p, sizes, budget);
                return (p, cert);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggOp;

    /// Plan under `opts`, over its declared inputs propagated the way
    /// `CompiledProgram::new` propagates them.
    fn plan_with(g: &Graph, root: NodeId, opts: &PlanOptions) -> PhysicalPlan {
        let sizes = crate::size::propagate(g, root, opts.sizes).unwrap();
        plan(g, root, &sizes, opts).0
    }

    /// Plan over declared inputs at the given degree, budget and cost model.
    fn plan_at(
        g: &Graph,
        root: NodeId,
        s: &InputSizes,
        degree: usize,
        budget: MemoryBudget,
        cost: Option<&CostModel>,
    ) -> PhysicalPlan {
        plan_with(g, root, &PlanOptions { degree, budget, cost, ..PlanOptions::new(s) })
    }

    fn inputs() -> InputSizes {
        let mut s = InputSizes::new();
        s.declare("D", 100, 50, 0.9); // dense
        s.declare("S", 100, 50, 0.01); // sparse
        s.declare("v", 50, 1, 1.0);
        s
    }

    #[test]
    fn dense_input_gets_dense_kernels() {
        let mut g = Graph::new();
        let d = g.input("D");
        let v = g.input("v");
        let mm = g.matmul(d, v);
        let p = plan_with(&g, mm, &PlanOptions::new(&inputs()));
        assert_eq!(p.kernel(mm), Kernel::Dense);
        assert_eq!(p.kernel(d), Kernel::Dense);
    }

    #[test]
    fn sparse_input_gets_sparse_kernels() {
        let mut g = Graph::new();
        let s = g.input("S");
        let v = g.input("v");
        let mm = g.matmul(s, v);
        let p = plan_with(&g, mm, &PlanOptions::new(&inputs()));
        assert_eq!(p.kernel(mm), Kernel::Sparse);
        assert_eq!(p.kernel(s), Kernel::Sparse);
    }

    #[test]
    fn aggregate_follows_input_representation() {
        let mut g = Graph::new();
        let s = g.input("S");
        let sum = g.agg(AggOp::Sum, s);
        let p = plan_with(&g, sum, &PlanOptions::new(&inputs()));
        assert_eq!(p.kernel(sum), Kernel::Sparse);

        let mut g = Graph::new();
        let d = g.input("D");
        let sum = g.agg(AggOp::Sum, d);
        let p = plan_with(&g, sum, &PlanOptions::new(&inputs()));
        assert_eq!(p.kernel(sum), Kernel::Dense);
    }

    #[test]
    fn scalar_nodes_marked() {
        let mut g = Graph::new();
        let c = g.constant(2.0);
        let p = plan_with(&g, c, &PlanOptions::new(&inputs()));
        assert_eq!(p.kernel(c), Kernel::Scalar);
    }

    #[test]
    fn elementwise_product_of_sparse_goes_sparse() {
        // S * S has sparsity 0.0001 -> sparse kernel.
        let mut g = Graph::new();
        let s = g.input("S");
        let had = g.ewise(crate::expr::EwiseOp::Mul, s, s);
        let p = plan_with(&g, had, &PlanOptions::new(&inputs()));
        assert_eq!(p.kernel(had), Kernel::Sparse);
    }

    #[test]
    fn unknown_nodes_default_dense() {
        let p = PhysicalPlan::default();
        assert_eq!(p.kernel(42), Kernel::Dense);
        assert!(p.is_empty());
        assert_eq!(p.degree(), 1);
    }

    #[test]
    fn large_dense_ops_upgrade_to_parallel() {
        // crossprod on 100_000 x 200 dense: 2e7 * 200 = 4e9 flops, far above
        // the threshold.
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = plan_at(&g, cp, &s, 4, MemoryBudget::unbounded(), None);
        assert_eq!(p.kernel(cp), Kernel::Parallel);
        assert_eq!(p.degree(), 4);
        // Inputs are not compute nodes; they stay dense.
        assert_eq!(p.kernel(x), Kernel::Dense);
    }

    #[test]
    fn small_dense_ops_stay_serial_at_any_degree() {
        // The E5 shape: 1000 x 20 crossprod is 4e5 flops, below threshold.
        let mut s = InputSizes::new();
        s.declare("X", 1000, 20, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = plan_at(&g, cp, &s, 8, MemoryBudget::unbounded(), None);
        assert_eq!(p.kernel(cp), Kernel::Dense);
    }

    #[test]
    fn sparse_choices_never_upgrade() {
        let mut s = InputSizes::new();
        s.declare("S", 1_000_000, 500, 0.01); // sparse but huge
        let mut g = Graph::new();
        let x = g.input("S");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = plan_at(&g, cp, &s, 8, MemoryBudget::unbounded(), None);
        assert_eq!(p.kernel(cp), Kernel::Sparse);
    }

    #[test]
    fn degree_one_plan_is_the_serial_plan() {
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = plan_at(&g, cp, &s, 1, MemoryBudget::unbounded(), None);
        assert_eq!(p.kernel(cp), Kernel::Dense);
        assert_eq!(p.degree(), 1);
    }

    #[test]
    fn oversized_dense_ops_go_blocked() {
        // 100_000 x 200 dense X is 160 MB; a 1 MB budget forces the
        // crossprod out-of-core even though it also cleared the parallel
        // flop threshold.
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = plan_at(&g, cp, &s, 4, MemoryBudget::bytes(1 << 20), None);
        assert_eq!(p.kernel(cp), Kernel::Blocked);
        assert_eq!(p.mem_budget(), Some(1 << 20));
        // Inputs are not compute nodes; they are never blocked.
        assert_eq!(p.kernel(x), Kernel::Dense);
    }

    #[test]
    fn unbounded_budget_leaves_the_degree_plan_unchanged() {
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = plan_at(&g, cp, &s, 4, MemoryBudget::unbounded(), None);
        assert_eq!(p.kernel(cp), Kernel::Parallel);
        assert_eq!(p.mem_budget(), None);
    }

    #[test]
    fn sparse_and_small_nodes_never_go_blocked() {
        let mut s = InputSizes::new();
        s.declare("S", 1_000_000, 500, 0.01); // huge but sparse-planned
        s.declare("D", 100, 50, 0.9); // dense but tiny
        let mut g = Graph::new();
        let sp = g.input("S");
        let cp = g.push(crate::expr::Op::CrossProd(sp));
        let p = plan_at(&g, cp, &s, 4, MemoryBudget::bytes(1 << 20), None);
        assert_eq!(p.kernel(cp), Kernel::Sparse, "sparse kernels already stream non-zeros");

        let mut g = Graph::new();
        let d = g.input("D");
        let dd = g.ewise(crate::expr::EwiseOp::Add, d, d);
        let p = plan_at(&g, dd, &s, 4, MemoryBudget::bytes(1 << 20), None);
        assert_eq!(p.kernel(dd), Kernel::Dense, "fits the budget, stays in memory");
    }

    #[test]
    fn oversized_operand_blocks_the_consumer_not_the_producer_of_small_outputs() {
        // colSums over an oversized dense matrix produces a tiny 1 x d row,
        // but reading the operand is what must stream.
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cs = g.agg(AggOp::ColSums, x);
        let p = plan_at(&g, cs, &s, 1, MemoryBudget::bytes(1 << 20), None);
        assert_eq!(p.kernel(cs), Kernel::Blocked);
        assert_eq!(p.degree(), 1, "blocked selection is independent of degree");
    }

    #[test]
    fn composite_peak_blocks_what_the_per_node_check_misses() {
        // Z = X + Y with X, Y 256x256 dense (512 KB each) under a 1.3 MB
        // budget: every node individually fits, so the per-node rule blocks
        // nothing and execution would hold 1.5 MB live at the add. The
        // certifier sees the composite peak and blocks the add, whose
        // streamed form fits.
        let mut s = InputSizes::new();
        s.declare("X", 256, 256, 1.0);
        s.declare("Y", 256, 256, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let y = g.input("Y");
        let z = g.ewise(crate::expr::EwiseOp::Add, x, y);
        let root = g.agg(AggOp::Sum, z);
        let sizes = crate::size::propagate(&g, root, &s).unwrap();
        let budget = MemoryBudget::bytes(1_300_000);

        let unfitted = plan_with(&g, root, &PlanOptions::new(&s));
        let mut per_node = unfitted.clone();
        apply_per_node_blocking(&g, &sizes, 1_300_000, &mut per_node);
        assert_eq!(
            per_node.nodes_with(Kernel::Blocked),
            Vec::<NodeId>::new(),
            "per-node check is blind"
        );
        let unfitted_cert = crate::liveness::certify_plan(&g, root, &unfitted, &sizes, budget);
        assert!(!unfitted_cert.fits(), "3 x 512 KB live at the add > 1.3 MB");

        let new = plan_with(&g, root, &PlanOptions { budget, ..PlanOptions::new(&s) });
        assert_eq!(new.kernel(z), Kernel::Blocked, "the add streams its operands");
        let cert = crate::liveness::certify_plan(&g, root, &new, &sizes, budget);
        assert!(cert.fits(), "{}", cert.render(&g));
    }

    #[test]
    fn planner_stops_when_no_upgrade_helps() {
        // sum(X) has no blockable node; the plan is returned unchanged and
        // the certificate honestly reports Exceeds.
        let mut s = InputSizes::new();
        s.declare("X", 256, 256, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let root = g.agg(AggOp::Sum, x);
        let sizes = crate::size::propagate(&g, root, &s).unwrap();
        let budget = MemoryBudget::bytes(100_000);
        let p = plan_with(&g, root, &PlanOptions { budget, ..PlanOptions::new(&s) });
        assert_eq!(p.nodes_with(Kernel::Blocked), Vec::<NodeId>::new());
        let cert = crate::liveness::certify_plan(&g, root, &p, &sizes, budget);
        assert!(!cert.fits());
    }

    #[test]
    fn planner_picks_the_order_that_avoids_blocking() {
        // root = X + (A %*% B): the depth-first order holds X under the
        // matmul's transient and exceeds a 5 MB budget, so fitted to it the
        // plan must spill; the peak-minimizing order drains the matmul
        // first and fits without a single blocked node, so the planner
        // keeps that one.
        let mut s = InputSizes::new();
        s.declare("X", 256, 256, 1.0);
        s.declare("A", 256, 1024, 1.0);
        s.declare("B", 1024, 256, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let a = g.input("A");
        let b = g.input("B");
        let r = g.matmul(a, b);
        let root = g.ewise(crate::expr::EwiseOp::Add, x, r);
        let sizes = crate::size::propagate(&g, root, &s).unwrap();
        let budget = MemoryBudget::bytes(5_000_000);

        // The unbounded plan keeps the depth-first order, which exceeds the
        // budget unless something streams.
        let dfs = plan_with(&g, root, &PlanOptions::new(&s));
        assert_eq!(dfs.schedule().order(), &[x, a, b, r, root]);
        let (fitted, _) = fit_plan_to_schedule(&g, &sizes, 5_000_000, dfs.clone());
        assert!(!fitted.nodes_with(Kernel::Blocked).is_empty(), "DFS order must spill");

        let re = plan_with(&g, root, &PlanOptions { budget, ..PlanOptions::new(&s) });
        assert_eq!(re.schedule().order(), &[a, b, r, x, root]);
        assert_eq!(
            re.nodes_with(Kernel::Blocked),
            Vec::<NodeId>::new(),
            "the order fits in memory"
        );
        // Certified over the order the plan carries, not the DFS one.
        let cert = crate::liveness::certify_plan(&g, root, &re, &sizes, budget);
        assert!(cert.fits(), "{}", cert.render(&g));
        assert_eq!(cert.timeline.iter().map(|s| s.node).collect::<Vec<_>>(), [a, b, r, x, root]);
    }

    /// A model with `n` samples of the given GFLOP/s for (op, family) at
    /// `flops`' size class.
    fn model_with(entries: &[(&str, &str, u64, f64)]) -> crate::cost::CostModel {
        let mut s = dm_obs::ProfileStore::new();
        for &(op, family, flops, gflops) in entries {
            let ns = ((flops as f64 / gflops) as u64).max(1);
            for _ in 0..5 {
                s.record(op, family, flops, ns);
            }
        }
        crate::cost::CostModel::new(s)
    }

    #[test]
    fn empty_profile_reproduces_the_static_threshold_plan() {
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let model = crate::cost::CostModel::default();
        for degree in [1, 4] {
            let opts = PlanOptions { degree, ..PlanOptions::new(&s) };
            let static_plan = plan_with(&g, cp, &opts);
            let profiled = plan_with(&g, cp, &PlanOptions { cost: Some(&model), ..opts });
            for id in g.reachable(cp) {
                assert_eq!(profiled.kernel(id), static_plan.kernel(id));
            }
            assert_eq!(profiled.degree(), static_plan.degree());
        }
    }

    #[test]
    fn calibrated_crossover_overrides_the_flop_threshold() {
        // crossprod on 100_000 x 200: 4e9 flops, far above the static
        // threshold — but measurements say serial (fused) is faster than
        // parallel at this size, so the calibrated plan stays serial.
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let sizes = crate::size::propagate(&g, cp, &s).unwrap();
        let flops = node_flops(&g, cp, &sizes) as u64;

        let serial_wins = model_with(&[
            ("crossprod", "fused", flops, 4.0),
            ("crossprod", "parallel", flops, 2.0),
        ]);
        let p = plan_at(&g, cp, &s, 4, MemoryBudget::unbounded(), Some(&serial_wins));
        assert_eq!(p.kernel(cp), Kernel::Dense, "measured serial beats parallel");

        let parallel_wins = model_with(&[
            ("crossprod", "fused", flops, 2.0),
            ("crossprod", "parallel", flops, 6.0),
        ]);
        let p = plan_at(&g, cp, &s, 4, MemoryBudget::unbounded(), Some(&parallel_wins));
        assert_eq!(p.kernel(cp), Kernel::Parallel, "measured parallel beats serial");

        // One-sided evidence keeps the static threshold decision (upgrade,
        // since 4e9 >= PAR_FLOP_THRESHOLD).
        let one_sided = model_with(&[("crossprod", "fused", flops, 4.0)]);
        let p = plan_at(&g, cp, &s, 4, MemoryBudget::unbounded(), Some(&one_sided));
        assert_eq!(p.kernel(cp), Kernel::Parallel);
    }

    #[test]
    fn calibrated_crossover_can_parallelize_below_the_threshold() {
        // 1000 x 20 crossprod is 4e5 flops — statically serial — but if the
        // profile proves parallel faster at that size, the plan upgrades.
        let mut s = InputSizes::new();
        s.declare("X", 1000, 20, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let sizes = crate::size::propagate(&g, cp, &s).unwrap();
        let flops = node_flops(&g, cp, &sizes) as u64;
        let m = model_with(&[
            ("crossprod", "fused", flops, 1.0),
            ("crossprod", "parallel", flops, 3.0),
        ]);
        let p = plan_at(&g, cp, &s, 4, MemoryBudget::unbounded(), Some(&m));
        assert_eq!(p.kernel(cp), Kernel::Parallel);
    }

    #[test]
    fn memory_profile_plan_composes_crossover_and_blocking() {
        // crossprod far above the flop threshold, measurements saying serial
        // wins, and an input too big for the budget: the composed planner
        // must keep the node off Kernel::Parallel *and* still block it.
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0); // 160 MB input
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let sizes = crate::size::propagate(&g, cp, &s).unwrap();
        let flops = node_flops(&g, cp, &sizes) as u64;
        let serial_wins = model_with(&[
            ("crossprod", "fused", flops, 4.0),
            ("crossprod", "parallel", flops, 2.0),
        ]);

        let unbounded = plan_at(&g, cp, &s, 4, MemoryBudget::unbounded(), Some(&serial_wins));
        assert_eq!(unbounded.kernel(cp), Kernel::Dense, "measured serial beats parallel");

        let tight = plan_at(&g, cp, &s, 4, MemoryBudget::bytes(1 << 20), Some(&serial_wins));
        assert_eq!(tight.kernel(cp), Kernel::Blocked, "oversized operand still streams");

        // An empty model reproduces the model-free plan exactly.
        let empty = crate::cost::CostModel::default();
        for budget in [MemoryBudget::unbounded(), MemoryBudget::bytes(1 << 20)] {
            let composed = plan_at(&g, cp, &s, 4, budget, Some(&empty));
            let plain = plan_at(&g, cp, &s, 4, budget, None);
            for id in g.reachable(cp) {
                assert_eq!(composed.kernel(id), plain.kernel(id));
            }
        }
    }

    #[test]
    fn node_flops_matches_estimated_cost_total() {
        let mut s = InputSizes::new();
        s.declare("X", 500, 40, 0.8);
        s.declare("v", 40, 1, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let v = g.input("v");
        let mm = g.matmul(x, v);
        let sum = g.agg(crate::expr::AggOp::Sum, mm);
        let infos = crate::size::propagate(&g, sum, &s).unwrap();
        let per_node: u128 =
            g.reachable(sum).into_iter().map(|id| node_flops(&g, id, &infos)).sum();
        assert_eq!(per_node, crate::rewrite::estimated_cost(&g, sum, &s).unwrap());
    }
}

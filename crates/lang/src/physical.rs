//! Physical operator selection: one entry point, [`plan`], assigns a kernel
//! to every logical op.
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
use crate::memory::MemoryBudget;
use crate::size::{InputSizes, SizeError, SizeInfo};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::LazyLock;

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
    /// Blocked out-of-core kernel (`dm_buffer::ooc`), chosen by [`plan`]
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
    pub(crate) degree: usize,
    pub(crate) mem_budget: Option<usize>,
    order: Option<Vec<NodeId>>,
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

    /// The evaluation order the plan was fitted to, when it was built with
    /// [`PlanOptions::reorder`]. [`Executor::eval`](crate::exec::Executor::eval)
    /// of the plan's root runs it; `None` means the executor's default
    /// depth-first order.
    pub fn order(&self) -> Option<&[NodeId]> {
        self.order.as_deref()
    }

    /// The `sum` whose step computes node `id` when the plan fused `id` into
    /// it (see [`plan`]); the fused node produces nothing at its own step.
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

/// Where [`plan`] takes per-node sizes from. Both `&InputSizes` and a
/// propagated `&HashMap<NodeId, SizeInfo>` convert into it.
#[derive(Debug, Clone, Copy)]
pub enum Sizes<'a> {
    /// Declared input shapes; they are propagated over the DAG first, and a
    /// propagation failure (undeclared input, shape mismatch) fails the call.
    Declared(&'a InputSizes),
    /// An already-propagated map, for callers that propagated anyway. Nodes
    /// missing from it plan dense, and under a bounded budget a partial map
    /// replaces the certifier with the per-node oversize rule.
    Propagated(&'a HashMap<NodeId, SizeInfo>),
}

impl<'a> Sizes<'a> {
    /// The per-node size map: borrowed as is, or propagated from the
    /// declarations.
    pub(crate) fn resolve(
        self,
        graph: &Graph,
        root: NodeId,
    ) -> Result<Cow<'a, HashMap<NodeId, SizeInfo>>, SizeError> {
        match self {
            Sizes::Declared(inputs) => crate::size::propagate(graph, root, inputs).map(Cow::Owned),
            Sizes::Propagated(map) => Ok(Cow::Borrowed(map)),
        }
    }
}

impl Default for Sizes<'_> {
    /// No declared inputs: enough for constant-only programs.
    fn default() -> Self {
        static NONE: LazyLock<InputSizes> = LazyLock::new(InputSizes::new);
        Sizes::Declared(&NONE)
    }
}

impl<'a> From<&'a InputSizes> for Sizes<'a> {
    fn from(inputs: &'a InputSizes) -> Self {
        Sizes::Declared(inputs)
    }
}

impl<'a> From<&'a HashMap<NodeId, SizeInfo>> for Sizes<'a> {
    fn from(map: &'a HashMap<NodeId, SizeInfo>) -> Self {
        Sizes::Propagated(map)
    }
}

/// Everything [`plan`] is parameterized by. The default is the serial,
/// unbounded, statically costed plan; set only the fields that differ:
///
/// ```
/// use dm_lang::physical::{plan, Kernel, PlanOptions};
/// use dm_lang::{parser, size::InputSizes, MemoryBudget};
///
/// let (g, root) = parser::parse("sum(X + X)").unwrap();
/// let mut sizes = InputSizes::new();
/// sizes.declare("X", 512, 512, 1.0); // 2 MiB
/// let budget = MemoryBudget::bytes(1 << 20);
/// let p = plan(&g, root, &PlanOptions { budget, ..PlanOptions::new(&sizes) }).unwrap();
/// assert_eq!(p.nodes_with(Kernel::Blocked).len(), 1, "the add streams its operand");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanOptions<'a> {
    /// Declared input sizes or an already-propagated size map.
    pub sizes: Sizes<'a>,
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
    /// Fit the plan to the peak-minimizing schedule
    /// ([`min_peak_order`](crate::liveness::min_peak_order)) instead of the
    /// default depth-first order, and record it as [`PhysicalPlan::order`].
    /// The reordered schedule often fits a budget in memory that the
    /// default order could only meet by spilling.
    pub reorder: bool,
}

impl<'a> PlanOptions<'a> {
    /// The default options over the given sizes.
    pub fn new(sizes: impl Into<Sizes<'a>>) -> Self {
        PlanOptions { sizes: sizes.into(), ..Self::default() }
    }

    /// The machine defaults: degree from `DMML_THREADS` / the core count
    /// ([`dm_par::default_degree`]) and budget from `DMML_MEM_BUDGET`
    /// ([`MemoryBudget::from_env`]). The cost model is borrowed, so the
    /// caller loads it: pass [`CostModel::from_env`]`().as_ref()` to let the
    /// profile under `DMML_PROFILE_DIR` steer the serial-vs-parallel
    /// crossover, closing the adaptive loop.
    pub fn from_env(sizes: impl Into<Sizes<'a>>, cost: Option<&'a CostModel>) -> Self {
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
/// ones: at ~1 Gflop/s-per-core effective throughput, 16M flops is in the
/// tens of milliseconds — comfortably above the scoped-pool spawn + partition
/// overhead — while everything the small-input benchmarks (E5) execute stays
/// far below it.
pub const PAR_FLOP_THRESHOLD: u128 = 16_000_000;

/// Assign a kernel to every node reachable from `root`.
///
/// 1. **Representation.** Propagated sparsity picks [`Kernel::Sparse`] below
///    [`SPARSE_THRESHOLD`], [`Kernel::Dense`] otherwise; aggregates and
///    multiplies follow their (first) operand, scalars are
///    [`Kernel::Scalar`].
/// 2. **Parallelism**, at a degree above one: a dense node with a
///    multi-threaded kernel upgrades to [`Kernel::Parallel`] when the cost
///    model's measured parallel price beats its serial one, or — where the
///    model cannot price both — when its estimated flops clear
///    [`PAR_FLOP_THRESHOLD`]. Sparse and scalar choices never upgrade, so
///    small inputs keep the exact serial dispatch at any degree.
/// 3. **Fusion**: in a `sum(f(A))` whose unary `f(A)` has no other reader,
///    `f(A)` fuses into the `sum`, which folds `f` over `A` in one pass.
///    When `A` is an unshared `X %*% W` on
///    [`Kernel::Dense`] or [`Kernel::Parallel`], over a non-sparse `W` and
///    wider than one column, it fuses too: the `sum` streams it in row
///    panels at the matmul's degree (`dm_matrix::par::gemm_map_sum`). A fused
///    node keeps its kernel.
/// 4. **Memory**, under a bounded budget: the liveness certifier
///    ([`certify_schedule`](crate::liveness::certify_schedule)) accounts for
///    composite peaks — several individually-fitting values live at one
///    step — and each round the blockable node at the peak whose downgrade
///    to [`Kernel::Blocked`] shrinks the certified peak the most is taken,
///    until the plan fits. When no downgrade helps, or the size map is
///    partial, every blockable node with an operand or output larger than
///    the budget streams, and the certificate honestly reports `Exceeds`.
///    Sparse and scalar choices are never touched, and a blocked matmul no
///    longer fuses.
///
/// Fails only when [`Sizes::Declared`] inputs do not propagate.
pub fn plan(graph: &Graph, root: NodeId, opts: &PlanOptions) -> Result<PhysicalPlan, SizeError> {
    let sizes = opts.sizes.resolve(graph, root)?;
    let sizes = &*sizes;
    let reachable = graph.reachable(root);
    let kernels = reachable.iter().map(|&id| (id, representation(graph, id, sizes))).collect();
    let mut p = PhysicalPlan {
        kernels,
        fused: HashMap::new(),
        degree: opts.degree.max(1),
        mem_budget: opts.budget.get(),
        order: None,
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

    fuse(graph, &reachable, sizes, &mut p);
    let mut order = reachable;
    if let Some(limit) = opts.budget.get() {
        if order.iter().all(|id| sizes.contains_key(id)) {
            if opts.reorder {
                order = crate::liveness::min_peak_order(graph, root, sizes, &p);
            }
            let sched = crate::liveness::Schedule::from_order(graph, order.clone());
            fit_plan_to_schedule(graph, &sched, sizes, limit, &mut p);
        } else {
            apply_per_node_blocking(graph, &order, sizes, limit, &mut p);
        }
    }
    p.order = opts.reorder.then_some(order);
    Ok(p)
}

/// Record the fused nodes of `order` (step 3 of [`plan`]), each mapped to
/// its `sum`.
fn fuse(graph: &Graph, order: &[NodeId], sizes: &HashMap<NodeId, SizeInfo>, p: &mut PhysicalPlan) {
    let reads = graph.reads(order);
    for &sum in order {
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
}

/// Move node `id` to [`Kernel::Blocked`]; a blocked matmul does not fuse.
fn block(p: &mut PhysicalPlan, id: NodeId) {
    p.kernels.insert(id, Kernel::Blocked);
    p.fused.remove(&id);
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
/// what [`plan`] weighs against [`PAR_FLOP_THRESHOLD`]. Nodes with no size
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
            2 * nnz(*a) * a_cols
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
/// partial size maps (where the certifier cannot run) and for plans no
/// single downgrade can make fit; it misses composite peaks — see
/// `certifier_counts_composite_peaks_the_per_node_check_misses` in
/// [`crate::liveness`].
fn apply_per_node_blocking(
    graph: &Graph,
    reachable: &[NodeId],
    sizes: &HashMap<NodeId, SizeInfo>,
    limit: usize,
    p: &mut PhysicalPlan,
) {
    for &id in reachable {
        if !matches!(p.kernel(id), Kernel::Dense | Kernel::Parallel) || !blockable(graph.op(id)) {
            continue;
        }
        let oversized = std::iter::once(id)
            .chain(graph.op(id).children().iter().copied())
            .any(|n| dense_bytes(sizes.get(&n)) > limit);
        if oversized {
            block(p, id);
        }
    }
}

/// Certifier-driven fixed point: upgrade blockable nodes to
/// [`Kernel::Blocked`] one at a time — greedily, by largest certified-peak
/// reduction — until the plan fits `limit` bytes over `sched` or no
/// candidate improves the peak. Candidates each round are the blockable
/// dense/parallel nodes implicated at the peak step: the node executing
/// there, or any consumer of a value live there (blocking a consumer turns
/// its operands into streamed, pool-resident values).
fn fit_plan_to_schedule(
    graph: &Graph,
    sched: &crate::liveness::Schedule,
    sizes: &HashMap<NodeId, SizeInfo>,
    limit: usize,
    p: &mut PhysicalPlan,
) {
    use crate::liveness::{certify_schedule, Verdict};
    let budget = MemoryBudget::bytes(limit);
    loop {
        let cert = certify_schedule(graph, sched, p, sizes, budget);
        let Verdict::Exceeds { .. } = cert.verdict else {
            return;
        };
        let peak = &cert.timeline[cert.peak_step];
        let live_at_peak: std::collections::HashSet<NodeId> =
            peak.live.iter().map(|&(v, _)| v).collect();
        let exec_at_peak = peak.node;
        let mut best: Option<(usize, NodeId)> = None;
        for &c in sched.order() {
            if !matches!(p.kernel(c), Kernel::Dense | Kernel::Parallel) || !blockable(graph.op(c)) {
                continue;
            }
            let relevant = c == exec_at_peak
                || graph.op(c).children().iter().any(|ch| live_at_peak.contains(ch));
            if !relevant {
                continue;
            }
            let mut trial = p.clone();
            block(&mut trial, c);
            let tc = certify_schedule(graph, sched, &trial, sizes, budget);
            if best.is_none_or(|(bp, _)| tc.peak_bytes < bp) {
                best = Some((tc.peak_bytes, c));
            }
        }
        match best {
            Some((new_peak, c)) if new_peak < cert.peak_bytes => block(p, c),
            // No single upgrade shrinks the peak any further: a certified
            // fit is out of reach (the certificate will report Exceeds). So
            // oversized operands still stream rather than being held whole,
            // finish with the per-node rule.
            _ => {
                apply_per_node_blocking(graph, sched.order(), sizes, limit, p);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggOp;

    /// Plan over declared inputs at the given degree, budget and cost model.
    fn plan_at(
        g: &Graph,
        root: NodeId,
        s: &InputSizes,
        degree: usize,
        budget: MemoryBudget,
        cost: Option<&CostModel>,
    ) -> PhysicalPlan {
        plan(g, root, &PlanOptions { degree, budget, cost, ..PlanOptions::new(s) }).unwrap()
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
        let p = plan(&g, mm, &PlanOptions::new(&inputs())).unwrap();
        assert_eq!(p.kernel(mm), Kernel::Dense);
        assert_eq!(p.kernel(d), Kernel::Dense);
    }

    #[test]
    fn sparse_input_gets_sparse_kernels() {
        let mut g = Graph::new();
        let s = g.input("S");
        let v = g.input("v");
        let mm = g.matmul(s, v);
        let p = plan(&g, mm, &PlanOptions::new(&inputs())).unwrap();
        assert_eq!(p.kernel(mm), Kernel::Sparse);
        assert_eq!(p.kernel(s), Kernel::Sparse);
    }

    #[test]
    fn aggregate_follows_input_representation() {
        let mut g = Graph::new();
        let s = g.input("S");
        let sum = g.agg(AggOp::Sum, s);
        let p = plan(&g, sum, &PlanOptions::new(&inputs())).unwrap();
        assert_eq!(p.kernel(sum), Kernel::Sparse);

        let mut g = Graph::new();
        let d = g.input("D");
        let sum = g.agg(AggOp::Sum, d);
        let p = plan(&g, sum, &PlanOptions::new(&inputs())).unwrap();
        assert_eq!(p.kernel(sum), Kernel::Dense);
    }

    #[test]
    fn scalar_nodes_marked() {
        let mut g = Graph::new();
        let c = g.constant(2.0);
        let p = plan(&g, c, &PlanOptions::new(&inputs())).unwrap();
        assert_eq!(p.kernel(c), Kernel::Scalar);
    }

    #[test]
    fn elementwise_product_of_sparse_goes_sparse() {
        // S * S has sparsity 0.0001 -> sparse kernel.
        let mut g = Graph::new();
        let s = g.input("S");
        let had = g.ewise(crate::expr::EwiseOp::Mul, s, s);
        let p = plan(&g, had, &PlanOptions::new(&inputs())).unwrap();
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
        // crossprod on 100_000 x 200 dense: 2 * 2e7 * 200 = 8e9 flops, far
        // above the threshold.
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
        // The E5 shape: 1000 x 20 crossprod is 8e5 flops, below threshold.
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

        let unfitted = plan(&g, root, &PlanOptions::new(&sizes)).unwrap();
        let mut per_node = unfitted.clone();
        apply_per_node_blocking(&g, &g.reachable(root), &sizes, 1_300_000, &mut per_node);
        assert_eq!(
            per_node.nodes_with(Kernel::Blocked),
            Vec::<NodeId>::new(),
            "per-node check is blind"
        );
        let unfitted_cert = crate::liveness::certify_plan(&g, root, &unfitted, &sizes, budget);
        assert!(!unfitted_cert.fits(), "3 x 512 KB live at the add > 1.3 MB");

        let new = plan(&g, root, &PlanOptions { budget, ..PlanOptions::new(&sizes) }).unwrap();
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
        let p = plan(&g, root, &PlanOptions { budget, ..PlanOptions::new(&sizes) }).unwrap();
        assert_eq!(p.nodes_with(Kernel::Blocked), Vec::<NodeId>::new());
        let cert = crate::liveness::certify_plan(&g, root, &p, &sizes, budget);
        assert!(!cert.fits());
    }

    #[test]
    fn reordered_planner_avoids_blocking_where_the_schedule_suffices() {
        // root = X + (A %*% B): the default DFS order holds X under the
        // matmul's transient and exceeds a 5 MB budget, so the default plan
        // must spill; the peak-minimizing order drains the matmul first and
        // fits without a single blocked node.
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

        let opts = PlanOptions { budget, ..PlanOptions::new(&sizes) };
        let dfs = plan(&g, root, &opts).unwrap();
        assert_eq!(dfs.order(), None);
        assert!(!dfs.nodes_with(Kernel::Blocked).is_empty(), "DFS order must spill");

        let re = plan(&g, root, &PlanOptions { reorder: true, ..opts }).unwrap();
        assert_eq!(re.order(), Some(&[a, b, r, x, root][..]));
        assert_eq!(re.nodes_with(Kernel::Blocked), Vec::<NodeId>::new(), "reorder fits in memory");
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
            let static_plan = plan(&g, cp, &opts).unwrap();
            let profiled = plan(&g, cp, &PlanOptions { cost: Some(&model), ..opts }).unwrap();
            for id in g.reachable(cp) {
                assert_eq!(profiled.kernel(id), static_plan.kernel(id));
            }
            assert_eq!(profiled.degree(), static_plan.degree());
        }
    }

    #[test]
    fn calibrated_crossover_overrides_the_flop_threshold() {
        // crossprod on 100_000 x 200: 8e9 flops, far above the static
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
        // since 8e9 >= PAR_FLOP_THRESHOLD).
        let one_sided = model_with(&[("crossprod", "fused", flops, 4.0)]);
        let p = plan_at(&g, cp, &s, 4, MemoryBudget::unbounded(), Some(&one_sided));
        assert_eq!(p.kernel(cp), Kernel::Parallel);
    }

    #[test]
    fn calibrated_crossover_can_parallelize_below_the_threshold() {
        // 1000 x 20 crossprod is 8e5 flops — statically serial — but if the
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

//! Plan-time liveness analysis and peak-memory certification.
//!
//! The surveyed compilers decide memory at *plan time*: SystemML-style
//! worst-case operator estimates pick local vs. distributed execution before
//! a byte is allocated. This module is that discipline for the dm-lang
//! executor. Given a graph, a physical plan, and propagated sizes, it
//! derives the execution [`Schedule`] (topological order plus per-value
//! last-use steps, accounting for shared reads), runs an abstract memory
//! interpretation over it, and produces a [`PlanCertificate`]: either a
//! proof that the plan's peak live set fits the [`MemoryBudget`], or the
//! exact step and node where it first exceeds it.
//!
//! ## The abstract machine
//!
//! The certificate models an executor that materializes each value at the
//! step that produces it and frees it after its last consumer — which is
//! how [`Executor::eval`](crate::exec::Executor::eval) runs a plan, and the
//! admission-control contract for ROADMAP #2. Per step, resident bytes are:
//!
//! * every live non-streaming value, at its representation's footprint
//!   (dense cells, CSR triples for sparse-planned producers, 8 bytes for
//!   scalars);
//! * **streaming values** — values whose every consumer is
//!   [`Kernel::Blocked`] — contribute nothing outside their consumers'
//!   steps: they live in the spill pool, on disk, or in the source the
//!   blocked kernel reads panel-by-panel;
//! * **fused nodes** run inside their `sum`'s step
//!   ([`plan`](crate::physical::plan), step 3), and their operands stay live
//!   until it: a fused `f(A)` is never materialized (over a sparse-planned
//!   `A` it is charged as built, since that step maps `A` first), and a
//!   fused `X %*% W` holds only its `degree` streamed `ROW_BLOCK`-row
//!   panels, at that step;
//! * at a blocked node's own step, a **pool term**: the bytes its operand
//!   and output [`BlockStore`](dm_buffer::BlockStore)s would charge the
//!   pool (dense cells plus [`FRAME_OVERHEAD`](dm_buffer::FRAME_OVERHEAD)
//!   per panel), capped at
//!   [`crate::memory::spill_pool_capacity`] — the pool
//!   never holds more than its capacity, evicting to disk instead.
//!
//! The pool term is an upper bound on the executor's
//! `buffer.pool.lru.used_bytes` gauge by construction (same panel math, same
//! capacity clamp), which is what the upper-bound property test in
//! `tests/certify.rs` exercises across random DAGs and budgets. The
//! materialized terms are as good as the size estimates driving them.
//!
//! [`min_peak_order`] is the schedule half of the story: a Sethi–Ullman
//! style reordering that evaluates high-transient-peak subtrees before
//! high-hold siblings, often fitting a budget in memory that the default
//! depth-first order could only meet by spilling (the linter's `H203`).

use crate::expr::{AggOp, Graph, NodeId, Op};
use crate::memory::{spill_pool_capacity, MemoryBudget, OOC_PANEL_DENOM};
use crate::physical::{Kernel, PhysicalPlan};
use crate::size::{Shape, SizeInfo};
use dm_buffer::{panel_bytes, panel_rows_for, store_bytes};
use dm_matrix::par::ROW_BLOCK;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A topological execution order with per-value lifetime information.
#[derive(Debug, Clone)]
pub struct Schedule {
    order: Vec<NodeId>,
    step_of: HashMap<NodeId, usize>,
    last_use: HashMap<NodeId, usize>,
}

impl Schedule {
    /// The executor's default schedule: depth-first post-order from `root`
    /// (exactly [`Graph::reachable`]), shared nodes evaluated once at their
    /// first visit and read from the executor's value table thereafter.
    pub fn new(graph: &Graph, root: NodeId) -> Self {
        Self::from_order(graph, graph.reachable(root))
    }

    /// A schedule over an explicit topological `order` (children before
    /// parents), e.g. one produced by [`min_peak_order`].
    pub fn from_order(graph: &Graph, order: Vec<NodeId>) -> Self {
        let step_of: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        // A value's last use is its latest consumer's step; values nothing
        // consumes (the root) live from their own step to the end of their
        // own step.
        let mut last_use: HashMap<NodeId, usize> =
            order.iter().map(|&n| (n, step_of[&n])).collect();
        for &n in &order {
            let step = step_of[&n];
            for c in graph.op(n).children() {
                if let Some(lu) = last_use.get_mut(&c) {
                    *lu = (*lu).max(step);
                }
            }
        }
        Schedule { order, step_of, last_use }
    }

    /// Number of steps (= scheduled nodes).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The execution order, one node per step.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The step at which a node executes.
    pub fn step_of(&self, id: NodeId) -> Option<usize> {
        self.step_of.get(&id).copied()
    }

    /// The last step at which a node's value is read (its own step when
    /// nothing consumes it).
    pub fn last_use(&self, id: NodeId) -> Option<usize> {
        self.last_use.get(&id).copied()
    }

    /// The values live during `step`: produced at or before it, last used
    /// at or after it.
    pub fn live_at(&self, step: usize) -> Vec<NodeId> {
        self.order[..=step.min(self.order.len().saturating_sub(1))]
            .iter()
            .copied()
            .filter(|&v| self.last_use[&v] >= step)
            .collect()
    }
}

/// Resident-byte estimates for one value under each kernel family — the
/// per-node abstract memory domain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeFootprint {
    /// Dense row-major materialization: `rows * cols * 8`.
    pub dense: usize,
    /// CSR materialization at the propagated sparsity: 16 bytes per stored
    /// non-zero plus the row-offset array.
    pub sparse: usize,
    /// Best-encoding compressed size from the `dm-compress` cost model
    /// (never exceeds `dense`: uncompressed is always a candidate).
    pub compressed: usize,
    /// One streamed row panel under the budget, as the blocked kernels tile
    /// it (`dense` when the budget is unbounded).
    pub blocked_panel: usize,
}

/// Compute the [`NodeFootprint`] of a value from its propagated size, under
/// an optional byte budget (which determines the blocked panel height).
pub fn footprint(info: &SizeInfo, budget: Option<usize>) -> NodeFootprint {
    match info.shape {
        Shape::Scalar => NodeFootprint { dense: 8, sparse: 8, compressed: 8, blocked_panel: 8 },
        Shape::Matrix { rows, cols } => {
            let dense = dense_value_bytes(rows, cols);
            let blocked_panel = match budget {
                Some(limit) => {
                    panel_bytes(panel_rows_for(cols, limit, OOC_PANEL_DENOM).min(rows.max(1)), cols)
                }
                None => dense,
            };
            NodeFootprint {
                dense,
                sparse: sparse_value_bytes(rows, cols, info.sparsity),
                compressed: dm_compress::static_matrix_bytes(rows, cols, info.sparsity),
                blocked_panel,
            }
        }
    }
}

fn dense_value_bytes(rows: usize, cols: usize) -> usize {
    rows.saturating_mul(cols).saturating_mul(8)
}

/// CSR bytes: 8-byte value + 8-byte column index per stored non-zero, plus
/// the `rows + 1` row-offset array.
fn sparse_value_bytes(rows: usize, cols: usize, sparsity: f64) -> usize {
    let nnz = ((rows as f64) * (cols as f64) * sparsity.clamp(0.0, 1.0)).ceil() as usize;
    nnz.saturating_mul(16).saturating_add((rows + 1).saturating_mul(8))
}

/// Bytes a value keeps resident while live, per its producer's kernel:
/// sparse producers hold CSR, everything else holds dense (blocked kernels
/// densify their outputs for non-blocked consumers).
pub fn materialized_bytes(kernel: Kernel, info: &SizeInfo) -> usize {
    match info.shape {
        Shape::Scalar => 8,
        Shape::Matrix { rows, cols } => match kernel {
            Kernel::Sparse => sparse_value_bytes(rows, cols, info.sparsity),
            _ => dense_value_bytes(rows, cols),
        },
    }
}

/// Pool bytes a blocked node's operand and output stores charge, mirroring
/// the executor's tiling exactly (same panel heights, same per-frame
/// overhead; gemv-shaped matmuls pool only the left operand, reductions
/// only their input). Zero for nodes without a blocked kernel shape.
fn blocked_io_bytes(
    graph: &Graph,
    id: NodeId,
    sizes: &HashMap<NodeId, SizeInfo>,
    limit: usize,
) -> usize {
    let dims = |n: NodeId| match sizes.get(&n).map(|s| s.shape) {
        Some(Shape::Matrix { rows, cols }) => Some((rows, cols)),
        _ => None,
    };
    let pr = |cols: usize| panel_rows_for(cols, limit, OOC_PANEL_DENOM);
    match graph.op(id) {
        Op::MatMul(a, b) => {
            let Some((ar, ac)) = dims(*a) else { return 0 };
            let sa = store_bytes(ar, ac, pr(ac));
            match dims(*b) {
                // gemm pools both operands plus the output store (panelled
                // at the left operand's height, as ooc::gemm builds it).
                Some((br, bc)) if bc > 1 => sa
                    .saturating_add(store_bytes(br, bc, pr(bc)))
                    .saturating_add(store_bytes(ar, bc, pr(ac))),
                // gemv streams only the left operand.
                _ => sa,
            }
        }
        Op::CrossProd(a) | Op::Agg(AggOp::ColSums, a) => {
            let Some((r, c)) = dims(*a) else { return 0 };
            store_bytes(r, c, pr(c))
        }
        Op::Ewise(_, a, b) => match (dims(*a), dims(*b)) {
            // matrix ⊕ matrix: two operand stores plus the output store.
            (Some((r, c)), Some(_)) => 3usize.saturating_mul(store_bytes(r, c, pr(c))),
            // matrix ⊕ scalar broadcast: input store plus output store.
            (Some((r, c)), None) | (None, Some((r, c))) => {
                2usize.saturating_mul(store_bytes(r, c, pr(c)))
            }
            (None, None) => 0,
        },
        _ => 0,
    }
}

/// Resident bytes at one schedule step.
#[derive(Debug, Clone)]
pub struct StepUsage {
    /// Step index in the schedule.
    pub step: usize,
    /// The node executing at this step.
    pub node: NodeId,
    /// Total modeled resident bytes during this step (live values plus the
    /// pool term).
    pub live_bytes: usize,
    /// The portion charged to the spill pool (non-zero only at blocked
    /// nodes' steps).
    pub pool_bytes: usize,
    /// The live materialized values and their individual contributions.
    pub live: Vec<(NodeId, usize)>,
}

/// The certifier's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The certified peak fits the budget (always the case when the budget
    /// is unbounded).
    Fits,
    /// The live set first exceeds the budget at `step`.
    Exceeds {
        /// First schedule step over budget.
        step: usize,
        /// The node executing at that step.
        node: NodeId,
        /// Modeled resident bytes at that step.
        live_bytes: usize,
    },
}

/// A static proof object for one (plan, schedule) pair: the full live-set
/// timeline, the peak, and whether it fits the budget.
#[derive(Debug, Clone)]
pub struct PlanCertificate {
    /// The budget certified against (`None` = unbounded).
    pub budget: Option<usize>,
    /// Maximum modeled resident bytes over all steps.
    pub peak_bytes: usize,
    /// The step where the peak occurs (first such step).
    pub peak_step: usize,
    /// Per-step usage, one entry per schedule step.
    pub timeline: Vec<StepUsage>,
    /// Fits or the first offending step.
    pub verdict: Verdict,
}

impl PlanCertificate {
    /// True when the plan is certified to fit.
    pub fn fits(&self) -> bool {
        matches!(self.verdict, Verdict::Fits)
    }

    /// Render the verdict and the live-set timeline as text (the section
    /// [`explain`](crate::explain::explain) appends under the plan tree for
    /// a bounded budget). Peak step marked `*`, over-budget steps `!`.
    pub fn render(&self, graph: &Graph) -> String {
        let mut out = String::new();
        match self.verdict {
            Verdict::Fits => {
                let _ = write!(out, "memory certificate: plan fits");
                if let Some(b) = self.budget {
                    let _ = write!(out, ": certified peak {} B <= budget {b} B", self.peak_bytes);
                } else {
                    let _ = write!(out, " (unbounded): certified peak {} B", self.peak_bytes);
                }
            }
            Verdict::Exceeds { step, node, live_bytes } => {
                let _ = write!(
                    out,
                    "memory certificate: plan EXCEEDS the budget: {live_bytes} B live at step \
                     {step} (%{node} {}) > budget {} B",
                    crate::explain::op_label(graph, node),
                    self.budget.unwrap_or(0),
                );
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "live-set timeline:");
        for su in &self.timeline {
            let over = self.budget.is_some_and(|b| su.live_bytes > b);
            let marker = if over {
                '!'
            } else if su.step == self.peak_step {
                '*'
            } else {
                ' '
            };
            let _ = write!(
                out,
                "{marker} step {:>3}  %{} {:<12} live {:>12} B",
                su.step,
                su.node,
                crate::explain::op_label(graph, su.node),
                su.live_bytes,
            );
            if su.pool_bytes > 0 {
                let _ = write!(out, "  (pool {} B)", su.pool_bytes);
            }
            if !su.live.is_empty() {
                let vals: Vec<String> = su.live.iter().map(|(v, b)| format!("%{v}:{b}")).collect();
                let _ = write!(out, "  [{}]", vals.join(" "));
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Certify `plan` over the schedule it runs: the order it carries when it
/// was built with [`reorder`](crate::physical::PlanOptions::reorder), the
/// default depth-first schedule from `root` otherwise.
///
/// Walks the schedule, sums the modeled live bytes at every step (see the
/// module docs for the abstract machine), and returns a
/// [`PlanCertificate`] whose verdict is either [`Verdict::Fits`] or the
/// exact first step/node over budget. Nodes missing from `sizes` are
/// treated as free — callers wanting sound certificates should check
/// coverage first (as [`plan`](crate::physical::plan) does, falling back to
/// per-node checks).
pub fn certify_plan(
    graph: &Graph,
    root: NodeId,
    plan: &PhysicalPlan,
    sizes: &HashMap<NodeId, SizeInfo>,
    budget: MemoryBudget,
) -> PlanCertificate {
    let sched = match plan.order() {
        Some(order) => Schedule::from_order(graph, order.to_vec()),
        None => Schedule::new(graph, root),
    };
    certify_schedule(graph, &sched, plan, sizes, budget)
}

/// [`certify_plan`] over an explicit schedule (e.g. from
/// [`min_peak_order`]).
pub fn certify_schedule(
    graph: &Graph,
    sched: &Schedule,
    plan: &PhysicalPlan,
    sizes: &HashMap<NodeId, SizeInfo>,
    budget: MemoryBudget,
) -> PlanCertificate {
    let limit = budget.get();
    let order = sched.order();
    // A node the plan fused runs inside its `sum`'s step: its operands are
    // read, and so live, until then.
    let covered = order.last().is_some_and(|&root| plan.covers(root));
    let fused_step =
        |n: NodeId| plan.fused_into(n).filter(|_| covered).and_then(|s| sched.step_of(s));
    let run_step: Vec<usize> =
        order.iter().enumerate().map(|(i, &n)| fused_step(n).unwrap_or(i)).collect();
    let mut last_use: HashMap<NodeId, usize> =
        order.iter().copied().zip(run_step.clone()).collect();
    // Streaming values — every consumer reads them panel-by-panel through
    // the pool — are never materialized; their bytes are the consumers'
    // pool terms.
    let mut consumers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for (&n, &step) in order.iter().zip(&run_step) {
        for c in graph.op(n).children() {
            consumers.entry(c).or_default().push(n);
            last_use.entry(c).and_modify(|lu| *lu = (*lu).max(step));
        }
    }
    let resident: HashMap<NodeId, usize> = order
        .iter()
        .map(|&v| {
            let streams = consumers
                .get(&v)
                .is_some_and(|cs| cs.iter().all(|&c| plan.kernel(c) == Kernel::Blocked));
            let bytes = match (sizes.get(&v), fused_step(v), graph.op(v)) {
                (Some(info), None, _) if !streams => materialized_bytes(plan.kernel(v), info),
                // A fused `f(A)` is never built, unless its `sum` step meets a
                // sparse `A` and maps it first.
                (Some(info), Some(_), &Op::Unary(_, a)) if plan.kernel(a) == Kernel::Sparse => {
                    materialized_bytes(plan.kernel(v), info)
                }
                // A fused product is streamed `degree` row panels at a time,
                // what `par::gemm_map_sum` holds.
                (Some(info), Some(_), Op::MatMul(..)) => {
                    let degree = if plan.kernel(v) == Kernel::Parallel { plan.degree() } else { 1 };
                    let rows = info.shape.rows().min(degree.saturating_mul(ROW_BLOCK));
                    dense_value_bytes(rows, info.shape.cols())
                }
                _ => 0,
            };
            (v, bytes)
        })
        .collect();

    let mut timeline = Vec::with_capacity(sched.len());
    let mut peak = (0usize, 0usize);
    let mut first_exceed: Option<(usize, NodeId, usize)> = None;
    for (step, &n) in order.iter().enumerate() {
        let mut live = Vec::new();
        let mut total = 0usize;
        for (&v, &made) in order.iter().zip(&run_step) {
            if made <= step && last_use[&v] >= step {
                let b = resident[&v];
                if b > 0 {
                    live.push((v, b));
                    total = total.saturating_add(b);
                }
            }
        }
        let pool = match limit {
            Some(l) if plan.kernel(n) == Kernel::Blocked => {
                blocked_io_bytes(graph, n, sizes, l).min(spill_pool_capacity(l))
            }
            _ => 0,
        };
        total = total.saturating_add(pool);
        if total > peak.0 {
            peak = (total, step);
        }
        if first_exceed.is_none() && limit.is_some_and(|l| total > l) {
            first_exceed = Some((step, n, total));
        }
        timeline.push(StepUsage { step, node: n, live_bytes: total, pool_bytes: pool, live });
    }
    let verdict = match first_exceed {
        Some((step, node, live_bytes)) => Verdict::Exceeds { step, node, live_bytes },
        None => Verdict::Fits,
    };
    PlanCertificate { budget: limit, peak_bytes: peak.0, peak_step: peak.1, timeline, verdict }
}

/// A peak-minimizing topological order: at every node, evaluate the child
/// subtree with the largest *slack* (its transient peak minus the bytes its
/// result holds afterwards) first, so big transients happen while few
/// sibling results are held — the Sethi–Ullman register-count argument
/// applied to bytes. Shared nodes are costed once and emitted at their
/// first visit: the executor runs each node once per eval.
pub fn min_peak_order(
    graph: &Graph,
    root: NodeId,
    sizes: &HashMap<NodeId, SizeInfo>,
    plan: &PhysicalPlan,
) -> Vec<NodeId> {
    // (subtree peak, hold) per node, tree-approximated over the DAG.
    fn costs(
        graph: &Graph,
        id: NodeId,
        sizes: &HashMap<NodeId, SizeInfo>,
        plan: &PhysicalPlan,
        memo: &mut HashMap<NodeId, (usize, usize)>,
    ) -> (usize, usize) {
        if let Some(&c) = memo.get(&id) {
            return c;
        }
        let hold = sizes.get(&id).map_or(0, |info| materialized_bytes(plan.kernel(id), info));
        let mut children: Vec<(usize, usize)> = graph
            .op(id)
            .children()
            .into_iter()
            .map(|c| costs(graph, c, sizes, plan, memo))
            .collect();
        children.sort_by_key(|&(p, h)| std::cmp::Reverse(p.saturating_sub(h)));
        let mut held = 0usize;
        let mut peak = 0usize;
        for &(p, h) in &children {
            peak = peak.max(held.saturating_add(p));
            held = held.saturating_add(h);
        }
        // Executing this node: all children's results plus the output.
        let peak = peak.max(held.saturating_add(hold));
        memo.insert(id, (peak, hold));
        (peak, hold)
    }

    fn emit(
        graph: &Graph,
        id: NodeId,
        memo: &HashMap<NodeId, (usize, usize)>,
        seen: &mut Vec<bool>,
        order: &mut Vec<NodeId>,
    ) {
        if seen[id] {
            return;
        }
        seen[id] = true;
        let mut children = graph.op(id).children();
        children.sort_by_key(|&c| {
            let (p, h) = memo.get(&c).copied().unwrap_or((0, 0));
            (std::cmp::Reverse(p.saturating_sub(h)), c)
        });
        for c in children {
            emit(graph, c, memo, seen, order);
        }
        order.push(id);
    }

    let mut memo = HashMap::new();
    costs(graph, root, sizes, plan, &mut memo);
    let mut seen = vec![false; graph.len()];
    let mut order = Vec::new();
    emit(graph, root, &memo, &mut seen, &mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{EwiseOp, UnaryOp};
    use crate::physical::{plan, PlanOptions};
    use crate::size::{propagate, InputSizes};

    #[test]
    fn schedule_last_use_tracks_shared_consumers() {
        // add = t + t: t's last use is add's step, x's is t's step.
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let add = g.ewise(EwiseOp::Add, t, t);
        let s = Schedule::new(&g, add);
        assert_eq!(s.order(), &[x, t, add]);
        assert_eq!(s.last_use(x), Some(s.step_of(t).unwrap()));
        assert_eq!(s.last_use(t), Some(s.step_of(add).unwrap()));
        assert_eq!(s.last_use(add), Some(2), "the root lives to its own step");
        assert_eq!(s.live_at(1), vec![x, t]);
        assert_eq!(s.live_at(2), vec![t, add]);
    }

    #[test]
    fn footprint_orders_representations_sensibly() {
        let info = SizeInfo { shape: Shape::Matrix { rows: 1000, cols: 20 }, sparsity: 0.05 };
        let fp = footprint(&info, Some(1 << 20));
        assert_eq!(fp.dense, 1000 * 20 * 8);
        assert!(fp.sparse < fp.dense, "5% non-zeros beat dense storage");
        assert!(fp.compressed <= fp.dense, "uncompressed is always a candidate");
        assert!(fp.blocked_panel < fp.dense, "one panel is a fraction of the matrix");
        let sc = footprint(&SizeInfo { shape: Shape::Scalar, sparsity: 1.0 }, None);
        assert_eq!(sc.dense, 8);
    }

    #[test]
    fn certifier_counts_composite_peaks_the_per_node_check_misses() {
        // Two operands plus the output of an elementwise add are live at
        // once; each alone is under the limit, together they are not.
        let mut inputs = InputSizes::new();
        inputs.declare("X", 100, 100, 1.0); // 80 KB each
        inputs.declare("Y", 100, 100, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let y = g.input("Y");
        let z = g.ewise(EwiseOp::Add, x, y);
        let sizes = propagate(&g, z, &inputs).unwrap();
        let plan = plan(&g, z, &PlanOptions::new(&sizes)).unwrap();
        let budget = MemoryBudget::bytes(200_000);
        let cert = certify_plan(&g, z, &plan, &sizes, budget);
        assert!(!cert.fits(), "3 x 80 KB live > 200 KB");
        let Verdict::Exceeds { step, node, live_bytes } = cert.verdict else {
            panic!("expected Exceeds")
        };
        assert_eq!(node, z, "the add is where the three values first coexist");
        assert_eq!(step, 2);
        assert_eq!(live_bytes, 3 * 80_000);
        assert_eq!(cert.peak_bytes, 240_000);
        assert_eq!(cert.timeline.len(), 3);
    }

    #[test]
    fn streaming_operands_of_blocked_consumers_are_not_materialized() {
        let mut inputs = InputSizes::new();
        inputs.declare("X", 100_000, 200, 1.0); // 160 MB
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(Op::CrossProd(x));
        let sizes = propagate(&g, cp, &inputs).unwrap();
        let budget = MemoryBudget::bytes(1 << 20);
        let plan = plan(&g, cp, &PlanOptions { budget, ..PlanOptions::new(&sizes) }).unwrap();
        assert_eq!(plan.kernel(cp), Kernel::Blocked);
        let cert = certify_plan(&g, cp, &plan, &sizes, budget);
        assert!(cert.fits(), "{}", cert.render(&g));
        // X contributes nothing at its own step; the crossprod step pays the
        // pool term (capped at half the budget) plus its small output.
        assert_eq!(cert.timeline[0].live_bytes, 0);
        let cp_step = &cert.timeline[1];
        assert_eq!(cp_step.pool_bytes, spill_pool_capacity(1 << 20));
        assert_eq!(cp_step.live_bytes, cp_step.pool_bytes + 200 * 200 * 8);
    }

    #[test]
    fn fused_nodes_are_charged_their_streamed_panels_only() {
        // The inproc_dense program at degree 2. X %*% W and exp(X %*% W) are
        // 8 MiB each; the sum step streams the product two 1 MiB panels at a
        // time and folds exp over them.
        let mut inputs = InputSizes::new();
        inputs.declare("X", 8192, 256, 1.0);
        inputs.declare("W", 256, 128, 1.0);
        inputs.declare("y", 8192, 1, 1.0);
        let src = "sum(abs(t(X) %*% X)) + sum(exp(X %*% W)) + sum(abs(t(X) %*% y))";
        let (g, root) = crate::parser::parse(src).unwrap();
        let (g, root, _) = crate::rewrite::optimize(&g, root, &inputs).unwrap();
        let sizes = propagate(&g, root, &inputs).unwrap();
        let plan = plan(&g, root, &PlanOptions { degree: 2, ..PlanOptions::new(&sizes) }).unwrap();
        let cert = certify_plan(&g, root, &plan, &sizes, MemoryBudget::unbounded());
        let (x, w, product) = (8192 * 256 * 8, 256 * 128 * 8, 8192 * 128 * 8);
        let panels = 2 * ROW_BLOCK * 128 * 8;
        // At the sum's step: X, W, the panels, the first sum and this one.
        assert_eq!(cert.peak_bytes, x + w + panels + 2 * 8, "{}", cert.render(&g));
        // Both products charged whole peak at X, both and the first sum.
        assert!(x + 2 * product + 8 - cert.peak_bytes >= 12 << 20);
    }

    #[test]
    fn a_fused_map_over_a_sparse_operand_is_charged_as_built() {
        // sum(exp(S)) over a CSR S: the sum step maps S before summing it.
        let mut inputs = InputSizes::new();
        inputs.declare("S", 1000, 100, 0.01);
        let mut g = Graph::new();
        let s = g.input("S");
        let e = g.unary(UnaryOp::Exp, s);
        let root = g.agg(AggOp::Sum, e);
        let sizes = propagate(&g, root, &inputs).unwrap();
        let plan = plan(&g, root, &PlanOptions::new(&sizes)).unwrap();
        assert_eq!((plan.kernel(s), plan.fused_into(e)), (Kernel::Sparse, Some(root)));
        let cert = certify_plan(&g, root, &plan, &sizes, MemoryBudget::unbounded());
        let built = materialized_bytes(plan.kernel(e), &sizes[&e]);
        assert!(!cert.timeline[1].live.iter().any(|&(v, _)| v == e), "{}", cert.render(&g));
        assert!(cert.timeline[2].live.contains(&(e, built)), "{}", cert.render(&g));
    }

    #[test]
    fn render_marks_peak_and_overflow_steps() {
        let mut inputs = InputSizes::new();
        inputs.declare("X", 100, 100, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let z = g.ewise(EwiseOp::Add, x, x);
        let sizes = propagate(&g, z, &inputs).unwrap();
        let plan = plan(&g, z, &PlanOptions::new(&sizes)).unwrap();
        let cert = certify_plan(&g, z, &plan, &sizes, MemoryBudget::bytes(100_000));
        let txt = cert.render(&g);
        assert!(txt.contains("EXCEEDS"), "{txt}");
        assert!(txt.contains("! step"), "{txt}");
        assert!(txt.contains("live-set timeline:"), "{txt}");

        let ok = certify_plan(&g, z, &plan, &sizes, MemoryBudget::bytes(1 << 20));
        let txt = ok.render(&g);
        assert!(txt.contains("plan fits"), "{txt}");
        assert!(txt.contains("* step"), "{txt}");
    }

    #[test]
    fn min_peak_order_evaluates_high_slack_subtrees_first() {
        // root = X + (A %*% B): the matmul subtree has a huge transient
        // (both operands live) but holds only its product; X holds its full
        // bytes from step 0. Default DFS order evaluates X first and carries
        // it under the matmul's transient; the reorder runs the matmul
        // first.
        let mut inputs = InputSizes::new();
        inputs.declare("X", 256, 256, 1.0); // 512 KB hold
        inputs.declare("A", 256, 1024, 1.0); // 2 MB
        inputs.declare("B", 1024, 256, 1.0); // 2 MB
        let mut g = Graph::new();
        let x = g.input("X");
        let a = g.input("A");
        let b = g.input("B");
        let r = g.matmul(a, b);
        let root = g.ewise(EwiseOp::Add, x, r);
        let sizes = propagate(&g, root, &inputs).unwrap();
        let plan = plan(&g, root, &PlanOptions::new(&sizes)).unwrap();

        let dfs = Schedule::new(&g, root);
        let dfs_cert = certify_schedule(&g, &dfs, &plan, &sizes, MemoryBudget::unbounded());

        let order = min_peak_order(&g, root, &sizes, &plan);
        assert_eq!(order, vec![a, b, r, x, root], "matmul chain drains before X loads");
        let re = Schedule::from_order(&g, order);
        let re_cert = certify_schedule(&g, &re, &plan, &sizes, MemoryBudget::unbounded());

        // DFS: X + A + B + R live at the matmul step. Reordered: A + B + R.
        assert_eq!(dfs_cert.peak_bytes, (256 * 256 + 2 * 256 * 1024 + 256 * 256) * 8);
        assert_eq!(re_cert.peak_bytes, (2 * 256 * 1024 + 256 * 256) * 8);
        assert!(re_cert.peak_bytes < dfs_cert.peak_bytes);
    }

    #[test]
    fn min_peak_order_is_topological_with_shared_nodes() {
        let mut inputs = InputSizes::new();
        inputs.declare("X", 64, 64, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mm = g.matmul(t, x); // x shared by t and mm
        let s = g.agg(AggOp::Sum, mm);
        let sizes = propagate(&g, s, &inputs).unwrap();
        let plan = plan(&g, s, &PlanOptions::new(&sizes)).unwrap();
        let order = min_peak_order(&g, s, &sizes, &plan);
        assert_eq!(order.len(), 4, "each node exactly once: {order:?}");
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for &n in &order {
            for c in g.op(n).children() {
                assert!(pos[&c] < pos[&n], "child %{c} after parent %{n} in {order:?}");
            }
        }
    }
}

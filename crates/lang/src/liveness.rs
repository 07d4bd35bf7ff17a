//! Plan-time liveness analysis and peak-memory certification.
//!
//! The surveyed compilers decide memory at *plan time*: SystemML-style
//! worst-case operator estimates pick local vs. distributed execution before
//! a byte is allocated. This module is that discipline for the dm-lang
//! executor. Given a graph, a physical plan, and propagated sizes, it
//! derives the execution [`Schedule`] (topological order plus per-value
//! last-use steps, accounting for shared reads and fusion), runs an
//! abstract memory interpretation over it, and produces a
//! [`PlanCertificate`]: either a proof that the plan's peak live set fits
//! the [`MemoryBudget`], or the exact step and node where it first exceeds
//! it.
//!
//! ## The abstract machine
//!
//! The certificate models an executor that materializes each value at the
//! step that produces it and frees it after its last consumer — which is
//! how [`Executor::eval`](crate::exec::Executor::eval) runs a plan. Per
//! step, resident bytes are:
//!
//! * every live non-streaming value, at the footprint of the representation
//!   its row of the representation table ([`row`](crate::physical::row))
//!   gives it (dense cells, CSR triples, 8 bytes for scalars);
//! * at a node's own step, the **dense copy** of each CSR operand its row
//!   densifies (a unary op maps its copy into its output in place, so that
//!   copy is the output's bytes);
//! * **streaming values** — values whose every consumer is
//!   [`Kernel::Blocked`] — contribute nothing outside their consumers'
//!   steps: they live in the spill pool, on disk, or in the source the
//!   blocked kernel reads panel-by-panel. (A derived value is held whole
//!   until its blocked readers tile it, uncharged: ROADMAP item 13(a).) A
//!   row that densifies runs in memory and never blocks: its output is held;
//! * **fused nodes** run inside their `sum`'s step
//!   ([`PlanOptions`](crate::physical::PlanOptions), step 3), and their
//!   operands stay live until it: a fused `f(A)` is never materialized, and
//!   a fused `X %*% W` holds only its `degree` streamed `ROW_BLOCK`-row
//!   panels, at that step;
//! * the members of a **row pass** (step 4) all run at the step of its first
//!   member, so each member's value is charged from that step and its
//!   operands stay live until it;
//! * at a blocked node's own step, a **pool term**: the bytes its operand
//!   and output [`BlockStore`](dm_buffer::BlockStore)s would charge the
//!   pool, capped at [`crate::memory::spill_pool_capacity`], which the
//!   pool never exceeds (DESIGN.md, "Plan-time liveness").

use crate::expr::{AggOp, Graph, NodeId, Op};
use crate::memory::{spill_pool_capacity, MemoryBudget, OOC_PANEL_DENOM};
use crate::physical::{Kernel, PhysicalPlan, Repr};
use crate::size::{Shape, SizeInfo};
use dm_buffer::{panel_rows_for, store_bytes};
use dm_matrix::par::ROW_BLOCK;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// The one lifetime analysis: a topological execution order and, per node,
/// what the planner's fitting loop, the certifier and the executor read of
/// it under the plan's fusion decisions. The planner builds it once and
/// [`PhysicalPlan::schedule`] carries it.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    order: Vec<NodeId>,
    /// Per node: the step that computes it, its `sum`'s when fused; `None`
    /// off the schedule.
    step: Vec<Option<usize>>,
    /// Per node: the last step that reads it, its own when nothing does.
    last_use: Vec<usize>,
    /// Per node: its consumer edges in the schedule, so `X + X` reads `X`
    /// twice.
    reads: Vec<usize>,
    /// Per node: computed inside the step of the `sum` the plan fused it
    /// into, producing nothing at its own.
    fused: Vec<bool>,
    /// Per node: the member of its row pass whose step runs the pass, when
    /// it is in one; only that member's step produces anything.
    pass: Vec<Option<NodeId>>,
}

impl Schedule {
    /// The schedule running `order` (children before parents, ending at its
    /// root) under `plan`. A node the plan fused into a scheduled `sum` runs
    /// at that `sum`'s step, so its operands live until then; one whose
    /// `sum` is off the schedule (a fused node evaluated as a root) runs at
    /// its own step. The scheduled members of a row pass run at the step of
    /// the first of them, each whose other operands are computed before
    /// that step; a pass of one member runs as the node alone.
    pub fn new(graph: &Graph, order: Vec<NodeId>, plan: &PhysicalPlan) -> Self {
        let mut step = vec![None; graph.len()];
        for (i, &n) in order.iter().enumerate() {
            step[n] = Some(i);
        }
        // A schedule ending at a planned node reads each node at most as
        // often as the plan's own does, so a fused node keeps its `sum` as
        // only reader whenever that `sum` is scheduled.
        let covered = order.last().is_some_and(|&root| plan.row(root).is_some());
        let mut pass = vec![None; graph.len()];
        if covered {
            // Per matrix read: the first member's step and the members.
            let mut passes: BTreeMap<NodeId, (usize, Vec<NodeId>)> = BTreeMap::new();
            for &n in &order {
                let Some((x, others)) = plan.pass_of(graph, n) else { continue };
                let at = step[n].expect("a scheduled node has a step");
                let (first, members) = passes.entry(x).or_insert((at, Vec::new()));
                if others.iter().all(|&c| step[c].is_some_and(|s| s < *first)) {
                    members.push(n);
                }
            }
            for (at, members) in passes.into_values().filter(|(_, m)| m.len() > 1) {
                for &m in &members {
                    pass[m] = Some(members[0]);
                    step[m] = Some(at);
                }
            }
        }
        let mut fused = vec![false; graph.len()];
        for &n in &order {
            if let Some(sum) = plan.fused_into(n).filter(|&s| covered && step[s].is_some()) {
                fused[n] = true;
                step[n] = step[sum];
            }
        }
        let mut reads = vec![0; graph.len()];
        let mut last_use: Vec<usize> = step.iter().map(|s| s.unwrap_or(0)).collect();
        for &n in &order {
            let at = step[n].expect("a scheduled node has a step");
            for c in graph.op(n).children() {
                reads[c] += 1;
                last_use[c] = last_use[c].max(at);
            }
        }
        Schedule { order, step, last_use, reads, fused, pass }
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

    /// The step that computes a node: its own, or its `sum`'s when fused.
    pub fn step_of(&self, id: NodeId) -> Option<usize> {
        self.step.get(id).copied().flatten()
    }

    /// The last step at which a node's value is read (the step that
    /// computes it when nothing consumes it).
    pub fn last_use(&self, id: NodeId) -> Option<usize> {
        self.step_of(id).map(|_| self.last_use[id])
    }

    /// Consumer edges per node, indexed by node.
    pub(crate) fn read_counts(&self) -> &[usize] {
        &self.reads
    }

    /// Fused marks per node, indexed by node.
    pub(crate) fn fused(&self) -> &[bool] {
        &self.fused
    }

    /// The member whose step runs node `id`'s row pass, when `id` runs in
    /// one (itself for that member).
    pub fn pass_of(&self, id: NodeId) -> Option<NodeId> {
        self.pass.get(id).copied().flatten()
    }

    /// The members of the row pass that node `lead`'s step runs, in
    /// schedule order, `lead` first.
    pub(crate) fn pass_members(&self, lead: NodeId) -> Vec<NodeId> {
        self.order.iter().copied().filter(|&n| self.pass_of(n) == Some(lead)).collect()
    }
}

/// Bytes a value keeps resident while live in representation `repr`: CSR
/// (an 8-byte value and column index per estimated non-zero, plus `rows + 1`
/// row offsets), anything else dense (blocked kernels densify their outputs
/// for non-blocked consumers).
pub fn materialized_bytes(repr: Repr, info: &SizeInfo) -> usize {
    match (info.shape, repr) {
        (Shape::Scalar, _) => 8,
        (Shape::Matrix { rows, cols }, Repr::Csr) => {
            let cells = (rows as f64) * (cols as f64) * info.sparsity.clamp(0.0, 1.0);
            let nnz = cells.ceil() as usize;
            nnz.saturating_mul(16).saturating_add((rows + 1).saturating_mul(8))
        }
        (Shape::Matrix { rows, cols }, _) => rows.saturating_mul(cols).saturating_mul(8),
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
            match dims(*b) {
                // gemm pools both operands plus the output store, which
                // ooc::gemm panels at the left operand's height: both sized
                // from the wider of the left operand and the product.
                Some((br, bc)) if bc > 1 => {
                    let rows = pr(ac.max(bc));
                    store_bytes(ar, ac, rows)
                        .saturating_add(store_bytes(br, bc, pr(bc)))
                        .saturating_add(store_bytes(ar, bc, rows))
                }
                // gemv streams only the left operand.
                _ => store_bytes(ar, ac, pr(ac)),
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
    /// The dense copies this step's node makes of its CSR operands, by
    /// operand, each with its bytes.
    pub densified: Vec<(NodeId, usize)>,
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
            for (v, b) in &su.densified {
                let _ = write!(out, "  densify %{v}:{b}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Certify `plan` over the schedule it runs from `root`: its own
/// [`schedule`](PhysicalPlan::schedule) when that ends at `root`, the
/// depth-first one from `root` otherwise.
///
/// Walks the schedule, sums the modeled live bytes at every step (see the
/// module docs for the abstract machine), and returns a
/// [`PlanCertificate`] whose verdict is either [`Verdict::Fits`] or the
/// exact first step/node over budget. Nodes missing from `sizes` are
/// treated as free: a sound certificate needs every scheduled node sized,
/// as [`CompiledProgram::new`](crate::cache::CompiledProgram::new)
/// guarantees for the certificate it keeps.
pub fn certify_plan(
    graph: &Graph,
    root: NodeId,
    plan: &PhysicalPlan,
    sizes: &HashMap<NodeId, SizeInfo>,
    budget: MemoryBudget,
) -> PlanCertificate {
    certify_schedule(graph, &plan.schedule_for(graph, root), plan, sizes, budget)
}

/// [`certify_plan`] over an explicit schedule, built with [`Schedule::new`]
/// from `plan` (e.g. over a [`min_peak_order`]).
pub fn certify_schedule(
    graph: &Graph,
    sched: &Schedule,
    plan: &PhysicalPlan,
    sizes: &HashMap<NodeId, SizeInfo>,
    budget: MemoryBudget,
) -> PlanCertificate {
    let limit = budget.get();
    let order = sched.order();
    let resident = resident_bytes(graph, sched, plan, sizes);
    // A value enters the live set at the step that makes it and leaves
    // after its last use. The set is keyed by schedule position, so each
    // step lists its values in schedule order.
    let mut enters = vec![Vec::new(); order.len()];
    for (pos, &v) in order.iter().enumerate() {
        if let Some(made) = sched.step[v].filter(|&s| resident[pos] > 0 && sched.last_use[v] >= s) {
            enters[made].push(pos);
        }
    }
    let mut live_set = BTreeMap::new();
    let mut timeline = Vec::with_capacity(sched.len());
    let mut peak = (0usize, 0usize);
    let mut first_exceed: Option<(usize, NodeId, usize)> = None;
    for (step, &n) in order.iter().enumerate() {
        live_set.extend(enters[step].iter().map(|&pos| (pos, (order[pos], resident[pos]))));
        let live: Vec<(NodeId, usize)> = live_set.values().copied().collect();
        live_set.retain(|_, &mut (v, _)| sched.last_use[v] > step);
        // The dense copies this step's row makes of its CSR operands; a
        // unary op maps its copy into its output in place, charged as such.
        let densified: Vec<(NodeId, usize)> = match plan.row(n) {
            Some(r) if r.densify != [false; 2] && !matches!(graph.op(n), Op::Unary(..)) => {
                let bytes =
                    |c: NodeId| sizes.get(&c).map_or(0, |i| materialized_bytes(Repr::Dense, i));
                let operands = graph.op(n).children().into_iter().zip(r.densify);
                operands.filter(|&(_, d)| d).map(|(c, _)| (c, bytes(c))).collect()
            }
            _ => Vec::new(),
        };
        let mut total =
            live.iter().chain(&densified).fold(0usize, |t, &(_, b)| t.saturating_add(b));
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
        timeline.push(StepUsage {
            step,
            node: n,
            live_bytes: total,
            pool_bytes: pool,
            live,
            densified,
        });
    }
    let verdict = match first_exceed {
        Some((step, node, live_bytes)) => Verdict::Exceeds { step, node, live_bytes },
        None => Verdict::Fits,
    };
    PlanCertificate { budget: limit, peak_bytes: peak.0, peak_step: peak.1, timeline, verdict }
}

/// The bytes each scheduled value holds while live, by schedule position.
fn resident_bytes(
    graph: &Graph,
    sched: &Schedule,
    plan: &PhysicalPlan,
    sizes: &HashMap<NodeId, SizeInfo>,
) -> Vec<usize> {
    let order = sched.order();
    // Streaming values — every consumer reads them panel-by-panel through
    // the pool — are never materialized; their bytes are the consumers'
    // pool terms. A value any in-memory consumer reads is held, and so is
    // the output of a row that densifies: that row runs in memory, over
    // whole dense copies, and never blocks.
    let mut held = vec![false; graph.len()];
    for &n in order.iter().filter(|&&n| plan.kernel(n) != Kernel::Blocked) {
        for c in graph.op(n).children() {
            held[c] = true;
        }
    }
    order
        .iter()
        .map(|&v| {
            let densifies = plan.row(v).is_some_and(|r| r.densify != [false; 2]);
            let streams = sched.reads[v] > 0 && !held[v] && !densifies;
            match (sizes.get(&v), sched.fused[v], graph.op(v)) {
                (Some(info), false, _) if !streams => {
                    materialized_bytes(plan.row(v).map_or(Repr::Dense, |r| r.out), info)
                }
                // A fused product is streamed `degree` row panels at a time,
                // what `par::gemm_map_sum` holds.
                (Some(info), true, Op::MatMul(..)) => {
                    let degree = if plan.kernel(v) == Kernel::Parallel { plan.degree() } else { 1 };
                    let rows = info.shape.rows().min(degree.saturating_mul(ROW_BLOCK));
                    rows.saturating_mul(info.shape.cols()).saturating_mul(8)
                }
                _ => 0,
            }
        })
        .collect()
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
    // (subtree peak, hold) per node, tree-approximated over the DAG,
    // children before parents.
    let mut memo: HashMap<NodeId, (usize, usize)> = HashMap::new();
    for id in graph.reachable(root) {
        let hold = sizes.get(&id).map_or(0, |info| {
            materialized_bytes(plan.row(id).map_or(Repr::Dense, |r| r.out), info)
        });
        let mut children: Vec<(usize, usize)> =
            graph.op(id).children().into_iter().map(|c| memo[&c]).collect();
        children.sort_by_key(|&(p, h)| std::cmp::Reverse(p.saturating_sub(h)));
        let mut held = 0usize;
        let mut peak = 0usize;
        for &(p, h) in &children {
            peak = peak.max(held.saturating_add(p));
            held = held.saturating_add(h);
        }
        // Executing this node: all children's results plus the output.
        memo.insert(id, (peak.max(held.saturating_add(hold)), hold));
    }

    // Depth-first from the root, highest-slack child first.
    graph.postorder(root, |id| {
        let mut children = graph.op(id).children();
        children.sort_by_key(|&c| {
            let (p, h) = memo[&c];
            (std::cmp::Reverse(p.saturating_sub(h)), c)
        });
        children
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CompiledProgram;
    use crate::expr::{EwiseOp, UnaryOp};
    use crate::physical::PlanOptions;
    use crate::size::{propagate, InputSizes};

    /// The plan `CompiledProgram::new` builds for `root` under `opts`.
    fn planned(g: &Graph, root: NodeId, opts: &PlanOptions) -> PhysicalPlan {
        CompiledProgram::new(g.clone(), root, opts).unwrap().plan
    }

    #[test]
    fn schedule_last_use_tracks_shared_consumers() {
        // add = t + t: t's last use is add's step, x's is t's step.
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let add = g.ewise(EwiseOp::Add, t, t);
        let s = Schedule::new(&g, g.reachable(add), &PhysicalPlan::default());
        assert_eq!(s.order(), &[x, t, add]);
        assert_eq!(s.last_use(x), Some(s.step_of(t).unwrap()));
        assert_eq!(s.last_use(t), Some(s.step_of(add).unwrap()));
        assert_eq!(s.last_use(add), Some(2), "the root lives to its own step");
        assert_eq!((s.read_counts()[x], s.read_counts()[t], s.read_counts()[add]), (1, 2, 0));
    }

    #[test]
    fn a_fused_node_runs_and_holds_its_operand_to_its_sums_step() {
        // sum(exp(X)): the plan fuses exp into the sum, so X is read at the
        // sum's step. Evaluated as a root, exp runs at its own step.
        let mut inputs = InputSizes::new();
        inputs.declare("X", 10, 10, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let e = g.unary(UnaryOp::Exp, x);
        let root = g.agg(AggOp::Sum, e);
        let plan = planned(&g, root, &PlanOptions::new(&inputs));
        let s = plan.schedule();
        assert_eq!(s.order(), &[x, e, root]);
        assert_eq!((s.step_of(e), s.last_use(x), s.last_use(e)), (Some(2), Some(2), Some(2)));
        assert_eq!((s.fused()[e], s.read_counts()[e]), (true, 1));
        let sub = plan.schedule_for(&g, e);
        assert_eq!((sub.step_of(e), sub.last_use(x), sub.fused()[e]), (Some(1), Some(1), false));
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
        let plan = planned(&g, z, &PlanOptions::new(&inputs));
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
        let plan = planned(&g, cp, &PlanOptions { budget, ..PlanOptions::new(&inputs) });
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
        // 8 MiB each; the sum streams the product two 1 MiB panels at a time
        // and folds exp over them, in the row pass over X that computes the
        // crossprod and the tmv too.
        let mut inputs = InputSizes::new();
        inputs.declare("X", 8192, 256, 1.0);
        inputs.declare("W", 256, 128, 1.0);
        inputs.declare("y", 8192, 1, 1.0);
        let src = "sum(abs(t(X) %*% X)) + sum(exp(X %*% W)) + sum(abs(t(X) %*% y))";
        let (g, root) = crate::parser::parse(src).unwrap();
        let (g, root, _) = crate::rewrite::optimize(&g, root, &inputs).unwrap();
        let sizes = propagate(&g, root, &inputs).unwrap();
        let plan = planned(&g, root, &PlanOptions { degree: 2, ..PlanOptions::new(&inputs) });
        let cert = certify_plan(&g, root, &plan, &sizes, MemoryBudget::unbounded());
        let (x, w, y, product) = (8192 * 256 * 8, 256 * 128 * 8, 8192 * 8, 8192 * 128 * 8);
        let (panels, gram, tmv) = (2 * ROW_BLOCK * 128 * 8, 256 * 256 * 8, 256 * 8);
        // At the pass's step: X, W, y, the panels and each member's value.
        assert_eq!(cert.peak_bytes, x + w + y + panels + gram + tmv + 8, "{}", cert.render(&g));
        // Both products charged whole peak at X, both and the first sum.
        assert!(x + 2 * product + 8 - cert.peak_bytes >= 12 << 20);
    }

    #[test]
    fn a_map_over_a_csr_operand_is_not_fused_and_its_copy_is_its_output() {
        // sum(exp(S)) over a CSR S: exp reads a dense copy of S and maps it in
        // place, so the copy is exp(S)'s own bytes, charged once.
        let mut inputs = InputSizes::new();
        inputs.declare("S", 1000, 100, 0.01);
        let mut g = Graph::new();
        let s = g.input("S");
        let e = g.unary(UnaryOp::Exp, s);
        let root = g.agg(AggOp::Sum, e);
        let sizes = propagate(&g, root, &inputs).unwrap();
        let plan = planned(&g, root, &PlanOptions::new(&inputs));
        assert_eq!((plan.kernel(s), plan.fused_into(e)), (Kernel::Sparse, None));
        let cert = certify_plan(&g, root, &plan, &sizes, MemoryBudget::unbounded());
        let exp = &cert.timeline[1];
        assert!(exp.live.contains(&(e, 1000 * 100 * 8)), "{}", cert.render(&g));
        assert!(exp.densified.is_empty(), "{}", cert.render(&g));
    }

    #[test]
    fn each_densified_operand_is_charged_at_its_readers_step() {
        // S * S reads two dense copies of S beside its dense output.
        let mut inputs = InputSizes::new();
        inputs.declare("S", 200, 100, 0.01);
        let mut g = Graph::new();
        let s = g.input("S");
        let had = g.ewise(EwiseOp::Mul, s, s);
        let sizes = propagate(&g, had, &inputs).unwrap();
        let plan = planned(&g, had, &PlanOptions::new(&inputs));
        let cert = certify_plan(&g, had, &plan, &sizes, MemoryBudget::unbounded());
        let (csr, dense) = (materialized_bytes(Repr::Csr, &sizes[&s]), 200 * 100 * 8);
        let step = &cert.timeline[1];
        assert_eq!(step.densified, [(s, dense), (s, dense)]);
        assert_eq!(step.live, [(s, csr), (had, dense)]);
        assert_eq!(cert.peak_bytes, csr + 3 * dense);
        assert!(cert.render(&g).contains(&format!("densify %{s}:{dense}")));
    }

    #[test]
    fn render_marks_peak_and_overflow_steps() {
        let mut inputs = InputSizes::new();
        inputs.declare("X", 100, 100, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let z = g.ewise(EwiseOp::Add, x, x);
        let sizes = propagate(&g, z, &inputs).unwrap();
        let plan = planned(&g, z, &PlanOptions::new(&inputs));
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
        let plan = planned(&g, root, &PlanOptions::new(&inputs));

        let dfs = Schedule::new(&g, g.reachable(root), &plan);
        let dfs_cert = certify_schedule(&g, &dfs, &plan, &sizes, MemoryBudget::unbounded());

        let order = min_peak_order(&g, root, &sizes, &plan);
        assert_eq!(order, vec![a, b, r, x, root], "matmul chain drains before X loads");
        let re = Schedule::new(&g, order, &plan);
        let re_cert = certify_schedule(&g, &re, &plan, &sizes, MemoryBudget::unbounded());

        // DFS: X + A + B + R live at the matmul step. Reordered: A + B + R.
        assert_eq!(dfs_cert.peak_bytes, (256 * 256 + 2 * 256 * 1024 + 256 * 256) * 8);
        assert_eq!(re_cert.peak_bytes, (2 * 256 * 1024 + 256 * 256) * 8);
        assert!(re_cert.peak_bytes < dfs_cert.peak_bytes);
    }

    /// The recursive form of `min_peak_order`: the oracle for its order.
    fn min_peak_order_recursive(
        graph: &Graph,
        root: NodeId,
        sizes: &HashMap<NodeId, SizeInfo>,
        plan: &PhysicalPlan,
    ) -> Vec<NodeId> {
        type Memo = HashMap<NodeId, (usize, usize)>;
        fn costs(
            g: &Graph,
            id: NodeId,
            s: &HashMap<NodeId, SizeInfo>,
            plan: &PhysicalPlan,
            memo: &mut Memo,
        ) -> (usize, usize) {
            if let Some(&c) = memo.get(&id) {
                return c;
            }
            let hold = s.get(&id).map_or(0, |info| {
                materialized_bytes(plan.row(id).map_or(Repr::Dense, |r| r.out), info)
            });
            let mut children: Vec<(usize, usize)> =
                g.op(id).children().into_iter().map(|c| costs(g, c, s, plan, memo)).collect();
            children.sort_by_key(|&(p, h)| std::cmp::Reverse(p.saturating_sub(h)));
            let (mut held, mut peak) = (0usize, 0usize);
            for &(p, h) in &children {
                peak = peak.max(held.saturating_add(p));
                held = held.saturating_add(h);
            }
            let c = (peak.max(held.saturating_add(hold)), hold);
            memo.insert(id, c);
            c
        }
        fn emit(g: &Graph, id: NodeId, memo: &Memo, seen: &mut [bool], order: &mut Vec<NodeId>) {
            if seen[id] {
                return;
            }
            seen[id] = true;
            let mut children = g.op(id).children();
            children.sort_by_key(|&c| {
                let (p, h) = memo[&c];
                (std::cmp::Reverse(p.saturating_sub(h)), c)
            });
            for c in children {
                emit(g, c, memo, seen, order);
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

    #[test]
    fn min_peak_order_matches_the_recursive_order_on_random_dags() {
        // Random DAGs with heavy sharing over square inputs of mixed
        // sparsity, so slacks differ and tie on shared and equal subtrees.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let mut inputs = InputSizes::new();
        for (name, sparsity) in [("X", 1.0), ("Y", 0.5), ("Z", 0.01)] {
            inputs.declare(name, 40, 40, sparsity);
        }
        let mut checked = 0;
        for _ in 0..200 {
            let mut g = Graph::new();
            g.input("X");
            for _ in 0..next(40) {
                let (a, b) = (next(g.len()), next(g.len()));
                match next(6) {
                    0 => g.input(["X", "Y", "Z"][next(3)]),
                    1 => g.matmul(a, b),
                    2 => g.ewise(EwiseOp::Add, a, b),
                    3 => g.transpose(a),
                    4 => g.unary(UnaryOp::Exp, a),
                    _ => g.agg(AggOp::Sum, a),
                };
            }
            let plan = PhysicalPlan::default();
            for root in 0..g.len() {
                // Roots over a scalar matmul operand do not size; skip them.
                let Ok(sizes) = propagate(&g, root, &inputs) else { continue };
                let want = min_peak_order_recursive(&g, root, &sizes, &plan);
                assert_eq!(min_peak_order(&g, root, &sizes, &plan), want, "root %{root} of {g}");
                checked += 1;
            }
        }
        assert!(checked > 1000, "only {checked} roots sized");
    }

    /// The live sets as the certifier found them before it swept: every
    /// scheduled value tested at every step.
    fn live_sets_by_scan(sched: &Schedule, resident: &[usize]) -> Vec<Vec<(NodeId, usize)>> {
        (0..sched.len())
            .map(|step| {
                let made = |v: NodeId| sched.step[v].is_some_and(|made| made <= step);
                let live =
                    |&(&v, &b): &(&NodeId, &usize)| b > 0 && made(v) && sched.last_use[v] >= step;
                sched.order().iter().zip(resident).filter(live).map(|(&v, &b)| (v, b)).collect()
            })
            .collect()
    }

    /// A random topological order of what `root` reaches, ending at `root`,
    /// so unrelated nodes may run between a fused node and its `sum`.
    fn random_order(g: &Graph, root: NodeId, next: &mut impl FnMut(usize) -> usize) -> Vec<NodeId> {
        let nodes = g.reachable(root);
        let operands = |n: NodeId| {
            let mut c = g.op(n).children();
            c.sort_unstable();
            c.dedup();
            c
        };
        let mut pending: HashMap<NodeId, usize> =
            nodes.iter().map(|&n| (n, operands(n).len())).collect();
        let mut ready: Vec<NodeId> = nodes.iter().copied().filter(|n| pending[n] == 0).collect();
        let mut order = Vec::new();
        while !ready.is_empty() {
            let n = ready.swap_remove(next(ready.len()));
            order.push(n);
            for &p in nodes.iter().filter(|&&p| operands(p).contains(&n)) {
                let left = pending.get_mut(&p).expect("reachable");
                *left -= 1;
                if *left == 0 {
                    ready.push(p);
                }
            }
        }
        order
    }

    #[test]
    fn swept_live_sets_match_the_scan_on_random_dags() {
        // Random DAGs over inputs of mixed sparsity, planned serial and
        // parallel, unbounded and under budgets that block, certified over
        // the plan's schedule, the peak-minimizing one and a random one.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let mut inputs = InputSizes::new();
        for (name, sparsity) in [("X", 1.0), ("Y", 0.5), ("Z", 0.01)] {
            inputs.declare(name, 40, 40, sparsity);
        }
        let (mut checked, mut fused, mut blocked) = (0, 0, 0);
        for _ in 0..150 {
            let mut g = Graph::new();
            g.input("X");
            for _ in 0..1 + next(30) {
                let (a, b) = (next(g.len()), next(g.len()));
                match next(7) {
                    0 => g.input(["X", "Y", "Z"][next(3)]),
                    1 => g.matmul(a, b),
                    2 => g.ewise(EwiseOp::Add, a, b),
                    3 => g.transpose(a),
                    4 => g.unary(UnaryOp::Exp, a),
                    5 => {
                        let product = g.matmul(a, b);
                        g.agg(AggOp::Sum, product)
                    }
                    _ => g.push(Op::CrossProd(a)),
                };
            }
            // Sum the last few values, so more of the graph is scheduled.
            let (last, mut root) = (g.len(), None);
            for n in last.saturating_sub(4)..last {
                let total = g.agg(AggOp::Sum, n);
                root = Some(root.map_or(total, |r| g.ewise(EwiseOp::Add, r, total)));
            }
            let root = root.expect("a value to sum");
            let Ok(sizes) = propagate(&g, root, &inputs) else { continue };
            for (degree, budget) in [
                (1, MemoryBudget::unbounded()),
                (2, MemoryBudget::unbounded()),
                (1, MemoryBudget::bytes(30_000)),
                (2, MemoryBudget::bytes(8_000)),
            ] {
                let opts = PlanOptions { degree, budget, ..PlanOptions::new(&inputs) };
                let plan = planned(&g, root, &opts);
                let by_peak = Schedule::new(&g, min_peak_order(&g, root, &sizes, &plan), &plan);
                let random = Schedule::new(&g, random_order(&g, root, &mut next), &plan);
                for sched in [plan.schedule_for(&g, root), by_peak.into(), random.into()] {
                    let cert = certify_schedule(&g, &sched, &plan, &sizes, budget);
                    let resident = resident_bytes(&g, &sched, &plan, &sizes);
                    let want = live_sets_by_scan(&sched, &resident);
                    assert_eq!(cert.timeline.len(), want.len());
                    for (su, live) in cert.timeline.iter().zip(&want) {
                        assert_eq!(&su.live, live, "step {} of {g}", su.step);
                        let bytes = live
                            .iter()
                            .chain(&su.densified)
                            .fold(su.pool_bytes, |t, &(_, b)| t.saturating_add(b));
                        assert_eq!(su.live_bytes, bytes, "step {} of {g}", su.step);
                    }
                    checked += 1;
                    fused += sched.fused().iter().filter(|&&f| f).count();
                    blocked += sched
                        .order()
                        .iter()
                        .filter(|&&n| plan.kernel(n) == Kernel::Blocked)
                        .count();
                }
            }
        }
        assert!(checked > 800 && fused > 0 && blocked > 0, "{checked} {fused} {blocked}");
    }

    #[test]
    fn a_deep_chain_certifies_in_linear_time() {
        // X + X + ... + X, 50 001 nodes: testing every value at every step
        // took seconds; the sweep touches each value once in and once out.
        let mut inputs = InputSizes::new();
        inputs.declare("X", 2, 2, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let mut acc = x;
        for _ in 0..50_000 {
            acc = g.ewise(EwiseOp::Add, acc, x);
        }
        let sizes = propagate(&g, acc, &inputs).unwrap();
        let plan = PhysicalPlan::default();
        let sched = plan.schedule_for(&g, acc);
        let start = std::time::Instant::now();
        let cert = certify_schedule(&g, &sched, &plan, &sizes, MemoryBudget::unbounded());
        let took = start.elapsed();
        // X lives throughout; each partial sum from its step to the next.
        assert_eq!(cert.timeline.len(), 50_001);
        assert_eq!(cert.timeline[1].live, [(x, 32), (1, 32)]);
        assert!(cert.timeline[2..].iter().all(|su| su.live.len() == 3 && su.live_bytes == 96));
        assert_eq!(cert.peak_bytes, 96);
        if !cfg!(debug_assertions) {
            assert!(took < std::time::Duration::from_millis(100), "{took:?}");
        }
    }

    #[test]
    fn min_peak_order_handles_a_deep_chain_on_a_small_stack() {
        // A 100 001-deep chain overflowed a 2 MiB stack when the order was
        // computed recursively; the explicit stacks live on the heap.
        let walk = || {
            let mut inputs = InputSizes::new();
            inputs.declare("X", 2, 2, 1.0);
            let mut g = Graph::new();
            let mut acc = g.input("X");
            for _ in 0..100_000 {
                acc = g.ewise(EwiseOp::Add, acc, acc);
            }
            let sizes = propagate(&g, acc, &inputs).unwrap();
            let order = min_peak_order(&g, acc, &sizes, &PhysicalPlan::default());
            assert_eq!(order.len(), 100_001);
            assert!(order.iter().enumerate().all(|(i, &id)| i == id), "children first");
        };
        let small = std::thread::Builder::new().stack_size(2 << 20).spawn(walk).unwrap();
        small.join().expect("no stack overflow");
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
        let plan = planned(&g, s, &PlanOptions::new(&inputs));
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

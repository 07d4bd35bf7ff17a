//! Physical operator selection: the planner assigns a kernel to every
//! logical op of a program, and
//! [`CompiledProgram::new`](crate::cache::CompiledProgram::new) is its one
//! entry point. It mirrors the surveyed compilers' LOP assignment as one
//! pipeline, from the representation table ([`row`]) through parallelism,
//! fusion and row passes to the memory fit; [`PlanOptions`] describes the
//! steps and carries everything they are parameterized by.

use crate::cost::CostModel;
use crate::expr::{AggOp, Graph, NodeId, Op, UnaryOp};
use crate::liveness::{
    certify_plan, certify_schedule, materialized_bytes, min_peak_order, PlanCertificate, Schedule,
    Verdict,
};
use crate::memory::MemoryBudget;
use crate::size::{InputSizes, SizeInfo};
use std::collections::{BTreeMap, HashMap};
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

/// How a value is stored, in the representation table ([`row`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repr {
    /// Row-major dense cells.
    Dense,
    /// Compressed sparse rows: the stored non-zeros.
    Csr,
    /// One number.
    Scalar,
}

/// One row of the representation table ([`row`]): what runs for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// [`Kernel::Dense`], [`Kernel::Sparse`] or [`Kernel::Scalar`]; the
    /// planner may move a dense row to [`Kernel::Parallel`] or
    /// [`Kernel::Blocked`].
    pub kernel: Kernel,
    /// The representation of the node's output.
    pub out: Repr,
    /// Per operand, in [`Op::children`] order: whether the kernel reads a
    /// dense copy of it, made at the node's step.
    pub densify: [bool; 2],
}

impl Row {
    /// The row of a value held as it is stored: an input's.
    pub fn holding(out: Repr) -> Row {
        let kernel = match out {
            Repr::Dense => Kernel::Dense,
            Repr::Csr => Kernel::Sparse,
            Repr::Scalar => Kernel::Scalar,
        };
        Row { kernel, out, densify: [false; 2] }
    }

    /// True for a dense in-memory kernel reading every operand as stored:
    /// what a fused product, a row pass and a blocked kernel run.
    fn streams(self) -> bool {
        matches!(self.kernel, Kernel::Dense | Kernel::Parallel) && self.densify == [false; 2]
    }
}

/// The representation table: the row of node `id` over operands whose
/// representations `of` gives (for an `Input`, `of(id)` is what it is held
/// as). DESIGN.md's "Representation table" section lists the rows. Outputs
/// are dense or scalar except where their non-zeros are the operand's (`t`,
/// `sqrt`, `abs` of a CSR value); a kernel without a CSR form reads a dense
/// copy of each CSR operand.
pub fn row(graph: &Graph, id: NodeId, of: impl Fn(NodeId) -> Repr) -> Row {
    use Repr::{Csr, Dense, Scalar};
    let sparse = |out, b: Repr| Row { kernel: Kernel::Sparse, out, densify: [false, b == Csr] };
    let dense =
        |out, [a, b]: [Repr; 2]| Row { kernel: Kernel::Dense, out, densify: [a == Csr, b == Csr] };
    // A CSR operand's own kernel, else a dense one; scalars stay scalar.
    let follow = |a: NodeId, out| match of(a) {
        Scalar => Row::holding(Scalar),
        Csr => sparse(out, Dense),
        Dense => dense(out, [Dense; 2]),
    };
    match *graph.op(id) {
        Op::Input(_) => Row::holding(of(id)),
        Op::Const(_) => Row::holding(Scalar),
        Op::Transpose(a) | Op::Unary(UnaryOp::Sqrt | UnaryOp::Abs, a) => follow(a, of(a)),
        // exp(0) = 1, log(0) = -inf: the dense copy is mapped in place.
        Op::Unary(_, a) if of(a) == Csr => dense(Dense, [Csr, Dense]),
        Op::Unary(_, a) => follow(a, of(a)),
        Op::Ewise(_, a, b) => match (of(a), of(b)) {
            (Scalar, Scalar) => Row::holding(Scalar),
            (ra, rb) => dense(Dense, [ra, rb]),
        },
        Op::MatMul(a, b) | Op::Tmv(a, b) => match (graph.op(id), of(a), of(b)) {
            (_, Scalar, _) => Row::holding(Scalar),
            (Op::Tmv(..), Csr, rb) | (_, Csr, rb @ Dense) => sparse(Dense, rb),
            (_, ra, rb) => dense(Dense, [ra, rb]),
        },
        Op::Agg(AggOp::ColSums | AggOp::RowSums, a) | Op::CrossProd(a) => follow(a, Dense),
        Op::Agg(_, a) | Op::SumSq(a) => follow(a, Scalar),
    }
}

/// The table's row of every node of `nodes` (children before parents), an
/// input held as CSR below [`SPARSE_THRESHOLD`] declared sparsity.
pub(crate) fn rows(
    graph: &Graph,
    nodes: &[NodeId],
    sizes: &HashMap<NodeId, SizeInfo>,
) -> HashMap<NodeId, Row> {
    let declared = |n: NodeId| match sizes.get(&n) {
        Some(i) if matches!(i.shape, crate::size::Shape::Scalar) => Repr::Scalar,
        Some(i) if i.sparsity < SPARSE_THRESHOLD => Repr::Csr,
        _ => Repr::Dense,
    };
    let mut rows: HashMap<NodeId, Row> = HashMap::with_capacity(nodes.len());
    for &id in nodes {
        let r = row(graph, id, |n| rows.get(&n).map_or_else(|| declared(n), |r| r.out));
        rows.insert(id, r);
    }
    rows
}

/// The per-node physical plan: each planned node's row of the
/// representation table, with the planner's placement of its dense kernel.
#[derive(Debug, Clone, Default)]
pub struct PhysicalPlan {
    rows: HashMap<NodeId, Row>,
    /// Each fused node, mapped to the `sum` whose step computes it.
    fused: HashMap<NodeId, NodeId>,
    /// Each member of a row pass, mapped to the matrix the pass reads.
    passes: HashMap<NodeId, NodeId>,
    degree: usize,
    pub(crate) mem_budget: Option<usize>,
    /// Shared, since the server clones the plan per request.
    schedule: Arc<Schedule>,
}

impl PhysicalPlan {
    /// The kernel chosen for a node: its [`row`]'s, as the planner placed it.
    /// A node the plan does not cover runs the table's row over the values
    /// it reads; this reports [`Kernel::Dense`] for it.
    pub fn kernel(&self, id: NodeId) -> Kernel {
        self.rows.get(&id).map_or(Kernel::Dense, |r| r.kernel)
    }

    /// The planned row of the representation table for a node, `None` for
    /// a node the plan does not cover.
    pub fn row(&self, id: NodeId) -> Option<Row> {
        self.rows.get(&id).copied()
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
    /// better (step 5 of [`PlanOptions`]' pipeline), with every value's
    /// lifetime under the plan's fusion and row passes.
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

    /// The matrix `X` node `id` reads in a row pass and its other
    /// operands, when the plan put it in one (see [`PlanOptions`], step 4);
    /// whether it runs in it depends on the schedule ([`Schedule::pass_of`]).
    pub(crate) fn pass_of(&self, graph: &Graph, id: NodeId) -> Option<(NodeId, Vec<NodeId>)> {
        self.passes.get(&id).and(self.pass_operands(graph, id))
    }

    /// The matrix `X` node `id` would read in a row pass and its other
    /// operands, when it may join one: `crossprod(X)`, `tmv(X, v)` and
    /// `colSums(X)` on [`Kernel::Dense`] or [`Kernel::Parallel`], and a
    /// `sum` that fused `f(X %*% W)`, whose product is on one of those, each
    /// reading every operand as stored: a CSR operand is not passed.
    /// `sumSq` never joins: its fold runs over `ELEM_BLOCK`-element blocks,
    /// not rows.
    fn pass_operands(&self, graph: &Graph, id: NodeId) -> Option<(NodeId, Vec<NodeId>)> {
        let (on, x, others) = match *graph.op(id) {
            Op::CrossProd(x) | Op::Agg(AggOp::ColSums, x) => (id, x, vec![]),
            Op::Tmv(x, v) => (id, x, vec![v]),
            Op::Agg(AggOp::Sum, fa) if self.fused_into(fa) == Some(id) => {
                let Op::Unary(_, a) = *graph.op(fa) else { return None };
                let Op::MatMul(x, w) = *graph.op(a) else { return None };
                if self.fused_into(a) != Some(id) {
                    return None;
                }
                (a, x, vec![w])
            }
            _ => return None,
        };
        self.row(on).is_some_and(Row::streams).then_some((x, others))
    }

    /// Whether node `id` runs at the plan's degree: a node on
    /// [`Kernel::Parallel`], or a `sum` whose fused product is.
    pub(crate) fn runs_parallel(&self, graph: &Graph, id: NodeId) -> bool {
        let on = match *graph.op(id) {
            Op::Agg(AggOp::Sum, fa) => match *graph.op(fa) {
                Op::Unary(_, a) if self.fused_into(a) == Some(id) => a,
                _ => id,
            },
            _ => id,
        };
        self.kernel(on) == Kernel::Parallel && self.degree() > 1
    }

    /// The planned nodes assigned kernel `k`, in ascending node order.
    pub fn nodes_with(&self, k: Kernel) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.rows.iter().filter(|&(_, r)| r.kernel == k).map(|(&n, _)| n).collect();
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
/// 1. **Representation.** The representation table ([`row`], DESIGN.md's
///    "Representation table") gives each node its kernel, its output
///    representation and the operands it densifies, from each input's
///    declared sparsity: an input below [`SPARSE_THRESHOLD`] is held as CSR.
/// 2. **Parallelism**, at a [`degree`](Self::degree) above one: a dense node
///    with a multi-threaded kernel upgrades to [`Kernel::Parallel`] when the
///    cost model's measured parallel price beats its serial one, or — where
///    the model cannot price both — when its estimated flops clear
///    [`PAR_FLOP_THRESHOLD`]. Sparse and scalar choices never upgrade, so
///    small inputs keep the exact serial dispatch at any degree.
/// 3. **Fusion**: in a `sum(f(A))` whose unary `f(A)` has no other reader
///    and whose `A` is dense, `f(A)` fuses into the `sum`, which folds `f`
///    over `A` in one pass. When `A` is an unshared `X %*% W` on
///    [`Kernel::Dense`] or [`Kernel::Parallel`], over a dense `X` and `W`
///    and wider than one column, it fuses too: the `sum` streams it in row
///    panels at the matmul's degree (`dm_matrix::par::gemm_map_sum`). A fused
///    node keeps its kernel.
/// 4. **Row passes**: `crossprod(X)`, `tmv(X, v)`, `colSums(X)` and a `sum`
///    that fused `f(X %*% W)`, on [`Kernel::Dense`] or [`Kernel::Parallel`]
///    over dense operands, form one pass over the `X` they share
///    (`dm_matrix::par::row_pass`) at the step of the first of them, at the
///    degree when one is parallel. A node joins when its other operand
///    (`v`, `W`) is an input or a constant, moved up to before that step, or
///    is scheduled before it already. `sumSq` stays out: a row-block fold
///    would change the bits of its `ELEM_BLOCK`-element one. A member that
///    goes blocked in step 5
///    leaves its pass, and a pass left with one member dissolves.
/// 5. **Memory**, under a bounded [`budget`](Self::budget): each round the
///    liveness certifier ([`certify_schedule`]) finds the peak step, and the
///    candidate there whose move to [`Kernel::Blocked`] shrinks the
///    certified peak the most is taken, until the plan fits; when none
///    helps, every candidate with an operand or output larger than the
///    budget streams and the certificate reports `Exceeds`. A candidate is
///    a dense row that reads its operands as stored (a row that densifies
///    holds its whole dense copies anyway); a blocked matmul no longer
///    fuses. The plan is fitted to the depth-first order and to
///    [`min_peak_order`], and the second fit is kept only when it blocks
///    fewer nodes, or as many at a strictly lower certified peak. An
///    unbounded plan keeps the depth-first order.
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
    let mut p = PhysicalPlan {
        rows: rows(graph, &reachable, sizes),
        fused: HashMap::new(),
        passes: HashMap::new(),
        degree: opts.degree.max(1),
        mem_budget: opts.budget.get(),
        schedule: Arc::default(),
    };

    if p.degree > 1 {
        for &id in &reachable {
            if p.kernel(id) != Kernel::Dense || !parallelizable(graph.op(id)) {
                continue;
            }
            let flops = node_flops(graph, id, sizes, Kernel::Dense);
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
                p.rows.entry(id).and_modify(|r| r.kernel = Kernel::Parallel);
            }
        }
    }

    // Fusion reads the unfused schedule's read counts, which fusion does
    // not change.
    p.reschedule(graph, reachable);
    fuse(graph, sizes, &mut p);
    group_passes(graph, &mut p);
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
        if reads[fa] != 1 || p.row(a).is_none_or(|r| r.out != Repr::Dense) {
            continue;
        }
        p.fused.insert(fa, sum);
        if let Op::MatMul(..) = *graph.op(a) {
            let streams = p.row(a).is_some_and(Row::streams)
                && sizes.get(&a).is_some_and(|i| i.shape.cols() > 1);
            if reads[a] == 1 && streams {
                p.fused.insert(a, sum);
            }
        }
    }
    p.reschedule(graph, sched.order().to_vec());
}

/// Group the row passes of the plan's schedule (step 4 of [`plan`]): the
/// nodes that may join one ([`PhysicalPlan::pass_operands`]) and read the
/// same `X` form a pass when at least two of them can run at the step of
/// the first: a node joins when each of its other operands is an input or
/// constant, which is moved up to before that step, or is scheduled before
/// it already.
fn group_passes(graph: &Graph, p: &mut PhysicalPlan) {
    let sched = Arc::clone(&p.schedule);
    let mut groups: BTreeMap<NodeId, Vec<(NodeId, Vec<NodeId>)>> = BTreeMap::new();
    for &n in sched.order() {
        if let Some((x, others)) = p.pass_operands(graph, n) {
            groups.entry(x).or_default().push((n, others));
        }
    }
    groups.retain(|_, members| members.len() > 1);
    if groups.is_empty() {
        return;
    }
    let mut pos = vec![usize::MAX; graph.len()];
    for (i, &n) in sched.order().iter().enumerate() {
        pos[n] = i;
    }
    let leaf = |n: NodeId| matches!(graph.op(n), Op::Input(_) | Op::Const(_));
    // Per lead, the leaves moved up to before it.
    let mut moved: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for (x, members) in groups {
        let first = pos[members[0].0];
        let joins = |others: &[NodeId]| others.iter().all(|&c| pos[c] < first || leaf(c));
        let joined: Vec<_> = members.iter().filter(|(_, others)| joins(others)).collect();
        if joined.len() < 2 {
            continue;
        }
        for (m, others) in joined {
            p.passes.insert(*m, x);
            let late = others.iter().filter(|&&c| pos[c] > first);
            moved.entry(members[0].0).or_default().extend(late);
        }
    }
    if p.passes.is_empty() {
        return;
    }
    let mut placed = vec![false; graph.len()];
    let mut order = Vec::with_capacity(sched.len());
    for &n in sched.order() {
        for &c in moved.get(&n).into_iter().flatten() {
            if !std::mem::replace(&mut placed[c], true) {
                order.push(c);
            }
        }
        if !std::mem::replace(&mut placed[n], true) {
            order.push(n);
        }
    }
    p.reschedule(graph, order);
}

/// Move node `id` to [`Kernel::Blocked`]. A blocked matmul does not fuse
/// and a blocked node joins no row pass, so a pass left with one member
/// dissolves; either change reschedules the plan.
fn block(graph: &Graph, p: &mut PhysicalPlan, id: NodeId) {
    p.rows.entry(id).and_modify(|r| r.kernel = Kernel::Blocked);
    let unfused = p.fused.remove(&id).is_some();
    let left: Vec<NodeId> =
        p.passes.keys().copied().filter(|&m| p.pass_operands(graph, m).is_none()).collect();
    for m in &left {
        p.passes.remove(m);
    }
    let mut readers: HashMap<NodeId, usize> = HashMap::new();
    for &x in p.passes.values() {
        *readers.entry(x).or_default() += 1;
    }
    p.passes.retain(|_, x| readers[x] > 1);
    if unfused || !left.is_empty() {
        p.reschedule(graph, p.schedule.order().to_vec());
    }
}

/// Estimated flops executed by a single node on `kernel` given propagated
/// sizes — the per-node term of
/// [`estimated_cost`](crate::rewrite::estimated_cost), also what the planner
/// weighs against [`PAR_FLOP_THRESHOLD`]. A [`Kernel::Sparse`] node reads its
/// operand's estimated non-zeros, any other every cell, as the executor
/// counts them. Nodes with no size information estimate 0.
pub fn node_flops(
    graph: &Graph,
    id: NodeId,
    infos: &HashMap<NodeId, SizeInfo>,
    kernel: Kernel,
) -> u128 {
    let sparse = kernel == Kernel::Sparse;
    let cells =
        |id: NodeId| infos.get(&id).map_or(0, |i| i.shape.rows() as u128 * i.shape.cols() as u128);
    // A sparse kernel reads its operand's estimated non-zeros.
    let read = |id: NodeId| match infos.get(&id) {
        Some(i) if sparse => (cells(id) as f64 * i.sparsity).ceil() as u128,
        _ => cells(id),
    };
    match graph.op(id) {
        Op::Input(_) | Op::Const(_) => 0,
        Op::Transpose(a) => read(*a),
        Op::MatMul(a, b) => {
            let b_cols = infos.get(b).map_or(0, |i| i.shape.cols()) as u128;
            2 * read(*a) * b_cols
        }
        Op::Ewise(_, _, _) => cells(id),
        Op::Unary(_, a) | Op::Agg(_, a) => read(*a),
        Op::CrossProd(a) => {
            let a_cols = infos.get(a).map_or(0, |i| i.shape.cols()) as u128;
            // The dense kernel computes the upper triangle: half the
            // products of the sparse kernel's full pass.
            (if sparse { 2 } else { 1 }) * read(*a) * a_cols
        }
        Op::Tmv(a, _) | Op::SumSq(a) => 2 * read(*a),
    }
}

/// True for ops with a multi-threaded dense kernel in `dm_matrix::par`.
fn parallelizable(op: &Op) -> bool {
    matches!(
        op,
        Op::MatMul(..) | Op::CrossProd(_) | Op::Tmv(..) | Op::SumSq(_) | Op::Agg(AggOp::ColSums, _)
    )
}

/// True for a node the planner may move to [`Kernel::Blocked`]: an op with
/// a blocked out-of-core kernel in `dm_buffer::ooc`, on a dense in-memory
/// kernel that reads its operands as stored. A row that densifies a CSR
/// operand holds the whole dense copy at its step, which streaming it
/// through the pool would not shrink.
fn blockable(graph: &Graph, p: &PhysicalPlan, id: NodeId) -> bool {
    let op = matches!(
        graph.op(id),
        Op::MatMul(..) | Op::CrossProd(_) | Op::Ewise(..) | Op::Agg(AggOp::ColSums, _)
    );
    op && p.row(id).is_some_and(Row::streams)
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
        if !blockable(graph, p, id) {
            continue;
        }
        let oversized = std::iter::once(id)
            .chain(graph.op(id).children().iter().copied())
            .any(|n| sizes.get(&n).is_some_and(|i| materialized_bytes(Repr::Dense, i) > limit));
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
            if !blockable(graph, &p, c) {
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
    fn elementwise_product_of_sparse_densifies_both_operands() {
        // No element-wise kernel reads CSR: S * S runs dense over a dense
        // copy of each operand, and its output is dense.
        let mut g = Graph::new();
        let s = g.input("S");
        let had = g.ewise(crate::expr::EwiseOp::Mul, s, s);
        let p = plan_with(&g, had, &PlanOptions::new(&inputs()));
        assert_eq!(p.kernel(s), Kernel::Sparse);
        let want = Row { kernel: Kernel::Dense, out: Repr::Dense, densify: [true, true] };
        assert_eq!(p.row(had), Some(want));
    }

    #[test]
    fn a_zero_preserving_map_keeps_csr_and_exp_densifies() {
        let mut g = Graph::new();
        let s = g.input("S");
        let t = g.transpose(s);
        let root = g.unary(UnaryOp::Sqrt, t);
        let e = g.unary(UnaryOp::Exp, root);
        let p = plan_with(&g, e, &PlanOptions::new(&inputs()));
        let csr = Row { kernel: Kernel::Sparse, out: Repr::Csr, densify: [false; 2] };
        assert_eq!((p.row(t), p.row(root)), (Some(csr), Some(csr)));
        let dense = Row { kernel: Kernel::Dense, out: Repr::Dense, densify: [true, false] };
        assert_eq!(p.row(e), Some(dense));
    }

    #[test]
    fn crossprod_of_a_value_stored_dense_runs_dense() {
        // S * S is estimated far below the threshold but stored dense.
        let mut g = Graph::new();
        let s = g.input("S");
        let had = g.ewise(crate::expr::EwiseOp::Mul, s, s);
        let cp = g.push(crate::expr::Op::CrossProd(had));
        let p = plan_with(&g, cp, &PlanOptions::new(&inputs()));
        assert_eq!(p.row(cp), Some(Row::holding(Repr::Dense)));
    }

    #[test]
    fn unknown_nodes_default_dense() {
        let p = PhysicalPlan::default();
        assert_eq!((p.kernel(42), p.row(42)), (Kernel::Dense, None));
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
        let flops = node_flops(&g, cp, &sizes, Kernel::Dense) as u64;

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
        let flops = node_flops(&g, cp, &sizes, Kernel::Dense) as u64;
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
        let flops = node_flops(&g, cp, &sizes, Kernel::Dense) as u64;
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
        let plan = plan_with(&g, sum, &PlanOptions::new(&s));
        let per_node: u128 = g
            .reachable(sum)
            .into_iter()
            .map(|id| node_flops(&g, id, &infos, plan.kernel(id)))
            .sum();
        assert_eq!(per_node, crate::rewrite::estimated_cost(&g, sum, &s).unwrap());
    }
}

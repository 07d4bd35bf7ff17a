//! The interpreter: executes an optimized DAG over bound inputs with
//! physical-kernel dispatch, one schedule step at a time.
//!
//! [`Executor::eval`] is one loop over a [`Schedule`], with a value table
//! that frees each value after its last reader: the machine
//! [`liveness::certify_plan`](crate::liveness::certify_plan) models.
//!
//! Every step dispatches on its node's row of the representation table
//! ([`physical::row`](crate::physical::row)) over the values it reads: the
//! row names the kernel and the CSR operands it reads densified. An `Input`
//! converts its binding to the representation the plan holds it in, so on a
//! planned eval the table reproduces the plan's rows; without a plan
//! ([`Executor::new`]) it runs the table over whatever was bound.
//!
//! Values are shared, never copied. A matrix [`Val`] holds an
//! `Arc<Matrix>`, so binding an input, storing a result and serving a shared
//! read are pointer copies, and every operator borrows its operands instead
//! of taking a copy. Matrix bytes are allocated in two places only:
//!
//! - a kernel's output, wrapped once in `Arc::new`;
//! - a real representation change: an input converted to its planned
//!   representation, a CSR operand densified where its row says so, and
//!   `Transpose`, which materialises its result.
//!
//! Staging a blocked operand into the spill pool writes its panels, which is
//! the out-of-core schedule's own data movement, not a value copy.
//!
//! Every executor runs what its plan fused and passed
//! ([`PlanOptions`](crate::physical::PlanOptions), steps 3 and 4), profiled
//! and traced ones included. A fused node produces nothing at its own step:
//! its `sum` folds `f` over the dense `A`, or streams a fused `X %*% W` in
//! `ROW_BLOCK`-row panels ([`par::gemm_map_sum`]). The step of a row pass's
//! first member computes every member's value in one pass over their `X`
//! ([`par::row_pass`]). A fused node evaluated as a root, and any root
//! without a plan, runs unfused and unpassed, with the same bits
//! (`crates/lang/tests/fused_sum.rs`, `crates/lang/tests/row_pass.rs`).

use crate::expr::{AggOp, EwiseOp, Graph, NodeId, Op, UnaryOp};
use crate::liveness::Schedule;
use crate::memory::MemoryBudget;
use crate::physical::{Kernel, PhysicalPlan, Repr, Row};
use dm_buffer::storage::Storage;
use dm_buffer::{ooc, panel_rows_for, BlockStore, PoolError, PoolStats, SharedBufferPool};
use dm_matrix::{ops, par, sparse, Csr, Dense, Matrix};
use dm_obs::{elapsed_ns, trace, StatsRegistry};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A runtime value: matrix (dense or sparse) or scalar. Cloning a `Val`
/// copies a pointer, never a matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Matrix value, shared by the environment, the value table and every
    /// consumer.
    Matrix(Arc<Matrix>),
    /// Scalar value.
    Scalar(f64),
}

impl Val {
    /// Unwrap a scalar.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            Val::Scalar(v) => Some(*v),
            Val::Matrix(m) if m.rows() == 1 && m.cols() == 1 => Some(m.get(0, 0)),
            _ => None,
        }
    }

    /// An owned, densified copy of a matrix.
    pub fn as_dense(&self) -> Option<Dense> {
        match self {
            Val::Matrix(m) => Some(m.to_dense()),
            Val::Scalar(_) => None,
        }
    }
}

/// Wrap a freshly computed dense output.
fn dense_val(d: Dense) -> Val {
    Val::Matrix(Arc::new(Matrix::Dense(d)))
}

/// Wrap a freshly computed column-vector output without copying it.
fn column_val(v: Vec<f64>) -> Val {
    dense_val(Dense::from_vec(v.len(), 1, v).expect("n x 1 holds n values"))
}

/// Wrap a freshly computed row-vector output without copying it.
fn row_val(v: Vec<f64>) -> Val {
    dense_val(Dense::from_vec(1, v.len(), v).expect("1 x n holds n values"))
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A named input is not bound in the environment.
    UnboundInput(String),
    /// Operand shapes or types are incompatible at runtime.
    Type {
        /// Node where the error occurred.
        node: NodeId,
        /// Description.
        message: String,
    },
    /// The out-of-core spill pool failed while a blocked kernel streamed
    /// tiles (e.g. the budget is smaller than a single tile, or spill I/O
    /// failed).
    OutOfCore {
        /// Node where the error occurred.
        node: NodeId,
        /// Description of the pool failure.
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnboundInput(n) => write!(f, "unbound input: {n}"),
            ExecError::Type { node, message } => write!(f, "type error at node {node}: {message}"),
            ExecError::OutOfCore { node, message } => {
                write!(f, "out-of-core failure at node {node}: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Input bindings for execution.
#[derive(Debug, Clone, Default)]
pub struct Env {
    map: HashMap<String, Val>,
    /// Non-zero counts the binder already took ([`Env::bind_counted`]).
    nnz: HashMap<String, usize>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a matrix input: a `Matrix` moves behind a new `Arc`, an
    /// `Arc<Matrix>` stays shared with the caller. Evaluation never copies it.
    pub fn bind(&mut self, name: &str, m: impl Into<Arc<Matrix>>) -> &mut Self {
        self.nnz.remove(name);
        self.map.insert(name.to_owned(), Val::Matrix(m.into()));
        self
    }

    /// Bind a matrix input together with its non-zero count (`v != 0.0`),
    /// which the binder took while producing it — a decoder counting as it
    /// converts. A [`profiled`](Executor::profiled) run reports the input's
    /// sparsity from `nnz` instead of scanning the matrix again.
    pub fn bind_counted(&mut self, name: &str, m: impl Into<Arc<Matrix>>, nnz: usize) -> &mut Self {
        let m = m.into();
        debug_assert_eq!(m.nnz(), nnz, "bind_counted({name}) was given a wrong count");
        self.bind(name, m);
        self.nnz.insert(name.to_owned(), nnz);
        self
    }

    /// Bind a scalar input.
    pub fn bind_scalar(&mut self, name: &str, v: f64) -> &mut Self {
        self.nnz.remove(name);
        self.map.insert(name.to_owned(), Val::Scalar(v));
        self
    }

    /// Whether `other` binds the same names to the same scalars and dense
    /// matrices, bit for bit: `-0.0` differs from `0.0`, and a `NaN` from one
    /// with another payload. A sparse binding equals nothing. The one pass
    /// this makes over the values stops at the first difference.
    pub fn same_bits(&self, other: &Env) -> bool {
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits();
        self.map.len() == other.map.len()
            && self.map.iter().all(|(name, a)| match (a, other.map.get(name)) {
                (Val::Scalar(x), Some(Val::Scalar(y))) => same(*x, *y),
                (Val::Matrix(a), Some(Val::Matrix(b))) => match (&**a, &**b) {
                    // A chunk compares without a branch per value, so it
                    // vectorizes; a difference stops the pass at its chunk.
                    (Matrix::Dense(a), Matrix::Dense(b)) => {
                        a.shape() == b.shape()
                            && a.data().chunks(64).zip(b.data().chunks(64)).all(|(x, y)| {
                                x.iter().zip(y).fold(true, |eq, (x, y)| eq & same(*x, *y))
                            })
                    }
                    _ => false,
                },
                _ => false,
            })
    }

    fn get(&self, name: &str) -> Option<&Val> {
        self.map.get(name)
    }

    /// The count [`bind_counted`](Self::bind_counted) recorded for `name`.
    fn nnz(&self, name: &str) -> Option<usize> {
        self.nnz.get(name).copied()
    }
}

/// Per-execution statistics: approximate floating-point operation counts,
/// used by the E5 experiment to quantify rewrite wins independent of timer
/// noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Approximate flops executed.
    pub flops: u64,
    /// Nodes evaluated (schedule steps, plus the nodes a fused `sum`
    /// computes inside its step).
    pub nodes_evaluated: u64,
    /// Reads of a value already computed in this eval that share it with a
    /// later reader: every read of a value but its last, which takes it.
    pub memo_hits: u64,
    /// Node evaluations dispatched to a multi-threaded kernel.
    pub par_nodes: u64,
    /// Node evaluations dispatched to a blocked out-of-core kernel.
    pub ooc_nodes: u64,
}

/// Which kernel family ran for one node: its row of the representation
/// table as the plan placed it ([`cost::node_family`](crate::cost::node_family)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Dense row-major kernel.
    Dense,
    /// CSR sparse kernel: the node's row reads a CSR operand as stored.
    Sparse,
    /// A fused operator (`crossprod`, `tmv`, `sumSq`), or a `sum` computing
    /// the nodes its plan fused into it.
    Fused,
    /// A constant.
    Scalar,
    /// Multi-threaded dense kernel (`dm_matrix::par`).
    Parallel,
    /// Blocked out-of-core kernel (`dm_buffer::ooc`), streaming tiles
    /// through the executor's spill pool.
    Blocked,
}

impl KernelChoice {
    /// Static lowercase name, used as a span argument and by `Display`.
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Dense => "dense",
            KernelChoice::Sparse => "sparse",
            KernelChoice::Fused => "fused",
            KernelChoice::Scalar => "scalar",
            KernelChoice::Parallel => "parallel",
            KernelChoice::Blocked => "blocked",
        }
    }
}

impl fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-node runtime measurements collected when profiling is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Wall time of this node's steps (summed over evals). A step runs only
    /// its own operator, so this is the node's self time.
    pub self_ns: u64,
    /// Flops executed by this node's steps (summed over evals).
    /// Paired with [`self_ns`](Self::self_ns) this is an observed
    /// throughput sample, the raw material of
    /// [`record_kernel_profiles`](Executor::record_kernel_profiles).
    pub self_flops: u64,
    /// Steps run: one per eval that reached the node.
    pub evals: u64,
    /// Shared reads of this node's value (see [`ExecStats::memo_hits`]).
    pub memo_hits: u64,
    /// Kernel family dispatched (None until first eval).
    pub kernel: Option<KernelChoice>,
    /// Rows of the last produced value (scalars are 1).
    pub out_rows: usize,
    /// Columns of the last produced value.
    pub out_cols: usize,
    /// Actual non-zero fraction of the last produced value.
    pub out_sparsity: f64,
}

/// The per-node runtime profile of one execution — the raw material for
/// [`profile_report`](crate::explain::profile_report).
#[derive(Debug, Clone, Default)]
pub struct ExecProfile {
    nodes: HashMap<NodeId, NodeStats>,
}

impl ExecProfile {
    /// Stats for one node, if it was ever reached.
    pub fn node(&self, id: NodeId) -> Option<&NodeStats> {
        self.nodes.get(&id)
    }

    /// Every profiled node.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeStats)> {
        self.nodes.iter().map(|(&k, v)| (k, v))
    }

    /// Total self time across all nodes (= end-to-end eval wall time, since
    /// the steps partition the walk).
    pub fn total_self_ns(&self) -> u64 {
        self.nodes.values().map(|n| n.self_ns).sum()
    }
}

/// DAG interpreter: walks a schedule, freeing each value at its last use.
pub struct Executor<'g> {
    graph: &'g Graph,
    // `with_memory_budget` overrides its budget.
    plan: PhysicalPlan,
    // This executor's account on the spill pool every blocked kernel of it
    // runs through, created lazily on the first out-of-core dispatch.
    ooc_pool: Option<SharedBufferPool<Box<dyn Storage>>>,
    stats: ExecStats,
    profile: Option<ExecProfile>,
    // Emit one structured trace span per step (plus shared-read instants).
    // Set by `traced()` or implied by the DMML_TRACE env var.
    tracing: bool,
    // When DMML_TRACE named a file at construction, the executor writes the
    // Chrome trace there on drop.
    trace_to_env: bool,
    // When DMML_PROFILE_DIR named a directory at construction, the executor
    // merge-saves its kernel throughput profile there on drop.
    profile_to_env: bool,
}

impl<'g> Executor<'g> {
    /// New executor without a plan: every node runs its row of the
    /// representation table ([`physical::row`](crate::physical::row)) over
    /// the values it reads, dense rows serially, nothing fused.
    pub fn new(graph: &'g Graph) -> Self {
        Executor::with_plan(graph, PhysicalPlan::default())
    }

    /// New executor honoring a physical plan: inputs are held as the plan
    /// holds them, so every node runs its planned row. [`Kernel::Parallel`]
    /// nodes run at the plan's degree, [`Kernel::Blocked`] ones stream tiles
    /// through a spill pool sized to its budget, fused nodes run in their
    /// `sum`'s step, and the rest serially.
    pub fn with_plan(graph: &'g Graph, plan: PhysicalPlan) -> Self {
        // DMML_TRACE=<path> turns tracing on for every executor in the
        // process and writes the Chrome trace to <path> when this executor
        // is dropped.
        let trace_to_env = trace::env_trace_path().is_some();
        if trace_to_env {
            trace::set_enabled(true);
        }
        // DMML_PROFILE_DIR=<dir> turns per-node profiling on and persists
        // (op, kernel, flops, ns) throughput samples there when this
        // executor is dropped, feeding the calibrated cost model
        // (crate::cost) on subsequent runs.
        let profile_to_env = dm_obs::profile::env_profile_dir().is_some();
        Executor {
            graph,
            plan,
            ooc_pool: None,
            stats: ExecStats::default(),
            profile: profile_to_env.then(ExecProfile::default),
            tracing: trace_to_env,
            trace_to_env,
            profile_to_env,
        }
    }

    /// The degree of parallelism in effect for parallel-planned nodes.
    pub fn degree(&self) -> usize {
        self.plan.degree()
    }

    /// Override the memory budget for [`Kernel::Blocked`] nodes. An
    /// unbounded budget makes blocked-planned nodes fall back to the
    /// in-memory dense kernels (which compute the identical bits — the
    /// budget only bounds residency).
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.plan.mem_budget = budget.get();
        self
    }

    /// The memory budget (bytes) in effect for blocked-planned nodes.
    pub fn mem_budget(&self) -> Option<usize> {
        self.plan.mem_budget()
    }

    /// This executor's account on the spill pool backing blocked kernels,
    /// once one has run. Exposes the pool's counters
    /// ([`SharedBufferPool::stats`]), this executor's share of them
    /// ([`SharedBufferPool::traffic`]) and the audit hooks used by tests and
    /// the profile report.
    pub fn ooc_pool(&self) -> Option<&SharedBufferPool<Box<dyn Storage>>> {
        self.ooc_pool.as_ref()
    }

    /// Spill-pool counters (spills, faults, evictions, pins), or `None`
    /// until a blocked kernel has run. These are the pool's totals: on a
    /// pool shared through [`with_spill_pool`](Self::with_spill_pool) they
    /// include other executors' traffic, and this executor's own share is
    /// its [`ooc_pool`](Self::ooc_pool)'s [`traffic`](SharedBufferPool::traffic).
    pub fn ooc_pool_stats(&self) -> Option<PoolStats> {
        self.ooc_pool.as_ref().map(|p| p.stats())
    }

    /// Share a pre-built spill pool instead of building a private one
    /// ([`memory::spill_pool`](crate::memory::spill_pool)) on the first
    /// blocked node.
    ///
    /// A server runs many executors against one bounded spill pool so that
    /// blocked kernels from concurrent requests compete for the *same*
    /// budgeted capacity instead of each opening a pool of its own. The pool
    /// gives every block store a fresh matrix id, so concurrent executors
    /// never alias pages, and a store frees its pages when dropped, so an
    /// eval that fails part way leaves none behind. The executor opens its
    /// own [`account`](SharedBufferPool::account) on the pool and runs its
    /// blocked kernels through it, so [`record_stats`](Self::record_stats)
    /// publishes only the traffic this executor's calls caused, a spill of
    /// another executor's page that one of its calls evicted included.
    pub fn with_spill_pool(mut self, pool: SharedBufferPool<Box<dyn Storage>>) -> Self {
        self.ooc_pool = Some(pool.account());
        self
    }

    /// Disable the `DMML_TRACE` / `DMML_PROFILE_DIR` drop-time exports for
    /// this executor. Long-lived processes that construct an executor per
    /// request (the scoring server) record stats and profiles through
    /// their own registry instead; per-request file writes on drop would
    /// be both slow and racy.
    pub fn without_env_sinks(mut self) -> Self {
        self.trace_to_env = false;
        self.profile_to_env = false;
        self
    }

    /// Enable per-node profiling (wall time, kernel dispatch, output shape
    /// and sparsity). Each step then reads the clock twice and counts its
    /// output's non-zeros: a pass over a dense output, free for a sparse
    /// one, none for an input bound with [`Env::bind_counted`]. The scoring
    /// server profiles every request; its inputs arrive counted, so a
    /// `serve_wide_hot` request pays the clock reads and one scan of its
    /// 64-value result. A plan that materializes large intermediates pays a
    /// pass over each of them.
    pub fn profiled(mut self) -> Self {
        self.profile = Some(ExecProfile::default());
        self
    }

    /// The collected per-node profile (None unless [`profiled`](Self::profiled)).
    pub fn profile(&self) -> Option<&ExecProfile> {
        self.profile.as_ref()
    }

    /// Enable structured tracing: one [`dm_obs::trace`] span per schedule
    /// step (op label, kernel family, output dims, the node's own flops) and
    /// an instant event per shared read, on the same timeline as the `dm-par` task
    /// spans and `dm-buffer` pool events those evaluations trigger. Turns
    /// the process-global collector on; drain with
    /// [`trace::take_events`] or export with [`trace::write_chrome_trace`].
    pub fn traced(mut self) -> Self {
        trace::set_enabled(true);
        self.tracing = true;
        self
    }

    /// True when this executor emits trace spans.
    pub fn is_traced(&self) -> bool {
        self.tracing
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Push this execution's aggregate statistics into `rec` under the
    /// `lang.exec.*` sites. Timings (`eval_wall`, `kernel.<family>`) are
    /// nanosecond histograms. The `lang.exec.ooc.*` counters are this
    /// executor's spill-pool account ([`SharedBufferPool::traffic`]), so
    /// executors sharing one pool publish its totals between them.
    pub fn record_stats(&self, rec: &StatsRegistry) {
        rec.add("lang.exec.nodes_evaluated", self.stats.nodes_evaluated);
        rec.add("lang.exec.memo_hits", self.stats.memo_hits);
        rec.add("lang.exec.flops", self.stats.flops);
        rec.add("lang.exec.par_nodes", self.stats.par_nodes);
        rec.gauge_set("lang.exec.par_degree", self.degree() as u64);
        rec.add("lang.exec.ooc_nodes", self.stats.ooc_nodes);
        if let Some(budget) = self.mem_budget() {
            rec.gauge_set("lang.exec.mem_budget", budget as u64);
        }
        if let Some(traffic) = self.ooc_pool.as_ref().map(SharedBufferPool::traffic) {
            // Bytes that left and re-entered memory to stay under the budget.
            rec.add("lang.exec.ooc.spilled_bytes", traffic.spilled_bytes);
            rec.add("lang.exec.ooc.faulted_bytes", traffic.faulted_bytes);
            rec.add("lang.exec.ooc.evictions", traffic.evictions);
            rec.add("lang.exec.ooc.pins", traffic.pins);
        }
        if let Some(p) = &self.profile {
            rec.record_histogram("lang.exec.eval_wall", p.total_self_ns());
            // Per-kernel-family self times: comparing `lang.exec.kernel.dense`
            // against `lang.exec.kernel.parallel` across runs is how per-kernel
            // speedup is derived (see EXPERIMENTS.md E13).
            for (_, ns) in p.nodes() {
                if let Some(k) = ns.kernel {
                    rec.record_histogram(&format!("lang.exec.kernel.{k}"), ns.self_ns);
                }
                // Latency distribution across nodes: the report's p50/p95/p99
                // show whether wall time is spread evenly or dominated by a
                // few heavy operators.
                rec.record_histogram("lang.exec.node_self_ns", ns.self_ns);
            }
        }
    }

    /// Fold this execution's per-node throughput observations into a
    /// [`ProfileStore`](dm_obs::profile::ProfileStore): one
    /// `(op, kernel family, self flops, self ns)` sample per profiled node
    /// that did real work. This is the observe edge of the
    /// observe→calibrate→re-cost loop — persist the store and the
    /// calibrated cost model ([`CostModel`](crate::cost::CostModel)) divides
    /// future flop estimates by these measured GFLOP/s. No-op unless the
    /// executor was [`profiled`](Self::profiled).
    pub fn record_kernel_profiles(&self, store: &mut dm_obs::profile::ProfileStore) {
        let Some(p) = &self.profile else { return };
        for (id, ns) in p.nodes() {
            let Some(kernel) = ns.kernel else { continue };
            if ns.self_flops == 0 || ns.self_ns == 0 {
                continue;
            }
            let op = crate::explain::op_label(self.graph, id);
            store.record(&op, &kernel.to_string(), ns.self_flops, ns.self_ns);
        }
    }

    /// The degree node `id` runs an in-memory kernel at (1 unless it is
    /// parallel). Counts parallel dispatches.
    fn in_memory_degree(&mut self, id: NodeId) -> usize {
        if self.plan.kernel(id) != Kernel::Parallel || self.plan.degree() == 1 {
            return 1;
        }
        self.stats.par_nodes += 1;
        self.plan.degree()
    }

    /// Run node `id`'s dense operator where the plan places it:
    /// `in_memory` at the node's in-memory degree or, when blocked, `blocked`
    /// over `operands` tiled into the spill pool, at the executor degree.
    /// An output store takes its panel rows from the first operand, so each
    /// operand's panels are sized from the wider of its own and the output's
    /// `out_cols`. The operand tiles are discarded afterwards (dropped, on an
    /// error path); an output store is the closure's to [`collect`].
    fn run<T>(
        &mut self,
        id: NodeId,
        operands: &[&Dense],
        out_cols: usize,
        in_memory: impl FnOnce(usize) -> T,
        blocked: impl FnOnce(&[Tiles], usize) -> Result<T, PoolError>,
    ) -> Result<T, ExecError> {
        let (Kernel::Blocked, Some(budget)) = (self.plan.kernel(id), self.plan.mem_budget()) else {
            return Ok(in_memory(self.in_memory_degree(id)));
        };
        self.stats.ooc_nodes += 1;
        // The certifier caps its pool term with the same spill_pool_capacity
        // (crate::liveness), so certified plans and this pool agree.
        let pool = self.ooc_pool.get_or_insert_with(|| crate::memory::spill_pool(budget));
        let err = |e: PoolError| ooc_err(id, e);
        let tiles = operands
            .iter()
            .map(|m| {
                let cols = m.cols().max(out_cols);
                let rows = panel_rows_for(cols, budget, crate::memory::OOC_PANEL_DENOM);
                BlockStore::from_dense(pool, m, rows)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let out = blocked(&tiles, self.degree()).map_err(err)?;
        for t in tiles {
            t.discard().map_err(err)?;
        }
        Ok(out)
    }

    /// Evaluate the node, then cross-check the runtime value's dimensions
    /// against statically propagated sizes (from
    /// [`size::propagate`](crate::size::propagate) or
    /// [`analyze`](crate::analyze::analyze)). A mismatch means the static
    /// analyzer and the interpreter disagree — a compiler bug, reported as a
    /// [`ExecError::Type`] naming both shapes. Scalars and 1x1 matrices are
    /// interchangeable.
    pub fn eval_verified(
        &mut self,
        id: NodeId,
        env: &Env,
        expected: &HashMap<NodeId, crate::size::SizeInfo>,
    ) -> Result<Val, ExecError> {
        let val = self.eval(id, env)?;
        if let Some(info) = expected.get(&id) {
            let (er, ec) = (info.shape.rows(), info.shape.cols());
            let (ar, ac) = dims(&val);
            if (ar, ac) != (er, ec) {
                return Err(ExecError::Type {
                    node: id,
                    message: format!(
                        "static analysis predicted a {er}x{ec} result but execution \
                         produced {ar}x{ac}"
                    ),
                });
            }
        }
        Ok(val)
    }

    /// Evaluate `root`: one step per node of the schedule, each reading its
    /// operands from a value table that frees every value at its last read.
    /// The schedule is the plan's [`schedule`](PhysicalPlan::schedule) when
    /// it ends at `root`, the depth-first one from `root` otherwise.
    pub fn eval(&mut self, root: NodeId, env: &Env) -> Result<Val, ExecError> {
        let sched = self.plan.schedule_for(self.graph, root);
        let mut table = ValueTable::new(&sched);
        for &id in sched.order() {
            if table.fused[id] {
                continue;
            }
            match sched.pass_of(id) {
                Some(lead) if lead == id => {
                    self.pass_step(&sched.pass_members(id), env, &mut table)?
                }
                Some(_) => {}
                None => {
                    let val = self.step(id, env, &mut table)?;
                    table.vals[id] = Some(val);
                }
            }
        }
        Ok(table.vals[root].take().expect("the schedule ends at its root"))
    }

    /// Run a row pass: every member's value from one pass over the dense
    /// `X` they read ([`par::row_pass`]), at the plan's degree when a member
    /// runs parallel (each member then counts as a parallel dispatch) and
    /// serially otherwise. A binding whose shape disagrees with the plan's
    /// sizes is a type error. Observed, the pass's wall time goes to the
    /// members in proportion to their block work.
    fn pass_step(
        &mut self,
        members: &[NodeId],
        env: &Env,
        table: &mut ValueTable,
    ) -> Result<(), ExecError> {
        let observed = self.profile.is_some() || (self.tracing && trace::is_enabled());
        let span = (self.tracing && trace::is_enabled()).then(|| {
            let mut s = trace::Span::enter("exec.row_pass", "exec");
            s.arg("node", members[0]);
            s.arg("members", members.len());
            s
        });
        let t0 = Instant::now();
        // Each member with the values it reads: `X` and its other operand.
        let mut read = Vec::with_capacity(members.len());
        for &m in members {
            let (x, others) = self.plan.pass_of(self.graph, m).expect("a planned pass member");
            let other = others.first().map(|&c| self.read(table, c));
            read.push((m, self.read(table, x), other));
        }
        // The map of each `sum(f(X %*% W))`, in member order.
        let maps: Vec<_> = members
            .iter()
            .filter_map(|&m| match *self.graph.op(m) {
                Op::Agg(AggOp::Sum, fa) => match *self.graph.op(fa) {
                    Op::Unary(u, _) => Some(move |p: &mut [f64]| u.map(p)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        let mut maps = maps.iter();
        let Val::Matrix(x) = &read[0].1 else { return Err(pass_err(members[0])) };
        let x = dense(x);
        let (rows, cols) = (x.rows(), x.cols());
        // Each member as the pass runs it, its operands checked against `X`.
        let mut kernel_members = Vec::with_capacity(read.len());
        for (m, _, other) in &read {
            let other = match other {
                Some(Val::Matrix(o)) => Some(dense(o)),
                _ => None,
            };
            kernel_members.push(match (self.graph.op(*m), other) {
                (Op::CrossProd(_), _) => par::Member::CrossProd,
                (Op::Agg(AggOp::ColSums, _), _) => par::Member::ColSums,
                (Op::Tmv(..), Some(v)) if v.shape() == (rows, 1) => par::Member::Gevm(v.data()),
                (Op::Agg(AggOp::Sum, _), Some(w)) if w.rows() == cols => {
                    par::Member::GemmMapSum(w, maps.next().expect("a map per sum"))
                }
                _ => return Err(pass_err(*m)),
            });
        }
        let parallel = members.iter().any(|&m| self.plan.runs_parallel(self.graph, m));
        let out = par::row_pass(x, &kernel_members, if parallel { self.plan.degree() } else { 1 });
        let mut vals = Vec::with_capacity(members.len());
        for ((m, _, other), value) in read.iter().zip(out.values) {
            // The flops each member's own step would count.
            let (flops, val) = match (self.graph.op(*m), value) {
                (_, par::PassValue::Matrix(d)) => (rows * cols * cols, dense_val(d)),
                (Op::Tmv(..), par::PassValue::Vector(v)) => (2 * rows * cols, column_val(v)),
                (_, par::PassValue::Vector(v)) => (rows * cols, row_val(v)),
                (_, par::PassValue::Scalar(sum)) => {
                    let n = other.as_ref().map_or(0, |w| dims(w).1);
                    // The sum runs its fused map and product too.
                    self.stats.nodes_evaluated += 2;
                    (2 * rows * cols * n + 2 * rows * n, Val::Scalar(sum))
                }
            };
            self.stats.flops += flops as u64;
            self.stats.nodes_evaluated += 1;
            vals.push((*m, flops as u64, val));
        }
        if parallel {
            self.stats.par_nodes += members.len() as u64;
        }
        if observed {
            let wall = elapsed_ns(t0);
            let work: u64 = out.work_ns.iter().sum();
            let mut left = wall;
            for (i, ((m, flops, val), ns)) in vals.iter().zip(&out.work_ns).enumerate() {
                let share = if i + 1 == vals.len() {
                    left
                } else {
                    (wall as u128 * *ns as u128 / work.max(1) as u128) as u64
                };
                left -= share.min(left);
                let kernel = crate::cost::family(self.graph, *m, self.plan.kernel(*m), &self.plan);
                self.observe(*m, env, val, share, *flops, kernel);
            }
        }
        drop(span);
        for (m, _, val) in vals {
            table.vals[m] = Some(val);
        }
        Ok(())
    }

    /// Run node `id`'s step, timed and traced when the executor observes
    /// its steps. A step runs only its own operator, so its wall time and
    /// flops are the node's own.
    fn step(&mut self, id: NodeId, env: &Env, table: &mut ValueTable) -> Result<Val, ExecError> {
        self.stats.nodes_evaluated += 1;
        let row = self.row(id, env, table);
        let tracing = self.tracing && trace::is_enabled();
        if !tracing && self.profile.is_none() {
            return self.op(id, row, env, table);
        }
        let mut span = tracing.then(|| {
            let mut s = trace::Span::enter(crate::explain::op_site(self.graph, id), "exec");
            s.arg("node", id);
            s
        });
        let t0 = Instant::now();
        let flops_before = self.stats.flops;
        let val = self.op(id, row, env, table)?;
        let ns = elapsed_ns(t0);
        let flops = self.stats.flops - flops_before;
        let kernel = crate::cost::family(self.graph, id, row.kernel, &self.plan);
        if let Some(s) = &mut span {
            let (rows, cols) = dims(&val);
            s.arg("kernel", kernel.name());
            s.arg("rows", rows);
            s.arg("cols", cols);
            s.arg("flops", flops);
        }
        self.observe(id, env, &val, ns, flops, kernel);
        Ok(val)
    }

    /// Node `id`'s row of the representation table
    /// ([`physical::row`](crate::physical::row)) over the values it reads, a
    /// dense row placed where the plan put the node (parallel, blocked or
    /// serial). An input holds its binding as the plan holds it, so on a
    /// planned eval the table reproduces the plan's row; a node the plan
    /// does not cover runs the table's row over whatever it was bound to.
    fn row(&self, id: NodeId, env: &Env, table: &ValueTable) -> Row {
        let row = match *self.graph.op(id) {
            // A fused `sum` reads values its fused nodes never produce.
            Op::Agg(AggOp::Sum, fa) if table.fused[fa] => {
                return self.plan.row(id).expect("only a plan fuses")
            }
            Op::Input(ref name) => Row::holding(match self.plan.row(id) {
                Some(planned) => planned.out,
                None => env.get(name).map_or(Repr::Dense, repr),
            }),
            _ => crate::physical::row(self.graph, id, |n| {
                repr(table.vals[n].as_ref().expect("a schedule runs operands before their readers"))
            }),
        };
        let row = match (row.kernel, self.plan.kernel(id)) {
            (Kernel::Dense, k @ (Kernel::Parallel | Kernel::Blocked)) => Row { kernel: k, ..row },
            _ => row,
        };
        debug_assert!(
            self.plan.row(id).is_none_or(|planned| planned == row),
            "%{id}: planned {:?}, the values read run {row:?}",
            self.plan.row(id)
        );
        row
    }

    /// Add one step of node `id` that produced `val` to the profile, when
    /// the executor profiles.
    fn observe(
        &mut self,
        id: NodeId,
        env: &Env,
        val: &Val,
        ns: u64,
        flops: u64,
        kernel: KernelChoice,
    ) {
        let Some(p) = &mut self.profile else { return };
        let (rows, cols) = dims(val);
        let node = p.nodes.entry(id).or_default();
        node.evals += 1;
        node.self_ns += ns;
        node.self_flops += flops;
        node.kernel = Some(kernel);
        node.out_rows = rows;
        node.out_cols = cols;
        node.out_sparsity = match val {
            Val::Matrix(m) if rows * cols > 0 => {
                // An input bound with its count is not scanned again.
                let counted = match self.graph.op(id) {
                    Op::Input(name) => env.nnz(name),
                    _ => None,
                };
                counted.unwrap_or_else(|| m.nnz()) as f64 / (rows * cols) as f64
            }
            Val::Matrix(_) => 0.0,
            Val::Scalar(_) => 1.0,
        };
    }

    /// Read operand `id` for the running step. The last read takes the
    /// value out of the table, so it is freed when the step drops it; an
    /// earlier read shares it and counts as a memo hit.
    fn read(&mut self, table: &mut ValueTable, id: NodeId) -> Val {
        table.reads[id] -= 1;
        let shared = table.reads[id] > 0;
        let slot = &mut table.vals[id];
        let val = if shared { slot.clone() } else { slot.take() };
        if shared {
            self.stats.memo_hits += 1;
            if let Some(p) = &mut self.profile {
                p.nodes.entry(id).or_default().memo_hits += 1;
            }
            if self.tracing && trace::is_enabled() {
                trace::instant(
                    "exec.memo_hit",
                    &[("node", id.into()), ("op", crate::explain::op_site(self.graph, id).into())],
                );
            }
        }
        val.expect("a schedule runs operands before their readers")
    }

    /// [`read`](Self::read) operand `id`, as a dense copy of it when the
    /// node's row densifies it.
    fn operand(&mut self, table: &mut ValueTable, id: NodeId, densify: bool) -> Val {
        match self.read(table, id) {
            Val::Matrix(m) if densify => dense_val(m.to_dense()),
            v => v,
        }
    }

    /// Node `id`'s operator over its operands, read from `table`: `row`
    /// names the kernel that runs and the operands it reads densified.
    fn op(
        &mut self,
        id: NodeId,
        row: Row,
        env: &Env,
        table: &mut ValueTable,
    ) -> Result<Val, ExecError> {
        let type_err = |message: String| ExecError::Type { node: id, message };
        let sparse = row.kernel == Kernel::Sparse;
        let [da, db] = row.densify;
        match *self.graph.op(id) {
            // The table's `Input` row: a binding is held as the plan holds it,
            // a dense one of a CSR-planned input converted, a CSR one of a
            // dense-planned input densified; without a plan, as it is bound.
            Op::Input(ref name) => {
                let v = env.get(name).ok_or_else(|| ExecError::UnboundInput(name.clone()))?;
                Ok(match (v, self.plan.row(id).map(|r| r.out)) {
                    (Val::Matrix(m), Some(Repr::Csr)) if m.is_dense() => {
                        Val::Matrix(Arc::new(Matrix::Sparse(m.to_csr())))
                    }
                    (Val::Matrix(m), Some(Repr::Dense)) if !m.is_dense() => dense_val(m.to_dense()),
                    _ => v.clone(),
                })
            }
            Op::Const(v) => Ok(Val::Scalar(v)),
            Op::Agg(AggOp::Sum, fa) if table.fused[fa] => self.fused_sum(id, fa, table),
            Op::Transpose(a) => Ok(match self.read(table, a) {
                Val::Scalar(v) => Val::Scalar(v),
                Val::Matrix(m) if sparse => {
                    let s = csr(&m);
                    self.stats.flops += s.nnz() as u64;
                    Val::Matrix(Arc::new(Matrix::Sparse(s.transpose())))
                }
                Val::Matrix(m) => {
                    let d = dense(&m);
                    self.stats.flops += (d.rows() * d.cols()) as u64;
                    dense_val(d.transpose())
                }
            }),
            Op::MatMul(a, b) => {
                let (va, vb) = (self.operand(table, a, da), self.operand(table, b, db));
                self.matmul(id, sparse, &va, &vb)
            }
            Op::Ewise(e, a, b) => {
                let (va, vb) = (self.operand(table, a, da), self.operand(table, b, db));
                self.ewise(id, e, &va, &vb)
            }
            Op::Unary(u, a) => {
                let v = self.operand(table, a, da);
                Ok(self.unary(u, sparse, v))
            }
            Op::Agg(aop, a) => {
                let v = self.read(table, a);
                self.aggregate(id, aop, sparse, &v)
            }
            Op::CrossProd(a) => {
                let Val::Matrix(m) = self.read(table, a) else {
                    return Err(type_err("crossprod needs a matrix".into()));
                };
                if sparse {
                    let s = csr(&m);
                    self.stats.flops += 2 * (s.nnz() * s.cols()) as u64;
                    return Ok(dense_val(sparse::sp_crossprod(s)));
                }
                let m = dense(&m);
                self.stats.flops += (m.rows() * m.cols() * m.cols()) as u64;
                let out = self.run(
                    id,
                    &[m],
                    m.cols(),
                    |deg| par::crossprod(m, deg),
                    |t, deg| ooc::crossprod(&t[0], deg),
                )?;
                Ok(dense_val(out))
            }
            Op::Tmv(a, b) => {
                let (va, vb) = (self.operand(table, a, da), self.operand(table, b, db));
                let (Val::Matrix(ma), Val::Matrix(mb)) = (&va, &vb) else {
                    return Err(type_err("tmv requires matrix operands".into()));
                };
                if mb.cols() != 1 || ma.rows() != mb.rows() {
                    return Err(type_err("tmv requires X (n x d) and v (n x 1)".into()));
                }
                let v = dense(mb).data();
                let out = if sparse {
                    let s = csr(ma);
                    self.stats.flops += 2 * s.nnz() as u64;
                    sparse::spvm(v, s)
                } else {
                    let d = dense(ma);
                    self.stats.flops += 2 * (d.rows() * d.cols()) as u64;
                    par::gevm(v, d, self.in_memory_degree(id))
                };
                Ok(column_val(out))
            }
            Op::SumSq(a) => Ok(Val::Scalar(match self.read(table, a) {
                Val::Scalar(s) => s * s,
                Val::Matrix(m) if sparse => {
                    let s = csr(&m);
                    self.stats.flops += 2 * s.nnz() as u64;
                    s.iter().map(|(_, _, v)| v * v).sum()
                }
                Val::Matrix(m) => {
                    let d = dense(&m);
                    self.stats.flops += 2 * (d.rows() * d.cols()) as u64;
                    par::sum_sq(d, self.in_memory_degree(id))
                }
            })),
        }
    }

    fn matmul(&mut self, id: NodeId, sparse: bool, va: &Val, vb: &Val) -> Result<Val, ExecError> {
        let type_err = |message: String| ExecError::Type { node: id, message };
        let (Val::Matrix(ma), Val::Matrix(mb)) = (va, vb) else {
            return Err(type_err("matmul requires matrix operands".into()));
        };
        if ma.cols() != mb.rows() {
            return Err(type_err(format!("matmul inner dims {} vs {}", ma.cols(), mb.rows())));
        }
        if sparse {
            // One chain per output cell over its row's non-zeros; a column
            // `B` is the one-column case, with the bits of `spmv`.
            let (sa, db) = (csr(ma), dense(mb));
            self.stats.flops += 2 * (sa.nnz() * db.cols()) as u64;
            return Ok(dense_val(sparse::spmm_dense(sa, db)));
        }
        let (da, db) = (dense(ma), dense(mb));
        self.stats.flops += 2 * (da.rows() * da.cols() * db.cols()) as u64;
        // Vector shapes dispatch to the mv kernels.
        if db.cols() == 1 {
            let v = db.data();
            let out = self.run(
                id,
                &[da],
                1,
                |deg| par::gemv(da, v, deg),
                |t, deg| ooc::gemv(&t[0], v, deg),
            )?;
            return Ok(column_val(out));
        }
        let out = self.run(
            id,
            &[da, db],
            db.cols(),
            |deg| par::gemm(da, db, deg),
            |t, deg| collect(ooc::gemm(&t[0], &t[1], deg)?),
        )?;
        Ok(dense_val(out))
    }

    fn unary(&mut self, u: UnaryOp, sparse: bool, v: Val) -> Val {
        let m = match v {
            Val::Scalar(s) => return Val::Scalar(u.apply(s)),
            Val::Matrix(m) => m,
        };
        // sqrt and abs keep zeros zero and non-zeros non-zero: the stored
        // values map and the pattern stays.
        if sparse {
            let s = csr(&m);
            self.stats.flops += s.nnz() as u64;
            return Val::Matrix(Arc::new(Matrix::Sparse(s.map_stored(|v| u.apply(v)))));
        }
        // A dense value this step holds the only reference to (its last
        // reader's, see `read`, or the copy its row densified) is mapped in
        // place.
        let Matrix::Dense(mut d) = Arc::unwrap_or_clone(m) else {
            unreachable!("a dense row reads a dense operand")
        };
        self.stats.flops += (d.rows() * d.cols()) as u64;
        u.map(d.data_mut());
        dense_val(d)
    }

    fn aggregate(
        &mut self,
        id: NodeId,
        aop: AggOp,
        sparse: bool,
        v: &Val,
    ) -> Result<Val, ExecError> {
        let m = match v {
            Val::Scalar(s) => return Ok(Val::Scalar(*s)),
            Val::Matrix(m) => &**m,
        };
        // Sparse aggregates read only the stored entries, dense ones every
        // cell.
        if sparse {
            let s = csr(m);
            self.stats.flops += s.nnz() as u64;
            return Ok(match aop {
                AggOp::Sum => Val::Scalar(s.iter().map(|(_, _, v)| v).sum()),
                AggOp::ColSums => row_val(sparse::spvm(&vec![1.0; s.rows()], s)),
                AggOp::RowSums => column_val(sparse::spmv(s, &vec![1.0; s.cols()])),
                AggOp::Min => Val::Scalar(sparse_extreme(s, f64::min)),
                AggOp::Max => Val::Scalar(sparse_extreme(s, f64::max)),
            });
        }
        let d = dense(m);
        self.stats.flops += (d.rows() * d.cols()) as u64;
        Ok(match aop {
            AggOp::Sum => Val::Scalar(ops::sum(d)),
            AggOp::ColSums => row_val(self.run(
                id,
                &[d],
                d.cols(),
                |deg| par::col_sums(d, deg),
                |t, deg| ooc::col_sums(&t[0], deg),
            )?),
            AggOp::RowSums => column_val(ops::row_sums(d)),
            AggOp::Min => Val::Scalar(ops::min(d)),
            AggOp::Max => Val::Scalar(ops::max(d)),
        })
    }

    /// `sum(f(A))` for the `sum` node `id` over the fused `fa = f(A)`, in one
    /// pass that never materializes `f(A)`: `f` is folded over the dense `A`
    /// into one sum from [`Iterator::sum`]'s identity ([`map_sum`]), the adds
    /// of `ops::sum` over the mapped `A`. A fused product of dense operands is
    /// not materialized either: [`par::gemm_map_sum`] streams it in
    /// `ROW_BLOCK`-row panels with the same fold. The stats count the fused
    /// nodes as evaluated and charge their flops, as the unfused path would.
    fn fused_sum(
        &mut self,
        id: NodeId,
        fa: NodeId,
        table: &mut ValueTable,
    ) -> Result<Val, ExecError> {
        let type_err = |message: String| ExecError::Type { node: id, message };
        let Op::Unary(u, a) = *self.graph.op(fa) else { unreachable!("only f(A) is fused") };
        self.stats.nodes_evaluated += 1;
        if let Op::MatMul(x, w) = *self.graph.op(a) {
            if table.fused[a] {
                let (vx, vw) = (self.read(table, x), self.read(table, w));
                self.stats.nodes_evaluated += 1;
                let (Val::Matrix(x), Val::Matrix(w)) = (&vx, &vw) else {
                    return Err(type_err("matmul requires matrix operands".into()));
                };
                if x.cols() != w.rows() {
                    return Err(type_err(format!(
                        "matmul inner dims {} vs {}",
                        x.cols(),
                        w.rows()
                    )));
                }
                let (x, w) = (dense(x), dense(w));
                let (m, k, n) = (x.rows(), x.cols(), w.cols());
                // The matmul's flops, then the unary's and the sum's.
                self.stats.flops += (2 * m * k * n + 2 * m * n) as u64;
                let degree = self.in_memory_degree(a);
                return Ok(Val::Scalar(par::gemm_map_sum(x, w, |p| u.map(p), degree)));
            }
        }
        let Val::Matrix(m) = self.read(table, a) else {
            return Err(type_err("a fused sum reads a matrix".into()));
        };
        let d = dense(&m);
        self.stats.flops += 2 * d.data().len() as u64;
        Ok(Val::Scalar(map_sum(u, d.data())))
    }

    fn ewise(&mut self, id: NodeId, e: EwiseOp, va: &Val, vb: &Val) -> Result<Val, ExecError> {
        let f = |x: f64, y: f64| match e {
            EwiseOp::Add => x + y,
            EwiseOp::Sub => x - y,
            EwiseOp::Mul => x * y,
            EwiseOp::Div => x / y,
        };
        match (va, vb) {
            (&Val::Scalar(a), &Val::Scalar(b)) => Ok(Val::Scalar(f(a, b))),
            (Val::Matrix(m), &Val::Scalar(s)) => self.broadcast(id, dense(m), move |v| f(v, s)),
            (&Val::Scalar(s), Val::Matrix(m)) => self.broadcast(id, dense(m), move |v| f(s, v)),
            (Val::Matrix(ma), Val::Matrix(mb)) => {
                let (da, db) = (dense(ma), dense(mb));
                if da.shape() != db.shape() {
                    let [(r1, c1), (r2, c2)] = [da.shape(), db.shape()];
                    let message = format!("elementwise {r1}x{c1} vs {r2}x{c2}");
                    return Err(ExecError::Type { node: id, message });
                }
                self.stats.flops += (da.rows() * da.cols()) as u64;
                let in_memory = |_| match e {
                    EwiseOp::Add => ops::add(da, db),
                    EwiseOp::Sub => ops::sub(da, db),
                    EwiseOp::Mul => ops::mul(da, db),
                    EwiseOp::Div => ops::div(da, db),
                };
                let out = self.run(id, &[da, db], da.cols(), in_memory, |t, deg| {
                    collect(ooc::ewise(&t[0], &t[1], f, deg)?)
                })?;
                Ok(dense_val(out))
            }
        }
    }

    /// Matrix-scalar broadcast: `f` over every element of `d`.
    fn broadcast(
        &mut self,
        id: NodeId,
        d: &Dense,
        f: impl Fn(f64) -> f64 + Sync,
    ) -> Result<Val, ExecError> {
        self.stats.flops += (d.rows() * d.cols()) as u64;
        let out = self.run(
            id,
            &[d],
            d.cols(),
            |_| d.map(&f),
            |t, deg| collect(ooc::map(&t[0], &f, deg)?),
        )?;
        Ok(dense_val(out))
    }
}

impl Drop for Executor<'_> {
    fn drop(&mut self) {
        // Honor DMML_TRACE end-to-end: when the env var named a file at
        // construction, flush the collected events there so a plain
        // `DMML_TRACE=out.json cargo run ...` needs no explicit export call.
        if self.trace_to_env {
            if let Some(Err(e)) = trace::write_env_trace() {
                eprintln!("DMML_TRACE export failed: {e}");
            }
        }
        // Honor DMML_PROFILE_DIR end-to-end: merge-save this run's kernel
        // throughput samples so the next process's calibrated cost model
        // sees them. Failures warn and degrade — profiling must never take
        // an execution down.
        if self.profile_to_env {
            if let Some(dir) = dm_obs::profile::env_profile_dir() {
                let mut store = dm_obs::profile::ProfileStore::new();
                self.record_kernel_profiles(&mut store);
                if !store.is_empty() {
                    if let Err(e) = store.save(&dir) {
                        eprintln!("DMML_PROFILE_DIR save failed: {e}");
                    }
                }
            }
        }
    }
}

/// Operand tiles in the executor's spill pool.
type Tiles = BlockStore<Box<dyn Storage>>;

/// Materialize a blocked operator's output store and drop its tiles.
fn collect(out: Tiles) -> Result<Dense, PoolError> {
    let d = out.to_dense()?;
    out.discard()?;
    Ok(d)
}

/// `sum(u(xs))` without materializing `u(xs)`: one stack block of `xs` at a
/// time is mapped by [`UnaryOp::map`] and added in order into one sum from
/// [`Iterator::sum`]'s identity, the adds of summing the mapped slice.
fn map_sum(u: UnaryOp, xs: &[f64]) -> f64 {
    let mut buf = [0.0; 256];
    let zero: f64 = std::iter::empty::<f64>().sum();
    xs.chunks(buf.len()).fold(zero, |sum, chunk| {
        let mapped = &mut buf[..chunk.len()];
        mapped.copy_from_slice(chunk);
        u.map(mapped);
        mapped.iter().fold(sum, |sum, &v| sum + v)
    })
}

/// The values of one eval, indexed by node: each from the step that
/// produces it until its last reader takes it.
struct ValueTable {
    vals: Vec<Option<Val>>,
    /// Reads still to come per node: its consumer edges in the schedule.
    reads: Vec<usize>,
    /// Nodes the plan fused into a scheduled `sum`, which computes them
    /// inside its own step; they produce nothing at theirs.
    fused: Vec<bool>,
}

impl ValueTable {
    /// An empty table for `sched`, with its read counts and fused marks.
    fn new(sched: &Schedule) -> Self {
        let reads = sched.read_counts().to_vec();
        ValueTable { vals: vec![None; reads.len()], reads, fused: sched.fused().to_vec() }
    }
}

/// The dimensions of a value; a scalar is 1 x 1.
fn dims(v: &Val) -> (usize, usize) {
    match v {
        Val::Scalar(_) => (1, 1),
        Val::Matrix(m) => (m.rows(), m.cols()),
    }
}

/// The representation a value is stored in.
fn repr(v: &Val) -> Repr {
    match v {
        Val::Scalar(_) => Repr::Scalar,
        Val::Matrix(m) if m.is_dense() => Repr::Dense,
        Val::Matrix(_) => Repr::Csr,
    }
}

/// The dense matrix a dense row reads: the row densified a CSR operand.
fn dense(m: &Matrix) -> &Dense {
    let Matrix::Dense(d) = m else { unreachable!("a dense row densifies its CSR operands") };
    d
}

/// The CSR matrix a sparse row reads as stored.
fn csr(m: &Matrix) -> &Csr {
    let Matrix::Sparse(s) = m else { unreachable!("a sparse row reads a CSR operand") };
    s
}

/// A row-pass member whose operands do not fit the `X` of its pass: a
/// binding that disagrees with the sizes the plan was made for.
fn pass_err(node: NodeId) -> ExecError {
    ExecError::Type { node, message: "row pass operands do not fit the matrix it reads".into() }
}

fn ooc_err(node: NodeId, e: PoolError) -> ExecError {
    ExecError::OutOfCore { node, message: e.to_string() }
}

/// The least (`pick` = `f64::min`) or greatest (`f64::max`) value of a CSR
/// matrix, an implicit zero included.
fn sparse_extreme(s: &Csr, pick: fn(f64, f64) -> f64) -> f64 {
    let zero = if s.nnz() < s.rows() * s.cols() { 0.0 } else { f64::NAN };
    s.iter().map(|(_, _, v)| v).fold(zero, pick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CompiledProgram;
    use crate::physical::PlanOptions;
    use crate::rewrite::optimize;
    use crate::size::InputSizes;

    /// The plan `CompiledProgram::new` builds for `root` under `opts`.
    fn planned(g: &Graph, root: NodeId, opts: &PlanOptions) -> PhysicalPlan {
        CompiledProgram::new(g.clone(), root, opts).unwrap().plan
    }

    fn x() -> Dense {
        Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])
    }

    fn env() -> Env {
        let mut e = Env::new();
        e.bind("X", Matrix::Dense(x()));
        e.bind("v", Matrix::Dense(Dense::column(&[1.0, -1.0])));
        e
    }

    #[test]
    fn basic_matmul_and_sum() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let vi = g.input("v");
        let xv = g.matmul(xi, vi);
        let s = g.agg(AggOp::Sum, xv);
        let mut ex = Executor::new(&g);
        let out = ex.eval(s, &env()).unwrap();
        // X*v = [-1, -1, -1], sum = -3
        assert_eq!(out.as_scalar().unwrap(), -3.0);
    }

    #[test]
    fn memoization_counts() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let t = g.transpose(xi);
        let a = g.matmul(t, xi);
        let b = g.matmul(t, xi); // distinct node, same structure (no CSE here)
        let s = g.ewise(EwiseOp::Add, a, b);
        let mut ex = Executor::new(&g);
        ex.eval(s, &env()).unwrap();
        let st = ex.stats();
        // Each node runs once. xi is read three times and t twice: every
        // read but a value's last shares it, a memo hit.
        assert_eq!(st.nodes_evaluated, 5, "{st:?}");
        assert_eq!(st.memo_hits, 3, "{st:?}");
    }

    #[test]
    fn ewise_and_broadcast() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let c = g.constant(10.0);
        let shifted = g.ewise(EwiseOp::Add, xi, c);
        let mx = g.agg(AggOp::Max, shifted);
        let mut ex = Executor::new(&g);
        assert_eq!(ex.eval(mx, &env()).unwrap().as_scalar().unwrap(), 16.0);
    }

    #[test]
    fn aggregates() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let cs = g.agg(AggOp::ColSums, xi);
        let rs = g.agg(AggOp::RowSums, xi);
        let mn = g.agg(AggOp::Min, xi);
        let mut ex = Executor::new(&g);
        let e = env();
        assert_eq!(ex.eval(cs, &e).unwrap().as_dense().unwrap().row(0), &[9.0, 12.0]);
        assert_eq!(ex.eval(rs, &e).unwrap().as_dense().unwrap().col_vec(0), vec![3.0, 7.0, 11.0]);
        assert_eq!(ex.eval(mn, &e).unwrap().as_scalar().unwrap(), 1.0);
    }

    #[test]
    fn optimized_graph_same_result() {
        // sum(t(X) %*% X) with and without optimization.
        let mut g = Graph::new();
        let xi = g.input("X");
        let t = g.transpose(xi);
        let mm = g.matmul(t, xi);
        let s = g.agg(AggOp::Sum, mm);
        let mut plain = Executor::new(&g);
        let expect = plain.eval(s, &env()).unwrap().as_scalar().unwrap();

        let mut sizes = InputSizes::new();
        sizes.declare("X", 3, 2, 1.0);
        let (og, root, stats) = optimize(&g, s, &sizes).unwrap();
        assert!(stats.crossprod_fused == 1);
        let mut opt = Executor::new(&og);
        let got = opt.eval(root, &env()).unwrap().as_scalar().unwrap();
        assert!((got - expect).abs() < 1e-9);
        // The fused plan does strictly fewer flops.
        assert!(
            opt.stats().flops < plain.stats().flops,
            "{:?} vs {:?}",
            opt.stats(),
            plain.stats()
        );
    }

    #[test]
    fn sparse_kernel_execution_matches_dense() {
        let sp = Dense::from_fn(50, 20, |r, c| if (r * 20 + c) % 23 == 0 { 1.5 } else { 0.0 });
        let mut g = Graph::new();
        let xi = g.input("S");
        let vi = g.input("v");
        let mm = g.matmul(xi, vi);
        let s = g.agg(AggOp::Sum, mm);

        let mut env = Env::new();
        env.bind("S", Matrix::Dense(sp.clone()));
        let v: Vec<f64> = (0..20).map(|i| i as f64 - 10.0).collect();
        env.bind("v", Matrix::Dense(Dense::column(&v)));

        let mut sizes = InputSizes::new();
        sizes.declare("S", 50, 20, 0.05);
        sizes.declare("v", 20, 1, 1.0);
        let plan = planned(&g, s, &PlanOptions::new(&sizes));
        assert_eq!(plan.kernel(xi), Kernel::Sparse);
        let mut ex = Executor::with_plan(&g, plan);
        let got = ex.eval(s, &env).unwrap().as_scalar().unwrap();

        let expect: f64 = ops::gemv(&sp, &v).iter().sum();
        assert!((got - expect).abs() < 1e-9);
    }

    #[test]
    fn sparse_crossprod_of_a_csr_input_equals_the_dense_one() {
        // Halves and their products sum exactly, so every path has the bits.
        let sp = Dense::from_fn(60, 12, |r, c| match (r * 12 + c) % 17 {
            0 => 1.5,
            5 => -0.5 * (r % 7) as f64 - 0.5,
            _ => 0.0,
        });
        let mut g = Graph::new();
        let xi = g.input("S");
        let cp = g.push(Op::CrossProd(xi));
        let mut sizes = InputSizes::new();
        sizes.declare("S", 60, 12, 0.1);
        let plan = planned(&g, cp, &PlanOptions::new(&sizes));
        assert_eq!(plan.kernel(cp), Kernel::Sparse);
        let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let run = |m: Matrix, plan: PhysicalPlan| {
            let mut env = Env::new();
            env.bind("S", m);
            let mut ex = Executor::with_plan(&g, plan);
            (bits(&ex.eval(cp, &env).unwrap().as_dense().unwrap()), ex.stats().flops)
        };
        let csr = Csr::from_dense(&sp);
        let (got, flops) = run(Matrix::Sparse(csr.clone()), plan);
        assert_eq!(flops, 2 * (csr.nnz() * 12) as u64);
        let round_trip = sparse::sp_crossprod(&Csr::from_dense(&csr.to_dense()));
        assert_eq!(got, bits(&round_trip), "the CSR operand skips only the dense round trip");
        let (dense, _) = run(Matrix::Dense(sp.clone()), PhysicalPlan::default());
        assert_eq!(got, dense, "sparse and dense crossprod agree bit for bit");
    }

    #[test]
    fn fused_ops_execute() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let cp = g.push(Op::CrossProd(xi));
        let ss = g.push(Op::SumSq(xi));
        let mut ex = Executor::new(&g);
        let e = env();
        let cpv = ex.eval(cp, &e).unwrap().as_dense().unwrap();
        assert!(cpv.approx_eq(&ops::crossprod(&x()), 1e-9));
        assert_eq!(ex.eval(ss, &e).unwrap().as_scalar().unwrap(), ops::sum_sq(&x()));
    }

    #[test]
    fn tmv_executes() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let ui = g.input("u");
        let tmv = g.push(Op::Tmv(xi, ui));
        let mut e = env();
        e.bind("u", Matrix::Dense(Dense::column(&[1.0, 0.0, 2.0])));
        let mut ex = Executor::new(&g);
        let got = ex.eval(tmv, &e).unwrap().as_dense().unwrap();
        assert_eq!(got.col_vec(0), vec![11.0, 14.0]);
    }

    #[test]
    fn errors() {
        let mut g = Graph::new();
        let a = g.input("missing");
        let mut ex = Executor::new(&g);
        assert_eq!(ex.eval(a, &Env::new()), Err(ExecError::UnboundInput("missing".into())));

        let mut g = Graph::new();
        let xi = g.input("X");
        let bad = g.matmul(xi, xi);
        let mut ex = Executor::new(&g);
        assert!(matches!(ex.eval(bad, &env()), Err(ExecError::Type { .. })));
    }

    #[test]
    fn a_counted_input_profiles_at_its_count() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let t = g.transpose(xi);
        let eye = || Matrix::Dense(Dense::from_fn(10, 10, |r, c| if r == c { 1.0 } else { 0.0 }));
        let mut env = Env::new();
        env.bind_counted("X", eye(), 10);
        let mut ex = Executor::new(&g).profiled();
        ex.eval(t, &env).unwrap();
        assert_eq!(ex.profile().unwrap().node(xi).unwrap().out_sparsity, 0.1);
        // `bind` over a counted name drops the count: the new matrix is
        // scanned, not reported at the old one's.
        env.bind("X", Matrix::Dense(Dense::from_fn(10, 10, |_, _| 1.0)));
        let mut ex = Executor::new(&g).profiled();
        ex.eval(t, &env).unwrap();
        assert_eq!(ex.profile().unwrap().node(xi).unwrap().out_sparsity, 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "wrong count")]
    fn a_wrong_count_is_caught_in_debug_builds() {
        Env::new().bind_counted("X", Matrix::Dense(x()), 5);
    }

    #[test]
    fn profiled_executor_collects_node_stats() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let t = g.transpose(xi);
        let mm = g.matmul(t, xi);
        let s = g.agg(AggOp::Sum, mm);
        let mut ex = Executor::new(&g).profiled();
        ex.eval(s, &env()).unwrap();
        let p = ex.profile().unwrap();
        let root = p.node(s).unwrap();
        assert_eq!(root.evals, 1);
        assert_eq!((root.out_rows, root.out_cols), (1, 1));
        let mm_stats = p.node(mm).unwrap();
        assert_eq!((mm_stats.out_rows, mm_stats.out_cols), (2, 2));
        assert_eq!(mm_stats.kernel, Some(KernelChoice::Dense));
        assert!((mm_stats.out_sparsity - 1.0).abs() < 1e-12);
        assert!(p.total_self_ns() > 0);
    }

    #[test]
    fn profiled_executor_counts_memo_hits_per_node() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let t = g.transpose(xi);
        let a = g.matmul(t, xi);
        let b = g.ewise(EwiseOp::Add, a, a);
        let mut ex = Executor::new(&g).profiled();
        ex.eval(b, &env()).unwrap();
        let p = ex.profile().unwrap();
        assert_eq!(p.node(a).unwrap().evals, 1);
        assert_eq!(p.node(a).unwrap().memo_hits, 1);
        // Hits are reads within one eval: a second eval runs `a` again and
        // shares it once more.
        ex.eval(b, &env()).unwrap();
        let p = ex.profile().unwrap();
        assert_eq!(p.node(a).unwrap().evals, 2);
        assert_eq!(p.node(a).unwrap().memo_hits, 2);
    }

    #[test]
    fn profiled_fused_and_sparse_kernels_classified() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let cp = g.push(Op::CrossProd(xi));
        let mut ex = Executor::new(&g).profiled();
        ex.eval(cp, &env()).unwrap();
        assert_eq!(ex.profile().unwrap().node(cp).unwrap().kernel, Some(KernelChoice::Fused));

        let sp = Dense::from_fn(50, 20, |r, c| if (r * 20 + c) % 23 == 0 { 1.5 } else { 0.0 });
        let mut g = Graph::new();
        let si = g.input("S");
        let tr = g.transpose(si);
        let mut sizes = InputSizes::new();
        sizes.declare("S", 50, 20, 0.05);
        let plan = planned(&g, tr, &PlanOptions::new(&sizes));
        let mut env = Env::new();
        env.bind("S", Matrix::Dense(sp));
        let mut ex = Executor::with_plan(&g, plan).profiled();
        ex.eval(tr, &env).unwrap();
        assert_eq!(ex.profile().unwrap().node(tr).unwrap().kernel, Some(KernelChoice::Sparse));
    }

    #[test]
    fn record_stats_forwards_to_registry() {
        let mut g = Graph::new();
        let xi = g.input("X");
        let s = g.agg(AggOp::Sum, xi);
        let mut ex = Executor::new(&g).profiled();
        ex.eval(s, &env()).unwrap();
        let reg = StatsRegistry::new();
        ex.record_stats(&reg);
        let rep = reg.report();
        assert_eq!(rep.counter("lang.exec.nodes_evaluated"), Some(2));
        assert_eq!(rep.histogram("lang.exec.eval_wall").unwrap().count, 1);
    }

    #[test]
    fn parallel_plan_execution_bit_identical_to_serial() {
        // 400x300 crossprod (7.2e7 flops) and X*B (400x300 * 300x400,
        // 9.6e7 flops) both clear the parallel threshold.
        let x = Dense::from_fn(400, 300, |r, c| ((r * 13 + c * 7) % 17) as f64 * 0.3 - 1.0);
        let b = Dense::from_fn(300, 400, |r, c| ((r + c * 3) % 11) as f64 * 0.5 - 2.0);
        let mut g = Graph::new();
        let xi = g.input("X");
        let bi = g.input("B");
        let mm = g.matmul(xi, bi);
        let cp = g.push(Op::CrossProd(xi));
        let ss = g.push(Op::SumSq(xi));
        let cs = g.agg(AggOp::ColSums, xi);
        let all = {
            let mmsum = g.agg(AggOp::Sum, mm);
            let cssum = g.agg(AggOp::Sum, cs);
            let cpsum = g.agg(AggOp::Sum, cp);
            let a = g.ewise(EwiseOp::Add, mmsum, cssum);
            let b2 = g.ewise(EwiseOp::Add, cpsum, ss);
            g.ewise(EwiseOp::Add, a, b2)
        };
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(x));
        env.bind("B", Matrix::Dense(b));
        let mut sizes = InputSizes::new();
        sizes.declare("X", 400, 300, 1.0);
        sizes.declare("B", 300, 400, 1.0);

        let mut serial = Executor::new(&g);
        let expect = serial.eval(all, &env).unwrap();
        let plan = planned(&g, all, &PlanOptions { degree: 4, ..PlanOptions::new(&sizes) });
        assert_eq!(plan.kernel(mm), Kernel::Parallel);
        assert_eq!(plan.kernel(cp), Kernel::Parallel);
        let mut par_ex = Executor::with_plan(&g, plan);
        assert_eq!(par_ex.degree(), 4);
        let got = par_ex.eval(all, &env).unwrap();
        // Parallel kernels are bit-identical to serial, so Val equality is exact.
        assert_eq!(got, expect);
        assert!(par_ex.stats().par_nodes >= 2, "{:?}", par_ex.stats());
        assert_eq!(serial.stats().par_nodes, 0);
    }

    #[test]
    fn parallel_dispatch_recorded_in_stats_and_profile() {
        let x = Dense::from_fn(400, 300, |r, c| ((r + c) % 5) as f64);
        let mut g = Graph::new();
        let xi = g.input("X");
        let cp = g.push(Op::CrossProd(xi));
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(x));
        let mut sizes = InputSizes::new();
        sizes.declare("X", 400, 300, 1.0);
        let plan = planned(&g, cp, &PlanOptions { degree: 2, ..PlanOptions::new(&sizes) });
        let mut ex = Executor::with_plan(&g, plan).profiled();
        ex.eval(cp, &env).unwrap();
        assert_eq!(ex.profile().unwrap().node(cp).unwrap().kernel, Some(KernelChoice::Parallel));
        let reg = StatsRegistry::new();
        ex.record_stats(&reg);
        let rep = reg.report();
        assert_eq!(rep.counter("lang.exec.par_nodes"), Some(1));
        assert_eq!(rep.gauge("lang.exec.par_degree").map(|(cur, _)| cur), Some(2));
        assert!(rep.histogram("lang.exec.kernel.parallel").is_some());
    }

    #[test]
    fn a_fused_node_evaluated_as_a_sub_root_yields_its_value() {
        // sum(exp(X %*% W)): the plan fuses exp and the product into the sum.
        let mut g = Graph::new();
        let (xi, wi) = (g.input("X"), g.input("W"));
        let xw = g.matmul(xi, wi);
        let e = g.unary(UnaryOp::Exp, xw);
        let s = g.agg(AggOp::Sum, e);
        let mut sizes = InputSizes::new();
        sizes.declare("X", 3, 2, 1.0);
        sizes.declare("W", 2, 2, 1.0);
        let plan = planned(&g, s, &PlanOptions::new(&sizes));
        assert_eq!((plan.fused_into(e), plan.fused_into(xw)), (Some(s), Some(s)));
        let w = Dense::from_rows(&[&[0.5, -1.0], &[0.25, 0.0]]);
        let mut env = env();
        env.bind("W", Matrix::Dense(w.clone()));
        let want = ops::gemm(&x(), &w).map(dm_matrix::kernel::exp);

        // A fused node as the root has no `sum` to run it: it runs itself.
        let mut ex = Executor::with_plan(&g, plan).profiled();
        assert_eq!(ex.eval(e, &env).unwrap().as_dense().unwrap().data(), want.data());
        assert_eq!(ex.profile().unwrap().node(xw).unwrap().kernel, Some(KernelChoice::Dense));
        // The plan's root still fuses both into the sum's step.
        let before = ex.profile().unwrap().node(xw).unwrap().evals;
        let got = ex.eval(s, &env).unwrap().as_scalar().unwrap();
        assert_eq!(got.to_bits(), ops::sum(&want).to_bits());
        let p = ex.profile().unwrap();
        assert_eq!(p.node(xw).unwrap().evals, before, "the product has no step of its own");
        assert_eq!(p.node(e).unwrap().evals, 1, "nor has exp");
        assert_eq!(p.node(s).unwrap().kernel, Some(KernelChoice::Fused));
    }

    #[test]
    fn sparse_min_max_account_for_implicit_zeros() {
        let d = Dense::from_rows(&[&[0.0, 5.0], &[0.0, 0.0]]);
        let m = Csr::from_dense(&d);
        assert_eq!(sparse_extreme(&m, f64::min), 0.0);
        assert_eq!(sparse_extreme(&m, f64::max), 5.0);
        let neg = Dense::from_rows(&[&[0.0, -5.0], &[0.0, 0.0]]);
        let m = Csr::from_dense(&neg);
        assert_eq!(sparse_extreme(&m, f64::min), -5.0);
        assert_eq!(sparse_extreme(&m, f64::max), 0.0);
    }
}

//! Plan caching: compile a DMML program once, reuse the physical plan for
//! every later request that looks the same.
//!
//! A scoring server sees the same handful of programs millions of times
//! with inputs that differ only in content, not meaningfully in shape.
//! Re-running the whole compile pipeline (parse → rewrite → size
//! propagation → physical selection → certification) per request would
//! dwarf the actual kernel time for small scoring calls, so the pipeline
//! output is cached under a [`PlanKey`]:
//!
//! * **program hash** — a structural FNV-1a hash of the expression DAG
//!   ([`program_hash`]), so textual differences that parse to the same DAG
//!   share an entry;
//! * **per-input size class** — each declared input contributes its name
//!   plus the ceil-log2 class of its rows and cols ([`size_class`]).
//!   Plans are shape-driven (dense/sparse/parallel/blocked thresholds), so
//!   inputs in the same power-of-two class get the same plan, while a
//!   size-class change misses the cache and re-plans instead of serving a
//!   stale kernel selection;
//! * **per-input sparsity bucket** — sparsity in tenths
//!   ([`sparsity_bucket`]), because the dense/sparse crossover is the other
//!   axis physical selection moves on.
//!
//! A cache hit returns the [`CompiledProgram`] — optimized graph, physical
//! plan, memory certificate and prices — and execution proceeds exactly as
//! if the program had just been compiled: the executor is a fresh
//! [`Executor::with_plan`](crate::exec::Executor::with_plan) either way, so
//! hit and miss executions are bit-identical by construction (pinned by the
//! `plan_cache` proptests).
//!
//! [`PlanCache`] is a plain LRU over these keys with hit/miss/eviction
//! counters; wrap it in a mutex to share it across server workers.

use crate::cost::{node_costs, CostModel, NodeCost};
use crate::expr::{Graph, NodeId, Op};
use crate::liveness::PlanCertificate;
use crate::memory::MemoryBudget;
use crate::parser::{self, ParseError};
use crate::physical::{plan, Kernel, PhysicalPlan, PlanOptions};
use crate::rewrite::{optimize, RewriteStats};
use crate::size::{propagate, InputSizes, SizeError, SizeInfo};
use dm_obs::fnv::Fnv1a;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Structural hash of the DAG reachable from `root`: node ids are remapped
/// to their position in topological order, so two graphs with the same
/// structure hash identically regardless of how their arenas were built
/// (e.g. a graph with unreachable leftovers from rewriting hashes the same
/// as a fresh parse of the final program).
pub fn program_hash(graph: &Graph, root: NodeId) -> u64 {
    let order = graph.reachable(root);
    let pos: HashMap<NodeId, u64> =
        order.iter().enumerate().map(|(i, &id)| (id, i as u64)).collect();
    let mut h = Fnv1a::default();
    for &id in &order {
        let op = graph.op(id);
        // One tag byte per op variant, then the variant's payload.
        let (tag, payload): (u8, u64) = match op {
            Op::Input(_) => (0, 0),
            Op::Const(v) => (1, v.to_bits()),
            Op::MatMul(..) => (2, 0),
            Op::Transpose(_) => (3, 0),
            Op::Ewise(e, _, _) => (4, *e as u64),
            Op::Unary(u, _) => (5, *u as u64),
            Op::Agg(a, _) => (6, *a as u64),
            Op::CrossProd(_) => (7, 0),
            Op::Tmv(..) => (8, 0),
            Op::SumSq(_) => (9, 0),
        };
        h.write(&[tag]);
        h.write_u64(payload);
        if let Op::Input(name) = op {
            h.write(name.as_bytes());
            h.write(&[0xff]); // terminator so "ab"+"c" != "a"+"bc"
        }
        for c in op.children() {
            h.write_u64(pos[&c]);
        }
    }
    h.finish()
}

/// Ceil-log2 size class of a dimension: 0 and 1 map to class 0, then each
/// power-of-two range gets its own class (`2` → 1, `3..=4` → 2,
/// `5..=8` → 3, ...). Matches the bucketing spirit of
/// [`dm_obs::profile::size_class`] so plan reuse and throughput profiles
/// coarsen the same way.
pub fn size_class(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Sparsity bucketed into tenths: `0.0..0.1` → 0, ..., `>= 1.0` → 10.
/// Coarse on purpose — physical selection only cares which side of the
/// dense/sparse crossover (~0.2) an input falls on, so finer buckets would
/// just fragment the cache.
pub fn sparsity_bucket(sparsity: f64) -> u8 {
    (sparsity.clamp(0.0, 1.0) * 10.0).floor().min(10.0) as u8
}

/// One input's contribution to a [`PlanKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputClass {
    /// Input name as bound in the program.
    pub name: String,
    /// [`size_class`] of the row count.
    pub rows_class: u32,
    /// [`size_class`] of the column count.
    pub cols_class: u32,
    /// [`sparsity_bucket`] of the measured non-zero fraction.
    pub sparsity: u8,
}

impl InputClass {
    /// Classify one named input.
    pub fn new(name: &str, rows: usize, cols: usize, sparsity: f64) -> Self {
        InputClass {
            name: name.to_owned(),
            rows_class: size_class(rows),
            cols_class: size_class(cols),
            sparsity: sparsity_bucket(sparsity),
        }
    }
}

/// The plan-cache key: (program hash, per-input size classes, per-input
/// sparsity buckets). See the [module docs](self) for why each axis is
/// part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    program: u64,
    inputs: Vec<InputClass>,
}

impl PlanKey {
    /// Build a key from a program hash and the request's input classes
    /// (sorted internally, so caller order does not matter).
    pub fn new(program: u64, mut inputs: Vec<InputClass>) -> Self {
        inputs.sort();
        PlanKey { program, inputs }
    }

    /// The structural program hash component.
    pub fn program(&self) -> u64 {
        self.program
    }

    /// The classified inputs, sorted by name.
    pub fn inputs(&self) -> &[InputClass] {
        &self.inputs
    }
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.program)?;
        for i in &self.inputs {
            write!(f, "/{}:r{}c{}s{}", i.name, i.rows_class, i.cols_class, i.sparsity)?;
        }
        Ok(())
    }
}

/// One planned program: the plan, its certificate and its prices, built once
/// by [`CompiledProgram::new`] and read by everything that describes the plan
/// ([`explain`](crate::explain::explain),
/// [`profile_report`](crate::explain::profile_report),
/// [`analyze_plan`](crate::analyze::analyze_plan)) and by the server that
/// runs it with [`Executor::with_plan`](crate::exec::Executor::with_plan).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The optimized expression DAG.
    pub graph: Graph,
    /// Root node of the optimized DAG.
    pub root: NodeId,
    /// Propagated shape and sparsity estimate of each reachable node.
    pub sizes: HashMap<NodeId, SizeInfo>,
    /// Physical kernel selection for the optimized DAG.
    pub plan: PhysicalPlan,
    /// What the rewriter did (fusion, CSE, chain reordering).
    pub rewrites: RewriteStats,
    /// Peak-memory certificate over the plan's schedule under the budget it
    /// was planned with: the one the planner fitted the plan to.
    pub certificate: PlanCertificate,
    /// Number of nodes planned as [`Kernel::Blocked`] — over-budget work
    /// that will stream through the spill pool instead of OOMing.
    pub blocked_nodes: usize,
    /// Per-node prices under the plan, when it was planned with a cost
    /// model ([`PlanOptions::cost`]).
    pub costs: Option<HashMap<NodeId, NodeCost>>,
    /// Cost-model estimate of executing this plan, in nanoseconds: the sum
    /// of [`costs`](Self::costs) (0 when unpriced). The serving layer
    /// compares this against observed execute time to detect cost-model
    /// drift per plan-cache entry.
    pub est_cost_ns: u64,
    /// [`kernel_summary`](Self::kernel_summary), made with the plan: the
    /// server records it on every request that runs this plan.
    summary: String,
}

impl CompiledProgram {
    /// Plan `graph` from `root` under `opts` and keep what that decided:
    /// the declared sizes propagate once, the planner picks the kernels by
    /// the pipeline [`PlanOptions`] describes and certifies the plan under
    /// `opts.budget`, and with a cost model the plan is priced node by node.
    /// The planner's one entry point; fails only when the declared input
    /// sizes do not propagate. `rewrites` is left empty for [`compile`] to
    /// fill.
    pub fn new(graph: Graph, root: NodeId, opts: &PlanOptions) -> Result<Self, SizeError> {
        let sizes = propagate(&graph, root, opts.sizes)?;
        let (plan, certificate) = plan(&graph, root, &sizes, opts);
        let costs = opts.cost.map(|model| node_costs(&graph, root, &sizes, &plan, model));
        let est_ns: u128 = costs
            .iter()
            .flat_map(|c| c.values())
            .map(|c| c.calibrated_ns.unwrap_or(c.static_ns))
            .sum();
        Ok(CompiledProgram {
            summary: kernel_summary(&graph, root, &plan),
            blocked_nodes: plan.nodes_with(Kernel::Blocked).len(),
            est_cost_ns: u64::try_from(est_ns).unwrap_or(u64::MAX),
            graph,
            root,
            sizes,
            plan,
            rewrites: RewriteStats::default(),
            certificate,
            costs,
        })
    }

    /// Certified peak resident bytes of executing this plan. Admission
    /// control charges this against the shared budget.
    pub fn certified_peak(&self) -> Option<usize> {
        Some(self.certificate.peak_bytes)
    }

    /// Compact `op/kernel` summary of the plan's compute nodes (inputs and
    /// scalar constants omitted), most frequent first, e.g.
    /// `"matmul/parallel sum/dense x2"`. This is what the flight recorder
    /// shows per request, so an operator can tell at a glance which kernels
    /// a slow request ran without dumping the whole plan.
    pub fn kernel_summary(&self) -> String {
        self.summary.clone()
    }
}

fn kernel_summary(graph: &Graph, root: NodeId, plan: &PhysicalPlan) -> String {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for id in graph.reachable(root) {
        if matches!(graph.op(id), Op::Input(_) | Op::Const(_)) {
            continue;
        }
        let label = format!("{}/{}", crate::explain::op_label(graph, id), plan.kernel(id));
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1,
            None => counts.push((label, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    counts
        .iter()
        .map(|(l, n)| if *n > 1 { format!("{l} x{n}") } else { l.clone() })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Compilation errors: the parse and size-propagation failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The program text did not parse.
    Parse(ParseError),
    /// Sizes failed to propagate (undeclared input, incompatible shapes).
    Size(SizeError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Size(e) => write!(f, "size error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<SizeError> for CompileError {
    fn from(e: SizeError) -> Self {
        CompileError::Size(e)
    }
}

/// The full compile pipeline, once: parse, then [`compile_graph`]. This is
/// the expensive path a [`PlanCache`] hit skips entirely.
pub fn compile(
    src: &str,
    inputs: &InputSizes,
    degree: usize,
    budget: MemoryBudget,
    model: &CostModel,
) -> Result<CompiledProgram, CompileError> {
    let (raw, raw_root) = parser::parse(src)?;
    compile_graph(&raw, raw_root, inputs, degree, budget, model).map_err(CompileError::Size)
}

/// [`compile`] of an already-parsed program: logical rewrites →
/// [`CompiledProgram::new`] (size propagation, physical selection —
/// calibrated serial/parallel crossover plus certify-and-block memory
/// fitting — and pricing). A server that parsed the text for its
/// [`PlanKey`] compiles a miss from that parse.
pub fn compile_graph(
    raw: &Graph,
    raw_root: NodeId,
    inputs: &InputSizes,
    degree: usize,
    budget: MemoryBudget,
    model: &CostModel,
) -> Result<CompiledProgram, SizeError> {
    let (graph, root, rewrites) = optimize(raw, raw_root, inputs)?;
    let opts = PlanOptions { degree, budget, cost: Some(model), ..PlanOptions::new(inputs) };
    Ok(CompiledProgram { rewrites, ..CompiledProgram::new(graph, root, &opts)? })
}

#[derive(Debug)]
struct Entry {
    prog: Arc<CompiledProgram>,
    last_used: u64,
}

/// An LRU cache of [`CompiledProgram`]s keyed by [`PlanKey`].
///
/// Plain single-threaded state with internal hit/miss/eviction counters;
/// share it across threads behind a `Mutex` (the critical section is a map
/// probe — compilation itself should happen outside the lock).
#[derive(Debug)]
pub struct PlanCache {
    map: HashMap<PlanKey, Entry>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Probe the cache, refreshing the entry's recency on a hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<CompiledProgram>> {
        self.clock += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.last_used = self.clock;
                self.hits += 1;
                Some(Arc::clone(&e.prog))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a compiled program, evicting the least-recently-used entry
    /// when over capacity. Re-inserting an existing key replaces the entry.
    pub fn insert(&mut self, key: PlanKey, prog: Arc<CompiledProgram>) {
        self.clock += 1;
        self.map.insert(key, Entry { prog, last_used: self.clock });
        while self.map.len() > self.capacity {
            // O(n) victim scan: capacities are small (tens of plans) and
            // eviction only runs on insert, which already paid for a full
            // compile.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over capacity");
            self.map.remove(&victim);
            self.evictions += 1;
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Probes that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probes that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to stay under capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggOp;

    fn model() -> CostModel {
        CostModel::new(dm_obs::ProfileStore::new())
    }

    fn sizes() -> InputSizes {
        let mut s = InputSizes::new();
        s.declare("X", 64, 8, 1.0);
        s.declare("v", 8, 1, 1.0);
        s
    }

    #[test]
    fn program_hash_is_structural() {
        // Same program, different arena layouts (orphan nodes) hash alike.
        let mut a = Graph::new();
        let x = a.input("X");
        let ra = a.agg(AggOp::Sum, x);

        let mut b = Graph::new();
        let _orphan = b.input("junk");
        let x = b.input("X");
        let rb = b.agg(AggOp::Sum, x);

        assert_eq!(program_hash(&a, ra), program_hash(&b, rb));

        // Different input name, aggregate, or structure changes the hash.
        let mut c = Graph::new();
        let y = c.input("Y");
        let rc = c.agg(AggOp::Sum, y);
        assert_ne!(program_hash(&a, ra), program_hash(&c, rc));

        let mut d = Graph::new();
        let x = d.input("X");
        let rd = d.agg(AggOp::Max, x);
        assert_ne!(program_hash(&a, ra), program_hash(&d, rd));
    }

    #[test]
    fn parse_equivalent_texts_share_a_hash() {
        let (g1, r1) = parser::parse("sum(X %*% v)").unwrap();
        let (g2, r2) = parser::parse("sum( X %*% v )").unwrap();
        assert_eq!(program_hash(&g1, r1), program_hash(&g2, r2));
        let (g3, r3) = parser::parse("sum(v %*% X)").unwrap();
        assert_ne!(program_hash(&g1, r1), program_hash(&g3, r3));
    }

    #[test]
    fn program_hash_is_pinned() {
        // Plan keys hash with the shared FNV-1a; moving the value would turn
        // every warm cache cold on upgrade.
        let (g, r) = parser::parse("sum(t(X) %*% (X %*% v)) + 2").unwrap();
        assert_eq!(program_hash(&g, r), 0xadb5_7c26_f81f_892c);
    }

    #[test]
    fn size_classes_are_ceil_log2() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 2);
        assert_eq!(size_class(4), 2);
        assert_eq!(size_class(5), 3);
        assert_eq!(size_class(1024), 10);
        assert_eq!(size_class(1025), 11);
    }

    #[test]
    fn sparsity_buckets_are_tenths() {
        assert_eq!(sparsity_bucket(0.0), 0);
        assert_eq!(sparsity_bucket(0.09), 0);
        assert_eq!(sparsity_bucket(0.1), 1);
        assert_eq!(sparsity_bucket(0.55), 5);
        assert_eq!(sparsity_bucket(1.0), 10);
        assert_eq!(sparsity_bucket(7.0), 10);
        assert_eq!(sparsity_bucket(-1.0), 0);
    }

    #[test]
    fn plan_key_is_order_insensitive() {
        let a = PlanKey::new(
            7,
            vec![InputClass::new("X", 64, 8, 1.0), InputClass::new("v", 8, 1, 1.0)],
        );
        let b = PlanKey::new(
            7,
            vec![InputClass::new("v", 8, 1, 1.0), InputClass::new("X", 64, 8, 1.0)],
        );
        assert_eq!(a, b);
        let c = PlanKey::new(
            7,
            vec![InputClass::new("X", 200, 8, 1.0), InputClass::new("v", 8, 1, 1.0)],
        );
        assert_ne!(a, c, "size-class change must be a different key");
    }

    #[test]
    fn compile_produces_certificate_and_plan() {
        let model = model();
        let p = compile("sum(t(X) %*% X)", &sizes(), 1, MemoryBudget::unbounded(), &model)
            .expect("compiles");
        assert!(p.rewrites.crossprod_fused >= 1, "{:?}", p.rewrites);
        assert_eq!(p.blocked_nodes, 0);
        assert!(p.certified_peak().unwrap() > 0);
        assert!(p.est_cost_ns > 0, "calibrated estimate priced at compile time");
        // An empty model prices every node at the static rate.
        let est = crate::rewrite::estimated_cost(&p.graph, p.root, &sizes()).unwrap();
        assert_eq!(u128::from(p.est_cost_ns), crate::cost::static_ns(est));
        let summary = p.kernel_summary();
        assert!(summary.contains("crossprod/"), "{summary}");
        assert!(!summary.contains("input"), "{summary}");
    }

    #[test]
    fn compile_reports_errors() {
        let model = model();
        assert!(matches!(
            compile("sum(", &sizes(), 1, MemoryBudget::unbounded(), &model),
            Err(CompileError::Parse(_))
        ));
        assert!(matches!(
            compile("sum(Unknown)", &sizes(), 1, MemoryBudget::unbounded(), &model),
            Err(CompileError::Size(_))
        ));
    }

    #[test]
    fn programs_at_the_parser_limits_compile_and_run_on_a_small_stack() {
        // The deepest DAGs the parser admits are left-leaning chains of
        // MAX_NODES nodes; a matmul chain also costs the reordering DP the
        // most, and MAX_DEPTH nested calls the parser's own recursion. Each
        // compiles (unbounded, and under a budget that blocks every node it
        // can) and evaluates on a thread with a server worker's 2 MiB stack.
        use crate::exec::{Env, Executor};
        use crate::parser::{MAX_DEPTH, MAX_NODES};
        use dm_matrix::{Dense, Matrix};
        let terms = MAX_NODES / 2; // n terms make 2n - 1 nodes
        let programs = [
            vec!["X"; terms].join(" + "),
            vec!["X"; terms].join(" %*% "),
            format!("sum({})", vec!["exp(X)"; terms / 2].join(" * ")),
            format!("{}X{}", "abs(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH)),
        ];
        let run = move || {
            let mut sizes = InputSizes::new();
            sizes.declare("X", 2, 2, 1.0);
            let mut env = Env::new();
            env.bind("X", Matrix::Dense(Dense::from_fn(2, 2, |r, c| (r + c) as f64 * 0.1)));
            for src in &programs {
                assert!(parser::parse(src).unwrap().0.len() <= MAX_NODES);
                for budget in [MemoryBudget::unbounded(), MemoryBudget::bytes(64)] {
                    let t0 = std::time::Instant::now();
                    let p = compile(src, &sizes, 2, budget, &model()).expect("compiles");
                    let mut ex =
                        Executor::with_plan(&p.graph, p.plan.clone()).with_memory_budget(budget);
                    ex.eval(p.root, &env).expect("evaluates");
                    let took = t0.elapsed();
                    assert!(took.as_secs_f64() < 1.0, "{took:?} for {budget:?}: {src:.40}");
                }
            }
        };
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(run).unwrap();
        worker.join().expect("no stack overflow, no panic");
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let model = model();
        let prog =
            Arc::new(compile("sum(X)", &sizes(), 1, MemoryBudget::unbounded(), &model).unwrap());
        let key = |i: usize| PlanKey::new(i as u64, vec![InputClass::new("X", 64, 8, 1.0)]);
        let mut cache = PlanCache::new(2);
        cache.insert(key(1), Arc::clone(&prog));
        cache.insert(key(2), Arc::clone(&prog));
        assert!(cache.get(&key(1)).is_some()); // refresh 1; 2 is now coldest
        cache.insert(key(3), Arc::clone(&prog));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&key(2)).is_none(), "coldest entry evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let c = PlanCache::new(0);
        assert_eq!(c.capacity(), 1);
    }
}

//! The calibrated cost model: the re-cost half of the
//! observe→calibrate→re-cost loop.
//!
//! [`estimated_cost`](crate::rewrite::estimated_cost) prices a plan in flops
//! under an implicit "every flop costs the same" assumption. Real kernels
//! disagree by orders of magnitude — a fused crossprod streams at memory
//! bandwidth while a sparse gather stalls on indices — and the gap is
//! machine-specific. A [`CostModel`] wraps a persisted
//! [`ProfileStore`] of observed per-(op,
//! kernel family, size-class) throughputs and converts per-node flop
//! estimates into *nanoseconds*, dividing by the measured GFLOP/s where
//! enough samples exist and falling back to the static
//! [`STATIC_GFLOPS`] assumption where they don't. The calibrated figures
//! feed the planner (as
//! [`PlanOptions::cost`](crate::physical::PlanOptions::cost): a measured
//! serial-vs-parallel crossover replacing the fixed
//! [`PAR_FLOP_THRESHOLD`](crate::physical::PAR_FLOP_THRESHOLD)). Pricing has
//! one owner: [`CompiledProgram::new`](crate::cache::CompiledProgram::new)
//! prices each node of the plan it built once, and the cost table of
//! [`explain`](crate::explain::explain), the analyzer's H204 staleness hint
//! and the server's drift counter all read those prices and the one
//! [`drifted`] predicate.
//!
//! Closing the loop end to end:
//!
//! ```
//! use dm_lang::{cost::CostModel, exec::{Env, Executor}, parser};
//! use dm_lang::{CompiledProgram, PlanOptions};
//! use dm_lang::size::InputSizes;
//! use dm_matrix::{Dense, Matrix};
//!
//! let (g, root) = parser::parse("sum(t(X) %*% X)").unwrap();
//! let mut sizes = InputSizes::new();
//! sizes.declare("X", 64, 8, 1.0);
//! let mut env = Env::new();
//! env.bind("X", Matrix::Dense(Dense::from_fn(64, 8, |r, c| (r + c) as f64)));
//!
//! // Observe: a profiled run yields throughput samples.
//! let mut store = dm_obs::ProfileStore::new();
//! for _ in 0..3 {
//!     let mut ex = Executor::new(&g).profiled();
//!     ex.eval(root, &env).unwrap();
//!     ex.record_kernel_profiles(&mut store);
//! }
//!
//! // Calibrate + re-cost: the model turns flops into observed nanoseconds.
//! let model = CostModel::new(store);
//! let opts = PlanOptions { cost: Some(&model), ..PlanOptions::new(&sizes) };
//! let prog = CompiledProgram::new(g, root, &opts).unwrap();
//! assert!(prog.est_cost_ns > 0);
//! ```

use crate::exec::KernelChoice;
use crate::expr::{AggOp, Graph, NodeId, Op};
use crate::physical::{node_flops, Kernel, PhysicalPlan};
use crate::size::SizeInfo;
use dm_obs::profile::{ProfileError, ProfileStore};
use std::collections::HashMap;
use std::path::Path;

/// The static throughput assumption, in GFLOP/s: with `ns = flops / 1.0`,
/// the static cost in nanoseconds is numerically the flop count — the same
/// ~1 Gflop/s-per-core rationale behind
/// [`PAR_FLOP_THRESHOLD`](crate::physical::PAR_FLOP_THRESHOLD).
pub const STATIC_GFLOPS: f64 = 1.0;

/// Disagreement between a price and what it is checked against beyond which
/// [`drifted`] reports drift: more than 4x off, in either direction.
pub const DRIFT_FACTOR: f64 = 4.0;

/// True when `observed_ns` is more than [`DRIFT_FACTOR`] off `est_ns` in
/// either direction; an unknown (zero) figure never drifts. The one drift
/// test: a calibrated node price against its static one (H204, the
/// `<- drift` marks) and a request's execute time against its plan's
/// estimate (`serve.cost_model.drift`).
pub fn drifted(est_ns: u128, observed_ns: u128) -> bool {
    if est_ns == 0 || observed_ns == 0 {
        return false;
    }
    let ratio = observed_ns as f64 / est_ns as f64;
    !(1.0 / DRIFT_FACTOR..=DRIFT_FACTOR).contains(&ratio)
}

/// A loaded throughput profile, ready to price plans in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    store: ProfileStore,
}

/// Per-node cost breakdown: the flop estimate and its static and calibrated
/// nanosecond prices. Produced by [`node_costs`] for
/// [`CompiledProgram::costs`](crate::cache::CompiledProgram::costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCost {
    /// Estimated flops ([`node_flops`]).
    pub flops: u128,
    /// Static price in ns (flops at [`STATIC_GFLOPS`]).
    pub static_ns: u128,
    /// Calibrated price in ns (flops at the observed GFLOP/s), when the
    /// profile holds enough samples for this node's (op, kernel family,
    /// size class).
    pub calibrated_ns: Option<u128>,
    /// Kernel family the node prices under (see [`node_family`]).
    pub family: &'static str,
    /// The calibrated price [`drifted`] off the static one: the static
    /// model is stale for this kernel on this machine (H204).
    pub drifted: bool,
}

impl CostModel {
    /// Wrap an in-memory store (e.g. freshly recorded via
    /// [`Executor::record_kernel_profiles`](crate::exec::Executor::record_kernel_profiles)).
    pub fn new(store: ProfileStore) -> Self {
        CostModel { store }
    }

    /// Load the profile persisted under `dir` (see
    /// [`ProfileStore::load`]). A missing file yields an empty — but valid —
    /// model; corruption errors propagate for the caller to degrade from.
    pub fn load(dir: &Path) -> Result<Self, ProfileError> {
        ProfileStore::load(dir).map(CostModel::new)
    }

    /// Load from the directory named by `DMML_PROFILE_DIR`. `None` when the
    /// variable is unset or the store is unreadable — corruption warns on
    /// stderr and degrades to the static model rather than failing the run.
    pub fn from_env() -> Option<Self> {
        let dir = dm_obs::profile::env_profile_dir()?;
        match Self::load(&dir) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!(
                    "{}: unusable kernel profile ({e}); falling back to the static cost model",
                    dm_obs::profile::PROFILE_DIR_ENV
                );
                None
            }
        }
    }

    /// The underlying profile store.
    pub fn store(&self) -> &ProfileStore {
        &self.store
    }

    /// True when no samples are loaded (every price falls back to static).
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Calibrated price in ns of `flops` flops of `op` on `family`, or
    /// `None` below the sample threshold. Flop counts beyond `u64` saturate
    /// into the top size class.
    pub fn calibrated_ns(&self, op: &str, family: &str, flops: u128) -> Option<u128> {
        if flops == 0 {
            return None;
        }
        let f64_flops = flops as f64;
        let g = self.store.gflops(op, family, u64::try_from(flops).unwrap_or(u64::MAX))?;
        if g <= 0.0 {
            return None;
        }
        Some((f64_flops / g).ceil() as u128)
    }
}

/// Static price of `flops` flops in ns: the flop count divided by
/// [`STATIC_GFLOPS`].
pub fn static_ns(flops: u128) -> u128 {
    (flops as f64 / STATIC_GFLOPS).ceil() as u128
}

/// The kernel family node `id` will be priced (and profiled) under: the
/// [`KernelChoice`] name from the one classification that the planner, the
/// cost table and the executor share.
pub fn node_family(graph: &Graph, id: NodeId, plan: &PhysicalPlan) -> &'static str {
    family(graph, id, plan.kernel(id), plan).name()
}

/// The kernel family of node `id` running kernel `k` (its row of the
/// representation table, as `plan` placed it), the one classification the
/// planner, the cost table and the executor share. Blocked needs a budget and
/// parallel a degree above one; then the fused operators (`crossprod`, `tmv`,
/// `sumSq`, and a `sum` that computes fused nodes) and constants classify by
/// op, and the rest by the row's dense or sparse kernel.
pub(crate) fn family(graph: &Graph, id: NodeId, k: Kernel, plan: &PhysicalPlan) -> KernelChoice {
    match (k, graph.op(id)) {
        (Kernel::Blocked, _) if plan.mem_budget().is_some() => KernelChoice::Blocked,
        (Kernel::Parallel, _) if plan.degree() > 1 => KernelChoice::Parallel,
        (_, Op::CrossProd(_) | Op::Tmv(..) | Op::SumSq(_)) => KernelChoice::Fused,
        (_, &Op::Agg(AggOp::Sum, a)) if plan.fused_into(a) == Some(id) => KernelChoice::Fused,
        (_, Op::Const(_)) => KernelChoice::Scalar,
        (Kernel::Sparse, _) => KernelChoice::Sparse,
        _ => KernelChoice::Dense,
    }
}

/// Per-node cost table over every node reachable from `root`, given
/// propagated sizes and the physical plan the costs should assume.
pub fn node_costs(
    graph: &Graph,
    root: NodeId,
    infos: &HashMap<NodeId, SizeInfo>,
    plan: &PhysicalPlan,
    model: &CostModel,
) -> HashMap<NodeId, NodeCost> {
    let mut out = HashMap::new();
    for id in graph.reachable(root) {
        let flops = node_flops(graph, id, infos, plan.kernel(id));
        let family = node_family(graph, id, plan);
        let op = crate::explain::op_label(graph, id);
        let (static_ns, calibrated_ns) =
            (static_ns(flops), model.calibrated_ns(&op, family, flops));
        let drifted = calibrated_ns.is_some_and(|cal| drifted(static_ns, cal));
        out.insert(id, NodeCost { flops, static_ns, calibrated_ns, family, drifted });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CompiledProgram;
    use crate::physical::{PhysicalPlan, PlanOptions};
    use crate::size::InputSizes;

    /// The plan `CompiledProgram::new` builds for `root` under `opts`.
    fn planned(g: &Graph, root: NodeId, opts: &PlanOptions) -> PhysicalPlan {
        CompiledProgram::new(g.clone(), root, opts).unwrap().plan
    }

    fn glm() -> (Graph, NodeId, InputSizes) {
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(Op::CrossProd(x));
        let root = g.agg(AggOp::Sum, cp);
        let mut s = InputSizes::new();
        s.declare("X", 1000, 20, 1.0);
        (g, root, s)
    }

    /// A store holding `n` samples of `gflops` throughput for (op, family)
    /// at the size class of `flops`.
    fn store_with(op: &str, family: &str, flops: u64, gflops: f64, n: usize) -> ProfileStore {
        let mut s = ProfileStore::new();
        let ns = (flops as f64 / gflops) as u64;
        for _ in 0..n {
            s.record(op, family, flops, ns.max(1));
        }
        s
    }

    /// The price of the serial, unbounded plan of `root` under `model`.
    fn priced(g: &Graph, root: NodeId, sizes: &InputSizes, model: &CostModel) -> u128 {
        let opts = PlanOptions { cost: Some(model), ..PlanOptions::new(sizes) };
        CompiledProgram::new(g.clone(), root, &opts).unwrap().est_cost_ns.into()
    }

    #[test]
    fn empty_model_prices_exactly_static() {
        let (g, root, sizes) = glm();
        let est = crate::rewrite::estimated_cost(&g, root, &sizes).unwrap();
        let cal = priced(&g, root, &sizes, &CostModel::default());
        assert_eq!(cal, static_ns(est), "no samples -> static fallback everywhere");
    }

    #[test]
    fn calibration_divides_by_observed_throughput() {
        let (g, root, sizes) = glm();
        let plan = planned(&g, root, &PlanOptions::new(&sizes));
        let infos = crate::size::propagate(&g, root, &sizes).unwrap();
        // crossprod on 1000x20: the upper triangle, 20000 * 20 = 400_000
        // flops, fused family.
        let cp_flops = 400_000u64;
        // Measured 4 GFLOP/s, 4x faster than the static assumption.
        let model = CostModel::new(store_with("crossprod", "fused", cp_flops, 4.0, 5));
        let costs = node_costs(&g, root, &infos, &plan, &model);
        let cp = costs.values().find(|c| c.family == "fused").expect("crossprod node");
        assert_eq!(cp.flops, cp_flops as u128);
        let cal = cp.calibrated_ns.expect("enough samples");
        assert!(
            cal < cp.static_ns / 3 && cal > cp.static_ns / 5,
            "4 GFLOP/s should price ~4x below static: cal {cal} static {}",
            cp.static_ns
        );
        // The total moves too, and differs from the static estimate.
        let est = crate::rewrite::estimated_cost(&g, root, &sizes).unwrap();
        assert!(priced(&g, root, &sizes, &model) < static_ns(est));
    }

    #[test]
    fn below_min_samples_falls_back_to_static() {
        let (g, root, sizes) = glm();
        let model = CostModel::new(store_with("crossprod", "fused", 400_000, 4.0, 2));
        let est = crate::rewrite::estimated_cost(&g, root, &sizes).unwrap();
        let cal = priced(&g, root, &sizes, &model);
        assert_eq!(cal, static_ns(est), "2 samples < MIN_SAMPLES -> static");
    }

    #[test]
    fn priced_flops_are_the_flops_each_step_counts() {
        // One profiled eval over dense inputs reaching every dense kernel:
        // each step's flops are its node's estimate plus the estimates of
        // the nodes fused into it, so a profile sample and a price agree
        // on the size class.
        use crate::exec::{Env, Executor};
        use crate::expr::{EwiseOp, UnaryOp};
        use dm_matrix::{Dense, Matrix};
        let mut g = Graph::new();
        let (x, w, v, y) = (g.input("X"), g.input("W"), g.input("v"), g.input("y"));
        let cp = g.push(Op::CrossProd(x));
        let tmv = g.push(Op::Tmv(x, y));
        let sum_sq = g.push(Op::SumSq(x));
        let gemm = g.matmul(x, w);
        let gemv = g.matmul(x, v);
        let tr = g.transpose(x);
        let streamed = g.matmul(x, w);
        let mapped = g.unary(UnaryOp::Exp, streamed);
        let fused = g.agg(AggOp::Sum, mapped);
        let col_sums = g.agg(AggOp::ColSums, x);
        let row_sums = g.agg(AggOp::RowSums, x);
        // Every scalar joins a matrix by broadcast: a scalar ⊕ scalar step
        // counts no flops.
        let mut acc = g.ewise(EwiseOp::Mul, cp, cp);
        let scalars = [
            sum_sq,
            fused,
            g.agg(AggOp::Sum, tmv),
            g.agg(AggOp::Max, gemm),
            g.agg(AggOp::Min, gemv),
            g.agg(AggOp::Sum, tr),
            g.agg(AggOp::Max, col_sums),
            g.agg(AggOp::Min, row_sums),
        ];
        for s in scalars {
            acc = g.ewise(EwiseOp::Add, acc, s);
        }
        let mut sizes = InputSizes::new();
        let mut env = Env::new();
        for (name, rows, cols) in [("X", 40, 6), ("W", 6, 3), ("v", 6, 1), ("y", 40, 1)] {
            sizes.declare(name, rows, cols, 1.0);
            let m = Dense::from_fn(rows, cols, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.1 - 0.5);
            env.bind(name, Matrix::Dense(m));
        }
        let infos = crate::size::propagate(&g, acc, &sizes).unwrap();
        let plan = planned(&g, acc, &PlanOptions::new(&sizes));
        assert_eq!(plan.fused_into(streamed), Some(fused));
        let mut ex = Executor::with_plan(&g, plan.clone()).profiled();
        ex.eval(acc, &env).unwrap();
        let profile = ex.profile().unwrap();
        for id in g.reachable(acc) {
            let Some(step) = profile.node(id) else {
                assert!(plan.fused_into(id).is_some(), "%{id} ran no step of its own");
                continue;
            };
            let priced: u128 = g
                .reachable(acc)
                .into_iter()
                .filter(|&n| n == id || plan.fused_into(n) == Some(id))
                .map(|n| node_flops(&g, n, &infos, plan.kernel(n)))
                .sum();
            let op = crate::explain::op_label(&g, id);
            assert_eq!(step.self_flops as u128, priced, "%{id} {op}");
        }
    }

    #[test]
    fn node_family_mirrors_dispatch() {
        let (g, root, sizes) = glm();
        let cp = match g.op(root) {
            Op::Agg(_, c) => *c,
            _ => unreachable!(),
        };
        let serial = planned(&g, root, &PlanOptions::new(&sizes));
        assert_eq!(node_family(&g, cp, &serial), "fused");
        assert_eq!(node_family(&g, root, &serial), "dense");

        // At degree 4 with a big input, crossprod plans parallel.
        let mut big = InputSizes::new();
        big.declare("X", 100_000, 200, 1.0);
        let par = planned(&g, root, &PlanOptions { degree: 4, ..PlanOptions::new(&big) });
        assert_eq!(node_family(&g, cp, &par), "parallel");
    }

    #[test]
    fn drift_trips_only_beyond_drift_factor() {
        // 2x off: no drift. 8x off, in either direction: drift. An unknown
        // (zero) figure never drifts.
        assert!(!drifted(400_000, 200_000));
        assert!(!drifted(400_000, 800_000));
        assert!(drifted(400_000, 50_000));
        assert!(drifted(400_000, 3_200_000));
        assert!(!drifted(0, 50_000));
        assert!(!drifted(400_000, 0));

        // A node's cost carries the same test, calibrated against static.
        let (g, root, sizes) = glm();
        let plan = planned(&g, root, &PlanOptions::new(&sizes));
        let infos = crate::size::propagate(&g, root, &sizes).unwrap();
        let crossprod_drifts = |model: &CostModel| {
            let costs = node_costs(&g, root, &infos, &plan, model);
            costs.values().find(|c| c.family == "fused").unwrap().drifted
        };
        let flops = 400_000;
        assert!(!crossprod_drifts(&CostModel::new(store_with(
            "crossprod",
            "fused",
            flops,
            2.0,
            5
        ))));
        assert!(crossprod_drifts(&CostModel::new(store_with("crossprod", "fused", flops, 8.0, 5))));
        assert!(crossprod_drifts(&CostModel::new(store_with("crossprod", "fused", flops, 0.1, 5))));
        assert!(!crossprod_drifts(&CostModel::default()), "no samples: never drifts");
    }

    #[test]
    fn from_env_degrades_on_corruption() {
        // Not exercised via the env var here (tests run in parallel and the
        // var is process-global); load() carries the same contract.
        let dir = std::env::temp_dir().join(format!("dmml_cost_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(dm_obs::profile::PROFILE_FILE), b"DMML-PROFILE v1\njunk\n")
            .unwrap();
        assert!(CostModel::load(&dir).is_err(), "corrupt store must surface an error");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

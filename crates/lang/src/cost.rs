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
//! feed [`plan`](crate::physical::plan) (as
//! [`PlanOptions::cost`](crate::physical::PlanOptions::cost): a measured
//! serial-vs-parallel crossover replacing the fixed
//! [`PAR_FLOP_THRESHOLD`](crate::physical::PAR_FLOP_THRESHOLD)), the cost
//! table of [`explain`](crate::explain::explain), and the analyzer's H204
//! staleness hint.
//!
//! Closing the loop end to end:
//!
//! ```
//! use dm_lang::{cost::CostModel, exec::{Env, Executor}, parser, physical};
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
//! let plan = physical::plan(&g, root, &physical::PlanOptions::new(&sizes)).unwrap();
//! let calibrated = dm_lang::cost::calibrated_cost(&g, root, &sizes, &plan, &model).unwrap();
//! assert!(calibrated > 0);
//! ```

use crate::exec::KernelChoice;
use crate::expr::{AggOp, Graph, NodeId, Op};
use crate::physical::{node_flops, Kernel, PhysicalPlan};
use crate::size::{propagate, InputSizes, SizeError, SizeInfo};
use dm_obs::profile::{ProfileError, ProfileStore};
use std::collections::HashMap;
use std::path::Path;

/// The static throughput assumption, in GFLOP/s: with `ns = flops / 1.0`,
/// the static cost in nanoseconds is numerically the flop count — the same
/// ~1 Gflop/s-per-core rationale behind
/// [`PAR_FLOP_THRESHOLD`](crate::physical::PAR_FLOP_THRESHOLD).
pub const STATIC_GFLOPS: f64 = 1.0;

/// Calibrated-vs-static disagreement beyond which the analyzer flags the
/// static model stale for a kernel (H204): a measured throughput more than
/// 4x off the [`STATIC_GFLOPS`] assumption, in either direction.
pub const DRIFT_FACTOR: f64 = 4.0;

/// A loaded throughput profile, ready to price plans in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    store: ProfileStore,
}

/// Per-node cost breakdown: the flop estimate and its static and calibrated
/// nanosecond prices. Produced by [`node_costs`]; rendered by
/// [`explain`](crate::explain::explain).
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

    /// True when the calibrated price for this (op, family, size) disagrees
    /// with the static assumption by more than [`DRIFT_FACTOR`] — the
    /// trigger for the analyzer's H204 staleness hint.
    pub fn is_stale(&self, op: &str, family: &str, flops: u128) -> bool {
        match self.calibrated_ns(op, family, flops) {
            Some(cal) if cal > 0 && flops > 0 => {
                let ratio = cal as f64 / static_ns(flops) as f64;
                !(1.0 / DRIFT_FACTOR..=DRIFT_FACTOR).contains(&ratio)
            }
            _ => false,
        }
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
    family(graph, id, plan).name()
}

/// The kernel family of node `id` under `plan`, the one classification the
/// planner, the cost table and the executor share. Blocked needs a budget and
/// parallel a degree above one; then the fused operators (`crossprod`, `tmv`,
/// `sumSq`, and a `sum` that computes fused nodes) and constants classify by
/// op, and the rest follow the plan's dense/sparse choice, which the
/// executor refines with the values it sees.
pub(crate) fn family(graph: &Graph, id: NodeId, plan: &PhysicalPlan) -> KernelChoice {
    match (plan.kernel(id), graph.op(id)) {
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
        let flops = node_flops(graph, id, infos);
        let family = node_family(graph, id, plan);
        let op = crate::explain::op_label(graph, id);
        out.insert(
            id,
            NodeCost {
                flops,
                static_ns: static_ns(flops),
                calibrated_ns: model.calibrated_ns(&op, family, flops),
                family,
            },
        );
    }
    out
}

/// Calibrated execution-cost estimate in nanoseconds of the DAG rooted at
/// `root` under `plan`: per node, flops divided by the observed GFLOP/s of
/// its (op, kernel family, size class) where the profile holds enough
/// samples, the static [`STATIC_GFLOPS`] price otherwise. With an empty
/// model this equals [`static_ns`] of
/// [`estimated_cost`](crate::rewrite::estimated_cost).
pub fn calibrated_cost(
    graph: &Graph,
    root: NodeId,
    inputs: &InputSizes,
    plan: &PhysicalPlan,
    model: &CostModel,
) -> Result<u128, SizeError> {
    let infos = propagate(graph, root, inputs)?;
    Ok(node_costs(graph, root, &infos, plan, model)
        .values()
        .map(|c| c.calibrated_ns.unwrap_or(c.static_ns))
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{plan, PlanOptions};

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

    #[test]
    fn empty_model_prices_exactly_static() {
        let (g, root, sizes) = glm();
        let plan = plan(&g, root, &PlanOptions::new(&sizes)).unwrap();
        let model = CostModel::default();
        let cal = calibrated_cost(&g, root, &sizes, &plan, &model).unwrap();
        let est = crate::rewrite::estimated_cost(&g, root, &sizes).unwrap();
        assert_eq!(cal, static_ns(est), "no samples -> static fallback everywhere");
    }

    #[test]
    fn calibration_divides_by_observed_throughput() {
        let (g, root, sizes) = glm();
        let plan = plan(&g, root, &PlanOptions::new(&sizes)).unwrap();
        let infos = propagate(&g, root, &sizes).unwrap();
        // crossprod on 1000x20: 2 * 20000 * 20 = 800_000 flops, fused family.
        let cp_flops = 800_000u64;
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
        let total = calibrated_cost(&g, root, &sizes, &plan, &model).unwrap();
        let est = crate::rewrite::estimated_cost(&g, root, &sizes).unwrap();
        assert!(total < static_ns(est));
    }

    #[test]
    fn below_min_samples_falls_back_to_static() {
        let (g, root, sizes) = glm();
        let plan = plan(&g, root, &PlanOptions::new(&sizes)).unwrap();
        let model = CostModel::new(store_with("crossprod", "fused", 800_000, 4.0, 2));
        let cal = calibrated_cost(&g, root, &sizes, &plan, &model).unwrap();
        let est = crate::rewrite::estimated_cost(&g, root, &sizes).unwrap();
        assert_eq!(cal, static_ns(est), "2 samples < MIN_SAMPLES -> static");
    }

    #[test]
    fn node_family_mirrors_dispatch() {
        let (g, root, sizes) = glm();
        let cp = match g.op(root) {
            Op::Agg(_, c) => *c,
            _ => unreachable!(),
        };
        let serial = plan(&g, root, &PlanOptions::new(&sizes)).unwrap();
        assert_eq!(node_family(&g, cp, &serial), "fused");
        assert_eq!(node_family(&g, root, &serial), "dense");

        // At degree 4 with a big input, crossprod plans parallel.
        let mut big = InputSizes::new();
        big.declare("X", 100_000, 200, 1.0);
        let par = plan(&g, root, &PlanOptions { degree: 4, ..PlanOptions::new(&big) }).unwrap();
        assert_eq!(node_family(&g, cp, &par), "parallel");
    }

    #[test]
    fn staleness_trips_only_beyond_drift_factor() {
        let flops = 800_000u64;
        // 2x off: not stale. 8x off: stale (both directions).
        let m2 = CostModel::new(store_with("crossprod", "fused", flops, 2.0, 5));
        assert!(!m2.is_stale("crossprod", "fused", flops as u128));
        let m8 = CostModel::new(store_with("crossprod", "fused", flops, 8.0, 5));
        assert!(m8.is_stale("crossprod", "fused", flops as u128));
        let slow = CostModel::new(store_with("crossprod", "fused", flops, 0.1, 5));
        assert!(slow.is_stale("crossprod", "fused", flops as u128));
        // No samples: never stale.
        assert!(!CostModel::default().is_stale("crossprod", "fused", flops as u128));
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

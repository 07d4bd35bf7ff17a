//! The logical rewrite engine: CSE, algebraic simplifications, fused-operator
//! patterns, constant folding, and matrix-chain reordering.

use crate::cache::CompiledProgram;
use crate::expr::{AggOp, EwiseOp, Graph, NodeId, Op, UnaryOp};
use crate::physical::PlanOptions;
use crate::size::{infer_node, propagate, InputSizes, Shape, SizeError, SizeInfo};
use dm_obs::{elapsed_ns, StatsRegistry};
use std::collections::HashMap;
use std::time::Instant;

/// What the optimizer did, for explainability and the E5 ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Nodes merged by common-subexpression elimination.
    pub cse_merged: usize,
    /// `t(t(X))` pairs removed.
    pub double_transpose: usize,
    /// `t(X) %*% X` fused into `CrossProd`.
    pub crossprod_fused: usize,
    /// `t(X) %*% v` fused into `Tmv`.
    pub tmv_fused: usize,
    /// `sum(X * X)` fused into `SumSq`.
    pub sumsq_fused: usize,
    /// Scalar subexpressions folded to constants.
    pub constants_folded: usize,
    /// Algebraic identities applied (`X*1`, `X+0`, `X-0`, `X/1`).
    pub identities: usize,
    /// Matrix chains whose association order changed.
    pub chains_reordered: usize,
}

impl RewriteStats {
    /// Total number of rewrites applied.
    pub fn total(&self) -> usize {
        self.cse_merged
            + self.double_transpose
            + self.crossprod_fused
            + self.tmv_fused
            + self.sumsq_fused
            + self.constants_folded
            + self.identities
            + self.chains_reordered
    }
}

/// A canonical key for hash-consing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Input(String),
    Const(u64),
    MatMul(NodeId, NodeId),
    Transpose(NodeId),
    Ewise(EwiseOp, NodeId, NodeId),
    Unary(UnaryOp, NodeId),
    Agg(AggOp, NodeId),
    CrossProd(NodeId),
    Tmv(NodeId, NodeId),
    SumSq(NodeId),
}

fn key_of(op: &Op) -> Key {
    match op {
        Op::Input(n) => Key::Input(n.clone()),
        Op::Const(v) => Key::Const(v.to_bits()),
        Op::MatMul(a, b) => Key::MatMul(*a, *b),
        Op::Transpose(a) => Key::Transpose(*a),
        Op::Ewise(e, a, b) => {
            // Commutative ops canonicalize operand order for better CSE.
            match e {
                EwiseOp::Add | EwiseOp::Mul => Key::Ewise(*e, (*a).min(*b), (*a).max(*b)),
                _ => Key::Ewise(*e, *a, *b),
            }
        }
        Op::Unary(u, a) => Key::Unary(*u, *a),
        Op::Agg(a, x) => Key::Agg(*a, *x),
        Op::CrossProd(a) => Key::CrossProd(*a),
        Op::Tmv(a, b) => Key::Tmv(*a, *b),
        Op::SumSq(a) => Key::SumSq(*a),
    }
}

/// Rebuilds a graph bottom-up, interning nodes (CSE) and applying local
/// rewrite rules at construction time.
struct Builder<'a> {
    graph: Graph,
    interned: HashMap<Key, NodeId>,
    sizes: &'a InputSizes,
    /// Each interned node's size, inferred as it is interned; a node whose
    /// subgraph does not propagate (undeclared input, shape mismatch) has
    /// none.
    infos: HashMap<NodeId, SizeInfo>,
    stats: RewriteStats,
}

impl Builder<'_> {
    fn intern(&mut self, op: Op) -> NodeId {
        let key = key_of(&op);
        if let Some(&id) = self.interned.get(&key) {
            self.stats.cse_merged += 1;
            return id;
        }
        let id = self.graph.push(op);
        self.interned.insert(key, id);
        if let Ok(Some(info)) = infer_node(&self.graph, id, self.sizes, &self.infos) {
            self.infos.insert(id, info);
        }
        id
    }

    /// Add an op with rewrite rules applied.
    fn add(&mut self, op: Op) -> NodeId {
        // Constant folding for scalar-only subtrees.
        if let Some(v) = self.try_fold(&op) {
            self.stats.constants_folded += 1;
            return self.intern(Op::Const(v));
        }
        // Shape-preserving algebraic identities.
        if let Op::Ewise(e, a, b) = op {
            let is_const =
                |id: NodeId, v: f64| matches!(self.graph.op(id), Op::Const(c) if *c == v);
            let simplified = match e {
                EwiseOp::Mul if is_const(b, 1.0) => Some(a),
                EwiseOp::Mul if is_const(a, 1.0) => Some(b),
                EwiseOp::Add if is_const(b, 0.0) => Some(a),
                EwiseOp::Add if is_const(a, 0.0) => Some(b),
                EwiseOp::Sub if is_const(b, 0.0) => Some(a),
                EwiseOp::Div if is_const(b, 1.0) => Some(a),
                _ => None,
            };
            if let Some(id) = simplified {
                self.stats.identities += 1;
                return id;
            }
        }
        match op {
            // t(t(X)) -> X
            Op::Transpose(a) => {
                if let Op::Transpose(inner) = self.graph.op(a) {
                    self.stats.double_transpose += 1;
                    return *inner;
                }
                self.intern(Op::Transpose(a))
            }
            Op::MatMul(a, b) => {
                // t(X) %*% X -> CrossProd(X); t(X) %*% v -> Tmv(X, v)
                if let Op::Transpose(inner) = self.graph.op(a) {
                    let inner = *inner;
                    if inner == b {
                        self.stats.crossprod_fused += 1;
                        return self.intern(Op::CrossProd(inner));
                    }
                    let b_size = self.infos.get(&b);
                    if let Some(SizeInfo { shape: Shape::Matrix { cols: 1, .. }, .. }) = b_size {
                        self.stats.tmv_fused += 1;
                        return self.intern(Op::Tmv(inner, b));
                    }
                }
                self.intern(Op::MatMul(a, b))
            }
            // sum(X * X) -> SumSq(X)
            Op::Agg(AggOp::Sum, x) => {
                if let Op::Ewise(EwiseOp::Mul, p, q) = self.graph.op(x) {
                    if p == q {
                        let p = *p;
                        self.stats.sumsq_fused += 1;
                        return self.intern(Op::SumSq(p));
                    }
                }
                self.intern(Op::Agg(AggOp::Sum, x))
            }
            other => self.intern(other),
        }
    }

    fn try_fold(&self, op: &Op) -> Option<f64> {
        let val = |id: NodeId| match self.graph.op(id) {
            Op::Const(v) => Some(*v),
            _ => None,
        };
        match op {
            Op::Ewise(e, a, b) => {
                let (x, y) = (val(*a)?, val(*b)?);
                Some(match e {
                    EwiseOp::Add => x + y,
                    EwiseOp::Sub => x - y,
                    EwiseOp::Mul => x * y,
                    EwiseOp::Div => x / y,
                })
            }
            Op::Agg(_, a) => val(*a),
            Op::Transpose(a) => val(*a),
            Op::Unary(u, a) => Some(u.apply(val(*a)?)),
            _ => None,
        }
    }
}

/// Optimize the DAG rooted at `root`: returns the rewritten graph, new root,
/// and rewrite statistics. `sizes` drives size-dependent rules (Tmv fusion,
/// chain reordering); pass an empty [`InputSizes`] to apply only
/// size-oblivious rules.
pub fn optimize(
    graph: &Graph,
    root: NodeId,
    sizes: &InputSizes,
) -> Result<(Graph, NodeId, RewriteStats), SizeError> {
    // Pass 1: bottom-up rebuild with local rules + CSE.
    let mut b = Builder {
        graph: Graph::new(),
        interned: HashMap::new(),
        sizes,
        infos: HashMap::new(),
        stats: RewriteStats::default(),
    };
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    for id in graph.reachable(root) {
        let children: Vec<NodeId> = graph.op(id).children().iter().map(|c| remap[c]).collect();
        let new_id = b.add(graph.op(id).with_children(&children));
        remap.insert(id, new_id);
    }
    let mut new_root = remap[&root];
    let mut g = b.graph;
    let mut stats = b.stats;

    // Pass 2: matrix-chain reordering over pass 1's sizes (silently skipped
    // when the program does not propagate, e.g. an undeclared input).
    if b.infos.contains_key(&new_root) {
        let shape_of = |id: NodeId| b.infos.get(&id).map(|s| s.shape);
        let (g2, root2, reordered) = reorder_chains(&g, new_root, &shape_of);
        g = g2;
        new_root = root2;
        stats.chains_reordered += reordered;
    }

    // In debug builds, every optimize call checks its own output against the
    // rewrite-safety contract; a violation here is an optimizer bug.
    #[cfg(debug_assertions)]
    if let Err(violation) = crate::analyze::verify_rewrite(graph, root, &g, new_root, sizes) {
        panic!(
            "rewrite-safety violation: {violation}\n  original: {}\n  rewritten: {}",
            graph.render(root),
            g.render(new_root)
        );
    }

    Ok((g, new_root, stats))
}

/// Statically estimated execution cost (approximate flops) of the DAG rooted
/// at `root`, using the same sparsity-aware accounting the interpreter
/// applies at runtime. This is the "cost estimate" side of the optimizer
/// trace: compare the figure before and after [`optimize`] to see what a
/// rewrite bought.
pub fn estimated_cost(graph: &Graph, root: NodeId, sizes: &InputSizes) -> Result<u128, SizeError> {
    let infos = propagate(graph, root, sizes)?;
    // Per-node flop estimates live in `physical::node_flops` so the physical
    // planner's serial-vs-parallel threshold uses the same cost model, each
    // node priced on the kernel the representation table gives it.
    let reachable = graph.reachable(root);
    let rows = crate::physical::rows(graph, &reachable, &infos);
    Ok(reachable
        .iter()
        .map(|id| crate::physical::node_flops(graph, *id, &infos, rows[id].kernel))
        .sum())
}

/// What one [`optimize_traced`] call did: the per-rule counts, the estimated
/// cost before and after (when sizes permit estimation), and the wall time
/// the optimizer itself spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteTrace {
    /// Per-rule fire counts.
    pub stats: RewriteStats,
    /// Estimated flops of the DAG as written (None if sizes were undeclared).
    pub cost_before: Option<u128>,
    /// Estimated flops after rewriting.
    pub cost_after: Option<u128>,
    /// Calibrated cost (ns) of the DAG as written, when [`optimize_traced`]
    /// ran with a loaded [`CostModel`](crate::cost::CostModel).
    pub calibrated_before_ns: Option<u128>,
    /// Calibrated cost (ns) after rewriting.
    pub calibrated_after_ns: Option<u128>,
    /// Wall time spent inside the optimizer.
    pub wall_ns: u64,
}

impl RewriteTrace {
    /// Estimated cost ratio `after / before`, when both are known (1.0 means
    /// the rewrites bought nothing by this model).
    pub fn cost_ratio(&self) -> Option<f64> {
        match (self.cost_before, self.cost_after) {
            (Some(b), Some(a)) if b > 0 => Some(a as f64 / b as f64),
            _ => None,
        }
    }

    /// Calibrated cost ratio `after / before` in observed nanoseconds, when
    /// [`optimize_traced`] priced both sides. Where this and
    /// [`cost_ratio`](Self::cost_ratio) disagree, the machine disagrees with
    /// the flop model about what the rewrites bought.
    pub fn calibrated_ratio(&self) -> Option<f64> {
        match (self.calibrated_before_ns, self.calibrated_after_ns) {
            (Some(b), Some(a)) if b > 0 => Some(a as f64 / b as f64),
            _ => None,
        }
    }

    /// Push the trace into `rec` under the `lang.rewrite.*` sites.
    pub fn record(&self, rec: &StatsRegistry) {
        rec.add("lang.rewrite.cse_merged", self.stats.cse_merged as u64);
        rec.add("lang.rewrite.double_transpose", self.stats.double_transpose as u64);
        rec.add("lang.rewrite.crossprod_fused", self.stats.crossprod_fused as u64);
        rec.add("lang.rewrite.tmv_fused", self.stats.tmv_fused as u64);
        rec.add("lang.rewrite.sumsq_fused", self.stats.sumsq_fused as u64);
        rec.add("lang.rewrite.constants_folded", self.stats.constants_folded as u64);
        rec.add("lang.rewrite.identities", self.stats.identities as u64);
        rec.add("lang.rewrite.chains_reordered", self.stats.chains_reordered as u64);
        if let Some(b) = self.cost_before {
            rec.gauge_set("lang.rewrite.est_cost_before", b.min(u64::MAX as u128) as u64);
        }
        if let Some(a) = self.cost_after {
            rec.gauge_set("lang.rewrite.est_cost_after", a.min(u64::MAX as u128) as u64);
        }
        if let Some(b) = self.calibrated_before_ns {
            rec.gauge_set("lang.rewrite.cal_cost_before_ns", b.min(u64::MAX as u128) as u64);
        }
        if let Some(a) = self.calibrated_after_ns {
            rec.gauge_set("lang.rewrite.cal_cost_after_ns", a.min(u64::MAX as u128) as u64);
        }
        rec.record_histogram("lang.rewrite.wall", self.wall_ns);
    }
}

/// [`optimize`], plus a [`RewriteTrace`] carrying before/after cost estimates
/// and the optimizer's own wall time. With a calibrated
/// [`CostModel`](crate::cost::CostModel) the trace's
/// `calibrated_before_ns`/`calibrated_after_ns` also price both DAGs in
/// measured-throughput nanoseconds (serial plans at the model's observed
/// GFLOP/s). Either estimate failing (undeclared inputs) degrades to `None`
/// costs rather than failing the optimization.
pub fn optimize_traced(
    graph: &Graph,
    root: NodeId,
    sizes: &InputSizes,
    model: Option<&crate::cost::CostModel>,
) -> Result<(Graph, NodeId, RewriteTrace), SizeError> {
    let t0 = Instant::now();
    let cost_before = estimated_cost(graph, root, sizes).ok();
    let (g, new_root, stats) = optimize(graph, root, sizes)?;
    let cost_after = estimated_cost(&g, new_root, sizes).ok();
    let wall_ns = elapsed_ns(t0);
    let price = |gr: &Graph, rt: NodeId| -> Option<u128> {
        let opts = PlanOptions { cost: Some(model?), ..PlanOptions::new(sizes) };
        Some(CompiledProgram::new(gr.clone(), rt, &opts).ok()?.est_cost_ns.into())
    };
    let trace = RewriteTrace {
        stats,
        cost_before,
        cost_after,
        calibrated_before_ns: price(graph, root),
        calibrated_after_ns: price(&g, new_root),
        wall_ns,
    };
    Ok((g, new_root, trace))
}

/// Leaves of the maximal multiplication chain rooted at `id`, left to right.
pub(crate) fn collect_chain_leaves(graph: &Graph, id: NodeId) -> Vec<NodeId> {
    fn walk(graph: &Graph, id: NodeId, leaves: &mut Vec<NodeId>) {
        match graph.op(id) {
            Op::MatMul(a, b) => {
                walk(graph, *a, leaves);
                walk(graph, *b, leaves);
            }
            _ => leaves.push(id),
        }
    }
    let mut leaves = Vec::new();
    walk(graph, id, &mut leaves);
    leaves
}

/// Find maximal `MatMul` chains and re-associate them with the classic
/// matrix-chain-order dynamic program over propagated shapes.
fn reorder_chains(
    graph: &Graph,
    root: NodeId,
    shape_of: &dyn Fn(NodeId) -> Option<Shape>,
) -> (Graph, NodeId, usize) {
    let mut g = Graph::new();
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    let mut reordered = 0usize;

    // Nodes that are chain-internal MatMuls reachable only within a chain are
    // re-emitted by the DP; everything else copies over.
    let order = graph.reachable(root);
    let mut is_chain_internal = vec![false; graph.len()];
    for &id in &order {
        if let Op::MatMul(a, b) = graph.op(id) {
            for &c in &[*a, *b] {
                if matches!(graph.op(c), Op::MatMul(_, _)) {
                    is_chain_internal[c] = true;
                }
            }
        }
    }

    for &id in &order {
        if remap.contains_key(&id) {
            continue;
        }
        match graph.op(id) {
            Op::MatMul(_, _) if !is_chain_internal[id] => {
                // Root of a maximal chain.
                let leaves = collect_chain_leaves(graph, id);
                // All leaves are already remapped (children-first order).
                let mapped: Vec<NodeId> = leaves.iter().map(|l| remap[l]).collect();
                let dims: Option<Vec<(usize, usize)>> = leaves
                    .iter()
                    .map(|&l| match shape_of(l) {
                        Some(Shape::Matrix { rows, cols }) => Some((rows, cols)),
                        _ => None,
                    })
                    .collect();
                let new_id = match dims {
                    Some(dims) if mapped.len() > 2 => {
                        let orig_cost = original_chain_cost(graph, id, shape_of);
                        let (node, dp_cost) = emit_optimal_chain(&mut g, &mapped, &dims);
                        if orig_cost.is_some_and(|oc| dp_cost < oc) {
                            reordered += 1;
                        }
                        node
                    }
                    _ => {
                        // Two leaves or unknown shapes: left-deep as written.
                        let mut acc = mapped[0];
                        for &m in &mapped[1..] {
                            acc = g.push(Op::MatMul(acc, m));
                        }
                        acc
                    }
                };
                remap.insert(id, new_id);
            }
            // Everything else copies over literally, chain-internal matmuls
            // included: their chain root re-emits the chain, but another
            // consumer in the DAG may still reference them.
            _ => {
                let ch: Vec<NodeId> = graph.op(id).children().iter().map(|c| remap[c]).collect();
                let new_id = g.push(graph.op(id).with_children(&ch));
                remap.insert(id, new_id);
            }
        }
    }
    (g, remap[&root], reordered)
}

/// Multiplication cost (scalar multiplies) of a chain exactly as written.
pub(crate) fn original_chain_cost(
    graph: &Graph,
    id: NodeId,
    shape_of: &dyn Fn(NodeId) -> Option<Shape>,
) -> Option<u128> {
    fn walk(
        graph: &Graph,
        id: NodeId,
        shape_of: &dyn Fn(NodeId) -> Option<Shape>,
    ) -> Option<(u128, usize, usize)> {
        match graph.op(id) {
            Op::MatMul(a, b) => {
                let (ca, ra, ka) = walk(graph, *a, shape_of)?;
                let (cb, kb, cb_cols) = walk(graph, *b, shape_of)?;
                debug_assert_eq!(ka, kb, "shape propagation validated this earlier");
                Some((ca + cb + (ra as u128) * (ka as u128) * (cb_cols as u128), ra, cb_cols))
            }
            _ => match shape_of(id)? {
                Shape::Matrix { rows, cols } => Some((0, rows, cols)),
                Shape::Scalar => None,
            },
        }
    }
    walk(graph, id, shape_of).map(|(c, _, _)| c)
}

/// Matrix-chain-order DP over leaf dimensions: minimal multiply cost and the
/// split table needed to rebuild the optimal parenthesization.
fn chain_dp(dims: &[(usize, usize)]) -> (u128, Vec<Vec<usize>>) {
    let n = dims.len();
    // p[i] = rows of matrix i; p[n] = cols of the last.
    let mut p = Vec::with_capacity(n + 1);
    p.push(dims[0].0);
    for d in dims {
        p.push(d.1);
    }
    let mut cost = vec![vec![0u128; n]; n];
    let mut split = vec![vec![0usize; n]; n];
    for len in 2..=n {
        for i in 0..=n - len {
            let j = i + len - 1;
            cost[i][j] = u128::MAX;
            for k in i..j {
                let c = cost[i][k]
                    + cost[k + 1][j]
                    + (p[i] as u128) * (p[k + 1] as u128) * (p[j + 1] as u128);
                if c < cost[i][j] {
                    cost[i][j] = c;
                    split[i][j] = k;
                }
            }
        }
    }
    (cost[0][n - 1], split)
}

/// DP-optimal multiplication cost for a chain with the given leaf dimensions.
pub(crate) fn optimal_chain_cost(dims: &[(usize, usize)]) -> u128 {
    if dims.len() < 2 {
        return 0;
    }
    chain_dp(dims).0
}

/// Matrix-chain-order DP; emits the optimal parenthesization into `g`.
/// Returns the root node and the DP-optimal multiplication cost.
fn emit_optimal_chain(g: &mut Graph, leaves: &[NodeId], dims: &[(usize, usize)]) -> (NodeId, u128) {
    let n = leaves.len();
    let (best, split) = chain_dp(dims);
    fn build(g: &mut Graph, leaves: &[NodeId], split: &[Vec<usize>], i: usize, j: usize) -> NodeId {
        if i == j {
            return leaves[i];
        }
        let k = split[i][j];
        let a = build(g, leaves, split, i, k);
        let b = build(g, leaves, split, k + 1, j);
        g.push(Op::MatMul(a, b))
    }
    let node = build(g, leaves, &split, 0, n - 1);
    (node, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes() -> InputSizes {
        let mut s = InputSizes::new();
        s.declare("X", 1000, 20, 1.0);
        s.declare("Y", 20, 1000, 1.0);
        s.declare("v", 20, 1, 1.0);
        s.declare("u", 1000, 1, 1.0);
        s
    }

    #[test]
    fn cse_merges_shared_subtrees() {
        let mut g = Graph::new();
        let x1 = g.input("X");
        let x2 = g.input("X"); // duplicate
        let t1 = g.transpose(x1);
        let t2 = g.transpose(x2); // duplicate after x merge
        let s = g.ewise(EwiseOp::Add, t1, t2);
        let (og, root, stats) = optimize(&g, s, &sizes()).unwrap();
        assert!(stats.cse_merged >= 2);
        // (t(X) + t(X)): both operands are the same node after CSE.
        if let Op::Ewise(EwiseOp::Add, a, b) = og.op(root) {
            assert_eq!(a, b);
        } else {
            panic!("unexpected root {:?}", og.op(root));
        }
    }

    #[test]
    fn double_transpose_eliminated() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let tt = g.transpose(t);
        let (og, root, stats) = optimize(&g, tt, &sizes()).unwrap();
        assert_eq!(stats.double_transpose, 1);
        assert_eq!(og.op(root), &Op::Input("X".into()));
    }

    #[test]
    fn crossprod_fusion() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mm = g.matmul(t, x);
        let (og, root, stats) = optimize(&g, mm, &sizes()).unwrap();
        assert_eq!(stats.crossprod_fused, 1);
        assert!(matches!(og.op(root), Op::CrossProd(_)));
    }

    #[test]
    fn tmv_fusion_requires_vector() {
        // t(X) %*% u where u is 1000x1.
        let mut g = Graph::new();
        let x = g.input("X");
        let u = g.input("u");
        let t = g.transpose(x);
        let mm = g.matmul(t, u);
        let (og, root, stats) = optimize(&g, mm, &sizes()).unwrap();
        assert_eq!(stats.tmv_fused, 1);
        assert!(matches!(og.op(root), Op::Tmv(_, _)));

        // t(X) %*% Y with matrix Y must NOT fuse.
        let mut g = Graph::new();
        let x = g.input("X");
        let y = g.input("Y");
        let t = g.transpose(x);
        let mm = g.matmul(t, y);
        let (og, root, stats) = optimize(&g, mm, &sizes()).unwrap();
        assert_eq!(stats.tmv_fused, 0);
        assert!(matches!(og.op(root), Op::MatMul(_, _)));
    }

    #[test]
    fn sumsq_fusion() {
        let mut g = Graph::new();
        let x = g.input("X");
        let sq = g.ewise(EwiseOp::Mul, x, x);
        let s = g.agg(AggOp::Sum, sq);
        let (og, root, stats) = optimize(&g, s, &sizes()).unwrap();
        assert_eq!(stats.sumsq_fused, 1);
        assert!(matches!(og.op(root), Op::SumSq(_)));
    }

    #[test]
    fn sumsq_fusion_via_cse() {
        // sum(X * X) written with two distinct X nodes still fuses after CSE.
        let mut g = Graph::new();
        let x1 = g.input("X");
        let x2 = g.input("X");
        let sq = g.ewise(EwiseOp::Mul, x1, x2);
        let s = g.agg(AggOp::Sum, sq);
        let (og, root, stats) = optimize(&g, s, &sizes()).unwrap();
        assert_eq!(stats.sumsq_fused, 1);
        assert!(matches!(og.op(root), Op::SumSq(_)));
    }

    #[test]
    fn constant_folding() {
        let mut g = Graph::new();
        let a = g.constant(2.0);
        let b = g.constant(3.0);
        let c = g.ewise(EwiseOp::Mul, a, b);
        let d = g.constant(1.0);
        let e = g.ewise(EwiseOp::Add, c, d);
        let (og, root, stats) = optimize(&g, e, &sizes()).unwrap();
        assert_eq!(stats.constants_folded, 2);
        assert_eq!(og.op(root), &Op::Const(7.0));
    }

    #[test]
    fn chain_reordering_picks_cheap_order() {
        // X (1000x20) %*% Y (20x1000) %*% v... build ((X %*% Y) %*% u)
        // with u 1000x1: left-deep costs 1000*20*1000 + 1000*1000*1 = 21M;
        // right-assoc costs 20*1000*1 + 1000*20*1 = 40K.
        let mut g = Graph::new();
        let x = g.input("X");
        let y = g.input("Y");
        let u = g.input("u");
        let xy = g.matmul(x, y);
        let root = g.matmul(xy, u);
        let (og, new_root, stats) = optimize(&g, root, &sizes()).unwrap();
        assert_eq!(stats.chains_reordered, 1);
        // New root should be X %*% (Y %*% u).
        if let Op::MatMul(a, b) = og.op(new_root) {
            assert!(matches!(og.op(*a), Op::Input(n) if n == "X"));
            assert!(matches!(og.op(*b), Op::MatMul(_, _)));
        } else {
            panic!("expected matmul root");
        }
    }

    #[test]
    fn already_optimal_chain_untouched() {
        let mut g = Graph::new();
        let x = g.input("X");
        let y = g.input("Y");
        let u = g.input("u");
        let yu = g.matmul(y, u);
        let root = g.matmul(x, yu);
        let (_, _, stats) = optimize(&g, root, &sizes()).unwrap();
        assert_eq!(stats.chains_reordered, 0);
    }

    #[test]
    fn optimize_without_sizes_still_applies_local_rules() {
        let mut g = Graph::new();
        let x = g.input("Unknown");
        let t = g.transpose(x);
        let tt = g.transpose(t);
        let (og, root, stats) = optimize(&g, tt, &InputSizes::new()).unwrap();
        assert_eq!(stats.double_transpose, 1);
        assert!(matches!(og.op(root), Op::Input(_)));
    }

    #[test]
    fn traced_optimize_reports_cost_win() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mm = g.matmul(t, x);
        let s = g.agg(AggOp::Sum, mm);
        let (_, _, trace) = optimize_traced(&g, s, &sizes(), None).unwrap();
        assert_eq!(trace.stats.crossprod_fused, 1);
        let (before, after) = (trace.cost_before.unwrap(), trace.cost_after.unwrap());
        assert!(after < before, "expected fused plan cheaper: {after} vs {before}");
        assert!(trace.cost_ratio().unwrap() < 1.0);
        assert_eq!(trace.calibrated_ratio(), None, "no model, no calibrated prices");

        // An empty model prices every flop at the static rate, so the
        // calibrated ratio repeats the flop ratio.
        let model = crate::cost::CostModel::default();
        let (_, _, trace) = optimize_traced(&g, s, &sizes(), Some(&model)).unwrap();
        assert_eq!(trace.calibrated_before_ns, Some(before));
        assert_eq!(trace.calibrated_after_ns, Some(after));
    }

    #[test]
    fn traced_optimize_degrades_to_unknown_costs_without_sizes() {
        let mut g = Graph::new();
        let x = g.input("Undeclared");
        let t = g.transpose(x);
        let tt = g.transpose(t);
        let (_, _, trace) = optimize_traced(&g, tt, &InputSizes::new(), None).unwrap();
        assert_eq!(trace.stats.double_transpose, 1);
        assert_eq!(trace.cost_before, None);
        assert_eq!(trace.cost_ratio(), None);
    }

    #[test]
    fn trace_records_into_registry() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mm = g.matmul(t, x);
        let (_, _, trace) = optimize_traced(&g, mm, &sizes(), None).unwrap();
        let reg = StatsRegistry::new();
        trace.record(&reg);
        let rep = reg.report();
        assert_eq!(rep.counter("lang.rewrite.crossprod_fused"), Some(1));
        assert!(rep.gauge("lang.rewrite.est_cost_before").is_some());
        assert_eq!(rep.histogram("lang.rewrite.wall").unwrap().count, 1);
    }

    #[test]
    fn estimated_cost_prices_the_kernel_that_runs() {
        // An input held as CSR runs the sparse kernels, which read its
        // non-zeros; one at 50 % is held dense and costs what a full one does.
        let declared = |sparsity| {
            let mut sizes = InputSizes::new();
            sizes.declare("X", 100, 100, sparsity).declare("v", 100, 1, 1.0);
            sizes
        };
        let mut g = Graph::new();
        let x = g.input("X");
        let v = g.input("v");
        let mm = g.matmul(x, v);
        let cost = |sparsity| estimated_cost(&g, mm, &declared(sparsity)).unwrap();
        assert_eq!(cost(1.0), 2 * 100 * 100);
        assert_eq!(cost(0.5), cost(1.0), "a dense kernel reads every cell");
        assert_eq!(cost(0.05), 2 * 500, "the sparse kernel reads the non-zeros");
    }

    #[test]
    fn render_stability_after_optimize() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mm = g.matmul(t, x);
        let s = g.agg(AggOp::Sum, mm);
        let (og, root, _) = optimize(&g, s, &sizes()).unwrap();
        assert_eq!(og.render(root), "sum(crossprod(X))");
    }
}

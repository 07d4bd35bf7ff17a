//! Static analysis over the expression DAG: an accumulating linter and a
//! rewrite-safety differ.
//!
//! [`size::propagate`](crate::size::propagate) fail-fasts on the first shape
//! error, which is right for the optimizer but wrong for a user-facing
//! check: an analyst wants *every* problem in the script at once. [`analyze`]
//! walks the DAG a single time and collects all findings as [`Diagnostic`]s
//! with node-level provenance:
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `E001` | error | shape mismatch (matmul inner dims, elementwise dims, tmv rows) |
//! | `E002` | error | input used without a declared shape |
//! | `E003` | error | definite domain violation (`log`/`sqrt` of a certainly-negative value, division by the constant zero) |
//! | `W101` | warning | possible domain violation (`log`/`sqrt` over a possibly-negative subexpression, division by a possibly-zero value) |
//! | `W102` | warning | matrix-chain cost: the chain as written costs ≥ 2x the DP-optimal order |
//! | `W103` | warning | certified peak live set exceeds the memory budget even after blocking (see [`analyze_plan`]) |
//! | `H201` | hint | dead node: unreachable from the root |
//! | `H202` | hint | missed fusion: a pattern the rewriter would fuse (`crossprod`, `tmv`, `sumSq`, double transpose) |
//! | `H204` | hint | stale cost model: the calibrated price disagrees with the static estimate by more than 4x (see [`analyze_plan`]) |
//!
//! Findings with the same code on the same node are merged into one
//! diagnostic carrying a use count (rendered as `(x3)`), so a value
//! implicated at many schedule steps reports once.
//!
//! Domain findings come from value-interval propagation: every node gets a
//! conservative `[lo, hi]` bound on its elements, seeded by constants and
//! sharpened through monotone operators (`abs`, `exp`, squares). The fully
//! unknown interval stays silent — warnings fire only on *evidence* of a
//! possibly-invalid operand, never on mere absence of information.
//!
//! The second half of the module is the rewrite-safety differ
//! ([`verify_rewrite`]): after `optimize`, sizes are re-propagated on the
//! rewritten graph and checked against the original. The contract is:
//!
//! 1. the rewritten graph must still size-propagate if the original did;
//! 2. the root shape must be preserved exactly;
//! 3. every sparsity estimate must remain a valid fraction in `[0, 1]`.
//!
//! Sparsity *values* may legitimately shift (fusion and reassociation change
//! the estimator's path), so only validity is enforced, not equality.
//! `optimize` runs this differ automatically in debug builds, turning
//! optimizer bugs into loud panics in every test that exercises a rewrite.

use crate::cache::CompiledProgram;
use crate::expr::{AggOp, EwiseOp, Graph, NodeId, Op, UnaryOp};
use crate::rewrite::{collect_chain_leaves, optimal_chain_cost, original_chain_cost};
use crate::size::{infer_node, propagate, InputSizes, Shape, SizeError, SizeInfo};
use std::collections::HashMap;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program cannot execute correctly.
    Error,
    /// The program may fail or waste resources at runtime.
    Warning,
    /// Stylistic or optimization opportunity.
    Hint,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Hint => write!(f, "hint"),
        }
    }
}

/// Stable diagnostic codes, one per finding category.
pub mod codes {
    /// Shape mismatch between operands.
    pub const SHAPE_MISMATCH: &str = "E001";
    /// Input used without a declared shape.
    pub const UNBOUND_INPUT: &str = "E002";
    /// Definite domain violation (`log`/`sqrt` of a negative value, `x / 0`).
    pub const DOMAIN_VIOLATION: &str = "E003";
    /// Possible domain violation under interval analysis.
    pub const POSSIBLE_DOMAIN: &str = "W101";
    /// Matrix-chain order far from DP-optimal.
    pub const MMCHAIN_COST: &str = "W102";
    /// Certified peak live set exceeds the memory budget even after the
    /// planner blocked everything it could.
    pub const PLAN_EXCEEDS_BUDGET: &str = "W103";
    /// Node unreachable from the analysis root.
    pub const DEAD_NODE: &str = "H201";
    /// Pattern the rewriter would fuse.
    pub const MISSED_FUSION: &str = "H202";
    /// The calibrated cost model disagrees with the static flop estimate by
    /// more than [`DRIFT_FACTOR`](crate::cost::DRIFT_FACTOR) for a kernel —
    /// the static model is stale for this machine.
    pub const COST_MODEL_STALE: &str = "H204";
}

/// One analyzer finding, anchored to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// The node the finding is about.
    pub node: NodeId,
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// How many identical findings (same code, same node) were merged into
    /// this one. Always at least 1.
    pub count: usize,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] at %{}: {}", self.severity, self.code, self.node, self.message)?;
        if self.count > 1 {
            write!(f, " (x{})", self.count)?;
        }
        Ok(())
    }
}

/// Merge diagnostics with identical (code, node) into one entry with a use
/// count, keeping the first message.
fn dedupe_diagnostics(diags: &mut Vec<Diagnostic>) {
    let mut merged: Vec<Diagnostic> = Vec::with_capacity(diags.len());
    for d in diags.drain(..) {
        match merged.iter_mut().find(|p| p.code == d.code && p.node == d.node) {
            Some(prev) => prev.count += d.count,
            None => merged.push(d),
        }
    }
    *diags = merged;
}

/// Everything [`analyze`] learned about a program.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All findings, in node order (errors are not deduplicated against
    /// warnings on the same node).
    pub diagnostics: Vec<Diagnostic>,
    /// Sizes for every node that could be inferred (nodes downstream of a
    /// shape error are absent).
    pub sizes: HashMap<NodeId, SizeInfo>,
}

impl AnalysisReport {
    /// Findings of a given severity.
    pub fn with_severity(&self, s: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity == s)
    }

    /// Count of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.with_severity(Severity::Error).count()
    }

    /// True when no error-severity findings exist.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// All distinct codes reported.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut cs: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        cs.sort_unstable();
        cs.dedup();
        cs
    }

    /// Render the findings with each node's expression for context.
    pub fn render(&self, graph: &Graph) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n    in: {}\n", graph.render(d.node)));
        }
        if self.diagnostics.is_empty() {
            out.push_str("no findings\n");
        }
        out
    }
}

/// A conservative bound on every element of a node's value.
///
/// `TOP` (the full real line) means "no information" and is deliberately
/// treated as silent by the domain checks: warning on every unknown input
/// would bury real findings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (may be `-inf`).
    pub lo: f64,
    /// Upper bound (may be `+inf`).
    pub hi: f64,
}

impl Interval {
    /// The unknown interval: every real number.
    pub const TOP: Interval = Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY };

    /// A single point.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// True when nothing is known.
    pub fn is_top(&self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }

    /// True when zero lies inside the bound.
    pub fn contains_zero(&self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }

    fn add(self, o: Interval) -> Interval {
        Interval { lo: self.lo + o.lo, hi: self.hi + o.hi }
    }

    fn sub(self, o: Interval) -> Interval {
        Interval { lo: self.lo - o.hi, hi: self.hi - o.lo }
    }

    fn mul(self, o: Interval) -> Interval {
        let c = [
            safe_mul(self.lo, o.lo),
            safe_mul(self.lo, o.hi),
            safe_mul(self.hi, o.lo),
            safe_mul(self.hi, o.hi),
        ];
        Interval {
            lo: c.iter().copied().fold(f64::INFINITY, f64::min),
            hi: c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Quotient bound; the full line when the divisor may be zero.
    fn div(self, o: Interval) -> Interval {
        if o.contains_zero() {
            return Interval::TOP;
        }
        let c = [self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi];
        Interval {
            lo: c.iter().copied().fold(f64::INFINITY, f64::min),
            hi: c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Bound on `x*x` for `x` in self (tighter than `mul(self, self)`, which
    /// treats the operands as independent).
    fn square(self) -> Interval {
        if self.lo >= 0.0 {
            Interval { lo: self.lo * self.lo, hi: safe_mul(self.hi, self.hi) }
        } else if self.hi <= 0.0 {
            Interval { lo: self.hi * self.hi, hi: safe_mul(self.lo, self.lo) }
        } else {
            Interval { lo: 0.0, hi: safe_mul(self.lo, self.lo).max(safe_mul(self.hi, self.hi)) }
        }
    }

    fn abs(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            Interval { lo: -self.hi, hi: -self.lo }
        } else {
            Interval { lo: 0.0, hi: (-self.lo).max(self.hi) }
        }
    }

    /// Bound on the sum of exactly `n` values drawn from self.
    fn sum_of(self, n: usize) -> Interval {
        let n = n as f64;
        Interval { lo: safe_mul(self.lo, n), hi: safe_mul(self.hi, n) }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// `a * b` with the convention `0 * inf = 0` (counts and bounds, not limits).
fn safe_mul(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

/// Lint the DAG rooted at `root`: collect every finding in one pass instead
/// of bailing on the first error.
///
/// Shape inference reuses the exact per-node rules of
/// [`size::propagate`](crate::size::propagate) via
/// [`size::infer_node`](crate::size::infer_node); nodes downstream of a shape
/// error are skipped silently (the root cause is already reported).
pub fn analyze(graph: &Graph, root: NodeId, inputs: &InputSizes) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let mut sizes: HashMap<NodeId, SizeInfo> = HashMap::new();
    let mut intervals: HashMap<NodeId, Interval> = HashMap::new();
    let reachable = graph.reachable(root);
    // Every node some matmul reads, over the whole arena: a chain reports
    // once, at its outermost multiply.
    let mut matmul_operand = vec![false; graph.len()];
    for op in graph.nodes() {
        if let Op::MatMul(a, b) = *op {
            matmul_operand[a] = true;
            matmul_operand[b] = true;
        }
    }

    for &id in &reachable {
        // 1. Shape/sparsity inference, accumulating instead of bailing.
        match infer_node(graph, id, inputs, &sizes) {
            Ok(Some(info)) => {
                sizes.insert(id, info);
            }
            Ok(None) => {} // a child already failed; stay silent
            Err(SizeError::UnboundInput(name)) => report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                node: id,
                code: codes::UNBOUND_INPUT,
                count: 1,
                message: format!("input {name:?} has no declared shape"),
            }),
            Err(SizeError::Incompatible { message, .. }) => report.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                node: id,
                code: codes::SHAPE_MISMATCH,
                count: 1,
                message,
            }),
        }

        // 2. Value-interval propagation + domain checks.
        let iv = infer_interval(graph, id, &sizes, &intervals, &mut report.diagnostics);
        intervals.insert(id, iv);

        // 3. Missed-fusion hints.
        fusion_hint(graph, id, &sizes, &mut report.diagnostics);

        // 4. Matrix-chain cost warnings at maximal chain roots.
        if !matmul_operand[id] {
            chain_cost_warning(graph, id, &sizes, &mut report.diagnostics);
        }
    }

    // 5. Dead nodes: allocated in the arena but unreachable from the root.
    let mut live = vec![false; graph.len()];
    for &id in &reachable {
        live[id] = true;
    }
    for (id, &is_live) in live.iter().enumerate() {
        if !is_live {
            report.diagnostics.push(Diagnostic {
                severity: Severity::Hint,
                node: id,
                code: codes::DEAD_NODE,
                count: 1,
                message: format!("node is unreachable from the root ({})", graph.render(id)),
            });
        }
    }

    dedupe_diagnostics(&mut report.diagnostics);
    report.diagnostics.sort_by_key(|d| (d.severity, d.node));
    report.sizes = sizes;
    report
}

/// The plan lints: findings about the plan a [`CompiledProgram`] will run,
/// read off its own certificate and prices (nothing is re-planned), merged
/// and sorted like [`analyze`]'s:
///
/// * `W103` ([`codes::PLAN_EXCEEDS_BUDGET`]) — the certified live set
///   exceeds the budget even after the planner blocked everything it could;
///   one finding per offending step, anchored at the step's largest live
///   value (merged by the dedup pass into a single counted diagnostic per
///   node) — the exact step and node are in the message. Needs a bounded
///   budget.
/// * `H204` ([`codes::COST_MODEL_STALE`]) — the calibrated price of a node
///   (measured GFLOP/s for its op, kernel family, and size class)
///   [`drifted`](crate::cost::drifted) off the static estimate. The static
///   model's threshold decisions
///   ([`PAR_FLOP_THRESHOLD`](crate::physical::PAR_FLOP_THRESHOLD),
///   rewrite cost ratios) are unreliable for that kernel on this machine;
///   plan with the model as
///   [`PlanOptions::cost`](crate::physical::PlanOptions::cost). Needs a
///   program planned with a cost model.
pub fn analyze_plan(prog: &CompiledProgram) -> Vec<Diagnostic> {
    let graph = &prog.graph;
    let mut diags = Vec::new();
    let cert = &prog.certificate;
    let limit = cert.budget.unwrap_or(usize::MAX);
    for su in cert.timeline.iter().filter(|su| su.live_bytes > limit) {
        // Anchor at the largest live value (the thing to shrink); when the
        // step's cost is all pool term, anchor at the executing node.
        let anchor = su
            .live
            .iter()
            .max_by_key(|&&(v, b)| (b, std::cmp::Reverse(v)))
            .map_or(su.node, |&(v, _)| v);
        diags.push(Diagnostic {
            severity: Severity::Warning,
            node: anchor,
            code: codes::PLAN_EXCEEDS_BUDGET,
            count: 1,
            message: format!(
                "certified live set reaches {} B at step {} (%{} {}) but the budget is \
                 {limit} B; even the blocked plan cannot fit — split the program or raise {}",
                su.live_bytes,
                su.step,
                su.node,
                crate::explain::op_label(graph, su.node),
                crate::memory::MEM_BUDGET_ENV,
            ),
        });
    }
    for (&id, c) in prog.costs.iter().flatten().filter(|(_, c)| c.drifted) {
        let op = crate::explain::op_label(graph, id);
        let cal = c.calibrated_ns.unwrap_or(c.static_ns);
        let ratio = cal as f64 / c.static_ns.max(1) as f64;
        diags.push(Diagnostic {
            severity: Severity::Hint,
            node: id,
            code: codes::COST_MODEL_STALE,
            count: 1,
            message: format!(
                "calibrated cost of {op} on the {} kernel is {ratio:.2}x the static \
                 estimate ({cal} ns vs {} ns for {} flops): the static cost model is \
                 stale for this kernel on this machine; pass the CostModel to plan as \
                 PlanOptions::cost",
                c.family, c.static_ns, c.flops,
            ),
        });
    }
    dedupe_diagnostics(&mut diags);
    diags.sort_by_key(|d| (d.severity, d.node));
    diags
}

/// Per-node interval rules; pushes domain diagnostics as a side effect.
fn infer_interval(
    graph: &Graph,
    id: NodeId,
    sizes: &HashMap<NodeId, SizeInfo>,
    intervals: &HashMap<NodeId, Interval>,
    diags: &mut Vec<Diagnostic>,
) -> Interval {
    let iv = |n: &NodeId| intervals.get(n).copied().unwrap_or(Interval::TOP);
    let cells = |n: &NodeId| sizes.get(n).map(|s| s.shape.rows() * s.shape.cols());
    match graph.op(id) {
        Op::Input(_) => Interval::TOP,
        Op::Const(v) => Interval::point(*v),
        Op::Transpose(a) => iv(a),
        Op::MatMul(a, b) => {
            // Each output cell sums k products of one element from each side.
            let prod = iv(a).mul(iv(b));
            match sizes.get(a).map(|s| s.shape.cols()) {
                Some(k) => prod.sum_of(k),
                None if prod.lo >= 0.0 => Interval { lo: 0.0, hi: f64::INFINITY },
                None => Interval::TOP,
            }
        }
        Op::Ewise(e, a, b) => {
            let (ia, ib) = (iv(a), iv(b));
            match e {
                EwiseOp::Add => ia.add(ib),
                EwiseOp::Sub => ia.sub(ib),
                EwiseOp::Mul if a == b => ia.square(),
                EwiseOp::Mul => ia.mul(ib),
                EwiseOp::Div => {
                    if ib.lo == 0.0 && ib.hi == 0.0 {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            node: id,
                            code: codes::DOMAIN_VIOLATION,
                            count: 1,
                            message: "division by the constant zero".into(),
                        });
                    } else if !ib.is_top() && ib.contains_zero() {
                        diags.push(Diagnostic {
                            severity: Severity::Warning,
                            node: id,
                            code: codes::POSSIBLE_DOMAIN,
                            count: 1,
                            message: format!("divisor may be zero: its value is bounded by {ib}"),
                        });
                    }
                    ia.div(ib)
                }
            }
        }
        Op::Unary(u, a) => {
            let ia = iv(a);
            match u {
                UnaryOp::Abs => ia.abs(),
                // The executor's exp is monotone, so its value over the
                // interval lies between its values at the ends.
                UnaryOp::Exp => Interval { lo: u.apply(ia.lo), hi: u.apply(ia.hi) },
                UnaryOp::Log | UnaryOp::Sqrt => {
                    let name = if *u == UnaryOp::Log { "log" } else { "sqrt" };
                    if ia.hi < 0.0 {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            node: id,
                            code: codes::DOMAIN_VIOLATION,
                            count: 1,
                            message: format!(
                                "{name} of a definitely-negative value (bounded by {ia})"
                            ),
                        });
                        return Interval::TOP;
                    }
                    if !ia.is_top() && ia.lo < 0.0 {
                        diags.push(Diagnostic {
                            severity: Severity::Warning,
                            node: id,
                            code: codes::POSSIBLE_DOMAIN,
                            count: 1,
                            message: format!(
                                "{name} over a possibly-negative subexpression (bounded by {ia})"
                            ),
                        });
                    }
                    let lo_clamped = ia.lo.max(0.0);
                    if *u == UnaryOp::Log {
                        Interval { lo: lo_clamped.ln(), hi: ia.hi.ln() }
                    } else {
                        Interval { lo: lo_clamped.sqrt(), hi: ia.hi.sqrt() }
                    }
                }
            }
        }
        Op::Agg(aop, x) => {
            let ix = iv(x);
            match aop {
                AggOp::Min | AggOp::Max => ix,
                AggOp::Sum => match cells(x) {
                    Some(n) => ix.sum_of(n),
                    None if ix.lo >= 0.0 => Interval { lo: 0.0, hi: f64::INFINITY },
                    None => Interval::TOP,
                },
                AggOp::ColSums => match sizes.get(x).map(|s| s.shape.rows()) {
                    Some(r) => ix.sum_of(r),
                    None => Interval::TOP,
                },
                AggOp::RowSums => match sizes.get(x).map(|s| s.shape.cols()) {
                    Some(c) => ix.sum_of(c),
                    None => Interval::TOP,
                },
            }
        }
        Op::CrossProd(a) => {
            // Entries are dot products of column pairs; off-diagonal entries
            // can be negative even for a "nice" input, so only the product
            // bound scaled by the row count is safe.
            let prod = iv(a).mul(iv(a));
            match sizes.get(a).map(|s| s.shape.rows()) {
                Some(r) => prod.sum_of(r),
                None => Interval::TOP,
            }
        }
        Op::Tmv(a, b) => {
            let prod = iv(a).mul(iv(b));
            match sizes.get(a).map(|s| s.shape.rows()) {
                Some(r) => prod.sum_of(r),
                None => Interval::TOP,
            }
        }
        Op::SumSq(a) => {
            let sq = iv(a).square();
            match cells(a) {
                Some(n) => sq.sum_of(n),
                None => Interval { lo: 0.0, hi: f64::INFINITY },
            }
        }
    }
}

/// Hint when a node matches a pattern the rewriter would fuse or eliminate.
fn fusion_hint(
    graph: &Graph,
    id: NodeId,
    sizes: &HashMap<NodeId, SizeInfo>,
    diags: &mut Vec<Diagnostic>,
) {
    let hint = |diags: &mut Vec<Diagnostic>, message: String| {
        diags.push(Diagnostic {
            severity: Severity::Hint,
            node: id,
            code: codes::MISSED_FUSION,
            count: 1,
            message,
        });
    };
    match graph.op(id) {
        Op::MatMul(a, b) => {
            if let Op::Transpose(inner) = graph.op(*a) {
                if inner == b {
                    hint(diags, "t(X) %*% X fuses to crossprod(X), halving the multiplies".into());
                } else if matches!(
                    sizes.get(b).map(|s| s.shape),
                    Some(Shape::Matrix { cols: 1, .. })
                ) {
                    hint(
                        diags,
                        "t(X) %*% v fuses to tmv(X, v), avoiding the transpose materialization"
                            .into(),
                    );
                }
            }
        }
        Op::Agg(AggOp::Sum, x) => {
            if let Op::Ewise(EwiseOp::Mul, p, q) = graph.op(*x) {
                if p == q {
                    hint(diags, "sum(X * X) fuses to sumSq(X), skipping the intermediate".into());
                }
            }
        }
        Op::Transpose(a) => {
            if matches!(graph.op(*a), Op::Transpose(_)) {
                hint(diags, "t(t(X)) cancels to X".into());
            }
        }
        _ => {}
    }
}

/// Warn when the matmul chain rooted at `id` (a matmul no matmul reads),
/// evaluated as written, costs at least twice the DP-optimal association
/// order.
fn chain_cost_warning(
    graph: &Graph,
    id: NodeId,
    sizes: &HashMap<NodeId, SizeInfo>,
    diags: &mut Vec<Diagnostic>,
) {
    if !matches!(graph.op(id), Op::MatMul(_, _)) {
        return;
    }
    let leaves = collect_chain_leaves(graph, id);
    if leaves.len() < 3 {
        return; // two matrices have only one association order
    }
    let dims: Option<Vec<(usize, usize)>> = leaves
        .iter()
        .map(|l| match sizes.get(l).map(|s| s.shape) {
            Some(Shape::Matrix { rows, cols }) => Some((rows, cols)),
            _ => None,
        })
        .collect();
    let Some(dims) = dims else { return };
    let shape_of = |n: NodeId| sizes.get(&n).map(|s| s.shape);
    let Some(as_written) = original_chain_cost(graph, id, &shape_of) else { return };
    let optimal = optimal_chain_cost(&dims);
    if optimal > 0 && as_written >= 2 * optimal {
        diags.push(Diagnostic {
            severity: Severity::Warning,
            node: id,
            code: codes::MMCHAIN_COST,
            count: 1,
            message: format!(
                "chain of {} matrices costs {as_written} multiplies as written vs {optimal} \
                 in the optimal order ({:.1}x); the optimizer's chain reordering would fix this",
                leaves.len(),
                as_written as f64 / optimal as f64
            ),
        });
    }
}

/// Violations of the rewrite-safety contract found by [`verify_rewrite`].
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteCheckError {
    /// The rewritten graph no longer size-propagates though the original did.
    SizeRegression {
        /// The propagation failure on the rewritten graph.
        error: SizeError,
    },
    /// The rewrite changed the root's shape.
    RootShapeChanged {
        /// Shape of the original root.
        original: Shape,
        /// Shape of the rewritten root.
        rewritten: Shape,
    },
    /// A sparsity estimate left the valid `[0, 1]` range.
    InvalidSparsity {
        /// Offending node in the rewritten graph.
        node: NodeId,
        /// The out-of-range estimate.
        sparsity: f64,
    },
}

impl fmt::Display for RewriteCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteCheckError::SizeRegression { error } => {
                write!(f, "rewritten graph fails size propagation: {error}")
            }
            RewriteCheckError::RootShapeChanged { original, rewritten } => {
                write!(f, "rewrite changed the root shape: {original:?} -> {rewritten:?}")
            }
            RewriteCheckError::InvalidSparsity { node, sparsity } => {
                write!(f, "rewritten node %{node} has sparsity estimate {sparsity} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for RewriteCheckError {}

/// The rewrite-safety differ: statically re-propagate sizes on a rewritten
/// graph and check it against the original.
///
/// Returns `Ok(())` when the original graph does not size-propagate (there
/// is nothing to compare against — `optimize` accepts such graphs and only
/// applies size-oblivious rules to them).
pub fn verify_rewrite(
    original: &Graph,
    original_root: NodeId,
    rewritten: &Graph,
    rewritten_root: NodeId,
    inputs: &InputSizes,
) -> Result<(), RewriteCheckError> {
    let Ok(before) = propagate(original, original_root, inputs) else {
        return Ok(());
    };
    let after = propagate(rewritten, rewritten_root, inputs)
        .map_err(|error| RewriteCheckError::SizeRegression { error })?;

    let orig_shape = before[&original_root].shape;
    let new_shape = after[&rewritten_root].shape;
    // Scalars and 1x1 matrices are interchangeable at runtime; anything else
    // must match exactly.
    let dims = |s: Shape| (s.rows(), s.cols());
    if dims(orig_shape) != dims(new_shape) {
        return Err(RewriteCheckError::RootShapeChanged {
            original: orig_shape,
            rewritten: new_shape,
        });
    }

    for (node, info) in &after {
        if !(0.0..=1.0).contains(&info.sparsity) || info.sparsity.is_nan() {
            return Err(RewriteCheckError::InvalidSparsity {
                node: *node,
                sparsity: info.sparsity,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::memory::MemoryBudget;
    use crate::physical::PlanOptions;

    fn inputs() -> InputSizes {
        let mut i = InputSizes::new();
        i.declare("X", 100, 10, 1.0);
        i.declare("v", 10, 1, 1.0);
        i.declare("u", 100, 1, 1.0);
        i
    }

    #[test]
    fn clean_program_has_no_findings() {
        let mut g = Graph::new();
        let x = g.input("X");
        let v = g.input("v");
        let xv = g.matmul(x, v);
        let s = g.agg(AggOp::Sum, xv);
        let r = analyze(&g, s, &inputs());
        assert!(r.is_clean(), "{}", r.render(&g));
        assert!(r.diagnostics.is_empty(), "{}", r.render(&g));
        assert_eq!(r.sizes[&s].shape, Shape::Scalar);
    }

    #[test]
    fn collects_multiple_errors_in_one_pass() {
        // Two independent shape errors plus an unbound input: all reported.
        let mut g = Graph::new();
        let x = g.input("X");
        let bad_mm = g.matmul(x, x); // 100x10 %*% 100x10
        let v = g.input("v");
        let bad_ew = g.ewise(EwiseOp::Add, x, v); // 100x10 + 10x1
        let w = g.input("undeclared");
        let joined = g.ewise(EwiseOp::Mul, bad_ew, w);
        let paired = g.ewise(EwiseOp::Sub, bad_mm, joined);
        let root = g.agg(AggOp::Sum, paired);
        let r = analyze(&g, root, &inputs());
        assert_eq!(r.error_count(), 3, "{}", r.render(&g));
        let codes = r.codes();
        assert!(codes.contains(&codes::SHAPE_MISMATCH));
        assert!(codes.contains(&codes::UNBOUND_INPUT));
        // Provenance: the matmul error is anchored to the matmul node.
        assert!(r.diagnostics.iter().any(|d| d.node == bad_mm && d.code == codes::SHAPE_MISMATCH));
    }

    #[test]
    fn log_of_negative_constant_is_error() {
        let mut g = Graph::new();
        let c = g.constant(-2.0);
        let l = g.unary(UnaryOp::Log, c);
        let r = analyze(&g, l, &inputs());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.diagnostics[0].code, codes::DOMAIN_VIOLATION);
        assert_eq!(r.diagnostics[0].node, l);
    }

    #[test]
    fn sqrt_of_possibly_negative_warns() {
        // X - 5 could be negative even if X were nonnegative; but X is TOP,
        // so X - 5 is TOP and stays silent. Use abs(X) - 5: [−5, inf).
        let mut g = Graph::new();
        let x = g.input("X");
        let ax = g.unary(UnaryOp::Abs, x);
        let c = g.constant(5.0);
        let shifted = g.ewise(EwiseOp::Sub, ax, c);
        let s = g.unary(UnaryOp::Sqrt, shifted);
        let root = g.agg(AggOp::Sum, s);
        let r = analyze(&g, root, &inputs());
        assert!(r.is_clean());
        let warns: Vec<_> = r.with_severity(Severity::Warning).collect();
        assert_eq!(warns.len(), 1, "{}", r.render(&g));
        assert_eq!(warns[0].code, codes::POSSIBLE_DOMAIN);
        assert_eq!(warns[0].node, s);
    }

    #[test]
    fn unknown_operand_stays_silent() {
        // log(X) with X fully unknown: no evidence, no warning.
        let mut g = Graph::new();
        let x = g.input("X");
        let l = g.unary(UnaryOp::Log, x);
        let root = g.agg(AggOp::Sum, l);
        let r = analyze(&g, root, &inputs());
        assert!(r.diagnostics.is_empty(), "{}", r.render(&g));
    }

    #[test]
    fn division_by_constant_zero_is_error() {
        let mut g = Graph::new();
        let x = g.input("X");
        let z = g.constant(0.0);
        let d = g.ewise(EwiseOp::Div, x, z);
        let root = g.agg(AggOp::Sum, d);
        let r = analyze(&g, root, &inputs());
        assert_eq!(r.error_count(), 1);
        assert!(r.diagnostics.iter().any(|d2| d2.node == d && d2.code == codes::DOMAIN_VIOLATION));
    }

    #[test]
    fn division_by_possibly_zero_warns() {
        // abs(X) is [0, inf): contains zero but is not all-unknown.
        let mut g = Graph::new();
        let x = g.input("X");
        let ax = g.unary(UnaryOp::Abs, x);
        let d = g.ewise(EwiseOp::Div, x, ax);
        let root = g.agg(AggOp::Sum, d);
        let r = analyze(&g, root, &inputs());
        assert!(r.is_clean());
        assert!(r.diagnostics.iter().any(|d2| d2.node == d && d2.code == codes::POSSIBLE_DOMAIN));
    }

    #[test]
    fn dead_nodes_are_hinted() {
        let mut g = Graph::new();
        let x = g.input("X");
        let root = g.agg(AggOp::Sum, x);
        let orphan = g.input("v");
        let orphan2 = g.transpose(orphan);
        let r = analyze(&g, root, &inputs());
        let dead: Vec<NodeId> =
            r.diagnostics.iter().filter(|d| d.code == codes::DEAD_NODE).map(|d| d.node).collect();
        assert_eq!(dead, vec![orphan, orphan2]);
    }

    #[test]
    fn missed_fusion_hints_fire() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let cp = g.matmul(t, x); // crossprod pattern
        let sq = g.ewise(EwiseOp::Mul, x, x);
        let ss = g.agg(AggOp::Sum, sq); // sumsq pattern
        let scaled = g.ewise(EwiseOp::Mul, cp, ss);
        let root = g.agg(AggOp::Sum, scaled);
        let r = analyze(&g, root, &inputs());
        let fusions: Vec<NodeId> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::MISSED_FUSION)
            .map(|d| d.node)
            .collect();
        assert!(fusions.contains(&cp), "{}", r.render(&g));
        assert!(fusions.contains(&ss), "{}", r.render(&g));
    }

    #[test]
    fn tmv_and_double_transpose_hints() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let u = g.input("u");
        let tmv = g.matmul(t, u);
        let tt_in = g.transpose(t); // t(t(X))
        let joined = g.matmul(tt_in, tmv);
        let root = g.agg(AggOp::Sum, joined);
        let r = analyze(&g, root, &inputs());
        let fusions: Vec<NodeId> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::MISSED_FUSION)
            .map(|d| d.node)
            .collect();
        assert!(fusions.contains(&tmv), "{}", r.render(&g));
        assert!(fusions.contains(&tt_in), "{}", r.render(&g));
    }

    #[test]
    fn mmchain_warning_on_bad_order() {
        // (X %*% Y) %*% u: 1000x20 * 20x1000 * 1000x1.
        // Left-deep: 20M + 1M = 21M multiplies; optimal: 20K + 20K = 40K.
        let mut i = InputSizes::new();
        i.declare("X", 1000, 20, 1.0);
        i.declare("Y", 20, 1000, 1.0);
        i.declare("u", 1000, 1, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let y = g.input("Y");
        let u = g.input("u");
        let xy = g.matmul(x, y);
        let root = g.matmul(xy, u);
        let r = analyze(&g, root, &i);
        let w: Vec<_> = r.diagnostics.iter().filter(|d| d.code == codes::MMCHAIN_COST).collect();
        assert_eq!(w.len(), 1, "{}", r.render(&g));
        assert_eq!(w[0].node, root);

        // The optimal order gets no warning.
        let mut g2 = Graph::new();
        let x = g2.input("X");
        let y = g2.input("Y");
        let u = g2.input("u");
        let yu = g2.matmul(y, u);
        let root2 = g2.matmul(x, yu);
        let r2 = analyze(&g2, root2, &i);
        assert!(r2.diagnostics.iter().all(|d| d.code != codes::MMCHAIN_COST));
    }

    #[test]
    fn report_renders_with_provenance() {
        let mut g = Graph::new();
        let c = g.constant(-1.0);
        let l = g.unary(UnaryOp::Log, c);
        let r = analyze(&g, l, &inputs());
        let text = r.render(&g);
        assert!(text.contains("E003"), "{text}");
        assert!(text.contains("log(-1)"), "{text}");
    }

    #[test]
    fn interval_arithmetic_basics() {
        let a = Interval { lo: -2.0, hi: 3.0 };
        let b = Interval { lo: 1.0, hi: 4.0 };
        assert_eq!(a.add(b), Interval { lo: -1.0, hi: 7.0 });
        assert_eq!(a.sub(b), Interval { lo: -6.0, hi: 2.0 });
        assert_eq!(a.mul(b), Interval { lo: -8.0, hi: 12.0 });
        assert_eq!(a.square(), Interval { lo: 0.0, hi: 9.0 });
        assert_eq!(a.abs(), Interval { lo: 0.0, hi: 3.0 });
        assert!(a.div(a).is_top(), "divisor spans zero");
        assert_eq!(
            Interval::point(6.0).div(Interval { lo: 2.0, hi: 3.0 }),
            Interval { lo: 2.0, hi: 3.0 }
        );
        assert_eq!(b.sum_of(3), Interval { lo: 3.0, hi: 12.0 });
        assert_eq!(Interval::TOP.sum_of(0), Interval { lo: 0.0, hi: 0.0 });
    }

    #[test]
    fn differ_accepts_real_optimizer_output() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mm = g.matmul(t, x);
        let s = g.agg(AggOp::Sum, mm);
        let i = inputs();
        let (og, root, _) = crate::rewrite::optimize(&g, s, &i).unwrap();
        verify_rewrite(&g, s, &og, root, &i).unwrap();
    }

    #[test]
    fn differ_rejects_shape_change() {
        // Simulate a buggy rewrite: replace sum(X) with colSums(X).
        let mut g = Graph::new();
        let x = g.input("X");
        let s = g.agg(AggOp::Sum, x);
        let mut bad = Graph::new();
        let x2 = bad.input("X");
        let cs = bad.agg(AggOp::ColSums, x2);
        let err = verify_rewrite(&g, s, &bad, cs, &inputs()).unwrap_err();
        assert!(matches!(err, RewriteCheckError::RootShapeChanged { .. }), "{err}");
    }

    #[test]
    fn differ_rejects_size_regression() {
        // Buggy rewrite introduces a shape error that the original lacked.
        let mut g = Graph::new();
        let x = g.input("X");
        let v = g.input("v");
        let xv = g.matmul(x, v);
        let s = g.agg(AggOp::Sum, xv);
        let mut bad = Graph::new();
        let x2 = bad.input("X");
        let bad_mm = bad.matmul(x2, x2);
        let s2 = bad.agg(AggOp::Sum, bad_mm);
        let err = verify_rewrite(&g, s, &bad, s2, &inputs()).unwrap_err();
        assert!(matches!(err, RewriteCheckError::SizeRegression { .. }), "{err}");
    }

    /// The plan lints of `root` planned serially under `budget` and `cost`.
    fn plan_lints(
        g: &Graph,
        root: NodeId,
        i: &InputSizes,
        budget: MemoryBudget,
        cost: Option<&CostModel>,
    ) -> Vec<Diagnostic> {
        let opts = PlanOptions { budget, cost, ..PlanOptions::new(i) };
        analyze_plan(&CompiledProgram::new(g.clone(), root, &opts).unwrap())
    }

    /// A model holding five samples of `op` on `family` at `flops` flops,
    /// each taking `ns`.
    fn model_of(op: &str, family: &str, flops: u64, ns: u64) -> CostModel {
        let mut store = dm_obs::ProfileStore::new();
        for _ in 0..5 {
            store.record(op, family, flops, ns);
        }
        CostModel::new(store)
    }

    #[test]
    fn budget_overflow_warns_with_step_provenance_and_merged_counts() {
        // max(exp(X)) has no blockable operator: the planner cannot help, so
        // W103 fires. X is the largest live value at two over-budget steps;
        // the dedup pass merges them into one counted diagnostic. (Under a
        // `sum`, exp(X) would fuse and never be live.)
        let mut i = InputSizes::new();
        i.declare("X", 256, 256, 1.0); // 512 KB
        let mut g = Graph::new();
        let x = g.input("X");
        let u = g.unary(UnaryOp::Exp, x);
        let root = g.agg(AggOp::Max, u);
        let w = plan_lints(&g, root, &i, MemoryBudget::bytes(400_000), None);
        assert!(w.iter().all(|d| d.code == codes::PLAN_EXCEEDS_BUDGET), "{w:?}");
        assert_eq!(w.len(), 2, "{w:?}");
        let at_x = w.iter().find(|d| d.node == x).expect("anchored at X");
        assert_eq!(at_x.count, 2, "X is the largest live value at two steps");
        assert!(at_x.to_string().contains("(x2)"), "{at_x}");
        assert!(at_x.message.contains("step 0"), "{}", at_x.message);
        assert!(w.iter().any(|d| d.node == u && d.count == 1), "{w:?}");
    }

    #[test]
    fn unbounded_budget_adds_no_memory_findings() {
        let mut g = Graph::new();
        let x = g.input("X");
        let root = g.agg(AggOp::Sum, x);
        let r = plan_lints(&g, root, &inputs(), MemoryBudget::unbounded(), None);
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn fitting_plans_get_no_memory_findings() {
        // The planner's blocked plan fits: no W103.
        let mut i = InputSizes::new();
        i.declare("X", 100_000, 200, 1.0); // 160 MB
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(Op::CrossProd(x));
        let r = plan_lints(&g, cp, &i, MemoryBudget::bytes(1 << 20), None);
        assert!(r.iter().all(|d| d.code != codes::PLAN_EXCEEDS_BUDGET), "{r:?}");
    }

    #[test]
    fn stale_cost_model_hint_fires_on_drift() {
        // crossprod on 1000x20 = 4e5 flops. A model that measured the fused
        // kernel at 8 GFLOP/s disagrees with the 1 GFLOP/s static assumption
        // by 8x > DRIFT_FACTOR: H204 fires on the crossprod node only.
        let mut i = InputSizes::new();
        i.declare("X", 1000, 20, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(Op::CrossProd(x));
        let root = g.agg(AggOp::Sum, cp);
        let unbounded = MemoryBudget::unbounded();
        let model = model_of("crossprod", "fused", 400_000, 50_000); // 8 GFLOP/s
        let hints = plan_lints(&g, root, &i, unbounded, Some(&model));
        assert!(hints.iter().all(|d| d.code == codes::COST_MODEL_STALE), "{hints:?}");
        assert_eq!(hints.len(), 1, "{hints:?}");
        assert_eq!(hints[0].node, cp);
        assert!(hints[0].message.contains("stale"), "{}", hints[0].message);
        assert!(hints[0].message.contains("PlanOptions::cost"), "{}", hints[0].message);

        // Within DRIFT_FACTOR (2 GFLOP/s): silent.
        let model = model_of("crossprod", "fused", 400_000, 200_000);
        assert!(plan_lints(&g, root, &i, unbounded, Some(&model)).is_empty());

        // Empty model, or none: nothing to report.
        assert!(plan_lints(&g, root, &i, unbounded, Some(&CostModel::default())).is_empty());
        assert!(plan_lints(&g, root, &i, unbounded, None).is_empty());
    }

    #[test]
    fn stale_cost_hint_prices_the_blocked_kernel_that_runs() {
        // Under a 1 MiB budget the add of two 2 MiB operands runs blocked.
        // A profile holding only blocked samples of that add must drive H204
        // on it: the lint reads the budgeted plan, not a dense re-plan.
        let mut i = InputSizes::new();
        i.declare("X", 512, 512, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let add = g.ewise(EwiseOp::Add, x, x);
        let root = g.agg(AggOp::Sum, add);
        let budget = MemoryBudget::bytes(1 << 20);
        let plain =
            CompiledProgram::new(g.clone(), root, &PlanOptions { budget, ..PlanOptions::new(&i) })
                .unwrap();
        assert_eq!(plain.plan.nodes_with(crate::physical::Kernel::Blocked), vec![add]);
        let flops = crate::physical::node_flops(&g, add, &plain.sizes) as u64;
        let model = model_of("ewise +", "blocked", flops, flops * 10); // 0.1 GFLOP/s
        let opts = PlanOptions { budget, cost: Some(&model), ..PlanOptions::new(&i) };
        let prog = CompiledProgram::new(g, root, &opts).unwrap();
        let mut hints = analyze_plan(&prog);
        hints.retain(|d| d.code == codes::COST_MODEL_STALE);
        assert_eq!(hints.len(), 1, "{hints:?}");
        assert_eq!(hints[0].node, add);
        let family = crate::cost::node_family(&prog.graph, add, &prog.plan);
        assert_eq!(family, "blocked");
        assert!(hints[0].message.contains("on the blocked kernel"), "{}", hints[0].message);
    }

    #[test]
    fn differ_tolerates_unpropagatable_original() {
        let mut g = Graph::new();
        let x = g.input("Undeclared");
        let t = g.transpose(x);
        let mut og = Graph::new();
        let x2 = og.input("Undeclared");
        let t2 = og.transpose(x2);
        assert_eq!(verify_rewrite(&g, t, &og, t2, &InputSizes::new()), Ok(()));
    }
}

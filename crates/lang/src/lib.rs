//! # dm-lang
//!
//! A small declarative linear-algebra language compiled the way the surveyed
//! declarative ML systems compile their scripts: an expression DAG of logical
//! operators ("HOPs"), size/sparsity propagation, a logical rewrite engine
//! (common-subexpression elimination, transpose elimination, fused-operator
//! patterns like `t(X)%*%X` and `sum(X^2)`, matrix-chain reordering), and a
//! physical layer that picks dense or sparse kernels per operator before an
//! interpreter executes the plan.
//!
//! Programs can be built through the [`expr::Graph`] API or parsed from an
//! R-like surface syntax:
//!
//! ```
//! use dm_lang::{parser, exec::{Env, Executor}};
//! use dm_matrix::{Dense, Matrix};
//!
//! let (graph, root) = parser::parse("sum(t(X) %*% X)").unwrap();
//! let mut env = Env::new();
//! env.bind("X", Matrix::Dense(Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])));
//! let mut ex = Executor::new(&graph);
//! let result = ex.eval(root, &env).unwrap();
//! // t(X)%*%X = [[10, 14], [14, 20]]; its sum is 58.
//! assert_eq!(result.as_scalar().unwrap(), 58.0);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod cache;
pub mod cost;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod liveness;
pub mod memory;
pub mod parser;
pub mod physical;
pub mod rewrite;
pub mod size;

pub use analyze::{
    analyze, analyze_plan, verify_rewrite, AnalysisReport, Diagnostic, RewriteCheckError, Severity,
};
pub use cache::{
    compile, compile_graph, program_hash, CompileError, CompiledProgram, InputClass, PlanCache,
    PlanKey,
};
pub use cost::{CostModel, NodeCost};
pub use exec::{Env, ExecError, ExecProfile, Executor, KernelChoice, NodeStats, Val};
pub use explain::{explain, profile_report};
pub use expr::{AggOp, EwiseOp, Graph, NodeId, Op, UnaryOp};
pub use liveness::{
    certify_plan, certify_schedule, min_peak_order, PlanCertificate, Schedule, StepUsage, Verdict,
};
pub use memory::{MemoryBudget, MEM_BUDGET_ENV};
pub use physical::PlanOptions;
pub use rewrite::{estimated_cost, optimize, optimize_traced, RewriteStats, RewriteTrace};
pub use size::{Shape, SizeInfo};

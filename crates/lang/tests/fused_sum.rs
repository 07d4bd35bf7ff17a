//! `sum(f(A))` runs as one fused pass when the plan fuses it, and must
//! return the bits of the unfused evaluation, in every executor the plan
//! runs on: plain, and profiled and traced as the scoring server builds it.
//!
//! The unfused paths are forced by giving a node a second consumer.
//! Sharing `f(A)` runs the materializing path: `f(A)` is computed, stored
//! and summed. Sharing the product `A = X %*% W` stores `A` and folds `f`
//! over it. With neither shared and both operands dense in memory, `X %*% W`
//! is streamed in row panels and never materialized; `no_copy.rs` owns that
//! property, bounding the bytes one eval allocates.

use dm_lang::exec::{Env, Executor};
use dm_lang::expr::{AggOp, EwiseOp, Graph, NodeId, UnaryOp};
use dm_lang::memory::MemoryBudget;
use dm_lang::physical::{Kernel, PlanOptions};
use dm_lang::size::InputSizes;
use dm_lang::CompiledProgram;
use dm_matrix::{ops, Dense, Matrix};

/// 1100 rows: two `ROW_BLOCK` panels, the second short. 1100 x 64 x 120 is
/// 16.9 Mflop, past the planner's parallel threshold.
const ROWS: usize = 1100;
const COLS: usize = 64;
const OUT: usize = 120;

/// Which node besides `sum(f(A))` reads part of it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shared {
    /// Nothing: the fused, streamed path.
    Nothing,
    /// `max(A)` also reads the product.
    Product,
    /// `max(f(A))` also reads the mapped product.
    Mapped,
}

/// How the program is planned.
#[derive(Clone, Copy, Debug)]
enum Config {
    /// In memory at this degree.
    Degree(usize),
    /// Serial under a budget of a quarter of X: the matmul runs blocked.
    Blocked,
    /// At degree 2 on the server's executor: `Executor::with_plan(..)
    /// .profiled().traced()`.
    Served,
}

struct Case {
    name: &'static str,
    x: Dense,
    w: Dense,
    /// The declared sparsity of X: below the planner's CSR threshold, X is
    /// converted to CSR and the matmul runs the sparse kernel.
    x_sparsity: f64,
    fs: &'static [UnaryOp],
}

const ALL: &[UnaryOp] = &[UnaryOp::Exp, UnaryOp::Abs, UnaryOp::Sqrt, UnaryOp::Log];

/// Non-negative values with exact `0.0` and `-0.0` mixed in. Every row has
/// a positive entry, so with a positive `W` the product is positive and
/// `sqrt` and `log` stay finite.
fn non_negative(rows: usize, cols: usize, seed: usize) -> Dense {
    Dense::from_fn(rows, cols, |r, c| match (r * 7 + c * 3 + seed) % 13 {
        0 if c > 0 => 0.0,
        1 if c > 0 => -0.0,
        _ => ((r * 31 + c * 17 + seed) % 23) as f64 * 0.004 + 0.001,
    })
}

fn cases() -> Vec<Case> {
    let signed = Dense::from_fn(ROWS, COLS, |r, c| ((r * 31 + c * 17) % 23) as f64 * 0.01 - 0.11);
    // A -inf in W makes a column of the product -inf except where the zero
    // skip of the reference gemm body (which a non-finite W selects) keeps
    // it finite; exp maps -inf to 0, so the sum is finite only if every
    // path honours the skip.
    let mut neg_inf = non_negative(COLS, OUT, 5);
    neg_inf.set(3, 7, f64::NEG_INFINITY);
    let sparse = Dense::from_fn(ROWS, COLS, |r, c| {
        if (r * COLS + c).is_multiple_of(23) {
            (r % 7) as f64 * 0.1 + 0.05
        } else {
            0.0
        }
    });
    vec![
        Case {
            name: "positive",
            x: non_negative(ROWS, COLS, 1),
            w: non_negative(COLS, OUT, 2),
            x_sparsity: 1.0,
            fs: ALL,
        },
        Case {
            name: "signed",
            x: signed,
            w: non_negative(COLS, OUT, 3),
            x_sparsity: 1.0,
            fs: &[UnaryOp::Exp, UnaryOp::Abs],
        },
        Case {
            name: "non-finite W",
            x: non_negative(ROWS, COLS, 4),
            w: neg_inf,
            x_sparsity: 1.0,
            fs: &[UnaryOp::Exp],
        },
        Case {
            name: "sparse X",
            x: sparse,
            w: non_negative(COLS, OUT, 6),
            x_sparsity: 0.05,
            fs: &[UnaryOp::Exp, UnaryOp::Abs],
        },
    ]
}

/// `sum(f(X %*% W))`, with a second consumer per `shared`. A second
/// consumer `other` joins the root as `sum + (other - other)`: every case
/// keeps `other` finite, so that adds `+0.0` to a positive sum and the root
/// carries the sum's bits. Returns the graph, its root and the product node.
fn program(f: UnaryOp, shared: Shared) -> (Graph, NodeId, NodeId) {
    let mut g = Graph::new();
    let (x, w) = (g.input("X"), g.input("W"));
    let product = g.matmul(x, w);
    let mapped = g.unary(f, product);
    let sum = g.agg(AggOp::Sum, mapped);
    let other = match shared {
        Shared::Nothing => return (g, sum, product),
        Shared::Product => g.agg(AggOp::Max, product),
        Shared::Mapped => g.agg(AggOp::Max, mapped),
    };
    let zero = g.ewise(EwiseOp::Sub, other, other);
    let root = g.ewise(EwiseOp::Add, sum, zero);
    (g, root, product)
}

/// The bits of the program's root, which are those of its `sum(f(A))`.
fn sum_bits(c: &Case, f: UnaryOp, shared: Shared, config: Config) -> u64 {
    let (g, root, product) = program(f, shared);
    let mut sizes = InputSizes::new();
    sizes.declare("X", ROWS, COLS, c.x_sparsity);
    sizes.declare("W", COLS, OUT, 1.0);
    let opts = match config {
        Config::Degree(degree) => PlanOptions { degree, ..PlanOptions::new(&sizes) },
        Config::Served => PlanOptions { degree: 2, ..PlanOptions::new(&sizes) },
        Config::Blocked => PlanOptions {
            budget: MemoryBudget::bytes(ROWS * COLS * 8 / 4),
            ..PlanOptions::new(&sizes)
        },
    };
    let plan = CompiledProgram::new(g.clone(), root, &opts).unwrap().plan;
    let what = format!("{} {f:?} {shared:?} {config:?}", c.name);
    // The sparse kernel is never blocked or parallel.
    let dense_kernel = match config {
        Config::Blocked => Kernel::Blocked,
        Config::Degree(1) => Kernel::Dense,
        Config::Degree(_) | Config::Served => Kernel::Parallel,
    };
    if c.x_sparsity == 1.0 {
        assert_eq!(plan.kernel(product), dense_kernel, "{what}");
    } else {
        assert_eq!(plan.kernel(g.op(product).children()[0]), Kernel::Sparse, "{what}");
    }
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(c.x.clone()));
    env.bind("W", Matrix::Dense(c.w.clone()));
    let executor = Executor::with_plan(&g, plan);
    let mut executor = match config {
        Config::Served => executor.without_env_sinks().profiled().traced(),
        _ => executor,
    };
    let bits = executor.eval(root, &env).unwrap().as_scalar().unwrap().to_bits();
    assert!(f64::from_bits(bits).is_finite(), "{what}: {}", f64::from_bits(bits));
    if shared == Shared::Nothing && c.x_sparsity == 1.0 {
        if let Some(profile) = executor.profile() {
            // The streamed product has no step of its own.
            assert!(profile.node(product).is_none(), "{what}: the product ran at its own step");
        }
    }
    bits
}

#[test]
fn fused_sum_returns_the_unfused_bits() {
    let configs =
        [Config::Degree(1), Config::Degree(2), Config::Degree(4), Config::Blocked, Config::Served];
    for c in cases() {
        for &f in c.fs {
            let want = sum_bits(&c, f, Shared::Mapped, Config::Degree(1));
            if c.x_sparsity == 1.0 {
                // The reference: the op's own one-value function (for exp
                // the in-tree `kernel::exp`) over the product, summed.
                let product = ops::gemm(&c.x, &c.w);
                let reference = ops::sum(&product.map(|v| f.apply(v)));
                assert_eq!(reference.to_bits(), want, "{} {f:?} reference", c.name);
            }
            for shared in [Shared::Nothing, Shared::Product, Shared::Mapped] {
                for config in configs {
                    assert_eq!(
                        sum_bits(&c, f, shared, config),
                        want,
                        "{} {f:?} {shared:?} {config:?}",
                        c.name
                    );
                }
            }
        }
    }
}

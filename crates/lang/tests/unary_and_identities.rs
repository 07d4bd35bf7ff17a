//! Tests for elementwise unary functions and algebraic-identity rewrites.

use dm_lang::exec::{Env, Executor, Val};
use dm_lang::expr::{Graph, Op, UnaryOp};
use dm_lang::parser;
use dm_lang::rewrite::optimize;
use dm_lang::size::InputSizes;
use dm_matrix::{kernel, Csr, Dense, Matrix};

fn env() -> Env {
    let mut e = Env::new();
    e.bind("X", Matrix::Dense(Dense::from_rows(&[&[1.0, 4.0], &[9.0, 16.0]])));
    e
}

fn eval(src: &str, env: &Env) -> f64 {
    let (g, root) = parser::parse(src).unwrap();
    let mut ex = Executor::new(&g);
    ex.eval(root, env).unwrap().as_scalar().unwrap()
}

#[test]
fn unary_functions_parse_and_execute() {
    let e = env();
    assert!((eval("sum(sqrt(X))", &e) - (1.0 + 2.0 + 3.0 + 4.0)).abs() < 1e-12);
    assert!((eval("sum(abs(0 - X))", &e) - 30.0).abs() < 1e-12);
    assert!((eval("exp(0)", &e) - 1.0).abs() < 1e-12);
    assert!((eval("log(exp(1))", &e) - 1.0).abs() < 1e-12);
    assert!((eval("sum(log(exp(X)))", &e) - 30.0).abs() < 1e-9);
}

#[test]
fn sqrt_on_sparse_preserves_sparsity() {
    let d = Dense::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
    let mut g = Graph::new();
    let s = g.input("S");
    let r = g.unary(UnaryOp::Sqrt, s);
    let mut env = Env::new();
    env.bind("S", Matrix::Sparse(Csr::from_dense(&d)));
    let mut ex = Executor::new(&g);
    let Val::Matrix(m) = ex.eval(r, &env).unwrap() else { panic!("sqrt(S) is a matrix") };
    match &*m {
        Matrix::Sparse(sp) => {
            assert_eq!(sp.nnz(), 2, "sqrt must keep the sparse representation");
            assert_eq!(sp.get(0, 0), 2.0);
            assert_eq!(sp.get(1, 1), 3.0);
        }
        other => panic!("expected sparse result, got {other:?}"),
    }
}

#[test]
fn exp_on_sparse_densifies() {
    let d = Dense::from_rows(&[&[0.0, 1.0]]);
    let mut g = Graph::new();
    let s = g.input("S");
    let r = g.unary(UnaryOp::Exp, s);
    let mut env = Env::new();
    env.bind("S", Matrix::Sparse(Csr::from_dense(&d)));
    let mut ex = Executor::new(&g);
    let out = ex.eval(r, &env).unwrap().as_dense().unwrap();
    assert!((out.get(0, 0) - 1.0).abs() < 1e-12, "exp(0) = 1 must appear");
    assert!((out.get(0, 1) - std::f64::consts::E).abs() < 1e-12);
}

#[test]
fn unary_constant_folding() {
    let (g, root) = parser::parse("sqrt(16) + exp(0)").unwrap();
    let (og, oroot, stats) = optimize(&g, root, &InputSizes::new()).unwrap();
    assert!(stats.constants_folded >= 2);
    assert_eq!(og.op(oroot), &Op::Const(5.0));
}

#[test]
fn a_folded_exp_has_the_bits_of_an_executed_one() {
    // Constants where the in-tree exp and libm's differ (so a folder that
    // called libm would show), the edges of its table path, a tiny one and
    // the ones whose results overflow and underflow.
    let witnesses = (0..100_000).map(|i| i as f64 * 1e-3 - 50.0);
    let mut cs: Vec<f64> = witnesses.filter(|c| kernel::exp(*c) != c.exp()).take(3).collect();
    assert_eq!(cs.len(), 3, "witnesses where the in-tree exp differs from libm");
    cs.extend([0.0, 1e-300, 707.9, 708.1, 709.9, -707.9, -708.1, -745.0, -746.0]);
    for c in cs {
        let want = kernel::exp(c).to_bits();
        let arg = if c < 0.0 { format!("0 - {:?}", -c) } else { format!("{c:?}") };
        let (g, root) = parser::parse(&format!("exp({arg})")).unwrap();
        let (og, oroot, _) = optimize(&g, root, &InputSizes::new()).unwrap();
        let &Op::Const(folded) = og.op(oroot) else { panic!("exp({arg}) folds to a constant") };
        assert_eq!(folded.to_bits(), want, "folded exp({arg})");
        assert_eq!(eval(&format!("exp({arg})"), &env()).to_bits(), want, "executed exp({arg})");
        // On a 1 x 1 matrix: the slice path.
        let (g, root) = parser::parse("sum(exp(C))").unwrap();
        let mut env = Env::new();
        env.bind("C", Matrix::Dense(Dense::from_rows(&[&[c]])));
        let got = Executor::new(&g).eval(root, &env).unwrap().as_scalar().unwrap();
        assert_eq!(got.to_bits(), want, "sum(exp(C)) with C = [{c:e}]");
    }
}

#[test]
fn identity_rewrites_remove_noops() {
    let mut sizes = InputSizes::new();
    sizes.declare("X", 2, 2, 1.0);
    for src in ["X * 1", "1 * X", "X + 0", "0 + X", "X - 0", "X / 1"] {
        let (g, root) = parser::parse(src).unwrap();
        let (og, oroot, stats) = optimize(&g, root, &sizes).unwrap();
        assert!(stats.identities >= 1, "{src}: {stats:?}");
        assert_eq!(og.op(oroot), &Op::Input("X".into()), "{src} must simplify to X");
    }
}

#[test]
fn identity_rewrite_preserves_value() {
    let e = env();
    assert_eq!(eval("sum(X * 1 + 0)", &e), eval("sum(X)", &e));
    let mut sizes = InputSizes::new();
    sizes.declare("X", 2, 2, 1.0);
    let (g, root) = parser::parse("sum((X + 0) %*% (X * 1))").unwrap();
    let (og, oroot, _) = optimize(&g, root, &sizes).unwrap();
    let mut naive = Executor::new(&g);
    let mut opt = Executor::new(&og);
    let a = naive.eval(root, &e).unwrap().as_scalar().unwrap();
    let b = opt.eval(oroot, &e).unwrap().as_scalar().unwrap();
    assert!((a - b).abs() < 1e-9);
    assert!(opt.stats().flops < naive.stats().flops);
}

#[test]
fn x_minus_zero_but_not_zero_minus_x() {
    // 0 - X is a negation, not an identity; it must NOT be rewritten to X.
    let mut sizes = InputSizes::new();
    sizes.declare("X", 2, 2, 1.0);
    let (g, root) = parser::parse("0 - X").unwrap();
    let (og, oroot, _) = optimize(&g, root, &sizes).unwrap();
    assert_ne!(og.op(oroot), &Op::Input("X".into()));
    let e = env();
    let mut ex = Executor::new(&og);
    let out = ex.eval(oroot, &e).unwrap().as_dense().unwrap();
    assert_eq!(out.get(0, 0), -1.0);
}

#[test]
fn log_renders_and_round_trips() {
    let (g, root) = parser::parse("log(X)").unwrap();
    assert_eq!(g.render(root), "log(X)");
    let (g, root) = parser::parse("sqrt(abs(X))").unwrap();
    assert_eq!(g.render(root), "sqrt(abs(X))");
}

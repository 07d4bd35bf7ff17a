//! The independent output check: a deliberately naive evaluator over the
//! generator's own [`Expr`] tree. Triple-loop matmul, left-to-right sums, no
//! rewrites, no plan, none of the program's kernels — if it agrees with the
//! program to a relative 1e-9 the program computed the right thing.

use crate::gen::{Case, Expr};

/// Relative tolerance of the check. The program reorders matrix chains and
/// sums in blocks, so bits differ; nine digits do not.
pub const REL_TOL: f64 = 1e-9;

#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Mat {
    fn scalar(v: f64) -> Mat {
        Mat { rows: 1, cols: 1, data: vec![v] }
    }

    fn map(&self, f: impl Fn(f64) -> f64) -> Mat {
        Mat { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    fn zip(&self, other: &Mat, f: impl Fn(f64, f64) -> f64) -> Mat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "elementwise shapes");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Mat { rows: self.rows, cols: self.cols, data }
    }
}

pub fn eval(case: &Case) -> Mat {
    eval_expr(&case.expr, case)
}

fn eval_expr(e: &Expr, case: &Case) -> Mat {
    let go = |e: &Expr| eval_expr(e, case);
    match e {
        Expr::Input(name) => {
            let i = case.inputs.iter().find(|i| &i.name == name).expect("input is bound");
            Mat { rows: i.rows, cols: i.cols, data: i.data.clone() }
        }
        Expr::T(a) => {
            let a = go(a);
            let mut data = vec![0.0; a.data.len()];
            for r in 0..a.rows {
                for c in 0..a.cols {
                    data[c * a.rows + r] = a.data[r * a.cols + c];
                }
            }
            Mat { rows: a.cols, cols: a.rows, data }
        }
        Expr::MatMul(a, b) => {
            let (a, b) = (go(a), go(b));
            assert_eq!(a.cols, b.rows, "matmul inner dims");
            let mut data = vec![0.0; a.rows * b.cols];
            for i in 0..a.rows {
                for j in 0..b.cols {
                    let mut acc = 0.0;
                    for k in 0..a.cols {
                        acc += a.data[i * a.cols + k] * b.data[k * b.cols + j];
                    }
                    data[i * b.cols + j] = acc;
                }
            }
            Mat { rows: a.rows, cols: b.cols, data }
        }
        Expr::Add(a, b) => go(a).zip(&go(b), |x, y| x + y),
        Expr::Mul(a, b) => go(a).zip(&go(b), |x, y| x * y),
        Expr::Sum(a) => Mat::scalar(go(a).data.iter().sum()),
        Expr::ColSums(a) => {
            let a = go(a);
            let mut data = vec![0.0; a.cols];
            for row in a.data.chunks(a.cols) {
                for (sum, v) in data.iter_mut().zip(row) {
                    *sum += v;
                }
            }
            Mat { rows: 1, cols: a.cols, data }
        }
        Expr::Abs(a) => go(a).map(f64::abs),
        Expr::Exp(a) => go(a).map(f64::exp),
    }
}

/// True when `got` has the reference's shape and every element is within
/// [`REL_TOL`] of it, relative to the larger magnitude.
pub fn agrees(got: &Mat, want: &Mat) -> bool {
    (got.rows, got.cols) == (want.rows, want.cols)
        && got
            .data
            .iter()
            .zip(&want.data)
            .all(|(&g, &w)| g == w || (g - w).abs() <= REL_TOL * g.abs().max(w.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Input;

    fn case(expr: Expr) -> Case {
        let m = |name: &str, rows, cols, data: &[f64]| Input {
            name: name.into(),
            rows,
            cols,
            data: data.to_vec(),
        };
        Case { expr, inputs: vec![m("X", 2, 2, &[1.0, 2.0, 3.0, 4.0]), m("v", 2, 1, &[1.0, -1.0])] }
    }

    #[test]
    fn evaluates_the_textbook_cases() {
        let x = || Box::new(Expr::input("X"));
        // t(X) %*% X = [[10, 14], [14, 20]].
        let gram = Expr::MatMul(Box::new(Expr::T(x())), x());
        assert_eq!(eval(&case(gram.clone())).data, vec![10.0, 14.0, 14.0, 20.0]);
        assert_eq!(eval(&case(Expr::Sum(Box::new(gram.clone())))).data, vec![58.0]);
        assert_eq!(eval(&case(Expr::ColSums(Box::new(gram)))).data, vec![24.0, 34.0]);
        let xv = Expr::MatMul(x(), Box::new(Expr::input("v")));
        assert_eq!(eval(&case(Expr::Abs(Box::new(xv)))).data, vec![1.0, 1.0]);
        let had = Expr::Mul(x(), x());
        assert_eq!(eval(&case(Expr::Add(Box::new(had), x()))).data, vec![2.0, 6.0, 12.0, 20.0]);
    }

    #[test]
    fn agreement_is_relative_and_shape_aware() {
        let m = |data: Vec<f64>| Mat { rows: 1, cols: data.len(), data };
        assert!(agrees(&m(vec![1e6 + 1e-4]), &m(vec![1e6])));
        assert!(!agrees(&m(vec![1.0 + 1e-8]), &m(vec![1.0])));
        assert!(!agrees(&m(vec![1.0, 1.0]), &m(vec![1.0])));
        assert!(!agrees(&m(vec![f64::NAN]), &m(vec![1.0])));
    }
}

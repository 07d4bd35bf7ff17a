//! Seeded input generators. Everything a workload feeds the program is made
//! here from `--seed` alone: the program under test receives only the
//! generated inputs, never the seed.
//!
//! Programs are built as the generator's own [`Expr`] tree and rendered to
//! DMML text; the naive reference ([`crate::reference`]) evaluates the same
//! tree, so the check never goes through the parser, rewriter, executor or
//! kernels under test.

use std::collections::HashSet;

/// xoshiro256** seeded through SplitMix64. In-tree so the inputs of a seed
/// never change with a dependency.
pub struct Rng([u64; 4]);

impl Rng {
    /// One independent stream per (seed, workload stream id).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`. The modulo bias is below 2^-50 for the tiny `n`
    /// used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` values uniform in `[lo, hi)`.
    pub fn fill(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| lo + (hi - lo) * self.unit()).collect()
    }
}

/// The generator's program tree: exactly the operators the workloads use.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Input(String),
    T(Box<Expr>),
    MatMul(Box<Expr>, Box<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Sum(Box<Expr>),
    ColSums(Box<Expr>),
    Abs(Box<Expr>),
    Exp(Box<Expr>),
}

impl Expr {
    pub fn input(name: &str) -> Expr {
        Expr::Input(name.to_owned())
    }

    /// DMML surface syntax, fully parenthesised so the text fixes the tree.
    pub fn render(&self) -> String {
        match self {
            Expr::Input(n) => n.clone(),
            Expr::T(a) => format!("t({})", a.render()),
            Expr::MatMul(a, b) => format!("({} %*% {})", a.render(), b.render()),
            Expr::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            Expr::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            Expr::Sum(a) => format!("sum({})", a.render()),
            Expr::ColSums(a) => format!("colSums({})", a.render()),
            Expr::Abs(a) => format!("abs({})", a.render()),
            Expr::Exp(a) => format!("exp({})", a.render()),
        }
    }
}

/// One named row-major matrix input.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    pub name: String,
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

/// A program with its bound inputs: one op's worth of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    pub expr: Expr,
    pub inputs: Vec<Input>,
}

fn matmul(a: Expr, b: Expr) -> Expr {
    Expr::MatMul(Box::new(a), Box::new(b))
}

/// `X %*% v` with X `rows x cols`: the scoring shape of `serve_small_hot`
/// (96x8) and `serve_wide_hot` (64x2048). Values are positive so no output
/// element is a cancelling sum and a relative 1e-9 check is meaningful.
pub fn scoring_cases(seed: u64, stream: u64, count: usize, rows: usize, cols: usize) -> Vec<Case> {
    let mut rng = Rng::new(seed, stream);
    (0..count)
        .map(|_| Case {
            expr: matmul(Expr::input("X"), Expr::input("v")),
            inputs: vec![
                Input { name: "X".into(), rows, cols, data: rng.fill(rows * cols, 0.0, 1.0) },
                Input { name: "v".into(), rows: cols, cols: 1, data: rng.fill(cols, 0.0, 1.0) },
            ],
        })
        .collect()
}

/// Dimensions a cold program's factors draw from; each is its own plan-key
/// size class, so a different draw is a different plan.
pub const COLD_DIMS: [usize; 4] = [4, 8, 16, 32];
/// Programs in the cold set: four times the server's 64-entry plan cache,
/// so a round-robin pass evicts every plan before it is asked for again.
pub const COLD_PROGRAMS: usize = 256;

/// A left-to-right chain of `dims.len() - 1` factors named `prefix0..`,
/// factor `i` being `dims[i] x dims[i+1]`. A factor drawn as transposed is
/// bound with swapped dims and wrapped in `t()`. Entries are positive and
/// scaled by `2 / inner dim`, which keeps every product O(1).
fn chain(rng: &mut Rng, prefix: &str, dims: &[usize], inputs: &mut Vec<Input>) -> Expr {
    let mut expr = None;
    for (i, w) in dims.windows(2).enumerate() {
        let (r, c) = (w[0], w[1]);
        let name = format!("{prefix}{i}");
        let data = rng.fill(r * c, 0.0, 2.0 / r as f64);
        let factor = if rng.below(4) == 0 {
            // Stored c x r; `t()` restores r x c. Row-major data of the
            // stored matrix is just another random fill.
            inputs.push(Input { name: name.clone(), rows: c, cols: r, data });
            Expr::T(Box::new(Expr::Input(name)))
        } else {
            inputs.push(Input { name: name.clone(), rows: r, cols: c, data });
            Expr::Input(name)
        };
        expr = Some(match expr {
            None => factor,
            Some(lhs) => matmul(lhs, factor),
        });
    }
    expr.expect("a chain has at least one factor")
}

/// The `serve_compile_cold` set: [`COLD_PROGRAMS`] structurally distinct
/// programs. Each is `wrap(chainA op chainB)`: two matrix chains with 5..=9
/// factors between them and a common `r x c` result, joined by one
/// elementwise `+` or `*`, wrapped in `sum` or `colSums`. A candidate whose
/// (text, input dims) repeats an earlier one is drawn again.
pub fn cold_cases(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed, 3);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(COLD_PROGRAMS);
    while out.len() < COLD_PROGRAMS {
        let factors = 5 + rng.below(5);
        let left = 2 + rng.below(factors - 3); // both chains get >= 2 factors
        let dim = |rng: &mut Rng| COLD_DIMS[rng.below(COLD_DIMS.len())];
        let (r, c) = (dim(&mut rng), dim(&mut rng));
        let mut chain_dims = |n: usize| {
            let mut d = vec![r];
            d.extend((1..n).map(|_| dim(&mut rng)));
            d.push(c);
            d
        };
        let (da, db) = (chain_dims(left), chain_dims(factors - left));
        let mut inputs = Vec::new();
        let a = chain(&mut rng, "A", &da, &mut inputs);
        let b = chain(&mut rng, "B", &db, &mut inputs);
        let joined = if rng.below(2) == 0 {
            Expr::Add(Box::new(a), Box::new(b))
        } else {
            Expr::Mul(Box::new(a), Box::new(b))
        };
        let expr = if rng.below(2) == 0 {
            Expr::Sum(Box::new(joined))
        } else {
            Expr::ColSums(Box::new(joined))
        };
        let dims: Vec<(usize, usize)> = inputs.iter().map(|i| (i.rows, i.cols)).collect();
        if seen.insert((expr.render(), dims)) {
            out.push(Case { expr, inputs });
        }
    }
    out
}

pub const INPROC_ROWS: usize = 8192;
pub const INPROC_COLS: usize = 256;
pub const INPROC_OUT: usize = 128;

/// The `inproc_*` case:
/// `sum(abs(t(X) %*% X)) + sum(exp(X %*% W)) + sum(abs(t(X) %*% y))`.
/// The result is a sum of positive terms, so signed inputs cannot cancel it;
/// W is scaled so `exp` stays far from overflow.
pub fn inproc_case(seed: u64) -> Case {
    let mut rng = Rng::new(seed, 4);
    let (n, d, k) = (INPROC_ROWS, INPROC_COLS, INPROC_OUT);
    let x = || Expr::input("X");
    let sum_abs = |e: Expr| Expr::Sum(Box::new(Expr::Abs(Box::new(e))));
    let gram = sum_abs(matmul(Expr::T(Box::new(x())), x()));
    let act = Expr::Sum(Box::new(Expr::Exp(Box::new(matmul(x(), Expr::input("W"))))));
    let grad = sum_abs(matmul(Expr::T(Box::new(x())), Expr::input("y")));
    Case {
        expr: Expr::Add(Box::new(Expr::Add(Box::new(gram), Box::new(act))), Box::new(grad)),
        inputs: vec![
            Input { name: "X".into(), rows: n, cols: d, data: rng.fill(n * d, -1.0, 1.0) },
            Input { name: "W".into(), rows: d, cols: k, data: rng.fill(d * k, -0.0625, 0.0625) },
            Input { name: "y".into(), rows: n, cols: 1, data: rng.fill(n, -1.0, 1.0) },
        ],
    }
}

/// FNV-1a over everything the program will receive: program text, input
/// names, dims and value bits. Printed with every result, so two runs that
/// claim the same seed can be seen to have measured the same inputs.
pub fn inputs_hash(cases: &[Case]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for case in cases {
        write(case.expr.render().as_bytes());
        for i in &case.inputs {
            write(i.name.as_bytes());
            write(&(i.rows as u64).to_le_bytes());
            write(&(i.cols as u64).to_le_bytes());
            for v in &i.data {
                write(&v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(seed: u64) -> [u64; 4] {
        [
            inputs_hash(&scoring_cases(seed, 1, 64, 96, 8)),
            inputs_hash(&scoring_cases(seed, 2, 8, 64, 2048)),
            inputs_hash(&cold_cases(seed)),
            inputs_hash(&[inproc_case(seed)]),
        ]
    }

    #[test]
    fn every_generator_is_deterministic_and_seed_sensitive() {
        let (a, b, c) = (all(7), all(7), all(8));
        assert_eq!(a, b, "same seed, same inputs");
        for i in 0..a.len() {
            assert_ne!(a[i], c[i], "generator {i} ignores the seed");
        }
    }

    #[test]
    fn unit_stays_in_range() {
        let mut rng = Rng::new(1, 1);
        assert!((0..10_000).map(|_| rng.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn cold_programs_parse_to_distinct_plan_keys() {
        use dm_lang::{parser, program_hash, InputClass, PlanKey};
        let cases = cold_cases(11);
        assert_eq!(cases.len(), COLD_PROGRAMS);
        let keys: HashSet<PlanKey> = cases
            .iter()
            .map(|c| {
                let n = c.inputs.len();
                assert!((5..=9).contains(&n), "{n} factors");
                let (g, root) = parser::parse(&c.expr.render()).expect("cold program parses");
                let classes =
                    c.inputs.iter().map(|i| InputClass::new(&i.name, i.rows, i.cols, 1.0));
                PlanKey::new(program_hash(&g, root), classes.collect())
            })
            .collect();
        assert_eq!(keys.len(), COLD_PROGRAMS, "every program is its own cache entry");
    }
}

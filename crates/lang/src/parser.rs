//! Recursive-descent parser for the R-like surface syntax.
//!
//! Grammar (precedence low to high):
//!
//! ```text
//! expr    := term (('+' | '-') term)*
//! term    := factor (('*' | '/' | '%*%') factor)*
//! factor  := number | ident | call | '(' expr ')'
//! call    := ('t' | 'sum' | 'colSums' | 'rowSums' | 'min' | 'max') '(' expr ')'
//! ```
//!
//! `%*%` binds at the same level as `*` (left-associative), matching how such
//! scripts are conventionally read.

use crate::expr::{AggOp, EwiseOp, Graph, NodeId, Op, UnaryOp};
use std::fmt;

/// Parse errors with character positions.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    MatMul,
    LParen,
    RParen,
}

/// Deepest nesting a program may use: each parenthesis, call and unary minus
/// opens one level, and the parser recurses once per level.
pub const MAX_DEPTH: usize = 128;

/// Most nodes a parsed program may hold. Every later pass walks the DAG, some
/// recursively along its longest path and the matrix-chain reordering in
/// cubic time of a chain's length, so the cap keeps a program at the limit
/// compiling and evaluating in milliseconds on a 2 MiB thread stack.
pub const MAX_NODES: usize = 256;

/// Lex the token starting at or after byte `*at`, and move `*at` past it;
/// `None` at the end of the source.
fn lex(src: &str, at: &mut usize) -> Result<Option<(usize, Tok)>, ParseError> {
    let bytes = src.as_bytes();
    let mut i = *at;
    while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    let Some(&b) = bytes.get(i) else {
        *at = i;
        return Ok(None);
    };
    let (tok, end) = match b as char {
        '+' => (Tok::Plus, i + 1),
        '-' => (Tok::Minus, i + 1),
        '*' => (Tok::Star, i + 1),
        '/' => (Tok::Slash, i + 1),
        '(' => (Tok::LParen, i + 1),
        ')' => (Tok::RParen, i + 1),
        '%' if src[i..].starts_with("%*%") => (Tok::MatMul, i + 3),
        '%' => return Err(ParseError { position: i, message: "expected %*%".into() }),
        c if c.is_ascii_digit() || c == '.' => {
            let mut j = i;
            while j < bytes.len()
                && (bytes[j].is_ascii_digit()
                    || matches!(bytes[j], b'.' | b'e' | b'E')
                    || (j > i
                        && matches!(bytes[j], b'+' | b'-')
                        && matches!(bytes[j - 1], b'e' | b'E')))
            {
                j += 1;
            }
            let text = &src[i..j];
            let v: f64 = text
                .parse()
                .map_err(|_| ParseError { position: i, message: format!("bad number {text:?}") })?;
            (Tok::Num(v), j)
        }
        c if c.is_ascii_alphabetic() || c == '_' => {
            let mut j = i;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            (Tok::Ident(src[i..j].to_owned()), j)
        }
        other => {
            return Err(ParseError {
                position: i,
                message: format!("unexpected character {other:?}"),
            })
        }
    };
    *at = end;
    Ok(Some((i, tok)))
}

struct Parser<'a> {
    src: &'a str,
    /// Where the lexer resumes, just past `next`.
    at: usize,
    /// The lookahead token and its byte offset.
    next: Option<(usize, Tok)>,
    graph: Graph,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.next.as_ref().map(|(_, t)| t)
    }

    fn here(&self) -> usize {
        self.next.as_ref().map_or(self.src.len(), |(p, _)| *p)
    }

    fn bump(&mut self) -> Result<Option<Tok>, ParseError> {
        let after = lex(self.src, &mut self.at)?;
        Ok(std::mem::replace(&mut self.next, after).map(|(_, t)| t))
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        let pos = self.here();
        match self.bump()? {
            Some(t) if t == tok => Ok(()),
            other => Err(ParseError {
                position: pos,
                message: format!("expected {tok:?}, found {other:?}"),
            }),
        }
    }

    /// Add a node, within [`MAX_NODES`].
    fn push(&mut self, op: Op) -> Result<NodeId, ParseError> {
        if self.graph.len() == MAX_NODES {
            let message = format!("program has more than {MAX_NODES} nodes");
            return Err(ParseError { position: self.here(), message });
        }
        Ok(self.graph.push(op))
    }

    /// Parse with `inner` one nesting level deeper, within [`MAX_DEPTH`].
    fn nested(
        &mut self,
        pos: usize,
        inner: fn(&mut Self) -> Result<NodeId, ParseError>,
    ) -> Result<NodeId, ParseError> {
        if self.depth == MAX_DEPTH {
            let message = format!("nesting deeper than {MAX_DEPTH}");
            return Err(ParseError { position: pos, message });
        }
        self.depth += 1;
        let node = inner(self);
        self.depth -= 1;
        node
    }

    fn expr(&mut self) -> Result<NodeId, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => EwiseOp::Add,
                Some(Tok::Minus) => EwiseOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump()?;
            let rhs = self.term()?;
            lhs = self.push(Op::Ewise(op, lhs, rhs))?;
        }
    }

    fn term(&mut self) -> Result<NodeId, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => Some(EwiseOp::Mul),
                Some(Tok::Slash) => Some(EwiseOp::Div),
                Some(Tok::MatMul) => None,
                _ => return Ok(lhs),
            };
            self.bump()?;
            let rhs = self.factor()?;
            lhs = self.push(op.map_or(Op::MatMul(lhs, rhs), |e| Op::Ewise(e, lhs, rhs)))?;
        }
    }

    fn factor(&mut self) -> Result<NodeId, ParseError> {
        let pos = self.here();
        match self.bump()? {
            Some(Tok::Num(v)) => self.push(Op::Const(v)),
            Some(Tok::Minus) => {
                // Unary minus: 0 - factor.
                let inner = self.nested(pos, Self::factor)?;
                let zero = self.push(Op::Const(0.0))?;
                self.push(Op::Ewise(EwiseOp::Sub, zero, inner))
            }
            Some(Tok::LParen) => {
                let e = self.nested(pos, Self::expr)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.peek() != Some(&Tok::LParen) {
                    return self.push(Op::Input(name));
                }
                self.bump()?;
                let arg = self.nested(pos, Self::expr)?;
                self.expect(Tok::RParen)?;
                let op = match name.as_str() {
                    "t" => Op::Transpose(arg),
                    "sum" => Op::Agg(AggOp::Sum, arg),
                    "colSums" => Op::Agg(AggOp::ColSums, arg),
                    "rowSums" => Op::Agg(AggOp::RowSums, arg),
                    "min" => Op::Agg(AggOp::Min, arg),
                    "max" => Op::Agg(AggOp::Max, arg),
                    "exp" => Op::Unary(UnaryOp::Exp, arg),
                    "log" => Op::Unary(UnaryOp::Log, arg),
                    "sqrt" => Op::Unary(UnaryOp::Sqrt, arg),
                    "abs" => Op::Unary(UnaryOp::Abs, arg),
                    other => {
                        let message = format!("unknown function {other}");
                        return Err(ParseError { position: pos, message });
                    }
                };
                self.push(op)
            }
            other => {
                Err(ParseError { position: pos, message: format!("unexpected token {other:?}") })
            }
        }
    }
}

/// Parse a source string into a fresh graph; returns the graph and root node.
/// Programs nested deeper than [`MAX_DEPTH`] or holding more than
/// [`MAX_NODES`] nodes are errors, so hostile text cannot exhaust the
/// stack or memory of whoever parses it. The source is lexed one token
/// ahead of the parser, never as a whole.
pub fn parse(src: &str) -> Result<(Graph, NodeId), ParseError> {
    let mut at = 0;
    let next = lex(src, &mut at)?;
    let mut p = Parser { src, at, next, graph: Graph::new(), depth: 0 };
    let root = p.expr()?;
    if p.next.is_some() {
        return Err(ParseError { position: p.here(), message: "trailing input".into() });
    }
    Ok((p.graph, root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Env, Executor};
    use dm_matrix::{Dense, Matrix};
    use proptest::prelude::*;

    fn eval(src: &str, env: &Env) -> f64 {
        let (g, root) = parse(src).unwrap();
        let mut ex = Executor::new(&g);
        ex.eval(root, env).unwrap().as_scalar().unwrap()
    }

    fn env() -> Env {
        let mut e = Env::new();
        e.bind("X", Matrix::Dense(Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])));
        e.bind("v", Matrix::Dense(Dense::column(&[1.0, 1.0])));
        e
    }

    #[test]
    fn scalar_arithmetic() {
        let e = Env::new();
        assert_eq!(eval("1 + 2 * 3", &e), 7.0);
        assert_eq!(eval("(1 + 2) * 3", &e), 9.0);
        assert_eq!(eval("10 / 4", &e), 2.5);
        assert_eq!(eval("-3 + 1", &e), -2.0);
        assert_eq!(eval("2e2 + 0.5", &e), 200.5);
    }

    #[test]
    fn matrix_expressions() {
        let e = env();
        assert_eq!(eval("sum(X)", &e), 10.0);
        assert_eq!(eval("sum(X %*% v)", &e), 10.0);
        // t(X)%*%X = [[10,14],[14,20]], sum = 58.
        assert_eq!(eval("sum(t(X) %*% X)", &e), 58.0);
        assert_eq!(eval("max(X) - min(X)", &e), 3.0);
        assert_eq!(eval("sum(X * X)", &e), 30.0);
        assert_eq!(eval("sum(colSums(X))", &e), 10.0);
        assert_eq!(eval("sum(rowSums(X))", &e), 10.0);
    }

    #[test]
    fn matmul_is_left_associative() {
        let (g, root) = parse("A %*% B %*% C").unwrap();
        assert_eq!(g.render(root), "((A %*% B) %*% C)");
    }

    #[test]
    fn precedence_of_add_vs_mul() {
        let (g, root) = parse("A + B %*% C").unwrap();
        assert_eq!(g.render(root), "(A + (B %*% C))");
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("sum(X").unwrap_err();
        assert!(err.message.contains("expected RParen"), "{err}");
        let err = parse("1 ^ 2").unwrap_err();
        assert_eq!(err.position, 2);
        let err = parse("foo(X)").unwrap_err();
        assert!(err.message.contains("unknown function foo"));
        let err = parse("1 2").unwrap_err();
        assert!(err.message.contains("trailing input"));
        let err = parse("X %+% Y").unwrap_err();
        assert!(err.message.contains("%*%"));
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_beyond_max_depth_is_an_error() {
        let nested = |open: &str, n: usize| format!("{}X{}", open.repeat(n), ")".repeat(n));
        for open in ["(", "sum(", "t("] {
            assert!(parse(&nested(open, MAX_DEPTH)).is_ok(), "{open}");
            let err = parse(&nested(open, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nesting deeper than 128"), "{err}");
        }
        let err = parse(&format!("{}X", "-".repeat(MAX_DEPTH + 1))).unwrap_err();
        assert!(err.message.contains("nesting"), "unary minus nests too: {err}");
        // Rejected at the first level too deep, before the rest is lexed.
        let err = parse(&"(".repeat(100_000)).unwrap_err();
        assert_eq!(err.position, MAX_DEPTH, "{err}");
    }

    #[test]
    fn programs_beyond_max_nodes_are_an_error() {
        // `X + X + ... + X` with n terms has 2n - 1 nodes.
        let sum_of = |n: usize| vec!["X"; n].join(" + ");
        assert_eq!(parse(&sum_of(MAX_NODES / 2)).unwrap().0.len(), MAX_NODES - 1);
        for n in [MAX_NODES / 2 + 1, 200_000] {
            let err = parse(&sum_of(n)).unwrap_err();
            assert!(err.message.contains("more than 256 nodes"), "{err}");
        }
    }

    /// Program text built from fragments that are mostly valid tokens, some
    /// half tokens and some junk, so that most soups fail somewhere and some
    /// reach the nesting and node limits.
    fn token_soup() -> impl Strategy<Value = String> {
        const FRAGMENTS: [&str; 24] = [
            "X", "v", "1", "2.5e3", "1e", ".", "(", "(", ")", "+", "-", "-", "*", "/", "%*%", "%",
            "t(", "sum(", "exp(", "colSums(", "foo(", "^", " ", "\u{e9}",
        ];
        proptest::collection::vec(0..FRAGMENTS.len(), 0..600)
            .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `parse` never panics: any text is a graph within the limits or a
        /// positioned error.
        #[test]
        fn parse_never_panics_on_token_soup(src in token_soup()) {
            match parse(&src) {
                Ok((g, root)) => {
                    prop_assert!(g.len() <= MAX_NODES && root < g.len());
                    prop_assert!(!g.render(root).is_empty());
                }
                Err(e) => prop_assert!(e.position <= src.len(), "{e} in {src:?}"),
            }
        }
    }

    #[test]
    fn round_trip_with_optimizer() {
        use crate::rewrite::optimize;
        use crate::size::InputSizes;
        let (g, root) = parse("sum(t(X) %*% X) + sum(X * X)").unwrap();
        let mut sizes = InputSizes::new();
        sizes.declare("X", 2, 2, 1.0);
        let (og, oroot, stats) = optimize(&g, root, &sizes).unwrap();
        assert_eq!(stats.crossprod_fused, 1);
        assert_eq!(stats.sumsq_fused, 1);
        let mut ex = Executor::new(&og);
        let got = ex.eval(oroot, &env()).unwrap().as_scalar().unwrap();
        assert_eq!(got, 58.0 + 30.0);
    }
}

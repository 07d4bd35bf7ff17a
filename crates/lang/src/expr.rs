//! The logical expression DAG ("HOPs").

use std::fmt;

/// Node identifier within a [`Graph`] arena.
pub type NodeId = usize;

/// Elementwise binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EwiseOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Hadamard multiplication.
    Mul,
    /// Division.
    Div,
}

/// Elementwise unary functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `exp(x)`.
    Exp,
    /// Natural log.
    Log,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
}

/// Aggregation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Sum of all elements (scalar result).
    Sum,
    /// Column sums (1 x cols result).
    ColSums,
    /// Row sums (rows x 1 result).
    RowSums,
    /// Minimum element.
    Min,
    /// Maximum element.
    Max,
}

/// Logical operators. `CrossProd`, `Tmv`, and `SumSq` are fused operators
/// introduced only by the rewriter — the parser and builder never emit them.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A named input bound at execution time.
    Input(String),
    /// A scalar literal.
    Const(f64),
    /// Matrix multiplication.
    MatMul(NodeId, NodeId),
    /// Transpose.
    Transpose(NodeId),
    /// Elementwise binary op; scalars broadcast against matrices.
    Ewise(EwiseOp, NodeId, NodeId),
    /// Elementwise unary function.
    Unary(UnaryOp, NodeId),
    /// Aggregation.
    Agg(AggOp, NodeId),
    /// Fused `t(X) %*% X`.
    CrossProd(NodeId),
    /// Fused `t(X) %*% v` for vector `v`.
    Tmv(NodeId, NodeId),
    /// Fused `sum(X * X)`.
    SumSq(NodeId),
}

impl Op {
    /// Child node ids, in order.
    pub fn children(&self) -> Vec<NodeId> {
        match self {
            Op::Input(_) | Op::Const(_) => vec![],
            Op::Transpose(a)
            | Op::Agg(_, a)
            | Op::Unary(_, a)
            | Op::CrossProd(a)
            | Op::SumSq(a) => vec![*a],
            Op::MatMul(a, b) | Op::Ewise(_, a, b) | Op::Tmv(a, b) => vec![*a, *b],
        }
    }

    /// Rebuild this op with new children (same arity).
    ///
    /// # Panics
    /// Panics if the arity does not match.
    pub fn with_children(&self, ch: &[NodeId]) -> Op {
        match self {
            Op::Input(n) => {
                assert!(ch.is_empty());
                Op::Input(n.clone())
            }
            Op::Const(v) => {
                assert!(ch.is_empty());
                Op::Const(*v)
            }
            Op::Transpose(_) => Op::Transpose(ch[0]),
            Op::Agg(a, _) => Op::Agg(*a, ch[0]),
            Op::Unary(u, _) => Op::Unary(*u, ch[0]),
            Op::CrossProd(_) => Op::CrossProd(ch[0]),
            Op::SumSq(_) => Op::SumSq(ch[0]),
            Op::MatMul(_, _) => Op::MatMul(ch[0], ch[1]),
            Op::Ewise(e, _, _) => Op::Ewise(*e, ch[0], ch[1]),
            Op::Tmv(_, _) => Op::Tmv(ch[0], ch[1]),
        }
    }
}

/// An arena of expression nodes forming a DAG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    nodes: Vec<Op>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Append a node, returning its id.
    pub fn push(&mut self, op: Op) -> NodeId {
        self.nodes.push(op);
        self.nodes.len() - 1
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn op(&self, id: NodeId) -> &Op {
        &self.nodes[id]
    }

    /// All nodes, indexable by id.
    pub fn nodes(&self) -> &[Op] {
        &self.nodes
    }

    // Convenience builders.

    /// A named input.
    pub fn input(&mut self, name: &str) -> NodeId {
        self.push(Op::Input(name.to_owned()))
    }

    /// A scalar literal.
    pub fn constant(&mut self, v: f64) -> NodeId {
        self.push(Op::Const(v))
    }

    /// `a %*% b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::MatMul(a, b))
    }

    /// `t(a)`.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        self.push(Op::Transpose(a))
    }

    /// Elementwise op.
    pub fn ewise(&mut self, op: EwiseOp, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Ewise(op, a, b))
    }

    /// Aggregation.
    pub fn agg(&mut self, op: AggOp, a: NodeId) -> NodeId {
        self.push(Op::Agg(op, a))
    }

    /// Elementwise unary function.
    pub fn unary(&mut self, op: UnaryOp, a: NodeId) -> NodeId {
        self.push(Op::Unary(op, a))
    }

    /// Render a node as an R-like expression string (for debugging and tests).
    pub fn render(&self, id: NodeId) -> String {
        match self.op(id) {
            Op::Input(n) => n.clone(),
            Op::Const(v) => format!("{v}"),
            Op::MatMul(a, b) => format!("({} %*% {})", self.render(*a), self.render(*b)),
            Op::Transpose(a) => format!("t({})", self.render(*a)),
            Op::Ewise(e, a, b) => {
                let sym = match e {
                    EwiseOp::Add => "+",
                    EwiseOp::Sub => "-",
                    EwiseOp::Mul => "*",
                    EwiseOp::Div => "/",
                };
                format!("({} {sym} {})", self.render(*a), self.render(*b))
            }
            Op::Agg(a, x) => {
                let f = match a {
                    AggOp::Sum => "sum",
                    AggOp::ColSums => "colSums",
                    AggOp::RowSums => "rowSums",
                    AggOp::Min => "min",
                    AggOp::Max => "max",
                };
                format!("{f}({})", self.render(*x))
            }
            Op::Unary(u, a) => {
                let f = match u {
                    UnaryOp::Exp => "exp",
                    UnaryOp::Log => "log",
                    UnaryOp::Sqrt => "sqrt",
                    UnaryOp::Abs => "abs",
                };
                format!("{f}({})", self.render(*a))
            }
            Op::CrossProd(a) => format!("crossprod({})", self.render(*a)),
            Op::Tmv(a, b) => format!("tmv({}, {})", self.render(*a), self.render(*b)),
            Op::SumSq(a) => format!("sumSq({})", self.render(*a)),
        }
    }

    /// Ids of all nodes reachable from `root`, in topological (children-first)
    /// order.
    pub fn reachable(&self, root: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        fn visit(g: &Graph, id: NodeId, seen: &mut [bool], order: &mut Vec<NodeId>) {
            if seen[id] {
                return;
            }
            seen[id] = true;
            for c in g.op(id).children() {
                visit(g, c, seen, order);
            }
            order.push(id);
        }
        visit(self, root, &mut seen, &mut order);
        order
    }

    /// How often the nodes of `order` read each node, indexed by node: one
    /// read per operand edge, so `X + X` reads `X` twice.
    pub(crate) fn reads(&self, order: &[NodeId]) -> Vec<usize> {
        let mut reads = vec![0; self.nodes.len()];
        for &id in order {
            for c in self.op(id).children() {
                reads[c] += 1;
            }
        }
        reads
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.nodes.iter().enumerate() {
            writeln!(f, "%{i} = {op:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mm = g.matmul(t, x);
        let s = g.agg(AggOp::Sum, mm);
        assert_eq!(g.render(s), "sum((t(X) %*% X))");
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn children_and_with_children() {
        let mut g = Graph::new();
        let a = g.input("A");
        let b = g.input("B");
        let mm = g.matmul(a, b);
        assert_eq!(g.op(mm).children(), vec![a, b]);
        let swapped = g.op(mm).with_children(&[b, a]);
        assert_eq!(swapped, Op::MatMul(b, a));
        assert_eq!(g.op(a).children(), Vec::<NodeId>::new());
        let e = g.ewise(EwiseOp::Add, a, b);
        assert_eq!(g.op(e).with_children(&[b, b]), Op::Ewise(EwiseOp::Add, b, b));
    }

    #[test]
    fn reachable_topological() {
        let mut g = Graph::new();
        let x = g.input("X");
        let t = g.transpose(x);
        let mm = g.matmul(t, x); // shares x
        let order = g.reachable(mm);
        assert_eq!(order, vec![x, t, mm]);
        // Unreachable nodes excluded.
        let _orphan = g.input("Y");
        assert_eq!(g.reachable(mm).len(), 3);
    }

    #[test]
    fn display_lists_nodes() {
        let mut g = Graph::new();
        g.input("X");
        g.constant(2.0);
        let s = format!("{g}");
        assert!(s.contains("%0 = Input(\"X\")"));
        assert!(s.contains("%1 = Const(2.0)"));
    }
}

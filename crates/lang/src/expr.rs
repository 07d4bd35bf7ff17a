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

impl UnaryOp {
    /// The op over every value of `xs`, in place: the one definition every
    /// evaluation of a unary op runs (the executor's unfused, fused and
    /// scalar paths, the constant folder, the analyzer's intervals), so all
    /// of them give the same bits. `exp` is the in-tree
    /// [`kernel::exp`](dm_matrix::kernel::exp), run at vector width; `log`,
    /// `sqrt` and `abs` are `f64`'s own.
    pub fn map(self, xs: &mut [f64]) {
        match self {
            UnaryOp::Exp => dm_matrix::kernel::exp_in_place(xs),
            UnaryOp::Log => xs.iter_mut().for_each(|x| *x = x.ln()),
            UnaryOp::Sqrt => xs.iter_mut().for_each(|x| *x = x.sqrt()),
            UnaryOp::Abs => xs.iter_mut().for_each(|x| *x = x.abs()),
        }
    }

    /// The op on one value: [`UnaryOp::map`] of a one-value slice.
    pub fn apply(self, x: f64) -> f64 {
        let mut v = [x];
        self.map(&mut v);
        v[0]
    }
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
    /// Shared subtrees are written out at each use. The walk keeps its own
    /// stack of pieces still to write, so graph depth is bounded by memory,
    /// not by the thread's stack.
    pub fn render(&self, id: NodeId) -> String {
        enum Piece<'g> {
            Node(NodeId),
            Text(&'g str),
        }
        let mut out = String::new();
        let mut pending = vec![Piece::Node(id)];
        while let Some(piece) = pending.pop() {
            let id = match piece {
                Piece::Text(t) => {
                    out.push_str(t);
                    continue;
                }
                Piece::Node(id) => id,
            };
            // Each op is `open`, its children separated by `sep`, then `)`.
            let (open, sep) = match self.op(id) {
                Op::Input(n) => {
                    out.push_str(n);
                    continue;
                }
                Op::Const(v) => {
                    out.push_str(&v.to_string());
                    continue;
                }
                Op::MatMul(..) => ("(", " %*% "),
                Op::Transpose(_) => ("t(", ""),
                Op::Ewise(e, ..) => (
                    "(",
                    match e {
                        EwiseOp::Add => " + ",
                        EwiseOp::Sub => " - ",
                        EwiseOp::Mul => " * ",
                        EwiseOp::Div => " / ",
                    },
                ),
                Op::Agg(a, _) => (
                    match a {
                        AggOp::Sum => "sum(",
                        AggOp::ColSums => "colSums(",
                        AggOp::RowSums => "rowSums(",
                        AggOp::Min => "min(",
                        AggOp::Max => "max(",
                    },
                    "",
                ),
                Op::Unary(u, _) => (
                    match u {
                        UnaryOp::Exp => "exp(",
                        UnaryOp::Log => "log(",
                        UnaryOp::Sqrt => "sqrt(",
                        UnaryOp::Abs => "abs(",
                    },
                    "",
                ),
                Op::CrossProd(_) => ("crossprod(", ""),
                Op::Tmv(..) => ("tmv(", ", "),
                Op::SumSq(_) => ("sumSq(", ""),
            };
            out.push_str(open);
            pending.push(Piece::Text(")"));
            for (i, c) in self.op(id).children().into_iter().enumerate().rev() {
                pending.push(Piece::Node(c));
                if i > 0 {
                    pending.push(Piece::Text(sep));
                }
            }
        }
        out
    }

    /// Ids of all nodes reachable from `root`, in topological (children-first)
    /// order: the postorder of a depth-first walk that visits children left
    /// to right. The walk keeps its own stack, so graph depth is bounded by
    /// memory, not by the thread's stack.
    pub fn reachable(&self, root: NodeId) -> Vec<NodeId> {
        self.postorder(root, |id| self.op(id).children())
    }

    /// The postorder of a depth-first walk from `root` that visits each
    /// node's children in the order `children` lists them, and each node
    /// once, at its first visit. Iterative, like [`Graph::reachable`].
    pub(crate) fn postorder(
        &self,
        root: NodeId,
        children: impl Fn(NodeId) -> Vec<NodeId>,
    ) -> Vec<NodeId> {
        // Each frame is a node and its children still to visit, last first.
        let unvisited = |id: NodeId| {
            let mut ch = children(id);
            ch.reverse();
            ch
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        seen[root] = true;
        let mut stack = vec![(root, unvisited(root))];
        while let Some((id, pending)) = stack.last_mut() {
            let (id, next) = (*id, pending.pop());
            match next {
                Some(c) if !seen[c] => {
                    seen[c] = true;
                    stack.push((c, unvisited(c)));
                }
                Some(_) => {}
                None => {
                    order.push(id);
                    stack.pop();
                }
            }
        }
        order
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

    /// A recursive depth-first walk: the oracle for `reachable`'s order.
    fn reachable_recursive(g: &Graph, root: NodeId) -> Vec<NodeId> {
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
        let mut seen = vec![false; g.len()];
        let mut order = Vec::new();
        visit(g, root, &mut seen, &mut order);
        order
    }

    #[test]
    fn reachable_matches_the_recursive_walk_on_random_dags() {
        // Random DAGs with heavy sharing (every op picks earlier nodes as
        // children, often the same one twice), walked from every node.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        for _ in 0..200 {
            let mut g = Graph::new();
            g.input("X");
            for _ in 0..next(40) {
                let (a, b) = (next(g.len()), next(g.len()));
                match next(5) {
                    0 => g.input("Y"),
                    1 => g.matmul(a, b),
                    2 => g.ewise(EwiseOp::Add, a, b),
                    3 => g.transpose(a),
                    _ => g.agg(AggOp::Sum, a),
                };
            }
            for root in 0..g.len() {
                assert_eq!(g.reachable(root), reachable_recursive(&g, root), "{g}");
            }
        }
    }

    #[test]
    fn reachable_walks_a_deep_chain_on_a_small_stack() {
        // A recursive walk of a 200 000-deep chain needs far more than
        // 256 KiB of stack; the explicit stack lives on the heap.
        let walk = || {
            let mut g = Graph::new();
            let mut acc = g.input("X");
            for _ in 0..200_000 {
                acc = g.ewise(EwiseOp::Add, acc, acc);
            }
            let order = g.reachable(acc);
            assert_eq!(order.len(), 200_001);
            assert!(order.iter().enumerate().all(|(i, &id)| i == id), "children first");
        };
        let small = std::thread::Builder::new().stack_size(256 << 10).spawn(walk).unwrap();
        small.join().expect("no stack overflow");
    }

    #[test]
    fn render_writes_every_op() {
        let mut g = Graph::new();
        let (x, y, two) = (g.input("X"), g.input("Y"), g.constant(2.5));
        let ops = [
            g.matmul(x, y),
            g.transpose(x),
            g.ewise(EwiseOp::Add, x, two),
            g.ewise(EwiseOp::Sub, x, y),
            g.ewise(EwiseOp::Mul, x, y),
            g.ewise(EwiseOp::Div, x, y),
            g.agg(AggOp::Sum, x),
            g.agg(AggOp::ColSums, x),
            g.agg(AggOp::RowSums, x),
            g.agg(AggOp::Min, x),
            g.agg(AggOp::Max, x),
            g.unary(UnaryOp::Exp, x),
            g.unary(UnaryOp::Log, x),
            g.unary(UnaryOp::Sqrt, x),
            g.unary(UnaryOp::Abs, x),
            g.push(Op::CrossProd(x)),
            g.push(Op::Tmv(x, y)),
            g.push(Op::SumSq(x)),
        ];
        let text: Vec<String> = ops.iter().map(|&id| g.render(id)).collect();
        let want = [
            "(X %*% Y)",
            "t(X)",
            "(X + 2.5)",
            "(X - Y)",
            "(X * Y)",
            "(X / Y)",
            "sum(X)",
            "colSums(X)",
            "rowSums(X)",
            "min(X)",
            "max(X)",
            "exp(X)",
            "log(X)",
            "sqrt(X)",
            "abs(X)",
            "crossprod(X)",
            "tmv(X, Y)",
            "sumSq(X)",
        ];
        assert_eq!(text, want);
        // Nested and shared: the shared subtree is written at each use.
        let p = g.matmul(ops[1], x);
        let nested = g.ewise(EwiseOp::Sub, p, p);
        let root = g.unary(UnaryOp::Exp, nested);
        assert_eq!(g.render(root), "exp(((t(X) %*% X) - (t(X) %*% X)))");
    }

    #[test]
    fn render_writes_a_deep_chain_on_a_2_mib_stack() {
        const DEPTH: usize = 100_000;
        let walk = || {
            let mut g = Graph::new();
            let x = g.input("X");
            let mut acc = x;
            for _ in 0..DEPTH {
                acc = g.ewise(EwiseOp::Add, acc, x);
            }
            assert_eq!(g.len(), DEPTH + 1);
            let want = "(".repeat(DEPTH) + "X" + &" + X)".repeat(DEPTH);
            assert!(g.render(acc) == want, "the chain renders left-nested");
        };
        let small = std::thread::Builder::new().stack_size(2 << 20).spawn(walk).unwrap();
        small.join().expect("no stack overflow");
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

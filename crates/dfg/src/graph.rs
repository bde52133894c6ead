//! The immutable DFG and its builder.

use crate::color::{Color, ColorSet};
use crate::error::DfgError;
use crate::node::{Node, NodeId};

/// Mutable construction phase of a [`Dfg`].
///
/// All mutation happens here; [`DfgBuilder::build`] validates the graph
/// (known endpoints, no self-loops, no duplicate edges, acyclic) and freezes
/// it into compressed adjacency arrays.
#[derive(Clone, Debug, Default)]
pub struct DfgBuilder {
    nodes: Vec<Node>,
    edges: Vec<(NodeId, NodeId)>,
}

impl DfgBuilder {
    /// Start an empty graph.
    pub fn new() -> DfgBuilder {
        DfgBuilder::default()
    }

    /// Start an empty graph with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> DfgBuilder {
        DfgBuilder {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a node; returns its id. Ids are assigned in insertion order,
    /// which doubles as the scheduler's deterministic tie-break order.
    pub fn add_node(&mut self, name: impl Into<String>, color: Color) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("more than u32::MAX nodes"));
        self.nodes.push(Node::new(name, color));
        id
    }

    /// Add a dependency edge `from -> to` ("`to` consumes a value produced
    /// by `from`"). Fails immediately on unknown endpoints or self-loops;
    /// duplicate edges and cycles are reported by [`DfgBuilder::build`].
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), DfgError> {
        let n = self.nodes.len() as u32;
        if from.0 >= n {
            return Err(DfgError::UnknownNode(from));
        }
        if to.0 >= n {
            return Err(DfgError::UnknownNode(to));
        }
        if from == to {
            return Err(DfgError::SelfLoop(from));
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Validate and freeze into an immutable [`Dfg`]. The node array
    /// drops the builder's growth slack, so a frozen graph holds exactly
    /// its nodes for the rest of its life.
    pub fn build(mut self) -> Result<Dfg, DfgError> {
        self.nodes.shrink_to_fit();
        let n = self.nodes.len();

        // CSR for successors.
        let mut succ_offsets = vec![0u32; n + 1];
        for &(u, _) in &self.edges {
            succ_offsets[u.index() + 1] += 1;
        }
        for i in 0..n {
            succ_offsets[i + 1] += succ_offsets[i];
        }
        let mut succ_targets = vec![NodeId(0); self.edges.len()];
        let mut cursor = succ_offsets.clone();
        for &(u, v) in &self.edges {
            succ_targets[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
        }
        // Deterministic order within each adjacency list. A duplicate edge
        // shows as two equal neighbours in its source's sorted list, and
        // scanning sources in ascending order reports the lexicographically
        // first one.
        for i in 0..n {
            let (s, e) = (succ_offsets[i] as usize, succ_offsets[i + 1] as usize);
            let targets = &mut succ_targets[s..e];
            targets.sort_unstable();
            if let Some(w) = targets.windows(2).find(|w| w[0] == w[1]) {
                return Err(DfgError::DuplicateEdge(NodeId(i as u32), w[0]));
            }
        }

        // CSR for predecessors.
        let mut pred_offsets = vec![0u32; n + 1];
        for &(_, v) in &self.edges {
            pred_offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            pred_offsets[i + 1] += pred_offsets[i];
        }
        let mut pred_targets = vec![NodeId(0); self.edges.len()];
        let mut cursor = pred_offsets.clone();
        for &(u, v) in &self.edges {
            pred_targets[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        for i in 0..n {
            let (s, e) = (pred_offsets[i] as usize, pred_offsets[i + 1] as usize);
            pred_targets[s..e].sort_unstable();
        }

        let dfg = Dfg {
            nodes: self.nodes,
            succ_offsets,
            succ_targets,
            pred_offsets,
            pred_targets,
            topo: Vec::new(),
        };

        // Kahn's algorithm: topological order + cycle detection.
        let mut indeg: Vec<u32> = (0..n)
            .map(|i| dfg.preds(NodeId(i as u32)).len() as u32)
            .collect();
        let mut queue: std::collections::VecDeque<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|&v| indeg[v.index()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            topo.push(u);
            for &v in dfg.succs(u) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push_back(v);
                }
            }
        }
        if topo.len() != n {
            let on_cycle = (0..n as u32)
                .map(NodeId)
                .find(|v| indeg[v.index()] > 0)
                .expect("some node remains with nonzero in-degree");
            return Err(DfgError::Cycle(on_cycle));
        }

        Ok(Dfg { topo, ..dfg })
    }
}

/// An immutable data-flow graph: colored nodes plus dependency edges, stored
/// as CSR adjacency for cache-friendly traversal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dfg {
    pub(crate) nodes: Vec<Node>,
    succ_offsets: Vec<u32>,
    succ_targets: Vec<NodeId>,
    pred_offsets: Vec<u32>,
    pred_targets: Vec<NodeId>,
    topo: Vec<NodeId>,
}

impl Dfg {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.succ_targets.len()
    }

    /// All node ids, in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Payload of a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Color of a node (the paper's `l(n)`).
    #[inline]
    pub fn color(&self, id: NodeId) -> Color {
        self.nodes[id.index()].color
    }

    /// Name of a node.
    #[inline]
    pub fn name(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].name
    }

    /// Direct successors of a node (the paper's `Succ(n)`), ascending.
    #[inline]
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        let (s, e) = (
            self.succ_offsets[id.index()] as usize,
            self.succ_offsets[id.index() + 1] as usize,
        );
        &self.succ_targets[s..e]
    }

    /// Direct predecessors of a node (the paper's `Pred(n)`), ascending.
    #[inline]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        let (s, e) = (
            self.pred_offsets[id.index()] as usize,
            self.pred_offsets[id.index() + 1] as usize,
        );
        &self.pred_targets[s..e]
    }

    /// A topological order of the nodes (sources first).
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// All edges `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(move |u| self.succs(u).iter().map(move |&v| (u, v)))
    }

    /// The complete color set `L`: every color appearing in the graph.
    pub fn color_set(&self) -> ColorSet {
        self.nodes.iter().map(|n| n.color).collect()
    }

    /// Count of nodes per color, indexed by [`Color::index`]. The returned
    /// vector is long enough to index every color present.
    pub fn color_histogram(&self) -> Vec<usize> {
        let max = self
            .nodes
            .iter()
            .map(|n| n.color.index())
            .max()
            .unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for n in &self.nodes {
            hist[n.color.index()] += 1;
        }
        hist
    }

    /// A stable 64-bit content hash of the graph: node names, colors, and
    /// edges, in insertion order. Two graphs hash equal iff they would
    /// compare equal under `==` (modulo the astronomically unlikely
    /// collision), independent of process, run, or platform — the identity
    /// key the serving layer's artifact and table caches are built on.
    pub fn content_hash(&self) -> u64 {
        // FNV-1a, 64-bit: no std::hash dependence, so the value is stable
        // across Rust versions (DefaultHasher makes no such promise).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        eat(&(self.nodes.len() as u64).to_le_bytes());
        for n in &self.nodes {
            eat(n.name.as_bytes());
            // NUL-terminate the name so ("ab", color 1) can never collide
            // with ("a", …): node names come from identifiers and never
            // contain NUL.
            eat(&[0, n.color.0]);
        }
        for (u, v) in self.edges() {
            eat(&u.0.to_le_bytes());
            eat(&v.0.to_le_bytes());
        }
        h
    }

    /// Find a node by name (linear scan; intended for tests and examples).
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Nodes with no predecessors.
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.preds(v).is_empty())
            .collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&v| self.succs(v).is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(ch: char) -> Color {
        Color::from_char(ch).unwrap()
    }

    /// Diamond: s -> l, s -> r, l -> t, r -> t.
    fn diamond() -> Dfg {
        let mut b = DfgBuilder::new();
        let s = b.add_node("s", c('a'));
        let l = b.add_node("l", c('b'));
        let r = b.add_node("r", c('b'));
        let t = b.add_node("t", c('a'));
        b.add_edge(s, l).unwrap();
        b.add_edge(s, r).unwrap();
        b.add_edge(l, t).unwrap();
        b.add_edge(r, t).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_drops_the_builders_spare_capacity() {
        let mut b = DfgBuilder::new();
        for i in 0..5 {
            b.add_node(format!("n{i}"), c('a'));
        }
        let g = b.build().unwrap();
        assert_eq!(g.nodes.capacity(), g.len());
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = DfgBuilder::new();
        assert_eq!(b.add_node("x", c('a')), NodeId(0));
        assert_eq!(b.add_node("y", c('a')), NodeId(1));
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn adjacency_round_trip() {
        let g = diamond();
        let s = g.find("s").unwrap();
        let l = g.find("l").unwrap();
        let r = g.find("r").unwrap();
        let t = g.find("t").unwrap();
        assert_eq!(g.succs(s), &[l, r]);
        assert_eq!(g.preds(t), &[l, r]);
        assert_eq!(g.preds(s), &[] as &[NodeId]);
        assert_eq!(g.succs(t), &[] as &[NodeId]);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn sources_and_sinks() {
        let g = diamond();
        assert_eq!(g.sources(), vec![g.find("s").unwrap()]);
        assert_eq!(g.sinks(), vec![g.find("t").unwrap()]);
    }

    #[test]
    fn topo_order_is_valid() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.len()];
            for (i, &v) in g.topo_order().iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(
                pos[u.index()] < pos[v.index()],
                "edge {u}->{v} violates topo"
            );
        }
    }

    #[test]
    fn rejects_unknown_endpoint() {
        let mut b = DfgBuilder::new();
        let x = b.add_node("x", c('a'));
        assert_eq!(
            b.add_edge(x, NodeId(9)),
            Err(DfgError::UnknownNode(NodeId(9)))
        );
        assert_eq!(
            b.add_edge(NodeId(9), x),
            Err(DfgError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DfgBuilder::new();
        let x = b.add_node("x", c('a'));
        assert_eq!(b.add_edge(x, x), Err(DfgError::SelfLoop(x)));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = DfgBuilder::new();
        let x = b.add_node("x", c('a'));
        let y = b.add_node("y", c('a'));
        b.add_edge(x, y).unwrap();
        b.add_edge(x, y).unwrap();
        assert_eq!(b.build().unwrap_err(), DfgError::DuplicateEdge(x, y));
    }

    #[test]
    fn reports_the_lexicographically_first_duplicate_edge() {
        let mut b = DfgBuilder::new();
        let [w, x, y, z] = ["w", "x", "y", "z"].map(|name| b.add_node(name, c('a')));
        // (y, z) is duplicated first, but (x, y) sorts before it; the
        // single (x, w) sits in x's list without being a duplicate.
        for (u, v) in [(y, z), (y, z), (x, y), (x, w), (x, y)] {
            b.add_edge(u, v).unwrap();
        }
        assert_eq!(b.build().unwrap_err(), DfgError::DuplicateEdge(x, y));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = DfgBuilder::new();
        let x = b.add_node("x", c('a'));
        let y = b.add_node("y", c('a'));
        let z = b.add_node("z", c('a'));
        b.add_edge(x, y).unwrap();
        b.add_edge(y, z).unwrap();
        b.add_edge(z, x).unwrap();
        assert!(matches!(b.build(), Err(DfgError::Cycle(_))));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = DfgBuilder::new().build().unwrap();
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert!(g.sources().is_empty());
        assert!(g.color_set().is_empty());
    }

    #[test]
    fn color_helpers() {
        let g = diamond();
        let set = g.color_set();
        assert_eq!(set.len(), 2);
        let hist = g.color_histogram();
        assert_eq!(hist[c('a').index()], 2);
        assert_eq!(hist[c('b').index()], 2);
    }

    #[test]
    fn find_by_name() {
        let g = diamond();
        assert!(g.find("s").is_some());
        assert!(g.find("nope").is_none());
    }

    #[test]
    fn content_hash_tracks_equality() {
        let g = diamond();
        assert_eq!(g.content_hash(), diamond().content_hash());
        assert_eq!(g.content_hash(), g.clone().content_hash());

        // Any structural difference — name, color, edge set — changes it.
        let mut b = DfgBuilder::new();
        let x = b.add_node("x", c('a'));
        let y = b.add_node("y", c('b'));
        b.add_edge(x, y).unwrap();
        let with_edge = b.build().unwrap();
        let mut b = DfgBuilder::new();
        b.add_node("x", c('a'));
        b.add_node("y", c('b'));
        let without_edge = b.build().unwrap();
        assert_ne!(with_edge.content_hash(), without_edge.content_hash());

        let mut b = DfgBuilder::new();
        b.add_node("x", c('a'));
        b.add_node("y", c('c'));
        let recolored = b.build().unwrap();
        assert_ne!(without_edge.content_hash(), recolored.content_hash());

        // The name/color boundary is unambiguous: ("ab", …) never hashes
        // like ("a", …) with the following byte absorbed into the name.
        let mut b = DfgBuilder::new();
        b.add_node("ab", c('a'));
        let joined = b.build().unwrap();
        let mut b = DfgBuilder::new();
        b.add_node("a", c('b'));
        let split = b.build().unwrap();
        assert_ne!(joined.content_hash(), split.content_hash());
    }
}

//! Network topology: named nodes joined by directed links, with static
//! shortest-path routing for transparent store-and-forward relaying.
//!
//! The paper's testbed is a three-node chain (mobile client — edge — cloud);
//! [`Topology::chain`] builds exactly that, but arbitrary graphs (e.g. the
//! multi-edge cooperative experiments) are supported.

use crate::link::{Link, LinkParams};
use std::collections::VecDeque;

/// Identifier of a node within one [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A graph of nodes and directed links.
pub struct Topology {
    names: Vec<String>,
    /// Every directed link, in the order it was first connected.
    links: Vec<Link>,
    /// `out[a]`: `(b, index into links)` of each link `a → b`, sorted by
    /// `b` — a hop looks its link up without hashing the pair.
    out: Vec<Vec<(NodeId, usize)>>,
    /// routes[src][dst] = next hop on a shortest path, or None.
    routes: Vec<Vec<Option<NodeId>>>,
    routes_dirty: bool,
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Topology {
            names: Vec::new(),
            links: Vec::new(),
            out: Vec::new(),
            routes: Vec::new(),
            routes_dirty: false,
        }
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len());
        self.names.push(name.into());
        self.out.push(Vec::new());
        self.routes_dirty = true;
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Name of a node.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id.0]
    }

    /// Look a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name).map(NodeId)
    }

    /// Install a one-directional link from `a` to `b`.
    pub fn connect_oneway(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        assert!(a != b, "self-links are not allowed");
        let out = &mut self.out[a.0];
        match out.binary_search_by_key(&b, |&(to, _)| to) {
            Ok(i) => self.links[out[i].1] = Link::new(params),
            Err(i) => {
                out.insert(i, (b, self.links.len()));
                self.links.push(Link::new(params));
            }
        }
        self.routes_dirty = true;
    }

    /// Install a duplex link (both directions share parameters).
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.connect_oneway(a, b, params);
        self.connect_oneway(b, a, params);
    }

    /// Direct link from `a` to `b`, if one exists.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        self.link_index(a, b).map(|i| &self.links[i])
    }

    /// Mutable access to the direct link from `a` to `b`.
    pub fn link_mut(&mut self, a: NodeId, b: NodeId) -> Option<&mut Link> {
        self.link_index(a, b).map(|i| &mut self.links[i])
    }

    /// Where the link `a → b` is in `links`.
    fn link_index(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let out = self.out.get(a.0)?;
        let i = out.binary_search_by_key(&b, |&(to, _)| to).ok()?;
        Some(out[i].1)
    }

    /// Reshape an existing link in place (models live `tc` changes).
    ///
    /// # Panics
    /// Panics if the link does not exist.
    pub fn reshape(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.link_mut(a, b)
            .unwrap_or_else(|| panic!("no link {a}->{b}"))
            .reshape(params);
    }

    fn rebuild_routes(&mut self) {
        let n = self.names.len();
        // Deterministic neighbour order: each node's links are sorted.
        let adj: Vec<Vec<NodeId>> = self
            .out
            .iter()
            .map(|out| out.iter().map(|&(b, _)| b).collect())
            .collect();
        self.routes = vec![vec![None; n]; n];
        for src in 0..n {
            // BFS from src, recording first hop toward each destination.
            let mut first_hop: Vec<Option<NodeId>> = vec![None; n];
            let mut visited = vec![false; n];
            let mut q = VecDeque::new();
            visited[src] = true;
            q.push_back(NodeId(src));
            while let Some(u) = q.pop_front() {
                for &v in &adj[u.0] {
                    if !visited[v.0] {
                        visited[v.0] = true;
                        first_hop[v.0] = if u.0 == src { Some(v) } else { first_hop[u.0] };
                        q.push_back(v);
                    }
                }
            }
            self.routes[src] = first_hop;
        }
        self.routes_dirty = false;
    }

    /// Next hop from `src` toward `dst` along a shortest path, or `None`
    /// if `dst` is unreachable. `src == dst` yields `None`.
    pub fn next_hop(&mut self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        if self.routes_dirty {
            self.rebuild_routes();
        }
        if src == dst {
            return None;
        }
        self.routes[src.0][dst.0]
    }

    /// Build the paper's three-node chain: client —(access)— edge —(wan)— cloud.
    /// Returns `(client, edge, cloud)`.
    pub fn chain(access: LinkParams, wan: LinkParams) -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let client = t.add_node("client");
        let edge = t.add_node("edge");
        let cloud = t.add_node("cloud");
        t.connect(client, edge, access);
        t.connect(edge, cloud, wan);
        (t, client, edge, cloud)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn p() -> LinkParams {
        LinkParams::mbps_ms(100.0, 1)
    }

    #[test]
    fn chain_layout() {
        let (t, c, e, s) = Topology::chain(p(), p());
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.name(c), "client");
        assert_eq!(t.name(e), "edge");
        assert_eq!(t.name(s), "cloud");
        assert!(t.link(c, e).is_some());
        assert!(t.link(e, s).is_some());
        assert!(t.link(c, s).is_none());
    }

    #[test]
    fn find_by_name() {
        let (t, _, e, _) = Topology::chain(p(), p());
        assert_eq!(t.find("edge"), Some(e));
        assert_eq!(t.find("nope"), None);
    }

    #[test]
    fn routing_over_chain() {
        let (mut t, c, e, s) = Topology::chain(p(), p());
        assert_eq!(t.next_hop(c, s), Some(e));
        assert_eq!(t.next_hop(c, e), Some(e));
        assert_eq!(t.next_hop(s, c), Some(e));
        assert_eq!(t.next_hop(c, c), None);
    }

    #[test]
    fn routing_unreachable() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let island = t.add_node("island");
        t.connect(a, b, p());
        assert_eq!(t.next_hop(a, island), None);
        assert_eq!(t.next_hop(island, a), None);
    }

    #[test]
    fn routing_prefers_shortest_path() {
        // a - b - d  and  a - c - e - d : next hop from a to d must be b.
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let d = t.add_node("d");
        let e = t.add_node("e");
        t.connect(a, b, p());
        t.connect(b, d, p());
        t.connect(a, c, p());
        t.connect(c, e, p());
        t.connect(e, d, p());
        assert_eq!(t.next_hop(a, d), Some(b));
    }

    #[test]
    fn reshape_in_place() {
        let (mut t, c, e, _) = Topology::chain(p(), p());
        t.reshape(c, e, LinkParams::mbps_ms(5.0, 20));
        let l = t.link(c, e).unwrap();
        assert_eq!(l.params().bandwidth_bps, 5_000_000);
        assert_eq!(l.params().propagation, SimDuration::from_millis(20));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        t.connect_oneway(a, a, p());
    }
}

//! Topologies: nodes, links and failure scenarios.
//!
//! A topology distinguishes *terminals* (hosts and middleboxes — the
//! endpoints of the transfer function) from *switches* (the static
//! datapath the transfer function summarises away). Middleboxes carry a
//! type tag (`mbox_type`) because policy equivalence classes and slicing
//! group nodes by middlebox type, not instance (§4.1).

use crate::addr::{Address, Prefix};
use crate::error::NetError;
use std::collections::BTreeSet;
use std::fmt;

/// Index of a node in its [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Role of a node.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum NodeKind {
    /// An end host that can originate and sink traffic.
    Host,
    /// Part of the static datapath; summarised by the transfer function.
    Switch,
    /// A mutable-datapath element. `mbox_type` names the *model* (e.g.
    /// `"stateful-firewall"`); policy classes and slice discovery group
    /// instances by this tag.
    Middlebox { mbox_type: String },
}

impl NodeKind {
    pub fn is_terminal(&self) -> bool {
        !matches!(self, NodeKind::Switch)
    }

    pub fn is_middlebox(&self) -> bool {
        matches!(self, NodeKind::Middlebox { .. })
    }

    pub fn is_host(&self) -> bool {
        matches!(self, NodeKind::Host)
    }
}

/// A node in the topology.
#[derive(Clone, Debug)]
pub struct Node {
    pub name: String,
    pub kind: NodeKind,
    /// Addresses owned by the node (one for hosts; possibly several for
    /// middleboxes such as NATs or load-balancer VIPs; empty for switches).
    pub addresses: Vec<Address>,
}

/// An undirected link between two nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Link {
    pub a: NodeId,
    pub b: NodeId,
}

impl Link {
    pub fn new(a: NodeId, b: NodeId) -> Link {
        if a <= b {
            Link { a, b }
        } else {
            Link { a: b, b: a }
        }
    }

    pub fn other(self, n: NodeId) -> Option<NodeId> {
        if n == self.a {
            Some(self.b)
        } else if n == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A set of failed nodes and links — one "failure scenario" (§2.1: an
/// invariant may be required to hold "for all single failures").
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
pub struct FailureScenario {
    pub failed_nodes: BTreeSet<NodeId>,
    pub failed_links: BTreeSet<Link>,
}

impl FailureScenario {
    /// The no-failure scenario.
    pub fn none() -> FailureScenario {
        FailureScenario::default()
    }

    pub fn nodes(nodes: impl IntoIterator<Item = NodeId>) -> FailureScenario {
        FailureScenario { failed_nodes: nodes.into_iter().collect(), failed_links: BTreeSet::new() }
    }

    pub fn is_failed(&self, n: NodeId) -> bool {
        self.failed_nodes.contains(&n)
    }

    pub fn is_link_failed(&self, l: Link) -> bool {
        self.failed_links.contains(&l)
            || self.failed_nodes.contains(&l.a)
            || self.failed_nodes.contains(&l.b)
    }

    pub fn fault_count(&self) -> usize {
        self.failed_nodes.len() + self.failed_links.len()
    }
}

/// The network graph.
#[derive(Clone, Default, Debug)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Neighbours in link-insertion order (the order `neighbors` and the
    /// transfer function's uplink choice observe).
    adjacency: Vec<Vec<NodeId>>,
    /// The same neighbours sorted by id, for `is_adjacent`.
    sorted_adjacency: Vec<Vec<NodeId>>,
    /// How many nodes are terminals, for `num_terminals`.
    terminals: usize,
}

impl Topology {
    pub fn new() -> Topology {
        Topology::default()
    }

    pub fn add_host(&mut self, name: impl Into<String>, addr: Address) -> NodeId {
        self.add_node(Node { name: name.into(), kind: NodeKind::Host, addresses: vec![addr] })
    }

    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(Node { name: name.into(), kind: NodeKind::Switch, addresses: Vec::new() })
    }

    pub fn add_middlebox(
        &mut self,
        name: impl Into<String>,
        mbox_type: impl Into<String>,
        addresses: Vec<Address>,
    ) -> NodeId {
        self.add_node(Node {
            name: name.into(),
            kind: NodeKind::Middlebox { mbox_type: mbox_type.into() },
            addresses,
        })
    }

    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.terminals += usize::from(node.kind.is_terminal());
        self.nodes.push(node);
        self.adjacency.push(Vec::new());
        self.sorted_adjacency.push(Vec::new());
        id
    }

    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> Link {
        assert!(a.index() < self.nodes.len() && b.index() < self.nodes.len());
        assert_ne!(a, b, "self-links are not allowed");
        let l = Link::new(a, b);
        if let Err(at) = self.sorted_adjacency[a.index()].binary_search(&b) {
            self.links.push(l);
            self.adjacency[a.index()].push(b);
            self.adjacency[b.index()].push(a);
            self.sorted_adjacency[a.index()].insert(at, b);
            let at = self.sorted_adjacency[b.index()].binary_search(&a).unwrap_or_else(|at| at);
            self.sorted_adjacency[b.index()].insert(at, a);
        }
        l
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// How many of the nodes are terminals (hosts and middleboxes).
    pub fn num_terminals(&self) -> usize {
        self.terminals
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        &self.adjacency[n.index()]
    }

    /// Whether a link joins `a` and `b` (a binary search over `a`'s
    /// neighbours, not a scan: switches can have hundreds).
    pub fn is_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.sorted_adjacency[a.index()].binary_search(&b).is_ok()
    }

    /// Neighbours reachable under `scenario` (no failed node/link).
    pub fn live_neighbors<'a>(
        &'a self,
        n: NodeId,
        scenario: &'a FailureScenario,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.adjacency[n.index()]
            .iter()
            .copied()
            .filter(move |&m| !scenario.is_link_failed(Link::new(n, m)))
    }

    pub fn by_name(&self, name: &str) -> Result<NodeId, NetError> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
            .ok_or_else(|| NetError::UnknownNode(name.to_string()))
    }

    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|(_, n)| n.kind.is_host()).map(|(id, _)| id)
    }

    pub fn middleboxes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|(_, n)| n.kind.is_middlebox()).map(|(id, _)| id)
    }

    pub fn terminals(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|(_, n)| n.kind.is_terminal()).map(|(id, _)| id)
    }

    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|(_, n)| matches!(n.kind, NodeKind::Switch)).map(|(id, _)| id)
    }

    /// The terminal that owns `addr`, if any.
    pub fn terminal_for_address(&self, addr: Address) -> Option<NodeId> {
        self.nodes()
            .find(|(_, n)| n.kind.is_terminal() && n.addresses.contains(&addr))
            .map(|(id, _)| id)
    }

    /// The middlebox type tag of a node, if it is a middlebox.
    pub fn mbox_type(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Middlebox { mbox_type } => Some(mbox_type),
            _ => None,
        }
    }

    /// Re-tags a middlebox with another model type. Its links and
    /// addresses stay, so nothing derived from the graph moves.
    pub fn retag_middlebox(&mut self, id: NodeId, mbox_type: impl Into<String>) {
        let node = &mut self.nodes[id.index()];
        assert!(node.kind.is_middlebox(), "{:?} is not a middlebox", node.name);
        node.kind = NodeKind::Middlebox { mbox_type: mbox_type.into() };
    }

    /// All host prefixes (host routes).
    pub fn host_prefixes(&self) -> Vec<Prefix> {
        self.hosts().flat_map(|h| self.node(h).addresses.iter().map(|&a| Prefix::host(a))).collect()
    }

    /// All single-node failure scenarios over middleboxes (the common case
    /// evaluated in §5.1: does redundancy actually provide fault
    /// tolerance?).
    pub fn single_middlebox_failures(&self) -> Vec<FailureScenario> {
        self.middleboxes().map(|m| FailureScenario::nodes([m])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn small() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", addr("10.0.0.1"));
        let h2 = t.add_host("h2", addr("10.0.0.2"));
        let sw = t.add_switch("sw");
        let fw = t.add_middlebox("fw", "stateful-firewall", vec![]);
        t.add_link(h1, sw);
        t.add_link(h2, sw);
        t.add_link(fw, sw);
        (t, h1, h2, sw, fw)
    }

    #[test]
    fn classification_iterators() {
        let (t, h1, h2, sw, fw) = small();
        assert_eq!(t.hosts().collect::<Vec<_>>(), vec![h1, h2]);
        assert_eq!(t.middleboxes().collect::<Vec<_>>(), vec![fw]);
        assert_eq!(t.switches().collect::<Vec<_>>(), vec![sw]);
        assert_eq!(t.terminals().count(), 3);
        assert_eq!(t.num_terminals(), 3);
    }

    #[test]
    fn lookup_by_name_and_address() {
        let (t, h1, _, _, _) = small();
        assert_eq!(t.by_name("h1").unwrap(), h1);
        assert!(t.by_name("nope").is_err());
        assert_eq!(t.terminal_for_address(addr("10.0.0.1")), Some(h1));
        assert_eq!(t.terminal_for_address(addr("10.9.9.9")), None);
    }

    #[test]
    fn duplicate_links_are_ignored() {
        let (mut t, h1, _, sw, _) = small();
        let before = t.links().len();
        t.add_link(sw, h1); // same undirected link, reversed
        assert_eq!(t.links().len(), before);
    }

    #[test]
    fn failure_scenarios_kill_links() {
        let (t, h1, _, sw, fw) = small();
        let s = FailureScenario::nodes([fw]);
        assert!(s.is_failed(fw));
        assert!(s.is_link_failed(Link::new(fw, sw)));
        assert!(!s.is_link_failed(Link::new(h1, sw)));
        let live: Vec<NodeId> = t.live_neighbors(sw, &s).collect();
        assert!(!live.contains(&fw));
        assert!(live.contains(&h1));
    }

    #[test]
    fn mbox_type_tagging() {
        let (t, _, _, sw, fw) = small();
        assert_eq!(t.mbox_type(fw), Some("stateful-firewall"));
        assert_eq!(t.mbox_type(sw), None);
        let mut t = t;
        t.retag_middlebox(fw, "acl-firewall");
        assert_eq!(t.mbox_type(fw), Some("acl-firewall"));
    }

    #[test]
    fn single_failures_enumerated() {
        let (t, _, _, _, fw) = small();
        let fs = t.single_middlebox_failures();
        assert_eq!(fs.len(), 1);
        assert!(fs[0].is_failed(fw));
    }
}

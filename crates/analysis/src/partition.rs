//! Topology partitions for modular verification.
//!
//! A [`Partition`] splits the network's nodes into named, disjoint,
//! covering modules. The cut edges between modules are the *boundary
//! ports* where contracts live ([`crate::contract`]): the `vmn` crate
//! synthesizes, for each cut edge, what can cross it, and an isolation
//! invariant between modules holds when nothing the destination's
//! edges admit carries the source's address — LIGHTYEAR's modular
//! recipe applied to VMN's mutable-datapath setting, with every
//! contract derived from the network rather than written by hand.
//!
//! Everything here is name-based (`String` node names, `(String,
//! String)` undirected links) so the partitioner stays independent of
//! any particular topology representation; the `vmn` crate adapts its
//! `Network` into these lists.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One module of a partition: a named set of nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Module {
    pub name: String,
    pub nodes: BTreeSet<String>,
}

impl Module {
    pub fn new(name: impl Into<String>, nodes: impl IntoIterator<Item = String>) -> Module {
        Module { name: name.into(), nodes: nodes.into_iter().collect() }
    }
}

/// A partition of the topology into modules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Partition {
    pub modules: Vec<Module>,
}

/// Why a candidate partition is not a partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// A node appears in two modules.
    Overlap { node: String, first: String, second: String },
    /// A topology node appears in no module.
    Uncovered { node: String },
    /// A module names a node the topology does not have.
    UnknownNode { module: String, node: String },
    /// Two modules share a name.
    DuplicateModule { name: String },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Overlap { node, first, second } => {
                write!(f, "node {node:?} is in both module {first:?} and module {second:?}")
            }
            PartitionError::Uncovered { node } => {
                write!(f, "node {node:?} is in no module")
            }
            PartitionError::UnknownNode { module, node } => {
                write!(f, "module {module:?} names unknown node {node:?}")
            }
            PartitionError::DuplicateModule { name } => {
                write!(f, "two modules named {name:?}")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

impl Partition {
    /// The degenerate one-module partition: modular verification over it
    /// has no cut edges, hence no contracts, and behaves exactly like
    /// the monolithic engine.
    pub fn monolithic(nodes: impl IntoIterator<Item = String>) -> Partition {
        Partition { modules: vec![Module::new("all", nodes)] }
    }

    /// The other degenerate: one module per node (every edge is a cut
    /// edge).
    pub fn per_node(nodes: impl IntoIterator<Item = String>) -> Partition {
        Partition {
            modules: nodes
                .into_iter()
                .map(|n| Module { name: n.clone(), nodes: BTreeSet::from([n]) })
                .collect(),
        }
    }

    /// Checks the modules are disjoint, cover every topology node, and
    /// name only real nodes.
    pub fn validate<'a>(
        &self,
        topo_nodes: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), PartitionError> {
        let all: BTreeSet<&str> = topo_nodes.into_iter().collect();
        let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for m in &self.modules {
            if !names.insert(&m.name) {
                return Err(PartitionError::DuplicateModule { name: m.name.clone() });
            }
            for n in &m.nodes {
                if !all.contains(n.as_str()) {
                    return Err(PartitionError::UnknownNode {
                        module: m.name.clone(),
                        node: n.clone(),
                    });
                }
                if let Some(first) = seen.insert(n, &m.name) {
                    return Err(PartitionError::Overlap {
                        node: n.clone(),
                        first: first.to_string(),
                        second: m.name.clone(),
                    });
                }
            }
        }
        for n in all {
            if !seen.contains_key(n) {
                return Err(PartitionError::Uncovered { node: n.to_string() });
            }
        }
        Ok(())
    }

    /// The module containing `node`, if any.
    pub fn module_of(&self, node: &str) -> Option<&str> {
        self.modules.iter().find(|m| m.nodes.contains(node)).map(|m| m.name.as_str())
    }

    /// The cut edges of this partition: every link whose endpoints live
    /// in different modules, as `(a, b)` name pairs in the orientation
    /// given. These are exactly the boundary ports contracts attach to.
    pub fn boundary_edges<'a>(
        &self,
        links: impl IntoIterator<Item = &'a (String, String)>,
    ) -> Vec<(String, String)> {
        links
            .into_iter()
            .filter(|(a, b)| {
                let (ma, mb) = (self.module_of(a), self.module_of(b));
                ma.is_some() && mb.is_some() && ma != mb
            })
            .cloned()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.modules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }
}

/// Automatically partitions a topology on low-connectivity boundaries.
///
/// The cut criterion is *infrastructure bridges*: links that are
/// bridges of the graph (removing one disconnects it) and join two
/// non-host nodes. In the estates VMN targets — pods behind uplinks,
/// campus buildings behind an in-line firewall, tenants behind a
/// gateway — these are exactly the pod/building/tenant uplinks, while
/// host access links (also bridges) never separate a host from its
/// switch. Modules are the connected components left after cutting,
/// each named `mod-<lexicographically first member>`.
///
/// `nodes` is `(name, is_infra)` where `is_infra` marks switches and
/// middleboxes (anything that is not a host). Degenerate inputs
/// degrade gracefully: a topology with no infrastructure bridge (a
/// single hub switch, a redundant mesh) yields one module per
/// connected component — the monolithic partition when connected.
pub fn auto_partition(nodes: &[(String, bool)], links: &[(String, String)]) -> Partition {
    let index: BTreeMap<&str, usize> =
        nodes.iter().enumerate().map(|(i, (n, _))| (n.as_str(), i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in links {
        if let (Some(&ia), Some(&ib)) = (index.get(a.as_str()), index.get(b.as_str())) {
            if ia != ib && !adj[ia].contains(&ib) {
                adj[ia].push(ib);
                adj[ib].push(ia);
            }
        }
    }

    let cut: BTreeSet<(usize, usize)> =
        bridges(nodes.len(), &adj).into_iter().filter(|&(a, b)| nodes[a].1 && nodes[b].1).collect();

    // Connected components of the graph minus the cut edges.
    let mut comp = vec![usize::MAX; nodes.len()];
    let mut ncomp = 0usize;
    for start in 0..nodes.len() {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = ncomp;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                let e = (v.min(w), v.max(w));
                if comp[w] == usize::MAX && !cut.contains(&e) {
                    comp[w] = ncomp;
                    stack.push(w);
                }
            }
        }
        ncomp += 1;
    }

    let mut groups: Vec<BTreeSet<String>> = vec![BTreeSet::new(); ncomp];
    for (i, (name, _)) in nodes.iter().enumerate() {
        groups[comp[i]].insert(name.clone());
    }
    let modules = groups
        .into_iter()
        .map(|g| {
            let first = g.iter().next().expect("non-empty component").clone();
            Module { name: format!("mod-{first}"), nodes: g }
        })
        .collect();
    Partition { modules }
}

/// Bridges of an undirected graph (iterative low-link DFS, safe for
/// deep paths), as `(min, max)` index pairs.
fn bridges(n: usize, adj: &[Vec<usize>]) -> Vec<(usize, usize)> {
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut out = Vec::new();
    let mut time = 0usize;
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        // (vertex, index into its adjacency list)
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        disc[root] = time;
        low[root] = time;
        time += 1;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < adj[v].len() {
                let w = adj[v][*i];
                *i += 1;
                if disc[w] == usize::MAX {
                    parent[w] = v;
                    disc[w] = time;
                    low[w] = time;
                    time += 1;
                    stack.push((w, 0));
                } else if w != parent[v] {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[v]);
                    if low[v] > disc[p] {
                        out.push((p.min(v), p.max(v)));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(ns: &[&str]) -> Vec<String> {
        ns.iter().map(|s| s.to_string()).collect()
    }

    fn link(a: &str, b: &str) -> (String, String) {
        (a.to_string(), b.to_string())
    }

    /// Two pods of hosts on pod switches joined by a core switch.
    fn two_pods() -> (Vec<(String, bool)>, Vec<(String, String)>) {
        let mut nodes = vec![("core".to_string(), true)];
        let mut links = Vec::new();
        for p in 0..2 {
            nodes.push((format!("sw{p}"), true));
            links.push(link(&format!("sw{p}"), "core"));
            for h in 0..3 {
                nodes.push((format!("h{p}{h}"), false));
                links.push(link(&format!("h{p}{h}"), &format!("sw{p}")));
            }
        }
        (nodes, links)
    }

    #[test]
    fn validate_accepts_partition() {
        let p = Partition {
            modules: vec![Module::new("a", names(&["x", "y"])), Module::new("b", names(&["z"]))],
        };
        assert!(p.validate(["x", "y", "z"]).is_ok());
    }

    #[test]
    fn validate_rejects_overlap_uncovered_unknown() {
        let overlap = Partition {
            modules: vec![Module::new("a", names(&["x"])), Module::new("b", names(&["x"]))],
        };
        assert!(matches!(overlap.validate(["x"]), Err(PartitionError::Overlap { .. })));
        let uncovered = Partition { modules: vec![Module::new("a", names(&["x"]))] };
        assert!(matches!(uncovered.validate(["x", "y"]), Err(PartitionError::Uncovered { .. })));
        let unknown = Partition { modules: vec![Module::new("a", names(&["ghost"]))] };
        assert!(matches!(unknown.validate(["x"]), Err(PartitionError::UnknownNode { .. })));
        let dup = Partition {
            modules: vec![Module::new("a", names(&["x"])), Module::new("a", names(&["y"]))],
        };
        assert!(matches!(dup.validate(["x", "y"]), Err(PartitionError::DuplicateModule { .. })));
    }

    #[test]
    fn boundary_edges_are_cut_edges() {
        let p = Partition {
            modules: vec![
                Module::new("left", names(&["a", "b"])),
                Module::new("right", names(&["c"])),
            ],
        };
        let links = vec![link("a", "b"), link("b", "c")];
        assert_eq!(p.boundary_edges(&links), vec![link("b", "c")]);
    }

    #[test]
    fn auto_partition_splits_pods_on_core() {
        let (nodes, links) = two_pods();
        let p = auto_partition(&nodes, &links);
        let topo: Vec<&str> = nodes.iter().map(|(n, _)| n.as_str()).collect();
        p.validate(topo.iter().copied()).expect("true partition");
        assert_eq!(p.len(), 3, "core + two pods: {p:?}");
        assert_eq!(p.module_of("core"), Some("mod-core"));
        assert_eq!(p.module_of("h00"), p.module_of("sw0"));
        assert_ne!(p.module_of("h00"), p.module_of("h10"));
        // Boundary edges are exactly the pod-uplink cut.
        let cuts = p.boundary_edges(&links);
        assert_eq!(cuts.len(), 2);
    }

    #[test]
    fn auto_partition_without_hub_is_monolithic() {
        // A path h - sw - h: sw is an articulation point but only degree 2.
        let nodes =
            vec![("a".to_string(), false), ("sw".to_string(), true), ("b".to_string(), false)];
        let links = vec![link("a", "sw"), link("sw", "b")];
        let p = auto_partition(&nodes, &links);
        assert_eq!(p.len(), 1);
        assert!(p.boundary_edges(&links).is_empty());
    }

    #[test]
    fn degenerate_partitions() {
        let ns = names(&["a", "b", "c"]);
        let mono = Partition::monolithic(ns.clone());
        assert_eq!(mono.len(), 1);
        assert!(mono.validate(["a", "b", "c"]).is_ok());
        let per = Partition::per_node(ns);
        assert_eq!(per.len(), 3);
        assert!(per.validate(["a", "b", "c"]).is_ok());
        let links = vec![link("a", "b"), link("b", "c")];
        assert!(mono.boundary_edges(&links).is_empty());
        assert_eq!(per.boundary_edges(&links).len(), 2);
    }
}

//! Reachability invariants (§3.3 of the paper).
//!
//! All invariants are safety properties of the form
//! `∀n,p: □¬(rcv(d, n, p) ∧ predicate(p))` — "d never receives a packet
//! matching the predicate". Each variant below fixes a predicate family
//! from the paper; a *violation* is a finite trace ending in a matching
//! reception.

use vmn_net::NodeId;

/// A reachability invariant to verify.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// *Simple isolation*: `dst` never receives a packet whose source
    /// address belongs to `src`
    /// (`∀n,p: □¬(rcv(dst,n,p) ∧ src(p) = src)`).
    NodeIsolation { src: NodeId, dst: NodeId },

    /// *Flow isolation*: `dst` receives packets from `src` only on flows
    /// that `dst` itself initiated (hole-punching semantics).
    FlowIsolation { src: NodeId, dst: NodeId },

    /// *Data isolation*: `dst` never receives a packet whose data
    /// originates at `origin` (`∀n,p: □¬(rcv(dst,n,p) ∧ origin(p) = s)`),
    /// whether directly or through an intermediary such as a content
    /// cache.
    DataIsolation { origin: NodeId, dst: NodeId },

    /// *Traversal*: every packet delivered to `dst` must have been
    /// processed by at least one of `through` (e.g. "all traffic to the
    /// rack passes an IDPS"). `from` optionally restricts the obligation
    /// to packets originating at one host.
    Traversal { dst: NodeId, through: Vec<NodeId>, from: Option<NodeId> },
}

impl Invariant {
    /// Hosts and middleboxes the invariant textually references — the
    /// nodes a slice must contain (§4).
    pub fn endpoints(&self) -> Vec<NodeId> {
        match self {
            Invariant::NodeIsolation { src, dst } | Invariant::FlowIsolation { src, dst } => {
                vec![*src, *dst]
            }
            Invariant::DataIsolation { origin, dst } => vec![*origin, *dst],
            Invariant::Traversal { dst, through, from } => {
                let mut v = vec![*dst];
                v.extend(through.iter().copied());
                v.extend(from.iter().copied());
                v
            }
        }
    }

    /// The same invariant over renamed nodes: every node it references,
    /// `through` boxes included, replaced by `f` of it.
    pub fn map_nodes(&self, mut f: impl FnMut(NodeId) -> NodeId) -> Invariant {
        match self {
            Invariant::NodeIsolation { src, dst } => {
                Invariant::NodeIsolation { src: f(*src), dst: f(*dst) }
            }
            Invariant::FlowIsolation { src, dst } => {
                Invariant::FlowIsolation { src: f(*src), dst: f(*dst) }
            }
            Invariant::DataIsolation { origin, dst } => {
                Invariant::DataIsolation { origin: f(*origin), dst: f(*dst) }
            }
            Invariant::Traversal { dst, through, from } => Invariant::Traversal {
                dst: f(*dst),
                through: through.iter().map(|&m| f(m)).collect(),
                from: from.map(&mut f),
            },
        }
    }

    /// Short label for reports and benchmarks.
    pub fn kind(&self) -> &'static str {
        match self {
            Invariant::NodeIsolation { .. } => "node-isolation",
            Invariant::FlowIsolation { .. } => "flow-isolation",
            Invariant::DataIsolation { .. } => "data-isolation",
            Invariant::Traversal { .. } => "traversal",
        }
    }

    /// Number of distinct packets a minimal violation needs in flight —
    /// used by the trace-bound computation ([`crate::bounds`]).
    pub fn witness_packets(&self) -> usize {
        match self {
            Invariant::NodeIsolation { .. } => 1,
            // The offending packet plus (for the "holds" direction) the
            // flow-establishing packet the firewall would require.
            Invariant::FlowIsolation { .. } => 2,
            // Cache warm-up: origin's response, then the request/response
            // pair serving the cached copy.
            Invariant::DataIsolation { .. } => 3,
            Invariant::Traversal { .. } => 1,
        }
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invariant::NodeIsolation { src, dst } => {
                write!(f, "node-isolation({src:?} -/-> {dst:?})")
            }
            Invariant::FlowIsolation { src, dst } => {
                write!(f, "flow-isolation({src:?} -/-> {dst:?})")
            }
            Invariant::DataIsolation { origin, dst } => {
                write!(f, "data-isolation(data({origin:?}) -/-> {dst:?})")
            }
            Invariant::Traversal { dst, through, from } => {
                write!(f, "traversal({from:?} -> {dst:?} via {through:?})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_cover_references() {
        let inv = Invariant::Traversal {
            dst: NodeId(3),
            through: vec![NodeId(7), NodeId(9)],
            from: Some(NodeId(1)),
        };
        assert_eq!(inv.endpoints(), vec![NodeId(3), NodeId(7), NodeId(9), NodeId(1)]);
    }

    #[test]
    fn witness_packet_counts_ordered_by_statefulness() {
        let a = Invariant::NodeIsolation { src: NodeId(0), dst: NodeId(1) };
        let b = Invariant::FlowIsolation { src: NodeId(0), dst: NodeId(1) };
        let c = Invariant::DataIsolation { origin: NodeId(0), dst: NodeId(1) };
        assert!(a.witness_packets() < b.witness_packets());
        assert!(b.witness_packets() < c.witness_packets());
    }
}

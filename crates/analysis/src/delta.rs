//! Delta footprints: which parts of a network a configuration change
//! can affect.
//!
//! A long-lived verifier (the `vmn_serve` daemon) applies *deltas* —
//! model swaps, topology edits, invariant and scenario changes — and
//! wants to re-check only what a delta can actually touch. The sound
//! coarse answer is a [`TouchSet`]: either nothing observable changed
//! (invariant/scenario bookkeeping only), a named set of nodes changed
//! *behaviour* while the topology and routing stayed fixed (a middlebox
//! model swap), or the change was structural (links, nodes, routes) and
//! anything derived from the topology — header classes, delivery
//! functions, node ids — may have moved.
//!
//! The engine consumes a [`TouchSet`] to decide how much of its epoch a
//! swap keeps (`vmn::Verifier::swap_network`): header classes, delivery
//! intervals, contract arrivals, policy classes and the BDD dataplane
//! each survive exactly the deltas that cannot have moved them. The
//! daemon keeps its
//! cached verdicts as they are only under [`TouchSet::Nothing`]; after
//! any other delta it asks each pair's slice fingerprint instead.

use std::collections::BTreeSet;

/// The footprint of one applied delta, by node *name* (names are stable
/// across re-materialisations of a symbolic network description; node
/// ids are not once nodes can be removed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TouchSet {
    /// No observable behaviour changed: invariants or failure scenarios
    /// were added/retired, but every node forwards and filters exactly
    /// as before. Every per-epoch table stays valid.
    Nothing,
    /// The named nodes changed behaviour (a middlebox model swap) while
    /// the topology, links and forwarding tables stayed fixed. Anything
    /// that reads no model of these nodes is untouched.
    Nodes(BTreeSet<String>),
    /// Structural change: topology, links or routing moved, so delivery
    /// behaviour (and node identity) may have changed anywhere.
    Everything,
}

impl TouchSet {
    /// Footprint of a single node's behaviour change.
    pub fn node(name: impl Into<String>) -> TouchSet {
        TouchSet::Nodes(BTreeSet::from([name.into()]))
    }

    pub fn is_nothing(&self) -> bool {
        matches!(self, TouchSet::Nothing)
    }

    /// Folds two footprints (for batched deltas): the union is the
    /// smallest touch set covering both.
    pub fn union(self, other: TouchSet) -> TouchSet {
        match (self, other) {
            (TouchSet::Everything, _) | (_, TouchSet::Everything) => TouchSet::Everything,
            (TouchSet::Nothing, x) | (x, TouchSet::Nothing) => x,
            (TouchSet::Nodes(mut a), TouchSet::Nodes(b)) => {
                a.extend(b);
                TouchSet::Nodes(a)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_is_ordered_nothing_nodes_everything() {
        let a = TouchSet::node("fw1");
        let b = TouchSet::node("fw2");
        assert_eq!(TouchSet::Nothing.union(a.clone()), a);
        assert_eq!(a.clone().union(TouchSet::Everything), TouchSet::Everything);
        let ab = a.union(b);
        assert_eq!(ab, TouchSet::Nodes(BTreeSet::from(["fw1".into(), "fw2".into()])));
    }
}

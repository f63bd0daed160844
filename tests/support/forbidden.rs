//! The reception an invariant forbids, as a predicate on one simulator
//! observation: what a replayed violation witness must exhibit.

use vmn::{Invariant, Network};
use vmn_sim::Observation;

/// Whether `o` is a reception `inv` forbids: at its destination from its
/// source's address (node isolation; for flow isolation a sufficient
/// check), carrying its origin (data isolation), or at all (traversal).
pub fn forbidden(net: &Network, inv: &Invariant, o: &Observation) -> bool {
    match *inv {
        Invariant::NodeIsolation { src, dst } | Invariant::FlowIsolation { src, dst } => {
            o.at == dst && o.header.src == net.host_address(src)
        }
        Invariant::DataIsolation { origin, dst } => {
            o.at == dst && o.header.origin == net.host_address(origin)
        }
        Invariant::Traversal { dst, .. } => o.at == dst,
    }
}

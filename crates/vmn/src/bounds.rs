//! Trace-bound computation for the bounded-trace encoding.
//!
//! The paper hands Z3 formulas quantified over unbounded time and relies
//! on its heuristics; we instead unroll a bounded trace and must justify
//! the bound. For the invariant classes of §3.3 over slices of
//! flow-parallel / origin-agnostic middleboxes, a violation — if any
//! exists — has a *small-model* witness:
//!
//! * each witness packet crosses a pipeline of at most `D` middleboxes,
//!   costing one send step plus `D` processing steps;
//! * stateful behaviour along the path (firewall hole-punching, cache
//!   warm-up, NAT mappings) is primed by at most `W − 1` earlier packets,
//!   where `W` is [`Invariant::witness_packets`];
//! * no other event can enable a reception that these cannot (middlebox
//!   state only grows via processed packets, and — for flow-parallel
//!   boxes — only the witness flows' state is ever consulted).
//!
//! Hence `K = W · (D + 1) + slack` steps suffice; the slack
//! ([`DEFAULT_SLACK`]) absorbs model-specific extras such as a
//! load-balancer hop inserted by rewriting. `D` is read off the closure
//! that plans the check ([`crate::slice::compute_slice`]): the slice's, or
//! the whole network's, where paths can be longer.

use crate::invariant::Invariant;

/// The slack steps the engine adds to every bound.
pub const DEFAULT_SLACK: usize = 2;

/// The trace bound for verifying `inv` over a node set whose longest
/// middlebox pipeline between two of its hosts crosses `depth` boxes.
pub fn trace_bound(inv: &Invariant, depth: usize) -> usize {
    inv.witness_packets() * (depth + 1) + DEFAULT_SLACK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::pipeline_depth::max_pipeline_depth;
    use crate::policy::PolicyClasses;
    use crate::slice::compute_slice;
    use vmn_mbox::models;
    use vmn_net::{
        Address, FailureScenario, HeaderClasses, NodeId, Prefix, RoutingConfig, Rule, Topology,
    };

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn two_host_net(with_fw: bool) -> (Network, NodeId, NodeId) {
        let mut topo = Topology::new();
        let h1 = topo.add_host("h1", addr("10.0.1.1"));
        let h2 = topo.add_host("h2", addr("10.0.2.1"));
        let s1 = topo.add_switch("s1");
        topo.add_link(h1, s1);
        topo.add_link(h2, s1);
        let fw = if with_fw {
            let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
            topo.add_link(fw, s1);
            Some(fw)
        } else {
            None
        };
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        if let Some(fw) = fw {
            tables.add_rule(s1, Rule::from_neighbor(px("0.0.0.0/0"), h1, fw).with_priority(10));
        }
        let mut net = Network::new(topo, tables);
        if let Some(fw) = fw {
            net.set_model(fw, models::learning_firewall("stateful-firewall", vec![]));
        }
        (net, h1, h2)
    }

    /// The closure of `{h1, h2}` and its pipeline depth, which must be the
    /// reference's over the closed set.
    fn closed_depth(net: &Network, h1: NodeId, h2: NodeId) -> usize {
        let none = FailureScenario::none();
        let classes = HeaderClasses::from_network(&net.topo, &net.tables);
        let policy = PolicyClasses::from_groups(vec![]);
        let (nodes, depth) =
            compute_slice(net, &classes, &net.parallelism_classes(), &none, [h1, h2], || &policy)
                .unwrap();
        let reference = max_pipeline_depth(&net.topo, &net.tables, &classes, &none, &nodes);
        assert_eq!(Ok(depth), reference, "closure of {nodes:?}");
        depth
    }

    #[test]
    fn depth_counts_middleboxes() {
        let (net, h1, h2) = two_host_net(true);
        assert_eq!(closed_depth(&net, h1, h2), 1);
        let (net2, h1b, h2b) = two_host_net(false);
        assert_eq!(closed_depth(&net2, h1b, h2b), 0);
    }

    #[test]
    fn bound_scales_with_witness_packets() {
        let (net, h1, h2) = two_host_net(true);
        let depth = closed_depth(&net, h1, h2);
        let simple = Invariant::NodeIsolation { src: h1, dst: h2 };
        let flow = Invariant::FlowIsolation { src: h1, dst: h2 };
        let b1 = trace_bound(&simple, depth);
        let b2 = trace_bound(&flow, depth);
        assert_eq!(b1, 2 + DEFAULT_SLACK);
        assert_eq!(b2, 2 * 2 + DEFAULT_SLACK);
        assert!(b2 > b1);
    }
}

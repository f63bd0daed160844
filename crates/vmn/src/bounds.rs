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
//! Hence `K = W · (D + 1) + slack` steps suffice; `slack` ([`DEFAULT_SLACK`])
//! absorbs model-specific extras such as a load-balancer hop inserted by
//! rewriting. The bound is per (invariant, scenario, node set) and is
//! recomputed for whole-network runs, where paths can be longer.

use crate::invariant::Invariant;
use crate::network::Network;
use vmn_net::{FailureScenario, HeaderClasses, NetError, NodeId, TransferFunction};

/// The slack steps the engine adds to every bound.
pub const DEFAULT_SLACK: usize = 2;

/// Longest middlebox pipeline between any pair of the given hosts under
/// `scenario` (measured on the static datapath, walked on `classes`, the
/// [`HeaderClasses::from_network`] of `net`). A static forwarding loop on
/// any of those paths is an error: no bound covers it.
pub fn max_pipeline_depth(
    net: &Network,
    classes: &HeaderClasses,
    scenario: &FailureScenario,
    hosts: &[NodeId],
) -> Result<usize, NetError> {
    let tf = TransferFunction::new(&net.topo, &net.tables, scenario).with_classes(classes);
    let mut depth = 0;
    for &src in hosts {
        if scenario.is_failed(src) {
            continue;
        }
        for &dst in hosts {
            if src == dst {
                continue;
            }
            for &addr in &net.topo.node(dst).addresses {
                depth = depth.max(tf.terminal_path(src, addr)?.0.len());
            }
        }
    }
    Ok(depth)
}

/// Computes the trace bound for verifying `inv` over the hosts of a node
/// set (slice or whole network).
pub fn trace_bound(
    net: &Network,
    classes: &HeaderClasses,
    scenario: &FailureScenario,
    inv: &Invariant,
    nodes: &[NodeId],
    slack: usize,
) -> Result<usize, NetError> {
    let hosts: Vec<NodeId> =
        nodes.iter().copied().filter(|&n| net.topo.node(n).kind.is_host()).collect();
    let depth = max_pipeline_depth(net, classes, scenario, &hosts)?;
    let w = inv.witness_packets();
    Ok(w * (depth + 1) + slack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn_mbox::models;
    use vmn_net::{Address, Prefix, RoutingConfig, Rule, Topology};

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

    fn classes(net: &Network) -> HeaderClasses {
        HeaderClasses::from_network(&net.topo, &net.tables)
    }

    #[test]
    fn depth_counts_middleboxes() {
        let (net, h1, h2) = two_host_net(true);
        let none = FailureScenario::none();
        assert_eq!(max_pipeline_depth(&net, &classes(&net), &none, &[h1, h2]), Ok(1));
        let (net2, h1b, h2b) = two_host_net(false);
        assert_eq!(max_pipeline_depth(&net2, &classes(&net2), &none, &[h1b, h2b]), Ok(0));
    }

    #[test]
    fn bound_scales_with_witness_packets() {
        let (net, h1, h2) = two_host_net(true);
        let none = FailureScenario::none();
        let nodes = vec![h1, h2];
        let simple = Invariant::NodeIsolation { src: h1, dst: h2 };
        let flow = Invariant::FlowIsolation { src: h1, dst: h2 };
        let hc = classes(&net);
        let b1 = trace_bound(&net, &hc, &none, &simple, &nodes, DEFAULT_SLACK).unwrap();
        let b2 = trace_bound(&net, &hc, &none, &flow, &nodes, DEFAULT_SLACK).unwrap();
        assert_eq!(b1, 2 + DEFAULT_SLACK);
        assert_eq!(b2, 2 * 2 + DEFAULT_SLACK);
        assert!(b2 > b1);
    }
}

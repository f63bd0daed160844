//! §5.3.1: the enterprise / university network of Figure 6 — subnets of
//! three kinds behind one stateful firewall and a gateway:
//!
//! * **public** subnets both initiate and accept connections with the
//!   outside world,
//! * **private** subnets are flow-isolated (initiate but never accept),
//! * **quarantined** subnets are node-isolated (no communication at all).
//!
//! Subnet counts keep the paper's 1:1:1 proportion. Figure 7 measures
//! per-invariant verification time on a slice versus on whole networks of
//! growing size; [`Enterprise::size`] reports the host+middlebox count
//! used for the x-axis.

use vmn::{Invariant, Network};
use vmn_mbox::models;
use vmn_net::{NodeId, Prefix, Rule, Topology};

use crate::{external_addr, host_addr};

/// Kind of a subnet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubnetKind {
    Public,
    Private,
    Quarantined,
}

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct EnterpriseParams {
    /// Number of subnets; kinds cycle public, private, quarantined.
    pub subnets: usize,
    /// Hosts per subnet.
    pub hosts_per_subnet: usize,
}

impl Default for EnterpriseParams {
    fn default() -> Self {
        EnterpriseParams { subnets: 6, hosts_per_subnet: 2 }
    }
}

/// The constructed enterprise network.
pub struct Enterprise {
    pub net: Network,
    pub params: EnterpriseParams,
    pub internet: NodeId,
    pub fw: NodeId,
    pub gw: NodeId,
    /// (kind, hosts) per subnet.
    pub subnets: Vec<(SubnetKind, Vec<NodeId>)>,
}

impl Enterprise {
    pub fn kind_of(i: usize) -> SubnetKind {
        match i % 3 {
            0 => SubnetKind::Public,
            1 => SubnetKind::Private,
            _ => SubnetKind::Quarantined,
        }
    }

    pub fn build(params: EnterpriseParams) -> Enterprise {
        assert!(params.subnets >= 1 && params.subnets <= 200);
        assert!(params.hosts_per_subnet >= 1 && params.hosts_per_subnet <= 200);
        let mut topo = Topology::new();
        let internet = topo.add_host("internet", external_addr(0, 1));
        let edge = topo.add_switch("edge");
        let inner = topo.add_switch("inner");
        let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
        let gw = topo.add_middlebox("gw", "gateway", vec![]);
        topo.add_link(internet, edge);
        topo.add_link(fw, edge);
        topo.add_link(fw, inner);
        topo.add_link(gw, inner);

        let mut subnets = Vec::new();
        let mut tables = vmn_net::ForwardingTables::new();
        let all = Prefix::default_route();
        for s in 0..params.subnets {
            let kind = Self::kind_of(s);
            let sw = topo.add_switch(format!("subnet{s}"));
            topo.add_link(sw, inner);
            let mut hosts = Vec::new();
            for h in 0..params.hosts_per_subnet {
                let addr = host_addr((s / 250) as u8, (s % 250) as u8, h as u8 + 1);
                let host = topo.add_host(format!("s{s}h{h}"), addr);
                topo.add_link(host, sw);
                hosts.push(host);
                tables.add_rule(sw, Rule::from_neighbor(Prefix::host(addr), inner, host));
                tables.add_rule(sw, Rule::from_neighbor(all, host, inner).with_priority(10));
            }
            let subnet_prefix = Prefix::new(host_addr((s / 250) as u8, (s % 250) as u8, 0), 24);
            tables.add_rule(inner, Rule::new(subnet_prefix, sw));
            subnets.push((kind, hosts));
        }
        // Edge: inbound internet traffic crosses the firewall; firewall
        // re-emissions toward the internet are delivered.
        tables.add_rule(edge, Rule::from_neighbor(all, internet, fw).with_priority(20));
        tables.add_rule(edge, Rule::new(Prefix::host(external_addr(0, 1)), internet));
        // Inner: traffic arriving from the firewall goes to the gateway,
        // gateway re-emissions fall through to subnet rules; subnet
        // uplink traffic toward the internet goes gateway → firewall.
        tables.add_rule(inner, Rule::from_neighbor(all, fw, gw).with_priority(20));
        for s in 0..params.subnets {
            let sw = topo.by_name(&format!("subnet{s}")).unwrap();
            tables.add_rule(inner, Rule::from_neighbor(all, sw, gw).with_priority(20));
        }
        tables.add_rule(
            inner,
            Rule::from_neighbor(Prefix::host(external_addr(0, 1)), gw, fw).with_priority(15),
        );

        let mut net = Network::new(topo, tables);
        // Firewall ACL per §5.3.1: public subnets two-way, private
        // subnets outbound-only (replies ride the learning state),
        // quarantined subnets nothing.
        let mut acl: Vec<(Prefix, Prefix)> = Vec::new();
        for (s, (kind, _)) in subnets.iter().enumerate() {
            let p = Prefix::new(host_addr((s / 250) as u8, (s % 250) as u8, 0), 24);
            match kind {
                SubnetKind::Public => {
                    acl.push((all, p));
                    acl.push((p, all));
                }
                SubnetKind::Private => acl.push((p, all)),
                SubnetKind::Quarantined => {}
            }
        }
        net.set_model(fw, models::learning_firewall("stateful-firewall", acl));
        net.set_model(gw, models::gateway("gateway"));

        Enterprise { net, params, internet, fw, gw, subnets }
    }

    /// Hosts + middleboxes, the x-axis of Figure 7.
    pub fn size(&self) -> usize {
        self.net.topo.terminals().count()
    }

    /// First subnet of a given kind.
    pub fn subnet_of_kind(&self, kind: SubnetKind) -> Option<&[NodeId]> {
        self.subnets.iter().find(|(k, _)| *k == kind).map(|(_, h)| h.as_slice())
    }

    /// The invariant the paper verifies for each subnet kind:
    /// public — reachable from the internet (expected **violated**, i.e.
    /// reachability); private — flow-isolated (holds); quarantined —
    /// node-isolated (holds).
    pub fn invariant_for(&self, kind: SubnetKind) -> Invariant {
        let host = self.subnet_of_kind(kind).expect("subnet exists")[0];
        match kind {
            SubnetKind::Public => Invariant::NodeIsolation { src: self.internet, dst: host },
            SubnetKind::Private => Invariant::FlowIsolation { src: self.internet, dst: host },
            SubnetKind::Quarantined => Invariant::NodeIsolation { src: self.internet, dst: host },
        }
    }

    /// All three per-kind invariants present in this network.
    pub fn invariants(&self) -> Vec<(SubnetKind, Invariant)> {
        [SubnetKind::Public, SubnetKind::Private, SubnetKind::Quarantined]
            .into_iter()
            .filter(|k| self.subnet_of_kind(*k).is_some())
            .map(|k| (k, self.invariant_for(k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn::{Verifier, VerifyOptions};

    #[test]
    fn builds_with_proportional_kinds() {
        let e = Enterprise::build(EnterpriseParams { subnets: 6, hosts_per_subnet: 2 });
        assert!(e.net.validate().is_ok());
        let kinds: Vec<SubnetKind> = e.subnets.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds.iter().filter(|k| **k == SubnetKind::Public).count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == SubnetKind::Private).count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == SubnetKind::Quarantined).count(), 2);
    }

    #[test]
    fn public_subnets_are_reachable() {
        let e = Enterprise::build(EnterpriseParams { subnets: 3, hosts_per_subnet: 1 });
        let v = Verifier::new(&e.net, VerifyOptions::default()).unwrap();
        let rep = v.verify(&e.invariant_for(SubnetKind::Public)).unwrap();
        assert!(!rep.verdict.holds(), "public subnet accepts inbound connections");
    }

    #[test]
    fn private_subnets_are_flow_isolated() {
        let e = Enterprise::build(EnterpriseParams { subnets: 3, hosts_per_subnet: 1 });
        let v = Verifier::new(&e.net, VerifyOptions::default()).unwrap();
        let rep = v.verify(&e.invariant_for(SubnetKind::Private)).unwrap();
        if let vmn::Verdict::Violated { trace, .. } = &rep.verdict {
            panic!("private subnet must be flow isolated:\n{}", trace.render(&e.net));
        }
        // But private hosts can reach out.
        let priv_host = e.subnet_of_kind(SubnetKind::Private).unwrap()[0];
        assert!(v.can_reach(priv_host, e.internet).unwrap());
    }

    #[test]
    fn quarantined_subnets_are_node_isolated() {
        let e = Enterprise::build(EnterpriseParams { subnets: 3, hosts_per_subnet: 1 });
        let v = Verifier::new(&e.net, VerifyOptions::default()).unwrap();
        let rep = v.verify(&e.invariant_for(SubnetKind::Quarantined)).unwrap();
        assert!(rep.verdict.holds(), "quarantined subnet must be unreachable");
        // And cannot reach out either.
        let q = e.subnet_of_kind(SubnetKind::Quarantined).unwrap()[0];
        assert!(!v.can_reach(q, e.internet).unwrap());
    }

    #[test]
    fn slice_size_constant_as_network_grows() {
        let mut sizes = Vec::new();
        for subnets in [3usize, 9, 15] {
            let e = Enterprise::build(EnterpriseParams { subnets, hosts_per_subnet: 2 });
            let v = Verifier::new(&e.net, VerifyOptions::default()).unwrap();
            let rep = v.verify(&e.invariant_for(SubnetKind::Private)).unwrap();
            sizes.push(rep.encoded_nodes);
        }
        assert_eq!(sizes[0], sizes[1]);
        assert_eq!(sizes[1], sizes[2]);
    }
}

//! §5.3.3: the ISP with intrusion detection (Figure 9).
//!
//! Modelled on the SWITCHlan backbone: at each peering point an IDS and a
//! stateful firewall guard inbound traffic; a single shared scrubbing box
//! performs heavyweight analysis of traffic to prefixes the IDS considers
//! under attack. Subnets follow the §5.3.1 taxonomy (public / private /
//! quarantined, cycling 1:1:1).
//!
//! The misconfiguration studied: traffic an IDS reroutes to the scrubber
//! re-enters the network *without* passing any stateful firewall, so the
//! un-discarded remainder reaches private or quarantined subnets.

use vmn::{Invariant, Network};
use vmn_mbox::models;
use vmn_net::{NodeId, Prefix, Rule, Topology};

use crate::enterprise::SubnetKind;
use crate::{external_addr, host_addr};

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct IspParams {
    /// Peering points (Figure 9(c) x-axis). The paper's SWITCHlan-like
    /// baseline uses 5.
    pub peering_points: usize,
    /// Subnets (Figure 9(b) x-axis); kinds cycle 1:1:1.
    pub subnets: usize,
    /// Whether scrubbed traffic is correctly routed back through a
    /// stateful firewall (`true`) or allowed to bypass them (`false`,
    /// the misconfiguration).
    pub scrubber_behind_firewall: bool,
    /// The subnet index whose prefix the IDSes consider under attack
    /// (its traffic is rerouted to the scrubber).
    pub attacked_subnet: usize,
}

impl Default for IspParams {
    fn default() -> Self {
        IspParams {
            peering_points: 5,
            subnets: 9,
            scrubber_behind_firewall: true,
            attacked_subnet: 1, // a private subnet (kinds cycle pub/priv/quarantined)
        }
    }
}

/// The constructed ISP network.
pub struct Isp {
    pub net: Network,
    pub params: IspParams,
    /// Per peering point: the external peer host.
    pub peers: Vec<NodeId>,
    /// Per peering point: (IDS, firewall).
    pub edge_boxes: Vec<(NodeId, NodeId)>,
    pub scrubber: NodeId,
    /// (kind, host) per subnet.
    pub subnets: Vec<(SubnetKind, NodeId)>,
}

impl Isp {
    fn subnet_prefix(i: usize) -> Prefix {
        Prefix::new(host_addr((i / 250) as u8, (i % 250) as u8, 0), 24)
    }

    pub fn build(params: IspParams) -> Isp {
        assert!(params.peering_points >= 1 && params.peering_points <= 60);
        assert!(params.subnets >= 1 && params.subnets <= 250);
        assert!(params.attacked_subnet < params.subnets);
        let mut topo = Topology::new();
        let backbone = topo.add_switch("backbone");
        let scrubber = topo.add_middlebox("scrubber", "scrubber", vec![]);
        topo.add_link(scrubber, backbone);

        let mut tables = vmn_net::ForwardingTables::new();
        let all = Prefix::default_route();
        let attacked = Self::subnet_prefix(params.attacked_subnet);

        // Subnets hang off the backbone directly (one host each — the
        // paper's subnet granularity for this experiment).
        let mut subnets = Vec::new();
        for s in 0..params.subnets {
            let kind = crate::enterprise::Enterprise::kind_of(s);
            let addr = host_addr((s / 250) as u8, (s % 250) as u8, 1);
            let host = topo.add_host(format!("sub{s}"), addr);
            topo.add_link(host, backbone);
            tables.add_rule(backbone, Rule::new(Prefix::host(addr), host));
            subnets.push((kind, host));
        }

        let mut peers = Vec::new();
        let mut edge_boxes = Vec::new();
        for p in 0..params.peering_points {
            let psw = topo.add_switch(format!("peering{p}"));
            topo.add_link(psw, backbone);
            let peer = topo.add_host(format!("peer{p}"), external_addr(p as u8, 1));
            let ids = topo.add_middlebox(format!("ids{p}"), "ids", vec![]);
            let fw = topo.add_middlebox(format!("fw{p}"), "stateful-firewall", vec![]);
            for n in [peer, ids, fw] {
                topo.add_link(n, psw);
            }
            // The firewall's inner interface connects straight to the
            // backbone, so firewall-processed traffic enters the backbone
            // with the firewall itself as previous hop — the IDS-reroute
            // capture rules below (qualified on the peering switch) can
            // never recapture it.
            topo.add_link(fw, backbone);
            // Inbound pipeline: peer → IDS → firewall → backbone.
            tables.add_rule(psw, Rule::from_neighbor(all, peer, ids).with_priority(20));
            tables.add_rule(psw, Rule::from_neighbor(all, ids, fw).with_priority(20));
            // IDS reroute: traffic to the attacked prefix goes straight to
            // the scrubber on the backbone instead of the local firewall.
            tables.add_rule(psw, Rule::from_neighbor(attacked, ids, backbone).with_priority(30));
            // Outbound: subnet traffic to this peer passes the firewall.
            let peer_route = Prefix::host(external_addr(p as u8, 1));
            tables.add_rule(psw, Rule::from_neighbor(peer_route, backbone, fw).with_priority(20));
            tables.add_rule(psw, Rule::new(peer_route, peer));
            tables.add_rule(backbone, Rule::new(peer_route, psw));
            peers.push(peer);
            edge_boxes.push((ids, fw));
        }
        // Backbone: attacked-prefix traffic arriving from a peering switch
        // (the IDS reroute) is captured to the scrubber. Subnet hosts and
        // firewalls attach to the backbone directly, so their traffic is
        // not recaptured.
        for p in 0..params.peering_points {
            let psw = topo.by_name(&format!("peering{p}")).unwrap();
            tables
                .add_rule(backbone, Rule::from_neighbor(attacked, psw, scrubber).with_priority(20));
        }
        if params.scrubber_behind_firewall {
            // Correct configuration: scrubbed traffic re-enters through
            // the first peering point's stateful firewall (its backbone
            // interface), then continues to the subnets.
            let fw0 = edge_boxes[0].1;
            tables.add_rule(backbone, Rule::from_neighbor(all, scrubber, fw0).with_priority(20));
        }
        // (Misconfigured: scrubber emissions fall through to the base
        // subnet rules, bypassing every firewall.)

        let mut net = Network::new(topo, tables);
        // Firewalls: public two-way, private outbound-only, quarantined
        // nothing (§5.3.1 policies).
        let mut acl: Vec<(Prefix, Prefix)> = Vec::new();
        for (s, (kind, _)) in subnets.iter().enumerate() {
            let p = Self::subnet_prefix(s);
            match kind {
                SubnetKind::Public => {
                    acl.push((all, p));
                    acl.push((p, all));
                }
                SubnetKind::Private => acl.push((p, all)),
                SubnetKind::Quarantined => {}
            }
        }
        for &(ids, fw) in &edge_boxes {
            net.set_model(ids, models::ids_monitor("ids"));
            net.set_model(fw, models::learning_firewall("stateful-firewall", acl.clone()));
        }
        net.set_model(scrubber, models::scrubber("scrubber"));

        Isp { net, params, peers, edge_boxes, scrubber, subnets }
    }

    /// The §5.3.1-style invariant for subnet `s` against peer `p`.
    pub fn invariant_for(&self, s: usize, p: usize) -> Invariant {
        let (kind, host) = self.subnets[s];
        match kind {
            SubnetKind::Public => Invariant::NodeIsolation { src: self.peers[p], dst: host },
            SubnetKind::Private => Invariant::FlowIsolation { src: self.peers[p], dst: host },
            SubnetKind::Quarantined => Invariant::NodeIsolation { src: self.peers[p], dst: host },
        }
    }

    /// One invariant per subnet kind present, against peering point 0.
    /// They do not stand for the other subnets of their kind: refinement
    /// gives every public and every private subnet a class of its own,
    /// since the firewalls' ACLs name each one's prefix, and only the
    /// quarantined subnets and the peers share classes.
    pub fn invariants(&self) -> Vec<Invariant> {
        let mut seen = [false; 3];
        let mut out = Vec::new();
        for (s, (kind, _)) in self.subnets.iter().enumerate() {
            let idx = match kind {
                SubnetKind::Public => 0,
                SubnetKind::Private => 1,
                SubnetKind::Quarantined => 2,
            };
            if !seen[idx] {
                seen[idx] = true;
                out.push(self.invariant_for(s, 0));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn::{Verifier, VerifyOptions};

    #[test]
    fn builds_and_validates() {
        let isp = Isp::build(IspParams::default());
        assert!(isp.net.validate().is_ok());
        assert_eq!(isp.peers.len(), 5);
        assert_eq!(isp.subnets.len(), 9);
    }

    #[test]
    fn correct_scrubber_config_keeps_private_subnets_isolated() {
        let isp = Isp::build(IspParams {
            peering_points: 2,
            subnets: 3,
            scrubber_behind_firewall: true,
            attacked_subnet: 1,
        });
        let v = Verifier::new(&isp.net, VerifyOptions::default()).unwrap();
        // Subnet 1 is private and under attack; rerouted traffic passes
        // the scrubber and then a firewall, so flow isolation holds.
        let rep = v.verify(&isp.invariant_for(1, 1)).unwrap();
        if let vmn::Verdict::Violated { trace, .. } = &rep.verdict {
            panic!("private subnet must stay isolated:\n{}", trace.render(&isp.net));
        }
    }

    #[test]
    fn scrubber_bypass_violates_isolation() {
        let isp = Isp::build(IspParams {
            peering_points: 2,
            subnets: 3,
            scrubber_behind_firewall: false,
            attacked_subnet: 1,
        });
        let v = Verifier::new(&isp.net, VerifyOptions::default()).unwrap();
        let rep = v.verify(&isp.invariant_for(1, 1)).unwrap();
        assert!(!rep.verdict.holds(), "rerouted traffic bypassing the firewalls must be detected");
    }

    #[test]
    fn public_subnets_reachable_quarantined_not() {
        let isp = Isp::build(IspParams {
            peering_points: 1,
            subnets: 3,
            scrubber_behind_firewall: true,
            attacked_subnet: 1,
        });
        let v = Verifier::new(&isp.net, VerifyOptions::default()).unwrap();
        assert!(!v.verify(&isp.invariant_for(0, 0)).unwrap().verdict.holds(), "public reachable");
        assert!(v.verify(&isp.invariant_for(2, 0)).unwrap().verdict.holds(), "quarantined blocked");
    }

    #[test]
    fn slice_size_independent_of_subnet_count() {
        let mut sizes = Vec::new();
        for subnets in [3usize, 9, 21] {
            let isp = Isp::build(IspParams {
                peering_points: 2,
                subnets,
                scrubber_behind_firewall: true,
                attacked_subnet: 1,
            });
            let v = Verifier::new(&isp.net, VerifyOptions::default()).unwrap();
            let rep = v.verify(&isp.invariant_for(0, 0)).unwrap();
            sizes.push(rep.encoded_nodes);
        }
        assert!(sizes[0] == sizes[1] && sizes[1] == sizes[2], "sizes: {sizes:?}");
    }
}

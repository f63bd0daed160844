//! The §5.1 datacenter: Figure 1's topology (core/agg/ToR fabric with
//! redundant firewalls, load balancers and IDPSes) plus the three
//! misconfiguration classes of the evaluation:
//!
//! * **Rules** — incorrect firewall rules (70% of reported middlebox
//!   misconfigurations): spurious cross-group permissions appear on both
//!   firewalls;
//! * **Redundancy** — misconfigured *backup* firewalls: the extra
//!   permissions exist only on the backup, so the bug is invisible until
//!   the primary fails;
//! * **Traversal** — misconfigured redundant routing: backup routes skip
//!   the IDPS when the primary IDPS fails.
//!
//! Hosts are grouped into policy groups; addressing is group-aligned
//! (`10.<group>.<rack>.<host>`) so one ACL entry per group expresses the
//! "groups only talk to themselves" policy, exactly how operators
//! configure such fabrics.

use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::Rng;
use vmn::{Invariant, Network};
use vmn_mbox::models;
use vmn_net::{FailureScenario, NodeId, Prefix, Rule, Topology};

use crate::{group_prefix, host_addr, infra_addr};

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct DatacenterParams {
    /// Number of racks. Each rack belongs to one policy group
    /// (round-robin), so `racks >= policy_groups`.
    pub racks: usize,
    pub hosts_per_rack: usize,
    /// Number of policy groups (the paper's x-axis for Figure 3).
    pub policy_groups: usize,
    /// Deploy backup firewall / IDPS instances.
    pub redundant: bool,
    /// Register single-middlebox failure scenarios on the network.
    pub with_failures: bool,
}

impl Default for DatacenterParams {
    fn default() -> Self {
        // The paper's evaluation uses 1000 end hosts.
        DatacenterParams {
            racks: 50,
            hosts_per_rack: 20,
            policy_groups: 25,
            redundant: true,
            with_failures: true,
        }
    }
}

/// The constructed datacenter scenario.
pub struct Datacenter {
    pub net: Network,
    pub params: DatacenterParams,
    /// Hosts of each policy group, as the generator configures them. The
    /// verifier refines its own policy classes, which may split a group.
    pub groups: Vec<Vec<NodeId>>,
    pub fw1: NodeId,
    pub fw2: Option<NodeId>,
    pub idps1: NodeId,
    pub idps2: Option<NodeId>,
    pub lb1: NodeId,
    /// Rack -> ToR switch.
    pub tors: Vec<NodeId>,
    pub aggs: [NodeId; 2],
}

impl Datacenter {
    pub fn build(params: DatacenterParams) -> Datacenter {
        assert!(params.policy_groups >= 1 && params.policy_groups <= 250);
        assert!(params.racks >= params.policy_groups);
        assert!(params.hosts_per_rack >= 1 && params.hosts_per_rack <= 250);
        let mut topo = Topology::new();
        let core = topo.add_switch("core");
        let agg1 = topo.add_switch("agg1");
        let agg2 = topo.add_switch("agg2");
        topo.add_link(agg1, core);
        topo.add_link(agg2, core);

        let fw1 = topo.add_middlebox("fw1", "stateful-firewall", vec![]);
        let idps1 = topo.add_middlebox("idps1", "idps", vec![]);
        let lb1 = topo.add_middlebox("lb1", "load-balancer", vec![infra_addr(0, 100)]);
        let fw2 = params.redundant.then(|| topo.add_middlebox("fw2", "stateful-firewall", vec![]));
        let idps2 = params.redundant.then(|| topo.add_middlebox("idps2", "idps", vec![]));
        for m in [Some(fw1), Some(idps1), Some(lb1), fw2, idps2].into_iter().flatten() {
            topo.add_link(m, agg1);
            topo.add_link(m, agg2);
        }

        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); params.policy_groups];
        let mut tors = Vec::with_capacity(params.racks);
        let mut tor_rules: Vec<(NodeId, Rule)> = Vec::new();
        for r in 0..params.racks {
            let g = r % params.policy_groups;
            let tor = topo.add_switch(format!("tor{r}"));
            topo.add_link(tor, agg1);
            topo.add_link(tor, agg2);
            for h in 0..params.hosts_per_rack {
                let addr = host_addr(g as u8, r as u8, h as u8 + 1);
                let host = topo.add_host(format!("h{r}x{h}"), addr);
                topo.add_link(host, tor);
                groups[g].push(host);
                // Delivery from the fabric side; uplink otherwise.
                let hp = Prefix::host(addr);
                tor_rules.push((tor, Rule::from_neighbor(hp, agg1, host)));
                tor_rules.push((tor, Rule::from_neighbor(hp, agg2, host)));
                tor_rules.push((
                    tor,
                    Rule::from_neighbor(Prefix::default_route(), host, agg1).with_priority(20),
                ));
                tor_rules.push((
                    tor,
                    Rule::from_neighbor(Prefix::default_route(), host, agg2).with_priority(10),
                ));
            }
            tors.push(tor);
        }

        let mut tables = vmn_net::ForwardingTables::new();
        for (tor, rule) in tor_rules {
            tables.add_rule(tor, rule);
        }
        let all = Prefix::default_route();
        for agg in [agg1, agg2] {
            // Base delivery: rack prefixes toward their ToR (each rack's
            // hosts share 10.<g>.<r>.0/24).
            for (r, &tor) in tors.iter().enumerate() {
                let g = r % params.policy_groups;
                let rack_prefix = Prefix::new(host_addr(g as u8, r as u8, 0), 24);
                tables.add_rule(agg, Rule::new(rack_prefix, tor));
            }
            // Pipeline: traffic from any ToR goes to the firewall first…
            for &tor in &tors {
                tables.add_rule(agg, Rule::from_neighbor(all, tor, fw1).with_priority(20));
                if let Some(fw2) = fw2 {
                    tables.add_rule(agg, Rule::from_neighbor(all, tor, fw2).with_priority(10));
                }
            }
            // …then from the firewall to the IDPS…
            for fw in [Some(fw1), fw2].into_iter().flatten() {
                tables.add_rule(agg, Rule::from_neighbor(all, fw, idps1).with_priority(20));
                if let Some(idps2) = idps2 {
                    tables.add_rule(agg, Rule::from_neighbor(all, fw, idps2).with_priority(10));
                }
            }
            // …and IDPS re-emissions fall through to the base rack rules.
            // The load balancer VIP is reachable from anywhere.
            tables
                .add_rule(agg, Rule::new(Prefix::host(infra_addr(0, 100)), lb1).with_priority(30));
        }

        let mut net = Network::new(topo, tables);
        let acl: Vec<(Prefix, Prefix)> = (0..params.policy_groups)
            .map(|g| (group_prefix(g as u8), group_prefix(g as u8)))
            .collect();
        net.set_model(fw1, models::learning_firewall("stateful-firewall", acl.clone()));
        if let Some(fw2) = fw2 {
            net.set_model(fw2, models::learning_firewall("stateful-firewall", acl.clone()));
        }
        net.set_model(idps1, models::idps("idps"));
        if let Some(idps2) = idps2 {
            net.set_model(idps2, models::idps("idps"));
        }
        // LB spreads VIP traffic over the first group's first rack.
        let backends: Vec<_> =
            (1..=2.min(params.hosts_per_rack as u8)).map(|h| host_addr(0, 0, h)).collect();
        net.set_model(lb1, models::load_balancer("load-balancer", infra_addr(0, 100), backends));

        if params.with_failures {
            for m in [Some(fw1), Some(idps1)].into_iter().flatten() {
                net.add_scenario(FailureScenario::nodes([m]));
            }
        }

        Datacenter { net, params, groups, fw1, fw2, idps1, idps2, lb1, tors, aggs: [agg1, agg2] }
    }

    /// One cross-group isolation invariant per policy group: a host of
    /// the next group must not reach this group's representative.
    pub fn isolation_invariants(&self) -> Vec<Invariant> {
        let g = self.groups.len();
        (0..g)
            .map(|i| Invariant::NodeIsolation {
                src: self.groups[(i + 1) % g][0],
                dst: self.groups[i][0],
            })
            .collect()
    }

    /// The isolation invariant for a specific (src-group, dst-group) pair.
    pub fn pair_isolation(&self, src_group: usize, dst_group: usize) -> Invariant {
        Invariant::NodeIsolation { src: self.groups[src_group][0], dst: self.groups[dst_group][0] }
    }

    /// One IDPS-traversal invariant per policy group (intra-group traffic
    /// must pass an IDPS before delivery).
    pub fn traversal_invariants(&self) -> Vec<Invariant> {
        let through: Vec<NodeId> = [Some(self.idps1), self.idps2].into_iter().flatten().collect();
        self.groups
            .iter()
            .filter(|g| g.len() >= 2)
            .map(|g| Invariant::Traversal { dst: g[0], through: through.clone(), from: Some(g[1]) })
            .collect()
    }

    /// **Rules** misconfiguration: adds `count` spurious cross-group
    /// permissions to *every* firewall. Returns the affected
    /// (src-group, dst-group) pairs. (The paper deletes deny rules from a
    /// default-allow firewall; with our default-deny allow-list model the
    /// equivalent error is an injected allow entry — the observable effect,
    /// forbidden cross-group reachability, is identical.)
    pub fn inject_rule_misconfig<R: Rng>(
        &mut self,
        rng: &mut R,
        count: usize,
    ) -> Vec<(usize, usize)> {
        let pairs = self.sample_cross_pairs(rng, count);
        for &(a, b) in &pairs {
            for fw in [Some(self.fw1), self.fw2].into_iter().flatten() {
                push_allow(&mut self.net, fw, a, b);
            }
        }
        pairs
    }

    /// **Redundancy** misconfiguration: the spurious permissions exist
    /// only on the *backup* firewall, so violations require the primary
    /// to fail.
    pub fn inject_redundancy_misconfig<R: Rng>(
        &mut self,
        rng: &mut R,
        count: usize,
    ) -> Vec<(usize, usize)> {
        let fw2 = self.fw2.expect("redundancy misconfig needs a backup firewall");
        let pairs = self.sample_cross_pairs(rng, count);
        for &(a, b) in &pairs {
            push_allow(&mut self.net, fw2, a, b);
        }
        pairs
    }

    /// **Traversal** misconfiguration: removes the backup IDPS steering
    /// rules, so that traffic bypasses intrusion detection when the
    /// primary IDPS is down.
    pub fn inject_traversal_misconfig(&mut self) {
        let idps2 = self.idps2.expect("traversal misconfig needs a backup IDPS");
        let tables = Arc::make_mut(&mut self.net.tables);
        for agg in self.aggs {
            tables.remove_rules(agg, |r| r.next == idps2);
        }
    }

    fn sample_cross_pairs<R: Rng>(&self, rng: &mut R, count: usize) -> Vec<(usize, usize)> {
        let g = self.groups.len();
        let mut all: Vec<(usize, usize)> =
            (0..g).flat_map(|a| (0..g).filter(move |&b| b != a).map(move |b| (a, b))).collect();
        all.shuffle(rng);
        all.truncate(count.min(all.len()));
        all
    }
}

/// Adds an allow entry (src-group → dst-group) to a firewall's ACL.
fn push_allow(net: &mut Network, fw: NodeId, src_group: usize, dst_group: usize) {
    let model = net.models.get_mut(&fw).expect("firewall model");
    let entry = (group_prefix(src_group as u8), group_prefix(dst_group as u8));
    for (name, pairs) in &mut model.acls {
        if name == "acl" {
            pairs.push(entry);
            return;
        }
    }
    panic!("firewall model has no ACL named 'acl'");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vmn::{Verifier, VerifyOptions};

    fn small() -> DatacenterParams {
        DatacenterParams {
            racks: 6,
            hosts_per_rack: 3,
            policy_groups: 3,
            redundant: true,
            with_failures: false,
        }
    }

    #[test]
    fn builds_and_validates() {
        let dc = Datacenter::build(small());
        assert!(dc.net.validate().is_ok());
        assert_eq!(dc.groups.iter().map(Vec::len).sum::<usize>(), 18);
        assert_eq!(dc.net.topo.middleboxes().count(), 5);
    }

    #[test]
    fn correct_config_upholds_isolation() {
        let dc = Datacenter::build(small());
        let v = Verifier::new(&dc.net, VerifyOptions::default()).unwrap();
        let inv = dc.pair_isolation(1, 0);
        assert!(v.verify(&inv).unwrap().verdict.holds());
        // Intra-group traffic is allowed.
        let intra = Invariant::NodeIsolation { src: dc.groups[0][1], dst: dc.groups[0][0] };
        assert!(!v.verify(&intra).unwrap().verdict.holds());
    }

    #[test]
    fn rule_misconfig_detected() {
        let mut dc = Datacenter::build(small());
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = dc.inject_rule_misconfig(&mut rng, 2);
        let v = Verifier::new(&dc.net, VerifyOptions::default()).unwrap();
        for &(a, b) in &pairs {
            let inv = dc.pair_isolation(a, b);
            assert!(!v.verify(&inv).unwrap().verdict.holds(), "injected pair {a}->{b}");
        }
    }

    #[test]
    fn redundancy_misconfig_needs_failure() {
        let mut params = small();
        params.with_failures = true;
        let mut dc = Datacenter::build(params);
        let mut rng = StdRng::seed_from_u64(2);
        let pairs = dc.inject_redundancy_misconfig(&mut rng, 1);
        let v = Verifier::new(&dc.net, VerifyOptions::default()).unwrap();
        let (a, b) = pairs[0];
        let rep = v.verify(&dc.pair_isolation(a, b)).unwrap();
        match rep.verdict {
            vmn::Verdict::Violated { scenario, .. } => {
                assert!(scenario.is_failed(dc.fw1), "violation only under primary failure");
            }
            vmn::Verdict::Holds => panic!("backup misconfiguration missed"),
        }
    }

    #[test]
    fn traversal_misconfig_detected() {
        let mut params = small();
        params.with_failures = true;
        let mut dc = Datacenter::build(params);
        // Correct config: traversal holds even under failures.
        {
            let v = Verifier::new(&dc.net, VerifyOptions::default()).unwrap();
            let inv = dc.traversal_invariants().remove(0);
            assert!(v.verify(&inv).unwrap().verdict.holds());
        }
        dc.inject_traversal_misconfig();
        let v = Verifier::new(&dc.net, VerifyOptions::default()).unwrap();
        let inv = dc.traversal_invariants().remove(0);
        let rep = v.verify(&inv).unwrap();
        match rep.verdict {
            vmn::Verdict::Violated { scenario, .. } => {
                assert!(scenario.is_failed(dc.idps1));
            }
            vmn::Verdict::Holds => panic!("routing bypass missed"),
        }
    }
}

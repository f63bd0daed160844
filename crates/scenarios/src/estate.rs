//! Generator-driven campus / ISP estates for modular verification —
//! two orders of magnitude bigger than the `dc-fleet` workloads.
//!
//! An estate is a set of *sites* (campus buildings or ISP POPs) joined
//! through a core switch. Each site has one site switch, a fan of
//! subnet switches with hosts hanging off them, and an **in-line ACL
//! firewall** between the site switch and the core that only passes
//! site-local sources in either direction — so cross-site reachability
//! is statically forbidden and every invariant of the default estate
//! can be discharged by boundary contracts alone.
//!
//! ```text
//! h… - sub<b>x<f> - site<b> - fw<b> - core - fw<b'> - site<b'> - …
//! ```
//!
//! Addressing is site/subnet aligned (`10.<site>.<subnet>.<host>`, a
//! power-of-two host count per subnet), so the contract synthesizer's
//! prefix aggregation collapses each subnet's sources into one window —
//! the precision the paper's network-transfer summaries rely on.
//!
//! Routing: BFS (`RoutingConfig`) covers the intra-site fabric; the
//! inter-site legs are explicit `from`-scoped rules, since the BFS
//! never transits a terminal and an unscoped rule would bounce a
//! firewall's re-emission straight back into it.

use vmn::{Invariant, Network};
use vmn_analysis::{Module, Partition};
use vmn_mbox::models;
use vmn_net::{FailureScenario, NodeId, Prefix, Rule, Topology};

use crate::{group_prefix, host_addr};

/// Naming style: campus buildings or ISP POPs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EstateStyle {
    Campus,
    Isp,
}

impl EstateStyle {
    fn site(self) -> &'static str {
        match self {
            EstateStyle::Campus => "building",
            EstateStyle::Isp => "pop",
        }
    }
    fn subnet(self) -> &'static str {
        match self {
            EstateStyle::Campus => "floor",
            EstateStyle::Isp => "access",
        }
    }
}

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct EstateParams {
    pub style: EstateStyle,
    /// Number of sites (buildings / POPs).
    pub sites: usize,
    /// Subnet switches per site.
    pub subnets_per_site: usize,
    /// Hosts per subnet; keep it a power of two so each subnet's
    /// sources aggregate into a single prefix window.
    pub hosts_per_subnet: usize,
    /// Register failure scenarios (one site firewall, one subnet
    /// switch) on the network.
    pub with_failures: bool,
}

impl EstateParams {
    /// The campus estate of the benchmark's `campus-static` workload:
    /// 13 buildings of 16 floors x 16 hosts — 3563 nodes, over 100x the
    /// `dc-fleet` topology (32 nodes).
    pub fn campus() -> EstateParams {
        EstateParams {
            style: EstateStyle::Campus,
            sites: 13,
            subnets_per_site: 16,
            hosts_per_subnet: 16,
            with_failures: true,
        }
    }

    /// The ISP estate: 20 POPs of 10 access switches x 16 customers —
    /// 3441 nodes.
    pub fn isp() -> EstateParams {
        EstateParams {
            style: EstateStyle::Isp,
            sites: 20,
            subnets_per_site: 10,
            hosts_per_subnet: 16,
            with_failures: true,
        }
    }

    /// Total node count of the generated topology.
    pub fn node_count(&self) -> usize {
        self.sites * (self.subnets_per_site * (self.hosts_per_subnet + 1) + 2) + 1
    }
}

/// The constructed estate.
pub struct Estate {
    pub net: Network,
    pub params: EstateParams,
    pub core: NodeId,
    /// Per site: the site switch.
    pub site_switches: Vec<NodeId>,
    /// Per site: the in-line firewall toward the core.
    pub firewalls: Vec<NodeId>,
    /// Per site, per subnet: the hosts.
    pub hosts: Vec<Vec<Vec<NodeId>>>,
}

impl Estate {
    pub fn build(params: EstateParams) -> Estate {
        assert!(params.sites >= 2 && params.sites <= 200);
        assert!(params.subnets_per_site >= 1 && params.subnets_per_site <= 200);
        assert!(params.hosts_per_subnet >= 1 && params.hosts_per_subnet <= 250);
        let (site, subnet) = (params.style.site(), params.style.subnet());
        let mut topo = Topology::new();
        let core = topo.add_switch("core");
        let mut site_switches = Vec::with_capacity(params.sites);
        let mut firewalls = Vec::with_capacity(params.sites);
        let mut hosts: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(params.sites);
        let mut subnet_switches: Vec<Vec<NodeId>> = Vec::with_capacity(params.sites);
        for b in 0..params.sites {
            let ssw = topo.add_switch(format!("{site}{b}"));
            let fw = topo.add_middlebox(format!("fw{b}"), format!("site-firewall-{b}"), vec![]);
            topo.add_link(ssw, fw);
            topo.add_link(fw, core);
            let mut site_hosts = Vec::with_capacity(params.subnets_per_site);
            let mut site_subs = Vec::with_capacity(params.subnets_per_site);
            for f in 0..params.subnets_per_site {
                let fsw = topo.add_switch(format!("{subnet}{b}x{f}"));
                topo.add_link(fsw, ssw);
                let mut subnet_hosts = Vec::with_capacity(params.hosts_per_subnet);
                for k in 0..params.hosts_per_subnet {
                    let h = topo
                        .add_host(format!("h{b}x{f}x{k}"), host_addr(b as u8, f as u8, k as u8));
                    topo.add_link(h, fsw);
                    subnet_hosts.push(h);
                }
                site_hosts.push(subnet_hosts);
                site_subs.push(fsw);
            }
            site_switches.push(ssw);
            firewalls.push(fw);
            hosts.push(site_hosts);
            subnet_switches.push(site_subs);
        }

        // Intra-site routing comes from BFS over the site's switch
        // fabric (the core is switch-isolated: its links all go to the
        // firewalls, which are terminals).
        let mut rc = vmn_net::RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());

        // Inter-site legs. Negative priority keeps the BFS host routes
        // preferred for intra-site destinations.
        let all10 = Prefix::new(host_addr(0, 0, 0), 8);
        for b in 0..params.sites {
            let (ssw, fw) = (site_switches[b], firewalls[b]);
            for &fsw in &subnet_switches[b] {
                tables.add_rule(fsw, Rule::new(all10, ssw).with_priority(-10));
                tables.add_rule(ssw, Rule::from_neighbor(all10, fsw, fw).with_priority(-10));
            }
        }
        for b_from in 0..params.sites {
            for b_to in 0..params.sites {
                if b_from != b_to {
                    tables.add_rule(
                        core,
                        Rule::from_neighbor(
                            group_prefix(b_to as u8),
                            firewalls[b_from],
                            firewalls[b_to],
                        ),
                    );
                }
            }
        }

        let mut net = Network::new(topo, tables);
        for (b, &fw) in firewalls.iter().enumerate() {
            // Site-local sources only, in either direction.
            net.set_model(
                fw,
                models::acl_firewall(
                    &format!("site-firewall-{b}"),
                    vec![(group_prefix(b as u8), Prefix::default_route())],
                ),
            );
        }
        if params.with_failures {
            net.add_scenario(FailureScenario::nodes([firewalls[0]]));
            net.add_scenario(FailureScenario::nodes([subnet_switches[0][0]]));
        }
        Estate { net, params, core, site_switches, firewalls, hosts }
    }

    /// The per-site partition: one module per site (hosts, subnet
    /// switches, site switch and firewall) plus the core. Boundary
    /// edges are exactly the `fw<b> - core` links.
    pub fn partition(&self) -> Partition {
        let topo = &self.net.topo;
        let name = |n: NodeId| topo.node(n).name.clone();
        let mut modules: Vec<Module> = (0..self.params.sites)
            .map(|b| {
                let mut nodes: std::collections::BTreeSet<String> =
                    [name(self.site_switches[b]), name(self.firewalls[b])].into();
                for (f, subnet) in self.hosts[b].iter().enumerate() {
                    nodes.insert(format!("{}{b}x{f}", self.params.style.subnet()));
                    nodes.extend(subnet.iter().map(|&h| name(h)));
                }
                Module { name: format!("{}{b}", self.params.style.site()), nodes }
            })
            .collect();
        modules.push(Module { name: "core".into(), nodes: [name(self.core)].into() });
        Partition { modules }
    }

    /// `n` cross-site node-isolation invariants (all hold; in modular
    /// mode every one is discharged by the boundary contracts).
    pub fn cross_site_isolation(&self, n: usize) -> Vec<Invariant> {
        let s = self.params.sites;
        (0..n)
            .map(|i| Invariant::NodeIsolation {
                src: self.hosts[(i + 1) % s][i % self.hosts[0].len()][0],
                dst: self.hosts[i % s][0][i % self.params.hosts_per_subnet],
            })
            .collect()
    }

    /// `n` cross-site flow-isolation invariants (all hold).
    pub fn cross_site_flow_isolation(&self, n: usize) -> Vec<Invariant> {
        let s = self.params.sites;
        (0..n)
            .map(|i| Invariant::FlowIsolation {
                src: self.hosts[(i + 2) % s][0][0],
                dst: self.hosts[i % s][i % self.hosts[0].len()][0],
            })
            .collect()
    }

    /// `n` intra-site isolation invariants (all violated — local
    /// traffic flows freely). These exercise the exact fallback path in
    /// modular mode, so the differential battery checks both regimes.
    pub fn local_reachability(&self, n: usize) -> Vec<Invariant> {
        let s = self.params.sites;
        (0..n)
            .map(|i| Invariant::NodeIsolation {
                src: self.hosts[i % s][0][0],
                dst: self.hosts[i % s][self.hosts[i % s].len() - 1]
                    [1 % self.params.hosts_per_subnet],
            })
            .collect()
    }

    /// Misconfiguration: adds a spurious allow entry to `dst_site`'s
    /// firewall, opening it to `src_site`'s sources. The corresponding
    /// cross-site isolation invariant becomes violated, and the
    /// contract fast path (soundly) stops concluding for it.
    pub fn inject_cross_site_allow(&mut self, src_site: usize, dst_site: usize) {
        let fw = self.firewalls[dst_site];
        let model = self.net.models.get_mut(&fw).expect("site firewall model");
        let entry = (group_prefix(src_site as u8), group_prefix(dst_site as u8));
        for (name, pairs) in &mut model.acls {
            if name == "allow" {
                pairs.push(entry);
                return;
            }
        }
        panic!("site firewall has no ACL named 'allow'");
    }

    /// The isolation invariant matching [`Estate::inject_cross_site_allow`].
    pub fn pair_isolation(&self, src_site: usize, dst_site: usize) -> Invariant {
        Invariant::NodeIsolation {
            src: self.hosts[src_site][0][0],
            dst: self.hosts[dst_site][0][0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vmn::modular::{synthesize, ModularContext};
    use vmn::{PartitionMode, Verifier, VerifyOptions};
    use vmn_analysis::TouchSet;
    use vmn_net::HeaderClasses;

    fn small(style: EstateStyle) -> EstateParams {
        EstateParams {
            style,
            sites: 3,
            subnets_per_site: 2,
            hosts_per_subnet: 4,
            with_failures: true,
        }
    }

    fn modular_opts(e: &Estate) -> VerifyOptions {
        VerifyOptions {
            partition: PartitionMode::Explicit { partition: e.partition(), contracts: vec![] },
            ..Default::default()
        }
    }

    #[test]
    fn builds_and_validates() {
        for style in [EstateStyle::Campus, EstateStyle::Isp] {
            let params = small(style);
            let e = Estate::build(params.clone());
            assert!(e.net.validate().is_ok());
            assert_eq!(e.net.topo.nodes().count(), params.node_count());
            e.partition()
                .validate(e.net.topo.nodes().map(|(_, n)| n.name.as_str()))
                .expect("per-site partition");
        }
    }

    #[test]
    fn default_presets_are_two_orders_bigger_than_dc_fleet() {
        // dc-fleet (6 racks x 3 hosts, redundant) is 32 nodes.
        assert!(EstateParams::campus().node_count() >= 3200);
        assert!(EstateParams::isp().node_count() >= 3200);
    }

    #[test]
    fn contracts_discharge_cross_site_isolation() {
        let e = Estate::build(small(EstateStyle::Campus));
        let v = Verifier::new(&e.net, modular_opts(&e)).unwrap();
        for inv in e.cross_site_isolation(3).iter().chain(&e.cross_site_flow_isolation(3)) {
            let r = v.verify(inv).unwrap();
            assert!(r.verdict.holds(), "{inv}");
            assert_eq!(r.contract_scenarios, r.scenarios_checked, "{inv}");
        }
        // Intra-site pairs fall back to the exact engine and are
        // violated, exactly as the monolithic oracle says.
        let mono = Verifier::new(&e.net, VerifyOptions::default()).unwrap();
        for inv in e.local_reachability(2) {
            let r = v.verify(&inv).unwrap();
            assert!(!r.verdict.holds(), "{inv}");
            assert_eq!(r.contract_scenarios, 0, "{inv}");
            assert!(!mono.verify(&inv).unwrap().verdict.holds(), "{inv}");
        }
    }

    #[test]
    fn misconfig_is_caught_by_both_engines() {
        let mut e = Estate::build(small(EstateStyle::Isp));
        e.inject_cross_site_allow(1, 0);
        let inv = e.pair_isolation(1, 0);
        let v = Verifier::new(&e.net, modular_opts(&e)).unwrap();
        let mono = Verifier::new(&e.net, VerifyOptions::default()).unwrap();
        let (r, rm) = (v.verify(&inv).unwrap(), mono.verify(&inv).unwrap());
        assert!(!r.verdict.holds(), "opened firewall must violate");
        assert!(!rm.verdict.holds());
        let (
            vmn::Verdict::Violated { scenario: s, .. },
            vmn::Verdict::Violated { scenario: sm, .. },
        ) = (&r.verdict, &rm.verdict)
        else {
            panic!("both violated");
        };
        assert_eq!(s, sm, "first violating scenario matches the oracle");
        // Unrelated cross-site pairs are still contract-answered.
        let other = e.pair_isolation(0, 2);
        let r = v.verify(&other).unwrap();
        assert!(r.verdict.holds());
        assert_eq!(r.contract_scenarios, r.scenarios_checked);
    }

    /// `cross_for` runs each scenario's fixpoint over one shared
    /// scenario-independent prelude; the one-shot `synthesize` builds
    /// everything per call. Same arrivals, node by node, on the two
    /// full-size estates and all their scenarios.
    #[test]
    fn memoised_synthesis_equals_the_one_shot_on_the_full_estates() {
        for params in [EstateParams::campus(), EstateParams::isp()] {
            let e = Estate::build(params);
            let ctx = ModularContext::resolve(&e.net.topo, e.partition()).unwrap();
            for scenario in e.net.all_scenarios() {
                let shared = ctx.cross_for(&e.net, &scenario);
                assert_eq!(*shared, synthesize(&e.net, &scenario), "{scenario:?}");
            }
        }
    }

    /// The prelude holds every model's forward summary, so one that
    /// outlived a `set-model` delta would keep proving what the new model
    /// no longer guarantees: widening a firewall's ACL through
    /// `swap_network` must take the contract answer away.
    #[test]
    fn a_model_delta_takes_a_stale_contract_answer_away() {
        let mut e = Estate::build(small(EstateStyle::Campus));
        let inv = e.pair_isolation(1, 0);
        let mut v = Verifier::new(&e.net, modular_opts(&e)).unwrap();
        let before = v.verify(&inv).unwrap();
        assert!(before.verdict.holds());
        assert_eq!(before.contract_scenarios, before.scenarios_checked);

        e.inject_cross_site_allow(1, 0);
        v.swap_network(Arc::new(e.net.clone()), &TouchSet::node("fw0")).unwrap();
        let ctx = v.modular_context().expect("explicit partition");
        assert!(!ctx.contract_holds(v.network(), &inv, &FailureScenario::none()));
        let after = v.verify(&inv).unwrap();
        assert!(!after.verdict.holds(), "the opened firewall lets building 1 in");
        assert_eq!(after.contract_scenarios, 0);
    }

    /// A delivery sweep walks once per run of header classes that every
    /// hop it reads answers alike, not once per class. On a fixed campus,
    /// every list under every scenario and from every terminal takes at
    /// least one walk per interval and fewer walks than there are classes,
    /// those of building 0's hosts with building 0's firewall failed
    /// included: their cross-site classes meet a dead best next hop, whose
    /// fallback runs report a reach like any other runs. The total is
    /// pinned: a sweep that fell back to one walk per class would still
    /// deliver correctly, so only the count shows it.
    #[test]
    fn delivery_sweeps_walk_once_per_run_of_classes() {
        let params = EstateParams {
            sites: 4,
            subnets_per_site: 4,
            hosts_per_subnet: 8,
            ..small(EstateStyle::Campus)
        };
        let e = Estate::build(params);
        let (topo, tables) = (&e.net.topo, &e.net.tables);
        let classes = HeaderClasses::from_network(topo, tables);
        let n = classes.num_classes();
        let (mut lists, mut intervals) = (0, 0);
        for scenario in e.net.all_scenarios() {
            for t in topo.terminals() {
                let before = classes.delivery_walks();
                let list = classes.delivery_intervals(topo, tables, &scenario, t).unwrap();
                let walks = classes.delivery_walks() - before;
                let name = &topo.node(t).name;
                assert!(list.len() <= walks, "{name} under {scenario:?}: {walks} walks");
                assert!(walks < n, "{name} under {scenario:?}: {walks} walks for {n} classes");
                lists += 1;
                intervals += list.len();
            }
        }
        assert_eq!((n, lists, intervals), (147, 396, 14_797));
        assert_eq!(classes.delivery_walks(), 14_833, "one walk per class would be {}", n * lists);
    }
}

//! §5.2: data isolation with content caches (Figures 4–5).
//!
//! The fabric separates a client side (`aggC`) from a server side
//! (`aggS`). A shared transparent **content cache** straddles the two, in
//! front of a stateful firewall:
//!
//! ```text
//!   clients — ctor — aggC ─ cache ─ aggS ─ fw ─ stor — servers
//! ```
//!
//! * requests to any server pass the cache, then the firewall;
//! * server responses pass the firewall, then populate the cache;
//! * **cache-served responses go straight back to the client** — they
//!   never touch the firewall. That is why the cache's deny ACL is
//!   load-bearing: delete it and cached private data is served to anyone
//!   (the §5.2 misconfiguration), even though the firewall still blocks
//!   every direct path.
//!
//! Each policy group owns one *private* server (data confined to the
//! group) and one *public* server (world-readable). Because the cache is
//! origin-agnostic, slices must include a representative per policy
//! equivalence class (§4.1), so — unlike §5.1 — verification time grows
//! with policy complexity. That growth is exactly what Figure 4 plots.

use rand::seq::SliceRandom;
use rand::Rng;
use vmn::{Invariant, Network};
use vmn_mbox::models;
use vmn_net::{Address, NodeId, Prefix, Rule, Topology};

use crate::{group_prefix, host_addr};

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct DataIsolationParams {
    /// Number of policy groups == policy equivalence classes (Figure 4/5
    /// x-axis).
    pub policy_groups: usize,
    /// Client hosts per group (besides the two servers).
    pub clients_per_group: usize,
}

impl Default for DataIsolationParams {
    fn default() -> Self {
        DataIsolationParams { policy_groups: 10, clients_per_group: 2 }
    }
}

/// The constructed scenario.
pub struct DataIsolation {
    pub net: Network,
    pub params: DataIsolationParams,
    /// Per group: the private server host.
    pub private_servers: Vec<NodeId>,
    /// Per group: the public server host.
    pub public_servers: Vec<NodeId>,
    /// Per group: client hosts.
    pub clients: Vec<Vec<NodeId>>,
    pub cache: NodeId,
    pub fw: NodeId,
}

impl DataIsolation {
    fn server_rack(g: u8) -> Prefix {
        Prefix::new(host_addr(g, g, 0), 24)
    }

    fn client_rack(g: u8) -> Prefix {
        Prefix::new(host_addr(g, 100 + g, 0), 24)
    }

    fn private_addr(g: u8) -> Address {
        host_addr(g, g, 1)
    }

    fn public_addr(g: u8) -> Address {
        host_addr(g, g, 2)
    }

    pub fn build(params: DataIsolationParams) -> DataIsolation {
        assert!(params.policy_groups >= 2 && params.policy_groups <= 100);
        assert!(params.clients_per_group >= 1);
        let g_count = params.policy_groups;
        let mut topo = Topology::new();
        let agg_c = topo.add_switch("aggC");
        let agg_s = topo.add_switch("aggS");
        let cache = topo.add_middlebox("cache", "content-cache", vec![]);
        let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
        // The cache and firewall straddle the two fabric sides.
        topo.add_link(cache, agg_c);
        topo.add_link(cache, agg_s);
        topo.add_link(fw, agg_c);
        topo.add_link(fw, agg_s);

        let mut private_servers = Vec::new();
        let mut public_servers = Vec::new();
        let mut clients: Vec<Vec<NodeId>> = Vec::new();
        let mut tables = vmn_net::ForwardingTables::new();
        let all = Prefix::default_route();
        let mut ctors = Vec::new();
        for g in 0..g_count as u8 {
            let stor = topo.add_switch(format!("stor{g}"));
            topo.add_link(stor, agg_s);
            let priv_srv = topo.add_host(format!("priv{g}"), Self::private_addr(g));
            let pub_srv = topo.add_host(format!("pub{g}"), Self::public_addr(g));
            for (srv, addr) in [(priv_srv, Self::private_addr(g)), (pub_srv, Self::public_addr(g))]
            {
                topo.add_link(srv, stor);
                tables.add_rule(stor, Rule::from_neighbor(Prefix::host(addr), agg_s, srv));
                tables.add_rule(stor, Rule::from_neighbor(all, srv, agg_s).with_priority(10));
            }
            private_servers.push(priv_srv);
            public_servers.push(pub_srv);
            tables.add_rule(agg_s, Rule::new(Self::server_rack(g), stor));

            let ctor = topo.add_switch(format!("ctor{g}"));
            topo.add_link(ctor, agg_c);
            let mut cs = Vec::new();
            for c in 0..params.clients_per_group as u8 {
                let addr = host_addr(g, 100 + g, c + 1);
                let h = topo.add_host(format!("c{g}x{c}"), addr);
                topo.add_link(h, ctor);
                tables.add_rule(ctor, Rule::from_neighbor(Prefix::host(addr), agg_c, h));
                tables.add_rule(ctor, Rule::from_neighbor(all, h, agg_c).with_priority(10));
                cs.push(h);
            }
            clients.push(cs);
            tables.add_rule(agg_c, Rule::new(Self::client_rack(g), ctor));
            ctors.push(ctor);
        }
        // Client side: requests to any server rack go to the cache. (No
        // server routes exist on aggC, so cache/firewall re-emissions
        // toward servers fall through to the server side.)
        for g in 0..g_count as u8 {
            for &ctor in &ctors {
                tables.add_rule(
                    agg_c,
                    Rule::from_neighbor(Self::server_rack(g), ctor, cache).with_priority(20),
                );
            }
        }
        // Firewall re-emissions toward *clients* pass the cache (this is
        // where responses populate it). Destination-qualified so that
        // firewall emissions toward servers don't bounce back to the
        // cache.
        for g in 0..g_count as u8 {
            tables.add_rule(
                agg_c,
                Rule::from_neighbor(Self::client_rack(g), fw, cache).with_priority(18),
            );
        }
        // Server side: cache misses continue to the firewall; server
        // uplink traffic crosses the firewall too.
        tables.add_rule(agg_s, Rule::from_neighbor(all, cache, fw).with_priority(20));
        for g in 0..g_count as u8 {
            let stor = topo.by_name(&format!("stor{g}")).unwrap();
            tables.add_rule(agg_s, Rule::from_neighbor(all, stor, fw).with_priority(20));
        }

        let mut net = Network::new(topo, tables);
        // Firewall: groups talk among themselves; public servers are
        // reachable by anyone and may respond to anyone.
        let mut acl: Vec<(Prefix, Prefix)> =
            (0..g_count as u8).map(|g| (group_prefix(g), group_prefix(g))).collect();
        for g in 0..g_count as u8 {
            acl.push((all, Prefix::host(Self::public_addr(g))));
            acl.push((Prefix::host(Self::public_addr(g)), all));
        }
        net.set_model(fw, models::learning_firewall("stateful-firewall", acl));
        net.set_model(cache, Self::cache_model(g_count as u8));

        DataIsolation { net, params, private_servers, public_servers, clients, cache, fw }
    }

    /// The correctly-configured shared cache: serves everything it has
    /// cached, except that non-group clients are denied each group's
    /// private server data.
    fn cache_model(groups: u8) -> vmn_mbox::MboxModel {
        let servers: Vec<Prefix> = (0..groups).map(Self::server_rack).collect();
        let mut deny: Vec<(Prefix, Prefix)> = Vec::new();
        for g in 0..groups {
            let private = Prefix::host(Self::private_addr(g));
            for outsider in Prefix::new(Address::from_octets([10, 0, 0, 0]), 8)
                .complement_within(group_prefix(g))
            {
                deny.push((outsider, private));
            }
        }
        models::content_cache("content-cache", servers, deny)
    }

    /// The data-isolation invariant: group `g`'s private data must not
    /// reach a client of group `other`.
    pub fn private_isolation(&self, g: usize, other: usize) -> Invariant {
        Invariant::DataIsolation { origin: self.private_servers[g], dst: self.clients[other][0] }
    }

    /// All per-group data-isolation invariants (each against the next
    /// group's representative client).
    pub fn invariants(&self) -> Vec<Invariant> {
        let g = self.params.policy_groups;
        (0..g).map(|i| self.private_isolation(i, (i + 1) % g)).collect()
    }

    /// Misconfiguration: deletes the cache's deny entries protecting
    /// `count` randomly chosen groups. Returns the affected groups.
    pub fn inject_cache_misconfig<R: Rng>(&mut self, rng: &mut R, count: usize) -> Vec<usize> {
        let mut gs: Vec<usize> = (0..self.params.policy_groups).collect();
        gs.shuffle(rng);
        gs.truncate(count.min(gs.len()));
        let victims: Vec<Prefix> =
            gs.iter().map(|&g| Prefix::host(Self::private_addr(g as u8))).collect();
        let model = self.net.models.get_mut(&self.cache).expect("cache model");
        for (name, pairs) in &mut model.acls {
            if name == "deny" {
                pairs.retain(|(_, dst)| !victims.contains(dst));
            }
        }
        gs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vmn::{Verifier, VerifyOptions};

    #[test]
    fn builds_and_validates() {
        let d =
            DataIsolation::build(DataIsolationParams { policy_groups: 3, clients_per_group: 2 });
        assert!(d.net.validate().is_ok());
        assert_eq!(d.net.topo.hosts().count(), 3 * (2 + 2));
    }

    #[test]
    fn configured_caches_preserve_privacy() {
        let d =
            DataIsolation::build(DataIsolationParams { policy_groups: 3, clients_per_group: 1 });
        let v = Verifier::new(&d.net, VerifyOptions::default()).unwrap();
        let inv = d.private_isolation(0, 1);
        let rep = v.verify(&inv).unwrap();
        if let vmn::Verdict::Violated { trace, .. } = &rep.verdict {
            panic!("should hold, but:\n{}", trace.render(&d.net));
        }
    }

    #[test]
    fn deleted_cache_acl_leaks_private_data() {
        let mut d =
            DataIsolation::build(DataIsolationParams { policy_groups: 3, clients_per_group: 1 });
        let mut rng = StdRng::seed_from_u64(5);
        let hit = d.inject_cache_misconfig(&mut rng, 1);
        let g = hit[0];
        let v = Verifier::new(&d.net, VerifyOptions::default()).unwrap();
        let inv = d.private_isolation(g, (g + 1) % 3);
        let rep = v.verify(&inv).unwrap();
        match &rep.verdict {
            vmn::Verdict::Violated { trace, .. } => {
                // The leak must come from the cache, not a direct path.
                let leak = trace
                    .steps
                    .iter()
                    .find(|s| s.delivered_to == Some(d.clients[(g + 1) % 3][0]))
                    .expect("delivery to the other group's client");
                assert_eq!(leak.actor, Some(d.cache), "leak must be served by the cache");
            }
            vmn::Verdict::Holds => panic!("cache without ACL must leak group {g}'s data"),
        }
    }

    #[test]
    fn public_data_flows_everywhere() {
        let d =
            DataIsolation::build(DataIsolationParams { policy_groups: 2, clients_per_group: 1 });
        let v = Verifier::new(&d.net, VerifyOptions::default()).unwrap();
        let inv = Invariant::DataIsolation { origin: d.public_servers[0], dst: d.clients[1][0] };
        let rep = v.verify(&inv).unwrap();
        assert!(!rep.verdict.holds(), "public data is world readable");
    }

    #[test]
    fn slices_grow_with_policy_complexity() {
        // The origin-agnostic cache forces policy representatives into the
        // slice, so slice size must track the number of classes.
        let mut sizes = Vec::new();
        for g in [2usize, 4, 6] {
            let d = DataIsolation::build(DataIsolationParams {
                policy_groups: g,
                clients_per_group: 1,
            });
            let v = Verifier::new(&d.net, VerifyOptions::default()).unwrap();
            let rep = v.verify(&d.private_isolation(0, 1)).unwrap();
            sizes.push(rep.encoded_nodes);
        }
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "sizes: {sizes:?}");
    }
}

//! §5.3.2: the multi-tenant datacenter with EC2-style security groups
//! (Figure 8).
//!
//! Each tenant runs 10 VMs, 5 in a *public* security group (accept from
//! anyone) and 5 in a *private* one (flow-isolated: initiate anywhere,
//! accept only from the same tenant). Security-group enforcement lives in
//! a stateful per-tenant virtual-switch firewall that all of the tenant's
//! traffic traverses, in both directions.
//!
//! Scale note: the paper gives every physical server its own virtual
//! switch; here the enforcement point is one security-group firewall per
//! tenant. The policy semantics (and the flow-parallel slicing argument)
//! are identical, and the whole-network encoding still grows linearly
//! with tenant count, which is what Figure 8 plots.

use vmn::{Invariant, Network};
use vmn_mbox::models;
use vmn_net::{NodeId, Prefix, Rule, Topology};

use crate::host_addr;

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct MultiTenantParams {
    pub tenants: usize,
    /// VMs per security group (the paper uses 5 public + 5 private).
    pub vms_per_group: usize,
}

impl Default for MultiTenantParams {
    fn default() -> Self {
        MultiTenantParams { tenants: 5, vms_per_group: 5 }
    }
}

/// The constructed datacenter.
pub struct MultiTenant {
    pub net: Network,
    pub params: MultiTenantParams,
    /// Per tenant: private VMs.
    pub private_vms: Vec<Vec<NodeId>>,
    /// Per tenant: public VMs.
    pub public_vms: Vec<Vec<NodeId>>,
    /// Per tenant: the security-group firewall.
    pub sg_fw: Vec<NodeId>,
}

impl MultiTenant {
    fn tenant_prefix(t: u8) -> Prefix {
        Prefix::new(host_addr(t, 0, 0), 16)
    }

    fn private_prefix(t: u8) -> Prefix {
        Prefix::new(host_addr(t, 0, 0), 24)
    }

    fn public_prefix(t: u8) -> Prefix {
        Prefix::new(host_addr(t, 1, 0), 24)
    }

    pub fn build(params: MultiTenantParams) -> MultiTenant {
        assert!(params.tenants >= 2 && params.tenants <= 120);
        assert!(params.vms_per_group >= 1 && params.vms_per_group <= 120);
        let mut topo = Topology::new();
        let agg = topo.add_switch("agg");
        let mut private_vms = Vec::new();
        let mut public_vms = Vec::new();
        let mut sg_fw = Vec::new();
        let mut tables = vmn_net::ForwardingTables::new();
        let all = Prefix::default_route();

        for t in 0..params.tenants as u8 {
            let tor = topo.add_switch(format!("tor{t}"));
            topo.add_link(tor, agg);
            let sg = topo.add_middlebox(format!("sg{t}"), "security-group-fw", vec![]);
            topo.add_link(sg, tor);
            sg_fw.push(sg);

            let mut privs = Vec::new();
            let mut pubs = Vec::new();
            for v in 0..params.vms_per_group as u8 {
                let pa = host_addr(t, 0, v + 1);
                let pv = topo.add_host(format!("t{t}priv{v}"), pa);
                topo.add_link(pv, tor);
                privs.push(pv);
                let qa = host_addr(t, 1, v + 1);
                let qv = topo.add_host(format!("t{t}pub{v}"), qa);
                topo.add_link(qv, tor);
                pubs.push(qv);
                // Delivery rules: only the security group may deliver to a
                // VM; VM uplinks go to the security group first.
                for (addr, vm) in [(pa, pv), (qa, qv)] {
                    tables.add_rule(
                        tor,
                        Rule::from_neighbor(Prefix::host(addr), sg, vm).with_priority(30),
                    );
                    tables.add_rule(tor, Rule::from_neighbor(all, vm, sg).with_priority(20));
                }
            }
            // Security-group re-emissions: tenant-local destinations are
            // delivered by the /32 rules above... but those are
            // from-qualified on `sg`, so they apply; everything else goes
            // up to the aggregation switch.
            tables.add_rule(tor, Rule::from_neighbor(all, sg, agg).with_priority(5));
            // Inbound from the fabric: through the security group.
            tables.add_rule(tor, Rule::from_neighbor(all, agg, sg).with_priority(20));
            // Aggregation: tenant prefix routes to the tenant ToR.
            tables.add_rule(agg, Rule::new(Self::tenant_prefix(t), tor));

            private_vms.push(privs);
            public_vms.push(pubs);
        }

        let mut net = Network::new(topo, tables);
        for t in 0..params.tenants as u8 {
            // Security-group policy: public accepts from anyone; private
            // accepts only from this tenant (both its groups).
            let acl = vec![
                (all, Self::public_prefix(t)),
                (Self::tenant_prefix(t), Self::private_prefix(t)),
                // Outbound from this tenant is always allowed (and punches
                // the hole for replies).
                (Self::tenant_prefix(t), all),
            ];
            net.set_model(
                sg_fw[t as usize],
                models::security_group_firewall("security-group-fw", acl),
            );
        }

        MultiTenant { net, params, private_vms, public_vms, sg_fw }
    }

    /// The three invariants of Figure 8, instantiated for tenants (a, b).
    pub fn priv_priv(&self, a: usize, b: usize) -> Invariant {
        Invariant::FlowIsolation { src: self.private_vms[a][0], dst: self.private_vms[b][0] }
    }

    pub fn pub_priv(&self, a: usize, b: usize) -> Invariant {
        Invariant::FlowIsolation { src: self.public_vms[a][0], dst: self.private_vms[b][0] }
    }

    pub fn priv_pub(&self, a: usize, b: usize) -> Invariant {
        Invariant::NodeIsolation { src: self.private_vms[a][0], dst: self.public_vms[b][0] }
    }

    /// All instances of the three invariant families over distinct tenant
    /// pairs (i, i+1) — the set Figure 8 draws from.
    pub fn invariants(&self) -> Vec<Invariant> {
        let t = self.params.tenants;
        let mut out = Vec::new();
        for i in 0..t {
            let j = (i + 1) % t;
            out.push(self.priv_priv(i, j));
            out.push(self.pub_priv(i, j));
            out.push(self.priv_pub(i, j));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn::{Verifier, VerifyOptions};

    fn small() -> MultiTenant {
        MultiTenant::build(MultiTenantParams { tenants: 2, vms_per_group: 2 })
    }

    #[test]
    fn builds_and_validates() {
        let m = small();
        assert!(m.net.validate().is_ok());
        assert_eq!(m.net.topo.hosts().count(), 8);
        assert_eq!(m.net.topo.middleboxes().count(), 2);
    }

    #[test]
    fn cross_tenant_private_vms_are_isolated() {
        let m = small();
        let v = Verifier::new(&m.net, VerifyOptions::default()).unwrap();
        let rep = v.verify(&m.priv_priv(0, 1)).unwrap();
        if let vmn::Verdict::Violated { trace, .. } = &rep.verdict {
            panic!("priv-priv must hold:\n{}", trace.render(&m.net));
        }
        let rep = v.verify(&m.pub_priv(0, 1)).unwrap();
        assert!(rep.verdict.holds(), "pub-priv must hold");
    }

    #[test]
    fn private_vms_reach_other_tenants_public_vms() {
        let m = small();
        let v = Verifier::new(&m.net, VerifyOptions::default()).unwrap();
        let rep = v.verify(&m.priv_pub(0, 1)).unwrap();
        assert!(!rep.verdict.holds(), "priv VMs may initiate to other tenants' public VMs");
    }

    #[test]
    fn same_tenant_vms_communicate() {
        let m = small();
        let v = Verifier::new(&m.net, VerifyOptions::default()).unwrap();
        assert!(v.can_reach(m.private_vms[0][0], m.private_vms[0][1]).unwrap());
        assert!(v.can_reach(m.public_vms[0][0], m.private_vms[0][1]).unwrap());
    }

    #[test]
    fn slices_stay_small_as_tenants_grow() {
        let mut sizes = Vec::new();
        for tenants in [2usize, 4, 6] {
            let m = MultiTenant::build(MultiTenantParams { tenants, vms_per_group: 2 });
            let v = Verifier::new(&m.net, VerifyOptions::default()).unwrap();
            let rep = v.verify(&m.priv_priv(0, 1)).unwrap();
            sizes.push(rep.encoded_nodes);
        }
        assert_eq!(sizes[0], sizes[1]);
        assert_eq!(sizes[1], sizes[2]);
    }
}

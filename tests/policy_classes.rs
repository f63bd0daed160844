//! Policy equivalence classes (§4.1): the near-linear refinement in
//! `PolicyClasses::compute` against the reference it replaced, on the five
//! scenario generators with and without a misconfiguration; and the
//! symmetry soundness case the static fingerprint used to miss (prefixes
//! mentioned directly in guards and rewrites, here a NAT's `internal`).

#[path = "support/policy_reference.rs"]
mod policy_reference;

use policy_reference::assert_matches_reference;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vmn::{Invariant, Network, PolicyClasses, Verifier, VerifyOptions};
use vmn_mbox::models;
use vmn_net::{FailureScenario, Prefix, RoutingConfig, Rule, Topology};
use vmn_scenarios::datacenter::{Datacenter, DatacenterParams};
use vmn_scenarios::enterprise::{Enterprise, EnterpriseParams};
use vmn_scenarios::estate::{Estate, EstateParams, EstateStyle};
use vmn_scenarios::isp::{Isp, IspParams};
use vmn_scenarios::multi_tenant::{MultiTenant, MultiTenantParams};

/// A generic misconfiguration for generators without an injector of their
/// own: the first ingress-qualified (steering) rule in the network is
/// deleted, so one emitter's traffic skips a middlebox.
fn drop_one_steering_rule(net: &mut Network) {
    let (sw, rule) = net
        .topo
        .switches()
        .find_map(|sw| Some((sw, *net.tables.rules(sw).iter().find(|r| r.from.is_some())?)))
        .expect("the generators steer traffic through middleboxes");
    assert_eq!(Arc::make_mut(&mut net.tables).remove_rules(sw, |r| *r == rule), 1);
}

#[test]
fn refinement_matches_reference_on_the_generators() {
    let mut dc = Datacenter::build(DatacenterParams {
        racks: 6,
        hosts_per_rack: 3,
        policy_groups: 3,
        redundant: true,
        with_failures: false,
    });
    assert_matches_reference(&dc.net, "datacenter");
    dc.inject_rule_misconfig(&mut StdRng::seed_from_u64(7), 1);
    assert_matches_reference(&dc.net, "datacenter, one rule misconfiguration");

    let mut ent = Enterprise::build(EnterpriseParams::default());
    assert_matches_reference(&ent.net, "enterprise");
    drop_one_steering_rule(&mut ent.net);
    assert_matches_reference(&ent.net, "enterprise, one steering rule dropped");

    let mut mt = MultiTenant::build(MultiTenantParams { tenants: 2, vms_per_group: 2 });
    assert_matches_reference(&mt.net, "multi_tenant");
    drop_one_steering_rule(&mut mt.net);
    assert_matches_reference(&mt.net, "multi_tenant, one steering rule dropped");

    let isp = |ok| IspParams {
        peering_points: 2,
        subnets: 3,
        scrubber_behind_firewall: ok,
        ..Default::default()
    };
    assert_matches_reference(&Isp::build(isp(true)).net, "isp");
    assert_matches_reference(&Isp::build(isp(false)).net, "isp, scrubber bypasses the firewalls");

    for style in [EstateStyle::Campus, EstateStyle::Isp] {
        let mut estate = Estate::build(EstateParams {
            style,
            sites: 3,
            subnets_per_site: 2,
            hosts_per_subnet: 4,
            with_failures: true,
        });
        assert_matches_reference(&estate.net, "estate");
        estate.inject_cross_site_allow(0, 1);
        assert_matches_reference(&estate.net, "estate, one cross-site allow");
    }
}

/// Two inside hosts behind one NAT whose `internal` prefix covers only the
/// first: the NAT translates `h_in` and drops `h_out`, so they are not
/// interchangeable — but no ACL mentions either, only the NAT's `SrcIn`
/// guard does. With them in one class, `verify_all` handed `h_in`'s
/// data-isolation invariant the verdict of `h_out`'s: a missed violation.
#[test]
fn prefix_in_a_guard_splits_classes() {
    let mut topo = Topology::new();
    let h_in = topo.add_host("h_in", "10.0.1.1".parse().unwrap());
    let h_out = topo.add_host("h_out", "10.0.2.1".parse().unwrap());
    let ext = topo.add_host("ext", "8.8.8.8".parse().unwrap());
    let ext2 = topo.add_host("ext2", "8.8.4.4".parse().unwrap());
    let sw = topo.add_switch("sw");
    let nat = topo.add_middlebox("nat", "nat", vec![]);
    for n in [h_in, h_out, ext, ext2, nat] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    for h in [h_in, h_out] {
        tables.add_rule(sw, Rule::from_neighbor(Prefix::default_route(), h, nat).with_priority(10));
    }
    let mut net = Network::new(topo, tables);
    let internal = "10.0.1.0/24".parse().unwrap();
    net.set_model(nat, models::nat("nat", internal, "1.2.3.4".parse().unwrap()));

    let pc = PolicyClasses::compute(&net);
    assert!(!pc.same_class(h_in, h_out), "the NAT translates one and drops the other");
    assert!(pc.same_class(ext, ext2), "the outside hosts stay interchangeable");
    assert_matches_reference(&net, "nat");

    let invs = [
        Invariant::DataIsolation { origin: h_out, dst: ext },
        Invariant::DataIsolation { origin: h_in, dst: ext },
    ];
    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    let alone: Vec<bool> = invs.iter().map(|i| v.verify(i).unwrap().verdict.holds()).collect();
    assert_eq!(alone, [true, false], "h_out is hidden, h_in's data reaches ext");
    let swept = v.verify_all(&invs, 1).unwrap();
    let together: Vec<bool> = swept.iter().map(|r| r.verdict.holds()).collect();
    assert_eq!(together, alone, "the sweep must not inherit across the NAT boundary");
    assert!(!swept[1].inherited);
}

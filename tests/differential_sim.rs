//! Differential testing between the verifier and the concrete simulator.
//!
//! Soundness direction: every violation trace the verifier produces must
//! replay concretely — the scripted simulator run must exhibit the very
//! reception the invariant forbids.
//!
//! Completeness direction (sampled): random concrete schedules that
//! stumble on a violation imply the verifier must find one too.

#[path = "support/forbidden.rs"]
mod forbidden;
#[path = "support/normal_form.rs"]
mod normal_form;

use vmn::{Invariant, Network, Verdict, Verifier, VerifyOptions};
use vmn_mbox::models;
use vmn_net::{Address, FailureScenario, Header, NodeId, Prefix, RoutingConfig, Rule, Topology};

fn addr(s: &str) -> Address {
    s.parse().unwrap()
}

fn px(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// Asserts that a violated invariant's trace replays concretely: some
/// reception in the simulator log matches the invariant's predicate.
fn assert_replays(net: &Network, inv: &Invariant, report: &vmn::Report) {
    let Verdict::Violated { trace, scenario } = &report.verdict else {
        panic!("expected a violation for {inv}");
    };
    normal_form::assert_normal_form(trace, inv, "differential_sim");
    let receptions = trace.replay(net, scenario).expect("replay must not hit fabric errors");
    let ok = receptions.iter().any(|o| forbidden::forbidden(net, inv, o));
    assert!(
        ok,
        "replay did not reproduce the violation of {inv}:\ntrace:\n{}\nreceptions: {receptions:?}",
        trace.render(net)
    );
}

#[test]
fn firewall_hole_punch_trace_replays() {
    let mut topo = Topology::new();
    let outside = topo.add_host("outside", addr("8.8.8.8"));
    let inside = topo.add_host("inside", addr("10.0.0.5"));
    let sw = topo.add_switch("sw");
    let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
    for n in [outside, inside, fw] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), outside, fw).with_priority(10));
    tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), inside, fw).with_priority(10));
    let mut net = Network::new(topo, tables);
    net.set_model(
        fw,
        models::learning_firewall("stateful-firewall", vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))]),
    );

    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    let inv = Invariant::NodeIsolation { src: outside, dst: inside };
    let report = v.verify(&inv).unwrap();
    assert_replays(&net, &inv, &report);
}

#[test]
fn idps_oracle_trace_replays() {
    let mut topo = Topology::new();
    let outside = topo.add_host("outside", addr("8.8.8.8"));
    let inside = topo.add_host("inside", addr("10.0.0.5"));
    let sw = topo.add_switch("sw");
    let idps = topo.add_middlebox("idps", "idps", vec![]);
    for n in [outside, inside, idps] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), outside, idps).with_priority(10));
    let mut net = Network::new(topo, tables);
    net.set_model(idps, models::idps("idps"));

    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    let inv = Invariant::NodeIsolation { src: outside, dst: inside };
    let report = v.verify(&inv).unwrap();
    assert_replays(&net, &inv, &report);
}

#[test]
fn load_balancer_choice_replays() {
    let mut topo = Topology::new();
    let client = topo.add_host("client", addr("8.8.8.8"));
    let b1 = topo.add_host("b1", addr("10.0.0.1"));
    let b2 = topo.add_host("b2", addr("10.0.0.2"));
    let sw = topo.add_switch("sw");
    let lb = topo.add_middlebox("lb", "load-balancer", vec![addr("10.0.0.100")]);
    for n in [client, b1, b2, lb] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    rc.destination(px("10.0.0.100/32"), lb);
    let tables = rc.build(&topo, &FailureScenario::none());
    let mut net = Network::new(topo, tables);
    net.set_model(
        lb,
        models::load_balancer(
            "load-balancer",
            addr("10.0.0.100"),
            vec![addr("10.0.0.1"), addr("10.0.0.2")],
        ),
    );
    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    // Target backend 2 specifically: the scripted replay must reproduce
    // the same load-balancing choice.
    let inv = Invariant::NodeIsolation { src: client, dst: b2 };
    let report = v.verify(&inv).unwrap();
    assert_replays(&net, &inv, &report);
}

#[test]
fn cache_leak_trace_replays() {
    let mut topo = Topology::new();
    let server = topo.add_host("server", addr("10.1.0.1"));
    let client = topo.add_host("client", addr("10.2.0.1"));
    let other = topo.add_host("other", addr("10.3.0.1"));
    let sw = topo.add_switch("sw");
    let cache = topo.add_middlebox("cache", "content-cache", vec![]);
    for n in [server, client, other, cache] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    for h in [client, other] {
        tables.add_rule(sw, Rule::from_neighbor(px("10.1.0.0/16"), h, cache).with_priority(10));
    }
    tables.add_rule(sw, Rule::from_neighbor(px("10.2.0.0/15"), server, cache).with_priority(10));
    let mut net = Network::new(topo, tables);
    net.set_model(cache, models::content_cache("content-cache", [px("10.1.0.0/16")], vec![]));

    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    let inv = Invariant::DataIsolation { origin: server, dst: other };
    let report = v.verify(&inv).unwrap();
    assert_replays(&net, &inv, &report);
}

/// Random-schedule search on the simulator: any violation it finds, the
/// verifier must find as well (completeness cross-check).
#[test]
fn random_simulation_never_beats_the_verifier() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use vmn_sim::{SimOp, Simulator};

    // Firewall with a partial ACL: outside may reach port-range hosts.
    let mut topo = Topology::new();
    let outside = topo.add_host("outside", addr("8.8.8.8"));
    let inside = topo.add_host("inside", addr("10.0.0.5"));
    let peer = topo.add_host("peer", addr("10.0.0.6"));
    let sw = topo.add_switch("sw");
    let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
    for n in [outside, inside, peer, fw] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    for h in [outside, inside, peer] {
        tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), h, fw).with_priority(10));
    }
    let mut net = Network::new(topo, tables);
    // Misconfigured: 10.0.0.6 (peer) is reachable from anywhere.
    net.set_model(
        fw,
        models::learning_firewall(
            "stateful-firewall",
            vec![(px("10.0.0.0/8"), px("0.0.0.0/0")), (px("0.0.0.0/0"), px("10.0.0.6/32"))],
        ),
    );

    // Random concrete exploration.
    let mut rng = StdRng::seed_from_u64(7);
    let mut sim_violations: Vec<Invariant> = Vec::new();
    for _ in 0..50 {
        let models: HashMap<NodeId, &vmn_mbox::MboxModel> =
            net.topo.middleboxes().map(|m| (m, net.model(m))).collect();
        let mut sim = Simulator::new(&net.topo, &net.tables, FailureScenario::none(), models);
        for _ in 0..12 {
            if rng.gen_bool(0.6) {
                let hosts = [outside, inside, peer];
                let src = hosts[rng.gen_range(0..3usize)];
                let dst = hosts[rng.gen_range(0..3usize)];
                if src == dst {
                    continue;
                }
                let h = Header::new(
                    net.host_address(src),
                    rng.gen_range(1000..32000),
                    net.host_address(dst),
                    rng.gen_range(1..1024),
                );
                sim.exec(&SimOp::Send { host: src, header: h }).unwrap();
            } else {
                sim.exec(&SimOp::Process { mbox: fw }).unwrap();
            }
        }
        // Unsolicited outside→inside delivery would violate flow isolation.
        if sim.host_received(inside, |h| h.src == net.host_address(outside)) {
            sim_violations.push(Invariant::FlowIsolation { src: outside, dst: inside });
        }
        if sim.host_received(peer, |h| h.src == net.host_address(outside)) {
            sim_violations.push(Invariant::NodeIsolation { src: outside, dst: peer });
        }
    }
    sim_violations.dedup();

    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    // The peer hole is real and random search should trip over it.
    assert!(
        sim_violations.iter().any(|i| matches!(i, Invariant::NodeIsolation { .. })),
        "random search should find the peer hole"
    );
    for inv in &sim_violations {
        let rep = v.verify(inv).unwrap();
        assert!(
            !rep.verdict.holds(),
            "simulator found a violation of {inv} but the verifier claims it holds"
        );
    }
    // And the verifier correctly proves what the simulator cannot refute.
    let rep = v.verify(&Invariant::FlowIsolation { src: outside, dst: inside }).unwrap();
    assert!(rep.verdict.holds(), "inside is flow-isolated");
}

/// Exhaustive concrete enumeration vs the verifier: for a small firewalled
/// network and a tiny concrete header space, enumerate *every* schedule of
/// sends and processings up to a depth. Any violation the enumeration
/// finds must also be found by the verifier (which searches symbolically
/// over a superset of behaviours).
#[test]
fn exhaustive_enumeration_never_beats_the_verifier() {
    use std::collections::HashMap;
    use vmn_sim::{SimOp, Simulator};

    // Firewall ACLs to try: each yields a different verdict pattern.
    let acl_variants: Vec<Vec<(Prefix, Prefix)>> = vec![
        vec![],                                     // deny all
        vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))],  // inside out
        vec![(px("8.8.8.8/32"), px("10.0.0.0/8"))], // outside in
        vec![(px("0.0.0.0/0"), px("0.0.0.0/0"))],   // allow all
    ];

    for acl in acl_variants {
        let mut topo = Topology::new();
        let outside = topo.add_host("outside", addr("8.8.8.8"));
        let inside = topo.add_host("inside", addr("10.0.0.5"));
        let sw = topo.add_switch("sw");
        let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
        for n in [outside, inside, fw] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), outside, fw).with_priority(10));
        tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), inside, fw).with_priority(10));
        let mut net = Network::new(topo, tables);
        net.set_model(fw, models::learning_firewall("stateful-firewall", acl.clone()));

        // Concrete alphabet: each host can send a canonical packet to the
        // other, or the firewall processes. Depth 4 covers send/process
        // interleavings including hole punching.
        let h_out = Header::new(addr("8.8.8.8"), 777, addr("10.0.0.5"), 80);
        let h_in = Header::new(addr("10.0.0.5"), 80, addr("8.8.8.8"), 777);
        let alphabet = [
            SimOp::Send { host: outside, header: h_out },
            SimOp::Send { host: inside, header: h_in },
            SimOp::Process { mbox: fw },
        ];
        let mut concrete_violation = false;
        let depth = 4;
        let mut stack: Vec<Vec<usize>> = (0..alphabet.len()).map(|i| vec![i]).collect();
        while let Some(seq) = stack.pop() {
            let models: HashMap<NodeId, &vmn_mbox::MboxModel> =
                net.topo.middleboxes().map(|m| (m, net.model(m))).collect();
            let mut sim = Simulator::new(&net.topo, &net.tables, FailureScenario::none(), models);
            for &i in &seq {
                sim.exec(&alphabet[i]).unwrap();
            }
            if sim.host_received(inside, |h| h.src == addr("8.8.8.8")) {
                concrete_violation = true;
                break;
            }
            if seq.len() < depth {
                for i in 0..alphabet.len() {
                    let mut next = seq.clone();
                    next.push(i);
                    stack.push(next);
                }
            }
        }

        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let inv = Invariant::NodeIsolation { src: outside, dst: inside };
        let rep = v.verify(&inv).unwrap();
        if concrete_violation {
            assert!(
                !rep.verdict.holds(),
                "enumeration found a violation the verifier missed (acl {acl:?})"
            );
        }
        // Ground truth for these ACLs: only the deny-all firewall keeps
        // outside fully node-isolated from inside.
        let expect_holds = acl.is_empty();
        assert_eq!(rep.verdict.holds(), expect_holds, "unexpected verdict for acl {acl:?}");
    }
}

//! End-to-end verification tests: small networks, every middlebox type,
//! both verdict polarities.

use vmn::{Backend, Invariant, Network, Verdict, Verifier, VerifyOptions};
use vmn_mbox::models;
use vmn_net::{Address, FailureScenario, NodeId, Prefix, RoutingConfig, Rule, Topology};

fn addr(s: &str) -> Address {
    s.parse().unwrap()
}

fn px(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// outside / inside pair with a middlebox steering all traffic, both
/// directions, through `mb`.
struct Guarded {
    net: Network,
    outside: NodeId,
    inside: NodeId,
    mb: NodeId,
}

fn guarded(mbox_type: &str, model: vmn_mbox::MboxModel) -> Guarded {
    let mut topo = Topology::new();
    let outside = topo.add_host("outside", addr("8.8.8.8"));
    let inside = topo.add_host("inside", addr("10.0.0.5"));
    let sw = topo.add_switch("sw");
    let mb = topo.add_middlebox("mb", mbox_type, vec![]);
    topo.add_link(outside, sw);
    topo.add_link(inside, sw);
    topo.add_link(mb, sw);
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), outside, mb).with_priority(10));
    tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), inside, mb).with_priority(10));
    let mut net = Network::new(topo, tables);
    net.set_model(mb, model);
    Guarded { net, outside, inside, mb }
}

#[test]
fn stateful_firewall_blocks_unsolicited_but_not_replies() {
    let g = guarded(
        "stateful-firewall",
        models::learning_firewall("stateful-firewall", vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))]),
    );
    let v = Verifier::new(&g.net, VerifyOptions::default()).unwrap();

    // Unsolicited node isolation is NOT guaranteed (inside could initiate,
    // punching a hole) — flow isolation is the right invariant and holds.
    let flow = v.verify(&Invariant::FlowIsolation { src: g.outside, dst: g.inside }).unwrap();
    assert!(flow.verdict.holds(), "flow isolation must hold");

    // Plain node isolation is violated exactly because replies flow.
    let node = v.verify(&Invariant::NodeIsolation { src: g.outside, dst: g.inside }).unwrap();
    match &node.verdict {
        Verdict::Violated { trace, .. } => {
            // The witness must contain an inside-initiated packet first.
            let sends: Vec<_> =
                trace.steps.iter().filter(|s| s.kind == vmn::StepKind::HostSend).collect();
            assert!(
                sends.iter().any(|s| s.actor == Some(g.inside)),
                "hole punching requires an inside send:\n{}",
                trace.render(&g.net)
            );
        }
        Verdict::Holds => panic!("node isolation should be violated via hole punching"),
    }
}

/// Middlebox state is per instance: a learning firewall admits a reply
/// only to a flow *it* saw opened. With one firewall on both directions,
/// inside opens a hole for outside; steer outbound through `fw1` and
/// inbound through `fw2`, and `fw2` has opened nothing.
#[test]
fn firewall_state_is_per_instance() {
    let build = |inbound_fw: &str| {
        let mut topo = Topology::new();
        let outside = topo.add_host("outside", addr("8.8.8.8"));
        let inside = topo.add_host("inside", addr("10.0.0.5"));
        let sw = topo.add_switch("sw");
        let fw1 = topo.add_middlebox("fw1", "stateful-firewall", vec![]);
        let fw2 = topo.add_middlebox("fw2", "stateful-firewall", vec![]);
        for n in [outside, inside, fw1, fw2] {
            topo.add_link(n, sw);
        }
        let inbound = if inbound_fw == "fw1" { fw1 } else { fw2 };
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        let any = px("0.0.0.0/0");
        tables.add_rule(sw, Rule::from_neighbor(any, inside, fw1).with_priority(10));
        tables.add_rule(sw, Rule::from_neighbor(any, outside, inbound).with_priority(10));
        let mut net = Network::new(topo, tables);
        for fw in [fw1, fw2] {
            let acl = vec![(px("10.0.0.0/8"), any)];
            net.set_model(fw, models::learning_firewall("stateful-firewall", acl));
        }
        (net, outside, inside)
    };
    let opts = VerifyOptions { backend: Backend::Smt, ..Default::default() };

    let (net, outside, inside) = build("fw1");
    let inv = Invariant::NodeIsolation { src: outside, dst: inside };
    let v = Verifier::new(&net, opts.clone()).unwrap();
    for (engine, report) in [("sweep", v.verify(&inv)), ("oracle", v.verify_from_scratch(&inv))] {
        let Verdict::Violated { trace, scenario } = report.unwrap().verdict else {
            panic!("{engine}: one firewall on both directions lets the reply in");
        };
        let receptions = trace.replay(&net, &scenario).expect("trace replays");
        assert!(
            receptions.iter().any(|o| o.at == inside && o.header.src == net.host_address(outside)),
            "{engine}: replay reproduces the reception:\n{}",
            trace.render(&net)
        );
    }

    let (net, outside, inside) = build("fw2");
    let inv = Invariant::NodeIsolation { src: outside, dst: inside };
    let v = Verifier::new(&net, opts).unwrap();
    assert!(v.verify(&inv).unwrap().verdict.holds(), "fw2 saw no flow opened");
    assert!(v.verify_from_scratch(&inv).unwrap().verdict.holds(), "the oracle agrees");
}

#[test]
fn deny_all_firewall_gives_node_isolation() {
    let g = guarded("stateful-firewall", models::learning_firewall("stateful-firewall", vec![]));
    let v = Verifier::new(&g.net, VerifyOptions::default()).unwrap();
    let node = v.verify(&Invariant::NodeIsolation { src: g.outside, dst: g.inside }).unwrap();
    assert!(node.verdict.holds(), "no ACL entries: nothing can ever flow");
    let node2 = v.verify(&Invariant::NodeIsolation { src: g.inside, dst: g.outside }).unwrap();
    assert!(node2.verdict.holds());
}

#[test]
fn acl_scope_matters() {
    // ACL allows outside→inside, so outside CAN reach inside directly.
    let g = guarded(
        "stateful-firewall",
        models::learning_firewall("stateful-firewall", vec![(px("8.8.8.8/32"), px("10.0.0.0/8"))]),
    );
    let v = Verifier::new(&g.net, VerifyOptions::default()).unwrap();
    let r = v.verify(&Invariant::NodeIsolation { src: g.outside, dst: g.inside }).unwrap();
    assert!(!r.verdict.holds(), "ACL-permitted traffic must be found");
    // And even flow isolation is violated (outside initiates).
    let r = v.verify(&Invariant::FlowIsolation { src: g.outside, dst: g.inside }).unwrap();
    assert!(!r.verdict.holds());
}

#[test]
fn nat_hides_internal_hosts() {
    let g = guarded("nat", models::nat("nat", px("10.0.0.0/8"), addr("1.2.3.4")));
    let v = Verifier::new(&g.net, VerifyOptions::default()).unwrap();
    // Outside cannot open a connection to the inside host: flow isolation.
    let r = v.verify(&Invariant::FlowIsolation { src: g.outside, dst: g.inside }).unwrap();
    assert!(r.verdict.holds(), "NAT must block unsolicited inbound");
    // Source-address based reachability is *not* violated outbound — the
    // NAT rewrites the source — but the inside host's data still reaches
    // outside (origin is preserved through the NAT).
    assert!(!v.can_reach(g.inside, g.outside).unwrap(), "src address is rewritten");
    let leak = v.verify(&Invariant::DataIsolation { origin: g.inside, dst: g.outside }).unwrap();
    assert!(!leak.verdict.holds(), "outbound data flows through the NAT");
}

#[test]
fn idps_verdict_depends_on_oracle() {
    let g = guarded("idps", models::idps("idps"));
    let v = Verifier::new(&g.net, VerifyOptions::default()).unwrap();
    // The IDPS only drops malicious packets; benign traffic passes, so
    // isolation is violated (the oracle may classify the packet benign).
    let r = v.verify(&Invariant::NodeIsolation { src: g.outside, dst: g.inside }).unwrap();
    assert!(!r.verdict.holds());
    match r.verdict {
        Verdict::Violated { trace, .. } => {
            // The step that delivered the offending packet must be an IDPS
            // processing step that classified it as non-malicious.
            let proc = trace
                .steps
                .iter()
                .find(|s| s.delivered_to == Some(g.inside))
                .expect("some step delivers to inside");
            assert_eq!(proc.actor, Some(g.mb));
            assert_eq!(proc.oracle_values.get("malicious?"), Some(&false));
        }
        _ => unreachable!(),
    }
}

#[test]
fn traversal_invariant_detects_bypass() {
    // Two configurations: one steers src traffic through the IDPS, the
    // other (misconfigured) lets it go direct.
    let mut topo = Topology::new();
    let src = topo.add_host("src", addr("8.8.8.8"));
    let dst = topo.add_host("dst", addr("10.0.0.5"));
    let sw = topo.add_switch("sw");
    let idps = topo.add_middlebox("idps", "idps", vec![]);
    topo.add_link(src, sw);
    topo.add_link(dst, sw);
    topo.add_link(idps, sw);
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);

    // Correct configuration: src traffic steered through the IDPS.
    let mut good = rc.build(&topo, &FailureScenario::none());
    good.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), src, idps).with_priority(10));
    let mut net = Network::new(topo.clone(), good);
    net.set_model(idps, models::idps("idps"));
    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    let inv = Invariant::Traversal { dst, through: vec![idps], from: Some(src) };
    assert!(v.verify(&inv).unwrap().verdict.holds(), "pipelined config traverses the IDPS");

    // Misconfigured: no steering rule — traffic goes direct.
    let bad = rc.build(&topo, &FailureScenario::none());
    let mut net2 = Network::new(topo, bad);
    net2.set_model(idps, models::idps("idps"));
    let v2 = Verifier::new(&net2, VerifyOptions::default()).unwrap();
    let r = v2.verify(&inv).unwrap();
    assert!(!r.verdict.holds(), "bypass must be detected");
}

#[test]
fn cache_leaks_data_without_acl() {
    // The §5.2 shape: a firewall confines the server's data to the client
    // group, and a cache sits between the hosts and the firewall. If the
    // cache's deny ACL is missing, `other` obtains the server's data from
    // the cache even though the firewall blocks the direct path.
    //
    //   {client, other} --- sw1 --- cache --- sw1 --- fw --- sw2 --- server
    let mut topo = Topology::new();
    let server = topo.add_host("server", addr("10.1.0.1"));
    let client = topo.add_host("client", addr("10.2.0.1"));
    let other = topo.add_host("other", addr("10.3.0.1"));
    let sw1 = topo.add_switch("sw1");
    let sw2 = topo.add_switch("sw2");
    let cache = topo.add_middlebox("cache", "content-cache", vec![]);
    let fw = topo.add_middlebox("fw", "acl-firewall", vec![]);
    for n in [client, other, cache, fw] {
        topo.add_link(n, sw1);
    }
    topo.add_link(server, sw2);
    topo.add_link(fw, sw2);
    topo.add_link(sw1, sw2);
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let base = rc.build(&topo, &FailureScenario::none());

    let build = |deny: Vec<(Prefix, Prefix)>| {
        let mut tables = base.clone();
        // Client-side requests to the server hit the cache first, then the
        // firewall; server responses pass the firewall then the cache.
        for h in [client, other] {
            tables
                .add_rule(sw1, Rule::from_neighbor(px("10.1.0.0/16"), h, cache).with_priority(10));
        }
        tables.add_rule(sw1, Rule::from_neighbor(px("10.1.0.0/16"), cache, fw).with_priority(10));
        tables.add_rule(sw2, Rule::from_neighbor(px("10.2.0.0/15"), server, fw).with_priority(10));
        tables.add_rule(sw1, Rule::from_neighbor(px("10.2.0.0/15"), fw, cache).with_priority(10));
        let mut net = Network::new(topo.clone(), tables);
        net.set_model(cache, models::content_cache("content-cache", [px("10.1.0.0/16")], deny));
        // The firewall only allows the client group to talk to the server.
        net.set_model(
            fw,
            models::acl_firewall(
                "acl-firewall",
                vec![
                    (px("10.2.0.0/16"), px("10.1.0.0/16")),
                    (px("10.1.0.0/16"), px("10.2.0.0/16")),
                ],
            ),
        );
        net
    };

    // Without a deny entry, `other` can obtain the server's data — but
    // only via the cache (the firewall blocks the direct path).
    let open = build(vec![]);
    let v = Verifier::new(&open, VerifyOptions::default()).unwrap();
    let inv = Invariant::DataIsolation { origin: server, dst: other };
    let r = v.verify(&inv).unwrap();
    match &r.verdict {
        Verdict::Violated { trace, .. } => {
            let leak_step = trace
                .steps
                .iter()
                .find(|s| s.delivered_to == Some(other))
                .expect("a step delivers to other");
            assert_eq!(leak_step.actor, Some(cache), "the leak must come from the cache");
        }
        Verdict::Holds => panic!("cache must leak data when its ACL is missing"),
    }

    // With the deny ACL, the invariant holds.
    let closed = build(vec![(px("10.3.0.0/16"), px("10.1.0.0/16"))]);
    let v2 = Verifier::new(&closed, VerifyOptions::default()).unwrap();
    let r2 = v2.verify(&inv).unwrap();
    if let Verdict::Violated { trace, .. } = &r2.verdict {
        panic!("deny ACL should restore data isolation:\n{}", trace.render(&closed));
    }
}

#[test]
fn load_balancer_reaches_some_backend() {
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
    // The client can reach both backends (the solver picks the choice).
    assert!(v.can_reach(client, b1).unwrap());
    assert!(v.can_reach(client, b2).unwrap());
}

#[test]
fn reports_carry_metadata() {
    let g = guarded("stateful-firewall", models::learning_firewall("stateful-firewall", vec![]));
    let v = Verifier::new(&g.net, VerifyOptions::default()).unwrap();
    let r = v.verify(&Invariant::NodeIsolation { src: g.outside, dst: g.inside }).unwrap();
    assert!(r.encoded_nodes >= 3, "slice holds both hosts and the middlebox");
    assert!(r.steps >= 3);
    assert!(r.scenarios_checked >= 1);
    assert!(!r.inherited);
}

#[test]
fn verify_all_uses_symmetry() {
    // Four identical inside hosts: isolation invariants against them are
    // symmetric and only one should be verified directly.
    let mut topo = Topology::new();
    let outside = topo.add_host("outside", addr("8.8.8.8"));
    let insides: Vec<NodeId> =
        (0..4).map(|i| topo.add_host(format!("in{i}"), Address(0x0A000005 + i))).collect();
    let sw = topo.add_switch("sw");
    let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
    topo.add_link(outside, sw);
    topo.add_link(fw, sw);
    for &h in &insides {
        topo.add_link(h, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), outside, fw).with_priority(10));
    let mut net = Network::new(topo, tables);
    net.set_model(fw, models::learning_firewall("stateful-firewall", vec![]));

    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    let invs: Vec<Invariant> =
        insides.iter().map(|&dst| Invariant::NodeIsolation { src: outside, dst }).collect();
    let reports = v.verify_all(&invs, 2).unwrap();
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| r.verdict.holds()));
    let inherited = reports.iter().filter(|r| r.inherited).count();
    assert_eq!(inherited, 3, "three of four verdicts come from symmetry");
}

/// A host linked straight to a NAT reaches the NAT's external address in
/// one step: the entry step hands the packet to the linked terminal that
/// owns it, with no switch involved. No table prefix mentions that
/// address, so only splitting header classes at every terminal's own
/// address keeps the encoder from answering for it with a neighbouring
/// class's drop.
#[test]
fn a_linked_middlebox_receives_packets_for_its_own_address() {
    let spec = vmn_serve::NetSpec::parse(
        "host a 10.0.0.1\n\
         host b 30.0.0.1\n\
         switch sw\n\
         nat n internal 10.0.0.0/8 external 20.0.0.5\n\
         link a n\n\
         link n sw\n\
         link b sw\n\
         autoroute\n\
         verify node-isolation a -> n\n",
    )
    .unwrap();
    let m = spec.materialize().unwrap();
    let (a, n) = (m.names["a"], m.names["n"]);
    let ext = addr("20.0.0.5");
    let none = FailureScenario::none();
    let tf = vmn_net::TransferFunction::new(&m.net.topo, &m.net.tables, &none);
    assert_eq!(tf.deliver(a, ext).unwrap(), Some(n), "the entry step delivers to the owner");

    let inv = &m.invariants[0].1;
    for backend in [Backend::Auto, Backend::Smt] {
        let v = Verifier::new(&m.net, VerifyOptions { backend, ..Default::default() }).unwrap();
        let Verdict::Violated { trace, scenario } = v.verify(inv).unwrap().verdict else {
            panic!("{backend:?}: a reaches n at n's external address");
        };
        let first = &trace.steps[0];
        assert_eq!((first.actor, first.delivered_to), (Some(a), Some(n)), "{backend:?}");
        assert_eq!(first.packet.map(|p| p.dst), Some(ext), "{backend:?}");
        trace.replay(&m.net, &scenario).expect("the witness replays");

        // The replay reports host receptions only; drive the simulator
        // through the witness's sends to see the middlebox's.
        let models = m.net.topo.middleboxes().map(|b| (b, m.net.model(b))).collect();
        let mut sim = vmn_sim::Simulator::new(&m.net.topo, &m.net.tables, scenario, models);
        for s in trace.steps.iter().filter(|s| s.kind == vmn::StepKind::HostSend) {
            let (Some(host), Some(header)) = (s.actor, s.packet) else { continue };
            sim.exec(&vmn_sim::SimOp::Send { host, header }).unwrap();
        }
        assert!(
            sim.log()
                .iter()
                .any(|e| matches!(e, vmn_sim::SimEvent::Delivered(o) if o.from == a && o.at == n)),
            "{backend:?}: the simulator delivers a's packet to n:\n{}",
            trace.render(&m.net)
        );
    }
}

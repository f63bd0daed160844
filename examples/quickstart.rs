//! Quickstart: build a tiny firewalled network, verify two invariants,
//! and print a counterexample trace for the violated one.
//!
//! Run with: `cargo run --release --example quickstart`

use vmn::{Invariant, Network, Verdict, Verifier, VerifyOptions};
use vmn_mbox::models;
use vmn_net::{FailureScenario, Prefix, RoutingConfig, Rule, Topology};

fn main() {
    // Topology: outside --- sw --- inside, with a stateful firewall
    // hanging off the switch.
    let mut topo = Topology::new();
    let outside = topo.add_host("outside", "8.8.8.8".parse().unwrap());
    let inside = topo.add_host("inside", "10.0.0.5".parse().unwrap());
    let sw = topo.add_switch("sw");
    let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
    topo.add_link(outside, sw);
    topo.add_link(inside, sw);
    topo.add_link(fw, sw);

    // Routing: host routes plus steering rules pushing all traffic
    // through the firewall, in both directions.
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    let all: Prefix = "0.0.0.0/0".parse().unwrap();
    tables.add_rule(sw, Rule::from_neighbor(all, outside, fw).with_priority(10));
    tables.add_rule(sw, Rule::from_neighbor(all, inside, fw).with_priority(10));

    // The firewall lets inside-initiated flows through (hole punching)
    // and drops everything else.
    let mut net = Network::new(topo, tables);
    net.set_model(
        fw,
        models::learning_firewall("stateful-firewall", vec![("10.0.0.0/8".parse().unwrap(), all)]),
    );

    let verifier = Verifier::new(&net, VerifyOptions::default()).expect("valid network");

    // 1. Flow isolation: outside can never *initiate* contact — holds.
    let flow_iso = Invariant::FlowIsolation { src: outside, dst: inside };
    let report = verifier.verify(&flow_iso).expect("verification runs");
    println!(
        "{flow_iso}: {} ({} nodes encoded, {} steps, {:?})",
        if report.verdict.holds() { "HOLDS" } else { "VIOLATED" },
        report.encoded_nodes,
        report.steps,
        report.elapsed
    );
    assert!(report.verdict.holds(), "the firewall admits no outside-initiated flow");

    // 2. Node isolation: no packet from outside at all — violated,
    //    because inside can punch a hole and invite a reply.
    let node_iso = Invariant::NodeIsolation { src: outside, dst: inside };
    let report = verifier.verify(&node_iso).expect("verification runs");
    match &report.verdict {
        Verdict::Holds => panic!("{node_iso}: a punched hole must admit the reply"),
        Verdict::Violated { trace, .. } => {
            println!("{node_iso}: VIOLATED — witness schedule:");
            print!("{}", trace.render(&net));
            // The trace replays on the concrete simulator:
            let receptions = trace.replay(&net, &FailureScenario::none()).unwrap();
            println!("replayed concretely: inside observed {} reception(s)", receptions.len());
        }
    }
}

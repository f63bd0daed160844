//! §5.1 walkthrough: detect the three classes of datacenter
//! misconfiguration (incorrect firewall rules, misconfigured backup
//! firewalls, routing that bypasses the IDPS on failover).
//!
//! Run with: `cargo run --release --example datacenter`

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmn::{Verdict, Verifier, VerifyOptions};
use vmn_scenarios::datacenter::{Datacenter, DatacenterParams};

fn params() -> DatacenterParams {
    DatacenterParams {
        racks: 10,
        hosts_per_rack: 4,
        policy_groups: 5,
        redundant: true,
        with_failures: true,
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2017);

    // --- Scenario 1: incorrect firewall rules -------------------------
    let mut dc = Datacenter::build(params());
    let pairs = dc.inject_rule_misconfig(&mut rng, 2);
    let v = Verifier::new(&dc.net, VerifyOptions::default()).unwrap();
    println!("== Rules misconfiguration ==");
    for &(a, b) in &pairs {
        let rep = v.verify(&dc.pair_isolation(a, b)).unwrap();
        println!(
            "  group {a} -> group {b}: {} in {:?} (slice: {} nodes)",
            verdict(&rep.verdict),
            rep.elapsed,
            rep.encoded_nodes
        );
        assert!(!rep.verdict.holds(), "the injected permission must be found");
    }
    // An unaffected pair still holds.
    let clean = v.verify(&dc.pair_isolation(2, 0)).unwrap();
    println!("  control pair 2 -> 0: {} in {:?}", verdict(&clean.verdict), clean.elapsed);
    assert!(clean.verdict.holds(), "the control pair is untouched");

    // --- Scenario 2: misconfigured redundant firewall ------------------
    let mut dc = Datacenter::build(params());
    let pairs = dc.inject_redundancy_misconfig(&mut rng, 1);
    let v = Verifier::new(&dc.net, VerifyOptions::default()).unwrap();
    println!("== Redundancy misconfiguration ==");
    let (a, b) = pairs[0];
    let rep = v.verify(&dc.pair_isolation(a, b)).unwrap();
    match &rep.verdict {
        Verdict::Violated { scenario, .. } => println!(
            "  group {a} -> group {b}: VIOLATED, but only when {:?} fail(s)",
            scenario.failed_nodes
        ),
        Verdict::Holds => panic!("group {a} -> group {b}: the backup's permission must be found"),
    }

    // --- Scenario 3: routing around the IDPS on failover ---------------
    let mut dc = Datacenter::build(params());
    dc.inject_traversal_misconfig();
    let v = Verifier::new(&dc.net, VerifyOptions::default()).unwrap();
    println!("== Traversal misconfiguration ==");
    let inv = dc.traversal_invariants().remove(0);
    let rep = v.verify(&inv).unwrap();
    match &rep.verdict {
        Verdict::Violated { scenario, .. } => println!(
            "  {inv}: VIOLATED when {:?} fail(s) — traffic bypasses intrusion detection",
            scenario.failed_nodes
        ),
        Verdict::Holds => panic!("{inv}: the IDPS bypass must be found"),
    }
}

fn verdict(v: &Verdict) -> &'static str {
    if v.holds() {
        "HOLDS"
    } else {
        "VIOLATED"
    }
}

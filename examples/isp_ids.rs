//! §5.3.3 walkthrough: an ISP with per-peering-point IDS + firewall and a
//! shared scrubbing box. Shows that the correct configuration keeps
//! private subnets isolated while the "scrubbed traffic bypasses the
//! firewalls" misconfiguration is caught.
//!
//! Run with: `cargo run --release --example isp_ids`

use vmn::{Verdict, Verifier, VerifyOptions};
use vmn_scenarios::isp::{Isp, IspParams};

fn run(label: &str, scrubber_behind_firewall: bool) {
    let isp = Isp::build(IspParams {
        peering_points: 3,
        subnets: 6,
        scrubber_behind_firewall,
        attacked_subnet: 1, // a private subnet is under attack
    });
    let v = Verifier::new(&isp.net, VerifyOptions::default()).unwrap();
    println!("== {label} ==");
    // Private subnet 1 is the rerouted (attacked) prefix.
    let inv = isp.invariant_for(1, 1);
    let rep = v.verify(&inv).unwrap();
    assert_eq!(rep.verdict.holds(), scrubber_behind_firewall, "attacked private subnet");
    match &rep.verdict {
        Verdict::Holds => println!("  attacked private subnet: flow isolation HOLDS"),
        Verdict::Violated { trace, .. } => {
            println!("  attacked private subnet: VIOLATED — witness:");
            print!("{}", trace.render(&isp.net));
        }
    }
    // Quarantined subnet 2 must stay unreachable either way.
    let rep = v.verify(&isp.invariant_for(2, 0)).unwrap();
    println!(
        "  quarantined subnet: {}",
        if rep.verdict.holds() { "isolation HOLDS" } else { "VIOLATED" }
    );
    assert!(rep.verdict.holds(), "quarantined subnet");
    // Public subnet 0 stays reachable either way.
    let rep = v.verify(&isp.invariant_for(0, 0)).unwrap();
    println!(
        "  public subnet: {}",
        if rep.verdict.holds() { "unreachable (!)" } else { "reachable as intended" }
    );
    assert!(!rep.verdict.holds(), "public subnet");
}

fn main() {
    run("Correct configuration (scrubber behind a firewall)", true);
    run("Misconfigured (scrubbed traffic bypasses the firewalls)", false);
}

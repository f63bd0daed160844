//! §5.3.1 walkthrough: the enterprise network of Figure 6 — verify the
//! per-subnet-kind policies and show that slice size stays constant as
//! the network grows.
//!
//! Run with: `cargo run --release --example enterprise`

use vmn::{Verifier, VerifyOptions};
use vmn_scenarios::enterprise::{Enterprise, EnterpriseParams, SubnetKind};

fn main() {
    println!("== Per-kind invariants on a 6-subnet network ==");
    let e = Enterprise::build(EnterpriseParams { subnets: 6, hosts_per_subnet: 2 });
    let v = Verifier::new(&e.net, VerifyOptions::default()).unwrap();
    for (kind, inv) in e.invariants() {
        let rep = v.verify(&inv).unwrap();
        let meaning = match kind {
            SubnetKind::Public => "reachable from the internet (isolation violated = good)",
            SubnetKind::Private => "flow isolated (holds = good)",
            SubnetKind::Quarantined => "node isolated (holds = good)",
        };
        println!(
            "  {kind:?}: {} — {meaning} [{:?}, slice {} nodes]",
            if rep.verdict.holds() { "HOLDS" } else { "VIOLATED" },
            rep.elapsed,
            rep.encoded_nodes,
        );
        assert_eq!(rep.verdict.holds(), kind != SubnetKind::Public, "{kind:?}");
    }

    println!("== Slice size vs network size (Figure 7's point) ==");
    for subnets in [3usize, 15, 30] {
        let e = Enterprise::build(EnterpriseParams { subnets, hosts_per_subnet: 2 });
        let v = Verifier::new(&e.net, VerifyOptions::default()).unwrap();
        let rep = v.verify(&e.invariant_for(SubnetKind::Private)).unwrap();
        println!(
            "  network size {:>3} (hosts+mboxes): slice {} nodes, verified in {:?}",
            e.size(),
            rep.encoded_nodes,
            rep.elapsed
        );
        assert!(rep.verdict.holds(), "private subnets stay flow isolated");
    }
}

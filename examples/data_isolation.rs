//! §5.2 walkthrough: data isolation with content caches. A shared
//! transparent cache serves cached responses without consulting the
//! firewall; its per-group deny ACL is all that protects private data.
//! Deleting the ACL leaks cached private data across policy groups.
//!
//! Run with: `cargo run --release --example data_isolation`

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmn::{Verdict, Verifier, VerifyOptions};
use vmn_scenarios::data_isolation::{DataIsolation, DataIsolationParams};

fn main() {
    let params = DataIsolationParams { policy_groups: 4, clients_per_group: 1 };

    println!("== Correctly configured caches ==");
    let d = DataIsolation::build(params.clone());
    let v = Verifier::new(&d.net, VerifyOptions::default()).unwrap();
    let rep = v.verify(&d.private_isolation(0, 1)).unwrap();
    println!(
        "  group 0 private data vs group 1 client: {} [{:?}, slice {} nodes]",
        if rep.verdict.holds() { "HOLDS" } else { "VIOLATED" },
        rep.elapsed,
        rep.encoded_nodes
    );
    assert!(rep.verdict.holds(), "the cache's deny ACL protects group 0's private data");

    println!("== After deleting a cache ACL ==");
    let mut d = DataIsolation::build(params);
    let mut rng = StdRng::seed_from_u64(42);
    let victims = d.inject_cache_misconfig(&mut rng, 1);
    let g = victims[0];
    let v = Verifier::new(&d.net, VerifyOptions::default()).unwrap();
    let inv = d.private_isolation(g, (g + 1) % 4);
    let rep = v.verify(&inv).unwrap();
    match &rep.verdict {
        Verdict::Violated { trace, .. } => {
            println!("  {inv}: VIOLATED — the cache serves the private data:");
            print!("{}", trace.render(&d.net));
        }
        Verdict::Holds => panic!("{inv}: the deleted ACL must leak the private data"),
    }
}

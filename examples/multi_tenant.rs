//! §5.3.2 walkthrough: EC2-style security groups in a multi-tenant
//! datacenter — verify the three Figure-8 invariant families, then sweep
//! them over every tenant pair and count what symmetry shares. Each
//! tenant's security-group firewall carries its own tenant's prefixes, so
//! refinement gives every tenant classes of its own and each invariant is
//! a solver run of its own.
//!
//! Run with: `cargo run --release --example multi_tenant`

use vmn::{Verifier, VerifyOptions};
use vmn_scenarios::multi_tenant::{MultiTenant, MultiTenantParams};

fn main() {
    let m = MultiTenant::build(MultiTenantParams { tenants: 4, vms_per_group: 3 });
    let v = Verifier::new(&m.net, VerifyOptions::default()).unwrap();

    println!("== The three security-group invariant families ==");
    for (name, inv, expect_holds) in [
        ("Priv-Priv (cross-tenant private → private)", m.priv_priv(0, 1), true),
        ("Pub-Priv  (cross-tenant public → private)", m.pub_priv(0, 1), true),
        ("Priv-Pub  (cross-tenant private → public)", m.priv_pub(0, 1), false),
    ] {
        let rep = v.verify(&inv).unwrap();
        println!(
            "  {name}: {} (expected {}) [{:?}]",
            if rep.verdict.holds() { "HOLDS" } else { "VIOLATED" },
            if expect_holds { "HOLDS" } else { "VIOLATED" },
            rep.elapsed
        );
        assert_eq!(rep.verdict.holds(), expect_holds, "{name}");
    }

    println!("== Symmetry across tenants ==");
    let invs = m.invariants();
    let reports = v.verify_all(&invs, 4).unwrap();
    let direct = reports.iter().filter(|r| !r.inherited).count();
    println!(
        "  {} invariants over {} tenants -> {} solver runs ({} verdicts inherited by symmetry)",
        invs.len(),
        m.params.tenants,
        direct,
        reports.len() - direct
    );
    assert!(reports.iter().enumerate().all(|(i, r)| {
        // Every third invariant (Priv-Pub) is the violated one.
        (i % 3 == 2) != r.verdict.holds()
    }));
    println!("  all verdicts as expected");
}

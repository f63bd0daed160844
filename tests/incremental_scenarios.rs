//! Differential test for the incremental (assumption-based) scenario
//! sweep: `Verifier::verify` on session clusters (the default) must return
//! verdicts *identical* to the fresh-solver-per-scenario oracle
//! (`Verifier::verify_from_scratch`) — same holds/violated answer, same first
//! violating scenario, same scenario count — across the bundled
//! `vmn_scenarios` workloads and their misconfigured variants.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmn::{Invariant, Network, Verdict, Verifier, VerifyOptions};
use vmn_net::NodeId;
use vmn_scenarios::datacenter::{Datacenter, DatacenterParams};
use vmn_scenarios::enterprise::{Enterprise, EnterpriseParams, SubnetKind};
use vmn_scenarios::multi_tenant::{MultiTenant, MultiTenantParams};

fn opts(hint: Vec<Vec<NodeId>>) -> VerifyOptions {
    VerifyOptions { policy_hint: Some(hint), ..Default::default() }
}

/// Runs the sweep and the oracle on the same (network, invariant) and
/// asserts the reports agree on everything observable.
fn assert_same_verdict(net: &Network, hint: Vec<Vec<NodeId>>, inv: &Invariant, label: &str) {
    let v = Verifier::new(net, opts(hint)).expect("valid network");
    let got = v.verify(inv).expect("incremental verify succeeds");
    let want = v.verify_from_scratch(inv).expect("oracle verify succeeds");
    assert_eq!(got.verdict.holds(), want.verdict.holds(), "{label}: verdicts disagree for {inv:?}");
    assert_eq!(got.scenarios_checked, want.scenarios_checked, "{label}: scenario counts differ");
    // (steps/encoded_nodes may legitimately differ: the incremental sweep
    // encodes the union of the per-scenario slices at the largest bound.)
    if let (
        Verdict::Violated { scenario: got_s, trace: got_t },
        Verdict::Violated { scenario: want_s, trace: want_t },
    ) = (&got.verdict, &want.verdict)
    {
        assert_eq!(got_s, want_s, "{label}: first violating scenario differs");
        // Both witnesses must replay into a real forbidden reception on
        // the concrete simulator (traces themselves may differ — models
        // are not unique).
        for (t, s) in [(got_t, got_s), (want_t, want_s)] {
            let receptions = t.replay(net, s).expect("trace replays");
            assert!(!receptions.is_empty(), "{label}: witness replays to no reception");
        }
    }
}

fn dc(policy_groups: usize) -> Datacenter {
    Datacenter::build(DatacenterParams {
        racks: policy_groups * 2,
        hosts_per_rack: 2,
        policy_groups,
        redundant: true,
        with_failures: true,
    })
}

#[test]
fn datacenter_clean_matches_oracle() {
    let dc = dc(2);
    assert!(dc.net.all_scenarios().len() > 1, "sweep needs several failure scenarios");
    for inv in dc.isolation_invariants() {
        assert_same_verdict(&dc.net, dc.policy_hint(), &inv, "dc/clean/isolation");
    }
    for inv in dc.traversal_invariants() {
        assert_same_verdict(&dc.net, dc.policy_hint(), &inv, "dc/clean/traversal");
    }
}

#[test]
fn datacenter_rule_misconfig_matches_oracle() {
    let mut dc = dc(2);
    let mut rng = StdRng::seed_from_u64(7);
    let pairs = dc.inject_rule_misconfig(&mut rng, 1);
    // The affected pair is violated in the very first (no-failure)
    // scenario; every invariant must still agree with the oracle.
    let inv = dc.pair_isolation(pairs[0].0, pairs[0].1);
    assert_same_verdict(&dc.net, dc.policy_hint(), &inv, "dc/rules/hit");
    for inv in dc.isolation_invariants() {
        assert_same_verdict(&dc.net, dc.policy_hint(), &inv, "dc/rules/all");
    }
}

#[test]
fn datacenter_redundancy_misconfig_matches_oracle() {
    // Violation exists only under a *failure* scenario, so this exercises
    // the interesting path: scenario 1 UNSAT, a later scenario SAT — the
    // incremental engine must find it in the same scenario as the oracle.
    let mut dc = dc(2);
    let mut rng = StdRng::seed_from_u64(11);
    let pairs = dc.inject_redundancy_misconfig(&mut rng, 1);
    let inv = dc.pair_isolation(pairs[0].0, pairs[0].1);
    let verifier = Verifier::new(&dc.net, opts(dc.policy_hint())).unwrap();
    let report = verifier.verify(&inv).unwrap();
    if let Verdict::Violated { scenario, .. } = &report.verdict {
        assert!(scenario.fault_count() > 0, "redundancy bug needs a failure to show");
    } else {
        panic!("redundancy misconfiguration must be detected");
    }
    assert_same_verdict(&dc.net, dc.policy_hint(), &inv, "dc/redundancy/hit");
}

#[test]
fn enterprise_matches_oracle() {
    let e = Enterprise::build(EnterpriseParams { subnets: 3, hosts_per_subnet: 2 });
    for kind in [SubnetKind::Public, SubnetKind::Private, SubnetKind::Quarantined] {
        assert_same_verdict(&e.net, e.policy_hint(), &e.invariant_for(kind), "enterprise");
    }
}

#[test]
fn multi_tenant_matches_oracle() {
    let m = MultiTenant::build(MultiTenantParams { tenants: 2, vms_per_group: 2 });
    for inv in [m.priv_priv(0, 1), m.pub_priv(0, 1), m.priv_pub(0, 1)] {
        assert_same_verdict(&m.net, m.policy_hint(), &inv, "multi-tenant");
    }
}

#[test]
fn verify_all_matches_oracle_reports() {
    // Whole-set verification (symmetry machinery on top of the sweep).
    let dc = dc(2);
    let invs = dc.isolation_invariants();
    let v = Verifier::new(&dc.net, opts(dc.policy_hint())).unwrap();
    let got = v.verify_all(&invs, 1).unwrap();
    assert_eq!(got.len(), invs.len());
    for (g, inv) in got.iter().zip(&invs) {
        assert_eq!(g.verdict.holds(), v.verify_from_scratch(inv).unwrap().verdict.holds(), "{inv}");
    }
}

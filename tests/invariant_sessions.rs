//! Differential tests for clustered solver sessions:
//! `Verifier::verify_all` with one session per scenario cluster
//! (`Sessions::Clustered`, the default) must return verdicts *identical*
//! to fresh solver stacks per
//! scenario (`Sessions::PerScenario`) — same holds/violated answer per
//! invariant, same first violating scenario, same scenario counts, same
//! symmetry inheritance — and every violation witness must replay into a
//! real forbidden reception on the concrete simulator.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmn::{Invariant, Network, Sessions, Verdict, Verifier, VerifyOptions};
use vmn_net::NodeId;
use vmn_scenarios::datacenter::{Datacenter, DatacenterParams};
use vmn_scenarios::enterprise::{Enterprise, EnterpriseParams, SubnetKind};

fn opts(hint: Vec<Vec<NodeId>>, sessions: Sessions) -> VerifyOptions {
    VerifyOptions { policy_hint: Some(hint), sessions, ..Default::default() }
}

/// Runs `verify_all` with and without clustered sessions and asserts the
/// reports agree on everything observable; violated invariants must
/// replay on the simulator under both engines.
fn assert_fleet_matches(net: &Network, hint: Vec<Vec<NodeId>>, invs: &[Invariant], label: &str) {
    let clustered =
        Verifier::new(net, opts(hint.clone(), Sessions::Clustered)).expect("valid network");
    let fresh = Verifier::new(net, opts(hint, Sessions::PerScenario)).expect("valid network");
    let got = clustered.verify_all(invs, 1).expect("session verify_all succeeds");
    let want = fresh.verify_all(invs, 1).expect("fresh verify_all succeeds");
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        let inv = &g.invariant;
        assert_eq!(g.verdict.holds(), w.verdict.holds(), "{label}: verdicts differ for {inv}");
        assert_eq!(g.inherited, w.inherited, "{label}: inheritance differs for {inv}");
        assert_eq!(
            g.scenarios_checked, w.scenarios_checked,
            "{label}: scenario counts differ for {inv}"
        );
        if let (
            Verdict::Violated { scenario: gs, trace: gt },
            Verdict::Violated { scenario: ws, trace: wt },
        ) = (&g.verdict, &w.verdict)
        {
            assert_eq!(gs, ws, "{label}: first violating scenario differs for {inv}");
            for (t, s) in [(gt, gs), (wt, ws)] {
                let receptions = t.replay(net, s).expect("trace replays");
                assert!(!receptions.is_empty(), "{label}: witness replays to no reception");
            }
        }
    }
}

fn dc() -> Datacenter {
    Datacenter::build(DatacenterParams {
        racks: 4,
        hosts_per_rack: 2,
        policy_groups: 2,
        redundant: true,
        with_failures: true,
    })
}

/// A per-direction isolation + traversal fleet over the two policy
/// groups — the invariants whose direction pairs plan alike.
fn dc_fleet(dc: &Datacenter) -> Vec<Invariant> {
    let hint = dc.policy_hint();
    let (a, b) = (hint[0][0], hint[1][0]);
    let mut invs = vec![
        Invariant::NodeIsolation { src: a, dst: b },
        Invariant::NodeIsolation { src: b, dst: a },
        Invariant::FlowIsolation { src: a, dst: b },
        Invariant::FlowIsolation { src: b, dst: a },
    ];
    invs.extend(dc.traversal_invariants());
    invs
}

#[test]
fn datacenter_clean_fleet_matches_fresh_stacks() {
    let dc = dc();
    assert!(dc.net.all_scenarios().len() > 1, "sweep needs several failure scenarios");
    assert_fleet_matches(&dc.net, dc.policy_hint(), &dc_fleet(&dc), "dc/clean");
}

#[test]
fn datacenter_misconfigured_fleet_matches_fresh_stacks() {
    // A rule misconfiguration makes one cross-group pair reachable: the
    // violated invariant sits in the middle of the fleet, between sweeps
    // that refute their scenarios — verdicts and witnesses must still
    // match the oracle.
    let mut dc = dc();
    let mut rng = StdRng::seed_from_u64(7);
    let pairs = dc.inject_rule_misconfig(&mut rng, 1);
    let mut invs = dc_fleet(&dc);
    invs.insert(2, dc.pair_isolation(pairs[0].0, pairs[0].1));
    assert_fleet_matches(&dc.net, dc.policy_hint(), &invs, "dc/misconfig");
}

#[test]
fn enterprise_families_match_fresh_stacks() {
    let e = Enterprise::build(EnterpriseParams { subnets: 3, hosts_per_subnet: 2 });
    let mut invs = Vec::new();
    for (kind, inv) in e.invariants() {
        let host = e.subnet_of_kind(kind).expect("subnet exists")[0];
        invs.push(inv);
        invs.push(Invariant::NodeIsolation { src: host, dst: e.internet });
        if kind == SubnetKind::Private {
            invs.push(Invariant::FlowIsolation { src: host, dst: e.internet });
        }
    }
    assert_fleet_matches(&e.net, e.policy_hint(), &invs, "enterprise");
}

#[test]
fn threaded_session_pool_matches_single_thread() {
    // Workers share one verifier (its header classes and dataplane) and
    // build sessions of their own; the reports must be indistinguishable
    // from the single-threaded run (and from the fresh-stack oracle, by
    // transitivity with the tests above).
    let dc = dc();
    let invs = dc_fleet(&dc);
    let v = Verifier::new(&dc.net, opts(dc.policy_hint(), Sessions::Clustered)).unwrap();
    let single = v.verify_all(&invs, 1).unwrap();
    let threaded = v.verify_all(&invs, 4).unwrap();
    assert_eq!(single.len(), threaded.len());
    for (s, t) in single.iter().zip(&threaded) {
        assert_eq!(s.verdict.holds(), t.verdict.holds(), "{}", s.invariant);
        assert_eq!(s.inherited, t.inherited);
        assert_eq!(s.scenarios_checked, t.scenarios_checked);
    }
}

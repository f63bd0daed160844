//! Differential tests for cross-invariant solver sessions:
//! `Verifier::verify_all` with the session pool (`Sessions::Pooled`, the
//! default) must return verdicts *identical* to fresh solver stacks per
//! scenario (`Sessions::PerScenario`) — same holds/violated answer per
//! invariant, same first violating scenario, same scenario counts, same
//! symmetry inheritance — and every violation witness must replay into a
//! real forbidden reception on the concrete simulator.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use vmn::{Invariant, Network, Sessions, Verdict, Verifier, VerifyOptions};
use vmn_net::NodeId;
use vmn_scenarios::datacenter::{Datacenter, DatacenterParams};
use vmn_scenarios::enterprise::{Enterprise, EnterpriseParams, SubnetKind};

fn opts(hint: Vec<Vec<NodeId>>, sessions: Sessions) -> VerifyOptions {
    VerifyOptions { policy_hint: Some(hint), sessions, ..Default::default() }
}

/// Runs `verify_all` with and without session reuse and asserts the
/// reports agree on everything observable; violated invariants must
/// replay on the simulator under both engines.
fn assert_fleet_matches(net: &Network, hint: Vec<Vec<NodeId>>, invs: &[Invariant], label: &str) {
    let pooled = Verifier::new(net, opts(hint.clone(), Sessions::Pooled)).expect("valid network");
    let fresh = Verifier::new(net, opts(hint, Sessions::PerScenario)).expect("valid network");
    let got = pooled.verify_all(invs, 1).expect("session verify_all succeeds");
    let want = fresh.verify_all(invs, 1).expect("fresh verify_all succeeds");
    assert!(pooled.pooled_sessions() > 0, "{label}: the pool must have been exercised");
    assert_eq!(fresh.pooled_sessions(), 0, "{label}: the oracle must not pool");
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
/// groups — the invariants whose direction pairs share a session key.
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
    // violated invariant sits in the middle of the fleet, so the session
    // serving its key sees an UNSAT neighbour before and after a SAT
    // extraction — verdicts and witnesses must still match the oracle.
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

/// The pool's bound on a battery with more session keys than idle slots:
/// the smoke-sized §5.1 datacenter of the benchmark's `dc-fleet`, with
/// one injected rule misconfiguration, checked with default options.
#[test]
fn datacenter_fleet_keeps_the_pool_bounded() {
    let mut dc = Datacenter::build(DatacenterParams {
        racks: 8,
        hosts_per_rack: 2,
        policy_groups: 4,
        redundant: true,
        with_failures: true,
    });
    let mut rng = StdRng::seed_from_u64(7);
    let (a, b) = dc.inject_rule_misconfig(&mut rng, 1)[0];
    let mut invs = dc.isolation_invariants();
    invs.push(dc.pair_isolation(a, b));
    invs.extend(dc.traversal_invariants());

    let pooled = Verifier::new(&dc.net, VerifyOptions::default()).unwrap();
    let fresh = Verifier::new(
        &dc.net,
        VerifyOptions { sessions: Sessions::PerScenario, ..Default::default() },
    )
    .unwrap();
    let got = pooled.verify_all(&invs, 1).unwrap();
    let want = fresh.verify_all(&invs, 1).unwrap();
    let first = |r: &vmn::Report| match &r.verdict {
        Verdict::Holds => None,
        Verdict::Violated { scenario, .. } => Some(scenario.clone()),
    };
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(first(g), first(w), "{}: verdict or first violating scenario", g.invariant);
    }
    assert!(got.iter().any(|r| !r.verdict.holds()), "the misconfiguration must show");

    // Every sweep here forms one cluster, whose key is the union of its
    // scenarios' plans at their largest bound.
    let keys: HashSet<(Vec<NodeId>, usize)> = got
        .iter()
        .filter(|r| !r.inherited)
        .map(|r| {
            let (mut nodes, mut k) = (Vec::new(), 0);
            for s in dc.net.all_scenarios() {
                let plan = pooled.plan(&r.invariant, &s).unwrap();
                nodes.extend_from_slice(plan.nodes());
                k = k.max(plan.bound());
            }
            nodes.sort();
            nodes.dedup();
            (nodes, k)
        })
        .collect();
    assert!(keys.len() > 4, "the battery must outnumber the idle slots: {keys:?}");
    let idle = pooled.pooled_sessions();
    assert!(idle <= 2, "{idle} idle sessions for {} keys", keys.len());
}

#[test]
fn threaded_session_pool_matches_single_thread() {
    // Workers check sessions out of one shared pool; the reports must be
    // indistinguishable from the single-threaded run (and from the
    // fresh-stack oracle, by transitivity with the tests above).
    let dc = dc();
    let invs = dc_fleet(&dc);
    let pooled = Verifier::new(&dc.net, opts(dc.policy_hint(), Sessions::Pooled)).unwrap();
    let single = pooled.verify_all(&invs, 1).unwrap();
    let threaded = pooled.verify_all(&invs, 4).unwrap();
    assert_eq!(single.len(), threaded.len());
    for (s, t) in single.iter().zip(&threaded) {
        assert_eq!(s.verdict.holds(), t.verdict.holds(), "{}", s.invariant);
        assert_eq!(s.inherited, t.inherited);
        assert_eq!(s.scenarios_checked, t.scenarios_checked);
    }
}

//! Differential tests for `Verifier::verify_all`: every report it
//! returns, symmetry-inherited ones included, must agree with
//! `Verifier::verify_from_scratch` of the report's *own* invariant (fresh
//! encoder and solver per scenario, no routing, no clustering, no
//! symmetry) — same holds/violated answer, same first violating scenario,
//! same scenario count — and every violation witness must replay into a
//! real reception on the concrete simulator. An inherited verdict is only
//! as good as the symmetry argument behind it, and this is where it is
//! checked against a direct one. Symmetry shares proofs, not witnesses:
//! an inherited report is a `Holds` or the verdict of an earlier report of
//! the same invariant, so every witness is its own invariant's.

#[path = "support/forbidden.rs"]
mod forbidden;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vmn::policy::group_by_symmetry;
use vmn::{Invariant, Network, Verdict, Verifier, VerifyOptions};
use vmn_scenarios::datacenter::{Datacenter, DatacenterParams};
use vmn_scenarios::enterprise::{Enterprise, EnterpriseParams, SubnetKind};
use vmn_scenarios::estate::{Estate, EstateParams};

/// Whether the witness of `verdict`, replayed, shows the reception `inv`
/// forbids.
fn witnesses(net: &Network, inv: &Invariant, verdict: &Verdict) -> bool {
    let Verdict::Violated { trace, scenario } = verdict else { return false };
    let receptions = trace.replay(net, scenario).expect("trace replays");
    receptions.iter().any(|o| forbidden::forbidden(net, inv, o))
}

/// Runs `verify_all` and holds each report to the from-scratch oracle of
/// its own invariant; violated invariants must replay on the simulator,
/// the oracle's witness into the invariant's own forbidden reception.
/// Returns the reports.
fn assert_fleet_matches(net: &Network, invs: &[Invariant], label: &str) -> Vec<vmn::Report> {
    let v = Verifier::new(net, VerifyOptions::default()).expect("valid network");
    let got = v.verify_all(invs, 1).expect("verify_all succeeds");
    assert_eq!(got.len(), invs.len());
    for (k, (g, inv)) in got.iter().zip(invs).enumerate() {
        assert_eq!(&g.invariant, inv, "{label}: reports come back in input order");
        if g.inherited && !g.verdict.holds() {
            assert!(
                got[..k].iter().any(|r| !r.inherited && r.invariant == *inv),
                "{label}: {inv} inherits a violation from another invariant"
            );
        }
        let w = v.verify_from_scratch(inv).expect("the oracle verifies");
        let how = if g.inherited { "inherited" } else { "direct" };
        assert_eq!(
            g.verdict.holds(),
            w.verdict.holds(),
            "{label}: {how} verdict differs for {inv}"
        );
        assert_eq!(
            g.scenarios_checked, w.scenarios_checked,
            "{label}: {how} scenario count differs for {inv}"
        );
        if let (
            Verdict::Violated { scenario: gs, trace: gt },
            Verdict::Violated { scenario: ws, .. },
        ) = (&g.verdict, &w.verdict)
        {
            assert_eq!(gs, ws, "{label}: {how} first violating scenario differs for {inv}");
            let receptions = gt.replay(net, gs).expect("trace replays");
            assert!(!receptions.is_empty(), "{label}: witness replays to no reception");
            assert!(witnesses(net, inv, &w.verdict), "{label}: the oracle's witness of {inv}");
            assert!(witnesses(net, inv, &g.verdict), "{label}: the {how} witness of {inv}");
        }
    }
    assert!(got.iter().any(|r| r.inherited), "{label}: some verdict is inherited");
    got
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
/// groups — the invariants whose direction pairs plan alike — plus the
/// same pairs between the groups' second hosts, which inherit their
/// verdicts by symmetry.
fn dc_fleet(dc: &Datacenter) -> Vec<Invariant> {
    let g = &dc.groups;
    let (a, b) = (g[0][0], g[1][0]);
    let (a2, b2) = (g[0][1], g[1][1]);
    let mut invs = vec![
        Invariant::NodeIsolation { src: a, dst: b },
        Invariant::NodeIsolation { src: b, dst: a },
        Invariant::FlowIsolation { src: a, dst: b },
        Invariant::FlowIsolation { src: b, dst: a },
        Invariant::NodeIsolation { src: a2, dst: b2 },
        Invariant::FlowIsolation { src: b2, dst: a2 },
    ];
    invs.extend(dc.traversal_invariants());
    invs
}

#[test]
fn datacenter_clean_fleet_matches_fresh_stacks() {
    let dc = dc();
    assert!(dc.net.all_scenarios().len() > 1, "sweep needs several failure scenarios");
    assert_fleet_matches(&dc.net, &dc_fleet(&dc), "dc/clean");
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
    let (src, dst) = (dc.groups[pairs[0].0][1], dc.groups[pairs[0].1][1]);
    invs.push(Invariant::NodeIsolation { src, dst });
    assert_fleet_matches(&dc.net, &invs, "dc/misconfig");
}

#[test]
fn enterprise_families_match_fresh_stacks() {
    let e = Enterprise::build(EnterpriseParams { subnets: 3, hosts_per_subnet: 2 });
    let mut invs = Vec::new();
    for (kind, inv) in e.invariants() {
        let subnet = e.subnet_of_kind(kind).expect("subnet exists");
        let host = subnet[0];
        invs.push(inv);
        invs.push(Invariant::NodeIsolation { src: host, dst: e.internet });
        invs.push(Invariant::NodeIsolation { src: subnet[1], dst: e.internet });
        if kind == SubnetKind::Private {
            invs.push(Invariant::FlowIsolation { src: host, dst: e.internet });
        }
    }
    assert_fleet_matches(&e.net, &invs, "enterprise");
}

#[test]
fn threaded_session_pool_matches_single_thread() {
    // Workers share one verifier (its header classes and dataplane) and
    // build sessions of their own; the reports must be indistinguishable
    // from the single-threaded run (and from the from-scratch oracle, by
    // transitivity with the tests above).
    let dc = dc();
    let invs = dc_fleet(&dc);
    let v = Verifier::new(&dc.net, VerifyOptions::default()).unwrap();
    let single = v.verify_all(&invs, 1).unwrap();
    let threaded = v.verify_all(&invs, 4).unwrap();
    assert_eq!(single.len(), threaded.len());
    for (s, t) in single.iter().zip(&threaded) {
        assert_eq!(s.verdict.holds(), t.verdict.holds(), "{}", s.invariant);
        assert_eq!(s.inherited, t.inherited);
        assert_eq!(s.scenarios_checked, t.scenarios_checked);
    }
}

#[test]
fn campus_inherited_verdicts_match_direct_checks() {
    // A small campus: the site firewalls are stateless ACLs, so every
    // representative is answered on the BDD and its `Holds` inherited by
    // the symmetric members, while the oracle decides each member on SMT.
    // Opening site 0 to site 1 makes one family of pairs violated; their
    // members are verified on their own, so only an exact duplicate
    // inherits a violation.
    let mut e = Estate::build(EstateParams {
        sites: 3,
        subnets_per_site: 2,
        hosts_per_subnet: 2,
        ..EstateParams::campus()
    });
    e.inject_cross_site_allow(1, 0);
    let h = &e.hosts;
    let mut invs: Vec<Invariant> = (0..2)
        .flat_map(|k| {
            [
                Invariant::NodeIsolation { src: h[1][0][k], dst: h[0][0][0] },
                Invariant::NodeIsolation { src: h[1][1][k], dst: h[0][1][1] },
                Invariant::NodeIsolation { src: h[2][0][k], dst: h[0][0][0] },
                Invariant::FlowIsolation { src: h[2][1][k], dst: h[1][1][0] },
            ]
        })
        .collect();
    invs.extend(e.cross_site_isolation(4));
    invs.extend(e.local_reachability(2));
    let reports = assert_fleet_matches(&e.net, &invs, "campus");
    let inherited =
        |holds: bool| reports.iter().filter(|r| r.inherited && r.verdict.holds() == holds).count();
    assert!(inherited(true) > 0, "some holding verdict is inherited");
    // The fleet's first pair comes again as `cross_site_isolation`'s
    // first: an exact duplicate is the one member a violation passes to
    // (`assert_fleet_matches` checks that it is one).
    assert_eq!(inherited(false), 1, "no violation is inherited but a duplicate's");
    // And a violated group has members that are not duplicates, each of
    // them verified on its own.
    let v = Verifier::new(&e.net, VerifyOptions::default()).unwrap();
    let groups = group_by_symmetry(&e.net, v.policy(), &invs);
    assert!(
        groups.iter().any(|g| {
            !reports[g[0]].verdict.holds() && g.iter().any(|&i| invs[i] != invs[g[0]])
        }),
        "some violated group has a member of its own"
    );
    assert!(
        reports.iter().all(|r| r.bdd_scenarios == r.scenarios_checked),
        "every scenario is answered on the BDD"
    );
}

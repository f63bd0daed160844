//! End-to-end certificate tests: with `VerifyOptions::emit_proofs` every
//! report carries a [`vmn::check::CertificateBundle`] that the trusted
//! checker accepts, whose SAT/UNSAT check counts agree with the verdict,
//! and that round-trips through the on-disk text format. Tampering with
//! any part of a stored bundle must be detected.

use vmn::check::{check_bundle, parse_bundles, write_bundles, Outcome, ProofStep};
use vmn::{Invariant, Network, Sessions, Verdict, Verifier, VerifyOptions};
use vmn_mbox::models;
use vmn_net::{FailureScenario, Prefix, RoutingConfig, Rule, Topology};

/// The quickstart network (outside --- sw --- inside through a stateful
/// firewall), with one middlebox-failure scenario so sweeps have more
/// than one scenario to certify.
fn firewalled_network() -> (Network, vmn_net::NodeId, vmn_net::NodeId) {
    let mut topo = Topology::new();
    let outside = topo.add_host("outside", "8.8.8.8".parse().unwrap());
    let inside = topo.add_host("inside", "10.0.0.5".parse().unwrap());
    let sw = topo.add_switch("sw");
    let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
    for n in [outside, inside, fw] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    let all: Prefix = "0.0.0.0/0".parse().unwrap();
    tables.add_rule(sw, Rule::from_neighbor(all, outside, fw).with_priority(10));
    tables.add_rule(sw, Rule::from_neighbor(all, inside, fw).with_priority(10));
    let mut net = Network::new(topo, tables);
    net.set_model(
        fw,
        models::learning_firewall("stateful-firewall", vec![("10.0.0.0/8".parse().unwrap(), all)]),
    );
    (net, outside, inside)
}

/// Validates a report's certificate and asserts its check counts are
/// consistent with the verdict: a holding invariant certifies only UNSAT
/// checks, a violated one at least one SAT model.
fn validate_report(report: &vmn::Report, context: &str) {
    let bundle = report
        .certificate
        .as_ref()
        .unwrap_or_else(|| panic!("{context}: emit_proofs must attach a certificate"));
    let summary = check_bundle(bundle)
        .unwrap_or_else(|e| panic!("{context}: checker rejected the certificate: {e}"));
    assert!(summary.checks > 0, "{context}: certificate must cover at least one check");
    match &report.verdict {
        Verdict::Holds => {
            assert_eq!(summary.sat_checks, 0, "{context}: a holding verdict must have no models")
        }
        Verdict::Violated { .. } => assert!(
            summary.sat_checks >= 1,
            "{context}: a violation must certify a satisfying model"
        ),
    }
}

#[test]
fn certificates_cover_all_engine_configs() {
    let (net, outside, inside) = firewalled_network();
    let invariants = [
        Invariant::FlowIsolation { src: outside, dst: inside }, // holds
        Invariant::NodeIsolation { src: outside, dst: inside }, // violated
    ];
    for sessions in [Sessions::PerScenario, Sessions::Clustered] {
        let opts = VerifyOptions { emit_proofs: true, sessions, ..VerifyOptions::default() };
        let v = Verifier::new(&net, opts).unwrap();
        for inv in &invariants {
            let report = v.verify(inv).unwrap();
            validate_report(&report, &format!("{sessions:?} {inv}"));
        }
    }
}

#[test]
fn proofs_off_by_default() {
    let (net, outside, inside) = firewalled_network();
    let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
    let report = v.verify(&Invariant::FlowIsolation { src: outside, dst: inside }).unwrap();
    assert!(report.certificate.is_none(), "no certificate unless emit_proofs is set");
}

#[test]
fn equal_plans_get_a_session_per_sweep() {
    // Two invariants whose sweeps plan alike: each sweep builds a solver
    // session of its own, and each certificate holds that session's log
    // with exactly its own report's check records.
    let (net, outside, inside) = firewalled_network();
    let opts = VerifyOptions { emit_proofs: true, ..VerifyOptions::default() };
    let v = Verifier::new(&net, opts).unwrap();
    // The two directions of one pair: the first holds, the second is
    // violated, and — the premise of the test — both plan to the same
    // node set and trace bound in every scenario.
    let inbound = Invariant::FlowIsolation { src: outside, dst: inside };
    let outbound = Invariant::FlowIsolation { src: inside, dst: outside };
    for s in net.all_scenarios() {
        let (p1, p2) = (v.plan(&inbound, &s).unwrap(), v.plan(&outbound, &s).unwrap());
        assert_eq!((p1.nodes(), p1.bound()), (p2.nodes(), p2.bound()), "{s:?}");
    }
    let r1 = v.verify(&inbound).unwrap();
    let r2 = v.verify(&outbound).unwrap();
    assert!(r1.verdict.holds() && !r2.verdict.holds());
    for (r, label) in [(&r1, "inbound"), (&r2, "outbound")] {
        validate_report(r, label);
        let bundle = r.certificate.as_ref().unwrap();
        assert_eq!(bundle.sessions.len(), 1, "{label}: the nested slices form one cluster");
        assert!(r.smt_scenarios > 0, "{label}: the sweep ran on the solver");
        assert_eq!(
            bundle.sessions[0].checks.len(),
            r.smt_scenarios,
            "{label}: one check record per SMT-routed scenario of this sweep, none of the other's"
        );
    }
}

#[test]
fn inherited_reports_carry_no_certificate() {
    let (net, outside, inside) = firewalled_network();
    let opts = VerifyOptions { emit_proofs: true, ..VerifyOptions::default() };
    let v = Verifier::new(&net, opts).unwrap();
    let inv = Invariant::FlowIsolation { src: outside, dst: inside };
    let reports = v.verify_all(&[inv.clone(), inv], 1).unwrap();
    assert!(reports[0].certificate.is_some(), "the representative certifies its run");
    assert!(reports[1].inherited);
    assert!(reports[1].certificate.is_none(), "inherited verdicts have no run to certify");
}

#[test]
fn stored_bundles_roundtrip_and_tampering_is_detected() {
    let (net, outside, inside) = firewalled_network();
    let opts = VerifyOptions { emit_proofs: true, ..VerifyOptions::default() };
    let v = Verifier::new(&net, opts).unwrap();
    let hold = v.verify(&Invariant::FlowIsolation { src: outside, dst: inside }).unwrap();
    let broken = v.verify(&Invariant::NodeIsolation { src: outside, dst: inside }).unwrap();
    let bundles = vec![hold.certificate.unwrap(), broken.certificate.unwrap()];

    // Round-trip through the on-disk format (what `vmn-cli check` reads).
    let text = write_bundles(&bundles);
    let parsed = parse_bundles(&text).expect("engine-written bundles parse");
    assert_eq!(parsed.len(), 2);
    for (b, orig) in parsed.iter().zip(&bundles) {
        assert_eq!(b.label, orig.label);
        check_bundle(b).expect("round-tripped bundle still checks");
    }

    // Tamper 1: flip a literal inside a derived clause of the UNSAT
    // bundle. Either RUP fails on the mutated step or the final
    // assumption derivation breaks — the checker must reject.
    let mut tampered = parsed.clone();
    let mutated =
        tampered[0].sessions.iter_mut().flat_map(|s| s.steps.iter_mut()).find_map(|st| match st {
            ProofStep::Derived { lits, .. } if !lits.is_empty() => {
                lits[0] = -lits[0];
                Some(())
            }
            _ => None,
        });
    assert!(mutated.is_some(), "a holding sweep must contain derived clauses");
    assert!(
        tampered.iter().any(|b| check_bundle(b).is_err()),
        "flipping a derived literal must invalidate the bundle"
    );

    // Tamper 2: claim SAT where the engine proved UNSAT by grafting the
    // violation bundle's model onto the holding bundle's check record.
    let model = parsed[1]
        .sessions
        .iter()
        .flat_map(|s| s.checks.iter())
        .find_map(|c| match &c.outcome {
            Outcome::Sat { model } => Some(model.clone()),
            Outcome::Unsat => None,
        })
        .expect("the violated invariant certifies a model");
    let mut forged = parsed[0].clone();
    let check = forged
        .sessions
        .iter_mut()
        .flat_map(|s| s.checks.iter_mut())
        .next()
        .expect("holding bundle has checks");
    check.outcome = Outcome::Sat { model };
    assert!(check_bundle(&forged).is_err(), "a forged model must be rejected");

    // Tamper 3: corrupt the text itself (truncate mid-session).
    let cut = text.len() / 2;
    let truncated = &text[..cut];
    let r = parse_bundles(truncated);
    assert!(
        r.is_err() || r.is_ok_and(|bs| bs.iter().any(|b| check_bundle(b).is_err())),
        "a truncated bundle must not parse and check clean"
    );
}

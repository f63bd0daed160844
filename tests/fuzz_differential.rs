//! Randomized differential fuzzing of the whole incremental solving
//! stack: random topologies (hosts, stateful/stateless firewalls, load
//! balancers), random steering with failover priorities and random
//! failure scenarios — verified by two engines that
//! must agree on every observable:
//!
//! * the from-scratch oracle (`Verifier::verify_from_scratch`: fresh
//!   slice, encoder and solver per scenario, every scenario on SMT);
//! * the clustered incremental sweep, one session per scenario cluster
//!   (the default).
//!
//! Verdicts, scenario counts and first violating scenarios must match,
//! every violation witness must replay into a real forbidden reception on
//! the concrete simulator, and re-verifying on the clustered engine
//! (fresh sessions over the epoch's memoised tables) must be stable. The
//! clustered engine runs with `emit_proofs` on, and the independent
//! trusted checker (`vmn_check`) validates each of its reports'
//! certificates — UNSAT derivations for refuted scenarios, replayable
//! models for violations — so the proof log is fuzzed against the same
//! random workloads as the solver itself.
//!
//! On top of the certified engine, every case re-runs with proofs off
//! under `Backend::Auto`, where stateless slices are answered by the BDD
//! dataplane fast path instead of the solver: verdicts, scenario counts
//! and first violating scenarios must still match the SMT oracle, and
//! BDD-synthesized witnesses must replay on the concrete simulator
//! exactly like SMT ones. The same sweep also
//! runs the auto-partitioned modular engine (`PartitionMode::Auto`),
//! whose backend split additionally counts contract-answered scenarios
//! and must still agree on every observable. Finally, every case
//! runs a mixed-backend `verify_all` sweep with a duplicated invariant:
//! the inherited report must zero all cost fields (elapsed, solver
//! deltas, BDD deltas, certificate) while keeping the representative's
//! provenance counts. Every case's policy partition
//! (`PolicyClasses::compute`) is also compared with the reference
//! refinement in `support/policy_reference.rs`. Cases are generated
//! from the proptest harness's deterministic per-test seed, so failures
//! reproduce exactly; set `VMN_FUZZ_CASES` to bound the case count (CI
//! pins a small subset, the default is 200).

#[path = "support/normal_form.rs"]
mod normal_form;
#[path = "support/policy_reference.rs"]
mod policy_reference;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::HashMap;
use vmn::{Invariant, Network, PartitionMode, Verdict, Verifier, VerifyOptions};
use vmn_mbox::exec::KeyVal;
use vmn_mbox::models;
use vmn_net::{Address, FailureScenario, Header, NodeId, Prefix, RoutingConfig, Rule, Topology};
use vmn_sim::Simulator;

fn fuzz_cases() -> u32 {
    match std::env::var("VMN_FUZZ_CASES") {
        Ok(v) => v.parse().expect("VMN_FUZZ_CASES must be a number"),
        Err(_) => 200,
    }
}

fn px(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// One generated verification problem.
struct Case {
    net: Network,
    inv: Invariant,
    label: String,
}

/// Derives a random network + invariant from the fuzz RNG. The shape is
/// constrained to what the bounded encoding supports by construction
/// (hub topology, host-keyed steering with failover priorities, no
/// middlebox-to-middlebox chains), but everything else — counts, kinds,
/// ACLs, backends, steering, scenarios, invariant — is
/// drawn at random.
fn generate(rng: &mut TestRng) -> Case {
    let mut topo = Topology::new();
    let sw = topo.add_switch("sw");

    // 2..=3 host pairs: a_i = 10.(i+1).0.1, b_i = 10.(i+1).0.2.
    let pairs = 2 + rng.below(2) as usize;
    let mut hosts: Vec<NodeId> = Vec::new();
    for i in 0..pairs {
        let a = topo.add_host(format!("a{i}"), Address(0x0A00_0001 + ((i as u32 + 1) << 16)));
        let b = topo.add_host(format!("b{i}"), Address(0x0A00_0002 + ((i as u32 + 1) << 16)));
        topo.add_link(a, sw);
        topo.add_link(b, sw);
        hosts.extend([a, b]);
    }

    // 0..=2 middleboxes: learning firewall, stateless ACL firewall, or a
    // load balancer (VIP outside 10/8 so host steering never captures
    // VIP traffic and pipelines stay one middlebox deep).
    let vip = Address(0xC0A8_0001);
    let n_mbox = rng.below(3) as usize;
    let mut mboxes: Vec<NodeId> = Vec::new();
    let mut lb: Option<NodeId> = None;
    let mut kinds: Vec<&'static str> = Vec::new();
    let mut label = format!("pairs={pairs}");
    for m in 0..n_mbox {
        let kind = rng.below(3);
        let (node, name) = match kind {
            2 if lb.is_none() => {
                let node = topo.add_middlebox(format!("lb{m}"), "load-balancer", vec![vip]);
                lb = Some(node);
                (node, "lb")
            }
            _ => {
                let stateful = kind != 1;
                let name = if stateful { "fw" } else { "aclfw" };
                let node = topo.add_middlebox(
                    format!("{name}{m}"),
                    if stateful { "stateful-firewall" } else { "acl-firewall" },
                    vec![],
                );
                (node, name)
            }
        };
        topo.add_link(node, sw);
        mboxes.push(node);
        kinds.push(name);
        label.push_str(&format!(" {name}{m}"));
    }

    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    if let Some(lb) = lb {
        rc.destination(Prefix::host(vip), lb);
    }
    let mut tables = rc.build(&topo, &FailureScenario::none());

    // Random steering: traffic from a host to 10/8 goes through a random
    // subset of the (non-LB) middleboxes, primary-then-backup by
    // priority — exactly the shape whose re-converged slices diverge
    // across failure scenarios.
    for &h in &hosts {
        for (mi, &m) in mboxes.iter().enumerate() {
            if Some(m) == lb || rng.below(2) == 0 {
                continue;
            }
            let prio = 30 - 5 * mi as i32;
            tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), h, m).with_priority(prio));
        }
    }

    let mut net = Network::new(topo, tables);

    // Random models: ACLs drawn from the per-pair prefixes.
    let prefix_pool: Vec<Prefix> = (0..pairs as u32)
        .map(|i| Prefix::new(Address(0x0A00_0000 + ((i + 1) << 16)), 16))
        .chain([px("10.0.0.0/8"), px("0.0.0.0/0")])
        .collect();
    for (mi, &m) in mboxes.iter().enumerate() {
        if Some(m) == lb {
            // 1..=2 random backends.
            let mut backends: Vec<Address> = Vec::new();
            for _ in 0..=rng.below(2) {
                backends.push(net.host_address(hosts[rng.below(hosts.len() as u64) as usize]));
            }
            backends.dedup();
            net.set_model(m, models::load_balancer("load-balancer", vip, backends));
            continue;
        }
        let mut acl: Vec<(Prefix, Prefix)> = Vec::new();
        for _ in 0..rng.below(3) {
            let s = prefix_pool[rng.below(prefix_pool.len() as u64) as usize];
            let d = prefix_pool[rng.below(prefix_pool.len() as u64) as usize];
            acl.push((s, d));
        }
        if kinds[mi] == "fw" {
            net.set_model(m, models::learning_firewall("stateful-firewall", acl));
        } else {
            net.set_model(m, models::acl_firewall("acl-firewall", acl));
        }
    }

    // 1..=3 random failure scenarios over middleboxes (and, lacking any,
    // hosts — failed endpoints are legal and exercise fail-stop).
    let n_scen = 1 + rng.below(3);
    for _ in 0..n_scen {
        let targets: &[NodeId] = if mboxes.is_empty() { &hosts } else { &mboxes };
        let mut failed: Vec<NodeId> = Vec::new();
        for _ in 0..=rng.below(2) {
            failed.push(targets[rng.below(targets.len() as u64) as usize]);
        }
        failed.sort();
        failed.dedup();
        net.add_scenario(FailureScenario::nodes(failed));
    }

    // Random invariant over distinct hosts. Data isolation (trace bound
    // ~8) is drawn less often to keep the 200-case debug run fast.
    let src = hosts[rng.below(hosts.len() as u64) as usize];
    let dst = loop {
        let d = hosts[rng.below(hosts.len() as u64) as usize];
        if d != src {
            break d;
        }
    };
    // Traversal candidates exclude the load balancer: its endpoints join
    // the slice, and walking the slice closure over the LB's own VIP is
    // a static forwarding loop — the documented §3.5 exception, not a
    // verification problem.
    let through_pool: Vec<NodeId> = mboxes.iter().copied().filter(|&m| Some(m) != lb).collect();
    let inv = match rng.below(8) {
        0..=2 => Invariant::NodeIsolation { src, dst },
        3 | 4 => Invariant::FlowIsolation { src, dst },
        5 => Invariant::DataIsolation { origin: src, dst },
        _ if !through_pool.is_empty() => Invariant::Traversal {
            dst,
            through: vec![through_pool[rng.below(through_pool.len() as u64) as usize]],
            from: Some(src),
        },
        _ => Invariant::NodeIsolation { src, dst },
    };

    // Every case runs on refined policy classes. This draw once chose a
    // hand-written grouping instead; it stays so that each seed still
    // derives the same network and invariant as before.
    rng.below(4);
    label.push_str(&format!(" scen={n_scen} inv={inv}"));
    Case { net, inv, label }
}

/// Replays a violation witness on the concrete simulator and asserts it
/// produces at least one real reception — and that the witness has the
/// encoder's normal form.
fn assert_witness_replays(case: &Case, verdict: &Verdict, engine: &str) {
    let (net, label) = (&case.net, &case.label);
    if let Verdict::Violated { trace, scenario } = verdict {
        normal_form::assert_normal_form(trace, &case.inv, &format!("{label}: {engine}"));
        let receptions = trace
            .replay(net, scenario)
            .unwrap_or_else(|e| panic!("{label}: {engine} witness fails to replay: {e}"));
        assert!(!receptions.is_empty(), "{label}: {engine} witness replays to no reception");
    }
}

/// Runs the trusted checker on a report's certificate: every UNSAT check
/// must be derivable by reverse unit propagation, every SAT check's model
/// must satisfy the live clause set, and the SAT/UNSAT split must agree
/// with the verdict.
fn assert_certificate_checks(report: &vmn::Report, label: &str, engine: &str) {
    let bundle = report
        .certificate
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: {engine} must attach a certificate"));
    let summary = vmn::check::check_bundle(bundle)
        .unwrap_or_else(|e| panic!("{label}: {engine} certificate rejected: {e}"));
    assert!(summary.checks > 0, "{label}: {engine} certificate covers no checks");
    match report.verdict {
        Verdict::Holds => assert_eq!(
            summary.sat_checks, 0,
            "{label}: {engine} certifies a model for a holding invariant"
        ),
        Verdict::Violated { .. } => assert!(
            summary.sat_checks >= 1,
            "{label}: {engine} violation carries no certified model"
        ),
    }
}

/// Dynamic confirmation of the static analysis on the generated
/// network: after concretely simulating cross traffic between every host
/// pair, a model the analysis calls stateless must have accumulated no
/// state, and a model derived flow-parallel must hold only flow-shaped
/// keys. No model declares its class and nothing else checks the
/// derivation, so this is the one guard on the class slicing trusts: a
/// box wrongly derived flow-parallel would get slices without policy
/// representatives.
fn assert_analysis_consistent(net: &Network, label: &str) {
    let models: HashMap<NodeId, &vmn_mbox::MboxModel> =
        net.models.iter().map(|(k, v)| (*k, v)).collect();
    let mut sim = Simulator::new(&net.topo, &net.tables, FailureScenario::none(), models);
    let hosts: Vec<NodeId> = net.topo.hosts().collect();
    for &a in &hosts {
        for &b in &hosts {
            if a == b {
                continue;
            }
            let h = Header::new(net.host_address(a), 1000, net.host_address(b), 80);
            // Drops and forwarding quirks are fine — only the state the
            // middleboxes accumulate matters here.
            let _ = sim.send_and_settle(a, h);
        }
    }
    for (&m, model) in &net.models {
        let a = vmn::analysis::analyze(model);
        let Some(state) = sim.mbox_state(m) else { continue };
        if a.statefulness.is_none() {
            assert!(
                state.is_empty(),
                "{label}: analysis-stateless model {:?} accumulated state",
                model.type_name
            );
        }
        if a.parallelism == vmn::analysis::Parallelism::FlowParallel {
            for (set, entries) in state.sets() {
                for (key, _) in entries {
                    assert!(
                        matches!(key, KeyVal::Flow(_)),
                        "{label}: flow-parallel model {:?} holds non-flow key {key:?} in {set:?}",
                        model.type_name
                    );
                }
            }
        }
    }
}

fn run_case(seed: u64) {
    let mut rng = TestRng::new(seed);
    let case = generate(&mut rng);
    let label = &case.label;
    assert_analysis_consistent(&case.net, label);
    policy_reference::assert_matches_reference(&case.net, label);

    let options = VerifyOptions { emit_proofs: true, ..Default::default() };
    let v = Verifier::new(&case.net, options).expect("valid network");
    let want = v.verify_from_scratch(&case.inv).expect("oracle verifies");
    assert_witness_replays(&case, &want.verdict, "oracle");

    let engine = "clustered";
    let got = v.verify(&case.inv).expect("incremental verify succeeds");
    assert_eq!(
        got.verdict.holds(),
        want.verdict.holds(),
        "{label}: {engine} verdict diverges from oracle"
    );
    assert_eq!(
        got.scenarios_checked, want.scenarios_checked,
        "{label}: {engine} scenario count diverges"
    );
    if let (Verdict::Violated { scenario: gs, .. }, Verdict::Violated { scenario: ws, .. }) =
        (&got.verdict, &want.verdict)
    {
        assert_eq!(gs, ws, "{label}: {engine} first violating scenario diverges");
    }
    assert_witness_replays(&case, &got.verdict, engine);
    assert_certificate_checks(&got, label, engine);

    // Second pass on the same verifier: fresh sessions over the header
    // classes and delivery intervals the first pass memoised. It must be
    // observably identical, and its certificate must validate.
    let again = v.verify(&case.inv).expect("re-verify succeeds");
    assert_eq!(
        again.verdict.holds(),
        got.verdict.holds(),
        "{label}: {engine} verdict unstable across sweeps"
    );
    assert_eq!(again.scenarios_checked, got.scenarios_checked, "{label}: {engine} re-sweep");
    assert_certificate_checks(&again, label, &format!("{engine} (second sweep)"));

    // Multi-backend routing (proofs off, `Backend::Auto`): scenarios
    // whose slices carry no mutable middlebox state are answered by the
    // BDD dataplane instead of the solver — generated ACL firewalls and
    // middlebox-free cases exercise it heavily. The router must agree
    // with the SMT oracle on every observable, and its witnesses must
    // replay concretely. No certificate assertions: the fast path emits
    // no proofs, which is exactly why `Auto` only uses it when proofs
    // are off.
    // `modular` adds the auto-partitioned modular engine to the sweep:
    // on hub topologies the partition is usually degenerate (one
    // module), so this pins the recovery property — modular mode must
    // reproduce the monolithic engine exactly when nothing cross-module
    // is discharged — while the multi-site battery in
    // `modular_vs_monolithic.rs` covers the contract fast path.
    for (engine, partition) in
        [("auto-routed", PartitionMode::Off), ("modular", PartitionMode::Auto)]
    {
        let options = VerifyOptions { partition, ..Default::default() };
        let v = Verifier::new(&case.net, options).expect("valid network");
        let got = v.verify(&case.inv).expect("routed verify succeeds");
        assert_eq!(
            got.verdict.holds(),
            want.verdict.holds(),
            "{label}: {engine} verdict diverges from oracle"
        );
        assert_eq!(
            got.scenarios_checked, want.scenarios_checked,
            "{label}: {engine} scenario count diverges"
        );
        assert_eq!(
            got.smt_scenarios + got.bdd_scenarios + got.contract_scenarios,
            got.scenarios_checked,
            "{label}: {engine} backend split must cover the sweep"
        );
        if let (Verdict::Violated { scenario: gs, .. }, Verdict::Violated { scenario: ws, .. }) =
            (&got.verdict, &want.verdict)
        {
            assert_eq!(gs, ws, "{label}: {engine} first violating scenario diverges");
        }
        assert_witness_replays(&case, &got.verdict, engine);
    }

    // Mixed-backend sweep hygiene: duplicating the invariant forces the
    // second report to be inherited from its symmetric representative,
    // and `Backend::Auto` routes the representative's scenarios across
    // both solver and BDD dataplane. Inherited reports must zero every
    // cost field — elapsed, solver deltas, BDD deltas, certificate — so
    // summing costs over a run counts each backend run exactly once,
    // while keeping the representative's provenance counts.
    let v = Verifier::new(&case.net, VerifyOptions::default()).expect("valid network");
    let reports =
        v.verify_all(&[case.inv.clone(), case.inv.clone()], 1).expect("verify_all succeeds");
    assert!(!reports[0].inherited, "{label}: the representative is verified directly");
    assert!(reports[1].inherited, "{label}: a duplicated invariant must inherit");
    let (rep, inh) = (&reports[0], &reports[1]);
    assert_eq!(
        inh.elapsed,
        std::time::Duration::ZERO,
        "{label}: inherited elapsed must not double-count"
    );
    let solver_work = inh.solver.decisions + inh.solver.propagations + inh.solver.conflicts;
    assert_eq!(solver_work, 0, "{label}: inherited solver stats must be zeroed");
    assert_eq!(
        inh.bdd,
        vmn_bdd::BddStats::default(),
        "{label}: inherited bdd stats must be zeroed"
    );
    assert!(inh.certificate.is_none(), "{label}: the representative carries the certificate");
    assert_eq!(inh.verdict.holds(), rep.verdict.holds(), "{label}: inherited verdict diverges");
    assert_eq!(inh.scenarios_checked, rep.scenarios_checked, "{label}: provenance is kept");
    assert_eq!(inh.smt_scenarios, rep.smt_scenarios, "{label}: smt provenance is kept");
    assert_eq!(inh.bdd_scenarios, rep.bdd_scenarios, "{label}: bdd provenance is kept");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Every engine, one verdict — on fully random networks.
    #[test]
    fn engines_agree_on_random_networks(seed in any::<u64>()) {
        run_case(seed);
    }
}

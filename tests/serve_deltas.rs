//! Randomized differential testing of the serving layer's delta path:
//! a [`vmn_serve::NetSession`] fed a random stream of delta batches —
//! model swaps, invariant registrations and retirements, failure
//! scenarios coming and going, steering and routing rules added and
//! removed, structural node/link additions — must at every step hold
//! exactly the state a from-scratch verifier derives from the same
//! symbolic spec:
//!
//! * every cached (invariant, scenario) verdict equals a fresh
//!   `Verifier::verify_under` on a fresh materialisation of the spec;
//! * every cached violation witness is for the pair's own scenario and
//!   replays into a real forbidden reception on the concrete simulator —
//!   including a witness the cache carried over from another pair of the
//!   same slice key, onto this pair's nodes and translated addresses;
//! * the aggregated per-invariant verdicts (`NetSession::verdicts`)
//!   report the first violating scenario in configured sweep order;
//! * the delta report's cache accounting is conserved: every pair is
//!   kept (`prefiltered`), contract-answered, a slice-key hit, or
//!   re-checked — nothing is dropped — and its materialise, swap and
//!   reconcile times fit inside its elapsed time;
//! * the session's network, whose topology and tables a model, scenario
//!   or intent delta shares with the epoch before it (re-tagging a box
//!   whose kind moved), equals the spec materialised from nothing: every
//!   node's name, kind and type tag and addresses, the links and each
//!   node's neighbour order, each switch's rules in order, the models,
//!   the scenarios and the name map;
//! * the session's verifier, carried from epoch to epoch, equals one
//!   built from nothing on the same network and options: policy classes,
//!   header classes and the interval lists memoised over them, modules,
//!   and the contract arrival maps of every live scenario (half the
//!   generated networks run under `partition auto`).
//!
//! This is the soundness argument for the daemon's verdict cache: the
//! kept / contract / slice-key ladder may skip arbitrary solver work,
//! but must never change an answer. Cases derive from a per-test seed, as
//! the proptest harness derives them; `VMN_FUZZ_CASES` bounds the case
//! count (CI runs 300 in release, the default is 60). The stream lists a
//! spare host ahead of the pairs and now and then removes it, which
//! renumbers every later node under the cached witnesses. Its firewalls
//! sometimes admit exactly one pair's own /16, so that two pairs become
//! the same check under an address translation; the run counts the
//! translated witnesses it served and fails if there were none. A
//! deterministic companion (`module_confined_deltas`) drives a
//! partitioned two-site estate and pins the modular ladder rung:
//! single-module deltas answer the other module's pairs from their
//! unchanged keys, while cross-module pairs are re-answered from
//! boundary contracts; `pods_load_checks_each_shape_once` pins
//! the cache hits and re-checks of a cold load of the `pods-deltas`
//! estate, `pods_deltas_answer_known_fingerprints_from_the_cache` the
//! key index's hits on its deltas,
//! `a_widened_pod_serves_its_witness_to_the_next` a witness carried
//! from one pod to another, and
//! `remove_node_renumbers_the_served_witness` a witness served across a
//! node removal.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::{BTreeSet, HashMap};
use vmn::slice::SliceKey;
use vmn::{PartitionMode, Verdict, Verifier, VerifyOptions};
use vmn_net::{FailureScenario, Prefix, TransferFunction};
use vmn_serve::{scenario_key, Delta, Materialized, NetSession, NodeSpec, RouteSpec, SteerSpec};

fn fuzz_cases() -> u32 {
    match std::env::var("VMN_FUZZ_CASES") {
        Ok(v) => v.parse().expect("VMN_FUZZ_CASES must be a number"),
        Err(_) => 60,
    }
}

/// The generated base network plus the mutation vocabulary the delta
/// stream draws from.
struct Gen {
    config: String,
    hosts: Vec<String>,
    fws: Vec<String>,
    /// Invariant specs the stream may register (superset of the ones
    /// registered at load).
    pool: Vec<String>,
    /// Steering and routing rules the stream may add or remove.
    steers: Vec<SteerSpec>,
    routes: Vec<RouteSpec>,
}

const PREFIXES: [&str; 5] =
    ["10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16", "10.0.0.0/8", "0.0.0.0/0"];

/// Random `allow`-list arguments for firewall `fw{f}`. One time in three
/// the list admits exactly pair `f`'s own /16 to itself, the `pods-deltas`
/// ACL: a pair steered through a firewall of its own then has the same
/// slice key as another such pair, up to the translation between their
/// /16s.
fn acl_args(rng: &mut TestRng, f: usize) -> Vec<String> {
    if rng.below(3) == 0 {
        let own = format!("10.{}.0.0/16", f + 1);
        return vec!["allow".into(), own.clone(), "->".into(), own];
    }
    let n = rng.below(3);
    if n == 0 {
        return Vec::new();
    }
    let mut args = vec!["allow".to_string()];
    for i in 0..n {
        if i > 0 {
            args.push(",".into());
        }
        args.push(PREFIXES[rng.below(PREFIXES.len() as u64) as usize].into());
        args.push("->".into());
        args.push(PREFIXES[rng.below(PREFIXES.len() as u64) as usize].into());
    }
    args
}

fn fw_kind(rng: &mut TestRng) -> &'static str {
    if rng.below(2) == 0 {
        "firewall"
    } else {
        "acl-firewall"
    }
}

/// Derives a random hub network in `.vmn` config text: host pairs on
/// per-pair /16s, one or two firewalls (stateful or ACL) with random
/// allow-lists, random host-keyed steering with failover priorities,
/// two registered invariants, possibly an initial failure scenario, and
/// in half the cases `partition auto`.
fn generate(rng: &mut TestRng) -> Gen {
    let pairs = 2 + rng.below(2) as usize;
    // A spare host ahead of the pairs: removing it shifts every later id.
    let mut config = String::from("host spare 10.8.0.1\n");
    let mut hosts = Vec::new();
    for i in 0..pairs {
        for (role, last) in [("a", 1), ("b", 2)] {
            let name = format!("{role}{i}");
            config.push_str(&format!("host {name} 10.{}.0.{last}\n", i + 1));
            hosts.push(name);
        }
    }
    config.push_str("switch sw\n");
    let nfw = 1 + rng.below(2) as usize;
    let mut fws = Vec::new();
    for f in 0..nfw {
        let name = format!("fw{f}");
        let args = acl_args(rng, f);
        config.push_str(&format!("{} {name} {}\n", fw_kind(rng), args.join(" ")));
        fws.push(name);
    }
    config.push_str("link spare sw\n");
    for n in hosts.iter().chain(&fws) {
        config.push_str(&format!("link {n} sw\n"));
    }
    config.push_str("autoroute\n");
    let gen_steers = steers(&hosts, &fws);
    for s in &gen_steers {
        if rng.below(2) == 0 {
            config.push_str(&format!(
                "steer {} from {} {} {} prio {}\n",
                s.switch, s.from, s.prefix, s.next, s.prio
            ));
        }
    }

    // The invariant vocabulary: isolation between every ordered host
    // pair, plus a data-isolation and a traversal probe on the first
    // pair (kept rare — they are the expensive encodings).
    let mut pool = Vec::new();
    for s in &hosts {
        for d in &hosts {
            if s != d {
                pool.push(format!("node-isolation {s} -> {d}"));
                pool.push(format!("flow-isolation {s} -> {d}"));
            }
        }
    }
    pool.push(format!("data-isolation {} -> {}", hosts[0], hosts[1]));
    pool.push(format!("traversal {} -> {} via {}", hosts[0], hosts[1], fws[0]));

    // Register two distinct invariants up front.
    let mut registered = BTreeSet::new();
    while registered.len() < 2 {
        registered.insert(pool[rng.below(pool.len() as u64) as usize].clone());
    }
    for spec in &registered {
        config.push_str(&format!("verify {spec}\n"));
    }
    if rng.below(2) == 0 {
        config.push_str(&format!("fail {}\n", fws[rng.below(fws.len() as u64) as usize]));
    }
    if rng.below(2) == 0 {
        config.push_str("partition auto\n");
    }
    let routes = routes(&hosts);
    Gen { config, hosts, fws, pool, steers: gen_steers, routes }
}

/// The steering vocabulary: each host's 10/8 traffic through each
/// firewall, the first firewall preferred.
fn steers(hosts: &[String], fws: &[String]) -> Vec<SteerSpec> {
    let mut out = Vec::new();
    for h in hosts {
        for (fi, f) in fws.iter().enumerate() {
            out.push(SteerSpec {
                switch: "sw".into(),
                from: h.clone(),
                prefix: "10.0.0.0/8".into(),
                next: f.clone(),
                prio: 30 - 5 * fi as i32,
            });
        }
    }
    out
}

/// The routing vocabulary: a pair's /16, or its `b` host's /32, sent to
/// some pair host. Routes point at hosts only, so no route can close a
/// forwarding loop through a firewall. At priority 20 a route loses to
/// steering and wins over the host routes.
fn routes(hosts: &[String]) -> Vec<RouteSpec> {
    let mut out = Vec::new();
    for pair in 0..hosts.len() / 2 {
        for prefix in [format!("10.{}.0.0/16", pair + 1), format!("10.{}.0.2/32", pair + 1)] {
            for h in hosts {
                let next = h.clone();
                out.push(RouteSpec { switch: "sw".into(), prefix: prefix.clone(), next, prio: 20 });
            }
        }
    }
    out
}

/// One random delta batch against the session's *current* spec. Always
/// applicable: toggles consult the live spec so adds never duplicate
/// and removals never miss.
fn next_batch(rng: &mut TestRng, gen: &Gen, session: &NetSession, step: usize) -> Vec<Delta> {
    let registered: Vec<String> = session.spec().verify_specs().map(str::to_string).collect();
    match rng.below(6) {
        // Reconfigure a firewall: new kind, new allow-list; now and then
        // a content cache instead, which is not flow-parallel, so the
        // slices through it read the swapped epoch's policy classes.
        0 => {
            let name = gen.fws[rng.below(gen.fws.len() as u64) as usize].clone();
            if rng.below(4) == 0 {
                let servers = PREFIXES[rng.below(PREFIXES.len() as u64) as usize];
                let args = vec!["servers".into(), servers.into()];
                return vec![Delta::SetModel { name, kind: "cache".into(), args }];
            }
            let f = gen.fws.iter().position(|n| *n == name).expect("a generated firewall");
            vec![Delta::SetModel { name, kind: fw_kind(rng).into(), args: acl_args(rng, f) }]
        }
        // Toggle a failure scenario (single box, or all boxes at once).
        1 => {
            let mut cands: Vec<Vec<String>> = gen.fws.iter().map(|f| vec![f.clone()]).collect();
            if gen.fws.len() > 1 {
                cands.push(gen.fws.clone());
            }
            let fail = cands[rng.below(cands.len() as u64) as usize].clone();
            let key = scenario_key(&fail);
            let present = session.spec().fail_specs().any(|f| scenario_key(f) == key);
            if present {
                vec![Delta::RemoveScenario { fail }]
            } else {
                vec![Delta::AddScenario { fail }]
            }
        }
        // Register an invariant not currently present.
        2 => {
            let fresh: Vec<&String> =
                gen.pool.iter().filter(|s| !registered.contains(*s)).collect();
            match fresh.is_empty() {
                true => vec![Delta::RetireInvariant { spec: registered[0].clone() }],
                false => vec![Delta::AddInvariant {
                    spec: fresh[rng.below(fresh.len() as u64) as usize].clone(),
                }],
            }
        }
        // Retire one (keeping at least one registered).
        3 => {
            if registered.len() > 1 {
                vec![Delta::RetireInvariant {
                    spec: registered[rng.below(registered.len() as u64) as usize].clone(),
                }]
            } else {
                let fresh: Vec<&String> =
                    gen.pool.iter().filter(|s| !registered.contains(*s)).collect();
                vec![Delta::AddInvariant {
                    spec: fresh[rng.below(fresh.len() as u64) as usize].clone(),
                }]
            }
        }
        // Toggle a steering or a routing rule.
        4 => {
            if rng.below(2) == 0 {
                let s = gen.steers[rng.below(gen.steers.len() as u64) as usize].clone();
                if session.spec().steer_specs().any(|x| *x == s) {
                    vec![Delta::RemoveSteer(s)]
                } else {
                    vec![Delta::AddSteer(s)]
                }
            } else {
                let r = gen.routes[rng.below(gen.routes.len() as u64) as usize].clone();
                if session.spec().route_specs().any(|x| *x == r) {
                    vec![Delta::RemoveRoute(r)]
                } else {
                    vec![Delta::AddRoute(r)]
                }
            }
        }
        // Structural churn: the spare host leaves, or a new (unsteered)
        // host joins the hub.
        _ => {
            if session.names().contains_key("spare") && rng.below(2) == 0 {
                return vec![Delta::RemoveNode("spare".into())];
            }
            let name = format!("hx{step}");
            vec![
                Delta::AddNode(NodeSpec::Host {
                    name: name.clone(),
                    addr: format!("10.9.0.{}", step + 1),
                }),
                Delta::AddLink { a: name, b: "sw".into() },
            ]
        }
    }
}

/// The session's verifier, carried across every swap since load, must
/// hold exactly the epoch a verifier built from nothing on the same
/// network and options holds.
fn assert_epoch_matches_fresh(session: &NetSession, label: &str) {
    let carried = session.verifier();
    let net = carried.network();
    let partition = if session.spec().partition { PartitionMode::Auto } else { PartitionMode::Off };
    let options = VerifyOptions { partition, ..VerifyOptions::default() };
    let fresh = Verifier::from_arc(net.clone(), options).expect("valid network");
    assert_eq!(carried.policy().classes, fresh.policy().classes, "{label}: policy classes");
    assert_eq!(carried.header_classes(), fresh.header_classes(), "{label}: header classes");
    // `==` compares the class splits only; the memoised interval lists
    // must match a fresh sweep too, or a list outlived its epoch.
    for (skey, scenario) in session.scenario_list() {
        let tf = TransferFunction::new(&net.topo, &net.tables, &scenario);
        for t in net.topo.terminals() {
            assert_eq!(
                tf.delivery_intervals(t, carried.header_classes()),
                tf.delivery_intervals(t, fresh.header_classes()),
                "{label}: delivery intervals of {} under {skey:?}",
                net.topo.node(t).name
            );
        }
    }
    match (carried.modular_context(), fresh.modular_context()) {
        (None, None) => {}
        (Some(c), Some(f)) => {
            assert_eq!(c.module_count(), f.module_count(), "{label}: module count");
            for (id, node) in net.topo.nodes() {
                assert_eq!(c.module_of(id), f.module_of(id), "{label}: module of {}", node.name);
            }
            for (skey, scenario) in session.scenario_list() {
                assert_eq!(
                    *c.cross_for(net, &scenario),
                    *f.cross_for(net, &scenario),
                    "{label}: contract arrivals under {skey:?}"
                );
            }
        }
        _ => panic!("{label}: only one of the two verifiers is modular"),
    }
}

/// The session's network, carried from epoch to epoch, must equal `m`,
/// the live spec materialised from nothing. Rules are compared, not the
/// lookup index the tables build lazily from them.
fn assert_structure_matches(session: &NetSession, m: &Materialized, label: &str) {
    let net = session.verifier().network();
    let (topo, want) = (&net.topo, &m.net.topo);
    assert_eq!(topo.num_nodes(), want.num_nodes(), "{label}: node count");
    for ((id, node), (_, w)) in topo.nodes().zip(want.nodes()) {
        assert_eq!(
            (&node.name, &node.kind, &node.addresses),
            (&w.name, &w.kind, &w.addresses),
            "{label}: node {id:?}"
        );
        assert_eq!(topo.neighbors(id), want.neighbors(id), "{label}: neighbours of {}", node.name);
        assert_eq!(net.tables.rules(id), m.net.tables.rules(id), "{label}: rules at {}", node.name);
    }
    assert_eq!(topo.links(), want.links(), "{label}: links");
    assert_eq!(net.tables.num_rules(), m.net.tables.num_rules(), "{label}: rule count");
    assert_eq!(net.models, m.net.models, "{label}: models");
    assert_eq!(net.scenarios, m.net.scenarios, "{label}: scenarios");
    assert_eq!(*session.names(), m.names, "{label}: name map");
}

/// The core oracle: the daemon's cached state must be indistinguishable
/// from a verifier built from scratch off the same symbolic spec.
fn assert_matches_scratch(session: &NetSession, label: &str) {
    assert_epoch_matches_fresh(session, label);
    let m = session.spec().materialize().expect("live spec rematerializes");
    assert_structure_matches(session, &m, label);
    let fresh = Verifier::new(&m.net, VerifyOptions::default()).expect("valid network");
    let scenarios = session.scenario_list();
    let verdicts = session.verdicts();
    assert_eq!(verdicts.len(), session.invariants().len(), "{label}: one verdict per invariant");

    for (spec, inv) in session.invariants() {
        let mut first_violation: Option<(String, usize)> = None;
        for (skey, scenario) in &scenarios {
            let entry = session
                .cached(spec, skey)
                .unwrap_or_else(|| panic!("{label}: no cache entry for {spec:?} / {skey:?}"));
            let want = fresh
                .verify_under(inv, vec![scenario.clone()])
                .expect("from-scratch verify succeeds");
            assert_eq!(
                entry.verdict().holds(),
                want.verdict.holds(),
                "{label}: cached verdict for {spec:?} under {skey:?} diverges from scratch"
            );
            if let Verdict::Violated { trace, scenario: vs } = entry.verdict() {
                assert_eq!(
                    vs, scenario,
                    "{label}: witness for {spec:?} / {skey:?} is for another scenario"
                );
                let receptions = trace.replay(&m.net, vs).unwrap_or_else(|e| {
                    panic!("{label}: witness for {spec:?} / {skey:?} fails to replay: {e}")
                });
                assert!(
                    !receptions.is_empty(),
                    "{label}: witness for {spec:?} / {skey:?} replays to no reception"
                );
                if first_violation.is_none() {
                    first_violation = Some((skey.clone(), trace.steps.len()));
                }
            }
        }
        let iv = verdicts
            .iter()
            .find(|iv| iv.spec == *spec)
            .unwrap_or_else(|| panic!("{label}: {spec:?} missing from verdicts"));
        assert_eq!(iv.holds, first_violation.is_none(), "{label}: {spec:?} aggregate diverges");
        assert_eq!(
            iv.violation, first_violation,
            "{label}: {spec:?} first violating scenario diverges"
        );
    }
}

/// Slice-key groups among the session's live pairs that hold a violation
/// and more than one address mask. The later pair of such a group was
/// answered from the earlier one's entry, so its witness was carried over
/// under a non-trivial translation (and `assert_matches_scratch` has
/// replayed it).
fn translated_witnesses(session: &NetSession) -> usize {
    let v = session.verifier();
    let mut groups: HashMap<SliceKey, (BTreeSet<u32>, bool)> = HashMap::new();
    for (spec, inv) in session.invariants() {
        for (skey, scenario) in session.scenario_list() {
            let entry = session.cached(spec, &skey).expect("every pair is cached");
            if entry.contract() {
                continue;
            }
            let (nodes, bound) = v.plan_for(inv, &scenario).expect("plans");
            let (key, at) =
                SliceKey::new(v.network(), v.header_classes(), inv, &scenario, &nodes, bound)
                    .expect("keys");
            let group = groups.entry(key).or_default();
            group.0.insert(at.mask);
            group.1 |= !entry.verdict().holds();
        }
    }
    groups.values().filter(|(masks, violated)| masks.len() > 1 && *violated).count()
}

/// Runs one random case and returns how many translated witnesses its
/// states held ([`translated_witnesses`], summed over the steps).
fn run_case(seed: u64) -> usize {
    let mut rng = TestRng::new(seed);
    let gen = generate(&mut rng);
    let label = format!("hosts={} fws={}", gen.hosts.len(), gen.fws.len());
    let (mut session, load_report) = NetSession::load(&gen.config, VerifyOptions::default())
        .unwrap_or_else(|e| panic!("{label}: generated config rejected: {e}\n{}", gen.config));
    let pairs = session.invariants().len() * session.scenario_list().len();
    assert_eq!(load_report.pairs, pairs, "{label}: load sweeps every pair");
    assert_eq!(session.cached_pairs(), pairs, "{label}: one cache entry per pair");
    assert_eq!(
        load_report.rechecked + load_report.cache_hits,
        pairs,
        "{label}: a cold cache solves every pair or shares an earlier pair's answer"
    );
    assert!(
        load_report.materialize + load_report.swap + load_report.reconcile <= load_report.elapsed,
        "{load_report:?}"
    );
    assert_matches_scratch(&session, &format!("{label} after load"));
    let mut translated = translated_witnesses(&session);

    for step in 0..4 {
        let batch = next_batch(&mut rng, &gen, &session, step);
        let report = session
            .apply(&batch)
            .unwrap_or_else(|e| panic!("{label} step {step}: delta rejected: {e}\n{batch:?}"));
        assert_eq!(
            report.prefiltered + report.contract_answered + report.cache_hits + report.rechecked,
            report.pairs,
            "{label} step {step}: cache accounting must conserve pairs: {report:?}"
        );
        assert!(
            report.materialize + report.swap + report.reconcile <= report.elapsed,
            "{label} step {step}: the rungs' time must fit in the elapsed time: {report:?}"
        );
        assert_eq!(
            report.pairs,
            session.invariants().len() * session.scenario_list().len(),
            "{label} step {step}: pair count tracks the live spec"
        );
        assert_eq!(session.cached_pairs(), report.pairs, "{label} step {step}: one entry per pair");
        assert_matches_scratch(&session, &format!("{label} step {step} ({batch:?})"));
        translated += translated_witnesses(&session);
    }
    translated
}

/// The delta-applied daemon and a from-scratch verifier must agree on
/// every observable, at every point of a random delta stream. Case `i`'s
/// seed is drawn as the proptest harness draws it; the run as a whole must
/// have served at least one witness carried across pairs under a
/// translation, or the random stream no longer reaches that path.
#[test]
fn delta_stream_matches_from_scratch() {
    let base = proptest::test_runner::fnv(concat!(
        module_path!(),
        "::",
        "delta_stream_matches_from_scratch"
    ));
    let mut translated = 0;
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::new(base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        translated += run_case(any::<u64>().generate(&mut rng));
    }
    assert!(translated > 0, "no witness was carried across pairs in {} cases", fuzz_cases());
}

/// A two-site estate under `partition auto`: deltas confined to one
/// site must re-check only that module's pairs — the other site's
/// intra-module pairs are slice-key hits, cross-module pairs are
/// re-answered by the boundary contracts without touching a solver. The
/// from-scratch oracle runs monolithically, so every step is also a
/// modular-vs-monolithic differential check.
#[test]
fn module_confined_deltas() {
    let config = "\
host a1 10.1.0.1
host a2 10.1.0.2
host b1 10.2.0.1
host b2 10.2.0.2
switch asw
switch bsw
switch core
acl-firewall afw allow 10.1.0.0/16 -> 0.0.0.0/0
acl-firewall bfw allow 10.2.0.0/16 -> 0.0.0.0/0
firewall sfw allow 10.2.0.0/16 -> 10.2.0.0/16
link a1 asw
link a2 asw
link b1 bsw
link b2 bsw
link sfw bsw
link asw afw
link afw core
link bsw bfw
link bfw core
autoroute
steer asw from a1 10.0.0.0/8 afw prio -10
steer asw from a2 10.0.0.0/8 afw prio -10
steer bsw from b1 10.0.0.0/8 bfw prio -10
steer bsw from b2 10.0.0.0/8 bfw prio -10
steer bsw from b2 10.2.0.0/16 sfw prio 10
steer core from afw 10.2.0.0/16 bfw
steer core from bfw 10.1.0.0/16 afw
partition auto
fail afw
verify node-isolation a1 -> b1
verify node-isolation b1 -> a1
verify node-isolation a2 -> a1
verify node-isolation b2 -> b1
";
    let (mut session, load) =
        NetSession::load(config, VerifyOptions::default()).expect("estate loads");
    assert!(load.modules >= 2, "partition auto must split the estate: {load:?}");
    assert_eq!(session.module_count(), load.modules);
    // Cross-site pairs (2 invariants x 2 scenarios) are discharged by
    // the boundary contracts already at load; the intra-site pairs hit
    // the exact engine.
    assert_eq!(load.contract_answered, 4, "{load:?}");
    assert_eq!(
        load.prefiltered + load.contract_answered + load.cache_hits + load.rechecked,
        load.pairs,
        "{load:?}"
    );
    assert_matches_scratch(&session, "after load");

    // A model rewrite confined to site A: one module touched, every
    // non-contract pair answered by its unchanged slice key, cross
    // pairs re-answered from the contracts, no solver run.
    let delta = Delta::SetModel {
        name: "afw".into(),
        kind: "acl-firewall".into(),
        args: ["allow", "10.1.0.0/24", "->", "0.0.0.0/0"].map(String::from).to_vec(),
    };
    let report = session.apply(std::slice::from_ref(&delta)).expect("delta applies");
    assert_eq!(report.modules_touched, Some(1), "{report:?}");
    assert_eq!(
        (report.prefiltered, report.contract_answered, report.cache_hits, report.rechecked),
        (0, 4, 4, 0),
        "{report:?}"
    );
    assert_matches_scratch(&session, "after site-A rewrite");

    // Opening site B's firewall to foreign sources flips both
    // cross-site verdicts: the contracts (soundly) stop concluding and
    // the pairs fall back to the exact engine, still matching scratch.
    let delta = Delta::SetModel {
        name: "bfw".into(),
        kind: "acl-firewall".into(),
        args: ["allow", "10.0.0.0/8", "->", "0.0.0.0/0"].map(String::from).to_vec(),
    };
    let report = session.apply(std::slice::from_ref(&delta)).expect("delta applies");
    assert_eq!(report.modules_touched, Some(1), "{report:?}");
    let flipped: Vec<&str> = report.changed.iter().map(|(inv, _, _, _)| inv.as_str()).collect();
    assert!(flipped.contains(&"node-isolation a1 -> b1"), "{report:?}");
    assert_matches_scratch(&session, "after opening bfw");

    // An invariant-only delta has an empty touch footprint: even the
    // contract-answered entries are kept instead of re-derived.
    let delta = Delta::AddInvariant { spec: "flow-isolation a2 -> b2".into() };
    let report = session.apply(std::slice::from_ref(&delta)).expect("delta applies");
    assert!(report.prefiltered >= 4, "untouched pairs stay cached: {report:?}");
    assert_matches_scratch(&session, "after invariant add");
}

/// The benchmark's `pods-deltas` estate: eight pods of two hosts behind a
/// learning firewall, one standing failure (`fw0`), and per pod flow
/// isolation `a -> b` inside the pod and across to the next.
fn pods_config() -> String {
    use std::fmt::Write;
    let pods = 8;
    let mut config = String::from("switch core\n");
    for p in 0..pods {
        let net = p + 1;
        let _ = writeln!(config, "host a{p} 10.{net}.0.1\nhost b{p} 10.{net}.0.2\nswitch sw{p}");
        let _ = writeln!(config, "firewall fw{p} {}", pod_acl(p, false).join(" "));
        let _ =
            writeln!(config, "link a{p} sw{p}\nlink b{p} sw{p}\nlink fw{p} sw{p}\nlink sw{p} core");
    }
    config.push_str("autoroute\n");
    for p in 0..pods {
        let _ = writeln!(config, "steer sw{p} from a{p} 10.0.0.0/8 fw{p} prio 10");
    }
    for p in 0..pods {
        let _ = writeln!(config, "verify flow-isolation a{p} -> b{p}");
        let _ = writeln!(config, "verify flow-isolation a{p} -> b{}", (p + 1) % pods);
    }
    config.push_str("fail fw0\n");
    config
}

/// Pod `pod`'s firewall ACL as the benchmark's model deltas write it: the
/// pod's own traffic, and when widened anything toward its `b` host.
fn pod_acl(pod: usize, widened: bool) -> Vec<String> {
    let net = pod + 1;
    let mut acl = format!("allow 10.{net}.0.0/16 -> 10.{net}.0.0/16");
    if widened {
        acl.push_str(&format!(" , 10.0.0.0/8 -> 10.{net}.0.2/32"));
    }
    acl.split_whitespace().map(String::from).collect()
}

/// Cache hits and re-checks of a cold `load` of the `pods-deltas` estate.
/// The daemon checks the 32 (invariant, scenario) pairs invariant by
/// invariant and answers every pair whose slice key an earlier pair of the
/// same load was decided under. Each slice is `{a_p, b_q, fw_p}` and the
/// key's mask is `a_p`'s address, so the pods' /16s translate onto each
/// other and the key keeps only `b_q`'s offset from `a_p`:
///
/// * under no failure, the 8 intra-pod pairs are one shape, and the 8
///   cross-pod pairs `a_p -> b_{p+1}` are 5: the XOR of `10.{p+1}` and
///   `10.{p+2}`'s second octets takes the values 3, 1, 7, 1, 3, 1, 15 and
///   9 (for `a7 -> b0`);
/// * under `fail fw0`, `fw0` sits only in `a0`'s two slices, so the other
///   14 pairs keep their no-failure keys, and `a0 -> b0` and `a0 -> b1`
///   with `fw0` failed are 2 more shapes.
///
/// That is 8 re-checks and 24 hits.
#[test]
fn pods_load_checks_each_shape_once() {
    let (_, load) = NetSession::load(&pods_config(), VerifyOptions::default()).expect("pods load");
    assert_eq!((load.pairs, load.cache_hits, load.rechecked), (32, 24, 8), "{load:?}");
}

/// The key index on the `pods-deltas` estate. Widening `fw3` re-checks
/// only the no-failure column of the pairs whose slice holds it (their
/// `fail fw0` column has the same key); restoring it re-checks nothing,
/// since each touched pair finds its answer as its entry's previous
/// generation. A new scenario failing `fw5` is answered from the
/// no-failure column wherever `fw5` is outside the slice. Of the two pairs
/// whose slice holds it, `a5 -> b5` without `fw5` is the same check as
/// `a0 -> b0` without `fw0`, translated; only `a5 -> b6` re-checks.
#[test]
fn pods_deltas_answer_known_fingerprints_from_the_cache() {
    let (mut session, _) =
        NetSession::load(&pods_config(), VerifyOptions::default()).expect("pods load");
    let holding = |session: &NetSession, node: &str| {
        let v = session.verifier();
        let id = session.names()[node];
        let in_slice = |inv| v.plan_for(inv, &FailureScenario::none()).unwrap().0.contains(&id);
        session.invariants().iter().filter(|(_, inv)| in_slice(inv)).count()
    };
    let set_fw3 = |widened| Delta::SetModel {
        name: "fw3".into(),
        kind: "firewall".into(),
        args: pod_acl(3, widened),
    };
    assert_eq!(holding(&session, "fw3"), 2, "a3 -> b3 and a3 -> b4");
    let widen = session.apply(&[set_fw3(true)]).expect("widen applies");
    assert_eq!(widen.rechecked, 2, "{widen:?}");
    assert_matches_scratch(&session, "after widening fw3");
    let restore = session.apply(&[set_fw3(false)]).expect("restore applies");
    assert_eq!(restore.rechecked, 0, "{restore:?}");
    assert_matches_scratch(&session, "after restoring fw3");

    let in_fw5 = holding(&session, "fw5");
    assert_eq!(in_fw5, 2, "a5 -> b5 and a5 -> b6");
    let add = session.apply(&[Delta::AddScenario { fail: vec!["fw5".into()] }]).expect("applies");
    assert_eq!((add.rechecked, add.cache_hits), (1, 15), "{add:?}");
    assert_matches_scratch(&session, "after failing fw5");
}

/// Widening `fw3` and then `fw5` makes `a5 -> b5` the same check as
/// `a3 -> b3` up to the translation between their /16s (and `a5 -> b6` the
/// same as `a3 -> b4`): the second widening re-checks nothing, all 32 pairs
/// are hits, and the violation the cache serves for `a5 -> b5` names pod
/// 5's nodes and addresses (and replays, which `assert_matches_scratch`
/// checks for every cached witness).
#[test]
fn a_widened_pod_serves_its_witness_to_the_next() {
    let (mut session, _) =
        NetSession::load(&pods_config(), VerifyOptions::default()).expect("pods load");
    let widen = |pod| Delta::SetModel {
        name: format!("fw{pod}"),
        kind: "firewall".into(),
        args: pod_acl(pod, true),
    };
    let first = session.apply(&[widen(3)]).expect("widen fw3 applies");
    assert_eq!(first.rechecked, 2, "{first:?}");
    let second = session.apply(&[widen(5)]).expect("widen fw5 applies");
    assert_eq!((second.cache_hits, second.rechecked), (32, 0), "{second:?}");
    assert_matches_scratch(&session, "after widening fw3 and fw5");

    let Verdict::Violated { trace, .. } =
        session.cached("flow-isolation a5 -> b5", "").expect("cached").verdict()
    else {
        panic!("the pod's own ACL admits a5 -> b5");
    };
    let names = session.names();
    let pod5: BTreeSet<_> = ["a5", "b5", "fw5"].map(|n| names[n]).into();
    let pod: Prefix = "10.6.0.0/16".parse().unwrap();
    for step in &trace.steps {
        for n in step.actor.into_iter().chain(step.delivered_to) {
            assert!(pod5.contains(&n), "{n:?} is not in pod 5: {trace:?}");
        }
        if let Some(h) = step.packet {
            assert!([h.src, h.dst, h.origin].iter().all(|&a| pod.contains(a)), "{h}");
        }
    }
}

/// Removing a node renumbers every node after it. `z` comes first here,
/// so removing it shifts every id in `a0 -> b0`'s witness; the pair's
/// slice key does not move, and the witness the cache serves must name
/// the new epoch's nodes.
#[test]
fn remove_node_renumbers_the_served_witness() {
    let config = "\
host z 10.9.0.1
host a0 10.1.0.1
firewall fw0 allow 10.1.0.0/16 -> 10.1.0.0/16
host b0 10.1.0.2
switch sw
link z sw
link a0 sw
link fw0 sw
link b0 sw
autoroute
steer sw from a0 10.0.0.0/8 fw0 prio 10
verify flow-isolation a0 -> b0
";
    let (mut session, _) = NetSession::load(config, VerifyOptions::default()).expect("loads");
    assert!(!session.verdicts()[0].holds, "fw0 admits pod traffic");
    let report = session.apply(&[Delta::RemoveNode("z".into())]).expect("z is unreferenced");
    assert_eq!((report.cache_hits, report.rechecked), (1, 0), "{report:?}");
    assert_matches_scratch(&session, "after removing z");
}

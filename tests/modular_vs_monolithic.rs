//! Randomized differential battery for the modular engine: random
//! multi-site topologies (hosts behind an in-line per-site boundary
//! box, sites joined by a core switch), random ACL openings, random
//! failure scenarios and random partitions — per-site, arbitrary
//! (nodes shuffled into modules with no topological sense), automatic,
//! and degenerate single-module. A site's boundary box is an ACL
//! firewall, or — the shape that keeps the contract synthesizer honest
//! — a *rewriting* middlebox on the cut path: a load balancer whose
//! VIP is the only address the core routes toward the site, a NAT
//! exposing a single external address, or a content cache fronting the
//! site's servers. For every case the modular engine must agree with
//! the monolithic oracle on the verdict, the scenario count and the
//! first violating scenario; every violation witness must replay into
//! a real forbidden reception on the concrete simulator; and the
//! backend split (smt + bdd + contract) must cover the sweep. Every
//! contract is synthesized from the network; none is declared.
//!
//! Cases derive from the proptest harness's deterministic per-test
//! seed; set `VMN_FUZZ_CASES` to bound the case count.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use vmn::{Invariant, Network, PartitionMode, Verdict, Verifier, VerifyOptions};
use vmn_analysis::Module;
use vmn_mbox::models;
use vmn_net::{Address, FailureScenario, NodeId, Prefix, RoutingConfig, Rule, Topology};

fn fuzz_cases() -> u32 {
    match std::env::var("VMN_FUZZ_CASES") {
        Ok(v) => v.parse().expect("VMN_FUZZ_CASES must be a number"),
        Err(_) => 96,
    }
}

fn site_prefix(b: usize) -> Prefix {
    Prefix::new(Address::from_octets([10, b as u8 + 1, 0, 0]), 16)
}

/// One generated verification problem over a multi-site estate.
struct Case {
    net: Network,
    /// Per site: host ids. Boundary boxes are `fw<b>`, site switches
    /// `ssw<b>`, the core switch is `core`.
    hosts: Vec<Vec<NodeId>>,
    firewalls: Vec<NodeId>,
    inv: Invariant,
    label: String,
}

/// The kind of box a site places in line on its cut path to the core.
#[derive(Clone, Copy, PartialEq)]
enum SiteKind {
    /// ACL firewall admitting the site's own sources (plus any opens).
    Acl,
    /// Load balancer exposing a VIP for the site's hosts; the core
    /// routes only the VIP toward the site, so every header arriving
    /// at the box has the VIP destination and the rewritten
    /// (VIP→backend) emission is exactly what a sound synthesis must
    /// not lose.
    Lb,
    /// NAT hiding the site behind one external address; likewise only
    /// the external address is routed in, and inbound deliveries exist
    /// only as restored (rewritten) headers of inside-opened flows.
    Nat,
    /// Content cache fronting the site's hosts as servers; replayed
    /// responses carry headers unrelated to the arrived request.
    Cache,
}

impl SiteKind {
    fn type_name(self, b: usize) -> String {
        match self {
            SiteKind::Acl => format!("site-fw-{b}"),
            SiteKind::Lb => format!("site-lb-{b}"),
            SiteKind::Nat => format!("site-nat-{b}"),
            SiteKind::Cache => format!("site-cache-{b}"),
        }
    }

    fn short(self) -> &'static str {
        match self {
            SiteKind::Acl => "acl",
            SiteKind::Lb => "lb",
            SiteKind::Nat => "nat",
            SiteKind::Cache => "cache",
        }
    }
}

fn vip(b: usize) -> Address {
    Address::from_octets([10, b as u8 + 1, 0, 100])
}

fn external(b: usize) -> Address {
    Address::from_octets([172, 16, b as u8 + 1, 1])
}

/// The prefix the core routes toward a site's boundary box. Rewriting
/// boxes expose a single service address — the configuration where a
/// synthesis that intersects the box's emission with its arrivals
/// drops every rewritten (backend / internal-host) header on the
/// floor.
fn site_entry(kind: SiteKind, b: usize) -> Prefix {
    match kind {
        SiteKind::Acl | SiteKind::Cache => site_prefix(b),
        SiteKind::Lb => Prefix::host(vip(b)),
        SiteKind::Nat => Prefix::host(external(b)),
    }
}

/// The shape of a multi-site estate.
struct EstateSpec {
    kinds: Vec<SiteKind>,
    per_site: usize,
    /// `(other, b)`: site `b`'s ACL firewall is (mis)opened to sources
    /// from site `other`, creating cross-site violations.
    opens: Vec<(usize, usize)>,
}

/// Builds an estate from a spec: hosts on a site switch, the site's
/// boundary box in line toward the core.
fn build_estate(spec: &EstateSpec) -> (Network, Vec<Vec<NodeId>>, Vec<NodeId>) {
    let sites = spec.kinds.len();
    let mut topo = Topology::new();
    let core = topo.add_switch("core");
    let mut hosts: Vec<Vec<NodeId>> = Vec::new();
    let mut switches: Vec<NodeId> = Vec::new();
    let mut firewalls: Vec<NodeId> = Vec::new();
    for (b, &kind) in spec.kinds.iter().enumerate() {
        let ssw = topo.add_switch(format!("ssw{b}"));
        let owned = match kind {
            SiteKind::Lb => vec![vip(b)],
            SiteKind::Nat => vec![external(b)],
            _ => vec![],
        };
        let fw = topo.add_middlebox(format!("fw{b}"), kind.type_name(b), owned);
        topo.add_link(ssw, fw);
        topo.add_link(fw, core);
        let mut site_hosts = Vec::new();
        for k in 0..spec.per_site {
            let h = topo.add_host(
                format!("h{b}x{k}"),
                Address::from_octets([10, b as u8 + 1, 0, k as u8 + 1]),
            );
            topo.add_link(h, ssw);
            site_hosts.push(h);
        }
        hosts.push(site_hosts);
        switches.push(ssw);
        firewalls.push(fw);
    }

    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    // The boundary boxes sit in line and BFS routing never transits a
    // terminal, so the inter-site legs are explicit `from`-scoped rules
    // (an unscoped rule would bounce a box's re-emission straight back
    // into it). The outbound leg matches any destination so service
    // addresses outside 10/8 (a NAT external) still route out.
    for b in 0..sites {
        for &h in &hosts[b] {
            tables.add_rule(
                switches[b],
                Rule::from_neighbor(Prefix::default_route(), h, firewalls[b]).with_priority(-10),
            );
        }
    }
    for from in 0..sites {
        for to in 0..sites {
            if from != to {
                tables.add_rule(
                    core,
                    Rule::from_neighbor(
                        site_entry(spec.kinds[to], to),
                        firewalls[from],
                        firewalls[to],
                    ),
                );
            }
        }
    }

    let mut net = Network::new(topo, tables);
    for (b, &fw) in firewalls.iter().enumerate() {
        let model = match spec.kinds[b] {
            SiteKind::Acl => {
                let mut allow = vec![(site_prefix(b), Prefix::default_route())];
                for &(other, at) in &spec.opens {
                    if at == b {
                        allow.push((site_prefix(other), site_prefix(b)));
                    }
                }
                models::acl_firewall(&SiteKind::Acl.type_name(b), allow)
            }
            SiteKind::Lb => {
                let backends = hosts[b].iter().map(|&h| net.host_address(h)).collect();
                models::load_balancer(&SiteKind::Lb.type_name(b), vip(b), backends)
            }
            SiteKind::Nat => models::nat(&SiteKind::Nat.type_name(b), site_prefix(b), external(b)),
            SiteKind::Cache => {
                models::content_cache(&SiteKind::Cache.type_name(b), [site_prefix(b)], vec![])
            }
        };
        net.set_model(fw, model);
    }
    (net, hosts, firewalls)
}

/// Draws a random estate: 2..=3 sites of 2..=3 hosts each. Each site's
/// boundary box is an ACL firewall (admitting its own site's sources,
/// with probability ~1/3 also (mis)opened to one foreign site) or,
/// with probability ~1/3, a rewriting service box (LB, NAT or cache)
/// on the cut path.
fn generate(rng: &mut TestRng) -> Case {
    let sites = 2 + rng.below(2) as usize;
    let per_site = 2 + rng.below(2) as usize;
    let kinds: Vec<SiteKind> = (0..sites)
        .map(|_| {
            if rng.below(3) == 0 {
                match rng.below(3) {
                    0 => SiteKind::Lb,
                    1 => SiteKind::Nat,
                    _ => SiteKind::Cache,
                }
            } else {
                SiteKind::Acl
            }
        })
        .collect();
    let mut opens: Vec<(usize, usize)> = Vec::new();
    let mut label = format!("sites={sites} per_site={per_site}");
    for (b, &kind) in kinds.iter().enumerate() {
        if kind != SiteKind::Acl {
            label.push_str(&format!(" {}{b}", kind.short()));
        } else if rng.below(3) == 0 {
            // A misconfigured opening toward one foreign site.
            let other = (b + 1 + rng.below(sites as u64 - 1) as usize) % sites;
            opens.push((other, b));
            label.push_str(&format!(" open:{other}->{b}"));
        }
    }
    let spec = EstateSpec { kinds, per_site, opens };
    let (mut net, hosts, firewalls) = build_estate(&spec);

    // 1..=2 failure scenarios over the boundary boxes.
    for _ in 0..=rng.below(2) {
        let mut failed = vec![firewalls[rng.below(sites as u64) as usize]];
        if rng.below(3) == 0 {
            failed.push(firewalls[rng.below(sites as u64) as usize]);
        }
        failed.sort();
        failed.dedup();
        net.add_scenario(FailureScenario::nodes(failed));
    }

    // A random isolation invariant over distinct hosts (cross- or
    // intra-site, so both the contract fast path and the exact fallback
    // are exercised).
    let all: Vec<NodeId> = hosts.iter().flatten().copied().collect();
    let src = all[rng.below(all.len() as u64) as usize];
    let dst = loop {
        let d = all[rng.below(all.len() as u64) as usize];
        if d != src {
            break d;
        }
    };
    let inv = if rng.below(2) == 0 {
        Invariant::NodeIsolation { src, dst }
    } else {
        Invariant::FlowIsolation { src, dst }
    };
    label.push_str(&format!(" inv={inv}"));
    Case { net, hosts, firewalls, inv, label }
}

/// The natural per-site partition (plus a core module).
fn site_partition(case: &Case) -> vmn_analysis::Partition {
    let name = |n: NodeId| case.net.topo.node(n).name.clone();
    let mut modules: Vec<Module> = (0..case.hosts.len())
        .map(|b| {
            let mut nodes: std::collections::BTreeSet<String> =
                [format!("ssw{b}"), name(case.firewalls[b])].into();
            nodes.extend(case.hosts[b].iter().map(|&h| name(h)));
            Module { name: format!("site{b}"), nodes }
        })
        .collect();
    modules.push(Module { name: "core".into(), nodes: ["core".to_string()].into() });
    vmn_analysis::Partition { modules }
}

/// An arbitrary partition: every node shuffled into one of `k` modules
/// with no topological sense. Soundness must not depend on the cut
/// being a good one.
fn random_partition(case: &Case, k: usize, rng: &mut TestRng) -> vmn_analysis::Partition {
    let mut modules: Vec<Module> =
        (0..k).map(|i| Module { name: format!("m{i}"), nodes: Default::default() }).collect();
    for (i, (_, node)) in case.net.topo.nodes().enumerate() {
        // Every module must be non-empty for the partition to validate;
        // pin the first k nodes, scatter the rest.
        let m = if i < k { i } else { rng.below(k as u64) as usize };
        modules[m].nodes.insert(node.name.clone());
    }
    vmn_analysis::Partition { modules }
}

fn verify_with(case: &Case, partition: PartitionMode) -> vmn::Report {
    let options = VerifyOptions { partition, ..Default::default() };
    let v = Verifier::new(&case.net, options).expect("valid network");
    v.verify(&case.inv).expect("verify succeeds")
}

fn run_case(seed: u64) {
    let mut rng = TestRng::new(seed);
    let case = generate(&mut rng);
    let label = &case.label;

    let want = verify_with(&case, PartitionMode::Off);
    if let Verdict::Violated { trace, scenario } = &want.verdict {
        let receptions = trace.replay(&case.net, scenario).expect("oracle witness replays");
        assert!(!receptions.is_empty(), "{label}: oracle witness replays to no reception");
    }

    let mut partitions = vec![
        (
            "site-partition",
            PartitionMode::Explicit { partition: site_partition(&case), contracts: vec![] },
        ),
        ("auto", PartitionMode::Auto),
        (
            "degenerate",
            PartitionMode::Explicit {
                partition: random_partition(&case, 1, &mut rng),
                contracts: vec![],
            },
        ),
    ];
    let k = 2 + rng.below(2) as usize;
    partitions.push((
        "random-partition",
        PartitionMode::Explicit {
            partition: random_partition(&case, k, &mut rng),
            contracts: vec![],
        },
    ));

    for (engine, mode) in partitions {
        let got = verify_with(&case, mode);
        assert_eq!(
            got.verdict.holds(),
            want.verdict.holds(),
            "{label}: {engine} verdict diverges from the monolithic oracle"
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
        if let (Verdict::Violated { scenario: gs, trace }, Verdict::Violated { scenario: ws, .. }) =
            (&got.verdict, &want.verdict)
        {
            assert_eq!(gs, ws, "{label}: {engine} first violating scenario diverges");
            let receptions = trace.replay(&case.net, gs).expect("modular witness replays");
            assert!(!receptions.is_empty(), "{label}: {engine} witness replays to no reception");
        }
    }
}

/// A fixed two-site estate with the given boundary boxes, verifying
/// cross-site `NodeIsolation { src: h0x0, dst: h1x0 }`.
fn fixed_case(kinds: Vec<SiteKind>, opens: Vec<(usize, usize)>, label: &str) -> Case {
    let spec = EstateSpec { kinds, per_site: 2, opens };
    let (net, hosts, firewalls) = build_estate(&spec);
    let inv = Invariant::NodeIsolation { src: hosts[0][0], dst: hosts[1][0] };
    Case { net, hosts, firewalls, inv, label: label.into() }
}

/// Asserts the modular engine (site partition and auto) matches the
/// monolithic oracle on verdict, first violating scenario and witness
/// replay, and returns the oracle's report.
fn assert_modular_agrees(case: &Case) -> vmn::Report {
    let label = &case.label;
    let want = verify_with(case, PartitionMode::Off);
    for (engine, mode) in [
        (
            "site-partition",
            PartitionMode::Explicit { partition: site_partition(case), contracts: vec![] },
        ),
        ("auto", PartitionMode::Auto),
    ] {
        let got = verify_with(case, mode);
        assert_eq!(
            got.verdict.holds(),
            want.verdict.holds(),
            "{label}: {engine} verdict diverges from the monolithic oracle"
        );
        if let (Verdict::Violated { scenario: gs, trace }, Verdict::Violated { scenario: ws, .. }) =
            (&got.verdict, &want.verdict)
        {
            assert_eq!(gs, ws, "{label}: {engine} first violating scenario diverges");
            let receptions = trace.replay(&case.net, gs).expect("modular witness replays");
            assert!(!receptions.is_empty(), "{label}: {engine} witness replays to no reception");
        }
    }
    want
}

/// Regression for the synthesize soundness bug: a load balancer on a
/// cut path. The core routes only the VIP toward the service site, so
/// every header arriving at the LB carries `dst = VIP`; modeling its
/// emission as `arrived ∩ anything == arrived` lost the rewritten
/// VIP→backend headers, the backend-facing crossings synthesized
/// empty, and the contract fast path "proved" an isolation invariant
/// the monolithic engine refutes.
#[test]
fn load_balancer_on_cut_path_is_not_proven_isolated() {
    let case = fixed_case(vec![SiteKind::Acl, SiteKind::Lb], vec![], "lb-on-cut");
    let want = assert_modular_agrees(&case);
    assert!(!want.verdict.holds(), "the LB hands VIP traffic to its backends");
}

/// Same shape with a NAT: only the external address routes into the
/// site, and inbound deliveries exist only as restored (rewritten)
/// headers of flows the inside opened — headers no inbound window
/// ever carried across the cut.
#[test]
fn nat_on_cut_path_is_not_proven_isolated() {
    let case = fixed_case(vec![SiteKind::Acl, SiteKind::Nat], vec![], "nat-on-cut");
    let want = assert_modular_agrees(&case);
    assert!(
        !want.verdict.holds(),
        "a reply through the inside-opened flow is restored to the internal host"
    );
}

/// A content cache on the cut path: replayed responses carry headers
/// unrelated to the arrived request, so its synthesis must widen too.
#[test]
fn content_cache_on_cut_path_agrees_with_monolithic() {
    let case = fixed_case(vec![SiteKind::Acl, SiteKind::Cache], vec![], "cache-on-cut");
    let want = assert_modular_agrees(&case);
    assert!(!want.verdict.holds(), "the cache forwards the client's request to the server");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Modular and monolithic engines agree on random estates under
    /// random partitions.
    #[test]
    fn modular_matches_monolithic(seed in any::<u64>()) {
        run_case(seed);
    }
}

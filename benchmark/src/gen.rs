//! Workload inputs, made from the seed alone.
//!
//! Every generator keeps its own record of what it built — which pairs it
//! opened, which boxes it placed — and the expected verdicts come from that
//! record, never from the verifier. The seed moves the choices that leave the
//! amount of work alone (which groups are misconfigured, which sites and
//! hosts a delta is aimed at); sizes, class counts and the order of classes
//! in a delta stream are fixed, so runs with different seeds stay comparable.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};
use vmn::{Invariant, Network, PartitionMode, VerifyOptions};
use vmn_net::NodeId;
use vmn_scenarios::datacenter::{Datacenter, DatacenterParams};
use vmn_scenarios::estate::{Estate, EstateParams, EstateStyle};
use vmn_scenarios::group_prefix;
use vmn_serve::json::Value;

pub const WORKLOADS: [&str; 4] = ["dc-fleet", "campus-static", "campus-deltas", "pods-deltas"];

/// Full sizes are what `BENCHMARK.json` measures; smoke sizes exercise the
/// same code in seconds for `--smoke` and the unit tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

fn campus(sites: usize, subnets: usize, hosts: usize, with_failures: bool) -> EstateParams {
    EstateParams {
        style: EstateStyle::Campus,
        sites,
        subnets_per_site: subnets,
        hosts_per_subnet: hosts,
        with_failures,
    }
}

/// One cold check of a one-shot workload: the options `Verifier::new` gets.
pub struct Check {
    pub label: &'static str,
    pub options: VerifyOptions,
}

/// Input of a one-shot workload.
pub struct OneShot {
    pub net: Network,
    pub battery: Vec<Invariant>,
    /// Expected verdict per battery entry, from the generator's record.
    pub expect_holds: Vec<bool>,
    /// A round runs every check cold; their verdicts must agree.
    pub checks: Vec<Check>,
    pub input_hash: u64,
}

fn hash_battery(h: &mut impl Hasher, net: &Network, battery: &[Invariant]) {
    for inv in battery {
        inv.kind().hash(h);
        for n in inv.endpoints() {
            net.topo.node(n).name.hash(h);
        }
    }
}

/// A seeded pick of `n` distinct ordered pairs `(a, b)`, `a != b`, below
/// `limit`: the first `n` of a shuffle that `keep` admits, asked in order.
fn distinct_pairs(
    rng: &mut StdRng,
    limit: usize,
    n: usize,
    mut keep: impl FnMut(usize, usize) -> bool,
) -> Vec<(usize, usize)> {
    let mut all: Vec<(usize, usize)> =
        (0..limit).flat_map(|a| (0..limit).map(move |b| (a, b))).filter(|&(a, b)| a != b).collect();
    all.shuffle(rng);
    let picked: Vec<(usize, usize)> =
        all.into_iter().filter(|&(a, b)| keep(a, b)).take(n).collect();
    assert_eq!(picked.len(), n, "not enough distinct pairs");
    picked
}

/// §5.1 datacenter with seeded Rules and Redundancy misconfigurations.
pub fn dc_fleet(seed: u64, scale: Scale) -> OneShot {
    let params = match scale {
        Scale::Full => DatacenterParams::default(),
        Scale::Smoke => DatacenterParams {
            racks: 8,
            hosts_per_rack: 2,
            policy_groups: 4,
            redundant: true,
            with_failures: true,
        },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dc = Datacenter::build(params);
    let g = dc.groups.len();
    // Seven distinct ordered group pairs: two opened on both firewalls
    // (Rules), two on the backup only (Redundancy), three left closed for
    // the flow-isolation proofs.
    //
    // The battery asks isolation of group `i` from `i + 1`. A pair opened
    // the other way round, `i -> i + 1`, would let `i` punch the hole from
    // inside — a two-packet witness that the one-packet trace bound of node
    // isolation leaves out — so such pairs are never drawn and every
    // expected verdict follows from the record alone.
    //
    // In a fleet of 16 groups or more the pairs also share no group and
    // join no neighbours in either direction. The battery then has the same
    // structure for every seed (closed neighbour pairs, 4 opened pairs, 3
    // closed flow pairs, no firewall entry shared) and only the solver's
    // search differs: ±4 % in conflicts, against ±20 % without the rule.
    let mut used = std::collections::HashSet::new();
    let pairs = distinct_pairs(&mut rng, g, 7, |a, b| {
        let apart = g < 16 || (a != (b + 1) % g && !used.contains(&a) && !used.contains(&b));
        let keep = b != (a + 1) % g && apart;
        if keep {
            used.extend([a, b]);
        }
        keep
    });
    let (rules, rest) = pairs.split_at(2);
    let (redundancy, flows) = rest.split_at(2);
    let fw2 = dc.fw2.expect("redundant datacenter has a backup firewall");
    for &(a, b) in rules {
        open_group_pair(&mut dc.net, dc.fw1, a, b);
        open_group_pair(&mut dc.net, fw2, a, b);
    }
    for &(a, b) in redundancy {
        open_group_pair(&mut dc.net, fw2, a, b);
    }
    let opened = |a: usize, b: usize| pairs[..4].contains(&(a, b));

    let mut battery = Vec::new();
    let mut expect_holds = Vec::new();
    // Node isolation for two hosts of every group; the second pair is
    // symmetric to the first, so its verdict is inherited.
    for i in 0..g {
        let from = (i + 1) % g;
        for h in 0..2 {
            battery
                .push(Invariant::NodeIsolation { src: dc.groups[from][h], dst: dc.groups[i][h] });
            expect_holds.push(!opened(from, i));
        }
    }
    for &(a, b) in &pairs[..4] {
        battery.push(dc.pair_isolation(a, b));
        expect_holds.push(false);
    }
    for &(a, b) in flows {
        battery.push(Invariant::FlowIsolation { src: dc.groups[a][0], dst: dc.groups[b][0] });
        // Only an opened `a -> b` lets `a` start a flow toward `b`.
        expect_holds.push(!opened(a, b));
    }
    let traversal = dc.traversal_invariants();
    expect_holds.extend(traversal.iter().map(|_| true));
    battery.extend(traversal);

    let mut h = std::collections::hash_map::DefaultHasher::new();
    pairs.hash(&mut h);
    hash_battery(&mut h, &dc.net, &battery);
    OneShot {
        net: dc.net,
        battery,
        expect_holds,
        checks: vec![Check { label: "default", options: VerifyOptions::default() }],
        input_hash: h.finish(),
    }
}

/// Adds an allow entry (src-group → dst-group) to a datacenter firewall.
fn open_group_pair(net: &mut Network, fw: NodeId, src_group: usize, dst_group: usize) {
    let model = net.models.get_mut(&fw).expect("firewall model");
    let acl = model
        .acls
        .iter_mut()
        .find(|(name, _)| name == "acl")
        .expect("learning firewall has an ACL named 'acl'");
    acl.1.push((group_prefix(src_group as u8), group_prefix(dst_group as u8)));
}

fn static_params(scale: Scale) -> (EstateParams, usize, usize) {
    match scale {
        Scale::Full => (EstateParams::campus(), 32, 8),
        Scale::Smoke => (campus(3, 2, 4, true), 3, 2),
    }
}

/// The ACL campus checked twice per round: monolithic, then modular over the
/// per-site partition.
pub fn campus_static(seed: u64, scale: Scale) -> OneShot {
    let (params, cross, local) = static_params(scale);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = Estate::build(params);
    let sites = e.params.sites;
    let opened = distinct_pairs(&mut rng, sites, 2, |_, _| true);
    for &(a, b) in &opened {
        e.inject_cross_site_allow(a, b);
    }
    // The estate's batteries pair site `i+1 -> i` (node) and `i+2 -> i`
    // (flow); an opened pair that is one of them flips its verdict.
    let mut battery = e.cross_site_isolation(cross);
    battery.extend(e.cross_site_flow_isolation(cross));
    let mut expect_holds: Vec<bool> = battery
        .iter()
        .map(|inv| {
            let [src, dst] = inv.endpoints()[..] else {
                unreachable!("isolation has two endpoints")
            };
            !opened.contains(&(site_of(&e, src), site_of(&e, dst)))
        })
        .collect();
    let locals = e.local_reachability(local);
    expect_holds.extend(locals.iter().map(|_| false));
    battery.extend(locals);
    for &(a, b) in &opened {
        battery.push(e.pair_isolation(a, b));
        expect_holds.push(false);
    }
    // Seeded order: the engine answers representatives in battery order.
    let mut order: Vec<usize> = (0..battery.len()).collect();
    order.shuffle(&mut rng);
    let battery: Vec<Invariant> = order.iter().map(|&i| battery[i].clone()).collect();
    let expect_holds: Vec<bool> = order.iter().map(|&i| expect_holds[i]).collect();

    let mut h = std::collections::hash_map::DefaultHasher::new();
    opened.hash(&mut h);
    hash_battery(&mut h, &e.net, &battery);
    let modular = VerifyOptions {
        partition: PartitionMode::Explicit { partition: e.partition(), contracts: vec![] },
        ..Default::default()
    };
    OneShot {
        net: e.net,
        battery,
        expect_holds,
        checks: vec![
            Check { label: "monolithic", options: VerifyOptions::default() },
            Check { label: "modular", options: modular },
        ],
        input_hash: h.finish(),
    }
}

fn site_of(e: &Estate, host: NodeId) -> usize {
    e.hosts
        .iter()
        .position(|site| site.iter().any(|subnet| subnet.contains(&host)))
        .expect("battery endpoints are estate hosts")
}

/// The four delta classes; latencies are never pooled across them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `set-model` on one box: a `Nodes` touch.
    Model,
    /// Nodes and links added or removed: an `Everything` touch.
    Topology,
    /// `add-scenario`: every invariant is answered under one more scenario.
    Scenario,
    /// Invariants added or retired, scenarios removed: a `Nothing` touch.
    Intent,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Model => "model",
            Class::Topology => "topology",
            Class::Scenario => "scenario",
            Class::Intent => "intent",
        }
    }
}

/// One request of a delta stream: its class and the deltas of its batch.
#[derive(Clone, Debug)]
pub struct Request {
    pub class: Class,
    pub deltas: Vec<Value>,
}

impl Request {
    /// The NDJSON line the daemon receives.
    pub fn line(&self) -> String {
        let body = match &self.deltas[..] {
            [one] => ("delta", one.clone()),
            many => ("deltas", Value::Arr(many.to_vec())),
        };
        Value::obj([("op", Value::str("delta")), ("net", Value::str(NET)), body]).to_string()
    }
}

/// Name the daemon workloads load their network under.
pub const NET: &str = "bench";

fn delta(op: &'static str, fields: Vec<(&'static str, Value)>) -> Value {
    let mut all = vec![("op", Value::str(op))];
    all.extend(fields);
    Value::obj(all)
}

fn one(class: Class, d: Value) -> Request {
    Request { class, deltas: vec![d] }
}

/// Merges ordered chains into one stream, each spread evenly over it and
/// in its own order (an add stays ahead of its remove): element `k` of a
/// chain of `n` sits at `(k + ½) / n` of the lap.
///
/// The order of classes is the same for every seed on purpose. How long an
/// added scenario or invariant stays in force multiplies every
/// re-verification in between, and which sessions are warm when it arrives
/// decides whether a proof is resumed or re-encoded: with a seeded order the
/// pods' lap moved by ±17 % and its peak memory twofold from seed to seed.
/// The seed moves what each delta is aimed at instead.
fn even_merge(chains: Vec<Vec<Request>>) -> Vec<Request> {
    let mut placed: Vec<(usize, usize, Request)> = Vec::new();
    for chain in chains {
        let n = chain.len();
        // Compared as (2k + 1) / 2n by cross-multiplication: no rounding.
        placed.extend(chain.into_iter().enumerate().map(|(k, r)| (2 * k + 1, 2 * n, r)));
    }
    // Stable: chains that tie keep the order they were given in.
    placed.sort_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)));
    placed.into_iter().map(|(_, _, r)| r).collect()
}

/// What a lap's deltas are aimed at.
#[derive(Clone, Copy, Debug)]
enum Served {
    Campus { sites: usize, subnets: usize, hosts: usize },
    Pods { pods: usize },
}

/// Input of a daemon workload: the `.vmn` text to load and one lap of the
/// delta stream. The lap has the same class counts for every seed, a
/// seeded order, and leaves the spec as it found it; every round of a run
/// loads the text afresh and sends the lap once, so every round does the same
/// work and each request's fastest repetition is taken over the rounds.
pub struct Daemon {
    pub config: String,
    /// Expected verdict per `verify` line of `config`, in order.
    pub expect_holds: Vec<bool>,
    pub input_hash: u64,
    pub lap: Vec<Request>,
}

const fn lap_counts(
    model: usize,
    topology: usize,
    scenario: usize,
    intent: usize,
) -> [(Class, usize); 4] {
    [
        (Class::Model, model),
        (Class::Topology, topology),
        (Class::Scenario, scenario),
        (Class::Intent, intent),
    ]
}

/// Deltas per lap of the two daemon workloads at full scale: the issue's
/// streams (72 deltas as 32/8/8/24 on the campus, 700 as 350/88/44/218 on
/// the pods) at a half and a sixteenth, so that a 30 s run repeats every
/// request eight times or more; a run still sends some 400 deltas either way. Model and topology deltas come in do/undo pairs;
/// intent is one `remove-scenario` per scenario plus add/retire invariant
/// pairs.
pub const CAMPUS_LAP: [(Class, usize); 4] = lap_counts(16, 4, 4, 12);
pub const PODS_LAP: [(Class, usize); 4] = lap_counts(22, 6, 3, 13);
const SMOKE_LAP: [(Class, usize); 4] = lap_counts(4, 2, 1, 3);

fn site_acl(site: usize, open_to: Option<usize>) -> String {
    let mut acl = format!("allow 10.{site}.0.0/16 -> 0.0.0.0/0");
    if let Some(from) = open_to {
        acl.push_str(&format!(" , 10.{from}.0.0/16 -> 10.{site}.0.0/16"));
    }
    acl
}

/// The estate generator's campus as `.vmn` text, node for node (see
/// `vmn_scenarios::estate`), with `partition auto`.
pub fn campus_vmn(p: &EstateParams, verifies: &[String], fails: &[String]) -> String {
    use std::fmt::Write;
    let mut c = String::from("switch core\n");
    for b in 0..p.sites {
        let _ = writeln!(c, "switch building{b}");
        let _ = writeln!(c, "acl-firewall fw{b} {}", site_acl(b, None));
        let _ = writeln!(c, "link building{b} fw{b}\nlink fw{b} core");
        for f in 0..p.subnets_per_site {
            let _ = writeln!(c, "switch floor{b}x{f}\nlink floor{b}x{f} building{b}");
            for k in 0..p.hosts_per_subnet {
                let _ =
                    writeln!(c, "host h{b}x{f}x{k} 10.{b}.{f}.{k}\nlink h{b}x{f}x{k} floor{b}x{f}");
            }
        }
    }
    c.push_str("autoroute\n");
    // Inter-site legs; negative priority keeps the BFS host routes
    // preferred for intra-site destinations.
    for b in 0..p.sites {
        for f in 0..p.subnets_per_site {
            let _ = writeln!(c, "route floor{b}x{f} 10.0.0.0/8 building{b} prio -10");
            let _ = writeln!(c, "steer building{b} from floor{b}x{f} 10.0.0.0/8 fw{b} prio -10");
        }
    }
    for from in 0..p.sites {
        for to in (0..p.sites).filter(|&to| to != from) {
            let _ = writeln!(c, "steer core from fw{from} 10.{to}.0.0/16 fw{to}");
        }
    }
    c.push_str("partition auto\n");
    for f in fails {
        let _ = writeln!(c, "fail {f}");
    }
    for v in verifies {
        let _ = writeln!(c, "verify {v}");
    }
    c
}

pub fn campus_deltas_params(scale: Scale) -> EstateParams {
    match scale {
        Scale::Full => campus(8, 8, 16, true),
        Scale::Smoke => campus(3, 2, 4, true),
    }
}

/// The ACL campus served by the daemon under `partition auto`.
pub fn campus_deltas(seed: u64, scale: Scale) -> Daemon {
    let p = campus_deltas_params(scale);
    let (s, f, h) = (p.sites, p.subnets_per_site, p.hosts_per_subnet);
    let per_family = s.min(8);
    // The same pairing the estate generator's batteries use.
    let mut verifies = Vec::new();
    for i in 0..per_family {
        verifies.push(format!(
            "node-isolation h{}x{}x0 -> h{}x0x{}",
            (i + 1) % s,
            i % f,
            i % s,
            i % h
        ));
    }
    for i in 0..per_family {
        verifies.push(format!("flow-isolation h{}x0x0 -> h{}x{}x0", (i + 2) % s, i % s, i % f));
    }
    let fails = ["fw0".to_string(), "floor0x0".to_string()];
    let config = campus_vmn(&p, &verifies, &fails);
    let lap_counts = if scale == Scale::Full { CAMPUS_LAP } else { SMOKE_LAP };
    let served = Served::Campus { sites: s, subnets: f, hosts: h };
    Daemon::new(config, vec![true; verifies.len()], lap_counts, served, seed)
}

pub fn pods_count(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Smoke => 2,
    }
}

fn pod_acl(pod: usize, widened: bool) -> String {
    let net = pod + 1;
    let mut acl = format!("allow 10.{net}.0.0/16 -> 10.{net}.0.0/16");
    if widened {
        acl.push_str(&format!(" , 10.0.0.0/8 -> 10.{net}.0.2/32"));
    }
    acl
}

/// `bench_deltas`' stateful pods: two hosts behind a per-pod learning
/// firewall, pods joined by a core switch, one standing failure scenario.
/// Each pod has two flow-isolation invariants: `a -> b` inside the pod, which
/// the ACL admits unasked (violated: re-verification is a witness search), and
/// `a -> b` of the next pod, which no ACL admits (holds: re-verification is a
/// proof on a pooled session, and flips while a model delta has that pod's
/// ACL widened).
pub fn pods_deltas(seed: u64, scale: Scale) -> Daemon {
    use std::fmt::Write;
    let pods = pods_count(scale);
    let mut c = String::from("switch core\n");
    for p in 0..pods {
        let net = p + 1;
        let _ = writeln!(c, "host a{p} 10.{net}.0.1\nhost b{p} 10.{net}.0.2\nswitch sw{p}");
        let _ = writeln!(c, "firewall fw{p} {}", pod_acl(p, false));
        let _ = writeln!(c, "link a{p} sw{p}\nlink b{p} sw{p}\nlink fw{p} sw{p}\nlink sw{p} core");
    }
    c.push_str("autoroute\n");
    for p in 0..pods {
        let _ = writeln!(c, "steer sw{p} from a{p} 10.0.0.0/8 fw{p} prio 10");
    }
    let mut expect_holds = Vec::new();
    for p in 0..pods {
        let _ = writeln!(c, "verify flow-isolation a{p} -> b{p}");
        expect_holds.push(false);
        let _ = writeln!(c, "verify flow-isolation a{p} -> b{}", (p + 1) % pods);
        // Only `a`'s outbound traffic is steered through its firewall, and
        // pod 0's is the standing failed node: nothing filters `a0` then.
        expect_holds.push(p != 0);
    }
    c.push_str("fail fw0\n");
    let lap_counts = if scale == Scale::Full { PODS_LAP } else { SMOKE_LAP };
    Daemon::new(c, expect_holds, lap_counts, Served::Pods { pods }, seed)
}

impl Daemon {
    fn new(
        config: String,
        expect_holds: Vec<bool>,
        lap_counts: [(Class, usize); 4],
        served: Served,
        seed: u64,
    ) -> Daemon {
        let lap = build_lap(seed, &lap_counts, served);
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        config.hash(&mut hasher);
        for r in &lap {
            r.line().hash(&mut hasher);
        }
        Daemon { config, expect_holds, input_hash: hasher.finish(), lap }
    }

    /// The `load` request line.
    pub fn load_line(&self) -> String {
        Value::obj([
            ("op", Value::str("load")),
            ("net", Value::str(NET)),
            ("config", Value::str(self.config.clone())),
        ])
        .to_string()
    }
}

fn build_lap(seed: u64, counts: &[(Class, usize); 4], served: Served) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    let count = |class: Class| counts.iter().find(|(c, _)| *c == class).expect("all classes").1;
    let (models, topologies, scenarios) =
        (count(Class::Model) / 2, count(Class::Topology) / 2, count(Class::Scenario));
    // Intent = one remove per scenario plus add/retire invariant pairs.
    let invariants = (count(Class::Intent) - scenarios) / 2;
    let units = match served {
        Served::Campus { sites, .. } => sites,
        Served::Pods { pods } => pods,
    };

    let mut chains: Vec<Vec<Request>> = Vec::new();
    // Model: widen then restore, rotating over the sites or pods from a
    // seeded first one.
    let first = rng.gen_range(0..units);
    let mut model_chain = Vec::new();
    for j in 0..models {
        let unit = (first + j) % units;
        for widened in [true, false] {
            let (kind, args) = match served {
                Served::Campus { sites, .. } => {
                    ("acl-firewall", site_acl(unit, widened.then_some((unit + 1) % sites)))
                }
                Served::Pods { .. } => ("firewall", pod_acl(unit, widened)),
            };
            model_chain.push(one(
                Class::Model,
                delta(
                    "set-model",
                    vec![
                        ("name", Value::str(format!("fw{unit}"))),
                        ("kind", Value::str(kind)),
                        ("args", Value::str(args)),
                    ],
                ),
            ));
        }
    }
    chains.push(model_chain);
    // Topology: a host and its link in one batch, then the host removed.
    let mut topo_chain = Vec::new();
    for j in 0..topologies {
        let unit = rng.gen_range(0..units);
        let name = format!("x{j}");
        let (addr, switch) = match served {
            Served::Campus { subnets, .. } => {
                let floor = rng.gen_range(0..subnets);
                (format!("10.{unit}.{floor}.{}", 200 + j), format!("floor{unit}x{floor}"))
            }
            Served::Pods { .. } => (format!("10.{}.0.{}", unit + 1, 200 + j), format!("sw{unit}")),
        };
        topo_chain.push(Request {
            class: Class::Topology,
            deltas: vec![
                delta(
                    "add-host",
                    vec![("name", Value::str(name.clone())), ("addr", Value::str(addr))],
                ),
                delta("add-link", vec![("a", Value::str(name.clone())), ("b", Value::str(switch))]),
            ],
        });
        topo_chain
            .push(one(Class::Topology, delta("remove-node", vec![("name", Value::str(name))])));
    }
    chains.push(topo_chain);
    // Scenarios: distinct failed nodes, none of them a standing one. On the
    // campus a failed firewall moves more verdicts than a failed floor
    // switch, so the two kinds alternate; the floors are those that hold the
    // destination of a site's flow-isolation invariant, so every scenario
    // meets a slice and none is answered by the prefilter alone. The seed
    // picks within each kind.
    let mut firewalls: Vec<String> = (1..units).map(|u| format!("fw{u}")).collect();
    firewalls.shuffle(&mut rng);
    let candidates: Vec<String> = match served {
        Served::Campus { sites, subnets, .. } => {
            let mut floors: Vec<String> =
                (1..sites).map(|b| format!("floor{b}x{}", b % subnets)).collect();
            floors.shuffle(&mut rng);
            floors.into_iter().zip(firewalls).flat_map(|(floor, fw)| [floor, fw]).collect()
        }
        Served::Pods { .. } => firewalls,
    };
    assert!(scenarios <= candidates.len(), "a lap's scenarios are distinct");
    // One chain, so at most one added scenario is in force at a time.
    let mut scenario_chain = Vec::new();
    for node in candidates.into_iter().take(scenarios) {
        let fail = Value::Arr(vec![Value::str(node)]);
        scenario_chain
            .push(one(Class::Scenario, delta("add-scenario", vec![("fail", fail.clone())])));
        scenario_chain.push(one(Class::Intent, delta("remove-scenario", vec![("fail", fail)])));
    }
    chains.push(scenario_chain);
    // Invariants: cross-unit pairs no `verify` line of the config names;
    // one chain again, so one added invariant is served at a time.
    let mut invariant_chain = Vec::new();
    for (a, b) in distinct_pairs(&mut rng, units, invariants, |_, _| true) {
        let spec = match served {
            Served::Campus { subnets, hosts, .. } => {
                // Config sources are all host 0 of a subnet.
                let k = rng.gen_range(1..hosts);
                let (fa, fb) = (rng.gen_range(0..subnets), rng.gen_range(0..subnets));
                format!("node-isolation h{a}x{fa}x{k} -> h{b}x{fb}x{k}")
            }
            Served::Pods { .. } => format!("node-isolation a{a} -> b{b}"),
        };
        invariant_chain.push(one(
            Class::Intent,
            delta("add-invariant", vec![("spec", Value::str(spec.clone()))]),
        ));
        invariant_chain
            .push(one(Class::Intent, delta("retire-invariant", vec![("spec", Value::str(spec))])));
    }
    chains.push(invariant_chain);
    even_merge(chains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn_serve::{Delta, NetSpec};

    #[test]
    fn campus_text_parses_to_the_estate_generators_node_count() {
        for p in [campus_deltas_params(Scale::Smoke), campus(4, 3, 8, true)] {
            let text = campus_vmn(&p, &["node-isolation h1x0x0 -> h0x0x0".into()], &["fw0".into()]);
            let spec = NetSpec::parse(&text).expect("generated text parses");
            assert!(spec.partition);
            let m = spec.materialize().expect("generated text materialises");
            assert_eq!(m.net.topo.nodes().count(), p.node_count());
            assert_eq!(
                m.net.topo.nodes().count(),
                Estate::build(p.clone()).net.topo.nodes().count()
            );
            assert_eq!(m.invariants.len(), 1);
            m.net.validate().expect("every middlebox has a model");
        }
        assert_eq!(campus_deltas_params(Scale::Full).node_count(), 1105);
    }

    fn class_counts(lap: &[Request]) -> Vec<(Class, usize)> {
        [Class::Model, Class::Topology, Class::Scenario, Class::Intent]
            .map(|c| (c, lap.iter().filter(|r| r.class == c).count()))
            .to_vec()
    }

    #[test]
    fn laps_have_the_stated_class_counts_for_any_seed_and_undo_themselves() {
        for seed in [0, 1, 7, u64::MAX] {
            for scale in [Scale::Smoke, Scale::Full] {
                // Full-scale pods are small enough to apply; the full campus
                // is only counted.
                let full = scale == Scale::Full;
                let inputs = [
                    (campus_deltas(seed, scale), if full { CAMPUS_LAP } else { SMOKE_LAP }),
                    (pods_deltas(seed, scale), if full { PODS_LAP } else { SMOKE_LAP }),
                ];
                for (d, counts) in inputs {
                    let before = NetSpec::parse(&d.config).expect("config parses");
                    let mut spec = before.clone();
                    // Applied twice: a lap must undo itself completely.
                    for _ in 0..2 {
                        assert_eq!(class_counts(&d.lap), counts.to_vec(), "seed {seed}");
                        for request in &d.lap {
                            assert!(vmn_serve::json::parse(&request.line()).is_ok());
                            for delta in &request.deltas {
                                let delta = Delta::from_json(delta).expect("well-formed delta");
                                spec.apply(&delta).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                            }
                        }
                        let names = |s: &NetSpec| {
                            let m = s.materialize().expect("materialises");
                            let mut names: Vec<String> = m.names.into_keys().collect();
                            names.sort();
                            (names, s.verify_specs().map(str::to_string).collect::<Vec<_>>())
                        };
                        if d.config.len() < 20_000 {
                            assert_eq!(
                                names(&spec),
                                names(&before),
                                "a lap leaves the spec as found"
                            );
                        }
                        assert_eq!(spec.fail_specs().count(), before.fail_specs().count());
                    }
                }
            }
        }
        assert_eq!(CAMPUS_LAP.iter().map(|c| c.1).sum::<usize>(), 36);
        assert_eq!(PODS_LAP.iter().map(|c| c.1).sum::<usize>(), 44);
    }

    #[test]
    fn seeds_change_the_input_and_nothing_else() {
        for build in [dc_fleet, campus_static] {
            let (a, b, again) =
                (build(1, Scale::Smoke), build(2, Scale::Smoke), build(1, Scale::Smoke));
            assert_eq!(a.input_hash, again.input_hash, "one seed, one input");
            assert_ne!(a.input_hash, b.input_hash, "another seed, another input");
            assert_eq!(a.battery.len(), a.expect_holds.len());
            assert_eq!(a.expect_holds.len(), b.expect_holds.len(), "sizes are fixed");
        }
        for build in [campus_deltas, pods_deltas] {
            let (a, b) = (build(1, Scale::Smoke), build(2, Scale::Smoke));
            assert_ne!(a.input_hash, b.input_hash);
            assert_eq!(a.config, b.config, "the seed orders the stream; the estate is fixed");
        }
    }

    #[test]
    fn the_generators_record_predicts_the_smoke_verdicts() {
        use crate::oneshot::{gate_round, round, Gate};
        for build in [dc_fleet, campus_static] {
            for seed in [3, 4] {
                let w = build(seed, Scale::Smoke);
                let r = round(&w, None, false).expect("round runs");
                let mut gate = Gate::default();
                gate_round(&w, &r, &mut gate);
                assert_eq!(gate.failed, 0, "{:?}", gate.notes);
                assert!(w.expect_holds.contains(&false) && w.expect_holds.contains(&true));
            }
        }
    }
}

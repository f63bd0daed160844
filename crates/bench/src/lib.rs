//! The paper's §5 figures, and criterion benches for the regimes the
//! regression benchmark (`benchmark/`, declared in `BENCHMARK.json`) does
//! not cover. The two harnesses have disjoint jobs: `benchmark/` gates
//! end-to-end time and exact per-layer counters on every PR; this crate
//! reproduces the source paper's evaluation.
//!
//! * `cargo run -p vmn_bench --release --bin figures` — the full sweeps:
//!   every §5 figure's series (and the §4 ablation) as a text table, on
//!   the axes below. `EXPERIMENTS.md` holds one committed run next to the
//!   shapes the paper reports; `--fig N --samples K` runs one figure.
//! * `cargo bench -p vmn_bench` — `solver` (the SAT + bit-vector core on
//!   pigeonhole and bit-vector instances) and two engine sweeps, each the
//!   default engine against the baseline it replaced: `scenario_sweep`
//!   (pooled vs from-scratch sessions) and `fastpath_sweep` (BDD routing
//!   vs forced SMT). Their workloads are defined below.
//!
//! ## Scale mapping
//!
//! The paper ran Z3 on 10-core Xeons against networks of up to 1000
//! hosts / 250 subnets / 30 peering points. This reproduction runs its
//! own solver; to keep every sweep finishing in minutes rather than
//! hours, whole-network sweeps use proportionally smaller maxima (the
//! `FIG*` constants below). What is compared with the paper is the
//! *shape* of each curve — flat slice-time vs growing whole-network
//! time, linear growth in policy classes, faster violation checks than
//! proofs — and `EXPERIMENTS.md` records, figure by figure, which of
//! them a full run shows on these axes.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};
use vmn::{Invariant, Network, Report, Verifier, VerifyOptions};
use vmn_net::NodeId;

/// Whole-network x-axes (see module docs for the paper mapping).
pub const FIG3_CLASSES: &[usize] = &[5, 10, 15, 25];
pub const FIG4_CLASSES: &[usize] = &[4, 6, 8, 10];
pub const FIG7_SUBNETS: &[usize] = &[3, 15, 30];
pub const FIG8_TENANTS: &[usize] = &[2, 4, 6, 8];
pub const FIG9B_SUBNETS: &[usize] = &[3, 9, 15, 21];
pub const FIG9C_PEERS: &[usize] = &[1, 2, 3, 4];

/// One measured data point: a labelled collection of sample durations.
#[derive(Clone, Debug)]
pub struct Point {
    pub x: String,
    pub samples: Vec<Duration>,
}

impl Point {
    pub fn new(x: impl Into<String>) -> Point {
        Point { x: x.into(), samples: Vec::new() }
    }

    fn sorted_secs(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(Duration::as_secs_f64).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        v
    }

    pub fn min(&self) -> f64 {
        self.sorted_secs().first().copied().unwrap_or(0.0)
    }

    pub fn max(&self) -> f64 {
        self.sorted_secs().last().copied().unwrap_or(0.0)
    }

    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted_secs();
        if v.is_empty() {
            return 0.0;
        }
        let idx = ((v.len() - 1) as f64 * p / 100.0).round() as usize;
        v[idx]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

/// A labelled series of points (one line in a figure).
#[derive(Clone, Debug)]
pub struct Series {
    pub label: String,
    pub points: Vec<Point>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Series {
        Series { label: label.into(), points: Vec::new() }
    }
}

/// Prints the paper-style table for a figure: one row per x value with
/// min / 5th / median / 95th / max columns (the paper's box-and-whisker
/// content).
pub fn print_series(title: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    for s in series {
        println!("--- {} ---", s.label);
        println!(
            "{:>16} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "x", "min(s)", "p5(s)", "median(s)", "p95(s)", "max(s)"
        );
        for p in &s.points {
            println!(
                "{:>16} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                p.x,
                p.min(),
                p.percentile(5.0),
                p.median(),
                p.percentile(95.0),
                p.max()
            );
        }
    }
}

/// Times `samples` cold runs of verifying `inv` and returns the durations
/// plus the last report. Every sample gets a verifier of its own, built
/// outside the timed call: a second `verify` on the same verifier
/// re-enters the pooled session the first one warmed and would time a
/// re-check, not a check.
pub fn time_verify(
    net: &Network,
    options: &VerifyOptions,
    inv: &Invariant,
    samples: usize,
) -> (Vec<Duration>, Report) {
    let mut durations = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let verifier = Verifier::new(net, options.clone()).expect("valid network");
        let t0 = Instant::now();
        let report = verifier.verify(inv).expect("verification succeeds");
        durations.push(t0.elapsed());
        last = Some(report);
    }
    (durations, last.expect("at least one sample"))
}

/// Times verifying a whole invariant set with symmetry (single-threaded,
/// matching the paper's single-core measurements), cold per sample like
/// [`time_verify`].
pub fn time_verify_all(
    net: &Network,
    options: &VerifyOptions,
    invariants: &[Invariant],
    samples: usize,
) -> Vec<Duration> {
    let mut durations = Vec::with_capacity(samples);
    for _ in 0..samples {
        let verifier = Verifier::new(net, options.clone()).expect("valid network");
        let t0 = Instant::now();
        let reports = verifier.verify_all(invariants, 1).expect("verification succeeds");
        assert_eq!(reports.len(), invariants.len());
        durations.push(t0.elapsed());
    }
    durations
}

/// Convenience: slice-mode options with a policy hint.
pub fn sliced(hint: Vec<Vec<NodeId>>) -> VerifyOptions {
    VerifyOptions { policy_hint: Some(hint), ..Default::default() }
}

/// Convenience: whole-network options with a policy hint.
pub fn whole(hint: Vec<Vec<NodeId>>) -> VerifyOptions {
    VerifyOptions { policy_hint: Some(hint), ..VerifyOptions::whole_network() }
}

/// Workload of the `scenario_sweep` bench: the §5.1 datacenter with `n`
/// middlebox failure scenarios attached, plus a cross-group isolation
/// invariant that *holds* in every scenario — so a verification sweep
/// visits all `n + 1` scenarios (no-failure first) instead of stopping
/// early.
pub fn scenario_sweep_workload(n: usize) -> (Network, Vec<Vec<NodeId>>, Invariant) {
    use vmn_net::FailureScenario;
    use vmn_scenarios::datacenter::{Datacenter, DatacenterParams};
    // Two policy groups, two racks and one host pair each, redundant
    // middleboxes.
    let dc = Datacenter::build(DatacenterParams {
        racks: 4,
        hosts_per_rack: 2,
        policy_groups: 2,
        redundant: true,
        with_failures: false,
    });
    let mut net = dc.net.clone();
    let fw2 = dc.fw2.expect("redundant build has a backup firewall");
    let idps2 = dc.idps2.expect("redundant build has a backup IDPS");
    let mut faults: Vec<FailureScenario> = [dc.fw1, dc.idps1, fw2, idps2, dc.lb1]
        .into_iter()
        .map(|m| FailureScenario::nodes([m]))
        .collect();
    faults.push(FailureScenario::nodes([dc.fw1, dc.idps1]));
    faults.push(FailureScenario::nodes([fw2, idps2]));
    faults.push(FailureScenario::nodes([dc.fw1, idps2]));
    assert!(n <= faults.len(), "at most {} failure scenarios available", faults.len());
    for s in faults.into_iter().take(n) {
        net.add_scenario(s);
    }
    (net, dc.policy_hint(), dc.pair_isolation(0, 1))
}

/// Workload of the `fastpath_sweep` bench: a *stateless-heavy* estate —
/// `pods` leaf pods whose traffic is policed purely by forwarding, ACL
/// firewalls and classification chains (no mutable middlebox state
/// anywhere in their slices), plus a small stateful core pair behind a
/// learning firewall.
///
/// Shape: pod `p` has hosts `a_p`/`b_p`; `a_p`'s traffic is steered
/// through a deny-all ACL firewall (with a deny-all backup for the
/// failover scenarios) that fronts an IDPS → gateway chain, so the pod
/// slices are several middleboxes deep — expensive to encode
/// symbolically, trivial to compose as BDD transfer predicates. The core
/// pair `c0`/`c1` sits behind a deny-all *learning* firewall, which is
/// stateful and pins its invariant to the SMT path under every backend
/// choice. Every invariant *holds* in every scenario, so both backends
/// sweep all scenarios and end-to-end wall clocks compare the full
/// workload: under `Backend::Auto` the pod invariants route to the BDD
/// dataplane and only the core pays for a solver; under `Backend::Smt`
/// everything does.
pub fn fastpath_workload(pods: usize) -> (Network, Vec<Vec<NodeId>>, Vec<Invariant>) {
    use vmn_mbox::models;
    use vmn_net::{Address, FailureScenario, Prefix, RoutingConfig, Rule, Topology};

    let px = |s: &str| -> Prefix { s.parse().unwrap() };
    let mut topo = Topology::new();
    let sw = topo.add_switch("sw");
    // The small stateful core.
    let c0 = topo.add_host("c0", "10.0.1.1".parse().unwrap());
    let c1 = topo.add_host("c1", "10.0.2.1".parse().unwrap());
    let fw_c = topo.add_middlebox("fwC", "stateful-firewall", vec![]);
    for n in [c0, c1, fw_c] {
        topo.add_link(n, sw);
    }
    // The stateless pods: hosts behind an ACL (plus failover ACL) that
    // fronts an IDPS → gateway chain.
    struct Pod {
        a: NodeId,
        b: NodeId,
        acl: NodeId,
        acl_backup: NodeId,
        idps: NodeId,
        gw: NodeId,
    }
    let mut pod_nodes: Vec<Pod> = Vec::new();
    for p in 0..pods {
        let subnet = (p as u32 + 8) << 16;
        let a = topo.add_host(format!("a{p}"), Address(0x0A00_0001 + subnet));
        let b = topo.add_host(format!("b{p}"), Address(0x0A00_0002 + subnet));
        let acl = topo.add_middlebox(format!("acl{p}"), "acl-firewall", vec![]);
        let acl_backup = topo.add_middlebox(format!("aclb{p}"), "acl-firewall", vec![]);
        let idps = topo.add_middlebox(format!("idps{p}"), "idps", vec![]);
        let gw = topo.add_middlebox(format!("gw{p}"), "gateway", vec![]);
        for n in [a, b, acl, acl_backup, idps, gw] {
            topo.add_link(n, sw);
        }
        pod_nodes.push(Pod { a, b, acl, acl_backup, idps, gw });
    }

    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    let all = px("10.0.0.0/8");
    tables.add_rule(sw, Rule::from_neighbor(all, c0, fw_c).with_priority(20));
    for pod in &pod_nodes {
        tables.add_rule(sw, Rule::from_neighbor(all, pod.a, pod.acl).with_priority(20));
        tables.add_rule(sw, Rule::from_neighbor(all, pod.a, pod.acl_backup).with_priority(10));
        tables.add_rule(sw, Rule::from_neighbor(all, pod.acl, pod.idps).with_priority(20));
        tables.add_rule(sw, Rule::from_neighbor(all, pod.acl_backup, pod.idps).with_priority(20));
        tables.add_rule(sw, Rule::from_neighbor(all, pod.idps, pod.gw).with_priority(20));
    }

    let mut net = Network::new(topo, tables);
    net.set_model(fw_c, models::learning_firewall("stateful-firewall", vec![]));
    for pod in &pod_nodes {
        net.set_model(pod.acl, models::acl_firewall("acl-firewall", vec![]));
        net.set_model(pod.acl_backup, models::acl_firewall("acl-firewall", vec![]));
        net.set_model(pod.idps, models::idps("idps"));
        net.set_model(pod.gw, models::gateway("gateway"));
    }
    // Failover scenarios: up to three pods lose their primary ACL and
    // re-converge through the backup (keeps sweep length bounded as the
    // pod axis grows).
    for pod in pod_nodes.iter().take(3) {
        net.add_scenario(FailureScenario::nodes([pod.acl]));
    }

    let mut invs: Vec<Invariant> =
        pod_nodes.iter().map(|p| Invariant::NodeIsolation { src: p.a, dst: p.b }).collect();
    invs.push(Invariant::NodeIsolation { src: c0, dst: c1 });
    let mut hint: Vec<Vec<NodeId>> = pod_nodes.iter().map(|p| vec![p.a, p.b]).collect();
    hint.push(vec![c0, c1]);
    (net, hint, invs)
}

pub mod figures;

#[cfg(test)]
mod workload_tests {
    use super::*;
    use vmn::Backend;

    /// The fastpath workload's routing contract: under `Auto` every pod
    /// invariant is answered entirely by the BDD dataplane, the stateful
    /// core stays on SMT, everything holds, and the verdicts match a
    /// forced-SMT run — the assumptions the `fastpath_sweep` bench's
    /// auto-vs-forced-SMT comparison rests on.
    #[test]
    fn fastpath_workload_routes_pods_to_bdd_and_core_to_smt() {
        let (net, hint, invs) = fastpath_workload(2);
        let scenarios = net.all_scenarios().len();
        let auto = Verifier::new(
            &net,
            VerifyOptions { policy_hint: Some(hint.clone()), ..Default::default() },
        )
        .expect("valid network");
        let smt = Verifier::new(
            &net,
            VerifyOptions { policy_hint: Some(hint), backend: Backend::Smt, ..Default::default() },
        )
        .expect("valid network");
        let (core, pods) = invs.split_last().expect("core invariant is last");
        for inv in pods {
            let ra = auto.verify(inv).expect("verifies");
            let rs = smt.verify(inv).expect("verifies");
            assert!(ra.verdict.holds() && rs.verdict.holds(), "{inv}");
            assert_eq!(ra.scenarios_checked, scenarios, "{inv}: full sweep");
            assert_eq!(ra.bdd_scenarios, scenarios, "{inv}: pod slices are stateless");
            assert_eq!(ra.smt_scenarios, 0, "{inv}");
            assert_eq!(rs.bdd_scenarios, 0, "{inv}");
        }
        let ra = auto.verify(core).expect("verifies");
        assert!(ra.verdict.holds());
        assert_eq!(ra.bdd_scenarios, 0, "the learning-firewall core must stay on smt");
        assert_eq!(ra.smt_scenarios, scenarios);
    }
}

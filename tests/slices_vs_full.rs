//! The central soundness claim of slicing (§4): an invariant holds on the
//! slice iff it holds on the whole network. These tests cross-check
//! verdicts between sliced and whole-network verification, and confirm
//! the scaling behaviour (slice size independent of network size).

use vmn::{Invariant, Network, Verifier, VerifyOptions};
use vmn_mbox::models;
use vmn_net::{Address, FailureScenario, NodeId, Prefix, RoutingConfig, Rule, Topology};

fn px(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// A datacenter-flavoured network with `groups` policy groups of two hosts
/// each, every group guarded by one shared stateful firewall. Group i may
/// only talk within itself; `broken_group`'s ACL entries are deleted to
/// plant a violation.
fn grouped_network(groups: usize, broken_group: Option<usize>) -> (Network, Vec<(NodeId, NodeId)>) {
    let mut topo = Topology::new();
    let sw = topo.add_switch("sw");
    let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
    topo.add_link(fw, sw);
    let mut pairs = Vec::new();
    for g in 0..groups {
        let a = topo.add_host(format!("a{g}"), Address(0x0A000000 + (g as u32) * 256 + 1));
        let b = topo.add_host(format!("b{g}"), Address(0x0A000000 + (g as u32) * 256 + 2));
        topo.add_link(a, sw);
        topo.add_link(b, sw);
        pairs.push((a, b));
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    for &(a, b) in &pairs {
        for h in [a, b] {
            tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), h, fw).with_priority(10));
        }
    }
    // Firewall ACL: intra-group traffic only.
    let mut acl = Vec::new();
    for g in 0..groups {
        if broken_group == Some(g) {
            continue; // deleted rules: this group cannot communicate
        }
        let base = 0x0A000000 + (g as u32) * 256;
        let p = Prefix::new(Address(base), 24);
        acl.push((p, p));
    }
    let mut net = Network::new(topo, tables);
    net.set_model(fw, models::learning_firewall("stateful-firewall", acl));
    (net, pairs)
}

#[test]
fn verdicts_agree_between_slice_and_whole_network() {
    let (net, pairs) = grouped_network(3, None);
    let sliced = Verifier::new(&net, VerifyOptions::default()).unwrap();
    let whole = Verifier::new(&net, VerifyOptions::whole_network()).unwrap();

    let mut invariants = Vec::new();
    // Cross-group isolation must hold; intra-group reachability must be
    // violated (traffic is allowed).
    invariants.push(Invariant::NodeIsolation { src: pairs[0].0, dst: pairs[1].0 });
    invariants.push(Invariant::NodeIsolation { src: pairs[1].1, dst: pairs[2].0 });
    invariants.push(Invariant::NodeIsolation { src: pairs[0].0, dst: pairs[0].1 });
    invariants.push(Invariant::FlowIsolation { src: pairs[2].0, dst: pairs[0].0 });

    for inv in &invariants {
        let a = sliced.verify(inv).unwrap();
        let b = whole.verify(inv).unwrap();
        assert_eq!(
            a.verdict.holds(),
            b.verdict.holds(),
            "slice/whole disagree on {inv}: slice={:?} whole={:?}",
            a.verdict.holds(),
            b.verdict.holds()
        );
        assert!(a.encoded_nodes <= b.encoded_nodes);
    }
}

#[test]
fn planted_violation_found_in_both_modes() {
    let (net, pairs) = grouped_network(3, Some(1));
    let inv = Invariant::NodeIsolation { src: pairs[1].0, dst: pairs[1].1 };
    // Group 1 lost its ACL entries, so even intra-group traffic is blocked
    // — isolation (vacuously) holds for group 1 now...
    let sliced = Verifier::new(&net, VerifyOptions::default()).unwrap();
    let whole = Verifier::new(&net, VerifyOptions::whole_network()).unwrap();
    assert!(sliced.verify(&inv).unwrap().verdict.holds());
    assert!(whole.verify(&inv).unwrap().verdict.holds());
    // ...while the healthy groups still communicate, in both modes.
    let ok = Invariant::NodeIsolation { src: pairs[0].0, dst: pairs[0].1 };
    assert!(!sliced.verify(&ok).unwrap().verdict.holds());
    assert!(!whole.verify(&ok).unwrap().verdict.holds());
}

#[test]
fn slice_size_is_independent_of_network_size() {
    let mut slice_sizes = Vec::new();
    let mut whole_sizes = Vec::new();
    for groups in [2usize, 6, 12] {
        let (net, pairs) = grouped_network(groups, None);
        let inv = Invariant::NodeIsolation { src: pairs[0].0, dst: pairs[0].1 };
        let sliced = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let r = sliced.verify(&inv).unwrap();
        slice_sizes.push(r.encoded_nodes);
        whole_sizes.push(net.topo.terminals().count());
    }
    assert!(
        slice_sizes.windows(2).all(|w| w[0] == w[1]),
        "slice sizes must not grow with the network: {slice_sizes:?}"
    );
    assert!(
        whole_sizes.windows(2).all(|w| w[0] < w[1]),
        "whole-network sizes do grow: {whole_sizes:?}"
    );
}

#[test]
fn sliced_verification_is_faster_on_larger_networks() {
    // Not a strict benchmark (that lives in vmn-bench), but the ratio
    // should be clearly visible even in a debug build.
    let (net, pairs) = grouped_network(8, None);
    let inv = Invariant::NodeIsolation { src: pairs[0].0, dst: pairs[1].0 };
    let sliced = Verifier::new(&net, VerifyOptions::default()).unwrap();
    let whole = Verifier::new(&net, VerifyOptions::whole_network()).unwrap();
    let t0 = std::time::Instant::now();
    let a = sliced.verify(&inv).unwrap();
    let slice_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let b = whole.verify(&inv).unwrap();
    let whole_time = t1.elapsed();
    assert_eq!(a.verdict.holds(), b.verdict.holds());
    assert!(slice_time < whole_time, "slice {slice_time:?} should beat whole {whole_time:?}");
}

/// The paper's headline (§4) as an exact counter on the BDD path: one
/// cross-site isolation check allocates the same number of BDD nodes
/// whatever the size of the campus around its slice. The slice is the two
/// hosts and their two site firewalls; what its emitters deliver to those
/// four depends on the source building's own floors (its firewall takes
/// every address between the building's hosts), so the count is one
/// number per building shape — and for each shape the same number at 2,
/// 4, 8 and 13 buildings.
#[test]
fn bdd_work_is_independent_of_network_size() {
    use vmn::Backend;
    use vmn_scenarios::estate::{Estate, EstateParams, EstateStyle};

    let nodes_allocated = |sites: usize, subnets_per_site: usize| {
        let e = Estate::build(EstateParams {
            style: EstateStyle::Campus,
            sites,
            subnets_per_site,
            hosts_per_subnet: 16,
            with_failures: true,
        });
        let inv = Invariant::NodeIsolation { src: e.hosts[0][0][0], dst: e.hosts[1][0][0] };
        let opts = VerifyOptions { backend: Backend::Bdd, ..Default::default() };
        let r = Verifier::new(&e.net, opts).unwrap().verify(&inv).unwrap();
        assert!(r.verdict.holds(), "site firewalls isolate the buildings");
        assert_eq!(r.bdd_scenarios, r.scenarios_checked);
        assert!(r.bdd.nodes > 0);
        r.bdd.nodes
    };
    for subnets_per_site in [16, 4] {
        let by_size = [2, 4, 8, 13].map(|sites| nodes_allocated(sites, subnets_per_site));
        assert!(
            by_size.iter().all(|&n| n == by_size[0]),
            "{subnets_per_site} floors a building: BDD nodes per check must not depend on \
             the number of buildings, got {by_size:?}"
        );
    }
}

/// What the BDD dataplane compiles follows the plan it is given: the same
/// query on the whole terminal set reaches the same verdict and builds a
/// delivery predicate for every terminal an emitter can reach, the slice
/// only for its own four.
#[test]
fn a_slice_compiles_less_of_the_dataplane_than_the_whole_network() {
    use vmn::Backend;
    use vmn_scenarios::estate::{Estate, EstateParams, EstateStyle};

    let e = Estate::build(EstateParams {
        style: EstateStyle::Campus,
        sites: 2,
        subnets_per_site: 2,
        hosts_per_subnet: 4,
        with_failures: true,
    });
    for (inv, holds) in [(e.pair_isolation(1, 0), true), (e.local_reachability(1).remove(0), false)]
    {
        let check = |opts: VerifyOptions| {
            let opts = VerifyOptions { backend: Backend::Bdd, ..opts };
            Verifier::new(&e.net, opts).unwrap().verify(&inv).unwrap()
        };
        let (sliced, whole) =
            (check(VerifyOptions::default()), check(VerifyOptions::whole_network()));
        assert_eq!(sliced.verdict.holds(), holds, "{inv}");
        assert_eq!(whole.verdict.holds(), holds, "{inv}");
        assert!(sliced.encoded_nodes < whole.encoded_nodes, "{inv}");
        assert!(
            sliced.bdd.nodes < whole.bdd.nodes,
            "{inv}: {} nodes on the slice, {} on the whole network",
            sliced.bdd.nodes,
            whole.bdd.nodes
        );
    }
}

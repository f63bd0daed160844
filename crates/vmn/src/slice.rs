//! Slice discovery (§4 / §4.1).
//!
//! A *slice* is a subnetwork closed under forwarding and state; an
//! invariant referencing only slice members holds on the network iff it
//! holds on the slice. For networks of flow-parallel middleboxes, a
//! forwarding-closed subnetwork containing the invariant's endpoints
//! suffices; when origin-agnostic middleboxes (content caches) are
//! involved, the slice additionally needs one representative host per
//! policy equivalence class so that every distinguishable way of
//! installing shared state is represented.
//!
//! Closure is computed as a fixpoint: starting from the invariant's
//! endpoints, follow the static datapath between every pair of in-slice
//! terminals (both directions) and admit every middlebox encountered;
//! middlebox models that rewrite packets toward other addresses (load
//! balancers, NATs) pull the owners of those addresses in as well.

use crate::invariant::Invariant;
use crate::network::Network;
use crate::policy::PolicyClasses;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use vmn_mbox::Parallelism;
use vmn_net::{Address, FailureScenario, HeaderClasses, NetError, NodeId, TransferFunction};

/// Computes the slice for verifying `inv` under `scenario`.
///
/// Returns the terminal set (hosts and middleboxes), sorted. The result
/// always contains the invariant's endpoints; with `use_slices == false`
/// callers should instead pass every terminal to the encoder.
///
/// `policy` yields the policy classes. It is called at most once, and
/// only when the slice holds a middlebox that is not flow-parallel, so a
/// caller can build the classes on demand.
pub fn compute_slice<'p>(
    net: &Network,
    scenario: &FailureScenario,
    inv: &Invariant,
    policy: impl FnOnce() -> &'p PolicyClasses,
) -> Result<Vec<NodeId>, NetError> {
    let tf = TransferFunction::new(&net.topo, &net.tables, scenario);
    let mut set: BTreeSet<NodeId> = inv.endpoints().into_iter().collect();

    let mut changed = true;
    let mut policy = Some(policy);
    while changed {
        changed = false;

        // Forwarding closure over every in-slice (source, destination
        // address) pair.
        let members: Vec<NodeId> = set.iter().copied().collect();
        let mut dest_addrs: Vec<Address> = Vec::new();
        for &n in &members {
            dest_addrs.extend(net.topo.node(n).addresses.iter().copied());
            if net.topo.node(n).kind.is_middlebox() {
                dest_addrs.extend(net.model_referenced_addresses(n));
            }
        }
        dest_addrs.sort();
        dest_addrs.dedup();

        for &from in &members {
            if scenario.is_failed(from) {
                continue;
            }
            for &a in &dest_addrs {
                let (mboxes, end) = tf.terminal_path(from, a)?;
                for m in mboxes {
                    changed |= set.insert(m);
                }
                if let Some(t) = end {
                    changed |= set.insert(t);
                }
            }
        }

        // Owners of middlebox-referenced addresses (LB backends, NAT
        // external addresses) join the slice.
        for &n in &members {
            if !net.topo.node(n).kind.is_middlebox() {
                continue;
            }
            for a in net.model_referenced_addresses(n) {
                if let Some(owner) = net.topo.terminal_for_address(a) {
                    changed |= set.insert(owner);
                }
            }
        }

        // Origin-agnostic middleboxes require a representative per policy
        // equivalence class (done once; re-closure continues afterwards).
        let needs_reps = policy.take_if(|_| {
            set.iter().any(|&n| {
                net.topo.node(n).kind.is_middlebox()
                    && !matches!(net.model(n).parallelism, Parallelism::FlowParallel)
            })
        });
        if let Some(policy) = needs_reps {
            for rep in policy().representatives() {
                changed |= set.insert(rep);
            }
        }
    }

    Ok(set.into_iter().collect())
}

/// The first middlebox in `slice` whose behaviour the BDD backend cannot
/// express under `scenario`, or `None` when the whole slice is stateless
/// — pure forwarding, ACLs and classification oracles.
///
/// Failed middleboxes never process packets, so a scenario that fails
/// the only stateful box on a path leaves the remaining slice stateless:
/// the classification is per (slice, scenario), not per slice alone.
/// Middleboxes without a model are conservatively stateful (engine
/// validation rejects such networks anyway).
pub fn first_stateful_middlebox(
    net: &Network,
    scenario: &FailureScenario,
    slice: &[NodeId],
) -> Option<NodeId> {
    slice.iter().copied().find(|&n| {
        net.topo.node(n).kind.is_middlebox()
            && !scenario.is_failed(n)
            && net.models.get(&n).is_none_or(|m| vmn_analysis::bdd_support(m).is_some())
    })
}

/// Whether every live middlebox in `slice` is stateless under `scenario`
/// — the eligibility test for routing a query to the BDD dataplane
/// backend instead of the SMT pipeline.
pub fn stateless_slice(net: &Network, scenario: &FailureScenario, slice: &[NodeId]) -> bool {
    first_stateful_middlebox(net, scenario, slice).is_none()
}

/// Jaccard similarity of two sorted, deduplicated node sets:
/// `|a ∩ b| / |a ∪ b|`. Two empty sets are identical (similarity 1.0).
pub fn jaccard(a: &[NodeId], b: &[NodeId]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "slice must be sorted+deduped");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "slice must be sorted+deduped");
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Groups per-scenario slices by similarity: greedy agglomerative
/// merging, repeatedly uniting the two clusters whose *unions* are most
/// similar (Jaccard) until no pair reaches `threshold`. Returns the
/// clusters as lists of input indices, each sorted, ordered by smallest
/// member — a partition of `0..slices.len()`.
///
/// The threshold interpolates between the engine's two extremes:
///
/// * `threshold <= 0.0` — everything merges: one cluster, the single
///   union-of-all-slices sweep;
/// * `threshold >= 1.0` — only *identical* slices merge (their Jaccard
///   similarity is exactly 1.0): the per-scenario extreme, except that
///   scenarios with the same slice still share one encoding;
/// * in between — scenarios whose slices overlap enough share an
///   encoder/solver session, wildly divergent ones get their own small
///   one.
///
/// Inputs need not be sorted; each slice is normalised first. Soundness
/// does not depend on the grouping: every cluster's union contains each
/// member scenario's sufficient slice, so any partition yields the same
/// verdicts (the fuzz suite checks exactly this across thresholds).
pub fn cluster_slices(slices: &[Vec<NodeId>], threshold: f64) -> Vec<Vec<usize>> {
    // Cluster state: (member indices, union of member slices).
    let mut clusters: Vec<(Vec<usize>, Vec<NodeId>)> = slices
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut u = s.clone();
            u.sort();
            u.dedup();
            (vec![i], u)
        })
        .collect();
    // Cached pairwise similarities: only the merged cluster's row changes
    // per round, so each merge costs one row of jaccard() recomputations
    // instead of the full O(n²) matrix.
    let n = clusters.len();
    let mut sims: Vec<Vec<f64>> = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let s = jaccard(&clusters[i].1, &clusters[j].1);
            sims[i][j] = s;
            sims[j][i] = s;
        }
    }
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let sim = sims[i][j];
                // Strictly-greater keeps ties on the earliest pair, making
                // the grouping deterministic across platforms.
                if best.is_none_or(|(.., b)| sim > b) {
                    best = Some((i, j, sim));
                }
            }
        }
        match best {
            Some((i, j, sim)) if sim >= threshold => {
                let (members, union) = clusters.swap_remove(j);
                clusters[i].0.extend(members);
                clusters[i].1.extend(union);
                clusters[i].1.sort();
                clusters[i].1.dedup();
                // Mirror the swap_remove in the similarity matrix, then
                // refresh the merged cluster's row/column.
                sims.swap_remove(j);
                for row in &mut sims {
                    row.swap_remove(j);
                }
                for k in 0..clusters.len() {
                    if k != i {
                        let s = jaccard(&clusters[i].1, &clusters[k].1);
                        sims[i][k] = s;
                        sims[k][i] = s;
                    }
                }
            }
            _ => break,
        }
    }
    let mut out: Vec<Vec<usize>> = clusters
        .into_iter()
        .map(|(mut members, _)| {
            members.sort();
            members
        })
        .collect();
    out.sort_by_key(|c| c[0]);
    out
}

/// A name-based fingerprint of everything the verdict of one
/// (invariant, scenario) check can depend on, given its verification
/// plan (slice `nodes`, trace bound `k`).
///
/// The engine's verdict is a deterministic function of exactly these
/// inputs, in both backends:
///
/// * the invariant's kind and endpoint/through names,
/// * which slice members the scenario fails (by name),
/// * the trace bound,
/// * each slice member's name, kind, owned addresses and — for
///   middleboxes — its full model configuration,
/// * the delivery behaviour of every live slice terminal, read from the
///   one list the encoder compiles
///   ([`TransferFunction::delivery_intervals`]): for each header
///   equivalence class, where does a packet emitted by this terminal
///   toward that class land, keeping the in-slice targets ("outside" and
///   "drop" are one outcome to the encoder), with adjacent classes of
///   equal outcome merged so that irrelevant class splits elsewhere in
///   the network do not perturb the fingerprint.
///
/// Of the scenario, only `failed ∩ slice` is hashed. A failure reaches a
/// check in two ways only. The encoder's `add_scenario` silences the
/// failed encoded terminals (no send, no processing) and ties each live
/// member's emissions to the scenario's delivery intervals; the BDD check
/// starts from the live slice hosts and follows the same intervals; and
/// the choice between the two reads the live slice middleboxes. A failed
/// node outside the slice, or a failed link, therefore acts only through
/// the delivery of live members, which is hashed (last item). (The contract
/// rung reads the whole scenario, but it only ever answers `Holds`, and
/// only when the exact engine would.)
///
/// Equal fingerprints — across two network epochs, or across two
/// scenarios of one epoch — therefore imply the same verdict (modulo the
/// 2⁻⁶⁴ hash-collision risk every cache key accepts), which is what lets
/// the `vmn_serve` daemon answer from its verdict cache instead of
/// re-solving: a routing change three pods over refines the global header
/// classes but leaves this slice's merged intervals — and hence its
/// fingerprint — untouched, and a failure scenario that reroutes nothing
/// in the slice is answered by a scenario the pair was already checked in.
///
/// `classes` must be the header classes of `net`
/// ([`HeaderClasses::from_network`]); they are passed in so one
/// computation serves every (invariant, scenario) pair of an epoch, and
/// the interval lists are read from their memo: a list the engine's
/// sessions or BDD dataplane already swept over the same classes is not
/// swept again, and neither is one an earlier fingerprint swept.
pub fn verdict_fingerprint(
    net: &Network,
    classes: &HeaderClasses,
    inv: &Invariant,
    scenario: &FailureScenario,
    nodes: &[NodeId],
    k: usize,
) -> Result<u64, NetError> {
    fn name(net: &Network, n: NodeId) -> &str {
        &net.topo.node(n).name
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();

    // Invariant shape, over names.
    match inv {
        Invariant::NodeIsolation { src, dst } => {
            (0u8, name(net, *src), name(net, *dst)).hash(&mut h);
        }
        Invariant::FlowIsolation { src, dst } => {
            (1u8, name(net, *src), name(net, *dst)).hash(&mut h);
        }
        Invariant::DataIsolation { origin, dst } => {
            (2u8, name(net, *origin), name(net, *dst)).hash(&mut h);
        }
        Invariant::Traversal { dst, through, from } => {
            (3u8, name(net, *dst)).hash(&mut h);
            for &m in through {
                name(net, m).hash(&mut h);
            }
            from.map(|f| name(net, f)).hash(&mut h);
        }
    }

    // Scenario: the failed slice members, over names (sorted: id order is
    // not stable across epochs). Everything else a scenario fails acts
    // through the delivery intervals hashed below.
    let mut failed: Vec<&str> =
        nodes.iter().filter(|&&n| scenario.is_failed(n)).map(|&n| name(net, n)).collect();
    failed.sort_unstable();
    failed.hash(&mut h);

    k.hash(&mut h);

    // Slice membership: name, kind, addresses, and the middlebox model
    // configurations (the debug form is a complete structural rendering
    // of the model IR).
    let mut members: Vec<NodeId> = nodes.to_vec();
    members.sort_by_key(|&n| name(net, n));
    let in_slice: BTreeSet<NodeId> = members.iter().copied().collect();
    for &n in &members {
        let node = net.topo.node(n);
        node.name.hash(&mut h);
        match &node.kind {
            vmn_net::NodeKind::Host => 0u8.hash(&mut h),
            vmn_net::NodeKind::Switch => 1u8.hash(&mut h),
            vmn_net::NodeKind::Middlebox { mbox_type } => (2u8, mbox_type).hash(&mut h),
        }
        for a in &node.addresses {
            a.0.hash(&mut h);
        }
        if node.kind.is_middlebox() {
            if let Some(model) = net.models.get(&n) {
                format!("{model:?}").hash(&mut h);
            }
        }
    }

    // Delivery behaviour: the transfer function's delivery intervals —
    // the list the encoder compiles — restricted to in-slice targets
    // (out-of-slice targets and drops are one outcome to the encoder).
    let tf = TransferFunction::new(&net.topo, &net.tables, scenario);
    for &f in &members {
        if scenario.is_failed(f) {
            continue;
        }
        name(net, f).hash(&mut h);
        for &(first, last, target) in tf.delivery_intervals(f, classes)?.iter() {
            if let Some(t) = target.filter(|t| in_slice.contains(t)) {
                (first, last, name(net, t)).hash(&mut h);
            }
        }
    }

    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn_mbox::models;
    use vmn_net::{Prefix, RoutingConfig, Rule, Topology};

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Many host pairs, each pair isolated behind a shared firewall; a
    /// slice for one pair must not include the others.
    fn many_pairs(n: usize) -> (Network, Vec<(NodeId, NodeId)>) {
        let mut topo = Topology::new();
        let sw = topo.add_switch("sw");
        let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
        topo.add_link(fw, sw);
        let mut pairs = Vec::new();
        for i in 0..n {
            let a = topo.add_host(format!("a{i}"), Address(0x0A000000 + i as u32 * 256 + 1));
            let b = topo.add_host(format!("b{i}"), Address(0x0A000000 + i as u32 * 256 + 2));
            topo.add_link(a, sw);
            topo.add_link(b, sw);
            pairs.push((a, b));
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        // Everything goes through the firewall once: packets arriving from
        // any host are steered to fw; fw re-emissions go direct.
        for &(a, b) in &pairs {
            tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), a, fw).with_priority(10));
            tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), b, fw).with_priority(10));
        }
        let mut net = Network::new(topo, tables);
        net.set_model(
            fw,
            models::learning_firewall(
                "stateful-firewall",
                vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))],
            ),
        );
        (net, pairs)
    }

    fn n(i: u32) -> NodeId {
        // NodeId is an index newtype; fabricate ids directly for the
        // metric tests (no topology needed).
        NodeId(i)
    }

    #[test]
    fn jaccard_metric_basics() {
        let a = vec![n(0), n(1), n(2)];
        let b = vec![n(1), n(2), n(3)];
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &b), 0.5);
        assert_eq!(jaccard(&a, &[n(7), n(8)]), 0.0);
        assert_eq!(jaccard(&[], &[]), 1.0, "two empty slices are identical");
        assert_eq!(jaccard(&a, &[]), 0.0);
    }

    #[test]
    fn identical_slices_always_merge() {
        let s = vec![n(0), n(1), n(2)];
        for threshold in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let clusters = cluster_slices(&[s.clone(), s.clone(), s.clone()], threshold);
            assert_eq!(clusters, vec![vec![0, 1, 2]], "threshold {threshold}");
        }
    }

    #[test]
    fn disjoint_slices_never_merge_above_zero() {
        let slices = vec![vec![n(0), n(1)], vec![n(2), n(3)], vec![n(4), n(5)]];
        for threshold in [0.1, 0.5, 1.0] {
            let clusters = cluster_slices(&slices, threshold);
            assert_eq!(clusters, vec![vec![0], vec![1], vec![2]], "threshold {threshold}");
        }
    }

    #[test]
    fn threshold_zero_degenerates_to_one_union() {
        // Even fully disjoint slices collapse into a single cluster: the
        // PR-2 union-of-all-slices sweep.
        let slices = vec![vec![n(0)], vec![n(1)], vec![n(2)], vec![n(3)]];
        let clusters = cluster_slices(&slices, 0.0);
        assert_eq!(clusters, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn threshold_one_degenerates_to_per_scenario() {
        // Overlapping-but-distinct slices all stay separate; only the
        // identical pair (0, 3) shares a cluster.
        let slices = vec![
            vec![n(0), n(1), n(2)],
            vec![n(0), n(1), n(3)],
            vec![n(0), n(1), n(2), n(4)],
            vec![n(0), n(1), n(2)],
        ];
        let clusters = cluster_slices(&slices, 1.0);
        assert_eq!(clusters, vec![vec![0, 3], vec![1], vec![2]]);
    }

    #[test]
    fn intermediate_threshold_groups_by_overlap() {
        // Two "families" sharing only the invariant endpoints {0, 1}:
        // within a family overlap is 3/5 = 0.6, across families 2/6 ≈
        // 0.33 — a 0.4 threshold splits exactly along families.
        let slices = vec![
            vec![n(0), n(1), n(2), n(3)],
            vec![n(0), n(1), n(2), n(4)],
            vec![n(0), n(1), n(5), n(6)],
            vec![n(0), n(1), n(5), n(7)],
        ];
        let clusters = cluster_slices(&slices, 0.4);
        assert_eq!(clusters, vec![vec![0, 1], vec![2, 3]]);
        // Unsorted input is normalised, not misgrouped.
        let shuffled = vec![
            vec![n(3), n(0), n(2), n(1)],
            vec![n(4), n(2), n(1), n(0)],
            vec![n(6), n(5), n(1), n(0)],
            vec![n(7), n(0), n(5), n(1)],
        ];
        assert_eq!(cluster_slices(&shuffled, 0.4), clusters);
    }

    #[test]
    fn clusters_partition_the_input() {
        let slices = vec![
            vec![n(0), n(1)],
            vec![n(1), n(2)],
            vec![n(9)],
            vec![n(0), n(1)],
            vec![n(3), n(4), n(5)],
        ];
        for threshold in [0.0, 0.3, 0.7, 1.0] {
            let clusters = cluster_slices(&slices, threshold);
            let mut seen: Vec<usize> = clusters.iter().flatten().copied().collect();
            seen.sort();
            assert_eq!(seen, vec![0, 1, 2, 3, 4], "threshold {threshold} must partition");
        }
    }

    #[test]
    fn slice_is_independent_of_network_size() {
        for n in [2usize, 8, 32] {
            let (net, pairs) = many_pairs(n);
            let pc = PolicyClasses::from_groups(vec![]);
            let inv = Invariant::NodeIsolation { src: pairs[0].0, dst: pairs[0].1 };
            let slice = compute_slice(&net, &FailureScenario::none(), &inv, || &pc).unwrap();
            // Slice = the two endpoints + the firewall, regardless of n.
            assert_eq!(slice.len(), 3, "n={n}: slice {slice:?}");
        }
    }

    #[test]
    fn slice_contains_endpoints_and_path_mboxes() {
        let (net, pairs) = many_pairs(4);
        let inv = Invariant::NodeIsolation { src: pairs[2].0, dst: pairs[2].1 };
        // Every box on the path is flow-parallel, so the slice never asks
        // for the policy classes.
        let slice = compute_slice(&net, &FailureScenario::none(), &inv, || {
            panic!("a flow-parallel slice must not read the policy classes")
        })
        .unwrap();
        assert!(slice.contains(&pairs[2].0));
        assert!(slice.contains(&pairs[2].1));
        let fw = net.topo.by_name("fw").unwrap();
        assert!(slice.contains(&fw));
    }

    #[test]
    fn stateful_boxes_classify_the_slice_stateful() {
        // Firewalls (state-reading) and load balancers (rewriting) make a
        // slice ineligible for the BDD backend; pure forwarding + ACL
        // boxes keep it eligible.
        let (net, pairs) = many_pairs(2);
        let fw = net.topo.by_name("fw").unwrap();
        let slice = vec![pairs[0].0, pairs[0].1, fw];
        let none = FailureScenario::none();
        assert_eq!(first_stateful_middlebox(&net, &none, &slice), Some(fw));
        assert!(!stateless_slice(&net, &none, &slice));

        let mut lb_net = net.clone();
        lb_net.set_model(fw, models::load_balancer("lb", addr("10.0.0.9"), vec![addr("10.0.0.1")]));
        assert_eq!(first_stateful_middlebox(&lb_net, &none, &slice), Some(fw));

        let mut acl_net = net.clone();
        acl_net.set_model(
            fw,
            models::acl_firewall("aclfw", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))]),
        );
        assert!(stateless_slice(&acl_net, &none, &slice));

        let mut idps_net = net;
        idps_net.set_model(fw, models::idps("idps"));
        assert!(stateless_slice(&idps_net, &none, &slice), "oracle boxes are stateless");
    }

    #[test]
    fn hosts_only_slices_are_stateless() {
        let (net, pairs) = many_pairs(2);
        let slice = vec![pairs[0].0, pairs[0].1];
        assert!(stateless_slice(&net, &FailureScenario::none(), &slice));
    }

    #[test]
    fn failed_stateful_boxes_do_not_count() {
        // Scenario-dependence: a failed firewall never processes packets,
        // so the slice is stateless exactly under the scenario that
        // fails it.
        let (net, pairs) = many_pairs(2);
        let fw = net.topo.by_name("fw").unwrap();
        let slice = vec![pairs[0].0, pairs[0].1, fw];
        assert!(!stateless_slice(&net, &FailureScenario::none(), &slice));
        assert!(stateless_slice(&net, &FailureScenario::nodes([fw]), &slice));
    }

    #[test]
    fn origin_agnostic_boxes_pull_in_policy_reps() {
        // A cache between clients and a server: slice must include one
        // representative per policy class.
        let mut topo = Topology::new();
        let sw = topo.add_switch("sw");
        let server = topo.add_host("server", addr("10.1.0.1"));
        let c1 = topo.add_host("c1", addr("10.2.0.1"));
        let c2 = topo.add_host("c2", addr("10.2.0.2"));
        let other = topo.add_host("other", addr("10.3.0.1"));
        let cache = topo.add_middlebox("cache", "content-cache", vec![]);
        for n in [server, c1, c2, other, cache] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        for h in [c1, c2, other] {
            tables.add_rule(sw, Rule::from_neighbor(px("10.1.0.0/16"), h, cache).with_priority(10));
        }
        tables
            .add_rule(sw, Rule::from_neighbor(px("10.2.0.0/15"), server, cache).with_priority(10));
        let mut net = Network::new(topo, tables);
        net.set_model(cache, models::content_cache("content-cache", [px("10.1.0.0/16")], vec![]));

        let pc = PolicyClasses::from_groups(vec![vec![c1, c2], vec![other], vec![server]]);
        let inv = Invariant::DataIsolation { origin: server, dst: other };
        let reads = std::cell::Cell::new(0);
        let slice = compute_slice(&net, &FailureScenario::none(), &inv, || {
            reads.set(reads.get() + 1);
            &pc
        })
        .unwrap();
        assert_eq!(reads.get(), 1, "the classes are read once, however many closure rounds run");
        // other + server (endpoints), cache (on path), plus a rep for the
        // {c1, c2} class (c1).
        assert!(slice.contains(&cache));
        assert!(slice.contains(&c1), "needs a representative of the client class: {slice:?}");
        assert!(!slice.contains(&c2), "one representative suffices: {slice:?}");
    }

    /// Two host pairs on one switch. `a0`'s and `a1`'s traffic is steered
    /// through the learning firewall `fw`, which admits only pod 0's own
    /// traffic, and falls back to the allow-all `fwb` when `fw` or its link
    /// is down.
    fn failover() -> Network {
        let mut topo = Topology::new();
        let sw = topo.add_switch("sw");
        let a0 = topo.add_host("a0", addr("10.1.0.1"));
        let b0 = topo.add_host("b0", addr("10.1.0.2"));
        let a1 = topo.add_host("a1", addr("10.2.0.1"));
        let b1 = topo.add_host("b1", addr("10.2.0.2"));
        let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
        let fwb = topo.add_middlebox("fwb", "stateful-firewall", vec![]);
        for n in [a0, b0, a1, b1, fw, fwb] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        for h in [a0, a1] {
            tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), h, fw).with_priority(20));
            tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), h, fwb).with_priority(10));
        }
        let mut net = Network::new(topo, tables);
        let pod0 = vec![(px("10.1.0.0/16"), px("10.1.0.0/16"))];
        net.set_model(fw, models::learning_firewall("stateful-firewall", pod0));
        let all = vec![(px("0.0.0.0/0"), px("0.0.0.0/0"))];
        net.set_model(fwb, models::learning_firewall("stateful-firewall", all));
        net
    }

    fn by_name<const N: usize>(net: &Network, names: [&str; N]) -> [NodeId; N] {
        names.map(|n| net.topo.by_name(n).unwrap())
    }

    /// The fingerprint of `inv` under `scenario` over a given plan.
    fn fingerprint_over(
        v: &crate::Verifier,
        inv: &Invariant,
        scenario: &FailureScenario,
        (nodes, k): (&[NodeId], usize),
    ) -> u64 {
        verdict_fingerprint(v.network(), v.header_classes(), inv, scenario, nodes, k).unwrap()
    }

    /// The fingerprint of `inv` under `scenario` over the engine's own plan.
    fn fingerprint(v: &crate::Verifier, inv: &Invariant, scenario: &FailureScenario) -> u64 {
        let plan = v.plan(inv, scenario).unwrap();
        fingerprint_over(v, inv, scenario, (plan.nodes(), plan.bound()))
    }

    #[test]
    fn a_failure_outside_the_slice_keeps_the_fingerprint() {
        let v = crate::Verifier::new(&failover(), crate::VerifyOptions::default()).unwrap();
        let net = v.network();
        let [a0, b0, a1, sw] = by_name(net, ["a0", "b0", "a1", "sw"]);
        let inv = Invariant::FlowIsolation { src: a0, dst: b0 };
        let none = fingerprint(&v, &inv, &FailureScenario::none());
        for name in ["a1", "b1", "fwb"] {
            let s = FailureScenario::nodes(by_name(net, [name]));
            assert_eq!(fingerprint(&v, &inv, &s), none, "failing {name}");
        }
        let mut link = FailureScenario::none();
        link.failed_links.insert(vmn_net::Link::new(a1, sw));
        assert_eq!(fingerprint(&v, &inv, &link), none, "failing a1's link");
    }

    #[test]
    fn a_failed_slice_member_changes_the_fingerprint() {
        let v = crate::Verifier::new(&failover(), crate::VerifyOptions::default()).unwrap();
        let net = v.network();
        let [a0, b0] = by_name(net, ["a0", "b0"]);
        let inv = Invariant::FlowIsolation { src: a0, dst: b0 };
        let none = fingerprint(&v, &inv, &FailureScenario::none());
        for name in ["fw", "b0"] {
            let s = FailureScenario::nodes(by_name(net, [name]));
            assert_ne!(fingerprint(&v, &inv, &s), none, "failing {name}");
        }
    }

    #[test]
    fn a_failure_that_reroutes_a_live_member_changes_the_fingerprint() {
        // Over the no-failure plan, so that only delivery can differ:
        // with `fw`'s link down `a0`'s packets go to `fwb`, outside the
        // slice; with the switch down they go nowhere.
        let v = crate::Verifier::new(&failover(), crate::VerifyOptions::default()).unwrap();
        let [a0, b0, fw, sw] = by_name(v.network(), ["a0", "b0", "fw", "sw"]);
        let inv = Invariant::FlowIsolation { src: a0, dst: b0 };
        let plan = v.plan(&inv, &FailureScenario::none()).unwrap();
        assert!(plan.nodes().contains(&fw) && !plan.nodes().contains(&sw));
        let over = (plan.nodes(), plan.bound());
        let none = fingerprint_over(&v, &inv, &FailureScenario::none(), over);
        let mut link = FailureScenario::none();
        link.failed_links.insert(vmn_net::Link::new(fw, sw));
        assert_ne!(fingerprint_over(&v, &inv, &link, over), none, "failing fw's link");
        let switch = FailureScenario::nodes([sw]);
        assert_ne!(fingerprint_over(&v, &inv, &switch, over), none, "failing the switch");
    }

    /// Equal fingerprints mean equal verdicts: over every scenario of at
    /// most two failed nodes or one failed link, each invariant's
    /// scenarios are grouped by fingerprint, and every group must agree
    /// with `verify_under`, which decides each scenario on its own.
    #[test]
    fn equal_fingerprints_decide_equal_verdicts() {
        let net = failover();
        let v = crate::Verifier::new(&net, crate::VerifyOptions::default()).unwrap();
        let mut scenarios = vec![FailureScenario::none()];
        let ids: Vec<NodeId> = net.topo.node_ids().collect();
        for (i, &x) in ids.iter().enumerate() {
            scenarios.push(FailureScenario::nodes([x]));
            for &y in &ids[i + 1..] {
                scenarios.push(FailureScenario::nodes([x, y]));
            }
        }
        for &l in net.topo.links() {
            let mut s = FailureScenario::none();
            s.failed_links.insert(l);
            scenarios.push(s);
        }
        let [a0, b0, a1, b1] = by_name(&net, ["a0", "b0", "a1", "b1"]);
        let invariants = [
            Invariant::FlowIsolation { src: a0, dst: b0 },
            Invariant::FlowIsolation { src: a0, dst: b1 },
            Invariant::NodeIsolation { src: a1, dst: b0 },
        ];
        let (mut shared, mut verdicts_seen) = (0, BTreeSet::new());
        for inv in &invariants {
            let mut groups: std::collections::HashMap<u64, Vec<(usize, bool)>> =
                std::collections::HashMap::new();
            for (i, s) in scenarios.iter().enumerate() {
                let holds = v.verify_under(inv, vec![s.clone()]).unwrap().verdict.holds();
                groups.entry(fingerprint(&v, inv, s)).or_default().push((i, holds));
            }
            for group in groups.values().filter(|g| g.len() > 1) {
                shared += group.len();
                verdicts_seen.insert(group[0].1);
                for &(i, holds) in group {
                    assert_eq!(
                        holds, group[0].1,
                        "{inv:?}: scenarios {:?} and {:?} share a fingerprint but not a verdict",
                        scenarios[group[0].0], scenarios[i]
                    );
                }
            }
        }
        // Not vacuous: many scenarios share a fingerprint, on both sides
        // of the verdict.
        assert!(shared > scenarios.len(), "{shared} scenarios in shared groups");
        assert_eq!(verdicts_seen.len(), 2, "shared groups hold and violate");
    }
}

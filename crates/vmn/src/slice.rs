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
use crate::trace::Trace;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use vmn_analysis::Parallelism;
use vmn_mbox::MboxModel;
use vmn_net::{
    translated_intervals, Address, FailureScenario, HeaderClasses, NetError, NodeId, NodeKind,
    TransferFunction,
};

/// Computes the slice for verifying `inv` under `scenario`.
///
/// Returns the terminal set (hosts and middleboxes), sorted. The result
/// always contains the invariant's endpoints; with `use_slices == false`
/// callers should instead pass every terminal to the encoder.
///
/// The datapath is walked on `classes`, the [`HeaderClasses::from_network`]
/// of `net`. `parallelism` holds every middlebox's derived class
/// ([`Network::parallelism_classes`]). `policy` yields the policy
/// classes. It is called at most once, and only when the slice holds a
/// middlebox that is not flow-parallel, so a caller can build the
/// classes on demand.
pub fn compute_slice<'p>(
    net: &Network,
    classes: &HeaderClasses,
    parallelism: &HashMap<NodeId, Parallelism>,
    scenario: &FailureScenario,
    inv: &Invariant,
    policy: impl FnOnce() -> &'p PolicyClasses,
) -> Result<Vec<NodeId>, NetError> {
    let tf = TransferFunction::new(&net.topo, &net.tables, scenario).with_classes(classes);
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

        // A middlebox that is not flow-parallel requires a representative
        // per policy equivalence class (done once; re-closure continues
        // afterwards).
        let needs_reps = policy.take_if(|_| {
            set.iter().any(|&n| {
                net.topo.node(n).kind.is_middlebox()
                    && parallelism.get(&n) != Some(&Parallelism::FlowParallel)
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

/// One planned (invariant, scenario) check, described completely up to a
/// renaming of its nodes and a translation `a ↦ a ^ m` of the address
/// space. Keys compare by `Eq`; two checks with equal keys are one check,
/// and [`Embedding::carry`] moves a witness of one onto the other.
///
/// **What the key holds.** The slice members (the plan's `nodes`) in a
/// canonical order: the invariant's endpoints first, in
/// [`Invariant::endpoints`] order, then the rest sorted by kind and type
/// tag, translated addresses, translated model and failed flag, and members
/// alike in all of those by what each endpoint delivers to them (further
/// ties keep id order, which costs a hit, never soundness: the order only
/// decides which isomorphism equal keys exhibit).
/// The mask `m` is the first address of the invariant's first endpoint,
/// or 0 when that endpoint has none. Each member carries:
///
/// * its kind, middlebox type tag included;
/// * its addresses, each XORed with `m`;
/// * whether the scenario fails it;
/// * its model IR, translated by `m` ([`MboxModel::translated`]);
/// * if it is live, its in-slice delivery: the memoised
///   [`HeaderClasses::delivery_intervals`] (the list the encoder and the
///   BDD check compile), kept where the target is a slice member, with the
///   target given as its canonical index, and translated block by block
///   ([`translated_intervals`]). Out-of-slice targets and drops are one
///   outcome to both backends, so they are left out alike.
///
/// The key also holds the invariant, its nodes given as canonical indices,
/// and the trace bound.
///
/// **Why equal keys give equal verdicts.** Let two checks have equal keys,
/// and let `π` map the first's member at each canonical index to the
/// second's, and `τ(a) = a ^ m₁ ^ m₂`. Then `(π, τ)` maps every input of
/// the first check onto the same input of the second:
///
/// * XOR by a constant is a bijection of the address space that maps every
///   prefix onto a prefix of the same length. So `τ` maps each address and
///   each prefix a model or member names to the one the other check names
///   at the same place, and the key's translated forms are equal exactly
///   when that holds.
/// * `τ` preserves address equality, and with it the unordered endpoint
///   pairs that [`vmn_net::Header::flow`] compares: a flow lookup matches
///   after translation exactly when it matched before. Prefix membership,
///   equality and flow identity are the only ways a model reads an
///   address, so a translated model run on translated packets fires the
///   same rules and emits the translated packets (the commutation
///   property `vmn_mbox`'s tests check).
/// * The only ordered comparison on addresses in a check is the
///   encoder's `delivery_expr` (and the BDD check's reading of the same
///   intervals), and it encodes nothing but membership in the delivery
///   sets. Equal translated delivery sets mean that `π(f)` delivers `τ(a)`
///   to `π(t)` exactly when `f` delivers `a` to `t`, inside the slice.
/// * The failed members, the invariant and the bound correspond under `π`.
///   A failure reaches a check only through the failed members and the
///   delivery of the live ones: the encoder silences failed terminals and
///   ties live emissions to the scenario's intervals; the BDD check starts
///   from the live slice hosts and follows the same intervals; the choice
///   between the two reads the live slice middleboxes. A failed node
///   outside the slice, or a failed link, therefore acts only through
///   delivery. (The contract rung reads the whole scenario, but it only
///   answers `Holds`, and only when the exact engine would.)
///
/// So `(π, τ)` maps each run of the first check to a run of the second and
/// back, violations to violations; the verdicts agree and a witness
/// carries over. Nothing here rests on a hash: a key is compared in full.
///
/// **What it merges on purpose.** Checks that differ only in node names
/// and ids (a node removal renumbers the rest), in a translation of their
/// addresses (isomorphic pods on their own /16s), in a failure outside the
/// slice, or in class splits elsewhere in the network (a routing change
/// three pods over refines the global header classes but leaves this
/// slice's merged delivery as it was). It does not merge checks that need a
/// translation other than XOR: `a_p -> b_{p+1}` keeps the XOR of its two
/// endpoint addresses under every mask, so those pairs stay in as many
/// classes as that XOR takes values.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SliceKey {
    /// The invariant over canonical indices (`NodeId(i)` is member `i`).
    invariant: Invariant,
    bound: usize,
    members: Vec<KeyMember>,
}

/// One slice member as its [`SliceKey`] describes it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct KeyMember {
    kind: NodeKind,
    /// Owned addresses, translated.
    addresses: Vec<Address>,
    /// The model, translated.
    model: Option<MboxModel>,
    failed: bool,
    /// Translated in-slice delivery, targets as canonical indices (empty
    /// for a failed member).
    delivery: Vec<(u32, u32, u32)>,
}

impl KeyMember {
    /// What the canonical order sorts members by first.
    fn shape(&self) -> (&NodeKind, &[Address], &Option<MboxModel>, bool) {
        (&self.kind, &self.addresses, &self.model, self.failed)
    }
}

/// Where one pair's check sits in its [`SliceKey`]: the slice member at
/// each canonical index, by id in the check's epoch, and the mask its
/// addresses were translated by.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Embedding {
    pub members: Vec<NodeId>,
    pub mask: u32,
}

impl SliceKey {
    /// The key of checking `inv` under `scenario` on the plan
    /// (`nodes`, `k`), and where this check sits in it.
    ///
    /// `classes` must be the header classes of `net`
    /// ([`HeaderClasses::from_network`]); they are passed in so one
    /// computation serves every (invariant, scenario) pair of an epoch, and
    /// the interval lists are read from their memo: a list the engine's
    /// sessions or BDD dataplane already swept over the same classes is not
    /// swept again, and neither is one an earlier key swept.
    pub fn new(
        net: &Network,
        classes: &HeaderClasses,
        inv: &Invariant,
        scenario: &FailureScenario,
        nodes: &[NodeId],
        k: usize,
    ) -> Result<(SliceKey, Embedding), NetError> {
        let mut order: Vec<NodeId> = Vec::with_capacity(nodes.len());
        for n in inv.endpoints() {
            if !order.contains(&n) {
                order.push(n);
            }
        }
        let mask =
            order.first().and_then(|&n| net.topo.node(n).addresses.first()).map_or(0, |a| a.0);
        let describe = |n: NodeId| {
            let node = net.topo.node(n);
            let member = KeyMember {
                kind: node.kind.clone(),
                addresses: node.addresses.iter().map(|a| a.translated(mask)).collect(),
                model: net.models.get(&n).map(|m| m.translated(mask)),
                failed: scenario.is_failed(n),
                delivery: Vec::new(),
            };
            (n, member)
        };
        let mut members: Vec<(NodeId, KeyMember)> = order.iter().map(|&n| describe(n)).collect();
        let mut rest: Vec<(NodeId, KeyMember)> =
            nodes.iter().filter(|n| !order.contains(n)).map(|&n| describe(n)).collect();
        rest.sort_by(|(_, a), (_, b)| a.shape().cmp(&b.shape()));
        // Members alike in all of that (identical boxes without addresses)
        // are told apart by what each endpoint delivers to them. Ties left
        // after that keep id order: the key is then still exact, only not
        // canonical, so an isomorphic check may miss it but none can match
        // it wrongly.
        let delivery = |e: NodeId| classes.delivery_intervals(&net.topo, &net.tables, scenario, e);
        let inbound = |n: NodeId| -> Result<Vec<Vec<(u32, u32, ())>>, NetError> {
            let mut from = Vec::with_capacity(order.len());
            for &e in order.iter().filter(|&&e| !scenario.is_failed(e)) {
                let to_n: Vec<(u32, u32, ())> = delivery(e)?
                    .iter()
                    .filter(|iv| iv.2 == Some(n))
                    .map(|&(first, last, _)| (first, last, ()))
                    .collect();
                from.push(translated_intervals(&to_n, mask));
            }
            Ok(from)
        };
        let mut i = 0;
        while i < rest.len() {
            let j =
                i + rest[i..].iter().take_while(|(_, m)| m.shape() == rest[i].1.shape()).count();
            if j - i > 1 {
                let mut alike = rest
                    .drain(i..j)
                    .map(|(n, m)| Ok((inbound(n)?, (n, m))))
                    .collect::<Result<Vec<_>, NetError>>()?;
                alike.sort_by(|a, b| a.0.cmp(&b.0));
                rest.splice(i..i, alike.into_iter().map(|(_, member)| member));
            }
            i = j;
        }
        members.extend(rest);

        // Canonical index by id, sorted for binary search.
        let mut index: Vec<(NodeId, u32)> =
            members.iter().enumerate().map(|(i, (n, _))| (*n, i as u32)).collect();
        index.sort_unstable();
        let index_of = |n: NodeId| index.binary_search_by_key(&n, |e| e.0).ok().map(|i| index[i].1);
        for (n, member) in members.iter_mut().filter(|(_, m)| !m.failed) {
            let in_slice: Vec<(u32, u32, u32)> = delivery(*n)?
                .iter()
                .filter_map(|&(first, last, target)| Some((first, last, index_of(target?)?)))
                .collect();
            member.delivery = translated_intervals(&in_slice, mask);
        }

        let invariant = inv.map_nodes(|n| NodeId(index_of(n).expect("every endpoint is a member")));
        let (ids, members) = members.into_iter().unzip();
        Ok((SliceKey { invariant, bound: k, members }, Embedding { members: ids, mask }))
    }
}

impl Embedding {
    /// A witness of the check this embedding places, carried onto the check
    /// `to` places under an equal [`SliceKey`]: each node moves to the member
    /// at its canonical index in `to`, and each packet's `src`, `dst` and
    /// `origin` are XORed with both masks. Equal keys make the result a
    /// witness of `to`'s check (see [`SliceKey`]).
    ///
    /// # Panics
    ///
    /// If the trace names a node that is not a member here. Neither backend
    /// builds such a witness: both decide a check over its slice alone.
    pub fn carry(&self, trace: &Trace, to: &Embedding) -> Trace {
        let node = |n: NodeId| {
            let i = self.members.iter().position(|&m| m == n);
            to.members[i.expect("a witness names only slice members")]
        };
        let mask = self.mask ^ to.mask;
        let mut trace = trace.clone();
        for step in &mut trace.steps {
            step.actor = step.actor.map(node);
            step.delivered_to = step.delivered_to.map(node);
            step.packet = step.packet.map(|h| h.translated(mask));
        }
        trace
    }
}

/// A 64-bit hash of the [`SliceKey`] of one planned (invariant, scenario)
/// check, for callers that want a compact summary of it (the benchmark's
/// probe times this as the key's cost). Equal keys hash equal; a cache
/// should compare the keys themselves, as the `vmn_serve` daemon does.
pub fn verdict_fingerprint(
    net: &Network,
    classes: &HeaderClasses,
    inv: &Invariant,
    scenario: &FailureScenario,
    nodes: &[NodeId],
    k: usize,
) -> Result<u64, NetError> {
    let (key, _) = SliceKey::new(net, classes, inv, scenario, nodes, k)?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::engine_tests::planned;
    use vmn_mbox::{models, Action};
    use vmn_net::{Prefix, RoutingConfig, Rule, Topology};

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn classes(net: &Network) -> HeaderClasses {
        HeaderClasses::from_network(&net.topo, &net.tables)
    }

    /// [`compute_slice`] without failures, on `net`'s own header and
    /// parallelism classes.
    fn slice_of<'p>(
        net: &Network,
        inv: &Invariant,
        policy: impl FnOnce() -> &'p PolicyClasses,
    ) -> Vec<NodeId> {
        let none = FailureScenario::none();
        compute_slice(net, &classes(net), &net.parallelism_classes(), &none, inv, policy).unwrap()
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
            let slice = slice_of(&net, &inv, || &pc);
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
        let slice = slice_of(&net, &inv, || {
            panic!("a flow-parallel slice must not read the policy classes")
        });
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
        let slice = slice_of(&net, &inv, || {
            reads.set(reads.get() + 1);
            &pc
        });
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
        failover_at(addr("10.1.0.2"))
    }

    /// [`failover`] with `b0` at `b0_addr`.
    fn failover_at(b0_addr: Address) -> Network {
        let mut topo = Topology::new();
        let sw = topo.add_switch("sw");
        let a0 = topo.add_host("a0", addr("10.1.0.1"));
        let b0 = topo.add_host("b0", b0_addr);
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

    /// The key of `inv` under `scenario` over a given plan.
    fn key_over(
        v: &crate::Verifier,
        inv: &Invariant,
        scenario: &FailureScenario,
        (nodes, k): (&[NodeId], usize),
    ) -> SliceKey {
        SliceKey::new(v.network(), v.header_classes(), inv, scenario, nodes, k).unwrap().0
    }

    /// The key of `inv` under `scenario` over the engine's own plan.
    fn key(v: &crate::Verifier, inv: &Invariant, scenario: &FailureScenario) -> SliceKey {
        let plan = planned(v, inv, scenario);
        key_over(v, inv, scenario, (plan.nodes(), plan.bound()))
    }

    #[test]
    fn a_failure_outside_the_slice_keeps_the_key() {
        let v = crate::Verifier::new(&failover(), crate::VerifyOptions::default()).unwrap();
        let net = v.network();
        let [a0, b0, a1, sw] = by_name(net, ["a0", "b0", "a1", "sw"]);
        let inv = Invariant::FlowIsolation { src: a0, dst: b0 };
        let none = key(&v, &inv, &FailureScenario::none());
        for name in ["a1", "b1", "fwb"] {
            let s = FailureScenario::nodes(by_name(net, [name]));
            assert_eq!(key(&v, &inv, &s), none, "failing {name}");
        }
        let mut link = FailureScenario::none();
        link.failed_links.insert(vmn_net::Link::new(a1, sw));
        assert_eq!(key(&v, &inv, &link), none, "failing a1's link");
    }

    #[test]
    fn a_failed_slice_member_changes_the_key() {
        let v = crate::Verifier::new(&failover(), crate::VerifyOptions::default()).unwrap();
        let net = v.network();
        let [a0, b0] = by_name(net, ["a0", "b0"]);
        let inv = Invariant::FlowIsolation { src: a0, dst: b0 };
        let none = key(&v, &inv, &FailureScenario::none());
        for name in ["fw", "b0"] {
            let s = FailureScenario::nodes(by_name(net, [name]));
            assert_ne!(key(&v, &inv, &s), none, "failing {name}");
        }
    }

    #[test]
    fn a_failure_that_reroutes_a_live_member_changes_the_key() {
        // Over the no-failure plan, so that only delivery can differ:
        // with `fw`'s link down `a0`'s packets go to `fwb`, outside the
        // slice; with the switch down they go nowhere.
        let v = crate::Verifier::new(&failover(), crate::VerifyOptions::default()).unwrap();
        let [a0, b0, fw, sw] = by_name(v.network(), ["a0", "b0", "fw", "sw"]);
        let inv = Invariant::FlowIsolation { src: a0, dst: b0 };
        let plan = planned(&v, &inv, &FailureScenario::none());
        assert!(plan.nodes().contains(&fw) && !plan.nodes().contains(&sw));
        let over = (plan.nodes(), plan.bound());
        let none = key_over(&v, &inv, &FailureScenario::none(), over);
        let mut link = FailureScenario::none();
        link.failed_links.insert(vmn_net::Link::new(fw, sw));
        assert_ne!(key_over(&v, &inv, &link, over), none, "failing fw's link");
        let switch = FailureScenario::nodes([sw]);
        assert_ne!(key_over(&v, &inv, &switch, over), none, "failing the switch");
    }

    /// Equal keys mean equal verdicts: over every scenario of at most two
    /// failed nodes or one failed link, each invariant's scenarios are
    /// grouped by key, and every group must agree with `verify_under`,
    /// which decides each scenario on its own.
    #[test]
    fn equal_keys_decide_equal_verdicts() {
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
            let mut groups: std::collections::HashMap<SliceKey, Vec<(usize, bool)>> =
                std::collections::HashMap::new();
            for (i, s) in scenarios.iter().enumerate() {
                let holds = v.verify_under(inv, vec![s.clone()]).unwrap().verdict.holds();
                groups.entry(key(&v, inv, s)).or_default().push((i, holds));
            }
            for group in groups.values().filter(|g| g.len() > 1) {
                shared += group.len();
                verdicts_seen.insert(group[0].1);
                for &(i, holds) in group {
                    assert_eq!(
                        holds, group[0].1,
                        "{inv:?}: scenarios {:?} and {:?} share a key but not a verdict",
                        scenarios[group[0].0], scenarios[i]
                    );
                }
            }
        }
        // Not vacuous: many scenarios share a key, on both sides of the
        // verdict.
        assert!(shared > scenarios.len(), "{shared} scenarios in shared groups");
        assert_eq!(verdicts_seen.len(), 2, "shared groups hold and violate");
    }

    /// A splitmix64 stream: the random networks below need no more.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// A hub network as data, so that it can be built under any node
    /// order, names and address translation: host pairs `a{i}`, `b{i}` on
    /// `10.{i+1}.0.0/16`, firewalls with their models, and steering rules
    /// (host, firewall, prefix, priority).
    #[derive(Clone)]
    struct Hub {
        hosts: Vec<(String, Address)>,
        fws: Vec<(String, MboxModel)>,
        steers: Vec<(usize, usize, Prefix, i32)>,
    }

    impl Hub {
        fn random(rng: &mut Rng) -> Hub {
            const PREFIXES: [&str; 6] = [
                "10.1.0.0/16",
                "10.2.0.0/16",
                "10.3.0.0/16",
                "10.0.0.0/8",
                "0.0.0.0/0",
                "10.1.0.2/32",
            ];
            let pick = |rng: &mut Rng| px(PREFIXES[rng.below(PREFIXES.len() as u64) as usize]);
            let mut hosts = Vec::new();
            for i in 0..2 + rng.below(2) as u32 {
                hosts.push((format!("a{i}"), Address(0x0A00_0001 + ((i + 1) << 16))));
                hosts.push((format!("b{i}"), Address(0x0A00_0002 + ((i + 1) << 16))));
            }
            let mut fws = Vec::new();
            for f in 0..1 + rng.below(2) {
                let acl: Vec<(Prefix, Prefix)> =
                    (0..rng.below(3)).map(|_| (pick(rng), pick(rng))).collect();
                let model = match rng.below(2) {
                    0 => models::learning_firewall("stateful-firewall", acl),
                    _ => models::acl_firewall("acl-firewall", acl),
                };
                fws.push((format!("fw{f}"), model));
            }
            let mut steers = Vec::new();
            for h in 0..hosts.len() {
                for f in 0..fws.len() {
                    if rng.below(2) == 0 {
                        steers.push((h, f, px("10.0.0.0/8"), 30 - 5 * f as i32));
                    }
                }
            }
            Hub { hosts, fws, steers }
        }

        /// The network with its terminals added in `order` (indices over
        /// hosts, then firewalls), each name passed through `rename`, and
        /// every address and prefix translated by `mask`. Returns it with
        /// the id of every terminal in hosts-then-firewalls order.
        fn build(
            &self,
            order: &[usize],
            rename: impl Fn(&str) -> String,
            mask: u32,
        ) -> (Network, Vec<NodeId>) {
            let mut topo = Topology::new();
            let sw = topo.add_switch(rename("sw"));
            let mut ids = vec![NodeId(0); order.len()];
            for &i in order {
                ids[i] = match self.hosts.get(i) {
                    Some((name, a)) => topo.add_host(rename(name), a.translated(mask)),
                    None => {
                        let (name, model) = &self.fws[i - self.hosts.len()];
                        topo.add_middlebox(rename(name), model.type_name.clone(), vec![])
                    }
                };
                topo.add_link(ids[i], sw);
            }
            let mut rc = RoutingConfig::new();
            rc.host_routes(&topo);
            let mut tables = rc.build(&topo, &FailureScenario::none());
            for &(h, f, p, prio) in &self.steers {
                let (from, to) = (ids[h], ids[self.hosts.len() + f]);
                tables.add_rule(
                    sw,
                    Rule::from_neighbor(p.translated(mask), from, to).with_priority(prio),
                );
            }
            let mut net = Network::new(topo, tables);
            for (f, (_, model)) in self.fws.iter().enumerate() {
                net.set_model(ids[self.hosts.len() + f], model.translated(mask));
            }
            (net, ids)
        }
    }

    /// A random hub and a copy of it with its terminals added in another
    /// order under other names, and every address translated by a random
    /// mask: every planned pair has an equal key in both, the same verdict,
    /// and a witness carried from one onto the other replays there.
    #[test]
    fn a_renamed_translated_network_has_equal_keys_and_verdicts() {
        let (mut pairs, mut violated) = (0, 0);
        for seed in 0..12 {
            let mut rng = Rng(seed);
            let hub = Hub::random(&mut rng);
            let n = hub.hosts.len() + hub.fws.len();
            let mut order: Vec<usize> = (0..n).collect();
            let (a, ids_a) = hub.build(&order, str::to_string, 0);
            for i in (1..n).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mask = (rng.below(1 << 32) as u32) | 1;
            let (b, ids_b) = hub.build(&order, |name| format!("{name}'"), mask);
            let va = crate::Verifier::new(&a, crate::VerifyOptions::default()).unwrap();
            let vb = crate::Verifier::new(&b, crate::VerifyOptions::default()).unwrap();
            let hosts = hub.hosts.len();
            let mut scenarios: Vec<Vec<usize>> = vec![vec![]];
            scenarios.extend((hosts..n).map(|f| vec![f]));
            for _ in 0..4 {
                let src = rng.below(hosts as u64) as usize;
                let dst = (src + 1 + rng.below(hosts as u64 - 1) as usize) % hosts;
                let node_isolation = rng.below(2) == 0;
                let inv = |ids: &[NodeId]| match node_isolation {
                    true => Invariant::NodeIsolation { src: ids[src], dst: ids[dst] },
                    false => Invariant::FlowIsolation { src: ids[src], dst: ids[dst] },
                };
                let (inv_a, inv_b) = (inv(&ids_a), inv(&ids_b));
                for failed in &scenarios {
                    let (sa, sb) = (
                        FailureScenario::nodes(failed.iter().map(|&i| ids_a[i])),
                        FailureScenario::nodes(failed.iter().map(|&i| ids_b[i])),
                    );
                    let (pa, pb) = (planned(&va, &inv_a, &sa), planned(&vb, &inv_b, &sb));
                    let key_of = |v: &crate::Verifier, inv, s, p: &crate::Plan| {
                        SliceKey::new(v.network(), v.header_classes(), inv, s, p.nodes(), p.bound())
                            .unwrap()
                    };
                    let ((ka, at_a), (kb, at_b)) =
                        (key_of(&va, &inv_a, &sa, &pa), key_of(&vb, &inv_b, &sb, &pb));
                    assert_eq!(ka, kb, "seed {seed}: {inv_a} under {failed:?}");
                    let fingerprint = |v: &crate::Verifier, inv, s, p: &crate::Plan| {
                        verdict_fingerprint(
                            v.network(),
                            v.header_classes(),
                            inv,
                            s,
                            p.nodes(),
                            p.bound(),
                        )
                        .unwrap()
                    };
                    assert_eq!(
                        fingerprint(&va, &inv_a, &sa, &pa),
                        fingerprint(&vb, &inv_b, &sb, &pb)
                    );
                    let ra = va.verify_planned(&inv_a, vec![(sa, pa)]).unwrap();
                    let rb = vb.verify_planned(&inv_b, vec![(sb.clone(), pb)]).unwrap();
                    assert_eq!(ra.verdict.holds(), rb.verdict.holds(), "seed {seed}: {inv_a}");
                    pairs += 1;
                    if let crate::Verdict::Violated { trace, .. } = &ra.verdict {
                        violated += 1;
                        let carried = at_a.carry(trace, &at_b);
                        let (Invariant::NodeIsolation { src, dst }
                        | Invariant::FlowIsolation { src, dst }) = inv_b
                        else {
                            unreachable!("the test draws isolation invariants only")
                        };
                        let seen = carried.replay(&b, &sb).expect("the carried witness replays");
                        assert!(
                            seen.iter().any(|o| o.at == dst && o.header.src == b.host_address(src)),
                            "seed {seed}: the carried witness of {inv_a} reaches no violation:\n{}",
                            carried.render(&b)
                        );
                    }
                }
            }
        }
        // Not vacuous: both verdicts occur, and witnesses were carried.
        assert!(violated > 0 && violated < pairs, "{violated} of {pairs} pairs violated");
    }

    /// The key of `a0 -> b0` over the engine's plan for `net` under no
    /// failure.
    fn pair_key(net: &Network) -> SliceKey {
        let v = crate::Verifier::new(net, crate::VerifyOptions::default()).unwrap();
        let [a0, b0] = by_name(v.network(), ["a0", "b0"]);
        key(&v, &Invariant::FlowIsolation { src: a0, dst: b0 }, &FailureScenario::none())
    }

    /// Every single mutation of a check gives a different key: a prefix
    /// length (in a model's ACL, and in a steering rule), one bit of a
    /// host address, one ACL pair, one rule action, a member failed, and
    /// the bound one more or one less. An equal key for any of them would
    /// merge two checks that are not the same check.
    #[test]
    fn every_single_mutation_changes_the_key() {
        let base = failover();
        let base_key = pair_key(&base);
        let fw = base.topo.by_name("fw").unwrap();
        let sw = base.topo.by_name("sw").unwrap();
        let with_model = |edit: &dyn Fn(&mut MboxModel)| {
            let mut net = base.clone();
            let mut model = net.model(fw).clone();
            edit(&mut model);
            net.set_model(fw, model);
            net
        };
        let mut mutants: Vec<(&str, Network)> = vec![
            ("ACL prefix length", with_model(&|m| m.acls[0].1[0].0 = px("10.1.0.0/17"))),
            (
                "ACL pair added",
                with_model(&|m| m.acls[0].1.push((px("10.2.0.0/16"), px("10.1.0.0/16")))),
            ),
            ("rule action", with_model(&|m| m.rules[1].actions = vec![Action::Drop])),
        ];
        // The steering rule that sends `a0` to `fw` over a /9 instead of the
        // /8: only delivery moves (10.128/9 now drops instead of reaching fw).
        let mut steer = base.clone();
        let a0 = base.topo.by_name("a0").unwrap();
        let tables = std::sync::Arc::make_mut(&mut steer.tables);
        assert_eq!(tables.remove_rules(sw, |r| r.from == Some(a0) && r.next == fw), 1);
        tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/9"), a0, fw).with_priority(20));
        mutants.push(("steering prefix length", steer));
        // One bit of `b0`'s address (its host route follows).
        mutants.push(("host address bit", failover_at(addr("10.1.1.2"))));
        for (what, net) in &mutants {
            assert_ne!(pair_key(net), base_key, "{what}");
        }

        // The failed flag and the bound, over the base plan.
        let v = crate::Verifier::new(&base, crate::VerifyOptions::default()).unwrap();
        let [a0, b0] = by_name(v.network(), ["a0", "b0"]);
        let inv = Invariant::FlowIsolation { src: a0, dst: b0 };
        let plan = planned(&v, &inv, &FailureScenario::none());
        let (nodes, k) = (plan.nodes(), plan.bound());
        let none = FailureScenario::none();
        assert_eq!(key_over(&v, &inv, &none, (nodes, k)), base_key);
        assert_ne!(
            key_over(&v, &inv, &FailureScenario::nodes([fw]), (nodes, k)),
            base_key,
            "fw failed"
        );
        assert_ne!(key_over(&v, &inv, &none, (nodes, k + 1)), base_key, "bound + 1");
        assert_ne!(key_over(&v, &inv, &none, (nodes, k - 1)), base_key, "bound - 1");
    }
}

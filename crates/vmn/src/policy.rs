//! Policy equivalence classes and invariant symmetry (§4.1–§4.2).
//!
//! Two hosts belong to the same *policy equivalence class* when all
//! packets they send and receive traverse the same middlebox
//! configurations and are treated according to the same policy. Classes
//! are computed by partition refinement: start with hosts grouped by
//! their static policy fingerprint (which of the prefixes and addresses
//! the middlebox models mention contain them) and repeatedly split
//! classes whose members see different middlebox pipelines towards the
//! current classes' representatives, until a fixpoint.
//!
//! Symmetric invariants — those obtained from one another by renaming
//! hosts to same-class hosts — share proofs, so [`group_by_symmetry`] lets
//! the engine verify one representative per group and hand its `Holds` to
//! the rest (§4.2). A violation's witness names its own endpoints, so the
//! members of a violated group are verified on their own.

use crate::invariant::Invariant;
use crate::network::Network;
use std::collections::HashMap;
use std::hash::Hash;
use vmn_analysis::AddressSet;
use vmn_mbox::MboxModel;
use vmn_net::{Address, FailureScenario, HeaderClasses, NodeId, TransferFunction};

/// A partition of the network's hosts into policy equivalence classes.
#[derive(Clone, Debug)]
pub struct PolicyClasses {
    /// Hosts of each class.
    pub classes: Vec<Vec<NodeId>>,
    class_of: HashMap<NodeId, usize>,
}

impl PolicyClasses {
    /// Builds classes from an explicit grouping. Refinement
    /// ([`PolicyClasses::compute`]) returns its result this way; any other
    /// grouping is unchecked, and one coarser than refinement's gives
    /// unsound symmetry.
    pub fn from_groups(groups: Vec<Vec<NodeId>>) -> PolicyClasses {
        let class_of =
            groups.iter().enumerate().flat_map(|(i, g)| g.iter().map(move |&h| (h, i))).collect();
        PolicyClasses { classes: groups, class_of }
    }

    /// Computes classes by partition refinement over the no-failure
    /// transfer function and the middlebox configurations, on header
    /// classes built for the purpose ([`PolicyClasses::compute_over`]).
    pub fn compute(net: &Network) -> PolicyClasses {
        Self::compute_over(net, &HeaderClasses::from_network(&net.topo, &net.tables))
    }

    /// [`PolicyClasses::compute`] walking the static datapath on
    /// `classes`' next-hop runs, which must be
    /// [`HeaderClasses::from_network`] of `net` (the verifier passes its
    /// own, so the runs compiled here serve the sweep that follows).
    ///
    /// Bookkeeping is linear in hosts × classes per round: pipelines and
    /// per-host signatures are interned to small integers, the next
    /// partition is numbered in one pass, and — refinement only ever
    /// splits — a round that does not raise the class count is the
    /// fixpoint.
    pub fn compute_over(net: &Network, classes: &HeaderClasses) -> PolicyClasses {
        let scenario = FailureScenario::none();
        let tf = TransferFunction::new(&net.topo, &net.tables, &scenario).with_classes(classes);
        let hosts: Vec<NodeId> = net.topo.hosts().collect();
        let addrs: Vec<Address> = hosts.iter().map(|&h| net.host_address(h)).collect();

        // Initial partition by static fingerprint: which of the address
        // sets the middlebox models mention contain the host's address
        // (one bit each, packed).
        let mut mentioned: Vec<AddressSet<'_>> = net
            .topo
            .middleboxes()
            .flat_map(|m| vmn_analysis::mentioned_addresses(net.model(m)))
            .collect();
        mentioned.sort();
        mentioned.dedup();
        let (mut class_of, mut num_classes) = number_by_key(hosts.len(), |h, key| {
            key.extend(mentioned.chunks(32).map(|word| {
                word.iter()
                    .enumerate()
                    .fold(0, |w, (bit, p)| w | (p.contains(addrs[h]) as u32) << bit)
            }));
        });

        let mut pipelines = Pipelines::new(net);

        // Refinement: split by pipeline signatures against class
        // representatives. When probing a host's own class, use another
        // member as the representative (a host compared against itself
        // would see a meaningless path and split spuriously).
        loop {
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
            for (h, &c) in class_of.iter().enumerate() {
                members[c as usize].push(h);
            }
            let (next_of, next_num) = number_by_key(hosts.len(), |h, sig| {
                sig.push(class_of[h]);
                for (c, class) in members.iter().enumerate() {
                    let Some(&rep) = class.iter().find(|&&r| r != h) else {
                        continue; // h is the sole member: nothing to probe
                    };
                    sig.push(c as u32);
                    sig.push(pipelines.between(&tf, hosts[h], addrs[rep]));
                    sig.push(pipelines.between(&tf, hosts[rep], addrs[h]));
                }
            });
            class_of = next_of;
            if next_num == num_classes {
                break;
            }
            num_classes = next_num;
        }

        // Hosts are visited in id order, so every class comes out sorted.
        let mut classes = vec![Vec::new(); num_classes];
        for (&h, &c) in hosts.iter().zip(&class_of) {
            classes[c as usize].push(h);
        }
        PolicyClasses::from_groups(classes)
    }

    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    pub fn class_of(&self, h: NodeId) -> Option<usize> {
        self.class_of.get(&h).copied()
    }

    /// One representative host per class.
    pub fn representatives(&self) -> Vec<NodeId> {
        self.classes.iter().filter_map(|c| c.first().copied()).collect()
    }

    pub fn same_class(&self, a: NodeId, b: NodeId) -> bool {
        match (self.class_of(a), self.class_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

/// The id of `key` in `ids`; new keys are numbered in order of first
/// occurrence.
fn intern(ids: &mut HashMap<Vec<u32>, u32>, key: &[u32]) -> u32 {
    if let Some(&id) = ids.get(key) {
        return id;
    }
    let id = ids.len() as u32;
    ids.insert(key.to_vec(), id);
    id
}

/// Partitions items `0..n` by key: `key(i, buf)` writes item `i`'s key
/// into the empty `buf`. Returns each item's class, numbered in order of
/// first occurrence, and the number of classes.
fn number_by_key(n: usize, mut key: impl FnMut(usize, &mut Vec<u32>)) -> (Vec<u32>, usize) {
    let mut ids = HashMap::new();
    let mut buf = Vec::new();
    let class_of = (0..n)
        .map(|i| {
            buf.clear();
            key(i, &mut buf);
            intern(&mut ids, &buf)
        })
        .collect();
    (class_of, ids.len())
}

/// Middlebox pipelines between hosts, interned: two probes get the same
/// id iff they traverse the same sequence of middlebox configurations —
/// type name and model — and end the same way. Boxes of one type with
/// different models (two firewalls with different ACLs) are different
/// steps, so the hosts reached through them are told apart.
struct Pipelines {
    /// Configuration id of every middlebox, by node index (interned once
    /// here, so probing allocates nothing).
    config_of: Vec<u32>,
    ids: HashMap<Vec<u32>, u32>,
    buf: Vec<u32>,
}

impl Pipelines {
    // How a pipeline ends; configuration ids start above these. A static
    // datapath error is its own pipeline, so broken paths never merge
    // with working ones.
    const DELIVERED: u32 = 0;
    const DROPPED: u32 = 1;
    const ERROR: u32 = 2;

    fn new(net: &Network) -> Pipelines {
        let mut configs: HashMap<(&str, &MboxModel), u32> = HashMap::new();
        let mut config_of = vec![u32::MAX; net.topo.num_nodes()];
        for m in net.topo.middleboxes() {
            let fresh = Self::ERROR + 1 + configs.len() as u32;
            let ty = net.topo.mbox_type(m).expect("middleboxes() yields middleboxes");
            config_of[m.index()] = *configs.entry((ty, net.model(m))).or_insert(fresh);
        }
        Pipelines { config_of, ids: HashMap::new(), buf: Vec::new() }
    }

    /// The pipeline a packet from host `from` toward `to` traverses.
    fn between(&mut self, tf: &TransferFunction<'_>, from: NodeId, to: Address) -> u32 {
        self.buf.clear();
        match tf.terminal_path(from, to) {
            Ok((mboxes, end)) => {
                self.buf.extend(mboxes.iter().map(|m| self.config_of[m.index()]));
                self.buf.push(if end.is_some() { Self::DELIVERED } else { Self::DROPPED });
            }
            Err(_) => self.buf.push(Self::ERROR),
        }
        intern(&mut self.ids, &self.buf)
    }
}

/// Groups invariant indices by symmetry, in order of first member; each
/// group's first element is the representative to actually verify. Two
/// invariants are symmetric when they are equal once every host is renamed
/// to the first member of its policy class ([`Invariant::map_nodes`]); any
/// other node, a traversal's `through` boxes included, keeps its identity.
pub fn group_by_symmetry(
    net: &Network,
    pc: &PolicyClasses,
    invariants: &[Invariant],
) -> Vec<Vec<usize>> {
    let rename = |n: NodeId| match pc.class_of(n) {
        Some(c) if net.topo.node(n).kind.is_host() => pc.classes[c][0],
        _ => n,
    };
    group_by(0..invariants.len(), |i| invariants[i].map_nodes(rename))
}

/// Groups `items` by `key`, each group in item order and the groups in
/// order of their first member.
pub(crate) fn group_by<K: Eq + Hash>(
    items: impl IntoIterator<Item = usize>,
    mut key: impl FnMut(usize) -> K,
) -> Vec<Vec<usize>> {
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in items {
        let g = *index.entry(key(i)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    groups
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

    /// Two "web" hosts treated identically and one "admin" host with
    /// extra firewall privileges.
    fn asymmetric_net() -> (Network, Vec<NodeId>) {
        let mut topo = Topology::new();
        let web1 = topo.add_host("web1", addr("10.0.1.1"));
        let web2 = topo.add_host("web2", addr("10.0.1.2"));
        let admin = topo.add_host("admin", addr("10.0.2.1"));
        let ext = topo.add_host("ext", addr("8.8.8.8"));
        let sw = topo.add_switch("sw");
        let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
        for n in [web1, web2, admin, ext, fw] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        // Traffic from ext to anybody goes through the firewall.
        tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), ext, fw).with_priority(10));
        let mut net = Network::new(topo, tables);
        // Firewall: admin may be contacted from outside; web hosts not.
        net.set_model(
            fw,
            models::learning_firewall(
                "stateful-firewall",
                vec![(px("0.0.0.0/0"), px("10.0.2.0/24"))],
            ),
        );
        (net, vec![web1, web2, admin, ext])
    }

    #[test]
    fn refinement_groups_equivalent_hosts() {
        let (net, hosts) = asymmetric_net();
        let pc = PolicyClasses::compute(&net);
        let (web1, web2, admin, ext) = (hosts[0], hosts[1], hosts[2], hosts[3]);
        assert!(pc.same_class(web1, web2), "identical web hosts share a class");
        assert!(!pc.same_class(web1, admin), "admin is treated differently by the ACL");
        assert!(!pc.same_class(web1, ext), "external host differs");
    }

    #[test]
    fn explicit_groups_respected() {
        let (_, hosts) = asymmetric_net();
        let pc = PolicyClasses::from_groups(vec![vec![hosts[0], hosts[1]], vec![hosts[2]]]);
        assert_eq!(pc.num_classes(), 2);
        assert!(pc.same_class(hosts[0], hosts[1]));
        assert_eq!(pc.class_of(hosts[3]), None);
    }

    #[test]
    fn symmetric_invariants_grouped() {
        let (net, hosts) = asymmetric_net();
        let pc = PolicyClasses::compute(&net);
        let (web1, web2, _admin, ext) = (hosts[0], hosts[1], hosts[2], hosts[3]);
        let invs = vec![
            Invariant::NodeIsolation { src: ext, dst: web1 },
            Invariant::NodeIsolation { src: ext, dst: web2 },
            Invariant::FlowIsolation { src: ext, dst: web1 },
        ];
        let groups = group_by_symmetry(&net, &pc, &invs);
        assert_eq!(groups.len(), 2, "the two node-isolation invariants are symmetric");
        assert!(groups.iter().any(|g| g.len() == 2));
    }
}

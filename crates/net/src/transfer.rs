//! Transfer functions: the VeriFlow/HSA-style summary of the static
//! datapath.
//!
//! A transfer function maps a *located packet* — a terminal (host or
//! middlebox) plus a destination address — to the terminal where the
//! static datapath delivers it under a given failure scenario. Walking
//! switch tables hop by hop, it detects static forwarding loops and
//! reports them as [`NetError::ForwardingLoop`] (§3.5 of the paper: VMN
//! raises an exception rather than modelling loops, which also keeps the
//! network axioms decidable).
//!
//! [`HeaderClasses`] implements VeriFlow's equivalence-class trick: split
//! the address space at every prefix boundary appearing in the
//! configuration, and around every terminal's own address, so that all
//! addresses within a class are delivered identically. Slicing and
//! policy-equivalence computation enumerate classes instead of addresses.
//! The classes also own the one delivery table: the per-(scenario, emitter) interval lists
//! of [`TransferFunction::delivery_intervals`], each swept once and shared
//! by every reader of the same classes.

use crate::addr::{Address, Prefix};
use crate::error::NetError;
use crate::fwd::ForwardingTables;
use crate::topology::{FailureScenario, NodeId, NodeKind, Topology};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One run of destination addresses an emitter's packets land alike:
/// `(first, last, target)`, inclusive, `None` for a drop.
pub type Interval = (u32, u32, Option<NodeId>);

/// The image of a labelled interval list under the translation
/// `a ↦ a ^ mask` of the address space, as its maximal runs: sorted,
/// disjoint, and with no two adjacent runs of equal label.
///
/// `intervals` must be disjoint (their order does not matter). XOR by a
/// constant does not keep an interval contiguous, but it maps every aligned
/// block of `2^j` addresses onto an aligned block of the same size, so
/// each interval is split into its aligned blocks (at most 62), each block
/// is translated, and the translated blocks are sorted and merged again.
/// Two lists that label every address alike have the same image, however
/// each splits its runs.
pub fn translated_intervals<T: Copy + PartialEq>(
    intervals: &[(u32, u32, T)],
    mask: u32,
) -> Vec<(u32, u32, T)> {
    let mut blocks: Vec<(u32, u32, T)> = Vec::with_capacity(intervals.len());
    for &(first, last, label) in intervals {
        if mask == 0 {
            blocks.push((first, last, label));
            continue;
        }
        let (mut lo, end) = (u64::from(first), u64::from(last) + 1);
        while lo < end {
            // The largest aligned block that starts at `lo` and ends by `end`.
            let mut size = if lo == 0 { 1u64 << 32 } else { lo & lo.wrapping_neg() };
            while lo + size > end {
                size >>= 1;
            }
            let span = (size - 1) as u32;
            let base = (lo as u32 ^ mask) & !span;
            blocks.push((base, base | span, label));
            lo += size;
        }
    }
    blocks.sort_unstable_by_key(|b| b.0);
    let mut out: Vec<(u32, u32, T)> = Vec::with_capacity(blocks.len());
    for (first, last, label) in blocks {
        match out.last_mut() {
            Some(prev) if prev.2 == label && u64::from(prev.1) + 1 == u64::from(first) => {
                prev.1 = last
            }
            _ => out.push((first, last, label)),
        }
    }
    out
}

/// The transfer function of a network under one failure scenario.
///
/// Borrows the topology, tables and scenario and holds nothing else, so
/// build one wherever a scenario is at hand. What is cached lives
/// elsewhere: each switch's LPM index in the tables (built by the first
/// lookup, dropped by any rule change), and the interval lists of
/// [`TransferFunction::delivery_intervals`] in the [`HeaderClasses`]
/// passed to it. `deliver` and `terminal_path` walk the tables every call.
#[derive(Clone, Copy)]
pub struct TransferFunction<'a> {
    pub topo: &'a Topology,
    pub tables: &'a ForwardingTables,
    pub scenario: &'a FailureScenario,
}

impl<'a> TransferFunction<'a> {
    pub fn new(
        topo: &'a Topology,
        tables: &'a ForwardingTables,
        scenario: &'a FailureScenario,
    ) -> TransferFunction<'a> {
        TransferFunction { topo, tables, scenario }
    }

    /// Delivers a packet emitted by terminal `from` toward `dst`.
    ///
    /// Returns the terminal where the packet next surfaces (a host or a
    /// middlebox), `None` if the static datapath drops it, or an error if
    /// it loops.
    pub fn deliver(&self, from: NodeId, dst: Address) -> Result<Option<NodeId>, NetError> {
        let node = self.topo.node(from);
        if !node.kind.is_terminal() {
            return Err(NetError::WrongNodeKind { node: from, expected: "terminal" });
        }
        if self.scenario.is_failed(from) {
            return Ok(None);
        }
        // Entry: a directly-linked terminal owning `dst` receives the
        // packet without any switch involvement.
        for nb in self.topo.live_neighbors(from, self.scenario) {
            let n = self.topo.node(nb);
            if n.kind.is_terminal() && n.addresses.contains(&dst) {
                return Ok(Some(nb));
            }
        }
        // Otherwise enter the switching fabric. A terminal with several
        // live switch uplinks uses the first that can forward the packet.
        let first_hop = self
            .topo
            .live_neighbors(from, self.scenario)
            .filter(|&nb| matches!(self.topo.node(nb).kind, NodeKind::Switch))
            .find_map(|sw| Some((sw, self.lookup(sw, dst, from)?)));
        let Some((entry, mut next)) = first_hop else {
            return Ok(None);
        };

        // The walk is a deterministic function of (switch, ingress), and
        // every such pair is a link end, so a walk longer than twice the
        // link count has repeated one and will never leave the fabric.
        let mut hops_left = 2 * self.topo.links().len();
        let mut cur = entry;
        loop {
            // `lookup` only returns live, adjacent next hops.
            if self.topo.node(next).kind.is_terminal() {
                return Ok(Some(next));
            }
            if hops_left == 0 {
                return Err(NetError::ForwardingLoop { nodes: self.loop_nodes(from, entry, dst) });
            }
            hops_left -= 1;
            let prev = std::mem::replace(&mut cur, next);
            match self.lookup(cur, dst, prev) {
                Some(n) => next = n,
                None => return Ok(None),
            }
        }
    }

    fn lookup(&self, switch: NodeId, dst: Address, from: NodeId) -> Option<NodeId> {
        self.tables.lookup(self.topo, self.scenario, switch, dst, from)
    }

    /// The nodes of a looping walk up to the first repeated (switch,
    /// ingress) pair — the payload of [`NetError::ForwardingLoop`]. Only
    /// called once `deliver` knows the walk loops, so recording visited
    /// pairs costs the loop-free path nothing.
    fn loop_nodes(&self, from: NodeId, entry: NodeId, dst: Address) -> Vec<NodeId> {
        let mut visited: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut nodes = vec![from, entry];
        let (mut prev, mut cur) = (from, entry);
        while visited.insert((cur, prev)) {
            let Some(next) = self.lookup(cur, dst, prev) else {
                break;
            };
            nodes.push(next);
            (prev, cur) = (cur, next);
        }
        nodes
    }

    /// Where this emitter's packets land, header class by header class,
    /// with adjacent classes of equal outcome merged: [`Interval`]s over
    /// destination addresses, covering the whole address space in order.
    ///
    /// This is the one interval view of the static datapath: the SMT
    /// encoder, the BDD dataplane and the verdict fingerprint each
    /// project it (to node indices, range predicates, in-slice names), so
    /// they agree on every delivery by construction. Merging happens on
    /// the raw targets; a consumer that maps several targets to one
    /// outcome and then discards that outcome (the encoder's and the
    /// fingerprint's out-of-slice "drop") keeps exactly the intervals it
    /// would have kept by merging after projecting.
    ///
    /// The list is memoised in `classes` under (scenario, emitter): only
    /// the first call sweeps the classes, and every later call — from any
    /// reader holding the same classes — gets the same [`Arc`]. `classes`
    /// must therefore be [`HeaderClasses::from_network`] of this transfer
    /// function's topology and tables. A forwarding loop is returned, not
    /// memoised.
    pub fn delivery_intervals(
        &self,
        emitter: NodeId,
        classes: &HeaderClasses,
    ) -> Result<Arc<[Interval]>, NetError> {
        if let Some(hit) = classes.memo().get(self.scenario).and_then(|m| m.get(&emitter)) {
            return Ok(hit.clone());
        }
        // Swept outside the lock, so `verify_all` workers on different
        // scenarios do not serialise; two that race on one list compute
        // the same intervals and the first insert is kept.
        let mut intervals: Vec<Interval> = Vec::new();
        for ci in 0..classes.num_classes() {
            let rep = classes.representative(ci);
            let target = self.deliver(emitter, rep)?;
            let last = if ci + 1 < classes.num_classes() {
                classes.representative(ci + 1).0 - 1
            } else {
                u32::MAX
            };
            match intervals.last_mut() {
                Some(prev) if prev.2 == target => prev.1 = last,
                _ => intervals.push((rep.0, last, target)),
            }
        }
        let mut memo = classes.memo();
        let per_emitter = memo.entry(self.scenario.clone()).or_default();
        Ok(per_emitter.entry(emitter).or_insert_with(|| intervals.into()).clone())
    }

    /// Follows the full middlebox pipeline from `src` toward `dst`,
    /// assuming every middlebox on the way forwards the packet unchanged
    /// (the static-datapath view used for pipeline invariants and policy
    /// equivalence classes).
    ///
    /// Returns the middleboxes traversed in order and the final host (or
    /// `None` if the packet is dropped by the static datapath).
    pub fn terminal_path(
        &self,
        src: NodeId,
        dst: Address,
    ) -> Result<(Vec<NodeId>, Option<NodeId>), NetError> {
        let mut mboxes = Vec::new();
        let mut cur = src;
        loop {
            match self.deliver(cur, dst)? {
                None => return Ok((mboxes, None)),
                Some(t) => {
                    let node = self.topo.node(t);
                    if node.kind.is_middlebox() {
                        // A packet visiting the same middlebox twice on a
                        // static path is a pipeline-level loop.
                        if mboxes.contains(&t) {
                            let mut nodes = mboxes.clone();
                            nodes.push(t);
                            return Err(NetError::ForwardingLoop { nodes });
                        }
                        mboxes.push(t);
                        cur = t;
                    } else {
                        return Ok((mboxes, Some(t)));
                    }
                }
            }
        }
    }
}

/// VeriFlow-style header equivalence classes over destination addresses,
/// and the delivery table over them.
///
/// Built by [`HeaderClasses::from_network`], two addresses in the same
/// class match exactly the same set of table prefixes, hence are treated
/// identically by every switch, and neither is owned by a terminal unless
/// the class is that one address. [`TransferFunction::deliver`] reads the
/// destination only through those two tests — the switch lookups and the
/// entry step's hand-off to a linked terminal that owns it — so every
/// address of a class is delivered like its representative.
///
/// The delivery table memoises [`TransferFunction::delivery_intervals`]
/// per (scenario, emitter). Delivery reads only the topology, the tables
/// and the scenario, so the table is valid exactly as long as the classes
/// are: a holder that keeps the classes across a change of models keeps
/// the table too, and a change of topology or tables needs new classes.
/// Share one instance behind an [`Arc`] and every reader sweeps each list
/// at most once. Equality compares the class splits only.
pub struct HeaderClasses {
    /// Sorted start addresses; class `i` covers `[starts[i], starts[i+1])`.
    starts: Vec<u32>,
    /// scenario → emitter → interval list, filled on demand.
    delivery: Mutex<HashMap<FailureScenario, HashMap<NodeId, Arc<[Interval]>>>>,
}

impl PartialEq for HeaderClasses {
    fn eq(&self, other: &HeaderClasses) -> bool {
        self.starts == other.starts
    }
}

impl Eq for HeaderClasses {}

impl fmt::Debug for HeaderClasses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeaderClasses").field("starts", &self.starts).finish_non_exhaustive()
    }
}

impl HeaderClasses {
    /// Builds classes from every prefix appearing in the tables plus every
    /// terminal's (host's or middlebox's) own addresses.
    pub fn from_network(topo: &Topology, tables: &ForwardingTables) -> HeaderClasses {
        let mut prefixes = tables.prefixes();
        prefixes.extend(
            topo.terminals().flat_map(|t| topo.node(t).addresses.iter().map(|&a| Prefix::host(a))),
        );
        Self::from_prefixes(&prefixes)
    }

    pub fn from_prefixes(prefixes: &[Prefix]) -> HeaderClasses {
        let mut starts: Vec<u32> = vec![0];
        for p in prefixes {
            starts.push(p.first().0);
            if let Some(next) = p.last().0.checked_add(1) {
                starts.push(next);
            }
        }
        starts.sort_unstable();
        starts.dedup();
        HeaderClasses { starts, delivery: Mutex::default() }
    }

    pub fn num_classes(&self) -> usize {
        self.starts.len()
    }

    /// Index of the class containing `a`.
    pub fn class_of(&self, a: Address) -> usize {
        match self.starts.binary_search(&a.0) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// A representative address for class `i`.
    pub fn representative(&self, i: usize) -> Address {
        Address(self.starts[i])
    }

    /// Iterates over one representative per class.
    pub fn representatives(&self) -> impl Iterator<Item = Address> + '_ {
        self.starts.iter().map(|&s| Address(s))
    }

    /// The emitters whose interval lists under `scenario` are memoised,
    /// sorted (diagnostics and tests).
    pub fn memoised_emitters(&self, scenario: &FailureScenario) -> Vec<NodeId> {
        let mut emitters: Vec<NodeId> =
            self.memo().get(scenario).map(|m| m.keys().copied().collect()).unwrap_or_default();
        emitters.sort_unstable();
        emitters
    }

    /// How many scenarios the delivery table holds lists for.
    pub fn memoised_scenarios(&self) -> usize {
        self.memo().len()
    }

    /// Drops the lists of every scenario not in `live` (a scenario its
    /// network no longer declares).
    pub fn retain_scenarios(&self, live: &[FailureScenario]) {
        self.memo().retain(|scenario, _| live.contains(scenario));
    }

    /// The delivery table's lock. A holder only probes or inserts a
    /// finished list, so a poisoned lock is recovered, not propagated.
    fn memo(&self) -> MutexGuard<'_, HashMap<FailureScenario, HashMap<NodeId, Arc<[Interval]>>>> {
        self.delivery.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fwd::{RoutingConfig, Rule};

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// h1 - s1 - fw - s1 (one-armed firewall) and h2 on s2: traffic from
    /// h1 to h2 is steered through fw.
    fn fw_pipeline() -> (Topology, ForwardingTables, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", addr("10.0.1.1"));
        let h2 = t.add_host("h2", addr("10.0.2.1"));
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let fw = t.add_middlebox("fw", "stateful-firewall", vec![]);
        t.add_link(h1, s1);
        t.add_link(fw, s1);
        t.add_link(s1, s2);
        t.add_link(h2, s2);

        let mut rc = RoutingConfig::new();
        rc.host_routes(&t);
        let mut ft = rc.build(&t, &FailureScenario::none());
        // Pipeline: anything from h1 goes to the firewall first.
        ft.add_rule(s1, Rule::from_neighbor(px("0.0.0.0/0"), h1, fw).with_priority(10));
        (t, ft, h1, h2, fw)
    }

    #[test]
    fn deliver_through_pipeline() {
        let (t, ft, h1, h2, fw) = fw_pipeline();
        let none = FailureScenario::none();
        let tf = TransferFunction::new(&t, &ft, &none);
        // First hop lands on the firewall.
        assert_eq!(tf.deliver(h1, addr("10.0.2.1")).unwrap(), Some(fw));
        // The firewall's re-emission reaches h2.
        assert_eq!(tf.deliver(fw, addr("10.0.2.1")).unwrap(), Some(h2));
        // Reverse direction skips the firewall (no pipeline rule).
        assert_eq!(tf.deliver(h2, addr("10.0.1.1")).unwrap(), Some(h1));
    }

    #[test]
    fn terminal_path_collects_middleboxes() {
        let (t, ft, h1, h2, fw) = fw_pipeline();
        let none = FailureScenario::none();
        let tf = TransferFunction::new(&t, &ft, &none);
        let (mboxes, end) = tf.terminal_path(h1, addr("10.0.2.1")).unwrap();
        assert_eq!(mboxes, vec![fw]);
        assert_eq!(end, Some(h2));
        let (mboxes, end) = tf.terminal_path(h2, addr("10.0.1.1")).unwrap();
        assert!(mboxes.is_empty());
        assert_eq!(end, Some(h1));
    }

    #[test]
    fn failed_middlebox_drops_traffic() {
        let (t, ft, h1, _, fw) = fw_pipeline();
        let failed = FailureScenario::nodes([fw]);
        let tf = TransferFunction::new(&t, &ft, &failed);
        // The pipeline rule's next hop is dead and the base rule takes
        // over, bypassing the firewall — exactly the misconfiguration
        // class ("Misconfigured Redundant Routing") §5.1 studies.
        let (mboxes, end) = tf.terminal_path(h1, addr("10.0.2.1")).unwrap();
        assert!(mboxes.is_empty());
        assert!(end.is_some());
    }

    #[test]
    fn forwarding_loop_detected() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", addr("10.0.0.1"));
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        t.add_link(h1, s1);
        t.add_link(s1, s2);
        let mut ft = ForwardingTables::new();
        // s1 and s2 bounce the packet between each other.
        ft.add_rule(s1, Rule::new(px("0.0.0.0/0"), s2));
        ft.add_rule(s2, Rule::new(px("0.0.0.0/0"), s1));
        let none = FailureScenario::none();
        let tf = TransferFunction::new(&t, &ft, &none);
        let err = tf.deliver(h1, addr("10.9.9.9")).unwrap_err();
        assert!(matches!(err, NetError::ForwardingLoop { .. }));
    }

    #[test]
    fn direct_link_delivery_without_switch() {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", addr("10.0.0.1"));
        let h2 = t.add_host("h2", addr("10.0.0.2"));
        t.add_link(h1, h2);
        let ft = ForwardingTables::new();
        let none = FailureScenario::none();
        let tf = TransferFunction::new(&t, &ft, &none);
        assert_eq!(tf.deliver(h1, addr("10.0.0.2")).unwrap(), Some(h2));
        assert_eq!(tf.deliver(h1, addr("10.0.0.9")).unwrap(), None);
    }

    #[test]
    fn delivery_to_failed_destination_drops() {
        let (t, ft, h1, h2, _) = fw_pipeline();
        let failed = FailureScenario::nodes([h2]);
        let tf = TransferFunction::new(&t, &ft, &failed);
        let (_, end) = tf.terminal_path(h1, addr("10.0.2.1")).unwrap();
        assert_eq!(end, None);
    }

    #[test]
    fn header_classes_split_at_prefix_boundaries() {
        let classes = HeaderClasses::from_prefixes(&[px("10.0.0.0/8"), px("10.1.0.0/16")]);
        // Expect classes: [0, 10.0.0.0), [10.0.0.0, 10.1.0.0),
        // [10.1.0.0, 10.2.0.0), [10.2.0.0, 11.0.0.0), [11.0.0.0, max].
        assert_eq!(classes.num_classes(), 5);
        let c = |s: &str| classes.class_of(addr(s));
        assert_eq!(c("10.0.0.1"), c("10.0.255.255"));
        assert_ne!(c("10.0.0.1"), c("10.1.0.1"));
        assert_eq!(c("10.1.0.1"), c("10.1.200.7"));
        assert_ne!(c("10.1.0.1"), c("10.2.0.0"));
        assert_ne!(c("9.255.255.255"), c("10.0.0.0"));
    }

    #[test]
    fn class_representatives_are_members() {
        let classes = HeaderClasses::from_prefixes(&[px("10.0.0.0/8"), px("192.168.0.0/16")]);
        for i in 0..classes.num_classes() {
            let rep = classes.representative(i);
            assert_eq!(classes.class_of(rep), i);
        }
    }

    #[test]
    fn classes_from_network_include_hosts() {
        let (t, ft, _, _, _) = fw_pipeline();
        let classes = HeaderClasses::from_network(&t, &ft);
        let c1 = classes.class_of(addr("10.0.1.1"));
        let c2 = classes.class_of(addr("10.0.2.1"));
        assert_ne!(c1, c2, "distinct hosts land in distinct classes");
    }
}

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
//! addresses within a class are delivered identically. The classes own
//! two tables over that partition:
//!
//! * a compiled next-hop table per switch, as in Delta-net: for each
//!   class, the switch's best adjacent rule, stored as maximal runs of
//!   classes and built once per switch on first use. Where that rule's
//!   next hop is dead under a failure scenario, the hop reads the switch's
//!   *fallback runs* instead: the same compilation over the rules whose
//!   link is live under the scenario, built once per (scenario, switch).
//!   A walk handed the classes ([`TransferFunction::with_classes`]) looks
//!   its destination's class up once and then costs one short binary
//!   search per hop, under every scenario;
//! * the delivery table: the per-(scenario, emitter) interval lists of
//!   [`HeaderClasses::delivery_intervals`], each swept once and shared by
//!   every reader of the same classes. A sweep follows the runs, not the
//!   classes: each walk also reports how far every run it read reaches,
//!   and the sweep resumes after that, so a list costs about one walk per
//!   interval (275 per list on the benchmark's 3 539-class campus, where a
//!   walk per class would take 3 539).
//!
//! Slicing, trace bounds, pipeline checks and policy-equivalence
//! refinement walk the engine's classes; the interval readers (SMT
//! encoder, BDD dataplane, the daemon's slice key `vmn::slice::SliceKey`)
//! read the delivery table. A walk without classes answers each hop with
//! [`ForwardingTables::lookup`], a scan of the switch's rules: the
//! simulator walks so, to replay witnesses independently of the runs.

use crate::addr::{Address, Prefix};
use crate::error::NetError;
use crate::fwd::{ranked, ForwardingTables, Rule};
use crate::topology::{FailureScenario, Link, NodeId, NodeKind, Topology};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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
/// Borrows the topology, tables and scenario, and optionally the header
/// classes of the same topology and tables, and holds nothing else, so
/// build one wherever a scenario is at hand. What is cached lives in the
/// [`HeaderClasses`]: each switch's next-hop runs, its fallback runs per
/// scenario, and the interval lists of
/// [`HeaderClasses::delivery_intervals`]. `deliver` and `terminal_path`
/// walk every call; with classes a hop reads the runs, without them it
/// scans the switch's rules ([`ForwardingTables::lookup`]), which only
/// the simulator and the test references do.
#[derive(Clone, Copy)]
pub struct TransferFunction<'a> {
    pub topo: &'a Topology,
    pub tables: &'a ForwardingTables,
    pub scenario: &'a FailureScenario,
    classes: Option<&'a HeaderClasses>,
}

impl<'a> TransferFunction<'a> {
    pub fn new(
        topo: &'a Topology,
        tables: &'a ForwardingTables,
        scenario: &'a FailureScenario,
    ) -> TransferFunction<'a> {
        TransferFunction { topo, tables, scenario, classes: None }
    }

    /// The same transfer function, walking on `classes`' next-hop runs.
    /// `classes` must be [`HeaderClasses::from_network`] of this transfer
    /// function's topology and tables; the answers are those of the walk
    /// without classes, only cheaper.
    pub fn with_classes(self, classes: &'a HeaderClasses) -> TransferFunction<'a> {
        debug_assert_eq!(classes.hops.len(), self.topo.num_nodes(), "classes of another network");
        TransferFunction { classes: Some(classes), ..self }
    }

    /// Delivers a packet emitted by terminal `from` toward `dst`.
    ///
    /// Returns the terminal where the packet next surfaces (a host or a
    /// middlebox), `None` if the static datapath drops it, or an error if
    /// it loops.
    pub fn deliver(&self, from: NodeId, dst: Address) -> Result<Option<NodeId>, NetError> {
        Ok(self.walk(from, self.destination(dst))?.0)
    }

    /// `dst` with its header class, when this walk has classes.
    fn destination(&self, dst: Address) -> Dst {
        Dst { addr: dst, class: self.classes.map(|c| c.class_of(dst)) }
    }

    /// The walk behind [`TransferFunction::deliver`], with the
    /// destination's class already looked up, and its *reach*: the last
    /// class for which every hop this walk read gives the same answer, so
    /// that every class from `dst`'s up to it is delivered alike (see
    /// [`HeaderClasses::delivery_intervals`], its one reader). A walk
    /// that reads nothing class-dependent reaches `usize::MAX`; without
    /// classes the reach means nothing.
    fn walk(&self, from: NodeId, dst: Dst) -> Result<(Option<NodeId>, usize), NetError> {
        let node = self.topo.node(from);
        if !node.kind.is_terminal() {
            return Err(NetError::WrongNodeKind { node: from, expected: "terminal" });
        }
        let mut reach = usize::MAX;
        if self.scenario.is_failed(from) {
            return Ok((None, reach));
        }
        // Entry: a directly-linked terminal owning `dst` receives the
        // packet without any switch involvement. A terminal's address is
        // a class of its own, so the classes up to the next one such a
        // neighbour owns enter the fabric alike.
        for nb in self.topo.live_neighbors(from, self.scenario) {
            let n = self.topo.node(nb);
            if !n.kind.is_terminal() {
                continue;
            }
            if n.addresses.contains(&dst.addr) {
                return Ok((Some(nb), dst.class.unwrap_or(0)));
            }
            if let (Some(classes), Some(class)) = (self.classes, dst.class) {
                for &a in &n.addresses {
                    let owned = classes.class_of(a);
                    if owned > class {
                        reach = reach.min(owned - 1);
                    }
                }
            }
        }
        // Otherwise enter the switching fabric. A terminal with several
        // live switch uplinks uses the first that can forward the packet.
        let first_hop = self
            .topo
            .live_neighbors(from, self.scenario)
            .filter(|&nb| matches!(self.topo.node(nb).kind, NodeKind::Switch))
            .find_map(|sw| {
                let (hop, last) = self.step(sw, dst, from);
                reach = reach.min(last);
                Some((sw, hop?))
            });
        let Some((entry, mut next)) = first_hop else {
            return Ok((None, reach));
        };

        // The walk is a deterministic function of (switch, ingress), and
        // every such pair is a link end, so a walk longer than twice the
        // link count has repeated one and will never leave the fabric.
        let mut hops_left = 2 * self.topo.links().len();
        let mut cur = entry;
        loop {
            // `step` only returns live, adjacent next hops.
            if self.topo.node(next).kind.is_terminal() {
                return Ok((Some(next), reach));
            }
            if hops_left == 0 {
                return Err(NetError::ForwardingLoop { nodes: self.loop_nodes(from, entry, dst) });
            }
            hops_left -= 1;
            let prev = std::mem::replace(&mut cur, next);
            let (hop, last) = self.step(cur, dst, prev);
            reach = reach.min(last);
            match hop {
                Some(n) => next = n,
                None => return Ok((None, reach)),
            }
        }
    }

    /// Best live next hop at `switch` for a packet to `dst` arriving from
    /// `from`: one hop of the walk, answered like
    /// [`ForwardingTables::lookup`].
    pub fn next_hop(&self, switch: NodeId, dst: Address, from: NodeId) -> Option<NodeId> {
        self.step(switch, self.destination(dst), from).0
    }

    /// [`TransferFunction::next_hop`] with the class looked up, and the
    /// last class this hop answers alike. With classes, the switch's runs
    /// name its best adjacent rule, alike to the end of the runs read; when
    /// that rule's next hop is dead under the scenario, the switch's
    /// fallback runs under the scenario answer instead, alike to the end of
    /// their runs read. They name the best live rule for every class (where
    /// the best adjacent rule is live, that rule), so the runs this hop
    /// skipped bound nothing. Without classes, the switch's rules are
    /// scanned and the reach means nothing.
    // Inlined into the walk together with the run lookups it makes: out of
    // line, these calls cost `campus-static` about 6 % of its sweeps and 9 %
    // of its set-up (A/B on 2 cores).
    #[inline(always)]
    fn step(&self, switch: NodeId, dst: Dst, from: NodeId) -> (Option<NodeId>, usize) {
        let (Some(classes), Some(class)) = (self.classes, dst.class) else {
            return (self.tables.lookup(self.topo, self.scenario, switch, dst.addr, from), 0);
        };
        match classes.next_hop(self.topo, self.tables, switch, class, from) {
            (Some(n), _) if self.scenario.is_link_failed(Link::new(switch, n)) => {
                classes.fallback_hop(self, switch, class, from)
            }
            hop => hop,
        }
    }

    /// The nodes of a looping walk up to the first repeated (switch,
    /// ingress) pair — the payload of [`NetError::ForwardingLoop`]. Only
    /// called once `deliver` knows the walk loops, so recording visited
    /// pairs costs the loop-free path nothing.
    fn loop_nodes(&self, from: NodeId, entry: NodeId, dst: Dst) -> Vec<NodeId> {
        let mut visited: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut nodes = vec![from, entry];
        let (mut prev, mut cur) = (from, entry);
        while visited.insert((cur, prev)) {
            let Some(next) = self.step(cur, dst, prev).0 else {
                break;
            };
            nodes.push(next);
            (prev, cur) = (cur, next);
        }
        nodes
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
        let dst = self.destination(dst);
        let mut mboxes = Vec::new();
        let mut cur = src;
        loop {
            match self.walk(cur, dst)?.0 {
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

/// A walk's destination: the address, and its header class when the walk
/// reads next-hop runs.
#[derive(Clone, Copy)]
struct Dst {
    addr: Address,
    class: Option<usize>,
}

/// VeriFlow-style header equivalence classes over destination addresses,
/// and the two tables over them: per-switch next-hop runs and delivery.
///
/// Built by [`HeaderClasses::from_network`], two addresses in the same
/// class match exactly the same set of table prefixes, hence are treated
/// identically by every switch, and neither is owned by a terminal unless
/// the class is that one address. [`TransferFunction::deliver`] reads the
/// destination only through those two tests — the switch lookups and the
/// entry step's hand-off to a linked terminal that owns it — so every
/// address of a class is delivered like its representative.
///
/// The next-hop table compiles, per switch and on first use, which
/// adjacent rule wins for each class: maximal runs `(first class, next
/// hop)` for packets whose ingress no rule names, and for each ingress an
/// ingress-qualified rule names, the runs where such a rule wins. Prefix
/// membership is constant on a class, so each rule covers a contiguous
/// range of classes, and one sweep over the (nested) ranges finds every
/// class's best-ranked rule exactly. These runs ignore failures: a walk
/// checks the one next hop they name, and when it is dead reads the
/// switch's fallback runs, the same compilation over the rules whose link
/// is live under the scenario. Those are compiled on first use per
/// (scenario, switch) and kept with the scenario's lists, so the hop that
/// needs them pays a lock and a hash and every other hop pays neither.
///
/// The delivery table memoises [`HeaderClasses::delivery_intervals`] per
/// (scenario, emitter). Its sweeps skip along the same runs, fallback runs
/// included: a walk answers for every class up to the nearest run end it
/// met, so a list costs a walk per run of alike classes, not per class.
///
/// Both tables read only the topology, the tables and (delivery and
/// fallback runs) the scenario, so they are valid exactly as long as the
/// classes are: a holder that keeps the classes across a change of models
/// keeps them too, and a change of topology or tables needs new classes.
/// Share one instance behind an [`Arc`] and every reader compiles each
/// switch and sweeps each list at most once. Equality compares the class
/// splits only.
pub struct HeaderClasses {
    /// Sorted start addresses; class `i` covers `[starts[i], starts[i+1])`.
    starts: Vec<u32>,
    /// Next-hop runs by node index, compiled on demand (switches only;
    /// boxed, so a node that is no switch costs a pointer and a flag).
    hops: Box<[OnceLock<Box<NextHops>>]>,
    /// Per scenario: interval lists and fallback runs, filled on demand.
    delivery: Mutex<HashMap<FailureScenario, ScenarioTable>>,
    /// Walks the delivery sweeps have taken (diagnostics).
    walks: AtomicUsize,
}

/// One scenario's part of the delivery table.
#[derive(Default)]
struct ScenarioTable {
    /// emitter → interval list.
    lists: HashMap<NodeId, Arc<[Interval]>>,
    /// switch → fallback runs: the switch's rules whose link is live under
    /// the scenario, compiled for a hop whose best next hop is dead.
    fallback: HashMap<NodeId, NextHops>,
}

/// One switch's compiled next hops: sorted, maximal runs `(first class,
/// label)` covering every class, where a label is a next hop's
/// [`NodeId`] or one of [`NextHops::DROP`] and [`NextHops::DEFER`].
struct NextHops {
    /// The best adjacent unqualified rule's next hop, or `DROP`.
    unqualified: Box<[(u32, u32)]>,
    /// For each ingress an adjacent qualified rule names, sorted: the
    /// next hop where such a rule beats every unqualified one, `DEFER`
    /// (read `unqualified`) elsewhere.
    qualified: Box<[(NodeId, Box<[(u32, u32)]>)]>,
}

impl NextHops {
    /// No adjacent rule matches: the packet is dropped.
    const DROP: u32 = u32::MAX;
    /// No ingress-qualified rule wins: the unqualified runs decide.
    const DEFER: u32 = u32::MAX - 1;

    /// Compiles the switch's adjacent rules whose link is live under
    /// `scenario` into runs over the classes.
    fn compile(
        classes: &HeaderClasses,
        topo: &Topology,
        tables: &ForwardingTables,
        scenario: &FailureScenario,
        switch: NodeId,
    ) -> NextHops {
        let rules = tables.rules(switch);
        let n = classes.num_classes() as u32;
        let span = |pos: usize, r: &Rule| -> Span {
            let first = classes.class_of(r.prefix.first()) as u32;
            // A host route's address is a class of its own.
            let last = match r.prefix.len() {
                32 => first,
                _ => classes.class_of(r.prefix.last()) as u32,
            };
            (first, last, pos as u32, r.next.0)
        };
        let outermost_first = |s: &Span| (s.0, std::cmp::Reverse(s.1));
        let mut unqualified: Vec<Span> = Vec::new();
        let mut qualified: Vec<(NodeId, Span)> = Vec::new();
        // A rule toward a non-neighbour never fires, whatever the scenario,
        // nor one over a link the scenario fails.
        let neighbors = topo.neighbors(switch).iter().copied();
        let dead: Vec<NodeId> =
            neighbors.filter(|&n| scenario.is_link_failed(Link::new(switch, n))).collect();
        let live = |r: &&Rule| topo.is_adjacent(switch, r.next) && !dead.contains(&r.next);
        let ranked = ranked(rules).into_iter().map(|at| &rules[at as usize]);
        for (pos, r) in ranked.filter(live).enumerate() {
            match r.from {
                None => unqualified.push(span(pos, r)),
                Some(f) => qualified.push((f, span(pos, r))),
            }
        }
        unqualified.sort_unstable_by_key(outermost_first);
        qualified.sort_unstable_by_key(|&(f, s)| (f, outermost_first(&s)));
        // An ingress's runs name its qualified rules where one wins; where
        // an unqualified rule outranks them, they defer to it.
        let qualified = qualified
            .chunk_by(|a, b| a.0 == b.0)
            .map(|chunk| {
                let deferring =
                    unqualified.iter().map(|&(lo, hi, pos, _)| (lo, hi, pos, Self::DEFER));
                let mut spans: Vec<Span> = deferring.chain(chunk.iter().map(|q| q.1)).collect();
                // Two sorted runs: the stable sort merges them in one pass.
                spans.sort_by_key(outermost_first);
                (chunk[0].0, sweep(&spans, n, Self::DEFER))
            })
            .collect();
        NextHops { unqualified: sweep(&unqualified, n, Self::DROP), qualified }
    }

    /// The best adjacent rule's next hop for `class` arriving from `from`,
    /// `None` when no adjacent rule matches, and the last class of the
    /// runs read: under `DEFER`, the earlier end of the qualified run and
    /// the unqualified one.
    #[inline(always)]
    fn next_hop(&self, class: usize, from: NodeId) -> (Option<NodeId>, usize) {
        let (label, last) = match self.qualified.binary_search_by_key(&from, |&(f, _)| f) {
            Ok(i) => run_at(&self.qualified[i].1, class),
            Err(_) => (Self::DEFER, usize::MAX),
        };
        let (label, last) = match label {
            Self::DEFER => {
                let (label, end) = run_at(&self.unqualified, class);
                (label, last.min(end))
            }
            _ => (label, last),
        };
        ((label != Self::DROP).then_some(NodeId(label)), last)
    }

    /// The heap bytes of the run lists.
    fn bytes(&self) -> usize {
        let run = std::mem::size_of::<(u32, u32)>();
        let lists = self.qualified.iter().map(|(_, runs)| runs.len() * run).sum::<usize>();
        self.unqualified.len() * run
            + self.qualified.len() * std::mem::size_of::<(NodeId, Box<[(u32, u32)]>)>()
            + lists
    }
}

/// The label of `class` in a run list that starts at class 0, and the
/// last class of its run (`usize::MAX` for the final run).
#[inline(always)]
fn run_at(runs: &[(u32, u32)], class: usize) -> (u32, usize) {
    let next = runs.partition_point(|&(first, _)| first as usize <= class);
    (runs[next - 1].1, runs.get(next).map_or(usize::MAX, |&(first, _)| first as usize - 1))
}

/// A rule on the classes: `(first class, last class, ranked position,
/// label)`.
type Span = (u32, u32, u32, u32);

/// The maximal runs of the best-ranked span's label over all `n` classes,
/// `uncovered` where no span reaches.
///
/// The spans come from prefixes, so any two are nested or disjoint, and
/// must be sorted outermost first (by first class, then last class
/// descending). One sweep keeps the spans enclosing the cursor on a
/// stack, each entry carrying the best-ranked span of the chain up to it,
/// and emits a run wherever the innermost enclosing span changes: the
/// cost is in rules, not classes.
fn sweep(spans: &[Span], n: u32, uncovered: u32) -> Box<[(u32, u32)]> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut push = |first: u32, label: u32| {
        if runs.last().is_none_or(|&(_, prev)| prev != label) {
            runs.push((first, label));
        }
    };
    // (last class, best ranked position on the chain, its label).
    let mut stack: Vec<(u32, u32, u32)> = Vec::new();
    let mut cursor = 0u32;
    for &(first, last, pos, label) in spans {
        while let Some(&(end, _, best)) = stack.last().filter(|top| top.0 < first) {
            if cursor <= end {
                push(cursor, best);
                cursor = end + 1;
            }
            stack.pop();
        }
        if cursor < first {
            push(cursor, stack.last().map_or(uncovered, |top| top.2));
            cursor = first;
        }
        let best = match stack.last() {
            Some(&(_, better, best)) if better < pos => (better, best),
            _ => (pos, label),
        };
        stack.push((last, best.0, best.1));
    }
    while let Some((end, _, best)) = stack.pop() {
        if cursor <= end {
            push(cursor, best);
            cursor = end + 1;
        }
    }
    if cursor < n {
        push(cursor, uncovered);
    }
    runs.into_boxed_slice()
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
        let mut classes = Self::from_prefixes(&prefixes);
        classes.hops = (0..topo.num_nodes()).map(|_| OnceLock::new()).collect();
        classes
    }

    /// Classes split at `prefixes`, for the split alone: they hold no
    /// next-hop table, so no walk may read them (a walk's first hop on
    /// them panics). Walks take [`HeaderClasses::from_network`]'s.
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
        HeaderClasses {
            starts,
            hops: Box::default(),
            delivery: Mutex::default(),
            walks: AtomicUsize::new(0),
        }
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

    /// The best adjacent rule's next hop at `switch` for class `class`
    /// arriving from `from`, failures ignored, with the last class its runs
    /// give the same answer: `None` when no adjacent rule matches.
    /// Compiles the switch's runs on first use.
    #[inline(always)]
    fn next_hop(
        &self,
        topo: &Topology,
        tables: &ForwardingTables,
        switch: NodeId,
        class: usize,
        from: NodeId,
    ) -> (Option<NodeId>, usize) {
        let none = FailureScenario::none();
        let hops = self.hops[switch.index()]
            .get_or_init(|| Box::new(NextHops::compile(self, topo, tables, &none, switch)));
        hops.next_hop(class, from)
    }

    /// [`HeaderClasses::next_hop`] over `switch`'s fallback runs under
    /// `tf`'s scenario: the best rule whose link is live. Compiled on first
    /// use, outside the lock; two walks that race on one switch compile
    /// the same runs and the first insert is kept.
    // Kept out of the walk `step` is inlined into: only a hop behind a dead
    // best next hop comes here.
    #[cold]
    fn fallback_hop(
        &self,
        tf: &TransferFunction<'_>,
        switch: NodeId,
        class: usize,
        from: NodeId,
    ) -> (Option<NodeId>, usize) {
        if let Some(runs) = self.memo().get(tf.scenario).and_then(|t| t.fallback.get(&switch)) {
            return runs.next_hop(class, from);
        }
        let runs = NextHops::compile(self, tf.topo, tf.tables, tf.scenario, switch);
        let mut memo = self.memo();
        let table = memo.entry(tf.scenario.clone()).or_default();
        table.fallback.entry(switch).or_insert(runs).next_hop(class, from)
    }

    /// Where `emitter`'s packets land under `scenario`, header class by
    /// header class, with adjacent classes of equal outcome merged:
    /// [`Interval`]s over destination addresses, covering the whole address
    /// space in order. `topo` and `tables` must be those these classes were
    /// built from ([`HeaderClasses::from_network`]).
    ///
    /// This is the one interval view of the static datapath: the SMT
    /// encoder, the BDD dataplane and the slice key (`vmn::slice::SliceKey`)
    /// each project it (to node indices, range predicates, canonical member
    /// indices), so they agree on every delivery by construction. Merging
    /// happens on the raw targets; a consumer that maps several targets to
    /// one outcome and then discards that outcome (the encoder's
    /// out-of-slice "drop", the targets the slice key leaves out) keeps
    /// exactly the intervals it would have kept by merging after
    /// projecting.
    ///
    /// The sweep walks on the next-hop runs, one walk per run of classes
    /// rather than per class. A walk reports its reach: the last class for
    /// which every hop it read answers alike. Each run a hop reads ends one
    /// class before the next run starts (under an ingress that defers to
    /// the unqualified runs, the earlier of the two ends), a hop behind a
    /// dead best next hop reading the fallback runs; and the entry step
    /// holds up to the next class a live terminal neighbour of the emitter
    /// owns. Every class up to the reach lands where the walk did, so the
    /// next walk starts after it. The lists equal the class-by-class
    /// sweep's.
    ///
    /// The list is memoised under (scenario, emitter): only the first call
    /// sweeps the classes, and every later call — from any reader holding
    /// the same classes — gets the same [`Arc`]. A forwarding loop is
    /// returned, not memoised. [`HeaderClasses::delivery_walks`] counts the
    /// walks.
    pub fn delivery_intervals(
        &self,
        topo: &Topology,
        tables: &ForwardingTables,
        scenario: &FailureScenario,
        emitter: NodeId,
    ) -> Result<Arc<[Interval]>, NetError> {
        if let Some(hit) = self.memo().get(scenario).and_then(|t| t.lists.get(&emitter)) {
            return Ok(hit.clone());
        }
        // Swept outside the lock, so `verify_all` workers on different
        // scenarios do not serialise; two that race on one list compute
        // the same intervals and the first insert is kept.
        let tf = TransferFunction::new(topo, tables, scenario).with_classes(self);
        let n = self.num_classes();
        let mut intervals: Vec<Interval> = Vec::new();
        let mut ci = 0;
        while ci < n {
            let rep = self.representative(ci);
            let (target, reach) = tf.walk(emitter, Dst { addr: rep, class: Some(ci) })?;
            self.walks.fetch_add(1, Ordering::Relaxed);
            // Every reach covers the walk's own class; the clamp keeps the
            // sweep moving forward whatever a walk reports.
            let reach = reach.clamp(ci, n - 1);
            let last = if reach + 1 < n { self.representative(reach + 1).0 - 1 } else { u32::MAX };
            match intervals.last_mut() {
                Some(prev) if prev.2 == target => prev.1 = last,
                _ => intervals.push((rep.0, last, target)),
            }
            ci = reach + 1;
        }
        let mut memo = self.memo();
        let lists = &mut memo.entry(scenario.clone()).or_default().lists;
        Ok(lists.entry(emitter).or_insert_with(|| intervals.into()).clone())
    }

    /// The switches whose next-hop runs are compiled, sorted (diagnostics
    /// and tests).
    pub fn compiled_switches(&self) -> Vec<NodeId> {
        let compiled = self.hops.iter().enumerate().filter(|(_, h)| h.get().is_some());
        compiled.map(|(i, _)| NodeId(i as u32)).collect()
    }

    /// The heap bytes of the next-hop table: a slot per node, and the
    /// runs of every compiled switch (diagnostics).
    pub fn next_hop_bytes(&self) -> usize {
        let slots = self.hops.len() * std::mem::size_of::<OnceLock<Box<NextHops>>>();
        let compiled = self.hops.iter().filter_map(OnceLock::get);
        slots + compiled.map(|h| std::mem::size_of::<NextHops>() + h.bytes()).sum::<usize>()
    }

    /// The emitters whose interval lists under `scenario` are memoised,
    /// sorted (diagnostics and tests).
    pub fn memoised_emitters(&self, scenario: &FailureScenario) -> Vec<NodeId> {
        self.memoised(scenario, |t| t.lists.keys().copied().collect())
    }

    /// The switches whose fallback runs under `scenario` are compiled,
    /// sorted (diagnostics and tests).
    pub fn fallback_switches(&self, scenario: &FailureScenario) -> Vec<NodeId> {
        self.memoised(scenario, |t| t.fallback.keys().copied().collect())
    }

    fn memoised(
        &self,
        scenario: &FailureScenario,
        keys: fn(&ScenarioTable) -> Vec<NodeId>,
    ) -> Vec<NodeId> {
        let mut nodes = self.memo().get(scenario).map(keys).unwrap_or_default();
        nodes.sort_unstable();
        nodes
    }

    /// How many walks the delivery sweeps of
    /// [`HeaderClasses::delivery_intervals`] have taken on these
    /// classes (diagnostics and tests). A sweep walks once per run of
    /// classes that every hop answers alike, so a list costs at least one
    /// walk per interval and, on a network with any such runs, fewer than
    /// one per class.
    pub fn delivery_walks(&self) -> usize {
        self.walks.load(Ordering::Relaxed)
    }

    /// How many scenarios the delivery table holds lists or fallback runs
    /// for.
    pub fn memoised_scenarios(&self) -> usize {
        self.memo().len()
    }

    /// Drops the lists and fallback runs of every scenario not in `live`
    /// (a scenario its network no longer declares).
    pub fn retain_scenarios(&self, live: &[FailureScenario]) {
        self.memo().retain(|scenario, _| live.contains(scenario));
    }

    /// The delivery table's lock. A holder only probes or inserts a
    /// finished list, so a poisoned lock is recovered, not propagated.
    fn memo(&self) -> MutexGuard<'_, HashMap<FailureScenario, ScenarioTable>> {
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

    /// Behind the failed firewall every class `h1` sends meets a dead best
    /// next hop at `s1`. The hop reads `s1`'s fallback runs, which report a
    /// reach like any other run, so the sweep still skips along runs of
    /// classes instead of walking each one, and lands every class where the
    /// walk without classes does.
    #[test]
    fn a_dead_best_next_hop_sweeps_by_runs() {
        let (t, mut ft, h1, h2, fw) = fw_pipeline();
        let (s1, s2) = (t.by_name("s1").unwrap(), t.by_name("s2").unwrap());
        ft.add_rule(s1, Rule::new(px("10.0.0.0/8"), s2));
        for p in ["10.0.3.0/24", "10.0.4.0/24", "10.0.5.0/24", "10.0.6.0/24"] {
            ft.add_rule(s2, Rule::new(px(p), h2));
        }
        let failed = FailureScenario::nodes([fw]);
        let classes = HeaderClasses::from_network(&t, &ft);
        let n = classes.num_classes();
        let list = classes.delivery_intervals(&t, &ft, &failed, h1).unwrap();
        let walks = classes.delivery_walks();
        assert!(walks < n, "{walks} walks for {n} classes");
        assert_eq!(classes.fallback_switches(&failed), vec![s1]);

        let reference = TransferFunction::new(&t, &ft, &failed);
        let mut by_class: Vec<Interval> = Vec::new();
        for (ci, rep) in classes.representatives().enumerate() {
            let target = reference.deliver(h1, rep).unwrap();
            let last = if ci + 1 < n { classes.representative(ci + 1).0 - 1 } else { u32::MAX };
            match by_class.last_mut() {
                Some(prev) if prev.2 == target => prev.1 = last,
                _ => by_class.push((rep.0, last, target)),
            }
        }
        assert_eq!(&list[..], &by_class[..]);
        assert!(by_class.iter().any(|iv| iv.2 == Some(h2)), "the fallback route reaches h2");
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

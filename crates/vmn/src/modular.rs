//! Modular verification: partitions, synthesized boundary contracts
//! and the contract fast path.
//!
//! The network is split into modules ([`Partition`], explicit or from
//! the auto-partitioner). For every live non-host node the synthesizer
//! computes a [`WindowSet`] over-approximating the `(src, dst)` address
//! headers of packets that can arrive at it under a scenario, by a
//! worklist fixpoint over the delivery semantics of
//! [`vmn_net::transfer`]. Each node's emission is a function of what
//! arrived at it, and each edge's crossing a function of what its tail
//! emits:
//!
//! * a live host emits `(own address, any)` windows — the encoder only
//!   admits well-formed sends, so sources cannot be spoofed (src seeds
//!   are widened to the covering aggregate of host prefixes, which only
//!   adds headers and keeps the fixpoint small on large estates);
//! * a switch forwards a window to a live neighbour after narrowing the
//!   destination side by the union of its rules toward that neighbour
//!   (priorities and `from` qualifiers are ignored — a sound widening);
//! * a middlebox emits according to its [`ForwardSummary`]: a
//!   pass-through filter re-emits the arrived windows intersected with
//!   the summary's set, while a model that can rewrite or replay
//!   headers emits *any* header as soon as anything at all reaches it —
//!   a rewritten packet (a load balancer's VIP→backend, a NAT's
//!   restored destination, a cache's replayed response) occupies
//!   windows unrelated to the ones it arrived in, so intersecting with
//!   the arrival would unsoundly drop it;
//! * terminals deliver directly to adjacent terminals owning the
//!   destination, and inject into every adjacent switch.
//!
//! Windows are built from prefixes mentioned in the configuration
//! (intersection of two prefixes is the longer one or empty), so the
//! fixpoint terminates.
//!
//! Hosts are sinks. A host's emission is its seed and ignores what
//! arrives at it, so an arrival at a host feeds no other constraint, and
//! the fixpoint never propagates into one. The arrivals are the
//! fixpoint's whole state ([`CrossMap`]); the crossing of any directed
//! edge, host-bound ones included, is derived from its tail's arrivals
//! on demand by the same two transfer functions the fixpoint runs. That equals what a fixpoint storing
//! every edge would accumulate, window for window: a transfer is
//! monotone, so each value it took along the run lies below its value
//! at the end, and a [`WindowSet`] holds the maximal windows of whatever
//! was inserted into it, so the union of those values is the last one.
//!
//! A model swap resumes the fixpoint instead of restarting it
//! ([`ModularContext::carry`]). A [`WindowSet`] is a canonical form: its
//! maximal windows, or the `any` flag. Order window sets by
//! [`WindowSet::implies`], with `any` above everything. Union is then the
//! join, and intersection with a fixed set is the meet. Switch narrowing
//! and terminal hand-off are intersections, and a rewriting box's "`any`
//! once anything arrives" is monotone. So the arrivals are the least
//! fixpoint of monotone transfers, one per node. A swap changes only the
//! touched boxes' transfers. Suppose every touched box's new summary
//! covers its old one: `old.implies(new)`, or a filter became a rewrite.
//! Then each new transfer lies above the old one pointwise, and the new
//! least fixpoint lies above the old one. Every worklist step from a
//! state below a least fixpoint stays below it. The old arrivals satisfy
//! every constraint except possibly the ones the touched boxes feed. So
//! re-enqueueing the touched boxes and iterating from the old arrivals
//! ends exactly at the new least fixpoint. Its canonical form is what a
//! run from the hosts computes, so the result is `==` to it, window for
//! window. Crossings are derived, not stored, so carrying the arrivals
//! carries them too. A narrowing swap has no such start and recomputes
//! from the hosts.
//!
//! The window sets on cut edges *are* the module contracts: what one
//! module may send over a cut edge and what its neighbour may receive
//! over it are the same synthesized set, so the contracts compose by
//! construction. None is declared; every contract is derived from the
//! network itself.
//!
//! The fast path answers isolation invariants whose endpoints lie in
//! *different* modules: both `NodeIsolation` and `FlowIsolation`
//! violations require `dst` to receive a packet whose source header is
//! `src`'s address, so when no window on any live edge into `dst`
//! admits such a header the invariant holds. Anything inconclusive
//! falls back to the exact engine, which keeps modular verdicts and
//! witnesses identical to the monolithic ones by construction.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use vmn_analysis::contract::prefix_intersect;
use vmn_analysis::{auto_partition, Partition, WindowSet};
use vmn_mbox::{Action, Guard, KeyExpr, MboxModel};
use vmn_net::{FailureScenario, Link, NodeId, Prefix, Topology};

use crate::invariant::Invariant;
use crate::network::Network;

/// Recursion bound for state-read summaries (a rule inserting into a
/// state set may itself be guarded by a state read).
const STATE_DEPTH_LIMIT: u32 = 3;

/// CIDR-aggregates a prefix list: covered prefixes are dropped and
/// sibling pairs merge into their parent, repeatedly. The result is the
/// sorted maximal aligned blocks of the input's union, a disjoint cover
/// of the input (exact, not a widening).
///
/// One pass over the sorted input suffices: a prefix sorts after every
/// prefix covering it, and the output so far is disjoint and ascending,
/// so its last block is the only one that can cover the next prefix or be
/// that prefix's lower sibling — and after a merge, the only candidate
/// sibling of the parent is the block below it.
pub fn aggregate_prefixes(mut ps: Vec<Prefix>) -> Vec<Prefix> {
    ps.sort_unstable();
    ps.dedup();
    // Grown on demand, not sized to the input: the per-epoch prelude keeps
    // every result, and thousands of host routes aggregate to a handful.
    let mut out: Vec<Prefix> = Vec::new();
    for p in ps {
        if out.last().is_some_and(|top| top.covers(p)) {
            continue;
        }
        let mut block = p;
        while let Some(&top) = out.last() {
            if top.len() != block.len() || top.len() == 0 {
                break;
            }
            let parent = Prefix::new(top.addr(), top.len() - 1);
            if !parent.covers(block) {
                break;
            }
            out.pop();
            block = parent;
        }
        out.push(block);
    }
    out
}

fn any_dst() -> Prefix {
    Prefix::default_route()
}

/// Windows a packet may occupy while satisfying `g` — an
/// over-approximation ("maybe" semantics: anything not expressible as
/// address windows widens to `any`).
fn guard_windows(model: &MboxModel, g: &Guard, depth: u32) -> WindowSet {
    match g {
        Guard::True
        | Guard::Not(_)
        | Guard::Oracle(_)
        | Guard::SrcPortIs(_)
        | Guard::DstPortIs(_)
        | Guard::OriginIn(_)
        | Guard::OriginIs(_) => WindowSet::any(),
        Guard::And(gs) => gs
            .iter()
            .fold(WindowSet::any(), |acc, g| acc.intersect(&guard_windows(model, g, depth))),
        Guard::Or(gs) => {
            let mut out = WindowSet::empty();
            for g in gs {
                out.union_with(&guard_windows(model, g, depth));
            }
            out
        }
        Guard::SrcIn(p) => WindowSet::window(*p, any_dst()),
        Guard::DstIn(p) => WindowSet::window(any_dst(), *p),
        Guard::SrcIs(a) => WindowSet::window(Prefix::host(*a), any_dst()),
        Guard::DstIs(a) => WindowSet::window(any_dst(), Prefix::host(*a)),
        Guard::AclMatch(name) => {
            let mut out = WindowSet::empty();
            for &(s, d) in model.acl_pairs(name).unwrap_or(&[]) {
                out.insert((s, d));
            }
            out
        }
        Guard::StateContains { state, key } => state_read_windows(model, state, *key, depth),
    }
}

/// Projects the windows of one header side into a prefix list, `None`
/// meaning unconstrained.
fn project(ws: &WindowSet, src_side: bool) -> Option<Vec<Prefix>> {
    if ws.is_any() {
        return None;
    }
    Some(ws.windows.iter().map(|&(s, d)| if src_side { s } else { d }).collect())
}

fn constrain(side_src: bool, ps: Option<Vec<Prefix>>) -> WindowSet {
    match ps {
        None => WindowSet::any(),
        Some(v) => {
            let mut out = WindowSet::empty();
            for p in v {
                if side_src {
                    out.insert((p, any_dst()));
                } else {
                    out.insert((any_dst(), p));
                }
            }
            out
        }
    }
}

/// Windows of packets that can pass a `StateContains { state, key }`
/// read: a function of the windows of packets that can *insert* into
/// the state, combined per (read key, declared key). Models containing
/// header rewrites never reach this (their summary is
/// [`ForwardSummary::Rewrite`], computed without looking at guards), so
/// insert-time headers equal guard-time headers.
fn state_read_windows(model: &MboxModel, state: &str, read_key: KeyExpr, depth: u32) -> WindowSet {
    if depth >= STATE_DEPTH_LIMIT {
        return WindowSet::any();
    }
    let Some(decl) = model.state_decl(state) else {
        return WindowSet::any();
    };
    let mut inserted = WindowSet::empty();
    for rule in &model.rules {
        if rule.actions.iter().any(|a| matches!(a, Action::Insert(s) if s == state)) {
            inserted.union_with(&guard_windows(model, &rule.guard, depth + 1));
        }
    }
    use KeyExpr::*;
    match (read_key, decl.key) {
        // Origin keys are not constrained by address windows at all.
        (Origin, _) | (_, Origin) => WindowSet::any(),
        // Pair-valued keys match exactly (Flow is direction-normalised,
        // so the reverse of an inserted pair also matches).
        (Flow, Flow) | (SrcDst, SrcDst) => {
            let mut out = inserted.clone();
            out.union_with(&inserted.reversed());
            out
        }
        // Address-valued keys: the read side's field must fall in the
        // projection of the inserting windows on the declared side.
        (SrcAddr, SrcAddr) => constrain(true, project(&inserted, true)),
        (SrcAddr, DstAddr) => constrain(true, project(&inserted, false)),
        (DstAddr, SrcAddr) => constrain(false, project(&inserted, true)),
        (DstAddr, DstAddr) => constrain(false, project(&inserted, false)),
        // Mixed pair/address combinations: some header field of the
        // passing packet equals some field of an inserted one.
        _ => {
            let mut out = constrain(true, project(&inserted, true));
            out.union_with(&constrain(true, project(&inserted, false)));
            out.union_with(&constrain(false, project(&inserted, true)));
            out.union_with(&constrain(false, project(&inserted, false)));
            out
        }
    }
}

/// Static summary of a middlebox model's emission behaviour.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForwardSummary {
    /// Pass-through filter: the box re-emits an arrived packet with its
    /// headers unchanged iff they fall in the set, so its emission is
    /// the arrival intersected with the set.
    Filter(WindowSet),
    /// The model can rewrite or replay headers (address rewrites, state
    /// restores, cached responses): the emitted headers bear no window
    /// relation to the arrived ones, so once anything reaches the box
    /// its emission must be widened to *any* header.
    Rewrite,
}

/// Static summary of a middlebox model: how the windows it may emit
/// relate to the windows that arrive. A model that only filters yields
/// [`ForwardSummary::Filter`]; one that can rewrite or replay headers
/// yields [`ForwardSummary::Rewrite`], because after a rewrite the
/// input/output window relation is lost.
pub fn forward_summary(model: &MboxModel) -> ForwardSummary {
    for rule in &model.rules {
        for a in &rule.actions {
            if matches!(
                a,
                Action::RewriteSrc(_)
                    | Action::RewriteDst(_)
                    | Action::RewriteDstOneOf(_)
                    | Action::RewriteSrcPortFresh
                    | Action::RestoreDstFromState(_)
                    | Action::RespondFromState(_)
            ) {
                return ForwardSummary::Rewrite;
            }
        }
    }
    let mut out = WindowSet::empty();
    for rule in &model.rules {
        if rule.actions.iter().any(|a| matches!(a, Action::Forward)) {
            out.union_with(&guard_windows(model, &rule.guard, 0));
            if out.is_any() {
                break;
            }
        }
    }
    ForwardSummary::Filter(out)
}

/// The synthesized arrivals of one scenario: for each live non-host node
/// that anything reaches, the windows packets arriving at it may occupy.
/// Hosts are sinks and have no entry. A crossing is derived from its
/// tail's arrivals on demand.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrossMap {
    pub(crate) reach: HashMap<NodeId, WindowSet>,
}

/// The half of contract synthesis no failure scenario changes: what the
/// models and the tables say, before anything is propagated. One per
/// network epoch serves every scenario's fixpoint.
struct Prelude {
    /// Emission summary per middlebox.
    summaries: HashMap<NodeId, ForwardSummary>,
    /// Source widening vocabulary: the CIDR aggregate of all host /32s.
    /// Widening a seed to its aggregate block only adds headers (sound)
    /// and collapses per-host windows into per-subnet ones.
    agg: Vec<Prefix>,
    /// Per-(switch, next-hop) aggregated destination narrowing.
    narrow: HashMap<(NodeId, NodeId), Vec<Prefix>>,
}

impl Prelude {
    fn new(net: &Network) -> Prelude {
        let topo = &net.topo;
        let summaries = topo.middleboxes().map(|m| (m, forward_summary(net.model(m)))).collect();
        let agg = aggregate_prefixes(topo.host_prefixes());
        let mut narrow: HashMap<(NodeId, NodeId), Vec<Prefix>> = HashMap::new();
        for (sw, node) in topo.nodes() {
            if node.kind.is_terminal() {
                continue;
            }
            let mut by_next: HashMap<NodeId, Vec<Prefix>> = HashMap::new();
            for r in net.tables.rules(sw) {
                by_next.entry(r.next).or_default().push(r.prefix);
            }
            for (next, ps) in by_next {
                narrow.insert((sw, next), aggregate_prefixes(ps));
            }
        }
        Prelude { summaries, agg, narrow }
    }

    /// Re-summarises the touched boxes after a model swap. Returns
    /// whether every new summary covers the old one — the window order of
    /// [`WindowSet::implies`], or a filter turned [`ForwardSummary::Rewrite`]
    /// — so that arrivals of the old epoch lie below the new fixpoint.
    fn resummarise(&mut self, net: &Network, touched: &[NodeId]) -> bool {
        let mut covers = true;
        for &m in touched.iter().filter(|&&m| net.topo.node(m).kind.is_middlebox()) {
            let new = forward_summary(net.model(m));
            let old = self.summaries.insert(m, new.clone());
            covers &= match (old, &new) {
                (Some(ForwardSummary::Filter(o)), ForwardSummary::Filter(n)) => o.implies(n),
                (Some(ForwardSummary::Rewrite), ForwardSummary::Filter(_)) => false,
                (_, ForwardSummary::Rewrite) | (None, _) => true,
            };
        }
        covers
    }

    /// What the live node `v` emits once `arrived` has reached it. A host
    /// emits its seed whatever arrives, which is what makes hosts sinks;
    /// a switch emits what arrived, borrowed, and narrows it per edge in
    /// [`Prelude::transfer`].
    fn emission<'a>(&self, net: &Network, v: NodeId, arrived: &'a WindowSet) -> Cow<'a, WindowSet> {
        let node = net.topo.node(v);
        if node.kind.is_host() {
            let mut seed = WindowSet::empty();
            for &a in &node.addresses {
                let widened = self.agg.iter().copied().find(|p| p.contains(a));
                seed.insert((widened.unwrap_or_else(|| Prefix::host(a)), any_dst()));
            }
            Cow::Owned(seed)
        } else if node.kind.is_middlebox() {
            Cow::Owned(match self.summaries.get(&v) {
                Some(ForwardSummary::Filter(f)) => arrived.intersect(f),
                // A rewriting box emits headers unrelated to the arrived
                // ones (VIP→backend, NAT restore, cached response), so the
                // arrival only gates *whether* it emits, never *what*.
                Some(ForwardSummary::Rewrite) if !arrived.is_empty() => WindowSet::any(),
                _ => WindowSet::empty(),
            })
        } else {
            Cow::Borrowed(arrived)
        }
    }

    /// What crosses `from -> to` when `from` emits `emit`.
    fn transfer<'a>(
        &self,
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        emit: Cow<'a, WindowSet>,
    ) -> Cow<'a, WindowSet> {
        if !topo.node(from).kind.is_terminal() {
            // Switch hop: destination narrowed by the union of rules
            // toward this neighbour, window by window.
            let mut out = WindowSet::empty();
            for &p in self.narrow.get(&(from, to)).map_or(&[][..], Vec::as_slice) {
                if emit.is_any() {
                    out.insert((any_dst(), p));
                }
                for &(s, d) in &emit.windows {
                    if let Some(d) = prefix_intersect(d, p) {
                        out.insert((s, d));
                    }
                }
            }
            return Cow::Owned(out);
        }
        // Entry semantics of `deliver`: direct hand-off to a terminal
        // neighbour owning the destination, injection into any switch
        // neighbour.
        let owner = topo.node(to);
        if !owner.kind.is_terminal() {
            return emit;
        }
        let mut owned = WindowSet::empty();
        for p in aggregate_prefixes(owner.addresses.iter().copied().map(Prefix::host).collect()) {
            owned.insert((any_dst(), p));
        }
        Cow::Owned(emit.intersect(&owned))
    }

    /// What crosses `from -> to` under `scenario`, given that scenario's
    /// `arrivals`: empty unless the edge is live.
    fn crossing(
        &self,
        net: &Network,
        scenario: &FailureScenario,
        arrivals: &CrossMap,
        from: NodeId,
        to: NodeId,
    ) -> WindowSet {
        let topo = &net.topo;
        if !topo.is_adjacent(from, to) || scenario.is_link_failed(Link::new(from, to)) {
            return WindowSet::empty();
        }
        let nothing = WindowSet::empty();
        let arrived = arrivals.reach.get(&from).unwrap_or(&nothing);
        self.transfer(topo, from, to, self.emission(net, from, arrived)).into_owned()
    }

    /// The per-scenario half, from nothing: propagates windows from the
    /// live hosts until no node's arrivals grow.
    fn fixpoint(&self, net: &Network, scenario: &FailureScenario) -> CrossMap {
        self.propagate(net, scenario, CrossMap::default(), net.topo.hosts())
    }

    /// Propagates from `start`, a map below this prelude's least fixpoint
    /// for `scenario`, re-processing `dirty` (the nodes whose constraints
    /// `start` may violate) and everything their emission grows, until no
    /// node's arrivals grow. A failed node is never dequeued past the
    /// liveness test, so its summary is never read.
    fn propagate(
        &self,
        net: &Network,
        scenario: &FailureScenario,
        start: CrossMap,
        dirty: impl IntoIterator<Item = NodeId>,
    ) -> CrossMap {
        let topo = &net.topo;
        let mut reach = start.reach;
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut queued: BTreeSet<NodeId> = BTreeSet::new();
        for v in dirty {
            if !scenario.is_failed(v) && queued.insert(v) {
                queue.push_back(v);
            }
        }

        while let Some(v) = queue.pop_front() {
            queued.remove(&v);
            if scenario.is_failed(v) {
                continue;
            }
            // Taken out while `v` emits, so that the emission can borrow
            // it while the neighbours' arrivals grow (a link never joins a
            // node to itself).
            let arrived = reach.remove(&v).unwrap_or_default();
            {
                let emit = self.emission(net, v, &arrived);
                if !emit.is_empty() {
                    for x in topo.live_neighbors(v, scenario) {
                        if topo.node(x).kind.is_host() {
                            continue;
                        }
                        let w = self.transfer(topo, v, x, Cow::Borrowed(&*emit));
                        if !w.is_empty()
                            && reach.entry(x).or_default().union_with(&w)
                            && queued.insert(x)
                        {
                            queue.push_back(x);
                        }
                    }
                }
            }
            if !arrived.is_empty() {
                reach.insert(v, arrived);
            }
        }
        CrossMap { reach }
    }
}

/// Runs the window-propagation fixpoint for one scenario, from nothing.
/// A [`ModularContext`] answers the same question through
/// [`ModularContext::cross_for`], which builds the scenario-independent
/// half once per epoch and memoises the arrivals per scenario.
pub fn synthesize(net: &Network, scenario: &FailureScenario) -> CrossMap {
    Prelude::new(net).fixpoint(net, scenario)
}

/// A partition resolved against a concrete topology, plus the contract
/// machinery: boundary edges and the per-scenario synthesis cache.
pub struct ModularContext {
    pub partition: Partition,
    /// `NodeId::index() -> module index` (always `Some` — a validated
    /// partition covers the topology).
    module_ix: Vec<Option<usize>>,
    /// Undirected boundary (cut) link endpoints, normalised `a < b`.
    boundary: BTreeSet<(NodeId, NodeId)>,
    /// The scenario-independent half of the synthesis, built by the
    /// first [`ModularContext::cross_for`]. It reads the tables and the
    /// models: a model swap carries it over with [`ModularContext::carry`],
    /// and any other change to the network needs a new context.
    prelude: OnceLock<Prelude>,
    cache: Mutex<HashMap<FailureScenario, Arc<CrossMap>>>,
}

impl ModularContext {
    /// Resolves a validated partition against the topology.
    pub fn resolve(
        topo: &Topology,
        partition: Partition,
    ) -> Result<ModularContext, vmn_analysis::PartitionError> {
        partition.validate(topo.nodes().map(|(_, n)| n.name.as_str()))?;
        // One name lookup per partition node: the first node of each
        // name, as `Topology::by_name` finds it, without its linear scan.
        let mut ids: HashMap<&str, NodeId> = HashMap::new();
        for (id, n) in topo.nodes() {
            ids.entry(n.name.as_str()).or_insert(id);
        }
        let mut module_ix = vec![None; topo.nodes().count()];
        for (mi, m) in partition.modules.iter().enumerate() {
            for name in &m.nodes {
                // Validation has already checked every module node names
                // a real topology node.
                module_ix[ids[name.as_str()].index()] = Some(mi);
            }
        }
        let mut boundary = BTreeSet::new();
        for l in topo.links() {
            if module_ix[l.a.index()] != module_ix[l.b.index()] {
                boundary.insert((l.a.min(l.b), l.a.max(l.b)));
            }
        }
        Ok(ModularContext {
            partition,
            module_ix,
            boundary,
            prelude: OnceLock::new(),
            cache: Mutex::new(HashMap::new()),
        })
    }

    /// Builds the auto-partitioned context: cut on low-connectivity
    /// boundaries (bridge links between infrastructure nodes).
    pub fn auto(topo: &Topology) -> ModularContext {
        let nodes: Vec<(String, bool)> =
            topo.nodes().map(|(_, n)| (n.name.clone(), !n.kind.is_host())).collect();
        let links: Vec<(String, String)> = topo
            .links()
            .iter()
            .map(|l| (topo.node(l.a).name.clone(), topo.node(l.b).name.clone()))
            .collect();
        let partition = auto_partition(&nodes, &links);
        ModularContext::resolve(topo, partition).expect("auto partition is always valid")
    }

    pub fn module_count(&self) -> usize {
        self.partition.len()
    }

    pub fn boundary_len(&self) -> usize {
        self.boundary.len()
    }

    /// Module index of a node.
    pub fn module_of(&self, n: NodeId) -> Option<usize> {
        self.module_ix.get(n.index()).copied().flatten()
    }

    /// The per-scenario synthesis, memoised, over the epoch's shared
    /// scenario-independent prelude. The fixpoint runs outside the memo's lock, so
    /// `verify_all` workers on different scenarios do not serialise; two
    /// that race on one scenario compute the same map and the first
    /// insert is kept.
    pub fn cross_for(&self, net: &Network, scenario: &FailureScenario) -> Arc<CrossMap> {
        if let Some(hit) = self.memo().get(scenario) {
            return hit.clone();
        }
        let cross = Arc::new(self.prelude(net).fixpoint(net, scenario));
        self.memo().entry(scenario.clone()).or_insert(cross).clone()
    }

    /// The windows packets crossing `from -> to` under `scenario` may
    /// occupy (empty unless the edge is live), derived from the memoised
    /// arrivals at `from`. The contract fast path reads the crossings it
    /// needs off one prelude; this one-edge form serves the tests.
    #[cfg(test)]
    pub(crate) fn crossing(
        &self,
        net: &Network,
        scenario: &FailureScenario,
        from: NodeId,
        to: NodeId,
    ) -> WindowSet {
        let arrivals = self.cross_for(net, scenario);
        self.prelude(net).crossing(net, scenario, &arrivals, from, to)
    }

    /// How many scenarios have memoised arrivals (diagnostics and tests).
    pub fn memoised_scenarios(&self) -> usize {
        self.memo().len()
    }

    /// Drops the memoised arrivals of every scenario not in `live` (a
    /// scenario the network no longer declares).
    pub fn retain_scenarios(&self, live: &[FailureScenario]) {
        self.memo().retain(|scenario, _| live.contains(scenario));
    }

    fn prelude(&self, net: &Network) -> &Prelude {
        self.prelude.get_or_init(|| Prelude::new(net))
    }

    /// Carries the context across a model swap on `touched` into the
    /// epoch `net`, which keeps topology and tables: the partition,
    /// boundary, prelude aggregates and narrowing all stay, and only the
    /// touched boxes are re-summarised. If every touched summary widened,
    /// each memoised scenario's arrivals are moved into a fixpoint
    /// resumed at the touched boxes; otherwise the memo is dropped and
    /// scenarios are synthesised from the hosts again on demand. Only the
    /// network's own scenarios are carried: arrivals memoised for any
    /// other (a scenario a delta has since removed) are dropped, not
    /// resumed.
    pub fn carry(&mut self, net: &Network, touched: &[NodeId]) {
        self.retain_scenarios(&net.all_scenarios());
        // No prelude means nothing was synthesised, so nothing is memoised.
        let Some(prelude) = self.prelude.get_mut() else { return };
        let memo = self.cache.get_mut().unwrap_or_else(PoisonError::into_inner);
        if !prelude.resummarise(net, touched) {
            memo.clear();
            return;
        }
        for (scenario, cross) in memo.iter_mut() {
            let old = Arc::unwrap_or_clone(std::mem::take(cross));
            *cross = Arc::new(prelude.propagate(net, scenario, old, touched.iter().copied()));
        }
    }

    /// The memo's lock. A panicking holder cannot leave the map
    /// half-updated (it only ever probes or inserts a finished map), so
    /// a poisoned lock is recovered, not propagated.
    fn memo(&self) -> MutexGuard<'_, HashMap<FailureScenario, Arc<CrossMap>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The contract fast path: `Some(())`-style `true` means the
    /// invariant provably holds under `scenario`; `false` means
    /// inconclusive (fall back to the exact engine). Only isolation
    /// invariants whose endpoints are hosts in *different* modules are
    /// attempted — both violation encodings require `dst` to receive a
    /// packet whose source header is `src`'s address, so it suffices
    /// that no window on any live edge into `dst` admits one.
    pub fn contract_holds(
        &self,
        net: &Network,
        inv: &Invariant,
        scenario: &FailureScenario,
    ) -> bool {
        let (src, dst) = match inv {
            Invariant::NodeIsolation { src, dst } | Invariant::FlowIsolation { src, dst } => {
                (*src, *dst)
            }
            _ => return false,
        };
        let topo = &net.topo;
        if !topo.node(src).kind.is_host() || !topo.node(dst).kind.is_host() {
            return false;
        }
        match (self.module_of(src), self.module_of(dst)) {
            (Some(a), Some(b)) if a != b => {}
            _ => return false,
        }
        let saddr = Prefix::host(net.host_address(src));
        let arrivals = self.cross_for(net, scenario);
        let prelude = self.prelude(net);
        !topo.live_neighbors(dst, scenario).any(|x| {
            prelude.crossing(net, scenario, &arrivals, x, dst).admits_window(saddr, any_dst())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn_mbox::models;
    use vmn_net::{Address, RoutingConfig, Rule};

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Whether the concrete header `src -> dst` falls in some window.
    fn admits(ws: &WindowSet, src: &str, dst: &str) -> bool {
        ws.admits_window(px(src), px(dst))
    }

    fn filter(model: &MboxModel) -> WindowSet {
        match forward_summary(model) {
            ForwardSummary::Filter(w) => w,
            ForwardSummary::Rewrite => panic!("{}: expected a filtering summary", model.type_name),
        }
    }

    #[test]
    fn aggregate_merges_aligned_blocks() {
        let ps: Vec<Prefix> =
            (0..16).map(|h| Prefix::host(Address::from_octets([10, 1, 0, h]))).collect();
        assert_eq!(aggregate_prefixes(ps), vec![px("10.1.0.0/28")]);
        // Non-aligned singletons stay put.
        let ps = vec![px("10.0.0.1/32"), px("10.0.0.2/32")];
        assert_eq!(aggregate_prefixes(ps.clone()), ps);
        // Covered prefixes are dropped.
        let ps = vec![px("10.0.0.0/8"), px("10.1.0.0/16")];
        assert_eq!(aggregate_prefixes(ps), vec![px("10.0.0.0/8")]);
    }

    /// The fixpoint loop `aggregate_prefixes` replaced, kept as its oracle:
    /// sort, drop covered prefixes, merge one level of adjacent siblings,
    /// until a round merges nothing.
    fn aggregate_by_fixpoint(mut ps: Vec<Prefix>) -> Vec<Prefix> {
        loop {
            ps.sort();
            ps.dedup();
            let snapshot = ps.clone();
            ps.retain(|p| !snapshot.iter().any(|q| *q != *p && q.covers(*p)));
            let mut out: Vec<Prefix> = Vec::with_capacity(ps.len());
            let mut merged = false;
            let mut i = 0;
            while i < ps.len() {
                if i + 1 < ps.len() && ps[i].len() == ps[i + 1].len() && ps[i].len() > 0 {
                    let parent = Prefix::new(ps[i].addr(), ps[i].len() - 1);
                    if parent.covers(ps[i + 1]) {
                        out.push(parent);
                        merged = true;
                        i += 2;
                        continue;
                    }
                }
                out.push(ps[i]);
                i += 1;
            }
            ps = out;
            if !merged {
                return ps;
            }
        }
    }

    #[test]
    fn aggregate_matches_the_fixpoint_oracle() {
        // xorshift64: the crate has no RNG dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut merging = 0;
        for case in 0..5_000 {
            // Up to 40 prefixes inside one /28, /24 or /20, lengths skewed
            // toward /32 so that covers, duplicates and sibling chains are
            // all common without one short prefix swallowing the case.
            let bits = 4 + 4 * (case % 3);
            let ps: Vec<Prefix> = (0..next() % 40)
                .map(|_| {
                    let r = next();
                    let addr = Address(0x0A00_0000 | (r >> 32) as u32 & ((1 << bits) - 1));
                    let short = (r % (bits + 1) as u64).min((r >> 16) % (bits + 1) as u64);
                    Prefix::new(addr, 32 - short as u32)
                })
                .collect();
            let want = aggregate_by_fixpoint(ps.clone());
            merging += usize::from(want.iter().any(|p| !ps.contains(p)));
            assert_eq!(aggregate_prefixes(ps.clone()), want, "case {case}: {ps:?}");
        }
        assert!(merging > 1_000, "only {merging} cases merged siblings");
        // Unaligned runs of host routes, up to the campus's 3 328 hosts.
        for hosts in [16, 1_000, 3_328] {
            let ps: Vec<Prefix> =
                (0..hosts).map(|h| Prefix::host(Address(0x0A01_0003 + h))).collect();
            assert_eq!(aggregate_prefixes(ps.clone()), aggregate_by_fixpoint(ps), "{hosts} hosts");
        }
    }

    #[test]
    fn learning_firewall_summary_is_acl_closure() {
        let fw = models::learning_firewall("fw", vec![(px("10.1.0.0/16"), px("10.2.0.0/16"))]);
        let w = filter(&fw);
        assert!(!w.is_any());
        // Forward direction from the ACL…
        assert!(admits(&w, "10.1.0.1", "10.2.0.1"));
        // …reverse direction through the flow-keyed state…
        assert!(admits(&w, "10.2.0.1", "10.1.0.1"));
        // …and nothing else.
        assert!(!admits(&w, "10.3.0.1", "10.2.0.1"));
    }

    #[test]
    fn rewriting_models_summarize_as_rewrite() {
        let nat = models::nat("nat", px("10.0.0.0/8"), "1.2.3.4".parse().unwrap());
        assert_eq!(forward_summary(&nat), ForwardSummary::Rewrite);
        let cache = models::content_cache("cache", [px("10.1.0.0/16")], vec![]);
        assert_eq!(forward_summary(&cache), ForwardSummary::Rewrite);
        let lb = models::load_balancer(
            "lb",
            "10.0.0.100".parse().unwrap(),
            vec!["10.0.0.1".parse().unwrap()],
        );
        assert_eq!(forward_summary(&lb), ForwardSummary::Rewrite);
    }

    #[test]
    fn pass_through_models_forward_everything() {
        assert!(filter(&models::gateway("gw")).is_any());
        assert!(filter(&models::idps("idps")).is_any());
    }

    #[test]
    fn acl_firewall_summary_is_exactly_the_acl() {
        let fw = models::acl_firewall("fw", vec![(px("10.1.0.0/16"), px("10.2.0.0/16"))]);
        let w = filter(&fw);
        assert!(admits(&w, "10.1.0.1", "10.2.0.1"));
        // Stateless: no reverse closure.
        assert!(!admits(&w, "10.2.0.1", "10.1.0.1"));
    }

    /// Two sites behind ACL firewalls `fw1` and `fw2`, joined by a core
    /// switch, with a scenario that fails `fw2`.
    fn two_sites() -> (Network, NodeId) {
        let mut topo = Topology::new();
        let a1 = topo.add_host("a1", "10.1.0.1".parse().unwrap());
        let b1 = topo.add_host("b1", "10.2.0.1".parse().unwrap());
        let sw1 = topo.add_switch("sw1");
        let sw2 = topo.add_switch("sw2");
        let core = topo.add_switch("core");
        let fw1 = topo.add_middlebox("fw1", "acl-firewall", vec![]);
        let fw2 = topo.add_middlebox("fw2", "acl-firewall", vec![]);
        for (x, y) in [(a1, sw1), (sw1, fw1), (fw1, core), (b1, sw2), (sw2, fw2), (fw2, core)] {
            topo.add_link(x, y);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        let (a_net, b_net) = (px("10.1.0.0/16"), px("10.2.0.0/16"));
        tables.add_rule(sw1, Rule::from_neighbor(b_net, a1, fw1));
        tables.add_rule(sw2, Rule::from_neighbor(a_net, b1, fw2));
        tables.add_rule(core, Rule::from_neighbor(b_net, fw1, fw2));
        tables.add_rule(core, Rule::from_neighbor(a_net, fw2, fw1));
        let mut net = Network::new(topo, tables);
        net.set_model(fw1, models::acl_firewall("acl-firewall", vec![(a_net, any_dst())]));
        net.set_model(fw2, models::acl_firewall("acl-firewall", vec![(b_net, any_dst())]));
        net.add_scenario(FailureScenario::nodes([fw2]));
        (net, fw1)
    }

    /// A client `c` reaching backend `b` only through load balancer `lb`'s
    /// VIP: `c - sw1 - lb - sw2 - b`, with only VIP-destined traffic
    /// routed toward the load balancer.
    fn load_balanced() -> Network {
        let vip: Address = "10.2.0.100".parse().unwrap();
        let backend: Address = "10.2.0.1".parse().unwrap();
        let mut topo = Topology::new();
        let c = topo.add_host("c", "10.1.0.1".parse().unwrap());
        let b = topo.add_host("b", backend);
        let sw1 = topo.add_switch("sw1");
        let sw2 = topo.add_switch("sw2");
        let lb = topo.add_middlebox("lb", "load-balancer", vec![vip]);
        for (x, y) in [(c, sw1), (sw1, lb), (lb, sw2), (sw2, b)] {
            topo.add_link(x, y);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        tables.add_rule(sw1, Rule::new(Prefix::host(vip), lb));
        let mut net = Network::new(topo, tables);
        net.set_model(lb, models::load_balancer("load-balancer", vip, vec![backend]));
        net
    }

    /// The per-edge fixpoint the arrival map replaced, kept as the oracle
    /// of [`ModularContext::crossing`]: it stores what crosses every
    /// directed live edge, host-bound ones included, and rebuilds what
    /// arrives at a node from its incoming crossings.
    fn crossings_by_edge(
        net: &Network,
        scenario: &FailureScenario,
    ) -> HashMap<(NodeId, NodeId), WindowSet> {
        let topo = &net.topo;
        let Prelude { summaries, agg, narrow } = &Prelude::new(net);
        let widen = |a: Address| {
            agg.iter().copied().find(|p| p.contains(a)).unwrap_or_else(|| Prefix::host(a))
        };
        let mut cross: HashMap<(NodeId, NodeId), WindowSet> = HashMap::new();
        let mut reach: HashMap<NodeId, WindowSet> = HashMap::new();
        let mut queue: VecDeque<NodeId> =
            topo.hosts().filter(|&h| !scenario.is_failed(h)).collect();
        let mut queued: BTreeSet<NodeId> = queue.iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            queued.remove(&v);
            let node = topo.node(v);
            let emit: WindowSet = if node.kind.is_host() {
                let mut seed = WindowSet::empty();
                for &a in &node.addresses {
                    seed.insert((widen(a), any_dst()));
                }
                seed
            } else if node.kind.is_middlebox() {
                let arrived = reach.get(&v).cloned().unwrap_or_else(WindowSet::empty);
                match summaries.get(&v) {
                    Some(ForwardSummary::Filter(f)) => arrived.intersect(f),
                    Some(ForwardSummary::Rewrite) if !arrived.is_empty() => WindowSet::any(),
                    _ => WindowSet::empty(),
                }
            } else {
                reach.get(&v).cloned().unwrap_or_else(WindowSet::empty)
            };
            if emit.is_empty() {
                continue;
            }
            let neighbors: Vec<NodeId> = topo.live_neighbors(v, scenario).collect();
            for x in neighbors {
                let w = if node.kind.is_terminal() {
                    if topo.node(x).kind.is_terminal() {
                        let owned = aggregate_prefixes(
                            topo.node(x).addresses.iter().copied().map(Prefix::host).collect(),
                        );
                        let mut owned_ws = WindowSet::empty();
                        for p in owned {
                            owned_ws.insert((any_dst(), p));
                        }
                        emit.intersect(&owned_ws)
                    } else {
                        emit.clone()
                    }
                } else {
                    match narrow.get(&(v, x)) {
                        Some(ps) => {
                            let mut out = WindowSet::empty();
                            for &p in ps {
                                out.union_with(&emit.intersect(&WindowSet::window(any_dst(), p)));
                            }
                            out
                        }
                        None => WindowSet::empty(),
                    }
                };
                if w.is_empty() {
                    continue;
                }
                let grew = cross.entry((v, x)).or_default().union_with(&w);
                if grew && !topo.node(x).kind.is_host() {
                    let r = reach.entry(x).or_default();
                    if r.union_with(&w) && queued.insert(x) {
                        queue.push_back(x);
                    }
                }
            }
        }
        cross
    }

    /// Under every scenario of `net`: each directed live edge's on-demand
    /// crossing, host-bound edges included, is `==` to the per-edge
    /// oracle's, and each node's memoised arrivals are the union of its
    /// incoming oracle crossings.
    fn assert_crossings_match_the_oracle(net: &Network, ctx: &ModularContext, label: &str) {
        for s in net.all_scenarios() {
            let want = crossings_by_edge(net, &s);
            let mut arrivals: HashMap<NodeId, WindowSet> = HashMap::new();
            for (&(_, x), w) in &want {
                if !net.topo.node(x).kind.is_host() {
                    arrivals.entry(x).or_default().union_with(w);
                }
            }
            assert_eq!(ctx.cross_for(net, &s).reach, arrivals, "{label}: arrivals under {s:?}");
            let mut crossed = 0;
            for (v, _) in net.topo.nodes() {
                for x in net.topo.live_neighbors(v, &s) {
                    let edge = want.get(&(v, x));
                    crossed += usize::from(edge.is_some());
                    assert_eq!(
                        ctx.crossing(net, &s, v, x),
                        edge.cloned().unwrap_or_default(),
                        "{label}: {} -> {} under {s:?}",
                        net.topo.node(v).name,
                        net.topo.node(x).name
                    );
                }
            }
            assert_eq!(crossed, want.len(), "{label}: the oracle crosses only live edges");
        }
    }

    #[test]
    fn on_demand_crossings_equal_the_per_edge_oracle() {
        let (net, _) = two_sites();
        assert_crossings_match_the_oracle(&net, &ModularContext::auto(&net.topo), "two sites");
        let net = load_balanced();
        assert_crossings_match_the_oracle(&net, &ModularContext::auto(&net.topo), "load balancer");
    }

    /// The oracle on the full campus and ISP estates, under their own
    /// partitions. The estates come from `vmn_scenarios`, which links the
    /// library build of this crate, so their networks are moved field by
    /// field into this build's [`Network`].
    #[test]
    fn on_demand_crossings_equal_the_per_edge_oracle_on_the_full_estates() {
        use vmn_scenarios::estate::{Estate, EstateParams};
        for (label, params) in [("campus", EstateParams::campus()), ("isp", EstateParams::isp())] {
            let e = Estate::build(params);
            let partition = e.partition();
            let net = Network {
                topo: e.net.topo,
                tables: e.net.tables,
                models: e.net.models,
                scenarios: e.net.scenarios,
            };
            let ctx = ModularContext::resolve(&net.topo, partition).unwrap();
            assert_crossings_match_the_oracle(&net, &ctx, label);
        }
    }

    /// A model swap carries the memoised arrivals: a widening resumes
    /// them, anything else drops them, and either way every scenario's
    /// arrivals are exactly — `==`, window normal form included — the
    /// from-scratch synthesis of the new epoch, and every crossing derived
    /// from them is the per-edge oracle's. A scenario the network no
    /// longer lists is not carried.
    #[test]
    fn carried_crossings_equal_a_fresh_synthesis() {
        let (mut net, fw1) = two_sites();
        let scenarios = net.all_scenarios();
        let mut ctx = ModularContext::auto(&net.topo);
        let removed = FailureScenario::nodes([net.topo.by_name("core").unwrap()]);
        for s in scenarios.iter().chain([&removed]) {
            ctx.cross_for(&net, s);
        }
        let site = px("10.1.0.0/16");
        let filter = |acl: Vec<(Prefix, Prefix)>| models::acl_firewall("acl-firewall", acl);
        let steps = [
            ("widen", filter(vec![(site, any_dst()), (px("10.2.0.0/16"), site)]), true),
            ("restore", filter(vec![(site, any_dst())]), false),
            ("rewrite", models::content_cache("cache", [site], vec![]), true),
            ("filter again", filter(vec![(site, any_dst())]), false),
        ];
        for (label, model, resumed) in steps {
            let before = ctx.cross_for(&net, &FailureScenario::none());
            net.set_model(fw1, model);
            ctx.carry(&net, &[fw1]);
            let kept = if resumed { scenarios.len() } else { 0 };
            assert_eq!(ctx.memo().len(), kept, "{label}: memoised scenarios after the carry");
            for s in &scenarios {
                assert_eq!(*ctx.cross_for(&net, s), synthesize(&net, s), "{label}: {s:?}");
            }
            assert_crossings_match_the_oracle(&net, &ctx, label);
            assert_ne!(*before, *ctx.cross_for(&net, &FailureScenario::none()), "{label}");
        }
    }

    /// Regression: a rewriting box's emission must not be limited to the
    /// windows that arrived at it. Here the only headers reaching the
    /// load balancer carry `dst = VIP`, yet its rewritten emission
    /// (VIP→backend) must still be synthesized as crossing into the
    /// backend — intersecting with the arrival used to leave the
    /// backend-facing edge empty and let the contract fast path "prove"
    /// isolation the monolithic engine refutes.
    #[test]
    fn rewriting_box_widens_crossings_beyond_arrived_windows() {
        let net = load_balanced();
        let id = |name| net.topo.by_name(name).unwrap();
        let host = |name| Prefix::host(net.host_address(id(name)));
        let (client, backend) = (host("c"), host("b"));
        let vip = px("10.2.0.100");
        let ctx = ModularContext::auto(&net.topo);
        let none = FailureScenario::none();
        assert!(
            ctx.crossing(&net, &none, id("sw1"), id("lb")).admits_window(client, vip),
            "VIP traffic must reach the load balancer"
        );
        assert!(
            ctx.crossing(&net, &none, id("sw2"), id("b")).admits_window(client, backend),
            "the rewritten emission must cross into the backend"
        );
    }
}

//! Header-space reachability over the static datapath plus *stateless*
//! middlebox models.
//!
//! The [`Dataplane`] compiles two kinds of predicates into a shared
//! [`Bdd`] manager:
//!
//! * a **transfer predicate** per middlebox — the set of headers the
//!   box forwards, with classification oracles existentially quantified
//!   under the model's exclusivity constraints (scenario-independent,
//!   cached per device), and
//! * a **delivery predicate** per (failure scenario, emitting terminal,
//!   target terminal) — the destination addresses the static datapath
//!   carries from the emitter to the target, as the union of the target's
//!   intervals in [`TransferFunction::delivery_intervals`], the list the
//!   SMT encoder compiles too, so both backends see the same network.
//!   The interval lists are read from the memo of the [`HeaderClasses`]
//!   the dataplane is built on, which the verifier shares with every other
//!   interval reader; a predicate is built only for a target some query's
//!   slice contains. A slice
//!   observes nothing else — an arrival outside it is a drop — so what a
//!   query compiles is bounded by its slice, not by the network.
//!
//! A [`Query`] is answered by composing these predicates breadth-first
//! from each eligible sender up to a hop budget. On violation, a
//! satisfying header is pulled out of the reaching set and re-walked
//! concretely through the [`TransferFunction`] to recover the terminal
//! path, the fired rule, and an oracle valuation per hop — everything a
//! simulator-replayable trace needs.
//!
//! Only stateless models compile: any [`Guard::StateContains`] read or
//! state-mutating/rewriting action makes the behaviour history- or
//! packet-modification-dependent, which header-set composition cannot
//! express. [`vmn_analysis::bdd_support`] is the single source of truth
//! for that classification; the slice-level routing decision in the
//! `vmn` crate is built on it.

use crate::{Bdd, BddStats, Ref};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vmn_mbox::exec::{eval_guard, MboxState};
use vmn_mbox::{Action, Guard, MboxModel};
use vmn_net::{
    Address, FailureScenario, ForwardingTables, Header, HeaderClasses, NetError, NodeId, Topology,
    TransferFunction,
};

/// BDD variable layout, most significant bit first per field. Source and
/// port bits sit above destination bits only by convention; oracle
/// scratch variables go last so quantifying them away is cheap.
const SRC_BASE: u32 = 0;
const DST_BASE: u32 = 32;
const SPORT_BASE: u32 = 64;
const DPORT_BASE: u32 = 80;
const ORACLE_BASE: u32 = 96;

/// Mirrors the encoder's `EPHEMERAL_BASE`: host sends use source ports
/// below the range reserved for fresh NAT rewrites.
const EPHEMERAL_BASE: u16 = 32768;

/// Errors from the BDD dataplane backend.
#[derive(Clone, Debug)]
pub enum DataplaneError {
    /// Static datapath error (forwarding loop etc.) surfaced while
    /// building delivery predicates or re-walking a witness.
    Net(NetError),
    /// The query touched a model the backend cannot express; routing
    /// should have kept it on the SMT path.
    Unsupported(String),
    /// The symbolic search found a violating header but the concrete
    /// re-walk could not reproduce it — an internal invariant breach,
    /// never silently ignored.
    Witness(String),
}

impl fmt::Display for DataplaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataplaneError::Net(e) => write!(f, "network error: {e}"),
            DataplaneError::Unsupported(m) => write!(f, "unsupported by bdd backend: {m}"),
            DataplaneError::Witness(m) => write!(f, "witness reconstruction failed: {m}"),
        }
    }
}

impl std::error::Error for DataplaneError {}

impl From<NetError> for DataplaneError {
    fn from(e: NetError) -> DataplaneError {
        DataplaneError::Net(e)
    }
}

/// A reachability question over one slice and scenario. Both forms ask
/// "does any packet make it to `dst`?" — the invariant-specific
/// predicate is folded into the initial header set.
#[derive(Clone, Debug)]
pub enum Query {
    /// A packet whose source address is `saddr` reaches `dst` — the
    /// single-packet core of node/flow/data isolation on stateless
    /// slices (where `origin(p) = src(p)` for every packet in flight).
    SourceReaches { saddr: Address, dst: NodeId },
    /// A packet reaches `dst` without ever being processed by a member
    /// of `through` (traversal invariants); `from` restricts the sender.
    Bypass { dst: NodeId, through: Vec<NodeId>, from: Option<NodeId> },
}

impl Query {
    fn dst(&self) -> NodeId {
        match self {
            Query::SourceReaches { dst, .. } | Query::Bypass { dst, .. } => *dst,
        }
    }

    fn through(&self) -> &[NodeId] {
        match self {
            Query::SourceReaches { .. } => &[],
            Query::Bypass { through, .. } => through,
        }
    }
}

/// One middlebox processing on a witness path.
#[derive(Clone, Debug)]
pub struct Hop {
    pub mbox: NodeId,
    /// Index of the model rule that fired.
    pub rule: usize,
    /// A full oracle valuation under which that rule fires and forwards.
    pub oracles: HashMap<String, bool>,
}

/// A concrete violation: `header`, sent by `sender`, arrives at the last
/// terminal of `path` after the middlebox processings in `hops`.
/// `path` lists terminals in order — sender, each hop's middlebox, dst.
#[derive(Clone, Debug)]
pub struct Witness {
    pub sender: NodeId,
    pub header: Header,
    pub path: Vec<NodeId>,
    pub hops: Vec<Hop>,
}

/// Result of a [`Dataplane::check`].
#[derive(Clone, Debug)]
pub enum Outcome {
    Holds,
    Violated(Box<Witness>),
}

/// The BDD dataplane: one manager plus the per-device and per-scenario
/// predicate caches. Build once per network and models; `check` per
/// query. Every cache fills on demand and holds only what some query's
/// slice could observe, so neither a query's work nor the manager's size
/// grows with the part of the network outside the slices asked about. The
/// interval lists the delivery predicates are built from are not kept
/// here: they live in the shared [`HeaderClasses`].
pub struct Dataplane {
    man: Bdd,
    classes: Arc<HeaderClasses>,
    /// Forwarded-header predicate per middlebox (scenario-independent:
    /// stateless models behave identically under every scenario in which
    /// they are alive).
    transfer: HashMap<NodeId, Ref>,
    delivery: HashMap<FailureScenario, Delivery>,
}

/// One scenario's static datapath, as far as queries have looked at it:
/// (emitter, target) → the destination predicate of the target's
/// intervals together with the index of the first of them (the order a
/// search visits targets in), or `None` when the emitter delivers nothing
/// there. An entry exists only for a target some query's slice contained.
type Delivery = HashMap<(NodeId, NodeId), Option<(usize, Ref)>>;

fn field_vars(base: u32, width: u32) -> Vec<u32> {
    (base..base + width).collect()
}

impl Dataplane {
    /// Builds the dataplane for the network `classes` was computed from
    /// ([`HeaderClasses::from_network`], the prefix set the SMT encoder
    /// splits on); every `check` must be given that network. The interval
    /// lists are read from, and memoised in, `classes`, so a caller that
    /// shares it with its other interval readers sweeps each list once.
    pub fn new(classes: Arc<HeaderClasses>) -> Dataplane {
        Dataplane { man: Bdd::new(), classes, transfer: HashMap::new(), delivery: HashMap::new() }
    }

    /// Cumulative manager counters (nodes, cache traffic) for reports.
    pub fn stats(&self) -> BddStats {
        self.man.stats()
    }

    /// How many scenarios hold delivery predicates (diagnostics and tests).
    pub fn memoised_scenarios(&self) -> usize {
        self.delivery.len()
    }

    /// Drops the delivery predicates of every scenario not in `live` (a
    /// scenario the network no longer declares). The manager keeps their
    /// nodes; only the map entries go.
    pub fn retain_scenarios(&mut self, live: &[FailureScenario]) {
        self.delivery.retain(|scenario, _| live.contains(scenario));
    }

    /// The forwarded-header predicate of middlebox `m`.
    fn transfer_predicate(&mut self, m: NodeId, model: &MboxModel) -> Result<Ref, DataplaneError> {
        if let Some(&r) = self.transfer.get(&m) {
            return Ok(r);
        }
        if let Some(why) = vmn_analysis::bdd_support(model) {
            return Err(DataplaneError::Unsupported(format!("model {:?}: {why}", model.type_name)));
        }
        let oracle_var: HashMap<&str, u32> = model
            .oracles
            .iter()
            .enumerate()
            .map(|(i, o)| (o.name.as_str(), ORACLE_BASE + i as u32))
            .collect();
        // First-match semantics: rule r fires iff its guard holds and no
        // earlier guard does.
        let mut none_before = Bdd::TRUE;
        let mut fwd = Bdd::FALSE;
        for rule in &model.rules {
            let g = self.compile_guard(model, &rule.guard, &oracle_var)?;
            let fired = self.man.and(none_before, g);
            if rule.actions.contains(&Action::Forward) {
                fwd = self.man.or(fwd, fired);
            }
            let ng = self.man.not(g);
            none_before = self.man.and(none_before, ng);
        }
        // Oracle output constraints: within an exclusive group, at most
        // one oracle answers yes.
        let mut excl = Bdd::TRUE;
        for group in &model.exclusive_oracles {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    let va = self.man.var(oracle_var[a.as_str()]);
                    let vb = self.man.var(oracle_var[b.as_str()]);
                    let both = self.man.and(va, vb);
                    let not_both = self.man.not(both);
                    excl = self.man.and(excl, not_both);
                }
            }
        }
        let constrained = self.man.and(fwd, excl);
        let oracle_ids: Vec<u32> = oracle_var.values().copied().collect();
        let r = self.man.exists(constrained, &oracle_ids);
        self.transfer.insert(m, r);
        Ok(r)
    }

    /// Compiles a model guard over the header variables. Mirrors the SMT
    /// encoder's `guard_term`, except that origin guards read the source
    /// bits — valid precisely because on stateless slices no box ever
    /// separates `origin(p)` from `src(p)`.
    fn compile_guard(
        &mut self,
        model: &MboxModel,
        g: &Guard,
        oracle_var: &HashMap<&str, u32>,
    ) -> Result<Ref, DataplaneError> {
        Ok(match g {
            Guard::True => Bdd::TRUE,
            Guard::Not(inner) => {
                let f = self.compile_guard(model, inner, oracle_var)?;
                self.man.not(f)
            }
            Guard::And(gs) => {
                let mut r = Bdd::TRUE;
                for inner in gs {
                    let f = self.compile_guard(model, inner, oracle_var)?;
                    r = self.man.and(r, f);
                }
                r
            }
            Guard::Or(gs) => {
                let mut r = Bdd::FALSE;
                for inner in gs {
                    let f = self.compile_guard(model, inner, oracle_var)?;
                    r = self.man.or(r, f);
                }
                r
            }
            Guard::SrcIn(p) | Guard::OriginIn(p) => self.prefix_pred(SRC_BASE, *p),
            Guard::DstIn(p) => self.prefix_pred(DST_BASE, *p),
            Guard::SrcIs(a) | Guard::OriginIs(a) => {
                self.man.bits_eq(&field_vars(SRC_BASE, 32), a.0 as u64)
            }
            Guard::DstIs(a) => self.man.bits_eq(&field_vars(DST_BASE, 32), a.0 as u64),
            Guard::SrcPortIs(p) => self.man.bits_eq(&field_vars(SPORT_BASE, 16), *p as u64),
            Guard::DstPortIs(p) => self.man.bits_eq(&field_vars(DPORT_BASE, 16), *p as u64),
            Guard::AclMatch(name) => {
                let pairs = model.acl_pairs(name).expect("validated model").to_vec();
                let mut r = Bdd::FALSE;
                for (sp, dp) in pairs {
                    let s = self.prefix_pred(SRC_BASE, sp);
                    let d = self.prefix_pred(DST_BASE, dp);
                    let both = self.man.and(s, d);
                    r = self.man.or(r, both);
                }
                r
            }
            Guard::Oracle(name) => self.man.var(oracle_var[name.as_str()]),
            Guard::StateContains { state, .. } => {
                return Err(DataplaneError::Unsupported(format!(
                    "model {:?} reads state set {state:?}",
                    model.type_name
                )))
            }
        })
    }

    fn prefix_pred(&mut self, base: u32, p: vmn_net::Prefix) -> Ref {
        self.man.bits_prefix(&field_vars(base, 32), p.addr().0 as u64, p.len() as usize)
    }

    /// Where the static datapath delivers terminal `f`'s emissions under
    /// `scenario` among the `visible` targets (sorted), as (target,
    /// destination-predicate) pairs in the order the targets first appear
    /// in the transfer function's delivery intervals — the list the SMT
    /// encoder compiles — each predicate the union of its target's
    /// intervals. Targets outside `visible` are neither built nor cached.
    fn delivery_predicates(
        &mut self,
        topo: &Topology,
        tables: &ForwardingTables,
        scenario: &FailureScenario,
        f: NodeId,
        visible: &[NodeId],
    ) -> Result<Vec<(NodeId, Ref)>, DataplaneError> {
        debug_assert!(visible.windows(2).all(|w| w[0] < w[1]), "binary-searched below");
        if !self.delivery.contains_key(scenario) {
            self.delivery.insert(scenario.clone(), Delivery::default());
        }
        let cache = self.delivery.get_mut(scenario).expect("inserted above");
        let missing: Vec<NodeId> =
            visible.iter().copied().filter(|&t| !cache.contains_key(&(f, t))).collect();
        if !missing.is_empty() {
            let intervals = TransferFunction::new(topo, tables, scenario)
                .delivery_intervals(f, &self.classes)?;
            for &t in &missing {
                cache.insert((f, t), None);
            }
            let dst_vars = field_vars(DST_BASE, 32);
            for (i, &(start, end, target)) in intervals.iter().enumerate() {
                let Some(target) = target else { continue };
                if missing.binary_search(&target).is_err() {
                    continue;
                }
                let pred = self.man.bits_in_range(&dst_vars, start as u64, end as u64);
                let slot = cache.get_mut(&(f, target)).expect("inserted above");
                *slot = Some(match *slot {
                    Some((first, sofar)) => (first, self.man.or(sofar, pred)),
                    None => (i, pred),
                });
            }
        }
        let mut found: Vec<(usize, NodeId, Ref)> = visible
            .iter()
            .filter_map(|&t| cache[&(f, t)].map(|(first, pred)| (first, t, pred)))
            .collect();
        found.sort_unstable_by_key(|&(first, ..)| first);
        Ok(found.into_iter().map(|(_, t, pred)| (t, pred)).collect())
    }

    /// Answers `query` on `slice` under `scenario` by predicate
    /// composition from each eligible sender, following headers through
    /// at most `hop_budget` middlebox processings (the same bound the
    /// SMT trace encoding uses, so neither backend can out-search the
    /// other).
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &mut self,
        topo: &Topology,
        tables: &ForwardingTables,
        models: &HashMap<NodeId, MboxModel>,
        scenario: &FailureScenario,
        slice: &[NodeId],
        query: &Query,
        hop_budget: usize,
    ) -> Result<Outcome, DataplaneError> {
        let dst = query.dst();
        let through = query.through().to_vec();
        // All a search on `slice` can observe: an arrival anywhere else is
        // a drop in the sliced semantics (the encoder maps it to its drop
        // sink), so no other target's predicate is ever built.
        let mut visible = slice.to_vec();
        visible.push(dst);
        visible.sort_unstable();
        visible.dedup();
        let senders: Vec<NodeId> = slice
            .iter()
            .copied()
            .filter(|&n| topo.node(n).kind.is_host() && !scenario.is_failed(n))
            .filter(|&n| match query {
                Query::Bypass { from: Some(f), .. } => n == *f,
                _ => true,
            })
            .collect();

        let sport_ok = self.man.bits_le(&field_vars(SPORT_BASE, 16), (EPHEMERAL_BASE - 1) as u64);
        for sender in senders {
            // Host send axioms: source address is one of the sender's
            // own, source port below the ephemeral range; isolation
            // queries additionally pin the source address.
            let mut own = Bdd::FALSE;
            for a in &topo.node(sender).addresses {
                let eq = self.man.bits_eq(&field_vars(SRC_BASE, 32), a.0 as u64);
                own = self.man.or(own, eq);
            }
            let mut init = self.man.and(own, sport_ok);
            if let Query::SourceReaches { saddr, .. } = query {
                let pinned = self.man.bits_eq(&field_vars(SRC_BASE, 32), saddr.0 as u64);
                init = self.man.and(init, pinned);
            }
            if init == Bdd::FALSE {
                continue;
            }

            let mut frontier: Vec<(NodeId, Ref)> = vec![(sender, init)];
            let mut seen: HashMap<NodeId, Ref> = HashMap::new();
            for hop in 0..=hop_budget {
                let mut next: Vec<(NodeId, Ref)> = Vec::new();
                for (loc, set) in std::mem::take(&mut frontier) {
                    for (target, pred) in
                        self.delivery_predicates(topo, tables, scenario, loc, &visible)?
                    {
                        let arrived = self.man.and(set, pred);
                        if arrived == Bdd::FALSE {
                            continue;
                        }
                        if target == dst {
                            let w = self.reconstruct(
                                topo, tables, models, scenario, &through, sender, dst, arrived,
                                hop_budget,
                            )?;
                            return Ok(Outcome::Violated(Box::new(w)));
                        }
                        // `target` is in the slice. Hosts absorb;
                        // excluded boxes never process (a processed
                        // packet is "touched" for good, so those
                        // continuations cannot violate).
                        if !topo.node(target).kind.is_middlebox()
                            || through.contains(&target)
                            || hop == hop_budget
                        {
                            continue;
                        }
                        let model = models.get(&target).ok_or_else(|| {
                            DataplaneError::Unsupported(format!(
                                "middlebox {:?} has no model",
                                topo.node(target).name
                            ))
                        })?;
                        let tr = self.transfer_predicate(target, model)?;
                        let processed = self.man.and(arrived, tr);
                        let prev = seen.get(&target).copied().unwrap_or(Bdd::FALSE);
                        let nprev = self.man.not(prev);
                        let fresh = self.man.and(processed, nprev);
                        if fresh == Bdd::FALSE {
                            continue;
                        }
                        seen.insert(target, self.man.or(prev, fresh));
                        next.push((target, fresh));
                    }
                }
                if next.is_empty() {
                    break;
                }
                frontier = next;
            }
        }
        Ok(Outcome::Holds)
    }

    /// Pulls one concrete header out of a violating set and re-walks it
    /// deterministically through the static datapath, picking an oracle
    /// valuation per middlebox under which the fired rule forwards. The
    /// walk must reach `dst` — the header-class construction guarantees
    /// the symbolic and concrete paths agree, so failure here is an
    /// internal error, never a silent fallback.
    #[allow(clippy::too_many_arguments)]
    fn reconstruct(
        &self,
        topo: &Topology,
        tables: &ForwardingTables,
        models: &HashMap<NodeId, MboxModel>,
        scenario: &FailureScenario,
        through: &[NodeId],
        sender: NodeId,
        dst: NodeId,
        violating: Ref,
        hop_budget: usize,
    ) -> Result<Witness, DataplaneError> {
        let sat = self
            .man
            .anysat(violating)
            .ok_or_else(|| DataplaneError::Witness("violating set is empty".into()))?;
        // Unpinned bits are don't-cares within the satisfying region;
        // zero is as good a choice as any.
        let bit = |base: u32, width: u32| -> u64 {
            let mut v = 0u64;
            for &(var, val) in &sat {
                if val && var >= base && var < base + width {
                    v |= 1 << (width - 1 - (var - base));
                }
            }
            v
        };
        let header = Header::new(
            Address(bit(SRC_BASE, 32) as u32),
            bit(SPORT_BASE, 16) as u16,
            Address(bit(DST_BASE, 32) as u32),
            bit(DPORT_BASE, 16) as u16,
        );

        let tf = TransferFunction::new(topo, tables, scenario);
        let mut path = vec![sender];
        let mut hops = Vec::new();
        let mut cur = sender;
        loop {
            let next = tf
                .deliver(cur, header.dst)?
                .ok_or_else(|| DataplaneError::Witness(format!("{header} dropped en route")))?;
            path.push(next);
            if next == dst {
                break;
            }
            if topo.node(next).kind.is_host() {
                return Err(DataplaneError::Witness(format!(
                    "{header} delivered to {:?} instead of the query target",
                    topo.node(next).name
                )));
            }
            if through.contains(&next) {
                return Err(DataplaneError::Witness(format!(
                    "untouched path crosses excluded box {:?}",
                    topo.node(next).name
                )));
            }
            if hops.len() >= hop_budget {
                return Err(DataplaneError::Witness("hop budget exceeded on re-walk".into()));
            }
            let model = models.get(&next).ok_or_else(|| {
                DataplaneError::Witness(format!("no model for {:?}", topo.node(next).name))
            })?;
            let (rule, oracles) = forwarding_valuation(model, &header).ok_or_else(|| {
                DataplaneError::Witness(format!(
                    "{:?} refuses {header} under every oracle valuation",
                    topo.node(next).name
                ))
            })?;
            hops.push(Hop { mbox: next, rule, oracles });
            cur = next;
        }
        Ok(Witness { sender, header, path, hops })
    }
}

/// Finds an oracle valuation (respecting exclusivity groups) under which
/// the first matching rule of `model` forwards `header`, together with
/// that rule's index. Guards are evaluated by the concrete interpreter
/// ([`vmn_mbox::exec::eval_guard`], the simulator's semantics) on an
/// empty state: the stateless models this backend compiles read none.
fn forwarding_valuation(
    model: &MboxModel,
    header: &Header,
) -> Option<(usize, HashMap<String, bool>)> {
    let n = model.oracles.len();
    debug_assert!(
        n <= vmn_analysis::MAX_ORACLES,
        "transfer compilation admits at most {} oracles",
        vmn_analysis::MAX_ORACLES
    );
    let state = MboxState::new();
    'mask: for mask in 0..(1u32 << n) {
        let vals: HashMap<String, bool> = model
            .oracles
            .iter()
            .enumerate()
            .map(|(i, o)| (o.name.clone(), mask >> i & 1 == 1))
            .collect();
        for group in &model.exclusive_oracles {
            if group.iter().filter(|o| vals.get(o.as_str()) == Some(&true)).count() > 1 {
                continue 'mask;
            }
        }
        for (r, arm) in model.rules.iter().enumerate() {
            let mut oracle = |name: &str, _: &Header| vals.get(name).copied().unwrap_or(false);
            if eval_guard(model, &state, &arm.guard, header, &mut oracle) {
                if arm.actions.contains(&Action::Forward) {
                    return Some((r, vals));
                }
                continue 'mask; // first match drops under this valuation
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn_mbox::models;
    use vmn_net::{Prefix, RoutingConfig, Rule};

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn dataplane(topo: &Topology, tables: &ForwardingTables) -> Dataplane {
        Dataplane::new(Arc::new(HeaderClasses::from_network(topo, tables)))
    }

    /// outside/inside pair behind an ACL firewall; outside is allowed
    /// only toward 10.0.0.0/24.
    fn acl_network() -> (Topology, ForwardingTables, HashMap<NodeId, MboxModel>, NodeId, NodeId) {
        let mut topo = Topology::new();
        let outside = topo.add_host("outside", addr("8.8.8.8"));
        let inside = topo.add_host("inside", addr("10.0.0.5"));
        let sw = topo.add_switch("sw");
        let fw = topo.add_middlebox("fw", "acl-firewall", vec![]);
        topo.add_link(outside, sw);
        topo.add_link(inside, sw);
        topo.add_link(fw, sw);
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), outside, fw).with_priority(10));
        let mut models_map = HashMap::new();
        models_map.insert(
            fw,
            models::acl_firewall("acl-firewall", vec![(px("8.0.0.0/8"), px("10.0.0.0/24"))]),
        );
        (topo, tables, models_map, outside, inside)
    }

    /// A 2 × 2 × 4 campus in the shape `vmn_scenarios::estate` generates
    /// (that crate sits above this one): two buildings of two floors of
    /// four hosts `h<b>x<f>x<k>` at `10.<b>.<f>.<k>`, each building
    /// behind an in-line ACL firewall `fw<b>` that passes only the
    /// building's own sources, joined at a core switch.
    fn campus() -> (Topology, ForwardingTables, HashMap<NodeId, MboxModel>) {
        let site_prefix = |b: u8| Prefix::new(Address::from_octets([10, b, 0, 0]), 16);
        let mut topo = Topology::new();
        let core = topo.add_switch("core");
        let mut sites = Vec::new();
        for b in 0..2u8 {
            let ssw = topo.add_switch(format!("building{b}"));
            let fw = topo.add_middlebox(format!("fw{b}"), format!("site-firewall-{b}"), vec![]);
            topo.add_link(ssw, fw);
            topo.add_link(fw, core);
            let mut floors = Vec::new();
            for f in 0..2u8 {
                let fsw = topo.add_switch(format!("floor{b}x{f}"));
                topo.add_link(fsw, ssw);
                for k in 0..4u8 {
                    let h =
                        topo.add_host(format!("h{b}x{f}x{k}"), Address::from_octets([10, b, f, k]));
                    topo.add_link(h, fsw);
                }
                floors.push(fsw);
            }
            sites.push((ssw, fw, floors));
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        let mut models_map = HashMap::new();
        for (b, (ssw, fw, floors)) in sites.iter().enumerate() {
            for &fsw in floors {
                tables.add_rule(fsw, Rule::new(px("10.0.0.0/8"), *ssw).with_priority(-10));
                tables.add_rule(
                    *ssw,
                    Rule::from_neighbor(px("10.0.0.0/8"), fsw, *fw).with_priority(-10),
                );
            }
            let other = 1 - b;
            tables
                .add_rule(core, Rule::from_neighbor(site_prefix(other as u8), *fw, sites[other].1));
            models_map.insert(
                *fw,
                models::acl_firewall(
                    &format!("site-firewall-{b}"),
                    vec![(site_prefix(b as u8), Prefix::default_route())],
                ),
            );
        }
        (topo, tables, models_map)
    }

    /// The lazily built delivery predicates against their definition: for
    /// every scenario, emitter and target of a slice, the predicate admits
    /// a destination exactly when the transfer function delivers it from
    /// the emitter to that target — checked on every header class — and
    /// nothing is compiled for a target outside the slice.
    #[test]
    fn delivery_predicates_match_the_transfer_function_and_stay_in_the_slice() {
        let (topo, tables, models_map, outside, inside) = acl_network();
        let fw = topo.by_name("fw").unwrap();
        let acl = (
            topo,
            tables,
            models_map,
            vec![outside, inside, fw],
            Query::SourceReaches { saddr: addr("8.8.8.8"), dst: inside },
            vec![FailureScenario::none(), FailureScenario::nodes([fw])],
        );
        let (topo, tables, models_map) = campus();
        let [src, dst, fw0, fw1, floor] =
            ["h0x0x0", "h1x0x0", "fw0", "fw1", "floor0x0"].map(|n| topo.by_name(n).unwrap());
        let estate = (
            topo,
            tables,
            models_map,
            vec![src, dst, fw0, fw1],
            Query::SourceReaches { saddr: addr("10.0.0.0"), dst },
            vec![
                FailureScenario::none(),
                FailureScenario::nodes([fw0]),
                FailureScenario::nodes([floor]),
            ],
        );
        for (topo, tables, models_map, mut slice, query, scenarios) in [acl, estate] {
            slice.sort_unstable();
            let classes = Arc::new(HeaderClasses::from_network(&topo, &tables));
            let mut dp = Dataplane::new(classes.clone());
            for scenario in &scenarios {
                dp.check(&topo, &tables, &models_map, scenario, &slice, &query, 3).unwrap();
                let tf = TransferFunction::new(&topo, &tables, scenario);
                for &emitter in &slice {
                    let built =
                        dp.delivery_predicates(&topo, &tables, scenario, emitter, &slice).unwrap();
                    for &target in &slice {
                        let pred = built
                            .iter()
                            .find(|&&(t, _)| t == target)
                            .map_or(Bdd::FALSE, |&(_, pred)| pred);
                        for rep in classes.representatives() {
                            let admits = dp.man.eval(pred, |v| {
                                (DST_BASE..DST_BASE + 32).contains(&v)
                                    && rep.0 >> (31 - (v - DST_BASE)) & 1 == 1
                            });
                            assert_eq!(
                                admits,
                                tf.deliver(emitter, rep).unwrap() == Some(target),
                                "{} -> {} at {rep} under {scenario:?}",
                                topo.node(emitter).name,
                                topo.node(target).name,
                            );
                        }
                    }
                }
                let cached = &dp.delivery[scenario];
                assert!(!cached.is_empty());
                assert!(
                    cached.keys().all(|(_, target)| slice.contains(target)),
                    "a predicate was compiled for a terminal outside the slice"
                );
                let swept = classes.memoised_emitters(scenario);
                assert!(!swept.is_empty());
                assert!(
                    swept.iter().all(|emitter| slice.contains(emitter)),
                    "an interval list was swept for an emitter outside the slice"
                );
            }
        }
    }

    #[test]
    fn acl_slice_reachability_and_witness() {
        let (topo, tables, models_map, outside, inside) = acl_network();
        let fw = topo.by_name("fw").unwrap();
        let none = FailureScenario::none();
        let slice = vec![outside, inside, fw];
        let mut dp = dataplane(&topo, &tables);
        // 8.8.8.8 → 10.0.0.5 is allowed by the ACL: violation expected,
        // with a replay-ready witness through the firewall.
        let q = Query::SourceReaches { saddr: addr("8.8.8.8"), dst: inside };
        match dp.check(&topo, &tables, &models_map, &none, &slice, &q, 3).unwrap() {
            Outcome::Violated(w) => {
                assert_eq!(w.sender, outside);
                assert_eq!(w.header.src, addr("8.8.8.8"));
                assert!(w.header.dst.in_prefix(px("10.0.0.0/24")));
                assert_eq!(w.path.first(), Some(&outside));
                assert_eq!(w.path.last(), Some(&inside));
                assert_eq!(w.hops.len(), 1);
                assert_eq!(w.hops[0].mbox, fw);
            }
            Outcome::Holds => panic!("allowed traffic must reach"),
        }
        // The reverse claim: nothing sourced at inside's own address can
        // reach outside through the firewall-free return path — it can,
        // actually (return traffic is not pipelined), so assert reach.
        let q = Query::SourceReaches { saddr: addr("10.0.0.5"), dst: outside };
        assert!(matches!(
            dp.check(&topo, &tables, &models_map, &none, &slice, &q, 3).unwrap(),
            Outcome::Violated(_)
        ));
        // Traversal: everything reaching inside must pass the firewall —
        // holds, since the pipeline rule steers outside's traffic there
        // and inside's own loopback cannot arrive.
        let q = Query::Bypass { dst: inside, through: vec![fw], from: Some(outside) };
        assert!(matches!(
            dp.check(&topo, &tables, &models_map, &none, &slice, &q, 3).unwrap(),
            Outcome::Holds
        ));
    }

    #[test]
    fn denied_traffic_is_isolated() {
        let (mut topo, _, _, _, _) = acl_network();
        // Rebuild with a second inside host outside the allowed /24.
        let far = topo.add_host("far", addr("10.0.9.9"));
        let sw = topo.by_name("sw").unwrap();
        topo.add_link(far, sw);
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        let outside = topo.by_name("outside").unwrap();
        let fw = topo.by_name("fw").unwrap();
        tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), outside, fw).with_priority(10));
        let mut models_map = HashMap::new();
        models_map.insert(
            fw,
            models::acl_firewall("acl-firewall", vec![(px("8.0.0.0/8"), px("10.0.0.0/24"))]),
        );
        let mut dp = dataplane(&topo, &tables);
        let none = FailureScenario::none();
        let slice = vec![outside, far, fw];
        let q = Query::SourceReaches { saddr: addr("8.8.8.8"), dst: far };
        assert!(matches!(
            dp.check(&topo, &tables, &models_map, &none, &slice, &q, 3).unwrap(),
            Outcome::Holds
        ));
    }

    #[test]
    fn failed_firewall_respects_scenario_routing() {
        let (topo, tables, models_map, outside, inside) = acl_network();
        let fw = topo.by_name("fw").unwrap();
        // With the firewall failed, the pipeline rule's next hop is dead
        // and the base route takes over: traffic reaches inside without
        // any middlebox hop (the "misconfigured redundant routing" class).
        let failed = FailureScenario::nodes([fw]);
        let slice = vec![outside, inside, fw];
        let mut dp = dataplane(&topo, &tables);
        let q = Query::SourceReaches { saddr: addr("8.8.8.8"), dst: inside };
        match dp.check(&topo, &tables, &models_map, &failed, &slice, &q, 3).unwrap() {
            Outcome::Violated(w) => assert!(w.hops.is_empty(), "failed box must not process"),
            Outcome::Holds => panic!("bypass route must deliver"),
        }
        // And the traversal obligation is now violated.
        let q = Query::Bypass { dst: inside, through: vec![fw], from: Some(outside) };
        assert!(matches!(
            dp.check(&topo, &tables, &models_map, &failed, &slice, &q, 3).unwrap(),
            Outcome::Violated(_)
        ));
    }

    #[test]
    fn stateful_models_are_refused() {
        let (topo, tables, _, outside, inside) = acl_network();
        let fw = topo.by_name("fw").unwrap();
        let mut models_map = HashMap::new();
        models_map.insert(fw, models::learning_firewall("fw", vec![]));
        let mut dp = dataplane(&topo, &tables);
        let none = FailureScenario::none();
        let q = Query::SourceReaches { saddr: addr("8.8.8.8"), dst: inside };
        let err = dp
            .check(&topo, &tables, &models_map, &none, &[outside, inside, fw], &q, 3)
            .unwrap_err();
        assert!(matches!(err, DataplaneError::Unsupported(_)));
    }

    #[test]
    fn hop_budget_bounds_the_search() {
        let (topo, tables, models_map, outside, inside) = acl_network();
        let fw = topo.by_name("fw").unwrap();
        let none = FailureScenario::none();
        let slice = vec![outside, inside, fw];
        let mut dp = dataplane(&topo, &tables);
        let q = Query::SourceReaches { saddr: addr("8.8.8.8"), dst: inside };
        // The violating path needs one middlebox hop; budget 0 only
        // allows direct sender→dst delivery, so the query holds.
        assert!(matches!(
            dp.check(&topo, &tables, &models_map, &none, &slice, &q, 0).unwrap(),
            Outcome::Holds
        ));
        assert!(matches!(
            dp.check(&topo, &tables, &models_map, &none, &slice, &q, 1).unwrap(),
            Outcome::Violated(_)
        ));
    }
}

//! The long-lived verification service.
//!
//! A [`Service`] holds a fleet of named [`NetSession`]s. Each session
//! keeps the symbolic [`NetSpec`], a [`Verifier`] (whose per-epoch tables
//! persist across checks; its solver sessions live one sweep each), and a
//! **verdict cache** with one entry per (invariant, scenario) pair,
//! holding the pair's verdict under its *slice key*
//! ([`vmn::slice::SliceKey`]) and the one generation before it.
//!
//! Applying a delta re-checks only what the delta can touch. The delta's
//! [`TouchSet`] decides how much of the verifier's epoch the swap keeps
//! (`Verifier::swap_network`); then every (invariant, scenario) pair takes
//! the first of three rungs that answers it:
//!
//! 1. **kept** — the batch touched no node ([`TouchSet::Nothing`]: only
//!    invariants or scenarios came or went), so a cached pair stands as
//!    it is;
//! 2. **contract** — the verifier decides the pair ([`Verifier::decide`]);
//!    in modular mode the boundary contracts may prove it outright
//!    ([`Decision::Contract`]), with no plan and no key;
//! 3. **slice key** — otherwise the decision is a plan, which the pair
//!    keys and looks up among the answers the live pairs hold. The key
//!    describes the planned check exactly, up to a renaming of its nodes
//!    and an XOR translation of its addresses, and is compared in full, so
//!    an equal key is the same check: a key seen before — from this pair
//!    or another, in this epoch or, through an entry's previous
//!    generation, the one before — is a *cache hit*; an unseen one
//!    triggers a re-verification of just that pair, on the plan just keyed
//!    ([`Verifier::verify_planned`]), whose answer the later pairs of the
//!    same pass can hit in turn.
//!
//! A hit may come from another pair, such as the same pair shape in
//! another pod on its own /16. Its witness is carried onto the asking pair
//! ([`vmn::slice::Embedding::carry`]): each node moves to the asking pair's
//! member at the same canonical index, each packet's `src`, `dst` and
//! `origin` are XORed with the two pairs' masks, and the scenario becomes
//! the asking pair's. Node ids — insertion indices, which shift when a node
//! is removed — are read against the answer's own epoch, so a witness
//! crosses epochs the same way. The cache keeps two generations per live
//! pair, so a pass looks up at most 2 × live pairs answers plus its own
//! re-checks.
//!
//! Pipeline invariants are static-datapath checks, orders of magnitude
//! cheaper than the SMT path, and are simply re-checked on every delta.
//!
//! A batch is transactional. The pass stages its cache writes and
//! pipeline results and commits them only once every pair is answered; a
//! pass that fails restores the spec and rebuilds the previous epoch from
//! nothing, so a refused batch leaves the session as it found it.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vmn::slice::{Embedding, SliceKey};
use vmn::{Decision, Invariant, PartitionMode, Verdict, Verifier, VerifyOptions};
use vmn_analysis::TouchSet;
use vmn_net::{FailureScenario, NodeId};

use crate::delta::{scenario_key, Delta};
use crate::spec::{NetSpec, Structure};

/// One decided verdict, in a form any later epoch and any pair of the same
/// key can take.
#[derive(Clone, Debug)]
struct CachedVerdict {
    /// The key the verdict was decided under (`None` for a contract
    /// answer).
    key: Option<Arc<SliceKey>>,
    /// Where the pair that holds this answer sits in the key, by node id in
    /// the verdict's epoch.
    at: Embedding,
    verdict: Verdict,
}

impl CachedVerdict {
    /// The boundary contracts' answer: the pair holds, under no key.
    fn contract() -> CachedVerdict {
        CachedVerdict { key: None, at: Embedding::default(), verdict: Verdict::Holds }
    }

    /// This answer served to the pair placed by `to` under `scenario`: the
    /// witness, if any, is carried onto that pair's nodes and addresses
    /// ([`Embedding::carry`]) and names the new scenario.
    fn retarget(&self, to: &Embedding, scenario: &FailureScenario) -> CachedVerdict {
        let verdict = match &self.verdict {
            Verdict::Holds => Verdict::Holds,
            Verdict::Violated { trace, .. } => {
                Verdict::Violated { trace: self.at.carry(trace, to), scenario: scenario.clone() }
            }
        };
        CachedVerdict { key: self.key.clone(), at: to.clone(), verdict }
    }
}

/// One cached (invariant, scenario) verdict.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    answer: CachedVerdict,
    /// The answer this entry held before its key last changed, so that
    /// undoing a delta finds it.
    previous: Option<CachedVerdict>,
}

impl CacheEntry {
    /// The pair's verdict, its witness in the current epoch.
    pub fn verdict(&self) -> &Verdict {
        &self.answer.verdict
    }

    /// Answered by the boundary contracts alone: no plan, no key.
    pub fn contract(&self) -> bool {
        self.answer.key.is_none()
    }
}

/// What one delta batch did.
#[derive(Clone, Debug)]
pub struct DeltaReport {
    /// The batch's merged session footprint.
    pub touched: TouchSet,
    /// Total (invariant, scenario) pairs after the batch.
    pub pairs: usize,
    /// Pairs kept as cached because the batch touched no node.
    pub prefiltered: usize,
    /// Pairs answered by the boundary contracts alone (modular mode).
    pub contract_answered: usize,
    /// Pairs whose recomputed slice key was seen before: some live pair —
    /// this one or another — was decided under it, in this epoch or, as an
    /// entry's previous generation, the one before.
    pub cache_hits: usize,
    /// Pairs actually re-verified.
    pub rechecked: usize,
    /// Cache entries dropped (retired invariants/scenarios).
    pub retired: usize,
    /// Modules in the active partition (0 when running monolithically).
    pub modules: usize,
    /// Modules the batch footprint landed in: `Some(n)` for a `Nodes`
    /// footprint, `None` for `Everything` or without a partition.
    pub modules_touched: Option<usize>,
    /// Verdicts that changed (or appeared), as
    /// (invariant spec, scenario key, holds, previous holds).
    pub changed: Vec<(String, String, bool, Option<bool>)>,
    /// Time spent materialising the epoch's network from the spec: both
    /// halves on `load` and a structural delta, the behavioural half
    /// alone on any other delta.
    pub materialize: Duration,
    /// Time spent building (`load`) or swapping in (delta) the verifier's
    /// epoch.
    pub swap: Duration,
    /// Time spent in the reconcile ladder.
    pub reconcile: Duration,
    /// Wall-clock of the whole request, `materialize`, `swap` and
    /// `reconcile` included.
    pub elapsed: Duration,
}

impl DeltaReport {
    /// The report of a batch with footprint `touched` whose epoch took
    /// `materialize` and `swap`, before its reconcile pass.
    fn new(
        touched: TouchSet,
        session: &NetSession,
        materialize: Duration,
        swap: Duration,
    ) -> DeltaReport {
        DeltaReport {
            modules_touched: session.modules_touched(&touched),
            touched,
            pairs: 0,
            prefiltered: 0,
            contract_answered: 0,
            cache_hits: 0,
            rechecked: 0,
            retired: 0,
            modules: session.module_count(),
            changed: Vec::new(),
            materialize,
            swap,
            reconcile: Duration::ZERO,
            elapsed: Duration::ZERO,
        }
    }
}

/// The current verdict of one registered invariant, aggregated over the
/// scenario sweep in configured order (no-failure first).
#[derive(Clone, Debug)]
pub struct InvariantVerdict {
    pub spec: String,
    pub holds: bool,
    /// First violating scenario (key) and its witness length, if any.
    pub violation: Option<(String, usize)>,
}

/// A long-lived verification session for one network.
pub struct NetSession {
    spec: NetSpec,
    verifier: Verifier,
    names: HashMap<String, NodeId>,
    invariants: Vec<(String, Invariant)>,
    pipelines: Vec<(String, vmn_net::PipelineSpec, NodeId, NodeId)>,
    /// Pipeline results, re-checked on every delta (static, cheap).
    pipeline_holds: Vec<(String, bool)>,
    /// (invariant spec, scenario key) → cached verdict.
    cache: HashMap<(String, String), CacheEntry>,
}

/// Scenario key for the implicit no-failure scenario.
pub const NONE_SCENARIO: &str = "";

impl NetSession {
    /// Parses, materialises and fully verifies a configuration; every
    /// (invariant, scenario) pair lands in the verdict cache.
    pub fn load(config: &str, options: VerifyOptions) -> Result<(NetSession, DeltaReport), String> {
        let start = Instant::now();
        let spec = NetSpec::parse(config).map_err(|e| e.to_string())?;
        let materialize_start = Instant::now();
        let m = spec.materialize().map_err(|e| e.to_string())?;
        let materialize = materialize_start.elapsed();
        // A `partition auto` directive switches the verifier into
        // modular mode regardless of the service-wide options.
        let mut options = options;
        if spec.partition {
            options.partition = PartitionMode::Auto;
        }
        let swap_start = Instant::now();
        let verifier = Verifier::from_arc(Arc::new(m.net), options).map_err(|e| e.to_string())?;
        let swap = swap_start.elapsed();
        let mut session = NetSession {
            spec,
            verifier,
            names: m.names,
            invariants: m.invariants,
            pipelines: m.pipelines,
            pipeline_holds: Vec::new(),
            cache: HashMap::new(),
        };
        let mut report = DeltaReport::new(TouchSet::Everything, &session, materialize, swap);
        session.reconcile(&mut report)?;
        report.elapsed = start.elapsed();
        Ok((session, report))
    }

    /// Applies a batch of deltas transactionally: either all apply and
    /// the report describes the re-verification, or the session is
    /// unchanged. Batching merges the footprints, so one reconcile pass
    /// serves the whole batch.
    ///
    /// The batch pays for the structure it changed: a structural batch
    /// ([`TouchSet::Everything`]) materialises both halves of the spec, any
    /// other runs only the behavioural half over the current epoch's
    /// topology, tables and name map, which the new epoch then shares.
    pub fn apply(&mut self, deltas: &[Delta]) -> Result<DeltaReport, String> {
        let start = Instant::now();
        let mut spec = self.spec.clone();
        let mut touched = TouchSet::Nothing;
        for d in deltas {
            touched = touched.union(spec.apply(d).map_err(|e| e.to_string())?);
        }
        let old_net = self.verifier.network().clone();
        let materialize_start = Instant::now();
        let m = match touched {
            TouchSet::Everything => spec.materialize(),
            TouchSet::Nothing | TouchSet::Nodes(_) => spec.behaviour(Structure {
                topo: old_net.topo.clone(),
                tables: old_net.tables.clone(),
                names: self.names.clone(),
            }),
        }
        .map_err(|e| e.to_string())?;
        let materialize = materialize_start.elapsed();
        let swap_start = Instant::now();
        self.verifier.swap_network(Arc::new(m.net), &touched).map_err(|e| e.to_string())?;
        let swap = swap_start.elapsed();
        let restore = (
            std::mem::replace(&mut self.spec, spec),
            std::mem::replace(&mut self.names, m.names),
            std::mem::replace(&mut self.invariants, m.invariants),
            std::mem::replace(&mut self.pipelines, m.pipelines),
        );

        let mut report = DeltaReport::new(touched, self, materialize, swap);
        if let Err(e) = self.reconcile(&mut report) {
            // The pass committed nothing. Rebuilding the previous epoch
            // from nothing is correct by construction; the tables it
            // drops are only caches.
            (self.spec, self.names, self.invariants, self.pipelines) = restore;
            self.verifier
                .swap_network(old_net, &TouchSet::Everything)
                .expect("the previous epoch was accepted, and rebuilding it is deterministic");
            return Err(e);
        }
        report.elapsed = start.elapsed();
        Ok(report)
    }

    /// The scenario sweep in configured order: the no-failure scenario
    /// first (key `""`), then the registered failure scenarios.
    pub fn scenario_list(&self) -> Vec<(String, FailureScenario)> {
        let mut out = vec![(NONE_SCENARIO.to_string(), FailureScenario::none())];
        for fail in self.spec.fail_specs() {
            let nodes: Vec<NodeId> =
                fail.iter().filter_map(|n| self.names.get(n).copied()).collect();
            out.push((scenario_key(fail), FailureScenario::nodes(nodes)));
        }
        out
    }

    /// Brings the verdict cache in line with the current epoch; see the
    /// module docs for the kept / contract / slice-key ladder. The cache
    /// and the pipeline results change only if the pass succeeds.
    fn reconcile(&mut self, report: &mut DeltaReport) -> Result<(), String> {
        let start = Instant::now();
        let kept = report.touched.is_nothing();
        let scenarios = self.scenario_list();
        let live: BTreeSet<(String, String)> = self
            .invariants
            .iter()
            .flat_map(|(inv, _)| scenarios.iter().map(move |(s, _)| (inv.clone(), s.clone())))
            .collect();
        // Every answer a live pair holds, by the key it was decided under;
        // the first in key order wins, so a pass is deterministic.
        let mut known: HashMap<Arc<SliceKey>, CachedVerdict> = HashMap::new();
        for entry in live.iter().filter_map(|key| self.cache.get(key)).filter(|e| !e.contract()) {
            for answer in std::iter::once(&entry.answer).chain(&entry.previous) {
                if let Some(key) = &answer.key {
                    known.entry(key.clone()).or_insert_with(|| answer.clone());
                }
            }
        }
        let mut staged = Vec::new();
        for (inv_spec, inv) in &self.invariants {
            for (skey, scenario) in &scenarios {
                let key = (inv_spec.clone(), skey.clone());
                report.pairs += 1;
                if kept && self.cache.contains_key(&key) {
                    report.prefiltered += 1;
                    continue;
                }
                // The contract rung, or the plan keyed here, which is the
                // plan a re-check runs.
                let plan = match self.verifier.decide(inv, scenario).map_err(|e| e.to_string())? {
                    Decision::Contract => {
                        report.contract_answered += 1;
                        staged.push((key, CachedVerdict::contract()));
                        continue;
                    }
                    Decision::Plan(plan) => plan,
                };
                let (slice_key, at) = SliceKey::new(
                    self.verifier.network(),
                    self.verifier.header_classes(),
                    inv,
                    scenario,
                    plan.nodes(),
                    plan.bound(),
                )
                .map_err(|e| e.to_string())?;
                let answer = match known.get(&slice_key) {
                    Some(hit) => {
                        report.cache_hits += 1;
                        hit.retarget(&at, scenario)
                    }
                    None => {
                        let r = self
                            .verifier
                            .verify_planned(inv, vec![(scenario.clone(), plan)])
                            .map_err(|e| e.to_string())?;
                        report.rechecked += 1;
                        let slice_key = Arc::new(slice_key);
                        let answer =
                            CachedVerdict { key: Some(slice_key.clone()), at, verdict: r.verdict };
                        known.insert(slice_key, answer.clone());
                        answer
                    }
                };
                staged.push((key, answer));
            }
        }
        let mut pipeline_holds = Vec::new();
        for (spec, p, s, d) in &self.pipelines {
            let holds =
                self.verifier.check_pipeline(p, *s, *d).map_err(|e| e.to_string())?.is_none();
            pipeline_holds.push((spec.clone(), holds));
        }

        let before = self.cache.len();
        self.cache.retain(|k, _| live.contains(k));
        report.retired = before - self.cache.len();
        for (key, answer) in staged {
            record(&mut self.cache, key, answer, report);
        }
        self.pipeline_holds = pipeline_holds;
        report.reconcile = start.elapsed();
        Ok(())
    }

    /// Current verdict of every registered reachability invariant,
    /// aggregated across the scenario sweep in configured order.
    pub fn verdicts(&self) -> Vec<InvariantVerdict> {
        let order: Vec<String> = self.scenario_list().into_iter().map(|(k, _)| k).collect();
        self.invariants
            .iter()
            .map(|(spec, _)| {
                let violation = order.iter().find_map(|skey| {
                    match self.cache.get(&(spec.clone(), skey.clone()))?.verdict() {
                        Verdict::Holds => None,
                        Verdict::Violated { trace, .. } => Some((skey.clone(), trace.steps.len())),
                    }
                });
                InvariantVerdict { spec: spec.clone(), holds: violation.is_none(), violation }
            })
            .collect()
    }

    /// Pipeline-invariant results (spec text, holds).
    pub fn pipeline_verdicts(&self) -> &[(String, bool)] {
        &self.pipeline_holds
    }

    /// The cached verdict for one (invariant spec, scenario key) pair.
    pub fn cached(&self, inv_spec: &str, scenario_key: &str) -> Option<&CacheEntry> {
        self.cache.get(&(inv_spec.to_string(), scenario_key.to_string()))
    }

    /// Modules in the active partition (0 when running monolithically).
    pub fn module_count(&self) -> usize {
        self.verifier.modular_context().map_or(0, |c| c.module_count())
    }

    /// How many modules a footprint lands in: `Some(n)` for a `Nodes`
    /// footprint under a partition, `None` otherwise.
    fn modules_touched(&self, touched: &TouchSet) -> Option<usize> {
        let ctx = self.verifier.modular_context()?;
        match touched {
            TouchSet::Nothing => Some(0),
            TouchSet::Everything => None,
            TouchSet::Nodes(names) => {
                let topo = &self.verifier.network().topo;
                let mods: BTreeSet<usize> = names
                    .iter()
                    .filter_map(|n| topo.by_name(n).ok())
                    .filter_map(|id| ctx.module_of(id))
                    .collect();
                Some(mods.len())
            }
        }
    }

    pub fn cached_pairs(&self) -> usize {
        self.cache.len()
    }

    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    pub fn names(&self) -> &HashMap<String, NodeId> {
        &self.names
    }

    pub fn invariants(&self) -> &[(String, Invariant)] {
        &self.invariants
    }
}

/// Files `answer` as `key`'s verdict and reports it if it changed or
/// appeared. An answer it replaces under another key becomes the entry's
/// previous generation, which the slice-key rung reads of keyed entries only.
fn record(
    cache: &mut HashMap<(String, String), CacheEntry>,
    key: (String, String),
    answer: CachedVerdict,
    report: &mut DeltaReport,
) {
    let old = cache.remove(&key);
    let holds = answer.verdict.holds();
    let was = old.as_ref().map(|e| e.answer.verdict.holds());
    if was != Some(holds) {
        report.changed.push((key.0.clone(), key.1.clone(), holds, was));
    }
    let previous = match old {
        Some(e) if e.answer.key == answer.key => e.previous,
        Some(e) => Some(e.answer),
        None => None,
    };
    cache.insert(key, CacheEntry { answer, previous });
}

/// A fleet of named sessions plus the protocol driver.
pub struct Service {
    options: VerifyOptions,
    nets: HashMap<String, NetSession>,
}

impl Service {
    pub fn new(options: VerifyOptions) -> Service {
        Service { options, nets: HashMap::new() }
    }

    /// Loads (or replaces) a named network from `.vmn` config text.
    pub fn load(&mut self, name: &str, config: &str) -> Result<DeltaReport, String> {
        let (session, report) = NetSession::load(config, self.options.clone())?;
        self.nets.insert(name.to_string(), session);
        Ok(report)
    }

    pub fn net(&self, name: &str) -> Option<&NetSession> {
        self.nets.get(name)
    }

    pub fn net_mut(&mut self, name: &str) -> Option<&mut NetSession> {
        self.nets.get_mut(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.nets.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use crate::spec::NodeSpec;

    const CONFIG: &str = r"
host     outside 8.8.8.8
host     inside  10.0.0.5
switch   sw
firewall fw allow 10.0.0.0/8 -> 0.0.0.0/0
link     outside sw
link     inside  sw
link     fw      sw
autoroute
steer    sw from outside 0.0.0.0/0 fw prio 10
steer    sw from inside  0.0.0.0/0 fw prio 10
verify   flow-isolation outside -> inside
verify   node-isolation outside -> inside
";

    #[test]
    fn load_verifies_every_pair() {
        let (s, report) = NetSession::load(CONFIG, VerifyOptions::default()).unwrap();
        assert_eq!(report.pairs, 2); // 2 invariants × 1 scenario (none)
        assert_eq!(report.rechecked, 2);
        let v = s.verdicts();
        assert!(v.iter().find(|iv| iv.spec.starts_with("flow")).unwrap().holds);
        assert!(!v.iter().find(|iv| iv.spec.starts_with("node")).unwrap().holds);
    }

    #[test]
    fn engine_errors_reach_the_client_as_display_text() {
        // The learning firewall makes every slice stateful, so a forced
        // BDD backend fails the first pair's decision with a routing error.
        let opts = VerifyOptions { backend: vmn::Backend::Bdd, ..Default::default() };
        let err = NetSession::load(CONFIG, opts).map(|_| ()).unwrap_err();
        assert!(err.starts_with("bdd backend:"), "{err}");
        assert!(!err.contains("Bdd(\""), "Debug formatting leaked into: {err}");
    }

    /// Two sites behind firewalls, the first one stateful, under
    /// `partition auto`.
    const TWO_SITES: &str = "\
host a1 10.1.0.1
host a2 10.1.0.2
host b1 10.2.0.1
host b2 10.2.0.2
switch asw
switch bsw
switch core
firewall afw allow 10.1.0.0/16 -> 0.0.0.0/0
acl-firewall bfw allow 10.2.0.0/16 -> 0.0.0.0/0
link a1 asw
link a2 asw
link b1 bsw
link b2 bsw
link asw afw
link afw core
link bsw bfw
link bfw core
autoroute
steer asw from a1 10.0.0.0/8 afw prio -10
steer asw from a2 10.0.0.0/8 afw prio -10
steer bsw from b1 10.0.0.0/8 bfw prio -10
steer bsw from b2 10.0.0.0/8 bfw prio -10
steer core from afw 10.2.0.0/16 bfw
steer core from bfw 10.1.0.0/16 afw
partition auto
fail afw
verify node-isolation a1 -> b1
";

    /// The daemon and the engine take one answer path. The boundary
    /// contracts prove the cross-site pair in every scenario, so a forced
    /// BDD backend answers it from the contracts in both, although the
    /// pair's slice holds the stateful `afw`.
    #[test]
    fn the_daemon_and_the_engine_decide_alike() {
        let opts = VerifyOptions { backend: vmn::Backend::Bdd, ..Default::default() };
        let served = NetSession::load(TWO_SITES, opts.clone()).map(|(s, r)| {
            assert_eq!(r.contract_answered, r.pairs, "{r:?}");
            s.verdicts()[0].holds
        });
        let m = NetSpec::parse(TWO_SITES).unwrap().materialize().unwrap();
        let opts = VerifyOptions { partition: PartitionMode::Auto, ..opts };
        let verified = Verifier::new(&m.net, opts)
            .unwrap()
            .verify(&m.invariants[0].1)
            .map(|r| r.verdict.holds())
            .map_err(|e| e.to_string());
        assert_eq!(served, verified);
        assert_eq!(served, Ok(true));
    }

    #[test]
    fn invariant_delta_reuses_cache() {
        let (mut s, _) = NetSession::load(CONFIG, VerifyOptions::default()).unwrap();
        let r = s
            .apply(&[Delta::AddInvariant { spec: "data-isolation inside -> outside".into() }])
            .unwrap();
        // The two old pairs are kept (TouchSet::Nothing touches no
        // node); only the new invariant's pair is verified.
        assert_eq!(r.pairs, 3);
        assert_eq!(r.prefiltered, 2);
        assert_eq!(r.rechecked, 1);
        assert_eq!(r.retired, 0);
        assert!(r.touched.is_nothing());
    }

    #[test]
    fn retire_drops_cache_entries() {
        let (mut s, _) = NetSession::load(CONFIG, VerifyOptions::default()).unwrap();
        let r = s
            .apply(&[Delta::RetireInvariant { spec: "node-isolation outside -> inside".into() }])
            .unwrap();
        assert_eq!(r.pairs, 1);
        assert_eq!(r.retired, 1);
        assert_eq!(r.rechecked, 0);
        assert_eq!(s.cached_pairs(), 1);
    }

    #[test]
    fn disjoint_set_model_is_a_cache_hit() {
        // Two independent pods behind one core switch; touching pod B's
        // firewall must not re-verify pod A's invariant.
        let config = r"
host a1 10.1.0.1
host a2 10.1.0.2
host b1 10.2.0.1
host b2 10.2.0.2
switch swa
switch swb
switch core
firewall fwa allow 10.1.0.0/16 -> 0.0.0.0/0
firewall fwb allow 10.2.0.0/16 -> 0.0.0.0/0
link a1 swa
link a2 swa
link fwa swa
link b1 swb
link b2 swb
link fwb swb
link swa core
link swb core
autoroute
steer swa from a1 0.0.0.0/0 fwa prio 10
steer swb from b1 0.0.0.0/0 fwb prio 10
verify flow-isolation a1 -> a2
verify flow-isolation b1 -> b2
";
        let (mut s, load_report) = NetSession::load(config, VerifyOptions::default()).unwrap();
        // The two pods are one check up to the translation between their
        // /16s: the second is answered from the first.
        assert_eq!((load_report.rechecked, load_report.cache_hits), (1, 1), "{load_report:?}");
        let r = s
            .apply(&[Delta::SetModel {
                name: "fwb".into(),
                kind: "firewall".into(),
                args: vec![
                    "allow".into(),
                    "10.2.0.0/16".into(),
                    "->".into(),
                    "0.0.0.0/0".into(),
                    ",".into(),
                    "10.1.0.0/16".into(),
                    "->".into(),
                    "10.2.0.0/16".into(),
                ],
            }])
            .unwrap();
        assert_eq!(r.touched, TouchSet::node("fwb"));
        // Pod A's pair never re-verifies: its slice misses fwb, so its
        // key is unchanged.
        let a_recheck = r.changed.iter().any(|(inv, _, _, _)| inv.contains("a1"));
        assert!(!a_recheck, "pod A's verdict must not change: {:?}", r.changed);
        assert_eq!((r.prefiltered, r.cache_hits, r.rechecked), (0, 1, 1), "{r:?}");
    }

    #[test]
    fn structural_delta_rechecks_changed_slices_only_via_slice_key() {
        let (mut s, _) = NetSession::load(CONFIG, VerifyOptions::default()).unwrap();
        // Adding an unconnected host is TouchSet::Everything (structural)
        // but leaves both slices' delivery intact, so the keys match and
        // no pair re-solves.
        let r = s
            .apply(&[Delta::AddNode(NodeSpec::Host { name: "h9".into(), addr: "9.9.9.9".into() })])
            .unwrap();
        assert_eq!(r.touched, TouchSet::Everything);
        assert_eq!(r.prefiltered, 0);
        assert_eq!(r.cache_hits, 2, "{r:?}");
        assert_eq!(r.rechecked, 0, "{r:?}");
    }

    /// A model, scenario or intent delta materialises only the
    /// behavioural half: its epoch holds its predecessor's topology and
    /// tables, not copies. (No kind changes here; see the next test.)
    #[test]
    fn behavioural_deltas_share_the_epochs_topology_and_tables() {
        let (mut s, _) = NetSession::load(CONFIG, VerifyOptions::default()).unwrap();
        let deltas = [
            Delta::SetModel { name: "fw".into(), kind: "firewall".into(), args: vec![] },
            Delta::AddScenario { fail: vec!["fw".into()] },
            Delta::AddInvariant { spec: "data-isolation inside -> outside".into() },
            Delta::RetireInvariant { spec: "node-isolation outside -> inside".into() },
        ];
        for delta in deltas {
            let before = s.verifier().network().clone();
            let r = s.apply(std::slice::from_ref(&delta)).unwrap();
            assert_ne!(r.touched, TouchSet::Everything, "{delta:?}");
            let net = s.verifier().network();
            assert!(Arc::ptr_eq(&net.topo, &before.topo), "{delta:?} copied the topology");
            assert!(Arc::ptr_eq(&net.tables, &before.tables), "{delta:?} copied the tables");
        }
    }

    /// A `set-model` that changes a box's kind but not the addresses it
    /// owns is a model delta, yet the kind is the box's type tag in the
    /// topology: the epoch reports the new type, on a re-tagged copy of
    /// the topology, and still shares the tables.
    #[test]
    fn kind_change_retags_the_box_and_shares_the_tables() {
        let (mut s, _) = NetSession::load(CONFIG, VerifyOptions::default()).unwrap();
        let fw = s.names()["fw"];
        let before = s.verifier().network().clone();
        assert_eq!(before.topo.mbox_type(fw), Some("firewall"));
        let args = ["allow", "10.0.0.0/8", "->", "0.0.0.0/0"].map(String::from).to_vec();
        let r = s
            .apply(&[Delta::SetModel { name: "fw".into(), kind: "acl-firewall".into(), args }])
            .unwrap();
        assert_eq!(r.touched, TouchSet::node("fw"));
        let net = s.verifier().network();
        assert_eq!(net.topo.mbox_type(fw), Some("acl-firewall"));
        assert_eq!(net.model(fw).type_name, "acl-firewall");
        assert_eq!(before.topo.mbox_type(fw), Some("firewall"), "the old epoch is untouched");
        assert!(!Arc::ptr_eq(&net.topo, &before.topo));
        assert!(Arc::ptr_eq(&net.tables, &before.tables), "a re-tag copies no table");
    }

    /// A structural delta materialises both halves: its epoch shares
    /// neither topology nor tables with its predecessor.
    #[test]
    fn structural_delta_shares_no_structure() {
        let (mut s, _) = NetSession::load(CONFIG, VerifyOptions::default()).unwrap();
        let before = s.verifier().network().clone();
        let r = s
            .apply(&[Delta::AddNode(NodeSpec::Host { name: "h9".into(), addr: "9.9.9.9".into() })])
            .unwrap();
        assert_eq!(r.touched, TouchSet::Everything);
        let net = s.verifier().network();
        assert!(!Arc::ptr_eq(&net.topo, &before.topo));
        assert!(!Arc::ptr_eq(&net.tables, &before.tables));
    }

    #[test]
    fn scenario_delta_verifies_the_new_column() {
        let (mut s, _) = NetSession::load(CONFIG, VerifyOptions::default()).unwrap();
        let r = s.apply(&[Delta::AddScenario { fail: vec!["fw".into()] }]).unwrap();
        assert_eq!(r.pairs, 4);
        assert_eq!(r.prefiltered, 2);
        assert_eq!(r.rechecked, 2);
        // The firewall failure breaks flow isolation (no backup path
        // configured, traffic falls through directly).
        let v = s.verdicts();
        let flow = v.iter().find(|iv| iv.spec.starts_with("flow")).unwrap();
        assert!(!flow.holds);
        assert_eq!(flow.violation.as_ref().unwrap().0, "fw");
        // Removing the scenario restores the verdict and retires the
        // column's cache entries.
        let r = s.apply(&[Delta::RemoveScenario { fail: vec!["fw".into()] }]).unwrap();
        assert_eq!(r.retired, 2);
        assert!(s.verdicts().iter().find(|iv| iv.spec.starts_with("flow")).unwrap().holds);
    }

    /// Every (invariant, scenario) pair has a cache entry of its own: a
    /// config whose keys would collide is refused, so after a load the
    /// report's pairs are the cache's entries.
    #[test]
    fn every_pair_is_its_own_cache_entry() {
        let (s, report) =
            NetSession::load(&format!("{CONFIG}fail fw\n"), VerifyOptions::default()).unwrap();
        assert_eq!((report.pairs, s.cached_pairs()), (4, 4));
        for colliding in
            ["fail\n", "fail fw\nfail fw\n", "verify flow-isolation outside -> inside\n"]
        {
            let config = format!("{CONFIG}{colliding}");
            let err = NetSession::load(&config, VerifyOptions::default()).map(|_| ()).unwrap_err();
            let last = config.lines().count();
            assert!(err.starts_with(&format!("line {last}:")), "{colliding:?}: {err}");
        }
    }

    #[test]
    fn service_fleet_holds_independent_nets() {
        let mut svc = Service::new(VerifyOptions::default());
        svc.load("prod", CONFIG).unwrap();
        svc.load("staging", CONFIG).unwrap();
        svc.net_mut("staging")
            .unwrap()
            .apply(&[Delta::AddScenario { fail: vec!["fw".into()] }])
            .unwrap();
        assert_eq!(svc.net("prod").unwrap().cached_pairs(), 2);
        assert_eq!(svc.net("staging").unwrap().cached_pairs(), 4);
        let mut names: Vec<&str> = svc.names().collect();
        names.sort_unstable();
        assert_eq!(names, ["prod", "staging"]);
    }
}

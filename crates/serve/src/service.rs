//! The long-lived verification service.
//!
//! A [`Service`] holds a fleet of named [`NetSession`]s. Each session
//! keeps the symbolic [`NetSpec`], a [`Verifier`] (whose per-epoch tables
//! persist across checks; its solver sessions live one sweep each), and a
//! **verdict cache** with one entry per (invariant, scenario) pair,
//! holding the pair's verdict under its *slice fingerprint*
//! ([`vmn::slice::verdict_fingerprint`]) and the one generation before it.
//!
//! Applying a delta re-checks only what the delta can touch. The delta's
//! [`TouchSet`] decides how much of the verifier's epoch the swap keeps
//! (`Verifier::swap_network`); then every (invariant, scenario) pair takes
//! the first of three rungs that answers it:
//!
//! 1. **kept** — the batch touched no node ([`TouchSet::Nothing`]: only
//!    invariants or scenarios came or went), so a cached pair stands as
//!    it is;
//! 2. **contract** — in modular mode, the boundary contracts prove the
//!    pair outright, with no plan and no fingerprint;
//! 3. **fingerprint** — the pair recomputes its fingerprint and looks it
//!    up among the answers the live pairs hold: a fingerprint seen
//!    before — from this pair or another, in this epoch or, through an
//!    entry's previous generation, the one before — is a *cache hit* (the
//!    verdict is a deterministic function of the fingerprinted inputs,
//!    none of which names the pair); an unseen one triggers a
//!    re-verification of just that pair, on the plan just fingerprinted
//!    ([`Verifier::verify_planned`]), whose answer the later pairs of the
//!    same pass can hit in turn.
//!
//! A hit's witness is re-targeted: its scenario becomes the asking pair's,
//! and its node ids — insertion indices, which shift when a node is
//! removed — are mapped by name into the current epoch. The cache keeps
//! two generations per live pair, so a pass looks up at most 2 × live
//! pairs answers plus its own re-checks.
//!
//! Pipeline invariants are static-datapath checks, orders of magnitude
//! cheaper than the SMT path, and are simply re-checked on every delta.
//!
//! A batch is transactional. The pass stages its cache writes and
//! pipeline results and commits them only once every pair is answered; a
//! pass that fails restores the spec and rebuilds the previous epoch from
//! nothing, so a refused batch leaves the session as it found it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vmn::slice::verdict_fingerprint;
use vmn::{Invariant, Network, PartitionMode, Verdict, Verifier, VerifyOptions};
use vmn_analysis::TouchSet;
use vmn_net::{FailureScenario, NodeId};

use crate::delta::{scenario_key, Delta};
use crate::spec::NetSpec;

/// One decided verdict, in a form any later epoch can take.
#[derive(Clone, Debug)]
struct Answer {
    /// The fingerprint the verdict was decided under (0 for a contract
    /// answer).
    fingerprint: u64,
    verdict: Verdict,
    /// The name of every node the witness mentions, by its id in the
    /// verdict's epoch (empty for `Holds`).
    names: BTreeMap<NodeId, String>,
}

impl Answer {
    fn new(fingerprint: u64, verdict: Verdict, net: &Network) -> Answer {
        let mut names = BTreeMap::new();
        if let Verdict::Violated { trace, .. } = &verdict {
            for step in &trace.steps {
                for n in step.actor.into_iter().chain(step.delivered_to) {
                    names.entry(n).or_insert_with(|| net.topo.node(n).name.clone());
                }
            }
        }
        Answer { fingerprint, verdict, names }
    }

    /// This answer served to `scenario` of the epoch whose node ids `ids`
    /// holds. `None` if a witness node is gone, which an equal
    /// fingerprint rules out short of a hash collision.
    fn retarget(
        &self,
        ids: &HashMap<String, NodeId>,
        scenario: &FailureScenario,
    ) -> Option<Answer> {
        let Verdict::Violated { trace, .. } = &self.verdict else {
            return Some(self.clone());
        };
        let new_id: BTreeMap<NodeId, NodeId> = self
            .names
            .iter()
            .map(|(old, name)| Some((*old, *ids.get(name)?)))
            .collect::<Option<_>>()?;
        let mut trace = trace.clone();
        for step in &mut trace.steps {
            step.actor = step.actor.map(|n| new_id[&n]);
            step.delivered_to = step.delivered_to.map(|n| new_id[&n]);
        }
        Some(Answer {
            fingerprint: self.fingerprint,
            verdict: Verdict::Violated { trace, scenario: scenario.clone() },
            names: self.names.iter().map(|(old, name)| (new_id[old], name.clone())).collect(),
        })
    }
}

/// One cached (invariant, scenario) verdict.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Answered by the boundary contracts alone: no slice, no
    /// fingerprint. The contract re-answers such entries (cheaply)
    /// whenever the epoch moves.
    pub contract: bool,
    answer: Answer,
    /// The fingerprinted answer this entry held before its fingerprint
    /// last changed, so that undoing a delta finds it.
    previous: Option<Answer>,
}

impl CacheEntry {
    /// The pair's verdict, its witness in the current epoch.
    pub fn verdict(&self) -> &Verdict {
        &self.answer.verdict
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
    /// Pairs whose recomputed fingerprint was seen before: some live
    /// pair — this one or another — was decided under it, in this epoch
    /// or, as an entry's previous generation, the one before.
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
    /// Time spent building (`load`) or swapping in (delta) the verifier's
    /// epoch.
    pub swap: Duration,
    /// Time spent in the reconcile ladder.
    pub reconcile: Duration,
    /// Wall-clock of the whole request, `swap` and `reconcile` included.
    pub elapsed: Duration,
}

impl DeltaReport {
    /// The report of a batch with footprint `touched` whose epoch took
    /// `swap`, before its reconcile pass.
    fn new(touched: TouchSet, session: &NetSession, swap: Duration) -> DeltaReport {
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
        let spec = NetSpec::parse(config).map_err(|e| e.to_string())?;
        let m = spec.materialize().map_err(|e| e.to_string())?;
        let net = Arc::new(m.net);
        // A `partition auto` directive switches the verifier into
        // modular mode regardless of the service-wide options.
        let mut options = options;
        if spec.partition {
            options.partition = PartitionMode::Auto;
        }
        let start = Instant::now();
        let verifier = Verifier::from_arc(net, options).map_err(|e| e.to_string())?;
        let swap = start.elapsed();
        let mut session = NetSession {
            spec,
            verifier,
            names: m.names,
            invariants: m.invariants,
            pipelines: m.pipelines,
            pipeline_holds: Vec::new(),
            cache: HashMap::new(),
        };
        let mut report = DeltaReport::new(TouchSet::Everything, &session, swap);
        session.reconcile(&mut report)?;
        report.elapsed = start.elapsed();
        Ok((session, report))
    }

    /// Applies a batch of deltas transactionally: either all apply and
    /// the report describes the re-verification, or the session is
    /// unchanged. Batching merges the footprints, so one reconcile pass
    /// serves the whole batch.
    pub fn apply(&mut self, deltas: &[Delta]) -> Result<DeltaReport, String> {
        let start = Instant::now();
        let mut spec = self.spec.clone();
        let mut touched = TouchSet::Nothing;
        for d in deltas {
            touched = touched.union(spec.apply(d).map_err(|e| e.to_string())?);
        }
        let m = spec.materialize().map_err(|e| e.to_string())?;
        let old_net = self.verifier.network().clone();
        let swap_start = Instant::now();
        self.verifier.swap_network(Arc::new(m.net), &touched).map_err(|e| e.to_string())?;
        let swap = swap_start.elapsed();
        let restore = (
            std::mem::replace(&mut self.spec, spec),
            std::mem::replace(&mut self.names, m.names),
            std::mem::replace(&mut self.invariants, m.invariants),
            std::mem::replace(&mut self.pipelines, m.pipelines),
        );

        let mut report = DeltaReport::new(touched, self, swap);
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
    /// module docs for the kept / contract / fingerprint ladder. The cache
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
        // Every answer a live pair holds, by the fingerprint it was
        // decided under; the first in key order wins, so a pass is
        // deterministic.
        let mut known: HashMap<u64, Answer> = HashMap::new();
        for entry in live.iter().filter_map(|key| self.cache.get(key)).filter(|e| !e.contract) {
            for answer in std::iter::once(&entry.answer).chain(&entry.previous) {
                known.entry(answer.fingerprint).or_insert_with(|| answer.clone());
            }
        }
        let net = self.verifier.network().clone();
        let mut staged = Vec::new();
        for (inv_spec, inv) in &self.invariants {
            for (skey, scenario) in &scenarios {
                let key = (inv_spec.clone(), skey.clone());
                report.pairs += 1;
                if kept && self.cache.contains_key(&key) {
                    report.prefiltered += 1;
                    continue;
                }
                // Modular mode: if the boundary contracts prove the pair
                // outright, skip planning and fingerprinting entirely.
                if let Some(ctx) = self.verifier.modular_context() {
                    if ctx.contract_holds(&net, inv, scenario) {
                        report.contract_answered += 1;
                        let holds = Answer {
                            fingerprint: 0,
                            verdict: Verdict::Holds,
                            names: BTreeMap::new(),
                        };
                        staged.push((key, true, holds));
                        continue;
                    }
                }
                // The plan fingerprinted here is the plan a re-check runs.
                let plan = self.verifier.plan(inv, scenario).map_err(|e| e.to_string())?;
                let fp = verdict_fingerprint(
                    &net,
                    self.verifier.header_classes(),
                    inv,
                    scenario,
                    plan.nodes(),
                    plan.bound(),
                )
                .map_err(|e| e.to_string())?;
                let answer = match known.get(&fp).and_then(|a| a.retarget(&self.names, scenario)) {
                    Some(answer) => {
                        report.cache_hits += 1;
                        answer
                    }
                    None => {
                        let r = self
                            .verifier
                            .verify_planned(inv, vec![(scenario.clone(), plan)])
                            .map_err(|e| e.to_string())?;
                        report.rechecked += 1;
                        let answer = Answer::new(fp, r.verdict, &net);
                        known.insert(fp, answer.clone());
                        answer
                    }
                };
                staged.push((key, false, answer));
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
        for (key, contract, answer) in staged {
            record(&mut self.cache, key, contract, answer, report);
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
/// appeared. A fingerprinted answer it replaces under another
/// fingerprint becomes the entry's previous generation; contract answers
/// keep none.
fn record(
    cache: &mut HashMap<(String, String), CacheEntry>,
    key: (String, String),
    contract: bool,
    answer: Answer,
    report: &mut DeltaReport,
) {
    let old = cache.remove(&key);
    let holds = answer.verdict.holds();
    let was = old.as_ref().map(|e| e.answer.verdict.holds());
    if was != Some(holds) {
        report.changed.push((key.0.clone(), key.1.clone(), holds, was));
    }
    let previous = match old {
        Some(e) if e.contract || contract => None,
        Some(e) if e.answer.fingerprint == answer.fingerprint => e.previous,
        Some(e) => Some(e.answer),
        None => None,
    };
    cache.insert(key, CacheEntry { contract, answer, previous });
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
        // BDD backend fails the first re-check with a routing error.
        let opts = VerifyOptions { backend: vmn::Backend::Bdd, ..Default::default() };
        let err = NetSession::load(CONFIG, opts).map(|_| ()).unwrap_err();
        assert!(err.starts_with("bdd backend:"), "{err}");
        assert!(!err.contains("Bdd(\""), "Debug formatting leaked into: {err}");
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
        assert_eq!(load_report.rechecked, 2);
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
        // fingerprint is unchanged.
        let a_recheck = r.changed.iter().any(|(inv, _, _, _)| inv.contains("a1"));
        assert!(!a_recheck, "pod A's verdict must not change: {:?}", r.changed);
        assert_eq!((r.prefiltered, r.cache_hits, r.rechecked), (0, 1, 1), "{r:?}");
    }

    #[test]
    fn structural_delta_rechecks_changed_slices_only_via_fingerprint() {
        let (mut s, _) = NetSession::load(CONFIG, VerifyOptions::default()).unwrap();
        // Adding an unconnected host is TouchSet::Everything (structural)
        // but leaves both slices' delivery intact, so the fingerprints
        // match and no pair re-solves.
        let r = s
            .apply(&[Delta::AddNode(NodeSpec::Host { name: "h9".into(), addr: "9.9.9.9".into() })])
            .unwrap();
        assert_eq!(r.touched, TouchSet::Everything);
        assert_eq!(r.prefiltered, 0);
        assert_eq!(r.cache_hits, 2, "{r:?}");
        assert_eq!(r.rechecked, 0, "{r:?}");
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

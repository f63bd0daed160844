//! The verification engine: slices → bounded encoding → SMT → verdicts.

use crate::bounds;
use crate::encoder::{self, EncodeError, Encoded};
use crate::invariant::Invariant;
use crate::network::Network;
use crate::policy::{group_by, group_by_symmetry, PolicyClasses};
use crate::slice::{cluster_slices, compute_slice, first_stateful_middlebox};
use crate::trace::{StepKind, Trace, TraceStep};
use std::collections::HashMap;
use std::panic::resume_unwind;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};
use vmn_analysis::{Parallelism, Partition, TouchSet};
use vmn_bdd::dataplane::{DataplaneError, Outcome, Query};
use vmn_bdd::{BddStats, Dataplane};
use vmn_check::CertificateBundle;
use vmn_net::{FailureScenario, HeaderClasses, NetError, NodeId};
use vmn_smt::{SatResult, SolverStats};

/// Outcome of verifying one invariant.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// No reachable violation in any checked failure scenario.
    Holds,
    /// A violation witness was found (with the scenario it occurs in).
    /// Boxed: most verdicts hold, and a report, like a daemon cache
    /// entry, should not pay for a witness it does not carry.
    Violated { trace: Box<Trace>, scenario: Box<FailureScenario> },
}

impl Verdict {
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }
}

/// Verification report for one invariant.
#[derive(Clone, Debug)]
pub struct Report {
    pub invariant: Invariant,
    pub verdict: Verdict,
    /// Wall-clock time spent verifying this invariant. Zero for inherited
    /// reports, so summing `elapsed` over a run counts each solver run
    /// exactly once.
    pub elapsed: Duration,
    /// Number of failure scenarios checked (stops early on violation).
    pub scenarios_checked: usize,
    /// Terminals in the largest node set planned or *actually encoded* for
    /// this invariant: the max over the checked scenarios' plans and the
    /// slice unions of the session clusters built (the union of all
    /// per-scenario slices when clustering collapses to one cluster). A
    /// scenario the contracts prove has no plan and adds nothing. Equal to
    /// [`Verifier::verify_from_scratch`]'s when the scenarios' slices nest
    /// and the contracts prove none, never smaller with clustering.
    pub encoded_nodes: usize,
    /// Largest trace bound used for this invariant — the max over the
    /// planned scenarios actually checked (a cluster's bound is the max
    /// of its members'; a contract-proved scenario has none), so the
    /// values coincide whenever two configurations plan the same prefix.
    pub steps: usize,
    /// Whether the verdict was inherited from a symmetric representative
    /// instead of being verified directly. An inherited verdict is always
    /// `Holds`, or the verdict of an exact duplicate of this invariant:
    /// a `Violated` witness is never another invariant's.
    pub inherited: bool,
    /// Solver work of this invariant's checks: the summed counters of the
    /// solver sessions its sweep built, which no other sweep shares. Zero
    /// for inherited reports.
    pub solver: SolverStats,
    /// Machine-checkable certificate of the verdict, present when
    /// [`VerifyOptions::emit_proofs`] is on: one proof session per solver
    /// session this invariant's sweep built, each holding the session's
    /// full clause derivation log plus its check records (UNSAT
    /// derivations for refuted scenarios, models for violations).
    /// Validated by the independent `vmn_check` crate — see
    /// [`vmn_check::check_bundle`]. `None` when proofs are off and for
    /// inherited reports (the representative certifies the shared verdict).
    /// Boxed: callers keep reports by the thousand and nearly all of them
    /// carry none, so the field costs a pointer, not a bundle.
    pub certificate: Option<Box<CertificateBundle>>,
    /// How many of `scenarios_checked` each backend answered. Inherited
    /// reports keep the representative's counts (they describe the
    /// provenance of the `Holds` or duplicate verdict, like
    /// `scenarios_checked`), so per-backend totals should sum over
    /// non-inherited reports only.
    pub smt_scenarios: usize,
    pub bdd_scenarios: usize,
    /// Scenarios answered by the modular engine's contract fast path
    /// (synthesized boundary windows prove the isolation invariant holds
    /// without encoding anything). Always zero when
    /// [`VerifyOptions::partition`] is [`PartitionMode::Off`].
    pub contract_scenarios: usize,
    /// BDD manager work attributable to this invariant's fast-path checks
    /// (stats deltas off the verifier's shared dataplane), the analogue
    /// of `solver` for the second backend. Zero for inherited reports and
    /// all-SMT sweeps.
    pub bdd: BddStats,
}

impl Report {
    /// A holding report for `inv` with nothing checked yet.
    fn unchecked(inv: &Invariant) -> Report {
        Report {
            invariant: inv.clone(),
            verdict: Verdict::Holds,
            elapsed: Duration::ZERO,
            scenarios_checked: 0,
            encoded_nodes: 0,
            steps: 0,
            inherited: false,
            solver: SolverStats::default(),
            certificate: None,
            smt_scenarios: 0,
            bdd_scenarios: 0,
            contract_scenarios: 0,
            bdd: BddStats::default(),
        }
    }

    /// This report handed to `inv`, a member of its symmetry group. The
    /// cost fields are zeroed, so summing over a run's reports counts each
    /// run once, and there is no run to certify (symmetry is the trusted
    /// step here).
    fn inherited_by(&self, inv: &Invariant) -> Report {
        Report {
            invariant: inv.clone(),
            inherited: true,
            elapsed: Duration::ZERO,
            solver: SolverStats::default(),
            bdd: BddStats::default(),
            certificate: None,
            ..self.clone()
        }
    }
}

/// Which engine answers a scenario's reachability question.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Route per (slice, scenario): stateless slices — pure forwarding,
    /// ACLs and classification oracles — go to the BDD dataplane (no
    /// solver session, microseconds); anything touching mutable middlebox
    /// state takes the SMT pipeline. When certificates are requested every
    /// planned scenario takes SMT (the BDD backend emits no proofs); one
    /// the contracts prove takes neither and adds no proof session.
    #[default]
    Auto,
    /// Every planned scenario on the SMT pipeline.
    Smt,
    /// Every planned scenario on the BDD dataplane; a stateful slice is a
    /// hard [`VerifyError::Bdd`], never a silent fallback.
    Bdd,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct VerifyOptions {
    /// Verify on slices (§4) instead of the whole network.
    pub use_slices: bool,
    /// Policy classes to use instead of partition refinement (`None`, the
    /// default, refines). The hint is trusted and unchecked: a grouping
    /// coarser than refinement's hands out unsound symmetry and slices.
    /// Only the `benchmark/` package's probe sets it, and the field leaves
    /// with that probe (ROADMAP item 3). Read again whenever a swap
    /// dropped the classes ([`Verifier::swap_network`]), so the hint
    /// holds across every epoch; after a swap that adds or removes hosts
    /// it must still name the new epoch's hosts.
    pub policy_hint: Option<Vec<Vec<NodeId>>>,
    /// Record a DRAT-style proof log on every solver session and attach a
    /// certificate to each report ([`Report::certificate`]), validatable
    /// by the independent `vmn_check` crate (`vmn-cli check`). Off by
    /// default: logging costs memory proportional to the clauses learnt,
    /// and the verdict paths are identical either way.
    pub emit_proofs: bool,
    /// Which backend answers each (slice, scenario) — see [`Backend`].
    pub backend: Backend,
    /// Modular verification — see [`PartitionMode`]. With a partition
    /// installed, cross-module isolation invariants are first tried
    /// against the boundary contracts, which are synthesized from the
    /// network (none are declared); scenarios the contracts prove are
    /// counted in [`Report::contract_scenarios`] and skip planning and
    /// encoding entirely. Anything inconclusive falls back to the exact
    /// engine, so verdicts and witnesses are identical to
    /// [`PartitionMode::Off`] by construction.
    pub partition: PartitionMode,
}

/// How the topology is partitioned into modules for modular
/// verification.
#[derive(Clone, Debug, Default)]
pub enum PartitionMode {
    /// Monolithic verification (the default).
    #[default]
    Off,
    /// Partition with the auto-partitioner
    /// ([`vmn_analysis::auto_partition`]): cut on low-connectivity
    /// boundaries (bridge links between infrastructure nodes).
    Auto,
    /// An operator-supplied partition. In either mode the boundary
    /// contracts are synthesized from the network, one window set per
    /// cut edge, so they compose by construction.
    ///
    /// `contracts` admits only the empty list: no contract is declared.
    /// The field remains for callers that still spell out
    /// `contracts: vec![]`, and it leaves with the contract rung itself.
    Explicit { partition: Partition, contracts: Vec<std::convert::Infallible> },
}

/// The Jaccard threshold of the sweep's scenario clustering: SMT-routed
/// scenarios whose slices overlap at least this much share one
/// encoder/solver session. Slices within one "failure family" (shared
/// endpoints plus mostly-shared middleboxes) typically overlap well above
/// it, so nesting workloads keep the single-union sweep, while genuinely
/// divergent slices split off into smaller sessions.
pub const DEFAULT_CLUSTER_THRESHOLD: f64 = 0.4;

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            use_slices: true,
            policy_hint: None,
            emit_proofs: false,
            backend: Backend::Auto,
            partition: PartitionMode::Off,
        }
    }
}

impl VerifyOptions {
    /// Whole-network verification (the baseline the paper compares
    /// against in Figures 7–9).
    pub fn whole_network() -> VerifyOptions {
        VerifyOptions { use_slices: false, ..VerifyOptions::default() }
    }
}

/// Errors surfaced by verification.
#[derive(Clone, Debug)]
pub enum VerifyError {
    Net(NetError),
    Encode(EncodeError),
    InvalidNetwork(String),
    /// The BDD fast path could not (or must not) answer: a forced
    /// `Backend::Bdd` on a stateful slice or with certificates requested,
    /// or a dataplane-level failure such as witness reconstruction.
    Bdd(String),
}

impl From<NetError> for VerifyError {
    fn from(e: NetError) -> Self {
        VerifyError::Net(e)
    }
}

impl From<EncodeError> for VerifyError {
    fn from(e: EncodeError) -> Self {
        VerifyError::Encode(e)
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Net(e) => write!(f, "{e}"),
            VerifyError::Encode(e) => write!(f, "{e}"),
            VerifyError::InvalidNetwork(s) => write!(f, "invalid network: {s}"),
            VerifyError::Bdd(s) => write!(f, "bdd backend: {s}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The VMN verifier for one network epoch.
///
/// The verifier *owns* its network (behind an [`Arc`]), so long-lived
/// holders — the `vmn serve` daemon — can apply configuration deltas by
/// swapping a mutated network in with [`Verifier::swap_network`] while
/// keeping every per-epoch table the delta's [`TouchSet`] proves
/// untouched. It holds no solver session between calls.
pub struct Verifier {
    net: Arc<Network>,
    options: VerifyOptions,
    /// The policy classes: filled by construction, emptied by a swap
    /// that touches nodes, rebuilt by [`Verifier::policy`].
    policy: OnceLock<PolicyClasses>,
    /// The header classes of the current epoch, with the next-hop runs and
    /// delivery intervals memoised in them, built on first use and shared
    /// by every walk and every interval reader: the solver sessions, the
    /// BDD dataplane and the daemon's slice keys.
    classes: OnceLock<Arc<HeaderClasses>>,
    /// Every middlebox's derived parallelism class in the current epoch
    /// ([`Network::parallelism_classes`]), derived at construction and on
    /// every swap; slicing reads it.
    parallelism: HashMap<NodeId, Parallelism>,
    /// The BDD dataplane backing the stateless fast path, built lazily on
    /// the first routed check and shared across invariants and scenarios
    /// (per-middlebox transfer predicates and per-(scenario, emitter,
    /// target) delivery predicates cache inside it, each filled only as
    /// far as the slices checked so far reach; the interval lists the
    /// predicates are built from live in `classes`). A lock poisoned by a
    /// panicking `verify_all` worker discards the dataplane
    /// ([`Verifier::check_bdd`]), so it never wedges later verifies.
    bdd: Mutex<Option<Dataplane>>,
    /// The modular-verification context (resolved partition, boundary
    /// edges and the per-scenario synthesis cache).
    /// `None` when [`VerifyOptions::partition`] is [`PartitionMode::Off`].
    modular: Option<crate::modular::ModularContext>,
}

/// Who answers one (invariant, scenario) pair ([`Verifier::decide`]).
#[derive(Debug)]
pub enum Decision {
    /// The boundary contracts prove the pair holds; nothing is planned.
    Contract,
    /// The pair is decided on this plan, by the backend it carries.
    Plan(Plan),
}

/// One (invariant, scenario) pair's verification plan: the slice (or
/// whole terminal set), the trace bound and the backend that decides it.
/// Only [`Verifier::decide`] makes one and the fields are private, so the
/// engine never decides a pair on a slice it did not compute, nor routes
/// a pair twice.
#[derive(Debug)]
pub struct Plan {
    nodes: Vec<NodeId>,
    bound: usize,
    /// `Route::Bdd` or `Route::Smt`; the contract route has no plan.
    route: Route,
}

impl Plan {
    /// The sorted, deduplicated node set the pair is decided on.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The trace bound, in steps.
    pub fn bound(&self) -> usize {
        self.bound
    }
}

/// Which of the three answer paths decides a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Contract,
    Bdd,
    Smt,
}

/// One (invariant, scenario) pair's outcome, whichever path answered it:
/// the violation found, if any, and the BDD work (zero off the BDD path).
struct Answer {
    route: Route,
    witness: Option<Trace>,
    bdd: BddStats,
}

/// One cluster of a sweep's SMT-routed scenarios: the union of its
/// members' slices, the largest bound among them and — lazily, when its
/// first scenario comes up — the solver session, dropped with the sweep.
struct Cluster {
    nodes: Vec<NodeId>,
    k: usize,
    session: Option<Encoded>,
}

/// Lowers a BDD dataplane witness to the engine's trace format: one
/// host-send step plus one processing step per middlebox hop. The packet
/// header is constant along the path — stateless slices rewrite nothing —
/// and `HavocTag` retags are scripted to the witness tag (0), so the
/// trace replays on the concrete simulator exactly like an SMT witness.
fn witness_to_trace(w: &vmn_bdd::Witness) -> Trace {
    let mut steps = Vec::with_capacity(w.hops.len() + 1);
    steps.push(TraceStep {
        kind: StepKind::HostSend,
        actor: Some(w.sender),
        packet: Some(w.header),
        delivered_to: w.path.get(1).copied(),
        target: None,
        fired_rule: None,
        choice: 0,
        fresh_port: 0,
        fresh_tag: 0,
        oracle_values: HashMap::new(),
    });
    for (i, hop) in w.hops.iter().enumerate() {
        // Hop `i` sits at step `i + 1` and consumes the packet emitted at
        // step `i` (the send, or the previous hop's forward).
        steps.push(TraceStep {
            kind: StepKind::MboxProcess,
            actor: Some(hop.mbox),
            packet: Some(w.header),
            delivered_to: w.path.get(i + 2).copied(),
            target: Some(i),
            fired_rule: Some(hop.rule),
            choice: 0,
            fresh_port: 0,
            fresh_tag: 0,
            oracle_values: hop.oracles.clone(),
        });
    }
    Trace { steps }
}

impl Verifier {
    /// Builds a verifier over a copy of `net`. The copy shares `net`'s
    /// topology and forwarding tables (both behind [`Arc`]s) and clones
    /// only the models and scenarios, so no graph is deep-copied.
    pub fn new(net: &Network, options: VerifyOptions) -> Result<Verifier, VerifyError> {
        Self::from_arc(Arc::new(net.clone()), options)
    }

    /// Builds a verifier that shares an already-owned network (the
    /// daemon materialises each epoch once and hands the same `Arc` to
    /// the verifier and its own bookkeeping). Nothing is copied.
    pub fn from_arc(net: Arc<Network>, options: VerifyOptions) -> Result<Verifier, VerifyError> {
        net.validate().map_err(VerifyError::InvalidNetwork)?;
        let modular = Self::build_modular(&net, &options)?;
        let verifier = Verifier {
            parallelism: net.parallelism_classes(),
            net,
            options,
            policy: OnceLock::new(),
            classes: OnceLock::new(),
            bdd: Mutex::new(None),
            modular,
        };
        // Refined now, as part of set-up; the walks compile the epoch's
        // next-hop runs on the way.
        verifier.policy();
        Ok(verifier)
    }

    /// The policy classes pinned by
    /// [`VerifyOptions::policy_hint`], partition refinement otherwise —
    /// on the epoch's header classes, so the next-hop runs it compiles
    /// serve the plans and sweeps that follow.
    fn policy_classes(&self) -> PolicyClasses {
        match &self.options.policy_hint {
            Some(groups) => PolicyClasses::from_groups(groups.clone()),
            None => PolicyClasses::compute_over(&self.net, self.header_classes()),
        }
    }

    /// Resolves [`VerifyOptions::partition`] against a network: an
    /// explicit partition must name every node of it exactly once.
    fn build_modular(
        net: &Network,
        options: &VerifyOptions,
    ) -> Result<Option<crate::modular::ModularContext>, VerifyError> {
        match &options.partition {
            PartitionMode::Off => Ok(None),
            PartitionMode::Auto => Ok(Some(crate::modular::ModularContext::auto(&net.topo))),
            PartitionMode::Explicit { partition, .. } => {
                crate::modular::ModularContext::resolve(&net.topo, partition.clone())
                    .map(Some)
                    .map_err(|e| VerifyError::InvalidNetwork(e.to_string()))
            }
        }
    }

    /// The modular context, when a partition is installed
    /// (diagnostics, the CLI's summary lines and the daemon's
    /// module-aware re-checks).
    pub fn modular_context(&self) -> Option<&crate::modular::ModularContext> {
        self.modular.as_ref()
    }

    /// The network epoch this verifier currently answers for.
    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// [`HeaderClasses::from_network`] of the current epoch, computed once
    /// per epoch however many consumers ask. The engine builds no other
    /// instance: its solver sessions, its BDD dataplane and the daemon's
    /// slice keys all read their delivery intervals through this one,
    /// so each (scenario, emitter) list is swept once per epoch, and
    /// policy refinement, slicing, trace bounds and pipeline checks walk
    /// on the next-hop runs compiled in it.
    pub fn header_classes(&self) -> &Arc<HeaderClasses> {
        self.classes
            .get_or_init(|| Arc::new(HeaderClasses::from_network(&self.net.topo, &self.net.tables)))
    }

    /// Swaps in a new network epoch. The new epoch is the old one plus
    /// what the delta's footprint can have changed:
    ///
    /// * [`TouchSet::Nothing`] — invariants or scenarios changed, no
    ///   node's behaviour did: everything is kept. The BDD dataplane
    ///   registers new scenarios lazily.
    /// * [`TouchSet::Nodes`] — a model swap, which keeps topology, tables
    ///   and node ids by contract (only a touched box's type name may
    ///   change). Kept: the header classes with their next-hop runs and
    ///   memoised delivery intervals (neither reads a model), the
    ///   partition and boundary,
    ///   and the prelude's aggregates. Carried: the memoised contract
    ///   arrivals, resumed from the touched boxes when their summaries
    ///   only widened
    ///   ([`ModularContext::carry`](crate::modular::ModularContext::carry)).
    ///   Dropped: the BDD dataplane, which caches per-middlebox transfer
    ///   predicates, and the policy classes, which read the models.
    /// * [`TouchSet::Everything`] — structural change: node identity,
    ///   header classes and delivery may all have moved, so the epoch is
    ///   built from nothing: the classes, their runs and their interval
    ///   memo are dropped too.
    ///
    /// Whatever the kind, every per-scenario memo the swap keeps — the
    /// memoised intervals, the contract arrivals and the BDD delivery
    /// predicates — drops the scenarios the new network no longer
    /// declares, so a daemon's removed scenarios do not accumulate, and
    /// every box's parallelism class is derived again from its model.
    ///
    /// Dropped policy classes are rebuilt by [`Verifier::policy`] on first
    /// read. Only [`Verifier::verify_all`]'s symmetry grouping and a slice
    /// holding a box that is not flow-parallel read them, so a daemon
    /// whose slices hold none never pays for them after load.
    ///
    /// On an error the verifier still answers for the old epoch. Swapping
    /// the old network back in with `Everything` rebuilds that epoch from
    /// nothing, which is how a caller undoes a swap it cannot finish.
    pub fn swap_network(
        &mut self,
        net: Arc<Network>,
        touched: &TouchSet,
    ) -> Result<(), VerifyError> {
        net.validate().map_err(VerifyError::InvalidNetwork)?;
        match touched {
            TouchSet::Nothing => {}
            TouchSet::Everything => {
                // Built before any state is mutated: an explicit
                // partition is resolved against the new topology and may
                // refuse it.
                self.modular = Self::build_modular(&net, &self.options)?;
                self.policy = OnceLock::new();
                self.classes = OnceLock::new();
            }
            TouchSet::Nodes(names) => {
                // Names resolve identically on the old and new topology
                // for this variant; unknown names simply match nothing.
                let ids: Vec<NodeId> =
                    names.iter().filter_map(|n| net.topo.by_name(n).ok()).collect();
                if let Some(ctx) = &mut self.modular {
                    ctx.carry(&net, &ids);
                }
                self.policy = OnceLock::new();
            }
        }
        // Any delta may have removed scenarios: every per-scenario memo
        // that survives the swap keeps only the new epoch's.
        let live = net.all_scenarios();
        let bdd = self.bdd.get_mut().unwrap_or_else(PoisonError::into_inner);
        if !touched.is_nothing() {
            *bdd = None;
            self.bdd.clear_poison();
        } else if let Some(dp) = bdd {
            dp.retain_scenarios(&live);
        }
        if let Some(classes) = self.classes.get() {
            classes.retain_scenarios(&live);
        }
        if let Some(ctx) = &self.modular {
            ctx.retain_scenarios(&live);
        }
        self.parallelism = net.parallelism_classes();
        self.net = net;
        Ok(())
    }

    /// The policy classes of the current epoch, from
    /// [`VerifyOptions::policy_hint`] or by refinement, rebuilt on the
    /// first read after a swap dropped them.
    pub fn policy(&self) -> &PolicyClasses {
        self.policy.get_or_init(|| self.policy_classes())
    }

    /// Always 0: no solver session outlives the sweep that built it. Kept
    /// because the `benchmark/` package still reports it.
    pub fn pooled_sessions(&self) -> usize {
        0
    }

    /// Builds the solver session of a cluster: the skeleton over `nodes`
    /// at bound `k`, with proof logging when certificates are requested.
    fn new_session(&self, nodes: &[NodeId], k: usize) -> Result<Encoded, VerifyError> {
        let classes = self.header_classes().clone();
        let mut enc = encoder::encode_skeleton_over(&self.net, classes, nodes, k)?;
        if self.options.emit_proofs {
            // Legal here (and only here): clauses reach the SAT core
            // during lazy lowering at check time, so a freshly encoded
            // skeleton still has a pristine solver.
            enc.ctx.enable_proofs();
        }
        Ok(enc)
    }

    /// Decides who answers one (invariant, scenario) pair — the only
    /// place the backend option and the boundary contracts are read. In
    /// order: forced `Bdd` with certificates requested is an error; a pair
    /// the contracts prove is [`Decision::Contract`]; any other is planned
    /// and sent to the BDD dataplane (`Auto` on a stateless slice without
    /// certificates; forced `Bdd`, where a stateful slice is an error) or
    /// to SMT. The daemon keys the returned plan
    /// ([`SliceKey`](crate::slice::SliceKey)) and hands the same plan to
    /// [`Verifier::verify_planned`] on a miss, so the key describes the
    /// check that runs.
    pub fn decide(
        &self,
        inv: &Invariant,
        scenario: &FailureScenario,
    ) -> Result<Decision, VerifyError> {
        let backend = self.options.backend;
        if backend == Backend::Bdd && self.options.emit_proofs {
            return Err(VerifyError::Bdd(
                "certificates were requested but the bdd backend emits no proofs; \
                 disable proof emission or use the smt backend"
                    .into(),
            ));
        }
        if self.modular.as_ref().is_some_and(|m| m.contract_holds(&self.net, inv, scenario)) {
            return Ok(Decision::Contract);
        }
        let (nodes, bound) = self.plan_for(inv, scenario)?;
        let stateful = || first_stateful_middlebox(&self.net, scenario, &nodes);
        let route = match backend {
            Backend::Auto if !self.options.emit_proofs && stateful().is_none() => Route::Bdd,
            Backend::Auto | Backend::Smt => Route::Smt,
            Backend::Bdd => match stateful() {
                None => Route::Bdd,
                Some(m) => {
                    return Err(VerifyError::Bdd(format!(
                        "slice middlebox '{}' holds mutable state; the bdd backend only \
                         answers stateless slices",
                        self.net.topo.node(m).name
                    )))
                }
            },
        };
        Ok(Decision::Plan(Plan { nodes, bound, route }))
    }

    /// Answers one scenario on the BDD dataplane: maps the invariant to a
    /// reachability query, runs the fixed-point check on the (lazily
    /// built, shared) dataplane, and lowers a violation witness to a
    /// replayable [`Trace`]. The answer carries the manager-stats delta.
    fn check_bdd(
        &self,
        inv: &Invariant,
        scenario: &FailureScenario,
        plan: &Plan,
    ) -> Result<Answer, VerifyError> {
        // On a stateless slice no middlebox distinguishes flows or
        // origins, so flow isolation collapses to node isolation and data
        // isolation to reachability from the origin's address (the
        // dataplane pins packet origin == source address, matching the
        // SMT encoder's send axioms).
        let query = match inv {
            Invariant::NodeIsolation { src, dst } | Invariant::FlowIsolation { src, dst } => {
                Query::SourceReaches { saddr: self.net.host_address(*src), dst: *dst }
            }
            Invariant::DataIsolation { origin, dst } => {
                Query::SourceReaches { saddr: self.net.host_address(*origin), dst: *dst }
            }
            Invariant::Traversal { dst, through, from } => {
                Query::Bypass { dst: *dst, through: through.clone(), from: *from }
            }
        };
        // A dataplane caught mid-mutation by a panicking thread is not
        // obviously a valid cache state, so poison recovery *discards* the
        // instance instead of trusting it: the next check rebuilds lazily,
        // which is exactly the already-supported cold path.
        let mut guard = match self.bdd.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                *g = None;
                self.bdd.clear_poison();
                g
            }
        };
        if guard.is_none() {
            *guard = Some(Dataplane::new(self.header_classes().clone()));
        }
        let dp = guard.as_mut().expect("installed above");
        let before = dp.stats();
        // The SMT trace spends one step on the host send, so a bound of
        // `k` steps admits at most `k - 1` middlebox processings.
        let outcome = dp
            .check(
                &self.net.topo,
                &self.net.tables,
                &self.net.models,
                scenario,
                &plan.nodes,
                &query,
                plan.bound.saturating_sub(1),
            )
            .map_err(|e| match e {
                DataplaneError::Net(n) => VerifyError::Net(n),
                other => VerifyError::Bdd(other.to_string()),
            })?;
        let witness = match outcome {
            Outcome::Holds => None,
            Outcome::Violated(w) => Some(witness_to_trace(&w)),
        };
        Ok(Answer { route: Route::Bdd, witness, bdd: dp.stats().delta_since(&before) })
    }

    /// The slice (or whole terminal set) and trace bound one (invariant,
    /// scenario) pair is decided on; [`Verifier::decide`] puts them in a
    /// [`Plan`].
    pub fn plan_for(
        &self,
        inv: &Invariant,
        scenario: &FailureScenario,
    ) -> Result<(Vec<NodeId>, usize), VerifyError> {
        let classes = self.header_classes();
        let mut nodes: Vec<NodeId> = if self.options.use_slices {
            compute_slice(&self.net, classes, &self.parallelism, scenario, inv, || self.policy())?
        } else {
            self.net.topo.terminals().collect()
        };
        nodes.sort();
        nodes.dedup();
        let bound =
            bounds::trace_bound(&self.net, classes, scenario, inv, &nodes, bounds::DEFAULT_SLACK)?;
        Ok((nodes, bound))
    }

    /// Verifies a single invariant across all configured failure
    /// scenarios, stopping at the first violation.
    ///
    /// Every scenario is decided ([`Verifier::decide`]) for one of three
    /// answer paths — boundary contracts, the BDD dataplane, or SMT — and
    /// the scenarios are then checked in their configured order, so the
    /// first violating scenario is the same whatever the configuration.
    /// The SMT-routed scenarios are *clustered*: their slices are grouped
    /// by Jaccard similarity (at [`DEFAULT_CLUSTER_THRESHOLD`]), each cluster gets one encoder
    /// holding the scenario-independent formula over the union of its
    /// members' slices at the largest required bound, and each scenario
    /// is one assumption-based call on its cluster's persistent solver —
    /// clauses learnt refuting scenario `n` carry over to every later
    /// scenario of the same cluster. (A union of sufficient slices is
    /// itself sufficient, and a larger trace bound only widens the
    /// violation search, so verdicts are the same for *any* clustering;
    /// the differential tests and the fuzz suite hold the clustered sweep
    /// to [`Verifier::verify_from_scratch`], which does none, and replay
    /// every extracted witness on the concrete simulator.)
    ///
    /// The cluster sessions live as long as the sweep: each is built when
    /// its cluster's first scenario comes up and dropped when the sweep
    /// ends.
    pub fn verify(&self, inv: &Invariant) -> Result<Report, VerifyError> {
        self.verify_under(inv, self.net.all_scenarios())
    }

    /// [`Verifier::verify`] restricted to an explicit scenario list (in
    /// the given order — the first violating scenario is the first in
    /// `scenarios`, as in the full sweep); an empty list trivially holds.
    /// Scenarios need not be registered on the network.
    pub fn verify_under(
        &self,
        inv: &Invariant,
        scenarios: Vec<FailureScenario>,
    ) -> Result<Report, VerifyError> {
        self.sweep(inv, scenarios.into_iter().map(|s| self.decide(inv, &s).map(|d| (s, d))))
    }

    /// [`Verifier::verify_under`] for scenarios the caller has already
    /// decided with [`Verifier::decide`] on this verifier's current network
    /// epoch, on the plans that returned; nothing is routed again. The
    /// daemon uses this to re-check exactly the (invariant, scenario)
    /// pairs a delta touched, on the plans it keyed.
    pub fn verify_planned(
        &self,
        inv: &Invariant,
        planned: Vec<(FailureScenario, Plan)>,
    ) -> Result<Report, VerifyError> {
        self.sweep(inv, planned.into_iter().map(|(s, plan)| Ok((s, Decision::Plan(plan)))))
    }

    /// Groups the SMT-routed scenarios of a sweep into session clusters
    /// by slice overlap. Returns the clusters and, per planned scenario,
    /// the index of its cluster. Only SMT-routed scenarios need solver
    /// sessions; clustering their slices alone keeps a BDD-heavy sweep
    /// from inflating (or merging) the solver clusters.
    fn cluster(&self, decided: &[(FailureScenario, Decision)]) -> (Vec<Cluster>, Vec<usize>) {
        // Scenarios without a cluster keep `usize::MAX`, so an accidental
        // lookup is loud instead of aliasing cluster 0.
        let mut cluster_of = vec![usize::MAX; decided.len()];
        let mut smt = Vec::new();
        for (i, (_, decision)) in decided.iter().enumerate() {
            if let Decision::Plan(plan @ Plan { route: Route::Smt, .. }) = decision {
                smt.push((i, plan));
            }
        }
        let slices: Vec<Vec<NodeId>> = smt.iter().map(|(_, plan)| plan.nodes.clone()).collect();
        let clusters = cluster_slices(&slices, DEFAULT_CLUSTER_THRESHOLD)
            .into_iter()
            .enumerate()
            .map(|(c, members)| {
                let mut nodes = Vec::new();
                let mut k = 0;
                for j in members {
                    let (i, plan) = smt[j];
                    cluster_of[i] = c;
                    nodes.extend_from_slice(&plan.nodes);
                    k = k.max(plan.bound);
                }
                nodes.sort();
                nodes.dedup();
                Cluster { nodes, k, session: None }
            })
            .collect();
        (clusters, cluster_of)
    }

    /// Decides one scenario on its cluster's session, building the
    /// session when the cluster's first scenario comes up.
    fn check_on_session(
        &self,
        inv: &Invariant,
        scenario: &FailureScenario,
        cluster: &mut Cluster,
    ) -> Result<Answer, VerifyError> {
        let enc = match &mut cluster.session {
            Some(enc) => enc,
            None => cluster.session.insert(self.new_session(&cluster.nodes, cluster.k)?),
        };
        let witness = match enc.check_invariant_scenario(&self.net, inv, scenario)? {
            SatResult::Sat => Some(Trace::extract(enc)),
            SatResult::Unsat => None,
        };
        Ok(Answer { route: Route::Smt, witness, bdd: BddStats::default() })
    }

    /// The one loop every verification runs: take the decided scenarios,
    /// cluster the SMT-routed ones, answer them in order until the first
    /// violation, folding each [`Answer`] into the report, and finish the
    /// report from the sessions built.
    ///
    /// A decision error ends the decisions, but must not mask a violation
    /// in an *earlier* scenario, so the prefix decided before it is still
    /// checked and the error surfaces only if that holds.
    fn sweep(
        &self,
        inv: &Invariant,
        decisions: impl Iterator<Item = Result<(FailureScenario, Decision), VerifyError>>,
    ) -> Result<Report, VerifyError> {
        let start = Instant::now();
        let mut deferred = None;
        let decided: Vec<_> =
            decisions.map_while(|d| d.map_err(|e| deferred = Some(e)).ok()).collect();
        let (mut clusters, cluster_of) = self.cluster(&decided);

        let mut report = Report {
            // One proof session per solver session the sweep touches; the
            // bundle label names the invariant so `vmn-cli check` output
            // is attributable.
            certificate: self.options.emit_proofs.then(|| {
                Box::new(CertificateBundle { label: inv.to_string(), sessions: Vec::new() })
            }),
            ..Report::unchecked(inv)
        };
        let mut error = None;
        for (i, (scenario, decision)) in decided.into_iter().enumerate() {
            report.scenarios_checked += 1;
            let answered = match decision {
                Decision::Contract => {
                    Ok(Answer { route: Route::Contract, witness: None, bdd: BddStats::default() })
                }
                Decision::Plan(plan) => {
                    // Every plan checked counts toward the size/bound maxima.
                    report.encoded_nodes = report.encoded_nodes.max(plan.nodes.len());
                    report.steps = report.steps.max(plan.bound);
                    match plan.route {
                        Route::Bdd => self.check_bdd(inv, &scenario, &plan),
                        _ => self.check_on_session(inv, &scenario, &mut clusters[cluster_of[i]]),
                    }
                }
            };
            let Ok(answer) = answered.map_err(|e| error = Some(e)) else { break };
            match answer.route {
                Route::Contract => report.contract_scenarios += 1,
                Route::Bdd => report.bdd_scenarios += 1,
                Route::Smt => report.smt_scenarios += 1,
            }
            report.bdd = report.bdd + answer.bdd;
            if let Some(trace) = answer.witness {
                report.verdict =
                    Verdict::Violated { trace: Box::new(trace), scenario: Box::new(scenario) };
                break;
            }
        }

        // Sum the sessions built into this invariant's report, and fold
        // in the sizes/bounds of the clusters that were *actually encoded*
        // (an early violation may leave later clusters unbuilt). The
        // sessions are dropped here.
        for cluster in clusters {
            let Some(enc) = cluster.session else { continue };
            report.encoded_nodes = report.encoded_nodes.max(cluster.nodes.len());
            report.steps = report.steps.max(cluster.k);
            report.solver = report.solver + enc.ctx.stats();
            if let (Some(bundle), Some(session)) =
                (&mut report.certificate, enc.ctx.proof_session())
            {
                bundle.sessions.push(session);
            }
        }

        // A check error beats everything; a deferred planning error only
        // a sweep that found no violation before it.
        if let Some(e) = error.or(deferred.filter(|_| report.verdict.holds())) {
            return Err(e);
        }
        report.elapsed = start.elapsed();
        Ok(report)
    }

    /// Verifies `inv` the plainest way the engine can, as the oracle the
    /// tests hold [`Verifier::verify`] and [`Verifier::verify_all`] to.
    /// Each configured scenario, in order, is planned with
    /// [`Verifier::plan_for`] and decided by a fresh encoder and solver on its
    /// own slice, violation and scenario asserted directly. It does no
    /// routing (every scenario goes to SMT, stateless or not; the backend
    /// and partition options are not read), no clustering, no symmetry and
    /// no proof log, and it stops at the first violation.
    pub fn verify_from_scratch(&self, inv: &Invariant) -> Result<Report, VerifyError> {
        let start = Instant::now();
        let mut report = Report::unchecked(inv);
        for scenario in self.net.all_scenarios() {
            let (nodes, bound) = self.plan_for(inv, &scenario)?;
            report.scenarios_checked += 1;
            report.smt_scenarios += 1;
            report.encoded_nodes = report.encoded_nodes.max(nodes.len());
            report.steps = report.steps.max(bound);
            let mut enc = encoder::encode(&self.net, &scenario, &nodes, inv, bound)?;
            let sat = enc.ctx.check();
            report.solver = report.solver + enc.ctx.stats();
            if sat == SatResult::Sat {
                let trace = Box::new(Trace::extract(&mut enc));
                report.verdict = Verdict::Violated { trace, scenario: Box::new(scenario) };
                break;
            }
        }
        report.elapsed = start.elapsed();
        Ok(report)
    }

    /// Verifies a set of invariants, exploiting symmetry (§4.2) and
    /// thread-level parallelism. One representative per symmetry group is
    /// verified, and its `Holds`, a proof the renaming carries, is shared
    /// with every member. A witness is not: the members of a violated group
    /// but its exact duplicates are verified on their own, on the same pool.
    ///
    /// Returns one report per input invariant, in input order.
    pub fn verify_all(
        &self,
        invariants: &[Invariant],
        threads: usize,
    ) -> Result<Vec<Report>, VerifyError> {
        let mut out = vec![None; invariants.len()];
        let groups = group_by_symmetry(&self.net, self.policy(), invariants);
        let alone = self.verify_groups(invariants, &groups, threads, &mut out)?;
        let duplicates = group_by(alone, |i| &invariants[i]);
        let left = self.verify_groups(invariants, &duplicates, threads, &mut out)?;
        debug_assert!(left.is_empty(), "a duplicate inherits any verdict");
        Ok(out.into_iter().map(|r| r.expect("all invariants covered")).collect())
    }

    /// Verifies the first invariant of every group and hands its report to
    /// the members it covers: all of them when it holds, its exact
    /// duplicates when it is violated. Returns the members left uncovered.
    fn verify_groups(
        &self,
        invariants: &[Invariant],
        groups: &[Vec<usize>],
        threads: usize,
        out: &mut [Option<Report>],
    ) -> Result<Vec<usize>, VerifyError> {
        let reps: Vec<&Invariant> = groups.iter().map(|g| &invariants[g[0]]).collect();
        let mut left = Vec::new();
        for (group, report) in groups.iter().zip(self.verify_each(&reps, threads)?) {
            for &i in &group[1..] {
                if report.verdict.holds() || invariants[i] == report.invariant {
                    out[i] = Some(report.inherited_by(&invariants[i]));
                } else {
                    left.push(i);
                }
            }
            out[group[0]] = Some(report);
        }
        Ok(left)
    }

    /// [`Verifier::verify`] of each invariant, on up to `threads` workers;
    /// the first invariant that fails, in input order, fails the call.
    fn verify_each(&self, invs: &[&Invariant], threads: usize) -> Result<Vec<Report>, VerifyError> {
        let workers = threads.min(invs.len());
        if workers <= 1 {
            return invs.iter().map(|inv| self.verify(inv)).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(inv) = invs.get(i) else { return done };
                done.push((i, self.verify(inv)));
            }
        };
        let mut done: Vec<(usize, Result<Report, VerifyError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Convenience: is `dst` reachable from `src`? (The dual of simple
    /// isolation: reachability holds iff the isolation invariant is
    /// violated.)
    pub fn can_reach(&self, src: NodeId, dst: NodeId) -> Result<bool, VerifyError> {
        let inv = Invariant::NodeIsolation { src, dst };
        Ok(!self.verify(&inv)?.verdict.holds())
    }

    /// Checks a *pipeline invariant* (§2.3): packets from `src` to `dst`
    /// must traverse the given middlebox-type sequence on the static
    /// datapath. This is the invariant family the paper delegates to
    /// static-datapath tools; the checker lives in `vmn-net` and is
    /// surfaced here so both §2.1 invariant classes share one entry point.
    ///
    /// Checked under every configured failure scenario; returns the first
    /// violation found.
    pub fn check_pipeline(
        &self,
        spec: &vmn_net::PipelineSpec,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Option<(vmn_net::PipelineViolation, FailureScenario)>, VerifyError> {
        for scenario in self.net.all_scenarios() {
            let tf = vmn_net::TransferFunction::new(&self.net.topo, &self.net.tables, &scenario)
                .with_classes(self.header_classes());
            for &addr in &self.net.topo.node(dst).addresses {
                if let Err(v) = spec.check(&tf, src, addr).map_err(VerifyError::Net)? {
                    return Ok(Some((v, scenario)));
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
pub(crate) mod engine_tests {
    use super::*;
    use std::collections::HashSet;
    use vmn_mbox::models;
    use vmn_net::{PipelineSpec, Prefix, RoutingConfig, Rule, Topology};

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// [`Verifier::decide`]'s plan for a pair the contracts do not prove.
    pub(crate) fn planned(v: &Verifier, inv: &Invariant, s: &FailureScenario) -> Plan {
        match v.decide(inv, s).unwrap() {
            Decision::Plan(plan) => plan,
            Decision::Contract => panic!("{inv} under {s:?}: the contracts prove it"),
        }
    }

    /// src → dst through `fw1`, optionally with `fw2` as backup steering;
    /// one scenario fails `fw1`. (Also a fixture of `encoder_tests`.)
    pub(crate) fn pipelined(with_backup: bool) -> (Network, NodeId, NodeId) {
        let mut topo = Topology::new();
        let src = topo.add_host("src", "8.8.8.8".parse().unwrap());
        let dst = topo.add_host("dst", "10.0.0.5".parse().unwrap());
        let sw = topo.add_switch("sw");
        let fw1 = topo.add_middlebox("fw1", "stateful-firewall", vec![]);
        let fw2 = topo.add_middlebox("fw2", "stateful-firewall", vec![]);
        for n in [src, dst, fw1, fw2] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &vmn_net::FailureScenario::none());
        tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), src, fw1).with_priority(20));
        if with_backup {
            tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), src, fw2).with_priority(10));
        }
        let mut net = Network::new(topo, tables);
        let acl = vec![(px("0.0.0.0/0"), px("0.0.0.0/0"))];
        net.set_model(fw1, models::learning_firewall("stateful-firewall", acl.clone()));
        net.set_model(fw2, models::learning_firewall("stateful-firewall", acl));
        net.add_scenario(vmn_net::FailureScenario::nodes([fw1]));
        (net, src, dst)
    }

    #[test]
    fn source_keyed_box_is_sliced_with_policy_representatives() {
        // A box keying shared state by source declares nothing; its class
        // is derived (General), so its slice takes one representative per
        // policy class. `other` is no endpoint and no path from `src`
        // or `dst` meets it: only a representative brings it in.
        use vmn_mbox::{Action, Guard, KeyExpr, MboxModel};
        let mut topo = Topology::new();
        let src = topo.add_host("src", "8.8.8.8".parse().unwrap());
        let dst = topo.add_host("dst", "10.0.0.5".parse().unwrap());
        let other = topo.add_host("other", "172.16.0.1".parse().unwrap());
        let sw = topo.add_switch("sw");
        let mb = topo.add_middlebox("mb", "tracker", vec![]);
        for n in [src, dst, other, mb] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &vmn_net::FailureScenario::none());
        tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), src, mb).with_priority(20));
        let mut net = Network::new(topo, tables);
        let tracker = MboxModel::new("tracker")
            .state("seen", KeyExpr::SrcAddr)
            .rule(
                Guard::StateContains { state: "seen".into(), key: KeyExpr::SrcAddr },
                vec![Action::Forward],
            )
            .rule(Guard::True, vec![Action::Insert("seen".into()), Action::Forward]);
        net.set_model(mb, tracker);
        let inv = Invariant::NodeIsolation { src, dst };
        let none = vmn_net::FailureScenario::none();

        let v = Verifier::new(&net, VerifyOptions::default()).expect("nothing to declare");
        let (slice, _) = v.plan_for(&inv, &none).unwrap();
        assert!(slice.contains(&mb));
        let reps = v.policy().representatives();
        assert!(reps.contains(&other), "{reps:?}");
        for rep in reps {
            assert!(slice.contains(&rep), "representative {rep:?} missing from {slice:?}");
        }

        // A flow-keyed box on the same path needs no representatives.
        net.set_model(mb, models::learning_firewall("tracker", vec![]));
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        assert_eq!(v.plan_for(&inv, &none).unwrap().0, vec![src, dst, mb]);
    }

    #[test]
    fn whole_network_plans_refuse_a_forwarding_loop() {
        // `s1` and `s2` bounce traffic for `h2` between each other. The
        // trace bound walks every host pair of the whole network, so the
        // loop surfaces from planning instead of a guessed bound.
        let mut topo = Topology::new();
        let h1 = topo.add_host("h1", "10.0.1.1".parse().unwrap());
        let h2 = topo.add_host("h2", "10.0.2.1".parse().unwrap());
        let s1 = topo.add_switch("s1");
        let s2 = topo.add_switch("s2");
        topo.add_link(h1, s1);
        topo.add_link(h2, s2);
        topo.add_link(s1, s2);
        let mut tables = vmn_net::ForwardingTables::new();
        tables.add_rule(s1, Rule::new(px("0.0.0.0/0"), s2));
        tables.add_rule(s2, Rule::new(px("10.0.1.1/32"), s1));
        tables.add_rule(s2, Rule::new(px("10.0.2.1/32"), s1));
        let net = Network::new(topo, tables);
        let v = Verifier::new(&net, VerifyOptions::whole_network()).unwrap();
        let inv = Invariant::NodeIsolation { src: h1, dst: h2 };
        match v.plan_for(&inv, &vmn_net::FailureScenario::none()) {
            Err(VerifyError::Net(NetError::ForwardingLoop { .. })) => {}
            other => panic!("expected a forwarding loop, got {other:?}"),
        }
    }

    #[test]
    fn pipeline_holds_with_backup_steering() {
        let (net, src, dst) = pipelined(true);
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let spec = PipelineSpec::new(["stateful-firewall"]);
        assert!(v.check_pipeline(&spec, src, dst).unwrap().is_none());
    }

    #[test]
    fn pipeline_violated_without_backup_under_failure() {
        let (net, src, dst) = pipelined(false);
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let spec = PipelineSpec::new(["stateful-firewall"]);
        let (violation, scenario) =
            v.check_pipeline(&spec, src, dst).unwrap().expect("bypass found");
        assert_eq!(violation.missing, "stateful-firewall");
        assert_eq!(scenario.fault_count(), 1, "only the failure scenario bypasses");
    }

    /// The knob-count pin: an exhaustive destructuring, so adding a field
    /// to [`VerifyOptions`] fails to compile until this test is edited on
    /// purpose.
    #[test]
    fn verify_options_has_five_knobs() {
        let VerifyOptions { use_slices, policy_hint, emit_proofs, backend, partition } =
            VerifyOptions::default();
        assert!(use_slices);
        assert!(policy_hint.is_none());
        assert!(!emit_proofs);
        assert_eq!(backend, Backend::Auto);
        assert!(matches!(partition, PartitionMode::Off));
    }

    /// The size pin: most verdicts hold, and reports and the daemon's cache
    /// entries are kept by the thousand, so a witness lives behind a box
    /// and a holding verdict costs two pointers, not a trace's worth.
    #[test]
    fn verdicts_and_reports_keep_their_witnesses_boxed() {
        assert_eq!(std::mem::size_of::<Verdict>(), 16);
        assert_eq!(std::mem::size_of::<Report>(), 256);
    }

    #[test]
    fn plans_use_the_derived_trace_bound() {
        let (net, src, dst) = pipelined(true);
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let inv = Invariant::NodeIsolation { src, dst };
        let mut max = 0;
        for s in net.all_scenarios() {
            let plan = planned(&v, &inv, &s);
            let derived = bounds::trace_bound(
                &net,
                v.header_classes(),
                &s,
                &inv,
                plan.nodes(),
                bounds::DEFAULT_SLACK,
            )
            .unwrap();
            assert_eq!(plan.bound(), derived, "{s:?}");
            max = max.max(derived);
        }
        assert_eq!(v.verify(&inv).unwrap().steps, max);
    }

    /// The premise of every session-sharing test: `a` and `b` plan to the
    /// same node set and trace bound in every scenario, so their sweeps
    /// cluster alike.
    fn assert_same_plans(v: &Verifier, a: &Invariant, b: &Invariant) {
        for s in v.network().all_scenarios() {
            let (pa, pb) = (planned(v, a, &s), planned(v, b, &s));
            assert_eq!(pa.nodes(), pb.nodes(), "{a} vs {b} under {s:?}: nodes");
            assert_eq!(pa.bound(), pb.bound(), "{a} vs {b} under {s:?}: bound");
        }
    }

    #[test]
    fn session_reuse_matches_fresh_stacks() {
        let (net, src, dst) = pipelined(false);
        let node = [
            Invariant::NodeIsolation { src, dst },
            Invariant::NodeIsolation { src: dst, dst: src },
        ];
        let flow = [
            Invariant::FlowIsolation { src, dst },
            Invariant::FlowIsolation { src: dst, dst: src },
        ];
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        assert_same_plans(&v, &node[0], &node[1]);
        assert_same_plans(&v, &flow[0], &flow[1]);
        for inv in node.iter().chain(&flow) {
            let got = v.verify(inv).unwrap();
            let want = v.verify_from_scratch(inv).unwrap();
            assert_eq!(got.verdict.holds(), want.verdict.holds(), "{inv}");
            assert_eq!(got.scenarios_checked, want.scenarios_checked, "{inv}");
            if let (
                Verdict::Violated { scenario: gs, .. },
                Verdict::Violated { scenario: ws, .. },
            ) = (&got.verdict, &want.verdict)
            {
                assert_eq!(gs, ws, "{inv}: first violating scenario");
            }
        }
    }

    #[test]
    fn inherited_reports_carry_no_elapsed_or_solver_cost() {
        let (net, src, dst) = pipelined(true);
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        // Two flow-isolation invariants that are symmetric by construction
        // would need a symmetric pair; instead verify the same invariant
        // twice — symmetry groups duplicates, so the second is inherited.
        let inv = Invariant::NodeIsolation { src, dst };
        let reports = v.verify_all(&[inv.clone(), inv], 1).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(!reports[0].inherited);
        assert!(reports[1].inherited);
        assert!(reports[0].elapsed > Duration::ZERO);
        assert_eq!(reports[1].elapsed, Duration::ZERO, "inherited elapsed must not double-count");
        assert_eq!(reports[1].solver.decisions, 0);
        assert_eq!(reports[1].solver.propagations, 0);
    }

    /// The pipelined topology with the firewalls swapped to *stateless*
    /// ACL models (same "stateful-firewall" type tag, so the steering and
    /// slices are unchanged): every slice classifies stateless and Auto
    /// routes the whole sweep onto the BDD fast path.
    fn stateless_pipelined(allow: Vec<(Prefix, Prefix)>) -> (Network, NodeId, NodeId) {
        let (mut net, src, dst) = pipelined(true);
        for name in ["fw1", "fw2"] {
            let fw = net.topo.by_name(name).unwrap();
            net.set_model(fw, models::acl_firewall("stateful-firewall", allow.clone()));
        }
        (net, src, dst)
    }

    #[test]
    fn auto_routes_stateless_slices_to_bdd_and_verdicts_match_smt() {
        let allow = vec![(px("8.0.0.0/8"), px("10.0.0.0/24"))];
        let (net, src, dst) = stateless_pipelined(allow);
        for inv in [
            Invariant::NodeIsolation { src, dst },
            Invariant::FlowIsolation { src, dst },
            Invariant::DataIsolation { origin: src, dst },
            Invariant::NodeIsolation { src: dst, dst: src },
        ] {
            let auto = Verifier::new(&net, VerifyOptions::default()).unwrap();
            let smt =
                Verifier::new(&net, VerifyOptions { backend: Backend::Smt, ..Default::default() })
                    .unwrap();
            let ra = auto.verify(&inv).unwrap();
            let rs = smt.verify(&inv).unwrap();
            assert_eq!(ra.verdict.holds(), rs.verdict.holds(), "{inv}");
            assert_eq!(ra.scenarios_checked, rs.scenarios_checked, "{inv}");
            assert_eq!(ra.bdd_scenarios, ra.scenarios_checked, "{inv}: all fast-pathed");
            assert_eq!(ra.smt_scenarios, 0, "{inv}");
            assert_eq!(
                ra.solver.decisions + ra.solver.propagations + ra.solver.conflicts,
                0,
                "{inv}: the fast path must not touch a solver"
            );
            assert!(ra.bdd.nodes > 0, "{inv}: bdd work is attributed to the report");
            assert_eq!(rs.bdd_scenarios, 0, "{inv}");
            assert_eq!(rs.smt_scenarios, rs.scenarios_checked, "{inv}");
            if let (
                Verdict::Violated { scenario: sa, .. },
                Verdict::Violated { scenario: ss, .. },
            ) = (&ra.verdict, &rs.verdict)
            {
                assert_eq!(sa, ss, "{inv}: first violating scenario");
            }
        }
    }

    #[test]
    fn bdd_witnesses_replay_on_the_simulator() {
        let allow = vec![(px("8.0.0.0/8"), px("10.0.0.0/24"))];
        let (net, src, dst) = stateless_pipelined(allow);
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let r = v.verify(&Invariant::NodeIsolation { src, dst }).unwrap();
        assert!(r.bdd_scenarios > 0, "the violation must come from the fast path");
        let Verdict::Violated { trace, scenario } = &r.verdict else {
            panic!("allow-listed traffic reaches dst");
        };
        let receptions = trace.replay(&net, scenario).expect("replay succeeds");
        assert!(
            receptions.iter().any(|o| o.at == dst),
            "the synthesized trace must reproduce the reception at dst:\n{}",
            trace.render(&net)
        );
    }

    #[test]
    fn bdd_traversal_bypass_matches_smt() {
        // Allow-all ACL firewalls with backup steering: under fw1's
        // failure the packet reaches dst via fw2, bypassing fw1.
        let allow = vec![(px("0.0.0.0/0"), px("0.0.0.0/0"))];
        let (net, src, dst) = stateless_pipelined(allow);
        let fw1 = net.topo.by_name("fw1").unwrap();
        let inv = Invariant::Traversal { dst, through: vec![fw1], from: Some(src) };
        let auto = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let smt =
            Verifier::new(&net, VerifyOptions { backend: Backend::Smt, ..Default::default() })
                .unwrap();
        let ra = auto.verify(&inv).unwrap();
        let rs = smt.verify(&inv).unwrap();
        assert!(ra.bdd_scenarios > 0);
        assert_eq!(ra.verdict.holds(), rs.verdict.holds());
        assert!(!ra.verdict.holds(), "failure of fw1 lets traffic bypass it");
        if let Verdict::Violated { trace, scenario } = &ra.verdict {
            assert_eq!(scenario.fault_count(), 1);
            let receptions = trace.replay(&net, scenario).expect("replay succeeds");
            assert!(receptions.iter().any(|o| o.at == dst));
        }
    }

    #[test]
    fn auto_with_certificates_stays_on_smt() {
        let allow = vec![(px("8.0.0.0/8"), px("10.0.0.0/24"))];
        let (net, src, dst) = stateless_pipelined(allow);
        let opts = VerifyOptions { emit_proofs: true, ..Default::default() };
        let v = Verifier::new(&net, opts).unwrap();
        let r = v.verify(&Invariant::NodeIsolation { src, dst }).unwrap();
        assert_eq!(r.bdd_scenarios, 0, "proof emission must force the certified path");
        assert_eq!(r.smt_scenarios, r.scenarios_checked);
        assert!(r.certificate.is_some());
    }

    #[test]
    fn forced_bdd_on_stateful_slice_is_a_clean_error() {
        let (net, src, dst) = pipelined(true); // learning (stateful) firewalls
        let opts = VerifyOptions { backend: Backend::Bdd, ..Default::default() };
        let v = Verifier::new(&net, opts).unwrap();
        let err = v.verify(&Invariant::NodeIsolation { src, dst }).unwrap_err();
        let VerifyError::Bdd(msg) = err else {
            panic!("expected a bdd routing error, got: {err}");
        };
        assert!(msg.contains("fw"), "the error names the stateful middlebox: {msg}");
    }

    #[test]
    fn forced_bdd_with_certificates_is_a_clean_error() {
        let allow = vec![(px("8.0.0.0/8"), px("10.0.0.0/24"))];
        let (net, src, dst) = stateless_pipelined(allow);
        let opts = VerifyOptions { backend: Backend::Bdd, emit_proofs: true, ..Default::default() };
        let v = Verifier::new(&net, opts).unwrap();
        let err = v.verify(&Invariant::NodeIsolation { src, dst }).unwrap_err();
        assert!(matches!(err, VerifyError::Bdd(_)), "got: {err}");
    }

    #[test]
    fn forced_bdd_matches_auto_on_stateless_slices() {
        let allow = vec![(px("8.0.0.0/8"), px("10.0.0.0/24"))];
        let (net, src, dst) = stateless_pipelined(allow);
        let forced =
            Verifier::new(&net, VerifyOptions { backend: Backend::Bdd, ..Default::default() })
                .unwrap();
        let auto = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let inv = Invariant::NodeIsolation { src, dst };
        let rf = forced.verify(&inv).unwrap();
        let ra = auto.verify(&inv).unwrap();
        let want = auto.verify_from_scratch(&inv).unwrap();
        assert_eq!(rf.verdict.holds(), ra.verdict.holds());
        assert_eq!(rf.bdd_scenarios, ra.bdd_scenarios);
        assert_eq!(rf.bdd_scenarios, rf.scenarios_checked, "every slice is stateless");
        assert_eq!(rf.verdict.holds(), want.verdict.holds(), "the smt oracle agrees");
        assert_eq!(rf.scenarios_checked, want.scenarios_checked);
    }

    /// Verifies `inv` on top of `base` and holds the run to
    /// [`Verifier::verify_from_scratch`]: same verdict, first violating
    /// scenario and scenario count, and a backend split that covers the
    /// sweep — and, when the scenarios' slices nest, the same
    /// `encoded_nodes`/`steps`. The report also goes to `expect` for the
    /// case's own assertions; the oracle's report is returned.
    fn matches_oracle(
        case: &str,
        net: &Network,
        base: &VerifyOptions,
        inv: &Invariant,
        nested: bool,
        expect: impl Fn(&Report, &str),
    ) -> Report {
        let v = Verifier::new(net, base.clone()).unwrap();
        let (got, want) = (v.verify(inv).unwrap(), v.verify_from_scratch(inv).unwrap());
        let ctx = format!("{case}: {inv}");
        assert_eq!(got.verdict.holds(), want.verdict.holds(), "{ctx}");
        if let (Verdict::Violated { scenario: gs, .. }, Verdict::Violated { scenario: ws, .. }) =
            (&got.verdict, &want.verdict)
        {
            assert_eq!(gs, ws, "{ctx}: first violating scenario");
        }
        assert_eq!(got.scenarios_checked, want.scenarios_checked, "{ctx}");
        assert_eq!(
            got.smt_scenarios + got.bdd_scenarios + got.contract_scenarios,
            got.scenarios_checked,
            "{ctx}: the backend split covers the sweep"
        );
        assert_eq!(want.smt_scenarios, want.scenarios_checked, "{ctx}: the oracle is all smt");
        if nested {
            assert_eq!(got.encoded_nodes, want.encoded_nodes, "{ctx}");
            assert_eq!(got.steps, want.steps, "{ctx}: bound is the max over scenarios");
        }
        expect(&got, &ctx);
        want
    }

    #[test]
    fn sweeps_match_the_oracle() {
        // Mixed backends. fw1 becomes a deny-all *stateless* ACL: the
        // no-failure scenario steers through it alone, classifies
        // stateless, and holds on the BDD fast path. Under fw1's failure
        // the backup steering goes via fw2 — an allow-all *learning*
        // (stateful) firewall — so that scenario takes the SMT path and is
        // violated. One invariant, two backends, one report. (The two
        // slices swap fw1 for fw2, so they do not nest.)
        let (mut net, src, dst) = pipelined(true);
        let fw1 = net.topo.by_name("fw1").unwrap();
        net.set_model(fw1, models::acl_firewall("stateful-firewall", vec![]));
        let inv = Invariant::NodeIsolation { src, dst };
        let ra =
            matches_oracle("mixed/auto", &net, &VerifyOptions::default(), &inv, false, |r, ctx| {
                assert!(!r.verdict.holds(), "{ctx}: the backup path has no ACL bite");
                assert_eq!(r.bdd_scenarios + r.smt_scenarios, r.scenarios_checked, "{ctx}");
                assert!(r.bdd_scenarios > 0, "{ctx}: the stateless scenario takes the fast path");
                assert!(r.smt_scenarios > 0, "{ctx}: the stateful scenario stays on smt");
                assert!(r.solver.decisions + r.solver.propagations > 0, "{ctx}");
            });
        let smt = VerifyOptions { backend: Backend::Smt, ..Default::default() };
        let rs = matches_oracle("mixed/smt", &net, &smt, &inv, false, |_, _| {});
        assert_eq!(ra.verdict.holds(), rs.verdict.holds());
        assert_eq!(ra.scenarios_checked, rs.scenarios_checked);

        // Bound maxima. Deny-all firewall without a backup: the invariant
        // holds on the no-failure scenario (longer path through fw1,
        // larger bound) and is violated under fw1's failure (direct
        // delivery, smaller bound). Sweep and oracle must report the *max*
        // bound over the checked scenarios — not the last one.
        let (mut net, src, dst) = pipelined(false);
        for name in ["fw1", "fw2"] {
            let fw = net.topo.by_name(name).unwrap();
            net.set_model(fw, models::learning_firewall("stateful-firewall", vec![]));
        }
        let inv = Invariant::NodeIsolation { src, dst };
        matches_oracle("bounds", &net, &VerifyOptions::default(), &inv, true, |r, ctx| {
            assert!(!r.verdict.holds(), "{ctx}: failure must bypass the dead firewall");
            assert_eq!(r.scenarios_checked, 2, "{ctx}: violation found in the failure scenario");
        });

        // A third scenario on the same deny-all network: the clustered
        // sweep must still match the from-scratch reference.
        net.add_scenario(vmn_net::FailureScenario::nodes([dst]));
        matches_oracle("three scenarios", &net, &VerifyOptions::default(), &inv, true, |_, _| {});

        // Contracts. Same module: exact engine; flow isolation is
        // violated by a direct unsolicited send. Across modules: every
        // scenario is answered by the boundary contracts.
        let (net, a1, _a2, b1, b2) = two_buildings();
        let modular = VerifyOptions { partition: PartitionMode::Auto, ..Default::default() };
        let local = Invariant::FlowIsolation { src: b2, dst: b1 };
        matches_oracle("modular/local", &net, &modular, &local, true, |r, ctx| {
            assert!(!r.verdict.holds(), "{ctx}");
            assert_eq!(r.contract_scenarios, 0, "{ctx}");
        });
        let cross = Invariant::FlowIsolation { src: a1, dst: b1 };
        matches_oracle("modular/cross", &net, &modular, &cross, false, |r, ctx| {
            assert!(r.verdict.holds(), "{ctx}");
            assert_eq!(r.contract_scenarios, r.scenarios_checked, "{ctx}");
            assert_eq!((r.encoded_nodes, r.steps), (0, 0), "{ctx}: nothing is planned");
        });
    }

    /// An invariant whose per-scenario slices diverge: hosts `a → b`
    /// behind a primary firewall→IDPS chain, two backup groups (a
    /// firewall fronting two alternative IDPSes each) and a deeper
    /// last-resort chain (an allow-all firewall feeding two gateways).
    /// Scenario `(g, i)` fails every earlier firewall plus `i` of group
    /// `g`'s IDPSes, so traffic re-converges through a different 4-node
    /// slice each time: within a group the slices overlap at Jaccard 0.6,
    /// across groups at 1/3, so [`DEFAULT_CLUSTER_THRESHOLD`] keeps the
    /// groups apart. The last scenario fails every shallow firewall and
    /// routes through the deep chain, whose larger bound gets a cluster
    /// of its own and whose allow-all firewall violates the invariant.
    fn divergent_slices() -> (Network, Invariant) {
        use vmn_net::FailureScenario;
        let mut topo = Topology::new();
        let sw = topo.add_switch("sw");
        let a = topo.add_host("a", "10.1.0.1".parse().unwrap());
        let b = topo.add_host("b", "10.2.0.1".parse().unwrap());
        let mut mbox = |name: String, kind: &str| {
            let m = topo.add_middlebox(name, kind, vec![]);
            topo.add_link(m, sw);
            m
        };
        let (fw_p, idps_p) =
            (mbox("fwP".into(), "stateful-firewall"), mbox("idpsP".into(), "idps"));
        let groups: Vec<(NodeId, [NodeId; 2])> = (0..2)
            .map(|g| {
                let fw = mbox(format!("fw{g}"), "stateful-firewall");
                (fw, [0, 1].map(|i| mbox(format!("idps{g}.{i}"), "idps")))
            })
            .collect();
        let fw_d = mbox("fwD".into(), "stateful-firewall");
        let gws = [0, 1].map(|i| mbox(format!("gw{i}"), "gateway"));
        topo.add_link(a, sw);
        topo.add_link(b, sw);

        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        let all = px("10.0.0.0/8");
        let mut steer = |from, to, prio| {
            tables.add_rule(sw, Rule::from_neighbor(all, from, to).with_priority(prio));
        };
        steer(a, fw_p, 100);
        steer(fw_p, idps_p, 100);
        for (g, &(fw, idpses)) in groups.iter().enumerate() {
            steer(a, fw, 90 - g as i32);
            steer(fw, idpses[0], 80);
            steer(fw, idpses[1], 79);
        }
        steer(a, fw_d, 50);
        steer(fw_d, gws[0], 80);
        steer(gws[0], gws[1], 80);

        let mut net = Network::new(topo, tables);
        for fw in [fw_p, groups[0].0, groups[1].0] {
            net.set_model(fw, models::learning_firewall("stateful-firewall", vec![]));
        }
        let any = px("0.0.0.0/0");
        net.set_model(fw_d, models::learning_firewall("stateful-firewall", vec![(any, any)]));
        for idps in std::iter::once(idps_p).chain(groups.iter().flat_map(|g| g.1)) {
            net.set_model(idps, models::idps("idps"));
        }
        for gw in gws {
            net.set_model(gw, models::gateway("gateway"));
        }
        // Shallow scenarios, interleaved across the groups (the engine
        // must keep configured order while checking on per-cluster
        // sessions), then the deep one.
        for round in 0..2 {
            for (g, (_, idpses)) in groups.iter().enumerate() {
                let mut failed = vec![fw_p];
                failed.extend(groups[..g].iter().map(|&(fw, _)| fw));
                failed.extend(&idpses[..round]);
                net.add_scenario(FailureScenario::nodes(failed));
            }
        }
        net.add_scenario(FailureScenario::nodes([fw_p, groups[0].0, groups[1].0]));
        (net, Invariant::NodeIsolation { src: a, dst: b })
    }

    #[test]
    fn divergent_slices_are_checked_on_several_clusters() {
        let (net, inv) = divergent_slices();
        let deep = net.all_scenarios().pop().unwrap();
        let want =
            matches_oracle("divergent", &net, &VerifyOptions::default(), &inv, false, |r, ctx| {
                let Verdict::Violated { scenario, .. } = &r.verdict else {
                    panic!("{ctx}: the deep chain's allow-all firewall forwards the probe");
                };
                assert_eq!(**scenario, deep, "{ctx}: only the deep scenario violates");
                assert_eq!(r.smt_scenarios, r.scenarios_checked, "{ctx}: every slice is stateful");
            });

        let opts = VerifyOptions { emit_proofs: true, ..Default::default() };
        let v = Verifier::new(&net, opts).unwrap();
        let decided: Vec<_> = net
            .all_scenarios()
            .into_iter()
            .map(|s| {
                let decision = v.decide(&inv, &s).unwrap();
                (s, decision)
            })
            .collect();
        let keys: Vec<_> = v.cluster(&decided).0.into_iter().map(|c| (c.nodes, c.k)).collect();
        assert!(keys.len() >= 2, "one session per cluster, got {keys:?}");
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), keys.len(), "{keys:?}");
        let max_k = keys.iter().map(|&(_, k)| k).max().unwrap();
        assert!(keys.iter().any(|&(_, k)| k < max_k), "the deep cluster has its own bound");
        let got = v.verify(&inv).unwrap();
        let sessions = got.certificate.expect("proofs are on").sessions.len();
        assert_eq!(sessions, keys.len(), "the sweep reaches every cluster and builds its session");
        assert_eq!(got.steps, max_k, "the report's bound is the max over the clusters'");
        assert_eq!(got.steps, want.steps, "and the max over the scenarios'");
    }

    #[test]
    fn a_routing_error_never_masks_an_earlier_violation() {
        // Forced BDD with fw1 a *stateless* ACL and fw2 left learning:
        // the no-failure scenario (via fw1) is answered on the BDD path,
        // the `fail fw1` scenario (via stateful fw2) is a routing error.
        let opts = VerifyOptions { backend: Backend::Bdd, ..Default::default() };
        let (mut net, src, dst) = pipelined(true);
        let fw1 = net.topo.by_name("fw1").unwrap();
        let inv = Invariant::NodeIsolation { src, dst };

        // Allow-all fw1: violated in the first scenario; the error behind
        // it must not surface.
        let allow = vec![(px("0.0.0.0/0"), px("0.0.0.0/0"))];
        net.set_model(fw1, models::acl_firewall("stateful-firewall", allow));
        let v = Verifier::new(&net, opts.clone()).unwrap();
        let r = v.verify(&inv).unwrap();
        let Verdict::Violated { scenario, .. } = &r.verdict else {
            panic!("allow-all fw1 forwards the probe");
        };
        assert_eq!(**scenario, vmn_net::FailureScenario::none());
        assert_eq!((r.scenarios_checked, r.bdd_scenarios), (1, 1));
        let want = v.verify_from_scratch(&inv).unwrap();
        assert_eq!((want.verdict.holds(), want.scenarios_checked), (false, 1), "the oracle agrees");

        // Deny-all fw1: the first scenario holds, so the error does — in
        // place of the violation the oracle finds under `fail fw1`.
        net.set_model(fw1, models::acl_firewall("stateful-firewall", vec![]));
        let v = Verifier::new(&net, opts).unwrap();
        let err = v.verify(&inv).unwrap_err();
        assert!(matches!(err, VerifyError::Bdd(_)), "got {err}");
        let want = v.verify_from_scratch(&inv).unwrap();
        assert_eq!((want.verdict.holds(), want.scenarios_checked), (false, 2));
    }

    #[test]
    fn inherited_reports_zero_bdd_stats_but_keep_backend_counts() {
        let allow = vec![(px("8.0.0.0/8"), px("10.0.0.0/24"))];
        let (net, src, dst) = stateless_pipelined(allow);
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let inv = Invariant::NodeIsolation { src, dst };
        let reports = v.verify_all(&[inv.clone(), inv], 1).unwrap();
        assert!(reports[0].bdd_scenarios > 0);
        assert!(reports[1].inherited);
        assert_eq!(reports[1].bdd, BddStats::default(), "inherited cost must not double-count");
        assert_eq!(reports[1].bdd_scenarios, reports[0].bdd_scenarios, "provenance is kept");
    }

    /// `Verifier::new` copies the caller's network without copying its
    /// graph: the verifier's epoch holds the very topology and tables the
    /// caller does.
    #[test]
    fn verifier_new_shares_the_callers_topology_and_tables() {
        let (net, _, _) = pipelined(true);
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        assert!(Arc::ptr_eq(&v.network().topo, &net.topo), "topology copied");
        assert!(Arc::ptr_eq(&v.network().tables, &net.tables), "tables copied");
    }

    /// The SMT sessions read the epoch's one delivery memo: after
    /// a check on a stateful slice, the verifier's header classes already
    /// hold every live slice terminal's interval list. A model swap keeps
    /// the memo (the very same lists); a structural swap starts an empty
    /// one.
    #[test]
    fn smt_sessions_share_the_epochs_delivery_memo() {
        let (net, src, dst) = pipelined(true);
        let inv = Invariant::NodeIsolation { src, dst };
        let mut v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let classes = v.header_classes().clone();
        let mut lists = Vec::new();
        for s in net.all_scenarios() {
            let r = v.verify_under(&inv, vec![s.clone()]).unwrap();
            assert_eq!(r.smt_scenarios, 1, "the stateful slice takes the SMT route");
            let swept = classes.memoised_emitters(&s);
            let plan = planned(&v, &inv, &s);
            for &t in plan.nodes().iter().filter(|&&t| !s.is_failed(t)) {
                let name = &net.topo.node(t).name;
                assert!(swept.contains(&t), "{name} under {s:?}: the session swept a private copy");
                let list = classes.delivery_intervals(&net.topo, &net.tables, &s, t).unwrap();
                lists.push((s.clone(), t, list));
            }
        }
        assert!(!lists.is_empty());

        v.swap_network(v.network().clone(), &TouchSet::node("fw1")).unwrap();
        assert!(Arc::ptr_eq(v.header_classes(), &classes), "a model swap keeps the classes");
        for (s, t, list) in &lists {
            let again =
                v.header_classes().delivery_intervals(&net.topo, &net.tables, s, *t).unwrap();
            assert!(Arc::ptr_eq(&again, list), "a model swap keeps the memoised lists");
        }

        v.swap_network(v.network().clone(), &TouchSet::Everything).unwrap();
        assert!(!Arc::ptr_eq(v.header_classes(), &classes));
        assert_eq!(v.header_classes().memoised_scenarios(), 0, "a structural swap starts afresh");
    }

    /// Policy refinement walks on the epoch's header classes, so
    /// `Verifier::new` leaves the switches' next-hop runs compiled in
    /// them for the plans and sweeps that follow. A model swap keeps the
    /// classes with their runs, and the policy rebuilt after it walks on
    /// them; a structural swap drops both.
    #[test]
    fn next_hop_runs_live_as_long_as_the_classes() {
        let (fw, cache) = (cached_clients(false), Arc::new(cached_clients(true)));
        let sw = fw.topo.by_name("sw").unwrap();
        let mut v = Verifier::new(&fw, VerifyOptions::default()).unwrap();
        let classes = v.header_classes().clone();
        assert_eq!(classes.compiled_switches(), vec![sw], "refinement walked on the runs");
        assert!(classes.next_hop_bytes() > 0);

        v.swap_network(cache.clone(), &TouchSet::node("mb")).unwrap();
        assert!(Arc::ptr_eq(v.header_classes(), &classes), "a model swap keeps the classes");
        assert_eq!(classes.compiled_switches(), vec![sw], "and the runs compiled in them");
        assert_eq!(v.policy().classes, PolicyClasses::compute(&cache).classes);

        v.swap_network(cache.clone(), &TouchSet::Everything).unwrap();
        assert!(!Arc::ptr_eq(v.header_classes(), &classes));
        assert!(v.header_classes().compiled_switches().is_empty(), "a structural swap drops them");
        assert_eq!(v.policy().classes, PolicyClasses::compute(&cache).classes);
        assert_eq!(v.header_classes().compiled_switches(), vec![sw], "rebuilt by the next walk");
    }

    /// Clients `c1`, `c2` and `other` reach `server` through `mb`, a
    /// learning firewall or — with `cache` — a content cache for the
    /// server's /16 that refuses `other`. Node ids are equal either way,
    /// as a model swap requires.
    fn cached_clients(cache: bool) -> Network {
        let mut topo = Topology::new();
        let sw = topo.add_switch("sw");
        let server = topo.add_host("server", "10.1.0.1".parse().unwrap());
        let c1 = topo.add_host("c1", "10.2.0.1".parse().unwrap());
        let c2 = topo.add_host("c2", "10.2.0.2".parse().unwrap());
        let other = topo.add_host("other", "10.3.0.1".parse().unwrap());
        let kind = if cache { "content-cache" } else { "stateful-firewall" };
        let mb = topo.add_middlebox("mb", kind, vec![]);
        for n in [server, c1, c2, other, mb] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &vmn_net::FailureScenario::none());
        for h in [c1, c2, other] {
            tables.add_rule(sw, Rule::from_neighbor(px("10.1.0.0/16"), h, mb).with_priority(10));
        }
        tables.add_rule(sw, Rule::from_neighbor(px("10.2.0.0/15"), server, mb).with_priority(10));
        let mut net = Network::new(topo, tables);
        let model = if cache {
            let deny = vec![(px("10.3.0.0/16"), px("10.1.0.0/16"))];
            models::content_cache(kind, [px("10.1.0.0/16")], deny)
        } else {
            models::learning_firewall(kind, vec![(px("0.0.0.0/0"), px("0.0.0.0/0"))])
        };
        net.set_model(mb, model);
        net
    }

    #[test]
    fn a_swap_rebuilds_the_policy_classes_on_first_read() {
        let (fw, cache) = (cached_clients(false), Arc::new(cached_clients(true)));
        let mut v = Verifier::new(&fw, VerifyOptions::default()).unwrap();
        let before = v.policy().classes.clone();
        assert_eq!(before, PolicyClasses::compute(&fw).classes);

        v.swap_network(cache.clone(), &TouchSet::node("mb")).unwrap();
        let fresh = PolicyClasses::compute(&cache).classes;
        assert_ne!(before, fresh, "the cache's deny list splits `other` from the clients");
        assert_eq!(v.policy().classes, fresh, "the swapped epoch refines its own models");

        // The cache is not flow-parallel, so a slice through it takes one
        // representative of every class.
        let [server, c1, other] = ["server", "c1", "other"].map(|n| cache.topo.by_name(n).unwrap());
        let inv = Invariant::DataIsolation { origin: server, dst: other };
        let plan = planned(&v, &inv, &FailureScenario::none());
        assert!(plan.nodes().contains(&c1), "slice {:?}", plan.nodes());
    }

    #[test]
    fn a_policy_hint_survives_every_kind_of_swap() {
        let (fw, cache) = (cached_clients(false), cached_clients(true));
        let ids = |names: &[&str]| names.iter().map(|n| fw.topo.by_name(n).unwrap()).collect();
        let hint: Vec<Vec<NodeId>> = vec![ids(&["server", "other"]), ids(&["c1", "c2"])];
        assert_ne!(PolicyClasses::compute(&cache).classes, hint);
        let options = VerifyOptions { policy_hint: Some(hint.clone()), ..Default::default() };
        let mut v = Verifier::new(&fw, options).unwrap();
        assert_eq!(v.policy().classes, hint);
        v.swap_network(Arc::new(cache), &TouchSet::node("mb")).unwrap();
        assert_eq!(v.policy().classes, hint, "after a model swap");
        v.swap_network(Arc::new(fw), &TouchSet::Everything).unwrap();
        assert_eq!(v.policy().classes, hint, "after a structural swap");
    }

    #[test]
    fn bdd_lock_poisoning_discards_and_rebuilds_the_dataplane() {
        // The shared dataplane cache is guarded by a Mutex; a panicking
        // thread must not wedge (or corrupt) later fast-path checks.
        let allow = vec![(px("8.0.0.0/8"), px("10.0.0.0/24"))];
        let (net, src, dst) = stateless_pipelined(allow);
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let inv = Invariant::NodeIsolation { src, dst };
        let first = v.verify(&inv).unwrap();
        assert!(first.bdd_scenarios > 0, "the sweep must exercise the dataplane");
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                let _guard = v.bdd.lock().unwrap();
                panic!("worker dies holding the dataplane lock");
            });
            assert!(t.join().is_err());
        });
        assert!(v.bdd.is_poisoned(), "the test must actually poison the lock");
        // Recovery discards the cached dataplane and rebuilds lazily: the
        // verdict is reproduced and fresh bdd work is attributed.
        let again = v.verify(&inv).unwrap();
        assert_eq!(first.verdict.holds(), again.verdict.holds());
        assert!(again.bdd.nodes > 0, "the rebuilt dataplane did the work");
        assert!(!v.bdd.is_poisoned(), "recovery must clear the poison");
    }

    #[test]
    fn verify_under_restricts_the_sweep() {
        let (net, src, dst) = pipelined(false); // fail fw1 => violated
        let v = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let inv = Invariant::NodeIsolation { src, dst };

        // Empty list: trivially holds, no solver work.
        let r = v.verify_under(&inv, Vec::new()).unwrap();
        assert!(r.verdict.holds());
        assert_eq!(r.scenarios_checked, 0);
        assert_eq!(r.solver.decisions + r.solver.propagations + r.solver.conflicts, 0);

        // The no-failure scenario alone: the firewall does its job.
        let r = v.verify_under(&inv, vec![vmn_net::FailureScenario::none()]).unwrap();
        assert!(!r.verdict.holds(), "allow-all firewall forwards the probe");

        // The failure scenario alone: first violation is that scenario.
        let fw1 = net.topo.by_name("fw1").unwrap();
        let fail = vmn_net::FailureScenario::nodes([fw1]);
        let r = v.verify_under(&inv, vec![fail.clone()]).unwrap();
        let Verdict::Violated { scenario, .. } = r.verdict else {
            panic!("failure bypass must violate");
        };
        assert_eq!(*scenario, fail);

        // And the full sweep equals verify().
        let full = v.verify_under(&inv, v.network().all_scenarios()).unwrap();
        let direct = v.verify(&inv).unwrap();
        assert_eq!(full.verdict.holds(), direct.verdict.holds());
        assert_eq!(full.scenarios_checked, direct.scenarios_checked);

        // A caller-planned sweep is the same sweep.
        let plans = v
            .network()
            .all_scenarios()
            .into_iter()
            .map(|s| {
                let plan = planned(&v, &inv, &s);
                (s, plan)
            })
            .collect();
        let planned = v.verify_planned(&inv, plans).unwrap();
        assert_eq!(planned.verdict.holds(), direct.verdict.holds());
        assert_eq!(planned.scenarios_checked, direct.scenarios_checked);
        assert_eq!((planned.encoded_nodes, planned.steps), (direct.encoded_nodes, direct.steps));
    }

    /// Two buildings behind in-line ACL firewalls that only pass
    /// building-local sources outbound: cross-building isolation holds,
    /// intra-building traffic flows.
    ///
    /// ```text
    /// a1, a2 - bsw1 - fw1 - core - fw2 - bsw2 - b1, b2
    /// ```
    fn two_buildings() -> (Network, NodeId, NodeId, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a1 = topo.add_host("a1", "10.1.0.1".parse().unwrap());
        let a2 = topo.add_host("a2", "10.1.0.2".parse().unwrap());
        let b1 = topo.add_host("b1", "10.2.0.1".parse().unwrap());
        let b2 = topo.add_host("b2", "10.2.0.2".parse().unwrap());
        let bsw1 = topo.add_switch("bsw1");
        let bsw2 = topo.add_switch("bsw2");
        let core = topo.add_switch("core");
        let fw1 = topo.add_middlebox("fw1", "acl-firewall-1", vec![]);
        let fw2 = topo.add_middlebox("fw2", "acl-firewall-2", vec![]);
        for (x, y) in [(a1, bsw1), (a2, bsw1), (bsw1, fw1), (fw1, core)] {
            topo.add_link(x, y);
        }
        for (x, y) in [(b1, bsw2), (b2, bsw2), (bsw2, fw2), (fw2, core)] {
            topo.add_link(x, y);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &vmn_net::FailureScenario::none());
        // The firewalls sit in line and BFS routing never transits a
        // terminal, so the inter-building legs are explicit rules. They
        // are `from`-scoped so a firewall's re-emission continues toward
        // the far side instead of bouncing straight back into it.
        let a_net = px("10.1.0.0/16");
        let b_net = px("10.2.0.0/16");
        for h in [a1, a2] {
            tables.add_rule(bsw1, Rule::from_neighbor(b_net, h, fw1).with_priority(10));
        }
        for h in [b1, b2] {
            tables.add_rule(bsw2, Rule::from_neighbor(a_net, h, fw2).with_priority(10));
        }
        tables.add_rule(core, Rule::from_neighbor(b_net, fw1, fw2));
        tables.add_rule(core, Rule::from_neighbor(a_net, fw2, fw1));
        let mut net = Network::new(topo, tables);
        let all = px("0.0.0.0/0");
        net.set_model(fw1, models::acl_firewall("acl-firewall-1", vec![(px("10.1.0.0/16"), all)]));
        net.set_model(fw2, models::acl_firewall("acl-firewall-2", vec![(px("10.2.0.0/16"), all)]));
        net.add_scenario(vmn_net::FailureScenario::nodes([fw2]));
        (net, a1, a2, b1, b2)
    }

    #[test]
    fn modular_contract_fast_path_answers_cross_module_isolation() {
        let (net, a1, a2, b1, _b2) = two_buildings();
        let opts = VerifyOptions { partition: PartitionMode::Auto, ..Default::default() };
        let v = Verifier::new(&net, opts).unwrap();
        let ctx = v.modular_context().expect("auto partition installed");
        assert!(ctx.module_count() > 1, "the estate must actually split");

        // Cross-module isolation: proven by the boundary contracts
        // alone, in every scenario, with nothing encoded.
        let inv = Invariant::NodeIsolation { src: a1, dst: b1 };
        let r = v.verify(&inv).unwrap();
        assert!(r.verdict.holds());
        assert_eq!(r.contract_scenarios, r.scenarios_checked, "{inv}");
        assert_eq!(r.smt_scenarios + r.bdd_scenarios, 0, "{inv}");

        // The monolithic engine agrees (and does real work).
        let mono = Verifier::new(&net, VerifyOptions::default()).unwrap();
        let rm = mono.verify(&inv).unwrap();
        assert!(rm.verdict.holds());
        assert_eq!(rm.contract_scenarios, 0);
        assert_eq!(rm.smt_scenarios + rm.bdd_scenarios, rm.scenarios_checked);

        // Intra-module traffic is out of the contracts' reach: the exact
        // engine answers, and both engines see the same violation.
        let local = Invariant::NodeIsolation { src: a2, dst: a1 };
        let r = v.verify(&local).unwrap();
        let rm = mono.verify(&local).unwrap();
        assert!(!r.verdict.holds(), "building-local traffic flows");
        assert_eq!(r.contract_scenarios, 0);
        assert!(!rm.verdict.holds());
        let (Verdict::Violated { scenario: s, .. }, Verdict::Violated { scenario: sm, .. }) =
            (&r.verdict, &rm.verdict)
        else {
            panic!("both violated");
        };
        assert_eq!(s, sm, "first violating scenario matches the oracle");
    }

    /// Two sites behind in-line firewalls that pass their own site's
    /// sources only, `afw` a learning (stateful) firewall and `bfw` an
    /// ACL, with one scenario failing `afw`: the two-site estate of the
    /// daemon's agreement test.
    ///
    /// ```text
    /// a1, a2 - asw - afw - core - bfw - bsw - b1, b2
    /// ```
    fn stateful_two_sites() -> (Network, NodeId, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a1 = topo.add_host("a1", "10.1.0.1".parse().unwrap());
        let a2 = topo.add_host("a2", "10.1.0.2".parse().unwrap());
        let b1 = topo.add_host("b1", "10.2.0.1".parse().unwrap());
        let b2 = topo.add_host("b2", "10.2.0.2".parse().unwrap());
        let [asw, bsw, core] = ["asw", "bsw", "core"].map(|name| topo.add_switch(name));
        let afw = topo.add_middlebox("afw", "firewall", vec![]);
        let bfw = topo.add_middlebox("bfw", "acl-firewall", vec![]);
        for (x, y) in [(a1, asw), (a2, asw), (b1, bsw), (b2, bsw)] {
            topo.add_link(x, y);
        }
        for (x, y) in [(asw, afw), (afw, core), (bsw, bfw), (bfw, core)] {
            topo.add_link(x, y);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        for (sw, h, fw) in [(asw, a1, afw), (asw, a2, afw), (bsw, b1, bfw), (bsw, b2, bfw)] {
            tables.add_rule(sw, Rule::from_neighbor(px("10.0.0.0/8"), h, fw).with_priority(-10));
        }
        tables.add_rule(core, Rule::from_neighbor(px("10.2.0.0/16"), afw, bfw));
        tables.add_rule(core, Rule::from_neighbor(px("10.1.0.0/16"), bfw, afw));
        let mut net = Network::new(topo, tables);
        let all = px("0.0.0.0/0");
        net.set_model(afw, models::learning_firewall("firewall", vec![(px("10.1.0.0/16"), all)]));
        net.set_model(bfw, models::acl_firewall("acl-firewall", vec![(px("10.2.0.0/16"), all)]));
        net.add_scenario(FailureScenario::nodes([afw]));
        (net, a1, a2, b1)
    }

    /// [`Verifier::decide`] tries the contracts before it plans: a pair
    /// they prove is never planned. A plan it returns is routed once, so
    /// re-checking a pair on its decided plans is the same sweep.
    #[test]
    fn decide_tries_the_contracts_before_planning() {
        let (net, a1, a2, b1) = stateful_two_sites();
        let opts = VerifyOptions { partition: PartitionMode::Auto, ..Default::default() };
        let fresh = || Verifier::new(&net, opts.clone()).unwrap();
        let cross = Invariant::NodeIsolation { src: a1, dst: b1 };
        let v = fresh();
        for s in net.all_scenarios() {
            assert!(matches!(v.decide(&cross, &s), Ok(Decision::Contract)), "{s:?}");
        }
        let r = v.verify(&cross).unwrap();
        assert!(r.verdict.holds());
        assert_eq!(r.contract_scenarios, r.scenarios_checked);
        assert_eq!(r.encoded_nodes, 0, "a scenario the contracts prove is not planned");

        // An intra-site pair (on the BDD path) and a pair the contracts do
        // not try (on SMT), each sweep on a verifier of its own: BDD work
        // is counted off a dataplane that an earlier sweep leaves warm.
        for inv in [
            Invariant::NodeIsolation { src: a2, dst: a1 },
            Invariant::DataIsolation { origin: b1, dst: a1 },
        ] {
            let (v, oracle) = (fresh(), fresh());
            let scenarios = net.all_scenarios();
            let plans = scenarios.iter().map(|s| (s.clone(), planned(&v, &inv, s))).collect();
            let got = v.verify_planned(&inv, plans).unwrap();
            let want = oracle.verify_under(&inv, scenarios).unwrap();
            let counts = |r: &Report| {
                let backends = (r.smt_scenarios, r.bdd_scenarios, r.contract_scenarios);
                let work = format!("{:?} {:?}", r.solver, r.bdd);
                (r.scenarios_checked, backends, r.encoded_nodes, r.steps, work)
            };
            assert_eq!(counts(&got), counts(&want), "{inv}");
            assert_eq!(format!("{:?}", got.verdict), format!("{:?}", want.verdict), "{inv}");
        }
    }

    #[test]
    fn degenerate_partitions_recover_the_monolithic_engine() {
        use vmn_analysis::Partition;
        let (net, a1, _a2, b1, _b2) = two_buildings();
        let names: Vec<String> = net.topo.nodes().map(|(_, n)| n.name.clone()).collect();
        let inv = Invariant::NodeIsolation { src: a1, dst: b1 };

        // One module: no pair is cross-module, so the contract path
        // never fires and the engine is exactly the monolithic one.
        let opts = VerifyOptions {
            partition: PartitionMode::Explicit {
                partition: Partition::monolithic(names.clone()),
                contracts: vec![],
            },
            ..Default::default()
        };
        let v = Verifier::new(&net, opts).unwrap();
        let r = v.verify(&inv).unwrap();
        assert!(r.verdict.holds());
        assert_eq!(r.contract_scenarios, 0);
        assert_eq!(r.smt_scenarios + r.bdd_scenarios, r.scenarios_checked);

        // Per-node modules: every pair is cross-module; the contracts
        // answer whatever they can prove and the verdict is unchanged.
        let opts = VerifyOptions {
            partition: PartitionMode::Explicit {
                partition: Partition::per_node(names),
                contracts: vec![],
            },
            ..Default::default()
        };
        let v = Verifier::new(&net, opts).unwrap();
        let r = v.verify(&inv).unwrap();
        assert!(r.verdict.holds());
        assert_eq!(r.contract_scenarios, r.scenarios_checked);
    }

    /// A model swap carries the contract arrivals, not a rebuilt modular
    /// context: after a widening swap every live scenario's arrivals are
    /// still memoised (resumed at the touched box), after a narrowing one
    /// none are (each is synthesized again on demand). Verdicts are the
    /// same either way; only what the next check pays differs.
    #[test]
    fn model_swaps_carry_the_contract_arrivals() {
        let (net, a1, _a2, b1, _b2) = two_buildings();
        let opts = VerifyOptions { partition: PartitionMode::Auto, ..Default::default() };
        let mut v = Verifier::new(&net, opts).unwrap();
        let cross = Invariant::NodeIsolation { src: a1, dst: b1 };
        assert!(v.verify(&cross).unwrap().verdict.holds());
        let live = net.all_scenarios().len();
        let memoised = |v: &Verifier| v.modular_context().unwrap().memoised_scenarios();
        assert_eq!(memoised(&v), live);
        let fw1 = net.topo.by_name("fw1").unwrap();
        let touched = TouchSet::Nodes(std::iter::once("fw1".to_string()).collect());
        let mut swap_fw1 = |src: &str| {
            let mut next = net.clone();
            let acl = vec![(px(src), px("0.0.0.0/0"))];
            next.set_model(fw1, models::acl_firewall("acl-firewall-1", acl));
            v.swap_network(Arc::new(next), &touched).unwrap();
            memoised(&v)
        };
        assert_eq!(swap_fw1("10.0.0.0/8"), live, "a widening swap resumes every scenario");
        assert_eq!(swap_fw1("10.1.0.1/32"), 0, "a narrowing swap drops them");
    }

    /// A scenario a delta removes leaves every per-scenario memo at the
    /// next swap, even one that touches nothing: after 50 add/remove
    /// pairs the contract arrivals, the BDD delivery predicates and the
    /// interval lists each hold the live scenarios only, and the fallback
    /// runs that a failed firewall's dead next hop compiled are gone with
    /// its scenario.
    #[test]
    fn removed_scenarios_leave_every_per_scenario_memo() {
        let (net, a1, a2, b1, _b2) = two_buildings();
        let opts = VerifyOptions { partition: PartitionMode::Auto, ..Default::default() };
        let mut v = Verifier::new(&net, opts).unwrap();
        // Across the buildings the contracts answer; within one the BDD
        // dataplane does.
        let invs = [
            Invariant::NodeIsolation { src: a1, dst: b1 },
            Invariant::NodeIsolation { src: a2, dst: a1 },
        ];
        let extras: Vec<FailureScenario> = ["b1", "b2", "bsw1", "bsw2", "core", "fw1"]
            .iter()
            .map(|n| FailureScenario::nodes([net.topo.by_name(n).unwrap()]))
            .collect();
        let memos = |v: &mut Verifier| {
            let bdd = v.bdd.get_mut().unwrap().as_ref().map_or(0, Dataplane::memoised_scenarios);
            let modular = v.modular.as_ref().unwrap().memoised_scenarios();
            (modular, bdd, v.header_classes().memoised_scenarios())
        };
        let mut fallbacks = 0;
        for round in 0..50 {
            let extra = &extras[round % extras.len()];
            let mut added = net.clone();
            added.add_scenario(extra.clone());
            v.swap_network(Arc::new(added), &TouchSet::Nothing).unwrap();
            for s in v.network().all_scenarios() {
                for inv in &invs {
                    v.verify_under(inv, vec![s.clone()]).unwrap();
                }
            }
            assert_eq!(memos(&mut v), (3, 3, 3), "round {round}: every memo saw the new scenario");
            fallbacks += v.header_classes().fallback_switches(extra).len();
            v.swap_network(Arc::new(net.clone()), &TouchSet::Nothing).unwrap();
            let left = v.header_classes().fallback_switches(extra);
            assert!(left.is_empty(), "round {round}: fallback runs {left:?} outlived the scenario");
        }
        assert!(fallbacks > 0, "no removed scenario had compiled fallback runs");
        let live = net.all_scenarios().len();
        assert_eq!(memos(&mut v), (live, live, live), "arrivals, predicates, interval lists");
    }
}

//! Static analysis over the [`MboxModel`] IR.
//!
//! The paper's scaling machinery — slicing (§4.1), symmetry, the BDD
//! fast path — is sound only if each middlebox really is flow-parallel /
//! origin-agnostic / stateless. No model declares any of these facts:
//! this crate *derives* them from the model IR, and every consumer reads
//! the derived answer.
//!
//! * **Footprints** — which header fields each rule reads (guards, state
//!   keys, recorded packets) and writes (rewrites, replays).
//! * **State liveness** — which state sets are read, written, or dead.
//! * **Inferred statefulness** — whether any rule arm reads live state
//!   or mutates state; a read of a state set no rule ever inserts into
//!   is vacuous (history-defined state starts empty) and does not make
//!   the model stateful.
//! * **Parallelism** ([`parallelism`]) — every state access keyed by the
//!   packet's own flow ⇒ [`Parallelism::FlowParallel`]; shared-key state
//!   whose keys are all source-independent (`Origin` / `DstAddr`) ⇒
//!   [`Parallelism::OriginAgnostic`]; anything else ⇒
//!   [`Parallelism::General`]. It is the class slicing uses: the
//!   verifier derives every box's class once per network epoch.
//! * **Dead rule arms** under first-match semantics — structurally by
//!   constant propagation (arms after an always-true guard, empty-ACL
//!   matches, vacuous state reads), and precisely via a pluggable
//!   [`ArmDecider`] (the `vmn_bdd` crate implements it with its ROBDD
//!   engine; this crate stays solver-free so the BDD backend can depend
//!   on it without a cycle).
//!
//! * **Mentioned addresses** — every prefix, address and address set a
//!   model's ACLs, guards and rewrites name ([`mentioned_addresses`]):
//!   what the policy equivalence classes split hosts by before any
//!   path is walked.
//!
//! [`bdd_support`] is the single source of truth for the BDD backend's
//! eligibility classification, and [`parallelism`] the one classifier
//! slicing trusts.

#![forbid(unsafe_code)]

pub mod contract;
pub mod delta;
pub mod partition;
pub use contract::{Window, WindowSet};
pub use delta::TouchSet;
pub use partition::{auto_partition, Module, Partition, PartitionError};

use std::collections::BTreeSet;
use std::fmt;
use vmn_mbox::{Action, Guard, KeyExpr, MboxModel};
use vmn_net::{Address, Prefix};

/// Witness reconstruction in the BDD backend enumerates oracle
/// valuations exhaustively, so transfer compilation refuses models
/// beyond this many oracles.
pub const MAX_ORACLES: usize = 16;

/// One header field, the granularity of dataflow footprints.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Field {
    Src,
    Dst,
    SrcPort,
    DstPort,
    Origin,
    Tag,
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Field::Src => "src",
            Field::Dst => "dst",
            Field::SrcPort => "src-port",
            Field::DstPort => "dst-port",
            Field::Origin => "origin",
            Field::Tag => "tag",
        };
        f.write_str(s)
    }
}

/// Header fields a rule (or a whole model) reads and writes.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Footprint {
    pub reads: BTreeSet<Field>,
    pub writes: BTreeSet<Field>,
}

impl Footprint {
    fn union(&mut self, other: &Footprint) {
        self.reads.extend(other.reads.iter().copied());
        self.writes.extend(other.writes.iter().copied());
    }
}

fn render_fields(fs: &BTreeSet<Field>) -> String {
    if fs.is_empty() {
        return "(none)".into();
    }
    fs.iter().map(Field::to_string).collect::<Vec<_>>().join(", ")
}

impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reads {}; writes {}", render_fields(&self.reads), render_fields(&self.writes))
    }
}

/// Why a model is stateful: the first state interaction, in rule order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StatefulReason {
    /// A guard reads a state set some rule inserts into.
    ReadsState { rule: usize, state: String },
    /// A rule inserts into a state set.
    WritesState { rule: usize, state: String },
    /// A rule replays remembered state into the packet
    /// (`RestoreDstFromState` / `RespondFromState`).
    ReplaysState { rule: usize, state: String },
}

impl fmt::Display for StatefulReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatefulReason::ReadsState { rule, state } => {
                write!(f, "rule {rule} reads state set {state:?}")
            }
            StatefulReason::WritesState { rule, state } => {
                write!(f, "rule {rule} inserts into state {state:?}")
            }
            StatefulReason::ReplaysState { rule, state } => {
                write!(f, "rule {rule} replays state {state:?}")
            }
        }
    }
}

/// Why the BDD dataplane backend cannot express a model. Conservative
/// by construction: every state read (live or not) and every
/// packet-rewriting action disqualifies, because a transfer *predicate*
/// can express neither history dependence nor header modification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnsupportedByBdd {
    Stateful(StatefulReason),
    /// A rule rewrites the packet header (`RewriteSrc`, `RewriteDst`,
    /// `RewriteDstOneOf`, `RewriteSrcPortFresh`).
    RewritesHeader {
        rule: usize,
    },
    /// Witness reconstruction enumerates oracle valuations; more than
    /// [`MAX_ORACLES`] oracles make that intractable.
    TooManyOracles {
        count: usize,
    },
}

impl fmt::Display for UnsupportedByBdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsupportedByBdd::Stateful(r) => r.fmt(f),
            UnsupportedByBdd::RewritesHeader { rule } => {
                write!(f, "rule {rule} rewrites the packet header")
            }
            UnsupportedByBdd::TooManyOracles { count } => {
                write!(f, "{count} oracles exceed the backend limit")
            }
        }
    }
}

/// The BDD backend's eligibility classification: `None` when the model
/// is a pure forwarding/ACL/classification box the dataplane can
/// compile, the first obstacle otherwise. This is the one source of
/// truth behind the BDD dataplane's transfer compilation and the
/// engine's slice-level routing; unlike [`ModelAnalysis::statefulness`]
/// it refuses even vacuous state reads, because guard compilation
/// rejects `StateContains` outright.
pub fn bdd_support(model: &MboxModel) -> Option<UnsupportedByBdd> {
    for (i, rule) in model.rules.iter().enumerate() {
        if let Some(state) = first_guard_state(&rule.guard) {
            return Some(UnsupportedByBdd::Stateful(StatefulReason::ReadsState {
                rule: i,
                state: state.to_string(),
            }));
        }
        for action in &rule.actions {
            match action {
                Action::Forward | Action::Drop | Action::HavocTag => {}
                Action::Insert(s) => {
                    return Some(UnsupportedByBdd::Stateful(StatefulReason::WritesState {
                        rule: i,
                        state: s.clone(),
                    }))
                }
                Action::RewriteSrc(_)
                | Action::RewriteDst(_)
                | Action::RewriteDstOneOf(_)
                | Action::RewriteSrcPortFresh => {
                    return Some(UnsupportedByBdd::RewritesHeader { rule: i })
                }
                Action::RestoreDstFromState(s) | Action::RespondFromState(s) => {
                    return Some(UnsupportedByBdd::Stateful(StatefulReason::ReplaysState {
                        rule: i,
                        state: s.clone(),
                    }))
                }
            }
        }
    }
    if model.oracles.len() > MAX_ORACLES {
        return Some(UnsupportedByBdd::TooManyOracles { count: model.oracles.len() });
    }
    None
}

fn first_guard_state(g: &Guard) -> Option<&str> {
    match g {
        Guard::Not(inner) => first_guard_state(inner),
        Guard::And(gs) | Guard::Or(gs) => gs.iter().find_map(first_guard_state),
        Guard::StateContains { state, .. } => Some(state),
        _ => None,
    }
}

/// Diagnostic severity. `Warning` flags suspicious but sound
/// constructs; `Info` points out constructs without effect. No finding
/// makes a model unusable: what the verifier relies on is derived, not
/// declared.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    Info,
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
        };
        f.write_str(s)
    }
}

/// One structured analysis finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub severity: Severity,
    /// `type_name` of the model the finding is about.
    pub model: String,
    /// Rule index the finding anchors to, when rule-specific.
    pub rule: Option<usize>,
    /// Stable machine-readable code (e.g. `dead-arm`, `dead-state`).
    pub code: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] model {:?}", self.severity, self.code, self.model)?;
        if let Some(r) = self.rule {
            write!(f, " rule {r}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Decision procedure for rule-arm reachability under first-match
/// semantics: whether some packet (header bits, oracle valuation, state
/// contents) satisfies `guard[arm] ∧ ¬guard[0] ∧ … ∧ ¬guard[arm-1]`.
///
/// Implementations must be sound for the `Some(false)` answer — an arm
/// reported dead must be unreachable in every concrete execution.
/// `vmn_bdd` provides the ROBDD-backed implementation; keeping the
/// trait here lets that crate depend on this one without a cycle.
pub trait ArmDecider {
    /// `Some(true)` — satisfiable (the arm can fire); `Some(false)` —
    /// provably dead; `None` — this model is out of scope for the
    /// procedure.
    fn arm_reachable(&mut self, model: &MboxModel, arm: usize) -> Option<bool>;
}

/// Everything the analysis derives from one model.
#[derive(Clone, Debug)]
pub struct ModelAnalysis {
    /// `type_name` of the analysed model.
    pub model: String,
    /// Union of the per-rule footprints.
    pub footprint: Footprint,
    pub rule_footprints: Vec<Footprint>,
    /// State sets read by guards or replay actions.
    pub states_read: BTreeSet<String>,
    /// State sets some rule inserts into.
    pub states_written: BTreeSet<String>,
    /// Declared state sets no rule reads or writes.
    pub dead_states: Vec<String>,
    /// Inferred statefulness: `None` when no reachable rule arm reads
    /// live state or mutates state. Reads of never-written state are
    /// vacuous (history-defined state starts empty) and do not count.
    pub statefulness: Option<StatefulReason>,
    /// The BDD backend's (more conservative) eligibility verdict.
    pub bdd_blocker: Option<UnsupportedByBdd>,
    /// The class slicing uses ([`parallelism`]).
    pub parallelism: Parallelism,
    /// Rule arms that can never fire under first-match semantics,
    /// ascending. Structural constant propagation always runs; an
    /// [`ArmDecider`] (see [`analyze_with`]) refines it.
    pub dead_arms: Vec<usize>,
    pub diagnostics: Vec<Diagnostic>,
}

/// How middlebox state is partitioned — the property slicing exploits
/// (§4.1). Derived from a model's rules by [`parallelism`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Parallelism {
    /// State is partitioned by flow and only the packet's own flow's state
    /// is read or written (e.g. stateful firewalls, NATs).
    FlowParallel,
    /// State is shared across flows but behaviour does not depend on
    /// *which* host installed it (e.g. content caches).
    OriginAgnostic,
    /// No structure: a slice holding this box takes one representative
    /// host per policy class, as for an origin-agnostic one.
    General,
}

/// Whether a state key can depend on the packet's source (and hence on
/// *which* host installed or queries the entry). `Origin` and `DstAddr`
/// keys are source-independent — the basis of the origin-agnostic
/// class.
fn key_depends_on_source(k: KeyExpr) -> bool {
    match k {
        KeyExpr::Flow | KeyExpr::SrcAddr | KeyExpr::SrcDst => true,
        KeyExpr::Origin | KeyExpr::DstAddr => false,
    }
}

fn guard_state_keys(g: &Guard, out: &mut Vec<(String, KeyExpr)>) {
    match g {
        Guard::Not(inner) => guard_state_keys(inner, out),
        Guard::And(gs) | Guard::Or(gs) => gs.iter().for_each(|g| guard_state_keys(g, out)),
        Guard::StateContains { state, key } => out.push((state.clone(), *key)),
        _ => {}
    }
}

fn guard_footprint(g: &Guard, out: &mut BTreeSet<Field>) {
    match g {
        Guard::True | Guard::Oracle(_) => {}
        Guard::Not(inner) => guard_footprint(inner, out),
        Guard::And(gs) | Guard::Or(gs) => gs.iter().for_each(|g| guard_footprint(g, out)),
        Guard::SrcIn(_) | Guard::SrcIs(_) => {
            out.insert(Field::Src);
        }
        Guard::DstIn(_) | Guard::DstIs(_) => {
            out.insert(Field::Dst);
        }
        Guard::SrcPortIs(_) => {
            out.insert(Field::SrcPort);
        }
        Guard::DstPortIs(_) => {
            out.insert(Field::DstPort);
        }
        Guard::OriginIn(_) | Guard::OriginIs(_) => {
            out.insert(Field::Origin);
        }
        Guard::AclMatch(_) => {
            out.extend([Field::Src, Field::Dst]);
        }
        Guard::StateContains { key, .. } => out.extend(key_fields(*key)),
    }
}

/// A set of addresses a model's configuration singles out.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum AddressSet<'a> {
    /// Every address in a prefix; a single address is its /32.
    Prefix(Prefix),
    /// Several interchangeable addresses (a load balancer's backends).
    OneOf(&'a [Address]),
}

impl AddressSet<'_> {
    pub fn contains(self, a: Address) -> bool {
        match self {
            AddressSet::Prefix(p) => p.contains(a),
            AddressSet::OneOf(addrs) => addrs.contains(&a),
        }
    }
}

fn guard_addresses(g: &Guard, out: &mut Vec<AddressSet<'_>>) {
    match g {
        Guard::True
        | Guard::SrcPortIs(_)
        | Guard::DstPortIs(_)
        | Guard::AclMatch(_)
        | Guard::StateContains { .. }
        | Guard::Oracle(_) => {}
        Guard::Not(inner) => guard_addresses(inner, out),
        Guard::And(gs) | Guard::Or(gs) => gs.iter().for_each(|g| guard_addresses(g, out)),
        Guard::SrcIn(p) | Guard::DstIn(p) | Guard::OriginIn(p) => out.push(AddressSet::Prefix(*p)),
        Guard::SrcIs(a) | Guard::DstIs(a) | Guard::OriginIs(a) => {
            out.push(AddressSet::Prefix(Prefix::host(*a)))
        }
    }
}

/// Every address set a model's configuration mentions: ACL entries
/// (whether or not a guard reads the ACL), prefix and address guards,
/// rewrite targets. Two addresses inside exactly the same of these are
/// indistinguishable to the model, which is what the policy equivalence
/// classes start from. The matches are exhaustive, so a new `Guard` or
/// `Action` variant has to say what it mentions.
pub fn mentioned_addresses(model: &MboxModel) -> Vec<AddressSet<'_>> {
    let mut out: Vec<AddressSet<'_>> = model
        .acls
        .iter()
        .flat_map(|(_, pairs)| pairs)
        .flat_map(|&(s, d)| [AddressSet::Prefix(s), AddressSet::Prefix(d)])
        .collect();
    for arm in &model.rules {
        guard_addresses(&arm.guard, &mut out);
        for action in &arm.actions {
            match action {
                Action::Forward
                | Action::Drop
                | Action::Insert(_)
                | Action::RewriteSrcPortFresh
                | Action::RestoreDstFromState(_)
                | Action::RespondFromState(_)
                | Action::HavocTag => {}
                Action::RewriteSrc(a) | Action::RewriteDst(a) => {
                    out.push(AddressSet::Prefix(Prefix::host(*a)))
                }
                Action::RewriteDstOneOf(addrs) => out.push(AddressSet::OneOf(addrs)),
            }
        }
    }
    out
}

/// Header fields a key expression reads.
fn key_fields(k: KeyExpr) -> Vec<Field> {
    match k {
        KeyExpr::Flow => vec![Field::Src, Field::Dst, Field::SrcPort, Field::DstPort],
        KeyExpr::SrcAddr => vec![Field::Src],
        KeyExpr::DstAddr => vec![Field::Dst],
        KeyExpr::Origin => vec![Field::Origin],
        KeyExpr::SrcDst => vec![Field::Src, Field::Dst],
    }
}

const ALL_FIELDS: [Field; 6] =
    [Field::Src, Field::Dst, Field::SrcPort, Field::DstPort, Field::Origin, Field::Tag];

fn rule_footprint(model: &MboxModel, rule: usize) -> Footprint {
    let mut fp = Footprint::default();
    let arm = &model.rules[rule];
    guard_footprint(&arm.guard, &mut fp.reads);
    for action in &arm.actions {
        match action {
            Action::Forward | Action::Drop => {}
            // Insert records the whole (pre-rewrite) packet plus the
            // key computed from the current one.
            Action::Insert(_) => fp.reads.extend(ALL_FIELDS),
            Action::RewriteSrc(_) => {
                fp.writes.insert(Field::Src);
            }
            Action::RewriteDst(_) | Action::RewriteDstOneOf(_) => {
                fp.writes.insert(Field::Dst);
            }
            Action::RewriteSrcPortFresh => {
                fp.writes.insert(Field::SrcPort);
            }
            // Flow-keyed lookup, then dst/dst-port replacement.
            Action::RestoreDstFromState(_) => {
                fp.reads.extend(key_fields(KeyExpr::Flow));
                fp.writes.extend([Field::Dst, Field::DstPort]);
            }
            // Dst-keyed lookup; the response swaps endpoints and takes
            // src/origin/tag from the remembered original.
            Action::RespondFromState(_) => {
                fp.reads.extend([Field::Src, Field::Dst, Field::SrcPort, Field::DstPort]);
                fp.writes.extend([
                    Field::Src,
                    Field::Dst,
                    Field::SrcPort,
                    Field::DstPort,
                    Field::Origin,
                    Field::Tag,
                ]);
            }
            Action::HavocTag => {
                fp.writes.insert(Field::Tag);
            }
        }
    }
    fp
}

/// Constant-folds a guard given the set of state sets that are ever
/// written: reads of never-written state are `false` (history-defined
/// state starts empty and stays empty without inserts), ACL matches
/// over empty pair lists are `false`. `None` when the value depends on
/// the packet.
fn guard_const(model: &MboxModel, g: &Guard, written: &BTreeSet<String>) -> Option<bool> {
    match g {
        Guard::True => Some(true),
        Guard::Not(inner) => guard_const(model, inner, written).map(|b| !b),
        Guard::And(gs) => {
            let vals: Vec<Option<bool>> =
                gs.iter().map(|g| guard_const(model, g, written)).collect();
            if vals.contains(&Some(false)) {
                Some(false)
            } else if vals.iter().all(|v| *v == Some(true)) {
                Some(true)
            } else {
                None
            }
        }
        Guard::Or(gs) => {
            let vals: Vec<Option<bool>> =
                gs.iter().map(|g| guard_const(model, g, written)).collect();
            if vals.contains(&Some(true)) {
                Some(true)
            } else if vals.iter().all(|v| *v == Some(false)) {
                Some(false)
            } else {
                None
            }
        }
        Guard::AclMatch(name) => match model.acl_pairs(name) {
            Some([]) => Some(false),
            _ => None,
        },
        Guard::StateContains { state, .. } if !written.contains(state) => Some(false),
        _ => None,
    }
}

/// Structural dead-arm pass: an arm is dead when its guard constant-
/// folds to `false`, or when an earlier arm's guard constant-folds to
/// `true` (first match wins).
fn structural_dead_arms(model: &MboxModel, written: &BTreeSet<String>) -> Vec<usize> {
    let mut dead = Vec::new();
    let mut shadowed = false;
    for (i, arm) in model.rules.iter().enumerate() {
        let c = guard_const(model, &arm.guard, written);
        if shadowed || c == Some(false) {
            dead.push(i);
        }
        if c == Some(true) {
            shadowed = true;
        }
    }
    dead
}

/// State sets some rule inserts into.
fn states_written(model: &MboxModel) -> BTreeSet<String> {
    let actions = model.rules.iter().flat_map(|arm| &arm.actions);
    actions
        .filter_map(|a| match a {
            Action::Insert(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// The model's parallelism class (§4.1), derived from how its rule arms
/// key state. It is the one classifier: the verifier derives every box's
/// class with it once per network epoch and slicing reads that, and
/// [`analyze`] and [`analyze_with`] both report it.
///
/// Every key through which a live arm touches state counts: the read key
/// of a guard on a state set some rule inserts into, the declared key at
/// insertion, and the fixed lookup keys of the replay actions (flow for
/// restore, dst-addr for respond) plus the declared key of the replayed
/// set (its entries were stored under that key). Flow keys only ⇒
/// [`Parallelism::FlowParallel`]; besides flow, only source-independent
/// keys ⇒ [`Parallelism::OriginAgnostic`]; anything else ⇒
/// [`Parallelism::General`]. An arm is live unless constant propagation
/// proves it dead; no decision procedure is consulted, so every caller
/// gets the same class.
pub fn parallelism(model: &MboxModel) -> Parallelism {
    let written = states_written(model);
    let dead = structural_dead_arms(model, &written);
    let decl_key = |s: &str| model.state_decl(s).map(|d| d.key);
    let mut keys: Vec<KeyExpr> = Vec::new();
    for (i, arm) in model.rules.iter().enumerate() {
        if dead.contains(&i) {
            continue;
        }
        let mut reads = Vec::new();
        guard_state_keys(&arm.guard, &mut reads);
        for (s, k) in reads {
            if written.contains(&s) {
                keys.push(k);
                keys.extend(decl_key(&s));
            }
        }
        for action in &arm.actions {
            match action {
                Action::Insert(s) => keys.extend(decl_key(s)),
                Action::RestoreDstFromState(s) => {
                    keys.push(KeyExpr::Flow);
                    keys.extend(decl_key(s));
                }
                Action::RespondFromState(s) => {
                    keys.push(KeyExpr::DstAddr);
                    keys.extend(decl_key(s));
                }
                _ => {}
            }
        }
    }
    if keys.iter().all(|&k| k == KeyExpr::Flow) {
        Parallelism::FlowParallel
    } else if keys.iter().filter(|&&k| k != KeyExpr::Flow).all(|&k| !key_depends_on_source(k)) {
        Parallelism::OriginAgnostic
    } else {
        Parallelism::General
    }
}

/// Analyses `model` structurally (no decision procedure: dead arms come
/// from constant propagation only).
pub fn analyze(model: &MboxModel) -> ModelAnalysis {
    analyze_impl(model, None)
}

/// Analyses `model`, refining dead-arm detection with `decider` — in
/// practice the ROBDD-backed guard-subsumption procedure from
/// `vmn_bdd`.
pub fn analyze_with(model: &MboxModel, decider: &mut dyn ArmDecider) -> ModelAnalysis {
    analyze_impl(model, Some(decider))
}

fn analyze_impl(model: &MboxModel, mut decider: Option<&mut dyn ArmDecider>) -> ModelAnalysis {
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let diag = |diagnostics: &mut Vec<Diagnostic>,
                severity: Severity,
                rule: Option<usize>,
                code: &'static str,
                message: String| {
        diagnostics.push(Diagnostic {
            severity,
            model: model.type_name.clone(),
            rule,
            code,
            message,
        });
    };

    // State read/write sets. Guards and replay actions read; inserts
    // write.
    let states_written = states_written(model);
    let mut states_read: BTreeSet<String> = BTreeSet::new();
    for arm in &model.rules {
        let mut reads = Vec::new();
        guard_state_keys(&arm.guard, &mut reads);
        states_read.extend(reads.into_iter().map(|(s, _)| s));
        for action in &arm.actions {
            if let Action::RestoreDstFromState(s) | Action::RespondFromState(s) = action {
                states_read.insert(s.clone());
            }
        }
    }
    let dead_states: Vec<String> = model
        .states
        .iter()
        .map(|s| s.name.clone())
        .filter(|s| !states_read.contains(s) && !states_written.contains(s))
        .collect();
    for s in &dead_states {
        diag(
            &mut diagnostics,
            Severity::Warning,
            None,
            "dead-state",
            format!("declared state {s:?} is never read or written"),
        );
    }
    for s in &states_written {
        if !states_read.contains(s) {
            diag(
                &mut diagnostics,
                Severity::Info,
                None,
                "write-only-state",
                format!("state {s:?} is written but never read; inserts cannot affect forwarding"),
            );
        }
    }

    // Per-rule vacuous reads and replays of provably-empty state.
    for (i, arm) in model.rules.iter().enumerate() {
        let mut reads = Vec::new();
        guard_state_keys(&arm.guard, &mut reads);
        for (s, _) in reads {
            if !states_written.contains(&s) {
                diag(
                    &mut diagnostics,
                    Severity::Warning,
                    Some(i),
                    "vacuous-state-read",
                    format!(
                        "guard reads state {s:?} which no rule writes; the read is always false"
                    ),
                );
            }
        }
        for action in &arm.actions {
            if let Action::RestoreDstFromState(s) | Action::RespondFromState(s) = action {
                if !states_written.contains(s) {
                    diag(
                        &mut diagnostics,
                        Severity::Warning,
                        Some(i),
                        "vacuous-state-replay",
                        format!("replays state {s:?} which no rule writes; the replay never fires"),
                    );
                }
            }
        }
    }

    // Dead arms: structural constant propagation, refined per arm by
    // the decision procedure when one is supplied.
    let structural: BTreeSet<usize> =
        structural_dead_arms(model, &states_written).into_iter().collect();
    let mut dead_arms: Vec<usize> = Vec::new();
    for i in 0..model.rules.len() {
        let dead = if structural.contains(&i) {
            true
        } else {
            match decider.as_deref_mut().and_then(|d| d.arm_reachable(model, i)) {
                Some(reachable) => !reachable,
                None => false,
            }
        };
        if dead {
            dead_arms.push(i);
            diag(
                &mut diagnostics,
                Severity::Warning,
                Some(i),
                "dead-arm",
                "arm can never fire: its guard is unsatisfiable under first-match semantics"
                    .to_string(),
            );
        }
    }

    // Inferred statefulness over non-dead arms: the first read of live
    // state, insert, or replay, in rule order. Vacuous reads are
    // covered by the diagnostics above instead.
    let mut statefulness: Option<StatefulReason> = None;
    'rules: for (i, arm) in model.rules.iter().enumerate() {
        if dead_arms.contains(&i) {
            continue;
        }
        let mut reads = Vec::new();
        guard_state_keys(&arm.guard, &mut reads);
        if let Some((s, _)) = reads.into_iter().find(|(s, _)| states_written.contains(s)) {
            statefulness = Some(StatefulReason::ReadsState { rule: i, state: s });
            break 'rules;
        }
        for action in &arm.actions {
            match action {
                Action::Insert(s) => {
                    statefulness = Some(StatefulReason::WritesState { rule: i, state: s.clone() });
                    break 'rules;
                }
                Action::RestoreDstFromState(s) | Action::RespondFromState(s) => {
                    statefulness = Some(StatefulReason::ReplaysState { rule: i, state: s.clone() });
                    break 'rules;
                }
                _ => {}
            }
        }
    }

    let rule_footprints: Vec<Footprint> =
        (0..model.rules.len()).map(|i| rule_footprint(model, i)).collect();
    let mut footprint = Footprint::default();
    for fp in &rule_footprints {
        footprint.union(fp);
    }

    ModelAnalysis {
        model: model.type_name.clone(),
        footprint,
        rule_footprints,
        states_read,
        states_written,
        dead_states,
        statefulness,
        bdd_blocker: bdd_support(model),
        parallelism: parallelism(model),
        dead_arms,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn_mbox::models;
    use vmn_net::{Address, Prefix};

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    /// Every builder in the model library, with representative
    /// (non-degenerate) configurations.
    fn library() -> Vec<MboxModel> {
        vec![
            models::learning_firewall("fw", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))]),
            models::acl_firewall("acl-fw", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))]),
            models::nat("nat", px("10.0.0.0/8"), addr("1.2.3.4")),
            models::load_balancer("lb", addr("10.0.0.100"), vec![addr("10.0.0.1")]),
            models::idps("idps"),
            models::ids_monitor("ids"),
            models::scrubber("sb"),
            models::content_cache(
                "cache",
                [px("10.1.0.0/16")],
                vec![(px("10.3.0.0/16"), px("10.1.0.0/16"))],
            ),
            models::application_firewall("appfw", &["skype?"], &["skype?", "jabber?"]),
            models::wan_optimizer("wanopt"),
            models::gateway("gw"),
            models::security_group_firewall("sg", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))]),
        ]
    }

    /// Every builder's derived class, pinned to the paper's (§4.1):
    /// firewalls and the NAT flow-parallel, the cache origin-agnostic —
    /// with representative configurations and with empty ACLs, whose
    /// dead arms touch no state.
    #[test]
    fn library_parallelism_classes_match_paper() {
        let empty_acls = [
            models::learning_firewall("fw", vec![]),
            models::acl_firewall("acl-fw", vec![]),
            models::content_cache("cache", [px("10.1.0.0/16")], vec![]),
            models::security_group_firewall("sg", vec![]),
        ];
        for m in library().iter().chain(&empty_acls) {
            let expect = match m.type_name.as_str() {
                "cache" => Parallelism::OriginAgnostic,
                _ => Parallelism::FlowParallel,
            };
            assert_eq!(parallelism(m), expect, "{}", m.type_name);
        }
        for m in library() {
            let a = analyze(&m);
            assert_eq!(a.parallelism, parallelism(&m), "{}: the report is the class", m.type_name);
            assert!(
                a.diagnostics.is_empty(),
                "{}: library models must lint clean, got {:?}",
                m.type_name,
                a.diagnostics
            );
        }
    }

    #[test]
    fn statefulness_matches_the_bdd_classifier_across_the_library() {
        // The unified-verdict satellite: for every library model, the
        // semantic statefulness and the BDD eligibility classifier
        // agree on the state dimension (the BDD verdict additionally
        // rejects header rewrites — the load balancer).
        for m in library() {
            let a = analyze(&m);
            let expect_stateful = matches!(m.type_name.as_str(), "fw" | "nat" | "cache" | "sg");
            assert_eq!(
                a.statefulness.is_some(),
                expect_stateful,
                "{}: statefulness verdict",
                m.type_name
            );
            let bdd_rejects = matches!(m.type_name.as_str(), "fw" | "nat" | "cache" | "sg" | "lb");
            assert_eq!(
                bdd_support(&m).is_some(),
                bdd_rejects,
                "{}: bdd eligibility verdict",
                m.type_name
            );
            // The state-driven part of both classifiers is identical.
            if a.statefulness.is_some() {
                assert!(matches!(a.bdd_blocker, Some(UnsupportedByBdd::Stateful(_))));
            }
        }
    }

    #[test]
    fn mentioned_addresses_cover_acls_guards_and_rewrites() {
        let host = |a: &str| AddressSet::Prefix(Prefix::host(addr(a)));
        let nat = models::nat("nat", px("10.0.1.0/24"), addr("1.2.3.4"));
        let mut got = mentioned_addresses(&nat);
        got.sort();
        got.dedup();
        assert_eq!(got, vec![host("1.2.3.4"), AddressSet::Prefix(px("10.0.1.0/24"))]);

        // A load balancer's backends are one interchangeable set, not one
        // address each.
        let backends = [addr("10.0.0.1"), addr("10.0.0.2")];
        let lb = models::load_balancer("lb", addr("9.9.9.9"), backends.to_vec());
        assert_eq!(mentioned_addresses(&lb), vec![host("9.9.9.9"), AddressSet::OneOf(&backends)]);
        assert!(AddressSet::OneOf(&backends).contains(addr("10.0.0.2")));

        let acl = models::acl_firewall("aclfw", vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))]);
        assert_eq!(
            mentioned_addresses(&acl),
            vec![AddressSet::Prefix(px("10.0.0.0/8")), AddressSet::Prefix(px("0.0.0.0/0"))]
        );
    }

    #[test]
    fn footprints_cover_reads_and_writes() {
        let nat = models::nat("nat", px("10.0.0.0/8"), addr("1.2.3.4"));
        let a = analyze(&nat);
        // NAT rewrites src + src-port outbound and dst + dst-port on
        // the restore path.
        for f in [Field::Src, Field::SrcPort, Field::Dst, Field::DstPort] {
            assert!(a.footprint.writes.contains(&f), "nat must write {f}");
        }
        assert!(!a.footprint.writes.contains(&Field::Tag));

        let acl = models::acl_firewall("aclfw", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))]);
        let a = analyze(&acl);
        assert_eq!(
            a.footprint.reads.iter().copied().collect::<Vec<_>>(),
            vec![Field::Src, Field::Dst]
        );
        assert!(a.footprint.writes.is_empty(), "pure filters write nothing");

        let wan = models::wan_optimizer("wan");
        let a = analyze(&wan);
        assert_eq!(a.footprint.writes.iter().copied().collect::<Vec<_>>(), vec![Field::Tag]);
    }

    #[test]
    fn state_liveness_classification() {
        // Declared-but-unused state is dead; written-but-never-read is
        // write-only; read-but-never-written reads are vacuous.
        let m = MboxModel::new("m")
            .state("unused", KeyExpr::Flow)
            .state("writeonly", KeyExpr::Flow)
            .state("phantom", KeyExpr::Flow)
            .rule(
                Guard::StateContains { state: "phantom".into(), key: KeyExpr::Flow },
                vec![Action::Forward],
            )
            .rule(Guard::True, vec![Action::Insert("writeonly".into()), Action::Forward]);
        assert!(m.validate().is_ok());
        let a = analyze(&m);
        assert_eq!(a.dead_states, vec!["unused".to_string()]);
        assert!(a.diagnostics.iter().any(|d| d.code == "write-only-state"));
        assert!(a.diagnostics.iter().any(|d| d.code == "vacuous-state-read" && d.rule == Some(0)));
        // The phantom read is vacuous, so arm 0 is structurally dead —
        // and the model's only state interaction left is the insert.
        assert_eq!(a.dead_arms, vec![0]);
        assert!(matches!(a.statefulness, Some(StatefulReason::WritesState { rule: 1, .. })));
    }

    #[test]
    fn structural_dead_arms_from_constant_folding() {
        // Arms after an always-true guard are shadowed; empty-ACL
        // matches never fire.
        let m = MboxModel::new("m")
            .acl("empty", vec![])
            .rule(Guard::AclMatch("empty".into()), vec![Action::Forward])
            .rule(Guard::True, vec![Action::Forward])
            .rule(Guard::SrcIn(px("10.0.0.0/8")), vec![Action::Drop]);
        let a = analyze(&m);
        assert_eq!(a.dead_arms, vec![0, 2]);
        assert!(a.statefulness.is_none());
    }

    #[test]
    fn source_keyed_state_is_general() {
        // Source-keyed shared state, read and written: no structure.
        let tracker = MboxModel::new("tracker")
            .state("seen", KeyExpr::SrcAddr)
            .rule(
                Guard::StateContains { state: "seen".into(), key: KeyExpr::SrcAddr },
                vec![Action::Drop],
            )
            .rule(Guard::True, vec![Action::Insert("seen".into()), Action::Forward]);
        assert!(tracker.validate().is_ok());
        assert_eq!(parallelism(&tracker), Parallelism::General);

        // Written on the forwarding path and never read: the declared
        // insertion key alone decides.
        let recorder = MboxModel::new("recorder")
            .state("seen", KeyExpr::SrcAddr)
            .rule(Guard::True, vec![Action::Insert("seen".into()), Action::Forward]);
        assert_eq!(parallelism(&recorder), Parallelism::General);
    }

    #[test]
    fn decider_refines_dead_arm_detection() {
        // A decider that proclaims arm 1 dead; the structural pass
        // alone cannot see it (the guard is not constant).
        struct Fixed;
        impl ArmDecider for Fixed {
            fn arm_reachable(&mut self, _m: &MboxModel, arm: usize) -> Option<bool> {
                Some(arm != 1)
            }
        }
        let m = MboxModel::new("m")
            .rule(Guard::SrcIn(px("10.0.0.0/8")), vec![Action::Forward])
            .rule(Guard::SrcIn(px("10.0.0.0/16")), vec![Action::Drop])
            .rule(Guard::True, vec![Action::Drop]);
        assert!(analyze(&m).dead_arms.is_empty());
        let a = analyze_with(&m, &mut Fixed);
        assert_eq!(a.dead_arms, vec![1]);
        assert!(a.diagnostics.iter().any(|d| d.code == "dead-arm" && d.rule == Some(1)));
    }

    #[test]
    fn bdd_support_reasons_are_typed() {
        let fw = models::learning_firewall("fw", vec![]);
        assert!(matches!(
            bdd_support(&fw),
            Some(UnsupportedByBdd::Stateful(StatefulReason::ReadsState { rule: 0, .. }))
        ));
        let lb = models::load_balancer("lb", addr("10.0.0.9"), vec![addr("10.0.0.1")]);
        assert!(matches!(bdd_support(&lb), Some(UnsupportedByBdd::RewritesHeader { rule: 0 })));
        let mut many = MboxModel::new("oracular");
        for i in 0..=MAX_ORACLES {
            many = many.oracle(format!("o{i}?"));
        }
        many = many.rule(Guard::True, vec![Action::Forward]);
        assert!(matches!(
            bdd_support(&many),
            Some(UnsupportedByBdd::TooManyOracles { count }) if count == MAX_ORACLES + 1
        ));
    }
}

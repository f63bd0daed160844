//! The VMN encoder: network + middlebox models + oracles + negated
//! invariant → one SMT formula.
//!
//! The encoding unrolls a bounded trace of `K` steps. Each step carries at
//! most one event, chosen by the solver (this *is* the paper's scheduling
//! oracle — modelled "using variables"):
//!
//! * **HostSend** — a live host emits a fresh packet with symbolic header
//!   fields, constrained to be well-formed (source address owned by the
//!   host, data origin = source, ephemeral source port);
//! * **MboxProcess** — a live middlebox processes the *oldest* packet
//!   pending at it (per-middlebox FIFO, the ordering constraint of §3)
//!   according to its model: guards are evaluated first-match, actions are
//!   executed symbolically, and an output packet may be emitted;
//! * **Idle** — nothing happens (lets shorter traces embed in K steps).
//!
//! The encoding models a single transport protocol: packets carry no
//! protocol field, and no guard reads one.
//!
//! Every emitted packet is *delivered atomically* by the network
//! pseudo-node Ω: the destination terminal is a precomputed function of
//! (emitting terminal, destination-address equivalence class), compiled
//! from the transfer function of `vmn-net` into interval tests. Failures
//! are fail-stop per scenario: failed terminals neither receive nor act,
//! and routing has already re-converged (backup rules) — the paper's
//! per-failure-condition transfer functions.
//!
//! ## Incremental failure scenarios and invariants
//!
//! One [`Encoded`] instance serves *every* failure scenario of a sweep's
//! cluster — and can serve several invariants sharing its node set and
//! trace bound (the engine builds one per cluster and sweep; the benchmark
//! probe reuses one across invariants). The skeleton built by [`encode_skeleton`] — step
//! semantics, FIFO ordering, middlebox models, history formulas — depends
//! on neither. Everything a scenario changes (which terminals are alive,
//! where the re-converged routing delivers) is asserted under a
//! per-scenario *activation literal* by [`Encoded::scenario_literal`];
//! each invariant's violation formula is likewise guarded by a
//! per-invariant literal ([`Encoded::invariant_literal`]), and one
//! [`Encoded::check_invariant_scenario`] (an assumption-based solver
//! call) decides any registered pair. The solver, its learnt clauses and
//! the bit-blasting caches persist across the whole session, so each
//! check pays only for what distinguishes it from the checks before it.
//!
//! ## Trace normal form
//!
//! A bounded trace admits every witness in many equivalent schedules:
//! idle steps anywhere, sends nobody processes, events after the
//! violation. The skeleton and the violation formulas assert three rules
//! that keep one representative of each family, so the solver refutes (or
//! finds) each schedule once. Each rule is justified by a rewriting of
//! traces that maps a witness to a witness *no longer than itself* — which
//! is why [`crate::bounds::trace_bound`] does not know about any of this.
//!
//! 1. **Idle is a suffix** (`kind[t] = IDLE ⇒ kind[t+1] = IDLE`).
//!    *Compaction*: delete the idle steps and shift later events down,
//!    renumbering `target` links. Relative order is unchanged, so per-box
//!    FIFO order, "inserted earlier" history formulas and the pairwise
//!    distinctness of fresh ports all carry over.
//! 2. **The violating reception is the last event** (every `recv_at(dst,
//!    t)` case of a violation formula also requires step `t+1` idle).
//!    *Truncation*: every constraint on step `t` reads steps `≤ t` only
//!    — pending sets, history formulas, the flow-isolation "`dst` sent
//!    first" clause, traversal provenance — so the prefix that ends at the
//!    reception is a trace of its own, and still a violation.
//! 3. **Every host send is consumed, or is the last event**
//!    (`kind[i] = SEND ⇒ idle[i+1] ∨ ⋁_{t>i} (kind[t] = PROC ∧ target[t]
//!    = i)`). *Deletion*: a packet no step processes was delivered to a
//!    host (hosts never react), dropped, or left pending at a middlebox —
//!    where, being never the oldest pending packet at a processing step
//!    (it would have been the target), it only ever sat behind the packets
//!    that were processed. Deleting the send therefore changes no
//!    middlebox's state or FIFO choice. It can remove a reception, but not
//!    the violating one (rule 2 makes that the last event, which this rule
//!    exempts), and it can remove a send of `dst`'s, which only makes the
//!    *negated* "`dst` initiated the flow" clause of flow isolation easier
//!    to satisfy.
//!
//! **Obligation on a new [`Invariant`] variant.** The rules are sound for
//! a violation formula that is (a) *existential in one reception* — a
//! disjunction over `t` of `recv_at(dst, t) ∧ φ(t)` built through
//! `Encoded::recv_at`, with `φ(t)` reading steps `≤ t` only — and (b)
//! *monotone under deleting unconsumed sends*: removing a host send that
//! no step processes never turns `φ(t)` false. An invariant that counts
//! receptions, looks past the reception, or requires some packet to be
//! *left* unprocessed breaks one of the rewritings and must not reuse the
//! rules as they stand. `encoder_tests::
//! normal_form_keeps_every_verdict_at_every_bound` is the differential
//! check, `tests/support/normal_form.rs` the shape check on witnesses.
//!
//! The same control variables — `kind`, `actor`, `present`, `delivered`,
//! `target` of every step — are handed to the solver as *decide-first*
//! terms ([`vmn_smt::Context::decide_first`], later steps heavier): they
//! are the schedule, and with the schedule fixed most header bits follow
//! by propagation.
//!
//! ## Middlebox state
//!
//! Middlebox state is never materialised: membership queries compile to
//! *history formulas* — "some earlier step processed a matching insert" —
//! exactly mirroring the paper's axioms like
//! `established(flow(p)) ⟺ ♦(rcv(fw, p′) ∧ acl(...) ∧ flow(p′) = flow(p))`.
//! Over a bounded trace each ♦ is one OR over the inserts it can see. A
//! lookup at step `t` sees only inserts by the *same box instance* into
//! the *same set* at steps `< t`: guards are evaluated before actions, so
//! an insert at `t` is not yet visible, and two firewalls that both
//! declare `established` keep separate sets (which is what makes
//! firewalls flow-parallel across instances).
//!
//! Classification oracles (`malicious?` …) become free boolean variables
//! per (oracle, step), optionally constrained by the model's
//! mutual-exclusion groups; finding a satisfying assignment means finding
//! oracle behaviour + schedule + packet contents that violate the
//! invariant.

use crate::invariant::Invariant;
use crate::network::Network;
use std::collections::HashMap;
use std::sync::Arc;
use vmn_mbox::{Action, Guard, KeyExpr, MboxModel};
use vmn_net::{Address, FailureScenario, HeaderClasses, NetError, NodeId};
use vmn_smt::{Context, SatResult, Sort, TermId};

/// Widths of the symbolic header fields.
const ADDR_W: u32 = 32;
const PORT_W: u32 = 16;
const TAG_W: u32 = 32;

/// Event kinds (values of the 2-bit `kind` variable).
const KIND_IDLE: u64 = 0;
const KIND_SEND: u64 = 1;
const KIND_PROC: u64 = 2;

/// Decide-first weight of the last step's control variables (earlier
/// steps scale down linearly). The CDCL core's activity bump starts at 1
/// and grows 5 % a conflict, so a seed of 1000 keeps the schedule ahead of
/// the header bits for the first ≈ 135 conflicts of a cold session — about
/// one check's worth on a slice-sized formula — and is noise after that.
const SCHEDULE_WEIGHT: f64 = 1000.0;

/// Ephemeral ports handed out by NAT rewrites start here; host-chosen
/// source ports stay below, which keeps fresh ports genuinely fresh.
const EPHEMERAL_BASE: u64 = 32768;

/// Symbolic header fields of one packet instance.
#[derive(Clone, Copy, Debug)]
pub struct FieldVars {
    pub src: TermId,
    pub dst: TermId,
    pub sport: TermId,
    pub dport: TermId,
    pub origin: TermId,
    pub tag: TermId,
}

/// Per-step solver variables (public so traces can be extracted).
#[derive(Clone, Debug)]
pub struct StepVars {
    pub kind: TermId,
    pub actor: TermId,
    pub present: TermId,
    pub out: FieldVars,
    pub input: FieldVars,
    pub delivered: TermId,
    pub target: TermId,
    pub choice: TermId,
    pub fresh_port: TermId,
    pub fresh_tag: TermId,
}

/// A symbolic state-set key (mirrors `vmn_mbox::exec::KeyVal`).
#[derive(Clone, Debug)]
enum SymKey {
    /// (src, sport, dst, dport) — compared symmetrically.
    Flow([TermId; 4]),
    Addr(TermId),
    Pair(TermId, TermId),
}

/// One `Insert` occurrence: if `active` holds, the middlebox added `key`
/// to `(mbox, set)` at step `step`, remembering `original`.
#[derive(Clone, Debug)]
struct InsertSite {
    mbox: NodeId,
    set: String,
    step: usize,
    active: TermId,
    key: SymKey,
    original: FieldVars,
}

/// Selects one remembered field of an insert entry's original header.
#[derive(Clone, Copy, Debug)]
enum FieldSel {
    Src,
    Origin,
    Tag,
}

impl FieldSel {
    fn of(self, f: &FieldVars) -> TermId {
        match self {
            FieldSel::Src => f.src,
            FieldSel::Origin => f.origin,
            FieldSel::Tag => f.tag,
        }
    }
}

/// Errors the encoder can produce.
#[derive(Clone, Debug)]
pub enum EncodeError {
    Net(NetError),
    /// The invariant references a node outside the encoded node set.
    NodeOutOfScope(NodeId),
    /// The trace bound the slice asks for is outside `1..=MAX_TRACE_BOUND`.
    TraceBound(usize),
    /// A middlebox in the slice rewrites the destination to one of
    /// `count` addresses, outside `1..=MAX_BACKENDS`.
    Backends {
        mbox: String,
        count: usize,
    },
}

/// Longest bounded trace the encoder builds.
const MAX_TRACE_BOUND: usize = 62;

/// Width of [`StepVars::choice`], the index a `RewriteDstOneOf` picks its
/// backend by — hence the longest backend list the encoder builds.
const CHOICE_W: u32 = 4;
const MAX_BACKENDS: usize = 1 << CHOICE_W;

impl From<NetError> for EncodeError {
    fn from(e: NetError) -> Self {
        EncodeError::Net(e)
    }
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Net(e) => write!(f, "network error: {e}"),
            EncodeError::NodeOutOfScope(n) => {
                write!(f, "invariant references node {n:?} outside the slice")
            }
            EncodeError::TraceBound(k) => {
                write!(f, "trace bound {k} is outside the supported range 1..={MAX_TRACE_BOUND}")
            }
            EncodeError::Backends { mbox, count } => write!(
                f,
                "middlebox {mbox:?} balances over {count} backends; \
                 the encoder supports 1..={MAX_BACKENDS}"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Builds the violation formula for `inv` over `nodes` (a slice or the
/// whole terminal set) with a `k`-step trace, pinned to one failure
/// scenario: the skeleton with the violation and the scenario's facts
/// asserted directly, no activation literals left to assume.
/// `enc.ctx.check()` decides the scenario and
/// [`crate::trace::Trace::extract`] reads back a witness.
pub fn encode(
    net: &Network,
    scenario: &FailureScenario,
    nodes: &[NodeId],
    inv: &Invariant,
    k: usize,
) -> Result<Encoded, EncodeError> {
    let mut enc = encode_skeleton(net, nodes, k)?;
    let violated = enc.invariant_violation(net, inv)?;
    enc.ctx.assert(violated);
    let live = enc.scenario_literal(net, scenario)?;
    enc.ctx.assert(live);
    Ok(enc)
}

/// Builds the invariant-free *skeleton* over `nodes` at trace bound `k`:
/// step semantics, FIFO ordering and middlebox models — everything both
/// the failure scenarios *and* the invariants hang off. This is the unit
/// the verifier's solver sessions cache and re-enter: invariants are
/// attached behind activation literals by [`Encoded::invariant_literal`],
/// scenarios by [`Encoded::scenario_literal`], and one
/// [`Encoded::check_invariant_scenario`] call decides any registered
/// (invariant, scenario) pair on the persistent solver.
///
/// Builds header classes of its own, so its delivery lists are swept
/// afresh; the verifier's sessions are built over the epoch's shared
/// classes instead ([`Verifier::header_classes`](crate::Verifier::header_classes)).
pub fn encode_skeleton(net: &Network, nodes: &[NodeId], k: usize) -> Result<Encoded, EncodeError> {
    let classes = Arc::new(HeaderClasses::from_network(&net.topo, &net.tables));
    encode_skeleton_over(net, classes, nodes, k)
}

/// [`encode_skeleton`] over given header classes, which must be
/// [`HeaderClasses::from_network`] of `net`: each scenario's delivery
/// intervals are read from their memo, so every session of an epoch
/// shares one sweep per (scenario, emitter) with the BDD dataplane and the
/// slice keys.
pub(crate) fn encode_skeleton_over(
    net: &Network,
    classes: Arc<HeaderClasses>,
    nodes: &[NodeId],
    k: usize,
) -> Result<Encoded, EncodeError> {
    let mut enc = Encoded::new(net, classes, nodes, k)?;
    enc.build_steps(net);
    Ok(enc)
}

/// The encoder output: a solver context with the violation asserted, the
/// variable tables needed to extract a counterexample, and the machinery
/// for attaching failure scenarios incrementally.
pub struct Encoded {
    pub ctx: Context,
    pub steps: Vec<StepVars>,
    /// Terminal ids in encoding order (`terminals[i]` has encoded id `i`).
    pub terminals: Vec<NodeId>,
    /// Sentinel id meaning "dropped / not delivered".
    pub drop_id: u64,
    /// `fired[(step, mbox, rule)]` — the rule-fired indicator terms.
    pub fired: HashMap<(usize, NodeId, usize), TermId>,
    /// Oracle variables per (oracle name, step).
    pub oracles: HashMap<(String, usize), TermId>,
    // ---- scenario-independent skeleton state ----------------------------
    k: usize,
    index: HashMap<NodeId, u64>,
    node_w: u32,
    step_w: u32,
    /// Destination-address equivalence classes of the static datapath
    /// and the delivery intervals memoised over them: the encoder's own
    /// from [`encode_skeleton`], the epoch's shared instance in a
    /// verifier's session. Each scenario reads its intervals from here.
    classes: Arc<HeaderClasses>,
    /// Host / middlebox terminals in scope (across all scenarios; each
    /// scenario's activation literal disables its failed ones).
    hosts: Vec<NodeId>,
    mboxes: Vec<NodeId>,
    /// Activation literal per registered failure scenario.
    scenarios: Vec<(FailureScenario, TermId)>,
    /// Activation literal per registered invariant (cross-invariant
    /// session reuse: one skeleton serves many invariants).
    invariants: Vec<(Invariant, TermId)>,
    /// Whether the trace normal form (module docs) is asserted. Always
    /// true outside the differential test that compares the two.
    normal_form: bool,
    // ---- build-time state ----------------------------------------------
    insert_sites: Vec<InsertSite>,
    /// pending(m, i, t): delivered-to-m(i) ∧ not processed before t.
    pending_memo: HashMap<(NodeId, usize, usize), TermId>,
    processed_memo: HashMap<(NodeId, usize, usize), TermId>,
}

impl Encoded {
    fn new(
        net: &Network,
        classes: Arc<HeaderClasses>,
        nodes: &[NodeId],
        k: usize,
    ) -> Result<Encoded, EncodeError> {
        if !(1..=MAX_TRACE_BOUND).contains(&k) {
            return Err(EncodeError::TraceBound(k));
        }
        let mut terminals: Vec<NodeId> =
            nodes.iter().copied().filter(|&n| net.topo.node(n).kind.is_terminal()).collect();
        terminals.sort();
        terminals.dedup();
        let index: HashMap<NodeId, u64> =
            terminals.iter().enumerate().map(|(i, &n)| (n, i as u64)).collect();
        let drop_id = terminals.len() as u64;
        let node_w = bits_for(drop_id + 1);
        let step_w = bits_for(k as u64);

        let hosts: Vec<NodeId> =
            terminals.iter().copied().filter(|&n| net.topo.node(n).kind.is_host()).collect();
        let mboxes: Vec<NodeId> =
            terminals.iter().copied().filter(|&n| net.topo.node(n).kind.is_middlebox()).collect();
        for &m in &mboxes {
            for action in net.model(m).rules.iter().flat_map(|r| &r.actions) {
                if let Action::RewriteDstOneOf(addrs) = action {
                    if !(1..=MAX_BACKENDS).contains(&addrs.len()) {
                        let mbox = net.topo.node(m).name.clone();
                        return Err(EncodeError::Backends { mbox, count: addrs.len() });
                    }
                }
            }
        }

        let mut ctx = Context::new();
        let mut steps = Vec::with_capacity(k);
        for t in 0..k {
            let out = FieldVars {
                src: ctx.fresh_const(format!("out_src@{t}"), Sort::bitvec(ADDR_W)),
                dst: ctx.fresh_const(format!("out_dst@{t}"), Sort::bitvec(ADDR_W)),
                sport: ctx.fresh_const(format!("out_sport@{t}"), Sort::bitvec(PORT_W)),
                dport: ctx.fresh_const(format!("out_dport@{t}"), Sort::bitvec(PORT_W)),
                origin: ctx.fresh_const(format!("out_origin@{t}"), Sort::bitvec(ADDR_W)),
                tag: ctx.fresh_const(format!("out_tag@{t}"), Sort::bitvec(TAG_W)),
            };
            let input = FieldVars {
                src: ctx.fresh_const(format!("in_src@{t}"), Sort::bitvec(ADDR_W)),
                dst: ctx.fresh_const(format!("in_dst@{t}"), Sort::bitvec(ADDR_W)),
                sport: ctx.fresh_const(format!("in_sport@{t}"), Sort::bitvec(PORT_W)),
                dport: ctx.fresh_const(format!("in_dport@{t}"), Sort::bitvec(PORT_W)),
                origin: ctx.fresh_const(format!("in_origin@{t}"), Sort::bitvec(ADDR_W)),
                tag: ctx.fresh_const(format!("in_tag@{t}"), Sort::bitvec(TAG_W)),
            };
            steps.push(StepVars {
                kind: ctx.fresh_const(format!("kind@{t}"), Sort::bitvec(2)),
                actor: ctx.fresh_const(format!("actor@{t}"), Sort::bitvec(node_w)),
                present: ctx.fresh_const(format!("present@{t}"), Sort::Bool),
                out,
                input,
                delivered: ctx.fresh_const(format!("delivered@{t}"), Sort::bitvec(node_w)),
                target: ctx.fresh_const(format!("target@{t}"), Sort::bitvec(step_w)),
                choice: ctx.fresh_const(format!("choice@{t}"), Sort::bitvec(CHOICE_W)),
                fresh_port: ctx.fresh_const(format!("fresh_port@{t}"), Sort::bitvec(PORT_W)),
                fresh_tag: ctx.fresh_const(format!("fresh_tag@{t}"), Sort::bitvec(TAG_W)),
            });
        }

        Ok(Encoded {
            ctx,
            steps,
            terminals,
            drop_id,
            fired: HashMap::new(),
            oracles: HashMap::new(),
            k,
            index,
            node_w,
            step_w,
            classes,
            hosts,
            mboxes,
            scenarios: Vec::new(),
            invariants: Vec::new(),
            normal_form: true,
            insert_sites: Vec::new(),
            pending_memo: HashMap::new(),
            processed_memo: HashMap::new(),
        })
    }

    // ---- incremental scenario API ----------------------------------------

    /// Activation literal of `scenario`, registering (and encoding) the
    /// scenario on first use. While the literal is true, exactly this
    /// scenario's liveness and delivery facts are in force.
    pub fn scenario_literal(
        &mut self,
        net: &Network,
        scenario: &FailureScenario,
    ) -> Result<TermId, EncodeError> {
        if let Some((_, lit)) = self.scenarios.iter().find(|(s, _)| s == scenario) {
            return Ok(*lit);
        }
        let lit = self.add_scenario(net, scenario)?;
        self.scenarios.push((scenario.clone(), lit));
        Ok(lit)
    }

    /// The assumption set selecting exactly `scenario`: its activation
    /// literal positively, every other registered scenario's negatively
    /// (so no foreign delivery facts leak into the check).
    pub fn assumptions_for(
        &mut self,
        net: &Network,
        scenario: &FailureScenario,
    ) -> Result<Vec<TermId>, EncodeError> {
        let lit = self.scenario_literal(net, scenario)?;
        let others: Vec<TermId> =
            self.scenarios.iter().map(|(_, l)| *l).filter(|&l| l != lit).collect();
        let mut out = vec![lit];
        for l in others {
            out.push(self.ctx.not(l));
        }
        Ok(out)
    }

    /// Activation literal of `inv`, registering (and encoding) the
    /// invariant's violation formula on first use: the literal *implies*
    /// the violation, so assuming it true selects the invariant while
    /// other registered invariants stay inert. Lemmas learnt for an
    /// earlier invariant stay in the solver: they are redundant, and the
    /// engine drops every session with its sweep.
    pub fn invariant_literal(
        &mut self,
        net: &Network,
        inv: &Invariant,
    ) -> Result<TermId, EncodeError> {
        if let Some((_, lit)) = self.invariants.iter().find(|(i, _)| i == inv) {
            return Ok(*lit);
        }
        let n = self.invariants.len();
        let lit = self.ctx.fresh_const(format!("invariant!{n}"), Sort::Bool);
        let violated = self.invariant_violation(net, inv)?;
        let rule = self.ctx.implies(lit, violated);
        self.ctx.assert(rule);
        self.invariants.push((inv.clone(), lit));
        Ok(lit)
    }

    /// Number of invariants registered on this skeleton so far.
    pub fn num_registered_invariants(&self) -> usize {
        self.invariants.len()
    }

    /// Decides whether `inv` is violated under `scenario`, as one
    /// assumption-based call on the persistent solver: the invariant's
    /// activation literal is assumed true (and every other registered
    /// invariant's false, so their violation obligations cannot constrain
    /// the search) on top of the scenario assumption set. On `Sat` the
    /// model is a witness trace for exactly this (invariant, scenario)
    /// pair, extractable with [`crate::trace::Trace::extract`].
    pub fn check_invariant_scenario(
        &mut self,
        net: &Network,
        inv: &Invariant,
        scenario: &FailureScenario,
    ) -> Result<SatResult, EncodeError> {
        let lit = self.invariant_literal(net, inv)?;
        let mut assumptions = self.assumptions_for(net, scenario)?;
        assumptions.push(lit);
        let others: Vec<TermId> =
            self.invariants.iter().map(|(_, l)| *l).filter(|&l| l != lit).collect();
        for l in others {
            assumptions.push(self.ctx.not(l));
        }
        Ok(self.ctx.check_assuming(&assumptions))
    }

    /// Encodes one scenario's facts under a fresh activation literal:
    /// failed terminals neither send nor process, and live terminals'
    /// emissions are delivered by this scenario's (re-converged) transfer
    /// function.
    fn add_scenario(
        &mut self,
        net: &Network,
        scenario: &FailureScenario,
    ) -> Result<TermId, EncodeError> {
        let n = self.scenarios.len();
        let live = self.ctx.fresh_const(format!("scenario!{n}"), Sort::Bool);

        // Fail-stop: failed hosts never send, failed middleboxes never
        // process. (The skeleton already restricts senders to hosts and
        // processors to middleboxes in scope.)
        for t in 0..self.k {
            for h in self.hosts.clone() {
                if !scenario.is_failed(h) {
                    continue;
                }
                let send = self.kind_is(t, KIND_SEND);
                let ah = self.actor_is(t, h);
                let acts = self.ctx.and(&[send, ah]);
                let dead = self.ctx.not(acts);
                let rule = self.ctx.implies(live, dead);
                self.ctx.assert(rule);
            }
            for m in self.mboxes.clone() {
                if !scenario.is_failed(m) {
                    continue;
                }
                let pm = self.proc_at(t, m);
                let dead = self.ctx.not(pm);
                let rule = self.ctx.implies(live, dead);
                self.ctx.assert(rule);
            }
        }

        // Per-emitter delivery intervals of this scenario's transfer
        // function, projected to in-scope node indices (out-of-scope
        // targets and drops both take the default branch of the delivery
        // expression). Identical interval lists across scenarios hash-cons
        // to identical terms, so overlapping scenarios share most of their
        // CNF.
        for f in self.terminals.clone() {
            if scenario.is_failed(f) {
                continue;
            }
            let intervals: Vec<(u32, u32, u64)> = self
                .classes
                .delivery_intervals(&net.topo, &net.tables, scenario, f)?
                .iter()
                .filter_map(|&(first, last, target)| {
                    Some((first, last, *self.index.get(&target?)?))
                })
                .collect();
            for t in 0..self.k {
                let present = self.steps[t].present;
                let af = self.actor_is(t, f);
                let cond = self.ctx.and(&[live, present, af]);
                let expr = self.delivery_expr(&intervals, self.steps[t].out.dst);
                let tie = {
                    let d = self.steps[t].delivered;
                    self.ctx.eq(d, expr)
                };
                let rule = self.ctx.implies(cond, tie);
                self.ctx.assert(rule);
            }
        }
        Ok(live)
    }

    // ---- small term helpers ----------------------------------------------

    fn node_const(&mut self, id: u64) -> TermId {
        self.ctx.bv_const(id, self.node_w)
    }

    fn step_const(&mut self, t: usize) -> TermId {
        self.ctx.bv_const(t as u64, self.step_w)
    }

    fn kind_is(&mut self, t: usize, kind: u64) -> TermId {
        let kv = self.steps[t].kind;
        let c = self.ctx.bv_const(kind, 2);
        self.ctx.eq(kv, c)
    }

    fn actor_is(&mut self, t: usize, node: NodeId) -> TermId {
        let id = self.index[&node];
        let av = self.steps[t].actor;
        let c = self.node_const(id);
        self.ctx.eq(av, c)
    }

    /// `kind[t] = PROC ∧ actor[t] = m`.
    fn proc_at(&mut self, t: usize, m: NodeId) -> TermId {
        let kp = self.kind_is(t, KIND_PROC);
        let am = self.actor_is(t, m);
        self.ctx.and(&[kp, am])
    }

    /// `kind[t] = PROC ∧ target[t] = i`: step `t` consumes the packet
    /// emitted at step `i`.
    fn consumes(&mut self, t: usize, i: usize) -> TermId {
        let kp = self.kind_is(t, KIND_PROC);
        let tv = self.steps[t].target;
        let ic = self.step_const(i);
        let e = self.ctx.eq(tv, ic);
        self.ctx.and(&[kp, e])
    }

    fn addr_const(&mut self, a: Address) -> TermId {
        self.ctx.bv_const(a.0 as u64, ADDR_W)
    }

    fn fields_eq(&mut self, a: FieldVars, b: FieldVars) -> TermId {
        let parts = [
            self.ctx.eq(a.src, b.src),
            self.ctx.eq(a.dst, b.dst),
            self.ctx.eq(a.sport, b.sport),
            self.ctx.eq(a.dport, b.dport),
            self.ctx.eq(a.origin, b.origin),
            self.ctx.eq(a.tag, b.tag),
        ];
        self.ctx.and(&parts)
    }

    /// Symmetric flow equality of two 4-tuples.
    fn flow_eq(&mut self, a: [TermId; 4], b: [TermId; 4]) -> TermId {
        let same = {
            let parts = [
                self.ctx.eq(a[0], b[0]),
                self.ctx.eq(a[1], b[1]),
                self.ctx.eq(a[2], b[2]),
                self.ctx.eq(a[3], b[3]),
            ];
            self.ctx.and(&parts)
        };
        let rev = {
            let parts = [
                self.ctx.eq(a[0], b[2]),
                self.ctx.eq(a[1], b[3]),
                self.ctx.eq(a[2], b[0]),
                self.ctx.eq(a[3], b[1]),
            ];
            self.ctx.and(&parts)
        };
        self.ctx.or(&[same, rev])
    }

    fn key_eq(&mut self, a: &SymKey, b: &SymKey) -> TermId {
        match (a, b) {
            (SymKey::Flow(x), SymKey::Flow(y)) => self.flow_eq(*x, *y),
            (SymKey::Addr(x), SymKey::Addr(y)) => self.ctx.eq(*x, *y),
            (SymKey::Pair(x1, x2), SymKey::Pair(y1, y2)) => {
                let e1 = self.ctx.eq(*x1, *y1);
                let e2 = self.ctx.eq(*x2, *y2);
                self.ctx.and(&[e1, e2])
            }
            // Keys of different shapes never match (they live in different
            // state sets in well-formed models; cross-shape lookups like
            // "request dst vs cached origin" both use Addr).
            _ => self.ctx.fls(),
        }
    }

    fn key_of(&mut self, expr: KeyExpr, f: FieldVars) -> SymKey {
        match expr {
            KeyExpr::Flow => SymKey::Flow([f.src, f.sport, f.dst, f.dport]),
            KeyExpr::SrcAddr => SymKey::Addr(f.src),
            KeyExpr::DstAddr => SymKey::Addr(f.dst),
            KeyExpr::Origin => SymKey::Addr(f.origin),
            KeyExpr::SrcDst => SymKey::Pair(f.src, f.dst),
        }
    }

    fn prefix_match(&mut self, field: TermId, p: vmn_net::Prefix) -> TermId {
        self.ctx.bv_prefix_match(field, p.addr().0 as u64, p.len())
    }

    fn oracle_var(&mut self, name: &str, t: usize) -> TermId {
        if let Some(&v) = self.oracles.get(&(name.to_string(), t)) {
            return v;
        }
        let v = self.ctx.fresh_const(format!("{name}@{t}"), Sort::Bool);
        self.oracles.insert((name.to_string(), t), v);
        v
    }

    // ---- delivery --------------------------------------------------------

    /// The delivery expression for a packet with symbolic destination
    /// `dst` emitted by a terminal with the given delivery intervals:
    /// nested interval tests compiled from the transfer function.
    fn delivery_expr(&mut self, intervals: &[(u32, u32, u64)], dst: TermId) -> TermId {
        let drop = self.node_const(self.drop_id);
        let mut expr = drop;
        for &(start, end, result) in intervals.iter().rev() {
            let lo = self.ctx.bv_const(start as u64, ADDR_W);
            let hi = self.ctx.bv_const(end as u64, ADDR_W);
            let ge = self.ctx.bv_ule(lo, dst);
            let le = self.ctx.bv_ule(dst, hi);
            let inside = self.ctx.and(&[ge, le]);
            let res = self.node_const(result);
            expr = self.ctx.ite(inside, res, expr);
        }
        expr
    }

    // ---- FIFO / pending machinery ----------------------------------------

    /// `processed(m, i, t)`: some step `t' ∈ (i, t)` processed instance `i`
    /// at `m`.
    fn processed(&mut self, m: NodeId, i: usize, t: usize) -> TermId {
        if t <= i + 1 {
            return self.ctx.fls();
        }
        if let Some(&memo) = self.processed_memo.get(&(m, i, t)) {
            return memo;
        }
        let before = self.processed(m, i, t - 1);
        let pm = self.proc_at(t - 1, m);
        let sel = {
            let tv = self.steps[t - 1].target;
            let ic = self.step_const(i);
            self.ctx.eq(tv, ic)
        };
        let here = self.ctx.and(&[pm, sel]);
        let out = self.ctx.or(&[before, here]);
        self.processed_memo.insert((m, i, t), out);
        out
    }

    /// `pending(m, i, t)`: instance `i` was delivered to `m` and not yet
    /// processed before step `t`.
    fn pending(&mut self, m: NodeId, i: usize, t: usize) -> TermId {
        debug_assert!(i < t);
        if let Some(&memo) = self.pending_memo.get(&(m, i, t)) {
            return memo;
        }
        let delivered = {
            let p = self.steps[i].present;
            let d = self.steps[i].delivered;
            let mc = self.node_const(self.index[&m]);
            let e = self.ctx.eq(d, mc);
            self.ctx.and(&[p, e])
        };
        let processed = self.processed(m, i, t);
        let np = self.ctx.not(processed);
        let out = self.ctx.and(&[delivered, np]);
        self.pending_memo.insert((m, i, t), out);
        out
    }

    // ---- the main build --------------------------------------------------

    fn build_steps(&mut self, net: &Network) {
        for t in 0..self.k {
            self.constrain_step(net, t);
        }
        self.constrain_fresh_values();
        if self.normal_form {
            self.constrain_normal_form();
        }
        self.mark_schedule();
    }

    /// The two skeleton rules of the trace normal form (module docs);
    /// the third lives in [`Encoded::recv_at`].
    fn constrain_normal_form(&mut self) {
        for t in 0..self.k - 1 {
            // Idle is a suffix.
            let idle = self.kind_is(t, KIND_IDLE);
            let idle_next = self.kind_is(t + 1, KIND_IDLE);
            let rule = self.ctx.implies(idle, idle_next);
            self.ctx.assert(rule);
            // A host send is consumed by a later step, or is the last event.
            let mut fates = vec![idle_next];
            for u in t + 1..self.k {
                fates.push(self.consumes(u, t));
            }
            let send = self.kind_is(t, KIND_SEND);
            let some_fate = self.ctx.or(&fates);
            let rule = self.ctx.implies(send, some_fate);
            self.ctx.assert(rule);
        }
    }

    /// Names the schedule to the solver: the control variables of every
    /// step are marked decide-first, later steps heavier. Which event
    /// happens where fixes, by propagation, most of what the 160 header
    /// bits a step carries may be; branching on the header bits first (a
    /// cold heap yields variables in index order, and they come first)
    /// spends some twenty decisions per conflict on values no clause reads
    /// yet. The last step is decided first because every violation ends
    /// the trace: it is where the invariant's clauses bite.
    fn mark_schedule(&mut self) {
        for t in 0..self.k {
            let s = &self.steps[t];
            let weight = SCHEDULE_WEIGHT * (t + 1) as f64 / self.k as f64;
            for term in [s.kind, s.actor, s.present, s.delivered, s.target] {
                self.ctx.decide_first(term, weight);
            }
        }
    }

    fn constrain_step(&mut self, net: &Network, t: usize) {
        // kind ∈ {IDLE, SEND, PROC}.
        let kv = self.steps[t].kind;
        let two = self.ctx.bv_const(KIND_PROC, 2);
        let in_range = self.ctx.bv_ule(kv, two);
        self.ctx.assert(in_range);

        // Idle steps emit nothing.
        let idle = self.kind_is(t, KIND_IDLE);
        let present = self.steps[t].present;
        let not_present = self.ctx.not(present);
        let idle_rule = self.ctx.implies(idle, not_present);
        self.ctx.assert(idle_rule);

        // Non-present steps deliver nowhere (keeps traces clean and makes
        // `delivered = d` imply a real reception).
        let dropped = {
            let d = self.steps[t].delivered;
            let dc = self.node_const(self.drop_id);
            self.ctx.eq(d, dc)
        };
        let np_drop = self.ctx.implies(not_present, dropped);
        self.ctx.assert(np_drop);

        self.constrain_send(net, t);
        self.constrain_proc(net, t);
    }

    fn constrain_send(&mut self, net: &Network, t: usize) {
        let send = self.kind_is(t, KIND_SEND);
        // The sender must be a host in scope (scenario activation literals
        // additionally rule out the hosts failed in the active scenario)…
        let mut actor_ok = Vec::new();
        for h in self.hosts.clone() {
            actor_ok.push(self.actor_is(t, h));
        }
        let any_host = self.ctx.or(&actor_ok);
        let send_actor = self.ctx.implies(send, any_host);
        self.ctx.assert(send_actor);
        // …and a send always emits.
        let present = self.steps[t].present;
        let send_present = self.ctx.implies(send, present);
        self.ctx.assert(send_present);

        // Well-formedness per host (§3.5: "new packets generated by hosts
        // are well formed"): correct source address, origin = source,
        // ephemeral port below the NAT range.
        for h in self.hosts.clone() {
            let cond = {
                let a = self.actor_is(t, h);
                self.ctx.and(&[send, a])
            };
            let addresses: Vec<Address> = net.topo.node(h).addresses.clone();
            let addr_ok = {
                let src = self.steps[t].out.src;
                let opts: Vec<TermId> = addresses
                    .iter()
                    .map(|&a| {
                        let c = self.addr_const(a);
                        self.ctx.eq(src, c)
                    })
                    .collect();
                self.ctx.or(&opts)
            };
            let origin_ok = {
                let o = self.steps[t].out.origin;
                let s = self.steps[t].out.src;
                self.ctx.eq(o, s)
            };
            let port_ok = {
                let hi = self.ctx.bv_const(EPHEMERAL_BASE - 1, PORT_W);
                self.ctx.bv_ule(self.steps[t].out.sport, hi)
            };
            let all = self.ctx.and(&[addr_ok, origin_ok, port_ok]);
            let rule = self.ctx.implies(cond, all);
            self.ctx.assert(rule);
        }
    }

    fn constrain_proc(&mut self, net: &Network, t: usize) {
        let proc = self.kind_is(t, KIND_PROC);
        if t == 0 || self.mboxes.is_empty() {
            // Nothing can be pending at step 0 (and with no middleboxes
            // in scope there is nothing to process).
            let np = self.ctx.not(proc);
            self.ctx.assert(np);
            return;
        }
        let mut actor_ok = Vec::new();
        for m in self.mboxes.clone() {
            actor_ok.push(self.actor_is(t, m));
        }
        let any_mbox = self.ctx.or(&actor_ok);
        let proc_actor = self.ctx.implies(proc, any_mbox);
        self.ctx.assert(proc_actor);

        for m in self.mboxes.clone() {
            self.constrain_proc_for_mbox(net, t, m);
        }

        // Bind input fields to the targeted instance (shared across
        // middlebox identities).
        for i in 0..t {
            let sel = self.consumes(t, i);
            let tie = self.fields_eq(self.steps[t].input, self.steps[i].out);
            let rule = self.ctx.implies(sel, tie);
            self.ctx.assert(rule);
        }
    }

    fn constrain_proc_for_mbox(&mut self, net: &Network, t: usize, m: NodeId) {
        let pm = self.proc_at(t, m);

        // FIFO target selection: the oldest pending instance.
        let mut options = Vec::new();
        let mut younger_pending: Vec<TermId> = Vec::new();
        for i in 0..t {
            let pend_i = self.pending(m, i, t);
            let none_older = {
                let negs: Vec<TermId> = younger_pending.iter().map(|&p| self.ctx.not(p)).collect();
                self.ctx.and(&negs)
            };
            let sel = {
                let tv = self.steps[t].target;
                let ic = self.step_const(i);
                self.ctx.eq(tv, ic)
            };
            let opt = self.ctx.and(&[sel, pend_i, none_older]);
            options.push(opt);
            younger_pending.push(pend_i);
        }
        let some_target = self.ctx.or(&options);
        let rule = self.ctx.implies(pm, some_target);
        self.ctx.assert(rule);

        // Rule guards with first-match semantics.
        let model = net.model(m).clone();
        let input = self.steps[t].input;
        let mut guard_terms = Vec::with_capacity(model.rules.len());
        for r in &model.rules {
            let g = self.guard_term(&model, m, &r.guard, input, t);
            guard_terms.push(g);
        }
        let mut no_earlier = self.ctx.tru();
        let mut fired_emitting = Vec::new();
        for (ri, rule_arm) in model.rules.iter().enumerate() {
            let fired = self.ctx.and(&[pm, no_earlier, guard_terms[ri]]);
            self.fired.insert((t, m, ri), fired);
            let ng = self.ctx.not(guard_terms[ri]);
            no_earlier = self.ctx.and(&[no_earlier, ng]);

            let emits = self.apply_actions(t, m, ri, &model, &rule_arm.actions, fired);
            if emits {
                fired_emitting.push(fired);
            }
        }
        // present ⟺ an emitting rule fired (under pm).
        let any_emit = self.ctx.or(&fired_emitting);
        let present = self.steps[t].present;
        let iff = self.ctx.iff(present, any_emit);
        let rule = self.ctx.implies(pm, iff);
        self.ctx.assert(rule);

        // If no rule fires at all the packet is dropped silently — models
        // end with catch-alls, so just ensure present is false then, which
        // the iff above already guarantees.

        // Mutual-exclusion constraints among oracle classes (§3.4 output
        // constraints), applied to this step's packet.
        for group in model.exclusive_oracles.clone() {
            let vars: Vec<TermId> = group.iter().map(|name| self.oracle_var(name, t)).collect();
            for i in 0..vars.len() {
                for j in (i + 1)..vars.len() {
                    let ni = self.ctx.not(vars[i]);
                    let nj = self.ctx.not(vars[j]);
                    let amo = self.ctx.or(&[ni, nj]);
                    let rule = self.ctx.implies(pm, amo);
                    self.ctx.assert(rule);
                }
            }
        }
    }

    /// Symbolically executes the action list of one rule. Returns whether
    /// the rule emits a packet.
    fn apply_actions(
        &mut self,
        t: usize,
        m: NodeId,
        _ri: usize,
        model: &MboxModel,
        actions: &[Action],
        fired: TermId,
    ) -> bool {
        let input = self.steps[t].input;
        let mut cur = input;
        let mut emits = false;
        let mut responded: Option<FieldVars> = None;
        for action in actions {
            match action {
                Action::Forward => {
                    emits = true;
                    responded = None;
                }
                Action::Drop => {
                    emits = false;
                    responded = None;
                }
                Action::RewriteSrc(a) => {
                    cur = FieldVars { src: self.addr_const(*a), ..cur };
                }
                Action::RewriteDst(a) => {
                    cur = FieldVars { dst: self.addr_const(*a), ..cur };
                }
                Action::RewriteDstOneOf(addrs) => {
                    // dst := addrs[choice], choice constrained in range
                    // (`Encoded::new` checked that the list fits the index).
                    let n = addrs.len() as u64;
                    let choice = self.steps[t].choice;
                    let max = self.ctx.bv_const(n - 1, CHOICE_W);
                    let in_range = self.ctx.bv_ule(choice, max);
                    let rule = self.ctx.implies(fired, in_range);
                    self.ctx.assert(rule);
                    let mut expr = self.addr_const(addrs[0]);
                    for (i, &a) in addrs.iter().enumerate().skip(1) {
                        let ic = self.ctx.bv_const(i as u64, CHOICE_W);
                        let is_i = self.ctx.eq(choice, ic);
                        let ac = self.addr_const(a);
                        expr = self.ctx.ite(is_i, ac, expr);
                    }
                    cur = FieldVars { dst: expr, ..cur };
                }
                Action::RewriteSrcPortFresh => {
                    cur = FieldVars { sport: self.steps[t].fresh_port, ..cur };
                }
                Action::HavocTag => {
                    cur = FieldVars { tag: self.steps[t].fresh_tag, ..cur };
                }
                Action::Insert(set) => {
                    let decl = model.state_decl(set).expect("validated model");
                    let key = self.key_of(decl.key, cur);
                    self.insert_sites.push(InsertSite {
                        mbox: m,
                        set: set.clone(),
                        step: t,
                        active: fired,
                        key,
                        original: input,
                    });
                }
                Action::RestoreDstFromState(set) => {
                    let lookup = self.key_of(KeyExpr::Flow, cur);
                    if let Some((dst, dport)) =
                        self.bind_witness(t, m, set, &lookup, fired, |orig| (orig.src, orig.sport))
                    {
                        cur = FieldVars { dst, dport, ..cur };
                    }
                }
                Action::RespondFromState(set) => {
                    let lookup = SymKey::Addr(cur.dst);
                    // The response: src from the remembered original,
                    // reversed ports, origin and tag from the original.
                    let resp_src =
                        self.ctx.fresh_const(format!("resp_src@{t}"), Sort::bitvec(ADDR_W));
                    let resp_origin =
                        self.ctx.fresh_const(format!("resp_origin@{t}"), Sort::bitvec(ADDR_W));
                    let resp_tag =
                        self.ctx.fresh_const(format!("resp_tag@{t}"), Sort::bitvec(TAG_W));
                    self.bind_witness_multi(
                        t,
                        m,
                        set,
                        &lookup,
                        fired,
                        &[
                            (resp_src, FieldSel::Src),
                            (resp_origin, FieldSel::Origin),
                            (resp_tag, FieldSel::Tag),
                        ],
                    );
                    responded = Some(FieldVars {
                        src: resp_src,
                        dst: cur.src,
                        sport: cur.dport,
                        dport: cur.sport,
                        origin: resp_origin,
                        tag: resp_tag,
                    });
                    emits = true;
                }
            }
        }
        if emits {
            let outv = self.steps[t].out;
            let final_fields = responded.unwrap_or(cur);
            let tie = self.fields_eq(outv, final_fields);
            let rule = self.ctx.implies(fired, tie);
            self.ctx.assert(rule);
        }
        emits
    }

    /// Binds a witness insert-entry for a state lookup, constraining two
    /// derived values from the entry's remembered original via `sel`.
    /// Returns fresh variables carrying the selected fields, or `None`
    /// when no insert site for the set exists (lookup can never match; the
    /// guard will be false anyway).
    fn bind_witness(
        &mut self,
        t: usize,
        m: NodeId,
        set: &str,
        lookup: &SymKey,
        fired: TermId,
        sel: fn(&FieldVars) -> (TermId, TermId),
    ) -> Option<(TermId, TermId)> {
        let sites: Vec<InsertSite> = self
            .insert_sites
            .iter()
            .filter(|s| s.mbox == m && s.set == set && s.step < t)
            .cloned()
            .collect();
        if sites.is_empty() {
            return None;
        }
        let a = self.ctx.fresh_const(format!("wit_a@{t}"), Sort::bitvec(ADDR_W));
        let b = self.ctx.fresh_const(format!("wit_b@{t}"), Sort::bitvec(PORT_W));
        let mut any = Vec::new();
        for site in &sites {
            let keq = self.key_eq(&site.key, lookup);
            let (va, vb) = sel(&site.original);
            let ea = self.ctx.eq(a, va);
            let eb = self.ctx.eq(b, vb);
            let all = self.ctx.and(&[site.active, keq, ea, eb]);
            any.push(all);
        }
        let some = self.ctx.or(&any);
        let rule = self.ctx.implies(fired, some);
        self.ctx.assert(rule);
        Some((a, b))
    }

    /// Like [`Encoded::bind_witness`] but binds several fields of the
    /// matched original at once.
    fn bind_witness_multi(
        &mut self,
        t: usize,
        m: NodeId,
        set: &str,
        lookup: &SymKey,
        fired: TermId,
        outs: &[(TermId, FieldSel)],
    ) {
        let sites: Vec<InsertSite> = self
            .insert_sites
            .iter()
            .filter(|s| s.mbox == m && s.set == set && s.step < t)
            .cloned()
            .collect();
        if sites.is_empty() {
            // The guard (StateContains) is false without sites; force
            // fired to be impossible for safety.
            let nf = self.ctx.not(fired);
            self.ctx.assert(nf);
            return;
        }
        let mut any = Vec::new();
        for site in &sites {
            let keq = self.key_eq(&site.key, lookup);
            let mut parts = vec![site.active, keq];
            for (var, field) in outs {
                let v = field.of(&site.original);
                parts.push(self.ctx.eq(*var, v));
            }
            let all = self.ctx.and(&parts);
            any.push(all);
        }
        let some = self.ctx.or(&any);
        let rule = self.ctx.implies(fired, some);
        self.ctx.assert(rule);
    }

    /// Compiles a model guard over the step's input fields, in the context
    /// of middlebox `m` (state lookups only see `m`'s own inserts).
    fn guard_term(
        &mut self,
        model: &MboxModel,
        m: NodeId,
        g: &Guard,
        f: FieldVars,
        t: usize,
    ) -> TermId {
        match g {
            Guard::True => self.ctx.tru(),
            Guard::Not(inner) => {
                let x = self.guard_term(model, m, inner, f, t);
                self.ctx.not(x)
            }
            Guard::And(gs) => {
                let xs: Vec<TermId> =
                    gs.iter().map(|g| self.guard_term(model, m, g, f, t)).collect();
                self.ctx.and(&xs)
            }
            Guard::Or(gs) => {
                let xs: Vec<TermId> =
                    gs.iter().map(|g| self.guard_term(model, m, g, f, t)).collect();
                self.ctx.or(&xs)
            }
            Guard::SrcIn(p) => self.prefix_match(f.src, *p),
            Guard::DstIn(p) => self.prefix_match(f.dst, *p),
            Guard::SrcIs(a) => {
                let c = self.addr_const(*a);
                self.ctx.eq(f.src, c)
            }
            Guard::DstIs(a) => {
                let c = self.addr_const(*a);
                self.ctx.eq(f.dst, c)
            }
            Guard::SrcPortIs(p) => {
                let c = self.ctx.bv_const(*p as u64, PORT_W);
                self.ctx.eq(f.sport, c)
            }
            Guard::DstPortIs(p) => {
                let c = self.ctx.bv_const(*p as u64, PORT_W);
                self.ctx.eq(f.dport, c)
            }
            Guard::OriginIn(p) => self.prefix_match(f.origin, *p),
            Guard::OriginIs(a) => {
                let c = self.addr_const(*a);
                self.ctx.eq(f.origin, c)
            }
            Guard::AclMatch(name) => {
                let pairs = model.acl_pairs(name).expect("validated model").to_vec();
                let opts: Vec<TermId> = pairs
                    .iter()
                    .map(|(sp, dp)| {
                        let s = self.prefix_match(f.src, *sp);
                        let d = self.prefix_match(f.dst, *dp);
                        self.ctx.and(&[s, d])
                    })
                    .collect();
                self.ctx.or(&opts)
            }
            Guard::StateContains { state, key } => {
                // History formula: ♦(matching insert fired), one OR over
                // the box's earlier inserts.
                let lookup = self.key_of(*key, f);
                self.history_lookup(t, m, &lookup, state)
            }
            Guard::Oracle(name) => self.oracle_var(name, t),
        }
    }

    /// The strict ♦ of a state lookup at step `t`: the OR, over `m`'s own
    /// inserts into `set` at steps `< t` (module docs), of "the insert
    /// fired and its key matches `lookup`". No such insert gives `false`.
    fn history_lookup(&mut self, t: usize, m: NodeId, lookup: &SymKey, set: &str) -> TermId {
        let mut matches = Vec::new();
        for site_idx in 0..self.insert_sites.len() {
            let site = self.insert_sites[site_idx].clone();
            if site.mbox != m || site.set != set || site.step >= t {
                continue;
            }
            let keq = self.key_eq(&site.key, lookup);
            matches.push(self.ctx.and(&[site.active, keq]));
        }
        self.ctx.or(&matches)
    }

    fn constrain_fresh_values(&mut self) {
        // Fresh NAT ports live in the ephemeral range and are pairwise
        // distinct, so they can never collide with host-chosen ports or
        // each other.
        let base = self.ctx.bv_const(EPHEMERAL_BASE, PORT_W);
        for t in 0..self.k {
            let fp = self.steps[t].fresh_port;
            let ge = self.ctx.bv_ule(base, fp);
            self.ctx.assert(ge);
            for u in 0..t {
                let fu = self.steps[u].fresh_port;
                let e = self.ctx.eq(fp, fu);
                let ne = self.ctx.not(e);
                self.ctx.assert(ne);
            }
        }
    }

    // ---- invariants --------------------------------------------------------

    /// Step `t` emits a packet that is delivered to `d` — and, in normal
    /// form, nothing happens after it: every invariant's violation is one
    /// such reception, so the trace can stop there.
    fn recv_at(&mut self, d: NodeId, t: usize) -> TermId {
        let id = self.index[&d];
        let present = self.steps[t].present;
        let dc = self.node_const(id);
        let dv = self.steps[t].delivered;
        let mut parts = vec![present, self.ctx.eq(dv, dc)];
        if self.normal_form && t + 1 < self.k {
            parts.push(self.kind_is(t + 1, KIND_IDLE));
        }
        self.ctx.and(&parts)
    }

    /// Builds the violation formula for `inv` and returns it as a term
    /// (asserted directly by [`encode`], or guarded behind an
    /// activation literal by [`Encoded::invariant_literal`]). Definitional
    /// side constraints over invariant-private fresh variables (e.g. the
    /// traversal provenance bits) are asserted unconditionally — they
    /// constrain nothing once the invariant is deselected.
    fn invariant_violation(
        &mut self,
        net: &Network,
        inv: &Invariant,
    ) -> Result<TermId, EncodeError> {
        for n in inv.endpoints() {
            if !self.index.contains_key(&n) {
                return Err(EncodeError::NodeOutOfScope(n));
            }
        }
        let violation = match inv {
            Invariant::NodeIsolation { src, dst } => {
                let saddr = net.host_address(*src);
                let mut cases = Vec::new();
                for t in 0..self.k {
                    let r = self.recv_at(*dst, t);
                    let sc = self.addr_const(saddr);
                    let from_s = self.ctx.eq(self.steps[t].out.src, sc);
                    cases.push(self.ctx.and(&[r, from_s]));
                }
                self.ctx.or(&cases)
            }
            Invariant::FlowIsolation { src, dst } => {
                let saddr = net.host_address(*src);
                let mut cases = Vec::new();
                for t in 0..self.k {
                    let r = self.recv_at(*dst, t);
                    let sc = self.addr_const(saddr);
                    let from_s = self.ctx.eq(self.steps[t].out.src, sc);
                    // ¬∃ t' < t: dst sent a packet of the same flow.
                    let mut initiated = Vec::new();
                    for u in 0..t {
                        let sent = {
                            let k = self.kind_is(u, KIND_SEND);
                            let a = self.actor_is(u, *dst);
                            self.ctx.and(&[k, a])
                        };
                        let fe = {
                            let fu = self.steps[u].out;
                            let ft = self.steps[t].out;
                            self.flow_eq(
                                [fu.src, fu.sport, fu.dst, fu.dport],
                                [ft.src, ft.sport, ft.dst, ft.dport],
                            )
                        };
                        initiated.push(self.ctx.and(&[sent, fe]));
                    }
                    let any_init = self.ctx.or(&initiated);
                    let not_init = self.ctx.not(any_init);
                    cases.push(self.ctx.and(&[r, from_s, not_init]));
                }
                self.ctx.or(&cases)
            }
            Invariant::DataIsolation { origin, dst } => {
                let oaddr = net.host_address(*origin);
                let mut cases = Vec::new();
                for t in 0..self.k {
                    let r = self.recv_at(*dst, t);
                    let oc = self.addr_const(oaddr);
                    let from_o = self.ctx.eq(self.steps[t].out.origin, oc);
                    cases.push(self.ctx.and(&[r, from_o]));
                }
                self.ctx.or(&cases)
            }
            Invariant::Traversal { dst, through, from } => {
                // Per-step provenance: touched (processed by a `through`
                // box somewhere along the chain) and, optionally, rooted
                // at `from`.
                let mut touched: Vec<TermId> = Vec::with_capacity(self.k);
                let mut rooted: Vec<TermId> = Vec::with_capacity(self.k);
                for t in 0..self.k {
                    let tv = self.ctx.fresh_const(format!("touched@{t}"), Sort::Bool);
                    let rv = self.ctx.fresh_const(format!("rooted@{t}"), Sort::Bool);
                    touched.push(tv);
                    rooted.push(rv);
                }
                for t in 0..self.k {
                    let send = self.kind_is(t, KIND_SEND);
                    // Sends are untouched; rooted iff the sender is `from`
                    // (or unconditionally when no `from` restriction).
                    let nt = self.ctx.not(touched[t]);
                    let st = self.ctx.implies(send, nt);
                    self.ctx.assert(st);
                    let root_now = match from {
                        Some(s) => self.actor_is(t, *s),
                        None => self.ctx.tru(),
                    };
                    let riff = self.ctx.iff(rooted[t], root_now);
                    let sr = self.ctx.implies(send, riff);
                    self.ctx.assert(sr);
                    // Processing steps inherit from the target, adding
                    // `through` membership.
                    for i in 0..t {
                        let sel = self.consumes(t, i);
                        let via_now = {
                            let members: Vec<NodeId> = through
                                .iter()
                                .copied()
                                .filter(|m| self.index.contains_key(m))
                                .collect();
                            let opts: Vec<TermId> =
                                members.iter().map(|&m| self.actor_is(t, m)).collect();
                            self.ctx.or(&opts)
                        };
                        let inherit_or_now = {
                            let o = self.ctx.or(&[touched[i], via_now]);
                            self.ctx.iff(touched[t], o)
                        };
                        let ri = self.ctx.iff(rooted[t], rooted[i]);
                        let both = self.ctx.and(&[inherit_or_now, ri]);
                        let rule = self.ctx.implies(sel, both);
                        self.ctx.assert(rule);
                    }
                }
                let mut cases = Vec::new();
                for t in 0..self.k {
                    let r = self.recv_at(*dst, t);
                    let nt = self.ctx.not(touched[t]);
                    cases.push(self.ctx.and(&[r, nt, rooted[t]]));
                }
                self.ctx.or(&cases)
            }
        };
        Ok(violation)
    }
}

fn bits_for(n: u64) -> u32 {
    let mut w = 1;
    while (1u64 << w) < n {
        w += 1;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_sizes() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(16), 4);
        assert_eq!(bits_for(17), 5);
    }
}

#[cfg(test)]
mod encoder_tests {
    use super::*;
    use crate::network::Network;
    use vmn_net::{FailureScenario, RoutingConfig, Topology};
    use vmn_smt::SatResult;

    fn two_hosts() -> (Network, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_host("a", "10.0.0.1".parse().unwrap());
        let b = topo.add_host("b", "10.0.0.2".parse().unwrap());
        let sw = topo.add_switch("sw");
        topo.add_link(a, sw);
        topo.add_link(b, sw);
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let tables = rc.build(&topo, &FailureScenario::none());
        (Network::new(topo, tables), a, b)
    }

    #[test]
    fn reachability_is_sat_isolation_of_absent_flows_unsat() {
        let (net, a, b) = two_hosts();
        let none = FailureScenario::none();
        // a can reach b: the negated isolation invariant is satisfiable.
        let inv = Invariant::NodeIsolation { src: a, dst: b };
        let mut enc = encode(&net, &none, &[a, b], &inv, 3).unwrap();
        assert_eq!(enc.ctx.check(), SatResult::Sat);
        // b never *originates* data of a... the data isolation in reverse:
        // a's data cannot appear at a itself from b without a sending it —
        // but a CAN send to b, so data-isolation a->b is violated too.
        let inv = Invariant::DataIsolation { origin: a, dst: b };
        let mut enc = encode(&net, &none, &[a, b], &inv, 3).unwrap();
        assert_eq!(enc.ctx.check(), SatResult::Sat);
    }

    #[test]
    fn failed_destination_cannot_receive() {
        let (net, a, b) = two_hosts();
        let failed = FailureScenario::nodes([b]);
        let inv = Invariant::NodeIsolation { src: a, dst: b };
        let mut enc = encode(&net, &failed, &[a, b], &inv, 4).unwrap();
        assert_eq!(enc.ctx.check(), SatResult::Unsat, "failed hosts receive nothing");
    }

    #[test]
    fn failed_source_cannot_send() {
        let (net, a, b) = two_hosts();
        let failed = FailureScenario::nodes([a]);
        let inv = Invariant::NodeIsolation { src: a, dst: b };
        let mut enc = encode(&net, &failed, &[a, b], &inv, 4).unwrap();
        assert_eq!(enc.ctx.check(), SatResult::Unsat, "failed hosts send nothing");
    }

    /// Guard pushing lowers an asserted `g ⇒ (field = field ∧ …)` to
    /// clauses without giving the equalities literals; every term that
    /// *does* get a literal keeps a two-sided definition. So a model read
    /// back through the literals must be the model its own variables
    /// determine: `fired`, `present` and every assertion, evaluated
    /// structurally from the values of the variables alone, agree with
    /// what the context reports.
    #[test]
    fn model_literals_agree_with_structural_evaluation() {
        use vmn_net::Rule;
        use vmn_smt::{Model, Term, TermId};
        let mut topo = Topology::new();
        let src = topo.add_host("src", "8.8.8.8".parse().unwrap());
        let dst = topo.add_host("dst", "10.0.0.5".parse().unwrap());
        let sw = topo.add_switch("sw");
        let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
        for n in [src, dst, fw] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        let everything = "0.0.0.0/0".parse().unwrap();
        tables.add_rule(sw, Rule::from_neighbor(everything, src, fw).with_priority(20));
        let mut net = Network::new(topo, tables);
        let acl = vec![(everything, everything)];
        net.set_model(fw, vmn_mbox::models::learning_firewall("stateful-firewall", acl));

        let inv = Invariant::NodeIsolation { src, dst };
        let mut enc = encode(&net, &FailureScenario::none(), &[src, dst, fw], &inv, 4).unwrap();
        assert_eq!(enc.ctx.check(), SatResult::Sat, "src reaches dst through the firewall");

        let vars: Vec<TermId> = (0..enc.ctx.pool().len() as u32)
            .map(TermId)
            .filter(|&t| matches!(enc.ctx.pool().term(t), Term::Var { .. }))
            .collect();
        let mut from_vars: Model = vars.iter().map(|&t| (t, enc.ctx.eval(t))).collect();

        let mut read: Vec<TermId> = enc.fired.values().copied().collect();
        assert!(read.iter().any(|&t| enc.ctx.eval_bool(t)), "a rule fired on the witness");
        read.extend(enc.steps.iter().map(|s| s.present));
        for t in read {
            let structural = from_vars.eval_bool(enc.ctx.pool(), t);
            assert_eq!(enc.ctx.eval_bool(t), structural, "{}", enc.ctx.pool().display(t));
        }
        for &a in enc.ctx.assertions() {
            assert!(from_vars.eval_bool(enc.ctx.pool(), a), "{}", enc.ctx.pool().display(a));
        }
    }

    // ---- trace normal form ------------------------------------------------

    use vmn_mbox::models;
    use vmn_net::{Prefix, Rule};

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// `hosts` and one middlebox of type `mbox_type` on one switch, with
    /// host routes; the caller adds steering and the model.
    fn star(hosts: &[(&str, &str)], mbox_type: &str, mbox_addrs: &[&str]) -> Star {
        let mut topo = Topology::new();
        let hs: Vec<NodeId> =
            hosts.iter().map(|(n, a)| topo.add_host(*n, a.parse().unwrap())).collect();
        let sw = topo.add_switch("sw");
        let addrs = mbox_addrs.iter().map(|a| a.parse().unwrap()).collect();
        let mb = topo.add_middlebox("mb", mbox_type, addrs);
        for &n in hs.iter().chain([&mb]) {
            topo.add_link(n, sw);
        }
        Star { topo, hosts: hs, sw, mb }
    }

    struct Star {
        topo: Topology,
        hosts: Vec<NodeId>,
        sw: NodeId,
        mb: NodeId,
    }

    /// A fixture of the differential test: network, hosts, middleboxes.
    type Fixture = (Network, Vec<NodeId>, Vec<NodeId>);

    /// outside / inside, all traffic steered through one box of `model`.
    fn guarded(mbox_type: &str, model: MboxModel) -> Fixture {
        let st = star(&[("outside", "8.8.8.8"), ("inside", "10.0.0.5")], mbox_type, &[]);
        let mut rc = RoutingConfig::new();
        rc.host_routes(&st.topo);
        let mut tables = rc.build(&st.topo, &FailureScenario::none());
        for &h in &st.hosts {
            let steer = Rule::from_neighbor(px("0.0.0.0/0"), h, st.mb).with_priority(10);
            tables.add_rule(st.sw, steer);
        }
        let mut net = Network::new(st.topo, tables);
        net.set_model(st.mb, model);
        (net, st.hosts, vec![st.mb])
    }

    /// Two hosts behind a learning firewall that lets inside open flows.
    fn firewalled() -> Fixture {
        let acl = vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))];
        guarded("stateful-firewall", models::learning_firewall("stateful-firewall", acl))
    }

    /// The fixtures of this module and of `engine_tests`, one per model
    /// family.
    fn fixtures() -> Vec<(&'static str, Fixture)> {
        let none = FailureScenario::none();
        let mut out = Vec::new();

        let (net, a, b) = two_hosts();
        out.push(("two hosts", (net, vec![a, b], vec![])));
        out.push(("learning firewall", firewalled()));
        let nat = models::nat("nat", px("10.0.0.0/8"), "1.2.3.4".parse().unwrap());
        out.push(("nat", guarded("nat", nat)));

        let st = star(
            &[("client", "8.8.8.8"), ("b1", "10.0.0.1"), ("b2", "10.0.0.2")],
            "load-balancer",
            &["10.0.0.100"],
        );
        let mut rc = RoutingConfig::new();
        rc.host_routes(&st.topo);
        rc.destination(px("10.0.0.100/32"), st.mb);
        let tables = rc.build(&st.topo, &none);
        let mut net = Network::new(st.topo, tables);
        let backends = vec!["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()];
        let vip = "10.0.0.100".parse().unwrap();
        net.set_model(st.mb, models::load_balancer("load-balancer", vip, backends));
        out.push(("load balancer", (net, st.hosts, vec![st.mb])));

        let st = star(
            &[("server", "10.1.0.1"), ("client", "10.2.0.1"), ("other", "10.3.0.1")],
            "content-cache",
            &[],
        );
        let mut rc = RoutingConfig::new();
        rc.host_routes(&st.topo);
        let mut tables = rc.build(&st.topo, &none);
        let (server, clients) = (st.hosts[0], &st.hosts[1..]);
        for &h in clients {
            let steer = Rule::from_neighbor(px("10.1.0.0/16"), h, st.mb).with_priority(10);
            tables.add_rule(st.sw, steer);
        }
        let steer = Rule::from_neighbor(px("10.2.0.0/15"), server, st.mb).with_priority(10);
        tables.add_rule(st.sw, steer);
        let mut net = Network::new(st.topo, tables);
        net.set_model(st.mb, models::content_cache("content-cache", [px("10.1.0.0/16")], vec![]));
        out.push(("content cache", (net, st.hosts, vec![st.mb])));

        for (name, with_backup) in [("pipelined", false), ("backup steering", true)] {
            let (net, src, dst) = crate::engine::engine_tests::pipelined(with_backup);
            let mboxes = net.topo.middleboxes().collect();
            out.push((name, (net, vec![src, dst], mboxes)));
        }
        out
    }

    /// The skeleton without the three normal-form rules: the reference
    /// the differential test compares [`encode_skeleton`] against.
    fn encode_skeleton_unnormalised(net: &Network, nodes: &[NodeId], k: usize) -> Encoded {
        let classes = Arc::new(HeaderClasses::from_network(&net.topo, &net.tables));
        let mut enc = Encoded::new(net, classes, nodes, k).unwrap();
        enc.normal_form = false;
        enc.build_steps(net);
        enc
    }

    /// The normal form loses no verdict and costs no step: for every
    /// fixture, every invariant kind over every ordered host pair, every
    /// single-middlebox failure and every bound up to the longest witness
    /// any of them needs, the formula with the three rules is satisfiable
    /// exactly when the formula without them is.
    #[test]
    fn normal_form_keeps_every_verdict_at_every_bound() {
        let mut sat_cases = 0;
        for (name, (net, hosts, mboxes)) in fixtures() {
            let nodes: Vec<NodeId> = hosts.iter().chain(&mboxes).copied().collect();
            let mut scenarios = vec![FailureScenario::none()];
            scenarios.extend(mboxes.iter().map(|&m| FailureScenario::nodes([m])));
            let mut invs = Vec::new();
            for &src in &hosts {
                for &dst in hosts.iter().filter(|&&d| d != src) {
                    invs.push(Invariant::NodeIsolation { src, dst });
                    invs.push(Invariant::FlowIsolation { src, dst });
                    invs.push(Invariant::DataIsolation { origin: src, dst });
                    if !mboxes.is_empty() {
                        let through = mboxes.clone();
                        invs.push(Invariant::Traversal { dst, through, from: Some(src) });
                    }
                }
            }
            for k in 1..=6 {
                let mut normal = encode_skeleton(&net, &nodes, k).unwrap();
                let mut plain = encode_skeleton_unnormalised(&net, &nodes, k);
                assert!(normal.ctx.num_assertions() > plain.ctx.num_assertions() || k == 1);
                for inv in &invs {
                    for s in &scenarios {
                        let want = plain.check_invariant_scenario(&net, inv, s).unwrap();
                        let got = normal.check_invariant_scenario(&net, inv, s).unwrap();
                        assert_eq!(got, want, "{name}, k = {k}: {inv} under {s:?}");
                        sat_cases += (got == SatResult::Sat) as u32;
                    }
                }
            }
        }
        assert!(sat_cases > 100, "the battery exercises witnesses, not only proofs: {sat_cases}");
    }

    /// The encoder's output and the search it causes, as exact counters,
    /// in debug and release: two hosts behind a learning firewall, flow
    /// isolation, six steps, nothing failed. A change to the formula moves
    /// `vars` / `clauses`; a change to the decision order moves
    /// `conflicts` / `decisions`.
    #[test]
    fn encoding_and_search_are_pinned() {
        let (net, hosts, mboxes) = firewalled();
        let nodes: Vec<NodeId> = hosts.iter().chain(&mboxes).copied().collect();
        let inv = Invariant::FlowIsolation { src: hosts[0], dst: hosts[1] };
        let mut enc = encode_skeleton(&net, &nodes, 6).unwrap();
        let verdict = enc.check_invariant_scenario(&net, &inv, &FailureScenario::none()).unwrap();
        assert_eq!(verdict, SatResult::Unsat, "the firewall admits only flows inside opened");
        let st = enc.ctx.stats();
        assert_eq!((st.vars, st.clauses, st.conflicts, st.decisions), PINNED_FIREWALL_K6);
    }

    const PINNED_FIREWALL_K6: (u64, u64, u64, u64) = (9761, 42520, 1141, 32915);

    /// A state lookup at step `t` is the OR over exactly the same box's
    /// inserts into the same set at steps `< t` (module docs): no other
    /// instance's, no other set's, not the insert at `t` itself — and
    /// `false` at step 0.
    #[test]
    fn history_lookup_sees_own_earlier_inserts_only() {
        let (net, src, dst) = crate::engine::engine_tests::pipelined(true);
        let fws: Vec<NodeId> = net.topo.middleboxes().collect();
        let nodes: Vec<NodeId> = [src, dst].into_iter().chain(fws.iter().copied()).collect();
        let k = 4;
        let mut enc = encode_skeleton(&net, &nodes, k).unwrap();
        let sites = enc.insert_sites.clone();
        let lookup = enc.key_of(KeyExpr::Flow, enc.steps[k - 1].input);
        let fls = enc.ctx.fls();
        for &m in &fws {
            assert!(sites.iter().any(|s| s.mbox != m), "the other firewall inserts too");
            assert_eq!(enc.history_lookup(0, m, &lookup, "established"), fls);
            let own_before = |enc: &mut Encoded, end: usize| {
                let own = sites.iter().filter(|s| s.mbox == m && s.step < end);
                let matches: Vec<TermId> = own
                    .map(|s| {
                        let keq = enc.key_eq(&s.key, &lookup);
                        enc.ctx.and(&[s.active, keq])
                    })
                    .collect();
                enc.ctx.or(&matches)
            };
            for t in 1..k {
                let got = enc.history_lookup(t, m, &lookup, "established");
                assert_eq!(got, own_before(&mut enc, t), "step {t}");
                assert_ne!(got, own_before(&mut enc, t + 1), "step {t} sees its own insert");
                assert_eq!(enc.history_lookup(t, m, &lookup, "elsewhere"), fls);
            }
        }
    }

    #[test]
    fn out_of_scope_endpoints_are_rejected() {
        let (net, a, b) = two_hosts();
        let none = FailureScenario::none();
        let inv = Invariant::NodeIsolation { src: a, dst: b };
        let err = match encode(&net, &none, &[a], &inv, 3) {
            Ok(_) => panic!("expected an out-of-scope error"),
            Err(e) => e,
        };
        assert!(matches!(err, EncodeError::NodeOutOfScope(n) if n == b));
    }

    #[test]
    fn trace_bounds_beyond_the_maximum_are_an_error() {
        let (net, a, b) = two_hosts();
        assert!(encode_skeleton(&net, &[a, b], 62).is_ok());
        for k in [0, 63] {
            match encode_skeleton(&net, &[a, b], k) {
                Err(EncodeError::TraceBound(got)) => assert_eq!(got, k),
                Err(e) => panic!("bound {k}: unexpected error {e}"),
                Ok(_) => panic!("bound {k} must be refused"),
            }
        }
        let msg = EncodeError::TraceBound(65).to_string();
        assert!(msg.contains("65") && msg.contains("62"), "{msg}");
    }

    #[test]
    fn one_step_traces_cannot_violate_between_distinct_hosts() {
        // With K=1 there is only room for a single send; delivery happens
        // in the same step, so a 1-step violation IS possible. With the
        // destination absent from scope, nothing can be delivered.
        let (net, a, b) = two_hosts();
        let none = FailureScenario::none();
        let inv = Invariant::NodeIsolation { src: a, dst: b };
        let mut enc = encode(&net, &none, &[a, b], &inv, 1).unwrap();
        assert_eq!(enc.ctx.check(), SatResult::Sat, "send+deliver is atomic");
    }

    #[test]
    fn flow_isolation_needs_history() {
        // Flow isolation from a to b: violated (a initiates), because a's
        // unsolicited packet reaches b regardless of b's state.
        let (net, a, b) = two_hosts();
        let none = FailureScenario::none();
        let inv = Invariant::FlowIsolation { src: a, dst: b };
        let mut enc = encode(&net, &none, &[a, b], &inv, 4).unwrap();
        assert_eq!(enc.ctx.check(), SatResult::Sat);
    }

    #[test]
    fn spoofing_is_impossible() {
        // b cannot fabricate packets carrying a's source address: if a
        // never sends and b is the only other host, no reception at b...
        // more precisely: isolation of a's ADDRESS at a itself cannot be
        // violated by b alone sending with its own constrained source.
        let (net, a, b) = two_hosts();
        let none = FailureScenario::none();
        let inv = Invariant::NodeIsolation { src: b, dst: b };
        // b would have to receive a packet with src(b); only b owns that
        // address and self-delivery via the fabric doesn't occur (dst must
        // be b's own address from a's send... a's src is constrained to a).
        let mut enc = encode(&net, &none, &[a, b], &inv, 4).unwrap();
        assert_eq!(enc.ctx.check(), SatResult::Sat, "b can send to itself via the fabric");
        // But a packet with b's source arriving at *a* can only be a real
        // b-send: forbid b from acting and it becomes impossible.
        let inv = Invariant::NodeIsolation { src: b, dst: a };
        let failed_b = FailureScenario::nodes([b]);
        let mut enc = encode(&net, &failed_b, &[a, b], &inv, 4).unwrap();
        assert_eq!(enc.ctx.check(), SatResult::Unsat, "nobody can spoof b's address");
    }

    #[test]
    fn one_skeleton_many_invariants_and_scenarios() {
        // The session API answers every (invariant, scenario) pair from
        // ONE skeleton, with verdicts identical to invariant-pinned fresh
        // encoders — the core soundness claim behind cross-invariant
        // solver reuse.
        let (net, a, b) = two_hosts();
        let invs = [
            Invariant::NodeIsolation { src: a, dst: b },
            Invariant::NodeIsolation { src: b, dst: a },
            Invariant::DataIsolation { origin: a, dst: b },
        ];
        let scenarios =
            [FailureScenario::none(), FailureScenario::nodes([a]), FailureScenario::nodes([b])];
        let mut enc = encode_skeleton(&net, &[a, b], 4).unwrap();
        for inv in &invs {
            for s in &scenarios {
                let want = {
                    let mut fresh = encode(&net, s, &[a, b], inv, 4).unwrap();
                    fresh.ctx.check()
                };
                let got = enc.check_invariant_scenario(&net, inv, s).unwrap();
                assert_eq!(got, want, "{inv:?} under {s:?}");
            }
        }
        assert_eq!(enc.num_registered_invariants(), 3);
        // Revisits (reverse order) hit the cached literals and still agree.
        for inv in invs.iter().rev() {
            let none = FailureScenario::none();
            let want = {
                let mut fresh = encode(&net, &none, &[a, b], inv, 4).unwrap();
                fresh.ctx.check()
            };
            assert_eq!(enc.check_invariant_scenario(&net, inv, &none).unwrap(), want);
        }
        assert_eq!(enc.num_registered_invariants(), 3);
        // Only three distinct scenarios were registered, revisits included.
        assert_eq!(enc.scenarios.len(), 3);
    }
}

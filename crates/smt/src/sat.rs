//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This is a MiniSat-lineage solver: two-watched-literal propagation,
//! first-UIP conflict analysis with recursive clause minimisation, EVSIDS
//! variable activities with an indexed binary heap, phase saving, Luby
//! restarts and activity-driven deletion of learnt clauses.
//!
//! Clause storage is a flat literal arena: every clause is a `(start, len)`
//! window into one contiguous `Vec<Lit>` (a `u32` each), so the propagation
//! hot path walks cache-friendly memory and adding a clause performs no
//! per-clause allocation.
//!
//! The solver is **incremental**: [`Solver::solve_with_assumptions`] takes a
//! set of literals that are enqueued as pseudo-decisions below all real
//! decisions. An UNSAT answer then means "unsatisfiable under these
//! assumptions" — the solver itself stays usable, and everything learned
//! (clauses, variable activities, saved phases) persists into the next
//! call. Between calls the trail is rewound to decision level zero.
//!
//! Bit-vector terms are lowered to clauses by [`crate::blast`] before the
//! search starts, so the core decides plain propositional CNF.

use std::fmt;
use vmn_check::{CheckRecord, ClauseId, Outcome, ProofStep, SessionProof};

/// A propositional variable, numbered from zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `var << 1 | sign` where `sign == 1` means negated, so that
/// a literal indexes watch lists directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    #[inline]
    pub fn new(var: Var, negated: bool) -> Lit {
        Lit(var.0 << 1 | negated as u32)
    }

    #[inline]
    pub fn pos(var: Var) -> Lit {
        Lit::new(var, false)
    }

    #[inline]
    pub fn neg(var: Var) -> Lit {
        Lit::new(var, true)
    }

    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Index suitable for watch lists (`2 * var + sign`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_neg() { "!" } else { "" }, self.0 >> 1)
    }
}

/// Three-valued assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    #[inline]
    fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

/// Result of a satisfiability call on the core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    Sat,
    Unsat,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ClauseRef(u32);

/// Per-clause metadata; the literals live in the shared arena at
/// `arena[start .. start + len]`.
struct ClauseMeta {
    start: u32,
    len: u32,
    learnt: bool,
    deleted: bool,
    /// Activity for learnt-clause garbage collection.
    activity: f64,
    /// Cone membership bitmask (see [`Solver::set_open_cone`]): for an
    /// original clause, the cones open when it was added; for a learnt
    /// clause, the union over every clause resolved in its derivation —
    /// so a learnt clause is tagged with every sub-query whose encoding
    /// it (transitively) depends on. Tags ≥ 63 share the top bit, which
    /// only ever causes sound over-forgetting of redundant clauses.
    cone: u64,
    /// Proof-log clause id (0 when proof logging is off). Unlike
    /// [`ClauseRef`], which [`Solver::compact_arena`] renumbers, the proof
    /// id is stable for the lifetime of the session — deletions and hints
    /// in the log refer to it.
    pid: ClauseId,
}

#[derive(Clone, Copy)]
struct Watch {
    cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and we can skip inspecting it.
    blocker: Lit,
}

/// Indexed max-heap over variable activities (the VSIDS order).
struct VarOrder {
    heap: Vec<Var>,
    /// position of a variable in `heap`, or `usize::MAX`.
    index: Vec<usize>,
}

impl VarOrder {
    fn new() -> VarOrder {
        VarOrder { heap: Vec::new(), index: Vec::new() }
    }

    fn contains(&self, v: Var) -> bool {
        self.index.get(v.index()).is_some_and(|&i| i != usize::MAX)
    }

    fn grow(&mut self, n: usize) {
        if self.index.len() < n {
            self.index.resize(n, usize::MAX);
        }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.grow(v.index() + 1);
        self.index[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.index[top.index()] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        if let Some(&i) = self.index.get(v.index()) {
            if i != usize::MAX {
                self.sift_up(i, act);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.index[self.heap[a].index()] = a;
        self.index[self.heap[b].index()] = b;
    }
}

/// Luby restart sequence: 1 1 2 1 1 2 4 ...
fn luby(mut i: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) >> 1;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

/// Statistics reported by [`Solver::stats`]. Cumulative over the lifetime
/// of the solver (incremental solving keeps one solver across many calls);
/// use [`SolverStats::delta_since`] to attribute work to a single check.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    pub decisions: u64,
    pub propagations: u64,
    pub conflicts: u64,
    pub restarts: u64,
    pub learnt_clauses: u64,
    pub deleted_clauses: u64,
    /// Clause-arena garbage collections (see [`Solver::compact_arena`]).
    pub arena_compactions: u64,
    /// Literal slots reclaimed by arena compactions, cumulative.
    pub reclaimed_lits: u64,
}

impl SolverStats {
    /// Field-wise difference against an earlier snapshot of the same
    /// solver — the per-check delta on a persistent, cumulative core.
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnt_clauses: self.learnt_clauses.saturating_sub(earlier.learnt_clauses),
            deleted_clauses: self.deleted_clauses.saturating_sub(earlier.deleted_clauses),
            arena_compactions: self.arena_compactions.saturating_sub(earlier.arena_compactions),
            reclaimed_lits: self.reclaimed_lits.saturating_sub(earlier.reclaimed_lits),
        }
    }
}

impl std::ops::Add for SolverStats {
    type Output = SolverStats;
    fn add(self, o: SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions + o.decisions,
            propagations: self.propagations + o.propagations,
            conflicts: self.conflicts + o.conflicts,
            restarts: self.restarts + o.restarts,
            learnt_clauses: self.learnt_clauses + o.learnt_clauses,
            deleted_clauses: self.deleted_clauses + o.deleted_clauses,
            arena_compactions: self.arena_compactions + o.arena_compactions,
            reclaimed_lits: self.reclaimed_lits + o.reclaimed_lits,
        }
    }
}

const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;

/// DRAT/LRAT-style proof log of one solver session (see [`vmn_check`] for
/// the step vocabulary and the trusted checker that consumes it).
///
/// The log is **append-only** and records only base-level (decision level
/// zero) facts: original clauses as they are handed to [`Solver::add_clause`]
/// (inputs), learnt clauses with their antecedent hints, and clause
/// deletions from learnt-database reduction or cone forgetting. Nothing
/// trail- or search-state-dependent is ever logged, so rewinding the solver
/// to the base level ([`Solver::backtrack_to_base`], search-state scrubs)
/// needs no log truncation — the log is already a base-level object, and a
/// pooled session's shared log stays valid for every check ever taken
/// against a prefix of it.
///
/// Each [`Solver::solve_with_assumptions`] call additionally records a
/// check: the assumption literals with the claimed outcome, pinned to the
/// current log prefix. For UNSAT outcomes this is the ISSUE's "final
/// derivation of the negated-assumptions clause": the checker establishes
/// `{¬a | a ∈ assumptions}` by reverse unit propagation over the prefix.
pub struct ProofLog {
    steps: Vec<ProofStep>,
    checks: Vec<CheckRecord>,
    next_id: ClauseId,
}

impl ProofLog {
    fn new() -> ProofLog {
        ProofLog { steps: Vec::new(), checks: Vec::new(), next_id: 1 }
    }

    /// DIMACS rendering of a literal: `var + 1`, negative when negated.
    fn plit(l: Lit) -> i32 {
        let v = l.var().0 as i32 + 1;
        if l.is_neg() {
            -v
        } else {
            v
        }
    }

    fn plits(lits: &[Lit]) -> Vec<i32> {
        lits.iter().map(|&l| Self::plit(l)).collect()
    }

    fn log_input(&mut self, lits: &[Lit]) -> ClauseId {
        let id = self.next_id;
        self.next_id += 1;
        self.steps.push(ProofStep::Input { id, lits: Self::plits(lits) });
        id
    }

    fn log_derived(&mut self, lits: &[Lit], hints: Vec<ClauseId>) -> ClauseId {
        let id = self.next_id;
        self.next_id += 1;
        self.steps.push(ProofStep::Derived { id, lits: Self::plits(lits), hints });
        id
    }

    fn log_delete(&mut self, id: ClauseId) {
        debug_assert_ne!(id, 0, "deleting a clause that was never logged");
        if id != 0 {
            self.steps.push(ProofStep::Delete { id });
        }
    }

    fn record_unsat(&mut self, assumptions: &[Lit]) {
        self.checks.push(CheckRecord {
            steps_upto: self.steps.len(),
            assumptions: Self::plits(assumptions),
            outcome: Outcome::Unsat,
        });
    }

    fn record_sat(&mut self, assumptions: &[Lit], model: &[bool]) {
        self.checks.push(CheckRecord {
            steps_upto: self.steps.len(),
            assumptions: Self::plits(assumptions),
            outcome: Outcome::Sat { model: model.to_vec() },
        });
    }

    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    pub fn num_checks(&self) -> usize {
        self.checks.len()
    }

    /// Exports the proof as a checkable session: the full shared step log,
    /// with the check records from `checks_from` onwards. Callers sharing
    /// one session across sub-queries (the VMN session pool) snapshot the
    /// check watermark when they enter the session and export only their
    /// own checks — each still validated against its own log prefix.
    pub fn session_slice(&self, num_vars: u32, checks_from: usize) -> SessionProof {
        SessionProof {
            num_vars,
            steps: self.steps.clone(),
            checks: self.checks.get(checks_from..).unwrap_or(&[]).to_vec(),
        }
    }
}

/// The CDCL solver.
///
/// Clauses are added with [`Solver::add_clause`]; variables are created
/// with [`Solver::new_var`]. [`Solver::solve_with_assumptions`] runs the
/// search under a set of assumption literals while keeping all learned
/// state for subsequent calls; [`Solver::solve`] is the assumption-free
/// call.
pub struct Solver {
    /// Flat clause storage: all literals of all clauses, contiguously.
    arena: Vec<Lit>,
    clauses: Vec<ClauseMeta>,
    watches: Vec<Vec<Watch>>,
    assigns: Vec<LBool>,
    /// Saved phase per variable.
    polarity: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    order: VarOrder,
    /// Scratch: seen markers for conflict analysis.
    seen: Vec<bool>,
    /// False once an unconditional contradiction has been derived.
    ok: bool,
    stats: SolverStats,
    learnt_refs: Vec<ClauseRef>,
    max_learnts: f64,
    /// Cone bitmask applied to clauses added while it is non-zero (see
    /// [`Solver::set_open_cone`]).
    open_cone: u64,
    /// Cone mask of the conflict clause currently under analysis; the
    /// learnt clause unions this with every resolved reason's mask.
    analyze_cone: u64,
    /// Literal slots occupied by deleted clauses; once a large enough
    /// fraction of the arena is dead, `reduce_db` compacts it.
    dead_lits: usize,
    /// Snapshot of the last satisfying assignment (one bool per var);
    /// survives the backtrack-to-zero between incremental calls.
    model: Vec<bool>,
    /// Optional DRAT-style proof log (off by default; see
    /// [`Solver::enable_proof`]).
    proof: Option<ProofLog>,
    /// Scratch: proof-log antecedent ids of the conflict clause and every
    /// reason resolved by the in-flight `analyze` call (parallel to
    /// `analyze_cone`; only maintained while proof logging is on).
    analyze_hints: Vec<ClauseId>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    pub fn new() -> Solver {
        Solver {
            arena: Vec::new(),
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order: VarOrder::new(),
            seen: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            learnt_refs: Vec::new(),
            max_learnts: 4000.0,
            open_cone: 0,
            analyze_cone: 0,
            dead_lits: 0,
            model: Vec::new(),
            proof: None,
            analyze_hints: Vec::new(),
        }
    }

    /// Turns on proof logging for this solver's lifetime. Must be called
    /// before any clause is added, so the log is a self-contained account
    /// of the whole session; idempotent. Off by default — the only cost
    /// when disabled is a branch per logging site.
    pub fn enable_proof(&mut self) {
        if self.proof.is_some() {
            return;
        }
        assert!(
            self.clauses.is_empty() && self.trail.is_empty(),
            "proof logging must be enabled on a pristine solver"
        );
        self.proof = Some(ProofLog::new());
    }

    /// The proof log, if [`Solver::enable_proof`] was called.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_ref()
    }

    /// Exports the session proof for the trusted checker: the full shared
    /// step log plus the check records from `checks_from` onwards (pass 0
    /// for all of them). `None` unless proof logging is enabled.
    pub fn proof_session(&self, checks_from: usize) -> Option<SessionProof> {
        let nv = self.num_vars() as u32;
        self.proof.as_ref().map(|p| p.session_slice(nv, checks_from))
    }

    /// Bit for cone tag `tag` (tags ≥ 63 saturate into the shared top
    /// bit; forgetting that bit over-forgets, which is sound — learnt
    /// clauses are redundant).
    #[inline]
    pub fn cone_bit(tag: u32) -> u64 {
        1u64 << tag.min(63)
    }

    /// Declares the *cone* membership of subsequently added clauses: while
    /// the mask is non-zero, every clause added (original or learnt) is
    /// tagged with it, marking the clause as part of the encoding of one
    /// sub-query (an invariant, in the VMN verifier). Conflict analysis
    /// propagates tags: a learnt clause carries the union of the masks of
    /// every clause resolved in its derivation, so
    /// [`Solver::forget_learnts_in_cones`] can later discard exactly the
    /// lemmas that depend on a deselected sub-query's encoding. Pass 0 to
    /// close the cone (clauses added outside any cone are never forgotten
    /// by cone, only by the literal scan).
    pub fn set_open_cone(&mut self, mask: u64) {
        self.open_cone = mask;
    }

    /// Overrides the learnt-clause budget that triggers learnt-database
    /// reduction (default 4000, grown 10% every 1000 conflicts). Lower
    /// values trade search power for memory — and make long incremental
    /// sessions lean on clause deletion + arena compaction much sooner,
    /// which is also how the compaction stress tests exercise the GC
    /// deterministically.
    pub fn set_max_learnts(&mut self, limit: f64) {
        self.max_learnts = limit.max(1.0);
    }

    /// Allocates and returns a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    #[inline]
    pub fn value(&self, lit: Lit) -> LBool {
        match self.assigns[lit.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(!lit.is_neg()),
            LBool::False => LBool::from_bool(lit.is_neg()),
        }
    }

    /// Value of a variable in the most recent model. Meaningful only after
    /// a solve call returned [`SatResult::Sat`]; the snapshot survives the
    /// backtracking performed between incremental calls.
    pub fn model_value(&self, v: Var) -> bool {
        self.model.get(v.index()).copied().unwrap_or(false)
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Literals of a clause, as a slice of the arena.
    #[inline]
    fn clause_lits(&self, cref: ClauseRef) -> &[Lit] {
        let m = &self.clauses[cref.0 as usize];
        &self.arena[m.start as usize..(m.start + m.len) as usize]
    }

    #[inline]
    fn lit_at(&self, cref: ClauseRef, i: usize) -> Lit {
        self.arena[self.clauses[cref.0 as usize].start as usize + i]
    }

    /// Adds a clause. Returns `false` if the clause made the instance
    /// trivially unsatisfiable. Must be called at decision level zero.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        // Log the clause as handed to us, before normalisation: the checker
        // must see the self-contained input CNF, and normalisation (dropping
        // root-false literals, discarding root-satisfied clauses) is only
        // valid relative to root facts the checker re-derives itself.
        let pid = match &mut self.proof {
            Some(p) => p.log_input(lits),
            None => 0,
        };
        // Normalise: drop duplicate and false literals, detect tautologies.
        let mut cl: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut sorted = lits.to_vec();
        sorted.sort();
        sorted.dedup();
        for &l in &sorted {
            debug_assert!(l.var().index() < self.num_vars(), "literal references unknown var");
            if sorted.binary_search(&!l).is_ok() {
                return true; // tautology: contains l and !l
            }
            match self.value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => cl.push(l),
            }
        }
        match cl.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(cl[0], None);
                // Unit propagation here keeps level-0 implications tight.
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let cref = self.attach_clause(&cl, false);
                self.clauses[cref.0 as usize].pid = pid;
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = ClauseRef(self.clauses.len() as u32);
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(lits);
        self.clauses.push(ClauseMeta {
            start,
            len: lits.len() as u32,
            learnt,
            deleted: false,
            activity: 0.0,
            // Learnt clauses inherit the union of their derivation's cones
            // (accumulated by `analyze`); originals take the open cone.
            cone: if learnt { self.analyze_cone } else { self.open_cone },
            // Callers patch in the proof id after attaching.
            pid: 0,
        });
        self.watches[(!lits[0]).index()].push(Watch { cref, blocker: lits[1] });
        self.watches[(!lits[1]).index()].push(Watch { cref, blocker: lits[0] });
        if learnt {
            self.learnt_refs.push(cref);
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    #[inline]
    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(lit), LBool::Undef);
        let v = lit.var();
        self.assigns[v.index()] = LBool::from_bool(!lit.is_neg());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation to fixpoint. Returns a conflicting clause if one
    /// is found.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut confl = None;
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            if let Some(c) = self.propagate_lit(lit) {
                confl = Some(c);
                self.qhead = self.trail.len();
            }
        }
        confl
    }

    /// Propagates the consequences of `lit` being true through the watch
    /// lists. Returns a conflicting clause if one is found.
    fn propagate_lit(&mut self, lit: Lit) -> Option<ClauseRef> {
        self.stats.propagations += 1;
        let mut watches = std::mem::take(&mut self.watches[lit.index()]);
        let mut i = 0;
        let mut conflict = None;
        'watches: while i < watches.len() {
            let w = watches[i];
            if self.value(w.blocker) == LBool::True {
                i += 1;
                continue;
            }
            let cref = w.cref;
            let meta = &self.clauses[cref.0 as usize];
            if meta.deleted {
                watches.swap_remove(i);
                continue;
            }
            let start = meta.start as usize;
            let len = meta.len as usize;
            // Make sure the false literal is at position 1.
            let false_lit = !lit;
            if self.arena[start] == false_lit {
                self.arena.swap(start, start + 1);
            }
            debug_assert_eq!(self.arena[start + 1], false_lit);
            let first = self.arena[start];
            if first != w.blocker && self.value(first) == LBool::True {
                watches[i] = Watch { cref, blocker: first };
                i += 1;
                continue;
            }
            // Look for a new literal to watch.
            for k in 2..len {
                let lk = self.arena[start + k];
                if self.value(lk) != LBool::False {
                    self.arena.swap(start + 1, start + k);
                    self.watches[(!lk).index()].push(Watch { cref, blocker: first });
                    watches.swap_remove(i);
                    continue 'watches;
                }
            }
            // Clause is unit or conflicting.
            watches[i] = Watch { cref, blocker: first };
            i += 1;
            if self.value(first) == LBool::False {
                conflict = Some(cref);
                break;
            }
            self.unchecked_enqueue(first, Some(cref));
        }
        // Put back remaining watches (including any not yet visited after a
        // conflict).
        let slot = &mut self.watches[lit.index()];
        if slot.is_empty() {
            *slot = watches;
        } else {
            slot.extend_from_slice(&watches);
        }
        conflict
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let cl = &mut self.clauses[cref.0 as usize];
        if !cl.learnt {
            return;
        }
        cl.activity += self.clause_inc;
        if cl.activity > RESCALE_LIMIT {
            for &r in &self.learnt_refs {
                self.clauses[r.0 as usize].activity *= 1e-100;
            }
            self.clause_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. `confl` is the conflicting clause (all
    /// its literals false under the current assignment). Returns the
    /// learnt clause (asserting literal first) and the backjump level.
    ///
    /// Assumptions need no special handling here: they are decisions, so
    /// resolution stops at them and they appear (negated) in the learnt
    /// clause, which is therefore implied by the clause database alone and
    /// safe to keep across incremental calls.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let p: Option<Lit>;
        let mut trail_idx = self.trail.len();
        let mut reason_lits: Vec<Lit> = self.clause_lits(confl).to_vec();

        loop {
            for &q in &reason_lits {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal from the trail to resolve on.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let lit = self.trail[trail_idx];
            let v = lit.var();
            self.seen[v.index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            let cref = self.reason[v.index()].expect("non-decision must have a reason");
            self.bump_clause(cref);
            self.analyze_cone |= self.clauses[cref.0 as usize].cone;
            if self.proof.is_some() {
                self.analyze_hints.push(self.clauses[cref.0 as usize].pid);
            }
            // Skip the asserting literal itself (position 0 by invariant).
            reason_lits.clear();
            let m = &self.clauses[cref.0 as usize];
            let (s, l) = (m.start as usize, m.len as usize);
            reason_lits.extend(self.arena[s..s + l].iter().copied().filter(|&q| q.var() != v));
        }
        learnt[0] = !p.expect("found UIP");

        // Conflict-clause minimisation: drop literals implied by the rest.
        // Dropping a literal resolves with its reason clause, so that
        // clause's cone joins the derivation too (same as the main loop —
        // otherwise the learnt clause under-reports its cones and
        // forget-by-cone keeps it as dead weight).
        let mut keep: Vec<bool> = Vec::with_capacity(learnt.len());
        for (i, &l) in learnt.iter().enumerate() {
            let redundant = i != 0 && self.redundant(l);
            if redundant {
                let cref = self.reason[l.var().index()].expect("redundant literals have a reason");
                self.analyze_cone |= self.clauses[cref.0 as usize].cone;
                if self.proof.is_some() {
                    self.analyze_hints.push(self.clauses[cref.0 as usize].pid);
                }
            }
            keep.push(!redundant);
        }
        let mut out: Vec<Lit> = learnt
            .iter()
            .zip(&keep)
            .filter_map(|(&l, &k)| if k { Some(l) } else { None })
            .collect();
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }

        // Find backjump level: second-highest level in the clause.
        let bt = if out.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..out.len() {
                if self.level[out[i].var().index()] > self.level[out[max_i].var().index()] {
                    max_i = i;
                }
            }
            out.swap(1, max_i);
            self.level[out[1].var().index()]
        };
        (out, bt)
    }

    /// A literal is redundant in the learnt clause if its reason literals
    /// are all already in the clause (single-step self-subsumption).
    fn redundant(&self, l: Lit) -> bool {
        let v = l.var();
        match self.reason[v.index()] {
            None => false,
            Some(cref) => self.clause_lits(cref).iter().all(|&q| {
                q.var() == v || self.seen[q.var().index()] || self.level[q.var().index()] == 0
            }),
        }
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for i in (target..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.assigns[v.index()] = LBool::Undef;
            self.polarity[v.index()] = !lit.is_neg();
            self.reason[v.index()] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = target;
    }

    /// Rewinds the solver to decision level zero, discarding any
    /// assignment left over from a previous solve call. Level-zero facts,
    /// learnt clauses, activities and saved phases all survive. Called
    /// automatically at the start of every solve; exposed so callers can
    /// rewind eagerly before adding clauses.
    pub fn backtrack_to_base(&mut self) {
        self.cancel_until(0);
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(Lit::new(v, !self.polarity[v.index()]));
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        let mut refs = std::mem::take(&mut self.learnt_refs);
        refs.retain(|r| !self.clauses[r.0 as usize].deleted);
        refs.sort_by(|a, b| {
            let ca = self.clauses[a.0 as usize].activity;
            let cb = self.clauses[b.0 as usize].activity;
            ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: Vec<bool> = refs
            .iter()
            .map(|r| {
                // Clause is a reason for its first literal.
                let first = self.lit_at(*r, 0);
                self.value(first) == LBool::True && self.reason[first.var().index()] == Some(*r)
            })
            .collect();
        let limit = refs.len() / 2;
        for (i, r) in refs.iter().enumerate() {
            let short = self.clauses[r.0 as usize].len <= 2;
            if i < limit && !locked[i] && !short {
                self.clauses[r.0 as usize].deleted = true;
                self.dead_lits += self.clauses[r.0 as usize].len as usize;
                self.stats.deleted_clauses += 1;
                let pid = self.clauses[r.0 as usize].pid;
                if let Some(p) = &mut self.proof {
                    p.log_delete(pid);
                }
            }
        }
        refs.retain(|r| !self.clauses[r.0 as usize].deleted);
        self.learnt_refs = refs;
        // Deleted clauses leave their literals behind in the arena; once a
        // third of it is dead, copy the survivors into a fresh arena so
        // very long incremental sessions stay memory-bounded.
        if self.dead_lits * 3 >= self.arena.len() && self.arena.len() >= 1024 {
            self.compact_arena();
        }
    }

    /// Deletes every learnt clause containing one of the given literals
    /// — with exactly that polarity — (unless it is currently the reason
    /// of an assigned literal), then compacts the arena if enough
    /// literals died. Incremental sessions use this when a sub-query is
    /// deselected: pass the literal the standing assumptions will keep
    /// *true* (e.g. `¬activation`) — clauses containing it are
    /// permanently satisfied, so they can prune nothing yet still cost
    /// watch-list traversals on every propagation. Clauses mentioning
    /// only the opposite polarity keep pruning and are kept. Must be
    /// called at decision level zero.
    pub fn forget_learnts_with(&mut self, lits: &[Lit]) {
        self.forget_learnts_in_cones(0, lits);
    }

    /// Like [`Solver::forget_learnts_with`], but additionally deletes
    /// every learnt clause whose cone mask intersects `cones` — i.e.
    /// every lemma whose derivation (transitively) used a clause added
    /// inside one of the given cones (see [`Solver::set_open_cone`]).
    /// This catches the lemmas the literal scan misses: clauses learnt
    /// from a deselected sub-query's *Tseitin interior*, which never
    /// mention its activation literal yet are dead weight once the
    /// sub-query is deselected for good. Locked clauses (reasons of
    /// assigned literals) always survive. Must be called at decision
    /// level zero.
    pub fn forget_learnts_in_cones(&mut self, cones: u64, lits: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut mark = vec![false; 2 * self.num_vars()];
        for l in lits {
            mark[l.index()] = true;
        }
        let mut refs = std::mem::take(&mut self.learnt_refs);
        refs.retain(|r| {
            let meta = &self.clauses[r.0 as usize];
            let (s, l) = (meta.start as usize, meta.len as usize);
            if meta.cone & cones == 0 && !self.arena[s..s + l].iter().any(|&q| mark[q.index()]) {
                return true;
            }
            // Locked clauses (reasons of assigned literals) must survive.
            let first = self.arena[s];
            if self.value(first) == LBool::True && self.reason[first.var().index()] == Some(*r) {
                return true;
            }
            self.clauses[r.0 as usize].deleted = true;
            self.dead_lits += l;
            self.stats.deleted_clauses += 1;
            let pid = self.clauses[r.0 as usize].pid;
            if let Some(p) = &mut self.proof {
                p.log_delete(pid);
            }
            false
        });
        self.learnt_refs = refs;
        if self.dead_lits * 3 >= self.arena.len() && self.arena.len() >= 1024 {
            self.compact_arena();
        }
    }

    /// Resets the search heuristics — EVSIDS activities, the branching
    /// heap and saved phases — to their initial state, keeping the clause
    /// database (originals *and* learnt) intact. A long-lived incremental
    /// session that has absorbed a heavyweight search carries an activity
    /// profile tuned to a *different* query; re-entering it for a new
    /// sub-query with that foreign profile measurably degrades the search
    /// (more conflicts than a cold start), while the learnt skeleton
    /// lemmas are still worth keeping. This resets the former without
    /// giving up the latter. Must be called at decision level zero.
    pub fn reset_search_state(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        for a in &mut self.activity {
            *a = 0.0;
        }
        self.var_inc = 1.0;
        for p in &mut self.polarity {
            *p = false;
        }
        // Re-insert every unassigned variable into the branching heap
        // (no-op for those already queued): with all activities zero the
        // next search starts from a cold, uniform order.
        for i in 0..self.num_vars() {
            let v = Var(i as u32);
            if self.assigns[v.index()] == LBool::Undef {
                self.order.insert(v, &self.activity);
            }
        }
    }

    /// Current length of the clause arena in literal slots (live + dead).
    /// Exposed so callers (and the GC tests) can observe that compaction
    /// keeps long incremental sessions bounded.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// MiniSat-style clause garbage collection: copies every live clause
    /// into a fresh arena, drops deleted ones, and remaps watch lists,
    /// reason references and the learnt-clause index to the new
    /// `ClauseRef` numbering.
    ///
    /// Safe at any point of the search: clause literal windows are copied
    /// verbatim (watched literals stay at positions 0 and 1), so the
    /// two-watched-literal invariant and the trail's reason clauses carry
    /// over unchanged. `reduce_db` never deletes a clause that is the
    /// reason of an assigned literal, so every reason survives.
    pub fn compact_arena(&mut self) {
        let mut remap: Vec<u32> = vec![u32::MAX; self.clauses.len()];
        let mut arena: Vec<Lit> =
            Vec::with_capacity(self.arena.len().saturating_sub(self.dead_lits));
        let mut clauses: Vec<ClauseMeta> = Vec::with_capacity(self.clauses.len());
        for (i, m) in self.clauses.iter().enumerate() {
            if m.deleted {
                continue;
            }
            remap[i] = clauses.len() as u32;
            let start = arena.len() as u32;
            arena.extend_from_slice(&self.arena[m.start as usize..(m.start + m.len) as usize]);
            clauses.push(ClauseMeta {
                start,
                len: m.len,
                learnt: m.learnt,
                deleted: false,
                activity: m.activity,
                cone: m.cone,
                // Proof ids are stable across compaction: the log (and its
                // hints and deletions) never see the renumbered ClauseRefs.
                pid: m.pid,
            });
        }
        self.stats.reclaimed_lits += (self.arena.len() - arena.len()) as u64;
        self.arena = arena;
        self.clauses = clauses;
        for list in &mut self.watches {
            list.retain_mut(|w| {
                let n = remap[w.cref.0 as usize];
                w.cref = ClauseRef(n);
                n != u32::MAX
            });
        }
        for cref in self.reason.iter_mut().flatten() {
            let n = remap[cref.0 as usize];
            debug_assert_ne!(n, u32::MAX, "a reason clause is locked and never deleted");
            *cref = ClauseRef(n);
        }
        for r in &mut self.learnt_refs {
            let n = remap[r.0 as usize];
            debug_assert_ne!(n, u32::MAX, "reduce_db drops deleted refs before compaction");
            *r = ClauseRef(n);
        }
        self.dead_lits = 0;
        self.stats.arena_compactions += 1;
    }

    /// Runs the CDCL search (with restarts) until the instance is decided.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Assumptions are enqueued as pseudo-decisions below all real
    /// decisions (one decision level each, MiniSat-style), so conflict
    /// analysis treats them like decisions and every learnt clause remains
    /// implied by the clause database alone. [`SatResult::Unsat`] therefore
    /// means *unsatisfiable under these assumptions*: the solver stays
    /// usable and keeps its learnt clauses, activities and phases for the
    /// next call. On [`SatResult::Sat`] the full assignment is left in
    /// place; it is discarded by the backtrack-to-zero at the start of the
    /// next call or by an explicit [`Solver::backtrack_to_base`].
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.ok {
            // The log already derives a root contradiction; the record is
            // checkable without any further derivation.
            if let Some(p) = &mut self.proof {
                p.record_unsat(assumptions);
            }
            return SatResult::Unsat;
        }
        debug_assert!(assumptions.iter().all(|l| l.var().index() < self.num_vars()));
        // Start from a clean base level; everything learnt persists.
        self.backtrack_to_base();
        let mut restarts: u64 = 0;
        let mut conflicts_until_restart = 100 * luby(restarts);

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    // The checker reproduces this conflict by root unit
                    // propagation of the logged clauses alone.
                    if let Some(p) = &mut self.proof {
                        p.record_unsat(assumptions);
                    }
                    return SatResult::Unsat;
                }
                self.learn_from(confl);
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                continue;
            }
            if conflicts_until_restart == 0 && self.decision_level() > 0 {
                restarts += 1;
                self.stats.restarts += 1;
                conflicts_until_restart = 100 * luby(restarts);
                self.cancel_until(0);
                continue;
            }
            if self.learnt_refs.len() as f64 > self.max_learnts {
                self.reduce_db();
            }
            // Take the next assumption as a pseudo-decision; real
            // branching starts only above the assumption levels.
            let mut next = None;
            while (self.decision_level() as usize) < assumptions.len() {
                let p = assumptions[self.decision_level() as usize];
                match self.value(p) {
                    // Already implied: open an empty level so the
                    // level/assumption indices stay aligned.
                    LBool::True => self.trail_lim.push(self.trail.len()),
                    // Contradicted by the formula (plus earlier
                    // assumptions): UNSAT under assumptions, but the
                    // solver itself remains consistent. The checker
                    // reproduces this by propagating the full
                    // assumption set — unit propagation is monotone
                    // in the assignment, so the conflict the solver
                    // saw under a prefix is still reached.
                    LBool::False => {
                        if let Some(p) = &mut self.proof {
                            p.record_unsat(assumptions);
                        }
                        self.backtrack_to_base();
                        return SatResult::Unsat;
                    }
                    LBool::Undef => {
                        next = Some(p);
                        break;
                    }
                }
            }
            let Some(lit) = next.or_else(|| self.pick_branch()) else {
                // Full assignment and no conflict: a model.
                self.model.clear();
                self.model.extend(self.assigns.iter().map(|&a| a == LBool::True));
                if let Some(p) = &mut self.proof {
                    p.record_sat(assumptions, &self.model);
                }
                return SatResult::Sat;
            };
            self.stats.decisions += 1;
            self.trail_lim.push(self.trail.len());
            self.unchecked_enqueue(lit, None);
        }
    }

    /// Learns from the conflicting clause `confl` (found above decision
    /// level zero): analyses it, backjumps, logs and attaches the learnt
    /// clause and asserts its first literal.
    fn learn_from(&mut self, confl: ClauseRef) {
        debug_assert!(
            self.clause_lits(confl)
                .iter()
                .any(|l| self.level[l.var().index()] == self.decision_level()),
            "a propagation conflict involves the current decision level"
        );
        self.bump_clause(confl);
        // Seed the learnt clause's cone with the conflicting clause's;
        // `analyze` unions in every resolved reason.
        self.analyze_cone = self.clauses[confl.0 as usize].cone;
        if self.proof.is_some() {
            let pid = self.clauses[confl.0 as usize].pid;
            self.analyze_hints.clear();
            self.analyze_hints.push(pid);
        }
        let (learnt, bt_level) = self.analyze(confl);
        self.cancel_until(bt_level);
        let pid = match &mut self.proof {
            Some(p) => {
                let hints = std::mem::take(&mut self.analyze_hints);
                p.log_derived(&learnt, hints)
            }
            None => 0,
        };
        if learnt.len() == 1 {
            // Unit learnt clauses never join the clause DB (the enqueue is
            // reason-less), but they are logged like any other derivation:
            // the checker root-propagates them, which is exactly what this
            // enqueue does.
            self.unchecked_enqueue(learnt[0], None);
        } else {
            let cref = self.attach_clause(&learnt, true);
            self.clauses[cref.0 as usize].pid = pid;
            self.bump_clause(cref);
            self.unchecked_enqueue(learnt[0], Some(cref));
        }
        self.var_inc /= VAR_DECAY;
        self.clause_inc /= CLAUSE_DECAY;
        if self.stats.conflicts.is_multiple_of(1000) {
            self.max_learnts *= 1.1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver_vars: &[Var], spec: &[i32]) -> Vec<Lit> {
        spec.iter()
            .map(|&i| {
                let v = solver_vars[(i.unsigned_abs() - 1) as usize];
                Lit::new(v, i < 0)
            })
            .collect()
    }

    fn n_vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let vs = n_vars(&mut s, 2);
        s.add_clause(&lits(&vs, &[1, 2]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(vs[0]) || s.model_value(vs[1]));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let vs = n_vars(&mut s, 1);
        s.add_clause(&lits(&vs, &[1]));
        s.add_clause(&lits(&vs, &[-1]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_chain() {
        let mut s = Solver::new();
        let vs = n_vars(&mut s, 4);
        s.add_clause(&lits(&vs, &[1]));
        s.add_clause(&lits(&vs, &[-1, 2]));
        s.add_clause(&lits(&vs, &[-2, 3]));
        s.add_clause(&lits(&vs, &[-3, 4]));
        assert_eq!(s.solve(), SatResult::Sat);
        for v in vs {
            assert!(s.model_value(v));
        }
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        let vs = n_vars(&mut s, 1);
        assert!(s.add_clause(&lits(&vs, &[1, -1])));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    /// Pigeonhole principle: n+1 pigeons into n holes is UNSAT and requires
    /// genuine conflict-driven search.
    fn pigeonhole(n: usize) -> Solver {
        let mut s = Solver::new();
        let pigeons = n + 1;
        let vars: Vec<Vec<Var>> =
            (0..pigeons).map(|_| (0..n).map(|_| s.new_var()).collect()).collect();
        for p in 0..pigeons {
            let cl: Vec<Lit> = (0..n).map(|h| Lit::pos(vars[p][h])).collect();
            s.add_clause(&cl);
        }
        for h in 0..n {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[Lit::neg(vars[p1][h]), Lit::neg(vars[p2][h])]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_unsat() {
        for n in 2..=6 {
            let mut s = pigeonhole(n);
            assert_eq!(s.solve(), SatResult::Unsat, "php({n})");
        }
    }

    #[test]
    fn graph_coloring_sat() {
        // 3-colour a 5-cycle (possible).
        let mut s = Solver::new();
        let k = 3;
        let n = 5;
        let v: Vec<Vec<Var>> = (0..n).map(|_| (0..k).map(|_| s.new_var()).collect()).collect();
        for i in 0..n {
            let cl: Vec<Lit> = (0..k).map(|c| Lit::pos(v[i][c])).collect();
            s.add_clause(&cl);
            for c1 in 0..k {
                for c2 in (c1 + 1)..k {
                    s.add_clause(&[Lit::neg(v[i][c1]), Lit::neg(v[i][c2])]);
                }
            }
        }
        for i in 0..n {
            let j = (i + 1) % n;
            for c in 0..k {
                s.add_clause(&[Lit::neg(v[i][c]), Lit::neg(v[j][c])]);
            }
        }
        assert_eq!(s.solve(), SatResult::Sat);
        // Verify: each node exactly one colour, endpoints differ.
        let colour = |i: usize, s: &Solver| (0..k).find(|&c| s.model_value(v[i][c])).unwrap();
        for i in 0..n {
            assert_ne!(colour(i, &s), colour((i + 1) % n, &s));
        }
    }

    #[test]
    fn two_coloring_odd_cycle_unsat() {
        let mut s = Solver::new();
        let n = 7;
        // var true = colour A, false = colour B; adjacent must differ.
        let v = n_vars(&mut s, n);
        for i in 0..n {
            let j = (i + 1) % n;
            s.add_clause(&[Lit::pos(v[i]), Lit::pos(v[j])]);
            s.add_clause(&[Lit::neg(v[i]), Lit::neg(v[j])]);
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn luby_sequence() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    /// Brute-force model check for random 3-CNF instances: compare solver
    /// answer against exhaustive enumeration.
    #[test]
    fn random_3cnf_vs_bruteforce() {
        // Simple deterministic LCG so the test is reproducible without rand.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..60 {
            let nv = 4 + (next() % 6) as usize; // 4..=9 vars
            let nc = 6 + (next() % 30) as usize;
            let clauses: Vec<Vec<i32>> = (0..nc)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let var = (next() % nv as u32) as i32 + 1;
                            if next() % 2 == 0 {
                                var
                            } else {
                                -var
                            }
                        })
                        .collect()
                })
                .collect();
            let brute = (0..(1u32 << nv)).any(|m| {
                clauses.iter().all(|cl| {
                    cl.iter().any(|&l| {
                        let bit = (m >> (l.unsigned_abs() - 1)) & 1 == 1;
                        if l > 0 {
                            bit
                        } else {
                            !bit
                        }
                    })
                })
            });
            let mut s = Solver::new();
            let vs = n_vars(&mut s, nv);
            for cl in &clauses {
                s.add_clause(&lits(&vs, cl));
            }
            let got = s.solve() == SatResult::Sat;
            assert_eq!(got, brute, "round {round}: clauses {clauses:?}");
            if got {
                // Check the model actually satisfies all clauses.
                for cl in &clauses {
                    assert!(cl.iter().any(|&l| {
                        let val = s.model_value(vs[(l.unsigned_abs() - 1) as usize]);
                        if l > 0 {
                            val
                        } else {
                            !val
                        }
                    }));
                }
            }
        }
    }

    // ---- assumption-based (incremental) solving -------------------------

    #[test]
    fn unsat_under_assumptions_sat_without() {
        let mut s = Solver::new();
        let vs = n_vars(&mut s, 2);
        s.add_clause(&lits(&vs, &[1, 2])); // x ∨ y
        let a = lits(&vs, &[-1, -2]); // assume ¬x, ¬y
        assert_eq!(s.solve_with_assumptions(&a), SatResult::Unsat);
        // Dropping one assumption restores satisfiability.
        assert_eq!(s.solve_with_assumptions(&lits(&vs, &[-1])), SatResult::Sat);
        assert!(s.model_value(vs[1]), "y must carry the clause");
        // And the solver is still globally consistent.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn assumption_scenarios_toggle_like_activation_literals() {
        // Two "scenario" guards forcing opposite values of x.
        let mut s = Solver::new();
        let vs = n_vars(&mut s, 3); // g1, g2, x
        s.add_clause(&lits(&vs, &[-1, 3])); // g1 → x
        s.add_clause(&lits(&vs, &[-2, -3])); // g2 → ¬x
        assert_eq!(s.solve_with_assumptions(&lits(&vs, &[1, -2])), SatResult::Sat);
        assert!(s.model_value(vs[2]));
        assert_eq!(s.solve_with_assumptions(&lits(&vs, &[2, -1])), SatResult::Sat);
        assert!(!s.model_value(vs[2]));
        assert_eq!(s.solve_with_assumptions(&lits(&vs, &[1, 2])), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat, "solver survives scenario UNSAT");
    }

    #[test]
    fn learnt_clauses_persist_across_assumption_calls() {
        // Pigeonhole guarded by an activation literal g: UNSAT under g,
        // SAT under ¬g; repeated calls must keep (and reuse) learnt clauses.
        let n = 5;
        let mut s = Solver::new();
        let g = s.new_var();
        let pigeons = n + 1;
        let vars: Vec<Vec<Var>> =
            (0..pigeons).map(|_| (0..n).map(|_| s.new_var()).collect()).collect();
        for p in 0..pigeons {
            let mut cl: Vec<Lit> = (0..n).map(|h| Lit::pos(vars[p][h])).collect();
            cl.push(Lit::neg(g));
            s.add_clause(&cl);
        }
        for h in 0..n {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[Lit::neg(vars[p1][h]), Lit::neg(vars[p2][h]), Lit::neg(g)]);
                }
            }
        }
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
        let learnt_after_first = s.stats().learnt_clauses;
        let conflicts_after_first = s.stats().conflicts;
        assert!(learnt_after_first > 0, "pigeonhole forces real learning");

        // Second identical call: the learnt clauses are still there, so the
        // proof is found again with far less work.
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
        assert!(s.stats().learnt_clauses >= learnt_after_first, "no learnt state was reset");
        let second_call_conflicts = s.stats().conflicts - conflicts_after_first;
        assert!(
            second_call_conflicts <= conflicts_after_first,
            "reuse must not be more expensive than the first proof \
             ({second_call_conflicts} vs {conflicts_after_first})"
        );

        // Dropping the activation literal: satisfiable, and the model must
        // respect everything learnt (g must come out false only if forced —
        // here ¬g is implied by the formula being unsat under g only when g
        // was *assumed*, so both phases remain possible; just check SAT).
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(g)]), SatResult::Sat);
        assert!(!s.model_value(g));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn duplicate_and_contradictory_assumptions() {
        let mut s = Solver::new();
        let vs = n_vars(&mut s, 2);
        s.add_clause(&lits(&vs, &[1, 2]));
        // Duplicate assumption is harmless.
        assert_eq!(s.solve_with_assumptions(&lits(&vs, &[1, 1])), SatResult::Sat);
        // Directly contradictory assumptions are UNSAT without poisoning
        // the solver.
        assert_eq!(s.solve_with_assumptions(&lits(&vs, &[1, -1])), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn globally_unsat_stays_unsat_with_assumptions() {
        let mut s = Solver::new();
        let vs = n_vars(&mut s, 2);
        s.add_clause(&lits(&vs, &[1]));
        s.add_clause(&lits(&vs, &[-1]));
        assert_eq!(s.solve(), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&lits(&vs, &[2])), SatResult::Unsat);
    }

    // ---- clause-arena garbage collection --------------------------------

    /// Guarded pigeonhole: UNSAT under `g`, SAT under `¬g`. Returns the
    /// solver and the guard variable.
    fn guarded_pigeonhole(s: &mut Solver, n: usize) -> Var {
        let g = s.new_var();
        let pigeons = n + 1;
        let vars: Vec<Vec<Var>> =
            (0..pigeons).map(|_| (0..n).map(|_| s.new_var()).collect()).collect();
        for p in 0..pigeons {
            let mut cl: Vec<Lit> = (0..n).map(|h| Lit::pos(vars[p][h])).collect();
            cl.push(Lit::neg(g));
            s.add_clause(&cl);
        }
        for h in 0..n {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[Lit::neg(vars[p1][h]), Lit::neg(vars[p2][h]), Lit::neg(g)]);
                }
            }
        }
        g
    }

    #[test]
    fn compaction_remaps_watches_and_reasons() {
        // Learn real clauses, then delete a batch by hand (mimicking
        // reduce_db) and compact with a live level-zero trail: watch
        // lists and reason references must survive the renumbering, so
        // every later verdict is unchanged.
        let mut s = Solver::new();
        let g = guarded_pigeonhole(&mut s, 5);
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
        assert!(s.stats().learnt_clauses > 0, "pigeonhole forces learning");

        let refs: Vec<ClauseRef> = s.learnt_refs.clone();
        for r in refs.iter().step_by(2) {
            let first = s.lit_at(*r, 0);
            let locked = s.value(first) == LBool::True && s.reason[first.var().index()] == Some(*r);
            if locked || s.clauses[r.0 as usize].len <= 2 {
                continue;
            }
            s.clauses[r.0 as usize].deleted = true;
            s.dead_lits += s.clauses[r.0 as usize].len as usize;
        }
        let mut live = std::mem::take(&mut s.learnt_refs);
        live.retain(|r| !s.clauses[r.0 as usize].deleted);
        s.learnt_refs = live;
        assert!(s.dead_lits > 0, "some learnt clause must be deletable");

        let before = s.arena_len();
        s.compact_arena();
        assert!(s.arena_len() < before, "compaction reclaims dead literals");
        assert_eq!(s.stats().arena_compactions, 1);
        assert_eq!(s.stats().reclaimed_lits as usize, before - s.arena_len());
        assert_eq!(s.dead_lits, 0);

        // Search still behaves identically after the renumbering.
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(g)]), SatResult::Sat);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn forget_learnts_is_polarity_aware() {
        // Refuting the pigeonhole under `g` learns clauses tagged with
        // ¬g (the falsified guard literal from the original clauses).
        // Deselecting g for good (assuming ¬g from now on) makes exactly
        // those clauses permanently satisfied: forgetting by the literal
        // ¬g must delete them, while forgetting by the literal g — the
        // polarity that would still prune — must delete nothing.
        let mut s = Solver::new();
        let g = guarded_pigeonhole(&mut s, 5);
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
        let learnt_before = s.learnt_refs.len();
        assert!(learnt_before > 0, "pigeonhole forces learning");
        let tagged =
            s.learnt_refs.iter().filter(|r| s.clause_lits(**r).contains(&Lit::neg(g))).count();
        assert!(tagged > 0, "guard tagging must occur");

        s.forget_learnts_with(&[Lit::pos(g)]);
        assert_eq!(s.learnt_refs.len(), learnt_before, "wrong polarity must not delete");
        s.forget_learnts_with(&[Lit::neg(g)]);
        assert!(s.learnt_refs.len() < learnt_before, "¬g-tagged clauses must be deleted");
        // Every surviving ¬g-tagged clause must be locked (the reason of
        // a currently-assigned literal) — nothing else may linger.
        for r in &s.learnt_refs {
            if s.clause_lits(*r).contains(&Lit::neg(g)) {
                let first = s.lit_at(*r, 0);
                assert!(
                    s.value(first) == LBool::True && s.reason[first.var().index()] == Some(*r),
                    "unlocked ¬g-tagged clause survived the forget"
                );
            }
        }
        // Verdicts unchanged: learnt clauses are redundant by construction.
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(g)]), SatResult::Sat);
    }

    #[test]
    fn long_incremental_session_arena_stays_bounded() {
        // Many guarded pigeonhole instances solved on ONE solver with a
        // tiny learnt budget: reduce_db keeps deleting, the arena keeps
        // accumulating dead literals, and the mid-search compaction
        // trigger must fire — without changing a single verdict.
        let mut s = Solver::new();
        s.set_max_learnts(30.0);
        let guards: Vec<Var> = (0..8).map(|_| guarded_pigeonhole(&mut s, 5)).collect();
        for (i, &g) in guards.iter().enumerate() {
            let mut assumptions = vec![Lit::pos(g)];
            assumptions.extend(guards.iter().take(i).map(|&h| Lit::neg(h)));
            assert_eq!(s.solve_with_assumptions(&assumptions), SatResult::Unsat, "php {i}");
        }
        assert!(s.stats().deleted_clauses > 0, "low budget must force deletions");
        assert!(s.stats().arena_compactions >= 1, "the GC trigger must have fired");
        // The trigger's invariant: never more than a third of a
        // non-trivial arena is dead.
        assert!(
            s.dead_lits * 3 < s.arena_len() || s.arena_len() < 1024,
            "arena unbounded: {} dead of {}",
            s.dead_lits,
            s.arena_len()
        );
        // Verdicts are stable on re-query, and the solver is still
        // globally consistent.
        for &g in &guards {
            assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
        }
        let all_off: Vec<Lit> = guards.iter().map(|&g| Lit::neg(g)).collect();
        assert_eq!(s.solve_with_assumptions(&all_off), SatResult::Sat);
    }

    #[test]
    fn compaction_under_low_budget_matches_bruteforce() {
        // Differential: guarded random 3-CNF instances accumulate on one
        // low-budget solver; deletion + compaction must never change an
        // answer versus exhaustive enumeration of each instance.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut s = Solver::new();
        s.set_max_learnts(15.0);
        let mut guards: Vec<Var> = Vec::new();
        for round in 0..30 {
            let nv = 6 + (next() % 5) as usize; // 6..=10 vars
            let nc = 20 + (next() % 25) as usize;
            // A previous SAT call leaves its assignment in place; rewind
            // so the new clauses are added at decision level zero.
            s.backtrack_to_base();
            let g = s.new_var();
            let vs = n_vars(&mut s, nv);
            let clauses: Vec<Vec<i32>> = (0..nc)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let var = (next() % nv as u32) as i32 + 1;
                            if next() % 2 == 0 {
                                var
                            } else {
                                -var
                            }
                        })
                        .collect()
                })
                .collect();
            for cl in &clauses {
                let mut lits = lits(&vs, cl);
                lits.push(Lit::neg(g));
                s.add_clause(&lits);
            }
            let brute = (0..(1u32 << nv)).any(|m| {
                clauses.iter().all(|cl| {
                    cl.iter().any(|&l| {
                        let bit = (m >> (l.unsigned_abs() - 1)) & 1 == 1;
                        if l > 0 {
                            bit
                        } else {
                            !bit
                        }
                    })
                })
            });
            let mut assumptions = vec![Lit::pos(g)];
            assumptions.extend(guards.iter().map(|&h| Lit::neg(h)));
            let got = s.solve_with_assumptions(&assumptions) == SatResult::Sat;
            assert_eq!(got, brute, "round {round} diverged from brute force");
            // Compact while the satisfying assignment (and its reason
            // references) is still on the trail — the automatic trigger
            // fires in exactly such mid-search states from reduce_db.
            s.compact_arena();
            guards.push(g);
        }
        assert!(s.stats().arena_compactions >= 30, "every round must have compacted");
        assert!(s.stats().deleted_clauses > 0, "low budget must force deletions");
    }

    // ---- cone-tagged learnt clauses --------------------------------------

    /// A guarded pigeonhole whose guard is *indirect*, mimicking a Tseitin
    /// interior: `g → z` and the pigeonhole clauses are guarded by `¬z`,
    /// so refutation lemmas usually range over pigeon variables only and
    /// mention neither `g` nor `¬g`. Returns the guard variable. All
    /// clauses are added inside the currently open cone.
    fn tseitin_guarded_pigeonhole(s: &mut Solver, n: usize) -> Var {
        let g = s.new_var();
        let z = s.new_var();
        s.add_clause(&[Lit::neg(g), Lit::pos(z)]);
        let pigeons = n + 1;
        let vars: Vec<Vec<Var>> =
            (0..pigeons).map(|_| (0..n).map(|_| s.new_var()).collect()).collect();
        for p in 0..pigeons {
            let mut cl: Vec<Lit> = (0..n).map(|h| Lit::pos(vars[p][h])).collect();
            cl.push(Lit::neg(z));
            s.add_clause(&cl);
        }
        for h in 0..n {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[Lit::neg(vars[p1][h]), Lit::neg(vars[p2][h]), Lit::neg(z)]);
                }
            }
        }
        g
    }

    /// Builds the two-cone workload deterministically: cone 1 holds an
    /// indirectly-guarded pigeonhole (guard g1), cone 2 a directly-guarded
    /// one (guard g2); both are refuted once so the solver holds learnt
    /// clauses from both cones.
    fn two_cone_solver() -> (Solver, Var, Var) {
        let mut s = Solver::new();
        s.set_open_cone(Solver::cone_bit(1));
        let g1 = tseitin_guarded_pigeonhole(&mut s, 5);
        s.set_open_cone(Solver::cone_bit(2));
        let g2 = guarded_pigeonhole(&mut s, 4);
        s.set_open_cone(0);
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(g1), Lit::neg(g2)]), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(g2), Lit::neg(g1)]), SatResult::Unsat);
        (s, g1, g2)
    }

    #[test]
    fn learnt_clauses_inherit_cones_of_their_derivation() {
        let (s, _, _) = two_cone_solver();
        let cone1 = s
            .learnt_refs
            .iter()
            .filter(|r| s.clauses[r.0 as usize].cone & Solver::cone_bit(1) != 0)
            .count();
        let cone2 = s
            .learnt_refs
            .iter()
            .filter(|r| s.clauses[r.0 as usize].cone & Solver::cone_bit(2) != 0)
            .count();
        assert!(cone1 > 0, "refuting the cone-1 pigeonhole must learn cone-1 lemmas");
        assert!(cone2 > 0, "refuting the cone-2 pigeonhole must learn cone-2 lemmas");
    }

    #[test]
    fn cone_forget_is_strictly_sharper_than_literal_scan() {
        // The old scan deletes learnt clauses *containing* the deselected
        // guard's satisfied literal. Lemmas learnt from the guarded
        // instance's interior never mention the guard (the indirect `z`
        // bridge stands in for Tseitin aux vars), so the scan misses
        // them; the cone tag catches them. Two identical deterministic
        // solvers, one forget each — the cone forget must delete strictly
        // more.
        let (mut by_lit, g1, _) = two_cone_solver();
        let (mut by_cone, g1b, _) = two_cone_solver();
        assert_eq!(g1, g1b, "identical construction");

        let lit_deleted_before = by_lit.stats().deleted_clauses;
        by_lit.backtrack_to_base();
        by_lit.forget_learnts_with(&[Lit::neg(g1)]);
        let lit_deleted = by_lit.stats().deleted_clauses - lit_deleted_before;

        let cone_deleted_before = by_cone.stats().deleted_clauses;
        by_cone.backtrack_to_base();
        by_cone.forget_learnts_in_cones(Solver::cone_bit(1), &[Lit::neg(g1)]);
        let cone_deleted = by_cone.stats().deleted_clauses - cone_deleted_before;

        assert!(
            cone_deleted > lit_deleted,
            "cone tagging must forget strictly more stale lemmas \
             (cone {cone_deleted} vs literal {lit_deleted})"
        );
        // Verdicts survive the sharper forget.
        assert_eq!(by_cone.solve_with_assumptions(&[Lit::pos(g1)]), SatResult::Unsat);
        assert_eq!(by_cone.solve_with_assumptions(&[Lit::neg(g1)]), SatResult::Sat);
    }

    #[test]
    fn cone_forget_on_switch_matches_bruteforce() {
        // Differential for the invariant-switch idiom: guarded random
        // 3-CNF instances accumulate on one solver, each round's clauses
        // added under its own cone; when round i+1 "registers", round i's
        // cone is forgotten (the verifier's forget-on-switch). No verdict
        // — current or revisited — may ever diverge from brute force.
        let mut state = 0x51A5_EED5_EED5_EED5u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut s = Solver::new();
        let mut rounds: Vec<(Var, bool, Vec<Vec<i32>>, Vec<Var>)> = Vec::new();
        for round in 0..24u32 {
            let nv = 5 + (next() % 5) as usize; // 5..=9 vars
            let nc = 15 + (next() % 20) as usize;
            s.backtrack_to_base();
            if let Some((prev_g, ..)) = rounds.last() {
                // The previous round is deselected for good: forget its
                // cone and its satisfied guard literal.
                s.forget_learnts_in_cones(Solver::cone_bit(round - 1), &[Lit::neg(*prev_g)]);
            }
            s.set_open_cone(Solver::cone_bit(round));
            let g = s.new_var();
            let vs = n_vars(&mut s, nv);
            let clauses: Vec<Vec<i32>> = (0..nc)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let var = (next() % nv as u32) as i32 + 1;
                            if next() % 2 == 0 {
                                var
                            } else {
                                -var
                            }
                        })
                        .collect()
                })
                .collect();
            for cl in &clauses {
                let mut lits = lits(&vs, cl);
                lits.push(Lit::neg(g));
                s.add_clause(&lits);
            }
            s.set_open_cone(0);
            let brute = (0..(1u32 << nv)).any(|m| {
                clauses.iter().all(|cl| {
                    cl.iter().any(|&l| {
                        let bit = (m >> (l.unsigned_abs() - 1)) & 1 == 1;
                        if l > 0 {
                            bit
                        } else {
                            !bit
                        }
                    })
                })
            });
            let mut assumptions = vec![Lit::pos(g)];
            assumptions.extend(rounds.iter().map(|(h, ..)| Lit::neg(*h)));
            let got = s.solve_with_assumptions(&assumptions) == SatResult::Sat;
            assert_eq!(got, brute, "round {round} diverged from brute force after cone forget");
            rounds.push((g, brute, clauses, vs));
        }
        assert!(s.stats().deleted_clauses > 0, "the forgets must have deleted something");
        // Revisit every earlier round (its cone was forgotten): the
        // verdict is decided by the original clauses alone and must still
        // match brute force.
        let guards: Vec<Var> = rounds.iter().map(|(g, ..)| *g).collect();
        for (i, (g, brute, ..)) in rounds.iter().enumerate() {
            let mut assumptions = vec![Lit::pos(*g)];
            assumptions.extend(
                guards.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, h)| Lit::neg(*h)),
            );
            let got = s.solve_with_assumptions(&assumptions) == SatResult::Sat;
            assert_eq!(got, *brute, "revisited round {i} diverged after its cone was forgotten");
        }
    }

    #[test]
    fn clauses_can_be_added_between_assumption_calls() {
        let mut s = Solver::new();
        let vs = n_vars(&mut s, 3);
        s.add_clause(&lits(&vs, &[1, 2]));
        assert_eq!(s.solve_with_assumptions(&lits(&vs, &[-1])), SatResult::Sat);
        // New clause after a SAT call (solver auto-rewinds to level 0 on
        // the next call; rewind eagerly here to add at level 0).
        s.backtrack_to_base();
        s.add_clause(&lits(&vs, &[-2, 3]));
        assert_eq!(s.solve_with_assumptions(&lits(&vs, &[-1, -3])), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&lits(&vs, &[-1])), SatResult::Sat);
        assert!(s.model_value(vs[1]) && s.model_value(vs[2]));
    }
}

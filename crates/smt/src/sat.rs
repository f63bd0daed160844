//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This is a MiniSat-lineage solver: two-watched-literal propagation,
//! first-UIP conflict analysis with recursive clause minimisation, EVSIDS
//! variable activities with an indexed binary heap, phase saving, Luby
//! restarts and activity-driven deletion of learnt clauses.
//!
//! # Clause storage
//!
//! Every clause lives in one flat `Vec<u32>` arena, and a clause reference
//! is the offset of its record:
//!
//! ```text
//! [len << 2 | learnt << 1 | deleted] [lit 0] .. [lit len-1]
//!     (+ [proof id]                    when proof logging is on)
//!     (+ [activity lo] [activity hi]   for a learnt clause)
//! ```
//!
//! The header and the literals — all unit propagation reads — are
//! adjacent, so visiting a clause is one cache line, and an original
//! clause costs one word beyond its literals (two with proof logging).
//! There is no per-clause side table. A watch is `(offset, blocker)`; for
//! a binary clause the blocker *is* the other literal and a flag in the
//! offset word says so, so the watch loop decides binary clauses without
//! touching the arena.
//! Assignments are stored per *literal*: `value(lit)` is one load.
//!
//! # What the search trace depends on
//!
//! The decision sequence is a function of watch-list order, of the
//! literal order inside each clause, of which watch `swap_remove` moves
//! where, and of *when* the arena is compacted (compaction drops dead
//! watches eagerly, the watch loop drops them lazily and in a different
//! order). A change of representation must keep all four:
//!
//! * watches are appended in attach order and a watch that moves to
//!   another literal is `swap_remove`d from its list;
//! * `add_clause` stores its literals sorted, so the two smallest
//!   undecided ones are the watches;
//! * a deleted clause's watch is removed the first time the loop
//!   reaches it with a blocker that is not true. Only clauses of three or
//!   more literals are ever deleted (`reduce_db` keeps binary learnts),
//!   so the loop, which never reads a binary clause's header, meets no
//!   dead binary watch;
//! * the compaction trigger compares dead and total *literal* slots
//!   (headers and tails are not counted), and compaction copies records
//!   in arena order, which is creation order.
//!
//! The *order* of a binary clause's two arena slots matters to conflict
//! analysis alone; the watch loop writes them as (other, falsified) when
//! it reports the clause as a conflict, the order a longer clause has at
//! that point. `tests::search_trace_is_pinned` holds all of this to
//! exact counters.
//!
//! # Incremental solving
//!
//! The solver is **incremental**: [`Solver::solve_with_assumptions`] takes a
//! set of literals that are enqueued as pseudo-decisions below all real
//! decisions. An UNSAT answer then means "unsatisfiable under these
//! assumptions" — the solver itself stays usable, and everything learned
//! (clauses, variable activities, saved phases) persists into the next
//! call. Between calls the trail is rewound to decision level zero.
//! Nothing learnt is ever dropped except by learnt-database reduction: a
//! caller that is done with a set of queries drops the solver.
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
#[repr(u8)]
pub enum LBool {
    True,
    False,
    Undef,
}

/// Result of a satisfiability call on the core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    Sat,
    Unsat,
}

/// Offset of a clause record's header word in the arena (see the module
/// docs for the record layout). [`Solver::compact_arena`] renumbers these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ClauseRef(u32);

impl ClauseRef {
    #[inline]
    fn at(self) -> usize {
        self.0 as usize
    }
}

/// Header flag: the clause is deleted; its record is dead weight until
/// the next compaction.
const DELETED: u32 = 1;
/// Header flag: the clause is learnt (its record carries an activity).
const LEARNT: u32 = 2;
/// The length sits above the two header flags.
const LEN_SHIFT: u32 = 2;

#[derive(Clone, Copy)]
struct Watch {
    /// Arena offset of the watched clause, with [`Watch::BINARY`] in the
    /// top bit.
    tagged: u32,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and we can skip inspecting it. For a
    /// binary clause it is the whole rest of the clause.
    blocker: Lit,
}

impl Watch {
    /// The clause has two literals: `blocker` is the other one.
    const BINARY: u32 = 1 << 31;
    /// Arena offsets must stay below the flag bit.
    const MAX_OFFSET: usize = Self::BINARY as usize;

    #[inline]
    fn new(cref: ClauseRef, binary: bool, blocker: Lit) -> Watch {
        Watch { tagged: cref.0 | if binary { Self::BINARY } else { 0 }, blocker }
    }

    #[inline]
    fn cref(self) -> ClauseRef {
        ClauseRef(self.tagged & !Self::BINARY)
    }
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
    /// Variables allocated — with `clauses` and `clause_lits`, the size
    /// of the CNF the bit-blaster produced: the exact work counter of the
    /// lowering phase.
    pub vars: u64,
    /// Original clauses stored (two or more literals after level-zero
    /// simplification; units become assignments, satisfied clauses and
    /// tautologies are dropped).
    pub clauses: u64,
    /// Literals of those clauses.
    pub clause_lits: u64,
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
            vars: self.vars.saturating_sub(earlier.vars),
            clauses: self.clauses.saturating_sub(earlier.clauses),
            clause_lits: self.clause_lits.saturating_sub(earlier.clause_lits),
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
            vars: self.vars + o.vars,
            clauses: self.clauses + o.clauses,
            clause_lits: self.clause_lits + o.clause_lits,
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
/// deletions from learnt-database reduction. Nothing trail- or
/// search-state-dependent is ever logged, so rewinding the solver to the
/// base level ([`Solver::backtrack_to_base`]) needs no log truncation —
/// the log is already a base-level object, and every check stays valid
/// against the prefix it was taken on.
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

    /// Exports the proof as a checkable session: the step log and every
    /// check record, each validated against its own log prefix.
    pub fn session(&self, num_vars: u32) -> SessionProof {
        SessionProof { num_vars, steps: self.steps.clone(), checks: self.checks.clone() }
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
    /// Flat clause storage: one record per clause (module docs).
    arena: Vec<u32>,
    watches: Vec<Vec<Watch>>,
    /// Value of every *literal* (`2 * var + sign`), so the watch loop
    /// reads a literal's value with one load.
    vals: Vec<LBool>,
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
    /// Scratch: the clause `add_clause` is normalising.
    add_tmp: Vec<Lit>,
    /// False once an unconditional contradiction has been derived.
    ok: bool,
    stats: SolverStats,
    learnt_refs: Vec<ClauseRef>,
    max_learnts: f64,
    /// Literal slots of all clause records, live and deleted. Headers and
    /// tails are not counted: this and `dead_lits` are what the compaction
    /// trigger compares, and the trigger's timing is part of the search
    /// trace.
    lit_slots: usize,
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
    /// reason resolved by the in-flight `analyze` call (only maintained
    /// while proof logging is on).
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
            watches: Vec::new(),
            vals: Vec::new(),
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
            add_tmp: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            learnt_refs: Vec::new(),
            max_learnts: 4000.0,
            lit_slots: 0,
            dead_lits: 0,
            model: Vec::new(),
            proof: None,
            analyze_hints: Vec::new(),
        }
    }

    /// Turns on proof logging for this solver's lifetime. Must be called
    /// before any clause is added, so the log is a self-contained account
    /// of the whole session; idempotent. Off by default — the only cost
    /// when disabled is a branch per logging site. When on, every clause
    /// record carries its proof id (one more word).
    pub fn enable_proof(&mut self) {
        if self.proof.is_some() {
            return;
        }
        assert!(
            self.arena.is_empty() && self.trail.is_empty(),
            "proof logging must be enabled on a pristine solver"
        );
        self.proof = Some(ProofLog::new());
    }

    /// The proof log, if [`Solver::enable_proof`] was called.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_ref()
    }

    /// Exports the session proof for the trusted checker: the step log
    /// plus every check record. `None` unless proof logging is enabled.
    pub fn proof_session(&self) -> Option<SessionProof> {
        let nv = self.num_vars() as u32;
        self.proof.as_ref().map(|p| p.session(nv))
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
        let v = Var(self.polarity.len() as u32);
        self.vals.push(LBool::Undef);
        self.vals.push(LBool::Undef);
        self.polarity.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        self.stats.vars += 1;
        v
    }

    pub fn num_vars(&self) -> usize {
        self.polarity.len()
    }

    /// Marks `v` as a variable to branch on early: its activity starts
    /// `weight` above the zero every other variable starts at, so among
    /// variables no conflict has bumped yet the heap yields the heaviest
    /// seed first. A starting order only: the bump grows 5 % a conflict,
    /// so VSIDS overtakes a seed of `w` after ≈ `ln w / ln 1.05`
    /// conflicts. A solver that is never given a seed searches exactly as
    /// before.
    pub fn decide_first(&mut self, v: Var, weight: f64) {
        debug_assert!(weight > 0.0);
        self.activity[v.index()] += weight;
        self.order.bumped(v, &self.activity);
    }

    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    #[inline]
    pub fn value(&self, lit: Lit) -> LBool {
        self.vals[lit.index()]
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

    // ---- clause records ----------------------------------------------------

    #[inline]
    fn clause_len(&self, cref: ClauseRef) -> usize {
        (self.arena[cref.at()] >> LEN_SHIFT) as usize
    }

    #[inline]
    fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.arena[cref.at()] & DELETED != 0
    }

    /// Literals of a clause.
    #[inline]
    fn clause_lits(&self, cref: ClauseRef) -> impl Iterator<Item = Lit> + '_ {
        let first = cref.at() + 1;
        self.arena[first..first + self.clause_len(cref)].iter().map(|&w| Lit(w))
    }

    /// Words every record of this solver carries after its literals: the
    /// proof id when logging is on.
    #[inline]
    fn tail_words(&self) -> usize {
        self.proof.is_some() as usize
    }

    /// Total words of the record whose header is `header`.
    #[inline]
    fn record_words(&self, header: u32) -> usize {
        let activity = if header & LEARNT != 0 { 2 } else { 0 };
        1 + (header >> LEN_SHIFT) as usize + self.tail_words() + activity
    }

    /// Arena index of word `word` of the record's tail (what follows the
    /// literals).
    #[inline]
    fn tail_at(&self, cref: ClauseRef, word: usize) -> usize {
        cref.at() + 1 + self.clause_len(cref) + word
    }

    #[inline]
    fn tail_u64(&self, cref: ClauseRef, word: usize) -> u64 {
        let at = self.tail_at(cref, word);
        self.arena[at] as u64 | (self.arena[at + 1] as u64) << 32
    }

    #[inline]
    fn set_tail_u64(&mut self, cref: ClauseRef, word: usize, x: u64) {
        let at = self.tail_at(cref, word);
        self.arena[at] = x as u32;
        self.arena[at + 1] = (x >> 32) as u32;
    }

    /// Proof-log clause id (0 when proof logging is off). Unlike
    /// [`ClauseRef`], which [`Solver::compact_arena`] renumbers, the proof
    /// id is stable for the lifetime of the session — deletions and hints
    /// in the log refer to it.
    #[inline]
    fn pid(&self, cref: ClauseRef) -> ClauseId {
        if self.proof.is_some() {
            self.arena[self.tail_at(cref, 0)]
        } else {
            0
        }
    }

    /// Activity of a learnt clause, for learnt-clause garbage collection.
    #[inline]
    fn clause_activity(&self, cref: ClauseRef) -> f64 {
        debug_assert!(self.arena[cref.at()] & LEARNT != 0);
        f64::from_bits(self.tail_u64(cref, self.tail_words()))
    }

    #[inline]
    fn set_clause_activity(&mut self, cref: ClauseRef, a: f64) {
        self.set_tail_u64(cref, self.tail_words(), a.to_bits());
    }

    /// Whether a clause of three or more literals is the reason of one of
    /// its literals. It can only be the reason of its first: the watch
    /// loop moves the implied literal there. (A binary clause's slots are
    /// not reordered, but no binary clause is ever deleted.)
    fn is_locked(&self, cref: ClauseRef) -> bool {
        debug_assert!(self.clause_len(cref) > 2);
        let first = Lit(self.arena[cref.at() + 1]);
        self.value(first) == LBool::True && self.reason[first.var().index()] == Some(cref)
    }

    /// Marks a clause of three or more literals deleted; its record stays
    /// behind until the next compaction, its watches until the watch loop
    /// meets them. The caller drops it from `learnt_refs`.
    fn delete_clause(&mut self, cref: ClauseRef) {
        let len = self.clause_len(cref);
        debug_assert!(len > 2, "the watch loop never reads a binary clause's header");
        self.arena[cref.at()] |= DELETED;
        self.dead_lits += len;
        self.stats.deleted_clauses += 1;
        let pid = self.pid(cref);
        if let Some(p) = &mut self.proof {
            p.log_delete(pid);
        }
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
        // Normalise in scratch: sort (the stored order, hence the choice of
        // watches, is part of the search trace), drop duplicate and false
        // literals, detect tautologies and satisfied clauses.
        let mut cl = std::mem::take(&mut self.add_tmp);
        cl.clear();
        cl.extend_from_slice(lits);
        cl.sort_unstable();
        cl.dedup();
        debug_assert!(cl.iter().all(|l| l.var().index() < self.num_vars()), "unknown var");
        // Sorted, `l` and `!l` are neighbours.
        let tautology = cl.windows(2).any(|w| w[0] == !w[1]);
        let satisfied = cl.iter().any(|&l| self.value(l) == LBool::True);
        let ok = if tautology || satisfied {
            true
        } else {
            cl.retain(|&l| self.value(l) == LBool::Undef);
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
                    self.attach_clause(&cl, false, pid);
                    true
                }
            }
        };
        self.add_tmp = cl;
        ok
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, pid: ClauseId) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        // The watch flags live above the offset.
        assert!(self.arena.len() < Watch::MAX_OFFSET, "clause arena full");
        let cref = ClauseRef(self.arena.len() as u32);
        let header = (lits.len() as u32) << LEN_SHIFT | if learnt { LEARNT } else { 0 };
        self.arena.push(header);
        self.arena.extend(lits.iter().map(|l| l.0));
        if self.proof.is_some() {
            self.arena.push(pid);
        }
        if learnt {
            self.arena.extend([0, 0]); // activity 0.0
        }
        self.lit_slots += lits.len();
        let binary = lits.len() == 2;
        self.watches[(!lits[0]).index()].push(Watch::new(cref, binary, lits[1]));
        self.watches[(!lits[1]).index()].push(Watch::new(cref, binary, lits[0]));
        if learnt {
            self.learnt_refs.push(cref);
            self.stats.learnt_clauses += 1;
        } else {
            self.stats.clauses += 1;
            self.stats.clause_lits += lits.len() as u64;
        }
        cref
    }

    #[inline]
    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(lit), LBool::Undef);
        let v = lit.var();
        self.vals[lit.index()] = LBool::True;
        self.vals[(!lit).index()] = LBool::False;
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
        let false_lit = !lit;
        let mut i = 0;
        let mut conflict = None;
        'watches: while i < watches.len() {
            let w = watches[i];
            let blocker_value = self.vals[w.blocker.index()];
            if blocker_value == LBool::True {
                i += 1;
                continue;
            }
            if w.tagged & Watch::BINARY != 0 {
                // The blocker is the rest of the clause: decided without
                // touching the arena.
                i += 1;
                let cref = w.cref();
                if blocker_value == LBool::False {
                    // Conflict analysis reads the literals from the arena.
                    self.arena[cref.at() + 1] = w.blocker.0;
                    self.arena[cref.at() + 2] = false_lit.0;
                    conflict = Some(cref);
                    break;
                }
                self.unchecked_enqueue(w.blocker, Some(cref));
                continue;
            }
            let cref = w.cref();
            let header = self.arena[cref.at()];
            if header & DELETED != 0 {
                watches.swap_remove(i);
                continue;
            }
            let first_at = cref.at() + 1;
            let lits = &mut self.arena[first_at..first_at + (header >> LEN_SHIFT) as usize];
            // Make sure the false literal is at position 1.
            if lits[0] == false_lit.0 {
                lits.swap(0, 1);
            }
            debug_assert_eq!(lits[1], false_lit.0);
            let first = Lit(lits[0]);
            let first_value = self.vals[first.index()];
            if first != w.blocker && first_value == LBool::True {
                watches[i].blocker = first;
                i += 1;
                continue;
            }
            // Look for a new literal to watch.
            for k in 2..lits.len() {
                let lk = Lit(lits[k]);
                if self.vals[lk.index()] != LBool::False {
                    lits.swap(1, k);
                    self.watches[(!lk).index()].push(Watch::new(cref, false, first));
                    watches.swap_remove(i);
                    continue 'watches;
                }
            }
            // Clause is unit or conflicting.
            watches[i].blocker = first;
            i += 1;
            if first_value == LBool::False {
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
        if self.arena[cref.at()] & LEARNT == 0 {
            return;
        }
        let activity = self.clause_activity(cref) + self.clause_inc;
        self.set_clause_activity(cref, activity);
        if activity > RESCALE_LIMIT {
            for i in 0..self.learnt_refs.len() {
                let r = self.learnt_refs[i];
                self.set_clause_activity(r, self.clause_activity(r) * 1e-100);
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
        let mut reason_lits: Vec<Lit> = self.clause_lits(confl).collect();

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
            if self.proof.is_some() {
                self.analyze_hints.push(self.pid(cref));
            }
            // Skip the asserting literal itself.
            reason_lits.clear();
            reason_lits.extend(self.clause_lits(cref).filter(|&q| q.var() != v));
        }
        learnt[0] = !p.expect("found UIP");

        // Conflict-clause minimisation: drop literals implied by the rest.
        // Dropping a literal resolves with its reason clause, so that
        // clause joins the derivation's proof hints too.
        let mut keep: Vec<bool> = Vec::with_capacity(learnt.len());
        for (i, &l) in learnt.iter().enumerate() {
            let redundant = i != 0 && self.redundant(l);
            if redundant && self.proof.is_some() {
                let cref = self.reason[l.var().index()].expect("redundant literals have a reason");
                self.analyze_hints.push(self.pid(cref));
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
            Some(cref) => self.clause_lits(cref).all(|q| {
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
            self.vals[lit.index()] = LBool::Undef;
            self.vals[(!lit).index()] = LBool::Undef;
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
            if self.value(Lit::pos(v)) == LBool::Undef {
                return Some(Lit::new(v, !self.polarity[v.index()]));
            }
        }
        None
    }

    /// Compacts once a third of a non-trivial arena's literal slots is
    /// dead, so very long incremental sessions stay memory-bounded.
    fn compact_if_sparse(&mut self) {
        if self.dead_lits * 3 >= self.lit_slots && self.lit_slots >= 1024 {
            self.compact_arena();
        }
    }

    fn reduce_db(&mut self) {
        let mut refs = std::mem::take(&mut self.learnt_refs);
        refs.sort_by(|&a, &b| {
            let (ca, cb) = (self.clause_activity(a), self.clause_activity(b));
            ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let limit = refs.len() / 2;
        for &r in &refs[..limit] {
            // Binary clauses are kept: they cost nothing to propagate.
            if self.clause_len(r) > 2 && !self.is_locked(r) {
                self.delete_clause(r);
            }
        }
        refs.retain(|&r| !self.is_deleted(r));
        self.learnt_refs = refs;
        self.compact_if_sparse();
    }

    /// Literal slots of the clause arena (live + dead; record headers and
    /// tails not counted). Exposed so callers (and the GC tests) can
    /// observe that compaction keeps long incremental sessions bounded.
    pub fn arena_len(&self) -> usize {
        self.lit_slots
    }

    /// MiniSat-style clause garbage collection: copies every live clause
    /// record into a fresh arena, drops deleted ones, and remaps watch
    /// lists, reason references and the learnt-clause index to the new
    /// offsets.
    ///
    /// Safe at any point of the search: records are copied verbatim and in
    /// arena order (watched literals stay at positions 0 and 1, watch
    /// lists keep their order), so the two-watched-literal invariant and
    /// the trail's reason clauses carry over unchanged. A clause that is
    /// the reason of an assigned literal is never deleted, so every
    /// reason survives.
    pub fn compact_arena(&mut self) {
        let mut old = std::mem::take(&mut self.arena);
        let mut arena: Vec<u32> = Vec::with_capacity(old.len().saturating_sub(self.dead_lits));
        let mut at = 0;
        while at < old.len() {
            let words = self.record_words(old[at]);
            if old[at] & DELETED == 0 {
                let moved_to = arena.len() as u32;
                arena.extend_from_slice(&old[at..at + words]);
                // Forwarding address, in the old record's first literal slot.
                old[at + 1] = moved_to;
            }
            at += words;
        }
        let forward = |cref: ClauseRef| -> Option<ClauseRef> {
            (old[cref.at()] & DELETED == 0).then(|| ClauseRef(old[cref.at() + 1]))
        };
        for list in &mut self.watches {
            list.retain_mut(|w| match forward(w.cref()) {
                Some(moved) => {
                    w.tagged = moved.0 | (w.tagged & Watch::BINARY);
                    true
                }
                None => false,
            });
        }
        for cref in self.reason.iter_mut().flatten() {
            *cref = forward(*cref).expect("a reason clause is locked and never deleted");
        }
        for r in &mut self.learnt_refs {
            *r = forward(*r).expect("deleted clauses leave the learnt index before compaction");
        }
        self.arena = arena;
        self.stats.reclaimed_lits += self.dead_lits as u64;
        self.lit_slots -= self.dead_lits;
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
                self.model.extend(self.vals.iter().step_by(2).map(|&a| a == LBool::True));
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
            self.clause_lits(confl).any(|l| self.level[l.var().index()] == self.decision_level()),
            "a propagation conflict involves the current decision level"
        );
        self.bump_clause(confl);
        if self.proof.is_some() {
            self.analyze_hints.clear();
            self.analyze_hints.push(self.pid(confl));
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
            let cref = self.attach_clause(&learnt, true, pid);
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
            if s.clause_len(*r) <= 2 || s.is_locked(*r) {
                continue;
            }
            s.arena[r.at()] |= DELETED;
            s.dead_lits += s.clause_len(*r);
        }
        let mut live = std::mem::take(&mut s.learnt_refs);
        live.retain(|r| !s.is_deleted(*r));
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

    // ---- decide-first seeds ---------------------------------------------

    /// The real decisions of the search the solver is sitting in (a `Sat`
    /// answer leaves the assignment in place), assumption levels skipped.
    fn decisions(s: &Solver, assumptions: usize) -> Vec<Lit> {
        s.trail_lim[assumptions..].iter().map(|&at| s.trail[at]).collect()
    }

    /// A fresh solver's first decisions are its decide-first seeds,
    /// heaviest first.
    #[test]
    fn fresh_solver_decides_its_seeds_heaviest_first() {
        let seeded = [7, 2, 9, 4];
        let mut s = Solver::new();
        let free = n_vars(&mut s, 12);
        let g = guarded_pigeonhole(&mut s, 6);
        for (rank, &i) in seeded.iter().enumerate() {
            s.decide_first(free[i], (rank + 1) as f64);
        }
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(g)]), SatResult::Sat);
        let heaviest_first: Vec<Lit> = seeded.iter().rev().map(|&i| Lit::neg(free[i])).collect();
        assert_eq!(decisions(&s, 1)[..seeded.len()], heaviest_first);
    }

    // ---- search-trace pin -------------------------------------------------

    /// `(decisions, propagations, conflicts, learnt_clauses,
    /// deleted_clauses, arena_compactions)` — the search trace as exact
    /// counters.
    fn trace(s: &Solver) -> [u64; 6] {
        let st = s.stats();
        [
            st.decisions,
            st.propagations,
            st.conflicts,
            st.learnt_clauses,
            st.deleted_clauses,
            st.arena_compactions,
        ]
    }

    /// The clause store, watch loop and `add_clause` may change
    /// representation, never behaviour: watch order, the literal order
    /// inside a clause, `swap_remove` positions, the compaction trigger
    /// and the compaction order are all part of the search trace. These
    /// numbers were recorded before the arena rewrite (ISSUE 21) and must
    /// not move — in debug and in release builds.
    #[test]
    fn search_trace_is_pinned() {
        // Plain CDCL: conflicts, restarts, learnt clauses of every length.
        let mut s = pigeonhole(7);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert_eq!(trace(&s), PINNED_PIGEONHOLE_7, "pigeonhole(7)");

        // Seeded random 3-CNF near the threshold, summed over the battery
        // (duplicate literals and tautologies exercise `add_clause`).
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut sum = [0u64; 6];
        let mut sat = 0;
        for _ in 0..40 {
            let nv = 70 + (next() % 41) as usize; // 70..=110 vars
            let nc = nv * 17 / 4;
            let mut s = Solver::new();
            let vs = n_vars(&mut s, nv);
            for _ in 0..nc {
                let cl: Vec<i32> = (0..3)
                    .map(|_| {
                        let var = (next() % nv as u32) as i32 + 1;
                        if next() % 2 == 0 {
                            var
                        } else {
                            -var
                        }
                    })
                    .collect();
                s.add_clause(&lits(&vs, &cl));
            }
            sat += (s.solve() == SatResult::Sat) as u32;
            for (acc, x) in sum.iter_mut().zip(trace(&s)) {
                *acc += x;
            }
        }
        assert_eq!((sat, sum), PINNED_RANDOM_3CNF, "random 3-CNF battery");

        // One solver, eight guarded pigeonholes, a tiny learnt budget:
        // `reduce_db`, lazy removal of deleted clauses' watches and
        // `compact_arena` all run mid-search.
        let mut s = Solver::new();
        s.set_max_learnts(30.0);
        let guards: Vec<Var> = (0..8).map(|_| guarded_pigeonhole(&mut s, 5)).collect();
        for (i, &g) in guards.iter().enumerate() {
            let mut assumptions = vec![Lit::pos(g)];
            assumptions.extend(guards.iter().take(i).map(|&h| Lit::neg(h)));
            assert_eq!(s.solve_with_assumptions(&assumptions), SatResult::Unsat);
        }
        for &g in &guards {
            assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
        }
        assert_eq!(trace(&s), PINNED_LOW_BUDGET_SESSION, "low-budget session");
    }

    const PINNED_PIGEONHOLE_7: [u64; 6] = [4167, 45020, 3496, 3488, 0, 0];
    const PINNED_RANDOM_3CNF: (u32, [u64; 6]) = (20, [8602, 155324, 6780, 6623, 0, 0]);
    const PINNED_LOW_BUDGET_SESSION: [u64; 6] = [4121, 26801, 2063, 2055, 2022, 15];

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

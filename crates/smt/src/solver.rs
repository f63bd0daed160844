//! The user-facing solver context.
//!
//! [`Context`] owns a [`TermPool`] and a list of assertions; [`Context::check`]
//! lowers everything to CNF, runs the CDCL search and, on SAT, stores a
//! [`Model`] that can be queried for any term.
//!
//! The context is **incremental**: the CDCL solver and the Tseitin/bit-blast
//! caches live as long as the context. Each check lowers
//! only the assertions added since the previous one, and
//! [`Context::check_assuming`] decides satisfiability under a set of
//! assumption literals without committing them — the idiom behind the VMN
//! verifier's per-failure-scenario activation literals, where thousands of
//! closely-related queries share one learnt-clause database.

use crate::blast::{BlastCaches, Blaster};
use crate::model::{Model, Value};
use crate::sat::{Lit, SatResult as CoreResult, Solver, SolverStats};
use crate::sorts::Sort;
use crate::term::{TermId, TermPool};

/// Outcome of a [`Context::check`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment exists; retrieve it with [`Context::model`].
    Sat,
    /// No satisfying assignment exists.
    Unsat,
}

/// An SMT solving context: terms, assertions and check/model state.
pub struct Context {
    pool: TermPool,
    assertions: Vec<TermId>,
    model: Option<Model>,
    stats: SolverStats,
    /// Work done by the most recent check alone (stats delta around the
    /// solve call) — per-check attribution on the cumulative core.
    last_check: SolverStats,
    /// Persistent CDCL core; learnt clauses, activities and phases carry
    /// over between checks.
    sat: Solver,
    /// Tseitin/bit-blast caches from previous checks (`None` before the
    /// first check).
    caches: Option<BlastCaches>,
    /// Number of assertions already lowered into the solver.
    lowered_upto: usize,
    /// Decide-first marks not yet handed to the core (see
    /// [`Context::decide_first`]); drained by the next check.
    decide_first: Vec<(TermId, f64)>,
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

impl Context {
    pub fn new() -> Context {
        Context {
            pool: TermPool::new(),
            assertions: Vec::new(),
            model: None,
            stats: SolverStats::default(),
            last_check: SolverStats::default(),
            sat: Solver::new(),
            caches: None,
            lowered_upto: 0,
            decide_first: Vec::new(),
        }
    }

    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// Solver statistics, cumulative over every check this context ran
    /// (the CDCL core is persistent). Snapshot it before a check and use
    /// [`SolverStats::delta_since`] — or read [`Context::last_check_stats`]
    /// — to attribute work to individual checks.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Turns on DRAT-style proof logging in the CDCL core (see
    /// [`crate::sat::ProofLog`]). Must be called before the first check
    /// (the core must not have lowered any clause yet); idempotent. Every
    /// subsequent [`Context::check`]/[`Context::check_assuming`] records a
    /// certificate check against the session's proof log.
    pub fn enable_proofs(&mut self) {
        self.sat.enable_proof();
    }

    /// Exports this session's proof for the trusted checker: the step
    /// log and a check record per check taken on this context.
    pub fn proof_session(&self) -> Option<vmn_check::SessionProof> {
        self.sat.proof_session()
    }

    /// Work done by the most recent [`Context::check`] /
    /// [`Context::check_assuming`] alone (a delta over the cumulative
    /// [`Context::stats`]), so callers sharing one long-lived context
    /// across many queries can attribute cost per check.
    pub fn last_check_stats(&self) -> SolverStats {
        self.last_check
    }

    // ---- term construction conveniences (delegate to the pool) ----------

    pub fn tru(&self) -> TermId {
        self.pool.tru()
    }

    pub fn fls(&self) -> TermId {
        self.pool.fls()
    }

    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.pool.bool_const(b)
    }

    pub fn bv_const(&mut self, value: u64, width: u32) -> TermId {
        self.pool.bv_const(value, width)
    }

    /// Fresh uninterpreted constant (named variable) of any sort.
    pub fn fresh_const(&mut self, name: impl Into<String>, sort: Sort) -> TermId {
        self.pool.var(name, sort)
    }

    pub fn not(&mut self, a: TermId) -> TermId {
        self.pool.not(a)
    }

    pub fn and(&mut self, args: &[TermId]) -> TermId {
        self.pool.and(args)
    }

    pub fn or(&mut self, args: &[TermId]) -> TermId {
        self.pool.or(args)
    }

    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.implies(a, b)
    }

    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.iff(a, b)
    }

    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.eq(a, b)
    }

    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        self.pool.ite(c, t, e)
    }

    pub fn bv_ule(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.bv_ule(a, b)
    }

    pub fn bv_extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        self.pool.bv_extract(a, hi, lo)
    }

    pub fn bv_prefix_match(&mut self, a: TermId, value: u64, prefix_len: u32) -> TermId {
        self.pool.bv_prefix_match(a, value, prefix_len)
    }

    // ---- solving ---------------------------------------------------------

    /// Adds an assertion to the context.
    pub fn assert(&mut self, t: TermId) {
        assert!(self.pool.sort(t).is_bool(), "assertions must be boolean");
        self.assertions.push(t);
    }

    /// Marks `t` — a boolean or bit-vector term — as one the search should
    /// branch on early: the next check resolves it to its literal (or
    /// bits) and seeds those variables' activity with `weight` in the CDCL
    /// core ([`Solver::decide_first`]), so a cold search decides marked
    /// terms before unmarked ones, heavier before lighter. This changes
    /// the order the search visits assignments in, never the verdict, the
    /// models admitted or the proof log; the encoder uses it to name the
    /// variables that *are* the schedule of its bounded trace.
    pub fn decide_first(&mut self, t: TermId, weight: f64) {
        self.decide_first.push((t, weight));
    }

    pub fn num_assertions(&self) -> usize {
        self.assertions.len()
    }

    /// Every assertion made so far, in order.
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// Decides satisfiability of the conjunction of all assertions.
    ///
    /// Incremental: only assertions added since the previous check are
    /// lowered, and the solver keeps everything it learnt. On `Sat`, the
    /// model is available via [`Context::model`].
    pub fn check(&mut self) -> SatResult {
        self.check_assuming(&[])
    }

    /// Decides satisfiability of all assertions **plus** the given
    /// assumption terms, without committing the assumptions.
    ///
    /// Assumptions must be boolean terms; they are lowered to literals and
    /// handed to the CDCL core as pseudo-decisions, so an `Unsat` answer
    /// means "unsatisfiable under these assumptions" and the context stays
    /// fully reusable — clauses learnt while refuting one assumption set
    /// accelerate the next. This is the engine behind the VMN verifier's
    /// failure-scenario sweeps: one activation literal per scenario,
    /// one `check_assuming` call per scenario, zero re-encoding.
    pub fn check_assuming(&mut self, assumptions: &[TermId]) -> SatResult {
        self.model = None;
        let stats_before = self.sat.stats();
        // Rewind to the base level: drops the previous call's assignment
        // so that clause additions are legal.
        self.sat.backtrack_to_base();

        let mut blaster = match self.caches.take() {
            Some(c) => Blaster::resume(&self.pool, &mut self.sat, c),
            None => Blaster::new(&self.pool, &mut self.sat),
        };
        // Lower the assertions added since the previous check.
        for &t in &self.assertions[self.lowered_upto..] {
            blaster.assert_true(t);
        }
        self.lowered_upto = self.assertions.len();
        // After the assertions, so a mark allocates no variable the
        // formula would not have allocated itself.
        for (t, weight) in self.decide_first.drain(..) {
            blaster.decide_first(t, weight);
        }
        let assumption_lits: Vec<Lit> = assumptions
            .iter()
            .map(|&t| {
                assert!(self.pool.sort(t).is_bool(), "assumptions must be boolean");
                blaster.lit_of(t)
            })
            .collect();
        let caches = blaster.into_caches();

        let result = self.sat.solve_with_assumptions(&assumption_lits);
        self.stats = self.sat.stats();
        self.last_check = self.stats.delta_since(&stats_before);
        let out = match result {
            CoreResult::Unsat => SatResult::Unsat,
            CoreResult::Sat => {
                // Harvest values for every term the encoder saw, then drop
                // the search assignment so the next call starts clean.
                let bools = caches.bool_values(&self.sat).map(|(t, b)| (t, Value::Bool(b)));
                let bvs = caches.bv_values(&self.pool, &self.sat).map(|(t, v)| (t, Value::Bv(v)));
                self.model = Some(bools.chain(bvs).collect());
                self.sat.backtrack_to_base();
                SatResult::Sat
            }
        };
        self.caches = Some(caches);
        out
    }

    /// The model from the last `check`, if it returned [`SatResult::Sat`].
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }

    /// Evaluates `t` in the current model. Panics without a model.
    pub fn eval(&mut self, t: TermId) -> Value {
        let model = self.model.as_mut().expect("no model: call check() first");
        model.eval(&self.pool, t)
    }

    pub fn eval_bool(&mut self, t: TermId) -> bool {
        self.eval(t).as_bool().expect("expected boolean term")
    }

    pub fn eval_bv(&mut self, t: TermId) -> u64 {
        self.eval(t).as_bv().expect("expected bit-vector term")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_roundtrip_bv() {
        let mut ctx = Context::new();
        let x = ctx.fresh_const("x", Sort::bitvec(16));
        let c = ctx.bv_const(0xBEE, 16);
        let eq = ctx.eq(x, c);
        ctx.assert(eq);
        assert_eq!(ctx.check(), SatResult::Sat);
        assert_eq!(ctx.eval_bv(x), 0xBEE);
    }

    #[test]
    fn reuse_context_for_multiple_checks() {
        let mut ctx = Context::new();
        let x = ctx.fresh_const("x", Sort::Bool);
        ctx.assert(x);
        assert_eq!(ctx.check(), SatResult::Sat);
        let nx = ctx.not(x);
        ctx.assert(nx);
        assert_eq!(ctx.check(), SatResult::Unsat);
    }

    #[test]
    fn check_assuming_is_non_committal() {
        let mut ctx = Context::new();
        let g1 = ctx.fresh_const("g1", Sort::Bool);
        let g2 = ctx.fresh_const("g2", Sort::Bool);
        let x = ctx.fresh_const("x", Sort::bitvec(8));
        let five = ctx.bv_const(5, 8);
        let nine = ctx.bv_const(9, 8);
        let eq5 = ctx.eq(x, five);
        let eq9 = ctx.eq(x, nine);
        let r1 = ctx.implies(g1, eq5);
        let r2 = ctx.implies(g2, eq9);
        ctx.assert(r1);
        ctx.assert(r2);
        let ng1 = ctx.not(g1);
        let ng2 = ctx.not(g2);
        // Scenario 1: x = 5.
        assert_eq!(ctx.check_assuming(&[g1, ng2]), SatResult::Sat);
        assert_eq!(ctx.eval_bv(x), 5);
        // Scenario 2: x = 9 — the previous assumptions left no residue.
        assert_eq!(ctx.check_assuming(&[g2, ng1]), SatResult::Sat);
        assert_eq!(ctx.eval_bv(x), 9);
        // Both at once: contradictory, but only under these assumptions.
        assert_eq!(ctx.check_assuming(&[g1, g2]), SatResult::Unsat);
        assert_eq!(ctx.check(), SatResult::Sat, "context survives assumption UNSAT");
    }

    #[test]
    fn assertions_between_assumption_checks() {
        let mut ctx = Context::new();
        let x = ctx.fresh_const("x", Sort::bitvec(4));
        let g = ctx.fresh_const("g", Sort::Bool);
        let three = ctx.bv_const(3, 4);
        let le = ctx.bv_ule(x, three);
        let guarded = ctx.implies(g, le);
        ctx.assert(guarded);
        assert_eq!(ctx.check_assuming(&[g]), SatResult::Sat);
        assert!(ctx.eval_bv(x) <= 3);
        // New permanent assertion after a check: x >= 12.
        let twelve = ctx.bv_const(12, 4);
        let ge = ctx.bv_ule(twelve, x);
        ctx.assert(ge);
        assert_eq!(ctx.check_assuming(&[g]), SatResult::Unsat);
        let ng = ctx.not(g);
        assert_eq!(ctx.check_assuming(&[ng]), SatResult::Sat);
        assert!(ctx.eval_bv(x) >= 12);
        assert_eq!(ctx.check(), SatResult::Sat);
    }

    #[test]
    fn per_check_stats_deltas() {
        let mut ctx = Context::new();
        let x = ctx.fresh_const("x", Sort::bitvec(8));
        let y = ctx.fresh_const("y", Sort::bitvec(8));
        let e = ctx.eq(x, y);
        ctx.assert(e);
        assert_eq!(ctx.check(), SatResult::Sat);
        let first = ctx.last_check_stats();
        let cumulative = ctx.stats();
        assert!(first.propagations > 0 || first.decisions > 0, "first check does real work");
        let ne = {
            let eq = ctx.eq(x, y);
            ctx.not(eq)
        };
        ctx.assert(ne);
        assert_eq!(ctx.check(), SatResult::Unsat);
        let second = ctx.last_check_stats();
        let total = ctx.stats();
        // The deltas partition the cumulative counters.
        assert_eq!(first.decisions + second.decisions, total.decisions);
        assert_eq!(first.conflicts + second.conflicts, total.conflicts);
        assert_eq!(total.delta_since(&cumulative).decisions, second.decisions);
    }

    #[test]
    fn prefix_match_semantics() {
        let mut ctx = Context::new();
        let addr = ctx.fresh_const("addr", Sort::bitvec(32));
        let in_subnet = ctx.bv_prefix_match(addr, 0x0A00_0000, 8); // 10/8
        let outside = ctx.bv_const(0x0B00_0001, 32); // 11.0.0.1 — outside 10/8
        let is_target = ctx.eq(addr, outside);
        ctx.assert(in_subnet);
        ctx.assert(is_target);
        assert_eq!(ctx.check(), SatResult::Unsat);
    }
}

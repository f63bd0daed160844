//! Lowering of terms to CNF: Tseitin transformation for the boolean
//! skeleton and bit-blasting for bit-vector operations.
//!
//! Bit-vectors are represented LSB-first as runs of SAT literals in one
//! shared bit store. All encodings are cached per term, so the structural
//! sharing created by the hash-consed [`TermPool`] carries over to the CNF.
//!
//! # The lowering rule
//!
//! **A term that receives a literal is defined on both sides.**
//! [`Blaster::lit_of`] gives a boolean term a literal `o` together with
//! the clauses of `o ↔ definition` — an AND gate, a four-clause XNOR per
//! compared bit pair, a mux per bit of an `ite`, a comparator chain —
//! whatever polarity the term occurs in. Its value in any model is
//! therefore the value of its definition, which is what lets the caller
//! read `fired`, `present` and every other term it holds a handle to
//! straight out of the model. (This is Tseitin, not Plaisted–Greenbaum:
//! no gate is lowered one-sidedly because of its polarity.)
//!
//! **An asserted term is lowered by guard pushing.**
//! [`Blaster::assert_true`] never needs the asserted term's value, only
//! its truth, so it descends the term's *positive* structure with the
//! negated guards met so far as a clause prefix `P`:
//!
//! | asserted under `P` | becomes |
//! |---|---|
//! | `x₁ ∧ … ∧ xₙ` | each `xᵢ` under `P` |
//! | `g ⇒ t` | `t` under `P ∨ ¬lit(g)` |
//! | `x₁ ∨ … ∨ xₙ` | the clause `P ∨ lit(x₁) ∨ … ∨ lit(xₙ)` |
//! | `a ↔ b`, bit-vector `a = b` | per bit pair `(x, y)`: `P ∨ ¬x ∨ y` and `P ∨ x ∨ ¬y` — one clause when a side is constant, none when `x` is `y`, the bare `P` when `x` is `¬y` |
//! | `¬t`, anything else | the clause `P ∨ lit(t)` |
//!
//! The encoder asserts nearly everything as `cond ⇒ (field = field ∧ …)`;
//! pushed, such an assertion is two ternary clauses per bit and allocates
//! nothing, where the gate form costs an XNOR output per bit, an AND
//! output over them, and a search that must decide and propagate those
//! whether or not `cond` holds. Operands keep their full definitions
//! (`lit(g)`, the bits of an `ite`, every disjunct of an `∨`), so the
//! clause set is equivalent to the Tseitin one on every term that has a
//! literal: same models over those terms, same verdicts. The asserted
//! equality itself has no literal; [`crate::model::Model::eval`]
//! evaluates such a term from its operands' values.

use crate::sat::{Lit, Solver};
use crate::term::{Term, TermId, TermPool};
use std::ops::Range;

/// Translates terms into clauses inside a [`Solver`].
pub struct Blaster<'a> {
    pool: &'a TermPool,
    solver: &'a mut Solver,
    caches: BlastCaches,
}

impl<'a> Blaster<'a> {
    pub fn new(pool: &'a TermPool, solver: &'a mut Solver) -> Blaster<'a> {
        let true_lit = Lit::pos(solver.new_var());
        solver.add_clause(&[true_lit]);
        let caches = BlastCaches {
            bool_lits: Vec::new(),
            bv_starts: Vec::new(),
            bits: Vec::new(),
            true_lit,
        };
        Blaster { pool, solver, caches }
    }

    /// Reopens a blasting session over caches produced by an earlier
    /// session (see [`Blaster::into_caches`]). Terms already lowered keep
    /// their literals, so incremental solving re-encodes nothing.
    pub fn resume(pool: &'a TermPool, solver: &'a mut Solver, caches: BlastCaches) -> Blaster<'a> {
        Blaster { pool, solver, caches }
    }

    pub fn true_lit(&self) -> Lit {
        self.caches.true_lit
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.caches.true_lit
        } else {
            !self.caches.true_lit
        }
    }

    fn is_const(&self, l: Lit) -> Option<bool> {
        if l == self.caches.true_lit {
            Some(true)
        } else if l == !self.caches.true_lit {
            Some(false)
        } else {
            None
        }
    }

    // ---- gate helpers ---------------------------------------------------

    /// Literal equivalent to the conjunction of `xs`.
    fn and_lits(&mut self, xs: &[Lit]) -> Lit {
        let mut ins = Vec::with_capacity(xs.len());
        for &x in xs {
            match self.is_const(x) {
                Some(true) => {}
                Some(false) => return self.const_lit(false),
                None => ins.push(x),
            }
        }
        ins.sort();
        ins.dedup();
        match ins.len() {
            0 => self.const_lit(true),
            1 => ins[0],
            _ => {
                let o = self.fresh();
                let mut last = vec![o];
                for &x in &ins {
                    self.solver.add_clause(&[!o, x]);
                    last.push(!x);
                }
                self.solver.add_clause(&last);
                o
            }
        }
    }

    /// Literal equivalent to the disjunction of `xs`.
    fn or_lits(&mut self, xs: &[Lit]) -> Lit {
        let neg: Vec<Lit> = xs.iter().map(|&x| !x).collect();
        let a = self.and_lits(&neg);
        !a
    }

    /// Literal equivalent to `a ↔ b`.
    fn iff_lit(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return self.const_lit(true);
        }
        if a == !b {
            return self.const_lit(false);
        }
        if let Some(ca) = self.is_const(a) {
            return if ca { b } else { !b };
        }
        if let Some(cb) = self.is_const(b) {
            return if cb { a } else { !a };
        }
        let o = self.fresh();
        self.solver.add_clause(&[!o, !a, b]);
        self.solver.add_clause(&[!o, a, !b]);
        self.solver.add_clause(&[o, a, b]);
        self.solver.add_clause(&[o, !a, !b]);
        o
    }

    /// Literal equivalent to `cond ? t : e`.
    fn mux_lit(&mut self, cond: Lit, t: Lit, e: Lit) -> Lit {
        if t == e {
            return t;
        }
        if let Some(c) = self.is_const(cond) {
            return if c { t } else { e };
        }
        let o = self.fresh();
        self.solver.add_clause(&[!cond, !t, o]);
        self.solver.add_clause(&[!cond, t, !o]);
        self.solver.add_clause(&[cond, !e, o]);
        self.solver.add_clause(&[cond, e, !o]);
        o
    }

    // ---- term lowering ---------------------------------------------------

    /// Literal for a boolean term.
    pub fn lit_of(&mut self, t: TermId) -> Lit {
        debug_assert!(self.pool.sort(t).is_bool(), "lit_of on non-boolean term");
        if let Some(&Some(l)) = self.caches.bool_lits.get(t.index()) {
            return l;
        }
        let pool = self.pool;
        let lit = match pool.term(t) {
            &Term::Bool(b) => self.const_lit(b),
            Term::Var { .. } => self.fresh(),
            &Term::Not(a) => {
                let la = self.lit_of(a);
                !la
            }
            Term::And(xs) => {
                let ls: Vec<Lit> = xs.iter().map(|&x| self.lit_of(x)).collect();
                self.and_lits(&ls)
            }
            Term::Or(xs) => {
                let ls: Vec<Lit> = xs.iter().map(|&x| self.lit_of(x)).collect();
                self.or_lits(&ls)
            }
            &Term::Iff(a, b) => {
                let la = self.lit_of(a);
                let lb = self.lit_of(b);
                self.iff_lit(la, lb)
            }
            &Term::Implies(a, b) => {
                let la = self.lit_of(a);
                let lb = self.lit_of(b);
                self.or_lits(&[!la, lb])
            }
            // Bit-vector operands only: the pool lowers boolean Eq to Iff.
            &Term::Eq(a, b) => {
                let ba = self.bits_range(a);
                let bb = self.bits_range(b);
                let eqs: Vec<Lit> = ba
                    .zip(bb)
                    .map(|(x, y)| self.iff_lit(self.caches.bits[x], self.caches.bits[y]))
                    .collect();
                self.and_lits(&eqs)
            }
            &Term::Ite { cond, then, els } => {
                // The pool encodes boolean ITE with implications, but keep a
                // direct mux in case callers construct one explicitly.
                let c = self.lit_of(cond);
                let lt = self.lit_of(then);
                let le = self.lit_of(els);
                self.mux_lit(c, lt, le)
            }
            &Term::BvUle(a, b) => {
                let ba = self.bits_range(a);
                let bb = self.bits_range(b);
                // LSB-to-MSB chain: le_i = (¬a_i ∧ b_i) ∨ ((a_i ↔ b_i) ∧ le_{i-1}).
                let mut le = self.const_lit(true);
                for (x, y) in ba.zip(bb) {
                    let (ai, bi) = (self.caches.bits[x], self.caches.bits[y]);
                    let strict = self.and_lits(&[!ai, bi]);
                    let same = self.iff_lit(ai, bi);
                    let carry = self.and_lits(&[same, le]);
                    le = self.or_lits(&[strict, carry]);
                }
                le
            }
            Term::BvExtract { .. } => unreachable!("extract has bit-vector sort"),
            Term::BvConst { .. } => unreachable!("constant has bit-vector sort"),
        };
        set(&mut self.caches.bool_lits, t, lit);
        lit
    }

    /// Bit literals (LSB-first) for a bit-vector term.
    pub fn bits_of(&mut self, t: TermId) -> &[Lit] {
        let range = self.bits_range(t);
        &self.caches.bits[range]
    }

    /// Where `t`'s bit literals sit in the shared bit store. An extract is
    /// a sub-range of its argument's bits; everything else appends its own.
    fn bits_range(&mut self, t: TermId) -> Range<usize> {
        let width = self.pool.sort(t).bv_width().expect("bits_of on non-bit-vector term") as usize;
        if let Some(&Some(start)) = self.caches.bv_starts.get(t.index()) {
            return start as usize..start as usize + width;
        }
        let pool = self.pool;
        let start = match pool.term(t) {
            &Term::BvConst { value, .. } => {
                let start = self.caches.bits.len();
                for i in 0..width {
                    let bit = self.const_lit((value >> i) & 1 == 1);
                    self.caches.bits.push(bit);
                }
                start
            }
            Term::Var { .. } => {
                let start = self.caches.bits.len();
                for _ in 0..width {
                    let bit = self.fresh();
                    self.caches.bits.push(bit);
                }
                start
            }
            &Term::Ite { cond, then, els } => {
                let c = self.lit_of(cond);
                let bt = self.bits_range(then);
                let be = self.bits_range(els);
                // The operands are lowered: nothing below appends but this loop.
                let start = self.caches.bits.len();
                for (x, y) in bt.zip(be) {
                    let bit = self.mux_lit(c, self.caches.bits[x], self.caches.bits[y]);
                    self.caches.bits.push(bit);
                }
                start
            }
            &Term::BvExtract { arg, lo, .. } => self.bits_range(arg).start + lo as usize,
            other => panic!("term {other:?} cannot be bit-blasted"),
        };
        set(&mut self.caches.bv_starts, t, u32::try_from(start).expect("bit store overflow"));
        start..start + width
    }

    /// Asserts a boolean term at the top level by *guard pushing* (module
    /// docs): the term's positive structure becomes clauses directly, and
    /// only what is left receives a literal.
    pub fn assert_true(&mut self, t: TermId) {
        self.assert_under(&mut Vec::new(), t);
    }

    /// Asserts `prefix ∨ t`, where `prefix` is the negated guards met on
    /// the way down. Leaves `prefix` as it found it.
    fn assert_under(&mut self, prefix: &mut Vec<Lit>, t: TermId) {
        let pool = self.pool;
        let guards = prefix.len();
        match pool.term(t) {
            Term::Bool(true) => return,
            Term::Bool(false) => {}
            Term::And(xs) => {
                for &x in xs {
                    self.assert_under(prefix, x);
                }
                return;
            }
            &Term::Implies(a, b) => {
                let la = self.lit_of(a);
                prefix.push(!la);
                self.assert_under(prefix, b);
                prefix.pop();
                return;
            }
            Term::Or(xs) => {
                for &x in xs {
                    let l = self.lit_of(x);
                    prefix.push(l);
                }
            }
            &Term::Iff(a, b) => {
                let (la, lb) = (self.lit_of(a), self.lit_of(b));
                self.equate_under(prefix, la, lb);
                return;
            }
            // Bit-vector operands only: the pool lowers boolean Eq to Iff.
            &Term::Eq(a, b) => {
                let (ba, bb) = (self.bits_range(a), self.bits_range(b));
                for (x, y) in ba.zip(bb) {
                    self.equate_under(prefix, self.caches.bits[x], self.caches.bits[y]);
                }
                return;
            }
            &Term::Not(inner) => {
                let l = self.lit_of(inner);
                prefix.push(!l);
            }
            _ => {
                let l = self.lit_of(t);
                prefix.push(l);
            }
        }
        self.solver.add_clause(prefix);
        prefix.truncate(guards);
    }

    /// Asserts `prefix ∨ (a ↔ b)` as clauses: two in general, one when a
    /// side is constant, none when the sides are the same literal, the
    /// bare prefix when they are complementary.
    fn equate_under(&mut self, prefix: &mut Vec<Lit>, a: Lit, b: Lit) {
        if a == b {
            return;
        }
        let guards = prefix.len();
        if a == !b {
            self.solver.add_clause(prefix);
        } else if let Some(ca) = self.is_const(a) {
            prefix.push(if ca { b } else { !b });
            self.solver.add_clause(prefix);
        } else if let Some(cb) = self.is_const(b) {
            prefix.push(if cb { a } else { !a });
            self.solver.add_clause(prefix);
        } else {
            prefix.extend([!a, b]);
            self.solver.add_clause(prefix);
            prefix.truncate(guards);
            prefix.extend([a, !b]);
            self.solver.add_clause(prefix);
        }
        prefix.truncate(guards);
    }

    /// Seeds the decision order with the variables of `t`'s literal (a
    /// boolean term) or bits (a bit-vector term), lowering `t` if need be.
    pub fn decide_first(&mut self, t: TermId, weight: f64) {
        if self.pool.sort(t).is_bool() {
            let l = self.lit_of(t);
            self.solver.decide_first(l.var(), weight);
        } else {
            for i in self.bits_range(t) {
                self.solver.decide_first(self.caches.bits[i].var(), weight);
            }
        }
    }

    /// Consumes the blaster, releasing its borrows and returning the
    /// encoding caches for model extraction and later resumption
    /// ([`Blaster::resume`]).
    pub fn into_caches(self) -> BlastCaches {
        self.caches
    }
}

/// Records `x` as the entry of term `t` in a `TermId`-indexed table.
fn set<T: Clone>(table: &mut Vec<Option<T>>, t: TermId, x: T) {
    if table.len() <= t.index() {
        table.resize(t.index() + 1, None);
    }
    table[t.index()] = Some(x);
}

/// Term-to-literal tables produced by a [`Blaster`], used to read a model
/// back out of the SAT solver after solving and to resume encoding in a
/// later incremental session. Indexed by [`TermId`]: terms are numbered
/// densely by the pool, so a lookup is one load and iteration is in term
/// order.
pub struct BlastCaches {
    /// Literal of each boolean term that received one.
    bool_lits: Vec<Option<Lit>>,
    /// Start of each lowered bit-vector term's bits in `bits` (its width
    /// is its sort's).
    bv_starts: Vec<Option<u32>>,
    /// Bit literals, LSB-first, of every lowered bit-vector term.
    bits: Vec<Lit>,
    true_lit: Lit,
}

impl BlastCaches {
    /// Every boolean term that received a literal, with its truth value
    /// under the solver's model.
    pub(crate) fn bool_values<'s>(
        &'s self,
        solver: &'s Solver,
    ) -> impl Iterator<Item = (TermId, bool)> + 's {
        self.bool_lits.iter().enumerate().filter_map(move |(i, l)| {
            l.map(|l| (TermId(i as u32), solver.model_value(l.var()) ^ l.is_neg()))
        })
    }

    /// Every bit-vector term that was lowered, with its value under the
    /// solver's model.
    pub(crate) fn bv_values<'s>(
        &'s self,
        pool: &'s TermPool,
        solver: &'s Solver,
    ) -> impl Iterator<Item = (TermId, u64)> + 's {
        self.bv_starts.iter().enumerate().filter_map(move |(i, start)| {
            let t = TermId(i as u32);
            let start = (*start)? as usize;
            let width = pool.sort(t).bv_width().expect("bit-vector term") as usize;
            let value =
                self.bits[start..start + width].iter().enumerate().fold(0u64, |acc, (i, &l)| {
                    let bit = solver.model_value(l.var()) ^ l.is_neg();
                    acc | ((bit as u64) << i)
                });
            Some((t, value))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;
    use crate::sorts::Sort;

    fn setup() -> (TermPool, Solver) {
        (TermPool::new(), Solver::new())
    }

    #[test]
    fn bv_equality_sat_assigns_equal_values() {
        let (mut pool, mut solver) = setup();
        let x = pool.var("x", Sort::bitvec(8));
        let y = pool.var("y", Sort::bitvec(8));
        let eq = pool.eq(x, y);
        let mut b = Blaster::new(&pool, &mut solver);
        b.assert_true(eq);
        let (bx, by) = (b.bits_of(x).to_vec(), b.bits_of(y).to_vec());
        assert_eq!(solver.solve(), SatResult::Sat);
        let val = |bits: &[Lit], s: &Solver| {
            bits.iter().enumerate().fold(0u64, |acc, (i, &l)| {
                let v = s.model_value(l.var()) ^ l.is_neg();
                acc | ((v as u64) << i)
            })
        };
        assert_eq!(val(&bx, &solver), val(&by, &solver));
    }

    #[test]
    fn bv_disequality_with_constant() {
        let (mut pool, mut solver) = setup();
        let x = pool.var("x", Sort::bitvec(4));
        let c = pool.bv_const(9, 4);
        let eq = pool.eq(x, c);
        let ne = pool.not(eq);
        let mut b = Blaster::new(&pool, &mut solver);
        b.assert_true(ne);
        let bx = b.bits_of(x).to_vec();
        assert_eq!(solver.solve(), SatResult::Sat);
        let got = bx.iter().enumerate().fold(0u64, |acc, (i, &l)| {
            acc | (((solver.model_value(l.var()) ^ l.is_neg()) as u64) << i)
        });
        assert_ne!(got, 9);
    }

    #[test]
    fn ule_total_order_conflict() {
        // x <= 3 and x >= 12 on 4 bits: UNSAT.
        let (mut pool, mut solver) = setup();
        let x = pool.var("x", Sort::bitvec(4));
        let three = pool.bv_const(3, 4);
        let twelve = pool.bv_const(12, 4);
        let a = pool.bv_ule(x, three);
        let b2 = pool.bv_ule(twelve, x);
        let mut b = Blaster::new(&pool, &mut solver);
        b.assert_true(a);
        b.assert_true(b2);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn ule_range_sat() {
        let (mut pool, mut solver) = setup();
        let x = pool.var("x", Sort::bitvec(6));
        let lo = pool.bv_const(10, 6);
        let hi = pool.bv_const(12, 6);
        let a = pool.bv_ule(lo, x);
        let b2 = pool.bv_ule(x, hi);
        let mut b = Blaster::new(&pool, &mut solver);
        b.assert_true(a);
        b.assert_true(b2);
        let bx = b.bits_of(x).to_vec();
        assert_eq!(solver.solve(), SatResult::Sat);
        let got = bx.iter().enumerate().fold(0u64, |acc, (i, &l)| {
            acc | (((solver.model_value(l.var()) ^ l.is_neg()) as u64) << i)
        });
        assert!((10..=12).contains(&got), "x = {got}");
    }

    #[test]
    fn extract_links_fields() {
        // Top nibble of x must equal 0xA while x = 0xA5 is consistent.
        let (mut pool, mut solver) = setup();
        let x = pool.var("x", Sort::bitvec(8));
        let hi = pool.bv_extract(x, 7, 4);
        let a_const = pool.bv_const(0xA, 4);
        let full = pool.bv_const(0xA5, 8);
        let c1 = pool.eq(hi, a_const);
        let c2 = pool.eq(x, full);
        let mut b = Blaster::new(&pool, &mut solver);
        b.assert_true(c1);
        b.assert_true(c2);
        assert_eq!(solver.solve(), SatResult::Sat);
    }

    #[test]
    fn extract_conflicts_with_mismatched_constant() {
        let (mut pool, mut solver) = setup();
        let x = pool.var("x", Sort::bitvec(8));
        let hi = pool.bv_extract(x, 7, 4);
        let b_const = pool.bv_const(0xB, 4);
        let full = pool.bv_const(0xA5, 8);
        let c1 = pool.eq(hi, b_const);
        let c2 = pool.eq(x, full);
        let mut b = Blaster::new(&pool, &mut solver);
        b.assert_true(c1);
        b.assert_true(c2);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn bv_ite_selects_branch() {
        let (mut pool, mut solver) = setup();
        let c = pool.var("c", Sort::Bool);
        let a = pool.bv_const(1, 4);
        let b2 = pool.bv_const(2, 4);
        let ite = pool.ite(c, a, b2);
        let two = pool.bv_const(2, 4);
        let eq = pool.eq(ite, two);
        let mut b = Blaster::new(&pool, &mut solver);
        b.assert_true(eq);
        let cl = b.lit_of(c);
        assert_eq!(solver.solve(), SatResult::Sat);
        let cval = solver.model_value(cl.var()) ^ cl.is_neg();
        assert!(!cval, "condition must be false to select 2");
    }

    // ---- guard pushing ---------------------------------------------------

    use crate::model::{Model, Value};

    /// The term-level variables of the shape tests: twelve bits in all.
    struct Shapes {
        pool: TermPool,
        bools: Vec<TermId>,
        bvs: Vec<TermId>,
    }

    const BV_W: u32 = 3;

    fn shapes() -> Shapes {
        let mut pool = TermPool::new();
        let bools = ["g", "h", "c", "p", "q", "r"].map(|n| pool.var(n, Sort::Bool)).to_vec();
        let bvs = ["a", "b"].map(|n| pool.var(n, Sort::bitvec(BV_W))).to_vec();
        Shapes { pool, bools, bvs }
    }

    /// Lowers `root` — guard-pushed through `assert_true`, or as the unit
    /// clause of its Tseitin literal — and returns which of the 2¹²
    /// assignments to the term-level variables the CNF admits, with the
    /// number of SAT variables the lowering allocated beyond theirs.
    fn admitted(sh: &Shapes, root: TermId, pushed: bool) -> (Vec<bool>, usize) {
        let mut solver = Solver::new();
        let mut b = Blaster::new(&sh.pool, &mut solver);
        let mut var_lits: Vec<Lit> = sh.bools.iter().map(|&t| b.lit_of(t)).collect();
        for &t in &sh.bvs {
            var_lits.extend_from_slice(b.bits_of(t));
        }
        let before = b.solver.num_vars();
        if pushed {
            b.assert_true(root);
        } else {
            let l = b.lit_of(root);
            b.solver.add_clause(&[l]);
        }
        let fresh = b.solver.num_vars() - before;
        let admitted = (0u32..1 << var_lits.len())
            .map(|m| {
                let assumptions: Vec<Lit> = var_lits
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| if m >> i & 1 == 1 { l } else { !l })
                    .collect();
                solver.solve_with_assumptions(&assumptions) == SatResult::Sat
            })
            .collect();
        (admitted, fresh)
    }

    /// Truth table of `root` by structural evaluation, in `admitted`'s order.
    fn truth_table(sh: &Shapes, root: TermId) -> Vec<bool> {
        let bits = sh.bools.len() + sh.bvs.len() * BV_W as usize;
        (0u32..1 << bits)
            .map(|m| {
                let mut values: Vec<(TermId, Value)> = Vec::new();
                for (i, &t) in sh.bools.iter().enumerate() {
                    values.push((t, Value::Bool(m >> i & 1 == 1)));
                }
                for (j, &t) in sh.bvs.iter().enumerate() {
                    let shift = sh.bools.len() + j * BV_W as usize;
                    values.push((t, Value::Bv((m >> shift) as u64 & ((1 << BV_W) - 1))));
                }
                values.into_iter().collect::<Model>().eval_bool(&sh.pool, root)
            })
            .collect()
    }

    /// The guard-pushed CNF, the Tseitin CNF and the term itself agree on
    /// every assignment to the term-level variables; `pure` shapes get
    /// their clauses without a single fresh SAT variable.
    fn check_shape(sh: &Shapes, root: TermId, pure: bool) {
        let what = sh.pool.display(root);
        let (pushed, fresh) = admitted(sh, root, true);
        let (tseitin, _) = admitted(sh, root, false);
        assert!(pushed == tseitin, "guard pushing and Tseitin differ on {what}");
        assert!(pushed == truth_table(sh, root), "CNF and term differ on {what}");
        if pure {
            assert_eq!(fresh, 0, "{what} allocated gate outputs");
        }
    }

    #[test]
    fn guard_pushed_cnf_has_the_models_of_the_tseitin_cnf() {
        let mut sh = shapes();
        let [g, h, c, p, q, r] = sh.bools[..] else { unreachable!() };
        let [a, b] = sh.bvs[..] else { unreachable!() };
        let pool = &mut sh.pool;
        let a_eq_b = pool.eq(a, b);
        let five = pool.bv_const(5, BV_W);
        let a_eq_5 = pool.eq(a, five);
        let q_or_r = pool.or(&[q, r]);
        let mut roots: Vec<(TermId, bool)> = Vec::new();

        // g ⇒ And[..]: every conjunct is pushed on its own.
        let body = pool.and(&[p, q_or_r, a_eq_b]);
        roots.push((pool.implies(g, body), false));
        // g ⇒ (h ⇒ t): the prefix grows.
        let inner = pool.implies(h, a_eq_b);
        roots.push((pool.implies(g, inner), true));
        // g ⇒ Or[..]: one clause; the equality inside it keeps a literal.
        let or = pool.or(&[p, q, a_eq_b]);
        roots.push((pool.implies(g, or), false));
        // g ⇒ a = b: both symbolic, one side constant, unguarded.
        roots.push((pool.implies(g, a_eq_b), true));
        roots.push((pool.implies(g, a_eq_5), true));
        roots.push((a_eq_b, true));
        // The same bit under two different terms (the pool folds a
        // syntactic `a = a` away): no clause at all, guarded or not.
        let a_hi = pool.bv_extract(a, 2, 1);
        let lo_of_hi = pool.bv_extract(a_hi, 0, 0);
        let bit1 = pool.bv_extract(a, 1, 1);
        let same = pool.eq(lo_of_hi, bit1);
        assert!(matches!(pool.term(same), Term::Eq(..)), "the pool does not fold it");
        roots.push((same, true));
        roots.push((pool.implies(g, same), true));
        // g ⇒ (p ↔ q), and a bit against its own negation: the bare prefix.
        let p_iff_q = pool.iff(p, q);
        roots.push((pool.implies(g, p_iff_q), true));
        let not_p = pool.not(p);
        let p_iff_not_p = pool.iff(p, not_p);
        assert!(matches!(pool.term(p_iff_not_p), Term::Iff(..)), "the pool does not fold it");
        roots.push((pool.implies(g, p_iff_not_p), true));
        // g ⇒ b = ite(c, a, 5): the mux keeps its gates, the equality is pushed.
        let mux = pool.ite(c, a, five);
        let b_eq_mux = pool.eq(b, mux);
        roots.push((pool.implies(g, b_eq_mux), false));
        // ¬, and a comparison: anything else is `prefix ∨ literal`.
        let not_eq = pool.not(a_eq_b);
        roots.push((pool.implies(g, not_eq), false));
        let le = pool.bv_ule(a, b);
        roots.push((pool.implies(g, le), false));

        for (root, pure) in roots {
            check_shape(&sh, root, pure);
        }
    }

    #[test]
    fn pushed_equality_leaves_its_term_without_a_literal() {
        // What guard pushing saves: the asserted equality has no literal
        // (the model evaluates it from its operands), the guard has.
        let mut sh = shapes();
        let (g, a, b) = (sh.bools[0], sh.bvs[0], sh.bvs[1]);
        let eq = sh.pool.eq(a, b);
        let root = sh.pool.implies(g, eq);
        let mut solver = Solver::new();
        let mut blaster = Blaster::new(&sh.pool, &mut solver);
        blaster.assert_true(root);
        let caches = blaster.into_caches();
        let lit_for = |t: TermId| caches.bool_lits.get(t.index()).copied().flatten();
        assert!(lit_for(g).is_some());
        assert!(lit_for(eq).is_none() && lit_for(root).is_none());
        // true_lit, g, and the 2 × 3 bits; 2 clauses per bit pair.
        assert_eq!(solver.num_vars(), 2 + 2 * BV_W as usize);
        assert_eq!(solver.stats().clauses, 2 * BV_W as u64);
        assert_eq!(solver.stats().clause_lits, 3 * 2 * BV_W as u64);
    }
}

//! Lowering of terms to CNF: Tseitin transformation for the boolean
//! skeleton and bit-blasting for bit-vector operations.
//!
//! Bit-vectors are represented LSB-first as vectors of SAT literals. All
//! encodings are cached per term, so the structural sharing created by the
//! hash-consed [`TermPool`] carries over to the CNF.

use crate::sat::{Lit, Solver};
use crate::term::{Term, TermId, TermPool};
use std::collections::HashMap;

/// Translates terms into clauses inside a [`Solver`].
pub struct Blaster<'a> {
    pool: &'a TermPool,
    solver: &'a mut Solver,
    bool_cache: HashMap<TermId, Lit>,
    bv_cache: HashMap<TermId, Vec<Lit>>,
    true_lit: Lit,
}

impl<'a> Blaster<'a> {
    pub fn new(pool: &'a TermPool, solver: &'a mut Solver) -> Blaster<'a> {
        let true_lit = Lit::pos(solver.new_var());
        solver.add_clause(&[true_lit]);
        Blaster { pool, solver, bool_cache: HashMap::new(), bv_cache: HashMap::new(), true_lit }
    }

    /// Reopens a blasting session over caches produced by an earlier
    /// session (see [`Blaster::into_caches`]). Terms already lowered keep
    /// their literals, so incremental solving re-encodes nothing.
    pub fn resume(pool: &'a TermPool, solver: &'a mut Solver, caches: BlastCaches) -> Blaster<'a> {
        Blaster {
            pool,
            solver,
            bool_cache: caches.bool_cache,
            bv_cache: caches.bv_cache,
            true_lit: caches.true_lit,
        }
    }

    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// Sets the solver's open cone mask for subsequently emitted clauses
    /// (see [`Solver::set_open_cone`]); pass 0 to close it. Used by the
    /// context to tag each assertion's CNF with its sub-query cone.
    pub fn set_open_cone(&mut self, mask: u64) {
        self.solver.set_open_cone(mask);
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            !self.true_lit
        }
    }

    fn is_const(&self, l: Lit) -> Option<bool> {
        if l == self.true_lit {
            Some(true)
        } else if l == !self.true_lit {
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
        if let Some(&l) = self.bool_cache.get(&t) {
            return l;
        }
        let lit = match self.pool.term(t).clone() {
            Term::Bool(b) => self.const_lit(b),
            Term::Var { .. } => self.fresh(),
            Term::Not(a) => {
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
            Term::Iff(a, b) => {
                let la = self.lit_of(a);
                let lb = self.lit_of(b);
                self.iff_lit(la, lb)
            }
            Term::Implies(a, b) => {
                let la = self.lit_of(a);
                let lb = self.lit_of(b);
                self.or_lits(&[!la, lb])
            }
            // Bit-vector operands only: the pool lowers boolean Eq to Iff.
            Term::Eq(a, b) => {
                let ba = self.bits_of(a);
                let bb = self.bits_of(b);
                let eqs: Vec<Lit> =
                    ba.iter().zip(bb.iter()).map(|(&x, &y)| self.iff_lit(x, y)).collect();
                self.and_lits(&eqs)
            }
            Term::Ite { cond, then, els } => {
                // The pool encodes boolean ITE with implications, but keep a
                // direct mux in case callers construct one explicitly.
                let c = self.lit_of(cond);
                let lt = self.lit_of(then);
                let le = self.lit_of(els);
                self.mux_lit(c, lt, le)
            }
            Term::BvUle(a, b) => {
                let ba = self.bits_of(a);
                let bb = self.bits_of(b);
                // LSB-to-MSB chain: le_i = (¬a_i ∧ b_i) ∨ ((a_i ↔ b_i) ∧ le_{i-1}).
                let mut le = self.const_lit(true);
                for (&ai, &bi) in ba.iter().zip(bb.iter()) {
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
        self.bool_cache.insert(t, lit);
        lit
    }

    /// Bit literals (LSB-first) for a bit-vector term.
    pub fn bits_of(&mut self, t: TermId) -> Vec<Lit> {
        if let Some(bits) = self.bv_cache.get(&t) {
            return bits.clone();
        }
        let width = self.pool.sort(t).bv_width().expect("bits_of on non-bit-vector term");
        let bits = match self.pool.term(t).clone() {
            Term::BvConst { value, .. } => {
                (0..width).map(|i| self.const_lit((value >> i) & 1 == 1)).collect::<Vec<_>>()
            }
            Term::Var { .. } => (0..width).map(|_| self.fresh()).collect(),
            Term::Ite { cond, then, els } => {
                let c = self.lit_of(cond);
                let bt = self.bits_of(then);
                let be = self.bits_of(els);
                bt.iter().zip(be.iter()).map(|(&x, &y)| self.mux_lit(c, x, y)).collect()
            }
            Term::BvExtract { arg, hi, lo } => {
                let b = self.bits_of(arg);
                b[lo as usize..=hi as usize].to_vec()
            }
            other => panic!("term {other:?} cannot be bit-blasted"),
        };
        debug_assert_eq!(bits.len(), width as usize);
        self.bv_cache.insert(t, bits.clone());
        bits
    }

    /// Asserts a boolean term at the top level, exploiting clause structure
    /// where cheap (conjunctions split, disjunctions become one clause).
    pub fn assert_true(&mut self, t: TermId) {
        match self.pool.term(t).clone() {
            Term::Bool(true) => {}
            Term::Bool(false) => {
                self.solver.add_clause(&[]);
            }
            Term::And(xs) => {
                for x in xs {
                    self.assert_true(x);
                }
            }
            Term::Or(xs) => {
                let clause: Vec<Lit> = xs.iter().map(|&x| self.lit_of(x)).collect();
                self.solver.add_clause(&clause);
            }
            Term::Implies(a, b) => {
                let la = self.lit_of(a);
                let lb = self.lit_of(b);
                self.solver.add_clause(&[!la, lb]);
            }
            Term::Not(inner) => {
                let l = self.lit_of(inner);
                self.solver.add_clause(&[!l]);
            }
            _ => {
                let l = self.lit_of(t);
                self.solver.add_clause(&[l]);
            }
        }
    }

    /// Consumes the blaster, releasing its borrows and returning the
    /// encoding caches for model extraction and later resumption
    /// ([`Blaster::resume`]).
    pub fn into_caches(self) -> BlastCaches {
        BlastCaches {
            bool_cache: self.bool_cache,
            bv_cache: self.bv_cache,
            true_lit: self.true_lit,
        }
    }
}

/// Term-to-literal caches produced by a [`Blaster`], used to read a model
/// back out of the SAT solver after solving and to resume encoding in a
/// later incremental session.
pub struct BlastCaches {
    bool_cache: HashMap<TermId, Lit>,
    bv_cache: HashMap<TermId, Vec<Lit>>,
    true_lit: Lit,
}

impl BlastCaches {
    /// The literal a boolean term was lowered to, if it has been lowered.
    pub(crate) fn lit_for(&self, t: TermId) -> Option<Lit> {
        self.bool_cache.get(&t).copied()
    }

    /// Truth value of a cached boolean term under the solver's model.
    pub fn bool_value(&self, solver: &Solver, t: TermId) -> Option<bool> {
        self.bool_cache.get(&t).map(|&l| solver.model_value(l.var()) ^ l.is_neg())
    }

    /// Value of a cached bit-vector term under the solver's model.
    pub fn bv_value(&self, solver: &Solver, t: TermId) -> Option<u64> {
        self.bv_cache.get(&t).map(|bits| {
            bits.iter().enumerate().fold(0u64, |acc, (i, &l)| {
                let bit = solver.model_value(l.var()) ^ l.is_neg();
                acc | ((bit as u64) << i)
            })
        })
    }

    /// All boolean terms that received an encoding.
    pub fn bool_terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.bool_cache.keys().copied()
    }

    /// All bit-vector terms that received an encoding.
    pub fn bv_terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.bv_cache.keys().copied()
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
        let (bx, by) = (b.bits_of(x), b.bits_of(y));
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
        let bx = b.bits_of(x);
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
        let bx = b.bits_of(x);
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
}

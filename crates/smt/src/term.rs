//! Hash-consed term graph.
//!
//! All formulas handed to the solver are built from [`Term`]s interned in a
//! [`TermPool`]. Interning gives structural sharing (the VMN encoder's
//! bounded-trace unrolling produces heavily repetitive formulas) and makes
//! equality of subterms a pointer comparison.

use crate::sorts::Sort;
use std::collections::HashMap;
use std::fmt;

/// Index of an interned term inside its [`TermPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Term node. Boolean connectives are n-ary where natural; bit-vector
/// operations cover what the VMN encoder needs (equality, extraction,
/// unsigned comparison, if-then-else).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// Boolean constant.
    Bool(bool),
    /// Bit-vector constant of the given width (value in low bits).
    BvConst {
        value: u64,
        width: u32,
    },
    /// Free variable / uninterpreted constant.
    Var {
        name: String,
        sort: Sort,
        id: u32,
    },
    Not(TermId),
    And(Vec<TermId>),
    Or(Vec<TermId>),
    /// Boolean equivalence (binary XNOR).
    Iff(TermId, TermId),
    Implies(TermId, TermId),
    /// Equality of two bit-vectors of equal width.
    Eq(TermId, TermId),
    /// If-then-else over booleans or bit-vectors.
    Ite {
        cond: TermId,
        then: TermId,
        els: TermId,
    },
    /// Unsigned `a <= b` on bit-vectors of equal width.
    BvUle(TermId, TermId),
    /// Bits `hi..=lo` of a bit-vector (inclusive, `hi >= lo`).
    BvExtract {
        arg: TermId,
        hi: u32,
        lo: u32,
    },
}

/// Interner and sort-checker for terms.
///
/// Construction methods panic on ill-sorted input: formulas are built by
/// this repository's own encoders, so a sort error is a bug, not user error.
pub struct TermPool {
    terms: Vec<Term>,
    sorts: Vec<Sort>,
    intern: HashMap<Term, TermId>,
    next_var: u32,
    true_id: TermId,
    false_id: TermId,
}

impl TermPool {
    pub fn new() -> TermPool {
        let mut pool = TermPool {
            terms: Vec::new(),
            sorts: Vec::new(),
            intern: HashMap::new(),
            next_var: 0,
            true_id: TermId(0),
            false_id: TermId(0),
        };
        pool.true_id = pool.intern(Term::Bool(true), Sort::Bool);
        pool.false_id = pool.intern(Term::Bool(false), Sort::Bool);
        pool
    }

    fn intern(&mut self, t: Term, sort: Sort) -> TermId {
        if let Some(&id) = self.intern.get(&t) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.intern.insert(t.clone(), id);
        self.terms.push(t);
        self.sorts.push(sort);
        id
    }

    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    pub fn sort(&self, id: TermId) -> Sort {
        self.sorts[id.index()]
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        false // the pool always holds `true` and `false`
    }

    // ---- constructors -------------------------------------------------

    pub fn tru(&self) -> TermId {
        self.true_id
    }

    pub fn fls(&self) -> TermId {
        self.false_id
    }

    pub fn bool_const(&mut self, b: bool) -> TermId {
        if b {
            self.true_id
        } else {
            self.false_id
        }
    }

    pub fn bv_const(&mut self, value: u64, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "bad bit-vector width {width}");
        let masked = if width == 64 { value } else { value & ((1u64 << width) - 1) };
        assert_eq!(masked, value, "constant {value:#x} does not fit in {width} bits");
        self.intern(Term::BvConst { value, width }, Sort::BitVec(width))
    }

    /// Creates a fresh variable. Names are for diagnostics only; two calls
    /// with the same name still produce distinct variables.
    pub fn var(&mut self, name: impl Into<String>, sort: Sort) -> TermId {
        let id = self.next_var;
        self.next_var += 1;
        self.intern(Term::Var { name: name.into(), sort, id }, sort)
    }

    pub fn not(&mut self, a: TermId) -> TermId {
        assert!(self.sort(a).is_bool(), "not: expected Bool");
        match *self.term(a) {
            Term::Bool(b) => self.bool_const(!b),
            Term::Not(inner) => inner,
            _ => self.intern(Term::Not(a), Sort::Bool),
        }
    }

    pub fn and(&mut self, args: &[TermId]) -> TermId {
        let mut flat: Vec<TermId> = Vec::with_capacity(args.len());
        for &a in args {
            assert!(self.sort(a).is_bool(), "and: expected Bool");
            match self.term(a) {
                Term::Bool(true) => {}
                Term::Bool(false) => return self.false_id,
                Term::And(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(a),
            }
        }
        flat.sort();
        flat.dedup();
        // x ∧ ¬x — detect complementary pair.
        for &t in &flat {
            if let Term::Not(inner) = *self.term(t) {
                if flat.binary_search(&inner).is_ok() {
                    return self.false_id;
                }
            }
        }
        match flat.len() {
            0 => self.true_id,
            1 => flat[0],
            _ => self.intern(Term::And(flat), Sort::Bool),
        }
    }

    pub fn or(&mut self, args: &[TermId]) -> TermId {
        let mut flat: Vec<TermId> = Vec::with_capacity(args.len());
        for &a in args {
            assert!(self.sort(a).is_bool(), "or: expected Bool");
            match self.term(a) {
                Term::Bool(false) => {}
                Term::Bool(true) => return self.true_id,
                Term::Or(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(a),
            }
        }
        flat.sort();
        flat.dedup();
        for &t in &flat {
            if let Term::Not(inner) = *self.term(t) {
                if flat.binary_search(&inner).is_ok() {
                    return self.true_id;
                }
            }
        }
        match flat.len() {
            0 => self.false_id,
            1 => flat[0],
            _ => self.intern(Term::Or(flat), Sort::Bool),
        }
    }

    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        assert!(self.sort(a).is_bool() && self.sort(b).is_bool(), "implies: expected Bool");
        if a == self.true_id {
            return b;
        }
        if a == self.false_id || b == self.true_id {
            return self.true_id;
        }
        if b == self.false_id {
            return self.not(a);
        }
        if a == b {
            return self.true_id;
        }
        self.intern(Term::Implies(a, b), Sort::Bool)
    }

    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        assert!(self.sort(a).is_bool() && self.sort(b).is_bool(), "iff: expected Bool");
        if a == b {
            return self.true_id;
        }
        if a == self.true_id {
            return b;
        }
        if b == self.true_id {
            return a;
        }
        if a == self.false_id {
            return self.not(b);
        }
        if b == self.false_id {
            return self.not(a);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Term::Iff(a, b), Sort::Bool)
    }

    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        let sa = self.sort(a);
        let sb = self.sort(b);
        assert_eq!(sa, sb, "eq: sort mismatch {sa} vs {sb}");
        if sa.is_bool() {
            return self.iff(a, b);
        }
        if a == b {
            return self.true_id;
        }
        // Constant folding for bit-vector constants.
        if let (Term::BvConst { value: va, .. }, Term::BvConst { value: vb, .. }) =
            (self.term(a), self.term(b))
        {
            let r = va == vb;
            return self.bool_const(r);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Term::Eq(a, b), Sort::Bool)
    }

    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        assert!(self.sort(cond).is_bool(), "ite: condition must be Bool");
        let st = self.sort(then);
        assert_eq!(st, self.sort(els), "ite: branch sort mismatch");
        if cond == self.true_id {
            return then;
        }
        if cond == self.false_id {
            return els;
        }
        if then == els {
            return then;
        }
        if st.is_bool() {
            // cond ? t : e  ==  (cond → t) ∧ (¬cond → e)
            let imp1 = self.implies(cond, then);
            let ncond = self.not(cond);
            let imp2 = self.implies(ncond, els);
            return self.and(&[imp1, imp2]);
        }
        self.intern(Term::Ite { cond, then, els }, st)
    }

    pub fn bv_ule(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.sort(a).bv_width().expect("bv_ule: expected bit-vector");
        assert_eq!(Some(w), self.sort(b).bv_width(), "bv_ule: width mismatch");
        if let (Term::BvConst { value: va, .. }, Term::BvConst { value: vb, .. }) =
            (self.term(a), self.term(b))
        {
            let r = va <= vb;
            return self.bool_const(r);
        }
        if a == b {
            return self.true_id;
        }
        self.intern(Term::BvUle(a, b), Sort::Bool)
    }

    pub fn bv_extract(&mut self, arg: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.sort(arg).bv_width().expect("bv_extract: expected bit-vector");
        assert!(hi >= lo && hi < w, "bv_extract: bad range [{hi}:{lo}] on width {w}");
        let out_w = hi - lo + 1;
        if let Term::BvConst { value, .. } = *self.term(arg) {
            let shifted = value >> lo;
            let masked = if out_w == 64 { shifted } else { shifted & ((1u64 << out_w) - 1) };
            return self.bv_const(masked, out_w);
        }
        if lo == 0 && hi == w - 1 {
            return arg;
        }
        self.intern(Term::BvExtract { arg, hi, lo }, Sort::BitVec(out_w))
    }

    /// `a` matches constant `value` on its top `prefix_len` bits — the
    /// longest-prefix-match primitive used by forwarding-table encodings.
    pub fn bv_prefix_match(&mut self, a: TermId, value: u64, prefix_len: u32) -> TermId {
        let w = self.sort(a).bv_width().expect("bv_prefix_match: expected bit-vector");
        if prefix_len == 0 {
            return self.true_id;
        }
        assert!(prefix_len <= w, "prefix length {prefix_len} exceeds width {w}");
        let hi = w - 1;
        let lo = w - prefix_len;
        let ext = self.bv_extract(a, hi, lo);
        let cst_val =
            if w == 64 && lo == 0 { value } else { (value >> lo) & ((1u64 << prefix_len) - 1) };
        let cst = self.bv_const(cst_val, prefix_len);
        self.eq(ext, cst)
    }

    /// Pretty-printer for diagnostics and tests.
    pub fn display(&self, id: TermId) -> String {
        match self.term(id) {
            Term::Bool(b) => b.to_string(),
            Term::BvConst { value, width } => format!("{value}#{width}"),
            Term::Var { name, id, .. } => format!("{name}.{id}"),
            Term::Not(a) => format!("(not {})", self.display(*a)),
            Term::And(xs) => {
                let inner: Vec<_> = xs.iter().map(|&x| self.display(x)).collect();
                format!("(and {})", inner.join(" "))
            }
            Term::Or(xs) => {
                let inner: Vec<_> = xs.iter().map(|&x| self.display(x)).collect();
                format!("(or {})", inner.join(" "))
            }
            Term::Iff(a, b) => format!("(iff {} {})", self.display(*a), self.display(*b)),
            Term::Implies(a, b) => format!("(=> {} {})", self.display(*a), self.display(*b)),
            Term::Eq(a, b) => format!("(= {} {})", self.display(*a), self.display(*b)),
            Term::Ite { cond, then, els } => format!(
                "(ite {} {} {})",
                self.display(*cond),
                self.display(*then),
                self.display(*els)
            ),
            Term::BvUle(a, b) => format!("(bvule {} {})", self.display(*a), self.display(*b)),
            Term::BvExtract { arg, hi, lo } => {
                format!("((extract {hi} {lo}) {})", self.display(*arg))
            }
        }
    }
}

impl Default for TermPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedupes() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bool);
        let y = p.var("y", Sort::Bool);
        let a1 = p.and(&[x, y]);
        let a2 = p.and(&[y, x]);
        assert_eq!(a1, a2, "AND is canonicalised by argument order");
    }

    #[test]
    fn fresh_vars_differ_even_with_same_name() {
        let mut p = TermPool::new();
        let x1 = p.var("x", Sort::Bool);
        let x2 = p.var("x", Sort::Bool);
        assert_ne!(x1, x2);
    }

    #[test]
    fn and_or_simplifications() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bool);
        let nx = p.not(x);
        let t = p.tru();
        let f = p.fls();
        assert_eq!(p.and(&[x, t]), x);
        assert_eq!(p.and(&[x, f]), f);
        assert_eq!(p.and(&[x, nx]), f);
        assert_eq!(p.or(&[x, f]), x);
        assert_eq!(p.or(&[x, t]), t);
        assert_eq!(p.or(&[x, nx]), t);
        assert_eq!(p.and(&[]), t);
        assert_eq!(p.or(&[]), f);
    }

    #[test]
    fn double_negation() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bool);
        let nx = p.not(x);
        assert_eq!(p.not(nx), x);
    }

    #[test]
    fn eq_constant_folding() {
        let mut p = TermPool::new();
        let a = p.bv_const(5, 8);
        let b = p.bv_const(5, 8);
        let c = p.bv_const(6, 8);
        assert_eq!(p.eq(a, b), p.tru());
        assert_eq!(p.eq(a, c), p.fls());
    }

    #[test]
    fn extract_of_constant() {
        let mut p = TermPool::new();
        let a = p.bv_const(0b1101_0110, 8);
        let hi_nibble = p.bv_extract(a, 7, 4);
        assert_eq!(*p.term(hi_nibble), Term::BvConst { value: 0b1101, width: 4 });
    }

    #[test]
    fn prefix_match_folding() {
        let mut p = TermPool::new();
        let addr = p.bv_const(0xC0A8_0101, 32); // 192.168.1.1
        let m = p.bv_prefix_match(addr, 0xC0A8_0000, 16); // 192.168/16
        assert_eq!(m, p.tru());
        let m2 = p.bv_prefix_match(addr, 0x0A00_0000, 8); // 10/8
        assert_eq!(m2, p.fls());
    }

    #[test]
    fn ule_constant_folding() {
        let mut p = TermPool::new();
        let a = p.bv_const(3, 8);
        let b = p.bv_const(7, 8);
        assert_eq!(p.bv_ule(a, b), p.tru());
        assert_eq!(p.bv_ule(b, a), p.fls());
    }

    #[test]
    #[should_panic(expected = "sort mismatch")]
    fn eq_requires_same_sort() {
        let mut p = TermPool::new();
        let a = p.bv_const(1, 8);
        let b = p.bv_const(1, 16);
        p.eq(a, b);
    }

    #[test]
    fn ite_simplifies() {
        let mut p = TermPool::new();
        let c = p.var("c", Sort::Bool);
        let a = p.bv_const(1, 4);
        let b = p.bv_const(2, 4);
        let t = p.tru();
        let f = p.fls();
        assert_eq!(p.ite(t, a, b), a);
        assert_eq!(p.ite(f, a, b), b);
        assert_eq!(p.ite(c, a, a), a);
    }
}

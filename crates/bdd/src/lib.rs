//! A compact ROBDD engine plus a dataplane reachability layer.
//!
//! The SMT pipeline in the `vmn` crate pays for mutable middlebox state
//! even when a sliced query never touches it. This crate is the second
//! backend for exactly that case: packet headers become BDD variables,
//! each device's forwarding behaviour becomes a transfer predicate over
//! header sets, and reachability between endpoints is answered by
//! predicate composition — microseconds instead of a solver session.
//!
//! Two layers:
//!
//! * [`Bdd`] — the reduced ordered BDD manager: arena-allocated nodes, a
//!   unique table for canonicity, a memoized `ite` cache, no complement
//!   edges (simplicity over the constant factor), plus node/cache stats
//!   ([`BddStats`]) and bit-vector comparison builders for the interval
//!   and prefix predicates the dataplane needs.
//! * [`dataplane`] — per-device transfer predicates (stateless middlebox
//!   models with classification oracles existentially quantified),
//!   delivery predicates mirroring the SMT encoder's header-class
//!   intervals, built only for the targets a query's slice contains, and
//!   a hop-bounded reachability search that extracts a concrete witness
//!   path on violation.

#![forbid(unsafe_code)]

pub mod arms;
pub mod dataplane;

pub use arms::BddArmDecider;
pub use dataplane::{Dataplane, DataplaneError, Hop, Outcome, Query, Witness};

use std::collections::HashMap;
use std::ops::Add;

/// Index of a BDD node in its manager's arena. `0`/`1` are the terminal
/// constants ([`Bdd::FALSE`], [`Bdd::TRUE`]).
pub type Ref = u32;

/// One arena node: branch variable plus low (var = 0) / high (var = 1)
/// children. Terminals use a sentinel variable larger than any real one,
/// which also makes "top variable" comparisons uniform in `ite`.
#[derive(Clone, Copy, Debug)]
struct Node {
    var: u32,
    lo: Ref,
    hi: Ref,
}

/// Variable id reserved for the two terminal nodes.
const TERMINAL_VAR: u32 = u32::MAX;

/// Cumulative work counters of a [`Bdd`] manager. Monotone, like
/// `SolverStats`: snapshot and [`BddStats::delta_since`] to attribute a
/// span of work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Non-terminal nodes allocated in the arena.
    pub nodes: u64,
    /// `ite` cache probes / hits.
    pub ite_lookups: u64,
    pub ite_hits: u64,
    /// `mk` calls answered by the unique table (hash-consing hits).
    pub unique_hits: u64,
}

impl BddStats {
    /// Counters accumulated since `earlier` (a snapshot of the same
    /// manager).
    pub fn delta_since(&self, earlier: &BddStats) -> BddStats {
        BddStats {
            nodes: self.nodes - earlier.nodes,
            ite_lookups: self.ite_lookups - earlier.ite_lookups,
            ite_hits: self.ite_hits - earlier.ite_hits,
            unique_hits: self.unique_hits - earlier.unique_hits,
        }
    }
}

impl Add for BddStats {
    type Output = BddStats;

    fn add(self, o: BddStats) -> BddStats {
        BddStats {
            nodes: self.nodes + o.nodes,
            ite_lookups: self.ite_lookups + o.ite_lookups,
            ite_hits: self.ite_hits + o.ite_hits,
            unique_hits: self.unique_hits + o.unique_hits,
        }
    }
}

/// The ROBDD manager. Variable order is the variable id order (smaller
/// ids closer to the root); callers pick the order by picking ids.
pub struct Bdd {
    nodes: Vec<Node>,
    /// Hash-consing table: (var, lo, hi) → existing node. Together with
    /// the `lo == hi` elision in [`Bdd::mk`] this is what makes equal
    /// functions pointer-equal (canonicity).
    unique: HashMap<(u32, Ref, Ref), Ref>,
    /// Memoized `ite` results. Never invalidated: nodes are immortal
    /// within a manager.
    ite_cache: HashMap<(Ref, Ref, Ref), Ref>,
    ite_lookups: u64,
    ite_hits: u64,
    unique_hits: u64,
}

impl Default for Bdd {
    fn default() -> Self {
        Bdd::new()
    }
}

impl Bdd {
    /// The constant-false function.
    pub const FALSE: Ref = 0;
    /// The constant-true function.
    pub const TRUE: Ref = 1;

    pub fn new() -> Bdd {
        Bdd {
            nodes: vec![
                Node { var: TERMINAL_VAR, lo: 0, hi: 0 },
                Node { var: TERMINAL_VAR, lo: 1, hi: 1 },
            ],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
            ite_lookups: 0,
            ite_hits: 0,
            unique_hits: 0,
        }
    }

    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes: (self.nodes.len() - 2) as u64,
            ite_lookups: self.ite_lookups,
            ite_hits: self.ite_hits,
            unique_hits: self.unique_hits,
        }
    }

    /// Number of live arena nodes, terminals excluded.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 2
    }

    fn is_terminal(f: Ref) -> bool {
        f <= 1
    }

    /// The canonical node for (var, lo, hi): elides redundant tests and
    /// hash-conses structurally equal nodes.
    fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        if let Some(&r) = self.unique.get(&(var, lo, hi)) {
            self.unique_hits += 1;
            return r;
        }
        debug_assert!(var < self.nodes[lo as usize].var && var < self.nodes[hi as usize].var);
        let r = self.nodes.len() as Ref;
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), r);
        r
    }

    /// The single-variable function `v`.
    pub fn var(&mut self, v: u32) -> Ref {
        debug_assert_ne!(v, TERMINAL_VAR);
        self.mk(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`. Every boolean
    /// connective below is a special case.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        if f == Bdd::TRUE {
            return g;
        }
        if f == Bdd::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == Bdd::TRUE && h == Bdd::FALSE {
            return f;
        }
        self.ite_lookups += 1;
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            self.ite_hits += 1;
            return r;
        }
        let v = self.nodes[f as usize]
            .var
            .min(self.nodes[g as usize].var)
            .min(self.nodes[h as usize].var);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    fn cofactors(&self, f: Ref, v: u32) -> (Ref, Ref) {
        let n = self.nodes[f as usize];
        if n.var == v {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    pub fn not(&mut self, f: Ref) -> Ref {
        self.ite(f, Bdd::FALSE, Bdd::TRUE)
    }

    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Bdd::FALSE)
    }

    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Existential quantification `∃ vars. f`: the function true wherever
    /// some valuation of the variables in `vars` makes `f` true. Ids `f`
    /// does not depend on are ignored.
    pub fn exists(&mut self, f: Ref, vars: &[u32]) -> Ref {
        if vars.is_empty() {
            return f;
        }
        let mut memo = HashMap::new();
        self.exists_rec(f, vars, &mut memo)
    }

    fn exists_rec(&mut self, f: Ref, vars: &[u32], memo: &mut HashMap<Ref, Ref>) -> Ref {
        if Bdd::is_terminal(f) {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let Node { var, lo, hi } = self.nodes[f as usize];
        let lo = self.exists_rec(lo, vars, memo);
        let hi = self.exists_rec(hi, vars, memo);
        let r = if vars.contains(&var) { self.or(lo, hi) } else { self.mk(var, lo, hi) };
        memo.insert(f, r);
        r
    }

    /// Evaluates `f` under a total assignment.
    pub fn eval(&self, f: Ref, assignment: impl Fn(u32) -> bool) -> bool {
        let mut cur = f;
        while !Bdd::is_terminal(cur) {
            let n = self.nodes[cur as usize];
            cur = if assignment(n.var) { n.hi } else { n.lo };
        }
        cur == Bdd::TRUE
    }

    /// One satisfying partial assignment of `f` (variables not listed are
    /// don't-cares), or `None` for the constant-false function. Prefers
    /// the high branch, so the result is deterministic.
    pub fn anysat(&self, f: Ref) -> Option<Vec<(u32, bool)>> {
        if f == Bdd::FALSE {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = f;
        while !Bdd::is_terminal(cur) {
            let n = self.nodes[cur as usize];
            if n.hi != Bdd::FALSE {
                out.push((n.var, true));
                cur = n.hi;
            } else {
                out.push((n.var, false));
                cur = n.lo;
            }
        }
        debug_assert_eq!(cur, Bdd::TRUE);
        Some(out)
    }

    /// `value == bound` over the bit-vector `vars` (MSB first).
    pub fn bits_eq(&mut self, vars: &[u32], bound: u64) -> Ref {
        let n = vars.len();
        let mut r = Bdd::TRUE;
        for i in (0..n).rev() {
            let v = self.var(vars[i]);
            let bit = (bound >> (n - 1 - i)) & 1 == 1;
            let lit = if bit { v } else { self.not(v) };
            r = self.and(lit, r);
        }
        r
    }

    /// `value >= bound` over the bit-vector `vars` (MSB first). Built
    /// LSB-up so each connective sees its variable on top — linear size.
    pub fn bits_ge(&mut self, vars: &[u32], bound: u64) -> Ref {
        let n = vars.len();
        let mut r = Bdd::TRUE;
        for i in (0..n).rev() {
            let v = self.var(vars[i]);
            r = if (bound >> (n - 1 - i)) & 1 == 1 { self.and(v, r) } else { self.or(v, r) };
        }
        r
    }

    /// `value <= bound` over the bit-vector `vars` (MSB first).
    pub fn bits_le(&mut self, vars: &[u32], bound: u64) -> Ref {
        let n = vars.len();
        let mut r = Bdd::TRUE;
        for i in (0..n).rev() {
            let v = self.var(vars[i]);
            let nv = self.not(v);
            r = if (bound >> (n - 1 - i)) & 1 == 1 { self.or(nv, r) } else { self.and(nv, r) };
        }
        r
    }

    /// `lo <= value <= hi` over the bit-vector `vars` (MSB first) — the
    /// delivery-interval predicate.
    pub fn bits_in_range(&mut self, vars: &[u32], lo: u64, hi: u64) -> Ref {
        debug_assert!(lo <= hi);
        let ge = self.bits_ge(vars, lo);
        let le = self.bits_le(vars, hi);
        self.and(ge, le)
    }

    /// The top `len` bits of the bit-vector equal the top `len` bits of
    /// `value` — an address-prefix match. `len == 0` is the full space.
    pub fn bits_prefix(&mut self, vars: &[u32], value: u64, len: usize) -> Ref {
        debug_assert!(len <= vars.len());
        let n = vars.len();
        let mut r = Bdd::TRUE;
        for i in (0..len).rev() {
            let v = self.var(vars[i]);
            let bit = (value >> (n - 1 - i)) & 1 == 1;
            let lit = if bit { v } else { self.not(v) };
            r = self.and(lit, r);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force truth-table oracle: evaluates a formula AST over all
    /// 2^n assignments and compares with the BDD's `eval`.
    #[derive(Clone)]
    enum Form {
        Var(u32),
        Not(Box<Form>),
        And(Box<Form>, Box<Form>),
        Or(Box<Form>, Box<Form>),
        Ite(Box<Form>, Box<Form>, Box<Form>),
    }

    impl Form {
        fn eval(&self, bits: u64) -> bool {
            match self {
                Form::Var(v) => (bits >> v) & 1 == 1,
                Form::Not(f) => !f.eval(bits),
                Form::And(a, b) => a.eval(bits) && b.eval(bits),
                Form::Or(a, b) => a.eval(bits) || b.eval(bits),
                Form::Ite(f, g, h) => {
                    if f.eval(bits) {
                        g.eval(bits)
                    } else {
                        h.eval(bits)
                    }
                }
            }
        }

        fn build(&self, man: &mut Bdd) -> Ref {
            match self {
                Form::Var(v) => man.var(*v),
                Form::Not(f) => {
                    let f = f.build(man);
                    man.not(f)
                }
                Form::And(a, b) => {
                    let (a, b) = (a.build(man), b.build(man));
                    man.and(a, b)
                }
                Form::Or(a, b) => {
                    let (a, b) = (a.build(man), b.build(man));
                    man.or(a, b)
                }
                Form::Ite(f, g, h) => {
                    let (f, g, h) = (f.build(man), g.build(man), h.build(man));
                    man.ite(f, g, h)
                }
            }
        }
    }

    /// Deterministic pseudo-random formula generator (no external RNG —
    /// a splitmix64 walk keeps the test self-contained).
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn form(&mut self, vars: u32, depth: u32) -> Form {
            if depth == 0 || self.below(4) == 0 {
                return Form::Var(self.below(vars as u64) as u32);
            }
            match self.below(4) {
                0 => Form::Not(Box::new(self.form(vars, depth - 1))),
                1 => Form::And(
                    Box::new(self.form(vars, depth - 1)),
                    Box::new(self.form(vars, depth - 1)),
                ),
                2 => Form::Or(
                    Box::new(self.form(vars, depth - 1)),
                    Box::new(self.form(vars, depth - 1)),
                ),
                _ => Form::Ite(
                    Box::new(self.form(vars, depth - 1)),
                    Box::new(self.form(vars, depth - 1)),
                    Box::new(self.form(vars, depth - 1)),
                ),
            }
        }
    }

    #[test]
    fn connectives_match_truth_tables() {
        // ite/apply correctness against the brute-force oracle on ≤ 12
        // variables: every assignment of every random formula must agree.
        let mut mix = Mix(42);
        for round in 0..60 {
            let vars = 2 + (round % 11) as u32; // 2..=12
            let form = mix.form(vars, 5);
            let mut man = Bdd::new();
            let f = form.build(&mut man);
            for bits in 0..(1u64 << vars) {
                assert_eq!(
                    man.eval(f, |v| (bits >> v) & 1 == 1),
                    form.eval(bits),
                    "round {round}, vars {vars}, assignment {bits:b}"
                );
            }
        }
    }

    #[test]
    fn unique_table_gives_canonicity() {
        // Semantically equal functions built along different syntactic
        // routes must be the *same* node — that's the property every
        // `== Bdd::FALSE` emptiness test in the dataplane relies on.
        let mut man = Bdd::new();
        let (a, b, c) = (man.var(0), man.var(1), man.var(2));
        let ab = man.and(a, b);
        let left = man.or(ab, c);
        let ac = man.or(a, c);
        let bc = man.or(b, c);
        let right = man.and(ac, bc);
        assert_eq!(left, right, "(a∧b)∨c ≡ (a∨c)∧(b∨c)");

        let na = man.not(a);
        let nna = man.not(na);
        assert_eq!(nna, a, "double negation is the identity node");

        let taut = man.or(a, na);
        assert_eq!(taut, Bdd::TRUE);
        let contra = man.and(a, na);
        assert_eq!(contra, Bdd::FALSE);

        // De Morgan, via distinct call paths.
        let nb = man.not(b);
        let or_n = man.or(na, nb);
        let andab = man.and(a, b);
        let n_and = man.not(andab);
        assert_eq!(or_n, n_and);
    }

    #[test]
    fn no_redundant_or_duplicate_nodes() {
        // mk elides redundant tests (lo == hi) and hash-conses the rest:
        // building the same function twice allocates nothing new.
        let mut man = Bdd::new();
        let a = man.var(3);
        let before = man.node_count();
        let again = man.var(3);
        assert_eq!(a, again);
        assert_eq!(man.node_count(), before, "var(3) must not re-allocate");
        let same = man.ite(a, Bdd::TRUE, Bdd::FALSE);
        assert_eq!(same, a, "ite(f, 1, 0) is f itself");
        let hits_before = man.stats().unique_hits;
        let b = man.var(5);
        let f1 = man.and(a, b);
        let f2 = man.and(a, b);
        assert_eq!(f1, f2);
        assert!(man.stats().unique_hits >= hits_before, "rebuild hits the unique table");
    }

    #[test]
    fn exists_quantifies_correctly() {
        // ∃b. (a ∧ b) = a; ∃a,b. (a ∧ b) = true; ∃c over a c-free
        // function is the identity.
        let mut man = Bdd::new();
        let (a, b) = (man.var(0), man.var(1));
        let ab = man.and(a, b);
        assert_eq!(man.exists(ab, &[1]), a);
        assert_eq!(man.exists(ab, &[0, 1]), Bdd::TRUE);
        assert_eq!(man.exists(ab, &[7]), ab);
        // Against the oracle: ∃S.f evaluated on the remaining vars.
        let mut mix = Mix(7);
        for _ in 0..30 {
            let form = mix.form(6, 4);
            let f = form.build(&mut man);
            let q = man.exists(f, &[2, 4]);
            for bits in 0..(1u64 << 6) {
                // q must be independent of vars 2 and 4…
                let want = (0..4u64).any(|m| {
                    let probe =
                        (bits & !((1 << 2) | (1 << 4))) | ((m & 1) << 2) | (((m >> 1) & 1) << 4);
                    form.eval(probe)
                });
                assert_eq!(man.eval(q, |v| (bits >> v) & 1 == 1), want);
            }
        }
    }

    #[test]
    fn anysat_finds_models() {
        let mut man = Bdd::new();
        let (a, b, c) = (man.var(0), man.var(1), man.var(2));
        let nb = man.not(b);
        let anb = man.and(a, nb);
        let f = man.or(anb, c);
        let sat = man.anysat(f).expect("satisfiable");
        // The returned partial assignment must satisfy f with don't-cares
        // set either way.
        for fill in [false, true] {
            let lookup = |v: u32| sat.iter().find(|&&(sv, _)| sv == v).map_or(fill, |&(_, x)| x);
            assert!(man.eval(f, lookup));
        }
        assert!(man.anysat(Bdd::FALSE).is_none());
        assert_eq!(man.anysat(Bdd::TRUE), Some(vec![]));
    }

    #[test]
    fn bitvector_builders_match_arithmetic() {
        let mut man = Bdd::new();
        let vars: Vec<u32> = (0..6).collect();
        for bound in [0u64, 1, 17, 31, 62, 63] {
            let eq = man.bits_eq(&vars, bound);
            let ge = man.bits_ge(&vars, bound);
            let le = man.bits_le(&vars, bound);
            for value in 0..64u64 {
                let assign = |v: u32| (value >> (5 - v)) & 1 == 1;
                assert_eq!(man.eval(eq, assign), value == bound, "eq {value} {bound}");
                assert_eq!(man.eval(ge, assign), value >= bound, "ge {value} {bound}");
                assert_eq!(man.eval(le, assign), value <= bound, "le {value} {bound}");
            }
        }
        let range = man.bits_in_range(&vars, 13, 47);
        let prefix = man.bits_prefix(&vars, 0b101_000, 3);
        for value in 0..64u64 {
            let assign = |v: u32| (value >> (5 - v)) & 1 == 1;
            assert_eq!(man.eval(range, assign), (13..=47).contains(&value));
            assert_eq!(man.eval(prefix, assign), value >> 3 == 0b101);
        }
    }

    #[test]
    fn stats_are_monotone_and_attributable() {
        let mut man = Bdd::new();
        let before = man.stats();
        let (a, b) = (man.var(0), man.var(1));
        man.and(a, b);
        let mid = man.stats();
        assert!(mid.nodes > before.nodes);
        man.and(a, b); // fully cached
        let after = man.stats();
        let delta = after.delta_since(&mid);
        assert_eq!(delta.nodes, 0, "cached rebuild allocates nothing");
        assert!(delta.ite_hits > 0, "cached rebuild hits the ite cache");
    }
}

//! Models (satisfying assignments) returned by the solver.

use crate::term::{Term, TermId, TermPool};
use std::collections::HashMap;

/// Value of a term under a model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Value {
    Bool(bool),
    /// Bit-vector value (LSB-aligned).
    Bv(u64),
}

impl Value {
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_bv(self) -> Option<u64> {
        match self {
            Value::Bv(v) => Some(v),
            _ => None,
        }
    }
}

/// A satisfying assignment, recorded for every term the encoder touched.
///
/// Composite terms not seen during solving are evaluated recursively;
/// unconstrained variables default to `false` / `0`.
#[derive(Clone, Debug, Default)]
pub struct Model {
    values: HashMap<TermId, Value>,
}

/// A model that records exactly the given values; every other term is
/// evaluated from them structurally.
impl FromIterator<(TermId, Value)> for Model {
    fn from_iter<I: IntoIterator<Item = (TermId, Value)>>(values: I) -> Model {
        Model { values: values.into_iter().collect() }
    }
}

impl Model {
    /// Number of terms with recorded values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value recorded for `t`, if the encoder saw it.
    pub fn get(&self, t: TermId) -> Option<Value> {
        self.values.get(&t).copied()
    }

    /// Evaluates an arbitrary term under this model.
    ///
    /// Terms that were part of the solved formula are looked up directly;
    /// other terms are computed structurally.
    pub fn eval(&mut self, pool: &TermPool, t: TermId) -> Value {
        if let Some(v) = self.values.get(&t) {
            return *v;
        }
        let v = match pool.term(t).clone() {
            Term::Bool(b) => Value::Bool(b),
            Term::BvConst { value, .. } => Value::Bv(value),
            Term::Var { sort, .. } => match sort {
                crate::sorts::Sort::Bool => Value::Bool(false),
                crate::sorts::Sort::BitVec(_) => Value::Bv(0),
            },
            Term::Not(a) => Value::Bool(!self.eval_bool(pool, a)),
            Term::And(xs) => Value::Bool(xs.iter().all(|&x| self.eval_bool(pool, x))),
            Term::Or(xs) => Value::Bool(xs.iter().any(|&x| self.eval_bool(pool, x))),
            Term::Iff(a, b) => Value::Bool(self.eval_bool(pool, a) == self.eval_bool(pool, b)),
            Term::Implies(a, b) => Value::Bool(!self.eval_bool(pool, a) || self.eval_bool(pool, b)),
            Term::Eq(a, b) => Value::Bool(self.eval(pool, a) == self.eval(pool, b)),
            Term::Ite { cond, then, els } => {
                if self.eval_bool(pool, cond) {
                    self.eval(pool, then)
                } else {
                    self.eval(pool, els)
                }
            }
            Term::BvUle(a, b) => {
                let va = self.eval(pool, a).as_bv().expect("bv operand");
                let vb = self.eval(pool, b).as_bv().expect("bv operand");
                Value::Bool(va <= vb)
            }
            Term::BvExtract { arg, hi, lo } => {
                let v = self.eval(pool, arg).as_bv().expect("bv operand");
                let width = hi - lo + 1;
                let shifted = v >> lo;
                Value::Bv(if width == 64 { shifted } else { shifted & ((1 << width) - 1) })
            }
        };
        self.values.insert(t, v);
        v
    }

    /// Evaluates a boolean term, panicking if it is not boolean.
    pub fn eval_bool(&mut self, pool: &TermPool, t: TermId) -> bool {
        self.eval(pool, t).as_bool().expect("expected boolean term")
    }

    /// Evaluates a bit-vector term, panicking if it is not a bit-vector.
    pub fn eval_bv(&mut self, pool: &TermPool, t: TermId) -> u64 {
        self.eval(pool, t).as_bv().expect("expected bit-vector term")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorts::Sort;

    #[test]
    fn recursive_eval_of_unseen_terms() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Sort::bitvec(8));
        let mut m: Model = [(x, Value::Bv(0xAB))].into_iter().collect();
        let hi = pool.bv_extract(x, 7, 4);
        assert_eq!(m.eval(&pool, hi), Value::Bv(0xA));
        let c = pool.bv_const(0xAB, 8);
        let eq = pool.eq(x, c);
        assert_eq!(m.eval(&pool, eq), Value::Bool(true));
    }

    #[test]
    fn unconstrained_vars_get_defaults() {
        let mut pool = TermPool::new();
        let b = pool.var("b", Sort::Bool);
        let v = pool.var("v", Sort::bitvec(16));
        let mut m = Model::default();
        assert_eq!(m.eval(&pool, b), Value::Bool(false));
        assert_eq!(m.eval(&pool, v), Value::Bv(0));
    }
}

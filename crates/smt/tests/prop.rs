//! Property-based tests for the SMT solver.
//!
//! The central invariant: whenever `check()` reports SAT, evaluating every
//! assertion under the returned model yields true; whenever it reports
//! UNSAT on a formula that a brute-force enumerator can decide, the
//! enumerator agrees.

use proptest::prelude::*;
use vmn_smt::{Context, SatResult, Sort, TermId};

/// A tiny recursive formula AST that proptest can generate, later lowered
/// into a `Context`.
#[derive(Clone, Debug)]
enum F {
    Var(u8),
    Not(Box<F>),
    And(Box<F>, Box<F>),
    Or(Box<F>, Box<F>),
    Iff(Box<F>, Box<F>),
    Implies(Box<F>, Box<F>),
    /// Equality of two of four 4-bit bit-vector variables.
    BvEq(u8, u8),
    /// `bv[a] <= bv[b]`.
    BvLe(u8, u8),
    /// `ite(b[c], bv[t], k) = bv[r]` — the shape of a delivery expression
    /// compared with a node variable.
    IteEq {
        c: u8,
        t: u8,
        k: u8,
        r: u8,
    },
    /// `bv[a]` matches the 4-bit constant `value` on its top `len` bits.
    PrefixMatch {
        a: u8,
        value: u8,
        len: u8,
    },
    /// `bv[a] <= k`, or `k <= bv[a]` when `flip` — one side of a range test.
    LeConst {
        a: u8,
        k: u8,
        flip: bool,
    },
}

fn formula() -> impl Strategy<Value = F> {
    let leaf = prop_oneof![
        (0u8..4).prop_map(F::Var),
        (0u8..4, 0u8..4).prop_map(|(a, b)| F::BvEq(a, b)),
        (0u8..4, 0u8..4).prop_map(|(a, b)| F::BvLe(a, b)),
        (0u8..4, 0u8..4, 0u8..16, 0u8..4).prop_map(|(c, t, k, r)| F::IteEq { c, t, k, r }),
        (0u8..4, 0u8..16, 0u8..=4).prop_map(|(a, value, len)| F::PrefixMatch { a, value, len }),
        (0u8..4, 0u8..16, any::<bool>()).prop_map(|(a, k, flip)| F::LeConst { a, k, flip }),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| F::Not(Box::new(f))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Iff(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| F::Implies(Box::new(a), Box::new(b))),
        ]
    })
}

/// A bit-vector equality as the encoder asserts them under a guard: two
/// variables, or a variable against a mux.
fn equality() -> impl Strategy<Value = F> {
    prop_oneof![
        (0u8..4, 0u8..4).prop_map(|(a, b)| F::BvEq(a, b)),
        (0u8..4, 0u8..4, 0u8..16, 0u8..4).prop_map(|(c, t, k, r)| F::IteEq { c, t, k, r }),
    ]
}

/// What gets asserted: any formula, or the encoder's dominant top-level
/// shape `g ⇒ (eq ∧ eq ∧ (a ∨ b))` — alone or beside `g` — which the
/// blaster lowers by guard pushing: clauses under `¬g`, no literal for
/// the equalities.
fn root() -> impl Strategy<Value = F> {
    let guarded = (0u8..4, equality(), equality(), formula(), formula(), any::<bool>()).prop_map(
        |(g, e1, e2, a, b, guard_holds)| {
            let body = F::And(
                Box::new(F::And(Box::new(e1), Box::new(e2))),
                Box::new(F::Or(Box::new(a), Box::new(b))),
            );
            let implication = F::Implies(Box::new(F::Var(g)), Box::new(body));
            if guard_holds {
                // Asserted beside its guard, so the pushed clauses bind.
                F::And(Box::new(F::Var(g)), Box::new(implication))
            } else {
                implication
            }
        },
    );
    prop_oneof![formula(), guarded]
}

struct Env {
    bools: Vec<TermId>,
    bvs: Vec<TermId>,
}

fn env(ctx: &mut Context) -> Env {
    Env {
        bools: (0..4).map(|i| ctx.fresh_const(format!("b{i}"), Sort::Bool)).collect(),
        bvs: (0..4).map(|i| ctx.fresh_const(format!("v{i}"), Sort::bitvec(4))).collect(),
    }
}

fn build(ctx: &mut Context, f: &F, env: &Env) -> TermId {
    match f {
        F::Var(i) => env.bools[*i as usize],
        F::Not(a) => {
            let t = build(ctx, a, env);
            ctx.not(t)
        }
        F::And(a, b) => {
            let (x, y) = (build(ctx, a, env), build(ctx, b, env));
            ctx.and(&[x, y])
        }
        F::Or(a, b) => {
            let (x, y) = (build(ctx, a, env), build(ctx, b, env));
            ctx.or(&[x, y])
        }
        F::Iff(a, b) => {
            let (x, y) = (build(ctx, a, env), build(ctx, b, env));
            ctx.iff(x, y)
        }
        F::Implies(a, b) => {
            let (x, y) = (build(ctx, a, env), build(ctx, b, env));
            ctx.implies(x, y)
        }
        F::BvEq(a, b) => ctx.eq(env.bvs[*a as usize], env.bvs[*b as usize]),
        F::BvLe(a, b) => ctx.bv_ule(env.bvs[*a as usize], env.bvs[*b as usize]),
        F::IteEq { c, t, k, r } => {
            let k = ctx.bv_const(*k as u64, 4);
            let ite = ctx.ite(env.bools[*c as usize], env.bvs[*t as usize], k);
            ctx.eq(ite, env.bvs[*r as usize])
        }
        F::PrefixMatch { a, value, len } => {
            ctx.bv_prefix_match(env.bvs[*a as usize], *value as u64, *len as u32)
        }
        F::LeConst { a, k, flip } => {
            let k = ctx.bv_const(*k as u64, 4);
            if *flip {
                ctx.bv_ule(k, env.bvs[*a as usize])
            } else {
                ctx.bv_ule(env.bvs[*a as usize], k)
            }
        }
    }
}

/// Reference evaluation of a formula under concrete assignments.
fn eval_ref(f: &F, bools: &[bool; 4], bvs: &[u8; 4]) -> bool {
    match f {
        F::Var(i) => bools[*i as usize],
        F::Not(a) => !eval_ref(a, bools, bvs),
        F::And(a, b) => eval_ref(a, bools, bvs) && eval_ref(b, bools, bvs),
        F::Or(a, b) => eval_ref(a, bools, bvs) || eval_ref(b, bools, bvs),
        F::Iff(a, b) => eval_ref(a, bools, bvs) == eval_ref(b, bools, bvs),
        F::Implies(a, b) => !eval_ref(a, bools, bvs) || eval_ref(b, bools, bvs),
        F::BvEq(a, b) => bvs[*a as usize] == bvs[*b as usize],
        F::BvLe(a, b) => bvs[*a as usize] <= bvs[*b as usize],
        F::IteEq { c, t, k, r } => {
            let lhs = if bools[*c as usize] { bvs[*t as usize] } else { *k };
            lhs == bvs[*r as usize]
        }
        F::PrefixMatch { a, value, len } => {
            let shift = 4 - *len as u32;
            *len == 0 || bvs[*a as usize] >> shift == *value >> shift
        }
        F::LeConst { a, k, flip } => {
            if *flip {
                *k <= bvs[*a as usize]
            } else {
                bvs[*a as usize] <= *k
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// SAT answers come with models that really satisfy the assertion.
    #[test]
    fn models_satisfy_assertions(f in root()) {
        let mut ctx = Context::new();
        let env = env(&mut ctx);
        let t = build(&mut ctx, &f, &env);
        ctx.assert(t);
        if ctx.check() == SatResult::Sat {
            prop_assert!(ctx.eval_bool(t), "model does not satisfy the assertion: {f:?}");
            // The harvested values, read back through the reference
            // evaluator, must satisfy the formula too.
            let bools: [bool; 4] = std::array::from_fn(|i| ctx.eval_bool(env.bools[i]));
            let bvs: [u8; 4] = std::array::from_fn(|i| ctx.eval_bv(env.bvs[i]) as u8);
            prop_assert!(eval_ref(&f, &bools, &bvs), "reference rejects the model of {f:?}");
        }
    }

    /// The solver agrees with brute-force enumeration of every assignment
    /// to the four booleans and the four 4-bit vectors (the constants in
    /// the leaves make the actual values matter, not just their order).
    #[test]
    fn agrees_with_bruteforce(f in root()) {
        let mut ctx = Context::new();
        let env = env(&mut ctx);
        let t = build(&mut ctx, &f, &env);
        ctx.assert(t);
        let solver_sat = ctx.check() == SatResult::Sat;

        let brute_sat = (0u32..16).any(|bm| {
            let bools = [bm & 1 != 0, bm & 2 != 0, bm & 4 != 0, bm & 8 != 0];
            (0u32..1 << 16).any(|vm| {
                let bvs = [
                    (vm & 15) as u8,
                    ((vm >> 4) & 15) as u8,
                    ((vm >> 8) & 15) as u8,
                    ((vm >> 12) & 15) as u8,
                ];
                eval_ref(&f, &bools, &bvs)
            })
        });
        prop_assert_eq!(solver_sat, brute_sat, "solver disagrees with brute force on {:?}", f);
    }
}

#[test]
fn deep_nesting_does_not_blow_up() {
    // A linear chain of implications with a contradiction at the end.
    let mut ctx = Context::new();
    let vars: Vec<TermId> =
        (0..200).map(|i| ctx.fresh_const(format!("x{i}"), Sort::Bool)).collect();
    ctx.assert(vars[0]);
    for w in vars.windows(2) {
        let imp = ctx.implies(w[0], w[1]);
        ctx.assert(imp);
    }
    let last = *vars.last().unwrap();
    let nl = ctx.not(last);
    ctx.assert(nl);
    assert_eq!(ctx.check(), SatResult::Unsat);
}

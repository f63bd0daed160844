//! ROBDD-backed rule-arm reachability: the [`vmn_analysis::ArmDecider`]
//! implementation the lint pass uses to prove rule arms dead.
//!
//! Unlike the dataplane's transfer compilation (stateless models only),
//! this decider handles *every* model by over-approximating what it
//! cannot express precisely:
//!
//! * a `StateContains` read of a state set some rule inserts into
//!   becomes a fresh free boolean variable (the entry may or may not be
//!   present — both worlds stay satisfiable);
//! * a read of a state set no rule ever inserts into is `false`
//!   (history-defined state starts empty and stays empty);
//! * origin guards get their own 32-bit variable block — in stateful
//!   models replayed packets can carry an origin that differs from the
//!   current source, so the dataplane's origin-reads-source-bits
//!   shortcut would be unsound here;
//!
//! Over-approximation only ever *adds* satisfying assignments, so an
//! UNSAT verdict — `guard[arm] ∧ ¬guard[0] ∧ … ∧ ¬guard[arm-1] ∧ excl`
//! has no model — proves the arm unreachable in every concrete
//! execution, which is exactly the soundness contract
//! [`vmn_analysis::ArmDecider`] demands. A SAT verdict is merely "not
//! provably dead".

use crate::{Bdd, Ref};
use std::collections::{BTreeSet, HashMap};
use vmn_analysis::ArmDecider;
use vmn_mbox::{Action, Guard, MboxModel};

/// Variable layout: header fields first (matching the dataplane), then
/// a dedicated origin block, then oracles and state-read scratch
/// variables allocated on demand.
const SRC_BASE: u32 = 0;
const DST_BASE: u32 = 32;
const SPORT_BASE: u32 = 64;
const DPORT_BASE: u32 = 80;
const ORIGIN_BASE: u32 = 96;
const DYN_BASE: u32 = 128;

fn field_vars(base: u32, width: u32) -> Vec<u32> {
    (base..base + width).collect()
}

/// The decision procedure. Construction is free; each [`ArmDecider`]
/// query builds the guard chain in a per-model manager (models are tiny
/// — tens of BDD nodes — so no cross-call caching is needed).
#[derive(Default)]
pub struct BddArmDecider;

struct ModelCtx<'m> {
    man: Bdd,
    model: &'m MboxModel,
    /// State sets with at least one `Insert` anywhere in the model.
    written: BTreeSet<&'m str>,
    oracle_var: HashMap<&'m str, u32>,
    /// One free variable per (state, key-expr) read shape: the same
    /// lookup repeated across arms must agree, distinct lookups are
    /// independent.
    state_var: HashMap<String, u32>,
    next_dyn: u32,
}

impl<'m> ModelCtx<'m> {
    fn new(model: &'m MboxModel) -> ModelCtx<'m> {
        let written = model
            .rules
            .iter()
            .flat_map(|r| r.actions.iter())
            .filter_map(|a| match a {
                Action::Insert(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        let oracle_var: HashMap<&str, u32> = model
            .oracles
            .iter()
            .enumerate()
            .map(|(i, o)| (o.name.as_str(), DYN_BASE + i as u32))
            .collect();
        let next_dyn = DYN_BASE + oracle_var.len() as u32;
        ModelCtx {
            man: Bdd::new(),
            model,
            written,
            oracle_var,
            state_var: HashMap::new(),
            next_dyn,
        }
    }

    /// Mirrors `Dataplane::compile_guard` for the shared cases; the
    /// differences (origin block, state reads) are the ones documented
    /// at module level.
    fn compile(&mut self, g: &Guard) -> Ref {
        match g {
            Guard::True => Bdd::TRUE,
            Guard::Not(inner) => {
                let f = self.compile(inner);
                self.man.not(f)
            }
            Guard::And(gs) => {
                let mut r = Bdd::TRUE;
                for inner in gs {
                    let f = self.compile(inner);
                    r = self.man.and(r, f);
                }
                r
            }
            Guard::Or(gs) => {
                let mut r = Bdd::FALSE;
                for inner in gs {
                    let f = self.compile(inner);
                    r = self.man.or(r, f);
                }
                r
            }
            Guard::SrcIn(p) => self.prefix_pred(SRC_BASE, *p),
            Guard::DstIn(p) => self.prefix_pred(DST_BASE, *p),
            Guard::OriginIn(p) => self.prefix_pred(ORIGIN_BASE, *p),
            Guard::SrcIs(a) => self.man.bits_eq(&field_vars(SRC_BASE, 32), a.0 as u64),
            Guard::DstIs(a) => self.man.bits_eq(&field_vars(DST_BASE, 32), a.0 as u64),
            Guard::OriginIs(a) => self.man.bits_eq(&field_vars(ORIGIN_BASE, 32), a.0 as u64),
            Guard::SrcPortIs(p) => self.man.bits_eq(&field_vars(SPORT_BASE, 16), *p as u64),
            Guard::DstPortIs(p) => self.man.bits_eq(&field_vars(DPORT_BASE, 16), *p as u64),
            Guard::AclMatch(name) => {
                let pairs = self.model.acl_pairs(name).unwrap_or(&[]).to_vec();
                let mut r = Bdd::FALSE;
                for (sp, dp) in pairs {
                    let s = self.prefix_pred(SRC_BASE, sp);
                    let d = self.prefix_pred(DST_BASE, dp);
                    let both = self.man.and(s, d);
                    r = self.man.or(r, both);
                }
                r
            }
            Guard::Oracle(name) => {
                let v = self.oracle_var[name.as_str()];
                self.man.var(v)
            }
            Guard::StateContains { state, key } => {
                if !self.written.contains(state.as_str()) {
                    return Bdd::FALSE;
                }
                let shape = format!("{state}\u{0}{key:?}");
                let v = *self.state_var.entry(shape).or_insert_with(|| {
                    let v = self.next_dyn;
                    self.next_dyn += 1;
                    v
                });
                self.man.var(v)
            }
        }
    }

    fn prefix_pred(&mut self, base: u32, p: vmn_net::Prefix) -> Ref {
        self.man.bits_prefix(&field_vars(base, 32), p.addr().0 as u64, p.len() as usize)
    }

    /// At most one yes within each exclusive oracle group.
    fn exclusivity(&mut self) -> Ref {
        let mut excl = Bdd::TRUE;
        for group in &self.model.exclusive_oracles {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    let va = self.man.var(self.oracle_var[a.as_str()]);
                    let vb = self.man.var(self.oracle_var[b.as_str()]);
                    let both = self.man.and(va, vb);
                    let not_both = self.man.not(both);
                    excl = self.man.and(excl, not_both);
                }
            }
        }
        excl
    }
}

impl ArmDecider for BddArmDecider {
    fn arm_reachable(&mut self, model: &MboxModel, arm: usize) -> Option<bool> {
        if arm >= model.rules.len() {
            return None;
        }
        let mut ctx = ModelCtx::new(model);
        let mut fired = ctx.compile(&model.rules[arm].guard);
        for earlier in &model.rules[..arm] {
            let g = ctx.compile(&earlier.guard);
            let ng = ctx.man.not(g);
            fired = ctx.man.and(fired, ng);
        }
        let excl = ctx.exclusivity();
        fired = ctx.man.and(fired, excl);
        Some(fired != Bdd::FALSE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn_analysis::analyze_with;
    use vmn_mbox::{models, KeyExpr};
    use vmn_net::Prefix;

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn subsumed_guard_is_proven_dead() {
        // The seeded mutant from the issue: /16 is subsumed by the /8
        // before it, so arm 1 can never fire — invisible to constant
        // folding, provable by the BDD.
        let m = vmn_mbox::MboxModel::new("mutant")
            .rule(Guard::SrcIn(px("10.0.0.0/8")), vec![Action::Forward])
            .rule(Guard::SrcIn(px("10.0.0.0/16")), vec![Action::Drop])
            .rule(Guard::True, vec![Action::Drop]);
        assert!(m.validate().is_ok());
        let a = analyze_with(&m, &mut BddArmDecider);
        assert_eq!(a.dead_arms, vec![1]);
        assert!(a.diagnostics.iter().any(|d| d.code == "dead-arm" && d.rule == Some(1)));

        // Reordered, both arms are reachable (the /8 catches what the
        // /16 does not).
        let ok = vmn_mbox::MboxModel::new("ok")
            .rule(Guard::SrcIn(px("10.0.0.0/16")), vec![Action::Forward])
            .rule(Guard::SrcIn(px("10.0.0.0/8")), vec![Action::Drop])
            .rule(Guard::True, vec![Action::Drop]);
        assert!(analyze_with(&ok, &mut BddArmDecider).dead_arms.is_empty());
    }

    #[test]
    fn exclusive_oracles_kill_conjunction_arms() {
        // An arm demanding two mutually-exclusive oracles both answer
        // yes is unreachable under the output constraint.
        let m = vmn_mbox::MboxModel::new("m")
            .oracle("http?")
            .oracle("dns?")
            .exclusive(["http?", "dns?"])
            .rule(
                Guard::And(vec![Guard::Oracle("http?".into()), Guard::Oracle("dns?".into())]),
                vec![Action::Drop],
            )
            .rule(Guard::True, vec![Action::Forward]);
        assert!(m.validate().is_ok());
        let a = analyze_with(&m, &mut BddArmDecider);
        assert_eq!(a.dead_arms, vec![0]);
    }

    #[test]
    fn state_reads_stay_satisfiable_in_stateful_models() {
        // The learning firewall's state read must NOT be proven dead:
        // the free variable keeps both worlds open. And repeating the
        // same lookup shape must be consistent — `¬contains ∧ contains`
        // is unsatisfiable.
        let fw = models::learning_firewall("fw", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))]);
        let a = analyze_with(&fw, &mut BddArmDecider);
        assert!(a.dead_arms.is_empty(), "all firewall arms are live, got {:?}", a.dead_arms);

        let contains = Guard::StateContains { state: "s".into(), key: KeyExpr::Flow };
        let m = vmn_mbox::MboxModel::new("m")
            .state("s", KeyExpr::Flow)
            .rule(contains.clone(), vec![Action::Forward])
            .rule(contains.clone(), vec![Action::Insert("s".into()), Action::Drop])
            .rule(Guard::True, vec![Action::Insert("s".into()), Action::Forward]);
        assert!(m.validate().is_ok());
        // Arm 1 repeats arm 0's exact lookup, so "it holds now but did
        // not before" is contradictory — dead. Arm 2 (the negation
        // world) stays live.
        let a = analyze_with(&m, &mut BddArmDecider);
        assert_eq!(a.dead_arms, vec![1]);
    }

    #[test]
    fn whole_library_stays_fully_live_under_the_decider() {
        // No built-in model (standard configs) has a dead arm — the
        // lint-clean guarantee extends to the precise decider.
        let lib = vec![
            models::learning_firewall("fw", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))]),
            models::acl_firewall("aclfw", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))]),
            models::nat("nat", px("10.0.0.0/8"), "1.2.3.4".parse().unwrap()),
            models::load_balancer(
                "lb",
                "10.0.0.9".parse().unwrap(),
                vec!["10.0.0.1".parse().unwrap()],
            ),
            models::idps("idps"),
            models::ids_monitor("ids"),
            models::scrubber("sb"),
            models::content_cache(
                "cache",
                [px("10.1.0.0/16")],
                vec![(px("10.3.0.0/16"), px("10.1.0.0/16"))],
            ),
            models::application_firewall("appfw", &["skype?"], &["skype?", "jabber?"]),
            models::wan_optimizer("wanopt"),
            models::gateway("gw"),
        ];
        for m in lib {
            let a = analyze_with(&m, &mut BddArmDecider);
            assert!(a.dead_arms.is_empty(), "{}: {:?}", m.type_name, a.dead_arms);
        }
    }
}

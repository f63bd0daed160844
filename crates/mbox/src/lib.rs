//! Middlebox models: the loop-free, event-driven modelling language of
//! VMN (§3.4) and the standard model library.
//!
//! A middlebox model describes, per received packet, whether and how the
//! packet is forwarded, how mutable state evolves, and what the box does
//! under failure. Models are deliberately *abstract*: packet
//! classification beyond header fields is delegated to named
//! **classification oracles** (`malicious?`, `skype?`, …) exactly as in
//! the paper — the verifier quantifies over all oracle behaviours.
//!
//! The same model drives two interpreters:
//!
//! * the **symbolic encoder** in the `vmn` crate compiles models into
//!   history-predicate axioms (the paper's `established(flow(p)) ⟺ ♦(…)`
//!   style), and
//! * the **concrete interpreter** in [`exec`] executes them operationally
//!   for the discrete-event simulator and counterexample replay.
//!
//! State is *history-defined*: a state set contains key `k` after the box
//! processed some earlier packet whose matched rule performed an
//! [`Action::Insert`] and whose key expression evaluated to `k`. This is
//! precisely how the paper axiomatises middlebox state, and it is what
//! makes a model's flow-parallel/origin-agnostic class (§4.1) derivable
//! from its rules: `vmn_analysis::parallelism` reads it off the keys of
//! the model's state accesses, and no model declares it.
//!
//! # Example: the paper's Listing 1 (learning firewall)
//!
//! ```
//! use vmn_mbox::{FailMode, KeyExpr};
//! use vmn_net::Prefix;
//!
//! let acl: Vec<(Prefix, Prefix)> = vec![
//!     ("10.0.0.0/24".parse().unwrap(), "10.0.1.0/24".parse().unwrap()),
//! ];
//! let fw = vmn_mbox::models::learning_firewall("fw", acl);
//! assert_eq!(fw.fail_mode, FailMode::Closed);
//! // No parallelism class is declared: the firewall keys its state by
//! // flow, and that is what makes it flow-parallel.
//! assert!(fw.states.iter().all(|s| s.key == KeyExpr::Flow));
//! ```

#![forbid(unsafe_code)]

pub mod exec;
pub mod models;

use std::fmt;
use vmn_net::{Address, Prefix};

/// Failure behaviour of a middlebox (the paper's `@FailClosed` /
/// fail-open annotation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum FailMode {
    /// Packets are dropped while the box is failed.
    Closed,
    /// Packets pass through unmodified while the box is failed.
    Open,
}

/// How a state key is computed from the packet being processed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum KeyExpr {
    /// Direction-normalised 5-tuple ([`vmn_net::Header::flow`]).
    Flow,
    /// Source address.
    SrcAddr,
    /// Destination address.
    DstAddr,
    /// The packet's data origin (`origin(p)` in the paper).
    Origin,
    /// The (src, dst) address pair.
    SrcDst,
}

/// A declared state set.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateDecl {
    pub name: String,
    /// The key expression used at insertion time.
    pub key: KeyExpr,
}

/// A declared classification oracle (abstract packet class).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OracleDecl {
    /// Name, conventionally ending in `?` (e.g. `malicious?`).
    pub name: String,
}

/// Predicate over the packet being processed, middlebox state and oracles.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Guard {
    True,
    Not(Box<Guard>),
    And(Vec<Guard>),
    Or(Vec<Guard>),
    SrcIn(Prefix),
    DstIn(Prefix),
    SrcIs(Address),
    DstIs(Address),
    SrcPortIs(u16),
    DstPortIs(u16),
    OriginIn(Prefix),
    OriginIs(Address),
    /// The (src, dst) pair is allowed by the named ACL in the model's
    /// configuration (the paper's `acl.contains((p.src, p.dest))`).
    AclMatch(String),
    /// The named state set contains the key computed by `key` from the
    /// *current* (possibly rewritten) packet.
    StateContains {
        state: String,
        key: KeyExpr,
    },
    /// The named classification oracle says yes for this packet.
    Oracle(String),
}

impl Guard {
    pub fn and(gs: impl IntoIterator<Item = Guard>) -> Guard {
        Guard::And(gs.into_iter().collect())
    }

    pub fn or(gs: impl IntoIterator<Item = Guard>) -> Guard {
        Guard::Or(gs.into_iter().collect())
    }

    /// Guard negation. An associated constructor (like [`Guard::and`] /
    /// [`Guard::or`]), not a `std::ops::Not` impl: it consumes a `Guard`
    /// argument rather than `self`, matching how model builders write
    /// `Guard::not(...)` prefix-style in guard expressions.
    #[allow(clippy::should_implement_trait)]
    pub fn not(g: Guard) -> Guard {
        Guard::Not(Box::new(g))
    }

    /// State sets read by this guard.
    fn states_read<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Guard::Not(g) => g.states_read(out),
            Guard::And(gs) | Guard::Or(gs) => gs.iter().for_each(|g| g.states_read(out)),
            Guard::StateContains { state, .. } => out.push(state),
            _ => {}
        }
    }

    /// This guard under the translation `a ↦ a ^ mask` of the address
    /// space (see [`MboxModel::translated`]).
    fn translated(&self, mask: u32) -> Guard {
        match self {
            Guard::Not(g) => Guard::not(g.translated(mask)),
            Guard::And(gs) => Guard::and(gs.iter().map(|g| g.translated(mask))),
            Guard::Or(gs) => Guard::or(gs.iter().map(|g| g.translated(mask))),
            Guard::SrcIn(p) => Guard::SrcIn(p.translated(mask)),
            Guard::DstIn(p) => Guard::DstIn(p.translated(mask)),
            Guard::OriginIn(p) => Guard::OriginIn(p.translated(mask)),
            Guard::SrcIs(a) => Guard::SrcIs(a.translated(mask)),
            Guard::DstIs(a) => Guard::DstIs(a.translated(mask)),
            Guard::OriginIs(a) => Guard::OriginIs(a.translated(mask)),
            other => other.clone(),
        }
    }

    /// Oracles referenced by this guard.
    fn oracles<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Guard::Not(g) => g.oracles(out),
            Guard::And(gs) | Guard::Or(gs) => gs.iter().for_each(|g| g.oracles(out)),
            Guard::Oracle(name) => out.push(name),
            _ => {}
        }
    }
}

/// Effect of a matched rule, applied in order.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// Emit the current packet toward its (possibly rewritten) destination.
    Forward,
    /// Emit nothing.
    Drop,
    /// Record the current packet in the named state set (key per the
    /// state's declaration; the entry also remembers the packet's
    /// *original* pre-rewrite header, which reverse-direction actions can
    /// consult).
    Insert(String),
    /// Rewrite the source address.
    RewriteSrc(Address),
    /// Rewrite the destination address.
    RewriteDst(Address),
    /// Rewrite the destination to one of the given addresses,
    /// nondeterministically (load balancing; the verifier explores every
    /// choice, the simulator picks).
    RewriteDstOneOf(Vec<Address>),
    /// Rewrite the source port to a fresh, previously-unused value (NAT
    /// ephemeral ports; symbolic in the verifier).
    RewriteSrcPortFresh,
    /// Replace dst/dst-port with the original src/src-port remembered by
    /// the matching entry of the named state set (NAT reverse direction).
    RestoreDstFromState(String),
    /// Turn the packet into a response served from the named state set:
    /// src/dst and ports are swapped, and src, origin and payload tag are
    /// taken from the remembered original (content-cache hits).
    RespondFromState(String),
    /// Replace the payload tag with a fresh value — the paper's model of
    /// complex modifications such as encryption or compression.
    HavocTag,
}

impl Action {
    /// This action under the translation `a ↦ a ^ mask` of the address
    /// space (see [`MboxModel::translated`]).
    fn translated(&self, mask: u32) -> Action {
        match self {
            Action::RewriteSrc(a) => Action::RewriteSrc(a.translated(mask)),
            Action::RewriteDst(a) => Action::RewriteDst(a.translated(mask)),
            Action::RewriteDstOneOf(addrs) => {
                Action::RewriteDstOneOf(addrs.iter().map(|a| a.translated(mask)).collect())
            }
            other => other.clone(),
        }
    }
}

/// One `when guard => actions` arm; arms are evaluated in order and the
/// first whose guard matches fires (the paper's event-driven `when`
/// blocks).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleArm {
    pub guard: Guard,
    pub actions: Vec<Action>,
}

/// A complete middlebox model.
///
/// The IR compares structurally (`Eq`, `Hash`, `Ord`): two models are equal
/// exactly when every field is.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MboxModel {
    /// Model/type name; topology nodes reference models by this tag.
    pub type_name: String,
    pub fail_mode: FailMode,
    pub states: Vec<StateDecl>,
    pub oracles: Vec<OracleDecl>,
    /// Groups of oracles that are mutually exclusive (§3.4's output
    /// constraints, e.g. a packet is at most one of Skype/Jabber).
    pub exclusive_oracles: Vec<Vec<String>>,
    /// Named ACLs used by [`Guard::AclMatch`]: allowed (src, dst) prefix
    /// pairs.
    pub acls: Vec<(String, Vec<(Prefix, Prefix)>)>,
    pub rules: Vec<RuleArm>,
}

impl MboxModel {
    pub fn new(type_name: impl Into<String>) -> MboxModel {
        MboxModel {
            type_name: type_name.into(),
            fail_mode: FailMode::Closed,
            states: Vec::new(),
            oracles: Vec::new(),
            exclusive_oracles: Vec::new(),
            acls: Vec::new(),
            rules: Vec::new(),
        }
    }

    pub fn fail_mode(mut self, m: FailMode) -> MboxModel {
        self.fail_mode = m;
        self
    }

    pub fn state(mut self, name: impl Into<String>, key: KeyExpr) -> MboxModel {
        self.states.push(StateDecl { name: name.into(), key });
        self
    }

    pub fn oracle(mut self, name: impl Into<String>) -> MboxModel {
        self.oracles.push(OracleDecl { name: name.into() });
        self
    }

    pub fn exclusive(mut self, names: impl IntoIterator<Item = impl Into<String>>) -> MboxModel {
        self.exclusive_oracles.push(names.into_iter().map(Into::into).collect());
        self
    }

    pub fn acl(mut self, name: impl Into<String>, pairs: Vec<(Prefix, Prefix)>) -> MboxModel {
        self.acls.push((name.into(), pairs));
        self
    }

    pub fn rule(mut self, guard: Guard, actions: Vec<Action>) -> MboxModel {
        self.rules.push(RuleArm { guard, actions });
        self
    }

    /// This model under the translation `a ↦ a ^ mask` of the address
    /// space: every address it names is XORed with `mask`, and every
    /// prefix becomes its image block. Names, ports, state keys and rule
    /// order stay. The model reads addresses only through equality, prefix
    /// membership and flow identity, all of which a translation keeps, so
    /// processing a translated header with the translated model gives the
    /// translated outcome ([`exec::process`] commutes with translation).
    pub fn translated(&self, mask: u32) -> MboxModel {
        let pairs = |acl: &[(Prefix, Prefix)]| {
            acl.iter().map(|(s, d)| (s.translated(mask), d.translated(mask))).collect()
        };
        MboxModel {
            type_name: self.type_name.clone(),
            fail_mode: self.fail_mode,
            states: self.states.clone(),
            oracles: self.oracles.clone(),
            exclusive_oracles: self.exclusive_oracles.clone(),
            acls: self.acls.iter().map(|(name, acl)| (name.clone(), pairs(acl))).collect(),
            rules: self
                .rules
                .iter()
                .map(|r| RuleArm {
                    guard: r.guard.translated(mask),
                    actions: r.actions.iter().map(|a| a.translated(mask)).collect(),
                })
                .collect(),
        }
    }

    pub fn acl_pairs(&self, name: &str) -> Option<&[(Prefix, Prefix)]> {
        self.acls.iter().find(|(n, _)| n == name).map(|(_, p)| p.as_slice())
    }

    pub fn state_decl(&self, name: &str) -> Option<&StateDecl> {
        self.states.iter().find(|s| s.name == name)
    }

    /// Validates internal references (state names, ACL names, oracles).
    pub fn validate(&self) -> Result<(), ModelError> {
        let state_names: Vec<&str> = self.states.iter().map(|s| s.name.as_str()).collect();
        let oracle_names: Vec<&str> = self.oracles.iter().map(|o| o.name.as_str()).collect();
        for (i, rule) in self.rules.iter().enumerate() {
            let mut reads = Vec::new();
            rule.guard.states_read(&mut reads);
            for s in reads {
                if !state_names.contains(&s) {
                    return Err(ModelError::UnknownState { rule: i, name: s.to_string() });
                }
            }
            let mut oracles = Vec::new();
            rule.guard.oracles(&mut oracles);
            for o in oracles {
                if !oracle_names.contains(&o) {
                    return Err(ModelError::UnknownOracle { rule: i, name: o.to_string() });
                }
            }
            let mut acl_refs = Vec::new();
            collect_acl_refs(&rule.guard, &mut acl_refs);
            for a in acl_refs {
                if self.acl_pairs(a).is_none() {
                    return Err(ModelError::UnknownAcl { rule: i, name: a.to_string() });
                }
            }
            for action in &rule.actions {
                let touched = match action {
                    Action::Insert(s)
                    | Action::RestoreDstFromState(s)
                    | Action::RespondFromState(s) => Some(s),
                    _ => None,
                };
                if let Some(s) = touched {
                    if !state_names.contains(&s.as_str()) {
                        return Err(ModelError::UnknownState { rule: i, name: s.clone() });
                    }
                }
            }
            let emits = rule
                .actions
                .iter()
                .filter(|a| {
                    matches!(a, Action::Forward | Action::Drop | Action::RespondFromState(_))
                })
                .count();
            if emits != 1 {
                return Err(ModelError::BadEmitCount { rule: i, emits });
            }
        }
        for group in &self.exclusive_oracles {
            for name in group {
                if !oracle_names.contains(&name.as_str()) {
                    return Err(ModelError::UnknownOracle { rule: usize::MAX, name: name.clone() });
                }
            }
        }
        Ok(())
    }
}

fn collect_acl_refs<'a>(g: &'a Guard, out: &mut Vec<&'a str>) {
    match g {
        Guard::Not(inner) => collect_acl_refs(inner, out),
        Guard::And(gs) | Guard::Or(gs) => gs.iter().for_each(|g| collect_acl_refs(g, out)),
        Guard::AclMatch(name) => out.push(name),
        _ => {}
    }
}

/// Validation errors for middlebox models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    UnknownState {
        rule: usize,
        name: String,
    },
    UnknownOracle {
        rule: usize,
        name: String,
    },
    UnknownAcl {
        rule: usize,
        name: String,
    },
    /// Every rule must emit exactly once (Forward, Drop, or Respond).
    BadEmitCount {
        rule: usize,
        emits: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownState { rule, name } => {
                write!(f, "rule {rule} references unknown state {name:?}")
            }
            ModelError::UnknownOracle { rule, name } => {
                write!(f, "rule {rule} references unknown oracle {name:?}")
            }
            ModelError::UnknownAcl { rule, name } => {
                write!(f, "rule {rule} references unknown ACL {name:?}")
            }
            ModelError::BadEmitCount { rule, emits } => {
                write!(f, "rule {rule} must emit exactly once, found {emits} emit actions")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn builder_and_validation() {
        let m = MboxModel::new("test-fw")
            .state("established", KeyExpr::Flow)
            .acl("acl", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))])
            .rule(
                Guard::StateContains { state: "established".into(), key: KeyExpr::Flow },
                vec![Action::Forward],
            )
            .rule(
                Guard::AclMatch("acl".into()),
                vec![Action::Insert("established".into()), Action::Forward],
            )
            .rule(Guard::True, vec![Action::Drop]);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn unknown_state_rejected() {
        let m = MboxModel::new("bad").rule(
            Guard::StateContains { state: "nope".into(), key: KeyExpr::Flow },
            vec![Action::Forward],
        );
        assert!(matches!(m.validate(), Err(ModelError::UnknownState { .. })));
    }

    #[test]
    fn unknown_acl_rejected() {
        let m = MboxModel::new("bad").rule(Guard::AclMatch("ghost".into()), vec![Action::Drop]);
        assert!(matches!(m.validate(), Err(ModelError::UnknownAcl { .. })));
    }

    #[test]
    fn rules_must_emit_exactly_once() {
        let m = MboxModel::new("bad").rule(Guard::True, vec![Action::HavocTag]);
        assert!(matches!(m.validate(), Err(ModelError::BadEmitCount { emits: 0, .. })));
        let m2 = MboxModel::new("bad2").rule(Guard::True, vec![Action::Forward, Action::Drop]);
        assert!(matches!(m2.validate(), Err(ModelError::BadEmitCount { emits: 2, .. })));
    }

    #[test]
    fn exclusive_oracle_groups_validated() {
        let ok = MboxModel::new("appfw")
            .oracle("skype?")
            .oracle("jabber?")
            .exclusive(["skype?", "jabber?"]);
        assert!(ok.validate().is_ok());
        let bad = MboxModel::new("appfw").oracle("skype?").exclusive(["skype?", "ghost?"]);
        assert!(bad.validate().is_err());
    }
}

//! Deltas: incremental edits to a [`NetSpec`].
//!
//! Each delta applies to the *symbolic* spec and reports a
//! [`TouchSet`] — which middleboxes' behaviour the edit changes, and so
//! which part of the verifier's epoch it can move — that the daemon
//! feeds into `Verifier::swap_network`:
//!
//! * **Structural and routing deltas** (nodes, links, routes, steers)
//!   return [`TouchSet::Everything`]. They can change the global
//!   header-class partition and per-scenario delivery for every slice,
//!   so the whole epoch is rebuilt to stay sound.
//! * **`SetModel`** returns [`TouchSet::Nodes`] for the one box —
//!   unless the new configuration changes the addresses the box *owns*
//!   (NAT external, LB VIP), which lives in the topology and escalates
//!   to `Everything`.
//! * **Invariant and scenario deltas** return [`TouchSet::Nothing`]:
//!   invariants and scenarios are registered lazily per check, so the
//!   epoch stays valid verbatim.
//!
//! The touch set also decides how much of the spec is re-materialised:
//! `Everything` rebuilds the structure (topology, name map, tables), while
//! `Nodes` and `Nothing` rebuild only the behavioural half over the
//! previous epoch's structure (see `NetSession::apply`).
//!
//! It also decides how much of the epoch the swap keeps. A
//! `Nodes` touch keeps topology, tables and node ids (a kind change only
//! retypes the box), so the verifier carries header classes, partition
//! and contract prelude over and resumes the contract arrivals from the
//! touched boxes when their models only widened. `Everything` rebuilds
//! the epoch; a `Nothing` touch keeps all of it. Both `Nodes` and
//! `Everything` drop the policy classes, which the verifier rebuilds
//! only when a slice holding a box that is not flow-parallel (a cache)
//! first reads them.
//!
//! The distinct question of which *cached verdicts* a delta may change
//! is answered later by slice-key comparison (see `service`).

use std::collections::BTreeSet;
use vmn_analysis::TouchSet;

use crate::json::Value;
use crate::spec::{err, NetSpec, NodeSpec, RouteSpec, SpecError, SteerSpec};

/// An incremental edit to a [`NetSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delta {
    /// Add a host, switch, or middlebox (with its configuration).
    AddNode(NodeSpec),
    /// Remove a node and every link, route, steer, and failure scenario
    /// that references it. Errors if a registered invariant still names
    /// it — invariants must be retired first, explicitly.
    RemoveNode(String),
    /// Replace a middlebox's configuration (same name, new args).
    SetModel {
        name: String,
        kind: String,
        args: Vec<String>,
    },
    AddLink {
        a: String,
        b: String,
    },
    RemoveLink {
        a: String,
        b: String,
    },
    AddRoute(RouteSpec),
    RemoveRoute(RouteSpec),
    AddSteer(SteerSpec),
    RemoveSteer(SteerSpec),
    /// Register an invariant or pipeline `verify` spec (same grammar as
    /// the `verify` config line, e.g. `node-isolation a -> b`).
    AddInvariant {
        spec: String,
    },
    /// Retire a previously registered `verify` spec (textual match,
    /// whitespace-normalised).
    RetireInvariant {
        spec: String,
    },
    /// Add a failure scenario (list of failed node names).
    AddScenario {
        fail: Vec<String>,
    },
    RemoveScenario {
        fail: Vec<String>,
    },
}

impl NetSpec {
    /// Applies a delta, returning the sessions it invalidates.
    ///
    /// On error the spec is unchanged (all validation happens before
    /// mutation).
    pub fn apply(&mut self, delta: &Delta) -> Result<TouchSet, SpecError> {
        match delta {
            Delta::AddNode(node) => {
                if self.node_spec(node.name()).is_some() {
                    return Err(err(0, format!("duplicate node name {:?}", node.name())));
                }
                if let NodeSpec::Mbox { name, kind, args } = node {
                    crate::spec::build_model(0, kind, name, args)?;
                    crate::spec::owned_addresses(kind, args).map_err(|m| err(0, m))?;
                }
                self.nodes.push((0, node.clone()));
                Ok(TouchSet::Everything)
            }
            Delta::RemoveNode(name) => {
                if self.node_spec(name).is_none() {
                    return Err(err(0, format!("unknown node {name:?}")));
                }
                if let Some(spec) =
                    self.verifies.iter().map(|(_, s)| s).find(|s| spec_names_node(s, name))
                {
                    return Err(err(
                        0,
                        format!("invariant {spec:?} still references {name:?}; retire it first"),
                    ));
                }
                self.nodes.retain(|(_, n)| n.name() != name);
                self.links.retain(|(_, a, b)| a != name && b != name);
                self.routes.retain(|(_, r)| r.switch != *name && r.next != *name);
                self.steers
                    .retain(|(_, s)| s.switch != *name && s.from != *name && s.next != *name);
                self.fails.retain(|(_, f)| !f.iter().any(|n| n == name));
                Ok(TouchSet::Everything)
            }
            Delta::SetModel { name, kind, args } => {
                let old = match self.node_spec(name) {
                    Some(NodeSpec::Mbox { kind, args, .. }) => (kind.clone(), args.clone()),
                    Some(_) => {
                        return Err(err(0, format!("{name:?} is not a middlebox")));
                    }
                    None => return Err(err(0, format!("unknown node {name:?}"))),
                };
                crate::spec::build_model(0, kind, name, args)?;
                let new_owned = crate::spec::owned_addresses(kind, args).map_err(|m| err(0, m))?;
                let old_owned =
                    crate::spec::owned_addresses(&old.0, &old.1).map_err(|m| err(0, m))?;
                for (_, n) in &mut self.nodes {
                    if n.name() == name {
                        *n = NodeSpec::Mbox {
                            name: name.clone(),
                            kind: kind.clone(),
                            args: args.clone(),
                        };
                    }
                }
                // Owned addresses live in the topology and feed the
                // global header classes: changing them is structural.
                if new_owned != old_owned {
                    Ok(TouchSet::Everything)
                } else {
                    Ok(TouchSet::node(name.clone()))
                }
            }
            Delta::AddLink { a, b } => {
                for n in [a, b] {
                    if self.node_spec(n).is_none() {
                        return Err(err(0, format!("unknown node {n:?}")));
                    }
                }
                if self.links.iter().any(|(_, x, y)| same_link(x, y, a, b)) {
                    return Err(err(0, format!("link {a} {b} already present")));
                }
                self.add_link(0, a.clone(), b.clone())?;
                Ok(TouchSet::Everything)
            }
            Delta::RemoveLink { a, b } => {
                let before = self.links.len();
                self.links.retain(|(_, x, y)| !same_link(x, y, a, b));
                if self.links.len() == before {
                    return Err(err(0, format!("no link {a} {b}")));
                }
                Ok(TouchSet::Everything)
            }
            Delta::AddRoute(r) => {
                self.routes.push((0, r.clone()));
                Ok(TouchSet::Everything)
            }
            Delta::RemoveRoute(r) => {
                let before = self.routes.len();
                self.routes.retain(|(_, x)| x != r);
                if self.routes.len() == before {
                    return Err(err(0, "no such route"));
                }
                Ok(TouchSet::Everything)
            }
            Delta::AddSteer(s) => {
                self.steers.push((0, s.clone()));
                Ok(TouchSet::Everything)
            }
            Delta::RemoveSteer(s) => {
                let before = self.steers.len();
                self.steers.retain(|(_, x)| x != s);
                if self.steers.len() == before {
                    return Err(err(0, "no such steer"));
                }
                Ok(TouchSet::Everything)
            }
            Delta::AddInvariant { spec } => {
                self.add_verify(0, spec)?;
                Ok(TouchSet::Nothing)
            }
            Delta::RetireInvariant { spec } => {
                let norm = normalize_spec(spec);
                let before = self.verifies.len();
                self.verifies.retain(|(_, s)| *s != norm);
                if self.verifies.len() == before {
                    return Err(err(0, format!("no invariant {norm:?}")));
                }
                Ok(TouchSet::Nothing)
            }
            Delta::AddScenario { fail } => {
                self.add_fail(0, fail.clone())?;
                Ok(TouchSet::Nothing)
            }
            Delta::RemoveScenario { fail } => {
                let key = scenario_key(fail);
                let before = self.fails.len();
                self.fails.retain(|(_, f)| scenario_key(f) != key);
                if self.fails.len() == before {
                    return Err(err(0, format!("no scenario {key:?}")));
                }
                Ok(TouchSet::Nothing)
            }
        }
    }
}

fn same_link(x: &str, y: &str, a: &str, b: &str) -> bool {
    (x == a && y == b) || (x == b && y == a)
}

/// Whitespace-normalises a `verify` spec so textual matching works.
pub fn normalize_spec(spec: &str) -> String {
    spec.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Canonical key for a failure scenario: sorted, deduplicated names.
pub fn scenario_key(fail: &[String]) -> String {
    let set: BTreeSet<&str> = fail.iter().map(String::as_str).collect();
    set.into_iter().collect::<Vec<_>>().join(",")
}

/// True if a `verify` spec's node tokens include `name`. Token positions
/// follow the grammar: every token except the keyword, `->`, and `via`
/// names a node (pipeline `via` operands are *types*, not nodes, so
/// they are excluded there).
fn spec_names_node(spec: &str, name: &str) -> bool {
    let toks: Vec<&str> = spec.split_whitespace().collect();
    let pipeline = toks.first() == Some(&"pipeline");
    let mut after_via = false;
    for (i, t) in toks.iter().enumerate() {
        if i == 0 || *t == "->" {
            continue;
        }
        if *t == "via" {
            after_via = true;
            continue;
        }
        if pipeline && i == 1 {
            continue; // the keyword `pipeline` shifted everything by one
        }
        if pipeline && after_via {
            continue; // middlebox *types*, not node names
        }
        if *t == name {
            return true;
        }
    }
    false
}

impl Delta {
    /// Decodes a delta from its protocol JSON, e.g.
    /// `{"op":"add-link","a":"sw1","b":"sw2"}`.
    pub fn from_json(v: &Value) -> Result<Delta, String> {
        let op = v.str_field("op").ok_or("delta needs an \"op\" field")?;
        let field = |k: &str| -> Result<String, String> {
            v.str_field(k).map(str::to_string).ok_or(format!("{op}: missing field {k:?}"))
        };
        let args_field = |k: &str| -> Result<Vec<String>, String> {
            match v.get(k) {
                None => Ok(Vec::new()),
                Some(Value::Str(s)) => Ok(s.split_whitespace().map(str::to_string).collect()),
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|i| {
                        i.as_str()
                            .map(str::to_string)
                            .ok_or(format!("{op}: {k:?} must hold strings"))
                    })
                    .collect(),
                Some(_) => Err(format!("{op}: {k:?} must be a string or array of strings")),
            }
        };
        let prio = || -> Result<i32, String> {
            match v.get("prio") {
                None => Ok(0),
                Some(p) => p
                    .as_f64()
                    .filter(|f| f.fract() == 0.0)
                    .map(|f| f as i32)
                    .ok_or(format!("{op}: \"prio\" must be an integer")),
            }
        };
        match op {
            "add-host" => {
                Ok(Delta::AddNode(NodeSpec::Host { name: field("name")?, addr: field("addr")? }))
            }
            "add-switch" => Ok(Delta::AddNode(NodeSpec::Switch { name: field("name")? })),
            "add-mbox" => Ok(Delta::AddNode(NodeSpec::Mbox {
                name: field("name")?,
                kind: field("kind")?,
                args: args_field("args")?,
            })),
            "remove-node" => Ok(Delta::RemoveNode(field("name")?)),
            "set-model" => Ok(Delta::SetModel {
                name: field("name")?,
                kind: field("kind")?,
                args: args_field("args")?,
            }),
            "add-link" => Ok(Delta::AddLink { a: field("a")?, b: field("b")? }),
            "remove-link" => Ok(Delta::RemoveLink { a: field("a")?, b: field("b")? }),
            "add-route" | "remove-route" => {
                let r = RouteSpec {
                    switch: field("switch")?,
                    prefix: field("prefix")?,
                    next: field("next")?,
                    prio: prio()?,
                };
                Ok(if op == "add-route" { Delta::AddRoute(r) } else { Delta::RemoveRoute(r) })
            }
            "add-steer" | "remove-steer" => {
                let s = SteerSpec {
                    switch: field("switch")?,
                    from: field("from")?,
                    prefix: field("prefix")?,
                    next: field("next")?,
                    prio: prio()?,
                };
                Ok(if op == "add-steer" { Delta::AddSteer(s) } else { Delta::RemoveSteer(s) })
            }
            "add-invariant" => Ok(Delta::AddInvariant { spec: field("spec")? }),
            "retire-invariant" => Ok(Delta::RetireInvariant { spec: field("spec")? }),
            "add-scenario" => Ok(Delta::AddScenario { fail: args_field("fail")? }),
            "remove-scenario" => Ok(Delta::RemoveScenario { fail: args_field("fail")? }),
            other => Err(format!("unknown delta op {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn base() -> NetSpec {
        NetSpec::parse(
            "host a 1.1.1.1\nhost b 2.2.2.2\nswitch sw\nfirewall fw\n\
             link a sw\nlink b sw\nlink fw sw\nautoroute\n\
             verify node-isolation a -> b\n",
        )
        .unwrap()
    }

    #[test]
    fn set_model_touches_only_the_box() {
        let mut spec = base();
        let t = spec
            .apply(&Delta::SetModel {
                name: "fw".into(),
                kind: "firewall".into(),
                args: vec!["allow".into(), "1.1.1.1/32".into(), "->".into(), "2.2.2.2/32".into()],
            })
            .unwrap();
        assert_eq!(t, TouchSet::node("fw"));
        // The edit is visible in the next materialisation.
        spec.materialize().unwrap().net.validate().unwrap();
    }

    #[test]
    fn invariant_and_scenario_deltas_touch_nothing() {
        let mut spec = base();
        let t = spec.apply(&Delta::AddScenario { fail: vec!["fw".into()] }).unwrap();
        assert!(t.is_nothing());
        let t =
            spec.apply(&Delta::AddInvariant { spec: "flow-isolation  a ->  b".into() }).unwrap();
        assert!(t.is_nothing());
        // Normalised text retires the same invariant.
        spec.apply(&Delta::RetireInvariant { spec: "flow-isolation a -> b".into() }).unwrap();
        spec.apply(&Delta::RemoveScenario { fail: vec!["fw".into()] }).unwrap();
        assert_eq!(spec.fail_specs().count(), 0);
    }

    #[test]
    fn structural_deltas_touch_everything() {
        let mut spec = base();
        assert_eq!(
            spec.apply(&Delta::AddNode(NodeSpec::Host {
                name: "c".into(),
                addr: "3.3.3.3".into()
            }))
            .unwrap(),
            TouchSet::Everything
        );
        assert_eq!(
            spec.apply(&Delta::AddLink { a: "c".into(), b: "sw".into() }).unwrap(),
            TouchSet::Everything
        );
        // Removing the node cascades: its link disappears too.
        spec.apply(&Delta::RemoveNode("c".into())).unwrap();
        spec.materialize().unwrap();
    }

    #[test]
    fn remove_node_refuses_while_invariant_references_it() {
        let mut spec = base();
        let e = spec.apply(&Delta::RemoveNode("a".into())).expect_err("referenced");
        assert!(e.message.contains("retire"));
        spec.apply(&Delta::RetireInvariant { spec: "node-isolation a -> b".into() }).unwrap();
        spec.apply(&Delta::RemoveNode("a".into())).unwrap();
        spec.materialize().unwrap();
    }

    #[test]
    fn failed_deltas_leave_spec_unchanged() {
        let mut spec = base();
        let before = format!("{spec:?}");
        assert!(spec.apply(&Delta::RemoveLink { a: "a".into(), b: "fw".into() }).is_err());
        assert!(spec
            .apply(&Delta::SetModel { name: "ghost".into(), kind: "idps".into(), args: vec![] })
            .is_err());
        assert!(spec
            .apply(&Delta::AddNode(NodeSpec::Host { name: "a".into(), addr: "9.9.9.9".into() }))
            .is_err());
        assert_eq!(before, format!("{spec:?}"));
    }

    #[test]
    fn decodes_protocol_deltas() {
        let d = Delta::from_json(
            &json::parse(r#"{"op":"add-steer","switch":"sw","from":"a","prefix":"0.0.0.0/0","next":"fw","prio":10}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(
            d,
            Delta::AddSteer(SteerSpec {
                switch: "sw".into(),
                from: "a".into(),
                prefix: "0.0.0.0/0".into(),
                next: "fw".into(),
                prio: 10,
            })
        );
        let d = Delta::from_json(
            &json::parse(r#"{"op":"set-model","name":"fw","kind":"firewall","args":"allow 1.1.1.1/32 -> 2.2.2.2/32"}"#)
                .unwrap(),
        )
        .unwrap();
        assert!(matches!(d, Delta::SetModel { .. }));
        assert!(Delta::from_json(&json::parse(r#"{"op":"warp"}"#).unwrap()).is_err());
    }
}

//! Counterexample traces: extraction from SMT models and replay on the
//! concrete simulator.

use crate::encoder::Encoded;
use crate::network::Network;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use vmn_mbox::exec::ScriptedChooser;
use vmn_mbox::Action;
use vmn_net::{Address, FailureScenario, Header, NetError, NodeId};
use vmn_sim::{Observation, SimOp, Simulator};

/// What happened at one trace step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepKind {
    Idle,
    HostSend,
    MboxProcess,
}

/// One step of a counterexample trace.
#[derive(Clone, Debug)]
pub struct TraceStep {
    pub kind: StepKind,
    pub actor: Option<NodeId>,
    /// The packet emitted at this step (send or forwarded/produced by a
    /// middlebox), if any.
    pub packet: Option<Header>,
    /// Terminal the emitted packet was delivered to (`None` = dropped).
    pub delivered_to: Option<NodeId>,
    /// For processing steps: the index of the step whose packet was
    /// consumed.
    pub target: Option<usize>,
    /// For processing steps: the model rule that fired.
    pub fired_rule: Option<usize>,
    /// Load-balancer style choice made at this step.
    pub choice: usize,
    /// Fresh port / tag drawn at this step (meaningful only if the fired
    /// rule uses them).
    pub fresh_port: u16,
    pub fresh_tag: u64,
    /// Oracle valuations consulted at this step.
    pub oracle_values: HashMap<String, bool>,
}

/// A violation witness: a schedule of events ending in a forbidden
/// reception.
#[derive(Clone, Debug)]
pub struct Trace {
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// Reads a trace out of a satisfiable [`Encoded`] instance.
    pub fn extract(enc: &mut Encoded) -> Trace {
        let mut steps = Vec::with_capacity(enc.steps.len());
        let step_vars = enc.steps.clone();
        for (t, sv) in step_vars.iter().enumerate() {
            let kind = match enc.ctx.eval_bv(sv.kind) {
                1 => StepKind::HostSend,
                2 => StepKind::MboxProcess,
                _ => StepKind::Idle,
            };
            let actor_id = enc.ctx.eval_bv(sv.actor) as usize;
            let actor =
                if kind != StepKind::Idle { enc.terminals.get(actor_id).copied() } else { None };
            let present = enc.ctx.eval_bool(sv.present);
            let packet = if present {
                Some(Header {
                    src: Address(enc.ctx.eval_bv(sv.out.src) as u32),
                    dst: Address(enc.ctx.eval_bv(sv.out.dst) as u32),
                    src_port: enc.ctx.eval_bv(sv.out.sport) as u16,
                    dst_port: enc.ctx.eval_bv(sv.out.dport) as u16,
                    origin: Address(enc.ctx.eval_bv(sv.out.origin) as u32),
                    tag: enc.ctx.eval_bv(sv.out.tag),
                })
            } else {
                None
            };
            let delivered_id = enc.ctx.eval_bv(sv.delivered);
            let delivered_to = if present && delivered_id != enc.drop_id {
                enc.terminals.get(delivered_id as usize).copied()
            } else {
                None
            };
            let target = if kind == StepKind::MboxProcess {
                Some(enc.ctx.eval_bv(sv.target) as usize)
            } else {
                None
            };
            let fired_rule = match (&kind, actor) {
                (StepKind::MboxProcess, Some(m)) => {
                    let mut fr = None;
                    for r in 0.. {
                        match enc.fired.get(&(t, m, r)) {
                            Some(&term) => {
                                if enc.ctx.eval_bool(term) {
                                    fr = Some(r);
                                    break;
                                }
                            }
                            None => break,
                        }
                    }
                    fr
                }
                _ => None,
            };
            let oracle_names: Vec<String> =
                enc.oracles.keys().filter(|(_, ot)| *ot == t).map(|(n, _)| n.clone()).collect();
            let oracle_values = oracle_names
                .into_iter()
                .map(|name| {
                    let var = enc.oracles[&(name.clone(), t)];
                    let v = enc.ctx.eval_bool(var);
                    (name, v)
                })
                .collect();
            steps.push(TraceStep {
                kind,
                actor,
                packet,
                delivered_to,
                target,
                fired_rule,
                choice: enc.ctx.eval_bv(sv.choice) as usize,
                fresh_port: enc.ctx.eval_bv(sv.fresh_port) as u16,
                fresh_tag: enc.ctx.eval_bv(sv.fresh_tag),
                oracle_values,
            });
        }
        Trace { steps }
    }

    /// The schedule of simulator operations this trace corresponds to
    /// (idle steps are skipped).
    pub fn schedule(&self) -> Vec<SimOp> {
        self.steps
            .iter()
            .filter_map(|s| match (&s.kind, s.actor) {
                (StepKind::HostSend, Some(h)) => {
                    s.packet.map(|p| SimOp::Send { host: h, header: p })
                }
                (StepKind::MboxProcess, Some(m)) => Some(SimOp::Process { mbox: m }),
                _ => None,
            })
            .collect()
    }

    /// Replays the trace on the concrete simulator and returns every host
    /// reception observed. Nondeterministic choices, fresh values and
    /// oracle answers are scripted from the trace, so a correct encoding
    /// reproduces the violating reception exactly.
    pub fn replay(
        &self,
        net: &Network,
        scenario: &FailureScenario,
    ) -> Result<Vec<Observation>, NetError> {
        // Collect scripted choices in processing order.
        let mut picks = Vec::new();
        let mut ports = Vec::new();
        let mut tags = Vec::new();
        for s in &self.steps {
            if s.kind != StepKind::MboxProcess {
                continue;
            }
            let (Some(m), Some(r)) = (s.actor, s.fired_rule) else {
                continue;
            };
            let model = net.model(m);
            for action in &model.rules[r].actions {
                match action {
                    Action::RewriteDstOneOf(_) => picks.push(s.choice),
                    Action::RewriteSrcPortFresh => ports.push(s.fresh_port),
                    Action::HavocTag => tags.push(s.fresh_tag),
                    _ => {}
                }
            }
        }
        let chooser = ScriptedChooser::new(picks, ports, tags);

        // Oracle answers are per (step, oracle); the simulator consults the
        // oracle during `Process` calls, so expose the current step's
        // valuation through a shared cell updated as we drive the schedule.
        let current: Rc<RefCell<HashMap<String, bool>>> = Rc::new(RefCell::new(HashMap::new()));
        let current_for_oracle = Rc::clone(&current);
        let oracle = move |name: &str, _h: &Header| -> bool {
            current_for_oracle.borrow().get(name).copied().unwrap_or(false)
        };

        let models: HashMap<NodeId, &vmn_mbox::MboxModel> =
            net.topo.middleboxes().map(|m| (m, net.model(m))).collect();
        let mut sim = Simulator::new(&net.topo, &net.tables, scenario.clone(), models)
            .with_chooser(chooser)
            .with_oracle(oracle);

        for s in &self.steps {
            match (&s.kind, s.actor) {
                (StepKind::HostSend, Some(h)) => {
                    if let Some(p) = s.packet {
                        sim.exec(&SimOp::Send { host: h, header: p })?;
                    }
                }
                (StepKind::MboxProcess, Some(m)) => {
                    *current.borrow_mut() = s.oracle_values.clone();
                    sim.exec(&SimOp::Process { mbox: m })?;
                }
                _ => {}
            }
        }
        Ok(sim.host_receptions().copied().collect())
    }

    /// Human-readable rendering.
    pub fn render(&self, net: &Network) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let name = |n: NodeId| net.topo.node(n).name.clone();
        for (t, s) in self.steps.iter().enumerate() {
            match (&s.kind, s.actor) {
                (StepKind::Idle, _) => {}
                (StepKind::HostSend, Some(h)) => {
                    let _ = writeln!(
                        out,
                        "  [{t}] {} sends {}{}",
                        name(h),
                        s.packet.map(|p| p.to_string()).unwrap_or_default(),
                        s.delivered_to
                            .map(|d| format!(" -> delivered to {}", name(d)))
                            .unwrap_or_else(|| " -> dropped".into()),
                    );
                }
                (StepKind::MboxProcess, Some(m)) => {
                    let _ = writeln!(
                        out,
                        "  [{t}] {} processes packet from step {} (rule {}){}",
                        name(m),
                        s.target.unwrap_or_default(),
                        s.fired_rule.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
                        match (s.packet, s.delivered_to) {
                            (Some(p), Some(d)) =>
                                format!(": emits {} -> delivered to {}", p, name(d)),
                            (Some(p), None) => format!(": emits {p} -> dropped"),
                            (None, _) => ": drops".to_string(),
                        },
                    );
                }
                _ => {}
            }
        }
        out
    }

    /// All (receiver, packet) receptions at hosts implied by the trace.
    pub fn host_receptions(&self, net: &Network) -> Vec<(NodeId, Header)> {
        self.steps
            .iter()
            .filter_map(|s| match (s.delivered_to, s.packet) {
                (Some(d), Some(p)) if net.topo.node(d).kind.is_host() => Some((d, p)),
                _ => None,
            })
            .collect()
    }
}

//! Discrete-event simulator for middlebox networks.
//!
//! VMN's verification results are claims about *all* packet histories; the
//! simulator executes *one* history concretely. It serves three purposes:
//!
//! * **Counterexample replay** — every violation trace the verifier
//!   produces is replayed here; if the simulator does not reproduce the
//!   violation, the encoding has a bug (this differential check runs in
//!   the integration test suite).
//! * **Testing** — middlebox models and topologies can be exercised
//!   operationally, independent of the solver.
//! * **Exploration** — randomised schedules provide a cheap (unsound)
//!   violation search to sanity-check the verifier's completeness claims.
//!
//! The simulator follows the paper's event model (§3): at each step one of
//! the following happens — a host sends a packet, the network delivers a
//! pending packet to the next terminal, or a middlebox processes a
//! received packet. Per-middlebox FIFO ordering is enforced, matching the
//! ordering constraint the scheduling oracle must respect.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::collections::VecDeque;
use vmn_mbox::exec::{self, Chooser, MboxState, SeqChooser};
use vmn_mbox::MboxModel;
use vmn_net::{
    FailureScenario, ForwardingTables, Header, NetError, NodeId, Topology, TransferFunction,
};

/// One scheduled operation (the scheduling oracle's choice for a step).
#[derive(Clone, Debug, PartialEq)]
pub enum SimOp {
    /// A host emits a packet.
    Send { host: NodeId, header: Header },
    /// A middlebox processes the oldest packet pending at it.
    Process { mbox: NodeId },
}

/// A packet observed at a terminal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Observation {
    pub step: usize,
    /// The terminal that emitted the packet into the fabric.
    pub from: NodeId,
    /// The terminal that received it.
    pub at: NodeId,
    pub header: Header,
}

/// Event log entry.
#[derive(Clone, Debug, PartialEq)]
pub enum SimEvent {
    Sent { step: usize, host: NodeId, header: Header },
    Delivered(Observation),
    Processed { step: usize, mbox: NodeId, input: Header, emitted: Option<Header> },
    DroppedByFabric { step: usize, from: NodeId, header: Header },
    DroppedByMbox { step: usize, mbox: NodeId, header: Header },
}

/// The simulator state for one network under one failure scenario.
pub struct Simulator<'a> {
    topo: &'a Topology,
    tables: &'a ForwardingTables,
    scenario: FailureScenario,
    models: HashMap<NodeId, &'a MboxModel>,
    states: HashMap<NodeId, MboxState>,
    queues: HashMap<NodeId, VecDeque<Header>>,
    chooser: Box<dyn Chooser + 'a>,
    oracle: Box<dyn FnMut(&str, &Header) -> bool + 'a>,
    log: Vec<SimEvent>,
    step: usize,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator. `models` must cover every middlebox in the
    /// topology.
    pub fn new(
        topo: &'a Topology,
        tables: &'a ForwardingTables,
        scenario: FailureScenario,
        models: HashMap<NodeId, &'a MboxModel>,
    ) -> Simulator<'a> {
        for m in topo.middleboxes() {
            assert!(models.contains_key(&m), "no model for middlebox {:?}", topo.node(m).name);
        }
        Simulator {
            topo,
            tables,
            scenario,
            models,
            states: HashMap::new(),
            queues: HashMap::new(),
            chooser: Box::new(SeqChooser::new()),
            oracle: Box::new(|_, _| false),
            log: Vec::new(),
            step: 0,
        }
    }

    /// Replaces the nondeterminism source (default: [`SeqChooser`]).
    pub fn with_chooser(mut self, c: impl Chooser + 'a) -> Simulator<'a> {
        self.chooser = Box::new(c);
        self
    }

    /// Replaces the classification-oracle valuation (default: everything
    /// is classified negative).
    pub fn with_oracle(mut self, o: impl FnMut(&str, &Header) -> bool + 'a) -> Simulator<'a> {
        self.oracle = Box::new(o);
        self
    }

    pub fn log(&self) -> &[SimEvent] {
        &self.log
    }

    /// Packets received by hosts, in order.
    pub fn host_receptions(&self) -> impl Iterator<Item = &Observation> {
        self.log.iter().filter_map(|e| match e {
            SimEvent::Delivered(o) if self.topo.node(o.at).kind.is_host() => Some(o),
            _ => None,
        })
    }

    /// Number of packets waiting at middlebox `m`.
    pub fn pending(&self, m: NodeId) -> usize {
        self.queues.get(&m).map_or(0, VecDeque::len)
    }

    /// Executes one operation. Fabric loops surface as errors.
    pub fn exec(&mut self, op: &SimOp) -> Result<(), NetError> {
        match op {
            SimOp::Send { host, header } => {
                let node = self.topo.node(*host);
                assert!(node.kind.is_host(), "only hosts send: {:?}", node.name);
                self.log.push(SimEvent::Sent { step: self.step, host: *host, header: *header });
                self.inject(*host, *header)?;
            }
            SimOp::Process { mbox } => {
                let Some(input) = self.queues.get_mut(mbox).and_then(VecDeque::pop_front) else {
                    self.step += 1;
                    return Ok(()); // processing an empty queue is a no-op
                };
                let model = self.models[mbox];
                let state = self.states.entry(*mbox).or_default();
                let failed = self.scenario.is_failed(*mbox);
                let outcome = exec::process(
                    model,
                    state,
                    failed,
                    input,
                    &mut self.oracle,
                    self.chooser.as_mut(),
                );
                self.log.push(SimEvent::Processed {
                    step: self.step,
                    mbox: *mbox,
                    input,
                    emitted: outcome.emitted,
                });
                match outcome.emitted {
                    Some(out) => self.inject(*mbox, out)?,
                    None => self.log.push(SimEvent::DroppedByMbox {
                        step: self.step,
                        mbox: *mbox,
                        header: input,
                    }),
                }
            }
        }
        self.step += 1;
        Ok(())
    }

    /// Emits `header` from terminal `from` into the fabric and records the
    /// outcome.
    fn inject(&mut self, from: NodeId, header: Header) -> Result<(), NetError> {
        let tf = TransferFunction::new(self.topo, self.tables, &self.scenario);
        match tf.deliver(from, header.dst)? {
            None => {
                self.log.push(SimEvent::DroppedByFabric { step: self.step, from, header });
            }
            Some(at) => {
                let obs = Observation { step: self.step, from, at, header };
                self.log.push(SimEvent::Delivered(obs));
                if self.topo.node(at).kind.is_middlebox() {
                    self.queues.entry(at).or_default().push_back(header);
                }
            }
        }
        Ok(())
    }

    /// Runs a whole schedule.
    pub fn run(&mut self, ops: &[SimOp]) -> Result<(), NetError> {
        for op in ops {
            self.exec(op)?;
        }
        Ok(())
    }

    /// Processes middlebox queues until everything settles (bounded by
    /// `max_steps` to guard against middlebox-level ping-pong).
    pub fn run_to_quiescence(&mut self, max_steps: usize) -> Result<(), NetError> {
        for _ in 0..max_steps {
            let Some(m) =
                self.topo.middleboxes().find(|m| self.queues.get(m).is_some_and(|q| !q.is_empty()))
            else {
                return Ok(());
            };
            self.exec(&SimOp::Process { mbox: m })?;
        }
        // Remaining queued packets are treated as unprocessed, not an error:
        // the scheduling oracle is free to stop at any point.
        Ok(())
    }

    /// Convenience: send and then drain all middlebox queues.
    pub fn send_and_settle(&mut self, host: NodeId, header: Header) -> Result<(), NetError> {
        self.exec(&SimOp::Send { host, header })?;
        self.run_to_quiescence(1000)
    }

    /// Read access to a middlebox's accumulated state (used by the
    /// differential fuzzer to cross-check static-analysis verdicts
    /// against concrete executions).
    pub fn mbox_state(&self, m: NodeId) -> Option<&MboxState> {
        self.states.get(&m)
    }

    /// Whether `host` ever received a packet satisfying `pred`.
    pub fn host_received<F>(&self, host: NodeId, mut pred: F) -> bool
    where
        F: FnMut(&Header) -> bool,
    {
        self.host_receptions().any(|o| o.at == host && pred(&o.header))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn_mbox::models;
    use vmn_net::{Address, Prefix, RoutingConfig, Rule};

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// outside - s1 - fw - s1 - s2 - inside, firewall guarding `inside`.
    struct Net {
        topo: Topology,
        tables: ForwardingTables,
        outside: NodeId,
        inside: NodeId,
        fw: NodeId,
    }

    fn firewalled_net(acl: Vec<(Prefix, Prefix)>) -> (Net, MboxModel) {
        let mut topo = Topology::new();
        let outside = topo.add_host("outside", addr("8.8.8.8"));
        let inside = topo.add_host("inside", addr("10.0.0.5"));
        let s1 = topo.add_switch("s1");
        let s2 = topo.add_switch("s2");
        let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
        topo.add_link(outside, s1);
        topo.add_link(fw, s1);
        topo.add_link(s1, s2);
        topo.add_link(inside, s2);

        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        // Pipeline both directions through the firewall.
        tables.add_rule(s1, Rule::from_neighbor(px("10.0.0.0/8"), outside, fw).with_priority(10));
        tables.add_rule(s1, Rule::from_neighbor(px("8.8.8.8/32"), s2, fw).with_priority(10));

        let model = models::learning_firewall("stateful-firewall", acl);
        (Net { topo, tables, outside, inside, fw }, model)
    }

    fn sim<'a>(net: &'a Net, model: &'a MboxModel, scenario: FailureScenario) -> Simulator<'a> {
        let models = HashMap::from([(net.fw, model)]);
        Simulator::new(&net.topo, &net.tables, scenario, models)
    }

    #[test]
    fn firewall_blocks_unsolicited_inbound() {
        let (net, model) = firewalled_net(vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))]);
        let mut s = sim(&net, &model, FailureScenario::none());
        let attack = Header::new(addr("8.8.8.8"), 1234, addr("10.0.0.5"), 22);
        s.send_and_settle(net.outside, attack).unwrap();
        assert!(!s.host_received(net.inside, |_| true), "inbound must be dropped");
    }

    #[test]
    fn firewall_allows_reply_after_outbound() {
        let (net, model) = firewalled_net(vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))]);
        let mut s = sim(&net, &model, FailureScenario::none());
        let request = Header::new(addr("10.0.0.5"), 4000, addr("8.8.8.8"), 80);
        s.send_and_settle(net.inside, request).unwrap();
        assert!(s.host_received(net.outside, |h| h.dst_port == 80), "outbound flows");
        let reply = request.reverse();
        s.send_and_settle(net.outside, reply).unwrap();
        assert!(
            s.host_received(net.inside, |h| h.src == addr("8.8.8.8")),
            "reply to established flow must pass"
        );
    }

    #[test]
    fn interleaving_matters_reply_before_request_is_dropped() {
        let (net, model) = firewalled_net(vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))]);
        let mut s = sim(&net, &model, FailureScenario::none());
        let request = Header::new(addr("10.0.0.5"), 4000, addr("8.8.8.8"), 80);
        let reply = request.reverse();
        // Both packets are in flight; the firewall processes the reply first.
        s.exec(&SimOp::Send { host: net.inside, header: request }).unwrap();
        s.exec(&SimOp::Send { host: net.outside, header: reply }).unwrap();
        assert_eq!(s.pending(net.fw), 2);
        // FIFO: request (sent first) is processed first here, so to test the
        // other order rebuild with reversed sends.
        let mut s2 = sim(&net, &model, FailureScenario::none());
        s2.exec(&SimOp::Send { host: net.outside, header: reply }).unwrap();
        s2.exec(&SimOp::Send { host: net.inside, header: request }).unwrap();
        s2.exec(&SimOp::Process { mbox: net.fw }).unwrap(); // reply first: dropped
        s2.exec(&SimOp::Process { mbox: net.fw }).unwrap(); // request: forwarded
        assert!(!s2.host_received(net.inside, |_| true));
        assert!(s2.host_received(net.outside, |_| true));
    }

    #[test]
    fn failed_closed_firewall_blocks_everything() {
        let (net, model) = firewalled_net(vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))]);
        let mut s = sim(&net, &model, FailureScenario::nodes([net.fw]));
        let request = Header::new(addr("10.0.0.5"), 4000, addr("8.8.8.8"), 80);
        // With the firewall failed, the pipeline rule is dead and the base
        // route delivers directly — traffic *bypasses* the firewall. This
        // models the "fail-over removes the middlebox" routing behaviour.
        s.send_and_settle(net.inside, request).unwrap();
        assert!(s.host_received(net.outside, |_| true), "routing falls back around the box");
    }

    #[test]
    fn processing_empty_queue_is_noop() {
        let (net, model) = firewalled_net(vec![]);
        let mut s = sim(&net, &model, FailureScenario::none());
        s.exec(&SimOp::Process { mbox: net.fw }).unwrap();
        assert_eq!(s.log().len(), 0);
    }

    #[test]
    fn event_log_records_pipeline() {
        let (net, model) = firewalled_net(vec![(px("10.0.0.0/8"), px("0.0.0.0/0"))]);
        let mut s = sim(&net, &model, FailureScenario::none());
        let request = Header::new(addr("10.0.0.5"), 4000, addr("8.8.8.8"), 80);
        s.send_and_settle(net.inside, request).unwrap();
        let kinds: Vec<&'static str> = s
            .log()
            .iter()
            .map(|e| match e {
                SimEvent::Sent { .. } => "sent",
                SimEvent::Delivered(_) => "delivered",
                SimEvent::Processed { .. } => "processed",
                SimEvent::DroppedByFabric { .. } => "fab-drop",
                SimEvent::DroppedByMbox { .. } => "mbox-drop",
            })
            .collect();
        assert_eq!(kinds, vec!["sent", "delivered", "processed", "delivered"]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use std::collections::HashMap as Map;
    use vmn_mbox::exec::Chooser;
    use vmn_mbox::models;
    use vmn_net::{Address, Prefix, RoutingConfig, Rule};

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A chooser that alternates load-balancer picks.
    struct AlternatingChooser(usize);

    impl Chooser for AlternatingChooser {
        fn pick(&mut self, n: usize) -> usize {
            self.0 += 1;
            (self.0 - 1) % n
        }
        fn fresh_port(&mut self) -> u16 {
            40000 + self.0 as u16
        }
        fn fresh_tag(&mut self) -> u64 {
            900 + self.0 as u64
        }
    }

    #[test]
    fn load_balancer_spreads_with_custom_chooser() {
        let mut topo = Topology::new();
        let client = topo.add_host("client", addr("8.8.8.8"));
        let b1 = topo.add_host("b1", addr("10.0.0.1"));
        let b2 = topo.add_host("b2", addr("10.0.0.2"));
        let sw = topo.add_switch("sw");
        let lb = topo.add_middlebox("lb", "lb", vec![addr("10.0.0.100")]);
        for n in [client, b1, b2, lb] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        tables.add_rule(sw, Rule::new(px("10.0.0.100/32"), lb).with_priority(10));
        let model = models::load_balancer(
            "lb",
            addr("10.0.0.100"),
            vec![addr("10.0.0.1"), addr("10.0.0.2")],
        );
        let models: Map<NodeId, &vmn_mbox::MboxModel> = Map::from([(lb, &model)]);
        let mut sim = Simulator::new(&topo, &tables, FailureScenario::none(), models)
            .with_chooser(AlternatingChooser(0));
        for port in 0..4u16 {
            let h = Header::new(addr("8.8.8.8"), 1000 + port, addr("10.0.0.100"), 80);
            sim.send_and_settle(client, h).unwrap();
        }
        assert!(sim.host_received(b1, |_| true), "backend 1 sees traffic");
        assert!(sim.host_received(b2, |_| true), "backend 2 sees traffic");
    }

    #[test]
    fn oracle_closure_sees_headers() {
        let mut topo = Topology::new();
        let a = topo.add_host("a", addr("1.1.1.1"));
        let b = topo.add_host("b", addr("2.2.2.2"));
        let sw = topo.add_switch("sw");
        let ips = topo.add_middlebox("ips", "idps", vec![]);
        for n in [a, b, ips] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), a, ips).with_priority(10));
        let model = models::idps("idps");
        let models: Map<NodeId, &vmn_mbox::MboxModel> = Map::from([(ips, &model)]);
        // Oracle: only port 666 is malicious.
        let mut sim = Simulator::new(&topo, &tables, FailureScenario::none(), models)
            .with_oracle(|name, h| name == "malicious?" && h.dst_port == 666);
        sim.send_and_settle(a, Header::new(addr("1.1.1.1"), 1, addr("2.2.2.2"), 666)).unwrap();
        sim.send_and_settle(a, Header::new(addr("1.1.1.1"), 2, addr("2.2.2.2"), 80)).unwrap();
        assert!(!sim.host_received(b, |h| h.dst_port == 666), "malicious dropped");
        assert!(sim.host_received(b, |h| h.dst_port == 80), "benign delivered");
    }

    #[test]
    fn quiescence_respects_step_budget() {
        let mut topo = Topology::new();
        let a = topo.add_host("a", addr("1.1.1.1"));
        let b = topo.add_host("b", addr("2.2.2.2"));
        let sw = topo.add_switch("sw");
        let g1 = topo.add_middlebox("g1", "gateway", vec![]);
        for n in [a, b, g1] {
            topo.add_link(n, sw);
        }
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        let mut tables = rc.build(&topo, &FailureScenario::none());
        tables.add_rule(sw, Rule::from_neighbor(px("0.0.0.0/0"), a, g1).with_priority(10));
        let model = models::gateway("gateway");
        let models: Map<NodeId, &vmn_mbox::MboxModel> = Map::from([(g1, &model)]);
        let mut sim = Simulator::new(&topo, &tables, FailureScenario::none(), models);
        sim.exec(&SimOp::Send {
            host: a,
            header: Header::new(addr("1.1.1.1"), 1, addr("2.2.2.2"), 80),
        })
        .unwrap();
        // Zero budget: the queued packet stays queued, no error.
        sim.run_to_quiescence(0).unwrap();
        assert_eq!(sim.pending(g1), 1);
        sim.run_to_quiescence(10).unwrap();
        assert_eq!(sim.pending(g1), 0);
    }
}

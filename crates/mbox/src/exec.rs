//! Concrete (operational) interpreter for middlebox models.
//!
//! The verifier reasons about models symbolically; this interpreter runs
//! them on real headers. It backs the discrete-event simulator and the
//! counterexample replay check: a violation trace found by the SMT
//! encoding must reproduce here, step for step.

use crate::{Action, FailMode, Guard, KeyExpr, MboxModel};
use std::collections::HashMap;
use vmn_net::{Address, FlowId, Header};

/// A concrete state-set key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum KeyVal {
    Flow(FlowId),
    Addr(Address),
    Pair(Address, Address),
}

/// Computes the key of `h` under a key expression.
pub fn key_of(expr: KeyExpr, h: &Header) -> KeyVal {
    match expr {
        KeyExpr::Flow => KeyVal::Flow(h.flow()),
        KeyExpr::SrcAddr => KeyVal::Addr(h.src),
        KeyExpr::DstAddr => KeyVal::Addr(h.dst),
        KeyExpr::Origin => KeyVal::Addr(h.origin),
        KeyExpr::SrcDst => KeyVal::Pair(h.src, h.dst),
    }
}

/// Mutable runtime state of one middlebox instance.
#[derive(Clone, Default, Debug)]
pub struct MboxState {
    /// Per state set: entries of (key at insertion, original pre-rewrite
    /// header of the inserting packet).
    sets: HashMap<String, Vec<(KeyVal, Header)>>,
}

impl MboxState {
    pub fn new() -> MboxState {
        MboxState::default()
    }

    pub fn contains(&self, set: &str, key: KeyVal) -> bool {
        self.sets.get(set).is_some_and(|v| v.iter().any(|(k, _)| *k == key))
    }

    pub fn lookup(&self, set: &str, key: KeyVal) -> Option<&Header> {
        self.sets.get(set)?.iter().find(|(k, _)| *k == key).map(|(_, h)| h)
    }

    pub fn insert(&mut self, set: &str, key: KeyVal, original: Header) {
        self.sets.entry(set.to_string()).or_default().push((key, original));
    }

    pub fn len(&self, set: &str) -> usize {
        self.sets.get(set).map_or(0, Vec::len)
    }

    pub fn is_empty(&self) -> bool {
        self.sets.values().all(Vec::is_empty)
    }

    /// Every (set name, entries) pair — the fuzz suite checks observed
    /// key shapes against the derived parallelism class.
    pub fn sets(&self) -> impl Iterator<Item = (&str, &[(KeyVal, Header)])> {
        self.sets.iter().map(|(n, v)| (n.as_str(), v.as_slice()))
    }
}

/// Source of the nondeterministic choices a model can make.
///
/// The simulator plugs in randomness; counterexample replay plugs in the
/// choices recorded in the SMT model.
pub trait Chooser {
    /// Picks an index in `0..n` (load-balancer backend choice).
    fn pick(&mut self, n: usize) -> usize;
    /// A fresh ephemeral port, never previously returned.
    fn fresh_port(&mut self) -> u16;
    /// A fresh payload tag, never previously returned.
    fn fresh_tag(&mut self) -> u64;
}

/// Deterministic chooser: always picks index 0, allocates ports downward
/// from 65535 and tags upward from a large base.
#[derive(Clone, Debug)]
pub struct SeqChooser {
    next_port: u16,
    next_tag: u64,
}

impl Default for SeqChooser {
    fn default() -> Self {
        SeqChooser { next_port: 65535, next_tag: 1 << 48 }
    }
}

impl SeqChooser {
    pub fn new() -> SeqChooser {
        SeqChooser::default()
    }
}

impl Chooser for SeqChooser {
    fn pick(&mut self, _n: usize) -> usize {
        0
    }

    fn fresh_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.checked_sub(1).expect("ephemeral ports exhausted");
        p
    }

    fn fresh_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }
}

/// Chooser that replays a fixed list of picks (for counterexample replay).
#[derive(Clone, Debug, Default)]
pub struct ScriptedChooser {
    pub picks: Vec<usize>,
    pub ports: Vec<u16>,
    pub tags: Vec<u64>,
    pick_i: usize,
    port_i: usize,
    tag_i: usize,
}

impl ScriptedChooser {
    /// Builds a chooser from the scripted values.
    pub fn new(picks: Vec<usize>, ports: Vec<u16>, tags: Vec<u64>) -> ScriptedChooser {
        ScriptedChooser { picks, ports, tags, pick_i: 0, port_i: 0, tag_i: 0 }
    }
}

impl Chooser for ScriptedChooser {
    fn pick(&mut self, n: usize) -> usize {
        let v = self.picks.get(self.pick_i).copied().unwrap_or(0);
        self.pick_i += 1;
        v.min(n.saturating_sub(1))
    }

    fn fresh_port(&mut self) -> u16 {
        let v = self.ports.get(self.port_i).copied().unwrap_or(60000);
        self.port_i += 1;
        v
    }

    fn fresh_tag(&mut self) -> u64 {
        let v = self.tags.get(self.tag_i).copied().unwrap_or(FRESH_FALLBACK);
        self.tag_i += 1;
        v
    }
}

/// Tag returned by [`ScriptedChooser`] when its script runs out.
const FRESH_FALLBACK: u64 = 0xFEED_FACE;

/// Result of processing one packet through a middlebox.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessOutcome {
    /// Index of the rule that fired (`None` when failed-closed dropped the
    /// packet or no rule matched).
    pub matched_rule: Option<usize>,
    /// The packet the box emitted, if any.
    pub emitted: Option<Header>,
}

impl ProcessOutcome {
    fn dropped() -> ProcessOutcome {
        ProcessOutcome { matched_rule: None, emitted: None }
    }
}

/// Evaluates a guard against the current header and state.
pub fn eval_guard<O>(
    model: &MboxModel,
    state: &MboxState,
    guard: &Guard,
    h: &Header,
    oracle: &mut O,
) -> bool
where
    O: FnMut(&str, &Header) -> bool,
{
    match guard {
        Guard::True => true,
        Guard::Not(g) => !eval_guard(model, state, g, h, oracle),
        Guard::And(gs) => gs.iter().all(|g| eval_guard(model, state, g, h, oracle)),
        Guard::Or(gs) => gs.iter().any(|g| eval_guard(model, state, g, h, oracle)),
        Guard::SrcIn(p) => p.contains(h.src),
        Guard::DstIn(p) => p.contains(h.dst),
        Guard::SrcIs(a) => h.src == *a,
        Guard::DstIs(a) => h.dst == *a,
        Guard::SrcPortIs(p) => h.src_port == *p,
        Guard::DstPortIs(p) => h.dst_port == *p,
        Guard::OriginIn(p) => p.contains(h.origin),
        Guard::OriginIs(a) => h.origin == *a,
        Guard::AclMatch(name) => model
            .acl_pairs(name)
            .expect("validated model")
            .iter()
            .any(|(sp, dp)| sp.contains(h.src) && dp.contains(h.dst)),
        Guard::StateContains { state: set, key } => state.contains(set, key_of(*key, h)),
        Guard::Oracle(name) => oracle(name, h),
    }
}

/// Processes one packet through a middlebox model.
///
/// `failed` is whether the box is currently failed (the fail-mode
/// annotation then decides the behaviour without consulting rules).
pub fn process<O>(
    model: &MboxModel,
    state: &mut MboxState,
    failed: bool,
    input: Header,
    oracle: &mut O,
    chooser: &mut dyn Chooser,
) -> ProcessOutcome
where
    O: FnMut(&str, &Header) -> bool,
{
    if failed {
        return match model.fail_mode {
            FailMode::Closed => ProcessOutcome::dropped(),
            FailMode::Open => ProcessOutcome { matched_rule: None, emitted: Some(input) },
        };
    }
    let matched =
        model.rules.iter().position(|r| eval_guard(model, state, &r.guard, &input, oracle));
    let Some(idx) = matched else {
        return ProcessOutcome::dropped();
    };
    let mut cur = input;
    let mut emitted = None;
    for action in &model.rules[idx].actions {
        match action {
            Action::Forward => emitted = Some(cur),
            Action::Drop => emitted = None,
            Action::Insert(set) => {
                let decl = model.state_decl(set).expect("validated model");
                let key = key_of(decl.key, &cur);
                state.insert(set, key, input);
            }
            Action::RewriteSrc(a) => cur.src = *a,
            Action::RewriteDst(a) => cur.dst = *a,
            Action::RewriteDstOneOf(addrs) => {
                assert!(!addrs.is_empty(), "empty backend list");
                cur.dst = addrs[chooser.pick(addrs.len())];
            }
            Action::RewriteSrcPortFresh => cur.src_port = chooser.fresh_port(),
            Action::RestoreDstFromState(set) => {
                // Lookup is by the current packet's flow (NAT reverse
                // traffic shares the flow id of the rewritten outbound).
                if let Some(orig) = state.lookup(set, key_of(KeyExpr::Flow, &cur)) {
                    cur.dst = orig.src;
                    cur.dst_port = orig.src_port;
                }
            }
            Action::RespondFromState(set) => {
                // Lookup is by requested destination address against the
                // set's stored keys (cache: dst of request = data origin).
                if let Some(orig) = state.lookup(set, KeyVal::Addr(cur.dst)).copied() {
                    let response = Header {
                        src: orig.src,
                        dst: cur.src,
                        src_port: cur.dst_port,
                        dst_port: cur.src_port,
                        origin: orig.origin,
                        tag: orig.tag,
                    };
                    emitted = Some(response);
                } else {
                    emitted = None;
                }
            }
            Action::HavocTag => cur.tag = chooser.fresh_tag(),
        }
    }
    ProcessOutcome { matched_rule: Some(idx), emitted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use vmn_net::Prefix;

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn no_oracle(_: &str, _: &Header) -> bool {
        false
    }

    #[test]
    fn learning_firewall_hole_punching() {
        let fw = models::learning_firewall("fw", vec![(px("10.0.1.0/24"), px("10.0.2.0/24"))]);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let out = Header::new(addr("10.0.1.5"), 1000, addr("10.0.2.7"), 80);

        // Unsolicited inbound is dropped.
        let inbound = out.reverse();
        let r = process(&fw, &mut st, false, inbound, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, None);

        // Outbound allowed by ACL punches a hole…
        let r = process(&fw, &mut st, false, out, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, Some(out));
        assert_eq!(st.len("established"), 1);

        // …after which the reverse direction flows.
        let r = process(&fw, &mut st, false, inbound, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, Some(inbound));
        assert_eq!(r.matched_rule, Some(0), "matched the established rule");
    }

    #[test]
    fn firewall_acl_miss_drops_and_learns_nothing() {
        let fw = models::learning_firewall("fw", vec![(px("10.0.1.0/24"), px("10.0.2.0/24"))]);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let evil = Header::new(addr("10.9.9.9"), 1000, addr("10.0.2.7"), 80);
        let r = process(&fw, &mut st, false, evil, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, None);
        assert!(st.is_empty());
    }

    #[test]
    fn fail_modes() {
        let fw = models::learning_firewall("fw", vec![(px("0.0.0.0/0"), px("0.0.0.0/0"))]);
        let cache = models::content_cache("c", [px("10.1.0.0/16")], vec![]);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let h = Header::new(addr("10.0.1.5"), 1000, addr("10.0.2.7"), 80);
        // Failed-closed firewall drops even ACL-allowed traffic.
        let r = process(&fw, &mut st, true, h, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, None);
        // Failed-open cache passes traffic through unmodified.
        let r = process(&cache, &mut st, true, h, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, Some(h));
    }

    #[test]
    fn nat_round_trip() {
        let external = addr("1.2.3.4");
        let n = models::nat("nat", px("192.168.0.0/16"), external);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let out = Header::new(addr("192.168.0.10"), 5555, addr("8.8.8.8"), 53);

        // Outbound: src rewritten to the external address with fresh port.
        let r = process(&n, &mut st, false, out, &mut no_oracle, &mut ch);
        let sent = r.emitted.expect("forwarded");
        assert_eq!(sent.src, external);
        assert_ne!(sent.src_port, 5555);
        assert_eq!(sent.dst, out.dst);

        // Reply to the external address restores the internal endpoint.
        let reply = sent.reverse();
        let r = process(&n, &mut st, false, reply, &mut no_oracle, &mut ch);
        let restored = r.emitted.expect("restored");
        assert_eq!(restored.dst, addr("192.168.0.10"));
        assert_eq!(restored.dst_port, 5555);
    }

    #[test]
    fn nat_drops_unsolicited_inbound() {
        let external = addr("1.2.3.4");
        let n = models::nat("nat", px("192.168.0.0/16"), external);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let unsolicited = Header::new(addr("8.8.8.8"), 53, external, 60001);
        let r = process(&n, &mut st, false, unsolicited, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, None);
    }

    #[test]
    fn load_balancer_rewrites_vip() {
        let vip = addr("10.0.0.100");
        let b1 = addr("10.0.0.1");
        let b2 = addr("10.0.0.2");
        let lb = models::load_balancer("lb", vip, vec![b1, b2]);
        let mut st = MboxState::new();
        let h = Header::new(addr("10.9.0.1"), 1234, vip, 80);

        let mut ch = SeqChooser::new(); // picks index 0
        let r = process(&lb, &mut st, false, h, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted.unwrap().dst, b1);

        let mut scripted = ScriptedChooser { picks: vec![1], ..ScriptedChooser::default() };
        let r = process(&lb, &mut st, false, h, &mut no_oracle, &mut scripted);
        assert_eq!(r.emitted.unwrap().dst, b2);

        // Non-VIP traffic passes untouched.
        let other = Header::new(addr("10.9.0.1"), 1234, addr("10.0.0.7"), 80);
        let mut ch = SeqChooser::new();
        let r = process(&lb, &mut st, false, other, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, Some(other));
    }

    #[test]
    fn idps_consults_oracle() {
        let box_ = models::idps("idps");
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let h = Header::new(addr("1.1.1.1"), 1, addr("2.2.2.2"), 2);
        let mut bad = |name: &str, _: &Header| name == "malicious?";
        let r = process(&box_, &mut st, false, h, &mut bad, &mut ch);
        assert_eq!(r.emitted, None);
        let mut good = |_: &str, _: &Header| false;
        let r = process(&box_, &mut st, false, h, &mut good, &mut ch);
        assert_eq!(r.emitted, Some(h));
    }

    #[test]
    fn cache_miss_then_hit() {
        let servers = px("10.1.0.0/16");
        let cache = models::content_cache("cache", [servers], vec![]);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let server = addr("10.1.0.5");
        let client = addr("10.2.0.9");

        // Miss: request forwarded to the server.
        let request = Header::new(client, 4000, server, 80);
        let r = process(&cache, &mut st, false, request, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, Some(request));

        // Server response populates the cache.
        let response = Header { origin: server, tag: 77, ..request.reverse() };
        let r = process(&cache, &mut st, false, response, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, Some(response));
        assert_eq!(st.len("cache"), 1);

        // Second client hits: served from cache with the cached origin.
        let client2 = addr("10.3.0.1");
        let request2 = Header::new(client2, 4001, server, 80);
        let r = process(&cache, &mut st, false, request2, &mut no_oracle, &mut ch);
        let served = r.emitted.expect("cache hit");
        assert_eq!(served.dst, client2);
        assert_eq!(served.origin, server, "cached data keeps its origin");
        assert_eq!(served.tag, 77, "cached payload identity preserved");
    }

    #[test]
    fn cache_deny_acl_blocks_clients() {
        let servers = px("10.1.0.0/16");
        let deny = vec![(px("10.3.0.0/16"), px("10.1.0.0/16"))];
        let cache = models::content_cache("cache", [servers], deny);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let server = addr("10.1.0.5");

        // Warm the cache via an allowed client.
        let ok_req = Header::new(addr("10.2.0.9"), 4000, server, 80);
        process(&cache, &mut st, false, ok_req, &mut no_oracle, &mut ch);
        let resp = Header { origin: server, tag: 9, ..ok_req.reverse() };
        process(&cache, &mut st, false, resp, &mut no_oracle, &mut ch);

        // Denied client gets nothing, despite the content being cached.
        let denied = Header::new(addr("10.3.0.1"), 4001, server, 80);
        let r = process(&cache, &mut st, false, denied, &mut no_oracle, &mut ch);
        assert_eq!(r.emitted, None, "deny ACL must win over cache hits");
    }

    #[test]
    fn wan_optimizer_havocs_tag() {
        let w = models::wan_optimizer("w");
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let h = Header { tag: 42, ..Header::new(addr("1.1.1.1"), 1, addr("2.2.2.2"), 2) };
        let r = process(&w, &mut st, false, h, &mut no_oracle, &mut ch);
        let out = r.emitted.unwrap();
        assert_ne!(out.tag, 42, "payload identity must be havoced");
        assert_eq!(out.src, h.src);
    }

    #[test]
    fn application_firewall_drops_denied_apps() {
        let fw = models::application_firewall("appfw", &["skype?"], &["skype?", "jabber?"]);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let h = Header::new(addr("1.1.1.1"), 1, addr("2.2.2.2"), 2);
        let mut is_skype = |name: &str, _: &Header| name == "skype?";
        let r = process(&fw, &mut st, false, h, &mut is_skype, &mut ch);
        assert_eq!(r.emitted, None);
        let mut is_jabber = |name: &str, _: &Header| name == "jabber?";
        let r = process(&fw, &mut st, false, h, &mut is_jabber, &mut ch);
        assert_eq!(r.emitted, Some(h));
    }
}

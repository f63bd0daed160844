//! Property-based tests for middlebox models and their concrete
//! interpreter.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use vmn_mbox::exec::{process, MboxState, SeqChooser};
use vmn_mbox::{models, Action, Guard, MboxModel};
use vmn_net::{Address, Header, Prefix};

fn arb_header() -> impl Strategy<Value = Header> {
    (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>())
        .prop_map(|(s, d, sp, dp)| Header::new(Address(s), sp, Address(d), dp))
}

fn no_oracle(_: &str, _: &Header) -> bool {
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The learning firewall never forwards a packet whose flow was not
    /// established and whose (src, dst) is not ACL-allowed.
    #[test]
    fn firewall_default_denies(h in arb_header()) {
        let acl = vec![(
            "10.0.0.0/8".parse::<Prefix>().unwrap(),
            "192.168.0.0/16".parse::<Prefix>().unwrap(),
        )];
        let fw = models::learning_firewall("fw", acl.clone());
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let out = process(&fw, &mut st, false, h, &mut no_oracle, &mut ch);
        let allowed = acl.iter().any(|(sp, dp)| sp.contains(h.src) && dp.contains(h.dst));
        prop_assert_eq!(out.emitted.is_some(), allowed);
        // Forwarded packets are unmodified by a firewall.
        if let Some(e) = out.emitted {
            prop_assert_eq!(e, h);
        }
    }

    /// Once a flow is established, both directions pass forever
    /// (monotonicity of firewall state).
    #[test]
    fn firewall_state_is_monotone(h in arb_header()) {
        let all: Prefix = "0.0.0.0/0".parse().unwrap();
        let fw = models::learning_firewall("fw", vec![(all, all)]);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let first = process(&fw, &mut st, false, h, &mut no_oracle, &mut ch);
        prop_assert!(first.emitted.is_some());
        // Reverse direction now passes via the established rule.
        let rev = process(&fw, &mut st, false, h.reverse(), &mut no_oracle, &mut ch);
        prop_assert_eq!(rev.emitted, Some(h.reverse()));
        prop_assert_eq!(rev.matched_rule, Some(0), "must hit the established rule");
        // And again (state never shrinks).
        let again = process(&fw, &mut st, false, h, &mut no_oracle, &mut ch);
        prop_assert!(again.emitted.is_some());
    }

    /// NAT round-trip: any outbound packet's reply is restored exactly to
    /// the original internal endpoint.
    #[test]
    fn nat_roundtrip_restores_endpoint(sp in any::<u16>(), dst in any::<u32>(), dp in any::<u16>(), host in any::<u16>()) {
        let internal: Prefix = "192.168.0.0/16".parse().unwrap();
        let external = Address(0x0101_0101);
        let dst = Address(dst);
        prop_assume!(!internal.contains(dst) && dst != external);
        let n = models::nat("nat", internal, external);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let src = Address(0xC0A8_0000 | host as u32);
        let out = Header::new(src, sp, dst, dp);
        let sent = process(&n, &mut st, false, out, &mut no_oracle, &mut ch)
            .emitted.expect("outbound forwarded");
        prop_assert_eq!(sent.src, external);
        prop_assert!(sent.src_port >= 32768 || sp >= 32768,
            "fresh ports come from the ephemeral range");
        let back = process(&n, &mut st, false, sent.reverse(), &mut no_oracle, &mut ch)
            .emitted.expect("reply restored");
        prop_assert_eq!(back.dst, src);
        prop_assert_eq!(back.dst_port, sp);
    }

    /// The NAT never exposes internal addresses: any packet it emits
    /// toward the outside carries the external source.
    #[test]
    fn nat_never_leaks_internal_sources(h in arb_header()) {
        let internal: Prefix = "192.168.0.0/16".parse().unwrap();
        let external = Address(0x0101_0101);
        let n = models::nat("nat", internal, external);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        if let Some(e) = process(&n, &mut st, false, h, &mut no_oracle, &mut ch).emitted {
            prop_assert!(!internal.contains(e.src), "emitted src {} is internal", e.src);
        }
    }

    /// Cache coherence: a cache hit returns exactly the tag and origin of
    /// some previously observed response for that destination.
    #[test]
    fn cache_serves_only_observed_content(reqs in prop::collection::vec((any::<u32>(), any::<u16>()), 1..6), tag in any::<u64>()) {
        let servers: Prefix = "10.1.0.0/16".parse().unwrap();
        let cache = models::content_cache("cache", [servers], vec![]);
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        let server = Address(0x0A01_0005);
        // Warm: one response from the server.
        let warm_req = Header::new(Address(0x0B00_0001), 1000, server, 80);
        let resp = Header { origin: server, tag, ..warm_req.reverse() };
        process(&cache, &mut st, false, resp, &mut no_oracle, &mut ch);
        // Any client asking for that server gets the same content back.
        for (c, p) in reqs {
            let client = Address(0x0B00_0000 | (c & 0xFFFF));
            prop_assume!(!servers.contains(client));
            let req = Header::new(client, p, server, 80);
            let out = process(&cache, &mut st, false, req, &mut no_oracle, &mut ch)
                .emitted.expect("hit");
            prop_assert_eq!(out.origin, server);
            prop_assert_eq!(out.tag, tag);
            prop_assert_eq!(out.dst, client);
        }
    }

    /// Fail-closed boxes drop everything when failed; fail-open boxes are
    /// the identity.
    #[test]
    fn fail_mode_semantics(h in arb_header()) {
        let all: Prefix = "0.0.0.0/0".parse().unwrap();
        let closed = models::learning_firewall("fw", vec![(all, all)]);
        let open = models::wan_optimizer("wan");
        let mut st = MboxState::new();
        let mut ch = SeqChooser::new();
        prop_assert_eq!(process(&closed, &mut st, true, h, &mut no_oracle, &mut ch).emitted, None);
        prop_assert_eq!(process(&open, &mut st, true, h, &mut no_oracle, &mut ch).emitted, Some(h));
    }
}

/// Addresses and prefixes the random models and headers share, so that
/// guards, ACLs and rewrites match often.
const ADDRS: [u32; 7] =
    [0x0A01_0001, 0x0A01_0002, 0x0A02_0001, 0x0A02_0002, 0x0102_0304, 0xC0A8_0007, 0];
const PREFIXES: [&str; 6] =
    ["10.1.0.0/16", "10.2.0.0/16", "10.0.0.0/8", "0.0.0.0/0", "10.1.0.2/32", "192.168.0.0/16"];

fn pick_addr(rng: &mut TestRng) -> Address {
    Address(ADDRS[rng.below(ADDRS.len() as u64) as usize])
}

fn pick_prefix(rng: &mut TestRng) -> Prefix {
    PREFIXES[rng.below(PREFIXES.len() as u64) as usize].parse().unwrap()
}

fn pick_acl(rng: &mut TestRng) -> Vec<(Prefix, Prefix)> {
    (0..rng.below(3)).map(|_| (pick_prefix(rng), pick_prefix(rng))).collect()
}

/// A library model with random parameters, or a hand-built one whose
/// guards and actions are the address-reading arms no library model uses.
fn random_model(rng: &mut TestRng) -> MboxModel {
    match rng.below(12) {
        0 => models::learning_firewall("fw", pick_acl(rng)),
        1 => models::acl_firewall("acl", pick_acl(rng)),
        2 => models::nat("nat", pick_prefix(rng), pick_addr(rng)),
        3 => {
            let backends = (0..1 + rng.below(3)).map(|_| pick_addr(rng)).collect();
            models::load_balancer("lb", pick_addr(rng), backends)
        }
        4 => models::idps("idps"),
        5 => models::content_cache("cache", [pick_prefix(rng)], pick_acl(rng)),
        6 => models::scrubber("scrub"),
        7 => models::wan_optimizer("wan"),
        8 => models::application_firewall("app", &["skype?"], &["skype?", "jabber?"]),
        9 => models::security_group_firewall("sg", pick_acl(rng)),
        10 => models::gateway("gw"),
        _ => MboxModel::new("exotic")
            .rule(
                Guard::and([
                    Guard::SrcIs(pick_addr(rng)),
                    Guard::not(Guard::OriginIs(pick_addr(rng))),
                ]),
                vec![Action::RewriteDst(pick_addr(rng)), Action::Forward],
            )
            .rule(
                Guard::or([Guard::OriginIn(pick_prefix(rng)), Guard::DstIs(pick_addr(rng))]),
                vec![Action::RewriteSrc(pick_addr(rng)), Action::Forward],
            )
            .rule(Guard::DstIn(pick_prefix(rng)), vec![Action::Forward])
            .rule(Guard::True, vec![Action::Drop]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Translation commutes with execution: feeding `h ^ mask` to
    /// `model.translated(mask)` fires the rule `h` fires in `model` and
    /// emits the translated packet, over a run of packets that builds up
    /// state (each packet is fresh or the reply to the last emission, so
    /// established flows, NAT restores and cache hits occur).
    #[test]
    fn translated_models_commute_with_exec(seed in any::<u64>(), mask in any::<u32>()) {
        let mut rng = TestRng::new(seed);
        let model = random_model(&mut rng);
        model.validate().expect("library models validate");
        let moved = model.translated(mask);
        prop_assert_eq!(moved.translated(mask), model.clone(), "a translation is its own inverse");
        let (mut st, mut moved_st) = (MboxState::new(), MboxState::new());
        let (mut ch, mut moved_ch) = (SeqChooser::new(), SeqChooser::new());
        let mut last: Option<Header> = None;
        for _ in 0..6 {
            let h = match last {
                Some(e) if rng.below(2) == 0 => e.reverse(),
                _ => {
                    let src = pick_addr(&mut rng);
                    let origin = if rng.below(3) == 0 { pick_addr(&mut rng) } else { src };
                    let port = |rng: &mut TestRng| [80, 443, 1000][rng.below(3) as usize];
                    let (sp, dp) = (port(&mut rng), port(&mut rng));
                    Header { origin, ..Header::new(src, sp, pick_addr(&mut rng), dp) }
                }
            };
            // An oracle answers by name and step, never by address.
            let flagged = rng.below(2) == 0;
            let mut oracle = |name: &str, _: &Header| flagged && name.starts_with('m');
            let out = process(&model, &mut st, false, h, &mut oracle, &mut ch);
            let moved_out =
                process(&moved, &mut moved_st, false, h.translated(mask), &mut oracle, &mut moved_ch);
            prop_assert_eq!(moved_out.matched_rule, out.matched_rule, "{} on {}", model.type_name, h);
            prop_assert_eq!(moved_out.emitted, out.emitted.map(|e| e.translated(mask)));
            last = out.emitted.or(last);
        }
    }
}

//! The standard middlebox model library.
//!
//! These are the middlebox types the paper's evaluation deploys (stateful
//! firewalls, load balancers, IDPSes, content caches, NATs, scrubbers) plus
//! the other common types its §3.4 discusses (application firewalls, WAN
//! optimizers). Previous studies found only a limited number of middlebox
//! types in production networks, so — as the paper argues — a small
//! reusable library covers most deployments.

use crate::{Action, FailMode, Guard, KeyExpr, MboxModel};
use vmn_net::{Address, Prefix};

/// The paper's Listing 1: a learning (stateful) firewall.
///
/// Forwards packets of established flows; otherwise consults the ACL of
/// allowed (source, destination) prefix pairs, recording allowed flows as
/// established. Fails closed. Flow-parallel.
pub fn learning_firewall(name: &str, acl: Vec<(Prefix, Prefix)>) -> MboxModel {
    MboxModel::new(name)
        .fail_mode(FailMode::Closed)
        .state("established", KeyExpr::Flow)
        .acl("acl", acl)
        .rule(
            Guard::StateContains { state: "established".into(), key: KeyExpr::Flow },
            vec![Action::Forward],
        )
        .rule(
            Guard::AclMatch("acl".into()),
            vec![Action::Insert("established".into()), Action::Forward],
        )
        .rule(Guard::True, vec![Action::Drop])
}

/// A stateless ACL firewall: forwards (src, dst) pairs on the allow list,
/// drops everything else.
pub fn acl_firewall(name: &str, allow: Vec<(Prefix, Prefix)>) -> MboxModel {
    MboxModel::new(name)
        .fail_mode(FailMode::Closed)
        .acl("allow", allow)
        .rule(Guard::AclMatch("allow".into()), vec![Action::Forward])
        .rule(Guard::True, vec![Action::Drop])
}

/// The paper's Listing 2: a NAT translating `internal` sources to
/// `external`.
///
/// Outbound packets have their source rewritten to `external` with a fresh
/// port, and the (rewritten) flow recorded; inbound packets to `external`
/// are restored to the remembered internal endpoint, and anything else to
/// `external` is dropped. Traffic that is neither outbound nor addressed
/// to the external address is dropped too — internal addresses are not
/// reachable through a NAT. Fails closed (explicit failure branch in the
/// paper's listing). Flow-parallel.
pub fn nat(name: &str, internal: Prefix, external: Address) -> MboxModel {
    MboxModel::new(name)
        .fail_mode(FailMode::Closed)
        .state("active", KeyExpr::Flow)
        // Inbound: restore the destination for known flows…
        .rule(
            Guard::and([
                Guard::DstIs(external),
                Guard::StateContains { state: "active".into(), key: KeyExpr::Flow },
            ]),
            vec![Action::RestoreDstFromState("active".into()), Action::Forward],
        )
        // …and drop unsolicited traffic to the external address.
        .rule(Guard::DstIs(external), vec![Action::Drop])
        // Outbound: rewrite source and remember the mapping.
        .rule(
            Guard::SrcIn(internal),
            vec![
                Action::RewriteSrc(external),
                Action::RewriteSrcPortFresh,
                Action::Insert("active".into()),
                Action::Forward,
            ],
        )
        // Everything else (traffic aimed directly at internal addresses)
        // is dropped: the internal network is hidden.
        .rule(Guard::True, vec![Action::Drop])
}

/// A load balancer exposing `vip` and spreading connections over
/// `backends`.
///
/// The choice of backend is nondeterministic: the verifier considers every
/// possible assignment (over-approximating any concrete hashing scheme),
/// the simulator picks one. Flow-parallel.
pub fn load_balancer(name: &str, vip: Address, backends: Vec<Address>) -> MboxModel {
    MboxModel::new(name)
        .fail_mode(FailMode::Closed)
        .rule(Guard::DstIs(vip), vec![Action::RewriteDstOneOf(backends), Action::Forward])
        .rule(Guard::True, vec![Action::Forward])
}

/// An intrusion detection *and prevention* system: drops packets the
/// `malicious?` oracle flags, forwards the rest.
///
/// Per the paper (§4.1), IDSes can be treated as flow-parallel in VMN
/// without losing verification fidelity.
pub fn idps(name: &str) -> MboxModel {
    MboxModel::new(name)
        .fail_mode(FailMode::Open)
        .oracle("malicious?")
        .rule(Guard::Oracle("malicious?".into()), vec![Action::Drop])
        .rule(Guard::True, vec![Action::Forward])
}

/// A passive IDS that only monitors (always forwards). Rerouting of
/// suspect prefixes toward a scrubber is a *routing* decision in the ISP
/// scenario (§5.3.3), so the box itself is pass-through.
pub fn ids_monitor(name: &str) -> MboxModel {
    MboxModel::new(name).fail_mode(FailMode::Open).rule(Guard::True, vec![Action::Forward])
}

/// A scrubbing box: discards traffic the `attack?` oracle identifies and
/// forwards the remainder to the intended destination (§5.3.3).
pub fn scrubber(name: &str) -> MboxModel {
    MboxModel::new(name)
        .fail_mode(FailMode::Closed)
        .oracle("attack?")
        .rule(Guard::Oracle("attack?".into()), vec![Action::Drop])
        .rule(Guard::True, vec![Action::Forward])
}

/// A content cache in front of servers in `servers`.
///
/// * Responses from the servers are recorded (keyed by data origin) and
///   forwarded to the requesting client.
/// * Requests whose origin is cached are answered directly from the cache
///   — the cached copy retains the original origin, which is what makes
///   cache-induced data-isolation violations expressible (§5.2).
/// * `deny` lists (client-prefix, origin-prefix) pairs the cache must not
///   serve — the ACL feature "supported by most open source and
///   commercial caches" that §5.2's misconfigurations delete.
///
/// Origin-agnostic: the cache's behaviour does not depend on which client
/// warmed it.
pub fn content_cache(
    name: &str,
    servers: impl IntoIterator<Item = Prefix>,
    deny: Vec<(Prefix, Prefix)>,
) -> MboxModel {
    let from_servers = Guard::or(servers.into_iter().map(Guard::SrcIn).collect::<Vec<_>>());
    MboxModel::new(name)
        .fail_mode(FailMode::Open)
        .state("cache", KeyExpr::Origin)
        .acl("deny", deny)
        // Server responses populate the cache.
        .rule(from_servers, vec![Action::Insert("cache".into()), Action::Forward])
        // Denied (client, origin) requests are refused outright.
        .rule(Guard::AclMatch("deny".into()), vec![Action::Drop])
        // Cache hit: answer from the cache.
        .rule(
            Guard::StateContains { state: "cache".into(), key: KeyExpr::DstAddr },
            vec![Action::RespondFromState("cache".into())],
        )
        // Miss: pass the request to the server.
        .rule(Guard::True, vec![Action::Forward])
}

/// An application-level firewall dropping the listed application classes
/// (e.g. `skype?`). All application oracles are declared mutually
/// exclusive — the §3.4 example of an output constraint.
pub fn application_firewall(name: &str, deny_apps: &[&str], all_apps: &[&str]) -> MboxModel {
    let mut m = MboxModel::new(name).fail_mode(FailMode::Closed);
    for app in all_apps {
        m = m.oracle(*app);
    }
    m = m.exclusive(all_apps.iter().copied());
    for app in deny_apps {
        assert!(all_apps.contains(app), "denied app {app:?} must be declared");
        m = m.rule(Guard::Oracle((*app).to_string()), vec![Action::Drop]);
    }
    m.rule(Guard::True, vec![Action::Forward])
}

/// A WAN optimizer / compression proxy: payloads are transformed, which
/// the paper models as replacement with a fresh value.
pub fn wan_optimizer(name: &str) -> MboxModel {
    MboxModel::new(name)
        .fail_mode(FailMode::Open)
        .rule(Guard::True, vec![Action::HavocTag, Action::Forward])
}

/// A plain gateway/router modelled as a pass-through middlebox (used when
/// a pipeline position matters but the box adds no policy).
pub fn gateway(name: &str) -> MboxModel {
    MboxModel::new(name).fail_mode(FailMode::Open).rule(Guard::True, vec![Action::Forward])
}

/// A per-host virtual-switch firewall in the EC2 security-group style
/// (§5.3.2): default-deny, with explicit allow pairs, stateful so that
/// permitted connections also allow their reverse traffic.
pub fn security_group_firewall(name: &str, allow: Vec<(Prefix, Prefix)>) -> MboxModel {
    // Identical structure to the learning firewall; kept separate so
    // topologies can distinguish the types.
    let mut m = learning_firewall(name, allow);
    m.type_name = name.to_string();
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    #[test]
    fn all_models_validate() {
        let models = vec![
            learning_firewall("fw", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))]),
            acl_firewall("acl-fw", vec![(px("10.0.0.0/8"), px("10.0.0.0/8"))]),
            nat("nat", px("10.0.0.0/8"), addr("1.2.3.4")),
            load_balancer("lb", addr("10.0.0.100"), vec![addr("10.0.0.1"), addr("10.0.0.2")]),
            idps("idps"),
            ids_monitor("ids"),
            scrubber("sb"),
            content_cache("cache", [px("10.1.0.0/16")], vec![]),
            application_firewall("appfw", &["skype?"], &["skype?", "jabber?"]),
            wan_optimizer("wanopt"),
            gateway("gw"),
            security_group_firewall("sg", vec![]),
        ];
        for m in models {
            m.validate().unwrap_or_else(|e| panic!("{} failed: {e}", m.type_name));
        }
    }

    #[test]
    fn firewall_fails_closed_cache_fails_open() {
        assert_eq!(learning_firewall("f", vec![]).fail_mode, FailMode::Closed);
        assert_eq!(content_cache("c", [px("10.0.0.0/8")], vec![]).fail_mode, FailMode::Open);
        assert_eq!(idps("i").fail_mode, FailMode::Open);
    }

    #[test]
    #[should_panic(expected = "must be declared")]
    fn application_firewall_checks_app_list() {
        application_firewall("appfw", &["ghost?"], &["skype?"]);
    }
}

//! Fuzzes the delta parser through the protocol: valid delta lines
//! against a partitioned two-site estate, each mutated so that the daemon
//! must refuse it — truncated, a field of the wrong JSON type, an unknown
//! `op`, a malformed address or prefix, a name that is unknown or taken,
//! empty arguments for a kind that needs some — and fed to
//! [`handle_line`], alone or as the second delta of a batch behind the
//! same delta unmutated.
//!
//! Every response must be `ok:false` with a message, nothing may panic,
//! and the `verdicts` and `status` responses after a refused request must
//! equal the ones before it: `NetSession::apply` is transactional. Cases
//! derive from the proptest per-test seed.
//!
//! A deterministic companion (`refused_deltas_leave_the_session_unchanged`)
//! covers refusals the mutations cannot reach: a route that closes a
//! forwarding loop, which only the re-verification after the swap finds,
//! an invariant naming a switch, and a self-link. The session after each
//! must equal the one before, and the next valid delta must answer as a
//! verifier built from nothing on the same spec.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use vmn::{Verifier, VerifyOptions};
use vmn_serve::json::{self, Value};
use vmn_serve::{handle_line, Service};

const NET: &str = "estate";

const CONFIG: &str = "\
host a1 10.1.0.1
host a2 10.1.0.2
host b1 10.2.0.1
host b2 10.2.0.2
switch asw
switch bsw
switch core
acl-firewall afw allow 10.1.0.0/16 -> 0.0.0.0/0
acl-firewall bfw allow 10.2.0.0/16 -> 0.0.0.0/0
link a1 asw
link a2 asw
link b1 bsw
link b2 bsw
link asw afw
link afw core
link bsw bfw
link bfw core
autoroute
steer asw from a1 10.0.0.0/8 afw prio -10
steer asw from a2 10.0.0.0/8 afw prio -10
steer bsw from b1 10.0.0.0/8 bfw prio -10
steer bsw from b2 10.0.0.0/8 bfw prio -10
steer core from afw 10.2.0.0/16 bfw
steer core from bfw 10.1.0.0/16 afw
partition auto
fail afw
verify node-isolation a1 -> b1
verify node-isolation b1 -> a1
";

/// A delta that applies to [`CONFIG`], with what its mutations may use.
struct Template {
    op: &'static str,
    fields: Vec<(&'static str, Value)>,
    /// Field values that name a node the delta cannot take: unknown,
    /// already present, of the wrong kind, or still referenced.
    bad_names: Vec<(&'static str, Value)>,
    /// Fields whose text holds addresses or prefixes.
    addressed: &'static [&'static str],
    /// Whether the middlebox kind needs arguments.
    needs_args: bool,
}

fn s(v: &str) -> Value {
    Value::str(v)
}

fn list(items: &[&str]) -> Value {
    Value::Arr(items.iter().map(|i| s(i)).collect())
}

fn templates() -> Vec<Template> {
    let t = |op, fields: Vec<(&'static str, Value)>, bad_names, addressed, needs_args| Template {
        op,
        fields,
        bad_names,
        addressed,
        needs_args,
    };
    vec![
        t(
            "set-model",
            vec![
                ("name", s("afw")),
                ("kind", s("acl-firewall")),
                ("args", s("allow 10.1.0.0/24 -> 0.0.0.0/0")),
            ],
            vec![("name", s("ghost")), ("name", s("a1"))],
            &["args"],
            false,
        ),
        t(
            "set-model",
            vec![
                ("name", s("afw")),
                ("kind", s("nat")),
                ("args", s("internal 10.1.0.0/16 external 10.1.9.9")),
            ],
            vec![("name", s("ghost")), ("name", s("core"))],
            &["args"],
            true,
        ),
        t(
            "add-mbox",
            vec![
                ("name", s("lb9")),
                ("kind", s("lb")),
                ("args", s("vip 10.1.0.100 backends 10.1.0.1")),
            ],
            vec![("name", s("afw"))],
            &["args"],
            true,
        ),
        t(
            "add-host",
            vec![("name", s("h9")), ("addr", s("10.9.0.1"))],
            vec![("name", s("b2"))],
            &["addr"],
            false,
        ),
        t(
            "add-link",
            vec![("a", s("a2")), ("b", s("core"))],
            vec![("a", s("ghost")), ("b", s("ghost")), ("b", s("asw")), ("b", s("a2"))],
            &[],
            false,
        ),
        t(
            "remove-link",
            vec![("a", s("a1")), ("b", s("asw"))],
            vec![("a", s("ghost")), ("b", s("core"))],
            &[],
            false,
        ),
        t(
            "add-route",
            vec![
                ("switch", s("core")),
                ("prefix", s("10.1.0.0/16")),
                ("next", s("afw")),
                ("prio", Value::num(5.0)),
            ],
            vec![("switch", s("ghost")), ("next", s("ghost"))],
            &["prefix"],
            false,
        ),
        t(
            "add-steer",
            vec![
                ("switch", s("asw")),
                ("from", s("a1")),
                ("prefix", s("10.2.0.0/16")),
                ("next", s("afw")),
                ("prio", Value::num(20.0)),
            ],
            vec![("switch", s("ghost")), ("from", s("ghost")), ("next", s("ghost"))],
            &["prefix"],
            false,
        ),
        t(
            "add-invariant",
            vec![("spec", s("node-isolation a2 -> b1"))],
            vec![("spec", s("node-isolation ghost -> b1")), ("spec", s("node-isolation a1 -> b1"))],
            &[],
            false,
        ),
        t(
            "retire-invariant",
            vec![("spec", s("node-isolation a1 -> b1"))],
            vec![("spec", s("node-isolation a2 -> b2"))],
            &[],
            false,
        ),
        t(
            "add-scenario",
            vec![("fail", list(&["bfw"]))],
            vec![("fail", list(&["ghost"])), ("fail", list(&["afw"]))],
            &[],
            false,
        ),
        t(
            "remove-scenario",
            vec![("fail", list(&["afw"]))],
            vec![("fail", list(&["bfw"]))],
            &[],
            false,
        ),
        t(
            "remove-node",
            vec![("name", s("b2"))],
            vec![("name", s("ghost")), ("name", s("b1"))],
            &[],
            false,
        ),
    ]
}

fn delta_value(op: &str, fields: &[(&'static str, Value)]) -> Value {
    let mut pairs = vec![("op", s(op))];
    pairs.extend(fields.iter().cloned());
    Value::obj(pairs)
}

fn request(deltas: Vec<Value>) -> String {
    let body = match <[Value; 1]>::try_from(deltas) {
        Ok([one]) => ("delta", one),
        Err(many) => ("deltas", Value::Arr(many)),
    };
    Value::obj([("op", s("delta")), ("net", s(NET)), body]).to_string()
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

fn set(fields: &mut [(&'static str, Value)], key: &str, value: Value) {
    let slot = fields.iter_mut().find(|(k, _)| *k == key).expect("template field");
    slot.1 = value;
}

/// One mutation of `t` that the daemon must refuse, as its delta object,
/// or — for a mutation of the line itself — as the whole request line.
enum Mutated {
    Delta(Value),
    Line(String),
}

fn mutate(rng: &mut TestRng, t: &Template) -> Mutated {
    let mut fields = t.fields.clone();
    loop {
        match rng.below(6) {
            // Truncation: every proper prefix of an object is malformed.
            0 => {
                let line = request(vec![delta_value(t.op, &fields)]);
                let cut = rng.below(line.len() as u64) as usize;
                return Mutated::Line(line[..cut].to_string());
            }
            // A field, or the delta's own `op`, of the wrong JSON type.
            1 => {
                let wrong = [Value::num(7.0), Value::Bool(true), Value::Null, Value::obj([])];
                let k = rng.below(fields.len() as u64 + 1) as usize;
                let Some((key, _)) = fields.get(k) else {
                    let mut pairs = vec![("op", pick(rng, &wrong).clone())];
                    pairs.extend(fields);
                    return Mutated::Delta(Value::obj(pairs));
                };
                let value = match *key {
                    "prio" => pick(rng, &[s("high"), Value::num(2.5), Value::Bool(false)]).clone(),
                    "args" | "fail" => pick(
                        rng,
                        &[Value::num(7.0), Value::Null, Value::Arr(vec![Value::num(1.0)])],
                    )
                    .clone(),
                    _ => pick(rng, &[wrong[0].clone(), wrong[1].clone(), list(&["x"])]).clone(),
                };
                let key = *key;
                set(&mut fields, key, value);
            }
            // An unknown op, in the delta or on the request line.
            2 => {
                if rng.below(2) == 0 {
                    let op = *pick(rng, &["", "set_model", "Set-Model", "add-nodes", "drop"]);
                    return Mutated::Delta(delta_value(op, &fields));
                }
                let line = request(vec![delta_value(t.op, &fields)]);
                let op = *pick(rng, &["deltas", "DELTA", "patch"]);
                return Mutated::Line(line.replacen("\"delta\"", &format!("{op:?}"), 1));
            }
            // A malformed address or prefix.
            3 if !t.addressed.is_empty() => {
                let key = *pick(rng, t.addressed);
                let (_, Value::Str(text)) = fields.iter().find(|(k, _)| *k == key).unwrap() else {
                    unreachable!("addressed fields hold text")
                };
                let tokens: Vec<&str> = text.split(' ').collect();
                let at: Vec<usize> =
                    (0..tokens.len()).filter(|&i| tokens[i].contains('.')).collect();
                let i = *pick(rng, &at);
                let bad =
                    *pick(rng, &["10.0.0.0/33", "10.0.0/8", "300.1.0.0/16", "banana", "10.1./"]);
                let text = tokens
                    .iter()
                    .enumerate()
                    .map(|(j, tok)| if j == i { bad } else { tok })
                    .collect::<Vec<_>>()
                    .join(" ");
                set(&mut fields, key, s(&text));
            }
            // A name the delta cannot take.
            4 => {
                let (key, value) = pick(rng, &t.bad_names).clone();
                set(&mut fields, key, value);
            }
            // No arguments for a kind that needs them.
            5 if t.needs_args => {
                set(&mut fields, "args", pick(rng, &[s(""), Value::Arr(Vec::new())]).clone());
            }
            _ => continue,
        }
        return Mutated::Delta(delta_value(t.op, &fields));
    }
}

fn loaded() -> Service {
    let mut svc = Service::new(VerifyOptions::default());
    let load = Value::obj([("op", s("load")), ("net", s(NET)), ("config", s(CONFIG))]);
    let r = handle_line(&mut svc, &load.to_string());
    assert!(r.text.starts_with(r#"{"ok":true"#), "{}", r.text);
    svc
}

/// What a client can observe of the session between requests.
fn observe(svc: &mut Service) -> (String, String) {
    let verdicts = handle_line(svc, &format!(r#"{{"op":"verdicts","net":"{NET}"}}"#)).text;
    (verdicts, handle_line(svc, r#"{"op":"status"}"#).text)
}

/// Every unmutated template applies: the mutations start from valid lines.
#[test]
fn every_template_applies() {
    for t in templates() {
        let mut svc = loaded();
        let r = handle_line(&mut svc, &request(vec![delta_value(t.op, &t.fields)]));
        assert!(r.text.starts_with(r#"{"ok":true"#), "{}: {}", t.op, r.text);
    }
}

fn run_case(seed: u64) {
    let mut rng = TestRng::new(seed);
    let templates = templates();
    let mut svc = loaded();
    for _ in 0..6 {
        let t = pick(&mut rng, &templates);
        let line = match mutate(&mut rng, t) {
            Mutated::Line(line) => line,
            Mutated::Delta(bad) if rng.below(3) == 0 => {
                request(vec![delta_value(t.op, &t.fields), bad])
            }
            Mutated::Delta(bad) => request(vec![bad]),
        };
        let before = observe(&mut svc);
        let r = handle_line(&mut svc, &line);
        assert!(!r.shutdown, "{line}");
        let v = json::parse(&r.text).unwrap_or_else(|e| panic!("{line}: response {e}"));
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "accepted: {line}\n{}", r.text);
        let message = v.str_field("error").unwrap_or_default();
        assert!(!message.is_empty(), "no message for {line}: {}", r.text);
        assert_eq!(observe(&mut svc), before, "a refused delta moved the session: {line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mutated delta lines are refused in-band and leave the session as
    /// they found it.
    #[test]
    fn mutated_deltas_are_refused_without_effect(seed in any::<u64>()) {
        run_case(seed);
    }
}

/// Two hosts on a line of two switches. A route on `s2` sending `b`'s
/// prefix back to `s1` loops, which only the reconcile pass after the swap
/// finds; a switch endpoint and a self-link are refused before it.
const LINE: &str = "\
host a 1.0.0.1
host b 2.0.0.1
switch s1
switch s2
link a s1
link b s2
link s1 s2
autoroute
verify node-isolation a -> b
";

#[test]
fn refused_deltas_leave_the_session_unchanged() {
    let mut svc = Service::new(VerifyOptions::default());
    let load = Value::obj([("op", s("load")), ("net", s(NET)), ("config", s(LINE))]);
    let r = handle_line(&mut svc, &load.to_string());
    assert!(r.text.starts_with(r#"{"ok":true"#), "{}", r.text);
    let spec = |svc: &Service| format!("{:?}", svc.net(NET).expect("loaded").spec());
    let (before, spec_before) = (observe(&mut svc), spec(&svc));

    let refused = [
        delta_value(
            "add-route",
            &[
                ("switch", s("s2")),
                ("prefix", s("2.0.0.0/8")),
                ("next", s("s1")),
                ("prio", Value::num(100.0)),
            ],
        ),
        delta_value("add-invariant", &[("spec", s("node-isolation b -> s1"))]),
        delta_value("add-link", &[("a", s("s1")), ("b", s("s1"))]),
    ];
    for bad in refused {
        let line = request(vec![bad]);
        let r = handle_line(&mut svc, &line);
        assert!(r.text.starts_with(r#"{"ok":false"#), "accepted: {line}\n{}", r.text);
        assert_eq!(observe(&mut svc), before, "a refused delta moved the session: {line}");
        assert_eq!(spec(&svc), spec_before, "a refused delta moved the spec: {line}");
    }

    let line = request(vec![delta_value("add-invariant", &[("spec", s("node-isolation b -> a"))])]);
    let r = handle_line(&mut svc, &line);
    assert!(r.text.starts_with(r#"{"ok":true"#), "{}", r.text);
    let session = svc.net(NET).expect("loaded");
    let m = session.spec().materialize().expect("live spec rematerializes");
    let fresh = Verifier::new(&m.net, VerifyOptions::default()).expect("valid network");
    let verdicts = session.verdicts();
    assert_eq!(verdicts.len(), 2);
    for ((spec, inv), served) in m.invariants.iter().zip(&verdicts) {
        assert_eq!(served.spec, *spec);
        let want = fresh.verify(inv).expect("from-scratch verify succeeds").verdict.holds();
        assert_eq!(served.holds, want, "{spec}");
    }
}

//! The newline-delimited-JSON protocol behind `vmn serve`.
//!
//! One request per line, one response line per request. Requests are
//! objects with an `"op"` field:
//!
//! ```text
//! {"op":"load","net":"prod","config":"host a 1.1.1.1\n..."}
//! {"op":"delta","net":"prod","delta":{"op":"set-model","name":"fw",...}}
//! {"op":"delta","net":"prod","deltas":[{...},{...}]}        # one batch
//! {"op":"verdicts","net":"prod"}
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`; errors are
//! `{"ok":false,"error":"..."}` and never terminate the session. Delta
//! responses describe the re-verification (see [`DeltaReport`]):
//! `touched` (the session footprint), `pairs`, `prefiltered` (pairs kept
//! because the batch touched no node), `contract_answered`,
//! `cache_hits`, `rechecked`, `retired`, `modules` / `modules_touched`
//! (modular mode), `changed`, and four times: `materialize_ms` (turning
//! the spec into the epoch's network: both halves on `load` and a
//! structural delta, the behavioural half alone on any other),
//! `swap_ms` (building the verifier's epoch on `load`, swapping it in on
//! a delta), `reconcile_ms` (the kept / contract / slice-key ladder)
//! and `elapsed_ms` (the whole request, all three included), each in
//! milliseconds at microsecond resolution.
//! The empty scenario key `""` names the implicit no-failure scenario.

use std::io::{BufRead, Write};
use std::time::Duration;

use crate::delta::Delta;
use crate::json::{self, Value};
use crate::service::{DeltaReport, NetSession, Service};
use vmn_analysis::TouchSet;

/// One protocol response: the line to write back, and whether the
/// request asked the server to stop.
pub struct Response {
    pub text: String,
    pub shutdown: bool,
}

impl Response {
    /// The response line for `v`. Serialising grows the text by doubling;
    /// it is trimmed to its length, so a caller that keeps responses (a
    /// batch client, a log) holds what they say, not up to twice that.
    fn line(v: Value) -> Response {
        let mut text = v.to_string();
        text.shrink_to_fit();
        Response { text, shutdown: false }
    }
}

fn error(message: impl std::fmt::Display) -> Response {
    Response::line(Value::obj([
        ("ok", Value::Bool(false)),
        ("error", Value::str(message.to_string())),
    ]))
}

fn ok(mut fields: Vec<(&'static str, Value)>) -> Response {
    fields.insert(0, ("ok", Value::Bool(true)));
    Response::line(Value::obj(fields))
}

fn touched_json(t: &TouchSet) -> Value {
    match t {
        TouchSet::Nothing => Value::str("nothing"),
        TouchSet::Everything => Value::str("everything"),
        TouchSet::Nodes(names) => {
            let list: Vec<&str> = names.iter().map(String::as_str).collect();
            Value::str(format!("nodes:{}", list.join(",")))
        }
    }
}

/// A duration in milliseconds at microsecond resolution. Finer digits
/// are timer noise, yet an `f64` of nanoseconds prints up to 17 of them.
fn ms(d: Duration) -> Value {
    Value::num(d.as_micros() as f64 / 1e3)
}

fn report_json(r: &DeltaReport) -> Vec<(&'static str, Value)> {
    let changed: Vec<Value> = r
        .changed
        .iter()
        .map(|(inv, skey, holds, was)| {
            Value::obj([
                ("invariant", Value::str(inv.clone())),
                ("scenario", Value::str(skey.clone())),
                ("holds", Value::Bool(*holds)),
                ("was", was.map(Value::Bool).unwrap_or(Value::Null)),
            ])
        })
        .collect();
    vec![
        ("touched", touched_json(&r.touched)),
        ("pairs", Value::num(r.pairs as f64)),
        ("prefiltered", Value::num(r.prefiltered as f64)),
        ("contract_answered", Value::num(r.contract_answered as f64)),
        ("cache_hits", Value::num(r.cache_hits as f64)),
        ("rechecked", Value::num(r.rechecked as f64)),
        ("retired", Value::num(r.retired as f64)),
        ("modules", Value::num(r.modules as f64)),
        ("modules_touched", r.modules_touched.map(|n| Value::num(n as f64)).unwrap_or(Value::Null)),
        ("changed", Value::Arr(changed)),
        ("materialize_ms", ms(r.materialize)),
        ("swap_ms", ms(r.swap)),
        ("reconcile_ms", ms(r.reconcile)),
        ("elapsed_ms", ms(r.elapsed)),
    ]
}

fn verdicts_json(session: &NetSession) -> Vec<(&'static str, Value)> {
    let invariants: Vec<Value> = session
        .verdicts()
        .into_iter()
        .map(|iv| {
            let mut fields = vec![("spec", Value::str(iv.spec)), ("holds", Value::Bool(iv.holds))];
            if let Some((skey, steps)) = iv.violation {
                fields.push(("scenario", Value::str(skey)));
                fields.push(("witness_steps", Value::num(steps as f64)));
            }
            Value::obj(fields)
        })
        .collect();
    let pipelines: Vec<Value> = session
        .pipeline_verdicts()
        .iter()
        .map(|(spec, holds)| {
            Value::obj([("spec", Value::str(spec.clone())), ("holds", Value::Bool(*holds))])
        })
        .collect();
    vec![("invariants", Value::Arr(invariants)), ("pipelines", Value::Arr(pipelines))]
}

/// Handles one request line against the fleet.
pub fn handle_line(svc: &mut Service, line: &str) -> Response {
    let line = line.trim();
    if line.is_empty() {
        return error("empty request line");
    }
    let req = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return error(e),
    };
    let Some(op) = req.str_field("op") else {
        return error("request needs an \"op\" field");
    };
    let net_name = req.str_field("net").unwrap_or("default").to_string();
    match op {
        "load" => {
            let Some(config) = req.str_field("config") else {
                return error("load needs a \"config\" field (.vmn text)");
            };
            match svc.load(&net_name, config) {
                Ok(report) => {
                    let mut fields = vec![("net", Value::str(net_name.clone()))];
                    fields.extend(report_json(&report));
                    fields.extend(verdicts_json(svc.net(&net_name).expect("just loaded")));
                    ok(fields)
                }
                Err(e) => error(e),
            }
        }
        "delta" => {
            let deltas: Result<Vec<Delta>, String> = match (req.get("delta"), req.get("deltas")) {
                (Some(d), None) => Delta::from_json(d).map(|d| vec![d]),
                (None, Some(Value::Arr(items))) => items.iter().map(Delta::from_json).collect(),
                (None, Some(_)) => Err("\"deltas\" must be an array".into()),
                _ => Err("delta needs a \"delta\" object or a \"deltas\" array".into()),
            };
            let deltas = match deltas {
                Ok(d) => d,
                Err(e) => return error(e),
            };
            let Some(session) = svc.net_mut(&net_name) else {
                return error(format!("no loaded network {net_name:?}"));
            };
            match session.apply(&deltas) {
                Ok(report) => {
                    let mut fields = vec![("net", Value::str(net_name))];
                    fields.extend(report_json(&report));
                    ok(fields)
                }
                Err(e) => error(e),
            }
        }
        "verdicts" => match svc.net(&net_name) {
            Some(session) => {
                let mut fields = vec![("net", Value::str(net_name))];
                fields.extend(verdicts_json(session));
                ok(fields)
            }
            None => error(format!("no loaded network {net_name:?}")),
        },
        "status" => {
            let mut names: Vec<&str> = svc.names().collect();
            names.sort_unstable();
            let nets: Vec<Value> = names
                .iter()
                .map(|name| {
                    let s = svc.net(name).expect("listed");
                    Value::obj([
                        ("name", Value::str(*name)),
                        ("nodes", Value::num(s.names().len() as f64)),
                        ("invariants", Value::num(s.invariants().len() as f64)),
                        ("scenarios", Value::num(s.spec().fail_specs().count() as f64)),
                        ("cached_pairs", Value::num(s.cached_pairs() as f64)),
                    ])
                })
                .collect();
            ok(vec![("nets", Value::Arr(nets))])
        }
        "shutdown" => {
            let mut r = ok(vec![("shutdown", Value::Bool(true))]);
            r.shutdown = true;
            r
        }
        other => error(format!("unknown op {other:?}")),
    }
}

/// Drives a full session over any line-oriented transport (stdin/stdout
/// or an accepted unix-socket stream): one response line per request
/// line, flushed, until EOF or a `shutdown` request. Returns whether
/// `shutdown` was requested (the socket server uses this to stop
/// accepting).
pub fn serve_lines<R: BufRead, W: Write>(
    svc: &mut Service,
    reader: R,
    mut writer: W,
) -> std::io::Result<bool> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(svc, &line);
        writer.write_all(response.text.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if response.shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmn::VerifyOptions;

    const CONFIG: &str = "host a 1.1.1.1\nhost b 2.2.2.2\nswitch sw\nfirewall fw\nlink a sw\nlink b sw\nlink fw sw\nautoroute\nverify node-isolation a -> b\n";

    fn field_num(v: &Value, k: &str) -> f64 {
        v.get(k).and_then(Value::as_f64).unwrap_or_else(|| panic!("field {k} in {v}"))
    }

    #[test]
    fn scripted_session() {
        let mut svc = Service::new(VerifyOptions::default());
        let load = format!(r#"{{"op":"load","net":"n","config":{}}}"#, Value::str(CONFIG));
        let r = handle_line(&mut svc, &load);
        let v = json::parse(&r.text).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{}", r.text);
        assert_eq!(field_num(&v, "pairs"), 1.0);
        assert_eq!(field_num(&v, "rechecked"), 1.0);

        let r = handle_line(
            &mut svc,
            r#"{"op":"delta","net":"n","delta":{"op":"add-invariant","spec":"flow-isolation a -> b"}}"#,
        );
        let v = json::parse(&r.text).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{}", r.text);
        assert_eq!(v.str_field("touched"), Some("nothing"));
        assert_eq!(field_num(&v, "prefiltered"), 1.0);
        assert_eq!(field_num(&v, "rechecked"), 1.0);
        // The request's times are pinned: its three steps, then the
        // whole request.
        let Value::Obj(fields) = &v else { panic!("a delta response is an object: {v}") };
        let times: Vec<&str> =
            fields.iter().map(|(k, _)| k.as_str()).filter(|k| k.ends_with("_ms")).collect();
        assert_eq!(times, ["materialize_ms", "swap_ms", "reconcile_ms", "elapsed_ms"]);

        let r = handle_line(&mut svc, r#"{"op":"verdicts","net":"n"}"#);
        let v = json::parse(&r.text).unwrap();
        assert_eq!(v.get("invariants").and_then(Value::as_arr).unwrap().len(), 2);

        let r = handle_line(&mut svc, r#"{"op":"status"}"#);
        let v = json::parse(&r.text).unwrap();
        let nets = v.get("nets").and_then(Value::as_arr).unwrap();
        assert_eq!(nets.len(), 1);
        // The whole per-net field set is pinned: a status field only
        // disappears (or appears) when someone means it to.
        let Value::Obj(fields) = &nets[0] else { panic!("status net is an object: {}", nets[0]) };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "nodes", "invariants", "scenarios", "cached_pairs"]);
        assert_eq!(nets[0].str_field("name"), Some("n"));
        assert_eq!(field_num(&nets[0], "invariants"), 2.0);
        assert_eq!(field_num(&nets[0], "cached_pairs"), 2.0);

        // Errors don't kill the session.
        let r = handle_line(
            &mut svc,
            r#"{"op":"delta","net":"ghost","delta":{"op":"remove-node","name":"x"}}"#,
        );
        assert!(!r.shutdown);
        let v = json::parse(&r.text).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));

        let r = handle_line(&mut svc, r#"{"op":"shutdown"}"#);
        assert!(r.shutdown);
    }

    /// A line nested past the parser's bound is an in-band error, not a
    /// stack overflow that takes every loaded network with it.
    #[test]
    fn deeply_nested_line_is_an_error_and_the_service_lives_on() {
        let mut svc = Service::new(VerifyOptions::default());
        let deep = format!(r#"{{"op":"status","x":{}"#, "[".repeat(200_000));
        let r = handle_line(&mut svc, &deep);
        assert!(!r.shutdown);
        let v = json::parse(&r.text).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{}", r.text);

        let r = handle_line(&mut svc, r#"{"op":"status"}"#);
        let v = json::parse(&r.text).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{}", r.text);
    }

    /// A service chain whose trace bound (W·(D+1)+2 = 65 for data isolation
    /// across twenty boxes) exceeds what the encoder builds is an in-band
    /// error; the network loaded before it keeps answering.
    #[test]
    fn deep_chain_load_is_an_error_and_the_service_lives_on() {
        use std::fmt::Write;
        let mut svc = Service::new(VerifyOptions::default());
        let load = format!(r#"{{"op":"load","net":"n","config":{}}}"#, Value::str(CONFIG));
        let v = json::parse(&handle_line(&mut svc, &load).text).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));

        let mut chain =
            String::from("host a 1.1.1.1\nhost b 2.2.2.2\nswitch sw\nlink a sw\nlink b sw\n");
        for i in 1..=20 {
            let _ = writeln!(chain, "firewall fw{i} allow 0.0.0.0/0 -> 0.0.0.0/0\nlink fw{i} sw");
        }
        chain.push_str("autoroute\nsteer sw from a 0.0.0.0/0 fw1 prio 10\n");
        for i in 1..20 {
            let _ = writeln!(chain, "steer sw from fw{i} 0.0.0.0/0 fw{} prio 10", i + 1);
        }
        chain.push_str("verify data-isolation a -> b\n");
        let load = format!(r#"{{"op":"load","net":"deep","config":{}}}"#, Value::str(&chain));
        let r = handle_line(&mut svc, &load);
        assert!(!r.shutdown);
        let v = json::parse(&r.text).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{}", r.text);
        assert!(r.text.contains("trace bound 65"), "{}", r.text);

        let r = handle_line(&mut svc, r#"{"op":"status"}"#);
        let v = json::parse(&r.text).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{}", r.text);
        let nets = v.get("nets").and_then(Value::as_arr).unwrap();
        assert_eq!(nets.len(), 1, "the earlier network is still loaded: {}", r.text);
    }

    /// A client steered through a load balancer over `n` backends, and an
    /// invariant whose slice contains the balancer.
    fn lb_config(n: usize) -> String {
        let backends: Vec<String> = (1..=n).map(|i| format!("10.0.0.{i}")).collect();
        format!(
            "host c 1.1.1.1\nhost s 10.0.0.1\nswitch sw\nlb l1 vip 10.0.0.100 backends {}\n\
             link c sw\nlink s sw\nlink l1 sw\nautoroute\n\
             steer sw from c 0.0.0.0/0 l1 prio 10\nverify node-isolation c -> s\n",
            backends.join(",")
        )
    }

    /// `StepVars::choice` indexes at most 16 backends: a 17th is an in-band
    /// error naming the box, as is an empty list (a parse error with its
    /// line); the network loaded before either keeps answering, and 16
    /// backends verify.
    #[test]
    fn oversized_and_empty_lb_loads_are_errors_and_the_service_lives_on() {
        let mut svc = Service::new(VerifyOptions::default());
        let load = |svc: &mut Service, net: &str, config: &str| {
            let line = format!(r#"{{"op":"load","net":"{net}","config":{}}}"#, Value::str(config));
            let r = handle_line(svc, &line);
            assert!(!r.shutdown);
            let ok = json::parse(&r.text).unwrap().get("ok") == Some(&Value::Bool(true));
            (ok, r.text)
        };
        assert!(load(&mut svc, "n", CONFIG).0);

        let (ok, text) = load(&mut svc, "lb17", &lb_config(17));
        assert!(!ok, "{text}");
        assert!(text.contains("l1") && text.contains("17") && text.contains("16"), "{text}");

        let empty = lb_config(1).replace("backends 10.0.0.1", "backends ,");
        let (ok, text) = load(&mut svc, "lb0", &empty);
        assert!(!ok, "{text}");
        assert!(text.contains("line 4") && text.contains("backend"), "{text}");

        let r = handle_line(&mut svc, r#"{"op":"status"}"#);
        let v = json::parse(&r.text).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{}", r.text);
        let nets = v.get("nets").and_then(Value::as_arr).unwrap();
        assert_eq!(nets.len(), 1, "the earlier network is still loaded: {}", r.text);

        let (ok, text) = load(&mut svc, "lb16", &lb_config(16));
        assert!(ok, "{text}");
    }

    #[test]
    fn serve_lines_runs_to_shutdown() {
        let mut svc = Service::new(VerifyOptions::default());
        let script = format!(
            "{}\n{}\n{}\n",
            format_args!(r#"{{"op":"load","net":"n","config":{}}}"#, Value::str(CONFIG)),
            r#"{"op":"verdicts","net":"n"}"#,
            r#"{"op":"shutdown"}"#
        );
        let mut out = Vec::new();
        let stopped = serve_lines(&mut svc, script.as_bytes(), &mut out).unwrap();
        assert!(stopped);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert_eq!(json::parse(l).unwrap().get("ok"), Some(&Value::Bool(true)), "{l}");
        }
    }
}

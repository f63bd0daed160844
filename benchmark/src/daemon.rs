//! Daemon workloads: NDJSON lines into an in-process `vmn_serve::Service`.
//!
//! A round is a cold `load` into a fresh service, then one lap of the delta
//! stream on it: a closed loop of one request at a time, each timed from
//! outside `handle_line`. A lap has fixed class counts and leaves the spec as
//! it found it; a run holds as many rounds as its time allows. Nothing
//! survives a round, so every round does the same work, peak memory does not
//! grow with the number of rounds a faster program fits into the run, and
//! set-up is sampled as often as the stream is. Each request counts with the
//! fastest of its repetitions over the rounds (`stats::floors`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vmn::{PartitionMode, Verdict, Verifier, VerifyOptions};
use vmn_analysis::TouchSet;
use vmn_serve::json::{self, Value};
use vmn_serve::{handle_line, scenario_key, Delta, NetSpec, Service};

use crate::gen::{Class, Daemon, Request, NET};
use crate::oneshot::{replays, timed, Gate};
use crate::probe::clock;
use crate::spans::Recorder;
use crate::stats::{floors, median};

/// One answered delta request.
pub struct Sample {
    pub class: Class,
    pub seconds: f64,
    pub response: String,
    pub span: Option<usize>,
}

/// One round: a cold load, then a lap on the loaded service.
pub struct Lap {
    pub load_s: f64,
    pub load_span: Option<usize>,
    /// The sum of the lap's request times — what the closed-loop client
    /// waits for, without the probe work a traced lap does in between.
    pub seconds: f64,
    pub samples: Vec<Sample>,
    pub traced: bool,
}

/// The layer times a delta is made of, measured on a mirror of the
/// daemon's spec and verifier right after the daemon answered it.
#[derive(Default, Clone, Copy)]
pub struct DeltaLayers {
    pub json_s: f64,
    pub apply_s: f64,
    pub materialize_s: f64,
    pub swap_s: f64,
}

/// Applies one request's deltas to a spec the way `NetSession::apply`
/// does, returning the merged touch set.
fn apply_request(spec: &mut NetSpec, request: &Request) -> Result<TouchSet, String> {
    let mut next = spec.clone();
    let mut touched = TouchSet::Nothing;
    for item in &request.deltas {
        let delta = Delta::from_json(item)?;
        touched = touched.union(next.apply(&delta).map_err(|e| e.to_string())?);
    }
    *spec = next;
    Ok(touched)
}

/// A second copy of the daemon's spec and verifier, kept in step with it
/// from the request lines alone, on which a traced run times the public
/// calls a delta is made of.
pub struct Mirror {
    spec: NetSpec,
    verifier: Verifier,
}

pub fn options_for(spec: &NetSpec) -> VerifyOptions {
    let partition = if spec.partition { PartitionMode::Auto } else { PartitionMode::Off };
    VerifyOptions { partition, ..VerifyOptions::default() }
}

impl Mirror {
    pub fn new(config: &str) -> Result<Mirror, String> {
        let spec = NetSpec::parse(config).map_err(|e| e.to_string())?;
        let m = spec.materialize().map_err(|e| e.to_string())?;
        let verifier =
            Verifier::from_arc(Arc::new(m.net), options_for(&spec)).map_err(|e| e.to_string())?;
        Ok(Mirror { spec, verifier })
    }

    /// Steps the mirror past one answered request, timing each layer.
    pub fn step(&mut self, request: &Request, response: &str) -> Result<DeltaLayers, String> {
        let line = request.line();
        let mut json_s = clock(|| std::hint::black_box(json::parse(&line))).1;
        // Response text: serialising the tree the daemon built.
        let tree = json::parse(response).map_err(|e| e.to_string())?;
        json_s += clock(|| std::hint::black_box(tree.to_string())).1;
        let (touched, apply_s) = clock(|| apply_request(&mut self.spec, request));
        let touched = touched?;
        let (m, materialize_s) = clock(|| self.spec.materialize());
        let net = Arc::new(m.map_err(|e| e.to_string())?.net);
        let (swapped, swap_s) = clock(|| self.verifier.swap_network(net, &touched));
        swapped.map_err(|e| e.to_string())?;
        Ok(DeltaLayers { json_s, apply_s, materialize_s, swap_s })
    }
}

fn ok(response: &Value) -> bool {
    response.get("ok") == Some(&Value::Bool(true))
}

/// (spec text, holds, first violating scenario key) per invariant, from a
/// `load` or `verdicts` response.
fn verdict_rows(response: &Value) -> Vec<(String, bool, Option<String>)> {
    response
        .get("invariants")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|iv| {
            (
                iv.str_field("spec").unwrap_or_default().to_string(),
                iv.get("holds").and_then(Value::as_bool).unwrap_or(false),
                iv.str_field("scenario").map(str::to_string),
            )
        })
        .collect()
}

/// A cold load into a fresh `Service`, so nothing is warm; the verdicts
/// it answers are held against the generator's record.
fn cold_load(
    d: &Daemon,
    line: &str,
    mut rec: Option<&mut Recorder>,
    gate: &mut Gate,
) -> (Service, f64, Option<usize>) {
    let mut svc = Service::new(VerifyOptions::default());
    if let Some(r) = rec.as_mut() {
        r.next_op();
    }
    let (response, seconds, span) = timed(&mut rec, "load", || handle_line(&mut svc, line));
    match json::parse(&response.text) {
        Ok(v) if ok(&v) => {
            let rows = verdict_rows(&v);
            gate.check(rows.len() == d.expect_holds.len(), || {
                format!(
                    "load answered {} invariants, config has {}",
                    rows.len(),
                    d.expect_holds.len()
                )
            });
            for ((spec, holds, _), &want) in rows.iter().zip(&d.expect_holds) {
                gate.check(*holds == want, || {
                    format!("load: {spec} holds {holds}, expected {want}")
                });
            }
        }
        _ => gate.fail(format!("load failed: {}", response.text)),
    }
    (svc, seconds, span)
}

/// Sends one lap, one request at a time, each timed from outside.
fn run_lap(
    svc: &mut Service,
    requests: &[Request],
    lines: &[String],
    mut rec: Option<&mut Recorder>,
    mut on_answer: impl FnMut(&Request, &Sample),
) -> (f64, Vec<Sample>) {
    let mut samples = Vec::with_capacity(requests.len());
    let mut lap_s = 0.0;
    for (request, line) in requests.iter().zip(lines) {
        let span = rec.as_mut().map(|r| {
            r.next_op();
            r.enter(&format!("delta:{}", request.class.name()))
        });
        let t0 = Instant::now();
        let response = handle_line(svc, line);
        let seconds = t0.elapsed().as_secs_f64();
        if let (Some(r), Some(id)) = (rec.as_mut(), span) {
            r.exit(id);
        }
        lap_s += seconds;
        let sample = Sample { class: request.class, seconds, response: response.text, span };
        on_answer(request, &sample);
        samples.push(sample);
    }
    (lap_s, samples)
}

pub struct Stream {
    pub laps: Vec<Lap>,
    pub gate: Gate,
    /// Mirror layer times of traced laps with the span of the delta they
    /// explain, in stream order.
    pub layers: Vec<(DeltaLayers, usize)>,
    pub pooled_sessions: f64,
}

/// Runs the whole workload: rounds while one more of mean length fits the
/// budget (at least `min_rounds`), then the correctness gate on the last
/// round's service, outside the timed region.
pub fn run_stream(
    d: &Daemon,
    budget: Duration,
    min_rounds: usize,
    mut rec: Option<&mut Recorder>,
) -> Stream {
    let start = Instant::now();
    let mut gate = Gate::default();
    let load_line = d.load_line();
    let lines: Vec<String> = d.lap.iter().map(Request::line).collect();
    let mut laps = Vec::new();
    let mut layers = Vec::new();
    // The round's service lives in the loop body, so it is dropped before
    // the next one loads and peak memory never holds two of them.
    let mut svc = loop {
        // A traced run alternates untraced reference rounds with traced ones.
        let traced = rec.is_some() && laps.len() % 2 == 1;
        let mut round_rec = if traced { rec.as_deref_mut() } else { None };
        let (mut svc, load_s, load_span) =
            cold_load(d, &load_line, round_rec.as_deref_mut(), &mut gate);
        // The mirror steps after each answer, outside the request's timing,
        // so its verifier sees every epoch the daemon's does.
        let mut mirror = traced.then(|| Mirror::new(&d.config).expect("generated config loads"));
        let mut stepped = Vec::new();
        let (seconds, samples) = run_lap(&mut svc, &d.lap, &lines, round_rec, |req, s| {
            if let Some(m) = &mut mirror {
                stepped.push(m.step(req, &s.response).map(|l| (l, s.span)));
            }
        });
        for step in stepped {
            match step {
                Ok((l, Some(span))) => layers.push((l, span)),
                Ok(_) => {}
                Err(e) => gate.fail(format!("mirror: {e}")),
            }
        }
        for s in &samples {
            let answered = json::parse(&s.response).is_ok_and(|v| ok(&v));
            gate.check(answered, || format!("{} delta failed: {}", s.class.name(), s.response));
        }
        laps.push(Lap { load_s, load_span, seconds, samples, traced });
        let mean = start.elapsed() / laps.len() as u32;
        if laps.len() >= min_rounds && start.elapsed() + mean > budget {
            break svc;
        }
    };
    let pooled_sessions = pooled(&mut svc);
    gate_final(&mut svc, d, &mut gate);
    Stream { laps, gate, layers, pooled_sessions }
}

fn pooled(svc: &mut Service) -> f64 {
    json::parse(&handle_line(svc, r#"{"op":"status"}"#).text)
        .ok()
        .and_then(|v| {
            v.get("nets")?.as_arr()?.first()?.get("pooled_sessions").and_then(Value::as_f64)
        })
        .unwrap_or(0.0)
}

/// After a lap, the daemon's `verdicts` must equal a from-scratch,
/// monolithic `Verifier` on the final spec — the config with the lap's
/// requests applied, by this function and not the daemon — verdict and
/// first violating scenario per invariant, every violation replayed.
fn gate_final(svc: &mut Service, d: &Daemon, gate: &mut Gate) {
    let request =
        Value::obj([("op", Value::str("verdicts")), ("net", Value::str(NET))]).to_string();
    let served = match json::parse(&handle_line(svc, &request).text) {
        Ok(v) if ok(&v) => verdict_rows(&v),
        other => return gate.fail(format!("verdicts failed: {other:?}")),
    };
    let scratch = (|| -> Result<Vec<(String, bool, Option<String>)>, String> {
        let mut spec = NetSpec::parse(&d.config).map_err(|e| e.to_string())?;
        for request in &d.lap {
            apply_request(&mut spec, request)?;
        }
        let m = spec.materialize().map_err(|e| e.to_string())?;
        let verifier =
            Verifier::new(&m.net, VerifyOptions::default()).map_err(|e| e.to_string())?;
        let mut rows = Vec::new();
        for (text, inv) in &m.invariants {
            let r = verifier.verify(inv).map_err(|e| e.to_string())?;
            let (replayed, _) = replays(&m.net, inv, &r.verdict);
            if !replayed {
                return Err(format!("{text}: from-scratch witness does not replay"));
            }
            let first = match &r.verdict {
                Verdict::Holds => None,
                Verdict::Violated { scenario, .. } => {
                    let names: Vec<String> = scenario
                        .failed_nodes
                        .iter()
                        .map(|&n| m.net.topo.node(n).name.clone())
                        .collect();
                    Some(scenario_key(&names))
                }
            };
            rows.push((text.clone(), r.verdict.holds(), first));
        }
        Ok(rows)
    })();
    match scratch {
        Err(e) => gate.fail(format!("from-scratch check: {e}")),
        Ok(rows) => {
            gate.check(rows.len() == served.len(), || {
                format!("daemon serves {} invariants, final spec has {}", served.len(), rows.len())
            });
            for (want, got) in rows.iter().zip(&served) {
                gate.check(want == got, || format!("daemon says {got:?}, from scratch {want:?}"));
            }
        }
    }
}

impl Stream {
    fn median_of(&self, traced: bool, f: impl Fn(&Lap) -> f64) -> f64 {
        median(&self.laps.iter().filter(|l| l.traced == traced).map(f).collect::<Vec<_>>())
    }

    /// Median cold load, lap, and load + lap of the rounds without spans —
    /// all of them in an untraced run, the reference half in a traced one.
    pub fn medians(&self) -> (f64, f64, f64) {
        (
            self.median_of(false, |l| l.load_s),
            self.median_of(false, |l| l.seconds),
            self.median_of(false, |l| l.load_s + l.seconds),
        )
    }

    /// Median lap of the rounds with spans.
    pub fn traced_work_s(&self) -> f64 {
        self.median_of(true, |l| l.seconds)
    }

    fn untraced(&self) -> impl Iterator<Item = &Lap> {
        self.laps.iter().filter(|l| !l.traced)
    }

    /// The cold load at the noise floor of the rounds without spans.
    pub fn load_floor_s(&self) -> f64 {
        self.untraced().map(|l| l.load_s).fold(f64::INFINITY, f64::min)
    }

    /// Every request of the lap, with its class, at the noise floor of the
    /// rounds without spans. The sum is the lap; classes are never pooled.
    pub fn delta_floors(&self) -> Vec<(Class, f64)> {
        let laps: Vec<Vec<f64>> =
            self.untraced().map(|l| l.samples.iter().map(|s| s.seconds).collect()).collect();
        let classes = self.untraced().next().into_iter().flat_map(|l| &l.samples).map(|s| s.class);
        classes.zip(floors(&laps)).collect()
    }

    /// Mean latency in milliseconds of one delta of `class` within the lap at
    /// its noise floor. A mean, because a class holds deltas of two kinds (a
    /// widening and a restoring `set-model`; an `add-scenario` the pool
    /// answers warm and one it re-encodes for) and a median over such a mix
    /// sits on the edge between them. Count × mean over the four is the lap.
    pub fn class_mean_ms(&self, class: Class) -> f64 {
        let of_class: Vec<f64> =
            self.delta_floors().into_iter().filter(|(c, _)| *c == class).map(|(_, s)| s).collect();
        of_class.iter().sum::<f64>() * 1e3 / of_class.len().max(1) as f64
    }

    /// Reconcile-ladder counters of the first lap (every run has one, so
    /// they repeat exactly whatever the number of laps).
    pub fn ladder_counters(&self) -> Vec<(&'static str, f64)> {
        let Some(lap) = self.laps.first() else { return Vec::new() };
        let mut sum: BTreeMap<&str, f64> = BTreeMap::new();
        let mut escalated = 0.0;
        for s in &lap.samples {
            let Ok(v) = json::parse(&s.response) else { continue };
            for key in
                ["pairs", "prefiltered", "contract_answered", "cache_hits", "rechecked", "retired"]
            {
                *sum.entry(key).or_default() += v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            }
            escalated += f64::from(u8::from(v.get("escalated") == Some(&Value::Bool(true))));
        }
        let n = lap.samples.len().max(1) as f64;
        let of = |key: &str| sum.get(key).copied().unwrap_or(0.0);

        let pairs = of("pairs").max(1.0);
        vec![
            ("serve.prefiltered_share", of("prefiltered") / pairs),
            ("serve.contract_share", of("contract_answered") / pairs),
            ("serve.cache_hit_share", of("cache_hits") / pairs),
            ("serve.rechecked_share", of("rechecked") / pairs),
            ("serve.escalated_share", escalated / n),
            ("serve.cache_retired_mean", of("retired") / n),
        ]
    }
}

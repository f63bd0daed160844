//! One-shot workloads: cold rounds of what `vmn check` pays.
//!
//! A round is, per check, `Verifier::new(net, options)` — default options,
//! no policy hint — then `verify_all(battery, 1)`. Nothing survives a round.
//! Every round repeats the same operations, and each counts with the fastest
//! of its repetitions (`stats::floors`).

use std::collections::HashMap;
use std::time::{Duration, Instant};
use vmn::{Invariant, Network, Report, Verdict, Verifier};

use crate::gen::OneShot;
use crate::spans::Recorder;
use crate::stats::{floors, median};

/// Failed and attempted operations, and why the first few failed.
#[derive(Default, Debug)]
pub struct Gate {
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Gate {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(note());
        }
    }
}

/// One cold check: its two timed calls, in wall-clock seconds, and what they
/// returned.
pub struct CheckRun {
    pub label: &'static str,
    pub new_s: f64,
    pub sweep_s: f64,
    pub reports: Vec<Report>,
    pub pooled_sessions: usize,
    /// A second `verify_all` on the same verifier, outside the round's
    /// time; `0.0` unless the round was asked for it.
    pub warm_sweep_s: f64,
    /// Span ids of the two calls when the round was traced.
    pub spans: Option<(usize, usize)>,
}

pub struct Round {
    pub checks: Vec<CheckRun>,
}

impl Round {
    pub fn setup_s(&self) -> f64 {
        self.checks.iter().map(|c| c.new_s).sum()
    }

    pub fn work_s(&self) -> f64 {
        self.checks.iter().map(|c| c.sweep_s).sum()
    }

    /// The round's set-up as operations: one `Verifier::new` per check.
    fn setup_ops(&self) -> Vec<f64> {
        self.checks.iter().map(|c| c.new_s).collect()
    }

    /// The round's work as operations that sum to `work_s()`: per check,
    /// every verdict by the engine's own clock (`Report::elapsed`, which
    /// splits the sweep's wall-clock and adds nothing to it), then what is
    /// left of the sweep.
    fn work_ops(&self) -> Vec<f64> {
        let mut ops = Vec::new();
        for c in &self.checks {
            let verdicts = c.reports.iter().map(|r| r.elapsed.as_secs_f64());
            ops.extend(verdicts.clone());
            ops.push(c.sweep_s - verdicts.sum::<f64>());
        }
        ops
    }
}

/// Times `f` on the wall clock, inside a span when the run is traced;
/// returns the span's id too.
pub fn timed<T>(
    rec: &mut Option<&mut Recorder>,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, f64, Option<usize>) {
    let span = rec.as_mut().map(|r| r.enter(name));
    let t0 = Instant::now();
    let out = f();
    let seconds = t0.elapsed().as_secs_f64();
    if let (Some(r), Some(id)) = (rec.as_mut(), span) {
        r.exit(id);
    }
    (out, seconds, span)
}

/// Runs one cold round. Errors come back as text; the caller counts them.
pub fn round(w: &OneShot, mut rec: Option<&mut Recorder>, warm: bool) -> Result<Round, String> {
    let round_span = rec.as_mut().map(|r| {
        r.next_op();
        r.enter("round")
    });
    let mut checks = Vec::new();
    for check in &w.checks {
        let options = check.options.clone();
        let (verifier, new_s, new_span) =
            timed(&mut rec, &format!("verifier_new:{}", check.label), || {
                Verifier::new(&w.net, options)
            });
        let verifier = verifier.map_err(|e| format!("Verifier::new ({}): {e}", check.label))?;
        let (reports, sweep_s, sweep_span) =
            timed(&mut rec, &format!("verify_all:{}", check.label), || {
                verifier.verify_all(&w.battery, 1)
            });
        let reports = reports.map_err(|e| format!("verify_all ({}): {e}", check.label))?;
        let pooled_sessions = verifier.pooled_sessions();
        let warm_sweep_s = if warm {
            let name = format!("warm_verify_all:{}", check.label);
            let (again, seconds, _) = timed(&mut rec, &name, || verifier.verify_all(&w.battery, 1));
            again.map_err(|e| format!("warm verify_all ({}): {e}", check.label))?;
            seconds
        } else {
            0.0
        };
        checks.push(CheckRun {
            label: check.label,
            new_s,
            sweep_s,
            reports,
            pooled_sessions,
            warm_sweep_s,
            spans: new_span.zip(sweep_span),
        });
    }
    if let (Some(r), Some(id)) = (rec.as_mut(), round_span) {
        r.exit(id);
    }
    Ok(Round { checks })
}

/// Whether a violation's trace replays on the concrete simulator to a
/// reception that violates the invariant. Returns the replay time too.
pub fn replays(net: &Network, inv: &Invariant, verdict: &Verdict) -> (bool, f64) {
    let Verdict::Violated { trace, scenario } = verdict else { return (true, 0.0) };
    let t0 = Instant::now();
    let receptions = trace.replay(net, scenario);
    let seconds = t0.elapsed().as_secs_f64();
    let ok = receptions.is_ok_and(|log| {
        log.iter().any(|o| match inv {
            Invariant::NodeIsolation { src, dst } | Invariant::FlowIsolation { src, dst } => {
                o.at == *dst && o.header.src == net.host_address(*src)
            }
            Invariant::DataIsolation { origin, dst } => {
                o.at == *dst && o.header.origin == net.host_address(*origin)
            }
            Invariant::Traversal { dst, .. } => o.at == *dst,
        })
    });
    (ok, seconds)
}

/// The correctness gate of one round: every verdict against the
/// generator's record, every violation replayed, and the round's checks
/// against each other (verdict and first violating scenario).
/// Returns (replay seconds, replays that reproduced the violation).
pub fn gate_round(w: &OneShot, round: &Round, gate: &mut Gate) -> (f64, usize) {
    let (mut replay_s, mut replays_ok) = (0.0, 0);
    for c in &round.checks {
        for ((r, &want), inv) in c.reports.iter().zip(&w.expect_holds).zip(&w.battery) {
            // An inherited report carries its representative's witness.
            let (replayed, s) =
                if r.inherited { (true, 0.0) } else { replays(&w.net, inv, &r.verdict) };
            replay_s += s;
            replays_ok += usize::from(replayed && !r.inherited && !r.verdict.holds());
            gate.check(r.verdict.holds() == want && replayed, || {
                format!(
                    "{} {inv}: holds {} (expected {want}), witness replays {replayed}",
                    c.label,
                    r.verdict.holds()
                )
            });
        }
    }
    let first = |r: &Report| match &r.verdict {
        Verdict::Holds => None,
        Verdict::Violated { scenario, .. } => Some(format!("{scenario:?}")),
    };
    for pair in round.checks.windows(2) {
        for ((a, b), inv) in pair[0].reports.iter().zip(&pair[1].reports).zip(&w.battery) {
            gate.check(first(a) == first(b), || {
                format!(
                    "{inv}: {} says {:?}, {} says {:?}",
                    pair[0].label,
                    first(a),
                    pair[1].label,
                    first(b)
                )
            });
        }
    }
    (replay_s, replays_ok)
}

/// Cold rounds for as long as the budget allows (at least `min_rounds`):
/// a round starts only if one more of mean length still fits.
pub struct Rounds {
    pub rounds: Vec<Round>,
    pub gate: Gate,
    pub replay_s: f64,
    pub replays_ok: usize,
    /// The one warm sweep a traced run takes (summed over the checks).
    pub warm_sweep_s: f64,
}

pub fn run_rounds(
    w: &OneShot,
    budget: Duration,
    min_rounds: usize,
    mut rec: Option<&mut Recorder>,
) -> Rounds {
    let mut out = Rounds {
        rounds: Vec::new(),
        gate: Gate::default(),
        replay_s: 0.0,
        replays_ok: 0,
        warm_sweep_s: 0.0,
    };
    let start = Instant::now();
    let mut attempts = 0;
    loop {
        // With a recorder, every second round is traced and the others are
        // the untraced reference the overhead is taken against.
        let traced = rec.is_some() && attempts % 2 == 1;
        attempts += 1;
        let this_rec = if traced { rec.as_deref_mut() } else { None };
        // The first traced round also takes the warm sweep.
        let warm = traced && out.warm_sweep_s == 0.0;
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| round(w, this_rec, warm)))
                .unwrap_or_else(|_| Err("a round panicked".to_string()));
        match result {
            Ok(r) => {
                if warm {
                    out.warm_sweep_s = r.checks.iter().map(|c| c.warm_sweep_s).sum();
                }
                let (s, ok) = gate_round(w, &r, &mut out.gate);
                // Replay cost and counts are per round, like every counter.
                (out.replay_s, out.replays_ok) = (s, ok);
                out.rounds.push(r);
            }
            // An error or a panic fails every verdict the round owed.
            Err(e) => {
                for _ in 0..w.battery.len() * w.checks.len() {
                    out.gate.fail(e.clone());
                }
            }
        }
        let elapsed = start.elapsed();
        let mean = elapsed / attempts as u32;
        if attempts >= min_rounds && elapsed + mean > budget {
            return out;
        }
    }
}

impl Rounds {
    /// Set-up and work of one round at the noise floor of all rounds.
    pub fn floors(&self) -> (f64, f64) {
        let of = |ops: fn(&Round) -> Vec<f64>| {
            floors(&self.rounds.iter().map(ops).collect::<Vec<_>>()).iter().sum::<f64>()
        };
        (of(Round::setup_ops), of(Round::work_ops))
    }

    /// Median set-up, work and set-up + work over the rounds, all of them or
    /// only those with (without) spans.
    pub fn medians(&self, traced: Option<bool>) -> (f64, f64, f64) {
        let pick: Vec<&Round> = self
            .rounds
            .iter()
            .filter(|r| traced.is_none_or(|t| r.checks.iter().all(|c| c.spans.is_some() == t)))
            .collect();
        let of = |f: &dyn Fn(&Round) -> f64| median(&pick.iter().map(|r| f(r)).collect::<Vec<_>>());
        (of(&Round::setup_s), of(&Round::work_s), of(&|r| r.setup_s() + r.work_s()))
    }
}

/// Counters of one round that must repeat exactly: solver and BDD work off
/// the engine's own reports, backend shares, inheritance.
pub fn round_counters(round: &Round) -> HashMap<&'static str, f64> {
    let mut c: HashMap<&'static str, f64> = HashMap::new();
    let (mut scenarios, mut smt, mut bdd, mut contract, mut inherited, mut reports) =
        (0, 0, 0, 0, 0, 0);
    let (mut lookups, mut hits) = (0u64, 0u64);
    for check in &round.checks {
        for r in &check.reports {
            reports += 1;
            if r.inherited {
                inherited += 1;
                continue;
            }
            scenarios += r.scenarios_checked;
            smt += r.smt_scenarios;
            bdd += r.bdd_scenarios;
            contract += r.contract_scenarios;
            *c.entry("smt.conflicts").or_default() += r.solver.conflicts as f64;
            *c.entry("smt.propagations").or_default() += r.solver.propagations as f64;
            *c.entry("smt.decisions").or_default() += r.solver.decisions as f64;
            *c.entry("smt.restarts").or_default() += r.solver.restarts as f64;
            *c.entry("smt.learnt_clauses").or_default() += r.solver.learnt_clauses as f64;
            *c.entry("bdd.nodes").or_default() += r.bdd.nodes as f64;
            lookups += r.bdd.ite_lookups;
            hits += r.bdd.ite_hits;
        }
        *c.entry("engine.pooled_sessions").or_default() += check.pooled_sessions as f64;
    }
    let share = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    c.insert("smt.share", share(smt, scenarios));
    c.insert("bdd.share", share(bdd, scenarios));
    c.insert("modular.contract_share", share(contract, scenarios));
    c.insert("policy.inherited_share", share(inherited, reports));
    c.insert("bdd.ite_hit_ratio", if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 });
    c
}

/// Engine-reported latency of the verdicts that were actually computed.
pub fn verdict_ms(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.checks)
        .flat_map(|c| &c.reports)
        .filter(|r| !r.inherited)
        .map(|r| r.elapsed.as_secs_f64() * 1e3)
        .collect()
}

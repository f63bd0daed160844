//! One benchmark, four workloads. See `BENCHMARK.md` beside this package
//! and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! benchmark [--seed N] [--trace 0|1] [--smoke]              every workload, each in its own process
//! benchmark --repeat R --out FILE                           R runs per workload, values stored
//! benchmark --selfcheck                                     repeatability of counters and metrics
//! benchmark compare A.json B.json                           two stored sets, metric by metric
//! ```

mod compare;
mod daemon;
mod gen;
mod metrics;
mod oneshot;
mod probe;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use gen::Scale;
use metrics::{Metrics, RUN_SECONDS};
use oneshot::Gate;
use spans::Recorder;
use stats::median;
use vmn_serve::json::Value;

/// What one run reports.
pub struct Outcome {
    pub gate: Gate,
    /// The result line's metrics: every end-to-end metric of
    /// `BENCHMARK.json`, or every per-layer one in a traced run.
    pub rows: Vec<(&'static str, f64, &'static str)>,
    /// What an untraced run prints and stores beside the result line: the
    /// plain medians over rounds of the three times, and the daemon
    /// workloads' delta latencies (see [`metrics::DELTA_LATENCY`]).
    pub beside: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.gate.failed == 0 && self.gate.attempted > 0)),
            ("attempted", Value::num(self.gate.attempted.max(1) as f64)),
            ("failed", Value::num(self.gate.failed as f64)),
            ("metrics", metrics::metrics_json(&self.rows)),
        ])
        .to_string()
    }
}

#[derive(Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

fn finish(m: &mut Metrics, gate: Gate, trace: bool) -> Outcome {
    if trace {
        Outcome { gate, rows: m.per_layer(), beside: Vec::new() }
    } else {
        m.set("peak_rss_mb", stats::peak_rss_mb());
        Outcome { gate, rows: m.end_to_end(), beside: Vec::new() }
    }
}

/// The three times of an untraced run: set-up and work of one round at the
/// noise floor of the run's rounds (`stats::floors`), and their sum. The
/// medians over rounds, which follow the machine's mood, go beside them.
fn set_times(
    m: &mut Metrics,
    (setup, work): (f64, f64),
    (setup_median, work_median, total_median): (f64, f64, f64),
) -> Vec<(&'static str, f64, &'static str)> {
    m.set("setup_s", setup);
    m.set("work_s", work);
    m.set("total_s", setup + work);
    vec![
        ("total_s_median", total_median, "s"),
        ("work_s_median", work_median, "s"),
        ("setup_s_median", setup_median, "s"),
    ]
}

fn write_trace(workload: &str, rec: &Recorder) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.to_json().to_string()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn run_one_shot(name: &str, build: fn(u64, Scale) -> gen::OneShot, args: &RunArgs) -> Outcome {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut m = Metrics::default();
    if !args.trace {
        let w = build(args.seed, args.scale);
        let min_rounds = if args.scale == Scale::Full { 3 } else { 1 };
        let rounds = oneshot::run_rounds(&w, budget, min_rounds, None);
        let beside = set_times(&mut m, rounds.floors(), rounds.medians(None));
        eprintln!(
            "{} cold rounds; s per round (set-up, work) {:.3?}",
            rounds.rounds.len(),
            rounds.rounds.iter().map(|r| (r.setup_s(), r.work_s())).collect::<Vec<_>>()
        );
        return Outcome { beside, ..finish(&mut m, rounds.gate, false) };
    }

    let mut rec = Recorder::new();
    let w = rec.span("generate", || build(args.seed, args.scale));
    // Half the time goes to rounds, alternately untraced (the reference
    // the overhead is taken against) and traced; the rest to the probes.
    let mut rounds = oneshot::run_rounds(&w, budget.mul_f64(0.5), 2, Some(&mut rec));
    let (_, _, total_untraced) = rounds.medians(Some(false));
    let (_, _, total_traced) = rounds.medians(Some(true));
    if total_untraced > 0.0 {
        m.set("trace.overhead_ratio", total_traced / total_untraced);
    }
    m.set("run.samples", rounds.rounds.len() as f64);
    m.set("input.hash", (w.input_hash & 0xFFFF_FFFF_FFFF) as f64);
    if let Some(last) = rounds.rounds.last() {
        let counters = oneshot::round_counters(last);
        if rounds.rounds.iter().any(|r| oneshot::round_counters(r) != counters) {
            eprintln!("note: engine counters differ between rounds of one input");
        }
        for (name, value) in counters {
            m.set(name, value);
        }
    }
    let verdict_ms = oneshot::verdict_ms(&rounds.rounds);
    m.set("engine.verdict_ms_p50", median(&verdict_ms));
    // Too few verdicts for a tail reads 0, never a made-up percentile.
    m.set("engine.verdict_ms_p90", stats::percentile(&verdict_ms, 90.0).unwrap_or(0.0));
    m.set("engine.warm_sweep_s", rounds.warm_sweep_s);
    m.set("trace.replay_s", rounds.replay_s);
    m.set("trace.replays_ok", rounds.replays_ok as f64);

    // The traced round of median length is the one the probes explain.
    let mut by_work: Vec<&oneshot::Round> =
        rounds.rounds.iter().filter(|r| r.checks.iter().all(|c| c.spans.is_some())).collect();
    by_work.sort_by(|a, b| a.work_s().partial_cmp(&b.work_s()).expect("finite"));
    if let Some(picked) = by_work.get(by_work.len().saturating_sub(1) / 2) {
        let (mut new_rest, mut sweep_rest) = (0.0, 0.0);
        for (check, run) in w.checks.iter().zip(&picked.checks) {
            match probe::probe_check(&w.net, &w.battery, &check.options, &mut m) {
                Ok(ex) => {
                    let (new_span, sweep_span) = run.spans.expect("traced round");
                    new_rest += rec.explain(new_span, &ex.new_layers, "engine.new_unattributed");
                    sweep_rest += rec.explain(sweep_span, &ex.sweep_layers, "engine.unattributed");
                }
                Err(e) => rounds.gate.fail(format!("probe ({}): {e}", check.label)),
            }
        }
        m.set("engine.new_s", picked.setup_s());
        m.set("engine.sweep_s", picked.work_s());
        m.set("engine.new_unattributed_s", new_rest);
        m.set("engine.unattributed_s", sweep_rest);
    }
    if m.get("smt.check_s") > 0.0 {
        m.set("smt.props_per_s", m.get("smt.propagations") / m.get("smt.check_s"));
    }
    write_trace(name, &rec);
    finish(&mut m, rounds.gate, true)
}

/// The delta latencies `workload` reports, from rounds without spans.
fn delta_latencies(
    workload: &str,
    stream: &daemon::Stream,
) -> Vec<(&'static str, f64, &'static str)> {
    metrics::DELTA_LATENCY
        .iter()
        .filter(|l| l.workloads.contains(&workload))
        .map(|l| (l.name, stream.class_mean_ms(l.class), "ms"))
        .collect()
}

fn run_daemon(name: &str, build: fn(u64, Scale) -> gen::Daemon, args: &RunArgs) -> Outcome {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut m = Metrics::default();
    if !args.trace {
        let d = build(args.seed, args.scale);
        let stream = daemon::run_stream(&d, budget, 1, None);
        let work = stream.delta_floors().iter().map(|(_, s)| s).sum();
        let mut beside = set_times(&mut m, (stream.load_floor_s(), work), stream.medians());
        eprintln!(
            "{} cold rounds of {} deltas; s per round (load, lap) {:.3?}",
            stream.laps.len(),
            d.lap.len(),
            stream.laps.iter().map(|l| (l.load_s, l.seconds)).collect::<Vec<_>>()
        );
        beside.extend(delta_latencies(name, &stream));
        return Outcome { beside, ..finish(&mut m, stream.gate, false) };
    }

    let mut rec = Recorder::new();
    let d = rec.span("generate", || build(args.seed, args.scale));
    let mut stream = daemon::run_stream(&d, budget.mul_f64(0.7), 2, Some(&mut rec));
    m.set("trace.overhead_ratio", stream.traced_work_s() / stream.medians().1);
    m.set("run.samples", stream.laps.iter().map(|l| l.samples.len()).sum::<usize>() as f64);
    m.set("input.hash", (d.input_hash & 0xFFFF_FFFF_FFFF) as f64);
    for (name, value, _) in delta_latencies(name, &stream) {
        m.set(name, value);
    }
    for (name, value) in stream.ladder_counters() {
        m.set(name, value);
    }
    m.set("serve.pooled_sessions", stream.pooled_sessions);

    // Layer times per lap, from the mirror; what is left of each delta is
    // the daemon's own reconcile ladder.
    let traced_laps = stream.laps.iter().filter(|l| l.traced).count().max(1) as f64;
    for &(l, span) in &stream.layers {
        let parts = [
            ("serve.json", l.json_s),
            ("serve.spec_apply", l.apply_s),
            ("spec.materialize", l.materialize_s),
            ("serve.swap", l.swap_s),
        ];
        let rest = rec.explain(span, &parts, "serve.reconcile");
        m.add("serve.json_s", l.json_s / traced_laps);
        m.add("serve.spec_apply_s", l.apply_s / traced_laps);
        m.add("serve.swap_s", l.swap_s / traced_laps);
        m.add("serve.reconcile_s", rest / traced_laps);
    }

    // The cold load, layer by layer, on the loaded configuration.
    let explained = (|| -> Result<(), String> {
        m.set("spec.bytes", d.config.len() as f64);
        let (spec, parse_s) = probe::clock(|| vmn_serve::NetSpec::parse(&d.config));
        let spec = spec.map_err(|e| e.to_string())?;
        let (built, materialize_s) = probe::clock(|| spec.materialize());
        let built = built.map_err(|e| e.to_string())?;
        m.set("spec.parse_s", parse_s);
        m.set("spec.materialize_s", materialize_s);
        let battery: Vec<vmn::Invariant> =
            built.invariants.iter().map(|(_, i)| i.clone()).collect();
        let ex = probe::probe_check(&built.net, &battery, &daemon::options_for(&spec), &mut m)?;
        let mut layers = vec![("spec.parse", parse_s), ("spec.materialize", materialize_s)];
        layers.extend(ex.new_layers);
        layers.push(("net.header_classes", m.get("net.header_classes_s")));
        layers.extend(ex.sweep_layers);
        let load_span = stream.laps.iter().rev().find_map(|l| l.load_span).expect("a traced round");
        rec.explain(load_span, &layers, "serve.load_unattributed");
        Ok(())
    })();
    if let Err(e) = explained {
        stream.gate.fail(format!("probe: {e}"));
    }
    write_trace(name, &rec);
    finish(&mut m, stream.gate, true)
}

pub fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "dc-fleet" => run_one_shot(name, gen::dc_fleet, args),
        "campus-static" => run_one_shot(name, gen::campus_static, args),
        "campus-deltas" => run_daemon(name, gen::campus_deltas, args),
        "pods-deltas" => run_daemon(name, gen::pods_deltas, args),
        _ => return None,
    })
}

struct Cli {
    workload: Option<String>,
    run: RunArgs,
    repeat: usize,
    out: Option<String>,
    selfcheck: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs { seed: 1, seconds: RUN_SECONDS as f64, trace: false, scale: Scale::Full },
        repeat: 1,
        out: None,
        selfcheck: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.run.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.run.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--repeat" => {
                cli.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => cli.out = Some(value("a path")?),
            "--smoke" => cli.run.scale = Scale::Smoke,
            "--selfcheck" => cli.selfcheck = true,
            "--trace" => {
                cli.run.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.run.seconds.is_finite() && cli.run.seconds > 0.0 && cli.run.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if cli.run.scale == Scale::Smoke && !seconds_given {
        cli.run.seconds = 1.0;
    }
    if cli.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(cli)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      benchmark --repeat R --out FILE [--seed N] [--smoke]\n\
         \x20      benchmark --selfcheck [--seed N] [--smoke]\n\
         \x20      benchmark compare A.json B.json\n\
         workloads: {}",
        gen::WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = &args[..] else { return usage() };
        return match compare::compare_files(a, b) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if cli.selfcheck {
        return compare::selfcheck(&cli.run);
    }
    let Some(workload) = &cli.workload else {
        return compare::run_all(&cli.run, cli.repeat, cli.out.as_deref());
    };
    let Some(outcome) = run_workload(workload, &cli.run) else {
        eprintln!("unknown workload {workload:?}");
        return usage();
    };
    for (name, value, unit) in outcome.rows.iter().chain(&outcome.beside) {
        println!("{name} {value} {unit}");
    }
    println!(
        "failed_share {} share",
        outcome.gate.failed as f64 / outcome.gate.attempted.max(1) as f64
    );
    for note in &outcome.gate.notes {
        eprintln!("failed: {note}");
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

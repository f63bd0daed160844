//! Whole-benchmark drivers: every workload in its own process, stored
//! result sets, the self-check and the comparison table.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::gen::{Scale, WORKLOADS};
use crate::metrics::{DELTA_LATENCY, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::RunArgs;
use vmn_serve::json::{self, Value};

/// Metric values of one run, by name.
type Values = BTreeMap<String, f64>;

struct ChildRun {
    values: Values,
    failed: f64,
    attempted: f64,
    stdout: String,
}

/// Runs one workload in a process of its own and reads what it printed: the
/// `name value unit` rows (the result line's metrics, and beside them the
/// delta latencies of an untraced daemon run) and the result line's counts.
fn run_child(workload: &str, args: &RunArgs) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]).args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ]);
    if args.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or(format!("{workload} printed nothing"))?;
    let result = json::parse(last).map_err(|e| format!("{workload}: {e}"))?;
    let values = stdout
        .lines()
        .filter_map(|l| match l.split(' ').collect::<Vec<_>>()[..] {
            [name, value, _unit] => Some((name.to_string(), value.parse().ok()?)),
            _ => None,
        })
        .collect();
    let number = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    Ok(ChildRun { values, failed: number("failed"), attempted: number("attempted"), stdout })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Every workload, each in its own process; with `repeat > 1` or an
/// output path, `repeat` runs per workload on consecutive seeds, stored as
/// a result set `compare` reads.
pub fn run_all(args: &RunArgs, repeat: usize, out: Option<&str>) -> ExitCode {
    let mut set: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut failed = false;
    for workload in WORKLOADS {
        for i in 0..repeat {
            let run = RunArgs { seed: args.seed + i as u64, ..args.clone() };
            match run_child(workload, &run) {
                Ok(child) => {
                    println!("== {workload} seed {} ==", run.seed);
                    print!("{}", child.stdout);
                    failed |= child.failed != 0.0;
                    for (name, value) in child.values {
                        set.entry(workload).or_default().entry(name).or_default().push(value);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
    }
    if let Some(path) = out {
        let workloads = set
            .iter()
            .map(|(w, metrics)| {
                let rows = metrics
                    .iter()
                    .map(|(name, values)| {
                        let mut fields = vec![
                            ("median", Value::Num(median(values))),
                            ("values", Value::Arr(values.iter().map(|&v| Value::Num(v)).collect())),
                        ];
                        if values.len() >= 2 {
                            fields.insert(1, ("spread", Value::Num(quartile_spread(values))));
                        }
                        (name.clone(), Value::obj(fields))
                    })
                    .collect();
                (w.to_string(), Value::Obj(rows))
            })
            .collect();
        let doc = Value::obj([
            ("nproc", Value::num(nproc() as f64)),
            ("run_seconds", Value::Num(args.seconds)),
            ("first_seed", Value::num(args.seed as f64)),
            ("runs_per_workload", Value::num(repeat as f64)),
            ("traced", Value::Bool(args.trace)),
            ("campus_lap", lap_json(&crate::gen::CAMPUS_LAP)),
            ("pods_lap", lap_json(&crate::gen::PODS_LAP)),
            ("workloads", Value::Obj(workloads)),
        ]);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("result set written to {path}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn lap_json(lap: &[(crate::gen::Class, usize); 4]) -> Value {
    Value::Obj(lap.iter().map(|(c, n)| (c.name().to_string(), Value::num(*n as f64))).collect())
}

/// Runs every workload twice with one seed — † counters must be identical,
/// end-to-end metrics within their bounds — and once with the next seed:
/// the input must differ and nothing may fail.
pub fn selfcheck(args: &RunArgs) -> ExitCode {
    let mut bad = 0usize;
    let mut complain = |what: String| {
        println!("FAIL {what}");
        bad += 1;
    };
    println!("selfcheck: nproc {}, {} s per run, seed {}", nproc(), args.seconds, args.seed);
    for workload in WORKLOADS {
        let run =
            |trace: bool, seed: u64| run_child(workload, &RunArgs { trace, seed, ..args.clone() });
        let runs = (|| {
            Ok::<_, String>([
                run(false, args.seed)?,
                run(false, args.seed)?,
                run(true, args.seed)?,
                run(true, args.seed)?,
                run(true, args.seed + 1)?,
            ])
        })();
        let [a, b, ta, tb, other] = match runs {
            Ok(r) => r,
            Err(e) => {
                complain(e);
                continue;
            }
        };
        let bounded = END_TO_END.iter().map(|m| (m.name, m.unit, m.bound)).chain(
            DELTA_LATENCY
                .iter()
                .filter(|l| l.workloads.contains(&workload))
                .map(|l| (l.name, "ms", l.bound)),
        );
        for (name, unit, bound) in bounded {
            let (x, y) = (a.values[name], b.values[name]);
            let moved = (y / x - 1.0).abs();
            println!(
                "{workload:<16} {name:<24} {x:>10.4} {y:>10.4} {unit:<4} moved {:>5.1}% bound {:>4.1}%",
                moved * 100.0,
                bound * 100.0
            );
            // Smoke times are sub-millisecond: shown, not judged.
            if moved > bound && args.scale == Scale::Full {
                complain(format!(
                    "{workload} {name}: two runs of one seed differ by more than the bound"
                ));
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            if ta.values[m.name] != tb.values[m.name] {
                complain(format!(
                    "{workload} {}: {} then {}",
                    m.name, ta.values[m.name], tb.values[m.name]
                ));
            }
        }
        if other.values["input.hash"] == ta.values["input.hash"] {
            complain(format!(
                "{workload}: seeds {} and {} generate the same input",
                args.seed,
                args.seed + 1
            ));
        }
        for r in [&a, &b, &ta, &tb, &other] {
            if r.failed != 0.0 {
                complain(format!("{workload}: {} of {} operations failed", r.failed, r.attempted));
            }
        }
    }
    if bad == 0 {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {bad} failures");
        ExitCode::FAILURE
    }
}

fn read_set(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no \"workloads\" object"));
    };
    let mut out = BTreeMap::new();
    for (w, metrics) in workloads {
        let Value::Obj(metrics) = metrics else { continue };
        let mut rows = BTreeMap::new();
        for (name, m) in metrics {
            let values: Vec<f64> = m
                .get("values")
                .and_then(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            rows.insert(name.clone(), values);
        }
        out.insert(w.clone(), rows);
    }
    Ok(out)
}

/// `better`, `same`, `worse` — or `unresolved` when either side's spread
/// is wider than the bound, so a difference that size proves nothing.
pub fn judge(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> (&'static str, f64) {
    let (ma, mb) = (median(a), median(b));
    let ratio = if ma == 0.0 { 1.0 } else { mb / ma };
    let spread = |v: &[f64]| if v.len() >= 2 { quartile_spread(v) } else { 0.0 };
    if spread(a) > bound || spread(b) > bound {
        return ("unresolved", ratio);
    }
    let gain = if lower_is_better { 1.0 - ratio } else { ratio - 1.0 };
    let verdict = if gain > bound {
        "better"
    } else if gain < -bound {
        "worse"
    } else {
        "same"
    };
    (verdict, ratio)
}

/// One row per workload and metric: both medians, the bound, the verdict;
/// the geometric mean of the ratios last.
pub fn compare_sets(
    a: &BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    b: &BTreeMap<String, BTreeMap<String, Vec<f64>>>,
) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "{:<16} {:<28} {:>12} {:>12} {:>7} {:>7}  {}\n",
        "workload", "metric", "A median", "B median", "B/A", "bound", "verdict"
    );
    let mut log_sum = 0.0;
    let mut rows = 0usize;
    for (w, metrics) in a {
        let Some(other) = b.get(w) else { continue };
        for (name, va) in metrics {
            let Some(vb) = other.get(name) else { continue };
            // Per-layer metrics carry no bound; a tenth is the yardstick.
            let end_to_end = END_TO_END.iter().map(|m| (m.name, m.bound));
            let mut bounded = end_to_end.chain(DELTA_LATENCY.iter().map(|l| (l.name, l.bound)));
            let own_bound = bounded.find(|(n, _)| n == name).map(|(_, bound)| bound);
            let (bound, lower) = match own_bound {
                Some(bound) => (bound, true),
                None => (
                    0.1,
                    PER_LAYER.iter().find(|m| m.name == name).is_none_or(|m| m.better == "lower"),
                ),
            };
            let (verdict, ratio) = judge(va, vb, bound, lower);
            let _ = writeln!(
                out,
                "{w:<16} {name:<28} {:>12.5} {:>12.5} {ratio:>7.3} {:>6.0}%  {verdict}",
                median(va),
                median(vb),
                bound * 100.0
            );
            if ratio > 0.0 && own_bound.is_some() {
                log_sum += ratio.ln();
                rows += 1;
            }
        }
    }
    let _ = writeln!(
        out,
        "geometric mean of B/A over {rows} bounded rows: {:.4}",
        if rows == 0 { 1.0 } else { (log_sum / rows as f64).exp() }
    );
    out
}

pub fn compare_files(a: &str, b: &str) -> Result<String, String> {
    Ok(compare_sets(&read_set(a)?, &read_set(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_weighs_the_bound_and_the_spread() {
        let steady = |m: f64| vec![m * 0.99, m, m, m * 1.01, m];
        assert_eq!(judge(&steady(1.0), &steady(1.02), 0.05, true).0, "same");
        assert_eq!(judge(&steady(1.0), &steady(1.10), 0.05, true).0, "worse");
        assert_eq!(judge(&steady(1.0), &steady(0.90), 0.05, true).0, "better");
        assert_eq!(judge(&steady(1.0), &steady(1.10), 0.05, false).0, "better");
        let noisy = vec![0.8, 0.9, 1.0, 1.1, 1.2];
        assert_eq!(judge(&noisy, &steady(0.5), 0.05, true).0, "unresolved");
    }

    #[test]
    fn table_ends_with_the_geometric_mean() {
        let set = |total: f64| {
            BTreeMap::from([(
                "dc-fleet".to_string(),
                BTreeMap::from([
                    ("total_s".to_string(), vec![total; 3]),
                    ("work_s".to_string(), vec![2.0; 3]),
                ]),
            )])
        };
        let table = compare_sets(&set(4.0), &set(1.0));
        assert!(table.contains("better"), "{table}");
        assert!(table.trim_end().ends_with("0.5000"), "{table}");
    }
}

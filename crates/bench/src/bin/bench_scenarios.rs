//! Emits `BENCH_scenarios.json`: wall-clock time of one invariant's
//! failure-scenario sweep on the §5.1 datacenter, incremental
//! (assumption-based, one persistent solver) versus from-scratch (fresh
//! encoder + solver per scenario), as the number of scenarios grows.
//!
//! Usage:
//!   bench_scenarios [--samples N] [--max-scenarios M] [--out PATH]
//!
//! Defaults: 7 samples per point, scenario counts 1..=8, output written
//! to BENCH_scenarios.json in the current directory — exactly the shape
//! of the committed copy at the repository root, which is the trajectory
//! record for this optimisation.

use std::time::Instant;
use vmn::{Sessions, Verifier, VerifyOptions};
use vmn_bench::scenario_sweep_workload;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn measure(sessions: Sessions, scenarios: usize, samples: usize) -> (f64, f64) {
    let (net, hint, inv) = scenario_sweep_workload(scenarios);
    let opts = VerifyOptions { policy_hint: Some(hint), sessions, ..Default::default() };
    let verifier = Verifier::new(&net, opts).expect("valid network");
    let mut ms = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let report = verifier.verify(&inv).expect("verifies");
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(report.verdict.holds(), "sweep workload invariant must hold");
        assert_eq!(report.scenarios_checked, scenarios + 1, "no early stop expected");
    }
    let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
    (median_ms(ms), min)
}

fn main() {
    let mut samples = 7usize;
    let mut max_scenarios = 8usize;
    let mut out = "BENCH_scenarios.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--samples" => {
                samples = args.next().expect("--samples needs a value").parse().expect("number")
            }
            "--max-scenarios" => {
                max_scenarios =
                    args.next().expect("--max-scenarios needs a value").parse().expect("number")
            }
            "--out" => out = args.next().expect("--out needs a value"),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut rows = Vec::new();
    for n in 1..=max_scenarios {
        let (inc_med, inc_min) = measure(Sessions::Pooled, n, samples);
        let (scr_med, scr_min) = measure(Sessions::PerScenario, n, samples);
        let speedup = scr_med / inc_med;
        eprintln!(
            "scenarios={n:>2}  incremental {inc_med:>9.2} ms  from-scratch {scr_med:>9.2} ms  \
             speedup {speedup:>5.2}x"
        );
        rows.push(format!(
            "    {{\"scenarios\": {n}, \"checks\": {}, \
             \"incremental_median_ms\": {inc_med:.3}, \"incremental_min_ms\": {inc_min:.3}, \
             \"from_scratch_median_ms\": {scr_med:.3}, \"from_scratch_min_ms\": {scr_min:.3}, \
             \"speedup_median\": {speedup:.3}}}",
            n + 1
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"scenario_sweep\",\n  \"workload\": \
         \"datacenter (4 racks, 2 hosts/rack, 2 policy groups, redundant), \
         cross-group isolation, holds in all scenarios\",\n  \
         \"unit\": \"wall-clock milliseconds per full sweep\",\n  \
         \"samples_per_point\": {samples},\n  \"series\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out, json).expect("write BENCH_scenarios.json");
    eprintln!("wrote {out}");
}

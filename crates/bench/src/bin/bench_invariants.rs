//! Emits `BENCH_invariants.json`: wall-clock time of `verify_all` over a
//! mixed invariant fleet, with cross-invariant solver sessions (one
//! warmed-up solver per (node-set, trace-bound) key, re-entered per
//! invariant) versus fresh per-invariant solver stacks — on the §5.1
//! datacenter and the §5.2 enterprise workloads.
//!
//! Usage:
//!   bench_invariants [--samples N] [--out PATH]
//!
//! Defaults: 7 samples per row, output written to BENCH_invariants.json
//! in the current directory — exactly the shape of the committed copy at
//! the repository root, the trajectory record for this optimisation.

use std::time::Instant;
use vmn::{Invariant, Network, Sessions, Verifier, VerifyOptions};
use vmn_bench::{invariant_sweep_enterprise, invariant_sweep_mixed, invariant_sweep_workload};
use vmn_net::NodeId;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

struct Row {
    label: &'static str,
    invariants: usize,
    reuse_median: f64,
    reuse_min: f64,
    fresh_median: f64,
    fresh_min: f64,
    conflicts_reuse: u64,
    conflicts_fresh: u64,
}

fn sample(
    net: &Network,
    hint: &[Vec<NodeId>],
    invs: &[Invariant],
    sessions: Sessions,
) -> (f64, u64) {
    let opts = VerifyOptions { policy_hint: Some(hint.to_vec()), sessions, ..Default::default() };
    // A fresh verifier per sample: the session pool must be re-warmed
    // within the measured run, exactly like a cold `verify_all`.
    let verifier = Verifier::new(net, opts).expect("valid network");
    let t0 = Instant::now();
    let reports = verifier.verify_all(invs, 1).expect("verifies");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(reports.len(), invs.len());
    // Per-invariant attribution (stats deltas): summing them yields the
    // run's total solver work exactly once.
    (ms, reports.iter().map(|r| r.solver.conflicts).sum())
}

fn run_row(
    label: &'static str,
    net: &Network,
    hint: &[Vec<NodeId>],
    invs: &[Invariant],
    samples: usize,
) -> Row {
    // Interleave the two series sample by sample so slow machine drift
    // (thermal throttling, background load) hits both equally instead of
    // biasing whichever series runs last.
    let mut reuse_ms = Vec::with_capacity(samples);
    let mut fresh_ms = Vec::with_capacity(samples);
    let mut conflicts_reuse = 0;
    let mut conflicts_fresh = 0;
    for s in 0..samples {
        let (ms, c) = sample(net, hint, invs, Sessions::Pooled);
        reuse_ms.push(ms);
        // Single-threaded verify_all is deterministic, so every sample
        // must report identical solver work; the committed JSON relies
        // on that to publish one conflict count per series.
        assert!(s == 0 || c == conflicts_reuse, "non-deterministic session-reuse sample");
        conflicts_reuse = c;
        let (ms, c) = sample(net, hint, invs, Sessions::PerInvariant);
        fresh_ms.push(ms);
        assert!(s == 0 || c == conflicts_fresh, "non-deterministic fresh-stacks sample");
        conflicts_fresh = c;
    }
    let fold_min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (reuse_min, fresh_min) = (fold_min(&reuse_ms), fold_min(&fresh_ms));
    let (reuse_median, fresh_median) = (median_ms(reuse_ms), median_ms(fresh_ms));
    eprintln!(
        "{label:<12} {} invariants  sessions {reuse_median:>9.2} ms  \
         fresh {fresh_median:>9.2} ms  speedup {:>5.2}x",
        invs.len(),
        fresh_median / reuse_median
    );
    Row {
        label,
        invariants: invs.len(),
        reuse_median,
        reuse_min,
        fresh_median,
        fresh_min,
        conflicts_reuse,
        conflicts_fresh,
    }
}

fn main() {
    let mut samples = 7usize;
    let mut out = "BENCH_invariants.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--samples" => {
                samples = args.next().expect("--samples needs a value").parse().expect("number")
            }
            "--out" => out = args.next().expect("--out needs a value"),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut rows = Vec::new();
    for scenarios in [2usize, 4] {
        let (net, hint, invs) = invariant_sweep_workload(scenarios);
        let label: &'static str = if scenarios == 2 { "dc-fleet/2" } else { "dc-fleet/4" };
        rows.push(run_row(label, &net, &hint, &invs, samples));
    }
    {
        let (net, hint, invs) = invariant_sweep_mixed(2);
        rows.push(run_row("dc-mixed/2", &net, &hint, &invs, samples));
    }
    {
        let (net, hint, invs) = invariant_sweep_enterprise();
        rows.push(run_row("enterprise", &net, &hint, &invs, samples));
    }

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"invariants\": {}, \
                 \"session_reuse_median_ms\": {:.3}, \"session_reuse_min_ms\": {:.3}, \
                 \"fresh_stacks_median_ms\": {:.3}, \"fresh_stacks_min_ms\": {:.3}, \
                 \"conflicts_session_reuse\": {}, \"conflicts_fresh_stacks\": {}, \
                 \"speedup_median\": {:.3}}}",
                r.label,
                r.invariants,
                r.reuse_median,
                r.reuse_min,
                r.fresh_median,
                r.fresh_min,
                r.conflicts_reuse,
                r.conflicts_fresh,
                r.fresh_median / r.reuse_median
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"invariant_sweep\",\n  \"workloads\": \
         \"dc-fleet/N = \\u00a75.1 datacenter (6 racks, 3 policy groups, redundant) with N \
         failure scenarios and a per-direction node/flow-isolation + traversal fleet; \
         dc-mixed/N = 2-group datacenter with data-isolation included (the heavyweight, \
         reuse-neutral regime); enterprise = \\u00a75.2 enterprise (3 subnets) with per-kind \
         invariant families\",\n  \
         \"unit\": \"wall-clock milliseconds per verify_all (1 thread)\",\n  \
         \"series\": \"session_reuse = cross-invariant solver sessions (Sessions::Pooled, \
         the default); fresh_stacks = a fresh solver stack per \
         representative invariant\",\n  \
         \"samples_per_point\": {samples},\n  \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out, json).expect("write BENCH_invariants.json");
    eprintln!("wrote {out}");
}

//! The paper's §5 figures. The regression benchmark (`benchmark/`,
//! declared in `BENCHMARK.json`) has a disjoint job: it gates end-to-end
//! time and exact per-layer counters on every change; this crate
//! reproduces the source paper's evaluation.
//!
//! `cargo run -p vmn_bench --release --bin figures` runs the full sweeps:
//! every §5 figure's series (and the §4 ablation) as a text table, on the
//! axes below. `EXPERIMENTS.md` holds one committed run next to the
//! shapes the paper reports; `--fig N --samples K` runs one figure.
//!
//! ## Scale mapping
//!
//! The paper ran Z3 on 10-core Xeons against networks of up to 1000
//! hosts / 250 subnets / 30 peering points. This reproduction runs its
//! own solver; to keep every sweep finishing in minutes rather than
//! hours, whole-network sweeps use proportionally smaller maxima (the
//! `FIG*` constants below). What is compared with the paper is the
//! *shape* of each curve — flat slice-time vs growing whole-network
//! time, linear growth in policy classes, faster violation checks than
//! proofs — and `EXPERIMENTS.md` records, figure by figure, which of
//! them a full run shows on these axes.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};
use vmn::{Invariant, Network, Report, Verifier, VerifyOptions};
use vmn_net::NodeId;

/// Whole-network x-axes (see module docs for the paper mapping).
pub const FIG3_CLASSES: &[usize] = &[5, 10, 15, 25];
pub const FIG4_CLASSES: &[usize] = &[4, 6, 8, 10];
pub const FIG7_SUBNETS: &[usize] = &[3, 15, 30];
pub const FIG8_TENANTS: &[usize] = &[2, 4, 6, 8];
pub const FIG9B_SUBNETS: &[usize] = &[3, 9, 15, 21];
pub const FIG9C_PEERS: &[usize] = &[1, 2, 3, 4];

/// One measured data point: a labelled collection of sample durations.
#[derive(Clone, Debug)]
pub struct Point {
    pub x: String,
    pub samples: Vec<Duration>,
}

impl Point {
    pub fn new(x: impl Into<String>) -> Point {
        Point { x: x.into(), samples: Vec::new() }
    }

    fn sorted_secs(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(Duration::as_secs_f64).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        v
    }

    pub fn min(&self) -> f64 {
        self.sorted_secs().first().copied().unwrap_or(0.0)
    }

    pub fn max(&self) -> f64 {
        self.sorted_secs().last().copied().unwrap_or(0.0)
    }

    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted_secs();
        if v.is_empty() {
            return 0.0;
        }
        let idx = ((v.len() - 1) as f64 * p / 100.0).round() as usize;
        v[idx]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

/// A labelled series of points (one line in a figure).
#[derive(Clone, Debug)]
pub struct Series {
    pub label: String,
    pub points: Vec<Point>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Series {
        Series { label: label.into(), points: Vec::new() }
    }
}

/// Prints the paper-style table for a figure: one row per x value with
/// min / 5th / median / 95th / max columns (the paper's box-and-whisker
/// content).
pub fn print_series(title: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    for s in series {
        println!("--- {} ---", s.label);
        println!(
            "{:>16} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "x", "min(s)", "p5(s)", "median(s)", "p95(s)", "max(s)"
        );
        for p in &s.points {
            println!(
                "{:>16} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                p.x,
                p.min(),
                p.percentile(5.0),
                p.median(),
                p.percentile(95.0),
                p.max()
            );
        }
    }
}

/// Times `samples` cold runs of verifying `inv` and returns the durations
/// plus the last report. Every sample gets a verifier of its own, built
/// outside the timed call, so no sample reads per-epoch tables (header
/// classes, the BDD dataplane) an earlier one filled.
pub fn time_verify(
    net: &Network,
    options: &VerifyOptions,
    inv: &Invariant,
    samples: usize,
) -> (Vec<Duration>, Report) {
    let mut durations = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let verifier = Verifier::new(net, options.clone()).expect("valid network");
        let t0 = Instant::now();
        let report = verifier.verify(inv).expect("verification succeeds");
        durations.push(t0.elapsed());
        last = Some(report);
    }
    (durations, last.expect("at least one sample"))
}

/// Times verifying a whole invariant set with symmetry (single-threaded,
/// matching the paper's single-core measurements), cold per sample like
/// [`time_verify`].
pub fn time_verify_all(
    net: &Network,
    options: &VerifyOptions,
    invariants: &[Invariant],
    samples: usize,
) -> Vec<Duration> {
    let mut durations = Vec::with_capacity(samples);
    for _ in 0..samples {
        let verifier = Verifier::new(net, options.clone()).expect("valid network");
        let t0 = Instant::now();
        let reports = verifier.verify_all(invariants, 1).expect("verification succeeds");
        assert_eq!(reports.len(), invariants.len());
        durations.push(t0.elapsed());
    }
    durations
}

/// Convenience: slice-mode options with a policy hint.
pub fn sliced(hint: Vec<Vec<NodeId>>) -> VerifyOptions {
    VerifyOptions { policy_hint: Some(hint), ..Default::default() }
}

/// Convenience: whole-network options with a policy hint.
pub fn whole(hint: Vec<Vec<NodeId>>) -> VerifyOptions {
    VerifyOptions { policy_hint: Some(hint), ..VerifyOptions::whole_network() }
}

pub mod figures;

//! Criterion bench for the incremental failure-scenario sweep: one
//! invariant checked under a growing set of failure scenarios on the §5.1
//! datacenter, incremental (assumption-based, one persistent solver per
//! slice) versus from-scratch (fresh term pool + CNF + solver per
//! scenario).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vmn::{Sessions, Verifier, VerifyOptions};
use vmn_bench::scenario_sweep_workload;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_sweep");
    group.sample_size(10);
    for &scenarios in &[3usize, 6] {
        let (net, hint, inv) = scenario_sweep_workload(scenarios);
        for (label, sessions) in
            [("incremental", Sessions::Clustered), ("from_scratch", Sessions::PerScenario)]
        {
            let opts =
                VerifyOptions { policy_hint: Some(hint.clone()), sessions, ..Default::default() };
            let verifier = Verifier::new(&net, opts).expect("valid network");
            group.bench_with_input(BenchmarkId::new(label, scenarios), &scenarios, |b, _| {
                b.iter(|| {
                    let report = verifier.verify(&inv).expect("verifies");
                    assert_eq!(report.scenarios_checked, scenarios + 1);
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

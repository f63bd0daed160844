//! Criterion bench for cross-invariant solver sessions: `verify_all`
//! over a mixed invariant fleet on the §5.1 datacenter, with the session
//! pool (one warmed-up solver per (node-set, trace-bound) key, re-entered
//! per invariant) versus a fresh solver stack per representative.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vmn::{Sessions, Verifier, VerifyOptions};
use vmn_bench::invariant_sweep_workload;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("invariant_sweep");
    group.sample_size(10);
    for &scenarios in &[2usize, 4] {
        let (net, hint, invs) = invariant_sweep_workload(scenarios);
        for (label, sessions) in
            [("sessions", Sessions::Pooled), ("fresh_stacks", Sessions::PerInvariant)]
        {
            let opts =
                VerifyOptions { policy_hint: Some(hint.clone()), sessions, ..Default::default() };
            group.bench_with_input(BenchmarkId::new(label, scenarios), &scenarios, |b, _| {
                b.iter(|| {
                    // A fresh verifier per iteration: the pool is re-warmed
                    // inside the measurement, like a cold verify_all.
                    let verifier = Verifier::new(&net, opts.clone()).expect("valid network");
                    let reports = verifier.verify_all(&invs, 1).expect("verifies");
                    assert_eq!(reports.len(), invs.len());
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

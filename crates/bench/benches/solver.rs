//! Criterion bench for the solver substrate itself: SAT search and
//! bit-vector lowering — the components whose cost every verification
//! figure ultimately decomposes into.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vmn_smt::{Context, SatResult, Sort, TermId};

/// Pigeonhole principle encoded at the term level: n+1 items, n slots.
fn pigeonhole(n: usize) -> Context {
    let mut ctx = Context::new();
    let vars: Vec<Vec<TermId>> = (0..n + 1)
        .map(|p| (0..n).map(|h| ctx.fresh_const(format!("x{p}_{h}"), Sort::Bool)).collect())
        .collect();
    for row in &vars {
        let any = ctx.or(row);
        ctx.assert(any);
    }
    for h in 0..n {
        for p1 in 0..n + 1 {
            for p2 in (p1 + 1)..n + 1 {
                let a = ctx.not(vars[p1][h]);
                let b = ctx.not(vars[p2][h]);
                let cl = ctx.or(&[a, b]);
                ctx.assert(cl);
            }
        }
    }
    ctx
}

/// Bit-vector ordering chain: x0 < x1 < … < x_{k-1} over w bits, with
/// x0 forced above the midpoint — satisfiable only while k fits.
fn bv_chain(k: usize, w: u32) -> Context {
    let mut ctx = Context::new();
    let xs: Vec<TermId> =
        (0..k).map(|i| ctx.fresh_const(format!("x{i}"), Sort::bitvec(w))).collect();
    for win in xs.windows(2) {
        let lt = ctx.bv_ult(win[0], win[1]);
        ctx.assert(lt);
    }
    let mid = ctx.bv_const(1 << (w - 1), w);
    let hi = ctx.bv_ule(mid, xs[0]);
    ctx.assert(hi);
    ctx
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.sample_size(10);
    for n in [6usize, 8] {
        group.bench_with_input(BenchmarkId::new("pigeonhole_unsat", n), &n, |b, &n| {
            b.iter(|| {
                let mut ctx = pigeonhole(n);
                assert_eq!(ctx.check(), SatResult::Unsat);
            })
        });
    }
    group.bench_function("bv_chain_sat", |b| {
        b.iter(|| {
            let mut ctx = bv_chain(24, 16);
            assert_eq!(ctx.check(), SatResult::Sat);
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Criterion bench for the solver substrate itself: SAT search and
//! bit-vector lowering — the components whose cost every verification
//! figure ultimately decomposes into — on synthetic formulas and on one
//! encoded slice (`lower_skeleton`: the lowering path;
//! `proof_after_warmup`: the propagation path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vmn::encoder::encode_skeleton;
use vmn::{Invariant, Network};
use vmn_mbox::models;
use vmn_net::{FailureScenario, NodeId, Prefix, RoutingConfig, Rule, Topology};
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

/// A six-terminal slice: one outside host and four inside hosts behind a
/// learning firewall that admits only flows the inside initiated. Returns
/// the network, its terminals, and a flow-isolation invariant that holds.
fn firewalled_site() -> (Network, Vec<NodeId>, Invariant) {
    let mut topo = Topology::new();
    let outside = topo.add_host("outside", "8.8.8.8".parse().unwrap());
    let inside: Vec<NodeId> = (1..=4)
        .map(|i| topo.add_host(format!("in{i}"), format!("10.0.0.{i}").parse().unwrap()))
        .collect();
    let sw = topo.add_switch("sw");
    let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
    for &n in inside.iter().chain([&outside, &fw]) {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    let everything: Prefix = "0.0.0.0/0".parse().unwrap();
    for &h in inside.iter().chain([&outside]) {
        tables.add_rule(sw, Rule::from_neighbor(everything, h, fw).with_priority(10));
    }
    let mut net = Network::new(topo, tables);
    let acl = vec![("10.0.0.0/8".parse().unwrap(), everything)];
    net.set_model(fw, models::learning_firewall("stateful-firewall", acl));
    let mut terminals = inside.clone();
    terminals.extend([outside, fw]);
    (net, terminals, Invariant::FlowIsolation { src: outside, dst: inside[0] })
}

/// Trace bound of the slice benches.
const SLICE_K: usize = 6;

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
    // The lowering path: encode the skeleton of the slice and run its
    // first check, which bit-blasts every assertion (the search on a bare
    // skeleton is a handful of decisions).
    let (net, terminals, holds) = firewalled_site();
    group.bench_function("lower_skeleton", |b| {
        b.iter(|| {
            let mut enc = encode_skeleton(&net, &terminals, SLICE_K).unwrap();
            assert_eq!(enc.ctx.check(), SatResult::Sat);
        })
    });
    // The propagation path: on a session whose CNF is already lowered,
    // forget the invariant's lemmas and prove it again — unit propagation
    // and conflict analysis, no encoding.
    let none = FailureScenario::none();
    let mut enc = encode_skeleton(&net, &terminals, SLICE_K).unwrap();
    assert_eq!(enc.check_invariant_scenario(&net, &holds, &none).unwrap(), SatResult::Unsat);
    group.bench_function("proof_after_warmup", |b| {
        b.iter(|| {
            enc.ctx.forget_learnts_for(&[0], &[]);
            enc.ctx.reset_search_state();
            assert_eq!(
                enc.check_invariant_scenario(&net, &holds, &none).unwrap(),
                SatResult::Unsat
            );
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

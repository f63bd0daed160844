//! The probe pass of a traced run: the layers' public functions called
//! directly on the workload's own input, each call timed.
//!
//! The sweep probe walks the battery the way `verify_all` does — one
//! representative per symmetry group, scenarios in order, the contract fast
//! path first, stateless slices to the BDD dataplane, the rest to pooled
//! solver sessions clustered by slice similarity, stopping at the first
//! violation — so its layer times add up to the sweep they explain, less
//! the engine's own bookkeeping (`engine.unattributed_s`). It leaves out the
//! pool's cost model (warm sessions are always re-entered); solver counters
//! therefore come from the engine's reports, not from here.

use std::collections::HashMap;
use std::time::Instant;
use vmn::encoder::{encode_skeleton, Encoded};
use vmn::engine::DEFAULT_CLUSTER_THRESHOLD;
use vmn::modular::{synthesize, ModularContext};
use vmn::policy::group_by_symmetry;
use vmn::slice::{cluster_slices, stateless_slice, verdict_fingerprint};
use vmn::{
    Backend, Invariant, Network, PartitionMode, PolicyClasses, Trace, Verifier, VerifyOptions,
};
use vmn_net::{FailureScenario, HeaderClasses, NodeId};
use vmn_smt::SatResult;

use crate::metrics::Metrics;
use crate::stats::median;

pub fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Layer times that explain one `Verifier::new` and one `verify_all`.
#[derive(Default)]
pub struct Explained {
    pub new_layers: Vec<(&'static str, f64)>,
    pub sweep_layers: Vec<(&'static str, f64)>,
}

/// Probes every layer on `(net, battery, options)` and records the
/// per-layer metrics. Counters describe one check; times add up over it.
pub fn probe_check(
    net: &Network,
    battery: &[Invariant],
    options: &VerifyOptions,
    m: &mut Metrics,
) -> Result<Explained, String> {
    let mut ex = Explained::default();

    // ---- what `Verifier::new` is made of --------------------------------
    let (valid, validate_s) = clock(|| net.validate());
    valid?;
    m.add("analysis.validate_s", validate_s);
    ex.new_layers.push(("analysis.validate", validate_s));
    let (policy, policy_s) = clock(|| PolicyClasses::compute(net));
    m.add("policy.compute_s", policy_s);
    m.set("policy.classes", policy.num_classes() as f64);
    ex.new_layers.push(("policy.compute", policy_s));
    let scenarios = net.all_scenarios();
    match &options.partition {
        PartitionMode::Off => {}
        mode => {
            let (ctx, partition_s) = clock(|| match mode {
                PartitionMode::Explicit { partition, .. } => {
                    ModularContext::resolve(&net.topo, partition.clone()).map_err(|e| e.to_string())
                }
                _ => Ok(ModularContext::auto(&net.topo)),
            });
            let ctx = ctx?;
            m.add("modular.partition_s", partition_s);
            m.set("modular.modules", ctx.module_count() as f64);
            m.set("modular.boundary_edges", ctx.boundary_len() as f64);
            ex.new_layers.push(("modular.partition", partition_s));
            // One synthesis per scenario is what a sweep memoizes; an
            // explicit partition also pays the no-failure one at
            // construction, validating its contracts against it.
            let mut synth_s = Vec::new();
            for s in &scenarios {
                synth_s.push(clock(|| std::hint::black_box(synthesize(net, s))).1);
            }
            m.add("modular.synthesize_s", synth_s.iter().sum());
            if matches!(mode, PartitionMode::Explicit { .. }) {
                ex.new_layers.push(("modular.synthesize", synth_s[0]));
            }
        }
    }

    // ---- the static datapath substrate ----------------------------------
    let (classes, classes_s) = clock(|| HeaderClasses::from_network(&net.topo, &net.tables));
    m.add("net.header_classes_s", classes_s);
    m.set("net.header_classes", classes.num_classes() as f64);

    // ---- the sweep -------------------------------------------------------
    // One verifier serves planning, the contract fast path and — forced to
    // the BDD backend — the dataplane; the policy it would compute is
    // handed in, so building it is not the cost being measured.
    let probe_options = VerifyOptions {
        policy_hint: Some(policy.classes.clone()),
        backend: Backend::Bdd,
        ..options.clone()
    };
    let verifier = Verifier::new(net, probe_options).map_err(|e| e.to_string())?;
    let (groups, symmetry_s) = clock(|| group_by_symmetry(net, &policy, battery));
    m.add("policy.symmetry_s", symmetry_s);
    ex.sweep_layers.push(("policy.symmetry", symmetry_s));

    let mut plan_us = Vec::new();
    let mut contract_us = Vec::new();
    let (mut plan_s, mut contract_s, mut fingerprint_s) = (0.0, 0.0, 0.0);
    let (mut bdd_s, mut skeleton_s, mut check_s, mut extract_s) = (0.0, 0.0, 0.0, 0.0);
    let mut slice_nodes = Vec::new();
    let mut bound_max = 0usize;
    let mut bdd_pairs: Vec<(Invariant, FailureScenario)> = Vec::new();
    let mut sessions: HashMap<(Vec<NodeId>, usize), Encoded> = HashMap::new();
    let (mut terms, mut assertions) = (0usize, 0usize);

    for group in &groups {
        let inv = &battery[group[0]];
        // Plan every scenario up front, as the engine does.
        let mut plans = Vec::new();
        for s in &scenarios {
            let (plan, s_plan) = clock(|| verifier.plan_for(inv, s));
            let (nodes, k) = plan.map_err(|e| e.to_string())?;
            let stateless = stateless_slice(net, s, &nodes);
            let contract = verifier.modular_context().is_some_and(|ctx| {
                let (holds, s_contract) = clock(|| ctx.contract_holds(net, inv, s));
                contract_us.push(s_contract * 1e6);
                contract_s += s_contract;
                holds
            });
            plan_us.push(s_plan * 1e6);
            // A BDD query below plans again inside `verify_under`; count
            // the plan here only where nothing else will.
            if contract || !stateless {
                plan_s += s_plan;
            }
            slice_nodes.push(nodes.len() as f64);
            bound_max = bound_max.max(k);
            fingerprint_s += clock(|| verdict_fingerprint(net, &classes, inv, s, &nodes, k)).1;
            plans.push((nodes, k, stateless, contract));
        }
        let smt: Vec<usize> = (0..plans.len()).filter(|&i| !plans[i].2 && !plans[i].3).collect();
        let smt_slices: Vec<Vec<NodeId>> = smt.iter().map(|&i| plans[i].0.clone()).collect();
        let mut key_of: HashMap<usize, (Vec<NodeId>, usize)> = HashMap::new();
        for members in cluster_slices(&smt_slices, DEFAULT_CLUSTER_THRESHOLD) {
            let mut nodes: Vec<NodeId> =
                members.iter().flat_map(|&j| plans[smt[j]].0.iter().copied()).collect();
            nodes.sort();
            nodes.dedup();
            let k = members.iter().map(|&j| plans[smt[j]].1).max().expect("non-empty cluster");
            for &j in &members {
                key_of.insert(smt[j], (nodes.clone(), k));
            }
        }
        for (i, s) in scenarios.iter().enumerate() {
            let (_, _, stateless, contract) = plans[i];
            if contract {
                continue;
            }
            if stateless {
                let (r, s_bdd) = clock(|| verifier.verify_under(inv, vec![s.clone()]));
                bdd_s += s_bdd;
                bdd_pairs.push((inv.clone(), s.clone()));
                if !r.map_err(|e| e.to_string())?.verdict.holds() {
                    break;
                }
                continue;
            }
            let key = key_of[&i].clone();
            if !sessions.contains_key(&key) {
                let (enc, s_enc) = clock(|| encode_skeleton(net, &key.0, key.1));
                let enc = enc.map_err(|e| e.to_string())?;
                skeleton_s += s_enc;
                terms += enc.ctx.pool().len();
                assertions += enc.ctx.num_assertions();
                sessions.insert(key.clone(), enc);
            }
            let enc = sessions.get_mut(&key).expect("inserted above");
            let (sat, s_check) = clock(|| enc.check_invariant_scenario(net, inv, s));
            check_s += s_check;
            if sat.map_err(|e| e.to_string())? == SatResult::Sat {
                extract_s += clock(|| std::hint::black_box(Trace::extract(enc))).1;
                break;
            }
        }
    }
    // Second pass over the same BDD pairs: the dataplane is compiled and
    // its caches are warm, so this is the cost of a query alone.
    let mut query_us = Vec::new();
    for (inv, s) in &bdd_pairs {
        query_us.push(clock(|| verifier.verify_under(inv, vec![s.clone()])).1 * 1e6);
    }

    m.add("slice.plan_s", plan_us.iter().sum::<f64>() / 1e6);
    m.set("slice.plan_us_p50", median(&plan_us));
    m.set("slice.nodes_p50", median(&slice_nodes));
    m.set("slice.nodes_max", slice_nodes.iter().fold(0.0, |a: f64, &b| a.max(b)));
    m.set("slice.bound_max", bound_max as f64);
    m.add("slice.fingerprint_s", fingerprint_s);
    m.set("modular.contract_holds_us_p50", median(&contract_us));
    m.add("bdd.sweep_s", bdd_s);
    m.set("bdd.query_us_p50", median(&query_us));
    m.add("encoder.skeleton_s", skeleton_s);
    m.add("encoder.terms", terms as f64);
    m.add("encoder.assertions", assertions as f64);
    m.add("smt.check_s", check_s);
    m.add("trace.extract_s", extract_s);
    ex.sweep_layers.extend([
        ("slice.plan", plan_s),
        ("modular.contract_holds", contract_s),
        ("bdd.sweep", bdd_s),
        ("encoder.skeleton", skeleton_s),
        ("smt.check", check_s),
        ("trace.extract", extract_s),
    ]);
    Ok(ex)
}

//! The per-figure sweep implementations behind the `figures` binary.
//!
//! Each function builds the paper's workload, measures the relevant
//! verification calls, and returns the series that a plotting script (or
//! `EXPERIMENTS.md`) consumes as text tables.

use crate::{
    sliced, time_verify, time_verify_all, whole, Point, Series, FIG3_CLASSES, FIG4_CLASSES,
    FIG7_SUBNETS, FIG8_TENANTS, FIG9B_SUBNETS, FIG9C_PEERS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vmn_scenarios::data_isolation::{DataIsolation, DataIsolationParams};
use vmn_scenarios::datacenter::{Datacenter, DatacenterParams};
use vmn_scenarios::enterprise::{Enterprise, EnterpriseParams, SubnetKind};
use vmn_scenarios::isp::{Isp, IspParams};
use vmn_scenarios::multi_tenant::{MultiTenant, MultiTenantParams};

fn dc_params(policy_groups: usize) -> DatacenterParams {
    DatacenterParams {
        racks: policy_groups * 2,
        hosts_per_rack: 4,
        policy_groups,
        redundant: true,
        with_failures: true,
    }
}

/// Figure 2: time to verify one invariant for the three §5.1 scenarios,
/// split into violated / holds cases.
pub fn fig2(samples: usize) -> Vec<Series> {
    let mut rng = StdRng::seed_from_u64(2);
    let mut out = Vec::new();

    // Rules: incorrect firewall rules on all firewalls.
    let mut dc = Datacenter::build(dc_params(5));
    let pairs = dc.inject_rule_misconfig(&mut rng, 2);
    let opts = sliced(dc.policy_hint());
    let mut violated = Point::new("Rules/violated");
    let (d, rep) = time_verify(&dc.net, &opts, &dc.pair_isolation(pairs[0].0, pairs[0].1), samples);
    assert!(!rep.verdict.holds());
    violated.samples = d;
    let mut holds = Point::new("Rules/holds");
    // A pair unaffected by the injection (recompute to be safe).
    let clean = (0..5)
        .flat_map(|a| (0..5).map(move |b| (a, b)))
        .find(|&(a, b)| a != b && !pairs.contains(&(a, b)))
        .expect("some clean pair");
    let (d, rep) = time_verify(&dc.net, &opts, &dc.pair_isolation(clean.0, clean.1), samples);
    assert!(rep.verdict.holds());
    holds.samples = d;
    out.push(Series { label: "Rules".into(), points: vec![violated, holds] });

    // Redundancy: misconfigured backup firewall (violation needs failure).
    let mut dc = Datacenter::build(dc_params(5));
    let pairs = dc.inject_redundancy_misconfig(&mut rng, 1);
    let opts = sliced(dc.policy_hint());
    let mut violated = Point::new("Redundancy/violated");
    let (d, rep) = time_verify(&dc.net, &opts, &dc.pair_isolation(pairs[0].0, pairs[0].1), samples);
    assert!(!rep.verdict.holds());
    violated.samples = d;
    let clean = (0..5)
        .flat_map(|a| (0..5).map(move |b| (a, b)))
        .find(|&(a, b)| a != b && !pairs.contains(&(a, b)))
        .expect("some clean pair");
    let mut holds = Point::new("Redundancy/holds");
    let (d, rep) = time_verify(&dc.net, &opts, &dc.pair_isolation(clean.0, clean.1), samples);
    assert!(rep.verdict.holds());
    holds.samples = d;
    out.push(Series { label: "Redundancy".into(), points: vec![violated, holds] });

    // Traversal: backup routing skips the IDPS.
    let mut dc_bad = Datacenter::build(dc_params(5));
    dc_bad.inject_traversal_misconfig();
    let opts = sliced(dc_bad.policy_hint());
    let mut violated = Point::new("Traversal/violated");
    let inv = dc_bad.traversal_invariants().remove(0);
    let (d, rep) = time_verify(&dc_bad.net, &opts, &inv, samples);
    assert!(!rep.verdict.holds());
    violated.samples = d;
    let dc_good = Datacenter::build(dc_params(5));
    let opts = sliced(dc_good.policy_hint());
    let mut holds = Point::new("Traversal/holds");
    let inv = dc_good.traversal_invariants().remove(0);
    let (d, rep) = time_verify(&dc_good.net, &opts, &inv, samples);
    assert!(rep.verdict.holds());
    holds.samples = d;
    out.push(Series { label: "Traversal".into(), points: vec![violated, holds] });
    out
}

/// Figure 3: time to verify **all** invariants as a function of policy
/// complexity, for the three §5.1 scenarios.
pub fn fig3(samples: usize) -> Vec<Series> {
    let mut rules = Series::new("Rules");
    let mut redundancy = Series::new("Redundancy");
    let mut traversal = Series::new("Traversal");
    for &classes in FIG3_CLASSES {
        let mut rng = StdRng::seed_from_u64(3);

        let mut dc = Datacenter::build(dc_params(classes));
        dc.inject_rule_misconfig(&mut rng, classes / 2);
        let invs = dc.isolation_invariants();
        let mut p = Point::new(classes.to_string());
        p.samples = time_verify_all(&dc.net, &sliced(dc.policy_hint()), &invs, samples);
        rules.points.push(p);

        let mut dc = Datacenter::build(dc_params(classes));
        dc.inject_redundancy_misconfig(&mut rng, classes / 2);
        let invs = dc.isolation_invariants();
        let mut p = Point::new(classes.to_string());
        p.samples = time_verify_all(&dc.net, &sliced(dc.policy_hint()), &invs, samples);
        redundancy.points.push(p);

        let mut dc = Datacenter::build(dc_params(classes));
        dc.inject_traversal_misconfig();
        let invs = dc.traversal_invariants();
        let mut p = Point::new(classes.to_string());
        p.samples = time_verify_all(&dc.net, &sliced(dc.policy_hint()), &invs, samples);
        traversal.points.push(p);
    }
    vec![rules, redundancy, traversal]
}

/// Figure 4: per-invariant data-isolation time vs policy complexity,
/// split into prove-violation / prove-holds series.
pub fn fig4(samples: usize) -> Vec<Series> {
    let mut violated = Series::new("Time to Prove Invariant Violation");
    let mut holds = Series::new("Time to Prove Invariant Holds");
    for &classes in FIG4_CLASSES {
        let params = DataIsolationParams { policy_groups: classes, clients_per_group: 1 };

        let mut d = DataIsolation::build(params.clone());
        let mut rng = StdRng::seed_from_u64(4);
        let hit = d.inject_cache_misconfig(&mut rng, 1)[0];
        let inv = d.private_isolation(hit, (hit + 1) % classes);
        let mut p = Point::new(classes.to_string());
        let (durations, rep) = time_verify(&d.net, &sliced(d.policy_hint()), &inv, samples);
        assert!(!rep.verdict.holds());
        p.samples = durations;
        violated.points.push(p);

        let d = DataIsolation::build(params);
        let inv = d.private_isolation(0, 1);
        let mut p = Point::new(classes.to_string());
        let (durations, rep) = time_verify(&d.net, &sliced(d.policy_hint()), &inv, samples);
        assert!(rep.verdict.holds());
        p.samples = durations;
        holds.points.push(p);
    }
    vec![violated, holds]
}

/// Figure 5: whole-network data-isolation verification vs policy
/// complexity (all invariants, with symmetry).
pub fn fig5(samples: usize) -> Vec<Series> {
    let mut all = Series::new("All data isolation invariants");
    for &classes in FIG4_CLASSES {
        let d = DataIsolation::build(DataIsolationParams {
            policy_groups: classes,
            clients_per_group: 1,
        });
        let invs = d.invariants();
        let mut p = Point::new(classes.to_string());
        p.samples = time_verify_all(&d.net, &sliced(d.policy_hint()), &invs, samples);
        all.points.push(p);
    }
    vec![all]
}

/// Figure 7: enterprise network — per-invariant time on a slice (network
/// size independent) versus on the whole network at increasing size, for
/// the three subnet kinds.
pub fn fig7(samples: usize) -> Vec<Series> {
    let kinds = [SubnetKind::Public, SubnetKind::Private, SubnetKind::Quarantined];
    let mut out = Vec::new();
    for kind in kinds {
        let mut series = Series::new(format!("{kind:?}"));
        // Slice point (network size is irrelevant by construction).
        let e =
            Enterprise::build(EnterpriseParams { subnets: FIG7_SUBNETS[0], hosts_per_subnet: 2 });
        let mut p = Point::new("slice");
        let (d, _) = time_verify(&e.net, &sliced(e.policy_hint()), &e.invariant_for(kind), samples);
        p.samples = d;
        series.points.push(p);
        // Whole-network points.
        for &subnets in FIG7_SUBNETS {
            let e = Enterprise::build(EnterpriseParams { subnets, hosts_per_subnet: 2 });
            let mut p = Point::new(format!("whole/{}", e.size()));
            let (d, _) =
                time_verify(&e.net, &whole(e.policy_hint()), &e.invariant_for(kind), samples);
            p.samples = d;
            series.points.push(p);
        }
        out.push(series);
    }
    out
}

/// Figure 8: multi-tenant datacenter — per-invariant time, slice versus
/// whole network at increasing tenant counts, for the three invariant
/// families.
pub fn fig8(samples: usize) -> Vec<Series> {
    let fams: [(&str, fn(&MultiTenant) -> vmn::Invariant); 3] = [
        ("Priv-Priv", |m| m.priv_priv(0, 1)),
        ("Pub-Priv", |m| m.pub_priv(0, 1)),
        ("Priv-Pub", |m| m.priv_pub(0, 1)),
    ];
    let mut out = Vec::new();
    for (label, mk) in fams {
        let mut series = Series::new(label);
        let m =
            MultiTenant::build(MultiTenantParams { tenants: FIG8_TENANTS[0], vms_per_group: 3 });
        let mut p = Point::new("slice");
        let (d, _) = time_verify(&m.net, &sliced(m.policy_hint()), &mk(&m), samples);
        p.samples = d;
        series.points.push(p);
        for &tenants in FIG8_TENANTS {
            let m = MultiTenant::build(MultiTenantParams { tenants, vms_per_group: 3 });
            let mut p = Point::new(format!("whole/{tenants}"));
            let (d, _) = time_verify(&m.net, &whole(m.policy_hint()), &mk(&m), samples);
            p.samples = d;
            series.points.push(p);
        }
        out.push(series);
    }
    out
}

/// Figure 9(b): ISP — per-invariant time, slice versus whole network as
/// the number of subnets grows (peering points fixed).
pub fn fig9b(samples: usize) -> Vec<Series> {
    let mut series = Series::new("ISP invariant (5→3 peering points)");
    let isp = Isp::build(IspParams {
        peering_points: 3,
        subnets: FIG9B_SUBNETS[0],
        scrubber_behind_firewall: true,
        attacked_subnet: 1,
    });
    let mut p = Point::new("slice");
    let (d, _) =
        time_verify(&isp.net, &sliced(isp.policy_hint()), &isp.invariant_for(1, 1), samples);
    p.samples = d;
    series.points.push(p);
    for &subnets in FIG9B_SUBNETS {
        let isp = Isp::build(IspParams {
            peering_points: 3,
            subnets,
            scrubber_behind_firewall: true,
            attacked_subnet: 1,
        });
        let mut p = Point::new(format!("whole/{subnets}"));
        let (d, _) =
            time_verify(&isp.net, &whole(isp.policy_hint()), &isp.invariant_for(1, 1), samples);
        p.samples = d;
        series.points.push(p);
    }
    vec![series]
}

/// Figure 9(c): ISP — per-invariant time, slice versus whole network as
/// the number of peering points grows (subnets fixed).
pub fn fig9c(samples: usize) -> Vec<Series> {
    let mut series = Series::new("ISP invariant (75→9 subnets)");
    let isp = Isp::build(IspParams {
        peering_points: FIG9C_PEERS[0],
        subnets: 9,
        scrubber_behind_firewall: true,
        attacked_subnet: 1,
    });
    let mut p = Point::new("slice");
    let (d, _) =
        time_verify(&isp.net, &sliced(isp.policy_hint()), &isp.invariant_for(1, 0), samples);
    p.samples = d;
    series.points.push(p);
    for &peers in FIG9C_PEERS {
        let isp = Isp::build(IspParams {
            peering_points: peers,
            subnets: 9,
            scrubber_behind_firewall: true,
            attacked_subnet: 1,
        });
        let mut p = Point::new(format!("whole/{peers}"));
        let (d, _) =
            time_verify(&isp.net, &whole(isp.policy_hint()), &isp.invariant_for(1, 0), samples);
        p.samples = d;
        series.points.push(p);
    }
    vec![series]
}

/// Ablation: the two §4 scaling mechanisms, toggled independently on the
/// §5.1 datacenter. Rows: full engine (slices + symmetry), slices without
/// symmetry, whole-network with symmetry.
pub fn ablation(samples: usize) -> Vec<Series> {
    use vmn::Verifier;
    let classes = 5usize;
    let dc = Datacenter::build(dc_params(classes));
    // Per-host invariants: every host of each group must be isolated from
    // the next group. Within a group these are symmetric, so the symmetry
    // machinery collapses them to one solver run per group.
    let invs: Vec<vmn::Invariant> = (0..classes)
        .flat_map(|g| {
            let src = dc.groups[(g + 1) % classes][0];
            dc.groups[g]
                .iter()
                .take(4)
                .map(move |&dst| vmn::Invariant::NodeIsolation { src, dst })
                .collect::<Vec<_>>()
        })
        .collect();
    let mut out = Vec::new();

    // Slices + symmetry (the full engine).
    let mut s = Series::new("slices + symmetry");
    let mut p = Point::new(classes.to_string());
    p.samples = time_verify_all(&dc.net, &sliced(dc.policy_hint()), &invs, samples);
    s.points.push(p);
    out.push(s);

    // Slices, no symmetry: every invariant verified directly.
    let mut s = Series::new("slices, no symmetry");
    let mut p = Point::new(classes.to_string());
    for _ in 0..samples {
        let verifier = Verifier::new(&dc.net, sliced(dc.policy_hint())).expect("valid");
        let t0 = std::time::Instant::now();
        for inv in &invs {
            verifier.verify(inv).expect("verifies");
        }
        p.samples.push(t0.elapsed());
    }
    s.points.push(p);
    out.push(s);

    // Whole network + symmetry: no slicing.
    let mut s = Series::new("whole network + symmetry");
    let mut p = Point::new(classes.to_string());
    p.samples = time_verify_all(&dc.net, &whole(dc.policy_hint()), &invs, samples);
    s.points.push(p);
    out.push(s);
    out
}

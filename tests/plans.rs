//! Plans (`Verifier::plan_for`): the node set and trace bound of every
//! (invariant, scenario) pair come from one closure, and its pipeline depth
//! must equal the reference walk over the closed set — on every generator
//! network and on a load balancer whose backend's pipeline is longer than
//! any between the invariant's endpoints — in sliced and whole-network mode.

#[path = "support/pipeline_depth.rs"]
mod pipeline_depth;

use pipeline_depth::max_pipeline_depth;
use vmn::bounds::DEFAULT_SLACK;
use vmn::{Invariant, Network, Verifier, VerifyOptions};
use vmn_mbox::models;
use vmn_net::{Address, FailureScenario, NodeId, Prefix, RoutingConfig, Rule, Topology};
use vmn_scenarios::data_isolation::{DataIsolation, DataIsolationParams};
use vmn_scenarios::datacenter::{Datacenter, DatacenterParams};
use vmn_scenarios::enterprise::{Enterprise, EnterpriseParams};
use vmn_scenarios::estate::{Estate, EstateParams, EstateStyle};
use vmn_scenarios::isp::{Isp, IspParams};
use vmn_scenarios::multi_tenant::{MultiTenant, MultiTenantParams};

fn addr(s: &str) -> Address {
    s.parse().unwrap()
}

fn px(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// A client `c` whose traffic passes the load balancer `lb` (the VIP is
/// only in its model: no route leads to it), another host `o`, and `lb`'s
/// backend `s`, whose traffic passes `fw1` and then `fw2` (which can fail).
/// The slice of `c -> o` holds `s` only because `lb` names its address, so
/// its deepest pipeline (`s`'s, two boxes) joins no endpoint (`c`'s
/// crosses one box).
fn load_balanced() -> (Network, Vec<Invariant>) {
    let mut topo = Topology::new();
    let c = topo.add_host("c", addr("8.8.8.8"));
    let o = topo.add_host("o", addr("8.8.4.4"));
    let s = topo.add_host("s", addr("10.0.0.1"));
    let sw = topo.add_switch("sw");
    let lb = topo.add_middlebox("lb", "load-balancer", vec![]);
    let fw1 = topo.add_middlebox("fw1", "acl-firewall", vec![]);
    let fw2 = topo.add_middlebox("fw2", "acl-firewall", vec![]);
    for n in [c, o, s, lb, fw1, fw2] {
        topo.add_link(n, sw);
    }
    let mut rc = RoutingConfig::new();
    rc.host_routes(&topo);
    let mut tables = rc.build(&topo, &FailureScenario::none());
    let all = px("0.0.0.0/0");
    tables.add_rule(sw, Rule::from_neighbor(all, c, lb).with_priority(10));
    tables.add_rule(sw, Rule::from_neighbor(all, s, fw1).with_priority(10));
    tables.add_rule(sw, Rule::from_neighbor(all, fw1, fw2).with_priority(10));
    let mut net = Network::new(topo, tables);
    net.set_model(
        lb,
        models::load_balancer("load-balancer", addr("10.0.0.100"), vec![addr("10.0.0.1")]),
    );
    for fw in [fw1, fw2] {
        net.set_model(fw, models::acl_firewall("acl-firewall", vec![(all, all)]));
    }
    net.add_scenario(FailureScenario::nodes([fw2]));
    let invariants = vec![
        Invariant::NodeIsolation { src: c, dst: o },
        Invariant::FlowIsolation { src: o, dst: c },
        Invariant::NodeIsolation { src: c, dst: s },
    ];
    (net, invariants)
}

/// Every generator, with its own invariants, and [`load_balanced`].
fn networks() -> Vec<(String, Network, Vec<Invariant>)> {
    let mut nets = Vec::new();
    let dc = Datacenter::build(DatacenterParams {
        racks: 4,
        hosts_per_rack: 3,
        policy_groups: 3,
        redundant: true,
        with_failures: true,
    });
    let mut invs = dc.isolation_invariants();
    invs.extend(dc.traversal_invariants());
    nets.push(("datacenter".into(), dc.net, invs));

    let di = DataIsolation::build(DataIsolationParams { policy_groups: 3, clients_per_group: 2 });
    let invs = di.invariants();
    nets.push(("data isolation".into(), di.net, invs));

    let ent = Enterprise::build(EnterpriseParams::default());
    let invs = ent.invariants().into_iter().map(|(_, inv)| inv).collect();
    nets.push(("enterprise".into(), ent.net, invs));

    let mt = MultiTenant::build(MultiTenantParams { tenants: 2, vms_per_group: 2 });
    let invs = mt.invariants();
    nets.push(("multi-tenant".into(), mt.net, invs));

    for ok in [true, false] {
        let isp = Isp::build(IspParams {
            peering_points: 2,
            subnets: 3,
            scrubber_behind_firewall: ok,
            ..Default::default()
        });
        let invs = isp.invariants();
        nets.push((format!("isp, scrubber behind the firewalls: {ok}"), isp.net, invs));
    }

    for style in [EstateStyle::Campus, EstateStyle::Isp] {
        let e = Estate::build(EstateParams {
            style,
            sites: 3,
            subnets_per_site: 2,
            hosts_per_subnet: 3,
            with_failures: true,
        });
        let mut invs = e.cross_site_isolation(4);
        invs.extend(e.cross_site_flow_isolation(4));
        invs.extend(e.local_reachability(4));
        nets.push((format!("{style:?} estate"), e.net, invs));
    }

    let (net, invs) = load_balanced();
    nets.push(("load balancer".into(), net, invs));
    nets
}

/// Under the default options and in whole-network mode, every plan's bound
/// is `W·(D+1)+DEFAULT_SLACK` with `D` the reference depth over the plan's
/// nodes, and a whole-network plan holds every terminal.
#[test]
fn every_plan_bound_matches_the_reference_depth() {
    let mut deeper_than_the_endpoints = 0;
    for (label, net, invariants) in networks() {
        assert!(!invariants.is_empty(), "{label}: no invariants");
        let terminals: Vec<NodeId> = net.topo.terminals().collect();
        for options in [VerifyOptions::default(), VerifyOptions::whole_network()] {
            let whole = !options.use_slices;
            let v = Verifier::new(&net, options).unwrap();
            let classes = v.header_classes();
            for inv in &invariants {
                for s in net.all_scenarios() {
                    let at = || format!("{label}, whole network: {whole}, {inv} under {s:?}");
                    let (nodes, bound) =
                        v.plan_for(inv, &s).unwrap_or_else(|e| panic!("{}: {e:?}", at()));
                    let depth = |nodes: &[NodeId]| {
                        max_pipeline_depth(&net.topo, &net.tables, classes, &s, nodes).unwrap()
                    };
                    let d = depth(&nodes);
                    assert_eq!(bound, inv.witness_packets() * (d + 1) + DEFAULT_SLACK, "{}", at());
                    if whole {
                        assert_eq!(nodes, terminals, "{}", at());
                    } else if depth(&inv.endpoints()) < d {
                        deeper_than_the_endpoints += 1;
                    }
                }
            }
        }
    }
    // Not vacuous: some slices pipeline deeper between hosts that are not
    // the invariant's endpoints.
    assert!(deeper_than_the_endpoints > 0);
}

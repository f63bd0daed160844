//! Property-based tests for the network substrate.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;
use vmn_net::{
    translated_intervals, Address, FailureScenario, ForwardingTables, HeaderClasses, Link,
    NetError, NodeId, NodeKind, Prefix, RoutingConfig, Rule, Topology, TransferFunction,
};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u32..=32).prop_map(|(addr, len)| Prefix::new(Address(addr), len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Prefix containment agrees with the range view.
    #[test]
    fn prefix_contains_matches_range(p in arb_prefix(), a in any::<u32>()) {
        let a = Address(a);
        let in_range = p.first().0 <= a.0 && a.0 <= p.last().0;
        prop_assert_eq!(p.contains(a), in_range);
    }

    /// `covers` is exactly range inclusion.
    #[test]
    fn covers_matches_range_inclusion(p in arb_prefix(), q in arb_prefix()) {
        let range_incl = p.first().0 <= q.first().0 && q.last().0 <= p.last().0;
        prop_assert_eq!(p.covers(q), range_incl);
    }

    /// complement_within partitions the outer block exactly.
    #[test]
    fn complement_partitions(outer_len in 0u32..16, rest in any::<u32>(), extra in 1u32..16, probe in any::<u32>()) {
        let outer = Prefix::new(Address(rest), outer_len);
        let inner_len = (outer_len + extra).min(32);
        let inner = Prefix::new(Address(rest), inner_len);
        let comp = outer.complement_within(inner);
        let a = Address(probe);
        let total = inner.contains(a) as usize
            + comp.iter().filter(|p| p.contains(a)).count();
        if outer.contains(a) {
            prop_assert_eq!(total, 1, "each outer address in exactly one piece");
        } else {
            prop_assert_eq!(total, 0, "outside addresses in none");
        }
    }

    /// Header classes: all addresses in a class match the same prefixes.
    #[test]
    fn header_classes_are_uniform(prefixes in prop::collection::vec(arb_prefix(), 1..8), a in any::<u32>(), b in any::<u32>()) {
        let classes = HeaderClasses::from_prefixes(&prefixes);
        let (a, b) = (Address(a), Address(b));
        if classes.class_of(a) == classes.class_of(b) {
            for p in &prefixes {
                prop_assert_eq!(p.contains(a), p.contains(b),
                    "same class must mean identical prefix membership ({})", p);
            }
        }
    }

    /// Class representatives are members of their own class.
    #[test]
    fn representatives_are_canonical(prefixes in prop::collection::vec(arb_prefix(), 1..8)) {
        let classes = HeaderClasses::from_prefixes(&prefixes);
        for i in 0..classes.num_classes() {
            prop_assert_eq!(classes.class_of(classes.representative(i)), i);
        }
    }
}

// Random tree topologies: shortest-path routing must deliver every
// host-to-host packet (no loops, no blackholes), and killing a node must
// never create a loop.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_routing_delivers(edges in prop::collection::vec(0usize..8, 1..8), kill in 0usize..8) {
        // Build a random tree of switches; attach one host to each.
        let mut topo = Topology::new();
        let n = edges.len() + 1;
        let switches: Vec<_> = (0..n).map(|i| topo.add_switch(format!("s{i}"))).collect();
        for (i, &e) in edges.iter().enumerate() {
            // Connect switch i+1 to one of the earlier switches: a tree.
            let parent = switches[e % (i + 1)];
            topo.add_link(switches[i + 1], parent);
        }
        let hosts: Vec<_> = (0..n)
            .map(|i| {
                let h = topo.add_host(format!("h{i}"), Address(0x0A00_0000 + i as u32));
                topo.add_link(h, switches[i]);
                h
            })
            .collect();
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);

        // Fault-free: every pair must be delivered.
        let none = FailureScenario::none();
        let tables = rc.build(&topo, &none);
        let tf = TransferFunction::new(&topo, &tables, &none);
        for &src in &hosts {
            for &dst in &hosts {
                if src == dst { continue; }
                let addr = topo.node(dst).addresses[0];
                let out = tf.deliver(src, addr);
                prop_assert_eq!(out.unwrap(), Some(dst), "{:?} -> {:?}", src, dst);
            }
        }

        // Kill one switch: remaining deliveries either succeed or drop,
        // but never loop or panic.
        let dead = switches[kill % n];
        let failed = FailureScenario::nodes([dead]);
        let tables2 = rc.build(&topo, &failed);
        let tf2 = TransferFunction::new(&topo, &tables2, &failed);
        for &src in &hosts {
            for &dst in &hosts {
                if src == dst { continue; }
                let addr = topo.node(dst).addresses[0];
                let out = tf2.deliver(src, addr);
                prop_assert!(out.is_ok(), "loop after failure: {:?}", out);
            }
        }
    }

    /// LPM lookup always returns the most specific live match.
    #[test]
    fn lpm_prefers_longer_prefixes(dst in any::<u32>(), lens in prop::collection::vec(0u32..=32, 1..6)) {
        let mut topo = Topology::new();
        let sw = topo.add_switch("sw");
        let src = topo.add_host("src", Address(1));
        topo.add_link(src, sw);
        let dst = Address(dst);
        // One next-hop host per prefix length (all covering dst).
        let mut tables = ForwardingTables::new();
        let mut nexts = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let h = topo.add_host(format!("n{i}"), Address(1000 + i as u32));
            topo.add_link(h, sw);
            tables.add_rule(sw, Rule::new(Prefix::new(dst, len), h));
            nexts.push((len, h));
        }
        let best = nexts.iter().max_by_key(|(len, _)| *len).unwrap().1;
        let none = FailureScenario::none();
        let got = tables.lookup(&topo, &none, sw, dst, src);
        // Ties on length may pick either; check the length is maximal.
        let got_len = nexts.iter().find(|(_, h)| Some(*h) == got).map(|(l, _)| *l);
        let best_len = nexts.iter().find(|(_, h)| *h == best).map(|(l, _)| *l);
        prop_assert_eq!(got_len, best_len);
    }
}

// ---- The compiled runs against the reference walker -----------------------
//
// A walk on header classes answers each hop from the switch's compiled
// next-hop runs (or, behind a dead best next hop, its fallback runs under
// the scenario), and `TransferFunction::deliver` bounds its walk with a hop
// counter. The functions below are the straightforward versions — filter
// the whole rule list, sort it, scan the neighbour list; record every
// visited (switch, ingress) pair — kept here as the reference that
// `ForwardingTables::lookup` and the runs must agree with on every result
// and every error payload.

fn ref_lookup(
    topo: &Topology,
    tables: &ForwardingTables,
    scenario: &FailureScenario,
    switch: NodeId,
    dst: Address,
    from: NodeId,
) -> Option<NodeId> {
    let mut candidates: Vec<&Rule> = tables
        .rules(switch)
        .iter()
        .filter(|r| r.prefix.contains(dst) && r.from.is_none_or(|f| f == from))
        .collect();
    candidates.sort_by_key(|r| std::cmp::Reverse((r.priority, r.prefix.len(), r.from.is_some())));
    for rule in candidates {
        let next = rule.next;
        if scenario.is_failed(next) {
            continue;
        }
        if scenario.is_link_failed(Link::new(switch, next)) {
            continue;
        }
        if !topo.neighbors(switch).contains(&next) {
            continue;
        }
        return Some(next);
    }
    None
}

fn ref_deliver(
    topo: &Topology,
    tables: &ForwardingTables,
    scenario: &FailureScenario,
    from: NodeId,
    dst: Address,
) -> Result<Option<NodeId>, NetError> {
    let node = topo.node(from);
    if !node.kind.is_terminal() {
        return Err(NetError::WrongNodeKind { node: from, expected: "terminal" });
    }
    if scenario.is_failed(from) {
        return Ok(None);
    }
    for nb in topo.live_neighbors(from, scenario) {
        let n = topo.node(nb);
        if n.kind.is_terminal() && n.addresses.contains(&dst) {
            return Ok(Some(nb));
        }
    }
    let mut entry = None;
    for nb in topo.live_neighbors(from, scenario) {
        if matches!(topo.node(nb).kind, NodeKind::Switch) {
            entry = Some(nb);
            if ref_lookup(topo, tables, scenario, nb, dst, from).is_some() {
                break;
            }
        }
    }
    let Some(entry) = entry else {
        return Ok(None);
    };
    let mut prev = from;
    let mut cur = entry;
    let mut visited: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut path = vec![from, entry];
    loop {
        if !visited.insert((cur, prev)) {
            return Err(NetError::ForwardingLoop { nodes: path });
        }
        let Some(next) = ref_lookup(topo, tables, scenario, cur, dst, prev) else {
            return Ok(None);
        };
        if scenario.is_link_failed(Link::new(cur, next)) {
            return Ok(None);
        }
        path.push(next);
        if topo.node(next).kind.is_terminal() {
            return Ok(if scenario.is_failed(next) { None } else { Some(next) });
        }
        prev = cur;
        cur = next;
    }
}

fn ref_terminal_path(
    topo: &Topology,
    tables: &ForwardingTables,
    scenario: &FailureScenario,
    src: NodeId,
    dst: Address,
) -> Result<(Vec<NodeId>, Option<NodeId>), NetError> {
    let mut mboxes = Vec::new();
    let mut cur = src;
    let mut seen: HashSet<NodeId> = HashSet::new();
    loop {
        match ref_deliver(topo, tables, scenario, cur, dst)? {
            None => return Ok((mboxes, None)),
            Some(t) if topo.node(t).kind.is_middlebox() => {
                if !seen.insert(t) {
                    let mut nodes = mboxes.clone();
                    nodes.push(t);
                    return Err(NetError::ForwardingLoop { nodes });
                }
                mboxes.push(t);
                cur = t;
            }
            Some(t) => return Ok((mboxes, Some(t))),
        }
    }
}

/// The class-by-class sweep `delivery_intervals` replaces, over the
/// reference walker.
fn ref_intervals(
    topo: &Topology,
    tables: &ForwardingTables,
    scenario: &FailureScenario,
    classes: &HeaderClasses,
    emitter: NodeId,
) -> Result<Vec<(u32, u32, Option<NodeId>)>, NetError> {
    let mut intervals: Vec<(u32, u32, Option<NodeId>)> = Vec::new();
    for ci in 0..classes.num_classes() {
        let rep = classes.representative(ci);
        let result = ref_deliver(topo, tables, scenario, emitter, rep)?;
        let start = rep.0;
        let end = if ci + 1 < classes.num_classes() {
            classes.representative(ci + 1).0 - 1
        } else {
            u32::MAX
        };
        match intervals.last_mut() {
            Some(last) if last.2 == result && last.1.wrapping_add(1) == start => last.1 = end,
            _ => intervals.push((start, end, result)),
        }
    }
    Ok(intervals)
}

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

/// A random fabric: 2–5 switches, 2–4 hosts and up to two middleboxes with
/// one or two uplinks each (and the odd terminal-to-terminal link), random
/// switch-to-switch links.
fn random_topology(rng: &mut TestRng) -> Topology {
    let mut topo = Topology::new();
    let switches: Vec<NodeId> =
        (0..2 + rng.below(4)).map(|i| topo.add_switch(format!("s{i}"))).collect();
    for (i, &a) in switches.iter().enumerate() {
        for &b in &switches[i + 1..] {
            if rng.below(2) == 0 {
                topo.add_link(a, b);
            }
        }
    }
    let mut terminals = Vec::new();
    for i in 0..2 + rng.below(3) {
        terminals.push(topo.add_host(format!("h{i}"), Address(0x0A00_0000 + rng.below(12) as u32)));
    }
    for i in 0..rng.below(3) {
        let addrs = vec![Address(0x0A00_0100 + i as u32)];
        terminals.push(topo.add_middlebox(format!("m{i}"), "fw", addrs));
    }
    for &t in &terminals {
        for _ in 0..1 + rng.below(2) {
            topo.add_link(t, pick(rng, &switches));
        }
    }
    if rng.below(4) == 0 {
        let (a, b) = (pick(rng, &terminals), pick(rng, &terminals));
        if a != b {
            topo.add_link(a, b);
        }
    }
    topo
}

/// A rule whose prefix overlaps the host addresses at a random length, with
/// a priority drawn from a small pool (equal-rank ties are common), an
/// optional ingress qualifier, and a next hop that is usually a neighbour
/// and sometimes not adjacent at all.
fn random_rule(rng: &mut TestRng, topo: &Topology, switch: NodeId) -> Rule {
    let nodes: Vec<NodeId> = topo.node_ids().collect();
    let neighbors = topo.neighbors(switch);
    let near = |rng: &mut TestRng| {
        if neighbors.is_empty() || rng.below(5) == 0 {
            pick(rng, &nodes)
        } else {
            pick(rng, neighbors)
        }
    };
    let base = Address(0x0A00_0000 + rng.below(12) as u32 + 0x100 * rng.below(2) as u32);
    let len = if rng.below(3) == 0 { 32 } else { rng.below(33) as u32 };
    let next = near(rng);
    let rule = match rng.below(3) {
        0 => Rule::from_neighbor(Prefix::new(base, len), near(rng), next),
        _ => Rule::new(Prefix::new(base, len), next),
    };
    rule.with_priority(pick(rng, &[-1, 0, 0, 0, 1, 10]))
}

/// Every question the tables and the runs answer, asked of them and of the
/// reference.
fn assert_index_matches_reference(
    topo: &Topology,
    tables: &ForwardingTables,
    scenario: &FailureScenario,
) {
    let classes = HeaderClasses::from_network(topo, tables);
    let tf = TransferFunction::new(topo, tables, scenario);
    let on_runs = tf.with_classes(&classes);
    for sw in topo.switches() {
        for dst in classes.representatives() {
            for from in topo.node_ids() {
                let reference = ref_lookup(topo, tables, scenario, sw, dst, from);
                assert_eq!(
                    tables.lookup(topo, scenario, sw, dst, from),
                    reference,
                    "lookup at {sw:?} for {dst:?} from {from:?} under {scenario:?}"
                );
                // The runs name the best adjacent rule whatever the
                // scenario; a dead next hop reads the fallback runs.
                assert_eq!(
                    on_runs.next_hop(sw, dst, from),
                    reference,
                    "runs at {sw:?} for {dst:?} from {from:?} under {scenario:?}"
                );
            }
        }
    }
    assert_eq!(classes.compiled_switches(), topo.switches().collect::<Vec<_>>());
    for t in topo.terminals() {
        for dst in classes.representatives() {
            let delivered = ref_deliver(topo, tables, scenario, t, dst);
            assert_eq!(
                tf.deliver(t, dst),
                delivered,
                "deliver {t:?} -> {dst:?} under {scenario:?}"
            );
            assert_eq!(
                on_runs.deliver(t, dst),
                delivered,
                "deliver on runs {t:?} -> {dst:?} under {scenario:?}"
            );
            let path = ref_terminal_path(topo, tables, scenario, t, dst);
            assert_eq!(
                tf.terminal_path(t, dst),
                path,
                "terminal_path {t:?} -> {dst:?} under {scenario:?}"
            );
            assert_eq!(
                on_runs.terminal_path(t, dst),
                path,
                "terminal_path on runs {t:?} -> {dst:?} under {scenario:?}"
            );
        }
        let intervals = classes.delivery_intervals(topo, tables, scenario, t);
        let reference = ref_intervals(topo, tables, scenario, &classes, t);
        assert_eq!(
            intervals.as_deref(),
            reference.as_deref(),
            "delivery_intervals of {t:?} under {scenario:?}"
        );
        // The second ask is a memo hit: the very same list, still equal
        // to the reference.
        let again = classes.delivery_intervals(topo, tables, scenario, t);
        if let (Ok(first), Ok(second)) = (&intervals, &again) {
            assert!(Arc::ptr_eq(first, second), "delivery_intervals of {t:?} was swept twice");
        }
        assert_eq!(again.as_deref(), reference.as_deref(), "memoised intervals of {t:?}");
        // A terminal's own address is a class of its own: the entry step
        // hands a packet for it straight to a linked owner, whatever the
        // tables say about its neighbours.
        let Ok(intervals) = intervals else { continue };
        for a in topo.terminals().flat_map(|o| topo.node(o).addresses.clone()) {
            let &(_, _, target) = intervals
                .iter()
                .find(|&&(first, last, _)| first <= a.0 && a.0 <= last)
                .expect("intervals cover the address space");
            assert_eq!(
                tf.deliver(t, a),
                Ok(target),
                "delivery_intervals of {t:?} at owned address {a:?} under {scenario:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `lookup`, and `deliver` / `terminal_path` / `delivery_intervals` with
    /// and without classes, agree with the reference walker — results and
    /// `ForwardingLoop` payloads — on random fabrics with ties,
    /// ingress-qualified rules, overlapping prefixes, dead and non-adjacent
    /// next hops, failed nodes and links and deliberate loops; and again after
    /// a rule is added and after one is removed.
    #[test]
    fn index_matches_reference_walker(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let topo = random_topology(&mut rng);
        let switches: Vec<NodeId> = topo.switches().collect();
        let mut tables = if rng.below(2) == 0 {
            let mut rc = RoutingConfig::new();
            rc.host_routes(&topo);
            rc.build(&topo, &FailureScenario::none())
        } else {
            ForwardingTables::new()
        };
        for &sw in &switches {
            for _ in 0..rng.below(9) {
                tables.add_rule(sw, random_rule(&mut rng, &topo, sw));
            }
        }
        // A deliberate two-switch loop on a linked pair, above everything.
        if rng.below(3) == 0 {
            let a = pick(&mut rng, &switches);
            if let Some(&b) = topo.neighbors(a).iter().find(|&&n| switches.contains(&n)) {
                tables.add_rule(a, Rule::new(Prefix::default_route(), b).with_priority(20));
                tables.add_rule(b, Rule::new(Prefix::default_route(), a).with_priority(20));
            }
        }

        let nodes: Vec<NodeId> = topo.node_ids().collect();
        let mut link_down = FailureScenario::none();
        link_down.failed_links.insert(pick(&mut rng, topo.links()));
        let scenarios = [
            FailureScenario::none(),
            FailureScenario::nodes([pick(&mut rng, &nodes)]),
            link_down,
        ];
        for scenario in &scenarios {
            assert_index_matches_reference(&topo, &tables, scenario);
        }

        // Mutate tables the sweep above has compiled runs for.
        let sw = pick(&mut rng, &switches);
        let rule = random_rule(&mut rng, &topo, sw).with_priority(30);
        tables.add_rule(sw, rule);
        for scenario in &scenarios {
            assert_index_matches_reference(&topo, &tables, scenario);
        }
        let sw = pick(&mut rng, &switches);
        let doomed = tables.rules(sw).first().copied();
        let removed = tables.remove_rules(sw, |r| Some(*r) == doomed);
        prop_assert_eq!(removed > 0, doomed.is_some());
        for scenario in &scenarios {
            assert_index_matches_reference(&topo, &tables, scenario);
        }
    }
}

/// A mutation of a table is visible to the next lookup on it.
#[test]
fn lookup_sees_rules_added_and_removed_after_it() {
    let mut topo = Topology::new();
    let src = topo.add_host("src", Address(1));
    let a = topo.add_host("a", Address(2));
    let b = topo.add_host("b", Address(3));
    let sw = topo.add_switch("sw");
    for n in [src, a, b] {
        topo.add_link(n, sw);
    }
    let none = FailureScenario::none();
    let dst = Address(9);
    let mut tables = ForwardingTables::new();
    assert_eq!(tables.lookup(&topo, &none, sw, dst, src), None);
    tables.add_rule(sw, Rule::new(Prefix::default_route(), a));
    assert_eq!(tables.lookup(&topo, &none, sw, dst, src), Some(a));
    tables.add_rule(sw, Rule::new(Prefix::host(dst), b));
    assert_eq!(tables.lookup(&topo, &none, sw, dst, src), Some(b), "host route added later wins");
    assert_eq!(tables.remove_rules(sw, |r| r.next == b), 1);
    assert_eq!(tables.lookup(&topo, &none, sw, dst, src), Some(a), "and is gone once removed");
}

/// The routing protocol as it was first written: one multi-source BFS per
/// destination, outwards from the terminal's live switch neighbours, each
/// switch learning its next hop toward the terminal.
fn ref_autoroute(
    topo: &Topology,
    scenario: &FailureScenario,
    destinations: &[(Prefix, NodeId)],
) -> ForwardingTables {
    let is_switch = |n: NodeId| matches!(topo.node(n).kind, NodeKind::Switch);
    let mut tables = ForwardingTables::new();
    for &(prefix, terminal) in destinations {
        if scenario.is_failed(terminal) {
            continue;
        }
        let mut next_hop: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for sw in topo.live_neighbors(terminal, scenario) {
            if is_switch(sw) && !next_hop.contains_key(&sw) {
                next_hop.insert(sw, terminal);
                queue.push_back(sw);
            }
        }
        while let Some(sw) = queue.pop_front() {
            for nb in topo.live_neighbors(sw, scenario) {
                if is_switch(nb) && !next_hop.contains_key(&nb) {
                    next_hop.insert(nb, sw);
                    queue.push_back(nb);
                }
            }
        }
        for (sw, nh) in next_hop {
            tables.add_rule(sw, Rule::new(prefix, nh));
        }
    }
    tables
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `RoutingConfig::build` shares one BFS tree among the destinations
    /// behind one attachment; every switch's rule list must still equal,
    /// in order, the per-destination BFS's — host routes plus middlebox
    /// destinations, with no failure, a failed node and a failed link.
    #[test]
    fn autoroute_matches_per_destination_bfs(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let topo = random_topology(&mut rng);
        let mut rc = RoutingConfig::new();
        rc.host_routes(&topo);
        for m in topo.middleboxes() {
            if rng.below(2) == 0 {
                rc.destination(Prefix::host(topo.node(m).addresses[0]), m);
            }
        }
        let nodes: Vec<NodeId> = topo.node_ids().collect();
        let mut link_down = FailureScenario::none();
        link_down.failed_links.insert(pick(&mut rng, topo.links()));
        for scenario in [
            FailureScenario::none(),
            FailureScenario::nodes([pick(&mut rng, &nodes)]),
            link_down,
        ] {
            let built = rc.build(&topo, &scenario);
            let reference = ref_autoroute(&topo, &scenario, &rc.destinations);
            prop_assert_eq!(built.num_rules(), reference.num_rules());
            for n in topo.node_ids() {
                prop_assert_eq!(built.rules(n), reference.rules(n), "rules at {:?} under {:?}", n, scenario);
            }
        }
    }
}

/// The label `intervals` gives `a`, if any.
fn label_at(intervals: &[(u32, u32, u8)], a: u32) -> Option<u8> {
    intervals.iter().find(|&&(first, last, _)| first <= a && a <= last).map(|i| i.2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The block-wise XOR image of an interval list labels `a ^ mask`
    /// exactly as the list labels `a`, and comes back as maximal runs.
    /// Cuts are drawn near a few bases so that runs of every size occur,
    /// from single addresses to most of the space; probes sit on and
    /// beside every cut, and at random.
    #[test]
    fn xor_image_agrees_with_pointwise_translation(
        seed in any::<u64>(),
        mask in any::<u32>(),
        probes in prop::collection::vec(any::<u32>(), 8),
    ) {
        let mut rng = TestRng::new(seed);
        let bases = [0u32, 0x0A01_0000, 0x8000_0000, u32::MAX - 300];
        let mut cuts: Vec<u32> = Vec::new();
        for _ in 0..1 + rng.below(8) {
            let base = pick(&mut rng, &bases);
            let spread = 1u64 << rng.below(32);
            cuts.push(base.wrapping_add(rng.below(spread) as u32));
        }
        cuts.sort_unstable();
        cuts.dedup();
        // Runs between consecutive cuts, each labelled 0..3 or dropped
        // (a gap); adjacent runs may share a label.
        let mut intervals = Vec::new();
        let mut starts = cuts.clone();
        if starts[0] != 0 {
            starts.insert(0, 0);
        }
        for (i, &first) in starts.iter().enumerate() {
            let last = starts.get(i + 1).map_or(u32::MAX, |&next| next - 1);
            if rng.below(5) > 0 {
                intervals.push((first, last, rng.below(3) as u8));
            }
        }
        let image = translated_intervals(&intervals, mask);
        for w in image.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "runs are sorted and disjoint: {:?}", w);
            prop_assert!(w[0].1 + 1 < w[1].0 || w[0].2 != w[1].2, "runs are maximal: {:?}", w);
        }
        let mut points = probes;
        for &c in &starts {
            points.extend([c, c.wrapping_sub(1), c.wrapping_add(1)]);
        }
        for a in points {
            prop_assert_eq!(label_at(&image, a ^ mask), label_at(&intervals, a), "address {:#x}", a);
        }
        // Translating back restores the list's own maximal runs.
        prop_assert_eq!(translated_intervals(&image, mask), translated_intervals(&intervals, 0));
    }
}

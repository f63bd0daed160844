//! Forwarding tables and route computation.
//!
//! Switch rules use longest-prefix match on the destination address,
//! optionally qualified by the previous hop (*ingress-qualified* rules are
//! how operators pipeline traffic through middlebox chains: "traffic
//! arriving from the firewall goes to the load balancer"). Rules carry a
//! priority so that backup next-hops can sit below primaries; a rule whose
//! next hop is dead under the current failure scenario is skipped, which
//! is exactly the paper's "list of backup paths taken in response to
//! failures" (§2.3).

use crate::addr::{Address, Prefix};
use crate::topology::{FailureScenario, Link, NodeId, Topology};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A forwarding rule on a switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Destination prefix this rule matches.
    pub prefix: Prefix,
    /// If set, the rule only matches packets arriving from this neighbour.
    pub from: Option<NodeId>,
    /// Next hop (switch or terminal).
    pub next: NodeId,
    /// Higher priorities win. Among equal priorities, longer prefixes win,
    /// then ingress-qualified rules beat unqualified ones.
    pub priority: i32,
}

impl Rule {
    pub fn new(prefix: Prefix, next: NodeId) -> Rule {
        Rule { prefix, from: None, next, priority: 0 }
    }

    pub fn from_neighbor(prefix: Prefix, from: NodeId, next: NodeId) -> Rule {
        Rule { prefix, from: Some(from), next, priority: 0 }
    }

    pub fn with_priority(mut self, p: i32) -> Rule {
        self.priority = p;
        self
    }

    fn matches(&self, dst: Address, from: NodeId) -> bool {
        self.prefix.contains(dst) && self.from.is_none_or(|f| f == from)
    }

    /// Sort key: better rules first.
    pub(crate) fn rank(&self) -> (i32, u32, bool) {
        (self.priority, self.prefix.len(), self.from.is_some())
    }
}

/// One switch's rules in table order, plus the lookup index derived from
/// them on first use.
#[derive(Clone, Default, Debug)]
struct Table {
    rules: Vec<Rule>,
    index: OnceLock<LpmIndex>,
}

/// A switch's rules arranged so that a lookup visits only the rules that
/// can match its destination, best first. It holds positions, not rules:
/// every rule stays in [`Table::rules`] once.
#[derive(Clone, Debug)]
struct LpmIndex {
    /// Positions in [`Table::rules`] best-first: a stable sort by
    /// descending [`Rule::rank`], so equal-rank rules keep table order.
    ordered: Vec<u32>,
    /// Host routes (/32 — the bulk of every generated table) as (address,
    /// position in `ordered`), sorted: the host routes for one destination
    /// are one contiguous run, best first.
    hosts: Vec<(u32, u32)>,
    /// Positions in `ordered` of the shorter prefixes, best first.
    shorter: Vec<u32>,
}

impl LpmIndex {
    fn build(rules: &[Rule]) -> LpmIndex {
        let ordered = ranked(rules);
        let mut hosts = Vec::new();
        let mut shorter = Vec::new();
        for (at, &pos) in ordered.iter().enumerate() {
            let rule = &rules[pos as usize];
            if rule.prefix.len() == 32 {
                hosts.push((rule.prefix.addr().0, at as u32));
            } else {
                shorter.push(at as u32);
            }
        }
        hosts.sort_unstable();
        LpmIndex { ordered, hosts, shorter }
    }
}

/// Positions of `rules` best-first: a stable sort by descending
/// [`Rule::rank`], the order in which a lookup tries them.
pub(crate) fn ranked(rules: &[Rule]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..rules.len() as u32).collect();
    order.sort_by_key(|&at| std::cmp::Reverse(rules[at as usize].rank()));
    order
}

/// Per-switch forwarding state for one routing configuration.
///
/// Each switch's table carries a lookup index that is built lazily by the
/// first [`lookup`](ForwardingTables::lookup) and dropped by every
/// mutation of that table, so it can never be stale: the tables are only
/// reachable through `add_rule` / `remove_rules`.
#[derive(Clone, Default, Debug)]
pub struct ForwardingTables {
    /// Indexed by `NodeId`; nodes without rules have an empty table.
    tables: Vec<Table>,
}

impl ForwardingTables {
    pub fn new() -> ForwardingTables {
        ForwardingTables::default()
    }

    pub fn add_rule(&mut self, switch: NodeId, rule: Rule) {
        if switch.index() >= self.tables.len() {
            self.tables.resize_with(switch.index() + 1, Table::default);
        }
        let table = &mut self.tables[switch.index()];
        table.rules.push(rule);
        table.index.take();
    }

    pub fn rules(&self, switch: NodeId) -> &[Rule] {
        self.tables.get(switch.index()).map_or(&[], |t| t.rules.as_slice())
    }

    pub fn num_rules(&self) -> usize {
        self.tables.iter().map(|t| t.rules.len()).sum()
    }

    /// Removes rules matching a predicate; returns how many were removed.
    /// (Misconfiguration injectors delete rules this way.)
    pub fn remove_rules<F>(&mut self, switch: NodeId, mut pred: F) -> usize
    where
        F: FnMut(&Rule) -> bool,
    {
        let Some(table) = self.tables.get_mut(switch.index()) else {
            return 0;
        };
        let before = table.rules.len();
        table.rules.retain(|r| !pred(r));
        table.index.take();
        before - table.rules.len()
    }

    /// All prefixes referenced anywhere (for header-class computation).
    pub fn prefixes(&self) -> Vec<Prefix> {
        let mut out: Vec<Prefix> =
            self.tables.iter().flat_map(|t| &t.rules).map(|r| r.prefix).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Best live next hop at `switch` for a packet to `dst` arriving from
    /// `from`, skipping rules whose next hop is dead under `scenario`.
    ///
    /// Walks the host routes for `dst` and the shorter prefixes merged in
    /// rank order and stops at the first live, adjacent match; nothing is
    /// allocated.
    pub fn lookup(
        &self,
        topo: &Topology,
        scenario: &FailureScenario,
        switch: NodeId,
        dst: Address,
        from: NodeId,
    ) -> Option<NodeId> {
        let table = self.tables.get(switch.index())?;
        let index = table.index.get_or_init(|| LpmIndex::build(&table.rules));
        // The host routes for `dst` start here and end where the address
        // changes.
        let hosts = &index.hosts[index.hosts.partition_point(|&(a, _)| a < dst.0)..];
        let (mut h, mut s) = (0, 0);
        loop {
            let host = hosts.get(h).filter(|&&(a, _)| a == dst.0);
            let at = match (host, index.shorter.get(s)) {
                (Some(&(_, host)), Some(&short)) if host < short => {
                    h += 1;
                    host
                }
                (Some(&(_, host)), None) => {
                    h += 1;
                    host
                }
                (_, Some(&short)) => {
                    s += 1;
                    short
                }
                (None, None) => return None,
            };
            let rule = &table.rules[index.ordered[at as usize] as usize];
            // A dead next hop fails its link too; the next hop must also
            // actually be adjacent.
            if rule.matches(dst, from)
                && !scenario.is_link_failed(Link::new(switch, rule.next))
                && topo.is_adjacent(switch, rule.next)
            {
                return Some(rule.next);
            }
        }
    }
}

/// Computes shortest-path forwarding tables toward a set of destination
/// prefixes (each owned by a terminal), for a given failure scenario.
///
/// This plays the role of the network's routing protocol: the paper
/// assumes "a function mapping failure conditions to transfer functions";
/// re-running this computation per scenario is that function. Explicit
/// rules (e.g. middlebox pipelining) are layered on top with higher
/// priority by the scenario builders.
#[derive(Clone, Debug, Default)]
pub struct RoutingConfig {
    /// Destination prefixes and the terminal that owns each.
    pub destinations: Vec<(Prefix, NodeId)>,
}

impl RoutingConfig {
    pub fn new() -> RoutingConfig {
        RoutingConfig::default()
    }

    pub fn destination(&mut self, prefix: Prefix, terminal: NodeId) -> &mut Self {
        self.destinations.push((prefix, terminal));
        self
    }

    /// For every host in the topology, adds a host route to it.
    pub fn host_routes(&mut self, topo: &Topology) -> &mut Self {
        for h in topo.hosts() {
            for &a in &topo.node(h).addresses {
                self.destinations.push((Prefix::host(a), h));
            }
        }
        self
    }

    /// Builds shortest-path tables (BFS over live switches) toward every
    /// destination. Rules get priority 0; callers can overlay pipeline
    /// rules with positive priorities and backups with negative ones.
    ///
    /// The BFS tree toward a terminal depends only on the live switches it
    /// attaches to, in link order, so one tree serves every destination
    /// behind the same attachment. Each switch's rules come in destination
    /// order.
    pub fn build(&self, topo: &Topology, scenario: &FailureScenario) -> ForwardingTables {
        let mut trees: HashMap<Vec<NodeId>, Vec<(NodeId, Option<NodeId>)>> = HashMap::new();
        let mut tables = ForwardingTables::new();
        for &(prefix, terminal) in &self.destinations {
            if scenario.is_failed(terminal) {
                continue;
            }
            let attachment: Vec<NodeId> =
                topo.live_neighbors(terminal, scenario).filter(|&n| is_switch(topo, n)).collect();
            let tree = trees
                .entry(attachment)
                .or_insert_with_key(|attachment| shortest_path_tree(topo, scenario, attachment));
            for &(sw, toward) in tree.iter() {
                tables.add_rule(sw, Rule::new(prefix, toward.unwrap_or(terminal)));
            }
        }
        tables
    }
}

fn is_switch(topo: &Topology, n: NodeId) -> bool {
    matches!(topo.node(n).kind, crate::topology::NodeKind::Switch)
}

/// Multi-source BFS outwards from the switches a terminal attaches to,
/// across live switches: every switch reached, in BFS order, with its
/// next hop toward the terminal — `None` for an attachment switch, which
/// delivers to the terminal itself.
fn shortest_path_tree(
    topo: &Topology,
    scenario: &FailureScenario,
    attachment: &[NodeId],
) -> Vec<(NodeId, Option<NodeId>)> {
    let mut seen = vec![false; topo.num_nodes()];
    let mut tree: Vec<(NodeId, Option<NodeId>)> = Vec::new();
    for &sw in attachment {
        if !std::mem::replace(&mut seen[sw.index()], true) {
            tree.push((sw, None));
        }
    }
    let mut head = 0;
    while let Some(&(sw, _)) = tree.get(head) {
        head += 1;
        for nb in topo.live_neighbors(sw, scenario) {
            if is_switch(topo, nb) && !std::mem::replace(&mut seen[nb.index()], true) {
                tree.push((nb, Some(sw)));
            }
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn addr(s: &str) -> Address {
        s.parse().unwrap()
    }

    fn px(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// h1 - s1 - s2 - h2, with a backup path s1 - s3 - s2.
    fn diamond() -> (Topology, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", addr("10.0.0.1"));
        let h2 = t.add_host("h2", addr("10.0.0.2"));
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let s3 = t.add_switch("s3");
        t.add_link(h1, s1);
        t.add_link(s1, s2);
        t.add_link(s1, s3);
        t.add_link(s3, s2);
        t.add_link(s2, h2);
        (t, h1, h2, s1, s2, s3)
    }

    #[test]
    fn longest_prefix_wins() {
        let (t, _, h2, s1, s2, s3) = diamond();
        let mut ft = ForwardingTables::new();
        ft.add_rule(s1, Rule::new(px("10.0.0.0/8"), s3));
        ft.add_rule(s1, Rule::new(px("10.0.0.2/32"), s2));
        let got = ft.lookup(&t, &FailureScenario::none(), s1, addr("10.0.0.2"), h2);
        assert_eq!(got, Some(s2), "host route beats /8");
        let got = ft.lookup(&t, &FailureScenario::none(), s1, addr("10.0.0.9"), h2);
        assert_eq!(got, Some(s3), "other traffic uses the /8");
    }

    #[test]
    fn priority_beats_prefix_length() {
        let (t, h1, _, s1, s2, s3) = diamond();
        let mut ft = ForwardingTables::new();
        ft.add_rule(s1, Rule::new(px("10.0.0.2/32"), s2));
        ft.add_rule(s1, Rule::new(px("10.0.0.0/8"), s3).with_priority(10));
        let got = ft.lookup(&t, &FailureScenario::none(), s1, addr("10.0.0.2"), h1);
        assert_eq!(got, Some(s3));
    }

    #[test]
    fn ingress_qualified_rules() {
        let (t, h1, h2, s1, s2, s3) = diamond();
        let mut ft = ForwardingTables::new();
        ft.add_rule(s1, Rule::new(px("0.0.0.0/0"), s2));
        ft.add_rule(s1, Rule::from_neighbor(px("0.0.0.0/0"), h1, s3));
        // From h1 the qualified rule wins; from anywhere else the default.
        assert_eq!(ft.lookup(&t, &FailureScenario::none(), s1, addr("10.0.0.2"), h1), Some(s3));
        assert_eq!(ft.lookup(&t, &FailureScenario::none(), s1, addr("10.0.0.2"), h2), Some(s2));
    }

    #[test]
    fn failed_next_hop_falls_back_to_backup() {
        let (t, h1, _, s1, s2, s3) = diamond();
        let mut ft = ForwardingTables::new();
        ft.add_rule(s1, Rule::new(px("0.0.0.0/0"), s2).with_priority(1));
        ft.add_rule(s1, Rule::new(px("0.0.0.0/0"), s3).with_priority(-1));
        let ok = ft.lookup(&t, &FailureScenario::none(), s1, addr("10.0.0.2"), h1);
        assert_eq!(ok, Some(s2));
        let failed = FailureScenario::nodes([s2]);
        let fallback = ft.lookup(&t, &failed, s1, addr("10.0.0.2"), h1);
        assert_eq!(fallback, Some(s3), "backup rule takes over on failure");
    }

    #[test]
    fn no_live_rule_means_drop() {
        let (t, h1, _, s1, s2, _) = diamond();
        let mut ft = ForwardingTables::new();
        ft.add_rule(s1, Rule::new(px("0.0.0.0/0"), s2));
        let failed = FailureScenario::nodes([s2]);
        assert_eq!(ft.lookup(&t, &failed, s1, addr("10.0.0.2"), h1), None);
    }

    #[test]
    fn shortest_path_routing_reaches_hosts() {
        let (t, h1, h2, s1, s2, _) = diamond();
        let mut rc = RoutingConfig::new();
        rc.host_routes(&t);
        let ft = rc.build(&t, &FailureScenario::none());
        // s1 forwards traffic for h2 toward s2 (shortest path), not s3.
        assert_eq!(ft.lookup(&t, &FailureScenario::none(), s1, addr("10.0.0.2"), h1), Some(s2));
        // s2 delivers directly.
        assert_eq!(ft.lookup(&t, &FailureScenario::none(), s2, addr("10.0.0.2"), s1), Some(h2));
        // And the reverse direction works too.
        assert_eq!(ft.lookup(&t, &FailureScenario::none(), s2, addr("10.0.0.1"), h2), Some(s1));
    }

    #[test]
    fn rerouting_after_switch_failure() {
        let (t, h1, _, s1, s2, s3) = diamond();
        let failed = FailureScenario::nodes([s2]);
        let mut rc = RoutingConfig::new();
        rc.host_routes(&t);
        let ft = rc.build(&t, &failed);
        // With s2 dead, h2 is unreachable (only s2 links to it): s1 has no
        // rule for it, or the rule's next hop is dead.
        assert_eq!(ft.lookup(&t, &failed, s1, addr("10.0.0.2"), h1), None);
        // But if s3 also linked to h2 routing would recover — extend:
        let mut t2 = t.clone();
        let h2b = t2.by_name("h2").unwrap();
        t2.add_link(s3, h2b);
        let ft2 = rc.build(&t2, &failed);
        assert_eq!(ft2.lookup(&t2, &failed, s1, addr("10.0.0.2"), h1), Some(s3));
    }

    #[test]
    fn remove_rules_counts() {
        let (_, _, _, s1, s2, _) = diamond();
        let mut ft = ForwardingTables::new();
        ft.add_rule(s1, Rule::new(px("10.0.0.0/8"), s2));
        ft.add_rule(s1, Rule::new(px("10.1.0.0/16"), s2));
        assert_eq!(ft.remove_rules(s1, |r| r.prefix.len() == 16), 1);
        assert_eq!(ft.num_rules(), 1);
    }
}

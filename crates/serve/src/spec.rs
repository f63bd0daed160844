//! The symbolic `.vmn` network description.
//!
//! A *serving* verifier needs the description to stay symbolic so deltas
//! can edit it and re-materialise: nodes are stored by name in insertion
//! order (so purely additive deltas keep existing node ids stable),
//! routes and models keep their textual arguments, and
//! [`NetSpec::materialize`] rebuilds the concrete [`Network`] — plus the
//! name→id map and resolved invariants — for the current epoch. The
//! one-shot CLI parses and materialises exactly once.
//!
//! A materialisation has two halves. The *structural* half,
//! `NetSpec::structure`, builds the topology, the name map and the
//! forwarding tables (`autoroute` runs here). The *behavioural* half,
//! `NetSpec::behaviour`, resolves the models, scenarios, invariants and
//! pipelines over a structure. `materialize` runs both; the daemon runs
//! the behavioural half alone after a delta that left the structure fixed,
//! over the previous epoch's shared topology and tables.
//!
//! The grammar:
//!
//! ```text
//! # comments start with '#'
//! host     outside 8.8.8.8
//! host     inside  10.0.0.5
//! switch   sw
//! firewall fw allow 10.0.0.0/8 -> 0.0.0.0/0
//! nat      n1 internal 10.0.0.0/8 external 1.2.3.4
//! lb       l1 vip 10.0.0.100 backends 10.0.0.1,10.0.0.2
//! cache    c1 servers 10.1.0.0/16 deny 10.3.0.0/16 -> 10.1.0.1/32
//! idps     ips1
//! link     outside sw
//! link     inside  sw
//! link     fw      sw
//! route    sw 10.0.0.5/32 inside                 # dst-prefix next-hop
//! steer    sw from outside 0.0.0.0/0 fw prio 10  # ingress-qualified
//! autoroute                                       # shortest-path host routes
//! partition auto                                  # modular mode (daemon)
//! fail     fw                                     # a failure scenario
//! verify   flow-isolation outside -> inside
//! verify   node-isolation outside -> inside
//! verify   data-isolation inside -> outside
//! verify   traversal outside -> inside via fw
//! verify   pipeline outside -> inside via firewall
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use vmn::{Invariant, Network};
use vmn_mbox::models;
use vmn_net::{
    Address, FailureScenario, ForwardingTables, NodeId, Prefix, RoutingConfig, Rule, Topology,
};

use crate::delta::{normalize_spec, scenario_key};

/// Spec error with source-line information (line 0 for errors raised by
/// deltas, which have no source line).
#[derive(Debug, Clone)]
pub struct SpecError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for SpecError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError { line, message: message.into() }
}

/// One node of the symbolic description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeSpec {
    Host {
        name: String,
        addr: String,
    },
    Switch {
        name: String,
    },
    /// `kind` is the middlebox keyword (`firewall`, `nat`, …); `args`
    /// the raw configuration tokens after the name.
    Mbox {
        name: String,
        kind: String,
        args: Vec<String>,
    },
}

impl NodeSpec {
    pub fn name(&self) -> &str {
        match self {
            NodeSpec::Host { name, .. }
            | NodeSpec::Switch { name }
            | NodeSpec::Mbox { name, .. } => name,
        }
    }
}

/// `route <switch> <prefix> <next-hop> [prio N]`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteSpec {
    pub switch: String,
    pub prefix: String,
    pub next: String,
    pub prio: i32,
}

/// `steer <switch> from <node> <prefix> <next-hop> [prio N]`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SteerSpec {
    pub switch: String,
    pub from: String,
    pub prefix: String,
    pub next: String,
    pub prio: i32,
}

/// The symbolic network description: everything needed to rebuild the
/// concrete network, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct NetSpec {
    pub autoroute: bool,
    /// `partition auto`: run the verifier in modular mode, with the
    /// auto-partitioner cutting the estate on low-connectivity
    /// boundaries and boundary contracts answering cross-module pairs.
    pub partition: bool,
    pub(crate) nodes: Vec<(usize, NodeSpec)>,
    pub(crate) links: Vec<(usize, String, String)>,
    pub(crate) routes: Vec<(usize, RouteSpec)>,
    pub(crate) steers: Vec<(usize, SteerSpec)>,
    /// Failure scenarios, as lists of failed node names.
    pub(crate) fails: Vec<(usize, Vec<String>)>,
    /// `verify` lines (invariants and pipeline invariants), normalised
    /// to single-space token separation so textual retire-by-spec
    /// matching is reliable.
    pub(crate) verifies: Vec<(usize, String)>,
}

/// The structural half of an epoch: what [`NetSpec::structure`] builds
/// and a delta that touches no topology, link or route leaves as it was.
/// The topology and the tables are shared [`Arc`]s, so an epoch built over
/// another's structure holds the same ones.
pub(crate) struct Structure {
    pub(crate) topo: Arc<Topology>,
    pub(crate) tables: Arc<ForwardingTables>,
    pub(crate) names: HashMap<String, NodeId>,
}

/// A materialised epoch: the concrete network plus the name bindings and
/// resolved invariants of the current spec.
pub struct Materialized {
    pub net: Network,
    pub names: HashMap<String, NodeId>,
    /// Reachability invariants: (normalised spec text, resolved).
    pub invariants: Vec<(String, Invariant)>,
    /// Pipeline invariants: (normalised spec text, spec, src, dst).
    pub pipelines: Vec<(String, vmn_net::PipelineSpec, NodeId, NodeId)>,
}

impl NetSpec {
    /// Parses a `.vmn` document into the symbolic form. Syntax (keyword
    /// shapes, address/prefix formats) is checked here; name resolution
    /// happens at [`NetSpec::materialize`] — but note the materialise
    /// errors keep the offending source line.
    pub fn parse(text: &str) -> Result<NetSpec, SpecError> {
        let mut spec = NetSpec::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_whitespace();
            let keyword = tok.next().expect("non-empty line");
            let rest: Vec<String> = tok.map(str::to_string).collect();
            spec.add_line(lineno, keyword, rest)?;
        }
        Ok(spec)
    }

    fn add_line(
        &mut self,
        lineno: usize,
        keyword: &str,
        rest: Vec<String>,
    ) -> Result<(), SpecError> {
        match keyword {
            "host" => {
                let [name, addr] = two(lineno, &rest, "host <name> <address>")?;
                let _: Address =
                    addr.parse().map_err(|e| err(lineno, format!("bad address: {e}")))?;
                self.nodes.push((lineno, NodeSpec::Host { name, addr }));
            }
            "switch" => {
                let name = one(lineno, &rest, "switch <name>")?;
                self.nodes.push((lineno, NodeSpec::Switch { name }));
            }
            "firewall" | "acl-firewall" | "nat" | "cache" | "idps" | "ids" | "scrubber"
            | "gateway" | "wan-optimizer" | "lb" => {
                if rest.is_empty() {
                    return Err(err(lineno, format!("{keyword} needs a name")));
                }
                let name = rest[0].clone();
                let args = rest[1..].to_vec();
                // Syntax-check the model arguments eagerly so the error
                // carries this line, not a later materialise.
                build_model(lineno, keyword, &name, &args)?;
                owned_addresses(keyword, &args).map_err(|m| err(lineno, m))?;
                self.nodes.push((lineno, NodeSpec::Mbox { name, kind: keyword.to_string(), args }));
            }
            "link" => {
                let [a, b] = two(lineno, &rest, "link <a> <b>")?;
                self.add_link(lineno, a, b)?;
            }
            "route" => {
                // route <switch> <prefix> <next> [prio N]
                if rest.len() < 3 {
                    return Err(err(lineno, "route <switch> <prefix> <next-hop> [prio N]"));
                }
                let _: Prefix =
                    rest[1].parse().map_err(|e| err(lineno, format!("bad prefix: {e}")))?;
                let prio = parse_prio(lineno, &rest[3..])?;
                self.routes.push((
                    lineno,
                    RouteSpec {
                        switch: rest[0].clone(),
                        prefix: rest[1].clone(),
                        next: rest[2].clone(),
                        prio,
                    },
                ));
            }
            "steer" => {
                // steer <switch> from <node> <prefix> <next> [prio N]
                if rest.len() < 5 || rest[1] != "from" {
                    return Err(err(
                        lineno,
                        "steer <switch> from <node> <prefix> <next-hop> [prio N]",
                    ));
                }
                let _: Prefix =
                    rest[3].parse().map_err(|e| err(lineno, format!("bad prefix: {e}")))?;
                let prio = parse_prio(lineno, &rest[5..])?;
                self.steers.push((
                    lineno,
                    SteerSpec {
                        switch: rest[0].clone(),
                        from: rest[2].clone(),
                        prefix: rest[3].clone(),
                        next: rest[4].clone(),
                        prio,
                    },
                ));
            }
            "autoroute" => self.autoroute = true,
            "partition" => {
                let mode = one(lineno, &rest, "partition auto")?;
                if mode != "auto" {
                    return Err(err(lineno, format!("unknown partition mode {mode:?}")));
                }
                self.partition = true;
            }
            "fail" => self.add_fail(lineno, rest)?,
            "verify" => self.add_verify(lineno, &rest.join(" "))?,
            other => return Err(err(lineno, format!("unknown keyword {other:?}"))),
        }
        Ok(())
    }

    /// Registers a link between two distinct nodes.
    pub(crate) fn add_link(&mut self, line: usize, a: String, b: String) -> Result<(), SpecError> {
        if a == b {
            return Err(err(line, format!("link {a} {b} joins a node to itself")));
        }
        self.links.push((line, a, b));
        Ok(())
    }

    /// Registers a failure scenario under a key of its own. The empty key
    /// is the no-failure column, registered from the start.
    pub(crate) fn add_fail(&mut self, line: usize, fail: Vec<String>) -> Result<(), SpecError> {
        let key = scenario_key(&fail);
        if key.is_empty() || self.fails.iter().any(|(_, f)| scenario_key(f) == key) {
            return Err(err(line, format!("scenario {key:?} already registered")));
        }
        self.fails.push((line, fail));
        Ok(())
    }

    /// Registers a `verify` spec, whitespace-normalised, once.
    pub(crate) fn add_verify(&mut self, line: usize, spec: &str) -> Result<(), SpecError> {
        let norm = normalize_spec(spec);
        if self.verifies.iter().any(|(_, s)| *s == norm) {
            return Err(err(line, format!("invariant {norm:?} already registered")));
        }
        self.verifies.push((line, norm));
        Ok(())
    }

    /// The normalised invariant/pipeline spec texts currently registered.
    pub fn verify_specs(&self) -> impl Iterator<Item = &str> {
        self.verifies.iter().map(|(_, s)| s.as_str())
    }

    /// The failure scenarios currently registered, as failed-name lists.
    pub fn fail_specs(&self) -> impl Iterator<Item = &[String]> {
        self.fails.iter().map(|(_, names)| names.as_slice())
    }

    /// The `route` lines currently in force.
    pub fn route_specs(&self) -> impl Iterator<Item = &RouteSpec> {
        self.routes.iter().map(|(_, r)| r)
    }

    /// The `steer` lines currently in force.
    pub fn steer_specs(&self) -> impl Iterator<Item = &SteerSpec> {
        self.steers.iter().map(|(_, s)| s)
    }

    pub(crate) fn node_spec(&self, name: &str) -> Option<&NodeSpec> {
        self.nodes.iter().map(|(_, n)| n).find(|n| n.name() == name)
    }

    /// Rebuilds the concrete network for the current spec state: both
    /// halves, the structural then the behavioural one.
    ///
    /// Node ids are assigned in spec insertion order, so additive deltas
    /// leave existing ids untouched; removals shift later ids, which is
    /// why all daemon cache bookkeeping works on names.
    pub fn materialize(&self) -> Result<Materialized, SpecError> {
        self.behaviour(self.structure()?)
    }

    /// The structural half of a materialisation: the topology, the
    /// name→id map and the forwarding tables (`autoroute`, then every
    /// `route` and `steer` on top).
    pub(crate) fn structure(&self) -> Result<Structure, SpecError> {
        let mut topo = Topology::new();
        let mut names: HashMap<String, NodeId> = HashMap::new();
        for (lineno, node) in &self.nodes {
            let id = match node {
                NodeSpec::Host { name, addr } => {
                    let a: Address =
                        addr.parse().map_err(|e| err(*lineno, format!("bad address: {e}")))?;
                    topo.add_host(name, a)
                }
                NodeSpec::Switch { name } => topo.add_switch(name),
                NodeSpec::Mbox { name, kind, args } => {
                    let addresses = owned_addresses(kind, args).map_err(|m| err(*lineno, m))?;
                    topo.add_middlebox(name, kind, addresses)
                }
            };
            if names.insert(node.name().to_string(), id).is_some() {
                return Err(err(*lineno, format!("duplicate node name {:?}", node.name())));
            }
        }
        let lookup = |line: usize, name: &str| resolve(&names, line, name);

        for (lineno, a, b) in &self.links {
            let na = lookup(*lineno, a)?;
            let nb = lookup(*lineno, b)?;
            topo.add_link(na, nb);
        }

        let mut tables = if self.autoroute {
            let mut rc = RoutingConfig::new();
            rc.host_routes(&topo);
            rc.build(&topo, &FailureScenario::none())
        } else {
            ForwardingTables::new()
        };
        for (lineno, r) in &self.routes {
            let sw = lookup(*lineno, &r.switch)?;
            let prefix: Prefix =
                r.prefix.parse().map_err(|e| err(*lineno, format!("bad prefix: {e}")))?;
            let next = lookup(*lineno, &r.next)?;
            tables.add_rule(sw, Rule::new(prefix, next).with_priority(r.prio));
        }
        for (lineno, s) in &self.steers {
            let sw = lookup(*lineno, &s.switch)?;
            let from = lookup(*lineno, &s.from)?;
            let prefix: Prefix =
                s.prefix.parse().map_err(|e| err(*lineno, format!("bad prefix: {e}")))?;
            let next = lookup(*lineno, &s.next)?;
            tables.add_rule(sw, Rule::from_neighbor(prefix, from, next).with_priority(s.prio));
        }
        Ok(Structure { topo: Arc::new(topo), tables: Arc::new(tables), names })
    }

    /// The behavioural half of a materialisation, over `structure`: the
    /// middlebox models, the failure scenarios, the invariants and the
    /// pipelines.
    ///
    /// `structure` must be this spec's: built from it by
    /// [`NetSpec::structure`], or carried from an epoch whose spec differs
    /// from this one only by deltas that touched no node or only
    /// middlebox behaviour ([`TouchSet::Nothing`] or [`TouchSet::Nodes`]).
    /// Such a delta may change a box's kind, whose type tag lives in the
    /// topology: the box is re-tagged, which copies the topology if
    /// another epoch still shares it. The tables are never copied.
    ///
    /// [`TouchSet::Nothing`]: vmn_analysis::TouchSet::Nothing
    /// [`TouchSet::Nodes`]: vmn_analysis::TouchSet::Nodes
    pub(crate) fn behaviour(&self, structure: Structure) -> Result<Materialized, SpecError> {
        let Structure { topo, tables, names } = structure;
        let lookup = |line: usize, name: &str| resolve(&names, line, name);
        let mut net = Network::shared(topo, tables);
        for (lineno, node) in &self.nodes {
            if let NodeSpec::Mbox { name, kind, args } = node {
                let id = lookup(*lineno, name)?;
                if net.topo.mbox_type(id) != Some(kind.as_str()) {
                    Arc::make_mut(&mut net.topo).retag_middlebox(id, kind);
                }
                net.set_model(id, build_model(*lineno, kind, name, args)?);
            }
        }
        for (lineno, fail) in &self.fails {
            let mut nodes = Vec::new();
            for name in fail {
                nodes.push(lookup(*lineno, name)?);
            }
            net.add_scenario(FailureScenario::nodes(nodes));
        }

        let mut invariants = Vec::new();
        let mut pipelines = Vec::new();
        for (lineno, spec) in &self.verifies {
            let toks: Vec<&str> = spec.split_whitespace().collect();
            if toks.first() == Some(&"pipeline") {
                // verify pipeline <src> -> <dst> via <type> [<type>…]
                match toks.as_slice() {
                    [_, src, "->", dst, "via", types @ ..] if !types.is_empty() => {
                        let s = lookup(*lineno, src)?;
                        let d = lookup(*lineno, dst)?;
                        let spec_obj = vmn_net::PipelineSpec::new(types.iter().copied());
                        pipelines.push((spec.clone(), spec_obj, s, d));
                    }
                    _ => {
                        return Err(err(
                            *lineno,
                            "usage: verify pipeline <src> -> <dst> via <mbox-type>…",
                        ))
                    }
                }
            } else {
                let inv = parse_invariant(&net.topo, &names, *lineno, spec)?;
                invariants.push((spec.clone(), inv));
            }
        }

        Ok(Materialized { net, names, invariants, pipelines })
    }
}

/// The id `name` has in `names`, or an unknown-node error on `line`.
fn resolve(names: &HashMap<String, NodeId>, line: usize, name: &str) -> Result<NodeId, SpecError> {
    names.get(name).copied().ok_or_else(|| err(line, format!("unknown node {name:?}")))
}

fn one(line: usize, rest: &[String], usage: &str) -> Result<String, SpecError> {
    match rest {
        [a] => Ok(a.clone()),
        _ => Err(err(line, format!("usage: {usage}"))),
    }
}

fn two(line: usize, rest: &[String], usage: &str) -> Result<[String; 2], SpecError> {
    match rest {
        [a, b] => Ok([a.clone(), b.clone()]),
        _ => Err(err(line, format!("usage: {usage}"))),
    }
}

fn parse_prio(line: usize, rest: &[String]) -> Result<i32, SpecError> {
    match rest {
        [] => Ok(0),
        [kw, n] if kw == "prio" => n.parse().map_err(|_| err(line, format!("bad priority {n:?}"))),
        _ => Err(err(line, "expected `prio N` or nothing")),
    }
}

/// Addresses a middlebox owns, for the topology (NAT external, LB VIP).
pub fn owned_addresses(kind: &str, args: &[String]) -> Result<Vec<Address>, String> {
    let find = |key: &str| -> Option<&str> {
        args.iter().position(|t| t == key).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    match kind {
        "nat" => {
            let ext = find("external").ok_or("nat needs `external <address>`")?;
            Ok(vec![ext.parse().map_err(|e| format!("bad external address: {e}"))?])
        }
        "lb" => {
            let vip = find("vip").ok_or("lb needs `vip <address>`")?;
            Ok(vec![vip.parse().map_err(|e| format!("bad vip: {e}"))?])
        }
        _ => Ok(Vec::new()),
    }
}

/// Parses `A/B -> C/D` pair lists separated by `,`.
fn parse_pairs(line: usize, toks: &[String]) -> Result<Vec<(Prefix, Prefix)>, SpecError> {
    let joined = toks.join(" ");
    let mut out = Vec::new();
    for chunk in joined.split(',') {
        let chunk = chunk.trim();
        if chunk.is_empty() {
            continue;
        }
        let (a, b) = chunk
            .split_once("->")
            .ok_or_else(|| err(line, format!("expected `src -> dst`, got {chunk:?}")))?;
        let pa: Prefix =
            a.trim().parse().map_err(|e| err(line, format!("bad prefix {a:?}: {e}")))?;
        let pb: Prefix =
            b.trim().parse().map_err(|e| err(line, format!("bad prefix {b:?}: {e}")))?;
        out.push((pa, pb));
    }
    Ok(out)
}

/// Builds the middlebox model for a node line / set-model delta.
pub fn build_model(
    line: usize,
    kind: &str,
    name: &str,
    args: &[String],
) -> Result<vmn_mbox::MboxModel, SpecError> {
    let find = |key: &str| -> Option<usize> { args.iter().position(|t| t == key) };
    match kind {
        "firewall" => {
            let acl = match find("allow") {
                Some(i) => parse_pairs(line, &args[i + 1..])?,
                None => Vec::new(),
            };
            Ok(models::learning_firewall(kind, acl))
        }
        "acl-firewall" => {
            let acl = match find("allow") {
                Some(i) => parse_pairs(line, &args[i + 1..])?,
                None => Vec::new(),
            };
            Ok(models::acl_firewall(kind, acl))
        }
        "nat" => {
            let internal = find("internal")
                .and_then(|i| args.get(i + 1))
                .ok_or_else(|| err(line, "nat needs `internal <prefix>`"))?;
            let external = find("external")
                .and_then(|i| args.get(i + 1))
                .ok_or_else(|| err(line, "nat needs `external <address>`"))?;
            Ok(models::nat(
                kind,
                internal.parse().map_err(|e| err(line, format!("bad prefix: {e}")))?,
                external.parse().map_err(|e| err(line, format!("bad address: {e}")))?,
            ))
        }
        "cache" => {
            let servers_at = find("servers")
                .ok_or_else(|| err(line, "cache needs `servers <prefix>[,<prefix>…]`"))?;
            let deny_at = find("deny");
            let servers_end = deny_at.unwrap_or(args.len());
            let mut servers = Vec::new();
            for t in args[servers_at + 1..servers_end].join(" ").split(',') {
                let t = t.trim();
                if t.is_empty() {
                    continue;
                }
                servers.push(t.parse().map_err(|e| err(line, format!("bad prefix {t:?}: {e}")))?);
            }
            let deny = match deny_at {
                Some(i) => parse_pairs(line, &args[i + 1..])?,
                None => Vec::new(),
            };
            Ok(models::content_cache(kind, servers, deny))
        }
        "idps" => Ok(models::idps(kind)),
        "ids" => Ok(models::ids_monitor(kind)),
        "scrubber" => Ok(models::scrubber(kind)),
        "gateway" => Ok(models::gateway(kind)),
        "wan-optimizer" => Ok(models::wan_optimizer(kind)),
        "lb" => {
            let vip = find("vip")
                .and_then(|i| args.get(i + 1))
                .ok_or_else(|| err(line, "lb needs `vip <address>`"))?;
            let backends_at =
                find("backends").ok_or_else(|| err(line, "lb needs `backends <a>,<b>…`"))?;
            let mut backends = Vec::new();
            for t in args[backends_at + 1..].join(" ").split(',') {
                let t = t.trim();
                if t.is_empty() {
                    continue;
                }
                backends.push(t.parse().map_err(|e| err(line, format!("bad address {t:?}: {e}")))?);
            }
            if backends.is_empty() {
                return Err(err(line, "lb needs at least one backend address"));
            }
            Ok(models::load_balancer(
                kind,
                vip.parse().map_err(|e| err(line, format!("bad vip: {e}")))?,
                backends,
            ))
        }
        other => Err(err(line, format!("unknown middlebox kind {other:?} for {name}"))),
    }
}

/// Parses a reachability-invariant spec (`node-isolation a -> b`, …).
/// Endpoints are hosts or middleboxes; an isolation invariant names
/// packets by its source's address, so that source is a host.
pub fn parse_invariant(
    topo: &Topology,
    names: &HashMap<String, NodeId>,
    line: usize,
    spec: &str,
) -> Result<Invariant, SpecError> {
    let lookup = |name: &str| match names.get(name) {
        None => Err(err(line, format!("unknown node {name:?}"))),
        Some(&id) if topo.node(id).kind.is_terminal() => Ok(id),
        Some(_) => Err(err(line, format!("{name:?} is a switch, not a host or middlebox"))),
    };
    let toks: Vec<&str> = spec.split_whitespace().collect();
    match toks.as_slice() {
        [kind, src, "->", dst, rest @ ..] => {
            let s = lookup(src)?;
            let d = lookup(dst)?;
            if *kind != "traversal" && !topo.node(s).kind.is_host() {
                return Err(err(line, format!("{kind} needs a host source, not {src:?}")));
            }
            match (*kind, rest) {
                ("node-isolation", []) => Ok(Invariant::NodeIsolation { src: s, dst: d }),
                ("flow-isolation", []) => Ok(Invariant::FlowIsolation { src: s, dst: d }),
                ("data-isolation", []) => Ok(Invariant::DataIsolation { origin: s, dst: d }),
                ("traversal", ["via", boxes @ ..]) if !boxes.is_empty() => {
                    let mut through = Vec::new();
                    for b in boxes {
                        through.push(lookup(b)?);
                    }
                    Ok(Invariant::Traversal { dst: d, through, from: Some(s) })
                }
                _ => Err(err(line, format!("bad invariant spec {spec:?}"))),
            }
        }
        _ => Err(err(
            line,
            "usage: verify <kind> <src> -> <dst> [via <mbox>…] \
             where kind is node-isolation | flow-isolation | data-isolation | traversal",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
host     outside 8.8.8.8
host     inside  10.0.0.5
switch   sw
firewall fw allow 10.0.0.0/8 -> 0.0.0.0/0
link     outside sw
link     inside  sw
link     fw      sw
autoroute
steer    sw from outside 0.0.0.0/0 fw prio 10
fail     fw
verify   node-isolation outside -> inside
verify   pipeline outside -> inside via firewall
";

    #[test]
    fn parse_and_materialize_roundtrip() {
        let spec = NetSpec::parse(SAMPLE).unwrap();
        let m = spec.materialize().unwrap();
        assert_eq!(m.net.topo.hosts().count(), 2);
        assert_eq!(m.net.topo.middleboxes().count(), 1);
        assert_eq!(m.invariants.len(), 1);
        assert_eq!(m.pipelines.len(), 1);
        assert_eq!(m.net.scenarios.len(), 1);
        m.net.validate().expect("models installed");
        // Ids are insertion-ordered, so re-materialising is stable.
        let m2 = spec.materialize().unwrap();
        assert_eq!(m.names, m2.names);
    }

    #[test]
    fn every_node_and_invariant_shape_materializes() {
        let text = r"
host a 1.1.1.1
host b 2.2.2.2
host h 10.0.0.1
switch sw
nat n1 internal 10.0.0.0/8 external 1.2.3.4
lb  l1 vip 10.0.0.100 backends 10.0.0.1,10.0.0.2
cache c1 servers 10.1.0.0/16,10.2.0.0/16 deny 10.3.0.0/16 -> 10.1.0.1/32
idps i1
link a sw
link b sw
link h sw
link n1 sw
link l1 sw
link c1 sw
link i1 sw
autoroute
steer sw from a 2.2.2.2/32 i1 prio 10
verify traversal a -> b via i1
verify pipeline a -> b via idps
";
        let m = NetSpec::parse(text).unwrap().materialize().unwrap();
        assert_eq!(m.net.topo.middleboxes().count(), 4);
        // NAT and LB own their external address / VIP.
        for owner in ["n1", "l1"] {
            assert_eq!(m.net.topo.node(m.names[owner]).addresses.len(), 1, "{owner}");
        }
        // Two server prefixes, one deny pair.
        assert_eq!(m.net.model(m.names["c1"]).acls[0].1.len(), 1);
        assert!(matches!(m.invariants[0].1, Invariant::Traversal { .. }));
        assert_eq!(m.pipelines.len(), 1);
        let v = vmn::Verifier::new(&m.net, vmn::VerifyOptions::default()).unwrap();
        let (_, spec, s, d) = &m.pipelines[0];
        assert!(v.check_pipeline(spec, *s, *d).unwrap().is_none());
    }

    #[test]
    fn errors_carry_source_lines() {
        let e = NetSpec::parse("host a 1.2.3.4\nlink a ghost\n")
            .unwrap()
            .materialize()
            .map(|_| ())
            .expect_err("unknown node");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("ghost"));

        let e = NetSpec::parse("host a 1.2.3.4\nhost a 1.2.3.5\n")
            .unwrap()
            .materialize()
            .map(|_| ())
            .expect_err("duplicate");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"));

        let e = NetSpec::parse("frobnicate x\n").expect_err("bad keyword");
        assert_eq!(e.line, 1);

        let e = NetSpec::parse("switch sw\nlink sw sw\n").expect_err("self-link");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("itself"), "{e}");
    }

    /// Isolation sources and data origins are hosts; every endpoint is a
    /// host or a middlebox. Anything else is refused with its line, one
    /// case per invariant kind.
    #[test]
    fn invariant_endpoints_are_checked_against_node_kinds() {
        let net = "host outside 8.8.8.8\nhost inside 10.0.0.5\nswitch sw\nfirewall fw\n\
                   link outside sw\nlink inside sw\nlink fw sw\nautoroute\n";
        let refused = [
            ("node-isolation fw -> inside", "host source"),
            ("flow-isolation fw -> inside", "host source"),
            ("data-isolation fw -> inside", "host source"),
            ("node-isolation sw -> inside", "switch"),
            ("flow-isolation outside -> sw", "switch"),
            ("traversal outside -> sw via fw", "switch"),
            ("traversal outside -> inside via sw", "switch"),
        ];
        for (inv, why) in refused {
            let text = format!("{net}verify {inv}\n");
            let e = NetSpec::parse(&text).unwrap().materialize().map(|_| ()).expect_err(inv);
            assert_eq!(e.line, 9, "{inv}: {e}");
            assert!(e.message.contains(why), "{inv}: {e}");
        }
        let text = format!(
            "{net}verify node-isolation outside -> fw\nverify traversal fw -> inside via fw\n"
        );
        assert_eq!(NetSpec::parse(&text).unwrap().materialize().unwrap().invariants.len(), 2);
    }

    /// A scenario or invariant key is registered once: a bare `fail` would
    /// be the no-failure column, and a repeated line a second entry under
    /// one key. The messages are the ones the delta path gives.
    #[test]
    fn scenario_and_invariant_keys_are_unique() {
        let net = "host a 1.1.1.1\nhost b 2.2.2.2\nswitch sw\nfirewall fw\nlink a sw\nlink b sw\nlink fw sw\n";
        let fail = |names: &[&str]| crate::Delta::AddScenario {
            fail: names.iter().map(|n| n.to_string()).collect(),
        };
        let inv = crate::Delta::AddInvariant { spec: "node-isolation  a ->  b".into() };
        let cases = [
            ("", "fail", fail(&[]), "already registered"),
            ("fail fw\n", "fail fw", fail(&["fw"]), "already registered"),
            ("fail fw a\n", "fail a fw", fail(&["a", "fw"]), "already registered"),
            ("verify node-isolation a -> b\n", "verify node-isolation  a ->  b", inv, "registered"),
        ];
        for (registered, line, delta, why) in cases {
            let e = NetSpec::parse(&format!("{net}{registered}{line}\n")).expect_err(line);
            assert_eq!(e.line, 8 + registered.lines().count(), "{line:?}: {e}");
            assert!(e.message.contains(why), "{line:?}: {e}");
            let mut spec = NetSpec::parse(&format!("{net}{registered}")).unwrap();
            assert_eq!(spec.apply(&delta).expect_err(line).message, e.message, "{line:?}");
        }
    }

    #[test]
    fn model_argument_errors_are_parse_time() {
        let e = NetSpec::parse("nat n1 internal 10.0.0.0/8\n").expect_err("missing external");
        assert_eq!(e.line, 1);
        assert!(e.message.contains("external"));
        let e = NetSpec::parse("host a 1.1.1.1\nlb l1 vip 10.0.0.100 backends ,\n")
            .expect_err("empty backend list");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("backend"), "{e}");
    }
}

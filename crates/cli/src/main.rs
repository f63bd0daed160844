//! `vmn` — verify reachability invariants in a network described by a
//! `.vmn` file, validate a stored certificate bundle, or statically
//! lint middlebox models.
//!
//! ```console
//! $ vmn check network.vmn [--whole-network] [--threads N] [--trace]
//!                         [--certificate OUT]
//!                         [--backend auto|smt|bdd] [--partition auto]
//! $ vmn check run.cert          # first line `vmn-cert v1`: trusted check
//! $ vmn lint network.vmn        # per-middlebox static-analysis report
//! $ vmn lint --estates          # lint the built-in scenario estates
//! $ vmn serve [--socket PATH]   # delta-driven verification daemon
//! ```
//!
//! Exit code 0 when every invariant that should hold holds (or every
//! certificate is accepted, or no lint diagnostic reaches error
//! severity); 1 when any invariant is violated (or any certificate or
//! model is rejected); 2 on usage or parse errors.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use vmn::{Backend, PartitionMode, Verdict, Verifier, VerifyOptions};
use vmn_serve::NetSpec;

fn usage() -> ExitCode {
    eprintln!(
        "usage: vmn check <file> [--whole-network] [--threads N] [--trace]\n\
         \x20                    [--certificate OUT]\n\
         \x20                    [--backend auto|smt|bdd] [--partition auto]\n\
         \n\
         With a `.vmn` network description, verifies every `verify` line\n\
         and prints a verdict per invariant. --whole-network disables\n\
         slicing (for comparison), --threads enables parallel\n\
         verification, --trace prints violation witnesses.\n\
         --certificate records a DRAT-style proof of every verdict and\n\
         writes the bundles to OUT. --backend picks the engine per\n\
         scenario: auto (default) answers stateless slices on the BDD\n\
         dataplane and the rest on SMT, smt forces the solver pipeline,\n\
         bdd forces the fast path and fails cleanly on slices with\n\
         mutable middlebox state.\n\
         --partition auto verifies modularly: the topology is cut into\n\
         modules on low-connectivity boundaries, boundary contracts are\n\
         synthesized for the cut links, and cross-module isolation\n\
         invariants are discharged by contract composition without\n\
         encoding anything.\n\
         \n\
         With a stored certificate bundle (first line `vmn-cert v1`),\n\
         runs the independent trusted checker on it instead: exit 0 if\n\
         every bundle is accepted, 1 if any is rejected.\n\
         \n\
         vmn lint <file> | --estates\n\
         \n\
         Statically analyses every middlebox model: header-field\n\
         footprints, state liveness, inferred statefulness and\n\
         parallelism (checked against the declared annotations), and\n\
         dead rule arms proven with the ROBDD engine. --estates lints\n\
         the built-in scenario estates instead of a file. Exit 1 when\n\
         any diagnostic reaches error severity.\n\
         \n\
         vmn serve [--socket PATH]\n\
         \n\
         Long-lived verification daemon speaking newline-delimited JSON\n\
         on stdin/stdout (or on a unix socket with --socket): load\n\
         networks, apply topology/policy/invariant deltas, and read\n\
         re-verification reports answered from a slice-fingerprint\n\
         verdict cache, re-solving only the pairs it misses. See the\n\
         vmn_serve crate docs for the protocol."
    );
    ExitCode::from(2)
}

/// `vmn lint`: static analysis over every middlebox model of a network
/// — or of the built-in scenario estates with `--estates`. No solver
/// session runs; dead arms are decided by the ROBDD engine alone.
fn lint_main(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut estates = false;
    for a in args {
        match a.as_str() {
            "--estates" => estates = true,
            s if !s.starts_with('-') && file.is_none() => file = Some(s.to_string()),
            _ => return usage(),
        }
    }
    // (label, network) pairs to lint.
    let mut nets: Vec<(String, vmn::Network)> = Vec::new();
    match (estates, file) {
        (true, None) => {
            use vmn_scenarios::{
                data_isolation::{DataIsolation, DataIsolationParams},
                datacenter::{Datacenter, DatacenterParams},
                enterprise::{Enterprise, EnterpriseParams},
                isp::{Isp, IspParams},
                multi_tenant::{MultiTenant, MultiTenantParams},
            };
            nets.push(("datacenter".into(), Datacenter::build(DatacenterParams::default()).net));
            nets.push((
                "data-isolation".into(),
                DataIsolation::build(DataIsolationParams::default()).net,
            ));
            nets.push(("enterprise".into(), Enterprise::build(EnterpriseParams::default()).net));
            nets.push(("isp".into(), Isp::build(IspParams::default()).net));
            nets.push((
                "multi-tenant".into(),
                MultiTenant::build(MultiTenantParams::default()).net,
            ));
        }
        (false, Some(f)) => {
            let text = match std::fs::read_to_string(&f) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("vmn: cannot read {f}: {e}");
                    return ExitCode::from(2);
                }
            };
            match NetSpec::parse(&text).and_then(|s| s.materialize()) {
                Ok(m) => nets.push((f, m.net)),
                Err(e) => {
                    eprintln!("vmn: {f}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        _ => return usage(),
    }

    let mut errors = 0usize;
    let mut models_seen = 0usize;
    for (label, net) in &nets {
        // Topology order keeps the report deterministic.
        let mut boxes: Vec<_> = net.models.keys().copied().collect();
        boxes.sort();
        for n in boxes {
            let model = &net.models[&n];
            let a = vmn::analysis::analyze_with(model, &mut vmn_bdd::BddArmDecider);
            models_seen += 1;
            println!("{label} / {} (model {:?})", net.topo.node(n).name, model.type_name);
            match &a.statefulness {
                Some(r) => println!("  stateful: {r}"),
                None => println!("  stateless"),
            }
            match &a.bdd_blocker {
                Some(b) => println!("  backend: smt ({b})"),
                None => println!("  backend: bdd-eligible"),
            }
            println!(
                "  parallelism: declared {:?}, inferred {:?}",
                a.declared_parallelism, a.inferred_parallelism
            );
            println!("  header footprint: {}", a.footprint);
            if !a.states_read.is_empty() || !a.states_written.is_empty() {
                let join = |s: &std::collections::BTreeSet<String>| {
                    if s.is_empty() {
                        "(none)".to_string()
                    } else {
                        s.iter().cloned().collect::<Vec<_>>().join(", ")
                    }
                };
                println!(
                    "  state: reads {}; writes {}",
                    join(&a.states_read),
                    join(&a.states_written)
                );
            }
            for d in &a.diagnostics {
                if d.severity == vmn::analysis::Severity::Error {
                    errors += 1;
                }
                println!("  {d}");
            }
        }
    }
    println!("{models_seen} models across {} networks: {errors} errors", nets.len());
    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `vmn serve`: the delta-driven verification daemon. One fleet of
/// network sessions per process; requests arrive as newline-delimited
/// JSON on stdin (responses on stdout) or, with `--socket`, on a unix
/// socket served one connection at a time — the fleet, its verdict
/// caches and its verifiers' per-epoch tables persist across
/// connections.
fn serve_main(args: &[String]) -> ExitCode {
    let mut socket: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                socket = match it.next() {
                    Some(p) => Some(p.clone()),
                    None => return usage(),
                }
            }
            s if s.starts_with("--socket=") => socket = Some(s["--socket=".len()..].to_string()),
            _ => return usage(),
        }
    }
    let mut svc = vmn_serve::Service::new(VerifyOptions::default());
    let result = match socket {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            vmn_serve::serve_lines(&mut svc, stdin.lock(), stdout.lock()).map(|_| ())
        }
        Some(path) => serve_socket(&mut svc, &path),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vmn serve: {e}");
            ExitCode::from(2)
        }
    }
}

fn serve_socket(svc: &mut vmn_serve::Service, path: &str) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    eprintln!("vmn serve: listening on {path}");
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        if vmn_serve::serve_lines(svc, reader, stream)? {
            break; // a connection requested shutdown
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Trusted-checker mode: validate every bundle in a stored certificate
/// file. No solver code runs here — only `vmn_check`.
fn check_certificates(file: &str, text: &str) -> ExitCode {
    let bundles = match vmn::check::parse_bundles(text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("vmn: {file}: malformed certificate: {e}");
            return ExitCode::from(2);
        }
    };
    let mut accepted = 0usize;
    for bundle in &bundles {
        match vmn::check::check_bundle(bundle) {
            Ok(s) => {
                accepted += 1;
                println!(
                    "CERTIFIED {}   [{} sessions, {} steps, {} checks: {} unsat, {} sat]",
                    bundle.label, s.sessions, s.steps, s.checks, s.unsat_checks, s.sat_checks
                );
            }
            Err(e) => println!("REJECTED  {}   {e}", bundle.label),
        }
    }
    println!(
        "{} certificate bundles: {} accepted, {} rejected",
        bundles.len(),
        accepted,
        bundles.len() - accepted
    );
    if accepted < bundles.len() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut whole = false;
    let mut threads = 1usize;
    let mut trace = false;
    let mut certificate_out: Option<String> = None;
    let mut backend = Backend::Auto;
    let mut partition = false;
    let parse_partition = |s: &str| s == "auto";
    let parse_backend = |s: &str| match s {
        "auto" => Some(Backend::Auto),
        "smt" => Some(Backend::Smt),
        "bdd" => Some(Backend::Bdd),
        _ => None,
    };
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {}
        Some("lint") => return lint_main(&args[1..]),
        Some("serve") => return serve_main(&args[1..]),
        _ => return usage(),
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--whole-network" => whole = true,
            "--trace" => trace = true,
            "--threads" => {
                threads = match it.next().map(|n| n.parse()) {
                    Some(Ok(n)) => n,
                    _ => return usage(),
                }
            }
            s if s.starts_with("--threads=") => {
                threads = match s["--threads=".len()..].parse() {
                    Ok(n) => n,
                    Err(_) => return usage(),
                }
            }
            "--certificate" => {
                certificate_out = match it.next() {
                    Some(p) => Some(p.clone()),
                    None => return usage(),
                }
            }
            s if s.starts_with("--certificate=") => {
                certificate_out = Some(s["--certificate=".len()..].to_string())
            }
            "--backend" => {
                backend = match it.next().and_then(|s| parse_backend(s)) {
                    Some(b) => b,
                    None => return usage(),
                }
            }
            s if s.starts_with("--backend=") => {
                backend = match parse_backend(&s["--backend=".len()..]) {
                    Some(b) => b,
                    None => return usage(),
                }
            }
            "--partition" => match it.next() {
                Some(m) if parse_partition(m) => partition = true,
                _ => return usage(),
            },
            s if s.starts_with("--partition=") => {
                if !parse_partition(&s["--partition=".len()..]) {
                    return usage();
                }
                partition = true;
            }
            s if !s.starts_with('-') && file.is_none() => file = Some(s.to_string()),
            _ => return usage(),
        }
    }
    let Some(file) = file else {
        return usage();
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("vmn: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    // A stored certificate bundle instead of a network description:
    // dispatch to the trusted checker (sniffed by the format header, so
    // operators need no separate subcommand for the audit path).
    if text.lines().next().map(str::trim) == Some(vmn::check::CERT_HEADER) {
        return check_certificates(&file, &text);
    }
    let cfg = match NetSpec::parse(&text).and_then(|s| s.materialize()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("vmn: {file}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut options = if whole { VerifyOptions::whole_network() } else { VerifyOptions::default() };
    options.emit_proofs = certificate_out.is_some();
    options.backend = backend;
    if partition {
        options.partition = PartitionMode::Auto;
    }
    let verifier = match Verifier::new(&cfg.net, options) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("vmn: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(ctx) = verifier.modular_context() {
        println!(
            "partitioned into {} modules ({} boundary links)",
            ctx.module_count(),
            ctx.boundary_len()
        );
    }

    let invariants: Vec<_> = cfg.invariants.iter().map(|(_, i)| i.clone()).collect();
    let reports = match verifier.verify_all(&invariants, threads) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vmn: verification failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &certificate_out {
        // Inherited reports carry no certificate (the representative's
        // bundle covers the symmetry group), so the file holds one bundle
        // per solver run.
        let bundles: Vec<_> = reports.iter().filter_map(|r| r.certificate.clone()).collect();
        if let Err(e) = std::fs::write(path, vmn::check::write_bundles(&bundles)) {
            eprintln!("vmn: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {} certificate bundles to {path}", bundles.len());
    }

    let mut any_violated = false;
    for ((spec, _), report) in cfg.invariants.iter().zip(&reports) {
        match &report.verdict {
            Verdict::Holds => {
                println!(
                    "HOLDS     {spec}   [{:?}, {} nodes{}]",
                    report.elapsed,
                    report.encoded_nodes,
                    if report.inherited { ", by symmetry" } else { "" }
                );
            }
            Verdict::Violated { trace: t, scenario } => {
                any_violated = true;
                let failures = if scenario.fault_count() == 0 {
                    String::new()
                } else {
                    format!(" under failure of {:?}", scenario.failed_nodes)
                };
                println!("VIOLATED  {spec}{failures}   [{:?}]", report.elapsed);
                if trace {
                    print!("{}", t.render(&cfg.net));
                }
            }
        }
    }
    // Summary. Inherited reports carry zero elapsed, so the total counts
    // each solver run exactly once instead of once per symmetry-group
    // member.
    let holds = reports.iter().filter(|r| r.verdict.holds()).count();
    let inherited = reports.iter().filter(|r| r.inherited).count();
    let total: std::time::Duration = reports.iter().map(|r| r.elapsed).sum();
    // Search work and the size of the CNF it ran on (inherited reports
    // carry zeroed solver statistics).
    let sum = |field: fn(&vmn::Report) -> u64| -> u64 { reports.iter().map(field).sum() };
    let (conflicts, decisions, propagations) =
        (sum(|r| r.solver.conflicts), sum(|r| r.solver.decisions), sum(|r| r.solver.propagations));
    let (vars, clauses, clause_lits) =
        (sum(|r| r.solver.vars), sum(|r| r.solver.clauses), sum(|r| r.solver.clause_lits));
    // Per-backend query counts over the runs that actually executed
    // (inherited reports repeat their representative's counts).
    let direct = || reports.iter().filter(|r| !r.inherited);
    let smt_queries: usize = direct().map(|r| r.smt_scenarios).sum();
    let bdd_queries: usize = direct().map(|r| r.bdd_scenarios).sum();
    let contract_queries: usize = direct().map(|r| r.contract_scenarios).sum();
    if !reports.is_empty() {
        let contracts = if verifier.modular_context().is_some() {
            format!(" / {contract_queries} contract")
        } else {
            String::new()
        };
        println!(
            "{} invariants: {} hold, {} violated, {} inherited by symmetry; \
             solve time {total:?}, {conflicts} conflicts / {decisions} decisions / \
             {propagations} propagations on \
             {vars} vars / {clauses} clauses / {clause_lits} literals; \
             {smt_queries} smt / {bdd_queries} bdd{contracts} scenario queries",
            reports.len(),
            holds,
            reports.len() - holds,
            inherited,
        );
    }
    for (spec, pipeline, src, dst) in &cfg.pipelines {
        match verifier.check_pipeline(pipeline, *src, *dst) {
            Ok(None) => println!("HOLDS     {spec}"),
            Ok(Some((violation, scenario))) => {
                any_violated = true;
                let failures = if scenario.fault_count() == 0 {
                    String::new()
                } else {
                    format!(" under failure of {:?}", scenario.failed_nodes)
                };
                println!("VIOLATED  {spec}{failures}");
                if trace {
                    println!("  {violation}");
                }
            }
            Err(e) => {
                eprintln!("vmn: pipeline check failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if any_violated {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

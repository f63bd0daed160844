//! The benchmark's metric and workload tables — the one place names, units
//! and bounds are written down. A unit test keeps `BENCHMARK.json` in step.

use crate::gen::Class;
use vmn_serve::json::Value;

/// Seconds one run measures; `--seconds` overrides it.
pub const RUN_SECONDS: u64 = 30;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The three times are noise floors over a run's rounds (`stats::floors`).
/// Over ten runs with different seeds their quartile spread is 2–4 % when
/// the sandbox is calm and up to 12 % in the two sets of BENCHMARK.md's table
/// (22 % in the worst ten runs seen), and a bound should sit at three times
/// the spread: the times get the widest bound the contract allows. Peak memory does not feel the machine's mood: it
/// spreads by 0.1–2 % (5–6 % on `campus-deltas`, whose 27.5 MiB grow by one
/// 2 MiB step in some runs).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "total_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "work_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", bound: 0.15 },
];

/// A delta latency of the daemon workloads: its class, its bound and the
/// workloads that report it.
pub struct DeltaLatency {
    pub name: &'static str,
    pub class: Class,
    pub bound: f64,
    pub workloads: &'static [&'static str],
}

/// Request latency per delta class, timed from outside `handle_line` in the
/// untraced run. End-to-end metrics in all but one respect: only the two
/// daemon workloads have them, and `BENCHMARK.json`'s `end_to_end` list is
/// one every workload reports and none may read 0. So an untraced run prints
/// them beside the result line, result sets store them, `compare` and
/// `--selfcheck` hold them to the bounds here, and the driver sees them in the
/// per-layer set. The intent mean is the campus's alone (0.2 ms on the pods
/// is below what repeats). Each is a mean over the class's deltas at their
/// noise floor. Bounds are three times the spread measured over
/// ten seeds in a quiet hour, which on the campus's scenario and intent
/// deltas (a failed floor switch or a failed firewall; an invariant that
/// meets a widened site or not) is mostly the seed's doing.
pub const DELTA_LATENCY: [DeltaLatency; 4] = [
    DeltaLatency {
        name: "model_delta_ms_mean",
        class: Class::Model,
        bound: 0.15,
        workloads: &["campus-deltas", "pods-deltas"],
    },
    DeltaLatency {
        name: "topology_delta_ms_mean",
        class: Class::Topology,
        bound: 0.15,
        workloads: &["campus-deltas", "pods-deltas"],
    },
    DeltaLatency {
        name: "scenario_delta_ms_mean",
        class: Class::Scenario,
        bound: 0.25,
        workloads: &["campus-deltas", "pods-deltas"],
    },
    DeltaLatency {
        name: "intent_delta_ms_mean",
        class: Class::Intent,
        bound: 0.25,
        workloads: &["campus-deltas"],
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count that must repeat exactly between runs with one seed.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: "lower", exact: false }
}

const fn count(name: &'static str, better: &'static str) -> Layer {
    Layer { name, unit: "count", better, exact: true }
}

const fn share(name: &'static str, better: &'static str) -> Layer {
    Layer { name, unit: "share", better, exact: true }
}

/// Per-layer metrics, grouped by the module they time. BENCHMARK.md says
/// which end-to-end metric each should move, on which workload.
pub const PER_LAYER: [Layer; 67] = [
    time("spec.parse_s", "s"),
    time("spec.materialize_s", "s"),
    count("spec.bytes", "lower"),
    time("serve.json_s", "s"),
    time("serve.spec_apply_s", "s"),
    time("serve.swap_s", "s"),
    time("serve.reconcile_s", "s"),
    time("model_delta_ms_mean", "ms"),
    time("topology_delta_ms_mean", "ms"),
    time("scenario_delta_ms_mean", "ms"),
    time("intent_delta_ms_mean", "ms"),
    share("serve.prefiltered_share", "higher"),
    share("serve.contract_share", "higher"),
    share("serve.cache_hit_share", "higher"),
    share("serve.rechecked_share", "lower"),
    share("serve.escalated_share", "lower"),
    count("serve.cache_retired_mean", "lower"),
    count("serve.pooled_sessions", "higher"),
    time("analysis.validate_s", "s"),
    time("policy.compute_s", "s"),
    count("policy.classes", "lower"),
    time("policy.symmetry_s", "s"),
    share("policy.inherited_share", "higher"),
    time("modular.partition_s", "s"),
    count("modular.modules", "higher"),
    count("modular.boundary_edges", "lower"),
    time("modular.synthesize_s", "s"),
    time("modular.contract_holds_us_p50", "us"),
    share("modular.contract_share", "higher"),
    time("slice.plan_s", "s"),
    time("slice.plan_us_p50", "us"),
    count("slice.nodes_p50", "lower"),
    count("slice.nodes_max", "lower"),
    count("slice.bound_max", "lower"),
    time("slice.fingerprint_s", "s"),
    time("net.header_classes_s", "s"),
    count("net.header_classes", "lower"),
    time("bdd.sweep_s", "s"),
    time("bdd.query_us_p50", "us"),
    count("bdd.nodes", "lower"),
    share("bdd.ite_hit_ratio", "higher"),
    share("bdd.share", "higher"),
    time("encoder.skeleton_s", "s"),
    count("encoder.terms", "lower"),
    count("encoder.assertions", "lower"),
    time("smt.check_s", "s"),
    count("smt.conflicts", "lower"),
    count("smt.propagations", "lower"),
    count("smt.decisions", "lower"),
    count("smt.restarts", "lower"),
    count("smt.learnt_clauses", "lower"),
    Layer { name: "smt.props_per_s", unit: "1/s", better: "higher", exact: false },
    share("smt.share", "lower"),
    time("trace.extract_s", "s"),
    time("trace.replay_s", "s"),
    count("trace.replays_ok", "higher"),
    time("engine.new_s", "s"),
    time("engine.new_unattributed_s", "s"),
    time("engine.sweep_s", "s"),
    time("engine.unattributed_s", "s"),
    time("engine.verdict_ms_p50", "ms"),
    time("engine.verdict_ms_p90", "ms"),
    time("engine.warm_sweep_s", "s"),
    count("engine.pooled_sessions", "higher"),
    Layer { name: "trace.overhead_ratio", unit: "ratio", better: "lower", exact: false },
    // How many rounds or deltas fit the run: a count, but not an exact one.
    Layer { name: "run.samples", unit: "count", better: "higher", exact: false },
    count("input.hash", "higher"),
];

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared metric"
        );
        assert!(value.is_finite(), "{name} must be finite, got {value}");
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// Adds to a metric (layers timed in several places).
    pub fn add(&mut self, name: &str, value: f64) {
        self.set(name, self.get(name) + value);
    }

    /// The value, or `0.0` for a layer the workload leaves idle.
    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
    }

    /// Every end-to-end metric as `(name, value, unit)`, in table order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        END_TO_END.iter().map(|m| (m.name, self.get(m.name), m.unit)).collect()
    }

    /// Every per-layer metric as `(name, value, unit)`, in table order.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|m| (m.name, self.get(m.name), m.unit)).collect()
    }
}

/// Renders the `metrics` object of the result line.
pub fn metrics_json(rows: &[(&'static str, f64, &'static str)]) -> Value {
    Value::Obj(
        rows.iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_schema_limits() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step with the
    /// tables above, entry by entry and in order.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(committed.len() <= 64 * 1024);
        let doc = vmn_serve::json::parse(&committed).expect("BENCHMARK.json is JSON");
        let Value::Obj(keys) = &doc else { panic!("BENCHMARK.json is an object") };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(RUN_SECONDS as f64));
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let list = doc.get(key).and_then(Value::as_arr).expect("a list");
            list.iter()
                .map(|entry| {
                    let Value::Obj(have) = entry else { panic!("{key} holds objects") };
                    assert_eq!(have.len(), fields.len(), "{key}: exactly the contract's keys");
                    fields
                        .iter()
                        .map(|f| match entry.get(f) {
                            Some(Value::Str(s)) => s.clone(),
                            Some(Value::Num(n)) => n.to_string(),
                            other => panic!("{key}.{f}: {other:?}"),
                        })
                        .collect()
                })
                .collect()
        };
        let workloads = rows("workloads", &["name", "why"]);
        let names: Vec<&str> = workloads.iter().map(|w| w[0].as_str()).collect();
        assert_eq!(names, WORKLOADS);
        assert!(workloads.iter().all(|w| w[1].len() <= 200 && !w[1].contains('\n')));
        let want: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| vec![m.name.into(), m.unit.into(), "lower".into(), m.bound.to_string()])
            .collect();
        assert_eq!(rows("end_to_end", &["name", "unit", "better", "bound"]), want);
        let want: Vec<Vec<String>> =
            PER_LAYER.iter().map(|m| vec![m.name.into(), m.unit.into(), m.better.into()]).collect();
        assert_eq!(rows("per_layer", &["name", "unit", "better"]), want);
    }
}

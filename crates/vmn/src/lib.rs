//! # VMN — Verifying Reachability in Networks with Mutable Datapaths
//!
//! A from-scratch reproduction of the NSDI 2017 paper by Panda, Lahav,
//! Argyraki, Sagiv and Shenker. VMN verifies *reachability invariants* —
//! simple isolation, flow isolation, data isolation, middlebox traversal —
//! in networks whose forwarding behaviour depends on packet history
//! (stateful firewalls, NATs, caches, load balancers, IDPSes, …), and does
//! so scalably by verifying on *slices* whose size is independent of the
//! network, exploiting *policy equivalence classes* and *symmetry*.
//!
//! The pipeline:
//!
//! 1. describe the network ([`Network`]: topology + forwarding tables +
//!    a middlebox model per mutable element + failure scenarios),
//! 2. state invariants ([`Invariant`]),
//! 3. run the [`Verifier`] — it finds a slice, computes a trace bound,
//!    encodes the negated invariant as an SMT formula (the in-repo solver
//!    in `vmn-smt` plays the role of Z3) and either proves the invariant
//!    or extracts a [`Trace`] that replays on the concrete simulator.
//!
//! ```
//! use vmn::{Invariant, Network, Verifier, VerifyOptions};
//! use vmn_mbox::models;
//! use vmn_net::{FailureScenario, Prefix, RoutingConfig, Rule, Topology};
//!
//! // outside --- sw --- inside, with a stateful firewall on the path.
//! let mut topo = Topology::new();
//! let outside = topo.add_host("outside", "8.8.8.8".parse().unwrap());
//! let inside = topo.add_host("inside", "10.0.0.5".parse().unwrap());
//! let sw = topo.add_switch("sw");
//! let fw = topo.add_middlebox("fw", "stateful-firewall", vec![]);
//! topo.add_link(outside, sw);
//! topo.add_link(inside, sw);
//! topo.add_link(fw, sw);
//!
//! let mut rc = RoutingConfig::new();
//! rc.host_routes(&topo);
//! let mut tables = rc.build(&topo, &FailureScenario::none());
//! // Anything from outside is pipelined through the firewall.
//! let all: Prefix = "0.0.0.0/0".parse().unwrap();
//! tables.add_rule(sw, Rule::from_neighbor(all, outside, fw).with_priority(10));
//!
//! let mut net = Network::new(topo, tables);
//! // The firewall only lets inside-initiated flows through.
//! net.set_model(fw, models::learning_firewall(
//!     "stateful-firewall",
//!     vec![("10.0.0.0/8".parse().unwrap(), all)],
//! ));
//!
//! let verifier = Verifier::new(&net, VerifyOptions::default()).unwrap();
//! // Unsolicited traffic from outside must not reach the inside host:
//! let report = verifier
//!     .verify(&Invariant::FlowIsolation { src: outside, dst: inside })
//!     .unwrap();
//! assert!(report.verdict.holds());
//! ```

#![forbid(unsafe_code)]

pub mod bounds;
pub mod encoder;
pub mod engine;
pub mod invariant;
pub mod modular;
pub mod network;
pub mod policy;
pub mod slice;
pub mod trace;

pub use engine::{
    Backend, PartitionMode, Plan, Report, Sessions, Verdict, Verifier, VerifyError, VerifyOptions,
};
pub use invariant::Invariant;
pub use network::Network;
pub use policy::PolicyClasses;
pub use trace::{StepKind, Trace, TraceStep};
/// Model static analysis (re-exported): inferred statefulness /
/// parallelism, footprints, dead-arm diagnostics, and the
/// annotation-soundness gate [`Network::validate`] runs per model.
pub use vmn_analysis as analysis;
/// The trusted certificate checker (re-exported): validates the
/// [`Report::certificate`] bundles produced under
/// [`VerifyOptions::emit_proofs`] without touching any solver code.
pub use vmn_check as check;

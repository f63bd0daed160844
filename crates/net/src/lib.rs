//! Network substrate for the VMN verifier.
//!
//! The VMN paper assumes two pieces of network machinery that it does not
//! itself contribute: a way to describe topologies and configurations, and
//! the transfer-function computation pioneered by VeriFlow/HSA that
//! summarises the static (switch/router) part of a network as a function
//! from located packets to located packets. This crate provides both, from
//! scratch:
//!
//! * [`addr`] — IPv4-style addresses and prefixes;
//! * [`header`] — concrete packet headers and flow identities;
//! * [`topology`] — nodes (hosts, switches, middleboxes), links and
//!   failure scenarios;
//! * [`fwd`] — longest-prefix-match forwarding tables with
//!   ingress-qualified rules, priorities and backup entries, plus
//!   shortest-path route computation;
//! * [`transfer`] — the per-failure-scenario transfer function: a walk of
//!   the static datapath from terminal to terminal with loop detection
//!   (a static forwarding loop is an error, as in §3.5 of the paper),
//!   VeriFlow-style header equivalence classes, the per-switch next-hop
//!   runs compiled over them that walks read (with fallback runs per
//!   failure scenario where a best next hop is dead), and the per-emitter
//!   delivery intervals over them that every verification backend reads;
//! * [`pipeline`] — the static *pipeline invariant* checker (which
//!   middlebox chain a packet class traverses), the job the paper
//!   delegates to existing static-datapath tools.

#![forbid(unsafe_code)]

pub mod addr;
pub mod error;
pub mod fwd;
pub mod header;
pub mod pipeline;
pub mod topology;
pub mod transfer;

pub use addr::{Address, Prefix};
pub use error::NetError;
pub use fwd::{ForwardingTables, RoutingConfig, Rule};
pub use header::{FlowId, Header};
pub use pipeline::{PipelineSpec, PipelineViolation};
pub use topology::{FailureScenario, Link, Node, NodeId, NodeKind, Topology};
pub use transfer::{translated_intervals, HeaderClasses, Interval, TransferFunction};

//! # vmn-serve — verification as a service
//!
//! A one-shot verifier answers "does this network satisfy these
//! invariants?" and exits. Real configurations *change*: ACL updates,
//! middlebox reconfigurations, links and boxes added and retired,
//! invariants and failure scenarios arriving as operators' concerns
//! evolve. Re-running the full sweep per change wastes almost all of
//! its work — the paper's own slicing argument says a local change has
//! a local footprint.
//!
//! This crate keeps verification *warm*:
//!
//! * [`spec::NetSpec`] — the symbolic `.vmn` description, which deltas
//!   edit and [`spec::NetSpec::materialize`] turns into the concrete
//!   [`vmn::Network`] per epoch, in two halves: the structural one
//!   (topology, name map, forwarding tables) and the behavioural one
//!   (models, scenarios, invariants, pipelines). A delta that touches no
//!   structure re-runs only the behavioural half, and its epoch shares
//!   the topology and tables of the one before;
//! * [`delta::Delta`] — the edit language (topology, links, routing,
//!   model swaps, invariants, scenarios), each application reporting a
//!   [`vmn_analysis::TouchSet`] session footprint;
//! * [`service::NetSession`] — a warmed [`vmn::Verifier`] plus a
//!   verdict cache keyed by an exact slice key
//!   ([`vmn::slice::SliceKey`], compared in full, never by hash): a delta
//!   that touches no node keeps every pair, pairs whose key was seen before
//!   are answered from cache — possibly from another pair that is the same
//!   check up to renaming and an XOR translation of addresses, whose
//!   witness is carried over — and only the rest re-solve, each sweep on
//!   solver sessions of its own;
//! * [`service::Service`] + [`protocol`] — a named fleet of sessions
//!   behind a newline-delimited-JSON protocol (`vmn serve`);
//! * [`json`] — the minimal JSON tree this build vendors instead of a
//!   serialisation dependency.

#![forbid(unsafe_code)]

pub mod delta;
pub mod json;
pub mod protocol;
pub mod service;
pub mod spec;

pub use delta::{normalize_spec, scenario_key, Delta};
pub use protocol::{handle_line, serve_lines, Response};
pub use service::{CacheEntry, DeltaReport, InvariantVerdict, NetSession, Service, NONE_SCENARIO};
pub use spec::{Materialized, NetSpec, NodeSpec, RouteSpec, SpecError, SteerSpec};

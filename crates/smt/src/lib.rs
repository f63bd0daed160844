//! A self-contained SAT + bit-vector solver used as the decision procedure
//! for VMN, the mutable-datapath network verifier.
//!
//! The paper this repository reproduces ("Verifying Reachability in
//! Networks with Mutable Datapaths", NSDI 2017) discharges its verification
//! conditions with Z3, as quantified formulas over uninterpreted functions.
//! The VMN encoder grounds those formulas over a bounded trace before it
//! solves them (each past-time ♦ becomes an OR over earlier steps), and
//! what is left is quantifier-free booleans and fixed-width bit-vectors —
//! so that is the whole solver: a [CDCL](sat) SAT core, a
//! [Tseitin / bit-blasting front end](blast) that lowers terms to clauses,
//! and an incremental [`Context`] over both.
//!
//! * booleans with the usual connectives (classification oracles are free
//!   booleans per trace step),
//! * fixed-width bit-vectors with equality, extraction, unsigned
//!   comparison and if-then-else (network addresses, ports, node indices,
//!   header fields).
//!
//! # Example
//!
//! ```
//! use vmn_smt::{Context, SatResult, Sort};
//!
//! let mut ctx = Context::new();
//! let dst = ctx.fresh_const("dst", Sort::bitvec(32));
//!
//! // dst is in 10.0.0.0/8 ...
//! let in_subnet = ctx.bv_prefix_match(dst, 0x0A00_0000, 8);
//! ctx.assert(in_subnet);
//! assert_eq!(ctx.check(), SatResult::Sat);
//! assert_eq!(ctx.eval_bv(dst) >> 24, 10);
//!
//! // ... and in the range 11.0.0.0 ..= 11.0.0.255: no such address.
//! let lo = ctx.bv_const(0x0B00_0000, 32);
//! let hi = ctx.bv_const(0x0B00_00FF, 32);
//! let above = ctx.bv_ule(lo, dst);
//! let below = ctx.bv_ule(dst, hi);
//! let in_range = ctx.and(&[above, below]);
//! assert_eq!(ctx.check_assuming(&[in_range]), SatResult::Unsat);
//! // The assumption was not committed: the context is still satisfiable.
//! assert_eq!(ctx.check(), SatResult::Sat);
//! ```

#![forbid(unsafe_code)]

pub mod blast;
pub mod model;
pub mod sat;
pub mod solver;
pub mod sorts;
pub mod term;

pub use model::{Model, Value};
pub use sat::{Lit, ProofLog, SatResult as CoreSatResult, SolverStats, Var};
pub use solver::{Context, SatResult};
pub use sorts::Sort;
pub use term::{Term, TermId, TermPool};

//! Proof logging must survive every clause-database mutation the
//! incremental engine performs: learnt-clause GC (`reduce_db`), arena
//! compaction, cone-scoped forgetting and search-state resets. Each test
//! exercises one mutation and then demands that a *subsequent* UNSAT
//! verdict still carries a certificate the trusted checker accepts —
//! i.e. the log's deletions and additions stayed consistent with the
//! live clause set.

use vmn_check::{check_bundle, BundleSummary, CertificateBundle, Outcome};
use vmn_smt::sat::{SatResult, Solver};
use vmn_smt::{Lit, Var};

/// A pigeonhole instance (`holes + 1` pigeons into `holes` holes,
/// unsatisfiable) guarded by a fresh variable `g`: every clause gets
/// `¬g` appended, so the instance is active only under the assumption
/// `g`. Refuting it forces real clause learning.
fn guarded_php(s: &mut Solver, holes: usize) -> Var {
    let g = s.new_var();
    let pigeons = holes + 1;
    let vars: Vec<Vec<Var>> =
        (0..pigeons).map(|_| (0..holes).map(|_| s.new_var()).collect()).collect();
    for p in 0..pigeons {
        let mut cl: Vec<Lit> = (0..holes).map(|h| Lit::pos(vars[p][h])).collect();
        cl.push(Lit::neg(g));
        s.add_clause(&cl);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                s.add_clause(&[Lit::neg(vars[p1][h]), Lit::neg(vars[p2][h]), Lit::neg(g)]);
            }
        }
    }
    g
}

/// Exports the solver's full proof log as a one-session bundle and runs
/// the trusted checker on it, panicking on rejection.
fn validate(s: &Solver, label: &str) -> BundleSummary {
    let session = s.proof_session(0).expect("proof logging must be enabled");
    let bundle = CertificateBundle { label: label.to_string(), sessions: vec![session] };
    check_bundle(&bundle)
        .unwrap_or_else(|e| panic!("checker rejected the {label} certificate: {e}"))
}

#[test]
fn proof_survives_reduce_db_and_compaction() {
    // A tiny learnt budget on a long incremental session: reduce_db keeps
    // deleting lemmas and the automatic arena-compaction trigger fires
    // mid-search — all of it must be mirrored into the proof log.
    let mut s = Solver::new();
    s.enable_proof();
    s.set_max_learnts(30.0);
    let guards: Vec<Var> = (0..6).map(|_| guarded_php(&mut s, 5)).collect();
    for (i, &g) in guards.iter().enumerate() {
        let mut assumptions = vec![Lit::pos(g)];
        assumptions.extend(guards.iter().take(i).map(|&h| Lit::neg(h)));
        assert_eq!(s.solve_with_assumptions(&assumptions), SatResult::Unsat, "php {i}");
    }
    assert!(s.stats().deleted_clauses > 0, "low budget must force deletions");
    assert!(s.stats().arena_compactions >= 1, "the GC trigger must have fired");

    // The subsequent verdict after all that churn must still certify.
    let g0 = guards[0];
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g0)]), SatResult::Unsat);
    let summary = validate(&s, "reduce-db");
    assert_eq!(summary.unsat_checks, 7, "six sweep checks plus the post-GC one");
    assert_eq!(summary.sat_checks, 0);
}

#[test]
fn proof_survives_explicit_compaction() {
    // compact_arena renumbers every ClauseRef; proof ids must not move.
    let mut s = Solver::new();
    s.enable_proof();
    s.set_max_learnts(20.0);
    let g = guarded_php(&mut s, 5);
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
    s.backtrack_to_base();
    s.forget_learnts_with(&[Lit::pos(g)]); // wrong polarity: deletes nothing
    s.compact_arena();
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
    let summary = validate(&s, "explicit-compaction");
    assert_eq!(summary.unsat_checks, 2);
}

#[test]
fn proof_survives_cone_forgetting() {
    // Forgetting a deselected sub-query's cone deletes lemmas that never
    // mention its guard; every one of those deletions must be logged, and
    // the next refutation must re-derive whatever it needs on the record.
    let mut s = Solver::new();
    s.enable_proof();
    s.set_open_cone(Solver::cone_bit(1));
    let g1 = guarded_php(&mut s, 5);
    s.set_open_cone(Solver::cone_bit(2));
    let g2 = guarded_php(&mut s, 4);
    s.set_open_cone(0);

    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g1), Lit::neg(g2)]), SatResult::Unsat);
    let deleted_before = s.stats().deleted_clauses;
    s.backtrack_to_base();
    s.forget_learnts_in_cones(Solver::cone_bit(1), &[Lit::neg(g1)]);
    assert!(s.stats().deleted_clauses > deleted_before, "cone forget must delete lemmas");

    // Subsequent UNSAT verdicts — both for the surviving cone and for the
    // forgotten one (forcing re-derivation) — must certify.
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g2), Lit::neg(g1)]), SatResult::Unsat);
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g1), Lit::neg(g2)]), SatResult::Unsat);
    let summary = validate(&s, "cone-forget");
    assert_eq!(summary.unsat_checks, 3);
}

#[test]
fn proof_survives_search_reset() {
    // reset_search_state wipes activities and phases but keeps the clause
    // DB; the proof log must be untouched and the next verdict checkable.
    let mut s = Solver::new();
    s.enable_proof();
    let g = guarded_php(&mut s, 5);
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
    let steps_before = s.proof().unwrap().num_steps();
    s.backtrack_to_base();
    s.reset_search_state();
    assert_eq!(s.proof().unwrap().num_steps(), steps_before, "reset must not touch the log");
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
    let summary = validate(&s, "search-reset");
    assert_eq!(summary.unsat_checks, 2);
}

#[test]
fn sat_verdicts_carry_replayable_models() {
    let mut s = Solver::new();
    s.enable_proof();
    let g = guarded_php(&mut s, 4);
    assert_eq!(s.solve_with_assumptions(&[Lit::neg(g)]), SatResult::Sat);
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
    assert_eq!(s.solve_with_assumptions(&[Lit::neg(g)]), SatResult::Sat);
    let summary = validate(&s, "sat-models");
    assert_eq!(summary.sat_checks, 2);
    assert_eq!(summary.unsat_checks, 1);
}

#[test]
fn per_check_slices_validate_independently() {
    // The session pool exports one slice per sub-query: the full shared
    // step log plus only that sub-query's check records. Every slice must
    // validate on its own.
    let mut s = Solver::new();
    s.enable_proof();
    let g1 = guarded_php(&mut s, 4);
    let g2 = guarded_php(&mut s, 4);
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g1), Lit::neg(g2)]), SatResult::Unsat);
    let watermark = s.proof().unwrap().num_checks();
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g2), Lit::neg(g1)]), SatResult::Unsat);
    assert_eq!(s.solve_with_assumptions(&[Lit::neg(g1), Lit::neg(g2)]), SatResult::Sat);

    let tail = s.proof_session(watermark).expect("proof logging enabled");
    assert_eq!(tail.checks.len(), 2, "only the post-watermark checks");
    let bundle = CertificateBundle { label: "slice".to_string(), sessions: vec![tail] };
    let summary = check_bundle(&bundle).expect("the slice must validate on its own");
    assert_eq!(summary.unsat_checks, 1);
    assert_eq!(summary.sat_checks, 1);
}

#[test]
fn mutated_certificate_is_rejected() {
    // Flip the assumption polarity of a recorded UNSAT check: the claim
    // becomes "unsatisfiable under ¬g", which is false (the guarded
    // instance is satisfiable with the guard off), so the checker must
    // refuse the derivation.
    let mut s = Solver::new();
    s.enable_proof();
    let g = guarded_php(&mut s, 4);
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
    let mut session = s.proof_session(0).unwrap();
    validate(&s, "pre-mutation");
    for check in &mut session.checks {
        if matches!(check.outcome, Outcome::Unsat) {
            for a in &mut check.assumptions {
                *a = -*a;
            }
        }
    }
    let bundle = CertificateBundle { label: "mutated".to_string(), sessions: vec![session] };
    assert!(check_bundle(&bundle).is_err(), "flipped assumptions must be rejected");
}

#[test]
fn certificates_roundtrip_through_text_format() {
    let mut s = Solver::new();
    s.enable_proof();
    s.set_max_learnts(20.0);
    let g = guarded_php(&mut s, 5);
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(g)]), SatResult::Unsat);
    assert_eq!(s.solve_with_assumptions(&[Lit::neg(g)]), SatResult::Sat);
    let bundle = CertificateBundle {
        label: "roundtrip".to_string(),
        sessions: vec![s.proof_session(0).unwrap()],
    };
    let text = vmn_check::write_bundles(std::slice::from_ref(&bundle));
    let parsed = vmn_check::parse_bundles(&text).expect("engine output must parse");
    assert_eq!(parsed.len(), 1);
    let summary = check_bundle(&parsed[0]).expect("parsed certificate must check");
    assert_eq!(summary.unsat_checks, 1);
    assert_eq!(summary.sat_checks, 1);
}

//! The trusted certificate checker for VMN verdicts.
//!
//! The verification engine (SAT core, bit-blaster, clustered sweeps,
//! assumption-based scenario checks) is a large, aggressively optimised codebase — exactly
//! the kind of code where a silently wrong UNSAT answer is plausible. This
//! crate is the other half of the certificate discipline: the *untrusted*
//! engine emits a small proof for every verdict, and this *trusted* checker
//! — plain data types, unit propagation and clause evaluation, no solver
//! code, no dependencies — validates it. "Checker accepts" then implies the
//! verdict without trusting the engine.
//!
//! A certificate bundle ([`CertificateBundle`]) holds one proof per solver
//! session ([`SessionProof`]): an append-only DRAT-style step log (clause
//! additions with LRAT-style antecedent hints, clause deletions) plus the
//! per-check verdict records ([`CheckRecord`]) taken against prefixes of
//! that log. Because the log is append-only and every record carries its
//! prefix length, each scenario checked on a shared cluster session is
//! checkable on its own — the engine's session sharing does not degrade
//! checkability.
//!
//! Literals use the DIMACS convention: variable `v` (0-based in the engine)
//! appears as the integer `v + 1`, negated literals are negative, `0` never
//! appears.
//!
//! Soundness argument, in brief:
//! * *Inputs* are the problem statement and the only trusted clauses: the
//!   engine's CNF encoding (Tseitin and bit-blast clauses), as handed to
//!   the SAT core. The checker takes them as the formula under test — it
//!   checks the *reasoning*, not the encoding (the encoding is
//!   cross-validated separately by replaying SAT witnesses on the concrete
//!   simulator). Every other clause in a certificate is checked.
//! * *Derived* clauses must pass reverse unit propagation (RUP) against the
//!   live clause database: assuming every literal of the clause false must
//!   yield a conflict by unit propagation alone. RUP-derivable clauses are
//!   logically implied, so the database only ever grows by consequences.
//! * *Deletions* only remove clauses, which can never make an
//!   unsatisfiable set satisfiable; root (level-zero) facts derived before
//!   a deletion are consequences of the formula and are soundly retained.
//! * An *UNSAT under assumptions A* record is valid iff the clause
//!   `{¬a | a ∈ A}` is RUP at the record's log prefix — i.e. the formula
//!   implies the assumptions cannot hold together.
//! * A *SAT* record is valid iff the recorded full assignment satisfies
//!   every live clause of the prefix plus every assumption.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;

/// A literal in DIMACS convention: non-zero, `|lit| - 1` is the engine's
/// variable index, negative means negated.
pub type PLit = i32;

/// Identifier of a clause in the proof log. Ids are assigned by the engine,
/// start at 1 and increase by 1 per added clause (inputs and derived
/// clauses share one counter).
pub type ClauseId = u32;

/// One line of the DRAT-style proof log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// An original clause of the engine's CNF encoding, as handed to the
    /// SAT core (pre-normalisation). Part of the trusted problem statement.
    Input { id: ClauseId, lits: Vec<PLit> },
    /// A learnt clause. Must be RUP against the live database; `hints`
    /// lists antecedent clause ids (the conflict clause and the reasons
    /// resolved during analysis) so checking is near-linear in practice.
    Derived { id: ClauseId, lits: Vec<PLit>, hints: Vec<ClauseId> },
    /// Deletion of a previously added clause.
    Delete { id: ClauseId },
}

/// Claimed outcome of one solver check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Unsatisfiable under the record's assumptions.
    Unsat,
    /// Satisfiable; `model` is the full assignment (indexed by variable,
    /// `model[v]` is the value of DIMACS variable `v + 1`).
    Sat { model: Vec<bool> },
}

/// One solver check (one `check_assuming` call) against a prefix of the
/// session's step log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckRecord {
    /// Number of leading steps of [`SessionProof::steps`] in force when
    /// this check concluded (learnt clauses derived *during* the check are
    /// part of the prefix).
    pub steps_upto: usize,
    /// Assumption literals of the check.
    pub assumptions: Vec<PLit>,
    pub outcome: Outcome,
}

/// The proof emitted by one solver session: a shared append-only step log
/// plus every check taken against it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionProof {
    /// Total number of variables ever allocated in the session; every
    /// literal in the log satisfies `1 <= |lit| <= num_vars`.
    pub num_vars: u32,
    pub steps: Vec<ProofStep>,
    /// Check records ordered by `steps_upto` (the engine appends them in
    /// solve order, which is prefix order).
    pub checks: Vec<CheckRecord>,
}

/// A certificate for one verification report: one proof per solver session
/// the engine touched while producing the verdict.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CertificateBundle {
    /// Human-readable provenance (invariant name, engine configuration).
    pub label: String,
    pub sessions: Vec<SessionProof>,
}

/// Why a certificate was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A clause id was added twice.
    DuplicateId { session: usize, id: ClauseId },
    /// A deletion referenced an id that is not live.
    UnknownClause { session: usize, id: ClauseId },
    /// A literal was zero or referenced a variable `>= num_vars`.
    BadLiteral { session: usize, lit: PLit },
    /// A derived clause failed reverse unit propagation.
    NotRup { session: usize, id: ClauseId },
    /// An UNSAT record's negated-assumptions clause is not derivable by
    /// unit propagation from the record's log prefix.
    UnsatNotDerivable { session: usize, check: usize },
    /// A SAT record's model fails to satisfy the live clauses or the
    /// assumptions.
    BadModel { session: usize, check: usize, detail: String },
    /// Structurally malformed certificate (unordered records, prefix out
    /// of range, unparsable text, ...).
    Malformed(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::DuplicateId { session, id } => {
                write!(f, "session {session}: clause id {id} added twice")
            }
            CheckError::UnknownClause { session, id } => {
                write!(f, "session {session}: deletion of unknown clause {id}")
            }
            CheckError::BadLiteral { session, lit } => {
                write!(f, "session {session}: literal {lit} out of range")
            }
            CheckError::NotRup { session, id } => {
                write!(f, "session {session}: derived clause {id} is not RUP")
            }
            CheckError::UnsatNotDerivable { session, check } => {
                write!(f, "session {session}: UNSAT record {check} not derivable")
            }
            CheckError::BadModel { session, check, detail } => {
                write!(f, "session {session}: SAT record {check}: {detail}")
            }
            CheckError::Malformed(m) => write!(f, "malformed certificate: {m}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// What a successfully checked bundle established.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BundleSummary {
    pub sessions: usize,
    pub steps: usize,
    /// Total validated check records.
    pub checks: usize,
    pub sat_checks: usize,
    pub unsat_checks: usize,
}

// ---------------------------------------------------------------------------
// The checker proper.
// ---------------------------------------------------------------------------

const TRUE: i8 = 1;
const FALSE: i8 = -1;
const UNDEF: i8 = 0;

/// Clause database + monotone root assignment for one session.
///
/// The root assignment is the unit-propagation fixpoint of everything
/// added so far; it is *not* retracted on deletions (root facts are
/// consequences of the formula — standard forward-DRAT-checker behaviour,
/// and exactly mirrors the engine, whose level-zero trail also survives
/// learnt-clause GC).
struct Checker {
    session: usize,
    num_vars: usize,
    /// Root assignment overlaid with the temporary literals of an
    /// in-flight RUP check (which are tracked on `trail` and undone).
    assign: Vec<i8>,
    trail: Vec<PLit>,
    clauses: HashMap<ClauseId, Vec<PLit>>,
    /// Occurrence lists: literal -> ids of (possibly deleted) clauses
    /// containing it. Deleted ids are skipped lazily.
    occurs: HashMap<PLit, Vec<ClauseId>>,
    /// Set once unit propagation at the root derives a conflict: the
    /// formula itself (under no assumptions) is unsatisfiable from here on.
    root_conflict: bool,
}

impl Checker {
    fn new(session: usize, num_vars: u32) -> Checker {
        Checker {
            session,
            num_vars: num_vars as usize,
            assign: vec![UNDEF; num_vars as usize],
            trail: Vec::new(),
            clauses: HashMap::new(),
            occurs: HashMap::new(),
            root_conflict: false,
        }
    }

    fn check_lit(&self, l: PLit) -> Result<(), CheckError> {
        let v = l.unsigned_abs() as usize;
        if l == 0 || v > self.num_vars {
            return Err(CheckError::BadLiteral { session: self.session, lit: l });
        }
        Ok(())
    }

    #[inline]
    fn val(&self, l: PLit) -> i8 {
        let a = self.assign[(l.unsigned_abs() - 1) as usize];
        if l > 0 {
            a
        } else {
            -a
        }
    }

    #[inline]
    fn set_true(&mut self, l: PLit, temp: bool) {
        self.assign[(l.unsigned_abs() - 1) as usize] = if l > 0 { TRUE } else { FALSE };
        if temp {
            self.trail.push(l);
        }
    }

    fn undo_trail(&mut self) {
        while let Some(l) = self.trail.pop() {
            self.assign[(l.unsigned_abs() - 1) as usize] = UNDEF;
        }
    }

    /// Unit-propagates to fixpoint from the given newly true literals
    /// (which must already be set). Returns `true` on conflict. With
    /// `temp`, every assignment is recorded on the trail for undoing.
    fn propagate(&mut self, mut queue: Vec<PLit>, temp: bool) -> bool {
        let mut qi = 0;
        while qi < queue.len() {
            let l = queue[qi];
            qi += 1;
            // Clauses containing ¬l may have become unit or false.
            let Some(ids) = self.occurs.get(&-l) else { continue };
            let ids = ids.clone();
            for cid in ids {
                let Some(cl) = self.clauses.get(&cid) else { continue };
                let mut unassigned: Option<PLit> = None;
                let mut open = 0usize;
                let mut satisfied = false;
                for &q in cl {
                    match self.val(q) {
                        TRUE => {
                            satisfied = true;
                            break;
                        }
                        UNDEF if unassigned != Some(q) => {
                            open += 1;
                            unassigned = Some(q);
                        }
                        _ => {}
                    }
                }
                if satisfied || open > 1 {
                    continue;
                }
                match unassigned {
                    None => return true,
                    Some(u) => {
                        self.set_true(u, temp);
                        queue.push(u);
                    }
                }
            }
        }
        false
    }

    /// Adds a clause to the database and advances the root assignment.
    fn add_clause(&mut self, id: ClauseId, lits: &[PLit]) -> Result<(), CheckError> {
        if self.clauses.contains_key(&id) {
            return Err(CheckError::DuplicateId { session: self.session, id });
        }
        for &l in lits {
            self.check_lit(l)?;
        }
        for &l in lits {
            let entry = self.occurs.entry(l).or_default();
            if entry.last() != Some(&id) {
                entry.push(id);
            }
        }
        self.clauses.insert(id, lits.to_vec());
        // Root propagation: a clause unit (or empty) under the root
        // assignment commits its consequence permanently.
        let mut unassigned: Option<PLit> = None;
        let mut open = 0usize;
        let mut satisfied = false;
        for &q in lits {
            match self.val(q) {
                TRUE => {
                    satisfied = true;
                    break;
                }
                UNDEF if unassigned != Some(q) => {
                    open += 1;
                    unassigned = Some(q);
                }
                _ => {}
            }
        }
        if satisfied || open > 1 {
            return Ok(());
        }
        // A tautology (q and ¬q both unassigned) counts both as open; a
        // clause reaching here is genuinely empty or unit at the root.
        match unassigned {
            None => self.root_conflict = true,
            Some(u) => {
                self.set_true(u, false);
                if self.propagate(vec![u], false) {
                    self.root_conflict = true;
                }
            }
        }
        Ok(())
    }

    fn delete_clause(&mut self, id: ClauseId) -> Result<(), CheckError> {
        match self.clauses.remove(&id) {
            Some(_) => Ok(()),
            None => Err(CheckError::UnknownClause { session: self.session, id }),
        }
    }

    /// Reverse unit propagation: is the clause a UP-consequence of the
    /// live database? Tries hinted antecedents first (a few passes over
    /// the hint list), then falls back to full propagation.
    fn rup(&mut self, lits: &[PLit], hints: &[ClauseId]) -> bool {
        if self.root_conflict {
            return true;
        }
        // Assume every literal of the clause false.
        for &l in lits {
            match self.val(l) {
                // A literal already true at the root: the clause is a
                // direct consequence of root facts.
                TRUE => {
                    self.undo_trail();
                    return true;
                }
                FALSE => {}
                _ => self.set_true(-l, true),
            }
        }
        // Hinted phase: iterate the hint clauses to fixpoint. Hints are
        // advisory — if they do not close the proof we fall back below.
        let mut changed = true;
        while changed {
            changed = false;
            for &h in hints {
                let Some(cl) = self.clauses.get(&h) else { continue };
                let mut unassigned: Option<PLit> = None;
                let mut open = 0usize;
                let mut satisfied = false;
                for &q in cl {
                    match self.val(q) {
                        TRUE => {
                            satisfied = true;
                            break;
                        }
                        UNDEF if unassigned != Some(q) => {
                            open += 1;
                            unassigned = Some(q);
                        }
                        _ => {}
                    }
                }
                if satisfied || open > 1 {
                    continue;
                }
                match unassigned {
                    None => {
                        self.undo_trail();
                        return true;
                    }
                    Some(u) => {
                        self.set_true(u, true);
                        changed = true;
                    }
                }
            }
        }
        // Fallback: full unit propagation over the whole database from
        // everything assumed or derived so far.
        let queue: Vec<PLit> = self.trail.clone();
        let conflict = self.propagate(queue, true);
        self.undo_trail();
        conflict
    }

    fn apply_step(&mut self, step: &ProofStep) -> Result<(), CheckError> {
        match step {
            ProofStep::Input { id, lits } => self.add_clause(*id, lits),
            ProofStep::Derived { id, lits, hints } => {
                for &l in lits {
                    self.check_lit(l)?;
                }
                if !self.rup(lits, hints) {
                    return Err(CheckError::NotRup { session: self.session, id: *id });
                }
                self.add_clause(*id, lits)
            }
            ProofStep::Delete { id } => self.delete_clause(*id),
        }
    }

    fn apply_check(&mut self, idx: usize, rec: &CheckRecord) -> Result<(), CheckError> {
        for &a in &rec.assumptions {
            self.check_lit(a)?;
        }
        match &rec.outcome {
            Outcome::Unsat => {
                // The verdict claims the formula implies ¬(a1 ∧ ... ∧ ak),
                // i.e. the clause {¬a1, ..., ¬ak} — which must be RUP.
                let negated: Vec<PLit> = rec.assumptions.iter().map(|&a| -a).collect();
                if !self.rup(&negated, &[]) {
                    return Err(CheckError::UnsatNotDerivable {
                        session: self.session,
                        check: idx,
                    });
                }
                Ok(())
            }
            Outcome::Sat { model } => {
                let bad = |detail: String| CheckError::BadModel {
                    session: self.session,
                    check: idx,
                    detail,
                };
                if self.root_conflict {
                    return Err(bad("claimed SAT after a root-level conflict".into()));
                }
                let sat_lit = |l: PLit| -> Result<bool, CheckError> {
                    let v = (l.unsigned_abs() - 1) as usize;
                    let b = *model
                        .get(v)
                        .ok_or_else(|| bad(format!("model does not assign variable {}", v + 1)))?;
                    Ok(if l > 0 { b } else { !b })
                };
                for (&id, cl) in &self.clauses {
                    let mut ok = false;
                    for &q in cl {
                        if sat_lit(q)? {
                            ok = true;
                            break;
                        }
                    }
                    if !ok {
                        return Err(bad(format!("model falsifies clause {id}")));
                    }
                }
                for &a in &rec.assumptions {
                    if !sat_lit(a)? {
                        return Err(bad(format!("model falsifies assumption {a}")));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Validates one session proof. On success every check record's claimed
/// outcome is established by the log.
pub fn check_session(session_idx: usize, s: &SessionProof) -> Result<(), CheckError> {
    let mut ck = Checker::new(session_idx, s.num_vars);
    let mut next_check = 0usize;
    let mut last_upto = 0usize;
    for (i, rec) in s.checks.iter().enumerate() {
        if rec.steps_upto > s.steps.len() {
            return Err(CheckError::Malformed(format!(
                "session {session_idx}: check {i} references log prefix {} of {}",
                rec.steps_upto,
                s.steps.len()
            )));
        }
        if rec.steps_upto < last_upto {
            return Err(CheckError::Malformed(format!(
                "session {session_idx}: check records out of prefix order at {i}"
            )));
        }
        last_upto = rec.steps_upto;
    }
    for (i, step) in s.steps.iter().enumerate() {
        while next_check < s.checks.len() && s.checks[next_check].steps_upto == i {
            ck.apply_check(next_check, &s.checks[next_check])?;
            next_check += 1;
        }
        ck.apply_step(step)?;
    }
    while next_check < s.checks.len() {
        ck.apply_check(next_check, &s.checks[next_check])?;
        next_check += 1;
    }
    Ok(())
}

/// Validates a whole certificate bundle.
pub fn check_bundle(bundle: &CertificateBundle) -> Result<BundleSummary, CheckError> {
    let mut summary = BundleSummary { sessions: bundle.sessions.len(), ..Default::default() };
    for (i, s) in bundle.sessions.iter().enumerate() {
        check_session(i, s)?;
        summary.steps += s.steps.len();
        summary.checks += s.checks.len();
        for rec in &s.checks {
            match rec.outcome {
                Outcome::Unsat => summary.unsat_checks += 1,
                Outcome::Sat { .. } => summary.sat_checks += 1,
            }
        }
    }
    Ok(summary)
}

// ---------------------------------------------------------------------------
// Text serialisation of certificate bundles.
// ---------------------------------------------------------------------------

/// File header identifying a serialised certificate bundle set; sniff the
/// first line against this to distinguish certificate files from network
/// descriptions.
pub const CERT_HEADER: &str = "vmn-cert v1";

/// Serialises bundles to the line-based text format:
///
/// ```text
/// vmn-cert v1
/// bundle <label>
/// session <num_vars>
/// i <lit>* 0            input clause       (ids implicit, 1, 2, ...)
/// l <lit>* 0 <hint>*    derived clause with antecedent hints
/// d <id>                deletion
/// u <lit>* 0            UNSAT check under the given assumptions
/// m <lit>* 0 <bits>     SAT check: assumptions, then the model as 0/1
/// end
/// ```
///
/// Clause ids are implicit in the file (sequential from 1 per session, in
/// add order) — which is exactly how the engine assigns them.
pub fn write_bundles(bundles: &[CertificateBundle]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{CERT_HEADER}");
    for b in bundles {
        let _ = writeln!(out, "bundle {}", b.label);
        for s in &b.sessions {
            let _ = writeln!(out, "session {}", s.num_vars);
            let mut emitted = Vec::new();
            let mut next_check = 0usize;
            let emit_checks_upto = |upto: usize, out: &mut String, next_check: &mut usize| {
                while *next_check < s.checks.len() && s.checks[*next_check].steps_upto == upto {
                    let rec = &s.checks[*next_check];
                    *next_check += 1;
                    match &rec.outcome {
                        Outcome::Unsat => {
                            let _ = write!(out, "u");
                            for &a in &rec.assumptions {
                                let _ = write!(out, " {a}");
                            }
                            let _ = writeln!(out, " 0");
                        }
                        Outcome::Sat { model } => {
                            let _ = write!(out, "m");
                            for &a in &rec.assumptions {
                                let _ = write!(out, " {a}");
                            }
                            let _ = write!(out, " 0 ");
                            for &b in model {
                                out.push(if b { '1' } else { '0' });
                            }
                            let _ = writeln!(out);
                        }
                    }
                }
            };
            for (i, step) in s.steps.iter().enumerate() {
                emit_checks_upto(i, &mut out, &mut next_check);
                match step {
                    ProofStep::Input { id, lits } => {
                        emitted.push(*id);
                        let _ = write!(out, "i");
                        for &l in lits {
                            let _ = write!(out, " {l}");
                        }
                        let _ = writeln!(out, " 0");
                    }
                    ProofStep::Derived { id, lits, hints } => {
                        emitted.push(*id);
                        let _ = write!(out, "l");
                        for &l in lits {
                            let _ = write!(out, " {l}");
                        }
                        let _ = write!(out, " 0");
                        for &h in hints {
                            let _ = write!(out, " {h}");
                        }
                        let _ = writeln!(out);
                    }
                    ProofStep::Delete { id } => {
                        let _ = writeln!(out, "d {id}");
                    }
                }
            }
            emit_checks_upto(s.steps.len(), &mut out, &mut next_check);
            debug_assert!(
                emitted.iter().enumerate().all(|(i, &id)| id as usize == i + 1),
                "engine clause ids are sequential from 1"
            );
        }
        let _ = writeln!(out, "end");
    }
    out
}

/// Parses the output of [`write_bundles`].
pub fn parse_bundles(text: &str) -> Result<Vec<CertificateBundle>, CheckError> {
    let mal = |m: String| CheckError::Malformed(m);
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == CERT_HEADER => {}
        _ => return Err(mal(format!("missing '{CERT_HEADER}' header"))),
    }
    let mut bundles: Vec<CertificateBundle> = Vec::new();
    let mut open_bundle: Option<CertificateBundle> = None;
    // Ids are implicit in the file: sequential from 1 per session.
    let mut next_add_id: ClauseId = 1;

    fn parse_lits<'a>(
        toks: &mut impl Iterator<Item = &'a str>,
        ln: usize,
    ) -> Result<Vec<PLit>, CheckError> {
        let mut lits = Vec::new();
        for t in toks.by_ref() {
            let v: PLit = t
                .parse()
                .map_err(|_| CheckError::Malformed(format!("line {ln}: bad literal '{t}'")))?;
            if v == 0 {
                return Ok(lits);
            }
            lits.push(v);
        }
        Err(CheckError::Malformed(format!("line {ln}: missing terminating 0")))
    }

    for (idx, raw) in lines {
        let ln = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_ascii_whitespace();
        let tag = toks.next().expect("non-empty line");
        match tag {
            "bundle" => {
                if let Some(b) = open_bundle.take() {
                    bundles.push(b);
                }
                let label = line.strip_prefix("bundle").unwrap_or("").trim().to_string();
                open_bundle = Some(CertificateBundle { label, sessions: Vec::new() });
            }
            "end" => {
                let b = open_bundle
                    .take()
                    .ok_or_else(|| mal(format!("line {ln}: 'end' outside a bundle")))?;
                bundles.push(b);
            }
            "session" => {
                let b = open_bundle
                    .as_mut()
                    .ok_or_else(|| mal(format!("line {ln}: 'session' outside a bundle")))?;
                let nv: u32 = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| mal(format!("line {ln}: bad session header")))?;
                b.sessions.push(SessionProof { num_vars: nv, ..Default::default() });
                next_add_id = 1;
            }
            "i" | "l" | "d" | "u" | "m" => {
                let s = open_bundle
                    .as_mut()
                    .and_then(|b| b.sessions.last_mut())
                    .ok_or_else(|| mal(format!("line {ln}: step outside a session")))?;
                match tag {
                    "i" => {
                        let lits = parse_lits(&mut toks, ln)?;
                        s.steps.push(ProofStep::Input { id: next_add_id, lits });
                        next_add_id += 1;
                    }
                    "l" => {
                        let lits = parse_lits(&mut toks, ln)?;
                        let mut hints = Vec::new();
                        for t in toks.by_ref() {
                            let h: ClauseId = t.parse().map_err(|_| {
                                CheckError::Malformed(format!("line {ln}: bad hint '{t}'"))
                            })?;
                            hints.push(h);
                        }
                        s.steps.push(ProofStep::Derived { id: next_add_id, lits, hints });
                        next_add_id += 1;
                    }
                    "d" => {
                        let id: ClauseId = toks
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| mal(format!("line {ln}: bad deletion")))?;
                        s.steps.push(ProofStep::Delete { id });
                    }
                    "u" => {
                        let assumptions = parse_lits(&mut toks, ln)?;
                        s.checks.push(CheckRecord {
                            steps_upto: s.steps.len(),
                            assumptions,
                            outcome: Outcome::Unsat,
                        });
                    }
                    "m" => {
                        let assumptions = parse_lits(&mut toks, ln)?;
                        let bits = toks.next().unwrap_or("");
                        let mut model = Vec::with_capacity(bits.len());
                        for c in bits.chars() {
                            match c {
                                '0' => model.push(false),
                                '1' => model.push(true),
                                _ => {
                                    return Err(mal(format!("line {ln}: bad model bit '{c}'")));
                                }
                            }
                        }
                        s.checks.push(CheckRecord {
                            steps_upto: s.steps.len(),
                            assumptions,
                            outcome: Outcome::Sat { model },
                        });
                    }
                    _ => unreachable!(),
                }
            }
            other => return Err(mal(format!("line {ln}: unknown tag '{other}'"))),
        }
    }
    if open_bundle.is_some() {
        return Err(mal("unterminated bundle (missing 'end')".into()));
    }
    Ok(bundles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(num_vars: u32, steps: Vec<ProofStep>, checks: Vec<CheckRecord>) -> SessionProof {
        SessionProof { num_vars, steps, checks }
    }

    fn input(id: ClauseId, lits: &[PLit]) -> ProofStep {
        ProofStep::Input { id, lits: lits.to_vec() }
    }

    fn derived(id: ClauseId, lits: &[PLit], hints: &[ClauseId]) -> ProofStep {
        ProofStep::Derived { id, lits: lits.to_vec(), hints: hints.to_vec() }
    }

    #[test]
    fn unsat_by_root_conflict() {
        // x, ¬x: adding both propagates to a root conflict; an UNSAT check
        // with no assumptions is then derivable.
        let s = session(
            1,
            vec![input(1, &[1]), input(2, &[-1])],
            vec![CheckRecord { steps_upto: 2, assumptions: vec![], outcome: Outcome::Unsat }],
        );
        check_session(0, &s).unwrap();
    }

    #[test]
    fn unsat_under_assumptions_by_rup() {
        // (¬a ∨ x) ∧ (¬a ∨ ¬x): UNSAT under assumption a, SAT otherwise.
        let s = session(
            2,
            vec![input(1, &[-1, 2]), input(2, &[-1, -2])],
            vec![CheckRecord { steps_upto: 2, assumptions: vec![1], outcome: Outcome::Unsat }],
        );
        check_session(0, &s).unwrap();
    }

    #[test]
    fn derived_clause_rup_with_hints() {
        // From (a ∨ b), (¬b ∨ c), (¬a ∨ c): derive c.
        let s = session(
            3,
            vec![
                input(1, &[1, 2]),
                input(2, &[-2, 3]),
                input(3, &[-1, 3]),
                derived(4, &[3], &[1, 2, 3]),
            ],
            vec![],
        );
        check_session(0, &s).unwrap();
    }

    #[test]
    fn derived_clause_rup_without_hints_falls_back() {
        let s = session(
            3,
            vec![input(1, &[1, 2]), input(2, &[-2, 3]), input(3, &[-1, 3]), derived(4, &[3], &[])],
            vec![],
        );
        check_session(0, &s).unwrap();
    }

    #[test]
    fn non_rup_derivation_rejected() {
        // c does not follow from (a ∨ b) alone.
        let s = session(3, vec![input(1, &[1, 2]), derived(2, &[3], &[1])], vec![]);
        assert_eq!(check_session(0, &s), Err(CheckError::NotRup { session: 0, id: 2 }));
    }

    #[test]
    fn deletion_does_not_retract_root_facts() {
        // Unit x propagated at the root, then its clause deleted: a later
        // UNSAT under assumption ¬x must still be derivable.
        let s = session(
            1,
            vec![input(1, &[1]), ProofStep::Delete { id: 1 }],
            vec![CheckRecord { steps_upto: 2, assumptions: vec![-1], outcome: Outcome::Unsat }],
        );
        check_session(0, &s).unwrap();
    }

    #[test]
    fn deleting_unknown_clause_rejected() {
        let s = session(1, vec![ProofStep::Delete { id: 7 }], vec![]);
        assert_eq!(check_session(0, &s), Err(CheckError::UnknownClause { session: 0, id: 7 }));
    }

    #[test]
    fn sat_model_checked_against_live_clauses() {
        let good = session(
            2,
            vec![input(1, &[1, 2]), input(2, &[-1, 2])],
            vec![CheckRecord {
                steps_upto: 2,
                assumptions: vec![1],
                outcome: Outcome::Sat { model: vec![true, true] },
            }],
        );
        check_session(0, &good).unwrap();

        let bad = session(
            2,
            vec![input(1, &[1, 2]), input(2, &[-1, 2])],
            vec![CheckRecord {
                steps_upto: 2,
                assumptions: vec![1],
                outcome: Outcome::Sat { model: vec![true, false] },
            }],
        );
        assert!(matches!(check_session(0, &bad), Err(CheckError::BadModel { .. })));
    }

    #[test]
    fn sat_model_must_satisfy_assumptions() {
        let s = session(
            2,
            vec![input(1, &[1, 2])],
            vec![CheckRecord {
                steps_upto: 1,
                assumptions: vec![2],
                outcome: Outcome::Sat { model: vec![true, false] },
            }],
        );
        assert!(matches!(check_session(0, &s), Err(CheckError::BadModel { .. })));
    }

    #[test]
    fn check_prefix_semantics() {
        // The UNSAT check sits *before* the clause that would make the
        // formula unsatisfiable — it must be judged against its prefix
        // only, and rejected.
        let s = session(
            1,
            vec![input(1, &[1]), input(2, &[-1])],
            vec![CheckRecord { steps_upto: 1, assumptions: vec![], outcome: Outcome::Unsat }],
        );
        assert_eq!(
            check_session(0, &s),
            Err(CheckError::UnsatNotDerivable { session: 0, check: 0 })
        );
        // Same formula, SAT at the prefix with x = true: accepted.
        let s2 = session(
            1,
            vec![input(1, &[1]), input(2, &[-1])],
            vec![CheckRecord {
                steps_upto: 1,
                assumptions: vec![],
                outcome: Outcome::Sat { model: vec![true] },
            }],
        );
        check_session(0, &s2).unwrap();
    }

    #[test]
    fn bad_literal_rejected() {
        let s = session(1, vec![input(1, &[2])], vec![]);
        assert_eq!(check_session(0, &s), Err(CheckError::BadLiteral { session: 0, lit: 2 }));
    }

    #[test]
    fn text_roundtrip() {
        let bundle = CertificateBundle {
            label: "node-isolation(a0, b0) [clustered]".into(),
            sessions: vec![session(
                3,
                vec![
                    input(1, &[1, 2]),
                    input(2, &[-2, 3]),
                    derived(3, &[1, 3], &[1, 2]),
                    ProofStep::Delete { id: 3 },
                ],
                vec![
                    CheckRecord {
                        steps_upto: 3,
                        assumptions: vec![-3],
                        outcome: Outcome::Sat { model: vec![true, false, false] },
                    },
                    CheckRecord {
                        steps_upto: 4,
                        assumptions: vec![-1, -3],
                        outcome: Outcome::Unsat,
                    },
                ],
            )],
        };
        let text = write_bundles(std::slice::from_ref(&bundle));
        let parsed = parse_bundles(&text).unwrap();
        assert_eq!(parsed, vec![bundle]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_bundles("not a cert").is_err());
        assert!(parse_bundles("vmn-cert v1\nbundle x\nsession 1\ni 1").is_err());
        assert!(parse_bundles("vmn-cert v1\nbundle x\nsession 1\nq 1 0\nend").is_err());
        assert!(parse_bundles("vmn-cert v1\nbundle x").is_err());
    }

    #[test]
    fn unchecked_axiom_lines_are_refused() {
        // An `a` (axiom) line would add a clause the checker never checks;
        // the format has no such step, and a file carrying one is refused.
        let text = "vmn-cert v1\nbundle x\nsession 2\ni 1 2 0\na 1 -2 0\nu -1 0\nend\n";
        match parse_bundles(text) {
            Err(CheckError::Malformed(m)) => {
                assert!(m.contains("line 5") && m.contains("'a'"), "{m}")
            }
            other => panic!("expected a malformed-certificate error, got {other:?}"),
        }
    }

    #[test]
    fn mutated_proof_rejected() {
        // A valid session: derive unit 3 from three clauses, then UNSAT
        // under ¬3.
        let good = session(
            3,
            vec![
                input(1, &[1, 2]),
                input(2, &[-2, 3]),
                input(3, &[-1, 3]),
                derived(4, &[3], &[1, 2, 3]),
            ],
            vec![CheckRecord { steps_upto: 4, assumptions: vec![-3], outcome: Outcome::Unsat }],
        );
        check_session(0, &good).unwrap();

        // Mutation 1: flip a literal in the derived clause.
        let mut m1 = good.clone();
        m1.steps[3] = derived(4, &[-3], &[1, 2, 3]);
        assert!(check_session(0, &m1).is_err());

        // Mutation 2: drop an input clause the derivation needs.
        let mut m2 = good.clone();
        m2.steps.remove(2);
        assert!(check_session(0, &m2).is_err());

        // Mutation 3: claim UNSAT under an assumption nothing refutes.
        let mut m3 = good.clone();
        m3.checks[0].assumptions = vec![1];
        assert!(check_session(0, &m3).is_err());
    }
}

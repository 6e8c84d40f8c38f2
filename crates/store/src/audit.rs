//! History audit: replay what the store committed and re-verify it on the
//! *other* side of the paper's comparison.
//!
//! The executor commits through the statically guarded path
//! (`if wpc(T, α) then T else abort`); the audit replays the committed
//! history through the [replay kernel](crate::replay), which re-runs every
//! commit on the run-time check-and-rollback path ([`RuntimeChecked`]), and
//! demands that the two agree everywhere:
//!
//! * commit versions are gapless and in log order — the log order *is* a
//!   serialization, and replaying it must reproduce every recorded root
//!   hash and the final state;
//! * every replayed commit passes the deferred `α` check (so `α` holds at
//!   every committed version — zero constraint violations);
//! * every commit's write set matches its program's writes;
//!
//! all of which the kernel checks, and, on top of it:
//!
//! * every commit's recorded prepared-statement provenance — the shape id
//!   and binding vector threaded through the pipeline — is what the client
//!   submitted (when the submitted programs are known) and what its
//!   `Begin` recorded;
//! * every commit was preceded by a passing guard evaluation at the
//!   version it validated against, and every abort's failing guard agrees
//!   with check-and-rollback at the version it observed.
//!
//! The audit collects every fault instead of stopping at the first. A
//! tampered history — a reordered commit, a forged hash, a commit the
//! guard never passed, a forged binding — is rejected with a concrete
//! complaint.

use crate::history::Event;
use crate::replay::{self, Recovered, RecoveryError, Replayer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use vpdt_core::safe::RuntimeChecked;
use vpdt_eval::{holds, Omega};
use vpdt_logic::{Elem, Formula};
use vpdt_structure::Database;
use vpdt_tx::program::{Program, ProgramTransaction};
use vpdt_tx::template::Template;
use vpdt_tx::traits::{Transaction, TxError};

/// What the audit found.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Complaints; empty means the history verified.
    pub problems: Vec<String>,
    /// Commits replayed.
    pub commits_checked: usize,
    /// Aborts cross-checked against the rollback path.
    pub aborts_checked: usize,
}

impl AuditReport {
    /// Whether the history verified.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    fn check_final(&mut self, replayed: &Database, final_db: &Database) {
        if replayed != final_db {
            self.problems
                .push("replayed final state differs from the store's final state".to_string());
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(
                f,
                "audit OK: {} commits replayed, {} aborts cross-checked",
                self.commits_checked, self.aborts_checked
            )
        } else {
            writeln!(
                f,
                "audit FAILED ({} problems over {} commits):",
                self.problems.len(),
                self.commits_checked
            )?;
            for p in &self.problems {
                writeln!(f, "  - {p}")?;
            }
            Ok(())
        }
    }
}

/// Replays `events` from `initial` (version 0) and verifies the run.
///
/// `programs` maps transaction ids to the programs the clients submitted;
/// `templates` maps statement-shape ids (as recorded in `Begin`/`Commit`
/// events) to their canonicalized templates — `GuardCache::templates`
/// provides it, including shapes whose compiled guards were since evicted;
/// `final_db` is the store's state at the end of the run.
pub fn audit(
    alpha: &Formula,
    omega: &Omega,
    initial: &Database,
    final_db: &Database,
    events: &[Event],
    programs: &BTreeMap<u64, Program>,
    templates: &BTreeMap<u64, Template>,
) -> AuditReport {
    audit_from(
        alpha, omega, 0, initial, final_db, events, programs, templates,
    )
}

/// [`audit`] with an explicit base: `initial` is the store at
/// `base_version` and `events` start there — what auditing a
/// retention-truncated log needs, where the history before the floor
/// checkpoint no longer exists on disk. The first replayed commit is
/// expected at `base_version + 1`; guard/abort cross-checks that would
/// need a pre-floor snapshot are skipped (their evidence was legitimately
/// deleted), while everything replay-based — hashes, serialization order,
/// `α` at every surviving version — is verified in full.
#[allow(clippy::too_many_arguments)]
pub fn audit_from(
    alpha: &Formula,
    omega: &Omega,
    base_version: u64,
    initial: &Database,
    final_db: &Database,
    events: &[Event],
    programs: &BTreeMap<u64, Program>,
    templates: &BTreeMap<u64, Template>,
) -> AuditReport {
    let (mut report, replay) = pass(
        alpha,
        omega,
        base_version,
        initial,
        events,
        templates,
        Some(programs),
    );
    report.check_final(&replay.db, final_db);
    report
}

/// Audits a *cold* history — one read back from a persisted log, with no
/// live clients to supply the submitted programs. Every commit replays
/// from its own recorded `(shape, bindings)` provenance, exactly as in
/// [`audit`]; the provenance checks that need the submitted program are
/// left out, and aborts are cross-checked against the program their
/// `Begin` recorded.
///
/// `initial` is the genesis state (offset-0 checkpoint) and `final_db` the
/// recovered state; [`wal::recover`](crate::wal::recover) supplies both.
pub fn cold_audit(
    alpha: &Formula,
    omega: &Omega,
    initial: &Database,
    final_db: &Database,
    events: &[Event],
    templates: &BTreeMap<u64, Template>,
) -> AuditReport {
    cold_audit_from(alpha, omega, 0, initial, final_db, events, templates)
}

/// [`cold_audit`] with an explicit base: `initial` is the floor
/// checkpoint's state at `base_version` and `events` start there — the
/// form [`wal::recover`](crate::wal::recover) hands back
/// (`Recovered::{initial, base_version, events}`), correct whether or not
/// segment retention has deleted a covered prefix of the log.
#[allow(clippy::too_many_arguments)]
pub fn cold_audit_from(
    alpha: &Formula,
    omega: &Omega,
    base_version: u64,
    initial: &Database,
    final_db: &Database,
    events: &[Event],
    templates: &BTreeMap<u64, Template>,
) -> AuditReport {
    let (mut report, replay) = pass(alpha, omega, base_version, initial, events, templates, None);
    report.check_final(&replay.db, final_db);
    report
}

/// Cold-audits the log in `dir` in one pass: recovery's checkpoint/log
/// consistency checks first (fail-fast, a typed error), then every
/// surviving commit from the floor checkpoint replayed once, collecting
/// every fault. Returns the recovery the pass reconstructed — its state
/// is the replayed one, trustworthy only when the report is
/// [`ok`](AuditReport::ok) — and the report.
pub fn cold_audit_dir(
    dir: impl AsRef<Path>,
    omega: &Omega,
) -> Result<(Recovered, AuditReport), RecoveryError> {
    let (mut rec, _) = replay::open(dir.as_ref(), true)?;
    let (report, replay) = pass(
        &rec.alpha,
        omega,
        rec.base_version,
        &rec.initial,
        &rec.events,
        &rec.templates,
        None,
    );
    rec.settle(replay);
    Ok((rec, report))
}

/// The collect-all pass: every commit through [`Replayer::commit`], plus
/// the audit-only guard-pairing, provenance and abort cross-checks.
/// `submitted` holds the clients' programs when they are known.
fn pass(
    alpha: &Formula,
    omega: &Omega,
    base_version: u64,
    initial: &Database,
    events: &[Event],
    templates: &BTreeMap<u64, Template>,
    submitted: Option<&BTreeMap<u64, Program>>,
) -> (AuditReport, Replayer) {
    let mut problems = Vec::new();
    let mut commits_checked = 0;
    let mut aborts_checked = 0;

    match holds(initial, omega, alpha) {
        Ok(true) => {}
        Ok(false) => problems.push("initial state violates the constraint".to_string()),
        Err(e) => problems.push(format!(
            "constraint does not evaluate on the initial state: {e}"
        )),
    }

    let mut replay = Replayer::new(alpha.clone(), omega.clone(), initial.clone(), base_version);
    // Every version's state, so abort events can be cross-checked against
    // the snapshot they observed.
    let mut states: Vec<Database> = vec![initial.clone()];
    let mut passed_guards: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut begun: BTreeMap<u64, (u64, &[Elem])> = BTreeMap::new();

    for event in events {
        match event {
            Event::GuardEval { tx, version, pass } => {
                if *pass {
                    passed_guards.insert((*tx, *version));
                }
            }
            Event::Begin {
                tx,
                shape,
                bindings,
                ..
            } => {
                // Begin provenance is checked too, so a forged binding on a
                // transaction that went on to *abort* is also caught.
                check_provenance(
                    &mut problems,
                    submitted,
                    templates,
                    "begin",
                    *tx,
                    *shape,
                    bindings,
                );
                begun.insert(*tx, (*shape, bindings.as_slice()));
            }
            Event::Commit { .. } | Event::Cross { .. } => {
                commits_checked += 1;
                if let Err(fault) = replay.commit(event, templates) {
                    problems.push(fault.to_string());
                }
                states.push(replay.db.clone());
                // A cross-shard branch has no submitted program, Begin or
                // paired `GuardEval` here: the global guard ran on the
                // coordinator's union snapshot, and its evidence lives in
                // the decision log, cross-checked by the sharded audit
                // (`shard::cold_audit_sharded`).
                let Event::Commit {
                    tx,
                    based_on,
                    version,
                    shape,
                    bindings,
                    ..
                } = event
                else {
                    continue;
                };
                if submitted.is_some_and(|p| !p.contains_key(tx)) {
                    problems.push(format!("commit of unknown tx {tx}"));
                }
                check_provenance(
                    &mut problems,
                    submitted,
                    templates,
                    "commit",
                    *tx,
                    *shape,
                    bindings,
                );
                if begun
                    .get(tx)
                    .is_some_and(|&(s, b)| s != *shape || b != bindings.as_slice())
                {
                    problems.push(format!(
                        "tx {tx}'s begin and commit record different statements"
                    ));
                }
                // A commit based at or below the floor may have recorded
                // its guard evaluation before the floor offset (guard
                // events are written outside the commit critical section)
                // — evidence the retention pass legitimately deleted. Only
                // demand the pairing when nothing was retired
                // (`base_version == 0`: the full log) or the evaluation
                // must postdate the floor.
                let evidence_retired = base_version > 0 && *based_on <= base_version;
                if !passed_guards.contains(&(*tx, *based_on)) && !evidence_retired {
                    problems.push(format!(
                        "tx {tx} committed at version {version} without a passing guard \
                         evaluation at its base version {based_on}"
                    ));
                }
            }
            Event::Abort { tx, version, .. } => {
                // The guard said "would violate α". If we know the state it
                // observed (versions below the floor are gone) and the
                // program its Begin recorded, check-and-rollback must agree.
                let state = version
                    .checked_sub(base_version)
                    .and_then(|i| states.get(i as usize));
                let (Some(state), Some(&(shape, bindings))) = (state, begun.get(tx)) else {
                    continue;
                };
                let program = match replay::program_of(templates, *tx, shape, bindings) {
                    Ok(program) => program,
                    Err(fault) => {
                        problems.push(fault.to_string());
                        continue;
                    }
                };
                aborts_checked += 1;
                let checked = RuntimeChecked::new(
                    ProgramTransaction::new("audit", program, omega.clone()),
                    alpha.clone(),
                    omega.clone(),
                );
                match checked.apply(state) {
                    Err(TxError::Aborted(_)) => {}
                    Ok(_) => problems.push(format!(
                        "tx {tx} aborted at version {version}, but check-and-rollback \
                         accepts it there (guard and rollback paths disagree)"
                    )),
                    Err(e) => problems.push(format!(
                        "tx {tx} fails to replay its abort at version {version}: {e}"
                    )),
                }
            }
        }
    }

    let report = AuditReport {
        problems,
        commits_checked,
        aborts_checked,
    };
    (report, replay)
}

/// Checks one event's recorded `(shape, bindings)` provenance against the
/// submitted program: the submitted program must canonicalize to exactly
/// that statement. Comparing canonical forms (rather than instantiations)
/// makes the check insensitive to the α-renaming `canonicalize` performs
/// while still refusing forged bindings or a swapped shape. Skipped when
/// the submitted program is unknown.
fn check_provenance(
    problems: &mut Vec<String>,
    submitted: Option<&BTreeMap<u64, Program>>,
    templates: &BTreeMap<u64, Template>,
    what: &str,
    tx: u64,
    shape: u64,
    bindings: &[Elem],
) {
    let Some(program) = submitted.and_then(|p| p.get(&tx)) else {
        return;
    };
    match vpdt_tx::template::canonicalize(program) {
        Ok((canonical, ground_bindings)) => {
            if templates.get(&shape) != Some(&canonical) || ground_bindings != bindings {
                problems.push(format!(
                    "tx {tx}'s {what} records statement (shape {shape}, bindings \
                     {bindings:?}), but the submitted program {program:?} canonicalizes \
                     to ({canonical}, {ground_bindings:?})"
                ));
            }
        }
        Err(e) => problems.push(format!(
            "tx {tx}'s {what}: submitted program does not canonicalize: {e}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::root_hash;
    use vpdt_logic::parse_formula;
    use vpdt_tx::template::canonicalize;

    /// A transaction that began and passed its guard but never reached a
    /// terminal record (its worker was still running, or it died) is a
    /// legal, incomplete run: the audit verifies the commits around it and
    /// raises nothing about it.
    #[test]
    fn begun_and_guarded_without_a_terminal_record_is_accepted() {
        let alpha = parse_formula("forall x y z. E(x, y) & E(x, z) -> y = z").expect("parses");
        let initial = Database::graph([(0, 1)]);
        let insert = |a, b| Program::insert_consts("E", [a, b]);
        let (template, b0) = canonicalize(&insert(1, 2)).expect("canonicalizes");
        let (_, b1) = canonicalize(&insert(2, 3)).expect("canonicalizes");
        let templates = BTreeMap::from([(0, template)]);
        let after = insert(1, 2).run(&initial, &Omega::empty()).expect("runs");
        let events = vec![
            Event::Begin {
                tx: 0,
                session: 1,
                version: 0,
                shape: 0,
                bindings: b0.clone(),
            },
            Event::GuardEval {
                tx: 0,
                version: 0,
                pass: true,
            },
            // tx 1 begins and passes its guard, then nothing.
            Event::Begin {
                tx: 1,
                session: 1,
                version: 0,
                shape: 0,
                bindings: b1.clone(),
            },
            Event::GuardEval {
                tx: 1,
                version: 0,
                pass: true,
            },
            Event::Commit {
                tx: 0,
                based_on: 0,
                version: 1,
                writes: vec!["E".to_string()],
                shape: 0,
                bindings: b0,
                root_hash: root_hash(&after),
            },
        ];
        let programs = BTreeMap::from([(0, insert(1, 2)), (1, insert(2, 3))]);
        let report = audit(
            &alpha,
            &Omega::empty(),
            &initial,
            &after,
            &events,
            &programs,
            &templates,
        );
        assert!(report.ok(), "{report}");
        assert_eq!(report.commits_checked, 1);
        // The cold audit, which replays without the submitted programs,
        // accepts it too.
        let cold = cold_audit(
            &alpha,
            &Omega::empty(),
            &initial,
            &after,
            &events,
            &templates,
        );
        assert!(cold.ok(), "{cold}");
    }
}

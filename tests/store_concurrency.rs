//! Integration tests for `vpdt-store`: many sessions on a resident server,
//! many transactions, the constraint invariant at every committed version,
//! and a history audit that accepts real runs and rejects tampered ones.

use std::collections::BTreeMap;
use vpdt::core::safe::RuntimeChecked;
use vpdt::eval::{holds, Omega};
use vpdt::store::{audit, workload, Event, ServerReport, StoreBuilder, StoreError, TxOutcome};
use vpdt::tx::program::{Program, ProgramTransaction};
use vpdt::tx::traits::{Transaction, TxError};

const RELS: usize = 4;
const UNIVERSE: u64 = 4;

struct Run {
    report: ServerReport,
    programs: BTreeMap<u64, Program>,
    initial: vpdt::structure::Database,
    alpha: vpdt::logic::Formula,
}

/// Serves a deterministic workload through a resident server: `clients`
/// concurrent sessions each submit their seeded stream of prepared
/// statements, then the server is drained and shut down.
fn run(seed: u64, clients: u64, per_client: usize, workers: usize) -> Run {
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(seed, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .workers(workers)
        .build()
        .expect("initial state satisfies the constraint");
    let jobs = workload::sharded_jobs(seed, clients, per_client, RELS, UNIVERSE);
    let programs = workload::serve_chunked(&server, &jobs, per_client);
    let report = server.shutdown();
    Run {
        report,
        programs,
        initial,
        alpha,
    }
}

/// N sessions × M transactions over a worker pool: every submission gets
/// exactly one outcome, nothing fails, and the constraint holds at *every*
/// committed version (checked by replaying the gapless commit sequence).
#[test]
fn invariant_holds_at_every_committed_version() {
    let r = run(7, 4, 60, 4);
    assert_eq!(r.report.exec.outcomes.len(), 240);
    assert_eq!(r.report.exec.failed, 0, "outcomes: {:?}", r.report.exec);
    assert!(r.report.exec.committed > 0, "workload never commits");
    assert!(
        r.report.exec.aborted > 0,
        "workload never exercises the guard"
    );

    // replay every committed version and check α on each
    let omega = Omega::empty();
    let mut state = r.initial.clone();
    let mut version = 0u64;
    for event in &r.report.events {
        if let Event::Commit { tx, version: v, .. } = event {
            assert_eq!(*v, version + 1, "commit versions must be gapless");
            version = *v;
            let tx = ProgramTransaction::new("replay", r.programs[tx].clone(), omega.clone());
            state = tx.apply(&state).expect("replays");
            assert!(
                holds(&state, &omega, &r.alpha).expect("evaluates"),
                "constraint violated at committed version {v}"
            );
        }
    }
    assert_eq!(
        version, r.report.final_version,
        "replay covers every commit"
    );
    assert_eq!(
        &state, &*r.report.final_db,
        "replay reaches the store's state"
    );
}

/// The acceptance shape: at least two sessions submitting *concurrently*
/// (from their own threads, interleaved), with distinct session provenance
/// in the history, and an audit that verifies the whole run.
#[test]
fn concurrent_sessions_produce_an_auditable_history() {
    let r = run(29, 3, 50, 4);
    // every session left its mark on the Begin events
    let sessions: std::collections::BTreeSet<u64> = r
        .report
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Begin { session, .. } => Some(*session),
            _ => None,
        })
        .collect();
    assert!(
        sessions.len() >= 2,
        "expected ≥ 2 distinct sessions in the history, got {sessions:?}"
    );
    assert!(
        !sessions.contains(&0),
        "session ids start at 1; 0 is reserved for the batch path"
    );
    let verdict = audit(
        &r.alpha,
        &Omega::empty(),
        &r.initial,
        &r.report.final_db,
        &r.report.events,
        &r.programs,
        &r.report.templates,
    );
    assert!(verdict.ok(), "{verdict}");
    assert_eq!(verdict.commits_checked, r.report.exec.committed);
}

/// Guards are only sound on consistent states, so a server over a state
/// that violates the constraint must refuse to start — with a typed error
/// whose rendered text matches the legacy fail-fast message.
#[test]
fn inconsistent_initial_state_fails_to_build() {
    let alpha = workload::sharded_fd_constraint(2);
    let schema = workload::sharded_schema(2);
    let mut bad = vpdt::structure::Database::empty(schema.clone());
    // 0 -> 1 and 0 -> 2 in R0: the fd is violated from the start
    bad.insert("R0", vec![vpdt::logic::Elem(0), vpdt::logic::Elem(1)]);
    bad.insert("R0", vec![vpdt::logic::Elem(0), vpdt::logic::Elem(2)]);
    let err = StoreBuilder::new(bad, alpha)
        .build()
        .expect_err("an inconsistent store must not serve");
    assert_eq!(err, StoreError::GuardUnsound { version: 0 });
    assert!(err.to_string().contains("violates the constraint"));
}

/// The audit accepts the history the server actually produced.
#[test]
fn audit_accepts_real_histories() {
    let r = run(11, 4, 40, 4);
    let report = audit(
        &r.alpha,
        &Omega::empty(),
        &r.initial,
        &r.report.final_db,
        &r.report.events,
        &r.programs,
        &r.report.templates,
    );
    assert!(report.ok(), "{report}");
    assert_eq!(report.commits_checked, r.report.exec.committed);
    assert!(report.aborts_checked > 0);
}

/// Swapping two commits (a serialization the store never produced) must be
/// rejected.
#[test]
fn audit_rejects_reordered_commits() {
    let r = run(13, 4, 40, 4);
    let mut events = r.report.events.clone();
    let commit_positions: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::Commit { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(commit_positions.len() >= 2, "need at least two commits");
    // swap the payloads of two distinct commits but keep the version
    // numbers in sequence, i.e. forge a different serialization
    let (i, j) = (commit_positions[0], commit_positions[1]);
    let (vi, vj) = match (&events[i], &events[j]) {
        (Event::Commit { version: a, .. }, Event::Commit { version: b, .. }) => (*a, *b),
        _ => unreachable!(),
    };
    events.swap(i, j);
    if let Event::Commit { version, .. } = &mut events[i] {
        *version = vi;
    }
    if let Event::Commit { version, .. } = &mut events[j] {
        *version = vj;
    }
    let report = audit(
        &r.alpha,
        &Omega::empty(),
        &r.initial,
        &r.report.final_db,
        &events,
        &r.programs,
        &r.report.templates,
    );
    assert!(!report.ok(), "reordered history must not verify");
}

/// A forged state hash is caught.
#[test]
fn audit_rejects_tampered_hashes() {
    let r = run(17, 2, 30, 2);
    let mut events = r.report.events.clone();
    let pos = events
        .iter()
        .position(|e| matches!(e, Event::Commit { .. }))
        .expect("has a commit");
    if let Event::Commit { root_hash, .. } = &mut events[pos] {
        *root_hash ^= 1;
    }
    let report = audit(
        &r.alpha,
        &Omega::empty(),
        &r.initial,
        &r.report.final_db,
        &events,
        &r.programs,
        &r.report.templates,
    );
    assert!(!report.ok());
}

/// Concurrent execution is equivalent to *some* serial execution, and both
/// pipeline paths agree per decision point: every committed transaction
/// would also have committed under check-and-rollback at its base version
/// (the audit asserts this), and outcomes are deterministic given the
/// store's serialization.
#[test]
fn guard_path_agrees_with_rollback_path_serially() {
    let alpha = workload::sharded_fd_constraint(RELS);
    let omega = Omega::empty();
    let initial = workload::sharded_initial(23, RELS, UNIVERSE, 0.5);
    let jobs = workload::sharded_jobs(23, 1, 50, RELS, UNIVERSE);

    // single-worker server == serial check-and-rollback, outcome by
    // outcome (with one worker and one submitting session the
    // serialization is the submission order, so the two pipelines see
    // identical states)
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .workers(1)
        .build()
        .expect("consistent initial state");
    let mut outcomes = Vec::new();
    {
        let session = server.session();
        for job in &jobs {
            outcomes.push((job.clone(), session.submit_sync(job.clone())));
        }
    }
    let report = server.shutdown();

    let mut serial_state = initial;
    for (program, outcome) in outcomes {
        let checked = RuntimeChecked::new(
            ProgramTransaction::new("serial", program, omega.clone()),
            alpha.clone(),
            omega.clone(),
        );
        match (&outcome, checked.apply(&serial_state)) {
            (TxOutcome::Committed { .. }, Ok(next)) => serial_state = next,
            (TxOutcome::Aborted { .. }, Err(TxError::Aborted(_))) => {}
            (s, r) => panic!("paths disagree: {s:?} vs {r:?}"),
        }
    }
    assert_eq!(&serial_state, &*report.final_db);
}

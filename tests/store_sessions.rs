//! Session semantics of the `StoreServer` front door: ticket resolution
//! across shutdown, session drops losing nothing, compilation sharing
//! between sessions, and audits over session-produced histories.

use std::collections::BTreeMap;
use vpdt::eval::Omega;
use vpdt::store::{audit, workload, Event, StoreBuilder, TxOutcome};
use vpdt::tx::program::Program;

const RELS: usize = 2;
const UNIVERSE: u64 = 4;

fn server(seed: u64, workers: usize) -> (vpdt::store::StoreServer, vpdt::structure::Database) {
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(seed, RELS, UNIVERSE, 0.4);
    let server = StoreBuilder::new(initial.clone(), alpha)
        .workers(workers)
        .build()
        .expect("consistent initial state");
    (server, initial)
}

/// Tickets taken before shutdown still resolve: shutdown drains the queue,
/// so every outstanding ticket ends with a real outcome, and waiting on a
/// ticket *after* the server is gone returns immediately.
#[test]
fn tickets_resolve_after_shutdown() {
    let (server, _) = server(1, 2);
    let programs = [
        Program::insert_consts("R0", [0, 1]),
        Program::insert_consts("R1", [2, 3]),
        Program::delete_consts("R0", [0, 1]),
        Program::insert_consts("R0", [3, 2]),
    ];
    let tickets: Vec<_> = {
        let session = server.session();
        programs.iter().map(|p| session.submit(p.clone())).collect()
    };
    let report = server.shutdown();
    assert_eq!(report.exec.outcomes.len(), programs.len());
    for ticket in &tickets {
        let waited = ticket.wait();
        let in_report = &report
            .exec
            .outcomes
            .iter()
            .find(|(id, _)| *id == ticket.id())
            .expect("every ticket's transaction is in the report")
            .1;
        assert_eq!(&waited, in_report, "ticket and report agree");
        assert!(
            ticket.try_outcome().is_some(),
            "resolved tickets answer try_outcome"
        );
    }
}

/// `on_resolve` completions fire exactly once per ticket with the same
/// outcome `wait` observes — on the resolving thread for in-flight
/// tickets, immediately for already-resolved ones — and a ticket whose
/// completion fired is observably resolved (`try_outcome` is `Some`).
#[test]
fn on_resolve_fires_once_with_the_waited_outcome() {
    use std::sync::mpsc;

    let (server, _) = server(3, 2);
    let programs = [
        Program::insert_consts("R0", [0, 1]),
        Program::insert_consts("R1", [2, 3]),
        Program::insert_consts("R0", [0, 2]), // FD violation: guard-aborts
        Program::delete_consts("R0", [0, 1]),
    ];
    let (tx, rx) = mpsc::channel::<(u64, TxOutcome)>();
    let tickets: Vec<_> = {
        let session = server.session();
        programs
            .iter()
            .map(|p| {
                let ticket = session.submit(p.clone());
                let id = ticket.id();
                let tx = tx.clone();
                ticket.on_resolve(move |outcome| {
                    let _ = tx.send((id, outcome));
                });
                ticket
            })
            .collect()
    };
    drop(tx);
    let mut delivered = BTreeMap::new();
    while let Ok((id, outcome)) = rx.recv() {
        assert!(
            delivered.insert(id, outcome).is_none(),
            "each completion fires exactly once"
        );
    }
    assert_eq!(delivered.len(), tickets.len(), "every ticket completed");
    for ticket in &tickets {
        assert_eq!(
            delivered.get(&ticket.id()),
            Some(&ticket.wait()),
            "completion and wait observe the same outcome"
        );
        assert!(
            ticket.try_outcome().is_some(),
            "a completed ticket is resolved"
        );
    }

    // Registering on an already-resolved ticket fires immediately, on
    // the calling thread.
    let late = &tickets[0];
    let expected = late.wait();
    let (tx, rx) = mpsc::channel();
    late.on_resolve(move |outcome| {
        let _ = tx.send(outcome);
    });
    assert_eq!(
        rx.try_recv().expect("fired synchronously on registration"),
        expected
    );

    server.shutdown();
}

/// Dropping a session mid-flight neither loses nor duplicates its
/// transactions: everything it submitted is executed exactly once and
/// shows up in the final report (and history) even though the session —
/// and its tickets — are gone.
#[test]
fn dropping_a_session_loses_nothing() {
    let (server, _) = server(3, 2);
    let mut submitted = Vec::new();
    {
        let doomed = server.session();
        for i in 0..20u64 {
            let p = Program::insert_consts("R0", [i % UNIVERSE, (i + 1) % UNIVERSE]);
            // drop the ticket on the floor immediately
            submitted.push(doomed.submit(p).id());
        }
        // the session dies here, with (very likely) work still in flight
    }
    let outcome = {
        let survivor = server.session();
        survivor.submit_sync(Program::insert_consts("R1", [0, 1]))
    };
    assert!(
        matches!(
            outcome,
            TxOutcome::Committed { .. } | TxOutcome::Aborted { .. }
        ),
        "the server keeps serving after a session drop: {outcome:?}"
    );
    let report = server.shutdown();
    let mut ids: Vec<u64> = report.exec.outcomes.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        report.exec.outcomes.len(),
        submitted.len() + 1,
        "exactly once each: {:?}",
        report.exec.outcomes
    );
    assert_eq!(ids.len(), report.exec.outcomes.len(), "no duplicates");
    for id in &submitted {
        assert!(ids.contains(id), "tx {id} from the dropped session is lost");
    }
}

/// Two sessions submitting the same statement shape share one compilation:
/// the guard cache registers the shape once, and the second session's
/// submissions are pure cache hits.
#[test]
fn sessions_share_one_compilation_per_shape() {
    let (server, _) = server(5, 2);
    {
        let a = server.session();
        let b = server.session();
        assert_ne!(a.id(), b.id());
        // same shape (insert into R0), different constants, both sessions
        a.submit_sync(Program::insert_consts("R0", [0, 1]));
        b.submit_sync(Program::insert_consts("R0", [2, 3]));
        a.submit_sync(Program::insert_consts("R0", [1, 2]));
        b.submit_sync(Program::insert_consts("R0", [3, 0]));
    }
    let report = server.shutdown();
    assert_eq!(
        report.cache.shapes, 1,
        "one statement shape across sessions: {:?}",
        report.cache
    );
    assert_eq!(report.cache.misses, 1, "compiled exactly once");
    assert_eq!(report.cache.hits, 3, "everything after is a hit");
}

/// With outcome retention off (the flat-memory mode for resident servers),
/// tickets still deliver every outcome, the aggregate counters stay exact,
/// and the audit still verifies — only the report's per-transaction list
/// is empty.
#[test]
fn retention_off_keeps_counters_and_tickets_exact() {
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(13, RELS, UNIVERSE, 0.4);
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .workers(2)
        .retain_outcomes(false)
        .build()
        .expect("consistent initial state");
    let jobs = workload::sharded_jobs(13, 2, 25, RELS, UNIVERSE);
    let mut committed = 0;
    let mut aborted = 0;
    {
        let session = server.session();
        for job in &jobs {
            match session.submit_sync(job.clone()) {
                TxOutcome::Committed { .. } => committed += 1,
                TxOutcome::Aborted { .. } => aborted += 1,
                TxOutcome::Failed { error } => panic!("unexpected failure: {error}"),
            }
        }
    }
    let report = server.shutdown();
    assert!(report.exec.outcomes.is_empty(), "nothing retained");
    assert_eq!(report.exec.committed, committed);
    assert_eq!(report.exec.aborted, aborted);
    assert_eq!(report.exec.failed, 0);
    let programs: BTreeMap<u64, Program> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| (i as u64, job.clone()))
        .collect();
    let verdict = audit(
        &alpha,
        &Omega::empty(),
        &initial,
        &report.final_db,
        &report.events,
        &programs,
        &report.templates,
    );
    assert!(verdict.ok(), "{verdict}");
}

/// `submit_sync` is exactly submit-then-wait, and the audit verifies a
/// history produced purely through sessions (including session provenance
/// on every Begin event).
#[test]
fn audit_passes_on_session_history() {
    let (server, initial) = server(11, 3);
    let alpha = workload::sharded_fd_constraint(RELS);
    let jobs = workload::sharded_jobs(11, 3, 30, RELS, UNIVERSE);
    let programs = workload::serve_chunked(&server, &jobs, 30);
    let report = server.shutdown();
    // every transaction carries a real session id
    assert!(report.events.iter().all(|e| match e {
        Event::Begin { session, .. } => *session >= 1,
        _ => true,
    }));
    let verdict = audit(
        &alpha,
        &Omega::empty(),
        &initial,
        &report.final_db,
        &report.events,
        &programs,
        &report.templates,
    );
    assert!(verdict.ok(), "{verdict}");
    assert_eq!(verdict.commits_checked, report.exec.committed);
}

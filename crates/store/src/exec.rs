//! The execution core: submit, guard, commit — one worker loop, one front
//! door.
//!
//! The resident [`StoreServer`](crate::StoreServer) worker pool runs
//! `worker_loop`: work items arrive from
//! [`Session::submit`](crate::Session::submit) over an MPMC submission
//! queue and each worker, per transaction:
//!
//! 1. pulls a fresh [`Snapshot`](crate::Snapshot) (lock-free reads of an
//!    `Arc`),
//! 2. evaluates its prepared guard against it — `if wpc(T, α) then T else
//!    abort`, with the guard compiled once *per statement shape* in the
//!    [`GuardCache`] down to its cheapest sound form (the Δ of Section 6
//!    where derivable) and instantiated with the transaction's bindings,
//! 3. on pass, applies the program operationally and offers the result to
//!    [`VersionedStore::try_commit`]; a relation-footprint conflict loops
//!    back to step 1 until the transaction commits (the guard re-evaluates
//!    in tens of microseconds; the compilation never re-runs). The loop
//!    makes progress: a conflict means another transaction committed. A
//!    conflict on a relation held by a cross-shard prepare first blocks
//!    until the 2PC decision releases it.
//!
//! `try_commit` returns the **publish**-phase outcome: on a durable server
//! that fsyncs commits, the worker does *not* resolve the ticket — it
//! marks it applied and hands it, with the commit record's log offset, to
//! the group-commit flusher, which writes the staged records of every
//! pending commit and fsyncs them once, then resolves all the tickets the
//! flush covers (the **durable** phase).
//! Aborts, failures, and in-memory servers have no durable phase: the
//! worker resolves those tickets on the spot.
//!
//! Every one of these resolution paths — worker, flusher, and the
//! drop-guard on a dying work item — funnels through the ticket's
//! completion slot, so a callback registered with
//! [`TxTicket::on_resolve`](crate::TxTicket::on_resolve) fires no matter
//! which path resolves the ticket. The callback runs on the resolving
//! thread *after* the ticket lock is dropped: the off-lock discipline of
//! the commit critical section is untouched (no user code ever runs
//! inside `try_commit` or under the flusher's batch lock).
//!
//! [`run_serial_rollback`] is the baseline the paper's programme displaces:
//! one thread, no guard — run the transaction, test `α` on the result, roll
//! back on violation.

use crate::guard::GuardCache;
use crate::history::Event;
use crate::metrics::StoreMetrics;
use crate::session::TicketState;
use crate::snapshot::{CommitOutcome, CommitRequest, VersionedStore};
use crate::wal::{GroupCommitFlusher, PendingAck};
use crate::{AbortReason, StoreError};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use vpdt_core::safe::RuntimeChecked;
use vpdt_eval::{holds, Omega};
use vpdt_logic::Formula;
use vpdt_obs::TraceStage;
use vpdt_structure::Database;
use vpdt_tx::program::{Program, ProgramTransaction};
use vpdt_tx::traits::{normalize_domain, Transaction, TxError};

/// How one transaction ended — fully typed: aborts carry an
/// [`AbortReason`], failures a [`StoreError`], so clients branch on the
/// cause instead of parsing message strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxOutcome {
    /// Committed at this store version.
    Committed {
        /// The version the commit produced.
        version: u64,
    },
    /// The guard (or the rollback baseline) aborted the transaction: it
    /// would have violated `α`.
    Aborted {
        /// Why, with the version and shape the decision observed.
        reason: AbortReason,
    },
    /// An execution error (not a deliberate abort).
    Failed {
        /// The typed error.
        error: StoreError,
    },
}

/// Per-transaction outcomes plus pipeline counters.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Outcome per transaction, ordered by transaction id.
    pub outcomes: Vec<(u64, TxOutcome)>,
    /// Transactions that committed.
    pub committed: usize,
    /// Transactions the guard aborted.
    pub aborted: usize,
    /// Transactions that failed with an error.
    pub failed: usize,
    /// Commit offers rejected by footprint validation (each one cost a
    /// guard re-evaluation).
    pub conflicts: u64,
}

/// One unit of work on the submission queue: a transaction plus the ticket
/// to resolve with its outcome.
pub(crate) struct WorkItem {
    pub tx: u64,
    pub session: u64,
    pub program: Program,
    /// `None` only once the worker has taken it to settle, which disarms
    /// the drop guard below.
    pub ticket: Option<Arc<TicketState>>,
    /// When the item entered the queue (registry ns) — the birth stamp
    /// queue-wait and end-to-end latency measure from.
    pub enqueued_at_ns: u64,
}

/// The no-hang guarantee: however a work item dies — a worker panicking
/// mid-transaction (the item unwinds), or a queue torn down with items
/// still inside — its ticket resolves. Normal completion resolves with the
/// real outcome first, making this a no-op.
impl Drop for WorkItem {
    fn drop(&mut self) {
        if let Some(ticket) = &self.ticket {
            ticket.resolve_if_unresolved(TxOutcome::Failed {
                error: StoreError::WorkerLost,
            });
        }
    }
}

struct QueueState {
    items: VecDeque<WorkItem>,
    closed: bool,
    /// Workers parked in [`WorkQueue::pop`]'s condvar wait.
    parked: usize,
}

/// The multi-producer/multi-consumer submission queue. A deliberately
/// simple Mutex + Condvar design rather than `std::sync::mpsc`: every
/// worker pops directly (an idle worker parks *inside* the condvar wait,
/// releasing the lock, so one empty-queue sleeper never serializes its
/// siblings the way a shared blocking `Receiver` behind a mutex would),
/// and closing is explicit, which is what gives shutdown its
/// drain-then-stop semantics.
///
/// Parked workers are counted under the lock, and a push signals the
/// condvar only when one is parked: a notify is a futex syscall even with
/// nobody waiting, and a busy worker finds the item on its next pop
/// anyway.
pub(crate) struct WorkQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl WorkQueue {
    pub(crate) fn new() -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                parked: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues one item. A closed queue refuses and hands the item back,
    /// so the caller decides how its ticket resolves (dropping it would
    /// resolve as `WorkerLost`, which is not what a refused submission
    /// means).
    // The large Err is the point: the refused item must come back whole,
    // and refusal is the cold path.
    #[allow(clippy::result_large_err)]
    pub(crate) fn push(&self, item: WorkItem) -> Result<(), WorkItem> {
        let mut state = self.state.lock().expect("work queue poisoned");
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        let parked = state.parked > 0;
        drop(state);
        if parked {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Closes the queue: no further pushes are accepted, and pops drain
    /// what remains, then return `None`.
    pub(crate) fn close(&self) {
        self.state.lock().expect("work queue poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Blocks for the next item; `None` once the queue is closed *and*
    /// drained.
    pub(crate) fn pop(&self) -> Option<WorkItem> {
        let mut state = self.state.lock().expect("work queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.parked += 1;
            state = self.ready.wait(state).expect("work queue poisoned");
            state.parked -= 1;
        }
    }
}

/// Where worker outcomes land when the server retains them
/// ([`StoreBuilder::retain_outcomes`](crate::StoreBuilder::retain_outcomes)).
/// A resident server serving unbounded traffic can turn retention off —
/// clients already get each outcome through their ticket, and the
/// aggregate counts live in [`StoreMetrics`] either way.
pub(crate) struct OutcomeSink {
    outcomes: Option<Mutex<Vec<(u64, TxOutcome)>>>,
}

impl OutcomeSink {
    pub(crate) fn new(retain: bool) -> Self {
        OutcomeSink {
            outcomes: retain.then(Mutex::default),
        }
    }

    fn record(&self, tx: u64, outcome: TxOutcome) {
        if let Some(outcomes) = &self.outcomes {
            outcomes
                .lock()
                .expect("outcome sink poisoned")
                .push((tx, outcome));
        }
    }

    /// Drains the sink into a report: outcomes sorted by id (empty when
    /// retention was off), totals read from the server's counters.
    pub(crate) fn into_report(self, obs: &StoreMetrics) -> ExecReport {
        let mut outcomes = self
            .outcomes
            .map(|o| o.into_inner().expect("outcome sink poisoned"))
            .unwrap_or_default();
        outcomes.sort_by_key(|(id, _)| *id);
        ExecReport {
            outcomes,
            committed: obs.committed.get() as usize,
            aborted: obs.aborted.get() as usize,
            failed: obs.failed.get() as usize,
            conflicts: obs.conflicts.get(),
        }
    }
}

/// The worker loop: drain the queue, execute each item, settle its ticket,
/// record its outcome. Returns when the queue is closed and empty (server
/// shutdown).
///
/// Ticket settlement is two-phased where durability demands it: a commit
/// on a server with a `group` flusher is only *published* here — the
/// ticket is marked applied and enqueued (with its log offset) for the
/// flusher to resolve after the covering fsync. Everything else resolves
/// immediately. Outcome counters record at publish time: a published
/// commit is in the serialization order regardless of when its fsync
/// lands (and a flush failure is fail-stop, reported through every
/// covered ticket).
pub(crate) fn worker_loop(
    store: &VersionedStore,
    cache: &GuardCache,
    queue: &WorkQueue,
    sink: &OutcomeSink,
    obs: &StoreMetrics,
    group: Option<&GroupCommitFlusher>,
) {
    while let Some(mut item) = queue.pop() {
        let dequeued_at_ns = obs.now_ns();
        obs.queue_wait
            .observe(dequeued_at_ns.saturating_sub(item.enqueued_at_ns) / 1_000);
        obs.trace(item.tx, TraceStage::Dequeued);
        // A panic — a failed log write is fail-stop and poisons the store
        // — costs the item (its drop guard resolves the ticket), not the
        // worker: every later item then fails the same way at once rather
        // than queueing for workers that are gone.
        let run = AssertUnwindSafe(|| execute_one(store, cache, &item, obs));
        let Ok((outcome, wal_offset)) = std::panic::catch_unwind(run) else {
            continue;
        };
        match &outcome {
            TxOutcome::Committed { .. } => obs.committed.inc(),
            TxOutcome::Aborted { .. } => obs.aborted.inc(),
            TxOutcome::Failed { .. } => obs.failed.inc(),
        }
        match (&outcome, wal_offset, group) {
            (TxOutcome::Committed { version }, Some(offset), Some(flusher)) => {
                // Take the ticket out of the item so the item's drop guard
                // cannot mistake the durability wait for a lost worker.
                let ticket = item.ticket.take().expect("ticket settles once");
                ticket.mark_applied(*version);
                // End-to-end latency for the durable path is observed by
                // the flusher when the covering fsync resolves the ticket.
                flusher.enqueue(PendingAck {
                    offset,
                    version: *version,
                    ticket,
                    tx: item.tx,
                    enqueued_at_ns: item.enqueued_at_ns,
                    published_at_ns: obs.now_ns(),
                });
            }
            _ => {
                if let TxOutcome::Failed { error } = &outcome {
                    obs.trace_with(item.tx, || TraceStage::Failed {
                        reason: error.code().to_string(),
                    });
                }
                obs.tx_total.observe(obs.us_since(item.enqueued_at_ns));
                if let Some(ticket) = item.ticket.take() {
                    ticket.resolve(outcome.clone());
                }
            }
        }
        sink.record(item.tx, outcome);
    }
}

/// Executes one transaction: prepare (fetch-or-compile the statement
/// shape), guard, apply, offer to commit; on footprint conflict,
/// re-validate on a fresh snapshot. The compilation is shared per
/// statement shape; the per-transaction work is one binding substitution
/// plus evaluations.
/// Returns the publish-phase outcome plus, for a commit on a persisted
/// store, the commit record's log offset — what the durable phase needs.
pub(crate) fn execute_one(
    store: &VersionedStore,
    cache: &GuardCache,
    item: &WorkItem,
    obs: &StoreMetrics,
) -> (TxOutcome, Option<u64>) {
    let prepared = match cache.get_or_compile(&item.program) {
        Ok(p) => p,
        Err(error) => return (TxOutcome::Failed { error }, None),
    };
    let history = store.history();
    // Durable provenance: the statement shape is declared to the log before
    // any event references its id, so a cold recovery can resolve every
    // (shape, bindings) pair it replays. No-op for in-memory histories and
    // for shapes already on disk.
    history.declare_shape(prepared.shape.id, &prepared.shape.template);
    let mut first = true;
    loop {
        let snap = store.snapshot();
        if first {
            history.record(Event::Begin {
                tx: item.tx,
                session: item.session,
                version: snap.version,
                shape: prepared.shape.id,
                bindings: prepared.bindings.clone(),
            });
            first = false;
        }
        let guard_started_ns = obs.now_ns();
        let pass = match holds(&snap.db, cache.omega(), &prepared.guard) {
            Ok(p) => p,
            Err(e) => {
                return (
                    TxOutcome::Failed {
                        error: StoreError::Eval(e),
                    },
                    None,
                )
            }
        };
        obs.guard_eval.observe(obs.us_since(guard_started_ns));
        obs.trace(
            item.tx,
            TraceStage::GuardEvaluated {
                version: snap.version,
                pass,
                cache_hit: prepared.cache_hit,
            },
        );
        history.record(Event::GuardEval {
            tx: item.tx,
            version: snap.version,
            pass,
        });
        if !pass {
            let reason = AbortReason::GuardFailed {
                version: snap.version,
                shape: prepared.shape.id,
            };
            history.record_abort(item.tx, snap.version, &reason);
            obs.trace_with(item.tx, || TraceStage::Aborted {
                reason: reason.to_string(),
            });
            return (TxOutcome::Aborted { reason }, None);
        }
        // Direct operational semantics on the ground program the item
        // already owns — no per-transaction applier is allocated.
        let new_db = match item
            .program
            .run(&snap.db, cache.omega())
            .map(normalize_domain)
        {
            Ok(db) => db,
            Err(e) => {
                return (
                    TxOutcome::Failed {
                        error: StoreError::Tx(e),
                    },
                    None,
                )
            }
        };
        // The store encodes the commit record before it takes its write
        // lock (re-encoded per attempt: `based_on` changes on retry).
        let req = CommitRequest {
            tx: item.tx,
            based_on: snap.version,
            reads: prepared.reads().clone(),
            writes: prepared.writes().clone(),
            shape: prepared.shape.id,
            bindings: prepared.bindings.clone(),
            new_db,
            encoded: None,
        };
        let publish_started_ns = obs.now_ns();
        let (outcome, lock_held) = store.try_commit_timed(req);
        obs.publish_lock.observe(lock_held.as_micros() as u64);
        match outcome {
            CommitOutcome::Committed {
                version,
                wal_offset,
            } => {
                obs.publish.observe(obs.us_since(publish_started_ns));
                obs.trace(item.tx, TraceStage::Published { version });
                return (TxOutcome::Committed { version }, wal_offset);
            }
            CommitOutcome::Conflict { version } => {
                obs.conflicts.inc();
                obs.trace(item.tx, TraceStage::ConflictRetried { version });
                // A relation held by an in-flight cross-shard prepare is
                // not a lost race: wait for the decision to release it
                // before re-validating.
                let footprint = prepared.reads().iter().chain(prepared.writes());
                store.wait_unheld(footprint, || obs.hold_waits.inc());
            }
        }
    }
}

/// Checks the guard-soundness base case: `α` must hold on the store's
/// current state (the Section 6 guards are only sound on consistent
/// states).
pub(crate) fn check_base_case(
    store: &VersionedStore,
    cache: &GuardCache,
) -> Result<(), StoreError> {
    let entry = store.snapshot();
    match holds(&entry.db, cache.omega(), cache.alpha()) {
        Ok(true) => Ok(()),
        Ok(false) => Err(StoreError::GuardUnsound {
            version: entry.version,
        }),
        Err(error) => Err(StoreError::ConstraintUnevaluable {
            version: entry.version,
            error,
        }),
    }
}

/// The deferred-checking baseline: one thread applies each program in
/// order via [`RuntimeChecked`] (run, test `α` on the result, roll back on
/// violation). Returns the final state and the per-program outcomes, keyed
/// by position; each commit's version counts the commits before it, as a
/// served store's would.
pub fn run_serial_rollback(
    initial: Database,
    programs: &[Program],
    alpha: &Formula,
    omega: &Omega,
) -> (Database, ExecReport) {
    let mut state = initial;
    let mut report = ExecReport {
        outcomes: Vec::with_capacity(programs.len()),
        committed: 0,
        aborted: 0,
        failed: 0,
        conflicts: 0,
    };
    for (id, program) in (0u64..).zip(programs) {
        let tx = ProgramTransaction::new("serial", program.clone(), omega.clone());
        let checked = RuntimeChecked::new(tx, alpha.clone(), omega.clone());
        let outcome = match checked.apply(&state) {
            Ok(next) => {
                state = next;
                report.committed += 1;
                TxOutcome::Committed {
                    version: report.committed as u64,
                }
            }
            Err(TxError::Aborted(reason)) => {
                report.aborted += 1;
                TxOutcome::Aborted {
                    reason: AbortReason::RolledBack { reason },
                }
            }
            Err(e) => {
                report.failed += 1;
                TxOutcome::Failed {
                    error: StoreError::Tx(e),
                }
            }
        };
        report.outcomes.push((id, outcome));
    }
    (state, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdt_logic::parse_formula;

    #[test]
    fn serial_rollback_numbers_versions_by_commits() {
        let alpha = parse_formula("forall x y z. E(x, y) & E(x, z) -> y = z").unwrap();
        let programs = [
            // E(0, 1) is already present: E(0, 2) violates the fd.
            Program::insert_consts("E", [0, 2]),
            Program::insert_consts("E", [1, 2]),
        ];
        let (state, report) = run_serial_rollback(
            Database::graph([(0, 1)]),
            &programs,
            &alpha,
            &Omega::empty(),
        );
        assert!(matches!(report.outcomes[0].1, TxOutcome::Aborted { .. }));
        assert_eq!(report.outcomes[1].1, TxOutcome::Committed { version: 1 });
        assert_eq!((report.committed, report.aborted, report.failed), (1, 1, 0));
        assert_eq!(state, Database::graph([(0, 1), (1, 2)]));
    }
}

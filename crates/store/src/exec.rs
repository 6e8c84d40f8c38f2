//! The execution core: submit, guard, commit — one per-item path, one
//! front door.
//!
//! Work items arrive from [`Session::submit`](crate::Session::submit).
//! On an unsharded in-memory store with nothing queued and an execution
//! slot free, the item runs to completion on the submitting thread, so
//! its ticket has resolved before `submit` returns. Otherwise (and
//! always from [`Session::submit_queued`](crate::Session::submit_queued))
//! it goes onto an MPMC submission queue, which the resident
//! [`StoreServer`](crate::StoreServer) worker pool drains in
//! `worker_loop`. There are as many slots as workers, so at most that
//! many transactions execute at once, however they started. Either way
//! the same per-item path runs, per transaction:
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
//!    until the 2PC decision releases it (only a shard's workers meet
//!    holds, so an inline execution never blocks on one).
//!
//! `try_commit` returns the **publish**-phase outcome: on a durable server
//! that fsyncs commits (which never executes inline), the worker does
//! *not* resolve the ticket — it marks it applied and hands it, with the
//! commit record's log offset, to the group-commit flusher, which writes
//! the staged records of every pending commit and fsyncs them once, then
//! resolves all the tickets the flush covers (the **durable** phase).
//! Aborts, failures, and in-memory servers have no durable phase: the
//! executing thread resolves those tickets on the spot.
//!
//! Every one of these resolution paths — worker, submitter, flusher, and
//! the drop-guard on a dying work item — funnels through the ticket's
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// When the item was submitted (registry ns) — the birth stamp
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
    /// Workers parked in [`WorkQueue::pop`]'s condvar wait and not yet
    /// signalled. A spurious wake-up leaves its worker counted, which
    /// costs at most one needless signal later.
    parked: usize,
    /// Transactions executing: items workers popped plus inline claims.
    running: usize,
    /// The bound on `running`: the worker-pool size.
    slots: usize,
}

/// The multi-producer/multi-consumer submission queue, and the execution
/// slots that bound how many transactions run at once. A deliberately
/// simple Mutex + Condvar design rather than `std::sync::mpsc`: every
/// worker pops directly (an idle worker parks *inside* the condvar wait,
/// releasing the lock, so one empty-queue sleeper never serializes its
/// siblings the way a shared blocking `Receiver` behind a mutex would),
/// and closing is explicit, which is what gives shutdown its
/// drain-then-stop semantics.
///
/// A transaction executes only while it holds a [`Slot`]: a worker takes
/// one with each item it pops, and a submitter can [`claim`](Self::claim)
/// one to run its transaction on its own thread. There are as many slots
/// as workers, so the pool size bounds concurrent executions however they
/// started, and a one-worker store executes in submission order.
///
/// Parked workers are counted under the lock, and the thread that signals
/// one uncounts it: a notify is a futex syscall even with nobody waiting,
/// so a push signals only when an uncounted worker could take its item
/// (a worker is parked and a slot is free), and a release only when an
/// item waits for the slot it frees. A busy worker finds queued items on
/// its next pop anyway.
pub(crate) struct WorkQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

/// One claimed execution slot. Dropping it releases the slot, also when a
/// panic unwinds past it, so a dying execution cannot shrink the pool.
pub(crate) struct Slot<'q> {
    queue: &'q WorkQueue,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.queue.release();
    }
}

impl WorkQueue {
    /// An open, empty queue whose items execute in at most `slots` at once.
    pub(crate) fn new(slots: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                parked: 0,
                running: 0,
                slots,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // Critical sections here never panic; tolerating poison keeps a
        // slot released during unwinding from panicking twice.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues one item at the tail. A closed queue refuses and hands the
    /// item back, so the caller decides how its ticket resolves (dropping
    /// it would resolve as `WorkerLost`, which is not what a refused
    /// submission means).
    // The large Err is the point: the refused item must come back whole,
    // and refusal is the cold path.
    #[allow(clippy::result_large_err)]
    pub(crate) fn push(&self, item: WorkItem) -> Result<(), WorkItem> {
        let mut state = self.lock();
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        let slot_free = state.running < state.slots;
        self.signal_if(state, slot_free);
        Ok(())
    }

    /// Claims a slot for the caller to execute a transaction on its own
    /// thread: only on an open queue with nothing queued, so the claim
    /// never overtakes a queued item, and with a slot free.
    pub(crate) fn claim(&self) -> Option<Slot<'_>> {
        let mut state = self.lock();
        if state.closed || !state.items.is_empty() || state.running == state.slots {
            return None;
        }
        state.running += 1;
        Some(Slot { queue: self })
    }

    fn release(&self) {
        let mut state = self.lock();
        state.running -= 1;
        let waiting = !state.items.is_empty();
        self.signal_if(state, waiting);
    }

    /// Unlocks `state`, first uncounting one parked worker to signal if
    /// `wanted` and one is counted.
    fn signal_if(&self, mut state: MutexGuard<'_, QueueState>, wanted: bool) {
        let signal = wanted && state.parked > 0;
        if signal {
            state.parked -= 1;
        }
        drop(state);
        if signal {
            self.ready.notify_one();
        }
    }

    /// Closes the queue: no further pushes or claims are accepted, and
    /// pops drain what remains, then return `None`.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        // Every parked worker is signalled below.
        state.parked = 0;
        drop(state);
        self.ready.notify_all();
    }

    /// Blocks for the next item and a slot to execute it in; `None` once
    /// the queue is closed *and* drained. A worker passes back the slot
    /// of the item it `finished`, released here under the same lock, so
    /// it takes the next queued item without signalling anyone.
    pub(crate) fn pop(&self, finished: Option<Slot<'_>>) -> Option<(WorkItem, Slot<'_>)> {
        let mut state = self.lock();
        if let Some(slot) = finished {
            // Released here instead of by the guard's drop.
            std::mem::forget(slot);
            state.running -= 1;
        }
        loop {
            if state.running < state.slots {
                if let Some(item) = state.items.pop_front() {
                    state.running += 1;
                    return Some((item, Slot { queue: self }));
                }
            }
            if state.closed && state.items.is_empty() {
                return None;
            }
            state.parked += 1;
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
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

/// What a server's submitters, workers and flusher share.
pub(crate) struct Shared {
    pub(crate) store: VersionedStore,
    pub(crate) cache: GuardCache,
    pub(crate) queue: WorkQueue,
    pub(crate) sink: OutcomeSink,
    /// The server's metrics registry + transaction trace ring. Every
    /// counter, gauge, histogram, and trace event in the pipeline lands
    /// here.
    pub(crate) obs: StoreMetrics,
    /// The durable phase (`Some` exactly when the server is persisted):
    /// workers enqueue published commits here; the flusher thread batches
    /// the fsyncs and resolves the tickets.
    pub(crate) group: Option<GroupCommitFlusher>,
    /// Whether a submitter may run its transaction itself: only on a store
    /// with no durable phase that no cross-shard prepare can hold (an
    /// unsharded in-memory server), so an inline execution never waits on
    /// another transaction.
    pub(crate) inline: bool,
}

impl Shared {
    /// Accepts one submission. When the caller lets it run here, on an
    /// [`inline`](Self::inline) store with nothing queued and a slot free,
    /// the item executes to completion on the calling thread, so its
    /// ticket has resolved when this returns. Otherwise it is queued for a
    /// worker. A closed queue refuses the item and hands it back.
    ///
    /// Persisted stores always queue: a dedicated worker publishes a burst
    /// densely enough to fill the flusher's fsync groups.
    #[allow(clippy::result_large_err)]
    pub(crate) fn submit(&self, item: WorkItem, may_run_here: bool) -> Result<(), WorkItem> {
        if may_run_here && self.inline {
            if let Some(_slot) = self.queue.claim() {
                self.obs.inline.inc();
                self.run(item);
                return Ok(());
            }
        }
        self.queue.push(item)
    }

    /// The worker loop: pop each item with a slot, [`run`](Self::run) it,
    /// and hand the slot back with the next pop. Returns when the queue is
    /// closed and empty (server shutdown).
    pub(crate) fn worker_loop(&self) {
        let mut next = self.queue.pop(None);
        while let Some((item, slot)) = next {
            self.run(item);
            next = self.queue.pop(Some(slot));
        }
    }

    /// Executes one item, settles its ticket and records its outcome: the
    /// one per-item path, whether a worker popped the item or a submitter
    /// runs it inline.
    ///
    /// Ticket settlement is two-phased where durability demands it: a
    /// commit on a server with a `group` flusher is only *published* here
    /// — the ticket is marked applied and enqueued (with its log offset)
    /// for the flusher to resolve after the covering fsync. Everything
    /// else resolves immediately. Outcome counters record at publish time:
    /// a published commit is in the serialization order regardless of
    /// when its fsync lands (and a flush failure is fail-stop, reported
    /// through every covered ticket).
    fn run(&self, mut item: WorkItem) {
        let obs = &self.obs;
        obs.queue_wait.observe(obs.us_since(item.enqueued_at_ns));
        obs.trace(item.tx, TraceStage::Dequeued);
        // A panic — a failed log write is fail-stop and poisons the store
        // — costs the item (its drop guard resolves the ticket), not the
        // executing thread: every later item then fails the same way at
        // once rather than queueing for workers that are gone.
        let run = AssertUnwindSafe(|| execute_one(&self.store, &self.cache, &item, obs));
        let Ok((outcome, wal_offset)) = std::panic::catch_unwind(run) else {
            return;
        };
        match &outcome {
            TxOutcome::Committed { .. } => obs.committed.inc(),
            TxOutcome::Aborted { .. } => obs.aborted.inc(),
            TxOutcome::Failed { .. } => obs.failed.inc(),
        }
        match (&outcome, wal_offset, &self.group) {
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
        self.sink.record(item.tx, outcome);
    }
}

/// Executes one transaction: bind (fetch-or-compile the statement shape),
/// guard, apply, offer to commit; on footprint conflict, re-validate on a
/// fresh snapshot. The compilation, guard plan included, is shared per
/// statement shape; the per-transaction work is running that plan with the
/// transaction's bindings, plus the program.
/// Returns the publish-phase outcome plus, for a commit on a persisted
/// store, the commit record's log offset — what the durable phase needs.
pub(crate) fn execute_one(
    store: &VersionedStore,
    cache: &GuardCache,
    item: &WorkItem,
    obs: &StoreMetrics,
) -> (TxOutcome, Option<u64>) {
    let prepared = match cache.bind(&item.program) {
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
        let pass = match prepared.guard_holds(&snap.db, cache.omega()) {
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vpdt_logic::parse_formula;

    fn item(tx: u64) -> WorkItem {
        WorkItem {
            tx,
            session: 1,
            program: Program::insert_consts("E", [0, 1]),
            ticket: None,
            enqueued_at_ns: 0,
        }
    }

    /// Two workers and four submitters claiming slots inline drain every
    /// item, never run more than two at once, and leave no slot taken
    /// and no worker counted as parked.
    #[test]
    fn workers_and_inline_claims_share_the_slots() {
        const SLOTS: usize = 2;
        const SUBMITTERS: u64 = 4;
        const PER_SUBMITTER: u64 = 2_000;
        let queue = WorkQueue::new(SLOTS);
        let (executing, peak, done, inline) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let execute = || {
            let now = executing.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            executing.fetch_sub(1, Ordering::SeqCst);
            done.fetch_add(1, Ordering::SeqCst);
        };
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..SLOTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut next = queue.pop(None);
                        while let Some((_item, slot)) = next {
                            execute();
                            next = queue.pop(Some(slot));
                        }
                    })
                })
                .collect();
            let submitters: Vec<_> = (0..SUBMITTERS)
                .map(|t| {
                    let (queue, execute, inline) = (&queue, &execute, &inline);
                    scope.spawn(move || {
                        for i in 0..PER_SUBMITTER {
                            let item = item(t * PER_SUBMITTER + i);
                            match queue.claim() {
                                Some(_slot) => {
                                    execute();
                                    inline.fetch_add(1, Ordering::SeqCst);
                                }
                                None => assert!(queue.push(item).is_ok(), "the queue is open"),
                            }
                        }
                    })
                })
                .collect();
            for submitter in submitters {
                submitter.join().expect("submitter");
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while done.load(Ordering::SeqCst) < (SUBMITTERS * PER_SUBMITTER) as usize {
                assert!(
                    std::time::Instant::now() < deadline,
                    "queued items stranded with {} of {} done",
                    done.load(Ordering::SeqCst),
                    SUBMITTERS * PER_SUBMITTER
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            queue.close();
            for worker in workers {
                worker.join().expect("worker");
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= SLOTS,
            "the slots bound executions"
        );
        assert!(
            inline.load(Ordering::SeqCst) > 0,
            "some submissions ran inline"
        );
        let state = queue.lock();
        assert!(state.items.is_empty());
        assert_eq!((state.parked, state.running), (0, 0));
    }

    /// A queued item waits while an inline claim holds the only slot, and
    /// releasing the slot wakes the parked worker to run it.
    #[test]
    fn releasing_a_slot_wakes_a_worker_for_a_waiting_item() {
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while !done() {
                assert!(std::time::Instant::now() < deadline, "{what}");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        let queue = Arc::new(WorkQueue::new(1));
        let worker = std::thread::spawn({
            let queue = Arc::clone(&queue);
            move || queue.pop(None).map(|(item, _slot)| item.tx)
        });
        wait_for("the worker parks", &|| queue.lock().parked == 1);
        let slot = queue.claim().expect("the only slot");
        assert!(queue.push(item(7)).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(queue.lock().items.len(), 1, "no slot, no pop");
        drop(slot);
        wait_for("the released slot wakes the worker", &|| {
            worker.is_finished()
        });
        assert_eq!(worker.join().expect("worker"), Some(7));
        assert_eq!(queue.lock().running, 0);
    }

    /// A claimed slot comes back when the inline execution holding it
    /// panics, and a one-slot queue refuses a second claim meanwhile and
    /// any claim while items wait.
    #[test]
    fn a_panicking_inline_execution_releases_its_slot() {
        let queue = WorkQueue::new(1);
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _slot = queue.claim().expect("a free slot");
            assert!(queue.claim().is_none(), "one slot, already taken");
            panic!("the transaction panics");
        }));
        assert!(unwound.is_err());
        assert_eq!(queue.lock().running, 0);
        assert!(queue.push(item(0)).is_ok());
        assert!(
            queue.claim().is_none(),
            "an item waits: no claim overtakes it"
        );
    }

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

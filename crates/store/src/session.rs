//! Per-client sessions and transaction tickets.
//!
//! A [`Session`] is a client's handle onto a running
//! [`StoreServer`]: it stamps each submission with the
//! session's id (recorded as provenance on the history's `Begin` events)
//! and hands back a [`TxTicket`] — already resolved when the transaction
//! ran on the submitting thread (see [`Session::submit`]). The ticket is
//! the client's half of a one-shot completion slot that resolves with the typed
//! [`TxOutcome`] — so a session can pipeline many submissions and collect
//! outcomes later (blocking via [`TxTicket::wait`], or push-style via
//! [`TxTicket::on_resolve`]), or use [`Session::submit_sync`] for the
//! one-call path.
//!
//! On a durable server the ticket's life has **two phases**. A commit is
//! first *published* — its version advanced and its log record appended,
//! inside the commit critical section — and only later *durable*, when the
//! group-commit flusher has fsync'd the record. The ticket
//! tracks both: [`TxTicket::applied`] observes the publish phase,
//! [`TxTicket::wait`] blocks for the durable resolution. In-memory
//! servers (and aborts and failures everywhere) have no durable phase:
//! publishing and resolving coincide.
//!
//! Ownership is deliberately asymmetric: a ticket owns its completion slot
//! independently of the session *and* of the server's queue, so dropping a
//! `Session` mid-flight loses nothing (its transactions are already queued
//! and keep their tickets), and tickets taken before
//! [`StoreServer::shutdown`](crate::StoreServer::shutdown) still resolve
//! after it — shutdown drains the queue **and** the flusher before the
//! workers exit.

use crate::exec::TxOutcome;
use crate::server::StoreServer;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use vpdt_tx::program::Program;

/// Where a ticket is in the two-phase commit pipeline.
#[derive(Debug, Default)]
enum Phase {
    /// Not yet executed (or still retrying).
    #[default]
    Pending,
    /// Published: the commit's version is advanced and its log record
    /// appended, but the covering fsync has not happened yet — the
    /// durable acknowledgment is still owed.
    Applied {
        /// The version the publish phase produced.
        version: u64,
    },
    /// Resolved with its final outcome (for commits: durable).
    Done(TxOutcome),
}

/// A registered completion callback, invoked exactly once with the final
/// outcome. Boxed because registration is the rare path — most tickets
/// are waited on, not subscribed to.
type Completion = Box<dyn FnOnce(TxOutcome) + Send>;

/// The phase slot plus the (at most one) registered completion.
#[derive(Default)]
struct SlotState {
    phase: Phase,
    completion: Option<Completion>,
    /// Threads blocked in [`TicketState::wait`]. [`TicketState::resolve`]
    /// signals the condvar only when there is one: a notify is a futex
    /// syscall even with nobody waiting, and most tickets resolve before
    /// anyone waits on them, or are never waited on at all.
    waiters: usize,
}

impl fmt::Debug for SlotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotState")
            .field("phase", &self.phase)
            .field("completion", &self.completion.is_some())
            .field("waiters", &self.waiters)
            .finish()
    }
}

/// The shared completion slot behind a [`TxTicket`].
#[derive(Debug, Default)]
pub(crate) struct TicketState {
    slot: Mutex<SlotState>,
    done: Condvar,
}

impl TicketState {
    /// Resolves the ticket (called exactly once — by the executing worker
    /// for aborts, failures and in-memory commits; by the group-commit
    /// flusher for durable commits; or by the submission path itself when
    /// the server is shut down). Any registered completion fires here,
    /// after the slot lock is released — a completion may take arbitrary
    /// downstream locks (an outbox, a writer-pool queue) without ever
    /// nesting them under the ticket's own lock.
    pub(crate) fn resolve(&self, outcome: TxOutcome) {
        let completion = {
            let mut slot = self.slot.lock().expect("ticket lock poisoned");
            debug_assert!(
                !matches!(slot.phase, Phase::Done(_)),
                "a ticket resolves exactly once"
            );
            slot.phase = Phase::Done(outcome.clone());
            if slot.waiters > 0 {
                self.done.notify_all();
            }
            slot.completion.take()
        };
        if let Some(completion) = completion {
            completion(outcome);
        }
    }

    /// Marks the publish phase: the commit is applied at `version` and its
    /// log record appended, durability pending. The ticket stays
    /// unresolved — [`wait`](TicketState::wait) keeps blocking until the
    /// flusher resolves it, and any registered completion keeps waiting
    /// for the durable outcome.
    pub(crate) fn mark_applied(&self, version: u64) {
        let mut slot = self.slot.lock().expect("ticket lock poisoned");
        debug_assert!(
            matches!(slot.phase, Phase::Pending),
            "publish happens once, before resolution"
        );
        slot.phase = Phase::Applied { version };
        // No completion notification: nothing an outcome-waiter can use yet.
    }

    /// Resolves the ticket only if nothing resolved it yet — the
    /// last-resort path (`WorkItem::drop`) that guarantees no client ever
    /// hangs on a ticket whose work item died without an outcome (worker
    /// panic mid-transaction, or a queue dropped with items still in it).
    /// Runs during unwinding, so it tolerates a poisoned lock instead of
    /// double-panicking, and shields itself from a panicking completion.
    pub(crate) fn resolve_if_unresolved(&self, outcome: TxOutcome) {
        let completion = {
            let mut slot = match self.slot.lock() {
                Ok(slot) => slot,
                Err(poisoned) => poisoned.into_inner(),
            };
            if matches!(slot.phase, Phase::Done(_)) {
                return;
            }
            slot.phase = Phase::Done(outcome.clone());
            self.done.notify_all();
            slot.completion.take()
        };
        if let Some(completion) = completion {
            let _ = catch_unwind(AssertUnwindSafe(move || completion(outcome)));
        }
    }

    /// Registers `completion` to fire with the final outcome. If the
    /// ticket already resolved, fires immediately (on the caller's
    /// thread); otherwise it runs on whichever thread resolves the ticket.
    /// At most one completion is held: registering again replaces the
    /// previous callback, which is dropped unfired.
    fn on_resolve(&self, completion: Completion) {
        let mut slot = self.slot.lock().expect("ticket lock poisoned");
        if let Phase::Done(outcome) = &slot.phase {
            let outcome = outcome.clone();
            drop(slot);
            completion(outcome);
        } else {
            slot.completion = Some(completion);
        }
    }

    fn wait(&self) -> TxOutcome {
        let mut slot = self.slot.lock().expect("ticket lock poisoned");
        loop {
            if let Phase::Done(outcome) = &slot.phase {
                return outcome.clone();
            }
            slot.waiters += 1;
            slot = self.done.wait(slot).expect("ticket lock poisoned");
            slot.waiters -= 1;
        }
    }

    fn peek(&self) -> Option<TxOutcome> {
        match &self.slot.lock().expect("ticket lock poisoned").phase {
            Phase::Done(outcome) => Some(outcome.clone()),
            _ => None,
        }
    }

    fn applied_version(&self) -> Option<u64> {
        match &self.slot.lock().expect("ticket lock poisoned").phase {
            Phase::Pending => None,
            Phase::Applied { version } => Some(*version),
            Phase::Done(TxOutcome::Committed { version }) => Some(*version),
            Phase::Done(_) => None,
        }
    }
}

/// A claim on one submitted transaction's outcome.
///
/// Returned by [`Session::submit`]; [`TxTicket::wait`] blocks
/// until the transaction's *final* outcome is known — for a commit on a
/// durable server, until the covering group fsync has made it durable.
/// [`TxTicket::on_resolve`] is the non-blocking dual: a completion
/// callback fired at the same resolution point, for callers that
/// multiplex many tickets.
/// Tickets are independent of the session and the server's lifetime — they
/// resolve even if the session is dropped or the server is shut down after
/// submission.
#[derive(Debug)]
pub struct TxTicket {
    id: u64,
    session: u64,
    state: Arc<TicketState>,
}

impl TxTicket {
    pub(crate) fn new(id: u64, session: u64, state: Arc<TicketState>) -> Self {
        TxTicket { id, session, state }
    }

    /// The transaction id the server assigned (history events and
    /// [`ExecReport`](crate::ExecReport) outcomes are keyed by it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The id of the session that submitted it.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Blocks until the transaction's typed outcome is known. On a durable
    /// server a `Committed` outcome returned here is **durable**: its log
    /// record was fsync'd by the group-commit flusher before the ticket
    /// resolved.
    pub fn wait(&self) -> TxOutcome {
        self.state.wait()
    }

    /// The outcome, if already resolved (never blocks).
    pub fn try_outcome(&self) -> Option<TxOutcome> {
        self.state.peek()
    }

    /// Registers a completion to fire exactly once with the final outcome
    /// — the push-style dual of [`wait`](TxTicket::wait), for callers
    /// multiplexing many tickets without parking a thread per ticket
    /// (e.g. a network front door stamping outcomes into per-connection
    /// outboxes).
    ///
    /// Delivery guarantees:
    ///
    /// * If the ticket is already resolved, the completion fires
    ///   immediately on the calling thread. Otherwise it fires on
    ///   whichever thread resolves the ticket — an executing worker, the
    ///   group-commit flusher, or the drop-guard of a dying work item —
    ///   so it must be quick and must not block on store progress.
    /// * The completion is invoked *after* the ticket's internal lock is
    ///   released: it may take its own locks freely, and
    ///   [`wait`](TxTicket::wait)/[`try_outcome`](TxTicket::try_outcome)
    ///   already observe the outcome when it runs.
    /// * For a durable commit the completion fires at the *durable*
    ///   resolution (after the covering fsync), not at publish — the same
    ///   point `wait` unblocks.
    /// * At most one completion is held per ticket: registering a second
    ///   replaces the first, which is dropped unfired.
    pub fn on_resolve(&self, completion: impl FnOnce(TxOutcome) + Send + 'static) {
        self.state.on_resolve(Box::new(completion));
    }

    /// The version at which the commit was *published*, if it has been —
    /// visible as soon as the publish phase completes, possibly before the
    /// durable acknowledgment. `None` while pending, and for transactions
    /// that aborted or failed. An applied-but-unresolved commit is already
    /// in the serialization order; only its fsync is still owed.
    pub fn applied(&self) -> Option<u64> {
        self.state.applied_version()
    }
}

/// A client's handle onto a running [`StoreServer`].
///
/// Sessions are cheap (an id plus a reference) and independent: many
/// sessions submit concurrently, and transactions from all sessions share
/// the server's guard cache — two sessions submitting the same statement
/// shape share one compilation.
#[derive(Debug)]
pub struct Session<'a> {
    server: &'a StoreServer,
    id: u64,
}

impl<'a> Session<'a> {
    pub(crate) fn new(server: &'a StoreServer, id: u64) -> Self {
        Session { server, id }
    }

    /// This session's id (recorded on its transactions' `Begin` events).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submits a program for execution and returns its ticket. The
    /// transaction id is assigned here, in submission order.
    ///
    /// On an unsharded in-memory server with nothing queued and an
    /// execution slot free (fewer than
    /// [`workers`](crate::StoreBuilder::workers) transactions executing),
    /// the transaction runs to completion on the calling thread before
    /// `submit` returns, so the ticket has already resolved. Otherwise —
    /// on a persisted server or a shard always — it is queued for the
    /// worker pool and the ticket returns at once.
    pub fn submit(&self, program: Program) -> TxTicket {
        self.server.enqueue(self.id, program, true)
    }

    /// Like [`submit`](Session::submit), but the transaction always goes
    /// to the worker pool and the ticket returns at once: for a thread
    /// that serves many clients, such as a network reactor, where one
    /// slow transaction run in place would stall every other client it
    /// serves.
    pub fn submit_queued(&self, program: Program) -> TxTicket {
        self.server.enqueue(self.id, program, false)
    }

    /// The one-call convenience path: submit, then block for the outcome.
    pub fn submit_sync(&self, program: Program) -> TxOutcome {
        self.submit(program).wait()
    }
}

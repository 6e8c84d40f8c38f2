//! # vpdt-store
//!
//! A concurrent, guard-verified transaction store: the paper's
//! integrity-maintenance programme (Section 6) turned into a server-shaped
//! subsystem.
//!
//! The introduction of *Verifiable Properties of Database Transactions*
//! contrasts two ways to keep a constraint `α` invariant: run every
//! transaction `T` and roll back when the result violates `α`, or — given
//! computable weakest preconditions (Theorem 8) — replace `T` by the
//! statically verified `if wpc(T, α) then T else abort`, which never needs
//! a rollback. This crate serves that second strategy to many long-lived
//! concurrent clients.
//!
//! ## The front door: a server with sessions
//!
//! ```no_run
//! use vpdt_store::{StoreBuilder, TxOutcome};
//! use vpdt_logic::parse_formula;
//! use vpdt_structure::Database;
//! use vpdt_tx::program::Program;
//!
//! let alpha = parse_formula("forall x y z. E(x, y) & E(x, z) -> y = z").unwrap();
//! let server = StoreBuilder::new(Database::graph([(0, 1)]), alpha)
//!     .workers(4)
//!     .build()
//!     .expect("initial state satisfies the constraint");
//!
//! let session = server.session();
//! // async submission: get a ticket now, the outcome later
//! let ticket = session.submit(Program::insert_consts("E", [1, 4]));
//! match ticket.wait() {
//!     TxOutcome::Committed { version } => println!("committed at v{version}"),
//!     TxOutcome::Aborted { reason } => println!("guard aborted: {reason}"),
//!     TxOutcome::Failed { error } => println!("failed: {error}"),
//! }
//! // ...or the one-call path
//! let outcome = session.submit_sync(Program::delete_consts("E", [0, 1]));
//! drop(session);
//! let report = server.shutdown(); // drains in-flight work
//! assert_eq!(report.exec.failed, 0);
//! ```
//!
//! * [`StoreBuilder`] configures the constraint `α`, the Ω interpretation,
//!   the guard-cache capacity, the worker-pool size, and persistence, then
//!   spawns a resident [`StoreServer`]. The guard
//!   soundness base case — `α` holds at admission — is established once per
//!   server, in `build()`;
//! * [`Session`]s are per-client handles. [`Session::submit`] returns a
//!   [`TxTicket`]; [`TxTicket::wait`] blocks for the typed [`TxOutcome`].
//!   On an unsharded in-memory server with an execution slot free, the
//!   transaction runs on the submitting thread before `submit` returns, so
//!   the ticket is already resolved; otherwise (and always for
//!   [`Session::submit_queued`]) it is queued for the worker pool and the
//!   ticket returns at once.
//!   Tickets outlive their session — dropping a session mid-flight loses
//!   nothing;
//! * [`StoreServer::shutdown`] closes the queue, drains every in-flight
//!   transaction (all outstanding tickets still resolve), joins the
//!   workers, and returns a [`ServerReport`] — the final [`ExecReport`],
//!   the history, the final state, and the statement templates an audit
//!   needs.
//!
//! ## Underneath
//!
//! * [`snapshot::VersionedStore`] — a versioned, copy-on-write in-memory
//!   store. Readers share immutable [`Snapshot`]s behind `Arc`; commits are
//!   validated optimistically at *relation granularity*, so transactions
//!   with disjoint footprints commit concurrently without interfering;
//! * [`guard::GuardCache`] — splits each program into a prepared
//!   statement (`vpdt_tx::template`: a constant-free *shape* plus bindings;
//!   a cache hit matches the shape by a structural fingerprint and
//!   canonicalizes only on a miss),
//!   compiles each distinct **shape** once into a
//!   [`vpdt_core::safe::GuardCompilation`] (the Section 6 Δ per conjunct,
//!   `wpc` only where none applies), instantiates guards per
//!   transaction by binding substitution, and bounds live compilations with
//!   LRU eviction — so compilation cost is O(statement shapes), independent
//!   of the universe. Two sessions submitting the same statement shape share
//!   one compilation;
//! * [`exec`] — the one per-item execution path behind the one front
//!   door (run by the resident worker pool, or inline by the submitting
//!   thread), plus the serial check-and-rollback baseline it displaces;
//! * [`history`] — a begin/guard-eval/commit/abort event log with snapshot
//!   versions, per-relation commitment root hashes, and per-transaction
//!   session provenance;
//! * [`wal`] — the write-ahead log that makes history and state durable.
//!   Commits run in two phases: **publish** (version advanced, record
//!   staged — inside the commit critical section) and **durable** (the
//!   record written and fsync'd by a shared group-commit flusher, which
//!   covers every commit pending when it starts with one write and one
//!   fsync and only then resolves their tickets);
//! * [`replay`] — the one replay kernel every recorded commit is
//!   re-verified through, and crash recovery built on it;
//! * [`audit`](mod@audit) — replays a history through the *rollback* path
//!   ([`vpdt_core::safe::RuntimeChecked`]), checking that the commit order
//!   is a gapless serialization, that `α` holds at every committed version,
//!   and that the guard path and the check-and-rollback path agreed on
//!   every decision;
//! * [`workload`] — deterministic (caller-seeded) multi-relation workloads
//!   for the benches and tests.
//!
//! The concurrency argument, in one paragraph: every commit is validated
//! against the relation-versions of its read-and-write footprint, so the
//! committed history is equivalent to the serial execution in commit-version
//! order — which is exactly what the audit replays. Guards evaluated on a
//! snapshot that is stale only *outside* the footprint are still exact
//! because on `α`-states a guard decides like the exact `wpc`, and the
//! kept constraint conjuncts are domain-independent (see
//! [`vpdt_core::safe::compile_guard`]); guards that cannot establish that
//! property fall back to whole-store footprints and hence serial validation.

pub mod audit;
mod disk;
pub mod exec;
pub mod guard;
pub mod history;
pub mod metrics;
pub mod replay;
pub mod server;
pub mod session;
pub mod shard;
pub mod snapshot;
pub mod wal;
pub mod workload;

pub use audit::{audit, audit_from, cold_audit, cold_audit_dir, cold_audit_from, AuditReport};
pub use exec::{run_serial_rollback, ExecReport, TxOutcome};
pub use guard::{BoundTx, CacheStats, GuardCache, PreparedShape, PreparedTx, ShapeStat};
pub use history::{Event, History, HistorySegment};
pub use metrics::StoreMetrics;
pub use server::{ServerReport, StoreBuilder, StoreServer};
pub use session::{Session, TxTicket};
pub use shard::{
    cold_audit_sharded, is_sharded_layout, CrossOutcome, Routed, ShardedAuditReport,
    ShardedBuilder, ShardedReport, ShardedStore,
};
pub use snapshot::{CommitOutcome, CommitRequest, Snapshot, VersionedStore};
pub use vpdt_obs::{
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, TraceEvent, TraceStage, TxTimeline,
    TxTrace,
};
pub use wal::{FlushStats, Recovered, RecoveryError, RecoveryOptions, WalError, WalOptions};

/// The durable name of the versioned store: `Store::recover(dir, &omega)`
/// rebuilds one from a persisted directory, replaying snapshot + log tail
/// with full hash and provenance verification (see [`wal`]).
pub type Store = VersionedStore;

use vpdt_core::safe::GuardError;
use vpdt_eval::EvalError;
use vpdt_tx::traits::TxError;

/// Errors surfaced by the store pipeline — fully typed, so clients can
/// branch on the cause (and servers can carry the version, shape, and
/// footprint that produced it) without parsing message strings. `Display`
/// renders the exact text the previous stringly-typed API produced, so log
/// output is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Guard compilation failed (program does not admit prerelations, or
    /// the constraint uses counting constructs).
    Guard(GuardError),
    /// A transaction failed while executing (not a deliberate abort).
    Tx(TxError),
    /// A formula failed to evaluate.
    Eval(EvalError),
    /// The store's state at `version` violates `α`: the Section 6 guards
    /// are only sound on consistent states, so nothing may run.
    GuardUnsound {
        /// The store version whose state violates the constraint.
        version: u64,
    },
    /// The constraint itself failed to evaluate on the store's state, so
    /// soundness of the guards cannot be established.
    ConstraintUnevaluable {
        /// The store version the constraint was evaluated against.
        version: u64,
        /// The evaluation error.
        error: EvalError,
    },
    /// The server is shut down; the submission was not accepted.
    ShutDown,
    /// The work item died without producing an outcome — its executing
    /// worker panicked mid-transaction, or the queue was torn down around
    /// it. Delivered by the ticket's last-resort resolution so a waiting
    /// client fails instead of hanging.
    WorkerLost,
    /// The write-ahead log failed (I/O, damaged files, format mismatch) —
    /// surfaced when persistence is being established, recovered or
    /// checkpointed, to every ticket a failed flush covered, and to a
    /// cross-shard transaction whose prepared shard can no longer flush.
    /// A failed write or fsync is never retried: every later write or
    /// sync of that file fails with the same error, so a failed
    /// write-ahead log stops the server rather than acknowledging again
    /// (see [`history`] and [`wal`]).
    Wal(WalError),
    /// Recovery refused the on-disk state (divergence, bad provenance, a
    /// hash mismatch) — surfaced by
    /// [`StoreBuilder::recover`](crate::StoreBuilder::recover).
    Recovery(RecoveryError),
    /// The configuration cannot be sharded: a constraint conjunct spans
    /// shards or is not domain-independent, the shard count exceeds the
    /// relation count, or a persisted directory is not a sharded layout.
    /// Surfaced by [`ShardedBuilder::build`](crate::ShardedBuilder::build).
    Unshardable {
        /// What exactly was refused.
        detail: String,
    },
    /// A persisted server was given a history sink: its log already is
    /// its history, so there are no finished tails to hand over. Surfaced
    /// by [`StoreBuilder::build`](crate::StoreBuilder::build).
    PersistedSink,
}

impl StoreError {
    /// A short stable code naming the error kind — what trace events and
    /// metric labels record, so dashboards don't depend on `Display` text.
    pub fn code(&self) -> &'static str {
        match self {
            StoreError::Guard(_) => "guard",
            StoreError::Tx(_) => "tx",
            StoreError::Eval(_) => "eval",
            StoreError::GuardUnsound { .. } => "guard_unsound",
            StoreError::ConstraintUnevaluable { .. } => "constraint_unevaluable",
            StoreError::ShutDown => "shutdown",
            StoreError::WorkerLost => "worker_lost",
            StoreError::Wal(_) => "wal",
            StoreError::Recovery(_) => "recovery",
            StoreError::Unshardable { .. } => "unshardable",
            StoreError::PersistedSink => "persisted_sink",
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Guard(e) => write!(f, "guard compilation: {e}"),
            StoreError::Tx(e) => write!(f, "transaction: {e}"),
            // the raw message, not EvalError's own Display — this is the
            // exact text the stringly-typed API produced
            StoreError::Eval(e) => write!(f, "evaluation: {}", e.0),
            StoreError::GuardUnsound { version } => write!(
                f,
                "store state at version {version} violates the constraint; \
                 guards would be unsound"
            ),
            StoreError::ConstraintUnevaluable { error, .. } => {
                write!(
                    f,
                    "constraint does not evaluate on the store state: {error}"
                )
            }
            StoreError::ShutDown => write!(f, "store server is shut down"),
            StoreError::WorkerLost => {
                write!(f, "transaction abandoned: its executing worker terminated")
            }
            StoreError::Wal(e) => write!(f, "write-ahead log: {e}"),
            StoreError::Recovery(e) => write!(f, "recovery: {e}"),
            StoreError::Unshardable { detail } => {
                write!(f, "configuration cannot be sharded: {detail}")
            }
            StoreError::PersistedSink => write!(
                f,
                "a history sink needs an in-memory server: a persisted server's log is its \
                 history"
            ),
        }
    }
}

impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        StoreError::Wal(e)
    }
}

impl From<RecoveryError> for StoreError {
    fn from(e: RecoveryError) -> Self {
        StoreError::Recovery(e)
    }
}

impl std::error::Error for StoreError {}

impl From<GuardError> for StoreError {
    fn from(e: GuardError) -> Self {
        StoreError::Guard(e)
    }
}

impl From<TxError> for StoreError {
    fn from(e: TxError) -> Self {
        StoreError::Tx(e)
    }
}

impl From<EvalError> for StoreError {
    fn from(e: EvalError) -> Self {
        StoreError::Eval(e)
    }
}

/// Why a transaction was deliberately aborted — typed, with the snapshot
/// version and statement shape the decision was made against. `Display`
/// matches the strings the previous API logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// The instantiated guard failed: committing would have violated `α`.
    GuardFailed {
        /// The snapshot version the failing guard evaluated against.
        version: u64,
        /// The transaction's statement-shape id (see `GuardCache`).
        shape: u64,
    },
    /// The deferred check-and-rollback baseline ran the transaction, found
    /// the constraint violated, and rolled the state back.
    RolledBack {
        /// The rollback path's own message.
        reason: String,
    },
}

impl AbortReason {
    /// The snapshot version the abort decision observed, where known.
    pub fn version(&self) -> Option<u64> {
        match self {
            AbortReason::GuardFailed { version, .. } => Some(*version),
            AbortReason::RolledBack { .. } => None,
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::GuardFailed { version, .. } => {
                write!(f, "guard failed at version {version}")
            }
            AbortReason::RolledBack { reason } => write!(f, "{reason}"),
        }
    }
}

#[cfg(test)]
mod crash;

#[cfg(test)]
mod tests {
    use super::*;

    /// The typed variants must render exactly the strings the old API
    /// produced, so existing logs and log-scraping keep working.
    #[test]
    fn typed_errors_display_legacy_text() {
        assert_eq!(
            StoreError::GuardUnsound { version: 7 }.to_string(),
            "store state at version 7 violates the constraint; guards would be unsound"
        );
        assert_eq!(
            StoreError::ConstraintUnevaluable {
                version: 3,
                error: EvalError("unknown relation Q".into()),
            }
            .to_string(),
            "constraint does not evaluate on the store state: \
             evaluation error: unknown relation Q"
        );
        assert_eq!(
            AbortReason::GuardFailed {
                version: 12,
                shape: 4
            }
            .to_string(),
            "guard failed at version 12"
        );
        assert_eq!(
            StoreError::Tx(TxError::Aborted("x".into())).to_string(),
            "transaction: transaction aborted: x"
        );
    }
}

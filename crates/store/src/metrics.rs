//! The store's metric handles: one [`MetricsRegistry`] per server, with
//! every commit-pipeline counter, gauge, and stage histogram pre-resolved
//! so the hot path never takes a registry lock, plus the shared
//! transaction-lifecycle [`TxTrace`] ring.
//!
//! Counters are **lifetime totals** for the owning server; windowed
//! readings come from [`MetricsSnapshot::delta`]. See the README's
//! "Observability" section for the full metric catalogue.

use std::sync::Arc;

use vpdt_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, TraceEvent, TraceStage, TxTrace,
};

/// The store's metric names, in one place so exposition, tests, and docs
/// cannot drift apart.
pub mod names {
    /// Programs submitted (run inline or queued).
    pub const TX_SUBMITTED: &str = "store_tx_submitted_total";
    /// Submissions executed on the submitting thread, not by a worker:
    /// [`Session::submit`](crate::Session::submit)s to an unsharded
    /// in-memory store that found nothing queued and an execution slot
    /// free (a subset of [`TX_SUBMITTED`]).
    pub const TX_INLINE: &str = "store_tx_inline_total";
    /// Transactions committed (published; durable too when persistence is on).
    pub const TX_COMMITTED: &str = "store_tx_committed_total";
    /// Transactions deliberately aborted (guard failed).
    pub const TX_ABORTED: &str = "store_tx_aborted_total";
    /// Transactions failed with an error.
    pub const TX_FAILED: &str = "store_tx_failed_total";
    /// Footprint-validation conflicts that forced a re-run.
    pub const TX_CONFLICTS: &str = "store_tx_conflicts_total";
    /// Conflicts on a relation held by a cross-shard prepare, each waited
    /// out until the 2PC decision released the hold (a subset of
    /// [`TX_CONFLICTS`]).
    pub const TX_HOLD_WAITS: &str = "store_tx_hold_waits_total";
    /// Guard-cache lookups served by a live compiled shape.
    pub const GUARD_CACHE_HITS: &str = "store_guard_cache_hits_total";
    /// Guard-cache lookups that had to compile.
    pub const GUARD_CACHE_MISSES: &str = "store_guard_cache_misses_total";
    /// Compiled shapes evicted by the LRU bound.
    pub const GUARD_CACHE_EVICTIONS: &str = "store_guard_cache_evictions_total";
    /// fsync batches the group-commit flusher wrote.
    pub const WAL_FSYNCS: &str = "store_wal_fsyncs_total";
    /// Commits made durable (tickets resolved by a covering fsync).
    pub const WAL_FLUSHED_COMMITS: &str = "store_wal_flushed_commits_total";
    /// Flush errors (fail-stop: the flusher stops serving after the first).
    pub const WAL_FLUSH_FAILURES: &str = "store_wal_flush_failures_total";
    /// Segment `write(2)` calls of staged WAL records — at most one per
    /// flusher fsync, plus one per rotation, checkpoint or full staging
    /// buffer that found records staged.
    pub const WAL_WRITES: &str = "store_wal_writes_total";
    /// Flush batches by exact size; rendered as
    /// `store_wal_flush_batches_total{size="k"}`.
    pub const WAL_FLUSH_BATCHES: &str = "store_wal_flush_batches_total";
    /// Checkpoints written.
    pub const CHECKPOINTS: &str = "store_checkpoints_total";
    /// WAL segments deleted by garbage collection.
    pub const WAL_SEGMENTS_DELETED: &str = "store_wal_segments_deleted_total";
    /// Superseded checkpoint files deleted by garbage collection.
    pub const CHECKPOINT_FILES_DELETED: &str = "store_checkpoint_files_deleted_total";
    /// Current committed store version.
    pub const VERSION: &str = "store_version";
    /// Live compiled guard-cache entries.
    pub const GUARD_CACHE_ENTRIES: &str = "store_guard_cache_entries";
    /// Distinct statement shapes ever seen.
    pub const GUARD_CACHE_SHAPES: &str = "store_guard_cache_shapes";
    /// Bytes of the in-memory history: its events' WAL payloads.
    pub const HISTORY_BYTES: &str = "store_history_bytes";
    /// Submit → dequeue wait, µs.
    pub const STAGE_QUEUE_WAIT: &str = "store_stage_queue_wait_us";
    /// Guard instantiation + evaluation, µs (per attempt).
    pub const STAGE_GUARD_EVAL: &str = "store_stage_guard_eval_us";
    /// Publish phase as the worker sees it (lock wait + critical
    /// section), µs.
    pub const STAGE_PUBLISH: &str = "store_stage_publish_us";
    /// Commit critical section only — time the store's write lock is
    /// *held* (validate + merge + version bump + root hash + WAL append),
    /// µs. `STAGE_PUBLISH` minus this is lock wait.
    pub const STAGE_PUBLISH_LOCK: &str = "store_publish_critical_section_us";
    /// Publish → covering fsync resolved the ticket, µs.
    pub const STAGE_PUBLISH_TO_DURABLE: &str = "store_stage_publish_to_durable_us";
    /// Submit → final outcome, µs.
    pub const TX_TOTAL: &str = "store_tx_total_us";
    /// Cross-shard transactions committed by the 2PC coordinator.
    pub const CROSS_COMMITTED: &str = "store_cross_committed_total";
    /// Cross-shard transactions aborted (global guard failed).
    pub const CROSS_ABORTED: &str = "store_cross_aborted_total";
    /// Shard prepares that had to wait for another decision's holds to
    /// release: at most one per touched shard per cross-shard transaction.
    pub const CROSS_PREPARE_RETRIES: &str = "store_cross_prepare_retries_total";
    /// 2PC prepare phase (all shards held + union snapshot), µs.
    pub const CROSS_STAGE_PREPARE: &str = "store_cross_prepare_us";
    /// 2PC decide phase (guard + run + decision append/fsync), µs.
    pub const CROSS_STAGE_DECIDE: &str = "store_cross_decide_us";
    /// Cross-shard submit → every branch committed, µs.
    pub const CROSS_TOTAL: &str = "store_cross_total_us";
}

/// Pre-resolved handles for every store metric, plus the shared trace
/// ring. Cloning shares the registry and every handle.
#[derive(Clone, Debug)]
pub struct StoreMetrics {
    /// The owning registry (shared clock epoch, snapshot source).
    pub registry: Arc<MetricsRegistry>,
    /// The transaction-lifecycle trace ring (capacity 0 = disabled).
    pub trace: Arc<TxTrace>,
    /// [`names::TX_SUBMITTED`].
    pub submitted: Counter,
    /// [`names::TX_INLINE`].
    pub inline: Counter,
    /// [`names::TX_COMMITTED`].
    pub committed: Counter,
    /// [`names::TX_ABORTED`].
    pub aborted: Counter,
    /// [`names::TX_FAILED`].
    pub failed: Counter,
    /// [`names::TX_CONFLICTS`].
    pub conflicts: Counter,
    /// [`names::TX_HOLD_WAITS`].
    pub hold_waits: Counter,
    /// [`names::WAL_FSYNCS`].
    pub wal_fsyncs: Counter,
    /// [`names::WAL_FLUSHED_COMMITS`].
    pub wal_flushed_commits: Counter,
    /// [`names::WAL_FLUSH_FAILURES`].
    pub wal_flush_failures: Counter,
    /// [`names::WAL_WRITES`].
    pub wal_writes: Counter,
    /// [`names::CHECKPOINTS`].
    pub checkpoints: Counter,
    /// [`names::WAL_SEGMENTS_DELETED`].
    pub wal_segments_deleted: Counter,
    /// [`names::CHECKPOINT_FILES_DELETED`].
    pub checkpoint_files_deleted: Counter,
    /// [`names::VERSION`].
    pub version: Gauge,
    /// [`names::GUARD_CACHE_ENTRIES`].
    pub cache_entries: Gauge,
    /// [`names::GUARD_CACHE_SHAPES`].
    pub cache_shapes: Gauge,
    /// [`names::HISTORY_BYTES`].
    pub history_bytes: Gauge,
    /// [`names::STAGE_QUEUE_WAIT`].
    pub queue_wait: Histogram,
    /// [`names::STAGE_GUARD_EVAL`].
    pub guard_eval: Histogram,
    /// [`names::STAGE_PUBLISH`].
    pub publish: Histogram,
    /// [`names::STAGE_PUBLISH_LOCK`].
    pub publish_lock: Histogram,
    /// [`names::STAGE_PUBLISH_TO_DURABLE`].
    pub publish_to_durable: Histogram,
    /// [`names::TX_TOTAL`].
    pub tx_total: Histogram,
}

impl StoreMetrics {
    /// A fresh registry + trace ring holding at most `trace_capacity`
    /// events (0 disables tracing).
    pub fn new(trace_capacity: usize) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let trace = Arc::new(TxTrace::new(trace_capacity));
        StoreMetrics {
            submitted: registry.counter(names::TX_SUBMITTED),
            inline: registry.counter(names::TX_INLINE),
            committed: registry.counter(names::TX_COMMITTED),
            aborted: registry.counter(names::TX_ABORTED),
            failed: registry.counter(names::TX_FAILED),
            conflicts: registry.counter(names::TX_CONFLICTS),
            hold_waits: registry.counter(names::TX_HOLD_WAITS),
            wal_fsyncs: registry.counter(names::WAL_FSYNCS),
            wal_flushed_commits: registry.counter(names::WAL_FLUSHED_COMMITS),
            wal_flush_failures: registry.counter(names::WAL_FLUSH_FAILURES),
            wal_writes: registry.counter(names::WAL_WRITES),
            checkpoints: registry.counter(names::CHECKPOINTS),
            wal_segments_deleted: registry.counter(names::WAL_SEGMENTS_DELETED),
            checkpoint_files_deleted: registry.counter(names::CHECKPOINT_FILES_DELETED),
            version: registry.gauge(names::VERSION),
            cache_entries: registry.gauge(names::GUARD_CACHE_ENTRIES),
            cache_shapes: registry.gauge(names::GUARD_CACHE_SHAPES),
            history_bytes: registry.gauge(names::HISTORY_BYTES),
            queue_wait: registry.histogram(names::STAGE_QUEUE_WAIT),
            guard_eval: registry.histogram(names::STAGE_GUARD_EVAL),
            publish: registry.histogram(names::STAGE_PUBLISH),
            publish_lock: registry.histogram(names::STAGE_PUBLISH_LOCK),
            publish_to_durable: registry.histogram(names::STAGE_PUBLISH_TO_DURABLE),
            tx_total: registry.histogram(names::TX_TOTAL),
            registry,
            trace,
        }
    }

    /// Nanoseconds since the registry epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.registry.now_ns()
    }

    /// Microseconds elapsed since `start_ns` (an earlier [`now_ns`](Self::now_ns)).
    #[inline]
    pub fn us_since(&self, start_ns: u64) -> u64 {
        self.registry.now_ns().saturating_sub(start_ns) / 1_000
    }

    /// Record a trace event for `tx`, stamped now. No-op when tracing is
    /// disabled.
    #[inline]
    pub fn trace(&self, tx: u64, stage: TraceStage) {
        self.trace_with(tx, || stage);
    }

    /// [`trace`](Self::trace) for a stage that costs something to build
    /// (a formatted reason): `stage` runs only when tracing is enabled.
    #[inline]
    pub fn trace_with(&self, tx: u64, stage: impl FnOnce() -> TraceStage) {
        if self.trace.enabled() {
            self.trace.record(TraceEvent {
                tx,
                at_ns: self.registry.now_ns(),
                stage: stage(),
            });
        }
    }

    /// The labeled counter for flush batches of exactly `size` commits
    /// (`store_wal_flush_batches_total{size="k"}`). Formats the name and
    /// takes the registry lock on every call, so the flusher calls it once
    /// per size and keeps the handle.
    pub fn batch_size_counter(&self, size: usize) -> Counter {
        self.registry
            .counter(&format!("{}{{size=\"{size}\"}}", names::WAL_FLUSH_BATCHES))
    }

    /// A point-in-time reading of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

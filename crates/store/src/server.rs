//! The resident store server: a builder-configured worker pool serving
//! long-lived client sessions.
//!
//! [`StoreBuilder`] collects a configuration — constraint `α`, the Ω
//! interpretation, guard-cache capacity, worker-pool size, persistence —
//! and [`StoreBuilder::build`] establishes the guard
//! soundness base case (`α` holds at admission) **once per server**, then
//! spawns the workers. From then on the server owns the execution layer:
//! the submission queue (an MPMC queue sessions feed), the versioned
//! store, the guard cache, and the lifecycle. Clients hold
//! [`Session`] handles and receive
//! [`TxTicket`]s; nobody owns a batch. A worker whose commit loses
//! footprint validation re-validates on a fresh snapshot until it
//! commits: a conflict means another transaction committed, so the loop
//! always makes progress, and a conflict on a relation held by a
//! cross-shard prepare first waits for the release.
//!
//! [`StoreServer::shutdown`] closes the queue, lets the workers drain every
//! already-submitted transaction (outstanding tickets all resolve), joins
//! the pool, and returns the final [`ServerReport`].

use crate::disk::{self, Dir, Disk};
use crate::exec::{self, ExecReport, OutcomeSink, Shared, TxOutcome, WorkItem, WorkQueue};
use crate::guard::{CacheStats, GuardCache};
use crate::history::{Event, History, HistorySegment};
use crate::metrics::StoreMetrics;
use crate::session::{Session, TicketState, TxTicket};
use crate::snapshot::{Snapshot, VersionedStore};
use crate::wal::{
    self, DurableLog, FlushStats, GroupCommitFlusher, Recovered, RecoveryError, RecoveryOptions,
    WalOptions, WalWriter,
};
use crate::StoreError;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use vpdt_eval::Omega;
use vpdt_logic::{Formula, Schema};
use vpdt_obs::{MetricsSnapshot, TraceStage, TxTimeline};
use vpdt_structure::Database;
use vpdt_tx::program::Program;
use vpdt_tx::template::Template;

/// Default capacity of the transaction-lifecycle trace ring
/// ([`StoreBuilder::trace_capacity`]): enough for the full lifecycles of
/// the last ~1500 transactions at ~5 events each.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// How many of the slowest traced transactions a [`ServerReport`] keeps.
const SLOWEST_IN_REPORT: usize = 16;

/// Where a server's state comes from: a fresh initial database, or a
/// persisted directory to recover.
#[derive(Clone, Debug)]
enum Source {
    Fresh {
        initial: Database,
        alpha: Formula,
    },
    /// Recover state, constraint, shape identities and history from `dir`
    /// (unless `recovered` already holds that recovery), then resume
    /// appending to its log.
    Recover {
        dir: PathBuf,
        recovered: Option<Box<Recovered>>,
    },
}

/// Configuration for a [`StoreServer`]. Construct with an initial state
/// and the constraint `α` ([`StoreBuilder::new`]) or from a persisted
/// directory ([`StoreBuilder::recover`]); everything else has serviceable
/// defaults.
#[derive(Clone, Debug)]
pub struct StoreBuilder {
    source: Source,
    omega: Omega,
    cache_capacity: usize,
    workers: usize,
    retain_outcomes: bool,
    persist_dir: Option<PathBuf>,
    wal_opts: WalOptions,
    trace_capacity: usize,
    history_sink: Option<Sender<HistorySegment>>,
    disk: Arc<dyn Disk>,
    /// Whether the server is one shard of a [`ShardedStore`](crate::ShardedStore),
    /// whose cross-shard prepares can hold its relations.
    shard: bool,
}

impl StoreBuilder {
    /// A builder over `initial` (ingested as version 0) guarding `α`.
    pub fn new(initial: Database, alpha: Formula) -> Self {
        Self::with_source(Source::Fresh { initial, alpha })
    }

    /// A builder that recovers a persisted server from `dir` and resumes
    /// appending to its log. The constraint `α`, the schema, the state, the
    /// statement-shape identities, and the full event history all come from
    /// the directory; [`build`](StoreBuilder::build) performs the recovery
    /// — replaying snapshot + log tail with hash and provenance
    /// verification, so a successful build *is* a passed cold audit of the
    /// tail. Set the same Ω interpretation the original server ran with
    /// ([`omega`](StoreBuilder::omega)) before building.
    pub fn recover(dir: impl Into<PathBuf>) -> Self {
        Self::with_source(Source::Recover {
            dir: dir.into(),
            recovered: None,
        })
    }

    /// A builder that resumes `dir` from a recovery already performed on
    /// it, so the log is not replayed a second time (the sharded
    /// roll-forward path).
    pub(crate) fn resume(dir: &Path, recovered: Recovered) -> Self {
        Self::with_source(Source::Recover {
            dir: dir.to_path_buf(),
            recovered: Some(Box::new(recovered)),
        })
    }

    fn with_source(source: Source) -> Self {
        StoreBuilder {
            source,
            omega: Omega::empty(),
            cache_capacity: crate::guard::DEFAULT_CAPACITY,
            workers: 4,
            retain_outcomes: true,
            persist_dir: None,
            wal_opts: WalOptions::default(),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            history_sink: None,
            disk: disk::std_disk(),
            shard: false,
        }
    }

    /// The disk the log lives on (default: `std::fs`).
    pub(crate) fn on_disk(mut self, disk: Arc<dyn Disk>) -> Self {
        self.disk = disk;
        self
    }

    /// Builds the server as a shard: its submissions always queue, so only
    /// its workers ever wait out a cross-shard hold.
    pub(crate) fn sharded(mut self) -> Self {
        self.shard = true;
        self
    }

    /// The Ω interpretation guards and programs evaluate under
    /// (default: empty).
    pub fn omega(mut self, omega: Omega) -> Self {
        self.omega = omega;
        self
    }

    /// LRU budget for live guard compilations (default:
    /// [`DEFAULT_CAPACITY`](crate::guard::DEFAULT_CAPACITY)).
    pub fn guard_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Worker threads in the resident pool (default: 4, minimum 1). At
    /// most this many transactions execute at once, counting those run on
    /// submitting threads (see [`Session::submit`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Makes the server durable: every history event is written ahead to a
    /// segmented, checksummed log in `dir` (created fresh — building fails
    /// with [`WalError::AlreadyExists`](crate::wal::WalError::AlreadyExists)
    /// if `dir` already holds a log; use [`StoreBuilder::recover`] for
    /// those). Commit records reach the log *before* the commit is
    /// published, and are fsync'd before it is acknowledged, so an
    /// outcome observed through
    /// [`TxTicket::wait`](crate::TxTicket::wait) is durable. A genesis
    /// checkpoint is written at build; a clean checkpoint at
    /// [`shutdown`](StoreServer::shutdown). Ignored by the recover path
    /// (which always resumes its own directory's log).
    pub fn persist(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// [`persist`](StoreBuilder::persist) with explicit [`WalOptions`]
    /// (segment size, retention). The options also govern the resumed
    /// log of the [`recover`](StoreBuilder::recover) path.
    pub fn persist_with(mut self, dir: impl Into<PathBuf>, opts: WalOptions) -> Self {
        self.persist_dir = Some(dir.into());
        self.wal_opts = opts;
        self
    }

    /// Sets the [`WalOptions`] without changing where (or whether) the
    /// store persists — the knob the recover path uses.
    pub fn wal_options(mut self, opts: WalOptions) -> Self {
        self.wal_opts = opts;
        self
    }

    /// Capacity of the transaction-lifecycle trace ring (default:
    /// [`DEFAULT_TRACE_CAPACITY`]). Events shard by transaction id; a
    /// full shard overwrites its oldest events first, so recent
    /// transactions always have complete timelines. `0` disables tracing
    /// entirely (metrics stay on) — worth it for pure-throughput runs:
    /// the per-event shard locks cost a few percent on saturated
    /// all-in-memory workloads (`store_bench` measures untraced).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Whether the server keeps every transaction's outcome for the final
    /// [`ServerReport`] (default: `true`). A resident server facing
    /// unbounded traffic should turn this off — memory then stays flat,
    /// clients still receive every outcome through their tickets, history
    /// and audit are unaffected, and the report's aggregate counters
    /// remain exact; only `ServerReport::exec.outcomes` comes back empty.
    pub fn retain_outcomes(mut self, retain: bool) -> Self {
        self.retain_outcomes = retain;
        self
    }

    /// Where an in-memory server's history sends each finished tail
    /// (default: nowhere — the tail's buffer is reused). The history keeps
    /// one bounded tail either way (see [`History`]); with a sink, the
    /// [`HistorySegment`]s received, followed by the report's
    /// [`events`](ServerReport::events), are every event since genesis,
    /// which is what a whole-run [`audit`](crate::audit::audit) needs.
    /// The send never blocks and runs under the history lock, so drain
    /// the receiver after [`shutdown`](StoreServer::shutdown) (or as the
    /// server runs). A persisted server's log is its history: building
    /// one with a sink fails with [`StoreError::PersistedSink`].
    pub fn history_sink(mut self, sink: Sender<HistorySegment>) -> Self {
        self.history_sink = Some(sink);
        self
    }

    /// Establishes the guard-soundness base case — `α` must hold (and
    /// evaluate) on the initial state — and spawns the worker pool. A
    /// server is only ever handed out consistent, so every guard it
    /// evaluates is sound, and the invariant is maintained by construction
    /// from here on.
    ///
    /// For a [`recover`](StoreBuilder::recover) builder this is where the
    /// recovery runs: the log tail is replayed with hash and provenance
    /// verification (any failure is a typed
    /// [`StoreError::Recovery`]), shape identities are re-seeded into the
    /// guard cache under their original ids, transaction ids continue
    /// where the log left off, and the log is reopened for appending (its
    /// torn tail, if any, physically truncated).
    pub fn build(self) -> Result<StoreServer, StoreError> {
        let persisted = self.persist_dir.is_some() || matches!(self.source, Source::Recover { .. });
        if persisted && self.history_sink.is_some() {
            return Err(StoreError::PersistedSink);
        }
        // One registry per server: the guard cache, the workers, and the
        // flusher all count on it, so every reading comes from one place.
        let obs = StoreMetrics::new(self.trace_capacity);
        // The durable phase exists exactly when the server is persisted:
        // commits then reach stable storage before acknowledgment.
        let new_flusher = || GroupCommitFlusher::new(obs.clone());
        let (store, cache, next_tx, group) = match self.source {
            Source::Fresh { initial, alpha } => {
                let store = VersionedStore::new(initial);
                if let Some(sink) = self.history_sink {
                    store.history().attach_sink(sink);
                }
                let cache = GuardCache::with_metrics(
                    store.schema().clone(),
                    alpha,
                    self.omega,
                    self.cache_capacity,
                    &obs.registry,
                );
                exec::check_base_case(&store, &cache)?;
                let mut flusher = None;
                if let Some(dir) = self.persist_dir {
                    store.history().attach_wal(DurableLog::new(
                        WalWriter::create_in(Dir::new(self.disk, dir), self.wal_opts)?,
                        BTreeSet::new(),
                        BTreeSet::new(),
                        obs.wal_writes.clone(),
                    ));
                    flusher = Some(new_flusher());
                    // The genesis checkpoint: recovery's first floor.
                    store.checkpoint_now(cache.templates(), 0, cache.alpha())?;
                    obs.checkpoints.inc();
                }
                (store, cache, 0, flusher)
            }
            Source::Recover { dir, recovered } => {
                let recovered = match recovered {
                    Some(r) => *r,
                    None => wal::recover(&dir, &self.omega, RecoveryOptions::default())?,
                };
                for (i, id) in recovered.templates.keys().enumerate() {
                    if *id != i as u64 {
                        return Err(StoreError::Recovery(RecoveryError::Divergence {
                            detail: format!(
                                "recovered shape ids are not contiguous (found {id} at \
                                 position {i})"
                            ),
                        }));
                    }
                }
                let store = VersionedStore::resume(
                    Arc::new(recovered.db),
                    recovered.version,
                    History::resumed(recovered.base_version, &recovered.events),
                    recovered.rel_versions,
                );
                let cache = GuardCache::with_metrics(
                    store.schema().clone(),
                    recovered.alpha,
                    self.omega,
                    self.cache_capacity,
                    &obs.registry,
                );
                cache.seed_registry(&recovered.templates);
                exec::check_base_case(&store, &cache)?;
                let (writer, logged_shapes) =
                    WalWriter::resume_in(Dir::new(self.disk, dir), self.wal_opts)?;
                store.history().attach_wal(DurableLog::new(
                    writer,
                    logged_shapes,
                    recovered.cross_decisions,
                    obs.wal_writes.clone(),
                ));
                (store, cache, recovered.next_tx, Some(new_flusher()))
            }
        };
        obs.version.set(store.version());

        let shared = Arc::new(Shared {
            store,
            cache,
            queue: WorkQueue::new(self.workers),
            sink: OutcomeSink::new(self.retain_outcomes),
            obs,
            inline: group.is_none() && !self.shard,
            group,
        });
        // The flusher pulls the log itself: it writes what the workers
        // staged, under the history lock, before each fsync.
        let flusher_thread = shared.group.is_some().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("vpdt-store-flusher".to_string())
                .spawn(move || {
                    let group = shared.group.as_ref().expect("a persisted server");
                    group.run(|| shared.store.history().pull_wal());
                })
                .expect("spawning the group-commit flusher")
        });
        let workers = (0..self.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vpdt-store-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawning a store worker")
            })
            .collect();
        Ok(StoreServer {
            shared,
            workers,
            flusher_thread,
            next_tx: AtomicU64::new(next_tx),
            next_session: AtomicU64::new(1),
        })
    }
}

/// Checkpoints `shared`'s store (see [`StoreServer::checkpoint`]) and
/// counts the checkpoint and what its retention pass deleted.
fn checkpoint(shared: &Shared, next_tx: u64) -> Result<u64, wal::WalError> {
    let gc =
        shared
            .store
            .checkpoint_now(shared.cache.templates(), next_tx, shared.cache.alpha())?;
    shared.obs.checkpoints.inc();
    shared
        .obs
        .wal_segments_deleted
        .add(gc.segments_deleted as u64);
    shared
        .obs
        .checkpoint_files_deleted
        .add(gc.checkpoints_deleted as u64);
    Ok(gc.offset)
}

/// A resident, session-oriented transaction server — the front door of
/// `vpdt-store` (see the crate docs for the full tour and an example).
///
/// The server owns the queue, the cache, and the lifecycle; clients hold
/// [`Session`]s. Submissions are accepted at any time from any number of
/// sessions; [`StoreServer::shutdown`] drains and reports.
pub struct StoreServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The group-commit flusher thread (durable servers only). Spawned in
    /// [`StoreBuilder::build`]; drained and joined by both `shutdown` and
    /// `Drop`, so every ticket handed to the durable phase resolves.
    flusher_thread: Option<JoinHandle<()>>,
    next_tx: AtomicU64,
    next_session: AtomicU64,
}

impl StoreServer {
    /// Opens a new client session. Sessions are independent and cheap; ids
    /// start at 1.
    pub fn session(&self) -> Session<'_> {
        Session::new(self, self.next_session.fetch_add(1, Ordering::Relaxed))
    }

    /// Accepts one submission (the internal half of
    /// [`Session::submit`](crate::Session::submit) and
    /// [`Session::submit_queued`](crate::Session::submit_queued)). If
    /// `may_run_here`, on an unsharded in-memory server with nothing
    /// queued and fewer than [`workers`](StoreBuilder::workers)
    /// transactions executing, the transaction runs to completion on the
    /// calling thread, and the returned ticket has already resolved.
    /// Otherwise it is queued for the worker pool and the ticket returns
    /// at once.
    pub(crate) fn enqueue(&self, session: u64, program: Program, may_run_here: bool) -> TxTicket {
        let tx = self.next_tx.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(TicketState::default());
        self.shared.obs.submitted.inc();
        self.shared.obs.trace(tx, TraceStage::Enqueued);
        let item = WorkItem {
            tx,
            session,
            program,
            ticket: Some(Arc::clone(&state)),
            enqueued_at_ns: self.shared.obs.now_ns(),
        };
        if let Err(refused) = self.shared.submit(item, may_run_here) {
            // Unreachable through a `Session` (shutdown consumes the
            // server while sessions borrow it), but kept total: resolve
            // the ticket rather than strand it. Resolving before the
            // refused item drops makes its drop-guard a no-op.
            state.resolve(TxOutcome::Failed {
                error: StoreError::ShutDown,
            });
            drop(refused);
        }
        TxTicket::new(tx, session, state)
    }

    /// Warms the prepared-statement cache for `program` without executing
    /// anything: canonicalize, compile the shape if unseen. Useful to take
    /// compilation off the serving path after a deploy.
    pub fn prepare(&self, program: &Program) -> Result<(), StoreError> {
        self.shared.cache.bind(program).map(|_| ())
    }

    /// Reserves a transaction id without enqueueing anything — the
    /// cross-shard coordinator assigns branch ids up front so the decision
    /// record can name them before any branch commits.
    pub(crate) fn reserve_tx(&self) -> u64 {
        self.next_tx.fetch_add(1, Ordering::Relaxed)
    }

    /// The underlying versioned store — the cross-shard coordinator drives
    /// `prepare_hold`/`commit_prepared`/`abort_prepared` on it directly.
    pub(crate) fn store(&self) -> &VersionedStore {
        &self.shared.store
    }

    /// The shard's guard cache — the coordinator canonicalizes each
    /// cross-shard branch delta against it so the shape ids recorded in
    /// `Cross` events are this shard's own (and stay resolvable across
    /// this shard's recoveries).
    pub(crate) fn cache(&self) -> &GuardCache {
        &self.shared.cache
    }

    /// The store's schema.
    pub fn schema(&self) -> &Schema {
        self.shared.store.schema()
    }

    /// The constraint `α` every transaction is guarded with.
    pub fn alpha(&self) -> &Formula {
        self.shared.cache.alpha()
    }

    /// The Ω interpretation.
    pub fn omega(&self) -> &Omega {
        self.shared.cache.omega()
    }

    /// The current version and state (cheap: clones an `Arc`).
    pub fn snapshot(&self) -> Snapshot {
        self.shared.store.snapshot()
    }

    /// The current store version.
    pub fn version(&self) -> u64 {
        self.shared.store.version()
    }

    /// A point-in-time copy of the history's events since its anchor (see
    /// [`History::events`]).
    pub fn history_events(&self) -> Vec<Event> {
        self.shared.store.history().events()
    }

    /// Number of events the history has recorded over its life — O(1).
    pub fn history_len(&self) -> usize {
        self.shared.store.history().len()
    }

    /// The root hash the commit at `version` recorded — the per-relation
    /// state commitment a remote client pairs with its committed version.
    /// `None` for uncommitted versions and, in memory, for those older
    /// than the tail before the current one (see
    /// [`History::commit_root`]). O(1) per call.
    pub fn commit_root(&self, version: u64) -> Option<u64> {
        self.shared.store.history().commit_root(version)
    }

    /// The metrics registry every pipeline counter lives on. A front door
    /// wrapping this server registers its own instruments here so one
    /// snapshot — and the final [`ServerReport`] — covers both.
    pub fn metrics_registry(&self) -> Arc<vpdt_obs::MetricsRegistry> {
        Arc::clone(&self.shared.obs.registry)
    }

    /// Guard-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.cache_stats()
    }

    /// Every statement shape ever compiled, by id — what an audit needs to
    /// resolve history provenance.
    pub fn templates(&self) -> BTreeMap<u64, Template> {
        self.shared.cache.templates()
    }

    /// Writes a snapshot checkpoint of the current state to the attached
    /// log's directory *while serving* (commits are briefly paused so the
    /// (state, version, offset) triple is exact), returning the covered
    /// log offset. Later recoveries start from the newest checkpoint and
    /// replay only the tail. `Err(StoreError::Wal(WalError::NotDurable))`
    /// when the server is not persisted.
    pub fn checkpoint(&self) -> Result<u64, StoreError> {
        checkpoint(&self.shared, self.next_tx.load(Ordering::Relaxed)).map_err(StoreError::Wal)
    }

    /// A point-in-time snapshot of every metric the server keeps —
    /// pipeline counters, stage-latency histograms, cache and WAL
    /// counters. Counters and histograms are **server-lifetime totals**;
    /// to measure a window, take two snapshots and
    /// [`MetricsSnapshot::delta`] them.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.refresh_gauges();
        self.shared.obs.snapshot()
    }

    /// The `n` slowest *complete* traced transactions (first event
    /// `enqueued`, last terminal), slowest first. Empty when tracing is
    /// disabled ([`StoreBuilder::trace_capacity`] 0) or the ring has
    /// overwritten every complete timeline.
    pub fn slowest(&self, n: usize) -> Vec<TxTimeline> {
        self.shared.obs.trace.slowest(n)
    }

    /// Gauges sample state rather than accumulate, so they are refreshed
    /// on read instead of on every commit.
    fn refresh_gauges(&self) {
        self.shared.obs.version.set(self.shared.store.version());
        let cache = self.shared.cache.cache_stats();
        self.shared.obs.cache_entries.set(cache.entries as u64);
        self.shared.obs.cache_shapes.set(cache.shapes as u64);
        let history = self.shared.store.history().bytes();
        self.shared.obs.history_bytes.set(history as u64);
    }

    /// Counters of the durable phase — fsyncs issued, commits resolved
    /// per fsync (the batch-size histogram), flush failures. `None` on an
    /// in-memory server, which has no group-commit flusher.
    pub fn flush_stats(&self) -> Option<FlushStats> {
        self.shared.group.as_ref().map(|g| g.stats())
    }

    /// Blocks until the log is durable through `offset` (see
    /// [`VersionedStore::prepare_hold`]); at once on an in-memory server.
    pub(crate) fn wait_durable(&self, offset: u64) -> Result<(), StoreError> {
        match &self.shared.group {
            Some(g) => g.wait_durable(offset).map_err(StoreError::Wal),
            None => Ok(()),
        }
    }

    /// Closes the submission queue, drains every already-submitted
    /// transaction (outstanding [`TxTicket`]s all resolve), joins the
    /// worker pool, drains the group-commit flusher (published commits get
    /// their covering fsync; their tickets resolve durable), and returns
    /// the final report. Sessions borrow the server, so the borrow checker
    /// guarantees none are left when this runs — but tickets are
    /// independent and may be waited on after.
    ///
    /// A persisted server also flushes its log and writes a clean
    /// checkpoint, so the next [`StoreBuilder::recover`] starts without
    /// replay. Both are fail-stop: an I/O error here panics rather than
    /// reporting a durability it cannot promise. (Dropping the server
    /// instead of calling `shutdown` also drains and joins — workers *and*
    /// flusher, so no acknowledged-or-pending commit is lost — but skips
    /// the checkpoint: the crash-shaped exit.)
    pub fn shutdown(mut self) -> ServerReport {
        let next_tx = self.next_tx.load(Ordering::Relaxed);
        // Closing the queue turns it into a drain: workers finish what was
        // submitted, then exit.
        self.shared.queue.close();
        for worker in std::mem::take(&mut self.workers) {
            worker.join().expect("store worker panicked");
        }
        // The workers are gone, so nothing publishes anymore: close the
        // flusher and let it drain — one final fsync resolves every
        // ticket still owed a durable acknowledgment.
        if let Some(group) = &self.shared.group {
            group.close();
        }
        if let Some(flusher) = self.flusher_thread.take() {
            flusher.join().expect("group-commit flusher panicked");
        }
        let flush = self.shared.group.as_ref().map(|g| g.stats());
        self.refresh_gauges();
        let shared = Arc::clone(&self.shared);
        drop(self); // Drop sees an empty worker list and an already-closed queue
        let shared = Arc::into_inner(shared).expect("workers joined, no other owners");
        // Read before the clean checkpoint, whose retention pass may move
        // a persisted log's floor past everything served.
        let (base_version, initial, events) = shared.store.history().anchored_events();
        let initial = initial.expect("a store's history is anchored");
        let history_len = shared.store.history().len();
        if shared.store.history().is_durable() {
            checkpoint(&shared, next_tx).expect("clean checkpoint at shutdown failed");
        }
        // Every counter in the report — cache, WAL, pipeline — is a
        // **server-lifetime total**: `prepare` warm-ups count, and nothing
        // resets between reads. Callers measuring a serving window should
        // take a [`StoreServer::metrics`] snapshot at the window's start
        // and [`MetricsSnapshot::delta`] the final one against it.
        let exec = shared.sink.into_report(&shared.obs);
        let snap = shared.store.snapshot();
        // Snapshot metrics last so the clean checkpoint and GC above are
        // included in the report's counters.
        let metrics = shared.obs.snapshot();
        let slowest = shared.obs.trace.slowest(SLOWEST_IN_REPORT);
        ServerReport {
            exec,
            initial,
            base_version,
            events,
            history_len,
            final_db: snap.db,
            final_version: snap.version,
            templates: shared.cache.templates(),
            cache: shared.cache.cache_stats(),
            flush,
            metrics,
            slowest,
        }
    }
}

/// Dropping a server without [`StoreServer::shutdown`] still drains the
/// queue, joins the workers, and drains the group-commit flusher (no
/// thread leaks, every ticket resolves — published commits get their
/// covering fsync first, so no acknowledged-or-pending commit is lost) —
/// but writes **no** clean checkpoint. For a persisted server this is the
/// crash-shaped exit: the next open goes through recovery and replays the
/// log tail. Acknowledged commits were already on disk before their
/// tickets resolved, so none is lost.
impl Drop for StoreServer {
    fn drop(&mut self) {
        self.shared.queue.close();
        for worker in std::mem::take(&mut self.workers) {
            // Best-effort during teardown: a panicked worker already
            // resolved its tickets via the work-item drop guard.
            let _ = worker.join();
        }
        if let Some(group) = &self.shared.group {
            group.close();
        }
        if let Some(flusher) = self.flusher_thread.take() {
            let _ = flusher.join();
        }
    }
}

impl std::fmt::Debug for StoreServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServer")
            .field("workers", &self.workers.len())
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

/// Everything a shut-down server leaves behind: the aggregated execution
/// report, the history's anchor and its events since, the final state, and
/// the statement templates — exactly the inputs
/// [`audit_from`](crate::audit::audit_from) needs (callers supply their own
/// `programs` map, since only they know what they submitted). An audit
/// of the whole run needs `base_version == 0`, or the segments an
/// in-memory server's [`history_sink`](StoreBuilder::history_sink)
/// received before `events` (see [`ServerReport::whole_run`]).
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Per-transaction outcomes and pipeline counters.
    pub exec: ExecReport,
    /// The history's anchor (see [`History`]), as in
    /// [`Recovered::initial`]: the state at `base_version` — the initial
    /// state until the history re-anchors; a persisted server's floor
    /// checkpoint.
    pub initial: Arc<Database>,
    /// The anchor's version, as in [`Recovered::base_version`].
    pub base_version: u64,
    /// The events since the anchor, read before the clean checkpoint.
    pub events: Vec<Event>,
    /// Number of events the history recorded over its life, as
    /// [`StoreServer::history_len`], read with `events`.
    pub history_len: usize,
    /// The final state.
    pub final_db: Arc<Database>,
    /// The final store version.
    pub final_version: u64,
    /// Statement shapes by id (survives guard-cache eviction).
    pub templates: BTreeMap<u64, Template>,
    /// Final guard-cache counters.
    pub cache: CacheStats,
    /// Durable-phase counters (`None` without a group-commit flusher):
    /// fsyncs, flushed commits, the batch-size histogram.
    pub flush: Option<FlushStats>,
    /// The final metrics snapshot — every counter, gauge, and
    /// stage-latency histogram the server kept, taken after the clean
    /// checkpoint so shutdown housekeeping is included. All counters are
    /// server-lifetime totals (see [`MetricsSnapshot::delta`] for
    /// windows); render with
    /// [`render_prometheus`](MetricsSnapshot::render_prometheus).
    pub metrics: MetricsSnapshot,
    /// The slowest complete traced transactions (up to 16), slowest
    /// first. Empty when tracing was disabled.
    pub slowest: Vec<TxTimeline>,
}

impl ServerReport {
    /// The whole run from genesis: the finished tails an in-memory
    /// server's [`history_sink`](StoreBuilder::history_sink) received, in
    /// order, then [`events`](Self::events) — what a whole-run
    /// [`audit`](crate::audit::audit) replays. Refused unless they hold
    /// every event the history recorded ([`history_len`](Self::history_len)):
    /// a dropped segment, even one without a commit (which leaves no gap
    /// in the commit versions), or a history that re-anchored without a
    /// sink.
    pub fn whole_run(&self, segments: &[HistorySegment]) -> Result<Vec<Event>, String> {
        let mut events: Vec<Event> = segments.iter().flat_map(HistorySegment::events).collect();
        events.extend_from_slice(&self.events);
        if events.len() != self.history_len {
            return Err(format!(
                "the history recorded {} events, but its finished tails and the last hold {}: \
                 a whole-run audit needs every tail",
                self.history_len,
                events.len()
            ));
        }
        Ok(events)
    }
}

#[cfg(test)]
impl StoreServer {
    /// Whether a [`wait_durable`](Self::wait_durable) caller is waiting
    /// for the flusher.
    pub(crate) fn durability_awaited(&self) -> bool {
        self.shared.group.as_ref().is_some_and(|g| g.awaited())
    }
}

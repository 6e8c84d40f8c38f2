//! Horizontal scale-out: relation-partitioned shard stores behind a
//! footprint router, with cross-shard two-phase commit.
//!
//! A [`ShardedStore`] partitions the schema's relations across `N`
//! independent [`StoreServer`]s — each with its own worker pool, guard
//! cache, versioned store, WAL directory, and group-commit flusher — and
//! routes every submitted transaction by its *relation footprint* (the
//! reads ∪ writes of its compiled statement shape):
//!
//! * **Single-shard** transactions (the overwhelming majority under a
//!   partitionable workload) are enqueued on their shard's ordinary
//!   submission queue and take exactly the monolithic commit path — same
//!   worker loop, same optimistic validation, same WAL append, same
//!   group-commit fsync. No new synchronization is on that path at all;
//!   shards share *nothing*, which is what makes disjoint-footprint
//!   throughput scale with the shard count.
//! * **Cross-shard** transactions run an inline two-phase commit driven by
//!   the submitting thread: prepare (hold the footprint on every touched
//!   shard and take its snapshot), decide (evaluate the *global* guard on
//!   the union snapshot, run the program, append one durable
//!   [`DecisionRecord`] to the coordinator's decision log), then commit a
//!   shard-local delta on each written shard (an atomic
//!   [`Event::Cross`] record carrying the decision id). A single-shard
//!   commit that meets a held relation blocks until the decision releases
//!   it; the coordinator itself never waits on a hold (it releases what it
//!   took, backs off and retries), and never waits on a shard worker while
//!   it holds, so the blocking cannot deadlock.
//!
//! ## Why the split is sound
//!
//! [`ShardedBuilder::build`] refuses any configuration it cannot prove
//! partitionable: every top-level conjunct of the constraint `α` must (a)
//! use relations of a single shard and (b) be domain-independent. Under
//! (a)+(b), a transaction that touches only shard `S` can neither change
//! the truth of another shard's conjuncts (their relations are untouched,
//! and by (b) their truth does not depend on the ambient domain) nor needs
//! them in its own guard (an untouched, domain-independent conjunct gets
//! no guard at all), so the shard-local guard over shard-local
//! state decides exactly what the global guard over global state would.
//! Cross-shard transactions do evaluate the full global guard — on a union
//! snapshot assembled from the prepared shards' relation handles, which
//! the holds keep stable until the decision.
//!
//! ## Crash windows and recovery
//!
//! Holds are in-memory only and the decision append+fsync is the single
//! commit point, which yields presumed-abort 2PC:
//!
//! | crash window                     | recovery outcome                   |
//! |----------------------------------|------------------------------------|
//! | after prepare, before decision   | holds vanish; nothing durable —    |
//! |                                  | the transaction aborted            |
//! | after decision fsync, before any | decision log wins: every branch is |
//! | shard commit                     | rolled forward into its shard WAL  |
//! | between shard commits            | missing branches rolled forward;   |
//! |                                  | present ones verified as-is        |
//! | after all shard commits          | nothing to do                      |
//!
//! Roll-forward recovers each shard once, re-applies each missing
//! decision's ground delta program to the recovered state, verifies the
//! resulting [`Event::Cross`] through the [replay kernel](crate::replay)
//! like any recorded commit, and appends it (plus any unseen shape
//! declaration) to the shard's log. The shard server then resumes from
//! that recovery without replaying its log again — a rolled-forward branch
//! passes the same checks as a live one. Roll-forward is safe to append at
//! the log's end because a decision's holds release only after its shard
//! append: no later commit conflicting with the missing branch can exist.
//!
//! Pending decisions replay in decision-log **append** order, not id
//! order: ids are allocated before the prepare loop, so a coordinator
//! that waited out another's holds appends its (lower-id) decision after
//! the (higher-id) one it waited for. Append order is the order holds
//! released — the real conflict order — and replaying any other order
//! could reconstruct a state the coordinators never decided.
//!
//! A decision counts as applied on a shard when its `Cross` record
//! survives in the shard's log *or* a shard checkpoint lists it: every
//! checkpoint carries the ids of the decisions applied at or before it, so
//! segment retention can never make an applied decision look pending. The
//! `decisions/applied-through` watermark (written at clean shutdown,
//! *before* the shard checkpoints GC their segments) records the decision
//! id below which every branch is known applied; recovery never
//! re-examines those, and resumed shards stop listing them. A missing
//! watermark means 0; an unreadable or unparsable one is a typed error.

use crate::audit::{cold_audit_dir, AuditReport};
use crate::guard::PreparedTx;
use crate::history::{root_hash, Event};
use crate::replay::Replayer;
use crate::server::{RetryPolicy, ServerReport, StoreBuilder, StoreServer};
use crate::session::TxTicket;
use crate::snapshot::{CommitRequest, Snapshot};
use crate::wal::{
    self, DecisionBranch, DecisionRecord, Record, Recovered, RecoveryOptions, WalError, WalOptions,
    WalWriter,
};
use crate::{metrics::names, AbortReason, GuardCache, ShapeStat, StoreError};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use vpdt_eval::{holds, Omega};
use vpdt_logic::{domain::is_domain_independent, Elem, Formula, Schema};
use vpdt_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use vpdt_structure::Database;
use vpdt_tx::program::Program;
use vpdt_tx::template::canonicalize;
use vpdt_tx::traits::normalize_domain;

/// Session id recorded for transactions that arrived through the sharded
/// router rather than a shard-local [`Session`](crate::Session) when the
/// caller does not supply one (see [`ShardedStore::submit`]).
pub const ROUTED_SESSION: u64 = u64::MAX;

/// Name of the watermark file in the decision log directory: the decision
/// id below which every branch is known applied (exclusive bound).
const WATERMARK_FILE: &str = "applied-through";

/// Round-robin relation → shard assignment in schema order: relation `i`
/// of the schema lands on shard `i mod shards`.
pub fn stripe_assignment(schema: &Schema, shards: usize) -> BTreeMap<String, usize> {
    schema
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.to_string(), i % shards))
        .collect()
}

/// Splits `α` into per-shard constraints, refusing anything the sharded
/// guard argument does not cover: every top-level conjunct must use
/// relations of one shard only and be domain-independent (see the module
/// docs for why both are load-bearing). Relation-free conjuncts land on
/// shard 0.
fn partition_constraint(
    alpha: &Formula,
    assignment: &BTreeMap<String, usize>,
    shards: usize,
) -> Result<Vec<Formula>, StoreError> {
    let mut per_shard: Vec<Vec<Formula>> = vec![Vec::new(); shards];
    for conjunct in alpha.conjuncts() {
        if !is_domain_independent(conjunct) {
            return Err(StoreError::Unshardable {
                detail: format!(
                    "constraint conjunct `{conjunct}` is not domain-independent; its truth \
                     could depend on elements held by other shards"
                ),
            });
        }
        let rels = conjunct.relations_used();
        let mut owners: BTreeSet<usize> = BTreeSet::new();
        for rel in &rels {
            match assignment.get(rel) {
                Some(&s) => {
                    owners.insert(s);
                }
                None => {
                    return Err(StoreError::Unshardable {
                        detail: format!("constraint uses unknown relation {rel}"),
                    })
                }
            }
        }
        match owners.len() {
            0 => per_shard[0].push(conjunct.clone()),
            1 => {
                let s = *owners.iter().next().expect("len checked");
                per_shard[s].push(conjunct.clone());
            }
            _ => {
                return Err(StoreError::Unshardable {
                    detail: format!(
                        "constraint conjunct `{conjunct}` spans relations of {} shards \
                         ({rels:?}); co-locate them or keep the store monolithic",
                        owners.len()
                    ),
                })
            }
        }
    }
    Ok(per_shard.into_iter().map(Formula::and).collect())
}

/// Where a sharded store's state comes from.
#[derive(Clone, Debug)]
enum ShardSource {
    Fresh {
        initial: Database,
        alpha: Formula,
        shards: usize,
        persist_root: Option<PathBuf>,
    },
    Recover {
        root: PathBuf,
    },
}

/// Configuration for a [`ShardedStore`]: the monolithic knobs, applied
/// per shard, plus the shard count and the persistence root (under which
/// each shard gets `shard-N/` and the coordinator gets `decisions/`).
#[derive(Clone, Debug)]
pub struct ShardedBuilder {
    source: ShardSource,
    omega: Omega,
    workers_per_shard: usize,
    cache_capacity: usize,
    retry: RetryPolicy,
    wal_opts: WalOptions,
    trace_capacity: usize,
}

impl ShardedBuilder {
    /// A builder partitioning `initial` (and the conjuncts of `alpha`)
    /// across `shards` stores by round-robin relation striping.
    pub fn new(initial: Database, alpha: Formula, shards: usize) -> Self {
        Self::with_source(ShardSource::Fresh {
            initial,
            alpha,
            shards: shards.max(1),
            persist_root: None,
        })
    }

    /// A builder that recovers a persisted sharded store from `root`
    /// (shard count auto-detected from the `shard-N/` directories). This
    /// is where cross-shard roll-forward happens: decisions durable in
    /// `root/decisions` but missing from a shard's log are re-applied
    /// before the shard recovers — see the module docs' crash-window
    /// table.
    pub fn recover(root: impl Into<PathBuf>) -> Self {
        Self::with_source(ShardSource::Recover { root: root.into() })
    }

    fn with_source(source: ShardSource) -> Self {
        ShardedBuilder {
            source,
            omega: Omega::empty(),
            workers_per_shard: 4,
            cache_capacity: crate::guard::DEFAULT_CAPACITY,
            retry: RetryPolicy::unbounded(),
            wal_opts: WalOptions::default(),
            trace_capacity: 0,
        }
    }

    /// The Ω interpretation (default: empty).
    pub fn omega(mut self, omega: Omega) -> Self {
        self.omega = omega;
        self
    }

    /// Worker threads *per shard* (default: 4, minimum 1).
    pub fn workers_per_shard(mut self, workers: usize) -> Self {
        self.workers_per_shard = workers.max(1);
        self
    }

    /// Per-shard guard-cache LRU budget.
    pub fn guard_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// The conflict [`RetryPolicy`], used by every shard's workers *and*
    /// by the coordinator's prepare loop when a footprint is held. A shard
    /// worker whose commit meets a hold waits for its release instead,
    /// without spending a retry.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Per-shard transaction-trace ring capacity (default 0: tracing off —
    /// sharded deployments are throughput-oriented).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Makes the store durable under `root`: shard `i` logs to
    /// `root/shard-i/`, the coordinator's decision log lives in
    /// `root/decisions/`. Ignored by the recover path (which always
    /// resumes its own root).
    pub fn persist(mut self, root: impl Into<PathBuf>) -> Self {
        if let ShardSource::Fresh { persist_root, .. } = &mut self.source {
            *persist_root = Some(root.into());
        }
        self
    }

    /// [`persist`](Self::persist) with explicit [`WalOptions`] (applied to
    /// every shard log and the decision log; also governs resumed logs on
    /// the recover path).
    pub fn persist_with(self, root: impl Into<PathBuf>, opts: WalOptions) -> Self {
        self.persist(root).wal_options(opts)
    }

    /// Sets the [`WalOptions`] without changing where (or whether) the
    /// store persists.
    pub fn wal_options(mut self, opts: WalOptions) -> Self {
        self.wal_opts = opts;
        self
    }

    /// Builds the sharded store: validates the partition, establishes each
    /// shard's base case, spawns every shard's worker pool — or, for a
    /// [`recover`](Self::recover) source, rolls decided-but-unapplied
    /// cross-shard branches forward and recovers every shard with full
    /// hash and provenance verification.
    pub fn build(self) -> Result<ShardedStore, StoreError> {
        match self.source.clone() {
            ShardSource::Fresh {
                initial,
                alpha,
                shards,
                persist_root,
            } => self.build_fresh(initial, alpha, shards, persist_root),
            ShardSource::Recover { root } => self.build_recover(root),
        }
    }

    /// Applies the per-shard knobs to `b`.
    fn shard_builder(&self, b: StoreBuilder) -> StoreBuilder {
        b.omega(self.omega.clone())
            .workers(self.workers_per_shard)
            .guard_cache_capacity(self.cache_capacity)
            .retry_policy(self.retry.clone())
            .trace_capacity(self.trace_capacity)
            .wal_options(self.wal_opts.clone())
    }

    fn build_fresh(
        self,
        initial: Database,
        alpha: Formula,
        shards: usize,
        persist_root: Option<PathBuf>,
    ) -> Result<ShardedStore, StoreError> {
        let schema = initial.schema().clone();
        let rel_count = schema.iter().count();
        if shards > rel_count {
            return Err(StoreError::Unshardable {
                detail: format!(
                    "{shards} shards over {rel_count} relations: every shard needs at least \
                     one relation"
                ),
            });
        }
        let assignment = stripe_assignment(&schema, shards);
        let alphas = partition_constraint(&alpha, &assignment, shards)?;

        let mut servers = Vec::with_capacity(shards);
        for (s, shard_alpha) in alphas.into_iter().enumerate() {
            let rels: Vec<(String, usize)> = schema
                .iter()
                .filter(|(name, _)| assignment[*name] == s)
                .map(|(name, arity)| (name.to_string(), arity))
                .collect();
            let mut db = Database::empty(Schema::new(rels.iter().cloned()));
            for (rel, _) in &rels {
                db.set_rel_handle(rel, initial.rel_handle(rel));
            }
            let db = normalize_domain(db);
            let mut builder = self.shard_builder(StoreBuilder::new(db, shard_alpha));
            if let Some(root) = &persist_root {
                builder = builder.persist(root.join(format!("shard-{s}")));
            }
            servers.push(builder.build()?);
        }
        let decisions = persist_root
            .as_ref()
            .map(|root| WalWriter::create(root.join("decisions"), self.wal_opts.clone()))
            .transpose()?
            .map(Mutex::new);

        Ok(ShardedStore::assemble(
            servers,
            assignment,
            schema,
            alpha,
            self.omega,
            self.cache_capacity,
            self.retry,
            decisions,
            persist_root,
            0,
            0,
        ))
    }

    fn build_recover(self, root: PathBuf) -> Result<ShardedStore, StoreError> {
        let dirs = shard_dirs(&root)?;
        let decisions_dir = root.join("decisions");
        let decisions = read_decisions(&decisions_dir)?;
        let watermark = read_watermark(&decisions_dir)?;
        let pending: Vec<&DecisionRecord> =
            decisions.iter().filter(|d| d.id >= watermark).collect();

        let mut servers = Vec::with_capacity(dirs.len());
        for (s, dir) in dirs.iter().enumerate() {
            let mut rec = roll_forward_shard(dir, s as u32, &pending, &self.omega, &self.wal_opts)?;
            // Decisions below the watermark are applied everywhere; the
            // shard's checkpoints need not carry them any further.
            rec.cross_decisions.retain(|&d| d >= watermark);
            servers.push(self.shard_builder(StoreBuilder::resume(dir, rec)).build()?);
        }

        // Reconstruct the global view from the recovered shards: the
        // assignment is whatever each shard's checkpoint says it owns, and
        // the global constraint is the conjunction of the shard
        // constraints (which is exactly how it was partitioned).
        let mut assignment = BTreeMap::new();
        let mut rels: Vec<(String, usize)> = Vec::new();
        for (s, server) in servers.iter().enumerate() {
            for (name, arity) in server.schema().iter() {
                assignment.insert(name.to_string(), s);
                rels.push((name.to_string(), arity));
            }
        }
        rels.sort();
        let schema = Schema::new(rels);
        let alpha = Formula::and(servers.iter().map(|s| s.alpha().clone()));

        let (writer, _) = WalWriter::resume(&decisions_dir, self.wal_opts.clone())?;
        // `decisions` is in append order, and neither ids nor tx ids are
        // monotone in it (both are allocated before the log lock), so take
        // explicit maxima rather than trusting the tail record.
        let next_decision = decisions
            .iter()
            .map(|d| d.id + 1)
            .max()
            .unwrap_or(0)
            .max(watermark);
        let next_cross_tx = decisions.iter().map(|d| d.tx + 1).max().unwrap_or(0);

        Ok(ShardedStore::assemble(
            servers,
            assignment,
            schema,
            alpha,
            self.omega,
            self.cache_capacity,
            self.retry,
            Some(Mutex::new(writer)),
            Some(root),
            next_decision,
            next_cross_tx,
        ))
    }
}

/// Where the router sent a submission.
#[derive(Debug)]
pub enum Routed {
    /// The footprint fit one shard: enqueued on that shard's ordinary
    /// pipeline; resolve through the ticket exactly as on a monolithic
    /// server.
    Single {
        /// The owning shard's index.
        shard: usize,
        /// The shard-local ticket.
        ticket: TxTicket,
    },
    /// The footprint spanned shards: executed inline as a two-phase
    /// commit, already resolved.
    Cross(CrossOutcome),
}

/// How an inline cross-shard transaction ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrossOutcome {
    /// Every written shard committed its branch.
    Committed {
        /// The durable decision id (dense but not gapless: aborted and
        /// read-only decisions consume ids without a record).
        decision: u64,
        /// `(shard, new shard version)` per written shard; empty when the
        /// transaction turned out to be a no-op or read-only.
        versions: Vec<(u32, u64)>,
    },
    /// The global guard failed on the union snapshot: committing would
    /// have violated `α`.
    Aborted {
        /// Why (the version is the highest prepared shard version).
        reason: AbortReason,
    },
}

/// Debug crash points inside the cross-shard commit path (test hook): the
/// coordinator returns [`StoreError::DebugCrashPoint`] at the chosen
/// window, leaving exactly the state a crash there would.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossCrashPoint {
    /// No injection (the default).
    None = 0,
    /// After every shard is prepared (held), before the decision append.
    AfterPrepare = 1,
    /// After the decision record is durable, before any shard commit.
    AfterDecision = 2,
    /// After the first branch commit, before the remaining ones.
    BetweenShardCommits = 3,
}

/// One cross-shard branch, fully planned before the decision is appended.
struct PlannedBranch {
    shard: usize,
    tx: u64,
    based_on: u64,
    delta: Program,
    writes: BTreeSet<String>,
    shape: u64,
    bindings: Vec<Elem>,
    new_db: Database,
}

/// A relation-partitioned store: `N` independent shard servers, a
/// footprint router, and an inline two-phase-commit coordinator. See the
/// module docs for the architecture and the soundness argument.
pub struct ShardedStore {
    shards: Vec<StoreServer>,
    assignment: BTreeMap<String, usize>,
    schema: Schema,
    /// The *global* guard cache: classification (every submission) and
    /// cross-shard guard evaluation (rare) both go through it. Compiled
    /// over the full schema and the unpartitioned `α`.
    router: GuardCache,
    omega: Omega,
    retry: RetryPolicy,
    /// The coordinator's decision log (`None` on an in-memory store).
    decisions: Option<Mutex<WalWriter>>,
    root: Option<PathBuf>,
    next_decision: AtomicU64,
    next_cross_tx: AtomicU64,
    next_session: AtomicU64,
    registry: Arc<MetricsRegistry>,
    cross_committed: Counter,
    cross_aborted: Counter,
    cross_prepare_retries: Counter,
    cross_prepare_us: Histogram,
    cross_decide_us: Histogram,
    cross_total_us: Histogram,
    crash_point: AtomicU8,
    /// Whether a debug crash point actually fired: the store may then hold
    /// a durable-but-unapplied decision, and [`shutdown`](Self::shutdown)
    /// must refuse to advance the watermark over it.
    crash_fired: AtomicBool,
}

impl ShardedStore {
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        shards: Vec<StoreServer>,
        assignment: BTreeMap<String, usize>,
        schema: Schema,
        alpha: Formula,
        omega: Omega,
        cache_capacity: usize,
        retry: RetryPolicy,
        decisions: Option<Mutex<WalWriter>>,
        root: Option<PathBuf>,
        next_decision: u64,
        next_cross_tx: u64,
    ) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let router = GuardCache::with_metrics(
            schema.clone(),
            alpha,
            omega.clone(),
            cache_capacity,
            &registry,
        );
        ShardedStore {
            shards,
            assignment,
            schema,
            router,
            omega,
            retry,
            decisions,
            root,
            next_decision: AtomicU64::new(next_decision),
            next_cross_tx: AtomicU64::new(next_cross_tx),
            next_session: AtomicU64::new(1),
            cross_committed: registry.counter(names::CROSS_COMMITTED),
            cross_aborted: registry.counter(names::CROSS_ABORTED),
            cross_prepare_retries: registry.counter(names::CROSS_PREPARE_RETRIES),
            cross_prepare_us: registry.histogram(names::CROSS_STAGE_PREPARE),
            cross_decide_us: registry.histogram(names::CROSS_STAGE_DECIDE),
            cross_total_us: registry.histogram(names::CROSS_TOTAL),
            crash_point: AtomicU8::new(CrossCrashPoint::None as u8),
            crash_fired: AtomicBool::new(false),
            registry,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s server (sessions opened directly on it bypass the
    /// router — fine for workloads the caller knows are shard-local).
    pub fn shard(&self, i: usize) -> &StoreServer {
        &self.shards[i]
    }

    /// The relation → shard assignment.
    pub fn assignment(&self) -> &BTreeMap<String, usize> {
        &self.assignment
    }

    /// The global schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Opens a routed session: just a fresh provenance id to pass to
    /// [`submit`](Self::submit) (sessions here carry no server state).
    pub fn session(&self) -> u64 {
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// The coordinator's metrics (cross-shard counters and stage
    /// latencies, plus the router cache's hit/miss counters). Per-shard
    /// pipeline metrics live on each shard's own registry
    /// ([`StoreServer::metrics`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Per-shape statistics of the router's global guard cache — the
    /// cross-shard statement shapes, each with its hit/compile counts and
    /// its fast-guard size ([`ShapeStat::fast_nodes`]).
    pub fn router_shape_stats(&self) -> Vec<ShapeStat> {
        self.router.per_shape_stats()
    }

    /// Warm-up: compiles `program`'s guard where [`submit`](Self::submit)
    /// would — the owning shard's cache for a single-shard footprint, the
    /// router's global cache for a cross-shard one — without executing
    /// anything. The sharded analogue of [`StoreServer::prepare`].
    /// (Cross-shard branch deltas are ground per-shard programs derived
    /// from the run, so they cannot be pre-warmed here.)
    pub fn prepare(&self, program: &Program) -> Result<(), StoreError> {
        match self.classify(program)? {
            Some(shard) => self.shards[shard].prepare(program),
            None => self.router.get_or_compile(program).map(|_| ()),
        }
    }

    /// Syntactic footprint routing: the single owning shard, or `None`
    /// for a cross-shard footprint. Classification never compiles a
    /// guard — it walks the program text for written and read relations.
    /// That is exact at shard granularity: the partitioner admitted only
    /// constraints whose every conjunct lives on one shard, so the
    /// compiled guard of a transaction can only read relations co-located
    /// with the relations the program itself touches.
    fn classify(&self, program: &Program) -> Result<Option<usize>, StoreError> {
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for rel in program.touched_relations().union(&program.read_relations()) {
            match self.assignment.get(rel) {
                Some(&s) => {
                    touched.insert(s);
                }
                None => {
                    return Err(StoreError::Unshardable {
                        detail: format!("relation {rel} is not assigned to any shard"),
                    })
                }
            }
        }
        Ok(if touched.len() <= 1 {
            Some(touched.into_iter().next().unwrap_or(0))
        } else {
            None
        })
    }

    /// Test hook: make the next cross-shard commit stop at `point` as if
    /// the process had crashed there (holds left held, later phases
    /// skipped). One-shot per set; `CrossCrashPoint::None` disarms. Once a
    /// point has *fired*, the store must be dropped and recovered, not
    /// [`shutdown`](Self::shutdown) — see there.
    #[doc(hidden)]
    pub fn debug_set_crash_point(&self, point: CrossCrashPoint) {
        self.crash_point.store(point as u8, Ordering::Relaxed);
    }

    fn crash_at(&self, point: CrossCrashPoint) -> bool {
        let fires = self.crash_point.load(Ordering::Relaxed) == point as u8;
        if fires {
            self.crash_fired.store(true, Ordering::Relaxed);
        }
        fires
    }

    /// Submits one program under `session` provenance: classifies its
    /// footprint (syntactically — see `classify`), then
    /// either enqueues it on its single owning shard (returning the
    /// ticket) or runs the cross-shard two-phase commit inline (returning
    /// the resolved outcome). The single-shard fast path adds no work the
    /// unsharded store doesn't do: no global guard compile, no
    /// coordinator state — the shard's own pipeline handles everything.
    /// Use [`ROUTED_SESSION`] when sessions don't matter.
    pub fn submit(&self, session: u64, program: Program) -> Result<Routed, StoreError> {
        if let Some(shard) = self.classify(&program)? {
            let ticket = self.shards[shard].enqueue(session, program);
            return Ok(Routed::Single { shard, ticket });
        }
        // Cross-shard: only now is the *global* guard needed — wpc of the
        // whole program against the whole constraint, evaluated on the
        // union snapshot during the decide phase.
        let prepared = self.router.get_or_compile(&program)?;
        let started_ns = self.registry.now_ns();
        let outcome = self.commit_cross(program, &prepared);
        match &outcome {
            Ok(CrossOutcome::Committed { .. }) => {
                self.cross_committed.inc();
                self.cross_total_us
                    .observe(self.registry.now_ns().saturating_sub(started_ns) / 1_000);
            }
            Ok(CrossOutcome::Aborted { .. }) => self.cross_aborted.inc(),
            Err(_) => {}
        }
        outcome.map(Routed::Cross)
    }

    /// The inline two-phase commit. Phases are annotated with the crash
    /// window they end (see the module docs' recovery table).
    fn commit_cross(
        &self,
        program: Program,
        prepared: &PreparedTx,
    ) -> Result<CrossOutcome, StoreError> {
        let decision = self.next_decision.fetch_add(1, Ordering::Relaxed);
        let mut footprint: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
        for rel in prepared.reads().iter().chain(prepared.writes().iter()) {
            footprint
                .entry(self.assignment[rel])
                .or_default()
                .insert(rel.clone());
        }

        // Prepare: hold every shard's slice of the footprint, ascending
        // shard order, all-or-release (non-blocking holds cannot
        // deadlock; a busy footprint backs off under the retry policy).
        let prepare_started = self.registry.now_ns();
        let mut snaps: BTreeMap<usize, Snapshot> = BTreeMap::new();
        let mut retries = 0u32;
        loop {
            let mut blocked = false;
            for (&s, rels) in &footprint {
                match self.shards[s].store().prepare_hold(decision, rels) {
                    Some(snap) => {
                        snaps.insert(s, snap);
                    }
                    None => {
                        blocked = true;
                        break;
                    }
                }
            }
            if !blocked {
                break;
            }
            self.release_all(decision, &snaps);
            snaps.clear();
            self.cross_prepare_retries.inc();
            if !self.retry.may_retry(retries) {
                return Err(StoreError::RetriesExhausted {
                    retries,
                    version: 0,
                    relations: footprint.values().flatten().cloned().collect(),
                });
            }
            retries += 1;
            self.retry.backoff(retries);
            std::thread::yield_now();
        }
        if self.crash_at(CrossCrashPoint::AfterPrepare) {
            return Err(StoreError::DebugCrashPoint);
        }

        // The union snapshot: the full schema with every touched shard's
        // relation handles swapped in (untouched shards' relations stay
        // empty — the guard's reads are within the footprint by
        // construction, and its domain-independence makes the missing
        // domain elements irrelevant).
        let mut union = Database::empty(self.schema.clone());
        for (rel, &s) in &self.assignment {
            if let Some(snap) = snaps.get(&s) {
                union.set_rel_handle(rel, snap.db.rel_handle(rel));
            }
        }
        let union = normalize_domain(union);
        self.cross_prepare_us
            .observe(self.registry.now_ns().saturating_sub(prepare_started) / 1_000);

        // Decide: global guard on the union, then run, then the durable
        // decision record.
        let decide_started = self.registry.now_ns();
        let pass = match holds(&union, &self.omega, &prepared.guard) {
            Ok(p) => p,
            Err(e) => {
                self.release_all(decision, &snaps);
                return Err(StoreError::Eval(e));
            }
        };
        if !pass {
            let version = snaps.values().map(|s| s.version).max().unwrap_or(0);
            self.release_all(decision, &snaps);
            return Ok(CrossOutcome::Aborted {
                reason: AbortReason::GuardFailed {
                    version,
                    shape: prepared.shape.id,
                },
            });
        }
        let post = match program.run(&union, &self.omega).map(normalize_domain) {
            Ok(db) => db,
            Err(e) => {
                self.release_all(decision, &snaps);
                return Err(StoreError::Tx(e));
            }
        };

        // Split the post-state into per-shard ground delta programs and
        // plan every fallible step (canonicalize, compile, shape
        // declaration, branch state) *before* the decision is appended —
        // after the append there is no abort path, only roll-forward.
        let mut planned: Vec<PlannedBranch> = Vec::new();
        for (&s, snap) in &snaps {
            let mut stmts: Vec<Program> = Vec::new();
            let mut writes: BTreeSet<String> = BTreeSet::new();
            for rel in prepared.writes() {
                if self.assignment[rel] != s {
                    continue;
                }
                let pre = snap.db.rel(rel);
                let post_rel = post.rel(rel);
                for t in pre.iter() {
                    if !post_rel.contains(t) {
                        stmts.push(Program::delete_consts(rel.clone(), t.iter().map(|e| e.0)));
                        writes.insert(rel.clone());
                    }
                }
                for t in post_rel.iter() {
                    if !pre.contains(t) {
                        stmts.push(Program::insert_consts(rel.clone(), t.iter().map(|e| e.0)));
                        writes.insert(rel.clone());
                    }
                }
            }
            if stmts.is_empty() {
                continue;
            }
            let delta = if stmts.len() == 1 {
                stmts.pop().expect("len checked")
            } else {
                Program::seq(stmts)
            };
            let new_db = match delta.run(&snap.db, &self.omega).map(normalize_domain) {
                Ok(db) => db,
                Err(e) => {
                    self.release_all(decision, &snaps);
                    return Err(StoreError::Tx(e));
                }
            };
            let shard_prep = match self.shards[s].cache().get_or_compile(&delta) {
                Ok(p) => p,
                Err(e) => {
                    self.release_all(decision, &snaps);
                    return Err(e);
                }
            };
            // Durable provenance on the shard: its log must resolve the
            // Cross record's (shape, bindings) on a cold recovery.
            self.shards[s]
                .store()
                .history()
                .declare_shape(shard_prep.shape.id, &shard_prep.shape.template);
            planned.push(PlannedBranch {
                shard: s,
                tx: self.shards[s].reserve_tx(),
                based_on: snap.version,
                delta,
                writes,
                shape: shard_prep.shape.id,
                bindings: shard_prep.bindings,
                new_db,
            });
        }
        if planned.is_empty() {
            // Read-only or no-op across shards: decided trivially, nothing
            // durable to record.
            self.release_all(decision, &snaps);
            return Ok(CrossOutcome::Committed {
                decision,
                versions: Vec::new(),
            });
        }

        // The commit point: the decision record reaches stable storage.
        // Failures here are fail-stop, like any serving-path log failure.
        if let Some(log) = &self.decisions {
            let record = DecisionRecord {
                id: decision,
                tx: self.next_cross_tx.fetch_add(1, Ordering::Relaxed),
                branches: planned
                    .iter()
                    .map(|b| DecisionBranch {
                        shard: b.shard as u32,
                        tx: b.tx,
                        based_on: b.based_on,
                        program: b.delta.clone(),
                    })
                    .collect(),
            };
            let mut writer = log.lock().expect("decision log poisoned");
            writer
                .append(&Record::Decision(record))
                .expect("decision log append failed; refusing to continue non-durably");
            writer
                .sync()
                .expect("decision log fsync failed; refusing to continue non-durably");
        }
        self.cross_decide_us
            .observe(self.registry.now_ns().saturating_sub(decide_started) / 1_000);
        if self.crash_at(CrossCrashPoint::AfterDecision) {
            return Err(StoreError::DebugCrashPoint);
        }

        // Decided: read-only shards have nothing to apply — release them
        // now so their traffic resumes while the written shards commit.
        for &s in snaps.keys() {
            if !planned.iter().any(|b| b.shard == s) {
                self.shards[s].store().abort_prepared(decision);
            }
        }

        // Commit each branch: one atomic Cross record per shard, fsync'd
        // inline (Cross records bypass the group-commit watermark).
        let mut versions = Vec::with_capacity(planned.len());
        for (i, b) in planned.into_iter().enumerate() {
            let req = CommitRequest {
                tx: b.tx,
                based_on: b.based_on,
                reads: BTreeSet::new(),
                writes: b.writes,
                shape: b.shape,
                bindings: b.bindings,
                new_db: b.new_db,
                encoded: None,
            };
            let (version, _offset) = self.shards[b.shard].store().commit_prepared(decision, req);
            self.shards[b.shard]
                .sync_wal()
                .expect("shard log fsync failed after a cross-shard commit");
            versions.push((b.shard as u32, version));
            if i == 0 && self.crash_at(CrossCrashPoint::BetweenShardCommits) {
                return Err(StoreError::DebugCrashPoint);
            }
        }
        Ok(CrossOutcome::Committed { decision, versions })
    }

    fn release_all(&self, decision: u64, snaps: &BTreeMap<usize, Snapshot>) {
        for &s in snaps.keys() {
            self.shards[s].store().abort_prepared(decision);
        }
    }

    /// Shuts every shard down (drain, join, clean checkpoint) and closes
    /// the coordinator. The watermark advances *before* the shard
    /// checkpoints can GC any segment, so recovery never confuses a
    /// retired `Cross` record with a missing one. Consuming `self`
    /// guarantees no cross-shard commit is in flight.
    ///
    /// # Panics
    ///
    /// After a [`CrossCrashPoint`] has fired, the store may hold a
    /// durable decision whose branches never applied; advancing the
    /// watermark (and letting the shard checkpoints GC segments) would
    /// mark it applied forever, so this refuses. Drop the store and
    /// [`ShardedBuilder::recover`] from its root instead — exactly what a
    /// real crash requires.
    pub fn shutdown(self) -> ShardedReport {
        assert!(
            !self.crash_fired.load(Ordering::Relaxed),
            "shutdown() after a DebugCrashPoint would mark a durable-but-unapplied \
             decision as applied; drop the store and recover from its root instead"
        );
        let decisions_issued = self.next_decision.load(Ordering::Relaxed);
        if let Some(log) = &self.decisions {
            log.lock()
                .expect("decision log poisoned")
                .sync()
                .expect("decision log flush at shutdown failed");
        }
        if let (Some(root), Some(_)) = (&self.root, &self.decisions) {
            write_watermark(&root.join("decisions"), decisions_issued)
                .expect("writing the applied-through watermark failed");
        }
        let shards: Vec<ServerReport> = self.shards.into_iter().map(|s| s.shutdown()).collect();
        ShardedReport {
            shards,
            coordinator: self.registry.snapshot(),
            assignment: self.assignment,
            decisions: decisions_issued,
        }
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("relations", &self.assignment.len())
            .finish_non_exhaustive()
    }
}

/// Everything a shut-down sharded store leaves behind.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    /// Per-shard reports, in shard order (each is a full
    /// [`ServerReport`]: outcomes, history, final state, flush stats).
    pub shards: Vec<ServerReport>,
    /// The coordinator's metrics snapshot (cross-shard counters, stage
    /// latencies, router-cache counters).
    pub coordinator: MetricsSnapshot,
    /// The relation → shard assignment the store ran with.
    pub assignment: BTreeMap<String, usize>,
    /// Decision ids issued (committed + aborted + read-only).
    pub decisions: u64,
}

// --- recovery --------------------------------------------------------------

/// The `shard-N/` directories under a sharded persistence root, in shard
/// order. Errors when there are none (not a sharded layout).
fn shard_dirs(root: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut dirs = Vec::new();
    loop {
        let dir = root.join(format!("shard-{}", dirs.len()));
        if !dir.is_dir() {
            break;
        }
        dirs.push(dir);
    }
    if dirs.is_empty() {
        return Err(StoreError::Unshardable {
            detail: format!(
                "{} has no shard-0/ directory; not a sharded store layout",
                root.display()
            ),
        });
    }
    Ok(dirs)
}

/// Whether `root` looks like a sharded persistence root (for tools that
/// auto-detect the layout).
pub fn is_sharded_layout(root: &Path) -> bool {
    root.join("shard-0").is_dir() && root.join("decisions").is_dir()
}

/// Reads every decision record in the coordinator's log, in **append
/// order** — deliberately not id order. Ids are allocated at the top of
/// `commit_cross`, before the prepare loop, so a coordinator that waited
/// out another's holds can append a lower id *after* a higher one; the
/// log's append order is the order holds released, i.e. the true conflict
/// order, and roll-forward must replay in it. A torn decision tail is
/// simply absent — exactly presumed-abort.
fn read_decisions(dir: &Path) -> Result<Vec<DecisionRecord>, StoreError> {
    let scan = wal::scan_log(dir).map_err(StoreError::Wal)?;
    Ok(scan
        .records
        .into_iter()
        .filter_map(|r| match r.record {
            Record::Decision(d) => Some(d),
            _ => None,
        })
        .collect())
}

/// The applied-through watermark: 0 when the file does not exist (no
/// clean shutdown yet), a typed error when it cannot be read or parsed —
/// a silent 0 would reopen every decision for roll-forward.
fn read_watermark(dir: &Path) -> Result<u64, StoreError> {
    let path = dir.join(WATERMARK_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(wal::io_err(&path, e).into()),
    };
    text.trim().parse().map_err(|e| {
        StoreError::Wal(WalError::BadCheckpoint {
            path: path.display().to_string(),
            detail: format!("not a decision id: {e}"),
        })
    })
}

/// Atomically (write + fsync + rename + dir fsync) records that every
/// decision below `through` is applied on every shard.
fn write_watermark(dir: &Path, through: u64) -> std::io::Result<()> {
    let tmp = dir.join(format!("{WATERMARK_FILE}.tmp"));
    std::fs::write(&tmp, format!("{through}\n"))?;
    std::fs::File::open(&tmp)?.sync_all()?;
    std::fs::rename(&tmp, dir.join(WATERMARK_FILE))?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Recovers `shard`'s log and rolls decided-but-unapplied branches
/// forward into it, in one replay: applies each missing decision's ground
/// delta in decision-log **append order** (the order the decisions' holds
/// released — see [`read_decisions`]; id order can invert it and would
/// reconstruct a state the coordinators never decided), verifies the
/// resulting [`Event::Cross`] through the replay kernel, and appends it
/// (and any unseen shape declaration). Appending at the tail is sound
/// because the decision's holds blocked every conflicting commit until the
/// branch applied — a branch missing from the log has no successor that
/// contradicts it. Returns the recovery extended by the rolled-forward
/// commits, for the shard server to resume from.
fn roll_forward_shard(
    dir: &Path,
    shard: u32,
    pending: &[&DecisionRecord],
    omega: &Omega,
    wal_opts: &WalOptions,
) -> Result<Recovered, StoreError> {
    let mut rec = wal::recover(dir, omega, RecoveryOptions::default())?;
    let todo: Vec<(u64, &DecisionBranch)> = pending
        .iter()
        .filter(|d| !rec.cross_decisions.contains(&d.id))
        .filter_map(|d| {
            d.branches
                .iter()
                .find(|b| b.shard == shard)
                .map(|b| (d.id, b))
        })
        .collect();
    if todo.is_empty() {
        return Ok(rec);
    }

    let (mut writer, _logged_shapes) = WalWriter::resume(dir, wal_opts.clone())?;
    let mut replay = Replayer::new(
        rec.alpha.clone(),
        omega.clone(),
        rec.db.clone(),
        rec.version,
    );
    for (decision, branch) in todo {
        let (template, bindings) = canonicalize(&branch.program).map_err(StoreError::Tx)?;
        let shape = match rec.templates.iter().find(|(_, t)| **t == template) {
            Some((&id, _)) => id,
            None => {
                let id = rec.templates.len() as u64;
                writer.append(&Record::Shape {
                    id,
                    template: template.clone(),
                })?;
                rec.templates.insert(id, template);
                id
            }
        };
        let post = branch
            .program
            .run(&replay.db, omega)
            .map(normalize_domain)
            .map_err(|e| StoreError::Unshardable {
                detail: format!(
                    "decision {decision} branch for shard {shard} no longer applies: {e}"
                ),
            })?;
        let event = Event::Cross {
            tx: branch.tx,
            decision,
            based_on: branch.based_on,
            version: replay.version + 1,
            writes: branch.program.touched_relations().into_iter().collect(),
            shape,
            bindings,
            root_hash: root_hash(&post),
        };
        replay.commit(&event, &rec.templates)?;
        writer.append(&Record::Event(event.clone()))?;
        rec.push(event);
    }
    writer.sync()?;
    rec.settle(replay);
    Ok(rec)
}

// --- sharded cold audit ----------------------------------------------------

/// What [`cold_audit_sharded`] verified.
#[derive(Clone, Debug)]
pub struct ShardedAuditReport {
    /// Per-shard cold-audit reports (replay + hash + provenance of each
    /// shard's own log).
    pub shards: Vec<AuditReport>,
    /// Decision records read from the coordinator log.
    pub decisions: usize,
    /// `Cross` events seen across every shard's replayed tail.
    pub cross_events: usize,
    /// Cross-log consistency problems: a `Cross` event without its
    /// decision, a mismatched branch, or an unapplied decided branch.
    pub problems: Vec<String>,
}

impl ShardedAuditReport {
    /// Whether every shard audit passed and the decision cross-checks
    /// found nothing.
    pub fn ok(&self) -> bool {
        self.problems.is_empty() && self.shards.iter().all(|r| r.ok())
    }
}

/// Cold-audits a persisted sharded store: every shard's log is replayed
/// once and verified on its own ([`cold_audit_dir`], the per-shard
/// [`AuditReport`]s), then the coordinator's decision log is cross-checked
/// against the shards' `Cross` records — every `Cross` must reference a
/// durable decision whose branch matches it (tx, based_on, and the delta
/// program's canonical provenance), and every decided branch at or above
/// the watermark must have applied (its `Cross` record survives, or a
/// shard checkpoint records it as covered).
pub fn cold_audit_sharded(root: &Path, omega: &Omega) -> Result<ShardedAuditReport, StoreError> {
    let dirs = shard_dirs(root)?;
    let decisions_dir = root.join("decisions");
    let decisions = read_decisions(&decisions_dir)?;
    let watermark = read_watermark(&decisions_dir)?;
    let by_id: BTreeMap<u64, &DecisionRecord> = decisions.iter().map(|d| (d.id, d)).collect();

    let mut problems = Vec::new();
    let mut shard_reports = Vec::with_capacity(dirs.len());
    let mut cross_events = 0usize;
    let mut applied: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    for (s, dir) in dirs.iter().enumerate() {
        let (rec, report) = cold_audit_dir(dir, omega)?;
        shard_reports.push(report);
        for &d in &rec.cross_decisions {
            applied.entry(d).or_default().insert(s as u32);
        }
        for e in &rec.events {
            let Event::Cross {
                tx,
                decision,
                based_on,
                shape,
                bindings,
                ..
            } = e
            else {
                continue;
            };
            cross_events += 1;
            let Some(d) = by_id.get(decision) else {
                problems.push(format!(
                    "shard {s}: Cross record for tx {tx} references decision {decision}, \
                     which is not in the decision log"
                ));
                continue;
            };
            let Some(branch) = d.branches.iter().find(|b| b.shard == s as u32) else {
                problems.push(format!(
                    "shard {s}: decision {decision} has no branch for this shard, but a \
                     Cross record claims one"
                ));
                continue;
            };
            if branch.tx != *tx || branch.based_on != *based_on {
                problems.push(format!(
                    "shard {s}: Cross record (tx {tx}, based_on {based_on}) disagrees with \
                     decision {decision}'s branch (tx {}, based_on {})",
                    branch.tx, branch.based_on
                ));
            }
            match (canonicalize(&branch.program), rec.templates.get(shape)) {
                (Ok((template, b)), Some(logged)) => {
                    if template != *logged || b != *bindings {
                        problems.push(format!(
                            "shard {s}: decision {decision}'s branch program does not \
                             canonicalize to the Cross record's (shape {shape}, bindings)"
                        ));
                    }
                }
                (Err(e), _) => problems.push(format!(
                    "shard {s}: decision {decision}'s branch program does not canonicalize: {e}"
                )),
                (_, None) => problems.push(format!(
                    "shard {s}: Cross record references unknown shape {shape}"
                )),
            }
        }
    }
    for d in &decisions {
        if d.id < watermark {
            continue;
        }
        for b in &d.branches {
            let done = applied
                .get(&d.id)
                .map(|shards| shards.contains(&b.shard))
                .unwrap_or(false);
            if !done {
                problems.push(format!(
                    "decision {} is durable but its branch for shard {} never applied \
                     (recovery should have rolled it forward)",
                    d.id, b.shard
                ));
            }
        }
    }
    Ok(ShardedAuditReport {
        shards: shard_reports,
        decisions: decisions.len(),
        cross_events,
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxOutcome;
    use vpdt_logic::parse_formula;

    fn fd2() -> (Database, Formula) {
        let initial = crate::workload::sharded_initial(7, 2, 6, 0.5);
        let alpha = crate::workload::sharded_fd_constraint(2);
        (initial, alpha)
    }

    #[test]
    fn striping_round_robins_in_schema_order() {
        let schema = crate::workload::sharded_schema(5);
        let a = stripe_assignment(&schema, 2);
        assert_eq!(a["R0"], 0);
        assert_eq!(a["R1"], 1);
        assert_eq!(a["R2"], 0);
        assert_eq!(a["R3"], 1);
        assert_eq!(a["R4"], 0);
    }

    #[test]
    fn partitioner_refuses_cross_shard_conjuncts() {
        let schema = crate::workload::sharded_schema(2);
        let assignment = stripe_assignment(&schema, 2);
        let spanning = parse_formula("forall x y. R0(x, y) -> R1(x, y)").expect("parses");
        let err = partition_constraint(&spanning, &assignment, 2).unwrap_err();
        assert!(matches!(err, StoreError::Unshardable { .. }), "{err}");
    }

    #[test]
    fn partitioner_refuses_domain_dependent_conjuncts() {
        let schema = crate::workload::sharded_schema(2);
        let assignment = stripe_assignment(&schema, 2);
        // Totality quantifies over the whole domain — including elements
        // only other shards know about.
        let total = parse_formula("forall x. exists y. R0(x, y)").expect("parses");
        let err = partition_constraint(&total, &assignment, 2).unwrap_err();
        assert!(matches!(err, StoreError::Unshardable { .. }), "{err}");
    }

    #[test]
    fn single_shard_submissions_take_the_ordinary_path() {
        let (initial, alpha) = fd2();
        let store = ShardedBuilder::new(initial, alpha, 2)
            .workers_per_shard(1)
            .build()
            .expect("builds");
        let session = store.session();
        let routed = store
            .submit(session, Program::insert_consts("R1", [100, 101]))
            .expect("routes");
        let Routed::Single { shard, ticket } = routed else {
            panic!("single-relation program must route to one shard");
        };
        assert_eq!(shard, 1, "R1 stripes to shard 1");
        assert!(matches!(ticket.wait(), TxOutcome::Committed { .. }));
        assert!(store
            .shard(1)
            .snapshot()
            .db
            .contains("R1", &[Elem(100), Elem(101)]));
        let report = store.shutdown();
        assert_eq!(report.coordinator.counter(names::CROSS_COMMITTED), 0);
        assert_eq!(report.shards[1].exec.committed, 1);
    }

    #[test]
    fn cross_shard_commit_applies_on_every_written_shard() {
        let (initial, alpha) = fd2();
        let store = ShardedBuilder::new(initial, alpha, 2)
            .workers_per_shard(1)
            .build()
            .expect("builds");
        let program = Program::seq([
            Program::insert_consts("R0", [200, 201]),
            Program::insert_consts("R1", [200, 202]),
        ]);
        let routed = store.submit(ROUTED_SESSION, program).expect("commits");
        let Routed::Cross(CrossOutcome::Committed { versions, .. }) = routed else {
            panic!("two-shard program must take the cross path: {routed:?}");
        };
        assert_eq!(versions.len(), 2, "both shards committed a branch");
        assert!(store
            .shard(0)
            .snapshot()
            .db
            .contains("R0", &[Elem(200), Elem(201)]));
        assert!(store
            .shard(1)
            .snapshot()
            .db
            .contains("R1", &[Elem(200), Elem(202)]));
        // The shard histories carry Cross events referencing one decision.
        for s in 0..2 {
            let events = store.shard(s).history_events();
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, Event::Cross { decision: 0, .. })),
                "shard {s} must log the cross commit"
            );
        }
        let report = store.shutdown();
        assert_eq!(report.coordinator.counter(names::CROSS_COMMITTED), 1);
    }

    #[test]
    fn cross_shard_guard_failure_aborts_and_releases_holds() {
        let (initial, alpha) = fd2();
        let store = ShardedBuilder::new(initial, alpha, 2)
            .workers_per_shard(1)
            .build()
            .expect("builds");
        // Seed a function value, then try to contradict it cross-shard:
        // the global guard must refuse the second mapping for 300.
        let seed = store
            .submit(ROUTED_SESSION, Program::insert_consts("R0", [300, 1]))
            .expect("routes");
        let Routed::Single { ticket, .. } = seed else {
            panic!("seed is single-shard")
        };
        assert!(matches!(ticket.wait(), TxOutcome::Committed { .. }));
        let clash = Program::seq([
            Program::insert_consts("R0", [300, 2]),
            Program::insert_consts("R1", [300, 3]),
        ]);
        let routed = store.submit(ROUTED_SESSION, clash).expect("evaluates");
        assert!(
            matches!(routed, Routed::Cross(CrossOutcome::Aborted { .. })),
            "fd violation must abort: {routed:?}"
        );
        // Holds released: the same footprint commits once it is consistent.
        let ok = Program::seq([
            Program::insert_consts("R0", [301, 2]),
            Program::insert_consts("R1", [300, 3]),
        ]);
        assert!(matches!(
            store.submit(ROUTED_SESSION, ok).expect("commits"),
            Routed::Cross(CrossOutcome::Committed { .. })
        ));
        let report = store.shutdown();
        assert_eq!(report.coordinator.counter(names::CROSS_ABORTED), 1);
        assert_eq!(report.coordinator.counter(names::CROSS_COMMITTED), 1);
    }

    #[test]
    fn cross_shard_noop_commits_trivially() {
        let (initial, alpha) = fd2();
        let store = ShardedBuilder::new(initial, alpha, 2)
            .workers_per_shard(1)
            .build()
            .expect("builds");
        // Deleting tuples that are not there changes nothing on either
        // shard: no branches, no decision record, holds released.
        let noop = Program::seq([
            Program::delete_consts("R0", [400, 401]),
            Program::delete_consts("R1", [400, 401]),
        ]);
        let routed = store.submit(ROUTED_SESSION, noop).expect("commits");
        let Routed::Cross(CrossOutcome::Committed { versions, .. }) = routed else {
            panic!("expected trivial commit: {routed:?}");
        };
        assert!(versions.is_empty());
        assert_eq!(store.shard(0).version(), 0);
        assert_eq!(store.shard(1).version(), 0);
        store.shutdown();
    }

    /// A single-shard commit that runs into a 2PC hold waits for the
    /// release instead of spending its retry budget: with one retry and
    /// no backoff, a spinning worker would exhaust the bound long before
    /// the decision lands.
    #[test]
    fn hold_conflicts_wait_without_spending_retries() {
        let (initial, alpha) = fd2();
        let store = ShardedBuilder::new(initial, alpha, 2)
            .workers_per_shard(1)
            .retry_policy(RetryPolicy::bounded(1, std::time::Duration::ZERO))
            .build()
            .expect("builds");
        let decision = 77;
        store
            .shard(0)
            .store()
            .prepare_hold(decision, &BTreeSet::from(["R0".to_string()]))
            .expect("R0 is free");
        let Routed::Single { ticket, .. } = store
            .submit(ROUTED_SESSION, Program::insert_consts("R0", [500, 501]))
            .expect("routes")
        else {
            panic!("single-relation program must route to one shard");
        };
        // The counter ticks just before the worker blocks on the hold.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while store.shard(0).metrics().counter(names::TX_HOLD_WAITS) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never waited on the hold"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        store.shard(0).store().abort_prepared(decision);
        assert!(
            matches!(ticket.wait(), TxOutcome::Committed { .. }),
            "a hold must not exhaust the retry bound"
        );
        assert!(store
            .shard(0)
            .snapshot()
            .db
            .contains("R0", &[Elem(500), Elem(501)]));
        let report = store.shutdown();
        assert_eq!(report.shards[0].metrics.counter(names::TX_HOLD_WAITS), 1);
        assert_eq!(report.shards[0].exec.failed, 0);
    }

    /// The router reports each cross-shard shape's fast-guard size: a
    /// move composes its per-step residues into a guard the size of one
    /// insert's.
    #[test]
    fn router_reports_constant_size_cross_guards() {
        let (initial, alpha) = fd2();
        let store = ShardedBuilder::new(initial, alpha, 2)
            .workers_per_shard(1)
            .build()
            .expect("builds");
        let mv = Program::seq([
            Program::delete_consts("R0", [1, 2]),
            Program::insert_consts("R1", [1, 2]),
        ]);
        store.prepare(&mv).expect("compiles");
        let stats = store.router_shape_stats();
        assert_eq!(stats.len(), 1, "{stats:?}");
        let nodes = stats[0].fast_nodes.expect("compiled");
        assert!(nodes <= 64, "move fast guard has {nodes} nodes");
        store.shutdown();
    }

    #[test]
    fn more_shards_than_relations_is_refused() {
        let (initial, alpha) = fd2();
        let err = ShardedBuilder::new(initial, alpha, 9).build().unwrap_err();
        assert!(matches!(err, StoreError::Unshardable { .. }), "{err}");
    }
}

//! The versioned store: copy-on-write snapshots with relation-granular
//! optimistic commit validation.
//!
//! The store keeps one immutable [`Database`] per version behind an `Arc`;
//! readers clone the `Arc` and never block writers. A commit declares the
//! relations it read and wrote; validation compares those relations'
//! last-writer versions against the snapshot the transaction ran on. Two
//! consequences:
//!
//! * transactions whose footprints are disjoint commit concurrently even
//!   when they interleave — the committed state keeps its written relations
//!   and takes every unwritten relation from the current state by `Arc`
//!   pointer swap (relations are individually shared, see
//!   `vpdt_structure::Database::rel_handle`), so a disjoint merge costs
//!   O(relations), not O(tuples);
//! * transactions that raced on a common relation are rejected with
//!   [`CommitOutcome::Conflict`] and re-validate on a fresh snapshot.
//!
//! Commit events are appended to the store's [`History`] inside the commit
//! critical section, so log order = serialization order. That append is
//! where [`VersionedStore::try_commit`]'s responsibility ends: it returns
//! the **publish**-phase outcome — the new version plus the commit
//! record's log offset — and the **durable** phase (the write and the
//! fsync, batched across workers by the
//! [`GroupCommitFlusher`](crate::wal), and only then the ticket
//! resolution) happens outside the critical section.

use crate::history::{root_hash, state_hash, History};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use vpdt_logic::Schema;
use vpdt_structure::Database;
use vpdt_tx::traits::normalize_domain;

/// An immutable view of the store at one version.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The version number (0 is the ingested initial state).
    pub version: u64,
    /// The database at that version.
    pub db: Arc<Database>,
}

/// A commit offer: the transaction's footprint plus the state it computed.
#[derive(Clone, Debug)]
pub struct CommitRequest {
    /// Transaction id (for the history log).
    pub tx: u64,
    /// The snapshot version the guard and the application ran against.
    pub based_on: u64,
    /// Relations whose old contents the guard or the program consulted.
    pub reads: BTreeSet<String>,
    /// Relations the program wrote.
    pub writes: BTreeSet<String>,
    /// Id of the transaction's canonicalized statement shape (recorded in
    /// the commit event for audit provenance).
    pub shape: u64,
    /// The constants bound to the shape's placeholders.
    pub bindings: Vec<vpdt_logic::Elem>,
    /// The computed post-state (its `writes` relations are authoritative).
    pub new_db: Database,
    /// The commit's WAL payload, already encoded with placeholder
    /// `version`/`root_hash` fields (zeros); the store patches those 16
    /// bytes under the lock and records the payload as-is. `None` (what
    /// the executor passes) has the store encode it from the fields above
    /// before it takes the lock — the same single path either way.
    pub encoded: Option<Vec<u8>>,
}

/// The store's answer to a commit offer — the *publish*-phase outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Validation passed; the store now holds the new state at `version`
    /// and (on a persisted store) the commit record is appended at
    /// `wal_offset`. **Published is not yet durable**: when the store
    /// fsyncs commits, the caller owes the ticket to the group-commit
    /// flusher, which resolves it once an fsync covers that offset.
    Committed {
        /// The version assigned to the commit.
        version: u64,
        /// The commit record's global log offset (`None` on an in-memory
        /// store, where publishing is the whole story).
        wal_offset: Option<u64>,
    },
    /// Some footprint relation changed after `based_on`; re-validate
    /// against the current version.
    Conflict {
        /// The store version at rejection time.
        version: u64,
    },
}

struct State {
    version: u64,
    db: Arc<Database>,
    /// Last version that wrote each relation.
    rel_versions: BTreeMap<String, u64>,
    /// Relations held by in-flight cross-shard prepares, by decision id.
    /// A held relation blocks every ordinary commit that touches it
    /// (reported as a [`CommitOutcome::Conflict`]; the worker then waits
    /// for the release in [`VersionedStore::wait_unheld`] before it
    /// re-validates) and makes a second prepare wait for the release
    /// before it holds it. Holds are in-memory only: a crash drops them,
    /// which is exactly presumed-abort — an undecided prepare must leak
    /// nothing durable.
    held: BTreeMap<String, u64>,
}

/// A thread-safe, versioned, in-memory store.
pub struct VersionedStore {
    schema: Schema,
    state: RwLock<State>,
    history: History,
    /// Hold-release generation: bumped (and broadcast) each time a
    /// cross-shard decision releases its holds, so workers and
    /// coordinators blocked on a held relation wake to re-check instead of
    /// spinning.
    releases: Mutex<u64>,
    released: Condvar,
}

impl VersionedStore {
    /// Ingests an initial state as version 0, which anchors the history.
    pub fn new(initial: Database) -> Self {
        let db = Arc::new(initial);
        let history = History::anchored(0, Arc::clone(&db), 0);
        VersionedStore::resume(db, 0, history, BTreeMap::new())
    }

    /// Resumes a store at a recovered state and version, with a pre-seeded
    /// history — the durable-recovery path. Each relation's last-writer
    /// version comes from `rel_seed` — recovery reconstructs it from the
    /// replayed commit footprints, so post-recovery validation sees real
    /// history instead of a coarse recovery-point stamp. Relations the
    /// seed does not name fall back to `version` (conservative: that can
    /// only *reject* commits a finer record would have accepted, never
    /// accept one it would have rejected).
    pub(crate) fn resume(
        db: Arc<Database>,
        version: u64,
        history: History,
        rel_seed: BTreeMap<String, u64>,
    ) -> Self {
        let schema = db.schema().clone();
        let rel_versions = schema
            .iter()
            .map(|(name, _)| {
                let seeded = rel_seed.get(name).copied().unwrap_or(version);
                (name.to_string(), seeded.min(version))
            })
            .collect();
        VersionedStore {
            schema,
            state: RwLock::new(State {
                version,
                db,
                rel_versions,
                held: BTreeMap::new(),
            }),
            history,
            releases: Mutex::new(0),
            released: Condvar::new(),
        }
    }

    /// The store's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared history log.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The current version and state (cheap: clones an `Arc`).
    pub fn snapshot(&self) -> Snapshot {
        let s = self.state.read().expect("store lock poisoned");
        Snapshot {
            version: s.version,
            db: Arc::clone(&s.db),
        }
    }

    /// The current version.
    pub fn version(&self) -> u64 {
        self.state.read().expect("store lock poisoned").version
    }

    /// Offers a commit. Validation: every relation in the request's
    /// read-and-write footprint must be unwritten since `based_on`. On
    /// success the written relations are merged into the current state
    /// (other relations keep their latest contents) and a commit event is
    /// logged — the **publish** phase, whose outcome (version + log
    /// offset) this returns; making the record durable and resolving the
    /// ticket is the durable phase's job, outside this critical section.
    /// On conflict nothing changes.
    pub fn try_commit(&self, req: CommitRequest) -> CommitOutcome {
        self.try_commit_timed(req).0
    }

    /// [`try_commit`](Self::try_commit), also reporting how long the
    /// store's write lock was **held** (not how long the caller waited to
    /// acquire it) — the commit critical section the
    /// `store_publish_critical_section_us` histogram tracks.
    pub fn try_commit_timed(&self, req: CommitRequest) -> (CommitOutcome, std::time::Duration) {
        let CommitRequest {
            tx,
            based_on,
            reads,
            writes,
            shape,
            bindings,
            new_db,
            encoded,
        } = req;
        // Every field of the commit record but the version and the root
        // hash is known now, before the lock: encode it here and let the
        // lock patch 16 bytes.
        let mut payload = encoded.unwrap_or_else(|| {
            crate::wal::encode_commit_stub(tx, None, based_on, shape, &writes, &bindings)
        });
        let mut s = self.state.write().expect("store lock poisoned");
        let held = std::time::Instant::now();
        // A relation held by an in-flight cross-shard prepare conflicts
        // like a concurrent writer: the worker re-validates after the
        // 2PC decision releases the hold. The `is_empty` guard keeps the
        // common (no cross traffic) case at one branch.
        let blocked = !s.held.is_empty()
            && reads
                .iter()
                .chain(writes.iter())
                .any(|rel| s.held.contains_key(rel));
        let stale = blocked
            || reads
                .iter()
                .chain(writes.iter())
                .any(|rel| s.rel_versions.get(rel).copied().unwrap_or(0) > based_on);
        if stale {
            let outcome = CommitOutcome::Conflict { version: s.version };
            return (outcome, held.elapsed());
        }
        let (version, wal_offset) = self.publish(&mut s, based_on, &writes, new_db, &mut payload);
        let outcome = CommitOutcome::Committed {
            version,
            wal_offset,
        };
        (outcome, held.elapsed())
    }

    /// The publish step both commit paths share, run under the state
    /// write lock once validation has passed: merges the computed state
    /// into the current one, assigns the next version, stamps the written
    /// relations with it, and records the commit payload (patched with
    /// the version and root hash) in the history, handing it the new
    /// state for the history's anchor rule. Returns the new version plus
    /// the record's log offset.
    fn publish(
        &self,
        s: &mut State,
        based_on: u64,
        writes: &BTreeSet<String>,
        new_db: Database,
        payload: &mut [u8],
    ) -> (u64, Option<u64>) {
        let merged = if s.version == based_on {
            // Fast path: nothing moved at all; the computed state is the
            // next state verbatim.
            new_db
        } else {
            // Disjoint interleaving: keep the current contents of
            // unwritten relations, take the written ones from the
            // transaction's output. Relations live behind individual
            // `Arc`s, so this is a pointer swap per unwritten relation —
            // no tuple is copied — and the domain re-normalization is O(1):
            // it only marks the domain as the deferred active-domain view,
            // which materializes lazily from the relations' cached domains
            // if some later reader (a guard quantifier, an audit) asks.
            let mut out = new_db;
            for (rel, _) in self.schema.iter() {
                if !writes.contains(rel) {
                    out.set_rel_handle(rel, s.db.rel_handle(rel));
                }
            }
            normalize_domain(out)
        };

        s.version += 1;
        let version = s.version;
        for rel in writes {
            s.rel_versions.insert(rel.clone(), version);
        }
        // The commitment root: an O(#relations) combine over the cached
        // per-relation content hashes. Unwritten relations arrived by
        // pointer swap carrying their hash with them, so nothing here
        // rehashes a tuple — the per-tuple work happened incrementally at
        // mutation time, outside this lock.
        let hash = root_hash(&merged);
        s.db = Arc::new(merged);
        crate::wal::patch_commit_payload(payload, version, hash);
        (version, self.history.record_commit(payload, &s.db))
    }

    /// Phase one of a cross-shard two-phase commit: records every
    /// relation of `rels` as held by `decision` and returns the current
    /// snapshot — the shard's contribution to the coordinator's union
    /// snapshot — plus the log offset just past the last commit that
    /// snapshot includes (0 on an in-memory store). Because the holds are
    /// taken under the same write lock that assigns commit versions, the
    /// returned snapshot *is* the prepare's `based_on`: no commit can
    /// touch a held relation until the decision releases it, so the
    /// coordinator never validates against a stale read. The offset is
    /// read under that lock too, so once the log is durable through it,
    /// so is the snapshot. When another prepare holds any of `rels`, blocks in
    /// [`wait_unheld`](Self::wait_unheld) until it releases, then tries
    /// again; `on_wait` runs once, before the first wait. The holds are
    /// all-or-nothing, and a coordinator prepares its shards in ascending
    /// order, so no cycle of waiting coordinators can form.
    pub(crate) fn prepare_hold(
        &self,
        decision: u64,
        rels: &BTreeSet<String>,
        on_wait: impl FnOnce(),
    ) -> (Snapshot, u64) {
        let mut on_wait = Some(on_wait);
        loop {
            {
                let mut s = self.state.write().expect("store lock poisoned");
                if !rels.iter().any(|rel| s.held.contains_key(rel)) {
                    for rel in rels {
                        s.held.insert(rel.clone(), decision);
                    }
                    let snap = Snapshot {
                        version: s.version,
                        db: Arc::clone(&s.db),
                    };
                    return (snap, self.history.commit_offset());
                }
            }
            self.wait_unheld(rels.iter(), || {
                if let Some(f) = on_wait.take() {
                    f();
                }
            });
        }
    }

    /// Phase two, commit side: applies a decided cross-shard delta. The
    /// footprint is held by `decision` (taken by
    /// [`prepare_hold`](Self::prepare_hold)), so validation cannot fail —
    /// holds blocked every conflicting commit since `based_on` — and the
    /// merge is the same disjoint pointer-swap as
    /// [`try_commit`](Self::try_commit). Records an
    /// [`Event::Cross`](crate::history::Event::Cross) carrying the
    /// decision id (one atomic record: commit and decision reference can
    /// never be torn apart), then releases every relation the decision
    /// held. Returns the new version plus the record's log
    /// offset.
    pub(crate) fn commit_prepared(&self, decision: u64, req: CommitRequest) -> (u64, Option<u64>) {
        let CommitRequest {
            tx,
            based_on,
            reads: _,
            writes,
            shape,
            bindings,
            new_db,
            encoded,
        } = req;
        let mut payload = encoded.unwrap_or_else(|| {
            crate::wal::encode_commit_stub(tx, Some(decision), based_on, shape, &writes, &bindings)
        });
        let mut s = self.state.write().expect("store lock poisoned");
        debug_assert!(
            writes.iter().all(|rel| s.held.get(rel) == Some(&decision)),
            "commit_prepared without holding the write footprint"
        );
        debug_assert!(
            writes
                .iter()
                .all(|rel| s.rel_versions.get(rel).copied().unwrap_or(0) <= based_on),
            "a held relation moved between prepare and commit"
        );
        let (version, wal_offset) = self.publish(&mut s, based_on, &writes, new_db, &mut payload);
        s.held.retain(|_, d| *d != decision);
        drop(s);
        self.signal_release();
        (version, wal_offset)
    }

    /// Phase two, abort side: releases every relation held by `decision`
    /// without touching the state. Idempotent.
    pub(crate) fn abort_prepared(&self, decision: u64) {
        self.state
            .write()
            .expect("store lock poisoned")
            .held
            .retain(|_, d| *d != decision);
        self.signal_release();
    }

    /// Wakes every worker waiting in [`wait_unheld`](Self::wait_unheld).
    /// Called after the state lock is dropped, so a woken worker can
    /// re-check the holds at once.
    fn signal_release(&self) {
        *self.releases.lock().expect("release signal poisoned") += 1;
        self.released.notify_all();
    }

    /// Blocks until no relation of `footprint` is held by a cross-shard
    /// prepare; returns at once when none is held on entry. `on_wait` runs
    /// once, just before the first wait. The release generation is locked
    /// *before* `held` is read, so a release landing between the check
    /// and the wait still wakes the waiter. Workers call this holding
    /// nothing; a coordinator calls it (from
    /// [`prepare_hold`](Self::prepare_hold)) holding only relations of
    /// lower shards, and the holder it waits for never waits on a worker,
    /// so the waits cannot deadlock.
    pub(crate) fn wait_unheld<'a>(
        &self,
        footprint: impl Iterator<Item = &'a String> + Clone,
        on_wait: impl FnOnce(),
    ) {
        let is_held = || {
            let s = self.state.read().expect("store lock poisoned");
            !s.held.is_empty() && footprint.clone().any(|rel| s.held.contains_key(rel))
        };
        let mut generation = self.releases.lock().expect("release signal poisoned");
        if !is_held() {
            return;
        }
        on_wait();
        loop {
            let seen = *generation;
            while *generation == seen {
                generation = self
                    .released
                    .wait(generation)
                    .expect("release signal poisoned");
            }
            if !is_held() {
                return;
            }
        }
    }

    /// Writes a snapshot checkpoint of the *current* state to the attached
    /// write-ahead log's directory, returning the log offset it covers
    /// plus how many superseded segments and checkpoint files the
    /// retention pass deleted (so the caller can count them). Holding the
    /// state read lock across the write keeps the triple (state, version,
    /// log offset) consistent: commits append their log record inside the
    /// state *write* lock, so none can land in between. Returns
    /// `Err(WalError::NotDurable)` when no log is attached.
    pub(crate) fn checkpoint_now(
        &self,
        templates: std::collections::BTreeMap<u64, vpdt_tx::template::Template>,
        next_tx: u64,
        alpha: &vpdt_logic::Formula,
    ) -> Result<CheckpointGc, crate::wal::WalError> {
        let s = self.state.read().expect("store lock poisoned");
        self.history
            .with_wal(|log| {
                log.writer.sync()?;
                let offset = log.writer.offset();
                crate::wal::write_checkpoint_covering(
                    log.writer.disk_dir(),
                    &crate::wal::Checkpoint {
                        offset,
                        version: s.version,
                        next_tx,
                        state_hash: state_hash(&s.db),
                        root_hash: root_hash(&s.db),
                        alpha: alpha.clone(),
                        schema: self.schema.clone(),
                        db: (*s.db).clone(),
                        templates,
                    },
                    &log.cross_decisions,
                )?;
                // Retention: segments the fresh checkpoint fully covers are
                // dead weight — recovery will never read them again — and
                // so are the checkpoint files the new one supersedes.
                let mut segments_deleted = 0;
                let mut checkpoints_deleted = 0;
                if !log.writer.options().retain_segments {
                    let dir = log.writer.disk_dir();
                    segments_deleted = crate::wal::gc_segments_in(dir, offset)?.len();
                    checkpoints_deleted = crate::wal::gc_checkpoints_in(dir)?.len();
                }
                Ok(CheckpointGc {
                    offset,
                    segments_deleted,
                    checkpoints_deleted,
                })
            })
            .unwrap_or(Err(crate::wal::WalError::NotDurable))
    }
}

/// What [`VersionedStore::checkpoint_now`] did: the covered offset plus
/// the retention pass's deletions (for the server's GC counters).
#[derive(Clone, Copy, Debug)]
pub(crate) struct CheckpointGc {
    /// The log offset the checkpoint covers.
    pub(crate) offset: u64,
    /// WAL segments the retention pass deleted.
    pub(crate) segments_deleted: usize,
    /// Superseded checkpoint files the retention pass deleted.
    pub(crate) checkpoints_deleted: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Event;
    use vpdt_logic::Elem;

    fn store2() -> VersionedStore {
        let schema = Schema::new([("R0", 2), ("R1", 2)]);
        VersionedStore::new(Database::empty(schema))
    }

    fn with_edge(schema: &Schema, rel: &str, a: u64, b: u64) -> Database {
        let mut db = Database::empty(schema.clone());
        db.insert(rel, vec![Elem(a), Elem(b)]);
        db
    }

    #[test]
    fn disjoint_footprints_merge() {
        let store = store2();
        let schema = store.schema().clone();
        // both transactions ran against version 0
        let a = CommitRequest {
            tx: 1,
            based_on: 0,
            reads: BTreeSet::from(["R0".to_string()]),
            writes: BTreeSet::from(["R0".to_string()]),
            shape: 0,
            bindings: vec![],
            new_db: with_edge(&schema, "R0", 1, 2),
            encoded: None,
        };
        let b = CommitRequest {
            tx: 2,
            based_on: 0,
            reads: BTreeSet::from(["R1".to_string()]),
            writes: BTreeSet::from(["R1".to_string()]),
            shape: 1,
            bindings: vec![],
            new_db: with_edge(&schema, "R1", 7, 8),
            encoded: None,
        };
        assert!(matches!(
            store.try_commit(a),
            CommitOutcome::Committed {
                version: 1,
                wal_offset: None
            }
        ));
        let v1 = store.snapshot();
        // b is stale (based_on 0 < version 1) but its footprint is untouched
        assert!(matches!(
            store.try_commit(b),
            CommitOutcome::Committed {
                version: 2,
                wal_offset: None
            }
        ));
        let snap = store.snapshot();
        assert!(snap.db.contains("R0", &[Elem(1), Elem(2)]));
        assert!(snap.db.contains("R1", &[Elem(7), Elem(8)]));
        // the disjoint merge took the unwritten R0 from version 1 by
        // pointer swap, not by re-inserting its tuples
        assert!(snap.db.shares_rel(&v1.db, "R0"));
    }

    #[test]
    fn overlapping_footprints_conflict() {
        let store = store2();
        let schema = store.schema().clone();
        let mk = |tx, new_db| CommitRequest {
            tx,
            based_on: 0,
            reads: BTreeSet::from(["R0".to_string()]),
            writes: BTreeSet::from(["R0".to_string()]),
            shape: 0,
            bindings: vec![],
            new_db,
            encoded: None,
        };
        assert!(matches!(
            store.try_commit(mk(1, with_edge(&schema, "R0", 1, 2))),
            CommitOutcome::Committed { version: 1, .. }
        ));
        assert_eq!(
            store.try_commit(mk(2, with_edge(&schema, "R0", 3, 4))),
            CommitOutcome::Conflict { version: 1 }
        );
        // nothing changed on conflict
        assert_eq!(store.version(), 1);
        assert!(store.snapshot().db.contains("R0", &[Elem(1), Elem(2)]));
    }

    #[test]
    fn commit_events_are_gapless_and_ordered() {
        let store = store2();
        let schema = store.schema().clone();
        for i in 0..4u64 {
            let v = store.version();
            let req = CommitRequest {
                tx: i,
                based_on: v,
                reads: BTreeSet::from(["R0".to_string()]),
                writes: BTreeSet::from(["R0".to_string()]),
                shape: 0,
                bindings: vec![],
                new_db: with_edge(&schema, "R0", i, i + 1),
                encoded: None,
            };
            assert!(matches!(
                store.try_commit(req),
                CommitOutcome::Committed { .. }
            ));
        }
        let versions: Vec<u64> = store
            .history()
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Commit { version, .. } => Some(*version),
                _ => None,
            })
            .collect();
        assert_eq!(versions, vec![1, 2, 3, 4]);
    }
}

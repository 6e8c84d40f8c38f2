//! The history log: what the store did, in enough detail to re-verify it.
//!
//! Every pipeline step appends an [`Event`]. Commit events are appended
//! *inside* the store's commit critical section, so their order in the log
//! is the serialization order (and their `version`s are gapless); the other
//! events interleave freely. Each commit records a [root hash](root_hash)
//! of the post-state — an FNV-1a combine over per-relation content
//! commitments — which is what lets the audit detect a tampered or
//! reordered log without re-encoding the whole database on every commit.
//!
//! **Representation: an anchor plus a tail.** The guard is sound on any
//! state that satisfies `α` (Section 6), so serving never needs the past;
//! only the audit does, and it can start from any verified state
//! ([`audit_from`](crate::audit::audit_from)). A history is an *anchor* —
//! a version and the store's state there — plus a *tail*, the events
//! since; [`History::events`] returns the tail. In memory, the tail is its
//! events' write-ahead-log payloads ([`crate::wal::encode_event_into`]),
//! concatenated (they are self-delimiting: ~130 bytes a transaction,
//! against ~430 as `Event` values) in 256 KiB chunks; a full chunk is
//! sealed behind an `Arc`, so `events` copies at most one chunk under the
//! lock and decodes after it. **The anchor rule:** a commit at version `v`
//! that finds the tail at the log's default segment size (8 MiB) makes the
//! state it replaces — version `v − 1`, an `Arc` clone — the new anchor,
//! drops the tail and the root hashes below it, and opens the new tail.
//! So a tail starts with the commit at the anchor's version plus one, and
//! holds at most 8 MiB plus the events since the last commit (aborts alone
//! do not re-anchor). A persisted history keeps no tail in memory: its
//! log's segments are the tail, its floor checkpoint the anchor. Either
//! way, the root hashes of the commits above the anchor are indexed by
//! version, so [`History::commit_root`] never decodes.
//!
//! A history is made *durable* by attaching a write-ahead log (done by
//! [`StoreBuilder::persist`](crate::StoreBuilder::persist)): each event's
//! payload is then encoded straight into the log's staging buffer inside
//! the critical section that orders it, so the on-disk order equals (for
//! commits) the serialization order. That append is the **publish** phase
//! of the two-phase commit pipeline: `record` returns the record's log
//! offset and does **not** fsync — the **durable** phase (the fsync, and
//! only then the ticket resolution) belongs to the group-commit flusher,
//! which coalesces the fsyncs of all concurrently published commits into
//! one. A failed log write is fail-stop: a store that can no longer write
//! its log must not keep acknowledging, so `record` panics (poisoning the
//! store) rather than dropping events silently; a failed *flush* is
//! reported to every covered ticket as a typed
//! [`StoreError::Wal`](crate::StoreError::Wal) instead. A failed flush is
//! never retried: the segment latches the error, so the next write to it
//! fails too and the store stops at its next publish (see the [`wal`]
//! module docs).

use crate::wal::{self, DurableLog, RecoveryError};
use std::fmt::Display;
use std::sync::{Arc, Mutex, MutexGuard};
use vpdt_logic::Elem;
use vpdt_structure::Database;
use vpdt_tx::template::Template;

/// One entry in the history log.
///
/// `Begin` and `Commit` record the transaction's prepared-statement
/// provenance — the id of its canonicalized shape plus the binding vector —
/// so an audit can re-derive the ground program from the statement the
/// executor actually instantiated (and reject a log whose recorded
/// provenance does not match the submitted program).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A transaction entered the pipeline; `version` is the snapshot it
    /// first observed.
    Begin {
        /// Transaction id.
        tx: u64,
        /// Id of the client session that submitted it (sessions start
        /// at 1).
        session: u64,
        /// Snapshot version first observed.
        version: u64,
        /// Id of the canonicalized statement shape (see `GuardCache`).
        shape: u64,
        /// The constants bound to the shape's placeholders.
        bindings: Vec<Elem>,
    },
    /// The cached guard was evaluated against snapshot `version`.
    GuardEval {
        /// Transaction id.
        tx: u64,
        /// Snapshot version the guard ran against.
        version: u64,
        /// Whether the guard held.
        pass: bool,
    },
    /// The transaction committed, moving the store from `based_on`'s
    /// validated footprint to `version`.
    Commit {
        /// Transaction id.
        tx: u64,
        /// Snapshot version the guard and the application ran against.
        based_on: u64,
        /// The new store version (always the previous version + 1).
        version: u64,
        /// Relations the commit wrote.
        writes: Vec<String>,
        /// Id of the canonicalized statement shape.
        shape: u64,
        /// The constants bound to the shape's placeholders.
        bindings: Vec<Elem>,
        /// [Root hash](root_hash) of the committed state: the
        /// domain-separated combine over per-relation content commitments.
        root_hash: u64,
    },
    /// The transaction aborted (guard failed) at snapshot `version`.
    Abort {
        /// Transaction id.
        tx: u64,
        /// Snapshot version the failing guard ran against.
        version: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// A cross-shard transaction's commit on *this* shard: the shard-local
    /// delta of a two-phase commit whose global guard evaluation and
    /// decision live in the coordinator's decision log, referenced by
    /// `decision`. One atomic record — the decision reference and the
    /// commit are never split across frames, so a torn tail can never
    /// leave a shard half-knowing whether it applied a decision. Replays
    /// exactly like [`Event::Commit`] (the `(shape, bindings)` provenance
    /// reconstructs the shard-local delta program); the audit skips the
    /// guard-evidence pairing, which the decision log carries instead.
    Cross {
        /// Shard-local transaction id.
        tx: u64,
        /// Id of the decision record in the coordinator's decision log.
        decision: u64,
        /// Snapshot version the prepare held (and validated against).
        based_on: u64,
        /// The new store version (always the previous version + 1).
        version: u64,
        /// Relations the shard-local delta wrote.
        writes: Vec<String>,
        /// Id of the canonicalized shape of the shard-local delta program.
        shape: u64,
        /// The constants bound to the shape's placeholders.
        bindings: Vec<Elem>,
        /// [Root hash](root_hash) of the committed shard state.
        root_hash: u64,
    },
}

/// Bytes an open arena chunk holds before it is sealed. Small enough that
/// [`History::events`] copies at most this much under the lock, large
/// enough that a tail is a few dozen chunks. (The unit tests shrink it
/// and [`TAIL_BYTES`], so they cross many anchors quickly.)
const CHUNK_BYTES: usize = if cfg!(test) { 16 * 1024 } else { 256 * 1024 };
/// Room a fresh chunk reserves past [`CHUNK_BYTES`], so the event that
/// crosses the line does not reallocate it.
const CHUNK_SLACK: usize = 16 * 1024;
/// Tail bytes at which a commit re-anchors an in-memory history: the log's
/// default segment size (8 MiB; 64 KiB in the unit tests).
const TAIL_BYTES: usize = if cfg!(test) {
    64 * 1024
} else {
    wal::SEGMENT_BYTES as usize
};

#[derive(Debug, Default)]
struct Inner {
    /// Full chunks of an in-memory tail: concatenated event payloads,
    /// never written again, shared with [`History::events`] readers by
    /// reference count.
    sealed: Vec<Arc<Vec<u8>>>,
    /// Total length of the sealed chunks.
    sealed_bytes: usize,
    /// The chunk events are appended to. An event never straddles two
    /// chunks, so each chunk decodes on its own.
    open: Vec<u8>,
    /// Number of events in the in-memory tail.
    tail: usize,
    /// Number of events ever recorded, recovered ones included.
    count: usize,
    durable: Option<DurableLog>,
    /// The state at version `base` an in-memory tail starts from (a
    /// persisted history reads its floor checkpoint instead).
    anchor: Option<Arc<Database>>,
    base: u64,
    /// Commit root hashes by version: `roots[i]` is the root hash recorded
    /// at version `base + 1 + i`. Commit versions are gapless, so a flat
    /// vector indexes them O(1) — what lets a networked outcome carry its
    /// state commitment without scanning the event log per commit.
    roots: Vec<u64>,
}

impl Inner {
    /// Appends one event: `encode` writes its WAL payload into the open
    /// chunk, or into the attached log (returning the record's offset),
    /// and a commit's root hash is indexed. Panics if the log fails.
    fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Option<u64> {
        self.count += 1;
        let (offset, stamp) = match self.durable.as_mut() {
            Some(log) => {
                let (offset, stamp) = log
                    .append_event(encode)
                    .expect("write-ahead log append failed; refusing to continue non-durably");
                (Some(offset), stamp)
            }
            None => {
                let start = self.open.len();
                encode(&mut self.open);
                self.tail += 1;
                (None, wal::commit_stamp(&self.open[start..]))
            }
        };
        if self.open.len() >= CHUNK_BYTES {
            let full = std::mem::replace(
                &mut self.open,
                Vec::with_capacity(CHUNK_BYTES + CHUNK_SLACK),
            );
            self.sealed_bytes += full.len();
            self.sealed.push(Arc::new(full));
        }
        // Commit versions are assigned gaplessly under the exec lock, so
        // each new commit lands exactly one past the end of the index.
        if let Some((version, root)) = stamp {
            debug_assert_eq!(version, self.base + self.roots.len() as u64 + 1);
            self.roots.push(root);
        }
        offset
    }
}

/// An append-only, thread-safe event log, optionally backed by a
/// write-ahead log on disk (see the module docs for the representation,
/// the anchor rule, the ordering and the durability contract).
#[derive(Debug, Default)]
pub struct History {
    inner: Mutex<Inner>,
}

impl History {
    /// An empty log anchored at version 0, with no state.
    pub fn new() -> Self {
        History::default()
    }

    fn with(inner: Inner) -> Self {
        History {
            inner: Mutex::new(inner),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("history lock poisoned")
    }

    /// An empty in-memory tail anchored at `state`, the store at
    /// `version`, after `count` earlier events.
    pub(crate) fn anchored(version: u64, state: Arc<Database>, count: usize) -> Self {
        History::with(Inner {
            anchor: Some(state),
            base: version,
            count,
            ..Inner::default()
        })
    }

    /// A recovered store's history, before its log is attached: `events`
    /// are the log's from its floor checkpoint, at `base_version`, on.
    /// Only their number and their commits' root hashes are kept.
    pub(crate) fn resumed(base_version: u64, events: &[Event]) -> Self {
        let roots = events.iter().filter_map(|e| match e {
            Event::Commit { root_hash, .. } | Event::Cross { root_hash, .. } => Some(*root_hash),
            _ => None,
        });
        History::with(Inner {
            base: base_version,
            roots: roots.collect(),
            count: events.len(),
            ..Inner::default()
        })
    }

    /// Attaches a write-ahead log, before any event: every subsequent
    /// [`History::record`] appends to disk before it returns, and the log
    /// is the tail.
    pub(crate) fn attach_wal(&self, log: DurableLog) {
        let mut inner = self.lock();
        debug_assert!(inner.durable.is_none() && inner.tail == 0);
        inner.durable = Some(log);
        inner.anchor = None;
    }

    /// Runs `f` with exclusive access to the attached log, if any — the
    /// checkpoint path. While `f` runs no event can be recorded,
    /// so the log offset it observes is exact.
    pub(crate) fn with_wal<R>(&self, f: impl FnOnce(&mut DurableLog) -> R) -> Option<R> {
        self.lock().durable.as_mut().map(f)
    }

    /// Appends an event — durably first, when a log is attached. Returns
    /// the record's global log offset (`None` for in-memory histories):
    /// the handle the durable phase needs to know which fsync covers it.
    ///
    /// # Panics
    /// Panics if the attached log fails to append (fail-stop: see the
    /// module docs).
    pub fn record(&self, e: Event) -> Option<u64> {
        self.lock().append(|out| wal::encode_event_into(&e, out))
    }

    /// Appends an [`Event::Abort`] whose reason is formatted straight into
    /// the tail — the abort path never renders its reason to a `String`.
    pub(crate) fn record_abort(&self, tx: u64, version: u64, reason: &dyn Display) -> Option<u64> {
        self.lock()
            .append(|out| wal::encode_abort_into(tx, version, reason, out))
    }

    /// Appends a commit (or cross-shard commit) event given as its WAL
    /// payload, already encoded *outside* the commit critical section and
    /// patched with its version and root hash (see
    /// [`crate::wal::patch_commit_payload`]): the lock only copies the
    /// bytes into the tail. `replaced` is the state the commit replaces;
    /// a full in-memory tail re-anchors there (the module docs' anchor
    /// rule).
    ///
    /// # Panics
    /// Panics if the attached log fails to append (fail-stop: see the
    /// module docs).
    pub(crate) fn record_commit(&self, payload: &[u8], replaced: &Arc<Database>) -> Option<u64> {
        let (version, _) = wal::commit_stamp(payload).expect("not a commit payload");
        let mut inner = self.lock();
        if inner.durable.is_none() && inner.sealed_bytes + inner.open.len() >= TAIL_BYTES {
            debug_assert_eq!(inner.base + inner.roots.len() as u64 + 1, version);
            inner.sealed.clear();
            inner.sealed_bytes = 0;
            inner.open.clear();
            inner.tail = 0;
            inner.roots.clear();
            inner.base = version - 1;
            inner.anchor = Some(Arc::clone(replaced));
        }
        inner.append(|out| out.extend_from_slice(payload))
    }

    /// The [root hash](root_hash) the commit at `version` recorded — the
    /// per-relation state commitment of the post-state. `None` at or below
    /// the anchor (genesis has no commit event; older commits left the
    /// tail) and for versions not yet committed. O(1): commit versions are
    /// gapless, so the index is a flat vector.
    pub fn commit_root(&self, version: u64) -> Option<u64> {
        let inner = self.lock();
        let idx = version.checked_sub(inner.base + 1)?;
        inner.roots.get(idx as usize).copied()
    }

    /// The log offset just past the last commit record (0 without a log):
    /// once the log is durable through it, every commit recorded so far
    /// is.
    pub(crate) fn commit_offset(&self) -> u64 {
        self.lock().durable.as_ref().map_or(0, |log| log.committed)
    }

    /// Whether a write-ahead log is attached.
    pub fn is_durable(&self) -> bool {
        self.lock().durable.is_some()
    }

    /// Declares a statement shape ahead of its first durable use, so a cold
    /// recovery can resolve the `(shape, bindings)` provenance of every
    /// event that follows. A no-op without an attached log, or when the
    /// shape is already on disk.
    ///
    /// # Panics
    /// Panics if the attached log fails to append (fail-stop).
    pub(crate) fn declare_shape(&self, id: u64, template: &Template) {
        if let Some(log) = self.lock().durable.as_mut() {
            log.declare_shape(id, template)
                .expect("write-ahead log append failed; refusing to continue non-durably");
        }
    }

    /// The tail, decoded: every event since the anchor, in log order.
    ///
    /// # Panics
    /// Panics if a persisted history's log cannot be written or read back.
    pub fn events(&self) -> Vec<Event> {
        self.anchored_events().2
    }

    /// The anchor's version and state (a persisted history's floor
    /// checkpoint) and the tail: what [`audit_from`](crate::audit::audit_from)
    /// starts from. A persisted tail is read under the lock, staged records
    /// written first; an in-memory one is decoded after it.
    ///
    /// # Panics
    /// Panics if a persisted history's log cannot be written or read back.
    pub fn anchored_events(&self) -> (u64, Option<Arc<Database>>, Vec<Event>) {
        let (base, anchor, chunks, tail) = {
            let mut inner = self.lock();
            if let Some(log) = inner.durable.as_mut() {
                let read = log.writer.write_staged().map_err(RecoveryError::Wal);
                let (rec, _) = read
                    .and_then(|()| crate::replay::open(log.writer.dir(), true))
                    .expect("reading back the write-ahead log failed");
                return (rec.base_version, Some(Arc::new(rec.initial)), rec.events);
            }
            let mut chunks = inner.sealed.clone();
            chunks.push(Arc::new(inner.open.clone()));
            (inner.base, inner.anchor.clone(), chunks, inner.tail)
        };
        let mut out = Vec::with_capacity(tail);
        for chunk in &chunks {
            wal::decode_events(chunk, &mut out).expect("the history arena holds whole payloads");
        }
        (base, anchor, out)
    }

    /// Number of events recorded over the history's life, recovered ones
    /// included. O(1).
    pub fn len(&self) -> usize {
        self.lock().count
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the in-memory tail: the total length of its event payloads
    /// (what `store_history_bytes` reports). 0 on a persisted history.
    pub fn bytes(&self) -> usize {
        let inner = self.lock();
        inner.sealed_bytes + inner.open.len()
    }
}

/// FNV-1a over a byte string.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// A streaming FNV-1a hasher: fold bytes in as they are produced instead
/// of materializing the full input first. Implements [`std::fmt::Write`]
/// so any `Display`-style encoder can stream straight into it.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// The legacy full-state hash: FNV-1a of the stable encoding, streamed
/// through the hasher without allocating the encoding. Retained as the
/// checkpoint self-check (a checkpoint carries a materialized database, so
/// hashing its exact encoding guards against snapshot corruption) and as
/// the from-scratch oracle the incremental [`root_hash`] is tested against.
pub fn state_hash(db: &Database) -> u64 {
    let mut h = Fnv64::new();
    db.encode_to(&mut h)
        .expect("hashing an encoding cannot fail");
    h.finish()
}

/// Domain separator for the commit root hash. Bumped together with the WAL
/// format version whenever the combine below changes shape.
const ROOT_DOMAIN_SEP: &[u8] = b"vpdt-root-v2";

/// The root hash recorded by commits: a deterministic FNV-1a combine over
/// the per-relation content commitments that
/// [`Relation`](vpdt_structure::Relation) maintains incrementally, plus
/// the domain elements not implied by any tuple.
///
/// Per relation in schema order the combine folds in the name, a `0`
/// separator byte, and the arity, tuple count, and cached
/// [`content_hash`](vpdt_structure::Relation::content_hash) as
/// little-endian `u64`s; then the count and sorted values of
/// [`domain_excess`](Database::domain_excess). Every input the encoding
/// exposes is committed (names, arities, cardinalities, tuples, isolated
/// domain elements), so two databases with equal root hashes encode
/// identically modulo FNV collisions — but unlike [`state_hash`] the cost
/// is O(#relations), not O(#tuples), because the per-tuple work already
/// happened incrementally at mutation time.
pub fn root_hash(db: &Database) -> u64 {
    let mut h = Fnv64::new();
    h.update(ROOT_DOMAIN_SEP);
    for (name, _) in db.schema().iter() {
        let rel = db.rel(name);
        h.update(name.as_bytes());
        h.update(&[0u8]);
        h.update(&(rel.arity() as u64).to_le_bytes());
        h.update(&(rel.len() as u64).to_le_bytes());
        h.update(&rel.content_hash().to_le_bytes());
    }
    let excess = db.domain_excess();
    h.update(&(excess.len() as u64).to_le_bytes());
    for e in &excess {
        h.update(&e.0.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_preserves_order() {
        let h = History::new();
        h.record(Event::Begin {
            tx: 1,
            session: 1,
            version: 0,
            shape: 0,
            bindings: vec![vpdt_logic::Elem(3)],
        });
        h.record(Event::GuardEval {
            tx: 1,
            version: 0,
            pass: true,
        });
        assert_eq!(h.len(), 2);
        assert!(matches!(h.events()[0], Event::Begin { tx: 1, .. }));
    }

    /// Every variant, with the edge cases the codec must carry: empty and
    /// multi-relation write sets, empty bindings, a long non-ASCII abort
    /// reason, and `u64::MAX` in every id field.
    fn every_variant() -> Vec<Event> {
        use vpdt_logic::Elem;
        let max = u64::MAX;
        vec![
            Event::Begin {
                tx: max,
                session: max,
                version: max,
                shape: max,
                bindings: vec![Elem(0), Elem(max)],
            },
            Event::Begin {
                tx: 0,
                session: 1,
                version: 0,
                shape: 0,
                bindings: vec![],
            },
            Event::GuardEval {
                tx: max,
                version: max,
                pass: true,
            },
            Event::GuardEval {
                tx: 2,
                version: 0,
                pass: false,
            },
            Event::Abort {
                tx: max,
                version: max,
                reason: "Schutzbedingung verletzt — α ⊭ ∀x∃y E(x, y) ".repeat(400),
            },
            Event::Abort {
                tx: 3,
                version: 0,
                reason: String::new(),
            },
            Event::Commit {
                tx: max,
                based_on: max - 1,
                version: 1,
                writes: vec![],
                shape: max,
                bindings: vec![],
                root_hash: max,
            },
            Event::Commit {
                tx: 4,
                based_on: 1,
                version: 2,
                writes: vec!["R0".into(), "Relation ✓".into(), "S".into()],
                shape: 7,
                bindings: vec![Elem(5), Elem(max)],
                root_hash: 0xdead_beef,
            },
            Event::Cross {
                tx: max,
                decision: max,
                based_on: 2,
                version: 3,
                writes: vec!["E".into()],
                shape: max,
                bindings: vec![Elem(max)],
                root_hash: max,
            },
            Event::Cross {
                tx: 5,
                decision: 0,
                based_on: 3,
                version: 4,
                writes: vec![],
                shape: 0,
                bindings: vec![],
                root_hash: 1,
            },
        ]
    }

    fn root_of(e: &Event) -> Option<(u64, u64)> {
        match e {
            Event::Commit {
                version, root_hash, ..
            }
            | Event::Cross {
                version, root_hash, ..
            } => Some((*version, *root_hash)),
            _ => None,
        }
    }

    fn assert_holds(h: &History, events: &[Event]) {
        assert_eq!(h.events(), events);
        assert_eq!(h.len(), events.len());
        assert_eq!(
            h.bytes(),
            events
                .iter()
                .map(|e| wal::encode_event(e).len())
                .sum::<usize>()
        );
        for (version, root) in events.iter().filter_map(root_of) {
            assert_eq!(h.commit_root(version), Some(root), "root of v{version}");
        }
        assert_eq!(h.commit_root(0), None);
        assert_eq!(h.commit_root(5), None);
    }

    #[test]
    fn every_variant_round_trips_through_record() {
        let events = every_variant();
        let h = History::new();
        for e in &events {
            assert_eq!(h.record(e.clone()), None, "in-memory: no log offset");
        }
        assert_holds(&h, &events);
    }

    #[test]
    fn commits_round_trip_through_record_commit() {
        let events = every_variant();
        let h = History::new();
        for e in &events {
            match e {
                // A stub encoded before the lock, then patched under it —
                // the store's commit path.
                Event::Commit {
                    tx,
                    based_on,
                    version,
                    writes,
                    shape,
                    bindings,
                    root_hash,
                }
                | Event::Cross {
                    tx,
                    based_on,
                    version,
                    writes,
                    shape,
                    bindings,
                    root_hash,
                    ..
                } => {
                    let decision = match e {
                        Event::Cross { decision, .. } => Some(*decision),
                        _ => None,
                    };
                    let writes = writes.iter().cloned().collect();
                    let mut payload = wal::encode_commit_stub(
                        *tx, decision, *based_on, *shape, &writes, bindings,
                    );
                    wal::patch_commit_payload(&mut payload, *version, *root_hash);
                    h.record_commit(&payload, &Arc::new(Database::graph([])));
                }
                Event::Abort {
                    tx,
                    version,
                    reason,
                } => {
                    h.record_abort(*tx, *version, reason);
                }
                other => {
                    h.record(other.clone());
                }
            }
        }
        assert_holds(&h, &events);
        // The stub path writes exactly the bytes the direct encoding does.
        let direct = History::new();
        for e in &events {
            direct.record(e.clone());
        }
        assert_eq!(direct.bytes(), h.bytes());
    }

    #[test]
    fn events_survive_chunk_sealing_in_order() {
        let h = History::new();
        let mut expected = Vec::new();
        let mut version = 0;
        while h.bytes() < 3 * CHUNK_BYTES {
            for e in every_variant() {
                let e = match e {
                    Event::Commit {
                        tx,
                        based_on,
                        writes,
                        shape,
                        bindings,
                        root_hash,
                        ..
                    } => {
                        version += 1;
                        Event::Commit {
                            tx,
                            based_on,
                            version,
                            writes,
                            shape,
                            bindings,
                            root_hash: root_hash ^ version,
                        }
                    }
                    Event::Cross { .. } => continue,
                    e => e,
                };
                h.record(e.clone());
                expected.push(e);
            }
        }
        assert!(h.lock().sealed.len() >= 2, "the test must cross chunks");
        assert_eq!(h.events(), expected);
        assert_eq!(h.len(), expected.len());
        assert_eq!(h.commit_root(version), Some(0xdead_beef ^ version));
        assert_eq!(h.commit_root(1), Some(u64::MAX ^ 1));
    }

    /// Over ten times the bound, in-memory: the tail stays within the
    /// bound plus a chunk plus an event, every event is still counted,
    /// the tail is exactly the events since the last anchor and starts
    /// with the commit just above it, the anchor is the state the
    /// anchoring commit replaced, and the root index covers the tail only.
    #[test]
    fn the_tail_stays_bounded_across_anchors() {
        const BOUND: usize = TAIL_BYTES;
        let h = History::anchored(0, Arc::new(Database::graph([])), 0);
        let menu = every_variant();
        let largest = menu.iter().map(|e| wal::encode_event(e).len()).max();
        let (mut tail, mut count, mut recorded) = (Vec::new(), 0, 0);
        let (mut version, mut base, mut anchors) = (0, 0, 0);
        let mut anchor = Arc::new(Database::graph([]));
        while recorded < 10 * BOUND {
            for e in &menu {
                let e = match e.clone() {
                    Event::Commit {
                        writes, root_hash, ..
                    } => {
                        version += 1;
                        let replaced = Arc::new(Database::graph([(version, version)]));
                        if h.bytes() >= BOUND {
                            (tail, base, anchors) = (Vec::new(), version - 1, anchors + 1);
                            anchor = Arc::clone(&replaced);
                        }
                        let e = Event::Commit {
                            tx: version,
                            based_on: version - 1,
                            version,
                            writes,
                            shape: 0,
                            bindings: vec![],
                            root_hash: root_hash ^ version,
                        };
                        h.record_commit(&wal::encode_event(&e), &replaced);
                        e
                    }
                    Event::Cross { .. } => continue,
                    e => {
                        h.record(e.clone());
                        e
                    }
                };
                recorded += wal::encode_event(&e).len();
                count += 1;
                tail.push(e);
                assert!(h.bytes() <= BOUND + CHUNK_BYTES + largest.unwrap());
                assert_eq!(h.len(), count);
            }
        }
        assert!(anchors >= 5, "{anchors} anchors over ten bounds");
        let (at, state, events) = h.anchored_events();
        assert_eq!((at, &events), (base, &tail));
        assert!(
            Arc::ptr_eq(&state.unwrap(), &anchor),
            "the replaced state anchors"
        );
        assert!(matches!(events[0], Event::Commit { version, .. } if version == base + 1));
        for (version, root) in tail.iter().filter_map(root_of) {
            assert_eq!(h.commit_root(version), Some(root), "root of v{version}");
        }
        assert_eq!(h.commit_root(base), None);
        assert_eq!(h.commit_root(base - 1), None);
        assert_eq!(h.commit_root(version + 1), None);
    }

    /// A real one-worker run over several anchors. The commit that crosses
    /// the line always has its `Begin` and `GuardEval` before the anchor,
    /// and the tail still audits clean from the anchor; a tail with one
    /// commit dropped, or one root flipped, does not.
    #[test]
    fn a_tail_audits_from_its_anchor() {
        use crate::exec::{execute_one, WorkItem};
        use crate::{audit_from, workload, GuardCache, StoreMetrics, VersionedStore};
        let alpha = workload::sharded_fd_constraint(2);
        let omega = vpdt_eval::Omega::empty();
        let store = VersionedStore::new(workload::sharded_initial(3, 2, 40, 0.1));
        let cache = GuardCache::new(store.schema().clone(), alpha.clone(), omega.clone());
        let obs = StoreMetrics::new(0);
        let jobs = workload::sharded_jobs(3, 1, 4000, 2, 40);
        let mut programs = std::collections::BTreeMap::new();
        for (tx, program) in jobs.into_iter().enumerate() {
            let item = WorkItem {
                tx: tx as u64,
                session: 1,
                program: program.clone(),
                ticket: None,
                enqueued_at_ns: 0,
            };
            execute_one(&store, &cache, &item, &obs);
            programs.insert(item.tx, program);
            // Several anchors behind, and a few commits into a tail.
            if tx >= 2000 && store.version() >= store.history().lock().base + 3 {
                break;
            }
        }
        let (base, initial, events) = store.history().anchored_events();
        let initial = initial.expect("a store's history is anchored");
        assert!(base > 0 && store.history().bytes() <= TAIL_BYTES + CHUNK_BYTES);
        let Some(&Event::Commit { tx, .. }) = events.first() else {
            panic!("the tail starts with a commit: {:?}", events.first());
        };
        assert!(!events
            .iter()
            .any(|e| matches!(e, Event::Begin { tx: t, .. } if *t == tx)));
        let audit = |events: &[Event]| {
            let final_db = store.snapshot().db;
            let templates = cache.templates();
            audit_from(
                &alpha, &omega, base, &initial, &final_db, events, &programs, &templates,
            )
        };
        assert!(audit(&events).ok(), "{}", audit(&events));
        let commits: Vec<usize> = (0..events.len())
            .filter(|&i| matches!(events[i], Event::Commit { .. }))
            .collect();
        assert!(commits.len() > 2, "the tail holds several commits");
        let mut dropped = events.clone();
        dropped.remove(commits[1]);
        assert!(!audit(&dropped).ok(), "a dropped commit is reported");
        let mut flipped = events.clone();
        if let Event::Commit { root_hash, .. } = &mut flipped[commits[1]] {
            *root_hash ^= 1;
        }
        assert!(!audit(&flipped).ok(), "a flipped root is reported");
    }

    #[test]
    fn state_hash_distinguishes_states() {
        let a = Database::graph([(0, 1)]);
        let b = Database::graph([(1, 0)]);
        assert_ne!(state_hash(&a), state_hash(&b));
        assert_eq!(state_hash(&a), state_hash(&a.clone()));
        // streaming must agree with hashing the materialized encoding
        assert_eq!(state_hash(&a), fnv1a_64(a.encode().as_bytes()));
    }

    #[test]
    fn root_hash_commits_to_every_encoded_input() {
        use vpdt_logic::Elem;
        let a = Database::graph([(0, 1)]);
        let b = Database::graph([(1, 0)]);
        assert_ne!(root_hash(&a), root_hash(&b));
        assert_eq!(root_hash(&a), root_hash(&a.clone()));
        // isolated domain elements are part of the commitment
        let c = Database::graph_with_domain([7], [(0, 1)]);
        assert_ne!(root_hash(&a), root_hash(&c));
        // representation independence: materializing the domain view or
        // shrinking it back must not move the hash
        let mut d = a.clone();
        let _ = d.domain();
        assert_eq!(root_hash(&a), root_hash(&d));
        d.shrink_domain_to_active();
        assert_eq!(root_hash(&a), root_hash(&d));
        // a removal that pins an element in the domain moves the hash
        let mut e = a.clone();
        e.remove("E", &[Elem(0), Elem(1)]);
        assert_ne!(root_hash(&a), root_hash(&e));
        assert_ne!(root_hash(&Database::graph([])), root_hash(&e));
    }
}

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
//! A history can be made *durable* by attaching a write-ahead log
//! ([`History::attach_wal`], done by
//! [`StoreBuilder::persist`](crate::StoreBuilder::persist)): every event is
//! then appended to disk inside the same critical section that appends it
//! to memory, so the on-disk order equals the in-memory order equals (for
//! commits) the serialization order. That append is the **publish** phase
//! of the two-phase commit pipeline: `record` returns the record's log
//! offset and does **not** fsync — the **durable** phase (the fsync, and
//! only then the ticket resolution) belongs to the group-commit flusher
//! ([`crate::wal::GroupCommitFlusher`]), which coalesces the fsyncs of all
//! concurrently published commits into one. A failed log write is
//! fail-stop: a store that can no longer write its log must not keep
//! acknowledging, so `record` panics (poisoning the store) rather than
//! dropping events silently; a failed *flush* is reported to every covered
//! ticket as a typed [`StoreError::Wal`](crate::StoreError::Wal) instead.

use crate::wal::DurableLog;
use std::sync::Mutex;
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

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    durable: Option<DurableLog>,
    /// Commit root hashes by version: `roots[i]` is the root hash recorded
    /// at version `root_base + 1 + i`. Commit versions are gapless, so a
    /// flat vector indexes them O(1) — what lets a networked outcome carry
    /// its state commitment without scanning the event log per commit.
    roots: Vec<u64>,
    /// The version just before the first indexed root (non-zero on a
    /// server recovered from a retention-truncated log).
    root_base: u64,
}

impl Inner {
    /// Index a commit's root hash for O(1) lookup by version. Commit
    /// versions are assigned gaplessly under the exec lock, so each new
    /// commit lands exactly one past the end of the index.
    fn index_root(&mut self, e: &Event) {
        if let Event::Commit {
            version, root_hash, ..
        }
        | Event::Cross {
            version, root_hash, ..
        } = e
        {
            if self.roots.is_empty() {
                self.root_base = version - 1;
            }
            debug_assert_eq!(*version, self.root_base + self.roots.len() as u64 + 1);
            self.roots.push(*root_hash);
        }
    }
}

/// An append-only, thread-safe event log, optionally backed by a
/// write-ahead log on disk (see the module docs for the ordering and
/// durability contract).
#[derive(Debug, Default)]
pub struct History {
    inner: Mutex<Inner>,
}

impl History {
    /// An empty log.
    pub fn new() -> Self {
        History::default()
    }

    /// A log seeded with recovered events (the durable-recovery path: the
    /// resumed server's history continues where the on-disk log ends).
    pub(crate) fn with_events(events: Vec<Event>) -> Self {
        let mut inner = Inner::default();
        for e in &events {
            inner.index_root(e);
        }
        inner.events = events;
        History {
            inner: Mutex::new(inner),
        }
    }

    /// Attaches a write-ahead log: every subsequent [`History::record`]
    /// appends to disk before it returns.
    pub(crate) fn attach_wal(&self, log: DurableLog) {
        let mut inner = self.inner.lock().expect("history lock poisoned");
        debug_assert!(inner.durable.is_none(), "a history has at most one log");
        inner.durable = Some(log);
    }

    /// Runs `f` with exclusive access to the attached log, if any — the
    /// checkpoint path. While `f` runs no event can be recorded,
    /// so the log offset it observes is exact.
    pub(crate) fn with_wal<R>(&self, f: impl FnOnce(&mut DurableLog) -> R) -> Option<R> {
        let mut inner = self.inner.lock().expect("history lock poisoned");
        inner.durable.as_mut().map(f)
    }

    /// Appends an event — durably first, when a log is attached. Returns
    /// the record's global log offset (`None` for in-memory histories):
    /// the handle the durable phase needs to know which fsync covers it.
    ///
    /// # Panics
    /// Panics if the attached log fails to append (fail-stop: see the
    /// module docs).
    pub fn record(&self, e: Event) -> Option<u64> {
        let mut inner = self.inner.lock().expect("history lock poisoned");
        let offset = inner.durable.as_mut().map(|log| {
            log.append_event(&e)
                .expect("write-ahead log append failed; refusing to continue non-durably")
        });
        inner.index_root(&e);
        inner.events.push(e);
        offset
    }

    /// Appends a commit event whose WAL payload was already encoded
    /// *outside* the commit critical section. When a log is attached and
    /// `encoded` is present, the pre-built payload is framed and appended
    /// as-is — the lock never pays the encoding cost; the caller must have
    /// patched the payload's version and root-hash fields to match `e`
    /// (see [`crate::wal::patch_commit_payload`]). Falls back to
    /// [`History::record`] semantics otherwise.
    ///
    /// # Panics
    /// Panics if the attached log fails to append (fail-stop: see the
    /// module docs).
    pub fn record_commit(&self, e: Event, encoded: Option<Vec<u8>>) -> Option<u64> {
        debug_assert!(matches!(e, Event::Commit { .. } | Event::Cross { .. }));
        let mut inner = self.inner.lock().expect("history lock poisoned");
        let offset = inner.durable.as_mut().map(|log| {
            match &encoded {
                Some(payload) => log.append_commit_payload(payload),
                None => log.append_event(&e),
            }
            .expect("write-ahead log append failed; refusing to continue non-durably")
        });
        inner.index_root(&e);
        inner.events.push(e);
        offset
    }

    /// The [root hash](root_hash) the commit at `version` recorded — the
    /// per-relation state commitment of the post-state. `None` for version
    /// 0 (genesis has no commit event), for versions not yet committed,
    /// and for versions retired by segment retention on a recovered
    /// server. O(1): commit versions are gapless, so the index is a flat
    /// vector.
    pub fn commit_root(&self, version: u64) -> Option<u64> {
        let inner = self.inner.lock().expect("history lock poisoned");
        let idx = version.checked_sub(inner.root_base + 1)?;
        inner.roots.get(idx as usize).copied()
    }

    /// Whether a write-ahead log is attached — commits then benefit from
    /// pre-encoding their WAL payload before entering the critical section.
    pub fn is_durable(&self) -> bool {
        self.inner
            .lock()
            .expect("history lock poisoned")
            .durable
            .is_some()
    }

    /// Declares a statement shape ahead of its first durable use, so a cold
    /// recovery can resolve the `(shape, bindings)` provenance of every
    /// event that follows. A no-op without an attached log, or when the
    /// shape is already on disk.
    ///
    /// # Panics
    /// Panics if the attached log fails to append (fail-stop).
    pub(crate) fn declare_shape(&self, id: u64, template: &Template) {
        let mut inner = self.inner.lock().expect("history lock poisoned");
        if let Some(log) = inner.durable.as_mut() {
            log.declare_shape(id, template)
                .expect("write-ahead log append failed; refusing to continue non-durably");
        }
    }

    /// A point-in-time copy of the log.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("history lock poisoned")
            .events
            .clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("history lock poisoned")
            .events
            .len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

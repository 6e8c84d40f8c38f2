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
//! since; [`History::events`] returns the tail. In memory, the tail is one
//! buffer of its events' write-ahead-log payloads
//! ([`crate::wal::encode_event_into`]), concatenated (they are
//! self-delimiting: ~130 bytes a transaction, against ~430 as `Event`
//! values), allocated on the first append; `events` copies it under the
//! lock and decodes after it. **The anchor rule:** any append — an abort
//! as much as a commit — that finds the tail at [`TAIL_BYTES`] (512 KiB)
//! first re-anchors at the latest committed state (an `Arc` the store
//! holds anyway), so a commit at version `v` that crosses the line leaves
//! the anchor at `v − 1` and opens the new tail. A tail therefore holds at
//! most [`TAIL_BYTES`] plus one event. The finished tail goes to the
//! history's *sink*, if one is attached
//! ([`StoreBuilder::history_sink`](crate::StoreBuilder::history_sink)), as
//! a [`HistorySegment`]; without one, the buffer is cleared and reused.
//! The segments a sink received, followed by the final tail, are the
//! whole run from genesis. A missing segment that held a commit shows as
//! a gap in the commit versions, which the audit rejects; one that held
//! none (a run of aborts) leaves no gap, so a chain is also checked
//! against the count of events recorded
//! ([`ServerReport::whole_run`](crate::ServerReport::whole_run)). A persisted history keeps no tail in
//! memory and never re-anchors: its log's segments are the tail, its floor
//! checkpoint the anchor. Either way, the root hashes of recent commits
//! are indexed by version, so [`History::commit_root`] never decodes; an
//! in-memory index trims one re-anchor late, so it still covers the
//! previous tail.
//!
//! A history is made *durable* by attaching a write-ahead log (done by
//! [`StoreBuilder::persist`](crate::StoreBuilder::persist)): each event's
//! payload is then encoded straight into the log's staging buffer inside
//! the critical section that orders it, so the on-disk order equals (for
//! commits) the serialization order. That append is the **publish** phase
//! of the two-phase commit pipeline: `record` returns the record's log
//! offset and makes no system call — the **durable** phase (the write,
//! the fsync, and only then the ticket resolution) belongs to the
//! group-commit flusher, which writes and fsyncs the records of all
//! concurrently published transactions at once. A failed write or fsync
//! there is reported to every pending ticket, and every later one, as a
//! typed [`StoreError::Wal`](crate::StoreError::Wal), and is never retried:
//! the segment latches the error. A failed append on the publish path
//! (a rotation, or a write-through of a full staging buffer) is fail-stop
//! too: a store that can no longer write its log must not keep
//! acknowledging, so `record` panics (poisoning the store) rather than
//! dropping events silently (see the [`wal`] module docs).

use crate::disk::Handle;
use crate::wal::{self, DurableLog, RecoveryError};
use std::fmt::Display;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

/// Tail bytes at which an append re-anchors an in-memory history: the
/// bound on its one tail buffer (512 KiB; 64 KiB in the unit tests, so
/// they cross many anchors quickly).
pub const TAIL_BYTES: usize = if cfg!(test) { 64 * 1024 } else { 512 * 1024 };
/// Room the tail buffer reserves past [`TAIL_BYTES`], so the event that
/// crosses the line does not reallocate it.
const TAIL_SLACK: usize = 16 * 1024;

/// A finished in-memory tail, handed to the history's sink when an append
/// re-anchors past it (see the module docs): the events recorded after
/// the anchor at [`base_version`](Self::base_version), up to the next
/// anchor. Concatenating a run's segments in the order the sink received
/// them, then the final tail, gives every event since genesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistorySegment {
    base: u64,
    /// The events' payloads, concatenated as in the tail.
    payloads: Vec<u8>,
}

impl HistorySegment {
    /// The version of the anchor the segment's events follow.
    pub fn base_version(&self) -> u64 {
        self.base
    }

    /// Bytes the segment's events took in the tail.
    pub fn bytes(&self) -> usize {
        self.payloads.len()
    }

    /// The segment's events, decoded, in log order.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        wal::decode_events(&self.payloads, &mut out).expect("a segment holds whole payloads");
        out
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// The in-memory tail: its events' payloads, concatenated. Empty
    /// until the first append allocates it.
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
    /// The state at the in-memory tail's last commit (the anchor before
    /// one): where the next re-anchor lands.
    latest: Option<Arc<Database>>,
    /// Where finished in-memory tails go; without it, they are dropped.
    sink: Option<Sender<HistorySegment>>,
    /// Commit root hashes by version: `roots[i]` is the root hash recorded
    /// at version `roots_base + 1 + i`. Commit versions are gapless, so a
    /// flat vector indexes them O(1) — what lets a networked outcome carry
    /// its state commitment without scanning the event log per commit.
    /// `roots_base` is the anchor before `base`, so a late reader still
    /// finds the previous tail's roots.
    roots: Vec<u64>,
    roots_base: u64,
}

impl Inner {
    /// Appends one event: `encode` writes its WAL payload into the tail
    /// (re-anchoring first when the tail is full: the module docs' anchor
    /// rule), or into the attached log (returning the record's offset),
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
                if self.open.len() >= TAIL_BYTES {
                    self.reanchor();
                }
                if self.open.capacity() == 0 {
                    self.open.reserve_exact(TAIL_BYTES + TAIL_SLACK);
                }
                let start = self.open.len();
                encode(&mut self.open);
                self.tail += 1;
                (None, wal::commit_stamp(&self.open[start..]))
            }
        };
        // Commit versions are assigned gaplessly under the exec lock, so
        // each new commit lands exactly one past the end of the index.
        if let Some((version, root)) = stamp {
            debug_assert_eq!(version, self.roots_base + self.roots.len() as u64 + 1);
            self.roots.push(root);
        }
        offset
    }

    /// Makes the latest committed state the anchor and starts an empty
    /// tail, handing the finished one to the sink (or reusing its buffer),
    /// and trims the root index to the finished tail and the new one. The
    /// send never blocks: the channel is unbounded.
    fn reanchor(&mut self) {
        let version = self.roots_base + self.roots.len() as u64;
        match &self.sink {
            Some(sink) => {
                let payloads = std::mem::take(&mut self.open);
                // A dropped receiver only means nobody audits the run.
                let _ = sink.send(HistorySegment {
                    base: self.base,
                    payloads,
                });
            }
            None => self.open.clear(),
        }
        self.tail = 0;
        self.roots.drain(..(self.base - self.roots_base) as usize);
        self.roots_base = self.base;
        self.base = version;
        self.anchor = self.latest.clone();
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
            latest: Some(Arc::clone(&state)),
            anchor: Some(state),
            base: version,
            roots_base: version,
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
            roots_base: base_version,
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
        inner.latest = None;
    }

    /// Attaches the sink finished in-memory tails go to, before any event
    /// (see the module docs).
    pub(crate) fn attach_sink(&self, sink: Sender<HistorySegment>) {
        let mut inner = self.lock();
        debug_assert!(inner.durable.is_none() && inner.count == 0);
        inner.sink = Some(sink);
    }

    /// Runs `f` with exclusive access to the attached log, if any — the
    /// checkpoint path. While `f` runs no event can be recorded,
    /// so the log offset it observes is exact.
    pub(crate) fn with_wal<R>(&self, f: impl FnOnce(&mut DurableLog) -> R) -> Option<R> {
        self.lock().durable.as_mut().map(f)
    }

    /// The group-commit flusher's step, [`DurableLog::pull`], under the
    /// history lock. A lock poisoned by a failed append is pulled all the
    /// same, so the flusher still resolves its tickets: an append fails
    /// before it frames a record, so the log is whole, and a segment whose
    /// write or fsync failed fails every later one with the error it
    /// latched.
    pub(crate) fn pull_wal(&self) -> Result<(Arc<Handle>, u64), wal::WalError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let log = inner
            .durable
            .as_mut()
            .expect("the flusher serves a persisted history");
        log.pull()
    }

    /// Appends an event — durably first, when a log is attached. Returns
    /// the record's global log offset (`None` for in-memory histories):
    /// the handle the durable phase needs to know which fsync covers it.
    /// An in-memory history takes its commits through `record_commit`,
    /// with the state its next re-anchor lands on.
    ///
    /// # Panics
    /// Panics if the attached log fails to append (fail-stop: see the
    /// module docs).
    pub fn record(&self, e: Event) -> Option<u64> {
        let mut inner = self.lock();
        debug_assert!(
            inner.durable.is_some() || !matches!(e, Event::Commit { .. } | Event::Cross { .. }),
            "an in-memory commit comes with its state"
        );
        inner.append(|out| wal::encode_event_into(&e, out))
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
    /// bytes into the tail. `state` is the committed state, where an
    /// in-memory history's next re-anchor lands (the module docs' anchor
    /// rule).
    ///
    /// # Panics
    /// Panics if the attached log fails to append (fail-stop: see the
    /// module docs).
    pub(crate) fn record_commit(&self, payload: &[u8], state: &Arc<Database>) -> Option<u64> {
        let mut inner = self.lock();
        let offset = inner.append(|out| out.extend_from_slice(payload));
        if inner.durable.is_none() {
            inner.latest = Some(Arc::clone(state));
        }
        offset
    }

    /// The [root hash](root_hash) the commit at `version` recorded — the
    /// per-relation state commitment of the post-state. `None` for
    /// versions not yet committed and for those older than the tail
    /// before the current one (genesis has no commit event; an in-memory
    /// history drops a tail's roots one re-anchor after the tail itself).
    /// O(1): commit versions are gapless, so the index is a flat vector.
    pub fn commit_root(&self, version: u64) -> Option<u64> {
        let inner = self.lock();
        let idx = version.checked_sub(inner.roots_base + 1)?;
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
        let (base, anchor, open, tail) = {
            let mut inner = self.lock();
            if let Some(log) = inner.durable.as_mut() {
                let read = log.writer.write_staged().map_err(RecoveryError::Wal);
                let (rec, _) = read
                    .and_then(|()| crate::replay::open(log.writer.dir(), true))
                    .expect("reading back the write-ahead log failed");
                return (rec.base_version, Some(Arc::new(rec.initial)), rec.events);
            }
            (
                inner.base,
                inner.anchor.clone(),
                inner.open.clone(),
                inner.tail,
            )
        };
        let mut out = Vec::with_capacity(tail);
        wal::decode_events(&open, &mut out).expect("the tail holds whole payloads");
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
        self.lock().open.len()
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
/// Per relation in schema order (walked by position, with no name lookup)
/// the combine folds in the name, a `0`
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
    for (sym, rel) in db.schema().rels().iter().zip(db.relations()) {
        h.update(sym.name.as_bytes());
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
impl History {
    /// The anchor's version.
    fn base(&self) -> u64 {
        self.lock().base
    }
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

    /// Records `e` as the store would: a commit with a state, through
    /// `record_commit`, encoded whole.
    fn record_directly(h: &History, e: &Event) -> Option<u64> {
        match root_of(e) {
            Some(_) => h.record_commit(&wal::encode_event(e), &Arc::new(Database::graph([]))),
            None => h.record(e.clone()),
        }
    }

    #[test]
    fn every_variant_round_trips_through_record() {
        let events = every_variant();
        let h = History::new();
        for e in &events {
            assert_eq!(record_directly(&h, e), None, "in-memory: no log offset");
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
            record_directly(&direct, e);
        }
        assert_eq!(direct.bytes(), h.bytes());
    }

    /// Over ten times the bound, in-memory, with a sink: every append —
    /// aborts and guard events as much as commits — re-anchors on a full
    /// tail, so the tail stays within the bound plus an event; every event
    /// is counted; the tail is exactly the events since the last anchor,
    /// which is the state of the last commit before it; and the segments
    /// the sink received, then the tail, are every event in order, each
    /// segment based where the one before it ended.
    #[test]
    fn the_tail_stays_bounded_across_anchors() {
        let h = History::anchored(0, Arc::new(Database::graph([])), 0);
        let (sink, segments) = std::sync::mpsc::channel();
        h.attach_sink(sink);
        let menu = every_variant();
        let largest = menu.iter().map(|e| wal::encode_event(e).len()).max();
        let (mut all, mut tail, mut recorded) = (Vec::new(), Vec::new(), 0);
        let (mut version, mut base, mut bases) = (0, 0, vec![0]);
        let mut latest = Arc::new(Database::graph([]));
        let mut anchor = Arc::clone(&latest);
        while recorded < 10 * TAIL_BYTES {
            for e in &menu {
                if h.bytes() >= TAIL_BYTES {
                    (tail, base, anchor) = (Vec::new(), version, Arc::clone(&latest));
                    bases.push(base);
                }
                let e = match e.clone() {
                    Event::Commit {
                        writes, root_hash, ..
                    } => {
                        version += 1;
                        latest = Arc::new(Database::graph([(version, version)]));
                        let e = Event::Commit {
                            tx: version,
                            based_on: version - 1,
                            version,
                            writes,
                            shape: 0,
                            bindings: vec![],
                            root_hash: root_hash ^ version,
                        };
                        h.record_commit(&wal::encode_event(&e), &latest);
                        e
                    }
                    Event::Cross { .. } => continue,
                    e => {
                        h.record(e.clone());
                        e
                    }
                };
                recorded += wal::encode_event(&e).len();
                all.push(e.clone());
                tail.push(e);
                assert!(h.bytes() <= TAIL_BYTES + largest.unwrap());
                assert_eq!(h.len(), all.len());
            }
        }
        assert!(
            bases.len() > 5,
            "{} anchors over ten bounds",
            bases.len() - 1
        );
        let (at, state, events) = h.anchored_events();
        assert_eq!((at, &events), (base, &tail));
        assert!(
            Arc::ptr_eq(&state.unwrap(), &anchor),
            "the last commit's state anchors"
        );
        let segments: Vec<HistorySegment> = segments.try_iter().collect();
        let chained: Vec<u64> = segments.iter().map(|s| s.base_version()).collect();
        assert_eq!(chained, bases[..bases.len() - 1]);
        let mut whole: Vec<Event> = segments.iter().flat_map(|s| s.events()).collect();
        whole.extend(events);
        assert_eq!(whole, all);
        for (version, root) in tail.iter().filter_map(root_of) {
            assert_eq!(h.commit_root(version), Some(root), "root of v{version}");
        }
        assert_eq!(h.commit_root(version + 1), None);
    }

    /// A stream of aborts re-anchors without any commit: the anchor stays
    /// at the last committed state, and the tail stays bounded.
    #[test]
    fn aborts_alone_re_anchor() {
        let genesis = Arc::new(Database::graph([]));
        let h = History::anchored(0, Arc::clone(&genesis), 0);
        let (sink, segments) = std::sync::mpsc::channel();
        h.attach_sink(sink);
        let committed = Arc::new(Database::graph([(1, 1)]));
        let commit = Event::Commit {
            tx: 0,
            based_on: 0,
            version: 1,
            writes: vec!["E".into()],
            shape: 0,
            bindings: vec![],
            root_hash: 7,
        };
        h.record_commit(&wal::encode_event(&commit), &committed);
        // An abort payload takes more than 16 bytes: over four tails.
        for tx in 1..(4 * TAIL_BYTES / 16) as u64 {
            h.record_abort(tx, 1, &"the guard fails");
            assert!(h.bytes() <= TAIL_BYTES + 64);
        }
        assert!(segments.try_iter().count() >= 4);
        let (base, anchor, events) = h.anchored_events();
        assert_eq!(base, 1);
        assert!(Arc::ptr_eq(&anchor.unwrap(), &committed));
        assert!(events.iter().all(|e| matches!(e, Event::Abort { .. })));
    }

    /// The root index trims one re-anchor late: a version of the previous
    /// tail still answers after one re-anchor, and no longer after two.
    #[test]
    fn commit_roots_outlive_their_tail_by_one_anchor() {
        let state = Arc::new(Database::graph([]));
        let h = History::anchored(0, Arc::clone(&state), 0);
        let mut version = 0;
        let mut commit_until_anchor = || {
            let base = h.base();
            while h.base() == base {
                assert!(version < (TAIL_BYTES as u64), "no re-anchor");
                version += 1;
                let e = Event::Commit {
                    tx: version,
                    based_on: version - 1,
                    version,
                    writes: vec!["E".into()],
                    shape: 0,
                    bindings: vec![],
                    root_hash: version ^ 0xabc,
                };
                h.record_commit(&wal::encode_event(&e), &state);
            }
        };
        commit_until_anchor();
        let first = h.base();
        assert!(first > 1);
        for v in [1, first] {
            assert_eq!(h.commit_root(v), Some(v ^ 0xabc), "v{v}, previous tail");
        }
        commit_until_anchor();
        for v in [1, first] {
            assert_eq!(h.commit_root(v), None, "v{v}, two anchors back");
        }
        for v in [first + 1, h.base(), h.base() + 1] {
            assert_eq!(h.commit_root(v), Some(v ^ 0xabc), "v{v}");
        }
    }

    /// A real one-worker run over several anchors, with or without a sink:
    /// the store, its guard cache, its programs by transaction id.
    fn served_run(
        sink: Option<std::sync::mpsc::Sender<HistorySegment>>,
    ) -> (
        crate::VersionedStore,
        crate::GuardCache,
        std::collections::BTreeMap<u64, vpdt_tx::program::Program>,
        Database,
    ) {
        use crate::exec::{execute_one, WorkItem};
        use crate::{workload, GuardCache, StoreMetrics, VersionedStore};
        let alpha = workload::sharded_fd_constraint(2);
        let omega = vpdt_eval::Omega::empty();
        let initial = workload::sharded_initial(3, 2, 40, 0.1);
        let store = VersionedStore::new(initial.clone());
        if let Some(sink) = sink {
            store.history().attach_sink(sink);
        }
        let cache = GuardCache::new(store.schema().clone(), alpha, omega);
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
            if tx >= 2000 && store.version() >= store.history().base() + 3 {
                break;
            }
        }
        (store, cache, programs, initial)
    }

    /// A tail audits clean from its anchor; a tail with one commit
    /// dropped, or one root flipped, does not.
    #[test]
    fn a_tail_audits_from_its_anchor() {
        use crate::{audit_from, workload};
        let (store, cache, programs, _) = served_run(None);
        let (alpha, omega) = (
            workload::sharded_fd_constraint(2),
            vpdt_eval::Omega::empty(),
        );
        let (base, initial, events) = store.history().anchored_events();
        let initial = initial.expect("a store's history is anchored");
        assert!(base > 0 && store.history().bytes() <= TAIL_BYTES + TAIL_SLACK);
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

    /// With a sink, the segments plus the final tail audit clean from
    /// genesis; the chain fails with one segment dropped, and with one
    /// byte of a middle segment's commit root flipped.
    #[test]
    fn chained_segments_audit_from_genesis() {
        use crate::{audit, workload};
        let (sink, received) = std::sync::mpsc::channel();
        let (store, cache, programs, initial) = served_run(Some(sink));
        let (alpha, omega) = (
            workload::sharded_fd_constraint(2),
            vpdt_eval::Omega::empty(),
        );
        let segments: Vec<HistorySegment> = received.try_iter().collect();
        assert!(segments.len() >= 3, "{} segments", segments.len());
        let tail = store.history().events();
        let chained = |segments: &[HistorySegment]| {
            let mut events: Vec<Event> = segments.iter().flat_map(|s| s.events()).collect();
            events.extend(tail.iter().cloned());
            let final_db = store.snapshot().db;
            audit(
                &alpha,
                &omega,
                &initial,
                &final_db,
                &events,
                &programs,
                &cache.templates(),
            )
        };
        let whole = chained(&segments);
        assert!(whole.ok(), "{whole}");
        assert_eq!(whole.commits_checked as u64, store.version());

        let mut dropped = segments.clone();
        dropped.remove(1);
        assert!(!chained(&dropped).ok(), "a dropped segment is reported");

        let mut tampered = segments.clone();
        let middle = &mut tampered[1];
        let mut at = 0;
        for e in middle.events() {
            let len = wal::encode_event(&e).len();
            if let Event::Commit { root_hash, .. } = e {
                let payload = &middle.payloads[at..at + len];
                let needle = root_hash.to_le_bytes();
                let i = (0..len - 7)
                    .rfind(|&i| payload[i..i + 8] == needle)
                    .expect("the payload holds its root");
                middle.payloads[at + i] ^= 1;
                break;
            }
            at += len;
        }
        assert_ne!(tampered[1], segments[1]);
        assert!(!chained(&tampered).ok(), "a tampered segment is reported");
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

//! The write-ahead log: the history made durable, and recovery made an
//! audit.
//!
//! The store's history events already carry everything a verifier needs —
//! per-relation commitment [root hashes](crate::history::root_hash), gapless
//! commit versions, `(shape, bindings)` prepared-statement provenance. This module gives them a crash-safe home
//! so both the *state* and the *evidence* survive a kill:
//!
//! * **Records.** Every event (and every first-use statement-shape
//!   declaration) becomes one length-prefixed, checksummed record:
//!   `[u32 payload length][u64 FNV-1a of payload][payload]`. Payloads use
//!   the deterministic binary codec of `vpdt_tx::codec`; databases and
//!   schemas ride as their stable textual encodings (the same bytes
//!   [`state_hash`](crate::history::state_hash) hashes). No serde.
//! * **Segments.** Records append to `wal-NNNNNNNN.log` files that rotate
//!   at a size budget; each segment opens with a header record carrying the
//!   format version, its sequence number, and the global offset of its
//!   first record, so a scan can detect missing or reordered files.
//! * **Two-phase durability: publish, then durable.** Commit records are
//!   *appended* inside the store's commit critical section — the
//!   **publish** phase, which fixes the serialization order on disk — but
//!   the I/O happens in the **durable** phase: workers hand their tickets
//!   (with the record's log offset) to a dedicated `GroupCommitFlusher`,
//!   whose one rule is: write what is staged and fsync it, then resolve
//!   every ticket the fsync covers. A
//!   [`TxTicket`](crate::TxTicket) therefore resolves only once its commit
//!   record is on stable storage — the durability point of `wait` is
//!   unchanged — while the disk no longer serializes the workers: whatever
//!   publishes during one fsync is covered by the next. Cross-shard
//!   `Cross` records ride along: nothing waits for them, and the next
//!   fsync, rotation, checkpoint or shutdown makes them durable (their
//!   commit point is the coordinator's decision record).
//! * **Fail-stop, never retried.** Every file operation goes through the
//!   crate's storage seam (`disk.rs`). The first failed write or fsync of
//!   a segment latches: the flusher resolves every pending ticket, and
//!   every later one, with a typed error, and every later write or sync of
//!   that segment —
//!   rotation, [`StoreServer::checkpoint`](crate::StoreServer::checkpoint),
//!   the clean checkpoint at shutdown — fails with the same error instead
//!   of fsyncing again over pages the kernel may have dropped. A new
//!   segment's directory entry is fsync'd before any record lands in it,
//!   and a checkpoint becomes visible by rename plus directory fsync; a
//!   failed directory fsync is an error like any other.
//! * **One write per group.** Appending only *stages* a record in the
//!   writer's buffer; publishing makes no system call. The flusher writes
//!   everything staged — the records of every transaction published since
//!   its last write, aborts included — in one `write(2)` under the history
//!   lock, then fsyncs outside it. Every sync, rotation, checkpoint and
//!   drop writes what is staged first, and a buffer that reaches 64 KiB is
//!   written through at the next append — so a ticket still resolves only after
//!   the fsync that follows its record's write, and the bytes on disk and
//!   their order are unchanged.
//! * **Checkpoints.** A checkpoint file is one checksummed record holding
//!   the full database encoding, the guard cache's shape identities, the
//!   constraint, the log offset it covers, and the ids of the cross-shard
//!   decisions whose `Cross` records it covers (so retention may delete
//!   those records without the decisions looking unapplied). One is
//!   written at genesis (so recovery always has a floor), on demand
//!   ([`StoreServer::checkpoint`](crate::StoreServer::checkpoint)), and at
//!   clean shutdown.
//! * **Recovery is a cold audit.** [`recover`] (in
//!   [`replay`](crate::replay), re-exported here) loads a checkpoint and
//!   replays the log tail through the replay kernel: every replayed commit
//!   must re-derive from its recorded provenance, pass the deferred
//!   constraint check, and reproduce its recorded root hash. A torn tail
//!   (a record the crash cut short) is detected by checksum and cleanly
//!   discarded; a corrupt *interior* record is a hard, typed
//!   [`WalError::Corrupt`] — that log was tampered with or the disk is
//!   lying, and no prefix of it should be trusted silently.

use crate::disk::{self, Dir, Handle};
use crate::exec::TxOutcome;
use crate::history::{fnv1a_64, Event};
use crate::metrics::{names, StoreMetrics};
pub use crate::replay::{recover, Recovered, RecoveryError, RecoveryOptions};
use crate::session::TicketState;
use crate::StoreError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use vpdt_logic::{Elem, Formula, Schema};
use vpdt_obs::{Counter, TraceStage};
use vpdt_structure::Database;
use vpdt_tx::codec::{self, CodecError, Cursor};
use vpdt_tx::program::Program;
use vpdt_tx::template::Template;
use vpdt_tx::traits::TxError;

/// On-disk format version; bumped on any incompatible change. Version 2
/// redefined the commit hash: commit records (and checkpoint anchors) now
/// carry the per-relation commitment [root hash](crate::history::root_hash)
/// instead of the monolithic full-encoding hash, so version-1 artifacts are
/// rejected with a typed [`WalError::Version`] rather than silently
/// re-interpreted. Version 3 appended to every checkpoint the ids of the
/// cross-shard decisions whose `Cross` records it covers.
pub const FORMAT_VERSION: u32 = 3;

/// Bytes of record framing: `u32` length + `u64` checksum.
const FRAME_HEADER: usize = 12;

const TAG_BEGIN: u8 = 1;
const TAG_GUARD_EVAL: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_SHAPE: u8 = 5;
const TAG_SEGMENT: u8 = 6;
const TAG_CHECKPOINT: u8 = 7;
const TAG_CROSS: u8 = 8;
const TAG_DECISION: u8 = 9;

// --- errors ----------------------------------------------------------------

/// A typed write-ahead-log failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// An OS-level I/O failure.
    Io {
        /// The file or directory involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The directory holds no log (no `wal-*.log` segments).
    NoLog {
        /// The directory scanned.
        dir: String,
    },
    /// Refusing to create a fresh log where one already exists.
    AlreadyExists {
        /// The directory with the pre-existing log.
        dir: String,
    },
    /// The log was written by an incompatible format version.
    Version {
        /// Version found on disk.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// A record before the tail fails its checksum or does not decode — the
    /// hard case: the log is damaged where a crash cannot explain it.
    Corrupt {
        /// The segment file.
        segment: String,
        /// Byte offset of the bad record within the segment.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// The directory holds no readable checkpoint.
    NoCheckpoint {
        /// The directory scanned.
        dir: String,
    },
    /// A checkpoint file — or the decision log's applied-through
    /// watermark — fails its checksum or does not decode.
    BadCheckpoint {
        /// The checkpoint file.
        path: String,
        /// What was wrong.
        detail: String,
    },
    /// The operation needs an attached log, but the store is not persisted.
    NotDurable,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, message } => write!(f, "wal I/O on {path}: {message}"),
            WalError::NoLog { dir } => write!(f, "no write-ahead log in {dir}"),
            WalError::AlreadyExists { dir } => {
                write!(
                    f,
                    "{dir} already holds a write-ahead log; recover it instead"
                )
            }
            WalError::Version { found, expected } => write!(
                f,
                "log format version {found} is not the supported version {expected}"
            ),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "corrupt interior record in {segment} at byte {offset}: {detail}"
            ),
            WalError::NoCheckpoint { dir } => write!(f, "no checkpoint in {dir}"),
            WalError::BadCheckpoint { path, detail } => {
                write!(f, "bad checkpoint {path}: {detail}")
            }
            WalError::NotDurable => write!(f, "store has no write-ahead log attached"),
        }
    }
}

impl std::error::Error for WalError {}

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> WalError {
    WalError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

// --- record payloads -------------------------------------------------------

/// One logical record of the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A history event.
    Event(Event),
    /// First durable use of a statement shape: its id and template.
    Shape {
        /// The shape id history events reference.
        id: u64,
        /// The canonicalized template.
        template: Template,
    },
    /// A cross-shard commit decision — the atom of the two-phase commit.
    /// Lives in the coordinator's decision log (a separate WAL directory);
    /// its fsync is the cross-shard commit point: once durable, recovery
    /// rolls every branch forward; a prepare with no durable decision
    /// aborts (presumed abort).
    Decision(DecisionRecord),
}

/// One branch of a cross-shard decision: which shard applies what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionBranch {
    /// Index of the shard this branch belongs to.
    pub shard: u32,
    /// The shard-local transaction id reserved for the branch's commit.
    pub tx: u64,
    /// The shard snapshot version the prepare held (the branch commit's
    /// `based_on`).
    pub based_on: u64,
    /// The ground shard-local delta program: a sequence of constant
    /// inserts/deletes reconstructing exactly this shard's slice of the
    /// global post-state. Recovery replays it like any committed program;
    /// the shard's `Cross` event records its canonicalized
    /// `(shape, bindings)` provenance.
    pub program: Program,
}

/// A durable global commit decision for one cross-shard transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Globally unique decision id (what shard `Cross` events reference).
    pub id: u64,
    /// The coordinator-level transaction id (tracing/metrics only).
    pub tx: u64,
    /// Per-shard branches, one per touched shard, ascending by shard.
    pub branches: Vec<DecisionBranch>,
}

fn encode_decision_into(d: &DecisionRecord, out: &mut Vec<u8>) {
    out.push(TAG_DECISION);
    codec::put_u64(out, d.id);
    codec::put_u64(out, d.tx);
    codec::put_u32(out, d.branches.len() as u32);
    for b in &d.branches {
        codec::put_u32(out, b.shard);
        codec::put_u64(out, b.tx);
        codec::put_u64(out, b.based_on);
        codec::encode_program(&b.program, out);
    }
}

fn decode_decision(bytes: &[u8]) -> Result<DecisionRecord, String> {
    let mut c = Cursor::new(&bytes[1..]);
    let id = c.u64("decision id").map_err(|e| e.to_string())?;
    let tx = c.u64("decision tx").map_err(|e| e.to_string())?;
    let n = c.count("branch count").map_err(|e| e.to_string())?;
    let mut branches = Vec::with_capacity(n);
    for _ in 0..n {
        branches.push(DecisionBranch {
            shard: c.u32("shard index").map_err(|e| e.to_string())?,
            tx: c.u64("branch tx").map_err(|e| e.to_string())?,
            based_on: c.u64("branch based_on").map_err(|e| e.to_string())?,
            program: codec::decode_program(&mut c).map_err(|e| e.to_string())?,
        });
    }
    c.finish().map_err(|e| e.to_string())?;
    Ok(DecisionRecord { id, tx, branches })
}

/// Encodes an event payload (without record framing). Deterministic:
/// re-encoding a decoded event reproduces the bytes.
pub fn encode_event(e: &Event) -> Vec<u8> {
    let mut out = Vec::new();
    encode_event_into(e, &mut out);
    out
}

/// Appends an event payload to `out` — the in-place form of
/// [`encode_event`], which the in-memory history uses to grow its byte
/// arena without a buffer per event. Payloads are self-delimiting, so
/// concatenated payloads decode back one by one ([`decode_events`]).
pub fn encode_event_into(e: &Event, out: &mut Vec<u8>) {
    match e {
        Event::Begin {
            tx,
            session,
            version,
            shape,
            bindings,
        } => {
            out.push(TAG_BEGIN);
            codec::put_u64(out, *tx);
            codec::put_u64(out, *session);
            codec::put_u64(out, *version);
            codec::put_u64(out, *shape);
            put_bindings(out, bindings);
        }
        Event::GuardEval { tx, version, pass } => {
            out.push(TAG_GUARD_EVAL);
            codec::put_u64(out, *tx);
            codec::put_u64(out, *version);
            out.push(u8::from(*pass));
        }
        Event::Commit {
            tx,
            based_on,
            version,
            writes,
            shape,
            bindings,
            root_hash,
        } => {
            out.push(TAG_COMMIT);
            codec::put_u64(out, *tx);
            put_commit_body(
                out, *based_on, *version, *shape, *root_hash, writes, bindings,
            );
        }
        Event::Abort {
            tx,
            version,
            reason,
        } => encode_abort_into(*tx, *version, reason, out),
        Event::Cross {
            tx,
            decision,
            based_on,
            version,
            writes,
            shape,
            bindings,
            root_hash,
        } => {
            out.push(TAG_CROSS);
            codec::put_u64(out, *tx);
            codec::put_u64(out, *decision);
            put_commit_body(
                out, *based_on, *version, *shape, *root_hash, writes, bindings,
            );
        }
    }
}

/// The fields a `Commit` and a `Cross` payload share, after the ids:
/// `based_on`, `version`, `shape`, `root_hash`, the write set, the
/// bindings.
fn put_commit_body<S: AsRef<str>>(
    out: &mut Vec<u8>,
    based_on: u64,
    version: u64,
    shape: u64,
    root_hash: u64,
    writes: impl IntoIterator<Item = S, IntoIter: ExactSizeIterator>,
    bindings: &[Elem],
) {
    codec::put_u64(out, based_on);
    codec::put_u64(out, version);
    codec::put_u64(out, shape);
    codec::put_u64(out, root_hash);
    let writes = writes.into_iter();
    codec::put_u32(out, writes.len() as u32);
    for w in writes {
        codec::put_str(out, w.as_ref());
    }
    put_bindings(out, bindings);
}

/// Appends an `Abort` payload whose reason is formatted straight into
/// `out` — the store records an abort without first rendering its typed
/// reason into a `String`. Byte-identical to encoding
/// `Event::Abort { reason: reason.to_string(), .. }`.
pub(crate) fn encode_abort_into(
    tx: u64,
    version: u64,
    reason: &dyn fmt::Display,
    out: &mut Vec<u8>,
) {
    out.push(TAG_ABORT);
    codec::put_u64(out, tx);
    codec::put_u64(out, version);
    let len_at = out.len();
    codec::put_u32(out, 0);
    write!(out, "{reason}").expect("formatting into a Vec cannot fail");
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a commit payload — a `Cross` payload when `decision` is given —
/// with placeholder zeros for the two fields only the commit critical
/// section knows, `version` and `root_hash`; the store stamps them in
/// with [`patch_commit_payload`].
pub(crate) fn encode_commit_stub(
    tx: u64,
    decision: Option<u64>,
    based_on: u64,
    shape: u64,
    writes: &BTreeSet<String>,
    bindings: &[Elem],
) -> Vec<u8> {
    // Tag, three ids, version, shape, root hash, two counts; then the
    // variable parts.
    let fixed = 1 + 6 * 8 + 2 * 4;
    let mut out = Vec::with_capacity(
        fixed + writes.iter().map(|w| 4 + w.len()).sum::<usize>() + 8 * bindings.len(),
    );
    match decision {
        None => {
            out.push(TAG_COMMIT);
            codec::put_u64(&mut out, tx);
        }
        Some(decision) => {
            out.push(TAG_CROSS);
            codec::put_u64(&mut out, tx);
            codec::put_u64(&mut out, decision);
        }
    }
    put_commit_body(&mut out, based_on, 0, shape, 0, writes, bindings);
    out
}

/// Byte offset of the decision id inside a `Cross` payload: tag (1) + tx
/// (8).
const CROSS_DECISION_OFFSET: usize = 9;

/// Byte offset of the `version` field inside an encoded commit payload —
/// tag (1) + tx (8) + based_on (8), plus the decision id (8) of a
/// `Cross` payload. `root_hash` follows 16 bytes later (after `shape`).
/// `None` for every other payload.
fn commit_version_offset(payload: &[u8]) -> Option<usize> {
    match payload.first() {
        Some(&TAG_COMMIT) => Some(17),
        Some(&TAG_CROSS) => Some(25),
        _ => None,
    }
}

/// The `(version, root_hash)` a commit or cross-shard commit payload
/// records; `None` for every other payload (and for a truncated one).
pub(crate) fn commit_stamp(payload: &[u8]) -> Option<(u64, u64)> {
    let at = commit_version_offset(payload)?;
    let field = |at: usize| {
        payload
            .get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    };
    Some((field(at)?, field(at + 16)?))
}

/// Stamps the two commit-time fields — `version` and `root_hash` — into a
/// commit (or cross-shard commit) payload that was encoded *outside* the
/// commit critical section with placeholder zeros
/// ([`encode_commit_stub`]). Every other field of a commit record is
/// known before the store's write lock is taken; these two exist only
/// once the commit wins validation, so the lock patches 16 bytes instead
/// of encoding the whole record.
///
/// # Panics
/// Panics if `payload` is not a commit payload (wrong tag or too short) —
/// that is a caller bug, not an I/O condition.
pub(crate) fn patch_commit_payload(payload: &mut [u8], version: u64, root_hash: u64) {
    let at = commit_version_offset(payload).expect("patching a non-commit payload");
    payload[at..at + 8].copy_from_slice(&version.to_le_bytes());
    payload[at + 16..at + 24].copy_from_slice(&root_hash.to_le_bytes());
}

/// Decodes an event payload: the exact inverse of [`encode_event`].
pub fn decode_event(bytes: &[u8]) -> Result<Event, CodecError> {
    let mut c = Cursor::new(bytes);
    let e = decode_event_body(&mut c)?;
    c.finish()?;
    Ok(e)
}

/// Decodes a concatenation of event payloads (what
/// [`encode_event_into`] builds up) onto `out`, in order.
pub fn decode_events(bytes: &[u8], out: &mut Vec<Event>) -> Result<(), CodecError> {
    let mut c = Cursor::new(bytes);
    while !c.is_done() {
        out.push(decode_event_body(&mut c)?);
    }
    Ok(())
}

fn put_bindings(out: &mut Vec<u8>, bindings: &[Elem]) {
    codec::put_u32(out, bindings.len() as u32);
    for b in bindings {
        codec::put_u64(out, b.0);
    }
}

fn get_bindings(c: &mut Cursor<'_>) -> Result<Vec<Elem>, CodecError> {
    let n = c.count("binding vector")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Elem(c.u64("binding")?));
    }
    Ok(out)
}

fn decode_event_body(c: &mut Cursor<'_>) -> Result<Event, CodecError> {
    let at = c.pos();
    match c.u8("event tag")? {
        TAG_BEGIN => Ok(Event::Begin {
            tx: c.u64("tx id")?,
            session: c.u64("session id")?,
            version: c.u64("version")?,
            shape: c.u64("shape id")?,
            bindings: get_bindings(c)?,
        }),
        TAG_GUARD_EVAL => Ok(Event::GuardEval {
            tx: c.u64("tx id")?,
            version: c.u64("version")?,
            pass: c.u8("pass flag")? != 0,
        }),
        TAG_COMMIT => {
            let tx = c.u64("tx id")?;
            let based_on = c.u64("based_on")?;
            let version = c.u64("version")?;
            let shape = c.u64("shape id")?;
            let root_hash = c.u64("root hash")?;
            let n = c.count("write set")?;
            let mut writes = Vec::with_capacity(n);
            for _ in 0..n {
                writes.push(c.str("write relation")?);
            }
            Ok(Event::Commit {
                tx,
                based_on,
                version,
                writes,
                shape,
                bindings: get_bindings(c)?,
                root_hash,
            })
        }
        TAG_ABORT => Ok(Event::Abort {
            tx: c.u64("tx id")?,
            version: c.u64("version")?,
            reason: c.str("abort reason")?,
        }),
        TAG_CROSS => {
            let tx = c.u64("tx id")?;
            let decision = c.u64("decision id")?;
            let based_on = c.u64("based_on")?;
            let version = c.u64("version")?;
            let shape = c.u64("shape id")?;
            let root_hash = c.u64("root hash")?;
            let n = c.count("write set")?;
            let mut writes = Vec::with_capacity(n);
            for _ in 0..n {
                writes.push(c.str("write relation")?);
            }
            Ok(Event::Cross {
                tx,
                decision,
                based_on,
                version,
                writes,
                shape,
                bindings: get_bindings(c)?,
                root_hash,
            })
        }
        tag => Err(CodecError::BadTag {
            at,
            what: "event",
            tag,
        }),
    }
}

fn encode_record_into(r: &Record, out: &mut Vec<u8>) {
    match r {
        Record::Event(e) => encode_event_into(e, out),
        Record::Shape { id, template } => put_shape(out, *id, template),
        Record::Decision(d) => encode_decision_into(d, out),
    }
}

fn put_shape(out: &mut Vec<u8>, id: u64, template: &Template) {
    out.push(TAG_SHAPE);
    codec::put_u64(out, id);
    codec::encode_program(template.shape(), out);
}

/// Decodes a record payload (an event, a shape declaration, or a
/// cross-shard decision). Segment headers and checkpoints are handled by
/// their own readers.
fn decode_record(bytes: &[u8]) -> Result<Record, String> {
    if bytes.first() == Some(&TAG_SHAPE) {
        let mut c = Cursor::new(&bytes[1..]);
        let id = c.u64("shape id").map_err(|e| e.to_string())?;
        let shape = codec::decode_program(&mut c).map_err(|e| e.to_string())?;
        c.finish().map_err(|e| e.to_string())?;
        let template = Template::from_shape(shape).map_err(|e| e.to_string())?;
        Ok(Record::Shape { id, template })
    } else if bytes.first() == Some(&TAG_DECISION) {
        decode_decision(bytes).map(Record::Decision)
    } else {
        decode_event(bytes)
            .map(Record::Event)
            .map_err(|e| e.to_string())
    }
}

/// Appends `payload`, framed as `[u32 length][u64 FNV-1a][payload]`, to
/// `out`. The one framing routine of both the log and the wire
/// (`vpdt_net` re-exports it): a burst of records or responses is framed
/// back to back into one buffer and written with one call.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(FRAME_HEADER + payload.len());
    frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends the record whose payload `encode` writes, framed, to `out`:
/// the framing is reserved, the payload written after it in place, and
/// the framing filled in. Returns where the payload starts.
fn frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    encode(out);
    let start = at + FRAME_HEADER;
    let len = (out.len() - start) as u32;
    let sum = fnv1a_64(&out[start..]);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..start].copy_from_slice(&sum.to_le_bytes());
    start
}

// --- the writer ------------------------------------------------------------

/// The default [`WalOptions::segment_bytes`], 8 MiB.
pub(crate) const SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// Staged bytes at which the next append writes the staging buffer
/// through, flusher or not.
const STAGE_BYTES: usize = 64 * 1024;

/// Tunables of the durable log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Keep segments whose records are entirely covered by a checkpoint.
    /// `false` (the default) deletes them at checkpoint time — recovery
    /// and serving never read them again; the price is that a later cold
    /// audit replays from the oldest *surviving* checkpoint instead of
    /// genesis. Set `true` to retain the full history on disk.
    pub retain_segments: bool,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: SEGMENT_BYTES,
            retain_segments: false,
        }
    }
}

fn segment_name(seq: u64) -> String {
    format!("wal-{seq:08}.log")
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(segment_name(seq))
}

/// The append half of the log: owned by the server's
/// [`History`](crate::History) while it runs, handed back at shutdown to
/// write the clean checkpoint.
#[derive(Debug)]
pub struct WalWriter {
    dir: Dir,
    opts: WalOptions,
    /// The current segment, shared with the group-commit flusher: writes
    /// go through the writer (under the history lock), fsyncs go through a
    /// clone of this handle (outside it), so an fsync never blocks a
    /// publish.
    file: Arc<Handle>,
    seg_seq: u64,
    /// Bytes of the current segment, staged records included.
    seg_len: u64,
    next_offset: u64,
    /// Framed records appended but not yet written to the segment. They
    /// reach the file in one `write(2)` at the flusher's next pull
    /// ([`DurableLog::pull`]), [`sync`](WalWriter::sync), rotation or
    /// drop, and at the next append once they reach [`STAGE_BYTES`] — so
    /// it holds the records published since the flusher's last write, and
    /// a stream of aborts that never wakes the flusher stays bounded.
    staged: Vec<u8>,
    /// Counts segment writes of staged bytes (`store_wal_writes_total`)
    /// when the writer serves a store.
    writes: Option<Counter>,
}

impl WalWriter {
    /// Creates a fresh log in `dir` (creating the directory if needed).
    /// Refuses a directory that already holds *any* log artifact —
    /// segments **or** checkpoints: stale checkpoint files next to a fresh
    /// log would poison a later recovery, so the mixed state is rejected
    /// here, where it is cheap to explain. Recover existing logs instead
    /// of shadowing them.
    pub fn create(dir: impl Into<PathBuf>, opts: WalOptions) -> Result<Self, WalError> {
        Self::create_in(Dir::std(dir), opts)
    }

    /// [`create`](Self::create) in `dir` on its disk.
    pub(crate) fn create_in(dir: Dir, opts: WalOptions) -> Result<Self, WalError> {
        dir.create()?;
        let names = dir.list()?;
        if !disk::numbered(&names, "wal-", ".log").is_empty()
            || !disk::numbered(&names, "checkpoint-", ".ckpt").is_empty()
        {
            return Err(WalError::AlreadyExists {
                dir: dir.path().display().to_string(),
            });
        }
        let (file, seg_len) = open_segment(&dir, 0, 0)?;
        Ok(WalWriter {
            dir,
            opts,
            file: Arc::new(file),
            seg_seq: 0,
            seg_len,
            next_offset: 0,
            staged: Vec::new(),
            writes: None,
        })
    }

    /// Reopens an existing log for appending: scans it, truncates any torn
    /// tail, and positions after the last valid record. Returns the writer
    /// plus the ids of the shapes already declared on disk (so the resumed
    /// server does not re-log them).
    pub fn resume(
        dir: impl Into<PathBuf>,
        opts: WalOptions,
    ) -> Result<(Self, BTreeSet<u64>), WalError> {
        Self::resume_in(Dir::std(dir), opts)
    }

    /// [`resume`](Self::resume) in `dir` on its disk.
    pub(crate) fn resume_in(dir: Dir, opts: WalOptions) -> Result<(Self, BTreeSet<u64>), WalError> {
        let scan = scan_log(dir.path())?;
        // Physically drop the torn tail so new records append cleanly after
        // the last valid one.
        let file = dir.open_file(&segment_name(scan.last_seg_seq), scan.last_seg_valid_len)?;
        // A crash between segment creation and its header write leaves a
        // last segment with no valid header (valid length 0). Rewrite the
        // header before appending — otherwise the appended records would
        // start a header-less segment no later scan could read.
        let next_offset = scan.base_offset + scan.records.len() as u64;
        let seg_len = if scan.last_seg_valid_len == 0 {
            write_segment_header(&file, scan.last_seg_seq, next_offset)?
        } else {
            scan.last_seg_valid_len
        };
        file.sync()?;
        let shapes = scan
            .records
            .iter()
            .filter_map(|r| match &r.record {
                Record::Shape { id, .. } => Some(*id),
                Record::Event(_) | Record::Decision(_) => None,
            })
            .collect();
        Ok((
            WalWriter {
                dir,
                opts,
                file: Arc::new(file),
                seg_seq: scan.last_seg_seq,
                seg_len,
                next_offset,
                staged: Vec::new(),
                writes: None,
            },
            shapes,
        ))
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        self.dir.path()
    }

    /// The log directory on its disk.
    pub(crate) fn disk_dir(&self) -> &Dir {
        &self.dir
    }

    /// Global index of the next record to be appended — equivalently, how
    /// many records the log has ever held (records deleted by segment
    /// retention still count; offsets are never reused).
    pub fn offset(&self) -> u64 {
        self.next_offset
    }

    /// The options the log was opened with.
    pub fn options(&self) -> &WalOptions {
        &self.opts
    }

    /// Appends one record, rotating segments at the size budget, and
    /// writes it (with anything staged before it) to the segment before
    /// returning — a reader scanning the directory sees it at once.
    /// Returns the record's global offset. Does not fsync.
    pub fn append(&mut self, record: &Record) -> Result<u64, WalError> {
        let (offset, _) = self.append_with(|out| encode_record_into(record, out))?;
        self.write_staged()?;
        Ok(offset)
    }

    /// Stages one record whose payload `encode` writes straight into the
    /// staging buffer, framed — the hot path, which runs inside the commit
    /// critical section: the payload is written once, where it will be
    /// written to the segment from. [`write_staged`](Self::write_staged)
    /// puts it on the segment; a buffer already at [`STAGE_BYTES`] is
    /// written first. Returns the record's global offset and its payload.
    pub(crate) fn append_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(u64, &[u8]), WalError> {
        if self.seg_len >= self.opts.segment_bytes {
            self.rotate()?;
        } else if self.staged.len() >= STAGE_BYTES {
            self.write_staged()?;
        }
        let before = self.staged.len();
        let start = frame_with(&mut self.staged, encode);
        self.seg_len += (self.staged.len() - before) as u64;
        let offset = self.next_offset;
        self.next_offset += 1;
        Ok((offset, &self.staged[start..]))
    }

    /// Writes every staged record to the current segment in one
    /// `write(2)`. The buffer is emptied even when the write fails: a
    /// failed append is fail-stop, and re-writing a partly written burst
    /// later would only damage the log further.
    pub(crate) fn write_staged(&mut self) -> Result<(), WalError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let written = self.file.write(&self.staged);
        self.staged.clear();
        if let Some(writes) = &self.writes {
            writes.inc();
        }
        written
    }

    /// Writes the staged records, then flushes everything appended to
    /// stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.write_staged()?;
        self.file.sync()
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        // The old segment is fully fsync'd before any record lands in the
        // new one — the flusher only ever needs to sync the *current*
        // segment to make every appended record durable.
        self.sync()?;
        self.seg_seq += 1;
        let (file, seg_len) = open_segment(&self.dir, self.seg_seq, self.next_offset)?;
        self.file = Arc::new(file);
        self.seg_len = seg_len;
        Ok(())
    }
}

/// A writer dropped with staged records (say, a server dropped without
/// shutdown after aborts the flusher never wrote) still writes them, so
/// every record it accepted reaches the file. Best effort — no fsync.
impl Drop for WalWriter {
    fn drop(&mut self) {
        let _ = self.write_staged();
    }
}

/// Writes a segment header record to `file`; returns its length.
fn write_segment_header(file: &Handle, seq: u64, base_offset: u64) -> Result<u64, WalError> {
    let mut framed = Vec::new();
    frame_with(&mut framed, |payload| {
        payload.push(TAG_SEGMENT);
        codec::put_u32(payload, FORMAT_VERSION);
        codec::put_u64(payload, seq);
        codec::put_u64(payload, base_offset);
    });
    file.write(&framed)?;
    Ok(framed.len() as u64)
}

/// Creates segment `seq` and writes its header record. The file data and
/// the directory entry are fsync'd before any record lands in the segment
/// — a commit record fsync'd into a file whose directory entry is not
/// durable would not survive power loss.
fn open_segment(dir: &Dir, seq: u64, base_offset: u64) -> Result<(Handle, u64), WalError> {
    let file = dir.create_file(&segment_name(seq))?;
    let len = write_segment_header(&file, seq, base_offset)?;
    file.sync()?;
    dir.sync()?;
    Ok((file, len))
}

/// The durable attachment a persisted [`History`](crate::History) carries:
/// the writer plus the bookkeeping of which shapes are already declared on
/// disk, which cross-shard decisions the log has applied, and how far the
/// commits reach.
#[derive(Debug)]
pub(crate) struct DurableLog {
    pub(crate) writer: WalWriter,
    logged_shapes: BTreeSet<u64>,
    /// Ids of the decisions whose `Cross` records this log holds (or held
    /// before retention): what the next checkpoint records as covered.
    pub(crate) cross_decisions: BTreeSet<u64>,
    /// The log offset just past the last commit record: what the durable
    /// phase must reach before a state that includes that commit is
    /// durable — the watermark the flusher reads at each [`pull`](Self::pull).
    pub(crate) committed: u64,
}

impl DurableLog {
    pub(crate) fn new(
        mut writer: WalWriter,
        logged_shapes: BTreeSet<u64>,
        cross_decisions: BTreeSet<u64>,
        writes: Counter,
    ) -> Self {
        writer.writes = Some(writes);
        DurableLog {
            writer,
            logged_shapes,
            cross_decisions,
            committed: 0,
        }
    }

    /// Stages the event payload `encode` writes and returns its global
    /// offset, plus the `(version, root_hash)` of a commit — the
    /// **publish** half of durability: this runs inside the commit
    /// critical section and makes no system call there (short of a
    /// rotation or a full staging buffer). The payload is encoded straight
    /// into the writer's staging buffer, so nothing is encoded or copied
    /// twice, and the flusher's next [`pull`](Self::pull) writes it. A
    /// commit record advances the commit watermark; a cross-shard commit
    /// records its decision id as applied.
    pub(crate) fn append_event(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(u64, Option<(u64, u64)>), WalError> {
        let (offset, payload) = self.writer.append_with(encode)?;
        let (tag, stamp) = (payload.first().copied(), commit_stamp(payload));
        let decision = payload
            .get(CROSS_DECISION_OFFSET..CROSS_DECISION_OFFSET + 8)
            .filter(|_| tag == Some(TAG_CROSS))
            .map(|id| u64::from_le_bytes(id.try_into().expect("8 bytes")));
        self.cross_decisions.extend(decision);
        if tag == Some(TAG_COMMIT) {
            self.committed = self.writer.offset();
        }
        Ok((offset, stamp))
    }

    /// The flusher's step under the history lock: writes everything
    /// staged in one `write(2)`, and returns the current segment and the
    /// commit watermark. Fsyncing that segment makes every commit below
    /// the watermark durable — earlier segments were synced at rotation.
    pub(crate) fn pull(&mut self) -> Result<(Arc<Handle>, u64), WalError> {
        self.writer.write_staged()?;
        Ok((Arc::clone(&self.writer.file), self.committed))
    }

    /// Logs a shape declaration the first time the shape is used durably.
    pub(crate) fn declare_shape(&mut self, id: u64, template: &Template) -> Result<(), WalError> {
        if self.logged_shapes.insert(id) {
            self.writer
                .append_with(|out| put_shape(out, id, template))?;
        }
        Ok(())
    }
}

// --- the group-commit flusher ----------------------------------------------

/// Counters of the durable phase — what group commit actually bought.
///
/// Since the metrics unification this is a *view*: the counters live on
/// the server's [`MetricsRegistry`](vpdt_obs::MetricsRegistry) (names
/// `store_wal_*`), and `GroupCommitFlusher` reconstructs this struct
/// from them on demand. Values are lifetime totals for the owning server.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Fsyncs issued by the flusher.
    pub fsyncs: u64,
    /// Commit tickets resolved durable (across all fsyncs).
    pub flushed_commits: u64,
    /// Flushes that failed (fail-stop: at most 1, after which every
    /// covered and subsequent ticket resolves with a typed error).
    pub flush_failures: u64,
    /// How many batches resolved exactly `k` tickets, by `k` — the
    /// batch-size histogram. `flushed_commits / fsyncs` is the mean.
    pub batch_sizes: BTreeMap<usize, u64>,
}

/// One published commit awaiting its covering fsync.
pub(crate) struct PendingAck {
    /// The commit record's global log offset.
    pub(crate) offset: u64,
    /// The version the publish phase produced.
    pub(crate) version: u64,
    /// The ticket to resolve durable.
    pub(crate) ticket: Arc<TicketState>,
    /// The transaction id, for trace events.
    pub(crate) tx: u64,
    /// When the transaction entered the submission queue (registry ns) —
    /// end-to-end latency is observed at durable resolution.
    pub(crate) enqueued_at_ns: u64,
    /// When the publish phase completed (registry ns) — the
    /// publish→durable stage latency starts here.
    pub(crate) published_at_ns: u64,
}

struct FlushInner {
    pending: Vec<PendingAck>,
    closed: bool,
    /// Whether the flusher thread is parked in [`GroupCommitFlusher::run`]'s
    /// condvar wait and not yet signalled: an enqueue signals only then,
    /// and clears it, so the enqueues that follow before the flusher runs
    /// make no syscall.
    parked: bool,
    /// Every commit below this offset is on stable storage.
    durable: u64,
    /// The largest offset a [`wait_durable`](GroupCommitFlusher::wait_durable)
    /// caller needs durable.
    wanted: u64,
    /// Fail-stop state: the error every covered and subsequent ticket
    /// resolves with.
    failed: Option<WalError>,
}

/// The shared group-commit flusher: workers enqueue published commits
/// (ticket + log offset), a dedicated thread writes everything staged,
/// fsyncs once for it, and resolves every covered ticket — the
/// **durable** phase of the commit pipeline, which owns the log's I/O.
/// Owned by the
/// [`StoreServer`](crate::StoreServer), which spawns the thread at build
/// and drains it on shutdown *and* drop, so no acknowledged-or-pending
/// commit is lost even on the crash-shaped exit.
#[derive(Debug)]
pub(crate) struct GroupCommitFlusher {
    inner: Mutex<FlushInner>,
    ready: Condvar,
    /// The server's metric handles: fsync/flush counters, the
    /// publish→durable and end-to-end histograms, and the trace ring.
    obs: StoreMetrics,
}

impl std::fmt::Debug for FlushInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlushInner")
            .field("pending", &self.pending.len())
            .field("parked", &self.parked)
            .field("durable", &self.durable)
            .field("closed", &self.closed)
            .field("failed", &self.failed)
            .finish()
    }
}

impl GroupCommitFlusher {
    pub(crate) fn new(obs: StoreMetrics) -> Self {
        GroupCommitFlusher {
            inner: Mutex::new(FlushInner {
                pending: Vec::new(),
                closed: false,
                parked: false,
                durable: 0,
                wanted: 0,
                failed: None,
            }),
            ready: Condvar::new(),
            obs,
        }
    }

    /// Resolve one ack durable: observe the publish→durable and
    /// end-to-end stage latencies, trace the `durable` event, then
    /// resolve the ticket. Callers invoke this *after* dropping
    /// the flusher's batch lock — resolution may fire a completion
    /// registered with [`TxTicket::on_resolve`](crate::TxTicket::on_resolve)
    /// on this thread, and that callback must never run under the lock
    /// that gates the next fsync batch.
    fn resolve_durable(&self, ack: PendingAck) {
        let now = self.obs.now_ns();
        self.obs
            .publish_to_durable
            .observe(now.saturating_sub(ack.published_at_ns) / 1_000);
        self.obs
            .tx_total
            .observe(now.saturating_sub(ack.enqueued_at_ns) / 1_000);
        self.obs.trace(
            ack.tx,
            TraceStage::Durable {
                version: ack.version,
            },
        );
        ack.ticket.resolve(TxOutcome::Committed {
            version: ack.version,
        });
    }

    /// Resolve one ack failed (flush error, fail-stop): trace the
    /// `failed` event and resolve the ticket.
    fn resolve_failed(&self, ack: PendingAck, error: &StoreError) {
        self.obs.trace_with(ack.tx, || TraceStage::Failed {
            reason: error.code().to_string(),
        });
        ack.ticket.resolve(TxOutcome::Failed {
            error: error.clone(),
        });
    }

    /// Hands a published commit to the durable phase — the publish path's
    /// one visit to the flush lock, which is only ever held for
    /// bookkeeping, never across I/O. If a covering fsync already happened
    /// (the flusher raced ahead), the ticket resolves on the spot; after a
    /// flush failure, it resolves with the typed error (fail-stop: the log
    /// can no longer promise durability). The flusher is signalled only
    /// when it is parked and not yet signalled: a notify is a futex
    /// syscall even with nobody waiting, and a busy or already woken
    /// flusher finds the ack when it next looks.
    pub(crate) fn enqueue(&self, ack: PendingAck) {
        let mut g = self.inner.lock().expect("flusher lock poisoned");
        if let Some(err) = &g.failed {
            let error = StoreError::Wal(err.clone());
            drop(g);
            self.resolve_failed(ack, &error);
            return;
        }
        if ack.offset < g.durable {
            drop(g);
            self.obs.wal_flushed_commits.inc();
            self.resolve_durable(ack);
            return;
        }
        g.pending.push(ack);
        let parked = std::mem::take(&mut g.parked);
        drop(g);
        if parked {
            self.ready.notify_all();
        }
    }

    /// Closes the flusher: the run loop drains what is pending (one final
    /// fsync) and exits. Idempotent.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("flusher lock poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Point-in-time counters, reconstructed from the metrics registry
    /// (the exact per-size batch counts come back from the labeled
    /// `store_wal_flush_batches_total{size="k"}` series).
    pub(crate) fn stats(&self) -> FlushStats {
        let snap = self.obs.registry.snapshot();
        let prefix = format!("{}{{size=\"", names::WAL_FLUSH_BATCHES);
        let mut batch_sizes = BTreeMap::new();
        for (name, v) in &snap.counters {
            if let Some(k) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix("\"}"))
                .and_then(|k| k.parse::<usize>().ok())
            {
                batch_sizes.insert(k, *v);
            }
        }
        FlushStats {
            fsyncs: snap.counter(names::WAL_FSYNCS),
            flushed_commits: snap.counter(names::WAL_FLUSHED_COMMITS),
            flush_failures: snap.counter(names::WAL_FLUSH_FAILURES),
            batch_sizes,
        }
    }

    /// Blocks until every record below `offset` is on stable storage —
    /// what a cross-shard coordinator needs of each shard it prepared
    /// before its decision may become durable. Returns at once, with no
    /// fsync, when the log is already durable through `offset`; otherwise
    /// the flusher's next fsync covers it. Fails with the flusher's
    /// fail-stop error.
    pub(crate) fn wait_durable(&self, offset: u64) -> Result<(), WalError> {
        let mut g = self.inner.lock().expect("flusher lock poisoned");
        loop {
            if let Some(err) = &g.failed {
                return Err(err.clone());
            }
            if g.durable >= offset {
                return Ok(());
            }
            g.wanted = g.wanted.max(offset);
            self.ready.notify_all();
            g = self.ready.wait(g).expect("flusher lock poisoned");
        }
    }

    /// The flusher thread's loop — the durable phase's one rule: wait
    /// until something is pending (an ack, or a
    /// [`wait_durable`](Self::wait_durable) caller); `pull` the log — under
    /// the history lock, write everything staged and read the current
    /// segment and the commit watermark ([`DurableLog::pull`]); fsync that
    /// segment off every lock; then resolve every pending ack below the
    /// watermark. A failed write latches exactly like a failed fsync.
    /// Returns when closed and drained.
    pub(crate) fn run(&self, pull: impl Fn() -> Result<(Arc<Handle>, u64), WalError>) {
        // The labeled batch-size counters, by size: each is registered on
        // the first flush of its size and then bumped through its handle.
        let mut batch_counters: Vec<Option<Counter>> = Vec::new();
        loop {
            {
                let mut g = self.inner.lock().expect("flusher lock poisoned");
                while g.pending.is_empty() && g.wanted <= g.durable {
                    if g.closed {
                        return;
                    }
                    g.parked = true;
                    g = self.ready.wait(g).expect("flusher lock poisoned");
                    g.parked = false;
                }
                if let Some(err) = &g.failed {
                    // Fail-stop: anything that slipped in resolves with
                    // the same typed error; no further I/O is attempted,
                    // and waiters see the error instead of a flush.
                    let error = StoreError::Wal(err.clone());
                    g.wanted = g.durable;
                    let orphans: Vec<PendingAck> = g.pending.drain(..).collect();
                    drop(g);
                    for ack in orphans {
                        self.resolve_failed(ack, &error);
                    }
                    continue;
                }
            }
            // Only the write holds the history lock; the fsync runs off
            // every lock, so publishes keep flowing while the disk works.
            match pull().and_then(|(file, committed)| file.sync().map(|()| committed)) {
                Ok(committed) => {
                    let mut g = self.inner.lock().expect("flusher lock poisoned");
                    // A coordinator waits for this fsync only when it
                    // wanted more than was durable before it.
                    let waiter = g.wanted > g.durable;
                    g.durable = g.durable.max(committed);
                    // Every ack pending at the pull lies below the
                    // watermark (its commit advanced it before the ack was
                    // enqueued), and so may acks enqueued while the fsync
                    // was in flight: resolve them all now rather than
                    // making already-durable commits wait for another.
                    let durable = g.durable;
                    let mut covered: Vec<PendingAck> = g
                        .pending
                        .extract_if(.., |ack| ack.offset < durable)
                        .collect();
                    drop(g);
                    if waiter {
                        self.ready.notify_all();
                    }
                    covered.sort_by_key(|a| a.offset);
                    self.obs.wal_fsyncs.inc();
                    if !covered.is_empty() {
                        self.obs.wal_flushed_commits.add(covered.len() as u64);
                        let size = covered.len();
                        if batch_counters.len() <= size {
                            batch_counters.resize(size + 1, None);
                        }
                        batch_counters[size]
                            .get_or_insert_with(|| self.obs.batch_size_counter(size))
                            .inc();
                    }
                    for ack in covered {
                        self.resolve_durable(ack);
                    }
                }
                Err(err) => {
                    let mut g = self.inner.lock().expect("flusher lock poisoned");
                    g.failed = Some(err.clone());
                    let covered: Vec<PendingAck> = g.pending.drain(..).collect();
                    drop(g);
                    self.ready.notify_all();
                    self.obs.wal_flush_failures.inc();
                    let error = StoreError::Wal(err);
                    for ack in covered {
                        self.resolve_failed(ack, &error);
                    }
                }
            }
        }
    }
}

// --- the reader ------------------------------------------------------------

/// One valid record plus its global offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// The record's global index in the log.
    pub offset: u64,
    /// The decoded record.
    pub record: Record,
}

/// Everything a scan of the log directory found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogScan {
    /// All surviving records across all segments, in log order.
    pub records: Vec<LogRecord>,
    /// Global offset of the first surviving record: 0 for a full log,
    /// larger after segment retention deleted a checkpoint-covered prefix.
    pub base_offset: u64,
    /// Bytes of torn tail discarded from the last segment (0 = clean end).
    pub torn_bytes: u64,
    /// Sequence number of the last segment.
    pub last_seg_seq: u64,
    /// Valid length of the last segment (everything after is torn).
    pub last_seg_valid_len: u64,
}

/// Scans every segment of the log in `dir`, validating checksums and
/// continuity. The segments must be contiguous; they need not start at
/// `wal-00000000.log` — segment retention deletes checkpoint-covered
/// prefixes, and the first surviving segment's header tells the scan its
/// global base offset. A torn tail in the *last* segment is discarded and
/// reported; damage anywhere else is a hard [`WalError::Corrupt`].
pub fn scan_log(dir: impl AsRef<Path>) -> Result<LogScan, WalError> {
    let dir = dir.as_ref();
    let names = Dir::std(dir).list()?;
    let seqs: Vec<u64> = disk::numbered(&names, "wal-", ".log")
        .into_iter()
        .map(|(seq, _)| seq)
        .collect();
    if seqs.is_empty() {
        return Err(WalError::NoLog {
            dir: dir.display().to_string(),
        });
    }
    let first_seq = seqs[0];
    for (i, &seq) in seqs.iter().enumerate() {
        if seq != first_seq + i as u64 {
            return Err(WalError::Corrupt {
                segment: segment_path(dir, seq).display().to_string(),
                offset: 0,
                detail: format!(
                    "segment sequence gap: expected wal-{:08}.log",
                    first_seq + i as u64
                ),
            });
        }
    }

    let mut records: Vec<LogRecord> = Vec::new();
    let mut base_offset: Option<u64> = None;
    let mut torn_bytes = 0u64;
    let mut last_valid_len = 0u64;
    let last_index = seqs.len() - 1;
    for (i, &seq) in seqs.iter().enumerate() {
        let path = segment_path(dir, seq);
        let segment = path.display().to_string();
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        let is_last = i == last_index;
        let mut pos = 0usize;
        let mut first = true;
        loop {
            if pos == bytes.len() {
                break;
            }
            let remaining = bytes.len() - pos;
            // A record the crash cut short: its framing or payload runs off
            // the end of the file. Only tolerable at the very tail.
            let (len, sum) = if remaining >= FRAME_HEADER {
                let len =
                    u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
                let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
                (len, sum)
            } else {
                if is_last {
                    torn_bytes = remaining as u64;
                    break;
                }
                return Err(WalError::Corrupt {
                    segment,
                    offset: pos as u64,
                    detail: "truncated record framing in interior segment".to_string(),
                });
            };
            if pos + FRAME_HEADER + len > bytes.len() {
                if is_last {
                    torn_bytes = remaining as u64;
                    break;
                }
                return Err(WalError::Corrupt {
                    segment,
                    offset: pos as u64,
                    detail: "record extends past interior segment end".to_string(),
                });
            }
            let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
            if fnv1a_64(payload) != sum {
                let extends_to_eof = pos + FRAME_HEADER + len == bytes.len();
                if is_last && extends_to_eof {
                    // The final record checksums wrong and nothing follows:
                    // a torn write. Discard it.
                    torn_bytes = remaining as u64;
                    break;
                }
                return Err(WalError::Corrupt {
                    segment,
                    offset: pos as u64,
                    detail: "checksum mismatch".to_string(),
                });
            }
            if first {
                // Every segment must open with a matching header record.
                first = false;
                match decode_segment_header(payload) {
                    Ok((v, _, _)) if v != FORMAT_VERSION => {
                        return Err(WalError::Version {
                            found: v,
                            expected: FORMAT_VERSION,
                        })
                    }
                    Ok((_, s, b)) => {
                        // The first surviving segment *defines* the global
                        // base (retention may have deleted its
                        // predecessors); every later segment must continue
                        // exactly where the scan stands.
                        let expected_base = match base_offset {
                            None => b,
                            Some(base) => base + records.len() as u64,
                        };
                        if s != seq || b != expected_base {
                            return Err(WalError::Corrupt {
                                segment,
                                offset: pos as u64,
                                detail: format!(
                                    "segment header (seq {s}, base {b}) does not match its \
                                     position (seq {seq}, base {expected_base})"
                                ),
                            });
                        }
                        base_offset.get_or_insert(b);
                    }
                    Err(e) => {
                        return Err(WalError::Corrupt {
                            segment,
                            offset: pos as u64,
                            detail: format!("bad segment header: {e}"),
                        })
                    }
                }
            } else {
                match decode_record(payload) {
                    Ok(record) => records.push(LogRecord {
                        offset: base_offset.unwrap_or(0) + records.len() as u64,
                        record,
                    }),
                    Err(detail) => {
                        // The checksum matched, so these bytes are what the
                        // writer wrote — an undecodable record is damage a
                        // torn write cannot explain.
                        return Err(WalError::Corrupt {
                            segment,
                            offset: pos as u64,
                            detail,
                        });
                    }
                }
            }
            pos += FRAME_HEADER + len;
            if is_last {
                last_valid_len = pos as u64;
            }
        }
        if is_last && torn_bytes == 0 {
            last_valid_len = bytes.len() as u64;
        }
    }
    Ok(LogScan {
        records,
        base_offset: base_offset.unwrap_or(0),
        torn_bytes,
        last_seg_seq: first_seq + last_index as u64,
        last_seg_valid_len: last_valid_len,
    })
}

// --- segment retention -----------------------------------------------------

/// Reads a segment's header and returns the global offset of its first
/// record.
fn read_segment_base(path: &Path) -> Result<u64, WalError> {
    use std::io::Read;
    let corrupt = |detail: String| WalError::Corrupt {
        segment: path.display().to_string(),
        offset: 0,
        detail,
    };
    let mut f = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
    let mut framing = [0u8; FRAME_HEADER];
    f.read_exact(&mut framing)
        .map_err(|_| corrupt("segment shorter than record framing".to_string()))?;
    let len = u32::from_le_bytes(framing[0..4].try_into().expect("4 bytes")) as usize;
    let sum = u64::from_le_bytes(framing[4..12].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; len];
    f.read_exact(&mut payload)
        .map_err(|_| corrupt("segment shorter than its header record".to_string()))?;
    if fnv1a_64(&payload) != sum {
        return Err(corrupt("header checksum mismatch".to_string()));
    }
    decode_segment_header(&payload)
        .map(|(_, _, base)| base)
        .map_err(|e| corrupt(format!("bad segment header: {e}")))
}

/// Decodes a segment header record's payload: the format version, the
/// segment's sequence number and the global offset of its first record.
fn decode_segment_header(payload: &[u8]) -> Result<(u32, u64, u64), CodecError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8("segment tag")?;
    if tag != TAG_SEGMENT {
        let (at, what) = (0, "segment header");
        return Err(CodecError::BadTag { at, what, tag });
    }
    let header = (
        c.u32("format version")?,
        c.u64("segment seq")?,
        c.u64("base offset")?,
    );
    c.finish()?;
    Ok(header)
}

/// Deletes every segment whose records are *entirely* below `covered` —
/// the retention pass run after a checkpoint at offset `covered` (unless
/// [`WalOptions::retain_segments`] opts out), and by `vpdtool wal gc`.
/// A segment is deletable when its successor's base offset is at most
/// `covered` (so every record it holds is checkpoint-covered) — the last
/// segment is never deleted. Returns the deleted paths.
pub fn gc_segments(dir: impl AsRef<Path>, covered: u64) -> Result<Vec<PathBuf>, WalError> {
    gc_segments_in(&Dir::std(dir.as_ref()), covered)
}

/// [`gc_segments`] in `dir` on its disk. The deletions are made durable
/// before it returns.
pub(crate) fn gc_segments_in(dir: &Dir, covered: u64) -> Result<Vec<PathBuf>, WalError> {
    let names = dir.list()?;
    let segs = disk::numbered(&names, "wal-", ".log");
    let mut deleted = Vec::new();
    for pair in segs.windows(2) {
        let ((_, name), (_, next)) = (pair[0], pair[1]);
        if read_segment_base(&dir.path().join(next))? > covered {
            break;
        }
        dir.remove(name)?;
        deleted.push(dir.path().join(name));
    }
    if !deleted.is_empty() {
        dir.sync()?;
    }
    Ok(deleted)
}

/// Deletes superseded `checkpoint-*.ckpt` files, keeping exactly what
/// recovery can still use:
///
/// * the **newest** checkpoint (the default recovery start), and
/// * the **floor** checkpoint — the oldest one whose offset is at or
///   beyond the first surviving segment's base offset, which
///   [`recover`] requires (and replays from under
///   [`RecoveryOptions::from_genesis`]). For an unrotated log (base
///   offset 0) the floor is the genesis checkpoint, which is therefore
///   always kept.
///
/// Run after [`gc_segments`] (segment retention moves the floor
/// forward). Returns the deleted paths; deleting nothing is not an
/// error.
pub fn gc_checkpoints(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, WalError> {
    gc_checkpoints_in(&Dir::std(dir.as_ref()))
}

/// [`gc_checkpoints`] in `dir` on its disk. The deletions are made
/// durable before it returns.
pub(crate) fn gc_checkpoints_in(dir: &Dir) -> Result<Vec<PathBuf>, WalError> {
    let names = dir.list()?;
    let cks = disk::numbered(&names, "checkpoint-", ".ckpt");
    if cks.len() <= 1 {
        return Ok(Vec::new());
    }
    let base = match disk::numbered(&names, "wal-", ".log").first() {
        Some((_, name)) => read_segment_base(&dir.path().join(name))?,
        // No segments at all: nothing constrains the floor; keep genesis
        // semantics by treating the base as 0.
        None => 0,
    };
    let newest = cks[cks.len() - 1].1;
    let floor = cks
        .iter()
        .find(|(off, _)| *off >= base)
        .map_or(newest, |(_, name)| *name);
    // (No floor means every checkpoint is below the surviving log, which
    // segment GC never leaves: keep the newest only.)
    let mut deleted = Vec::new();
    for &(_, name) in &cks {
        if name == floor || name == newest {
            continue;
        }
        dir.remove(name)?;
        deleted.push(dir.path().join(name));
    }
    if !deleted.is_empty() {
        dir.sync()?;
    }
    Ok(deleted)
}

// --- checkpoints -----------------------------------------------------------

/// A snapshot checkpoint: everything recovery needs to start from the
/// middle of the log instead of genesis — and everything a *cold audit*
/// needs to resolve provenance without a live server.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Log records covered: replay starts at this global offset.
    pub offset: u64,
    /// The store version at the checkpoint.
    pub version: u64,
    /// The next transaction id (so a resumed server never reuses ids).
    pub next_tx: u64,
    /// FNV-1a hash of `db`'s stable encoding — the checkpoint's
    /// *self-check*: a checkpoint carries a materialized database, so
    /// hashing its exact bytes guards against snapshot corruption.
    pub state_hash: u64,
    /// [Root hash](crate::history::root_hash) of `db` — the *anchor*: the
    /// value the last covered commit record must have recorded, linking
    /// the checkpoint to its place in the log.
    pub root_hash: u64,
    /// The constraint `α` the store guards.
    pub alpha: Formula,
    /// The schema.
    pub schema: Schema,
    /// The full state.
    pub db: Database,
    /// Every statement shape ever registered, by id.
    pub templates: BTreeMap<u64, Template>,
}

/// Writes a checkpoint file atomically (temp + fsync + rename + directory
/// fsync) and returns its path. It records no covered cross-shard
/// decisions — right for a genesis checkpoint; a serving store records the
/// decisions its log has applied.
pub fn write_checkpoint(dir: &Path, ck: &Checkpoint) -> Result<PathBuf, WalError> {
    write_checkpoint_covering(&Dir::std(dir), ck, &BTreeSet::new())
}

/// [`write_checkpoint`] in `dir` on its disk, recording `cross_decisions`
/// — the ids of the cross-shard decisions applied at or before the
/// checkpoint — as covered.
pub(crate) fn write_checkpoint_covering(
    dir: &Dir,
    ck: &Checkpoint,
    cross_decisions: &BTreeSet<u64>,
) -> Result<PathBuf, WalError> {
    let mut framed = Vec::new();
    frame_with(&mut framed, |payload| {
        payload.push(TAG_CHECKPOINT);
        codec::put_u32(payload, FORMAT_VERSION);
        codec::put_u64(payload, ck.offset);
        codec::put_u64(payload, ck.version);
        codec::put_u64(payload, ck.next_tx);
        codec::put_u64(payload, ck.state_hash);
        codec::put_u64(payload, ck.root_hash);
        codec::encode_formula(&ck.alpha, payload);
        codec::put_str(payload, &ck.schema.encode());
        codec::put_str(payload, &ck.db.encode());
        codec::put_u32(payload, ck.templates.len() as u32);
        for (id, t) in &ck.templates {
            codec::put_u64(payload, *id);
            codec::encode_program(t.shape(), payload);
        }
        codec::put_u32(payload, cross_decisions.len() as u32);
        for id in cross_decisions {
            codec::put_u64(payload, *id);
        }
    });
    dir.replace(&format!("checkpoint-{:020}.ckpt", ck.offset), &framed)
}

/// Reads and verifies one checkpoint file.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<Checkpoint, WalError> {
    read_checkpoint_covering(path.as_ref()).map(|(ck, _)| ck)
}

/// [`read_checkpoint`], plus the cross-shard decision ids it covers.
pub(crate) fn read_checkpoint_covering(
    path: &Path,
) -> Result<(Checkpoint, BTreeSet<u64>), WalError> {
    let bad = |detail: String| WalError::BadCheckpoint {
        path: path.display().to_string(),
        detail,
    };
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < FRAME_HEADER {
        return Err(bad("file shorter than record framing".to_string()));
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let sum = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
    if FRAME_HEADER + len != bytes.len() {
        return Err(bad(format!(
            "framing claims {} bytes, file has {}",
            FRAME_HEADER + len,
            bytes.len()
        )));
    }
    let payload = &bytes[FRAME_HEADER..];
    if fnv1a_64(payload) != sum {
        return Err(bad("checksum mismatch".to_string()));
    }
    let mut c = Cursor::new(payload);
    let tag = c.u8("checkpoint tag").map_err(|e| bad(e.to_string()))?;
    if tag != TAG_CHECKPOINT {
        return Err(bad(format!("not a checkpoint record (tag {tag:#04x})")));
    }
    // A version mismatch is its own typed error, not a decode failure:
    // callers (and operators) must be able to tell "old format, migrate or
    // regenerate" apart from "damaged file".
    let v = c.u32("format version").map_err(|e| bad(e.to_string()))?;
    if v != FORMAT_VERSION {
        return Err(WalError::Version {
            found: v,
            expected: FORMAT_VERSION,
        });
    }
    (|| -> Result<(Checkpoint, BTreeSet<u64>), String> {
        let offset = c.u64("offset").map_err(|e| e.to_string())?;
        let version = c.u64("version").map_err(|e| e.to_string())?;
        let next_tx = c.u64("next_tx").map_err(|e| e.to_string())?;
        let state_hash = c.u64("state hash").map_err(|e| e.to_string())?;
        let root_hash = c.u64("root hash").map_err(|e| e.to_string())?;
        let alpha = codec::decode_formula(&mut c).map_err(|e| e.to_string())?;
        let schema = Schema::decode(&c.str("schema").map_err(|e| e.to_string())?)?;
        let db = Database::decode(
            schema.clone(),
            &c.str("database").map_err(|e| e.to_string())?,
        )?;
        let n = c.count("template count").map_err(|e| e.to_string())?;
        let mut templates = BTreeMap::new();
        for _ in 0..n {
            let id = c.u64("shape id").map_err(|e| e.to_string())?;
            let shape = codec::decode_program(&mut c).map_err(|e| e.to_string())?;
            let t = Template::from_shape(shape).map_err(|e: TxError| e.to_string())?;
            templates.insert(id, t);
        }
        let n = c.count("decision count").map_err(|e| e.to_string())?;
        let cross_decisions = (0..n)
            .map(|_| c.u64("decision id"))
            .collect::<Result<BTreeSet<u64>, _>>()
            .map_err(|e| e.to_string())?;
        c.finish().map_err(|e| e.to_string())?;
        let ck = Checkpoint {
            offset,
            version,
            next_tx,
            state_hash,
            root_hash,
            alpha,
            schema,
            db,
            templates,
        };
        Ok((ck, cross_decisions))
    })()
    .map_err(bad)
}

/// The checkpoints present in `dir`, as `(offset, path)` sorted by offset.
pub fn list_checkpoints(dir: impl AsRef<Path>) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let dir = dir.as_ref();
    let names = Dir::std(dir).list()?;
    Ok(disk::numbered(&names, "checkpoint-", ".ckpt")
        .into_iter()
        .map(|(off, name)| (off, dir.join(name)))
        .collect())
}

/// Reads the genesis checkpoint (offset 0) — the initial state a cold
/// audit replays from.
pub fn read_genesis(dir: impl AsRef<Path>) -> Result<Checkpoint, WalError> {
    let dir = dir.as_ref();
    let cks = list_checkpoints(dir)?;
    match cks.first() {
        Some((0, path)) => read_checkpoint(path),
        _ => Err(WalError::NoCheckpoint {
            dir: dir.display().to_string(),
        }),
    }
}

#[cfg(test)]
impl GroupCommitFlusher {
    /// Whether a [`wait_durable`](Self::wait_durable) caller wants more
    /// than is durable.
    pub(crate) fn awaited(&self) -> bool {
        let g = self.inner.lock().expect("flusher lock poisoned");
        g.wanted > g.durable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{root_hash, state_hash};
    use vpdt_tx::template::canonicalize;

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vpdt-wal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn event_menu() -> Vec<Event> {
        vec![
            Event::Begin {
                tx: 1,
                session: 7,
                version: 0,
                shape: 3,
                bindings: vec![Elem(5), Elem(0), Elem(u64::MAX)],
            },
            Event::GuardEval {
                tx: 1,
                version: 0,
                pass: true,
            },
            Event::GuardEval {
                tx: 2,
                version: 9,
                pass: false,
            },
            Event::Commit {
                tx: 1,
                based_on: 0,
                version: 1,
                writes: vec!["R0".into(), "R1".into()],
                shape: 3,
                bindings: vec![Elem(5)],
                root_hash: 0xdead_beef_cafe_f00d,
            },
            Event::Abort {
                tx: 2,
                version: 9,
                reason: "guard failed at version 9 — with punctuation; and\nnewlines".into(),
            },
        ]
    }

    #[test]
    fn events_roundtrip_byte_for_byte() {
        for e in event_menu() {
            let bytes = encode_event(&e);
            let back = decode_event(&bytes).expect("decodes");
            assert_eq!(back, e);
            assert_eq!(encode_event(&back), bytes);
        }
    }

    /// Pre-encoding a commit with placeholder version/root-hash and
    /// patching the two fields under the lock must produce the exact bytes
    /// a direct encoding of the final event would — the off-lock encoding
    /// path changes where the work happens, never what lands on disk.
    #[test]
    fn patched_commit_payload_equals_direct_encoding() {
        let placeholder = Event::Commit {
            tx: 9,
            based_on: 4,
            version: 0,
            writes: vec!["E".into(), "R17".into()],
            shape: 2,
            bindings: vec![Elem(1), Elem(7)],
            root_hash: 0,
        };
        let direct = Event::Commit {
            tx: 9,
            based_on: 4,
            version: 5,
            writes: vec!["E".into(), "R17".into()],
            shape: 2,
            bindings: vec![Elem(1), Elem(7)],
            root_hash: 0x1234_5678_9abc_def0,
        };
        let mut pre = encode_event(&placeholder);
        patch_commit_payload(&mut pre, 5, 0x1234_5678_9abc_def0);
        assert_eq!(pre, encode_event(&direct));
        assert_eq!(commit_stamp(&pre), Some((5, 0x1234_5678_9abc_def0)));
        // The stub the store encodes before its lock is the same bytes,
        // for a commit and for a cross-shard commit.
        let writes: BTreeSet<String> = ["E".into(), "R17".into()].into();
        let mut stub = encode_commit_stub(9, None, 4, 2, &writes, &[Elem(1), Elem(7)]);
        assert_eq!(stub, encode_event(&placeholder));
        patch_commit_payload(&mut stub, 5, 0x1234_5678_9abc_def0);
        assert_eq!(stub, pre);
        let cross = Event::Cross {
            tx: 9,
            decision: 3,
            based_on: 4,
            version: 5,
            writes: vec!["E".into(), "R17".into()],
            shape: 2,
            bindings: vec![Elem(1), Elem(7)],
            root_hash: 0x1234_5678_9abc_def0,
        };
        let mut stub = encode_commit_stub(9, Some(3), 4, 2, &writes, &[Elem(1), Elem(7)]);
        patch_commit_payload(&mut stub, 5, 0x1234_5678_9abc_def0);
        assert_eq!(stub, encode_event(&cross));
        assert_eq!(commit_stamp(&stub), Some((5, 0x1234_5678_9abc_def0)));
        // An abort formatted in place is the bytes of its rendered reason.
        let reason = crate::AbortReason::GuardFailed {
            version: 12,
            shape: 4,
        };
        let mut abort = Vec::new();
        encode_abort_into(7, 12, &reason, &mut abort);
        let rendered = Event::Abort {
            tx: 7,
            version: 12,
            reason: reason.to_string(),
        };
        assert_eq!(abort, encode_event(&rendered));
        assert_eq!(commit_stamp(&abort), None);
    }

    #[test]
    fn writer_reader_roundtrip_across_rotation() {
        let dir = tmp_dir("rotate");
        let mut w = WalWriter::create(
            &dir,
            WalOptions {
                segment_bytes: 96, // tiny: forces several segments
                ..WalOptions::default()
            },
        )
        .expect("creates");
        let (template, _) =
            canonicalize(&Program::insert_consts("E", [1, 2])).expect("canonicalizes");
        w.append(&Record::Shape { id: 0, template })
            .expect("appends");
        for e in event_menu() {
            w.append(&Record::Event(e)).expect("appends");
        }
        w.sync().expect("syncs");
        assert_eq!(w.offset(), 6);

        let scan = scan_log(&dir).expect("scans");
        assert_eq!(scan.records.len(), 6);
        assert_eq!(scan.torn_bytes, 0);
        assert!(scan.last_seg_seq > 0, "rotation produced multiple segments");
        let events: Vec<Event> = scan
            .records
            .iter()
            .filter_map(|r| match &r.record {
                Record::Event(e) => Some(e.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(events, event_menu());

        // resume continues the offsets and remembers the logged shape
        let (w2, shapes) = WalWriter::resume(
            &dir,
            WalOptions {
                segment_bytes: 96,
                ..WalOptions::default()
            },
        )
        .expect("resumes");
        assert_eq!(w2.offset(), 6);
        assert_eq!(shapes, BTreeSet::from([0]));
    }

    #[test]
    fn torn_tail_is_discarded_interior_corruption_is_hard() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::create(
            &dir,
            WalOptions {
                segment_bytes: u64::MAX,
                ..WalOptions::default()
            },
        )
        .expect("creates");
        for e in event_menu() {
            w.append(&Record::Event(e)).expect("appends");
        }
        w.sync().expect("syncs");
        let seg = segment_path(&dir, 0);
        let clean = std::fs::read(&seg).expect("reads");

        // truncating anywhere inside the final record discards it cleanly
        let full = scan_log(&dir).expect("scans").records.len();
        for cut in 1..60 {
            std::fs::write(&seg, &clean[..clean.len() - cut]).expect("writes");
            let scan = scan_log(&dir).expect("torn tail must scan");
            assert!(scan.torn_bytes > 0, "cut {cut}: tail reported");
            assert!(scan.records.len() < full, "cut {cut}: a record was dropped");
        }

        // flipping a byte in an interior record is a hard error
        let mut flipped = clean.clone();
        let mid = clean.len() / 3;
        flipped[mid] ^= 0xff;
        std::fs::write(&seg, &flipped).expect("writes");
        match scan_log(&dir) {
            Err(WalError::Corrupt { .. }) => {}
            other => panic!("interior flip: expected Corrupt, got {other:?}"),
        }

        // flipping a byte in the *final* record is a torn write: discarded
        let mut tail_flip = clean.clone();
        let last = clean.len() - 3;
        tail_flip[last] ^= 0xff;
        std::fs::write(&seg, &tail_flip).expect("writes");
        let scan = scan_log(&dir).expect("tail flip must scan");
        assert_eq!(scan.records.len(), full - 1);
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn checkpoints_roundtrip_and_verify() {
        let dir = tmp_dir("ckpt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let db = Database::graph([(0, 1), (1, 2)]);
        let (template, _) =
            canonicalize(&Program::insert_consts("E", [1, 2])).expect("canonicalizes");
        let ck = Checkpoint {
            offset: 42,
            version: 7,
            next_tx: 19,
            state_hash: state_hash(&db),
            root_hash: root_hash(&db),
            alpha: vpdt_logic::parse_formula("forall x y z. E(x, y) & E(x, z) -> y = z")
                .expect("parses"),
            schema: db.schema().clone(),
            db: db.clone(),
            templates: BTreeMap::from([(0, template)]),
        };
        let path = write_checkpoint(&dir, &ck).expect("writes");
        let back = read_checkpoint(&path).expect("reads");
        assert_eq!(back.offset, 42);
        assert_eq!(back.version, 7);
        assert_eq!(back.next_tx, 19);
        assert_eq!(back.db, db);
        assert_eq!(back.alpha, ck.alpha);
        assert_eq!(back.templates, ck.templates);

        // a flipped byte is a typed checksum failure
        let mut bytes = std::fs::read(&path).expect("reads");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, &bytes).expect("writes");
        assert!(matches!(
            read_checkpoint(&path),
            Err(WalError::BadCheckpoint { .. })
        ));
    }

    /// A checkpoint carries the cross-shard decisions it covers, so a
    /// decision whose `Cross` record retention deletes still reads as
    /// applied; the public writer records none.
    #[test]
    fn checkpoints_carry_their_covered_decisions() {
        let dir = tmp_dir("ckpt-decisions");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let db = Database::graph([(0, 1)]);
        let ck = Checkpoint {
            offset: 0,
            version: 0,
            next_tx: 0,
            state_hash: state_hash(&db),
            root_hash: root_hash(&db),
            alpha: Formula::True,
            schema: db.schema().clone(),
            db,
            templates: BTreeMap::new(),
        };
        let path = write_checkpoint(&dir, &ck).expect("writes");
        let (_, covered) = read_checkpoint_covering(&path).expect("reads");
        assert!(covered.is_empty());
        let decisions = BTreeSet::from([3, 9, 40]);
        let path = write_checkpoint_covering(&Dir::std(&dir), &ck, &decisions).expect("writes");
        let (back, covered) = read_checkpoint_covering(&path).expect("reads");
        assert_eq!(covered, decisions);
        assert_eq!(back.db, ck.db);
    }

    /// A checkpoint written by an older format (for instance the version-1
    /// monolithic-hash scheme) is rejected with the typed version error —
    /// not a decode failure — even when its framing checksum is intact.
    #[test]
    fn old_format_checkpoint_is_rejected_with_typed_version_error() {
        let dir = tmp_dir("ckpt-version");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let db = Database::graph([(0, 1)]);
        let ck = Checkpoint {
            offset: 0,
            version: 0,
            next_tx: 0,
            state_hash: state_hash(&db),
            root_hash: root_hash(&db),
            alpha: Formula::True,
            schema: db.schema().clone(),
            db,
            templates: BTreeMap::new(),
        };
        let path = write_checkpoint(&dir, &ck).expect("writes");
        // Rewrite the format-version field (payload bytes 1..5, after the
        // tag) to claim version 1, and re-checksum so only the version
        // check can object.
        let mut bytes = std::fs::read(&path).expect("reads");
        let v_at = FRAME_HEADER + 1;
        bytes[v_at..v_at + 4].copy_from_slice(&1u32.to_le_bytes());
        let sum = fnv1a_64(&bytes[FRAME_HEADER..]);
        bytes[4..12].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).expect("writes");
        assert!(matches!(
            read_checkpoint(&path),
            Err(WalError::Version {
                found: 1,
                expected: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn fresh_log_refuses_existing_directory_and_no_log_is_typed() {
        let dir = tmp_dir("exists");
        let _w = WalWriter::create(&dir, WalOptions::default()).expect("creates");
        assert!(matches!(
            WalWriter::create(&dir, WalOptions::default()),
            Err(WalError::AlreadyExists { .. })
        ));
        let empty = tmp_dir("empty");
        std::fs::create_dir_all(&empty).expect("mkdir");
        assert!(matches!(scan_log(&empty), Err(WalError::NoLog { .. })));
        assert!(matches!(
            read_genesis(&empty),
            Err(WalError::NoCheckpoint { .. })
        ));
        // a stale checkpoint with no segments is just as poisonous as a
        // stale segment: refused too
        let stale = tmp_dir("stale-ckpt");
        std::fs::create_dir_all(&stale).expect("mkdir");
        std::fs::write(stale.join("checkpoint-00000000000000000007.ckpt"), b"old").expect("writes");
        assert!(matches!(
            WalWriter::create(&stale, WalOptions::default()),
            Err(WalError::AlreadyExists { .. })
        ));
    }

    /// A crash between segment creation and its header write leaves a
    /// header-less (empty or torn-header) last segment. Resume must repair
    /// it — rewrite the header, keep appending — and the result must stay
    /// scannable; the old bug appended records into the header-less file,
    /// making the whole log permanently unreadable.
    #[test]
    fn resume_repairs_a_headerless_last_segment() {
        let dir = tmp_dir("headerless");
        let opts = WalOptions {
            segment_bytes: u64::MAX,
            ..WalOptions::default()
        };
        let mut w = WalWriter::create(&dir, opts.clone()).expect("creates");
        for e in event_menu() {
            w.append(&Record::Event(e)).expect("appends");
        }
        w.sync().expect("syncs");
        drop(w);
        // simulate the crash: segment 1 exists but is empty (no header)
        std::fs::write(segment_path(&dir, 1), b"").expect("creates empty segment");

        let (mut w2, _) = WalWriter::resume(&dir, opts.clone()).expect("resumes");
        assert_eq!(w2.offset(), event_menu().len() as u64);
        w2.append(&Record::Event(event_menu().remove(0)))
            .expect("appends after repair");
        w2.sync().expect("syncs");
        drop(w2);

        let scan = scan_log(&dir).expect("repaired log scans");
        assert_eq!(scan.records.len(), event_menu().len() + 1);
        assert_eq!(scan.torn_bytes, 0);
        // ...and the same holds when the bogus segment holds a torn header
        std::fs::write(segment_path(&dir, 2), [0x07, 0x00]).expect("torn header bytes");
        let (w3, _) = WalWriter::resume(&dir, opts).expect("resumes over torn header");
        assert_eq!(w3.offset(), event_menu().len() as u64 + 1);
        drop(w3);
        scan_log(&dir).expect("still scannable");
    }

    #[test]
    fn version_mismatch_is_typed() {
        let dir = tmp_dir("version");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // hand-craft a segment whose header claims format version 99
        let mut payload = vec![TAG_SEGMENT];
        codec::put_u32(&mut payload, 99);
        codec::put_u64(&mut payload, 0);
        codec::put_u64(&mut payload, 0);
        let mut framed = Vec::new();
        frame_into(&mut framed, &payload);
        std::fs::write(segment_path(&dir, 0), framed).expect("writes");
        assert_eq!(
            scan_log(&dir),
            Err(WalError::Version {
                found: 99,
                expected: FORMAT_VERSION
            })
        );
    }

    /// Events in `dir`'s log, in log order.
    fn logged_events(dir: &Path) -> Vec<Event> {
        scan_log(dir)
            .expect("scans")
            .records
            .into_iter()
            .filter_map(|r| match r.record {
                Record::Event(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    fn staging_log(dir: &Path, opts: WalOptions) -> (DurableLog, Counter) {
        let writes = vpdt_obs::MetricsRegistry::new().counter(names::WAL_WRITES);
        let writer = WalWriter::create(dir, opts).expect("creates");
        let log = DurableLog::new(writer, BTreeSet::new(), BTreeSet::new(), writes.clone());
        (log, writes)
    }

    /// Publishing stages every record, terminal ones included; the
    /// flusher's pull writes them all in one `write(2)`, in append order,
    /// before the fsync it returns the watermark for. Drop writes what is
    /// left.
    #[test]
    fn staged_records_reach_the_file_before_their_fsync() {
        let dir = tmp_dir("stage-pull");
        let (mut log, writes) = staging_log(&dir, WalOptions::default());
        let menu = event_menu();
        // Begin(1), GuardEval(1), GuardEval(2), Commit(1): a commit
        // leaves the file untouched too.
        for e in &menu[..4] {
            log.append_event(|out| encode_event_into(e, out))
                .expect("stages");
        }
        assert!(logged_events(&dir).is_empty(), "publishing writes nothing");
        assert_eq!((writes.get(), log.committed), (0, 4));
        let (file, committed) = log.pull().expect("pulls");
        assert_eq!(logged_events(&dir), menu[..4]);
        assert_eq!((writes.get(), committed), (1, 4));
        file.sync().expect("syncs");
        // Abort(2) is staged like any record, and drop writes what no
        // pull did.
        log.append_event(|out| encode_event_into(&menu[4], out))
            .expect("stages");
        assert_eq!(logged_events(&dir), menu[..4]);
        drop(log);
        assert_eq!(logged_events(&dir), menu);
        assert_eq!(writes.get(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stream of aborts never wakes the flusher, so the staging buffer
    /// writes itself through once it reaches its bound.
    #[test]
    fn aborts_alone_keep_the_staging_buffer_bounded() {
        const ABORTS: usize = 10_000;
        let dir = tmp_dir("stage-bound");
        let (mut log, _) = staging_log(&dir, WalOptions::default());
        let abort = &event_menu()[4];
        let record = FRAME_HEADER + encode_event(abort).len();
        for _ in 0..ABORTS {
            log.append_event(|out| encode_event_into(abort, out))
                .expect("stages");
            assert!(log.writer.staged.len() <= STAGE_BYTES + record);
        }
        assert_eq!(log.committed, 0);
        log.writer.sync().expect("syncs");
        let logged = logged_events(&dir);
        assert_eq!(logged.len(), ABORTS);
        assert!(logged.iter().all(|e| e == abort));
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `sync` writes what is staged before it fsyncs, and drop writes what
    /// is left — the crash-shaped exit loses no accepted record.
    #[test]
    fn sync_and_drop_write_staged_records() {
        let dir = tmp_dir("stage-sync");
        let (mut log, writes) = staging_log(&dir, WalOptions::default());
        let menu = event_menu();
        log.append_event(|out| encode_event_into(&menu[0], out))
            .expect("stages");
        log.writer.sync().expect("syncs");
        assert_eq!(logged_events(&dir), menu[..1]);
        assert_eq!(writes.get(), 1);
        // A sync with nothing staged makes no write.
        log.writer.sync().expect("syncs");
        assert_eq!(writes.get(), 1);
        log.append_event(|out| encode_event_into(&menu[1], out))
            .expect("stages");
        log.append_event(|out| encode_event_into(&menu[2], out))
            .expect("stages");
        assert_eq!(logged_events(&dir), menu[..1]);
        drop(log);
        assert_eq!(logged_events(&dir), menu[..3]);
        assert_eq!(writes.get(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rotation writes (and fsyncs) the staged records into the segment
    /// they were sized against before opening the next one.
    #[test]
    fn staged_records_survive_rotation_in_order() {
        let dir = tmp_dir("stage-rotate");
        let opts = WalOptions {
            segment_bytes: 96,
            ..WalOptions::default()
        };
        let (mut log, _) = staging_log(&dir, opts);
        let menu = event_menu();
        let non_terminal = [&menu[0], &menu[1], &menu[2], &menu[0], &menu[1]];
        for e in non_terminal {
            log.append_event(|out| encode_event_into(e, out))
                .expect("stages");
        }
        log.writer.sync().expect("syncs");
        let scan = scan_log(&dir).expect("scans");
        assert!(scan.last_seg_seq > 0, "the tiny budget rotated");
        assert_eq!(scan.torn_bytes, 0);
        let want: Vec<Event> = non_terminal.into_iter().cloned().collect();
        assert_eq!(logged_events(&dir), want);
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The durable phase's one rule, run on the test thread: one pull and
    /// fsync resolve every ack pending below the commit watermark, in
    /// offset order, and an ack
    /// whose offset that fsync already covered (the flusher raced ahead of
    /// its enqueue) resolves inside `enqueue`, with no further fsync.
    #[test]
    fn one_fsync_resolves_every_ack_below_the_watermark() {
        const N: u64 = 6;
        let dir = tmp_dir("flusher");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let file = Arc::new(Dir::std(&dir).create_file("segment").expect("creates"));
        let flusher = GroupCommitFlusher::new(StoreMetrics::new(0));
        let ack = |offset: u64| {
            let state = Arc::new(TicketState::default());
            let ticket = crate::TxTicket::new(offset, 0, Arc::clone(&state));
            let ack = PendingAck {
                offset,
                version: offset + 1,
                ticket: state,
                tx: offset,
                enqueued_at_ns: 0,
                published_at_ns: 0,
            };
            (ack, ticket)
        };
        // Commits at offsets 0..=N are published; N of their acks arrive,
        // out of offset order.
        let resolved = Arc::new(Mutex::new(Vec::new()));
        let tickets: Vec<_> = (0..N)
            .rev()
            .map(|offset| {
                let (ack, ticket) = ack(offset);
                let resolved = Arc::clone(&resolved);
                ticket.on_resolve(move |_| resolved.lock().expect("lock").push(offset));
                flusher.enqueue(ack);
                ticket
            })
            .collect();
        flusher.close();
        flusher.run(|| Ok((Arc::clone(&file), N + 1)));
        let stats = flusher.stats();
        assert_eq!(stats.fsyncs, 1, "{stats:?}");
        assert_eq!(stats.flushed_commits, N);
        assert_eq!(stats.batch_sizes, BTreeMap::from([(N as usize, 1)]));
        let order: Vec<u64> = (0..N).collect();
        assert_eq!(*resolved.lock().expect("lock"), order);
        for ticket in &tickets {
            assert_eq!(
                ticket.try_outcome(),
                Some(TxOutcome::Committed {
                    version: ticket.id() + 1
                })
            );
        }
        // The last commit's ack arrives after the fsync that covered it.
        let (late, ticket) = ack(N);
        flusher.enqueue(late);
        assert_eq!(
            ticket.try_outcome(),
            Some(TxOutcome::Committed { version: N + 1 })
        );
        let stats = flusher.stats();
        assert_eq!(stats.fsyncs, 1);
        assert_eq!(stats.flushed_commits, N + 1);
        assert_eq!(stats.batch_sizes, BTreeMap::from([(N as usize, 1)]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An enqueue signals a parked flusher and clears `parked`, so the
    /// enqueues that follow before the flusher runs make no syscall; and
    /// every ack still resolves over repeated park/wake rounds.
    #[test]
    fn an_enqueue_signals_a_parked_flusher_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::time::{Duration, Instant};
        let ack = |offset: u64| {
            let state = Arc::new(TicketState::default());
            let ticket = crate::TxTicket::new(offset, 0, Arc::clone(&state));
            let ack = PendingAck {
                offset,
                version: offset + 1,
                ticket: state,
                tx: offset,
                enqueued_at_ns: 0,
                published_at_ns: 0,
            };
            (ack, ticket)
        };

        // No thread: the first enqueue consumes the park, the second finds
        // the flusher already signalled.
        let flusher = GroupCommitFlusher::new(StoreMetrics::new(0));
        flusher.inner.lock().expect("lock").parked = true;
        let (first, _t0) = ack(0);
        flusher.enqueue(first);
        assert!(!flusher.inner.lock().expect("lock").parked);
        let (second, _t1) = ack(1);
        flusher.enqueue(second);
        assert!(!flusher.inner.lock().expect("lock").parked);
        assert_eq!(flusher.inner.lock().expect("lock").pending.len(), 2);

        // A running flusher: each round waits for it to park, then
        // publishes three commits; all of them resolve.
        let dir = tmp_dir("flusher-wake");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let file = Arc::new(Dir::std(&dir).create_file("segment").expect("creates"));
        let flusher = Arc::new(GroupCommitFlusher::new(StoreMetrics::new(0)));
        let committed = Arc::new(AtomicU64::new(0));
        let thread = {
            let (flusher, committed) = (Arc::clone(&flusher), Arc::clone(&committed));
            std::thread::spawn(move || {
                flusher.run(|| Ok((Arc::clone(&file), committed.load(Ordering::SeqCst))))
            })
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::yield_now();
            }
        };
        for round in 0..50u64 {
            wait_for("the flusher to park", &|| {
                flusher.inner.lock().expect("lock").parked
            });
            let tickets: Vec<_> = (round * 3..round * 3 + 3)
                .map(|offset| {
                    committed.store(offset + 1, Ordering::SeqCst);
                    let (ack, ticket) = ack(offset);
                    flusher.enqueue(ack);
                    ticket
                })
                .collect();
            for ticket in &tickets {
                wait_for("a durable ack", &|| ticket.try_outcome().is_some());
                assert_eq!(
                    ticket.try_outcome(),
                    Some(TxOutcome::Committed {
                        version: ticket.id() + 1
                    })
                );
            }
        }
        flusher.close();
        thread.join().expect("the flusher exits");
        assert_eq!(flusher.stats().flushed_commits, 150);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The public `append` writes before it returns: a scan sees the
    /// record without a sync.
    #[test]
    fn public_append_is_visible_without_sync() {
        let dir = tmp_dir("append-visible");
        let mut w = WalWriter::create(&dir, WalOptions::default()).expect("creates");
        let menu = event_menu();
        w.append(&Record::Event(menu[0].clone())).expect("appends");
        assert_eq!(logged_events(&dir), menu[..1]);
        w.append(&Record::Event(menu[1].clone())).expect("appends");
        assert_eq!(logged_events(&dir), menu[..2]);
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

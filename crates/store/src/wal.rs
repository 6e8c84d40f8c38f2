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
//!   the fsync happens outside it, in the **durable** phase: workers hand
//!   their tickets (with the record's log offset) to a dedicated
//!   `GroupCommitFlusher`, whose one rule is: fsync what is pending,
//!   then resolve every ticket the fsync covers. A
//!   [`TxTicket`](crate::TxTicket) therefore resolves only once its commit
//!   record is on stable storage — the durability point of `wait` is
//!   unchanged — while the disk no longer serializes the workers: whatever
//!   publishes during one fsync is covered by the next.
//!   `fsync_commits: false` skips the durable phase entirely (tickets
//!   resolve at publish; acknowledged commits then survive a process kill
//!   but not necessarily power loss).
//! * **One write per transaction.** Appending only *stages* a record in
//!   the writer's buffer; a transaction's `Begin`/`GuardEval` records (and
//!   any first-use shape declaration) reach the segment together with its
//!   terminal `Commit`, `Cross` or `Abort` record, in one `write(2)`. The
//!   write happens at publish, before the flusher learns of the commit,
//!   and every sync, rotation, checkpoint and drop writes what is staged
//!   first — so the durability contract above is unchanged, and so are
//!   the bytes on disk and their order.
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

use crate::exec::TxOutcome;
use crate::history::{fnv1a_64, Event};
use crate::metrics::{names, StoreMetrics};
pub use crate::replay::{recover, Recovered, RecoveryError, RecoveryOptions};
use crate::session::TicketState;
use crate::StoreError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{File, OpenOptions};
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

fn encode_decision(d: &DecisionRecord) -> Vec<u8> {
    let mut out = vec![TAG_DECISION];
    codec::put_u64(&mut out, d.id);
    codec::put_u64(&mut out, d.tx);
    codec::put_u32(&mut out, d.branches.len() as u32);
    for b in &d.branches {
        codec::put_u32(&mut out, b.shard);
        codec::put_u64(&mut out, b.tx);
        codec::put_u64(&mut out, b.based_on);
        codec::encode_program(&b.program, &mut out);
    }
    out
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

fn encode_record(r: &Record) -> Vec<u8> {
    match r {
        Record::Event(e) => encode_event(e),
        Record::Shape { id, template } => {
            let mut out = vec![TAG_SHAPE];
            codec::put_u64(&mut out, *id);
            codec::encode_program(template.shape(), &mut out);
            out
        }
        Record::Decision(d) => encode_decision(d),
    }
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
    codec::put_u32(out, payload.len() as u32);
    codec::put_u64(out, fnv1a_64(payload));
    out.extend_from_slice(payload);
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame_into(&mut out, payload);
    out
}

// --- the writer ------------------------------------------------------------

/// Tunables of the durable log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Whether commit records are fsync'd before the commit is
    /// acknowledged. `true` (the default) makes
    /// [`TxTicket::wait`](crate::TxTicket::wait) a durability point that
    /// survives power loss — the fsync runs in the durable phase, one
    /// fsync for every commit pending when it starts; `false` trades that
    /// for speed — acknowledged commits then survive a process kill (the
    /// bytes are in the page cache) but not necessarily a machine crash.
    pub fsync_commits: bool,
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
            segment_bytes: 8 * 1024 * 1024,
            fsync_commits: true,
            retain_segments: false,
        }
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// The append half of the log: owned by the server's
/// [`History`](crate::History) while it runs, handed back at shutdown to
/// write the clean checkpoint.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    opts: WalOptions,
    /// The current segment, shared with the group-commit flusher: appends
    /// go through the writer (under the history lock), fsyncs go through a
    /// clone of this handle (outside it), so a flush never blocks a
    /// publish.
    file: Arc<File>,
    seg_seq: u64,
    /// Bytes of the current segment, staged records included.
    seg_len: u64,
    next_offset: u64,
    /// Framed records appended but not yet written to the segment. They
    /// reach the file in one `write(2)` at the next terminal record
    /// ([`DurableLog::append_event`]), [`sync`](WalWriter::sync),
    /// rotation or drop — so it holds at most the shape, begin and
    /// guard-evaluation records of transactions still in flight.
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
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let entries = std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let is_segment = name.starts_with("wal-") && name.ends_with(".log");
            let is_checkpoint = name.starts_with("checkpoint-") && name.ends_with(".ckpt");
            if is_segment || is_checkpoint {
                return Err(WalError::AlreadyExists {
                    dir: dir.display().to_string(),
                });
            }
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
        let dir = dir.into();
        let scan = scan_log(&dir)?;
        let path = segment_path(&dir, scan.last_seg_seq);
        // Append mode: every write lands at the (post-truncation) end of
        // the file, never over the header.
        let mut file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        // Physically drop the torn tail so new records append cleanly after
        // the last valid one.
        file.set_len(scan.last_seg_valid_len)
            .map_err(|e| io_err(&path, e))?;
        // A crash between segment creation and its header write leaves a
        // last segment with no valid header (valid length 0). Rewrite the
        // header before appending — otherwise the appended records would
        // start a header-less segment no later scan could read.
        let next_offset = scan.base_offset + scan.records.len() as u64;
        let seg_len = if scan.last_seg_valid_len == 0 {
            write_segment_header(&mut file, &path, scan.last_seg_seq, next_offset)?
        } else {
            scan.last_seg_valid_len
        };
        file.sync_data().map_err(|e| io_err(&path, e))?;
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

    /// A shared handle on the current segment file — what the flusher
    /// fsyncs without holding the history lock.
    pub(crate) fn current_file(&self) -> Arc<File> {
        Arc::clone(&self.file)
    }

    /// The current segment's path (for error reporting).
    pub(crate) fn current_path(&self) -> PathBuf {
        segment_path(&self.dir, self.seg_seq)
    }

    /// Appends one record, rotating segments at the size budget, and
    /// writes it (with anything staged before it) to the segment before
    /// returning — a reader scanning the directory sees it at once.
    /// Returns the record's global offset. Does not fsync.
    pub fn append(&mut self, record: &Record) -> Result<u64, WalError> {
        let offset = self.append_payload(&encode_record(record))?;
        self.write_staged()?;
        Ok(offset)
    }

    /// Stages one already-encoded record payload — the hot path, which
    /// runs inside the commit critical section and must not clone events
    /// just to wrap them. The framed record is only copied into the
    /// staging buffer; [`write_staged`](Self::write_staged) puts it on
    /// the segment.
    pub(crate) fn append_payload(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        if self.seg_len >= self.opts.segment_bytes {
            self.rotate()?;
        }
        let before = self.staged.len();
        frame_into(&mut self.staged, payload);
        self.seg_len += (self.staged.len() - before) as u64;
        let offset = self.next_offset;
        self.next_offset += 1;
        Ok(offset)
    }

    /// Writes every staged record to the current segment in one
    /// `write(2)`. The buffer is emptied even when the write fails: a
    /// failed append is fail-stop, and re-writing a partly written burst
    /// later would only damage the log further.
    pub(crate) fn write_staged(&mut self) -> Result<(), WalError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let written = (&*self.file).write_all(&self.staged);
        self.staged.clear();
        if let Some(writes) = &self.writes {
            writes.inc();
        }
        written.map_err(|e| io_err(&self.current_path(), e))
    }

    /// Writes the staged records, then flushes everything appended to
    /// stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.write_staged()?;
        let path = segment_path(&self.dir, self.seg_seq);
        self.file.sync_data().map_err(|e| io_err(&path, e))
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
/// shutdown while a transaction was between its guard evaluation and its
/// terminal record) still writes them, so every record it accepted
/// reaches the file. Best effort — no fsync.
impl Drop for WalWriter {
    fn drop(&mut self) {
        let _ = self.write_staged();
    }
}

/// Writes a segment header record to `file`; returns its length.
fn write_segment_header(
    file: &mut File,
    path: &Path,
    seq: u64,
    base_offset: u64,
) -> Result<u64, WalError> {
    let mut payload = vec![TAG_SEGMENT];
    codec::put_u32(&mut payload, FORMAT_VERSION);
    codec::put_u64(&mut payload, seq);
    codec::put_u64(&mut payload, base_offset);
    let framed = frame(&payload);
    file.write_all(&framed).map_err(|e| io_err(path, e))?;
    Ok(framed.len() as u64)
}

/// Creates segment `seq` and writes its header record. The file data and
/// (best-effort) the directory entry are fsync'd before any record lands
/// in the segment — a commit record fsync'd into a file whose directory
/// entry is not durable would not survive power loss.
fn open_segment(dir: &Path, seq: u64, base_offset: u64) -> Result<(File, u64), WalError> {
    let path = segment_path(dir, seq);
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)
        .map_err(|e| io_err(&path, e))?;
    let len = write_segment_header(&mut file, &path, seq, base_offset)?;
    file.sync_data().map_err(|e| io_err(&path, e))?;
    // Non-fatal on filesystems that cannot open directories.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok((file, len))
}

/// The durable attachment a persisted [`History`](crate::History) carries:
/// the writer plus the bookkeeping of which shapes are already declared on
/// disk, which cross-shard decisions the log has applied, and how commits
/// reach stable storage.
#[derive(Debug)]
pub(crate) struct DurableLog {
    pub(crate) writer: WalWriter,
    logged_shapes: BTreeSet<u64>,
    /// Ids of the decisions whose `Cross` records this log holds (or held
    /// before retention): what the next checkpoint records as covered.
    pub(crate) cross_decisions: BTreeSet<u64>,
    /// The durable phase, when one is configured: commit appends tell the
    /// flusher how far the log has grown so its next fsync knows what it
    /// covers.
    flusher: Option<Arc<GroupCommitFlusher>>,
}

impl DurableLog {
    pub(crate) fn new(
        mut writer: WalWriter,
        logged_shapes: BTreeSet<u64>,
        cross_decisions: BTreeSet<u64>,
        flusher: Option<Arc<GroupCommitFlusher>>,
        writes: Counter,
    ) -> Self {
        writer.writes = Some(writes);
        DurableLog {
            writer,
            logged_shapes,
            cross_decisions,
            flusher,
        }
    }

    /// Appends an encoded event payload and returns its global offset —
    /// the **publish** half of durability: this runs inside the commit
    /// critical section and never fsyncs there. The payload is the very
    /// bytes the in-memory history just appended to its arena, so nothing
    /// is encoded twice. A `Begin` or `GuardEval` record is only staged;
    /// a terminal record (`Commit`, `Cross`, `Abort`) writes everything
    /// staged so far in one `write(2)`, so a transaction costs one write,
    /// and every commit is in the file (page cache) once it publishes —
    /// what `fsync_commits: false` promises against a process kill. A
    /// commit record then advances the flusher's append watermark, so the
    /// durable phase knows which fsync will cover it. A cross-shard commit
    /// records its decision id as applied.
    pub(crate) fn append_event(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let offset = self.writer.append_payload(payload)?;
        if matches!(payload.first(), Some(&(TAG_COMMIT | TAG_CROSS | TAG_ABORT))) {
            self.writer.write_staged()?;
        }
        match payload.first() {
            Some(&TAG_CROSS) => {
                let decision = &payload[CROSS_DECISION_OFFSET..CROSS_DECISION_OFFSET + 8];
                self.cross_decisions
                    .insert(u64::from_le_bytes(decision.try_into().expect("8 bytes")));
            }
            Some(&TAG_COMMIT) => {
                if let Some(flusher) = &self.flusher {
                    flusher.note_append(
                        self.writer.current_file(),
                        self.writer.current_path(),
                        self.writer.offset(),
                    );
                }
            }
            _ => {}
        }
        Ok(offset)
    }

    /// Logs a shape declaration the first time the shape is used durably.
    pub(crate) fn declare_shape(&mut self, id: u64, template: &Template) -> Result<(), WalError> {
        if self.logged_shapes.insert(id) {
            let mut payload = vec![TAG_SHAPE];
            codec::put_u64(&mut payload, id);
            codec::encode_program(template.shape(), &mut payload);
            self.writer.append_payload(&payload)?;
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
    /// The append watermark: the current segment file and the global
    /// offset the log has grown to, maintained by the publish phase
    /// ([`DurableLog::append_event`]). Fsyncing `file` makes every record
    /// below `appended` durable — earlier segments were synced at
    /// rotation.
    file: Option<(Arc<File>, PathBuf)>,
    appended: u64,
    /// Everything below this offset is on stable storage.
    durable: u64,
    /// Fail-stop state: the error every covered and subsequent ticket
    /// resolves with.
    failed: Option<WalError>,
    /// Test hook: makes the next flush fail without touching the disk.
    inject_error: bool,
}

/// The shared group-commit flusher: workers enqueue published commits
/// (ticket + log offset), a dedicated thread fsyncs once for everything
/// pending and resolves every covered ticket — the **durable** phase of
/// the commit pipeline. Owned by the
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
            .field("appended", &self.appended)
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
                file: None,
                appended: 0,
                durable: 0,
                failed: None,
                inject_error: false,
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

    /// Advances the append watermark — called by the publish phase, under
    /// the history lock, after every commit append. Deliberately tiny: the
    /// flush lock is only ever held for bookkeeping, never across I/O.
    pub(crate) fn note_append(&self, file: Arc<File>, path: PathBuf, appended: u64) {
        let mut g = self.inner.lock().expect("flusher lock poisoned");
        g.file = Some((file, path));
        g.appended = g.appended.max(appended);
    }

    /// Hands a published commit to the durable phase. If a covering fsync
    /// already happened (the flusher raced ahead), the ticket resolves on
    /// the spot; after a flush failure, it resolves with the typed error
    /// (fail-stop: the log can no longer promise durability).
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
        drop(g);
        self.ready.notify_all();
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

    /// Test hook: the next flush fails as if the disk had, exercising the
    /// fail-stop fan-out without needing a faulty device.
    pub(crate) fn inject_flush_error(&self) {
        self.inner
            .lock()
            .expect("flusher lock poisoned")
            .inject_error = true;
    }

    /// The flusher thread's loop — the durable phase's one rule: wait
    /// until something is pending, fsync up to the append watermark, then
    /// resolve every pending ack that fsync covers. Returns when closed
    /// and drained.
    pub(crate) fn run(&self) {
        loop {
            let (file, path, appended, inject) = {
                let mut g = self.inner.lock().expect("flusher lock poisoned");
                while g.pending.is_empty() {
                    if g.closed {
                        return;
                    }
                    g = self.ready.wait(g).expect("flusher lock poisoned");
                }
                if let Some(err) = &g.failed {
                    // Fail-stop: anything that slipped in resolves with
                    // the same typed error; no further I/O is attempted.
                    let error = StoreError::Wal(err.clone());
                    let orphans: Vec<PendingAck> = g.pending.drain(..).collect();
                    drop(g);
                    for ack in orphans {
                        self.resolve_failed(ack, &error);
                    }
                    continue;
                }
                let (file, path) = g
                    .file
                    .clone()
                    .expect("a commit published before any ack was enqueued");
                let inject = std::mem::take(&mut g.inject_error);
                (file, path, g.appended, inject)
            };
            // The fsync — off every lock, so publishes keep flowing while
            // the disk works.
            let result = if inject {
                Err(WalError::Io {
                    path: path.display().to_string(),
                    message: "injected flush failure".to_string(),
                })
            } else {
                file.sync_data().map_err(|e| io_err(&path, e))
            };
            match result {
                Ok(()) => {
                    let mut g = self.inner.lock().expect("flusher lock poisoned");
                    g.durable = g.durable.max(appended);
                    // Every ack pending at the snapshot lies below the
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
                    covered.sort_by_key(|a| a.offset);
                    self.obs.wal_fsyncs.inc();
                    self.obs.wal_flushed_commits.add(covered.len() as u64);
                    self.obs.batch_size_counter(covered.len()).inc();
                    for ack in covered {
                        self.resolve_durable(ack);
                    }
                }
                Err(err) => {
                    let mut g = self.inner.lock().expect("flusher lock poisoned");
                    g.failed = Some(err.clone());
                    let covered: Vec<PendingAck> = g.pending.drain(..).collect();
                    drop(g);
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
    let mut seqs: Vec<u64> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            seqs.push(seq);
        }
    }
    if seqs.is_empty() {
        return Err(WalError::NoLog {
            dir: dir.display().to_string(),
        });
    }
    seqs.sort_unstable();
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
                let mut c = Cursor::new(payload);
                let header = (|| -> Result<(u32, u64, u64), CodecError> {
                    let at = c.pos();
                    let tag = c.u8("segment tag")?;
                    if tag != TAG_SEGMENT {
                        return Err(CodecError::BadTag {
                            at,
                            what: "segment header",
                            tag,
                        });
                    }
                    let v = c.u32("format version")?;
                    let s = c.u64("segment seq")?;
                    let b = c.u64("base offset")?;
                    c.finish()?;
                    Ok((v, s, b))
                })();
                match header {
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
    let mut f = File::open(path).map_err(|e| io_err(path, e))?;
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
    let mut c = Cursor::new(&payload);
    (|| -> Result<u64, CodecError> {
        let at = c.pos();
        let tag = c.u8("segment tag")?;
        if tag != TAG_SEGMENT {
            return Err(CodecError::BadTag {
                at,
                what: "segment header",
                tag,
            });
        }
        let _version = c.u32("format version")?;
        let _seq = c.u64("segment seq")?;
        let base = c.u64("base offset")?;
        c.finish()?;
        Ok(base)
    })()
    .map_err(|e| corrupt(format!("bad segment header: {e}")))
}

/// Deletes every segment whose records are *entirely* below `covered` —
/// the retention pass run after a checkpoint at offset `covered` (unless
/// [`WalOptions::retain_segments`] opts out), and by `vpdtool wal gc`.
/// A segment is deletable when its successor's base offset is at most
/// `covered` (so every record it holds is checkpoint-covered) — the last
/// segment is never deleted. Returns the deleted paths.
pub fn gc_segments(dir: impl AsRef<Path>, covered: u64) -> Result<Vec<PathBuf>, WalError> {
    let dir = dir.as_ref();
    let seqs = list_segment_seqs(dir)?;
    let mut deleted = Vec::new();
    for pair in seqs.windows(2) {
        let (seq, next) = (pair[0], pair[1]);
        let next_base = read_segment_base(&segment_path(dir, next))?;
        if next_base > covered {
            break;
        }
        let path = segment_path(dir, seq);
        std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
        deleted.push(path);
    }
    if !deleted.is_empty() {
        // Make the deletions themselves durable (best-effort, as for
        // segment creation).
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(deleted)
}

/// The WAL segment sequence numbers present in `dir`, sorted ascending.
fn list_segment_seqs(dir: &Path) -> Result<Vec<u64>, WalError> {
    let mut seqs: Vec<u64> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
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
    let dir = dir.as_ref();
    let cks = list_checkpoints(dir)?;
    if cks.len() <= 1 {
        return Ok(Vec::new());
    }
    let base = match list_segment_seqs(dir)?.first() {
        Some(&seq) => read_segment_base(&segment_path(dir, seq))?,
        // No segments at all: nothing constrains the floor; keep genesis
        // semantics by treating the base as 0.
        None => 0,
    };
    let floor = cks
        .iter()
        .find(|(off, _)| *off >= base)
        .map(|(_, p)| p.clone())
        // Every checkpoint is below the surviving log (should not happen:
        // segment GC keeps a covering segment) — keep the newest only.
        .unwrap_or_else(|| cks[cks.len() - 1].1.clone());
    let newest = cks[cks.len() - 1].1.clone();
    let mut deleted = Vec::new();
    for (_, path) in &cks {
        if *path == floor || *path == newest {
            continue;
        }
        std::fs::remove_file(path).map_err(|e| io_err(path, e))?;
        deleted.push(path.clone());
    }
    if !deleted.is_empty() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
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

fn checkpoint_path(dir: &Path, offset: u64) -> PathBuf {
    dir.join(format!("checkpoint-{offset:020}.ckpt"))
}

/// Writes a checkpoint file atomically (temp + fsync + rename) and returns
/// its path. It records no covered cross-shard decisions — right for a
/// genesis checkpoint; a serving store records the decisions its log has
/// applied.
pub fn write_checkpoint(dir: &Path, ck: &Checkpoint) -> Result<PathBuf, WalError> {
    write_checkpoint_covering(dir, ck, &BTreeSet::new())
}

/// [`write_checkpoint`], recording `cross_decisions` — the ids of the
/// cross-shard decisions applied at or before the checkpoint — as covered.
pub(crate) fn write_checkpoint_covering(
    dir: &Path,
    ck: &Checkpoint,
    cross_decisions: &BTreeSet<u64>,
) -> Result<PathBuf, WalError> {
    let mut payload = vec![TAG_CHECKPOINT];
    codec::put_u32(&mut payload, FORMAT_VERSION);
    codec::put_u64(&mut payload, ck.offset);
    codec::put_u64(&mut payload, ck.version);
    codec::put_u64(&mut payload, ck.next_tx);
    codec::put_u64(&mut payload, ck.state_hash);
    codec::put_u64(&mut payload, ck.root_hash);
    codec::encode_formula(&ck.alpha, &mut payload);
    codec::put_str(&mut payload, &ck.schema.encode());
    codec::put_str(&mut payload, &ck.db.encode());
    codec::put_u32(&mut payload, ck.templates.len() as u32);
    for (id, t) in &ck.templates {
        codec::put_u64(&mut payload, *id);
        codec::encode_program(t.shape(), &mut payload);
    }
    codec::put_u32(&mut payload, cross_decisions.len() as u32);
    for id in cross_decisions {
        codec::put_u64(&mut payload, *id);
    }
    let framed = frame(&payload);

    let tmp = dir.join(".checkpoint.tmp");
    let path = checkpoint_path(dir, ck.offset);
    {
        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(&framed).map_err(|e| io_err(&tmp, e))?;
        f.sync_data().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    // Durability of the rename itself; non-fatal on filesystems that do
    // not support opening directories.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
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
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(off) = name
            .strip_prefix("checkpoint-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((off, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(off, _)| *off);
    Ok(out)
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
                fsync_commits: false,
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
                fsync_commits: false,
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
                fsync_commits: false,
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
        let path = write_checkpoint_covering(&dir, &ck, &decisions).expect("writes");
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
            fsync_commits: false,
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
        std::fs::write(segment_path(&dir, 0), frame(&payload)).expect("writes");
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
        let log = DurableLog::new(
            writer,
            BTreeSet::new(),
            BTreeSet::new(),
            None,
            writes.clone(),
        );
        (log, writes)
    }

    /// `Begin` and `GuardEval` are only staged; the transaction's terminal
    /// record writes all three in one `write(2)`, in append order.
    #[test]
    fn staged_records_reach_the_file_at_a_terminal_record() {
        let dir = tmp_dir("stage-terminal");
        let opts = WalOptions {
            fsync_commits: false,
            ..WalOptions::default()
        };
        let (mut log, writes) = staging_log(&dir, opts);
        let menu = event_menu();
        // Begin(1), GuardEval(1), GuardEval(2): nothing terminal yet.
        for e in &menu[..3] {
            log.append_event(&encode_event(e)).expect("stages");
        }
        assert!(
            logged_events(&dir).is_empty(),
            "nothing written before a terminal record"
        );
        assert_eq!(writes.get(), 0);
        // Commit(1) writes the burst.
        log.append_event(&encode_event(&menu[3])).expect("appends");
        assert_eq!(logged_events(&dir), menu[..4]);
        assert_eq!(writes.get(), 1);
        // Abort(2) is terminal too.
        log.append_event(&encode_event(&menu[4])).expect("appends");
        assert_eq!(logged_events(&dir), menu);
        assert_eq!(writes.get(), 2);
        assert_eq!(log.writer.offset(), 5);
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
        log.append_event(&encode_event(&menu[0])).expect("stages");
        log.writer.sync().expect("syncs");
        assert_eq!(logged_events(&dir), menu[..1]);
        assert_eq!(writes.get(), 1);
        // A sync with nothing staged makes no write.
        log.writer.sync().expect("syncs");
        assert_eq!(writes.get(), 1);
        log.append_event(&encode_event(&menu[1])).expect("stages");
        log.append_event(&encode_event(&menu[2])).expect("stages");
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
            fsync_commits: false,
            ..WalOptions::default()
        };
        let (mut log, _) = staging_log(&dir, opts);
        let menu = event_menu();
        let non_terminal = [&menu[0], &menu[1], &menu[2], &menu[0], &menu[1]];
        for e in non_terminal {
            log.append_event(&encode_event(e)).expect("stages");
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

    /// The durable phase's one rule, run on the test thread: one fsync
    /// resolves every ack pending below the append watermark, in offset
    /// order, and an ack
    /// whose offset that fsync already covered (the flusher raced ahead of
    /// its enqueue) resolves inside `enqueue`, with no further fsync.
    #[test]
    fn one_fsync_resolves_every_ack_below_the_watermark() {
        const N: u64 = 6;
        let dir = tmp_dir("flusher");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("segment");
        let file = Arc::new(File::create(&path).expect("creates"));
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
        flusher.note_append(file, path, N + 1);
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
        flusher.run();
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

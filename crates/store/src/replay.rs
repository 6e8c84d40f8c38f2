//! The replay kernel: the one place a recorded commit is re-executed and
//! verified.
//!
//! The executor commits through the statically guarded path
//! (`if wpc(T, α) then T else abort`); every consumer of a recorded history
//! re-checks it on the *other* side of the paper's comparison — the
//! run-time check-and-rollback path ([`RuntimeChecked`]). Recovery,
//! cross-shard roll-forward and the audits all do so through
//! [`Replayer::commit`], which takes one recorded [`Event::Commit`] or
//! [`Event::Cross`] and verifies, in order: the version follows without a
//! gap, the statement shape is declared, the `(shape, bindings)` provenance
//! instantiates, the recorded write set is the program's, check-and-rollback
//! accepts the program, and the result reproduces the recorded root hash.
//! A failure is one typed [`RecoveryError`]. Callers that must stop at the
//! first fault (recovery, roll-forward) propagate it with `?`; callers
//! that collect every fault (the audits) record it and go on.
//!
//! [`recover`] is the fail-fast consumer over a log directory: it checks
//! that the checkpoints and the log agree, then replays the tail after the
//! newest checkpoint. [`cold_audit_dir`](crate::audit::cold_audit_dir) runs
//! the same checks and then one collect-all pass from the floor checkpoint.

use crate::history::{root_hash, state_hash, Event, History};
use crate::snapshot::VersionedStore;
use crate::wal::{self, Checkpoint, Record, WalError};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use vpdt_core::safe::RuntimeChecked;
use vpdt_eval::Omega;
use vpdt_logic::{Elem, Formula, Schema};
use vpdt_structure::Database;
use vpdt_tx::program::{Program, ProgramTransaction};
use vpdt_tx::template::Template;
use vpdt_tx::traits::{Transaction, TxError};

/// Why a replay refused a recorded commit, or a recovery refused the
/// on-disk state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The log itself is unreadable.
    Wal(WalError),
    /// Snapshot and log disagree: the checkpoint points past the end of the
    /// log, its recorded hash does not match the commit record it claims to
    /// cover, its own state does not hash to what it recorded, two
    /// declarations of one shape id differ, or a commit's version does not
    /// follow its predecessor's (a reordered or dropped commit).
    Divergence {
        /// What diverged.
        detail: String,
    },
    /// A replayed event references a statement shape no checkpoint or
    /// shape record declares.
    UnknownShape {
        /// The transaction whose event referenced it.
        tx: u64,
        /// The unknown shape id.
        shape: u64,
    },
    /// A recorded `(shape, bindings)` provenance does not instantiate.
    Provenance {
        /// The transaction with bad provenance.
        tx: u64,
        /// What was wrong.
        detail: String,
    },
    /// A commit's recorded write set is not the set of relations its
    /// program writes.
    WriteSet {
        /// The transaction.
        tx: u64,
        /// Its commit version.
        version: u64,
        /// The write set the log recorded.
        recorded: Vec<String>,
        /// The relations the instantiated program writes.
        touched: Vec<String>,
    },
    /// Replaying a committed transaction produced a different root hash
    /// than the log recorded — a tampered or reordered log.
    HashMismatch {
        /// The transaction.
        tx: u64,
        /// Its commit version.
        version: u64,
        /// The hash the log recorded.
        recorded: u64,
        /// The hash the replay produced.
        computed: u64,
    },
    /// The deferred check-and-rollback path rejects a commit the log claims
    /// happened: the constraint would have been violated.
    Rejected {
        /// The transaction.
        tx: u64,
        /// Its commit version.
        version: u64,
        /// The rollback path's reason.
        reason: String,
    },
    /// A committed transaction fails to re-execute at all.
    Replay {
        /// The transaction.
        tx: u64,
        /// Its commit version.
        version: u64,
        /// The execution error.
        detail: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "{e}"),
            RecoveryError::Divergence { detail } => {
                write!(f, "snapshot/log divergence: {detail}")
            }
            RecoveryError::UnknownShape { tx, shape } => write!(
                f,
                "tx {tx} references unknown statement shape {shape}, which no checkpoint or \
                 shape record declares"
            ),
            RecoveryError::Provenance { tx, detail } => {
                write!(f, "tx {tx} has unusable provenance: {detail}")
            }
            RecoveryError::WriteSet {
                tx,
                version,
                recorded,
                touched,
            } => write!(
                f,
                "tx {tx} at version {version} recorded writes {recorded:?} but its program \
                 touches {touched:?}"
            ),
            RecoveryError::HashMismatch {
                tx,
                version,
                recorded,
                computed,
            } => write!(
                f,
                "replaying tx {tx} at version {version} produces state hash {computed:#x}, \
                 log records {recorded:#x}"
            ),
            RecoveryError::Rejected {
                tx,
                version,
                reason,
            } => write!(
                f,
                "log commits tx {tx} at version {version}, but check-and-rollback rejects \
                 it there: {reason}"
            ),
            RecoveryError::Replay {
                tx,
                version,
                detail,
            } => write!(f, "tx {tx} fails to replay at version {version}: {detail}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

thread_local! {
    static REPLAYED: Cell<u64> = const { Cell::new(0) };
}

/// How many commits [`Replayer::commit`] has replayed on the calling
/// thread. Recovery and the audits replay on their caller's thread, so
/// the difference across a call counts that call's replays (test hook).
#[doc(hidden)]
pub fn commits_replayed_on_this_thread() -> u64 {
    REPLAYED.with(Cell::get)
}

/// Resolves a recorded `(shape, bindings)` provenance to its ground
/// program (kernel steps 2 and 3).
pub(crate) fn program_of(
    templates: &BTreeMap<u64, Template>,
    tx: u64,
    shape: u64,
    bindings: &[Elem],
) -> Result<Program, RecoveryError> {
    templates
        .get(&shape)
        .ok_or(RecoveryError::UnknownShape { tx, shape })?
        .instantiate(bindings)
        .map_err(|e| RecoveryError::Provenance {
            tx,
            detail: format!("bindings do not fit shape {shape}: {e}"),
        })
}

/// The running state of a replay: the store at [`version`](Self::version),
/// and the constraint and Ω interpretation commits are re-checked under.
#[derive(Clone, Debug)]
pub struct Replayer {
    alpha: Formula,
    omega: Omega,
    /// The replayed state.
    pub db: Database,
    /// The version of [`db`](Self::db): the last commit replayed.
    pub version: u64,
}

impl Replayer {
    /// A replay starting from `db` at `version`.
    pub fn new(alpha: Formula, omega: Omega, db: Database, version: u64) -> Self {
        Replayer {
            alpha,
            omega,
            db,
            version,
        }
    }

    /// The replay kernel: verifies one recorded commit against the running
    /// state and advances it (other events are ignored). A faulted commit
    /// still consumes its version — with the previous state, or with the
    /// replayed one when only the recorded hash was wrong — so one bad
    /// record draws one fault and the versions after it still line up.
    pub fn commit(
        &mut self,
        event: &Event,
        templates: &BTreeMap<u64, Template>,
    ) -> Result<(), RecoveryError> {
        let (Event::Commit {
            tx,
            version,
            writes,
            shape,
            bindings,
            root_hash: recorded,
            ..
        }
        | Event::Cross {
            tx,
            version,
            writes,
            shape,
            bindings,
            root_hash: recorded,
            ..
        }) = event
        else {
            return Ok(());
        };
        let (tx, v) = (*tx, *version);
        REPLAYED.with(|n| n.set(n.get() + 1));
        self.version += 1;
        if v != self.version {
            return Err(RecoveryError::Divergence {
                detail: format!(
                    "commit of tx {tx} has version {v}, expected {} (reordered or dropped \
                     commit)",
                    self.version
                ),
            });
        }
        let program = program_of(templates, tx, *shape, bindings)?;
        let touched: Vec<String> = program.touched_relations().into_iter().collect();
        if touched != *writes {
            return Err(RecoveryError::WriteSet {
                tx,
                version: v,
                recorded: writes.clone(),
                touched,
            });
        }
        let checked = RuntimeChecked::new(
            ProgramTransaction::new("replay", program, self.omega.clone()),
            self.alpha.clone(),
            self.omega.clone(),
        );
        let next = checked.apply(&self.db).map_err(|e| match e {
            TxError::Aborted(reason) => RecoveryError::Rejected {
                tx,
                version: v,
                reason,
            },
            e => RecoveryError::Replay {
                tx,
                version: v,
                detail: e.to_string(),
            },
        })?;
        let computed = root_hash(&next);
        self.db = next;
        if computed != *recorded {
            return Err(RecoveryError::HashMismatch {
                tx,
                version: v,
                recorded: *recorded,
                computed,
            });
        }
        Ok(())
    }
}

// --- recovery --------------------------------------------------------------

/// Knobs of [`recover`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryOptions {
    /// Replay the entire surviving log from the *floor* checkpoint — the
    /// genesis for a full log, the oldest checkpoint that still covers the
    /// first surviving record after segment retention — instead of the
    /// tail after the newest one. Slower; used by the property test that
    /// pins `recover(checkpoint + tail)` to the full replay.
    pub from_genesis: bool,
}

/// What a successful recovery reconstructed and verified.
#[derive(Clone, Debug)]
pub struct Recovered {
    /// The recovered state.
    pub db: Database,
    /// The recovered store version.
    pub version: u64,
    /// FNV-1a hash of the recovered state's full encoding (the
    /// [`state_hash`] self-check value).
    pub state_hash: u64,
    /// [Root hash](crate::history::root_hash) of the recovered state —
    /// matches the last durable commit's recorded `root_hash`.
    pub root_hash: u64,
    /// The next transaction id a resumed server should assign.
    pub next_tx: u64,
    /// Every statement shape declared by checkpoint or log, by id.
    pub templates: BTreeMap<u64, Template>,
    /// The event history from the floor checkpoint onward (shape records
    /// excluded) — the full history from genesis unless segment retention
    /// deleted a covered prefix.
    pub events: Vec<Event>,
    /// The constraint recorded at the checkpoint.
    pub alpha: Formula,
    /// The schema recorded at the checkpoint.
    pub schema: Schema,
    /// The floor checkpoint's state — what a cold audit replays
    /// [`events`](Recovered::events) from (the genesis state for a full
    /// log). A server's report carries the same anchor
    /// ([`ServerReport::initial`](crate::ServerReport::initial)).
    pub initial: Database,
    /// The floor checkpoint's version: `initial` is the store at this
    /// version, and the first event in [`events`](Recovered::events)
    /// commits at `base_version + 1`. Zero for a full log. As in
    /// [`ServerReport::base_version`](crate::ServerReport::base_version).
    pub base_version: u64,
    /// Each relation's last-writer version, reconstructed from the
    /// replayed commit footprints (relations not written since the floor
    /// checkpoint carry `base_version`) — what a resumed store seeds its
    /// conflict validation with, so the first post-recovery disjoint
    /// commits validate against real history instead of a coarse
    /// recovery-point stamp.
    pub rel_versions: BTreeMap<String, u64>,
    /// Commits replayed (and verified) from the log tail.
    pub commits_replayed: usize,
    /// Log offset of the checkpoint recovery started from.
    pub checkpoint_offset: u64,
    /// Torn bytes discarded from the tail (0 = the log ended cleanly).
    pub torn_bytes: u64,
    /// Ids of the cross-shard decisions this log has applied: every
    /// surviving [`Event::Cross`] plus the ones the checkpoints record as
    /// covered, whose records segment retention may have deleted.
    pub cross_decisions: BTreeSet<u64>,
}

impl Recovered {
    /// Appends one event, folding it into the event-derived fields.
    pub(crate) fn push(&mut self, e: Event) {
        let tx = match &e {
            Event::Begin { tx, .. } | Event::GuardEval { tx, .. } | Event::Abort { tx, .. } => tx,
            Event::Commit {
                tx,
                version,
                writes,
                ..
            }
            | Event::Cross {
                tx,
                version,
                writes,
                ..
            } => {
                // Each relation's actual last writer. Relations unwritten
                // since the floor keep the floor version: their true last
                // writer is at or below it, and every post-resume snapshot
                // is above it, so the seed is exact or conservative.
                for w in writes {
                    let slot = self.rel_versions.entry(w.clone()).or_insert(0);
                    *slot = (*slot).max(*version);
                }
                tx
            }
        };
        self.next_tx = self.next_tx.max(tx + 1);
        if let Event::Cross { decision, .. } = &e {
            self.cross_decisions.insert(*decision);
        }
        self.events.push(e);
    }

    /// Takes over a finished replay's state.
    pub(crate) fn settle(&mut self, replay: Replayer) {
        self.commits_replayed += (replay.version - self.version) as usize;
        self.state_hash = state_hash(&replay.db);
        self.root_hash = root_hash(&replay.db);
        self.version = replay.version;
        self.db = replay.db;
    }
}

/// Opens `dir` for replay, checking everything recovery demands before it
/// replays anything: the floor and newest checkpoints hash to what they
/// record, lie within the surviving log, and are anchored to the commit
/// record they claim to cover; shape declarations agree. Returns the
/// recovery positioned at the start checkpoint (the floor under
/// `from_genesis`, else the newest) with every event-derived field filled
/// in, and the index of the first event in `events` to replay.
pub(crate) fn open(dir: &Path, from_genesis: bool) -> Result<(Recovered, usize), RecoveryError> {
    let scan = wal::scan_log(dir)?;
    let cks = wal::list_checkpoints(dir)?;
    let (_, latest_path) = cks.last().ok_or_else(|| WalError::NoCheckpoint {
        dir: dir.display().to_string(),
    })?;
    // The *floor* checkpoint: the oldest one that can serve as a replay
    // base for the surviving log — genesis for a full log, the oldest
    // checkpoint at or past the first surviving record after segment
    // retention.
    let (_, floor_path) = cks
        .iter()
        .find(|(off, _)| *off >= scan.base_offset)
        .ok_or_else(|| RecoveryError::Divergence {
            detail: format!(
                "the log starts at offset {} but no checkpoint covers that far",
                scan.base_offset
            ),
        })?;
    let (floor, floor_decisions) = wal::read_checkpoint_covering(floor_path)?;
    if scan.base_offset == 0 && floor.offset != 0 {
        return Err(WalError::NoCheckpoint {
            dir: dir.display().to_string(),
        }
        .into());
    }
    let (latest, latest_decisions) = if latest_path == floor_path {
        // Re-reading (and re-decoding the full database of) the same
        // checkpoint file would double recovery's startup cost.
        (floor.clone(), floor_decisions.clone())
    } else {
        wal::read_checkpoint_covering(latest_path)?
    };
    let log_end = scan.base_offset + scan.records.len() as u64;
    for c in [&floor, &latest] {
        check_checkpoint(c, &scan, log_end)?;
    }

    // Shape identities: checkpointed templates plus every declaration in
    // the log. Conflicting declarations of one id are tampering.
    let mut templates = floor.templates.clone();
    let declared = latest
        .templates
        .iter()
        .chain(scan.records.iter().filter_map(|r| match &r.record {
            Record::Shape { id, template } => Some((id, template)),
            _ => None,
        }));
    for (id, template) in declared {
        if templates.entry(*id).or_insert_with(|| template.clone()) != template {
            return Err(RecoveryError::Divergence {
                detail: format!("shape {id} is declared twice with different templates"),
            });
        }
    }

    let start = if from_genesis { &floor } else { &latest };
    let mut cross_decisions = floor_decisions;
    cross_decisions.extend(latest_decisions);
    let mut rec = Recovered {
        db: start.db.clone(),
        version: start.version,
        state_hash: start.state_hash,
        root_hash: start.root_hash,
        next_tx: floor.next_tx.max(latest.next_tx),
        templates,
        events: Vec::new(),
        alpha: start.alpha.clone(),
        schema: start.schema.clone(),
        initial: floor.db.clone(),
        base_version: floor.version,
        rel_versions: start
            .schema
            .iter()
            .map(|(name, _)| (name.to_string(), floor.version))
            .collect(),
        commits_replayed: 0,
        checkpoint_offset: start.offset,
        torn_bytes: scan.torn_bytes,
        cross_decisions,
    };
    let mut tail = 0;
    for r in scan.records {
        let Record::Event(e) = r.record else { continue };
        if r.offset < floor.offset {
            // Covered by the floor, whose state includes its effects.
            if let Event::Cross { decision, .. } = e {
                rec.cross_decisions.insert(decision);
            }
            continue;
        }
        if r.offset < start.offset {
            tail += 1;
        }
        rec.push(e);
    }
    Ok((rec, tail))
}

/// A checkpoint must hash to what it records — the full encoding
/// (snapshot integrity) and the commitment root (the anchor value commits
/// record) — lie within the surviving log's extent, and match the last
/// commit record it covers.
fn check_checkpoint(
    c: &Checkpoint,
    scan: &wal::LogScan,
    log_end: u64,
) -> Result<(), RecoveryError> {
    let diverged = |detail: String| Err(RecoveryError::Divergence { detail });
    let (state, root) = (state_hash(&c.db), root_hash(&c.db));
    if state != c.state_hash {
        return diverged(format!(
            "checkpoint at offset {} records state hash {:#x} but its state hashes to {state:#x}",
            c.offset, c.state_hash
        ));
    }
    if root != c.root_hash {
        return diverged(format!(
            "checkpoint at offset {} records root hash {:#x} but its state's root is {root:#x}",
            c.offset, c.root_hash
        ));
    }
    if c.offset < scan.base_offset || c.offset > log_end {
        return diverged(format!(
            "checkpoint covers {} records but the log holds only offsets {}..{}",
            c.offset, scan.base_offset, log_end
        ));
    }
    let last_commit_covered = scan.records[..(c.offset - scan.base_offset) as usize]
        .iter()
        .rev()
        .find_map(|r| match &r.record {
            Record::Event(
                Event::Commit {
                    version, root_hash, ..
                }
                | Event::Cross {
                    version, root_hash, ..
                },
            ) => Some((*version, *root_hash)),
            _ => None,
        });
    match last_commit_covered {
        Some((v, h)) if v != c.version || h != c.root_hash => diverged(format!(
            "checkpoint claims version {} (root hash {:#x}) but the last covered commit is \
             version {v} (root hash {h:#x})",
            c.version, c.root_hash
        )),
        // No covered commit survives. On a full log the checkpoint must
        // then be genesis-shaped; after retention the covering commits may
        // simply have been deleted, and the self-hash checks above remain
        // the anchor.
        None if scan.base_offset == 0 && c.version != 0 => diverged(format!(
            "checkpoint claims version {} but covers no commit records",
            c.version
        )),
        _ => Ok(()),
    }
}

/// Recovers the store state from `dir`: checks the checkpoints against the
/// log (see the module docs), loads the newest checkpoint (or the floor,
/// under [`RecoveryOptions::from_genesis`]), then replays the log tail
/// through [`Replayer::commit`], stopping at the first fault. Recovery
/// *is* a cold audit of the tail; [`crate::audit::cold_audit_dir`]
/// extends the same verification to the whole surviving log.
///
/// `omega` is the Ω interpretation programs run under — interpretations
/// are code, not data, so the caller supplies the same one the original
/// server ran with.
pub fn recover(
    dir: impl AsRef<Path>,
    omega: &Omega,
    opts: RecoveryOptions,
) -> Result<Recovered, RecoveryError> {
    let (mut rec, tail) = open(dir.as_ref(), opts.from_genesis)?;
    let mut replay = Replayer::new(
        rec.alpha.clone(),
        omega.clone(),
        rec.db.clone(),
        rec.version,
    );
    for e in &rec.events[tail..] {
        replay.commit(e, &rec.templates)?;
    }
    rec.settle(replay);
    Ok(rec)
}

impl VersionedStore {
    /// Recovers a store from a persisted directory: the durable analogue of
    /// [`VersionedStore::new`] (the crate re-exports `VersionedStore` as
    /// [`Store`](crate::Store)). Replays snapshot + log tail with full
    /// hash and provenance verification — see [`recover`] — and returns
    /// the live, in-memory store (its history anchored at the recovered
    /// state, counting the recovered events) together with the recovery
    /// report. To resume *serving*, hand the directory to
    /// [`StoreBuilder::recover`](crate::StoreBuilder::recover) instead.
    pub fn recover(
        dir: impl AsRef<Path>,
        omega: &Omega,
    ) -> Result<(VersionedStore, Recovered), RecoveryError> {
        let r = recover(dir, omega, RecoveryOptions::default())?;
        let db = Arc::new(r.db.clone());
        let history = History::anchored(r.version, Arc::clone(&db), r.events.len());
        let store = VersionedStore::resume(db, r.version, history, r.rel_versions.clone());
        Ok((store, r))
    }
}

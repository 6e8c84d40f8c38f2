//! Crash-recovery tests for the persisted store: kill the log mid-write
//! (truncate at every byte boundary of the last record), recover, and the
//! store must reach a prefix-consistent state whose cold audit passes.
//! Torn or corrupt *tail* records are detected by checksum and cleanly
//! discarded; corrupt *interior* records are a hard, typed error. A server
//! dropped without `shutdown()` loses no acknowledged commit — the
//! durability point of `TxTicket::wait`.

use std::path::{Path, PathBuf};
use vpdt::eval::Omega;
use vpdt::store::wal::{self, RecoveryOptions, WalError};
use vpdt::store::{
    cold_audit, cold_audit_dir, cold_audit_from, workload, Event, RecoveryError, Store,
    StoreBuilder, StoreError, TxOutcome, WalOptions,
};

const RELS: usize = 3;
const UNIVERSE: u64 = 4;

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vpdt-recovery-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Log options for these tests: small segments so rotation is exercised,
/// and full retention — these tests compare against from-genesis replays,
/// so checkpoints must not garbage-collect covered segments (retention has
/// its own tests in `store_group_commit.rs`).
fn fast_wal() -> WalOptions {
    WalOptions {
        segment_bytes: 1024,
        retain_segments: true,
    }
}

/// Serves a deterministic workload through a persisted server. Returns the
/// acknowledged commit versions (one ticket per submission, all waited) —
/// the commits durability must preserve. `clean` decides between
/// `shutdown()` (checkpoint written) and `drop` (crash-shaped exit).
fn persisted_run(dir: &Path, seed: u64, clients: u64, per_client: usize, clean: bool) -> Vec<u64> {
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(seed, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial, alpha)
        .workers(2)
        .persist_with(dir, fast_wal())
        .build()
        .expect("persisted server starts");
    let jobs = workload::sharded_jobs(seed, clients, per_client, RELS, UNIVERSE);
    let mut acknowledged = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(per_client.max(1))
            .map(|chunk| {
                let session = server.session();
                scope.spawn(move || {
                    let tickets: Vec<_> = chunk
                        .iter()
                        .map(|job| session.submit(job.clone()))
                        .collect();
                    tickets
                        .iter()
                        .filter_map(|t| match t.wait() {
                            TxOutcome::Committed { version } => Some(version),
                            _ => None,
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        for h in handles {
            acknowledged.extend(h.join().expect("session thread"));
        }
    });
    if clean {
        let report = server.shutdown();
        assert_eq!(report.exec.failed, 0, "no transaction may fail");
    } else {
        drop(server);
    }
    acknowledged
}

/// The byte spans (start, end) of every record in a segment file, walked
/// with the documented framing: `[u32 len][u64 fnv1a][payload]`.
fn record_spans(path: &Path) -> Vec<(usize, usize)> {
    let bytes = std::fs::read(path).expect("reads segment");
    let mut spans = Vec::new();
    let mut pos = 0;
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let end = pos + 12 + len;
        assert!(end <= bytes.len(), "segment ends mid-record at {pos}");
        spans.push((pos, end));
        pos = end;
    }
    assert_eq!(pos, bytes.len(), "trailing bytes in clean segment");
    spans
}

fn last_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("reads dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

fn copy_dir(from: &Path, tag: &str) -> PathBuf {
    let to = tmp_dir(tag);
    std::fs::create_dir_all(&to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("reads dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copies");
    }
    to
}

/// Recovers and runs the full cold audit over what came back.
fn recover_and_audit(dir: &Path) -> wal::Recovered {
    let r = wal::recover(dir, &Omega::empty(), RecoveryOptions::default()).expect("recovers");
    let verdict = cold_audit(
        &r.alpha,
        &Omega::empty(),
        &r.initial,
        &r.db,
        &r.events,
        &r.templates,
    );
    assert!(verdict.ok(), "cold audit failed: {verdict}");
    r
}

/// The recorded state hash of the last commit at or below `version`.
fn hash_at(events: &[Event], version: u64) -> Option<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Commit {
                version: v,
                root_hash,
                ..
            } if *v <= version => Some((*v, *root_hash)),
            _ => None,
        })
        .max_by_key(|(v, _)| *v)
        .map(|(_, h)| h)
}

#[test]
fn clean_shutdown_recovers_without_replay() {
    let dir = tmp_dir("clean");
    persisted_run(&dir, 11, 2, 20, true);
    let r = recover_and_audit(&dir);
    assert_eq!(
        r.commits_replayed, 0,
        "a clean checkpoint covers the whole log"
    );
    assert!(r.version > 0, "the workload committed something");
    assert_eq!(r.torn_bytes, 0);
    // Store::recover produces a live store at the same state
    let (store, meta) = Store::recover(&dir, &Omega::empty()).expect("recovers");
    assert_eq!(store.version(), r.version);
    assert_eq!(meta.state_hash, r.state_hash);
    assert_eq!(store.history().len(), r.events.len());
}

#[test]
fn drop_without_shutdown_replays_and_loses_no_acknowledged_commit() {
    let dir = tmp_dir("drop");
    // several concurrent sessions — the concurrency satellite
    let acknowledged = persisted_run(&dir, 23, 4, 25, false);
    let r = recover_and_audit(&dir);
    assert!(
        r.commits_replayed > 0,
        "no clean checkpoint: recovery must replay the log"
    );
    // every acknowledged commit survived...
    let durable: std::collections::BTreeSet<u64> = r
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Commit { version, .. } => Some(*version),
            _ => None,
        })
        .collect();
    for v in &acknowledged {
        assert!(
            durable.contains(v),
            "acknowledged commit at version {v} lost by recovery"
        );
        assert!(*v <= r.version);
    }
    // ...and the recovered root hash is the last durable commit's
    assert_eq!(Some(r.root_hash), hash_at(&r.events, r.version));
}

/// The log stages a transaction's records until its terminal one. A
/// persisted group-commit server dropped without `shutdown` — half its
/// tickets waited, the rest still queued — loses nothing to that: every
/// acknowledged commit (indeed every commit the drain published) is
/// recovered, no record is torn, and the cold audit passes.
#[test]
fn dropped_group_commit_server_recovers_every_acknowledged_commit() {
    let dir = tmp_dir("drop-staged");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(31, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial, alpha)
        .workers(1)
        .persist_with(
            &dir,
            WalOptions {
                retain_segments: true,
                ..WalOptions::default()
            },
        )
        .build()
        .expect("persisted server starts");
    let jobs = workload::sharded_jobs(31, 1, 60, RELS, UNIVERSE);
    let tickets: Vec<_> = {
        let session = server.session();
        jobs.iter().map(|j| session.submit(j.clone())).collect()
    };
    let committed = |t: &vpdt::store::TxTicket| match t.wait() {
        TxOutcome::Committed { version } => Some(version),
        _ => None,
    };
    let acknowledged: Vec<u64> = tickets[..30].iter().filter_map(committed).collect();
    assert!(!acknowledged.is_empty(), "the first half commits");
    drop(server); // crash-shaped: no clean checkpoint
    let published: Vec<u64> = tickets.iter().filter_map(committed).collect();

    let r = recover_and_audit(&dir);
    assert_eq!(r.torn_bytes, 0, "whole records only");
    assert!(r.commits_replayed > 0, "recovery replays the log");
    let durable: std::collections::BTreeSet<u64> = r
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Commit { version, .. } => Some(*version),
            _ => None,
        })
        .collect();
    for v in &acknowledged {
        assert!(durable.contains(v), "acknowledged commit {v} lost");
    }
    assert_eq!(Some(&r.version), published.iter().max());
    assert_eq!(durable.len(), published.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash harness: truncate the log at **every byte boundary of the
/// last record** and recover each time. Every cut must yield a
/// prefix-consistent state whose cold audit passes; no cut may be a hard
/// error.
#[test]
fn truncation_at_every_byte_boundary_recovers_a_consistent_prefix() {
    let dir = tmp_dir("truncate");
    persisted_run(&dir, 42, 1, 30, false);
    let seg = last_segment(&dir);
    let spans = record_spans(&seg);
    let (last_start, last_end) = *spans.last().expect("segment has records");
    let clean_bytes = std::fs::read(&seg).expect("reads");
    assert_eq!(last_end, clean_bytes.len());

    let baseline = recover_and_audit(&dir);
    for cut in last_start..last_end {
        let copy = copy_dir(&dir, "cut");
        let seg_copy = copy.join(seg.file_name().expect("name"));
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&seg_copy)
            .expect("opens");
        f.set_len(cut as u64).expect("truncates");
        drop(f);

        let r = recover_and_audit(&copy);
        assert!(r.version <= baseline.version, "cut {cut}: still a prefix");
        if cut > last_start {
            assert!(r.torn_bytes > 0, "cut {cut}: the torn record is reported");
        }
        assert_eq!(
            Some(r.root_hash),
            hash_at(&r.events, r.version).or(Some(r.root_hash)),
            "cut {cut}: root hash anchors to the last surviving commit"
        );
        // a resumed server must also accept the truncated log and serve
        if cut == last_start || cut == last_start + 5 {
            let server = StoreBuilder::recover(&copy)
                .wal_options(fast_wal())
                .workers(1)
                .build()
                .expect("resumes after truncation");
            let outcome = server
                .session()
                .submit_sync(workload::sharded_jobs(7, 1, 1, RELS, UNIVERSE)[0].clone());
            assert!(
                !matches!(outcome, TxOutcome::Failed { .. }),
                "cut {cut}: resumed server must execute, got {outcome:?}"
            );
            server.shutdown();
            recover_and_audit(&copy);
        }
    }
}

#[test]
fn torn_tail_is_discarded_but_interior_corruption_is_fatal() {
    let dir = tmp_dir("corrupt");
    persisted_run(&dir, 5, 1, 25, false);
    let seg = last_segment(&dir);
    let clean = std::fs::read(&seg).expect("reads");
    let spans = record_spans(&seg);
    let (last_start, _) = *spans.last().expect("records");

    // flip a byte inside the final record: checksum discards it cleanly
    let tail_copy = copy_dir(&dir, "tailflip");
    let mut bytes = clean.clone();
    bytes[last_start + 14] ^= 0xff;
    std::fs::write(tail_copy.join(seg.file_name().expect("name")), &bytes).expect("writes");
    let r = recover_and_audit(&tail_copy);
    assert!(r.torn_bytes > 0);

    // flip a byte inside an interior record: a hard, typed error
    let mid_copy = copy_dir(&dir, "midflip");
    let (mid_start, mid_end) = spans[spans.len() / 2];
    let mut bytes = clean.clone();
    bytes[(mid_start + mid_end) / 2] ^= 0xff;
    std::fs::write(mid_copy.join(seg.file_name().expect("name")), &bytes).expect("writes");
    match wal::recover(&mid_copy, &Omega::empty(), RecoveryOptions::default()) {
        Err(RecoveryError::Wal(WalError::Corrupt { .. })) => {}
        other => panic!("interior corruption must be WalError::Corrupt, got {other:?}"),
    }
    // ...and the server builder surfaces it as a typed StoreError
    match StoreBuilder::recover(&mid_copy).build() {
        Err(StoreError::Recovery(RecoveryError::Wal(WalError::Corrupt { .. }))) => {}
        other => panic!("builder must surface the corruption, got {other:?}"),
    }
}

/// A mid-run checkpoint shortens replay without changing the answer:
/// recovering from the newest checkpoint is state-hash-equal to replaying
/// the whole log from genesis.
#[test]
fn midrun_checkpoint_equals_full_replay() {
    let dir = tmp_dir("midckpt");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(3, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial, alpha)
        .workers(2)
        .persist_with(&dir, fast_wal())
        .build()
        .expect("starts");
    let jobs = workload::sharded_jobs(3, 2, 30, RELS, UNIVERSE);
    let (first, second) = jobs.split_at(jobs.len() / 2);
    workload::serve_chunked(&server, first, 15);
    let offset = server.checkpoint().expect("mid-run checkpoint");
    assert!(offset > 0);
    workload::serve_chunked(&server, second, 15);
    drop(server); // crash-shaped: the checkpoint is mid-log, the tail after it

    let from_ckpt = wal::recover(&dir, &Omega::empty(), RecoveryOptions::default())
        .expect("recovers from checkpoint");
    let from_genesis = wal::recover(
        &dir,
        &Omega::empty(),
        RecoveryOptions { from_genesis: true },
    )
    .expect("recovers from genesis");
    assert_eq!(from_ckpt.version, from_genesis.version);
    assert_eq!(from_ckpt.state_hash, from_genesis.state_hash);
    assert_eq!(from_ckpt.db, from_genesis.db);
    assert!(
        from_ckpt.commits_replayed < from_genesis.commits_replayed,
        "the checkpoint must actually shorten replay ({} vs {})",
        from_ckpt.commits_replayed,
        from_genesis.commits_replayed
    );
    assert!(from_ckpt.checkpoint_offset >= offset);
}

/// A recovered server keeps serving: ids, shapes and versions continue
/// where the log left off, and the combined history still audits.
#[test]
fn recovered_server_resumes_and_extends_the_log() {
    let dir = tmp_dir("resume");
    persisted_run(&dir, 17, 2, 15, false);
    let before = recover_and_audit(&dir);

    let server = StoreBuilder::recover(&dir)
        .wal_options(fast_wal())
        .workers(2)
        .build()
        .expect("resumes");
    assert_eq!(server.version(), before.version);
    let jobs = workload::sharded_jobs(99, 2, 15, RELS, UNIVERSE);
    workload::serve_chunked(&server, &jobs, 15);
    let report = server.shutdown();
    assert_eq!(report.exec.failed, 0);
    assert!(report.final_version >= before.version);

    let after = recover_and_audit(&dir);
    assert_eq!(after.version, report.final_version);
    assert!(after.events.len() > before.events.len());
    // transaction ids never collide across the restart
    let mut seen = std::collections::BTreeSet::new();
    for e in &after.events {
        if let Event::Begin { tx, .. } = e {
            assert!(seen.insert(*tx), "tx id {tx} reused across restart");
        }
    }
}

/// Recovery seeds each relation's last-writer version from the replayed
/// commit footprints, not a coarse recovery-point stamp: a relation never
/// written since the floor keeps the floor version, a written one carries
/// its actual last committing version — and two disjoint-relation commits
/// straight after recovery both succeed on the first attempt (no false
/// conflict).
#[test]
fn recovery_seeds_rel_versions_from_commit_footprints() {
    let dir = tmp_dir("relvers");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(13, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial, alpha)
        .workers(2)
        .persist_with(&dir, fast_wal())
        .build()
        .expect("persisted server starts");
    // Touch only R0: R1 and R2 keep their genesis-era last writers.
    let mut last_commit = 0;
    {
        let session = server.session();
        for a in 0..UNIVERSE {
            if let TxOutcome::Committed { version } =
                session.submit_sync(vpdt::tx::program::Program::delete_consts("R0", [a, a]))
            {
                last_commit = version;
            }
        }
    }
    assert!(last_commit > 0, "the deletes committed");
    drop(server); // crash-shaped exit: recovery replays the log

    let r = wal::recover(&dir, &Omega::empty(), RecoveryOptions::default()).expect("recovers");
    assert_eq!(
        r.rel_versions.get("R0").copied(),
        Some(r.version),
        "R0's seed is its actual last committing version"
    );
    for rel in ["R1", "R2"] {
        assert_eq!(
            r.rel_versions.get(rel).copied(),
            Some(r.base_version),
            "{rel} was never written since the floor: it keeps the floor version, \
             not the recovery point {}",
            r.version
        );
    }

    // The regression: straight after recovery, two disjoint-relation
    // commits both land on the first attempt — zero conflicts retried.
    let server = StoreBuilder::recover(&dir)
        .wal_options(fast_wal())
        .workers(2)
        .build()
        .expect("resumes");
    let (t1, t2) = {
        let s1 = server.session();
        let s2 = server.session();
        (
            s1.submit(vpdt::tx::program::Program::delete_consts("R1", [0, 0])),
            s2.submit(vpdt::tx::program::Program::delete_consts("R2", [0, 0])),
        )
    };
    assert!(matches!(t1.wait(), TxOutcome::Committed { .. }));
    assert!(matches!(t2.wait(), TxOutcome::Committed { .. }));
    let report = server.shutdown();
    assert_eq!(
        report.exec.conflicts, 0,
        "disjoint post-recovery commits must validate on the first attempt"
    );
}

// --- typed errors, one test per variant ------------------------------------

#[test]
fn missing_log_and_missing_checkpoint_are_typed() {
    let empty = tmp_dir("nolog");
    std::fs::create_dir_all(&empty).expect("mkdir");
    match wal::recover(&empty, &Omega::empty(), RecoveryOptions::default()) {
        Err(RecoveryError::Wal(WalError::NoLog { .. })) => {}
        other => panic!("expected NoLog, got {other:?}"),
    }
}

#[test]
fn persisting_over_an_existing_log_is_refused() {
    let dir = tmp_dir("exists");
    persisted_run(&dir, 1, 1, 3, true);
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(1, RELS, UNIVERSE, 0.5);
    match StoreBuilder::new(initial, alpha).persist(&dir).build() {
        Err(StoreError::Wal(WalError::AlreadyExists { .. })) => {}
        other => panic!("expected AlreadyExists, got {other:?}"),
    }
}

#[test]
fn checkpoint_on_unpersisted_server_is_typed() {
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(2, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial, alpha)
        .workers(1)
        .build()
        .expect("starts");
    match server.checkpoint() {
        Err(StoreError::Wal(WalError::NotDurable)) => {}
        other => panic!("expected NotDurable, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn checkpoint_beyond_log_end_is_divergence() {
    let dir = tmp_dir("beyond");
    persisted_run(&dir, 4, 1, 5, true);
    // forge a checkpoint claiming to cover far more records than exist
    let genesis = wal::read_genesis(&dir).expect("genesis");
    let mut forged = genesis.clone();
    forged.offset = 10_000;
    wal::write_checkpoint(&dir, &forged).expect("writes");
    match wal::recover(&dir, &Omega::empty(), RecoveryOptions::default()) {
        Err(RecoveryError::Divergence { .. }) => {}
        other => panic!("expected Divergence, got {other:?}"),
    }
}

#[test]
fn forged_commit_hash_is_a_typed_mismatch() {
    let dir = tmp_dir("forge");
    persisted_run(&dir, 8, 1, 10, false);
    // find the last commit record in the last segment and flip its
    // recorded state hash, re-framing with a *valid* checksum — a forged
    // log, not a torn one
    let seg = last_segment(&dir);
    let bytes = std::fs::read(&seg).expect("reads");
    let spans = record_spans(&seg);
    let commit_span = spans
        .iter()
        .rev()
        .find(|(s, _)| {
            wal::decode_event(&bytes[s + 12..bytes.len().min(s + 12 + record_len(&bytes, *s))])
                .map(|e| matches!(e, Event::Commit { .. }))
                .unwrap_or(false)
        })
        .copied();
    let (start, end) = commit_span.expect("a commit record exists");
    let mut event = wal::decode_event(&bytes[start + 12..end]).expect("decodes");
    if let Event::Commit { root_hash, .. } = &mut event {
        *root_hash ^= 0xffff;
    }
    let payload = wal::encode_event(&event);
    let mut framed = Vec::new();
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&vpdt::store::history::fnv1a_64(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    assert_eq!(framed.len(), end - start, "re-encoding is byte-stable");
    let mut forged = bytes.clone();
    forged[start..end].copy_from_slice(&framed);
    std::fs::write(&seg, &forged).expect("writes");

    match wal::recover(&dir, &Omega::empty(), RecoveryOptions::default()) {
        Err(RecoveryError::HashMismatch { .. }) => {}
        other => panic!("expected HashMismatch, got {other:?}"),
    }
}

#[test]
fn undeclared_shape_is_typed() {
    let dir = tmp_dir("shape");
    persisted_run(&dir, 9, 1, 10, false);
    // append a commit referencing a shape nothing declares
    let r = wal::recover(&dir, &Omega::empty(), RecoveryOptions::default()).expect("recovers");
    let payload = wal::encode_event(&Event::Commit {
        tx: r.next_tx,
        based_on: r.version,
        version: r.version + 1,
        writes: vec!["R0".to_string()],
        shape: 999,
        bindings: vec![],
        root_hash: 0,
    });
    let mut framed = Vec::new();
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&vpdt::store::history::fnv1a_64(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    let seg = last_segment(&dir);
    let mut bytes = std::fs::read(&seg).expect("reads");
    bytes.extend_from_slice(&framed);
    std::fs::write(&seg, &bytes).expect("writes");

    match wal::recover(&dir, &Omega::empty(), RecoveryOptions::default()) {
        Err(RecoveryError::UnknownShape { shape: 999, .. }) => {}
        other => panic!("expected UnknownShape, got {other:?}"),
    }
}

fn record_len(bytes: &[u8], start: usize) -> usize {
    u32::from_le_bytes(bytes[start..start + 4].try_into().expect("4 bytes")) as usize
}

/// Writes `events` (and the shape declarations they need) as a fresh log
/// in `dir` over `genesis` — a tampered copy of a real run's log, framed
/// with valid checksums.
fn write_log(dir: &Path, genesis: &wal::Checkpoint, r: &wal::Recovered, events: &[Event]) {
    let mut writer = wal::WalWriter::create(dir, fast_wal()).expect("creates");
    wal::write_checkpoint(dir, genesis).expect("writes genesis");
    let shapes = r.templates.iter().map(|(id, template)| wal::Record::Shape {
        id: *id,
        template: template.clone(),
    });
    for record in shapes.chain(events.iter().cloned().map(wal::Record::Event)) {
        writer.append(&record).expect("appends");
    }
    writer.sync().expect("syncs");
}

/// The fail-fast path (recovery) and the collect-all path (cold audit)
/// share one replay kernel, so every tampering recovery refuses must also
/// fail the cold audit — with the very same fault, naming the same tx.
#[test]
fn recovery_and_cold_audit_agree_on_every_tamper() {
    let dir = tmp_dir("tamper-source");
    persisted_run(&dir, 21, 1, 12, false);
    let omega = Omega::empty();
    let genesis = wal::read_genesis(&dir).expect("genesis");
    let clean =
        wal::recover(&dir, &omega, RecoveryOptions { from_genesis: true }).expect("recovers");
    // Tamper with commits that changed the state: forging a no-op commit
    // may leave the history it claims equally valid.
    let mut root = vpdt::store::history::root_hash(&genesis.db);
    let mut commits = Vec::new();
    for (i, e) in clean.events.iter().enumerate() {
        if let Event::Commit { root_hash, .. } = e {
            if std::mem::replace(&mut root, *root_hash) != *root_hash {
                commits.push(i);
            }
        }
    }
    assert!(
        commits.len() >= 2,
        "need at least two state-changing commits"
    );
    let (first, second) = (commits[0], commits[1]);

    type Tamper = fn(&mut Vec<Event>, usize, usize);
    let cases: [(&str, Tamper); 4] = [
        ("forged root", |events, first, _| {
            if let Event::Commit { root_hash, .. } = &mut events[first] {
                *root_hash ^= 0xffff;
            }
        }),
        ("reordered commit", |events, first, second| {
            // Swap two commits' payloads but keep the versions in
            // sequence: a different serialization.
            events.swap(first, second);
            let (Event::Commit { version: a, .. }, Event::Commit { version: b, .. }) =
                (events[first].clone(), events[second].clone())
            else {
                unreachable!("both are commits")
            };
            if let Event::Commit { version, .. } = &mut events[first] {
                *version = b;
            }
            if let Event::Commit { version, .. } = &mut events[second] {
                *version = a;
            }
        }),
        ("unknown shape", |events, first, _| {
            if let Event::Commit { shape, .. } = &mut events[first] {
                *shape = 999;
            }
        }),
        ("forged binding", |events, first, _| {
            if let Event::Commit { bindings, .. } = &mut events[first] {
                bindings[0] = vpdt::logic::Elem(bindings[0].0 + 1);
            }
        }),
    ];
    for (name, tamper) in cases {
        let mut events = clean.events.clone();
        tamper(&mut events, first, second);
        let tampered = tmp_dir("tampered");
        write_log(&tampered, &genesis, &clean, &events);

        let fault = wal::recover(&tampered, &omega, RecoveryOptions { from_genesis: true })
            .expect_err(name)
            .to_string();
        let verdict = cold_audit_from(
            &clean.alpha,
            &omega,
            0,
            &genesis.db,
            &clean.db,
            &events,
            &clean.templates,
        );
        assert!(!verdict.ok(), "{name}: the cold audit accepted it");
        assert!(
            verdict.problems.contains(&fault),
            "{name}: recovery says `{fault}` but the cold audit says {verdict}"
        );
        let (_, verdict) = cold_audit_dir(&tampered, &omega).expect(name);
        assert!(
            verdict.problems.contains(&fault),
            "{name}: recovery says `{fault}` but the one-pass audit says {verdict}"
        );
    }
}

/// A serving history reads back what a cold recovery reads: a persisted
/// server's `history_events()` — its log read back from the floor
/// checkpoint while it serves, staged records written first — equals what
/// a genesis recovery decodes after the server is dropped: commits,
/// cross-checked guard evaluations and aborts alike. Both sides come from
/// the same log, so this checks the live read-back against the cold
/// reader, not memory against disk.
#[test]
fn in_memory_history_equals_the_recovered_log() {
    let dir = tmp_dir("arena");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(29, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial, alpha)
        .workers(2)
        .persist_with(&dir, fast_wal())
        .build()
        .expect("persisted server starts");
    let jobs = workload::sharded_jobs(29, 4, 60, RELS, UNIVERSE);
    workload::serve_chunked(&server, &jobs, 60);
    let events = server.history_events();
    assert_eq!(server.history_len(), events.len());
    assert!(events.iter().any(|e| matches!(e, Event::Commit { .. })));
    assert!(events.iter().any(|e| matches!(e, Event::Abort { .. })));
    drop(server);
    let recovered = wal::recover(
        &dir,
        &Omega::empty(),
        RecoveryOptions { from_genesis: true },
    )
    .expect("genesis recovery");
    assert_eq!(recovered.events, events);
    let _ = std::fs::remove_dir_all(&dir);
}

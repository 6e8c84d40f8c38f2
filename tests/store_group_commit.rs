//! Group commit: the publish/durable split under fire.
//!
//! * a server dropped without `shutdown()` mid-batch loses no *resolved*
//!   ticket — every `TxOutcome::Committed` observed through `wait()` is in
//!   the recovered log;
//! * truncating a group-committed log at **every byte boundary of its last
//!   record** still recovers a prefix-consistent state whose cold audit
//!   passes;
//! * the durable set is a prefix-closed subset of the serialization order
//!   (property-tested over seeds, worker counts and truncation points);
//! * segment retention deletes checkpoint-covered segments (opt-out via
//!   `WalOptions::retain_segments`) and the floor-based cold audit still
//!   verifies what survives.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use vpdt::eval::Omega;
use vpdt::store::wal::{self, RecoveryOptions};
use vpdt::store::{cold_audit_from, workload, Event, StoreBuilder, TxOutcome, WalOptions};
use vpdt::tx::program::Program;

const RELS: usize = 3;
const UNIVERSE: u64 = 4;

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vpdt-group-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Real group commit: batching across workers, small segments so
/// rotation is exercised, retention off unless a test opts in.
fn group_wal() -> WalOptions {
    WalOptions {
        segment_bytes: 1024,
        retain_segments: true,
    }
}

fn recover_and_audit(dir: &Path) -> wal::Recovered {
    let r = wal::recover(dir, &Omega::empty(), RecoveryOptions::default()).expect("recovers");
    let verdict = cold_audit_from(
        &r.alpha,
        &Omega::empty(),
        r.base_version,
        &r.initial,
        &r.db,
        &r.events,
        &r.templates,
    );
    assert!(verdict.ok(), "cold audit failed: {verdict}");
    r
}

fn committed_versions(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Commit { version, .. } => Some(*version),
            _ => None,
        })
        .collect()
}

/// The byte spans of every record in a segment, walked with the framing
/// `[u32 len][u64 fnv1a][payload]`.
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

/// Crash mid-batch: submit a pipelined burst through concurrent sessions,
/// wait for only a prefix of the tickets, then drop the server without
/// shutdown. Every ticket that resolved `Committed` — whether the client
/// waited or the drop-drain resolved it — must be in the recovered log:
/// resolution happens strictly after the covering fsync.
#[test]
fn drop_mid_batch_loses_no_resolved_ticket() {
    let dir = tmp_dir("dropmid");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(31, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial, alpha)
        .workers(4)
        .persist_with(&dir, group_wal())
        .build()
        .expect("persisted server starts");
    let jobs = workload::sharded_jobs(31, 3, 30, RELS, UNIVERSE);
    let mut acknowledged = Vec::new();
    // Tickets are independent of the session's borrow: the session handle
    // ends with this block, the tickets live on.
    let tickets: Vec<_> = {
        let session = server.session();
        jobs.iter().map(|job| session.submit(job.clone())).collect()
    };
    // Wait for only the first third — the rest are mid-flight (queued,
    // published, or awaiting their covering fsync) when the server drops.
    for ticket in tickets.iter().take(jobs.len() / 3) {
        if let TxOutcome::Committed { version } = ticket.wait() {
            acknowledged.push(version);
        }
    }
    drop(server); // crash-shaped: drains workers and flusher, no checkpoint
                  // Everything resolved during the drain counts as acknowledged too.
    for ticket in &tickets {
        match ticket.try_outcome() {
            Some(TxOutcome::Committed { version }) => acknowledged.push(version),
            Some(_) => {}
            None => panic!("drop left ticket {} unresolved", ticket.id()),
        }
    }
    acknowledged.sort_unstable();
    acknowledged.dedup();
    assert!(!acknowledged.is_empty(), "the workload committed something");

    let r = recover_and_audit(&dir);
    assert!(
        r.commits_replayed > 0,
        "no clean checkpoint: replay happened"
    );
    let durable: std::collections::BTreeSet<u64> =
        committed_versions(&r.events).into_iter().collect();
    for v in &acknowledged {
        assert!(
            durable.contains(v),
            "resolved ticket at version {v} lost by recovery"
        );
    }
}

/// The PR-4 crash harness, under group commit: truncate the log at every
/// byte boundary of the last record and recover each time. Every cut must
/// yield a prefix-consistent state whose cold audit passes.
#[test]
fn truncation_at_every_byte_boundary_stays_prefix_consistent() {
    let dir = tmp_dir("truncate");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(47, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial, alpha)
        .workers(2)
        .persist_with(&dir, group_wal())
        .build()
        .expect("starts");
    let jobs = workload::sharded_jobs(47, 1, 25, RELS, UNIVERSE);
    workload::serve_chunked(&server, &jobs, 25);
    drop(server);

    let seg = last_segment(&dir);
    let spans = record_spans(&seg);
    let (last_start, last_end) = *spans.last().expect("segment has records");
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
        let versions = committed_versions(&r.events);
        assert_eq!(
            versions,
            (1..=r.version).collect::<Vec<u64>>(),
            "cut {cut}: durable commits form a gapless prefix of the serialization order"
        );
        let _ = std::fs::remove_dir_all(&copy);
    }
}

/// A burst through the real server: every ticket resolves `Committed`
/// after its publication, the flusher resolved exactly the committed
/// transactions, and its batches account for no more than that — an ack
/// resolved inside `enqueue` (the flusher raced ahead of it) counts as
/// flushed but forms no batch. The exact one-fsync-per-burst shape is the
/// `wal` unit test `one_fsync_resolves_every_ack_below_the_watermark`.
#[test]
fn a_burst_resolves_every_ticket_durable() {
    let dir = tmp_dir("batch");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(3, RELS, UNIVERSE, 0.5);
    let burst = 12u64;
    let server = StoreBuilder::new(initial, alpha)
        .workers(2)
        .persist_with(&dir, group_wal())
        .build()
        .expect("starts");
    let tickets: Vec<_> = {
        let session = server.session();
        (0..burst)
            .map(|i| session.submit(Program::delete_consts("R0", [i % UNIVERSE, i % UNIVERSE])))
            .collect()
    };
    for ticket in &tickets {
        assert!(matches!(ticket.wait(), TxOutcome::Committed { .. }));
        // Resolution implies publication: the applied version is visible.
        assert!(ticket.applied().is_some());
    }
    let report = server.shutdown();
    let flush = report.flush.expect("durable server reports flush stats");
    assert_eq!(flush.flushed_commits, report.exec.committed as u64);
    assert_eq!(flush.flush_failures, 0);
    let batched: u64 = flush
        .batch_sizes
        .iter()
        .map(|(k, count)| *k as u64 * count)
        .sum();
    assert!(
        batched <= flush.flushed_commits,
        "batches resolve no more than the flushed commits: {flush:?}"
    );
    recover_and_audit(&dir);
}

/// In-memory servers bypass the durable phase entirely: no flusher, no
/// flush stats, tickets resolve at publish.
#[test]
fn in_memory_servers_have_no_durable_phase() {
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(5, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial, alpha)
        .workers(2)
        .build()
        .expect("starts");
    assert!(server.flush_stats().is_none());
    let outcome = server
        .session()
        .submit_sync(Program::delete_consts("R0", [0, 0]));
    assert!(matches!(outcome, TxOutcome::Committed { .. }));
    let report = server.shutdown();
    assert!(report.flush.is_none());
}

/// Segment retention: a checkpoint deletes the segments it fully covers
/// (unless `retain_segments` opts out), the floor-based recovery and cold
/// audit still verify everything that survives, and a resumed server keeps
/// serving.
#[test]
fn checkpoint_retention_deletes_covered_segments() {
    for retain in [false, true] {
        let dir = tmp_dir(if retain { "retain" } else { "gc" });
        let alpha = workload::sharded_fd_constraint(RELS);
        let initial = workload::sharded_initial(19, RELS, UNIVERSE, 0.5);
        let mut opts = group_wal();
        opts.retain_segments = retain;
        let server = StoreBuilder::new(initial, alpha)
            .workers(2)
            .persist_with(&dir, opts.clone())
            .build()
            .expect("starts");
        let jobs = workload::sharded_jobs(19, 2, 40, RELS, UNIVERSE);
        let (first, second) = jobs.split_at(jobs.len() / 2);
        workload::serve_chunked(&server, first, 20);
        let covered = server.checkpoint().expect("mid-run checkpoint");
        let first_seg_survives = dir.join("wal-00000000.log").exists();
        if retain {
            assert!(first_seg_survives, "retention opt-out keeps every segment");
        } else {
            assert!(
                !first_seg_survives,
                "the checkpoint at offset {covered} covers the first segment: deleted"
            );
        }
        workload::serve_chunked(&server, second, 20);
        drop(server); // crash-shaped: the tail after the checkpoint replays

        let r = recover_and_audit(&dir);
        if retain {
            assert_eq!(r.base_version, 0, "full log: the audit floor is genesis");
        } else {
            assert!(
                r.base_version > 0,
                "gc'd log: the audit floor is the covering checkpoint"
            );
            // The standalone pass agrees there is nothing further to delete.
            let again = wal::gc_segments(&dir, covered).expect("gc runs");
            assert!(again.is_empty(), "checkpoint-time gc already converged");
        }

        // A resumed server accepts the (possibly gc'd) directory and serves.
        let server = StoreBuilder::recover(&dir)
            .wal_options(opts)
            .workers(2)
            .build()
            .expect("resumes after retention");
        let outcome = server
            .session()
            .submit_sync(Program::delete_consts("R0", [0, 0]));
        assert!(matches!(outcome, TxOutcome::Committed { .. }));
        server.shutdown();
        recover_and_audit(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The durable set is a **prefix-closed subset of the serialization
    /// order**, wherever the crash lands: run a group-committed workload,
    /// cut the log at an arbitrary record boundary of the last segment
    /// (a crash between fsyncs), and the recovered commits are exactly
    /// versions `1..=k` for some `k` — a prefix of the full run, never a
    /// subset with holes.
    #[test]
    fn durable_set_is_a_prefix_of_the_serialization_order(
        seed in 0u64..10_000,
        workers in 1usize..5,
        cut_sel in 0usize..1000,
    ) {
        let dir = tmp_dir("prefix");
        let alpha = workload::sharded_fd_constraint(RELS);
        let initial = workload::sharded_initial(seed, RELS, UNIVERSE, 0.5);
        let server = StoreBuilder::new(initial, alpha)
            .workers(workers)
            .persist_with(&dir, group_wal())
            .build()
            .expect("starts");
        let jobs = workload::sharded_jobs(seed, 2, 15, RELS, UNIVERSE);
        workload::serve_chunked(&server, &jobs, 15);
        drop(server);

        let full = recover_and_audit(&dir);
        let full_versions: Vec<u64> = committed_versions(&full.events);
        prop_assert_eq!(&full_versions, &(1..=full.version).collect::<Vec<u64>>());

        // Cut at a record boundary of the last segment: a crash that lost
        // everything after some fsync.
        let seg = last_segment(&dir);
        let spans = record_spans(&seg);
        let (cut_at, _) = spans[cut_sel % spans.len()];
        if cut_at > 0 {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&seg)
                .expect("opens");
            f.set_len(cut_at as u64).expect("truncates");
            drop(f);
        }
        let r = recover_and_audit(&dir);
        let versions = committed_versions(&r.events);
        prop_assert_eq!(&versions, &(1..=r.version).collect::<Vec<u64>>(),
            "durable commits are prefix-closed");
        prop_assert!(r.version <= full.version, "and a subset of the full run");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Cross-shard two-phase commit under crash fire.
//!
//! Each test abandons a `ShardedStore` without a clean shutdown (no
//! checkpoint, no watermark — exactly what a killed process leaves
//! behind), and some then cut a shard's log back to what a power loss
//! could leave of it: branch `Cross` records are not fsync'd when they
//! commit, so any of them may be missing. The tests recover from the
//! shard WALs plus the decision log and demand the recovery-semantics
//! table from the `shard` module docs:
//!
//! * lost **after the decision fsync** (no branch applied): recovery
//!   rolls every branch forward;
//! * lost **between shard commits** (first branch applied): the missing
//!   branch is completed and the applied one is not duplicated;
//! * every *acknowledged* cross-shard commit survives;
//!
//! and after each recovery the sharded cold audit (per-shard replay plus
//! decision-log cross-checks) passes on the final artifacts. Every other
//! window — and a crash after each single file operation of a sharded run
//! — is enumerated by the store crate's crash harness.

use std::path::{Path, PathBuf};
use vpdt::eval::Omega;
use vpdt::logic::Elem;
use vpdt::store::history::root_hash;
use vpdt::store::metrics::names;
use vpdt::store::replay;
use vpdt::store::shard::ROUTED_SESSION;
use vpdt::store::wal::{self, DecisionBranch, DecisionRecord, Record, WalError, WalWriter};
use vpdt::store::{
    cold_audit_sharded, workload, CrossOutcome, Event, Routed, ShardedBuilder, ShardedStore,
    StoreError, TxOutcome, WalOptions,
};
use vpdt::tx::program::Program;

const RELS: usize = 2;
const SHARDS: usize = 2;

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vpdt-shard-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Log options for these tests: full retention, so the final cold audit
/// replays from genesis.
fn fast_wal() -> WalOptions {
    WalOptions {
        retain_segments: true,
        ..WalOptions::default()
    }
}

/// A fresh two-shard store over an empty database (every insert below is
/// then guard-clean under the per-relation fd constraint).
fn fresh(dir: &Path) -> ShardedStore {
    let initial = workload::sharded_initial(11, RELS, 6, 0.0);
    let alpha = workload::sharded_fd_constraint(RELS);
    ShardedBuilder::new(initial, alpha, SHARDS)
        .workers_per_shard(1)
        .persist_with(dir, fast_wal())
        .build()
        .expect("sharded store builds")
}

fn recover(dir: &Path) -> ShardedStore {
    ShardedBuilder::recover(dir)
        .workers_per_shard(1)
        .wal_options(fast_wal())
        .build()
        .expect("sharded store recovers")
}

fn audit_ok(dir: &Path) {
    let report = cold_audit_sharded(dir, &Omega::empty()).expect("cold audit runs");
    assert!(report.ok(), "sharded cold audit failed: {report:?}");
}

/// A two-shard transaction: `R0(a, b)` on shard 0, `R1(c, d)` on shard 1.
fn cross(a: u64, b: u64, c: u64, d: u64) -> Program {
    Program::seq([
        Program::insert_consts("R0", [a, b]),
        Program::insert_consts("R1", [c, d]),
    ])
}

fn t(a: u64, b: u64) -> [Elem; 2] {
    [Elem(a), Elem(b)]
}

#[test]
fn crash_after_decision_rolls_every_branch_forward() {
    let dir = tmp_dir("after-decision");
    let store = fresh(&dir);
    let routed = store
        .submit(ROUTED_SESSION, cross(1, 2, 3, 4))
        .expect("cross commit");
    assert!(matches!(
        routed,
        Routed::Cross(CrossOutcome::Committed { .. })
    ));
    drop(store);
    // Decided but applied nowhere: neither branch reached its disk.
    for s in 0..SHARDS {
        cut_last_cross(&dir.join(format!("shard-{s}")));
    }

    let recovered = recover(&dir);
    // The decision is durable, so recovery must roll it forward on both
    // shards — presumed-abort stops at the decision fsync, not before.
    assert!(recovered.shard(0).snapshot().db.contains("R0", &t(1, 2)));
    assert!(recovered.shard(1).snapshot().db.contains("R1", &t(3, 4)));
    recovered.shutdown();
    audit_ok(&dir);
}

#[test]
fn crash_between_shard_commits_completes_the_missing_branch() {
    let dir = tmp_dir("between-commits");
    let store = fresh(&dir);
    store
        .submit(ROUTED_SESSION, cross(5, 6, 7, 8))
        .expect("cross commit");
    drop(store);
    // Branches commit in ascending shard order: shard 0's reached its
    // disk, shard 1's did not.
    cut_last_cross(&dir.join("shard-1"));

    let recovered = recover(&dir);
    assert!(recovered.shard(0).snapshot().db.contains("R0", &t(5, 6)));
    assert!(recovered.shard(1).snapshot().db.contains("R1", &t(7, 8)));
    // The already-applied branch must not be applied twice: exactly one
    // Cross event for this decision in shard 0's history.
    let cross_events = recovered
        .shard(0)
        .history_events()
        .iter()
        .filter(|e| matches!(e, Event::Cross { decision: 0, .. }))
        .count();
    assert_eq!(cross_events, 1, "roll-forward must be idempotent");
    assert_eq!(recovered.shard(0).version(), 1);
    assert_eq!(recovered.shard(1).version(), 1);
    recovered.shutdown();
    audit_ok(&dir);
}

/// Decision ids are allocated before the prepare loop, so a coordinator
/// that waited out another's holds appends its lower-id decision *after*
/// the higher-id one it waited for. Roll-forward must replay in append
/// order — the order holds released — not id order. This crafts exactly
/// that inverted log (id 1 inserts a tuple, id 0 — appended later —
/// deletes it again) with both shard `Cross` tails "lost", and demands
/// the recovered state reflect append order: the tuple is gone.
#[test]
fn roll_forward_replays_decisions_in_append_order_not_id_order() {
    let dir = tmp_dir("append-order");
    let store = fresh(&dir);
    store.shutdown();

    let tuple = Program::insert_consts("R0", [9, 9]);
    let undo = Program::delete_consts("R0", [9, 9]);
    let (mut decisions, _) =
        WalWriter::resume(dir.join("decisions"), fast_wal()).expect("decision log resumes");
    // First appended: the decision that won the race for the holds, with
    // the *higher* id (its coordinator allocated after the loser).
    decisions
        .append(&Record::Decision(DecisionRecord {
            id: 1,
            tx: 0,
            branches: vec![DecisionBranch {
                shard: 0,
                tx: 0,
                based_on: 0,
                program: tuple.clone(),
            }],
        }))
        .expect("appends");
    // Second appended: the lower-id decision that blocked on the first
    // one's holds and saw its committed state (based_on 1).
    decisions
        .append(&Record::Decision(DecisionRecord {
            id: 0,
            tx: 1,
            branches: vec![DecisionBranch {
                shard: 0,
                tx: 1,
                based_on: 1,
                program: undo,
            }],
        }))
        .expect("appends");
    decisions.sync().expect("syncs");
    drop(decisions);

    let recovered = recover(&dir);
    // Append order: insert then delete — the tuple must be gone. Id-order
    // replay would run the delete first (a no-op) and leave it present.
    assert!(
        !recovered.shard(0).snapshot().db.contains("R0", &t(9, 9)),
        "replay must follow decision-log append order, not id order"
    );
    assert_eq!(recovered.shard(0).version(), 2, "both branches applied");
    recovered.shutdown();
    audit_ok(&dir);
}

#[test]
fn acknowledged_cross_commits_survive_an_unclean_exit() {
    let dir = tmp_dir("acked");
    let store = fresh(&dir);
    let mut acked_versions = Vec::new();
    for i in 0..5u64 {
        let (a, b) = (2 * i, 2 * i + 1);
        let routed = store
            .submit(ROUTED_SESSION, cross(a, b, a, b))
            .expect("cross commit");
        let Routed::Cross(CrossOutcome::Committed { versions, .. }) = routed else {
            panic!("expected a cross commit, got {routed:?}");
        };
        acked_versions = versions;
    }
    drop(store); // no shutdown: no checkpoint, no watermark

    let recovered = recover(&dir);
    for i in 0..5u64 {
        let (a, b) = (2 * i, 2 * i + 1);
        assert!(
            recovered.shard(0).snapshot().db.contains("R0", &t(a, b)),
            "acknowledged R0({a}, {b}) must survive"
        );
        assert!(
            recovered.shard(1).snapshot().db.contains("R1", &t(a, b)),
            "acknowledged R1({a}, {b}) must survive"
        );
    }
    // The recovered shards sit exactly at the last acknowledged versions.
    for &(shard, version) in &acked_versions {
        assert_eq!(recovered.shard(shard as usize).version(), version);
    }
    recovered.shutdown();
    audit_ok(&dir);
}

/// Retention must not resurrect what a later commit undid. A cross commit
/// inserts `R0(10, 11)`, a shard-0 commit deletes it again, and a shard-0
/// checkpoint then deletes the segment holding the decision's `Cross`
/// record. No clean shutdown follows, so no watermark covers the
/// decision: recovery must still see it as applied (the checkpoint
/// records it) instead of rolling it forward a second time.
#[test]
fn checkpoint_retention_does_not_resurrect_an_applied_cross_branch() {
    let dir = tmp_dir("retention-resurrect");
    let wal = WalOptions {
        retain_segments: false,
        segment_bytes: 256,
    };
    let initial = workload::sharded_initial(11, RELS, 6, 0.0);
    let alpha = workload::sharded_fd_constraint(RELS);
    let store = ShardedBuilder::new(initial, alpha, SHARDS)
        .workers_per_shard(1)
        .persist_with(&dir, wal.clone())
        .build()
        .expect("sharded store builds");
    let routed = store
        .submit(ROUTED_SESSION, cross(10, 11, 12, 13))
        .expect("cross commit");
    assert!(matches!(
        routed,
        Routed::Cross(CrossOutcome::Committed { .. })
    ));
    let single = |program: Program| match store.submit(ROUTED_SESSION, program) {
        Ok(Routed::Single { ticket, .. }) => ticket.wait(),
        other => panic!("expected a single-shard submission, got {other:?}"),
    };
    assert!(matches!(
        single(Program::delete_consts("R0", [10, 11])),
        TxOutcome::Committed { .. }
    ));
    for i in 0..20u64 {
        assert!(matches!(
            single(Program::insert_consts("R0", [100 + i, 0])),
            TxOutcome::Committed { .. }
        ));
    }
    store.shard(0).checkpoint().expect("shard 0 checkpoints");
    let survivors = wal::recover(dir.join("shard-0"), &Omega::empty(), Default::default())
        .expect("shard 0 recovers");
    assert!(
        !survivors
            .events
            .iter()
            .any(|e| matches!(e, Event::Cross { .. })),
        "the checkpoint must have retired the segment holding the Cross record"
    );
    drop(store); // no shutdown: no watermark

    let recovered = ShardedBuilder::recover(&dir)
        .workers_per_shard(1)
        .wal_options(wal)
        .build()
        .expect("sharded store recovers");
    assert!(
        !recovered.shard(0).snapshot().db.contains("R0", &t(10, 11)),
        "a deleted tuple came back: the applied branch was rolled forward again"
    );
    assert!(recovered.shard(1).snapshot().db.contains("R1", &t(12, 13)));
    assert_eq!(recovered.shard(0).version(), 22, "nothing was re-applied");
    recovered.shutdown();
    audit_ok(&dir);
}

/// Only a missing watermark means "nothing applied yet"; one that cannot
/// be read or parsed is a typed error, not a silent 0 that would reopen
/// every decision for roll-forward.
#[test]
fn corrupt_watermark_is_a_typed_error() {
    let dir = tmp_dir("bad-watermark");
    let store = fresh(&dir);
    store
        .submit(ROUTED_SESSION, cross(1, 2, 3, 4))
        .expect("cross commit");
    store.shutdown();
    let watermark = dir.join("decisions").join("applied-through");
    assert!(watermark.is_file(), "clean shutdown writes the watermark");

    std::fs::write(&watermark, "not a number\n").expect("corrupts");
    match ShardedBuilder::recover(&dir).build() {
        Err(StoreError::Wal(WalError::BadCheckpoint { .. })) => {}
        other => panic!("expected BadCheckpoint, got {other:?}"),
    }
    match cold_audit_sharded(&dir, &Omega::empty()) {
        Err(StoreError::Wal(WalError::BadCheckpoint { .. })) => {}
        other => panic!("expected BadCheckpoint, got {other:?}"),
    }

    // An unreadable watermark (here: a directory in its place) is an I/O
    // error.
    std::fs::remove_file(&watermark).expect("removes");
    std::fs::create_dir(&watermark).expect("mkdir");
    match ShardedBuilder::recover(&dir).build() {
        Err(StoreError::Wal(WalError::Io { .. })) => {}
        other => panic!("expected Io, got {other:?}"),
    }
    match cold_audit_sharded(&dir, &Omega::empty()) {
        Err(StoreError::Wal(WalError::Io { .. })) => {}
        other => panic!("expected Io, got {other:?}"),
    }

    // A missing one means nothing is known applied: recovery rolls
    // nothing forward twice and the audit passes.
    std::fs::remove_dir(&watermark).expect("rmdir");
    recover(&dir).shutdown();
    audit_ok(&dir);
}

/// Sharded recovery replays each shard's log once (roll-forward hands its
/// recovery to the shard server), and the sharded cold audit makes one
/// pass per log. Recovery and audit replay on the calling thread, so the
/// thread's replay counter measures exactly this test's replays.
#[test]
fn each_shard_log_is_replayed_once() {
    let dir = tmp_dir("replay-once");
    let store = fresh(&dir);
    for i in 0..5u64 {
        store
            .submit(ROUTED_SESSION, cross(2 * i, 2 * i + 1, 2 * i, 2 * i + 1))
            .expect("cross commit");
    }
    store
        .submit(ROUTED_SESSION, cross(50, 51, 52, 53))
        .expect("cross commit");
    drop(store); // no checkpoint: every commit is in the log tail
                 // The last decision's branches were lost with the unsynced tails.
    for s in 0..SHARDS {
        cut_last_cross(&dir.join(format!("shard-{s}")));
    }

    // Five logged commits per shard plus one rolled-forward branch each.
    let before = replay::commits_replayed_on_this_thread();
    let recovered = recover(&dir);
    assert_eq!(replay::commits_replayed_on_this_thread() - before, 12);
    assert_eq!(recovered.shard(0).version(), 6);
    assert_eq!(recovered.shard(1).version(), 6);
    drop(recovered);

    let before = replay::commits_replayed_on_this_thread();
    audit_ok(&dir);
    assert_eq!(replay::commits_replayed_on_this_thread() - before, 12);
}

/// Cuts the last segment of the shard log in `dir` back to just before
/// its last `Cross` record: what a power loss leaves when that branch
/// record had not been fsync'd yet.
fn cut_last_cross(dir: &Path) {
    let seg = last_segment(dir);
    let cut = last_cross_start(&seg);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("opens segment")
        .set_len(cut as u64)
        .expect("truncates");
}

/// The byte offset where the last `Cross` record of `segment` starts,
/// walking the documented framing `[u32 len][u64 fnv1a][payload]`.
fn last_cross_start(segment: &Path) -> usize {
    let bytes = std::fs::read(segment).expect("reads segment");
    let mut pos = 0;
    let mut last = None;
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let payload = &bytes[pos + 12..pos + 12 + len];
        if let Ok(Event::Cross { .. }) = wal::decode_event(payload) {
            last = Some(pos);
        }
        pos += 12 + len;
    }
    last.expect("the segment holds a Cross record")
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

/// Each shard's (version, root hash of its state).
fn shard_heads(store: &ShardedStore) -> Vec<(u64, u64)> {
    (0..store.num_shards())
        .map(|s| {
            let snap = store.shard(s).snapshot();
            (snap.version, root_hash(&snap.db))
        })
        .collect()
}

/// Coordinators whose footprints overlap wait for each other's holds
/// instead of spinning: four threads moving tuples back and forth between
/// the same two relations all finish, each shard prepare waits at most
/// once, and what they committed survives a clean shutdown and recovery
/// and passes the sharded cold audit. The moves mix deletes and inserts
/// over a small universe, so some of them fail the fd guard and abort.
#[test]
fn contended_cross_moves_block_instead_of_spinning() {
    const THREADS: u64 = 4;
    const MOVES: u64 = 50;
    let dir = tmp_dir("contended");
    let store = std::sync::Arc::new(fresh(&dir));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = std::sync::Arc::clone(&store);
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                for i in 0..MOVES {
                    let (a, b) = ((t + i) % 4, (t * 7 + i) % 3);
                    let (from, to) = if (t + i) % 2 == 0 {
                        ("R0", "R1")
                    } else {
                        ("R1", "R0")
                    };
                    let mv = Program::seq([
                        Program::delete_consts(from, [a, b]),
                        Program::insert_consts(to, [a, b]),
                    ]);
                    let routed = store.submit(ROUTED_SESSION, mv).expect("cross move runs");
                    assert!(matches!(routed, Routed::Cross(_)), "{routed:?}");
                }
                done_tx.send(t).expect("reports");
            })
        })
        .collect();
    drop(done_tx);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    for _ in 0..THREADS {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        done_rx
            .recv_timeout(left)
            .expect("every cross submit returns within the 60 s watchdog");
    }
    for w in workers {
        w.join().expect("mover thread");
    }
    let store = std::sync::Arc::into_inner(store).expect("movers joined");

    let coordinator = store.metrics();
    let committed = coordinator.counter(names::CROSS_COMMITTED);
    let aborted = coordinator.counter(names::CROSS_ABORTED);
    let crosses = committed + aborted;
    assert_eq!(crosses, THREADS * MOVES);
    assert!(committed > 0 && aborted > 0, "{committed} / {aborted}");
    let waits = coordinator.counter(names::CROSS_PREPARE_RETRIES);
    assert!(
        waits <= 2 * crosses,
        "{waits} prepare waits for {crosses} two-shard crosses: the coordinator spun"
    );

    let heads = shard_heads(&store);
    store.shutdown();
    let recovered = recover(&dir);
    assert_eq!(shard_heads(&recovered), heads);
    recovered.shutdown();
    audit_ok(&dir);
}

/// A branch `Cross` record is not fsync'd when it commits: until the
/// shard's next fsync, a power loss may drop it. Cutting the shard's log
/// back to just before its last `Cross` record models exactly that loss;
/// the decision record is durable, so recovery rolls the branch forward
/// and the acknowledged state is whole.
#[test]
fn a_branch_lost_with_the_unsynced_tail_rolls_forward() {
    let dir = tmp_dir("lost-branch");
    let store = fresh(&dir);
    let mut acked = Vec::new();
    for i in 0..4u64 {
        let routed = store
            .submit(ROUTED_SESSION, cross(i, 10 + i, i, 20 + i))
            .expect("cross commit");
        let Routed::Cross(CrossOutcome::Committed { versions, .. }) = routed else {
            panic!("expected a cross commit, got {routed:?}");
        };
        acked = versions;
    }
    let heads = shard_heads(&store);
    drop(store); // no shutdown: no checkpoint syncs the tail

    cut_last_cross(&dir.join("shard-1"));

    let recovered = recover(&dir);
    assert!(recovered.shard(1).snapshot().db.contains("R1", &t(3, 23)));
    for &(shard, version) in &acked {
        assert_eq!(recovered.shard(shard as usize).version(), version);
    }
    assert_eq!(shard_heads(&recovered), heads);
    recovered.shutdown();
    audit_ok(&dir);
}

/// Clean shutdown writes the applied-through watermark only after every
/// shard's clean checkpoint. A crash between the two leaves the previous
/// watermark (here: the first shutdown's) behind, while the checkpoints
/// have already retired the segments holding the newer `Cross` records.
/// The checkpoints record those decisions as applied, so recovery neither
/// loses nor re-applies a branch.
#[test]
fn crash_between_shard_checkpoints_and_watermark_loses_no_branch() {
    let dir = tmp_dir("watermark-window");
    let wal = WalOptions {
        retain_segments: false,
        segment_bytes: 256,
    };
    let initial = workload::sharded_initial(11, RELS, 6, 0.0);
    let alpha = workload::sharded_fd_constraint(RELS);
    let store = ShardedBuilder::new(initial, alpha, SHARDS)
        .workers_per_shard(1)
        .persist_with(&dir, wal.clone())
        .build()
        .expect("sharded store builds");
    store
        .submit(ROUTED_SESSION, cross(1, 2, 3, 4))
        .expect("cross commit");
    store.shutdown();
    let watermark = dir.join("decisions").join("applied-through");
    let first = std::fs::read(&watermark).expect("first watermark");

    let reopen = || {
        ShardedBuilder::recover(&dir)
            .workers_per_shard(1)
            .wal_options(wal.clone())
            .build()
            .expect("sharded store recovers")
    };
    let store = reopen();
    for i in 0..6u64 {
        store
            .submit(ROUTED_SESSION, cross(10 + i, i, 10 + i, i))
            .expect("cross commit");
    }
    // Undo one branch with a later single-shard commit: re-applying its
    // decision would bring the tuple back.
    let Routed::Single { ticket, .. } = store
        .submit(ROUTED_SESSION, Program::delete_consts("R0", [10, 0]))
        .expect("routes")
    else {
        panic!("single-relation program must route to one shard");
    };
    assert!(matches!(ticket.wait(), TxOutcome::Committed { .. }));
    let heads = shard_heads(&store);
    store.shutdown();
    assert_ne!(std::fs::read(&watermark).expect("second watermark"), first);
    // The crash: the second watermark never reached the disk.
    std::fs::write(&watermark, &first).expect("restores the first watermark");

    let recovered = reopen();
    assert_eq!(
        shard_heads(&recovered),
        heads,
        "no branch lost or re-applied"
    );
    assert!(!recovered.shard(0).snapshot().db.contains("R0", &t(10, 0)));
    recovered.shutdown();
    audit_ok(&dir);
}

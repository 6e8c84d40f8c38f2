//! Crash and I/O-error enumeration over the storage seam, after ALICE
//! (Pillai et al., OSDI 2014).
//!
//! Each run drives a small persisted store on a [`TestDisk`], one
//! transaction at a time, so its file operations come in the same order
//! every time. A recording run numbers them. Then, for every operation
//! `k`, one run crashes after `k` (*crash mode*), and for every write,
//! data sync and directory sync, one run fails `k` with each fault it can
//! meet (*fault mode*: EIO, and ENOSPC for writes; the run goes on to its
//! end, and a fail-stop panic on the serving path is an allowed outcome).
//! The image a crash leaves is copied into a fresh directory — once as
//! synced, and in crash mode once more with half of every unsynced tail
//! kept (a torn write) — and recovered with the ordinary builders. Every
//! run must show:
//!
//! * recovery succeeds, once the store was built before the crash;
//! * every acknowledged commit is present at its version, with the root
//!   hash the live server reported (acknowledgements that resolve after
//!   the crash point count for nothing);
//! * the cold audit passes — for the sharded run, no decided branch is
//!   half-applied and no branch lacks its decision;
//! * in fault mode, no commit is acknowledged after a failed operation on
//!   a log segment it is durable through, and no file or directory is
//!   synced again after a sync of it failed.

use crate::disk::testing::{Fault, Image, OpKind, Plan, TestDisk};
use crate::shard::ROUTED_SESSION;
use crate::wal::{self, WalOptions};
use crate::{
    cold_audit_dir, cold_audit_sharded, workload, CrossOutcome, Routed, ShardedBuilder,
    ShardedStore, StoreBuilder, StoreError, StoreServer, TxOutcome, TxTicket,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vpdt_eval::Omega;
use vpdt_logic::Elem;
use vpdt_tx::program::Program;

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vpdt-crash-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn catch<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The root hash `server` reports for `version`; `None` once a fail-stop
/// panic has poisoned its history.
fn root_of(server: &StoreServer, version: u64) -> Option<u64> {
    catch(|| server.commit_root(version)).flatten()
}

/// Small segments, so the runs rotate; no retention, so checkpoints GC.
fn wal_opts() -> WalOptions {
    WalOptions {
        segment_bytes: 512,
        retain_segments: false,
    }
}

/// One acknowledged commit: the store (shard) it landed on, its version,
/// and the root hash the live server reported for it.
#[derive(Clone, Copy, Debug)]
struct Ack {
    shard: usize,
    version: u64,
    root: u64,
}

/// What a run leaves to check.
#[derive(Debug, Default)]
struct Run {
    /// Whether the store was built before the crash point.
    built: bool,
    acked: Vec<Ack>,
    /// Acknowledgements that resolved after a failed operation on a log
    /// segment they are durable through.
    late: Vec<Ack>,
}

impl Run {
    /// Counts an acknowledgement that resolved before the crash point;
    /// `logs` are the log directories it is durable through.
    fn ack(&mut self, disk: &TestDisk, logs: &[PathBuf], shard: usize, version: u64, root: u64) {
        if disk.frozen() {
            return;
        }
        let ack = Ack {
            shard,
            version,
            root,
        };
        let segment_failed = disk.failed().is_some_and(|op| {
            let in_log = op
                .path
                .parent()
                .is_some_and(|d| logs.iter().any(|l| l == d));
            let name = op.path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            in_log && name.starts_with("wal-")
        });
        if segment_failed {
            self.late.push(ack);
        }
        self.acked.push(ack);
    }
}

/// A run over a fresh `root` on `disk`, and the recovery check of an image
/// of it.
struct Scenario {
    name: &'static str,
    run: fn(&Arc<TestDisk>, &Path) -> Run,
    recover: fn(&Path, &Run, &str),
}

/// An acknowledged commit must be in `server`, recovered from `dir`, with
/// its root hash — or, when segment retention retired its record, covered
/// by a checkpoint (which recovery anchored to the log).
fn check_ack(dir: &Path, server: &StoreServer, ack: &Ack, ctx: &str) {
    if let Some(root) = server.commit_root(ack.version) {
        assert_eq!(root, ack.root, "{ctx}: {ack:?} recovered with another root");
        return;
    }
    let checkpoints: Vec<wal::Checkpoint> = wal::list_checkpoints(dir)
        .expect("lists checkpoints")
        .into_iter()
        .map(|(_, path)| wal::read_checkpoint(path).expect("reads a checkpoint"))
        .collect();
    assert!(
        checkpoints.iter().any(|ck| ck.version >= ack.version),
        "{ctx}: acknowledged {ack:?} is lost (recovered version {})",
        server.version()
    );
    for ck in checkpoints.iter().filter(|ck| ck.version == ack.version) {
        assert_eq!(ck.root_hash, ack.root, "{ctx}: {ack:?}");
    }
}

/// Runs `sc` once per crash point and once per fault; returns the numbers
/// of crash runs and fault runs.
fn enumerate(sc: &Scenario) -> (usize, usize) {
    let root = tmp_dir(sc.name);
    let relative = |disk: &TestDisk, run_root: &Path| -> Vec<(OpKind, PathBuf)> {
        disk.ops()
            .into_iter()
            .map(|op| {
                let path = op.path.strip_prefix(run_root).expect("under the run root");
                (op.kind, path.to_path_buf())
            })
            .collect()
    };
    let recording = TestDisk::new(Plan::Record);
    let run_root = root.join("record");
    (sc.run)(&recording, &run_root);
    let ops = relative(&recording, &run_root);
    // How much of an `n`-byte unsynced tail survives: none, or half.
    let synced: (&str, fn(usize) -> usize) = ("synced", |_| 0);
    let torn: (&str, fn(usize) -> usize) = ("torn", |n| n.div_ceil(2));
    let check = |image: &Image, run_root: &Path, run: &Run, ctx: &str, tear: bool| {
        let tails = if tear {
            &[synced, torn][..]
        } else {
            &[synced][..]
        };
        for (tag, tail) in tails {
            let to = root.join("image");
            image.write_to(run_root, &to, tail);
            (sc.recover)(&to, run, &format!("{}: {ctx}, {tag} image", sc.name));
            let _ = std::fs::remove_dir_all(&to);
        }
    };

    for k in 0..=ops.len() {
        let disk = TestDisk::new(Plan::CrashAfter(k));
        let run_root = root.join(format!("crash-{k}"));
        let run = (sc.run)(&disk, &run_root);
        let ctx = format!("crash after op {k} {:?}", k.checked_sub(1).map(|i| &ops[i]));
        let seen = relative(&disk, &run_root);
        assert_eq!(
            seen.get(..k),
            Some(&ops[..k]),
            "{}: {ctx}: nondeterministic run",
            sc.name
        );
        check(&disk.image(), &run_root, &run, &ctx, true);
        std::fs::remove_dir_all(&run_root).expect("removes the run");
    }
    let mut faults = 0;
    for (i, (kind, path)) in ops.iter().enumerate() {
        for &fault in kind.faults() {
            let disk = TestDisk::new(Plan::Fail(i + 1, fault));
            let run_root = root.join(format!("fault-{i}"));
            let run = (sc.run)(&disk, &run_root);
            let ctx = format!("{fault:?} at op {} ({kind:?} {})", i + 1, path.display());
            assert!(
                disk.failed().is_some(),
                "{}: {ctx}: the fault never fired",
                sc.name
            );
            assert!(
                disk.resynced().is_empty(),
                "{}: {ctx}: synced again after a failed sync: {:?}",
                sc.name,
                disk.resynced()
            );
            assert!(
                run.late.is_empty(),
                "{}: {ctx}: acknowledged after the failure: {:?}",
                sc.name,
                run.late
            );
            check(&disk.image(), &run_root, &run, &ctx, false);
            std::fs::remove_dir_all(&run_root).expect("removes the run");
            faults += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    (ops.len() + 1, faults)
}

// --- a single persisted store ----------------------------------------------

/// Inserts and deletes over two fd-constrained relations; some inserts
/// violate the fd and abort.
fn single_programs() -> Vec<Program> {
    (0..24u64)
        .map(|i| {
            let rel = format!("R{}", i % 2);
            let t = [i % 5, i % 3];
            if i % 4 == 3 {
                Program::delete_consts(rel, t)
            } else {
                Program::insert_consts(rel, t)
            }
        })
        .collect()
}

/// Builds, serves the programs one at a time with a checkpoint halfway,
/// and shuts down cleanly.
fn single_run(disk: &Arc<TestDisk>, dir: &Path) -> Run {
    let mut run = Run::default();
    let built = catch(|| {
        StoreBuilder::new(
            workload::sharded_initial(1, 2, 5, 0.0),
            workload::sharded_fd_constraint(2),
        )
        .workers(1)
        .trace_capacity(0)
        .persist_with(dir, wal_opts())
        .on_disk(Arc::clone(disk) as _)
        .build()
    });
    let Some(Ok(server)) = built else { return run };
    run.built = !disk.frozen();
    let logs = [dir.to_path_buf()];
    {
        let session = server.session();
        let programs = single_programs();
        let half = programs.len() / 2;
        for (i, program) in programs.into_iter().enumerate() {
            if i == half {
                let _ = catch(|| server.checkpoint());
            }
            match session.submit(program).wait() {
                TxOutcome::Committed { version } => {
                    let Some(root) = root_of(&server, version) else {
                        break;
                    };
                    run.ack(disk, &logs, 0, version, root);
                }
                TxOutcome::Aborted { .. } => {}
                TxOutcome::Failed { .. } => break,
            }
        }
    }
    let _ = catch(move || server.shutdown());
    run
}

fn single_recover(dir: &Path, run: &Run, ctx: &str) {
    let server = match StoreBuilder::recover(dir)
        .workers(1)
        .trace_capacity(0)
        .build()
    {
        Ok(server) => server,
        Err(e) => {
            assert!(!run.built, "{ctx}: recovery failed: {e}");
            return;
        }
    };
    for ack in &run.acked {
        check_ack(dir, &server, ack, ctx);
    }
    drop(server);
    let (_, report) = cold_audit_dir(dir, &Omega::empty()).expect("the cold audit runs");
    assert!(report.ok(), "{ctx}: cold audit failed: {report:?}");
}

const SINGLE: Scenario = Scenario {
    name: "single",
    run: single_run,
    recover: single_recover,
};

// --- a two-shard store -----------------------------------------------------

fn sharded(disk: &Arc<TestDisk>, root: &Path) -> Option<Result<ShardedStore, StoreError>> {
    catch(|| {
        ShardedBuilder::new(
            workload::sharded_initial(1, 2, 5, 0.0),
            workload::sharded_fd_constraint(2),
            2,
        )
        .workers_per_shard(1)
        .persist_with(root, wal_opts())
        .on_disk(Arc::clone(disk) as _)
        .build()
    })
}

/// A move of `R0(a, b)` and `R1(c, d)` inserts, across both shards.
fn cross(a: u64, b: u64, c: u64, d: u64) -> Program {
    Program::seq([
        Program::insert_consts("R0", [a, b]),
        Program::insert_consts("R1", [c, d]),
    ])
}

enum Step {
    Single(Program),
    Cross(Program),
    /// A commit on shard 0 that is published but not yet durable when a
    /// cross-shard transaction is decided on top of it.
    Found,
}

fn sharded_steps() -> Vec<Step> {
    let mv = |from: &str, to: &str, t: [u64; 2]| {
        Step::Cross(Program::seq([
            Program::delete_consts(from, t),
            Program::insert_consts(to, t),
        ]))
    };
    vec![
        Step::Single(Program::insert_consts("R0", [1, 2])),
        Step::Found,
        Step::Cross(cross(2, 2, 2, 2)),
        mv("R0", "R1", [2, 2]),
        Step::Single(Program::insert_consts("R1", [3, 1])),
        // Violates the fd on R1: the global guard aborts it.
        Step::Cross(cross(4, 4, 3, 2)),
        Step::Single(Program::insert_consts("R0", [4, 0])),
        mv("R1", "R0", [3, 1]),
        Step::Single(Program::delete_consts("R1", [5, 6])),
        Step::Cross(cross(0, 3, 0, 3)),
        Step::Single(Program::insert_consts("R1", [1, 1])),
        mv("R0", "R1", [0, 3]),
    ]
}

/// The decision window: insert-then-delete on shard 0 with the delete's
/// fsync held back, then a cross commit whose shard-0 branch the delete
/// made admissible. The hold lasts until the coordinator waits for shard
/// 0's flusher or returns. Returns the delete's ticket and the cross's
/// outcome (`None` when the delete failed or the coordinator panicked).
fn found_window(
    store: &ShardedStore,
    disk: &TestDisk,
    shard0: &Path,
) -> (Option<TxTicket>, Option<Result<Routed, StoreError>>) {
    disk.hold_syncs(shard0);
    let delete = catch(|| store.submit(ROUTED_SESSION, Program::delete_consts("R0", [1, 2])));
    let Some(Ok(Routed::Single { ticket, .. })) = delete else {
        disk.release();
        return (None, None);
    };
    while ticket.applied().is_none() && ticket.try_outcome().is_none() {
        std::thread::yield_now();
    }
    if ticket.applied().is_none() {
        disk.release();
        return (Some(ticket), None);
    }
    // The flusher's sync of the delete reaches the hold before the cross
    // starts, so the order of what follows does not depend on timing —
    // unless the flusher's write of the delete failed, which resolves the
    // applied delete as failed instead.
    while !disk.holding() && ticket.try_outcome().is_none() {
        std::thread::yield_now();
    }
    if !disk.holding() {
        disk.release();
        return (Some(ticket), None);
    }
    let routed = std::thread::scope(|s| {
        let coordinator = s.spawn(|| catch(|| store.submit(ROUTED_SESSION, cross(1, 3, 5, 6))));
        while !coordinator.is_finished() && !store.shard(0).durability_awaited() {
            std::thread::yield_now();
        }
        disk.release();
        coordinator.join().expect("the coordinator thread returns")
    });
    (Some(ticket), routed)
}

fn sharded_run(disk: &Arc<TestDisk>, root: &Path) -> Run {
    let mut run = Run::default();
    let Some(Ok(store)) = sharded(disk, root) else {
        return run;
    };
    run.built = !disk.frozen();
    let shard_logs = [root.join("shard-0"), root.join("shard-1")];
    let all_logs = [
        root.join("shard-0"),
        root.join("shard-1"),
        root.join("decisions"),
    ];
    let single = |run: &mut Run, ticket: &TxTicket, shard: usize| match ticket.wait() {
        TxOutcome::Committed { version } => {
            let Some(root) = root_of(store.shard(shard), version) else {
                return false;
            };
            run.ack(disk, &shard_logs[shard..=shard], shard, version, root);
            true
        }
        TxOutcome::Aborted { .. } => true,
        TxOutcome::Failed { .. } => false,
    };
    let crossed = |run: &mut Run, routed: Option<Result<Routed, StoreError>>| match routed {
        Some(Ok(Routed::Cross(CrossOutcome::Committed { versions, .. }))) => {
            for (s, version) in versions {
                let s = s as usize;
                let Some(root) = root_of(store.shard(s), version) else {
                    return false;
                };
                run.ack(disk, &all_logs, s, version, root);
            }
            true
        }
        Some(Ok(Routed::Cross(CrossOutcome::Aborted { .. }))) => true,
        _ => false,
    };
    for step in sharded_steps() {
        let alive = match step {
            Step::Single(program) => match catch(|| store.submit(ROUTED_SESSION, program)) {
                Some(Ok(Routed::Single { shard, ticket })) => single(&mut run, &ticket, shard),
                _ => false,
            },
            Step::Cross(program) => {
                crossed(&mut run, catch(|| store.submit(ROUTED_SESSION, program)))
            }
            Step::Found => {
                let (delete, routed) = found_window(&store, disk, &shard_logs[0]);
                let decided = routed.is_some() && crossed(&mut run, routed);
                delete.is_some_and(|t| single(&mut run, &t, 0)) && decided
            }
        };
        if !alive {
            break;
        }
    }
    let _ = catch(move || store.shutdown());
    run
}

fn sharded_recover(root: &Path, run: &Run, ctx: &str) {
    let store = match ShardedBuilder::recover(root).workers_per_shard(1).build() {
        Ok(store) => store,
        Err(e) => {
            assert!(!run.built, "{ctx}: recovery failed: {e}");
            return;
        }
    };
    for ack in &run.acked {
        let dir = root.join(format!("shard-{}", ack.shard));
        check_ack(&dir, store.shard(ack.shard), ack, ctx);
    }
    drop(store);
    let report = cold_audit_sharded(root, &Omega::empty()).expect("the cold audit runs");
    assert!(report.ok(), "{ctx}: sharded cold audit failed: {report:?}");
}

const SHARDED: Scenario = Scenario {
    name: "sharded",
    run: sharded_run,
    recover: sharded_recover,
};

#[test]
fn a_single_store_survives_a_crash_or_fault_at_every_operation() {
    let (crashes, faults) = enumerate(&SINGLE);
    assert!(
        crashes > 50 && faults > 50,
        "{crashes} crash runs, {faults} fault runs"
    );
}

#[test]
fn a_sharded_store_survives_a_crash_or_fault_at_every_operation() {
    let (crashes, faults) = enumerate(&SHARDED);
    assert!(
        crashes > 50 && faults > 50,
        "{crashes} crash runs, {faults} fault runs"
    );
}

// --- single windows --------------------------------------------------------

fn t(a: u64, b: u64) -> [Elem; 2] {
    [Elem(a), Elem(b)]
}

/// One acknowledged cross commit, then `second`, on a two-shard store.
fn two_crosses(disk: &Arc<TestDisk>, root: &Path, second: Program) -> ShardedStore {
    let store = sharded(disk, root).expect("builds").expect("builds");
    let first = store.submit(ROUTED_SESSION, cross(10, 11, 12, 13));
    assert!(matches!(
        first,
        Ok(Routed::Cross(CrossOutcome::Committed { .. }))
    ));
    store.submit(ROUTED_SESSION, second).expect("second cross");
    store
}

/// Records [`two_crosses`] with `cross(1, 2, 3, 4)` second, picks a crash
/// point from its operations, crashes there, keeps `tail(n)` of every
/// unsynced tail, and recovers.
fn crash_in_window(
    pick: impl Fn(&[(OpKind, PathBuf)]) -> usize,
    tail: fn(usize) -> usize,
) -> ShardedStore {
    let root = tmp_dir("window");
    let recording = TestDisk::new(Plan::Record);
    let record = root.join("record");
    drop(two_crosses(&recording, &record, cross(1, 2, 3, 4)));
    let ops: Vec<(OpKind, PathBuf)> = recording
        .ops()
        .into_iter()
        .map(|op| {
            (
                op.kind,
                op.path
                    .strip_prefix(&record)
                    .expect("under root")
                    .to_path_buf(),
            )
        })
        .collect();
    let k = pick(&ops);
    let disk = TestDisk::new(Plan::CrashAfter(k));
    let live = root.join("live");
    drop(two_crosses(&disk, &live, cross(1, 2, 3, 4)));
    let image = root.join("image");
    disk.image().write_to(&live, &image, tail);
    ShardedBuilder::recover(&image)
        .workers_per_shard(1)
        .build()
        .expect("recovers")
}

/// The `n`th operation (1-based numbering) of `kind` on a file under `dir`.
fn nth(ops: &[(OpKind, PathBuf)], kind: OpKind, dir: &str, n: usize) -> usize {
    ops.iter()
        .enumerate()
        .filter(|(_, (k, p))| *k == kind && p.starts_with(dir) && p.extension().is_some())
        .nth(n - 1)
        .map(|(i, _)| i + 1)
        .expect("the operation happened")
}

/// Crashed after the decision record's write, before its sync: the
/// decision is not durable, so the transaction never happened, and its
/// holds vanished with the process.
#[test]
fn crash_after_the_decision_write_presumes_abort() {
    let store = crash_in_window(|ops| nth(ops, OpKind::Write, "decisions", 3), |_| 0);
    assert!(store.shard(0).snapshot().db.contains("R0", &t(10, 11)));
    assert!(!store.shard(0).snapshot().db.contains("R0", &t(1, 2)));
    assert!(!store.shard(1).snapshot().db.contains("R1", &t(3, 4)));
    let again = store.submit(ROUTED_SESSION, cross(1, 2, 3, 4));
    assert!(matches!(
        again,
        Ok(Routed::Cross(CrossOutcome::Committed { .. }))
    ));
}

/// Crashed after the decision's sync, before any branch: both roll forward.
#[test]
fn crash_after_the_decision_sync_rolls_every_branch_forward() {
    let store = crash_in_window(|ops| nth(ops, OpKind::Sync, "decisions", 3), |_| 0);
    assert!(store.shard(0).snapshot().db.contains("R0", &t(1, 2)));
    assert!(store.shard(1).snapshot().db.contains("R1", &t(3, 4)));
}

/// Crashed after shard 0's branch write (its unsynced tail survives, as
/// after a process kill): shard 1's branch rolls forward, shard 0's is not
/// applied twice.
#[test]
fn crash_after_the_first_branch_write_completes_the_other() {
    let store = crash_in_window(
        |ops| {
            let decided = nth(ops, OpKind::Sync, "decisions", 3);
            let branch = ops[decided..]
                .iter()
                .position(|(k, p)| *k == OpKind::Write && p.starts_with("shard-0"))
                .expect("shard 0's branch is written");
            decided + branch + 1
        },
        |n| n,
    );
    assert!(store.shard(0).snapshot().db.contains("R0", &t(1, 2)));
    assert!(store.shard(1).snapshot().db.contains("R1", &t(3, 4)));
    assert_eq!((store.shard(0).version(), store.shard(1).version()), (2, 2));
}

/// A cross-shard decision waits until the state it was decided on is
/// durable. Shard 0 publishes a delete whose fsync the disk holds back;
/// a cross commit that the delete made admissible (the fd allows
/// `R0(1, 3)` only once `R0(1, 2)` is gone) is decided on top of it. The
/// decision's sync must follow shard 0's: otherwise a crash right after
/// it keeps the decision, drops the delete, and roll-forward's
/// check-and-rollback refuses the log.
#[test]
fn a_decision_waits_for_the_state_it_was_decided_on() {
    let window = |disk: &Arc<TestDisk>, root: &Path| {
        let store = sharded(disk, root).expect("builds").expect("builds");
        let insert = store.submit(ROUTED_SESSION, Program::insert_consts("R0", [1, 2]));
        let Ok(Routed::Single { ticket, .. }) = insert else {
            panic!("single-shard insert");
        };
        assert!(matches!(ticket.wait(), TxOutcome::Committed { .. }));
        let (delete, routed) = found_window(&store, disk, &root.join("shard-0"));
        assert!(matches!(
            delete.expect("submitted").wait(),
            TxOutcome::Committed { .. }
        ));
        let routed = routed.expect("decided").expect("commits");
        assert!(matches!(
            routed,
            Routed::Cross(CrossOutcome::Committed { .. })
        ));
        store
    };
    let root = tmp_dir("found");
    let recording = TestDisk::new(Plan::Record);
    let record = root.join("record");
    drop(window(&recording, &record));
    let ops = recording.ops();
    let on = |op: &crate::disk::testing::Op, kind: OpKind, dir: &str| {
        op.kind == kind && op.path.starts_with(record.join(dir))
    };
    let decision_sync = ops
        .iter()
        .rposition(|op| on(op, OpKind::Sync, "decisions"))
        .expect("the decision is synced");
    let delete_write = ops[..decision_sync]
        .iter()
        .rposition(|op| on(op, OpKind::Write, "shard-0"))
        .expect("the delete is written");
    assert!(
        ops[delete_write..decision_sync]
            .iter()
            .any(|op| on(op, OpKind::Sync, "shard-0")),
        "the decision's sync (op {}) came before shard 0's: {ops:#?}",
        decision_sync + 1
    );

    let disk = TestDisk::new(Plan::CrashAfter(decision_sync + 1));
    let live = root.join("live");
    drop(window(&disk, &live));
    let image = root.join("image");
    disk.image().write_to(&live, &image, |_| 0);
    let store = ShardedBuilder::recover(&image)
        .workers_per_shard(1)
        .build()
        .expect("recovery accepts the decision's base");
    let db = store.shard(0).snapshot().db;
    assert!(db.contains("R0", &t(1, 3)) && !db.contains("R0", &t(1, 2)));
    assert!(store.shard(1).snapshot().db.contains("R1", &t(5, 6)));
}

/// A flush failure is fail-stop and fans out: every ticket its fsync
/// covered — and every commit submitted after it — fails with a typed
/// error, never hangs, never acknowledges.
#[test]
fn flush_error_fans_out_to_every_covered_ticket() {
    let dir = tmp_dir("flusherr");
    let disk = TestDisk::new(Plan::Record);
    let server = StoreBuilder::new(
        workload::sharded_initial(7, 2, 4, 0.5),
        workload::sharded_fd_constraint(2),
    )
    .workers(2)
    .persist(&dir) // one segment: no rotation syncs behind the hold
    .on_disk(Arc::clone(&disk) as _)
    .build()
    .expect("starts");
    disk.hold_syncs(&dir);
    let session = server.session();
    // Deletes always preserve the fd, so each reaches the durable phase.
    let tickets: Vec<TxTicket> = (0..8u64)
        .map(|a| {
            session.submit(Program::delete_consts(
                format!("R{}", a % 2),
                [a / 2, a / 2],
            ))
        })
        .collect();
    for ticket in &tickets {
        while ticket.applied().is_none() {
            std::thread::yield_now();
        }
    }
    // Every commit is published; the held fsync that covers them fails.
    disk.set_plan(Plan::Fail(disk.op_count() + 1, Fault::Eio));
    disk.release();
    for ticket in &tickets {
        match ticket.wait() {
            TxOutcome::Failed {
                error: StoreError::Wal(_),
            } => {}
            other => panic!(
                "ticket {} must fail with a Wal error, got {other:?}",
                ticket.id()
            ),
        }
    }
    for a in 0..4 {
        let later = session.submit_sync(Program::delete_consts("R0", [a, 0]));
        assert!(matches!(later, TxOutcome::Failed { .. }), "{later:?}");
    }
    assert!(disk.resynced().is_empty(), "{:?}", disk.resynced());
    drop(server); // drains cleanly even in the failed state
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed *write* is fail-stop like a failed fsync. The flusher holds
/// at a first commit's fsync while eight more publish: they are staged,
/// not written, so the flusher's next write carries them all, and it
/// fails. The first commit resolves durable; every held ticket, and
/// every later commit, fails with a typed error; nothing reaches the disk
/// after the failed write.
#[test]
fn write_error_fans_out_to_every_held_ticket() {
    let dir = tmp_dir("writeerr");
    let disk = TestDisk::new(Plan::Record);
    let server = StoreBuilder::new(
        workload::sharded_initial(7, 2, 4, 0.5),
        workload::sharded_fd_constraint(2),
    )
    .workers(2)
    .persist(&dir) // one segment: no rotation writes behind the hold
    .on_disk(Arc::clone(&disk) as _)
    .build()
    .expect("starts");
    disk.hold_syncs(&dir);
    let session = server.session();
    // Deletes always preserve the fd, so each reaches the durable phase.
    let delete = |a: u64| Program::delete_consts(format!("R{}", a % 2), [a / 2, a / 2]);
    let first = session.submit(delete(0));
    while !disk.holding() {
        std::thread::yield_now();
    }
    let held: Vec<TxTicket> = (1..9u64).map(|a| session.submit(delete(a))).collect();
    for ticket in &held {
        while ticket.applied().is_none() {
            std::thread::yield_now();
        }
    }
    // The held fsync is the next operation; the write after it fails.
    let failing = disk.op_count() + 2;
    disk.set_plan(Plan::Fail(failing, Fault::Eio));
    disk.release();
    assert!(matches!(first.wait(), TxOutcome::Committed { .. }));
    for ticket in &held {
        match ticket.wait() {
            TxOutcome::Failed {
                error: StoreError::Wal(_),
            } => {}
            other => panic!(
                "ticket {} must fail with a Wal error, got {other:?}",
                ticket.id()
            ),
        }
    }
    for a in 0..4 {
        match session.submit_sync(Program::delete_consts("R0", [a, 0])) {
            TxOutcome::Failed {
                error: StoreError::Wal(_),
            } => {}
            other => panic!("a later commit must fail with a Wal error, got {other:?}"),
        }
    }
    drop(server); // drains cleanly even in the failed state
    let ops = disk.ops();
    let failed = disk.failed().expect("the write failed");
    assert_eq!((failed.kind, ops.len() >= failing), (OpKind::Write, true));
    let after: Vec<_> = ops[failing..]
        .iter()
        .filter(|op| matches!(op.kind, OpKind::Write | OpKind::Sync))
        .collect();
    assert!(after.is_empty(), "I/O after the failed write: {after:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed write on the publish path poisons the history, and the
/// flusher still resolves what was pending. The flusher holds at a first
/// commit's fsync while a stream of commits fills the staging buffer;
/// the write-through that empties it fails, and the worker stops
/// (fail-stop). The first commit resolves durable; every other ticket
/// resolves, and none commits.
#[test]
fn a_failed_write_through_fails_the_pending_tickets() {
    let dir = tmp_dir("througherr");
    let disk = TestDisk::new(Plan::Record);
    let server = StoreBuilder::new(
        workload::sharded_initial(7, 2, 4, 0.5),
        workload::sharded_fd_constraint(2),
    )
    .workers(1)
    .persist(&dir) // one segment: the only write behind the hold is the write-through
    .on_disk(Arc::clone(&disk) as _)
    .build()
    .expect("starts");
    disk.hold_syncs(&dir);
    let session = server.session();
    // Deletes always preserve the fd, so each reaches the durable phase.
    let delete = |a: u64| Program::delete_consts(format!("R{}", a % 2), [a / 2 % 4, a % 4]);
    let first = session.submit(delete(0));
    while !disk.holding() {
        std::thread::yield_now();
    }
    disk.set_plan(Plan::Fail(disk.op_count() + 1, Fault::Eio));
    // Well past the 64 KiB staging bound at ~200 bytes a transaction.
    let rest: Vec<TxTicket> = (1..1_000u64).map(|a| session.submit(delete(a))).collect();
    while disk.failed().is_none() {
        std::thread::yield_now();
    }
    disk.release();
    assert!(matches!(first.wait(), TxOutcome::Committed { .. }));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut failed_durable = 0;
    for ticket in &rest {
        let outcome = loop {
            if let Some(outcome) = ticket.try_outcome() {
                break outcome;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "ticket {} hangs",
                ticket.id()
            );
            std::thread::yield_now();
        };
        match outcome {
            TxOutcome::Failed {
                error: StoreError::Wal(_),
            } => failed_durable += 1,
            TxOutcome::Failed { .. } => {}
            other => panic!("ticket {} must fail, got {other:?}", ticket.id()),
        }
    }
    assert!(
        failed_durable > 0,
        "published commits were pending at the failure"
    );
    assert_eq!(disk.failed().map(|op| op.kind), Some(OpKind::Write));
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

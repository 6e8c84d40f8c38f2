//! Observability integration tests: the metrics registry and transaction
//! traces threaded through the `StoreServer` pipeline. Covers per-tx trace
//! ordering under worker concurrency, the lifetime-totals-vs-delta counter
//! contract, checkpoint-file GC accounting, and the report's metrics view
//! staying consistent with the legacy counters it mirrors.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use vpdt::eval::Omega;
use vpdt::logic::Elem;
use vpdt::store::history::{HistorySegment, TAIL_BYTES};
use vpdt::store::metrics::names;
use vpdt::store::{wal, workload, StoreBuilder, StoreError, TraceStage, TxOutcome, WalOptions};
use vpdt::tx::program::Program;

const RELS: usize = 2;
const UNIVERSE: u64 = 4;

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vpdt-metrics-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn traced_server(seed: u64, workers: usize) -> vpdt::store::StoreServer {
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(seed, RELS, UNIVERSE, 0.4);
    StoreBuilder::new(initial, alpha)
        .workers(workers)
        .build()
        .expect("consistent initial state")
}

/// Run a workload through many workers and sessions, then demand every
/// complete traced timeline is internally consistent: timestamps
/// monotone, `enqueued` first, `dequeued` second, a terminal stage last —
/// even though three different threads (submitter, worker, flusher)
/// append the events.
#[test]
fn trace_events_are_monotone_per_transaction() {
    let server = traced_server(7, 4);
    let jobs = workload::sharded_jobs(7, 8, 100, RELS, UNIVERSE);
    workload::serve_chunked(&server, &jobs, 100);
    let timelines = server.slowest(usize::MAX);
    assert!(
        timelines.len() > 100,
        "expected plenty of complete timelines, got {}",
        timelines.len()
    );
    let report = server.shutdown();
    for t in &timelines {
        assert!(t.is_complete(), "slowest() returns complete timelines only");
        assert!(
            t.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "tx {} has out-of-order timestamps: {:?}",
            t.tx,
            t.events
        );
        assert_eq!(t.events[0].stage, TraceStage::Enqueued, "tx {}", t.tx);
        assert_eq!(t.events[1].stage, TraceStage::Dequeued, "tx {}", t.tx);
        assert!(
            t.events.last().expect("non-empty").stage.is_terminal(),
            "tx {} ends mid-flight: {:?}",
            t.tx,
            t.events
        );
        assert!(t.events.iter().all(|e| e.tx == t.tx));
    }
    // The report carries the slowest few, ranked slowest-first.
    assert!(!report.slowest.is_empty());
    assert!(report
        .slowest
        .windows(2)
        .all(|w| w[0].span_ns() >= w[1].span_ns()));
}

/// One session on an in-memory store runs every transaction on its own
/// thread, so each ticket has resolved by the time `submit` returns;
/// `submit_queued`, and any submission to a persisted store, go to the
/// workers.
#[test]
fn one_session_runs_inline_in_memory_unless_queued_or_persisted() {
    let dir = tmp_dir("inline");
    let jobs = workload::sharded_jobs(29, 1, 200, RELS, UNIVERSE);
    for (persisted, queued) in [(false, false), (false, true), (true, false)] {
        let alpha = workload::sharded_fd_constraint(RELS);
        let initial = workload::sharded_initial(29, RELS, UNIVERSE, 0.4);
        let mut builder = StoreBuilder::new(initial, alpha).workers(2);
        if persisted {
            builder = builder.persist(&dir);
        }
        let server = builder.build().expect("server starts");
        let session = server.session();
        let inline = !persisted && !queued;
        let tickets: Vec<_> = jobs
            .iter()
            .map(|job| {
                let ticket = if queued {
                    session.submit_queued(job.clone())
                } else {
                    session.submit(job.clone())
                };
                assert!(!inline || ticket.try_outcome().is_some());
                ticket
            })
            .collect();
        for ticket in &tickets {
            assert!(!matches!(ticket.wait(), TxOutcome::Failed { .. }));
        }
        let report = server.shutdown();
        let m = &report.metrics;
        assert_eq!(m.counter(names::TX_SUBMITTED), jobs.len() as u64);
        assert_eq!(
            m.counter(names::TX_INLINE),
            if inline { jobs.len() as u64 } else { 0 },
            "persisted: {persisted}, queued: {queued}"
        );
        // Inline or not, every transaction is dequeued once.
        let waits = m.histogram(names::STAGE_QUEUE_WAIT).expect("queue waits");
        assert_eq!(waits.count, jobs.len() as u64);
    }
    cleanup(&dir);
}

/// Eight sessions on eight threads against two workers: submitters run
/// inline while a slot is free and queue once both are taken, every
/// ticket resolves, and the whole run audits clean.
#[test]
fn sessions_beyond_the_workers_queue_and_audit_clean() {
    let (alpha, omega) = (workload::sharded_fd_constraint(RELS), Omega::empty());
    let initial = workload::sharded_initial(37, RELS, UNIVERSE, 0.4);
    let (sink, received) = std::sync::mpsc::channel();
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .workers(2)
        .history_sink(sink)
        .build()
        .expect("consistent initial state");
    let jobs = workload::sharded_jobs(37, 8, 400, RELS, UNIVERSE);
    let programs = workload::serve_chunked(&server, &jobs, 400);
    let report = server.shutdown();
    let m = &report.metrics;
    let inline = m.counter(names::TX_INLINE);
    assert!(
        inline > 0 && inline < jobs.len() as u64,
        "{inline} of {} ran inline",
        jobs.len()
    );
    assert_eq!(report.exec.failed, 0);
    assert_eq!(report.exec.committed + report.exec.aborted, jobs.len());
    let segments: Vec<HistorySegment> = received.try_iter().collect();
    let events = report.whole_run(&segments).expect("every tail");
    let audit = vpdt::store::audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &events,
        &programs,
        &report.templates,
    );
    assert!(audit.ok(), "{audit}");
    assert_eq!(audit.commits_checked as u64, report.final_version);
}

/// The counter contract (satellite of the docs-drift fix): everything on
/// a server is a lifetime total — warm-up and serving traffic accumulate
/// — and a window is measured by delta'ing two snapshots, never by the
/// counters resetting.
#[test]
fn counters_are_lifetime_totals_and_delta_gives_windows() {
    let server = traced_server(11, 2);
    let batch_a = workload::sharded_jobs(11, 1, 40, RELS, UNIVERSE);
    let batch_b = workload::sharded_jobs(12, 1, 25, RELS, UNIVERSE);
    let mid = {
        let session = server.session();
        for job in &batch_a {
            session.submit(job.clone()).wait();
        }
        let mid = server.metrics();
        for job in &batch_b {
            session.submit(job.clone()).wait();
        }
        mid
    };
    assert_eq!(mid.counter(names::TX_SUBMITTED), batch_a.len() as u64);
    let report = server.shutdown();

    // Lifetime totals: both batches, never reset.
    let total = report.metrics.counter(names::TX_SUBMITTED);
    assert_eq!(total, (batch_a.len() + batch_b.len()) as u64);
    assert_eq!(
        report.metrics.counter(names::TX_COMMITTED) + report.metrics.counter(names::TX_ABORTED),
        total,
        "every submission resolves committed or aborted"
    );
    // Windows come from delta, not from resetting counters.
    let window = report.metrics.delta(&mid);
    assert_eq!(window.counter(names::TX_SUBMITTED), batch_b.len() as u64);
    // Histograms window the same way: the delta holds batch B only.
    let all = report
        .metrics
        .histogram(names::TX_TOTAL)
        .expect("total-latency histogram exists");
    let windowed = window
        .histogram(names::TX_TOTAL)
        .expect("windowed histogram exists");
    assert_eq!(all.count, total);
    assert_eq!(windowed.count, batch_b.len() as u64);
}

/// The report's legacy counters are views over the registry: the exec
/// report, the cache stats, and the metrics snapshot must agree with each
/// other and with what the Prometheus rendering says.
#[test]
fn report_counters_and_exposition_agree() {
    let server = traced_server(13, 2);
    let jobs = workload::sharded_jobs(13, 4, 50, RELS, UNIVERSE);
    workload::serve_chunked(&server, &jobs, 50);
    let report = server.shutdown();
    let m = &report.metrics;
    assert_eq!(m.counter(names::TX_COMMITTED), report.exec.committed as u64);
    assert_eq!(m.counter(names::TX_ABORTED), report.exec.aborted as u64);
    assert_eq!(m.counter(names::TX_FAILED), report.exec.failed as u64);
    assert_eq!(m.counter(names::TX_CONFLICTS), report.exec.conflicts);
    assert_eq!(m.counter(names::GUARD_CACHE_HITS), report.cache.hits);
    assert_eq!(m.counter(names::GUARD_CACHE_MISSES), report.cache.misses);
    assert_eq!(m.gauge(names::VERSION), report.final_version);
    assert_eq!(
        m.gauge(names::GUARD_CACHE_SHAPES),
        report.cache.shapes as u64
    );

    let text = m.render_prometheus();
    assert!(text.contains(&format!(
        "{} {}\n",
        names::TX_COMMITTED,
        report.exec.committed
    )));
    assert!(text.contains("# TYPE store_stage_queue_wait_us histogram"));
    assert_eq!(text, m.render_prometheus(), "exposition is deterministic");
}

/// `store_history_bytes` samples the in-memory history's size: non-zero
/// once anything ran, growing with every further commit, and equal to
/// the events' encoded payloads.
#[test]
fn history_bytes_gauge_grows_with_commits() {
    let server = traced_server(19, 2);
    let jobs = workload::sharded_jobs(19, 2, 40, RELS, UNIVERSE);
    workload::serve_chunked(&server, &jobs[..40], 40);
    let first = server.metrics();
    workload::serve_chunked(&server, &jobs[40..], 40);
    let report = server.shutdown();
    let (before, after) = (
        first.gauge(names::HISTORY_BYTES),
        report.metrics.gauge(names::HISTORY_BYTES),
    );
    assert!(before > 0, "the history holds the first batch");
    assert!(
        report.metrics.counter(names::TX_COMMITTED) > first.counter(names::TX_COMMITTED),
        "the second batch commits something"
    );
    assert!(after > before, "history bytes {before} -> {after}");
    let encoded: usize = report
        .events
        .iter()
        .map(|e| wal::encode_event(e).len())
        .sum();
    assert_eq!(after, encoded as u64);
    assert!(report
        .metrics
        .render_prometheus()
        .contains(&format!("{} {after}\n", names::HISTORY_BYTES)));
}

/// A persisted one-worker server makes no WAL write on its publish path:
/// the flusher writes each group before its fsync, so
/// `store_wal_writes_total` stays within `store_wal_fsyncs_total` (+2 for
/// the syncs of the genesis and shutdown checkpoints), where a write per
/// transaction would be about one per commit or abort.
#[test]
fn wal_writes_follow_flushes() {
    let dir = tmp_dir("wal-writes");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(23, RELS, UNIVERSE, 0.4);
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
    let jobs = workload::sharded_jobs(23, 1, 120, RELS, UNIVERSE);
    workload::serve_chunked(&server, &jobs, 120);
    let report = server.shutdown();
    let m = &report.metrics;
    let (commits, aborts) = (m.counter(names::TX_COMMITTED), m.counter(names::TX_ABORTED));
    assert!(
        commits > 0 && aborts > 0,
        "a mixed stream: {commits} commits, {aborts} aborts"
    );
    assert_eq!(m.counter(names::TX_FAILED), 0);
    let (writes, fsyncs) = (m.counter(names::WAL_WRITES), m.counter(names::WAL_FSYNCS));
    assert!(
        writes <= fsyncs + 2,
        "{writes} WAL writes for {fsyncs} fsyncs ({commits} commits, {aborts} aborts)"
    );
    // Staging changes when records are written, not what is written: the
    // log holds exactly the history's events, in its order.
    let logged: Vec<_> = wal::scan_log(&dir)
        .expect("scans")
        .records
        .into_iter()
        .filter_map(|r| match r.record {
            wal::Record::Event(e) => Some(e),
            _ => None,
        })
        .collect();
    assert_eq!(logged, report.events);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exec report's totals are the registry's counters whether or not the
/// server retains per-transaction outcomes — and, when it does, they match
/// the retained list.
#[test]
fn exec_totals_are_the_registry_counters_with_and_without_retention() {
    for retain in [true, false] {
        let alpha = workload::sharded_fd_constraint(RELS);
        let initial = workload::sharded_initial(17, RELS, UNIVERSE, 0.4);
        let server = StoreBuilder::new(initial, alpha)
            .workers(2)
            .retain_outcomes(retain)
            .build()
            .expect("consistent initial state");
        let jobs = workload::sharded_jobs(17, 3, 40, RELS, UNIVERSE);
        workload::serve_chunked(&server, &jobs, 40);
        let report = server.shutdown();
        let m = &report.metrics;
        let exec = &report.exec;
        assert_eq!(m.counter(names::TX_COMMITTED), exec.committed as u64);
        assert_eq!(m.counter(names::TX_ABORTED), exec.aborted as u64);
        assert_eq!(m.counter(names::TX_FAILED), exec.failed as u64);
        assert_eq!(exec.committed + exec.aborted + exec.failed, jobs.len());
        assert!(exec.committed > 0 && exec.aborted > 0, "{exec:?}");
        if retain {
            let committed = exec
                .outcomes
                .iter()
                .filter(|(_, o)| matches!(o, TxOutcome::Committed { .. }))
                .count();
            assert_eq!(exec.outcomes.len(), jobs.len());
            assert_eq!(committed, exec.committed);
        } else {
            assert!(exec.outcomes.is_empty());
        }
    }
}

/// Checkpoint-file GC: once segments rotate and later checkpoints cover
/// the log, superseded checkpoint files are deleted (the recovery floor
/// and the newest survive), recovery still works, and the deletions are
/// counted on the registry.
#[test]
fn checkpoint_gc_deletes_superseded_files() {
    let dir = tmp_dir("ckgc");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(17, RELS, UNIVERSE, 0.4);
    let opts = WalOptions {
        segment_bytes: 512, // rotate aggressively so old segments can go
        ..WalOptions::default()
    };
    let server = StoreBuilder::new(initial, alpha)
        .workers(2)
        .persist_with(&dir, opts)
        .build()
        .expect("persisted server starts");
    let mut checkpoints_taken = 1; // genesis
    {
        let session = server.session();
        for round in 0..4u64 {
            let jobs = workload::sharded_jobs(20 + round, 1, 30, RELS, UNIVERSE);
            for job in &jobs {
                session.submit(job.clone()).wait();
            }
            server.checkpoint().expect("serving checkpoint");
            checkpoints_taken += 1;
        }
    }
    let final_version = server.version();
    let report = server.shutdown();
    checkpoints_taken += 1; // the clean shutdown checkpoint

    assert_eq!(
        report.metrics.counter(names::CHECKPOINTS),
        checkpoints_taken
    );
    let deleted = report.metrics.counter(names::CHECKPOINT_FILES_DELETED);
    assert!(deleted > 0, "rotation plus checkpoints must retire files");
    assert!(report.metrics.counter(names::WAL_SEGMENTS_DELETED) > 0);
    // What survives on disk: at most the recovery floor and the newest.
    let remaining = wal::list_checkpoints(&dir).expect("listable");
    assert!(
        remaining.len() <= 2,
        "kept {} checkpoint files",
        remaining.len()
    );
    // Checkpoints at the same covered offset overwrite the same file
    // (e.g. the clean shutdown checkpoint right after a quiesced serving
    // one), so files retired + files remaining never exceeds — but may
    // undercount — checkpoints taken.
    assert!(
        deleted + remaining.len() as u64 <= checkpoints_taken,
        "{deleted} deleted + {} remaining vs {checkpoints_taken} taken",
        remaining.len()
    );
    // And the directory still recovers to the reported state.
    let recovered = StoreBuilder::recover(&dir)
        .omega(Omega::empty())
        .workers(1)
        .build()
        .expect("recovery after checkpoint GC");
    assert_eq!(recovered.version(), final_version);
    cleanup(&dir);
}

/// A persisted server keeps no history in memory — its log is the tail —
/// so `store_history_bytes` is 0 and stays 0 while it commits, and its
/// report anchors the events at the log's floor checkpoint (genesis here).
#[test]
fn persisted_history_bytes_stay_zero() {
    let dir = tmp_dir("persisted-tail");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(31, RELS, UNIVERSE, 0.4);
    let server = StoreBuilder::new(initial.clone(), alpha)
        .workers(2)
        .persist(&dir)
        .build()
        .expect("persisted server starts");
    let jobs = workload::sharded_jobs(31, 2, 60, RELS, UNIVERSE);
    for half in jobs.chunks(60) {
        workload::serve_chunked(&server, half, 30);
        let m = server.metrics();
        assert!(m.counter(names::TX_COMMITTED) > 0);
        assert_eq!(m.gauge(names::HISTORY_BYTES), 0);
    }
    let report = server.shutdown();
    assert_eq!(report.metrics.gauge(names::HISTORY_BYTES), 0);
    assert_eq!((report.base_version, &*report.initial), (0, &initial));
    assert!(report.events.len() >= jobs.len() * 3);
    cleanup(&dir);
}

/// Served past many anchors, an in-memory server's `store_history_bytes`
/// never exceeds the tail bound plus an event, nor does any finished tail
/// its sink received, and those tails, then the report's, audit clean
/// from genesis. Release only, ignored by default: CI runs it with
/// `cargo test --release -q --test store_metrics -- --ignored`.
#[test]
#[ignore = "serves 60k transactions; run in release with --ignored"]
fn bounded_history_over_many_anchors() {
    const RELS: usize = 8;
    const ROUND: usize = 5_000;
    let (alpha, omega) = (workload::sharded_fd_constraint(RELS), Omega::empty());
    let initial = workload::sharded_initial(5, RELS, 6, 0.5);
    let (sink, received) = std::sync::mpsc::channel();
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .workers(2)
        .trace_capacity(0)
        .retain_outcomes(false)
        .history_sink(sink)
        .build()
        .expect("consistent initial state");
    let (mut programs, mut peak) = (BTreeMap::new(), 0);
    for round in 0..12 {
        let jobs = workload::sharded_jobs(round, 4, ROUND / 4, RELS, 6);
        programs.append(&mut workload::serve_chunked(&server, &jobs, ROUND / 4));
        peak = peak.max(server.metrics().gauge(names::HISTORY_BYTES));
    }
    let report = server.shutdown();
    let segments: Vec<HistorySegment> = received.try_iter().collect();
    // ~7.8 MB of history against a 512 KiB tail: about fifteen anchors.
    assert!(segments.len() >= 10, "{} anchors", segments.len());
    assert!(report.base_version > 0);
    let events = report.whole_run(&segments).expect("every tail");
    let largest = events.iter().map(|e| wal::encode_event(e).len()).max();
    let limit = TAIL_BYTES + largest.expect("a history");
    assert!(
        peak as usize <= limit,
        "history bytes peaked at {peak} > {limit}"
    );
    for segment in &segments {
        assert!(segment.bytes() <= limit, "a {} B tail", segment.bytes());
    }
    let audit = vpdt::store::audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &events,
        &programs,
        &report.templates,
    );
    assert!(audit.ok(), "{audit}");
    assert_eq!(audit.commits_checked as u64, report.final_version);
}

/// A stream of aborts alone — every insert violates the functional
/// dependency — re-anchors too: across at least three tails,
/// `store_history_bytes` stays within the bound plus an event. Its tails
/// hold no commit, so dropping one leaves no version gap: the whole-run
/// chain refuses it by its event count.
#[test]
fn an_abort_only_stream_stays_bounded() {
    let alpha = workload::sharded_fd_constraint(1);
    let mut initial = vpdt::structure::Database::empty(workload::sharded_schema(1));
    for k in 0..8 {
        initial.insert("R0", vec![Elem(k), Elem(0)]);
    }
    let (sink, received) = std::sync::mpsc::channel();
    let server = StoreBuilder::new(initial, alpha)
        .workers(1)
        .trace_capacity(0)
        .retain_outcomes(false)
        .history_sink(sink)
        .build()
        .expect("consistent initial state");
    let session = server.session();
    let (mut peak, mut tails, mut tx) = (0, Vec::new(), 0u64);
    // ~120 B a transaction: three 512 KiB tails take ~13k of them.
    for _ in 0..40 {
        let tickets: Vec<_> = (0..1000)
            .map(|_| {
                tx += 1;
                session.submit(Program::insert_consts("R0", [tx % 8, 1 + tx % 5]))
            })
            .collect();
        for ticket in tickets {
            assert!(matches!(ticket.wait(), TxOutcome::Aborted { .. }));
        }
        peak = peak.max(server.metrics().gauge(names::HISTORY_BYTES));
        tails.extend(received.try_iter());
        if tails.len() >= 3 {
            break;
        }
    }
    assert!(tails.len() >= 3, "{} tails over {tx} aborts", tails.len());
    let report = server.shutdown();
    assert_eq!(report.final_version, 0, "nothing committed");
    assert!(report.whole_run(&tails).is_ok());
    let mut dropped = tails.clone();
    dropped.remove(1);
    assert!(report.whole_run(&dropped).is_err(), "a dropped tail");
    let largest = report.events.iter().map(|e| wal::encode_event(e).len());
    let limit = TAIL_BYTES + largest.max().expect("a tail");
    assert!(
        peak as usize <= limit,
        "history bytes peaked at {peak} > {limit}"
    );
}

/// A persisted server's log already is its history: a sink is refused.
#[test]
fn a_history_sink_is_refused_on_a_persisted_server() {
    let dir = tmp_dir("persisted-sink");
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(37, RELS, UNIVERSE, 0.4);
    let (sink, _received) = std::sync::mpsc::channel();
    let built = StoreBuilder::new(initial, alpha)
        .persist(&dir)
        .history_sink(sink.clone())
        .build();
    assert_eq!(built.err(), Some(StoreError::PersistedSink));
    assert!(!dir.exists(), "nothing was created");
    // A recovering builder is persisted too.
    let refused = StoreBuilder::recover(&dir).history_sink(sink).build();
    assert_eq!(refused.err(), Some(StoreError::PersistedSink));
    cleanup(&dir);
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

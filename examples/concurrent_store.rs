//! The guard-verified store, end to end: build a resident server, serve
//! many concurrent client sessions, then audit the committed history
//! against the check-and-rollback semantics it replaced.
//!
//! ```text
//! cargo run --release --example concurrent_store
//! ```

use std::time::Instant;
use vpdt::eval::Omega;
use vpdt::store::{audit, run_serial_rollback, workload, StoreBuilder};

fn main() {
    const RELS: usize = 4;
    const UNIVERSE: u64 = 6;
    const SEED: u64 = 7;
    const CLIENTS: u64 = 8;
    const PER_CLIENT: usize = 250;
    const WORKERS: usize = 4;

    // One constraint guards the whole store: a functional dependency per
    // relation. Each conjunct is domain-independent and mentions a single
    // relation, so guards for single-relation transactions reduce to a
    // constant-size Δ and disjoint transactions commit concurrently.
    let alpha = workload::sharded_fd_constraint(RELS);
    let omega = Omega::empty();
    println!("constraint α:\n  {alpha}\n");

    let initial = workload::sharded_initial(SEED, RELS, UNIVERSE, 0.5);

    // The server owns the queue, the guard cache, and the worker pool; the
    // soundness base case (α holds at admission) is established here, once.
    // Its history keeps one bounded tail and sends each finished one to
    // `segments`, so the audit below still sees the whole run.
    let (sink, segments) = std::sync::mpsc::channel();
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .omega(omega.clone())
        .workers(WORKERS)
        .history_sink(sink)
        .build()
        .expect("initial state satisfies α");

    // A deterministic mix of prepared statements for CLIENTS seeded clients.
    let jobs = workload::sharded_jobs(SEED, CLIENTS, PER_CLIENT, RELS, UNIVERSE);

    // Warm the guard cache: every ground program canonicalizes to a
    // prepared-statement shape, and only distinct *shapes* compile —
    // O(statements), independent of the universe size.
    let tc = Instant::now();
    for program in &jobs {
        server.prepare(program).expect("compiles");
    }
    println!(
        "compiled {} statement shapes (from {} programs) in {:.1?}",
        server.cache_stats().shapes,
        jobs.len(),
        tc.elapsed()
    );

    // Serve: one session per client, each from its own thread, pipelining
    // submissions (tickets now, outcomes later).
    println!("serving {CLIENTS} sessions across {WORKERS} worker threads");
    let t0 = Instant::now();
    let programs = workload::serve_chunked(&server, &jobs, PER_CLIENT);
    let concurrent = t0.elapsed();
    let report = server.shutdown();
    println!(
        "guarded-sessions:   {} committed, {} aborted in {:.1?} \
         ({} footprint conflicts retried; guard cache: {} hits, {} compilations)",
        report.exec.committed,
        report.exec.aborted,
        concurrent,
        report.exec.conflicts,
        report.cache.hits,
        report.cache.misses
    );

    // The baseline the paper displaces: serial check-and-rollback, over the
    // same programs in transaction-id order.
    let serial_programs: Vec<_> = programs.values().cloned().collect();
    let t1 = Instant::now();
    let (_, serial) = run_serial_rollback(initial.clone(), &serial_programs, &alpha, &omega);
    let serial_time = t1.elapsed();
    assert_eq!(serial.failed, 0, "the baseline never errors, it rolls back");
    assert_eq!(serial.committed + serial.aborted, jobs.len());
    println!(
        "rollback-serial:    {} committed, {} aborted in {:.1?}",
        serial.committed, serial.aborted, serial_time
    );
    println!(
        "speedup: {:.1}x\n",
        serial_time.as_secs_f64() / concurrent.as_secs_f64()
    );

    // Audit: replay the committed history through RuntimeChecked and
    // cross-check every guard decision — the whole run, from version 0:
    // the finished tails the sink received, then the last one.
    let segments: Vec<_> = segments.try_iter().collect();
    let events = report
        .whole_run(&segments)
        .expect("the sink received every finished tail");
    let verdict = audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &events,
        &programs,
        &report.templates,
    );
    println!("{verdict}");
    assert!(verdict.ok(), "the audit must verify the run");

    // A glimpse of the history log — note the session provenance on Begin.
    println!("\nfirst events of the {}-entry history:", events.len());
    for e in events.iter().take(6) {
        println!("  {e:?}");
    }
}

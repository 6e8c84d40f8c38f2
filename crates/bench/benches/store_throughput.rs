//! Store throughput: the guarded session front door vs serial
//! check-and-rollback on the same deterministic sharded workload, plus the
//! marginal cost of one guarded transaction with a warm cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use vpdt_core::prerelations::compile_program;
use vpdt_core::safe::exact_wpc;
use vpdt_core::wpc::wpc_sentence;
use vpdt_eval::Omega;
use vpdt_logic::Formula;
use vpdt_store::{run_serial_rollback, workload, GuardCache, StoreBuilder};

const RELS: usize = 8;
const UNIVERSE: u64 = 6;
const SEED: u64 = 99;

fn bench_pipelines(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_pipeline");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let alpha = workload::sharded_fd_constraint(RELS);
    let omega = Omega::empty();
    let initial = workload::sharded_initial(SEED, RELS, UNIVERSE, 0.5);
    let jobs = workload::sharded_jobs(SEED, 4, 100, RELS, UNIVERSE);

    // The session front door, server lifecycle included: build (spawning
    // the pool), serve the whole workload from 4 concurrent sessions,
    // shutdown.
    g.bench_with_input(BenchmarkId::new("guarded_sessions", 4), &jobs, |b, jobs| {
        b.iter(|| {
            let server = StoreBuilder::new(initial.clone(), alpha.clone())
                .omega(omega.clone())
                .workers(4)
                .build()
                .expect("consistent initial state");
            std::thread::scope(|scope| {
                for chunk in jobs.chunks(100) {
                    let session = server.session();
                    scope.spawn(move || {
                        let tickets: Vec<_> = chunk
                            .iter()
                            .map(|program| session.submit(program.clone()))
                            .collect();
                        for ticket in &tickets {
                            ticket.wait();
                        }
                    });
                }
            });
            server.shutdown()
        });
    });
    g.bench_with_input(BenchmarkId::new("rollback_serial", 1), &jobs, |b, jobs| {
        b.iter(|| run_serial_rollback(initial.clone(), std::hint::black_box(jobs), &alpha, &omega));
    });
    g.finish();
}

fn bench_guard_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_guard_eval");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    let alpha = workload::sharded_fd_constraint(RELS);
    let omega = Omega::empty();
    let initial = workload::sharded_initial(SEED, RELS, UNIVERSE, 0.5);
    let cache = GuardCache::new(initial.schema().clone(), alpha.clone(), omega.clone());
    let program = vpdt_tx::program::Program::insert_consts("R0", [0, 3]);
    let prepared = cache.get_or_compile(&program).expect("compiles");
    // the wpc of the one conjunct the insert disturbs, and of all of α
    let pre = compile_program("ins", &program, initial.schema(), &omega).expect("compiles");
    let reduced = Formula::and(
        alpha
            .conjuncts()
            .into_iter()
            .filter(|c| c.relations_used().contains("R0"))
            .map(|c| wpc_sentence(&pre, c).expect("translates")),
    );
    let wpc = exact_wpc(&program, &alpha, initial.schema(), &omega).expect("translates");

    // What a worker pays per transaction: the shape lookup, then the
    // shape's compiled guard plan run with the transaction's bindings.
    g.bench_with_input(
        BenchmarkId::new("bind_and_plan", RELS),
        &initial,
        |b, db| {
            b.iter(|| {
                cache
                    .bind(std::hint::black_box(&program))
                    .expect("hits")
                    .guard_holds(std::hint::black_box(db), &omega)
                    .expect("evaluates")
            });
        },
    );
    // The same verdict through the ground guard: the lookup plus the
    // guard instantiated with the bindings, then evaluated from scratch.
    g.bench_with_input(
        BenchmarkId::new("instantiate_and_holds", RELS),
        &initial,
        |b, db| {
            b.iter(|| {
                let prepared = cache
                    .get_or_compile(std::hint::black_box(&program))
                    .expect("hits");
                vpdt_eval::holds(std::hint::black_box(db), &omega, &prepared.guard)
                    .expect("evaluates")
            });
        },
    );
    // Δ vs reduced wpc (one conjunct) vs full wpc, each as a ground formula
    g.bench_with_input(BenchmarkId::new("delta_fast", RELS), &initial, |b, db| {
        b.iter(|| {
            vpdt_eval::holds(std::hint::black_box(db), &omega, &prepared.guard).expect("evaluates")
        });
    });
    g.bench_with_input(BenchmarkId::new("reduced_wpc", RELS), &initial, |b, db| {
        b.iter(|| vpdt_eval::holds(std::hint::black_box(db), &omega, &reduced).expect("evaluates"));
    });
    g.bench_with_input(BenchmarkId::new("full_wpc", RELS), &initial, |b, db| {
        b.iter(|| vpdt_eval::holds(std::hint::black_box(db), &omega, &wpc).expect("evaluates"));
    });
    g.finish();
}

criterion_group!(benches, bench_pipelines, bench_guard_eval);
criterion_main!(benches);

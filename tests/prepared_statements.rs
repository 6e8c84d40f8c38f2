//! Prepared statements end to end: template compilation is equivalent to
//! ground compilation (property-tested over random programs and databases),
//! the shape-keyed cache evicts and recompiles correctly under a tight LRU
//! bound, and audits verify histories whose shapes were evicted — and
//! reject histories with forged statement provenance.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vpdt::core::safe::{compile_guard, exact_wpc};
use vpdt::eval::{holds, Omega};
use vpdt::logic::subst::instantiate_params;
use vpdt::logic::{Elem, Formula, Schema};
use vpdt::store::{audit, workload, Event, StoreBuilder, TxOutcome};
use vpdt::structure::Database;
use vpdt::tx::program::{Program, ProgramTransaction};
use vpdt::tx::template::canonicalize;
use vpdt::tx::traits::Transaction;

fn schema2() -> Schema {
    Schema::new([("E", 2), ("F", 2)])
}

fn fd2() -> Formula {
    vpdt::logic::parse_formula(
        "(forall x y z. E(x, y) & E(x, z) -> y = z) \
         & (forall x y z. F(x, y) & F(x, z) -> y = z)",
    )
    .expect("parses")
}

fn step(kind: u64, a: u64, b: u64) -> Program {
    let rel = if kind & 1 == 0 { "E" } else { "F" };
    if kind & 2 == 0 {
        Program::insert_consts(rel, [a, b])
    } else {
        Program::delete_consts(rel, [a, b])
    }
}

/// A random single-step or two-step ground program over {E, F}.
fn arb_program() -> impl Strategy<Value = Program> {
    let single = (0u64..4, 0u64..5, 0u64..5).prop_map(|(k, a, b)| step(k, a, b));
    let double = (0u64..4, 0u64..4, 0u64..5, 0u64..5, 0u64..5)
        .prop_map(|(k1, k2, a, b, c)| Program::seq([step(k1, a, b), step(k2, b, c)]));
    prop_oneof![3 => single, 1 => double]
}

/// A random database over {E, F} (not necessarily consistent with the fd),
/// expanded deterministically from a seed (the vendored proptest stand-in
/// has no collection strategies).
fn arb_db() -> impl Strategy<Value = Database> {
    (0u64..1_000_000, 0usize..8).prop_map(|(seed, n)| {
        let mut db = Database::empty(schema2());
        let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z
        };
        for _ in 0..n {
            let rel = if next() & 1 == 0 { "E" } else { "F" };
            let (a, b) = (next() % 5, next() % 5);
            db.insert(rel, vec![Elem(a), Elem(b)]);
        }
        db
    })
}

proptest! {
    // Each case compiles two guards (ground + template); two-step programs
    // compose prerelations symbolically, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole property: for a random ground program, compiling its
    /// canonicalized template and substituting the bindings decides exactly
    /// like compiling the ground program directly — and both agree with the
    /// semantic ground truth `T(D) ⊨ α` on consistent states (the fast
    /// guard's contract) and everywhere for the full wpc.
    #[test]
    fn template_guard_equals_ground_guard(program in arb_program(), db1 in arb_db(), db2 in arb_db()) {
        let dbs = [db1, db2];
        let schema = schema2();
        let alpha = fd2();
        let omega = Omega::empty();
        let ground = compile_guard("gnd", &program, &alpha, &schema, &omega).expect("compiles");
        let (template, bindings) = canonicalize(&program).expect("canonicalizes");
        let shape = vpdt::core::safe::compile_guard_template("tpl", &template, &alpha, &schema, &omega)
            .expect("template compiles");
        let fast = shape.instantiate_fast(&bindings);
        let wpc = instantiate_params(
            &exact_wpc(template.shape(), &alpha, &schema, &omega).expect("translates"),
            &bindings,
        );
        let ground_wpc = exact_wpc(&program, &alpha, &schema, &omega).expect("translates");
        for db in &dbs {
            // full wpc: exact on every state
            let by_template = holds(db, &omega, &wpc).expect("evaluates");
            let by_ground = holds(db, &omega, &ground_wpc).expect("evaluates");
            let out = ProgramTransaction::new("t", program.clone(), omega.clone())
                .apply(db)
                .expect("applies");
            let truth = holds(&out, &omega, &alpha).expect("evaluates");
            prop_assert_eq!(by_template, by_ground, "wpc diverges on {:?}", db);
            prop_assert_eq!(by_template, truth, "wpc is not exact on {:?}", db);
            // fast guard: equivalent on states satisfying the invariant
            if holds(db, &omega, &alpha).expect("evaluates") {
                let fast_template = holds(db, &omega, &fast).expect("evaluates");
                let fast_ground = holds(db, &omega, &ground.fast).expect("evaluates");
                prop_assert_eq!(fast_template, fast_ground, "fast guards diverge on {:?}", db);
                prop_assert_eq!(fast_template, truth, "accept/abort decision wrong on {:?}", db);
            }
        }
    }
}

/// Fill the cache past its LRU bound through a served run: evicted shapes
/// recompile, and the audit still verifies the history even though most
/// compilations are long gone — shape *identities* are never evicted.
#[test]
fn eviction_recompiles_and_audit_survives() {
    const RELS: usize = 4;
    const UNIVERSE: u64 = 4;
    let alpha = workload::sharded_fd_constraint(RELS);
    let omega = Omega::empty();
    let initial = workload::sharded_initial(3, RELS, UNIVERSE, 0.5);
    // the menu has 2 shapes per relation = 8 shapes; cap the cache at 3
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .omega(omega.clone())
        .guard_cache_capacity(3)
        .workers(4)
        .build()
        .expect("initial state satisfies the constraint");
    let jobs = workload::sharded_jobs(3, 4, 60, RELS, UNIVERSE);
    let programs = workload::serve_chunked(&server, &jobs, 60);
    let report = server.shutdown();
    assert_eq!(report.exec.failed, 0, "{:?}", report.exec);
    assert!(report.exec.committed > 0);

    let stats = report.cache;
    assert_eq!(stats.shapes, 2 * RELS, "every menu shape was seen");
    assert!(stats.entries <= 3, "LRU bound holds: {stats:?}");
    assert!(stats.evictions > 0, "the bound forced evictions: {stats:?}");
    assert!(
        stats.misses > stats.shapes as u64,
        "evicted shapes recompiled: {stats:?}"
    );

    // identities survive eviction: the audit resolves every shape
    assert_eq!(report.templates.len(), 2 * RELS);
    let verdict = audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &report.events,
        &programs,
        &report.templates,
    );
    assert!(verdict.ok(), "{verdict}");
    assert_eq!(verdict.commits_checked, report.exec.committed);
}

/// Forged statement provenance is rejected: a commit whose recorded
/// bindings do not instantiate to the submitted program, or whose shape id
/// is unknown, draws a concrete complaint.
#[test]
fn audit_rejects_forged_provenance() {
    let alpha = workload::sharded_fd_constraint(2);
    let omega = Omega::empty();
    let initial = workload::sharded_initial(5, 2, 4, 0.4);
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .omega(omega.clone())
        .workers(1)
        .build()
        .expect("initial state satisfies the constraint");
    let session = server.session();
    let mut programs = BTreeMap::new();
    for program in [
        Program::insert_consts("R0", [3, 3]),
        Program::insert_consts("R1", [2, 0]),
    ] {
        let ticket = session.submit(program.clone());
        ticket.wait();
        programs.insert(ticket.id(), program);
    }
    let report = server.shutdown();
    assert!(report.exec.committed > 0, "{:?}", report.exec);

    // forge the bindings of the first commit
    let mut events = report.events.clone();
    let pos = events
        .iter()
        .position(|e| matches!(e, Event::Commit { .. }))
        .expect("has a commit");
    if let Event::Commit { bindings, .. } = &mut events[pos] {
        bindings[0] = Elem(bindings[0].0 + 1);
    }
    let verdict = audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &events,
        &programs,
        &report.templates,
    );
    assert!(!verdict.ok(), "forged bindings must not verify");
    assert!(
        verdict
            .problems
            .iter()
            .any(|p| p.contains("instantiates to") || p.contains("bindings")),
        "the complaint names the provenance: {verdict}"
    );

    // forged provenance on a *Begin* event is caught too (this covers
    // transactions that abort and therefore never reach a commit check)
    let mut events = report.events.clone();
    let begin_pos = events
        .iter()
        .position(|e| matches!(e, Event::Begin { .. }))
        .expect("has a begin");
    if let Event::Begin { bindings, .. } = &mut events[begin_pos] {
        bindings[0] = Elem(bindings[0].0 + 1);
    }
    let verdict = audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &events,
        &programs,
        &report.templates,
    );
    assert!(!verdict.ok(), "forged begin provenance must not verify");

    // an unknown shape id is caught too
    let mut events = report.events.clone();
    if let Event::Commit { shape, .. } = &mut events[pos] {
        *shape = 999;
    }
    let verdict = audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &events,
        &programs,
        &report.templates,
    );
    assert!(!verdict.ok(), "unknown shapes must not verify");
    assert!(verdict
        .problems
        .iter()
        .any(|p| p.contains("unknown statement shape")));
}

/// Relation-sharded storage under a served commit: committing a
/// transaction that writes only R0 leaves the new version's R1 the *same
/// `Arc`* as the previous version's — copy-on-write cloning and the commit
/// path never copy an untouched relation's tuples. (The stale-but-disjoint
/// merge path asserts the same pointer sharing in `snapshot.rs`'s unit
/// tests.)
#[test]
fn disjoint_merges_swap_pointers_under_the_executor() {
    let alpha = workload::sharded_fd_constraint(2);
    let mut initial = Database::empty(workload::sharded_schema(2));
    initial.insert("R0", vec![Elem(0), Elem(1)]);
    initial.insert("R1", vec![Elem(2), Elem(3)]);
    let server = StoreBuilder::new(initial, alpha)
        .workers(1)
        .build()
        .expect("initial state satisfies the constraint");
    let before = server.snapshot();
    let outcome = server
        .session()
        .submit_sync(Program::insert_consts("R0", [4, 0]));
    assert_eq!(outcome, TxOutcome::Committed { version: 1 });
    let after = server.snapshot();
    // R1 was not written: the new version's R1 is the old version's R1
    assert!(after.db.shares_rel(&before.db, "R1"));
    assert!(!after.db.shares_rel(&before.db, "R0"));
}

//! Deterministic guards on what a transaction allocates on the worker's
//! path, counted without any timing:
//!
//! * a guard-cache hit through the worker's lookup ([`GuardCache::bind`])
//!   allocates the bindings `Vec` and nothing else — a hit that rebuilt
//!   the program, formatted a string key, re-canonicalized or built a
//!   ground guard would allocate more;
//! * running a shape's compiled guard plan (an FD insert residue, a
//!   delete's) allocates nothing once the thread's scratch space is warm;
//! * a `DeleteWhere` that visits every tuple of a relation allocates as
//!   much on a relation ten times larger: its condition's cost is per
//!   statement, not per tuple visited.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vpdt::eval::Omega;
use vpdt::logic::{parse_formula, Elem, Formula, Schema, Term, Var};
use vpdt::store::GuardCache;
use vpdt::structure::Database;
use vpdt::tx::program::Program;

/// Counts the allocations (and reallocations) of the current thread, so
/// the test harness's own threads do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning how many allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The two-FD constraint over `E` and `F` the guards below protect.
fn cache() -> GuardCache {
    GuardCache::new(
        Schema::new([("E", 2), ("F", 2)]),
        parse_formula(
            "(forall x y z. E(x, y) & E(x, z) -> y = z) \
             & (forall x y z. F(x, y) & F(x, z) -> y = z)",
        )
        .expect("parses"),
        Omega::empty(),
    )
}

/// A state over the cache's schema: `E` and `F` map `k` to `k + 1` for
/// `k < n`. Its domain is the deferred active-domain view, as every
/// committed state's is, so copying the state copies no domain set.
fn state(cache: &GuardCache, n: u64) -> Database {
    let mut db = Database::empty(cache.schema().clone());
    for k in 0..n {
        db.insert("E", vec![Elem(k), Elem(k + 1)]);
        db.insert("F", vec![Elem(k), Elem(k + 1)]);
    }
    db.shrink_domain_to_active();
    db
}

#[test]
fn a_cache_hit_allocates_only_the_bindings() {
    let cache = cache();
    for (warm, probe) in [
        (
            Program::insert_consts("E", [1, 2]),
            Program::insert_consts("E", [3, 4]),
        ),
        (
            Program::delete_consts("F", [1, 2]),
            Program::delete_consts("F", [0, 3]),
        ),
    ] {
        assert!(!cache.bind(&warm).expect("compiles").cache_hit);
        let (hit, bound) = allocations(|| cache.bind(&probe).expect("binds"));
        assert!(
            bound.cache_hit,
            "{probe:?} hits the shape {warm:?} compiled"
        );
        assert_eq!(
            hit, 1,
            "a hit on {probe:?} made {hit} allocations; the bindings need one"
        );
    }
}

#[test]
fn running_a_guard_plan_allocates_nothing() {
    let cache = cache();
    let omega = Omega::empty();
    let db = state(&cache, 40);
    // an FD insert residue over a key present and absent, and a delete's
    for program in [
        Program::insert_consts("E", [3, 4]),
        Program::insert_consts("E", [3, 9]),
        Program::insert_consts("F", [77, 1]),
        Program::delete_consts("F", [0, 1]),
    ] {
        let bound = cache.bind(&program).expect("compiles");
        let want = cache
            .get_or_compile(&program)
            .map(|p| vpdt::eval::holds(&db, &omega, &p.guard))
            .expect("prepares")
            .expect("evaluates");
        // the first run on this thread grows the scratch space
        assert_eq!(bound.guard_holds(&db, &omega), Ok(want));
        let (n, verdict) = allocations(|| bound.guard_holds(&db, &omega));
        assert_eq!(verdict, Ok(want), "{program:?}");
        assert_eq!(
            n, 0,
            "running the guard plan of {program:?} allocated {n} times"
        );
    }
}

#[test]
fn a_delete_condition_costs_per_statement_not_per_tuple() {
    let cache = cache();
    let omega = Omega::empty();
    // pins no leading column, so the delete visits every tuple of `E`;
    // matches none, so nothing is removed (and nothing copied)
    let delete = Program::DeleteWhere {
        rel: "E".into(),
        vars: vec![Var::new("d0"), Var::new("d1")],
        cond: Formula::and([
            Formula::eq(Term::var("d1"), Term::cst(999u64)),
            Formula::rel("F", [Term::var("d0"), Term::var("d1")]),
        ]),
    };
    let counts: Vec<usize> = [20, 200]
        .into_iter()
        .map(|n| {
            let db = state(&cache, n);
            delete.run(&db, &omega).expect("runs");
            let (count, out) = allocations(|| delete.run(&db, &omega).expect("runs"));
            assert_eq!(out.rel("E").len(), n as usize);
            count
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "a delete visiting 20 and 200 tuples allocated {counts:?} times"
    );
}

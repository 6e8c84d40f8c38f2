//! A deterministic guard on what executing a transaction costs: it must
//! scale with what the transaction writes, not with the schema, the
//! relation or the domain. Cloning a database copies only its relation
//! handles (the schema is shared); a delete that misses allocates the same
//! on a 69-tuple relation as on a 5-tuple one (it seeks its key instead of
//! testing every tuple); and a delete that hits allocates the same whatever
//! the other relations hold (removal pins the removed elements instead of
//! rebuilding the domain). A return to copying the schema, to scanning or
//! to rebuilding the domain fails here without any timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vpdt::eval::Omega;
use vpdt::logic::{parse_formula, Elem, Var};
use vpdt::store::workload::sharded_initial;
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

/// A normalized state shaped like a store's: 32 binary relations over a
/// universe of 80, each a functional dependency holding ~68 tuples.
fn wide() -> Database {
    let mut db = sharded_initial(1, 32, 80, 0.85);
    db.shrink_domain_to_active();
    db
}

/// `db` with `R0` cut to its first five tuples, normalized.
fn with_small_r0(db: &Database) -> Database {
    let mut out = db.clone();
    let extra: Vec<Vec<Elem>> = db.rel("R0").iter().skip(5).cloned().collect();
    for t in &extra {
        out.remove("R0", t);
    }
    out.shrink_domain_to_active();
    out
}

/// An `R0` key with no tuple, its first column held by some tuple.
fn absent_key(db: &Database) -> [u64; 2] {
    let t = db.rel("R0").iter().next().expect("R0 is not empty");
    let b = (0..).find(|b| !db.contains("R0", &[t[0], Elem(*b)]));
    [t[0].0, b.expect("some column value is free")]
}

#[test]
fn cloning_a_database_copies_only_the_relation_handles() {
    let db = wide();
    assert_eq!(db.schema().len(), 32);
    let (n, copy) = allocations(|| db.clone());
    assert!(
        n <= 1,
        "cloning a 32-relation database made {n} allocations"
    );
    assert_eq!(copy, db);
}

#[test]
fn a_missing_delete_costs_the_same_on_a_big_relation() {
    let omega = Omega::empty();
    let big = wide();
    let small = with_small_r0(&big);
    assert!(big.rel("R0").len() >= 60 && small.rel("R0").len() == 5);
    // Both relations hold the key's first column, so both seeks land
    // inside them. The second condition tests a relation atom (which
    // allocates its argument tuple) before the pins, so a scan would
    // allocate once per tuple. Results are compared by relation only:
    // comparing whole states would materialize their domains.
    let [a, b] = absent_key(&small);
    assert!(!big.contains("R0", &[Elem(a), Elem(b)]));
    let delete_where = |cond: String| Program::DeleteWhere {
        rel: "R0".into(),
        vars: vec![Var::new("d0"), Var::new("d1")],
        cond: parse_formula(&cond).expect("parses"),
    };
    let atom_then_pins = delete_where(format!("!R1(d1, d0) & d0 = {a} & d1 = {b}"));
    for p in [Program::delete_consts("R0", [a, b]), atom_then_pins] {
        let (on_small, out) = allocations(|| p.run(&small, &omega).expect("runs"));
        assert!(out.shares_rel(&small, "R0"), "{p:?} deletes nothing");
        let (on_big, out) = allocations(|| p.run(&big, &omega).expect("runs"));
        assert!(out.shares_rel(&big, "R0"), "{p:?} deletes nothing");
        assert!(
            on_big <= on_small,
            "{p:?} made {on_big} allocations on {} tuples, {on_small} on 5",
            big.rel("R0").len()
        );
    }
    // The control: pinning only the second column seeks nothing, so the
    // condition is tested at every tuple and the count grows with them.
    let unpinned = delete_where(format!("!R1(d1, d0) & d1 = {b}"));
    let (on_small, _) = allocations(|| unpinned.run(&small, &omega).expect("runs"));
    let (on_big, _) = allocations(|| unpinned.run(&big, &omega).expect("runs"));
    assert!(
        on_big >= on_small + 50,
        "a scan allocates per tuple: {on_big} on the big relation, {on_small} on 5"
    );
}

#[test]
fn a_hitting_delete_does_not_rebuild_the_domain() {
    let omega = Omega::empty();
    let full = with_small_r0(&wide());
    let mut alone = Database::empty(full.schema().clone());
    for t in full.rel("R0").iter() {
        alone.insert("R0", t.clone());
    }
    alone.shrink_domain_to_active();
    // (`active_domain` reads the relations' caches, not the domain cell:
    // materializing either domain before the count would change it)
    assert!(full.active_domain().len() > 4 * alone.active_domain().len());
    let t = full
        .rel("R0")
        .iter()
        .next()
        .expect("R0 is not empty")
        .clone();
    let p = Program::delete_consts("R0", [t[0].0, t[1].0]);
    let (on_alone, out) = allocations(|| p.run(&alone, &omega).expect("runs"));
    assert!(!out.contains("R0", &t) && out.domain() == alone.domain());
    let (on_full, out) = allocations(|| p.run(&full, &omega).expect("runs"));
    assert!(!out.contains("R0", &t) && out.domain() == full.domain());
    assert!(
        on_full <= on_alone,
        "deleting one tuple made {on_full} allocations beside 31 full relations, \
         {on_alone} beside empty ones"
    );
}

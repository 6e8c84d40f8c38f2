//! A deterministic guard on the cost of a guard-cache hit: preparing a
//! program whose shape is cached allocates no more than instantiating the
//! shape's fast guard with the same bindings, plus the bindings `Vec`.
//! A hit that rebuilt the program, formatted a string key or otherwise
//! re-canonicalized would allocate far more, and fails here without any
//! timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vpdt::eval::Omega;
use vpdt::logic::{parse_formula, Schema};
use vpdt::store::GuardCache;
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

#[test]
fn a_cache_hit_allocates_only_the_bindings_and_the_guard() {
    let cache = GuardCache::new(
        Schema::new([("E", 2), ("F", 2)]),
        parse_formula(
            "(forall x y z. E(x, y) & E(x, z) -> y = z) \
             & (forall x y z. F(x, y) & F(x, z) -> y = z)",
        )
        .expect("parses"),
        Omega::empty(),
    );
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
        assert!(!cache.get_or_compile(&warm).expect("compiles").cache_hit);
        let (hit, prepared) = allocations(|| cache.get_or_compile(&probe).expect("prepares"));
        assert!(
            prepared.cache_hit,
            "{probe:?} hits the shape {warm:?} compiled"
        );
        let (guard, _) =
            allocations(|| prepared.shape.compiled.instantiate_fast(&prepared.bindings));
        assert!(
            hit <= guard + 1,
            "a hit on {probe:?} made {hit} allocations; instantiating its guard makes {guard}"
        );
    }
}

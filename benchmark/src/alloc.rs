//! Per-thread counting allocator (the pattern of
//! `crates/bench/tests/zero_alloc.rs`).
//!
//! The counter is thread-local so that a measurement taken around one
//! call on one thread sees only that call's allocations: the
//! replication workers, the governor and the load generator all
//! allocate concurrently, and a process-wide counter would mix them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised Cell: bumping it never allocates, so the
    // allocator cannot recurse into itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // try_with: a thread whose TLS is already torn down goes uncounted
    // instead of panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a plain
// thread-local cell with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations (alloc, alloc_zeroed, realloc) made so far by the
/// calling thread.
pub fn count() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

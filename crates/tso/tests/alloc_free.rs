//! The recovery load path allocates nothing once its scratch buffer is
//! warm: `read_pre_failure_into` and `do_read` over a frozen stack of two
//! crashed executions are counted by a global allocator, and must ask it
//! for 0 bytes. The count is machine-independent, so it gates exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::Location;

use jaaru_pmem::PmAddr;
use jaaru_tso::{do_read, read_pre_failure_into, EvictionPolicy, ThreadId, TsoMachine};

/// Counts the bytes each thread allocates, so tests running in parallel
/// do not see each other's allocations.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` guarantees are exactly the ones `System`
// needs; the counter is a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: forwarded unchanged; see the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + new_size));
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

#[test]
fn warm_recovery_reads_allocate_nothing() {
    let t = ThreadId(0);
    let loc = Location::caller();
    // Execution 0 writes and flushes line 2, then writes line 3 unflushed;
    // execution 1 overwrites part of line 2 with a store that straddles
    // into line 3. Several bytes then have more than one candidate.
    let mut m = TsoMachine::new(EvictionPolicy::Eager);
    m.store(t, PmAddr::new(128), &[1; 8], loc);
    m.clflush(t, PmAddr::new(128).cache_line());
    m.store(t, PmAddr::new(192), &[2; 8], loc);
    m.store(t, PmAddr::new(192), &[3; 8], loc);
    let mut stack = vec![m.crash()];
    let mut m = TsoMachine::new(EvictionPolicy::Eager);
    m.store(t, PmAddr::new(188), &[4; 8], loc);
    m.store(t, PmAddr::new(130), &[5; 2], loc);
    stack.push(m.crash());

    let addrs: Vec<PmAddr> = (120..204).map(PmAddr::new).collect();
    let mut cands = Vec::new();
    // Warm-up: grows the scratch buffer to the largest candidate set.
    for &a in &addrs {
        read_pre_failure_into(&stack, a, &mut cands);
    }
    assert!(cands.capacity() >= 3);

    let before = allocated();
    let mut multi = 0;
    for &a in &addrs {
        read_pre_failure_into(&stack, a, &mut cands);
        multi += usize::from(cands.len() > 1);
        // Commit to the oldest candidate: the most refinement per read.
        let chosen = *cands.last().unwrap();
        do_read(&mut stack, a, chosen);
    }
    let spent = allocated() - before;
    assert!(multi > 0, "the stack must offer some multi-candidate bytes");
    assert_eq!(spent, 0, "recovery reads allocated {spent} bytes");
}

//! Allocation regression test for a shard's front path.
//!
//! A submit the shard has already answered is served from its
//! allocation cache: the tenant state is refreshed and the cached answer
//! cloned into the reply. Before that lookup the shard resolves the
//! request's allocator, whose constructor asks for the default thread
//! count; a host probe there (a cgroup and affinity read, with its own
//! allocations) would cost more than the lookup itself. A counting
//! global allocator, per thread so that concurrently running tests do
//! not disturb each other, checks that every repeat of a cache-hit
//! submit allocates the same small constant.

use cdsf_serve::{LoadgenConfig, Request, Response, ServeConfig, ShardCore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator may be called while the thread's locals
    // are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` without a destructor, so counting
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations one allocation-cache-hit submit makes. A host probe on
/// the path shows as more: reading the width through
/// `std::thread::available_parallelism` on every submit made it 11.
const PER_HIT: u64 = 7;

#[test]
fn a_cache_hit_submit_allocates_a_small_constant() {
    let stream = LoadgenConfig {
        seed: 42,
        requests: 50,
        policy_mix: 0.0,
        fault_rate: 0.0,
        snapshot_rate: 0.0,
        ..LoadgenConfig::default()
    }
    .stream()
    .expect("the stream config is valid");
    let submit = stream
        .into_iter()
        .find(|r| matches!(r, Request::Submit(_)))
        .expect("the stream submits");
    let mut core = ShardCore::new(
        0,
        ServeConfig {
            shards: 1,
            build_threads: 1,
            ..ServeConfig::default()
        },
    );
    let warm = core.handle(&submit);
    assert!(
        matches!(warm, Response::Submit(_)),
        "the warm-up submit failed: {warm:?}"
    );
    for repeats in [1, 10, 100] {
        let hits = core.stats().alloc_cache_hits;
        let allocations = allocations_during(|| {
            for _ in 0..repeats {
                black_box(core.handle(&submit));
            }
        });
        assert_eq!(
            core.stats().alloc_cache_hits,
            hits + repeats,
            "every repeat is an allocation-cache hit"
        );
        assert_eq!(
            allocations,
            PER_HIT * repeats,
            "{repeats} cache-hit submits allocated {allocations} times"
        );
    }
}

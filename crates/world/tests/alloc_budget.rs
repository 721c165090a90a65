//! Allocation gate: heap allocations per executed event in one small
//! incast cell per PCB strategy.
//!
//! The cell is 16 clients x 32 connections at fan-in 8 (256 PCBs per
//! server), 1 warm-up and 3 measured iterations, on the staggered
//! schedule, counted over the whole `run_dc` call: world build, run
//! and teardown. On commit 7d3a7d2, before the ATM cell path stopped
//! allocating, the same cells made 7.60 (mtf), 8.50 (cache) and 8.52
//! (hash) allocations per executed event. The gate allows 40% of
//! that.
//!
//! Allocations are a work counter, not a clock: the count depends
//! only on the code and the seed, so the gate passes or fails the
//! same way on any machine. This file is its own test binary because
//! it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use world::{run_dc, PcbStrategy, Topology, TrafficSchedule};

/// Allocations per executed event before the change, per strategy in
/// `PcbStrategy::ALL` order.
const PARENT: [f64; 3] = [7.60, 8.50, 8.52];

/// The share of [`PARENT`] the gate allows.
const BUDGET: f64 = 0.4;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count: only the measured
    /// call's, never the test harness's own threads.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only an
// atomic and a const-initialized thread-local, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's `new_size` obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with this thread's allocations counted; returns its
/// result and the count.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn incast_allocations_per_event_stay_within_budget() {
    for (strategy, parent) in PcbStrategy::ALL.into_iter().zip(PARENT) {
        let mut topo = Topology::incast(16, 8, 32);
        topo.iterations = 3;
        topo.warmup = 1;
        topo.strategy = strategy;
        let (r, allocations) = counted(|| run_dc(&topo, TrafficSchedule::staggered(), 1));
        assert_eq!(
            r.rtts.len(),
            16 * 32 * 3,
            "{strategy:?}: every RPC completes"
        );
        let per_event = allocations as f64 / r.events as f64;
        println!(
            "{strategy:?}: {allocations} allocations over {} events = {per_event:.2} per event \
             (budget {:.2})",
            r.events,
            BUDGET * parent
        );
        assert!(
            per_event <= BUDGET * parent,
            "{strategy:?}: {per_event:.2} allocations per event, over {BUDGET} x {parent}"
        );
    }
}

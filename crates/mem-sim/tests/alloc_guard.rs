//! Allocation guard for reclaim: heap allocations are counted, not
//! timed, so a regression to a victim list per reclaim pass cannot hide
//! in machine noise. A host at its watermarks reclaims on every kswapd
//! step, so such a list would cost a dense host an allocation (and a
//! lookup per victim) every period.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread, so the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arv_cgroups::{Bytes, CgroupId, MemController};
use arv_mem::{ChargeOutcome, MemSim, MemSimConfig};
use arv_sim_core::SimDuration;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a `Cell` local to
// the calling thread and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Containers on the host, every one of them over its soft limit.
const GROUPS: u32 = 1_000;

/// A host of [`GROUPS`] containers, each holding 2 MiB against a 1 MiB
/// soft limit, with 10 MiB left free: below kswapd's low watermark.
fn host_at_its_watermarks() -> MemSim {
    let mut mem = MemSim::new(MemSimConfig::with_total(Bytes::from_mib(
        2 * u64::from(GROUPS) + 10,
    )));
    for id in (0..GROUPS).map(CgroupId) {
        mem.register(
            id,
            MemController::unlimited().with_soft_limit(Bytes::from_mib(1)),
        );
        assert!(mem.charge(id, Bytes::from_mib(2)).is_ok());
    }
    assert!(mem.free() < mem.watermarks().low);
    mem
}

#[test]
fn a_reclaiming_kswapd_step_allocates_nothing() {
    let mut mem = host_at_its_watermarks();
    let (n, ()) = allocations(|| mem.kswapd_step(SimDuration::from_millis(24)));
    assert!(
        mem.swap_out_total() > Bytes::ZERO,
        "the step reclaimed from the over-soft groups"
    );
    assert_eq!(n, 0, "a reclaiming kswapd step made {n} allocations");
}

#[test]
fn a_charge_under_direct_reclaim_allocates_nothing() {
    let mut mem = host_at_its_watermarks();
    // More than free memory and every group's excess together: both
    // the soft pass and the indiscriminate one run.
    let amount = Bytes::from_mib(u64::from(GROUPS) + 500);
    let (n, out) = allocations(|| mem.charge(CgroupId(0), amount));
    assert!(
        matches!(out, ChargeOutcome::Charged { swapped_out } if swapped_out > Bytes::from_mib(u64::from(GROUPS))),
        "{out:?}"
    );
    assert!(
        mem.usage(CgroupId(1)) < Bytes::from_mib(1),
        "the indiscriminate pass took from a group at its soft limit"
    );
    assert_eq!(n, 0, "a charge under direct reclaim made {n} allocations");
}

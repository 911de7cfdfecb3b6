//! Allocation guard for the host's firing: heap allocations are
//! counted, not timed, so a copy of the change list per firing cannot
//! hide in machine noise.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread, so the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arv_cgroups::{Bytes, CgroupId};
use arv_container::{ContainerSpec, SimHost};
use arv_fleet::{encode_ack, Ack, FleetPolicy, Periphery};
use arv_viewd::ViewServer;

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

/// On a warm host of 1 000 idle containers with the view daemon, a
/// journal and a periphery attached, a step whose firing moves 5 views
/// makes as many heap allocations as one that moves 500: the drain
/// fills the host's reused buffer, which the journal and the periphery
/// take by a swap, the daemon is written through the cell handles the
/// host holds, and the periphery reads the list where it lies. A fresh
/// change list per firing, and a `Vec` of its views for the periphery,
/// made the count grow with what moved.
#[test]
fn a_firing_allocates_the_same_for_5_or_500_moved_views() {
    const N: usize = 1_000;
    const CHECKPOINT_EVERY: u64 = 8;
    const HOST: u32 = 3;
    let mut host = SimHost::new(64, Bytes::from_gib(2 * N as u64));
    let ids: Vec<CgroupId> = (0..N)
        .map(|i| {
            let spec = ContainerSpec::new(format!("c{i}"), 4)
                .cpus(2.0)
                .memory_reservation(Bytes::from_mib(512))
                .memory(Bytes::from_gib(1));
            host.launch(&spec)
        })
        .collect();
    host.attach_viewd(ViewServer::new(host.viewd_host_spec(), 8));
    host.enable_journal(CHECKPOINT_EVERY);
    host.attach_periphery(Periphery::new(HOST));
    // One DELTA frame holds 500 entries, as it holds 5.
    let policy = FleetPolicy {
        epoch: 1,
        max_batch: 1_024,
        ..FleetPolicy::default()
    };
    assert!(host.deliver_fleet_ack(&encode_ack(&Ack {
        host: HOST,
        expected_seq: 0,
        ctl_epoch: 0,
        resync: false,
        not_leader: false,
        policy: Some(policy),
    })));
    for id in &ids {
        assert!(host.charge(*id, Bytes::from_mib(64)).is_ok());
    }
    // A step that moves every other container's available memory from
    // a start that shifts each step, by a 1 MiB charge or its return;
    // the views it shipped and the allocations the step made.
    let (mut round, mut holds) = (0, vec![false; N]);
    let mut step = |host: &mut SimHost, moved: usize| {
        round += 1;
        for j in 0..moved {
            let c = (round * 101 + 2 * j) % N;
            if holds[c] {
                host.uncharge(ids[c], Bytes::from_mib(1));
            } else {
                assert!(host.charge(ids[c], Bytes::from_mib(1)).is_ok());
            }
            holds[c] = !holds[c];
        }
        let shipped = |host: &SimHost| host.periphery().map_or(0, |p| p.stats().entries);
        let before = shipped(host);
        let (n, _) = allocations(|| host.step(&[]));
        host.take_fleet_frames();
        (shipped(host) - before, n)
    };
    // Warm: every buffer has grown to a 500-view firing, over whole
    // checkpoint cycles.
    for _ in 0..3 * CHECKPOINT_EVERY {
        step(&mut host, 500);
    }
    // Right after a checkpoint, so neither measured firing writes one.
    while host.now_tick() % CHECKPOINT_EVERY != 0 {
        step(&mut host, 500);
    }
    let (few_moved, few) = step(&mut host, 5);
    let (many_moved, many) = step(&mut host, 500);
    assert_eq!((few_moved, many_moved), (5, 500), "views moved");
    assert_eq!(few, many, "allocations: 5 views moved vs 500");
}

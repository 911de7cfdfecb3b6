//! Allocation guard for the fleet half of the propagation path —
//! periphery, primary ingest and standby apply: heap allocations, and
//! the bytes the record CRC covers, are counted, not timed, so a
//! regression to a buffer per record or to a record framed or verified
//! twice cannot hide in machine noise.
//!
//! Its own test binary because it installs a counting global allocator.
//! Both counts are per thread, so the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arv_fleet::protocol::frame_delta_record;
use arv_fleet::{
    decode_frame, encode_delta, Delta, DeltaEntry, DeltaHead, FleetController, FleetPolicy, Frame,
    HostSummary, Periphery,
};
use arv_persist::crc32::checksummed_bytes;
use arv_persist::{framed_len, Snapshot, ViewState};

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

/// Bytes this thread checksums while `f` runs.
fn checksummed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = checksummed_bytes();
    let out = f();
    (checksummed_bytes() - before, out)
}

/// Bytes a CRC covers in a stream of framed records: each record's
/// length word and body, not its CRC.
fn covered(mut records: &[u8]) -> u64 {
    let mut bytes = 0;
    while let Some(len) = framed_len(records) {
        bytes += len as u64 - 4;
        records = &records[len..];
    }
    assert!(records.is_empty(), "a stream of whole records");
    bytes
}

fn delta(seq: u64, entries: u32, bump: u32) -> Vec<u8> {
    delta_from(1, seq, entries, bump)
}

fn delta_from(host: u32, seq: u64, entries: u32, bump: u32) -> Vec<u8> {
    encode_delta(&Delta {
        head: DeltaHead {
            host,
            seq,
            full: seq == 0,
            health: 0,
            durability_lost: false,
            epoch: 0,
            origin_tick: seq,
            trace_seq: seq,
            summary: HostSummary::default(),
        },
        entries: (0..entries)
            .map(|id| DeltaEntry {
                id,
                tenant: id % 3,
                e_cpu: 1 + (id + bump) % 16,
                e_mem: 4096,
                e_avail: 1024,
            })
            .collect(),
        removed: Vec::new(),
    })
}

/// Before batch framing a DELTA cost about six allocations an entry:
/// three `Vec`s in `Journal::append_delta`, three in `encode_record`.
/// Then it cost 4 for the 1-entry DELTA below and 3 for the 100-entry
/// one: the decoded entries' `Vec`, a node of the heard set (the first
/// DELTA after a drain) and the ones named below. Applied from the
/// frame's bytes, with the heard list a kept `Vec`, a warm DELTA
/// allocates its ACK and nothing else.
#[test]
fn ingest_allocations_do_not_grow_with_the_entries_in_a_frame() {
    let mut ctl = FleetController::new(4, FleetPolicy::default());
    ctl.enable_journal(64);
    ctl.enable_replication();
    // Warm: the host and its containers are known, the REPL outbox and
    // the journal's file have grown past what the first measured frame
    // adds.
    let mut seq = 0;
    for round in 0..8 {
        let resp = ctl.handle_frame(&delta(seq, 100, round)).expect("ACK");
        assert!(matches!(decode_frame(&resp), Some(Frame::Ack(a)) if !a.resync));
        seq += 1;
    }
    assert!(!ctl.take_repl_frames().is_empty());
    ctl.advance_tick();

    let mut ingest = |entries: u32| {
        let frame = delta(seq, entries, seq as u32);
        seq += 1;
        let (n, resp) = allocations(|| ctl.handle_frame(&frame));
        assert!(matches!(decode_frame(&resp.expect("ACK")), Some(Frame::Ack(a)) if !a.resync));
        n
    };
    assert_eq!(
        ingest(1),
        2,
        "the ACK, and the host's event ring growing to its 16 slots (its 9th event)"
    );
    assert_eq!(
        ingest(100),
        2,
        "the ACK, and the journal's in-memory file doubling (past 32 KiB)"
    );
    assert_eq!(ingest(100), 1, "the ACK, nothing else");
    assert_eq!(
        ctl.repl_backlog_records(),
        201,
        "every frame was replicated"
    );
    assert_eq!(ctl.metrics().snapshot().journal_io_errors, 0);
}

/// A standby applies a REPL frame straight from the bytes it read: the
/// ACK is its one allocation, whatever the number of host batches it
/// carries. Copying the frame's records and its heard list out first
/// made 3; decoding every record into a growing `Vec` of records (and
/// the heard list into a growing `Vec` too) made 6 for a frame of 1
/// batch of 10 entries and 19 for one of 200 such batches.
#[test]
fn applying_a_repl_frame_allocates_the_same_for_1_or_200_batches() {
    const HOSTS: u32 = 200;
    let primary = FleetController::new(4, FleetPolicy::default());
    primary.enable_replication();
    let standby = FleetController::new(4, FleetPolicy::default());
    let mut seq = [0; HOSTS as usize];
    let mut round = |hosts: u32| {
        for host in 0..hosts {
            let next = &mut seq[host as usize];
            let resp = primary
                .handle_frame(&delta_from(host, *next, 10, *next as u32))
                .expect("ACK");
            assert!(matches!(decode_frame(&resp), Some(Frame::Ack(a)) if !a.resync));
            *next += 1;
        }
        let frames = primary.take_repl_frames();
        assert_eq!(frames.len(), 1);
        frames
    };
    // Warm: every host and its containers are known to the standby.
    for _ in 0..3 {
        for frame in round(HOSTS) {
            standby.handle_frame(&frame).expect("ACK");
        }
    }
    let apply = |frames: Vec<Vec<u8>>| {
        let (n, resp) = allocations(|| standby.handle_frame(&frames[0]));
        assert!(matches!(decode_frame(&resp.expect("ACK")), Some(Frame::Ack(a)) if !a.resync));
        n
    };
    // Host 0 alone, then every host: both in sequence for the standby.
    let one = round(1);
    assert_eq!(apply(one), 1, "a frame of 1 batch: the ACK");
    let all = round(HOSTS);
    assert_eq!(apply(all), 1, "a frame of {HOSTS} batches: the ACK");
    assert_eq!(
        standby.metrics().snapshot().repl_records_applied,
        primary.metrics().snapshot().repl_records_streamed
    );
}

/// A warm DELTA into a journaled, replicating primary is framed once:
/// the CRC covers its record's bytes exactly once, and the journal and
/// the REPL outbox both take those bytes. The standby that applies the
/// REPL frame verifies each record exactly once, and shadow-journals the
/// verified bytes without checksumming them again; shipping the outbox
/// checksums nothing. Framing the journal's copy a second time, or
/// re-verifying a record on the standby, doubles a count.
#[test]
fn a_record_is_checksummed_once_on_the_primary_and_once_on_the_standby() {
    const HOSTS: u32 = 50;
    let mut primary = FleetController::new(4, FleetPolicy::default());
    primary.enable_journal(64);
    primary.enable_replication();
    let mut standby = FleetController::new(4, FleetPolicy::default());
    standby.enable_journal(64);
    let mut seq = [0; HOSTS as usize];
    let mut round = |primary: &FleetController, hosts: u32, entries: u32| {
        let mut crc_bytes = Vec::new();
        for host in 0..hosts {
            let next = &mut seq[host as usize];
            let frame = delta_from(host, *next, entries, *next as u32);
            let mut record = Vec::new();
            frame_delta_record(&mut record, &frame);
            let (n, resp) = checksummed(|| primary.handle_frame(&frame));
            assert!(matches!(decode_frame(&resp.expect("ACK")), Some(Frame::Ack(a)) if !a.resync));
            crc_bytes.push((n, covered(&record)));
            *next += 1;
        }
        crc_bytes
    };
    // Warm: every host and its containers are known to both nodes (the
    // first frames carry the checkpoint that aligns the standby).
    for _ in 0..3 {
        round(&primary, HOSTS, 100);
        for frame in primary.take_repl_frames() {
            standby.handle_frame(&frame).expect("ACK");
        }
    }
    // A 1-entry record is shorter than a fold block, a 100-entry one
    // longer: both kernels count the same.
    for entries in [1, 100] {
        for (n, record) in round(&primary, HOSTS, entries) {
            assert_eq!(n, record, "the primary checksums its record once");
        }
        let (n, frames) = checksummed(|| primary.take_repl_frames());
        assert_eq!(n, 0, "shipping the outbox checksums nothing");
        assert_eq!(frames.len(), 1);
        let Some(Frame::Repl(repl)) = decode_frame(&frames[0]) else {
            panic!("the primary shipped no REPL frame");
        };
        let (n, resp) = checksummed(|| standby.handle_frame(&frames[0]));
        assert!(matches!(decode_frame(&resp.expect("ACK")), Some(Frame::Ack(a)) if !a.resync));
        assert_eq!(
            n,
            covered(&repl.records),
            "the standby verifies each record once"
        );
    }
    assert_eq!(
        standby.metrics().snapshot().repl_records_applied,
        primary.metrics().snapshot().repl_records_streamed
    );
    assert_eq!(primary.metrics().snapshot().journal_io_errors, 0);
    assert_eq!(standby.metrics().snapshot().journal_io_errors, 0);
}

#[test]
fn observing_an_unchanged_snapshot_allocates_only_its_heartbeat() {
    let mut snap = Snapshot::at(1);
    snap.entries = (0..1000u32)
        .map(|id| ViewState {
            id,
            e_cpu: 1 + id % 8,
            e_mem: 1 << 30,
            e_avail: 1 << 29,
            last_tick: 1,
        })
        .collect();
    let mut p = Periphery::new(7);
    // Warm: HELLO and the FULL are out, both mirror buffers have grown,
    // and the outbox holds a slot for the next frame.
    for tick in 1..=3 {
        snap.tick = tick;
        p.observe(&snap, false, 0);
        if tick == 1 {
            // HELLO, and the FULL in four `max_batch` chunks.
            assert_eq!(p.take_frames().len(), 5);
        }
    }
    snap.tick = 4;
    let (at_a_new_tick, ()) = allocations(|| p.observe(&snap, false, 0));
    assert_eq!(
        at_a_new_tick, 1,
        "the heartbeat frame's bytes, nothing else"
    );
    let (at_the_same_tick, ()) = allocations(|| p.observe(&snap, false, 0));
    assert_eq!(at_the_same_tick, 0);
    // Told that nothing moved, the periphery costs the same: the
    // heartbeat's bytes at a new tick, nothing at the same one.
    let (moved_at_a_new_tick, ()) = allocations(|| p.observe_moved(5, &[], &[], false, 0));
    assert_eq!(moved_at_a_new_tick, 1, "the heartbeat frame's bytes");
    let (moved_at_the_same_tick, ()) = allocations(|| p.observe_moved(5, &[], &[], false, 0));
    assert_eq!(moved_at_the_same_tick, 0);
    assert_eq!(p.take_frames().len(), 4, "one heartbeat a tick");
    assert_eq!(p.stats().entries, 1000, "nothing shipped after the FULL");
}

/// When k ≤ `max_batch` values move and no id comes or goes, `observe`
/// overwrites the k mirror entries in place and encodes their frame
/// straight from the mirror: the frame's bytes are the one allocation.
/// Copying the moved entries into a `Vec`, and each chunk into the
/// `Delta` it encoded, made 3.
#[test]
fn observing_moved_values_allocates_only_their_frame() {
    const MOVED: u32 = 100;
    let mut snap = Snapshot::at(1);
    snap.entries = (0..1000u32)
        .map(|id| ViewState {
            id,
            e_cpu: 1 + id % 8,
            e_mem: 1 << 30,
            e_avail: 1 << 29,
            last_tick: 1,
        })
        .collect();
    let mut p = Periphery::new(7);
    assert!(MOVED <= p.policy().max_batch);
    // Every tenth entry moves to a new value, stamped `tick`.
    let move_at = |snap: &mut Snapshot, tick: u64| {
        snap.tick = tick;
        for s in snap.entries.iter_mut().step_by(10) {
            s.e_cpu += 1;
            s.last_tick = tick;
        }
    };
    // Warm: HELLO and the FULL are out, the position list has grown
    // past the FULL, and the outbox holds a slot for the next frame.
    p.observe(&snap, false, 0);
    assert_eq!(p.take_frames().len(), 5, "HELLO and four FULL chunks");
    for tick in 2..=3 {
        move_at(&mut snap, tick);
        p.observe(&snap, false, 0);
    }
    move_at(&mut snap, 4);
    let (n, ()) = allocations(|| p.observe(&snap, false, 0));
    assert_eq!(n, 1, "the moved entries' frame, nothing else");
    let frames = p.take_frames();
    let Some(Frame::Delta(d)) = decode_frame(&frames[2]) else {
        panic!("the measured observation shipped no DELTA");
    };
    assert_eq!((d.entries.len(), d.head.origin_tick), (MOVED as usize, 4));
    assert!(d.entries.iter().all(|e| e.id % 10 == 0));
    assert_eq!(p.stats().entries, 1000 + 3 * u64::from(MOVED));
}

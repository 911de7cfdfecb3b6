//! Persistence benchmarks with a machine-checkable report.
//!
//! Measures the numbers the durability design budgets for — the cost of
//! one journal delta append (encode + CRC + store write), replay cost
//! through `restore`, the tax the fault-injecting store wrapper adds
//! to a clean append path, and the speed of the record CRC and of its
//! table kernel over a byte-at-a-time one — writes them to
//! `BENCH_persist.json`, and fails if a gate is breached, so `ci.sh`
//! can gate on a single run.
//!
//! Every gate is a same-run ratio, so machine speed cancels: what is
//! left is the shape of the code. Each catches one algorithmic
//! regression — a re-encode of the whole journal per append or an
//! O(journal) seek inside the store, a replay that is super-linear in
//! the records it reads, per-byte RNG draws in the fault wrapper, a CRC
//! (or its table kernel) back on one serial chain of lookups.

use arv_bench::{best_of, Report};
use arv_persist::{crc32, restore, FaultyStore, Journal, Snapshot, StoreFaults, ViewState};
use std::hint::black_box;
use std::time::Instant;

/// Delta records appended per trial.
const RECORDS: u64 = 20_000;
/// Journal sizes, in delta records, the restore trials replay.
const RESTORE_RECORDS: [u64; 2] = [1_000, 10_000];
/// Records each restore trial replays, whatever the journal size.
const REPLAYED_PER_TRIAL: u64 = 100_000;
/// Trials per measurement; the fastest counts (noise only ever adds).
const TRIALS: u32 = 3;

/// Ceiling on ns per record appending onto a journal that already
/// holds [`RECORDS`] over appending onto an empty one. An append is a
/// fixed-size encode, a CRC and a memcpy onto the store's tail; a
/// per-append re-encode of the journal, or a store that seeks or copies
/// what it already holds, costs in proportion to that history and blows
/// straight through this.
const MAX_APPEND_GROWN_OVER_EMPTY: f64 = 2.0;
/// Ceiling on restore's ns per record at 10 000 records over 1 000.
/// Replay is one pass over the bytes; a per-record rescan or re-apply
/// of what came before grows 10× between the two.
const MAX_RESTORE_GROWTH: f64 = 2.0;
/// Ceiling on the fault-wrapper tax: the same append workload over a
/// `FaultyStore` (all probabilistic axes armed at low rates) relative
/// to the plain in-memory store. The wrapper draws O(1) random bits
/// per call, so anything past this ratio means fault injection leaked
/// a per-byte cost onto the hot path. Both sides are min-of-3.
const MAX_FAULTY_OVERHEAD_RATIO: f64 = 3.0;
/// Bytes each CRC trial checksums.
const CRC_BYTES: u32 = 64 * 1024;
/// Checksums of [`CRC_BYTES`] each CRC trial times.
const CRC_PASSES: u32 = 64;
/// Floor on the ns per byte of a byte-at-a-time CRC over that of
/// `crc32::checksum`, both over the same 64 KiB in the same run. Every
/// journal and REPL record is framed with that CRC on the primary and
/// verified with it on the standby. On a CPU with `pclmulqdq` the
/// carry-less-multiply fold reads ≈ 54; where the fold cannot run,
/// `checksum` is the table kernel (see [`MIN_TABLE_CRC_SPEEDUP`]).
const MIN_CRC_SPEEDUP: f64 = 6.0;
/// The same floor on `crc32::table_checksum`, the table kernel alone,
/// whatever the CPU: it frames every record shorter than one fold block
/// and every record on a CPU without the fold, so it is gated apart.
/// Slice-by-8 alone is one dependent chain of lookups and reads
/// 3.8–3.9; three lanes per 192-byte block read 7.6–10.0 (2-vCPU VM).
/// Every other gate passes a return to one chain.
const MIN_TABLE_CRC_SPEEDUP: f64 = 6.0;

fn delta(i: u64) -> ViewState {
    let mem = 256 + (i % 512);
    ViewState {
        id: (i % 64) as u32,
        e_cpu: 1 + (i % 16) as u32,
        e_mem: mem,
        e_avail: mem / 2,
        last_tick: i,
    }
}

/// Seconds for [`RECORDS`] appends numbered from `first` (group-commit
/// sync every 16) on the given journal; errors from injected faults are
/// counted, not fatal.
fn append_workload(journal: &mut Journal, first: u64) -> f64 {
    let start = Instant::now();
    for i in first..first + RECORDS {
        journal.set_tick(i);
        let _ = journal.append_delta(&delta(i), i);
        if i % 16 == 15 {
            let _ = journal.sync();
        }
    }
    let _ = journal.sync();
    start.elapsed().as_secs_f64()
}

/// Min-of-3 append workload over a fresh fault-injecting journal.
fn faulty_append_secs() -> f64 {
    let faults = StoreFaults {
        torn_prob: 0.01,
        write_err_prob: 0.01,
        bit_rot_prob: 0.01,
        ..StoreFaults::default()
    };
    let mut trial = 0u64;
    best_of(TRIALS, || {
        // A fault can land on the header write itself; walk seeds
        // until the journal opens (deterministic per trial).
        let mut seed = trial * 1_000 + 1;
        trial += 1;
        let mut journal = loop {
            match Journal::with_store(Box::new(FaultyStore::new(seed, faults))) {
                (j, Ok(())) => break j,
                (_, Err(_)) => seed += 1,
            }
        };
        append_workload(&mut journal, 0)
    })
}

/// Nanoseconds per record replayed through `restore` over a journal of
/// one checkpoint plus `records` deltas, fastest of [`TRIALS`].
fn restore_ns_per_record(records: u64) -> f64 {
    let mut journal = Journal::new();
    let mut snap = Snapshot::at(0);
    for c in 0..64u64 {
        snap.entries.push(delta(c));
    }
    journal.checkpoint(&snap).expect("clean checkpoint");
    for i in 0..records {
        journal.append_delta(&delta(i), i).expect("clean append");
    }
    journal.sync().expect("clean sync");
    let bytes = journal.as_bytes().to_vec();

    let passes = REPLAYED_PER_TRIAL / records;
    best_of(TRIALS, || {
        let start = Instant::now();
        for _ in 0..passes {
            let report = restore(&bytes);
            assert_eq!(
                report.truncated_records, 0,
                "clean journal must replay fully"
            );
            assert_eq!(report.applied_deltas, records);
        }
        start.elapsed().as_secs_f64() * 1e9 / (passes * records) as f64
    })
}

/// The byte-at-a-time IEEE CRC32 the record CRC is measured against.
fn bytewise_crc(table: &[u32; 256], bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Nanoseconds per byte of `crc` over [`CRC_BYTES`], fastest of
/// [`TRIALS`].
fn crc_ns_per_byte(bytes: &[u8], crc: impl Fn(&[u8]) -> u32) -> f64 {
    best_of(TRIALS, || {
        let start = Instant::now();
        for _ in 0..CRC_PASSES {
            black_box(crc(black_box(bytes)));
        }
        start.elapsed().as_secs_f64() * 1e9 / f64::from(CRC_PASSES * CRC_BYTES)
    })
}

/// ns per byte of `crc32::checksum` and of `crc32::table_checksum`,
/// and each one's speedup over a byte-at-a-time CRC of the same bytes,
/// after checking that all three agree.
fn crc_kernels() -> [(f64, f64); 2] {
    let mut table = [0u32; 256];
    for (i, slot) in (0u32..).zip(table.iter_mut()) {
        *slot = (0..8).fold(i, |c, _| {
            (c >> 1) ^ if c & 1 != 0 { 0xEDB8_8320 } else { 0 }
        });
    }
    let bytes: Vec<u8> = (0..CRC_BYTES)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let want = bytewise_crc(&table, &bytes);
    assert_eq!(crc32::checksum(&bytes), want);
    assert_eq!(crc32::table_checksum(&bytes), want);
    let bytewise = crc_ns_per_byte(&bytes, |b| bytewise_crc(&table, b));
    [crc32::checksum, crc32::table_checksum].map(|kernel| {
        let ns = crc_ns_per_byte(&bytes, kernel);
        (ns, bytewise / ns)
    })
}

fn main() {
    let clean_secs = best_of(TRIALS, || append_workload(&mut Journal::new(), 0));
    let grown_secs = best_of(TRIALS, || {
        let mut journal = Journal::new();
        append_workload(&mut journal, 0);
        append_workload(&mut journal, RECORDS)
    });
    let [restore_small, restore_large] = RESTORE_RECORDS.map(restore_ns_per_record);
    let faulty_secs = faulty_append_secs();
    let [(crc_ns_per_byte, crc_speedup), (table_ns_per_byte, table_speedup)] = crc_kernels();

    Report::new("persist")
        .value("records", RECORDS as f64)
        .value("append_ns_per_record", clean_secs * 1e9 / RECORDS as f64)
        .at_most(
            "append_grown_over_empty",
            grown_secs / clean_secs,
            MAX_APPEND_GROWN_OVER_EMPTY,
            "an append costs in proportion to the journal it lands on",
        )
        .value("restore_ns_per_record_n1000", restore_small)
        .value("restore_ns_per_record_n10000", restore_large)
        .at_most(
            "restore_growth_n10000_over_n1000",
            restore_large / restore_small,
            MAX_RESTORE_GROWTH,
            "restore is super-linear in the records it replays",
        )
        .at_most(
            "faulty_overhead_ratio",
            faulty_secs / clean_secs,
            MAX_FAULTY_OVERHEAD_RATIO,
            "the fault-injecting store leaked a per-byte cost onto the append path",
        )
        .value("crc_ns_per_byte", crc_ns_per_byte)
        .at_least(
            "crc_speedup_over_bytewise",
            crc_speedup,
            MIN_CRC_SPEEDUP,
            "the record CRC is back on one serial chain of table lookups",
        )
        .value("table_crc_ns_per_byte", table_ns_per_byte)
        .at_least(
            "table_crc_speedup_over_bytewise",
            table_speedup,
            MIN_TABLE_CRC_SPEEDUP,
            "the table kernel, the CRC wherever the fold cannot run, is back on one serial chain",
        )
        .finish();
}

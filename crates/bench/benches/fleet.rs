//! Fleet control-plane benchmarks with a machine-checkable report.
//!
//! Unlike the Criterion benches this is a plain harness: it measures the
//! numbers the fleet design budgets for — delta-ingest throughput at
//! the controller, the cluster-rollup query cost, how many periphery
//! ticks a sequence-gap resync costs, how many ticks a promoted standby
//! needs to converge every host back to Fresh, how many records the
//! hot standby trails the primary by in steady state, and what
//! journaling and replicating an entry adds to ingesting it — writes
//! them to
//! `BENCH_fleet.json`, and exits nonzero if any threshold is breached,
//! so `ci.sh` can gate on it with a single run.
//!
//! Thresholds are deliberately loose (an order of magnitude under the
//! release-mode numbers on a laptop): they catch algorithmic
//! regressions — an accidental O(containers) rollup, per-entry frame
//! re-encoding — not machine noise.

use arv_fleet::{decode_frame, FleetController, FleetPolicy, Frame, Periphery, SharedLease};
use arv_persist::{Snapshot, ViewState};
use arv_telemetry::{FlightRecorder, Tracer};
use std::time::Instant;

/// Hosts × containers in the ingest fleet.
const HOSTS: u32 = 200;
const CONTAINERS: u32 = 100;
/// Incremental rounds after the initial full sync.
const ROUNDS: u32 = 20;

/// Floor for accepted delta entries per second (release builds ingest
/// millions; debug builds still clear this comfortably).
const MIN_INGEST_ENTRIES_PER_SEC: f64 = 100_000.0;
/// Ceiling for one cluster-capacity rollup, nanoseconds. The sharded
/// running totals make this O(shards); an O(containers) regression at
/// 20 000 containers blows straight through it.
const MAX_ROLLUP_QUERY_NS: f64 = 250_000.0;
/// A gap must heal in at most this many periphery observations (the
/// rejected delta that surfaces the gap, then the FULL snapshot).
const MAX_RESYNC_TICKS: u64 = 2;

/// Ceiling on the observability tax: a full ingest run with causal
/// tracing and the flight recorder armed, relative to the same run
/// with both disabled. Span folding and the waterfall observe are O(1)
/// per frame, so anything past this ratio means observability leaked
/// onto the hot path (per-entry tracing, dump freezes on clean
/// ingest). Both sides are min-of-3, which rejects scheduler noise.
const MAX_OBS_OVERHEAD_RATIO: f64 = 1.75;

/// Ceiling on what durability may add to ingest: ns per accepted entry
/// with the journal and the REPL outbox on, over the same with neither,
/// in the same run — machine speed cancels. A record is framed once
/// (one encode, one CRC) and its bytes land in the journal and the
/// outbox; a buffer per record or a second encode per consumer put
/// this at 4–5.
const MAX_JOURNALED_INGEST_RATIO: f64 = 2.0;

/// Hosts in the replicated failover fleet (smaller than the ingest
/// fleet: the metric is convergence shape, not raw volume).
const FAILOVER_HOSTS: u32 = 32;
/// A promoted standby must converge every host back to Fresh — rollup
/// equal to ground truth, nothing partitioned — within this many
/// aggregation ticks after promotion.
const MAX_FAILOVER_TICKS_TO_FRESH: u64 = 4;
/// Ceiling on steady-state replication lag, in journal records queued
/// at the primary right before each REPL pump. One round of churn here
/// produces `FAILOVER_HOSTS × CONTAINERS` delta records; a regression
/// that re-replicates whole snapshots every round blows through 2×.
const MAX_REPL_LAG_RECORDS: u64 = 2 * (FAILOVER_HOSTS as u64) * (CONTAINERS as u64);

fn snapshot(host: u32, tick: u64, bump: u32) -> Snapshot {
    let mut snap = Snapshot::at(tick);
    for c in 0..CONTAINERS {
        let mem = 256 + u64::from((host + c) % 512);
        snap.entries.push(ViewState {
            id: c,
            e_cpu: 1 + (c + bump) % 16,
            e_mem: mem,
            e_avail: mem / 2,
            last_tick: tick,
        });
    }
    snap
}

fn pump(p: &mut Periphery, ctl: &FleetController) {
    for frame in p.take_frames() {
        if let Some(resp) = ctl.handle_frame(&frame) {
            if let Some(Frame::Ack(ack)) = decode_frame(&resp) {
                p.handle_ack(&ack);
            }
        }
    }
}

/// Accepted-entry throughput through `FleetController::handle_frame`.
fn bench_ingest(ctl: &FleetController) -> f64 {
    let mut peripheries: Vec<Periphery> = (0..HOSTS).map(Periphery::new).collect();
    let start = Instant::now();
    for round in 0..=ROUNDS {
        for (h, p) in peripheries.iter_mut().enumerate() {
            p.observe(&snapshot(h as u32, u64::from(round) + 1, round), false, 0);
            pump(p, ctl);
        }
        ctl.advance_tick();
    }
    let entries = ctl.metrics().snapshot().delta_entries;
    entries as f64 / start.elapsed().as_secs_f64()
}

/// Wall-clock seconds for one full ingest run (every host, every
/// round), min over 3 trials with a fresh controller each, with the
/// observability plane armed or disabled.
fn ingest_elapsed_secs(traced: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut ctl = FleetController::new(64, FleetPolicy::default());
        if traced {
            ctl.set_tracer(Tracer::bounded(16_384));
            ctl.set_flight_recorder(FlightRecorder::bounded(8));
        }
        let mut peripheries: Vec<Periphery> = (0..HOSTS).map(Periphery::new).collect();
        let start = Instant::now();
        for round in 0..=ROUNDS {
            for (h, p) in peripheries.iter_mut().enumerate() {
                p.observe(&snapshot(h as u32, u64::from(round) + 1, round), false, 0);
                pump(p, &ctl);
            }
            ctl.advance_tick();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Nanoseconds inside `handle_frame` per accepted entry in steady
/// state, min over 3 trials with a fresh controller each, bare or with
/// journal and replication on. The outbox is drained every round and
/// the journal compacts every 4 ticks, both outside the clock, as a
/// standby link and the tick would; the first rounds, up to the first
/// compaction, are not timed, so neither side pays for memory the
/// process touches for the first time.
fn ingest_ns_per_entry(journaled: bool) -> f64 {
    const WARM_ROUNDS: u32 = 5;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut ctl = FleetController::new(64, FleetPolicy::default());
        if journaled {
            ctl.enable_journal(4);
            ctl.enable_replication();
        }
        let mut peripheries: Vec<Periphery> = (0..HOSTS).map(Periphery::new).collect();
        let mut in_ingest = std::time::Duration::ZERO;
        let mut entries = 0;
        for round in 0..=ROUNDS {
            if round == WARM_ROUNDS {
                in_ingest = std::time::Duration::ZERO;
                entries = ctl.metrics().snapshot().delta_entries;
            }
            for (h, p) in peripheries.iter_mut().enumerate() {
                p.observe(&snapshot(h as u32, u64::from(round) + 1, round), false, 0);
                let start = Instant::now();
                pump(p, &ctl);
                in_ingest += start.elapsed();
            }
            ctl.take_repl_frames();
            ctl.advance_tick();
        }
        let entries = ctl.metrics().snapshot().delta_entries - entries;
        best = best.min(in_ingest.as_nanos() as f64 / entries as f64);
    }
    best
}

/// Mean cost of one cluster-capacity rollup over the loaded index.
fn bench_rollup(ctl: &FleetController) -> f64 {
    let iters = 2_000u32;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..iters {
        acc = acc.wrapping_add(ctl.cluster_capacity().cpu);
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
    assert!(acc > 0, "rollup must not be optimised away");
    ns
}

/// Observations from first dropped frame to totals matching again.
fn bench_resync_ticks() -> u64 {
    let ctl = FleetController::new(8, FleetPolicy::default());
    let mut p = Periphery::new(1);
    p.observe(&snapshot(1, 1, 0), false, 0);
    pump(&mut p, &ctl);

    // Lose one frame: the outbox is drained on the floor.
    p.observe(&snapshot(1, 2, 1), false, 0);
    let dropped = p.take_frames();
    assert!(!dropped.is_empty(), "the drop must lose a real frame");

    let mut ticks = 0u64;
    loop {
        ticks += 1;
        p.observe(&snapshot(1, 2 + ticks, 1), false, 0);
        pump(&mut p, &ctl);
        let want: u64 = snapshot(1, 0, 1)
            .entries
            .iter()
            .map(|e| u64::from(e.e_cpu))
            .sum();
        if ctl.cluster_capacity().cpu == want {
            return ticks;
        }
        assert!(ticks < 16, "resync never converged");
    }
}

/// Kill a replicated primary mid-stream and measure the failover shape:
/// aggregation ticks from promotion until every host is Fresh again on
/// the standby, plus the peak steady-state replication lag (records
/// queued at the primary right before each REPL pump).
fn bench_failover() -> (u64, u64) {
    let lease = SharedLease::new();
    let primary = FleetController::new(8, FleetPolicy::default());
    primary.attach_lease(lease.clone(), 1, 3);
    primary.enable_replication();
    let standby = FleetController::new(8, FleetPolicy::default());
    standby.attach_lease(lease, 2, 3);

    let mut peripheries: Vec<Periphery> = (0..FAILOVER_HOSTS).map(Periphery::new).collect();
    let mut peak_lag = 0u64;
    for round in 1..=6u64 {
        for (h, p) in peripheries.iter_mut().enumerate() {
            p.observe(&snapshot(h as u32, round, round as u32), false, 0);
            pump(p, &primary);
        }
        // Steady-state lag: what a standby trails by if the primary
        // dies right now. The first round carries the checkpoint that
        // seeds the stream, so it is not steady state.
        if round > 1 {
            peak_lag = peak_lag.max(primary.repl_backlog_records());
        }
        for frame in primary.take_repl_frames() {
            if let Some(resp) = standby.handle_frame(&frame) {
                if let Some(Frame::Ack(ack)) = decode_frame(&resp) {
                    primary.handle_repl_ack(&ack);
                }
            }
        }
        primary.advance_tick();
        standby.advance_tick();
    }

    // Crash: the primary stops ticking with the lease held; the standby
    // keeps ticking and promotes itself once the lease expires.
    let mut waited = 0u64;
    while !standby.is_leader() {
        standby.advance_tick();
        waited += 1;
        assert!(waited < 64, "standby never promoted");
    }

    // Ticks from promotion until the promoted rollup is Fresh again:
    // every periphery reconnects (re-HELLO + FULL) and ground truth
    // must match with nothing partitioned.
    let want_cpu: u64 = (0..FAILOVER_HOSTS)
        .map(|h| {
            snapshot(h, 0, 6)
                .entries
                .iter()
                .map(|e| u64::from(e.e_cpu))
                .sum::<u64>()
        })
        .sum();
    for p in peripheries.iter_mut() {
        p.on_reconnect();
    }
    let mut ticks = 0u64;
    loop {
        ticks += 1;
        for (h, p) in peripheries.iter_mut().enumerate() {
            p.observe(&snapshot(h as u32, 100 + ticks, 6), false, 0);
            pump(p, &standby);
        }
        standby.advance_tick();
        let r = standby.cluster_capacity();
        if r.partitioned == 0
            && r.cpu == want_cpu
            && r.containers == u64::from(FAILOVER_HOSTS) * u64::from(CONTAINERS)
        {
            return (ticks, peak_lag);
        }
        assert!(ticks < 32, "failover never converged to Fresh");
    }
}

fn main() {
    let ctl = FleetController::new(64, FleetPolicy::default());
    let ingest_entries_per_sec = bench_ingest(&ctl);
    let rollup_query_ns = bench_rollup(&ctl);
    let resync_ticks = bench_resync_ticks();
    let (failover_ticks_to_fresh, repl_lag_records) = bench_failover();
    let traced_secs = ingest_elapsed_secs(true);
    let untraced_secs = ingest_elapsed_secs(false);
    let obs_overhead_ratio = traced_secs / untraced_secs.max(f64::EPSILON);
    let journaled_ingest_ns = ingest_ns_per_entry(true);
    let bare_ingest_ns = ingest_ns_per_entry(false);
    let journaled_ingest_ratio = journaled_ingest_ns / bare_ingest_ns.max(f64::EPSILON);

    let json = format!(
        "{{\n  \"bench\": \"fleet\",\n  \"hosts\": {HOSTS},\n  \"containers\": {},\n  \
         \"ingest_entries_per_sec\": {ingest_entries_per_sec:.0},\n  \
         \"rollup_query_ns\": {rollup_query_ns:.0},\n  \
         \"periphery_resync_ticks\": {resync_ticks},\n  \
         \"failover_ticks_to_fresh\": {failover_ticks_to_fresh},\n  \
         \"repl_lag_records\": {repl_lag_records},\n  \
         \"obs_overhead_ratio\": {obs_overhead_ratio:.3},\n  \
         \"journaled_ingest_ns_per_entry\": {journaled_ingest_ns:.1},\n  \
         \"bare_ingest_ns_per_entry\": {bare_ingest_ns:.1},\n  \
         \"journaled_ingest_ratio\": {journaled_ingest_ratio:.3},\n  \"thresholds\": {{\n    \
         \"min_ingest_entries_per_sec\": {MIN_INGEST_ENTRIES_PER_SEC:.0},\n    \
         \"max_rollup_query_ns\": {MAX_ROLLUP_QUERY_NS:.0},\n    \
         \"max_resync_ticks\": {MAX_RESYNC_TICKS},\n    \
         \"max_failover_ticks_to_fresh\": {MAX_FAILOVER_TICKS_TO_FRESH},\n    \
         \"max_repl_lag_records\": {MAX_REPL_LAG_RECORDS},\n    \
         \"max_obs_overhead_ratio\": {MAX_OBS_OVERHEAD_RATIO},\n    \
         \"max_journaled_ingest_ratio\": {MAX_JOURNALED_INGEST_RATIO}\n  }}\n}}\n",
        u64::from(HOSTS) * u64::from(CONTAINERS),
    );
    // Cargo runs bench binaries with the package as cwd; anchor the
    // report at the workspace root where ci.sh checks for it.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fleet.json");
    std::fs::write(&out, &json).expect("write BENCH_fleet.json");
    print!("{json}");

    let mut failed = false;
    if ingest_entries_per_sec < MIN_INGEST_ENTRIES_PER_SEC {
        eprintln!(
            "FAIL: ingest {ingest_entries_per_sec:.0} entries/s < {MIN_INGEST_ENTRIES_PER_SEC:.0}"
        );
        failed = true;
    }
    if rollup_query_ns > MAX_ROLLUP_QUERY_NS {
        eprintln!("FAIL: rollup query {rollup_query_ns:.0} ns > {MAX_ROLLUP_QUERY_NS:.0} ns");
        failed = true;
    }
    if resync_ticks > MAX_RESYNC_TICKS {
        eprintln!("FAIL: resync took {resync_ticks} ticks > {MAX_RESYNC_TICKS}");
        failed = true;
    }
    if failover_ticks_to_fresh > MAX_FAILOVER_TICKS_TO_FRESH {
        eprintln!(
            "FAIL: failover took {failover_ticks_to_fresh} ticks to Fresh > \
             {MAX_FAILOVER_TICKS_TO_FRESH}"
        );
        failed = true;
    }
    if repl_lag_records > MAX_REPL_LAG_RECORDS {
        eprintln!("FAIL: replication lag {repl_lag_records} records > {MAX_REPL_LAG_RECORDS}");
        failed = true;
    }
    if obs_overhead_ratio > MAX_OBS_OVERHEAD_RATIO {
        eprintln!(
            "FAIL: observability overhead {obs_overhead_ratio:.3}x > {MAX_OBS_OVERHEAD_RATIO}x \
             (traced {traced_secs:.4}s vs untraced {untraced_secs:.4}s)"
        );
        failed = true;
    }
    if journaled_ingest_ratio > MAX_JOURNALED_INGEST_RATIO {
        eprintln!(
            "FAIL: journal + replication make ingest {journaled_ingest_ratio:.3}x bare > \
             {MAX_JOURNALED_INGEST_RATIO}x ({journaled_ingest_ns:.1} vs {bare_ingest_ns:.1} ns/entry)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("fleet bench: all thresholds met");
}

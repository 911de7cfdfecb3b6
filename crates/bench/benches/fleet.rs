//! Fleet control-plane benchmarks with a machine-checkable report.
//!
//! Measures the numbers the fleet design budgets for — delta-ingest
//! throughput at the controller, the cluster-rollup query cost, how
//! many periphery ticks a sequence-gap resync costs, how many ticks a
//! promoted standby needs to converge every host back to Fresh, how
//! many records the hot standby trails the primary by in steady state,
//! how many REPL bytes a replicated view record costs, and what
//! journaling and replicating an entry adds to ingesting it —
//! writes them to `BENCH_fleet.json`, and fails if a gate is breached,
//! so `ci.sh` can gate on a single run.
//!
//! The gates are exact counts and same-run ratios, so machine speed
//! cancels: they catch algorithmic regressions — an O(containers)
//! rollup, an O(containers) periphery observation of a few moved views,
//! a DELTA that walks its host's whole container run, a cursor that
//! mispredicts on a random part of a host's dense ids, a periphery diff
//! that branches on whether each view moved, a FULL inserted
//! entry by entry, per-entry frame re-encoding, observability on the
//! hot path — not machine noise. Ingest throughput, and what journaling
//! and replicating an entry adds to it, are reported ungated; a record
//! framed twice or a buffer per record is caught by
//! `fleet/tests/alloc_guard.rs`, which counts the bytes the record CRC
//! covers and the allocations an ingested frame costs.

use arv_bench::{best_of, ns_per_call, Report};
use arv_fleet::protocol::{frame_delta_record, MAX_BATCH};
use arv_fleet::{
    decode_frame, encode_delta, Delta, DeltaEntry, DeltaHead, FleetController, FleetPolicy, Frame,
    HostSummary, Periphery, SharedLease,
};
use arv_persist::{Snapshot, ViewState};
use arv_sim_core::SimRng;
use arv_telemetry::{FlightRecorder, Tracer};
use std::hint::black_box;
use std::time::Instant;

/// Hosts × containers in the ingest fleet.
const HOSTS: u32 = 200;
const CONTAINERS: u32 = 100;
/// Incremental rounds after the initial full sync.
const ROUNDS: u32 = 20;
/// Trials per timed measurement, each on a fresh controller; the
/// fastest counts (noise only ever adds).
const TRIALS: u32 = 3;

/// The smaller fleet the rollup is also timed over.
const SPARSE_HOSTS: u32 = 20;
/// Cluster-capacity rollups per timed block.
const ROLLUPS: u32 = 2_000;
/// Ceiling on one rollup over the [`HOSTS`]-host index over the same
/// over the [`SPARSE_HOSTS`]-host one. The sharded running totals make
/// a rollup O(shards + hosts); an O(containers) regression walks 10×
/// the entries in the larger index and blows straight through this.
const MAX_ROLLUP_GROWTH: f64 = 2.0;
/// Mirror sizes a periphery's observation of what moved is timed at,
/// smaller first.
const MOVED_POPULATIONS: [u32; 2] = [1_000, 10_000];
/// Views moved per timed observation, spread over the id range.
const MOVED: u32 = 16;
/// Timed observations per trial.
const MOVED_OBSERVES: u32 = 20_000;
/// Ceiling on one `Periphery::observe_moved` of [`MOVED`] views (and
/// the flush of their DELTA) over the larger mirror over the smaller.
/// A binary search per moved id keeps it near 1; a merge-walk of the
/// whole mirror reads ≈10×.
const MAX_MOVED_OBSERVE_GROWTH: f64 = 2.0;
/// Containers one host holds while its updates are timed, smaller
/// first.
const UPDATE_POPULATIONS: [u32; 2] = [1_000, 10_000];
/// Entries per timed update DELTA, spread over the host's ids.
const UPDATES: u32 = 16;
/// Timed update DELTAs per trial.
const UPDATE_DELTAS: u32 = 5_000;
/// Ceiling on ingesting one DELTA of [`UPDATES`] entries into the
/// larger host over the smaller. The entries sit a fixed stride apart in
/// a dense run, so each is found by its distance from the last one:
/// 0.92–1.03 in nine of ten runs on a 2-vCPU VM, 1.41 in one.
/// Galloping from where the previous entry landed read 1.16–1.41 in
/// five (a binary search per entry read 1.2–1.4); a cursor that walks
/// the run linearly reads 5.2, and a walk of the host's whole container
/// run per frame breaches too.
const MAX_INDEX_UPDATE_GROWTH: f64 = 2.0;
/// Entries in the FULL that is timed in id order and in reverse.
const FULL_ENTRIES: u32 = 20_000;
/// Timed FULLs per trial, each into a fresh controller.
const FULLS: u32 = 20;
/// Ceiling on a FULL in reverse id order over the same FULL in id
/// order. Sorting a scratch copy and merging it once costs the same
/// for either; a `Vec::insert` per entry shifts the whole run each time
/// in reverse order, and breaches it.
const MAX_UNSORTED_FULL_RATIO: f64 = 3.0;
/// Timed rounds of each quarter-vs-whole fleet (DELTAs into the
/// controller, snapshots into the peripheries), half of them with a
/// random quarter of the views moved and half with every one.
const QUARTER_ROUNDS: u32 = 40;
/// Ceiling on ns per entry of DELTAs that update a random quarter of
/// each of [`HOSTS`] hosts' [`CONTAINERS`] dense ids over the same of
/// DELTAs that update every one. A cursor that finds each id by its
/// distance from the last one reads 1.37–1.61 (ten runs on a 2-vCPU
/// VM; a quarter DELTA spreads its per-frame cost over a quarter of the
/// entries). One that steps slot by slot from the last one, exiting at
/// a random slot, reads 2.02–2.08 (five runs).
const MAX_QUARTER_UPDATE_RATIO: f64 = 1.8;
/// Ceiling on ns per snapshot entry of `Periphery::observe` over
/// [`HOSTS`] hosts of [`CONTAINERS`] containers when a freshly drawn
/// random quarter of each host's views moved, over the same when every
/// view moved. A lockstep walk that decides news without a branch reads
/// 0.69–0.73 (ten runs on a 2-vCPU VM; a quarter snapshot encodes a
/// quarter of the entries); a seek walk that branches on whether each
/// view moved mispredicts about one entry in four and read 0.91–0.99
/// (seven runs).
const MAX_QUARTER_OBSERVE_RATIO: f64 = 0.82;
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

/// Ceiling on the REPL stream's bytes per view record in steady state
/// (the failover fleet's rounds after the first: every host's DELTA
/// moves its 100 containers). One record per DELTA costs its 28-byte
/// entries plus 22 bytes of host, flags, counts and framing, and its
/// frame's header: 28.27 bytes a record. A record per container breaches:
/// 49.05 with the 49-byte records the journal used to pack each
/// container into, 50.05 with a host batch per container.
const MAX_REPL_BYTES_PER_RECORD: f64 = 42.0;

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

/// Wall-clock seconds for the ingest workload — `hosts` peripheries,
/// a full sync and [`ROUNDS`] incremental rounds through
/// `FleetController::handle_frame` — into `ctl`.
fn ingest(ctl: &FleetController, hosts: u32) -> f64 {
    let mut peripheries: Vec<Periphery> = (0..hosts).map(Periphery::new).collect();
    let start = Instant::now();
    for round in 0..=ROUNDS {
        for (h, p) in peripheries.iter_mut().enumerate() {
            p.observe(&snapshot(h as u32, u64::from(round) + 1, round), false, 0);
            pump(p, ctl);
        }
        ctl.advance_tick();
    }
    start.elapsed().as_secs_f64()
}

/// A controller loaded by [`ingest`] from `hosts` hosts, and the
/// accepted entries per second it took them in at.
fn loaded(hosts: u32) -> (FleetController, f64) {
    let ctl = FleetController::new(64, FleetPolicy::default());
    let secs = ingest(&ctl, hosts);
    let rate = ctl.metrics().snapshot().delta_entries as f64 / secs;
    (ctl, rate)
}

/// Fastest mean cost of one cluster-capacity rollup over `ctl`'s index.
fn rollup_ns(ctl: &FleetController) -> f64 {
    best_of(TRIALS, || {
        ns_per_call(ROLLUPS, || {
            black_box(ctl.cluster_capacity());
        })
    })
}

/// Seconds for one full ingest run with the observability plane armed
/// and disabled, each the fastest of [`TRIALS`]. A traced and a bare run
/// go back to back in every trial (which goes first alternates), so a
/// slow spell of the machine lands on both sides.
fn ingest_secs() -> (f64, f64) {
    let run = |traced: bool| {
        let mut ctl = FleetController::new(64, FleetPolicy::default());
        if traced {
            ctl.set_tracer(Tracer::bounded(16_384));
            ctl.set_flight_recorder(FlightRecorder::bounded(8));
        }
        ingest(&ctl, HOSTS)
    };
    (0..TRIALS).fold((f64::INFINITY, f64::INFINITY), |(traced, bare), trial| {
        let (t, b) = if trial % 2 == 0 {
            let t = run(true);
            (t, run(false))
        } else {
            let b = run(false);
            (run(true), b)
        };
        (traced.min(t), bare.min(b))
    })
}

/// Nanoseconds per accepted entry in steady state: inside
/// `handle_frame` with journal and replication on, the same bare, and
/// one [`frame_delta_record`] of the same frames; each the fastest of
/// [`TRIALS`]. Reported, not gated: a timed ratio of the three could
/// not tell a record framed once from one framed twice once the record
/// CRC folded at memory speed, so `fleet/tests/alloc_guard.rs` counts
/// the bytes checksummed instead.
fn ingest_ns_per_entry() -> (f64, f64, f64) {
    (0..TRIALS).map(|_| ingest_trial()).fold(
        (f64::INFINITY, f64::INFINITY, f64::INFINITY),
        |(j, b, e), (tj, tb, te)| (j.min(tj), b.min(tb), e.min(te)),
    )
}

/// One trial of [`ingest_ns_per_entry`]. Every frame goes to a
/// journaled and a bare controller back to back (which goes first
/// alternates by round), and then to the record encoder, so a slow
/// spell of the machine lands on all three clocks. The outbox
/// is drained every round and the journal compacts every 4 ticks, both
/// outside the clocks, as a standby link and the tick would; the first
/// rounds, up to the first compaction, are not timed, so no side pays
/// for memory the process touches for the first time.
fn ingest_trial() -> (f64, f64, f64) {
    const WARM_ROUNDS: u32 = 5;
    let mut journaled = FleetController::new(64, FleetPolicy::default());
    journaled.enable_journal(4);
    journaled.enable_replication();
    let bare = FleetController::new(64, FleetPolicy::default());
    let mut peripheries: Vec<Periphery> = (0..HOSTS).map(Periphery::new).collect();
    let mut clocks = [std::time::Duration::ZERO; 3];
    let mut entries = 0;
    let mut out = Vec::new();
    for round in 0..=ROUNDS {
        if round == WARM_ROUNDS {
            clocks = [std::time::Duration::ZERO; 3];
            entries = bare.metrics().snapshot().delta_entries;
        }
        let tick = u64::from(round) + 1;
        for (h, p) in peripheries.iter_mut().enumerate() {
            let snap = snapshot(h as u32, tick, round);
            p.observe(&snap, false, 0);
            for frame in p.take_frames() {
                let mut time = |ctl: &FleetController, clock: usize| {
                    let start = Instant::now();
                    let resp = ctl.handle_frame(&frame);
                    clocks[clock] += start.elapsed();
                    resp
                };
                let resp = if round % 2 == 0 {
                    black_box(time(&bare, 1));
                    time(&journaled, 0)
                } else {
                    let resp = time(&journaled, 0);
                    black_box(time(&bare, 1));
                    resp
                };
                if let Some(Frame::Ack(ack)) = resp.as_deref().and_then(decode_frame) {
                    p.handle_ack(&ack);
                }
                out.clear();
                let start = Instant::now();
                frame_delta_record(&mut out, black_box(&frame));
                black_box(&out);
                clocks[2] += start.elapsed();
            }
        }
        journaled.take_repl_frames();
        journaled.advance_tick();
        bare.advance_tick();
    }
    let entries = (bare.metrics().snapshot().delta_entries - entries) as f64;
    let ns = |clock: std::time::Duration| clock.as_nanos() as f64;
    (
        ns(clocks[0]) / entries,
        ns(clocks[1]) / entries,
        ns(clocks[2]) / entries,
    )
}

/// Nanoseconds per `Periphery::observe_moved` of [`MOVED`] views, each
/// a new value, spread over and rotating through a mirror of `n`
/// containers, with the DELTA it queues drained.
fn moved_observe_ns(n: u32) -> f64 {
    let state = |id: u32, e_cpu: u32| ViewState {
        id,
        e_cpu,
        e_mem: 1 << 30,
        e_avail: 1 << 29,
        last_tick: 0,
    };
    let mut p = Periphery::new(1);
    let mut full = Snapshot::at(0);
    full.entries = (0..n).map(|id| state(id, 3)).collect();
    p.observe(&full, false, 0);
    p.take_frames();
    // Every id's value alternates between 1 and 2 on successive visits,
    // so each timed observation moves all of its views.
    let stride = n / MOVED;
    let lists: Vec<Vec<ViewState>> = (0..2 * stride)
        .map(|k| {
            (0..MOVED)
                .map(|j| state(j * stride + k % stride, 1 + k / stride))
                .collect()
        })
        .collect();
    let mut tick = 0;
    best_of(TRIALS, || {
        ns_per_call(MOVED_OBSERVES, || {
            tick += 1;
            let moved = &lists[tick as usize % lists.len()];
            p.observe_moved(tick, black_box(moved), &[], false, 0);
            black_box(p.take_frames());
        })
    })
}

/// A DELTA into `host` at `seq`, FULL at 0.
fn delta(host: u32, seq: u64, entries: Vec<DeltaEntry>) -> Vec<u8> {
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
        entries,
        removed: Vec::new(),
    })
}

/// `entries` the way a periphery sends them: DELTAs of at most
/// [`MAX_BATCH`] entries from sequence 0, the first one FULL.
fn full(entries: &[DeltaEntry]) -> Vec<Vec<u8>> {
    let parts = entries.chunks(MAX_BATCH as usize);
    parts
        .zip(0..)
        .map(|(part, seq)| delta(1, seq, part.to_vec()))
        .collect()
}

fn entry(id: u32, e_cpu: u32) -> DeltaEntry {
    DeltaEntry {
        id,
        tenant: id % 4,
        e_cpu,
        e_mem: 1 << 30,
        e_avail: 1 << 29,
    }
}

/// Nanoseconds inside `handle_frame` per DELTA of [`UPDATES`] entries,
/// spread over and rotating through a host of `n` containers.
fn update_ns(n: u32) -> f64 {
    let stride = n / UPDATES;
    best_of(TRIALS, || {
        let ctl = FleetController::new(64, FleetPolicy::default());
        let setup = full(&(0..n).map(|id| entry(id, 1)).collect::<Vec<_>>());
        for frame in &setup {
            ctl.handle_frame(frame);
        }
        let mut in_ingest = std::time::Duration::ZERO;
        let first = setup.len() as u64;
        for seq in first..first + u64::from(UPDATE_DELTAS) {
            let k = seq as u32;
            let moved = (0..UPDATES).map(|j| entry(j * stride + k % stride, 1 + k % 7));
            let frame = delta(1, seq, moved.collect());
            let start = Instant::now();
            black_box(ctl.handle_frame(&frame));
            in_ingest += start.elapsed();
        }
        in_ingest.as_nanos() as f64 / f64::from(UPDATE_DELTAS)
    })
}

/// Nanoseconds inside `handle_frame` per entry over [`HOSTS`] hosts of
/// [`CONTAINERS`] dense ids: of DELTAs that update a seeded random
/// quarter of each host (what a periphery ships when a quarter of its
/// views moved), and of DELTAs that update every container (a lockstep
/// walk); each the fastest of [`TRIALS`].
fn quarter_and_whole_ns() -> (f64, f64) {
    (0..TRIALS)
        .map(|_| quarter_trial())
        .fold((f64::INFINITY, f64::INFINITY), |(q, w), (tq, tw)| {
            (q.min(tq), w.min(tw))
        })
}

/// One trial of [`quarter_and_whole_ns`]: after a FULL of every host,
/// rounds alternate between quarter and whole DELTAs, so a slow spell
/// of the machine lands on both clocks. Frames are encoded before the
/// clock starts and the tick advances after it stops; the first two
/// rounds are not timed.
fn quarter_trial() -> (f64, f64) {
    const WARM_ROUNDS: u64 = 2;
    let ctl = FleetController::new(64, FleetPolicy::default());
    let mut rng = SimRng::seed_from_u64(7);
    let (mut ns, mut entries) = ([0u128; 2], [0usize; 2]);
    for seq in 0..=WARM_ROUNDS + u64::from(QUARTER_ROUNDS) {
        let whole = seq % 2 == 0;
        let mut sent = 0;
        let frames: Vec<Vec<u8>> = (0..HOSTS)
            .map(|host| {
                let ids = (0..CONTAINERS).filter(|_| whole || rng.unit() < 0.25);
                let batch: Vec<DeltaEntry> = ids.map(|id| entry(id, 1 + seq as u32 % 7)).collect();
                sent += batch.len();
                delta(host, seq, batch)
            })
            .collect();
        let start = Instant::now();
        for frame in &frames {
            black_box(ctl.handle_frame(frame));
        }
        let elapsed = start.elapsed().as_nanos();
        ctl.advance_tick();
        if seq > WARM_ROUNDS {
            ns[usize::from(whole)] += elapsed;
            entries[usize::from(whole)] += sent;
        }
    }
    let per_entry = |side: usize| ns[side] as f64 / entries[side] as f64;
    (per_entry(0), per_entry(1))
}

/// Nanoseconds inside `Periphery::observe` per snapshot entry over
/// [`HOSTS`] hosts of [`CONTAINERS`] containers: of snapshots where a
/// seeded random quarter of each host's views moved (drawn afresh each
/// round), and of snapshots where every view moved; each the fastest of
/// [`TRIALS`].
fn quarter_and_whole_observe_ns() -> (f64, f64) {
    (0..TRIALS)
        .map(|_| quarter_observe_trial())
        .fold((f64::INFINITY, f64::INFINITY), |(q, w), (tq, tw)| {
            (q.min(tq), w.min(tw))
        })
}

/// One trial of [`quarter_and_whole_observe_ns`]: after a FULL of every
/// host, rounds alternate between a quarter and every view moved, so a
/// slow spell of the machine lands on both clocks. A moved view takes
/// the round's own `e_cpu`, a value it never held. Snapshots are built
/// before the clock starts and the frames drained after it stops; the
/// first two rounds are not timed.
fn quarter_observe_trial() -> (f64, f64) {
    const WARM_ROUNDS: u32 = 2;
    let mut rng = SimRng::seed_from_u64(11);
    let mut peripheries: Vec<Periphery> = (0..HOSTS).map(Periphery::new).collect();
    let mut snaps: Vec<Snapshot> = (0..HOSTS).map(|h| snapshot(h, 0, 0)).collect();
    let (mut ns, mut entries) = ([0u128; 2], [0usize; 2]);
    for round in 0..=WARM_ROUNDS + QUARTER_ROUNDS {
        let whole = round % 2 == 0;
        for snap in &mut snaps {
            snap.tick = u64::from(round);
            for s in &mut snap.entries {
                if round == 0 || whole || rng.unit() < 0.25 {
                    s.e_cpu = 100 + round;
                }
                s.last_tick = snap.tick;
            }
        }
        let start = Instant::now();
        for (p, snap) in peripheries.iter_mut().zip(&snaps) {
            p.observe(black_box(snap), false, 0);
        }
        let elapsed = start.elapsed().as_nanos();
        for p in &mut peripheries {
            black_box(p.take_frames());
        }
        if round > WARM_ROUNDS {
            ns[usize::from(whole)] += elapsed;
            entries[usize::from(whole)] += snaps.iter().map(|s| s.entries.len()).sum::<usize>();
        }
    }
    let per_entry = |side: usize| ns[side] as f64 / entries[side] as f64;
    (per_entry(0), per_entry(1))
}

/// Nanoseconds inside `handle_frame` per [`FULL_ENTRIES`]-entry FULL
/// into a fresh controller, its entries in id order or in reverse, sent
/// as a periphery sends it ([`full`]).
fn full_ns(reversed: bool) -> f64 {
    let mut entries: Vec<DeltaEntry> = (0..FULL_ENTRIES).map(|id| entry(id, 1)).collect();
    if reversed {
        entries.reverse();
    }
    let frames = full(&entries);
    best_of(TRIALS, || {
        let mut in_ingest = std::time::Duration::ZERO;
        for _ in 0..FULLS {
            let ctl = FleetController::new(64, FleetPolicy::default());
            let start = Instant::now();
            for frame in &frames {
                black_box(ctl.handle_frame(frame));
            }
            in_ingest += start.elapsed();
        }
        in_ingest.as_nanos() as f64 / f64::from(FULLS)
    })
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
/// queued at the primary right before each REPL pump) and the
/// steady-state REPL bytes per view record streamed.
fn bench_failover() -> (u64, u64, f64) {
    let lease = SharedLease::new();
    let primary = FleetController::new(8, FleetPolicy::default());
    primary.attach_lease(lease.clone(), 1, 3);
    primary.enable_replication();
    let standby = FleetController::new(8, FleetPolicy::default());
    standby.attach_lease(lease, 2, 3);

    let mut peripheries: Vec<Periphery> = (0..FAILOVER_HOSTS).map(Periphery::new).collect();
    let mut peak_lag = 0u64;
    let (mut repl_bytes, mut repl_records) = (0, 0);
    for round in 1..=6u64 {
        for (h, p) in peripheries.iter_mut().enumerate() {
            p.observe(&snapshot(h as u32, round, round as u32), false, 0);
            pump(p, &primary);
        }
        // Steady-state lag: what a standby trails by if the primary
        // dies right now. The first round carries the checkpoint that
        // seeds the stream, so it is not steady state.
        let streamed = || primary.metrics().snapshot().repl_records_streamed;
        let before = streamed();
        if round > 1 {
            peak_lag = peak_lag.max(primary.repl_backlog_records());
        }
        let frames = primary.take_repl_frames();
        if round > 1 {
            repl_bytes += frames.iter().map(Vec::len).sum::<usize>();
            repl_records += streamed() - before;
        }
        for frame in frames {
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
            return (ticks, peak_lag, repl_bytes as f64 / repl_records as f64);
        }
        assert!(ticks < 32, "failover never converged to Fresh");
    }
}

fn main() {
    let (ctl, ingest_entries_per_sec) = loaded(HOSTS);
    let rollup_query_ns = rollup_ns(&ctl);
    let sparse_rollup_ns = rollup_ns(&loaded(SPARSE_HOSTS).0);
    let resync_ticks = bench_resync_ticks();
    let (failover_ticks_to_fresh, repl_lag_records, repl_bytes_per_record) = bench_failover();
    let (traced_secs, bare_secs) = ingest_secs();
    let obs_overhead_ratio = traced_secs / bare_secs;
    let (journaled_ingest_ns, bare_ingest_ns, encode_ns) = ingest_ns_per_entry();
    let [small_mirror, large_mirror] = MOVED_POPULATIONS.map(moved_observe_ns);
    let [small_host, large_host] = UPDATE_POPULATIONS.map(update_ns);
    let (sorted_full, reversed_full) = (full_ns(false), full_ns(true));
    let (quarter_ns, whole_ns) = quarter_and_whole_ns();
    let (quarter_observe, whole_observe) = quarter_and_whole_observe_ns();

    Report::new("fleet")
        .value("hosts", f64::from(HOSTS))
        .value("containers", f64::from(HOSTS * CONTAINERS))
        .value("ingest_entries_per_sec", ingest_entries_per_sec)
        .value("rollup_query_ns", rollup_query_ns)
        .value("rollup_query_ns_sparse", sparse_rollup_ns)
        .at_most(
            "rollup_growth_hosts200_over_hosts20",
            rollup_query_ns / sparse_rollup_ns,
            MAX_ROLLUP_GROWTH,
            "the cluster rollup walks containers, not shard totals",
        )
        .at_most(
            "periphery_resync_ticks",
            resync_ticks as f64,
            MAX_RESYNC_TICKS as f64,
            "a sequence gap takes more than the rejected delta and one FULL to heal",
        )
        .at_most(
            "failover_ticks_to_fresh",
            failover_ticks_to_fresh as f64,
            MAX_FAILOVER_TICKS_TO_FRESH as f64,
            "a promoted standby is slow to bring every host back to Fresh",
        )
        .at_most(
            "repl_lag_records",
            repl_lag_records as f64,
            MAX_REPL_LAG_RECORDS as f64,
            "the standby trails by more than a round of churn: whole snapshots are re-replicated",
        )
        .at_most(
            "repl_bytes_per_record",
            repl_bytes_per_record,
            MAX_REPL_BYTES_PER_RECORD,
            "the REPL stream frames a record per container, not one per DELTA",
        )
        .at_most(
            "obs_overhead_ratio",
            obs_overhead_ratio,
            MAX_OBS_OVERHEAD_RATIO,
            "tracing or the flight recorder leaked onto the ingest hot path",
        )
        .value("journaled_ingest_ns_per_entry", journaled_ingest_ns)
        .value("bare_ingest_ns_per_entry", bare_ingest_ns)
        .value("encode_ns_per_entry", encode_ns)
        .value("moved_observe_ns_n1000", small_mirror)
        .value("moved_observe_ns_n10000", large_mirror)
        .at_most(
            "moved_observe_growth",
            large_mirror / small_mirror,
            MAX_MOVED_OBSERVE_GROWTH,
            "observing a few moved views walks the whole periphery mirror",
        )
        .value("index_update_ns_n1000", small_host)
        .value("index_update_ns_n10000", large_host)
        .at_most(
            "index_update_growth",
            large_host / small_host,
            MAX_INDEX_UPDATE_GROWTH,
            "a DELTA of a few updates walks the host's whole container run",
        )
        .value("full_ns_sorted", sorted_full)
        .value("full_ns_reversed", reversed_full)
        .at_most(
            "unsorted_full_ratio",
            reversed_full / sorted_full,
            MAX_UNSORTED_FULL_RATIO,
            "a FULL in reverse id order is inserted entry by entry, not sorted and merged",
        )
        .value("quarter_update_ns_per_entry", quarter_ns)
        .value("whole_update_ns_per_entry", whole_ns)
        .at_most(
            "quarter_update_ratio",
            quarter_ns / whole_ns,
            MAX_QUARTER_UPDATE_RATIO,
            "a DELTA of a random part of a host's dense ids seeks each by a data-dependent branch",
        )
        .value("quarter_observe_ns_per_entry", quarter_observe)
        .value("whole_observe_ns_per_entry", whole_observe)
        .at_most(
            "quarter_observe_ratio",
            quarter_observe / whole_observe,
            MAX_QUARTER_OBSERVE_RATIO,
            "a whole-snapshot observation branches on whether each view moved",
        )
        .finish();
}

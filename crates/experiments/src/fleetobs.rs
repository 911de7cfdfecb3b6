//! Fleet observability campaign (`--fig fleetobs`): causal spans,
//! staleness waterfalls, and the anomaly flight recorder, proven
//! against ground-truth tick arithmetic.
//!
//! Two scenarios, seeded and replay-checked on the [`crate::campaign`]
//! harness, and one overhead measurement:
//!
//! * **waterfall** — peripheries stream span-stamped DELTA frames into
//!   a controller while a [`arv_sim_core::FaultPlan`] injects seeded
//!   faults: one host's frames are dropped for a partition window (the
//!   gap healed by a FULL resync), another's are delayed in order by a
//!   lag window. The driver *independently* simulates the controller's
//!   accept rule from the decoded frames alone, so at every tick the
//!   controller's per-host freshness lags, the span stamped on every
//!   rollup (`origin_min` / `trace_max` / `max_lag`), and the per-host
//!   end-to-end waterfall histograms must all equal the driver's own
//!   tick arithmetic **exactly** — not approximately.
//! * **flightrec** — a replicated pair walks through the anomaly
//!   gauntlet: a lease-stalled primary forces a standby promotion, then
//!   the stale primary's REPL stream is fenced. Each anomaly must
//!   freeze a flight dump; the dumps are retrieved over the query path
//!   (`QUERY_FLIGHT`) and their encoded bytes must be **bit-identical**
//!   across two runs of the same seed — a black box nobody can trust
//!   to replay is not a black box.
//! * **overhead** — the same ingest stream is replayed into a
//!   controller with tracing + flight recording enabled and into one
//!   with both disabled; the traced per-frame cost must stay inside a
//!   fixed budget of the untraced cost, mirroring the single-host
//!   [`crate::obs`] gate. Observability that taxes the hot path gets
//!   turned off in production, which is worse than not having it.

use std::time::Instant;

use arv_fleet::{
    decode_frame, encode_query, FleetController, FleetPolicy, Frame, Periphery, Query, Rollup,
    RollupFrame, QUERY_CLUSTER, QUERY_FLIGHT,
};
use arv_persist::{Snapshot, ViewState};
use arv_sim_core::{FaultConfig, FaultPlan, SimRng};
use arv_telemetry::{FlightDump, FlightRecorder, FlightTrigger, LagHistogram, Tracer};

use crate::campaign::{
    churn_view, pump_repl, replicated_pair, rows, snapshot_at, synthetic_views, Campaign,
    FaultyLinks, Run, Scenario,
};
use crate::report::{FigReport, Row, Table};

/// Campaign seeds (distinct from the fleet, chaos, and recovery
/// suites).
const SEEDS: [u64; 2] = [0x0B5F1EE7, 0x57A1E];

/// Host whose frames the lag window delays (in order); host 0 is the
/// partitioned one ([`FaultyLinks`]).
const LAGGED_HOST: usize = 1;

/// Trace-ring capacity for the traced ingest runs: far above the
/// event volume of any scenario here.
const RING_CAPACITY: usize = 16_384;

/// Flight dumps the recorder retains in every scenario.
const FLIGHT_DUMPS: usize = 8;

/// Traced fleet ingest must stay within `ratio * untraced + slack` per
/// frame. Span folding, the waterfall observe, and the (armed but idle)
/// flight recorder are all O(1) bookkeeping; the slack keeps the gate
/// meaningful when the untraced baseline is a few hundred nanoseconds.
const OVERHEAD_BUDGET_RATIO: f64 = 1.75;
/// Absolute per-frame slack, nanoseconds.
const OVERHEAD_SLACK_NS: f64 = 400.0;

// --- scenario 1: staleness waterfalls vs ground-truth arithmetic ---

/// Driver-side mirror of one host's controller state: the accept rule
/// re-derived independently from the decoded frames.
#[derive(Debug, Clone, Copy, Default)]
struct GroundTruth {
    /// The controller has seen at least one frame from this host, so
    /// it appears in freshness-lag listings and span stamps.
    known: bool,
    expect: u64,
    needs_resync: bool,
    origin_tick: u64,
    trace_seq: u64,
    waterfall: LagHistogram,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WaterfallOutcome {
    hosts: u64,
    rounds: u64,
    frames_dropped: u64,
    frames_delayed: u64,
    gap_resyncs_truth: u64,
    gap_resyncs: u64,
    lag_mismatches: u64,
    span_mismatches: u64,
    waterfall_mismatches: u64,
    origin_violations: u64,
    final_max_lag: u64,
    final_trace_max: u64,
    dumps_frozen: u64,
}

/// Ask `ctl` a query over the frame protocol and decode the rollup.
fn query(ctl: &FleetController, kind: u8, arg: u32) -> RollupFrame {
    let resp = ctl
        .handle_frame(&encode_query(&Query { kind, arg }))
        .expect("query answered");
    let Some(Frame::Rollup(frame)) = decode_frame(&resp) else {
        panic!("expected ROLLUP");
    };
    frame
}

/// The span stamped on a live cluster rollup.
fn query_span(ctl: &FleetController) -> arv_fleet::SpanStamp {
    query(ctl, QUERY_CLUSTER, 0).span
}

fn run_waterfall(seed: u64, hosts: u32, containers: u32, rounds: u32) -> WaterfallOutcome {
    let plan = FaultPlan::new(
        seed,
        FaultConfig {
            partition_at: Some((4, 6)),
            lag_ticks: 2,
            ..FaultConfig::quiet()
        },
    );
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0B5);
    let mut ctl = FleetController::new(8, FleetPolicy::default());
    ctl.set_tracer(Tracer::bounded(RING_CAPACITY));
    ctl.set_flight_recorder(FlightRecorder::bounded(FLIGHT_DUMPS));

    let mut truth = synthetic_views(&mut rng, hosts, containers);
    let mut peripheries: Vec<Periphery> = (0..hosts).map(Periphery::new).collect();
    let mut gt: Vec<GroundTruth> = vec![GroundTruth::default(); hosts as usize];
    let mut links = FaultyLinks::default();

    let mut out = WaterfallOutcome {
        hosts: u64::from(hosts),
        rounds: u64::from(rounds),
        ..WaterfallOutcome::default()
    };

    // Deliver one frame: the controller ingests it for real while the
    // driver replays the accept rule on the decoded copy. Both sides
    // see the same `now`, so their lag arithmetic must coincide.
    let deliver = |ctl: &FleetController,
                   p: &mut Periphery,
                   gt: &mut GroundTruth,
                   out: &mut WaterfallOutcome,
                   frame: &[u8]| {
        let now = ctl.now_tick();
        gt.known = true;
        match decode_frame(frame) {
            Some(Frame::Hello(h)) => {
                // A hello seeds the origin so a not-yet-flushed host
                // doesn't report lag measured from tick zero.
                gt.origin_tick = gt.origin_tick.max(h.tick);
            }
            Some(Frame::Delta(d)) => {
                if d.full || (d.seq == gt.expect && !gt.needs_resync) {
                    if d.full {
                        gt.expect = d.seq + 1;
                        gt.needs_resync = false;
                    } else {
                        gt.expect += 1;
                    }
                    gt.origin_tick = gt.origin_tick.max(d.origin_tick);
                    gt.trace_seq = gt.trace_seq.max(d.trace_seq);
                    gt.waterfall.observe(now.saturating_sub(d.origin_tick));
                } else if !gt.needs_resync {
                    gt.needs_resync = true;
                    out.gap_resyncs_truth += 1;
                }
            }
            _ => panic!("peripheries only ship HELLO and DELTA frames"),
        }
        if let Some(resp) = ctl.handle_frame(frame) {
            if let Some(Frame::Ack(ack)) = decode_frame(&resp) {
                p.handle_ack(&ack);
            }
        }
    };

    for round in 0..u64::from(rounds) {
        // Seeded churn: every host flips at least one container, so
        // every firing ships a frame (the cpu map never restores the
        // old value within a round).
        for host in truth.iter_mut() {
            let changes = 1 + rng.range_u64(0, 4) as usize;
            for _ in 0..changes {
                churn_view(host, &mut rng);
            }
        }

        let flush_tick = round + 1;
        for (h, p) in peripheries.iter_mut().enumerate() {
            p.observe(&snapshot_at(flush_tick, &truth[h]), false, 0);

            for frame in &links.route(&plan, h, round, false, p.take_frames()) {
                // Direct hosts flush the round they observe: the
                // periphery must stamp this round's tick as the
                // origin (the end of the ground-truth waterfall).
                if h != LAGGED_HOST {
                    if let Some(Frame::Delta(d)) = decode_frame(frame) {
                        if !d.full && d.origin_tick != flush_tick {
                            out.origin_violations += 1;
                        }
                    }
                }
                deliver(&ctl, p, &mut gt[h], &mut out, frame);
            }
        }

        ctl.advance_tick();
        let now = ctl.now_tick();

        // Checkpoint 1: per-host freshness lags are exactly
        // `now - last accepted origin`, for every host, every tick.
        let want: Vec<(u32, u64)> = gt
            .iter()
            .enumerate()
            .filter(|(_, g)| g.known)
            .map(|(h, g)| (h as u32, now.saturating_sub(g.origin_tick)))
            .collect();
        if ctl.host_freshness_lags() != want {
            out.lag_mismatches += 1;
        }

        // Checkpoint 2: the span stamped on a live rollup traces back
        // to the oldest origin and the newest trace cursor.
        let span = query_span(&ctl);
        let origin_min = gt
            .iter()
            .filter(|g| g.known)
            .map(|g| g.origin_tick)
            .min()
            .unwrap_or(now);
        let trace_max = gt
            .iter()
            .filter(|g| g.known)
            .map(|g| g.trace_seq)
            .max()
            .unwrap_or(0);
        if (span.as_of_tick, span.origin_min, span.trace_max) != (now, origin_min, trace_max)
            || span.max_lag() != now.saturating_sub(origin_min)
        {
            out.span_mismatches += 1;
        }
    }

    // Checkpoint 3: the full per-host waterfall histograms — every
    // bucket, sum, and max — match the driver's own accounting.
    for (h, g) in gt.iter().enumerate() {
        let ex = ctl.explain_host(h as u32).expect("host tracked");
        if ex.waterfall != g.waterfall {
            out.waterfall_mismatches += 1;
        }
    }

    let span = query_span(&ctl);
    out.final_max_lag = span.max_lag();
    out.final_trace_max = span.trace_max;
    out.frames_dropped = links.dropped;
    out.frames_delayed = links.delayed;
    out.gap_resyncs = ctl.metrics().snapshot().deltas_gap_resyncs;
    out.dumps_frozen = ctl.flight_recorder().dumps_frozen();
    out
}

fn assert_waterfall(out: &WaterfallOutcome, seed: u64) {
    assert!(
        out.frames_dropped >= 1,
        "seed {seed:#x}: the partition window dropped nothing — untested"
    );
    assert!(
        out.frames_delayed >= 1,
        "seed {seed:#x}: the lag window delayed nothing — untested"
    );
    assert_eq!(
        out.gap_resyncs, out.gap_resyncs_truth,
        "seed {seed:#x}: the controller saw different gaps than the driver's accept rule"
    );
    assert!(
        out.gap_resyncs_truth >= 1,
        "seed {seed:#x}: the healed partition must surface as a sequence gap"
    );
    assert_eq!(
        out.lag_mismatches, 0,
        "seed {seed:#x}: a freshness lag diverged from ground-truth tick arithmetic"
    );
    assert_eq!(
        out.span_mismatches, 0,
        "seed {seed:#x}: a rollup span diverged from ground-truth tick arithmetic"
    );
    assert_eq!(
        out.waterfall_mismatches, 0,
        "seed {seed:#x}: a per-host waterfall histogram diverged from the driver's"
    );
    assert_eq!(
        out.origin_violations, 0,
        "seed {seed:#x}: a direct host stamped an origin other than its flush tick"
    );
    assert!(
        out.dumps_frozen >= 1,
        "seed {seed:#x}: the partition anomaly must freeze a flight dump"
    );
}

// --- scenario 2: flight dumps replay bit-identically ---

/// Everything the black box produced, in retrieval order (newest
/// first). `Eq` on the raw encoded bytes is the bit-identical claim.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlightOutcome {
    dump_bytes: Vec<Vec<u8>>,
    triggers: Vec<FlightTrigger>,
    promotions: u64,
    repl_fenced: u64,
    demotions: u64,
    final_epoch: u64,
}

/// Retrieve every frozen dump over the wire protocol, newest first,
/// until the controller answers with empty bytes.
fn drain_flight_dumps(ctl: &FleetController) -> Vec<Vec<u8>> {
    let mut dumps = Vec::new();
    for back in 0..64u32 {
        let Rollup::Flight(bytes) = query(ctl, QUERY_FLIGHT, back).body else {
            panic!("expected Flight body");
        };
        if bytes.is_empty() {
            break;
        }
        dumps.push(bytes);
    }
    dumps
}

fn snap_one(tick: u64, id: u32, cpu: u32) -> Snapshot {
    let mut s = Snapshot::at(tick);
    s.entries.push(ViewState {
        id,
        e_cpu: cpu,
        e_mem: 100,
        e_avail: 50,
        last_tick: tick,
    });
    s
}

fn run_flightrec(seed: u64) -> FlightOutcome {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xF117);
    let cpu = rng.range_u64(1, 32) as u32;

    let (primary, mut standby) = replicated_pair(2, 2);
    standby.set_tracer(Tracer::bounded(RING_CAPACITY));
    standby.set_flight_recorder(FlightRecorder::bounded(FLIGHT_DUMPS));

    // Seed one replicated host, then stall the primary's lease: the
    // standby's clock runs past the TTL and it promotes — anomaly one.
    let mut p = Periphery::new(3);
    p.observe(&snap_one(1, 1, cpu), false, 0);
    for frame in p.take_frames() {
        let _ = primary.handle_frame(&frame);
    }
    pump_repl(&primary, &standby);
    primary.set_lease_stalled(true);
    for _ in 0..5 {
        standby.advance_tick();
    }
    assert!(standby.is_leader(), "standby promotes after lease expiry");

    // The deposed primary keeps streaming at its stale epoch: the
    // promoted standby fences the frames — anomaly two.
    let mut stale = Periphery::new(4);
    stale.observe(&snap_one(3, 9, cpu), false, 0);
    for frame in stale.take_frames() {
        let _ = primary.handle_frame(&frame);
    }
    pump_repl(&primary, &standby);

    let dump_bytes = drain_flight_dumps(&standby);
    let triggers = dump_bytes
        .iter()
        .map(|b| FlightDump::decode(b).expect("dump decodes").trigger)
        .collect();
    let m = standby.metrics().snapshot();
    FlightOutcome {
        dump_bytes,
        triggers,
        promotions: m.promotions,
        repl_fenced: m.repl_fenced,
        demotions: primary.metrics().snapshot().demotions,
        final_epoch: standby.ctl_epoch(),
    }
}

fn assert_flightrec(out: &FlightOutcome, seed: u64) {
    assert_eq!(out.promotions, 1, "seed {seed:#x}: exactly one promotion");
    assert!(
        out.repl_fenced >= 1,
        "seed {seed:#x}: the stale REPL stream must be fenced"
    );
    assert!(
        out.demotions >= 1,
        "seed {seed:#x}: the fencing ACK must demote the impostor"
    );
    assert_eq!(out.final_epoch, 2, "seed {seed:#x}: promotion bumps epoch");
    assert!(
        out.triggers.contains(&FlightTrigger::Promotion),
        "seed {seed:#x}: the promotion must freeze a flight dump, got {:?}",
        out.triggers
    );
    assert!(
        out.triggers.contains(&FlightTrigger::Fence),
        "seed {seed:#x}: the fence must freeze a flight dump, got {:?}",
        out.triggers
    );
    for bytes in &out.dump_bytes {
        let dump = FlightDump::decode(bytes).expect("retrieved dump decodes");
        assert!(
            !dump.events.is_empty(),
            "seed {seed:#x}: a {} dump froze an empty trace ring",
            dump.trigger.label()
        );
    }
}

// --- scenario 3: observability overhead on the ingest path ---

/// Pre-generate a deterministic ingest stream (every host's frames
/// across every round, in delivery order) so traced and untraced
/// controllers replay the exact same work.
fn gen_ingest(seed: u64, hosts: u32, containers: u32, rounds: u32) -> Vec<Vec<u8>> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0BE4);
    let mut truth = synthetic_views(&mut rng, hosts, containers);
    let mut peripheries: Vec<Periphery> = (0..hosts).map(Periphery::new).collect();
    let mut frames = Vec::new();
    for round in 0..u64::from(rounds) {
        for host in truth.iter_mut() {
            let c = rng.range_u64(0, u64::from(containers)) as usize;
            let t = &mut host[c];
            t.e_cpu = (t.e_cpu % 64) + 1 + rng.range_u64(0, 4) as u32;
        }
        for (h, p) in peripheries.iter_mut().enumerate() {
            p.observe(&snapshot_at(round + 1, &truth[h]), false, 0);
            frames.extend(p.take_frames());
        }
    }
    frames
}

/// Mean nanoseconds per ingested frame, min over several trials with a
/// fresh controller each (min-of-trials rejects scheduler noise).
fn ingest_ns(frames: &[Vec<u8>], traced: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut ctl = FleetController::new(8, FleetPolicy::default());
        if traced {
            ctl.set_tracer(Tracer::bounded(RING_CAPACITY));
            ctl.set_flight_recorder(FlightRecorder::bounded(FLIGHT_DUMPS));
        }
        let start = Instant::now();
        for frame in frames {
            std::hint::black_box(ctl.handle_frame(frame));
        }
        best = best.min(start.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    best
}

// --- the campaign ---

/// Run the fleet observability campaign and produce its report. Panics
/// (on purpose) if any waterfall-accounting, dump-replay, overhead, or
/// same-seed-replay invariant fails.
pub fn run(scale: f64, seed_offset: u64) -> FigReport {
    let hosts = ((12.0 * scale) as u32).clamp(4, 24);
    let containers = ((16.0 * scale) as u32).clamp(4, 32);
    let rounds = ((30.0 * scale) as u32).clamp(16, 40);
    let mut campaign = Campaign::new(
        "fleetobs",
        "fleet observability: per-host staleness waterfalls and rollup spans equal to \
         ground-truth tick arithmetic under seeded lag/partition faults, bit-identical flight \
         dumps for fence and promotion anomalies, observability overhead inside budget",
        &SEEDS,
        seed_offset,
    );

    campaign.scenario(Scenario {
        name: "waterfall",
        run: &|seed, _| Run::of(run_waterfall(seed, hosts, containers, rounds)),
        check: &|run, seed| assert_waterfall(&run.outcome, seed),
        rows: rows!(
            hosts,
            rounds,
            frames_dropped,
            frames_delayed,
            gap_resyncs,
            lag_mismatches,
            span_mismatches,
            waterfall_mismatches,
            final_max_lag,
            dumps_frozen
        ),
    });
    // `FlightOutcome` equality covers the raw encoded dump bytes: the
    // replay assert is the byte-for-byte claim.
    let flights = campaign.scenario(Scenario {
        name: "flightrec",
        run: &|seed, _| Run::of(run_flightrec(seed)),
        check: &|run, seed| assert_flightrec(&run.outcome, seed),
        rows: &|o| {
            let dump_bytes_total: usize = o.dump_bytes.iter().map(Vec::len).sum();
            vec![
                ("dumps_retrieved", o.dump_bytes.len() as f64),
                ("dump_bytes_total", dump_bytes_total as f64),
                ("promotions", o.promotions as f64),
                ("repl_fenced", o.repl_fenced as f64),
                ("demotions", o.demotions as f64),
                ("final_epoch", o.final_epoch as f64),
            ]
        },
    });

    // Overhead gate: one deterministic stream, both configurations.
    let frames = gen_ingest(campaign.seeds()[0], hosts, containers, rounds);
    let traced_ns = ingest_ns(&frames, true);
    let untraced_ns = ingest_ns(&frames, false);
    let budget_ns = untraced_ns * OVERHEAD_BUDGET_RATIO + OVERHEAD_SLACK_NS;
    assert!(
        traced_ns <= budget_ns,
        "observability overhead regression: fleet ingest {traced_ns:.0} ns/frame with tracing \
         and flight recording enabled vs {untraced_ns:.0} ns/frame disabled \
         (budget {budget_ns:.0} ns)"
    );
    let mut t_over = Table::new("ingest_overhead", &["value"]);
    t_over.push(Row::full("traced_ns_per_frame", &[traced_ns]));
    t_over.push(Row::full("untraced_ns_per_frame", &[untraced_ns]));
    t_over.push(Row::full("ratio", &[traced_ns / untraced_ns.max(1.0)]));
    t_over.push(Row::full("budget_ns", &[budget_ns]));
    t_over.push(Row::full("frames", &[frames.len() as f64]));
    campaign.report.tables.push(t_over);

    campaign.report.note(format!(
        "{hosts} hosts × {containers} containers × {rounds} rounds: freshness lags, rollup \
         spans, and per-host waterfall histograms matched the driver's independent accept-rule \
         simulation exactly, through a 6-tick partition and a 2-tick lag window"
    ));
    campaign.report.note(format!(
        "flight recorder: a lease takeover and a fenced stale primary each froze a dump \
         ({} retrieved over QUERY_FLIGHT per seed), replayed bit-identically — the dumps are \
         compared byte-for-byte",
        flights[0].outcome.dump_bytes.len()
    ));
    campaign.report.note(format!(
        "fleet ingest {traced_ns:.0} ns/frame traced vs {untraced_ns:.0} ns/frame untraced \
         (budget {budget_ns:.0} ns): span folding and the armed flight recorder stay off the \
         hot path"
    ));
    campaign.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::seed_label;

    #[test]
    fn fleetobs_campaign_passes_and_reports() {
        let rep = run(0.05, 0);
        assert_eq!(rep.tables.len(), 4);
        for col in [seed_label(SEEDS[0]), seed_label(SEEDS[1])] {
            assert_eq!(rep.tables[0].get("lag_mismatches", &col), Some(0.0));
            assert_eq!(rep.tables[0].get("span_mismatches", &col), Some(0.0));
            assert_eq!(rep.tables[0].get("waterfall_mismatches", &col), Some(0.0));
            assert!(rep.tables[0].get("gap_resyncs", &col).unwrap() >= 1.0);
            assert!(rep.tables[1].get("dumps_retrieved", &col).unwrap() >= 2.0);
            assert_eq!(rep.tables[1].get("final_epoch", &col), Some(2.0));
        }
        assert_eq!(
            rep.tables[3].get("waterfall", "replays_identical"),
            Some(1.0)
        );
        assert_eq!(
            rep.tables[3].get("flightrec", "replays_identical"),
            Some(1.0)
        );
    }

    #[test]
    fn waterfall_replays_bit_identically() {
        // Compared once more outside run(): guards against global state
        // sneaking into the periphery or the controller.
        assert_eq!(run_waterfall(7, 4, 4, 16), run_waterfall(7, 4, 4, 16));
    }

    #[test]
    fn flight_dumps_are_bit_identical_across_runs() {
        let a = run_flightrec(7);
        let b = run_flightrec(7);
        assert_eq!(a.dump_bytes, b.dump_bytes);
        assert!(a.triggers.contains(&FlightTrigger::Promotion));
        assert!(a.triggers.contains(&FlightTrigger::Fence));
    }
}

//! Staleness waterfalls against ground-truth tick arithmetic, one
//! scenario of the `fleet` campaign ([`crate::fleet`]).
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
//!   tick arithmetic **exactly** — not approximately. The partition
//!   must also freeze a flight dump.

use arv_fleet::{
    decode_frame, Delta, FleetController, FleetPolicy, Frame, Periphery, QUERY_CLUSTER,
};
use arv_sim_core::{FaultConfig, FaultPlan, SimRng};
use arv_telemetry::{FlightRecorder, LagHistogram, Tracer};

use crate::campaign::{
    churn_view, query, rows, snapshot_at, synthetic_views, Campaign, FaultyLinks, Run, Scenario,
};

/// Host whose frames the lag window delays (in order); host 0 is the
/// partitioned one ([`FaultyLinks`]).
const LAGGED_HOST: usize = 1;

/// Trace-ring capacity: far above the scenario's event volume.
const RING_CAPACITY: usize = 16_384;

/// Flight dumps the recorder retains.
const FLIGHT_DUMPS: usize = 8;

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
            Some(Frame::Delta(Delta { head: d, .. })) => {
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
                    if let Some(Frame::Delta(Delta { head: d, .. })) = decode_frame(frame) {
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

/// Run the waterfall on `campaign`; `scale` sizes the fleet and the
/// rounds.
pub(crate) fn scenarios(campaign: &mut Campaign, scale: f64) {
    let hosts = ((12.0 * scale) as u32).clamp(4, 24);
    let containers = ((16.0 * scale) as u32).clamp(4, 32);
    let rounds = ((30.0 * scale) as u32).clamp(16, 40);
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
    campaign.report.note(format!(
        "waterfall ({hosts} hosts × {containers} containers × {rounds} rounds): freshness lags, \
         rollup spans, and per-host waterfall histograms matched the driver's independent \
         accept-rule simulation exactly, through a 6-tick partition and a 2-tick lag window"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storm::{assert_storm, run_storm};

    #[test]
    fn fleetobs_campaign_passes_and_reports() {
        // The fleet campaign's waterfall alone, at seed offset 2.
        let rep = Campaign::alone(&crate::fleet::SEEDS, 2, |c| scenarios(c, 0.05));
        let waterfall = rep.table("waterfall");
        for col in &waterfall.columns {
            assert_eq!(waterfall.get("lag_mismatches", col), Some(0.0));
            assert_eq!(waterfall.get("span_mismatches", col), Some(0.0));
            assert_eq!(waterfall.get("waterfall_mismatches", col), Some(0.0));
            assert!(waterfall.get("gap_resyncs", col).unwrap() >= 1.0);
            assert!(waterfall.get("dumps_frozen", col).unwrap() >= 1.0);
        }
    }

    #[test]
    fn waterfall_replays_bit_identically() {
        // Compared once more outside the campaign: guards against global
        // state sneaking into the periphery or the controller.
        assert_eq!(run_waterfall(7, 4, 4, 16), run_waterfall(7, 4, 4, 16));
    }

    #[test]
    fn flight_dumps_are_bit_identical_across_runs() {
        // The storm rig's outcome carries the dumps its promotion and
        // fence froze (checked by `assert_storm`), retrieved over
        // QUERY_FLIGHT: equal outcomes are equal dumps, byte for byte.
        let out = run_storm(7, true);
        assert_storm(&out, 7);
        assert_eq!(out, run_storm(7, true));
    }
}

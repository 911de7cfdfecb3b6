//! The `host` campaign (`--fig host`): one host's view pipeline under
//! seeded faults, replay-checked on the [`crate::campaign`] harness.
//!
//! * **testbed** — one traced, journaled `paper_testbed` host, whose own
//!   `arv-viewd` answers its containers, beside a fault-free twin, walks through
//!   disjoint fault windows. A [`FaultPlan`] stalls the monitor and
//!   later crashes the daemon; between the two the host stops
//!   publishing to viewd for longer than the staleness budget. Around
//!   the faults, shifting load, memory pressure, a memory hog and two
//!   live `docker update`s move every view. The one run asserts:
//!   - views stay inside their Algorithm 1 bounds at every step, and
//!     every degraded answer is the conservative lower bound;
//!   - the stall is counted tick for tick, engages degraded serving,
//!     forces a resync, and the stalled host reconverges to the twin
//!     within `RECONVERGE_BOUND` ticks;
//!   - the publish outage walks viewd's health — what the containers'
//!     own sysfs reads — Fresh → Stale → Degraded on the budget, serves
//!     the fallback while degraded, and snaps back to Fresh on the first
//!     publish;
//!   - the warm restart serves the journaled last-good views, never the
//!     cold floor, and viewd is Fresh again within
//!     `RECOVERY_TO_FRESH_BOUND` ticks;
//!   - every view change is reconstructible from the trace alone
//!     ([`crate::obs`]), under every cause the pipeline emits.
//! * **event_stream_chaos**, **wire_chaos** ([`crate::chaos`]) and
//!   **torn_journal**, **client_flood** ([`crate::recovery`]).
//!
//! Beside the scenarios, the campaign prices the tracer on viewd's
//! cached-hit path and fails if it costs more than a fixed budget.

use std::collections::BTreeMap;

use arv_cgroups::{Bytes, CgroupId};
use arv_container::{ContainerSpec, SimHost};
use arv_mem::ChargeOutcome;
use arv_resview::{Sysconf, ViewHealth, STALENESS_BUDGET};
use arv_sim_core::{FaultConfig, FaultPlan};
use arv_telemetry::Tracer;

use crate::campaign::{out_of_bounds, paper_container, step_busy, Campaign, Run, Scenario};
use crate::obs::{self, Checkpoint, Verdict, REQUIRED_CAUSES, REQUIRED_PIPELINE};
use crate::report::FigReport;

/// The two campaign seeds.
pub(crate) const SEEDS: [u64; 2] = [0xA11CE, 0xC0FFEE];

/// The monitor stall window `(first tick, ticks)`: longer than the
/// staleness budget, so degraded serving must engage.
const STALL: (u64, u64) = (10, 6);
/// Ticks allowed for the stalled host to reconverge to the fault-free
/// twin after the stall lifts.
const RECONVERGE_BOUND: u64 = 15;
/// The daemon's crash tick: past the longest publish outage (budget + 4
/// ticks from tick 31) and its recovery.
const CRASH_START: u64 = 45;
/// Ticks allowed between the warm restart and viewd's first Fresh serve.
const RECOVERY_TO_FRESH_BOUND: u64 = 2;

/// Trace-ring capacity: far above the testbed's event volume, so the
/// replay sees every event (`dropped_events == 0`).
const RING_CAPACITY: usize = 16_384;

/// A tenant with explicit memory limits (soft 1 GiB, hard 4 GiB): the
/// memory phases charge against these.
fn tenant_spec(i: u32) -> ContainerSpec {
    paper_container(format!("host-{i}"))
        .memory(Bytes::from_mib(4096))
        .memory_reservation(Bytes::from_mib(1024))
}

/// What one testbed run measured; `Eq` over the rendered trace too, so
/// the replay assert covers every event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TestbedOutcome {
    bound_violations: u64,
    degraded_serves: u64,
    missed_ticks: u64,
    resyncs: u64,
    restart_resyncs: u64,
    reconverge_ticks: u64,
    floor_cpus: u64,
    live_cpus: u64,
    delay_ticks: u64,
    ticks_to_stale: u64,
    ticks_to_degraded: u64,
    degraded_cpus: u64,
    ticks_to_recover: u64,
    recovered_cpus: u64,
    downtime_ticks: u64,
    pre_crash_cpus: u64,
    post_restart_cpus: u64,
    restored_plus_reconciled: u64,
    restore_dropped: u64,
    truncated_records: u64,
    ticks_to_fresh: u64,
    recovery_latency_p99_ticks: u64,
    viewd_reconciled: u64,
    degraded_reads: u64,
    checkpoints: u64,
    trace_events: u64,
    pub(crate) dropped_events: u64,
    pub(crate) provenance: Verdict,
    trace: Vec<String>,
    explain: String,
    timelines: Vec<(u32, String)>,
    /// The exposition's line count and its first lines (counters; the
    /// latency gauges further down are wall-clock).
    prometheus: (usize, String),
}

/// The faulty host with everything the run samples after each step.
struct Testbed {
    host: SimHost,
    tracer: Tracer,
    ids: Vec<CgroupId>,
    checkpoints: Vec<Checkpoint>,
    bound_violations: u64,
    degraded_serves: u64,
}

impl Testbed {
    /// Step `ticks` times with the first `busy` containers demanding 20
    /// CPUs, auditing every view and sampling the trajectory each time.
    fn step(&mut self, ticks: u64, busy: usize) {
        for _ in 0..ticks {
            step_busy(&mut self.host, &self.ids[..busy], 20);
            let sysfs = self.host.sysfs();
            for id in &self.ids {
                // Faults freeze views; they never push them outside
                // Algorithm 1's envelope.
                self.bound_violations += u64::from(out_of_bounds(&self.host, *id).unwrap_or(true));
                if sysfs.health(Some(*id)).is_degraded() {
                    self.degraded_serves += 1;
                    // Degraded answers fall back to the guaranteed lower
                    // bound, never an optimistic stale value.
                    let served = sysfs.sysconf(Some(*id), Sysconf::NprocessorsOnln);
                    self.bound_violations += u64::from(self.floor(*id) != Some(served));
                }
            }
            self.sample();
        }
    }

    /// `id`'s Algorithm 1 lower bound: the conservative fallback.
    fn floor(&self, id: CgroupId) -> Option<u64> {
        let ns = self.host.monitor().namespace(id)?;
        Some(u64::from(ns.cpu_bounds().lower))
    }

    fn sample(&mut self) {
        let cp = Checkpoint::take(&self.host, &self.tracer, &self.ids);
        self.checkpoints.push(cp);
    }

    fn charge(&mut self, i: usize, mib: u64) {
        let outcome = self.host.charge(self.ids[i], Bytes::from_mib(mib));
        assert!(
            matches!(outcome, ChargeOutcome::Charged { .. }),
            "testbed charge of {mib} MiB must succeed, got {outcome:?}"
        );
    }
}

/// One testbed run under `seed`, which sizes the publish outage and the
/// crash's downtime.
pub(crate) fn run_testbed(seed: u64) -> TestbedOutcome {
    let tracer = Tracer::bounded(RING_CAPACITY);
    let mut host = SimHost::paper_testbed();
    host.set_tracer(tracer.clone());
    let server = host.viewd().expect("every host owns one").clone();
    host.enable_journal(4);
    let mut twin = SimHost::paper_testbed();
    let specs: Vec<ContainerSpec> = (0..5)
        .map(|i| match i {
            0..=2 => tenant_spec(i),
            // No memory limits: c3 doubles as the memory hog.
            _ => paper_container(format!("host-{i}")),
        })
        .collect();
    let mut baselines = BTreeMap::new();
    let (ids, tids): (Vec<CgroupId>, Vec<CgroupId>) = specs
        .iter()
        .map(|spec| {
            let id = host.launch(spec);
            baselines.insert(id.0, obs::monitor_view(&host, id));
            (id, twin.launch(spec))
        })
        .unzip();
    let downtime = 2 + seed % 3;
    host.set_fault_plan(FaultPlan::new(
        seed,
        FaultConfig {
            stall_at: Some(STALL),
            crash_at: Some((CRASH_START, downtime)),
            ..FaultConfig::quiet()
        },
    ));
    let mut tb = Testbed {
        host,
        tracer,
        ids,
        checkpoints: Vec::new(),
        bound_violations: 0,
        degraded_serves: 0,
    };
    tb.sample();

    // Stall and reconvergence. All five contend until the stall begins
    // (no slack: views shrink toward the fair share), then only c0 runs:
    // the twin's view climbs toward the 10-CPU quota while the stalled
    // host's is frozen. A quota cut on c2 lands mid-stall; its event
    // waits in the pipe behind the resync the stall latches, so only
    // the watchdog's reconcile can find it.
    let stall_end = STALL.0 + STALL.1;
    let mut reconverge_ticks = u64::MAX;
    for step in 0..stall_end + RECONVERGE_BOUND {
        if step == STALL.0 + 1 {
            let cut = tenant_spec(2).cpus(3.0);
            tb.host.update_limits(tb.ids[2], &cut);
            twin.update_limits(tids[2], &cut);
        }
        let busy = if step < STALL.0 { 5 } else { 1 };
        tb.step(1, busy);
        step_busy(&mut twin, &tids[..busy], 20);
        let converged = obs::monitor_view(&tb.host, tb.ids[0]) == obs::monitor_view(&twin, tids[0]);
        if step >= stall_end && reconverge_ticks == u64::MAX && converged {
            reconverge_ticks = step + 1 - stall_end;
        }
    }
    let after_stall = tb.host.watchdog_stats();

    // Publish outage: the monitor keeps updating but stops publishing;
    // past the budget every answer, the containers' own sysfs included,
    // comes from the fallback, each substitution traced once per
    // container per tick.
    let client = server.client();
    let c0 = Some(tb.ids[0]);
    assert!(
        client.health(c0).is_fresh(),
        "c0's view is live before the outage"
    );
    let live_cpus = client.sysconf(c0, Sysconf::NprocessorsOnln);
    let floor_cpus = tb.floor(tb.ids[0]).expect("c0 has a namespace");
    let delay = STALENESS_BUDGET + 2 + seed % 3;
    tb.host.inject_publish_delay(delay);
    let (mut ticks_to_stale, mut ticks_to_degraded, mut degraded_cpus) = (0, 0, 0);
    let mut degraded_reads = 0u64;
    for tick in 1..=delay {
        tb.step(1, 1);
        match client.health(c0) {
            ViewHealth::Stale { .. } if ticks_to_stale == 0 => ticks_to_stale = tick,
            ViewHealth::Degraded { .. } => {
                if ticks_to_degraded == 0 {
                    ticks_to_degraded = tick;
                }
                degraded_cpus = client.sysconf(c0, Sysconf::NprocessorsOnln);
                client.read(c0, "/proc/cpuinfo").expect("renderable path");
                degraded_reads += 1;
            }
            _ => {}
        }
    }
    let ticks_to_recover = (1..=4u64)
        .find(|_| {
            tb.step(1, 1);
            client.health(c0).is_fresh()
        })
        .unwrap_or(0);
    let recovered_cpus = client.sysconf(c0, Sysconf::NprocessorsOnln);

    // Crash window: the daemon is down, then warm-restarts from its
    // journal; the query after the restart closes viewd's
    // recovery-latency histogram.
    tb.step(CRASH_START - 1 - tb.host.now_tick(), 1);
    let pre_crash_cpus = client.sysconf(c0, Sysconf::NprocessorsOnln);
    let restart_tick = CRASH_START + downtime;
    let mut ticks_to_fresh = u64::MAX;
    for _ in 0..downtime + 3 {
        tb.step(1, 1);
        if tb.host.now_tick() >= restart_tick && ticks_to_fresh == u64::MAX {
            let _ = client.sysconf(c0, Sysconf::NprocessorsOnln);
            if client.health(c0).is_fresh() {
                ticks_to_fresh = tb.host.now_tick() - restart_tick;
            }
        }
    }
    let post_restart_cpus = client.sysconf(c0, Sysconf::NprocessorsOnln);
    let restore = tb
        .host
        .last_restore()
        .expect("crash window fired a warm restart")
        .clone();
    let recovered = restore.outcome.expect("journal held a valid checkpoint");

    // Contention again (c0's grown view shrinks), then memory: c0
    // charges past 90% of its 1 GiB view while the host has plenty free
    // (Algorithm 2 grows it), and the hog drives free memory below the
    // low watermark (the view resets to the soft limit).
    tb.step(8, 5);
    for mib in [950, 400, 400, 400] {
        tb.charge(0, mib);
        tb.step(1, 5);
    }
    tb.charge(3, 128_100);
    tb.step(2, 5);
    tb.host.uncharge(tb.ids[3], Bytes::from_mib(128_100));
    tb.step(2, 5);

    // A live `docker update`: c1's quota and soft limit drop, and the
    // clamp moves both views; then a steady tail.
    let cut = tenant_spec(1).cpus(2.0);
    tb.host
        .update_limits(tb.ids[1], &cut.memory_reservation(Bytes::from_mib(512)));
    tb.sample();
    tb.step(3, 5);

    let w = tb.host.watchdog_stats();
    let m = server.metrics();
    let events = tb.tracer.events();
    TestbedOutcome {
        bound_violations: tb.bound_violations,
        degraded_serves: tb.degraded_serves,
        missed_ticks: w.missed_ticks,
        resyncs: after_stall.resyncs,
        restart_resyncs: w.resyncs - after_stall.resyncs,
        reconverge_ticks,
        floor_cpus,
        live_cpus,
        delay_ticks: delay,
        ticks_to_stale,
        ticks_to_degraded,
        degraded_cpus,
        ticks_to_recover,
        recovered_cpus,
        downtime_ticks: downtime,
        pre_crash_cpus,
        post_restart_cpus,
        restored_plus_reconciled: (recovered.restored + recovered.reconciled) as u64,
        restore_dropped: recovered.dropped as u64,
        truncated_records: restore.report.truncated_records,
        ticks_to_fresh,
        recovery_latency_p99_ticks: m.recovery_latency_p99,
        viewd_reconciled: m.restore_reconciled_containers,
        degraded_reads,
        checkpoints: tb.checkpoints.len() as u64,
        trace_events: tb.tracer.emitted(),
        dropped_events: tb.tracer.dropped_events(),
        provenance: obs::replay(&events, &tb.checkpoints, &baselines),
        trace: events.iter().map(|e| e.render()).collect(),
        explain: tb.tracer.render_explain(tb.ids[0]),
        timelines: tb
            .ids
            .iter()
            .map(|id| (id.0, tb.tracer.render_timeline(*id)))
            .collect(),
        prometheus: {
            let text = server.prometheus_exposition();
            let head: Vec<&str> = text.lines().take(6).collect();
            (text.lines().count(), head.join(" | "))
        },
    }
}

fn assert_testbed(out: &TestbedOutcome, seed: u64) {
    assert_eq!(
        out.bound_violations, 0,
        "seed {seed:#x}: a view left its bounds, or a degraded answer was not the lower bound"
    );
    assert!(
        out.degraded_serves > 0,
        "seed {seed:#x}: a {}-tick stall must outlive the staleness budget",
        STALL.1
    );
    assert_eq!(
        out.missed_ticks,
        STALL.1 + out.downtime_ticks,
        "seed {seed:#x}: the stall and the crash miss exactly their deadlines"
    );
    assert!(
        out.resyncs >= 1,
        "seed {seed:#x}: the stall must force a resync"
    );
    assert!(
        out.reconverge_ticks <= RECONVERGE_BOUND,
        "seed {seed:#x}: no reconvergence within {RECONVERGE_BOUND} ticks"
    );

    assert!(
        out.live_cpus > out.floor_cpus && out.pre_crash_cpus > out.floor_cpus,
        "seed {seed:#x}: the run must tell the live view from the floor"
    );
    assert!(out.ticks_to_stale > 0, "seed {seed:#x}: never went stale");
    assert_eq!(
        out.ticks_to_degraded,
        STALENESS_BUDGET + 1,
        "seed {seed:#x}: degraded serving must engage right after the budget"
    );
    assert_eq!(
        out.degraded_cpus, out.floor_cpus,
        "seed {seed:#x}: degraded answer is not the conservative fallback"
    );
    assert_eq!(
        out.ticks_to_recover, 1,
        "seed {seed:#x}: first publish after the outage must restore Fresh"
    );
    assert_eq!(out.recovered_cpus, out.live_cpus, "seed {seed:#x}");
    assert!(
        out.degraded_reads > 0,
        "seed {seed:#x}: outage must produce degraded reads"
    );

    assert_eq!(
        out.post_restart_cpus, out.pre_crash_cpus,
        "seed {seed:#x}: first-served views after restart must be the journaled last-good \
         state, not the cold floor"
    );
    assert_eq!(
        out.restored_plus_reconciled, 5,
        "seed {seed:#x}: every container recovered from the checkpoint"
    );
    assert_eq!(out.restore_dropped, 0, "seed {seed:#x}");
    assert!(
        out.restart_resyncs >= 1,
        "seed {seed:#x}: the restart counts a recovery"
    );
    assert_eq!(
        out.truncated_records, 0,
        "seed {seed:#x}: an intact journal has no torn frames"
    );
    assert!(
        out.ticks_to_fresh <= RECOVERY_TO_FRESH_BOUND,
        "seed {seed:#x}: daemon took {} ticks to serve Fresh after restart",
        out.ticks_to_fresh
    );
    assert!(
        out.recovery_latency_p99_ticks <= RECOVERY_TO_FRESH_BOUND,
        "seed {seed:#x}: recovery-latency p99 {} ticks over bound",
        out.recovery_latency_p99_ticks
    );

    assert_eq!(
        out.dropped_events, 0,
        "seed {seed:#x}: a ring sized for the run must not drop"
    );
    out.provenance.assert_reconstructible(seed);
}

/// Run the host campaign and produce its report. Panics (on purpose) if
/// any fault-tolerance, recovery, overload or provenance invariant, the
/// trace-overhead budget or the same-seed replay check fails.
pub fn run(scale: f64, seed_offset: u64) -> FigReport {
    let mut campaign = Campaign::new(
        "host",
        "one host under seeded faults: stall, publish outage and warm restart on a traced \
         testbed, event loss, wire chaos, torn journals, client flood",
        &SEEDS,
        seed_offset,
    );
    let runs = campaign.scenario(Scenario {
        name: "testbed",
        run: &|seed, _| Run::of(run_testbed(seed)),
        check: &|run, seed| assert_testbed(&run.outcome, seed),
        rows: &|o| {
            let p = &o.provenance;
            let mut rows = vec![
                ("bound_violations", o.bound_violations),
                ("degraded_serves", o.degraded_serves),
                ("missed_ticks", o.missed_ticks),
                ("resyncs", o.resyncs),
                ("restart_resyncs", o.restart_resyncs),
                ("reconverge_ticks", o.reconverge_ticks),
                ("floor_cpus", o.floor_cpus),
                ("live_cpus", o.live_cpus),
                ("delay_ticks", o.delay_ticks),
                ("ticks_to_stale", o.ticks_to_stale),
                ("ticks_to_degraded", o.ticks_to_degraded),
                ("degraded_cpus", o.degraded_cpus),
                ("ticks_to_recover", o.ticks_to_recover),
                ("downtime_ticks", o.downtime_ticks),
                ("pre_crash_cpus", o.pre_crash_cpus),
                ("post_restart_cpus", o.post_restart_cpus),
                ("restored_plus_reconciled", o.restored_plus_reconciled),
                ("ticks_to_fresh", o.ticks_to_fresh),
                ("recovery_latency_p99_ticks", o.recovery_latency_p99_ticks),
                ("viewd_reconciled", o.viewd_reconciled),
                ("checkpoints", o.checkpoints),
                ("trace_events", o.trace_events),
                ("events_replayed", p.events_replayed),
                ("chain_breaks", p.chain_breaks),
                ("checkpoint_mismatches", p.checkpoint_mismatches),
                ("degraded_mismatches", p.degraded_mismatches),
                ("unknown_causes", p.unknown_causes),
                ("dropped_events", o.dropped_events),
                ("degraded_reads", o.degraded_reads),
            ];
            let count =
                |counts: &BTreeMap<&str, u64>, label| counts.get(label).copied().unwrap_or(0);
            rows.extend(REQUIRED_CAUSES.map(|c| (c, count(&p.cause_counts, c))));
            rows.extend(REQUIRED_PIPELINE.map(|e| (e, count(&p.pipeline_counts, e))));
            rows.into_iter()
                .map(|(label, v)| (label, v as f64))
                .collect()
        },
    });
    crate::chaos::scenarios(&mut campaign, scale);
    crate::recovery::scenarios(&mut campaign, scale);

    let first = &runs[0].outcome;
    campaign.report.note(format!(
        "testbed: views inside Algorithm 1 bounds under every fault and every degraded answer \
         the lower bound; the {}-tick stall reconverged to the fault-free twin within \
         {RECONVERGE_BOUND} ticks; degraded serving engaged right after the {STALENESS_BUDGET}-tick \
         budget and cleared on the first publish; the restart served the journaled state (never \
         the cold floor), Fresh within {RECOVERY_TO_FRESH_BOUND} ticks",
        STALL.1
    ));
    campaign.report.note(format!(
        "provenance: {} checkpoints, {} trace events; replay reproduced every sampled view with \
         0 chain breaks and 0 unknown causes, across the warm restart",
        first.checkpoints, first.trace_events
    ));
    campaign.report.note(format!(
        "explain c{}: {}",
        first.timelines[0].0,
        first.explain.trim_end().replace('\n', " | ")
    ));
    for (id, timeline) in &first.timelines {
        campaign
            .report
            .note(format!("timeline c{id}:\n{}", timeline.trim_end()));
    }
    campaign.report.note(format!(
        "prometheus exposition ({} lines): {}",
        first.prometheus.0, first.prometheus.1
    ));
    obs::assert_trace_overhead(&mut campaign, scale);
    campaign.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::seed_label;

    #[test]
    fn host_campaign_passes_and_reports() {
        let rep = run(0.5, 0);
        for col in SEEDS.map(seed_label) {
            let testbed = rep.table("testbed");
            assert_eq!(testbed.get("bound_violations", &col), Some(0.0));
            assert_eq!(testbed.get("chain_breaks", &col), Some(0.0));
            assert_eq!(testbed.get("restored_plus_reconciled", &col), Some(5.0));
            assert_eq!(
                testbed.get("post_restart_cpus", &col),
                testbed.get("pre_crash_cpus", &col)
            );
            for cause in REQUIRED_CAUSES {
                assert!(testbed.get(cause, &col).unwrap() >= 1.0, "{cause}");
            }
        }
        let det = rep.table("determinism");
        for name in [
            "testbed",
            "event_stream_chaos",
            "wire_chaos",
            "torn_journal",
            "client_flood",
        ] {
            assert_eq!(det.get(name, "replays_identical"), Some(1.0), "{name}");
        }
    }
}

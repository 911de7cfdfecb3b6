//! Decision-provenance observability for the view pipeline (`--fig obs`).
//!
//! The pipeline's whole job is to mutate per-container views, so the
//! operator's first question — *why does container X currently see N
//! CPUs?* — must be answerable from the trace alone. This study drives
//! a multi-container scenario that exercises every decision cause the
//! pipeline can emit:
//!
//! * Algorithm 1 growth (`cpu-saturated+slack`) and shrink
//!   (`cpu-shrink-no-slack`) under shifting co-tenant load;
//! * Algorithm 2 growth (`mem-pressure-growth`) from a container
//!   charging past 90% of its view, and the kswapd-driven reset
//!   (`mem-reclaim-reset`) when a hog drives host free memory below
//!   the low watermark;
//! * `static-refresh` from a live `docker update`;
//! * `watchdog-resync` from a limits change applied while the monitor
//!   is stalled, reconciled by the watchdog's forced resync;
//! * `degraded-fallback` from `arv-viewd` answering queries past the
//!   staleness budget.
//!
//! After the scenario (a one-seed [`crate::campaign`], so the trace
//! itself must replay) it walks the trace ring against checkpoints of
//! the *actual* view trajectory (sampled after every step) and asserts
//! full reconstructibility: every change is chained (each decision's
//! `before` equals the previous decision's `after`), every checkpoint
//! value is reproduced by the replay, no cause is `unknown`, and no
//! event was dropped. Finally it measures the viewd cached-hit query
//! path with tracing enabled vs disabled and panics if the enabled
//! path exceeds a fixed budget — tracing must stay off the hot path.

use std::collections::BTreeMap;
use std::time::Instant;

use arv_cgroups::{Bytes, CgroupId};
use arv_container::{ContainerSpec, SimHost};
use arv_mem::ChargeOutcome;
use arv_sim_core::{FaultConfig, FaultPlan};
use arv_telemetry::{DecisionCause, EventKind, Tracer};
use arv_viewd::{HostSpec, ViewServer};

use crate::campaign::{paper_container, serve_one_view, step_busy, Campaign, Run};
use crate::report::{FigReport, Row, Table};

/// The campaign's one seed: it seeds the phase-8 fault plan.
const SEEDS: [u64; 1] = [0xB5];

/// Trace-ring capacity for the scenario: far above the event volume,
/// so reconstruction sees every event (`dropped_events == 0`).
const RING_CAPACITY: usize = 16_384;

/// Cached-hit overhead budget: with tracing enabled the mean cached-hit
/// query must stay within `ratio * untraced + slack`. The fresh-serving
/// path never touches the ring (degraded provenance is emitted only on
/// the degraded branch), so this bounds pure bookkeeping cost.
const OVERHEAD_BUDGET_RATIO: f64 = 1.75;
/// Absolute slack (ns) keeping the budget meaningful when the untraced
/// baseline is a few tens of nanoseconds.
const OVERHEAD_SLACK_NS: f64 = 250.0;

/// Every decision cause the instrumented pipeline can emit; the
/// scenario must exercise all of them.
const REQUIRED_CAUSES: [&str; 7] = [
    "cpu-saturated+slack",
    "cpu-shrink-no-slack",
    "mem-pressure-growth",
    "mem-reclaim-reset",
    "static-refresh",
    "watchdog-resync",
    "degraded-fallback",
];

/// A tenant with explicit memory limits (soft 1 GiB, hard 4 GiB): the
/// memory phases charge against these.
fn tenant_spec(tag: impl std::fmt::Display) -> ContainerSpec {
    unlimited_spec(tag)
        .memory(Bytes::from_mib(4096))
        .memory_reservation(Bytes::from_mib(1024))
}

/// A tenant with no memory limits — one of these doubles as the memory
/// hog that drives host free memory below the watermarks.
fn unlimited_spec(tag: impl std::fmt::Display) -> ContainerSpec {
    paper_container(format!("obs-{tag}"))
}

/// Actual view values sampled from the monitor after one step, plus the
/// trace cursor (events emitted so far) at the sampling instant.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Checkpoint {
    cursor: u64,
    views: Vec<(CgroupId, u32, u64)>,
}

fn snap(host: &SimHost, tracer: &Tracer, ids: &[CgroupId]) -> Checkpoint {
    Checkpoint {
        cursor: tracer.emitted(),
        views: ids
            .iter()
            .map(|id| {
                let (cpus, bytes) = monitor_view(host, *id);
                (*id, cpus, bytes)
            })
            .collect(),
    }
}

/// The monitor's own `(e_cpu, e_mem)` for `id`: what the trace replays,
/// never the degraded answer a container may be served.
fn monitor_view(host: &SimHost, id: CgroupId) -> (u32, u64) {
    let ns = host.monitor().namespace(id).expect("namespace exists");
    (ns.effective_cpu(), ns.effective_memory().0)
}

#[derive(Debug)]
struct Scenario {
    tracer: Tracer,
    ids: Vec<CgroupId>,
    /// View values at each container's launch, keyed by raw cgroup id:
    /// the replay's starting point before its first traced decision.
    baselines: BTreeMap<u32, (u32, u64)>,
    checkpoints: Vec<Checkpoint>,
    degraded_reads: u64,
    prometheus: String,
}

/// Two runs are the same run when they traced the same events and
/// walked the same view trajectory.
impl PartialEq for Scenario {
    fn eq(&self, other: &Scenario) -> bool {
        let render = |sc: &Scenario| -> Vec<String> {
            sc.tracer.events().iter().map(|e| e.render()).collect()
        };
        render(self) == render(other) && self.checkpoints == other.checkpoints
    }
}

fn charge_ok(host: &mut SimHost, id: CgroupId, mib: u64) {
    let outcome = host.charge(id, Bytes::from_mib(mib));
    assert!(
        matches!(outcome, ChargeOutcome::Charged { .. }),
        "scenario charge of {mib} MiB must succeed, got {outcome:?}"
    );
}

fn run_scenario(seed: u64) -> Scenario {
    let tracer = Tracer::bounded(RING_CAPACITY);
    let mut host = SimHost::paper_testbed();
    host.set_tracer(tracer.clone());
    host.attach_viewd(ViewServer::with_telemetry(
        host.viewd_host_spec(),
        4,
        tracer.clone(),
    ));

    let mut ids: Vec<CgroupId> = Vec::new();
    let mut baselines = BTreeMap::new();
    let mut checkpoints = Vec::new();
    let launch = |host: &mut SimHost,
                  baselines: &mut BTreeMap<u32, (u32, u64)>,
                  ids: &mut Vec<CgroupId>,
                  spec: &ContainerSpec| {
        let id = host.launch(spec);
        baselines.insert(id.0, monitor_view(host, id));
        ids.push(id);
    };
    for i in 0..3 {
        launch(&mut host, &mut baselines, &mut ids, &tenant_spec(i));
    }
    checkpoints.push(snap(&host, &tracer, &ids));

    // Phase 1 — contention: all tenants busy, no slack, so Algorithm 1
    // walks every view down toward the fair share (cpu-shrink-no-slack).
    for _ in 0..6 {
        step_busy(&mut host, &ids, 20);
        checkpoints.push(snap(&host, &tracer, &ids));
    }

    // Phase 2 — solo demand: only c0 runs, the host has slack, and c0's
    // view climbs to its quota (cpu-saturated+slack).
    for _ in 0..8 {
        step_busy(&mut host, &ids[..1], 20);
        checkpoints.push(snap(&host, &tracer, &ids));
    }

    // Phase 3 — publish outage: the monitor keeps updating but stops
    // publishing to viewd; once past the staleness budget every query
    // is answered from the conservative fallback and the serving layer
    // traces the substitution (degraded-fallback).
    let client = host.viewd().expect("viewd attached").client();
    let delay = arv_resview::STALENESS_BUDGET + 3;
    host.inject_publish_delay(delay);
    let mut degraded_reads = 0u64;
    for _ in 0..delay {
        step_busy(&mut host, &ids[..1], 20);
        if client.health(Some(ids[0])).is_degraded() {
            client
                .read(Some(ids[0]), "/proc/cpuinfo")
                .expect("renderable path");
            degraded_reads += 1;
        }
        checkpoints.push(snap(&host, &tracer, &ids));
    }
    for _ in 0..2 {
        step_busy(&mut host, &ids[..1], 20);
        checkpoints.push(snap(&host, &tracer, &ids));
    }

    // Phase 4 — two more tenants arrive and everyone turns busy: c0's
    // grown view shrinks back toward the new, smaller fair share.
    for tag in 3..5 {
        launch(&mut host, &mut baselines, &mut ids, &unlimited_spec(tag));
    }
    checkpoints.push(snap(&host, &tracer, &ids));
    for _ in 0..8 {
        step_busy(&mut host, &ids, 20);
        checkpoints.push(snap(&host, &tracer, &ids));
    }

    // Phase 5 — memory pressure: c0 charges past 90% of its 1 GiB view
    // while host free memory is plentiful, so Algorithm 2 grows the
    // view by 10% of the headroom each period (mem-pressure-growth).
    for add_mib in [950, 400, 400, 400] {
        charge_ok(&mut host, ids[0], add_mib);
        step_busy(&mut host, &ids, 20);
        checkpoints.push(snap(&host, &tracer, &ids));
    }

    // Phase 6 — reclaim: an unlimited tenant hogs physical memory until
    // host free drops below the low watermark; Algorithm 2 resets c0's
    // grown view to its soft limit (mem-reclaim-reset).
    let hog = ids[3];
    charge_ok(&mut host, hog, 128_100);
    for _ in 0..2 {
        step_busy(&mut host, &ids, 20);
        checkpoints.push(snap(&host, &tracer, &ids));
    }
    host.uncharge(hog, Bytes::from_mib(128_100));
    for _ in 0..2 {
        step_busy(&mut host, &ids, 20);
        checkpoints.push(snap(&host, &tracer, &ids));
    }

    // Phase 7 — live `docker update`: c1's quota drops to 2 CPUs and
    // its soft limit halves, so the clamp moves both views
    // (static-refresh).
    host.update_limits(
        ids[1],
        &ContainerSpec::new("obs-1", 20)
            .cpus(2.0)
            .cpu_shares(1024)
            .memory(Bytes::from_mib(4096))
            .memory_reservation(Bytes::from_mib(512)),
    );
    checkpoints.push(snap(&host, &tracer, &ids));
    step_busy(&mut host, &ids, 20);
    checkpoints.push(snap(&host, &tracer, &ids));

    // Phase 8 — stalled monitor with a lost event: a limits change
    // lands while the monitor sleeps through its deadlines, and the
    // queued cgroup event is dropped in transit (drop probability 1),
    // so the incremental stream can never deliver it. The watchdog
    // latches the stall and, on the first healthy firing, forces the
    // full reconcile that discovers the change (watchdog-resync).
    host.inject_monitor_stall(4);
    host.update_limits(
        ids[2],
        &ContainerSpec::new("obs-2", 20)
            .cpus(3.0)
            .cpu_shares(1024)
            .memory(Bytes::from_mib(4096))
            .memory_reservation(Bytes::from_mib(1024)),
    );
    host.set_fault_plan(FaultPlan::new(
        seed,
        FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::quiet()
        },
    ));
    for _ in 0..6 {
        step_busy(&mut host, &ids, 20);
        checkpoints.push(snap(&host, &tracer, &ids));
    }
    let _ = host.take_fault_plan();

    // Phase 9 — steady tail.
    for _ in 0..2 {
        step_busy(&mut host, &ids, 20);
        checkpoints.push(snap(&host, &tracer, &ids));
    }

    let prometheus = host
        .viewd()
        .expect("viewd attached")
        .prometheus_exposition();
    Scenario {
        tracer,
        ids,
        baselines,
        checkpoints,
        degraded_reads,
        prometheus,
    }
}

/// Replay verdict: counters proving (or disproving) that the actual
/// view trajectory is reconstructible from the trace alone.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct ReplayOutcome {
    events_replayed: u64,
    chain_breaks: u64,
    checkpoint_mismatches: u64,
    degraded_mismatches: u64,
    unknown_causes: u64,
    cause_counts: BTreeMap<&'static str, u64>,
    pipeline_counts: BTreeMap<&'static str, u64>,
}

fn verify_checkpoint(
    cp: &Checkpoint,
    current: &BTreeMap<u32, (Option<u32>, Option<u64>)>,
    baselines: &BTreeMap<u32, (u32, u64)>,
    out: &mut ReplayOutcome,
) {
    for (id, cpus, mem) in &cp.views {
        let (replayed_cpu, replayed_mem) = current.get(&id.0).copied().unwrap_or((None, None));
        let (base_cpu, base_mem) = baselines[&id.0];
        if replayed_cpu.unwrap_or(base_cpu) != *cpus {
            out.checkpoint_mismatches += 1;
        }
        if replayed_mem.unwrap_or(base_mem) != *mem {
            out.checkpoint_mismatches += 1;
        }
    }
}

/// Walk the full trace ring against the checkpointed trajectory.
///
/// Monitor-side decisions mutate the view, so they must chain
/// (`before == previous after`) and land exactly on every checkpoint.
/// `degraded-fallback` events describe a *served* substitution, not a
/// view mutation — they are excluded from the chain but their `before`
/// must match the live view the replay has reconstructed at that point.
fn replay(sc: &Scenario) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    let mut current: BTreeMap<u32, (Option<u32>, Option<u64>)> = BTreeMap::new();
    let mut pending = sc.checkpoints.iter().peekable();
    for ev in sc.tracer.events() {
        while let Some(cp) = pending.peek() {
            if ev.seq < cp.cursor {
                break;
            }
            verify_checkpoint(cp, &current, &sc.baselines, &mut out);
            pending.next();
        }
        match ev.kind {
            EventKind::Cpu(d) => {
                *out.cause_counts.entry(d.cause.label()).or_default() += 1;
                if d.cause == DecisionCause::Unknown {
                    out.unknown_causes += 1;
                }
                let Some(id) = ev.container else {
                    out.chain_breaks += 1;
                    continue;
                };
                let slot = current.entry(id.0).or_insert((None, None));
                let live = slot.0.unwrap_or(sc.baselines[&id.0].0);
                if d.cause == DecisionCause::DegradedFallback {
                    if live != d.before {
                        out.degraded_mismatches += 1;
                    }
                } else {
                    if live != d.before {
                        out.chain_breaks += 1;
                    }
                    slot.0 = Some(d.after);
                    out.events_replayed += 1;
                }
            }
            EventKind::Mem(d) => {
                *out.cause_counts.entry(d.cause.label()).or_default() += 1;
                if d.cause == DecisionCause::Unknown {
                    out.unknown_causes += 1;
                }
                let Some(id) = ev.container else {
                    out.chain_breaks += 1;
                    continue;
                };
                let slot = current.entry(id.0).or_insert((None, None));
                let live = slot.1.unwrap_or(sc.baselines[&id.0].1);
                if d.cause == DecisionCause::DegradedFallback {
                    if live != d.before.0 {
                        out.degraded_mismatches += 1;
                    }
                } else {
                    if live != d.before.0 {
                        out.chain_breaks += 1;
                    }
                    slot.1 = Some(d.after.0);
                    out.events_replayed += 1;
                }
            }
            EventKind::Pipeline(p) => {
                *out.pipeline_counts.entry(p.label()).or_default() += 1;
            }
        }
    }
    for cp in pending {
        verify_checkpoint(cp, &current, &sc.baselines, &mut out);
    }
    out
}

/// Mean nanoseconds per cached-hit query against a fresh view, min over
/// several trials (min-of-trials rejects scheduler noise).
fn cached_hit_ns(tracer: Tracer, iters: u32) -> f64 {
    let server = ViewServer::with_telemetry(HostSpec::paper_testbed(), 4, tracer);
    let id = serve_one_view(&server);
    let client = server.client();
    client.read(Some(id), "/proc/cpuinfo").expect("warm read");
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(client.read(Some(id), "/proc/cpuinfo").expect("cached read"));
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

/// Full reconstructibility: every change chained, every checkpoint
/// reproduced, every cause known and exercised, nothing dropped.
fn check_provenance(sc: &Scenario) {
    let verdict = replay(sc);
    assert_eq!(
        sc.tracer.dropped_events(),
        0,
        "ring sized for the scenario must not drop"
    );
    assert_eq!(
        verdict.unknown_causes, 0,
        "every decision must carry a cause"
    );
    assert_eq!(
        verdict.chain_breaks, 0,
        "every view change must chain from the previous one"
    );
    assert_eq!(
        verdict.checkpoint_mismatches, 0,
        "replaying the trace must reproduce every sampled view value"
    );
    assert_eq!(
        verdict.degraded_mismatches, 0,
        "degraded events must substitute from the live view the trace reconstructs"
    );
    assert!(sc.degraded_reads > 0, "outage must produce degraded reads");
    for cause in REQUIRED_CAUSES {
        assert!(
            verdict.cause_counts.get(cause).copied().unwrap_or(0) > 0,
            "scenario never exercised decision cause {cause}"
        );
    }
    for ev in ["container-created", "stall-detected", "resynced"] {
        assert!(
            verdict.pipeline_counts.get(ev).copied().unwrap_or(0) > 0,
            "scenario never exercised pipeline event {ev}"
        );
    }
}

/// Run this study and produce its report. Panics (on purpose) when a
/// view change is not reconstructible from the trace or when tracing
/// slows the cached-hit path past the budget — `ci.sh` runs this
/// figure, so either regression fails the gate.
pub fn run(scale: f64, seed_offset: u64) -> FigReport {
    let mut campaign = Campaign::new(
        "obs",
        "decision provenance: every view change reconstructed from the trace",
        &SEEDS,
        seed_offset,
    );
    let sc = campaign
        .replay(
            "provenance",
            &|seed, _| Run::of(run_scenario(seed)),
            &|run, _| check_provenance(&run.outcome),
        )
        .remove(0)
        .outcome;
    let verdict = replay(&sc);

    let iters = ((20_000.0 * scale) as u32).max(2_000);
    let traced_ns = cached_hit_ns(Tracer::bounded(1024), iters);
    let untraced_ns = cached_hit_ns(Tracer::disabled(), iters);
    let budget_ns = untraced_ns * OVERHEAD_BUDGET_RATIO + OVERHEAD_SLACK_NS;
    assert!(
        traced_ns <= budget_ns,
        "trace overhead regression: cached hit {traced_ns:.0} ns with tracing enabled vs \
         {untraced_ns:.0} ns disabled (budget {budget_ns:.0} ns)"
    );

    let mut t_causes = Table::new("decision_causes", &["events"]);
    for cause in REQUIRED_CAUSES {
        t_causes.push(Row::full(
            cause,
            &[verdict.cause_counts.get(cause).copied().unwrap_or(0) as f64],
        ));
    }
    let mut t_pipeline = Table::new("pipeline_events", &["events"]);
    for (label, count) in &verdict.pipeline_counts {
        t_pipeline.push(Row::full(*label, &[*count as f64]));
    }

    let mut t_prov = Table::new("provenance_check", &["value"]);
    for (label, value) in [
        ("containers", sc.ids.len() as u64),
        ("checkpoints", sc.checkpoints.len() as u64),
        ("trace_events", sc.tracer.emitted()),
        ("events_replayed", verdict.events_replayed),
        ("chain_breaks", verdict.chain_breaks),
        ("checkpoint_mismatches", verdict.checkpoint_mismatches),
        ("degraded_mismatches", verdict.degraded_mismatches),
        ("unknown_causes", verdict.unknown_causes),
        ("dropped_events", sc.tracer.dropped_events()),
        ("degraded_reads", sc.degraded_reads),
    ] {
        t_prov.push(Row::full(label, &[value as f64]));
    }

    let mut t_over = Table::new("trace_overhead", &["value"]);
    t_over.push(Row::full("traced_hit_ns", &[traced_ns]));
    t_over.push(Row::full("untraced_hit_ns", &[untraced_ns]));
    t_over.push(Row::full("ratio", &[traced_ns / untraced_ns.max(1.0)]));
    t_over.push(Row::full("budget_ns", &[budget_ns]));

    let tables = [t_causes, t_pipeline, t_prov, t_over];
    campaign.report.tables.extend(tables);
    campaign.report.note(format!(
        "{} containers, {} checkpoints, {} trace events; replay reproduced every sampled view \
         with 0 chain breaks and 0 unknown causes",
        sc.ids.len(),
        sc.checkpoints.len(),
        sc.tracer.emitted()
    ));
    campaign.report.note(format!(
        "explain c{}: {}",
        sc.ids[0].0,
        sc.tracer
            .render_explain(sc.ids[0])
            .trim_end()
            .replace('\n', " | ")
    ));
    for id in &sc.ids {
        campaign.report.note(format!(
            "timeline c{}:\n{}",
            id.0,
            sc.tracer.render_timeline(*id).trim_end()
        ));
    }
    let prom_head: Vec<&str> = sc.prometheus.lines().take(6).collect();
    campaign.report.note(format!(
        "prometheus exposition ({} lines): {}",
        sc.prometheus.lines().count(),
        prom_head.join(" | ")
    ));
    campaign.report.note(format!(
        "cached hit {traced_ns:.0} ns traced vs {untraced_ns:.0} ns untraced \
         (budget {budget_ns:.0} ns): tracing stays off the serving hot path"
    ));
    campaign.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_campaign_passes_and_reports() {
        let rep = run(0.1, 0);
        assert_eq!(rep.tables.len(), 4);
        let causes = &rep.tables[0];
        for cause in REQUIRED_CAUSES {
            assert!(
                causes.get(cause, "events").unwrap() >= 1.0,
                "{cause} missing from the report"
            );
        }
        let prov = &rep.tables[2];
        assert_eq!(prov.get("chain_breaks", "value"), Some(0.0));
        assert_eq!(prov.get("checkpoint_mismatches", "value"), Some(0.0));
        assert_eq!(prov.get("unknown_causes", "value"), Some(0.0));
        assert_eq!(prov.get("dropped_events", "value"), Some(0.0));
        assert!(prov.get("events_replayed", "value").unwrap() > 10.0);
    }

    #[test]
    fn scenario_trace_is_deterministic() {
        let a = run_scenario(SEEDS[0]);
        let b = run_scenario(SEEDS[0]);
        assert!(a == b, "rendered trace or checkpoint trajectory diverged");
        assert_eq!(a.degraded_reads, b.degraded_reads);
    }

    #[test]
    fn every_change_is_attributed_and_chained() {
        let sc = run_scenario(SEEDS[0]);
        let verdict = replay(&sc);
        assert_eq!(verdict.chain_breaks, 0);
        assert_eq!(verdict.checkpoint_mismatches, 0);
        assert_eq!(verdict.degraded_mismatches, 0);
        assert_eq!(verdict.unknown_causes, 0);
        assert_eq!(sc.tracer.dropped_events(), 0);
    }
}

//! Decision provenance, verified rather than trusted.
//!
//! The pipeline's whole job is to mutate per-container views, so the
//! operator's first question — *why does container X currently see N
//! CPUs?* — must be answerable from the trace alone. The `host`
//! campaign's traced testbed ([`crate::host`]) samples the *actual*
//! view trajectory after every step as `Checkpoint`s; `replay`
//! walks the trace ring against them and counts every way the trace
//! could fail to explain a view: a decision whose `before` is not the
//! previous decision's `after` (a chain break), a checkpoint the replay
//! does not reproduce, a degraded substitution that did not start from
//! the live view, a cause the pipeline could not attribute. A warm
//! restart replaces the monitor, so its `restored` decisions start from
//! the replacement's cold value: the replay requires their `after` to
//! be the view the trace had reconstructed before the crash.
//!
//! `trace_overhead` prices the tracer on the serving hot path: the
//! traced cached hit is claimed against the untraced one.

use std::collections::BTreeMap;
use std::time::Instant;

use arv_cgroups::CgroupId;
use arv_container::SimHost;
use arv_telemetry::{DecisionCause, EventKind, TraceEvent, Tracer};
use arv_viewd::{HostSpec, ViewServer};

use crate::campaign::{serve_one_view, Campaign};
use crate::report::{Row, Table};

/// Every decision cause the instrumented host pipeline emits; the
/// testbed must exercise all of them.
pub(crate) const REQUIRED_CAUSES: [&str; 8] = [
    "cpu-saturated+slack",
    "cpu-shrink-no-slack",
    "mem-pressure-growth",
    "mem-reclaim-reset",
    "static-refresh",
    "watchdog-resync",
    "degraded-fallback",
    "restored",
];

/// Pipeline events the testbed must exercise.
pub(crate) const REQUIRED_PIPELINE: [&str; 4] = [
    "container-created",
    "stall-detected",
    "resynced",
    "restored",
];

/// A container's `[e_cpu, e_mem]`, as the trace replays them.
pub(crate) type Views = [u64; 2];

/// Actual view values sampled from the monitor after one step, plus the
/// trace cursor (events emitted so far) at the sampling instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Checkpoint {
    cursor: u64,
    views: Vec<(u32, Views)>,
}

impl Checkpoint {
    /// Sample `ids`' monitor views on `host`, whose tracer is `tracer`.
    pub(crate) fn take(host: &SimHost, tracer: &Tracer, ids: &[CgroupId]) -> Checkpoint {
        Checkpoint {
            cursor: tracer.emitted(),
            views: ids
                .iter()
                .map(|id| (id.0, monitor_view(host, *id)))
                .collect(),
        }
    }
}

/// The monitor's own views of `id`: what the trace replays, never the
/// degraded answer a container may be served.
pub(crate) fn monitor_view(host: &SimHost, id: CgroupId) -> Views {
    let ns = host.monitor().namespace(id).expect("namespace exists");
    [u64::from(ns.effective_cpu()), ns.effective_memory().0]
}

/// Replay verdict: counters proving (or disproving) that the actual
/// view trajectory is reconstructible from the trace alone.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Verdict {
    pub events_replayed: u64,
    pub chain_breaks: u64,
    pub checkpoint_mismatches: u64,
    pub degraded_mismatches: u64,
    pub unknown_causes: u64,
    pub cause_counts: BTreeMap<&'static str, u64>,
    pub pipeline_counts: BTreeMap<&'static str, u64>,
}

/// Walk the trace `events` against the checkpointed trajectory, each
/// container starting from its launch-time `baselines` value.
///
/// Monitor-side decisions mutate the view, so they must chain
/// (`before == previous after`) and land exactly on every checkpoint.
/// `degraded-fallback` events describe a *served* substitution, not a
/// view mutation: they must start from the live view but do not move
/// it.
pub(crate) fn replay(
    events: &[TraceEvent],
    checkpoints: &[Checkpoint],
    baselines: &BTreeMap<u32, Views>,
) -> Verdict {
    let mut out = Verdict::default();
    let mut current = baselines.clone();
    let mut pending = checkpoints.iter().peekable();
    let verify = |cp: &Checkpoint, current: &BTreeMap<u32, Views>, out: &mut Verdict| {
        for (id, views) in &cp.views {
            let replayed = current[id];
            out.checkpoint_mismatches += (0..2).filter(|&k| replayed[k] != views[k]).count() as u64;
        }
    };
    for ev in events {
        while let Some(cp) = pending.next_if(|cp| ev.seq >= cp.cursor) {
            verify(cp, &current, &mut out);
        }
        let (k, cause, before, after) = match ev.kind {
            EventKind::Cpu(d) => (0, d.cause, u64::from(d.before), u64::from(d.after)),
            EventKind::Mem(d) => (1, d.cause, d.before.0, d.after.0),
            EventKind::Pipeline(p) => {
                *out.pipeline_counts.entry(p.label()).or_default() += 1;
                continue;
            }
        };
        *out.cause_counts.entry(cause.label()).or_default() += 1;
        let Some(slot) = ev.container.and_then(|id| current.get_mut(&id.0)) else {
            out.chain_breaks += 1;
            continue;
        };
        let live = slot[k];
        match cause {
            DecisionCause::Unknown => out.unknown_causes += 1,
            DecisionCause::DegradedFallback => {
                out.degraded_mismatches += u64::from(live != before);
                continue;
            }
            // The replacement monitor's cold value is the `before`; the
            // resumed value must be the one the crash interrupted.
            DecisionCause::Restored => out.chain_breaks += u64::from(live != after),
            // The clamp moved the journaled value into fresh bounds.
            DecisionCause::RestoreReconciled => {}
            _ => out.chain_breaks += u64::from(live != before),
        }
        slot[k] = after;
        out.events_replayed += 1;
    }
    for cp in pending {
        verify(cp, &current, &mut out);
    }
    out
}

/// Cached-hit overhead budget: with tracing enabled the mean cached-hit
/// query must stay within `ratio * untraced + slack`. The fresh-serving
/// path never touches the ring (degraded provenance is emitted only on
/// the degraded branch), so this bounds pure bookkeeping cost.
const OVERHEAD_BUDGET_RATIO: f64 = 1.75;
/// Absolute slack (ns) keeping the budget meaningful when the untraced
/// baseline is a few tens of nanoseconds.
const OVERHEAD_SLACK_NS: f64 = 250.0;

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

/// Price the tracer on viewd's cached-hit path, traced against
/// untraced, file the `trace_overhead` table, and claim the budget.
/// `scale` sizes the trials.
pub(crate) fn trace_overhead(campaign: &mut Campaign, scale: f64) {
    let iters = ((20_000.0 * scale) as u32).max(2_000);
    let traced_ns = cached_hit_ns(Tracer::bounded(1024), iters);
    let untraced_ns = cached_hit_ns(Tracer::disabled(), iters);
    let budget_ns = untraced_ns * OVERHEAD_BUDGET_RATIO + OVERHEAD_SLACK_NS;
    let mut table = Table::new("trace_overhead", &["value"]);
    table.push(Row::full("traced_hit_ns", &[traced_ns]));
    table.push(Row::full("untraced_hit_ns", &[untraced_ns]));
    table.push(Row::full("ratio", &[traced_ns / untraced_ns.max(1.0)]));
    table.push(Row::full("budget_ns", &[budget_ns]));
    campaign.report.tables.push(table);
    campaign.report.note(format!(
        "cached hit {traced_ns:.0} ns traced vs {untraced_ns:.0} ns untraced \
         (budget {budget_ns:.0} ns): tracing stays off the serving hot path"
    ));
    let within = traced_ns <= budget_ns;
    campaign.claim("trace_overhead", vec![("obs.trace_overhead.1", within)]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Run;
    use crate::host::{run_testbed, testbed_claims};

    #[test]
    fn obs_campaign_passes_and_reports() {
        // obs's own table, the tracer priced on viewd's cached-hit path,
        // filed on a campaign of its own; every required cause seen at a
        // seed the host campaign does not run.
        let rep = Campaign::alone(&[], 0, |c| trace_overhead(c, 0.1));
        let t = rep.table("trace_overhead");
        assert!(t.get("traced_hit_ns", "value") <= t.get("budget_ns", "value"));
        assert!(t.get("ratio", "value").unwrap() > 0.0);
        let causes = run_testbed(0xB5).provenance.cause_counts;
        for cause in REQUIRED_CAUSES {
            assert!(
                causes.get(cause).copied().unwrap_or(0) >= 1,
                "{cause} missing"
            );
        }
    }

    #[test]
    fn scenario_trace_is_deterministic() {
        let (a, b) = (run_testbed(0xB5), run_testbed(0xB5));
        assert!(a == b, "rendered trace or checkpoint trajectory diverged");
    }

    #[test]
    fn every_change_is_attributed_and_chained() {
        let run = Run::of(run_testbed(0xB5));
        run.assert_claims(&testbed_claims);
        assert!(run.outcome.provenance.events_replayed > 10);
    }
}

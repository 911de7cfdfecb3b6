//! Deterministic chaos campaign for the fault-tolerant view pipeline.
//!
//! Every fault-handling claim the robustness work makes is asserted
//! here, under seeded fault injection ([`arv_sim_core::FaultPlan`]) and
//! replay-checked on the [`crate::campaign`] harness:
//!
//! * **monitor stall** — the update timer fires but the monitor does no
//!   work. Views must never leave their Algorithm 1 bounds, degraded
//!   serving must engage within the staleness budget and answer with the
//!   conservative lower bound, and after recovery the stalled host must
//!   reconverge to a fault-free twin within a bounded number of ticks.
//! * **event-stream chaos** — cgroup events dropped, duplicated and
//!   reordered in transit. The watchdog must detect the sequence gaps
//!   and the resync must leave the monitor's namespace set exactly
//!   matching the live container set, with every view inside its bounds.
//! * **publish delay** — the monitor runs but stops publishing to
//!   `arv-viewd`. The daemon's health must walk Fresh → Stale → Degraded
//!   on the staleness budget, serve the fallback while degraded, and
//!   snap back to Fresh on the first publish.
//! * **wire chaos** — corrupted and truncated frames (length prefix
//!   included) hit the daemon's socket, then the daemon is killed and
//!   restarted mid-stream. The server must reject hostile frames without
//!   dropping other clients; [`arv_viewd::WireClient`] must serve
//!   its last-good answer (flagged degraded) during the outage and
//!   reconnect on its own once the socket returns.

use arv_cgroups::CgroupId;
use arv_container::{ContainerSpec, SimHost};
use arv_resview::{Sysconf, ViewHealth, STALENESS_BUDGET};
use arv_sim_core::{FaultConfig, FaultPlan};
use arv_viewd::{HostSpec, RetryPolicy, ViewServer, WireClient, WireServer, KIND_READ};

use crate::campaign::{
    out_of_bounds, paper_container, rows, serve_one_view, step_busy, Campaign, Run, Scenario,
};
use crate::report::FigReport;

/// The two campaign seeds. Both must satisfy every invariant; together
/// with the per-seed replay they demonstrate the harness is seeded, not
/// lucky.
const SEEDS: [u64; 2] = [0xA11CE, 0x5EED5];

/// Tick at which the injected monitor stall begins.
const STALL_START: u64 = 10;
/// Length of the injected stall, in update-timer ticks. Longer than the
/// default staleness budget so degraded serving must engage.
const STALL_TICKS: u64 = 6;
/// Ticks allowed for the stalled host to reconverge to the fault-free
/// twin after the stall lifts.
const RECONVERGE_BOUND: u64 = 15;

fn churn_spec(tag: impl std::fmt::Display) -> ContainerSpec {
    paper_container(format!("churn-{tag}")).cpus(8.0)
}

fn paper_spec(tag: impl std::fmt::Display) -> ContainerSpec {
    paper_container(format!("chaos-{tag}"))
}

// --- scenario 1: monitor stall ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StallOutcome {
    missed_ticks: u64,
    resyncs: u64,
    degraded_serves: u64,
    bound_violations: u64,
    reconverge_ticks: u64,
    final_cpus: u64,
}

fn run_monitor_stall(seed: u64) -> StallOutcome {
    let mut faulty = SimHost::paper_testbed();
    let mut twin = SimHost::paper_testbed();
    let specs: Vec<ContainerSpec> = (0..5).map(paper_spec).collect();
    let ids: Vec<CgroupId> = specs.iter().map(|s| faulty.launch(s)).collect();
    let tids: Vec<CgroupId> = specs.iter().map(|s| twin.launch(s)).collect();
    faulty.set_fault_plan(FaultPlan::new(
        seed,
        FaultConfig {
            stall_at: Some((STALL_START, STALL_TICKS)),
            ..FaultConfig::quiet()
        },
    ));

    let stall_end = STALL_START + STALL_TICKS;
    // The monitor's own view of c0, which the twin comparison tracks.
    let e_cpu = |host: &SimHost, id: CgroupId| {
        host.monitor()
            .namespace(id)
            .expect("namespace exists")
            .effective_cpu()
    };
    let mut degraded_serves = 0u64;
    let mut bound_violations = 0u64;
    let mut converged_after: Option<u64> = None;

    for step in 0..stall_end + RECONVERGE_BOUND {
        // All five busy until the stall begins, then only c0 runs — the
        // twin's view climbs toward the 10-core quota while the stalled
        // host's views are frozen.
        let (demands, twin_demands) = if step < STALL_START {
            (
                ids.iter()
                    .map(|id| faulty.demand(*id, 20))
                    .collect::<Vec<_>>(),
                tids.iter()
                    .map(|id| twin.demand(*id, 20))
                    .collect::<Vec<_>>(),
            )
        } else {
            (
                vec![faulty.demand(ids[0], 20)],
                vec![twin.demand(tids[0], 20)],
            )
        };
        faulty.step(&demands);
        twin.step(&twin_demands);

        let sysfs = faulty.sysfs();
        for id in &ids {
            let ns = faulty.monitor().namespace(*id).expect("namespace exists");
            let bounds = ns.cpu_bounds();
            let eff = ns.effective_cpu();
            // The core invariant: faults freeze views, they never push
            // them outside Algorithm 1's envelope.
            if eff < bounds.lower || eff > bounds.upper {
                bound_violations += 1;
            }
            if sysfs.health(Some(*id)).is_degraded() {
                degraded_serves += 1;
                // Degraded answers fall back to the guaranteed lower
                // bound, never an optimistic stale value.
                if sysfs.sysconf(Some(*id), Sysconf::NprocessorsOnln) != u64::from(bounds.lower) {
                    bound_violations += 1;
                }
            }
        }
        if step >= stall_end
            && converged_after.is_none()
            && e_cpu(&faulty, ids[0]) == e_cpu(&twin, tids[0])
        {
            converged_after = Some(step + 1 - stall_end);
        }
    }

    let w = faulty.watchdog_stats();
    StallOutcome {
        missed_ticks: w.missed_ticks,
        resyncs: w.resyncs,
        degraded_serves,
        bound_violations,
        reconverge_ticks: converged_after.unwrap_or(u64::MAX),
        final_cpus: u64::from(e_cpu(&faulty, ids[0])),
    }
}

fn assert_stall(out: &StallOutcome, seed: u64) {
    assert_eq!(
        out.bound_violations, 0,
        "seed {seed:#x}: views left their bounds during the stall"
    );
    assert_eq!(out.missed_ticks, STALL_TICKS, "seed {seed:#x}");
    assert!(
        out.degraded_serves > 0,
        "seed {seed:#x}: a {STALL_TICKS}-tick stall must outlive the staleness budget"
    );
    assert!(
        out.resyncs >= 1,
        "seed {seed:#x}: stall must force a resync"
    );
    assert!(
        out.reconverge_ticks <= RECONVERGE_BOUND,
        "seed {seed:#x}: no reconvergence within {RECONVERGE_BOUND} ticks"
    );
}

// --- scenario 2: event-stream chaos ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventChaosOutcome {
    injected_drops: u64,
    injected_dups: u64,
    injected_reorders: u64,
    gaps_detected: u64,
    duplicates_ignored: u64,
    resyncs: u64,
    live_containers: u64,
    namespaces: u64,
    missing_namespaces: u64,
    bound_violations: u64,
}

fn run_event_chaos(seed: u64, rounds: u32) -> EventChaosOutcome {
    let mut host = SimHost::paper_testbed();
    host.set_fault_plan(FaultPlan::new(
        seed,
        FaultConfig {
            drop_prob: 0.4,
            dup_prob: 0.25,
            reorder_prob: 0.25,
            ..FaultConfig::quiet()
        },
    ));

    // Churn containers through a lossy event stream: every launch and
    // terminate emits events the plan may drop, duplicate or reorder.
    let mut live: Vec<CgroupId> = Vec::new();
    for round in 0..rounds {
        live.push(host.launch(&churn_spec(round)));
        if live.len() > 4 {
            let victim = live.remove(0);
            host.terminate(victim);
        }
        for _ in 0..2 {
            step_busy(&mut host, &live, 8);
        }
    }

    let fstats = host.take_fault_plan().expect("plan installed").stats();
    // One clean launch surfaces any trailing loss as a sequence gap; the
    // resync it forces reconciles straight from the cgroup hierarchy.
    live.push(host.launch(&churn_spec("clean")));
    for _ in 0..3 {
        step_busy(&mut host, &live, 8);
    }

    let w = host.watchdog_stats();
    let mut missing = 0u64;
    let mut bound_violations = 0u64;
    for id in &live {
        match out_of_bounds(&host, *id) {
            Some(out) => bound_violations += u64::from(out),
            None => missing += 1,
        }
    }
    EventChaosOutcome {
        injected_drops: fstats.dropped,
        injected_dups: fstats.duplicated,
        injected_reorders: fstats.reordered,
        gaps_detected: w.gaps_detected,
        duplicates_ignored: w.duplicates,
        resyncs: w.resyncs,
        live_containers: live.len() as u64,
        namespaces: host.monitor().len() as u64,
        missing_namespaces: missing,
        bound_violations,
    }
}

fn assert_event_chaos(out: &EventChaosOutcome, seed: u64) {
    assert!(
        out.injected_drops > 0,
        "seed {seed:#x}: campaign injected no drops — nothing was tested"
    );
    assert!(
        out.gaps_detected >= 1 && out.resyncs >= 1,
        "seed {seed:#x}: lost events went undetected"
    );
    assert_eq!(
        out.missing_namespaces, 0,
        "seed {seed:#x}: resync left live containers without namespaces"
    );
    assert_eq!(
        out.namespaces, out.live_containers,
        "seed {seed:#x}: monitor tracks a different set than the hierarchy"
    );
    assert_eq!(out.bound_violations, 0, "seed {seed:#x}");
}

// --- scenario 3: publish delay ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PublishDelayOutcome {
    staleness_budget: u64,
    delay_ticks: u64,
    ticks_to_stale: u64,
    ticks_to_degraded: u64,
    live_cpus: u64,
    fallback_cpus: u64,
    degraded_cpus: u64,
    ticks_to_recover: u64,
    recovered_cpus: u64,
}

fn run_publish_delay(seed: u64) -> PublishDelayOutcome {
    let mut host = SimHost::paper_testbed();
    let ids: Vec<CgroupId> = (0..3).map(|i| host.launch(&paper_spec(i))).collect();
    host.attach_viewd(ViewServer::new(host.viewd_host_spec(), 4));

    // Only c0 runs: its live view climbs to the 10-core quota while the
    // conservative fallback stays at the all-busy fair share.
    for _ in 0..12 {
        step_busy(&mut host, &ids[..1], 20);
    }
    let client = host.viewd().expect("viewd attached").client();
    assert!(client.health(Some(ids[0])).is_fresh());
    let live_cpus = client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln);
    let fallback_cpus = u64::from(
        host.monitor()
            .namespace(ids[0])
            .expect("namespace exists")
            .cpu_bounds()
            .lower,
    );

    // Seed-flavoured outage length, always past the budget.
    let delay = STALENESS_BUDGET + 2 + seed % 3;
    host.inject_publish_delay(delay);
    let mut ticks_to_stale = 0u64;
    let mut ticks_to_degraded = 0u64;
    let mut degraded_cpus = 0u64;
    for tick in 1..=delay {
        step_busy(&mut host, &ids[..1], 20);
        match client.health(Some(ids[0])) {
            ViewHealth::Stale { .. } => {
                if ticks_to_stale == 0 {
                    ticks_to_stale = tick;
                }
            }
            ViewHealth::Degraded { .. } => {
                if ticks_to_degraded == 0 {
                    ticks_to_degraded = tick;
                }
                degraded_cpus = client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln);
            }
            ViewHealth::Fresh => {}
        }
    }

    let mut ticks_to_recover = 0u64;
    for tick in 1..=4u64 {
        step_busy(&mut host, &ids[..1], 20);
        if client.health(Some(ids[0])).is_fresh() {
            ticks_to_recover = tick;
            break;
        }
    }
    PublishDelayOutcome {
        staleness_budget: STALENESS_BUDGET,
        delay_ticks: delay,
        ticks_to_stale,
        ticks_to_degraded,
        live_cpus,
        fallback_cpus,
        degraded_cpus,
        ticks_to_recover,
        recovered_cpus: client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln),
    }
}

fn assert_publish_delay(out: &PublishDelayOutcome, seed: u64) {
    assert!(
        out.live_cpus > out.fallback_cpus,
        "seed {seed:#x}: scenario must distinguish live view from fallback"
    );
    assert!(out.ticks_to_stale > 0, "seed {seed:#x}: never went stale");
    assert_eq!(
        out.ticks_to_degraded,
        out.staleness_budget + 1,
        "seed {seed:#x}: degraded serving must engage right after the budget"
    );
    assert_eq!(
        out.degraded_cpus, out.fallback_cpus,
        "seed {seed:#x}: degraded answer is not the conservative fallback"
    );
    assert_eq!(
        out.ticks_to_recover, 1,
        "seed {seed:#x}: first publish after the outage must restore Fresh"
    );
    assert_eq!(out.recovered_cpus, out.live_cpus, "seed {seed:#x}");
}

// --- scenario 4: wire chaos ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WireChaosOutcome {
    frames_corrupted: u64,
    frames_truncated: u64,
    frames_rejected: u64,
    decode_errors: u64,
    successes: u64,
    failures: u64,
    retries: u64,
    reconnects: u64,
    fallback_serves: u64,
    downtime_degraded: bool,
    post_restart_live: bool,
}

/// Hostile raw frames sent at the daemon per campaign.
const HOSTILE_FRAMES: u32 = 12;

fn run_wire_chaos(seed: u64, replay: u32) -> WireChaosOutcome {
    use std::io::{Read as _, Write as _};

    let socket = std::env::temp_dir().join(format!(
        "arv-chaos-{}-{seed:x}-{replay}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&socket);

    let view = ViewServer::new(HostSpec::paper_testbed(), 4);
    serve_one_view(&view);
    let wire = WireServer::spawn(view.clone(), &socket).expect("spawn wire server");

    let retry = RetryPolicy {
        jitter_seed: seed,
        ..RetryPolicy::fast_test()
    };
    let mut client = WireClient::new(&socket, retry);
    // Baseline requests prime the client's last-good cache.
    for _ in 0..3 {
        let resp = client
            .read(Some(CgroupId(1)), "/proc/cpuinfo")
            .expect("wire up")
            .expect("registered");
        assert!(!resp.degraded);
    }

    // Hostile peers: seeded corruption/truncation of whole frames,
    // length prefix included. Each frame uses its own connection and is
    // drained to EOF so every server-side reject lands before the next
    // frame — that serialization is what keeps the counters replayable.
    let mut plan = FaultPlan::new(
        seed,
        FaultConfig {
            corrupt_prob: 0.8,
            truncate_prob: 0.4,
            ..FaultConfig::quiet()
        },
    );
    for i in 0..HOSTILE_FRAMES {
        let key = if i % 2 == 0 {
            "/proc/cpuinfo"
        } else {
            "/proc/stat"
        };
        let mut payload = vec![KIND_READ];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(key.as_bytes());
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        plan.mangle_frame(&mut frame);

        let mut s = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
        s.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .expect("set timeout");
        let _ = s.write_all(&frame);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
    }

    // The daemon is still serving well-behaved clients.
    let resp = client
        .read(Some(CgroupId(1)), "/proc/cpuinfo")
        .expect("daemon survived hostile frames")
        .expect("registered");
    assert!(!resp.degraded);
    let metrics = view.metrics();

    // Kill the daemon mid-stream: the client degrades to last-good…
    wire.shutdown();
    let during = client
        .read(Some(CgroupId(1)), "/proc/cpuinfo")
        .expect("last-good fallback available")
        .expect("cached");
    let downtime_degraded = during.degraded;

    // …and reconnects on its own once a new daemon binds the socket.
    let wire2 = WireServer::spawn(view, &socket).expect("respawn wire server");
    let after = client
        .read(Some(CgroupId(1)), "/proc/cpuinfo")
        .expect("reconnected")
        .expect("registered");
    let post_restart_live = !after.degraded;

    let stats = client.stats();
    let fstats = plan.stats();
    wire2.shutdown();
    let _ = std::fs::remove_file(&socket);
    WireChaosOutcome {
        frames_corrupted: fstats.corrupted,
        frames_truncated: fstats.truncated,
        frames_rejected: metrics.wire_rejected,
        decode_errors: metrics.wire_errors,
        successes: stats.successes,
        failures: stats.failures,
        retries: stats.retries,
        reconnects: stats.reconnects,
        fallback_serves: stats.fallback_serves,
        downtime_degraded,
        post_restart_live,
    }
}

fn assert_wire_chaos(out: &WireChaosOutcome, seed: u64) {
    assert!(
        out.frames_corrupted + out.frames_truncated > 0,
        "seed {seed:#x}: campaign mangled no frames"
    );
    assert!(
        out.frames_rejected + out.decode_errors > 0,
        "seed {seed:#x}: server noticed none of the hostile frames"
    );
    assert!(
        out.downtime_degraded,
        "seed {seed:#x}: downtime answer must be flagged degraded"
    );
    assert!(
        out.post_restart_live,
        "seed {seed:#x}: first answer after restart must be live"
    );
    assert!(out.reconnects >= 1, "seed {seed:#x}");
    assert!(out.retries >= 1, "seed {seed:#x}");
    assert_eq!(
        out.failures, 1,
        "seed {seed:#x}: only the outage request fails"
    );
    assert_eq!(out.fallback_serves, 1, "seed {seed:#x}");
}

// --- the campaign ---

/// Run the chaos campaign and produce its report. Panics (on purpose)
/// if any fault-tolerance invariant or the same-seed replay check fails.
pub fn run(scale: f64, seed_offset: u64) -> FigReport {
    let churn_rounds = ((12.0 * scale) as u32).clamp(6, 48);
    let mut campaign = Campaign::new(
        "chaos",
        "deterministic fault injection: stalls, event loss, publish delay, wire chaos",
        &SEEDS,
        seed_offset,
    );

    campaign.scenario(Scenario {
        name: "monitor_stall",
        run: &|seed, _| Run::of(run_monitor_stall(seed)),
        check: &|run, seed| assert_stall(&run.outcome, seed),
        rows: rows!(
            missed_ticks,
            resyncs,
            degraded_serves,
            bound_violations,
            reconverge_ticks,
            final_cpus
        ),
    });
    campaign.scenario(Scenario {
        name: "event_stream_chaos",
        run: &|seed, _| Run::of(run_event_chaos(seed, churn_rounds)),
        check: &|run, seed| assert_event_chaos(&run.outcome, seed),
        rows: rows!(
            injected_drops,
            injected_dups,
            injected_reorders,
            gaps_detected,
            duplicates_ignored,
            resyncs,
            live_containers,
            namespaces,
            missing_namespaces,
            bound_violations
        ),
    });
    campaign.scenario(Scenario {
        name: "publish_delay",
        run: &|seed, _| Run::of(run_publish_delay(seed)),
        check: &|run, seed| assert_publish_delay(&run.outcome, seed),
        rows: rows!(
            staleness_budget,
            delay_ticks,
            ticks_to_stale,
            ticks_to_degraded,
            live_cpus,
            fallback_cpus,
            degraded_cpus,
            ticks_to_recover,
            recovered_cpus
        ),
    });
    campaign.scenario(Scenario {
        name: "wire_chaos",
        run: &|seed, replay| Run::of(run_wire_chaos(seed, replay)),
        check: &|run, seed| assert_wire_chaos(&run.outcome, seed),
        rows: rows!(
            frames_corrupted,
            frames_truncated,
            frames_rejected,
            decode_errors,
            successes,
            failures,
            retries,
            reconnects,
            fallback_serves,
            downtime_degraded,
            post_restart_live
        ),
    });

    campaign.report.note(format!(
        "invariants held: views inside Algorithm 1 bounds under every fault, degraded serving \
         within the staleness budget, resync after loss, reconvergence <= {RECONVERGE_BOUND} ticks"
    ));
    campaign.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::seed_label;

    #[test]
    fn chaos_campaign_passes_and_reports() {
        let rep = run(0.5, 0);
        assert_eq!(rep.tables.len(), 5);
        let stall = &rep.tables[0];
        for col in [seed_label(SEEDS[0]), seed_label(SEEDS[1])] {
            assert_eq!(stall.get("bound_violations", &col), Some(0.0));
            assert!(stall.get("resyncs", &col).unwrap() >= 1.0);
        }
        let det = &rep.tables[4];
        assert_eq!(det.get("wire_chaos", "replays_identical"), Some(1.0));
    }

    #[test]
    fn simulation_scenarios_replay_bit_identically() {
        // Pure-simulation scenarios compared once more outside run():
        // guards against accidental global state sneaking into SimHost.
        assert_eq!(run_monitor_stall(99), run_monitor_stall(99));
        assert_eq!(run_event_chaos(7, 8), run_event_chaos(7, 8));
        assert_eq!(run_publish_delay(3), run_publish_delay(3));
    }
}

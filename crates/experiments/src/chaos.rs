//! Hostile inputs to one host, two scenarios of the `host` campaign
//! ([`crate::host`]):
//!
//! * **event-stream chaos** — cgroup events dropped, duplicated and
//!   reordered in transit. The watchdog must detect the sequence gaps
//!   and the resync must leave the monitor's namespace set exactly
//!   matching the live container set, with every view inside its bounds.
//! * **wire chaos** — corrupted and truncated frames (length prefix
//!   included) hit the daemon's socket, then the daemon is killed and
//!   restarted mid-stream. The server must reject hostile frames without
//!   dropping other clients; [`arv_viewd::WireClient`] must serve
//!   its last-good answer (flagged degraded) during the outage and
//!   reconnect on its own once the socket returns.

use arv_cgroups::CgroupId;
use arv_container::{ContainerSpec, SimHost};
use arv_sim_core::{FaultConfig, FaultPlan};
use arv_viewd::{HostSpec, RetryPolicy, ViewServer, WireClient, WireServer, KIND_READ};

use crate::campaign::{
    out_of_bounds, paper_container, rows, serve_one_view, step_busy, Campaign, Claim, Run, Scenario,
};

fn churn_spec(tag: impl std::fmt::Display) -> ContainerSpec {
    paper_container(format!("churn-{tag}")).cpus(8.0)
}

// --- event-stream chaos ---

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
    // A seed whose plan has dropped nothing by then churns on, for at
    // most `rounds` more, until it has: loss is what this tests.
    let mut live: Vec<CgroupId> = Vec::new();
    let mut round = 0;
    while round < rounds || (round < 2 * rounds && nothing_dropped(&mut host)) {
        live.push(host.launch(&churn_spec(round)));
        if live.len() > 4 {
            let victim = live.remove(0);
            host.terminate(victim);
        }
        for _ in 0..2 {
            step_busy(&mut host, &live, 8);
        }
        round += 1;
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

/// Whether the host's fault plan has dropped no event so far.
fn nothing_dropped(host: &mut SimHost) -> bool {
    let plan = host.take_fault_plan().expect("plan installed");
    let dropped = plan.stats().dropped;
    host.set_fault_plan(plan);
    dropped == 0
}

fn event_chaos_claims(run: &Run<EventChaosOutcome>) -> Vec<Claim> {
    let o = &run.outcome;
    vec![
        ("chaos.event_stream_chaos.1", o.injected_drops > 0),
        (
            "chaos.event_stream_chaos.2",
            o.gaps_detected >= 1 && o.resyncs >= 1,
        ),
        ("chaos.event_stream_chaos.3", o.missing_namespaces == 0),
        (
            "chaos.event_stream_chaos.4",
            o.namespaces == o.live_containers,
        ),
        ("chaos.event_stream_chaos.5", o.bound_violations == 0),
    ]
}

// --- wire chaos ---

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
    /// A well-behaved client got a live answer after the hostile frames.
    survivor_served: bool,
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
    let survivor_served = matches!(
        client.read(Some(CgroupId(1)), "/proc/cpuinfo"),
        Ok(Some(resp)) if !resp.degraded
    );
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
        survivor_served,
    }
}

/// Run both scenarios on `campaign`; `scale` sizes the event churn.
pub(crate) fn scenarios(campaign: &mut Campaign, scale: f64) {
    let churn_rounds = ((12.0 * scale) as u32).clamp(6, 48);
    campaign.scenario(Scenario {
        name: "event_stream_chaos",
        run: &|seed, _| Run::of(run_event_chaos(seed, churn_rounds)),
        claims: &event_chaos_claims,
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
        name: "wire_chaos",
        run: &|seed, replay| Run::of(run_wire_chaos(seed, replay)),
        claims: &|run| {
            let o = &run.outcome;
            vec![
                (
                    "chaos.wire_chaos.1",
                    o.frames_corrupted + o.frames_truncated > 0,
                ),
                (
                    "chaos.wire_chaos.2",
                    o.frames_rejected + o.decode_errors > 0,
                ),
                ("chaos.wire_chaos.3", o.downtime_degraded),
                ("chaos.wire_chaos.4", o.post_restart_live),
                ("chaos.wire_chaos.5", o.reconnects >= 1),
                ("chaos.wire_chaos.6", o.retries >= 1),
                ("chaos.wire_chaos.7", o.failures == 1),
                ("chaos.wire_chaos.8", o.fallback_serves == 1),
                ("chaos.wire_chaos.9", o.survivor_served),
            ]
        },
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
    campaign.report.note(
        "event loss, duplication and reordering detected as gaps and healed by resync; hostile \
         frames rejected without dropping other clients, last-good answers flagged degraded \
         while the daemon is down",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_campaign_passes_and_reports() {
        // The host campaign's chaos share alone, at seed offset 2: seeds
        // the campaign's own offsets 0 and 1 do not run, and wire-chaos
        // sockets apart from its.
        let rep = Campaign::alone(&crate::host::SEEDS, 2, |c| scenarios(c, 0.5));
        let (events, wire) = (rep.table("event_stream_chaos"), rep.table("wire_chaos"));
        for col in &events.columns {
            assert_eq!(events.get("bound_violations", col), Some(0.0));
            assert_eq!(events.get("missing_namespaces", col), Some(0.0));
            assert!(events.get("resyncs", col).unwrap() >= 1.0);
            assert_eq!(wire.get("failures", col), Some(1.0));
            assert!(wire.get("reconnects", col).unwrap() >= 1.0);
        }
    }

    #[test]
    fn a_seed_that_draws_no_drop_in_its_rounds_churns_until_one() {
        // The host campaign's event-chaos seed at half scale, offset 18:
        // its six rounds drop nothing.
        Run::of(run_event_chaos(0x1fe6_8f0a_f3fc_4694, 6)).assert_claims(&event_chaos_claims);
    }

    #[test]
    fn simulation_scenarios_replay_bit_identically() {
        // Compared once more outside the campaign: guards against
        // accidental global state sneaking into SimHost.
        assert_eq!(run_event_chaos(7, 8), run_event_chaos(7, 8));
    }
}

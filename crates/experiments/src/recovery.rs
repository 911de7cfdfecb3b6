//! Crash-safe recovery and overload-protection campaign.
//!
//! The robustness claims the journaled warm restart and the admission
//! layer make are asserted here, seeded and replay-checked on the
//! [`crate::campaign`] harness:
//!
//! * **warm restart** — the monitor daemon crashes mid-scenario (a
//!   [`arv_sim_core::FaultPlan`] crash window) and restarts from its
//!   append-only journal. The first views served after the restart must
//!   be the reconciled last-good state, never the cold lower bounds,
//!   and the attached daemon must walk back to Fresh within a bounded
//!   number of ticks (measured by its own recovery-latency histogram).
//! * **torn journal** — the journal "file" is truncated at arbitrary
//!   seeded offsets, plus two deterministic tears (mid-header and
//!   mid-final-record). Every restore must land on a valid prefix
//!   state: no panic, views inside their Algorithm 1 bounds, cold
//!   resync only when the checkpoint itself is torn, and the intact
//!   bytes must reproduce the exact crash-time views.
//! * **client flood** — greedy wire clients burn their per-connection
//!   token budget and keep hammering. Over-budget tier-2 requests get
//!   `OK_SHED` with the server's retry-after hint while cached-
//!   generation reads keep flowing at full service, the update timer
//!   underneath never misses a tick, and the cached-hit p99 stays
//!   inside the serving budget.

use arv_cgroups::CgroupId;
use arv_container::{ContainerSpec, SimHost};
use arv_resview::Sysconf;
use arv_sim_core::{FaultConfig, FaultPlan};
use arv_viewd::{RetryPolicy, ServerConfig, ViewServer, WireClient, WireServer, KIND_STATS};

use crate::campaign::{out_of_bounds, paper_container, rows, step_busy, Campaign, Run, Scenario};
use crate::report::FigReport;

/// The two campaign seeds (distinct from the chaos campaign's, so the
/// suites never share a lucky constant).
const SEEDS: [u64; 2] = [0xC0FFEE, 0xB007ED];

/// Update-timer firings that grow the busy container to its quota
/// before any fault is injected.
const GROW_STEPS: u32 = 50;

/// Ticks allowed between the warm restart and the daemon's first
/// Fresh-health serve.
const RECOVERY_TO_FRESH_BOUND: u64 = 2;

/// Per-connection token-bucket burst in the flood scenario; refill is
/// zero so the burst is all a connection ever gets (deterministic).
const RATE_BURST: u32 = 4;

/// Over-budget requests each flooding client sends past its burst —
/// every one of them must be shed.
const FLOOD_REQUESTS_OVER: u32 = 16;

/// Budget for the cached-hit p99 under flood, nanoseconds. The paper
/// prices a full view query at ~5 µs (§5.4); a cached hit must stay
/// well under that even while the daemon is shedding.
const HIT_P99_BUDGET_NS: u64 = 5_000_000;

fn paper_spec(tag: impl std::fmt::Display) -> ContainerSpec {
    paper_container(format!("recovery-{tag}"))
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

// --- scenario 1: crash window + warm restart ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CrashOutcome {
    downtime_ticks: u64,
    pre_crash_cpus: u64,
    floor_cpus: u64,
    post_restart_cpus: u64,
    restored_plus_reconciled: u64,
    dropped: u64,
    truncated_records: u64,
    ticks_to_fresh: u64,
    recovery_latency_p99_ticks: u64,
    viewd_reconciled: u64,
    missed_ticks: u64,
    resyncs: u64,
}

fn run_crash_restart(seed: u64) -> CrashOutcome {
    let mut host = SimHost::paper_testbed();
    let server = ViewServer::new(host.viewd_host_spec(), 4);
    host.attach_viewd(server.clone());
    host.enable_journal(4);
    let ids: Vec<CgroupId> = (0..5).map(|i| host.launch(&paper_spec(i))).collect();

    // Only c0 runs: its view climbs from the all-busy fair share to the
    // 10-core quota, so restored-state and cold-floor answers differ.
    for _ in 0..GROW_STEPS {
        step_busy(&mut host, &ids[..1], 20);
    }
    let client = server.client();
    let pre_crash_cpus = client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln);
    let floor_cpus = u64::from(
        host.monitor()
            .namespace(ids[0])
            .expect("namespace exists")
            .cpu_bounds()
            .lower,
    );

    // Seed-flavoured downtime, always at least two missed deadlines.
    let downtime = 2 + seed % 3;
    let crash_start = host.now_tick() + 1;
    host.set_fault_plan(FaultPlan::new(
        seed,
        FaultConfig {
            crash_at: Some((crash_start, downtime)),
            ..FaultConfig::quiet()
        },
    ));
    let restart_tick = crash_start + downtime;
    let mut ticks_to_fresh = u64::MAX;
    for _ in 0..downtime + 3 {
        step_busy(&mut host, &ids[..1], 20);
        if host.now_tick() >= restart_tick && ticks_to_fresh == u64::MAX {
            // The query is what closes the daemon's recovery-latency
            // histogram: first Fresh-health serve after note_restore.
            let _ = client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln);
            if client.health(Some(ids[0])).is_fresh() {
                ticks_to_fresh = host.now_tick() - restart_tick;
            }
        }
    }

    let ev = host
        .last_restore()
        .expect("crash window fired a warm restart")
        .clone();
    let outcome = ev.outcome.expect("journal held a valid checkpoint");
    let m = server.metrics();
    let w = host.watchdog_stats();
    CrashOutcome {
        downtime_ticks: downtime,
        pre_crash_cpus,
        floor_cpus,
        post_restart_cpus: client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln),
        restored_plus_reconciled: (outcome.restored + outcome.reconciled) as u64,
        dropped: outcome.dropped as u64,
        truncated_records: ev.report.truncated_records,
        ticks_to_fresh,
        recovery_latency_p99_ticks: m.recovery_latency_p99,
        viewd_reconciled: m.restore_reconciled_containers,
        missed_ticks: w.missed_ticks,
        resyncs: w.resyncs,
    }
}

fn assert_crash(out: &CrashOutcome, seed: u64) {
    assert!(
        out.pre_crash_cpus > out.floor_cpus,
        "seed {seed:#x}: scenario must distinguish grown views from the floor"
    );
    assert_eq!(
        out.post_restart_cpus, out.pre_crash_cpus,
        "seed {seed:#x}: first-served views after restart must be the \
         journaled last-good state, not the cold floor"
    );
    assert_eq!(
        out.restored_plus_reconciled, 5,
        "seed {seed:#x}: every container recovered from the checkpoint"
    );
    assert_eq!(out.dropped, 0, "seed {seed:#x}");
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
        out.missed_ticks, out.downtime_ticks,
        "seed {seed:#x}: the crash window misses exactly its deadlines"
    );
    assert!(
        out.resyncs >= 1,
        "seed {seed:#x}: restart counts a recovery"
    );
}

// --- scenario 2: torn journal ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TornOutcome {
    cuts: u64,
    warm_restores: u64,
    cold_restores: u64,
    truncated_records: u64,
    bound_violations: u64,
    exact_matches: u64,
    full_restore_truncated: u64,
}

fn run_torn_journal(seed: u64, cuts: u32) -> TornOutcome {
    let mut host = SimHost::paper_testbed();
    let ids: Vec<CgroupId> = (0..5).map(|i| host.launch(&paper_spec(i))).collect();
    for _ in 0..GROW_STEPS {
        step_busy(&mut host, &ids[..1], 20);
    }
    // Checkpoint the grown state, then shift demand to the other four:
    // c0's view decays tick by tick, so every delta in the tail differs
    // and different cut depths restore different (valid) states.
    host.enable_journal(1 << 20);
    for _ in 0..10 {
        step_busy(&mut host, &ids[1..], 20);
    }
    let bytes = host.journal_bytes().expect("journaling enabled").to_vec();
    // The monitor's own views, which a restore must reproduce.
    let e_cpu = |host: &SimHost, id: CgroupId| {
        host.monitor()
            .namespace(id)
            .expect("namespace exists")
            .effective_cpu()
    };
    let pre: Vec<u32> = ids.iter().map(|id| e_cpu(&host, *id)).collect();

    // Two deterministic tears — mid-header (kills the checkpoint, forces
    // the cold path) and mid-final-record (classic torn tail) — plus
    // seeded arbitrary offsets.
    let mut offsets: Vec<usize> = vec![5, bytes.len() - 7];
    let mut rng = seed | 1;
    for _ in 0..cuts {
        rng = xorshift(rng);
        offsets.push(8 + (rng as usize % (bytes.len() - 8)));
    }

    let mut warm = 0u64;
    let mut cold = 0u64;
    let mut truncated = 0u64;
    let mut violations = 0u64;
    for cut in &offsets {
        let ev = host.restore_from(&bytes[..*cut]);
        truncated += ev.report.truncated_records;
        if ev.outcome.is_some() {
            warm += 1;
        } else {
            cold += 1;
        }
        for id in &ids {
            // A restore that lost a namespace is a violation too.
            violations += u64::from(out_of_bounds(&host, *id).unwrap_or(true));
        }
    }

    // The intact bytes must reproduce the exact crash-time views.
    let full = host.restore_from(&bytes);
    let exact_matches = ids
        .iter()
        .zip(&pre)
        .filter(|(id, p)| e_cpu(&host, **id) == **p)
        .count() as u64;
    TornOutcome {
        cuts: offsets.len() as u64,
        warm_restores: warm,
        cold_restores: cold,
        truncated_records: truncated,
        bound_violations: violations,
        exact_matches,
        full_restore_truncated: full.report.truncated_records,
    }
}

fn assert_torn(out: &TornOutcome, seed: u64) {
    assert_eq!(
        out.bound_violations, 0,
        "seed {seed:#x}: a torn restore pushed views outside their bounds"
    );
    assert_eq!(
        out.warm_restores + out.cold_restores,
        out.cuts,
        "seed {seed:#x}: every truncation must restore, never panic"
    );
    assert!(
        out.warm_restores >= 1,
        "seed {seed:#x}: the torn-tail cut must still salvage the checkpoint"
    );
    assert!(
        out.cold_restores >= 1,
        "seed {seed:#x}: the mid-header cut must force the cold path"
    );
    assert!(
        out.truncated_records >= 1,
        "seed {seed:#x}: campaign tore no frames — nothing was tested"
    );
    assert_eq!(
        out.exact_matches, 5,
        "seed {seed:#x}: intact journal must reproduce the exact crash-time views"
    );
    assert_eq!(out.full_restore_truncated, 0, "seed {seed:#x}");
}

// --- scenario 3: client flood ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FloodOutcome {
    flood_clients: u64,
    flood_sheds: u64,
    server_requests_shed: u64,
    reader_cached_ok: u64,
    reader_miss_shed: u64,
    retry_after_ms: u64,
    missed_ticks: u64,
    connections_dropped: u64,
    conns_evicted_slow: u64,
}

fn run_flood(seed: u64, replay: u32, clients: u32) -> Run<FloodOutcome> {
    let mut host = SimHost::paper_testbed();
    let ids: Vec<CgroupId> = (0..3).map(|i| host.launch(&paper_spec(i))).collect();
    let server = ViewServer::new(host.viewd_host_spec(), 4);
    host.attach_viewd(server.clone());
    for _ in 0..30 {
        step_busy(&mut host, &ids[..1], 20);
    }

    let socket = std::env::temp_dir().join(format!(
        "arv-recovery-{}-{seed:x}-{replay}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&socket);
    let config = ServerConfig {
        max_connections: clients as usize + 4,
        rate_burst: RATE_BURST,
        rate_refill_per_sec: 0.0,
        retry_after_ms: 5 + seed % 16,
        ..ServerConfig::default()
    };
    let wire =
        WireServer::spawn_with_config(server.clone(), &socket, config).expect("spawn wire server");

    // One attempt per request: every shed reaches the caller as it
    // happened, so the shed counts below are exact.
    let one_attempt = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };

    // Well-behaved reader: spend the burst priming one image, then keep
    // re-reading it while over budget — cached-generation reads are
    // tier-1 traffic and must never be shed.
    let mut reader = WireClient::new(&socket, one_attempt.clone());
    for _ in 0..RATE_BURST {
        let r = reader
            .read(Some(ids[0]), "/proc/cpuinfo")
            .expect("wire up")
            .expect("registered");
        assert!(!r.shed, "within-burst request shed");
    }
    let mut reader_cached_ok = 0u64;
    for _ in 0..8 {
        let r = reader
            .read(Some(ids[0]), "/proc/cpuinfo")
            .expect("wire up")
            .expect("registered");
        if !r.shed && !r.degraded && !r.body.is_empty() {
            reader_cached_ok += 1;
        }
    }
    // Over budget AND a render miss: tier-2, refused with the hint.
    let miss = reader
        .read(Some(ids[0]), "/proc/meminfo")
        .expect("wire up")
        .expect("shed responses still carry a frame");
    let reader_miss_shed = u64::from(miss.shed);
    let retry_after_ms = miss.retry_after_ms;

    // The flood: each greedy client burns its burst on the stats
    // exposition then keeps hammering, while the update timer keeps
    // firing underneath. Per-connection token accounting makes the shed
    // count exact regardless of thread interleaving.
    let flood_sheds: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (path, policy) = (socket.clone(), one_attempt.clone());
                s.spawn(move || {
                    let mut c = WireClient::new(&path, policy);
                    let mut sheds = 0u64;
                    for _ in 0..RATE_BURST + FLOOD_REQUESTS_OVER {
                        let r = c
                            .request(KIND_STATS, None, "")
                            .expect("flood request")
                            .expect("stats always answers");
                        if r.shed {
                            sheds += 1;
                        }
                    }
                    sheds
                })
            })
            .collect();
        for _ in 0..10 {
            step_busy(&mut host, &ids[..1], 20);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("flood thread"))
            .sum()
    });
    wire.shutdown();
    let _ = std::fs::remove_file(&socket);

    let m = server.metrics();
    let w = host.watchdog_stats();
    Run::timed(
        FloodOutcome {
            flood_clients: u64::from(clients),
            flood_sheds,
            server_requests_shed: m.requests_shed,
            reader_cached_ok,
            reader_miss_shed,
            retry_after_ms,
            missed_ticks: w.missed_ticks,
            connections_dropped: m.connections_dropped,
            conns_evicted_slow: m.conns_evicted_slow,
        },
        "cached_hit_p99_ns",
        m.hit_p99_ns as f64,
    )
}

fn assert_flood(out: &FloodOutcome, hit_p99_ns: u64, seed: u64) {
    assert_eq!(
        out.flood_sheds,
        out.flood_clients * u64::from(FLOOD_REQUESTS_OVER),
        "seed {seed:#x}: every over-budget flood request must be shed"
    );
    assert_eq!(
        out.server_requests_shed,
        out.flood_sheds + out.reader_miss_shed,
        "seed {seed:#x}: server-side shed accounting must be exact"
    );
    assert_eq!(
        out.reader_cached_ok, 8,
        "seed {seed:#x}: cached-generation reads were shed under pressure"
    );
    assert_eq!(
        out.reader_miss_shed, 1,
        "seed {seed:#x}: a pressured render miss must be refused"
    );
    assert_eq!(
        out.retry_after_ms,
        5 + seed % 16,
        "seed {seed:#x}: shed responses must carry the server's hint"
    );
    assert_eq!(
        out.missed_ticks, 0,
        "seed {seed:#x}: the flood must never cost the update timer a tick"
    );
    assert_eq!(out.connections_dropped, 0, "seed {seed:#x}");
    assert_eq!(out.conns_evicted_slow, 0, "seed {seed:#x}");
    assert!(
        hit_p99_ns < HIT_P99_BUDGET_NS,
        "seed {seed:#x}: cached-hit p99 {hit_p99_ns} ns blew the \
         {HIT_P99_BUDGET_NS} ns budget under flood"
    );
}

// --- the campaign ---

/// Run the recovery campaign and produce its report. Panics (on
/// purpose) if any crash-safety or overload invariant, or the
/// same-seed replay check, fails.
pub fn run(scale: f64, seed_offset: u64) -> FigReport {
    let cuts = ((8.0 * scale) as u32).clamp(3, 16);
    let clients = ((6.0 * scale) as u32).clamp(2, 8);
    let mut campaign = Campaign::new(
        "recovery",
        "crash-safe warm restart from the view journal + admission-controlled serving under flood",
        &SEEDS,
        seed_offset,
    );

    campaign.scenario(Scenario {
        name: "warm_restart",
        run: &|seed, _| Run::of(run_crash_restart(seed)),
        check: &|run, seed| assert_crash(&run.outcome, seed),
        rows: rows!(
            downtime_ticks,
            pre_crash_cpus,
            floor_cpus,
            post_restart_cpus,
            restored_plus_reconciled,
            ticks_to_fresh,
            recovery_latency_p99_ticks,
            viewd_reconciled,
            missed_ticks,
            resyncs
        ),
    });
    campaign.scenario(Scenario {
        name: "torn_journal",
        run: &|seed, _| Run::of(run_torn_journal(seed, cuts)),
        check: &|run, seed| assert_torn(&run.outcome, seed),
        rows: rows!(
            cuts,
            warm_restores,
            cold_restores,
            truncated_records,
            bound_violations,
            exact_matches
        ),
    });
    let floods = campaign.scenario(Scenario {
        name: "client_flood",
        run: &|seed, replay| run_flood(seed, replay, clients),
        check: &|run, seed| assert_flood(&run.outcome, run.wall_value() as u64, seed),
        rows: rows!(
            flood_clients,
            flood_sheds,
            server_requests_shed,
            reader_cached_ok,
            retry_after_ms,
            missed_ticks
        ),
    });

    campaign.report.note(format!(
        "restart serves the reconciled journal state (never the cold floor), Fresh within \
         {RECOVERY_TO_FRESH_BOUND} ticks of the restart"
    ));
    campaign.report.note(format!(
        "{} arbitrary journal truncations per seed: prefix-consistent restores, zero bound \
         violations, intact bytes replay the exact crash-time views",
        cuts + 2
    ));
    campaign.report.note(format!(
        "{clients} flooding clients: over-budget requests shed with a retry-after hint while \
         cached-hit reads flow (p99 {} / {} ns) and the update timer misses no ticks",
        floods[0].wall_value(),
        floods[1].wall_value()
    ));
    campaign.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::seed_label;

    #[test]
    fn recovery_campaign_passes_and_reports() {
        let rep = run(0.5, 0);
        assert_eq!(rep.tables.len(), 4);
        let crash = &rep.tables[0];
        for col in [seed_label(SEEDS[0]), seed_label(SEEDS[1])] {
            assert_eq!(crash.get("restored_plus_reconciled", &col), Some(5.0));
            assert_eq!(
                crash.get("post_restart_cpus", &col),
                crash.get("pre_crash_cpus", &col)
            );
        }
        let det = &rep.tables[3];
        assert_eq!(det.get("client_flood", "replays_identical"), Some(1.0));
    }

    #[test]
    fn simulation_scenarios_replay_bit_identically() {
        // Pure-simulation scenarios compared once more outside run():
        // guards against accidental global state sneaking into SimHost
        // or the journal encoding.
        assert_eq!(run_crash_restart(7), run_crash_restart(7));
        assert_eq!(run_torn_journal(11, 4), run_torn_journal(11, 4));
    }
}

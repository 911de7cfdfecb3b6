//! The journal and the admission layer under stress, two scenarios of
//! the `host` campaign ([`crate::host`]); the warm restart itself runs
//! in the host campaign's testbed:
//!
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
use arv_sim_core::SimRng;
use arv_viewd::{RetryPolicy, ServerConfig, ViewServer, WireClient, WireServer, KIND_STATS};

use crate::campaign::{out_of_bounds, paper_container, rows, step_busy, Campaign, Run, Scenario};

/// Update-timer firings that grow the busy container to its quota
/// before the journal tail is written.
const GROW_STEPS: u32 = 50;

/// Per-connection token-bucket burst in the flood scenario; refill is
/// zero so the burst is all a connection ever gets (deterministic).
const RATE_BURST: u32 = 4;

/// Over-budget requests each flooding client sends past its burst —
/// every one of them must be shed.
const FLOOD_REQUESTS_OVER: u32 = 16;

/// Budget for the cached-hit p99 under flood, nanoseconds, judged at
/// the better of a seed's two replays. The paper prices a full view
/// query at ~5 µs (§5.4); a cached hit must stay well under that even
/// while the daemon is shedding.
const HIT_P99_BUDGET_NS: u64 = 5_000_000;

fn paper_spec(tag: impl std::fmt::Display) -> ContainerSpec {
    paper_container(format!("recovery-{tag}"))
}

// --- torn journal ---

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
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..cuts {
        offsets.push(rng.range_u64(8, bytes.len() as u64) as usize);
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

// --- client flood ---

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

/// Run both scenarios on `campaign`; `scale` sizes the cut count and
/// the flood.
pub(crate) fn scenarios(campaign: &mut Campaign, scale: f64) {
    let cuts = ((8.0 * scale) as u32).clamp(3, 16);
    let clients = ((6.0 * scale) as u32).clamp(2, 8);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_campaign_passes_and_reports() {
        // The host campaign's recovery share alone, at seed offset 2:
        // seeds its offsets 0 and 1 do not run, and flood sockets apart
        // from its.
        let rep = Campaign::alone(&crate::host::SEEDS, 2, |c| scenarios(c, 0.5));
        let (torn, flood) = (rep.table("torn_journal"), rep.table("client_flood"));
        for col in &torn.columns {
            assert_eq!(torn.get("bound_violations", col), Some(0.0));
            assert_eq!(torn.get("exact_matches", col), Some(5.0));
            assert_eq!(flood.get("reader_cached_ok", col), Some(8.0));
            assert_eq!(flood.get("missed_ticks", col), Some(0.0));
        }
    }

    #[test]
    fn simulation_scenarios_replay_bit_identically() {
        // Compared once more outside the campaign: guards against
        // accidental global state sneaking into SimHost or the journal
        // encoding.
        assert_eq!(run_torn_journal(11, 4), run_torn_journal(11, 4));
    }
}

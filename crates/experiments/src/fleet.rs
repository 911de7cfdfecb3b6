//! Fleet control-plane campaign: core↔periphery aggregation at scale,
//! under partitions, lagging hosts, and controller failover.
//!
//! Four scenarios, seeded and replay-checked on the
//! [`crate::campaign`] harness:
//!
//! * **scale** — a synthetic fleet (1000 hosts × 100 containers at full
//!   scale) streams seeded view churn through peripheries into one
//!   [`arv_fleet::FleetController`]. At every aggregation tick the
//!   cluster capacity rollup must equal the driver's ground-truth sums
//!   exactly (CPU, memory, available, container count, per-tenant), a
//!   mid-campaign policy bump must reach every periphery via ACK
//!   piggyback, and each full round of ingest must finish inside one
//!   update-timer period.
//! * **faults** — real [`arv_container::SimHost`]s with attached
//!   peripheries drive the controller while a
//!   [`arv_sim_core::FaultPlan`] injects the fleet faults: a
//!   partitioned periphery (frames dropped for the window, its
//!   last-good contribution served degraded, the sequence gap healed by
//!   a FULL resync exactly like the single-host watchdog), a lagging
//!   host (frames delayed but in order — no gap, eventual
//!   consistency), and a controller crash mid-run (a replacement
//!   restores the `arv-persist` journal prefix-consistently, serves
//!   every host last-good, and is healed back to Fresh rollups by
//!   periphery resyncs).
//!
//! * **failover** — a *replicated* pair: the primary streams accepted
//!   records to a hot standby over REPL while both contend on a shared
//!   lease. Mid-storm the primary is killed (with a replication-lag
//!   window ensuring un-shipped records die with it); the standby
//!   promotes itself once the lease expires, peripheries walk to it,
//!   and every host must converge back to Fresh with rollups equal to
//!   ground truth. The promoted leader also tightens `rate_burst`, so
//!   the enforced periphery token bucket must coalesce (never drop).
//! * **splitbrain** — the primary's lease renewals stall while it keeps
//!   serving; the standby takes over at expiry and the two leaders
//!   briefly coexist. Epoch fencing must win: the standby fences the
//!   stale primary's REPL frames (its higher-epoch ACK demotes the
//!   impostor), a late stale ACK duplicated to a periphery is fenced
//!   without mutating state, and the deposed primary rejoins as a
//!   standby mirroring the new leader.

use arv_fleet::{AckDisposition, FleetController, FleetPolicy, Periphery};
use arv_sim_core::{FaultConfig, FaultPlan, SimRng};

use crate::campaign::{
    churn_demands, churn_view, fleet_hosts, ground_truth, periphery_total, pump_repl,
    replicated_pair, rows, snapshot_at, synthetic_views, take_ack, Campaign, FaultyLinks, Run,
    Scenario,
};
use crate::report::FigReport;

/// Campaign seeds (distinct from the chaos and recovery suites).
const SEEDS: [u64; 2] = [0xF1EE7, 0xA66AE6];

/// The paper's update-timer period is 100 ms; a full fleet ingest round
/// (every host's frames applied plus one aggregation tick) must fit
/// inside it or the controller can never keep up in steady state.
const TICK_PERIOD_MS: f64 = 100.0;

/// Aggregation rounds in the scale scenario.
const SCALE_ROUNDS: u32 = 8;

/// Tenants the scale fleet spreads hosts across.
const TENANTS: u32 = 8;

/// Real hosts in the faults scenario.
const FAULT_HOSTS: u32 = 6;

/// Fault-free epilogue rounds that let resyncs heal everything.
const HEAL_ROUNDS: u32 = 12;

// --- scenario 1: synthetic fleet at scale ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScaleOutcome {
    hosts: u64,
    containers: u64,
    rounds: u64,
    rollup_mismatches: u64,
    tenant_mismatches: u64,
    deltas_ingested: u64,
    delta_entries: u64,
    full_syncs: u64,
    policy_adoptions: u64,
    partitioned_final: u64,
    topk_head_pressure: u64,
}

fn run_scale(seed: u64, hosts: u32, containers: u32) -> Run<ScaleOutcome> {
    let mut ctl = FleetController::new(64, FleetPolicy::default());
    let mut rng = SimRng::seed_from_u64(seed);

    // Ground truth lives in the driver; the controller must reproduce
    // its sums from deltas alone.
    let mut truth = synthetic_views(&mut rng, hosts, containers);
    let mut peripheries: Vec<Periphery> = (0..hosts)
        .map(|h| {
            let mut p = Periphery::new(h);
            for c in 0..containers {
                p.set_tenant(c, h % TENANTS);
            }
            p
        })
        .collect();

    let mut mismatches = 0u64;
    let mut tenant_mismatches = 0u64;
    let mut max_round_ms = 0.0f64;
    for round in 0..SCALE_ROUNDS {
        // Seeded churn: every host flips a few containers to new values
        // (the cpu map never restores the old value within a round, so
        // each host ships at least one delta frame per round).
        for host in truth.iter_mut() {
            let changes = 1 + rng.range_u64(0, 7) as usize;
            for _ in 0..changes {
                churn_view(host, &mut rng);
            }
        }

        let start = std::time::Instant::now();
        for (h, p) in peripheries.iter_mut().enumerate() {
            p.observe(&snapshot_at(u64::from(round) + 1, &truth[h]), false, 0);
            for frame in p.take_frames() {
                if let Some(resp) = ctl.handle_frame(&frame) {
                    if let Some(arv_fleet::Frame::Ack(ack)) = arv_fleet::decode_frame(&resp) {
                        p.handle_ack(&ack);
                    }
                }
            }
        }
        ctl.advance_tick();
        max_round_ms = max_round_ms.max(start.elapsed().as_secs_f64() * 1000.0);

        // Checkpoint: the rollup must equal ground truth exactly.
        let r = ctl.cluster_capacity();
        let (mut cpu, mut mem, mut avail) = (0u64, 0u64, 0u64);
        for host in &truth {
            for t in host {
                cpu += u64::from(t.e_cpu);
                mem += t.e_mem;
                avail += t.e_avail;
            }
        }
        if (r.cpu, r.mem, r.avail, r.containers, u64::from(r.hosts))
            != (
                cpu,
                mem,
                avail,
                u64::from(hosts) * u64::from(containers),
                u64::from(hosts),
            )
        {
            mismatches += 1;
        }
        for tenant in 0..TENANTS {
            let (t, degraded) = ctl.tenant_rollup(tenant);
            let mut want = 0u64;
            for (h, host) in truth.iter().enumerate() {
                if h as u32 % TENANTS == tenant {
                    want += host.iter().map(|t| u64::from(t.e_cpu)).sum::<u64>();
                }
            }
            if t.cpu != want || degraded {
                tenant_mismatches += 1;
            }
        }

        // Mid-campaign policy bump: the next round's ACKs must carry it
        // to every periphery.
        if round == SCALE_ROUNDS / 2 {
            ctl.set_policy(5, 128, 1 << 12);
        }
    }

    let top = ctl.top_pressured(10);
    let m = ctl.metrics().snapshot();
    Run::timed(
        ScaleOutcome {
            hosts: u64::from(hosts),
            containers: u64::from(hosts) * u64::from(containers),
            rounds: u64::from(SCALE_ROUNDS),
            rollup_mismatches: mismatches,
            tenant_mismatches,
            deltas_ingested: m.deltas_ingested,
            delta_entries: m.delta_entries,
            full_syncs: m.full_syncs,
            policy_adoptions: peripheries.iter().filter(|p| p.policy().epoch == 1).count() as u64,
            partitioned_final: u64::from(ctl.cluster_capacity().partitioned),
            topk_head_pressure: top
                .first()
                .map(|p| u64::from(p.pressure_milli))
                .unwrap_or(0),
        },
        "max_round_ms",
        max_round_ms,
    )
}

fn assert_scale(out: &ScaleOutcome, max_round_ms: f64, seed: u64) {
    assert_eq!(
        out.rollup_mismatches, 0,
        "seed {seed:#x}: capacity rollup diverged from ground truth"
    );
    assert_eq!(
        out.tenant_mismatches, 0,
        "seed {seed:#x}: tenant rollup diverged from ground truth"
    );
    assert_eq!(
        out.deltas_ingested,
        out.hosts * out.rounds,
        "seed {seed:#x}: every host ships exactly one delta frame per round"
    );
    assert_eq!(
        out.full_syncs, out.hosts,
        "seed {seed:#x}: exactly one FULL snapshot per host (first attach)"
    );
    assert_eq!(
        out.policy_adoptions, out.hosts,
        "seed {seed:#x}: the policy bump must reach every periphery"
    );
    assert_eq!(out.partitioned_final, 0, "seed {seed:#x}");
    assert!(
        out.topk_head_pressure <= 1000,
        "seed {seed:#x}: pressure is a per-mille"
    );
    assert!(
        max_round_ms < TICK_PERIOD_MS,
        "seed {seed:#x}: a full ingest round took {max_round_ms:.1} ms — \
         the controller cannot keep up with a {TICK_PERIOD_MS} ms timer"
    );
}

// --- scenario 2: fleet faults on real hosts ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultsOutcome {
    hosts: u64,
    partition_frames_dropped: u64,
    lag_frames_delayed: u64,
    gap_resyncs: u64,
    periphery_resyncs: u64,
    full_syncs: u64,
    partition_transitions: u64,
    degraded_rounds: u64,
    post_restore_partitioned: u64,
    final_partitioned: u64,
    final_cpu: u64,
    final_containers: u64,
    truth_cpu: u64,
    truth_containers: u64,
}

fn run_faults(seed: u64, rounds: u32) -> FaultsOutcome {
    let plan = FaultPlan::new(
        seed,
        FaultConfig {
            partition_at: Some((4, 6)),
            lag_ticks: 2,
            controller_crash_at: Some((14, 2)),
            ..FaultConfig::quiet()
        },
    );
    let mut rng = SimRng::seed_from_u64(seed ^ 0xF1EE7);
    let (mut hosts, ids) = fleet_hosts("fleet", FAULT_HOSTS);

    let mut ctl = FleetController::new(8, FleetPolicy::default());
    ctl.enable_journal(2);

    let mut degraded_rounds = 0u64;
    let mut post_restore_partitioned = 0u64;
    let mut crashed = false;
    let mut links = FaultyLinks::default();

    let total = rounds + HEAL_ROUNDS;
    for round in 0..u64::from(total) {
        let healing = round >= u64::from(rounds);

        // Controller crash: a replacement restores the journal prefix
        // and re-journals; every host starts last-good + needs-resync.
        if !crashed && plan.controller_crashed(round) {
            let bytes = ctl.journal_bytes().expect("journal enabled");
            ctl = FleetController::restore_from(&bytes, 8, ctl.policy())
                .expect("a controller journal");
            ctl.enable_journal(2);
            post_restore_partitioned = u64::from(ctl.cluster_capacity().partitioned);
            crashed = true;
        }

        for (h, host) in hosts.iter_mut().enumerate() {
            host.step(&churn_demands(host, &ids[h], healing, &mut rng));

            let frames = host.take_fleet_frames();
            for frame in links.route(&plan, h, round, healing, frames) {
                if let Some(resp) = ctl.handle_frame(&frame) {
                    host.deliver_fleet_ack(&resp);
                }
            }
        }

        ctl.advance_tick();
        if ctl.cluster_capacity().degraded() {
            degraded_rounds += 1;
        }
    }

    // Ground truth: exactly what the peripheries shipped.
    let (truth_cpu, truth_containers) = ground_truth(&hosts);

    let r = ctl.cluster_capacity();
    let m = ctl.metrics().snapshot();
    FaultsOutcome {
        hosts: u64::from(FAULT_HOSTS),
        partition_frames_dropped: links.dropped,
        lag_frames_delayed: links.delayed,
        gap_resyncs: m.deltas_gap_resyncs,
        periphery_resyncs: periphery_total(&hosts, |s| s.resyncs),
        full_syncs: m.full_syncs,
        partition_transitions: m.hosts_partitioned,
        degraded_rounds,
        post_restore_partitioned,
        final_partitioned: u64::from(r.partitioned),
        final_cpu: r.cpu,
        final_containers: r.containers,
        truth_cpu,
        truth_containers,
    }
}

fn assert_faults(out: &FaultsOutcome, seed: u64) {
    assert!(
        out.partition_frames_dropped >= 1,
        "seed {seed:#x}: the partition window dropped nothing — untested"
    );
    assert!(
        out.lag_frames_delayed >= 1,
        "seed {seed:#x}: the lagging host delayed nothing — untested"
    );
    assert!(
        out.gap_resyncs >= 1,
        "seed {seed:#x}: dropped frames must surface as a sequence gap"
    );
    assert!(
        out.periphery_resyncs >= 1,
        "seed {seed:#x}: the gap must drive at least one FULL resync"
    );
    assert!(
        out.degraded_rounds >= 1,
        "seed {seed:#x}: partition or failover must flag rollups degraded"
    );
    assert_eq!(
        out.post_restore_partitioned, out.hosts,
        "seed {seed:#x}: a restored controller serves every host last-good"
    );
    assert_eq!(
        out.final_partitioned, 0,
        "seed {seed:#x}: the heal epilogue must clear every partition flag"
    );
    assert_eq!(
        (out.final_cpu, out.final_containers),
        (out.truth_cpu, out.truth_containers),
        "seed {seed:#x}: healed rollups must equal per-host ground truth"
    );
}

// --- scenario 3: replicated controllers, primary killed mid-storm ---

/// Lease TTL in controller ticks: a dead primary's lease expires (and a
/// standby may promote) at most this many ticks after its last renewal.
const LEASE_TTL: u64 = 2;

/// The `rate_burst` the promoted leader pushes: small enough that a
/// steady periphery diff outruns the bucket, so enforced backpressure
/// (coalescing) is actually exercised.
const TIGHT_BURST: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FailoverOutcome {
    hosts: u64,
    kill_tick: u64,
    ticks_to_promote: u64,
    ticks_to_fresh: u64,
    repl_backlog_at_kill: u64,
    repl_records_applied: u64,
    promotions: u64,
    not_leader_rejects: u64,
    deltas_coalesced: u64,
    periphery_failovers: u64,
    final_epoch: u64,
    final_partitioned: u64,
    final_cpu: u64,
    final_containers: u64,
    truth_cpu: u64,
    truth_containers: u64,
}

fn run_failover(seed: u64, rounds: u32) -> FailoverOutcome {
    let kill = u64::from(rounds) / 2;
    let plan = FaultPlan::new(
        seed,
        FaultConfig {
            // The primary never comes back — this is a kill, not the
            // journal warm-restart the faults scenario covers.
            primary_crash_at: Some((kill, u64::MAX / 2)),
            // Replication stalls just before the kill so records die
            // un-shipped with the primary: the standby must converge
            // from periphery FULLs, not from a complete stream.
            repl_lag_at: Some((kill.saturating_sub(3), 3)),
            ..FaultConfig::quiet()
        },
    );
    let mut rng = SimRng::seed_from_u64(seed ^ 0xFA17);
    let (mut hosts, ids) = fleet_hosts("failover", FAULT_HOSTS);

    let (primary, mut standby) = replicated_pair(8, LEASE_TTL);

    let mut killed = false;
    let mut kill_tick = 0u64;
    let mut backlog_at_kill = 0u64;
    let mut promote_tick: Option<u64> = None;
    let mut fresh_tick: Option<u64> = None;

    let total = rounds + HEAL_ROUNDS;
    for round in 0..u64::from(total) {
        let healing = round >= u64::from(rounds);

        if !killed && plan.primary_crashed(round) {
            killed = true;
            kill_tick = round;
            // Whatever the lag window queued dies with the primary;
            // peripheries re-HELLO at the standby.
            backlog_at_kill = primary.repl_backlog_records();
            for host in hosts.iter_mut() {
                if let Some(p) = host.periphery_mut() {
                    p.on_reconnect();
                }
            }
        }

        for (h, host) in hosts.iter_mut().enumerate() {
            host.step(&churn_demands(host, &ids[h], healing, &mut rng));
            let target = if killed { &standby } else { &primary };
            for frame in host.take_fleet_frames() {
                if let Some(resp) = target.handle_frame(&frame) {
                    host.deliver_fleet_ack(&resp);
                }
            }
        }

        if !killed {
            primary.advance_tick();
            if !plan.repl_lagged(round) {
                pump_repl(&primary, &standby);
            }
        }
        standby.advance_tick();
        if killed {
            if promote_tick.is_none() && standby.is_leader() {
                promote_tick = Some(round);
                // The new leader tightens the burst: from here on the
                // peripheries' enforced token bucket must coalesce.
                standby.set_policy(3, 256, TIGHT_BURST);
            }
            if promote_tick.is_some() && fresh_tick.is_none() {
                let r = standby.cluster_capacity();
                if r.partitioned == 0 && u64::from(r.hosts) == u64::from(FAULT_HOSTS) {
                    fresh_tick = Some(round);
                }
            }
        }
    }

    let (truth_cpu, truth_containers) = ground_truth(&hosts);
    let r = standby.cluster_capacity();
    let m = standby.metrics().snapshot();
    let promote = promote_tick.unwrap_or(u64::MAX);
    FailoverOutcome {
        hosts: u64::from(FAULT_HOSTS),
        kill_tick,
        ticks_to_promote: promote.saturating_sub(kill_tick),
        ticks_to_fresh: fresh_tick.map_or(u64::MAX, |f| f.saturating_sub(promote)),
        repl_backlog_at_kill: backlog_at_kill,
        repl_records_applied: m.repl_records_applied,
        promotions: m.promotions,
        not_leader_rejects: m.not_leader_rejects,
        deltas_coalesced: periphery_total(&hosts, |s| s.deltas_coalesced),
        periphery_failovers: periphery_total(&hosts, |s| s.failovers),
        final_epoch: standby.ctl_epoch(),
        final_partitioned: u64::from(r.partitioned),
        final_cpu: r.cpu,
        final_containers: r.containers,
        truth_cpu,
        truth_containers,
    }
}

fn assert_failover(out: &FailoverOutcome, seed: u64) {
    assert_eq!(out.promotions, 1, "seed {seed:#x}: exactly one promotion");
    assert!(
        out.ticks_to_promote <= LEASE_TTL + 2,
        "seed {seed:#x}: promotion took {} ticks — outside the lease budget",
        out.ticks_to_promote
    );
    assert!(
        out.ticks_to_fresh != u64::MAX && out.ticks_to_fresh <= 6,
        "seed {seed:#x}: hosts never converged back to Fresh on the standby"
    );
    assert!(
        out.repl_backlog_at_kill >= 1,
        "seed {seed:#x}: the lag window queued nothing — the kill lost no records, untested"
    );
    assert!(
        out.repl_records_applied >= 1,
        "seed {seed:#x}: the standby applied no replicated records"
    );
    assert!(
        out.not_leader_rejects >= 1,
        "seed {seed:#x}: pre-promotion frames must be refused, not applied"
    );
    assert!(
        out.deltas_coalesced >= 1,
        "seed {seed:#x}: the tightened burst never coalesced — backpressure unenforced"
    );
    assert_eq!(
        out.periphery_failovers, out.hosts,
        "seed {seed:#x}: every periphery walks to the standby exactly once"
    );
    assert_eq!(
        out.final_epoch, 2,
        "seed {seed:#x}: the standby promotes into epoch 2"
    );
    assert_eq!(out.final_partitioned, 0, "seed {seed:#x}");
    assert_eq!(
        (out.final_cpu, out.final_containers),
        (out.truth_cpu, out.truth_containers),
        "seed {seed:#x}: post-promotion rollups must equal per-host ground truth"
    );
}

// --- scenario 4: split-brain fenced by epochs ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SplitBrainOutcome {
    promotions: u64,
    primary_demotions: u64,
    repl_fenced: u64,
    periphery_acks_fenced: u64,
    split_brain_rounds: u64,
    final_partitioned: u64,
    final_cpu: u64,
    final_containers: u64,
    rejoined_cpu: u64,
    rejoined_containers: u64,
    truth_cpu: u64,
    truth_containers: u64,
}

fn run_splitbrain(seed: u64, rounds: u32) -> SplitBrainOutcome {
    let stall = u64::from(rounds) / 3;
    let plan = FaultPlan::new(
        seed,
        FaultConfig {
            // The primary cannot renew for longer than the lease TTL,
            // but keeps serving: the classic split-brain window.
            lease_stall_at: Some((stall, LEASE_TTL + 4)),
            ..FaultConfig::quiet()
        },
    );
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5B11);
    let (mut hosts, ids) = fleet_hosts("split", FAULT_HOSTS);

    let (primary, standby) = replicated_pair(8, LEASE_TTL);

    let mut on_standby = vec![false; FAULT_HOSTS as usize];
    let mut reversed = false;
    let mut split_brain_rounds = 0u64;
    let mut stale_ack: Option<Vec<u8>> = None;

    let total = rounds + HEAL_ROUNDS;
    for round in 0..u64::from(total) {
        let healing = round >= u64::from(rounds);
        primary.set_lease_stalled(plan.lease_stalled(round));

        for (h, host) in hosts.iter_mut().enumerate() {
            host.step(&churn_demands(host, &ids[h], healing, &mut rng));
            let frames = host.take_fleet_frames();
            for frame in frames {
                let target = if on_standby[h] { &standby } else { &primary };
                let Some(resp) = target.handle_frame(&frame) else {
                    continue;
                };
                let Some(arv_fleet::Frame::Ack(ack)) = arv_fleet::decode_frame(&resp) else {
                    continue;
                };
                let walked = on_standby[h];
                let disp = take_ack(host, &ack, &mut on_standby[h]);
                if h == 0 && on_standby[0] && !walked {
                    // The network duplicated the stale-epoch ACK that
                    // walked host 0 away; the copy straggles in below,
                    // after the new leader's first ACK raised the seen
                    // epoch.
                    stale_ack = Some(resp.clone());
                }
                if h == 0 && on_standby[0] && disp == AckDisposition::Applied {
                    if let Some(dup) = stale_ack.take() {
                        // The straggler lands after an epoch-2 ACK: the
                        // periphery must fence it, mutating nothing.
                        host.deliver_fleet_ack(&dup);
                    }
                }
            }
        }

        if primary.is_leader() && standby.is_leader() {
            split_brain_rounds += 1;
        }
        if primary.is_leader() {
            // The stalled primary keeps streaming at its stale epoch;
            // the promoted standby fences the frames and its ACK
            // carries the higher epoch that demotes the impostor.
            pump_repl(&primary, &standby);
        } else {
            if !reversed {
                reversed = true;
                standby.enable_replication();
            }
            // The deposed primary rejoins as a standby: the new leader
            // leads with a checkpoint, then streams increments.
            pump_repl(&standby, &primary);
        }
        primary.advance_tick();
        standby.advance_tick();
    }

    let (truth_cpu, truth_containers) = ground_truth(&hosts);
    let r = standby.cluster_capacity();
    let rejoined = primary.cluster_capacity();
    SplitBrainOutcome {
        promotions: standby.metrics().snapshot().promotions,
        primary_demotions: primary.metrics().snapshot().demotions,
        repl_fenced: standby.metrics().snapshot().repl_fenced,
        periphery_acks_fenced: periphery_total(&hosts[..1], |s| s.acks_fenced),
        split_brain_rounds,
        final_partitioned: u64::from(r.partitioned),
        final_cpu: r.cpu,
        final_containers: r.containers,
        rejoined_cpu: rejoined.cpu,
        rejoined_containers: rejoined.containers,
        truth_cpu,
        truth_containers,
    }
}

fn assert_splitbrain(out: &SplitBrainOutcome, seed: u64) {
    assert_eq!(out.promotions, 1, "seed {seed:#x}: one takeover");
    assert!(
        out.split_brain_rounds >= 1,
        "seed {seed:#x}: the stall never produced two leaders — untested"
    );
    assert!(
        out.repl_fenced >= 1,
        "seed {seed:#x}: the stale primary's REPL frames must be fenced"
    );
    assert!(
        out.primary_demotions >= 1,
        "seed {seed:#x}: the higher-epoch ACK must demote the impostor"
    );
    assert!(
        out.periphery_acks_fenced >= 1,
        "seed {seed:#x}: the late stale ACK must be fenced by the periphery"
    );
    assert_eq!(
        out.final_partitioned, 0,
        "seed {seed:#x}: the heal epilogue must clear every partition flag"
    );
    assert_eq!(
        (out.final_cpu, out.final_containers),
        (out.truth_cpu, out.truth_containers),
        "seed {seed:#x}: fencing won — the new leader's rollups equal ground truth"
    );
    assert_eq!(
        (out.rejoined_cpu, out.rejoined_containers),
        (out.truth_cpu, out.truth_containers),
        "seed {seed:#x}: the deposed primary mirrors the new leader after rejoining"
    );
}

// --- the campaign ---

/// Run the fleet campaign and produce its report. Panics (on purpose)
/// if any aggregation, fault-recovery, failover, fencing, or
/// same-seed-replay invariant fails.
pub fn run(scale: f64, seed_offset: u64) -> FigReport {
    let hosts = ((1000.0 * scale) as u32).clamp(32, 2000);
    let containers = ((100.0 * scale) as u32).clamp(8, 200);
    let fault_rounds = ((30.0 * scale) as u32).clamp(20, 40);
    let mut campaign = Campaign::new(
        "fleet",
        "core↔periphery control plane: exact rollups at fleet scale, degraded serving under \
         partition, journaled controller failover healed by FULL resyncs, lease-based standby \
         promotion with epoch fencing",
        &SEEDS,
        seed_offset,
    );

    let scales = campaign.scenario(Scenario {
        name: "scale",
        run: &|seed, _| run_scale(seed, hosts, containers),
        check: &|run, seed| assert_scale(&run.outcome, run.wall_value(), seed),
        rows: rows!(
            hosts,
            containers,
            rollup_mismatches,
            tenant_mismatches,
            deltas_ingested,
            delta_entries,
            policy_adoptions
        ),
    });
    campaign.scenario(Scenario {
        name: "faults",
        run: &|seed, _| Run::of(run_faults(seed, fault_rounds)),
        check: &|run, seed| assert_faults(&run.outcome, seed),
        rows: rows!(
            partition_frames_dropped,
            lag_frames_delayed,
            gap_resyncs,
            periphery_resyncs,
            degraded_rounds,
            post_restore_partitioned,
            final_partitioned,
            final_cpu,
            truth_cpu
        ),
    });
    campaign.scenario(Scenario {
        name: "failover",
        run: &|seed, _| Run::of(run_failover(seed, fault_rounds)),
        check: &|run, seed| assert_failover(&run.outcome, seed),
        rows: rows!(
            kill_tick,
            ticks_to_promote,
            ticks_to_fresh,
            repl_backlog_at_kill,
            repl_records_applied,
            not_leader_rejects,
            deltas_coalesced,
            final_epoch,
            final_cpu,
            truth_cpu
        ),
    });
    campaign.scenario(Scenario {
        name: "splitbrain",
        run: &|seed, _| Run::of(run_splitbrain(seed, fault_rounds)),
        check: &|run, seed| assert_splitbrain(&run.outcome, seed),
        rows: rows!(
            split_brain_rounds,
            repl_fenced,
            periphery_acks_fenced,
            primary_demotions,
            final_cpu,
            rejoined_cpu,
            truth_cpu
        ),
    });

    campaign.report.note(format!(
        "{hosts} hosts × {containers} containers: capacity and tenant rollups equal ground \
         truth at every tick; worst ingest round {:.2} / {:.2} ms against the \
         {TICK_PERIOD_MS} ms timer period",
        scales[0].wall_value(),
        scales[1].wall_value()
    ));
    campaign.report.note(format!(
        "fleet faults on {FAULT_HOSTS} live hosts: partition serves last-good degraded then \
         heals by FULL resync; a crashed controller restores its journal, serves every host \
         last-good, and recovers to Fresh rollups equal to per-host ground truth",
    ));
    campaign.report.note(format!(
        "replicated pair: a mid-storm primary kill promotes the standby within {} ticks of \
         lease expiry, every host converges back to Fresh, and the promoted leader's rollups \
         equal ground truth; a lease-stalled split-brain is fenced by epochs — stale REPL \
         frames counted and refused, the impostor demoted, the deposed primary rejoining as a \
         mirror of the new leader",
        LEASE_TTL + 2
    ));
    campaign.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::seed_label;

    #[test]
    fn fleet_campaign_passes_and_reports() {
        let rep = run(0.05, 0);
        assert_eq!(rep.tables.len(), 5);
        for col in [seed_label(SEEDS[0]), seed_label(SEEDS[1])] {
            assert_eq!(rep.tables[0].get("rollup_mismatches", &col), Some(0.0));
            assert_eq!(rep.tables[1].get("final_partitioned", &col), Some(0.0));
            assert_eq!(
                rep.tables[1].get("final_cpu", &col),
                rep.tables[1].get("truth_cpu", &col)
            );
            assert_eq!(
                rep.tables[2].get("final_cpu", &col),
                rep.tables[2].get("truth_cpu", &col)
            );
            assert_eq!(rep.tables[2].get("final_epoch", &col), Some(2.0));
        }
        assert_eq!(rep.tables[4].get("faults", "replays_identical"), Some(1.0));
        assert_eq!(
            rep.tables[4].get("failover", "replays_identical"),
            Some(1.0)
        );
    }

    #[test]
    fn fault_scenario_replays_bit_identically() {
        // Compared once more outside run(): guards against global state
        // sneaking into SimHost, the periphery, or the controller.
        assert_eq!(run_faults(3, 20), run_faults(3, 20));
    }

    #[test]
    fn failover_scenario_replays_bit_identically() {
        assert_eq!(run_failover(3, 20), run_failover(3, 20));
    }
}

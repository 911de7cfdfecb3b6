//! Chaos-storm campaign: storage faults composed with every fleet
//! fault axis, gating the durability degradation ladder end to end.
//!
//! Two scenarios, seeded and replay-checked on the [`crate::campaign`]
//! harness:
//!
//! * **soak** — a raw [`arv_persist::Journal`] over a seeded
//!   [`FaultyStore`] with *every* storage axis armed at once (torn
//!   appends, write errors, a disk-full window, bit rot, a sync-stall
//!   window) while a driver appends views, checkpoints, and
//!   crash-restarts. Invariants: `restore` never panics and never
//!   yields an invalid view (CRC framing swallows corruption), a crash
//!   loses exactly the unsynced tail (the fsync model), and the whole
//!   torture replays bit-identically per seed.
//! * **storm** — the full matrix on live hosts: per-host journal
//!   stores hit disk-full and sync-stall windows (flipping hosts onto
//!   the degraded rung and the `DurabilityLost` health dimension, then
//!   healing), the controller pair journals onto faulty stores of
//!   their own (the standby's shadow journal errors and demands a
//!   fresh checkpoint), and the shared lease store goes
//!   out of space — the primary that cannot persist a renewal steps
//!   down *before* its TTL, asserted against ground-truth lease
//!   arithmetic, and never acks above its fenced epoch afterwards.
//!   All of it runs under the existing fleet axes: a partition window,
//!   a lagging host, seeded frame drops, a lease-renewal stall, a
//!   replication-lag window, and a primary crash-restore that rejoins
//!   the deposed controller as a mirror. Post-storm the fleet must
//!   converge back to Fresh with every durability flag clear, and the
//!   durable journals must restore to exactly the live indices.

use std::collections::BTreeMap;

use arv_container::SimHost;
use arv_fleet::{FleetController, FleetPolicy, SharedLease};
use arv_persist::{restore, FaultyStore, Journal, Snapshot, StoreFaults, ViewState};
use arv_sim_core::{FaultConfig, FaultPlan, SimRng};

use crate::campaign::{
    churn_demands, fleet_hosts, ground_truth, periphery_total, pump_repl, rows, take_ack, Campaign,
    FaultyLinks, Run, Scenario,
};
use crate::report::FigReport;

/// Campaign seeds (distinct from the fleet and chaos suites).
const SEEDS: [u64; 2] = [0x0057_0213, 0x00D0_7A6E];

/// Hosts in the storm scenario.
const STORM_HOSTS: u32 = 6;

/// Storm rounds; the fault windows below are laid out inside them.
const STORM_ROUNDS: u32 = 36;

/// Fault-free epilogue rounds: every rung must heal in here.
const HEAL_ROUNDS: u32 = 16;

/// Lease TTL in controller ticks.
const LEASE_TTL: u64 = 3;

/// The lease store's disk-full window `[at, at+len)` in controller
/// ticks: the primary steps down at its first unpersistable renewal,
/// and nobody can take over until the window ends.
const LEASE_FULL: (u64, u64) = (24, 5);

// --- scenario 1: storage soak on a raw journal ---

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SoakOutcome {
    ticks: u64,
    appends_ok: u64,
    appends_err: u64,
    torn_appends: u64,
    write_errors: u64,
    no_space_errors: u64,
    rotted_bits: u64,
    sync_stalls: u64,
    crashes: u64,
    restores_truncated: u64,
    invalid_restored_views: u64,
    lost_tail_violations: u64,
}

fn run_soak(seed: u64, ticks: u64) -> SoakOutcome {
    let faults = StoreFaults {
        torn_prob: 0.2,
        write_err_prob: 0.1,
        bit_rot_prob: 0.05,
        full_at: Some((ticks / 3, 5)),
        sync_stall_at: Some((2 * ticks / 3, 5)),
    };
    // A refused header is laid again by the first checkpoint.
    let (mut journal, _header) = Journal::with_store(Box::new(FaultyStore::new(seed, faults)));
    let mut rng = SimRng::seed_from_u64(seed ^ 0x50AC);

    let mut out = SoakOutcome {
        ticks,
        ..SoakOutcome::default()
    };
    for tick in 0..ticks {
        journal.set_tick(tick);
        if tick % 8 == 0 {
            let mut snap = Snapshot::at(tick);
            for id in 0..4u32 {
                let mem = rng.range_u64(64, 1024);
                snap.entries.push(ViewState {
                    id,
                    e_cpu: rng.range_u64(1, 16) as u32,
                    e_mem: mem,
                    e_avail: rng.range_u64(0, mem),
                    last_tick: tick,
                });
            }
            match journal.checkpoint(&snap) {
                Ok(()) => out.appends_ok += 1,
                Err(_) => out.appends_err += 1,
            }
        } else {
            let mem = rng.range_u64(64, 1024);
            let state = ViewState {
                id: rng.range_u64(0, 4) as u32,
                e_cpu: rng.range_u64(1, 16) as u32,
                e_mem: mem,
                e_avail: rng.range_u64(0, mem),
                last_tick: tick,
            };
            match journal.append_delta(&state, tick) {
                Ok(()) => out.appends_ok += 1,
                Err(_) => out.appends_err += 1,
            }
            let _ = journal.sync();
        }
        if tick % 16 == 15 {
            // The fsync model under fire: a crash keeps exactly the
            // synced prefix, nothing more.
            let durable = journal.durable_bytes().to_vec();
            journal.crash();
            out.crashes += 1;
            if journal.as_bytes() != durable.as_slice() {
                out.lost_tail_violations += 1;
            }
        }
        // Restore must always succeed on the durable prefix and only
        // ever yield views that satisfy the bound invariant — bit rot
        // and torn tails are cut at the CRC, never replayed.
        let report = restore(journal.durable_bytes());
        out.restores_truncated += u64::from(report.truncated_records > 0);
        if let Some(snap) = &report.snapshot {
            for e in &snap.entries {
                if e.e_avail > e.e_mem || e.e_cpu == 0 {
                    out.invalid_restored_views += 1;
                }
            }
        }
    }
    let stats = journal.store_fault_stats();
    out.torn_appends = stats.torn_appends;
    out.write_errors = stats.write_errors;
    out.no_space_errors = stats.no_space_errors;
    out.rotted_bits = stats.rotted_bits;
    out.sync_stalls = stats.sync_stalls;
    out
}

fn assert_soak(out: &SoakOutcome, seed: u64) {
    assert!(
        out.torn_appends >= 1
            && out.write_errors >= 1
            && out.no_space_errors >= 1
            && out.rotted_bits >= 1
            && out.sync_stalls >= 1,
        "seed {seed:#x}: every storage axis must actually fire: {out:?}"
    );
    assert_eq!(
        out.lost_tail_violations, 0,
        "seed {seed:#x}: a crash must keep exactly the synced prefix"
    );
    assert_eq!(
        out.invalid_restored_views, 0,
        "seed {seed:#x}: corruption must never replay into an invalid view"
    );
    assert!(
        out.appends_ok >= 1 && out.appends_err >= 1,
        "seed {seed:#x}: the soak needs both clean and refused writes"
    );
}

// --- scenario 2: the full chaos matrix ---

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct StormOutcome {
    hosts: u64,
    bound_violations: u64,
    partition_frames_dropped: u64,
    lag_frames_delayed: u64,
    random_frames_dropped: u64,
    host_io_errors: u64,
    max_degraded_hosts: u64,
    final_degraded_hosts: u64,
    final_hosts_durability_lost: u64,
    primary_journal_degraded_seen: bool,
    standby_journal_degraded_seen: bool,
    primary_io_errors: u64,
    standby_io_errors: u64,
    primary_demotions: u64,
    last_ok_renew_tick: u64,
    step_down_tick: u64,
    promote_tick: u64,
    deposed_not_leader_acks: u64,
    deposed_max_ack_epoch: u64,
    promotions: u64,
    not_leader_rejects: u64,
    periphery_failovers: u64,
    final_epoch: u64,
    final_partitioned: u64,
    final_cpu: u64,
    final_containers: u64,
    rejoined_cpu: u64,
    rejoined_containers: u64,
    truth_cpu: u64,
    truth_containers: u64,
    host_restore_mismatches: u64,
    ctl_restore_matches_live: bool,
}

/// Per-container view map for exact restore-vs-live comparison.
fn view_map(snap: &Snapshot) -> BTreeMap<u32, (u32, u64, u64)> {
    snap.entries
        .iter()
        .map(|e| (e.id, (e.e_cpu, e.e_mem, e.e_avail)))
        .collect()
}

/// The storm fleet: each host journals onto its own store — hosts 2-4
/// onto seeded faulty stores whose windows are staggered through the
/// storm, the rest onto clean memory stores as controls.
fn storm_hosts(seed: u64) -> (Vec<SimHost>, Vec<Vec<arv_cgroups::CgroupId>>) {
    let (mut hosts, ids) = fleet_hosts("storm", STORM_HOSTS);
    for (h, host) in (0u64..).zip(hosts.iter_mut()) {
        let faults = match h {
            2 => Some(StoreFaults {
                full_at: Some((8, 4)),
                ..StoreFaults::default()
            }),
            3 => Some(StoreFaults {
                sync_stall_at: Some((14, 4)),
                ..StoreFaults::default()
            }),
            4 => Some(StoreFaults {
                full_at: Some((20, 3)),
                ..StoreFaults::default()
            }),
            _ => None,
        };
        match faults {
            Some(f) => host.enable_journal_with_store(Box::new(FaultyStore::new(seed ^ h, f)), 4),
            None => host.enable_journal(4),
        }
    }
    (hosts, ids)
}

fn run_storm(seed: u64) -> StormOutcome {
    let plan = FaultPlan::new(
        seed,
        FaultConfig {
            partition_at: Some((4, 3)),
            lag_ticks: 2,
            repl_lag_at: Some((16, 3)),
            // Shorter than the TTL: renewals pause but the lease never
            // expires — the stall alone must not cost leadership.
            lease_stall_at: Some((18, 2)),
            // The deposed primary's crash-restore rejoin point.
            primary_crash_at: Some((34, 1)),
            ..FaultConfig::quiet()
        },
    );
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5702);
    let (mut hosts, ids) = storm_hosts(seed);
    let online = u64::from(hosts[0].viewd_host_spec().online_cpus);

    // The shared lease lives on a store that runs out of space
    // mid-storm; both controllers journal onto faulty stores too.
    let lease = SharedLease::with_store(Box::new(FaultyStore::new(
        seed ^ 0x1EA5E,
        StoreFaults {
            full_at: Some(LEASE_FULL),
            ..StoreFaults::default()
        },
    )));
    let mut primary = FleetController::new(8, FleetPolicy::default());
    primary.enable_journal_with_store(
        Box::new(FaultyStore::new(
            seed ^ 0x0001,
            StoreFaults {
                full_at: Some((10, 3)),
                ..StoreFaults::default()
            },
        )),
        2,
    );
    primary.attach_lease(lease.clone(), 1, LEASE_TTL);
    primary.enable_replication();
    let mut standby = FleetController::new(8, FleetPolicy::default());
    standby.enable_journal_with_store(
        Box::new(FaultyStore::new(
            seed ^ 0x0002,
            StoreFaults {
                full_at: Some((12, 2)),
                ..StoreFaults::default()
            },
        )),
        2,
    );
    standby.attach_lease(lease.clone(), 2, LEASE_TTL);

    let mut out = StormOutcome {
        hosts: u64::from(STORM_HOSTS),
        step_down_tick: u64::MAX,
        promote_tick: u64::MAX,
        ..StormOutcome::default()
    };

    let mut on_standby = vec![false; STORM_HOSTS as usize];
    let mut primary_down = false;
    let mut rejoined = false;
    let mut reversed = false;
    let mut links = FaultyLinks::default();

    let total = STORM_ROUNDS + HEAL_ROUNDS;
    for round in 0..u64::from(total) {
        let healing = round >= u64::from(STORM_ROUNDS);

        // The primary-crash axis doubles as the rejoin: the deposed
        // controller restarts from its durable journal and rejoins as
        // a standby mirror of the new leader.
        if !rejoined && primary_down && plan.primary_crashed(round) {
            out.primary_demotions = primary.metrics().snapshot().demotions;
            out.primary_io_errors = primary.metrics().snapshot().journal_io_errors;
            let bytes = primary
                .journal_durable_bytes()
                .expect("primary journal enabled");
            let policy = primary.policy();
            primary =
                FleetController::restore_from(&bytes, 8, policy).expect("a controller journal");
            primary.enable_journal(2);
            primary.attach_lease(lease.clone(), 1, LEASE_TTL);
            rejoined = true;
        }

        for (h, host) in hosts.iter_mut().enumerate() {
            host.step(&churn_demands(host, &ids[h], healing, &mut rng));

            // Bound invariant on every served view, every round.
            for e in &host.monitor().snapshot().entries {
                if e.e_avail > e.e_mem || e.e_cpu == 0 || u64::from(e.e_cpu) > online {
                    out.bound_violations += 1;
                }
            }

            let mut frames = host.take_fleet_frames();
            if h == 3 && !healing {
                // The drop axis: seeded random frame loss.
                frames.retain(|_| {
                    let keep = rng.unit() > 0.15;
                    out.random_frames_dropped += u64::from(!keep);
                    keep
                });
            }
            for frame in links.route(&plan, h, round, healing, frames) {
                let target = if on_standby[h] { &standby } else { &primary };
                let Some(resp) = target.handle_frame(&frame) else {
                    continue;
                };
                let Some(arv_fleet::Frame::Ack(ack)) = arv_fleet::decode_frame(&resp) else {
                    continue;
                };
                if !on_standby[h] && primary_down && !rejoined {
                    // Every ack the stepped-down primary still emits
                    // must refuse leadership at its fenced epoch.
                    out.deposed_not_leader_acks += u64::from(ack.not_leader);
                    out.deposed_max_ack_epoch = out.deposed_max_ack_epoch.max(ack.ctl_epoch);
                }
                take_ack(host, &ack, &mut on_standby[h]);
            }
        }

        // A renewal stall shorter than the TTL; the deposed primary
        // also backs off the lease rather than re-contend.
        primary.set_lease_stalled(plan.lease_stalled(round) || (primary_down && !rejoined));
        let was_leader = primary.is_leader();
        primary.advance_tick();
        standby.advance_tick();
        let tick = round + 1;
        if was_leader && primary.is_leader() {
            out.last_ok_renew_tick = tick;
        }
        if was_leader && !primary.is_leader() && !primary_down {
            primary_down = true;
            out.step_down_tick = tick;
        }
        if out.promote_tick == u64::MAX && standby.is_leader() {
            out.promote_tick = tick;
        }

        // Replication follows the leader; the lag window queues the
        // primary's stream, and the reversed stream only starts once
        // the deposed primary has rejoined.
        if primary.is_leader() {
            if !plan.repl_lagged(round) {
                pump_repl(&primary, &standby);
            }
        } else if standby.is_leader() {
            if !reversed {
                reversed = true;
                standby.enable_replication();
            }
            if rejoined {
                pump_repl(&standby, &primary);
            }
        }

        out.primary_journal_degraded_seen |= primary.journal_degraded();
        out.standby_journal_degraded_seen |= standby.journal_degraded();
        let gauge = primary
            .durability_degraded_hosts()
            .max(standby.durability_degraded_hosts());
        out.max_degraded_hosts = out.max_degraded_hosts.max(gauge);
    }

    out.partition_frames_dropped = links.dropped;
    out.lag_frames_delayed = links.delayed;
    let (truth_cpu, truth_containers) = ground_truth(&hosts);
    out.truth_cpu = truth_cpu;
    out.truth_containers = truth_containers;

    let r = standby.cluster_capacity();
    let m = standby.metrics().snapshot();
    out.host_io_errors = hosts.iter().map(SimHost::journal_io_errors).sum();
    out.final_degraded_hosts = standby.durability_degraded_hosts();
    out.final_hosts_durability_lost = hosts.iter().filter(|h| h.durability_lost()).count() as u64;
    out.standby_io_errors = m.journal_io_errors;
    out.promotions = m.promotions;
    out.not_leader_rejects = m.not_leader_rejects;
    out.periphery_failovers = periphery_total(&hosts, |s| s.failovers);
    out.final_epoch = standby.ctl_epoch();
    out.final_partitioned = u64::from(r.partitioned);
    out.final_cpu = r.cpu;
    out.final_containers = r.containers;
    let rejoined_cap = primary.cluster_capacity();
    out.rejoined_cpu = rejoined_cap.cpu;
    out.rejoined_containers = rejoined_cap.containers;

    // Durable journals restore to exactly the live indices.
    for host in &hosts {
        let bytes = host.journal_durable_bytes().expect("journal enabled");
        let restored = restore(&bytes)
            .snapshot
            .map(|s| view_map(&s))
            .unwrap_or_default();
        if restored != view_map(&host.monitor().snapshot()) {
            out.host_restore_mismatches += 1;
        }
    }
    let ctl_bytes = standby
        .journal_durable_bytes()
        .expect("standby journal enabled");
    let restored = FleetController::restore_from(&ctl_bytes, 8, standby.policy())
        .expect("a controller journal");
    let rr = restored.cluster_capacity();
    out.ctl_restore_matches_live = (rr.cpu, rr.mem, rr.avail, rr.containers, rr.hosts)
        == (r.cpu, r.mem, r.avail, r.containers, r.hosts);

    out
}

fn assert_storm(out: &StormOutcome, seed: u64) {
    assert_eq!(
        out.bound_violations, 0,
        "seed {seed:#x}: a served view broke its bound invariant mid-storm"
    );
    assert!(
        out.partition_frames_dropped >= 1
            && out.lag_frames_delayed >= 1
            && out.random_frames_dropped >= 1,
        "seed {seed:#x}: the fleet fault axes never fired: {out:?}"
    );
    assert!(
        out.host_io_errors >= 1 && out.max_degraded_hosts >= 1,
        "seed {seed:#x}: no host ever walked the durability ladder: {out:?}"
    );
    assert!(
        out.primary_journal_degraded_seen && out.standby_journal_degraded_seen,
        "seed {seed:#x}: both controllers' journals must degrade mid-storm"
    );
    assert!(
        out.primary_io_errors >= 1 && out.standby_io_errors >= 1,
        "seed {seed:#x}: store errors must surface in controller metrics"
    );
    // Ground-truth lease arithmetic: the holder's last persisted
    // renewal at tick T keeps the lease alive through T + TTL. A
    // primary that cannot persist a renewal must step down strictly
    // before that expiry — never serve on a lease nobody else can
    // read.
    assert!(
        out.step_down_tick != u64::MAX,
        "seed {seed:#x}: the lease-store fault never forced a step-down"
    );
    assert!(
        out.step_down_tick < out.last_ok_renew_tick + LEASE_TTL,
        "seed {seed:#x}: step-down at tick {} is not before the TTL expiry {} of \
         the last persisted renewal",
        out.step_down_tick,
        out.last_ok_renew_tick + LEASE_TTL
    );
    assert!(
        out.primary_demotions >= 1,
        "seed {seed:#x}: the step-down must register as a demotion"
    );
    assert!(
        out.deposed_not_leader_acks >= 1,
        "seed {seed:#x}: the stepped-down primary answered no frames — fencing untested"
    );
    assert!(
        out.deposed_max_ack_epoch <= 1,
        "seed {seed:#x}: a stepped-down primary acked epoch {} — above its fenced epoch 1",
        out.deposed_max_ack_epoch
    );
    assert_eq!(out.promotions, 1, "seed {seed:#x}: exactly one promotion");
    assert!(
        out.promote_tick != u64::MAX
            && out.promote_tick.saturating_sub(out.step_down_tick) <= LEASE_FULL.1 + 1,
        "seed {seed:#x}: promotion at tick {} too long after the step-down at {}",
        out.promote_tick,
        out.step_down_tick
    );
    assert!(
        out.not_leader_rejects >= 1,
        "seed {seed:#x}: pre-promotion frames must be refused, not applied"
    );
    assert_eq!(
        out.periphery_failovers, out.hosts,
        "seed {seed:#x}: every periphery walks to the standby exactly once"
    );
    assert_eq!(
        out.final_epoch, 2,
        "seed {seed:#x}: the standby promotes into epoch 2"
    );
    assert_eq!(
        (out.final_degraded_hosts, out.final_hosts_durability_lost),
        (0, 0),
        "seed {seed:#x}: every durability rung must heal post-storm"
    );
    assert_eq!(out.final_partitioned, 0, "seed {seed:#x}");
    assert_eq!(
        (out.final_cpu, out.final_containers),
        (out.truth_cpu, out.truth_containers),
        "seed {seed:#x}: post-storm rollups must equal per-host ground truth"
    );
    assert_eq!(
        (out.rejoined_cpu, out.rejoined_containers),
        (out.truth_cpu, out.truth_containers),
        "seed {seed:#x}: the crash-restored primary must mirror the new leader"
    );
    assert_eq!(
        out.host_restore_mismatches, 0,
        "seed {seed:#x}: a durable host journal restored to something \
         other than the live index"
    );
    assert!(
        out.ctl_restore_matches_live,
        "seed {seed:#x}: the leader's durable journal restored to a \
         different fleet index"
    );
}

// --- the campaign ---

/// Run the chaos-storm campaign and produce its report. Panics (on
/// purpose) if any durability-ladder, lease, fencing, convergence, or
/// same-seed-replay invariant fails.
pub fn run(scale: f64, seed_offset: u64) -> FigReport {
    // The storm's fault windows are laid out on an absolute timeline,
    // so the round count stays fixed; `scale` sizes only the soak.
    let soak_ticks = ((256.0 * scale) as u64).clamp(64, 512);
    let mut campaign = Campaign::new(
        "storm",
        "chaos-storm matrix: storage faults (torn/error/full/rot/stall) composed with every \
         fleet axis; the durability ladder degrades and heals, a primary that cannot persist \
         its lease steps down before the TTL, and durable journals restore to the live index",
        &SEEDS,
        seed_offset,
    );

    campaign.scenario(Scenario {
        name: "soak",
        run: &|seed, _| Run::of(run_soak(seed, soak_ticks)),
        check: &|run, seed| assert_soak(&run.outcome, seed),
        rows: rows!(
            ticks,
            appends_ok,
            appends_err,
            torn_appends,
            write_errors,
            no_space_errors,
            rotted_bits,
            sync_stalls,
            crashes,
            invalid_restored_views,
            lost_tail_violations
        ),
    });
    campaign.scenario(Scenario {
        name: "storm",
        run: &|seed, _| Run::of(run_storm(seed)),
        check: &|run, seed| assert_storm(&run.outcome, seed),
        rows: rows!(
            bound_violations,
            host_io_errors,
            max_degraded_hosts,
            final_degraded_hosts,
            step_down_tick,
            last_ok_renew_tick,
            promote_tick,
            deposed_max_ack_epoch,
            final_epoch,
            host_restore_mismatches,
            final_cpu,
            truth_cpu
        ),
    });

    campaign.report.note(format!(
        "soak ({soak_ticks} ticks): all five storage axes fired, every crash kept exactly the \
         synced prefix, and no corruption ever replayed into an invalid view"
    ));
    campaign.report.note(format!(
        "storm ({STORM_ROUNDS}+{HEAL_ROUNDS} rounds, {STORM_HOSTS} hosts): disk-full and \
         sync-stall windows flipped hosts to DurabilityLost and healed; the lease-store outage \
         stepped the primary down before its TTL (ground-truth lease arithmetic), the standby \
         promoted into epoch 2, the deposed primary never acked above epoch 1 and rejoined \
         from its durable journal as a mirror; post-storm every journal's restore equals the \
         live index"
    ));
    campaign.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::seed_label;

    #[test]
    fn storm_campaign_passes_and_reports() {
        let rep = run(0.25, 0);
        assert_eq!(rep.tables.len(), 3);
        for col in [seed_label(SEEDS[0]), seed_label(SEEDS[1])] {
            assert_eq!(rep.tables[0].get("invalid_restored_views", &col), Some(0.0));
            assert_eq!(rep.tables[0].get("lost_tail_violations", &col), Some(0.0));
            assert_eq!(rep.tables[1].get("bound_violations", &col), Some(0.0));
            assert_eq!(rep.tables[1].get("final_degraded_hosts", &col), Some(0.0));
            assert_eq!(
                rep.tables[1].get("host_restore_mismatches", &col),
                Some(0.0)
            );
            assert_eq!(rep.tables[1].get("final_epoch", &col), Some(2.0));
            assert_eq!(
                rep.tables[1].get("final_cpu", &col),
                rep.tables[1].get("truth_cpu", &col)
            );
        }
        assert_eq!(rep.tables[2].get("storm", "replays_identical"), Some(1.0));
    }

    #[test]
    fn storm_scenario_replays_bit_identically() {
        assert_eq!(run_storm(11), run_storm(11));
    }

    #[test]
    fn step_down_is_before_ttl_expiry() {
        let out = run_storm(SEEDS[0]);
        assert!(out.step_down_tick < out.last_ok_renew_tick + LEASE_TTL);
        assert!(out.deposed_max_ack_epoch <= 1);
    }
}

//! The storm: storage faults composed with every fleet fault axis on
//! live hosts, three scenarios of the `fleet` campaign ([`crate::fleet`]).
//!
//! * **soak** — a raw [`arv_persist::Journal`] over a seeded
//!   [`FaultyStore`] with *every* storage axis armed at once (torn
//!   appends, write errors, a disk-full window, bit rot, a sync-stall
//!   window) while a driver appends views, checkpoints, and
//!   crash-restarts. Invariants: `restore` never panics and never
//!   yields an invalid view (CRC framing swallows corruption), a crash
//!   loses exactly the unsynced tail (the fsync model), and the whole
//!   torture replays bit-identically per seed.
//! * **storm** and **splitbrain** — one rig, two ways to lose the
//!   leader. Six live hosts journal onto their own stores (three of them
//!   faulty: disk-full and sync-stall windows walk them down the
//!   durability ladder and back) and stream to a replicated controller
//!   pair that journals onto faulty stores too, under a partitioned
//!   host, a lagging host, seeded frame drops and a replication-lag
//!   window. In **storm** the shared lease store runs out of space: the
//!   primary that cannot persist a renewal steps down *before* its TTL
//!   (checked against ground-truth lease arithmetic) and never acks
//!   above its fenced epoch. In **splitbrain** the primary's renewals
//!   stall past the TTL while it keeps serving, so two leaders coexist
//!   until epoch fencing demotes the impostor. Either way:
//!   - the sequence gap the partition leaves is counted (summed over
//!     every controller incarnation) and healed by a FULL resync;
//!   - exactly one promotion, within two ticks of the lease becoming
//!     takeable, into epoch 2; the stream the lag window stranded with
//!     the old primary reaches the new leader at the stale epoch and is
//!     fenced; a duplicated stale ACK is fenced by its periphery;
//!   - the new leader tightens `rate_burst`, and the peripheries'
//!     token buckets coalesce rather than drop;
//!   - the promotion and the fence each freeze a flight dump, retrieved
//!     over `QUERY_FLIGHT` and compared byte for byte by the replay;
//!   - the deposed primary crash-restores from its durable journal
//!     (serving every host last-good) and rejoins as a mirror;
//!   - post-storm every host is Fresh within six ticks of the takeover,
//!     save what the drop axis costs: each resync FULL of the drop host
//!     it takes in a row after the takeover is one more round trip, so
//!     the fleet is Fresh within `max(6, 2 + 2 × d)` ticks;
//!   - every durability flag clears, the rollups equal per-host ground
//!     truth, and every durable journal restores to the live index.

use std::collections::BTreeMap;

use arv_cgroups::CgroupId;
use arv_container::SimHost;
use arv_fleet::{
    decode_frame, AckDisposition, FleetController, FleetPolicy, Frame, Periphery, Rollup,
    SharedLease, QUERY_FLIGHT,
};
use arv_persist::{restore, FaultyStore, Journal, Snapshot, StoreFaults, ViewState};
use arv_sim_core::{FaultConfig, FaultPlan, SimRng};
use arv_telemetry::{EventKind, FlightDump, FlightRecorder, PipelineEvent, Tracer};

use crate::campaign::{
    churn_demands, ground_truth, paper_container, periphery_total, pump_repl, query, rows,
    take_ack, Campaign, Claim, FaultyLinks, Run, Scenario,
};

/// Hosts in the storm rig.
const STORM_HOSTS: u32 = 6;

/// Storm rounds; the fault windows below are laid out inside them.
const STORM_ROUNDS: u32 = 36;

/// Fault-free epilogue rounds: every rung must heal in here.
const HEAL_ROUNDS: u32 = 16;

/// A round after the partition (rounds 4-6) heals and before any lease
/// event: host 0's resyncs by now answer the partition's gap.
const PARTITION_SETTLED: u64 = 12;

/// Lease TTL in controller ticks.
const LEASE_TTL: u64 = 3;

/// The lease store's disk-full window `[at, at+len)` in controller
/// ticks (storm): the primary steps down at its first unpersistable
/// renewal, and nobody can take over until the window ends.
const LEASE_FULL: (u64, u64) = (24, 5);

/// The primary's renewal stall (splitbrain): past the TTL, so the
/// standby takes over while the primary still believes it leads.
const SPLIT_STALL: (u64, u64) = (21, LEASE_TTL + 4);

/// The `rate_burst` the promoted leader pushes: small enough that a
/// steady periphery diff outruns the bucket, so enforced backpressure
/// (coalescing) is exercised.
const TIGHT_BURST: u32 = 2;

/// Ticks allowed from the completed takeover to every host Fresh. Each
/// resync FULL the drop axis takes in a row after it (`d`) costs the
/// drop host one more round trip: the fleet's bound is `max(6, 2 + 2d)`.
const FRESH_BOUND: u64 = 6;

/// The host whose frames the drop axis loses.
const DROP_HOST: usize = 3;

/// Flight dumps the standby's recorder retains.
const FLIGHT_DUMPS: usize = 8;

// --- storage soak on a raw journal ---

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

    let mut out = SoakOutcome::default();
    // One seeded view; the draws keep their order (memory, CPU, free).
    let view = |rng: &mut SimRng, id: u32, tick: u64| {
        let e_mem = rng.range_u64(64, 1024);
        let e_cpu = rng.range_u64(1, 16) as u32;
        let e_avail = rng.range_u64(0, e_mem);
        ViewState {
            id,
            e_cpu,
            e_mem,
            e_avail,
            last_tick: tick,
        }
    };
    // A seed whose store has rotted no bit by then appends on, for at
    // most `ticks` more, until it has: every axis must fire.
    let mut tick = 0;
    while tick < ticks || (tick < 2 * ticks && journal.store_fault_stats().rotted_bits == 0) {
        journal.set_tick(tick);
        let written = if tick % 8 == 0 {
            let mut snap = Snapshot::at(tick);
            snap.entries
                .extend((0..4u32).map(|id| view(&mut rng, id, tick)));
            journal.checkpoint(&snap)
        } else {
            let id = rng.range_u64(0, 4) as u32;
            let written = journal.append_delta(&view(&mut rng, id, tick), tick);
            let _ = journal.sync();
            written
        };
        match written {
            Ok(()) => out.appends_ok += 1,
            Err(_) => out.appends_err += 1,
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
        tick += 1;
    }
    out.ticks = tick;
    let stats = journal.store_fault_stats();
    out.torn_appends = stats.torn_appends;
    out.write_errors = stats.write_errors;
    out.no_space_errors = stats.no_space_errors;
    out.rotted_bits = stats.rotted_bits;
    out.sync_stalls = stats.sync_stalls;
    out
}

fn soak_claims(run: &Run<SoakOutcome>) -> Vec<Claim> {
    let o = &run.outcome;
    let axes = [
        o.torn_appends,
        o.write_errors,
        o.no_space_errors,
        o.rotted_bits,
        o.sync_stalls,
    ];
    vec![
        ("storm.soak.1", axes.iter().all(|&n| n >= 1)),
        ("storm.soak.2", o.lost_tail_violations == 0),
        ("storm.soak.3", o.invalid_restored_views == 0),
        ("storm.soak.4", o.appends_ok >= 1 && o.appends_err >= 1),
    ]
}

// --- one rig, two takeovers ---

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct StormOutcome {
    split_brain: bool,
    bound_violations: u64,
    partition_frames_dropped: u64,
    lag_frames_delayed: u64,
    random_frames_dropped: u64,
    gap_resyncs: u64,
    partition_resyncs: u64,
    degraded_rounds: u64,
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
    deposed_tick: u64,
    promote_tick: u64,
    split_brain_rounds: u64,
    ticks_to_fresh: u64,
    fresh_bound: u64,
    other_hosts_ticks_to_fresh: u64,
    resync_fulls_dropped: u64,
    deposed_not_leader_acks: u64,
    deposed_max_ack_epoch: u64,
    promotions: u64,
    not_leader_rejects: u64,
    repl_records_applied: u64,
    stranded_repl_records: u64,
    repl_fenced: u64,
    periphery_acks_fenced: u64,
    deltas_coalesced: u64,
    periphery_failovers: u64,
    post_restore_partitioned: u64,
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
    flight_dumps: Vec<Vec<u8>>,
}

/// Per-container view map for exact restore-vs-live comparison.
fn view_map(snap: &Snapshot) -> BTreeMap<u32, (u32, u64, u64)> {
    snap.entries
        .iter()
        .map(|e| (e.id, (e.e_cpu, e.e_mem, e.e_avail)))
        .collect()
}

/// The storm fleet: live hosts of three 10-CPU containers, each with a
/// periphery (two tenants, alternating by host) and its own journal
/// store — hosts 2-4 seeded faulty stores whose windows are staggered
/// through the storm, the rest clean memory stores as controls.
fn storm_hosts(seed: u64) -> (Vec<SimHost>, Vec<Vec<CgroupId>>) {
    (0..STORM_HOSTS)
        .map(|h| {
            let mut host = SimHost::paper_testbed();
            let spec = |i: u32| paper_container(format!("storm-{h}-{i}"));
            let ids = (0..3).map(|i| host.launch(&spec(i))).collect();
            let mut p = Periphery::new(h);
            for i in 0..3 {
                p.set_tenant(i + 1, h % 2);
            }
            host.attach_periphery(p);
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
            let store_seed = seed ^ u64::from(h);
            match faults {
                Some(f) => {
                    host.enable_journal_with_store(Box::new(FaultyStore::new(store_seed, f)), 4)
                }
                None => host.enable_journal(4),
            }
            (host, ids)
        })
        .unzip()
}

/// A controller journaling onto a faulty store whose disk fills for
/// `full`.
fn faulty_controller(seed: u64, full: (u64, u64)) -> FleetController {
    let mut ctl = FleetController::new(8, FleetPolicy::default());
    let faults = StoreFaults {
        full_at: Some(full),
        ..StoreFaults::default()
    };
    ctl.enable_journal_with_store(Box::new(FaultyStore::new(seed, faults)), 2);
    ctl
}

pub(crate) fn run_storm(seed: u64, split_brain: bool) -> StormOutcome {
    let plan = FaultPlan::new(
        seed,
        FaultConfig {
            partition_at: Some((4, 3)),
            lag_ticks: 2,
            // Holds the primary's stream across the takeover: what it
            // queues is stranded with the old leader.
            repl_lag_at: Some((22, 9)),
            // storm: shorter than the TTL, renewals pause but the lease
            // never expires — the stall alone must not cost leadership.
            lease_stall_at: Some(if split_brain { SPLIT_STALL } else { (18, 2) }),
            // The deposed primary's crash-restore rejoin point.
            primary_crash_at: Some((34, 1)),
            ..FaultConfig::quiet()
        },
    );
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5702);
    let (mut hosts, ids) = storm_hosts(seed);
    let online = u64::from(hosts[0].viewd_host_spec().online_cpus);

    // The shared lease lives on a store that runs out of space
    // mid-storm (storm only); both controllers journal onto faulty
    // stores, and the standby records anomalies.
    let lease_faults = StoreFaults {
        full_at: (!split_brain).then_some(LEASE_FULL),
        ..StoreFaults::default()
    };
    let lease = SharedLease::with_store(Box::new(FaultyStore::new(seed ^ 0x1EA5E, lease_faults)));
    let mut primary = faulty_controller(seed ^ 0x0001, (10, 3));
    primary.attach_lease(lease.clone(), 1, LEASE_TTL);
    primary.enable_replication();
    let mut standby = faulty_controller(seed ^ 0x0002, (12, 2));
    standby.attach_lease(lease.clone(), 2, LEASE_TTL);
    standby.set_tracer(Tracer::bounded(16_384));
    standby.set_flight_recorder(FlightRecorder::bounded(FLIGHT_DUMPS));

    let mut out = StormOutcome {
        split_brain,
        deposed_tick: u64::MAX,
        promote_tick: u64::MAX,
        ticks_to_fresh: u64::MAX,
        other_hosts_ticks_to_fresh: u64::MAX,
        ..StormOutcome::default()
    };
    let mut drop_host_resynced = false;

    let mut on_standby = vec![false; STORM_HOSTS as usize];
    let mut primary_down = false;
    let mut rejoined = false;
    let mut reversed = false;
    let mut takeover_tick = None;
    let mut stale_ack: Option<Vec<u8>> = None;
    let mut links = FaultyLinks::default();

    let total = STORM_ROUNDS + HEAL_ROUNDS;
    for round in 0..u64::from(total) {
        let healing = round >= u64::from(STORM_ROUNDS);

        // The primary-crash axis doubles as the rejoin: the deposed
        // controller restarts from its durable journal, serving every
        // host last-good, and rejoins as a standby mirror of the new
        // leader. Its counters are folded in before it goes.
        if !rejoined && primary_down && plan.primary_crashed(round) {
            let m = primary.metrics().snapshot();
            out.primary_demotions = m.demotions;
            out.primary_io_errors = m.journal_io_errors;
            out.gap_resyncs += m.deltas_gap_resyncs;
            let bytes = primary
                .journal_durable_bytes()
                .expect("primary journal enabled");
            let policy = primary.policy();
            primary =
                FleetController::restore_from(&bytes, 8, policy).expect("a controller journal");
            out.post_restore_partitioned = u64::from(primary.cluster_capacity().partitioned);
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
            if h == DROP_HOST && !healing {
                // The drop axis: seeded random frame loss.
                frames.retain(|frame| {
                    let keep = rng.unit() > 0.15;
                    out.random_frames_dropped += u64::from(!keep);
                    // The resync FULLs it takes in a row after the takeover.
                    let full =
                        || matches!(decode_frame(frame), Some(Frame::Delta(d)) if d.head.full);
                    if takeover_tick.is_some() && !drop_host_resynced && full() {
                        drop_host_resynced = keep;
                        out.resync_fulls_dropped += u64::from(!keep);
                    }
                    keep
                });
            }
            for frame in links.route(&plan, h, round, healing, frames) {
                let target = if on_standby[h] { &standby } else { &primary };
                let Some(resp) = target.handle_frame(&frame) else {
                    continue;
                };
                let Some(Frame::Ack(ack)) = decode_frame(&resp) else {
                    continue;
                };
                if !on_standby[h] && primary_down && !rejoined {
                    // Every ack the deposed primary still emits must
                    // refuse leadership at its fenced epoch.
                    out.deposed_not_leader_acks += u64::from(ack.not_leader);
                    out.deposed_max_ack_epoch = out.deposed_max_ack_epoch.max(ack.ctl_epoch);
                }
                let walked = on_standby[h];
                let disposition = take_ack(host, &ack, &mut on_standby[h]);
                if h == 0 && on_standby[0] && !walked {
                    // The network duplicates the stale-epoch ACK that
                    // walked host 0 away; the copy straggles in after
                    // the new leader's first ACK raised the seen epoch.
                    stale_ack = Some(resp.clone());
                }
                if h == 0 && on_standby[0] && disposition == AckDisposition::Applied {
                    if let Some(dup) = stale_ack.take() {
                        host.deliver_fleet_ack(&dup);
                    }
                }
            }
        }

        if round == PARTITION_SETTLED {
            out.partition_resyncs = periphery_total(&hosts[..1], |s| s.resyncs);
        }

        // The lease-stall axis; the deposed primary also backs off the
        // lease rather than re-contend.
        let stalled = plan.lease_stalled(round);
        primary.set_lease_stalled(stalled || (primary_down && !rejoined));
        let was_leader = primary.is_leader();
        primary.advance_tick();
        standby.advance_tick();
        let tick = round + 1;
        if was_leader && primary.is_leader() && !stalled {
            out.last_ok_renew_tick = tick;
        }
        if was_leader && !primary.is_leader() && !primary_down {
            primary_down = true;
            out.deposed_tick = tick;
        }
        if standby.is_leader() && out.promote_tick == u64::MAX {
            out.promote_tick = tick;
            // The new leader tightens the burst: from here on the
            // peripheries' enforced token bucket must coalesce.
            standby.set_policy(3, 256, TIGHT_BURST);
        }
        out.split_brain_rounds += u64::from(primary.is_leader() && standby.is_leader());

        // Replication: the primary's stream while it leads (the lag
        // window queues it); once the lag lifts after a takeover, what
        // it stranded reaches the new leader at the stale epoch and is
        // fenced; the reversed stream starts once the deposed primary
        // has rejoined.
        if !plan.repl_lagged(round) {
            if !standby.is_leader() {
                if primary.is_leader() {
                    pump_repl(&primary, &standby);
                }
            } else if !reversed {
                reversed = true;
                out.stranded_repl_records = primary.repl_backlog_records();
                pump_repl(&primary, &standby);
                standby.enable_replication();
            }
        }
        if rejoined {
            pump_repl(&standby, &primary);
        }

        // The takeover is complete once the new leader leads alone.
        let leader = if primary.is_leader() {
            &primary
        } else {
            &standby
        };
        out.degraded_rounds +=
            u64::from(leader.is_leader() && leader.cluster_capacity().degraded());
        if takeover_tick.is_none() && standby.is_leader() && !primary.is_leader() {
            takeover_tick = Some(tick);
        }
        if let Some(t) = takeover_tick {
            let r = standby.cluster_capacity();
            if out.ticks_to_fresh == u64::MAX && r.partitioned == 0 && r.hosts == STORM_HOSTS {
                out.ticks_to_fresh = tick - t;
            }
            let mut others = (0..STORM_HOSTS).filter(|h| *h as usize != DROP_HOST);
            if out.other_hosts_ticks_to_fresh == u64::MAX
                && others.all(|h| standby.explain_host(h).is_some_and(|e| !e.partitioned))
            {
                out.other_hosts_ticks_to_fresh = tick - t;
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
    out.fresh_bound = FRESH_BOUND.max(2 + 2 * out.resync_fulls_dropped);
    (out.truth_cpu, out.truth_containers) = ground_truth(&hosts);

    let r = standby.cluster_capacity();
    let m = standby.metrics().snapshot();
    out.gap_resyncs += m.deltas_gap_resyncs + primary.metrics().snapshot().deltas_gap_resyncs;
    out.host_io_errors = hosts.iter().map(SimHost::journal_io_errors).sum();
    out.final_degraded_hosts = standby.durability_degraded_hosts();
    out.final_hosts_durability_lost = hosts.iter().filter(|h| h.durability_lost()).count() as u64;
    out.standby_io_errors = m.journal_io_errors;
    out.promotions = m.promotions;
    out.not_leader_rejects = m.not_leader_rejects;
    out.repl_records_applied = m.repl_records_applied;
    out.repl_fenced = m.repl_fenced;
    out.periphery_acks_fenced = periphery_total(&hosts[..1], |s| s.acks_fenced);
    out.deltas_coalesced = periphery_total(&hosts, |s| s.deltas_coalesced);
    out.periphery_failovers = periphery_total(&hosts, |s| s.failovers);
    out.final_epoch = standby.ctl_epoch();
    out.final_partitioned = u64::from(r.partitioned);
    out.final_cpu = r.cpu;
    out.final_containers = r.containers;
    let rejoined_cap = primary.cluster_capacity();
    out.rejoined_cpu = rejoined_cap.cpu;
    out.rejoined_containers = rejoined_cap.containers;
    // Every frozen dump, newest first, over the query path.
    out.flight_dumps = (0..64u32)
        .map_while(|back| match query(&standby, QUERY_FLIGHT, back).body {
            Rollup::Flight(bytes) if !bytes.is_empty() => Some(bytes),
            _ => None,
        })
        .collect();

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

/// The storm rig's claims, for both takeovers: a row that holds in one
/// mode only is vacuous in the other.
pub(crate) fn storm_claims(run: &Run<StormOutcome>) -> Vec<Claim> {
    let o = &run.outcome;
    let (storm, hosts) = (!o.split_brain, u64::from(STORM_HOSTS));
    // The lease is takeable once it has expired and its store takes
    // writes again; the standby must promote within two ticks of that.
    let store_back = if storm {
        LEASE_FULL.0 + LEASE_FULL.1
    } else {
        0
    };
    let takeable = (o.last_ok_renew_tick + LEASE_TTL).max(store_back);
    let promoted = o.promote_tick <= takeable + 2;
    let fresh = o.other_hosts_ticks_to_fresh <= FRESH_BOUND && o.ticks_to_fresh <= o.fresh_bound;
    let truth = (o.truth_cpu, o.truth_containers);
    let healed = (o.final_cpu, o.final_containers) == truth;
    let rejoined = (o.rejoined_cpu, o.rejoined_containers) == truth;
    let triggers: Vec<PipelineEvent> = o
        .flight_dumps
        .iter()
        .filter_map(|bytes| FlightDump::decode(bytes))
        .map(|dump| dump.trigger)
        .collect();
    let holds_trigger = |dump: FlightDump| {
        let trigger = EventKind::Pipeline(dump.trigger);
        dump.events
            .iter()
            .any(|e| e.tick == dump.tick && e.kind == trigger)
    };
    vec![
        ("fleet.faults.1", o.partition_frames_dropped >= 1),
        ("fleet.faults.2", o.lag_frames_delayed >= 1),
        ("fleet.faults.3", o.gap_resyncs >= 1),
        ("fleet.faults.4", o.partition_resyncs >= 1),
        ("fleet.faults.5", o.degraded_rounds >= 1),
        ("fleet.faults.6", o.post_restore_partitioned == hosts),
        ("fleet.faults.7", o.final_partitioned == 0),
        ("fleet.faults.8", healed),
        ("fleet.failover.1", o.promotions == 1),
        ("fleet.failover.2", promoted),
        ("fleet.failover.3", fresh),
        ("fleet.failover.4", o.stranded_repl_records >= 1),
        ("fleet.failover.5", o.repl_records_applied >= 1),
        ("fleet.failover.6", !storm || o.not_leader_rejects >= 1),
        ("fleet.failover.7", o.deltas_coalesced >= 1),
        ("fleet.failover.8", o.periphery_failovers == hosts),
        ("fleet.failover.9", o.final_epoch == 2),
        ("fleet.failover.10", o.final_partitioned == 0),
        ("fleet.failover.11", healed),
        ("fleet.splitbrain.1", o.promotions == 1),
        ("fleet.splitbrain.2", storm || o.split_brain_rounds >= 1),
        ("fleet.splitbrain.3", o.repl_fenced >= 1),
        ("fleet.splitbrain.4", o.primary_demotions >= 1),
        ("fleet.splitbrain.5", o.periphery_acks_fenced >= 1),
        ("fleet.splitbrain.6", o.final_partitioned == 0),
        ("fleet.splitbrain.7", healed),
        ("fleet.splitbrain.8", rejoined),
        ("fleetobs.flightrec.1", o.promotions == 1),
        ("fleetobs.flightrec.2", o.repl_fenced >= 1),
        ("fleetobs.flightrec.3", o.primary_demotions >= 1),
        ("fleetobs.flightrec.4", o.final_epoch == 2),
        (
            "fleetobs.flightrec.5",
            triggers.contains(&PipelineEvent::FleetPromoted),
        ),
        (
            "fleetobs.flightrec.6",
            triggers.contains(&PipelineEvent::FleetFenced),
        ),
        (
            "fleetobs.flightrec.7",
            o.flight_dumps
                .iter()
                .all(|bytes| FlightDump::decode(bytes).is_some_and(holds_trigger)),
        ),
        ("fleetobs.flightrec.9", promoted),
        ("storm.storm.1", o.bound_violations == 0),
        (
            "storm.storm.2",
            o.partition_frames_dropped >= 1
                && o.lag_frames_delayed >= 1
                && o.random_frames_dropped >= 1,
        ),
        (
            "storm.storm.3",
            o.host_io_errors >= 1 && o.max_degraded_hosts >= 1,
        ),
        (
            "storm.storm.4",
            o.primary_journal_degraded_seen && o.standby_journal_degraded_seen,
        ),
        (
            "storm.storm.5",
            o.primary_io_errors >= 1 && o.standby_io_errors >= 1,
        ),
        ("storm.storm.6", o.deposed_tick != u64::MAX),
        // Ground-truth lease arithmetic: the holder's last persisted
        // renewal at tick T keeps the lease alive through T + TTL. A
        // primary that cannot persist a renewal must step down strictly
        // before that expiry — never serve on a lease nobody else can
        // read.
        (
            "storm.storm.7",
            !storm || o.deposed_tick < o.last_ok_renew_tick + LEASE_TTL,
        ),
        ("storm.storm.8", o.primary_demotions >= 1),
        ("storm.storm.9", o.deposed_not_leader_acks >= 1),
        ("storm.storm.10", o.deposed_max_ack_epoch <= 1),
        ("storm.storm.11", o.promotions == 1),
        (
            "storm.storm.12",
            !storm
                || o.promote_tick
                    .checked_sub(o.deposed_tick)
                    .is_some_and(|ticks| ticks <= LEASE_FULL.1 + 1),
        ),
        ("storm.storm.13", !storm || o.not_leader_rejects >= 1),
        ("storm.storm.14", o.periphery_failovers == hosts),
        ("storm.storm.15", o.final_epoch == 2),
        (
            "storm.storm.16",
            o.final_degraded_hosts == 0 && o.final_hosts_durability_lost == 0,
        ),
        ("storm.storm.17", o.final_partitioned == 0),
        ("storm.storm.18", healed),
        ("storm.storm.19", rejoined),
        ("storm.storm.20", o.host_restore_mismatches == 0),
        ("storm.storm.21", o.ctl_restore_matches_live),
        ("storm.storm.22", !storm || o.split_brain_rounds == 0),
    ]
}

/// Run the soak and both takeovers on `campaign`; `scale` sizes only
/// the soak (the storm's fault windows sit on an absolute timeline).
pub(crate) fn scenarios(campaign: &mut Campaign, scale: f64) {
    let soak_ticks = ((256.0 * scale) as u64).clamp(64, 512);
    campaign.scenario(Scenario {
        name: "soak",
        run: &|seed, _| Run::of(run_soak(seed, soak_ticks)),
        claims: &soak_claims,
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
    let mut dumps = Vec::new();
    for (name, split_brain) in [("storm", false), ("splitbrain", true)] {
        let runs = campaign.scenario(Scenario {
            name,
            run: &|seed, _| Run::of(run_storm(seed, split_brain)),
            claims: &storm_claims,
            rows: rows!(
                bound_violations,
                partition_frames_dropped,
                gap_resyncs,
                partition_resyncs,
                degraded_rounds,
                host_io_errors,
                max_degraded_hosts,
                final_degraded_hosts,
                last_ok_renew_tick,
                deposed_tick,
                promote_tick,
                split_brain_rounds,
                ticks_to_fresh,
                fresh_bound,
                other_hosts_ticks_to_fresh,
                resync_fulls_dropped,
                deposed_max_ack_epoch,
                stranded_repl_records,
                repl_fenced,
                periphery_acks_fenced,
                deltas_coalesced,
                post_restore_partitioned,
                final_epoch,
                host_restore_mismatches,
                final_cpu,
                truth_cpu
            ),
        });
        dumps.push(runs[0].outcome.flight_dumps.len());
    }
    campaign.report.note(format!(
        "soak ({soak_ticks} ticks): all five storage axes fired, every crash kept exactly the \
         synced prefix, and no corruption ever replayed into an invalid view"
    ));
    campaign.report.note(format!(
        "storm and splitbrain ({STORM_ROUNDS}+{HEAL_ROUNDS} rounds, {STORM_HOSTS} hosts): the \
         partition's gap was counted and healed by FULL resync; disk-full and sync-stall windows \
         flipped hosts to DurabilityLost and healed; the lease-store outage stepped the primary \
         down before its TTL (ground-truth lease arithmetic), a renewal stall past the TTL left \
         two leaders until epochs fenced the impostor; one promotion into epoch 2 within two \
         ticks of the lease becoming takeable, the stranded REPL stream and a duplicated stale \
         ACK fenced, the tightened burst coalescing; the deposed primary never acked above epoch \
         1, restored every host last-good and rejoined as a mirror; post-storm every host but \
         the drop host Fresh within {FRESH_BOUND} ticks of the takeover, the fleet within \
         max({FRESH_BOUND}, 2 + 2 × the drop host's resync FULLs lost in a row), and every \
         journal's restore equals the live index"
    ));
    campaign.report.note(format!(
        "flight recorder: the promotion and the fence each froze a dump ({} / {} retrieved over \
         QUERY_FLIGHT), replayed bit-identically — the dumps are compared byte for byte",
        dumps[0], dumps[1]
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_campaign_passes_and_reports() {
        // The fleet campaign's storm share alone, at seed offset 1 and a
        // full-scale soak, four times the fleet campaign test's.
        let rep = Campaign::alone(&crate::fleet::SEEDS, 1, |c| scenarios(c, 1.0));
        let soak = rep.table("soak");
        for col in &soak.columns {
            assert_eq!(soak.get("invalid_restored_views", col), Some(0.0));
            assert_eq!(soak.get("lost_tail_violations", col), Some(0.0));
            for name in ["storm", "splitbrain"] {
                let t = rep.table(name);
                assert_eq!(t.get("bound_violations", col), Some(0.0));
                assert_eq!(t.get("host_restore_mismatches", col), Some(0.0));
                assert_eq!(t.get("final_epoch", col), Some(2.0));
                assert_eq!(t.get("final_cpu", col), t.get("truth_cpu", col));
            }
        }
    }

    #[test]
    fn a_seed_that_rots_no_bit_in_its_ticks_appends_until_one() {
        // The fleet campaign's soak seed at half scale, offset 2: its 128
        // ticks rot no bit.
        Run::of(run_soak(0x3c6e_f372_fe9b_e6cd, 128)).assert_claims(&soak_claims);
    }

    /// The fleet campaign's storm seed at offset 2: the drop axis takes
    /// three of host 3's resync FULLs in a row after the takeover, so
    /// the fleet is Fresh 8 ticks after it, past the 6 every other host
    /// keeps and within `2 + 2 × 3`.
    #[test]
    fn three_lost_resyncs_cost_the_drop_host_three_round_trips() {
        let run = Run::of(run_storm(0x3c6e_f372_fe9b_e6cd, false));
        let out = &run.outcome;
        assert_eq!(out.resync_fulls_dropped, 3);
        assert_eq!((out.ticks_to_fresh, out.fresh_bound), (8, 8));
        assert!(out.other_hosts_ticks_to_fresh <= FRESH_BOUND);
        run.assert_claims(&storm_claims);
    }

    #[test]
    fn storm_scenario_replays_bit_identically() {
        assert_eq!(run_storm(11, false), run_storm(11, false));
        assert_eq!(run_storm(11, true), run_storm(11, true));
    }

    #[test]
    fn step_down_is_before_ttl_expiry() {
        let out = run_storm(0xF1EE7, false);
        assert!(out.deposed_tick < out.last_ok_renew_tick + LEASE_TTL);
        assert!(out.deposed_max_ack_epoch <= 1);
    }
}

//! Fleet failover end-to-end: a replicated controller pair on real Unix
//! sockets, the primary killed mid-stream.
//!
//! Four [`arv_container::SimHost`]s ship deltas through
//! [`arv_fleet::FleetClient`]s configured with both controller
//! sockets. The primary streams accepted records to the hot standby over
//! REPL (also on the real wire) while both contend on one shared lease.
//! Mid-storm the primary's server is killed; peripheries walk to the
//! standby, bounce off `not_leader` ACKs until the lease expires, and
//! converge back to Fresh on the promoted leader — whose totals must
//! equal per-host ground truth exactly. Racing rollup readers hammer
//! both sockets throughout: every rollup they accept must carry a
//! monotone non-decreasing controller epoch (stale-epoch rollups are
//! fenced, exactly like periphery ACK fencing) and must never be torn.
//!
//! The standby's observability plane is armed throughout: after the
//! failover the test scrapes the Prometheus exposition and retrieves
//! the promotion's flight dump over the same wire (`QUERY_STATS` /
//! `QUERY_FLIGHT`), proving the black box survives a real crash and is
//! readable by a plain socket client.

use arv_container::{ContainerSpec, SimHost};
use arv_fleet::{
    decode_frame, encode_query, AckDisposition, FleetClient, FleetController, FleetPolicy, Frame,
    Periphery, Query, Rollup, SharedLease, QUERY_CLUSTER, QUERY_FLIGHT, QUERY_STATS,
};
use arv_persist::{FaultyStore, StoreFaults};
use arv_telemetry::{EventKind, FlightDump, FlightRecorder, PipelineEvent, Tracer};
use arv_viewd::RetryPolicy;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const HOSTS: u32 = 4;
const CONTAINERS_PER_HOST: u32 = 3;
const ROUNDS: u32 = 24;
const KILL_ROUND: u32 = 8;
const LEASE_TTL: u64 = 3;

fn sock_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("arv-fleet-failover-{}-{name}", std::process::id()));
    p
}

/// A client of the one controller at `path` that makes one attempt per
/// request: the primary's replication link never sends a frame twice,
/// and a close reaches the caller instead of a silent reconnect.
fn one_attempt_client(path: &Path) -> FleetClient {
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    FleetClient::new([path], policy)
}

/// One reader's life: accepted-rollup count, fenced-rollup count, and
/// the highest controller epoch it accepted.
fn run_reader(paths: [PathBuf; 2], seed: u64, stop: &AtomicBool) -> (u64, u64, u64) {
    let mut client = FleetClient::new(
        paths,
        RetryPolicy {
            jitter_seed: seed,
            ..RetryPolicy::fast_test()
        },
    );
    let query = encode_query(&Query {
        kind: QUERY_CLUSTER,
        arg: 0,
    });
    let (mut accepted, mut fenced, mut max_epoch) = (0u64, 0u64, 0u64);
    while !stop.load(Ordering::Acquire) {
        // Mid-failover both sockets can be cold; an exhausted request is
        // the reader's partition, not a test failure.
        let Ok(resp) = client.request(&query) else {
            continue;
        };
        let Some(Frame::Rollup(frame)) = decode_frame(&resp) else {
            continue;
        };
        // Reader-side fencing: a rollup stamped with a lower epoch than
        // one already seen is stale output from a deposed controller.
        if frame.ctl_epoch < max_epoch {
            fenced += 1;
            client.advance_controller();
            continue;
        }
        max_epoch = frame.ctl_epoch;
        let Rollup::Cluster { rollup, .. } = frame.body else {
            panic!("cluster query answered with a non-cluster rollup");
        };
        // Torn-rollup checks: these hold on every answer or the
        // controller published a half-applied aggregate.
        assert!(rollup.hosts <= HOSTS, "rollup invented hosts");
        assert!(
            rollup.containers <= u64::from(HOSTS) * u64::from(CONTAINERS_PER_HOST),
            "rollup invented containers"
        );
        assert!(rollup.partitioned <= rollup.hosts, "torn partition count");
        assert!(rollup.avail <= rollup.mem, "available exceeds total memory");
        accepted += 1;
    }
    (accepted, fenced, max_epoch)
}

#[test]
fn fleet_failover_over_the_wire() {
    let lease = SharedLease::new();
    let primary = Arc::new(FleetController::new(8, FleetPolicy::default()));
    primary.attach_lease(lease.clone(), 1, LEASE_TTL);
    primary.enable_replication();
    let mut standby = FleetController::new(8, FleetPolicy::default());
    // Arm the black box on the survivor: the promotion mid-test must
    // freeze a dump retrievable over the wire afterwards.
    standby.set_tracer(Tracer::bounded(4096));
    standby.set_flight_recorder(FlightRecorder::bounded(8));
    let standby = Arc::new(standby);
    standby.attach_lease(lease, 2, LEASE_TTL);
    assert!(primary.is_leader() && !standby.is_leader());

    let path_a = sock_path("primary");
    let path_b = sock_path("standby");
    let mut primary_srv =
        arv_fleet::FleetWireServer::spawn(Arc::clone(&primary), &path_a).expect("spawn primary");
    let mut standby_srv =
        arv_fleet::FleetWireServer::spawn(Arc::clone(&standby), &path_b).expect("spawn standby");

    let mut hosts: Vec<SimHost> = Vec::new();
    let mut ids = Vec::new();
    for h in 0..HOSTS {
        let mut host = SimHost::paper_testbed();
        let launched: Vec<_> = (0..CONTAINERS_PER_HOST)
            .map(|i| {
                host.launch(
                    &ContainerSpec::new(format!("fo-{h}-{i}"), 20)
                        .cpus(10.0)
                        .cpu_shares(1024),
                )
            })
            .collect();
        let mut p = Periphery::new(h);
        for (i, _) in launched.iter().enumerate() {
            p.set_tenant(i as u32 + 1, h % 2);
        }
        host.attach_periphery(p);
        ids.push(launched);
        hosts.push(host);
    }

    let stop = AtomicBool::new(false);
    let reader_results = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let paths = [path_a.clone(), path_b.clone()];
                let stop = &stop;
                s.spawn(move || run_reader(paths, 0xBEEF + r, stop))
            })
            .collect();

        // Each periphery walks the ordered controller list on failure;
        // distinct jitter seeds decorrelate their backoff.
        let mut conns: Vec<FleetClient> = (0..HOSTS)
            .map(|h| {
                FleetClient::new(
                    [path_a.clone(), path_b.clone()],
                    RetryPolicy {
                        jitter_seed: 0xFA11 + u64::from(h),
                        ..RetryPolicy::fast_test()
                    },
                )
            })
            .collect();
        // Replication rides the same wire: the primary's REPL frames go
        // to the standby's socket, its ACKs come back to the primary.
        let mut repl_conn = Some(one_attempt_client(&path_b));

        let mut primary_alive = true;
        for round in 0..ROUNDS {
            if round == KILL_ROUND {
                // Mid-storm crash: the wire dies and the controller
                // stops ticking (no more lease renewals).
                primary_srv.shutdown();
                primary_alive = false;
                repl_conn = None;
            }
            for (h, host) in hosts.iter_mut().enumerate() {
                let busy = usize::try_from(round % CONTAINERS_PER_HOST).unwrap();
                let demands = vec![host.demand(ids[h][busy], 20)];
                host.step(&demands);
                for frame in host.take_fleet_frames() {
                    let Ok(resp) = conns[h].request(&frame) else {
                        // Every attempt exhausted mid-failover: the
                        // frame is lost, the next resync heals the gap.
                        continue;
                    };
                    if conns[h].take_reconnected() {
                        if let Some(p) = host.periphery_mut() {
                            p.on_reconnect();
                        }
                    }
                    let Some(Frame::Ack(ack)) = decode_frame(&resp) else {
                        continue;
                    };
                    let disp = host
                        .periphery_mut()
                        .map(|p| p.handle_ack(&ack))
                        .unwrap_or(AckDisposition::Ignored);
                    if disp == AckDisposition::NotLeader {
                        // The peer answered but is not the leader: walk
                        // on at the protocol level and re-HELLO.
                        conns[h].advance_controller();
                        if let Some(p) = host.periphery_mut() {
                            p.on_reconnect();
                        }
                    }
                }
            }
            if primary_alive {
                if let Some(conn) = repl_conn.as_mut() {
                    for frame in primary.take_repl_frames() {
                        if let Ok(resp) = conn.request(&frame) {
                            if let Some(Frame::Ack(ack)) = decode_frame(&resp) {
                                primary.handle_repl_ack(&ack);
                            }
                        }
                    }
                }
                primary.advance_tick();
            }
            standby.advance_tick();
        }
        stop.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .collect::<Vec<_>>()
    });

    // The standby must have taken the lease exactly once, at epoch 2.
    // The dead primary still *believes* it leads — it stopped ticking
    // with the lease held — but its epoch is forever 1, so everything
    // it could ever say again is fenceable.
    assert!(standby.is_leader(), "the standby never promoted");
    assert!(primary.ctl_epoch() < standby.ctl_epoch());
    assert_eq!(standby.ctl_epoch(), 2);
    assert_eq!(standby.metrics().snapshot().promotions, 1);

    // Every host walked to the standby and converged back to Fresh; the
    // promoted leader's totals equal per-host ground truth exactly.
    let r = standby.cluster_capacity();
    let (mut cpu, mut containers) = (0u64, 0u64);
    for host in &hosts {
        let snap = host.monitor().snapshot();
        cpu += snap.entries.iter().map(|e| u64::from(e.e_cpu)).sum::<u64>();
        containers += snap.entries.len() as u64;
        let p = host.periphery().expect("periphery attached");
        assert!(p.stats().failovers >= 1, "periphery never failed over");
        assert_eq!(p.ctl_epoch_seen(), 2, "periphery missed the new epoch");
    }
    assert_eq!(r.cpu, cpu, "promoted rollup equals ground truth");
    assert_eq!(r.containers, containers);
    assert_eq!(u64::from(r.hosts), u64::from(HOSTS));
    assert_eq!(r.partitioned, 0, "a host never healed after promotion");
    assert!(
        standby.metrics().snapshot().not_leader_rejects >= 1,
        "nobody ever bounced off the pre-promotion standby"
    );

    // Readers raced the whole failover: they accepted rollups, every
    // accepted epoch was monotone (enforced inline), and whoever saw the
    // new epoch ended at exactly 2.
    let mut accepted_total = 0u64;
    for (accepted, _fenced, max_epoch) in &reader_results {
        accepted_total += accepted;
        assert!(
            *max_epoch == 2 || *max_epoch == 1,
            "reader accepted an impossible epoch {max_epoch}"
        );
    }
    assert!(accepted_total > 0, "readers must actually race the ingest");
    assert!(
        reader_results.iter().any(|(_, _, e)| *e == 2),
        "no reader ever reached the promoted leader"
    );

    // Scrape the exposition over the wire (the primary's socket is
    // dead; the survivor's answers): every host's freshness lag and
    // agent summary must be published as labelled gauges.
    let mut scraper = one_attempt_client(&path_b);
    let resp = scraper
        .request(&encode_query(&Query {
            kind: QUERY_STATS,
            arg: 0,
        }))
        .expect("stats request");
    let Some(Frame::Rollup(frame)) = decode_frame(&resp) else {
        panic!("expected ROLLUP");
    };
    let Rollup::Stats(text) = frame.body else {
        panic!("stats query answered with a non-stats rollup");
    };
    for h in 0..HOSTS {
        assert!(
            text.contains(&format!(
                "arv_fleet_host_freshness_lag_ticks{{host=\"{h}\"}}"
            )),
            "exposition is missing host {h}'s freshness lag"
        );
        assert!(
            text.contains(&format!(
                "arv_fleet_host_e2e_lag_ticks_count{{host=\"{h}\"}}"
            )),
            "exposition is missing host {h}'s waterfall"
        );
    }
    assert!(
        text.contains("arv_fleet_flight_dumps"),
        "exposition is missing the flight-dump gauge"
    );

    // Retrieve the black box over the same wire: among the frozen
    // dumps there must be the promotion, with a non-empty causal
    // event ring.
    let mut saw_promotion = false;
    for back in 0..16u32 {
        let resp = scraper
            .request(&encode_query(&Query {
                kind: QUERY_FLIGHT,
                arg: back,
            }))
            .expect("flight request");
        let Some(Frame::Rollup(frame)) = decode_frame(&resp) else {
            panic!("expected ROLLUP");
        };
        let Rollup::Flight(bytes) = frame.body else {
            panic!("flight query answered with a non-flight rollup");
        };
        if bytes.is_empty() {
            break;
        }
        let dump = FlightDump::decode(&bytes).expect("retrieved dump decodes");
        if dump.trigger == PipelineEvent::FleetPromoted {
            assert!(
                dump.events.iter().any(|e| e.tick == dump.tick
                    && e.kind == EventKind::Pipeline(PipelineEvent::FleetPromoted)),
                "promotion dump froze a ring without its promotion"
            );
            saw_promotion = true;
        }
    }
    assert!(
        saw_promotion,
        "the mid-stream promotion never produced a retrievable flight dump"
    );

    standby_srv.shutdown();
}

/// The primary's lease store runs out of space mid-stream: the tick
/// the first renewal fails to persist, the primary steps down —
/// strictly before the TTL of its last durable renewal — and keeps
/// serving only `not_leader` refusals at its fenced epoch. The standby
/// takes the lease the moment the store recovers, every periphery
/// walks over the real wire, and the deposed primary — whose own
/// journal store hit a disk-full window of its own — ends the test
/// healed: `DurabilityLost` cleared, fleet totals mirroring ground
/// truth on the new leader.
#[test]
fn lease_store_outage_steps_primary_down_before_ttl() {
    const ROUNDS: u32 = 24;
    /// The lease store's disk-full window `[at, at+len)` in ticks.
    const FULL_AT: u64 = 10;
    const FULL_LEN: u64 = 4;

    let lease = SharedLease::with_store(Box::new(FaultyStore::new(
        0x1EA5E,
        StoreFaults {
            full_at: Some((FULL_AT, FULL_LEN)),
            ..StoreFaults::default()
        },
    )));
    let mut primary = FleetController::new(8, FleetPolicy::default());
    primary.enable_journal_with_store(
        Box::new(FaultyStore::new(
            0xD15C,
            StoreFaults {
                full_at: Some((FULL_AT, 3)),
                ..StoreFaults::default()
            },
        )),
        2,
    );
    let primary = Arc::new(primary);
    primary.attach_lease(lease.clone(), 1, LEASE_TTL);
    primary.enable_replication();
    let standby = Arc::new(FleetController::new(8, FleetPolicy::default()));
    standby.attach_lease(lease, 2, LEASE_TTL);
    assert!(primary.is_leader() && !standby.is_leader());

    let path_a = sock_path("lease-primary");
    let path_b = sock_path("lease-standby");
    let mut primary_srv =
        arv_fleet::FleetWireServer::spawn(Arc::clone(&primary), &path_a).expect("spawn primary");
    let mut standby_srv =
        arv_fleet::FleetWireServer::spawn(Arc::clone(&standby), &path_b).expect("spawn standby");

    let mut hosts: Vec<SimHost> = Vec::new();
    let mut ids = Vec::new();
    for h in 0..HOSTS {
        let mut host = SimHost::paper_testbed();
        let launched: Vec<_> = (0..CONTAINERS_PER_HOST)
            .map(|i| {
                host.launch(
                    &ContainerSpec::new(format!("lf-{h}-{i}"), 20)
                        .cpus(10.0)
                        .cpu_shares(1024),
                )
            })
            .collect();
        let mut p = Periphery::new(h);
        for (i, _) in launched.iter().enumerate() {
            p.set_tenant(i as u32 + 1, h % 2);
        }
        host.attach_periphery(p);
        ids.push(launched);
        hosts.push(host);
    }

    let mut conns: Vec<FleetClient> = (0..HOSTS)
        .map(|h| {
            FleetClient::new(
                [path_a.clone(), path_b.clone()],
                RetryPolicy {
                    jitter_seed: 0x1EA5 + u64::from(h),
                    ..RetryPolicy::fast_test()
                },
            )
        })
        .collect();
    let mut repl_conn = one_attempt_client(&path_b);

    let mut last_ok_renew_tick = 0u64;
    let mut step_down_tick = u64::MAX;
    let mut promote_tick = u64::MAX;
    let mut primary_degraded_seen = false;
    for round in 0..ROUNDS {
        for (h, host) in hosts.iter_mut().enumerate() {
            let busy = usize::try_from(round % CONTAINERS_PER_HOST).unwrap();
            let demands = vec![host.demand(ids[h][busy], 20)];
            host.step(&demands);
            for frame in host.take_fleet_frames() {
                let Ok(resp) = conns[h].request(&frame) else {
                    continue;
                };
                if conns[h].take_reconnected() {
                    if let Some(p) = host.periphery_mut() {
                        p.on_reconnect();
                    }
                }
                let Some(Frame::Ack(ack)) = decode_frame(&resp) else {
                    continue;
                };
                if step_down_tick != u64::MAX && !ack.not_leader {
                    // Anything the deposed primary still acks
                    // positively would be un-fenceable.
                    assert!(
                        ack.ctl_epoch >= 2,
                        "a stepped-down primary acked a frame at its old epoch"
                    );
                }
                let disp = host
                    .periphery_mut()
                    .map(|p| p.handle_ack(&ack))
                    .unwrap_or(AckDisposition::Ignored);
                if disp == AckDisposition::NotLeader {
                    conns[h].advance_controller();
                    if let Some(p) = host.periphery_mut() {
                        p.on_reconnect();
                    }
                }
            }
        }
        if primary.is_leader() {
            for frame in primary.take_repl_frames() {
                if let Ok(resp) = repl_conn.request(&frame) {
                    if let Some(Frame::Ack(ack)) = decode_frame(&resp) {
                        primary.handle_repl_ack(&ack);
                    }
                }
            }
        }
        // The standby contends first each tick: once the deposed
        // primary's lease expires it must not win the re-acquire race
        // against the standby that is taking over.
        standby.advance_tick();
        let was_leader = primary.is_leader();
        primary.advance_tick();
        let tick = u64::from(round) + 1;
        if was_leader && primary.is_leader() {
            last_ok_renew_tick = tick;
        }
        if was_leader && !primary.is_leader() && step_down_tick == u64::MAX {
            step_down_tick = tick;
        }
        if promote_tick == u64::MAX && standby.is_leader() {
            promote_tick = tick;
        }
        primary_degraded_seen |= primary.journal_degraded();
    }

    // Ground-truth lease arithmetic: the last renewal that actually
    // persisted (tick FULL_AT - 1) keeps the lease alive through
    // FULL_AT - 1 + TTL. The primary must step down strictly before
    // that expiry — at its first unpersistable renewal, not its last
    // legal tick.
    assert_eq!(
        step_down_tick, FULL_AT,
        "the primary must step down the tick the store refuses a renewal"
    );
    assert_eq!(last_ok_renew_tick, FULL_AT - 1);
    assert!(
        step_down_tick < last_ok_renew_tick + LEASE_TTL,
        "step-down at {step_down_tick} is not before the TTL expiry {}",
        last_ok_renew_tick + LEASE_TTL
    );
    // The standby takes over the moment the store recovers — within
    // the lease budget, not after it.
    assert_eq!(
        promote_tick,
        FULL_AT + FULL_LEN,
        "the standby must take the lease the first tick the store recovers"
    );
    assert!(standby.is_leader() && !primary.is_leader());
    assert_eq!(standby.ctl_epoch(), 2);
    assert_eq!(standby.metrics().snapshot().promotions, 1);
    assert!(
        primary.metrics().snapshot().demotions >= 1,
        "the step-down must register as a demotion"
    );
    assert!(
        primary.metrics().snapshot().journal_io_errors >= 1,
        "the refused renewals and journal writes must surface in metrics"
    );

    // The deposed primary's own journal store hit a disk-full window:
    // it must have walked the durability ladder down and back up.
    assert!(
        primary_degraded_seen,
        "the primary's journal never degraded through its disk-full window"
    );
    assert!(
        !primary.journal_degraded(),
        "the primary must heal once its journal store recovers"
    );

    // Every periphery walked to the standby and the promoted leader's
    // totals equal per-host ground truth exactly.
    let r = standby.cluster_capacity();
    let (mut cpu, mut containers) = (0u64, 0u64);
    for host in &hosts {
        let snap = host.monitor().snapshot();
        cpu += snap.entries.iter().map(|e| u64::from(e.e_cpu)).sum::<u64>();
        containers += snap.entries.len() as u64;
        let p = host.periphery().expect("periphery attached");
        assert!(p.stats().failovers >= 1, "periphery never failed over");
        assert_eq!(p.ctl_epoch_seen(), 2, "periphery missed the new epoch");
    }
    assert_eq!(r.cpu, cpu, "promoted rollup equals ground truth");
    assert_eq!(r.containers, containers);
    assert_eq!(r.partitioned, 0, "a host never healed after promotion");

    primary_srv.shutdown();
    standby_srv.shutdown();
}

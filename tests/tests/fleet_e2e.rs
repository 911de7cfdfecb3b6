//! Fleet control-plane end-to-end: real hosts, the real wire, racing
//! rollup readers.
//!
//! Several [`arv_container::SimHost`]s with attached peripheries ship
//! their view deltas to one [`arv_fleet::FleetController`] over the
//! Unix-socket transport while reader threads hammer the same socket
//! with cluster/tenant/top-k/stats queries. The rollups every reader
//! sees must be internally consistent at all times, and once the fleet
//! quiesces the controller's totals must equal the per-host ground
//! truth exactly. A garbage frame from a broken client must cost that
//! client its connection — and nothing else.

use arv_container::{ContainerSpec, SimHost};
use arv_fleet::{
    decode_frame, encode_query, FleetClient, FleetController, FleetPolicy, Frame, Periphery, Query,
    Rollup, QUERY_CLUSTER, QUERY_STATS, QUERY_TENANT, QUERY_TOPK,
};
use arv_viewd::{RetryPolicy, WireError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const HOSTS: u32 = 4;
const CONTAINERS_PER_HOST: u32 = 3;
const ROUNDS: u32 = 40;

fn sock_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("arv-fleet-e2e-{}-{name}", std::process::id()));
    p
}

/// A client of the one controller at `path` that makes one attempt per
/// request: a dropped connection fails the request instead of being
/// ridden over by a silent reconnect.
fn client(path: &Path) -> FleetClient {
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    FleetClient::new([path], policy)
}

fn query(client: &mut FleetClient, kind: u8, arg: u32) -> Option<Rollup> {
    let resp = client
        .request(&encode_query(&Query { kind, arg }))
        .expect("wire up");
    match decode_frame(&resp) {
        Some(Frame::Rollup(r)) => Some(r.body),
        _ => None,
    }
}

#[test]
fn fleet_over_the_wire_with_racing_readers() {
    let controller = Arc::new(FleetController::new(8, FleetPolicy::default()));
    let path = sock_path("race");
    let mut server =
        arv_fleet::FleetWireServer::spawn(Arc::clone(&controller), &path).expect("spawn fleet");

    // Real hosts, each with an attached periphery and its own client
    // connection (one conversation per periphery, frames in order).
    let mut hosts: Vec<SimHost> = Vec::new();
    let mut ids = Vec::new();
    for h in 0..HOSTS {
        let mut host = SimHost::paper_testbed();
        let launched: Vec<_> = (0..CONTAINERS_PER_HOST)
            .map(|i| {
                host.launch(
                    &ContainerSpec::new(format!("e2e-{h}-{i}"), 20)
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
    let reader_rounds = std::thread::scope(|s| {
        // Racing rollup readers: each holds its own connection and
        // checks invariants that must hold mid-ingest, on every answer.
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let path = path.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut client = client(&path);
                    let mut rounds = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        if let Some(Rollup::Cluster { rollup, .. }) =
                            query(&mut client, QUERY_CLUSTER, 0)
                        {
                            assert!(rollup.hosts <= HOSTS);
                            assert!(
                                rollup.containers
                                    <= u64::from(HOSTS) * u64::from(CONTAINERS_PER_HOST)
                            );
                            assert!(rollup.partitioned <= rollup.hosts);
                        }
                        if let Some(Rollup::Tenant { rollup, .. }) =
                            query(&mut client, QUERY_TENANT, r % 2)
                        {
                            assert!(
                                rollup.containers
                                    <= u64::from(HOSTS) * u64::from(CONTAINERS_PER_HOST)
                            );
                        }
                        if let Some(Rollup::TopK(points)) = query(&mut client, QUERY_TOPK, 5) {
                            assert!(points.len() <= 5);
                            for w in points.windows(2) {
                                assert!(
                                    w[0].pressure_milli >= w[1].pressure_milli,
                                    "top-k must be sorted most-pressured first"
                                );
                            }
                        }
                        rounds += 1;
                    }
                    rounds
                })
            })
            .collect();

        // A broken client: garbage costs it the connection, nobody else.
        let broken = s.spawn(|| {
            let mut c = client(&path);
            let answer = c.request(&[0xDE, 0xAD, 0xBE, 0xEF]);
            assert!(
                matches!(answer, Err(WireError::Disconnected)),
                "garbage must drop the conversation: {answer:?}"
            );
        });

        // The ingest loop: step every host, ship its frames, feed ACKs
        // back, advance the controller clock.
        let mut conns: Vec<FleetClient> = (0..HOSTS).map(|_| client(&path)).collect();
        for round in 0..ROUNDS {
            for (h, host) in hosts.iter_mut().enumerate() {
                let busy = usize::try_from(round % CONTAINERS_PER_HOST).unwrap();
                let demands = vec![host.demand(ids[h][busy], 20)];
                host.step(&demands);
                for frame in host.take_fleet_frames() {
                    let resp = conns[h].request(&frame).expect("periphery wire");
                    host.deliver_fleet_ack(&resp);
                }
            }
            controller.advance_tick();
        }
        broken.join().expect("broken client");
        stop.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .sum::<u64>()
    });
    assert!(reader_rounds > 0, "readers must actually race the ingest");

    // Quiesced: the controller's totals equal per-host ground truth.
    let r = controller.cluster_capacity();
    let (mut cpu, mut containers) = (0u64, 0u64);
    for host in &hosts {
        let snap = host.monitor().snapshot();
        cpu += snap.entries.iter().map(|e| u64::from(e.e_cpu)).sum::<u64>();
        containers += snap.entries.len() as u64;
    }
    assert_eq!(r.cpu, cpu, "cluster CPU rollup equals ground truth");
    assert_eq!(r.containers, containers);
    assert_eq!(u64::from(r.hosts), u64::from(HOSTS));
    assert_eq!(r.partitioned, 0);

    // The stats query serves the fleet counters over the same socket.
    let Some(Rollup::Stats(text)) = query(&mut client(&path), QUERY_STATS, 0) else {
        panic!("expected stats exposition");
    };
    for name in [
        "arv_fleet_deltas_ingested_total",
        "arv_fleet_rollup_queries_total",
        "arv_fleet_hosts",
    ] {
        assert!(text.contains(name), "exposition missing {name}");
    }
    let m = controller.metrics().snapshot();
    assert!(m.deltas_ingested >= u64::from(HOSTS));
    assert!(m.malformed_frames >= 1, "the broken client was counted");
    assert_eq!(m.deltas_gap_resyncs, 0, "an ordered wire never gaps");

    server.shutdown();
}

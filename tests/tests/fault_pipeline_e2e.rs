//! End-to-end fault test for the wire pipeline: robust clients race an
//! updater over a Unix socket while the daemon is killed and restarted
//! mid-stream. No reader may panic; every live image must be untorn
//! (`bytes = cpus × 64 MiB`, `avail = bytes / 2`); live generations must
//! be monotone per reader; during the outage every reader must be served
//! its last-good answer flagged degraded; and after the restart every
//! reader must get live answers again through its own reconnect.

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::effective_cpu::CpuBounds;
use arv_resview::effective_mem::{EffectiveMemory, EffectiveMemoryConfig};
use arv_resview::EffectiveCpuConfig;
use arv_viewd::{HostSpec, RetryPolicy, ViewServer, WireClient, WireServer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

const MIB: u64 = 1024 * 1024;
const STRIDE: u64 = 64 * MIB;
const MAX_CPUS: u64 = 16;

fn test_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("arv-fault-e2e-{}-{tag}.sock", std::process::id()))
}

fn mk_server(ids: &[CgroupId]) -> ViewServer {
    let server = ViewServer::new(HostSpec::paper_testbed(), 8);
    for id in ids {
        server.register(
            *id,
            CpuBounds {
                lower: 1,
                upper: 16,
            },
            EffectiveCpuConfig::default(),
            EffectiveMemory::new(
                Bytes(STRIDE),
                Bytes(MAX_CPUS * STRIDE),
                Bytes::from_mib(1280),
                Bytes::from_mib(2560),
                EffectiveMemoryConfig::default(),
            ),
        );
    }
    for id in ids {
        publish(&server, *id, 1);
    }
    server
}

/// Publish the view for round `k`: `cpus` in `1..=16`, `bytes` derived
/// from it, `avail` half of that — the invariants readers check.
fn publish(server: &ViewServer, id: CgroupId, k: u64) {
    let cpus = (k % MAX_CPUS) + 1;
    let bytes = cpus * STRIDE;
    assert!(server.mirror(id, cpus as u32, Bytes(bytes), Bytes(bytes / 2)));
}

fn parse_meminfo(image: &str) -> (u64, u64) {
    let field = |name: &str| {
        let line = image
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("meminfo missing {name}: {image:?}"));
        let kb: u64 = line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad meminfo line {line:?}"));
        kb * 1024
    };
    (field("MemTotal:"), field("MemFree:"))
}

/// Check one served meminfo image is internally consistent.
fn assert_untorn(image: &str) {
    let (total, free) = parse_meminfo(image);
    assert_eq!(total % STRIDE, 0, "torn meminfo: MemTotal {total}");
    assert!((1..=MAX_CPUS).contains(&(total / STRIDE)));
    assert_eq!(free, total / 2, "torn meminfo: {total} vs free {free}");
}

struct ReaderResult {
    live_reads: u64,
    degraded_reads: u64,
    reconnects: u64,
    fallback_serves: u64,
    retries: u64,
}

#[test]
fn readers_ride_through_wire_server_restart() {
    const READERS: usize = 4;
    const WARMUP_ITERS: u64 = 30;
    const POST_RESTART_LIVE: u64 = 30;

    let ids = [CgroupId(1), CgroupId(2)];
    let view = mk_server(&ids);
    let socket = test_socket("restart");
    let _ = std::fs::remove_file(&socket);
    let wire = WireServer::spawn(view.clone(), &socket).expect("spawn wire server");

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(READERS + 1));
    let iters: Arc<Vec<AtomicU64>> = Arc::new((0..READERS).map(|_| AtomicU64::new(0)).collect());
    let degraded: Arc<Vec<AtomicU64>> = Arc::new((0..READERS).map(|_| AtomicU64::new(0)).collect());
    let live_after: Arc<Vec<AtomicU64>> =
        Arc::new((0..READERS).map(|_| AtomicU64::new(0)).collect());
    let restarted = Arc::new(AtomicBool::new(false));

    // In-process updater keeps the views moving the whole time, so the
    // wire outage happens against a moving target. It sleeps between
    // rounds instead of spinning — on a small machine a hot publisher
    // would starve the reader and server threads it is racing.
    let updater = {
        let view = view.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut round = 1u64;
            while !stop.load(Ordering::Acquire) {
                round += 1;
                for id in &ids {
                    publish(&view, *id, round);
                }
                thread::sleep(Duration::from_micros(200));
            }
        })
    };

    let mut readers = Vec::new();
    for r in 0..READERS {
        let socket = socket.clone();
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let iters = Arc::clone(&iters);
        let degraded = Arc::clone(&degraded);
        let live_after = Arc::clone(&live_after);
        let restarted = Arc::clone(&restarted);
        let id = ids[r % ids.len()];
        readers.push(thread::spawn(move || -> ReaderResult {
            let policy = RetryPolicy {
                jitter_seed: 0xE2E + r as u64,
                ..RetryPolicy::fast_test()
            };
            let mut client = WireClient::new(&socket, policy);
            let mut last_live_generation = 0u64;
            let mut live_reads = 0u64;
            let mut degraded_reads = 0u64;
            barrier.wait();
            while !stop.load(Ordering::Acquire) {
                let resp = client
                    .read(Some(id), "/proc/meminfo")
                    .expect("either a live answer or the last-good fallback")
                    .expect("container is registered");
                let image = String::from_utf8(resp.body.clone()).expect("utf8 image");
                // Degraded or live, a served image is never torn.
                assert_untorn(&image);
                if resp.degraded {
                    degraded_reads += 1;
                    degraded[r].fetch_add(1, Ordering::Relaxed);
                } else {
                    // Live generations are monotone per reader; the
                    // degraded fallback may legitimately replay an older
                    // one, so only live answers advance the watermark.
                    assert!(
                        resp.generation >= last_live_generation,
                        "live generation regressed {last_live_generation} -> {}",
                        resp.generation
                    );
                    last_live_generation = resp.generation;
                    live_reads += 1;
                    if restarted.load(Ordering::Acquire) {
                        live_after[r].fetch_add(1, Ordering::Relaxed);
                    }
                }
                iters[r].fetch_add(1, Ordering::Relaxed);
            }
            let stats = client.stats();
            ReaderResult {
                live_reads,
                degraded_reads,
                reconnects: stats.reconnects,
                fallback_serves: stats.fallback_serves,
                retries: stats.retries,
            }
        }));
    }

    barrier.wait();
    let wait_until = |cond: &dyn Fn() -> bool, what: &str| {
        for _ in 0..20_000 {
            if cond() {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    };

    // Phase 1: everyone reads live answers.
    wait_until(
        &|| {
            iters
                .iter()
                .all(|i| i.load(Ordering::Relaxed) >= WARMUP_ITERS)
        },
        "warmup reads",
    );

    // Phase 2: kill the daemon mid-stream. Readers must degrade to their
    // last-good answers instead of panicking or erroring out.
    wire.shutdown();
    wait_until(
        &|| degraded.iter().all(|d| d.load(Ordering::Relaxed) >= 1),
        "degraded serving during the outage",
    );

    // Phase 3: restart on the same socket. Every reader must reconnect
    // by itself and see live answers again.
    let wire2 = WireServer::spawn(view.clone(), &socket).expect("respawn wire server");
    restarted.store(true, Ordering::Release);
    wait_until(
        &|| {
            live_after
                .iter()
                .all(|l| l.load(Ordering::Relaxed) >= POST_RESTART_LIVE)
        },
        "live reads after restart",
    );

    stop.store(true, Ordering::Release);
    let results: Vec<ReaderResult> = readers
        .into_iter()
        .map(|h| h.join().expect("reader panicked"))
        .collect();
    updater.join().expect("updater panicked");
    wire2.shutdown();
    let _ = std::fs::remove_file(&socket);

    for (r, res) in results.iter().enumerate() {
        assert!(res.live_reads >= WARMUP_ITERS, "reader {r}");
        assert!(
            res.degraded_reads >= 1 && res.fallback_serves >= 1,
            "reader {r} never served the fallback during the outage"
        );
        assert!(
            res.reconnects >= 1,
            "reader {r} never re-established its connection"
        );
        assert!(
            res.retries >= 1,
            "reader {r} rode through the outage without retrying"
        );
    }
    // The daemon never counted a reader as a failure.
    assert_eq!(view.metrics().failures, 0);
}

#[test]
fn hostile_connection_does_not_disturb_other_clients() {
    use std::io::{Read as _, Write as _};

    let ids = [CgroupId(9)];
    let view = mk_server(&ids);
    let socket = test_socket("hostile");
    let _ = std::fs::remove_file(&socket);
    let wire = WireServer::spawn(view.clone(), &socket).expect("spawn wire server");

    let mut client = WireClient::new(&socket, RetryPolicy::fast_test());
    let before = client
        .read(Some(ids[0]), "/proc/meminfo")
        .expect("wire up")
        .expect("registered");
    assert!(!before.degraded);
    assert_untorn(&String::from_utf8(before.body).expect("utf8"));

    // An oversized frame, a torn frame, and raw garbage, each on its own
    // connection.
    for hostile in [
        (1_000_000u32).to_le_bytes().to_vec(),
        {
            let mut torn = 64u32.to_le_bytes().to_vec();
            torn.extend_from_slice(b"short");
            torn
        },
        b"\xff\xfe\xfd\xfc garbage".to_vec(),
    ] {
        let mut s = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let _ = s.write_all(&hostile);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
    }

    // The well-behaved client still gets live, untorn answers on the
    // same connection, and the server accounted for the rejects.
    let after = client
        .read(Some(ids[0]), "/proc/meminfo")
        .expect("daemon survived")
        .expect("registered");
    assert!(!after.degraded);
    assert_untorn(&String::from_utf8(after.body).expect("utf8"));
    assert!(view.metrics().wire_rejected >= 2);
    assert_eq!(client.stats().failures, 0);

    wire.shutdown();
    let _ = std::fs::remove_file(&socket);
}

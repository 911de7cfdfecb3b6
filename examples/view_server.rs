//! The full serving stack: a simulated host drives three containers with
//! different quotas, an attached `arv-viewd` daemon mirrors their
//! adaptive views, and reader threads hammer the daemon — in-process and
//! over the Unix-socket wire protocol — while the simulation runs.
//!
//! ```text
//! cargo run --release --example view_server
//! ```

use arv_container::{ContainerSpec, SimHost};
use arv_resview::Sysconf;
use arv_viewd::{RetryPolicy, ViewServer, WireClient, WireServer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

fn main() {
    let mut host = SimHost::paper_testbed();
    let server = ViewServer::new(host.viewd_host_spec(), 8);
    host.attach_viewd(server.clone());

    // Three containers with different quotas; all CPU-hungry.
    let ids = [
        host.launch(&ContainerSpec::new("small", 20).cpus(2.0)),
        host.launch(&ContainerSpec::new("medium", 20).cpus(4.0)),
        host.launch(&ContainerSpec::new("large", 20).cpus(8.0)),
    ];

    // The daemon's wire endpoint, for out-of-process readers.
    let socket =
        std::env::temp_dir().join(format!("arv-viewd-example-{}.sock", std::process::id()));
    let wire = WireServer::spawn(server.clone(), &socket).expect("bind wire socket");

    // Reader threads hammer the daemon while the simulation runs.
    let stop = Arc::new(AtomicBool::new(false));
    let progress: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
    let mut readers = Vec::new();
    for (r, id) in ids.iter().cycle().take(4).enumerate() {
        let client = server.client();
        let stop = Arc::clone(&stop);
        let progress = Arc::clone(&progress);
        let id = *id;
        readers.push(thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Acquire) {
                let path =
                    ["/proc/cpuinfo", "/proc/meminfo", "/proc/stat", "cpu.max"][reads as usize % 4];
                client.read(Some(id), path).expect("renderable");
                client.sysconf(Some(id), Sysconf::NprocessorsOnln);
                reads += 1;
                progress[r].store(reads, Ordering::Relaxed);
            }
            println!("reader {r} ({id:?}): {reads} read+sysconf rounds");
        }));
    }
    let wire_progress = Arc::new(AtomicU64::new(0));
    let wire_reader = {
        let stop = Arc::clone(&stop);
        let socket = socket.clone();
        let id = ids[2];
        let wire_progress = Arc::clone(&wire_progress);
        thread::spawn(move || {
            let mut client = WireClient::new(&socket, RetryPolicy::default());
            let mut reads = 0u64;
            while !stop.load(Ordering::Acquire) {
                let resp = client
                    .read(Some(id), "/proc/cpuinfo")
                    .expect("wire io")
                    .expect("known path");
                assert!(!resp.body.is_empty());
                reads += 1;
                wire_progress.store(reads, Ordering::Relaxed);
            }
            println!("wire reader ({id:?}): {reads} reads over the socket");
        })
    };

    // Drive the simulation: everyone busy at first, then the neighbours
    // go idle and `large` expands into the slack — every update-timer
    // firing republishes the views the readers are racing against. Keep
    // stepping until every reader has raced at least 5000 rounds.
    let mut step = 0u64;
    while step < 400
        || progress.iter().any(|p| p.load(Ordering::Relaxed) < 5_000)
        || wire_progress.load(Ordering::Relaxed) < 500
    {
        let demands: Vec<_> = if step % 400 < 200 {
            ids.iter().map(|id| host.demand(*id, 20)).collect()
        } else {
            vec![host.demand(ids[2], 20)]
        };
        host.step(&demands);
        step += 1;
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        r.join().unwrap();
    }
    wire_reader.join().unwrap();
    drop(wire);

    println!("\nafter {} of simulated time:", host.now());
    let client = server.client();
    for id in &ids {
        println!(
            "  {:<8} effective_cpu={:<2} view_mem={:>6} MiB  generation={}",
            host.container_name(*id).unwrap(),
            client.sysconf(Some(*id), Sysconf::NprocessorsOnln),
            client.sysconf(Some(*id), Sysconf::PhysPages) * arv_resview::PAGE_SIZE / (1024 * 1024),
            client.generation(*id).unwrap(),
        );
    }

    let m = server.metrics();
    println!("\ndaemon metrics:");
    println!("  queries        {}", m.queries);
    println!(
        "  cache hits     {} ({:.1}%)",
        m.cache_hits,
        100.0 * m.cache_hits as f64 / m.queries.max(1) as f64
    );
    println!("  cache misses   {}", m.cache_misses);
    println!("  wire requests  {}", m.wire_requests);
    println!(
        "  hit latency    {:.0} ns mean, p99 ≤ {} ns",
        m.hit_latency_ns, m.hit_p99_ns
    );
    println!(
        "  miss latency   {:.0} ns mean, p99 ≤ {} ns",
        m.miss_latency_ns, m.miss_p99_ns
    );
    assert_eq!(m.cache_hits + m.cache_misses, m.queries);
}

//! Allocation guard for the read path: heap allocations are counted,
//! not timed, so a regression to a buffer per request (a copied frame,
//! a heap head, an iovec `Vec`, a re-rendered image) cannot hide in
//! machine noise.
//!
//! Its own test binary because it installs a counting global allocator.
//! It counts per thread and process-wide: the in-process tests read
//! their own thread's count, the wire test the process's minus its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::{CpuBounds, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig, Sysconf};
use arv_viewd::{
    FrameDecoder, HostSpec, ServerConfig, ViewServer, WireServer, CONTAINER_PATHS, KIND_READ,
    KIND_SYSCONF, MAX_RESPONSE,
};

struct Counting;

static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = THREAD.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only an atomic and a
// `Cell` local to the calling thread and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The wire test reads the process-wide count, so no other test of this
/// binary may run beside it.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = THREAD.with(Cell::get);
    let out = f();
    (THREAD.with(Cell::get) - before, out)
}

const CONTAINERS: u32 = 8;

fn server() -> ViewServer {
    let server = ViewServer::new(HostSpec::paper_testbed(), 8);
    for id in 0..CONTAINERS {
        server.register(
            CgroupId(id),
            CpuBounds {
                lower: 2,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            EffectiveMemory::new(
                Bytes::from_mib(500),
                Bytes::from_gib(1),
                Bytes::from_mib(64),
                Bytes::from_mib(128),
                EffectiveMemoryConfig::default(),
            ),
        );
    }
    server
}

#[test]
fn in_process_hits_scalars_and_cpu_keyed_misses_do_not_allocate() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = server();
    let client = server.client();
    let id = CgroupId(3);
    let publish = |cpus: u32| {
        let mem = Bytes::from_mib(100 * u64::from(cpus));
        assert!(server.mirror(id, cpus, mem, mem));
    };
    // Warm: the image-table slots for 4 and 5 CPUs, and the cache.
    for cpus in [4, 5, 4] {
        publish(cpus);
        for path in CONTAINER_PATHS {
            client.read(Some(id), path).expect("known path");
        }
    }

    let (n, view) = allocations(|| client.read(Some(id), "/proc/cpuinfo"));
    assert_eq!(
        view.expect("known path").image.matches("processor").count(),
        4
    );
    assert_eq!(n, 0, "a cached read allocated");

    let (n, cpus) = allocations(|| client.sysconf(Some(id), Sysconf::NprocessorsOnln));
    assert_eq!((n, cpus), (0, 4), "a sysconf allocated");

    // A generation miss on a warm slot: snapshot, index, clone, put.
    publish(5);
    let before = server.metrics();
    for path in CONTAINER_PATHS {
        let (n, view) = allocations(|| client.read(Some(id), path));
        let view = view.expect("known path");
        match path {
            "/proc/meminfo" | "memory.max" => {
                assert!(n <= 2, "a {path} miss made {n} allocations")
            }
            _ => assert_eq!(n, 0, "a {path} miss on a warm table slot allocated"),
        }
        if path == "/proc/cpuinfo" {
            assert_eq!(view.image.matches("processor").count(), 5);
        }
    }
    let after = server.metrics();
    assert_eq!(after.cache_misses - before.cache_misses, 6);
    assert_eq!(
        after.renders - before.renders,
        2,
        "only the memory-keyed files render"
    );
}

/// A request frame as a client writes it.
fn request(kind: u8, container: u32, key: &str) -> Vec<u8> {
    let mut frame = ((5 + key.len()) as u32).to_le_bytes().to_vec();
    frame.push(kind);
    frame.extend_from_slice(&container.to_le_bytes());
    frame.extend_from_slice(key.as_bytes());
    frame
}

/// Read `replies` whole frames off `stream` through `decoder`.
fn drain_replies(
    stream: &mut UnixStream,
    decoder: &mut FrameDecoder,
    buf: &mut [u8],
    mut replies: usize,
) {
    while replies > 0 {
        let n = stream.read(buf).expect("reply bytes");
        assert!(n > 0, "the daemon closed the connection");
        decoder.feed(&buf[..n]);
        while let Some(reply) = decoder.next_frame_ref().expect("well-framed replies") {
            assert!(reply.len() >= 9, "a reply carries status and generation");
            assert_eq!(reply[0], 0, "STATUS_OK");
            replies -= 1;
        }
    }
}

#[test]
fn pipelined_cached_reads_and_sysconfs_do_not_allocate_in_the_daemon() {
    const DEPTH: usize = 16;
    const BATCHES: usize = 625; // 10 000 requests
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = server();
    let socket = std::env::temp_dir().join(format!("arv-alloc-guard-{}.sock", std::process::id()));
    let config = ServerConfig::builder()
        .loops(1)
        .rate_burst(u32::MAX)
        .build()
        .expect("valid config");
    let wire = WireServer::spawn_with_config(server.clone(), &socket, config).expect("bind");
    let mut stream = UnixStream::connect(wire.socket_path()).expect("connect");

    // One batch: every file of one container, then sysconfs, 16 deep.
    let keys = ["nprocessors_onln", "phys_pages", "avphys_pages", "pagesize"];
    let mut batch = Vec::new();
    let mut files = 0;
    for i in 0..DEPTH {
        let container = (i as u32) % CONTAINERS;
        match CONTAINER_PATHS.get(i % 10) {
            Some(path) => {
                batch.extend(request(KIND_READ, container, path));
                files += 1;
            }
            None => batch.extend(request(KIND_SYSCONF, container, keys[i % 4])),
        }
    }
    let mut buf = vec![0u8; 64 * 1024];
    let mut decoder = FrameDecoder::new(MAX_RESPONSE);
    let mut round = |batches: usize| {
        let process = PROCESS.load(Ordering::Relaxed);
        let (mine, ()) = allocations(|| {
            for _ in 0..batches {
                stream.write_all(&batch).expect("send a batch");
                drain_replies(&mut stream, &mut decoder, &mut buf, DEPTH);
            }
        });
        PROCESS.load(Ordering::Relaxed) - process - mine
    };
    // Warm: every container's cache, the connection's buffers and queue.
    round(4 * CONTAINERS as usize);
    // The test harness's own threads may allocate (a result line of an
    // earlier test): a daemon that allocates per request does so in
    // every round, so the quietest of three is the daemon's count.
    let daemon = (0..3).map(|_| round(BATCHES)).min();
    assert_eq!(
        daemon,
        Some(0),
        "the daemon allocated while serving cached requests"
    );
    let m = server.metrics();
    assert_eq!(
        m.wire_requests,
        ((4 * CONTAINERS as usize + 3 * BATCHES) * DEPTH) as u64
    );
    // DEPTH < 10 * CONTAINERS, so a batch asks no (container, file) twice.
    assert_eq!(m.cache_misses, files, "one miss per cache entry");
    assert_eq!((m.failures, m.requests_shed, m.wire_errors), (0, 0, 0));
    wire.shutdown();
}

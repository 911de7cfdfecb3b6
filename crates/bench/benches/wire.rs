//! Wire-tier fanout benchmark with a machine-checkable report.
//!
//! A plain harness (like the fleet bench) measuring the numbers the
//! readiness reactor was built for, writing them to `BENCH_wire.json`
//! and exiting nonzero when a threshold is breached so `ci.sh` can gate
//! on one run:
//!
//! * **Fanout** — one viewd daemon holding ≥5000 concurrent
//!   connections, every one of them answered while all stay open, from
//!   `loops` event loops.
//! * **Cached-read p99** — serial request/response latency for a warm
//!   `/proc/cpuinfo` read over the socket, the paper's ~µs query cost
//!   plus wire round-trip. The threshold is ms-scale: it catches a
//!   per-request copy or render regression, not scheduler noise.
//!
//! The client side is itself a single-threaded epoll driver (over the
//! same `arv_viewd::sys` bindings), so client scheduling never skews
//! what the server is being measured on.

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::effective_cpu::CpuBounds;
use arv_resview::effective_mem::{EffectiveMemory, EffectiveMemoryConfig};
use arv_resview::EffectiveCpuConfig;
use arv_viewd::codec::{read_frame, write_frame};
use arv_viewd::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
use arv_viewd::{
    FrameDecoder, HostSpec, ServerConfig, ViewServer, WireServer, KIND_READ, MAX_RESPONSE,
};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Concurrent connections the fanout phase holds open at once.
const FANOUT_CONNS: usize = 5000;
/// Every fanout connection must be answered while all stay open.
const MIN_FANOUT_SERVED: usize = FANOUT_CONNS;
/// Serial warm-read samples for the latency distribution.
const P99_SAMPLES: usize = 10_000;
/// Ceiling on the warm cached-read p99 over the socket, milliseconds.
/// Release-mode round trips are tens of microseconds; this catches a
/// per-request body copy or a render on the hot path, not jitter.
const MAX_CACHED_READ_P99_MS: f64 = 5.0;
/// Hard wall-clock ceiling on any single drive phase.
const PHASE_DEADLINE: Duration = Duration::from_secs(120);

fn mk_server(containers: u32) -> ViewServer {
    let server = ViewServer::new(HostSpec::paper_testbed(), 8);
    for i in 0..containers {
        server.register(
            CgroupId(i),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            EffectiveMemory::new(
                Bytes::from_mib(500),
                Bytes::from_gib(1),
                Bytes::from_mib(1280),
                Bytes::from_mib(2560),
                EffectiveMemoryConfig::default(),
            ),
        );
    }
    server
}

/// A framed `KIND_READ` request for `key` from container `id`.
fn read_request(id: u32, key: &str) -> Vec<u8> {
    let payload_len = 5 + key.len();
    let mut out = Vec::with_capacity(4 + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.push(KIND_READ);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    out
}

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("arv-bench-wire-{}-{tag}.sock", std::process::id()))
}

fn connect_retry(path: &Path) -> io::Result<UnixStream> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// One connection in the epoll client driver. At most one request is in
/// flight per connection, so writes almost never block; the pending-out
/// buffer handles the rare partial write without spinning on EPOLLOUT.
struct DriveConn {
    stream: UnixStream,
    decoder: FrameDecoder,
    pending: Vec<u8>,
    pending_at: usize,
    remaining: u32,
    interest: u32,
}

impl DriveConn {
    /// Flush pending request bytes; true if fully drained.
    fn flush(&mut self) -> io::Result<bool> {
        while self.pending_at < self.pending.len() {
            match self.stream.write(&self.pending[self.pending_at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pending_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.pending.clear();
        self.pending_at = 0;
        Ok(true)
    }

    fn queue_request(&mut self, req: &[u8]) -> io::Result<bool> {
        self.pending.extend_from_slice(req);
        self.flush()
    }
}

/// Result of one epoll-driven load phase.
struct DriveResult {
    served_conns: usize,
    elapsed: Duration,
}

/// Open `n_conns` connections, keep them all open, and collect
/// `reqs_per_conn` responses on each with at most one request in flight
/// per connection. Single-threaded, readiness-driven.
fn drive(path: &Path, n_conns: usize, reqs_per_conn: u32, req: &[u8]) -> io::Result<DriveResult> {
    let epoll = Epoll::new()?;
    let mut conns = Vec::with_capacity(n_conns);
    for i in 0..n_conns {
        let stream = connect_retry(path)?;
        stream.set_nonblocking(true)?;
        epoll.add(stream.as_raw_fd(), EPOLLIN, i as u64)?;
        conns.push(DriveConn {
            stream,
            decoder: FrameDecoder::new(MAX_RESPONSE),
            pending: Vec::new(),
            pending_at: 0,
            remaining: reqs_per_conn,
            interest: EPOLLIN,
        });
    }

    let started = Instant::now();
    // Kick: one request per connection.
    for (i, conn) in conns.iter_mut().enumerate() {
        send_one(&epoll, conn, i, req)?;
    }

    let target = n_conns as u64 * u64::from(reqs_per_conn);
    let mut done = 0u64;
    let mut events = vec![EpollEvent::zeroed(); 1024];
    let mut buf = vec![0u8; 64 * 1024];
    while done < target {
        if started.elapsed() > PHASE_DEADLINE {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("drive phase stalled at {done}/{target} responses"),
            ));
        }
        let n = epoll.wait(&mut events, 100)?;
        for ev in events.iter().take(n) {
            let i = ev.data as usize;
            let Some(conn) = conns.get_mut(i) else {
                continue;
            };
            // Finish any partial request first.
            if !conn.pending.is_empty() && conn.flush()? {
                set_interest(&epoll, conn, i, EPOLLIN)?;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!("server closed connection {i} mid-load"),
                        ))
                    }
                    Ok(got) => {
                        conn.decoder.feed(&buf[..got]);
                        while let Some(_frame) = conn.decoder.next_frame().map_err(|e| {
                            io::Error::new(io::ErrorKind::InvalidData, e.to_string())
                        })? {
                            done += 1;
                            conn.remaining -= 1;
                            if conn.remaining > 0 {
                                send_one(&epoll, conn, i, req)?;
                            }
                        }
                        if conn.remaining == 0 {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }
    let elapsed = started.elapsed();
    let served = conns.iter().filter(|c| c.remaining == 0).count();
    Ok(DriveResult {
        served_conns: served,
        elapsed,
    })
}

fn send_one(epoll: &Epoll, conn: &mut DriveConn, i: usize, req: &[u8]) -> io::Result<()> {
    if conn.queue_request(req)? {
        set_interest(epoll, conn, i, EPOLLIN)
    } else {
        set_interest(epoll, conn, i, EPOLLIN | EPOLLOUT)
    }
}

fn set_interest(epoll: &Epoll, conn: &mut DriveConn, i: usize, want: u32) -> io::Result<()> {
    if conn.interest != want {
        conn.interest = want;
        epoll.modify(conn.stream.as_raw_fd(), want, i as u64)?;
    }
    Ok(())
}

/// Serial warm-read p99 over a blocking connection, milliseconds.
fn bench_cached_p99(path: &Path, req: &[u8]) -> io::Result<f64> {
    let mut stream = UnixStream::connect(path)?;
    // Warm the render cache so every measured read is the cached path.
    for _ in 0..64 {
        stream.write_all(req)?;
        read_frame(&mut stream, MAX_RESPONSE)?;
    }
    let mut lat_ns = Vec::with_capacity(P99_SAMPLES);
    for _ in 0..P99_SAMPLES {
        let t0 = Instant::now();
        stream.write_all(req)?;
        let resp = read_frame(&mut stream, MAX_RESPONSE)?;
        lat_ns.push(t0.elapsed().as_nanos() as u64);
        assert!(resp.is_some(), "server closed during latency phase");
    }
    lat_ns.sort_unstable();
    let idx = ((lat_ns.len() as f64 * 0.99) as usize).min(lat_ns.len() - 1);
    Ok(lat_ns[idx] as f64 / 1e6)
}

fn main() {
    let req = read_request(42, "/proc/cpuinfo");

    // Fanout + latency share one big daemon.
    let fanout_cfg = ServerConfig::builder()
        .max_connections(FANOUT_CONNS + 64)
        .rate_burst(1_000_000)
        .rate_refill_per_sec(1_000_000.0)
        .write_deadline(Duration::from_secs(30))
        .build()
        .expect("fanout config");
    let server = WireServer::spawn_with_config(mk_server(64), sock("fanout"), fanout_cfg)
        .expect("spawn fanout daemon");
    // Prime the cache so the fanout burst is served from shared images.
    {
        let mut s = UnixStream::connect(server.socket_path()).expect("prime connect");
        write_frame(&mut s, &req[4..]).expect("prime write");
        read_frame(&mut s, MAX_RESPONSE).expect("prime read");
    }
    let cached_read_p99_ms = bench_cached_p99(server.socket_path(), &req).expect("latency phase");
    let fanout = drive(server.socket_path(), FANOUT_CONNS, 1, &req).expect("fanout phase");
    server.shutdown();

    let json = format!(
        "{{\n  \"bench\": \"wire\",\n  \
         \"fanout_conns\": {FANOUT_CONNS},\n  \
         \"fanout_served\": {},\n  \
         \"fanout_drain_secs\": {:.3},\n  \
         \"cached_read_p99_ms\": {cached_read_p99_ms:.4},\n  \
         \"thresholds\": {{\n    \
         \"min_fanout_served\": {MIN_FANOUT_SERVED},\n    \
         \"max_cached_read_p99_ms\": {MAX_CACHED_READ_P99_MS}\n  }}\n}}\n",
        fanout.served_conns,
        fanout.elapsed.as_secs_f64(),
    );
    // Cargo runs bench binaries with the package as cwd; anchor the
    // report at the workspace root where ci.sh checks for it.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_wire.json");
    std::fs::write(&out, &json).expect("write BENCH_wire.json");
    print!("{json}");

    let mut failed = false;
    if fanout.served_conns < MIN_FANOUT_SERVED {
        eprintln!(
            "FAIL: fanout served {} of {FANOUT_CONNS} concurrent connections",
            fanout.served_conns
        );
        failed = true;
    }
    if cached_read_p99_ms > MAX_CACHED_READ_P99_MS {
        eprintln!("FAIL: cached-read p99 {cached_read_p99_ms:.4} ms > {MAX_CACHED_READ_P99_MS} ms");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("wire bench: all thresholds met");
}

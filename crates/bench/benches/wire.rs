//! Wire-tier fanout benchmark with a machine-checkable report.
//!
//! Measures the numbers the readiness reactor was built for, writes
//! them to `BENCH_wire.json`, and fails when a gate is breached so
//! `ci.sh` can gate on one run:
//!
//! * **Fanout** — one viewd daemon holding ≥5000 concurrent
//!   connections, every one of them answered while all stay open, from
//!   `loops` event loops. Gated: every connection must be served.
//! * **Cached-read p99** — serial request/response latency for a warm
//!   `/proc/cpuinfo` read over the socket, the paper's ~µs query cost
//!   plus wire round-trip. Reported, not gated: a per-request copy or
//!   render on the hot path is caught where it cannot hide in
//!   scheduler noise — `view-server/tests/alloc_guard.rs` counts 0
//!   allocations per cached read over the socket, and the `viewd`
//!   bench holds a re-stamped miss within 3 hits of the same run.
//!
//! The client side is itself a single-threaded epoll driver (over the
//! same `arv_viewd::sys` bindings), so client scheduling never skews
//! what the server is being measured on.

use arv_bench::{paper_server, Report};
use arv_viewd::codec::{read_frame, write_frame};
use arv_viewd::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
use arv_viewd::{FrameDecoder, ServerConfig, WireServer, KIND_READ, MAX_RESPONSE};
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
/// Hard wall-clock ceiling on any single drive phase.
const PHASE_DEADLINE: Duration = Duration::from_secs(120);

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
    let server = WireServer::spawn_with_config(paper_server(64), sock("fanout"), fanout_cfg)
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

    Report::new("wire")
        .value("fanout_conns", FANOUT_CONNS as f64)
        .at_least(
            "fanout_served",
            fanout.served_conns as f64,
            MIN_FANOUT_SERVED as f64,
            "the daemon dropped or starved connections while all of them stayed open",
        )
        .value("fanout_drain_secs", fanout.elapsed.as_secs_f64())
        .value("cached_read_p99_ms", cached_read_p99_ms)
        .finish();
}

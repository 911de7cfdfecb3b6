//! The read path: a containerized process asks, bytes come back on its
//! socket. `read_hot` serves static views (every file read is a cache
//! hit); `read_churn` publishes a new view before every second request,
//! so most file reads render.
//!
//! One driver thread, two blocking connections ([`Pipe`]), closed loops:
//! a serial part (one request in flight, gives the latency) and a
//! pipelined part (2 connections × 16 requests written as one batch each,
//! then all 32 replies read; gives throughput and CPU per request). Views are only
//! published while nothing is in flight, so for a seed and a request
//! count the daemon's hit and miss counts repeat exactly.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::{
    render, CpuBounds, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig, Sysconf,
    PAGE_SIZE,
};
use arv_viewd::{
    parse_response, HostSpec, MetricsSnapshot, ServerConfig, ViewServer, WireServer,
    CONTAINER_PATHS, KIND_READ, KIND_SYSCONF, MAX_RESPONSE,
};

use crate::harness::{
    count_of, socket_path, Checks, Lap, Measured, Outcome, Run, RunConfig, Stopwatch, MIB,
};
use crate::pipe::Pipe;
use crate::rng::Rng;
use crate::spans::SpanLog;
use crate::stats::{percentile_of, Sampler};

/// Sysconf keys of the mix, in request-table order.
pub const SYSCONF_KEYS: [(&str, Sysconf); 3] = [
    ("nprocessors_onln", Sysconf::NprocessorsOnln),
    ("phys_pages", Sysconf::PhysPages),
    ("avphys_pages", Sysconf::AvphysPages),
];
/// Distinct keys a container is asked for: 3 sysconf names, 6 files.
pub const KEYS: usize = SYSCONF_KEYS.len() + CONTAINER_PATHS.len();
/// Percent of requests per key: 30 % sysconf (10 each), then
/// cpuinfo 25, meminfo 25 and 5 for each of the other four files.
const KEY_PERCENT: [u64; KEYS] = [10, 10, 10, 25, 25, 5, 5, 5, 5];
/// Connections of the pipelined part.
pub const CONNS: usize = 2;
/// Requests in flight per connection in the pipelined part.
pub const DEPTH: usize = 16;
const BATCH: u64 = (CONNS * DEPTH) as u64;
/// On `read_churn` one reply in this many is rebuilt with
/// `arv_resview::render` from the view the driver published.
const RENDER_CHECK_EVERY: u64 = 64;
const CFS_PERIOD_US: u64 = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct View {
    pub(crate) cpus: u32,
    pub(crate) mem: u64,
    pub(crate) avail: u64,
}

/// A view due to be published before the request numbered `op`.
#[derive(Debug, Clone, Copy)]
struct Publish {
    op: u64,
    container: u32,
    view: View,
}

/// The body the daemon must answer `key` with for a container at `v`,
/// built from `arv_resview::render` alone (not through the daemon).
fn expected_body(key: usize, v: View) -> String {
    match key {
        0 => v.cpus.to_string(),
        1 => (v.mem / PAGE_SIZE).to_string(),
        2 => (v.avail / PAGE_SIZE).to_string(),
        3 => render::cpuinfo(v.cpus),
        4 => render::meminfo(Bytes(v.mem), Bytes(v.avail)),
        5 => render::stat(v.cpus),
        6 => render::cpu_list(v.cpus),
        7 => render::cpu_max(v.cpus, CFS_PERIOD_US),
        _ => render::memory_max(Bytes(v.mem)),
    }
}

/// A request payload as a client would send it (the length prefix is the
/// connection's business).
pub fn request_payload(key: usize, container: u32) -> Vec<u8> {
    let (kind, name) = match SYSCONF_KEYS.get(key) {
        Some((name, _)) => (KIND_SYSCONF, *name),
        None => (KIND_READ, CONTAINER_PATHS[key - SYSCONF_KEYS.len()]),
    };
    let mut out = Vec::with_capacity(5 + name.len());
    out.push(kind);
    out.extend_from_slice(&container.to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out
}

/// One daemon with its registered containers, and the client state.
struct Instance {
    churn: bool,
    conns: Vec<Pipe>,
    wire: Option<WireServer>,
    server: ViewServer,
    frames: Vec<Vec<u8>>,
    views: Vec<View>,
    uppers: Vec<u32>,
    /// `read_hot`: the reply body of every (container, key), taken once
    /// through the in-process client.
    refs: Vec<Arc<String>>,
    last_gen: Vec<u64>,
    req_rng: Rng,
    view_rng: Rng,
    sent: u64,
    reply_bytes: u64,
    publishes: u64,
    useful_publishes: u64,
    replies: Vec<Vec<u8>>,
    /// Publishes of the batch being built (kept for its allocation).
    due: Vec<Publish>,
}

impl Drop for Instance {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(wire) = self.wire.take() {
            wire.shutdown();
        }
    }
}

pub(crate) fn new_view(rng: &mut Rng, upper: u32) -> View {
    let mem = rng.range(256, 1024) * MIB;
    View {
        cpus: rng.range(1, u64::from(upper)) as u32,
        mem,
        avail: mem / 100 * rng.below(101),
    }
}

/// A view daemon with `n` registered containers, each at a seeded view:
/// the daemon, the views, each container's CPU upper bound, and the
/// generator the views came from.
pub(crate) fn registered_daemon(seed: u64, n: u32) -> (ViewServer, Vec<View>, Vec<u32>, Rng) {
    let host = HostSpec {
        online_cpus: 64,
        total_memory: Bytes::from_gib(512),
        free_memory: Bytes::from_gib(256),
        cfs_period_us: CFS_PERIOD_US,
    };
    let server = ViewServer::new(host, 8);
    let mut view_rng = Rng::new(seed, 1);
    let mut views = Vec::with_capacity(n as usize);
    let mut uppers = Vec::with_capacity(n as usize);
    for c in 0..n {
        let upper = view_rng.range(2, 16) as u32;
        server.register(
            CgroupId(c),
            CpuBounds { lower: 1, upper },
            EffectiveCpuConfig::default(),
            EffectiveMemory::new(
                Bytes::from_mib(256),
                Bytes::from_gib(1),
                Bytes::from_gib(5),
                Bytes::from_gib(10),
                EffectiveMemoryConfig::default(),
            ),
        );
        let v = new_view(&mut view_rng, upper);
        assert!(server.mirror(CgroupId(c), v.cpus, Bytes(v.mem), Bytes(v.avail)));
        views.push(v);
        uppers.push(upper);
    }
    (server, views, uppers, view_rng)
}

/// Serve `server` on a socket of its own: the reactor, one loop, limits
/// far above what two connections can reach.
pub(crate) fn spawn_daemon(server: &ViewServer) -> WireServer {
    let config = ServerConfig::builder()
        .max_connections(16)
        .rate_burst(1 << 30)
        .rate_refill_per_sec(1e9)
        .write_deadline(Duration::from_secs(30))
        .loops(1)
        .build()
        .expect("valid daemon configuration");
    WireServer::spawn_with_config(server.clone(), socket_path("viewd"), config)
        .expect("spawn the view daemon")
}

/// A seeded key of the request mix.
pub(crate) fn pick_key(rng: &mut Rng) -> usize {
    let mut r = rng.below(100);
    let mut key = 0;
    while r >= KEY_PERCENT[key] {
        r -= KEY_PERCENT[key];
        key += 1;
    }
    key
}

impl Instance {
    fn build(churn: bool, cfg: &RunConfig) -> Instance {
        let n = cfg.scale.containers;
        let (server, views, uppers, view_rng) = registered_daemon(cfg.seed, n);

        // Prime every cache entry, and on `read_hot` keep what the
        // in-process client answered as the reference for the wire.
        let client = server.client();
        let mut refs = Vec::new();
        for c in 0..n {
            for (_, q) in SYSCONF_KEYS {
                let v = client.sysconf(Some(CgroupId(c)), q);
                if !churn {
                    refs.push(Arc::new(v.to_string()));
                }
            }
            for path in CONTAINER_PATHS {
                let image = client
                    .read(Some(CgroupId(c)), path)
                    .expect("registered container, known path");
                if !churn {
                    refs.push(image.image);
                }
            }
        }

        let wire = spawn_daemon(&server);
        let conns = (0..CONNS)
            .map(|_| {
                Pipe::connect(wire.socket_path(), MAX_RESPONSE).expect("connect to the view daemon")
            })
            .collect();

        let mut inst = Instance {
            churn,
            conns,
            wire: Some(wire),
            server,
            frames: (0..n as usize * KEYS)
                .map(|i| request_payload(i % KEYS, (i / KEYS) as u32))
                .collect(),
            views,
            uppers,
            refs,
            last_gen: vec![0; n as usize],
            req_rng: Rng::new(cfg.seed, 2),
            view_rng,
            sent: 0,
            reply_bytes: 0,
            publishes: 0,
            useful_publishes: 0,
            replies: Vec::with_capacity(BATCH as usize),
            due: Vec::with_capacity(BATCH as usize),
        };
        let mut warm = Checks::default();
        let mut log = SpanLog::new();
        let mut done = 0;
        while done < cfg.scale.warmup_requests {
            inst.pipelined_batch(&mut log, &mut warm);
            done += BATCH;
        }
        assert_eq!(
            warm.failed, 0,
            "warm-up replies failed: {:?}",
            warm.failures
        );
        inst
    }

    fn next_request(&mut self) -> u32 {
        let c = self.req_rng.below(self.views.len() as u64) as usize;
        (c * KEYS + pick_key(&mut self.req_rng)) as u32
    }

    /// Before every second request of `read_churn` a new seeded view is
    /// due for that request's container: draw it and note it as the view
    /// replies must now show.
    fn next_publish(&mut self, idx: u32) -> Option<Publish> {
        self.sent += 1;
        if !self.churn || self.sent % 2 == 1 {
            return None;
        }
        let c = idx as usize / KEYS;
        let v = new_view(&mut self.view_rng, self.uppers[c]);
        self.publishes += 1;
        self.useful_publishes += u64::from(v != self.views[c]);
        self.views[c] = v;
        Some(Publish {
            op: self.sent,
            container: c as u32,
            view: v,
        })
    }

    /// Publish through `ViewServer::mirror`, the call `SimHost` makes on
    /// every timer firing.
    fn publish(server: &ViewServer, log: &mut SpanLog, p: Publish) {
        let (c, v) = (p.container, p.view);
        let ok = log.timed("churn.publish_ns", p.op, |_| {
            server.mirror(CgroupId(c), v.cpus, Bytes(v.mem), Bytes(v.avail))
        });
        assert!(ok, "container {c} is registered");
    }

    fn check(&mut self, idx: u32, frame: &[u8], checks: &mut Checks) {
        checks.attempted += 1;
        self.reply_bytes += frame.len() as u64 + 4;
        let (c, key) = (idx as usize / KEYS, idx as usize % KEYS);
        let reply = match parse_response(frame) {
            Ok(Some(r)) if !r.degraded && !r.shed => r,
            other => {
                return checks.fail(|| format!("container {c} key {key}: not STATUS_OK: {other:?}"))
            }
        };
        let gen_ok = reply.generation % 2 == 0 && reply.generation >= self.last_gen[c];
        checks.expect(gen_ok, || {
            format!(
                "container {c}: generation {} after {}",
                reply.generation, self.last_gen[c]
            )
        });
        self.last_gen[c] = self.last_gen[c].max(reply.generation);
        let body_ok = if !self.churn {
            reply.body == self.refs[idx as usize].as_bytes()
        } else if key < SYSCONF_KEYS.len() || checks.attempted % RENDER_CHECK_EVERY == 0 {
            reply.body == expected_body(key, self.views[c]).as_bytes()
        } else {
            true
        };
        checks.expect(body_ok, || format!("container {c} key {key}: wrong body"));
    }

    fn serial_request(&mut self, log: &mut SpanLog, checks: &mut Checks) -> f64 {
        let idx = self.next_request();
        let due = self.next_publish(idx);
        let op = self.sent;
        if let Some(due) = due {
            Instance::publish(&self.server, log, due);
        }
        let conn = &mut self.conns[0];
        conn.queue(&self.frames[idx as usize]);
        let t0 = Instant::now();
        let reply = log.timed("wire.rtt", op, |_| conn.flush().and_then(|()| conn.recv()));
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        match reply {
            Ok(reply) => self.check(idx, &reply, checks),
            Err(e) => {
                checks.attempted += 1;
                checks.fail(|| format!("serial request: {e}"));
            }
        }
        us
    }

    /// One batch; the lap is the stretch from the batch's first publish to
    /// its last reply, without the driver's own generating before it and
    /// checking after.
    fn pipelined_batch(&mut self, log: &mut SpanLog, checks: &mut Checks) -> Lap {
        // `sent[i]` is the request whose reply comes back `i`-th: replies
        // are read connection by connection, each in the order sent.
        let mut sent = [0u32; BATCH as usize];
        let mut due = std::mem::take(&mut self.due);
        for (i, idx) in sent.iter_mut().enumerate() {
            *idx = self.next_request();
            due.extend(self.next_publish(*idx));
            self.conns[i / DEPTH].queue(&self.frames[*idx as usize]);
        }
        let op = self.sent;
        let mut replies = std::mem::take(&mut self.replies);
        let (conns, server) = (&mut self.conns, &self.server);
        let clock = Stopwatch::start();
        let result: io::Result<()> = log.timed("wire.batch", op, |log| {
            for publish in due.drain(..) {
                Instance::publish(server, log, publish);
            }
            for conn in conns.iter_mut() {
                conn.flush()?;
            }
            for conn in conns.iter_mut() {
                for _ in 0..DEPTH {
                    replies.push(conn.recv()?);
                }
            }
            Ok(())
        });
        let lap = clock.lap();
        if let Err(e) = result {
            // The requests that got no reply failed; the connection is
            // out of step from here on, so later batches fail too.
            let lost = BATCH - replies.len() as u64;
            checks.attempted += lost;
            checks.failed += lost - 1;
            checks.fail(|| format!("pipelined batch: {e}"));
        }
        for (idx, reply) in sent.iter().zip(replies.drain(..)) {
            self.check(*idx, &reply, checks);
        }
        self.replies = replies;
        self.due = due;
        lap
    }

    /// What must repeat exactly for a seed, since `warm`.
    fn counts(&self, warm: &Warm) -> Vec<(&'static str, u64)> {
        let m = self.server.metrics();
        vec![
            (
                "wire.requests",
                m.wire_requests - warm.metrics.wire_requests,
            ),
            ("cache.hits", m.cache_hits - warm.metrics.cache_hits),
            ("cache.misses", m.cache_misses - warm.metrics.cache_misses),
            ("server.publishes", self.publishes - warm.publishes),
            (
                "server.useful_publishes",
                self.useful_publishes - warm.useful_publishes,
            ),
            ("wire.reply_bytes", self.reply_bytes - warm.reply_bytes),
        ]
    }
}

/// The instance's counters when its warm-up ended.
struct Warm {
    metrics: MetricsSnapshot,
    reply_bytes: u64,
    publishes: u64,
    useful_publishes: u64,
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Run `read_hot` (`churn` false) or `read_churn`.
pub fn run(churn: bool, cfg: &RunConfig) -> Outcome {
    let mut run = Run::start();
    let mut inst = run.set_up(|| Instance::build(churn, cfg));
    let warm = Warm {
        metrics: inst.server.metrics(),
        reply_bytes: inst.reply_bytes,
        publishes: inst.publishes,
        useful_publishes: inst.useful_publishes,
    };
    let mut counts = Vec::new();

    while run.more(cfg) {
        run.segment(cfg, |log, checks| {
            let mut lat = Sampler::new(1 << 16);
            for _ in 0..cfg.scale.serial_requests {
                lat.push(inst.serial_request(log, checks));
            }
            let mut timed = Lap::default();
            for _ in 0..cfg.scale.batches {
                timed += inst.pipelined_batch(log, checks);
            }
            Measured {
                ops: cfg.scale.batches * BATCH,
                timed,
                p50_us: lat.percentile(0.5),
                lat_samples: lat.seen(),
            }
        });
        if run.counted_just_ended() {
            counts = inst.counts(&warm);
        }
    }
    let checks = &mut run.checks;

    let m = inst.server.metrics();
    let requests = m.wire_requests - warm.metrics.wire_requests;
    let errors = m.wire_errors + m.wire_rejected + m.failures;
    for (what, n) in [
        ("requests shed", m.requests_shed),
        ("connections evicted", m.conns_evicted_slow),
        ("degraded serves", m.degraded_serves),
        ("wire errors", errors),
        ("connections dropped", m.connections_dropped),
    ] {
        if n > 0 {
            checks.failed += n;
            checks.failures.push(format!("{what}: {n}"));
        }
    }
    let checked = checks.attempted;
    checks.expect(requests == checked, || {
        format!("daemon decoded {requests} requests, driver checked {checked}")
    });

    let mut layers = Vec::new();
    if cfg.traced {
        let spans = run.log.self_ns_per_op();
        let pct = |name: &str, p: f64| {
            us(percentile_of(
                &mut spans.get(name).cloned().unwrap_or_default(),
                p,
            ))
        };
        // Counts and the ratios made of them come from the counted
        // segments, so they repeat exactly for a seed.
        let count = |name: &str| count_of(&counts, name);
        let bytes_per_reply = count("wire.reply_bytes") / count("wire.requests").max(1.0);
        let (hits, misses) = (count("cache.hits"), count("cache.misses"));
        let hit_ratio = hits / (hits + misses).max(1.0);
        if churn {
            layers.extend([
                ("churn.rtt_p50_us", pct("wire.rtt", 0.5)),
                ("churn.batch_p50_us", pct("wire.batch", 0.5)),
                ("churn.handle_ns", m.wire_latency_ns),
                ("churn.publish_ns", pct("churn.publish_ns", 0.5) * 1e3),
                ("churn.bytes_per_reply", bytes_per_reply),
                (
                    "churn.useful_publish_ratio",
                    count("server.useful_publishes") / count("server.publishes").max(1.0),
                ),
                ("cache.hits", hits),
                ("cache.misses", misses),
                ("cache.hit_ratio", hit_ratio),
            ]);
        } else {
            let rtt_p50 = pct("wire.rtt", 0.5);
            layers.extend([
                ("wire.rtt_p50_us", rtt_p50),
                ("wire.rtt_p99_us", pct("wire.rtt", 0.99)),
                ("wire.rtt_p999_us", pct("wire.rtt", 0.999)),
                ("wire.batch_p50_us", pct("wire.batch", 0.5)),
                ("wire.bytes_per_reply", bytes_per_reply),
                ("wire.handle_ns", m.wire_latency_ns),
                ("reactor.residual_us", rtt_p50 - m.wire_latency_ns / 1e3),
                ("wire.requests", count("wire.requests")),
                ("wire.shed", m.requests_shed as f64),
                ("wire.errors", errors as f64),
                ("wire.evicted", m.conns_evicted_slow as f64),
                ("server.degraded_serves", m.degraded_serves as f64),
                ("cache.hot_hit_ratio", hit_ratio),
            ]);
        }
    }
    drop(inst);
    run.set_up_again(cfg, || Instance::build(churn, cfg));
    run.finish(layers, counts)
}

//! Length-prefixed request/response protocol over a Unix-domain socket.
//!
//! The in-process [`crate::server::ViewClient`] works only for threads
//! sharing the daemon's address space; real consumers (an LD_PRELOAD
//! shim, an LXCFS-style FUSE bridge) sit in other processes. The wire
//! format is deliberately minimal:
//!
//! ```text
//! request  := u32le len | u8 kind | u32le container | key-bytes
//!   kind 0 = read file (key = path), 1 = sysconf (key = name),
//!   kind 2 = stats (Prometheus text exposition; container and key ignored),
//!   kind 3 = trace (rendered decision-provenance: the container's
//!            timeline, or the whole ring for a host caller; key ignored)
//!   container u32::MAX = host caller (no container identity)
//! response := u32le len | u8 status | u64le generation | body-bytes
//!   status 0 = ok, 1 = not found (unknown path / sysconf key),
//!   2 = ok but degraded (the body shows the conservative fallback view)
//!   3 = shed (overload: request refused; body = decimal retry-after
//!       hint in milliseconds — come back later)
//!   body: file image for reads, decimal value for sysconf, rendered
//!   text for stats/trace, retry-after hint for shed
//! ```
//!
//! One connection carries any number of request/response pairs in order;
//! concurrent clients each get their own connection. [`WireServer`]
//! serves them on the readiness-driven [`crate::reactor`] (sharded
//! epoll event loops, nonblocking connection slabs, cached images
//! written as shared `Arc` slices with zero per-request copies).
//!
//! # Overload protection
//!
//! The listener enforces [`ServerConfig`]'s admission fields: a cap on
//! concurrently served connections (excess accepts are closed
//! immediately), a per-connection token bucket, a write deadline that
//! evicts clients too slow to drain their responses, and two-tier load
//! shedding. When a connection runs
//! out of tokens, requests answerable from a cached render (and cheap
//! sysconf scalars) are still served, while work that would render,
//! walk the trace ring, or build a stats exposition is refused with
//! `OK_SHED` and a retry-after hint — so the update timer and
//! well-behaved readers are never starved by a flood.
//!
//! Two client flavours exist. [`WireClient`] is the thin original: one
//! blocking connection, errors surface directly. [`RobustWireClient`]
//! wraps the same protocol in the failure handling a real consumer
//! needs: per-request deadlines, bounded exponential backoff with
//! deterministic seeded jitter, automatic reconnect, and a circuit
//! breaker that fails fast after repeated failures while serving the
//! last known-good response, flagged degraded — the wire-level analogue
//! of the serving layer's staleness fallback. All of that machinery
//! lives in the shared [`crate::codec::Transport`]; this module only
//! adds viewd's frame encoding and the last-good cache on top.

use arv_cgroups::CgroupId;
use arv_resview::Sysconf;
use std::collections::HashMap;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::codec::{read_frame, write_frame, Transport, Verdict};
use crate::config::ServerConfig;
use crate::metrics::Served;
use crate::reactor::{EvictReason, FrameService, Reactor, Response, ResponseBody, ServiceAction};
use crate::server::{ViewClient, ViewImage, ViewServer};
use arv_resview::ViewHealth;

pub use crate::codec::{RetryPolicy, WireError};

/// Request kind: read a virtual file.
pub const KIND_READ: u8 = 0;
/// Request kind: sysconf scalar query.
pub const KIND_SYSCONF: u8 = 1;
/// Request kind: Prometheus text exposition of the daemon's metrics.
pub const KIND_STATS: u8 = 2;
/// Request kind: rendered decision-provenance trace (the calling
/// container's timeline, or the full ring for a host caller).
pub const KIND_TRACE: u8 = 3;
/// Container id meaning "host caller".
pub const HOST_CALLER: u32 = u32::MAX;
/// Response status: success.
pub const STATUS_OK: u8 = 0;
/// Response status: unknown path or sysconf key.
pub const STATUS_NOT_FOUND: u8 = 1;
/// Response status: success, but the body was rendered from the
/// conservative fallback view because the live view aged past the
/// staleness budget (or, client-side, replayed from the last known-good
/// response while the connection is down).
pub const STATUS_OK_DEGRADED: u8 = 2;
/// Response status: the daemon is shedding load and refused this
/// request. The body is a decimal retry-after hint in milliseconds.
/// Cached-generation reads are still served under pressure; only work
/// that would render, trace, or build a stats exposition is shed.
pub const STATUS_OK_SHED: u8 = 3;
/// Retry-after hint used when a shed response carries no parseable one.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 20;

/// Largest accepted request frame (paths and key names are short).
pub const MAX_REQUEST: u32 = 4096;
/// Largest accepted response frame. File images are a few KiB even for
/// many CPUs; the cap bounds the allocation a corrupt or malicious
/// length prefix can force on a client.
pub const MAX_RESPONSE: u32 = 256 * 1024;

/// Parse a wire sysconf key name.
pub fn sysconf_key(name: &str) -> Option<Sysconf> {
    match name {
        "nprocessors_onln" => Some(Sysconf::NprocessorsOnln),
        "nprocessors_conf" => Some(Sysconf::NprocessorsConf),
        "phys_pages" => Some(Sysconf::PhysPages),
        "avphys_pages" => Some(Sysconf::AvphysPages),
        "pagesize" => Some(Sysconf::PageSize),
        _ => None,
    }
}

fn encode_request(kind: u8, raw_caller: u32, key: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(5 + key.len());
    payload.push(kind);
    payload.extend_from_slice(&raw_caller.to_le_bytes());
    payload.extend_from_slice(key.as_bytes());
    payload
}

/// Decode a response frame (the payload after the length prefix).
///
/// `Ok(None)` is a NOT_FOUND answer. A frame too short to carry the
/// header, or one with an unknown status byte, is `InvalidData` —
/// framing can no longer be trusted and the caller should drop the
/// connection. Never panics, for any input bytes.
pub fn parse_response(resp: &[u8]) -> io::Result<Option<WireResponse>> {
    if resp.len() < 9 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "short response frame",
        ));
    }
    let status = resp[0];
    let mut gen_bytes = [0u8; 8];
    gen_bytes.copy_from_slice(&resp[1..9]);
    let generation = u64::from_le_bytes(gen_bytes);
    match status {
        STATUS_OK | STATUS_OK_DEGRADED => Ok(Some(WireResponse {
            body: resp[9..].to_vec(),
            generation,
            degraded: status == STATUS_OK_DEGRADED,
            shed: false,
            retry_after_ms: 0,
        })),
        STATUS_OK_SHED => {
            let retry_after_ms = decimal(&resp[9..]).unwrap_or(DEFAULT_RETRY_AFTER_MS);
            Ok(Some(WireResponse {
                body: resp[9..].to_vec(),
                generation,
                degraded: false,
                shed: true,
                retry_after_ms,
            }))
        }
        STATUS_NOT_FOUND => Ok(None),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown response status {other}"),
        )),
    }
}

/// Clamp a rendered text body under the response-frame cap, keeping the
/// tail — for traces the newest events are the interesting end.
fn clamp_text_body(text: String) -> String {
    const LIMIT: usize = (MAX_RESPONSE as usize) - 64;
    if text.len() <= LIMIT {
        return text;
    }
    let mut idx = text.len() - LIMIT;
    while !text.is_char_boundary(idx) {
        idx += 1;
    }
    format!("... (truncated)\n{}", &text[idx..])
}

/// Decode a request frame. Never panics, for any input bytes.
fn decode_request(payload: &[u8]) -> Option<(u8, Option<CgroupId>, &str)> {
    if payload.len() < 5 {
        return None;
    }
    let kind = payload[0];
    if !matches!(kind, KIND_READ | KIND_SYSCONF | KIND_STATS | KIND_TRACE) {
        return None;
    }
    let mut raw_bytes = [0u8; 4];
    raw_bytes.copy_from_slice(&payload[1..5]);
    let raw = u32::from_le_bytes(raw_bytes);
    let caller = (raw != HOST_CALLER).then_some(CgroupId(raw));
    let key = std::str::from_utf8(&payload[5..]).ok()?;
    Some((kind, caller, key))
}

/// The status byte a view of `health` is answered with.
fn status_of(health: ViewHealth) -> u8 {
    if health.is_degraded() {
        STATUS_OK_DEGRADED
    } else {
        STATUS_OK
    }
}

/// A reply whose body is `value` in decimal, built with its status and
/// generation in one stack buffer the response keeps inline.
fn scalar_reply(status: u8, generation: u64, value: u64) -> Response {
    use std::io::Write;
    let mut head = [0u8; 9 + 20];
    head[0] = status;
    head[1..9].copy_from_slice(&generation.to_le_bytes());
    let mut digits = &mut head[9..];
    // Cannot fail: a u64 has at most 20 decimal digits.
    let _ = write!(digits, "{value}");
    let unused = digits.len();
    Response::new(&head[..head.len() - unused], ResponseBody::Empty)
}

/// A decimal body, as [`scalar_reply`] writes it.
fn decimal(body: &[u8]) -> Option<u64> {
    std::str::from_utf8(body).ok()?.parse().ok()
}

/// A reply of status, generation and `body`.
fn reply(status: u8, generation: u64, body: ResponseBody) -> Response {
    let mut head = [0u8; 9];
    head[0] = status;
    head[1..9].copy_from_slice(&generation.to_le_bytes());
    Response::new(&head, body)
}

/// viewd's protocol, the one opcode dispatch: the [`Reactor`] queues
/// what [`FrameService::handle`] returns (cached file images as shared
/// `Arc` slices — no per-request body copies).
struct ViewdService {
    server: ViewServer,
    client: ViewClient,
    retry_after_ms: u64,
}

impl ViewdService {
    fn new(server: ViewServer, retry_after_ms: u64) -> ViewdService {
        let client = server.client();
        ViewdService {
            server,
            client,
            retry_after_ms,
        }
    }

    fn shed(&self) -> Response {
        self.server
            .metrics_ref()
            .requests_shed
            .fetch_add(1, Ordering::Relaxed);
        scalar_reply(STATUS_OK_SHED, 0, self.retry_after_ms)
    }

    fn view_reply(view: ViewImage) -> Response {
        reply(
            status_of(view.health),
            view.generation,
            ResponseBody::Shared(view.image),
        )
    }

    fn text_reply(text: String) -> Response {
        let body = clamp_text_body(text).into_bytes();
        reply(STATUS_OK, 0, ResponseBody::Owned(body))
    }
}

impl FrameService for ViewdService {
    fn max_request(&self) -> u32 {
        MAX_REQUEST
    }

    fn handle(&self, request: &[u8], pressured: bool) -> ServiceAction {
        let metrics = self.server.metrics_ref();
        metrics.wire_requests.fetch_add(1, Ordering::Relaxed);
        // One clock pair per request: the interval is the wire latency
        // and, for a served query, its hit or miss latency too.
        let started = std::time::Instant::now();
        let mut served = None;
        let not_found = || reply(STATUS_NOT_FOUND, 0, ResponseBody::Empty);
        // Out of tokens: two-tier shedding. Tier 1 (cached-generation
        // reads, sysconf scalars) is still served — those are the reads
        // resource probing depends on and they cost no render. Tier 2
        // (misses, stats expositions, trace walks) is refused with a
        // retry-after hint.
        let response = match decode_request(request) {
            Some((KIND_READ, caller, key)) if pressured => {
                match self.client.read_cached(caller, key) {
                    Some(view) => Self::view_reply(view),
                    None => self.shed(),
                }
            }
            Some((KIND_STATS | KIND_TRACE, _, _)) if pressured => self.shed(),
            Some((KIND_READ, caller, key)) => match self.client.serve_read(caller, key) {
                Some((view, how)) => {
                    served = Some(how);
                    Self::view_reply(view)
                }
                None => not_found(),
            },
            Some((KIND_SYSCONF, caller, key)) => match sysconf_key(key) {
                Some(q) => {
                    // Value, generation and health of one snapshot: the
                    // header can never stamp a value with a later (or a
                    // mid-publish, odd) generation.
                    let (value, generation, health) = self.client.serve_sysconf(caller, q);
                    served = Some(Served::Hit);
                    scalar_reply(status_of(health), generation, value)
                }
                None => not_found(),
            },
            Some((KIND_STATS, _, _)) => Self::text_reply(self.server.prometheus_exposition()),
            Some((KIND_TRACE, caller, _)) => Self::text_reply(match caller {
                Some(id) => self.server.tracer().render_timeline(id),
                None => self.server.tracer().render_full(),
            }),
            _ => {
                metrics.wire_errors.fetch_add(1, Ordering::Relaxed);
                not_found()
            }
        };
        let took = started.elapsed();
        metrics.wire_latency.record(took.as_nanos() as u64);
        if let Some(how) = served {
            metrics.served(how, took);
        }
        ServiceAction::Reply(response)
    }

    fn on_accepted(&self) {
        self.server
            .metrics_ref()
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
    }

    fn on_conn_rejected(&self) {
        self.server
            .metrics_ref()
            .connections_dropped
            .fetch_add(1, Ordering::Relaxed);
    }

    fn on_frame_rejected(&self) {
        self.server
            .metrics_ref()
            .wire_rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    fn on_evicted(&self, reason: EvictReason) {
        let metrics = self.server.metrics_ref();
        // Both flavours are "client too slow to drain its responses":
        // `conns_evicted_slow` counts the union, the backlog counter
        // the queue-depth subset.
        metrics.conns_evicted_slow.fetch_add(1, Ordering::Relaxed);
        if reason == EvictReason::QueueDepth {
            metrics
                .conns_evicted_backlog
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The listening daemon front-end: accepts connections on a Unix socket
/// and serves them on the [`Reactor`] until shut down.
#[derive(Debug)]
pub struct WireServer {
    reactor: Reactor,
}

impl WireServer {
    /// Bind `socket_path` with the default [`ServerConfig`] (generous
    /// limits).
    pub fn spawn(server: ViewServer, socket_path: impl AsRef<Path>) -> io::Result<WireServer> {
        WireServer::spawn_with_config(server, socket_path, ServerConfig::default())
    }

    /// Bind `socket_path` (removing any stale socket file first) and
    /// start serving under `config`, validated first. Fails if the
    /// configuration is invalid, the socket can't be bound, or the
    /// serving threads can't be spawned; per-connection failures after
    /// that are absorbed and counted, never panicked on.
    pub fn spawn_with_config(
        server: ViewServer,
        socket_path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> io::Result<WireServer> {
        let service = Arc::new(ViewdService::new(server, config.retry_after_ms));
        let reactor = Reactor::spawn(service, socket_path, config)?;
        Ok(WireServer { reactor })
    }

    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        self.reactor.socket_path()
    }

    /// Stop accepting, close every connection, unlink the socket.
    pub fn shutdown(mut self) {
        self.reactor.shutdown();
    }
}

/// Client side of the wire protocol (thin, single connection; see
/// [`RobustWireClient`] for the fault-tolerant flavour).
#[derive(Debug)]
pub struct WireClient {
    stream: UnixStream,
}

/// A successful wire read: body bytes plus the server-side generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// The response body (file image, or decimal sysconf value).
    pub body: Vec<u8>,
    /// Generation of the view that produced the answer.
    pub generation: u64,
    /// Whether the body reflects a degraded (fallback) view rather than
    /// the live one — either flagged by the server, or replayed from the
    /// client's last-good cache while the wire is down.
    pub degraded: bool,
    /// Whether the server refused the request under overload
    /// (`OK_SHED`). The body carries no data, only the retry-after hint.
    pub shed: bool,
    /// Retry-after hint in milliseconds (nonzero only when `shed`).
    pub retry_after_ms: u64,
}

impl WireClient {
    /// Connect to a daemon's socket.
    pub fn connect(socket_path: impl AsRef<Path>) -> io::Result<WireClient> {
        Ok(WireClient {
            stream: UnixStream::connect(socket_path)?,
        })
    }

    /// Issue one raw request and parse the response. The typed helper
    /// [`read`](WireClient::read) wraps this; use it directly for the
    /// other request kinds and to observe raw statuses such as
    /// `OK_SHED`.
    pub fn request(
        &mut self,
        kind: u8,
        caller: Option<CgroupId>,
        key: &str,
    ) -> io::Result<Option<WireResponse>> {
        let payload = encode_request(kind, caller.map_or(HOST_CALLER, |c| c.0), key);
        write_frame(&mut self.stream, &payload)?;
        let Some(resp) = read_frame(&mut self.stream, MAX_RESPONSE)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-request",
            ));
        };
        parse_response(&resp)
    }

    /// Read a virtual file as `caller`; `Ok(None)` is ENOENT.
    pub fn read(
        &mut self,
        caller: Option<CgroupId>,
        path: &str,
    ) -> io::Result<Option<WireResponse>> {
        self.request(KIND_READ, caller, path)
    }
}

/// Counters describing one [`RobustWireClient`]'s life so far,
/// projected from the shared transport's
/// [`crate::codec::TransportStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireClientStats {
    /// Requests that got a response (including degraded ones).
    pub successes: u64,
    /// Requests that exhausted every attempt.
    pub failures: u64,
    /// Individual retry attempts (beyond each request's first try).
    pub retries: u64,
    /// Times the client re-established a connection after losing one.
    pub reconnects: u64,
    /// Times the circuit breaker opened.
    pub breaker_opens: u64,
    /// Requests failed fast because the breaker was open.
    pub fast_fails: u64,
    /// Requests answered from the last-good cache instead of the wire.
    pub fallback_serves: u64,
    /// `OK_SHED` responses received; each backs off per the server's
    /// retry-after hint and never counts toward the circuit breaker.
    pub shed_backoffs: u64,
}

/// Fault-tolerant wire client: deadlines, retry with seeded backoff,
/// automatic reconnect, circuit breaker, last-good fallback.
///
/// A thin typed wrapper over the shared [`Transport`] engine — this
/// struct only owns viewd's frame encoding and the last-good response
/// cache; every retry/backoff/breaker decision is the transport's.
///
/// Connection is lazy — constructing the client never touches the
/// socket, so a consumer can start before the daemon does.
#[derive(Debug)]
pub struct RobustWireClient {
    transport: Transport,
    last_good: HashMap<(u8, u32, String), WireResponse>,
    fallback_serves: u64,
}

impl RobustWireClient {
    /// A client for `socket_path` under `policy`. Does not connect yet.
    pub fn new(socket_path: impl AsRef<Path>, policy: RetryPolicy) -> RobustWireClient {
        RobustWireClient {
            transport: Transport::single(socket_path, policy, MAX_RESPONSE),
            last_good: HashMap::new(),
            fallback_serves: 0,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> WireClientStats {
        let t = self.transport.stats();
        WireClientStats {
            successes: t.successes,
            failures: t.failures,
            retries: t.retries,
            // The transport counts every connect; this client's legacy
            // stat counted only re-establishments after the first.
            reconnects: t.connects.saturating_sub(1),
            breaker_opens: t.breaker_opens,
            fast_fails: t.fast_fails,
            fallback_serves: self.fallback_serves,
            shed_backoffs: t.shed_backoffs,
        }
    }

    /// Serve a request from the last-good cache (flagged degraded), or
    /// surface an error if nothing was ever cached for this key.
    fn fallback(
        &mut self,
        kind: u8,
        raw_caller: u32,
        key: &str,
        why: &str,
    ) -> Result<Option<WireResponse>, WireError> {
        match self.last_good.get(&(kind, raw_caller, key.to_string())) {
            Some(cached) => {
                self.fallback_serves += 1;
                let mut resp = cached.clone();
                resp.degraded = true;
                Ok(Some(resp))
            }
            None => Err(WireError::Io(io::Error::other(format!(
                "{why}; no cached response"
            )))),
        }
    }

    /// Issue one request with the full failure-handling pipeline.
    ///
    /// `Ok(None)` is a definitive NOT_FOUND from the server. `Err` means
    /// every attempt failed *and* no cached response exists to degrade
    /// to; any successful or fallback answer is `Ok(Some(_))` with its
    /// `degraded` flag telling the caller which it was. When every
    /// attempt was shed and nothing is cached, the shed response itself
    /// is surfaced (`shed: true`) so the caller sees the hint.
    pub fn request(
        &mut self,
        kind: u8,
        caller: Option<CgroupId>,
        key: &str,
    ) -> Result<Option<WireResponse>, WireError> {
        let raw_caller = caller.map_or(HOST_CALLER, |c| c.0);
        let payload = encode_request(kind, raw_caller, key);
        let outcome =
            self.transport
                .request_classified(&payload, |bytes| match parse_response(bytes) {
                    Ok(Some(r)) if r.shed => Verdict::ShedBackoff {
                        retry_after_ms: r.retry_after_ms,
                    },
                    Ok(_) => Verdict::Accept,
                    Err(e) => Verdict::Malformed(e.to_string()),
                });
        match outcome {
            Ok(bytes) => {
                let resp = parse_response(&bytes)?;
                if let Some(r) = &resp {
                    if !r.degraded {
                        self.last_good
                            .insert((kind, raw_caller, key.to_string()), r.clone());
                    }
                }
                Ok(resp)
            }
            Err(WireError::Shed { retry_after_ms }) => {
                // Every attempt was shed: still not a failure. Prefer
                // the last-good cache (flagged degraded); otherwise
                // synthesize the shed response so the caller sees the
                // retry-after hint.
                match self.fallback(kind, raw_caller, key, "server shedding") {
                    Ok(resp) => Ok(resp),
                    Err(_) => Ok(Some(WireResponse {
                        body: retry_after_ms.to_string().into_bytes(),
                        generation: 0,
                        degraded: false,
                        shed: true,
                        retry_after_ms,
                    })),
                }
            }
            Err(e) => match self.fallback(kind, raw_caller, key, "request failed") {
                Ok(resp) => Ok(resp),
                Err(_) => Err(e),
            },
        }
    }

    /// Read a virtual file as `caller`; `Ok(None)` is ENOENT.
    pub fn read(
        &mut self,
        caller: Option<CgroupId>,
        path: &str,
    ) -> Result<Option<WireResponse>, WireError> {
        self.request(KIND_READ, caller, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::HostSpec;
    use arv_cgroups::Bytes;
    use arv_resview::{CpuBounds, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig};
    use std::io::{Read, Write};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// A response payload as the daemon frames it, for the parser tests.
    fn encode_response(status: u8, generation: u64, body: &[u8]) -> Vec<u8> {
        let mut out = vec![status];
        out.extend_from_slice(&generation.to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// Unwrap with context: chaos-style tests issue the same call dozens
    /// of times across opcodes and seeds, and a bare `unwrap()` failure
    /// doesn't say which iteration died. Route fallible test calls
    /// through this so the panic names the operation.
    #[track_caller]
    fn expect<T, E: std::fmt::Debug>(result: Result<T, E>, ctx: &str) -> T {
        match result {
            Ok(v) => v,
            Err(e) => panic!("{ctx}: {e:?}"),
        }
    }

    /// Like [`expect`], for `Option`s that must be `Some`.
    #[track_caller]
    fn expect_some<T>(option: Option<T>, ctx: &str) -> T {
        match option {
            Some(v) => v,
            None => panic!("{ctx}: unexpectedly None"),
        }
    }

    fn test_socket(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("arv-viewd-test-{}-{tag}.sock", std::process::id()))
    }

    fn spawn_server_with_config(
        tag: &str,
        config: ServerConfig,
    ) -> (ViewServer, WireServer, CgroupId) {
        let server = ViewServer::new(HostSpec::paper_testbed(), 8);
        let id = CgroupId(7);
        server.register(
            id,
            CpuBounds {
                lower: 4,
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
        let wire = expect(
            WireServer::spawn_with_config(server.clone(), test_socket(tag), config),
            &format!("spawn wire server '{tag}'"),
        );
        (server, wire, id)
    }

    fn spawn_server(tag: &str) -> (ViewServer, WireServer, CgroupId) {
        spawn_server_with_config(tag, ServerConfig::default())
    }

    #[test]
    fn round_trip_read_and_sysconf() {
        let (server, wire, id) = spawn_server("rt");
        let mut client = WireClient::connect(wire.socket_path()).unwrap();
        let resp = client.read(Some(id), "/proc/cpuinfo").unwrap().unwrap();
        assert!(!resp.degraded);
        let text = String::from_utf8(resp.body).unwrap();
        assert_eq!(text.matches("processor").count(), 4);
        assert_eq!(
            client.sysconf(Some(id), "nprocessors_onln").unwrap(),
            Some(4)
        );
        assert_eq!(client.sysconf(None, "nprocessors_onln").unwrap(), Some(20));
        assert_eq!(client.sysconf(Some(id), "pagesize").unwrap(), Some(4096));
        assert!(server.metrics().wire_requests >= 4);
        wire.shutdown();
    }

    #[test]
    fn not_found_paths_and_keys() {
        let (_server, wire, id) = spawn_server("enoent");
        let mut client = WireClient::connect(wire.socket_path()).unwrap();
        assert!(client.read(Some(id), "/nope").unwrap().is_none());
        assert!(client.sysconf(Some(id), "bogus_key").unwrap().is_none());
        wire.shutdown();
    }

    #[test]
    fn generation_travels_with_responses() {
        let (server, wire, id) = spawn_server("gen");
        let mut client = WireClient::connect(wire.socket_path()).unwrap();
        let before = client.read(Some(id), "/proc/meminfo").unwrap().unwrap();
        server.mirror(id, 8, Bytes::from_mib(800), Bytes::from_mib(700));
        let after = client.read(Some(id), "/proc/meminfo").unwrap().unwrap();
        assert!(after.generation > before.generation);
        assert!(String::from_utf8(after.body)
            .unwrap()
            .contains(&format!("MemTotal: {} kB", 800 * 1024)));
        wire.shutdown();
    }

    /// A sysconf reply's value, generation and status come from one
    /// snapshot: under a publisher racing the reader the generation is
    /// never a mid-publish (odd) one and never stamps the other view's
    /// value.
    #[test]
    fn sysconf_reply_is_never_torn_under_a_racing_publisher() {
        let (server, wire, id) = spawn_server("torn");
        let mut client = WireClient::connect(wire.socket_path()).unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(2));
        let publisher = std::thread::spawn({
            let (done, start) = (Arc::clone(&done), Arc::clone(&start));
            move || {
                start.wait();
                for round in 0u64.. {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let cpus = if round % 2 == 0 { 4 } else { 8 };
                    let mem = Bytes::from_mib(100 * u64::from(cpus));
                    server.mirror(id, cpus, mem, mem);
                }
            }
        });
        start.wait();
        let mut value_at: HashMap<u64, Vec<u8>> = HashMap::new();
        for _ in 0..30_000 {
            let resp = client
                .request(KIND_SYSCONF, Some(id), "nprocessors_onln")
                .unwrap()
                .unwrap();
            assert_eq!(resp.generation % 2, 0, "mid-publish generation served");
            let seen = value_at
                .entry(resp.generation)
                .or_insert_with(|| resp.body.clone());
            assert_eq!(
                *seen, resp.body,
                "generation {} has two values",
                resp.generation
            );
        }
        done.store(true, Ordering::Relaxed);
        publisher.join().unwrap();
        assert!(value_at.len() > 1, "the publisher never raced the reader");
        wire.shutdown();
    }

    #[test]
    fn multiple_concurrent_connections() {
        let (server, wire, id) = spawn_server("conc");
        let path = wire.socket_path().to_path_buf();
        let handles: Vec<_> = (0..4)
            .map(|worker| {
                let path = path.clone();
                std::thread::spawn(move || {
                    let mut client = expect(
                        WireClient::connect(&path),
                        &format!("worker {worker} connect"),
                    );
                    for round in 0..50 {
                        let v = expect(
                            client.sysconf(Some(id), "nprocessors_onln"),
                            &format!("worker {worker} round {round} sysconf"),
                        );
                        assert_eq!(v, Some(4));
                    }
                })
            })
            .collect();
        for (worker, h) in handles.into_iter().enumerate() {
            expect(
                h.join().map_err(|e| format!("{e:?}")),
                &format!("join worker {worker}"),
            );
        }
        assert!(server.metrics().connections_accepted >= 4);
        wire.shutdown();
    }

    #[test]
    fn malformed_frame_counts_as_wire_error() {
        let (server, wire, _) = spawn_server("bad");
        let mut stream = UnixStream::connect(wire.socket_path()).unwrap();
        // kind 9 is unknown; server must answer NOT_FOUND, not hang.
        write_frame(&mut stream, &[9u8, 0, 0, 0, 0]).unwrap();
        let resp = read_frame(&mut stream, MAX_RESPONSE).unwrap().unwrap();
        assert_eq!(resp[0], STATUS_NOT_FOUND);
        // Give the counter a moment (same thread wrote it before reply).
        assert!(server.metrics().wire_errors >= 1);
        wire.shutdown();
    }

    #[test]
    fn oversized_frame_closes_connection_and_counts() {
        let (server, wire, _) = spawn_server("big");
        let mut stream = UnixStream::connect(wire.socket_path()).unwrap();
        stream.write_all(&(10_000_000u32).to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 64]).unwrap();
        // Server drops the connection; the next read sees EOF.
        let mut buf = [0u8; 1];
        let n = stream.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0);
        assert!(server.metrics().wire_rejected >= 1);
        wire.shutdown();
    }

    #[test]
    fn degraded_status_travels_over_the_wire() {
        let (server, wire, id) = spawn_server("deg");
        let mut client = WireClient::connect(wire.socket_path()).unwrap();
        server.mirror(id, 8, Bytes::from_mib(800), Bytes::from_mib(700));
        assert!(
            !client
                .read(Some(id), "/proc/cpuinfo")
                .unwrap()
                .unwrap()
                .degraded
        );
        for _ in 0..=arv_resview::STALENESS_BUDGET {
            server.advance_tick();
        }
        let resp = client.read(Some(id), "/proc/cpuinfo").unwrap().unwrap();
        assert!(resp.degraded);
        // The degraded body is the conservative fallback: the lower bound.
        let text = String::from_utf8(resp.body).unwrap();
        assert_eq!(text.matches("processor").count(), 4);
        // Host callers never degrade.
        assert!(
            !client
                .read(None, "/proc/cpuinfo")
                .unwrap()
                .unwrap()
                .degraded
        );
        wire.shutdown();
    }

    #[test]
    fn stats_and_trace_travel_over_the_wire() {
        use arv_telemetry::Tracer;
        let server = ViewServer::with_telemetry(HostSpec::paper_testbed(), 8, Tracer::bounded(64));
        let id = CgroupId(7);
        server.register(
            id,
            CpuBounds {
                lower: 4,
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
        let wire = WireServer::spawn(server.clone(), test_socket("stats")).unwrap();
        let mut client = WireClient::connect(wire.socket_path()).unwrap();
        client.read(Some(id), "/proc/cpuinfo").unwrap().unwrap();
        let stats = client.stats().unwrap();
        assert!(stats.contains("arv_viewd_queries_total"));
        assert!(stats.contains("arv_container_effective_cpus{container=\"7\"} 4"));

        // Grow the view, let it age past the budget, and read: the
        // degraded serve must leave a provenance record.
        server.mirror(id, 8, Bytes::from_mib(800), Bytes::from_mib(700));
        for _ in 0..=arv_resview::STALENESS_BUDGET {
            server.advance_tick();
        }
        client.read(Some(id), "/proc/cpuinfo").unwrap().unwrap();
        let timeline = client.trace(Some(id)).unwrap();
        assert!(
            timeline.contains("degraded-fallback"),
            "timeline missing fallback decision:\n{timeline}"
        );
        assert!(timeline.contains("cpu 8 -> 4"));
        let full = client.trace(None).unwrap();
        assert!(full.contains("c7"));
        // Wire latency landed in its own histogram.
        assert!(server.metrics().wire_p99_ns > 0);
        wire.shutdown();
    }

    #[test]
    fn robust_client_reconnects_after_server_restart() {
        let (_server, wire, id) = spawn_server("restart");
        let socket = wire.socket_path().to_path_buf();
        let mut client = RobustWireClient::new(&socket, RetryPolicy::fast_test());
        assert_eq!(
            client.sysconf(Some(id), "nprocessors_onln").unwrap(),
            Some(4)
        );
        assert!(client.is_connected());

        // Kill the server: the in-flight connection dies, retries can't
        // reconnect (socket unlinked), but the cached answer degrades.
        wire.shutdown();
        let resp = client
            .request(KIND_SYSCONF, Some(id), "nprocessors_onln")
            .unwrap()
            .unwrap();
        assert!(resp.degraded);
        let s = client.stats();
        assert_eq!(s.failures, 1);
        assert_eq!(s.fallback_serves, 1);
        assert!(s.retries >= 1);

        // Restart on the same socket: the next request reconnects and
        // gets a live answer again.
        let (_server2, wire2, _) = {
            let server = ViewServer::new(HostSpec::paper_testbed(), 8);
            let id2 = CgroupId(7);
            server.register(
                id2,
                CpuBounds {
                    lower: 4,
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
            let wire2 = WireServer::spawn(server.clone(), &socket).unwrap();
            (server, wire2, id2)
        };
        let resp = client
            .request(KIND_SYSCONF, Some(id), "nprocessors_onln")
            .unwrap()
            .unwrap();
        assert!(!resp.degraded);
        assert!(client.stats().reconnects >= 1);
        wire2.shutdown();
    }

    #[test]
    fn breaker_opens_after_repeated_failures_then_recovers() {
        let socket = test_socket("breaker");
        let _ = std::fs::remove_file(&socket);
        let policy = RetryPolicy {
            breaker_threshold: 1,
            breaker_cooldown: 2,
            ..RetryPolicy::fast_test()
        };
        let mut client = RobustWireClient::new(&socket, policy);
        // Nothing listening and nothing cached: a hard error that opens
        // the breaker immediately (threshold 1).
        assert!(client.read(None, "/proc/cpuinfo").is_err());
        assert!(client.breaker_open());
        assert_eq!(client.stats().breaker_opens, 1);
        // Cooldown requests fail fast without touching the socket.
        assert!(client.read(None, "/proc/cpuinfo").is_err());
        assert!(client.read(None, "/proc/cpuinfo").is_err());
        assert_eq!(client.stats().fast_fails, 2);
        assert!(!client.breaker_open());
        // A server appears; the next request goes through live.
        let server = ViewServer::new(HostSpec::paper_testbed(), 8);
        let wire = WireServer::spawn(server, &socket).unwrap();
        let resp = client.read(None, "/proc/cpuinfo").unwrap().unwrap();
        assert!(!resp.degraded);
        assert_eq!(client.stats().successes, 1);
        wire.shutdown();
    }

    #[test]
    fn over_rate_requests_shed_but_cached_reads_survive() {
        let cfg = ServerConfig {
            rate_burst: 2,
            rate_refill_per_sec: 0.0,
            retry_after_ms: 7,
            ..ServerConfig::default()
        };
        let (server, wire, id) = spawn_server_with_config("shedtiers", cfg);
        let mut client = expect(WireClient::connect(wire.socket_path()), "connect shedtiers");
        // Token 1: render + cache /proc/cpuinfo. Token 2: a stats call.
        let first = expect_some(
            expect(client.read(Some(id), "/proc/cpuinfo"), "prime cpuinfo"),
            "prime cpuinfo body",
        );
        assert!(!first.shed);
        expect(client.stats(), "stats within burst");
        // Bucket empty. Tier 1: the cached read is still served...
        let cached = expect_some(
            expect(client.read(Some(id), "/proc/cpuinfo"), "cached read"),
            "cached read body",
        );
        assert!(!cached.shed && !cached.degraded);
        assert_eq!(cached.generation, first.generation);
        // ...and sysconf scalars too.
        assert_eq!(
            expect(client.sysconf(Some(id), "nprocessors_onln"), "sysconf"),
            Some(4)
        );
        // Tier 2: a render miss and a stats exposition are shed with the
        // configured retry-after hint.
        let miss = expect_some(
            expect(client.read(Some(id), "/proc/meminfo"), "miss read"),
            "miss read response",
        );
        assert!(miss.shed);
        assert_eq!(miss.retry_after_ms, 7);
        let raw = expect_some(
            expect(
                client.request(KIND_STATS, None, ""),
                "raw stats under pressure",
            ),
            "raw stats response",
        );
        assert!(raw.shed);
        let m = server.metrics();
        assert!(m.requests_shed >= 2, "sheds counted: {}", m.requests_shed);
        wire.shutdown();
    }

    #[test]
    fn connection_cap_closes_excess_accepts() {
        let cfg = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let (server, wire, id) = spawn_server_with_config("conncap", cfg);
        let mut first = expect(WireClient::connect(wire.socket_path()), "connect first");
        // Serve one request so the first connection is surely active.
        assert_eq!(
            expect(first.sysconf(Some(id), "nprocessors_onln"), "first conn"),
            Some(4)
        );
        // The second connection is accepted then immediately closed.
        let mut second = expect(
            UnixStream::connect(wire.socket_path()),
            "connect second raw",
        );
        let _ = write_frame(&mut second, &encode_request(KIND_SYSCONF, 7, "pagesize"));
        let mut buf = [0u8; 1];
        let n = second.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "capped connection must see EOF, not service");
        assert!(server.metrics().connections_dropped >= 1);
        // The first connection keeps working.
        assert_eq!(
            expect(first.sysconf(Some(id), "pagesize"), "first conn again"),
            Some(4096)
        );
        wire.shutdown();
    }

    #[test]
    fn slow_client_is_evicted_at_the_write_deadline() {
        let cfg = ServerConfig {
            write_deadline: Duration::from_millis(25),
            ..ServerConfig::default()
        };
        let (server, wire, _id) = spawn_server_with_config("slow", cfg);
        let stream = expect(UnixStream::connect(wire.socket_path()), "connect slow");
        let mut writer = stream;
        expect(
            writer.set_write_timeout(Some(Duration::from_millis(100))),
            "set client write timeout",
        );
        // Flood stats requests and never read a byte back: responses
        // pile up until the server's write stalls past its deadline and
        // the connection is evicted.
        let req = encode_request(KIND_STATS, HOST_CALLER, "");
        for _ in 0..20_000 {
            if server.metrics().conns_evicted_slow >= 1 {
                break;
            }
            if write_frame(&mut writer, &req).is_err() {
                break; // server closed us: eviction already happened
            }
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.metrics().conns_evicted_slow == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "server never evicted the stalled client"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(server.metrics().conns_evicted_slow >= 1);
        wire.shutdown();
    }

    #[test]
    fn shed_burst_does_not_open_the_breaker() {
        let cfg = ServerConfig {
            rate_burst: 1,
            rate_refill_per_sec: 0.0,
            retry_after_ms: 1,
            ..ServerConfig::default()
        };
        let (server, wire, id) = spawn_server_with_config("shedburst", cfg);
        let policy = RetryPolicy {
            breaker_threshold: 1,
            ..RetryPolicy::fast_test()
        };
        let mut client = RobustWireClient::new(wire.socket_path(), policy);
        // The only token primes the render cache with a live read.
        let first = expect_some(
            expect(client.read(Some(id), "/proc/cpuinfo"), "prime read"),
            "prime read body",
        );
        assert!(!first.shed && !first.degraded);
        // Every further stats call is shed. The client backs off per the
        // hint and keeps the breaker closed — a shed burst is overload,
        // not an outage.
        for round in 0..3 {
            let resp = expect_some(
                expect(
                    client.request(KIND_STATS, None, ""),
                    &format!("shed stats round {round}"),
                ),
                "shed stats response",
            );
            assert!(resp.shed, "round {round} must surface the shed");
            assert_eq!(resp.retry_after_ms, 1);
            assert!(!client.breaker_open(), "round {round} opened the breaker");
        }
        let s = client.stats();
        assert_eq!(s.breaker_opens, 0);
        assert_eq!(s.failures, 0);
        assert_eq!(s.fast_fails, 0);
        assert!(s.shed_backoffs >= 3);
        // Tier-1 service still flows on the same connection.
        let cached = expect_some(
            expect(client.read(Some(id), "/proc/cpuinfo"), "cached read"),
            "cached read body",
        );
        assert!(!cached.shed && !cached.degraded);
        assert!(server.metrics().requests_shed >= 3);
        wire.shutdown();
    }

    #[test]
    fn invalid_config_is_refused_at_spawn() {
        let server = ViewServer::new(HostSpec::paper_testbed(), 8);
        let bad = ServerConfig {
            loops: 0,
            ..ServerConfig::default()
        };
        assert!(WireServer::spawn_with_config(server, test_socket("badcfg"), bad).is_err());
    }

    #[test]
    fn queue_depth_eviction_lands_in_both_counters() {
        let cfg = ServerConfig {
            outbound_queue_cap: 8 * 1024,
            // A wide deadline so only the queue-depth trigger can fire.
            write_deadline: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let (server, wire, _id) = spawn_server_with_config("qdepth", cfg);
        let mut writer = expect(UnixStream::connect(wire.socket_path()), "connect qdepth");
        expect(
            writer.set_write_timeout(Some(Duration::from_millis(100))),
            "set client write timeout",
        );
        // Flood stats requests and never read a byte back: responses
        // pile past the queue cap and the connection is evicted.
        let req = encode_request(KIND_STATS, HOST_CALLER, "");
        for _ in 0..20_000 {
            if server.metrics().conns_evicted_backlog >= 1 {
                break;
            }
            if write_frame(&mut writer, &req).is_err() {
                break;
            }
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.metrics().conns_evicted_backlog == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "server never evicted the backlogged client"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let m = server.metrics();
        assert!(m.conns_evicted_backlog >= 1);
        assert!(
            m.conns_evicted_slow >= m.conns_evicted_backlog,
            "backlog evictions are a subset of slow evictions"
        );
        wire.shutdown();
    }

    /// The slab bound is the connection cap: a struct-update config
    /// that raises only `max_connections` must seat every connection it
    /// admits, on a single loop too.
    #[test]
    fn every_admitted_connection_gets_a_slot() {
        let cfg = ServerConfig {
            max_connections: 200,
            loops: 1,
            ..ServerConfig::default()
        };
        let (server, wire, id) = spawn_server_with_config("slots", cfg);
        let mut clients: Vec<WireClient> = (0..200)
            .map(|i| {
                expect(
                    WireClient::connect(wire.socket_path()),
                    &format!("connect {i}"),
                )
            })
            .collect();
        for (i, client) in clients.iter_mut().enumerate() {
            assert_eq!(
                expect(
                    client.sysconf(Some(id), "nprocessors_onln"),
                    &format!("conn {i}")
                ),
                Some(4)
            );
        }
        assert_eq!(server.metrics().connections_dropped, 0);
        wire.shutdown();
    }

    /// The wire differential: what a reactor connection answers, byte
    /// for byte, is what [`ViewdService::handle`] answers in-process.
    mod differential {
        use super::*;
        use crate::server::CONTAINER_PATHS;
        use proptest::prelude::*;

        const SYSCONF_KEYS: [&str; 5] = [
            "nprocessors_onln",
            "nprocessors_conf",
            "phys_pages",
            "avphys_pages",
            "pagesize",
        ];

        /// One request payload of `category` (eight of them, see the
        /// arms), varied by `pick`.
        fn request(category: u8, pick: usize) -> Vec<u8> {
            let path = CONTAINER_PATHS[pick % CONTAINER_PATHS.len()];
            let key = SYSCONF_KEYS[pick % SYSCONF_KEYS.len()];
            assert!(sysconf_key(key).is_some(), "{key} is not a wire key");
            match category {
                0 => encode_request(KIND_READ, 7, path),
                1 => encode_request(KIND_SYSCONF, 7, key),
                2 => encode_request(KIND_READ, 7, "/proc/nope"),
                3 => encode_request(KIND_SYSCONF, 7, "bogus_key"),
                4 if pick % 2 == 0 => encode_request(KIND_READ, HOST_CALLER, path),
                4 => encode_request(KIND_SYSCONF, HOST_CALLER, key),
                5 => encode_request(9 + (pick % 200) as u8, 7, path),
                6 => {
                    let mut payload = encode_request(KIND_READ, 7, "");
                    payload.extend_from_slice(&[0xFF, 0xFE, b'/', 0x80]);
                    payload
                }
                _ => encode_request(KIND_SYSCONF, 7, key)[..pick % 5].to_vec(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every request category once, then a seeded mix, written
            /// to one connection in arbitrary chunks: the reply stream
            /// equals `handle` called once per frame on the same
            /// quiescent server, serialised by `Response::write_to`.
            #[test]
            fn reactor_replies_equal_in_process_handle(
                picks in prop::collection::vec((0u8..8, 0usize..64), 0..24),
                chunks in prop::collection::vec(1usize..48, 0..32),
            ) {
                static CASE: std::sync::atomic::AtomicUsize =
                    std::sync::atomic::AtomicUsize::new(0);
                let case = CASE.fetch_add(1, Ordering::Relaxed);
                let cfg = ServerConfig { loops: 1, ..ServerConfig::default() };
                let (server, wire, _id) = spawn_server_with_config(&format!("diff{case}"), cfg);

                let frames: Vec<Vec<u8>> = (0u8..8)
                    .map(|category| request(category, case))
                    .chain(picks.iter().map(|&(category, pick)| request(category, pick)))
                    .collect();

                let reference = ViewdService::new(server, cfg.retry_after_ms);
                let mut expected = Vec::new();
                let mut stream_bytes = Vec::new();
                for frame in &frames {
                    match reference.handle(frame, false) {
                        ServiceAction::Reply(resp) => resp.write_to(&mut expected).unwrap(),
                        ServiceAction::Close => prop_assert!(false, "viewd never closes"),
                    }
                    write_frame(&mut stream_bytes, frame).unwrap();
                }

                let mut conn = UnixStream::connect(wire.socket_path()).unwrap();
                let mut rest = stream_bytes.as_slice();
                for &chunk in &chunks {
                    let (head, tail) = rest.split_at(chunk.min(rest.len()));
                    conn.write_all(head).unwrap();
                    std::thread::yield_now();
                    rest = tail;
                }
                conn.write_all(rest).unwrap();
                conn.shutdown(std::net::Shutdown::Write).unwrap();
                let mut got = Vec::new();
                conn.read_to_end(&mut got).unwrap();
                prop_assert_eq!(got, expected);
                wire.shutdown();
            }
        }
    }

    mod frame_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary bytes never panic the response parser.
            #[test]
            fn parse_response_never_panics(
                bytes in prop::collection::vec(0u8..255, 0..64)
            ) {
                let _ = parse_response(&bytes);
            }

            /// Arbitrary bytes never panic the request decoder.
            #[test]
            fn decode_request_never_panics(
                bytes in prop::collection::vec(0u8..255, 0..64)
            ) {
                let _ = decode_request(&bytes);
            }

            /// Well-formed responses round-trip, including the degraded
            /// and shed statuses; unknown statuses are rejected as
            /// errors.
            #[test]
            fn response_round_trip(
                status in 0u8..8,
                generation in 0u64..u64::MAX,
                body in prop::collection::vec(0u8..255, 0..48)
            ) {
                let frame = encode_response(status, generation, &body);
                match parse_response(&frame) {
                    Ok(Some(resp)) => {
                        prop_assert!(
                            status == STATUS_OK
                                || status == STATUS_OK_DEGRADED
                                || status == STATUS_OK_SHED
                        );
                        prop_assert_eq!(resp.body, body);
                        prop_assert_eq!(resp.generation, generation);
                        prop_assert_eq!(resp.degraded, status == STATUS_OK_DEGRADED);
                        prop_assert_eq!(resp.shed, status == STATUS_OK_SHED);
                        if !resp.shed {
                            prop_assert_eq!(resp.retry_after_ms, 0);
                        }
                    }
                    Ok(None) => prop_assert_eq!(status, STATUS_NOT_FOUND),
                    Err(_) => prop_assert!(status > STATUS_OK_SHED),
                }
            }

            /// A shed frame's retry-after hint round-trips when the body
            /// is a decimal number, and falls back to the default hint
            /// for any other body — never an error, never a panic.
            #[test]
            fn shed_hint_round_trips_or_defaults(
                hint in 0u64..100_000,
                garbage in prop::collection::vec(0u8..255, 0..16)
            ) {
                let frame = encode_response(
                    STATUS_OK_SHED, 0, hint.to_string().as_bytes(),
                );
                match parse_response(&frame) {
                    Ok(Some(resp)) => {
                        prop_assert!(resp.shed);
                        prop_assert_eq!(resp.retry_after_ms, hint);
                    }
                    other => prop_assert!(false, "shed frame failed to parse: {:?}", other),
                }
                let frame = encode_response(STATUS_OK_SHED, 0, &garbage);
                if let Ok(Some(resp)) = parse_response(&frame) {
                    prop_assert!(resp.shed);
                    let parsed = std::str::from_utf8(&garbage)
                        .ok()
                        .and_then(|t| t.parse::<u64>().ok());
                    prop_assert_eq!(
                        resp.retry_after_ms,
                        parsed.unwrap_or(DEFAULT_RETRY_AFTER_MS)
                    );
                } else {
                    prop_assert!(false, "shed frame must parse");
                }
            }

            /// Truncating a valid response frame never panics: either it
            /// still parses (shorter body) or it errors cleanly.
            #[test]
            fn truncated_response_never_panics(
                generation in 0u64..u64::MAX,
                body in prop::collection::vec(0u8..255, 0..48),
                cut in 0usize..64
            ) {
                let frame = encode_response(STATUS_OK, generation, &body);
                let keep = cut.min(frame.len());
                match parse_response(&frame[..keep]) {
                    Ok(Some(resp)) => {
                        prop_assert!(keep >= 9);
                        prop_assert_eq!(resp.generation, generation);
                    }
                    Ok(None) => prop_assert!(false, "OK status cannot decode to NOT_FOUND"),
                    Err(_) => prop_assert!(keep < 9),
                }
            }

            /// Flipping one bit of a valid response frame never panics
            /// the parser (it may still parse, with different contents).
            #[test]
            fn corrupted_response_never_panics(
                generation in 0u64..u64::MAX,
                body in prop::collection::vec(0u8..255, 1..48),
                idx in 0usize..1024,
                bit in 0u8..8
            ) {
                let mut frame = encode_response(STATUS_OK, generation, &body);
                let i = idx % frame.len();
                frame[i] ^= 1 << bit;
                let _ = parse_response(&frame);
            }
        }
    }

    impl RobustWireClient {
        /// Whether a connection is currently established.
        fn is_connected(&self) -> bool {
            self.transport.is_connected()
        }

        /// Whether the circuit breaker is currently failing requests fast.
        fn breaker_open(&self) -> bool {
            self.transport.breaker_open()
        }

        /// Query a sysconf value by wire key name (e.g. `"nprocessors_onln"`).
        fn sysconf(
            &mut self,
            caller: Option<CgroupId>,
            key: &str,
        ) -> Result<Option<u64>, WireError> {
            sysconf_value(self.request(KIND_SYSCONF, caller, key)?)
        }
    }

    impl WireClient {
        /// Query a sysconf value by wire key name (e.g. `"nprocessors_onln"`).
        fn sysconf(&mut self, caller: Option<CgroupId>, key: &str) -> io::Result<Option<u64>> {
            let resp = self.request(KIND_SYSCONF, caller, key)?;
            Ok(sysconf_value(resp)?)
        }

        /// Fetch the daemon's Prometheus text exposition.
        fn stats(&mut self) -> io::Result<String> {
            self.text_request(KIND_STATS, None)
        }

        /// Fetch a rendered decision-provenance trace: one container's
        /// timeline, or the full ring for `None`.
        fn trace(&mut self, container: Option<CgroupId>) -> io::Result<String> {
            self.text_request(KIND_TRACE, container)
        }

        fn text_request(&mut self, kind: u8, caller: Option<CgroupId>) -> io::Result<String> {
            let resp = self.request(kind, caller, "")?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "text query answered NOT_FOUND")
            })?;
            String::from_utf8(resp.body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        }
    }

    /// The value a sysconf answer carries (`None`: NOT_FOUND).
    fn sysconf_value(resp: Option<WireResponse>) -> Result<Option<u64>, WireError> {
        let Some(resp) = resp else {
            return Ok(None);
        };
        match decimal(&resp.body) {
            Some(value) => Ok(Some(value)),
            None => Err(WireError::Malformed(
                "sysconf body is not a decimal value".into(),
            )),
        }
    }
}

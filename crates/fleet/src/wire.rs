//! Unix-socket transport for the fleet protocol.
//!
//! The controller listens on one socket; peripheries and rollup readers
//! each hold a connection carrying request/response pairs in order
//! (HELLO→ACK, DELTA→ACK, QUERY→ROLLUP, POLICY→POLICY echo). Framing is
//! the shared length-prefixed codec ([`arv_viewd::codec`]) — the same
//! implementation viewd's wire uses, per the one-codec rule.
//!
//! Serving rides the same readiness-driven engine as viewd's wire tier:
//! [`FleetWireServer`] is a thin protocol adapter over
//! [`arv_viewd::Reactor`] — sharded epoll event loops, nonblocking
//! connection slabs, incremental frame reassembly and vectored batched
//! writes — configured through the validated
//! [`arv_viewd::ServerConfig`] builder. A frame the controller cannot
//! decode is connection-fatal: the service closes the conversation (the
//! peer sees EOF), exactly like the viewd wire's response to
//! untrustable framing.
//!
//! The client side is the same story in reverse: retry, backoff,
//! reconnect and target failover live once in [`arv_viewd::Transport`],
//! and [`FleetClient`], the one fleet client, wraps it with the fleet
//! protocol's frame bound under the same [`arv_viewd::RetryPolicy`] and
//! [`arv_viewd::WireError`] as viewd's client. The caller learns via
//! [`FleetClient::take_reconnected`] that the conversation moved, so it
//! can re-HELLO and answer the new leader's FULL-resync. Epoch fencing
//! is the protocol's job, not the transport's: the periphery fences
//! stale ACKs ([`crate::Periphery::handle_ack`]) and the controller
//! fences stale REPL frames.

use arv_viewd::{
    FrameService, Reactor, Response, RetryPolicy, ServerConfig, ServiceAction, Transport, WireError,
};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::controller::FleetController;
use crate::protocol::MAX_FLEET_FRAME;

/// The fleet protocol plugged into the shared reactor: one
/// [`FleetController::handle_frame`] call per complete request frame.
/// Admission pressure is ignored — the fleet tier has no shed ladder;
/// the controller's own backpressure (NACK/resync) is the flow control.
struct FleetService {
    controller: Arc<FleetController>,
}

impl FrameService for FleetService {
    fn max_request(&self) -> u32 {
        MAX_FLEET_FRAME
    }

    fn handle(&self, request: &[u8], _pressured: bool) -> ServiceAction {
        match self.controller.handle_frame(request) {
            Some(response) => ServiceAction::Reply(Response::from_payload(response)),
            // Malformed (or non-request) frame: framing can no longer
            // be trusted — drop the conversation.
            None => ServiceAction::Close,
        }
    }
}

/// Reactor sizing for a fleet core: generous admission (the controller
/// gates load at the protocol level, not per-connection), a queue cap
/// that holds several full-size rollups, and the write-stall clock as
/// the only eviction reason a healthy periphery can plausibly hit.
fn fleet_server_config() -> io::Result<ServerConfig> {
    ServerConfig::builder()
        .max_connections(1024)
        .rate_burst(1_000_000)
        .rate_refill_per_sec(1_000_000.0)
        .write_deadline(Duration::from_secs(5))
        .outbound_queue_cap(4 * MAX_FLEET_FRAME as usize)
        .build()
}

/// The listening fleet core: accepts connections on a Unix socket and
/// serves them on the shared readiness reactor until shut down.
#[derive(Debug)]
pub struct FleetWireServer {
    reactor: Reactor,
}

impl FleetWireServer {
    /// Bind `socket_path` (removing any stale socket file first) and
    /// start serving `controller` with the default fleet sizing.
    pub fn spawn(
        controller: Arc<FleetController>,
        socket_path: impl AsRef<Path>,
    ) -> io::Result<FleetWireServer> {
        FleetWireServer::spawn_with_config(controller, socket_path, fleet_server_config()?)
    }

    /// Bind and serve under an explicit reactor configuration.
    pub fn spawn_with_config(
        controller: Arc<FleetController>,
        socket_path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> io::Result<FleetWireServer> {
        let service = Arc::new(FleetService { controller });
        let reactor = Reactor::spawn(service, socket_path, config)?;
        Ok(FleetWireServer { reactor })
    }

    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        self.reactor.socket_path()
    }

    /// Stop accepting, join every reactor thread, remove the socket.
    /// Idempotent; prompt even under busy traffic.
    pub fn shutdown(&mut self) {
        self.reactor.shutdown();
    }
}

/// The fleet's wire client, for peripheries (HELLO/DELTA), rollup
/// readers (QUERY) and replication (REPL) alike: one live connection at
/// a time, walking an ordered controller list on failure with
/// seeded-jitter exponential backoff — a thin fleet-typed wrapper over
/// the shared [`arv_viewd::Transport`].
///
/// Connection is lazy — constructing the client never touches a socket,
/// so a periphery can start before any controller does. After a request
/// that moved the conversation (new connection, possibly a different
/// controller), [`FleetClient::take_reconnected`] returns true once:
/// the caller must re-HELLO (`Periphery::on_reconnect`) so the new
/// leader can demand the FULL resync that re-seeds its index.
#[derive(Debug)]
pub struct FleetClient {
    transport: Transport,
}

impl FleetClient {
    /// A client walking `controllers` (primary first) under `policy`.
    /// Does not connect yet. The circuit breaker is force-disabled: a
    /// fleet client's answer to repeated failure is walking the list,
    /// never failing fast.
    pub fn new(
        controllers: impl IntoIterator<Item = impl AsRef<Path>>,
        policy: RetryPolicy,
    ) -> FleetClient {
        let mut policy = policy;
        policy.breaker_threshold = 0;
        FleetClient {
            transport: Transport::new(controllers, policy, MAX_FLEET_FRAME),
        }
    }

    /// True exactly once after the conversation moved to a fresh
    /// connection; the caller must re-HELLO before its next delta.
    pub fn take_reconnected(&mut self) -> bool {
        self.transport.take_reconnected()
    }

    /// Drop the current connection and aim at the next controller in
    /// the list. The transport calls this internally on I/O failure;
    /// callers invoke it on protocol-level rejections (a not-leader ACK,
    /// a stale-epoch rollup) where the bytes flowed fine but the peer
    /// is not the leader.
    pub fn advance_controller(&mut self) {
        self.transport.advance_target();
    }

    /// Send one frame, walking the controller list until a response
    /// arrives or attempts are exhausted. Returns the response bytes; a
    /// controller that keeps closing the conversation (it cannot decode
    /// the frame) surfaces as [`WireError::Disconnected`].
    pub fn request(&mut self, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        self.transport.request(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        decode_frame, encode_delta, encode_hello, encode_query, Delta, DeltaEntry, DeltaHead,
        FleetPolicy, Frame, Hello, Query, Rollup, HEALTH_FRESH, QUERY_CLUSTER,
    };
    use std::path::PathBuf;

    fn sock_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("arv-fleet-wire-{}-{}", std::process::id(), name));
        p
    }

    /// One attempt per request, so a close reaches the caller as it
    /// happened instead of being ridden over by a reconnect.
    fn one_attempt() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    fn hello() -> Vec<u8> {
        encode_hello(&Hello {
            host: 1,
            tick: 0,
            epoch: 0,
        })
    }

    #[test]
    fn hello_delta_query_over_the_wire() {
        let controller = Arc::new(FleetController::new(4, FleetPolicy::default()));
        let path = sock_path("basic");
        let mut server = FleetWireServer::spawn(Arc::clone(&controller), &path).unwrap();

        let mut client = FleetClient::new([&path], one_attempt());
        let resp = client.request(&hello()).unwrap();
        assert!(matches!(decode_frame(&resp), Some(Frame::Ack(_))));

        let delta = encode_delta(&Delta {
            head: DeltaHead {
                host: 1,
                seq: 0,
                full: true,
                health: HEALTH_FRESH,
                durability_lost: false,
                epoch: 0,
                origin_tick: 1,
                trace_seq: 1,
                summary: Default::default(),
            },
            entries: vec![DeltaEntry {
                id: 1,
                tenant: 0,
                e_cpu: 4,
                e_mem: 1000,
                e_avail: 500,
            }],
            removed: Vec::new(),
        });
        let resp = client.request(&delta).unwrap();
        let Some(Frame::Ack(ack)) = decode_frame(&resp) else {
            panic!("expected ACK");
        };
        assert_eq!(ack.expected_seq, 1);
        assert!(!ack.resync);

        let query = encode_query(&Query {
            kind: QUERY_CLUSTER,
            arg: 0,
        });
        let resp = client.request(&query).unwrap();
        let Some(Frame::Rollup(frame)) = decode_frame(&resp) else {
            panic!("expected cluster rollup");
        };
        let Rollup::Cluster { rollup, degraded } = frame.body else {
            panic!("expected cluster rollup body");
        };
        assert_eq!(rollup.cpu, 4);
        assert_eq!(rollup.hosts, 1);
        assert!(!degraded);

        server.shutdown();
    }

    #[test]
    fn failover_client_walks_to_the_standby() {
        let controller = Arc::new(FleetController::new(4, FleetPolicy::default()));
        let dead = sock_path("failover-dead");
        let live = sock_path("failover-live");
        let _ = std::fs::remove_file(&dead);
        let mut server = FleetWireServer::spawn(Arc::clone(&controller), &live).unwrap();

        let mut client =
            FleetClient::new([dead.as_path(), live.as_path()], RetryPolicy::fast_test());
        assert_eq!(client.transport.active_target(), 0);
        let resp = client.request(&hello()).unwrap();
        assert!(matches!(decode_frame(&resp), Some(Frame::Ack(_))));
        assert_eq!(
            client.transport.active_target(),
            1,
            "walked past the dead primary"
        );
        assert!(client.take_reconnected(), "fresh connection reported once");
        assert!(!client.take_reconnected());
        let s = client.transport.stats();
        assert_eq!(s.successes, 1);
        assert!(s.target_switches >= 1);
        assert!(s.retries >= 1);
        assert_eq!(s.connects, 1, "only the live controller connected");

        // Kill the live controller too: attempts exhaust cleanly.
        server.shutdown();
        assert!(client.request(&hello()).is_err());
        assert_eq!(client.transport.stats().failures, 1);
    }

    /// The breaker is forced off whatever the policy says: with no
    /// controller listening, every request walks the whole list for
    /// all its attempts, and none fails fast.
    #[test]
    fn client_never_fails_fast() {
        let dead = [sock_path("nobreaker-a"), sock_path("nobreaker-b")];
        for path in &dead {
            let _ = std::fs::remove_file(path);
        }
        let policy = RetryPolicy {
            breaker_threshold: 1,
            ..RetryPolicy::fast_test()
        };
        let attempts = u64::from(policy.max_attempts);
        let mut client = FleetClient::new(&dead, policy);
        for round in 1..=3 {
            assert!(client.request(&hello()).is_err());
            let s = client.transport.stats();
            assert_eq!(s.failures, round);
            assert_eq!(s.fast_fails, 0, "request {round} failed fast");
            assert_eq!(s.breaker_opens, 0);
            assert_eq!(
                s.target_switches,
                round * attempts,
                "request {round} did not walk the list on every attempt"
            );
        }
    }

    #[test]
    fn malformed_frame_drops_the_connection() {
        let controller = Arc::new(FleetController::new(2, FleetPolicy::default()));
        let path = sock_path("malformed");
        let mut server = FleetWireServer::spawn(Arc::clone(&controller), &path).unwrap();

        let mut client = FleetClient::new([&path], one_attempt());
        let answer = client.request(&[0xEE, 1, 2, 3]);
        assert!(
            matches!(answer, Err(WireError::Disconnected)),
            "server must close on garbage: {answer:?}"
        );
        assert!(controller.metrics().snapshot().malformed_frames >= 1);

        server.shutdown();
    }
}

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
//! reconnect, target failover and epoch fencing live once in
//! [`arv_viewd::Transport`], and [`FleetFailoverClient`] wraps it with
//! the fleet protocol's types. [`FailoverPolicy`] *is*
//! [`arv_viewd::RetryPolicy`] — one policy shape for every client in
//! the system. The caller learns via
//! [`FleetFailoverClient::take_reconnected`] that the conversation
//! moved, so it can re-HELLO and answer the new leader's FULL-resync.

use arv_viewd::codec::{read_frame, write_frame};
use arv_viewd::{
    FrameService, Reactor, Response, RetryPolicy, ServerConfig, ServiceAction, Transport,
};
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::controller::FleetController;
use crate::protocol::MAX_FLEET_FRAME;

/// Retry, backoff and failover policy for [`FleetFailoverClient`] — the
/// shared [`arv_viewd::RetryPolicy`], aliased so fleet callers keep
/// their vocabulary. The breaker fields are ignored here: a failover
/// client always walks its controller list instead of failing fast
/// ([`FleetFailoverClient::new`] disables the breaker regardless of
/// what the policy carries).
pub type FailoverPolicy = RetryPolicy;

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

/// A blocking fleet connection: one stream, request/response in order.
/// Used by peripheries (HELLO/DELTA) and rollup readers (QUERY) alike.
#[derive(Debug)]
pub struct FleetClient {
    stream: UnixStream,
}

impl FleetClient {
    /// Connect to a [`FleetWireServer`].
    pub fn connect(socket_path: impl AsRef<Path>) -> io::Result<FleetClient> {
        let stream = UnixStream::connect(socket_path)?;
        Ok(FleetClient { stream })
    }

    /// Send one frame and read the response. `Ok(None)` means the
    /// server closed the conversation (it saw a malformed frame).
    pub fn request(&mut self, frame: &[u8]) -> io::Result<Option<Vec<u8>>> {
        write_frame(&mut self.stream, frame)?;
        read_frame(&mut self.stream, MAX_FLEET_FRAME)
    }
}

/// A periphery's failover transport: one live connection at a time,
/// walking an ordered controller list on failure with seeded-jitter
/// exponential backoff — a thin fleet-typed wrapper over the shared
/// [`arv_viewd::Transport`].
///
/// Connection is lazy — constructing the client never touches a socket,
/// so a periphery can start before any controller does. After a request
/// that moved the conversation (new connection, possibly a different
/// controller), [`FleetFailoverClient::take_reconnected`] returns true
/// once: the caller must re-HELLO (`Periphery::on_reconnect`) so the
/// new leader can demand the FULL resync that re-seeds its index.
#[derive(Debug)]
pub struct FleetFailoverClient {
    transport: Transport,
}

impl FleetFailoverClient {
    /// A client walking `controllers` (primary first) under `policy`.
    /// Does not connect yet. The circuit breaker is force-disabled: a
    /// failover client's answer to repeated failure is walking the
    /// list, never failing fast.
    pub fn new(
        controllers: impl IntoIterator<Item = impl AsRef<Path>>,
        policy: FailoverPolicy,
    ) -> FleetFailoverClient {
        let mut policy = policy;
        policy.breaker_threshold = 0;
        FleetFailoverClient {
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
    /// callers invoke it on protocol-level rejections (a fenced or
    /// not-leader ACK) where the bytes flowed fine but the peer is not
    /// the leader.
    pub fn advance_controller(&mut self) {
        self.transport.advance_target();
    }

    /// Send one frame, walking the controller list until a response
    /// arrives or attempts are exhausted. Returns the response bytes.
    pub fn request(&mut self, frame: &[u8]) -> io::Result<Vec<u8>> {
        self.transport.request(frame).map_err(io::Error::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        decode_frame, encode_delta, encode_hello, encode_query, Delta, DeltaEntry, FleetPolicy,
        Frame, Hello, Query, Rollup, HEALTH_FRESH, QUERY_CLUSTER,
    };
    use arv_viewd::WireError;
    use std::path::PathBuf;

    fn sock_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("arv-fleet-wire-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn hello_delta_query_over_the_wire() {
        let controller = Arc::new(FleetController::new(4, FleetPolicy::default()));
        let path = sock_path("basic");
        let mut server = FleetWireServer::spawn(Arc::clone(&controller), &path).unwrap();

        let mut client = FleetClient::connect(&path).unwrap();
        let hello = encode_hello(&Hello {
            host: 1,
            tick: 0,
            containers: 1,
            epoch: 0,
        });
        let resp = client.request(&hello).unwrap().unwrap();
        assert!(matches!(decode_frame(&resp), Some(Frame::Ack(_))));

        let delta = encode_delta(&Delta {
            host: 1,
            seq: 0,
            tick: 1,
            full: true,
            health: HEALTH_FRESH,
            durability_lost: false,
            staleness_age: 0,
            epoch: 0,
            origin_tick: 1,
            trace_seq: 1,
            summary: Default::default(),
            entries: vec![DeltaEntry {
                id: 1,
                tenant: 0,
                e_cpu: 4,
                e_mem: 1000,
                e_avail: 500,
                last_tick: 1,
            }],
            removed: Vec::new(),
        });
        let resp = client.request(&delta).unwrap().unwrap();
        let Some(Frame::Ack(ack)) = decode_frame(&resp) else {
            panic!("expected ACK");
        };
        assert_eq!(ack.expected_seq, 1);
        assert!(!ack.resync);

        let query = encode_query(&Query {
            kind: QUERY_CLUSTER,
            arg: 0,
        });
        let resp = client.request(&query).unwrap().unwrap();
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

        let mut client = FleetFailoverClient::new(
            [dead.as_path(), live.as_path()],
            FailoverPolicy::fast_test(),
        );
        assert_eq!(client.active_controller(), 0);
        let hello = encode_hello(&Hello {
            host: 1,
            tick: 0,
            containers: 0,
            epoch: 0,
        });
        let resp = client.request(&hello).unwrap();
        assert!(matches!(decode_frame(&resp), Some(Frame::Ack(_))));
        assert_eq!(
            client.active_controller(),
            1,
            "walked past the dead primary"
        );
        assert!(client.take_reconnected(), "fresh connection reported once");
        assert!(!client.take_reconnected());
        let s = client.stats();
        assert_eq!(s.successes, 1);
        assert!(s.controller_switches >= 1);
        assert!(s.retries >= 1);
        assert_eq!(s.reconnects, 1, "only the live controller connected");

        // Kill the live controller too: attempts exhaust cleanly.
        server.shutdown();
        assert!(client.request(&hello).is_err());
        assert_eq!(client.stats().failures, 1);
    }

    #[test]
    fn malformed_frame_drops_the_connection() {
        let controller = Arc::new(FleetController::new(2, FleetPolicy::default()));
        let path = sock_path("malformed");
        let mut server = FleetWireServer::spawn(Arc::clone(&controller), &path).unwrap();

        let mut client = FleetClient::connect(&path).unwrap();
        let answer = client.request(&[0xEE, 1, 2, 3]).unwrap();
        assert!(answer.is_none(), "server must close on garbage");
        assert!(controller.metrics().snapshot().malformed_frames >= 1);

        server.shutdown();
    }

    #[test]
    fn fenced_ack_fails_fast_and_advances() {
        let controller = Arc::new(FleetController::new(2, FleetPolicy::default()));
        let path = sock_path("fenced");
        let mut server = FleetWireServer::spawn(Arc::clone(&controller), &path).unwrap();

        // Two entries, both aimed at the same live controller, so the
        // fence-driven advance lands on a working peer.
        let mut client = FleetFailoverClient::new(
            [path.as_path(), path.as_path()],
            FailoverPolicy::fast_test(),
        );
        let hello = encode_hello(&Hello {
            host: 1,
            tick: 0,
            containers: 0,
            epoch: 0,
        });
        // The controller's epoch starts at 0, so any positive fence
        // refuses its ACKs.
        let err = client.request_fenced(&hello, 1_000_000).unwrap_err();
        assert!(matches!(err, WireError::Fenced { .. }));
        assert_eq!(client.active_controller(), 1, "fence advances the target");
        assert_eq!(client.stats().failures, 1);

        // With the fence satisfied the same exchange goes through.
        let resp = client.request_fenced(&hello, 0).unwrap();
        assert!(matches!(decode_frame(&resp), Some(Frame::Ack(_))));

        server.shutdown();
    }

    impl FleetFailoverClient {
        /// Counters so far.
        fn stats(&self) -> FailoverClientStats {
            let t = self.transport.stats();
            FailoverClientStats {
                successes: t.successes,
                retries: t.retries,
                controller_switches: t.target_switches,
                reconnects: t.connects,
                failures: t.failures,
            }
        }

        /// The controller currently targeted (index into the configured
        /// list).
        fn active_controller(&self) -> usize {
            self.transport.active_target()
        }

        /// Send one frame and fence the answer: an ACK carrying a
        /// controller epoch below `min_epoch` came from a deposed peer, so
        /// the transport advances to the next controller and the request
        /// fails with [`WireError::Fenced`] — the caller re-HELLOs before
        /// anything else makes sense. Non-ACK answers pass through
        /// unjudged.
        fn request_fenced(
            &mut self,
            frame: &[u8],
            min_epoch: u64,
        ) -> Result<Vec<u8>, arv_viewd::WireError> {
            use crate::protocol::{decode_frame, Frame};
            use arv_viewd::Verdict;
            self.transport.request_classified(frame, |bytes| {
                match decode_frame(bytes) {
                    Some(Frame::Ack(ack)) if ack.ctl_epoch < min_epoch => Verdict::Fenced {
                        epoch: ack.ctl_epoch,
                    },
                    // Undecodable frames are left to the caller: the fleet
                    // treats them as protocol errors above this layer, and
                    // judging them here would double-count reconnects.
                    _ => Verdict::Accept,
                }
            })
        }
    }

    /// Counters describing one [`FleetFailoverClient`]'s life so far — a
    /// projection of the underlying [`arv_viewd::TransportStats`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct FailoverClientStats {
        /// Requests answered successfully.
        successes: u64,
        /// Attempts beyond the first within a request.
        retries: u64,
        /// Times the client moved to the next controller in the list
        /// (after an I/O failure, EOF, or an explicit not-leader signal).
        controller_switches: u64,
        /// Fresh connections established (first connect included).
        reconnects: u64,
        /// Requests that exhausted every attempt.
        failures: u64,
    }
}

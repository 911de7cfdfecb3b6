//! Shared length-prefixed frame codec and the one client transport.
//!
//! Every wire conversation in the project — viewd's request/response
//! protocol and the fleet's delta/policy stream — moves frames shaped
//! `u32le len | payload` over a byte stream. This module is the single
//! implementation of that framing, used by both [`crate::wire`] and the
//! `arv-fleet` crate, so the two protocols cannot drift apart in how
//! they bound, read, or write frames.
//!
//! Three layers live here:
//!
//! * the blocking frame functions ([`read_frame`], [`write_frame`])
//!   the clients use;
//! * [`FrameDecoder`], the incremental reassembler the readiness
//!   reactor ([`crate::reactor`]) feeds from nonblocking reads — it
//!   accepts bytes at arbitrary boundaries and yields exactly the
//!   frames the one-shot reader would;
//! * [`Transport`] + [`RetryPolicy`], the single client-side
//!   failure-handling engine (deadlines, seeded-jitter backoff,
//!   reconnect, target failover, circuit breaker, shed-hint pacing)
//!   that each protocol's one client — viewd's `WireClient`, the
//!   fleet's `FleetClient` — wraps with its own typed surface.
//!
//! The codec deliberately knows nothing about payload contents: opcode
//! and body layouts belong to the protocol layers above. Failures
//! surface as [`WireError`], which converts to and from `io::Error` so
//! call sites written against the old stringly errors keep compiling.

use arv_sim_core::SimRng;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Typed failure surface of the wire client/server APIs.
///
/// Replaces the former stringly `io::Error::other(...)` returns; the
/// `From` conversions in both directions let call sites that still
/// speak `io::Result` migrate mechanically (`?` keeps working).
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket operation failed (connect, read, write,
    /// deadline expiry).
    Io(io::Error),
    /// A frame violated the protocol — oversized length prefix, short
    /// header, unknown status byte. Framing can no longer be trusted
    /// and the connection must be dropped.
    Malformed(String),
    /// Every attempt was refused under overload (`OK_SHED`); the server
    /// is alive and asked us back in `retry_after_ms` milliseconds.
    Shed {
        /// The server's retry-after hint, milliseconds.
        retry_after_ms: u64,
    },
    /// The peer closed the conversation mid-request.
    Disconnected,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o failure: {e}"),
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
            WireError::Shed { retry_after_ms } => {
                write!(f, "request shed; retry after {retry_after_ms}ms")
            }
            WireError::Disconnected => write!(f, "peer closed the conversation"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        match e {
            WireError::Io(inner) => inner,
            WireError::Malformed(why) => io::Error::new(io::ErrorKind::InvalidData, why),
            WireError::Disconnected => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed the conversation")
            }
            other => io::Error::other(other.to_string()),
        }
    }
}

/// Write one frame: a `u32le` length prefix followed by the payload.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(payload)
}

/// Read one frame from a blocking stream.
///
/// `Ok(None)` is a clean EOF *between* frames (the peer ended the
/// conversation). A length prefix above `max` is `InvalidData` — the
/// cap bounds the allocation a corrupt or malicious prefix can force.
pub fn read_frame(stream: &mut impl Read, max: u32) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        // Clean EOF between frames ends the conversation.
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit {max}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental frame reassembler for nonblocking reads.
///
/// The reactor feeds whatever bytes `read(2)` returned — length
/// prefixes and payloads torn at arbitrary boundaries — and pops whole
/// frames as they complete. For any byte stream, the sequence of frames
/// (and the point of first error) is identical to what the one-shot
/// [`read_frame`] would produce over the same bytes; the proptests at
/// the bottom of this module pin that equivalence.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
    max: u32,
}

impl FrameDecoder {
    /// A decoder refusing frames larger than `max` payload bytes.
    pub fn new(max: u32) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max,
        }
    }

    /// Append freshly read bytes (any split, including empty).
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim consumed space here, not when a frame is popped: a
        // popped frame is borrowed from the buffer. A drained buffer
        // resets for free; a long-lived backlog is shifted down once the
        // consumed prefix dominates it, so the buffer stays bounded.
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, if one has fully arrived, borrowed
    /// from the decoder's buffer (valid until the next call).
    ///
    /// `Ok(None)` means "need more bytes". An oversized length prefix
    /// is [`WireError::Malformed`]: the stream can no longer be framed
    /// and the connection must be dropped.
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(&avail[..4]);
        let len = u32::from_le_bytes(len_buf);
        if len > self.max {
            return Err(WireError::Malformed(format!(
                "frame of {len} bytes exceeds limit {}",
                self.max
            )));
        }
        let need = 4 + len as usize;
        if avail.len() < need {
            return Ok(None);
        }
        let frame = self.start + 4..self.start + need;
        self.start += need;
        Ok(Some(&self.buf[frame]))
    }

    /// [`next_frame_ref`](FrameDecoder::next_frame_ref), copied out.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.next_frame_ref()?.map(<[u8]>::to_vec))
    }

    /// Whether bytes of an unfinished frame (or prefix) are buffered —
    /// EOF now would tear a frame rather than end the conversation.
    pub fn has_partial(&self) -> bool {
        self.buf.len() > self.start
    }
}

/// Retry, backoff, deadline and circuit-breaker policy for the shared
/// [`Transport`], and thus for viewd's `WireClient` and the fleet's
/// `FleetClient`, which are thin wrappers over it.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries per request (first attempt + retries). At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff pause.
    pub max_backoff: Duration,
    /// Read/write deadline applied to the socket for each attempt.
    pub request_timeout: Duration,
    /// Consecutive failed *requests* (attempts exhausted) that open the
    /// circuit breaker. Zero disables the breaker entirely — the right
    /// setting for failover transports that walk a target list instead
    /// of failing fast.
    pub breaker_threshold: u32,
    /// Number of subsequent requests that fail fast (serving the cached
    /// fallback) while the breaker is open. Counted in requests, not
    /// wall-clock, so behaviour is deterministic under test.
    pub breaker_cooldown: u32,
    /// Seed for the jitter applied to backoff pauses; same seed, same
    /// pause sequence.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            request_timeout: Duration::from_millis(500),
            breaker_threshold: 3,
            breaker_cooldown: 8,
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy with microsecond-scale backoffs for tests, so failure
    /// paths run in milliseconds instead of seconds.
    pub fn fast_test() -> RetryPolicy {
        RetryPolicy {
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
            request_timeout: Duration::from_millis(200),
            ..RetryPolicy::default()
        }
    }

    /// Pause before retry number `retry` (0-based), with ±30% seeded
    /// jitter to decorrelate clients hammering a recovering server.
    pub fn backoff(&self, retry: u32, rng: &mut SimRng) -> Duration {
        let doubled = self.base_backoff.saturating_mul(1u32 << retry.min(10));
        doubled.min(self.max_backoff).mul_f64(rng.jitter(0.3))
    }
}

/// How a response classifier judges one raw frame. The [`Transport`]
/// turns each verdict into the matching recovery policy, so shed
/// pacing and malformed-frame reconnects are implemented exactly once.
#[derive(Debug)]
pub enum Verdict {
    /// The frame answers the request: return it to the caller.
    Accept,
    /// The server shed the request under overload. If another attempt
    /// follows, back off per its hint (not the exponential schedule)
    /// first; never count it toward the circuit breaker.
    ShedBackoff {
        /// The server's retry-after hint, milliseconds.
        retry_after_ms: u64,
    },
    /// The frame is structurally untrustable: drop the connection so
    /// the next attempt starts on a fresh one.
    Malformed(String),
}

/// Counters describing one [`Transport`]'s life so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Requests that got an accepted response.
    pub successes: u64,
    /// Requests that exhausted every attempt.
    pub failures: u64,
    /// Individual retry attempts (beyond each request's first try).
    pub retries: u64,
    /// Connections established, the first one included.
    pub connects: u64,
    /// Times the transport moved to the next target in its list.
    pub target_switches: u64,
    /// Times the circuit breaker opened.
    pub breaker_opens: u64,
    /// Requests failed fast because the breaker was open.
    pub fast_fails: u64,
    /// Shed responses received; each backs off per the server's hint.
    pub shed_backoffs: u64,
}

/// The one client-side failure-handling engine: lazy connect with
/// per-attempt deadlines, bounded exponential backoff under
/// deterministic seeded jitter, automatic reconnect, ordered target
/// failover, a request-counted circuit breaker and shed-hint pacing.
///
/// Each protocol's client (viewd's `WireClient`, the fleet's
/// `FleetClient`) wraps this with its own encode/decode and caching;
/// the retry machinery itself is written once, here.
#[derive(Debug)]
pub struct Transport {
    targets: Vec<PathBuf>,
    policy: RetryPolicy,
    max_frame: u32,
    active: usize,
    stream: Option<UnixStream>,
    rng: SimRng,
    reconnected: bool,
    consecutive_failures: u32,
    breaker_remaining: u32,
    stats: TransportStats,
}

impl Transport {
    /// A transport walking `targets` (primary first) under `policy`,
    /// bounding response frames at `max_frame` bytes. Does not connect
    /// yet — a client can start before any server does.
    pub fn new(
        targets: impl IntoIterator<Item = impl AsRef<Path>>,
        policy: RetryPolicy,
        max_frame: u32,
    ) -> Transport {
        Transport {
            targets: targets
                .into_iter()
                .map(|p| p.as_ref().to_path_buf())
                .collect(),
            rng: SimRng::seed_from_u64(policy.jitter_seed),
            policy,
            max_frame,
            active: 0,
            stream: None,
            reconnected: false,
            consecutive_failures: 0,
            breaker_remaining: 0,
            stats: TransportStats::default(),
        }
    }

    /// A transport with a single target (no failover list).
    pub fn single(target: impl AsRef<Path>, policy: RetryPolicy, max_frame: u32) -> Transport {
        Transport::new([target.as_ref()], policy, max_frame)
    }

    /// Counters so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// The target currently aimed at (index into the configured list).
    pub fn active_target(&self) -> usize {
        self.active
    }

    /// True exactly once after the conversation moved to a fresh
    /// connection; callers with session state must re-handshake.
    pub fn take_reconnected(&mut self) -> bool {
        std::mem::take(&mut self.reconnected)
    }

    /// Drop the current connection and aim at the next target in the
    /// list. Called internally on I/O failure; callers invoke it on
    /// protocol-level rejections (a not-leader answer) where the bytes
    /// flowed fine but the peer is the wrong one.
    pub fn advance_target(&mut self) {
        self.stream = None;
        if !self.targets.is_empty() {
            self.active = (self.active + 1) % self.targets.len();
        }
        self.stats.target_switches += 1;
    }

    fn connect_active(&mut self) -> Result<(), WireError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let path = self
            .targets
            .get(self.active)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "empty target list"))?;
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(self.policy.request_timeout))?;
        stream.set_write_timeout(Some(self.policy.request_timeout))?;
        self.stream = Some(stream);
        self.stats.connects += 1;
        self.reconnected = true;
        Ok(())
    }

    /// One write/read exchange on the live connection (connecting if
    /// needed), with no retries.
    fn exchange_once(&mut self, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        self.connect_active()?;
        let stream = self.stream.as_mut().ok_or(WireError::Disconnected)?;
        write_frame(stream, frame)?;
        match read_frame(stream, self.max_frame)? {
            Some(resp) => Ok(resp),
            // EOF mid-conversation: the peer died or dropped us —
            // indistinguishable from a crash, so treated like one.
            None => Err(WireError::Disconnected),
        }
    }

    /// Send one frame, accepting whatever answers (no classification).
    pub fn request(&mut self, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        self.request_classified(frame, |_| Verdict::Accept)
    }

    /// Send one frame under the full failure-handling pipeline, letting
    /// `classify` judge each raw response frame.
    ///
    /// On success the accepted frame's bytes are returned. Errors tell
    /// the caller what category of trouble exhausted the attempts:
    /// [`WireError::Shed`] when every answer was an overload refusal,
    /// and `Io`/`Malformed`/`Disconnected` for transport-level failure.
    pub fn request_classified(
        &mut self,
        frame: &[u8],
        mut classify: impl FnMut(&[u8]) -> Verdict,
    ) -> Result<Vec<u8>, WireError> {
        if self.breaker_remaining > 0 {
            self.breaker_remaining -= 1;
            self.stats.fast_fails += 1;
            return Err(WireError::Io(io::Error::other("circuit breaker open")));
        }
        let mut last_err: Option<WireError> = None;
        let mut last_shed: Option<u64> = None;
        let mut skip_backoff = false;
        let attempts = self.policy.max_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                if !skip_backoff {
                    let pause = self.policy.backoff(attempt - 1, &mut self.rng);
                    std::thread::sleep(pause);
                }
            }
            skip_backoff = false;
            match self.exchange_once(frame) {
                Ok(bytes) => match classify(&bytes) {
                    Verdict::Accept => {
                        self.consecutive_failures = 0;
                        self.stats.successes += 1;
                        return Ok(bytes);
                    }
                    Verdict::ShedBackoff { retry_after_ms } => {
                        // Overload, not failure: the server is alive and
                        // saying when to come back. Back off per its
                        // hint (instead of the exponential schedule),
                        // only if another attempt follows, and never
                        // count it toward the breaker.
                        self.stats.shed_backoffs += 1;
                        self.consecutive_failures = 0;
                        if attempt + 1 < attempts {
                            let hint = Duration::from_millis(retry_after_ms.max(1));
                            std::thread::sleep(hint.min(self.policy.max_backoff));
                        }
                        last_shed = Some(retry_after_ms);
                        skip_backoff = true;
                    }
                    Verdict::Malformed(why) => {
                        // The stream can't be trusted any more: drop it
                        // so the next attempt reconnects from scratch.
                        self.advance_target();
                        last_err = Some(WireError::Malformed(why));
                    }
                },
                Err(e) => {
                    self.advance_target();
                    last_err = Some(e);
                }
            }
        }
        if last_err.is_none() {
            if let Some(retry_after_ms) = last_shed {
                // Every attempt was shed: still not a failure (and
                // never a breaker count) — the caller decides whether
                // to degrade to a cache or surface the hint.
                return Err(WireError::Shed { retry_after_ms });
            }
        }
        self.stats.failures += 1;
        self.consecutive_failures += 1;
        if self.policy.breaker_threshold > 0
            && self.consecutive_failures >= self.policy.breaker_threshold
        {
            self.consecutive_failures = 0;
            self.breaker_remaining = self.policy.breaker_cooldown;
            self.stats.breaker_opens += 1;
        }
        Err(last_err.unwrap_or(WireError::Disconnected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut rd = Cursor::new(buf);
        assert_eq!(read_frame(&mut rd, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut rd, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut rd, 64).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        let err = read_frame(&mut Cursor::new(buf), 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").unwrap();
        buf.truncate(buf.len() - 4);
        let err = read_frame(&mut Cursor::new(buf), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn decoder_reassembles_byte_by_byte() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, b"second frame").unwrap();
        let mut dec = FrameDecoder::new(64);
        let mut frames = Vec::new();
        for byte in stream {
            dec.feed(&[byte]);
            while let Some(frame) = dec.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(
            frames,
            vec![b"first".to_vec(), Vec::new(), b"second frame".to_vec()]
        );
        assert!(!dec.has_partial());
    }

    #[test]
    fn decoder_rejects_oversized_prefix() {
        let mut dec = FrameDecoder::new(8);
        dec.feed(&1000u32.to_le_bytes());
        assert!(matches!(dec.next_frame(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn decoder_reports_partial_frames() {
        let mut dec = FrameDecoder::new(64);
        assert!(!dec.has_partial());
        dec.feed(&[5, 0]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.has_partial(), "half a length prefix is a torn frame");
        dec.feed(&[0, 0, b'a', b'b', b'c', b'd', b'e']);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"abcde");
        assert!(!dec.has_partial());
    }

    #[test]
    fn decoder_compacts_long_streams() {
        let mut payload = vec![0xABu8; 1024];
        let mut dec = FrameDecoder::new(2048);
        for round in 0..64 {
            payload[0] = round as u8;
            let mut frame = Vec::new();
            write_frame(&mut frame, &payload).unwrap();
            dec.feed(&frame);
            let got = dec.next_frame().unwrap().unwrap();
            assert_eq!(got[0], round as u8);
            assert_eq!(got.len(), 1024);
        }
        // The consumed prefix must not accumulate forever.
        assert!(dec.buf.len() < 8 * 1024, "buffer grew to {}", dec.buf.len());
    }

    #[test]
    fn wire_error_converts_both_ways() {
        let io_err: io::Error = WireError::Malformed("bad header".into()).into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        let io_err: io::Error = WireError::Disconnected.into();
        assert_eq!(io_err.kind(), io::ErrorKind::UnexpectedEof);
        let wire: WireError = io::Error::from(io::ErrorKind::TimedOut).into();
        assert!(matches!(wire, WireError::Io(_)));
        let shed: io::Error = WireError::Shed { retry_after_ms: 7 }.into();
        assert!(shed.to_string().contains("7ms"));
    }

    /// A shed hint paces the next attempt and nothing else: a
    /// one-attempt request returns at once, a two-attempt one waits the
    /// hint out between its attempts.
    #[test]
    fn a_shed_hint_is_waited_out_only_before_another_attempt() {
        use std::os::unix::net::UnixListener;
        use std::time::Instant;
        let path = std::env::temp_dir().join(format!("arv-codec-shed-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        // Answers every frame, one connection after the other; the
        // classifier below reads each answer as a 150 ms shed.
        let peer = std::thread::spawn(move || {
            for conn in listener.incoming().take(2) {
                let mut conn = conn.unwrap();
                while let Ok(Some(_)) = read_frame(&mut conn, 64) {
                    if write_frame(&mut conn, b"busy").is_err() {
                        break;
                    }
                }
            }
        });
        // Each run's transport drops, closing its connection, before
        // the next run connects.
        let run = |max_attempts| {
            let policy = RetryPolicy {
                max_attempts,
                max_backoff: Duration::from_millis(200),
                ..RetryPolicy::fast_test()
            };
            let mut transport = Transport::single(&path, policy, 64);
            let started = Instant::now();
            let err = transport
                .request_classified(b"q", |_| Verdict::ShedBackoff {
                    retry_after_ms: 150,
                })
                .unwrap_err();
            let took = started.elapsed();
            assert!(matches!(err, WireError::Shed { .. }), "{err:?}");
            assert_eq!(transport.stats().shed_backoffs, u64::from(max_attempts));
            took
        };
        let once = run(1);
        assert!(
            once < Duration::from_millis(50),
            "slept {once:?} after the last attempt"
        );
        let twice = run(2);
        assert!(
            twice >= Duration::from_millis(150),
            "the retry was not paced: {twice:?}"
        );

        peer.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    mod decoder_props {
        use super::*;
        use proptest::prelude::*;

        /// What a frame stream decodes to, frame list plus whether the
        /// stream ended in an error (oversized prefix) or a torn frame.
        #[derive(Debug, PartialEq)]
        struct Decoded {
            frames: Vec<Vec<u8>>,
            error: bool,
            torn: bool,
        }

        /// Ground truth: the one-shot blocking reader over a cursor.
        ///
        /// One wrinkle: `read_frame`'s `read_exact` on the length prefix
        /// collapses a torn 1–3 byte prefix into "clean EOF" (both are
        /// `UnexpectedEof` to it). Torn-ness is therefore classified by
        /// bytes actually consumed, which is byte-precise — and is what
        /// the incremental decoder reports via `has_partial`.
        fn one_shot(bytes: &[u8], max: u32) -> Decoded {
            let mut rd = Cursor::new(bytes);
            let mut frames: Vec<Vec<u8>> = Vec::new();
            loop {
                match read_frame(&mut rd, max) {
                    Ok(Some(f)) => frames.push(f),
                    Ok(None) => {
                        let consumed: usize = frames.iter().map(|f| 4 + f.len()).sum();
                        return Decoded {
                            frames,
                            error: false,
                            torn: consumed < bytes.len(),
                        };
                    }
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                        return Decoded {
                            frames,
                            error: false,
                            torn: true,
                        }
                    }
                    Err(_) => {
                        return Decoded {
                            frames,
                            error: true,
                            torn: false,
                        }
                    }
                }
            }
        }

        /// The incremental decoder fed the same bytes at the given
        /// split points.
        fn incremental(bytes: &[u8], splits: &[usize], max: u32) -> Decoded {
            let mut dec = FrameDecoder::new(max);
            let mut frames = Vec::new();
            let mut cursor = 0usize;
            let mut boundaries: Vec<usize> = splits.iter().map(|s| s % (bytes.len() + 1)).collect();
            boundaries.push(bytes.len());
            boundaries.sort_unstable();
            for b in boundaries {
                if b > cursor {
                    dec.feed(&bytes[cursor..b]);
                    cursor = b;
                }
                loop {
                    match dec.next_frame() {
                        Ok(Some(f)) => frames.push(f),
                        Ok(None) => break,
                        Err(_) => {
                            return Decoded {
                                frames,
                                error: true,
                                torn: false,
                            }
                        }
                    }
                }
            }
            Decoded {
                frames,
                error: false,
                torn: dec.has_partial(),
            }
        }

        /// A stream of valid frames, optionally followed by corruption:
        /// an oversized prefix or a truncated tail.
        fn frame_stream() -> impl Strategy<Value = Vec<u8>> {
            let frames = prop::collection::vec(prop::collection::vec(0u8..255, 0..40), 0..6);
            (frames, 0u8..4, prop::collection::vec(0u8..255, 0..8)).prop_map(
                |(frames, tail_kind, garbage)| {
                    let mut stream = Vec::new();
                    for f in &frames {
                        write_frame(&mut stream, f).unwrap();
                    }
                    match tail_kind {
                        // 0: clean stream as-is.
                        1 => {
                            // Oversized prefix then garbage.
                            stream.extend_from_slice(&(1_000_000u32).to_le_bytes());
                            stream.extend_from_slice(&garbage);
                        }
                        2 => {
                            // Truncated valid frame (torn mid-payload).
                            let mut frame = Vec::new();
                            write_frame(&mut frame, &[0x5A; 24]).unwrap();
                            let keep = frame.len().saturating_sub(1 + garbage.len() % 20);
                            stream.extend_from_slice(&frame[..keep]);
                        }
                        3 => {
                            // Raw garbage tail (may or may not frame).
                            stream.extend_from_slice(&garbage);
                        }
                        _ => {}
                    }
                    stream
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// For any stream (valid or corrupt) and any byte-boundary
            /// splits, the incremental decoder yields exactly the
            /// frames and the error classification of the one-shot
            /// codec — and never panics.
            #[test]
            fn incremental_matches_one_shot(
                stream in frame_stream(),
                splits in prop::collection::vec(0usize..4096, 0..12),
            ) {
                let expected = one_shot(&stream, 256);
                let got = incremental(&stream, &splits, 256);
                prop_assert_eq!(expected, got);
            }

            /// Pure fuzz: arbitrary bytes at arbitrary splits never
            /// panic the decoder, and still match the one-shot reader.
            #[test]
            fn garbage_never_panics(
                bytes in prop::collection::vec(0u8..255, 0..200),
                splits in prop::collection::vec(0usize..256, 0..8),
            ) {
                let expected = one_shot(&bytes, 64);
                let got = incremental(&bytes, &splits, 64);
                prop_assert_eq!(expected, got);
            }
        }
    }

    impl Transport {
        /// Whether a connection is currently established.
        pub(crate) fn is_connected(&self) -> bool {
            self.stream.is_some()
        }

        /// Whether the circuit breaker is currently failing requests fast.
        pub(crate) fn breaker_open(&self) -> bool {
            self.breaker_remaining > 0
        }
    }
}

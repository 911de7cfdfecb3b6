//! Validated serving-tier configuration: the one [`ServerConfig`],
//! holding the admission-control knobs (connection cap, token bucket,
//! write deadline, shed hint) and the reactor's sizing (event-loop
//! count, outbound queue cap).
//!
//! Both wire servers — viewd's and the fleet controller's — are spawned
//! from a `ServerConfig`. The defaults are deliberately generous: a
//! daemon that never sees a flood behaves exactly as one with no limits
//! at all; tighten them to model (or survive) overload. Spawning
//! validates the configuration, so a nonsense one (zero loops, a queue
//! cap smaller than a frame) fails loudly at startup instead of wedging
//! the daemon under load.

use std::io;
use std::time::Duration;

use crate::wire::{DEFAULT_RETRY_AFTER_MS, MAX_RESPONSE};

/// Full serving-tier configuration: admission control plus reactor
/// sizing. Construct via [`ServerConfig::builder`] or struct update
/// over [`ServerConfig::default`]; either way the server validates it
/// at spawn.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrently served connections; accepts beyond this are closed
    /// immediately (the app-level bound on the accept backlog) and
    /// counted dropped. Also the bound on each event loop's connection
    /// slab, so every admitted connection has a slot.
    pub max_connections: usize,
    /// Token-bucket burst per connection: requests served at full
    /// service before shedding starts.
    pub rate_burst: u32,
    /// Token refill rate per connection, tokens per second. Zero means
    /// the burst is all a connection ever gets (deterministic in tests).
    pub rate_refill_per_sec: f64,
    /// How long a response write may stall before the connection is
    /// evicted as a slow client.
    pub write_deadline: Duration,
    /// Retry-after hint carried in `OK_SHED` responses, milliseconds.
    pub retry_after_ms: u64,
    /// Sharded event loops the reactor runs (one epoll fd each).
    pub loops: usize,
    /// Outbound queue bytes per connection before the peer is evicted
    /// as too slow to drain its responses (queue-depth eviction).
    pub outbound_queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            rate_burst: 1 << 16,
            rate_refill_per_sec: 1_000_000.0,
            write_deadline: Duration::from_secs(2),
            retry_after_ms: DEFAULT_RETRY_AFTER_MS,
            loops: default_loops(),
            outbound_queue_cap: 4 * MAX_RESPONSE as usize,
        }
    }
}

/// Default event-loop count: one per available core, capped — the
/// serving tier should never out-thread the host it virtualizes.
fn default_loops() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

impl ServerConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::default(),
        }
    }

    /// Check every invariant the serving tier relies on.
    pub fn validate(&self) -> io::Result<()> {
        fn bad(msg: String) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::InvalidInput, msg))
        }
        if self.max_connections == 0 {
            return bad("max_connections must be at least 1".into());
        }
        if self.rate_burst == 0 {
            return bad("rate_burst must be at least 1".into());
        }
        if !self.rate_refill_per_sec.is_finite() || self.rate_refill_per_sec < 0.0 {
            return bad(format!(
                "rate_refill_per_sec must be finite and non-negative, got {}",
                self.rate_refill_per_sec
            ));
        }
        if self.write_deadline.is_zero() {
            return bad("write_deadline must be nonzero".into());
        }
        if self.retry_after_ms == 0 {
            return bad("retry_after_ms must be at least 1".into());
        }
        if self.loops == 0 || self.loops > 64 {
            return bad(format!("loops must be in 1..=64, got {}", self.loops));
        }
        if self.outbound_queue_cap < 4096 {
            return bad(format!(
                "outbound_queue_cap of {} cannot hold even one small response; want >= 4096",
                self.outbound_queue_cap
            ));
        }
        Ok(())
    }
}

/// Builder for [`ServerConfig`]; `build()` validates the whole shape.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Cap on concurrently served connections.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.cfg.max_connections = n;
        self
    }

    /// Token-bucket burst per connection.
    pub fn rate_burst(mut self, n: u32) -> Self {
        self.cfg.rate_burst = n;
        self
    }

    /// Token refill rate per connection, tokens per second.
    pub fn rate_refill_per_sec(mut self, rate: f64) -> Self {
        self.cfg.rate_refill_per_sec = rate;
        self
    }

    /// Write-stall deadline before a slow client is evicted.
    pub fn write_deadline(mut self, d: Duration) -> Self {
        self.cfg.write_deadline = d;
        self
    }

    /// Number of sharded event loops.
    pub fn loops(mut self, n: usize) -> Self {
        self.cfg.loops = n;
        self
    }

    /// Outbound queue bytes per connection before eviction.
    pub fn outbound_queue_cap(mut self, bytes: usize) -> Self {
        self.cfg.outbound_queue_cap = bytes;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> io::Result<ServerConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Classic token bucket; `refill_per_sec == 0` never refills, which
/// makes shed behaviour deterministic under test.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    tokens: f64,
    capacity: f64,
    refill_per_sec: f64,
    last: std::time::Instant,
}

impl TokenBucket {
    pub(crate) fn new(capacity: u32, refill_per_sec: f64) -> TokenBucket {
        TokenBucket {
            tokens: f64::from(capacity),
            capacity: f64::from(capacity),
            refill_per_sec,
            last: std::time::Instant::now(),
        }
    }

    /// Take one token at `now` — the caller's clock reading, so a
    /// readiness pass serving a whole pipeline reads the clock once.
    pub(crate) fn take(&mut self, now: std::time::Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.refill_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ServerConfig::default().validate().unwrap();
        let cfg = ServerConfig::builder().build().unwrap();
        assert!(cfg.loops >= 1);
        assert_eq!(cfg.max_connections, 64);
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert!(ServerConfig::builder().loops(0).build().is_err());
        assert!(ServerConfig::builder().loops(65).build().is_err());
        assert!(ServerConfig::builder().max_connections(0).build().is_err());
        assert!(ServerConfig::builder().rate_burst(0).build().is_err());
        assert!(ServerConfig::builder()
            .rate_refill_per_sec(f64::NAN)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .outbound_queue_cap(128)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .write_deadline(Duration::ZERO)
            .build()
            .is_err());
        assert!(ServerConfig::builder().retry_after_ms(0).build().is_err());
    }

    #[test]
    fn zero_refill_bucket_is_deterministic() {
        let mut bucket = TokenBucket::new(2, 0.0);
        let now = std::time::Instant::now();
        assert!(bucket.take(now));
        assert!(bucket.take(now));
        assert!(!bucket.take(now));
        assert!(!bucket.take(now));
    }

    impl ServerConfigBuilder {
        /// Retry-after hint carried in `OK_SHED` responses, milliseconds.
        fn retry_after_ms(mut self, ms: u64) -> Self {
            self.cfg.retry_after_ms = ms;
            self
        }
    }
}

//! Validated serving-tier configuration: one [`ServerConfig`] builder
//! folding the admission-control knobs ([`crate::wire::WireLimits`])
//! together with the reactor's sizing (event-loop count, connection
//! slabs, outbound queues).
//!
//! Both wire servers — viewd's and the fleet controller's — are spawned
//! from a `ServerConfig`, replacing the old positional constructors.
//! The builder validates at `build()` so a nonsense configuration (zero
//! loops, a queue cap smaller than a frame) fails loudly at startup
//! instead of wedging the daemon under load.

use std::io;
use std::time::Duration;

use crate::wire::{WireLimits, MAX_RESPONSE};

/// Full serving-tier configuration: admission control plus reactor
/// sizing. Construct via [`ServerConfig::builder`] (validated) or from
/// a plain [`WireLimits`] (reactor knobs defaulted).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrently served connections; accepts beyond this are closed
    /// immediately and counted dropped.
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
    /// Connection slots per event loop; a loop at capacity refuses the
    /// handoff and the connection is dropped (counted).
    pub slab_capacity: usize,
    /// Outbound queue bytes per connection before the peer is evicted
    /// as too slow to drain its responses (queue-depth eviction — the
    /// reactor's analogue of the threaded tier's write-deadline kill).
    pub outbound_queue_cap: usize,
    /// Serve with the legacy thread-per-connection engine instead of
    /// the reactor. Kept for apples-to-apples benchmarking
    /// (`BENCH_wire.json` compares both) and as a fallback.
    pub threaded: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig::from(WireLimits::default())
    }
}

impl From<WireLimits> for ServerConfig {
    fn from(limits: WireLimits) -> ServerConfig {
        ServerConfig {
            max_connections: limits.max_connections,
            rate_burst: limits.rate_burst,
            rate_refill_per_sec: limits.rate_refill_per_sec,
            write_deadline: limits.write_deadline,
            retry_after_ms: limits.retry_after_ms,
            loops: default_loops(),
            slab_capacity: limits.max_connections.max(1),
            outbound_queue_cap: 4 * MAX_RESPONSE as usize,
            threaded: false,
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

    /// The admission-control subset, for code that still speaks
    /// [`WireLimits`].
    pub fn limits(&self) -> WireLimits {
        WireLimits {
            max_connections: self.max_connections,
            rate_burst: self.rate_burst,
            rate_refill_per_sec: self.rate_refill_per_sec,
            write_deadline: self.write_deadline,
            retry_after_ms: self.retry_after_ms,
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
        if self.slab_capacity == 0 {
            return bad("slab_capacity must be at least 1".into());
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
        // Keep the slab able to hold the whole cap unless the caller
        // sizes it explicitly afterwards.
        self.cfg.slab_capacity = self.cfg.slab_capacity.max(n);
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

    /// Retry-after hint carried in `OK_SHED` responses, milliseconds.
    pub fn retry_after_ms(mut self, ms: u64) -> Self {
        self.cfg.retry_after_ms = ms;
        self
    }

    /// Number of sharded event loops.
    pub fn loops(mut self, n: usize) -> Self {
        self.cfg.loops = n;
        self
    }

    /// Connection slots per event loop.
    pub fn slab_capacity(mut self, n: usize) -> Self {
        self.cfg.slab_capacity = n;
        self
    }

    /// Outbound queue bytes per connection before eviction.
    pub fn outbound_queue_cap(mut self, bytes: usize) -> Self {
        self.cfg.outbound_queue_cap = bytes;
        self
    }

    /// Use the legacy thread-per-connection engine instead of the
    /// reactor.
    pub fn threaded(mut self, threaded: bool) -> Self {
        self.cfg.threaded = threaded;
        self
    }

    /// Seed the admission-control knobs from a [`WireLimits`].
    pub fn limits(mut self, limits: WireLimits) -> Self {
        self.cfg.max_connections = limits.max_connections;
        self.cfg.rate_burst = limits.rate_burst;
        self.cfg.rate_refill_per_sec = limits.rate_refill_per_sec;
        self.cfg.write_deadline = limits.write_deadline;
        self.cfg.retry_after_ms = limits.retry_after_ms;
        self.cfg.slab_capacity = self.cfg.slab_capacity.max(limits.max_connections);
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
        assert!(!cfg.threaded);
        assert!(cfg.loops >= 1);
        assert_eq!(cfg.max_connections, WireLimits::default().max_connections);
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
        assert!(ServerConfig::builder().slab_capacity(0).build().is_err());
    }

    #[test]
    fn max_connections_grows_the_slab() {
        let cfg = ServerConfig::builder()
            .max_connections(5000)
            .build()
            .unwrap();
        assert!(cfg.slab_capacity >= 5000, "slab holds the whole cap");
    }

    #[test]
    fn limits_round_trip() {
        let limits = WireLimits {
            max_connections: 3,
            rate_burst: 9,
            rate_refill_per_sec: 0.0,
            write_deadline: Duration::from_millis(40),
            retry_after_ms: 11,
        };
        let cfg = ServerConfig::from(limits);
        let back = cfg.limits();
        assert_eq!(back.max_connections, 3);
        assert_eq!(back.rate_burst, 9);
        assert_eq!(back.retry_after_ms, 11);
        assert_eq!(back.write_deadline, Duration::from_millis(40));
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
}

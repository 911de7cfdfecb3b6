//! Daemon-wide counters and latency histograms.
//!
//! Everything here is updated from hot query paths, so all state is
//! atomic — recording never takes a lock. Latencies are recorded in
//! nanoseconds into the power-of-two [`Histogram`] from
//! `arv_sim_core::stats`, matching the resolution the paper's §5.4
//! overhead table needs (microsecond-scale means, order-of-magnitude
//! tails).

use arv_sim_core::stats::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared metrics for one [`crate::server::ViewServer`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries answered (file reads and sysconf calls, in-process or wire).
    pub queries: AtomicU64,
    /// Queries answered from a cached render.
    pub cache_hits: AtomicU64,
    /// Queries the per-container cache could not answer (cold path,
    /// moved generation, degraded fallback).
    pub cache_misses: AtomicU64,
    /// Times a formatter actually ran: a first fill of an image-table
    /// slot, a memory-keyed miss, or a CPU count past the table.
    pub renders: AtomicU64,
    /// Queries that failed (unknown container, unknown path/key).
    pub failures: AtomicU64,
    /// Requests decoded off the wire.
    pub wire_requests: AtomicU64,
    /// Malformed or failed wire requests.
    pub wire_errors: AtomicU64,
    /// Wire frames rejected before decoding (oversized, bad framing).
    pub wire_rejected: AtomicU64,
    /// Connections the wire listener accepted.
    pub connections_accepted: AtomicU64,
    /// Connections dropped without service (e.g. thread-spawn failure).
    pub connections_dropped: AtomicU64,
    /// Container queries answered from a view older than one tick but
    /// within the staleness budget (served as-is).
    pub stale_serves: AtomicU64,
    /// Container queries answered with the conservative fallback view
    /// because the live view aged past the staleness budget.
    pub degraded_serves: AtomicU64,
    /// Connections evicted because they stalled past the write deadline.
    /// Under the reactor engine this also counts queue-depth evictions
    /// (see `conns_evicted_backlog`) — both are "client too slow".
    pub conns_evicted_slow: AtomicU64,
    /// Connections evicted specifically because their outbound response
    /// queue exceeded the configured byte cap (reactor engine only; a
    /// subset of `conns_evicted_slow`).
    pub conns_evicted_backlog: AtomicU64,
    /// Requests refused with `OK_SHED` under overload (render-miss /
    /// STATS / TRACE work deferred to protect cached reads).
    pub requests_shed: AtomicU64,
    /// Containers whose restored views were clamped against the fresh
    /// cgroup hierarchy during the last warm restart.
    pub restore_reconciled_containers: AtomicU64,
    /// Journal records discarded as torn or corrupt during restore.
    pub journal_truncated_records: AtomicU64,
    /// Store errors the host's journal has absorbed (absolute value,
    /// mirrored from the monitor daemon's durability ladder).
    pub journal_io_errors: AtomicU64,
    /// Whether the host's journal durability is currently lost (0/1
    /// gauge).
    pub durability_lost: AtomicU64,
    /// Age (in update-timer ticks) of every served container view.
    pub staleness_age: Histogram,
    /// Ticks from warm restart until the first Fresh-health serve.
    pub recovery_latency: Histogram,
    /// Nanoseconds per query, cached-hit path: the in-process call, or
    /// the whole wire request around it (one clock pair serves both).
    pub hit_latency: Histogram,
    /// Nanoseconds per query, miss path (same windows).
    pub miss_latency: Histogram,
    /// Nanoseconds per wire request of any kind, measured from frame
    /// decode to response encode (excludes socket transfer time).
    pub wire_latency: Histogram,
}

/// Which side of the per-container cache answered a query: the hit
/// histogram's population or the miss histogram's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Served {
    /// A cached image, a host image or a sysconf scalar.
    Hit,
    /// The cache was cold or stale, or the view degraded.
    Miss,
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Account one answered query that `took` this long on the clock of
    /// whoever timed it (the in-process call, or the wire request
    /// around it).
    pub(crate) fn served(&self, how: Served, took: std::time::Duration) {
        let (latency, count) = match how {
            Served::Hit => (&self.hit_latency, &self.cache_hits),
            Served::Miss => (&self.miss_latency, &self.cache_misses),
        };
        latency.record(took.as_nanos() as u64);
        count.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter (values may be mutually
    /// slightly out of sync under concurrent load; each is individually
    /// exact at its read instant).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            renders: self.renders.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            wire_requests: self.wire_requests.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            wire_rejected: self.wire_rejected.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_dropped: self.connections_dropped.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
            degraded_serves: self.degraded_serves.load(Ordering::Relaxed),
            conns_evicted_slow: self.conns_evicted_slow.load(Ordering::Relaxed),
            conns_evicted_backlog: self.conns_evicted_backlog.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            restore_reconciled_containers: self
                .restore_reconciled_containers
                .load(Ordering::Relaxed),
            journal_truncated_records: self.journal_truncated_records.load(Ordering::Relaxed),
            journal_io_errors: self.journal_io_errors.load(Ordering::Relaxed),
            durability_lost: self.durability_lost.load(Ordering::Relaxed) != 0,
            staleness_age_mean: self.staleness_age.mean(),
            staleness_age_p99: self.staleness_age.quantile(0.99),
            recovery_latency_mean: self.recovery_latency.mean(),
            recovery_latency_p99: self.recovery_latency.quantile(0.99),
            hit_latency_ns: self.hit_latency.mean(),
            miss_latency_ns: self.miss_latency.mean(),
            hit_p99_ns: self.hit_latency.quantile(0.99),
            miss_p99_ns: self.miss_latency.quantile(0.99),
            wire_latency_ns: self.wire_latency.mean(),
            wire_p99_ns: self.wire_latency.quantile(0.99),
        }
    }
}

/// Plain-value copy of [`Metrics`] for reports and assertions.
///
/// Equality compares the integer counters only — the derived `f64`
/// means are excluded because float equality is `NaN`-hostile (a
/// snapshot holding any `NaN` mean would compare unequal to itself,
/// breaking `assert_eq!(snap, snap)` and reflexivity-assuming
/// collections) and because exact float comparison of means is
/// meaningless across independently-timed runs. Use
/// [`MetricsSnapshot::counters_eq`] explicitly where intent matters.
#[derive(Debug, Clone, Copy)]
pub struct MetricsSnapshot {
    /// Queries answered.
    pub queries: u64,
    /// Cached-render answers.
    pub cache_hits: u64,
    /// Answers the per-container cache could not give.
    pub cache_misses: u64,
    /// Formatter runs (a miss on a warm image-table slot is not one).
    pub renders: u64,
    /// Failed queries.
    pub failures: u64,
    /// Wire requests decoded.
    pub wire_requests: u64,
    /// Wire requests rejected.
    pub wire_errors: u64,
    /// Wire frames rejected before decoding.
    pub wire_rejected: u64,
    /// Wire connections accepted.
    pub connections_accepted: u64,
    /// Wire connections dropped without service.
    pub connections_dropped: u64,
    /// Queries served from a stale (within-budget) view.
    pub stale_serves: u64,
    /// Queries served with the conservative fallback view.
    pub degraded_serves: u64,
    /// Connections evicted for stalling past the write deadline (the
    /// reactor folds queue-depth evictions in here too).
    pub conns_evicted_slow: u64,
    /// Connections evicted for exceeding the outbound-queue byte cap
    /// (subset of `conns_evicted_slow`; reactor engine only).
    pub conns_evicted_backlog: u64,
    /// Requests refused with `OK_SHED` under overload.
    pub requests_shed: u64,
    /// Containers reconciled (clamped) during the last warm restart.
    pub restore_reconciled_containers: u64,
    /// Journal records discarded as torn or corrupt during restore.
    pub journal_truncated_records: u64,
    /// Store errors the host's journal has absorbed.
    pub journal_io_errors: u64,
    /// Whether the host's journal durability is currently lost.
    pub durability_lost: bool,
    /// Mean age, in ticks, of served container views.
    pub staleness_age_mean: f64,
    /// 99th-percentile bucket edge of served view age.
    pub staleness_age_p99: u64,
    /// Mean ticks from warm restart to the first Fresh serve.
    pub recovery_latency_mean: f64,
    /// 99th-percentile bucket edge of recovery latency, in ticks.
    pub recovery_latency_p99: u64,
    /// Mean nanoseconds on the hit path.
    pub hit_latency_ns: f64,
    /// Mean nanoseconds on the miss path.
    pub miss_latency_ns: f64,
    /// 99th-percentile bucket edge on the hit path.
    pub hit_p99_ns: u64,
    /// 99th-percentile bucket edge on the miss path.
    pub miss_p99_ns: u64,
    /// Mean nanoseconds per wire request (decode to encode).
    pub wire_latency_ns: f64,
    /// 99th-percentile bucket edge of wire request latency.
    pub wire_p99_ns: u64,
}

impl MetricsSnapshot {
    /// Exact equality over the integer counters and histogram quantile
    /// edges, ignoring the float means.
    pub fn counters_eq(&self, other: &MetricsSnapshot) -> bool {
        self.queries == other.queries
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
            && self.renders == other.renders
            && self.failures == other.failures
            && self.wire_requests == other.wire_requests
            && self.wire_errors == other.wire_errors
            && self.wire_rejected == other.wire_rejected
            && self.connections_accepted == other.connections_accepted
            && self.connections_dropped == other.connections_dropped
            && self.stale_serves == other.stale_serves
            && self.degraded_serves == other.degraded_serves
            && self.conns_evicted_slow == other.conns_evicted_slow
            && self.conns_evicted_backlog == other.conns_evicted_backlog
            && self.requests_shed == other.requests_shed
            && self.restore_reconciled_containers == other.restore_reconciled_containers
            && self.journal_truncated_records == other.journal_truncated_records
            && self.journal_io_errors == other.journal_io_errors
            && self.durability_lost == other.durability_lost
            && self.recovery_latency_p99 == other.recovery_latency_p99
            && self.staleness_age_p99 == other.staleness_age_p99
            && self.hit_p99_ns == other.hit_p99_ns
            && self.miss_p99_ns == other.miss_p99_ns
            && self.wire_p99_ns == other.wire_p99_ns
    }
}

impl PartialEq for MetricsSnapshot {
    fn eq(&self, other: &MetricsSnapshot) -> bool {
        self.counters_eq(other)
    }
}

impl Eq for MetricsSnapshot {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new();
        m.queries.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        m.hit_latency.record(500);
        let s = m.snapshot();
        assert_eq!(s.queries, 3);
        assert_eq!(s.cache_hits + s.cache_misses, 3);
        assert!(s.hit_latency_ns > 0.0);
        assert_eq!(s.failures, 0);
    }

    #[test]
    fn robustness_counters_round_trip() {
        let m = Metrics::new();
        m.stale_serves.fetch_add(2, Ordering::Relaxed);
        m.degraded_serves.fetch_add(1, Ordering::Relaxed);
        m.connections_accepted.fetch_add(5, Ordering::Relaxed);
        m.connections_dropped.fetch_add(1, Ordering::Relaxed);
        m.wire_rejected.fetch_add(3, Ordering::Relaxed);
        m.staleness_age.record(0);
        m.staleness_age.record(6);
        let s = m.snapshot();
        assert_eq!(s.stale_serves, 2);
        assert_eq!(s.degraded_serves, 1);
        assert_eq!(s.connections_accepted, 5);
        assert_eq!(s.connections_dropped, 1);
        assert_eq!(s.wire_rejected, 3);
        assert!(s.staleness_age_mean > 0.0);
        assert!(s.staleness_age_p99 >= 6);
    }

    #[test]
    fn recovery_and_shed_counters_round_trip() {
        let m = Metrics::new();
        m.conns_evicted_slow.fetch_add(2, Ordering::Relaxed);
        m.requests_shed.fetch_add(7, Ordering::Relaxed);
        m.restore_reconciled_containers
            .fetch_add(3, Ordering::Relaxed);
        m.journal_truncated_records.fetch_add(1, Ordering::Relaxed);
        m.recovery_latency.record(2);
        let s = m.snapshot();
        assert_eq!(s.conns_evicted_slow, 2);
        assert_eq!(s.requests_shed, 7);
        assert_eq!(s.restore_reconciled_containers, 3);
        assert_eq!(s.journal_truncated_records, 1);
        assert!(s.recovery_latency_p99 >= 2);
        let fresh = Metrics::new().snapshot();
        assert!(!s.counters_eq(&fresh), "shed counters must affect equality");
    }

    #[test]
    fn durability_counters_round_trip() {
        let m = Metrics::new();
        m.journal_io_errors.fetch_add(4, Ordering::Relaxed);
        m.durability_lost.store(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.journal_io_errors, 4);
        assert!(s.durability_lost);
        let fresh = Metrics::new().snapshot();
        assert!(
            !s.counters_eq(&fresh),
            "durability counters must affect equality"
        );
        // Healing clears the gauge but keeps the error count.
        m.durability_lost.store(0, Ordering::Relaxed);
        let healed = m.snapshot();
        assert!(!healed.durability_lost);
        assert_eq!(healed.journal_io_errors, 4);
    }

    #[test]
    fn wire_latency_is_its_own_histogram() {
        let m = Metrics::new();
        m.wire_latency.record(1_500);
        m.wire_latency.record(3_000);
        let s = m.snapshot();
        assert!(s.wire_latency_ns > 0.0);
        assert!(s.wire_p99_ns >= 3_000);
        // Recording wire latency must not pollute the query-path
        // histograms that feed the §5.4 overhead table.
        assert_eq!(s.hit_p99_ns, 0);
        assert_eq!(s.miss_p99_ns, 0);
    }

    #[test]
    fn snapshot_equality_ignores_float_means() {
        // Equality is over counters only: a snapshot whose float means
        // were forced to NaN still equals its pre-poisoning self.
        let a = Metrics::new().snapshot();
        let b = Metrics::new().snapshot();
        assert_eq!(a, b);
        assert!(a.counters_eq(&b));
        let mut poisoned = a;
        poisoned.hit_latency_ns = f64::NAN;
        poisoned.staleness_age_mean = f64::NAN;
        assert_eq!(poisoned, a, "NaN means must not break equality");
        assert_eq!(poisoned, poisoned, "snapshot must equal itself");
        let m = Metrics::new();
        m.queries.fetch_add(1, Ordering::Relaxed);
        assert_ne!(m.snapshot(), a);
    }
}

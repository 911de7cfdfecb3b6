//! Daemon-wide counters and latency histograms, each declared once
//! through [`arv_telemetry::metrics!`].
//!
//! Everything here is updated from hot query paths, so all state is
//! atomic — recording never takes a lock. Latencies are recorded in
//! nanoseconds into the power-of-two [`arv_telemetry::Histogram`],
//! matching the resolution the paper's §5.4 overhead table needs
//! (microsecond-scale means, order-of-magnitude tails).

use std::sync::atomic::Ordering;

arv_telemetry::metrics! {
    /// Shared metrics for one [`crate::server::ViewServer`].
    pub struct Metrics => MetricsSnapshot;
    counters {
        /// Queries answered (file reads and sysconf calls, in-process or wire).
        queries => "arv_viewd_queries", "Queries answered";
        /// Queries answered from a cached render.
        cache_hits => "arv_viewd_cache_hits", "Cached-render answers";
        /// Queries the per-container cache could not answer (cold path,
        /// moved generation, degraded fallback).
        cache_misses => "arv_viewd_cache_misses", "Answers the per-container cache could not give";
        /// Times a formatter actually ran: a first fill of an image-table
        /// slot, a memory-keyed miss, or a CPU count past the table.
        renders => "arv_viewd_renders", "Formatter runs (image-table fills and memory-keyed misses)";
        /// Queries that failed (unknown container, unknown path/key).
        failures => "arv_viewd_failures", "Failed queries";
        /// Requests decoded off the wire.
        wire_requests => "arv_viewd_wire_requests", "Wire requests decoded";
        /// Malformed or failed wire requests.
        wire_errors => "arv_viewd_wire_errors", "Malformed wire requests";
        /// Wire frames rejected before decoding (oversized, bad framing).
        wire_rejected => "arv_viewd_wire_rejected", "Wire frames rejected before decoding";
        /// Connections the wire listener accepted.
        connections_accepted => "arv_viewd_connections_accepted", "Wire connections accepted";
        /// Connections refused without service: accepts over
        /// `max_connections`, or ones refused because the loop's slab
        /// was full.
        connections_dropped => "arv_viewd_connections_dropped", "Wire connections refused over the connection cap or a full loop slab";
        /// Container queries answered from a view older than one tick but
        /// within the staleness budget (served as-is).
        stale_serves => "arv_viewd_stale_serves", "Queries served from a within-budget stale view";
        /// Container queries answered with the conservative fallback view
        /// because the live view aged past the staleness budget.
        degraded_serves => "arv_viewd_degraded_serves", "Queries served from the conservative fallback view";
        /// Requests refused with `OK_SHED` under overload (render-miss /
        /// STATS / TRACE work deferred to protect cached reads).
        requests_shed => "arv_viewd_requests_shed", "Requests refused with OK_SHED under overload";
        /// Connections evicted as too slow: stalled past the write
        /// deadline, or over the outbound-queue byte cap (those also
        /// count in `conns_evicted_backlog`).
        conns_evicted_slow => "arv_viewd_conns_evicted_slow", "Connections evicted for stalling past the write deadline";
        /// Connections evicted because their outbound response queue
        /// exceeded the configured byte cap (a subset of
        /// `conns_evicted_slow`).
        conns_evicted_backlog => "arv_viewd_conns_evicted_backlog", "Connections evicted for exceeding the outbound-queue byte cap";
        /// Containers whose restored views were clamped against the fresh
        /// cgroup hierarchy during the last warm restart.
        restore_reconciled_containers => "arv_viewd_restore_reconciled_containers", "Containers reconciled during warm restarts";
        /// Journal records discarded as torn or corrupt during restore.
        journal_truncated_records => "arv_viewd_journal_truncated_records", "Journal records discarded as torn or corrupt during restore";
        /// Store errors the host's journal has absorbed (absolute value,
        /// mirrored from the monitor daemon's durability ladder).
        journal_io_errors => "arv_viewd_journal_io_errors", "Store errors the host's journal has absorbed";
    }
    histograms {
        /// Ticks from warm restart until the first Fresh-health serve.
        recovery_latency (recovery_latency_mean, recovery_latency_p99) => "arv_viewd_recovery_latency_ticks", "Ticks from warm restart to the first Fresh serve";
        /// Nanoseconds per query, cached-hit path: the in-process call, or
        /// the whole wire request around it (one clock pair serves both).
        hit_latency (hit_latency_ns, hit_p99_ns) => "arv_viewd_hit_latency_ns", "Cached-hit query latency, nanoseconds";
        /// Nanoseconds per query, miss path (same windows).
        miss_latency (miss_latency_ns, miss_p99_ns) => "arv_viewd_miss_latency_ns", "Miss-path query latency, nanoseconds";
        /// Nanoseconds per wire request of any kind, measured from frame
        /// decode to response encode (excludes socket transfer time).
        wire_latency (wire_latency_ns, wire_p99_ns) => "arv_viewd_wire_latency_ns", "Wire request latency (decode to encode), nanoseconds";
        /// Age (in update-timer ticks) of every served container view.
        staleness_age (staleness_age_mean, staleness_age_p99) => "arv_viewd_staleness_age_ticks", "Age of served container views, ticks";
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ViewServer;
    use arv_resview::HostSpec;

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::default();
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
        let m = Metrics::default();
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
        let m = Metrics::default();
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
    }

    #[test]
    fn durability_counters_round_trip() {
        let server = ViewServer::new(HostSpec::paper_testbed(), 1);
        let gauge = |server: &ViewServer, value: &str| {
            let line = format!("\narv_viewd_durability_lost {value}\n");
            server.prometheus_exposition().contains(&line)
        };
        server.note_durability(true, 4);
        assert_eq!(server.metrics().journal_io_errors, 4);
        assert!(gauge(&server, "1"));
        // Healing clears the gauge but keeps the error count.
        server.note_durability(false, 4);
        assert!(gauge(&server, "0"));
        assert_eq!(server.metrics().journal_io_errors, 4);
    }

    #[test]
    fn wire_latency_is_its_own_histogram() {
        let m = Metrics::default();
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
}

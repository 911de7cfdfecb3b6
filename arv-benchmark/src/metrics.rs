//! The names `BENCHMARK.json` declares: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `tests/contract.rs` holds the file to
//! this table.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The workloads, each with why it was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "read_hot",
        "Static views, so every file read is a cache hit: codec, reactor, shard and cache.get do all the work, render none. The smallest-message case, where per-request cost dominates.",
    ),
    (
        "read_churn",
        "A view is published before every second request, so 6 in 10 requests render: snapshot, render and cache.put dominate. A render or publish gain shows here and must not move read_hot.",
    ),
    (
        "host_tick",
        "One dense host, no socket: recompute, publish, journal and diff of 1000 views per tick, then controller ingest and REPL in-process. The wire tier does nothing.",
    ),
    (
        "fleet_fanin",
        "200 peripheries x 100 containers over the reactor: large inbound frames, tiny replies, the opposite shape to the reads. Ingest, journal, REPL and decode dominate; core and cache do nothing.",
    ),
];

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload
/// reports every one; what an operation is differs by path (see the crate
/// documentation). The timings are scaled by the reference load, and their
/// units say so: a `ref_us` is a microsecond on a machine whose reference
/// round trip takes [`crate::reference::REFERENCE_RTT_NS`]. `setup_s` is
/// scaled the same way; the benchmark contract fixes its unit as `s`.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("ops_per_s", "1/ref_s", Better::Higher, 0.2),
    ("latency_p50_us", "ref_us", Better::Lower, 0.2),
    ("cpu_us_per_op", "ref_us", Better::Lower, 0.2),
    ("peak_rss_mib", "MiB", Better::Lower, 0.25),
];

/// Per-layer metrics of a traced run: `(name, unit, better)`.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // read_hot: spans around the driver's socket calls, the daemon's own
    // metrics snapshot.
    ("wire.rtt_p50_us", "us", Better::Lower),
    ("wire.rtt_p99_us", "us", Better::Lower),
    ("wire.rtt_p999_us", "us", Better::Lower),
    ("wire.batch_p50_us", "us", Better::Lower),
    ("wire.bytes_per_reply", "bytes", Better::Lower),
    ("wire.handle_ns", "ns", Better::Lower),
    ("reactor.residual_us", "us", Better::Lower),
    ("wire.requests", "count", Better::Lower),
    ("wire.shed", "count", Better::Lower),
    ("wire.errors", "count", Better::Lower),
    ("wire.evicted", "count", Better::Lower),
    ("server.degraded_serves", "count", Better::Lower),
    ("cache.hot_hit_ratio", "ratio", Better::Higher),
    // read_churn.
    ("churn.rtt_p50_us", "us", Better::Lower),
    ("churn.batch_p50_us", "us", Better::Lower),
    ("churn.handle_ns", "ns", Better::Lower),
    ("churn.publish_ns", "ns", Better::Lower),
    ("churn.bytes_per_reply", "bytes", Better::Lower),
    ("churn.useful_publish_ratio", "ratio", Better::Higher),
    ("cache.hits", "count", Better::Higher),
    ("cache.misses", "count", Better::Lower),
    ("cache.hit_ratio", "ratio", Better::Higher),
    // host_tick: spans around each call of a round, counts read from
    // outside between rounds.
    ("container-rt.step_us", "us", Better::Lower),
    ("mem-sim.charge_us", "us", Better::Lower),
    ("periphery.take_frames_us", "us", Better::Lower),
    ("controller.ingest_us", "us", Better::Lower),
    ("periphery.ack_us", "us", Better::Lower),
    ("controller.repl_take_us", "us", Better::Lower),
    ("controller.repl_apply_us", "us", Better::Lower),
    ("host_tick.controller_tick_us", "us", Better::Lower),
    ("host_tick.rollup_ns", "ns", Better::Lower),
    ("host_tick.driver_us", "us", Better::Lower),
    ("server.publishes_per_tick", "count", Better::Lower),
    ("server.useful_publish_ratio", "ratio", Better::Higher),
    ("persist.journal_bytes_per_tick", "bytes", Better::Lower),
    ("persist.useful_record_ratio", "ratio", Better::Higher),
    ("periphery.useful_entry_ratio", "ratio", Better::Higher),
    ("host_tick.changed_tick_ratio", "ratio", Better::Higher),
    ("propagate.lag_ticks", "ticks", Better::Lower),
    // fleet_fanin.
    ("periphery.observe_us", "us", Better::Lower),
    ("wire.uplink_us", "us", Better::Lower),
    ("periphery.acks_us", "us", Better::Lower),
    ("fleet_fanin.repl_take_us", "us", Better::Lower),
    ("wire.repl_us", "us", Better::Lower),
    ("controller.tick_us", "us", Better::Lower),
    ("controller.rollup_ns", "ns", Better::Lower),
    ("fleet_fanin.driver_us", "us", Better::Lower),
    ("periphery.frames", "count", Better::Lower),
    ("periphery.delta_entries", "count", Better::Lower),
    ("controller.repl_records", "count", Better::Lower),
    ("controller.repl_records_per_round", "count", Better::Lower),
    ("controller.gaps", "count", Better::Lower),
    ("fleet_fanin.lag_ticks", "ticks", Better::Lower),
    // Probes: one layer's entry point in isolation.
    ("codec.encode_ns", "ns", Better::Lower),
    ("codec.decode_ns", "ns", Better::Lower),
    ("server.read_hit_ns", "ns", Better::Lower),
    ("server.sysconf_ns", "ns", Better::Lower),
    ("server.mirror_ns", "ns", Better::Lower),
    ("server.read_miss_ns", "ns", Better::Lower),
    ("shard.get_ns", "ns", Better::Lower),
    ("cache.put_ns", "ns", Better::Lower),
    ("cache.get_ns", "ns", Better::Lower),
    ("core.snapshot_ns", "ns", Better::Lower),
    ("core.apply_ns", "ns", Better::Lower),
    ("core.alg1_ns", "ns", Better::Lower),
    ("core.alg2_ns", "ns", Better::Lower),
    ("core.render_cpuinfo_ns", "ns", Better::Lower),
    ("core.render_meminfo_ns", "ns", Better::Lower),
    ("core.render_stat_ns", "ns", Better::Lower),
    ("core.monitor_tick_ns_per_container", "ns", Better::Lower),
    (
        "core.monitor_snapshot_ns_per_container",
        "ns",
        Better::Lower,
    ),
    ("cfs-sim.allocate_us", "us", Better::Lower),
    ("mem-sim.kswapd_step_us", "us", Better::Lower),
    (
        "core.monitor_tick_ns_per_container_n100",
        "ns",
        Better::Lower,
    ),
    ("persist.append_delta_ns", "ns", Better::Lower),
    ("persist.sync_ns", "ns", Better::Lower),
    ("persist.checkpoint_us", "us", Better::Lower),
    ("persist.restore_ns_per_record", "ns", Better::Lower),
    ("periphery.observe_ns_per_entry", "ns", Better::Lower),
    ("protocol.decode_ns_per_entry", "ns", Better::Lower),
    ("controller.ingest_ns_per_entry", "ns", Better::Lower),
    ("controller.repl_ns_per_record", "ns", Better::Lower),
    ("controller.repl_bytes", "bytes", Better::Lower),
    ("telemetry.emit_ns", "ns", Better::Lower),
    // The reference load's time over its defined time during the traced
    // run: per-layer timings are not scaled by it, so this is their context.
    ("reference.slowdown", "ratio", Better::Lower),
    // Traced over untraced median wall per operation, per workload.
    ("trace.overhead_ratio.read_hot", "ratio", Better::Lower),
    ("trace.overhead_ratio.read_churn", "ratio", Better::Lower),
    ("trace.overhead_ratio.host_tick", "ratio", Better::Lower),
    ("trace.overhead_ratio.fleet_fanin", "ratio", Better::Lower),
];

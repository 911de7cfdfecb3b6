//! `arv-viewd` serving cost: cached hits, re-stamped misses, first renders.
//!
//! The paper prices a view query at ~5 µs against a 24 ms update period
//! (§5.4). The daemon moves almost every query onto cheaper paths. A
//! `/proc/cpuinfo` or `/proc/stat` image is a function of the CPU count
//! alone, so it is formatted once per count for the whole daemon (the
//! image table) and every container at that count shares the bytes; a
//! container's cache then serves it as an `Arc` clone until its view
//! moves, and the miss that follows a move only re-stamps the shared
//! image at the new generation. This study drives a three-container
//! daemon through many view generations, reading each image once cold
//! and many times warm, times every read on its own clock and files it
//! under what the driver knows it was — first render of a `(path, cpus)`
//! pair, re-stamped miss, cached hit — and reports the three latency
//! distributions plus the accounting identities `hits + misses =
//! queries` and `renders <= distinct (path, cpus) pairs`.

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::{
    CpuBounds, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig, STALENESS_BUDGET,
};
use arv_viewd::{HostSpec, ViewServer};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::report::{FigReport, Row, Table};

/// The multi-stanza proc files resource probing actually parses — the
/// expensive renders, one stanza (or line) per effective CPU.
const HEAVY_PATHS: [&str; 2] = ["/proc/cpuinfo", "/proc/stat"];

/// Warm reads per cold read: real probing re-reads these files far more
/// often than the view changes (once per scheduling period at most).
const HITS_PER_MISS: u32 = 16;

fn mk_mem(soft_mib: u64, hard_mib: u64) -> EffectiveMemory {
    EffectiveMemory::new(
        Bytes::from_mib(soft_mib),
        Bytes::from_mib(hard_mib),
        Bytes::from_mib(1280),
        Bytes::from_mib(2560),
        EffectiveMemoryConfig::default(),
    )
}

/// Median, mean and 99th percentile of one class of reads. The median
/// is the row to compare: on a shared machine one preempted read in a
/// thousand moves a mean of sub-microsecond samples by half.
fn order_stats(samples: &mut [u64]) -> [f64; 3] {
    samples.sort_unstable();
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize] as f64;
    let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
    [at(0.5), mean, at(0.99)]
}

/// Run this study and produce its report.
pub fn run(scale: f64) -> FigReport {
    let server = ViewServer::new(HostSpec::paper_testbed(), 8);
    let ids = [CgroupId(1), CgroupId(2), CgroupId(3)];
    for (i, id) in ids.iter().enumerate() {
        server.register(
            *id,
            CpuBounds {
                lower: 2 + i as u32,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(512 * (i as u64 + 1), 1024 * (i as u64 + 1)),
        );
    }
    let client = server.client();

    // What a read was is the driver's knowledge, not the daemon's: the
    // first read after a publish misses, and it formats only if no
    // container has been at that CPU count before.
    let (mut hit, mut restamped, mut first_render) = (Vec::new(), Vec::new(), Vec::new());
    let mut rendered: HashSet<(&str, u32)> = HashSet::new();
    let generations = ((400.0 * scale) as u32).max(8);
    for g in 0..generations {
        for (i, id) in ids.iter().enumerate() {
            // A fresh view each round: publishing moves the generation,
            // so the first read per path misses and the rest hit.
            let cpus = 2 + (g + i as u32) % 8;
            let view = Bytes::from_mib(256 * u64::from(cpus));
            server.mirror(*id, cpus, view, view);
            for path in HEAVY_PATHS {
                let start = Instant::now();
                client.read(Some(*id), path).expect("renderable path");
                let ns = start.elapsed().as_nanos() as u64;
                if !rendered.insert((path, cpus)) {
                    restamped.push(ns);
                } else if path == "/proc/cpuinfo" {
                    // The claim is about the big image; a first
                    // `/proc/stat` is a tenth of it and in no row.
                    first_render.push(ns);
                }
                // The warm reads share one clock pair, which costs a
                // third of a hit: a sample is the mean of the run.
                let start = Instant::now();
                for _ in 0..HITS_PER_MISS {
                    client.read(Some(*id), path).expect("renderable path");
                }
                hit.push(start.elapsed().as_nanos() as u64 / u64::from(HITS_PER_MISS));
            }
        }
    }

    // Wire phase: replay a slice of the workload through the socket
    // protocol so the report can separate protocol overhead (the
    // dedicated wire-latency histogram) from in-process query cost.
    // One socket per call: the tests below run side by side in one process.
    static RUNS: AtomicU32 = AtomicU32::new(0);
    let socket = std::env::temp_dir().join(format!(
        "arv-viewd-fig-{}-{}.sock",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let wire = arv_viewd::WireServer::spawn(server.clone(), &socket).expect("bind wire socket");
    let mut wire_client =
        arv_viewd::WireClient::new(wire.socket_path(), arv_viewd::RetryPolicy::default());
    let wire_reads = ((128.0 * scale) as u32).max(16);
    for _ in 0..wire_reads {
        for path in HEAVY_PATHS {
            wire_client
                .read(Some(ids[0]), path)
                .expect("wire read")
                .expect("renderable path");
        }
    }
    wire.shutdown();

    // Robustness epilogue: age the staleness clock past the budget and
    // read each image once more — the daemon must answer every query
    // from the conservative fallback and count the degraded serves.
    for _ in 0..=STALENESS_BUDGET {
        server.advance_tick();
    }
    for id in ids {
        for path in HEAVY_PATHS {
            client.read(Some(id), path).expect("renderable path");
        }
    }

    let m = server.metrics();
    let (hit, restamped, first_render) = (
        order_stats(&mut hit),
        order_stats(&mut restamped),
        order_stats(&mut first_render),
    );
    let speedup = first_render[0] / hit[0].max(1.0);

    let mut latency = Table::new("serving_latency_ns", &["median_ns", "mean_ns", "p99_ns"]);
    latency.push(Row::full("cached_hit", &hit));
    latency.push(Row::full("restamped_miss", &restamped));
    latency.push(Row::full("first_render", &first_render));
    // The daemon's own histogram keeps no median.
    latency.push(Row::full(
        "wire_request",
        &[f64::NAN, m.wire_latency_ns, m.wire_p99_ns as f64],
    ));
    latency.push(Row::full("render_over_hit", &[speedup, f64::NAN, f64::NAN]));

    let mut accounting = Table::new("query_accounting", &["count"]);
    accounting.push(Row::full("queries", &[m.queries as f64]));
    accounting.push(Row::full("cache_hits", &[m.cache_hits as f64]));
    accounting.push(Row::full("cache_misses", &[m.cache_misses as f64]));
    accounting.push(Row::full(
        "hits_plus_misses",
        &[(m.cache_hits + m.cache_misses) as f64],
    ));
    accounting.push(Row::full("renders", &[m.renders as f64]));
    // Every path read here is CPU-keyed (no memory-keyed miss to add),
    // and the wire phase and the degraded epilogue reuse counts the
    // generations already visited, so this bounds the whole run.
    accounting.push(Row::full(
        "distinct_path_cpus_pairs",
        &[rendered.len() as f64],
    ));
    accounting.push(Row::full("failures", &[m.failures as f64]));
    accounting.push(Row::full("wire_requests", &[m.wire_requests as f64]));

    let mut robustness = Table::new("robustness_counters", &["count"]);
    robustness.push(Row::full("stale_serves", &[m.stale_serves as f64]));
    robustness.push(Row::full("degraded_serves", &[m.degraded_serves as f64]));
    robustness.push(Row::full("wire_rejected", &[m.wire_rejected as f64]));
    robustness.push(Row::full(
        "connections_accepted",
        &[m.connections_accepted as f64],
    ));
    robustness.push(Row::full(
        "connections_dropped",
        &[m.connections_dropped as f64],
    ));
    robustness.push(Row::full(
        "staleness_age_mean_ticks",
        &[m.staleness_age_mean],
    ));
    robustness.push(Row::full(
        "staleness_age_p99_ticks",
        &[m.staleness_age_p99 as f64],
    ));

    let mut rep = FigReport::new(
        "viewd",
        "arv-viewd serving cost: cached hits, re-stamped misses, first renders (§5.4)",
    );
    rep.tables.push(latency);
    rep.tables.push(accounting);
    rep.tables.push(robustness);
    rep.note(format!(
        "{generations} generations x 3 containers; each published view missed once per file, then served {HITS_PER_MISS}x from cache"
    ));
    rep.note(format!(
        "a cached hit is {speedup:.1}x cheaper than a first /proc/cpuinfo render; {} misses cost {} renders, the rest re-stamped a shared image",
        m.cache_misses, m.renders
    ));
    rep.note(format!(
        "epilogue ages the clock past the staleness budget: {} degraded serves answered from the conservative fallback",
        m.degraded_serves
    ));
    rep.note(format!(
        "{} wire requests at {:.0} ns mean (p99 {} ns): the protocol layer priced separately from query cost",
        m.wire_requests, m.wire_latency_ns, m.wire_p99_ns
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_render_once_per_cpu_count_and_restamp_the_rest() {
        // A miss formats only the first time any container reaches a
        // CPU count; every other miss re-stamps the shared image. (That
        // a hit is ≥10x cheaper than a first render is a wall-clock
        // claim, gated in release by `--bench viewd`.)
        let rep = run(0.2);
        let t = &rep.tables[1];
        let renders = t.get("renders", "count").unwrap();
        assert!(renders >= 1.0);
        assert!(renders <= t.get("distinct_path_cpus_pairs", "count").unwrap());
        assert!(renders < t.get("cache_misses", "count").unwrap());
    }

    #[test]
    fn hits_plus_misses_equals_queries_served() {
        let rep = run(0.1);
        let t = &rep.tables[1];
        let queries = t.get("queries", "count").unwrap();
        let hits = t.get("cache_hits", "count").unwrap();
        let misses = t.get("cache_misses", "count").unwrap();
        assert_eq!(hits + misses, queries);
        assert_eq!(t.get("failures", "count").unwrap(), 0.0);
        // One miss per (generation, container, path): every published
        // view is rendered exactly once per file.
        assert_eq!(misses as u64 % (3 * HEAVY_PATHS.len() as u64), 0);
    }

    #[test]
    fn degraded_epilogue_is_counted_and_served() {
        let rep = run(0.1);
        let t = &rep.tables[2];
        // One degraded serve per (container, path) in the epilogue.
        assert_eq!(
            t.get("degraded_serves", "count").unwrap(),
            (3 * HEAVY_PATHS.len()) as f64
        );
        // The wire phase is clean traffic: nothing rejected.
        assert_eq!(t.get("wire_rejected", "count").unwrap(), 0.0);
        assert_eq!(t.get("connections_accepted", "count").unwrap(), 1.0);
    }

    #[test]
    fn wire_latency_lands_in_its_own_histogram() {
        let rep = run(0.1);
        let latency = &rep.tables[0];
        assert!(latency.get("wire_request", "mean_ns").unwrap() > 0.0);
        assert!(latency.get("wire_request", "p99_ns").unwrap() > 0.0);
        let accounting = &rep.tables[1];
        // 16 wire rounds x 2 paths at the minimum clamp.
        assert_eq!(accounting.get("wire_requests", "count").unwrap(), 32.0);
    }
}

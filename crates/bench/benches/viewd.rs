//! `arv-viewd` serving-path costs, with a machine-checkable report.
//!
//! A query lands on one of three paths that bracket the §5.4 query cost
//! (≈5 µs): a **cached hit** is a generation load and an `Arc` clone out
//! of the container's fixed-slot cache; a **re-stamped miss** follows a
//! publish — snapshot, image-table index, clone, `cache.put` — and
//! formats nothing because some container has been at that CPU count
//! before; a **first render** formats the image for a count nobody has
//! reached yet. This bench times the three (plus `sysconf` and the
//! unknown-container fallback to the host image) in one process, writes
//! `BENCH_viewd.json`, and fails when the *shape* breaks — the gates
//! are same-run ratios, so machine speed cancels: a re-stamped miss
//! stays within [`MAX_RESTAMP_OVER_HIT`] hits (it must not format), and
//! a first render of the host-sized `/proc/cpuinfo` (the largest image
//! the table holds; the cost grows with the CPU count, ≈110 ns a CPU)
//! costs at least [`MIN_RENDER_OVER_HIT`] hits — what every miss would
//! pay without the table.

use arv_bench::{best_of, median, ns_per_call, paper_server, Report};
use arv_cgroups::{Bytes, CgroupId};
use arv_resview::Sysconf;
use std::hint::black_box;
use std::time::Instant;

/// Ceiling on a re-stamped miss over a cached hit.
const MAX_RESTAMP_OVER_HIT: f64 = 3.0;
/// Floor on a first `/proc/cpuinfo` render at [`RENDER_CPUS`] over a
/// cached hit.
const MIN_RENDER_OVER_HIT: f64 = 10.0;
/// CPU count of the timed first render: the paper testbed's.
const RENDER_CPUS: u32 = 20;
/// Registered containers (the shard population lookups walk).
const CONTAINERS: u32 = 100;
/// Calls per timed block of the ungated paths.
const BLOCK: u32 = 100_000;
/// Blocks per ungated path; the fastest counts (noise only ever adds).
const TRIALS: u32 = 9;
/// Rounds the three gated paths are timed over; the medians count.
const ROUNDS: u32 = 1_001;

fn main() {
    let server = paper_server(CONTAINERS);
    let client = server.client();
    let id = Some(CgroupId(42));

    let sysconf = best_of(TRIALS, || {
        ns_per_call(BLOCK, || {
            black_box(client.sysconf(id, Sysconf::NprocessorsOnln));
        })
    });
    let lookup_miss = best_of(TRIALS, || {
        ns_per_call(BLOCK, || {
            black_box(client.read(Some(CgroupId(9999)), "/proc/cpuinfo"));
        })
    });

    // The three gated paths are timed side by side, round by round, and
    // the gates are on the median of the per-round ratios: the machine's
    // speed drifts by a tenth over a second, which a ratio of two phases
    // timed seconds apart would carry in full.
    let (mut hits, mut restamps, mut renders) = (Vec::new(), Vec::new(), Vec::new());
    let (mut restamp_ratios, mut render_ratios) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        // Every container is published to (off the clock), then read
        // (on it) twice: the first read misses — and after the first
        // two rounds never formats — and the second hits.
        let cpus = 4 + round % 2;
        let view = Bytes::from_mib(100 * u64::from(cpus));
        for c in 0..CONTAINERS {
            server.mirror(CgroupId(c), cpus, view, view);
        }
        let sweep = || {
            let start = Instant::now();
            for c in 0..CONTAINERS {
                black_box(client.read(Some(CgroupId(c)), "/proc/cpuinfo"));
            }
            start.elapsed().as_secs_f64() * 1e9 / f64::from(CONTAINERS)
        };
        let (restamp, hit) = (sweep(), sweep());
        // The first read at a CPU count on a server that has seen none.
        let cold = paper_server(1);
        let cold_client = cold.client();
        let view = Bytes::from_gib(1);
        cold.mirror(CgroupId(0), RENDER_CPUS, view, view);
        let start = Instant::now();
        black_box(cold_client.read(Some(CgroupId(0)), "/proc/cpuinfo"));
        let render = start.elapsed().as_secs_f64() * 1e9;
        if round >= 2 {
            hits.push(hit);
            restamps.push(restamp);
            renders.push(render);
            restamp_ratios.push(restamp / hit);
            render_ratios.push(render / hit);
        }
    }
    let m = server.metrics();
    assert_eq!(
        m.renders, 3,
        "host image, 4 and 5 CPUs: nothing else formats"
    );
    assert_eq!(m.cache_misses, u64::from(ROUNDS * CONTAINERS));
    let [hit, restamp, first_render, restamp_over_hit, render_over_hit] =
        [hits, restamps, renders, restamp_ratios, render_ratios].map(median);
    Report::new("viewd")
        .value("cached_hit_ns", hit)
        .value("restamped_miss_ns", restamp)
        .value("first_render_cpuinfo_ns", first_render)
        .value("first_render_cpus", f64::from(RENDER_CPUS))
        .value("sysconf_ns", sysconf)
        .value("lookup_miss_ns", lookup_miss)
        .at_most(
            "restamped_miss_over_hit",
            restamp_over_hit,
            MAX_RESTAMP_OVER_HIT,
            "a miss on a warm image-table slot is doing more than snapshot, index, clone, put",
        )
        .at_least(
            "first_render_over_hit",
            render_over_hit,
            MIN_RENDER_OVER_HIT,
            "a cached hit costs over a tenth of a first render: the hit path is doing render-sized work",
        )
        .finish();
}

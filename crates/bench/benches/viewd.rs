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
//! `BENCH_viewd.json`, and exits nonzero when the *shape* breaks — the
//! gates are same-run ratios, so machine speed cancels: a re-stamped
//! miss stays within [`MAX_RESTAMP_OVER_HIT`] hits (it must not format),
//! and a first render of the host-sized `/proc/cpuinfo` (the largest
//! image the table holds; the cost grows with the CPU count, ≈110 ns a
//! CPU) costs at least [`MIN_RENDER_OVER_HIT`] hits — what every miss
//! would pay without the table.

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::{CpuBounds, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig, Sysconf};
use arv_viewd::{HostSpec, ViewServer};
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

fn mk_server(containers: u32) -> ViewServer {
    let server = ViewServer::new(HostSpec::paper_testbed(), 8);
    for i in 0..containers {
        server.register(
            CgroupId(i),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            EffectiveMemory::new(
                Bytes::from_mib(500),
                Bytes::from_gib(1),
                Bytes::from_mib(1280),
                Bytes::from_mib(2560),
                EffectiveMemoryConfig::default(),
            ),
        );
    }
    server
}

/// Nanoseconds per call of `f` over the fastest of [`TRIALS`] blocks.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let start = Instant::now();
        for _ in 0..BLOCK {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / f64::from(BLOCK));
    }
    best
}

fn main() {
    let server = mk_server(CONTAINERS);
    let client = server.client();
    let id = Some(CgroupId(42));

    let sysconf = per_call_ns(|| {
        black_box(client.sysconf(id, Sysconf::NprocessorsOnln));
    });
    let lookup_miss = per_call_ns(|| {
        black_box(client.read(Some(CgroupId(9999)), "/proc/cpuinfo"));
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
        let cold = mk_server(1);
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
        [hits, restamps, renders, restamp_ratios, render_ratios].map(|mut samples| {
            samples.sort_by(f64::total_cmp);
            samples[samples.len() / 2]
        });

    let json = format!(
        "{{\n  \"bench\": \"viewd\",\n  \"cached_hit_ns\": {hit:.1},\n  \
         \"restamped_miss_ns\": {restamp:.1},\n  \"first_render_cpuinfo_ns\": {first_render:.1},\n  \"first_render_cpus\": {RENDER_CPUS},\n  \
         \"sysconf_ns\": {sysconf:.1},\n  \"lookup_miss_ns\": {lookup_miss:.1},\n  \
         \"restamped_miss_over_hit\": {restamp_over_hit:.3},\n  \
         \"first_render_over_hit\": {render_over_hit:.3},\n  \"thresholds\": {{\n    \
         \"max_restamped_miss_over_hit\": {MAX_RESTAMP_OVER_HIT},\n    \
         \"min_first_render_over_hit\": {MIN_RENDER_OVER_HIT}\n  }}\n}}\n"
    );
    // Cargo runs bench binaries with the package as cwd; anchor the
    // report at the workspace root where ci.sh checks for it.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_viewd.json");
    std::fs::write(&out, &json).expect("write BENCH_viewd.json");
    print!("{json}");

    let mut failed = false;
    if restamp_over_hit > MAX_RESTAMP_OVER_HIT {
        eprintln!(
            "FAIL: a re-stamped miss costs {restamp:.0} ns, {restamp_over_hit:.2}x a {hit:.0} ns \
             hit (> {MAX_RESTAMP_OVER_HIT}x): a miss on a warm image-table slot is doing more \
             than snapshot, index, clone, put"
        );
        failed = true;
    }
    if render_over_hit < MIN_RENDER_OVER_HIT {
        eprintln!(
            "FAIL: a first {RENDER_CPUS}-CPU /proc/cpuinfo render costs {first_render:.0} ns, \
             only {render_over_hit:.2}x a {hit:.0} ns hit (< {MIN_RENDER_OVER_HIT}x)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("viewd bench: all thresholds met");
}

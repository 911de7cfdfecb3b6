//! Scaling guard for the update timer, with a machine-checkable report.
//!
//! The paper's yardstick (§5.4) is ≈1 µs per `sys_namespace` update
//! inside a 24 ms period, for any number of containers. One firing of
//! `NsMonitor::tick` must therefore cost the same *per container* on a
//! dense host as on a sparse one: host-wide state (free memory, kswapd,
//! period, slack) is sampled once per firing and per-container usages
//! are walked, not looked up. This bench times the firing at three
//! populations in one process, writes `BENCH_core.json`, and exits
//! nonzero when the densest costs more than [`MAX_SCALING_RATIO`] times
//! the sparsest per container — a same-run ratio, so machine speed
//! cancels and what is left is the shape of the loop (the
//! per-namespace `MemSim::free()` walk this guards against already read
//! 9× at N = 1 000 over N = 100).

use arv_cfs::{CfsSim, GroupDemand, UsageLedger};
use arv_cgroups::{Bytes, CgroupId, CgroupManager, CgroupSpec, CpuController, MemController};
use arv_mem::{MemSim, MemSimConfig};
use arv_resview::NsMonitor;
use arv_sim_core::SimDuration;
use std::hint::black_box;
use std::time::Instant;

/// Container populations timed, sparsest first.
const POPULATIONS: [u32; 3] = [100, 1_000, 10_000];
/// Ceiling on per-container cost at the densest population over the
/// sparsest. Cache misses alone cost a dense host up to ≈2× (its
/// namespaces no longer fit L2); anything per-namespace that grows
/// with the population blows straight through 3×.
const MAX_SCALING_RATIO: f64 = 3.0;
/// Namespace updates timed per trial, whatever the population.
const UPDATES_PER_TRIAL: u32 = 2_000_000;
/// Trials per population; the fastest counts (noise only ever adds).
const TRIALS: u32 = 5;

const PERIOD: SimDuration = SimDuration::from_millis(24);

/// A host of `n` containers mid-run: a quarter of them on CPU, all of
/// them holding memory, free memory above the watermarks.
fn host(n: u32) -> (NsMonitor, UsageLedger, MemSim) {
    let cfs = CfsSim::with_cpus(64);
    let mut mem = MemSim::new(MemSimConfig::with_total(Bytes::from_mib(
        512 * u64::from(n),
    )));
    let mut monitor = NsMonitor::with_defaults(cfs.online(), mem.total(), *mem.watermarks());
    let mut cgm = CgroupManager::new();
    let spec = CgroupSpec::new(
        CpuController::unlimited(64).with_quota_cpus(4.0),
        MemController::unlimited()
            .with_soft_limit(Bytes::from_mib(256))
            .with_hard_limit(Bytes::from_gib(1)),
    );
    let ids: Vec<CgroupId> = (0..n).map(|_| cgm.create(spec)).collect();
    for (i, id) in ids.iter().enumerate() {
        mem.register(*id, spec.mem);
        assert!(mem
            .charge(*id, Bytes::from_mib(128 + (i as u64 % 7) * 32))
            .is_ok());
    }
    monitor.sync(&mut cgm);
    let demands: Vec<GroupDemand> = ids
        .iter()
        .step_by(4)
        .map(|id| GroupDemand::cpu_bound(*id, 4, 1024, 4.0))
        .collect();
    let mut ledger = UsageLedger::new();
    ledger.record(&cfs.allocate(PERIOD, &demands));
    (monitor, ledger, mem)
}

/// Nanoseconds per namespace update of one firing over `n` containers.
fn tick_ns_per_container(n: u32) -> f64 {
    let (mut monitor, ledger, mem) = host(n);
    let firings = (UPDATES_PER_TRIAL / n).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let start = Instant::now();
        for _ in 0..firings {
            monitor.observe_tick();
            monitor.tick(black_box(&ledger), black_box(&mem));
        }
        let ns = start.elapsed().as_secs_f64() * 1e9;
        best = best.min(ns / (f64::from(firings) * f64::from(n)));
        black_box(monitor.take_dirty());
    }
    best
}

fn main() {
    let ns: Vec<f64> = POPULATIONS.map(tick_ns_per_container).to_vec();
    let ratio = ns[2] / ns[0].max(f64::EPSILON);

    let json = format!(
        "{{\n  \"bench\": \"core\",\n  \"monitor_tick_ns_per_container\": {{\n    \
         \"n100\": {:.1},\n    \"n1000\": {:.1},\n    \"n10000\": {:.1}\n  }},\n  \
         \"scaling_ratio_n10000_over_n100\": {ratio:.3},\n  \"thresholds\": {{\n    \
         \"max_scaling_ratio\": {MAX_SCALING_RATIO}\n  }}\n}}\n",
        ns[0], ns[1], ns[2],
    );
    // Cargo runs bench binaries with the package as cwd; anchor the
    // report at the workspace root where ci.sh checks for it.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_core.json");
    std::fs::write(&out, &json).expect("write BENCH_core.json");
    print!("{json}");

    if ratio > MAX_SCALING_RATIO {
        eprintln!(
            "FAIL: NsMonitor::tick costs {:.1} ns/container at N = 10 000, {ratio:.2}x the \
             {:.1} ns at N = 100 (> {MAX_SCALING_RATIO}x): the firing is not linear",
            ns[2], ns[0]
        );
        std::process::exit(1);
    }
    println!("core bench: all thresholds met");
}

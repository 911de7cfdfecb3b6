//! Scaling guard for the update timer, with a machine-checkable report.
//!
//! The paper's yardstick (§5.4) is ≈1 µs per `sys_namespace` update
//! inside a 24 ms period, for any number of containers. One firing of
//! `NsMonitor::tick` must therefore cost the same *per container* on a
//! dense host as on a sparse one: host-wide state (free memory, kswapd,
//! period, slack) is sampled once per firing and per-container usages
//! are walked, not looked up. This bench times the firing at three
//! populations in one process, writes `BENCH_core.json`, and fails when
//! the densest costs more than [`MAX_SCALING_RATIO`] times the sparsest
//! per container — a same-run ratio, so machine speed cancels and what
//! is left is the shape of the loop (the per-namespace `MemSim::free()`
//! walk this guards against already read 9× at N = 1 000 over N = 100).
//!
//! Around the firing, a period should cost what ran, not what exists:
//! `UsageLedger::record` of the same few grants is timed over a ledger
//! of 1 000 groups and one of 100 000, and fails when the larger costs
//! more than [`MAX_LEDGER_RECORD_GROWTH`] times the smaller.

use arv_bench::{best_of, ns_per_call, Report};
use arv_cfs::{Allocation, CfsSim, GroupDemand, UsageLedger};
use arv_cgroups::{Bytes, CgroupId, CgroupManager, CgroupSpec, CpuController, MemController};
use arv_mem::{MemSim, MemSimConfig};
use arv_resview::NsMonitor;
use arv_sim_core::SimDuration;
use std::hint::black_box;

/// Container populations timed, sparsest first.
const POPULATIONS: [u32; 3] = [100, 1_000, 10_000];
/// Ceiling on per-container cost at the densest population over the
/// sparsest. While the per-container tables were trees, cache misses
/// alone cost a dense host up to ≈2× (its namespaces no longer fit L2);
/// walked in stride as id-sorted arrays they read 0.6–1.0, the
/// prefetcher hiding the size. Anything per-namespace that grows with
/// the population blows straight through 3×.
const MAX_SCALING_RATIO: f64 = 3.0;
/// Namespace updates timed per trial, whatever the population.
const UPDATES_PER_TRIAL: u32 = 2_000_000;
/// Trials per population; the fastest counts (noise only ever adds).
const TRIALS: u32 = 5;

const PERIOD: SimDuration = SimDuration::from_millis(24);

/// Ledger sizes the record is timed at, smaller first.
const LEDGER_GROUPS: [u32; 2] = [1_000, 100_000];
/// Groups granted CPU in each timed period.
const GRANTS: u32 = 16;
/// Timed `record` calls per trial.
const RECORDS_PER_TRIAL: u32 = 20_000;
/// Ceiling on one `record` of [`GRANTS`] grants over the larger ledger
/// over the smaller. Zeroing only last period's grantees keeps it near
/// 2 (deeper binary searches, which miss the cache more often, and
/// nothing else; ≈3 as tree probes); a walk of every group reads ≈100×.
const MAX_LEDGER_RECORD_GROWTH: f64 = 10.0;

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
    best_of(TRIALS, || {
        let ns = ns_per_call(firings, || {
            monitor.observe_tick();
            monitor.tick(black_box(&ledger), black_box(&mem));
            black_box(monitor.take_moved());
        });
        ns / f64::from(n)
    })
}

/// Nanoseconds per `UsageLedger::record` of [`GRANTS`] grants, spread
/// over and rotating through a ledger that has seen `groups` groups.
fn record_ns(groups: u32) -> f64 {
    let allocation = |ids: &mut dyn Iterator<Item = u32>| Allocation {
        granted: ids.map(|id| (CgroupId(id), PERIOD)).collect(),
        slack: PERIOD,
        period: PERIOD,
        total_runnable: GRANTS,
    };
    let rounds: Vec<Allocation> = (0..groups / GRANTS)
        .map(|r| allocation(&mut (0..GRANTS).map(|j| j * (groups / GRANTS) + r)))
        .collect();
    let mut ledger = UsageLedger::new();
    ledger.record(&allocation(&mut (0..groups)));
    let mut next = 0;
    best_of(TRIALS, || {
        ns_per_call(RECORDS_PER_TRIAL, || {
            ledger.record(black_box(&rounds[next % rounds.len()]));
            next += 1;
        })
    })
}

fn main() {
    let [sparse, mid, dense] = POPULATIONS.map(tick_ns_per_container);
    let [small_ledger, large_ledger] = LEDGER_GROUPS.map(record_ns);
    Report::new("core")
        .value("monitor_tick_ns_per_container_n100", sparse)
        .value("monitor_tick_ns_per_container_n1000", mid)
        .value("monitor_tick_ns_per_container_n10000", dense)
        .at_most(
            "scaling_ratio_n10000_over_n100",
            dense / sparse,
            MAX_SCALING_RATIO,
            "NsMonitor::tick per container grows with the population: the firing is not linear",
        )
        .value("ledger_record_ns_groups1000", small_ledger)
        .value("ledger_record_ns_groups100000", large_ledger)
        .at_most(
            "ledger_record_growth",
            large_ledger / small_ledger,
            MAX_LEDGER_RECORD_GROWTH,
            "UsageLedger::record walks every group, not the grantees",
        )
        .finish();
}

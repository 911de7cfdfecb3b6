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
//!
//! A lifecycle call should cost what it changed, too: on a host of
//! [`LIFECYCLE_N`] running quota'd containers with the view daemon
//! attached, a launch, a limit update and a terminate each recompute
//! every namespace's static bounds (the paper's `Ns_Monitor` on a cgroup
//! change), but tell the daemon only what moved. Their mean cost over
//! one update-timer step of the same host is gated at
//! [`MAX_LAUNCH_OVER_FIRING`]; a daemon that re-reads every namespace on
//! a lifecycle call read 2.6 (2-vCPU VM).
//!
//! And a firing should pay once per view it moved, whatever the host
//! holds: with the view daemon, the journal and the periphery attached,
//! the cost of one more moved view in a step (drained, published,
//! journaled and diffed) is timed on a host of 1 000 and one of 10 000
//! containers, and fails when the larger costs more than
//! [`MAX_MOVED_PUBLISH_GROWTH`] times the smaller.

use arv_bench::{best_of, median, ns_per_call, Report};
use arv_cfs::{Allocation, CfsSim, GroupDemand, UsageLedger};
use arv_cgroups::{Bytes, CgroupId, CgroupManager, CgroupSpec, CpuController, MemController};
use arv_container::{ContainerSpec, SimHost};
use arv_fleet::Periphery;
use arv_mem::{MemSim, MemSimConfig};
use arv_resview::{Changes, NsMonitor};
use arv_sim_core::SimDuration;
use arv_viewd::ViewServer;
use std::hint::black_box;
use std::time::Instant;

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

/// Resident containers on the lifecycle host.
const LIFECYCLE_N: usize = 4_000;
/// Rounds of one launch, one limit update and one terminate, each
/// followed by a step, and one timed step.
const LIFECYCLE_ROUNDS: u32 = 20;
/// Ceiling on the mean cost of a lifecycle call over one step of the same
/// host. A step walks every namespace once (Algorithms 1 and 2) and
/// mirrors what moved; a call recomputes every namespace's bounds and
/// mirrors what moved, so the two are of a size.
const MAX_LAUNCH_OVER_FIRING: f64 = 1.0;

/// Hosts the moved-view cost is timed on, smaller first.
const MOVED_HOSTS: [usize; 2] = [1_000, 10_000];
/// Views a step moves: a few, and many.
const MOVED_FEW: usize = 5;
const MOVED_MANY: usize = 500;
/// Pairs of steps, one moving each count, per host.
const MOVED_PAIRS: u32 = 400;
/// How far the movers' window shifts from one step to the next (a
/// prime, so it visits every container of either host).
const MOVED_SHIFT: usize = 1_009;
/// Checkpoint cadence of the moved-view host's journal, in ticks.
const MOVED_CHECKPOINT_EVERY: u64 = 64;
/// Ceiling on the cost of one moved view on the larger host over the
/// smaller. The movers are every other container of a window, on both
/// hosts, so the two differ in the host's size and nothing else: each
/// consumer's walk seeks a moved id from the last one, and what is
/// left is the larger host's cache misses (1.05–1.3 on a 2-vCPU VM).
/// A walk of every view per moved one blows through it. Spread evenly
/// over the host instead, the movers of the larger one sit ten times
/// farther apart and read 1.3–1.9: their lines miss the cache.
const MAX_MOVED_PUBLISH_GROWTH: f64 = 1.5;

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
    let mut changes = Changes::new();
    best_of(TRIALS, || {
        let ns = ns_per_call(firings, || {
            monitor.observe_tick();
            monitor.tick(black_box(&ledger), black_box(&mem));
            monitor.take_changes(&mut changes);
            black_box(&changes);
        });
        ns / f64::from(n)
    })
}

/// Mean nanoseconds of a lifecycle call and of one step, on a
/// [`LIFECYCLE_N`]-container host with the view daemon attached; the
/// fastest trial of each counts.
fn lifecycle_ns() -> (f64, f64) {
    let mut host = SimHost::new(64, Bytes::from_gib(2048));
    let spec = |i: usize| {
        ContainerSpec::new(format!("c{i}"), 4)
            .cpus(2.0)
            .memory(Bytes::from_gib(1))
    };
    let mut ids: Vec<CgroupId> = (0..LIFECYCLE_N).map(|i| host.launch(&spec(i))).collect();
    host.attach_viewd(ViewServer::new(host.viewd_host_spec(), 8));
    let step = |host: &mut SimHost, ids: &[CgroupId]| {
        let demands: Vec<_> = ids.iter().map(|id| host.demand(*id, 2)).collect();
        let start = Instant::now();
        host.step(black_box(&demands));
        start.elapsed().as_secs_f64() * 1e9
    };
    for _ in 0..4 {
        step(&mut host, &ids);
    }
    let mut next = LIFECYCLE_N;
    let mut trial = || {
        let (mut calls, mut steps) = (0.0, 0.0);
        for round in 0..LIFECYCLE_ROUNDS as usize {
            let start = Instant::now();
            let id = host.launch(&spec(next));
            calls += start.elapsed().as_secs_f64() * 1e9;
            ids.push(id);
            next += 1;
            step(&mut host, &ids);
            let target = ids[round * 97 % ids.len()];
            let limits = spec(next).cpus(1.0 + (round % 2) as f64);
            let start = Instant::now();
            host.update_limits(target, &limits);
            calls += start.elapsed().as_secs_f64() * 1e9;
            step(&mut host, &ids);
            let gone = ids.remove(round * 89 % ids.len());
            let start = Instant::now();
            host.terminate(gone);
            calls += start.elapsed().as_secs_f64() * 1e9;
            step(&mut host, &ids);
            steps += step(&mut host, &ids);
        }
        let rounds = f64::from(LIFECYCLE_ROUNDS);
        (calls / (3.0 * rounds), steps / rounds)
    };
    let trials: Vec<(f64, f64)> = (0..TRIALS).map(|_| trial()).collect();
    let best = |pick: fn(&(f64, f64)) -> f64| trials.iter().map(pick).fold(f64::INFINITY, f64::min);
    (best(|t| t.0), best(|t| t.1))
}

/// Nanoseconds one more moved view adds to a step of a host of `n` idle
/// containers with the view daemon, a journal and a periphery attached:
/// the median over [`MOVED_PAIRS`] of a step whose firing moves
/// [`MOVED_MANY`] views less the step before it, which moves
/// [`MOVED_FEW`], over the difference. A view moves by a 1 MiB charge
/// or uncharge (its available memory); the movers are every other
/// container from a start that shifts by [`MOVED_SHIFT`] each step, and
/// the frames are drained between steps.
fn moved_publish_ns(n: usize) -> f64 {
    let mut host = SimHost::new(64, Bytes::from_gib(2 * n as u64));
    let spec = |i: usize| {
        ContainerSpec::new(format!("c{i}"), 4)
            .cpus(2.0)
            .memory_reservation(Bytes::from_mib(512))
            .memory(Bytes::from_gib(1))
    };
    let ids: Vec<CgroupId> = (0..n).map(|i| host.launch(&spec(i))).collect();
    host.attach_viewd(ViewServer::new(host.viewd_host_spec(), 8));
    host.enable_journal(MOVED_CHECKPOINT_EVERY);
    host.attach_periphery(Periphery::new(1));
    for id in &ids {
        assert!(host.charge(*id, Bytes::from_mib(64)).is_ok());
    }
    // Whether each container holds its extra MiB: a mover gives it back
    // or takes it, so usage stays where it started.
    let (mut round, mut holds) = (0, vec![false; n]);
    let mut step = |host: &mut SimHost, moved: usize| {
        round += 1;
        for j in 0..moved {
            let c = (round * MOVED_SHIFT + 2 * j) % n;
            if holds[c] {
                host.uncharge(ids[c], Bytes::from_mib(1));
            } else {
                assert!(host.charge(ids[c], Bytes::from_mib(1)).is_ok());
            }
            holds[c] = !holds[c];
        }
        let shipped = |host: &SimHost| host.periphery().map_or(0, |p| p.stats().entries);
        let before = shipped(host);
        let start = Instant::now();
        host.step(black_box(&[]));
        let ns = start.elapsed().as_secs_f64() * 1e9;
        black_box(host.take_fleet_frames());
        (ns, shipped(host) - before)
    };
    for _ in 0..MOVED_CHECKPOINT_EVERY {
        step(&mut host, MOVED_MANY);
    }
    let extra: Vec<f64> = (0..MOVED_PAIRS)
        .map(|_| {
            let (few, few_moved) = step(&mut host, MOVED_FEW);
            let (many, many_moved) = step(&mut host, MOVED_MANY);
            assert_eq!(
                (few_moved, many_moved),
                (MOVED_FEW as u64, MOVED_MANY as u64)
            );
            many - few
        })
        .collect();
    median(extra) / (MOVED_MANY - MOVED_FEW) as f64
}

/// Nanoseconds per `UsageLedger::record` of [`GRANTS`] grants, spread
/// over and rotating through a ledger that has seen `groups` groups.
fn record_ns(groups: u32) -> f64 {
    let allocation = |ids: &mut dyn Iterator<Item = u32>| Allocation {
        granted: ids.map(|id| (CgroupId(id), PERIOD)).collect(),
        slack: PERIOD,
        period: PERIOD,
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
    let (call, firing) = lifecycle_ns();
    let [moved_small, moved_large] = MOVED_HOSTS.map(moved_publish_ns);
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
        .value("lifecycle_call_ns_n4000", call)
        .value("step_ns_n4000", firing)
        .at_most(
            "launch_over_firing",
            call / firing,
            MAX_LAUNCH_OVER_FIRING,
            "a lifecycle call re-reads every namespace into the view daemon",
        )
        .value("moved_publish_ns_n1000", moved_small)
        .value("moved_publish_ns_n10000", moved_large)
        .at_most(
            "moved_publish_growth",
            moved_large / moved_small,
            MAX_MOVED_PUBLISH_GROWTH,
            "a moved view costs more on a larger host: its drain or publish walks or looks up by the host's size",
        )
        .finish();
}

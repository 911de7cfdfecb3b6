//! The JVM state machine: mutator and stop-the-world GC phases advancing
//! on the simulated host, with launch-time container awareness and the
//! elastic-heap controller.

use arv_cgroups::{Bytes, CgroupId};
use arv_container::SimHost;
use arv_sim_core::{SimDuration, SimTime, TimeSeries};

use crate::gc::{GcCostModel, GcKind, GcWork};
use crate::heap::{Heap, HeapLimits};
use crate::policy::{
    dynamic_active_workers, gc_workers, hotspot_default_gc_threads, ContainerAwareness, HeapPolicy,
};
use crate::profile::JavaProfile;

/// Full JVM configuration.
#[derive(Debug, Clone)]
pub struct JvmConfig {
    /// How the JVM discovers its resources at launch.
    pub awareness: ContainerAwareness,
    /// Hand-set GC thread count (`-XX:ParallelGCThreads`), overriding the
    /// awareness-derived default.
    pub gc_threads_override: Option<u32>,
    /// The pre-existing "dynamic GC threads" heuristic (`N_active`).
    pub dynamic_gc_threads: bool,
    /// How the maximum heap size is chosen.
    pub heap_policy: HeapPolicy,
    /// `-Xms`; defaults to a quarter of the (virtual) max heap.
    pub xms: Option<Bytes>,
    /// The calibrated GC cost model.
    pub gc_cost: GcCostModel,
    /// Young-generation growth per collection while below `YoungMax`.
    pub young_grow_factor: f64,
    /// GC-overhead target of the adaptive sizing algorithm: the young
    /// generation grows only while collections cost more than this
    /// fraction of elapsed time (HotSpot's throughput goal).
    pub gc_overhead_target: f64,
    /// Elastic-heap poll interval: "we query sys_namespace every 10s and
    /// perform the adjustment if needed" (§4.2).
    pub elastic_poll: SimDuration,
    /// Slowdown scale for swapped memory (calibrates the Figure 11
    /// performance collapse).
    pub swap_penalty: f64,
    /// Record per-period used/committed/VirtualMax series (Figure 12).
    pub record_heap_trace: bool,
}

impl JvmConfig {
    fn base(awareness: ContainerAwareness) -> JvmConfig {
        JvmConfig {
            awareness,
            gc_threads_override: None,
            dynamic_gc_threads: false,
            heap_policy: HeapPolicy::auto_default(),
            xms: None,
            gc_cost: GcCostModel::default(),
            young_grow_factor: 1.5,
            gc_overhead_target: 0.10,
            elastic_poll: SimDuration::from_secs(10),
            swap_penalty: 150.0,
            record_heap_trace: false,
        }
    }

    /// JDK 8 and earlier: host-oblivious static configuration.
    pub fn vanilla_jdk8() -> JvmConfig {
        Self::base(ContainerAwareness::None)
    }

    /// JDK 9: static cpuset/quota and hard-memory-limit awareness.
    pub fn jdk9() -> JvmConfig {
        Self::base(ContainerAwareness::StaticLimits)
    }

    /// JDK 10: JDK 9 plus static share-derived CPU count.
    pub fn jdk10() -> JvmConfig {
        Self::base(ContainerAwareness::StaticShares)
    }

    /// The paper's JVM: adaptive view, dynamic GC threads, elastic heap.
    pub fn adaptive() -> JvmConfig {
        let mut cfg = Self::base(ContainerAwareness::AdaptiveView);
        cfg.dynamic_gc_threads = true;
        cfg
    }

    /// Builder-style: toggle the `N_active` heuristic.
    pub fn with_dynamic_gc_threads(mut self, on: bool) -> JvmConfig {
        self.dynamic_gc_threads = on;
        self
    }

    /// Builder-style: hand-set the GC thread count.
    pub fn with_gc_threads(mut self, n: u32) -> JvmConfig {
        self.gc_threads_override = Some(n.max(1));
        self
    }

    /// Builder-style: choose the max-heap policy.
    pub fn with_heap_policy(mut self, p: HeapPolicy) -> JvmConfig {
        self.heap_policy = p;
        self
    }

    /// Builder-style: set the initial heap size (`-Xms`).
    pub fn with_xms(mut self, xms: Bytes) -> JvmConfig {
        self.xms = Some(xms);
        self
    }

    /// Builder-style: record the Figure 12 heap traces.
    pub fn with_heap_trace(mut self) -> JvmConfig {
        self.record_heap_trace = true;
        self
    }
}

/// Lifecycle state of the JVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JvmOutcome {
    /// Still executing.
    Running,
    /// Finished all mutator work.
    Completed,
    /// Java-level `OutOfMemoryError`: live data cannot fit in the heap
    /// limits (the missing bars of Figure 2(b)).
    OomError,
    /// Killed by the kernel: the cgroup could not be charged.
    OomKilled,
}

/// Measurements collected over a run.
#[derive(Debug, Clone)]
pub struct JvmMetrics {
    /// Total wall time from launch to completion.
    pub exec_wall: SimDuration,
    /// Wall time spent in stop-the-world collections.
    pub gc_wall: SimDuration,
    /// Wall time spent running application threads.
    pub mutator_wall: SimDuration,
    /// Number of minor collections.
    pub minor_gcs: u32,
    /// Number of major collections.
    pub major_gcs: u32,
    /// Worker count of each collection, in order (Figure 8(b)).
    pub gc_thread_trace: Vec<u32>,
    /// Used heap over time (GiB), when tracing is enabled.
    pub used_series: TimeSeries,
    /// Committed heap over time (GiB), when tracing is enabled.
    pub committed_series: TimeSeries,
    /// `VirtualMax` over time (GiB), when tracing is enabled.
    pub virtual_max_series: TimeSeries,
}

impl JvmMetrics {
    fn new() -> JvmMetrics {
        JvmMetrics {
            exec_wall: SimDuration::ZERO,
            gc_wall: SimDuration::ZERO,
            mutator_wall: SimDuration::ZERO,
            minor_gcs: 0,
            major_gcs: 0,
            gc_thread_trace: Vec::new(),
            used_series: TimeSeries::new("used"),
            committed_series: TimeSeries::new("committed"),
            virtual_max_series: TimeSeries::new("virtual_max"),
        }
    }

    /// Total collections (minor + major).
    pub fn gc_count(&self) -> u32 {
        self.minor_gcs + self.major_gcs
    }
}

#[derive(Debug, Clone)]
enum Phase {
    Mutator,
    Gc(GcWork),
}

/// A running (simulated) JVM bound to one container.
#[derive(Debug, Clone)]
pub struct Jvm {
    id: CgroupId,
    cfg: JvmConfig,
    profile: JavaProfile,
    heap: Heap,
    launch_threads: u32,
    work_remaining: SimDuration,
    alloc_since_minor: Bytes,
    pending_alloc: Bytes,
    charged: Bytes,
    phase: Phase,
    outcome: JvmOutcome,
    metrics: JvmMetrics,
    last_elastic_poll: SimTime,
    last_minor_end: SimTime,
}

impl Jvm {
    /// Launch the JVM inside container `id` on `host`.
    ///
    /// Resource discovery follows the configured awareness level:
    /// * visible CPUs — host online count (JDK 8 / the adaptive JVM's
    ///   launch maximum), the namespace's static upper bound
    ///   (JDK 9: cpuset/quota) or static lower bound (JDK 10: shares);
    /// * visible memory — host physical (JDK 8), the cgroup hard limit
    ///   (JDK 9/10), or the effective-memory view (adaptive).
    ///
    /// The adaptive JVM reads its views the way HotSpot does, through the
    /// container's `sysconf`: `_SC_NPROCESSORS_ONLN` for GC workers and
    /// `_SC_PHYS_PAGES × _SC_PAGESIZE` for the heap, so a stale or
    /// degraded view reaches it exactly as served.
    pub fn launch(host: &mut SimHost, id: CgroupId, cfg: JvmConfig, profile: JavaProfile) -> Jvm {
        profile.validate();
        let ns = host
            .monitor()
            .namespace(id)
            .expect("container has a namespace");
        let bounds = ns.cpu_bounds();

        let visible_cpus = match cfg.awareness {
            ContainerAwareness::None | ContainerAwareness::AdaptiveView => host.online_cpus(),
            ContainerAwareness::StaticLimits => bounds.upper,
            ContainerAwareness::StaticShares => bounds.lower,
        };
        let launch_threads = cfg
            .gc_threads_override
            .unwrap_or_else(|| hotspot_default_gc_threads(visible_cpus));

        let hard = host
            .mem()
            .hard_limit(id)
            .unwrap_or_else(|| host.total_memory());
        let visible_mem = match cfg.awareness {
            ContainerAwareness::None => host.total_memory(),
            ContainerAwareness::StaticLimits | ContainerAwareness::StaticShares => hard,
            ContainerAwareness::AdaptiveView => host.sysfs().memory_bytes(Some(id)),
        };

        let limits = match cfg.heap_policy {
            HeapPolicy::Auto { fraction } => HeapLimits::fixed(visible_mem.mul_f64(fraction)),
            HeapPolicy::FixedMax(max) => HeapLimits::fixed(max),
            HeapPolicy::Elastic => HeapLimits {
                // "Setting the original reserved size MaxHeapSize to a
                // sufficiently large value, close to the size of physical
                // memory" (§4.2).
                reserved: host.total_memory().mul_f64(0.9),
                virtual_max: host.sysfs().memory_bytes(Some(id)),
            },
        };
        let initial = cfg.xms.unwrap_or_else(|| limits.virtual_max.mul_f64(0.25));
        let heap = Heap::new(limits, initial);

        // A max heap below the benchmark's minimum cannot run at all. For
        // the elastic heap the bound that matters is the limit the view
        // can eventually grow to (the hard limit).
        let eventual_max = match cfg.heap_policy {
            HeapPolicy::Elastic => hard.min(limits.reserved),
            _ => limits.virtual_max,
        };
        let outcome = if profile.min_heap > eventual_max {
            JvmOutcome::OomError
        } else {
            JvmOutcome::Running
        };

        let mut jvm = Jvm {
            id,
            work_remaining: profile.total_work,
            launch_threads,
            heap,
            cfg,
            profile,
            alloc_since_minor: Bytes::ZERO,
            pending_alloc: Bytes::ZERO,
            charged: Bytes::ZERO,
            phase: Phase::Mutator,
            outcome,
            metrics: JvmMetrics::new(),
            last_elastic_poll: host.now(),
            last_minor_end: host.now(),
        };
        if jvm.outcome == JvmOutcome::Running {
            jvm.sync_charge(host);
        }
        jvm
    }

    /// The container (cgroup) this belongs to.
    pub fn id(&self) -> CgroupId {
        self.id
    }

    /// Current lifecycle state.
    pub fn outcome(&self) -> JvmOutcome {
        self.outcome
    }

    /// Whether the workload is still running.
    pub fn is_running(&self) -> bool {
        self.outcome == JvmOutcome::Running
    }

    /// Measurements collected so far.
    pub fn metrics(&self) -> &JvmMetrics {
        &self.metrics
    }

    /// The heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Time until this JVM's next internal event — eden filling (next
    /// minor GC) or the current collection completing — assuming a full
    /// CPU grant. Event-driven drivers cap the simulation step here so
    /// GC frequency does not quantize to the scheduling period.
    pub fn horizon(&self) -> Option<SimDuration> {
        if self.outcome != JvmOutcome::Running {
            return None;
        }
        let wall = match &self.phase {
            Phase::Mutator => {
                let to_fill =
                    self.heap.eden_room().as_u64() as f64 / self.profile.alloc_rate.as_u64() as f64;
                let cpu = to_fill.min(self.work_remaining.as_secs_f64());
                SimDuration::from_secs_f64(cpu / f64::from(self.profile.mutators.max(1)))
            }
            Phase::Gc(work) => work.remaining() / u64::from(work.workers.max(1)),
        };
        Some(wall.max(SimDuration::from_micros(500)))
    }

    /// Runnable thread count for the current phase (mutators run
    /// stop-the-world with GC workers, never simultaneously).
    pub fn runnable(&self) -> u32 {
        match (&self.phase, self.outcome) {
            (_, o) if o != JvmOutcome::Running => 0,
            (Phase::Mutator, _) => self.profile.mutators,
            (Phase::Gc(work), _) => work.workers,
        }
    }

    /// Advance the JVM by one scheduling period in which its container was
    /// granted `granted` CPU time.
    pub fn on_period(&mut self, host: &mut SimHost, granted: SimDuration, period: SimDuration) {
        if self.outcome != JvmOutcome::Running {
            return;
        }
        self.metrics.exec_wall += period;

        match &mut self.phase {
            Phase::Mutator => {
                self.metrics.mutator_wall += period;
                // The mutator's hot set: the allocation wave cycling
                // through the young generation plus the live data it
                // actually touches.
                let hot = self.heap.young_committed()
                    + self.heap.old_live().mul_f64(self.profile.touch_intensity);
                let slow = slow_factor(self.cfg.swap_penalty, hot, host.memory_usage(self.id));
                let progress = granted.mul_f64(1.0 / slow);
                self.work_remaining = self.work_remaining.saturating_sub(progress);
                if self.work_remaining.is_zero() {
                    self.outcome = JvmOutcome::Completed;
                    self.record_trace(host);
                    return;
                }
                let alloc = self.profile.alloc_rate.mul_f64(progress.as_secs_f64())
                    + std::mem::take(&mut self.pending_alloc);
                self.alloc_since_minor += alloc;
                let overflow = self.heap.allocate(alloc);
                if !overflow.is_zero() {
                    self.pending_alloc = overflow;
                    self.start_minor_gc(host);
                }
            }
            Phase::Gc(work) => {
                self.metrics.gc_wall += period;
                // A minor collection sweeps the young generation; a major
                // collection touches the whole committed heap, cold pages
                // included.
                let hot = match work.kind {
                    GcKind::Minor => self.heap.young_committed(),
                    GcKind::Major => self.heap.committed(),
                };
                let slow = slow_factor(self.cfg.swap_penalty, hot, host.memory_usage(self.id));
                if work.advance(&self.cfg.gc_cost, granted, period, slow) {
                    let kind = work.kind;
                    let wall = work.wall();
                    self.finish_gc(host, kind, wall);
                }
            }
        }

        if self.cfg.heap_policy == HeapPolicy::Elastic
            && host.now().since(self.last_elastic_poll) >= self.cfg.elastic_poll
        {
            self.elastic_adjust(host);
        }
        self.sync_charge(host);
        self.record_trace(host);
    }

    fn gc_worker_count(&self, host: &SimHost) -> u32 {
        let n_active = self.cfg.dynamic_gc_threads.then(|| {
            dynamic_active_workers(
                self.profile.mutators,
                self.heap.committed(),
                self.launch_threads,
            )
        });
        let e_cpu = (self.cfg.awareness == ContainerAwareness::AdaptiveView)
            .then(|| host.sysfs().online_cpus(Some(self.id)));
        gc_workers(self.launch_threads, n_active, e_cpu)
    }

    fn start_minor_gc(&mut self, host: &SimHost) {
        let workers = self.gc_worker_count(host);
        let copied = self
            .heap
            .minor_copied(self.profile.minor_survival, self.profile.young_live);
        self.metrics.gc_thread_trace.push(workers);
        self.phase = Phase::Gc(GcWork::minor(&self.cfg.gc_cost, copied, workers));
    }

    fn start_major_gc(&mut self, host: &SimHost) {
        let workers = self.gc_worker_count(host);
        self.metrics.gc_thread_trace.push(workers);
        self.phase = Phase::Gc(GcWork::major(
            &self.cfg.gc_cost,
            self.heap.old_used(),
            workers,
        ));
    }

    fn finish_gc(&mut self, host: &mut SimHost, kind: GcKind, gc_wall: SimDuration) {
        match kind {
            GcKind::Minor => {
                self.metrics.minor_gcs += 1;
                let live_delta = self
                    .alloc_since_minor
                    .mul_f64(self.profile.live_growth)
                    .min(self.profile.live_cap.saturating_sub(self.heap.old_live()));
                self.alloc_since_minor = Bytes::ZERO;
                let copied = self
                    .heap
                    .minor_copied(self.profile.minor_survival, self.profile.young_live);
                let result = self
                    .heap
                    .minor_gc(copied, self.profile.promotion, live_delta);
                if result.needs_major {
                    self.start_major_gc(host);
                    return;
                }
                // Adaptive sizing: expand the young generation only while
                // collections are frequent enough to exceed the overhead
                // target (HotSpot's throughput goal), so low-allocation
                // programs keep small heaps.
                let interval = host.now().since(self.last_minor_end);
                self.last_minor_end = host.now();
                if gc_wall.ratio(interval.max(gc_wall)) > self.cfg.gc_overhead_target {
                    self.heap.grow_young(self.cfg.young_grow_factor);
                }
                self.phase = Phase::Mutator;
            }
            GcKind::Major => {
                self.metrics.major_gcs += 1;
                let result = self.heap.major_gc();
                if result.oom {
                    // Live data cannot fit: for the elastic heap this can
                    // be transient (VirtualMax may grow); for fixed limits
                    // it is fatal.
                    if self.cfg.heap_policy != HeapPolicy::Elastic
                        || self.heap.limits().virtual_max
                            >= host
                                .mem()
                                .hard_limit(self.id)
                                .unwrap_or_else(|| host.total_memory())
                                .min(self.heap.limits().reserved)
                    {
                        self.outcome = JvmOutcome::OomError;
                        self.release_all(host);
                        return;
                    }
                }
                self.phase = Phase::Mutator;
            }
        }
    }

    /// §4.2 elastic adjustment: track effective memory with `VirtualMax`
    /// and resolve the three shrink scenarios.
    fn elastic_adjust(&mut self, host: &mut SimHost) {
        self.last_elastic_poll = host.now();
        let e_mem = host.sysfs().memory_bytes(Some(self.id));
        let used_over = self.heap.set_virtual_max(e_mem);
        if self.heap.committed_over_max() {
            // Case 2: committed crossed the new maxima — shrink it.
            self.heap.shrink_committed();
        }
        if used_over {
            // Case 3: used space crosses the maxima — free it with GCs
            // (retried at the next poll if one pass is not enough).
            if let Phase::Mutator = self.phase {
                if self.heap.old_used() > self.heap.limits().old_max() {
                    self.start_major_gc(host);
                } else {
                    self.start_minor_gc(host);
                }
            }
        }
    }

    /// Reconcile the heap's committed size with the cgroup charge.
    fn sync_charge(&mut self, host: &mut SimHost) {
        let committed = self.heap.committed();
        if committed > self.charged {
            let delta = committed - self.charged;
            if host.charge(self.id, delta).is_ok() {
                self.charged = committed;
            } else {
                self.outcome = JvmOutcome::OomKilled;
                self.release_all(host);
            }
        } else if committed < self.charged {
            host.uncharge(self.id, self.charged - committed);
            self.charged = committed;
        }
    }

    fn release_all(&mut self, host: &mut SimHost) {
        if !self.charged.is_zero() {
            host.uncharge(self.id, self.charged);
            self.charged = Bytes::ZERO;
        }
    }

    fn record_trace(&mut self, host: &SimHost) {
        if !self.cfg.record_heap_trace {
            return;
        }
        let now = host.now();
        self.metrics
            .used_series
            .push(now, self.heap.used().as_gib_f64());
        self.metrics
            .committed_series
            .push(now, self.heap.committed().as_gib_f64());
        self.metrics
            .virtual_max_series
            .push(now, self.heap.limits().virtual_max.as_gib_f64());
    }
}

/// Swap-induced slowdown: when the phase's hot set exceeds the
/// container's resident memory, the displaced fraction faults on every
/// pass. With no swapping, resident covers everything committed and the
/// factor is exactly 1.
fn slow_factor(penalty: f64, hot: Bytes, resident: Bytes) -> f64 {
    if hot.is_zero() {
        return 1.0;
    }
    let deficit = hot.saturating_sub(resident);
    1.0 + penalty * deficit.ratio(hot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_container::ContainerSpec;

    fn drive(host: &mut SimHost, jvms: &mut [Jvm], max_periods: u32) {
        for _ in 0..max_periods {
            if jvms.iter().all(|j| !j.is_running()) {
                return;
            }
            let demands: Vec<_> = jvms
                .iter()
                .filter(|j| j.is_running())
                .map(|j| host.demand(j.id(), j.runnable().max(1)))
                .collect();
            let out = host.step(&demands);
            for j in jvms.iter_mut() {
                let granted = out.alloc.granted_to(j.id());
                j.on_period(host, granted, out.period);
            }
        }
        panic!("workload did not finish in {max_periods} periods");
    }

    fn small_profile() -> JavaProfile {
        JavaProfile {
            name: "unit".into(),
            total_work: SimDuration::from_secs(4),
            mutators: 4,
            alloc_rate: Bytes::from_mib(200),
            minor_survival: 0.10,
            young_live: Bytes::from_mib(16),
            promotion: 0.30,
            live_growth: 0.02,
            live_cap: Bytes::from_mib(48),
            min_heap: Bytes::from_mib(80),
            touch_intensity: 0.5,
        }
    }

    #[test]
    fn jvm_completes_and_collects() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20));
        let mut jvm = Jvm::launch(
            &mut host,
            id,
            JvmConfig::vanilla_jdk8().with_heap_policy(HeapPolicy::FixedMax(Bytes::from_mib(240))),
            small_profile(),
        );
        drive(&mut host, std::slice::from_mut(&mut jvm), 200_000);
        assert_eq!(jvm.outcome(), JvmOutcome::Completed);
        let m = jvm.metrics();
        assert!(m.minor_gcs > 0, "allocation must trigger minor GCs");
        assert!(m.gc_wall > SimDuration::ZERO);
        assert!(m.exec_wall >= m.gc_wall + SimDuration::ZERO);
    }

    #[test]
    fn vanilla_jdk8_probes_host_resources() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20).cpus(10.0));
        let jvm = Jvm::launch(&mut host, id, JvmConfig::vanilla_jdk8(), small_profile());
        // 20 host cores → 15 GC threads; heap = 128 GB / 4 = 32 GB.
        assert_eq!(jvm.launch_threads(), 15);
        assert_eq!(
            jvm.heap().limits().virtual_max,
            Bytes::from_gib(128).mul_f64(0.25)
        );
    }

    #[test]
    fn jdk9_reads_static_limits() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(
            &ContainerSpec::new("c", 20)
                .cpus(10.0)
                .memory(Bytes::from_gib(1)),
        );
        let jvm = Jvm::launch(&mut host, id, JvmConfig::jdk9(), small_profile());
        // Quota of 10 CPUs → 9 GC threads; heap = 1 GB / 4 = 256 MB.
        assert_eq!(jvm.launch_threads(), 9);
        assert_eq!(jvm.heap().limits().virtual_max, Bytes::from_mib(256));
    }

    #[test]
    fn jdk9_oom_when_min_heap_exceeds_quarter_of_hard_limit() {
        // The Figure 2(b) missing-bar case: H2's working set cannot fit in
        // 1GB/4.
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20).memory(Bytes::from_gib(1)));
        let mut profile = small_profile();
        profile.min_heap = Bytes::from_mib(400);
        profile.live_cap = Bytes::from_mib(300);
        let jvm = Jvm::launch(&mut host, id, JvmConfig::jdk9(), profile);
        assert_eq!(jvm.outcome(), JvmOutcome::OomError);
    }

    #[test]
    fn jdk10_uses_share_derived_count() {
        let mut host = SimHost::paper_testbed();
        // Ten equal-share containers: lower bound = ceil(20/10) = 2.
        let ids: Vec<_> = (0..10)
            .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20)))
            .collect();
        let jvm = Jvm::launch(&mut host, ids[0], JvmConfig::jdk10(), small_profile());
        assert_eq!(jvm.launch_threads(), 2);
    }

    #[test]
    fn adaptive_launches_max_threads_but_collects_with_effective_cpu() {
        let mut host = SimHost::paper_testbed();
        let ids: Vec<_> = (0..5)
            .map(|i| {
                host.launch(
                    &ContainerSpec::new(format!("c{i}"), 20)
                        .cpus(10.0)
                        .cpu_shares(1024),
                )
            })
            .collect();
        let mut jvms: Vec<Jvm> = ids
            .iter()
            .map(|id| {
                Jvm::launch(
                    &mut host,
                    *id,
                    JvmConfig::adaptive()
                        .with_heap_policy(HeapPolicy::FixedMax(Bytes::from_mib(240))),
                    small_profile(),
                )
            })
            .collect();
        // Launch maximum retained for future expansion.
        assert_eq!(jvms[0].launch_threads(), 15);
        drive(&mut host, &mut jvms, 400_000);
        for jvm in &jvms {
            assert_eq!(jvm.outcome(), JvmOutcome::Completed);
            // With 5 saturated containers, E_CPU sits at 4: every
            // collection after warm-up must use ≤ 4 workers.
            let trace = &jvm.metrics().gc_thread_trace;
            assert!(!trace.is_empty());
            let tail = &trace[trace.len().min(2) - 1..];
            assert!(
                tail.iter().all(|w| *w <= 4),
                "adaptive workers exceeded effective CPU: {trace:?}"
            );
        }
    }

    #[test]
    fn overthreaded_vanilla_spends_more_gc_wall_than_adaptive() {
        // Head-to-head in the 5-container scenario; compare total GC wall.
        let run = |cfg: JvmConfig| -> SimDuration {
            let mut host = SimHost::paper_testbed();
            let ids: Vec<_> = (0..5)
                .map(|i| {
                    host.launch(
                        &ContainerSpec::new(format!("c{i}"), 20)
                            .cpus(10.0)
                            .cpu_shares(1024),
                    )
                })
                .collect();
            let mut jvms: Vec<Jvm> = ids
                .iter()
                .map(|id| {
                    Jvm::launch(
                        &mut host,
                        *id,
                        cfg.clone()
                            .with_heap_policy(HeapPolicy::FixedMax(Bytes::from_mib(240))),
                        small_profile(),
                    )
                })
                .collect();
            drive(&mut host, &mut jvms, 400_000);
            jvms.iter().map(|j| j.metrics().gc_wall).sum()
        };
        let vanilla = run(JvmConfig::vanilla_jdk8());
        let adaptive = run(JvmConfig::adaptive());
        assert!(
            vanilla.as_secs_f64() > adaptive.as_secs_f64() * 1.2,
            "vanilla {vanilla} should trail adaptive {adaptive}"
        );
    }

    #[test]
    fn hard_limit_overflow_swaps_and_slows_vanilla() {
        // Figure 11: 1 GB hard limit, vanilla auto-heap (32 GB max) swaps.
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20).memory(Bytes::from_gib(1)));
        let mut profile = small_profile();
        profile.alloc_rate = Bytes::from_gib(2);
        profile.live_cap = Bytes::from_mib(600);
        profile.min_heap = Bytes::from_mib(700);
        profile.total_work = SimDuration::from_secs(3);
        let mut jvm = Jvm::launch(
            &mut host,
            id,
            JvmConfig::vanilla_jdk8().with_xms(Bytes::from_mib(500)),
            profile,
        );
        drive(&mut host, std::slice::from_mut(&mut jvm), 3_000_000);
        assert_eq!(jvm.outcome(), JvmOutcome::Completed);
        assert!(
            host.mem().swap_out_total() > Bytes::ZERO,
            "should have swapped"
        );
    }

    #[test]
    fn elastic_heap_respects_hard_limit() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20).memory(Bytes::from_gib(1)));
        let mut profile = small_profile();
        profile.alloc_rate = Bytes::from_gib(2);
        profile.live_cap = Bytes::from_mib(600);
        profile.min_heap = Bytes::from_mib(700);
        profile.total_work = SimDuration::from_secs(3);
        let mut jvm = Jvm::launch(
            &mut host,
            id,
            JvmConfig::adaptive()
                .with_heap_policy(HeapPolicy::Elastic)
                .with_xms(Bytes::from_mib(500)),
            profile,
        );
        drive(&mut host, std::slice::from_mut(&mut jvm), 3_000_000);
        assert_eq!(jvm.outcome(), JvmOutcome::Completed);
        // The heap never outgrew the hard limit, so nothing swapped.
        assert_eq!(host.mem().swap_out_total(), Bytes::ZERO);
        assert!(jvm.heap().limits().virtual_max <= Bytes::from_gib(1));
    }

    #[test]
    fn heap_trace_records_series() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20));
        let mut jvm = Jvm::launch(
            &mut host,
            id,
            JvmConfig::vanilla_jdk8()
                .with_heap_policy(HeapPolicy::FixedMax(Bytes::from_mib(240)))
                .with_heap_trace(),
            small_profile(),
        );
        drive(&mut host, std::slice::from_mut(&mut jvm), 200_000);
        let m = jvm.metrics();
        assert!(!m.used_series.is_empty());
        assert_eq!(m.used_series.len(), m.committed_series.len());
    }

    #[test]
    fn horizon_points_at_the_next_event() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20));
        let jvm = Jvm::launch(
            &mut host,
            id,
            JvmConfig::vanilla_jdk8().with_heap_policy(HeapPolicy::FixedMax(Bytes::from_mib(240))),
            small_profile(),
        );
        // Fresh mutator: horizon = eden fill time at full parallelism.
        let h = jvm.horizon().expect("running JVM has a horizon");
        let eden = jvm.heap().eden_room().as_u64() as f64;
        let expected = eden / Bytes::from_mib(200).as_u64() as f64 / 4.0;
        assert!(
            (h.as_secs_f64() - expected).abs() < 0.01,
            "{h} vs {expected}"
        );
    }

    #[test]
    fn horizon_none_once_finished() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20));
        let mut profile = small_profile();
        profile.total_work = SimDuration::from_secs(1);
        let mut jvm = Jvm::launch(
            &mut host,
            id,
            JvmConfig::vanilla_jdk8().with_heap_policy(HeapPolicy::FixedMax(Bytes::from_mib(240))),
            profile,
        );
        drive(&mut host, std::slice::from_mut(&mut jvm), 200_000);
        assert_eq!(jvm.horizon(), None);
        assert_eq!(jvm.runnable(), 0);
    }

    #[test]
    fn launch_threads_across_all_policies() {
        // One matrix covering every awareness level on the same container.
        let mut host = SimHost::paper_testbed();
        let id = host.launch(
            &ContainerSpec::new("c", 20)
                .cpus(6.0)
                .memory(Bytes::from_gib(2)),
        );
        let expectations = [
            (JvmConfig::vanilla_jdk8(), 15), // hotspot(20 host cores)
            (JvmConfig::jdk9(), 6),          // hotspot(quota 6) = 6
            (JvmConfig::jdk10(), 6),         // lower bound min(quota 6, 20) = 6
            (JvmConfig::adaptive(), 15),     // launch max, adapt per GC
        ];
        for (cfg, expect) in expectations {
            let jvm = Jvm::launch(&mut host, id, cfg.clone(), small_profile());
            assert_eq!(
                jvm.launch_threads(),
                expect,
                "awareness {:?}",
                cfg.awareness
            );
        }
    }

    #[test]
    fn explicit_xmx_overrides_awareness() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20).memory(Bytes::from_gib(1)));
        let jvm = Jvm::launch(
            &mut host,
            id,
            JvmConfig::jdk9().with_heap_policy(HeapPolicy::FixedMax(Bytes::from_mib(333))),
            small_profile(),
        );
        assert_eq!(jvm.heap().limits().virtual_max, Bytes::from_mib(333));
    }

    #[test]
    fn slow_factor_boundaries() {
        // No deficit → exactly 1; full deficit → 1 + penalty; zero hot set
        // is neutral.
        assert_eq!(slow_factor(60.0, Bytes::ZERO, Bytes::ZERO), 1.0);
        assert_eq!(
            slow_factor(60.0, Bytes::from_mib(100), Bytes::from_mib(100)),
            1.0
        );
        assert_eq!(
            slow_factor(60.0, Bytes::from_mib(100), Bytes::from_mib(200)),
            1.0
        );
        assert_eq!(slow_factor(60.0, Bytes::from_mib(100), Bytes::ZERO), 61.0);
        let half = slow_factor(60.0, Bytes::from_mib(100), Bytes::from_mib(50));
        assert!((half - 31.0).abs() < 1e-9);
    }

    #[test]
    fn cgroup_oom_kill_reported() {
        // Tiny host without swap: overcommit gets the JVM killed.
        let mut host = SimHost::new(4, Bytes::from_mib(512));
        let id = host.launch(&ContainerSpec::new("c", 4));
        let mut profile = small_profile();
        profile.alloc_rate = Bytes::from_gib(4);
        profile.live_cap = Bytes::from_mib(384);
        profile.min_heap = Bytes::from_mib(448);
        profile.live_growth = 0.5;
        let mut jvm = Jvm::launch(
            &mut host,
            id,
            JvmConfig::vanilla_jdk8().with_heap_policy(HeapPolicy::FixedMax(Bytes::from_gib(4))),
            profile,
        );
        // Drive until it dies or finishes; completing would mean the host
        // absorbed 4 GiB into 512 MiB + swap.
        for _ in 0..3_000_000 {
            if !jvm.is_running() {
                break;
            }
            let d = host.demand(id, jvm.runnable().max(1));
            let out = host.step(&[d]);
            let granted = out.alloc.granted_to(id);
            jvm.on_period(&mut host, granted, out.period);
        }
        assert_eq!(jvm.outcome(), JvmOutcome::OomKilled);
        // Everything it charged was released on the way out.
        assert_eq!(host.memory_usage(id), Bytes::ZERO);
    }

    impl Jvm {
        /// GC threads created at launch (`N` in §4.1).
        fn launch_threads(&self) -> u32 {
            self.launch_threads
        }
    }
}

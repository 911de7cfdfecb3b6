//! The fleet driver: advances a mixed set of workloads on one host.

use arv_cgroups::{Bytes, CgroupId};
use arv_container::SimHost;
use arv_jvm::Jvm;
use arv_omp::OmpRuntime;
use arv_sim_core::{SimDuration, SimTime};
use arv_workloads::CpuHog;

/// A background memory hog: charges container memory toward a target at
/// a fixed rate and holds it (the "memory-intensive workload in the
/// background" of §2.2's Figure 2(b) experiment).
#[derive(Debug, Clone)]
pub struct MemHog {
    id: CgroupId,
    rate_per_sec: Bytes,
    target: Bytes,
    charged: Bytes,
    stalled: bool,
}

impl MemHog {
    /// A hog charging toward `target` at `rate_per_sec`.
    pub fn new(id: CgroupId, rate_per_sec: Bytes, target: Bytes) -> MemHog {
        assert!(!rate_per_sec.is_zero() && !target.is_zero());
        MemHog {
            id,
            rate_per_sec,
            target,
            charged: Bytes::ZERO,
            stalled: false,
        }
    }

    /// The container (cgroup) this belongs to.
    pub fn id(&self) -> CgroupId {
        self.id
    }

    fn on_period(&mut self, host: &mut SimHost, period: SimDuration) {
        if self.stalled || self.charged >= self.target {
            return;
        }
        let amount = self
            .rate_per_sec
            .mul_f64(period.as_secs_f64())
            .min(self.target - self.charged);
        if host.charge(self.id, amount).is_ok() {
            self.charged += amount;
        } else {
            // The host refused (would OOM): hold what we have.
            self.stalled = true;
        }
    }
}

/// Any workload the driver can advance.
///
/// The `Jvm` variant is much larger than the others; fleets hold a
/// handful of workloads, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Workload {
    /// A simulated JVM (primary workload).
    Jvm(Jvm),
    /// A simulated OpenMP program (primary workload).
    Omp(OmpRuntime),
    /// Background CPU load: never gates fleet completion.
    Hog(CpuHog),
    /// Background memory load: never gates fleet completion.
    MemHog(MemHog),
}

impl Workload {
    fn id(&self) -> CgroupId {
        match self {
            Workload::Jvm(j) => j.id(),
            Workload::Omp(o) => o.id(),
            Workload::Hog(h) => h.id(),
            Workload::MemHog(m) => m.id(),
        }
    }

    fn runnable(&self, host: &SimHost) -> u32 {
        match self {
            Workload::Jvm(j) => j.runnable(),
            Workload::Omp(o) => o.runnable(host),
            Workload::Hog(h) => h.runnable(),
            Workload::MemHog(m) => u32::from(!m.stalled && m.charged < m.target),
        }
    }

    /// Time until this workload's next internal event (step cap).
    fn horizon(&self, host: &SimHost) -> Option<SimDuration> {
        match self {
            Workload::Jvm(j) => j.horizon(),
            Workload::Omp(o) => o.horizon(host),
            Workload::Hog(h) => h.horizon(),
            Workload::MemHog(_) => None,
        }
    }

    /// Whether this workload gates fleet completion.
    fn is_primary(&self) -> bool {
        matches!(self, Workload::Jvm(_) | Workload::Omp(_))
    }

    fn is_done(&self) -> bool {
        match self {
            Workload::Jvm(j) => !j.is_running(),
            Workload::Omp(o) => !o.is_running(),
            Workload::Hog(h) => !h.is_running(),
            Workload::MemHog(m) => m.stalled || m.charged >= m.target,
        }
    }
}

/// A set of workloads sharing one host.
#[derive(Debug, Default)]
pub struct Fleet {
    workloads: Vec<Workload>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Fleet {
        Fleet::default()
    }

    /// Add a JVM; returns its index.
    pub fn push_jvm(&mut self, jvm: Jvm) -> usize {
        self.workloads.push(Workload::Jvm(jvm));
        self.workloads.len() - 1
    }

    /// Add an OpenMP runtime; returns its index.
    pub fn push_omp(&mut self, rt: OmpRuntime) -> usize {
        self.workloads.push(Workload::Omp(rt));
        self.workloads.len() - 1
    }

    /// Add a background CPU hog; returns its index.
    pub fn push_hog(&mut self, hog: CpuHog) -> usize {
        self.workloads.push(Workload::Hog(hog));
        self.workloads.len() - 1
    }

    /// Add a background memory hog; returns its index.
    pub fn push_mem_hog(&mut self, hog: MemHog) -> usize {
        self.workloads.push(Workload::MemHog(hog));
        self.workloads.len() - 1
    }

    /// The JVM at `idx`; panics if the workload is not a JVM.
    pub fn jvm(&self, idx: usize) -> &Jvm {
        match &self.workloads[idx] {
            Workload::Jvm(j) => j,
            other => panic!("workload {idx} is not a JVM: {other:?}"),
        }
    }

    /// The OpenMP runtime at `idx`; panics if it is not one.
    pub fn omp(&self, idx: usize) -> &OmpRuntime {
        match &self.workloads[idx] {
            Workload::Omp(o) => o,
            other => panic!("workload {idx} is not an OpenMP runtime: {other:?}"),
        }
    }

    /// All primaries finished?
    pub fn primaries_done(&self) -> bool {
        self.workloads
            .iter()
            .filter(|w| w.is_primary())
            .all(|w| w.is_done())
    }

    /// Advance one step (at most a scheduling period, shorter when a
    /// workload's next event is nearer). Returns the simulated time after.
    pub fn step(&mut self, host: &mut SimHost) -> SimTime {
        let demands: Vec<_> = self
            .workloads
            .iter()
            .filter(|w| !w.is_done())
            .map(|w| host.demand(w.id(), w.runnable(host).max(1)))
            .collect();
        let cap = self
            .workloads
            .iter()
            .filter(|w| !w.is_done())
            .filter_map(|w| w.horizon(host))
            .min()
            .unwrap_or(SimDuration(u64::MAX));
        let out = host.step_capped(&demands, cap);
        for w in self.workloads.iter_mut() {
            let granted = out.alloc.granted_to(w.id());
            match w {
                Workload::Jvm(j) => j.on_period(host, granted, out.period),
                Workload::Omp(o) => o.on_period(host, granted, out.period),
                Workload::Hog(h) => h.on_period(granted, out.period),
                Workload::MemHog(m) => m.on_period(host, out.period),
            }
        }
        out.now
    }

    /// Run until every primary workload finishes or the simulated
    /// `deadline` passes. Returns `true` on completion, `false` on a
    /// deadline timeout (the paper's "failed to complete" runs).
    pub fn run(&mut self, host: &mut SimHost, deadline: SimDuration) -> bool {
        let start = host.now();
        while !self.primaries_done() {
            let now = self.step(host);
            if now.since(start) >= deadline {
                return self.primaries_done();
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_container::ContainerSpec;
    use arv_jvm::{HeapPolicy, JavaProfile, JvmConfig};
    use arv_omp::{OmpProfile, ThreadStrategy};

    #[test]
    fn mixed_fleet_runs_to_completion() {
        let mut host = SimHost::paper_testbed();
        let a = host.launch(&ContainerSpec::new("jvm", 20));
        let b = host.launch(&ContainerSpec::new("omp", 20));
        let c = host.launch(&ContainerSpec::new("hog", 20));
        let mut fleet = Fleet::new();
        let jvm = Jvm::launch(
            &mut host,
            a,
            JvmConfig::vanilla_jdk8().with_heap_policy(HeapPolicy::FixedMax(Bytes::from_mib(240))),
            JavaProfile::test_profile(),
        );
        let ji = fleet.push_jvm(jvm);
        let oi = fleet.push_omp(OmpRuntime::launch(
            b,
            ThreadStrategy::Static(4),
            OmpProfile::test_profile(),
        ));
        fleet.push_hog(CpuHog::new(c, 4, SimDuration::from_secs(2)));
        assert!(fleet.run(&mut host, SimDuration::from_secs(10_000)));
        assert!(!fleet.jvm(ji).is_running());
        assert!(!fleet.omp(oi).is_running());
    }

    #[test]
    fn deadline_reports_dnf() {
        let mut host = SimHost::paper_testbed();
        let a = host.launch(&ContainerSpec::new("jvm", 20));
        let mut fleet = Fleet::new();
        let mut profile = JavaProfile::test_profile();
        profile.total_work = SimDuration::from_secs(10_000);
        fleet.push_jvm(Jvm::launch(
            &mut host,
            a,
            JvmConfig::vanilla_jdk8().with_heap_policy(HeapPolicy::FixedMax(Bytes::from_mib(240))),
            profile,
        ));
        assert!(!fleet.run(&mut host, SimDuration::from_secs(1)));
    }

    #[test]
    fn mem_hog_charges_to_target_and_holds() {
        let mut host = SimHost::paper_testbed();
        let a = host.launch(&ContainerSpec::new("hog", 20));
        let mut hog = MemHog::new(a, Bytes::from_gib(2), Bytes::from_gib(10));
        for _ in 0..1_000 {
            hog.on_period(&mut host, SimDuration::from_millis(24));
        }
        assert_eq!(hog.charged(), Bytes::from_gib(10));
        assert_eq!(host.memory_usage(a), Bytes::from_gib(10));
    }

    #[test]
    fn hogs_do_not_gate_completion() {
        let mut host = SimHost::paper_testbed();
        let c = host.launch(&ContainerSpec::new("hog", 20));
        let mut fleet = Fleet::new();
        fleet.push_hog(CpuHog::new(c, 4, SimDuration::from_secs(100_000)));
        // No primaries: fleet is immediately "done".
        assert!(fleet.run(&mut host, SimDuration::from_secs(1)));
    }

    impl MemHog {
        /// Memory charged so far.
        fn charged(&self) -> Bytes {
            self.charged
        }
    }
}

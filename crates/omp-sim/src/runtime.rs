//! The OpenMP runtime: per-region team sizing and region execution.

use arv_cgroups::CgroupId;
use arv_container::SimHost;
use arv_sim_core::SimDuration;

use crate::profile::OmpProfile;

/// How the team size of each parallel region is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStrategy {
    /// Fixed team for every region (`OMP_NUM_THREADS`, defaulting to the
    /// online CPU count the runtime observed at startup).
    Static(u32),
    /// libgomp dynamic threads: `max(1, n_onln − loadavg)` evaluated at
    /// region start, with the host-reported online count.
    Dynamic,
    /// The paper's adaptive strategy: the container's effective CPU count,
    /// read as `_SC_NPROCESSORS_ONLN` at region start.
    Adaptive,
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmpOutcome {
    /// Still executing parallel regions.
    Running,
    /// Finished every region.
    Completed,
}

/// Measurements collected over a run.
#[derive(Debug, Clone)]
pub struct OmpMetrics {
    /// Total wall time from launch to completion.
    pub exec_wall: SimDuration,
    /// Parallel regions completed.
    pub regions_done: u32,
    /// Team size chosen for each region.
    pub thread_trace: Vec<u32>,
}

#[derive(Debug, Clone)]
struct RegionWork {
    team: u32,
    serial_remaining: SimDuration,
    parallel_remaining: SimDuration,
}

/// Contention inflation coefficient when the team outnumbers granted
/// CPUs — same mechanism as the GC model, slightly lower because OpenMP
/// workers share no central task-queue lock.
const CONTENTION_ALPHA: f64 = 0.30;

/// A running OpenMP program bound to one container.
#[derive(Debug, Clone)]
pub struct OmpRuntime {
    id: CgroupId,
    profile: OmpProfile,
    strategy: ThreadStrategy,
    current: Option<RegionWork>,
    regions_left: u32,
    outcome: OmpOutcome,
    metrics: OmpMetrics,
}

impl OmpRuntime {
    /// Start a program in container `id` under the given strategy.
    pub fn launch(id: CgroupId, strategy: ThreadStrategy, profile: OmpProfile) -> OmpRuntime {
        profile.validate();
        if let ThreadStrategy::Static(n) = strategy {
            assert!(n > 0, "static team must have at least one thread");
        }
        OmpRuntime {
            id,
            regions_left: profile.regions,
            profile,
            strategy,
            current: None,
            outcome: OmpOutcome::Running,
            metrics: OmpMetrics {
                exec_wall: SimDuration::ZERO,
                regions_done: 0,
                thread_trace: Vec::new(),
            },
        }
    }

    /// The container (cgroup) this belongs to.
    pub fn id(&self) -> CgroupId {
        self.id
    }

    /// Current lifecycle state.
    pub fn outcome(&self) -> OmpOutcome {
        self.outcome
    }

    /// Whether the workload is still running.
    pub fn is_running(&self) -> bool {
        self.outcome == OmpOutcome::Running
    }

    /// Measurements collected so far.
    pub fn metrics(&self) -> &OmpMetrics {
        &self.metrics
    }

    /// Team size for the next region under the configured strategy.
    fn team_size(&self, host: &SimHost) -> u32 {
        match self.strategy {
            ThreadStrategy::Static(n) => n,
            ThreadStrategy::Dynamic => {
                let n_onln = host.online_cpus() as f64;
                (n_onln - host.loadavg()).floor().max(1.0) as u32
            }
            ThreadStrategy::Adaptive => host.sysfs().online_cpus(Some(self.id)).max(1),
        }
    }

    /// Time until the current region completes (assuming a full grant);
    /// a fresh region's full cost when none is in flight. Event-driven
    /// drivers cap the simulation step here.
    pub fn horizon(&self, host: &SimHost) -> Option<SimDuration> {
        if !self.is_running() {
            return None;
        }
        let wall = match &self.current {
            Some(r) => (r.serial_remaining + r.parallel_remaining) / u64::from(r.team.max(1)),
            None => {
                let team = self.team_size(host).max(1);
                self.profile.work_per_region / u64::from(team)
            }
        };
        Some(wall.max(SimDuration::from_micros(500)))
    }

    /// Runnable thread count this period (the current team, or the team
    /// about to be forked).
    pub fn runnable(&self, host: &SimHost) -> u32 {
        if !self.is_running() {
            return 0;
        }
        match &self.current {
            Some(r) => r.team,
            None => self.team_size(host),
        }
    }

    /// Advance by one scheduling period with `granted` CPU time.
    pub fn on_period(&mut self, host: &SimHost, granted: SimDuration, period: SimDuration) {
        if !self.is_running() {
            return;
        }
        self.metrics.exec_wall += period;

        if self.current.is_none() {
            let team = self.team_size(host);
            self.metrics.thread_trace.push(team);
            let serial = self
                .profile
                .work_per_region
                .mul_f64(self.profile.serial_frac)
                + self.profile.sync_per_thread * u64::from(team);
            let parallel = self
                .profile
                .work_per_region
                .mul_f64(1.0 - self.profile.serial_frac);
            self.current = Some(RegionWork {
                team,
                serial_remaining: serial,
                parallel_remaining: parallel,
            });
        }
        let region = self.current.as_mut().expect("region just ensured");

        let mut budget = granted;
        let serial_step = region.serial_remaining.min(budget).min(period);
        region.serial_remaining -= serial_step;
        budget -= serial_step;

        if !budget.is_zero() && !region.parallel_remaining.is_zero() {
            let granted_cpus = granted.ratio(period).max(1e-6);
            let excess = (region.team as f64 - granted_cpus).max(0.0);
            let efficiency = 1.0 / (1.0 + CONTENTION_ALPHA * excess / granted_cpus);
            let progress = budget.mul_f64(efficiency).min(region.parallel_remaining);
            region.parallel_remaining -= progress;
        }

        if region.serial_remaining.is_zero() && region.parallel_remaining.is_zero() {
            self.current = None;
            self.metrics.regions_done += 1;
            self.regions_left -= 1;
            if self.regions_left == 0 {
                self.outcome = OmpOutcome::Completed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_container::ContainerSpec;

    fn drive(host: &mut SimHost, rts: &mut [OmpRuntime], max_periods: u32) {
        for _ in 0..max_periods {
            if rts.iter().all(|r| !r.is_running()) {
                return;
            }
            let demands: Vec<_> = rts
                .iter()
                .filter(|r| r.is_running())
                .map(|r| host.demand(r.id(), r.runnable(host).max(1)))
                .collect();
            let out = host.step(&demands);
            for r in rts.iter_mut() {
                let granted = out.alloc.granted_to(r.id());
                r.on_period(host, granted, out.period);
            }
        }
        panic!("OpenMP program did not finish in {max_periods} periods");
    }

    #[test]
    fn program_completes_all_regions() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("omp", 20));
        let mut rt = OmpRuntime::launch(id, ThreadStrategy::Static(8), OmpProfile::test_profile());
        drive(&mut host, std::slice::from_mut(&mut rt), 100_000);
        assert_eq!(rt.outcome(), OmpOutcome::Completed);
        assert_eq!(rt.metrics().regions_done, 20);
        assert_eq!(rt.metrics().thread_trace.len(), 20);
        assert!(rt.metrics().thread_trace.iter().all(|t| *t == 8));
    }

    #[test]
    fn dynamic_strategy_subtracts_loadavg() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("omp", 20));
        host.prime_loadavg(15.0);
        let rt = OmpRuntime::launch(id, ThreadStrategy::Dynamic, OmpProfile::test_profile());
        assert_eq!(rt.runnable(&host), 5); // 20 − 15
        host.prime_loadavg(40.0);
        assert_eq!(rt.runnable(&host), 1); // clamped
    }

    #[test]
    fn adaptive_strategy_reads_effective_cpu() {
        let mut host = SimHost::paper_testbed();
        let ids: Vec<_> = (0..5)
            .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20).cpu_shares(1024)))
            .collect();
        // Saturate all five so E_CPU = 4 each.
        for _ in 0..30 {
            let ds: Vec<_> = ids.iter().map(|id| host.demand(*id, 20)).collect();
            host.step(&ds);
        }
        let rt = OmpRuntime::launch(ids[0], ThreadStrategy::Adaptive, OmpProfile::test_profile());
        assert_eq!(rt.runnable(&host), 4);
    }

    #[test]
    fn overthreading_in_quota_container_is_slow() {
        // Figure 10(b): one container with a 4-CPU quota. A 20-thread
        // static team must lose to a 4-thread team.
        let run = |threads: u32| -> SimDuration {
            let mut host = SimHost::paper_testbed();
            let id = host.launch(&ContainerSpec::new("omp", 20).cpus(4.0));
            let mut rt = OmpRuntime::launch(
                id,
                ThreadStrategy::Static(threads),
                OmpProfile::test_profile(),
            );
            drive(&mut host, std::slice::from_mut(&mut rt), 200_000);
            rt.metrics().exec_wall
        };
        let right_sized = run(4);
        let over = run(20);
        assert!(
            over.as_secs_f64() > right_sized.as_secs_f64() * 1.5,
            "over-threading too cheap: {right_sized} vs {over}"
        );
    }

    #[test]
    fn starved_team_of_one_is_slowest() {
        // Figure 10(a) failure mode: dynamic under high load collapses to
        // one thread even though the container is guaranteed 4 CPUs.
        let run = |strategy: ThreadStrategy, primed_load: f64| -> SimDuration {
            let mut host = SimHost::paper_testbed();
            let id = host.launch(&ContainerSpec::new("omp", 20));
            host.prime_loadavg(primed_load);
            let mut rt = OmpRuntime::launch(id, strategy, OmpProfile::test_profile());
            drive(&mut host, std::slice::from_mut(&mut rt), 400_000);
            rt.metrics().exec_wall
        };
        let adaptive_like = run(ThreadStrategy::Static(4), 100.0);
        let dynamic = run(ThreadStrategy::Dynamic, 100.0);
        assert!(dynamic.as_secs_f64() > adaptive_like.as_secs_f64() * 2.0);
    }

    #[test]
    fn team_resizes_between_regions_under_adaptive() {
        let mut host = SimHost::paper_testbed();
        let ids: Vec<_> = (0..2)
            .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20).cpu_shares(1024)))
            .collect();
        let mut profile = OmpProfile::test_profile();
        profile.regions = 60;
        let mut rt = OmpRuntime::launch(ids[0], ThreadStrategy::Adaptive, profile);
        // First half: neighbour saturates its share too.
        for _ in 0..2_000 {
            if !rt.is_running() {
                break;
            }
            let d0 = host.demand(ids[0], rt.runnable(&host).max(1));
            let d1 = host.demand(ids[1], 20);
            let out = host.step(&[d0, d1]);
            let granted = out.alloc.granted_to(ids[0]);
            rt.on_period(&host, granted, out.period);
        }
        // Second half: neighbour goes idle, E_CPU expands.
        while rt.is_running() {
            let d0 = host.demand(ids[0], rt.runnable(&host).max(1));
            let out = host.step(&[d0]);
            let granted = out.alloc.granted_to(ids[0]);
            rt.on_period(&host, granted, out.period);
        }
        let trace = &rt.metrics().thread_trace;
        let min = trace.iter().min().unwrap();
        let max = trace.iter().max().unwrap();
        assert!(
            max > min,
            "adaptive team should expand when CPUs free up: {trace:?}"
        );
    }

    #[test]
    #[should_panic]
    fn static_zero_threads_rejected() {
        OmpRuntime::launch(
            CgroupId(0),
            ThreadStrategy::Static(0),
            OmpProfile::test_profile(),
        );
    }
}

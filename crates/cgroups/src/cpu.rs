//! The cgroup cpu controller: shares, CFS bandwidth (quota/period), cpuset.

use arv_sim_core::SimDuration;

/// Default `cpu.shares` in Linux.
pub const DEFAULT_SHARES: u64 = 1024;
/// Default `cpu.cfs_period_us` in Linux: 100 ms.
pub const DEFAULT_CFS_PERIOD: SimDuration = SimDuration::from_micros(100_000);

/// A set of CPUs (`cpuset.cpus`), modelled as a bitmask over up to 128
/// logical CPUs — far beyond the paper's 20-core testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuSet(u128);

impl CpuSet {
    /// The empty set (no CPUs — a container pinned to nothing cannot run).
    pub const EMPTY: CpuSet = CpuSet(0);

    /// CPUs `0..n`.
    pub fn first_n(n: u32) -> CpuSet {
        assert!(n <= 128, "at most 128 CPUs are modelled");
        if n == 128 {
            CpuSet(u128::MAX)
        } else {
            CpuSet((1u128 << n) - 1)
        }
    }

    /// CPUs `lo..hi` (half-open), like the cpuset list syntax `lo-(hi-1)`.
    pub fn range(lo: u32, hi: u32) -> CpuSet {
        assert!(lo <= hi && hi <= 128, "invalid CPU range {lo}..{hi}");
        let mut s = CpuSet::EMPTY;
        for c in lo..hi {
            s = s.with(c);
        }
        s
    }

    /// Set with CPU `cpu` added.
    pub fn with(self, cpu: u32) -> CpuSet {
        assert!(cpu < 128, "CPU index out of range");
        CpuSet(self.0 | (1u128 << cpu))
    }

    /// Number of CPUs in the set — the `|M_i|` of Algorithm 1.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set contains no CPUs.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The intersection of the two sets.
    pub fn intersection(self, other: CpuSet) -> CpuSet {
        CpuSet(self.0 & other.0)
    }
}

/// Per-cgroup cpu controller settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuController {
    /// `cpu.shares` — relative weight when competing for CPU.
    pub shares: u64,
    /// `cpu.cfs_quota_us` — CPU time usable per period; `None` = unlimited
    /// (the cgroup default of -1).
    pub quota: Option<SimDuration>,
    /// `cpu.cfs_period_us` — bandwidth accounting period.
    pub period: SimDuration,
    /// `cpuset.cpus` — the CPUs the cgroup may run on.
    pub cpuset: CpuSet,
}

impl CpuController {
    /// Unconstrained controller on a host with `online` CPUs.
    pub fn unlimited(online: u32) -> CpuController {
        CpuController {
            shares: DEFAULT_SHARES,
            quota: None,
            period: DEFAULT_CFS_PERIOD,
            cpuset: CpuSet::first_n(online),
        }
    }

    /// Builder-style: set shares.
    pub fn with_shares(mut self, shares: u64) -> CpuController {
        assert!(shares >= 2, "Linux clamps cpu.shares to at least 2");
        self.shares = shares;
        self
    }

    /// Builder-style: set a quota equivalent to `cpus` full CPUs
    /// (`cfs_quota_us = cpus × cfs_period_us`).
    pub fn with_quota_cpus(mut self, cpus: f64) -> CpuController {
        assert!(cpus > 0.0, "quota must be positive");
        self.quota = Some(self.period.mul_f64(cpus));
        self
    }

    /// Builder-style: restrict to a cpuset.
    pub fn with_cpuset(mut self, set: CpuSet) -> CpuController {
        assert!(!set.is_empty(), "cpuset must contain at least one CPU");
        self.cpuset = set;
        self
    }

    /// `cfs_quota_us / cfs_period_us`: the CPU-capacity limit `l_i / t` of
    /// Algorithm 1, in units of CPUs. `None` when unlimited.
    pub fn quota_ratio(&self) -> Option<f64> {
        self.quota.map(|q| q.ratio(self.period))
    }

    /// Hard cap on usable CPUs from quota and cpuset combined, in CPUs.
    pub fn cpu_cap(&self, online: CpuSet) -> f64 {
        let mask = self.cpuset.intersection(online).count() as f64;
        match self.quota_ratio() {
            Some(q) => q.min(mask),
            None => mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpuset_construction_and_count() {
        let s = CpuSet::first_n(20);
        assert_eq!(s.count(), 20);
        assert!(s.contains(0) && s.contains(19) && !s.contains(20));
        let r = CpuSet::range(2, 4);
        assert_eq!(r.count(), 2);
        assert!(r.contains(2) && r.contains(3) && !r.contains(4));
    }

    #[test]
    fn cpuset_set_ops() {
        let a = CpuSet::range(0, 4);
        let b = CpuSet::range(2, 6);
        assert_eq!(a.union(b).count(), 6);
        assert_eq!(a.intersection(b).count(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn cpuset_full_width() {
        assert_eq!(CpuSet::first_n(128).count(), 128);
        assert!(CpuSet::EMPTY.is_empty());
    }

    #[test]
    fn quota_ratio_in_cpus() {
        let c = CpuController::unlimited(20).with_quota_cpus(10.0);
        assert_eq!(c.quota_ratio(), Some(10.0));
        assert_eq!(c.quota.unwrap(), SimDuration::from_micros(1_000_000));
    }

    #[test]
    fn unlimited_has_no_quota() {
        let c = CpuController::unlimited(8);
        assert_eq!(c.quota_ratio(), None);
        assert_eq!(c.shares, DEFAULT_SHARES);
        assert_eq!(c.cpuset.count(), 8);
    }

    #[test]
    fn cpu_cap_combines_quota_and_cpuset() {
        let online = CpuSet::first_n(20);
        let c = CpuController::unlimited(20)
            .with_quota_cpus(10.0)
            .with_cpuset(CpuSet::range(0, 4));
        assert_eq!(c.cpu_cap(online), 4.0);
        let c2 = CpuController::unlimited(20).with_quota_cpus(2.5);
        assert_eq!(c2.cpu_cap(online), 2.5);
    }

    #[test]
    fn cpu_cap_respects_offline_cpus() {
        // A cpuset naming CPUs beyond the online set only counts online ones.
        let online = CpuSet::first_n(4);
        let c = CpuController::unlimited(4).with_cpuset(CpuSet::range(2, 8));
        assert_eq!(c.cpu_cap(online), 2.0);
    }

    #[test]
    #[should_panic]
    fn empty_cpuset_rejected() {
        CpuController::unlimited(4).with_cpuset(CpuSet::EMPTY);
    }

    #[test]
    fn fractional_quota_less_than_one_cpu() {
        let c = CpuController::unlimited(4).with_quota_cpus(0.5);
        assert_eq!(c.quota_ratio(), Some(0.5));
        assert_eq!(c.cpu_cap(CpuSet::first_n(4)), 0.5);
    }

    impl CpuSet {
        /// Whether the set contains `cpu`.
        fn contains(self, cpu: u32) -> bool {
            cpu < 128 && self.0 & (1u128 << cpu) != 0
        }

        /// The union of the two sets.
        fn union(self, other: CpuSet) -> CpuSet {
            CpuSet(self.0 | other.0)
        }

        /// Iterate over the CPUs in the set, ascending.
        fn iter(self) -> impl Iterator<Item = u32> {
            (0..128).filter(move |c| self.contains(*c))
        }
    }
}

//! Weighted max-min (progressive filling) allocation of one scheduling
//! period of CPU time among cgroups.

use arv_cgroups::{CgroupId, CpuSet, IdMap};
use arv_sim_core::SimDuration;

/// One cgroup's CPU request for a scheduling period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupDemand {
    /// The cgroup this entry belongs to.
    pub id: CgroupId,
    /// Runnable threads in the group this period (drives loadavg and the
    /// period-length rule; also bounds consumption at one CPU per thread).
    pub runnable: u32,
    /// `cpu.shares` weight.
    pub weight: u64,
    /// Combined quota/cpuset cap in CPUs (`CpuController::cpu_cap`).
    pub cap_cpus: f64,
    /// CPU the group actually wants this period, in CPUs. CPU-bound phases
    /// set this to `runnable`; idle or I/O phases set it lower.
    pub demand_cpus: f64,
}

impl GroupDemand {
    /// A fully CPU-bound group: every runnable thread wants a whole CPU.
    pub fn cpu_bound(id: CgroupId, runnable: u32, weight: u64, cap_cpus: f64) -> GroupDemand {
        GroupDemand {
            id,
            runnable,
            weight,
            cap_cpus,
            demand_cpus: runnable as f64,
        }
    }

    fn effective_cap(&self, period: SimDuration) -> SimDuration {
        let cpus = self
            .demand_cpus
            .min(self.cap_cpus)
            .min(self.runnable as f64)
            .max(0.0);
        period.mul_f64(cpus)
    }
}

/// Result of allocating one scheduling period.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// CPU time granted (and, in the fluid model, consumed) per group.
    pub granted: IdMap<SimDuration>,
    /// Unused host CPU time this period — `pslack` in Algorithm 1.
    pub slack: SimDuration,
    /// The period that was allocated.
    pub period: SimDuration,
}

impl Allocation {
    /// CPU time granted to `id`; zero for unknown groups.
    pub fn granted_to(&self, id: CgroupId) -> SimDuration {
        self.granted.get(&id).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Granted capacity expressed in CPUs.
    pub fn granted_cpus(&self, id: CgroupId) -> f64 {
        self.granted_to(id).ratio(self.period)
    }

    /// `true` when the host had idle CPU this period (`pslack > 0`).
    pub fn has_slack(&self) -> bool {
        !self.slack.is_zero()
    }
}

/// The scheduler: online CPUs plus the per-period allocator.
#[derive(Debug, Clone)]
pub struct CfsSim {
    online: CpuSet,
}

impl CfsSim {
    /// A scheduler over the given online CPU set.
    pub fn new(online: CpuSet) -> CfsSim {
        assert!(!online.is_empty(), "host must have at least one CPU");
        CfsSim { online }
    }

    /// Host with CPUs `0..n`.
    pub fn with_cpus(n: u32) -> CfsSim {
        CfsSim::new(CpuSet::first_n(n))
    }

    /// The online CPU set.
    pub fn online(&self) -> CpuSet {
        self.online
    }

    /// Number of online CPUs.
    pub fn online_count(&self) -> u32 {
        self.online.count()
    }

    /// Allocate `period` of CPU time among `demands` by weighted max-min
    /// fairness with per-group caps.
    ///
    /// Groups whose demand/cap is below their proportional share release
    /// the difference to the others (work conservation); any CPU time no
    /// group can absorb is returned as [`Allocation::slack`].
    pub fn allocate(&self, period: SimDuration, demands: &[GroupDemand]) -> Allocation {
        assert!(!period.is_zero(), "period must be positive");
        let supply_us = self.online.count() as f64 * period.as_micros() as f64;

        let items: Vec<(f64, f64)> = demands
            .iter()
            .map(|d| {
                assert!(d.weight > 0, "cpu.shares must be positive");
                (d.weight as f64, d.effective_cap(period).as_micros() as f64)
            })
            .collect();
        let grants = weighted_max_min(supply_us, &items);

        let granted = demands
            .iter()
            .zip(&grants)
            .map(|(d, g)| (d.id, SimDuration::from_micros(g.round() as u64)))
            .collect();
        let used: f64 = grants.iter().sum();
        let slack_us = (supply_us - used).max(0.0);
        Allocation {
            granted,
            slack: SimDuration::from_micros(slack_us.round() as u64),
            period,
        }
    }
}

/// Weighted max-min fairness (progressive filling): divide `supply` among
/// items with `(weight, cap)`; every item receives `min(cap, fair share)`
/// with released capacity redistributed by weight. The steady-state fixed
/// point of CFS within one period.
pub fn weighted_max_min(supply: f64, items: &[(f64, f64)]) -> Vec<f64> {
    struct Slot {
        weight: f64,
        cap: f64,
        granted: f64,
        frozen: bool,
    }
    let mut slots: Vec<Slot> = items
        .iter()
        .map(|(weight, cap)| Slot {
            weight: *weight,
            cap: cap.max(0.0),
            granted: 0.0,
            frozen: false,
        })
        .collect();

    let mut remaining = supply.max(0.0);
    loop {
        let active_weight: f64 = slots.iter().filter(|s| !s.frozen).map(|s| s.weight).sum();
        if active_weight <= 0.0 || remaining <= 1e-9 {
            break;
        }
        let per_weight = remaining / active_weight;
        let mut froze_any = false;
        for s in slots.iter_mut().filter(|s| !s.frozen) {
            if s.cap <= s.weight * per_weight + 1e-9 {
                s.granted = s.cap;
                remaining -= s.cap;
                s.frozen = true;
                froze_any = true;
            }
        }
        if !froze_any {
            for s in slots.iter_mut().filter(|s| !s.frozen) {
                s.granted = s.weight * per_weight;
                s.frozen = true;
            }
            break;
        }
    }
    slots.into_iter().map(|s| s.granted).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_sim_core::SimDuration;

    const P: SimDuration = SimDuration::from_millis(24);

    fn id(n: u32) -> CgroupId {
        CgroupId(n)
    }

    #[test]
    fn single_group_gets_its_demand() {
        let cfs = CfsSim::with_cpus(20);
        let a = cfs.allocate(P, &[GroupDemand::cpu_bound(id(0), 4, 1024, 20.0)]);
        assert_eq!(a.granted_cpus(id(0)).round() as u32, 4);
        assert!(a.has_slack());
        assert_eq!(a.slack, P * 16);
    }

    #[test]
    fn equal_shares_split_evenly_when_saturated() {
        // Five CPU-hungry containers on 20 cores, equal shares → 4 CPUs each
        // (the paper's §2.2 GC-thread scenario).
        let cfs = CfsSim::with_cpus(20);
        let demands: Vec<GroupDemand> = (0..5)
            .map(|i| GroupDemand::cpu_bound(id(i), 20, 1024, 10.0))
            .collect();
        let a = cfs.allocate(P, &demands);
        for i in 0..5 {
            assert!((a.granted_cpus(id(i)) - 4.0).abs() < 1e-6, "container {i}");
        }
        assert!(!a.has_slack());
    }

    #[test]
    fn shares_weight_the_split() {
        let cfs = CfsSim::with_cpus(3);
        let a = cfs.allocate(
            P,
            &[
                GroupDemand::cpu_bound(id(0), 8, 2048, 3.0),
                GroupDemand::cpu_bound(id(1), 8, 1024, 3.0),
            ],
        );
        assert!((a.granted_cpus(id(0)) - 2.0).abs() < 1e-6);
        assert!((a.granted_cpus(id(1)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn quota_caps_a_group() {
        let cfs = CfsSim::with_cpus(20);
        let a = cfs.allocate(P, &[GroupDemand::cpu_bound(id(0), 20, 1024, 10.0)]);
        assert!((a.granted_cpus(id(0)) - 10.0).abs() < 1e-6);
        assert_eq!(a.slack, P * 10);
    }

    #[test]
    fn work_conservation_redistributes_idle_share() {
        // Group 0 wants only 1 CPU; group 1 absorbs the rest up to its cap.
        let cfs = CfsSim::with_cpus(4);
        let mut d0 = GroupDemand::cpu_bound(id(0), 1, 1024, 4.0);
        d0.demand_cpus = 1.0;
        let d1 = GroupDemand::cpu_bound(id(1), 8, 1024, 4.0);
        let a = cfs.allocate(P, &[d0, d1]);
        assert!((a.granted_cpus(id(0)) - 1.0).abs() < 1e-6);
        assert!((a.granted_cpus(id(1)) - 3.0).abs() < 1e-6);
        assert!(!a.has_slack());
    }

    #[test]
    fn runnable_threads_bound_consumption() {
        // 2 runnable threads can use at most 2 CPUs even with no quota.
        let cfs = CfsSim::with_cpus(8);
        let a = cfs.allocate(P, &[GroupDemand::cpu_bound(id(0), 2, 1024, 8.0)]);
        assert!((a.granted_cpus(id(0)) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_demand_is_respected() {
        let cfs = CfsSim::with_cpus(2);
        let mut d = GroupDemand::cpu_bound(id(0), 1, 1024, 2.0);
        d.demand_cpus = 0.25;
        let a = cfs.allocate(P, &[d]);
        assert!((a.granted_cpus(id(0)) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn no_demands_is_all_slack() {
        let cfs = CfsSim::with_cpus(4);
        let a = cfs.allocate(P, &[]);
        assert_eq!(a.slack, P * 4);
    }

    #[test]
    fn grants_never_exceed_supply() {
        let cfs = CfsSim::with_cpus(20);
        let demands: Vec<GroupDemand> = (0..10)
            .map(|i| GroupDemand::cpu_bound(id(i), 15, 1024 * (1 + i as u64 % 3), 10.0))
            .collect();
        let a = cfs.allocate(P, &demands);
        let total: SimDuration = a.granted.values().copied().sum();
        assert!(total.as_micros() <= P.as_micros() * 20 + 10 /* rounding */);
    }

    #[test]
    fn mixed_saturation_matches_hand_computation() {
        // 4 CPUs; A capped at 0.5 CPU, B and C unbounded with weights 1:3.
        let cfs = CfsSim::with_cpus(4);
        let a_d = GroupDemand {
            id: id(0),
            runnable: 4,
            weight: 1024,
            cap_cpus: 0.5,
            demand_cpus: 4.0,
        };
        let b_d = GroupDemand::cpu_bound(id(1), 8, 1024, 4.0);
        let c_d = GroupDemand::cpu_bound(id(2), 8, 3072, 4.0);
        let a = cfs.allocate(P, &[a_d, b_d, c_d]);
        // A takes 0.5; remaining 3.5 splits 1:3 → B 0.875, C 2.625.
        assert!((a.granted_cpus(id(0)) - 0.5).abs() < 1e-6);
        assert!((a.granted_cpus(id(1)) - 0.875).abs() < 1e-6);
        assert!((a.granted_cpus(id(2)) - 2.625).abs() < 1e-6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const P: SimDuration = SimDuration::from_millis(24);

    fn demand_strategy() -> impl Strategy<Value = GroupDemand> {
        (1u32..40, 2u64..8192, 0.0f64..20.0, 0.0f64..40.0).prop_map(
            move |(runnable, weight, cap, dem)| GroupDemand {
                id: CgroupId(0), // reassigned by caller
                runnable,
                weight,
                cap_cpus: cap,
                demand_cpus: dem,
            },
        )
    }

    proptest! {
        #[test]
        fn conservation_and_caps(
            mut ds in prop::collection::vec(demand_strategy(), 1..12),
            cpus in 1u32..32,
        ) {
            for (i, d) in ds.iter_mut().enumerate() {
                d.id = CgroupId(i as u32);
            }
            let cfs = CfsSim::with_cpus(cpus);
            let a = cfs.allocate(P, &ds);

            // 1. No group exceeds its cap or demand (within rounding).
            for d in &ds {
                let g = a.granted_cpus(d.id);
                let cap = d.demand_cpus.min(d.cap_cpus).min(d.runnable as f64);
                prop_assert!(g <= cap + 1e-3, "group {:?}: {g} > cap {cap}", d.id);
            }

            // 2. Total grant + slack equals supply (within rounding).
            let total: u64 = a.granted.values().map(|g| g.as_micros()).sum();
            let supply = P.as_micros() * cpus as u64;
            let diff = (total + a.slack.as_micros()) as i64 - supply as i64;
            prop_assert!(diff.abs() <= ds.len() as i64 + 1, "conservation violated: {diff}");

            // 3. Work conservation: slack implies every group hit its bound.
            if a.slack.as_micros() > ds.len() as u64 + 1 {
                for d in &ds {
                    let g = a.granted_cpus(d.id);
                    let cap = d.demand_cpus.min(d.cap_cpus).min(d.runnable as f64);
                    prop_assert!(g >= cap - 1e-3, "slack but group {:?} starved", d.id);
                }
            }
        }

        #[test]
        fn equal_groups_get_equal_grants(
            n in 1usize..10,
            cpus in 1u32..32,
            weight in 2u64..4096,
        ) {
            let ds: Vec<GroupDemand> = (0..n)
                .map(|i| GroupDemand::cpu_bound(CgroupId(i as u32), 16, weight, f64::INFINITY))
                .collect();
            let cfs = CfsSim::with_cpus(cpus);
            let a = cfs.allocate(P, &ds);
            let first = a.granted_cpus(CgroupId(0));
            for d in &ds {
                prop_assert!((a.granted_cpus(d.id) - first).abs() < 1e-3);
            }
        }
    }
}

//! The host memory manager: charging, limits, reclaim, swap accounting.

use arv_cgroups::{Bytes, CgroupId, IdMap, MemController};

use crate::kswapd::{KswapdState, Watermarks};

/// Host-level memory configuration.
#[derive(Debug, Clone, Copy)]
pub struct MemSimConfig {
    /// Physical memory size.
    pub total: Bytes,
    /// Swap device capacity.
    pub swap: Bytes,
    /// kswapd watermarks.
    pub watermarks: Watermarks,
    /// Background-reclaim throughput: how much memory kswapd can move to
    /// swap per second of simulated time; keeps reclaim gradual, as in
    /// the kernel.
    pub reclaim_rate_per_sec: Bytes,
}

impl MemSimConfig {
    /// A host with `total` physical memory, equal-sized swap, scaled
    /// watermarks, and a 256 MiB reclaim batch.
    pub fn with_total(total: Bytes) -> MemSimConfig {
        MemSimConfig {
            total,
            swap: total,
            watermarks: Watermarks::scaled(total),
            reclaim_rate_per_sec: Bytes::from_gib(10),
        }
    }

    /// The paper's testbed: 128 GB of memory.
    pub fn paper_testbed() -> MemSimConfig {
        MemSimConfig::with_total(Bytes::from_gib(128))
    }
}

/// Result of a charge attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeOutcome {
    /// Charge succeeded.
    Charged {
        /// Bytes (possibly zero, possibly from other containers under
        /// direct reclaim) pushed to swap to make room.
        swapped_out: Bytes,
    },
    /// Neither physical memory nor swap could absorb the charge; the
    /// container would be OOM-killed. State is unchanged.
    OomKilled,
}

impl ChargeOutcome {
    /// Whether the charge succeeded.
    pub fn is_ok(self) -> bool {
        matches!(self, ChargeOutcome::Charged { .. })
    }
}

#[derive(Debug, Clone, Copy)]
struct GroupMem {
    resident: Bytes,
    swapped: Bytes,
    hard: Bytes,
    soft: Bytes,
}

impl GroupMem {
    /// Resident bytes above the soft limit: what kswapd may take.
    fn excess(&self) -> Bytes {
        self.resident.saturating_sub(self.soft)
    }
}

/// The host memory manager.
#[derive(Debug, Clone)]
pub struct MemSim {
    cfg: MemSimConfig,
    groups: IdMap<GroupMem>,
    kswapd: KswapdState,
    /// Σ `resident` over `groups`, kept exact by every mutation so
    /// [`MemSim::free`] is O(1).
    resident_total: Bytes,
    /// Σ `swapped` over `groups` (same contract, for
    /// [`MemSim::swap_free`]).
    swapped_total: Bytes,
    /// Cumulative bytes ever moved to swap (reporting).
    swap_out_total: Bytes,
}

impl MemSim {
    /// A memory manager with no registered containers.
    pub fn new(cfg: MemSimConfig) -> MemSim {
        cfg.watermarks.validate();
        MemSim {
            cfg,
            groups: IdMap::new(),
            kswapd: KswapdState::Idle,
            resident_total: Bytes::ZERO,
            swapped_total: Bytes::ZERO,
            swap_out_total: Bytes::ZERO,
        }
    }

    /// Physical memory size.
    pub fn total(&self) -> Bytes {
        self.cfg.total
    }

    /// The kswapd watermarks.
    pub fn watermarks(&self) -> &Watermarks {
        &self.cfg.watermarks
    }

    /// System-wide free physical memory (`cfree` in Algorithm 2).
    pub fn free(&self) -> Bytes {
        self.cfg.total.saturating_sub(self.resident_total)
    }

    /// Free space left on the swap device.
    pub fn swap_free(&self) -> Bytes {
        self.cfg.swap.saturating_sub(self.swapped_total)
    }

    /// Whether kswapd is actively reclaiming.
    pub fn is_reclaiming(&self) -> bool {
        self.kswapd.is_reclaiming()
    }

    /// Cumulative bytes ever moved to swap.
    pub fn swap_out_total(&self) -> Bytes {
        self.swap_out_total
    }

    /// Register a container's memory cgroup. Limits default to host memory
    /// where unset (soft falls back to hard, then host).
    pub fn register(&mut self, id: CgroupId, ctl: MemController) {
        assert!(ctl.is_consistent(), "soft limit must not exceed hard limit");
        let hard = ctl.hard_limit_or(self.cfg.total);
        let soft = ctl.soft_limit_or(self.cfg.total);
        let prev = self.groups.insert(
            id,
            GroupMem {
                resident: Bytes::ZERO,
                swapped: Bytes::ZERO,
                hard,
                soft,
            },
        );
        assert!(prev.is_none(), "cgroup {id:?} already registered");
    }

    /// Change limits of a live container (e.g. `docker update`).
    pub fn set_limits(&mut self, id: CgroupId, ctl: MemController) {
        assert!(ctl.is_consistent());
        let hard = ctl.hard_limit_or(self.cfg.total);
        let soft = ctl.soft_limit_or(self.cfg.total);
        let g = self.groups.get_mut(&id).expect("unknown cgroup");
        g.hard = hard;
        g.soft = soft;
        // Newly violated hard limit: push the excess to swap immediately.
        if g.resident > g.hard {
            let excess = g.resident - g.hard;
            g.resident = g.hard;
            g.swapped += excess;
            self.resident_total -= excess;
            self.swapped_total += excess;
            self.swap_out_total += excess;
        }
    }

    /// Remove a container, releasing all its memory and swap.
    pub fn unregister(&mut self, id: CgroupId) {
        if let Some(g) = self.groups.remove(&id) {
            self.resident_total -= g.resident;
            self.swapped_total -= g.swapped;
        }
    }

    /// Resident memory charged to the container
    /// (`memory.usage_in_bytes` — `cmem` in Algorithm 2).
    pub fn usage(&self, id: CgroupId) -> Bytes {
        self.groups.get(&id).map_or(Bytes::ZERO, |g| g.resident)
    }

    /// Every container's resident memory, in id order (the update timer
    /// walks this beside its namespaces instead of looking each one up).
    pub fn usages(&self) -> impl Iterator<Item = (CgroupId, Bytes)> + '_ {
        self.groups.iter().map(|(id, g)| (*id, g.resident))
    }

    /// Bytes of the container currently on swap.
    pub fn swapped(&self, id: CgroupId) -> Bytes {
        self.groups.get(&id).map_or(Bytes::ZERO, |g| g.swapped)
    }

    /// The container's resolved hard limit.
    pub fn hard_limit(&self, id: CgroupId) -> Option<Bytes> {
        self.groups.get(&id).map(|g| g.hard)
    }

    /// Charge `amount` bytes to `id`.
    ///
    /// Enforcement order mirrors the kernel: the per-cgroup hard limit
    /// first (overflow of this container goes to its own swap), then the
    /// physical-memory constraint (direct reclaim swaps out other
    /// containers' pages, over-soft-limit victims first).
    pub fn charge(&mut self, id: CgroupId, amount: Bytes) -> ChargeOutcome {
        if amount.is_zero() {
            return ChargeOutcome::Charged {
                swapped_out: Bytes::ZERO,
            };
        }
        let g = *self.groups.get(&id).expect("unknown cgroup");

        // Split the charge into what may stay resident and what must swap.
        let resident_room = g.hard.saturating_sub(g.resident);
        let to_resident = amount.min(resident_room);
        let to_swap_self = amount - to_resident;

        // Physical constraint for the resident part.
        let free = self.free();
        let reclaim_needed = to_resident.saturating_sub(free);
        if to_swap_self + reclaim_needed > self.swap_free() {
            return ChargeOutcome::OomKilled;
        }
        let mut swapped_out = Bytes::ZERO;
        if !reclaim_needed.is_zero() {
            let done = self.direct_reclaim(reclaim_needed, Some(id));
            if done < reclaim_needed {
                return ChargeOutcome::OomKilled;
            }
            swapped_out += done;
        }

        let g = self.groups.get_mut(&id).expect("unknown cgroup");
        g.resident += to_resident;
        g.swapped += to_swap_self;
        self.resident_total += to_resident;
        self.swapped_total += to_swap_self;
        swapped_out += to_swap_self;
        self.swap_out_total += to_swap_self;
        ChargeOutcome::Charged { swapped_out }
    }

    /// Release `amount` bytes from `id`. Swapped pages are released first
    /// (they are the cold pages a shrinking heap returns), then resident
    /// ones. Releasing more than the footprint is clamped.
    pub fn uncharge(&mut self, id: CgroupId, amount: Bytes) {
        let g = self.groups.get_mut(&id).expect("unknown cgroup");
        let from_swap = amount.min(g.swapped);
        g.swapped -= from_swap;
        let from_resident = (amount - from_swap).min(g.resident);
        g.resident -= from_resident;
        self.swapped_total -= from_swap;
        self.resident_total -= from_resident;
    }

    /// One kswapd step covering `dt` of simulated time: update the state
    /// machine and, when reclaiming, move up to `reclaim_rate × dt` bytes
    /// from over-soft-limit containers to swap ("containers whose memory
    /// usage exceeds their soft limits gradually reclaim memory", §2.1).
    pub fn kswapd_step(&mut self, dt: arv_sim_core::SimDuration) {
        self.kswapd = self.kswapd.step(self.free(), &self.cfg.watermarks);
        if !self.kswapd.is_reclaiming() {
            return;
        }
        let budget = self.cfg.reclaim_rate_per_sec.mul_f64(dt.as_secs_f64());
        let need = self
            .cfg
            .watermarks
            .high
            .saturating_sub(self.free())
            .min(budget);
        if !need.is_zero() {
            self.soft_limit_reclaim(need);
        }
        // Re-evaluate: reclaim may have pushed free memory past `high`.
        self.kswapd = self.kswapd.step(self.free(), &self.cfg.watermarks);
    }

    /// Reclaim up to `target` bytes from containers above their soft
    /// limit, proportionally to each one's excess (LRU scanning pressures
    /// every offending cgroup, not one victim at a time). Returns the
    /// amount actually reclaimed. Two passes over the groups in place,
    /// Σ excess then take: no victim list, no lookups.
    fn soft_limit_reclaim(&mut self, target: Bytes) -> Bytes {
        let total_excess: Bytes = self.groups.values().map(GroupMem::excess).sum();
        if total_excess.is_zero() {
            return Bytes::ZERO;
        }
        let goal = target.min(total_excess).min(self.swap_free());

        let mut reclaimed = Bytes::ZERO;
        for g in self.groups.values_mut() {
            let excess = g.excess();
            let take = goal.mul_f64(excess.ratio(total_excess)).min(excess);
            g.resident -= take;
            g.swapped += take;
            reclaimed += take;
        }
        self.note_swapped_out(reclaimed);
        reclaimed
    }

    /// Direct reclaim: free `target` bytes of physical memory immediately,
    /// taking from over-soft-limit containers first and then
    /// indiscriminately from everyone (§3.1: below `min_watermark`, kswapd
    /// "indiscriminately frees memory from any containers"). `exclude`
    /// protects the currently charging container from self-eviction of the
    /// pages it is about to use.
    fn direct_reclaim(&mut self, target: Bytes, exclude: Option<CgroupId>) -> Bytes {
        let mut reclaimed = self.soft_limit_reclaim(target);
        if reclaimed >= target {
            return reclaimed;
        }
        // Indiscriminate pass: take proportionally to resident size, in
        // two passes in place like the soft one. The first also notes
        // the largest victim (the last of equals) for the remainder.
        let victim = |id: &CgroupId, g: &GroupMem| Some(*id) != exclude && !g.resident.is_zero();
        let (mut total_resident, mut most, mut largest) = (Bytes::ZERO, Bytes::ZERO, None);
        for (id, g) in self.groups.iter().filter(|(id, g)| victim(id, g)) {
            total_resident += g.resident;
            if g.resident >= most {
                (most, largest) = (g.resident, Some(*id));
            }
        }
        let Some(largest) = largest else {
            return reclaimed;
        };
        let goal = (target - reclaimed)
            .min(total_resident)
            .min(self.swap_free());
        let mut swap_used = Bytes::ZERO;
        for (_, g) in self.groups.iter_mut().filter(|(id, g)| victim(id, g)) {
            let take = goal
                .mul_f64(g.resident.ratio(total_resident))
                .min(g.resident);
            g.resident -= take;
            g.swapped += take;
            reclaimed += take;
            swap_used += take;
        }
        // Proportional rounding may leave a few bytes short of `goal`;
        // take the remainder from the largest victim.
        if reclaimed < target {
            // The running total does not yet hold this pass's moves.
            let swap_left = self.swap_free().saturating_sub(swap_used);
            let g = self.groups.get_mut(&largest).expect("victim exists");
            let take = (target - reclaimed).min(g.resident).min(swap_left);
            g.resident -= take;
            g.swapped += take;
            reclaimed += take;
            swap_used += take;
        }
        self.note_swapped_out(swap_used);
        reclaimed
    }

    /// Fold a reclaim pass's resident→swap moves into the running totals.
    fn note_swapped_out(&mut self, moved: Bytes) {
        self.resident_total -= moved;
        self.swapped_total += moved;
        self.swap_out_total += moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(n: u32) -> CgroupId {
        CgroupId(n)
    }

    fn small_host() -> MemSim {
        // 1 GiB host with tight watermarks for fast tests.
        let mut cfg = MemSimConfig::with_total(Bytes::from_gib(1));
        cfg.watermarks = Watermarks {
            min: Bytes::from_mib(16),
            low: Bytes::from_mib(32),
            high: Bytes::from_mib(64),
        };
        MemSim::new(cfg)
    }

    #[test]
    fn charge_and_uncharge_roundtrip() {
        let mut m = small_host();
        m.register(gid(0), MemController::unlimited());
        assert!(m.charge(gid(0), Bytes::from_mib(100)).is_ok());
        assert_eq!(m.usage(gid(0)), Bytes::from_mib(100));
        assert_eq!(m.free(), Bytes::from_gib(1) - Bytes::from_mib(100));
        m.uncharge(gid(0), Bytes::from_mib(40));
        assert_eq!(m.usage(gid(0)), Bytes::from_mib(60));
    }

    #[test]
    fn hard_limit_overflow_goes_to_own_swap() {
        let mut m = small_host();
        m.register(
            gid(0),
            MemController::unlimited().with_hard_limit(Bytes::from_mib(100)),
        );
        let out = m.charge(gid(0), Bytes::from_mib(150));
        assert_eq!(
            out,
            ChargeOutcome::Charged {
                swapped_out: Bytes::from_mib(50)
            }
        );
        assert_eq!(m.usage(gid(0)), Bytes::from_mib(100));
        assert_eq!(m.swapped(gid(0)), Bytes::from_mib(50));
        assert_eq!(m.footprint(gid(0)), Bytes::from_mib(150));
        assert!((m.swapped_fraction(gid(0)) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn oom_when_swap_exhausted() {
        let mut cfg = MemSimConfig::with_total(Bytes::from_mib(512));
        cfg.swap = Bytes::from_mib(64);
        cfg.watermarks = Watermarks {
            min: Bytes::ZERO,
            low: Bytes::ZERO,
            high: Bytes::ZERO,
        };
        let mut m = MemSim::new(cfg);
        m.register(
            gid(0),
            MemController::unlimited().with_hard_limit(Bytes::from_mib(128)),
        );
        // 128 resident + 64 swap is the most this group can ever hold.
        assert!(m.charge(gid(0), Bytes::from_mib(192)).is_ok());
        assert_eq!(
            m.charge(gid(0), Bytes::from_mib(1)),
            ChargeOutcome::OomKilled
        );
        // State unchanged by the failed charge.
        assert_eq!(m.footprint(gid(0)), Bytes::from_mib(192));
    }

    #[test]
    fn kswapd_wakes_and_reclaims_over_soft_groups() {
        let mut m = small_host();
        m.register(
            gid(0),
            MemController::unlimited().with_soft_limit(Bytes::from_mib(200)),
        );
        m.register(gid(1), MemController::unlimited());
        // Group 0 well over its soft limit; group 1 fills the rest so free
        // drops below `low` (32 MiB): 1024 - 600 - 400 = 24 MiB free.
        assert!(m.charge(gid(0), Bytes::from_mib(600)).is_ok());
        assert!(m.charge(gid(1), Bytes::from_mib(400)).is_ok());
        assert!(m.free() < m.watermarks().low);

        m.kswapd_step(arv_sim_core::SimDuration::from_millis(24));
        assert!(m.is_reclaiming() || m.free() >= m.watermarks().high);
        // Reclaim must have taken pages from group 0 (the over-soft one).
        assert!(m.swapped(gid(0)) > Bytes::ZERO);
        assert_eq!(m.swapped(gid(1)), Bytes::ZERO);
        // Run to completion: free recovers to high and kswapd sleeps.
        for _ in 0..64 {
            m.kswapd_step(arv_sim_core::SimDuration::from_millis(24));
        }
        assert!(m.free() >= m.watermarks().high);
        assert!(!m.is_reclaiming());
    }

    #[test]
    fn kswapd_idle_when_memory_plentiful() {
        let mut m = small_host();
        m.register(gid(0), MemController::unlimited());
        m.charge(gid(0), Bytes::from_mib(100));
        m.kswapd_step(arv_sim_core::SimDuration::from_millis(24));
        assert!(!m.is_reclaiming());
        assert_eq!(m.swapped(gid(0)), Bytes::ZERO);
    }

    #[test]
    fn direct_reclaim_makes_room_for_new_charge() {
        let mut m = small_host();
        m.register(
            gid(0),
            MemController::unlimited().with_soft_limit(Bytes::from_mib(100)),
        );
        m.register(gid(1), MemController::unlimited());
        assert!(m.charge(gid(0), Bytes::from_mib(900)).is_ok());
        // Group 1 wants 300 MiB; only ~124 MiB free → group 0 (over soft)
        // gets swapped out to make room.
        let out = m.charge(gid(1), Bytes::from_mib(300));
        assert!(out.is_ok());
        assert_eq!(m.usage(gid(1)), Bytes::from_mib(300));
        assert!(m.swapped(gid(0)) >= Bytes::from_mib(176));
        // Physical memory is never oversubscribed.
        assert!(m.free() <= m.total());
    }

    #[test]
    fn uncharge_releases_swap_first() {
        let mut m = small_host();
        m.register(
            gid(0),
            MemController::unlimited().with_hard_limit(Bytes::from_mib(100)),
        );
        m.charge(gid(0), Bytes::from_mib(150));
        m.uncharge(gid(0), Bytes::from_mib(60));
        assert_eq!(m.swapped(gid(0)), Bytes::ZERO);
        assert_eq!(m.usage(gid(0)), Bytes::from_mib(90));
    }

    #[test]
    fn set_limits_enforces_new_hard_limit() {
        let mut m = small_host();
        m.register(gid(0), MemController::unlimited());
        m.charge(gid(0), Bytes::from_mib(200));
        m.set_limits(
            gid(0),
            MemController::unlimited().with_hard_limit(Bytes::from_mib(120)),
        );
        assert_eq!(m.usage(gid(0)), Bytes::from_mib(120));
        assert_eq!(m.swapped(gid(0)), Bytes::from_mib(80));
    }

    #[test]
    fn unregister_releases_everything() {
        let mut m = small_host();
        m.register(gid(0), MemController::unlimited());
        m.charge(gid(0), Bytes::from_mib(500));
        m.unregister(gid(0));
        assert_eq!(m.free(), m.total());
        assert_eq!(m.usage(gid(0)), Bytes::ZERO);
    }

    #[test]
    fn zero_charge_is_noop() {
        let mut m = small_host();
        m.register(gid(0), MemController::unlimited());
        let out = m.charge(gid(0), Bytes::ZERO);
        assert_eq!(
            out,
            ChargeOutcome::Charged {
                swapped_out: Bytes::ZERO
            }
        );
    }

    #[test]
    #[should_panic]
    fn double_register_panics() {
        let mut m = small_host();
        m.register(gid(0), MemController::unlimited());
        m.register(gid(0), MemController::unlimited());
    }

    #[test]
    fn swapped_fraction_of_unknown_group_is_zero() {
        let m = small_host();
        assert_eq!(m.swapped_fraction(gid(9)), 0.0);
    }

    mod reference_props {
        use super::*;
        use arv_sim_core::SimDuration;
        use proptest::prelude::*;

        // The charge and reclaim paths as they were when both reclaim
        // passes collected a victim list and looked each victim up: the
        // reference the in-place passes must match byte for byte.

        fn charge(m: &mut MemSim, id: CgroupId, amount: Bytes) -> ChargeOutcome {
            if amount.is_zero() {
                return ChargeOutcome::Charged {
                    swapped_out: Bytes::ZERO,
                };
            }
            let g = *m.groups.get(&id).expect("unknown cgroup");
            let resident_room = g.hard.saturating_sub(g.resident);
            let to_resident = amount.min(resident_room);
            let to_swap_self = amount - to_resident;
            let free = m.free();
            let reclaim_needed = to_resident.saturating_sub(free);
            if to_swap_self + reclaim_needed > m.swap_free() {
                return ChargeOutcome::OomKilled;
            }
            let mut swapped_out = Bytes::ZERO;
            if !reclaim_needed.is_zero() {
                let done = direct_reclaim(m, reclaim_needed, Some(id));
                if done < reclaim_needed {
                    return ChargeOutcome::OomKilled;
                }
                swapped_out += done;
            }
            let g = m.groups.get_mut(&id).expect("unknown cgroup");
            g.resident += to_resident;
            g.swapped += to_swap_self;
            m.resident_total += to_resident;
            m.swapped_total += to_swap_self;
            swapped_out += to_swap_self;
            m.swap_out_total += to_swap_self;
            ChargeOutcome::Charged { swapped_out }
        }

        fn kswapd_step(m: &mut MemSim, dt: SimDuration) {
            m.kswapd = m.kswapd.step(m.free(), &m.cfg.watermarks);
            if !m.kswapd.is_reclaiming() {
                return;
            }
            let budget = m.cfg.reclaim_rate_per_sec.mul_f64(dt.as_secs_f64());
            let need = m.cfg.watermarks.high.saturating_sub(m.free()).min(budget);
            if !need.is_zero() {
                soft_limit_reclaim(m, need);
            }
            m.kswapd = m.kswapd.step(m.free(), &m.cfg.watermarks);
        }

        fn soft_limit_reclaim(m: &mut MemSim, target: Bytes) -> Bytes {
            let victims: Vec<(CgroupId, Bytes)> = m
                .groups
                .iter()
                .filter_map(|(id, g)| {
                    let excess = g.resident.saturating_sub(g.soft);
                    (!excess.is_zero()).then_some((*id, excess))
                })
                .collect();
            let total_excess: Bytes = victims.iter().map(|(_, e)| *e).sum();
            if total_excess.is_zero() {
                return Bytes::ZERO;
            }
            let goal = target.min(total_excess).min(m.swap_free());
            let mut reclaimed = Bytes::ZERO;
            for (id, excess) in victims {
                let take = goal.mul_f64(excess.ratio(total_excess)).min(excess);
                let g = m.groups.get_mut(&id).expect("victim exists");
                g.resident -= take;
                g.swapped += take;
                reclaimed += take;
            }
            m.note_swapped_out(reclaimed);
            reclaimed
        }

        fn direct_reclaim(m: &mut MemSim, target: Bytes, exclude: Option<CgroupId>) -> Bytes {
            let mut reclaimed = soft_limit_reclaim(m, target);
            if reclaimed >= target {
                return reclaimed;
            }
            let victims: Vec<(CgroupId, Bytes)> = m
                .groups
                .iter()
                .filter(|(id, g)| Some(**id) != exclude && !g.resident.is_zero())
                .map(|(id, g)| (*id, g.resident))
                .collect();
            let total_resident: Bytes = victims.iter().map(|(_, r)| *r).sum();
            if total_resident.is_zero() {
                return reclaimed;
            }
            let goal = (target - reclaimed).min(total_resident).min(m.swap_free());
            let mut swap_used = Bytes::ZERO;
            for (id, resident) in &victims {
                let take = goal.mul_f64(resident.ratio(total_resident)).min(*resident);
                let g = m.groups.get_mut(id).expect("victim exists");
                g.resident -= take;
                g.swapped += take;
                reclaimed += take;
                swap_used += take;
            }
            if reclaimed < target && !victims.is_empty() {
                let (big, _) = victims
                    .iter()
                    .max_by_key(|(_, r)| r.as_u64())
                    .expect("non-empty");
                let swap_left = m.swap_free().saturating_sub(swap_used);
                let g = m.groups.get_mut(big).expect("victim exists");
                let take = (target - reclaimed).min(g.resident).min(swap_left);
                g.resident -= take;
                g.swapped += take;
                reclaimed += take;
                swap_used += take;
            }
            m.note_swapped_out(swap_used);
            reclaimed
        }

        /// An odd unit, so proportional shares round.
        const UNIT: u64 = 1_048_583;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Random groups (resident, soft and hard sizes in a few
            /// units, so the largest resident is often tied), a swap
            /// device a few units from full, charges that overrun free
            /// memory (direct reclaim, the charging group excluded),
            /// releases and kswapd steps, in any order: every group's
            /// `(resident, swapped)`, the running totals and every
            /// outcome equal the victim-list reference's after every
            /// operation.
            #[test]
            fn in_place_reclaim_matches_the_victim_list(
                limits in prop::collection::vec((1u64..4, 0u64..3), 2..9),
                total_units in 6u64..16,
                swap_units in 2u64..24,
                ops in prop::collection::vec((0u8..4, 0u32..8, 0u64..8, 0u64..4), 1..80),
            ) {
                let mut cfg = MemSimConfig::with_total(Bytes(total_units * UNIT));
                cfg.swap = Bytes(swap_units * UNIT);
                cfg.watermarks = Watermarks {
                    min: Bytes(UNIT),
                    low: Bytes(2 * UNIT),
                    high: Bytes(4 * UNIT),
                };
                cfg.reclaim_rate_per_sec = Bytes(100 * UNIT);
                let mut m = MemSim::new(cfg);
                let groups = limits.len() as u32;
                for (i, (soft, over)) in limits.into_iter().enumerate() {
                    m.register(
                        CgroupId(i as u32),
                        MemController::unlimited()
                            .with_hard_limit(Bytes((soft + over) * UNIT))
                            .with_soft_limit(Bytes(soft * UNIT)),
                    );
                }
                let mut reference = m.clone();
                for (kind, id, units, extra) in ops {
                    let id = CgroupId(id % groups);
                    let amount = Bytes(units * UNIT + extra);
                    match kind {
                        0 | 1 => prop_assert_eq!(m.charge(id, amount), charge(&mut reference, id, amount)),
                        2 => {
                            m.uncharge(id, amount);
                            reference.uncharge(id, amount);
                        }
                        _ => {
                            let dt = SimDuration::from_millis(4 * (units + 1));
                            m.kswapd_step(dt);
                            kswapd_step(&mut reference, dt);
                        }
                    }
                    let state = |m: &MemSim| {
                        let groups: Vec<_> = m.groups.iter().map(|(id, g)| (*id, g.resident, g.swapped)).collect();
                        (groups, m.resident_total, m.swapped_total, m.swap_out_total, m.kswapd)
                    };
                    prop_assert_eq!(state(&m), state(&reference));
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Physical memory is never oversubscribed and accounting balances
        /// under arbitrary charge/uncharge/kswapd sequences.
        #[test]
        fn physical_memory_never_oversubscribed(
            ops in prop::collection::vec((0u32..4, 0u32..3, 0u64..400), 1..64)
        ) {
            let mut cfg = MemSimConfig::with_total(Bytes::from_mib(1024));
            cfg.swap = Bytes::from_mib(2048);
            let mut m = MemSim::new(cfg);
            for i in 0..4 {
                m.register(
                    CgroupId(i),
                    MemController::unlimited()
                        .with_hard_limit(Bytes::from_mib(400))
                        .with_soft_limit(Bytes::from_mib(200)),
                );
            }
            for (kind, id, mib) in ops {
                let id = CgroupId(id);
                match kind {
                    0 => { let _ = m.charge(id, Bytes::from_mib(mib)); }
                    1 => m.uncharge(id, Bytes::from_mib(mib)),
                    2 => m.kswapd_step(arv_sim_core::SimDuration::from_millis(24)),
                    _ => {}
                }
                let used: u64 = (0..4).map(|i| m.usage(CgroupId(i)).as_u64()).sum();
                prop_assert!(used <= m.total().as_u64(), "oversubscribed");
                prop_assert_eq!(m.free().as_u64(), m.total().as_u64() - used);
                for i in 0..4 {
                    prop_assert!(
                        m.usage(CgroupId(i)) <= Bytes::from_mib(400),
                        "hard limit violated"
                    );
                }
            }
        }

        /// The running totals behind `free()`/`swap_free()` equal the
        /// recomputed sums after every operation, whatever the sequence
        /// of registrations, charges (including refused ones),
        /// over-releases, limit cuts, removals and reclaim steps.
        #[test]
        fn running_totals_equal_recomputed_sums(
            ops in prop::collection::vec((0u32..6, 0u32..4, 0u64..700), 1..96)
        ) {
            let mut cfg = MemSimConfig::with_total(Bytes::from_mib(1024));
            cfg.swap = Bytes::from_mib(512);
            let mut m = MemSim::new(cfg);
            let sums = |m: &MemSim| {
                let resident: Bytes = m.groups.values().map(|g| g.resident).sum();
                let swapped: Bytes = m.groups.values().map(|g| g.swapped).sum();
                (resident, swapped)
            };
            for (kind, id, mib) in ops {
                let id = CgroupId(id);
                let amount = Bytes::from_mib(mib);
                let live = m.groups.contains_key(&id);
                match kind {
                    0 if !live => m.register(
                        id,
                        MemController::unlimited()
                            .with_hard_limit(Bytes::from_mib(600))
                            .with_soft_limit(Bytes::from_mib(150)),
                    ),
                    1 if live => {
                        let before = (m.resident_total, m.swapped_total);
                        if m.charge(id, amount) == ChargeOutcome::OomKilled {
                            prop_assert_eq!(
                                (m.resident_total, m.swapped_total),
                                before,
                                "a refused charge moved the totals"
                            );
                        }
                    }
                    // Over-release is clamped to the footprint.
                    2 if live => m.uncharge(id, amount),
                    // A cut below the resident size pushes the excess to swap.
                    3 if live => m.set_limits(
                        id,
                        MemController::unlimited()
                            .with_hard_limit(Bytes::from_mib(mib.max(64)))
                            .with_soft_limit(Bytes::from_mib(32)),
                    ),
                    4 => m.unregister(id),
                    5 => m.kswapd_step(arv_sim_core::SimDuration::from_millis(24)),
                    _ => {}
                }
                let (resident, swapped) = sums(&m);
                prop_assert_eq!((m.resident_total, m.swapped_total), (resident, swapped));
                prop_assert_eq!(m.free(), m.total().saturating_sub(resident));
                prop_assert_eq!(m.swap_free(), cfg.swap.saturating_sub(swapped));
            }
        }
    }

    impl MemSim {
        /// Resident + swapped — everything the container has allocated.
        pub(crate) fn footprint(&self, id: CgroupId) -> Bytes {
            self.groups
                .get(&id)
                .map_or(Bytes::ZERO, |g| g.resident + g.swapped)
        }

        /// Fraction of the container's footprint that lives on swap, in
        /// `[0, 1]`. Runtime models turn this into mutator slowdown.
        pub(crate) fn swapped_fraction(&self, id: CgroupId) -> f64 {
            self.groups
                .get(&id)
                .map_or(0.0, |g| g.swapped.ratio(g.resident + g.swapped))
        }
    }
}

//! The per-container `sys_namespace`.
//!
//! One `sys_namespace` exists per container and holds the two dynamic
//! views — effective CPU and effective memory — together with the
//! ownership bookkeeping the paper describes in §3.2: the namespace is
//! created for the container's original init process, and when that
//! process `exec`s into the user command and dies, ownership is
//! transferred to the new init so the kernel-side updater can keep
//! reaching the namespace for the container's whole lifetime.

use arv_cgroups::{Bytes, CgroupId};
use arv_telemetry::{CpuDecision, MemDecision};

use crate::effective_cpu::{CpuBounds, CpuSample, EffectiveCpu, EffectiveCpuConfig};
use crate::effective_mem::{EffectiveMemory, MemSample};

/// A process id inside the simulated host (only used for the namespace
/// ownership-transfer semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pid(pub u32);

/// Per-container view of effective resources.
#[derive(Debug, Clone)]
pub struct SysNamespace {
    id: CgroupId,
    owner: Pid,
    e_cpu: EffectiveCpu,
    e_mem: EffectiveMemory,
}

impl SysNamespace {
    /// An empty report for figure `id`.
    pub fn new(
        id: CgroupId,
        owner: Pid,
        cpu_bounds: CpuBounds,
        cpu_cfg: EffectiveCpuConfig,
        e_mem: EffectiveMemory,
    ) -> SysNamespace {
        SysNamespace {
            id,
            owner,
            e_cpu: EffectiveCpu::new(cpu_bounds, cpu_cfg),
            e_mem,
        }
    }

    /// The container (cgroup) this belongs to.
    pub fn id(&self) -> CgroupId {
        self.id
    }

    /// Current owner process (the container's init).
    pub fn owner(&self) -> Pid {
        self.owner
    }

    /// §3.2 ownership transfer: when the original init `exec`s and its
    /// task state goes to `TASK_DEAD`, the namespace is re-owned by the
    /// new init so it stays reachable from outside the container.
    pub fn transfer_ownership(&mut self, new_owner: Pid) {
        self.owner = new_owner;
    }

    /// Current effective CPU count.
    pub fn effective_cpu(&self) -> u32 {
        self.e_cpu.value()
    }

    /// Current effective memory.
    pub fn effective_memory(&self) -> Bytes {
        self.e_mem.value()
    }

    /// Memory still unused inside the view: effective memory minus the
    /// last observed usage, clamped at zero (usage can overshoot the view
    /// transiently when the view just shrank). Before the first update
    /// period fires the whole view counts as available.
    pub fn available_memory(&self) -> Bytes {
        let used = self.e_mem.last_usage().unwrap_or(Bytes(0));
        self.e_mem.value().saturating_sub(used)
    }

    /// The value triple `(effective CPU, effective memory, available
    /// memory)` — everything a consumer of this view can observe. A view
    /// is news downstream iff this moved.
    pub fn views(&self) -> (u32, Bytes, Bytes) {
        (
            self.effective_cpu(),
            self.effective_memory(),
            self.available_memory(),
        )
    }

    /// The static CPU bounds.
    pub fn cpu_bounds(&self) -> CpuBounds {
        self.e_cpu.bounds()
    }

    /// The soft memory limit (Algorithm 2's safe-reset anchor).
    pub fn soft_limit(&self) -> Bytes {
        self.e_mem.soft_limit()
    }

    /// The hard memory limit.
    pub fn hard_limit(&self) -> Bytes {
        self.e_mem.hard_limit()
    }

    /// Last observed memory usage (zero before the first update).
    pub fn last_usage(&self) -> Bytes {
        self.e_mem.last_usage().unwrap_or(Bytes(0))
    }

    /// Static-bound refresh from `ns_monitor` (cgroup events).
    pub fn set_cpu_bounds(&mut self, bounds: CpuBounds) {
        self.e_cpu.set_bounds(bounds);
    }

    /// Limit refresh from `ns_monitor` (cgroup events).
    pub fn set_mem_limits(&mut self, soft: Bytes, hard: Bytes) {
        self.e_mem.set_limits(soft, hard);
    }

    /// Resume both views at journaled values (warm restart), clamped to
    /// the current static bounds and limits. Returns the reconciled
    /// `(effective_cpu, effective_memory)` actually installed.
    pub fn restore_views(&mut self, e_cpu: u32, e_mem: Bytes) -> (u32, Bytes) {
        (
            self.e_cpu.restore_value(e_cpu),
            self.e_mem.restore_value(e_mem),
        )
    }

    /// Periodic update-timer firing of the CPU view (Algorithm 1):
    /// returns what moved and why, `None` when the view was left
    /// unchanged.
    pub fn update_cpu_explained(&mut self, cpu: CpuSample) -> Option<CpuDecision> {
        self.e_cpu.update_explained(cpu)
    }

    /// Periodic update-timer firing of the memory view (Algorithm 2),
    /// with decision provenance as for the CPU view.
    pub fn update_mem_explained(&mut self, mem: MemSample) -> Option<MemDecision> {
        self.e_mem.update_explained(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effective_mem::EffectiveMemoryConfig;
    use arv_sim_core::SimDuration;

    const T: SimDuration = SimDuration::from_millis(24);

    fn ns() -> SysNamespace {
        SysNamespace::new(
            CgroupId(1),
            Pid(100),
            CpuBounds { lower: 2, upper: 8 },
            EffectiveCpuConfig::default(),
            EffectiveMemory::new(
                Bytes::from_mib(500),
                Bytes::from_gib(1),
                Bytes::from_mib(64),
                Bytes::from_mib(128),
                EffectiveMemoryConfig::default(),
            ),
        )
    }

    #[test]
    fn initial_views_are_lower_bound_and_soft_limit() {
        let n = ns();
        assert_eq!(n.effective_cpu(), 2);
        assert_eq!(n.effective_memory(), Bytes::from_mib(500));
    }

    #[test]
    fn ownership_transfer() {
        let mut n = ns();
        assert_eq!(n.owner(), Pid(100));
        n.transfer_ownership(Pid(200));
        assert_eq!(n.owner(), Pid(200));
        assert_eq!(n.id(), CgroupId(1));
    }

    #[test]
    fn update_moves_both_views() {
        let mut n = ns();
        n.update(
            CpuSample {
                usage: T * 2,
                period: T,
                slack: T,
            },
            MemSample {
                free: Bytes::from_gib(64),
                usage: Bytes::from_mib(480),
                reclaiming: false,
            },
        );
        assert_eq!(n.effective_cpu(), 3);
        assert!(n.effective_memory() > Bytes::from_mib(500));
    }

    #[test]
    fn cpu_only_update_leaves_memory_untouched() {
        let mut n = ns();
        n.update_cpu(CpuSample {
            usage: T * 2,
            period: T,
            slack: T,
        });
        assert_eq!(n.effective_cpu(), 3);
        assert_eq!(n.effective_memory(), Bytes::from_mib(500));
    }

    #[test]
    fn bound_and_limit_refresh() {
        let mut n = ns();
        n.set_cpu_bounds(CpuBounds { lower: 4, upper: 6 });
        assert_eq!(n.effective_cpu(), 4);
        n.set_mem_limits(Bytes::from_mib(200), Bytes::from_mib(400));
        assert_eq!(n.effective_memory(), Bytes::from_mib(200));
    }

    impl SysNamespace {
        /// Periodic update-timer firing.
        fn update(&mut self, cpu: CpuSample, mem: MemSample) {
            self.e_cpu.update(cpu);
            self.e_mem.update(mem);
        }

        /// Update only the CPU view (used when memory sampling is decimated,
        /// since "the change of memory usage is less frequent than that of CPU
        /// allocation", §3.2).
        fn update_cpu(&mut self, cpu: CpuSample) {
            self.e_cpu.update(cpu);
        }

        /// Update only the memory view.
        pub(crate) fn update_mem(&mut self, mem: MemSample) {
            self.e_mem.update(mem);
        }

        /// [`update`](SysNamespace::update) with decision provenance:
        /// returns what moved (and why) for each resource, `None` per
        /// resource when its view was left unchanged.
        pub(crate) fn update_explained(
            &mut self,
            cpu: CpuSample,
            mem: MemSample,
        ) -> (Option<CpuDecision>, Option<MemDecision>) {
            (
                self.e_cpu.update_explained(cpu),
                self.e_mem.update_explained(mem),
            )
        }
    }
}

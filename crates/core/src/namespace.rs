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
use arv_telemetry::{CpuDecision, DecisionCause, MemDecision, Tracer};

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
    /// The namespace of container `id`, owned by `owner`: its CPU view
    /// starts at the lower bound of `cpu_bounds` and adapts with
    /// `cpu_cfg`, and its memory view is `e_mem`.
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

    /// What a [`NsCell`](crate::live::NsCell) mirroring this namespace is
    /// registered with: Algorithm 1's bounds and tunables, and
    /// Algorithm 2's state.
    pub fn cell_parts(&self) -> (CpuBounds, EffectiveCpuConfig, EffectiveMemory) {
        (self.e_cpu.bounds(), self.e_cpu.config(), self.e_mem.clone())
    }

    /// The soft memory limit (Algorithm 2's safe-reset anchor).
    pub fn soft_limit(&self) -> Bytes {
        self.e_mem.soft_limit()
    }

    /// The hard memory limit.
    pub fn hard_limit(&self) -> Bytes {
        self.e_mem.hard_limit()
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

    /// Periodic update-timer firing: Algorithm 1 on the CPU view,
    /// Algorithm 2 on the memory view; the value triple after it (the
    /// [`views`](SysNamespace::views) that now stand: `mem`'s usage is
    /// the last observed). What either decided is
    /// [`EffectiveCpu::decision`] and [`EffectiveMemory::decision`] of
    /// its value before and after.
    pub fn update(&mut self, cpu: CpuSample, mem: MemSample) -> (u32, Bytes, Bytes) {
        let e_cpu = self.e_cpu.update(cpu);
        let e_mem = self.e_mem.update(mem);
        (e_cpu, e_mem, e_mem.saturating_sub(mem.usage))
    }
}

/// Trace a move of container `id`'s served view that neither
/// Algorithm 1 nor Algorithm 2 decided — a static refresh or resync
/// clamp, a restore, a degraded fallback — as `cause`: one decision for
/// each resource whose `(before, after)` pair differs, with zero inputs
/// (no utilization, slack, usage or free memory stands behind it). The
/// algorithms' own decisions are [`EffectiveCpu::decision`] and
/// [`EffectiveMemory::decision`].
#[inline]
pub fn trace_moved(
    tracer: &Tracer,
    tick: u64,
    id: CgroupId,
    cause: DecisionCause,
    (cpu_before, cpu_after): (u32, u32),
    (mem_before, mem_after): (Bytes, Bytes),
) {
    if cpu_after != cpu_before {
        let d = CpuDecision {
            cause,
            before: cpu_before,
            after: cpu_after,
            utilization: 0.0,
            had_slack: false,
        };
        tracer.emit_cpu(tick, id, d);
    }
    if mem_after != mem_before {
        let d = MemDecision {
            cause,
            before: mem_before,
            after: mem_after,
            usage: Bytes(0),
            free: Bytes(0),
        };
        tracer.emit_mem(tick, id, d);
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
        let after = n.update(
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
        assert_eq!(after, n.views());
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
        /// Update only the CPU view (used when memory sampling is decimated,
        /// since "the change of memory usage is less frequent than that of CPU
        /// allocation", §3.2).
        fn update_cpu(&mut self, cpu: CpuSample) {
            self.e_cpu.update(cpu);
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

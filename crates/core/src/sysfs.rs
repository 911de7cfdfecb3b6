//! The virtual sysfs: the user-space-facing query interface.
//!
//! Applications don't read `sys_namespace` directly — they call
//! `sysconf(3)` or read `sysfs`/`procfs` files, and glibc translates.
//! The paper intercepts those queries: a process linked to a container's
//! namespaces gets answers from its `sys_namespace`; an ordinary host
//! process (in the init namespaces) keeps seeing physical totals. This
//! module reproduces both entry points: the [`Sysconf`] parameter API and
//! a path-based read of the files runtimes actually open.

use arv_cgroups::{Bytes, CgroupId};
use arv_telemetry::{CpuDecision, DecisionCause, MemDecision};

use crate::health::ViewHealth;
use crate::live::ViewSnapshot;
use crate::monitor::NsMonitor;
use crate::render;

/// `_SC_PAGESIZE`: 4 KiB pages, as on the paper's x86-64 testbed.
pub const PAGE_SIZE: u64 = 4096;

/// The `sysconf` queries resource-probing runtimes issue (§2.2: "sysconf
/// queries sysfs or procfs in order to determine the number of online
/// CPUs. Memory size is calculated based on `_SC_PHYS_PAGES *
/// _SC_PAGESIZE`").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sysconf {
    /// `_SC_NPROCESSORS_ONLN`.
    NprocessorsOnln,
    /// `_SC_NPROCESSORS_CONF`.
    NprocessorsConf,
    /// `_SC_PHYS_PAGES`.
    PhysPages,
    /// `_SC_AVPHYS_PAGES`.
    AvphysPages,
    /// `_SC_PAGESIZE`.
    PageSize,
}

/// The host's physical view, answered to processes outside any container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostView {
    /// Online CPUs on the host.
    pub online_cpus: u32,
    /// Physical memory size.
    pub total_memory: Bytes,
    /// Free physical memory.
    pub free_memory: Bytes,
}

/// The virtual sysfs front-end.
///
/// Holds the host view plus a reference to the monitor's namespaces; a
/// query carries the caller's container identity (or `None` for a host
/// process), mirroring the kernel-side test of whether the calling task
/// is linked to non-init namespaces.
#[derive(Debug)]
pub struct VirtualSysfs<'m> {
    monitor: &'m NsMonitor,
    host: HostView,
}

impl<'m> VirtualSysfs<'m> {
    /// A front-end over `monitor` answering with `host` for host processes.
    /// Container views older than [`STALENESS_BUDGET`](crate::STALENESS_BUDGET)
    /// are served as the conservative fallback (effective CPU at
    /// Algorithm 1's lower bound, effective memory at the soft limit).
    pub fn new(monitor: &'m NsMonitor, host: HostView) -> VirtualSysfs<'m> {
        VirtualSysfs { monitor, host }
    }

    /// Health of the view `caller` would be served. Host processes (and
    /// callers without a namespace) read physical values, which are
    /// always fresh.
    pub fn health(&self, caller: Option<CgroupId>) -> ViewHealth {
        let mon = self.monitor;
        match caller.and_then(|id| mon.namespace(id)) {
            // One age for every namespace: the monitor's last healthy firing.
            Some(_) => ViewHealth::from_age(mon.now_tick() - mon.fresh_tick()),
            None => ViewHealth::Fresh,
        }
    }

    /// The view `caller` is answered from for `query`: the host's for
    /// host processes and containers without a namespace, else the
    /// namespace's own, or its conservative [`ViewSnapshot::fallback`]
    /// once degraded.
    /// Substituting the fallback is itself a traced decision for the
    /// resource `query` reads: the served value deviates from the
    /// namespace's actual view.
    fn view(&self, caller: Option<CgroupId>, query: Sysconf) -> ViewSnapshot {
        let Some(ns) = caller.and_then(|id| self.monitor.namespace(id)) else {
            return ViewSnapshot {
                cpus: self.host.online_cpus,
                bytes: self.host.total_memory,
                avail: self.host.free_memory,
                generation: 0,
            };
        };
        let (cpus, bytes, avail) = ns.views();
        // The monitor publishes no generation; its views are read in place.
        let live = ViewSnapshot {
            cpus,
            bytes,
            avail,
            generation: 0,
        };
        if !self.health(caller).is_degraded() {
            return live;
        }
        let fallback = live.fallback(ns.cpu_bounds().lower, ns.soft_limit());
        let (tracer, now) = (self.monitor.tracer(), self.monitor.now_tick());
        match query {
            Sysconf::NprocessorsOnln | Sysconf::NprocessorsConf if fallback.cpus != live.cpus => {
                tracer.emit_cpu(
                    now,
                    ns.id(),
                    CpuDecision {
                        cause: DecisionCause::DegradedFallback,
                        before: live.cpus,
                        after: fallback.cpus,
                        utilization: 0.0,
                        had_slack: false,
                    },
                );
            }
            Sysconf::PhysPages if fallback.bytes != live.bytes => {
                tracer.emit_mem(
                    now,
                    ns.id(),
                    MemDecision {
                        cause: DecisionCause::DegradedFallback,
                        before: live.bytes,
                        after: fallback.bytes,
                        usage: ns.last_usage(),
                        free: Bytes(0),
                    },
                );
            }
            _ => {}
        }
        fallback
    }

    /// Answer a `sysconf` query for `caller`.
    ///
    /// A caller with a `sys_namespace` receives effective values; host
    /// processes — and containers for which no namespace exists, exactly
    /// the pre-paper failure mode — receive physical totals.
    pub fn sysconf(&self, caller: Option<CgroupId>, query: Sysconf) -> u64 {
        self.view(caller, query).sysconf(query)
    }

    /// Total memory as seen by `caller`, in bytes
    /// (`_SC_PHYS_PAGES * _SC_PAGESIZE`).
    pub fn memory_bytes(&self, caller: Option<CgroupId>) -> Bytes {
        Bytes(self.sysconf(caller, Sysconf::PhysPages) * PAGE_SIZE)
    }

    /// Online CPU count as seen by `caller`.
    pub fn online_cpus(&self, caller: Option<CgroupId>) -> u32 {
        self.sysconf(caller, Sysconf::NprocessorsOnln) as u32
    }

    /// Read a virtual file. Supported paths are the ones resource probing
    /// actually touches; unknown paths return `None` (ENOENT).
    pub fn read(&self, caller: Option<CgroupId>, path: &str) -> Option<String> {
        match path {
            "/sys/devices/system/cpu/online" => Some(render::cpu_list(self.online_cpus(caller))),
            "/sys/devices/system/cpu/possible" | "/sys/devices/system/cpu/present" => {
                // Possible/present CPUs are a hardware property; the view
                // virtualizes *online*, as CPU hotplug does.
                Some(render::cpu_list(self.host.online_cpus))
            }
            "/proc/cpuinfo" => Some(render::cpuinfo(self.online_cpus(caller))),
            "/proc/stat" => Some(render::stat(self.online_cpus(caller))),
            "/proc/meminfo" => {
                let view = self.view(caller, Sysconf::PhysPages);
                Some(render::meminfo(view.bytes, view.avail))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_cgroups::{CgroupManager, CgroupSpec, CpuController, MemController};
    use arv_mem::Watermarks;

    fn setup() -> (NsMonitor, CgroupId) {
        let mut cgm = CgroupManager::new();
        let id = cgm.create(CgroupSpec::new(
            CpuController::unlimited(20).with_quota_cpus(4.0),
            MemController::unlimited()
                .with_hard_limit(Bytes::from_gib(1))
                .with_soft_limit(Bytes::from_mib(500)),
        ));
        let mut mon = NsMonitor::with_defaults(
            arv_cgroups::CpuSet::first_n(20),
            Bytes::from_gib(128),
            Watermarks::scaled(Bytes::from_gib(128)),
        );
        mon.sync(&mut cgm);
        (mon, id)
    }

    fn host() -> HostView {
        HostView {
            online_cpus: 20,
            total_memory: Bytes::from_gib(128),
            free_memory: Bytes::from_gib(100),
        }
    }

    #[test]
    fn container_sees_effective_values() {
        let (mon, id) = setup();
        let fs = VirtualSysfs::new(&mon, host());
        assert_eq!(fs.online_cpus(Some(id)), 4);
        assert_eq!(fs.memory_bytes(Some(id)), Bytes::from_mib(500));
    }

    #[test]
    fn host_process_sees_physical_values() {
        let (mon, _) = setup();
        let fs = VirtualSysfs::new(&mon, host());
        assert_eq!(fs.online_cpus(None), 20);
        assert_eq!(fs.memory_bytes(None), Bytes::from_gib(128));
        assert_eq!(
            fs.sysconf(None, Sysconf::AvphysPages) * PAGE_SIZE,
            Bytes::from_gib(100).as_u64()
        );
    }

    #[test]
    fn unknown_container_falls_back_to_host_view() {
        let (mon, _) = setup();
        let fs = VirtualSysfs::new(&mon, host());
        assert_eq!(fs.online_cpus(Some(CgroupId(999))), 20);
    }

    #[test]
    fn page_size_is_constant() {
        let (mon, id) = setup();
        let fs = VirtualSysfs::new(&mon, host());
        assert_eq!(fs.sysconf(Some(id), Sysconf::PageSize), 4096);
        assert_eq!(fs.sysconf(None, Sysconf::PageSize), 4096);
    }

    #[test]
    fn sysfs_online_file_uses_cpu_list_syntax() {
        let (mon, id) = setup();
        let fs = VirtualSysfs::new(&mon, host());
        assert_eq!(
            fs.read(Some(id), "/sys/devices/system/cpu/online").unwrap(),
            "0-3"
        );
        assert_eq!(
            fs.read(None, "/sys/devices/system/cpu/online").unwrap(),
            "0-19"
        );
        assert_eq!(
            fs.read(Some(id), "/sys/devices/system/cpu/possible")
                .unwrap(),
            "0-19"
        );
    }

    #[test]
    fn avphys_pages_subtracts_usage_from_the_view() {
        let (mut mon, id) = setup();
        // Before any update period fires, the whole 500 MiB view counts
        // as available.
        let fs = VirtualSysfs::new(&mon, host());
        assert_eq!(
            fs.sysconf(Some(id), Sysconf::AvphysPages) * PAGE_SIZE,
            Bytes::from_mib(500).as_u64()
        );
        // One period with 200 MiB in use: available = view − usage.
        mon.update_mem(
            id,
            crate::MemSample {
                free: Bytes::from_gib(100),
                usage: Bytes::from_mib(200),
                reclaiming: false,
            },
        );
        let fs = VirtualSysfs::new(&mon, host());
        let avail = fs.sysconf(Some(id), Sysconf::AvphysPages) * PAGE_SIZE;
        let view = fs.memory_bytes(Some(id)).as_u64();
        assert_eq!(avail, view - Bytes::from_mib(200).as_u64());
        assert!(avail < view);
    }

    #[test]
    fn avphys_pages_clamps_at_zero_when_usage_overshoots() {
        let (mut mon, id) = setup();
        // Usage above the hard limit (the view just shrank): clamp to 0,
        // never underflow.
        mon.update_mem(
            id,
            crate::MemSample {
                free: Bytes::from_mib(100), // below low watermark → reset to soft
                usage: Bytes::from_gib(2),
                reclaiming: true,
            },
        );
        let fs = VirtualSysfs::new(&mon, host());
        assert_eq!(fs.sysconf(Some(id), Sysconf::AvphysPages), 0);
    }

    #[test]
    fn meminfo_reflects_the_view() {
        let (mon, id) = setup();
        let fs = VirtualSysfs::new(&mon, host());
        let text = fs.read(Some(id), "/proc/meminfo").unwrap();
        assert!(text.contains(&format!("MemTotal: {} kB", 500 * 1024)));
        let host_text = fs.read(None, "/proc/meminfo").unwrap();
        assert!(host_text.contains(&format!("MemTotal: {} kB", 128u64 * 1024 * 1024)));
    }

    #[test]
    fn cpuinfo_and_stat_show_effective_cpus() {
        let (mon, id) = setup();
        let fs = VirtualSysfs::new(&mon, host());
        let cpuinfo = fs.read(Some(id), "/proc/cpuinfo").unwrap();
        assert_eq!(cpuinfo.matches("processor").count(), 4);
        let host_cpuinfo = fs.read(None, "/proc/cpuinfo").unwrap();
        assert_eq!(host_cpuinfo.matches("processor").count(), 20);
        let stat = fs.read(Some(id), "/proc/stat").unwrap();
        // Aggregate line + 4 per-CPU lines (plus the scalar tail).
        assert_eq!(stat.lines().filter(|l| l.starts_with("cpu")).count(), 5);
        assert!(stat.contains("cpu3 "));
        assert!(!stat.contains("cpu4 "));
    }

    #[test]
    fn virtualized_paths_differ_between_host_and_container() {
        let (mon, id) = setup();
        let fs = VirtualSysfs::new(&mon, host());
        // Every view-dependent file renders differently inside the
        // container (4 effective CPUs, 500 MiB) than on the host.
        for path in [
            "/sys/devices/system/cpu/online",
            "/proc/cpuinfo",
            "/proc/stat",
            "/proc/meminfo",
        ] {
            let inside = fs.read(Some(id), path).unwrap();
            let outside = fs.read(None, path).unwrap();
            assert_ne!(inside, outside, "{path} is not virtualized");
            // A container the monitor doesn't know falls back to the
            // host image on the same path.
            assert_eq!(fs.read(Some(CgroupId(999)), path).unwrap(), outside);
        }
        // Hardware-property files are identical inside and out.
        for path in [
            "/sys/devices/system/cpu/possible",
            "/sys/devices/system/cpu/present",
        ] {
            assert_eq!(fs.read(Some(id), path), fs.read(None, path));
        }
    }

    #[test]
    fn unknown_path_is_enoent() {
        let (mon, id) = setup();
        let fs = VirtualSysfs::new(&mon, host());
        assert_eq!(fs.read(Some(id), "/sys/kernel/unrelated"), None);
    }

    #[test]
    fn degraded_views_fall_back_to_lower_bound_and_soft_limit() {
        let (mut mon, id) = setup();
        // Grow the view past its safe floor first.
        mon.update_mem(
            id,
            crate::MemSample {
                free: Bytes::from_gib(100),
                usage: Bytes::from_mib(495),
                reclaiming: false,
            },
        );
        let grown = mon.namespace(id).unwrap().effective_memory();
        assert!(grown > Bytes::from_mib(500));
        // Monitor clock runs ahead of the namespace stamp: one tick past
        // the budget → degraded.
        for _ in 0..=crate::STALENESS_BUDGET {
            mon.observe_tick();
        }
        let fs = VirtualSysfs::new(&mon, host());
        assert_eq!(
            fs.health(Some(id)),
            ViewHealth::Degraded {
                age: crate::STALENESS_BUDGET + 1
            }
        );
        assert_eq!(fs.online_cpus(Some(id)), 4); // == lower bound here
        assert_eq!(fs.memory_bytes(Some(id)), Bytes::from_mib(500));
        let avail = fs.sysconf(Some(id), Sysconf::AvphysPages) * PAGE_SIZE;
        assert_eq!(avail, Bytes::from_mib(500 - 495).as_u64());
        // Host callers never degrade.
        assert!(fs.health(None).is_fresh());
        assert_eq!(fs.online_cpus(None), 20);
    }

    #[test]
    fn views_within_budget_are_served_as_is() {
        let (mut mon, id) = setup();
        for _ in 0..crate::STALENESS_BUDGET {
            mon.observe_tick();
        }
        let fs = VirtualSysfs::new(&mon, host());
        assert_eq!(
            fs.health(Some(id)),
            ViewHealth::Stale {
                age: crate::STALENESS_BUDGET
            }
        );
        assert_eq!(fs.online_cpus(Some(id)), 4);
        assert_eq!(fs.memory_bytes(Some(id)), Bytes::from_mib(500));
    }
}

//! The virtual sysfs: the user-space-facing query interface.
//!
//! Applications don't read `sys_namespace` directly — they call
//! `sysconf(3)` or read `sysfs`/`procfs` files, and glibc translates.
//! The paper intercepts those queries: a process linked to a container's
//! namespaces gets answers from its `sys_namespace`; an ordinary host
//! process (in the init namespaces) keeps seeing physical totals, the
//! [`HostSpec`]. This module reproduces both entry points: the
//! [`Sysconf`] parameter API and a path-based read of the files runtimes
//! actually open. A read resolves its path with
//! [`PathId::resolve`](crate::render::PathId::resolve), picks the view
//! that answers it, and renders it with [`render::image`] — the same
//! resolver and renderer the `arv-viewd` daemon answers with, so both
//! give the same bytes for the same view.

use arv_cgroups::{Bytes, CgroupId};
use arv_telemetry::DecisionCause;

use crate::health::ViewHealth;
use crate::live::ViewSnapshot;
use crate::monitor::NsMonitor;
use crate::namespace::{trace_moved, SysNamespace};
use crate::render::{self, PathId};

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

/// The host's physical configuration, answered to non-container callers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpec {
    /// Online CPUs on the host.
    pub online_cpus: u32,
    /// Physical memory size.
    pub total_memory: Bytes,
    /// Free physical memory (the host side is not what the paper
    /// virtualizes).
    pub free_memory: Bytes,
    /// CFS period used when rendering `cpu.max`, in microseconds.
    pub cfs_period_us: u64,
}

impl HostSpec {
    /// The paper's testbed: 20 cores, 128 GiB, default 100 ms CFS period.
    pub fn paper_testbed() -> HostSpec {
        HostSpec {
            online_cpus: 20,
            total_memory: Bytes::from_gib(128),
            free_memory: Bytes::from_gib(100),
            cfs_period_us: 100_000,
        }
    }

    /// The host's configuration as a view (generation 0: it never
    /// changes).
    #[inline]
    pub fn view(&self) -> ViewSnapshot {
        ViewSnapshot {
            cpus: self.online_cpus,
            bytes: self.total_memory,
            avail: self.free_memory,
            generation: 0,
        }
    }
}

/// The virtual sysfs front-end.
///
/// Holds the host's configuration plus a reference to the monitor's
/// namespaces; a query carries the caller's container identity (or
/// `None` for a host process), mirroring the kernel-side test of whether
/// the calling task is linked to non-init namespaces.
#[derive(Debug)]
pub struct VirtualSysfs<'m> {
    monitor: &'m NsMonitor,
    host: HostSpec,
}

impl<'m> VirtualSysfs<'m> {
    /// A front-end over `monitor` answering with `host` for host processes.
    /// Container views older than [`STALENESS_BUDGET`](crate::STALENESS_BUDGET)
    /// are served as the conservative fallback (effective CPU at
    /// Algorithm 1's lower bound, effective memory at the soft limit).
    pub fn new(monitor: &'m NsMonitor, host: HostSpec) -> VirtualSysfs<'m> {
        VirtualSysfs { monitor, host }
    }

    /// Health of the view `caller` would be served. Host processes (and
    /// callers without a namespace) read physical values, which are
    /// always fresh.
    pub fn health(&self, caller: Option<CgroupId>) -> ViewHealth {
        self.namespace(caller)
            .map_or(ViewHealth::Fresh, |_| self.container_health())
    }

    /// One age for every namespace: the monitor's last healthy firing.
    fn container_health(&self) -> ViewHealth {
        ViewHealth::from_age(self.monitor.now_tick() - self.monitor.fresh_tick())
    }

    /// The namespace `caller` is answered from, if it has one.
    fn namespace(&self, caller: Option<CgroupId>) -> Option<&'m SysNamespace> {
        caller.and_then(|id| self.monitor.namespace(id))
    }

    /// The view `ns` is answered from for `query`: the host's without a
    /// namespace, else the namespace's own, or its conservative
    /// [`ViewSnapshot::fallback`] once degraded.
    /// Substituting the fallback is itself a traced decision for the
    /// resource `query` reads: the served value deviates from the
    /// namespace's actual view.
    fn view(&self, ns: Option<&SysNamespace>, query: Sysconf) -> ViewSnapshot {
        let Some(ns) = ns else {
            return self.host.view();
        };
        let (cpus, bytes, avail) = ns.views();
        // The monitor publishes no generation; its views are read in place.
        let live = ViewSnapshot {
            cpus,
            bytes,
            avail,
            generation: 0,
        };
        if !self.container_health().is_degraded() {
            return live;
        }
        let fallback = live.fallback(ns.cpu_bounds().lower, ns.soft_limit());
        let (cpus, bytes) = match query {
            Sysconf::NprocessorsOnln | Sysconf::NprocessorsConf => (fallback.cpus, live.bytes),
            Sysconf::PhysPages => (live.cpus, fallback.bytes),
            Sysconf::AvphysPages | Sysconf::PageSize => (live.cpus, live.bytes),
        };
        let mon = self.monitor;
        trace_moved(
            mon.tracer(),
            mon.now_tick(),
            ns.id(),
            DecisionCause::DegradedFallback,
            (live.cpus, cpus),
            (live.bytes, bytes),
        );
        fallback
    }

    /// Answer a `sysconf` query for `caller`.
    ///
    /// A caller with a `sys_namespace` receives effective values; host
    /// processes — and containers for which no namespace exists, exactly
    /// the pre-paper failure mode — receive physical totals.
    pub fn sysconf(&self, caller: Option<CgroupId>, query: Sysconf) -> u64 {
        self.view(self.namespace(caller), query).sysconf(query)
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

    /// Read a virtual file: the paths resource probing actually touches
    /// (see [`PathId::resolve`]). Unknown paths — and the cgroup
    /// interface files, for a caller without a namespace — return `None`
    /// (ENOENT). A degraded read traces the resource the file is keyed
    /// on.
    pub fn read(&self, caller: Option<CgroupId>, path: &str) -> Option<String> {
        let (id, caller) = PathId::resolve(path, caller)?;
        let ns = self.namespace(caller);
        if ns.is_none() && !id.on_host() {
            return None;
        }
        let query = if id.cpu_keyed() {
            Sysconf::NprocessorsOnln
        } else {
            Sysconf::PhysPages
        };
        let view = self.view(ns, query);
        Some(render::image(id, &view, self.host.cfs_period_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::CONTAINER_PATHS;
    use arv_cgroups::{CgroupManager, CgroupSpec, CpuController, MemController};
    use arv_mem::Watermarks;
    use arv_telemetry::{CpuDecision, MemDecision};

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

    fn host() -> HostSpec {
        HostSpec::paper_testbed()
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
    fn degraded_fallback_traces_the_resource_each_query_reads() {
        use arv_telemetry::{EventKind, Tracer};
        // A container entitled to 4 CPUs (a fifth of the shares) and
        // capped at 8, beside a heavier neighbour.
        let mut cgm = CgroupManager::new();
        let id = cgm.create(CgroupSpec::new(
            CpuController::unlimited(20).with_quota_cpus(8.0),
            MemController::unlimited()
                .with_hard_limit(Bytes::from_gib(1))
                .with_soft_limit(Bytes::from_mib(500)),
        ));
        cgm.create(CgroupSpec::new(
            CpuController::unlimited(20).with_shares(4096),
            MemController::unlimited(),
        ));
        let mut mon = NsMonitor::with_defaults(
            arv_cgroups::CpuSet::first_n(20),
            Bytes::from_gib(128),
            Watermarks::scaled(Bytes::from_gib(128)),
        );
        let tracer = Tracer::bounded(64);
        mon.set_tracer(tracer.clone());
        // Resume its views above their fallback pair (lower bound 4,
        // soft limit 500 MiB), then age them past the budget.
        let snapshot = arv_persist::Snapshot {
            tick: 0,
            entries: vec![arv_persist::ViewState {
                id: id.0,
                e_cpu: 6,
                e_mem: Bytes::from_mib(600).as_u64(),
                e_avail: Bytes::from_mib(600).as_u64(),
                last_tick: 0,
            }],
        };
        mon.recover(&snapshot, &mut cgm);
        let ns = mon.namespace(id).unwrap();
        let (lower, soft) = (ns.cpu_bounds().lower, ns.soft_limit());
        assert_eq!((ns.effective_cpu(), lower), (6, 4));
        assert_eq!(ns.effective_memory(), Bytes::from_mib(600));
        for _ in 0..=crate::STALENESS_BUDGET {
            mon.observe_tick();
        }
        let fs = VirtualSysfs::new(&mon, host());
        assert!(fs.health(Some(id)).is_degraded());
        // What one `sysconf` query or file read traces.
        let traced = |ask: &dyn Fn()| {
            let seen = tracer.events().len();
            ask();
            tracer.events()[seen..]
                .iter()
                .map(|e| {
                    assert_eq!(e.container, Some(id));
                    e.kind
                })
                .collect::<Vec<_>>()
        };
        let query = |caller, q| {
            traced(&|| {
                fs.sysconf(caller, q);
            })
        };
        let read = |caller, path| traced(&|| drop(fs.read(caller, path)));
        let cpu = vec![EventKind::Cpu(CpuDecision {
            cause: DecisionCause::DegradedFallback,
            before: 6,
            after: lower,
            utilization: 0.0,
            had_slack: false,
        })];
        let mem = vec![EventKind::Mem(MemDecision {
            cause: DecisionCause::DegradedFallback,
            before: Bytes::from_mib(600),
            after: soft,
            usage: Bytes(0),
            free: Bytes(0),
        })];
        assert_eq!(query(Some(id), Sysconf::NprocessorsOnln), cpu);
        assert_eq!(query(Some(id), Sysconf::NprocessorsConf), cpu);
        assert_eq!(query(Some(id), Sysconf::PhysPages), mem);
        assert_eq!(query(Some(id), Sysconf::AvphysPages), []);
        assert_eq!(query(Some(id), Sysconf::PageSize), []);
        for path in CONTAINER_PATHS {
            let keyed = if PathId::resolve(path, None).unwrap().0.cpu_keyed() {
                &cpu
            } else {
                &mem
            };
            assert_eq!(&read(Some(id), path), keyed, "{path}");
        }
        // Host-global files and host callers never trace.
        assert_eq!(read(Some(id), "/sys/devices/system/cpu/possible"), []);
        assert_eq!(query(None, Sysconf::PhysPages), []);
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

//! The files a view renders, and how.
//!
//! The `arv-viewd` daemon resolves a path with [`PathId::resolve`] and
//! builds its image with [`image`]: eight paths, the six of
//! [`CONTAINER_PATHS`] and the two host-global hardware-property files,
//! answered alike in process and over its wire. The images are
//! functions of the numbers a view exposes alone (CPU count, memory
//! sizes). Formats follow the real kernel files closely enough that
//! parsers written against Linux (glibc's `sysconf`, OpenJDK's container
//! probing, LXCFS consumers) accept them.

use arv_cgroups::{Bytes, CgroupId};
use std::fmt::Write as _;

use crate::live::ViewSnapshot;

/// A file a view renders, interned: its index in [`CONTAINER_PATHS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathId {
    /// `/proc/cpuinfo`
    Cpuinfo,
    /// `/proc/meminfo`
    Meminfo,
    /// `/proc/stat`
    Stat,
    /// `/sys/devices/system/cpu/online`
    OnlineCpus,
    /// cgroup v2 `cpu.max`
    CpuMax,
    /// cgroup v2 `memory.max`
    MemoryMax,
}

/// The paths a container's view renders, in [`PathId`] order.
pub const CONTAINER_PATHS: [&str; PathId::COUNT] = [
    "/proc/cpuinfo",
    "/proc/meminfo",
    "/proc/stat",
    "/sys/devices/system/cpu/online",
    "cpu.max",
    "memory.max",
];

/// Hardware-property files: host-global even inside a view. Possible
/// and present CPUs are a property of the machine; a view virtualizes
/// *online*, as CPU hotplug does, so both read as the host's online list.
const HOST_GLOBAL: [&str; 2] = [
    "/sys/devices/system/cpu/possible",
    "/sys/devices/system/cpu/present",
];

impl PathId {
    /// Number of distinct renderable paths.
    pub const COUNT: usize = 6;

    /// Every renderable path, in discriminant order.
    pub const ALL: [PathId; PathId::COUNT] = [
        PathId::Cpuinfo,
        PathId::Meminfo,
        PathId::Stat,
        PathId::OnlineCpus,
        PathId::CpuMax,
        PathId::MemoryMax,
    ];

    /// Resolve `path` as read by `caller`: the file, and whose view
    /// answers it — `caller`'s own, or the host's (`None`) for the
    /// host-global files, which render as the host's online CPUs.
    /// `None` for a path no view renders (ENOENT).
    #[inline]
    pub fn resolve(path: &str, caller: Option<CgroupId>) -> Option<(PathId, Option<CgroupId>)> {
        match CONTAINER_PATHS.iter().position(|known| *known == path) {
            Some(i) => Some((PathId::ALL[i], caller)),
            None => HOST_GLOBAL
                .contains(&path)
                .then_some((PathId::OnlineCpus, None)),
        }
    }

    /// Whether the file's image is a function of the CPU count alone
    /// (the rest are functions of the memory sizes alone).
    #[inline]
    pub fn cpu_keyed(self) -> bool {
        !matches!(self, PathId::Meminfo | PathId::MemoryMax)
    }

    /// Whether a host process has the file too: the cgroup interface
    /// files exist only inside a container.
    #[inline]
    pub fn on_host(self) -> bool {
        !matches!(self, PathId::CpuMax | PathId::MemoryMax)
    }
}

/// The image of `id` for `view`, drawn from that one view alone; a
/// `cpu.max` counts its quota in CFS periods of `cfs_period_us`.
pub fn image(id: PathId, view: &ViewSnapshot, cfs_period_us: u64) -> String {
    match id {
        PathId::Cpuinfo => cpuinfo(view.cpus),
        PathId::Stat => stat(view.cpus),
        PathId::Meminfo => meminfo(view.bytes, view.avail),
        PathId::OnlineCpus => cpu_list(view.cpus),
        // The container's own cgroup interface files, from the
        // *effective* view (what the adaptive runtime should size to).
        PathId::CpuMax => cpu_max(view.cpus, cfs_period_us),
        PathId::MemoryMax => memory_max(view.bytes),
    }
}

/// Kernel cpu-list syntax for CPUs `0..n`: `"0-3"`, or `"0"` for one CPU.
pub fn cpu_list(n: u32) -> String {
    if n <= 1 {
        "0".to_string()
    } else {
        format!("0-{}", n - 1)
    }
}

/// `/proc/cpuinfo`: one stanza per visible CPU — the file
/// `std::thread::available_parallelism` and many runtimes fall back to
/// parsing. Stanzas carry the fields x86 parsers commonly look at
/// (`model name`, `cpu MHz`, `cache size`, `siblings`, `flags`), shaped
/// like the paper's testbed Xeons.
pub fn cpuinfo(cpus: u32) -> String {
    let mut out = String::new();
    for cpu in 0..cpus {
        let _ = write!(
            out,
            "processor\t: {cpu}\n\
             vendor_id\t: GenuineIntel\n\
             cpu family\t: 6\n\
             model\t\t: 85\n\
             model name\t: Intel(R) Xeon(R) Silver 4114 CPU @ 2.20GHz\n\
             stepping\t: 4\n\
             cpu MHz\t\t: 2200.000\n\
             cache size\t: 14080 KB\n\
             physical id\t: {}\n\
             siblings\t: {cpus}\n\
             core id\t\t: {cpu}\n\
             cpu cores\t: {cpus}\n\
             fpu\t\t: yes\n\
             flags\t\t: fpu vme de pse tsc msr pae mce cx8 sep mtrr pge \
             mca cmov pat pse36 clflush mmx fxsr sse sse2 ht syscall nx \
             lm constant_tsc rep_good nopl xtopology cpuid tsc_known_freq \
             pni ssse3 cx16 sse4_1 sse4_2 x2apic popcnt aes xsave avx \
             hypervisor lahf_lm\n\
             bogomips\t: 4400.00\n\
             address sizes\t: 46 bits physical, 48 bits virtual\n\n",
            cpu % 2
        );
    }
    out
}

/// `/proc/stat`: aggregate line plus one `cpuN` line per visible CPU
/// (LXCFS virtualizes exactly this file), followed by the scalar lines
/// (`intr`, `ctxt`, `btime`, …) parsers expect to find after the CPU
/// block. Counters are zero — the simulation virtualizes topology, not
/// tick accounting.
pub fn stat(cpus: u32) -> String {
    let mut out = String::from("cpu  0 0 0 0 0 0 0 0 0 0\n");
    for cpu in 0..cpus {
        let _ = writeln!(out, "cpu{cpu} 0 0 0 0 0 0 0 0 0 0");
    }
    out.push_str("intr 0");
    for _ in 0..64 {
        out.push_str(" 0");
    }
    out.push('\n');
    out.push_str("ctxt 0\nbtime 0\nprocesses 1\nprocs_running 1\nprocs_blocked 0\n");
    out.push_str("softirq 0 0 0 0 0 0 0 0 0 0 0\n");
    out
}

/// `/proc/meminfo` with the two lines probing code reads.
pub fn meminfo(total: Bytes, free: Bytes) -> String {
    format!(
        "MemTotal: {} kB\nMemFree: {} kB\n",
        total.as_u64() / 1024,
        free.as_u64() / 1024
    )
}

/// cgroup v2 `cpu.max` for an effective view of `cpus` CPUs: quota and
/// period in microseconds (`"400000 100000"` = 4 CPUs).
pub fn cpu_max(cpus: u32, period_us: u64) -> String {
    format!("{} {period_us}\n", u64::from(cpus) * period_us)
}

/// cgroup v2 `memory.max`: the limit in bytes on its own line.
pub fn memory_max(limit: Bytes) -> String {
    // Room for any u64 and the newline: `format!` would size the
    // string for the digits alone and grow it for the newline.
    let mut out = String::with_capacity(21);
    let _ = writeln!(out, "{}", limit.as_u64());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_list_syntax() {
        assert_eq!(cpu_list(0), "0");
        assert_eq!(cpu_list(1), "0");
        assert_eq!(cpu_list(8), "0-7");
    }

    #[test]
    fn cpuinfo_stanza_per_cpu() {
        let text = cpuinfo(4);
        assert_eq!(text.matches("processor").count(), 4);
        assert!(text.contains("processor\t: 3"));
        assert_eq!(cpuinfo(0), "");
    }

    #[test]
    fn stat_has_aggregate_plus_per_cpu_lines() {
        let text = stat(4);
        assert!(text.starts_with("cpu  "));
        assert!(text.contains("cpu3 "));
        assert!(!text.contains("cpu4 "));
        assert_eq!(text.lines().filter(|l| l.starts_with("cpu")).count(), 5);
        assert!(text.contains("\nintr 0 "));
        assert!(text.contains("\nctxt 0\n"));
        assert!(text.ends_with("softirq 0 0 0 0 0 0 0 0 0 0 0\n"));
    }

    #[test]
    fn meminfo_in_kib() {
        let text = meminfo(Bytes::from_mib(500), Bytes::from_mib(200));
        assert!(text.contains("MemTotal: 512000 kB"));
        assert!(text.contains("MemFree: 204800 kB"));
    }

    #[test]
    fn resolve_round_trips_every_path() {
        let caller = Some(CgroupId(7));
        for (id, path) in PathId::ALL.into_iter().zip(CONTAINER_PATHS) {
            assert_eq!(PathId::resolve(path, caller), Some((id, caller)));
            assert_eq!(PathId::ALL[id as usize], id);
        }
        for path in HOST_GLOBAL {
            assert_eq!(
                PathId::resolve(path, caller),
                Some((PathId::OnlineCpus, None))
            );
        }
        assert_eq!(PathId::resolve("/proc/uptime", caller), None);
    }

    #[test]
    fn cgroup_interface_files() {
        assert_eq!(cpu_max(4, 100_000), "400000 100000\n");
        assert_eq!(memory_max(Bytes::from_mib(1)), "1048576\n");
    }
}

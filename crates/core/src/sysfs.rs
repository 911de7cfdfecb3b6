//! The `sysconf` vocabulary and the host descriptor.
//!
//! Applications don't read `sys_namespace` directly — they call
//! `sysconf(3)` or read `sysfs`/`procfs` files, and glibc translates.
//! The paper intercepts those queries: a process linked to a container's
//! namespaces gets answers from its `sys_namespace`; an ordinary host
//! process (in the init namespaces) keeps seeing physical totals, the
//! [`HostSpec`]. This module names the [`Sysconf`] parameters and the
//! host's configuration; the paths and their images are
//! [`render`](crate::render)'s, and the one front-end that answers both
//! is the `arv-viewd` daemon's query handle, which every simulated host
//! owns.

use arv_cgroups::Bytes;

use crate::live::ViewSnapshot;

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

//! Adaptive resource views for containers — the paper's core contribution.
//!
//! A container can *see* every CPU and byte of the host but *use* only the
//! slice its cgroup grants it, and — because Linux is work-conserving —
//! that slice changes from moment to moment with what its neighbours do.
//! This crate computes the **effective capacity** that closes the gap:
//!
//! * [`effective_cpu`] — Algorithm 1: static bounds from shares, quota and
//!   cpuset, plus a ±1-CPU-per-period feedback loop driven by the
//!   container's utilization and host slack;
//! * [`effective_mem`] — Algorithm 2: soft-limit-anchored growth toward
//!   the hard limit, gated on a free-memory prediction against the kswapd
//!   `high` watermark, reset on reclaim;
//! * [`namespace`] — the per-container `sys_namespace` holding both;
//! * [`monitor`] — `ns_monitor`: reacts to cgroup events (static bounds)
//!   and the periodic update timer (dynamic values);
//! * [`sysfs`] — the virtual sysfs / `sysconf` front-end that answers
//!   resource queries from inside a container with effective values and
//!   from the host with physical ones;
//! * [`live`] — atomic namespace cells that query threads read lock-free
//!   while an updater writes them, the concurrency structure the paper
//!   measures in §5.4 (1 µs updates, lock-free queries).
//!
//! # Example: Algorithm 1 end to end
//!
//! ```
//! use arv_cgroups::{CpuController, CpuSet};
//! use arv_resview::{CpuBounds, CpuSample, EffectiveCpu, EffectiveCpuConfig};
//! use arv_sim_core::SimDuration;
//!
//! // The paper's running example: 5 equal-share containers on 20 cores,
//! // each limited to 10 CPUs.
//! let online = CpuSet::first_n(20);
//! let cpu = CpuController::unlimited(20).with_quota_cpus(10.0);
//! let bounds = CpuBounds::compute(&cpu, 5 * 1024, online);
//! assert_eq!((bounds.lower, bounds.upper), (4, 10));
//!
//! // Saturated container, idle neighbours: the view expands one CPU per
//! // update period toward the quota.
//! let mut view = EffectiveCpu::new(bounds, EffectiveCpuConfig::default());
//! let t = SimDuration::from_millis(24);
//! for _ in 0..10 {
//!     view.update(CpuSample { usage: t * 10, period: t, slack: t * 4 });
//! }
//! assert_eq!(view.value(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod effective_cpu;
pub mod effective_mem;
pub mod health;
pub mod live;
pub mod monitor;
pub mod namespace;
pub mod render;
pub mod sysfs;
pub mod watchdog;

pub use effective_cpu::{
    CpuBounds, CpuSample, EffectiveCpu, EffectiveCpuConfig, FractionalEffectiveCpu,
};
pub use effective_mem::{EffectiveMemory, EffectiveMemoryConfig, MemSample};
pub use health::{ViewHealth, STALENESS_BUDGET};
pub use live::{LiveRegistry, LiveSample, NsCell, ViewSnapshot};
pub use monitor::{IngestReport, NsMonitor, RecoverOutcome};
pub use namespace::SysNamespace;
pub use sysfs::{HostView, Sysconf, VirtualSysfs, PAGE_SIZE};
pub use watchdog::{Verdict, Watchdog, WatchdogConfig, WatchdogStats};

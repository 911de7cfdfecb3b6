//! A fluid-flow model of the Linux Completely Fair Scheduler over the
//! host's flat set of container cgroups (one per container, as Docker
//! lays them out; nothing nests).
//!
//! The paper's effective-CPU calculation (Algorithm 1) depends on three
//! scheduler behaviours:
//!
//! 1. **proportional sharing** — competing cgroups receive CPU time in
//!    proportion to `cpu.shares`;
//! 2. **bandwidth capping** — a cgroup never exceeds
//!    `cfs_quota_us / cfs_period_us` CPUs, nor the size of its cpuset;
//! 3. **work conservation** — CPU left idle by one cgroup is available to
//!    others, which is why static limits alone (JDK 9/10's approach)
//!    misjudge the *effective* capacity.
//!
//! Rather than simulating per-tick task placement, each scheduling period
//! is resolved exactly with weighted max-min fairness (progressive
//! filling): every group is capped by its demand and its quota/cpuset cap,
//! and the remaining supply is divided by shares. This is the steady-state
//! fixed point of CFS within one period and keeps multi-hour experiment
//! sweeps fast and fully deterministic.
//!
//! Cpusets are modelled as capacity caps. For the experiment matrix in the
//! paper the masks are either the full machine or mutually disjoint
//! per-container ranges, for which the cap model is exact.
//!
//! # Example
//!
//! ```
//! use arv_cfs::{CfsSim, GroupDemand};
//! use arv_cgroups::CgroupId;
//! use arv_sim_core::SimDuration;
//!
//! let cfs = CfsSim::with_cpus(20);
//! let period = SimDuration::from_millis(24);
//! // Two saturated containers, one with twice the shares.
//! let a = GroupDemand::cpu_bound(CgroupId(0), 20, 2048, 20.0);
//! let b = GroupDemand::cpu_bound(CgroupId(1), 20, 1024, 20.0);
//! let alloc = cfs.allocate(period, &[a, b]);
//! assert!((alloc.granted_cpus(CgroupId(0)) - 13.333).abs() < 0.01);
//! assert!((alloc.granted_cpus(CgroupId(1)) - 6.667).abs() < 0.01);
//! assert!(!alloc.has_slack());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadavg;
pub mod scheduler;
pub mod usage;

pub use loadavg::Loadavg;
pub use scheduler::{Allocation, CfsSim, GroupDemand};
pub use usage::{GroupUsage, UsageLedger};

//! Container runtime: Docker-like lifecycle on the simulated host.
//!
//! A container here is what it is to the kernel — a named cgroup plus a
//! set of namespaces (including the paper's `sys_namespace`) holding a
//! workload. [`SimHost`] wires together every substrate crate:
//! the cgroup manager, the CFS scheduler model, the memory manager,
//! and the `ns_monitor`, and advances them in lock-step scheduling
//! periods. Workload models (the simulated JVM and OpenMP runtimes) plug
//! in by declaring per-period CPU demand and receiving their grant.
//!
//! The init-process dance from §3.2 is modelled too: the original init
//! sets up the namespaces, `exec`s the user command, and dies; namespace
//! ownership transfers to the new init so the updater keeps reaching it.
//!
//! # Example
//!
//! ```
//! use arv_container::{ContainerSpec, SimHost};
//! use arv_resview::Sysconf;
//!
//! let mut host = SimHost::paper_testbed(); // 20 cores, 128 GB
//! let ids: Vec<_> = (0..5)
//!     .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20).cpus(10.0)))
//!     .collect();
//! // Saturate everyone for a while.
//! for _ in 0..50 {
//!     let demands: Vec<_> = ids.iter().map(|id| host.demand(*id, 20)).collect();
//!     host.step(&demands);
//! }
//! // Inside a container, resource probing sees the effective share …
//! assert_eq!(host.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 4);
//! // … while a host process still sees the physical machine.
//! assert_eq!(host.sysconf(None, Sysconf::NprocessorsOnln), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod spec;

pub use host::{SimHost, StepOutcome};
pub use spec::ContainerSpec;

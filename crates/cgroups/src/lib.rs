//! Control-group model.
//!
//! Containers in the paper are isolated with Linux cgroups: the cpu
//! controller (`cpu.shares`, `cpu.cfs_quota_us`/`cpu.cfs_period_us`,
//! `cpuset.cpus`) and the memory controller
//! (`memory.limit_in_bytes`, `memory.soft_limit_in_bytes`). This crate
//! models exactly those knobs plus a flat cgroup manager (one cgroup per
//! container, as on the paper's Docker testbed) that records
//! create/remove/update events — the hook the paper's `ns_monitor` uses to
//! refresh per-container `sys_namespace`s ("we modify the source code of
//! cgroups to invoke ns_monitor if a sys_namespace exists for a control
//! group and there is a change to the cgroups settings", §3.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod events;
pub mod manager;
pub mod memory;

pub use cpu::{CpuController, CpuSet};
pub use events::{EventPipe, SeqEvent, DEFAULT_PIPE_CAPACITY};
pub use manager::{CgroupEvent, CgroupId, CgroupManager, CgroupSpec, IdMap};
pub use memory::{Bytes, MemController};

//! A HotSpot-like JVM model with the Parallel Scavenge collector.
//!
//! The paper's two case studies both live inside HotSpot: **dynamic
//! parallelism** (the PS collector waking `min(N, N_active, E_CPU)` GC
//! workers per collection, §4.1) and the **elastic heap** (`VirtualMax` /
//! `YoungMax` / `OldMax` decoupling the sizing algorithm from the static
//! reserved size, §4.2). This crate models the JVM at the granularity
//! those mechanisms act on:
//!
//! * a generational heap (eden-centric young generation + old generation,
//!   1:2 size ratio) with committed/used/reserved accounting charged to
//!   the container's memory cgroup;
//! * minor/major collections whose CPU cost scales with bytes copied and
//!   scanned, decomposed through a `GCTaskQueue` (dynamic work assignment
//!   with steal tasks, as in Figure 4 of the paper) and executed through
//!   the shared CFS model — so over-threading, CPU contention from
//!   neighbouring containers, and swap-induced collapse all emerge from
//!   the same substrate the resource view observes;
//! * launch-time GC-thread and heap policies reproducing JDK 8 (host
//!   view), JDK 9 (static limits), JDK 10 (static shares), hand-optimized
//!   configurations, and the paper's adaptive JVM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gc;
pub mod heap;
pub mod jvm;
pub mod policy;
pub mod profile;
pub mod tasks;

pub use gc::{GcCostModel, GcKind, GcWork};
pub use heap::{Heap, HeapLimits};
pub use jvm::{Jvm, JvmConfig, JvmMetrics, JvmOutcome};
pub use policy::{
    dynamic_active_workers, gc_workers, hotspot_default_gc_threads, ContainerAwareness, HeapPolicy,
};
pub use profile::JavaProfile;
pub use tasks::{GcTask, GcTaskQueue};

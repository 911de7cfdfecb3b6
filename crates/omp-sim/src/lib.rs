//! An OpenMP-like (libgomp) runtime model.
//!
//! Unlike the JVM, OpenMP creates its worker team when each *parallel
//! region* starts, so the thread-count decision repeats throughout the
//! run (§4.1). Three strategies are modelled, matching §5.2's Figure 10:
//!
//! * **static** — every region runs with a fixed team matching the online
//!   CPU count (the default when `OMP_DYNAMIC` is off);
//! * **dynamic** — libgomp's `gomp_dynamic_max_threads`:
//!   `n_onln − loadavg`, with the 15-minute load average;
//! * **adaptive** — the paper's change: the team size is the effective
//!   CPU count from `sys_namespace` ("we substitute n_onln with E_CPU and
//!   remove the second term of the formula").
//!
//! Region execution uses the same mechanics as GC work: serial + parallel
//! CPU work advancing on the container's per-period grant, with a
//! contention penalty when the team outnumbers the CPUs granted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
pub mod runtime;

pub use profile::OmpProfile;
pub use runtime::{OmpMetrics, OmpOutcome, OmpRuntime, ThreadStrategy};

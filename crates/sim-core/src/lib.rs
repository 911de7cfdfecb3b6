//! Deterministic discrete-time simulation kernel.
//!
//! Every component of the reproduction (the CFS-like scheduler, the memory
//! manager, the simulated JVM/OpenMP runtimes) advances on a shared
//! [`SimClock`] in *scheduling periods*, mirroring how the paper's
//! `sys_namespace` update timer is tied to the Linux CFS scheduling period
//! (24 ms for up to 8 runnable tasks, `3 ms × n_tasks` beyond that; §3.2 of
//! the paper).
//!
//! The kernel is intentionally small: time arithmetic, a clock, a seeded
//! RNG, a fault plan, the one id-sorted table ([`IdMap`]), and
//! trace/statistics helpers shared by the experiment harnesses. All simulations are exactly reproducible for a
//! given seed — no wall-clock time or OS entropy is consulted anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod faults;
pub mod id_map;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use clock::SimClock;
pub use faults::{FaultConfig, FaultPlan, FaultStats};
pub use id_map::IdMap;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};

//! Host memory-manager model.
//!
//! Algorithm 2 of the paper (effective memory) reads exactly four things
//! from the kernel: system-wide free memory, the kswapd watermarks, each
//! container's current usage, and whether kswapd is currently reclaiming.
//! This crate models that machinery:
//!
//! * per-cgroup **charging** against `memory.limit_in_bytes` — exceeding
//!   the hard limit swaps the container's own pages (or OOM-kills it when
//!   no swap is left), as §2.1 describes;
//! * **kswapd** with `min/low/high` watermarks — background reclaim from
//!   containers above their soft limit starts when free memory falls below
//!   `low` and runs until free memory recovers to `high`; below `min`,
//!   direct reclaim takes from any container (§3.1);
//! * a **swap device** whose per-container swapped-page count the runtime
//!   models translate into mutator slowdown (thrashing/performance
//!   collapse in Figures 11 and 12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kswapd;
pub mod manager;

pub use kswapd::{KswapdState, Watermarks};
pub use manager::{ChargeOutcome, MemSim, MemSimConfig};

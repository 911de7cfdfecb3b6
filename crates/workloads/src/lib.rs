//! Calibrated synthetic workload profiles.
//!
//! The paper evaluates with DaCapo, SPECjvm2008, HiBench (Spark), the NAS
//! Parallel Benchmarks, sysbench background load, and a §5.3 allocation
//! micro-benchmark. None of those suites can run here (no JVM, no Spark,
//! no OpenMP), so each benchmark is encoded as a *profile* — the
//! parameters that drive the runtime models: mutator CPU work and thread
//! count, allocation rate, survival/promotion behaviour, live-set size,
//! parallel-region structure. Values are calibrated so relative GC load
//! and memory footprints match each benchmark's published character and
//! the behaviours the paper reports (e.g. H2's working set not fitting in
//! 256 MB, lusearch/xalan overrunning a 1 GB hard limit, DaCapo heaps
//! set to 3× the minimum heap size).
//!
//! The Figure 1 DockerHub census is an embedded dataset in
//! [`dockerhub`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dacapo;
pub mod dockerhub;
pub mod hibench;
pub mod microbench;
pub mod npb;
pub mod specjvm;
pub mod sysbench;

pub use dacapo::{dacapo_profile, DACAPO_BENCHMARKS};
pub use dockerhub::{dockerhub_census, language_stats, ImageRecord, LanguageStat};
pub use hibench::{hibench_profile, HIBENCH_BENCHMARKS};
pub use microbench::alloc_churn_microbenchmark;
pub use npb::{npb_profile, NPB_BENCHMARKS};
pub use specjvm::{specjvm_profile, SPECJVM_BENCHMARKS};
pub use sysbench::{sysbench_mix, CpuHog};

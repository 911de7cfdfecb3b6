//! `arv-viewd`: a concurrent view-serving daemon over adaptive resource
//! views.
//!
//! The paper's kernel keeps per-container *effective* CPU/memory views
//! current (Algorithms 1–2) and answers `sysconf`/procfs queries from
//! them (§2.2); its evaluation prices a query at ~5 µs (§5.4). This crate
//! is the user-space serving layer for those views:
//!
//! * [`server::ViewServer`] — registry of live [`arv_resview::NsCell`]s,
//!   **sharded** by cgroup-id hash so concurrent lookups don't contend on
//!   one lock, each entry carrying a **generation-stamped render cache**
//!   ([`cache::RenderCache`]): a rendered `/proc/cpuinfo` or
//!   `/proc/meminfo` image is reused until the cell's seqlock generation
//!   moves, and every render draws all its numbers from one untorn
//!   [`arv_resview::ViewSnapshot`] — a served image can never mix the CPU
//!   count of one update with the memory size of another;
//! * [`server::ViewClient`] — the in-process query handle (file reads
//!   and `sysconf`);
//! * [`wire`] — a length-prefixed request/response protocol over a
//!   Unix-domain socket for out-of-process consumers, with
//!   [`wire::WireServer`], the thin [`wire::WireClient`] and the
//!   fault-tolerant [`wire::RobustWireClient`] (deadlines, seeded
//!   backoff, reconnect, circuit breaker, last-good fallback);
//! * [`reactor`] — the readiness-driven serving engine under the wire
//!   tier (and the fleet controller's): N sharded epoll event loops
//!   over the direct-FFI [`sys`] module, nonblocking connection slabs,
//!   incremental frame reassembly, vectored batched writes, and
//!   queue-depth + write-stall slow-client eviction, configured by the
//!   validated [`config::ServerConfig`] builder;
//! * [`metrics`] — lock-free counters (queries, cache hits/misses, wire
//!   traffic, stale/degraded serves) and latency/staleness histograms
//!   built on [`arv_sim_core::stats::Histogram`].
//!
//! # Fault tolerance
//!
//! The server keeps an update-timer clock
//! ([`server::ViewServer::advance_tick`]) and one freshness word per host,
//! the tick the driver last brought every cell level with its monitor
//! ([`server::ViewServer::mark_fresh`]). Every query is judged by the
//! word's age against a [`arv_resview::StalenessPolicy`]: views past the
//! staleness budget are answered from the conservative fallback
//! ([`arv_resview::ViewSnapshot::fallback`]: Algorithm 1's lower bound,
//! the memory soft limit and what the last usage leaves of it — the
//! same answer [`arv_resview::VirtualSysfs`] gives) and flagged degraded
//! in both the in-process [`server::ViewImage`] and the wire status
//! byte.

// Production code must not panic on a recoverable fault: unwraps are
// confined to tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod config;
pub mod metrics;
pub mod reactor;
pub mod server;
pub mod shard;
pub mod sys;
pub mod wire;

pub use cache::{CachedImage, PathId, RenderCache};
pub use codec::{
    read_frame, write_frame, FrameDecoder, RetryPolicy, Transport, TransportStats, Verdict,
    WireError,
};
pub use config::{ServerConfig, ServerConfigBuilder};
pub use metrics::{Metrics, MetricsSnapshot};
pub use reactor::{EvictReason, FrameService, Reactor, Response, ResponseBody, ServiceAction};
pub use server::{HostSpec, ViewClient, ViewImage, ViewServer, CONTAINER_PATHS};
pub use shard::{ContainerEntry, ShardedRegistry};
pub use wire::{
    parse_response, RobustWireClient, WireClient, WireClientStats, WireResponse, WireServer,
    DEFAULT_RETRY_AFTER_MS, HOST_CALLER, KIND_READ, KIND_STATS, KIND_SYSCONF, KIND_TRACE,
    MAX_REQUEST, MAX_RESPONSE, STATUS_NOT_FOUND, STATUS_OK, STATUS_OK_DEGRADED, STATUS_OK_SHED,
};

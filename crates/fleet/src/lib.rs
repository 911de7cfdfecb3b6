//! `arv-fleet`: a core↔periphery control plane aggregating adaptive
//! resource views across a fleet of simulated hosts.
//!
//! The single-host stack keeps one machine's effective CPU/memory views
//! current and serves them; the paper's views only pay off at
//! datacenter scale when a controller can see *cluster-wide* effective
//! capacity rather than per-host guesses. This crate is that control
//! plane, split the way real fleet managers are:
//!
//! * [`periphery::Periphery`] — a thin agent riding each `SimHost`'s
//!   update timer. It diffs the monitor's persisted snapshot against
//!   what it last shipped and streams batched DELTA frames upward,
//!   FULL snapshots on first attach and after any resync demand.
//! * [`controller::FleetController`] — the core: a sharded
//!   host×container index with per-shard running totals, answering
//!   cluster capacity, per-tenant rollups, and top-k pressure queries;
//!   journaling every accepted DELTA as one record through `arv-persist`
//!   so a crashed controller warm-restarts prefix-consistently; and
//!   pushing policy (staleness budgets, batch/burst limits) back down in
//!   ACKs.
//! * [`protocol`] — the HELLO/DELTA/POLICY/QUERY frame layouts, riding
//!   the same length-prefixed framing as the viewd wire (the shared
//!   [`arv_viewd::codec`]); every decode path is fuzz-hardened.
//! * [`wire`] — the Unix-socket transport: [`wire::FleetWireServer`]
//!   serving a controller, and the one client, [`wire::FleetClient`],
//!   for peripheries, rollup readers and replication links.
//!
//! Failure semantics mirror the single-host watchdog: sequence gaps
//! demand FULL resyncs; silent hosts are flagged partitioned and served
//! last-good (rollups carry a degraded flag); a controller failover
//! restores the journal and is healed host-by-host as resyncs land.
//!
//! The controller itself is replicated: a primary streams every
//! accepted journal record to hot standbys over REPL frames (the same
//! bytes, applied by the path the primary applies a DELTA by), a
//! file-backed lease ([`arv_persist::lease`]) with monotone controller
//! epochs governs leadership, and every ACK/ROLLUP carries the issuing
//! controller's epoch so peripheries and readers fence frames from a
//! deposed primary. Peripheries enforce the pushed `rate_burst` as a
//! local token bucket, coalescing (never dropping) diffs while the
//! bucket is dry. Over real sockets, [`wire::FleetClient`] walks a
//! configured controller list on send failure or a not-leader ACK (the
//! e2e suites drive it); the campaigns carry frames between peripheries
//! and controllers in-process, and `arv-benchmark`'s `fleet_fanin`
//! writes codec frames over its own pipe.

// Production code must not panic on a recoverable fault: unwraps are
// confined to tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod periphery;
pub mod protocol;
#[cfg(test)]
mod reference;
pub mod wire;

pub use controller::{
    FleetController, FleetExplain, FleetMetrics, FleetMetricsSnapshot, HostCausalEvent,
    HostEventKind, SharedLease,
};
pub use periphery::{AckDisposition, Periphery, PeripheryStats};
pub use protocol::{
    decode_frame, encode_ack, encode_delta, encode_hello, encode_policy, encode_query,
    encode_rollup, Ack, ClusterRollup, Delta, DeltaEntry, DeltaHead, FleetPolicy, Frame, Hello,
    HostSummary, PressurePoint, Query, Repl, Rollup, RollupFrame, SpanStamp, TenantRollup,
    MAX_FLEET_FRAME, OP_ACK, OP_DELTA, OP_HELLO, OP_POLICY, OP_QUERY, OP_REPL, OP_ROLLUP,
    QUERY_CLUSTER, QUERY_FLIGHT, QUERY_STATS, QUERY_TENANT, QUERY_TOPK, REPL_PEER,
};
pub use wire::{FleetClient, FleetWireServer};
